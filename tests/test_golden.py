"""Golden output digests: the identity contract of the augmentation, of
recognition and of the SVG renderer.

Each digest is the SHA-256 of the repr of plain tuples of ints and
strings, so it does not depend on hash order or on how the library stores
its triangulations; an SVG digest is the SHA-256 of the document.  A
change that keeps outputs identical keeps every digest; a change that
means to alter outputs must say so and update them.
"""

import hashlib
import random

from _helpers import (
    drop_edges_through_vertices,
    random_biplane_graph,
    random_edge_subset_graph,
    random_lattice_points,
    random_plane_graph,
    random_strict_points,
    with_first_non_edge,
)

from biplanekit.augmentation import maximal_augment
from biplanekit.cli import run
from biplanekit.constructions import gen_convex, gen_grid
from biplanekit.fileio import format_graph, format_points
from biplanekit.geometry import PointSet, Strictness
from biplanekit.graphs import GeometricGraph
from biplanekit.recognition import (
    BiplaneDecomposition,
    OddCycleWitness,
    TooManyEdges,
    test_biplane,
)
from biplanekit.svgrender import render_svg
from biplanekit.triangulation import (
    CollinearError,
    GeometryError,
    NotPlaneError,
    _triangulation_masks,
    complete_layers,
    complete_to_triangulation,
)


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def augment_digests(g: GeometricGraph) -> dict[str, str]:
    res = maximal_augment(g, collect_trace=True)
    trace = tuple(
        (r.edge, r.clause, r.recolored_anchor, r.new_edge, r.merged_faces)
        for r in res.trace or ()
    )
    return {
        "graph": digest(res.graph.edges),
        "decomposition": digest((res.decomposition.layer1, res.decomposition.layer2)),
        "red": digest(res.red_layer),
        "blue": digest(res.blue_layer),
        "trace": digest(trace),
    }


def layer_digest(g: GeometricGraph) -> str:
    verdict = test_biplane(g)
    tris = complete_layers(g.points, (verdict.layer1, verdict.layer2))
    return digest(tuple(tuple(t.sorted_edges()) for t in tris))


def golden_inputs() -> dict[str, GeometricGraph]:
    rng = random.Random(1717)
    out = {}
    for n in (60, 200):
        ps = random_strict_points(rng, n)
        out[f"strict-{n}-empty"] = GeometricGraph(ps, ())
        out[f"strict-{n}-biplane"] = random_biplane_graph(rng, ps, n)
    lattice = random_lattice_points(rng, 9, 50)
    out["lattice-plane"] = random_plane_graph(rng, lattice, 2 * len(lattice))
    out["grid-8"] = gen_grid(8).graph
    out["convex-40-maximal"] = maximal_augment(GeometricGraph(gen_convex(40), ())).graph
    return out


GOLDEN_AUGMENT = {
    "strict-60-empty": {
        "graph": "c5ec1c88b7b59a4b0f72e6169f8512a2acd564439bd3048174d453095182b600",
        "decomposition": "4533c8e846e61aace26958e3a398c725180ad7e2191a34d6aaf90a66a052dc61",
        "red": "415c262ec737ffca40fa38a623d38e0578d5c6fc5893e7663a555d5111b9569b",
        "blue": "21579caa5fb0265730de81e85d7dee672fb743233f1dcb69578cf1b05b228dc1",
        "trace": "47cbed50b285844c04a061ba436676818017e4236ec910f87b6556fc82af2eaa",
    },
    "strict-60-biplane": {
        "graph": "42c8711c384dda4936f6b6af8cd4914fef717ff4c45d12882afcefef4b237581",
        "decomposition": "32a5b563224a65fbd8f9cb83f7d332f69264348f4b6d9b8e81fa544baed8324b",
        "red": "b1fd00a5329ded0841c5f40946afac36bee731cb86f14c2ce4f2e37c7170cea5",
        "blue": "bb36597c85c6c4fee5be2abfc2bffe1193f45ee9adc0110e292f4703544e11b0",
        "trace": "509845a6481bcdd5125908e577ab064802621af8d4636f476217725048e0081c",
    },
    "strict-200-empty": {
        "graph": "a7589e3453cab76e8258c999325e08f963a95cb04f55872da91adc246451bbe9",
        "decomposition": "6492349d68d5eaf3f6a2adf971d26e1ba8363ce4aa5ba2908e66f6cef2e1cebe",
        "red": "3dd91af9a64775f2070567e76283a9d8feff7612ea551bc59cdd633932104daf",
        "blue": "8ac64b12b8c5ccf53cfef8348ba4f609c86b1ad935e9a43be67efa4696218dc2",
        "trace": "9f851f0f63ae540d39148f3b8fe3cc9f9443c8f1890b8762aad2eea2c0bbd9f3",
    },
    "strict-200-biplane": {
        "graph": "ac1b43c4e5c39191c1496f3e54448e96587627a4b8bc86d2d7482ff7b7f19b53",
        "decomposition": "ded2abf33b064cd048425c2a7481bba983d85cc5949e38ba155bbda9ed525a6f",
        "red": "dad591d816bf1bc279e6c5ffd2d9b1be29f985b39a9441ed69b7f1f78267f402",
        "blue": "d9103d41cdc8ad22ebc2f953331ff4daa00cfe5075816de23b8aa1dfe7893cf1",
        "trace": "7e4deeb315564ba8aea99a2bdd78f5a1d645f688768c3da88e3c3b4b40ee37b5",
    },
    "lattice-plane": {
        "graph": "0c444220a0e65616905ffe560a5abb5c6c31373776eba67d8c797c642c083ecd",
        "decomposition": "bab7596165a75b964a31eeacc2d7b55b582006dded7f5457baca050839a0f31b",
        "red": "c8e6bd1df31c609a2db1bc8965ed4ffb2b632615843b8150b3eae81a57972518",
        "blue": "18652cd9ea6a64af89cb9f6a601b942163d0ce4e82070fc589bb07159f73ec53",
        "trace": "743ae6b38db156fde072e95632a06b8839b0b7ca5b17787028dfd8e9ab612bba",
    },
    "grid-8": {
        "graph": "d84401c295152e9d9d227bcf317fc148353b1bacd8c531712847e01c928b9d0a",
        "decomposition": "ae854a87fd63365b6851e67718ab512bc574b4e12f00a18b80c4b50ddf5be726",
        "red": "19fb939ea3e52da32b42809214b21075ded278fe48c7c16eb2dd5b766777a915",
        "blue": "037f54cc426882d76c53dca04553705ce8cf80176fa6436b034c6ab77ecf8414",
        "trace": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    },
    "convex-40-maximal": {
        "graph": "52096dca54a1fc7e7b08d73a36430bb64e2eb7df8ed17b3aabeff0e580955db9",
        "decomposition": "31908045fb35b144b578c2f9e07ba9e396ce83b3ef993d006c3cb7cf346d112c",
        "red": "2dee0b7d0885126163d5c6c890d66f960899821f900badec3a1a78a4d679489b",
        "blue": "61d57be6b358e954963373176127d9ceb22d81fefd532d22c2f5b1861010fe2e",
        "trace": "2e38e77b22c314a449e91fafed92a43826ac6aa403ae6a8acb6cf58239fbaf5d",
    },
}

GOLDEN_LAYERS = {
    "strict-60-empty": "7d4de62d9c28cc631bb1910fd06d08534a12f9645c4f700323978c968592f1aa",
    "strict-60-biplane": "1a8b942beff6890b53dc6b946337777fe3ba3b56d3c0560a8597865106ec6550",
    "strict-200-empty": "c3c1d2f8ecfbb66b1e64d0f77164f9b91bc414e80aaa95495beff08bdd5c1b80",
    "strict-200-biplane": "1e8a841383217d58aa80c5ad056b45b1f4c40f7e991b05022405e730d2a0d215",
    "lattice-plane": "39a9a387b516131f0a789c1c5eb22624ea61f15e60ff889cc2bb1b3a83fb3cc9",
    "grid-8": "40cd93fb489e11078a3b0192625b1cc655c2373e2379201685c13aaece65eaf0",
    "convex-40-maximal": "0114727555d3b1219d639abb56bf8aad9b4f228db4fa7e45d32e9ec67670150a",
}

GOLDEN_ENUMERATION = "7b3d46f96600732d00431be47f5b9df09ae3373a0dcb484a20b1c7be08fbcfce"


def test_augment_outputs_match_golden_digests():
    got = {name: augment_digests(g) for name, g in golden_inputs().items()}
    assert got == GOLDEN_AUGMENT


def test_completed_layers_match_golden_digests():
    got = {name: layer_digest(g) for name, g in golden_inputs().items()}
    assert got == GOLDEN_LAYERS


def test_enumeration_matches_golden_digest():
    ps = random_strict_points(random.Random(88), 8)
    segments, masks = _triangulation_masks(ps, len(ps))
    tris = tuple(tuple(e for k, e in enumerate(segments) if mask >> k & 1) for mask in masks)
    assert digest(tris) == GOLDEN_ENUMERATION


def enumerate_listing_inputs() -> dict[str, tuple[str, list[str]]]:
    """Files for `triangulate --enumerate`, each with its flags: convex
    points, a strict set with two input edges, and a lattice set with one
    input edge, read as a relaxed set."""
    rng = random.Random(2525)
    strict = random_strict_points(rng, 8)
    lattice = random_lattice_points(rng, 3, 8)
    return {
        "convex-9": (format_points(gen_convex(9)), []),
        "strict-8-two-edges": (format_graph(random_plane_graph(rng, strict, 2)), []),
        "lattice-one-edge": (
            format_graph(random_plane_graph(rng, lattice, 1)),
            ["--relaxed"],
        ),
    }


GOLDEN_ENUMERATE_LISTINGS = {
    "convex-9": "b4fb8a1dd20b10527c81d612d3c7a54051feeb667deb80d3099458ee5593bb7f",
    "strict-8-two-edges": "0cfa358ff099ba3ee4a026a6dcd449e9391560429b3bf6c2ac7ba6fe324ccd2e",
    "lattice-one-edge": "ba360c060b5eaba11aa288260766fd1254152856d7cc21574b53ebd2e61db18a",
}


def test_enumerate_listings_match_golden_digests(tmp_path, capsys):
    got = {}
    for name, (text, flags) in enumerate_listing_inputs().items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        capsys.readouterr()
        assert run(["triangulate", str(path), "--enumerate", *flags]) == 0
        out = capsys.readouterr().out
        got[name] = hashlib.sha256(out.encode()).hexdigest()
    assert got == GOLDEN_ENUMERATE_LISTINGS


def completion_inputs() -> list[GeometricGraph | PointSet]:
    """Inputs to `complete_to_triangulation` that reach every outcome:
    strict edge subsets (crossing or not), strict plane graphs, relaxed
    lattice subsets whose edges may pass through a vertex or overlap along
    a line, collinear point sets with and without edges, and bare points."""
    rng = random.Random(2626)
    out: list[GeometricGraph | PointSet] = []
    for _ in range(200):
        ps = random_strict_points(rng, rng.randint(3, 12), 60)
        out.append(random_edge_subset_graph(rng, ps, rng.uniform(0.0, 0.2)))
        out.append(random_plane_graph(rng, ps, rng.randint(1, 2 * len(ps))))
        if rng.random() < 0.2:
            out.append(ps)
    for _ in range(300):
        ps = random_lattice_points(rng, rng.randint(3, 5), 4)
        out.append(random_edge_subset_graph(rng, ps, rng.uniform(0.0, 0.2)))
    for n in range(8):
        out.append(PointSet.from_coords([(i, 2 * i) for i in range(n)], Strictness.RELAXED))
    for _ in range(80):
        dx, dy = rng.choice([(1, 0), (0, 1), (1, 1), (2, -1)])
        cells = rng.sample(range(-5, 6), rng.randint(2, 7))
        ps = PointSet.from_coords([(i * dx, i * dy) for i in cells], Strictness.RELAXED)
        out.append(random_edge_subset_graph(rng, ps, rng.uniform(0.0, 0.6)))
    return out


def completion_outcome(source: GeometricGraph | PointSet) -> tuple:
    try:
        return ("ok", tuple(complete_to_triangulation(source).sorted_edges()))
    except (NotPlaneError, CollinearError, GeometryError) as exc:
        return (type(exc).__name__, str(exc))


GOLDEN_COMPLETION = "95feaf0953e91df76cc4c68daf82e815e498335e01005e9c5c0ec935a0dc7a08"


def test_completion_outcomes_match_golden_digest():
    outcomes = [completion_outcome(source) for source in completion_inputs()]
    # The corpus reaches every outcome, so the digest pins completions,
    # the named crossing pairs and the messages of both other errors.
    assert {kind for kind, _ in outcomes} == {
        "ok",
        "NotPlaneError",
        "CollinearError",
        "GeometryError",
    }
    assert digest(outcomes) == GOLDEN_COMPLETION


def verdict_key(res) -> tuple:
    """A test_biplane verdict as plain tuples, witness cycle included."""
    if isinstance(res, BiplaneDecomposition):
        return ("biplane", res.layer1, res.layer2)
    if isinstance(res, OddCycleWitness):
        return ("odd", res.cycle)
    assert isinstance(res, TooManyEdges)
    return ("cap", res.n, res.m, res.cap)


def recognition_inputs() -> dict[str, list[GeometricGraph]]:
    """Groups of graphs whose verdicts, odd cycles included, follow the
    order in which recognition's sweep meets the crossings."""
    rng = random.Random(2323)
    out: dict[str, list[GeometricGraph]] = {}
    strict = [random_strict_points(rng, rng.randint(6, 30)) for _ in range(30)]
    out["strict-biplane"] = [random_biplane_graph(rng, ps, 4 * len(ps)) for ps in strict]
    out["strict-non-biplane"] = [
        random_edge_subset_graph(rng, ps, rng.uniform(0.05, 0.3)) for ps in strict
    ]
    # Lattice cells share columns and rows, and their graphs hold
    # vertical edges and edges that meet along one line.
    lattice = [random_lattice_points(rng, rng.randint(3, 7), 6) for _ in range(30)]
    out["lattice-biplane"] = [
        drop_edges_through_vertices(random_biplane_graph(rng, ps, 3 * len(ps)))
        for ps in lattice
    ]
    out["lattice-non-biplane"] = [
        drop_edges_through_vertices(random_edge_subset_graph(rng, ps, rng.uniform(0.1, 0.5)))
        for ps in lattice
    ]
    out["grid-8"] = [gen_grid(8).graph]
    for n in (21, 60):
        maximal = maximal_augment(GeometricGraph(gen_convex(n), ())).graph
        out[f"convex-{n}-maximal"] = [maximal]
        out[f"convex-{n}-chord"] = [with_first_non_edge(maximal)]
    return out


GOLDEN_RECOGNITION = {
    "strict-biplane": "d7c01450ef4350695745f4b4b484176a77d42169a810e7b5a5ff66e12e859f6a",
    "strict-non-biplane": "28636525c2b6ad2aae31ef9878b858908ea2e7cb5c973e11b31a9f5eff3ecd2b",
    "lattice-biplane": "a1b7099d287bb0cb3e49d87e90fb366f91436ecb333df1c79e27ee6eba7cb649",
    "lattice-non-biplane": "2e880d5bdca11f2db9e49cbbbb8b3db431bfcd714a5b41b9355e54f7484d272c",
    "grid-8": "86bf53c7debe0e3d8abe7d0e686e40fde19f1bb978f3e18f820e960c474e675f",
    "convex-21-maximal": "1e96e87ab37012c21a3b80a329699188ba888e3107fae2984b15f2f5e02f2413",
    "convex-21-chord": "e2c1338c7ebb9868e2cc5cbe6c19e1b8aae90cd6dda8e64a4356ea9a4b289450",
    "convex-60-maximal": "3ce7cf627ee47091e7df2057946f51b582a72d9a19a294e99f6d020036546acd",
    "convex-60-chord": "e2c1338c7ebb9868e2cc5cbe6c19e1b8aae90cd6dda8e64a4356ea9a4b289450",
}


def test_recognition_verdicts_match_golden_digests():
    inputs = recognition_inputs()
    verdicts = {name: [test_biplane(g) for g in gs] for name, gs in inputs.items()}
    kinds = {name: {type(v).__name__ for v in vs} for name, vs in verdicts.items()}
    # Each group reaches the verdicts it is named for, so the digests
    # cover witnesses on strict and on relaxed point sets.
    for name in ("strict-biplane", "lattice-biplane", "grid-8"):
        assert kinds[name] == {"BiplaneDecomposition"}
    for name in ("strict-non-biplane", "lattice-non-biplane"):
        assert "OddCycleWitness" in kinds[name]
    for n in (21, 60):
        assert kinds[f"convex-{n}-maximal"] == {"BiplaneDecomposition"}
        assert kinds[f"convex-{n}-chord"] == {"OddCycleWitness"}
    got = {name: digest(tuple(map(verdict_key, vs))) for name, vs in verdicts.items()}
    assert got == GOLDEN_RECOGNITION


def svg_inputs() -> dict[str, GeometricGraph]:
    """Biplane graphs whose drawings mix uncrossed edges with both layers:
    a grid, a maximal convex graph, and random strict and lattice graphs."""
    rng = random.Random(2424)
    lattice = random_lattice_points(rng, 7, 30)
    return {
        "grid-8": gen_grid(8).graph,
        "convex-21-maximal": maximal_augment(GeometricGraph(gen_convex(21), ())).graph,
        "strict-40-biplane": random_biplane_graph(rng, random_strict_points(rng, 40), 120),
        "lattice-biplane": drop_edges_through_vertices(
            random_biplane_graph(rng, lattice, 3 * len(lattice))
        ),
    }


GOLDEN_SVG = {
    "grid-8": "f8750e609d7807b98c73c391f663991a133ca6a89928d6fcfaebfb1471c30cf7",
    "convex-21-maximal": "50c10545e3d7efaa4f772c3758bfaa4a28d623c932da6528196a8bfcfe70440e",
    "strict-40-biplane": "81dca893ed136d7c93ab43a5cdbfee76d176ef729cd8e93ce99b44c7feff8172",
    "lattice-biplane": "fa22ea3432fb2b005f80dcf2e90aa8dddb6214b63ed7aac9a00ca1ce884932ec",
}


def test_svg_drawings_match_golden_digests():
    got = {}
    for name, g in svg_inputs().items():
        verdict = test_biplane(g)
        assert isinstance(verdict, BiplaneDecomposition)
        svg = render_svg(g)
        got[name] = hashlib.sha256(svg.encode()).hexdigest()
    assert got == GOLDEN_SVG
