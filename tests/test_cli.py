import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from biplanekit.cli import run
from biplanekit.fileio import (
    FileFormatError,
    format_graph,
    format_points,
    parse_graph,
    parse_points,
)
from biplanekit.geometry import PointSet, Strictness
from biplanekit.graphs import GeometricGraph
from biplanekit.recognition import NotBiplaneError, test_biplane
from biplanekit.svgrender import LAYER1_COLOR, LAYER2_COLOR, SHARED_COLOR, render_svg


def k4_text() -> str:
    return "4\n0 0\n5 0\n5 5\n0 5\n6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n"


def k5_text() -> str:
    pts = [
        (int(1e6 * math.cos(2 * math.pi * i / 5)), int(1e6 * math.sin(2 * math.pi * i / 5)))
        for i in range(5)
    ]
    body = "\n".join(f"{x} {y}" for x, y in pts)
    edges = "\n".join(f"{a} {b}" for a in range(5) for b in range(a + 1, 5))
    return f"5\n{body}\n10\n{edges}\n"


def test_roundtrip_points_and_graph():
    ps = PointSet.from_coords([(0, 0), (7, 1), (3, 9)])
    assert parse_points(format_points(ps)).points == ps.points
    g = GeometricGraph(ps, ((0, 1), (1, 2)))
    g2 = parse_graph(format_graph(g))
    assert g2.points.points == ps.points and g2.edges == g.edges


def test_parse_skips_comments_and_blanks():
    text = "# a comment\n3\n\n0 0  # trailing\n1 0\n0 1\n"
    ps = parse_points(text)
    assert len(ps) == 3


def test_parse_reports_line_and_column():
    with pytest.raises(FileFormatError) as exc:
        parse_points("2\n0 0\nxx 1\n")
    assert exc.value.line == 3 and exc.value.column == 1


def test_check_biplane_exit_zero(tmp_path, capsys):
    f = tmp_path / "k4.graph"
    f.write_text(k4_text())
    assert run(["check", str(f)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "BIPLANE"
    assert out[1].startswith("LAYER1 ")


def test_check_not_biplane_exit_one(tmp_path, capsys):
    f = tmp_path / "k5.graph"
    f.write_text(k5_text())
    assert run(["check", str(f)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "NOT-BIPLANE"
    assert out[1] == "WITNESS 5"


def test_check_too_many_edges(tmp_path, capsys):
    # complete graph on 10 convex points: 45 > 42
    pts = [(x, x * x) for x in range(10)]
    body = "\n".join(f"{x} {y}" for x, y in pts)
    edges = [(a, b) for a in range(10) for b in range(a + 1, 10)]
    text = f"10\n{body}\n{len(edges)}\n" + "\n".join(f"{a} {b}" for a, b in edges) + "\n"
    f = tmp_path / "dense.graph"
    f.write_text(text)
    assert run(["check", str(f)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "TOO-MANY-EDGES"


def test_malformed_file_exit_two(tmp_path, capsys):
    f = tmp_path / "bad.graph"
    f.write_text("3\n0 0\noops 1\n2 2\n0\n")
    assert run(["check", str(f)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_missing_file_exit_two(tmp_path):
    assert run(["check", str(tmp_path / "absent.graph")]) == 2


def test_unknown_flag_exit_two(tmp_path):
    f = tmp_path / "k4.graph"
    f.write_text(k4_text())
    assert run(["check", "--bogus", str(f)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "k4.graph", "--out", "out.txt"],
        ["analyze", "k4.graph", "--out", "out.txt"],
        ["oracle", "k4.pts", "--out", "out.txt"],
        ["gap", "k4.pts", "--trials", "2", "--seed", "1", "--out", "out.txt"],
        ["generate", "convex", "--n", "5", "--relaxed"],
    ],
)
def test_flags_a_command_would_ignore_exit_two(tmp_path, monkeypatch, capsys, argv):
    # Each subcommand takes only the flags its code reads: these commands
    # print and never write --out, and generate reads no file to relax.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k4.graph").write_text(k4_text())
    (tmp_path / "k4.pts").write_text(format_points(parse_graph(k4_text()).points))
    assert run(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out.txt").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "convex"], "convex needs --n"),
        (["generate", "grid", "--k", "8", "--flips", "bogus"], "unknown flip spec 'bogus'"),
        (["check", "absent.graph"], "No such file or directory"),
        # A flip applied twice finds its edges gone.
        (["generate", "grid", "--k", "8", "--flips", "corners,corners"], "not in the layer"),
        (["generate", "grid", "--k", "8", "--flips", "boundary:4,boundary:4"], "not in the layer"),
        # No boundary position fits below k = 7.
        (["generate", "grid", "--k", "6", "--flips", "boundary:4"], "boundary flips need k >= 7"),
        (["generate", "grid", "--k", "5", "--flips", "boundary:4"], "boundary flips need k >= 7"),
        (["generate", "arc-triangle"], "arc-triangle needs --n"),
        (["generate", "hgon-arc", "--n", "8"], "hgon-arc needs --n and --h"),
        (["generate", "grid"], "grid needs --k"),
    ],
)
def test_argument_and_io_errors_are_not_file_positions(
    tmp_path, monkeypatch, capsys, argv, message
):
    # Bad arguments and unreadable paths exit 2 without posing as a
    # format error at some line and column of the input.
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "line 0" not in captured.err
    assert "Traceback" not in captured.err and captured.out == ""
    assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")


def test_augment_empty_convex8(tmp_path, capsys):
    pts = [(x, x * x) for x in range(8)]
    text = "8\n" + "\n".join(f"{x} {y}" for x, y in pts) + "\n0\n"
    f = tmp_path / "c8.graph"
    f.write_text(text)
    out_file = tmp_path / "max.graph"
    assert run(["augment", str(f), "--out", str(out_file)]) == 0
    g = parse_graph(out_file.read_text())
    assert g.m == 18
    layers = capsys.readouterr().out
    assert "LAYER1" in layers and "LAYER2" in layers


def test_augment_not_biplane_exit_one(tmp_path, capsys):
    f = tmp_path / "k5.graph"
    f.write_text(k5_text())
    assert run(["augment", str(f)]) == 1


def test_augment_trace_goes_to_stderr(tmp_path, capsys):
    pts = [(x, x * x) for x in range(6)]
    f = tmp_path / "c6.graph"
    f.write_text("6\n" + "\n".join(f"{x} {y}" for x, y in pts) + "\n0\n")
    assert run(["augment", str(f), "--trace"]) == 0
    err = capsys.readouterr().err
    assert "flip" in err and "clause=" in err


def test_generate_and_check_grid_with_flips(tmp_path, capsys):
    gf = tmp_path / "grid.graph"
    assert run(["generate", "grid", "--k", "8", "--flips", "corners,boundary:4", "--out", str(gf)]) == 0
    assert run(["check", "--relaxed", str(gf)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "BIPLANE"


def test_generate_grid_skips_empty_flip_specs(capsys):
    from biplanekit.constructions import gen_grid

    assert run(["generate", "grid", "--k", "8", "--flips", ","]) == 0
    assert capsys.readouterr().out == format_graph(gen_grid(8).graph)


def test_generate_families(tmp_path):
    for args in (
        ["generate", "convex", "--n", "6"],
        ["generate", "arc-triangle", "--n", "6"],
        ["generate", "hgon-arc", "--n", "7", "--h", "4"],
    ):
        out = tmp_path / "pts.txt"
        assert run(args + ["--out", str(out)]) == 0
        parse_points(out.read_text())


def test_generate_hgon_arc_stops_at_the_coordinate_cap(tmp_path, capsys):
    # v1 = (0, -16(n+2)^4 - 1) fits |coord| <= 2**30 up to n = 88.
    out = tmp_path / "pts.txt"
    assert run(["generate", "hgon-arc", "--n", "88", "--h", "5", "--out", str(out)]) == 0
    ps = parse_points(out.read_text())
    assert len(ps) == 88 and ps[0].y == -16 * 90**4 - 1
    capsys.readouterr()
    assert run(["generate", "hgon-arc", "--n", "89", "--h", "5"]) == 2
    assert "hgon-arc needs n <= 88" in capsys.readouterr().err


def test_triangulate_and_enumerate(tmp_path, capsys):
    f = tmp_path / "c5.pts"
    assert run(["generate", "convex", "--n", "5", "--out", str(f)]) == 0
    out = tmp_path / "tri.graph"
    assert run(["triangulate", str(f), "--out", str(out)]) == 0
    assert parse_graph(out.read_text()).m == 3 * 5 - 5 - 3
    assert run(["triangulate", str(f), "--enumerate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "TRIANGULATIONS 5"


def test_enumerate_lists_triangulations_holding_the_input_edges(tmp_path, capsys):
    # A convex pentagon has 5 triangulations; 2 of them hold the chord
    # (0, 2).  The listing goes through --out like every other artifact.
    pts = tmp_path / "c5.pts"
    assert run(["generate", "convex", "--n", "5", "--out", str(pts)]) == 0
    g = tmp_path / "chord.graph"
    g.write_text(pts.read_text() + "1\n0 2\n")
    capsys.readouterr()
    assert run(["triangulate", str(g), "--enumerate"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "TRIANGULATIONS 2"
    blocks = [i for i, line in enumerate(lines) if line.startswith("TRIANGULATION ")]
    assert len(blocks) == 2
    for i in blocks:
        assert lines[i].endswith(f" {3 * 5 - 5 - 3}")
        assert "0 2" in lines[i + 1 : i + 1 + 3 * 5 - 5 - 3]
    listing = tmp_path / "tris.txt"
    assert run(["triangulate", str(g), "--enumerate", "--out", str(listing)]) == 0
    assert capsys.readouterr().out == ""
    assert listing.read_text().splitlines() == lines


def test_enumerate_rejects_crossing_input_edges(tmp_path, capsys):
    # Edges (0, 2) and (1, 3) of a convex pentagon cross: both forms of
    # triangulate exit 2 with the same message, and write nothing.
    pts = tmp_path / "c5.pts"
    assert run(["generate", "convex", "--n", "5", "--out", str(pts)]) == 0
    g = tmp_path / "cross.graph"
    g.write_text(pts.read_text() + "2\n0 2\n1 3\n")
    capsys.readouterr()
    errors = []
    for extra in ([], ["--enumerate"]):
        out = tmp_path / "out.txt"
        assert run(["triangulate", str(g), *extra, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        errors.append(captured.err)
    assert errors[0] == errors[1]
    assert errors[0].startswith("error: input not plane: edges (0, 2) and (1, 3) cross")


def test_analyze_outputs_sections(tmp_path, capsys):
    f = tmp_path / "k4.graph"
    f.write_text(k4_text())
    assert run(["analyze", str(f)]) == 0
    out = capsys.readouterr().out
    assert "DEGREES 3:4" in out
    assert "BOUNDS" in out and "CONNECTIVITY kappa=3" in out


@pytest.mark.parametrize(
    "coords, degrees, connectivity",
    [
        (
            [(0, 0), (1, 1), (2, 2), (3, 3)],
            "DEGREES 1:2 2:2",
            "CONNECTIVITY kappa=1 minDegree=1 cut=1",
        ),
        ([(5, 2), (0, 0)], "DEGREES 1:2", "CONNECTIVITY kappa=1 minDegree=1 cut=-"),
        ([(4, 4)], "DEGREES 0:1", "CONNECTIVITY n=1 needs at least 2 vertices"),
        ([], "DEGREES", "CONNECTIVITY n=0 needs at least 2 vertices"),
    ],
    ids=["collinear-path", "two-points", "one-point", "no-points"],
)
def test_analyze_reads_what_augment_writes_on_points_spanning_no_triangle(
    tmp_path, capsys, coords, degrees, connectivity
):
    # Augmenting such points gives the path through them; analyze reports
    # on it in full and says that the bounds need a triangle.
    f = tmp_path / "in.graph"
    f.write_text(format_graph(GeometricGraph(PointSet.from_coords(coords, Strictness.RELAXED), ())))
    out = tmp_path / "out.graph"
    assert run(["augment", "--relaxed", str(f), "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["analyze", "--relaxed", str(out)]) == 0
    captured = capsys.readouterr()
    n = len(coords)
    bounds_line = f"BOUNDS n={n} m={max(n - 1, 0)} need a triangle; the points span none"
    assert captured.out.splitlines() == [degrees, bounds_line, connectivity]
    assert captured.err == ""


def test_oracle_command(tmp_path, capsys):
    f = tmp_path / "c5.pts"
    run(["generate", "convex", "--n", "5", "--out", str(f)])
    assert run(["oracle", str(f)]) == 0
    assert capsys.readouterr().out.startswith("MAXIMUM 9 ")


def test_gap_command_requires_seed(tmp_path, capsys):
    f = tmp_path / "c5.pts"
    run(["generate", "convex", "--n", "5", "--out", str(f)])
    assert run(["gap", str(f), "--trials", "4"]) == 2  # missing --seed
    assert run(["gap", str(f), "--trials", "4", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "GAP min=9 max=9" in out


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_gap_rejects_fewer_than_one_trial(tmp_path, capsys, trials):
    f = tmp_path / "k4.pts"
    f.write_text("4\n0 0\n5 0\n5 5\n0 5\n")
    assert run(["gap", str(f), "--trials", trials, "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: trials must be at least 1\n"


@pytest.mark.parametrize(
    "coords, flags",
    [
        ([], []),
        ([(4, 4)], []),
        ([(5, 2), (0, 0)], []),
        ([(0, 0), (1, 1), (2, 2)], ["--relaxed"]),
        ([(3, 0), (0, 0), (2, 0), (1, 0)], ["--relaxed"]),
    ],
    ids=["no-points", "one-point", "two-points", "collinear", "collinear-unsorted"],
)
def test_oracle_prints_the_path_on_points_spanning_no_triangle(tmp_path, capsys, coords, flags):
    # The path through the points is their only maximal graph, as augment
    # reports it.
    ps = PointSet.from_coords(coords, Strictness.RELAXED)
    g = tmp_path / "in.graph"
    g.write_text(format_graph(GeometricGraph(ps, ())))
    assert run(["augment", *flags, str(g)]) == 0
    path = parse_graph(capsys.readouterr().out.split("LAYER1")[0]).edges
    f = tmp_path / "in.pts"
    f.write_text(format_points(ps))
    assert run(["oracle", *flags, str(f)]) == 0
    captured = capsys.readouterr()
    lines = [f"MAXIMUM {max(len(coords) - 1, 0)} triangulations=0"]
    assert captured.out.splitlines() == lines + [f"{a} {b}" for a, b in path]
    assert captured.err == ""


def test_bounds_command(capsys):
    assert run(["bounds", "--n", "10", "--h", "3"]) == 0
    out = capsys.readouterr().out
    assert "minMaximal=27" in out and "maximumLower=30" in out


def test_render_k4_styles(tmp_path, capsys):
    f = tmp_path / "k4.graph"
    f.write_text(k4_text())
    svg_file = tmp_path / "k4.svg"
    assert run(["render", str(f), "--out", str(svg_file)]) == 0
    svg = svg_file.read_text()
    # four uncrossed perimeter edges solid, two diagonals in distinct styles
    assert svg.count('stroke-dasharray="7,4"') == 1
    assert svg.count('stroke-dasharray="2,4"') == 1
    assert svg.count("<line") == 6
    assert svg.count("<circle") == 4


def test_render_empty_graph(tmp_path, capsys):
    f = tmp_path / "empty.graph"
    f.write_text("3\n0 0\n4 0\n0 4\n0\n")
    assert run(["render", str(f)]) == 0
    svg = capsys.readouterr().out
    assert svg.count("<circle") == 3 and "<line" not in svg


def test_render_deterministic(tmp_path, capsys):
    f = tmp_path / "k4.graph"
    f.write_text(k4_text())
    run(["render", str(f)])
    first = capsys.readouterr().out
    run(["render", str(f)])
    second = capsys.readouterr().out
    assert first == second


def _convex10_complete_text() -> str:
    from biplanekit.constructions import gen_convex

    pairs = tuple((a, b) for a in range(10) for b in range(a + 1, 10))
    return format_graph(GeometricGraph(gen_convex(10), pairs))


@pytest.mark.parametrize(
    "text", [k5_text(), _convex10_complete_text()], ids=["odd-cycle", "too-many-edges"]
)
def test_render_negative_verdict_exit_one(tmp_path, capsys, text):
    # An odd cycle and the edge cap both exit 1 with NOT-BIPLANE alone on
    # stderr, and no drawing is written.
    f = tmp_path / "neg.graph"
    f.write_text(text)
    svg_file = tmp_path / "neg.svg"
    assert run(["render", str(f), "--out", str(svg_file)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "NOT-BIPLANE\n" and captured.out == ""
    assert not svg_file.exists()
    g = parse_graph(text)
    with pytest.raises(NotBiplaneError) as exc:
        render_svg(g)
    assert exc.value.verdict == test_biplane(g)


def test_cli_grid_render_matches_layer_tags(tmp_path):
    from biplanekit.constructions import gen_grid

    grid = gen_grid(6)
    svg = render_svg(grid.graph)
    assert svg.count("<circle") == 36
    assert svg.count("<line") == grid.graph.m


def test_check_rejects_trailing_input(tmp_path, capsys):
    f = tmp_path / "trailing.graph"
    f.write_text("4\n0 0\n5 0\n5 5\n0 5\n1\n0 1\n99 99 garbage\n")
    assert run(["check", str(f)]) == 2
    captured = capsys.readouterr()
    assert "line 8" in captured.err and "BIPLANE" not in captured.out


def test_triangulate_short_edge_block_is_an_error(tmp_path, capsys):
    pts = "4\n0 0\n5 0\n0 5\n5 5\n"
    good = tmp_path / "good.graph"
    good.write_text(pts + "1\n0 3\n")
    out = tmp_path / "tri.graph"
    assert run(["triangulate", str(good), "--out", str(out)]) == 0
    assert (0, 3) in parse_graph(out.read_text()).edges
    short = tmp_path / "short.graph"
    short.write_text(pts + "2\n0 3\n")
    assert run(["triangulate", str(short)]) == 2
    assert "line 7" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", ["augment", "triangulate", "check", "analyze", "render"]
)
def test_edge_through_vertex_exit_two(tmp_path, capsys, command):
    # Edge 0-2 passes through vertex 1; every command that reads edges
    # rejects the relaxed file before using it.
    f = tmp_path / "through.graph"
    f.write_text("5\n0 0\n1 0\n2 0\n1 5\n1 -5\n1\n0 2\n")
    assert run([command, "--relaxed", str(f)]) == 2
    captured = capsys.readouterr()
    assert "error: edge (0, 2) passes through vertex 1" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12, unique=True),
    st.tuples(st.integers(0, 5), st.integers(0, 5)),
    st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 3), (-1, 2)]),
    st.integers(2, 4),
    st.randoms(use_true_random=False),
)
@settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_edge_through_vertex_exit_two_on_random_lattices(
    tmp_path, capsys, cells, start, step, k, rng
):
    # The lattice edge from `start` to k primitive steps along `step`
    # skips the k - 1 lattice points between; the ones in the file lie
    # strictly inside it.  Every command that reads edges exits 2 naming
    # the edge and the lowest-numbered vertex inside it.
    on_edge = [(start[0] + i * step[0], start[1] + i * step[1]) for i in range(k + 1)]
    coords = list(dict.fromkeys([on_edge[0], on_edge[1], on_edge[-1], *cells]))
    rng.shuffle(coords)
    e = tuple(sorted((coords.index(on_edge[0]), coords.index(on_edge[-1]))))
    inside = min(i for i, c in enumerate(coords) if c in on_edge[1:-1])
    f = tmp_path / "through.graph"
    ps = PointSet.from_coords(coords, Strictness.RELAXED)
    f.write_text(format_graph(GeometricGraph(ps, (e,))))
    for command in ("augment", "triangulate", "check", "analyze", "render"):
        assert run([command, "--relaxed", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: edge {e} passes through vertex {inside}\n", command
        assert captured.out == ""


@pytest.mark.parametrize(
    "command", ["check", "augment", "analyze", "render", "triangulate", "oracle", "gap"]
)
def test_strict_collinear_input_exit_two(tmp_path, capsys, command):
    # Points 1, 3, 4 lie on the line x = 1; the file is read as STRICT.
    f = tmp_path / "collinear.txt"
    points = "5\n0 0\n1 0\n2 1\n1 5\n1 -5\n"
    f.write_text(points if command in ("oracle", "gap") else points + "1\n0 2\n")
    extra = ["--trials", "1", "--seed", "0"] if command == "gap" else []
    assert run([command, str(f)] + extra) == 2
    captured = capsys.readouterr()
    assert "error: collinear points 1, 3, 4" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


def test_oracle_rejects_graph_file(tmp_path, capsys):
    f = tmp_path / "k4.graph"
    f.write_text(k4_text())
    assert run(["oracle", str(f)]) == 2
    assert "line 6" in capsys.readouterr().err


def test_render_solid_iff_uncrossed():
    import random

    from _helpers import (
        brute_crossing_adjacency,
        drop_edges_through_vertices,
        random_biplane_graph,
        random_lattice_points,
        random_strict_points,
        rectangle_boundary,
    )

    from biplanekit.augmentation import maximal_augment
    from biplanekit.constructions import gen_convex, gen_grid

    rng = random.Random(21)
    graphs = [gen_grid(6).graph]
    for _ in range(20):
        ps = random_strict_points(rng, rng.randint(5, 14))
        graphs.append(random_biplane_graph(rng, ps, rng.randint(4, 30)))
    # Convex position takes the hull-order route: shuffled maximal graphs,
    # and the same graphs less a few edges.
    for _ in range(6):
        coords = list(gen_convex(rng.randint(8, 30)).points)
        rng.shuffle(coords)
        g = maximal_augment(GeometricGraph(PointSet.from_coords(coords), ())).graph
        graphs.append(g)
        drop = set(rng.sample(g.edges, rng.randint(1, 4)))
        graphs.append(GeometricGraph(g.points, tuple(e for e in g.edges if e not in drop)))
    ps = rectangle_boundary(rng, 4, 3)
    graphs.append(drop_edges_through_vertices(random_biplane_graph(rng, ps, 20)))
    ps = random_lattice_points(rng, 5, 12)
    graphs.append(drop_edges_through_vertices(random_biplane_graph(rng, ps, 30)))
    ps = PointSet.from_coords([(3 * i, 2 * i) for i in range(6)], Strictness.RELAXED)
    graphs.append(GeometricGraph(ps, tuple((i, i + 1) for i in range(5))))
    for g in graphs:
        verdict = test_biplane(g)
        svg = render_svg(g)
        colors = [
            line.split('stroke="', 1)[1].split('"', 1)[0]
            for line in svg.splitlines()
            if "<line" in line
        ]
        assert len(colors) == g.m
        adj = brute_crossing_adjacency(g)
        layer1 = set(verdict.layer1)
        for i, e in enumerate(g.edges):
            if not adj[i]:
                want = SHARED_COLOR
            else:
                want = LAYER1_COLOR if e in layer1 else LAYER2_COLOR
            assert colors[i] == want, (g.edges, i)


@pytest.mark.parametrize(
    "edges, line, column, reason",
    [
        ("0 1\n1 0\n2 3\n", 8, 3, "edge 1 repeats edge 0"),
        ("0 1\n2 2\n1 3\n", 8, 3, "edge 1 is a loop at vertex 2"),
        ("0 1\n1 2\n3 4\n", 9, 3, "edge 2 references missing vertex 4"),
        ("0 1\n-1 2\n1 3\n", 8, 1, "edge 1 references missing vertex -1"),
    ],
)
def test_parse_graph_rejects_repeated_loop_and_missing_vertex(edges, line, column, reason):
    text = "4\n0 0\n5 0\n5 5\n0 5\n3\n" + edges
    with pytest.raises(FileFormatError) as exc:
        parse_graph(text)
    assert (exc.value.line, exc.value.column, exc.value.reason) == (line, column, reason)


TRIANGLE = "3\n0 0\n5 0\n0 5\n"


@pytest.mark.parametrize(
    "text, line, column, reason",
    [
        ("", 1, 1, "unexpected end of file, expected point count"),
        ("# only a comment\n", 1, 1, "unexpected end of file, expected point count"),
        ("x\n", 1, 1, "expected point count, got 'x'"),
        ("-1\n", 1, 1, "negative point count"),
        ("12\n0 0\n", 2, 4, "unexpected end of file, expected x coordinate of point 1"),
        ("12\n0 0\n1\n", 3, 2, "unexpected end of file, expected y coordinate of point 1"),
        ("12\n0 0\na 1\n", 3, 1, "expected x coordinate of point 1, got 'a'"),
        ("12\n0 0\n  7   q # c\n", 3, 7, "expected y coordinate of point 1, got 'q'"),
        (TRIANGLE, 4, 4, "unexpected end of file, expected edge count"),
        (TRIANGLE + "e\n", 5, 1, "expected edge count, got 'e'"),
        (TRIANGLE + "-2\n", 5, 1, "negative edge count"),
        (TRIANGLE + "11\n0 1\n", 6, 4, "unexpected end of file, expected first endpoint of edge 1"),
        (TRIANGLE + "11\n0 1\n1\n", 7, 2, "unexpected end of file, expected second endpoint of edge 1"),
        (TRIANGLE + "11\n0 1\nz 2\n", 7, 1, "expected first endpoint of edge 1, got 'z'"),
        (TRIANGLE + "11\n0 1\n 1  2.0\n", 7, 5, "expected second endpoint of edge 1, got '2.0'"),
    ],
)
def test_reader_errors_name_each_token(text, line, column, reason):
    # Every description the reader can put in an error, in both the
    # "expected ..., got ..." and the end-of-file form, at its position.
    with pytest.raises(FileFormatError) as exc:
        parse_graph(text)
    assert (exc.value.line, exc.value.column, exc.value.reason) == (line, column, reason)
    assert str(exc.value) == f"line {line}, column {column}: {reason}"


@pytest.mark.parametrize("token", ["1_0", "\u0661"])
@pytest.mark.parametrize(
    "comment", ["", "  # plain", "  # caf\u00e9"], ids=["bare", "ascii-comment", "other-comment"]
)
def test_triangulate_rejects_tokens_that_are_not_decimal_integers(
    tmp_path, capsys, token, comment
):
    # int() reads "1_0" as 10 and the Arabic-Indic digit one as 1; a
    # coordinate is ASCII digits with an optional sign, whatever else the
    # file holds.
    f = tmp_path / "points.txt"
    f.write_text(f"3\n0 0{comment}\n0 5\n  {token} 0\n")
    assert run(["triangulate", str(f)]) == 2
    reason = f"expected x coordinate of point 2, got {token!r}"
    assert capsys.readouterr().err == f"error: line 4, column 3: {reason}\n"


@pytest.mark.parametrize("comment", ["", "# caf\u00e9 1_0\n"])
def test_reader_accepts_signed_ascii_digits(comment):
    ps = parse_points(f"{comment}3\n+0 -0\n+15 007\n-3 +4\n")
    assert ps.points == ((0, 0), (15, 7), (-3, 4))


@pytest.mark.parametrize("module", ["biplanekit", "biplanekit.cli"])
def test_python_m_runs_the_command_line_from_a_checkout(tmp_path, module):
    # PYTHONPATH=src python -m biplanekit check FILE, without installing.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    cases = [
        (k4_text(), 0, "BIPLANE\n", ""),
        (k5_text(), 1, "NOT-BIPLANE\n", ""),
        ("3\n0 0\noops 1\n2 2\n0\n", 2, "", "error: line 3, column 1: "),
    ]
    for i, (text, code, out, err) in enumerate(cases):
        f = tmp_path / f"{i}.graph"
        f.write_text(text)
        proc = subprocess.run(
            [sys.executable, "-m", module, "check", str(f)],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == code
        assert proc.stdout.startswith(out) and proc.stderr.startswith(err)
        assert "Traceback" not in proc.stdout + proc.stderr


def test_check_exits_2_on_repeated_edge(tmp_path, capsys):
    f = tmp_path / "repeat.graph"
    f.write_text("4\n0 0\n5 0\n5 5\n0 5\n3\n0 1\n1 0\n2 3\n")
    assert run(["check", str(f)]) == 2
    assert "line 8, column 3: edge 1 repeats edge 0" in capsys.readouterr().err


def test_augment_relaxed_collinear_points_returns_the_path(tmp_path, capsys):
    f = tmp_path / "line.graph"
    f.write_text("4\n0 0\n1 1\n2 2\n3 3\n1\n1 2\n")
    assert run(["check", "--relaxed", str(f)]) == 0
    capsys.readouterr()
    assert run(["augment", "--relaxed", str(f)]) == 0
    out = capsys.readouterr().out
    assert out == "4\n0 0\n1 1\n2 2\n3 3\n3\n0 1\n1 2\n2 3\nLAYER1 3\n0 1\n1 2\n2 3\nLAYER2 0\n"


def test_triangulate_rejects_collinear_points_that_augment_joins(tmp_path, capsys):
    # Points on one line span no triangle: augment returns the path through
    # them, while triangulate has no triangulation to print.
    f = tmp_path / "line.graph"
    f.write_text("3\n0 0\n1 1\n2 2\n0\n")
    assert run(["augment", "--relaxed", str(f)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "3\n0 0\n1 1\n2 2\n2\n0 1\n1 2\nLAYER1 2\n0 1\n1 2\nLAYER2 0\n"
    assert captured.err == ""
    assert run(["triangulate", "--relaxed", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: all points are collinear; cannot triangulate\n"
    assert captured.out == ""


LATTICE_SUBSETS = st.integers(min_value=1, max_value=6).flatmap(
    lambda k: st.lists(
        st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=k * k, unique=True
    )
)
# Up to six points on one lattice line, so that they span no triangle.
COLLINEAR_SETS = st.builds(
    lambda start, step, n: [(start[0] + i * step[0], start[1] + i * step[1]) for i in range(n)],
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 3)]),
    st.integers(0, 6),
)


@given(st.one_of(LATTICE_SUBSETS, COLLINEAR_SETS))
@settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_every_graph_command_accepts_what_augment_writes(tmp_path, capsys, cells):
    # Examples share tmp_path and capsys: each overwrites the files and
    # reads only the output it made.  `triangulate` is left out: it needs a
    # plane input, and a maximal biplane graph has crossing edges.
    src, out, again, svg = (str(tmp_path / name) for name in ("in", "out", "again", "svg"))
    ps = PointSet.from_coords(cells, Strictness.RELAXED)
    Path(src).write_text(format_graph(GeometricGraph(ps, ())))
    assert run(["augment", "--relaxed", src, "--out", out]) == 0
    capsys.readouterr()
    assert run(["check", "--relaxed", out]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "BIPLANE"
    assert run(["analyze", "--relaxed", "--connectivity", "--degrees", "--bounds", out]) == 0
    assert run(["render", "--relaxed", out, "--out", svg]) == 0
    assert run(["augment", "--relaxed", out, "--out", again]) == 0
    assert parse_graph(Path(again).read_text()).edges == parse_graph(Path(out).read_text()).edges
