"""Command line interface.

Exit codes: 0 on success, 1 on a negative verdict (NOT-BIPLANE or
TOO-MANY-EDGES), 2 on malformed input, bad arguments, or input that breaks
the geometric contract.  Every randomized command takes an explicit --seed
so runs are reproducible.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .analysis import (
    brute_force_maximum,
    degree_histogram,
    find_maximal_gap,
    vertex_connectivity,
)
from .augmentation import NotBiplaneError, maximal_augment
from .constructions import (
    apply_boundary_flips,
    apply_corner_flips,
    bounds,
    gen_arc_in_triangle,
    gen_convex,
    gen_grid,
    gen_hgon_with_arc,
)
from .fileio import (
    format_graph,
    format_points,
    parse_graph,
    parse_points,
    parse_points_or_graph,
)
from .geometry import PointSet, Strictness, convex_hull, validate
from .graphs import GeometricGraph, check_relaxed_edges
from .recognition import BiplaneDecomposition, OddCycleWitness, TooManyEdges, test_biplane
from .svgrender import render_svg
from .triangulation import (
    GeometryError,
    NotPlaneError,
    _triangulation_masks,
    complete_to_triangulation,
)


def _load(args: argparse.Namespace, path: str, parse):
    """Parse a point or graph file and enforce its point-set contract.

    Without --relaxed no three points may be collinear; with it, no vertex
    may lie inside an edge.
    """
    text = Path(path).read_text()
    strict = Strictness.RELAXED if args.relaxed else Strictness.STRICT
    data = parse(text, strict)
    if strict is Strictness.STRICT:
        rep = validate(data if isinstance(data, PointSet) else data.points)
        if not rep.ok:
            raise ValueError(rep.message)
    elif isinstance(data, GeometricGraph):
        check_relaxed_edges(data)
    return data


def _emit(args: argparse.Namespace, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _print_edges(edges) -> None:
    for a, b in edges:
        print(f"{a} {b}")


def _cmd_check(args: argparse.Namespace) -> int:
    g = _load(args, args.graph, parse_graph)
    verdict = test_biplane(g)
    if isinstance(verdict, BiplaneDecomposition):
        print("BIPLANE")
        print(f"LAYER1 {len(verdict.layer1)}")
        _print_edges(verdict.layer1)
        print(f"LAYER2 {len(verdict.layer2)}")
        _print_edges(verdict.layer2)
        return 0
    if isinstance(verdict, TooManyEdges):
        print("TOO-MANY-EDGES")
        print(f"n={verdict.n} m={verdict.m} cap={verdict.cap}")
        return 1
    assert isinstance(verdict, OddCycleWitness)
    print("NOT-BIPLANE")
    print(f"WITNESS {len(verdict.cycle)}")
    _print_edges(verdict.cycle)
    return 1


def _cmd_triangulate(args: argparse.Namespace) -> int:
    g = _load(args, args.points, parse_points_or_graph)
    t = complete_to_triangulation(g)  # NotPlaneError when input edges cross
    if args.enumerate:
        # Every input edge is a segment: _load rejected any with a point
        # inside it.  Segments are sorted, so each listing is too.
        segments, _, masks = _triangulation_masks(g.points, args.cap)
        edges = set(g.edges)
        need = sum(1 << k for k, e in enumerate(segments) if e in edges)
        tris = [mask for mask in masks if mask & need == need]
        lines = [f"TRIANGULATIONS {len(tris)}"]
        for i, mask in enumerate(tris):
            lines.append(f"TRIANGULATION {i} {mask.bit_count()}")
            lines.extend(f"{a} {b}" for k, (a, b) in enumerate(segments) if mask >> k & 1)
        _emit(args, "\n".join(lines) + "\n")
        return 0
    out = GeometricGraph(g.points, tuple(t.sorted_edges()))
    _emit(args, format_graph(out))
    return 0


def _cmd_augment(args: argparse.Namespace) -> int:
    g = _load(args, args.graph, parse_graph)
    result = maximal_augment(g, collect_trace=args.trace)
    if args.trace and result.trace is not None:
        for rec in result.trace:
            print(
                f"flip {rec.edge} clause={rec.clause} new={rec.new_edge} "
                f"faces={rec.merged_faces[0]}+{rec.merged_faces[1]}"
                + (" recolored" if rec.recolored_anchor is not None else ""),
                file=sys.stderr,
            )
    _emit(args, format_graph(result.graph))
    print(f"LAYER1 {len(result.decomposition.layer1)}")
    _print_edges(result.decomposition.layer1)
    print(f"LAYER2 {len(result.decomposition.layer2)}")
    _print_edges(result.decomposition.layer2)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    family = args.family
    if family == "convex":
        if args.n is None:
            raise ValueError("convex needs --n")
        _emit(args, format_points(gen_convex(args.n)))
        return 0
    if family == "arc-triangle":
        if args.n is None:
            raise ValueError("arc-triangle needs --n")
        _emit(args, format_points(gen_arc_in_triangle(args.n)))
        return 0
    if family == "hgon-arc":
        if args.n is None or args.h is None:
            raise ValueError("hgon-arc needs --n and --h")
        _emit(args, format_points(gen_hgon_with_arc(args.n, args.h)))
        return 0
    # family is "grid": argparse's choices admit no other.
    if args.k is None:
        raise ValueError("grid needs --k")
    grid = gen_grid(args.k)
    for spec in (args.flips or "").split(","):
        spec = spec.strip()
        if not spec:
            continue
        if spec == "corners":
            grid = apply_corner_flips(grid)
        elif spec.startswith("boundary:"):
            grid = apply_boundary_flips(grid, int(spec.split(":", 1)[1]))
        else:
            raise ValueError(f"unknown flip spec {spec!r}")
    _emit(args, format_graph(grid.graph))
    return 0


def _bounds_line(g: GeometricGraph) -> str:
    try:
        h = len(convex_hull(g.points))
    except ValueError:  # fewer than three points, or all on one line
        return f"BOUNDS n={g.n} m={g.m} need a triangle; the points span none"
    b = bounds(g.n, h)
    cap = b.max_edges_hull if b.max_edges_abs is None else min(
        b.max_edges_hull, b.max_edges_abs
    )
    return (
        f"BOUNDS n={b.n} h={b.h} m={g.m} minMaximal={b.min_maximal} "
        f"maxEdges={cap} maximumLower={b.maximum_lower}"
    )


def _connectivity_line(g: GeometricGraph) -> str:
    if g.n < 2:
        return f"CONNECTIVITY n={g.n} needs at least 2 vertices"
    rep = vertex_connectivity(g)
    cut = ",".join(map(str, rep.witness_cut)) if rep.witness_cut else "-"
    return f"CONNECTIVITY kappa={rep.kappa} minDegree={rep.min_degree} cut={cut}"


def _cmd_analyze(args: argparse.Namespace) -> int:
    # Every report is computed before any is printed, so a failure leaves
    # no partial output.
    g = _load(args, args.graph, parse_graph)
    want_all = not (args.connectivity or args.degrees or args.bounds)
    lines = []
    if args.degrees or want_all:
        hist = degree_histogram(g)
        lines.append(" ".join(["DEGREES", *(f"{d}:{c}" for d, c in hist.items())]))
    if args.bounds or want_all:
        lines.append(_bounds_line(g))
    if args.connectivity or want_all:
        lines.append(_connectivity_line(g))
    print("\n".join(lines))
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    ps = _load(args, args.points, parse_points)
    res = brute_force_maximum(ps, cap=args.cap)
    print(
        f"MAXIMUM {res.maximum_edges} triangulations={res.triangulation_count}"
    )
    _print_edges(res.witness.edges)
    return 0


def _cmd_gap(args: argparse.Namespace) -> int:
    ps = _load(args, args.points, parse_points)
    rep = find_maximal_gap(ps, trials=args.trials, seed=args.seed)
    print(f"GAP min={rep.smallest} max={rep.largest} sizes={','.join(map(str, rep.sizes))}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    _emit(args, render_svg(_load(args, args.graph, parse_graph)))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    b = bounds(args.n, args.h)
    abs_part = f" maxEdgesAbs={b.max_edges_abs}" if b.max_edges_abs is not None else ""
    print(
        f"BOUNDS n={b.n} h={b.h} minMaximal={b.min_maximal} "
        f"maxEdgesHull={b.max_edges_hull}{abs_part} maximumLower={b.maximum_lower}"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="biplanekit",
        description="Biplane geometric graphs: recognize, augment, generate, verify.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    # Each subcommand takes only the flags its code reads: --relaxed where
    # it loads a file, --out where it emits an artifact.
    def relaxed(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--relaxed", action="store_true", help="relaxed point set")

    def out(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--out", help="write the main artifact to this file")

    sp = sub.add_parser("check", help="test biplanarity of a graph file")
    sp.add_argument("graph")
    relaxed(sp)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("triangulate", help="complete a plane graph or point set")
    sp.add_argument("points")
    sp.add_argument(
        "--enumerate", action="store_true", help="list every triangulation holding the input edges"
    )
    sp.add_argument("--cap", type=int, default=9, help="enumeration size cap")
    relaxed(sp)
    out(sp)
    sp.set_defaults(func=_cmd_triangulate)

    sp = sub.add_parser("augment", help="augment a biplane graph to a maximal one")
    sp.add_argument("graph")
    sp.add_argument("--trace", action="store_true", help="log each flip to stderr")
    relaxed(sp)
    out(sp)
    sp.set_defaults(func=_cmd_augment)

    sp = sub.add_parser("generate", help="emit a named construction")
    sp.add_argument("family", choices=["convex", "arc-triangle", "hgon-arc", "grid"])
    sp.add_argument("--n", type=int, help="number of points (hgon-arc: n <= 88)")
    sp.add_argument("--h", type=int)
    sp.add_argument("--k", type=int)
    sp.add_argument("--flips", help="comma list: corners,boundary:I")
    out(sp)
    sp.set_defaults(func=_cmd_generate)

    sp = sub.add_parser("analyze", help="degree/bounds/connectivity report")
    sp.add_argument("graph")
    sp.add_argument("--connectivity", action="store_true")
    sp.add_argument("--degrees", action="store_true")
    sp.add_argument("--bounds", action="store_true")
    relaxed(sp)
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("oracle", help="exact maximum size by pair enumeration")
    sp.add_argument("points")
    sp.add_argument("--cap", type=int, default=9)
    relaxed(sp)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("gap", help="hunt for maximal graphs of different sizes")
    sp.add_argument("points")
    sp.add_argument("--trials", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    relaxed(sp)
    sp.set_defaults(func=_cmd_gap)

    sp = sub.add_parser("render", help="render a graph with its layers as SVG")
    sp.add_argument("graph")
    relaxed(sp)
    out(sp)
    sp.set_defaults(func=_cmd_render)

    sp = sub.add_parser("bounds", help="print the edge-count bound report")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.set_defaults(func=_cmd_bounds)

    return p


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except NotBiplaneError:
        print("NOT-BIPLANE", file=sys.stderr)
        return 1
    except NotPlaneError as exc:
        print(f"error: input not plane: {exc}", file=sys.stderr)
        return 2
    except (GeometryError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
