"""Regenerate the stored benchmark graphs in perfbench/data/.

The fixed workloads read maximal graphs from files instead of computing
them, so that a change to which maximal graph `maximal_augment` returns
does not change the workload.  This script records how the files were made.
Run it from the repository root:

    python3 perfbench/make_inputs.py

It prints the SHA-256 of each file; `run.py` refuses files whose hash
differs from the one it records.
"""

from __future__ import annotations

import hashlib
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

from run import random_coords  # noqa: E402

from biplanekit import (  # noqa: E402
    GeometricGraph,
    OddCycleWitness,
    PointSet,
    format_graph,
    gen_convex,
    maximal_augment,
    test_biplane,
    validate,
)

# Seeds of the random point sets; changing one changes the workload.
SEEDS = {"reaugment-maximal": 500, "verify-small": 40}


def random_points(rng: random.Random, n: int) -> PointSet:
    """Points as `augment-empty` draws them, checked for general position."""
    ps = PointSet.from_coords(random_coords(rng, n))
    if not validate(ps).ok:
        raise SystemExit(f"collinear triple in random points, n={n}")
    return ps


def maximal_from_empty(ps: PointSet) -> GeometricGraph:
    return maximal_augment(GeometricGraph(ps, ())).graph


def write(name: str, header: str, g: GeometricGraph) -> None:
    path = BENCH / "data" / f"{name}.txt"
    path.write_text(f"# {header}\n" + format_graph(g))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    print(f'    "{name}.txt": "{digest}",  # n={g.n} m={g.m}')


def main() -> None:
    for name, n in (("reaugment-maximal", 500), ("verify-small", 40)):
        seed = SEEDS[name]
        g = maximal_from_empty(random_points(random.Random(seed), n))
        write(name, f"maximal_augment of the empty graph on {n} random points, seed {seed}", g)

    convex = maximal_from_empty(gen_convex(500))
    write("check-convex", "maximal_augment of the empty graph on gen_convex(500)", convex)
    chord = convex.complement_edges()[0]
    negative = convex.with_edges([chord])
    if not isinstance(test_biplane(negative), OddCycleWitness):
        raise SystemExit("maximal convex graph plus a chord should not be biplane")
    write("check-convex-chord", f"check-convex.txt plus the chord {chord}", negative)


if __name__ == "__main__":
    main()
