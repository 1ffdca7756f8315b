"""The biplanekit benchmark: one workload per process, closed loop, one caller.

Run from the repository root:

    python3 perfbench/run.py --workload augment-empty --seed 1 --seconds 20 --trace 0

It imports biplanekit from ./src, makes the workload's inputs from --seed,
times operations one after another until --seconds of operation time have
been measured, and checks every output outside the timed region.  Failed
operations are counted, not fatal.  The last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.

With --trace 0 the metrics are the end-to-end ones (see README.md).  With
--trace 1 each operation runs twice, once plain and once with spans
recorded around calls into the library's modules, and the metrics are the
per-layer ones taken from the traced runs; the spans are written to
perfbench/work/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import checks
from tracer import Span, Tracer, totals

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = BENCH / "data"
WORK = BENCH / "work"

# Stored inputs and their SHA-256; made by make_inputs.py.
DATA_SHA256 = {
    "reaugment-maximal.txt": "d06744acae6430e191df9e0e74cf4579eee9c455ed7d5be8091d10ca34a661bc",
    "verify-small.txt": "816ce6dc97f29b783c192b8db2394ddeaba9d94b55a8a0de7bf247181599ad43",
    "check-convex.txt": "ec174be86cf646e446cee986d63fe9b1aaa81798282ea614d8afa4d363849f04",
    "check-convex-chord.txt": "9168b025b2606e284bb17eec6a90fa6114fc3c8fc97c2edc41db9fb5d2bd5117",
}

# Set-up is short and noisy, so it is repeated and the median reported.
SETUP_REPS = 11

END_TO_END = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "pass_ratio": "ratio",
}

PER_LAYER = {
    "setup.import_s": "s",
    "setup.parse_s": "s",
    "recognition.crossing_pairs_s": "s",
    "recognition.coloring_s": "s",
    "recognition.crossing_pairs.count": "count",
    "triangulation.sweep_s": "s",
    "triangulation.complete_s": "s",
    "triangulation.constraints_s": "s",
    "triangulation.constraints.count": "count",
    "triangulation.face_walks_s": "s",
    "augmentation.build_state_s": "s",
    "augmentation.index_s": "s",
    "augmentation.flip_loop_s": "s",
    "augmentation.certify_s": "s",
    "augmentation.assemble_s": "s",
    "augmentation.flips": "count",
    "augmentation.flips.red": "count",
    "augmentation.flips.blue": "count",
    "augmentation.flips.cross": "count",
    "augmentation.purple.start": "count",
    "augmentation.purple.end": "count",
    "augmentation.edges.added": "count",
    "analysis.maximality_oracle_s": "s",
    "analysis.oracle.candidates": "count",
    "analysis.vertex_connectivity_s": "s",
    "analysis.flow.pairs": "count",
    "cli.check_s": "s",
    "cli.self_s": "s",
    "fileio.parse_graph_s": "s",
    "cli.output_bytes": "bytes",
    "trace.op_s.p50": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def random_coords(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Distinct uniform points in [-2^29, 2^29)^2, as acceptance criterion 10."""
    coords: set[tuple[int, int]] = set()
    while len(coords) < n:
        coords.add((rng.randrange(-(2**29), 2**29), rng.randrange(-(2**29), 2**29)))
    return sorted(coords)


def load_stored(name: str) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Read a stored graph after checking its hash; returns (coords, edges)."""
    raw = (DATA / name).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != DATA_SHA256[name]:
        raise SystemExit(f"perfbench: {name} has SHA-256 {digest}, expected {DATA_SHA256[name]}")
    ints = [int(t) for line in raw.decode().splitlines() for t in line.split("#")[0].split()]
    n = ints[0]
    coords = [(ints[1 + 2 * i], ints[2 + 2 * i]) for i in range(n)]
    m = ints[1 + 2 * n]
    flat = ints[2 + 2 * n :]
    return coords, [(flat[2 * k], flat[2 * k + 1]) for k in range(m)]


def relabel(seed: int, coords, *edge_lists):
    """Move the vertices to seeded random indices; the geometric graph is unchanged.

    Returns the moved coordinates followed by each edge list, relabelled
    and sorted.
    """
    perm = list(range(len(coords)))
    random.Random(seed).shuffle(perm)
    moved = [None] * len(coords)
    for v, p in enumerate(coords):
        moved[perm[v]] = p
    return [moved] + [sorted(tuple(sorted((perm[a], perm[b]))) for a, b in e) for e in edge_lists]


def graph_text(coords, edges) -> str:
    lines = [str(len(coords))] + [f"{x} {y}" for x, y in coords]
    lines += [str(len(edges))] + [f"{a} {b}" for a, b in edges]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """One workload: inputs from a seed, the operation, and its output check.

    `prepare` runs once and is not timed.  `parse` turns the input text
    into library objects and is timed as set-up.  `op` is one timed
    operation; `check` and `extra` run after it, outside the timing.
    """

    name = ""

    def prepare(self, seed: int) -> None:
        raise NotImplementedError

    def parse(self, bk) -> None:
        raise NotImplementedError

    def op(self, bk, i: int, traced: bool):
        raise NotImplementedError

    def check(self, i: int, out) -> str | None:
        raise NotImplementedError

    def extra(self, bk, i: int, out) -> dict[str, float]:
        """Per-layer values read off the finished operation."""
        return {}


class Augment(Workload):
    """`maximal_augment` on one input graph."""

    def parse(self, bk) -> None:
        self.g = bk.fileio.parse_graph(self.text)

    def op(self, bk, i, traced):
        return bk.augmentation.maximal_augment(self.g, collect_trace=traced)

    def extra(self, bk, i, out):
        clauses = [rec.clause for rec in out.trace]
        gc.collect()
        t0 = time.perf_counter()
        bk.triangulation.complete_to_triangulation(self.g.points)
        return {
            "triangulation.sweep_s": time.perf_counter() - t0,
            "augmentation.flips": len(clauses),
            "augmentation.flips.red": clauses.count("red"),
            "augmentation.flips.blue": clauses.count("blue"),
            "augmentation.flips.cross": clauses.count("cross"),
            "augmentation.purple.end": len(out.state.purple),
            "augmentation.edges.added": out.graph.m - self.g.m,
        }


class AugmentEmpty(Augment):
    name = "augment-empty"

    def prepare(self, seed):
        self.coords = random_coords(random.Random(seed), 4000)
        self.edges = []
        self.text = graph_text(self.coords, self.edges)
        self.hull = checks.hull_ccw(self.coords)

    def check(self, i, out):
        n, h = len(self.coords), len(self.hull)
        edges = set(out.graph.edges)
        red, blue = list(out.red_layer), list(out.blue_layer)
        if set(red) | set(blue) != edges:
            return "red and blue layers do not make up the output"
        deco = out.decomposition
        if set(deco.layer1) & set(deco.layer2) or set(deco.layer1) | set(deco.layer2) != edges:
            return "decomposition is not a partition of the output"
        lower, upper = checks.edge_bounds(n, h)
        if not lower <= len(edges) <= upper:
            return f"m = {len(edges)} outside [{lower}, {upper}]"
        for layer in (red, blue):
            err = checks.plane_triangulation_error(self.coords, layer, self.hull)
            if err:
                return err
        return None


class ReaugmentMaximal(Augment):
    name = "reaugment-maximal"

    def prepare(self, seed):
        # The stored labels are kept whatever the seed: constraints are
        # inserted in label order, and relabelling moved the operation's
        # time by up to 10%, which would hide regressions of that size.
        self.coords, self.edges = load_stored("reaugment-maximal.txt")
        self.text = graph_text(self.coords, self.edges)

    def check(self, i, out):
        if list(out.graph.edges) != self.edges:
            return f"output has {out.graph.m} edges, the maximal input {len(self.edges)}"
        return None


class CheckConvex(Workload):
    """`biplanekit check` in-process, alternating a biplane and a non-biplane file."""

    name = "check-convex"

    def prepare(self, seed):
        coords, edges = load_stored("check-convex.txt")
        coords2, edges2 = load_stored("check-convex-chord.txt")
        if coords2 != coords:
            raise SystemExit("perfbench: check-convex inputs have different points")
        self.coords, *self.edges = relabel(seed, coords, edges, edges2)
        self.texts = [graph_text(self.coords, e) for e in self.edges]
        WORK.mkdir(exist_ok=True)
        self.paths = []
        for kind, text in zip(("biplane", "chord"), self.texts):
            path = WORK / f"check-convex-{kind}-{seed}.txt"
            path.write_text(text)
            self.paths.append(str(path))
        hull = checks.hull_ccw(self.coords)
        if len(hull) != len(self.coords):
            raise SystemExit("perfbench: check-convex points are not in convex position")
        self.hull_pos = {v: k for k, v in enumerate(hull)}

    def parse(self, bk):
        # Parsed only to time set-up; each operation reads its file itself.
        self.graphs = [bk.fileio.parse_graph(t) for t in self.texts]

    def op(self, bk, i, traced):
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(buf):
            code = bk.cli.run(["check", self.paths[i % 2]])
        return code, buf.getvalue()

    def check(self, i, out):
        code, text = out
        lines = text.splitlines()
        edges = self.edges[i % 2]

        def block(at: int, tag: str) -> list[tuple[int, int]]:
            head, k = lines[at].split()
            if head != tag:
                raise ValueError(f"expected {tag}, got {head}")
            return [tuple(map(int, ln.split())) for ln in lines[at + 1 : at + 1 + int(k)]]

        try:
            if i % 2 == 0:
                if code != 0 or lines[0] != "BIPLANE":
                    return f"exit {code}, verdict {lines[:1]}, expected BIPLANE"
                l1 = block(1, "LAYER1")
                l2 = block(2 + len(l1), "LAYER2")
                if sorted(l1 + l2) != edges:
                    return "layers are not a partition of the input"
                return checks.laminar_error(self.hull_pos, l1) or checks.laminar_error(
                    self.hull_pos, l2
                )
            if code != 1 or lines[0] != "NOT-BIPLANE":
                return f"exit {code}, verdict {lines[:1]}, expected NOT-BIPLANE"
            return checks.odd_cycle_error(self.coords, set(edges), block(1, "WITNESS"))
        except (IndexError, ValueError) as exc:
            return f"unreadable output: {exc}"

    def extra(self, bk, i, out):
        return {"cli.output_bytes": len(out[1].encode())}


class VerifySmall(Workload):
    """The brute-force maximality oracle and exact vertex connectivity."""

    name = "verify-small"

    def prepare(self, seed):
        self.coords, self.edges = relabel(seed, *load_stored("verify-small.txt"))
        self.text = graph_text(self.coords, self.edges)

    def parse(self, bk):
        self.g = bk.fileio.parse_graph(self.text)

    def op(self, bk, i, traced):
        return (
            bk.analysis.maximality_oracle(self.g),
            bk.analysis.vertex_connectivity(self.g),
        )

    def check(self, i, out):
        maximal, rep = out
        if maximal is not True:
            return "maximality oracle rejected a maximal graph"
        if rep.kappa < 3 or len(rep.witness_cut) != rep.kappa:
            return f"kappa {rep.kappa} with cut {rep.witness_cut}"
        if not checks.disconnects(len(self.coords), self.edges, rep.witness_cut):
            return f"removing {rep.witness_cut} leaves the graph connected"
        return None

    def extra(self, bk, i, out):
        # Size of the pair set vertex_connectivity documents: a minimum-degree
        # vertex against its non-neighbours, plus non-adjacent neighbour pairs.
        n = len(self.coords)
        adj = [set() for _ in range(n)]
        for a, b in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        v = min(range(n), key=lambda u: (len(adj[u]), u))
        nb = sorted(adj[v])
        pairs = n - 1 - len(nb)
        pairs += sum(1 for k, x in enumerate(nb) for y in nb[k + 1 :] if y not in adj[x])
        return {"analysis.flow.pairs": pairs}


WORKLOADS = {w.name: w for w in (AugmentEmpty(), ReaugmentMaximal(), CheckConvex(), VerifySmall())}


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def trace_targets(bk):
    """Public functions wrapped in the traced run, with their count hooks."""

    def n_pairs(tr, args, result):
        tr.count("recognition.crossing_pairs.count", len(result))

    def n_constraints(tr, args, result):
        tr.count("triangulation.complete.calls", 1)
        tr.count("triangulation.constraints.count", len(getattr(args[0], "edges", ())))

    def n_purple(tr, args, result):
        tr.count("augmentation.purple.start", len(result.purple))

    return [
        ("cli.run", bk.cli.run, None),
        ("fileio.parse_graph", bk.fileio.parse_graph, None),
        ("analysis.maximality_oracle", bk.analysis.maximality_oracle, None),
        ("analysis.vertex_connectivity", bk.analysis.vertex_connectivity, None),
        ("augmentation.maximal_augment", bk.augmentation.maximal_augment, None),
        ("augmentation.build_state", bk.augmentation.build_state, n_purple),
        ("augmentation.certify_maximal", bk.augmentation.certify_maximal, None),
        ("recognition.test_biplane", bk.recognition.test_biplane, None),
        ("recognition.crossing_pairs", bk.recognition.crossing_pairs, n_pairs),
        (
            "triangulation.complete_to_triangulation",
            bk.triangulation.complete_to_triangulation,
            n_constraints,
        ),
        ("triangulation.plane_face_walks", bk.triangulation.plane_face_walks, None),
    ]


def layer_metrics(spans: list[Span], counts: dict[str, int], op_s: float, extra: dict) -> dict:
    """Per-layer seconds and counts of one traced operation.

    Self times come by subtraction of child spans; layers the operation
    does not reach come out as 0.
    """
    t = totals(spans)

    def tot(name: str) -> float:
        return t.get(name, 0.0)

    def self_s(name: str) -> float:
        return sum(s.self_s for s in spans if s.name == name)

    assemble = 0.0
    for k, s in enumerate(spans):
        if s.name == "augmentation.maximal_augment":
            ends = [c.end for c in spans if c.parent == k and c.name == "augmentation.certify_maximal"]
            assemble += s.end - max(ends, default=s.end)
    oracle_ids = {k for k, s in enumerate(spans) if s.name == "analysis.maximality_oracle"}
    oracle_calls = sum(
        1 for s in spans if s.name == "recognition.test_biplane" and s.parent in oracle_ids
    )
    sweep = extra.get("triangulation.sweep_s", 0.0)
    out = {
        "recognition.crossing_pairs_s": tot("recognition.crossing_pairs"),
        "recognition.coloring_s": tot("recognition.test_biplane") - tot("recognition.crossing_pairs"),
        "triangulation.complete_s": tot("triangulation.complete_to_triangulation"),
        "triangulation.constraints_s": tot("triangulation.complete_to_triangulation")
        - counts.get("triangulation.complete.calls", 0) * sweep,
        "triangulation.face_walks_s": tot("triangulation.plane_face_walks"),
        "augmentation.build_state_s": tot("augmentation.build_state"),
        "augmentation.index_s": self_s("augmentation.build_state")
        + tot("triangulation.plane_face_walks"),
        "augmentation.certify_s": tot("augmentation.certify_maximal"),
        "augmentation.assemble_s": assemble,
        "augmentation.flip_loop_s": tot("augmentation.maximal_augment")
        - tot("augmentation.build_state")
        - tot("augmentation.certify_maximal")
        - assemble,
        "analysis.maximality_oracle_s": self_s("analysis.maximality_oracle"),
        "analysis.oracle.candidates": max(oracle_calls - 1, 0),
        "analysis.vertex_connectivity_s": tot("analysis.vertex_connectivity"),
        "cli.check_s": tot("cli.run"),
        "cli.self_s": self_s("cli.run"),
        "fileio.parse_graph_s": tot("fileio.parse_graph"),
        "trace.unaccounted_s": op_s - sum(s.duration for s in spans if s.parent < 0),
    }
    for name in ("recognition.crossing_pairs.count", "triangulation.constraints.count",
                 "augmentation.purple.start"):
        out[name] = counts.get(name, 0)
    out.update(extra)
    return out


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import biplanekit\n"
    "t = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "from run import speed_sample\n"
    "print(t, sum(speed_sample() for _ in range(5)) / 5, biplanekit.__file__)\n"
)


def import_seconds() -> float:
    """Import of biplanekit in a fresh interpreter, timed inside it.

    The interpreter may run on another core than this one, at another
    speed, so it samples its own speed right after the import.
    """
    proc = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: importing biplanekit failed:\n{proc.stderr}")
    seconds, sample, path = proc.stdout.split()
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: biplanekit imported from {path}, not {SRC}")
    return float(seconds) * CAL_REF_S / float(sample)


def import_library():
    """Import biplanekit from this checkout's src/ and nowhere else."""
    if not (SRC / "biplanekit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no biplanekit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import biplanekit as bk
    import biplanekit.cli  # noqa: F401  (not imported by the package itself)

    if not Path(bk.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"perfbench: biplanekit imported from {bk.__file__}, not {SRC}")
    return bk


# Seconds `speed_sample` takes at the reference speed, and how often it
# samples during a timed operation.
CAL_REF_S = 0.0015
SAMPLE_EVERY_S = 0.1
_CAL_POINTS = [((i * 7919) % 2**29, (i * 104729) % 2**29) for i in range(1000)]


def _cal_cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def speed_sample() -> float:
    """Seconds taken by a fixed loop of calls and big-integer cross products.

    It allocates nothing the garbage collector tracks, so running it in
    the middle of an operation does not move that operation's collections.
    """
    pts = _CAL_POINTS
    t0 = time.perf_counter()
    for i in range(1, 4000):
        k = i % 1000
        _cal_cross(pts[k - 1], pts[k], pts[(k * 7) % 1000])
    return time.perf_counter() - t0


class SpeedProbe:
    """Measures the machine's speed before, during and after a timed region.

    Where cores are shared with other tenants, speed drifts: on a 2-vCPU
    Xeon virtual machine, by a quarter within a minute, for pure-Python
    loops as much as for the library.  So every time the benchmark reports
    is scaled to a reference speed: multiplied by CAL_REF_S over the mean
    time of `speed_sample`.  Inside the region a timer signal takes a
    sample every SAMPLE_EVERY_S, in the one thread there is; the seconds
    the samples took are returned by `stop` so the caller can deduct them.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0

    def _on_timer(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(speed_sample())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.samples = [speed_sample() for _ in range(3)]
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> tuple[float, float]:
        """(seconds spent sampling inside the region, speed factor)."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        spent = self.spent
        self.samples += [speed_sample() for _ in range(3)]
        return spent, CAL_REF_S / statistics.fmean(self.samples)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest nearest-rank percentile with at least ten samples above it.

    With ten samples or fewer no percentile qualifies; the minimum is
    reported then, with its rank as the percentile.
    """
    s = sorted(values)
    rank = max(len(s) - 10, 1)
    return s[rank - 1], 100.0 * rank / len(s)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bk = import_library()
    wl = WORKLOADS[args.workload]
    wl.prepare(args.seed)

    import_s, parse_s = [], []
    probe = SpeedProbe()
    for _ in range(SETUP_REPS):
        import_s.append(import_seconds())
        gc.collect()
        probe.start()
        t0 = time.perf_counter()
        wl.parse(bk)
        parse = time.perf_counter() - t0
        spent, f = probe.stop()
        parse_s.append((parse - spent) * f)
    setup = [a + b for a, b in zip(import_s, parse_s)]

    tracer = Tracer()
    targets = trace_targets(bk)
    plain_s: list[float] = []
    traced_s: list[float] = []
    raw_s: list[float] = []
    layers: list[dict] = []
    span_log: list[dict] = []
    attempted = failed = failed_plain = 0
    reported = False

    def run_one(i: int, traced: bool, timed: bool = True) -> None:
        nonlocal attempted, failed, failed_plain, reported
        gc.collect()
        if traced:
            tracer.install(targets)
        probe.start()
        t0 = time.perf_counter()
        try:
            out, err = wl.op(bk, i, traced), None
        except Exception:  # a failed operation is counted, not fatal
            out, err = None, traceback.format_exc()
        gross = time.perf_counter() - t0
        spent, f = probe.stop()
        dt = gross - spent
        if traced:
            tracer.remove()
        spans, counts = tracer.take()
        if err is None:
            err = wl.check(i, out)
        if not timed:
            if err:
                print(f"warm-up operation failed: {err}", file=sys.stderr)
            return
        attempted += 1
        (traced_s if traced else plain_s).append(dt * f)
        if not traced:
            raw_s.append(dt)
        if err:
            failed += 1
            failed_plain += not traced
            if not reported:
                print(f"operation {i} failed: {err}", file=sys.stderr)
                reported = True
            return
        if traced:
            # Timer samples land uniformly in time, so each span loses its
            # share of the sampling time; then all goes to reference speed.
            scale = f * dt / gross
            for s in spans:
                s.start, s.end = (s.start - t0) * scale, (s.end - t0) * scale
                s.children_s *= scale
            extra = {k: v * f if PER_LAYER[k] == "s" else v for k, v in wl.extra(bk, i, out).items()}
            layers.append(layer_metrics(spans, counts, dt * f, extra))
            span_log.append({
                "op": i, "op_s": dt * f,
                "spans": [[s.name, s.start, s.end, s.parent] for s in spans],
            })

    run_one(0, False, timed=False)
    # Objects alive now stay alive for the whole run; keep the collector
    # from rescanning them so each operation starts from the same GC state.
    gc.freeze()
    i = 0
    while sum(raw_s) < args.seconds:
        # Traced and plain runs of one operation alternate in order, so
        # neither side always follows the other.
        for traced in ((True, False) if i % 2 else (False, True)) if args.trace else (False,):
            run_one(i, traced)
        i += 1

    lines = []
    if args.trace:
        metrics = {"setup.import_s": statistics.median(import_s),
                   "setup.parse_s": statistics.median(parse_s)}
        for name in PER_LAYER:
            if name not in metrics and layers and name in layers[0]:
                metrics[name] = statistics.median(d[name] for d in layers)
            metrics.setdefault(name, 0.0)
        if traced_s:
            metrics["trace.op_s.p50"] = statistics.median(traced_s)
            metrics["trace.overhead_s"] = metrics["trace.op_s.p50"] - statistics.median(plain_s)
        units = PER_LAYER
        WORK.mkdir(exist_ok=True)
        out_path = WORK / f"trace-{wl.name}-{args.seed}.json"
        out_path.write_text(json.dumps({"workload": wl.name, "seed": args.seed, "ops": span_log}))
        lines.append(f"spans written to {out_path.relative_to(ROOT)}")
    else:
        p_tail, pct = tail(plain_s)
        metrics = {
            "op_s.p50": statistics.median(plain_s),
            "op_s.tail": p_tail,
            "ops_per_s": (len(plain_s) - failed_plain) / sum(plain_s),
            "setup_s": statistics.median(setup),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ratio": (attempted - failed) / attempted,
        }
        units = END_TO_END
        lines.append(f"op_s.tail is p{pct:.1f} of {len(plain_s)} operations")
        lines.append("op_s samples: " + " ".join(f"{d:.4f}" for d in plain_s))
        lines.append(f"unscaled wall op_s.p50 = {statistics.median(raw_s):.6g} s")
        lines.append(f"fail_ratio = {failed}/{attempted}")
    for name, value in metrics.items():
        lines.append(f"{wl.name} {name} = {value:.6g} {units[name]}")
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
