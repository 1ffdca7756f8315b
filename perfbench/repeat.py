"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workloads augment-empty,check-convex --seeds 1-10

For every workload and end-to-end metric it prints the median of the runs
and the distance between their first and third quartiles as a share of
the median, next to the metric's bound from BENCHMARK.json.  --trace 1
summarises the per-layer metrics instead.  --json writes the summary to a
file, in the form kept in trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write the summary to this file")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary: dict[str, dict] = {}
    worst = 0.0
    for wl in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            cmd = [*bench["command"], "--workload", wl, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{wl} seed {seed}: {result['failed']} failed", file=sys.stderr)
            runs.append(result)
        summary[wl] = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            summary[wl][name] = {"median": med, "q1": q1, "q3": q3, "unit": first["unit"]}
            bound = bounds.get(name)
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            shown = f"  bound {bound}" if bound is not None else ""
            print(f"{wl:18} {name:34} median {med:<12.6g} {first['unit']:6} "
                  f"spread {spread:.4f}{shown}")
        print(f"{wl:18} failed {sum(r['failed'] for r in runs)} of "
              f"{sum(r['attempted'] for r in runs)} operations", flush=True)
    if args.trace == 0:
        print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
