"""Run every workload on several seeds and summarise each metric.

    python3 bench/baseline.py --seeds 1-10 --out bench/baseline.json

For each workload and end-to-end metric it records the median over seeds,
the quartiles and the spread (q3 - q1) / median that BENCHMARK.json's bounds
are judged against; one traced run per workload adds the per-layer figures.
Run it from the root of a source checkout; it takes about
(seeds + 1) * workloads * (run_seconds + 5) seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=180, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}: "
                 f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1]), json.loads(lines[-2])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {"python": platform.python_version(), "nproc": os.cpu_count(),
           "run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        digits = 0
        for seed in args.seeds:
            result, detail = run_once(spec, workload, seed, 0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            digits = max(digits, detail["max_cumulative_denominator_digits"])
            print(workload, seed, {k: round(v[-1], 5) for k, v in values.items()},
                  flush=True)
        summary = {}
        for name, vals in values.items():
            q1, median, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "values": vals}
            print(f"  {name:24s} median {summary[name]['median']:.5g} "
                  f"spread {summary[name]['spread']:.3f}", flush=True)
        traced, _ = run_once(spec, workload, args.seeds[0], 1)
        out["workloads"][workload] = {
            "end_to_end": summary,
            "max_cumulative_denominator_digits": digits,
            "per_layer_seed": args.seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
