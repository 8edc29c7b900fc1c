"""Run the benchmark over several seeds and record a baseline with its spread.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 1-5 --workloads verify   # spread only

Runs `perfbench/run.py` once per workload and seed with `--trace 0`, as
BENCHMARK.json states it, then once per workload with `--trace 1`. For each
end-to-end metric it reports the median, the quartiles and the spread: the
distance between the quartiles as a share of the median, which must stay
below the metric's bound in BENCHMARK.json. Run from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", nargs="*", help="default: every workload")
    parser.add_argument("--out", type=Path, help="write the baseline JSON here")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = range(lo, hi + 1)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import run as bench
    baseline = {"environment": bench.environment(), "run_seconds": spec["run_seconds"],
                "seeds": list(seeds), "workloads": {}}
    ok = True
    for workload in workloads:
        results = [run(spec, workload, seed, 0) for seed in seeds]
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        entry = {"failed_frac": failed / attempted, "attempted": attempted, "end_to_end": {}}
        print(f"{workload}: failed_frac {failed}/{attempted}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["end_to_end"][name] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "unit": results[0]["metrics"][name]["unit"], "values": values}
            steady = name == "setup_s" or spread < bound / 3
            ok &= steady and failed == 0
            print(f"  {name:16} median {median:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:.4f}  bound {bound}  {'ok' if steady else 'TOO WIDE'}")
        if args.out:
            traced = run(spec, workload, seeds[0], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items() if v["value"]}
            print(f"  tracing overhead {traced['metrics']['trace.overhead_ratio']['value']:.3f}")
        baseline["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
