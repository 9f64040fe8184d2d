"""Result record: repeat bench/run.py over seeds and summarise every metric.

    python3 bench/record.py --runs 10 --out .bench_work/record.json

Each repeat uses another workload seed (1, 2, ... by default). The
workloads are interleaved, so a slow spell on the machine hits all of them
alike. One traced run per workload (at seed 0) gives the per-layer table.
The record holds the machine, the git revision, the seeds, and for each
end-to-end metric its median, quartiles, sample count and spread (the
interquartile range as a share of the median), next to the bound that
BENCHMARK.json fixes for it.
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

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(command)} printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["exit_code"] = proc.returncode
    if proc.stderr:
        result["stderr"] = proc.stderr[-2000:]
    return result


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else None}


def machine() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": model or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform()}


def git_revision() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--no-trace", action="store_true",
                        help="skip the traced run per workload")
    parser.add_argument("--out", default=str(ROOT / ".bench_work" / "record.json"))
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    runs: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for seed in seeds:
        for workload in args.workloads:
            result = run_once(workload, seed, args.seconds, 0)
            runs[workload].append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)

    record = {"machine": machine(), "git_revision": git_revision(),
              "run_seconds": args.seconds, "workload_seeds": seeds, "workloads": {}}
    worst_ok = True
    for workload in args.workloads:
        results = runs[workload]
        metrics = {}
        for name in results[0]["metrics"]:
            summary = summarise([r["metrics"][name]["value"] for r in results])
            summary["unit"] = results[0]["metrics"][name]["unit"]
            summary["bound"] = bounds.get(name)
            summary["values"] = [r["metrics"][name]["value"] for r in results]
            metrics[name] = summary
        entry = {
            "all_correct": all(r["correct"] and r["exit_code"] == 0 for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": metrics,
        }
        if not args.no_trace:
            traced = run_once(workload, 0, args.seconds, 1)
            entry["per_layer"] = {"seed": 0, "correct": traced["correct"],
                                  "metrics": traced["metrics"]}
        record["workloads"][workload] = entry
        print(f"\n{workload}: all correct={entry['all_correct']} "
              f"attempted={entry['attempted']} failed={entry['failed']}")
        for name, s in metrics.items():
            ok = s["bound"] is None or name == "setup_s" or s["spread"] <= s["bound"] / 3
            worst_ok &= ok
            print(f"  {name:20s} median={s['median']:<12.6g} spread={s['spread']:.4f} "
                  f"bound={s['bound']} {'ok' if ok else 'TOO WIDE'}")

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"record written to {out}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
