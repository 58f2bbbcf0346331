"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--trace 0|1] [--out FILE]

Run from the root of a checkout.  For every metric it prints the median,
the quartiles (statistics.quantiles, n=4) and their distance as a share
of the median, next to the metric's bound in BENCHMARK.json.  With
--out, the runs and the summary are written as JSON, with the Python
version, the CPU count and each op's median wall time.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    kind = "per_layer" if args.trace == "1" else "end_to_end"
    bounds = {m["name"]: m.get("bound") for m in bench[kind]}
    runs = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", args.trace],
            capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(lines[-1])
        detail = next(json.loads(line.split(" ", 1)[1]) for line in lines
                      if line.startswith("perfbench-detail "))
        runs.append({"seed": seed, "result": result, "detail": detail})
        values = " ".join(f"{k}={v['value']:.4g}"
                          for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']} "
              f"samples={detail['op_samples']} {values}", flush=True)

    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                     else values * 3)
        spread = (q3 - q1) / med if med else None
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                         "bound": bounds.get(name),
                         "unit": runs[0]["result"]["metrics"][name]["unit"]}
        bound = bounds.get(name)
        verdict = ""
        if bound is not None and spread is not None:
            verdict = "ok" if spread <= bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
        shown = "n/a" if spread is None else f"{spread:.4f}"
        print(f"{name:32s} median {med:10.4f} q1 {q1:10.4f} q3 {q3:10.4f} "
              f"spread {shown} bound {bound} {verdict}")
    ops = {}
    for r in runs:
        for op, v in r["detail"]["op_median_s"].items():
            ops.setdefault(op, []).append(v)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({
                "workload": args.workload,
                "trace": int(args.trace),
                "run_seconds": bench["run_seconds"],
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "seeds": [r["seed"] for r in runs],
                "all_correct": all(r["result"]["correct"] for r in runs),
                "summary": summary,
                "op_median_s": {op: statistics.median(v) for op, v in ops.items()},
                "runs": runs,
            }, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
