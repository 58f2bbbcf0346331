"""Benchmark of the repring command line, run from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each op is one ``repring`` command in a fresh process (child.py); one
child runs at a time, in a closed loop.  A first pass runs every op
once, in an order drawn from the seed; then, until S seconds are up,
the op with the fewest samples (shortest first) among those whose
median time still fits before the deadline runs again.  Every report
is checked against the reference digest in digests.json: sha256 of the
canonical report without its "seed" key, which the exactness contract
makes the same at every seed.

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported:
run_s is the sum over ops of each op's median wall time (one pass),
op_p50_s and op_p90_s are percentiles of those per-op medians, setup_s
the median time from spawning a child to ``repring.cli`` being imported,
over every child, and peak_rss_mib the largest max-RSS of any child.
With --trace 1 each op runs untraced and then traced (tracer.py), and
both must print the same bytes.  The per-layer metrics are the traced
figures of one pass, with the tracing overhead (traced minus untraced
run_s) and the part of the traced wall time no span covers (start-up,
imports, exit).

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Lines before it print every metric by name with its unit, the
host-speed reference loop timed at the start and end of the run (not
gated), and per-op detail.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

P2, P3, P5 = ("--p", "2"), ("--p", "3"), ("--p", "5")

# op id -> repring arguments; "--seed" is appended to every analyze and
# verify op (lattice takes no seed)
WORKLOADS = {
    "cli-small": {
        "op_seed": "workload",
        "ops": {
            **{f"analyze {g} p2": ("analyze", g) + P2
               for g in ("S4", "A4", "D8", "Q8", "C2xC2", "S3xC2")},
            **{f"analyze {g} p3": ("analyze", g) + P3
               for g in ("S4", "A4", "S3xC2", "C3xC3")},
            **{f"analyze {g} p5": ("analyze", g) + P5 for g in ("D10", "C5")},
            "lattice p2 max8": ("lattice",) + P2 + ("--max-order", "8"),
            "lattice p3": ("lattice",) + P3,
            "lattice p5": ("lattice",) + P5,
            "analyze S3 p7": ("analyze", "S3", "--p", "7"),
        },
    },
    # The regular-module chop of S5 at p=2 takes from 1.2 s to 9.9 s over
    # seeds 1-10, so these ops always get seed 1 (the CLI default) and the
    # workload seed only orders them.
    "chop-mid": {
        "op_seed": 1,
        "ops": {f"analyze {g} p{p}": ("analyze", g, "--p", str(p))
                for g in ("A5", "S5") for p in (2, 3, 5)},
    },
    "verify": {
        "op_seed": "workload",
        "ops": {"verify p2,3": ("verify", "--p", "2,3")},
    },
}

# Valid input that fails today for lack of a p=7 catalog.  It runs and is
# timed like any op; exit 2 with DatasetMissing is scored as a known
# failure (not failed), a report of S3 at p=7 as a pass, anything else
# as a failure.
KNOWN_FAILING = {"analyze S3 p7": "DatasetMissing"}

END_TO_END = {"run_s": "s", "op_p50_s": "s", "op_p90_s": "s",
              "setup_s": "s", "peak_rss_mib": "MiB"}

SETUP_PROBES = 9          # import-only children per run, besides the ops
HARD_LIMIT_S = 170.0      # no child may run past this point of the run


def host_ref_s():
    """Median wall time of three runs of a fixed pure-Python loop."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(800_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def report_digest(stdout):
    """sha256 of the canonical report without its seed."""
    report = json.loads(stdout)
    report.pop("seed", None)
    if report.get("kind") == "verify":
        for crit in report["criteria"]:
            for check in crit["checks"]:
                # the byte count of a same-seed report counts the seed's digits
                if check["name"].endswith(" same seed"):
                    check.pop("detail")
    data = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(data.encode("ascii")).hexdigest()


def op_argv(workload, op_id, seed):
    args = list(WORKLOADS[workload]["ops"][op_id])
    if args[0] != "lattice":
        op_seed = WORKLOADS[workload]["op_seed"]
        args += ["--seed", str(seed if op_seed == "workload" else op_seed)]
    return args


class Runner:
    def __init__(self, src, started):
        self.src = src
        self.started = started
        # bytecode caching on, so set-up time is import time, not compile time
        self.env = {k: v for k, v in os.environ.items()
                    if k not in ("REPRING_SEED", "PYTHONPATH",
                                 "PYTHONDONTWRITEBYTECODE")}

    def spawn(self, args, trace_op="-"):
        """Run one child; (wall s, setup s, exit code, stdout, stderr
        lines, trace summary or None)."""
        timeout = None if self.started is None else max(
            1.0, HARD_LIMIT_S - (time.monotonic() - self.started))
        cmd = [sys.executable, os.path.join(HERE, "child.py"), self.src,
               trace_op, *args]
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return time.monotonic() - t0, None, None, b"", ["timed out"], None
        wall = time.monotonic() - t0
        setup, trace, other = None, None, []
        for line in proc.stderr.decode("utf-8", "replace").splitlines():
            if line.startswith("perfbench-ready "):
                setup = float(line.split()[1]) - t0
            elif line.startswith("perfbench-trace "):
                trace = json.loads(line.split(" ", 1)[1])
            else:
                other.append(line)
        return wall, setup, proc.returncode, proc.stdout, other, trace


def score(op_id, rc, stdout, stderr, digests):
    """'ok', 'known' (the known failure, unchanged) or a failure reason."""
    if op_id in KNOWN_FAILING:
        if rc == 2 and stderr:
            try:
                err = json.loads(stderr[-1])["error"]["type"]
            except (ValueError, KeyError, TypeError):
                err = None
            if err == KNOWN_FAILING[op_id]:
                return "known"
        if rc == 0:
            try:
                report = json.loads(stdout)
                if (report["kind"], report["p"],
                        report["group"]["order"]) == ("analyze", 7, 6):
                    return "ok"
            except (ValueError, KeyError, TypeError):
                pass
        return f"exit {rc}: {' '.join(stderr)[-300:]}"
    if rc != 0:
        return f"exit {rc}: {' '.join(stderr)[-300:]}"
    try:
        digest = report_digest(stdout)
        all_pass = json.loads(stdout).get("all_pass", True)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}"
    if digest != digests.get(op_id):
        return f"digest {digest[:16]} does not match the reference"
    if not all_pass:
        return "verify reports all_pass false"
    return "ok"


def quantile(values, q):
    """Linear-interpolation quantile, 0 <= q <= 1."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    pos = q * (len(values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def run(workload, seed, seconds, trace):
    started = time.monotonic()
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repring", "cli.py")):
        sys.stderr.write(f"perfbench: no repring sources under {src}\n")
        return 2
    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = json.load(fh)
    runner = Runner(src, started)
    ops = list(WORKLOADS[workload]["ops"])

    host_start = host_ref_s()
    runner.spawn([])  # compiles bytecode and warms the file cache
    setups = [runner.spawn([])[1] for _ in range(SETUP_PROBES)]

    walls = {op: [] for op in ops}     # untraced wall time per op
    traced = {op: [] for op in ops}    # traced wall time per op
    layers = {op: {} for op in ops}    # trace summaries summed per op
    tries = {op: [0, 0] for op in ops}  # [runs, runs not ok incl. known]
    attempted = failed = known = 0
    restored = True
    failures = []
    deadline = started + seconds
    timed_out = False
    order = ops[:]
    random.Random(f"{workload}:{seed}").shuffle(order)
    first_pass = list(order)

    def expected(op):
        """Wall time the op's next turn should take, traced run included."""
        return sum(statistics.median(v) for v in (walls[op], traced[op]) if v)

    while not timed_out:
        if first_pass:
            op_id = first_pass.pop(0)
        else:
            # Then, of the ops that should end before the deadline, the one
            # with the fewest samples, shortest first: every op's median
            # then rests on samples spread over the whole run.  Host speed
            # drifts by 10-30% in phases of seconds to a minute, and an op
            # measured once carries its phase into the metrics unaveraged.
            left = deadline - time.monotonic()
            fits = [op for op in order if expected(op) <= left]
            if not fits:
                break
            op_id = min(fits, key=lambda op: (len(walls[op]), expected(op)))
        args = op_argv(workload, op_id, seed)
        for trace_op in (("-", op_id) if trace else ("-",)):
            wall, setup, rc, out, err, summary = runner.spawn(args, trace_op)
            attempted += 1
            timed_out = rc is None
            outcome = "timed out" if timed_out else score(
                op_id, rc, out, err, digests)
            if trace_op == "-":
                untraced_out = out
            elif outcome in ("ok", "known") and out != untraced_out:
                outcome = "traced stdout differs from untraced stdout"
            tries[op_id][0] += 1
            tries[op_id][1] += outcome != "ok"
            if outcome == "known":
                known += 1
            elif outcome != "ok":
                failed += 1
                failures.append(f"{op_id} (trace {trace_op != '-'}): {outcome}")
            if timed_out:
                break
            if setup is not None:
                setups.append(setup)
            if trace_op == "-":
                walls[op_id].append(wall)
                continue
            traced[op_id].append(wall)
            if summary is None:
                restored = False
                continue
            restored &= summary.pop("trace.restored")
            summary["trace.wall_s"] = wall
            for k, v in summary.items():
                layers[op_id][k] = layers[op_id].get(k, 0) + v
    host_end = host_ref_s()

    medians = {op: statistics.median(v) for op, v in walls.items() if v}
    setups = [s for s in setups if s is not None]
    samples = sum(len(v) for v in walls.values())
    detail = {
        "workload": workload,
        "seed": seed,
        "repeats": {op: len(v) for op, v in walls.items()},
        "op_samples": samples,
        "setup_samples": len(setups),
        "attempted": attempted,
        "failed": failed,
        "known_failures": known,
        # share of the workload's ops that fail, known failures included
        "fail_rate": statistics.mean(bad / n for n, bad in tries.values() if n),
        "host_ref_s": {"start": host_start, "end": host_end},
        "op_median_s": medians,
        "op_walls_s": walls,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "failures": failures,
    }
    if trace:
        # per op: traced wall time = sum of span self times + unwrapped rest
        detail["op_trace_s"] = {op: {
            "wall": sums["trace.wall_s"] / len(traced[op]),
            "self": sums["trace.self_total_s"] / len(traced[op]),
            "unwrapped": (sums["trace.wall_s"] - sums["trace.self_total_s"])
            / len(traced[op]),
        } for op, sums in layers.items() if sums}
        for op, t in detail["op_trace_s"].items():
            print(f"trace {workload} {op!r}: wall {t['wall']:.4f} s = self "
                  f"{t['self']:.4f} s + unwrapped {t['unwrapped']:.4f} s")
        metrics = layer_metrics(layers, traced, medians, detail)
        units = {name: unit for name, (_, unit) in metrics.items()}
        metrics = {name: value for name, (value, _) in metrics.items()}
    else:
        units = END_TO_END
        metrics = {
            "run_s": sum(medians.values()),
            "op_p50_s": quantile(medians.values(), 0.5),
            "op_p90_s": quantile(medians.values(), 0.9),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
    for name, value in metrics.items():
        print(f"metric {workload} {name} = {value:.6g} {units[name]}")
    for op, value in medians.items():
        print(f"op {workload} {op!r} median {value:.4f} s "
              f"over {len(walls[op])} runs")
    print(f"samples: {samples} ops, {len(setups)} set-ups")
    print(f"host_ref_s start={host_start:.4f} end={host_end:.4f} (not gated)")
    print(f"fail_rate {detail['fail_rate']:.4f} of {len(ops)} ops "
          f"({failed} failed and {known} known failures of {attempted} runs)")
    for line in failures:
        print("FAILED", line)
    print("perfbench-detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and restored,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def layer_metrics(layers, traced, medians, detail):
    """Per-layer figures of a traced run, name -> (value, unit).  Each is
    the sum over ops of the op's mean per traced run, i.e. one pass."""
    from tracer import CALLS, INCLUSIVE, MODULES, SUITES, suite_metric
    per_pass = {}
    for op, sums in layers.items():
        for k, v in sums.items():
            per_pass[k] = per_pass.get(k, 0) + v / len(traced[op])
    names = ([f"{layer}.self_s" for layer in MODULES]
             + [metric for metric, _ in INCLUSIVE]
             + [suite_metric(suite) for suite in SUITES])
    out = {name: (per_pass.get(name, 0.0), "s") for name in names}
    for metric, _ in CALLS:
        out[metric] = (per_pass.get(metric, 0), "count")
    out["meataxe.dims_chopped"] = (per_pass.get("meataxe.dims_chopped", 0), "count")
    out["meataxe.reseeds"] = (per_pass.get("meataxe.regular_modules", 0)
                              - per_pass.get("meataxe.chop_regular_calls", 0),
                              "count")
    for name, builds, calls in (
            ("catalog.hit_ratio", "catalog.builds", "catalog.build_calls"),
            ("brauer.data_hit_ratio", "brauer.data_builds", "brauer.data_calls"),
            ("defects.u_hit_ratio", "defects.u_builds", "defects.u_calls")):
        base = per_pass.get(calls, 0)
        out[name] = ((1 - per_pass.get(builds, 0) / base) if base else 0.0, "ratio")
    traced_run = sum(statistics.median(v) for v in traced.values() if v)
    untraced_run = sum(medians.values())
    unwrapped = per_pass["trace.wall_s"] - per_pass["trace.self_total_s"]
    out.update({
        "trace.run_s": (traced_run, "s"),
        "trace.untraced_run_s": (untraced_run, "s"),
        "trace.overhead_s": (traced_run - untraced_run, "s"),
        "trace.overhead_share": ((traced_run - untraced_run) / untraced_run, "ratio"),
        "trace.self_total_s": (per_pass["trace.self_total_s"], "s"),
        "trace.unwrapped_s": (unwrapped, "s"),
        "trace.unwrapped_share": (unwrapped / per_pass["trace.wall_s"], "ratio"),
        "trace.spans": (per_pass["trace.spans"], "count"),
        "ops.min_repeats": (min(detail["repeats"].values()), "count"),
        "ops.samples": (detail["op_samples"], "count"),
        "ops.fail_rate": (detail["fail_rate"], "ratio"),
        "ops.known_failures": (detail["known_failures"], "count"),
        "host.ref_start_s": (detail["host_ref_s"]["start"], "s"),
        "host.ref_end_s": (detail["host_ref_s"]["end"], "s"),
    })
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
