"""Write perfbench/digests.json, the reference digest of every op.

    python3 perfbench/make_digests.py [--seeds 1,7]

Run from the root of a checkout.  Every op of every workload (except the
known failure) runs once per seed, and its digest (run.report_digest)
must be the same at all of them: the exactness contract makes a report's
content independent of the seed.  Regenerate only when a change to the
program is meant to change its reports.
"""

import argparse
import json
import os
import sys

from run import HERE, KNOWN_FAILING, WORKLOADS, Runner, report_digest


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1,7")
    seeds = [int(s) for s in parser.parse_args(argv).seeds.split(",")]
    runner = Runner(os.path.join(os.getcwd(), "src"), started=None)
    digests, ok = {}, True
    for workload in WORKLOADS.values():
        for op_id, args in workload["ops"].items():
            if op_id in KNOWN_FAILING:
                continue
            seen = set()
            for seed in seeds:
                full = list(args) + ([] if args[0] == "lattice"
                                     else ["--seed", str(seed)])
                wall, _, rc, out, err, _ = runner.spawn(full)
                if rc != 0:
                    print(f"{op_id} seed {seed}: exit {rc} {err}")
                    ok = False
                    continue
                seen.add(report_digest(out))
                print(f"{op_id} seed {seed}: {wall:.2f} s {report_digest(out)[:16]}")
            if len(seen) != 1:
                print(f"{op_id}: digests differ across seeds {seeds}")
                ok = False
            digests[op_id] = seen.pop() if seen else None
    if not ok:
        return 1
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
