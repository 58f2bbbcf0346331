"""One repring command in a fresh process, as the benchmark runs it.

    python3 child.py SRC OP [repring arguments...]

Imports ``repring.cli`` from SRC, writes ``perfbench-ready <monotonic
time>`` to stderr, and runs the command exactly as ``python -m repring``
would, with its stdout untouched.  Unless OP is ``-``, the spans of the
command are recorded under op id OP (see tracer.py) and their per-layer
summary goes to stderr as one ``perfbench-trace <json>`` line.  With no
repring arguments the process stops once the package is imported.
"""

import json
import sys
import time


def main():
    src, op, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    import repring.cli
    sys.stderr.write(f"perfbench-ready {time.monotonic()!r}\n")
    sys.stderr.flush()
    if not argv:
        return 0
    if op == "-":
        return repring.cli.main(argv)
    from tracer import Tracer
    tracer = Tracer(op)
    tracer.install()
    try:
        return repring.cli.main(argv)
    finally:
        sys.stdout.flush()
        restored = tracer.uninstall()
        summary = tracer.summary()
        summary["trace.restored"] = restored
        sys.stderr.write("perfbench-trace " + json.dumps(summary) + "\n")


if __name__ == "__main__":
    sys.exit(main())
