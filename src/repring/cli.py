"""Command line front end.

Three subcommands, all emitting canonical JSON on stdout:

    repring analyze S4 --p 2 [--max-p-order 16] [--seed 1] [--json out.json]
    repring lattice --p 2 [--max-order 16]
    repring verify [--corpus default|FILE] [--p 2,3] [--seed 1]

Errors are reported as one JSON object on stderr carrying the module
that raised them, with a nonzero exit code.  The REPRING_SEED
environment variable overrides the built-in default seed; an explicit
--seed overrides both.
"""

import argparse
import json
import sys

from .config import default_seed
from .errors import CorpusUnreadable, InvalidPrime, RepringError
from .gf import _is_prime
from .report import analyze_report, lattice_report, to_canonical_json
from .verify import run_verify


def _emit(report, json_path=None):
    data = to_canonical_json(report)
    sys.stdout.write(data.decode("ascii") + "\n")
    if json_path:
        with open(json_path, "wb") as fh:
            fh.write(data + b"\n")


def _prime(p):
    if not _is_prime(p):
        raise InvalidPrime(f"p = {p} is not prime")
    return p


def cmd_analyze(args) -> int:
    report = analyze_report(args.group, _prime(args.p),
                            max_p_order=args.max_p_order, seed=args.seed)
    _emit(report, args.json)
    return 0


def cmd_lattice(args) -> int:
    _emit(lattice_report(_prime(args.p), args.max_order))
    return 0


def _parse_primes(raw):
    if raw is None:
        return None
    try:
        primes = tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise CorpusUnreadable(f"bad prime list {raw!r}") from None
    if not primes:
        raise CorpusUnreadable(f"bad prime list {raw!r}")
    return tuple(_prime(p) for p in primes)


def cmd_verify(args) -> int:
    report = run_verify(corpus=args.corpus, primes=_parse_primes(args.p),
                        seed=args.seed)
    _emit(report)
    return 0 if report["all_pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repring",
        description="exact modular representation theory of finite groups")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser(
        "analyze",
        help="Brauer characters, Cartan data and class vectors of one group")
    pa.add_argument("group",
                    help='group spec: a name like S4, C6, D8, Q8, C2xC2, '
                         'or JSON {"degree": n, "generators": [[...]]}')
    pa.add_argument("--p", type=int, required=True, help="the prime")
    pa.add_argument("--max-p-order", type=int, default=None,
                    help="catalog truncation for defect groups")
    pa.add_argument("--seed", type=int, default=None,
                    help="PRNG seed (default from REPRING_SEED or 1)")
    pa.add_argument("--json", default=None, metavar="PATH",
                    help="also write the report to this file")
    pa.set_defaults(fn=cmd_analyze)

    pl = sub.add_parser(
        "lattice",
        help="the truncated p-group poset and its closed-set lattice")
    pl.add_argument("--p", type=int, required=True, help="the prime")
    pl.add_argument("--max-order", type=int, default=None,
                    help="largest p-group order kept")
    pl.set_defaults(fn=cmd_lattice)

    pv = sub.add_parser(
        "verify",
        help="run every verification suite over a corpus of groups")
    pv.add_argument("--corpus", default=None,
                    help='"default" or a path to a JSON list of group specs')
    pv.add_argument("--p", default=None,
                    help="comma separated primes (default 2,3)")
    pv.add_argument("--seed", type=int, default=None,
                    help="PRNG seed (default from REPRING_SEED or 1)")
    pv.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "seed", None) is None and hasattr(args, "seed"):
        args.seed = default_seed()
    try:
        return args.fn(args)
    except RepringError as exc:
        err = {
            "error": {
                "module": exc.module,
                "type": type(exc).__name__,
                "message": str(exc),
            }
        }
        sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
