"""Golden reports: the content of every canonical report is pinned.

tests/golden/reports.json maps an op id to the sha256 of the canonical
report that op prints, with its "seed" key removed; the exactness
contract makes that digest the same at every seed.  A verify report
also drops the detail of its "same seed" checks, a byte count that
counts the seed's digits (as perfbench/digests.json does).
tests/golden/demos.json maps each script under demos/ to the sha256 of
what it prints, so a change in how a value prints shows there too.  A
change that is meant to alter a report or a demo's output regenerates
both files with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import repring
from repring.report import analyze_report, lattice_report, to_canonical_json
from repring.verify import run_verify

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden", "reports.json")
GOLDEN_DEMOS = os.path.join(HERE, "golden", "demos.json")
DEMOS = os.path.join(os.path.dirname(HERE), "demos")
DEMO_NAMES = sorted(n for n in os.listdir(DEMOS) if n.endswith(".py"))

OPS = {
    **{f"analyze {g} p2": ("analyze", g, 2)
       for g in ("S4", "A4", "D8", "Q8", "C2xC2", "S3xC2", "A5")},
    **{f"analyze {g} p3": ("analyze", g, 3)
       for g in ("S4", "A4", "S3xC2", "C3xC3", "A5")},
    **{f"analyze {g} p5": ("analyze", g, 5) for g in ("C5", "D10", "A5")},
    **{f"analyze S5 p{p}": ("analyze", "S5", p) for p in (2, 3, 5)},
    # Zech-logarithm fields: GF(3^6), q = 729, and GF(2^12), q = 4096
    "analyze C7 p3": ("analyze", "C7", 3),
    "analyze C13 p2": ("analyze", "C13", 2),
    # nine one-dimensional simples over GF(4); an 8-cycle at p = 3, whose
    # eight linear simples need GF(9); a p-group past the search bound
    "analyze C3xC3 p2": ("analyze", "C3xC3", 2),
    "analyze C8 p3": ("analyze", "C8", 3),
    "analyze C289 p17": ("analyze", "C289", 17),
    # fifteen linear simples over GF(16); twenty-five linear simples of a
    # two-generator abelian group over GF(81)
    "analyze C15 p2": ("analyze", "C15", 2),
    "analyze C5xC5 p3": ("analyze", "C5xC5", 3),
    # non-abelian groups over GF(729), whose simples are found by chopping
    # and so factor characteristic polynomials over a Zech-logarithm field
    "analyze D14 p3": ("analyze", "D14", 3),
    "analyze A4xC7 p3": ("analyze", "A4xC7", 3),
    # defects C2 and D8xC2: a lookup that lands on a bundled row of order 16
    "analyze S4xC2 p2": ("analyze", "S4xC2", 2),
    # chops where f(z) has a kernel larger than deg f at seed 1, so a
    # change to how chop handles such a factor shows here
    "analyze A6 p2": ("analyze", "A6", 2),
    "analyze S6 p3": ("analyze", "S6", 3),
    # conductor 60: sixty linear simples, whose characters, Phi and
    # Cartan matrix take the most cyclotomic arithmetic of any op here
    "analyze C60 p7": ("analyze", "C60", 7),
    "lattice p2 max8": ("lattice", 2, 8),
    "lattice p3": ("lattice", 3, None),
    "lattice p5": ("lattice", 5, None),
    "lattice p7": ("lattice", 7, None),
    # the groups of order p^3 at primes with no bundled rows
    "lattice p5 max125": ("lattice", 5, 125),
    "lattice p7 max343": ("lattice", 7, 343),
    "verify p2,3": ("verify", (2, 3)),
    "verify p5": ("verify", (5,)),
    "verify p7": ("verify", (7,)),
}

CROSS_SEED_OPS = ("analyze S4 p2", "analyze A4 p3", "analyze D10 p5",
                  "analyze S5 p2", "verify p2,3")


def report_digest(op_id, seed):
    kind, *args = OPS[op_id]
    if kind == "lattice":
        report = lattice_report(*args)
    elif kind == "verify":
        report = run_verify(primes=args[0], seed=seed)
    else:
        report = analyze_report(args[0], args[1], seed=seed)
    report = json.loads(to_canonical_json(report))
    report.pop("seed", None)
    if kind == "verify":
        for crit in report["criteria"]:
            for check in crit["checks"]:
                if check["name"].endswith(" same seed"):
                    del check["detail"]
    return hashlib.sha256(to_canonical_json(report)).hexdigest()


def demo_digest(name):
    """sha256 of the stdout of demos/name, run in a fresh interpreter on
    the repring package under test, with this one's -O level."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repring.__file__)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    out = subprocess.run(
        [sys.executable] + ["-O"] * sys.flags.optimize
        + [os.path.join(DEMOS, name)],
        env=env, stdout=subprocess.PIPE, check=True).stdout
    return hashlib.sha256(out).hexdigest()


def _golden(path=GOLDEN):
    with open(path, encoding="ascii") as fh:
        return json.load(fh)


def _write(path, digests):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def test_golden_covers_every_op():
    assert sorted(_golden()) == sorted(OPS)


def test_golden_covers_every_demo():
    assert sorted(_golden(GOLDEN_DEMOS)) == DEMO_NAMES


@pytest.mark.parametrize("op_id", sorted(OPS))
def test_golden_report_seed_1(op_id):
    assert report_digest(op_id, 1) == _golden()[op_id]


@pytest.mark.parametrize("op_id", CROSS_SEED_OPS)
def test_golden_report_seed_7(op_id):
    assert report_digest(op_id, 7) == _golden()[op_id]


@pytest.mark.parametrize("name", DEMO_NAMES)
def test_golden_demo_stdout(name):
    assert demo_digest(name) == _golden(GOLDEN_DEMOS)[name]


if __name__ == "__main__":
    _write(GOLDEN, {op_id: report_digest(op_id, 1) for op_id in sorted(OPS)})
    _write(GOLDEN_DEMOS, {name: demo_digest(name) for name in DEMO_NAMES})
    sys.exit(0)
