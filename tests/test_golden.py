"""Golden reports: the content of every canonical report is pinned.

tests/golden/reports.json maps an op id to the sha256 of the canonical
report that op prints, with its "seed" key removed; the exactness
contract makes that digest the same at every seed.  A change that is
meant to alter a report regenerates the file with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import hashlib
import json
import os
import sys

import pytest

from repring.report import analyze_report, lattice_report, to_canonical_json

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden", "reports.json")

OPS = {
    **{f"analyze {g} p2": ("analyze", g, 2)
       for g in ("S4", "A4", "D8", "Q8", "C2xC2", "S3xC2", "A5")},
    **{f"analyze {g} p3": ("analyze", g, 3)
       for g in ("S4", "A4", "S3xC2", "C3xC3", "A5")},
    **{f"analyze {g} p5": ("analyze", g, 5) for g in ("C5", "D10", "A5")},
    "lattice p2 max8": ("lattice", 2, 8),
    "lattice p3": ("lattice", 3, None),
    "lattice p5": ("lattice", 5, None),
}

CROSS_SEED_OPS = ("analyze S4 p2", "analyze A4 p3", "analyze D10 p5")


def report_digest(op_id, seed):
    kind, *args = OPS[op_id]
    if kind == "lattice":
        report = lattice_report(*args)
    else:
        report = analyze_report(args[0], args[1], seed=seed)
    report = json.loads(to_canonical_json(report))
    report.pop("seed", None)
    return hashlib.sha256(to_canonical_json(report)).hexdigest()


def _golden():
    with open(GOLDEN, encoding="ascii") as fh:
        return json.load(fh)


def test_golden_covers_every_op():
    assert sorted(_golden()) == sorted(OPS)


@pytest.mark.parametrize("op_id", sorted(OPS))
def test_golden_report_seed_1(op_id):
    assert report_digest(op_id, 1) == _golden()[op_id]


@pytest.mark.parametrize("op_id", CROSS_SEED_OPS)
def test_golden_report_seed_7(op_id):
    assert report_digest(op_id, 7) == _golden()[op_id]


if __name__ == "__main__":
    digests = {op_id: report_digest(op_id, 1) for op_id in sorted(OPS)}
    with open(GOLDEN, "w", encoding="ascii") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.exit(0)
