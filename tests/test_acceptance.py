"""Acceptance gate: the twelve verification criteria, one test each.

Every test prints a single pass/fail line and asserts the structured
result of the matching suite in repring.verify, run over the default
corpus at primes 2 and 3 with a pinned seed.  All comparisons are
exact; there are no tolerances anywhere.
"""

import pytest

from repring import verify as V
from repring.defects import rk_basis_element
from repring.errors import InvariantViolated
from repring.groups import parse_group_spec
from repring.linalg import Echelon

from test_defects import give_row_the_u_of

SEED = 1
PRIMES = (2, 3)

CRITERIA = ("simple-count", "cartan-divisors", "cartan-rank", "gamma-basis",
            "genk-basis", "sp-dimension", "pgroup-indicator",
            "closed-set-lattice", "ideal-property", "product-factorization",
            "cartan-cross-oracle", "determinism")


@pytest.fixture(scope="module")
def contexts():
    return [(spec, V._analysis(parse_group_spec(spec), p, SEED))
            for spec in V.DEFAULT_CORPUS for p in PRIMES]


def _gate(criterion, contexts=()):
    d = V.run_suite(criterion, contexts, PRIMES, SEED).as_dict()
    status = "PASS" if d["pass"] else "FAIL"
    print(f"criterion {d['criterion']:>2} {d['name']}: {status} "
          f"({len(d['checks'])} checks)")
    failures = [c for c in d["checks"] if not c["pass"]]
    assert not failures, failures


def test_criterion_01_simple_count(contexts):
    _gate(1, contexts)


def test_criterion_02_cartan_divisors(contexts):
    _gate(2, contexts)


def test_criterion_03_cartan_rank(contexts):
    _gate(3, contexts)


def test_criterion_04_gamma_basis(contexts):
    _gate(4, contexts)


def test_criterion_05_genk_basis(contexts):
    _gate(5, contexts)


def test_dependent_genk_basis_fails_the_genk_suite(monkeypatch):
    """genk_basis raises on a dependent basis; the suite reports that
    as its one failed check."""
    a = V._analysis(parse_group_spec("S4"), 2, SEED)
    ident_row, three_cycles = a.rows  # defects D8 and 1
    give_row_the_u_of(monkeypatch, ident_row, three_cycles)
    d = V.run_suite(5, [("S4", a)], PRIMES, SEED).as_dict()
    assert d["pass"] is False
    [check] = d["checks"]
    assert check["name"] == "no exception"
    assert check["detail"].startswith("InvariantViolated: U elements under")


def test_criterion_06_sp_dimension(contexts):
    _gate(6, contexts)


def test_criterion_07_pgroup_indicator():
    _gate(7)


def test_criterion_08_closed_set_lattice():
    _gate(8)


def test_criterion_09_ideal_property(contexts):
    _gate(9, contexts)


def ideal_escapes_per_entry(contexts):
    """Reference for the ideal-property suite: every catalog entry's
    genk basis is checked on its own, every product formed anew."""
    out = {}
    for spec, a in contexts:
        bad = 0
        for j in range(len(a.catalog)):
            basis = V.genk_basis(a, j)
            if not basis:
                continue
            ech = Echelon(a.bd.F)
            for u in basis:
                ech.add(u.coeffs)
            for si in range(len(a.bd.simples)):
                e = rk_basis_element(a.bd, si)
                for u in basis:
                    if any(ech.reduce(V.rk_multiply(e, u).coeffs)):
                        bad += 1
        out[f"{spec} p={a.p} escapes"] = bad
    return out


def test_ideal_property_counts_shared_bases_per_entry(contexts, monkeypatch):
    """Entries that share a basis which is not an ideal each count its
    escapes, as the per-entry loop does; each product is formed once."""
    real = V.genk_basis

    def genk_basis(a, j):
        if j % 2 and len(a.bd.simples) > 1:
            return (rk_basis_element(a.bd, 1),)
        return real(a, j)

    monkeypatch.setattr(V, "genk_basis", genk_basis)
    want = ideal_escapes_per_entry(contexts)
    products = []
    real_multiply = V.rk_multiply

    def rk_multiply(e, u):
        products.append((id(e.bd), e.coeffs, u.coeffs))
        return real_multiply(e, u)

    monkeypatch.setattr(V, "rk_multiply", rk_multiply)
    d = V.run_suite(9, contexts, PRIMES, SEED).as_dict()
    got = {c["name"]: c["detail"] for c in d["checks"]}
    assert got == {name: f"got {bad!r}, want 0" for name, bad in want.items()}
    assert sum(want.values()) > 0
    assert not d["pass"]
    assert len(products) == len(set(products))


def test_criterion_10_product_factorization():
    _gate(10)


def test_criterion_11_cartan_cross_oracle(contexts):
    _gate(11, contexts)


def test_criterion_12_determinism():
    _gate(12)


def test_full_run_reports_all_pass():
    out = V.run_verify(seed=SEED)
    assert out["all_pass"] is True
    assert [c["criterion"] for c in out["criteria"]] == list(range(1, 13))


def test_raising_suite_is_one_failed_check(monkeypatch, tmp_path):
    def suite_cartan_rank(s, contexts, primes, seed):
        s.check("recorded before the raise", True)
        raise InvariantViolated("defects", "tampered")

    monkeypatch.setattr(V, "suite_cartan_rank", suite_cartan_rank)
    corpus = tmp_path / "corpus.json"
    corpus.write_text('["C2"]')
    out = V.run_verify(corpus=str(corpus), primes=[2], seed=SEED)
    assert [(c["criterion"], c["name"]) for c in out["criteria"]] == \
        list(enumerate(CRITERIA, 1))
    assert out["criteria"][2] == {
        "criterion": 3,
        "name": "cartan-rank",
        "pass": False,
        "checks": [{"name": "no exception", "pass": False,
                    "detail": "InvariantViolated: tampered"}],
    }
    assert out["all_pass"] is False
    assert all(c["pass"] for c in out["criteria"] if c["criterion"] != 3)


def test_each_corpus_spec_is_parsed_once_for_its_primes(monkeypatch):
    seen = []
    real = V._analysis

    def recorded(G, p, seed):
        seen.append(G)
        return real(G, p, seed)

    monkeypatch.setattr(V, "_analysis", recorded)
    assert V.run_verify(primes=PRIMES, seed=SEED)["all_pass"] is True
    assert len(seen) == len(V.DEFAULT_CORPUS) * len(PRIMES)
    assert len({id(G) for G in seen}) == len(V.DEFAULT_CORPUS)


def test_cartan_divisor_spots_reuse_the_contexts(contexts, monkeypatch):
    def no_build(*args):
        raise AssertionError("BrauerData built")

    monkeypatch.setattr(V, "BrauerData", no_build)
    _gate(2, contexts)
