"""Cross-cutting verification suites over a corpus of small groups.

Each suite checks one global law of the theory with exact arithmetic
and reports structured pass/fail results; `run_verify` bundles them
into a machine-readable summary.  A failed check never raises out of
the runner, so one broken law still leaves a complete report.
"""

import json
import os

from .brauer import BrauerData, cartan_via_endomorphisms
from .catalog import (
    build_catalog,
    enumerate_closed_sets,
    is_completely_prime,
)
from .config import default_max_order, default_seed
from .defects import (
    cartan_image_basis,
    defect_classification,
    genk_basis,
    product_group_check,
    rk_basis_element,
    rk_multiply,
    sp_dimension,
)
from .errors import CorpusUnreadable, RepringError
from .groups import cyclic_group, parse_group_spec, symmetric_group
from .linalg import Echelon, gf_rank, int_mat_rank_mod_p
from .report import analyze_report, require_prime, to_canonical_json

DEFAULT_CORPUS = (
    "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8",
    "S3", "S4", "A4", "D8", "Q8", "C2xC2", "C3xC3", "S3xC2",
)

DEFAULT_PRIMES = (2, 3)


def load_corpus(arg=None):
    """Group specs from the default list or a JSON file.

    The file holds a list of spec strings, or objects with a "spec"
    key.  Anything unreadable or unparseable is a corpus error.
    """
    if arg is None or arg == "default":
        return list(DEFAULT_CORPUS)
    if not os.path.exists(arg):
        raise CorpusUnreadable(f"corpus {arg!r} is not a file or "
                               "the name of a bundled corpus")
    try:
        with open(arg, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CorpusUnreadable(f"cannot read corpus {arg!r}: {exc}") from None
    if not isinstance(data, list) or not data:
        raise CorpusUnreadable("corpus file must hold a nonempty list")
    specs = []
    for item in data:
        if isinstance(item, dict) and "spec" in item:
            item = item["spec"]
        if not isinstance(item, str):
            raise CorpusUnreadable(f"bad corpus entry {item!r}")
        try:
            parse_group_spec(item)
        except RepringError as exc:
            raise CorpusUnreadable(
                f"corpus entry {item!r} is not a group spec: {exc}") from None
        specs.append(item)
    return specs


def _analysis(G, p, seed):
    return defect_classification(BrauerData(G, p, seed), build_catalog(p))


class _Suite:
    def __init__(self, criterion, name):
        self.criterion = criterion
        self.name = name
        self.checks = []

    def check(self, name, ok, detail=""):
        self.checks.append({"name": name, "pass": bool(ok),
                            "detail": str(detail)})

    def expect(self, name, got, want):
        self.check(name, got == want, f"got {got!r}, want {want!r}")

    def as_dict(self):
        return {
            "criterion": self.criterion,
            "name": self.name,
            "pass": all(c["pass"] for c in self.checks),
            "checks": self.checks,
        }


# Every suite takes (s, contexts, primes, seed) and records its checks
# in s.  contexts holds one (spec, Analysis) pair per corpus group and
# prime.


def suite_simple_count(s, contexts, primes, seed):
    """Number of simple modules equals number of p-regular classes."""
    for spec, a in contexts:
        s.expect(f"{spec} p={a.p}", len(a.bd.simples), len(a.bd.pregular))


def suite_cartan_divisors(s, contexts, primes, seed):
    """Smith divisors of the Cartan matrix are the p-parts of the
    centralizer orders of p-regular classes."""
    for spec, a in contexts:
        got = sorted(a.bd.elementary_divisors())
        want = sorted(a.bd.centralizer_p_parts())
        s.expect(f"{spec} p={a.p}", got, want)
    # a spot that is also a context reuses the context's Brauer data
    known = {(spec, a.p): a.bd for spec, a in contexts}
    spots = [("S3", 2, [1, 2]), ("S3", 3, [1, 3]), ("S4", 2, [1, 8])]
    for spec, p, want in spots:
        bd = known.get((spec, p))
        if bd is None:
            bd = BrauerData(parse_group_spec(spec), p, seed)
        s.expect(f"spot {spec} p={p}", sorted(bd.elementary_divisors()), want)


def suite_cartan_rank(s, contexts, primes, seed):
    """Rank of the Cartan matrix mod p counts defect-zero classes."""
    for spec, a in contexts:
        rank = int_mat_rank_mod_p([list(r) for r in a.bd.cartan], a.p)
        s.expect(f"{spec} p={a.p}", rank, len(a.defect_zero_rows()))


def suite_gamma_basis(s, contexts, primes, seed):
    """gamma vectors are independent, span the reduced Cartan image,
    and satisfy the induced indicator identity (checked inside
    cartan_image_basis with exact arithmetic)."""
    for spec, a in contexts:
        gammas = cartan_image_basis(a.bd)
        rank = gf_rank(a.bd.F, [list(g.coeffs) for g in gammas])
        s.expect(f"{spec} p={a.p} count", len(gammas),
                 len(a.defect_zero_rows()))
        s.expect(f"{spec} p={a.p} rank", rank, len(gammas))


def suite_genk_basis(s, contexts, primes, seed):
    """genk vectors are independent for every catalog entry (the U of
    all rows are ranked once, and genk_basis raises InvariantViolated
    when they are dependent), and the Sylow entry saturates: its basis,
    ranked here afresh, spans all of kR_k(G)."""
    for spec, a in contexts:
        n = len(a.bd.simples)
        for j in range(len(a.catalog)):
            genk_basis(a, j)
        # the identity class has centralizer G, so its defect is the Sylow
        basis = genk_basis(a, a.rows[0].catalog_index)
        rank = gf_rank(a.bd.F, [list(u.coeffs) for u in basis])
        s.expect(f"{spec} p={a.p} saturation", (len(basis), rank), (n, n))


def suite_sp_dimension(s, contexts, primes, seed):
    """Class counting and rank difference give the same S_P dimension
    (checked inside sp_dimension), and the dimensions sum to the
    dimension of kR_k(G)."""
    for spec, a in contexts:
        total = sum(sp_dimension(a, j) for j in range(len(a.catalog)))
        s.expect(f"{spec} p={a.p} total", total, len(a.bd.simples))


def suite_pgroup_indicator(s, contexts, primes, seed):
    """S_P evaluated on a p-group Q is one dimensional when P is the
    isomorphism type of Q and zero otherwise.  It runs on the default
    catalog at the primes whose default catalog lists order p^3."""
    for p in primes:
        if default_max_order(p) < p ** 3:
            continue
        cat = build_catalog(p)
        for qi in range(len(cat)):
            a = defect_classification(BrauerData(cat.group(qi), p, seed), cat)
            got = tuple(sp_dimension(a, j) for j in range(len(cat)))
            want = tuple(1 if j == qi else 0 for j in range(len(cat)))
            s.expect(f"p={p} Q={cat.label(qi)}", got, want)


def suite_closed_set_lattice(s, contexts, primes, seed):
    """Closed sets are unions of principal down-sets, the order <= p*p
    poset has six closed sets, every nonempty closed set contains the
    trivial group, and principal down-sets are exactly the completely
    prime elements."""
    for p in primes:
        small = build_catalog(p, p * p)
        s.expect(f"p={p} order<=p^2 count",
                 len(enumerate_closed_sets(small)), 6)
        orders = [p * p]
        if default_max_order(p) >= p ** 3:  # the default lists order p^3
            orders.append(p ** 3)
        for mo in orders:
            cat = build_catalog(p, mo)
            sets = enumerate_closed_sets(cat)
            for C in sets:
                union = set()
                for j in C.members:
                    union |= cat.down_set(j).members
                if union != C.members:
                    s.check(f"p={p} mo={mo} union {sorted(C.members)}",
                            False, f"union of down-sets gives {sorted(union)}")
                if C.members and 0 not in C.members:
                    s.check(f"p={p} mo={mo} trivial in {sorted(C.members)}",
                            False, "nonempty closed set misses the trivial group")
                principal = any(cat.down_set(j).members == C.members
                                for j in range(len(cat)))
                if principal != is_completely_prime(C):
                    s.check(f"p={p} mo={mo} prime {sorted(C.members)}",
                            False, f"principal={principal}, "
                            f"completely_prime={is_completely_prime(C)}")
            s.check(f"p={p} mo={mo} lattice laws", True,
                    f"{len(sets)} closed sets checked")


def suite_ideal_property(s, contexts, primes, seed):
    """Multiplying a genk basis vector by any simple class stays in the
    genk span: the span is an ideal of kR_k(G).

    Many catalog entries share one genk basis, and many bases share U
    vectors, so each distinct basis is checked once (its escapes count
    once per entry that has it) and each product [S] U is formed once
    per context."""
    for spec, a in contexts:
        shared = {}  # basis coefficients -> [basis, entries that have it]
        for j in range(len(a.catalog)):
            basis = genk_basis(a, j)
            if basis:
                key = tuple(u.coeffs for u in basis)
                shared.setdefault(key, [basis, 0])[1] += 1
        products = {}  # (simple, U coefficients) -> coefficients of [S] U
        bad = 0
        for basis, count in shared.values():
            ech = Echelon(a.bd.F, (u.coeffs for u in basis))
            for si in range(len(a.bd.simples)):
                e = rk_basis_element(a.bd, si)
                for u in basis:
                    if (si, u.coeffs) not in products:
                        products[si, u.coeffs] = rk_multiply(e, u).coeffs
                    if any(ech.reduce(products[si, u.coeffs])):
                        bad += count
        s.expect(f"{spec} p={a.p} escapes", bad, 0)


def suite_product_factorization(s, contexts, primes, seed):
    """On L x Q with p coprime to |L| and Q a p-group, the dimensions
    factor through the class count of L: S_Q has dimension k(L) and
    every other S_P vanishes."""
    cases = [
        (cyclic_group(3), cyclic_group(2), 2),
        (cyclic_group(5), cyclic_group(2), 2),
        (symmetric_group(3), cyclic_group(5), 5),
        (cyclic_group(3), parse_group_spec("C2xC2"), 2),
    ]
    for L, Q, p in cases:
        out = product_group_check(L, Q, p, build_catalog(p), seed)
        s.check(f"{L.describe()} x {Q.describe()} p={p}", out["ok"],
                f"dim {out['dim_total']}, classes of L {out['classes_of_L']}")


def suite_cartan_cross_oracle(s, contexts, primes, seed):
    """The character route (the inverse of the Gram matrix of phi) and
    the endomorphism-algebra route produce the same Cartan matrix for
    every corpus group of order <= 24."""
    for spec, a in contexts:
        if a.G.order > 24:
            continue
        via_hom = [list(r) for r in cartan_via_endomorphisms(a.bd)]
        want = [list(r) for r in a.bd.cartan]
        s.expect(f"{spec} p={a.p}", via_hom, want)


def suite_determinism(s, contexts, primes, seed):
    """Identical seeds give byte-identical reports; different seeds
    give reports with identical mathematical content."""
    specs = [("S3", 2), ("S4", 2), ("C6", 3)]
    for spec, p in specs:
        if p not in primes:
            continue
        a = to_canonical_json(analyze_report(spec, p, seed=seed))
        b = to_canonical_json(analyze_report(spec, p, seed=seed))
        s.check(f"{spec} p={p} same seed", a == b,
                f"{len(a)} bytes" if a == b else "byte mismatch")
        other = analyze_report(spec, p, seed=seed + 1)
        base = json.loads(a.decode("ascii"))
        base.pop("seed")
        other = dict(other)
        other.pop("seed")
        s.check(f"{spec} p={p} cross seed", base == other,
                "content equal" if base == other else "content differs")


# Criterion k is SUITES[k - 1], named after its function.
SUITES = (
    suite_simple_count,
    suite_cartan_divisors,
    suite_cartan_rank,
    suite_gamma_basis,
    suite_genk_basis,
    suite_sp_dimension,
    suite_pgroup_indicator,
    suite_closed_set_lattice,
    suite_ideal_property,
    suite_product_factorization,
    suite_cartan_cross_oracle,
    suite_determinism,
)


def run_suite(criterion, contexts, primes, seed) -> _Suite:
    """Run one suite; an exception becomes its only, failed check
    instead of aborting the whole verification run."""
    name = SUITES[criterion - 1].__name__
    s = _Suite(criterion, name.replace("suite_", "").replace("_", "-"))
    try:
        # looked up by name, so a suite rebound on this module (patched
        # or traced) is the one that runs
        globals()[name](s, contexts, primes, seed)
    except (RepringError, AssertionError, ArithmeticError) as exc:
        s.checks = []
        s.check("no exception", False, f"{type(exc).__name__}: {exc}")
    return s


def run_verify(corpus=None, primes=None, seed=None) -> dict:
    """All suites over a corpus; the result is JSON-serializable."""
    if seed is None:
        seed = default_seed()
    # a repeated prime would run every check twice; keep first-seen order
    primes = tuple(dict.fromkeys(require_prime(p)
                                 for p in primes or DEFAULT_PRIMES))
    specs = load_corpus(corpus)

    # one group per spec, shared by its primes
    contexts = [(spec, _analysis(G, p, seed))
                for spec, G in zip(specs, map(parse_group_spec, specs))
                for p in primes]
    results = [run_suite(k, contexts, primes, seed).as_dict()
               for k in range(1, len(SUITES) + 1)]
    return {
        "schema": 1,
        "kind": "verify",
        "seed": seed,
        "primes": list(primes),
        "corpus": specs,
        "criteria": results,
        "all_pass": all(r["pass"] for r in results),
    }
