"""Cross-cutting verification suites over a corpus of small groups.

Each suite checks one global law of the theory with exact arithmetic
and reports structured pass/fail results; `run_verify` bundles them
into a machine-readable summary.  A failed check never raises out of
the runner, so one broken law still leaves a complete report.
"""

import json
import os

from .brauer import brauer_data, cartan_via_endomorphisms
from .catalog import build_catalog, enumerate_closed_sets, is_completely_prime
from .config import default_seed
from .defects import (
    cartan_image_basis,
    defect_classification,
    genk_basis,
    product_group_check,
    rk_basis_element,
    rk_multiply,
    sp_dimension,
    u_element,
)
from .errors import CorpusUnreadable, RepringError
from .groups import cyclic_group, parse_group_spec, symmetric_group
from .linalg import Echelon, gf_rank, int_mat_rank_mod_p
from .report import analyze_report, to_canonical_json

DEFAULT_CORPUS = (
    "C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8",
    "S3", "S4", "A4", "D8", "Q8", "C2xC2", "C3xC3", "S3xC2",
)

DEFAULT_PRIMES = (2, 3)

# catalog truncation used by the p-group indicator suite
INDICATOR_MAX_ORDER = {2: 16, 3: 27}


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


class _Context:
    """Shared per (spec, p) data so suites do not recompute."""

    def __init__(self, spec, p, seed):
        self.spec = spec
        self.p = p
        self.G = parse_group_spec(spec)
        self.bd = brauer_data(self.G, p, seed)
        self.catalog = build_catalog(p)
        self.report = defect_classification(self.G, p, self.catalog)
        self.n = len(self.bd.simples)

    def defect_zero_count(self):
        return len(self.report.defect_zero_rows())


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


def suite_simple_count(contexts, seed):
    """Number of simple modules equals number of p-regular classes."""
    s = _Suite(1, "simple-count")
    for ctx in contexts:
        s.expect(f"{ctx.spec} p={ctx.p}", ctx.n, len(ctx.bd.pregular))
    return s


def suite_cartan_divisors(contexts, seed):
    """Smith divisors of the Cartan matrix are the p-parts of the
    centralizer orders of p-regular classes."""
    s = _Suite(2, "cartan-divisors")
    for ctx in contexts:
        got = sorted(ctx.bd.elementary_divisors())
        want = sorted(ctx.bd.centralizer_p_parts())
        s.expect(f"{ctx.spec} p={ctx.p}", got, want)
    spots = [("S3", 2, [1, 2]), ("S3", 3, [1, 3]), ("S4", 2, [1, 8])]
    for spec, p, want in spots:
        bd = brauer_data(parse_group_spec(spec), p, seed)
        s.expect(f"spot {spec} p={p}", sorted(bd.elementary_divisors()), want)
    return s


def suite_cartan_rank(contexts, seed):
    """Rank of the Cartan matrix mod p counts defect-zero classes."""
    s = _Suite(3, "cartan-rank")
    for ctx in contexts:
        rank = int_mat_rank_mod_p([list(r) for r in ctx.bd.cartan], ctx.p)
        s.expect(f"{ctx.spec} p={ctx.p}", rank, ctx.defect_zero_count())
    return s


def suite_gamma_basis(contexts, seed):
    """gamma vectors are independent, span the reduced Cartan image,
    and satisfy the induced indicator identity (checked inside
    cartan_image_basis with exact arithmetic)."""
    s = _Suite(4, "gamma-basis")
    for ctx in contexts:
        gammas = cartan_image_basis(ctx.G, ctx.p, seed)
        rank = gf_rank(ctx.bd.F, [list(g.coeffs) for g in gammas])
        s.expect(f"{ctx.spec} p={ctx.p} count", len(gammas),
                 ctx.defect_zero_count())
        s.expect(f"{ctx.spec} p={ctx.p} rank", rank, len(gammas))
    return s


def suite_genk_basis(contexts, seed):
    """genk vectors are independent for every catalog entry, and the
    Sylow entry saturates: its span is all of kR_k(G)."""
    s = _Suite(5, "genk-basis")
    for ctx in contexts:
        F = ctx.bd.F
        for j in range(len(ctx.catalog)):
            basis = genk_basis(ctx.G, ctx.p, j, ctx.report, seed)
            rank = gf_rank(F, [list(u.coeffs) for u in basis])
            if rank != len(basis):
                s.check(f"{ctx.spec} p={ctx.p} {ctx.catalog.label(j)}",
                        False, f"rank {rank} of {len(basis)} vectors")
        sylow_idx = ctx.catalog.index_of_isomorphic(
            ctx.G.sylow_subgroup(ctx.p))
        full = genk_basis(ctx.G, ctx.p, sylow_idx, ctx.report, seed)
        rank = gf_rank(F, [list(u.coeffs) for u in full])
        s.expect(f"{ctx.spec} p={ctx.p} saturation", (len(full), rank),
                 (ctx.n, ctx.n))
    return s


def suite_sp_dimension(contexts, seed):
    """Class counting and rank difference give the same S_P dimension
    (asserted inside sp_dimension), and the dimensions sum to the
    dimension of kR_k(G)."""
    s = _Suite(6, "sp-dimension")
    for ctx in contexts:
        total = 0
        for j in range(len(ctx.catalog)):
            d = sp_dimension(ctx.G, ctx.p, j, ctx.report, seed)
            direct = sum(1 for r in ctx.report.rows if r.catalog_index == j)
            if d != direct:
                s.check(f"{ctx.spec} p={ctx.p} {ctx.catalog.label(j)}",
                        False, f"rank route {d}, class count {direct}")
            total += d
        s.expect(f"{ctx.spec} p={ctx.p} total", total, ctx.n)
    return s


def suite_pgroup_indicator(primes, seed):
    """S_P evaluated on a p-group Q is one dimensional when P is the
    isomorphism type of Q and zero otherwise."""
    s = _Suite(7, "pgroup-indicator")
    for p in primes:
        mo = INDICATOR_MAX_ORDER.get(p)
        if mo is None:
            continue
        cat = build_catalog(p, mo)
        for qi in range(len(cat)):
            Q = cat.group(qi)
            report = defect_classification(Q, p, cat)
            got = tuple(sp_dimension(Q, p, j, report, seed)
                        for j in range(len(cat)))
            want = tuple(1 if j == qi else 0 for j in range(len(cat)))
            s.expect(f"p={p} Q={cat.label(qi)}", got, want)
    return s


def suite_closed_set_lattice(primes, seed):
    """Closed sets are unions of principal down-sets, the order <= p*p
    poset has six closed sets, every nonempty closed set contains the
    trivial group, and principal down-sets are exactly the completely
    prime elements."""
    s = _Suite(8, "closed-set-lattice")
    for p in primes:
        small = build_catalog(p, p * p)
        s.expect(f"p={p} order<=p^2 count",
                 len(enumerate_closed_sets(small)), 6)
        for mo in (p * p, p ** 3):
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
    return s


def suite_ideal_property(contexts, seed):
    """Multiplying a genk basis vector by any simple class stays in the
    genk span: the span is an ideal of kR_k(G)."""
    s = _Suite(9, "ideal-property")
    for ctx in contexts:
        F = ctx.bd.F
        bad = 0
        for j in range(len(ctx.catalog)):
            basis = genk_basis(ctx.G, ctx.p, j, ctx.report, seed)
            if not basis:
                continue
            ech = Echelon(F)
            for u in basis:
                ech.add(u.coeffs)
            for si in range(ctx.n):
                e = rk_basis_element(ctx.bd, si)
                for u in basis:
                    if any(ech.reduce(rk_multiply(e, u).coeffs)):
                        bad += 1
        s.expect(f"{ctx.spec} p={ctx.p} escapes", bad, 0)
    return s


def suite_product_factorization(seed):
    """On L x Q with p coprime to |L| and Q a p-group, the dimensions
    factor through the class count of L: S_Q has dimension k(L) and
    every other S_P vanishes."""
    s = _Suite(10, "product-factorization")
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
    return s


def suite_cartan_cross_oracle(contexts, seed):
    """The pairing route and the endomorphism-algebra route produce
    the same Cartan matrix for every corpus group of order <= 24."""
    s = _Suite(11, "cartan-cross-oracle")
    for ctx in contexts:
        if ctx.G.order > 24:
            continue
        via_hom = [list(r) for r in cartan_via_endomorphisms(ctx.bd)]
        want = [list(r) for r in ctx.bd.cartan]
        s.expect(f"{ctx.spec} p={ctx.p}", via_hom, want)
    return s


def suite_determinism(primes, seed):
    """Identical seeds give byte-identical reports; different seeds
    give reports with identical mathematical content."""
    s = _Suite(12, "determinism")
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
    return s


def run_verify(corpus=None, primes=None, seed=None) -> dict:
    """All suites over a corpus; the result is JSON-serializable."""
    if seed is None:
        seed = default_seed()
    primes = tuple(primes) if primes else DEFAULT_PRIMES
    specs = load_corpus(corpus)

    contexts = [_Context(spec, p, seed) for spec in specs for p in primes]

    per_context = [
        suite_simple_count,
        suite_cartan_divisors,
        suite_cartan_rank,
        suite_gamma_basis,
        suite_genk_basis,
        suite_sp_dimension,
    ]
    suites = []
    for fn in per_context:
        suites.append(_guarded(fn, contexts, seed))
    suites.append(_guarded(suite_pgroup_indicator, primes, seed))
    suites.append(_guarded(suite_closed_set_lattice, primes, seed))
    suites.append(_guarded(suite_ideal_property, contexts, seed))
    suites.append(_guarded(suite_product_factorization, seed))
    suites.append(_guarded(suite_cartan_cross_oracle, contexts, seed))
    suites.append(_guarded(suite_determinism, primes, seed))

    results = [s.as_dict() for s in suites]
    return {
        "schema": 1,
        "kind": "verify",
        "seed": seed,
        "primes": list(primes),
        "corpus": specs,
        "criteria": results,
        "all_pass": all(r["pass"] for r in results),
    }


_CRITERION_OF = {
    "suite_simple_count": 1,
    "suite_cartan_divisors": 2,
    "suite_cartan_rank": 3,
    "suite_gamma_basis": 4,
    "suite_genk_basis": 5,
    "suite_sp_dimension": 6,
    "suite_pgroup_indicator": 7,
    "suite_closed_set_lattice": 8,
    "suite_ideal_property": 9,
    "suite_product_factorization": 10,
    "suite_cartan_cross_oracle": 11,
    "suite_determinism": 12,
}


def _guarded(fn, *args):
    """Run one suite; an exception becomes a failed check instead of
    aborting the whole verification run."""
    try:
        return fn(*args)
    except (RepringError, AssertionError, ArithmeticError) as exc:
        s = _Suite(_CRITERION_OF.get(fn.__name__, 0),
                   fn.__name__.replace("suite_", "").replace("_", "-"))
        s.check("no exception", False, f"{type(exc).__name__}: {exc}")
        return s
