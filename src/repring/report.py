"""Schema-versioned JSON reports for the analyze and lattice commands.

Reports contain only exact data: field elements as integer codes,
cyclotomic numbers as rational coefficient vectors, never decimals.
Serialization is canonical (sorted keys, no whitespace), so two runs
with the same seed produce byte-identical output.
"""

import json

from .brauer import BrauerData
from .catalog import build_catalog, enumerate_closed_sets, is_completely_prime
from .cyclo import value_json
from .defects import (
    cartan_image_basis,
    defect_classification,
    filtration_table,
    gamma_exact,
    genk_basis,
    u_element,
)
from .errors import InvalidPrime
from .gf import _is_prime
from .groups import PermGroup, parse_group_spec
from .linalg import int_mat_rank_mod_p

SCHEMA_VERSION = 1


def to_canonical_json(report) -> bytes:
    return json.dumps(report, sort_keys=True,
                      separators=(",", ":")).encode("ascii")


def require_prime(p):
    """p itself, or InvalidPrime when p is not a prime number or is too
    large for gf._is_prime to decide (gf.PRIME_TEST_BOUND or above)."""
    if not _is_prime(p):
        raise InvalidPrime(f"p = {p} is not prime")
    return p


def _cyc_row(m, counts_row, den=1):
    return [value_json(m, v, den) for v in counts_row]


def analyze_report(spec, p: int, max_p_order=None, seed=None) -> dict:
    """Full evaluation of one group at one prime as a plain dict;
    max_p_order None means the default catalog, as in build_catalog."""
    require_prime(p)
    G = spec if isinstance(spec, PermGroup) else parse_group_spec(spec)
    spec_str = spec if isinstance(spec, str) else G.describe()

    bd = BrauerData(G, p, seed)
    catalog = build_catalog(p, max_p_order)
    a = defect_classification(bd, catalog)

    orders = G.class_orders()
    classes = []
    for row in a.rows:
        classes.append({
            "index": row.class_index,
            "position": row.position,
            "representative": [i + 1 for i in row.rep],
            "element_order": orders[row.class_index],
            "size": bd.class_sizes[row.position],
            "centralizer_order": G.order // bd.class_sizes[row.position],
            "defect": catalog.label(row.catalog_index),
            "defect_order": row.sylow.order,
            "defect_zero": row.defect_zero,
        })

    gammas = cartan_image_basis(bd)
    zero_rows = a.defect_zero_rows()
    gamma_json = [{
        "class_index": r.class_index,
        "coeffs": list(g.coeffs),
        "exact": _cyc_row(bd.m, *gamma_exact(bd, r.rep)),
    } for r, g in zip(zero_rows, gammas)]

    u_json = [{
        "class_index": r.class_index,
        "coeffs": list(u_element(a, r.rep).coeffs),
    } for r in a.rows]

    filtration = list(filtration_table(a))
    genk_dims = {}
    sp_dims = {}
    for j, (below, total) in enumerate(zip([0] + filtration, filtration)):
        label = catalog.label(j)
        genk_dims[label] = len(genk_basis(a, j))
        sp_dims[label] = total - below

    F = bd.F
    return {
        "schema": SCHEMA_VERSION,
        "kind": "analyze",
        "seed": bd.seed,
        "group": {
            "spec": spec_str,
            "name": G.describe(),
            "order": G.order,
            "degree": G.degree,
        },
        "p": p,
        "field": {
            "p": F.p,
            "d": F.d,
            "q": F.q,
            "modulus": list(F.modulus),
            "primitive": F.primitive,
        },
        "conductor": bd.m,
        "classes": classes,
        "simple_dimensions": [s.dim for s in bd.simples],
        "phi": [_cyc_row(bd.m, row) for row in bd.phi_counts],
        "Phi": [_cyc_row(bd.m, row) for row in bd.Phi_counts],
        "cartan": [list(row) for row in bd.cartan],
        "elementary_divisors": list(bd.elementary_divisors()),
        "cartan_rank_mod_p": int_mat_rank_mod_p(
            [list(r) for r in bd.cartan], p),
        "gamma": gamma_json,
        "u": u_json,
        "catalog": {
            "p": p,
            "max_order": catalog.max_order,
            "labels": list(catalog.labels),
        },
        "genk_dims": genk_dims,
        "sp_dims": sp_dims,
        "filtration": filtration,
    }


def lattice_report(p: int, max_order=None) -> dict:
    """The truncated p-group poset and its lattice of closed sets;
    max_order None means the default catalog, as in build_catalog."""
    require_prime(p)
    catalog = build_catalog(p, max_order)
    closed = enumerate_closed_sets(catalog)

    sets_json = []
    for C in closed:
        # in a lattice of down-sets, principal is join irreducible
        principal = is_completely_prime(C)
        sets_json.append({
            "members": C.sorted_members(),
            "labels": C.labels(),
            "join_irreducible": principal,
            "completely_prime": principal,
        })

    principal = [{
        "top": catalog.label(j),
        "members": catalog.down_set(j).labels(),
    } for j in range(len(catalog))]

    return {
        "schema": SCHEMA_VERSION,
        "kind": "lattice",
        "p": p,
        "max_order": catalog.max_order,
        "entries": [{
            "index": j,
            "label": catalog.label(j),
            "order": catalog.entries[j].order,
        } for j in range(len(catalog))],
        "embedding": [[1 if catalog.embed[i][j] else 0
                       for j in range(len(catalog))]
                      for i in range(len(catalog))],
        "closed_sets": sets_json,
        "closed_set_count": len(closed),
        "principal_down_sets": principal,
    }
