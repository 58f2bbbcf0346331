"""Random groups on at most 5 points at p = 2, 3, 5: the report either
raises a typed error or satisfies the laws the theory promises."""

import json

from hypothesis import given, settings, strategies as st

from repring.errors import InvariantViolated, RepringError
from repring.groups import PermGroup, p_part
from repring.report import analyze_report, to_canonical_json


@st.composite
def groups_on_five_points(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    gens = draw(st.lists(st.permutations(range(n)), max_size=3))
    return PermGroup(n, [tuple(g) for g in gens])


@settings(max_examples=30, deadline=None)
@given(groups_on_five_points(), st.sampled_from((2, 3, 5)))
def test_report_laws_or_typed_error(G, p):
    try:
        first = to_canonical_json(analyze_report(G, p, seed=1))
        second = to_canonical_json(analyze_report(G, p, seed=1))
    except RepringError as exc:
        # out-of-range input may be refused; a failed cross-check may not
        assert not isinstance(exc, InvariantViolated), exc
        return
    assert first == second
    r = json.loads(first)
    dims, cartan = r["simple_dimensions"], r["cartan"]
    n = len(dims)
    # dim P_S = sum_T c_(S,T) dim T, and sum_S dim S dim P_S = |G|
    proj = [sum(cartan[s][t] * dims[t] for t in range(n)) for s in range(n)]
    assert sum(d * pd for d, pd in zip(dims, proj)) == G.order
    assert all(cartan[s][t] == cartan[t][s]
               for s in range(n) for t in range(n))
    assert sorted(r["elementary_divisors"]) == sorted(
        p_part(c["centralizer_order"], p) for c in r["classes"])
