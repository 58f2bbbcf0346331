"""Random groups on at most 5 points at the primes up to 13: the report
either raises a typed error or satisfies the laws the theory promises,
with the same content at two seeds; a malformed group spec is one JSON
error on stderr, exit 2."""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from repring import errors
from repring.cli import main
from repring.errors import InvariantViolated, RepringError
from repring.groups import PermGroup, p_part
from repring.report import analyze_report, to_canonical_json

PRIMES = (2, 3, 5, 7, 11, 13)


@st.composite
def groups_on_five_points(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    gens = draw(st.lists(st.permutations(range(n)), max_size=3))
    return PermGroup(n, [tuple(g) for g in gens])


def without_seed(report):
    return to_canonical_json({k: v for k, v in report.items() if k != "seed"})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(groups_on_five_points(), st.sampled_from(PRIMES))
def test_report_laws_or_typed_error(G, p):
    try:
        first = analyze_report(G, p, seed=1)
        other = analyze_report(G, p, seed=7)
    except RepringError as exc:
        # out-of-range input may be refused; a failed cross-check may not
        assert not isinstance(exc, InvariantViolated), exc
        return
    assert without_seed(first) == without_seed(other)
    r = json.loads(to_canonical_json(first))
    dims, cartan = r["simple_dimensions"], r["cartan"]
    n = len(dims)
    # dim P_S = sum_T c_(S,T) dim T, and sum_S dim S dim P_S = |G|
    proj = [sum(cartan[s][t] * dims[t] for t in range(n)) for s in range(n)]
    assert sum(d * pd for d, pd in zip(dims, proj)) == G.order
    assert all(cartan[s][t] == cartan[t][s]
               for s in range(n) for t in range(n))
    assert sorted(r["elementary_divisors"]) == sorted(
        p_part(c["centralizer_order"], p) for c in r["classes"])


BAD_VALUES = st.sampled_from([0, -1, 2.5, True, "3", None, [1], {}])


@st.composite
def malformed_specs(draw):
    """A valid spec of degree at most 4 with one fault put in."""
    n = draw(st.integers(min_value=1, max_value=4))
    gens = draw(st.lists(st.permutations(range(1, n + 1)), min_size=1,
                         max_size=2))
    spec = {"degree": n, "generators": [list(g) for g in gens]}
    g = spec["generators"][0]
    fault = draw(st.sampled_from([
        "no degree", "no generators", "degree", "generators", "image",
        "zero image", "long generator", "name"]))
    if fault == "no degree":
        del spec["degree"]
    elif fault == "no generators":
        del spec["generators"]
    elif fault == "degree":
        spec["degree"] = draw(BAD_VALUES)
    elif fault == "generators":
        spec["generators"] = draw(st.sampled_from([5, None, [5], "12"]))
    elif fault == "image":
        g[draw(st.integers(0, n - 1))] = draw(
            BAD_VALUES.filter(lambda v: not isinstance(v, int) or v is True))
    elif fault == "zero image":
        g[draw(st.integers(0, n - 1))] = 0
    elif fault == "long generator":
        g.append(n + 1)
    else:
        spec["name"] = draw(BAD_VALUES.filter(
            lambda v: v is not None and not isinstance(v, str)))
    return spec


@settings(max_examples=40, deadline=None, derandomize=True)
@given(malformed_specs(), st.sampled_from(PRIMES))
def test_malformed_spec_is_one_json_error(spec, p):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", json.dumps(spec), "--p", str(p)])
    assert code == 2 and out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["module"] == "groups"
    assert issubclass(getattr(errors, error["type"]), RepringError)
