"""Command line behavior: report content, determinism, error paths."""

import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from repring import catalog
from repring.brauer import BrauerData
from repring.cli import main
from repring.errors import InvalidPrime
from repring.report import analyze_report, to_canonical_json
from repring.verify import DEFAULT_CORPUS, load_corpus, run_verify
from cyclo_reference import RefCyc


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def analyze_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- analyze ------------------------------------------------------------

def test_analyze_s4_p2(capsys):
    r = analyze_json(capsys, "analyze", "S4", "--p", "2", "--seed", "1")
    assert r["schema"] == 1
    assert r["group"]["order"] == 24
    assert sorted(r["elementary_divisors"]) == [1, 8]
    nonzero = {k: v for k, v in r["sp_dims"].items() if v}
    assert nonzero == {"1": 1, "D8": 1}
    assert r["cartan_rank_mod_p"] == 1
    assert r["simple_dimensions"] == [1, 2]


def test_analyze_c3_p3(capsys):
    r = analyze_json(capsys, "analyze", "C3", "--p", "3", "--seed", "1")
    assert r["cartan"] == [[3]]
    assert {k: v for k, v in r["sp_dims"].items() if v} == {"C3": 1}
    assert r["filtration"][-1] == 1


# No bundled rows for p = 7; the catalog is 1, C7, C49, C7^2.  S3: 7 does
# not divide 6, so kS3 is semisimple (simples 1, 1, 2, Cartan = I) and all
# three classes have defect zero.  D14 = C7:C2: the simples are the two
# linear characters of C2, each PIM is uniserial of length 7 alternating
# the two, so Cartan [[4, 3], [3, 4]]; the identity has defect C7 and the
# reflections (centralizer of order 2) have defect zero.  PSL(2,7) on the
# 7 points of the Fano plane: the simples are Sym^0, 2, 4, 6 of the
# natural module (dims 1, 3, 5, 7); the Steinberg module is projective and
# the principal block has Brauer tree 1 - 5 - 3 - (exceptional, m = 2);
# only the identity has defect C7.
PSL27 = json.dumps({"degree": 7, "generators": [[2, 3, 4, 5, 6, 7, 1],
                                                [1, 2, 5, 4, 3, 7, 6]]})


@pytest.mark.parametrize("spec, dims, cartan, divisors, sp", [
    ("S3", [1, 1, 2], [[1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1],
     {"1": 3}),
    ("D14", [1, 1], [[4, 3], [3, 4]], [1, 7], {"1": 1, "C7": 1}),
    (PSL27, [1, 3, 5, 7],
     [[2, 0, 1, 0], [0, 3, 1, 0], [1, 1, 2, 0], [0, 0, 0, 1]], [1, 1, 1, 7],
     {"1": 3, "C7": 1}),
], ids=["S3", "D14", "PSL(2,7)"])
def test_analyze_prime_without_bundled_rows(capsys, spec, dims, cartan,
                                            divisors, sp):
    r = analyze_json(capsys, "analyze", spec, "--p", "7", "--seed", "1")
    assert r["simple_dimensions"] == dims
    assert r["cartan"] == cartan
    assert sorted(r["elementary_divisors"]) == divisors
    assert sorted(r["sp_dims"]) == ["1", "C49", "C7", "C7^2"]
    assert {k: v for k, v in r["sp_dims"].items() if v} == sp


@pytest.mark.parametrize("spec, defect", [("C17xC17", "C17^2"),
                                          ("C289", "C289")])
def test_analyze_order_p_squared_past_the_search_bound(capsys, spec, defect):
    """Groups of order 17^2 are past the bound of 256 on the embedding
    search that tests/group_reference.py keeps, but each has a
    fingerprint no other catalog entry shares, so the package needs no
    search."""
    r = analyze_json(capsys, "analyze", spec, "--p", "17")
    assert r["catalog"]["labels"] == ["1", "C17", "C289", "C17^2"]
    assert [c["defect"] for c in r["classes"]] == [defect]
    assert {k: v for k, v in r["sp_dims"].items() if v} == {defect: 1}


def test_analyze_trivial_group(capsys):
    r = analyze_json(capsys, "analyze", "C1", "--p", "2", "--seed", "1")
    assert r["cartan"] == [[1]]
    assert {k: v for k, v in r["sp_dims"].items() if v} == {"1": 1}
    assert r["elementary_divisors"] == [1]


def test_analyze_classes_and_field(capsys):
    r = analyze_json(capsys, "analyze", "S3", "--p", "2", "--seed", "1")
    assert (r["field"]["p"], r["field"]["d"], r["field"]["q"]) == (2, 2, 4)
    assert len(r["field"]["modulus"]) == 3  # monic quadratic, low degree first
    assert r["conductor"] == 3
    assert [c["defect"] for c in r["classes"]] == ["C2", "1"]
    assert [c["defect_zero"] for c in r["classes"]] == [False, True]
    sizes = {c["element_order"]: c["size"] for c in r["classes"]}
    assert sizes == {1: 1, 3: 2}


def test_analyze_phi_values_round_trip(capsys):
    r = analyze_json(capsys, "analyze", "A4", "--p", "2", "--seed", "1")
    phi = [[RefCyc.from_json(v) for v in row] for row in r["phi"]]
    assert all(v == 1 for v in phi[0])  # trivial character row
    # the two nontrivial linear rows carry primitive cube roots of unity
    z, z2 = RefCyc.zeta(3), RefCyc.zeta(3, 2)
    assert [phi[1][1], phi[2][1]] in ([z, z2], [z2, z])


def test_analyze_gamma_matches_library(capsys):
    r = analyze_json(capsys, "analyze", "S3", "--p", "2", "--seed", "1")
    assert len(r["gamma"]) == 1
    exact = [RefCyc.from_json(v) for v in r["gamma"][0]["exact"]]
    assert [v.as_rational() for v in exact] == [Fraction(2, 3),
                                                Fraction(-1, 3)]
    # 2/3 and -1/3 reduce mod 2 to 0 and 1
    assert r["gamma"][0]["coeffs"] == [0, 1]


def test_report_schema_round_trips(capsys):
    r = analyze_json(capsys, "analyze", "S4", "--p", "3", "--seed", "1")
    again = json.loads(to_canonical_json(r).decode("ascii"))
    assert again == r


# -- determinism --------------------------------------------------------

def test_same_seed_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "S4", "--p", "2", "--seed", "5")
    _, out2, _ = run_cli(capsys, "analyze", "S4", "--p", "2", "--seed", "5")
    assert out1 == out2


def test_different_seed_same_content(capsys):
    a = analyze_json(capsys, "analyze", "S4", "--p", "2", "--seed", "1")
    b = analyze_json(capsys, "analyze", "S4", "--p", "2", "--seed", "9")
    assert a.pop("seed") != b.pop("seed")
    assert a == b


def test_same_seed_reruns_the_search(monkeypatch):
    built = []
    original = BrauerData.__init__

    def counted(self, G, p, seed=None):
        built.append((G.order, p, seed))
        original(self, G, p, seed)

    monkeypatch.setattr(BrauerData, "__init__", counted)
    a = to_canonical_json(analyze_report("S4", 2, seed=1))
    b = to_canonical_json(analyze_report("S4", 2, seed=1))
    assert a == b
    assert built.count((24, 2, 1)) == 2


def test_json_flag_writes_stdout_bytes(capsys, tmp_path):
    path = tmp_path / "report.json"
    _, out, _ = run_cli(capsys, "analyze", "C6", "--p", "2",
                        "--seed", "1", "--json", str(path))
    assert path.read_text() == out


def test_unwritable_json_path_is_one_json_error(capsys, tmp_path):
    path = tmp_path / "no_such_dir" / "report.json"
    code, out, err = run_cli(capsys, "analyze", "C2", "--p", "2",
                             "--json", str(path))
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert (error["module"], error["type"]) == ("cli", "OutputUnwritable")
    assert not path.exists()


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("REPRING_SEED", "31")
    r = analyze_json(capsys, "analyze", "C2", "--p", "2")
    assert r["seed"] == 31
    # explicit flag beats the environment
    r = analyze_json(capsys, "analyze", "C2", "--p", "2", "--seed", "4")
    assert r["seed"] == 4


def test_bad_env_seed_is_one_json_error(capsys, monkeypatch):
    monkeypatch.setenv("REPRING_SEED", "abc")
    code, out, err = run_cli(capsys, "analyze", "C2", "--p", "2")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert (error["module"], error["type"]) == ("config", "InvalidSeed")
    # an explicit seed does not read the environment
    assert analyze_json(capsys, "analyze", "C2", "--p", "2",
                        "--seed", "4")["seed"] == 4


# -- lattice ------------------------------------------------------------

@pytest.mark.parametrize("p,mo,entries,closed", [
    (2, 4, 4, 6),
    (3, 3, 2, 3),
    (2, 1, 1, 2),
    (3, 9, 4, 6),
    (5, 125, 9, 41),
    (7, 343, 9, 41),
])
def test_lattice_counts(capsys, p, mo, entries, closed):
    code, out, _ = run_cli(capsys, "lattice", "--p", str(p),
                           "--max-order", str(mo))
    assert code == 0
    r = json.loads(out)
    assert len(r["entries"]) == entries
    assert r["closed_set_count"] == closed


@pytest.mark.parametrize("mo", ["0", "-1"])
def test_lattice_below_order_1_is_the_empty_poset(capsys, mo):
    code, out, _ = run_cli(capsys, "lattice", "--p", "2", "--max-order", mo)
    assert code == 0
    r = json.loads(out)
    assert (r["entries"], r["embedding"], r["principal_down_sets"]) == ([], [], [])
    assert r["closed_set_count"] == 1
    assert r["closed_sets"][0]["members"] == []


def test_analyze_order_p_cubed_defect_past_the_default(capsys):
    """C5^3 is its own defect group, listed once --max-p-order reaches
    5^3 among the five groups of that order."""
    r = analyze_json(capsys, "analyze", "C5xC5xC5", "--p", "5",
                     "--max-p-order", "125")
    assert [c["defect"] for c in r["classes"]] == ["C5^3"]
    assert r["catalog"]["labels"][4:] == [
        "C125", "C25xC5", "C5^3", "He5", "C25:C5"]
    assert {k: v for k, v in r["sp_dims"].items() if v} == {"C5^3": 1}


@pytest.mark.parametrize("mo", ["0", "-1"])
def test_analyze_below_order_1_misses_every_defect_group(capsys, mo):
    code, out, err = run_cli(capsys, "analyze", "S3", "--p", "2",
                             "--max-p-order", mo)
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert (error["module"], error["type"]) == ("defects", "CatalogTooSmall")


def test_lattice_flags_mark_principal_sets(capsys):
    _, out, _ = run_cli(capsys, "lattice", "--p", "2", "--max-order", "4")
    r = json.loads(out)
    for s in r["closed_sets"]:
        assert s["join_irreducible"] == s["completely_prime"]
    principal = [s for s in r["closed_sets"] if s["completely_prime"]]
    assert len(principal) == len(r["entries"])
    assert len(r["principal_down_sets"]) == len(r["entries"])


def test_lattice_enumeration_bound(capsys):
    # 23 entries at order 16 exceed the closed-set enumeration bound
    code, out, err = run_cli(capsys, "lattice", "--p", "2",
                             "--max-order", "16")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "EnumerationBoundExceeded"
    assert json.loads(err)["error"]["module"] == "catalog"


def test_lattice_past_the_bundled_orders_is_one_json_error(capsys):
    # the 15 groups of order 81 are not bundled: no 41-set lattice without them
    code, out, err = run_cli(capsys, "lattice", "--p", "3",
                             "--max-order", "81")
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert (error["module"], error["type"]) == ("catalog", "DatasetMissing")


def test_missing_bundled_table_is_one_json_error(capsys, monkeypatch,
                                                 tmp_path):
    monkeypatch.setattr(catalog, "_BUNDLED_PATH",
                        str(tmp_path / "pgroups.json"))
    cached = (catalog._load_bundled, catalog._cached_catalog)
    for fn in cached:
        fn.cache_clear()
    try:
        code, out, err = run_cli(capsys, "lattice", "--p", "3")
    finally:
        # later tests load the bundled table again, from its own path
        for fn in cached:
            fn.cache_clear()
    assert (code, out) == (2, "")
    error = json.loads(err)["error"]
    assert (error["module"], error["type"]) == ("catalog", "DatasetMissing")


def test_splitting_field_past_the_bound_is_one_json_error(capsys):
    # 2 has order 36 mod 37: the splitting field would be GF(2^36)
    code, out, err = run_cli(capsys, "analyze", "C37", "--p", "2")
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    error = json.loads(err)["error"]
    assert (error["module"], error["type"]) == ("gf", "FieldTooLarge")


# -- verify -------------------------------------------------------------

@pytest.mark.parametrize("p", ["5", "7"])
def test_verify_prime_past_the_bundled_p_cubed(capsys, p):
    """The closed-set lattice suite keeps to the orders the catalog
    lists, so primes without bundled groups of order p^3 pass."""
    code, out, _ = run_cli(capsys, "verify", "--p", p)
    assert code == 0
    assert json.loads(out)["all_pass"] is True


def test_verify_repeated_prime_runs_once(capsys, tmp_path):
    code, once, _ = run_cli(capsys, "verify", "--p", "2", "--seed", "1")
    assert code == 0
    code, twice, _ = run_cli(capsys, "verify", "--p", "2,2", "--seed", "1")
    assert code == 0
    assert twice == once
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(["C2"]))
    code, out, _ = run_cli(capsys, "verify", "--corpus", str(path),
                           "--p", "3,2,3")
    assert json.loads(out)["primes"] == [3, 2]


def test_default_corpus_dedup():
    specs = load_corpus(None)
    assert specs == list(DEFAULT_CORPUS)
    assert len(set(specs)) == len(specs)
    for name in ("C6", "A4", "S3xC2", "C3xC3"):
        assert name in specs


def test_verify_small_corpus(capsys, tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(["C1", "S3"]))
    code, out, _ = run_cli(capsys, "verify", "--corpus", str(path),
                           "--p", "2", "--seed", "1")
    assert code == 0
    r = json.loads(out)
    assert r["all_pass"] is True
    assert r["corpus"] == ["C1", "S3"]
    assert [c["criterion"] for c in r["criteria"]] == list(range(1, 13))
    assert all(c["checks"] for c in r["criteria"])


def test_verify_corpus_object_entries(capsys, tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps([{"name": "klein", "spec": "C2xC2"}]))
    code, out, _ = run_cli(capsys, "verify", "--corpus", str(path),
                           "--p", "2", "--seed", "1")
    assert code == 0
    assert json.loads(out)["corpus"] == ["C2xC2"]


@pytest.mark.parametrize("content", [
    "not json at all",
    json.dumps([]),
    json.dumps([17]),
    json.dumps(["NOT_A_GROUP"]),
])
def test_verify_corpus_unreadable(capsys, tmp_path, content):
    path = tmp_path / "corpus.json"
    path.write_text(content)
    code, _, err = run_cli(capsys, "verify", "--corpus", str(path),
                           "--p", "2")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "CorpusUnreadable"


def test_verify_missing_corpus_file(capsys):
    code, _, err = run_cli(capsys, "verify", "--corpus", "/no/such/file")
    assert code == 2
    assert json.loads(err)["error"]["module"] == "cli"


def test_verify_bad_prime_list(capsys):
    """A prime list that holds no prime is a bad --p, as --p 2,9 is, not
    an unreadable corpus."""
    for raw in ("2,zebra", ","):
        code, out, err = run_cli(capsys, "verify", "--p", raw)
        assert code == 2 and out == ""
        assert json.loads(err)["error"]["type"] == "InvalidPrime"


# -- error surface ------------------------------------------------------

@pytest.mark.parametrize("argv, err_type", [
    (("analyze", "S4", "--p", "0"), "InvalidPrime"),
    (("analyze", "S4", "--p", "1"), "InvalidPrime"),
    (("analyze", "S4", "--p", "4"), "InvalidPrime"),
    (("verify", "--p", "4"), "InvalidPrime"),
    (("verify", "--p", "2,9"), "InvalidPrime"),
    (("lattice", "--p", "4"), "InvalidPrime"),
    (("analyze", "C0", "--p", "2"), "InvalidGroupSpec"),
    (("analyze", '{"degree": -1, "generators": []}', "--p", "2"),
     "InvalidGroupSpec"),
    (("analyze", '{"degree": 0, "generators": []}', "--p", "2"),
     "InvalidGroupSpec"),
    (("analyze", '{"degree": 2.5, "generators": []}', "--p", "2"),
     "InvalidGroupSpec"),
    (("analyze", '{"degree": true, "generators": []}', "--p", "2"),
     "InvalidGroupSpec"),
    (("analyze", '{"degree": 3, "generators": [[2.5, 3, 1]]}', "--p", "3"),
     "InvalidGroupSpec"),
    (("analyze", '{"degree": 3, "generators": [[true, 3, 2]]}', "--p", "3"),
     "InvalidGroupSpec"),
    (("analyze", '{"degree": 2, "generators": [[2, 1]], "name": [1]}',
      "--p", "2"), "InvalidGroupSpec"),
    (("analyze", '{"degree": 2, "generators": [[2, 1]], "name": 7}',
      "--p", "2"), "InvalidGroupSpec"),
    (("lattice", "--p", "3317044064679887385961981"), "InvalidPrime"),
    (("analyze", "S4", "--p", str(2 ** 89 - 1)), "InvalidPrime"),
    (("analyze", '{"degree":3,"generators":[[1,2,0]]}', "--p", "3"),
     "MalformedPermutation"),
])
def test_bad_input_is_one_json_error(capsys, argv, err_type):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"]["type"] == err_type
    if err_type == "MalformedPermutation":
        # the generator as written, 1-based, not as shifted internally
        assert "[1, 2, 0]" in json.loads(err)["error"]["message"]


@pytest.mark.parametrize("argv", [
    ("analyze", "S3"),
    ("analyze", "S3", "--p", "two"),
    ("analyze", "S3", "--p", "3", "--seed", "x"),
    ("verify", "--seed", "x"),
    ("lattice", "--p", "2", "--max-order", "x"),
    ("frobnicate",),
    (),
    ("verify", "--bogus"),
])
def test_usage_error_is_one_json_error(capsys, argv):
    """A command line that does not parse prints no usage text: exit 2,
    empty stdout and one JSON error line from module cli."""
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    parsed = json.loads(err)["error"]
    assert (parsed["type"], parsed["module"]) == ("InvalidArguments", "cli")


@pytest.mark.parametrize("argv", [("--help",), ("analyze", "--help")])
def test_help_still_prints_help(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    captured = capsys.readouterr()
    assert info.value.code == 0
    assert captured.out.startswith("usage: repring") and captured.err == ""


@pytest.mark.parametrize("name, shown", [
    ("null", "group of order 2 on 2 points"), ('"swap"', "swap")])
def test_group_name_string_or_null_is_reported(capsys, name, shown):
    spec = f'{{"degree": 2, "generators": [[2, 1]], "name": {name}}}'
    code, out, _ = run_cli(capsys, "analyze", spec, "--p", "2")
    assert code == 0
    assert json.loads(out)["group"]["name"] == shown


def test_unexpected_exception_is_one_json_error(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("repring.cli.analyze_report", broken)
    code, out, err = run_cli(capsys, "analyze", "S4", "--p", "2")
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"] == {
        "module": "cli", "type": "RuntimeError", "message": "boom"}


def test_unexpected_exception_names_innermost_module(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise KeyError("lost")

    monkeypatch.setattr("repring.brauer.simple_modules", broken)
    code, out, err = run_cli(capsys, "analyze", "S4", "--p", "2")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert (error["module"], error["type"]) == ("brauer", "KeyError")


def test_keyboard_interrupt_is_not_caught(monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("repring.cli.analyze_report", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["analyze", "S4", "--p", "2"])


def test_library_entry_points_reject_non_prime():
    with pytest.raises(InvalidPrime) as info:
        analyze_report("S4", 4)
    assert info.value.module == "report"
    with pytest.raises(InvalidPrime):
        run_verify(primes=[4])


def test_lattice_at_a_prime_near_1e18_is_quick(capsys):
    # the 6-set lattice of 1 < C_p < C_p^2; deciding p took minutes by
    # trial division
    start = time.perf_counter()
    r = analyze_json(capsys, "lattice", "--p", "1000000000000000003")
    assert time.perf_counter() - start < 1
    assert r["closed_set_count"] == 6


def test_unknown_group_spec(capsys):
    code, _, err = run_cli(capsys, "analyze", "ZZZ9", "--p", "2")
    assert code == 2
    parsed = json.loads(err)["error"]
    assert parsed["module"] == "groups"
    assert parsed["type"] == "InvalidGroupSpec"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "repring", "analyze", "C2", "--p", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["cartan"] == [[2]]


def test_library_report_matches_cli(capsys):
    r = analyze_json(capsys, "analyze", "D8", "--p", "2", "--seed", "1")
    assert r == analyze_report("D8", 2, seed=1)
