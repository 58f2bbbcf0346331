"""Command line behavior: report content, determinism, error paths."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from repring.cli import main
from repring.cyclo import Cyc
from repring.report import analyze_report, to_canonical_json
from repring.verify import DEFAULT_CORPUS, load_corpus


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
    phi = [[Cyc.from_json(v) for v in row] for row in r["phi"]]
    one = Cyc.from_rational(1)
    assert all(v == one for v in phi[0])  # trivial character row
    # the two nontrivial linear rows carry primitive cube roots of unity
    z = Cyc.zeta(3)
    got = sorted([phi[1][1], phi[2][1]], key=Cyc.key)
    want = sorted([z, z * z], key=Cyc.key)
    assert got == want


def test_analyze_gamma_matches_library(capsys):
    r = analyze_json(capsys, "analyze", "S3", "--p", "2", "--seed", "1")
    assert len(r["gamma"]) == 1
    exact = [Cyc.from_json(v) for v in r["gamma"][0]["exact"]]
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


def test_json_flag_writes_stdout_bytes(capsys, tmp_path):
    path = tmp_path / "report.json"
    _, out, _ = run_cli(capsys, "analyze", "C6", "--p", "2",
                        "--seed", "1", "--json", str(path))
    assert path.read_text() == out


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("REPRING_SEED", "31")
    r = analyze_json(capsys, "analyze", "C2", "--p", "2")
    assert r["seed"] == 31
    # explicit flag beats the environment
    r = analyze_json(capsys, "analyze", "C2", "--p", "2", "--seed", "4")
    assert r["seed"] == 4


# -- lattice ------------------------------------------------------------

@pytest.mark.parametrize("p,mo,entries,closed", [
    (2, 4, 4, 6),
    (3, 3, 2, 3),
    (2, 1, 1, 2),
    (3, 9, 4, 6),
])
def test_lattice_counts(capsys, p, mo, entries, closed):
    code, out, _ = run_cli(capsys, "lattice", "--p", str(p),
                           "--max-order", str(mo))
    assert code == 0
    r = json.loads(out)
    assert len(r["entries"]) == entries
    assert r["closed_set_count"] == closed


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


# -- verify -------------------------------------------------------------

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
    code, _, err = run_cli(capsys, "verify", "--p", "2,zebra")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "CorpusUnreadable"


# -- error surface ------------------------------------------------------

@pytest.mark.parametrize("argv, err_type", [
    (("analyze", "S4", "--p", "0"), "InvalidPrime"),
    (("analyze", "S4", "--p", "1"), "InvalidPrime"),
    (("analyze", "S4", "--p", "4"), "InvalidPrime"),
    (("verify", "--p", "4"), "InvalidPrime"),
    (("verify", "--p", "2,9"), "InvalidPrime"),
    (("lattice", "--p", "4"), "InvalidPrime"),
    (("analyze", "C0", "--p", "2"), "InvalidGroupSpec"),
])
def test_bad_input_is_one_json_error(capsys, argv, err_type):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"]["type"] == err_type


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
