import json
from pathlib import Path

import pytest

from cycperm import autgroups, codes
from cycperm.cli import RunConfig, main
from cycperm.codes import code_to_spec, cyclic_code
from cycperm.algebra import make_field
from cycperm.verification import (
    SCOPES,
    VerificationRow,
    battery_csv,
    battery_summary,
    exit_status,
    run_battery,
)

GF2 = make_field(2)
GF3 = make_field(3)


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def write_spec(tmp_path, name: str, code, **extra) -> str:
    spec = code_to_spec(code)
    spec.update(extra)
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


# --- configuration -------------------------------------------------------------

def test_config_rejects_nonpositive_budgets():
    with pytest.raises(ValueError, match="node budget"):
        RunConfig(verb="analyze", budget_nodes=0)
    with pytest.raises(ValueError, match="distance budget"):
        RunConfig(verb="analyze", budget_dist=-5)


def test_config_json_omits_output_path():
    cfg = RunConfig(verb="enumerate", q=2, n=7, out="somewhere.json")
    js = cfg.to_json()
    assert "out" not in js
    assert js["q"] == 2 and js["seed"] == 0


def test_usage_errors_exit_1(capsys):
    assert run_cli(capsys, "enumerate", "--q", "2")[0] == 1
    assert run_cli(capsys, "nonsense")[0] == 1
    assert run_cli(capsys, "equiv", "--in", "only_one.json")[0] == 1
    assert run_cli(capsys, "analyze", "--q", "2", "--n", "7")[0] == 1
    status, _, err = run_cli(capsys, "analyze", "--q", "2", "--n", "7",
                             "--defining-set", "1,2,4", "--budget-nodes", "0")
    assert status == 1 and "positive" in err


# --- factor ---------------------------------------------------------------------

def test_factor_binary_length_7(capsys):
    status, out, _ = run_cli(capsys, "factor", "--q", "2", "--n", "7")
    assert status == 0
    report = json.loads(out)
    factors = {tuple(f["coset"]): tuple(f["polynomial"]) for f in report["factors"]}
    assert factors[(0,)] == (1, 1)
    assert factors[(1, 2, 4)] == (1, 1, 0, 1)
    assert factors[(3, 5, 6)] == (1, 0, 1, 1)


def test_factor_rejects_shared_factor(capsys):
    status, _, err = run_cli(capsys, "factor", "--q", "2", "--n", "8")
    assert status == 1 and "gcd" in err


@pytest.mark.parametrize("verb", [("factor",), ("enumerate",), ("analyze", "--defining-set", "")])
def test_non_positive_length_exits_1(verb, capsys):
    # factor --n -5 printed "factors": [] and exited 0
    status, out, err = run_cli(capsys, verb[0], "--q", "2", "--n", "-5", *verb[1:])
    assert (status, out) == (1, "") and err.startswith("cycperm: error:") and "n >= 1" in err


@pytest.mark.parametrize("spec,key", [
    ({"q": 2, "n": 7, "defining_set": [1, 2, 4]}, "'q'"),
    ({"q": {"characteristic": 2}, "defining_set": [1, 2, 4]}, "'n'"),
    ([{"q": {"characteristic": 2}, "n": 7, "defining_set": [1, 2, 4]}], "JSON object"),
])
@pytest.mark.parametrize("verb", ["analyze", "equiv"])
def test_malformed_spec_exits_1_without_traceback(spec, key, verb, tmp_path, capsys):
    # these escaped main as TypeError or KeyError with a traceback
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(spec))
    good = write_spec(tmp_path, "good.json", cyclic_code(7, GF2, {1, 2, 4}))
    inputs = ["--in", str(bad)] + (["--in", good] if verb == "equiv" else [])
    status, out, err = run_cli(capsys, verb, *inputs)
    assert (status, out) == (1, "") and err.startswith("cycperm: error:")
    assert key in err and "Traceback" not in err


def test_factor_prime_power_field(capsys):
    status, out, _ = run_cli(capsys, "factor", "--q", "4", "--n", "5")
    assert status == 0
    report = json.loads(out)
    # over GF(4) the 4-cyclotomic cosets mod 5 are {0}, {1,4}, {2,3}
    assert sorted(len(f["coset"]) for f in report["factors"]) == [1, 2, 2]


def test_non_prime_power_field_rejected(capsys):
    status, _, err = run_cli(capsys, "factor", "--q", "6", "--n", "5")
    assert status == 1 and "prime power" in err


# --- enumerate ------------------------------------------------------------------

def test_enumerate_binary_length_7(capsys):
    status, out, _ = run_cli(capsys, "enumerate", "--q", "2", "--n", "7")
    assert status == 0
    report = json.loads(out)
    assert report["count"] == 8 and len(report["codes"]) == 8
    hammings = [c for c in report["codes"] if c["k"] == 4 and c["distance"] == 3]
    assert len(hammings) == 2
    assert sum(c["elementary"] for c in report["codes"]) == 4


def test_enumerate_gf11_length_5(capsys):
    status, out, _ = run_cli(capsys, "enumerate", "--q", "11", "--n", "5")
    report = json.loads(out)
    assert status == 0 and report["count"] == 32


def test_enumerate_gf13_length_5_all_elementary(capsys):
    _, out, _ = run_cli(capsys, "enumerate", "--q", "13", "--n", "5")
    report = json.loads(out)
    assert report["count"] == 4
    assert all(c["elementary"] for c in report["codes"])


def test_enumerate_overflow_reports_count_only(capsys):
    # 21 cyclotomic cosets at this length, so 2^21 codes exceeds the
    # listing bound; the count is still exact and the run succeeds
    status, out, _ = run_cli(capsys, "enumerate", "--q", "2", "--n", "217")
    report = json.loads(out)
    assert status == 0
    assert report["count"] == 2 ** 21 and report["codes"] is None


def test_enumerate_runs_are_byte_identical(capsys):
    _, out1, _ = run_cli(capsys, "enumerate", "--q", "2", "--n", "9")
    _, out2, _ = run_cli(capsys, "enumerate", "--q", "2", "--n", "9")
    assert out1 == out2


# --- analyze --------------------------------------------------------------------

def test_analyze_inline_hamming(capsys):
    status, out, _ = run_cli(capsys, "analyze", "--q", "2", "--n", "7",
                             "--defining-set", "1,2,4")
    assert status == 0
    report = json.loads(out)["report"]
    assert report["parameters"] == [7, 4, 3]
    assert report["m"] == 3
    assert report["full_group_order"] == 168
    assert report["classification"]["label"] == "PGAMMAL(3, 2)"


def test_analyze_from_file(tmp_path, capsys):
    path = write_spec(tmp_path, "golay.json", cyclic_code(11, GF3, {1, 3, 4, 5, 9}))
    status, out, _ = run_cli(capsys, "analyze", "--in", path)
    assert status == 0
    report = json.loads(out)["report"]
    assert report["parameters"] == [11, 6, 5]
    assert report["full_group_order"] == 660
    assert report["classification"]["label"] == "PSL_2_11"


def test_analyze_embeds_config(capsys):
    _, out, _ = run_cli(capsys, "analyze", "--q", "2", "--n", "7",
                        "--defining-set", "1,2,4", "--seed", "5")
    config = json.loads(out)["config"]
    assert config["verb"] == "analyze"
    assert config["seed"] == 5
    assert config["defining_set"] == [1, 2, 4]


def test_analyze_node_budget_exhaustion_exits_2(capsys):
    status, out, _ = run_cli(capsys, "analyze", "--q", "2", "--n", "15",
                             "--defining-set", "1,2,4,8", "--budget-nodes", "10")
    assert status == 2
    report = json.loads(out)
    assert "partial" in report
    assert report["report"]["full_group_order"] is None
    assert report["report"]["known_subgroup_order"] == 60
    # the known subgroup enters the search's chain before the first node
    assert report["order_lower_bound"] == 60
    assert report["report"]["search_nodes"] == 10


def test_analyze_node_budget_exhaustion_computes_distance_once(capsys, monkeypatch):
    computed = []
    real = codes._min_distance

    def counted(code, budget):
        computed.append((code.n, code.k))
        return real(code, budget)

    monkeypatch.setattr(codes, "_min_distance", counted)
    status, out, _ = run_cli(capsys, "analyze", "--q", "2", "--n", "15",
                             "--defining-set", "1,2,4,8", "--budget-nodes", "10")
    assert status == 2
    assert json.loads(out)["report"]["parameters"] == [15, 11, 3]
    # the search's word family takes the distance of the code and of its
    # dual; the report asks for the code's at the same budget, which the
    # code kept from the search
    assert computed == [(15, 11), (15, 4)]


GOLAY23_DS = "1,2,3,4,6,8,9,12,13,16,18"


def test_analyze_distance_budget_exhaustion_exits_2(capsys):
    status, out, _ = run_cli(capsys, "analyze", "--q", "2", "--n", "23",
                             "--defining-set", GOLAY23_DS, "--budget-dist", "30")
    assert status == 2
    payload = json.loads(out)
    assert "distance budget" in payload["partial"]
    n, k, (lo, hi) = payload["report"]["parameters"]
    assert (n, k) == (23, 12) and lo <= 7 <= hi


def test_analyze_merges_node_and_distance_partials(capsys):
    status, out, _ = run_cli(capsys, "analyze", "--q", "2", "--n", "15",
                             "--defining-set", "1,2,4,8", "--budget-nodes", "10",
                             "--budget-dist", "1")
    assert status == 2
    partial = json.loads(out)["partial"]
    assert "node budget" in partial and "distance budget" in partial


def test_enumerate_distance_budget_exhaustion_exits_2(capsys):
    status, out, _ = run_cli(capsys, "enumerate", "--q", "2", "--n", "23",
                             "--budget-dist", "30")
    assert status == 2
    payload = json.loads(out)
    assert "distance budget" in payload["partial"]
    assert any(isinstance(c["distance"], list) for c in payload["codes"])


def test_analyze_rejects_non_coset_defining_set(capsys):
    status, _, err = run_cli(capsys, "analyze", "--q", "2", "--n", "7",
                             "--defining-set", "1,2")
    assert status == 1 and err


# --- equiv ----------------------------------------------------------------------

def test_equiv_hamming_pair(tmp_path, capsys):
    p1 = write_spec(tmp_path, "h1.json", cyclic_code(7, GF2, {1, 2, 4}))
    p2 = write_spec(tmp_path, "h2.json", cyclic_code(7, GF2, {3, 5, 6}))
    status, out, _ = run_cli(capsys, "equiv", "--in", p1, "--in", p2,
                             "--strategy", "multiplier")
    assert status == 0
    verdict = json.loads(out)["verdict"]
    assert verdict["status"] == "equivalent" and verdict["complete"]
    assert "witness" in verdict


def test_equiv_separated_by_dimension(tmp_path, capsys):
    p1 = write_spec(tmp_path, "a.json", cyclic_code(7, GF2, {1, 2, 4}))
    p2 = write_spec(tmp_path, "b.json", cyclic_code(7, GF2, {0, 1, 2, 4}))
    status, out, _ = run_cli(capsys, "equiv", "--in", p1, "--in", p2)
    verdict = json.loads(out)["verdict"]
    assert status == 0 and verdict["status"] == "inequivalent"


def test_equiv_length_mismatch_exits_1(tmp_path, capsys):
    p1 = write_spec(tmp_path, "a.json", cyclic_code(7, GF2, {1, 2, 4}))
    p2 = write_spec(tmp_path, "b.json", cyclic_code(9, GF2, {1, 2, 4, 8, 7, 5}))
    status, _, err = run_cli(capsys, "equiv", "--in", p1, "--in", p2)
    assert status == 1 and "length" in err


def test_equiv_hp_at_a_composite_length_names_the_alternatives(tmp_path, capsys):
    # HP needs n = p^r once the invariants leave the pair open: the binary
    # [15,11] codes of D = {1,2,4,8} and its image under M_7 share their
    # dimension and profiles, the code of D = {3,6,9,12} is separated by
    # its profile, and MULTIPLIER decides the first pair
    a = write_spec(tmp_path, "a.json", cyclic_code(15, GF2, {1, 2, 4, 8}))
    b = write_spec(tmp_path, "b.json", cyclic_code(15, GF2, {7, 11, 13, 14}))
    c = write_spec(tmp_path, "c.json", cyclic_code(15, GF2, {3, 6, 9, 12}))
    status, out, err = run_cli(capsys, "equiv", "--in", a, "--in", b)
    assert status == 1 and not out
    assert "HP needs a prime-power length, and 15 is not one" in err
    assert "MULTIPLIER" in err and "BRUTE for n <= 10" in err
    status, out, _ = run_cli(capsys, "equiv", "--in", a, "--in", c)
    verdict = json.loads(out)["verdict"]
    assert status == 0 and (verdict["status"], verdict["evidence"]) == \
        ("inequivalent", "weight profiles differ")
    status, out, _ = run_cli(capsys, "equiv", "--in", a, "--in", b, "--strategy", "multiplier")
    assert status == 0 and json.loads(out)["verdict"]["status"] == "equivalent"


# --- qc -------------------------------------------------------------------------

def test_qc_verb_reports_blocks(tmp_path, capsys):
    from cycperm.verification import _qc_examples
    path = write_spec(tmp_path, "qc.json", _qc_examples()["rep-par"].linear, index=2)
    status, out, _ = run_cli(capsys, "qc", "--in", path)
    assert status == 0
    report = json.loads(out)["report"]
    assert report["conclusion"] == "IMPRIMITIVE"
    assert report["closure_order"] == 800
    assert report["index"] == 2


def test_qc_missing_index_exits_1(tmp_path, capsys):
    # a null index, a top-level list and a top-level string escaped main
    # with a traceback
    code = cyclic_code(7, GF2, {1, 2, 4})
    for extra in ({}, {"index": None}):
        path = write_spec(tmp_path, "noindex.json", code, **extra)
        status, _, err = run_cli(capsys, "qc", "--in", path)
        assert status == 1 and "index" in err and err.startswith("cycperm: error:")
    for spec in ([{**code_to_spec(code), "index": 1}], "index"):
        (tmp_path / "bad.json").write_text(json.dumps(spec))
        status, _, err = run_cli(capsys, "qc", "--in", str(tmp_path / "bad.json"))
        assert status == 1 and "index" in err and err.startswith("cycperm: error:")


def test_qc_invalid_index_exits_1(tmp_path, capsys):
    path = write_spec(tmp_path, "bad.json", cyclic_code(7, GF2, {1, 2, 4}), index=3)
    status, _, err = run_cli(capsys, "qc", "--in", path)
    assert status == 1 and "divide" in err


def test_qc_index_equal_to_the_length_names_the_co_index(tmp_path, capsys):
    # co-index 1 used to exit with only "1 is not a prime power"
    path = write_spec(tmp_path, "full.json", cyclic_code(7, GF2, {1, 2, 4}), index=7)
    status, out, err = run_cli(capsys, "qc", "--in", path)
    assert status == 1 and not out and err.startswith("cycperm: error:")
    assert "co-index n/l = 7/7 = 1 is not a prime power" in err
    assert "H'(P) needs n = l p^r with r >= 1" in err


# --- verification rows ------------------------------------------------------------

def test_row_json_excludes_runtime():
    row = VerificationRow("x", "tables", "1", "1", "match", 0.25)
    js = row.to_json()
    assert "runtime" not in js and js["status"] == "match"


def test_csv_includes_runtime():
    rows = [VerificationRow("x", "tables", "1", "1", "match", 0.25, "")]
    text = battery_csv(rows)
    assert "runtime_s" in text.splitlines()[0]
    assert ",0.250," in text.splitlines()[1]


def test_exit_status_ignores_partial():
    rows = [
        VerificationRow("a", "tables", "1", "1", "match", 0.0),
        VerificationRow("b", "tables", "2", "3", "partial", 0.0, "known erratum"),
    ]
    assert exit_status(rows) == 0
    rows.append(VerificationRow("c", "tables", "4", "5", "mismatch", 0.0))
    assert exit_status(rows) == 3


def test_unknown_scope_rejected():
    with pytest.raises(ValueError, match="unknown scope"):
        run_battery(("bogus",))


def test_battery_rows_match_the_golden_file():
    # every scope's rows, as verify-paper --scope all reports them; a change
    # that adds or alters a row updates tests/battery_seed0.json with it
    golden = json.loads((Path(__file__).parent / "battery_seed0.json").read_text())
    rows = [r.to_json() for r in run_battery(SCOPES, seed=0)]
    assert len(rows) == 52
    assert rows == golden


def test_slow_scope_battery():
    rows = run_battery(("slow",))
    assert battery_summary(rows) == {"total": 3, "match": 3, "partial": 0,
                                     "mismatch": 0}
    by_id = {r.claim_id: r for r in rows}
    assert "20160" in by_id["backtrack-hamming-15"].computed
    assert "660" in by_id["backtrack-golay-11"].computed
    assert "120" in by_id["backtrack-repetition-5"].computed


def test_verify_paper_slow_scope_end_to_end(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    status, _, _ = run_cli(capsys, "verify-paper", "--scope", "slow",
                           "--out", str(out_json))
    assert status == 0
    report = json.loads(out_json.read_text())
    assert report["summary"]["mismatch"] == 0
    assert report["config"]["scope"] == ["slow"]
    assert all("runtime" not in r for r in report["rows"])

    out_csv = tmp_path / "report.csv"
    status, _, _ = run_cli(capsys, "verify-paper", "--scope", "slow",
                           "--out", str(out_csv))
    assert status == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0].startswith("claim_id,scope,expected,computed,status,runtime_s")
    assert len(lines) == 4


def test_verify_paper_json_reports_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(capsys, "verify-paper", "--scope", "slow", "--out", str(a))
    run_cli(capsys, "verify-paper", "--scope", "slow", "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_verify_paper_scope_all_includes_every_scope():
    from cycperm.cli import _build_parser, _config_from_args
    args = _build_parser().parse_args(["verify-paper", "--scope", "all"])
    assert _config_from_args(args).scope == ("tables", "lemmas", "qc", "slow")
    args = _build_parser().parse_args(["verify-paper"])
    assert _config_from_args(args).scope == ("tables", "lemmas", "qc")
    args = _build_parser().parse_args(["verify-paper", "--scope", "qc",
                                       "--scope", "tables", "--scope", "qc"])
    assert _config_from_args(args).scope == ("tables", "qc")


def test_analyze_node_budget_exhaustion_scans_multipliers_once(capsys, monkeypatch):
    # the report after a node-budget stop comes with the exception; nothing
    # before the search runs again
    real, calls = autgroups.multiplier_scan, []
    monkeypatch.setattr(autgroups, "multiplier_scan",
                        lambda code: calls.append(code) or real(code))
    status, out, _ = run_cli(capsys, "analyze", "--q", "2", "--n", "15",
                             "--defining-set", "1,2,4,8", "--budget-nodes", "10")
    assert status == 2 and json.loads(out)["order_lower_bound"] == 60
    assert len(calls) == 1
