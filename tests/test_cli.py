import hashlib
import json

import pytest

from etaram import cli, identities, lattice, modularity
from etaram.cli import main
from etaram.generators import generators
from etaram.lattice import StepBudgetExceeded


def test_cusps_table(capsys):
    assert main(["cusps", "10"]) == 0
    out = capsys.readouterr().out
    assert "3/10" in out and "oo" in out


def test_cusps_json(capsys):
    assert main(["cusps", "6", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert {r["cusp"] for r in rows} == {"0/1", "1/2", "1/3", "oo"}
    assert all(set(r) == {"cusp", "width", "lambda", "mu", "epsilon"} for r in rows)


def test_cusps_json_is_pinned(capsys):
    # SHA-256 of the documents for levels 1-48, computed when cusp_set still
    # carried the lambda, mu and epsilon columns itself
    docs = []
    for N in range(1, 49):
        assert main(["cusps", str(N), "--json"]) == 0
        docs.append(json.loads(capsys.readouterr().out))
    digest = hashlib.sha256(json.dumps(docs).encode()).hexdigest()
    assert digest == "2f788fc863fc2edade70c2392f5dc6345206243b3d3087ccf216fc48e0adbdd5"


def test_cusps_tables_at_large_levels_are_pinned(capsys):
    # SHA-256 of the printed tables at levels 60, 64 and 144, as the
    # pairwise equivalence scans printed them (5.7 s at 144 then)
    out = ""
    for N in (60, 64, 144):
        assert main(["cusps", str(N)]) == 0
        out += capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "a7a5d323dc8b58dd5a30296b5473382c9b7fc41f4f616318db6292edfd9ac2e3"


def test_generators_json(capsys):
    assert main(["generators", "10", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 5


def test_expand(capsys):
    assert main(["expand", "--expr", "1/(1-q)", "--order", "5"]) == 0
    out = capsys.readouterr().out
    assert "1*q^(4)" in out


def test_expand_past_the_order_prints_zero(capsys):
    assert main(["expand", "--expr", "q^50", "--order", "30"]) == 0
    assert capsys.readouterr().out == "0 + O(q^(30))\n"


def test_verify_exit_codes(capsys):
    assert main(["verify", "--lhs", "q", "--rhs", "q", "--order", "10"]) == 0
    assert main(["verify", "--lhs", "q", "--rhs", "q^2", "--order", "10"]) == 1


def test_derive_and_document(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"M": 2, "r": {"1": -2, "2": 1}}))
    out = tmp_path / "identity.json"
    code = main(["derive", "--spec", str(spec), "-m", "5", "-t", "2",
                 "--order", "100", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["status"] == "Derived"
    assert doc["N"] == 10
    assert doc["rhs"] == [[0, 0, "32"], [0, 1, "-32"], [0, 2, "4"], [0, 3, "4"]]
    assert doc["certified_to"] == "100"


def test_derive_explain(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"M": 2, "r": {"1": -2, "2": 1}}))
    assert main(["derive", "--spec", str(spec), "-m", "5", "-t", "2",
                 "--order", "60", "--explain"]) == 0
    out = capsys.readouterr().out
    assert "admissibility" in out and "[ok]" in out


def test_derive_explain_at_level_one_sweeps_every_unit(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"M": 1, "r": {"1": -1}}))
    assert main(["derive", "--spec", str(spec), "-m", "1", "-t", "0", "--explain"]) == 0
    out = capsys.readouterr().out
    assert "level 1 admissibility:" in out
    assert "  [ok] square residue sweep: all 1 residues pass\n" in out


def test_derive_explain_searches_the_level_once(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "p.json"
    spec.write_text(json.dumps({"M": 1, "r": {"1": -1}}))
    args = ["derive", "--spec", str(spec), "-m", "11", "-t", "6", "--out"]
    assert main(args + [str(tmp_path / "plain.json")]) == 0
    searched = []
    real = modularity.find_level

    def spy(partition, m, t):
        searched.append((m, t))
        return real(partition, m, t)

    monkeypatch.setattr(modularity, "find_level", spy)
    monkeypatch.setattr(identities, "find_level", spy)
    assert main(args + [str(tmp_path / "explained.json"), "--explain"]) == 0
    assert "level 11 admissibility:" in capsys.readouterr().out
    assert searched == [(11, 6)]
    assert (tmp_path / "explained.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_derive_reports_failure(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"M": 2, "r": {"1": -2, "2": 1}}))
    code = main(["derive", "--spec", str(spec), "-m", "5", "-t", "2",
                 "--phi-box", "1"])
    assert code == 1
    assert "failed" in capsys.readouterr().out


def test_spec_file_rejects_unknown_keys(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"M": 1, "r": {}, "extra": 3}))
    _assert_user_error(capsys, ["derive", "--spec", str(spec), "-m", "1", "-t", "0"],
                       "unknown spec keys: ['extra']")


@pytest.mark.parametrize("text, message", [
    ('{"M": 1, "r": {"1": -1}, "x": 2}', "unknown spec keys: ['x']"),
    ('{"r": {"1": -1}}', "spec has no key M"),
    ('{"M": 2, "r": {"3": -1}}', "r key 3 does not divide M=2"),
    ('{"M": 1, "r": ', "Expecting value"),
    ('{"M": 1, "r": [-1]}', "'list' object has no attribute 'items'"),
    ('{"M": 1.5, "r": {"1": -1}}', "spec number 1.5 is not an integer"),
    ('{"M": true, "r": {"1": -1}}', "spec number True is not an integer"),
    ('{"M": 1, "r": {"1": -1.7}}', "spec number -1.7 is not an integer"),
    ('{"M": 5, "rg": {"5/1": 0.5}}', "spec number 0.5 is not an integer"),
], ids=["unknown-key", "no-M", "r-key-off-M", "invalid-json", "r-not-an-object",
        "M-float", "M-bool", "r-float", "rg-float"])
def test_malformed_spec_file_is_a_user_error(tmp_path, capsys, text, message):
    spec = tmp_path / "spec.json"
    spec.write_text(text)
    _assert_user_error(capsys, ["derive", "--spec", str(spec), "-m", "5", "-t", "4"],
                       "spec file %s: %s" % (spec, message))


def test_missing_spec_file_is_a_user_error(tmp_path, capsys):
    _assert_user_error(capsys, ["derive", "--spec", str(tmp_path / "absent.json"),
                                "-m", "5", "-t", "4"], "No such file")


@pytest.mark.parametrize("command", ["derive", "dissect"])
@pytest.mark.parametrize("m", ["0", "-2"])
def test_nonpositive_modulus_is_rejected_at_parsing(tmp_path, capsys, command, m):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"M": 1, "r": {"1": -1}}))
    argv = [command, "--spec", str(spec), "-m", m] + (["-t", "0"] if command == "derive" else [])
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "m must be positive, got %s" % m in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["derive", "-m", "5", "-t", "7"], "argument -t: t must lie in [0, m) = [0, 5), got 7"),
    (["derive", "-m", "5", "-t", "-1"], "argument -t: t must lie in [0, m) = [0, 5), got -1"),
    (["derive", "-m", "5", "-t", "4", "-N", "-3"], "argument -N: N must be nonnegative"),
    (["derive", "-m", "5", "-t", "4", "--order", "-5"],
     "argument --order: order must be nonnegative"),
    (["derive", "-m", "5", "-t", "4", "--phi-box", "-1"],
     "argument --phi-box: phi-box must be nonnegative"),
    (["dissect", "-m", "5", "--order", "-5"], "argument --order: order must be nonnegative"),
], ids=["t-past-m", "t-negative", "N-negative", "order-negative", "phi-box-negative",
        "dissect-order-negative"])
def test_out_of_range_derive_flags_are_rejected_at_parsing(tmp_path, capsys, argv, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"M": 1, "r": {"1": -1}}))
    with pytest.raises(SystemExit) as info:
        main(argv[:1] + ["--spec", str(spec)] + argv[1:])
    assert info.value.code == 2
    assert message in capsys.readouterr().err


def test_dissect(tmp_path, capsys):
    spec = tmp_path / "rr.json"
    spec.write_text(json.dumps({"M": 5, "r": {}, "rg": {"5/1": -1, "5/2": 1}}))
    code = main(["dissect", "--spec", str(spec), "-m", "2", "--order", "60"])
    assert code == 0
    out = capsys.readouterr().out
    assert "t=0:" in out and "t=1:" in out


def _assert_user_error(capsys, argv, message):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("etaram: error: ") and message in err
    assert "Traceback" not in err


def test_unparsable_expression_is_a_user_error(capsys):
    _assert_user_error(capsys, ["verify", "--lhs", "P(1", "--rhs", "1"],
                       "unexpected end of expression")


def test_side_known_below_the_order_is_a_user_error(capsys):
    # 0^0 is 1 known only to q^1, short of the requested order
    _assert_user_error(capsys, ["verify", "--lhs", "(1-1)^0", "--rhs", "1",
                                "--order", "10"], "known only to q^1")


def test_expansion_known_below_the_order_is_a_user_error(capsys):
    _assert_user_error(capsys, ["expand", "--expr", "(1-1)^0", "--order", "20"],
                       "(1-1)^0 is known only to q^1, need 20")


@pytest.mark.parametrize("argv, message", [
    (["expand", "--expr", "P(0,0)"], "need delta >= 1 and g >= 0"),
    (["expand", "--expr", "P(1,-2)"], "need delta >= 1 and g >= 0"),
    (["expand", "--expr", "slice(P(0,1), 0, 0)"], "slice needs m >= 1"),
])
def test_malformed_atom_is_a_user_error(capsys, argv, message):
    _assert_user_error(capsys, argv, message)


@pytest.mark.parametrize("argv", [
    ["expand", "--expr", "P(0,1)"],
    ["verify", "--lhs", "P(0,1)", "--rhs", "1"],
])
@pytest.mark.parametrize("order", ["0", "-4"])
def test_nonpositive_order_is_rejected_at_parsing(capsys, argv, order):
    with pytest.raises(SystemExit) as info:
        main(argv + ["--order", order])
    assert info.value.code == 2
    assert "order must be positive, got %s" % order in capsys.readouterr().err


def test_division_by_zero_series_is_a_user_error(capsys):
    _assert_user_error(capsys, ["expand", "--expr", "1/(1-1)"],
                       "no known nonzero term")


@pytest.mark.parametrize("command", ["generators", "cusps"])
@pytest.mark.parametrize("N", ["0", "-3"])
def test_nonpositive_level_is_rejected_at_parsing(capsys, command, N):
    with pytest.raises(SystemExit) as info:
        main([command, N])
    assert info.value.code == 2
    assert "level must be positive" in capsys.readouterr().err


def test_exhausted_completion_is_a_user_error(capsys, monkeypatch):
    def exhausted(classes, moduli, node_limit=0):
        raise StepBudgetExceeded("completion exceeded the step budget")

    # level 10's Hilbert basis is the zero-sum walk's
    monkeypatch.setattr(lattice, "minimal_zero_sum_sequences", exhausted)
    # bypass the generators cache, leave it untouched
    monkeypatch.setattr(cli, "generators", generators.__wrapped__)
    _assert_user_error(capsys, ["generators", "10"], "step budget")


@pytest.mark.parametrize("expr, message", [
    ("q^(1/0)", "q exponent 1/0 has a zero denominator"),
    ("q^(0/0)", "q exponent 0/0 has a zero denominator"),
    ("q^²", "unexpected character '²'"),
    ("q^٣", "unexpected character '٣'"),
    ("P(٣,5)", "unexpected character '٣'"),
    ("(" * 3000 + "q" + ")" * 3000, "expression nested too deeply"),
], ids=["one-over-zero", "zero-over-zero", "superscript-two", "arabic-indic-three",
        "arabic-indic-residue", "deep-parentheses"])
def test_bad_expression_input_is_a_user_error(capsys, expr, message):
    for argv in (["expand", "--expr", expr], ["verify", "--lhs", "1", "--rhs", expr]):
        assert main(argv + ["--order", "3"]) == 2
        assert capsys.readouterr().err == "etaram: error: %s\n" % message


def test_a_long_sum_expands_on_the_command_line(capsys):
    assert main(["expand", "--expr", "+".join(["q"] * 3000), "--order", "3"]) == 0
    assert capsys.readouterr().out.strip() == "3000*q^(1) + O(q^(3))"


@pytest.mark.parametrize("doc, message", [
    ({"M": 1, "r": {"0": 1}}, "r key 0 does not divide M=1"),
    ({"M": 1, "r": {"-1": -1}}, "r key -1 does not divide M=1"),
    ({"M": 2, "rg": {"0/1": 1}}, "rg key delta=0 does not divide M=2"),
], ids=["r-zero", "r-negative", "rg-zero"])
def test_spec_key_below_one_is_a_user_error(tmp_path, capsys, doc, message):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    assert main(["derive", "--spec", str(spec), "-m", "5", "-t", "4"]) == 2
    assert capsys.readouterr().err == "etaram: error: spec file %s: %s\n" % (spec, message)
