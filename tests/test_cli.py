import io
import json
import pathlib
import signal
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superdual.cli import main
from superdual.labels import RepLabel

YM = json.dumps(
    {"p": 2, "q": 2, "m": 4, "mu_L": [0, 0], "tau": [1, 1, 0, 0], "mu_R": [0, 0],
     "beta_L": "0", "beta_R": "0"}
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_yangmills(capsys):
    code, out, _ = run(capsys, "classify", "--label", YM)
    assert code == 0
    assert "UnitaryShort" in out and "(1/2,1/2)-BPS" in out


def test_classify_nonunitary_exit3(capsys):
    lab = json.dumps({"p": 2, "q": 2, "m": 4, "mu_L": [], "tau": [], "mu_R": [],
                      "beta_L": "0", "beta_R": "1/2"})
    code, out, _ = run(capsys, "classify", "--label", lab)
    assert code == 3 and "NonUnitary" in out


def test_classify_label_file(tmp_path, capsys):
    f = tmp_path / "yangmills.json"
    f.write_text(YM)
    code, out, _ = run(capsys, "classify", "--label", str(f))
    assert code == 0


def test_weight_json_round_trip(capsys):
    code, out, _ = run(capsys, "weight", "--label", YM, "--grading", "su(2,|4|2)")
    assert code == 0
    data = json.loads(out)
    assert data["values"] == ["-1", "-1", "1", "1", "0", "0", "0", "0"]
    # emitted weight JSON is accepted back by the lattice command
    code2, out2, _ = run(capsys, "lattice", "--weight", json.dumps(data))
    assert code2 == 0
    # byte stability after one re-normalisation pass
    code3, out3, _ = run(capsys, "weight", "--label", YM, "--grading", "su(2,|4|2)")
    assert out3 == out


def test_weight_of_a_nonunitary_label(capsys):
    lab = _label(p=1, q=1, m=1, mu_L=[0], tau=[0], mu_R=[0], beta_L="-1/2")
    code, out, err = run(capsys, "weight", "--label", json.dumps(lab),
                         "--grading", "su(1,|1|1)", "--format", "text")
    assert code == 0 and out == "[1/2,0,0]\n" and not err


def test_weight_in_another_family_exit2(capsys):
    lab = _label(p=1, q=1, m=2, mu_L=[0], tau=[0, 0], mu_R=[0])
    code, out, err = run(capsys, "weight", "--label", json.dumps(lab), "--grading", "su(2,1|2)")
    assert code == 2 and not out
    assert err == "error: target grading has mismatching lattice dimensions\n"


@pytest.mark.parametrize("argv", [["lattice"], ["lattice", "--label", YM, "--weight", YM]])
def test_lattice_takes_exactly_one_input(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out and "--weight" in err and "--label" in err


def test_lattice_text_output(capsys):
    lab = json.dumps({"p": 0, "q": 4, "m": 2, "mu_L": [], "tau": [1, 0],
                      "mu_R": [3, 1, 0, 0], "beta_L": "0", "beta_R": "1"})
    code, out, _ = run(capsys, "lattice", "--label", lab)
    assert code == 3
    lines = out.strip().splitlines()
    assert lines[0].split() == ["0", "-"]  # top row printed first
    assert "violations:" in lines[-1]


def test_lattice_json_with_beta_in_thirds(capsys):
    lab = json.dumps({"p": 2, "q": 2, "m": 2, "mu_L": [0, 0], "tau": [1, 0], "mu_R": [0, 0],
                      "beta_L": "4/3", "beta_R": "2"})
    code, out, err = run(capsys, "lattice", "--label", lab, "--format", "json")
    assert code == 0 and not err
    assert out == (
        '{"p": 2, "q": 2, "m": 2, "h_edges": {"0,1": "5", "0,2": "4", "1,1": "4", '
        '"1,2": "3", "2,1": "3", "2,2": "2", "3,1": "2", "3,2": "1", "4,1": "1", '
        '"4,2": "0"}, "v_edges": {"1,0": "-13/3", "1,1": "-16/3", "1,2": "-19/3", '
        '"2,0": "-13/3", "2,1": "-16/3", "2,2": "-19/3", "3,0": "2", "3,1": "1", '
        '"3,2": "0", "4,0": "2", "4,1": "1", "4,2": "0"}, "violations": [], "zeros": []}\n'
    )


# su(1,1|0) below its bound: non-unitary, and its weight lattice has no cell
M0_NON_UNITARY = {"p": 1, "q": 1, "m": 0, "mu_L": [0], "tau": [], "mu_R": [0],
                  "beta_L": "0", "beta_R": "-3"}


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_lattice_refuses_an_m0_label(capsys, fmt):
    lab = json.dumps(M0_NON_UNITARY)
    code, out, err = run(capsys, "lattice", "--label", lab, "--format", fmt)
    assert code == 2 and not out and "an m = 0 weight has no plaquettes" in err
    assert run(capsys, "classify", "--label", lab)[0] == 3


def _exit_code(*argv):
    """main's exit code, its output discarded."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(list(argv))


@st.composite
def small_labels(draw):
    """A label with 2 <= p + q + m <= 6, partition entries <= 2 and betas in
    [-6, 12] with denominators up to 4; m = 0 included."""
    p, q, m = (draw(st.integers(0, 4)) for _ in range(3))
    assume(2 <= p + q + m <= 6)

    def part(n):
        return sorted(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)), reverse=True)

    def beta(side):
        if not side:
            return Fraction(0)
        return Fraction(draw(st.integers(-24, 48)), 4)

    try:
        return RepLabel(p, q, m, part(max(p - 1, 0)), part(max(m - 1, 0)), part(max(q - 1, 0)),
                        beta(p and m), beta(q))
    except ValueError:
        assume(False)


@settings(max_examples=150, deadline=None)
@given(small_labels())
def test_lattice_answers_with_the_exit_code_of_classify(lab):
    """Wherever `lattice --label` answers, it exits as `classify` does; it
    refuses exactly the m = 0 labels, whose weights have no plaquettes."""
    text = json.dumps(lab.to_json())
    code = _exit_code("lattice", "--label", text)
    assert (code == 2) == (lab.m == 0)
    if code != 2:
        assert code == _exit_code("classify", "--label", text)


COMPACT_M0 = [
    {"p": 0, "q": 3, "m": 0, "mu_L": [], "tau": [], "mu_R": [1, 0, 0], "beta_L": "0",
     "beta_R": "0"},
    {"p": 2, "q": 0, "m": 0, "mu_L": [1, 0], "tau": [], "mu_R": [], "beta_L": "0",
     "beta_R": "0"},
    {"p": 0, "q": 3, "m": 0, "mu_L": [], "tau": [], "mu_R": [2, 1, 0], "beta_L": "0",
     "beta_R": "5/2"},
]


@pytest.mark.parametrize("label", COMPACT_M0)
def test_compact_m0_labels_are_answered(capsys, label):
    lab = json.dumps(label)
    for argv in (["classify"], ["diagram"], ["shorten"], ["verify", "--cutoff", "2"]):
        code, out, err = run(capsys, *argv, "--label", lab)
        assert code == 0 and out and not err


def test_weight_of_su03_ignores_beta(capsys):
    # su(0,3|0): the weight is mu_R, whatever beta
    for beta in ("0", "5/2", "3"):
        lab = json.dumps(COMPACT_M0[0] | {"beta_R": beta})
        code, out, err = run(capsys, "weight", "--label", lab, "--format", "text")
        assert code == 0 and out == "[1,0,0]\n" and not err


def test_diagram_formats(capsys):
    code, out, _ = run(capsys, "diagram", "--label", YM, "--format", "ascii")
    assert code == 0 and "[][]" in out
    code, out, _ = run(capsys, "diagram", "--label", YM, "--format", "svg")
    assert code == 0 and out.startswith("<svg")
    code, out, _ = run(capsys, "diagram", "--label", YM, "--format", "json")
    data = json.loads(out)
    assert data["P"] == 1 and data["fdelta"] == 0


def test_shorten_and_do(capsys):
    code, out, _ = run(capsys, "shorten", "--label", YM)
    assert code == 0
    assert "right:" in out and "left:" in out
    assert "B[0,1,0](0,0)^(1/2,1/2)" in out
    code, out, _ = run(capsys, "do-label", "--label", YM)
    assert out.strip() == "B[0,1,0](0,0)^(1/2,1/2)"


def test_verify_command(capsys):
    lab = json.dumps({"p": 1, "q": 1, "m": 0, "mu_L": [], "tau": [], "mu_R": [],
                      "beta_L": "0", "beta_R": "3/2"})
    code, out, _ = run(capsys, "verify", "--label", lab, "--cutoff", "4")
    assert code == 0 and "positive_definite=True" in out
    # non-unitary labels whose negative directions sit at depth 2: a shallower
    # cutoff hides them, which is no contradiction with the theorem
    for m, cutoff in ((0, "1"), (4, "0")):
        lab = json.dumps({"p": 2, "q": 2, "m": m, "mu_L": [], "tau": [], "mu_R": [],
                          "beta_L": "0", "beta_R": "1/2"})
        code, out, err = run(capsys, "verify", "--label", lab, "--cutoff", cutoff)
        assert code == 3 and "MISMATCH" not in out and not err
        assert f"oracle: no negative direction up to depth {cutoff}" in out


def test_verify_negative_cutoff_exit2(capsys):
    """A negative cutoff is a usage error, not an empty Gram matrix reported
    as a verdict."""
    lab = json.dumps({"p": 2, "q": 2, "m": 0, "mu_L": [], "tau": [], "mu_R": [],
                      "beta_L": "0", "beta_R": "1/2"})
    code, out, err = run(capsys, "verify", "--cutoff", "-1", "--label", lab)
    assert code == 2 and not out
    assert err.startswith("error: ") and "cutoff" in err


def test_verify_refuses_a_pbw_family_past_the_bound(capsys):
    """Yang-Mills at cutoff 7 has a PBW family of 238,710 monomials, past
    MAX_PBW_FAMILY; the monomials are counted before any vector is built, so
    `verify` exits 2 at once instead of running for minutes."""
    t0 = time.perf_counter()
    code, out, err = run(capsys, "verify", "--label", YM, "--cutoff", "7")
    assert code == 2 and not out
    assert err.startswith("error: ") and "238710 monomials" in err and "200000" in err
    assert time.perf_counter() - t0 < 10


GOLDENS = pathlib.Path(__file__).resolve().parents[1] / "src" / "superdual" / "goldens"


@pytest.mark.parametrize("table", range(1, 8))
def test_tables_golden(capsys, table):
    code, out, _ = run(capsys, "tables", "--table", str(table), "--check")
    assert code == 0
    assert out == (GOLDENS / f"table{table}.txt").read_text()


@pytest.mark.parametrize("argv", [
    ["--table", "2", "--n", "2"],
    ["--table", "6", "--m", "3"],
    ["--table", "1", "--m", "3"],
])
def test_tables_check_off_the_pinned_m_n_is_a_usage_error(capsys, argv):
    """The goldens are rendered at m = 2, n = 1; --check at other values is
    refused before any table is rendered, not reported as a mismatch."""
    code, out, err = run(capsys, "tables", *argv, "--check")
    assert code == 2 and not out
    assert err.startswith("error: ") and "--m 2 --n 1" in err


@pytest.mark.parametrize("argv, what", [
    (["--table", "6", "--m", "1", "--n", "2"], "table 6 needs m >= n"),
    (["--table", "7", "--m", "1", "--n", "2"], "table 7 needs m >= n"),
    (["--table", "6", "--m", "-1"], "table 6 needs m >= n"),
    (["--table", "1", "--n", "-1"], "n = -1"),
    (["--table", "3", "--n", "-1"], "n = -1"),
    (["--table", "2", "--m", "-1"], "table 2 does not read m = -1: only tables 6 and 7 read --m"),
    (["--table", "5", "--m", "2"], "table 5 does not read m = 2: only tables 6 and 7 read --m"),
    (["--table", "1", "--n", "5"], "table 1 does not read n = 5: only tables 2..7 read --n"),
    (["--table", "1", "--m", "9", "--n", "0"], "table 1 does not read m = 9"),
])
def test_tables_refuse_m_n_out_of_range(capsys, argv, what):
    """n < 0 on any table, and m < n on tables 6 and 7, exit 2; so does a
    parameter the table does not read: --m off tables 6 and 7, --n on
    table 1."""
    code, out, err = run(capsys, "tables", *argv)
    assert code == 2 and not out
    assert err.startswith("error: ") and what in err


def test_selfcheck_exit0(capsys):
    code, out, _ = run(capsys, "selfcheck")
    assert code == 0
    assert "capelli spot checks: ok" in out and "gram spot checks: ok" in out


def test_tensor_command(capsys):
    f = json.dumps({"p": 2, "q": 2, "m": 4, "mu_L": [], "tau": [1, 0, 0], "mu_R": [],
                    "beta_L": "0", "beta_R": "0"})
    code, out, _ = run(capsys, "tensor", "--left", f, "--right", f)
    assert code == 0
    assert "[0,0,1100,0,0;1,0]" in out and "[0,0,2000,0,0;0,0]" in out


def test_tensor_command_takes_diagram_json(capsys):
    f = json.dumps({"p": 2, "q": 2, "m": 4, "mu_L": [0, 0], "tau": [1, 0, 0, 0], "mu_R": [0, 0],
                    "beta_L": "0", "beta_R": "0", "gamma_L": "0", "gamma_R": "0",
                    "fdelta": 0, "P": 1})
    code, out, _ = run(capsys, "tensor", "--left", f, "--right", f)
    assert code == 0
    assert out.split() == ["[0,0,1100,0,0;1,0]", "[0,0,2000,0,0;0,0]"]


def test_usage_error_exit2(capsys):
    assert main(["classify"]) == 2
    assert main(["classify", "--label", "{not json"]) == 2


def test_verify_deformed_block_of_size_5(capsys):
    lab = json.dumps({"p": 5, "q": 5, "m": 0, "mu_L": [], "tau": [], "mu_R": [],
                      "beta_L": "0", "beta_R": "11/2"})
    code, out, err = run(capsys, "verify", "--label", lab, "--cutoff", "1")
    assert code == 0 and "positive_definite=True" in out and not err


# the fields are exactly those of label.schema.json or of diagram.schema.json
@pytest.mark.parametrize("label", [
    {"p": 2, "q": 2, "m": 4, "mu_L": [], "tau": [], "mu_R": [], "beta_L": 1.5, "beta_R": "0"},
    {"q": 2, "m": 4},
    [2, 2, 4],
    # a misspelt beta_R was read as beta_R = 0: UnitaryLong, exit 0
    {"p": 2, "q": 2, "m": 0, "mu_L": [], "tau": [], "mu_R": [], "beta_L": "0", "betaR": "1/2"},
    {"p": 2, "q": 2, "m": 4, "mu_L": [0, 0], "mu_R": [0, 0], "beta_L": "0", "beta_R": "0"},
    json.loads(YM) | {"P": 1},
])
def test_malformed_label_exit2(capsys, label):
    code, out, err = run(capsys, "classify", "--label", json.dumps(label))
    assert code == 2 and not out
    assert err.startswith("error: malformed label JSON")


# options that were parsed but had no effect or could only fail, and
# `weight --allow-nonunitary`, whose effect is now the default
@pytest.mark.parametrize("argv", [
    ["diagram", "--label", YM, "--grading", "not a grading"],
    ["diagram", "--label", YM, "--P", "1"],
    ["shorten", "--label", YM, "--P", "0"],
    ["do-label", "--label", YM, "--P", "2"],
    ["lattice", "--label", YM, "--grading", "su(2,2|4)"],
    ["weight", "--label", YM, "--allow-nonunitary"],
])
def test_removed_options_exit2(capsys, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 2 and not out


def _label(**fields):
    out = {"p": 2, "q": 2, "m": 4, "mu_L": [0, 0], "tau": [1, 1, 0, 0], "mu_R": [0, 0],
           "beta_L": "0", "beta_R": "0"}
    out.update(fields)
    return out


# integers must be JSON integers and rationals "a" or a reduced "a/b"
@pytest.mark.parametrize("label", [
    _label(p=2.7),
    _label(q=True),
    _label(beta_L="2/4", beta_R="1e0"),
    _label(mu_L=[0.5, 0], beta_R=True),
    _label(beta_R="1e0"),
    _label(beta_R="3/2 "),
    _label(beta_L="0/3"),
    _label(tau=[1, 1.0, 0, 0]),
])
def test_off_wire_format_label_exit2(capsys, label):
    code, out, err = run(capsys, "classify", "--label", json.dumps(label))
    assert code == 2 and not out and err.startswith("error: ")


@pytest.mark.parametrize("realization", [
    {"gamma_L": "0", "gamma_R": "0", "fdelta": 0, "P": 1.0},
    {"gamma_L": "0", "gamma_R": "0", "fdelta": False, "P": 1},
    {"gamma_L": "0", "gamma_R": "0.0", "fdelta": 0, "P": 1},
])
def test_off_wire_format_realization_exit2(capsys, realization):
    code, out, err = run(capsys, "diagram", "--label", json.dumps(_label(**realization)))
    assert code == 2 and not out and err.startswith("error: ")


def _blocks(*blocks):
    return {"blocks": [dict(zip(("size", "p", "c"), b)) for b in blocks]}


@pytest.mark.parametrize("weight", [
    {"grading": "su(2,|4|2)", "values": ["-1", "-1", "1", "1", "0", "0", "0", "2/4"]},
    {"grading": "su(2,|4|2)", "values": [-1, -1, 1, 1, 0, 0, 0, 0.0]},
    {"grading": {"blocks": [{"size": 2.0, "p": 0, "c": 0}]}, "values": ["0", "0"]},
    # fields that weight.schema.json and grading.schema.json do not allow
    {"grading": "su(1,|1)", "values": ["0", "0"], "bogus": 1},
    {"grading": {"blocks": [{"size": 2, "p": 0, "c": 0, "bogus": 1}]}, "values": ["0", "0"]},
    {"grading": _blocks((2, 0, 0)) | {"bogus": 1}, "values": ["0", "0"]},
    {"grading": "su(1,|1)", "values": ["0", "0"], "grading_text": 1},
    {"grading": "su(1,|1)", "values": "00"},
    # p and c are 0 or 1, not folded mod 2
    {"grading": _blocks((1, 0, 0), (1, 3, 0)), "values": ["0", "0"]},
    {"grading": _blocks((2, 0, -1)), "values": ["0", "0"]},
    # a grading has at most 64 indices, checked before the blocks are expanded
    {"grading": _blocks((10**12, 0, 0)), "values": ["0", "0"]},
    {"grading": _blocks((60, 0, 0), (5, 0, 1)), "values": ["0"] * 65},
])
def test_off_wire_format_weight_exit2(capsys, weight):
    code, out, err = run(capsys, "lattice", "--weight", json.dumps(weight))
    assert code == 2 and not out and err.startswith("error: ")


@pytest.mark.parametrize("grading", ["su(1000000000000)", "su(32,32|1)"])
def test_oversized_grading_exit2(capsys, grading):
    code, out, err = run(capsys, "weight", "--label", YM, "--grading", grading)
    assert code == 2 and not out
    assert err == "error: a grading has at most 64 indices\n"


# each of RepLabel's input checks, in the order they run
@pytest.mark.parametrize("fields, message", [
    ({"p": -1, "mu_L": []}, "negative dimensions"),
    ({"mu_L": [1, 1]}, "mu_L not proper for p=2"),
    ({"mu_R": [2, 1]}, "mu_R not proper for q=2"),
    ({"tau": [1, 1, 1, 1]}, "tau not proper for m=4"),
    ({"m": 0, "tau": [1]}, "tau must be empty for m=0"),
    ({"p": 0, "mu_L": [], "beta_L": "1"}, "beta_L must vanish for p=0"),
    ({"q": 0, "mu_R": [], "beta_R": "1"}, "beta_R must vanish for q=0"),
    ({"m": 0, "tau": [], "beta_L": "5"}, "beta_L must vanish for m=0"),
])
def test_label_checks_exit2(capsys, fields, message):
    code, out, err = run(capsys, "classify", "--label", json.dumps(_label(**fields)))
    assert code == 2 and not out and err == f"error: {message}\n"


LABEL_COMMANDS = ["classify", "weight", "lattice", "diagram", "shorten", "verify"]


@pytest.mark.parametrize("p", [0, 1])
@pytest.mark.parametrize("command", LABEL_COMMANDS)
def test_label_below_two_indices_exit2_in_every_command(capsys, p, command):
    lab = _label(p=p, q=0, m=0, mu_L=[0] * p, tau=[], mu_R=[])
    code, out, err = run(capsys, command, "--label", json.dumps(lab))
    assert code == 2 and not out and err == "error: p + q + m must be at least 2\n"


@pytest.mark.parametrize("command", LABEL_COMMANDS)
def test_label_above_64_indices_exit2_in_every_command(capsys, command):
    # one index past gradings.MAX_INDICES
    lab = _label(p=1, q=63, m=1, mu_L=[0], tau=[0], mu_R=[])
    code, out, err = run(capsys, command, "--label", json.dumps(lab))
    assert code == 2 and not out and err == "error: p + q + m must be at most 64\n"


def test_label_of_64_indices_is_answered(capsys):
    lab = _label(p=1, q=62, m=1, mu_L=[0], tau=[0], mu_R=[])
    code, out, err = run(capsys, "shorten", "--label", json.dumps(lab))
    assert code == 0 and out == "right: 1\nleft:  1\n" and not err


_M0 = {"m": 0, "tau": [], "mu_L": [1, 0], "mu_R": [1, 0], "beta_R": "2"}


# each of Realization.check's checks, in the order they run
@pytest.mark.parametrize("fields, realization, message", [
    ({}, ("-1", "0", 0, 1), "gammas must exceed -1"),
    ({}, ("0", "0", -1, 1), "fdelta and P are nonnegative integers"),
    (_M0, ("0", "0", 1, 2), "fdelta must vanish for m = 0"),
    (_M0, ("0", "0", 0, 3), "beta inconsistent with realization"),
    (_M0 | {"beta_R": "1"}, ("0", "0", 0, 1),
     "colour sets A_Delta, B_Delta overlap (P too small)"),
    ({"beta_R": "1/2"}, ("0", "1/2", 0, 1), "|A_Delta| <= |F_Delta| violated"),
    ({}, ("0", "0", 0, 0), "colour sets F_Delta, F, B_Delta overlap (P too small)"),
    ({}, ("0", "0", 0, 2), "beta_L inconsistent with realization"),
    ({}, ("0", "0", 1, 2), "beta_R inconsistent with realization"),
])
def test_realization_checks_exit2(capsys, fields, realization, message):
    diagram = _label(**fields) | dict(zip(("gamma_L", "gamma_R", "fdelta", "P"), realization))
    code, out, err = run(capsys, "diagram", "--label", json.dumps(diagram))
    assert code == 2 and not out and err == f"error: {message}\n"


# an oracle input past the bounds next to states.MAX_BLOCK: 10^9 colours
# (su(1,1) at beta = 10^9; su(2,2|4) with tau_1 = 10^9), a U_0 vector of
# degree 10^9 + 6 (mu_R^1 = 10^9) and a 9 x 9 U_0 minor (mu_L = (1^9) on
# su(10,1)); these once ended in MemoryError or ran on
@pytest.mark.parametrize("fields, message", [
    ({"p": 1, "q": 1, "m": 0, "mu_L": [], "tau": [], "mu_R": [], "beta_R": "1000000000"},
     "1000000000 colours are outside the supported range 0..32"),
    ({"tau": [1000000000, 0, 0, 0]}, "1000000000 colours are outside the supported range 0..32"),
    ({"mu_R": [1000000000, 0], "beta_R": "1"},
     "a U_0 vector of degree 1000000006 is outside the supported range 0..32"),
    ({"p": 10, "q": 1, "m": 0, "mu_L": [1] * 9, "tau": [], "mu_R": [], "beta_R": "9"},
     "a 9 x 9 determinant is outside the supported sizes 0..8"),
])
def test_oracle_input_bounds_exit2(capsys, fields, message):
    lab = json.dumps(_label(**fields))
    for argv in (["verify", "--label", lab], ["tensor", "--left", lab, "--right", lab]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out and err == f"error: {message}\n"
    # the theorem side stays exact for any beta; an m = 0 weight has no
    # plaquettes, so `lattice` refuses it
    for cmd in ("classify", "weight", "lattice"):
        code, out, err = run(capsys, cmd, "--label", lab)
        if cmd == "lattice" and json.loads(lab)["m"] == 0:
            assert code == 2 and not out and err == "error: an m = 0 weight has no plaquettes\n"
        else:
            assert code == 0 and out and not err


def test_diagram_window_bound_exit2(capsys):
    lab = json.dumps(_label(mu_R=[1000000000, 0], beta_R="1"))
    for fmt in ("ascii", "svg"):
        code, out, err = run(capsys, "diagram", "--label", lab, "--format", fmt)
        assert code == 2 and not out
        assert err == "error: a window of 1000000006 x 4 cells is larger than 100000 cells to render\n"
    code, out, err = run(capsys, "diagram", "--label", lab, "--format", "json")
    assert code == 0 and json.loads(out)["mu_R"] == [1000000000, 0]


def test_verify_lists_flagged_slices(capsys):
    code, out, err = run(capsys, "verify", "--label", YM, "--cutoff", "1")
    lines = out.splitlines()
    # the kernel of all 126 family vectors, read from the 4 flagged K-type slices
    assert code == 0 and not err and len(lines) == 6
    assert lines[1] == "gram: positive_definite=False negative=False kernel=80"
    assert all(line.startswith("  slice ") and ": kernel " in line for line in lines[2:])
    code, out, err = run(capsys, "verify", "--label", YM, "--cutoff", "2")
    lines = out.splitlines()
    assert code == 0 and not err and len(lines) == 11
    assert lines[1] == "gram: positive_definite=False negative=False kernel=1136"
    assert all(line.startswith("  slice ") and ": kernel " in line for line in lines[2:10])
    assert lines[10] == "  ... 23 more flagged slices"
    lab = json.dumps({"p": 2, "q": 2, "m": 0, "mu_L": [], "tau": [], "mu_R": [],
                      "beta_L": "0", "beta_R": "1/2"})
    code, out, err = run(capsys, "verify", "--label", lab, "--cutoff", "2")
    assert code == 3 and not err
    assert out.splitlines()[2:] == ["  slice ('-3', '-3', '-1/2', '-1/2') dim 2: NEGATIVE"]


@pytest.mark.parametrize("argv", [
    ["classify", "--label", YM],
    ["verify", "--label", YM, "--cutoff", "1"],
    ["tables", "--table", "2"],
])
def test_closed_stdout_ends_by_sigpipe(argv):
    """A reader that closes the pipe early (`superdual verify ... | head`)
    ends the command as SIGPIPE ends `cat`: no message, no exit 4."""
    proc = subprocess.Popen([sys.executable, "-m", "superdual.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == -signal.SIGPIPE and err == b""


def test_json_outputs_match_schemas(capsys):
    from jsonschema import Draft7Validator, ValidationError
    from referencing import Registry, Resource

    schemas = {
        path.name: json.loads(path.read_text())
        for path in (pathlib.Path(__file__).parent.parent / "schemas").glob("*.schema.json")
    }
    registry = Registry().with_resources(
        (schema["$id"], Resource.from_contents(schema)) for schema in schemas.values()
    )

    def validate(name, data):
        Draft7Validator(schemas[name], registry=registry).validate(data)

    code, out, _ = run(capsys, "weight", "--label", YM, "--grading", "su(2,|4|2)",
                       "--format", "json")
    assert code == 0
    validate("weight.schema.json", json.loads(out))
    code, out, _ = run(capsys, "diagram", "--label", YM, "--format", "json")
    assert code == 0
    validate("diagram.schema.json", json.loads(out))
    validate("label.schema.json", json.loads(YM))
    # the validator does reject off-format data
    with pytest.raises(ValidationError):
        validate("weight.schema.json", {"grading": "su(2)", "values": [0.5]})


def test_unreadable_label_file_exit2(capsys, tmp_path):
    code, out, err = run(capsys, "classify", "--label", str(tmp_path))
    assert code == 2 and not out
    assert err.startswith("error: cannot read JSON file")


@pytest.mark.parametrize("exc, message", [
    (KeyError("k"), "internal error: KeyError"),
    (IndexError("i"), "internal error: IndexError"),
    (TypeError("t"), "internal error: TypeError"),
    (AssertionError("a"), "internal inconsistency: a"),
])
def test_internal_errors_exit4(capsys, monkeypatch, exc, message):
    import superdual.cli as cli

    def broken(label):
        raise exc

    monkeypatch.setattr(cli, "classify_supqm", broken)
    code, out, err = run(capsys, "classify", "--label", YM)
    assert code == 4 and err.startswith(message)


def test_verify_kernel_that_is_no_k_character_exit4(capsys, monkeypatch):
    """A negative K-type multiplicity h0 from the kernel inversion is an
    internal inconsistency, not a verdict."""
    from superdual.oscillator import module

    monkeypatch.setattr(module, "highest_weight_counts",
                        lambda blocks, counts: {nu: -1 for nu in counts})
    code, out, err = run(capsys, "verify", "--label", YM, "--cutoff", "1")
    assert code == 4 and err.startswith("internal inconsistency: the Gram kernel at charge")


def test_cli_import_leaves_the_oscillator_unloaded():
    """classify, lattice and shorten never load the oscillator; the commands
    that need it import it themselves."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, superdual.cli; print('superdual.oscillator' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False"


def test_module_invocation_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "superdual.cli", "classify", "--label", YM],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "UnitaryShort" in proc.stdout
