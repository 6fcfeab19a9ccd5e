import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onecyl.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_stratum_human(capsys):
    code, out, _ = run(capsys, "stratum", "1 1 2 / 3 2 3")
    assert code == 0
    assert out.strip() == "Q(2,-1,-1) g=1 dim=3"


def test_stratum_json_deterministic(capsys):
    code, out1, _ = run(capsys, "--json", "stratum", "1 1 2 / 3 2 3")
    code2, out2, _ = run(capsys, "--json", "stratum", "1 1 2 / 3 2 3")
    assert code == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload == {"schema": "1", "orders": [2, -1, -1], "genus": 1, "dim": 3}


def test_parse_and_errors(capsys):
    code, out, _ = run(capsys, "parse", "1 2 / 2 1")
    assert code == 0 and "abelian" in out
    code, _, err = run(capsys, "parse", "1 1 / 2")
    assert code == 2 and "exactly twice" in err


def test_check_red(capsys):
    code, out, _ = run(capsys, "check", "red", "1 2 2 3 3 1 / 0 0")
    assert code == 0 and "violated" in out
    code, out, _ = run(capsys, "check", "red", "1 2 3 4 3 5 4 / 6 6 1 5 2")
    assert code == 0 and "satisfied" in out


def test_check_irreducible_json_carries_the_failed_check_witness(capsys):
    # one JSON shape per certificate, with the letters as written
    for perm, which, verdict in [
        ("1 2 2 3 3 1 / 0 0", "red", "fails_red"),
        ("1 2 3 4 3 5 / 6 1 2 6 5 4", "weak", "fails_weak"),
    ]:
        code, out, _ = run(capsys, "--json", "check", "irreducible", perm)
        _, single, _ = run(capsys, "--json", "check", which, perm)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == verdict
        assert payload["witness"] == json.loads(single)["witness"] is not None
    assert payload["witness"] == {"i0": 3, "j0": 9, "bullet": 2}
    _, out, _ = run(capsys, "--json", "check", "irreducible", "1 2 2 3 3 1 / 0 0")
    assert json.loads(out)["witness"]["zero_letter"] == "0"
    _, out, _ = run(capsys, "--json", "check", "irreducible", "1 2 3 4 3 5 4 / 6 6 1 5 2")
    assert json.loads(out) == {"schema": "1", "verdict": "irreducible", "witness": None}


def test_enumerate_pattern(capsys):
    code, out, _ = run(capsys, "enumerate", "--pattern", "8")
    assert code == 0
    assert out.strip().endswith("7 classes")


def test_enumerate_one_order_pattern_that_does_not_fill_the_type(capsys):
    # Q(4) has 6 junctions: no class of type (5,5), which Q(8) fills
    code, out, _ = run(capsys, "enumerate", "--type", "5,5", "--pattern", "4")
    assert code == 0
    assert out.strip() == "0 classes"


def test_enumerate_needs_type_or_pattern(capsys):
    code, out, err = run(capsys, "enumerate")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--type" in err


def test_enumerate_bad_type(capsys):
    code, out, err = run(capsys, "enumerate", "--type", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "r,l" in err
    code, out, err = run(capsys, "enumerate", "--type", "0,2")
    assert (code, out, err) == (2, "", "error: rows may not be empty\n")


def test_enumerate_unknown_symmetry_flag(capsys):
    code, out, err = run(capsys, "enumerate", "--type", "5,5", "--sym", "rotate,flip")
    assert (code, out, err) == (2, "", "error: unknown symmetry flags: flip\n")


def test_lengths_unknown_letter(capsys):
    code, out, err = run(capsys, "decompose", "1 2 / 2 1", "--lengths", "x=1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "letter=value" in err


def test_lengths_not_integers(capsys):
    code, out, err = run(capsys, "decompose", "1 2 / 2 1", "--lengths", "1,a")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--lengths" in err


def test_lengths_explicit_zero(capsys):
    code, out, err = run(capsys, "suspend", "1 2 / 2 1", "--lengths", "1=0,2=0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "positive" in err


def test_lengths_repeated_letter(capsys):
    code, out, err = run(capsys, "suspend", "1 2 / 2 1", "--lengths", "1=3,1=1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "twice" in err


def test_lengths_left_out_letters_default_to_one(capsys):
    code, out, _ = run(capsys, "--json", "suspend", "1 2 / 2 1", "--lengths", "2=4")
    assert code == 0
    assert json.loads(out)["lengths"] == {"1": 1, "2": 4}


def test_rep_irr_extra_parameter(capsys):
    code, out, err = run(capsys, "rep", "irr", "12-I", "extra")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "one name" in err


def test_reproduce_appendix_filter_matches_nothing(capsys):
    code, out, err = run(capsys, "reproduce-appendix", "--only", "nosuch")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "nosuch" in err


def test_rep_missing_parameter(capsys):
    code, out, err = run(capsys, "rep", "pi1", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "r l" in err


def test_enumerate_pattern_not_integers(capsys):
    code, out, err = run(capsys, "enumerate", "--pattern", "1,x")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--pattern" in err


def test_classify_pattern_not_integers(capsys):
    code, out, err = run(capsys, "classify", "--pattern", "1,x")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "--pattern" in err


def test_classify_empty_pattern(capsys):
    code, out, err = run(capsys, "classify", "--pattern=")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_enumerate_empty_pattern(capsys):
    for argv in (["--type", "5,5", "--pattern="], ["--pattern="]):
        code, out, err = run(capsys, "enumerate", *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "singularity order" in err


def test_enumerate_rejects_patterns_that_are_not_strata(capsys):
    # the same error and exit code as classify, not "0 classes"
    for pattern, reason in (("5", "multiple of 4"), ("-2,6", "below -1")):
        code, _, classify_err = run(capsys, "classify", "--pattern=" + pattern)
        assert code == 2 and reason in classify_err
        for argv in (["--pattern=" + pattern], ["--type", "3,3", "--pattern=" + pattern]):
            code, out, err = run(capsys, "enumerate", *argv)
            assert code == 2 and out == ""
            assert err == classify_err


def test_bubble_budget_reports_candidates_tried(capsys):
    code, out, err = run(capsys, "--budget", "5", "bubble", "1 2 1 2 3 / 3 4 5 4 5", "1")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "(tried 5)" in err


def test_bubble_budget_below_one(capsys):
    for budget in ("0", "-5"):
        code, out, err = run(capsys, "--budget", budget, "bubble", "1 2 1 2 3 / 3 4 5 4 5", "1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "budget" in err and "tried" not in err


def test_orbit_cap_below_one(capsys):
    for cap in ("0", "-3"):
        code, out, err = run(capsys, "orbit", "1 1 / 2 2", "--cap", cap)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "cap" in err


def test_orbit_refuses_a_cover_too_large_to_build(capsys):
    code, out, err = run(capsys, "orbit", "1 1 / 2 2", "--lengths", "1=100000000,2=100000000")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "400000000 squares" in err


def test_classify_unknown_moves(capsys):
    for moves in ("vprem,orbit", ""):
        code, out, err = run(capsys, "classify", "--pattern", "8", "--moves", moves)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "vperm,orbit,excise,decode" in err


@pytest.mark.parametrize("pattern", ["-1,3,6", "-1,3,3,3"])
def test_classify_with_excise_keeps_exceptional_strata_apart(capsys, pattern):
    # both strata have two components; an excise slot into a disconnected
    # smaller stratum would join them
    code, out, _ = run(capsys, "classify", "--pattern=" + pattern, "--moves", "vperm,orbit,excise,decode", "--json")
    assert code == 0
    payload = json.loads(out)
    assert (payload["lower_bound"], payload["upper_bound"]) == (1, 2)


def test_enumerate_sym_sensitivity(capsys):
    # negative control: without row swap the same enumeration overcounts
    code, out, _ = run(capsys, "--sym", "relabel,rotate", "--json", "enumerate", "--type", "5,5", "--pattern", "8")
    assert code == 0
    assert json.loads(out)["count"] == 5
    code, out, _ = run(capsys, "--sym", "relabel,rotate,swap", "--json", "enumerate", "--type", "5,5", "--pattern", "8")
    assert json.loads(out)["count"] == 4


def test_angle_and_excise(capsys):
    rep = "1 2 3 4 2 5 6 / 1 4 5 7 6 7 3"
    code, out, _ = run(capsys, "angle", rep, "--lengths", "1 1 1 1 1 1 1 1 1 1 1 1 1 1")
    assert code == 0 and "s=2" in out
    code, out, _ = run(capsys, "excise", rep)
    assert code == 0 and "angle 2" in out


def test_angle_of_the_flat_torus_finds_no_simple_cylinder(capsys):
    # its one cylinder passes the 2*pi point with passage (0, 1) on both sides, in one wedge
    code, out, _ = run(capsys, "angle", "1 / 1")
    assert (code, out) == (0, "no simple cylinder\n")
    code, out, _ = run(capsys, "angle", "1 / 1", "--json")
    assert code == 0 and json.loads(out)["angles"] == []


def test_vperm(capsys):
    code, out, _ = run(capsys, "vperm", "0 1 0 / 2 3 2 1 3", "--lengths", "2 1 2 1 1 1 1 1")
    assert code == 0 and "lambda" in out


def test_rep_subcommand(capsys):
    code, out, _ = run(capsys, "rep", "pi1", "1", "1")
    assert code == 0 and "hyp:pi1(1,1)" in out
    code, out, _ = run(capsys, "rep", "irr", "12-I")
    assert code == 0 and "irr:12-I" in out


def test_classify_small(capsys):
    code, out, _ = run(capsys, "--json", "classify", "--pattern=-1,5")
    assert code == 0
    payload = json.loads(out)
    assert payload["upper_bound"] == 1
    assert len(payload["classes"]) == 2


def test_reproduce_appendix_filter(capsys):
    code, out, _ = run(capsys, "reproduce-appendix", "--only", "fig")
    assert code == 0
    assert "[PASS] fig-suspension" in out

    # the refuted orbit claim is reported as data with exit 1
    code, out, _ = run(capsys, "reproduce-appendix", "--only", "q8-one-orbit")
    assert code == 1
    assert "[FAIL] q8-one-orbit" in out


# -- bounded fuzz of the exit-code contract ---------------------------------

FUZZ_COMMANDS = (
    ["parse"], ["stratum"], ["check", "weak"], ["check", "red"], ["check", "star"], ["check", "irreducible"],
    ["suspend"], ["spectrum"], ["decompose"], ["angle"], ["vperm"], ["orbit"], ["excise"], ["bubble"],
)
LENGTH_COMMANDS = {"suspend", "spectrum", "decompose", "angle", "vperm", "orbit"}
FUZZ_TOKENS = ["1", "2", "3", "0", "-1", "9", "a", "b", "/", "//", "=", ",", "1,2", "x=1", "", " ", "\n"]


@st.composite
def small_permutation(draw) -> str:
    k = draw(st.integers(1, 5))
    cells = draw(st.permutations([x for x in range(1, k + 1) for _ in range(2)]))
    r = draw(st.integers(1, 2 * k - 1))
    return "%s / %s" % (" ".join(map(str, cells[:r])), " ".join(map(str, cells[r:])))


@st.composite
def cli_argv(draw) -> list[str]:
    command = draw(st.sampled_from(FUZZ_COMMANDS))
    tokens = st.lists(st.sampled_from(FUZZ_TOKENS), max_size=8).map(" ".join)
    perm = draw(st.one_of(small_permutation(), small_permutation(), tokens))
    argv = command + [perm]
    if command == ["bubble"]:
        argv.append(str(draw(st.integers(-1, 6))))
    if command[0] in LENGTH_COMMANDS and draw(st.integers(0, 2)) == 0:
        values = st.integers(-1, 4)
        if draw(st.booleans()):
            text = ",".join(map(str, draw(st.lists(values, max_size=10))))
        else:
            pairs = draw(st.lists(st.tuples(st.sampled_from(["1", "2", "3", "4", "5", "a"]), values), max_size=5))
            text = ",".join("%s=%d" % pair for pair in pairs)
        argv += ["--lengths", text]
    if draw(st.booleans()):
        argv.append("--json")
    if draw(st.booleans()):
        argv += ["--seed", str(draw(st.integers(-3, 50)))]
    # the orbit walk is capped so that every example stays small
    if command == ["orbit"]:
        argv += ["--cap", str(draw(st.integers(-1, 50)))]
    if draw(st.integers(0, 19)) == 7:  # an option the command does not take, or one without its value
        argv.append(draw(st.sampled_from(["--cap", "--lengths", "--bogus", "--seed"])))
    return argv


@settings(max_examples=400, deadline=None)
@given(cli_argv())
def test_cli_exits_0_1_or_2_and_explains_exit_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line itself
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert "error: " in err.getvalue(), argv
