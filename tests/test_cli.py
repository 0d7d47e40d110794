import decimal
import functools
import json
import os
import pathlib
import subprocess
import sys
import time
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import nablachains
from nablachains import (
    DifferentialForm,
    EnumerationCapError,
    IntegerPolynomial,
    LevelMismatchError,
    NotComposableError,
    Polynomial,
    Recurrence,
    TrivialityClass,
    characteristic_polynomial,
    classify_word,
    cli,
    count_sequence,
    count_total,
    enumerate_nontrivial,
    enumerate_words,
    exterior_derivative,
    is_zero_operator,
    minimal_recurrence,
    nabla,
    reference_recurrences,
    verify_recurrence,
)
from nablachains.cli import UsageError, main

REPO = pathlib.Path(__file__).resolve().parents[1]
SCHEMA_PATH = REPO / "schemas" / "output.json"
# lets a child interpreter import the package under test
CHILD_ENV = {**os.environ, "PYTHONPATH": str(pathlib.Path(nablachains.__file__).parents[1])}

try:
    import jsonschema
except ImportError:
    jsonschema = None


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@functools.cache
def schema_validator():
    # jsonschema.validate checks the schema itself on every call; do it once
    schema = json.loads(SCHEMA_PATH.read_text())
    validator = jsonschema.validators.validator_for(schema)
    validator.check_schema(schema)
    return validator(schema)


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    payload = json.loads(out)
    if jsonschema is not None:
        schema_validator().validate(payload)
    return code, payload, err


def test_count_plain(capsys):
    code, out, _ = run(capsys, "count", "--n", "3", "--k", "5")
    assert code == 0
    assert out.strip() == "21"


def test_count_k0(capsys):
    code, out, _ = run(capsys, "count", "--n", "3", "--k", "0")
    assert code == 0
    assert out.strip() == "1"


def test_count_json_is_decimal_string(capsys):
    code, payload, _ = run_json(capsys, "count", "--n", "4", "--k", "3", "--format", "json")
    assert code == 0
    assert payload == {"n": 4, "k": 3, "count": "8"}


def test_count_survives_big_integers(capsys):
    code, payload, _ = run_json(capsys, "count", "--n", "3", "--k", "300", "--format", "json")
    assert code == 0
    assert int(payload["count"]) > 10**60


def _digits(value: int) -> str:
    # reference decimal string, with str()'s digit limit lifted only here
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def test_count_beyond_str_digit_limit(capsys):
    # f(30000) for n=3 has 6270 digits, past str()'s default 4300-digit limit
    expected = _digits(count_total(3, 30000))
    code, out, _ = run(capsys, "count", "--n", "3", "--k", "30000")
    assert code == 0
    assert out == expected + "\n"
    code, out, _ = run(capsys, "count", "--n", "3", "--k", "30000", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 3, "k": 30000, "count": expected}


def test_count_refuses_a_result_over_the_bit_budget(capsys):
    # refused from the bound k - 1 + n.bit_length() before any stepping
    start = time.monotonic()
    code, out, err = run(capsys, "count", "--n", "3", "--k", "1000000000")
    assert time.monotonic() - start < 5.0
    assert (code, out) == (1, "")
    assert err == (
        "error: f(k) may need up to 1000000001 bits, over the budget of 131072 bits\n"
    )


def test_count_bit_budget_boundary(capsys):
    # n = 3 has 2 bits: k = 2^17 - 1 needs up to 2^17 bits, k = 2^17 one more
    k = cli.MAX_COUNT_BITS - 1
    code, out, err = run(capsys, "count", "--n", "3", "--k", str(k), "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"n": 3, "k": k, "count": _digits(count_total(3, k))}
    code, out, err = run(capsys, "count", "--n", "3", "--k", str(k + 1))
    assert (code, out) == (1, "")
    assert "over the budget of 131072 bits" in err


def test_sequence_refuses_values_over_the_bit_budget(capsys):
    # refused from the sum of the per-term bounds before any stepping
    start = time.monotonic()
    code, out, err = run(capsys, "sequence", "--n", "3", "--k-max", "1000000000")
    assert time.monotonic() - start < 5.0
    assert (code, out) == (1, "")
    assert err == (
        "error: f(1..k_max) may need up to 500000001500000000 bits in all, "
        "over the budget of 536870912 bits\n"
    )
    # n = 64 (7 bits) is admitted up to k_max = 32 761
    code, out, err = run(capsys, "sequence", "--n", "64", "--k-max", "32762")
    assert (code, out) == (1, "")
    assert err == (
        "error: f(1..k_max) may need up to 536887275 bits in all, "
        "over the budget of 536870912 bits\n"
    )


def test_sequence_bit_budget_boundary(capsys, monkeypatch):
    # n = 3 (2 bits) at k_max = 10 needs up to 45 + 20 bits; so does the
    # budget, and one more term is refused
    monkeypatch.setattr(cli, "MAX_SEQUENCE_BITS", 65)
    code, out, err = run(capsys, "sequence", "--n", "3", "--k-max", "10")
    assert (code, out, err) == (0, "3,5,8,13,21,34,55,89,144,233\n", "")
    code, out, err = run(capsys, "sequence", "--n", "3", "--k-max", "11")
    assert (code, out) == (1, "")
    assert err == "error: f(1..k_max) may need up to 77 bits in all, over the budget of 65 bits\n"


def test_sequence_csv_beyond_str_digit_limit():
    # streamed from a child process: the whole output is about 94 MB
    argv = ["sequence", "--n", "3", "--k-max", "30000", "--format", "csv"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "nablachains.cli", *argv],
        stdout=subprocess.PIPE,
        env=CHILD_ENV,
    )
    lines, last = 0, b""
    for line in proc.stdout:
        lines, last = lines + 1, line
    assert proc.wait(timeout=120) == 0
    assert lines == 30001
    assert last.decode() == f"30000,{_digits(count_total(3, 30000))}\n"


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(n=st.integers(3, 64), k_max=st.integers(1, 60))
def test_sequence_json_agrees_with_count(capsys, n, k_max):
    code, payload, _ = run_json(
        capsys, "sequence", "--n", str(n), "--k-max", str(k_max), "--format", "json"
    )
    assert code == 0
    counts = []
    for k in range(1, k_max + 1):
        code, single, _ = run_json(
            capsys, "count", "--n", str(n), "--k", str(k), "--format", "json"
        )
        assert (code, single["n"], single["k"]) == (0, n, k)
        counts.append(single["count"])
    assert payload == {"n": n, "k_max": k_max, "values": counts}


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_sequence_streams_what_was_built_whole(capsys, monkeypatch, fmt):
    # the oracle is the output as it was built before streaming: a joined or
    # json.dumps copy of every value, printed at once.  sequence itself holds
    # no tuple of values, so it runs with count_sequence unavailable
    def no_count_sequence(*args):
        raise AssertionError("sequence must not build the whole tuple")

    monkeypatch.setattr(cli, "count_sequence", no_count_sequence)
    for n, k_max in [(3, 1), (3, 2), (5, 17), (64, 300)]:
        values = [str(v) for v in count_sequence(n, k_max).values]
        want = {
            "json": json.dumps({"n": n, "k_max": k_max, "values": values}) + "\n",
            "csv": "k,f_k\n" + "".join(f"{k},{v}\n" for k, v in enumerate(values, start=1)),
            "plain": ",".join(values) + "\n",
        }[fmt]
        argv = ["sequence", "--n", str(n), "--k-max", str(k_max), "--format", fmt]
        assert run(capsys, *argv) == (0, want, "")


def test_sequence_walk_traps_any_rounding(capsys, monkeypatch):
    # sequence steps its walk in Decimal, exact because a rounded result
    # raises.  At one digit of precision, n = 6 gives f(2) = 10, which would
    # print as the exact but rounded 1E+1, and n = 5 at k = 3 (f(3) = 16)
    # makes sums such as 3 + 4 + 4 = 11 that one digit cannot hold
    monkeypatch.setattr(cli, "MAX_PREC", 1)
    assert run(capsys, "sequence", "--n", "6", "--k-max", "1") == (0, "6\n", "")
    assert run(capsys, "sequence", "--n", "5", "--k-max", "2") == (0, "5,9\n", "")
    with pytest.raises(decimal.Rounded):
        main(["sequence", "--n", "6", "--k-max", "2"])
    with pytest.raises(decimal.Inexact):
        main(["sequence", "--n", "5", "--k-max", "3"])


def test_sequence_plain(capsys):
    code, out, _ = run(capsys, "sequence", "--n", "3", "--k-max", "5")
    assert code == 0
    assert out.strip() == "3,5,8,13,21"


def test_sequence_csv(capsys):
    code, out, _ = run(capsys, "sequence", "--n", "4", "--k-max", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["k,f_k", "1,4", "2,6", "3,8", "4,12"]


def test_sequence_single(capsys):
    code, out, _ = run(capsys, "sequence", "--n", "3", "--k-max", "1")
    assert code == 0
    assert out.strip() == "3"


def test_recurrence_n3(capsys):
    code, payload, _ = run_json(capsys, "recurrence", "--n", "3")
    assert code == 0
    assert payload["relation"] == "f(i+2)=f(i+1) + f(i)"
    assert payload["matches_reference_table"] is True


def test_recurrence_n8_reports_reference_mismatch(capsys):
    # the total-count sequence for n=8 satisfies f(i+2)=3 f(i), a proper
    # divisor of the reference row f(i+4)=4 f(i+2) - 3 f(i); the derived
    # minimal recurrence is reported and differs from the row
    code, payload, _ = run_json(capsys, "recurrence", "--n", "8")
    assert code == 0
    assert payload["relation"] == "f(i+2)=3 f(i)"
    assert payload["matches_reference_table"] is False


@pytest.mark.parametrize(
    "n, lines",
    [
        (3, ["f(i+2)=f(i+1) + f(i)", "characteristic polynomial: t^3 - t^2 - t",
             "matches_reference_table: true"]),
        (6, ["f(i+2)=f(i+1) + f(i)", "characteristic polynomial: t^6 - 3*t^4 + t^2",
             "matches_reference_table: false"]),
    ],
)
def test_recurrence_plain(capsys, n, lines):
    assert run(capsys, "recurrence", "--n", str(n), "--format", "plain") == (
        0, "\n".join(lines) + "\n", ""
    )


def test_recurrence_n12_has_no_reference_entry(capsys):
    code, payload, _ = run_json(capsys, "recurrence", "--n", "12")
    assert code == 0
    assert "matches_reference_table" not in payload

    from nablachains import Recurrence, count_sequence, verify_recurrence

    rec = Recurrence(
        tuple(int(c) for c in payload["coefficients"]), payload["valid_from"]
    )
    assert verify_recurrence(rec, count_sequence(12, 2 * 12 + 8))


def test_enumerate_nontrivial_n3(capsys):
    code, payload, _ = run_json(
        capsys, "enumerate", "--n", "3", "--length", "3", "--nontrivial"
    )
    assert code == 0
    assert [w["applied"] for w in payload["words"]] == [[1, 3, 1], [2, 2, 2], [3, 1, 3]]
    assert payload["words"][0]["named"] == "grad ∘ div ∘ grad"


def test_enumerate_n3_length2(capsys):
    code, payload, _ = run_json(capsys, "enumerate", "--n", "3", "--length", "2")
    assert code == 0
    assert payload["count"] == "5"
    assert len(payload["words"]) == 5


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_enumerate_nontrivial_matches_classified_enumeration(capsys, monkeypatch, fmt):
    # the closed-form families print exactly what filtering every word does
    cases = [(str(n), str(length)) for n in range(3, 9) for length in range(1, 7)]
    argvs = [("enumerate", "--n", n, "--length", length, "--nontrivial", "--format", fmt)
             for n, length in cases]
    fast = [run(capsys, *argv) for argv in argvs]
    monkeypatch.setattr(
        cli,
        "enumerate_nontrivial",
        lambda n, length: [
            w for w in enumerate_words(n, length)
            if classify_word(w) is TrivialityClass.NONTRIVIAL
        ],
    )
    assert fast == [run(capsys, *argv) for argv in argvs]
    assert all(code == 0 and out for code, out, _ in fast)


def _enumerate_output_built_whole(n, length, nontrivial, fmt):
    """enumerate's stdout as it was built before streaming: every entry in a
    list, then one json.dumps or print per line.  The oracle for cmd_enumerate."""
    words = enumerate_nontrivial(n, length) if nontrivial else enumerate_words(n, length)
    entries = []
    for w in words:
        entry = {
            "applied": list(w.indices),
            "composition": w.composition_notation(),
            "class": classify_word(w).value,
        }
        if w.named_notation() is not None:
            entry["named"] = w.named_notation()
        entries.append(entry)
    if fmt == "json":
        payload = {"n": n, "length": length, "nontrivial_only": nontrivial,
                   "count": str(len(entries)), "words": entries}
        return json.dumps(payload) + "\n"
    if fmt == "csv":
        lines = ["applied,composition,class"] + [
            f"{' '.join(map(str, e['applied']))},{e['composition']},{e['class']}" for e in entries
        ]
    else:
        lines = [f"{tuple(e['applied'])}  {e['composition']}  [{e['class']}]" for e in entries]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_enumerate_streams_what_was_built_whole(capsys, fmt):
    # (12, 5) and (64, 3) print two-digit indices, and n = 64 is the largest admitted
    cases = [(n, length) for n in range(3, 9) for length in range(1, 8)]
    cases += [(3, 14), (5, 9), (12, 5), (64, 3), (3, 16)]
    for n, length in cases:
        for nontrivial in (False, True):
            argv = ["enumerate", "--n", str(n), "--length", str(length), "--format", fmt]
            want = _enumerate_output_built_whole(n, length, nontrivial, fmt)
            assert run(capsys, *argv, *["--nontrivial"] * nontrivial) == (0, want, "")


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_enumerate_trusts_the_walk(capsys, monkeypatch, fmt):
    # each row's word and class come from the walk that made it: no word is
    # rebuilt as a CompositionWord, nor classified again; at n = 3 json's
    # named field is written from the indices too
    calls = {"CompositionWord": 0, "classify_word": 0}
    init = nablachains.CompositionWord.__init__

    def counted_init(self, *args):
        calls["CompositionWord"] += 1
        init(self, *args)

    def counted_classify(*args):
        calls["classify_word"] += 1
        return classify_word(*args)

    monkeypatch.setattr(nablachains.CompositionWord, "__init__", counted_init)
    monkeypatch.setattr(cli, "classify_word", counted_classify)
    monkeypatch.setattr(nablachains.classify, "classify_word", counted_classify)
    for n in (3, 4):
        code, out, _ = run(capsys, "enumerate", "--n", str(n), "--length", "10", "--format", fmt)
        assert code == 0 and "zero" in out and "non-trivial" in out
        assert ('"named"' in out) == (n == 3 and fmt == "json")
        assert calls == {"CompositionWord": 0, "classify_word": 0}


def test_enumerate_nontrivial_at_the_cap_is_quick():
    # f(27) = 832 040 is admitted: three words, without listing the rest
    argv = [sys.executable, "-m", "nablachains.cli", "enumerate", "--n", "3", "--nontrivial"]
    proc = subprocess.run(
        [*argv, "--length", "27"], capture_output=True, text=True, env=CHILD_ENV, timeout=10
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    words = [w["applied"] for w in json.loads(proc.stdout)["words"]]
    assert words == [[k if t % 2 == 0 else 4 - k for t in range(27)] for k in (1, 2, 3)]
    proc = subprocess.run(
        [*argv, "--length", "28"], capture_output=True, text=True, env=CHILD_ENV, timeout=10
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        "error: enumeration of at least 1346269 words exceeds the cap of 1000000\n"
    )


@pytest.mark.parametrize("length", ["25000", "10000000"])
def test_enumerate_cap_error_returns_at_once(length):
    proc = subprocess.run(
        [sys.executable, "-m", "nablachains.cli", "enumerate", "--n", "3", "--length", length],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=30,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == (
        "error: enumeration of at least 1346269 words exceeds the cap of 1000000\n"
    )


def test_apply_gradient(capsys):
    code, payload, _ = run_json(
        capsys, "apply", "--n", "3", "--word", "1", "--input", "[x1*x2]"
    )
    assert code == 0
    assert payload["components"] == ["x2", "x1", "0"]
    assert payload["level"] == 1


def test_apply_zero_composition(capsys):
    code, payload, _ = run_json(
        capsys, "apply", "--n", "3", "--word", "1,2", "--input", "[x1^2*x3]"
    )
    assert code == 0
    assert payload["components"] == ["0", "0", "0"]


def test_apply_non_meaningful_word(capsys):
    code, out, err = run(capsys, "apply", "--n", "3", "--word", "1,1", "--input", "[x1]")
    assert code == 1
    assert out == ""
    assert err == "error: operators (1, 1) are not composable in dimension n=3\n"


def test_apply_checks_the_word_before_the_vector(capsys):
    code, out, err = run(capsys, "apply", "--n", "3", "--word", "1,1", "--input", "[bad")
    assert (code, out) == (1, "")
    assert "not composable" in err


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["apply", "--n", "3", "--word", "2", "--input", "x1, x2, x3"], 2,
         "input vector must be bracketed, e.g. [x1*x2, 0, x3]"),
        (["apply", "--n", "3", "--word", "2", "--input", "[x1, x2]"], 1,
         "word starting with that operator needs 3 input components at level 1, got 2"),
        (["sequence", "--n", "3", "--k-max", "0"], 1, "k_max must be >= 1, got 0"),
        (["enumerate", "--n", "3", "--length", "0"], 1, "length k must be >= 1, got 0"),
    ],
)
def test_input_shape_errors(capsys, argv, code, message):
    assert run(capsys, *argv) == (code, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, library",
    [
        (["count", "--n", "3", "--k", "-1"], lambda: count_total(3, -1)),
        (["sequence", "--n", "3", "--k-max", "0"], lambda: count_sequence(3, 0)),
        # enumerate checks enumerate_words' length and cap before either listing
        (["enumerate", "--n", "3", "--length", "0"], lambda: enumerate_words(3, 0)),
        (["enumerate", "--n", "3", "--length", "0", "--nontrivial"],
         lambda: enumerate_words(3, 0)),
    ],
)
def test_cli_bounds_are_the_library_messages(capsys, argv, library):
    with pytest.raises(ValueError) as info:
        library()
    assert run(capsys, *argv) == (1, "", f"error: {info.value}\n")


def test_apply_parse_error_is_usage(capsys):
    code, out, err = run(
        capsys, "apply", "--n", "3", "--word", "1", "--input", "[x1 +]"
    )
    assert code == 2


@pytest.mark.parametrize("number", ["1/0", "1/00"])
def test_apply_zero_denominator_is_usage_error(capsys, number):
    code, out, err = run(
        capsys, "apply", "--n", "3", "--word", "1", "--input", f"[{number}]"
    )
    assert code == 2
    assert out == ""
    assert err == f"error: bad polynomial: zero denominator in '{number}'\n"


# Arabic-Indic three, Arabic-Indic one, fullwidth three
@pytest.mark.parametrize("poly", ["x1^\u0663", "x\u0661", "\uff13*x1"])
def test_apply_non_ascii_digits_are_usage_errors(capsys, poly):
    code, out, err = run(capsys, "apply", "--n", "3", "--word", "1", "--input", f"[{poly}]")
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad polynomial: cannot parse polynomial near ")


# int() reads Arabic-Indic and fullwidth digits, underscores, a '+' and
# surrounding spaces; the CLI takes -?[0-9]+ only
@pytest.mark.parametrize(
    "argv, named",
    [
        (("count", "--n", "\u0663", "--k", "\uff15"), "argument --n"),
        (("count", "--n", "3", "--k", "\uff15"), "argument --k"),
        (("sequence", "--n", "3", "--k-max", "\u0665"), "argument --k-max"),
        (("recurrence", "--n", "\u0663"), "argument --n"),
        (("enumerate", "--n", "3", "--length", "\u0662"), "argument --length"),
        (("apply", "--n", "3", "--word", "\u0663", "--input", "[x1, x2, x3]"), "bad word"),
        (("apply", "--n", "3", "--word", "1,\u0662", "--input", "[x1]"), "bad word"),
        (("count", "--n", "3", "--k", "5_000"), "argument --k"),
        (("count", "--n", "3", "--k", "+5"), "argument --k"),
        (("count", "--n", "3", "--k", " 5"), "argument --k"),
        (("apply", "--n", "3", "--word", "+1", "--input", "[x1]"), "bad word"),
        (("apply", "--n", "3", "--word", "1_0", "--input", "[x1]"), "bad word"),
        (("apply", "--n", "3", "--word", "1,", "--input", "[x1]"), "bad word"),
    ],
)
def test_non_ascii_integer_arguments_are_usage_errors(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert named in err
    assert "invalid int value" in err


@pytest.mark.parametrize("word", ["1,3", " 1 , 3 ", "1,\t3"])
def test_word_items_ignore_the_whitespace_around_them(capsys, word):
    argv = ["apply", "--n", "3", "--input", "[1/2*x1^2*x2 + 1/3*x3^3]", "--format", "plain"]
    assert run(capsys, *argv, "--word", word) == (0, "[x2 + 2*x3]\n", "")


BAD_WORD = "bad word '-1,2': operator index -1 out of range 1..3"
UNBRACKETED = "input vector must be bracketed, e.g. [x1*x2, 0, x3]"


# argparse reads a value that starts with '-' and is not a plain negative
# number as an option; a --word or --input value reaches its own check
@pytest.mark.parametrize(
    "argv, message",
    [
        (("--word", "-1,2", "--input", "[x1]"), BAD_WORD),
        (("--word=-1,2", "--input", "[x1]"), BAD_WORD),
        (("--input", "[x1]", "--word", "-1,2"), BAD_WORD),
        (("--wor", "-1,2", "--inp", "[x1]"), BAD_WORD),
        (("--word", "-1", "--input", "[x1]"), "bad word '-1': operator index -1 out of range 1..3"),
        (("--word", "-h", "--input", "[x1]"), "bad word '-h': invalid int value: '-h'"),
        (("--word", "1", "--input", "-x1"), UNBRACKETED),
        (("--word", "1", "--i", "-x1"), UNBRACKETED),
        (("--word", "1", "--input=-x1"), UNBRACKETED),
        (("--word", "1", "--input", "-[x1]", "--format", "plain"), UNBRACKETED),
    ],
)
def test_dash_led_word_and_input_reach_their_own_checks(capsys, argv, message):
    assert run(capsys, "apply", "--n", "3", *argv) == (2, "", f"error: {message}\n")


def test_dash_led_word_from_the_command_line():
    proc = subprocess.run(
        [sys.executable, "-m", "nablachains.cli", "apply", "--n", "3", "--word", "-1,2",
         "--input", "[x1]"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=30,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {BAD_WORD}\n")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--word", "1", "--input", "--format", "json"), "--input"),
        (("--input", "[x1]", "--word", "--format", "json"), "--word"),
        (("--input", "[x1]", "--word", "--n", "3"), "--word"),
        (("--word", "1", "--input"), "--input"),
        (("--word", "1", "--inp", "--format", "json"), "--input"),
    ],
)
def test_a_missing_word_or_input_value_is_still_a_usage_error(capsys, argv, flag):
    code, out, err = run(capsys, "apply", "--n", "3", *argv)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {flag}: expected one argument\n")


def test_apply_oversized_exponent_is_usage_error(capsys):
    # parsing user input keeps int()'s digit limit, reported in our own words
    code, out, err = run(
        capsys, "apply", "--n", "3", "--word", "1", "--input", "[x1^" + "9" * 5000 + "]"
    )
    assert code == 2
    assert out == ""
    limit = sys.get_int_max_str_digits()
    assert err == f"error: bad polynomial: number too long: 5000 digits (limit {limit})\n"


@pytest.mark.parametrize("poly", ["9" * 5000 + "*x1", "1/" + "0" * 4999 + "3", "x" + "1" * 5000])
def test_apply_oversized_number_is_usage_error(capsys, poly):
    code, out, err = run(capsys, "apply", "--n", "3", "--word", "1", "--input", f"[{poly}]")
    assert (code, out) == (2, "")
    limit = sys.get_int_max_str_digits()
    assert err == f"error: bad polynomial: number too long: 5000 digits (limit {limit})\n"


@pytest.mark.parametrize("fmt", ["json", "plain"])
def test_apply_output_over_the_digit_limit_is_refused(capsys, fmt):
    # the input coefficient is at the limit; 2 * (10^L - 1) in the
    # derivative has L + 1 digits
    limit = sys.get_int_max_str_digits()
    code, out, err = run(
        capsys, "apply", "--n", "3", "--word", "1", "--input", f"[{'9' * limit}*x1^2]",
        "--format", fmt,
    )
    assert (code, out) == (1, "")
    assert err == f"error: coefficient too long to print: {limit + 1} digits (limit {limit})\n"


def test_apply_symbolic_cap_env(capsys, monkeypatch):
    # the cap is fixed; the variable that once moved it is ignored
    monkeypatch.setenv("NABLACHAINS_MAX_SYMBOLIC_N", "4")
    code, out, err = run(capsys, "apply", "--n", "13", "--word", "1", "--input", "[x1]")
    assert (code, out) == (1, "")
    assert err == "error: symbolic n 13 out of range 3..12\n"
    code, out, _ = run(
        capsys, "apply", "--n", "5", "--word", "1", "--input", "[x1]", "--format", "plain"
    )
    assert (code, out) == (0, "[1, 0, 0, 0, 0]\n")


def test_parser_is_built_once_and_keeps_no_state(capsys):
    # a usage error, --version and a valid call, each in a fresh parser and
    # then all three in turn through the one cached parser
    calls = [("recurrence", "--n"), ("--version",), ("recurrence", "--n", "3")]
    first = []
    for argv in calls:
        cli.build_parser.cache_clear()
        first.append(run(capsys, *argv))
    assert [code for code, _, _ in first] == [2, 0, 0]
    cli.build_parser.cache_clear()
    assert [run(capsys, *argv) for argv in calls] == first
    assert [run(capsys, *argv) for argv in calls] == first
    assert cli.build_parser() is cli.build_parser()


def test_bad_flags_exit_2(capsys):
    assert run(capsys, "count", "--n", "3")[0] == 2
    assert run(capsys, "count", "--n", "x", "--k", "1")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


# argv drawn from the subcommands, their flags and edge values, at sizes that
# run in milliseconds: --k <= 300, --length <= 6, words of at most three
# operators (apply has no work budget), and no verify
DEFAULT_FORMATS = {"count": "plain", "sequence": "plain", "recurrence": "json",
                   "enumerate": "json", "apply": "json"}
EDGE_INTEGERS = ["", "-0", "007", "+5", "5_000", " 5", "5 ", "\u0663", "0x10", "1e3", "1000000000",
                 "9" * 5000]
POLYNOMIALS = ["x1", "-x2^2", "1/2*x1*x3", "--x1", "0", "7*x2^3 - x3", "x1 - - x2", " 4 "]
BAD_POLYNOMIALS = ["x9", "3/0", "x1 +", "x1^", "?", "", "x1*-x2"]


def often(k):
    """True k - 1 times in k; Hypothesis draws the first of a list most."""
    return st.sampled_from([True] * (k - 1) + [False])


@st.composite
def integers(draw, lo, hi):
    # an edge value one time in five
    if draw(often(5)):
        return str(draw(st.integers(lo, hi)))
    return draw(st.sampled_from(EDGE_INTEGERS))


@st.composite
def words(draw):
    items = draw(st.lists(integers(1, 6), min_size=1, max_size=draw(st.sampled_from([1, 3]))))
    return draw(st.sampled_from([",", ", ", " ,"])).join(items)


@st.composite
def vectors(draw):
    size = draw(st.sampled_from([1, 3, 4, 6]))
    entries = draw(st.lists(st.sampled_from(POLYNOMIALS), min_size=size, max_size=size))
    if not draw(often(4)):
        entries[draw(st.integers(0, len(entries) - 1))] = draw(st.sampled_from(BAD_POLYNOMIALS))
    return draw(st.sampled_from(["[{}]", " [ {} ] ", "{}", "[{}"])).format(", ".join(entries))


@st.composite
def argvs(draw):
    command = draw(st.sampled_from([*DEFAULT_FORMATS, "nonsense"]))
    n = ("--n", integers(2, 65))
    flags = {
        "count": [n, ("--k", integers(-1, 300))],
        "sequence": [n, ("--k-max", integers(-1, 300))],
        "recurrence": [n],
        "enumerate": [n, ("--length", integers(-1, 6))],
        "apply": [("--n", integers(3, 6)), ("--word", words()), ("--input", vectors())],
        "nonsense": [],
    }[command]
    # each flag is left out one time in ten
    parts = [[flag, draw(values)] for flag, values in flags if draw(often(10))]
    if draw(st.booleans()):
        # json twice: it is the format whose output is checked further
        parts.append(["--format", draw(st.sampled_from(["plain", "json", "json", "csv", "xml"]))])
    if command == "enumerate" and draw(st.booleans()):
        parts.append(["--nontrivial"])
    if not draw(often(10)):
        parts.append([draw(st.sampled_from(["--bogus", "extra", "--n"]))])
    return [command, *(arg for part in draw(st.permutations(parts)) for arg in part)]


@given(argvs())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_main_exits_0_1_or_2_with_one_error_line_or_valid_json(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2)
    if code:
        assert sum("error:" in line for line in err.splitlines()) == 1
        return
    assert err == ""
    formats = [argv[i + 1] for i, arg in enumerate(argv) if arg == "--format"]
    if (formats or [DEFAULT_FORMATS[argv[0]]])[-1] == "json":
        payload = json.loads(out)
        if jsonschema is not None:
            schema_validator().validate(payload)


@pytest.mark.parametrize(
    "exc, code",
    [
        (UsageError("bad flag"), 2),
        (ValueError("out of range"), 1),
        (NotComposableError(1, 1, 3), 1),
        (LevelMismatchError(0, 1), 1),
        (EnumerationCapError(8, 5), 1),
    ],
    ids=lambda x: type(x).__name__ if isinstance(x, Exception) else str(x),
)
def test_error_class_exit_code(capsys, monkeypatch, exc, code):
    def fail(n, k):
        raise exc

    monkeypatch.setattr(cli, "count_total", fail)
    assert run(capsys, "count", "--n", "3", "--k", "1") == (code, "", f"error: {exc}\n")


def test_domain_error_exit_1(capsys):
    code, out, err = run(capsys, "count", "--n", "2", "--k", "1")
    assert code == 1
    code, out, err = run(capsys, "count", "--n", "3", "--k", "-1")
    assert code == 1


def test_determinism(capsys):
    outs = set()
    for _ in range(2):
        _, out, _ = run(capsys, "enumerate", "--n", "4", "--length", "3")
        outs.add(out)
    assert len(outs) == 1


def test_verify_counting_scope(capsys):
    code, payload, _ = run_json(capsys, "verify", "--scope", "counting", "--format", "json")
    assert code == 0
    assert payload["passed"] is True


def test_verify_oracle_failure_names_count_total(capsys, monkeypatch):
    monkeypatch.setattr(cli, "count_total", lambda n, k: 0)
    code, payload, _ = run_json(capsys, "verify", "--scope", "counting", "--format", "json")
    assert code == 1
    assert payload["checks"][0]["detail"] == "n=3 k=1: count_total 0 != brute force 3"


def test_verify_calculus_scope(capsys):
    code, payload, _ = run_json(capsys, "verify", "--scope", "calculus", "--format", "json")
    assert code == 0
    assert payload["passed"] is True


def test_verify_recurrence_scope_reports_table_disagreement(capsys):
    # derived recurrences pass; strict equality with the reference table
    # fails at n=6, 8 and 10, where the derived minimal recurrence is a proper
    # divisor of the row (see tests/test_recurrence.py for the analysis)
    code, payload, _ = run_json(capsys, "verify", "--scope", "recurrence", "--format", "json")
    assert code == 1
    by_name = {c["name"]: c["passed"] for c in payload["checks"]}
    assert by_name["characteristic recurrence annihilates counts n=3..12"] is True
    assert by_name["derived minimal recurrences annihilate and are minimal n=3..10"] is True
    assert by_name["minimal recurrences match reference table n=3..10"] is False


def test_verify_all_payload(capsys):
    code, payload, _ = run_json(capsys, "verify", "--scope", "all", "--format", "json")
    assert code == 1
    # each check's own time, checked in test_verify_checks_report_elapsed_seconds
    for check in payload["checks"]:
        del check["elapsed_s"]
    table = "minimal recurrences match reference table n=3..10"
    assert payload == {
        "scope": "all",
        "passed": False,
        "checks": [
            {"name": name, "passed": True}
            for name in [
                "oracle equality n=3..6, k=1..10",
                "n=3 counts are shifted Fibonacci, k=1..30",
                "derived minimal recurrences annihilate and are minimal n=3..10",
                "characteristic recurrence annihilates counts n=3..12",
            ]
        ]
        + [
            {
                "name": table,
                "passed": False,
                "detail": "5/8 rows match; derived minimal recurrences disagree "
                "with the reference table at n=[6, 8, 10]",
            }
        ]
        + [
            {"name": name, "passed": True}
            for name in [
                "d^2 == 0 on random polynomial forms",
                "grad identity (n=3)",
                "curl identity (n=3)",
                "div identity (n=3)",
                "triviality concordance (n=3..6, length=1..4)",
            ]
        ],
    }


def test_verify_checks_report_elapsed_seconds(capsys, monkeypatch):
    jsonschema = pytest.importorskip("jsonschema")
    clock = iter([1.0, 1.5, 4.0, 4.25])
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    code, payload, _ = run_json(capsys, "verify", "--scope", "counting", "--format", "json")
    assert code == 0
    # each check's span is the difference of the clock read around it
    assert [c["elapsed_s"] for c in payload["checks"]] == [0.5, 0.25]
    monkeypatch.undo()
    code, plain, _ = run(capsys, "verify", "--scope", "counting")
    assert plain.splitlines() == [
        "PASS  oracle equality n=3..6, k=1..10",
        "PASS  n=3 counts are shifted Fibonacci, k=1..30",
    ]
    for bad in ({"name": "x", "passed": True}, {"name": "x", "passed": True, "elapsed_s": -1.0}):
        with pytest.raises(jsonschema.ValidationError):
            schema_validator().validate({"scope": "counting", "passed": True, "checks": [bad]})


def test_verify_concordance_covers_n6_length4(capsys, monkeypatch):
    # a classifier wrong only at n = 6, length 4 is caught
    def classify(w):
        if (w.n, len(w)) == (6, 4):
            return TrivialityClass.UNDEFINED
        return classify_word(w)

    monkeypatch.setattr(cli, "classify_word", classify)
    code, payload, _ = run_json(capsys, "verify", "--scope", "calculus", "--format", "json")
    assert code == 1
    assert payload["checks"][-1]["detail"] == "mismatch at n=6, word (1, 2, 3, 4)"


def test_verify_oracle_runs_every_pair(capsys, monkeypatch):
    # a count_total wrong only at the last pair, n = 6, k = 10, is caught
    monkeypatch.setattr(cli, "count_total", lambda n, k: count_total(n, k) + ((n, k) == (6, 10)))
    code, payload, _ = run_json(capsys, "verify", "--scope", "counting", "--format", "json")
    assert code == 1
    assert payload["checks"][0]["detail"].startswith("n=6 k=10: count_total ")
    assert payload["checks"][1]["passed"] is True


def unsigned_d(form):
    """d without the sign dx_t picks up moving past the subset: d∘d != 0."""
    out = {}
    for s, g in form.components.items():
        for t in range(1, form.n + 1):
            if t not in s:
                key = tuple(sorted(s + (t,)))
                out[key] = out.get(key, Polynomial.zero(form.n)) + g.diff(t)
    return DifferentialForm(form.n, min(form.degree + 1, form.n), out)


def test_verify_d_squared_runs_every_form_and_catches_a_wrong_d(capsys, monkeypatch):
    def d_squared_detail(d):
        monkeypatch.setattr(cli, "exterior_derivative", d)
        _, payload, _ = run_json(capsys, "verify", "--scope", "calculus", "--format", "json")
        (check,) = [c for c in payload["checks"] if c["name"] == "d^2 == 0 on random polynomial forms"]
        return check.get("detail", "")

    calls = []
    assert d_squared_detail(lambda form: calls.append(form.n) or exterior_derivative(form)) == ""
    # d twice on 10 forms of each degree 0..n, n = 3..6
    assert len(calls) == 2 * 10 * sum(n + 1 for n in range(3, 7)) == 440
    assert d_squared_detail(unsigned_d) == "d^2 != 0 at n=3 degree=0"


def test_verify_concordance_catches_a_wrong_zero_test(capsys, monkeypatch):
    # an is_zero_operator wrong only at n = 6, length 4 is caught at its first word
    def zero_test(w, n):
        return is_zero_operator(w, n) is not ((n, len(w)) == (6, 4))

    monkeypatch.setattr(cli, "is_zero_operator", zero_test)
    code, payload, _ = run_json(capsys, "verify", "--scope", "calculus", "--format", "json")
    assert code == 1
    assert payload["checks"][-1]["detail"] == "mismatch at n=6, word (1, 2, 3, 4)"


def run_one_check(capsys, monkeypatch, name):
    """verify run on the named check alone, through main: (exit code, detail)."""
    ((scope, check),) = [
        (scope, check) for scope, checks in cli.SUITES.items() for n, check in checks if n == name
    ]
    with monkeypatch.context() as m:
        m.setitem(cli.SUITES, scope, [(name, check)])
        code, payload, _ = run_json(capsys, "verify", "--scope", scope, "--format", "json")
    (entry,) = payload["checks"]
    return code, entry.get("detail", "")


def counted(monkeypatch, name, fn):
    """Put fn in cli's namespace under name; return the list of its calls' arguments."""
    calls = []
    monkeypatch.setattr(cli, name, lambda *args: calls.append(args) or fn(*args))
    return calls


MINIMAL = "derived minimal recurrences annihilate and are minimal n=3..10"
CHARACTERISTIC = "characteristic recurrence annihilates counts n=3..12"
TABLE = "minimal recurrences match reference table n=3..10"


def last_coefficient_plus_one(rec):
    return Recurrence(rec.coefficients[:-1] + (rec.coefficients[-1] + 1,), rec.valid_from)


def test_verify_fibonacci_runs_every_k_and_catches_a_wrong_count(capsys, monkeypatch):
    # a count_total wrong only at (3, 30), the last k, is caught; the oracle
    # pairs stop at k = 10, so that check still passes
    calls = counted(monkeypatch, "count_total", lambda n, k: count_total(n, k) + ((n, k) == (3, 30)))
    code, payload, _ = run_json(capsys, "verify", "--scope", "counting", "--format", "json")
    assert code == 1
    assert [c.get("detail", "") for c in payload["checks"]] == ["", "k=30: f(k) != Fib(k+3)"]
    oracle = [(n, k) for n in range(3, 7) for k in range(1, 11)]
    assert calls == oracle + [(3, k) for k in range(1, 31)]


def test_verify_minimal_recurrences_runs_every_n_and_catches_faults(capsys, monkeypatch):
    def at_10(make):
        return lambda seq: make(minimal_recurrence(seq)) if seq.n == 10 else minimal_recurrence(seq)

    calls = counted(monkeypatch, "minimal_recurrence", at_10(lambda rec: rec))
    assert run_one_check(capsys, monkeypatch, MINIMAL) == (0, "")
    assert [seq.n for (seq,) in calls] == list(range(3, 11))
    # the reference row holds on the counts but has order 6; the counts at
    # n = 10 satisfy a divisor of order 3
    row = reference_recurrences()[10]
    assert row.order == 6 and verify_recurrence(row, count_sequence(10, 60))
    counted(monkeypatch, "minimal_recurrence", at_10(lambda rec: row))
    assert run_one_check(capsys, monkeypatch, MINIMAL) == (1, "n=10: a shorter recurrence also fits")
    counted(monkeypatch, "minimal_recurrence", at_10(last_coefficient_plus_one))
    assert run_one_check(capsys, monkeypatch, MINIMAL) == (
        1, "n=10: derived recurrence fails on longer sequence"
    )


def test_verify_characteristic_recurrences_runs_every_n_and_catches_a_wrong_charpoly(
    capsys, monkeypatch
):
    def wrong_at_12(a):
        p = characteristic_polynomial(a)
        if len(a) != 12:
            return p
        return IntegerPolynomial(p.coefficients[:1] + (p.coefficients[1] + 1,) + p.coefficients[2:])

    calls = counted(monkeypatch, "characteristic_polynomial", characteristic_polynomial)
    assert run_one_check(capsys, monkeypatch, CHARACTERISTIC) == (0, "")
    assert [len(a) for (a,) in calls] == list(range(3, 13))
    counted(monkeypatch, "characteristic_polynomial", wrong_at_12)
    assert run_one_check(capsys, monkeypatch, CHARACTERISTIC) == (
        1, "n=12: characteristic recurrence fails"
    )
    # the minimal-recurrence check's Hankel matrices are at most 5 x 5
    code, payload, _ = run_json(capsys, "verify", "--scope", "recurrence", "--format", "json")
    assert {c["name"]: c.get("detail", "") for c in payload["checks"]}[MINIMAL] == ""


def test_verify_reference_table_compares_every_row(capsys, monkeypatch):
    derived = {n: minimal_recurrence(count_sequence(n, 2 * n + 8)) for n in range(3, 11)}
    monkeypatch.setattr(cli, "reference_recurrences", lambda: dict(derived))
    assert run_one_check(capsys, monkeypatch, TABLE) == (0, "")
    derived[3] = last_coefficient_plus_one(derived[3])
    assert run_one_check(capsys, monkeypatch, TABLE) == (
        1, "7/8 rows match; derived minimal recurrences disagree with the reference table at n=[3]"
    )


@pytest.mark.parametrize(
    "i, name, detail",
    [
        (1, "grad identity (n=3)", "first-operator output disagrees with componentwise gradient"),
        (2, "curl identity (n=3)", "second-operator output disagrees with the curl formula"),
        (3, "div identity (n=3)", "third-operator output disagrees with the divergence formula"),
    ],
)
def test_verify_identities_catch_a_wrong_nabla(capsys, monkeypatch, i, name, detail):
    # a nabla wrong only for index i fails exactly the check for i
    monkeypatch.setattr(cli, "nabla", lambda j, v: nabla(j, v).scale(2 if j == i else 1))
    code, payload, _ = run_json(capsys, "verify", "--scope", "calculus", "--format", "json")
    assert code == 1
    assert {c["name"]: c["detail"] for c in payload["checks"] if not c["passed"]} == {name: detail}


def test_reproduce_script_cross_checks_pass():
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "reproduce_results.py")],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    # row n is fitted to f(1..2n + 8), 14 terms at n = 3
    assert "\nderived minimal recurrences (sequences of 2n + 8 terms):\n" in proc.stdout
    checks = proc.stdout.split("cross-checks:\n", 1)[1].splitlines()
    assert len(checks) == 7
    assert all(line.startswith("PASS  ") for line in checks)


def test_schema_file_is_valid_json():
    schema = json.loads(SCHEMA_PATH.read_text())
    assert "$defs" in schema
