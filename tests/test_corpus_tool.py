"""The corpus tool's output checks: non-finite stdout and the compare mode's verdicts."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

import cli_corpus  # noqa: E402

JSON = ["gate", "analyze"]
TEXT = ["--format", "text", "gate", "analyze"]


@pytest.mark.parametrize(
    "argv,out,bad",
    [
        (JSON, '{"a": 1.5, "b": [1, "inf"]}', False),
        (JSON, '{"a": Infinity}', True),
        (JSON, '{"a": [-Infinity]}', True),
        (JSON, '{"a": NaN}', True),
        (JSON, "", False),
        (TEXT, "row0_sq_sum: +1.000000\nkind: trace_preserving", False),
        (TEXT, "row0_sq_sum: +inf", True),
        (TEXT, "  +0.500000-nanj", True),
    ],
)
def test_non_finite_stdout(argv, out, bad):
    assert cli_corpus.non_finite(argv, out) is bad


def _result(argv, out, code=0, err="", sha="0" * 16):
    return [argv, sha, code, out, err]


@pytest.mark.parametrize(
    "base,change,move,why",
    [
        (_result(JSON, '{"a": [1.0, 2]}'), _result(JSON, '{"a": [1.0, 2]}'), None, None),
        (_result(JSON, '{"a": [1.0, 2]}'), _result(JSON, '{"a": [1.0000000000000002, 2]}'),
         2.220446049250313e-16, None),
        # a chained job reads a moved output: its input differs too
        (_result(JSON, '{"a": 1.0}'), _result(JSON, '{"a": 1.0000000000005}', sha="1" * 16),
         pytest.approx(5e-13, rel=1e-3), None),
        # a float may move by 1e-12 times max(1, |a|, |b|), and no more
        (_result(JSON, '{"a": 1e6}'), _result(JSON, '{"a": 1000000.0000005}'),
         pytest.approx(5e-7, rel=1e-3), None),
        (_result(JSON, '{"a": [1.0, 2]}'), _result(JSON, '{"a": [1.25, 2]}'), None,
         "float 1.0 became 1.25"),
        (_result(JSON, '{"a": 1e-9}'), _result(JSON, '{"a": 3e-12}'), None,
         "float 1e-09 became 3e-12"),
        (_result(JSON, '{"a": [1.0, 2]}'), _result(JSON, '{"a": [1.0, 3]}'), None, "2 became 3"),
        (_result(JSON, '{"a": 1.0}'), _result(JSON, '{"a": 1}'), None, "float became int"),
        (_result(JSON, '{"a": 1.0}'), _result(JSON, '{"b": 1.0}'), None, "object keys differ"),
        (_result(JSON, '{"a": "x"}'), _result(JSON, '{"a": "y"}'), None, "'x' became 'y'"),
        (_result(JSON, "{}"), _result(JSON, "", code=3), None, "exit 0 became 3"),
        (_result(JSON, "", 3, "error: a\n"), _result(JSON, "", 3, "error: b\n"), None,
         "stderr differs"),
        (_result(TEXT, "a: +1.000000 b: +2.000000"), _result(TEXT, "a: +1.000001 b: +1.999999"),
         pytest.approx(1e-6), None),
        (_result(TEXT, "a: +1.234560e-05"), _result(TEXT, "a: +1.234561e-05"),
         pytest.approx(1e-11), None),
        # a text number may move by one unit of its last printed digit, and no more
        (_result(TEXT, "a: +1.000000 b: +2.000000"), _result(TEXT, "a: +1.000002 b: +2.000001"),
         None, "+1.000000 became +1.000002"),
        (_result(TEXT, "a: +nan"), _result(TEXT, "a: +0.000000"), None, "+nan became +0.000000"),
        (_result(TEXT, "count: 3"), _result(TEXT, "count: 4"), None, "3 became 4"),
        (_result(TEXT, "a: +1.000000"), _result(TEXT, "b: +1.000000"), None,
         "text outside the numbers differs"),
    ],
)
def test_compare_verdicts(base, change, move, why):
    assert cli_corpus.difference(base, change) == (move, why)


def test_run_case_records_an_argument_error_as_its_exit_code():
    def refuses(argv):
        print("usage: ququat", file=sys.stderr)
        raise SystemExit(2)

    assert cli_corpus.run_case(refuses, ["--precision", "-1"], "") == (2, "", "usage: ququat\n")


SHA = "0123456789abcdef"
ANALYZE = " ".join(JSON)
STDERR_MOVES = (_result(JSON, "", 3, "error: a\n", SHA), _result(JSON, "", 3, "error: b\n", SHA))
UNMOVED = (_result(JSON, '{"a": 1.0}', sha=SHA),
           _result(JSON, '{"a": 1.0000000000000002}', sha=SHA))


@pytest.mark.parametrize(
    "pairs,expected,failures",
    [
        # a difference that is not listed
        ([STDERR_MOVES], {}, 1),
        ([STDERR_MOVES], {(ANALYZE, "f" * 16): {"stderr"}}, 2),
        # a listed difference
        ([STDERR_MOVES, UNMOVED], {(ANALYZE, SHA): {"stderr"}}, 0),
        # a listed case with no difference beyond the last bits
        ([UNMOVED], {(ANALYZE, SHA): {"stdout"}}, 1),
        # a kind other than the listed one, or more kinds than listed
        ([STDERR_MOVES], {(ANALYZE, SHA): {"stdout"}}, 1),
        ([STDERR_MOVES], {(ANALYZE, SHA): {"stderr", "exit"}}, 1),
        ([(_result(JSON, "{}", sha=SHA), _result(TEXT, "{}", sha=SHA))],
         {(ANALYZE, SHA): {"stdout"}}, 1),
        ([(_result(JSON, "", 3, "error: a\n", SHA), _result(JSON, "{}", 0, "", SHA))],
         {(ANALYZE, SHA): {"exit"}}, 1),
        # a case that differs in several kinds lists each of them
        ([(_result(JSON, "", 3, "error: a\n", SHA), _result(JSON, "{}", 0, "", SHA))],
         {(ANALYZE, SHA): {"exit", "stderr", "stdout"}}, 0),
    ],
)
def test_expected_differences(pairs, expected, failures, capsys):
    assert cli_corpus.report(pairs, expected) == failures
    assert capsys.readouterr().out.endswith(f"; {failures} fail\n")


def test_an_expected_differences_file_names_single_cases(tmp_path):
    path = tmp_path / "expected.txt"
    path.write_text(f"# comment\n\n{ANALYZE}\t{SHA}\tstderr\n{ANALYZE}\t{SHA}\texit\n")
    assert cli_corpus.read_expected(path) == {(ANALYZE, SHA): {"stderr", "exit"}}
    for line in (f"*\t{SHA}\tstderr", f"gate *\t{SHA}\tstderr", f"{ANALYZE}\t*\tstderr",
                 f"{ANALYZE}\t0123\tstderr", f"{ANALYZE}\t{SHA}\t*", f"{ANALYZE}\t{SHA}",
                 f"{ANALYZE} {SHA} stderr"):
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match="not 'argv<TAB>sha<TAB>kind' of one case"):
            cli_corpus.read_expected(path)
