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
        (_result(JSON, '{"a": [1.0, 2]}'), _result(JSON, '{"a": [1.25, 2]}'), 0.25, None),
        # a chained job reads a moved output: its input differs too
        (_result(JSON, '{"a": 1.0}'), _result(JSON, '{"a": 1.5}', sha="1" * 16), 0.5, None),
        (_result(JSON, '{"a": [1.0, 2]}'), _result(JSON, '{"a": [1.0, 3]}'), None, "2 became 3"),
        (_result(JSON, '{"a": 1.0}'), _result(JSON, '{"a": 1}'), None, "float became int"),
        (_result(JSON, '{"a": 1.0}'), _result(JSON, '{"b": 1.0}'), None, "object keys differ"),
        (_result(JSON, '{"a": "x"}'), _result(JSON, '{"a": "y"}'), None, "'x' became 'y'"),
        (_result(JSON, "{}"), _result(JSON, "", code=3), None, "exit 0 became 3"),
        (_result(JSON, "", 3, "error: a\n"), _result(JSON, "", 3, "error: b\n"), None,
         "stderr differs"),
        (_result(TEXT, "a: +1.000000 b: +2.000000"), _result(TEXT, "a: +1.000002 b: +2.000001"),
         pytest.approx(2e-6), None),
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
