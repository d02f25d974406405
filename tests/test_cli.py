"""Command-line interface tests: subcommands, formats and exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from ququat.cli import EXIT_CONTRACT, EXIT_OK, EXIT_SCHEMA, EXIT_ZERO_PROBABILITY, main


def run_cli(args, payload=None, tmp_path=None, capsys=None):
    """Invoke main() with an optional JSON document written to a temp file."""
    argv = list(args)
    if payload is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload))
        argv.append(str(path))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestStateCommands:
    def test_convert_density_to_pvec(self, tmp_path, capsys):
        payload = {"entries": [[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]}
        code, out, _ = run_cli(["state", "convert"], payload, tmp_path, capsys)
        assert code == EXIT_OK
        assert json.loads(out) == {"n": 1, "P": [1.0, 0.0, 0.0, 0.0]}

    def test_convert_round_representation(self, tmp_path, capsys):
        payload = {"n": 1, "P": [1, 0, 0, 1]}
        code, out, _ = run_cli(
            ["state", "convert", "--representation", "round"], payload, tmp_path, capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["rho"] == pytest.approx([2**-0.5, 0, 0, 2**-0.5])

    def test_convert_to_density(self, tmp_path, capsys):
        payload = {"n": 1, "P": [1, 0, 0, 1]}
        code, out, _ = run_cli(
            ["state", "convert", "--to", "density"], payload, tmp_path, capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["entries"][0][0] == [1.0, 0.0]

    def test_validate(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["state", "validate"], {"n": 1, "P": [1, 0.9, 0.9, 0.9]}, tmp_path, capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["psd"] is False
        assert doc["valid"] is False


class TestGateCommands:
    def test_from_unitary(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["gate", "from-unitary"], {"U": [[0, 1], [1, 0]]}, tmp_path, capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "trace_preserving"
        assert doc["entries"] == [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
        ]

    def test_from_unitary_rejects_non_unitary(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["gate", "from-unitary"], {"U": [[1, 0], [0, 0.5]]}, tmp_path, capsys
        )
        assert code == EXIT_CONTRACT
        assert "unitary" in err

    def test_from_kraus(self, tmp_path, capsys):
        payload = {"ops": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}
        code, out, _ = run_cli(["gate", "from-kraus"], payload, tmp_path, capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "trace_preserving"

    def test_from_lindblad(self, tmp_path, capsys):
        payload = {
            "model": {"H": [0, 0, 0], "C": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
            "tau": 2.0,
        }
        code, out, _ = run_cli(["gate", "from-lindblad"], payload, tmp_path, capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        s = np.exp(-1.0)
        assert doc["entries"][1][1] == pytest.approx(s, abs=1e-12)

    def test_analyze(self, tmp_path, capsys):
        gate = {"entries": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]}
        code, out, _ = run_cli(["gate", "analyze"], gate, tmp_path, capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["trace_preserving"] and doc["unital"] and doc["orthogonal"]
        assert doc["completely_positive"]

    def test_decompose_svd(self, tmp_path, capsys):
        gate = {"entries": [[1, 0, 0, 0], [0, 0.5, 0, 0], [0, 0, 0.25, 0], [0.5, 0, 0, 0.75]]}
        code, out, _ = run_cli(["gate", "decompose", "--svd"], gate, tmp_path, capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        factors = [np.array(f["entries"]) for f in doc["factors"]]
        product = factors[0] @ factors[1] @ factors[2] @ factors[3]
        assert np.max(np.abs(product - np.array(gate["entries"]))) < 1e-10

    def test_decompose_euler(self, tmp_path, capsys):
        gate = {
            "entries": [[1, 0, 0, 0], [0, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        }
        code, out, _ = run_cli(["gate", "decompose", "--euler"], gate, tmp_path, capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["alpha"] == pytest.approx(np.pi / 2)
        assert doc["theta"] == 0.0

    def test_compose_and_tensor(self, tmp_path, capsys):
        not_gate = {"entries": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]}
        code, out, _ = run_cli(
            ["gate", "compose"], {"gates": [not_gate, not_gate]}, tmp_path, capsys
        )
        assert code == EXIT_OK
        assert np.array_equal(np.array(json.loads(out)["entries"]), np.eye(4))
        code, out, _ = run_cli(
            ["gate", "tensor"], {"gates": [not_gate, not_gate]}, tmp_path, capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["n_in"] == 2 and len(doc["entries"]) == 16

    def test_adjoint(self, tmp_path, capsys):
        gate = {"entries": [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0]]}
        code, out, _ = run_cli(["gate", "adjoint"], gate, tmp_path, capsys)
        assert code == EXIT_OK
        assert np.array_equal(
            np.array(json.loads(out)["entries"]), np.array(gate["entries"]).T
        )


class TestMeasureReversible:
    def test_measure_probabilities(self, tmp_path, capsys):
        payload = {
            "projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            "state": {"n": 1, "P": [1, 1, 0, 0]},
        }
        code, out, _ = run_cli(["measure"], payload, tmp_path, capsys)
        assert code == EXIT_OK
        assert json.loads(out)["probabilities"] == pytest.approx([0.5, 0.5])

    def test_measure_post_select_zero_probability(self, tmp_path, capsys):
        payload = {
            "projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            "state": {"n": 1, "P": [1, 0, 0, 1]},
            "post_select": 1,
        }
        code, _, err = run_cli(["measure"], payload, tmp_path, capsys)
        assert code == EXIT_ZERO_PROBABILITY
        assert "probability" in err

    def test_reversible(self, tmp_path, capsys):
        payload = {
            "kraus": {"ops": [[[0, 1], [1, 0]]]},
            "projector": [[1, 0], [0, 1]],
        }
        code, out, _ = run_cli(["reversible"], payload, tmp_path, capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["reversible"] is True
        assert doc["mu_sq"] == pytest.approx(1.0)
        assert doc["superop_check"]["reversible"] is True


class TestMvlogicCommands:
    def test_table(self, capsys):
        code = main(["mvlogic", "table", "luk_neg"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        assert json.loads(out) == {"arity": 1, "outputs": [3, 2, 1, 0]}

    def test_dnf(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["mvlogic", "dnf"], {"arity": 1, "outputs": [3, 2, 1, 0]}, tmp_path, capsys
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["dnf"]["op"] == "max"

    def test_synth_and_verify(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["mvlogic", "synth"], {"arity": 1, "outputs": [3, 2, 1, 0]}, tmp_path, capsys
        )
        assert code == EXIT_OK
        gate = json.loads(out)
        assert gate["unital_realizable"] is False
        code, out, _ = run_cli(
            ["mvlogic", "verify"],
            {"gate": gate, "table": {"arity": 1, "outputs": [3, 2, 1, 0]}},
            tmp_path,
            capsys,
        )
        assert code == EXIT_OK
        assert json.loads(out)["realizes"] is True

    def test_closure(self, tmp_path, capsys):
        payload = {"generators": ["g1", "g2", "g3"], "max_arity": 1, "budget": 300}
        code, out, _ = run_cli(["mvlogic", "closure"], payload, tmp_path, capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["count"] == 256
        assert doc["complete"] is True


class TestUniversalityCommands:
    def test_pseudo(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["universality", "pseudo"], {"A": [[1, 0], [0, 1]]}, tmp_path, capsys
        )
        assert code == EXIT_OK
        mat = json.loads(out)["matrix"]
        assert mat[0][0] == [1.0, 0.0]

    def test_closure_dim(self, tmp_path, capsys):
        gens = []
        for mu in range(4):
            for nu in range(4):
                m = [[0] * 4 for _ in range(4)]
                m[mu][nu] = 1
                gens.append(m)
        code, out, _ = run_cli(
            ["universality", "closure-dim"], {"generators": gens}, tmp_path, capsys
        )
        assert code == EXIT_OK
        assert json.loads(out)["dimension"] == 32

    def test_swap(self, capsys):
        code = main(["universality", "swap"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        assert len(json.loads(out)["matrix"]) == 16


class TestSimulateAndMisc:
    def simulate_payload(self):
        return {
            "circuit": {
                "n": 1,
                "steps": [
                    {"unitary": [[0.7071067811865476, 0.7071067811865476],
                                  [0.7071067811865476, -0.7071067811865476]]},
                    {
                        "measure": {
                            "projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
                        },
                        "post_select": 0,
                    },
                ],
            },
            "initial": {"n": 1, "P": [1, 0, 0, 1]},
        }

    def test_simulate(self, tmp_path, capsys):
        code, out, _ = run_cli(["simulate"], self.simulate_payload(), tmp_path, capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["cumulative_probability"] == pytest.approx(0.5, abs=1e-10)
        assert doc["steps"][1]["probabilities"] == pytest.approx([0.5, 0.5])

    def test_simulate_deterministic_bytes(self, tmp_path, capsys):
        _, out1, _ = run_cli(
            ["--seed", "1", "simulate"], self.simulate_payload(), tmp_path, capsys
        )
        _, out2, _ = run_cli(
            ["--seed", "1", "simulate"], self.simulate_payload(), tmp_path, capsys
        )
        assert out1 == out2

    def test_schema_error_exit_code(self, tmp_path, capsys):
        payload = {"circuit": {"n": 1, "steps": [{"unitary": [[[1], 0], [0, 1]]}]},
                   "initial": {"n": 1, "P": [1, 0, 0, 0]}}
        code, _, err = run_cli(["simulate"], payload, tmp_path, capsys)
        assert code == EXIT_SCHEMA
        assert "steps[0].unitary[0][0]" in err

    def test_zero_probability_exit_code(self, tmp_path, capsys):
        payload = {
            "circuit": {
                "n": 1,
                "steps": [
                    {"measure": {"projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]},
                     "post_select": 1}
                ],
            },
            "initial": {"n": 1, "P": [1, 0, 0, 1]},
        }
        code, _, _ = run_cli(["simulate"], payload, tmp_path, capsys)
        assert code == EXIT_ZERO_PROBABILITY

    def test_version(self, capsys):
        code = main(["version"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        assert "version" in json.loads(out)

    def test_table_text_format(self, capsys):
        code = main(["--format", "text", "mvlogic", "table", "luk_neg"])
        out, _ = capsys.readouterr()
        assert code == EXIT_OK
        assert out == "3210\n"

    def test_closure_text_format(self, tmp_path, capsys):
        payload = {"generators": ["g2"], "max_arity": 1, "budget": 50}
        code, out, _ = run_cli(["--format", "text", "mvlogic", "closure"], payload, tmp_path, capsys)
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert "0132" in lines  # the generator itself
        assert all(len(line) == 4 and set(line) <= set("0123") for line in lines)

    def test_text_format(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["--format", "text", "gate", "from-unitary"], {"U": [[0, 1], [1, 0]]},
            tmp_path, capsys,
        )
        assert code == EXIT_OK
        assert "entries:" in out
        assert "+1.000000" in out

    def test_stdin_pipe_subprocess(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "ququat.cli", "state", "validate"],
            input=json.dumps({"n": 1, "P": [1, 0, 0, 1]}),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["valid"] is True

    def test_tol_flag(self, tmp_path, capsys):
        # a slightly non-unitary matrix passes under a loose tolerance
        payload = {"U": [[1, 0], [0, 1.0000001]]}
        code, _, _ = run_cli(["gate", "from-unitary"], payload, tmp_path, capsys)
        assert code == EXIT_CONTRACT
        code, _, _ = run_cli(["--tol", "1e-3", "gate", "from-unitary"], payload, tmp_path, capsys)
        assert code == EXIT_OK
        from ququat.config import set_tolerances

        set_tolerances(algebra=1e-10)


class TestNonFiniteInput:
    """NaN and Infinity parse as JSON numbers; decoding must reject them."""

    @pytest.mark.parametrize(
        "args,text,where",
        [
            (["gate", "from-unitary"], '{"U": [[NaN, 1], [1, 0]]}', "U[0][0]"),
            (["gate", "from-unitary"], '{"U": [[1, [0, Infinity]], [1, 0]]}', "U[0][1]"),
            (
                ["measure"],
                '{"projectors": [[[1,0],[0,0]], [[0,0],[0,1]]], '
                '"state": {"n": 1, "P": [1,0,0,NaN]}}',
                "state.P[3]",
            ),
            (["state", "validate"], '{"n": 1, "P": [1, 0, -Infinity, 0]}', "state.P[2]"),
        ],
    )
    def test_schema_error(self, tmp_path, capsys, args, text, where):
        path = tmp_path / "input.json"
        path.write_text(text)
        code = main([*args, str(path)])
        out, err = capsys.readouterr()
        assert code == EXIT_SCHEMA
        assert out == ""
        assert err.count("\n") == 1
        assert where in err and "finite" in err
