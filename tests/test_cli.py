"""Command-line interface tests: subcommands, formats and exit codes."""

import decimal
import json
import math
import os
import random
import resource
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from ququat import (
    GKSModel,
    NumericContractError,
    PauliVector,
    apply_linear,
    apply_nonlinear,
    cli,
    gate_from_kraus,
    gate_from_unitary,
    gks_matrix,
    liouvillian_gate,
    liouvillian_superop,
    measurement_gates,
    parse_circuit,
)
from ququat import serialization as sz
from ququat.cli import EXIT_CONTRACT, EXIT_OK, EXIT_SCHEMA, EXIT_ZERO_PROBABILITY, main
from ququat.config import MAX_RUN_ENTRIES, tolerances
from ququat.errors import SchemaError
from ququat.lindblad import LiouvillianSuperop
from ququat.mvlogic import evaluate_expression, synthesize_quantum
from ququat.serialization import encode_complex_matrix
from ququat.universality import right_mult_superop

from helpers import entangler_generators, random_pvec, random_unitary, spy_shapes


def run_cli(args, payload=None, tmp_path=None, capsys=None):
    """Invoke main() with an optional JSON document written to a temp file."""
    argv = list(args)
    if payload is not None:
        path = tmp_path / "input.json"
        path.write_text(json.dumps(payload, default=np.ndarray.tolist))
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

    @pytest.mark.parametrize("command", ["compose", "tensor"])
    def test_one_gate_is_refused(self, tmp_path, capsys, command):
        doc = {"gates": [{"entries": np.eye(4).tolist()}]}
        assert run_cli(["gate", command], doc, tmp_path, capsys) == (
            EXIT_SCHEMA, "", "error: gates: expected at least two gates\n"
        )

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

    @pytest.mark.parametrize(
        "args,payload",
        [
            (
                ["measure"],
                {"projectors": [[[1, 0], [0, 0]]], "state": {"n": 2, "P": [1] + [0] * 15}},
            ),
            (["reversible"], {"kraus": {"ops": [[[0, 1], [1, 0]]]}, "projector": np.eye(4).tolist()}),
        ],
    )
    def test_size_mismatch(self, tmp_path, capsys, args, payload):
        code, out, err = run_cli(args, payload, tmp_path, capsys)
        assert code == EXIT_CONTRACT
        assert out == ""
        assert err.count("\n") == 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("noise", [0.0, 1e-12])
    def test_measure_probabilities_are_row_0_of_the_branch_gates(self, tmp_path, capsys, n, noise):
        # noise > 0: near-projectors that still pass the tolerance
        rng = np.random.default_rng(20282 + n)
        d = 2**n
        v = random_unitary(rng, d)
        cuts = sorted(rng.choice(np.arange(1, d), size=min(3, d - 1), replace=False))
        projs = []
        for a, b in zip([0, *cuts], [*cuts, d]):
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            projs.append(v[:, a:b] @ v[:, a:b].conj().T + noise * (h + h.conj().T))
        state = random_pvec(rng, n)
        doc = {"projectors": [encode_complex_matrix(p) for p in projs],
               "state": {"n": n, "P": state.P.tolist()}}
        code, out, err = run_cli(["measure"], doc, tmp_path, capsys)
        assert code == EXIT_OK, err
        want = [g.entries[0] @ state.P for g in measurement_gates(projs)]
        assert np.max(np.abs(np.array(json.loads(out)["probabilities"]) - want)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_measure_post_selected_state_matches_the_kraus_route(self, tmp_path, capsys, n):
        rng = np.random.default_rng(1919 + n)
        d = 2**n
        v = random_unitary(rng, d)
        state = random_pvec(rng, n)
        for projs in ([v[:, :1] @ v[:, :1].conj().T, v[:, 1:] @ v[:, 1:].conj().T], [np.eye(d)]):
            for post, p in enumerate(projs):
                doc = {"projectors": [encode_complex_matrix(q) for q in projs],
                       "state": {"n": n, "P": state.P.tolist()}, "post_select": post}
                code, out, err = run_cli(["measure"], doc, tmp_path, capsys)
                assert code == EXIT_OK, err
                want, prob = apply_nonlinear(gate_from_kraus([p]), state)
                got = json.loads(out)
                assert got["probability"] == prob
                got_p = np.array(got["state"]["P"])
                assert np.array_equal(got_p.view(np.uint64), want.P.view(np.uint64))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_measure_and_a_simulate_step_print_the_same_bits(self, tmp_path, capsys, n, seed):
        # a seeded Haar family on the whole register, read by both commands
        rng = np.random.default_rng([2020, n, seed])
        d = 2**n
        v = random_unitary(rng, d)
        cuts = sorted(rng.choice(np.arange(1, d), size=min(2, d - 1), replace=False))
        projs = [encode_complex_matrix(v[:, a:b] @ v[:, a:b].conj().T)
                 for a, b in zip([0, *cuts], [*cuts, d])]
        state = {"n": n, "P": random_pvec(rng, n).P.tolist()}
        for post in [None, *range(len(projs))]:
            extra = {} if post is None else {"post_select": post}
            doc = {"projectors": projs, "state": state, **extra}
            code, out, err = run_cli(["measure"], doc, tmp_path, capsys)
            assert code == EXIT_OK, err
            measured = json.loads(out)
            step = {"measure": {"projectors": projs}, **extra}
            doc = {"circuit": {"n": n, "steps": [step]}, "initial": state}
            code, out, err = run_cli(["simulate"], doc, tmp_path, capsys)
            assert code == EXIT_OK, err
            simulated = json.loads(out)["steps"][0]
            keys = ["probabilities"] if post is None else ["probabilities", "probability", "state"]
            for key in keys:
                assert json.dumps(simulated[key]) == json.dumps(measured[key]), key

    @pytest.mark.parametrize(
        "n,targets",
        [(1, (0,)), (2, (0, 1)), (3, (0, 1, 2)), (2, (1,)), (3, (1,)), (3, (2, 0))],
        ids=str,
    )
    def test_a_post_selected_branch_has_one_probability(self, tmp_path, capsys, n, targets):
        # seeded Haar families, on the whole register and on sub-register
        # targets, where ``measure`` gets the family tensored with the identity
        k = len(targets)
        order = [*targets, *(q for q in range(n) if q not in targets)]
        axes = [order.index(q) for q in range(n)]
        axes += [n + a for a in axes]
        for seed in range(4):
            rng = np.random.default_rng([2021, n, k, seed])
            v = random_unitary(rng, 2**k)
            cuts = sorted(rng.choice(np.arange(1, 2**k), size=min(2, 2**k - 1), replace=False))
            family = [v[:, a:b] @ v[:, a:b].conj().T for a, b in zip([0, *cuts], [*cuts, 2**k])]
            wide = [np.kron(p, np.eye(2 ** (n - k))).reshape((2,) * (2 * n)).transpose(axes)
                    .reshape(2**n, 2**n) for p in family]
            state = {"n": n, "P": random_pvec(rng, n).P.tolist()}
            for post in range(len(family)):
                doc = {"projectors": [encode_complex_matrix(p) for p in wide], "state": state,
                       "post_select": post}
                code, out, err = run_cli(["measure"], doc, tmp_path, capsys)
                assert code == EXIT_OK, err
                measured = json.loads(out)
                step = {"measure": {"projectors": [encode_complex_matrix(p) for p in family]},
                        "targets": list(targets), "post_select": post}
                doc = {"circuit": {"n": n, "steps": [step]}, "initial": state}
                code, out, err = run_cli(["simulate"], doc, tmp_path, capsys)
                assert code == EXIT_OK, err
                for got in (measured, json.loads(out)["steps"][0]):
                    assert json.dumps(got["probabilities"][post]) == json.dumps(got["probability"])
                    assert got["state"]["P"][0] == 1.0

    def test_measure_builds_only_the_post_selected_gate(self, tmp_path, capsys, monkeypatch):
        from ququat import gates

        built = []

        def counted(name, real):
            def build(*args, **kwargs):
                built.append(name)
                return real(*args, **kwargs)

            return build

        for namespace in (gates, cli, sz):
            for name in ("_kraus_gate", "gate_from_kraus", "measurement_gates"):
                if hasattr(namespace, name):
                    monkeypatch.setattr(namespace, name, counted(name, getattr(namespace, name)))
        payload = {"projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                   "state": {"n": 1, "P": [1, 0.6, 0, 0.8]}}
        code, out, _ = run_cli(["measure"], payload, tmp_path, capsys)
        assert code == EXIT_OK
        assert json.loads(out)["probabilities"] == [0.9, 0.09999999999999998]
        assert built == []
        code, out, _ = run_cli(["measure"], {**payload, "post_select": 1}, tmp_path, capsys)
        assert code == EXIT_OK
        assert json.loads(out)["probability"] == 0.09999999999999998
        assert built == ["_kraus_gate"]

    @pytest.mark.parametrize("args", [["measure"], ["simulate"]])
    def test_projectors_of_mixed_sizes_exit_3(self, tmp_path, capsys, args):
        projs = [[[1, 0], [0, 0]], np.diag([0, 0, 1, 1]).tolist()]
        state = {"n": 1, "P": [1, 0, 0, 0]}
        if args == ["measure"]:
            doc = {"projectors": projs, "state": state}
        else:
            doc = {"circuit": {"n": 2, "steps": [{"measure": {"projectors": projs}}]},
                   "initial": {"n": 2, "P": [1] + [0] * 15}}
        code, out, err = run_cli(args, doc, tmp_path, capsys)
        assert code == EXIT_CONTRACT
        assert out == ""
        assert err == "error: projector 1 is 4x4, projector 0 is 2x2\n"

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

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_dnf_above_the_arity_ceiling_is_refused(self, tmp_path, capsys, fmt):
        # the form has one term per input tuple, 1024 at arity 5
        args = ["--format", fmt, "mvlogic", "dnf"]
        table = {"arity": 5, "outputs": [i % 4 for i in range(4**5)]}
        assert run_cli(args, table, tmp_path, capsys) == (
            EXIT_SCHEMA, "", "error: table.arity: expected an integer <= 4, got 5\n"
        )
        outputs = [(7 * i + i // 5) % 4 for i in range(4**4)]
        code, out, err = run_cli(args, {"arity": 4, "outputs": outputs}, tmp_path, capsys)
        assert (code, err) == (EXIT_OK, "")
        if fmt == "text":
            # 256 terms of five factors each, joined by 255 maxes
            lines = [line.strip() for line in out.splitlines()]
            assert (lines.count("op: min"), lines.count("op: max")) == (4 * 256, 255)
            return
        expr = sz.expression_from_json(json.loads(out)["dnf"])
        inputs = [[(x >> s) & 3 for s in (6, 4, 2, 0)] for x in range(4**4)]
        assert [evaluate_expression(expr, xs) for xs in inputs] == outputs

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

    def test_verify_a_list_of_tables(self, tmp_path, capsys):
        tables = [{"arity": 1, "outputs": [3, 2, 1, 0]}, {"arity": 1, "outputs": [1, 2, 3, 0]}]
        gate = sz.gate_to_json(synthesize_quantum([sz.table_from_json(t) for t in tables]))
        for order, realizes in ((tables, True), (tables[::-1], False), (tables[:1], False)):
            code, out, err = run_cli(
                ["mvlogic", "verify"], {"gate": gate, "tables": order}, tmp_path, capsys
            )
            assert (code, err) == (EXIT_OK, "")
            assert json.loads(out) == {"realizes": realizes}

    @pytest.mark.parametrize("mode", ["bogus", 3, None])
    def test_verify_bad_mode(self, tmp_path, capsys, mode):
        table = {"arity": 1, "outputs": [0, 1, 2, 3]}
        doc = {"gate": {"entries": np.eye(4).tolist()}, "table": table, "mode": mode}
        assert run_cli(["mvlogic", "verify"], doc, tmp_path, capsys) == (
            EXIT_SCHEMA, "", f"error: mode: expected 'plain' or 'extended', got {mode!r}\n"
        )

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

    def test_pseudo_right(self, tmp_path, capsys):
        a = random_unitary(np.random.default_rng(41), 4) @ np.diag([1, 0.5, 0.25, 2])
        doc = {"A": encode_complex_matrix(a), "side": "right"}
        code, out, err = run_cli(["universality", "pseudo"], doc, tmp_path, capsys)
        assert (code, err) == (EXIT_OK, "")
        mat = np.array(json.loads(out)["matrix"])
        assert np.array_equal(mat[..., 0] + 1j * mat[..., 1], right_mult_superop(a).matrix)

    @pytest.mark.parametrize("side", ["up", 1, None])
    def test_pseudo_bad_side(self, tmp_path, capsys, side):
        doc = {"A": [[0, 1], [0, 0]], "side": side}
        assert run_cli(["universality", "pseudo"], doc, tmp_path, capsys) == (
            EXIT_SCHEMA, "", "error: side: expected 'left' or 'right'\n"
        )

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
        _, out1, _ = run_cli(["simulate"], self.simulate_payload(), tmp_path, capsys)
        _, out2, _ = run_cli(["simulate"], self.simulate_payload(), tmp_path, capsys)
        assert out1 == out2

    def test_a_benchmark_simulate_job_factors_once_and_takes_no_spectrum(self, monkeypatch):
        # every document of the benchmark's simulate-local workload at seed 1:
        # the state check is one Cholesky factorization, and no projector kind
        # or state needs a spectrum
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        monkeypatch.syspath_prepend(os.path.join(root, "perfbench"))
        import workloads

        workload = workloads.SimulateLocal(1)
        calls = spy_shapes(monkeypatch, np.linalg, "cholesky", "eigvalsh")
        for index in range(workload.pool):
            (job,) = workload.round(index)
            out = job.run()
            # the initial state and seven steps' states, in one stack
            assert calls == {"cholesky": [(8, 16, 16)], "eigvalsh": []}, index
            assert job.check(out) == []
            for shapes in calls.values():
                shapes.clear()

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

    @pytest.mark.parametrize(
        "args,doc,imported",
        [
            (["gate", "from-unitary"], {"U": [[0, 1], [1, 0]]}, False),
            (["gate", "from-lindblad"],
             {"model": {"H": [0, 0, 0.5], "C": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, "tau": 1.0}, True),
        ],
    )
    def test_scipy_is_imported_only_for_an_exponential(self, args, doc, imported):
        # in a child process, as this one has imported scipy already
        probe = ("import sys\nfrom ququat.cli import main\ncode = main(sys.argv[1:])\n"
                 "print(code, 'scipy' in sys.modules, file=sys.stderr)")
        proc = subprocess.run([sys.executable, "-c", probe, *args], input=json.dumps(doc),
                              capture_output=True, text=True, timeout=120)
        assert proc.stderr == f"{EXIT_OK} {imported}\n"

    @pytest.mark.parametrize("args", [["universality", "swap"], ["version"],
                                      ["--format", "text", "universality", "swap"],
                                      ["--format", "text", "mvlogic", "table", "max"],
                                      ["--format", "text", "mvlogic", "closure"]])
    def test_a_closed_stdout_pipe_exits_0_quietly(self, args):
        # what `| head -n 1` leaves once head exits: a pipe with no reader;
        # stdin is the input document of the one command that reads it
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "ququat.cli", *args], stdout=write,
                                  input='{"generators": ["max"]}', stderr=subprocess.PIPE,
                                  text=True)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")

    def test_tol_flag(self, tmp_path, capsys):
        # a slightly non-unitary matrix passes under a loose tolerance
        payload = {"U": [[1, 0], [0, 1.0000001]]}
        code, _, _ = run_cli(["gate", "from-unitary"], payload, tmp_path, capsys)
        assert code == EXIT_CONTRACT
        code, _, _ = run_cli(["--tol", "1e-3", "gate", "from-unitary"], payload, tmp_path, capsys)
        assert code == EXIT_OK
        assert tolerances.algebra == 1e-10

    def test_tol_does_not_leak_into_later_calls(self, tmp_path, capsys):
        code, _, _ = run_cli(["--tol", "0.1", "gate", "from-unitary"], {"U": [[1, 0], [0, 1]]},
                             tmp_path, capsys)
        assert code == EXIT_OK
        payload = {"U": [[1, 0], [0, 1.001]]}
        code, _, _ = run_cli(["gate", "from-unitary"], payload, tmp_path, capsys)
        assert code == EXIT_CONTRACT


def _run_text(args, text, tmp_path, capsys):
    path = tmp_path / "input.json"
    path.write_text(text)
    code = main([*args, str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def _one_step(step: str) -> str:
    """A one-ququat simulate document with a single step."""
    return '{"circuit": {"n": 1, "steps": [%s]}, "initial": {"n": 1, "P": [1, 0, 0, 0]}}' % step


_MODEL = '{"H": [0, 0, 0.5], "C": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}'
_ZEROS = "0" * 400
_HVT = '{"H": [[1, 0], [0, -1]], "V": [[[0, 1], [0, 0]]], "t": -1}'


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
            (["gate", "from-lindblad"], '{"H": [[1, 0], [0, -1]], "t": NaN}', "lindblad.t"),
            (["gate", "from-lindblad"], '{"model": %s, "tau": Infinity}' % _MODEL, "lindblad.tau"),
            (["simulate"], _one_step('{"named": "rot1", "param": NaN}'), "steps[0].param"),
            # integers beyond float range
            (["state", "validate"], '{"n": 1, "P": [1%s, 0, 0, 0]}' % _ZEROS, "state.P[0]"),
            (["gate", "from-unitary"], '{"U": [[1, 0], [0, 1%s]]}' % _ZEROS, "U[1][1]"),
            (["gate", "from-unitary"], '{"U": [[1, [0, -1%s]], [0, 1]]}' % _ZEROS, "U[0][1]"),
        ],
    )
    def test_schema_error(self, tmp_path, capsys, args, text, where):
        code, out, err = _run_text(args, text, tmp_path, capsys)
        assert code == EXIT_SCHEMA
        assert out == ""
        assert err.count("\n") == 1
        assert where in err and "finite" in err


_GROW = '{"gate": {"entries": [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]}}'
_ON_ONE = '{"measure": {"projectors": [[[0, 0], [0, 1]]]}, "post_select": 0}'


def _run_doc(steps: list[str], initial_p: str) -> str:
    """A one-ququat simulate document."""
    return '{"circuit": {"n": 1, "steps": [%s]}, "initial": {"n": 1, "P": %s}}' % (
        ", ".join(steps),
        initial_p,
    )


class TestRunErrorOrder:
    """A run reports its first failure: states are checked in run order, before a later step's error."""

    @pytest.mark.parametrize(
        "steps,initial,code,message",
        [
            # diag(1, 2, 2, 2) makes P = [1, 0, 0, 2], then the branch probability is -1/2
            ([_GROW, _ON_ONE], "[1, 0, 0, 1]", EXIT_CONTRACT, "circuit produced an invalid state"),
            ([_ON_ONE], "[1, 0, 0, 2]", EXIT_CONTRACT, "initial state is not a valid density matrix"),
            (
                ['{"named": "rot1", "param": 0.3}', _ON_ONE],
                "[1, 0, 0, 1]",
                EXIT_ZERO_PROBABILITY,
                "outcome probability 0.000e+00 is not positive",
            ),
            ([_ON_ONE], "[1, 0, 0, 1]", EXIT_ZERO_PROBABILITY, "outcome probability 0.000e+00 is not positive"),
        ],
    )
    def test_first_failure_wins(self, tmp_path, capsys, steps, initial, code, message):
        got, out, err = _run_text(["simulate"], _run_doc(steps, initial), tmp_path, capsys)
        assert (got, out, err) == (code, "", f"error: {message}\n")

    @pytest.mark.parametrize("scale,count", [("1.7e308", 1), ("1e200", 3)])
    def test_overflowing_state_is_invalid(self, tmp_path, capsys, scale, count):
        step = '{"gate": {"entries": [[1, 0, 0, 0], [0, %s, %s, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}}'
        doc = _run_doc([step % (scale, scale)] * count, "[1, 0.7, 0.7, 0]")
        got, out, err = _run_text(["simulate"], doc, tmp_path, capsys)
        assert (got, out, err) == (EXIT_CONTRACT, "", "error: circuit produced an invalid state\n")

    def test_overflowing_state_validates_as_invalid(self, tmp_path, capsys):
        doc = '{"n": 1, "P": [1.7e308, 0, 0, 1.7e308]}'
        code, out, _ = _run_text(["state", "validate"], doc, tmp_path, capsys)
        assert code == EXIT_OK
        assert json.loads(out)["valid"] is False


# the identity with row 0 set to (1, 0.5, 0, 0), labelled trace-preserving
_ROW0_OFF = '{"kind": "trace_preserving", "entries": [[1, 0.5, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}'
_EYE = "[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"


class TestKindFromEntries:
    """A gate document's kind is read off its entries; the label is not trusted."""

    @pytest.mark.parametrize("command", ["compose", "tensor"])
    def test_products_print_the_kind_they_computed(self, tmp_path, capsys, command):
        doc = '{"gates": [%s, %s]}' % (_ROW0_OFF, _ROW0_OFF)
        code, out, _ = _run_text(["gate", command], doc, tmp_path, capsys)
        assert code == EXIT_OK
        assert json.loads(out)["kind"] == "general"

    def test_a_trace_preserving_label_does_not_make_a_step(self, tmp_path, capsys):
        doc = _run_doc(['{"gate": %s}' % _ROW0_OFF], "[1, 0, 0, 0]")
        message = "steps[0]: non-measurement steps need a trace-preserving gate"
        assert _run_text(["simulate"], doc, tmp_path, capsys) == (
            EXIT_CONTRACT, "", f"error: {message}\n"
        )

    def test_a_general_label_does_not_refuse_a_step(self, tmp_path, capsys):
        doc = _run_doc(['{"gate": {"kind": "general", "entries": %s}}' % _EYE], "[1, 0, 0, 0]")
        code, out, err = _run_text(["simulate"], doc, tmp_path, capsys)
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["final_state"]["P"] == [1.0, 0.0, 0.0, 0.0]


def _reject_non_finite(name):
    raise AssertionError(f"{name} on stdout")


class TestOutputGuard:
    """No command prints NaN or Infinity: a quantity that overflowed is refused or written as null."""

    @pytest.mark.parametrize(
        "p,missing",
        [
            ("[1.7e308, 0.2, 0.1, 0.3]", ["purity"]),
            ("[1.7e308, 0, 0, 1.7e308]", ["min_eigenvalue", "purity", "trace"]),
        ],
    )
    def test_state_validate_writes_null_for_an_overflow(self, tmp_path, capsys, p, missing):
        code, out, _ = _run_text(["state", "validate"], '{"n": 1, "P": %s}' % p, tmp_path, capsys)
        assert code == EXIT_OK
        report = json.loads(out, parse_constant=_reject_non_finite)
        assert report["valid"] is False
        assert sorted(k for k, v in report.items() if v is None) == missing

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_gate_analyze_refuses_an_overflowing_report(self, tmp_path, capsys, fmt):
        # row 0 squared overflows: row0_sq_sum is infinite
        gate = json.loads(json.dumps(_README_GATE))
        gate["entries"][0][1] = 1.7e308
        code, out, err = run_cli(["--format", fmt, "gate", "analyze"], gate, tmp_path, capsys)
        assert (code, out, err) == (EXIT_CONTRACT, "", "error: result has non-finite entries\n")

    def test_payloads_are_checked_at_every_depth(self):
        def finite(payload):
            return cli._NON_FINITE.isdisjoint(cli._spell(payload)[1])

        assert finite({"a": [1, "x", None, True], "b": np.zeros(3), "c": (0.5, 2),
                       "d": [np.float64(0.5), np.float64(1e-5)]})
        # numpy scalars are float subclasses: the C encoder spells them, and NaN is caught
        for bad in (math.inf, [[math.nan]], {"a": {"b": [1, -math.inf]}}, np.array([[1, math.nan]]),
                    (1, 2.0, math.inf), np.float64("nan"), [0.5, np.float64("-inf")],
                    {"a": (np.float64("inf"),)}):
            assert not finite(bad)


class TestMeasureRefusesInvalidStates:
    """``measure`` checks its state as a one-step ``simulate`` does."""

    @pytest.mark.parametrize(
        "p,extra",
        [
            # probabilities 2 and -1 were printed with exit 0
            ([1, 0, 0, 3], {}),
            # exit 4 with a negative outcome probability
            ([-1, 1, 0, 0], {"post_select": 0}),
        ],
    )
    def test_invalid_state_exits_3(self, tmp_path, capsys, p, extra):
        projectors = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
        doc = {"projectors": projectors, "state": {"n": 1, "P": p}, **extra}
        assert run_cli(["measure"], doc, tmp_path, capsys) == (
            EXIT_CONTRACT, "", "error: state is not a valid density matrix\n"
        )
        step = {"measure": {"projectors": projectors}, **extra}
        doc = {"circuit": {"n": 1, "steps": [step]}, "initial": {"n": 1, "P": p}}
        code, out, _ = run_cli(["simulate"], doc, tmp_path, capsys)
        assert (code, out) == (EXIT_CONTRACT, "")


class TestOptionFields:
    """Option fields are type-checked and range-checked when the document is decoded."""

    @pytest.mark.parametrize(
        "args,text,where",
        [
            (["gate", "from-lindblad"], '{"H": [[1, 0], [0, -1]], "V": 5, "t": 1}', "lindblad.V"),
            (["gate", "compose"], '{"gates": 5}', "gates"),
            (["mvlogic", "closure"], '{"generators": ["g1"], "max_arity": "x"}', "max_arity"),
            (["mvlogic", "closure"], '{"generators": ["g1"], "max_arity": 2.5}', "max_arity"),
            (["mvlogic", "closure"], '{"generators": ["g1"], "budget": "x"}', "budget"),
            (
                ["universality", "closure-dim"],
                '{"generators": [[[0, 1], [1, 0]]], "max_iter": "x"}',
                "max_iter",
            ),
            (["simulate"], _one_step('{"named": "rot1", "param": "x"}'), "steps[0].param"),
            (["state", "validate"], '{"n": -1, "P": [1]}', "state.n"),
            (["state", "validate"], '{"n": true, "P": [1, 0, 0, 0]}', "state.n"),
            # a 1x1 matrix is of order 0, and no n >= 1 fits it
            (["gate", "analyze"], '{"entries": [[1]]}', "gate.entries"),
            (["gate", "analyze"], '{"entries": [[1], [0], [0], [0]]}', "gate.entries"),
            (["simulate"], _one_step('{"gate": {"entries": [[1]]}}'), "steps[0].gate.entries"),
            (["state", "validate"], '{"entries": [[1]]}', "state.entries"),
            (["gate", "analyze"], '{"entries": [[]]}', "gate.entries"),
        ],
    )
    def test_schema_error(self, tmp_path, capsys, args, text, where):
        code, out, err = _run_text(args, text, tmp_path, capsys)
        assert code == EXIT_SCHEMA
        assert out == ""
        assert err.count("\n") == 1
        assert where in err

    @pytest.mark.parametrize(
        "args,text,message",
        [
            (["gate", "from-unitary"], '{"U": [[1]]}', "unitary must be square 2**n x 2**n"),
            (["simulate"], _one_step('{"unitary": [[1]]}'), "unitary must be square 2**n x 2**n"),
            (["gate", "from-kraus"], '{"ops": [[[1]]]}', "Kraus operators must be 2**m x 2**n"),
            (
                ["measure"],
                '{"projectors": [[[1]]], "state": {"n": 1, "P": [1, 0, 0, 0]}}',
                "projector 0 must be square 2**n x 2**n",
            ),
            (["gate", "from-lindblad"], '{"H": [[1]], "t": 1}', "H must be square 2**n x 2**n"),
            (["universality", "pseudo"], '{"A": [[1]]}', "operator must be square 2**n x 2**n"),
        ],
    )
    def test_order_zero_matrix(self, tmp_path, capsys, args, text, message):
        """The size error that a 3x3 matrix gets, not a bare `n must be >= 1`."""
        code, out, err = _run_text(args, text, tmp_path, capsys)
        assert code == EXIT_CONTRACT
        assert out == ""
        assert err == f"error: {message}, got (1, 1)\n"

    @pytest.mark.parametrize(
        "text,code,message",
        [
            ('{"entries": [[1]]}', EXIT_SCHEMA,
             "gate.entries: a gate acts on at least one ququat, got (1, 1)"),
            ('{"entries": [[1, 0, 0, 0]]}', EXIT_SCHEMA,
             "gate.entries: a gate acts on at least one ququat, got (1, 4)"),
            ('{"entries": [[1, 0, 0]]}', EXIT_CONTRACT,
             "gate matrix must be 4**m x 4**n, got (1, 3)"),
        ],
    )
    def test_gate_of_order_zero(self, tmp_path, capsys, text, code, message):
        """A 0-ququat side is a schema error; a side that is no power of 4 a contract error."""
        got = _run_text(["gate", "analyze"], text, tmp_path, capsys)
        assert got == (code, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "args,text",
        [(["gate", "from-lindblad"], _HVT), (["simulate"], _one_step('{"lindblad": %s}' % _HVT))],
    )
    def test_negative_lindblad_time(self, tmp_path, capsys, args, text):
        code, out, err = _run_text(args, text, tmp_path, capsys)
        assert code == EXIT_CONTRACT
        assert out == ""
        assert err.count("\n") == 1
        assert "nonnegative" in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0", "x"])
    def test_tol_must_be_finite_positive(self, tmp_path, capsys, tol):
        path = tmp_path / "input.json"
        path.write_text('{"U": [[1, 1], [1, 0]]}')
        with pytest.raises(SystemExit) as exc:
            main(["--tol", tol, "gate", "from-unitary", str(path)])
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_SCHEMA
        assert out == ""
        assert "--tol" in err

    @pytest.mark.parametrize("precision", ["-1", "18", str(10**11), "x"])
    def test_precision_must_be_0_to_17(self, capsys, precision):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "text", "--precision", precision, "universality", "swap"])
        out, err = capsys.readouterr()
        assert exc.value.code == EXIT_SCHEMA
        assert out == ""
        assert "--precision" in err

    @pytest.mark.parametrize("precision", [0, 17])
    def test_precision_0_and_17_are_accepted(self, capsys, precision):
        code = main(["--format", "text", "--precision", str(precision), "universality", "swap"])
        out, err = capsys.readouterr()
        assert (code, err) == (EXIT_OK, "")
        assert out.splitlines()[1].split()[0] == f"{1:+.{precision}f}{0:+.{precision}f}j"

    def test_validate_reports_non_hermitian_density(self, tmp_path, capsys):
        payload = {"entries": [[[0.5, 0], [0.5, 0]], [[0, 0], [0.5, 0]]]}
        code, out, _ = run_cli(["state", "validate"], payload, tmp_path, capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["hermitian"] is False
        assert doc["valid"] is False


_INDEFINITE = '{"model": {"H": [0, 0, 0], "C": [[-1, 0, 0], [0, 0, 0], [0, 0, 0]]}, "tau": %s}'


class TestWarnings:
    """A warning is one `warning:` line after a success and is dropped on an error."""

    def test_error_prints_only_the_error_line(self, tmp_path, capsys, recwarn):
        code, out, err = _run_text(["gate", "from-lindblad"], _INDEFINITE % -1, tmp_path, capsys)
        assert code == EXIT_CONTRACT
        assert out == ""
        assert err == "error: tau must be nonnegative\n"
        # nothing escapes main to be shown on stderr by the interpreter
        assert len(recwarn) == 0

    @pytest.mark.parametrize(
        "args,text,message",
        [
            (["gate", "from-lindblad"], _INDEFINITE % 1, "C is not positive semidefinite"),
            (
                ["universality", "closure-dim"],
                '{"generators": [[[0, 1], [1, 0]], [[1, 0], [0, -1]]], "max_iter": 0}',
                "lie closure did not stabilize",
            ),
        ],
    )
    def test_success_prints_one_line_per_warning(
        self, tmp_path, capsys, recwarn, args, text, message
    ):
        for _ in range(2):  # a repeated call in the same process warns again
            code, out, err = _run_text(args, text, tmp_path, capsys)
            assert code == EXIT_OK
            json.loads(out)
            assert err.startswith(f"warning: {message}")
            assert err.count("\n") == 1
        assert len(recwarn) == 0


_LONG_HVT = (
    '{"H": [[[0.19, 0], [-0.41, -2.44]], [[-0.41, 2.44], [-0.52, 0]]], '
    '"V": [[[[1.8, 1.14], [-0.33, 0.77]], [[0.28, -0.55], [0.98, -0.31]]]], "t": 1000000.0}'
)

# an exactly Hermitian H whose Pauli-basis generator keeps an imaginary
# rounding residue of 1.164e-10, small against its entries of about 1e6
_LARGE_HVT = (
    '{"H": [[[-828701.7, 0], [-526379.0, 602548.9]], [[-526379.0, -602548.9], [828701.7, 0]]], '
    '"V": [[[[-811.7, -133.7], [-41.9, -680.5]], [[469.2, -772.7], [-217.5, 33.5]]]], '
    '"t": 1e-06}'
)

# H = U diag(x) U^H and C = g g^H, computed in floating point: their Hermitian
# residues (about 1e-10) are rounding against entries of about 1e6, and the
# rank-one C's least eigenvalue is rounding too
_COMPUTED_H = (
    '{"H": [[[-1351013.371381643, 1.1480496329382049e-11], [-848451.1263078249, '
    '146333.91161126996]], [[-848451.1263078247, -146333.91161126996], '
    '[-148986.62861835706, 1.651383466427677e-12]]], "t": 1e-06}'
)
_COMPUTED_C = (
    '{"model": {"H": [0.0, 0.0, 0.0], "C": [[[2695100.0, -3.1952218648712005e-11], '
    '[2206300.0, -137799.9999999999], [-2548899.9999999995, 1937200.0]], '
    '[[2206300.0, 137799.99999999997], [2907300.0, 5.595524044110789e-12], '
    '[-679700.0000000002, 1790400.0]], [[-2548899.9999999995, -1937200.0], '
    '[-679700.0000000002, -1790400.0], [7053500.0, 8.886225089099753e-11]]]}, "tau": 1e-07}'
)
_RANK_ONE_C = (
    '{"model": {"H": [0.0, 0.0, 0.0], "C": [[[3914500.0, 0.0], [-1397600.0, -2844800.0], '
    '[1814799.9999999998, -1459600.0]], [[-1397600.0, 2844800.0], [2566400.0000000005, 0.0], '
    '[412800.00000000006, 1840000.0]], [[1814799.9999999998, 1459600.0], '
    '[412800.00000000006, -1840000.0], [1385600.0, 0.0]]]}, "tau": 1e-07}'
)


class TestLindbladHamiltonianRoute:
    """The {H, V, t} route of gate from-lindblad and of circuit steps."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_generator_exponential(self, tmp_path, capsys, n):
        rng = np.random.default_rng(5 + n)
        d = 2**n
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = h + h.conj().T
        vs = [0.4 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) for _ in range(2)]
        t = 0.6
        liou = liouvillian_superop(h, vs)
        expected = expm(t * liou.to_pauli_generator())
        spec = {"H": encode_complex_matrix(h), "V": [encode_complex_matrix(v) for v in vs], "t": t}

        code, out, _ = run_cli(["gate", "from-lindblad"], spec, tmp_path, capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "trace_preserving"
        assert np.max(np.abs(np.array(doc["entries"]) - expected)) < 1e-12
        assert np.max(np.abs(np.array(doc["generator"]) - liou.to_pauli_generator())) < 1e-12

        step = parse_circuit({"n": n, "steps": [{"lindblad": spec}]}).steps[0]
        assert np.max(np.abs(step.gate.entries - expected)) < 1e-12

        p = PauliVector(n, np.eye(4**n)[0])
        assert np.max(np.abs(expected @ p.P - apply_linear(liouvillian_gate(liou, t), p).P)) < 1e-12

    def test_one_generator_per_spec(self, tmp_path, capsys, monkeypatch):
        calls = []
        to_generator = LiouvillianSuperop.to_pauli_generator

        def counted(self, *args, **kwargs):
            calls.append(self.n)
            return to_generator(self, *args, **kwargs)

        monkeypatch.setattr(LiouvillianSuperop, "to_pauli_generator", counted)
        spec = '{"H": [[1, 0], [0, -1]], "V": [[[0, 1], [0, 0]]], "t": 0.5}'
        code, _, _ = _run_text(["gate", "from-lindblad"], spec, tmp_path, capsys)
        assert code == EXIT_OK
        assert calls == [1]
        calls.clear()
        steps = ", ".join(['{"lindblad": %s}' % spec] * 3)
        code, _, _ = _run_text(["simulate"], _one_step(steps), tmp_path, capsys)
        assert code == EXIT_OK
        assert calls == [1, 1, 1]

    def test_a_long_time_keeps_row_0_exactly(self, tmp_path, capsys):
        # the Pauli-basis generator of this model has a top-row residue of about
        # 2e-16, which expm at t = 1e6 would grow to 2.3e-10 in entry [0, 0]
        code, out, _ = _run_text(["gate", "from-lindblad"], _LONG_HVT, tmp_path, capsys)
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["kind"] == "trace_preserving"
        assert doc["entries"][0] == [1.0, 0.0, 0.0, 0.0]
        assert doc["generator"][0] == [0.0, 0.0, 0.0, 0.0]
        code, out, _ = run_cli(["gate", "analyze"], doc, tmp_path, capsys)
        assert code == EXIT_OK
        assert json.loads(out)["trace_preserving"] is True
        code, out, _ = _run_text(["simulate"], _one_step('{"lindblad": %s}' % _LONG_HVT),
                                 tmp_path, capsys)
        assert code == EXIT_OK
        assert json.loads(out)["final_state"]["P"][0] == 1.0

    @pytest.mark.parametrize("text", [_COMPUTED_H, _COMPUTED_C, _RANK_ONE_C],
                             ids=["H", "C", "rank-one C"])
    def test_computed_h_and_c_are_certified_relative_to_their_size(self, tmp_path, capsys, text):
        code, out, err = _run_text(["gate", "from-lindblad"], text, tmp_path, capsys)
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["kind"] == "trace_preserving"

    def test_large_coefficients_are_certified_relative_to_their_size(self, tmp_path, capsys):
        code, out, err = _run_text(["gate", "from-lindblad"], _LARGE_HVT, tmp_path, capsys)
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        assert doc["kind"] == "trace_preserving"
        assert doc["entries"][0] == [1.0, 0.0, 0.0, 0.0]


# The example documents of the CLI section of README.md; the gate document
# is the output of its `gate from-unitary` example.
_README_GATE = {
    "n_in": 1,
    "n_out": 1,
    "kind": "trace_preserving",
    "entries": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]],
}
_README_EXAMPLES = [
    (["gate", "from-unitary"], {"U": [[0, 1], [1, 0]]}),
    (["gate", "analyze"], _README_GATE),
    (["gate", "decompose", "--svd"], _README_GATE),
    (["gate", "decompose", "--polar", "--side", "left"], _README_GATE),
    (["gate", "decompose", "--euler"], _README_GATE),
    (
        ["gate", "from-lindblad"],
        {"model": {"H": [0, 0, 0.5], "C": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}, "tau": 1.0},
    ),
    (
        ["measure"],
        {
            "projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            "state": {"n": 1, "P": [1, 1, 0, 0]},
            "post_select": 0,
        },
    ),
    (["mvlogic", "synth", "--extended"], {"arity": 1, "outputs": [3, 2, 1, 0]}),
    (["mvlogic", "closure"], {"generators": ["cyclic_shift", "max"], "budget": 2000}),
    (["universality", "pseudo"], {"A": [[0, 1], [0, 0]]}),
    (["reversible"], {"kraus": {"ops": [[[0, 1], [1, 0]]]}, "projector": [[1, 0], [0, 1]]}),
    (
        ["simulate"],
        {
            "circuit": {
                "n": 1,
                "steps": [
                    {"unitary": [[0.7071067811865476, 0.7071067811865476],
                                 [0.7071067811865476, -0.7071067811865476]]},
                    {"measure": {"projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]},
                     "post_select": 0},
                ],
            },
            "initial": {"n": 1, "P": [1, 0, 0, 1]},
        },
    ),
]
_REPLACEMENTS = (float("nan"), float("inf"), -1, 0, 2.5, "x", True, None, [], {})
_DROP = object()
FUZZ_SEED = 20201
FUZZ_CASES = 400


def _node_paths(obj, prefix=()):
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _node_paths(value, prefix + (key,))


def _mutants():
    """Every single-node mutation of every README example: (argv, doc, path, value)."""
    out = []
    for argv, doc in _README_EXAMPLES:
        for path in _node_paths(doc):
            out.extend((argv, doc, path, value) for value in _REPLACEMENTS)
            if isinstance(path[-1], str):
                out.append((argv, doc, path, _DROP))
    return out


def _mutate(doc, path, value):
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def test_mutation_fuzzer_exits_cleanly(tmp_path, capsys):
    """Mutated README documents end in exit 0, 2, 3 or 4, an error in one line."""
    cases = random.Random(FUZZ_SEED).sample(_mutants(), FUZZ_CASES)
    path = tmp_path / "input.json"
    failures = []
    for argv, doc, where, value in cases:
        change = "(dropped)" if value is _DROP else repr(value)
        label = f"{' '.join(argv)} {list(where)} <- {change}"
        path.write_text(json.dumps(_mutate(doc, where, value)))
        try:
            code = main([*argv, str(path)])
        except Exception as exc:  # a traceback in the real CLI
            capsys.readouterr()
            failures.append(f"{label}: raised {type(exc).__name__}: {exc}")
            continue
        out, err = capsys.readouterr()
        if code not in (EXIT_OK, EXIT_SCHEMA, EXIT_CONTRACT, EXIT_ZERO_PROBABILITY):
            failures.append(f"{label}: exit {code}")
        elif code != EXIT_OK and (err.count("\n") != 1 or out):
            failures.append(f"{label}: exit {code} with stderr {err!r}")
    assert not failures, "\n".join(failures[:20])


# -- JSON output ---------------------------------------------------------------


def _assert_indented_json(text: str, payload) -> None:
    """``text`` is json.dumps(payload, indent=2, sort_keys=True), byte for byte.

    Arrays are written as their lists, as ``default=np.ndarray.tolist`` has them.
    """
    expected = json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist)
    if text != expected:  # show where, without diffing two long texts
        at = next((i for i, (a, b) in enumerate(zip(text, expected)) if a != b), None)
        at = min(len(text), len(expected)) if at is None else at
        near = slice(max(at - 30, 0), at + 30)
        pytest.fail(f"differs at {at}: {text[near]!r} != {expected[near]!r}")


@pytest.mark.parametrize(
    "argv,doc", _README_EXAMPLES, ids=[" ".join(argv) for argv, _ in _README_EXAMPLES]
)
def test_readme_output_is_the_indented_json_form(tmp_path, capsys, monkeypatch, argv, doc):
    payloads = []
    output = cli._output

    def recorded(payload, args):
        payloads.append(payload)
        return output(payload, args)

    monkeypatch.setattr(cli, "_output", recorded)
    code, out, _ = run_cli(argv, doc, tmp_path, capsys)
    assert code == EXIT_OK
    assert len(payloads) == 1
    assert out.endswith("\n")
    _assert_indented_json(out[:-1], payloads[0])


_SCALARS = (
    None, True, False, 0, -1, 7, 2**63, -(2**64) - 3, 10**30, 0.0, -0.0, 1.5, -2.25e-7,
    1e-320, 5e-324, 1e308, float("nan"), float("inf"), float("-inf"),
    "", "a, b", ", ", 'quote " and \\ slash', "café → \U0001d11e", "line\nbreak",
)


# floats whose orjson spelling differs from repr's: exponents and [1e-5, 1e-4)
_SPELLINGS = (
    1e-5, 1.5e-05, -2.5e-05, 9.999999999999999e-05, 1e-4, 0.00010000000000000002, 10.00001,
    100.00001, 1e16, -1e22, 9.999999999999998e15, 1e-7, -1.2345e-300, 5e-324, 1.7976931348623157e308,
)


def _random_payload(rng: random.Random, depth: int = 0):
    kind = rng.randrange(6 if depth < 4 else 2)
    if kind == 0:
        return rng.choice(_SCALARS)
    if kind == 1:  # numbers only: the rows written in one piece
        return [rng.choice((rng.uniform(-1e3, 1e3), rng.randrange(-10**20, 10**20),
                            -0.0, 1e-320, 2**63 + rng.randrange(9), rng.choice(_SPELLINGS),
                            rng.uniform(-1e-4, 1e-4) * 10.0 ** -rng.randrange(3)))
                for _ in range(rng.randrange(4))]
    if kind == 2:  # numbers mixed with lists and other values
        return [rng.choice((rng.random(), rng.randrange(5), _random_payload(rng, depth + 1)))
                for _ in range(rng.randrange(5))]
    if kind == 3:
        return [[rng.random() for _ in range(3)] for _ in range(rng.randrange(4))]
    if kind == 4:
        return tuple(_random_payload(rng, depth + 1) for _ in range(rng.randrange(3)))
    keys = ["a", "b, c", "", "Z", "é", "n_in", "10", "2"]
    return {rng.choice(keys): _random_payload(rng, depth + 1) for _ in range(rng.randrange(5))}


def test_json_text_matches_json_dumps():
    rng = random.Random(20260)
    for _ in range(2000):
        payload = {"top": _random_payload(rng), "list": [_random_payload(rng)]}
        _assert_indented_json(cli._json_text(payload), payload)
    for payload in (*_SCALARS, [], {}, [[]], [{}], {"e": []}, [1, [2, [3.5]], {"k": -0.0}]):
        _assert_indented_json(cli._json_text(payload), payload)


def test_json_text_rejects_non_string_keys():
    with pytest.raises(TypeError):
        cli._json_text({1: "x"})


# -- number rows ---------------------------------------------------------------

_ORACLE = json.JSONEncoder(sort_keys=True).encode


def _assert_arrays_spelt_as_repr(values: list) -> None:
    """``_json_text`` of ``values`` as a float64 array gives the C encoder's text of every float."""
    got = cli._json_text(np.array(values, dtype=float))[4:-2].split(",\n  ")
    want = _ORACLE(values)[1:-1].split(", ")
    assert len(got) == len(want)
    if got != want:
        bad = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        pytest.fail(f"{values[bad]!r}: {got[bad]} != {want[bad]}")


def _binade_floats(per_binade: int, seed: int) -> list:
    """``per_binade`` random floats of each sign in each of the 2047 binades, subnormals too."""
    rng = np.random.default_rng(seed)
    exponent = np.repeat(np.arange(2047, dtype=np.uint64), per_binade)
    mantissa = rng.integers(0, 2**52, size=exponent.size, dtype=np.uint64)
    sign = rng.integers(0, 2, size=exponent.size, dtype=np.uint64)
    return ((sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa).view(np.float64).tolist()


def test_number_rows_match_the_c_encoder_in_every_binade():
    floats = _binade_floats(489, 20270)  # 1 000 983 floats
    assert len(floats) > 10**6
    _assert_arrays_spelt_as_repr(floats)


_EDGES = [1e-5, 1e-4, math.nextafter(1e-5, 0), math.nextafter(1e-4, 0), 9.999999999999998e15,
          1e16, math.nextafter(1e16, 0), 5e-324, 0.0, -0.0, 0.00010000000000000002, 10.00001,
          110.00001, 1.00001, 1e-05, 1.5e-05, sys.float_info.max, sys.float_info.min]


def _spelling_boundary_floats() -> list:
    """Finite floats at and around every place where orjson and repr spell differently."""
    short = [float(f"{m}e{k}") for m in (1, 15, 999, 123456789) for k in range(-330, 309)]
    short = [x for x in short if math.isfinite(x)]
    rng = np.random.default_rng(20271)
    decade = (rng.uniform(1e-5, 1e-4, 5000) * rng.choice([-1, 1], 5000)).tolist()
    rounded = [round(x, rng.integers(6, 12)) for x in decade]
    return short + decade + rounded + _EDGES + [-x for x in _EDGES + short]


def test_number_rows_match_the_c_encoder_at_spelling_boundaries():
    values = _spelling_boundary_floats()
    _assert_arrays_spelt_as_repr(values)
    for x in _EDGES:
        _assert_arrays_spelt_as_repr([x])
    for payload in ({"rows": _as_block(values[:700], 7), "edges": _EDGES},
                    {"rows": np.array(values[:700]).reshape(100, 7), "edges": np.array(_EDGES)}):
        _assert_indented_json(cli._json_text(payload), payload)


def _respelling_edges() -> list:
    """The floats where the writer's mask changes and their neighbours, NaN and Infinity."""
    edges = []
    for x in (1e-9, 1e-5, 1e-4, 1e16):
        edges += [math.nextafter(x, 0), x, math.nextafter(x, math.inf)]
    edges += [5e-324, 2.5e-320, math.nextafter(sys.float_info.min, 0), sys.float_info.min, 0.0]
    return edges + [-x for x in edges] + [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("depth", range(4))
def test_arrays_match_json_dumps_at_the_respelling_edges(depth):
    edges = _respelling_edges()
    assert len(edges) == 37
    blocks = [edges, [1.5, *edges], edges[::-1], [[x, 0.25] for x in edges],
              [[[x], [-x]] for x in edges], *([x] for x in edges)]
    for block in blocks:
        payload = _nest(np.array(block), depth)
        _assert_indented_json(cli._json_text(payload), payload)


@pytest.mark.parametrize(
    "row",
    [
        [2**63, -(2**63), 2**64 - 1, 0, -1],
        [2**64, 1.5],
        [-(2**63) - 1],
        [10**30, -0.0, 1e-5],
        [1.0, float("nan")],
        [float("inf"), -1e-7],
        [float("-inf")],
    ],
)
def test_number_rows_orjson_cannot_write(row):
    """Integers beyond 64 bits, NaN and Infinity, as lists and as float64 arrays."""
    _assert_indented_json(cli._json_text({"row": row}), {"row": row})
    if all(type(x) is float for x in row):
        arrays = {"row": np.array(row), "rows": np.array([row, row])}
        _assert_indented_json(cli._json_text(arrays), arrays)


# -- number blocks -------------------------------------------------------------


def _nest(obj, depth: int):
    """``obj`` ``depth`` levels deep, inside lists and objects in turn."""
    for level in range(depth):
        obj = {"k": obj, "z": [1.5]} if level % 2 else [obj, -0.0]
    return obj


def _as_block(values: list, width: int) -> list:
    return [values[i:i + width] for i in range(0, len(values), width)]


_ODD_ROWS = (
    [float("nan"), 1.0], [0.5, float("inf")], [float("-inf")], [2**64, 1.5], [-(2**63) - 1],
    [10**40], [True, 0.5], [False], [], [None, 1.0], ["1.0"], [[1.0, 2.0]], [{"a": 1.0}],
)


def _seeded_blocks(rng: random.Random):
    """Number rows, ragged or not; half the blocks hold one row that is not all numbers."""
    for _ in range(300):
        width = rng.randrange(1, 6)
        rows = [[rng.choice((rng.uniform(-1, 1), rng.randrange(-10**18, 10**18), -0.0,
                             rng.choice(_SPELLINGS), rng.uniform(-1e-4, 1e-4), 2**63 - 1))
                 for _ in range(rng.randrange(1, width + 1))]
                for _ in range(rng.randrange(1, 6))]
        if rng.random() < 0.5:
            rows.insert(rng.randrange(len(rows) + 1), list(rng.choice(_ODD_ROWS)))
        yield rows


def _seeded_arrays(depth: int):
    """Binade, spelling-boundary and decade floats as float64 arrays of one, two and three axes."""
    rng = np.random.default_rng(20290 + depth)
    decade = rng.uniform(1e-5, 1e-4, 600) * rng.choice([-1, 1], 600)
    for values in (np.array(_binade_floats(2, 20279 + depth)),
                   rng.permutation(_spelling_boundary_floats())[:6000],
                   np.concatenate([decade, [-0.0, 5e-324, -5e-324, 0.0, 1e-5, -1e-4]])):
        values = values[:len(values) // 12 * 12]
        yield from (values, values.reshape(-1, 12), values.reshape(-1, 6, 2))
    yield np.array([[1e-5]]), np.array([-0.0]), np.zeros((2, 0)), np.eye(4)[:, ::2]


@pytest.mark.parametrize("depth", range(5))
def test_number_blocks_match_json_dumps_at_every_depth(depth):
    """Number rows and float64 arrays at nesting depth 0-4 are written as json.dumps writes them."""
    blocks = [
        _as_block(_binade_floats(8, 20279), 256),
        _as_block(_spelling_boundary_floats(), 64),
        _as_block(_EDGES, 5),  # ragged: the last row is shorter
        [[1], [2, 3], [-(2**63), 2**64 - 1]],
        *([[0.25, 0.5], row] for row in _ODD_ROWS),
        *_seeded_blocks(random.Random(20280 + depth)),
        *_seeded_arrays(depth),
    ]
    for block in blocks:
        payload = _nest(block, depth)
        _assert_indented_json(cli._json_text(payload), payload)


def _counted_dumps(monkeypatch) -> list:
    """The keyword arguments of each ``orjson.dumps`` call from now on."""
    calls = []
    dumps = cli.orjson.dumps

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(cli.orjson, "dumps", counted)
    return calls


_ONE_CALL_COMMANDS = [
    (["simulate"], {"circuit": {"n": 2, "steps": [
        {"named": "rot1", "param": 0.3, "targets": [0]},
        {"measure": {"projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]}, "post_select": 0,
         "targets": [1]}]},
        "initial": {"n": 2, "P": [1] + [0] * 14 + [0.5]}}),
    (["mvlogic", "closure"], {"generators": ["g2"], "max_arity": 2, "budget": 300}),
    (["state", "validate"], {"n": 1, "P": [1, 0.2, 0.1, 0.3]}),
    (["state", "validate"], {"n": 1, "P": [1.7e308, 0.2, 0.1, 0.3]}),  # purity overflows: null
]


def test_gate_payload_is_one_orjson_call(tmp_path, capsys, monkeypatch):
    """A gate's entries are one float64 array, written by one orjson call from the array.

    So is every CLI payload: a simulation, a closure and a state report.
    """
    rng = np.random.default_rng(20281)
    payload = sz.gate_to_json(gate_from_unitary(random_unitary(rng, 16)))
    assert payload["entries"].shape == (256, 256) and payload["entries"].dtype == float
    calls = _counted_dumps(monkeypatch)
    text = cli._json_text(payload)
    assert calls == [{"option": cli._OPTIONS}]
    _assert_indented_json(text, payload)
    payloads = []
    output = cli._output
    monkeypatch.setattr(cli, "_output", lambda payload, args: (payloads.append(payload),
                                                               output(payload, args))[1])
    for argv, doc in _ONE_CALL_COMMANDS:
        calls.clear()
        code, out, _ = run_cli(argv, doc, tmp_path, capsys)
        assert code == EXIT_OK
        assert calls == [{"option": cli._OPTIONS}], argv
        _assert_indented_json(out[:-1], payloads.pop())


# -- the one rule: values orjson writes as they are, and values spelt apart -----


def _assert_one_call(monkeypatch, payload, calls: int = 1) -> None:
    """``_json_text(payload)`` is json.dumps's text, from ``calls`` orjson calls (0: json.dumps)."""
    with monkeypatch.context() as patch:
        made = _counted_dumps(patch)
        text = cli._json_text(payload)
    assert len(made) == calls
    _assert_indented_json(text, payload)


@pytest.mark.parametrize(
    "payload",
    [
        {"a": "nullable", "b": "a null b", "c": "null", "d": "nul", "e": "n", "f": "nnulll"},
        {"n_in": 1e-7, "n_out": 1e16, "nan": "n", "none": None, "ok": [None, "null", 2.5e-5]},
        ["nullable", 1.5e-5, "n", None, "null", "nu", "ll", -(2**64), "un"],
        {"n": np.array([1e-5, 0.5, math.nan]), "nul_l": "n\"n", "in": "nu\\ll"},
    ],
)
def test_strings_holding_null_or_n(monkeypatch, payload):
    """A string holding "null" is spelt apart; one holding an "n" is written by orjson."""
    _assert_one_call(monkeypatch, payload)


@pytest.mark.parametrize(
    "payload",
    [{"null": 1.5e-5}, {"a": {"nullable": 1}}, {"x\x7f": 1}, {"tab\t": [1e-7]}, {"é": 0.5},
     [{"ok": 1}, {"line\nbreak": None}]],
)
def test_keys_orjson_cannot_write_go_to_json_dumps(monkeypatch, payload):
    _assert_one_call(monkeypatch, payload, calls=0)


def test_control_characters_and_del(monkeypatch):
    """json.dumps escapes DEL and orjson does not: such strings are spelt apart."""
    strings = ["\x7f", "a\x7fb", "\x00", "\x1f", "\t", "\r\n", "\x08\x0c", "\u2028", "\x80", "~"]
    _assert_one_call(monkeypatch, {"s": strings, **{f"k{i}": s for i, s in enumerate(strings)}})


@pytest.mark.parametrize("value", [2**63, -(2**63), 2**63 - 1, 2**64 - 1, 2**64, 2**64 + 1,
                                   -(2**63) - 1, 10**30])
def test_ints_at_the_64_bit_edges(monkeypatch, value):
    _assert_one_call(monkeypatch, {"v": value, "row": [1, value, -1], "mixed": [value, 0.5, "n"]})


@pytest.mark.parametrize("depth,calls", [(255, 1), (256, 0)])
def test_nesting_at_orjsons_limit(monkeypatch, depth, calls):
    """orjson nests 255 containers, and a float64 array counts as none; 256 go to json.dumps."""
    for leaf in (1.5, 1e-5, None, np.array([0.5, 1e-5, math.inf]), np.eye(3), np.zeros((2, 0, 2))):
        _assert_one_call(monkeypatch, _nest(leaf, depth), calls)


def test_non_contiguous_arrays(monkeypatch):
    block = np.arange(24.0).reshape(4, 6) * 1e-5
    for arr in (block[:, ::2], block.T, np.asfortranarray(block), block[::-1], block[1:3, 2:5],
                np.eye(4)[:, ::2]):
        assert not arr.flags.c_contiguous
        _assert_one_call(monkeypatch, {"a": arr, "b": [arr, arr[:1]]})


def test_text_format_renders_arrays_as_lists(tmp_path, capsys, monkeypatch):
    """``--format text`` renders a payload's arrays as it renders the same lists."""
    payloads = []
    output = cli._output
    monkeypatch.setattr(cli, "_output", lambda payload, args: (payloads.append(payload),
                                                               output(payload, args))[1])
    u = encode_complex_matrix(random_unitary(np.random.default_rng(20284), 4))
    for argv, doc in ((["gate", "from-unitary"], {"U": u}), (["universality", "pseudo"], {"A": u}),
                      (["simulate"], {"circuit": {"n": 1, "steps": [{"named": "rot1", "param": 0.3,
                                                                     "targets": [0]}]},
                                      "initial": {"n": 1, "P": [1, 0, 0, 1]}})):
        code, text, _ = run_cli(["--format", "text", *argv], doc, tmp_path, capsys)
        assert code == EXIT_OK
        listed = json.loads(json.dumps(payloads.pop(), default=np.ndarray.tolist))
        assert text == "\n".join(cli._render_text(listed, 6)) + "\n"


# -- JSON input ----------------------------------------------------------------


def _same(a, b) -> bool:
    """Equal values of the same types, floats to the bit (so -0.0 is not 0.0)."""
    pairs = [(a, b)]
    while pairs:
        a, b = pairs.pop()
        if type(a) is not type(b):
            return False
        if isinstance(a, float):
            if struct.pack("<d", a) != struct.pack("<d", b):
                return False
        elif isinstance(a, list):
            if len(a) != len(b):
                return False
            pairs.extend(zip(a, b))
        elif isinstance(a, dict):
            if list(a) != list(b):
                return False
            pairs.extend((a[k], b[k]) for k in a)
        elif a != b:
            return False
    return True


def _assert_parses_as_json_loads(text: str) -> None:
    try:
        want = json.loads(text)
    except (ValueError, RecursionError) as exc:
        with pytest.raises(SchemaError) as got:
            cli._parse(text)
        assert str(got.value) == f"invalid JSON: {exc}"
        return
    got = cli._parse(text)
    assert _same(got, want), text[:200]


def _halfway_decimals(rng: random.Random, count: int) -> list[str]:
    """Exact decimal midpoints of adjacent doubles, and the midpoints nudged by one digit."""
    out = []
    with decimal.localcontext() as ctx:
        ctx.prec = 1200
        while len(out) < count:
            x = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(63)))[0]
            y = math.nextafter(x, math.inf)
            if math.isinf(y):
                continue
            mid = (decimal.Decimal(x) + decimal.Decimal(y)) / 2
            out.append(str(mid))
            nudge = decimal.Decimal((0, (1,), mid.as_tuple().exponent))
            out.extend((str(mid + nudge), str(mid - nudge)))
    return out


def test_parse_matches_json_loads_on_seeded_documents():
    rng = random.Random(20272)
    for _ in range(1000):
        payload = {"top": _random_payload(rng), "list": [_random_payload(rng)]}
        _assert_parses_as_json_loads(json.dumps(payload))
    halfway = _halfway_decimals(rng, 3000)
    for i in range(0, len(halfway), 100):
        _assert_parses_as_json_loads("[" + ", ".join(halfway[i:i + 100]) + "]")
    floats = _binade_floats(20, 20273)
    _assert_parses_as_json_loads(json.dumps([floats[i:i + 256] for i in range(0, len(floats), 256)]))


_LONG_INTEGERS = (
    "1234567890123456789", "-1234567890123456789", "9223372036854775807", "9223372036854775808",
    "-9223372036854775808", "-9223372036854775809", "18446744073709551615",
    "18446744073709551616", "-18446744073709551616", "12345678901234567890123",
)


@pytest.mark.parametrize("literal", _LONG_INTEGERS)
def test_parse_keeps_long_integers(literal):
    for text in (literal, f"[{literal}]", f'{{"n": {literal}, "P": [1, 0.5, {literal}]}}',
                 f"[[0.25, 1e19], [{literal}, 2.5]]", f"[1.5, [2.5, [{literal}]]]"):
        _assert_parses_as_json_loads(text)
    # at the end of a gate-sized document, behind 65 535 ordinary numbers
    rows = np.random.default_rng(20274).normal(size=(256, 256)).tolist()
    text = json.dumps({"entries": rows})
    _assert_parses_as_json_loads(text[:-3] + ", " + literal + "]]}")
    assert type(cli._parse(f"[{literal}]")[0]) is int


_EDGE_TEXTS = [
    "NaN", "[Infinity, -Infinity]", '{"t": NaN}', "[1e400, -1e400]", "1e-400",
    '"\\ud800"', '["\\udc00x"]', '"\\ud83d\\ude00"', "\ud800", '["\udcff"]',
    "\ufeff{}", '\ufeff{"n": 1}', '{"a": 1, "a": 2, "b": 3}', '{"a": 1, "b": 2, "a": 3}',
    "-0", "-0.0", "[-0, 0.0, -0.0]", "", " ", "[1,]", "[1 2]", '{"a" 1}', "{'a': 1}",
    "01", "1.", ".5", "+1", "[1]x", "tru", "nul", '"tab\there"', '"\\x"', "1" * 5000,
    " \t\n\r[1] \n", "[" * 600 + "]" * 600, '{"a": ' * 600 + "1" + "}" * 600,
    "[" * 5000 + "]" * 5000, '{"a": ' * 5000 + "1" + "}" * 5000,
]


@pytest.mark.parametrize("text", _EDGE_TEXTS, ids=[f"{t[:12]!r}.{len(t)}" for t in _EDGE_TEXTS])
def test_parse_matches_json_loads_at_the_edges(text):
    _assert_parses_as_json_loads(text)


def test_parse_reads_plain_documents_with_orjson(monkeypatch):
    """json.loads is the fallback, not the route taken for an ordinary document."""
    rows = np.random.default_rng(20275).normal(size=(64, 64)).tolist()
    gate = {"n_in": 3, "n_out": 3, "entries": rows}
    pairs = {"U": encode_complex_matrix(np.array(rows[:32]) + 1j * np.array(rows[32:])).tolist()}
    deep = {"deep": json.loads("[" * 400 + "]" * 400)}

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    monkeypatch.setattr(cli.json, "loads", refuse)
    for doc in (gate, pairs, deep):
        assert _same(cli._parse(json.dumps(doc)), doc)
    for fallback in ("[18446744073709551616]", "[[1e19]]", "[NaN]", "[" * 600 + "]" * 600,
                     "[" + "[0, 1], " * 10_000 + "[]]"):
        with pytest.raises(AssertionError, match="json.loads called"):
            cli._parse(fallback)


def test_parse_reads_wide_number_rows_as_json_loads():
    """A number row is tested by its norm: rows near 2**63 go to json.loads, and keep its values."""
    big = 2**61
    for text in (f"[{', '.join([str(big)] * 5)}]", f"[[{big}.0, {big}.0, {big}.0, 0.5]]",
                 f'{{"a": [1, [{big * 4}], "x", {big * 4}.5]}}', "[1, [2, [3, [18446744073709551616]]]]",
                 '[true, false, 9223372036854775807]', '[[1, 2], null, [1e300, 1e300, 1e300]]'):
        _assert_parses_as_json_loads(text)


def test_mode_echoes_a_wide_integer_as_json_loads_reads_it(tmp_path, capsys):
    """orjson reads the literal as 1e+20; the message must show json.loads' integer."""
    from ququat.mvlogic import builtin, synthesize_quantum

    doc = {"gate": sz.gate_to_json(synthesize_quantum(builtin("luk_neg"))),
           "table": {"arity": 1, "outputs": [3, 2, 1, 0]}}
    text = json.dumps(doc, default=np.ndarray.tolist)[:-1] + ', "mode": [[100000000000000000000]]}'
    (tmp_path / "verify.json").write_text(text)
    code = main(["mvlogic", "verify", str(tmp_path / "verify.json")])
    out, err = capsys.readouterr()
    assert (code, out, err) == (
        EXIT_SCHEMA, "", "error: mode: expected 'plain' or 'extended', got [[100000000000000000000]]\n"
    )


@pytest.mark.parametrize(
    "argv,doc,message",
    [
        (["gate", "from-lindblad"], {"H": [[1, 0], [0, -1]], "V": [], "t": 1e308},
         "propagator has non-finite entries"),
        (["gate", "from-lindblad"],
         {"model": {"H": [0, 0, 1], "C": np.eye(3).tolist()}, "tau": 1e300},
         "propagator has non-finite entries"),
        (["gate", "compose"], {"gates": [{"entries": [[1e200] * 4] * 4}] * 2},
         "result has non-finite entries"),
        (["gate", "tensor"], {"gates": [{"entries": [[1e200] * 4] * 4}] * 2},
         "result has non-finite entries"),
        # two entries of 1.7e308 overflow the Choi matrix into NaN
        (["gate", "analyze"], {"entries": np.diag([1, 1.7e308, 1.7e308, 1]).tolist()},
         "Choi matrix has non-finite entries"),
    ],
)
def test_non_finite_results_exit_3_with_one_line(tmp_path, capsys, argv, doc, message):
    code, out, err = run_cli(argv, doc, tmp_path, capsys)
    assert (code, out, err) == (EXIT_CONTRACT, "", f"error: {message}\n")


_GKS_MODEL = {"H": [0, 0, 0.5], "C": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}


def _gks_overflow_mutants():
    """The README GKS model with one entry of C or H set to +-1.7e308."""
    for key, shape in (("C", (3, 3)), ("H", (3,))):
        for where in np.ndindex(shape):
            for value in (1.7e308, -1.7e308):
                model = json.loads(json.dumps(_GKS_MODEL))
                entries = model[key]
                for i in where[:-1]:
                    entries = entries[i]
                entries[where[-1]] = value
                yield pytest.param(model, id=f"{key}{list(where)}={value:+.1e}")


@pytest.mark.parametrize("model", list(_gks_overflow_mutants()))
def test_overflowing_gks_coefficients_exit_3_with_one_line(tmp_path, capsys, model):
    code, out, err = run_cli(["gate", "from-lindblad"], {"model": model, "tau": 1.0}, tmp_path, capsys)
    assert (code, out) == (EXIT_CONTRACT, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    # the library refuses by contract, never by a LinAlgError
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            gks_matrix(GKSModel(model["H"], model["C"]))
        except NumericContractError:
            pass


class TestUnreadableInput:
    def test_deeply_nested_arrays(self, tmp_path, capsys):
        code, out, err = _run_text(["state", "validate"], "[" * 100000 + "]" * 100000,
                                   tmp_path, capsys)
        assert code == EXIT_SCHEMA
        assert out == ""
        assert err.startswith("error: invalid JSON: maximum recursion depth exceeded")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("depth", [10_000, 100_000])
    def test_deeply_nested_objects(self, depth):
        # in a child process: a parser that recursed this deep would crash it
        proc = subprocess.run(
            [sys.executable, "-m", "ququat.cli", "state", "validate"],
            input='{"a": ' * depth + "1" + "}" * depth,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == EXIT_SCHEMA
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: invalid JSON: maximum recursion depth exceeded")
        assert proc.stderr.count("\n") == 1

    def test_file_that_is_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        code = main(["state", "validate", str(path)])
        out, err = capsys.readouterr()
        assert code == EXIT_SCHEMA
        assert out == ""
        assert err == (
            "error: cannot read input: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"
        )

    def test_integer_beyond_the_digit_limit(self, tmp_path, capsys):
        code, out, err = _run_text(["state", "validate"], '{"n": 1, "P": [%s, 0, 0, 0]}' % ("1" * 5000),
                                   tmp_path, capsys)
        assert code == EXIT_SCHEMA
        assert out == ""
        assert err.startswith("error: invalid JSON: Exceeds the limit (4300 digits)")
        assert err.count("\n") == 1


_OVERSIZE = [
    (["state", "validate"], '{"n": %d, "P": [1, 0, 0, 0]}', "state.P", 4),
    (["mvlogic", "dnf"], '{"arity": %d, "outputs": [0]}', "table.outputs", 1),
]


@pytest.mark.parametrize("k", [10000, 100000000000])
@pytest.mark.parametrize("args,template,where,got", _OVERSIZE, ids=["pvec-n", "table-arity"])
def test_oversize_count_is_refused_before_the_power(args, template, where, got, k):
    # in a child process, so that forming 4**k fails the test by its timeout
    proc = subprocess.run(
        [sys.executable, "-m", "ququat.cli", *args],
        input=template % k,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_SCHEMA
    assert proc.stdout == ""
    assert proc.stderr == f"error: {where}: expected 4**{k} entries, got {got}\n"


@pytest.mark.parametrize("args,template,where,got", _OVERSIZE, ids=["pvec-n", "table-arity"])
def test_count_message_up_to_32(tmp_path, capsys, args, template, where, got):
    for k, count in ((2, "16"), (32, str(4**32)), (33, "4**33")):
        code, out, err = _run_text(args, template % k, tmp_path, capsys)
        assert code == EXIT_SCHEMA
        assert err == f"error: {where}: expected {count} entries, got {got}\n"


_EYE64 = np.eye(64).tolist()
_ABOVE_GATE_CEILING = [
    (["gate", "from-unitary"], {"U": _EYE64}, "unitary"),
    (["gate", "from-kraus"], {"ops": [_EYE64]}, "Kraus set"),
    (["gate", "from-lindblad"], {"H": _EYE64, "t": 1}, "H"),
    (["gate", "tensor"], {"gates": [{"entries": _EYE64}, {"entries": _EYE64}]}, "tensor product"),
    (["measure"], {"projectors": [_EYE64], "state": {"n": 6, "P": [1] + [0] * 4095}}, "projector 0"),
    (["universality", "pseudo"], {"A": _EYE64}, "operator"),
    (["mvlogic", "synth"], {"arity": 6, "outputs": [0] * 4096}, "classical map"),
    (["simulate"], {"circuit": {"n": 6, "steps": [{"unitary": _EYE64}]},
                    "initial": {"n": 6, "P": [1] + [0] * 4095}}, "unitary"),
]


@pytest.mark.parametrize("args,doc,what", _ABOVE_GATE_CEILING,
                         ids=[" ".join(case[0]) for case in _ABOVE_GATE_CEILING])
def test_gates_above_the_ceiling_exit_3(tmp_path, capsys, monkeypatch, args, doc, what):
    from ququat import liouville

    def refuse(n):
        raise AssertionError(f"pauli_basis({n}) reached above the gate ceiling")

    monkeypatch.setattr(liouville, "pauli_basis", refuse)
    code, out, err = run_cli(args, doc, tmp_path, capsys)
    assert code == EXIT_CONTRACT
    assert out == ""
    assert err == f"error: {what} acts on 6 ququats; dense gates are limited to 5\n"


@pytest.mark.parametrize("side", [17, 32])
def test_lie_side_above_the_ceiling_exit_3(tmp_path, capsys, monkeypatch, side):
    from ququat import universality

    def refuse(dim):
        raise AssertionError(f"a span of {dim} complex entries allocated above the Lie ceiling")

    monkeypatch.setattr(universality, "_ComplexSpan", refuse)
    unit = np.zeros((side, side))
    unit[0, 1] = 1
    doc = {"generators": [unit.tolist(), unit.T.tolist()]}
    code, out, err = run_cli(["universality", "closure-dim"], doc, tmp_path, capsys)
    assert code == EXIT_CONTRACT
    assert out == ""
    assert err == f"error: generators have side {side}; Lie closures are limited to side 16\n"


def test_lie_side_at_the_ceiling_stays_within_3_gib():
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    doc = {"generators": [encode_complex_matrix(g) for g in entangler_generators()]}
    proc = subprocess.run(
        [sys.executable, "-m", "ququat.cli", "universality", "closure-dim"],
        input=json.dumps(doc, default=np.ndarray.tolist),
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=cap,
        # BLAS thread pools reserve address space per core
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert proc.returncode == EXIT_OK, proc.stderr[-500:]
    assert json.loads(proc.stdout) == {"dimension": 512}


def _capped_env_run(args, **kwargs):
    """A child Python under a 3 GiB address-space cap, on one BLAS thread."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    return subprocess.run(
        [sys.executable, *args], text=True, timeout=120, preexec_fn=cap,
        # BLAS thread pools reserve address space per core
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}, **kwargs,
    )


def test_run_at_the_ceiling_stays_within_3_gib():
    # 1000 such steps at n = 8 used to end in an orjson SystemError at 2.89 GB
    n = 8
    steps = MAX_RUN_ENTRIES // 4**n - 1
    doc = {"circuit": {"n": n, "steps": [{"named": "not", "targets": [i % n]}
                                         for i in range(steps)]},
           "initial": {"n": n, "P": random_pvec(np.random.default_rng(8), n).P.tolist()}}
    proc = _capped_env_run(["-m", "ququat.cli", "simulate"], input=json.dumps(doc),
                           stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")


@pytest.mark.parametrize("n", [1, 4, 8, 11])
def test_run_above_the_ceiling_is_refused_before_any_gate(tmp_path, capsys, n):
    # no step names a gate: at the ceiling the first step is refused, one
    # step above it the run is, before any step is read
    states = MAX_RUN_ENTRIES // 4 ** max(n, 4)
    for count in (states - 1, states):
        doc = {"circuit": {"n": n, "steps": [{"named": "none"}] * count},
               "initial": {"n": 1, "P": [1, 0, 0, 0]}}
        code, out, err = run_cli(["simulate"], doc, tmp_path, capsys)
        if count < states:
            assert (code, out, err) == (EXIT_SCHEMA, "", "error: steps[0].named: unknown gate name 'none'\n")
        else:
            assert (code, out) == (EXIT_SCHEMA, "")
            assert err == (f"error: steps: {states + 1} states at n={n} count "
                           f"{(states + 1) * 4 ** max(n, 4)} numbers; a run is limited to 8388608\n")


def test_gates_above_the_run_ceiling_are_refused_within_1_gib():
    # 150 such steps used to end in an _ArrayMemoryError traceback: each
    # 5-ququat gate is 4**10 numbers, and eight of them fit
    doc = {"circuit": {"n": 5, "steps": [{"unitary": np.eye(32).tolist()}] * 150},
           "initial": {"n": 5, "P": [1] + [0] * 1023}}

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "ququat.cli", "simulate"], input=json.dumps(doc),
        capture_output=True, text=True, timeout=120, preexec_fn=cap,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )
    assert (proc.returncode, proc.stdout) == (EXIT_SCHEMA, "")
    assert proc.stderr == (f"error: steps[8]: the gates up to this step count {9 * 4**10} numbers; "
                           f"a run's gates are limited to {MAX_RUN_ENTRIES}\n")


def test_gates_at_the_run_ceiling_run(tmp_path, capsys):
    p = random_pvec(np.random.default_rng(5), 5).P
    step = {"unitary": np.eye(32).tolist(), "targets": [4, 3, 2, 1, 0]}
    doc = {"circuit": {"n": 5, "steps": [step] * 8}, "initial": {"n": 5, "P": p}}
    assert sum(s.gate.entries.size for s in parse_circuit(doc["circuit"]).steps) == MAX_RUN_ENTRIES
    code, out, err = run_cli(["simulate"], doc, tmp_path, capsys)
    assert (code, err) == (EXIT_OK, "")
    assert np.allclose(json.loads(out)["final_state"]["P"], p, rtol=0, atol=1e-12)


_ONE_STEP_CIRCUIT = '{"circuit": {"n": %d, "steps": [{"named": "not"}]}, "initial": {"n": 1, "P": [1,0,0,0]}}'


def test_circuit_n_above_32_is_refused_before_targets():
    # in a child process: before the ceiling, this n hung in range(n)
    proc = subprocess.run(
        [sys.executable, "-m", "ququat.cli", "simulate"],
        input=_ONE_STEP_CIRCUIT % 100000000000,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_SCHEMA
    assert proc.stdout == ""
    assert proc.stderr == "error: circuit.n: expected an integer <= 32, got 100000000000\n"


def test_circuit_n_up_to_32(tmp_path, capsys):
    code, _, err = _run_text(["simulate"], _ONE_STEP_CIRCUIT % 33, tmp_path, capsys)
    assert (code, err) == (EXIT_SCHEMA, "error: circuit.n: expected an integer <= 32, got 33\n")
    # n = 32 passes the bound on n; its two states are then above the run ceiling
    code, _, err = _run_text(["simulate"], _ONE_STEP_CIRCUIT % 32, tmp_path, capsys)
    assert (code, err) == (EXIT_SCHEMA, f"error: steps: 2 states at n=32 count {2 * 4**32} "
                                        "numbers; a run is limited to 8388608\n")
    # the largest one-step circuit under the run ceiling is parsed and run
    code, _, err = _run_text(["simulate"], _ONE_STEP_CIRCUIT % 11, tmp_path, capsys)
    assert (code, err) == (EXIT_CONTRACT, "error: initial state has n=1, circuit expects n=11\n")
