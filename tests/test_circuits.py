"""Circuit parsing, gate embedding and execution tests."""

import dataclasses

import numpy as np
import pytest

import ququat.circuits
from ququat import (
    NumericContractError,
    PauliIndex,
    PauliVector,
    SchemaError,
    ZeroProbabilityError,
    analyze_gate,
    computational_state,
    embed_gate,
    gate_from_kraus,
    gate_from_unitary,
    measurement_gates,
    parse_circuit,
    run_circuit,
)
from ququat.liouville import SIGMA
from ququat.serialization import decode_complex_matrix, encode_complex_matrix, encode_real_matrix

from helpers import random_pvec, random_tp_kraus, random_unitary

RNG = np.random.default_rng(23)

PURE0 = PauliVector(1, [1, 0, 0, 1])
P0_JSON = [[1, 0], [0, 0]]
P1_JSON = [[0, 0], [0, 1]]
HADAMARD = ((SIGMA[1] + SIGMA[3]) / np.sqrt(2)).real


def h_step():
    return {"unitary": [[float(x) for x in row] for row in HADAMARD]}


class TestEmbedding:
    def test_identity_embedding(self):
        g = gate_from_unitary(SIGMA[1])
        assert embed_gate(g, (0,), 1) is g

    def test_matches_unitary_route(self):
        for targets, u_factors in (
            ((0,), (SIGMA[1], np.eye(2))),
            ((1,), (np.eye(2), SIGMA[1])),
        ):
            g = embed_gate(gate_from_unitary(SIGMA[1]), targets, 2)
            ref = gate_from_unitary(np.kron(*u_factors))
            assert np.allclose(g.entries, ref.entries, atol=1e-12)

    def test_permuted_two_ququat_gate(self):
        u = random_unitary(RNG, 4)
        g = gate_from_unitary(u)
        swapped = embed_gate(g, (1, 0), 2)
        # exchanging the tensor factors of U gives the same action
        swap_u = np.zeros((4, 4))
        for a in range(2):
            for b in range(2):
                swap_u[2 * b + a, 2 * a + b] = 1.0
        ref = gate_from_unitary(swap_u @ u @ swap_u)
        assert np.max(np.abs(swapped.entries - ref.entries)) < 1e-10

    def test_three_ququat_middle_target(self):
        u = random_unitary(RNG, 2)
        g = embed_gate(gate_from_unitary(u), (1,), 3)
        ref = gate_from_unitary(np.kron(np.kron(np.eye(2), u), np.eye(2)))
        assert np.max(np.abs(g.entries - ref.entries)) < 1e-10

    def test_bad_targets(self):
        g = gate_from_unitary(SIGMA[1])
        with pytest.raises(NumericContractError):
            embed_gate(g, (2,), 2)
        with pytest.raises(NumericContractError):
            embed_gate(g, (0, 0), 2)


class TestParse:
    def test_minimal(self):
        c = parse_circuit({"n": 1, "steps": [{"named": "not"}]})
        assert c.n == 1
        assert len(c.steps) == 1
        assert c.steps[0].rows is None
        assert c.steps[0].post_select is None

    def test_two_step_measure(self):
        c = parse_circuit(
            {
                "n": 1,
                "steps": [
                    h_step(),
                    {"measure": {"projectors": [P0_JSON, P1_JSON]}, "post_select": 0},
                ],
            }
        )
        assert c.steps[1].rows.shape == (2, 4)
        assert not c.steps[1].rows.flags.writeable
        assert c.steps[1].post_select == 0

    def test_malformed_complex_pair(self):
        with pytest.raises(SchemaError, match=r"steps\[0\].unitary\[0\]\[0\]"):
            parse_circuit({"n": 1, "steps": [{"unitary": [[[1], 0], [0, 1]]}]})

    def test_unknown_gate_name(self):
        with pytest.raises(SchemaError, match="named"):
            parse_circuit({"n": 1, "steps": [{"named": "frobnicate"}]})

    def test_non_unitary_rejected_at_parse(self):
        with pytest.raises(NumericContractError):
            parse_circuit({"n": 1, "steps": [{"unitary": [[1, 0], [0, 0.5]]}]})

    def test_incomplete_family_needs_post_select(self):
        with pytest.raises(NumericContractError, match="incomplete"):
            parse_circuit({"n": 1, "steps": [{"measure": {"projectors": [P0_JSON]}}]})
        parse_circuit(
            {"n": 1, "steps": [{"measure": {"projectors": [P0_JSON]}, "post_select": 0}]}
        )

    def test_targets_are_checked_before_completeness(self):
        for targets, message in (([1], r"targets \(1,\) invalid for n=1"),
                                 ([0, 0], "gate acts on 1 ququats")):
            step = {"measure": {"projectors": [P0_JSON]}, "targets": targets}
            with pytest.raises(NumericContractError, match=message):
                parse_circuit({"n": 1, "steps": [step]})

    @pytest.mark.parametrize("n,step,message", [
        (1, {"named": "not", "targets": [5]}, "steps[0]: targets (5,) invalid for n=1"),
        (2, {"kraus": {"ops": [np.eye(2, 4).tolist()]}},
         "steps[0]: only square gates can be embedded in a circuit"),
    ])
    def test_target_errors_name_their_step(self, n, step, message):
        with pytest.raises(NumericContractError) as info:
            parse_circuit({"n": n, "steps": [step]})
        assert str(info.value) == message

    def test_trace_decreasing_kraus_step_is_refused(self):
        with pytest.raises(NumericContractError) as info:
            parse_circuit({"n": 1, "steps": [{"kraus": {"ops": [P0_JSON]}}]})
        assert str(info.value) == "steps[0]: non-measurement steps need a trace-preserving gate"

    def test_nonselective_step_is_one_trace_preserving_channel(self):
        c = parse_circuit(
            {"n": 1, "steps": [{"measure": {"projectors": [P0_JSON, P1_JSON]}}]}
        )
        step = c.steps[0]
        assert step.post_select is None
        assert step.gate.kind == "trace_preserving"
        # rho -> P0 rho P0 + P1 rho P1 keeps P[0] and P[3] and drops the rest
        assert np.array_equal(step.gate.entries, np.diag([1.0, 0, 0, 1]))
        assert np.array_equal(step.rows, [[0.5, 0, 0, 0.5], [0.5, 0, 0, -0.5]])

    def test_lindblad_step(self):
        c = parse_circuit(
            {
                "n": 1,
                "steps": [
                    {
                        "lindblad": {
                            "model": {"H": [0, 0, 0.5], "C": [[0, 0, 0], [0, 0, 0], [0, 0, 0]]},
                            "tau": 1.0,
                        }
                    }
                ],
            }
        )
        from ququat import named_gate

        assert np.max(np.abs(c.steps[0].gate.entries - named_gate("rot1", 1.0).entries)) < 1e-12

    def test_table_step(self):
        c = parse_circuit(
            {"n": 1, "steps": [{"table": {"arity": 1, "outputs": [3, 2, 1, 0]}}]}
        )
        assert c.steps[0].report.trace_preserving


class TestRun:
    def test_not_fixes_maximally_mixed(self):
        c = parse_circuit({"n": 1, "steps": [{"named": "not"}]})
        rec = run_circuit(c, computational_state(PauliIndex((0,))))
        assert np.array_equal(rec.final_state.P, [1, 0, 0, 0])

    def test_born_rule_branches(self):
        c = parse_circuit(
            {"n": 1, "steps": [h_step(), {"measure": {"projectors": [P0_JSON, P1_JSON]}}]}
        )
        rec = run_circuit(c, PURE0)
        assert np.allclose(rec.steps[1].probabilities, [0.5, 0.5], atol=1e-10)
        assert rec.cumulative_probability == 1.0

    def test_post_selection_probability(self):
        c = parse_circuit(
            {
                "n": 1,
                "steps": [
                    h_step(),
                    {"measure": {"projectors": [P0_JSON, P1_JSON]}, "post_select": 0},
                ],
            }
        )
        rec = run_circuit(c, PURE0)
        assert rec.cumulative_probability == pytest.approx(0.5, abs=1e-10)
        assert np.allclose(rec.final_state.P, [1, 0, 0, 1], atol=1e-10)

    def test_luk_neg_table_step(self):
        c = parse_circuit(
            {"n": 1, "steps": [{"table": {"arity": 1, "outputs": [3, 2, 1, 0]}}]}
        )
        rec = run_circuit(c, computational_state(PauliIndex((2,))))
        assert np.array_equal(rec.final_state.P, computational_state(PauliIndex((1,))).P)

    def test_zero_probability_branch(self):
        c = parse_circuit(
            {"n": 1, "steps": [{"measure": {"projectors": [P0_JSON, P1_JSON]}, "post_select": 1}]}
        )
        with pytest.raises(ZeroProbabilityError):
            run_circuit(c, PURE0)

    def test_invalid_initial_state(self):
        c = parse_circuit({"n": 1, "steps": [{"named": "not"}]})
        with pytest.raises(NumericContractError):
            run_circuit(c, PauliVector(1, [1, 1, 1, 1]))

    def test_nonselective_state_is_branch_mixture(self):
        c = parse_circuit(
            {"n": 1, "steps": [{"measure": {"projectors": [P0_JSON, P1_JSON]}}]}
        )
        p = random_pvec(RNG, 1)
        rec = run_circuit(c, p)
        assert np.allclose(rec.final_state.P, [p.P[0], 0, 0, p.P[3]], atol=1e-12)

    def test_two_ququat_targets(self):
        c = parse_circuit(
            {"n": 2, "steps": [{"named": "not", "targets": [1]}]}
        )
        rec = run_circuit(c, computational_state(PauliIndex((0, 3))))
        expected = computational_state(PauliIndex((0, 3))).P.copy()
        expected[3] = -1.0
        assert np.allclose(rec.final_state.P, expected, atol=1e-12)

    def test_states_recorded_per_step(self):
        c = parse_circuit({"n": 1, "steps": [h_step(), {"named": "not"}]})
        rec = run_circuit(c, PURE0)
        assert len(rec.steps) == 2
        assert np.allclose(rec.steps[0].state.P, [1, 1, 0, 0], atol=1e-12)


# -- the local engine against the dense embedding -----------------------------

_FLAGS = ("real", "trace_preserving", "trace_decreasing", "unital", "orthogonal",
          "completely_positive")

# unary tables whose synthesized gate is completely positive, so runs stay valid
_CP_TABLES = ([0, 2, 3, 1], [0, 3, 1, 2], [0, 0, 0, 3], [1, 1, 1, 1])


def _pick(rng, n, k):
    return [int(t) for t in rng.permutation(n)[:k]]


def _basis_projectors(rng, k, count):
    """``count`` - 1 rank-one projectors on the columns of a Haar unitary, plus the rest."""
    count = min(count, 2**k)
    u = random_unitary(rng, 2**k)
    cols = [np.outer(u[:, j], u[:, j].conj()) for j in range(2**k)]
    rest = sum(cols[count - 1:])
    return [encode_complex_matrix(p) for p in cols[: count - 1] + [rest]]


def _random_circuit(rng, n):
    """One step of every kind, each on shuffled, non-contiguous targets where n allows."""
    k = min(2, n)
    h = rng.normal(size=(2**k, 2**k)) + 1j * rng.normal(size=(2**k, 2**k))
    c = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    raw = gate_from_kraus(random_tp_kraus(rng, k, 2)).entries
    return [
        {"named": "rot1", "param": float(rng.uniform(0, 6)), "targets": _pick(rng, n, 1)},
        # reversed, and not adjacent for n >= 3
        {"unitary": encode_complex_matrix(random_unitary(rng, 2**k)),
         "targets": [n - 1, 0][:k] if k == 2 else [0]},
        {"kraus": {"ops": [encode_complex_matrix(a) for a in random_tp_kraus(rng, k).ops]},
         "targets": _pick(rng, n, k)},
        {"measure": {"projectors": _basis_projectors(rng, 1, 2)}, "post_select": 1,
         "targets": _pick(rng, n, 1)},
        {"lindblad": {"model": {"H": rng.normal(size=3).tolist(),
                                "C": encode_complex_matrix(0.2 * c @ c.conj().T)},
                      "tau": 0.7},
         "targets": _pick(rng, n, 1)},
        {"lindblad": {"H": encode_complex_matrix(h + h.conj().T),
                      "V": [encode_complex_matrix(0.3 * h)], "t": 0.4},
         "targets": _pick(rng, n, k)},
        {"gate": {"entries": encode_real_matrix(raw)}, "targets": _pick(rng, n, k)},
        {"table": {"arity": 1, "outputs": _CP_TABLES[rng.integers(len(_CP_TABLES))]},
         "targets": _pick(rng, n, 1)},
        {"measure": {"projectors": _basis_projectors(rng, k, 3)}, "targets": _pick(rng, n, k)},
    ]


def _dense_run(circuit, docs, initial):
    """Fold the embedded 4**n x 4**n step matrices over the initial state.

    A measurement step is rebuilt from the projectors of its document
    ``docs[i]``, one ``measurement_gates`` branch gate each: every branch
    image is formed, then one is picked or all are summed.
    """
    p = initial.P
    cumulative = 1.0
    out = []
    for step, doc in zip(circuit.steps, docs, strict=True):
        if "measure" not in doc:
            p = embed_gate(step.gate, step.targets, circuit.n).entries @ p
            out.append((p, None, None, cumulative))
            continue
        projectors = [decode_complex_matrix(m, "projector") for m in doc["measure"]["projectors"]]
        gates = measurement_gates(projectors)
        mats = [embed_gate(g, step.targets, circuit.n).entries for g in gates]
        probs = [m[0] @ p for m in mats]
        if step.post_select is None:
            p = sum(m @ p for m in mats)
            out.append((p, probs, None, cumulative))
        else:
            prob = probs[step.post_select]
            p = mats[step.post_select] @ p / prob
            cumulative *= prob
            out.append((p, probs, prob, cumulative))
    return out


class TestLocalEngine:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_dense_embedding(self, n, seed):
        rng = np.random.default_rng([29, n, seed])
        steps = _random_circuit(rng, n)
        circuit = parse_circuit({"n": n, "steps": steps})
        initial = random_pvec(rng, n)
        record = run_circuit(circuit, initial)
        dense = _dense_run(circuit, steps, initial)
        assert len(record.steps) == len(dense)
        for got, (p, probs, prob, cumulative) in zip(record.steps, dense):
            assert np.max(np.abs(got.state.P - p)) < 1e-12
            assert (got.probabilities is None) == (probs is None)
            if probs is not None:
                assert np.max(np.abs(np.subtract(got.probabilities, probs))) < 1e-12
            assert (got.probability is None) == (prob is None)
            if prob is not None:
                assert abs(got.probability - prob) < 1e-12
            assert abs(got.cumulative_probability - cumulative) < 1e-12
        assert record.cumulative_probability == record.steps[-1].cumulative_probability

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_local_reports_match_embedded(self, n):
        rng = np.random.default_rng([31, n])
        # two gates that are not completely positive, parsed but never run
        steps = _random_circuit(rng, n) + [
            {"named": "inversion", "targets": _pick(rng, n, 1)},
            {"table": {"arity": 1, "outputs": [3, 2, 1, 0]}, "targets": _pick(rng, n, 1)},
        ]
        circuit = parse_circuit({"n": n, "steps": steps})
        assert not any(s.report.completely_positive for s in circuit.steps[-2:])
        for step in circuit.steps:
            local = step.report
            full = analyze_gate(embed_gate(step.gate, step.targets, n))
            for flag in _FLAGS:
                assert getattr(local, flag) == getattr(full, flag), flag
            for name in ("row0_deviation", "row0_sq_sum", "t_norm"):
                assert abs(getattr(local, name) - getattr(full, name)) < 1e-12, name
            # the embedded Choi spectrum is the local one times 2**(n-k), plus zeros
            scale = 2 ** (n - step.gate.n_in)
            want = local.min_choi_eigenvalue * scale
            if scale > 1:
                want = min(want, 0.0)
            assert abs(full.min_choi_eigenvalue - want) < 1e-10

    def test_hot_path_stays_local(self, monkeypatch):
        def no_embedding(*args, **kwargs):
            raise AssertionError("embed_gate called on the circuit path")

        analyzed = []

        def recording_analyze(gate, *args, **kwargs):
            analyzed.append(gate)
            return analyze_gate(gate, *args, **kwargs)

        monkeypatch.setattr(ququat.circuits, "embed_gate", no_embedding)
        monkeypatch.setattr(ququat.circuits, "analyze_gate", recording_analyze)
        rng = np.random.default_rng(37)
        steps = _random_circuit(rng, 5)
        steps = [s for s in steps if "table" not in s and "gate" not in s]
        assert len(steps) == 7
        circuit = parse_circuit({"n": 5, "steps": steps})
        record = run_circuit(circuit, random_pvec(rng, 5))
        assert len(record.steps) == 7
        # parsing and running certify nothing; reading a report does, once
        assert analyzed == []
        for _ in range(2):
            for step in circuit.steps:
                step.report
        local = [s.gate for s in circuit.steps]
        assert len(analyzed) == len(local)
        assert all(a is g for a, g in zip(analyzed, local))
        assert all(g.n_in <= 2 and g.n_out <= 2 for g in analyzed)

    @pytest.mark.parametrize("n", [1, 3])
    def test_reports_equal_eager_analysis(self, n):
        rng = np.random.default_rng([41, n])
        inversion = ququat.named_gate("inversion").entries
        # every step kind, plus gates that are not completely positive,
        # one of them a raw gate
        steps = _random_circuit(rng, n) + [
            {"named": "inversion", "targets": _pick(rng, n, 1)},
            {"table": {"arity": 1, "outputs": [3, 2, 1, 0]}, "targets": _pick(rng, n, 1)},
            {"gate": {"entries": encode_real_matrix(inversion)}, "targets": _pick(rng, n, 1)},
        ]
        circuit = parse_circuit({"n": n, "steps": steps})
        assert not any(s.report.completely_positive for s in circuit.steps[-3:])
        # linear steps, and measurement steps with and without post-selection
        assert {(s.rows is None, s.post_select is None) for s in circuit.steps} == {
            (True, True), (False, True), (False, False)}
        for step in circuit.steps:
            assert step.report == analyze_gate(step.gate)
        # not a field: construction and equality ignore it
        assert "report" not in {f.name for f in dataclasses.fields(ququat.circuits.CircuitStep)}


# -- certifying the run's states -----------------------------------------------


class TestStateCertificates:
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_records_carry_the_state_reports(self, n):
        rng = np.random.default_rng([59, n])
        circuit = parse_circuit({"n": n, "steps": _random_circuit(rng, n)})
        record = run_circuit(circuit, random_pvec(rng, n))
        for step in record.steps:
            want = ququat.validate_density(step.state)
            got = step.validation
            assert got.valid
            for flag in ("hermitian", "unit_trace", "psd", "purity_in_bounds"):
                assert getattr(got, flag) == getattr(want, flag)
            for name in ("trace", "min_eigenvalue", "purity"):
                assert abs(getattr(got, name) - getattr(want, name)) < 1e-12

    @staticmethod
    def _spy_eigvalsh(monkeypatch):
        shapes = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        return shapes

    def test_one_eigvalsh_call_covers_a_small_run(self, monkeypatch):
        steps = [{"named": "not", "targets": [t]} for t in (0, 2, 1, 3)]
        circuit = parse_circuit({"n": 4, "steps": steps})
        shapes = self._spy_eigvalsh(monkeypatch)
        record = run_circuit(circuit, random_pvec(RNG, 4))
        assert len(record.steps) == 4
        assert shapes == [(5, 16, 16)]

    def test_no_stack_holds_more_than_one_n8_density(self, monkeypatch):
        steps = [{"named": "not", "targets": [t]} for t in (0, 7)]
        circuit = parse_circuit({"n": 8, "steps": steps})
        initial = computational_state(PauliIndex((3,) + (0,) * 7))
        shapes = self._spy_eigvalsh(monkeypatch)
        record = run_circuit(circuit, initial)
        assert all(s.validation.valid for s in record.steps)
        assert shapes == [(1, 256, 256)] * 3

    @staticmethod
    def _spy_apply_local(monkeypatch):
        calls = []
        apply_local = ququat.gates._apply_local

        def counting(gate, pvec, targets):
            calls.append(gate)
            return apply_local(gate, pvec, targets)

        monkeypatch.setattr(ququat.gates, "_apply_local", counting)
        return calls

    def test_post_selected_branch_is_computed_once(self, monkeypatch):
        steps = [h_step(), {"measure": {"projectors": [P0_JSON, P1_JSON]}, "post_select": 1}]
        circuit = parse_circuit({"n": 1, "steps": steps})
        calls = self._spy_apply_local(monkeypatch)
        record = run_circuit(circuit, PURE0)
        assert calls == [step.gate for step in circuit.steps]
        # the same bits as the one-gate route
        gate = circuit.steps[1].gate
        state, p = ququat.apply_nonlinear(gate, record.steps[0].state)
        assert record.steps[1].probability == p
        assert record.final_state.P.tobytes() == state.P.tobytes()

    @pytest.mark.parametrize("n", [1, 3])
    def test_each_step_forms_one_image(self, monkeypatch, n):
        rng = np.random.default_rng([61, n])
        circuit = parse_circuit({"n": n, "steps": _random_circuit(rng, n)})
        initial = random_pvec(rng, n)
        calls = self._spy_apply_local(monkeypatch)
        run_circuit(circuit, initial)
        assert len(calls) == len(circuit.steps)
        assert all(a is s.gate for a, s in zip(calls, circuit.steps))

    def test_invalid_state_wins_over_a_later_step_error(self):
        grow = {"gate": {"entries": [[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 2, 0], [0, 0, 0, 2]]}}
        zero = {"measure": {"projectors": [P1_JSON]}, "post_select": 0}
        circuit = parse_circuit({"n": 1, "steps": [grow, zero]})
        with pytest.raises(NumericContractError, match="circuit produced an invalid state"):
            run_circuit(circuit, PURE0)
        with pytest.raises(ZeroProbabilityError):
            run_circuit(parse_circuit({"n": 1, "steps": [zero]}), PURE0)

    def test_overflowing_state_is_invalid_not_a_crash(self):
        big = {"gate": {"entries": [[1, 0, 0, 0], [0, 1e200, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}}
        circuit = parse_circuit({"n": 1, "steps": [big, big, big]})
        with np.errstate(all="ignore"):
            with pytest.raises(NumericContractError, match="circuit produced an invalid state"):
                run_circuit(circuit, PauliVector(1, [1, 0.7, 0.7, 0]))
