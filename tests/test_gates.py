"""Gate construction, application, classification and reversibility tests."""

import numpy as np
import pytest

import ququat.gates
from ququat import (
    DensityMatrix,
    GateMatrix,
    KrausSet,
    LiouvilleVector,
    NumericContractError,
    PauliVector,
    ZeroProbabilityError,
    adjoint_gate,
    analyze_gate,
    apply_linear,
    apply_nonlinear,
    check_reversible,
    check_reversible_superop,
    choi_matrix,
    compose,
    computational_state,
    gate_from_kraus,
    gate_from_matrix,
    gate_from_unitary,
    measurement_gates,
    tensor_gates,
    validate_density,
    weyl_generators,
)
from ququat.liouville import SIGMA, PauliIndex
from ququat.gates import GENERAL, TRACE_DECREASING, TRACE_PRESERVING, measurement
from ququat.serialization import gate_from_json, gate_to_json

from helpers import P0, P1, depolarizing_kraus, random_pvec, random_tp_kraus, random_unitary

RNG = np.random.default_rng(11)

HADAMARD_U = (SIGMA[1] + SIGMA[3]) / np.sqrt(2)
E0_EXPECTED = np.array(
    [[0.5, 0, 0, 0.5], [0, 0, 0, 0], [0, 0, 0, 0], [0.5, 0, 0, 0.5]]
)
E1_EXPECTED = np.array(
    [[0.5, 0, 0, -0.5], [0, 0, 0, 0], [0, 0, 0, 0], [-0.5, 0, 0, 0.5]]
)


class TestGateFromUnitary:
    def test_not_gate(self):
        g = gate_from_unitary(SIGMA[1])
        assert np.allclose(g.entries, np.diag([1, 1, -1, -1]), atol=1e-12)

    def test_identity(self):
        for n in (1, 2):
            g = gate_from_unitary(np.eye(2**n))
            assert np.allclose(g.entries, np.eye(4**n), atol=1e-12)

    def test_hadamard(self):
        g = gate_from_unitary(HADAMARD_U)
        expected = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0]])
        assert np.allclose(g.entries, expected, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pauli_gate_formula(self, k):
        g = gate_from_unitary(SIGMA[k])
        expected = np.array(
            [
                [
                    2 * (mu == 0) * (nu == 0) + 2 * (mu == k) * (nu == k) - (mu == nu)
                    for nu in range(4)
                ]
                for mu in range(4)
            ]
        )
        assert np.allclose(g.entries, expected, atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(NumericContractError):
            gate_from_unitary(np.array([[1, 0], [0, 0.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN slips through a plain max(...) > tol unitarity test
        with pytest.raises(NumericContractError, match="non-finite"):
            gate_from_unitary(np.array([[bad, 1], [1, 0]]))

    @pytest.mark.parametrize("n", [1, 2])
    def test_homomorphism(self, n):
        for _ in range(25):
            u = random_unitary(RNG, 2**n)
            v = random_unitary(RNG, 2**n)
            lhs = gate_from_unitary(u @ v).entries
            rhs = (gate_from_unitary(u).entries @ gate_from_unitary(v).entries)
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    @pytest.mark.parametrize("n", [1, 2])
    def test_orthogonal_and_unital(self, n):
        for _ in range(25):
            g = gate_from_unitary(random_unitary(RNG, 2**n)).entries
            size = 4**n
            assert np.max(np.abs(g @ g.T - np.eye(size))) < 1e-10
            assert np.max(np.abs(g.T @ g - np.eye(size))) < 1e-10
            assert np.max(np.abs(g)) <= 1 + 1e-10
            delta = np.zeros(size)
            delta[0] = 1
            assert np.max(np.abs(g[:, 0] - delta)) < 1e-10


class TestGateFromKraus:
    def test_projector_pair_sum(self):
        g = gate_from_kraus([P0, P1])
        assert np.allclose(g.entries, np.diag([1, 0, 0, 1]), atol=1e-12)
        assert g.kind == TRACE_PRESERVING

    def test_single_unitary_consistency(self):
        u = random_unitary(RNG, 4)
        assert np.allclose(
            gate_from_kraus([u]).entries, gate_from_unitary(u).entries, atol=1e-12
        )

    def test_depolarizing(self):
        p = 0.3
        g = gate_from_kraus(depolarizing_kraus(p))
        s = 1 - 4 * p / 3
        assert np.allclose(g.entries, np.diag([1, s, s, s]), atol=1e-12)

    def test_reality_of_random_kraus(self):
        # construction asserts |Im| < tol internally; run many cases
        for n in (1, 2):
            for _ in range(25):
                gate_from_kraus(random_tp_kraus(RNG, n))

    def test_trace_preserving_row(self):
        for _ in range(25):
            g = gate_from_kraus(random_tp_kraus(RNG, 1)).entries
            assert np.max(np.abs(g[0] - [1, 0, 0, 0])) < 1e-10

    def test_trace_increasing_rejected(self):
        with pytest.raises(NumericContractError):
            gate_from_kraus([np.eye(2) * 1.2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NumericContractError, match="non-finite"):
            KrausSet((P0, np.array([[0, 0], [0, bad]])))
        with pytest.raises(NumericContractError, match="non-finite"):
            gate_from_kraus([P0, np.array([[0, 0], [0, bad]])])

    def test_trace_decreasing_kind(self):
        assert gate_from_kraus([P0]).kind == TRACE_DECREASING


class TestMeasurementGates:
    def test_displayed_matrices(self):
        g0, g1 = measurement_gates([P0, P1])
        assert np.allclose(g0.entries, E0_EXPECTED, atol=1e-12)
        assert np.allclose(g1.entries, E1_EXPECTED, atol=1e-12)

    def test_complete_family_sums_to_tp(self):
        g0, g1 = measurement_gates([P0, P1])
        total = g0.entries + g1.entries
        assert np.allclose(total, np.diag([1, 0, 0, 1]), atol=1e-12)
        assert np.max(np.abs(total[0] - [1, 0, 0, 0])) < 1e-12

    def test_rejects_non_projector(self):
        with pytest.raises(NumericContractError):
            measurement_gates([np.array([[0.5, 0], [0, 0.5]])])

    def test_rejects_non_orthogonal(self):
        plus = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(NumericContractError):
            measurement_gates([P0, plus])

    @pytest.mark.parametrize("shape", [(0, 0), (2, 4), (1, 2), (4,)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(NumericContractError) as info:
            measurement_gates([P0, np.zeros(shape)])
        assert str(info.value) == f"projector 1 must be square 2**n x 2**n, got {shape}"

    @pytest.mark.parametrize(
        "build",
        [
            measurement_gates,
            pytest.param(lambda ps: measurement(ps).rows, id="Measurement.rows"),
        ],
    )
    def test_projector_just_above_one_is_trace_increasing(self, build):
        # P P - P = eps + eps**2 passes the algebra tolerance, so the family
        # is accepted as projectors; sum P^dag P then has eigenvalue
        # (1 + eps)**2, above 1 + tolerance at eps = 9e-11 only
        def family(eps):
            return [np.diag([1 + eps, 0.0]), np.diag([0.0, 1.0])]

        with pytest.raises(NumericContractError) as info:
            build(family(9e-11))
        assert str(info.value) == (
            "trace-increasing Kraus set: max eigenvalue of sum A^dag A is 1.00000000018"
        )
        if build is measurement_gates:
            assert [g.kind for g in build(family(3e-11))] == [TRACE_DECREASING] * 2
        else:
            assert build(family(3e-11)).shape == (2, 4)

    def test_nan_projector_is_refused_only_as_a_kraus_operator(self):
        # every comparison with NaN is false, so the Hermitian, idempotent
        # and orthogonality checks pass it; the finiteness check on P^dagger P refuses it
        nan = np.array([[np.nan, 0.0], [0.0, 0.0]])
        for build in (measurement, measurement_gates):
            with pytest.raises(NumericContractError, match="^Kraus operators have non-finite entries$"):
                build([nan])

    def test_probabilities_sum_to_one(self):
        g0, g1 = measurement_gates([P0, P1])
        for _ in range(50):
            p = random_pvec(RNG, 1)
            total = (g0.entries @ p.P)[0] + (g1.entries @ p.P)[0]
            assert abs(total - 1.0) < 1e-10


def _kraus_route(projectors):
    """The gates of the projectors, each through ``gate_from_kraus([p])``, or
    the message that route refuses with: the oracle for measurement_gates."""
    try:
        return [gate_from_kraus([p]) for p in projectors]
    except NumericContractError as exc:
        return str(exc)


def _oracle_families(n):
    """Named n-ququat projector families for the differential oracle."""
    rng = np.random.default_rng(1919 + n)
    d = 2**n
    v = random_unitary(rng, d)
    cuts = sorted(rng.choice(np.arange(1, d), size=min(3, d - 1), replace=False))
    complete = [v[:, a:b] @ v[:, a:b].conj().T for a, b in zip([0, *cuts], [*cuts, d])]

    def edge(eps):
        top = np.zeros((d, d))
        top[0, 0] = 1 + eps
        return [top, np.diag([0.0] + [1.0] * (d - 1))]

    nan = np.zeros((d, d))
    nan[0, 0] = np.nan
    return {
        "complete": complete,
        "incomplete": complete[:-1],
        "identity": [np.eye(d)],
        "edge accepted": edge(3e-11),
        "edge refused": edge(9e-11),
        "nan": [nan],
    }


class TestMeasurementOracle:
    """measurement_gates against the gate_from_kraus route, bit for bit."""

    REFUSED = {
        "edge refused":
            "trace-increasing Kraus set: max eigenvalue of sum A^dag A is 1.00000000018",
        "nan": "Kraus operators have non-finite entries",
    }

    @pytest.mark.parametrize("name", list(_oracle_families(1)))
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gates_match_the_kraus_route(self, n, name):
        family = _oracle_families(n)[name]
        want = _kraus_route(family)
        if name in self.REFUSED:
            assert want == self.REFUSED[name]
            with pytest.raises(NumericContractError) as info:
                measurement_gates(family)
            assert str(info.value) == want
            return
        got = measurement_gates(family)
        assert [g.kind for g in got] == [g.kind for g in want]
        if name == "identity":
            assert got[0].kind == TRACE_PRESERVING
        for g, w in zip(got, want, strict=True):
            assert (g.n_in, g.n_out) == (w.n_in, w.n_out) == (n, n)
            assert np.array_equal(g.entries.view(np.uint64), w.entries.view(np.uint64))

    def test_one_by_one_projector_is_refused_by_its_size(self):
        # sized as every other square operator, not as a Kraus operator
        assert _kraus_route([np.eye(1)]) == "Kraus operators must be 2**m x 2**n, got (1, 1)"
        with pytest.raises(NumericContractError) as info:
            measurement_gates([np.eye(1)])
        assert str(info.value) == "projector 0 must be square 2**n x 2**n, got (1, 1)"


class TestApply:
    def test_identity(self):
        g = gate_from_unitary(np.eye(2))
        p = random_pvec(RNG, 1)
        assert np.allclose(apply_linear(g, p).P, p.P, atol=1e-12)

    def test_not_flips_sigma3(self):
        g = gate_from_unitary(SIGMA[1])
        out = apply_linear(g, PauliVector(1, [1, 0, 0, 1]))
        assert np.allclose(out.P, [1, 0, 0, -1], atol=1e-12)

    def test_hadamard_maps_z_to_x(self):
        g = gate_from_unitary(HADAMARD_U)
        out = apply_linear(g, PauliVector(1, [1, 0, 0, 1]))
        assert np.allclose(out.P, [1, 1, 0, 0], atol=1e-12)

    def test_linear_rejects_trace_decreasing(self):
        g = gate_from_kraus([P0])
        with pytest.raises(NumericContractError):
            apply_linear(g, PauliVector(1, [1, 0, 0, 0]))

    def test_nonlinear_projector_fixes_own_state(self):
        g = gate_from_kraus([P0])
        out, p = apply_nonlinear(g, PauliVector(1, [1, 0, 0, 1]))
        assert p == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(out.P, [1, 0, 0, 1], atol=1e-12)

    def test_nonlinear_on_maximally_mixed(self):
        g = gate_from_kraus([P0])
        out, p = apply_nonlinear(g, PauliVector(1, [1, 0, 0, 0]))
        assert p == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(out.P, [1, 0, 0, 1], atol=1e-12)

    def test_nonlinear_zero_probability(self):
        g = gate_from_kraus([P0])
        with pytest.raises(ZeroProbabilityError):
            apply_nonlinear(g, PauliVector(1, [1, 0, 0, -1]))

    def test_tp_cp_gate_preserves_validity(self):
        for n in (1, 2):
            for _ in range(20):
                g = gate_from_kraus(random_tp_kraus(RNG, n))
                out = apply_linear(g, random_pvec(RNG, n))
                assert validate_density(out).valid


class TestComposeTensorAdjoint:
    def test_not_squared(self):
        g = gate_from_unitary(SIGMA[1])
        assert np.allclose(compose(g, g).entries, np.eye(4), atol=1e-12)

    def test_hadamard_squared(self):
        g = gate_from_unitary(HADAMARD_U)
        assert np.allclose(compose(g, g).entries, np.eye(4), atol=1e-12)

    def test_projector_idempotent(self):
        g = gate_from_kraus([P0])
        assert np.allclose(compose(g, g).entries, g.entries, atol=1e-12)

    def test_tensor_identity(self):
        g = gate_from_unitary(np.eye(2))
        assert np.allclose(tensor_gates(g, g).entries, np.eye(16), atol=1e-12)

    def test_tensor_matches_unitary_route(self):
        not_gate = gate_from_unitary(SIGMA[1])
        eye_gate = gate_from_unitary(np.eye(2))
        lhs = tensor_gates(not_gate, eye_gate)
        rhs = gate_from_unitary(np.kron(SIGMA[1], np.eye(2)))
        assert np.allclose(lhs.entries, rhs.entries, atol=1e-12)
        state = computational_state(PauliIndex((1, 0)))
        assert np.allclose(
            apply_linear(lhs, state).P, apply_linear(rhs, state).P, atol=1e-12
        )

    def test_tensor_measurement_row(self):
        g0 = gate_from_kraus([P0])
        row0 = tensor_gates(g0, g0).entries[0]
        expected = np.zeros(16)
        expected[[0, 3, 12, 15]] = 0.25
        assert np.allclose(row0, expected, atol=1e-12)

    def test_adjoint_diag(self):
        g = gate_from_unitary(SIGMA[1])
        assert np.array_equal(adjoint_gate(g).entries, g.entries)

    def test_adjoint_is_dagger_gate(self):
        for _ in range(25):
            u = random_unitary(RNG, 2)
            lhs = adjoint_gate(gate_from_unitary(u)).entries
            rhs = gate_from_unitary(u.conj().T).entries
            assert np.max(np.abs(lhs - rhs)) < 1e-10

    def test_adjoint_of_measurement_symmetric(self):
        g = gate_from_kraus([P0])
        assert np.array_equal(adjoint_gate(g).entries, g.entries)


def _labelled_row0_off():
    """The identity with row 0 set to (1, 0.5, 0, 0), labelled trace-preserving."""
    m = np.eye(4)
    m[0, 1] = 0.5
    return GateMatrix(1, 1, m, TRACE_PRESERVING)


class TestKindRules:
    """A gate's kind comes from its construction or from its row 0, never from a label."""

    def test_a_product_is_classified_by_its_row_0(self):
        m = _labelled_row0_off()
        product = compose(m, m)
        assert product.entries[0].tolist() == [1.0, 1.0, 0.0, 0.0]
        assert product.kind == GENERAL
        assert tensor_gates(m, m).kind == GENERAL

    def test_a_decoded_gate_ignores_its_label(self):
        doc = {"kind": TRACE_PRESERVING, "entries": _labelled_row0_off().entries.tolist()}
        assert gate_from_json(doc).kind == GENERAL
        assert gate_from_json({"kind": GENERAL, "entries": np.eye(4).tolist()}).kind == (
            TRACE_PRESERVING
        )

    def test_a_label_unlike_the_entries_is_not_refused(self):
        # sum A^dag A is 1.5e-10 off I, so the Kraus set is trace-decreasing,
        # while row 0 is within 1e-10 of delta, so the matrix reads as preserving
        a = np.diag([np.sqrt(1 - 1.5e-10), 1.0])
        g = gate_from_kraus([a])
        assert g.kind == TRACE_DECREASING
        assert gate_from_json(gate_to_json(g)).kind == TRACE_PRESERVING

    def test_kraus_sets_and_measurements_share_one_kind_rule(self, monkeypatch):
        calls = []
        rule = ququat.gates._completeness_kind

        def counted(s):
            calls.append(s.shape)
            return rule(s)

        def no_kraus_set(*args):
            raise AssertionError("measurement built a KrausSet")

        monkeypatch.setattr(ququat.gates, "_completeness_kind", counted)
        assert KrausSet((P0,)).kind() == TRACE_DECREASING
        monkeypatch.setattr(ququat.gates, "KrausSet", no_kraus_set)
        assert measurement([P0, P1]).kinds == (TRACE_DECREASING,) * 2
        assert calls == [(2, 2)] * 3


class TestChoi:
    def test_identity_gate(self):
        j = choi_matrix(gate_from_unitary(np.eye(2)))
        omega = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for k in range(2):
                omega[2 * i + i, 2 * k + k] = 1.0
        assert np.allclose(j, omega, atol=1e-12)
        assert np.linalg.eigvalsh(j)[0] >= -1e-12

    def test_reflection_not_cp(self):
        g = gate_from_matrix(np.diag([1.0, 1.0, 1.0, -1.0]))
        assert np.linalg.eigvalsh(choi_matrix(g))[0] < -0.1

    def test_depolarizing_cp(self):
        for p in (0.0, 0.3, 0.75):
            g = gate_from_kraus(depolarizing_kraus(p))
            assert np.linalg.eigvalsh(choi_matrix(g))[0] >= -1e-9

    def test_kraus_gates_always_cp(self):
        for n in (1, 2):
            for _ in range(10):
                g = gate_from_kraus(random_tp_kraus(RNG, n))
                assert np.linalg.eigvalsh(choi_matrix(g))[0] >= -1e-9


class TestAnalyze:
    def test_not_gate(self):
        rep = analyze_gate(gate_from_unitary(SIGMA[1]))
        assert rep.real and rep.trace_preserving and rep.unital
        assert rep.orthogonal and rep.completely_positive

    def test_measurement_gate(self):
        rep = analyze_gate(gate_from_kraus([P0]))
        assert not rep.trace_preserving
        assert rep.trace_decreasing
        assert rep.row0_sq_sum == pytest.approx(0.5, abs=1e-12)

    def test_nonunital_flag(self):
        from ququat import builtin, synthesize_quantum

        rep = analyze_gate(synthesize_quantum(builtin("luk_neg")))
        assert rep.trace_preserving
        assert not rep.unital
        assert rep.t_norm == pytest.approx(1.0, abs=1e-12)


class TestReversibility:
    def test_unitary_full_space(self):
        u = random_unitary(RNG, 2)
        cert = check_reversible([u], np.eye(2))
        assert cert.reversible
        assert cert.mu_sq == pytest.approx(1.0, abs=1e-10)
        assert cert.m.shape == (1, 1)

    def test_depolarizing_not_reversible(self):
        cert = check_reversible(depolarizing_kraus(0.5), np.eye(2))
        assert not cert.reversible

    def test_amplitude_style_subspace(self):
        kraus = [np.array([[1, 0], [0, 0]], dtype=complex), np.array([[0, 1], [0, 0]], dtype=complex)]
        cert = check_reversible(kraus, P1)
        assert cert.reversible
        assert np.allclose(cert.m, np.diag([0, 1]), atol=1e-12)
        assert cert.mu_sq == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_projector_rejected(self, bad):
        # NaN passes every tolerance comparison, and max(0.0, nan) is 0.0
        with pytest.raises(NumericContractError, match="^P_M has non-finite entries$"):
            check_reversible([np.eye(2)], np.array([[bad, 0], [0, 0]]))

    def test_zero_projector_rejected(self):
        with pytest.raises(NumericContractError):
            check_reversible([np.eye(2)], np.zeros((2, 2)))

    def test_superop_unitary(self):
        g = gate_from_unitary(random_unitary(RNG, 2))
        gm = gate_from_unitary(np.eye(2))
        ok, gamma = check_reversible_superop(g, gm)
        assert ok
        assert gamma == pytest.approx(1.0, abs=1e-10)

    def test_superop_depolarizing(self):
        g = gate_from_kraus(depolarizing_kraus(0.5))
        gm = gate_from_unitary(np.eye(2))
        ok, _ = check_reversible_superop(g, gm)
        assert not ok

    def test_oracles_agree(self):
        gm_full = gate_from_unitary(np.eye(2))
        cases = [
            ([random_unitary(RNG, 2)], np.eye(2), gm_full),
            (tuple(depolarizing_kraus(0.5).ops), np.eye(2), gm_full),
            (
                (np.array([[1, 0], [0, 0]], dtype=complex), np.array([[0, 1], [0, 0]], dtype=complex)),
                P1,
                gate_from_kraus([P1]),
            ),
        ]
        for ops, proj, gm in cases:
            cert = check_reversible(list(ops), proj)
            via_gate, _ = check_reversible_superop(gate_from_kraus(list(ops)), gm)
            assert cert.reversible == via_gate


class TestGateCeiling:
    """Dense 4**n x 4**n gates above MAX_GATE_QUQUATS are refused before they are built.

    Every input here is on six ququats and small (64 x 64 at most).
    pauli_basis is patched to raise, so a construction that gets past a
    missing check into the Pauli basis fails at once instead of building
    the 4**6 x 4**6 gate.
    """

    @staticmethod
    def _refuse_basis(monkeypatch):
        from ququat import liouville

        def refuse(n):
            raise AssertionError(f"pauli_basis({n}) reached above the gate ceiling")

        monkeypatch.setattr(liouville, "pauli_basis", refuse)

    @staticmethod
    def _builders():
        from ququat import (
            GateMatrix,
            TruthTable,
            embed_gate,
            left_mult_superop,
            liouvillian_superop,
            named_gate,
            right_mult_superop,
            synthesize_quantum,
        )

        eye = np.eye(64)
        half = GateMatrix(3, 3, np.eye(64), TRACE_PRESERVING)
        return [
            ("unitary", lambda: gate_from_unitary(eye)),
            ("Kraus set", lambda: gate_from_kraus([eye])),
            ("Kraus set", lambda: gate_from_kraus([np.ones((2, 64)) / 8])),
            ("projector 0", lambda: measurement_gates([eye])),
            ("H", lambda: liouvillian_superop(eye, [eye])),
            ("operator", lambda: left_mult_superop(eye)),
            ("operator", lambda: right_mult_superop(eye)),
            ("tensor product", lambda: tensor_gates(half, half)),
            ("classical map", lambda: synthesize_quantum(TruthTable(6, (0,) * 4096))),
            ("embedded gate", lambda: embed_gate(named_gate("not"), (0,), 6)),
        ]

    def test_refused_above_the_ceiling(self, monkeypatch):
        from ququat.config import MAX_GATE_QUQUATS

        assert MAX_GATE_QUQUATS == 5
        builders = self._builders()
        self._refuse_basis(monkeypatch)
        for what, build in builders:
            with pytest.raises(NumericContractError) as info:
                build()
            assert str(info.value) == f"{what} acts on 6 ququats; dense gates are limited to 5"


@pytest.mark.parametrize("build,what", [
    (gate_from_unitary, "unitary"),
    ("left_mult_superop", "operator"),
    ("right_mult_superop", "operator"),
    ("liouvillian_superop", "H"),
])
def test_empty_operator_is_not_square_2n(build, what):
    import ququat

    build = getattr(ququat, build) if isinstance(build, str) else build
    for shape in ((0, 0), (1, 1), (3, 3), (2, 4), (4,)):
        with pytest.raises(NumericContractError) as info:
            build(np.ones(shape))
        assert str(info.value) == f"{what} must be square 2**n x 2**n, got {shape}"


@pytest.mark.parametrize("build,arg", [
    (KrausSet, (np.zeros((0, 0)),)),
    (gate_from_kraus, [np.zeros(4)]),
    (gate_from_matrix, np.zeros((0, 0))),
    (gate_from_matrix, np.zeros((0, 4))),
    (gate_from_matrix, np.zeros(4)),
    (DensityMatrix.from_matrix, np.zeros((0, 0))),
    (LiouvilleVector.from_operator, np.zeros((0, 0))),
    (weyl_generators, 0),
    (gate_from_matrix, [[1.0]]),
    (gate_from_matrix, np.eye(1, 4)),
    (DensityMatrix.from_matrix, [[1]]),
    (LiouvilleVector.from_operator, [[1]]),
])
def test_empty_or_flat_operand_is_a_contract_error(build, arg):
    """An empty or 1-D operand has no ququat count, and a side of 1 counts 0: a one-line refusal."""
    with pytest.raises(NumericContractError) as info:
        build(arg)
    assert "\n" not in str(info.value)
