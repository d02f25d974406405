"""Translation split, SVD, polar and Euler-angle tests."""

import math

import numpy as np
import pytest

from ququat import (
    NumericContractError,
    builtin,
    compose,
    euler_angles,
    gate_from_kraus,
    gate_from_unitary,
    named_gate,
    polar_gate,
    split_translation,
    svd_gate,
    svd_rect_gate,
    synthesize_quantum,
    translation_gate,
    unital_gate,
)
from ququat.decompositions import EulerAngles
from ququat.liouville import SIGMA

from helpers import random_tp_gate, random_unitary

RNG = np.random.default_rng(13)


class TestSplitTranslation:
    def test_identity(self):
        split = split_translation(gate_from_unitary(np.eye(2)))
        assert np.array_equal(split.t, np.zeros(3))
        assert np.array_equal(split.r, np.eye(3))

    def test_i0_gate(self):
        split = split_translation(synthesize_quantum(builtin("I0")))
        assert np.array_equal(split.t, [0, 0, 1])
        assert np.array_equal(split.r, [[0, 0, 0], [0, 0, 0], [-1, -1, -1]])

    def test_roundtrip_random(self):
        for n in (1, 2):
            g = random_tp_gate(RNG, n)
            split = split_translation(g)
            assert np.array_equal(split.reassemble().entries, g.entries)

    def test_group_law(self):
        for _ in range(20):
            a = split_translation(random_tp_gate(RNG, 1))
            b = split_translation(random_tp_gate(RNG, 1))
            prod = compose(a.reassemble(), b.reassemble())
            split = split_translation(prod)
            assert np.max(np.abs(split.t - (a.t + a.r @ b.t))) < 1e-12
            assert np.max(np.abs(split.r - a.r @ b.r)) < 1e-12

    def test_factorization_order(self):
        g = random_tp_gate(RNG, 1)
        split = split_translation(g)
        again = compose(translation_gate(split.t), unital_gate(split.r))
        assert np.max(np.abs(again.entries - g.entries)) < 1e-12

    def test_requires_tp(self):
        with pytest.raises(NumericContractError):
            split_translation(gate_from_kraus([np.array([[1, 0], [0, 0]], dtype=complex)]))

    @pytest.mark.parametrize("build", [lambda: translation_gate(np.zeros(0)),
                                       lambda: unital_gate(np.zeros((0, 0)))])
    def test_empty_blocks_give_no_gate(self, build):
        """An empty T or R block leaves a 1 x 1 matrix, which acts on no ququat."""
        with pytest.raises(NumericContractError) as info:
            build()
        assert str(info.value) == "a gate acts on at least one ququat, got (1, 1)"


class TestSVD:
    def test_unitary_gate_singular_values(self):
        g = gate_from_unitary(random_unitary(RNG, 2))
        dec = svd_gate(g)
        assert np.max(np.abs(dec.singular_values - 1.0)) < 1e-10

    def test_box_gate_values(self):
        dec = svd_gate(synthesize_quantum(builtin("box")))
        assert np.allclose(dec.singular_values, [1, 0, 0], atol=1e-12)

    def test_identity(self):
        dec = svd_gate(gate_from_unitary(np.eye(2)))
        assert np.allclose(dec.d.entries, np.eye(4), atol=1e-12)

    @pytest.mark.parametrize("n,count", [(1, 1000), (2, 100)])
    def test_reconstruction(self, n, count):
        for _ in range(count):
            g = random_tp_gate(RNG, n)
            dec = svd_gate(g)
            assert np.max(np.abs(dec.reconstruct().entries - g.entries)) < 1e-10
            s = dec.singular_values
            assert np.all(s >= 0)
            assert np.all(np.diff(s) <= 1e-12)

    def test_factor_structure(self):
        g = random_tp_gate(RNG, 1)
        dec = svd_gate(g)
        for factor in (dec.u1, dec.u2):
            b = factor.entries[1:, 1:]
            assert np.max(np.abs(b @ b.T - np.eye(3))) < 1e-10
            assert np.max(np.abs(factor.entries[1:, 0])) == 0

    def test_deterministic(self):
        g = random_tp_gate(RNG, 1)
        a = svd_gate(g)
        b = svd_gate(g)
        assert np.array_equal(a.u1.entries, b.u1.entries)
        assert np.array_equal(a.u2.entries, b.u2.entries)


class TestRectSVD:
    def partial_trace_gate(self):
        # order (2, 1) gate tracing out the second qubit
        bra0 = np.array([[1, 0]], dtype=complex)
        bra1 = np.array([[0, 1]], dtype=complex)
        ops = [np.kron(np.eye(2), bra0), np.kron(np.eye(2), bra1)]
        return gate_from_kraus(ops)

    def test_partial_trace_entries(self):
        g = self.partial_trace_gate()
        assert g.entries.shape == (4, 16)
        expected = np.zeros((4, 16))
        for mu in range(4):
            expected[mu, 4 * mu] = 1.0
        assert np.allclose(g.entries, expected, atol=1e-12)

    def test_partial_trace_svd(self):
        g = self.partial_trace_gate()
        dec = svd_rect_gate(g)
        assert np.allclose(dec.singular_values, [1, 1, 1], atol=1e-10)
        assert np.max(np.abs(dec.reconstruct().entries - g.entries)) < 1e-10

    def test_square_consistency(self):
        g = random_tp_gate(RNG, 1)
        a = svd_rect_gate(g)
        b = svd_gate(g)
        assert np.array_equal(a.d.entries, b.d.entries)

    def test_classical_rect_gate(self):
        # classical (2, 1) map: two-argument min synthesized to one output
        g = synthesize_quantum(builtin("min"))
        assert (g.n_in, g.n_out) == (2, 1)
        dec = svd_rect_gate(g)
        assert np.max(np.abs(dec.reconstruct().entries - g.entries)) < 1e-10


class TestPolar:
    def test_orthogonal_gate_gives_identity_s(self):
        g = gate_from_unitary(random_unitary(RNG, 2))
        dec = polar_gate(g)
        assert np.allclose(dec.symmetric.entries, np.eye(4), atol=1e-10)

    def test_diagonal_already_symmetric(self):
        d = np.diag([1.0, 2**-0.5, 2**-0.5, 1.0])
        from ququat import gate_from_matrix

        dec = polar_gate(gate_from_matrix(d))
        assert np.allclose(dec.orthogonal.entries, np.eye(4), atol=1e-10)
        assert np.allclose(dec.symmetric.entries, d, atol=1e-10)

    @pytest.mark.parametrize("side", ["right", "left"])
    @pytest.mark.parametrize("n,count", [(1, 1000), (2, 100)])
    def test_reconstruction(self, side, n, count):
        for _ in range(count):
            g = random_tp_gate(RNG, n)
            dec = polar_gate(g, side=side)
            assert np.max(np.abs(dec.reconstruct().entries - g.entries)) < 1e-10
            s = dec.symmetric.entries[1:, 1:]
            assert np.max(np.abs(s - s.T)) < 1e-10
            assert np.linalg.eigvalsh((s + s.T) / 2)[0] >= -1e-12


class TestEuler:
    def test_identity(self):
        ang = euler_angles(gate_from_unitary(np.eye(2)))
        assert (ang.alpha, ang.theta, ang.beta) == (0.0, 0.0, 0.0)

    def test_rot1_quarter_turn(self):
        ang = euler_angles(named_gate("rot1", math.pi / 2))
        assert ang.alpha == pytest.approx(math.pi / 2, abs=1e-12)
        assert ang.theta == 0.0
        assert ang.beta == 0.0

    def test_rot1_matrix_fixture(self):
        g = named_gate("rot1", math.pi / 2)
        expected = np.array([[1, 0, 0, 0], [0, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, 1]])
        assert np.allclose(g.entries, expected, atol=1e-12)

    def test_random_roundtrip(self):
        for _ in range(200):
            alpha = RNG.uniform(0, 2 * math.pi)
            theta = RNG.uniform(1e-5, math.pi - 1e-5)
            beta = RNG.uniform(0, 2 * math.pi)
            src = EulerAngles(alpha, theta, beta).reconstruct()
            ang = euler_angles(src)
            assert np.max(np.abs(ang.reconstruct().entries - src.entries)) < 1e-10

    def test_angles_stable_away_from_gimbal(self):
        for _ in range(100):
            alpha = RNG.uniform(0, 2 * math.pi)
            theta = RNG.uniform(1e-6, math.pi - 1e-6)
            beta = RNG.uniform(0, 2 * math.pi)
            if min(theta, math.pi - theta) < 1e-6:
                continue
            ang = euler_angles(EulerAngles(alpha, theta, beta).reconstruct())
            assert ang.theta == pytest.approx(theta, abs=1e-8)

    def test_gimbal_zero(self):
        src = EulerAngles(1.0, 0.0, 0.5).reconstruct()
        ang = euler_angles(src)
        assert ang.beta == 0.0
        assert ang.theta == 0.0
        assert ang.alpha == pytest.approx(1.5, abs=1e-12)

    def test_gimbal_pi(self):
        src = EulerAngles(1.0, math.pi, 0.25).reconstruct()
        ang = euler_angles(src)
        assert ang.beta == 0.0
        assert ang.theta == pytest.approx(math.pi, abs=1e-12)
        assert np.max(np.abs(ang.reconstruct().entries - src.entries)) < 1e-10

    def test_unitary_route_roundtrip(self):
        for _ in range(100):
            g = gate_from_unitary(random_unitary(RNG, 2))
            ang = euler_angles(g)
            assert np.max(np.abs(ang.reconstruct().entries - g.entries)) < 1e-10

    def test_rejects_reflection(self):
        with pytest.raises(NumericContractError):
            euler_angles(named_gate("inversion"))


class TestNamedGates:
    def test_inversion(self):
        assert np.array_equal(named_gate("inversion").entries, np.diag([1, -1, -1, -1]))

    def test_reflections(self):
        assert np.array_equal(named_gate("reflect1").entries, np.diag([1, -1, 1, 1]))
        assert np.array_equal(named_gate("reflect2").entries, np.diag([1, 1, -1, 1]))
        assert np.array_equal(named_gate("reflect3").entries, np.diag([1, 1, 1, -1]))

    def test_not(self):
        assert np.array_equal(named_gate("not").entries, np.diag([1, 1, -1, -1]))
        assert np.allclose(
            named_gate("not").entries, gate_from_unitary(SIGMA[1]).entries, atol=1e-12
        )

    def test_hadamard_matches_unitary(self):
        u = (SIGMA[1] + SIGMA[3]) / np.sqrt(2)
        assert np.allclose(
            named_gate("hadamard").entries, gate_from_unitary(u).entries, atol=1e-12
        )

    def test_pauli_k_matches_unitary(self):
        for k in (1, 2, 3):
            assert np.allclose(
                named_gate("pauli_k", k).entries,
                gate_from_unitary(SIGMA[k]).entries,
                atol=1e-12,
            )

    def test_reflection_identities_at_pi(self):
        inv = named_gate("inversion")
        r1 = compose(named_gate("rot1", math.pi), compose(named_gate("rot2", math.pi), inv))
        r2 = compose(named_gate("rot2", math.pi), inv)
        r3 = compose(named_gate("rot1", math.pi), inv)
        assert np.allclose(r1.entries, named_gate("reflect1").entries, atol=1e-12)
        assert np.allclose(r2.entries, named_gate("reflect2").entries, atol=1e-12)
        assert np.allclose(r3.entries, named_gate("reflect3").entries, atol=1e-12)

    def test_unknown_name(self):
        with pytest.raises(NumericContractError):
            named_gate("swap")
