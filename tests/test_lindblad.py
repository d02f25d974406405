"""Generator assembly, propagator and Liouvillian tests.

The propagator route (matrix exponential) is cross-checked against
adaptive Runge-Kutta integration of dP/dt = L P, and the Hamiltonian-only
case against the unitary gate route.
"""

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from ququat import (
    GKSModel,
    NumericContractError,
    PauliVector,
    apply_linear,
    gate_from_unitary,
    gks_matrix,
    gks_propagator,
    liouvillian_gate,
    liouvillian_superop,
    validate_density,
)
from ququat.lindblad import GeneratorMatrix, IndefiniteCoefficientWarning, LiouvillianSuperop
from ququat.liouville import SIGMA

from helpers import random_pvec, random_unitary

RNG = np.random.default_rng(17)


def random_positive_model(rng) -> GKSModel:
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    c = g @ g.conj().T
    return GKSModel(rng.normal(size=3), c)


def ode_oracle(gen, tau, p0):
    sol = solve_ivp(
        lambda _, y: gen.matrix @ y,
        (0.0, tau),
        p0,
        method="DOP853",
        rtol=1e-11,
        atol=1e-11,
    )
    return sol.y[:, -1]


def jump_ops_from_c(c):
    """Jump operators reproducing the dissipator of a PSD coefficient matrix."""
    vals, vecs = np.linalg.eigh(c)
    ops = []
    for j in range(3):
        if vals[j] <= 0:
            continue
        coeff = np.sqrt(vals[j] / 8.0)
        ops.append(coeff * sum(vecs[k, j] * SIGMA[k + 1] for k in range(3)))
    return ops


_EPS = np.zeros((3, 3, 3))
for _i, _j, _k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
    _EPS[_i, _j, _k] = 1.0
    _EPS[_j, _i, _k] = -1.0


def closed_form_generator(model: GKSModel) -> np.ndarray:
    """The single-qubit generator by its closed formula, the oracle for gks_matrix:

    A[k, l] = 2 H_m eps(k,m,l) + (C[k,l] + C[l,k])/8 - delta(k,l) Tr(C)/4,
    B[k]    = -1/4 eps(i,j,k) Im C[i,j],   L = [[0, 0], [B, A]].
    """
    c = model.c
    trc = float(np.trace(c).real)
    a = np.zeros((3, 3))
    for k in range(3):
        for l in range(3):
            a[k, l] = (
                2.0 * float(np.dot(model.h, _EPS[k, :, l]))
                + (c[k, l] + c[l, k]).real / 8.0
            )
        a[k, k] -= trc / 4.0
    b = np.array(
        [-0.25 * float(np.sum(_EPS[:, :, k] * c.imag)) for k in range(3)]
    )
    matrix = np.zeros((4, 4))
    matrix[1:, 1:] = a
    matrix[1:, 0] = b
    return matrix


class TestGKSMatrix:
    def test_depolarizing_coefficients(self):
        gamma = 0.8
        gen = gks_matrix(GKSModel(np.zeros(3), gamma * np.eye(3)))
        assert np.allclose(gen.a, -(gamma / 2) * np.eye(3), atol=1e-12)
        assert np.array_equal(gen.b, np.zeros(3))

    def test_hamiltonian_block(self):
        h = 0.7
        gen = gks_matrix(GKSModel([0, 0, h], np.zeros((3, 3))))
        expected = np.array([[0, -2 * h, 0], [2 * h, 0, 0], [0, 0, 0]])
        assert np.allclose(gen.a, expected, atol=1e-12)
        assert np.array_equal(gen.b, np.zeros(3))

    def test_zero_model(self):
        gen = gks_matrix(GKSModel(np.zeros(3), np.zeros((3, 3))))
        assert np.array_equal(gen.matrix, np.zeros((4, 4)))

    def test_non_hermitian_rejected(self):
        c = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
        with pytest.raises(NumericContractError):
            gks_matrix(GKSModel(np.zeros(3), c))

    def test_indefinite_warns(self):
        with pytest.warns(IndefiniteCoefficientWarning):
            gks_matrix(GKSModel(np.zeros(3), -np.eye(3)))

    def test_real_c_gives_zero_b(self):
        for _ in range(20):
            b = RNG.normal(size=(3, 3))
            gen = gks_matrix(GKSModel(RNG.normal(size=3), b @ b.T))
            assert np.array_equal(gen.b, np.zeros(3))

    def test_matches_jump_operator_route(self):
        # independent path: dissipator assembled from jump operators via
        # the general Liouvillian, converted to the Pauli basis
        for _ in range(20):
            model = random_positive_model(RNG)
            h_op = sum(model.h[k] * SIGMA[k + 1] for k in range(3))
            liou = liouvillian_superop(h_op, jump_ops_from_c(model.c))
            assert np.max(np.abs(liou.to_pauli_generator() - gks_matrix(model).matrix)) < 1e-10

    def test_amplitude_damping_fixed_point(self):
        gamma = 0.6
        c = 2 * gamma * np.array([[1, -1j, 0], [1j, 1, 0], [0, 0, 0]])
        gen = gks_matrix(GKSModel(np.zeros(3), c))
        gate = gks_propagator(gen, 60.0)
        out = apply_linear(gate, PauliVector(1, [1, 0, 0, 0]))
        assert np.allclose(out.P, [1, 0, 0, 1], atol=1e-9)


# C as (re, im) pairs, exactly Hermitian; the generator's top row keeps a
# rounding residue of 1.164e-10, small against C's entries of about 3e6
_GKS_WITNESS = GKSModel(
    [283379.4, 112078.2, -629887.9],
    np.array([[[2523224.3, 0.0], [-362715.9, 565606.3], [-734551.3, 180180.9]],
              [[-362715.9, -565606.3], [3457121.1, 0.0], [-561778.1, -800736.1]],
              [[-734551.3, -180180.9], [-561778.1, 800736.1], [2549938.7, 0.0]]]) @ [1, 1j],
)


def _seeded_model(rng, scale, positive, complex_c) -> GKSModel:
    """A model whose C is exactly Hermitian, positive definite or traceless."""
    g = rng.normal(size=(3, 3)) + (1j * rng.normal(size=(3, 3)) if complex_c else 0)
    c = g @ g.conj().T
    if not positive:
        c = c - np.trace(c).real / 3 * np.eye(3)
    c = scale * c
    return GKSModel(scale * rng.normal(size=3), (c + c.conj().T) / 2)


class TestClosedFormOracle:
    @pytest.mark.parametrize("scale", [1.0, 1e4, 1e6, 1e10, 1e100])
    @pytest.mark.parametrize("positive", [True, False])
    @pytest.mark.parametrize("complex_c", [True, False])
    def test_gks_matrix_matches_the_closed_formula(self, scale, positive, complex_c):
        rng = np.random.default_rng([61, int(np.log10(scale)), positive, complex_c])
        for _ in range(20):
            model = _seeded_model(rng, scale, positive, complex_c)
            if positive:
                got = gks_matrix(model).matrix
            else:
                with pytest.warns(IndefiniteCoefficientWarning):
                    got = gks_matrix(model).matrix
            want = closed_form_generator(model)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
            if not complex_c:
                assert np.array_equal(got[1:, 0], np.zeros(3))

    def test_the_large_witness_matches_the_closed_formula(self):
        want = closed_form_generator(_GKS_WITNESS)
        got = gks_matrix(_GKS_WITNESS).matrix
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        assert np.array_equal(gks_propagator(GeneratorMatrix(got), 1e-6).entries[0], [1, 0, 0, 0])


class TestPauliGeneratorCertificate:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, 20, 60, 300])
    def test_the_generator_is_exact_under_power_of_two_scaling(self, n, k):
        # the residuals grow with S, and so does their threshold
        rng = np.random.default_rng([67, n])
        d = 2**n
        for _ in range(5):
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            vs = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(2)]
            s = liouvillian_superop(g + g.conj().T, vs).matrix
            gen = LiouvillianSuperop(n, s).to_pauli_generator()
            scaled = LiouvillianSuperop(n, 2.0**k * s).to_pauli_generator()
            assert np.array_equal(scaled, 2.0**k * gen)

    def test_a_real_trace_violation_is_refused_at_any_scale(self):
        with pytest.raises(NumericContractError, match="generator does not preserve trace"):
            LiouvillianSuperop(1, 1e6 * np.eye(4)).to_pauli_generator()


_POWERS = [0, 30, 60, 300]


class TestSizeRule:
    """Certificates on H, C and a generator read their bound at the operator's
    size: scaling an input by 2**k is exact, so it scales the result by 2**k
    and keeps the verdict, and a real violation stays refused at any size."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("k", _POWERS)
    def test_liouvillian_of_a_computed_hamiltonian(self, n, k):
        rng = np.random.default_rng([71, n])
        for _ in range(10):
            u = random_unitary(rng, 2**n)
            h = u @ np.diag(4 * rng.normal(size=2**n)) @ u.conj().T  # Hermitian up to rounding
            s = liouvillian_superop(h).matrix
            scaled = liouvillian_superop(2.0**k * h)
            assert np.array_equal(scaled.matrix, 2.0**k * s)
            want = LiouvillianSuperop(n, s).to_pauli_generator()
            assert np.array_equal(scaled.to_pauli_generator(), 2.0**k * want)

    @pytest.mark.parametrize("rank", [1, 3])
    @pytest.mark.parametrize("k", _POWERS)
    def test_gks_checks_of_a_computed_c(self, rank, k):
        rng = np.random.default_rng([72, rank])
        for _ in range(20):
            g = 2 * (rng.normal(size=(3, rank)) + 1j * rng.normal(size=(3, rank)))
            c = g @ g.conj().T  # Hermitian and positive semidefinite up to rounding
            model, scaled = GKSModel(np.zeros(3), c), GKSModel(np.zeros(3), 2.0**k * c)
            assert model.is_hermitian() and model.is_positive()
            assert scaled.is_hermitian() and scaled.is_positive()

    @pytest.mark.parametrize("k", _POWERS)
    def test_generator_top_row_rounding(self, k):
        rng = np.random.default_rng(73)
        for _ in range(10):
            m = 4 * rng.normal(size=(4, 4))
            m[0] = 1e-14 * rng.normal(size=4)  # rounding, below tolerances.algebra
            want = GeneratorMatrix(m).matrix
            assert np.array_equal(GeneratorMatrix(2.0**k * m).matrix, 2.0**k * want)

    @pytest.mark.parametrize("s", [1.0, 1e6, 1e100])
    def test_a_real_violation_is_refused_at_any_size(self, s):
        with pytest.raises(NumericContractError, match="^H must be Hermitian$"):
            liouvillian_superop(s * np.array([[1.0, 1.0], [0.0, 1.0]]))
        c = np.zeros((3, 3), dtype=complex)
        c[0, 1] = s
        assert not GKSModel(np.zeros(3), c).is_hermitian()
        with pytest.raises(NumericContractError, match="^C must be Hermitian$"):
            gks_matrix(GKSModel(np.zeros(3), c))
        top = s * np.eye(4)
        with pytest.raises(NumericContractError, match="generator top row must vanish"):
            GeneratorMatrix(top)

    @pytest.mark.parametrize("s", [1.0, 1e6, 1e100])
    def test_an_indefinite_c_stays_indefinite_at_any_size(self, s):
        model = GKSModel(np.zeros(3), np.diag([s, s, -1e-3 * s]))
        assert model.is_hermitian() and not model.is_positive()


class TestPropagator:
    def test_zero_time(self):
        gen = gks_matrix(random_positive_model(RNG))
        assert np.allclose(gks_propagator(gen, 0.0).entries, np.eye(4), atol=1e-12)

    def test_negative_time_rejected(self):
        gen = gks_matrix(random_positive_model(RNG))
        with pytest.raises(NumericContractError):
            gks_propagator(gen, -0.1)

    def test_hamiltonian_only_matches_unitary_route(self):
        for _ in range(25):
            hvec = RNG.normal(size=3)
            tau = RNG.uniform(0, 3)
            gen = gks_matrix(GKSModel(hvec, np.zeros((3, 3))))
            h_op = sum(hvec[k] * SIGMA[k + 1] for k in range(3))
            lhs = gks_propagator(gen, tau).entries
            rhs = gate_from_unitary(expm(-1j * tau * h_op)).entries
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_rotation_angle(self):
        h = 0.45
        tau = 1.3
        gen = gks_matrix(GKSModel([0, 0, h], np.zeros((3, 3))))
        from ququat import named_gate

        assert np.max(
            np.abs(gks_propagator(gen, tau).entries - named_gate("rot1", 2 * h * tau).entries)
        ) < 1e-12

    def test_depolarizing_decay(self):
        gamma = 0.8
        tau = 1.7
        gen = gks_matrix(GKSModel(np.zeros(3), gamma * np.eye(3)))
        s = np.exp(-gamma * tau / 2)
        assert np.allclose(gks_propagator(gen, tau).entries, np.diag([1, s, s, s]), atol=1e-12)

    def test_real_c_translation_exactly_zero(self):
        for _ in range(20):
            b = RNG.normal(size=(3, 3))
            gen = gks_matrix(GKSModel(RNG.normal(size=3), b @ b.T))
            gate = gks_propagator(gen, RNG.uniform(0, 2))
            assert np.array_equal(gate.entries[1:, 0], np.zeros(3))

    def test_semigroup(self):
        for _ in range(20):
            gen = gks_matrix(random_positive_model(RNG))
            t1, t2 = RNG.uniform(0, 1.5, size=2)
            lhs = gks_propagator(gen, t1).entries @ gks_propagator(gen, t2).entries
            rhs = gks_propagator(gen, t1 + t2).entries
            assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_a_nan_top_row_is_refused(self):
        # the top row is certified and then set to zero; a NaN must not pass
        # the certificate and vanish
        matrix = -np.eye(4)
        matrix[0] = [0.0, np.nan, 0.0, 0.0]
        with pytest.raises(NumericContractError):
            gks_propagator(GeneratorMatrix(matrix), 1.0)

    def test_row_zero_is_delta(self):
        for _ in range(20):
            gen = gks_matrix(random_positive_model(RNG))
            gate = gks_propagator(gen, RNG.uniform(0, 2))
            assert np.array_equal(gate.entries[0], [1, 0, 0, 0])

    def test_against_ode_integration(self):
        for _ in range(50):
            model = random_positive_model(RNG)
            gen = gks_matrix(model)
            tau = RNG.uniform(0.1, 2.0)
            p0 = random_pvec(RNG, 1).P
            via_gate = gks_propagator(gen, tau).entries @ p0
            via_ode = ode_oracle(gen, tau, p0)
            assert np.max(np.abs(via_gate - via_ode)) < 1e-6

    def test_output_states_valid(self):
        for _ in range(20):
            gen = gks_matrix(random_positive_model(RNG))
            gate = gks_propagator(gen, RNG.uniform(0, 2))
            out = apply_linear(gate, random_pvec(RNG, 1))
            assert validate_density(out).valid


class TestLiouvillian:
    def test_hamiltonian_only_matches_unitary(self):
        for n in (1, 2):
            for _ in range(10):
                h = RNG.normal(size=(2**n, 2**n)) + 1j * RNG.normal(size=(2**n, 2**n))
                h = h + h.conj().T
                liou = liouvillian_superop(h)
                t = RNG.uniform(0, 2)
                lhs = expm(t * liou.to_pauli_generator())
                rhs = gate_from_unitary(expm(-1j * t * h)).entries
                assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_amplitude_damping_generator(self):
        gamma = 0.9
        v = np.sqrt(gamma) * np.array([[0, 1], [0, 0]], dtype=complex)
        gen = liouvillian_superop(np.zeros((2, 2)), [v]).to_pauli_generator()
        expected = np.array(
            [
                [0, 0, 0, 0],
                [0, -gamma / 2, 0, 0],
                [0, 0, -gamma / 2, 0],
                [gamma, 0, 0, -gamma],
            ]
        )
        assert np.max(np.abs(gen - expected)) < 1e-12
        # long-time limit fixes the Bloch vector (0, 0, 1)
        liou = liouvillian_superop(np.zeros((2, 2)), [v])
        out = apply_linear(liouvillian_gate(liou, 80.0), PauliVector(1, [1, 0, 0, 0]))
        assert np.allclose(out.P, [1, 0, 0, 1], atol=1e-9)

    def test_dephasing_generator(self):
        gamma = 1.1
        v = np.sqrt(gamma / 2) * SIGMA[3]
        gen = liouvillian_superop(np.zeros((2, 2)), [v]).to_pauli_generator()
        assert np.max(np.abs(gen - np.diag([0, -gamma, -gamma, 0]))) < 1e-12

    def test_dephasing_decay(self):
        gamma = 0.7
        liou = liouvillian_superop(np.zeros((2, 2)), [np.sqrt(gamma / 2) * SIGMA[3]])
        out = apply_linear(liouvillian_gate(liou, 1 / gamma), PauliVector(1, [1, 1, 0, 0]))
        assert np.allclose(out.P, [1, np.exp(-1), 0, 0], atol=1e-12)

    def test_liouvillian_negative_time_rejected(self):
        liou = liouvillian_superop(np.zeros((2, 2)), [0.3 * SIGMA[1]])
        with pytest.raises(NumericContractError, match="nonnegative"):
            liouvillian_gate(liou, -0.1)
        with pytest.raises(NumericContractError, match="nonnegative"):
            apply_linear(liouvillian_gate(liou, -0.1), PauliVector(1, [1, 0, 0, 0]))

    def test_propagate_zero_time(self):
        liou = liouvillian_superop(np.zeros((2, 2)), [0.3 * SIGMA[1]])
        p = random_pvec(RNG, 1)
        assert np.allclose(apply_linear(liouvillian_gate(liou, 0.0), p).P, p.P, atol=1e-12)

    def test_propagate_against_ode(self):
        for _ in range(10):
            h = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
            h = h + h.conj().T
            vs = [
                0.5 * (RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2)))
                for _ in range(2)
            ]
            liou = liouvillian_superop(h, vs)
            gen = liou.to_pauli_generator()
            p0 = random_pvec(RNG, 1)
            t = RNG.uniform(0.1, 1.5)
            sol = solve_ivp(
                lambda _, y: gen @ y, (0, t), p0.P, method="DOP853", rtol=1e-11, atol=1e-11
            )
            assert np.max(np.abs(apply_linear(liouvillian_gate(liou, t), p0).P - sol.y[:, -1])) < 1e-6

    def test_output_valid_two_qubit(self):
        for _ in range(5):
            h = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
            h = h + h.conj().T
            vs = [0.4 * (RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4)))]
            liou = liouvillian_superop(h, vs)
            out = apply_linear(liouvillian_gate(liou, 0.8), random_pvec(RNG, 2))
            assert validate_density(out).valid

    def test_dimension_mismatch(self):
        with pytest.raises(NumericContractError):
            liouvillian_superop(np.zeros((2, 2)), [np.zeros((4, 4))])


def _kron_liouvillian(h, v):
    """The Liouvillian written with np.kron, the reference for liouvillian_superop."""
    eye = np.eye(len(h))
    mat = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for vj in v:
        vdv = vj.conj().T @ vj
        mat += np.kron(vj, vj.conj()) - 0.5 * np.kron(vdv, eye) - 0.5 * np.kron(eye, vdv.T)
    return mat


@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("jumps", [0, 1, 2])
def test_liouvillian_matches_the_kron_form_bit_for_bit(d, jumps):
    rng = np.random.default_rng([53, d, jumps])
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = g + g.conj().T
    v = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(jumps)]
    got = liouvillian_superop(h, v).matrix
    want = _kron_liouvillian(h, v)
    assert got.shape == want.shape == (d * d, d * d)
    # as integers, so that the signs of zeros count too
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
