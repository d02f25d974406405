"""Pseudo-gate, Weyl-generator and Lie-closure tests."""

import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from ququat import (
    NumericContractError,
    commutator_limit_product,
    computational_state,
    gate_from_kraus,
    gate_from_unitary,
    left_mult_superop,
    lie_closure_dim,
    right_mult_superop,
    swap_pseudo_gate,
    tensor_gates,
    trace_decreasing_bound,
    weyl_generators,
)
from ququat.config import MAX_LIE_SIDE
from ququat.liouville import PauliIndex, SIGMA

from helpers import P0, entangler_generators, random_tp_kraus, random_unitary

RNG = np.random.default_rng(19)


def _unit(dim, a, b):
    e = np.zeros((dim, dim), dtype=complex)
    e[a, b] = 1.0
    return e


class TestPseudoGates:
    def test_left_identity(self):
        assert np.array_equal(left_mult_superop(np.eye(2)).matrix, np.eye(4))
        assert np.array_equal(right_mult_superop(np.eye(2)).matrix, np.eye(4))

    def test_single_ququat_closed_form(self):
        # the displayed 4x4 pseudo-gate matrix in terms of a_mu = Tr(sigma_mu A)/2
        a_op = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        a = [np.trace(s @ a_op) / 2 for s in SIGMA]
        expected = np.array(
            [
                [a[0], a[1], a[2], a[3]],
                [a[1], a[0], -1j * a[3], 1j * a[2]],
                [a[2], 1j * a[3], a[0], -1j * a[1]],
                [a[3], -1j * a[2], 1j * a[1], a[0]],
            ]
        )
        assert np.max(np.abs(left_mult_superop(a_op).matrix - expected)) < 1e-12

    def test_left_homomorphism(self):
        for _ in range(50):
            a = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
            b = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
            lhs = left_mult_superop(a).matrix @ left_mult_superop(b).matrix
            rhs = left_mult_superop(a @ b).matrix
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_right_order_reversal(self):
        for _ in range(50):
            a = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
            b = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
            lhs = right_mult_superop(a).matrix @ right_mult_superop(b).matrix
            rhs = right_mult_superop(b @ a).matrix
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_left_right_commute(self):
        a = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        b = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        l, r = left_mult_superop(a).matrix, right_mult_superop(b).matrix
        assert np.max(np.abs(l @ r - r @ l)) < 1e-12

    def test_conjugation_relation(self):
        # right(A^dagger) is the entrywise conjugate of left(A)
        for _ in range(1000):
            a = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
            lhs = right_mult_superop(a.conj().T).matrix
            rhs = left_mult_superop(a).matrix.conj()
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_action_reproduces_products(self):
        # left(A) acts on Pauli coefficient vectors of B as coefficients of AB
        from ququat import density_to_pvec, DensityMatrix
        from ququat.liouville import pauli_basis

        a = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        b = RNG.normal(size=(2, 2)) + 1j * RNG.normal(size=(2, 2))
        basis = pauli_basis(1)
        coeff_b = np.einsum("mij,ji->m", basis, b)
        coeff_ab = np.einsum("mij,ji->m", basis, a @ b)
        assert np.max(np.abs(left_mult_superop(a).matrix @ coeff_b - coeff_ab)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_kraus_assembly_matches_gate(self, n):
        # sum_j left(A_j) right(A_j^dagger) is real and equals the gate matrix
        for _ in range(25):
            kraus = random_tp_kraus(RNG, n)
            acc = np.zeros((4**n, 4**n), dtype=complex)
            for a in kraus.ops:
                acc += left_mult_superop(a).matrix @ right_mult_superop(a.conj().T).matrix
            assert np.max(np.abs(acc.imag)) < 1e-10
            assert np.max(np.abs(acc.real - gate_from_kraus(kraus).entries)) < 1e-10


class TestWeylGenerators:
    def test_unit_count_dim4(self):
        gens = weyl_generators(4)
        assert len(gens.units) == 16
        assert len(gens.hermitian) == 16

    def test_hermitian_count_dim16(self):
        gens = weyl_generators(16)
        assert len(gens.hermitian) == 16 + 120 + 120

    def test_hermitian_are_hermitian(self):
        for h in weyl_generators(4).hermitian:
            assert np.array_equal(h, h.conj().T)

    def test_commutator_fixture(self):
        h01, h10 = _unit(4, 0, 1), _unit(4, 1, 0)
        assert np.array_equal(h01 @ h10 - h10 @ h01, _unit(4, 0, 0) - _unit(4, 1, 1))

    def test_commutator_identity_all_indices(self):
        # [E_mu_nu, E_alpha_beta] = d(nu,alpha) E_mu_beta - d(beta,mu) E_alpha_nu
        dim = 4
        for mu in range(dim):
            for nu in range(dim):
                for al in range(dim):
                    for be in range(dim):
                        lhs = _unit(dim, mu, nu) @ _unit(dim, al, be) - _unit(
                            dim, al, be
                        ) @ _unit(dim, mu, nu)
                        rhs = (nu == al) * _unit(dim, mu, be) - (be == mu) * _unit(
                            dim, al, nu
                        )
                        assert np.array_equal(lhs, rhs)

    def test_invalid_dim(self):
        with pytest.raises(NumericContractError):
            weyl_generators(8)


class TestLieClosure:
    def test_full_unit_set_dim4(self):
        assert lie_closure_dim(weyl_generators(4).units) == 32

    def test_single_diagonal_abelian(self):
        d = np.diag([1.0, 2.0, -1.0, 0.5]).astype(complex)
        assert lie_closure_dim([d]) == 2

    def test_monotone_in_generators(self):
        gens = [_unit(4, 0, 1), _unit(4, 1, 2)]
        d1 = lie_closure_dim(gens)
        d2 = lie_closure_dim(gens + [_unit(4, 2, 3)])
        assert d2 >= d1

    def test_pseudo_gate_algebra_with_entangler(self):
        gens = entangler_generators()
        # the largest side the ceiling admits
        assert gens[-1].shape == (MAX_LIE_SIDE, MAX_LIE_SIDE)
        assert lie_closure_dim(gens, max_iter=60) == 512

    def test_sweep_budget_warns(self):
        from ququat.universality import LieClosureWarning

        chain = [_unit(4, 0, 1), _unit(4, 1, 2), _unit(4, 2, 3)]
        full = lie_closure_dim(chain, max_iter=50)
        with pytest.warns(LieClosureWarning):
            partial = lie_closure_dim(chain, max_iter=1)
        assert partial < full

    def test_empty_rejected(self):
        with pytest.raises(NumericContractError):
            lie_closure_dim([])


class _PerVectorSpan:
    """Reference span: one Gram-Schmidt insertion and one vstack per vector."""

    def __init__(self, dim, threshold):
        self.rows = np.zeros((0, dim))
        self.threshold = threshold

    def add(self, vec):
        norm = np.linalg.norm(vec)
        if norm <= self.threshold:
            return False
        v = vec / norm
        for _ in range(2):
            if self.rows.shape[0]:
                v = v - self.rows.T @ (self.rows @ v)
        resid = np.linalg.norm(v)
        if resid <= self.threshold:
            return False
        self.rows = np.vstack([self.rows, v / resid])
        return True


def _per_vector_closure(mats, max_iter, threshold=1e-9):
    """(dimension, warned) of the per-vector closure loop, the reference for the blocked one."""
    span = _PerVectorSpan(2 * mats[0].size, threshold)
    basis = []

    def insert(m):
        if np.linalg.norm(m) == 0.0:
            return
        for cand in (m, 1j * m):
            if span.add(np.concatenate([cand.real.reshape(-1), cand.imag.reshape(-1)])):
                basis.append(cand / np.linalg.norm(cand))

    for m in mats:
        insert(m)
    start = 0
    for _ in range(max_iter):
        end = len(basis)
        if start == end:
            return span.rows.shape[0], False
        for b in basis[start:end]:
            for g in mats:
                insert(g @ b - b @ g)
        start = end
    return span.rows.shape[0], start != len(basis)


def _seeded_sets(n, rng):
    def cplx(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    a, b = cplx(n, n), cplx(n, n)
    return {
        "random": [a, b],
        "diagonal": [np.diag(cplx(n)), np.diag(rng.normal(size=n)).astype(complex)],
        "unit-chain": [_unit(n, k, k + 1) for k in range(n - 1)],
        "hermitian": [h + h.conj().T for h in (cplx(n, n), cplx(n, n))],
        # candidates dependent within one block, and a zero matrix
        "dependent": [a, 2 * a, np.zeros((n, n), dtype=complex), b, a + 1j * b],
    }


@pytest.mark.parametrize("n", range(2, 9))
def test_blocked_span_matches_the_per_vector_oracle(n):
    from ququat.universality import LieClosureWarning

    for kind, mats in _seeded_sets(n, np.random.default_rng(100 + n)).items():
        for max_iter in (1, 2, 3, 100):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                dim = lie_closure_dim(mats, max_iter=max_iter)
            warned = [w.category for w in caught] == [LieClosureWarning]
            assert not caught or warned, kind
            assert (dim, warned) == _per_vector_closure(mats, max_iter), (kind, max_iter)


class TestSwap:
    def test_involution(self):
        s = swap_pseudo_gate().matrix
        assert np.array_equal(s @ s, np.eye(16))

    def test_exchanges_factors(self):
        s = swap_pseudo_gate().matrix.real
        g = gate_from_unitary(random_unitary(RNG, 2))
        eye = gate_from_unitary(np.eye(2))
        left = tensor_gates(g, eye).entries
        right = tensor_gates(eye, g).entries
        assert np.max(np.abs(s @ left @ s - right)) < 1e-12

    def test_permutes_coefficients(self):
        s = swap_pseudo_gate().matrix.real
        state = computational_state(PauliIndex((1, 2)))
        swapped = computational_state(PauliIndex((2, 1)))
        assert np.array_equal(s @ state.P, swapped.P)


class TestTraceDecreasingBound:
    def test_tp_gate_value_one(self):
        ok, value = trace_decreasing_bound(gate_from_unitary(random_unitary(RNG, 2)))
        assert ok
        assert value == 1.0

    def test_measurement_gate(self):
        ok, value = trace_decreasing_bound(gate_from_kraus([P0]))
        assert ok
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_doubled_gate_fails(self):
        from ququat import gate_from_matrix

        doubled = gate_from_matrix(2 * gate_from_kraus([P0]).entries)
        ok, value = trace_decreasing_bound(doubled)
        assert not ok
        assert value == pytest.approx(2.0, abs=1e-12)


class TestCommutatorLimit:
    def test_convergence_to_bracket_exponential(self):
        h1 = 0.4 * _unit(4, 0, 1)
        h2 = 0.4 * _unit(4, 1, 0)
        target = expm(-(h1 @ h2 - h2 @ h1))
        errors = [
            np.max(np.abs(commutator_limit_product(h1, h2, n) - target))
            for n in (10, 100, 1000, 10000)
        ]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert errors[-1] < 1e-3

    def test_commuting_pair_is_exact(self):
        h1 = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        h2 = np.diag([0.5, -1.0, 2.0, 0.0]).astype(complex)
        m = commutator_limit_product(h1, h2, 50)
        assert np.max(np.abs(m - np.eye(4))) < 1e-12
