"""Differential tests: the GEMM Pauli-basis kernels against einsum oracles.

The oracles below are the direct index-contraction forms of each basis
change (one einsum per formula, and the d_in**2 loop over matrix units
for the Choi matrix).  They are slow but transparent, and every fast
kernel must agree with them to 1e-12 at small n.
"""

from dataclasses import astuple

import numpy as np
import pytest

from ququat.gates import (
    GateMatrix,
    _kraus_transfer,
    choi_matrix,
    gate_from_kraus,
    gate_from_matrix,
    gate_from_unitary,
    measurement_gates,
)
from ququat.liouville import (
    DensityMatrix,
    PauliVector,
    density_to_pvec,
    pauli_basis,
    pvec_to_density,
    validate_density,
)
from ququat.universality import left_mult_superop, right_mult_superop

from helpers import random_density, random_unitary

ATOL = 1e-12
NS = (1, 2, 3)


# -- oracles -----------------------------------------------------------------


def oracle_kraus_transfer(ops, n_in, n_out):
    bin_ = pauli_basis(n_in)
    bout = pauli_basis(n_out)
    acc = np.zeros((4**n_out, 4**n_in), dtype=complex)
    for a in ops:
        conj = np.einsum("ab,nbc,dc->nad", a, bin_, a.conj())
        acc += np.einsum("mij,nji->mn", bout, conj)
    return acc / 2**n_in


def oracle_channel_operator_action(gate, x):
    coeff = np.einsum("nij,ji->n", pauli_basis(gate.n_in), x)
    out_coeff = gate.entries @ coeff
    return np.einsum("m,mij->ij", out_coeff, pauli_basis(gate.n_out)) / 2**gate.n_out


def oracle_choi(gate):
    d_in = 2**gate.n_in
    d_out = 2**gate.n_out
    j = np.zeros((d_out * d_in, d_out * d_in), dtype=complex)
    for i in range(d_in):
        for k in range(d_in):
            unit = np.zeros((d_in, d_in), dtype=complex)
            unit[i, k] = 1.0
            j += np.kron(oracle_channel_operator_action(gate, unit), unit)
    return j


def oracle_density_to_pvec(rho, n):
    return np.einsum("mij,ji->m", pauli_basis(n), rho)


def oracle_pvec_to_density(p, n):
    return np.einsum("m,mij->ij", p, pauli_basis(n)) / 2**n


def oracle_left(a, n):
    basis = pauli_basis(n)
    return np.einsum("nij,mjk,ki->mn", basis, basis, a) / 2**n


def oracle_right(a, n):
    basis = pauli_basis(n)
    return np.einsum("mij,njk,ki->mn", basis, basis, a) / 2**n


# -- inputs --------------------------------------------------------------------


def ginibre(rng, rows, cols):
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def random_kraus(rng, n_in, n_out, rank=3):
    """Rank-`rank` trace-preserving Kraus set: blocks of a random isometry."""
    d_in, d_out = 2**n_in, 2**n_out
    q, _ = np.linalg.qr(ginibre(rng, rank * d_out, d_in))
    return [q[k * d_out:(k + 1) * d_out] for k in range(rank)]


def transpose_map(n):
    """Gate of rho -> rho^T: sigma_y factors flip sign; not CP."""
    diag = np.array([1.0, 1.0, -1.0, 1.0])
    out = diag
    for _ in range(n - 1):
        out = np.kron(out, diag)
    return gate_from_matrix(np.diag(out))


def assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=0, atol=ATOL)


# -- Pauli transfer ------------------------------------------------------------


@pytest.mark.parametrize("n", NS)
def test_transfer_square_kraus(n):
    ops = random_kraus(np.random.default_rng(10 + n), n, n)
    assert_close(_kraus_transfer(ops, n, n, 1e-10), oracle_kraus_transfer(ops, n, n).real)
    assert_close(gate_from_kraus(ops).entries, oracle_kraus_transfer(ops, n, n).real)


@pytest.mark.parametrize("n_in,n_out", [(2, 1), (1, 2)])
def test_transfer_non_square_kraus(n_in, n_out):
    ops = random_kraus(np.random.default_rng(20 + n_in), n_in, n_out)
    expected = oracle_kraus_transfer(ops, n_in, n_out)
    assert np.max(np.abs(expected.imag)) < ATOL
    gate = gate_from_kraus(ops)
    assert (gate.n_in, gate.n_out) == (n_in, n_out)
    assert_close(gate.entries, expected.real)


@pytest.mark.parametrize("n", NS)
def test_transfer_unitary(n):
    u = random_unitary(np.random.default_rng(30 + n), 2**n)
    gate = gate_from_unitary(u)
    assert_close(gate.entries, oracle_kraus_transfer([u], n, n).real)
    assert np.array_equal(gate.entries[0], np.eye(4**n)[0])


@pytest.mark.parametrize("n", NS)
def test_transfer_projector(n):
    v = random_unitary(np.random.default_rng(40 + n), 2**n)[:, : 2 ** (n - 1)]
    p = v @ v.conj().T
    (gate,) = measurement_gates([p])
    assert gate.kind == "trace_decreasing"
    assert_close(gate.entries, oracle_kraus_transfer([p], n, n).real)


# -- Choi matrix ---------------------------------------------------------------


@pytest.mark.parametrize("n", NS)
def test_choi_kraus_and_unitary(n):
    rng = np.random.default_rng(50 + n)
    for gate in (
        gate_from_kraus(random_kraus(rng, n, n)),
        gate_from_unitary(random_unitary(rng, 2**n)),
    ):
        assert_close(choi_matrix(gate), oracle_choi(gate))


@pytest.mark.parametrize("n_in,n_out", [(2, 1), (1, 2)])
def test_choi_non_square(n_in, n_out):
    gate = gate_from_kraus(random_kraus(np.random.default_rng(60 + n_in), n_in, n_out))
    j = choi_matrix(gate)
    assert j.shape == (2 ** (n_in + n_out),) * 2
    assert_close(j, oracle_choi(gate))


@pytest.mark.parametrize("n", NS)
def test_choi_projector(n):
    v = random_unitary(np.random.default_rng(70 + n), 2**n)[:, :1]
    (gate,) = measurement_gates([v @ v.conj().T])
    assert_close(choi_matrix(gate), oracle_choi(gate))


@pytest.mark.parametrize("n", NS)
def test_choi_transpose_map_is_swap(n):
    gate = transpose_map(n)
    j = choi_matrix(gate)
    assert_close(j, oracle_choi(gate))
    d = 2**n
    swap = np.eye(d * d).reshape(d, d, d, d).transpose(0, 1, 3, 2).reshape(d * d, d * d)
    assert_close(j, swap)


@pytest.mark.parametrize("n", NS)
def test_choi_random_matrix_gate(n):
    """A random real matrix is not Hermitian-preserving in general."""
    rng = np.random.default_rng(80 + n)
    gate = GateMatrix(n, n, rng.normal(size=(4**n, 4**n)), "general")
    assert_close(choi_matrix(gate), oracle_choi(gate))
    assert_close(choi_matrix(gate_from_matrix(gate.entries)), oracle_choi(gate))


# -- state conversions -----------------------------------------------------------


@pytest.mark.parametrize("n", NS)
def test_state_conversions(n):
    rng = np.random.default_rng(90 + n)
    rho = random_density(rng, n).entries
    p = density_to_pvec(DensityMatrix(n, rho))
    assert_close(p.P, oracle_density_to_pvec(rho, n).real)
    back = pvec_to_density(p)
    assert_close(back.entries, oracle_pvec_to_density(p.P, n))
    assert_close(back.entries, rho)


@pytest.mark.parametrize("n", NS)
def test_validate_density_pvec_route(n):
    rng = np.random.default_rng(100 + n)
    rho = random_density(rng, n).entries
    p = PauliVector(n, oracle_density_to_pvec(rho, n).real)
    via_pvec = validate_density(p)
    via_rho = validate_density(DensityMatrix(n, oracle_pvec_to_density(p.P, n)))
    assert astuple(via_pvec) == pytest.approx(astuple(via_rho), abs=ATOL)
    assert via_pvec.valid


# -- pseudo-gates ----------------------------------------------------------------


@pytest.mark.parametrize("n", NS)
def test_left_right_mult(n):
    a = ginibre(np.random.default_rng(110 + n), 2**n, 2**n)
    assert_close(left_mult_superop(a).matrix, oracle_left(a, n))
    assert_close(right_mult_superop(a).matrix, oracle_right(a, n))
