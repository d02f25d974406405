"""Differential tests: the Pauli-basis kernel against einsum oracles and the dense GEMM.

The einsum oracles below are the direct index-contraction forms of each
basis change (one einsum per formula, and the d_in**2 loop over matrix
units for the Choi matrix).  They are slow but transparent, and every
fast kernel must agree with them to 1e-12 at small n.

The dense route is the one GEMM against the flattened ``pauli_basis(n)``
that ``liouville._basis_product`` keeps for n <= 3 and replaces by
blockwise products above.  It is the second oracle: equal bit for bit at
n <= 3, and to 1e-12 at n = 4, 5.

Above n = 3 the kernel takes the real factors I, X, iY, Z of each sigma
and its phase (-i)**y(mu).  Its tests compare with the einsum over the
per-ququat sigma factors themselves, which needs no 4**n x 4**n basis and
so also reaches the mixed orders (6, 1) and (1, 6).
"""

import string
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
from ququat import liouville
from ququat.lindblad import liouvillian_superop
from ququat.liouville import (
    SIGMA,
    DensityMatrix,
    PauliVector,
    _basis_product,
    _pauli_combine,
    _superop_transfer,
    density_to_pvec,
    pauli_basis,
    pvec_to_density,
    validate_density,
)
from ququat.universality import left_mult_superop, right_mult_superop

from helpers import random_density, random_unitary

ATOL = 1e-12
NS = (1, 2, 3, 4)
# the dense route runs through n = 5: a flattened pauli_basis(5) is 16 MB
DENSE_NS = (1, 2, 3, 4, 5)
ORDERS = [(n, n) for n in DENSE_NS] + [(4, 2), (2, 4), (3, 1)]


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


def dense_product(y, n, transpose=False):
    rows = pauli_basis(n).reshape(4**n, -1)
    return rows.T @ y if transpose else rows @ y


def dense_kraus_transfer(ops, n_in, n_out):
    s = sum(np.kron(a, a.conj()) for a in ops)
    images = dense_product(s.T, n_in).reshape(-1, 2**n_out, 2**n_out)
    return dense_product(images.transpose(0, 2, 1).reshape(len(images), -1).T, n_out) / 2**n_in


def dense_choi(gate):
    d_in = 2**gate.n_in
    d_out = 2**gate.n_out
    bin_ = pauli_basis(gate.n_in).reshape(d_in**2, -1)
    bout = pauli_basis(gate.n_out).reshape(d_out**2, -1)
    m = bout.T @ (gate.entries @ bin_) / d_out
    j = m.reshape(d_out, d_out, d_in, d_in).transpose(0, 3, 1, 2).reshape(d_out * d_in, -1)
    return (j + j.conj().T) / 2


def dense_combine(p, n):
    return (p @ pauli_basis(n).reshape(4**n, -1)).reshape(2**n, 2**n) / 2**n


def oracle_basis_product(y, n, transpose=False):
    """B @ y, or B^T @ y, as one einsum over the factors of B[mu, (a, b)] = prod_i
    sigma_{mu_i}[a_i, b_i]: no 4**n x 4**n basis is built."""
    mu, a, b = (string.ascii_letters[k * n:(k + 1) * n] for k in range(3))
    factors = ",".join(m + i + j for m, i, j in zip(mu, a, b))
    spec = f"{factors},{mu}z->{a}{b}z" if transpose else f"{factors},{a}{b}z->{mu}z"
    x = y.reshape(((4,) * n if transpose else (2,) * (2 * n)) + (-1,))
    return np.einsum(spec, *[np.stack(SIGMA)] * n, x, optimize=True).reshape(y.shape)


def oracle_superop_transfer(s, n_in, n_out):
    """2**-n_in Tr(sigma_mu Phi(sigma_nu)) through the images Phi(sigma_nu)."""
    d_out = 2**n_out
    images = oracle_basis_product(s.T, n_in).reshape(-1, d_out, d_out)
    return oracle_basis_product(images.transpose(0, 2, 1).reshape(len(images), -1).T,
                                n_out) / 2**n_in


def oracle_closed_form_choi(gate):
    """J = 2**-n_out sum E[mu, nu] sigma_mu kron sigma_nu^T, before symmetrization."""
    d_in, d_out = 2**gate.n_in, 2**gate.n_out
    m = oracle_basis_product(gate.entries.astype(complex).T, gate.n_in, transpose=True).T
    m = oracle_basis_product(m, gate.n_out, transpose=True) / d_out
    return m.reshape(d_out, d_out, d_in, d_in).transpose(0, 3, 1, 2).reshape(d_out * d_in, -1)


def oracle_pauli_generator(liouvillian, n):
    """q^dagger L q over the orthonormal basis q[:, mu] = vec(sigma_mu) / sqrt(2**n)."""
    q = pauli_basis(n).reshape(4**n, -1).T / np.sqrt(2**n)
    return (q.conj().T @ liouvillian.matrix @ q).real


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


def assert_dense_route(actual, expected, n):
    """Bit for bit where the kernel is the dense GEMM, to 1e-12 where it goes by blocks."""
    if n <= 3:
        assert actual.dtype == expected.dtype and actual.shape == expected.shape
        assert actual.tobytes() == expected.tobytes()
    else:
        assert_close(actual, expected)


# -- the kernel against the dense GEMM ----------------------------------------------


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("n", DENSE_NS)
def test_basis_product_matches_dense_gemm(n, transpose):
    rng = np.random.default_rng(200 + n)
    for y in (
        ginibre(rng, 4**n, 3),
        ginibre(rng, 4**n, 1)[:, 0],
        rng.normal(size=(4**n, 2)),
        ginibre(rng, 3, 4**n).T,
    ):
        assert_dense_route(_basis_product(y, n, transpose), dense_product(y, n, transpose), n)


@pytest.mark.parametrize("n_in,n_out", ORDERS)
def test_choi_and_transfer_match_dense_route(n_in, n_out):
    rank = max(3, 2 ** (n_in - n_out))  # enough blocks for an isometry
    ops = random_kraus(np.random.default_rng(210 + 8 * n_in + n_out), n_in, n_out, rank)
    want = dense_kraus_transfer(ops, n_in, n_out)
    entries = _kraus_transfer(ops, n_in, n_out)
    assert_dense_route(entries, want.real, max(n_in, n_out))
    gate = GateMatrix(n_in, n_out, want.real, "general")
    assert_dense_route(choi_matrix(gate), dense_choi(gate), max(n_in, n_out))


@pytest.mark.parametrize("n", DENSE_NS)
def test_state_kernels_match_dense_route(n):
    rng = np.random.default_rng(220 + n)
    rho = random_density(rng, n).entries
    p = density_to_pvec(DensityMatrix(n, rho)).P
    assert_dense_route(p, dense_product(rho.T.reshape(-1, 1), n)[:, 0].real, n)
    assert_dense_route(_pauli_combine(p, n), dense_combine(p, n), n)


def _only_small(monkeypatch, name):
    """Patch the cached basis builder ``liouville.<name>`` to refuse n > 3; returns it."""
    original = getattr(liouville, name)

    def small_only(n):
        if n > 3:
            raise AssertionError(f"{name}({n}) was built")
        return original(n)

    monkeypatch.setattr(liouville, name, small_only)
    # a module that imported the name calls the cached function itself: its
    # cache then holds more than the bases of n = 1, 2, 3
    original.cache_clear()
    liouville._basis_blocks.cache_clear()  # its factors are built through the patched name
    return original


def test_no_dense_basis_above_three_ququats(monkeypatch):
    """Choi matrices, state checks, conversions, gates and pseudo-gates at n = 4..6 never
    build pauli_basis(n > 3)."""
    original = _only_small(monkeypatch, "pauli_basis")
    _build_above_three_ququats()
    assert original.cache_info().currsize <= 3


def test_no_dense_tau_basis_above_three_ququats(monkeypatch):
    """Nor a real tau basis: the blocks of the route above n = 3 take at most two ququats."""
    original = _only_small(monkeypatch, "_tau_basis")
    _build_above_three_ququats()
    assert original.cache_info().currsize <= 2


def _build_above_three_ququats():
    rng = np.random.default_rng(230)
    for n_in, n_out in ((4, 4), (5, 5), (6, 1), (1, 6)):
        gate = GateMatrix(n_in, n_out, rng.normal(size=(4**n_out, 4**n_in)), "general")
        assert choi_matrix(gate).shape == (2 ** (n_in + n_out),) * 2
    for n in (4, 5, 6):
        rho = random_density(rng, n)
        p = density_to_pvec(rho)
        assert validate_density(p).valid and validate_density(rho).valid
        assert_close(pvec_to_density(p).entries, rho.entries)
    h = ginibre(rng, 16, 16)
    liou = liouvillian_superop(h + h.conj().T, [ginibre(rng, 16, 16)])
    assert liou.to_pauli_generator().shape == (256, 256)
    for n in (4, 5):
        u = random_unitary(rng, 2**n)
        assert gate_from_unitary(u).entries.shape == (4**n, 4**n)
        assert gate_from_kraus(random_kraus(rng, n, n)).entries.shape == (4**n, 4**n)
        for build in (left_mult_superop, right_mult_superop):
            assert build(u).matrix.shape == (4**n, 4**n)


# -- the real tau route against the sigma einsum oracles ---------------------------------

TAU_NS = (4, 5)
TAU_ORDERS = [(4, 4), (5, 5), (4, 2), (2, 4), (6, 1), (1, 6)]


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("n", TAU_NS)
def test_tau_basis_product_matches_the_oracle(n, transpose):
    rng = np.random.default_rng(240 + n)
    for y in (
        ginibre(rng, 4**n, 3),
        ginibre(rng, 4**n, 1)[:, 0],
        rng.normal(size=(4**n, 2)),
        rng.normal(size=4**n),
        ginibre(rng, 3, 4**n).T,
    ):
        got = _basis_product(y, n, transpose)
        assert got.shape == y.shape and got.dtype == complex
        assert_close(got, oracle_basis_product(y, n, transpose))


@pytest.mark.parametrize("n_in,n_out", TAU_ORDERS)
def test_tau_superop_transfer_and_choi_match_the_oracle(n_in, n_out):
    rng = np.random.default_rng(250 + 8 * n_in + n_out)
    s = ginibre(rng, 4**n_out, 4**n_in)
    assert_close(_superop_transfer(s, n_in, n_out), oracle_superop_transfer(s, n_in, n_out))
    gate = GateMatrix(n_in, n_out, rng.normal(size=(4**n_out, 4**n_in)), "general")
    j = choi_matrix(gate)
    assert j.dtype == complex
    assert_close(j, oracle_closed_form_choi(gate))
    if n_in == n_out == 4:  # the matrix-unit loop, apart from the closed form
        assert_close(j, oracle_choi(gate))


@pytest.mark.parametrize("n", TAU_NS)
def test_tau_state_kernels_match_the_oracle(n):
    rng = np.random.default_rng(260 + n)
    rhos = [random_density(rng, n).entries for _ in range(3)]
    p = np.stack([density_to_pvec(DensityMatrix(n, rho)).P for rho in rhos], axis=1)
    assert_close(p, np.stack([oracle_density_to_pvec(rho, n).real for rho in rhos], axis=1))
    assert_close(_pauli_combine(p[:, 0], n), oracle_pvec_to_density(p[:, 0], n))
    assert_close(_pauli_combine(p, n), np.stack([oracle_pvec_to_density(q, n) for q in p.T]))


@pytest.mark.parametrize("n", TAU_NS)
def test_tau_generator_and_pseudo_gates_match_the_oracle(n):
    rng = np.random.default_rng(270 + n)
    h = ginibre(rng, 2**n, 2**n)
    liou = liouvillian_superop(h + h.conj().T, [ginibre(rng, 2**n, 2**n)])
    assert_close(liou.to_pauli_generator(), oracle_pauli_generator(liou, n))
    a = ginibre(rng, 2**n, 2**n)
    basis = pauli_basis(n)
    left = np.einsum("nij,mjk,ki->mn", basis, basis, a, optimize=True) / 2**n
    right = np.einsum("mij,njk,ki->mn", basis, basis, a, optimize=True) / 2**n
    assert_close(left_mult_superop(a).matrix, left)
    assert_close(right_mult_superop(a).matrix, right)


# -- Pauli transfer ------------------------------------------------------------


@pytest.mark.parametrize("n", NS)
def test_transfer_square_kraus(n):
    ops = random_kraus(np.random.default_rng(10 + n), n, n)
    assert_close(_kraus_transfer(ops, n, n), oracle_kraus_transfer(ops, n, n).real)
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


# -- Liouvillian generator ---------------------------------------------------------


@pytest.mark.parametrize("n", NS)
def test_pauli_generator(n):
    rng = np.random.default_rng(120 + n)
    h = ginibre(rng, 2**n, 2**n)
    liou = liouvillian_superop(h + h.conj().T, [ginibre(rng, 2**n, 2**n) for _ in range(2)])
    assert_close(liou.to_pauli_generator(), oracle_pauli_generator(liou, n))
