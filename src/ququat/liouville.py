"""Pauli tensor basis, Liouville-space inner product and state conversions.

States of an open n-qubit system are carried in two equivalent forms: the
complex 2**n x 2**n density matrix, and the real length-4**n coefficient
vector P with P[mu] = Tr(sigma_mu rho) over the tensor-product Pauli basis
(the unnormalized "square bracket" convention, P[0] = 1 for unit trace).
The round-bracket vector P / sqrt(2**n) over the orthonormal basis is a
formatting option only; gate matrices are identical in both conventions.

Multi-indices mu = (mu_1, ..., mu_n) with digits in {0,1,2,3} map to flat
indices big-endian: mu_1 is the most significant base-4 digit.
"""

from __future__ import annotations

import functools
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .config import tolerances
from .errors import NumericContractError

__all__ = [
    "SIGMA",
    "PauliIndex",
    "DensityMatrix",
    "PauliVector",
    "LiouvilleVector",
    "ValidationReport",
    "pauli_tensor",
    "pauli_basis",
    "hs_inner",
    "density_to_pvec",
    "pvec_to_density",
    "computational_state",
    "validate_density",
    "NonPositiveStateWarning",
]

SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
for _s in SIGMA:
    _s.setflags(write=False)


class NonPositiveStateWarning(UserWarning):
    """A constructed density matrix is not positive semidefinite."""


def _frozen(array: np.ndarray) -> np.ndarray:
    out = np.array(array)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PauliIndex:
    """Multi-index into the tensor-product Pauli basis.

    ``digits`` are base-4 digits, most significant first; ``scalar`` is
    the flat index mu_1*4**(n-1) + ... + mu_n.
    """

    digits: tuple[int, ...]

    def __post_init__(self):
        digits = tuple(int(d) for d in self.digits)
        if len(digits) == 0:
            raise NumericContractError("PauliIndex needs at least one digit")
        if any(d not in (0, 1, 2, 3) for d in digits):
            raise NumericContractError(f"Pauli digits must be in 0..3, got {digits}")
        object.__setattr__(self, "digits", digits)

    @classmethod
    def from_scalar(cls, scalar: int, n: int) -> "PauliIndex":
        scalar = int(scalar)
        if not 0 <= scalar < 4**n:
            raise NumericContractError(f"scalar index {scalar} out of range for n={n}")
        digits = [(scalar >> (2 * (n - 1 - i))) & 3 for i in range(n)]
        return cls(tuple(digits))

    @property
    def n(self) -> int:
        return len(self.digits)

    @property
    def scalar(self) -> int:
        out = 0
        for d in self.digits:
            out = 4 * out + d
        return out


@functools.lru_cache(maxsize=None)
def pauli_basis(n: int) -> np.ndarray:
    """Stack of all 4**n tensor-product Pauli matrices, flat index order.

    Satisfies hs_inner(basis[mu], basis[nu]) = 2**n * delta(mu, nu).
    """
    if n < 1:
        raise NumericContractError("n must be >= 1")
    if n == 1:
        out = np.stack(SIGMA)
    else:
        prev = pauli_basis(n - 1)
        out = np.stack([np.kron(p, s) for p in prev for s in SIGMA])
    out.setflags(write=False)
    return out


# Every basis change applies the real factors of the basis (:func:`_tau_basis`)
# in blocks of at most _BASIS_BLOCK ququats: one block up to two ququats, two
# at three, and so on; nothing of size 4**n x 4**n is built above two.
_BASIS_BLOCK = 2

# The real factors I, X, iY and Z of the Pauli matrices, flattened: _TAU[mu, (a, b)].
_TAU = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, -1, 0], [1, 0, 0, -1]], float)


@functools.lru_cache(maxsize=None)
def _phases(n: int) -> np.ndarray:
    """(-i)**y(mu) for every mu of n ququats, y(mu) the number of Y digits of mu.

    sigma_mu = (-i)**y(mu) tau_mu, with tau_mu the tensor product of the
    real matrices I, X, iY and Z.
    """
    out = np.ones(1, complex)
    for _ in range(n):
        out = np.multiply.outer(out, [1, 1, -1j, 1]).reshape(-1)  # exact: each is +-1 or +-i
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _tau_basis(n: int) -> np.ndarray:
    """The flattened real basis T[mu, (a, b)] = tau_mu[a, b] = i**y(mu) sigma_mu[a, b]:
    the Kronecker power of _TAU, its columns regrouped from (a_1 b_1 .. a_n b_n)
    to (a_1..a_n, b_1..b_n)."""
    out = functools.reduce(np.kron, [_TAU] * n, np.ones((1, 1)))
    order = [0, *(1 + i for i in np.argsort(_pairs(n)))]
    out = out.reshape(4**n, *[2] * (2 * n)).transpose(order).reshape(4**n, -1)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def _basis_blocks(n: int) -> tuple[tuple[int, ...], tuple[np.ndarray, ...]]:
    """Digit sides and real factors of T, split into blocks of ququats.

    T[mu, (a, b)] = prod_i tau_{mu_i}[a_i, b_i] is a tensor product, so
    with its columns (a_1..a_n, b_1..b_n) regrouped per block as
    (a_blk b_blk) (:func:`_pairs`) it is the Kronecker product of the
    blocks' own flattened tau bases.  Returns each block's side 2**k and
    the factors, in register order.
    """
    ks = [_BASIS_BLOCK] * (n // _BASIS_BLOCK) + [n % _BASIS_BLOCK] * (n % _BASIS_BLOCK > 0)
    return tuple(2**k for k in ks), tuple(_tau_basis(k) for k in ks)


def _pairs(blocks: int, swap: bool = False) -> list[int]:
    """Axes that regroup the digits (a_1..a_k, b_1..b_k) of an (a, b) index
    per block as (a_j, b_j), or with ``swap`` as (b_j, a_j)."""
    return [i for j in range(blocks) for i in ((blocks + j, j) if swap else (j, blocks + j))]


def _tau_product(x: np.ndarray, factors, lead: int) -> np.ndarray:
    """Each factor f in turn applied as f @ x along the next axis of a fresh
    C-ordered x, which it overwrites, from the axis after ``lead`` entries on."""
    spare = x  # the products alternate between two arrays; fresh ones would each be paged in anew
    for i, f in enumerate(factors):
        k = len(f)
        tail = x.size // (lead * k)
        if tail == 1:  # one GEMM along the last axis, not a matrix-vector product per row
            a, b, shape = x.reshape(lead, k), f.T, (lead, k)
        else:
            a, b, shape = f, x.reshape(lead, k, tail), (lead, k, tail)
        x, spare = np.matmul(a, b, out=spare.reshape(shape) if i else None), x
        lead *= k
    return x


def _basis_product(y: np.ndarray, n: int, transpose: bool = False) -> np.ndarray:
    """B @ y, or B^T @ y, along axis 0 of y for the flattened basis B[mu, (a, b)] = sigma_mu[a, b].

    y has 4**n rows, indexed by (a, b) for B @ y and by mu for B^T @ y.
    B = diag(_phases(n)) T with T real: B @ y regroups the rows (a, b) per
    block when there are two blocks or more, applies each block's factor of
    T (:func:`_basis_blocks`) as one real matmul over that block's axis, to
    the real and imaginary parts of y (as complex) together, and multiplies
    by the phases; B^T @ y applies the phases, the transposed factors and
    the regrouping back.
    """
    sides, factors = _basis_blocks(n)
    k = len(sides)
    if transpose:
        x = np.multiply(_phases(n)[:, None], y.reshape(4**n, -1), order="C").view(float)
        x = _tau_product(x, [f.T for f in factors], 1).reshape(4**n, -1).view(complex)
        if k > 1:
            x = x.reshape([s for s in sides for _ in "ab"] + [-1])
            x = x.transpose([*np.argsort(_pairs(k)), 2 * k])
        return x.reshape(y.shape)
    x = y.reshape(*sides, *sides, -1).transpose([*_pairs(k), 2 * k]) if k > 1 else y
    # _tau_product overwrites x only from a second factor on: one block reads y in place
    x = np.array(x, complex, order="C", copy=True if k > 1 else None)
    x = _tau_product(x.view(float), factors, 1).reshape(4**n, -1).view(complex)
    return (x * _phases(n)[:, None]).reshape(y.shape)


def _pauli_transfer(images: np.ndarray, n: int) -> np.ndarray:
    """T[mu, k] = Tr(sigma_mu X_k) over a stack X: B @ vec(X_k^T)."""
    return _basis_product(images.transpose(0, 2, 1).reshape(len(images), -1).T, n)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) of two matrices as one broadcast product, bit for bit."""
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def _superop_transfer(s: np.ndarray, n_in: int, n_out: int) -> np.ndarray:
    """E[mu, nu] = 2**-n_in Tr(sigma_mu Phi(sigma_nu)) of Phi: vec(X) -> s @ vec(X).

    vec is the row-major flattening, so vec(A X B) = (A kron B^T) vec(X)
    gives ``s`` of any sum of such products.  With B = diag(phases) T on
    each side (:func:`_basis_product`), E[mu, nu] = phase_mu phase_nu
    (T_out S s T_in^T)[mu, nu] / 2**n_in for S the swap of the output's
    two indices: one gather regroups s, rows swapped, with its real and
    imaginary parts as two planes, the real factors of both sides act on
    both planes, and one pass multiplies each entry by its phase, +-1 or
    +-i, so each part of E is a part of the planes with a sign.
    """
    (so, fo), (si, fi) = _basis_blocks(n_out), _basis_blocks(n_in)
    x = np.asarray(s, complex).view(float).reshape(*so, *so, *si, *si, 2)
    order = [x.ndim - 1, *_pairs(len(so), swap=True), *(2 * len(so) + i for i in _pairs(len(si)))]
    x = _tau_product(np.array(x.transpose(order), order="C"), fo + fi, 2)
    out = np.empty((4**n_out, 4**n_in), complex)
    out.real, out.imag = x.reshape(2, 4**n_out, 4**n_in)
    del x  # one full-size array fewer alive with the phases
    out *= np.multiply.outer(_phases(n_out), _phases(n_in) * 2.0**-n_in)
    return out


def _choi_product(e: np.ndarray, n_in: int, n_out: int, real: bool) -> np.ndarray:
    """2**n_out J for J = 2**-n_out sum_{mu nu} e[mu, nu] sigma_mu kron sigma_nu^T.

    With B = diag(phases) T on each side (:func:`_basis_product`),
    M = B_out^T e B_in = T_out^T F T_in holds 2**n_out J[(a, i), (b, k)] at
    M[(a, b), (k, i)], for F = diag(phases_out) e diag(phases_in), whose
    entries are +-e or +-ie by the Y-parity of (mu, nu): the real factors act
    on the real and imaginary planes of F, and one gather writes J, complex,
    and exactly Hermitian when finite (the factors' entries are +-1 and 0).
    With ``real`` and every odd-parity entry of e zero (-0.0 included), the
    real plane is built alone, bit for bit the real part of the complex J.
    """
    (so, fo), (si, fi) = _basis_blocks(n_out), _basis_blocks(n_in)
    phase = np.multiply.outer(_phases(n_out), _phases(n_in))
    j = np.empty((2, *e.shape))
    np.multiply(e, phase.real, out=j[0])  # F by parts, exact: each phase is +-1 or +-i
    np.multiply(e, phase.imag, out=j[1])
    del phase
    j = j[0] if real and not j[1].any() else j
    r = j.ndim - 2
    j = _tau_product(j, [f.T for f in fo + fi], 2**r)
    # j holds M over the axes [re/im], (a_j, b_j) per output block, (k_j, i_j) per input block
    j = j.reshape([2] * r + [s for s in so + si for _ in "ab"])
    a, k = range(r, r + 2 * len(so), 2), range(r + 2 * len(so), j.ndim, 2)
    j = j.transpose([*a, *(i + 1 for i in k), *(i + 1 for i in a), *k, *range(r)])
    j = np.array(j, order="C").reshape(2**(n_out + n_in), -1)
    return j.view(complex) if r else j


def _scale(a: np.ndarray) -> float:
    """max|a| when 1 < max|a| < inf, else 1 (a NaN included).  Rounding grows
    with the operator, so a certificate on an operator the caller sized reads
    its tolerance times this factor; where max|a| <= 1 the bound is the tolerance."""
    size = float(np.abs(a).max())
    return size if 1.0 < size < np.inf else 1.0


def _real_part(a: np.ndarray, message: str, scale: float = 1.0) -> np.ndarray:
    """Real part of a Pauli-basis result, refused with ``message`` and the
    largest imaginary part when that exceeds the algebraic tolerance times
    ``scale``: :func:`_scale` of the operator the caller sized, else 1."""
    resid = float(np.abs(a.imag).max())
    if resid > tolerances.algebra * scale:
        raise NumericContractError(f"{message} {resid:.3e}")
    return a.real


def _pauli_combine(p: np.ndarray, n: int) -> np.ndarray:
    """The operator 2**-n sum_mu p[mu] sigma_mu: B^T @ p.

    A (4**n, k) p gives the (k, 2**n, 2**n) stack of its columns' operators.
    """
    d = 2**n
    out = _basis_product(p, n, transpose=True) / d
    return out.reshape(d, d) if p.ndim == 1 else out.T.reshape(-1, d, d)


def _exponent(size: int, base: int) -> int | None:
    """The n with base**n == size, or None if there is none (size < 1 included).

    The one way the package reads a ququat count off a side 2**n or a
    length 4**n.
    """
    size = operator.index(size)  # a float would loop forever at inf
    n = 0
    while base**n < size:
        n += 1
    return n if base**n == size else None


def pauli_tensor(idx: PauliIndex) -> np.ndarray:
    """Tensor product sigma_{mu_1} x ... x sigma_{mu_n} of Pauli matrices."""
    out = SIGMA[idx.digits[0]]
    for d in idx.digits[1:]:
        out = np.kron(out, SIGMA[d])
    return out


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product (A|B) = Tr(A^dagger B)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise NumericContractError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return complex(np.trace(a.conj().T @ b))


@dataclass(frozen=True)
class DensityMatrix:
    """Complex 2**n x 2**n operator; expected Hermitian, unit trace, PSD.

    Construction does not enforce the state invariants (conversions may
    legitimately produce non-positive operators, which are reported,
    not rejected); use :func:`validate_density` to check them.
    """

    n: int
    entries: np.ndarray

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        d = 2**self.n
        if entries.shape != (d, d):
            raise NumericContractError(
                f"density matrix for n={self.n} must be {d}x{d}, got {entries.shape}"
            )
        object.__setattr__(self, "entries", _frozen(entries))

    @classmethod
    def from_matrix(cls, entries) -> "DensityMatrix":
        entries = np.asarray(entries, dtype=complex)
        n = _exponent(entries.shape[0], 2) if entries.ndim == 2 else None
        if not n:
            raise NumericContractError(
                f"density matrix must be square 2**n x 2**n, got {entries.shape}"
            )
        return cls(n, entries)

    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)


@dataclass(frozen=True)
class PauliVector:
    """Real coefficient vector P[mu] = Tr(sigma_mu rho), square-bracket form."""

    n: int
    P: np.ndarray

    def __post_init__(self):
        P = np.asarray(self.P, dtype=float)
        if P.shape != (4**self.n,):
            raise NumericContractError(
                f"Pauli vector for n={self.n} must have length {4**self.n}, got {P.shape}"
            )
        object.__setattr__(self, "P", _frozen(P))

    def round_bracket(self) -> np.ndarray:
        """Coefficients over the orthonormal basis |mu) = |sigma_mu)/sqrt(2**n)."""
        return self.P / np.sqrt(2**self.n)

    def norm_sq(self) -> float:
        """Sum of squared coefficients; equals 2**n * Tr(rho^2)."""
        return float(self.P @ self.P)

    def purity(self) -> float:
        return self.norm_sq() / 2**self.n


@dataclass(frozen=True)
class LiouvilleVector:
    """Coefficients of an operator over the orthonormal basis |k,l) = ||k><l|).

    The coefficient of |k,l) is exactly the matrix element A[k,l], so the
    vector is the row-major flattening of the operator.
    """

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=complex)
        if coeffs.shape != (4**self.n,):
            raise NumericContractError(
                f"Liouville vector for n={self.n} must have length {4**self.n}"
            )
        object.__setattr__(self, "coeffs", _frozen(coeffs))

    @classmethod
    def from_operator(cls, a: np.ndarray) -> "LiouvilleVector":
        a = np.asarray(a, dtype=complex)
        n = _exponent(a.shape[0], 2) if a.ndim == 2 else None
        if not n or a.shape != (2**n, 2**n):
            raise NumericContractError(f"operator must be square 2**n x 2**n, got {a.shape}")
        return cls(n, a.reshape(-1))

    def to_operator(self) -> np.ndarray:
        d = 2**self.n
        return self.coeffs.reshape(d, d).copy()


def density_to_pvec(rho: DensityMatrix) -> PauliVector:
    """Expand a density matrix over the Pauli basis: P[mu] = Tr(sigma_mu rho).

    Raises :class:`NumericContractError` if the coefficients carry an
    imaginary part above tolerance at the density's size (non-Hermitian input).
    """
    coeffs = _pauli_transfer(rho.entries[None], rho.n)[:, 0]
    message = "input is not Hermitian: max imaginary Pauli coefficient"
    return PauliVector(rho.n, _real_part(coeffs, message, _scale(rho.entries)))


def pvec_to_density(pvec: PauliVector) -> DensityMatrix:
    """Reconstruct rho = 2**-n sum_mu P[mu] sigma_mu.

    Requires a finite P with P[0] = 1 (unit trace).  If the result is not
    positive semidefinite a :class:`NonPositiveStateWarning` is issued; the
    matrix is still returned.
    """
    if not np.isfinite(pvec.P).all():
        raise NumericContractError("P has non-finite entries")
    if abs(pvec.P[0] - 1.0) > tolerances.algebra:
        raise NumericContractError(f"P[0] must be 1 for a normalized state, got {pvec.P[0]}")
    rho = _pauli_combine(pvec.P, pvec.n)
    out = DensityMatrix(pvec.n, rho)
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < -tolerances.psd:
        warnings.warn(
            f"reconstructed operator is not PSD (min eigenvalue {min_eig:.3e})",
            NonPositiveStateWarning,
            stacklevel=2,
        )
    return out


def computational_state(idx: PauliIndex) -> PauliVector:
    """Generalized computational state |mu]: P[0] = 1 and P[mu] = 1, rest 0.

    |0...0] is the maximally mixed state.  For a single ququat every
    |mu != 0] is pure; for n >= 2 these states have purity 2**(1-n).
    """
    P = np.zeros(4**idx.n)
    P[0] = 1.0
    P[idx.scalar] = 1.0
    return PauliVector(idx.n, P)


class _OnFirstRead:
    """A dataclass field whose value may be given as a zero-argument callable,
    called once, when the field is first read; any other value is stored as it is."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.slot)  # the field has no default
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the state checks, with the measured quantities.

    ``min_eigenvalue`` may be given as a callable: a state certified
    without its spectrum computes it when it is first read.
    """

    hermitian: bool
    unit_trace: bool
    psd: bool
    purity_in_bounds: bool
    trace: float
    min_eigenvalue: float = _OnFirstRead()
    purity: float

    @property
    def valid(self) -> bool:
        return self.hermitian and self.unit_trace and self.psd and self.purity_in_bounds


def validate_density(state: DensityMatrix | PauliVector) -> ValidationReport:
    """Check the state invariants; never raises.

    Accepts either representation.  Bounds checked: Hermiticity, unit
    trace, positive semidefiniteness (eigenvalue slack), and the purity
    window 2**-n <= Tr(rho^2) <= 1.  This is the one-state call of the
    stacked check that ``circuits.run_circuit`` makes for a whole run.
    """
    if isinstance(state, PauliVector):
        return _validate_pvecs([state.P], state.n)[0]
    return _validate_stack(state.entries[None], state.n)[0]


# A stack of densities holds at most this many entries: one n = 8 density,
# 1 MiB of complex.
_STACK_ENTRIES = 4**8

# Unit roundoff of float64.
_U = np.finfo(float).eps / 2


def _validate_pvecs(ps, n: int) -> list[ValidationReport]:
    """:func:`validate_density` of each length-4**n Pauli vector in ``ps``, in order.

    The vectors are combined into densities by one ``_pauli_combine`` per
    chunk of at most _STACK_ENTRIES // 4**n of them (one from n = 8 up).
    A chunk's traces P[0] and purities |P|**2 / 2**n are read off P, which
    is Hermitian by construction, and one Cholesky factorization of the
    stack rho + s I, s = tol_psd / 2, decides ``psd``.  A factorization
    that completes is exact for a perturbation of norm at most about
    (d + 1) u Tr(rho + s I), d = 2**n and u the unit roundoff (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, section 10.1),
    so every min eigenvalue is above -s less that term, and is computed
    only when read.  Twice the term, for complex arithmetic and for the
    rounding of rho itself, must be below s and the algebraic tolerance;
    then every verdict is that of :func:`_validate_stack`.  A chunk that
    is not finite, whose term is too large, or whose factorization fails
    is checked by :func:`_validate_stack` instead.
    """
    size = max(1, _STACK_ENTRIES // 4**n)
    d = 2**n
    s = tolerances.psd / 2
    reports = []
    for start in range(0, len(ps), size):
        chunk = ps[start : start + size]
        p = np.stack(chunk, axis=1)
        rho = _pauli_combine(p, n)
        rounding = 2 * (d + 1) * _U * (float(np.abs(p[0]).max()) + d * s)
        if rounding < min(s, tolerances.algebra) and np.isfinite(rho).all():
            try:
                np.linalg.cholesky(rho + s * np.eye(d))
            except np.linalg.LinAlgError:
                pass
            else:
                purities = (np.einsum("ij,ij->j", p, p) / d).tolist()
                spectra = [functools.partial(_pvec_min_eigenvalue, vec, n) for vec in chunk]
                reports += [
                    _report(n, True, trace, True, min_eig, purity)
                    for trace, min_eig, purity in zip(p[0].tolist(), spectra, purities)
                ]
                continue
        reports += _validate_stack(rho, n)
    return reports


def _pvec_min_eigenvalue(p: np.ndarray, n: int) -> float:
    """The min eigenvalue of one Pauli vector's density, bit for bit as
    :func:`validate_density` of that vector alone gives it."""
    return _validate_stack(_pauli_combine(np.stack([p], axis=1), n), n)[0].min_eigenvalue


def _validate_stack(rho: np.ndarray, n: int) -> list[ValidationReport]:
    """The :class:`ValidationReport` of each operator in a (k, 2**n, 2**n) stack; never raises.

    Hermiticity residuals, traces and purities are computed for the whole
    stack, and one ``eigvalsh`` call takes the spectra of the entries
    that pass the Hermiticity test.  An entry that fails it gets the
    eigenvalues of its Hermitian part (r + r^H) / 2 on its own, or, if it
    holds a NaN or an infinity, a NaN minimum eigenvalue and ``psd`` False.
    """
    ok = np.abs(rho - rho.conj().transpose(0, 2, 1)).max(axis=(1, 2)) <= tolerances.algebra
    herm = ok.tolist()
    traces = np.trace(rho, axis1=1, axis2=2).tolist()
    purities = np.trace(rho @ rho, axis1=1, axis2=2).real.tolist()
    min_eigs = np.full(len(rho), np.nan)
    if ok.any():
        min_eigs[ok] = np.linalg.eigvalsh(rho[ok])[:, 0]
    for i in np.flatnonzero(~ok):
        r = rho[i]
        if np.isfinite(r).all():
            min_eigs[i] = np.min(np.linalg.eigvals((r + r.conj().T) / 2).real)
    return [
        _report(n, h, trace, min_eig >= -tolerances.psd, min_eig, purity)
        for h, trace, min_eig, purity in zip(herm, traces, min_eigs.tolist(), purities)
    ]


def _report(n: int, hermitian: bool, trace, psd: bool, min_eigenvalue, purity) -> ValidationReport:
    """The report of an n-ququat state of this trace (real or complex) and purity:
    unit trace within the algebraic tolerance, purity in [2**-n, 1] within the psd one."""
    return ValidationReport(
        hermitian=hermitian,
        unit_trace=abs(trace - 1.0) <= tolerances.algebra,
        psd=psd,
        purity_in_bounds=2.0**-n - tolerances.psd <= purity <= 1.0 + tolerances.psd,
        trace=trace.real,
        min_eigenvalue=min_eigenvalue,
        purity=purity,
    )
