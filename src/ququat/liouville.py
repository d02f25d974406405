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


def _pauli_transfer(images: np.ndarray, n: int) -> np.ndarray:
    """T[mu, k] = Tr(sigma_mu X_k) over a stack X, as one GEMM with the flattened basis."""
    rows = pauli_basis(n).reshape(4**n, -1)
    return rows @ images.transpose(0, 2, 1).reshape(len(images), -1).T


def _pauli_combine(p: np.ndarray, n: int) -> np.ndarray:
    """The operator 2**-n sum_mu p[mu] sigma_mu, as one GEMV."""
    return (p @ pauli_basis(n).reshape(4**n, -1)).reshape(2**n, 2**n) / 2**n


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
        n = int(round(np.log2(entries.shape[0])))
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
        n = int(round(np.log2(a.shape[0])))
        if a.shape != (2**n, 2**n):
            raise NumericContractError(f"operator must be square 2**n x 2**n, got {a.shape}")
        return cls(n, a.reshape(-1))

    def to_operator(self) -> np.ndarray:
        d = 2**self.n
        return self.coeffs.reshape(d, d).copy()


def density_to_pvec(rho: DensityMatrix, tol: float | None = None) -> PauliVector:
    """Expand a density matrix over the Pauli basis: P[mu] = Tr(sigma_mu rho).

    Raises :class:`NumericContractError` if the coefficients carry an
    imaginary part above tolerance (non-Hermitian input).
    """
    tol = tolerances.algebra if tol is None else tol
    coeffs = _pauli_transfer(rho.entries[None], rho.n)[:, 0]
    resid = float(np.max(np.abs(coeffs.imag)))
    if resid > tol:
        raise NumericContractError(
            f"input is not Hermitian: max imaginary Pauli coefficient {resid:.3e}"
        )
    return PauliVector(rho.n, coeffs.real)


def pvec_to_density(pvec: PauliVector, tol: float | None = None) -> DensityMatrix:
    """Reconstruct rho = 2**-n sum_mu P[mu] sigma_mu.

    Requires P[0] = 1 (unit trace).  If the result is not positive
    semidefinite a :class:`NonPositiveStateWarning` is issued; the matrix
    is still returned.
    """
    tol = tolerances.algebra if tol is None else tol
    if abs(pvec.P[0] - 1.0) > tol:
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


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the state checks, with the measured quantities."""

    hermitian: bool
    unit_trace: bool
    psd: bool
    purity_in_bounds: bool
    trace: float
    min_eigenvalue: float
    purity: float

    @property
    def valid(self) -> bool:
        return self.hermitian and self.unit_trace and self.psd and self.purity_in_bounds


def validate_density(state: DensityMatrix | PauliVector, tol: float | None = None) -> ValidationReport:
    """Check the state invariants; never raises.

    Accepts either representation.  Bounds checked: Hermiticity, unit
    trace, positive semidefiniteness (eigenvalue slack), and the purity
    window 2**-n <= Tr(rho^2) <= 1.
    """
    tol = tolerances.algebra if tol is None else tol
    n = state.n
    if isinstance(state, PauliVector):
        rho = _pauli_combine(state.P, n)
    else:
        rho = state.entries
    herm = float(np.max(np.abs(rho - rho.conj().T))) <= tol
    trace = complex(np.trace(rho))
    unit_trace = bool(abs(trace - 1.0) <= tol)
    if herm:
        eigs = np.linalg.eigvalsh(rho)
    else:
        eigs = np.linalg.eigvals((rho + rho.conj().T) / 2).real
    min_eig = float(np.min(eigs))
    psd = min_eig >= -tolerances.psd
    purity = float(np.trace(rho @ rho).real)
    purity_ok = (2.0**-n - tolerances.psd) <= purity <= 1.0 + tolerances.psd
    return ValidationReport(
        hermitian=herm,
        unit_trace=unit_trace,
        psd=psd,
        purity_in_bounds=purity_ok,
        trace=float(trace.real),
        min_eigenvalue=min_eig,
        purity=purity,
    )
