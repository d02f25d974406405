"""Markovian generators and propagator gates.

Two routes are provided.  The single-qubit route takes Hamiltonian
coefficients H_k and a Hermitian coefficient matrix C_kl, the model
-i[H, p] + sum_kl (C_kl/8)(sigma_k p sigma_l - 1/2 {sigma_l sigma_k, p})
with H = sum_k H_k sigma_k, whose real 4x4 generator is documented as

    dP_mu/dt = sum_nu L[mu, nu] P_nu,
    A[k, l] = 2 H_m eps(k,m,l) + (C[k,l] + C[l,k])/8 - delta(k,l) Tr(C)/4,
    B[k]    = -1/4 eps(i,j,k) Im C[i,j],

with L = [[0, 0], [B, A]].  The general-n route builds the Liouvillian
superoperator from a Hamiltonian and jump operators V_j.  Both routes
compute L from their superoperator through one kernel, certified
relative to its size, and share one propagator kernel: the
trace-preserving gate expm(t L), which for the single-qubit route is
[[1, 0], [T, R]] with R = expm(tau A) and T the integral of expm(s A) B.

Ordering note: the source derivation writes the dissipator anticommutator
with V_j V_j^dagger.  That ordering does not preserve the trace for
non-normal V (and contradicts the displayed single-qubit generator, whose
top row vanishes), so the standard Lindblad form

    sum_j ( V_j rho V_j^dagger - 1/2 {V_j^dagger V_j, rho} )

is implemented; both coincide for normal jump operators.  The displayed
A and B formulas above match the standard form exactly.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .config import tolerances
from .errors import NumericContractError
from .gates import GateMatrix, TRACE_PRESERVING, _operator_ququats, _pin_row0
from .liouville import SIGMA, _kron, _real_part, _scale, _superop_transfer

__all__ = [
    "GKSModel",
    "GeneratorMatrix",
    "LiouvillianSuperop",
    "gks_matrix",
    "gks_propagator",
    "liouvillian_gate",
    "liouvillian_superop",
    "IndefiniteCoefficientWarning",
]


class IndefiniteCoefficientWarning(UserWarning):
    """The coefficient matrix C is not positive semidefinite."""


@dataclass(frozen=True)
class GKSModel:
    """Single-qubit model: Hamiltonian coefficients H_k and matrix C_kl."""

    h: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        h = np.array(self.h, dtype=float)
        c = np.array(self.c, dtype=complex)
        if h.shape != (3,):
            raise NumericContractError("H must be a 3-vector of real coefficients")
        if c.shape != (3, 3):
            raise NumericContractError("C must be a 3x3 matrix")
        h.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "c", c)

    def is_hermitian(self) -> bool:
        """max|C - C^H| within the algebraic tolerance, read at C's size (``_scale``)."""
        resid = float(np.abs(self.c - self.c.conj().T).max())
        return resid <= tolerances.algebra * _scale(self.c)

    def is_positive(self) -> bool:
        """Positivity of the Hermitian form by its least eigenvalue, with the psd
        slack read at C's size (``_scale``).  The form is halved before it is
        summed, so no finite C overflows it."""
        form = self.c / 2 + self.c.conj().T / 2
        return float(np.linalg.eigvalsh(form)[0]) >= -tolerances.psd * _scale(self.c)


@dataclass(frozen=True)
class GeneratorMatrix:
    """Real 4x4 generator whose top row, certified at the generator's size, is set to zero."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)
        if matrix.shape != (4, 4):
            raise NumericContractError("generator matrix must be 4x4")
        if not np.abs(matrix[0]).max() <= tolerances.algebra * _scale(matrix):  # NaN refused
            raise NumericContractError("generator top row must vanish (trace preservation)")
        matrix[0] = 0.0
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def a(self) -> np.ndarray:
        return self.matrix[1:, 1:]

    @property
    def b(self) -> np.ndarray:
        return self.matrix[1:, 0]


def gks_matrix(model: GKSModel) -> GeneratorMatrix:
    """Assemble the single-qubit generator from (H, C).

    The model's superoperator (see the module docstring) goes through
    :meth:`LiouvillianSuperop.to_pauli_generator`.  Raises on non-Hermitian
    C; an indefinite C only triggers an :class:`IndefiniteCoefficientWarning`.
    Real C gives B = 0 exactly, hence a unital propagator.
    """
    if not model.is_hermitian():
        raise NumericContractError("C must be Hermitian")
    if not model.is_positive():
        warnings.warn(
            "C is not positive semidefinite; the semigroup may not be positive",
            IndefiniteCoefficientWarning,
            stacklevel=2,
        )
    sigma = np.array(SIGMA[1:])
    c8 = model.c / 8
    # sum_kl C_kl/8 (sigma_k kron sigma_l^T) and the operator sum_kl C_kl/8 sigma_l sigma_k
    jumps = np.einsum("kl,kac,ldb->abcd", c8, sigma, sigma).reshape(4, 4)
    anti = np.einsum("kl,lab,kbc->ac", c8, sigma, sigma)
    eye = np.eye(2)
    s = (liouvillian_superop(np.tensordot(model.h, sigma, 1)).matrix + jumps
         - 0.5 * _kron(anti, eye) - 0.5 * _kron(eye, anti.T))
    return GeneratorMatrix(LiouvillianSuperop(1, s).to_pauli_generator())


def gks_propagator(gen: GeneratorMatrix, tau: float) -> GateMatrix:
    """Propagator gate expm(tau L) of a fixed generator over time tau.

    Its block form is [[1, 0], [T, R]] with R = expm(tau A) and T the
    integral of expm(s A) B; no inversion of A is needed, so singular A is
    fine.  B = 0 yields T = 0.
    """
    return _propagator(lambda: gen.matrix, tau, 1, "tau")[0]


def _propagator(generator, t: float, n: int, time_name: str = "t") -> tuple[GateMatrix, np.ndarray]:
    """The trace-preserving n-ququat gate expm(t L) and the generator L = ``generator()``.

    The time is checked before L is made, so a negative time is reported
    before any error of the generator.  L's certified top row is zero, so
    row 0 of expm(t L) is pinned to delta unless ``expm`` overflowed into NaN
    or Infinity.
    """
    if t < 0:
        raise NumericContractError(f"{time_name} must be nonnegative")
    from scipy.linalg import expm  # imported here: scipy.linalg is most of the CLI start
    gen = generator()
    entries = expm(t * gen)
    if not np.isfinite(entries).all():
        raise NumericContractError("propagator has non-finite entries")
    _pin_row0(entries[0])
    return GateMatrix(n, n, entries, TRACE_PRESERVING), gen


@dataclass(frozen=True)
class LiouvillianSuperop:
    """Liouvillian over the operator basis |k,l).

    ``matrix`` acts on the row-major flattening of the density matrix
    (the coefficients over |k,l)).  Converting to the Pauli basis yields
    a real matrix with vanishing top row.
    """

    n: int
    matrix: np.ndarray

    def to_pauli_generator(self) -> np.ndarray:
        """Real generator of dP/dt = L P over Pauli coefficient vectors; its
        certified top row is set to zero.

        Its imaginary part and its top row are rounding, so both are compared
        with ``tolerances.algebra`` times ``_scale`` of the superoperator.
        """
        scale = _scale(self.matrix)
        gen = _real_part(_superop_transfer(self.matrix, self.n, self.n),
                         "Pauli-basis generator not real: residual", scale)
        row0 = float(np.abs(gen[0]).max())
        if row0 > tolerances.algebra * scale:
            raise NumericContractError(
                f"generator does not preserve trace: top row residual {row0:.3e}"
            )
        gen[0] = 0.0
        return gen


def liouvillian_superop(h: np.ndarray, v: list | tuple = ()) -> LiouvillianSuperop:
    """Liouvillian of dp/dt = -i[H, p] + sum_j (V_j p V_j^dag - 1/2 {V_j^dag V_j, p}).

    With no jump operators this is -i(L_H - R_H) and expm(L t) equals the
    gate of expm(-i H t).  H's Hermitian check is read at H's size (``_scale``).
    """
    h = np.asarray(h, dtype=complex)
    n = _operator_ququats(h, "H")
    d = 2**n
    if np.abs(h - h.conj().T).max() > tolerances.algebra * _scale(h):
        raise NumericContractError("H must be Hermitian")
    eye = np.eye(d)
    mat = -1j * (_kron(h, eye) - _kron(eye, h.T))
    for j, vj in enumerate(v):
        vj = np.asarray(vj, dtype=complex)
        if vj.shape != (d, d):
            raise NumericContractError(f"jump operator {j} has shape {vj.shape}, expected {h.shape}")
        vdv = vj.conj().T @ vj
        mat += _kron(vj, vj.conj()) - 0.5 * _kron(vdv, eye) - 0.5 * _kron(eye, vdv.T)
    return LiouvillianSuperop(n=n, matrix=mat)


def liouvillian_gate(liouvillian: LiouvillianSuperop, t: float) -> GateMatrix:
    """Trace-preserving propagator gate expm(t L) of a fixed Liouvillian.

    L is the real Pauli-basis generator of :meth:`LiouvillianSuperop.to_pauli_generator`.
    """
    return _propagator(liouvillian.to_pauli_generator, t, liouvillian.n)[0]

