"""Pseudo-gates, Weyl-basis generators and Lie-closure dimension.

Left and right multiplication superoperators ("pseudo-gates") are the
building blocks of completely positive maps: every Kraus channel is
sum_j L_{A_j} R_{A_j^dagger}, and the gate matrix factors accordingly.
The universality question for gates reduces to which superoperator Lie
algebra a set of pseudo-gate generators closes into; the closure
dimension is computed over the reals with multiplication by i counted
separately, so gl(N, C) has real dimension 2 N**2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .config import tolerances
from .errors import NumericContractError
from .gates import GateMatrix
from .liouville import _pauli_transfer, pauli_basis

__all__ = [
    "PseudoGate",
    "GeneratorSet",
    "left_mult_superop",
    "right_mult_superop",
    "weyl_generators",
    "lie_closure_dim",
    "swap_pseudo_gate",
    "trace_decreasing_bound",
    "commutator_limit_product",
    "LieClosureWarning",
]


class LieClosureWarning(UserWarning):
    """Closure iteration stopped on the sweep budget; dimension is a lower bound."""


@dataclass(frozen=True)
class PseudoGate:
    """Complex superoperator matrix over the generalized computational basis.

    ``tag`` records the construction: ``left`` (L_A), ``right`` (R_A) or
    ``swap``.  Matrices of L_A and R_{A^dagger} are entrywise complex
    conjugates of each other.
    """

    n: int
    matrix: np.ndarray
    tag: str

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=complex)
        size = 4**self.n
        if matrix.shape != (size, size):
            raise NumericContractError(f"pseudo-gate for n={self.n} must be {size}x{size}")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)


def left_mult_superop(a: np.ndarray) -> PseudoGate:
    """Matrix of B -> A B on Pauli coefficient vectors.

    L[mu, nu] = 2**-n Tr(sigma_nu sigma_mu A); the 2**-n normalization is
    folded in so that left_mult_superop(I) is exactly the identity, and
    left(A) @ left(B) = left(A B).
    """
    a = np.asarray(a, dtype=complex)
    n = int(round(np.log2(a.shape[0])))
    if a.shape != (2**n, 2**n):
        raise NumericContractError(f"operator must be square 2**n x 2**n, got {a.shape}")
    mat = _pauli_transfer(a @ pauli_basis(n), n) / 2**n
    return PseudoGate(n, mat, "left")


def right_mult_superop(a: np.ndarray) -> PseudoGate:
    """Matrix of B -> B A on Pauli coefficient vectors.

    R[mu, nu] = 2**-n Tr(sigma_mu sigma_nu A); order reversal holds,
    right(A) @ right(B) = right(B A), and right(A^dagger) equals the
    entrywise conjugate of left(A).
    """
    a = np.asarray(a, dtype=complex)
    n = int(round(np.log2(a.shape[0])))
    if a.shape != (2**n, 2**n):
        raise NumericContractError(f"operator must be square 2**n x 2**n, got {a.shape}")
    mat = _pauli_transfer(pauli_basis(n) @ a, n) / 2**n
    return PseudoGate(n, mat, "right")


@dataclass(frozen=True)
class GeneratorSet:
    """Deterministically ordered Lie-algebra generators.

    ``units`` are the matrix units |mu)(nu|; ``hermitian`` the self-adjoint
    combinations H_aa, H^r_ab = |a)(b| + |b)(a| and
    H^i_ab = -i(|a)(b| - |b)(a|) for a < b.
    """

    units: tuple[np.ndarray, ...]
    hermitian: tuple[np.ndarray, ...]

    @property
    def matrices(self) -> tuple[np.ndarray, ...]:
        return self.units + self.hermitian


def weyl_generators(dim: int) -> GeneratorSet:
    """Matrix units and the Hermitian triple for a 4**n-dimensional space.

    For dim = 16 the Hermitian family has 16 + 120 + 120 = 256 linearly
    independent self-adjoint superoperators.  The units satisfy
    [E_mu_nu, E_alpha_beta] = delta(nu,alpha) E_mu_beta
    - delta(beta,mu) E_alpha_nu.  (One published form of this identity
    has the second term's indices transposed; the identity asserted here
    is the numerically true one.)
    """
    n = int(round(np.log2(dim) / 2))
    if dim < 4 or 4**n != dim:
        raise NumericContractError(f"dim must be a power of 4, got {dim}")
    units = []
    for mu in range(dim):
        for nu in range(dim):
            e = np.zeros((dim, dim), dtype=complex)
            e[mu, nu] = 1.0
            e.setflags(write=False)
            units.append(e)
    herm = []
    for a in range(dim):
        h = np.zeros((dim, dim), dtype=complex)
        h[a, a] = 1.0
        h.setflags(write=False)
        herm.append(h)
    for a in range(dim):
        for b in range(a + 1, dim):
            hr = np.zeros((dim, dim), dtype=complex)
            hr[a, b] = 1.0
            hr[b, a] = 1.0
            hr.setflags(write=False)
            herm.append(hr)
    for a in range(dim):
        for b in range(a + 1, dim):
            hi = np.zeros((dim, dim), dtype=complex)
            hi[a, b] = -1j
            hi[b, a] = 1j
            hi.setflags(write=False)
            herm.append(hi)
    return GeneratorSet(units=tuple(units), hermitian=tuple(herm))


def _vec_real(m: np.ndarray) -> np.ndarray:
    return np.concatenate([m.real.reshape(-1), m.imag.reshape(-1)])


class _RealSpan:
    """Incremental orthonormal real span with a fixed acceptance threshold."""

    def __init__(self, dim: int, threshold: float = 1e-9):
        self.rows = np.zeros((0, dim))
        self.threshold = threshold

    def add(self, vec: np.ndarray) -> bool:
        norm = np.linalg.norm(vec)
        if norm <= self.threshold:
            return False
        v = vec / norm
        # Two Gram-Schmidt passes keep the basis orthonormal in floats.
        for _ in range(2):
            if self.rows.shape[0]:
                v = v - self.rows.T @ (self.rows @ v)
        resid = np.linalg.norm(v)
        if resid <= self.threshold:
            return False
        self.rows = np.vstack([self.rows, v / resid])
        return True

    @property
    def dim(self) -> int:
        return self.rows.shape[0]


def lie_closure_dim(
    generators, max_iter: int = 100, threshold: float = 1e-9
) -> int:
    """Real dimension of the matrix Lie algebra generated by a set.

    The algebra is taken closed under multiplication by i (each element
    is inserted together with i times itself), so a set spanning all
    matrix units of size N closes to gl(N, C) with real dimension
    2 N**2.  New directions are found by commutating the generators
    against the accumulating basis (left-normed brackets span the
    algebra); the rank is tracked by thresholded Gram-Schmidt.

    ``max_iter`` bounds the number of sweeps; if it is exhausted before
    the basis stabilizes a :class:`LieClosureWarning` is issued and the
    returned dimension is a lower bound.
    """
    if isinstance(generators, GeneratorSet):
        generators = generators.matrices
    mats = [np.asarray(g, dtype=complex) for g in generators]
    if not mats:
        raise NumericContractError("generator set is empty")
    size = mats[0].shape[0]
    if any(m.shape != (size, size) for m in mats):
        raise NumericContractError("all generators must be square of equal size")

    span = _RealSpan(2 * size * size, threshold)
    basis: list[np.ndarray] = []

    def insert(m: np.ndarray) -> None:
        norm = np.linalg.norm(m)
        if norm == 0.0:
            return
        for cand in (m, 1j * m):
            if span.add(_vec_real(cand)):
                basis.append(cand / np.linalg.norm(cand))

    for m in mats:
        insert(m)

    frontier_start = 0
    for _ in range(max_iter):
        frontier_end = len(basis)
        if frontier_start == frontier_end:
            break
        for b in basis[frontier_start:frontier_end]:
            for g in mats:
                insert(g @ b - b @ g)
        frontier_start = frontier_end
    else:
        if frontier_start != len(basis):
            warnings.warn(
                "lie closure did not stabilize within max_iter sweeps; "
                "returned dimension is a lower bound",
                LieClosureWarning,
                stacklevel=2,
            )
    return span.dim


def swap_pseudo_gate(n: int = 2) -> PseudoGate:
    """Permutation superoperator exchanging the two ququat factors.

    Maps coefficient index (mu, nu) to (nu, mu); it is an involution, and
    conjugating tensor_gates(g, identity) by it yields
    tensor_gates(identity, g).
    """
    if n != 2:
        raise NumericContractError("the twist pseudo-gate is defined for two ququats")
    size = 16
    mat = np.zeros((size, size), dtype=complex)
    for mu in range(4):
        for nu in range(4):
            mat[4 * nu + mu, 4 * mu + nu] = 1.0
    return PseudoGate(2, mat, "swap")


def trace_decreasing_bound(gate: GateMatrix) -> tuple[bool, float]:
    """Sufficient trace-decrease bound sum_mu E[0, mu]**2 <= 1.

    Returns (bound holds, value).  The bound is sufficient, not
    necessary: gates violating it may still be trace-decreasing on
    states.
    """
    value = float(gate.entries[0] @ gate.entries[0])
    return value <= 1.0 + tolerances.algebra, value


def commutator_limit_product(h1: np.ndarray, h2: np.ndarray, steps: int) -> np.ndarray:
    """Group-commutator approximation to the exponential of a bracket.

    Computes (exp(-it H2) exp(it H1) exp(it H2) exp(-it H1))**steps with
    t = 1/sqrt(steps), which converges to expm(-[H1, H2]) as steps grows
    (error O(steps**-1/2)).
    """
    if steps < 1:
        raise NumericContractError("steps must be >= 1")
    h1 = np.asarray(h1, dtype=complex)
    h2 = np.asarray(h2, dtype=complex)
    t = 1.0 / np.sqrt(steps)
    m = expm(-1j * t * h2) @ expm(1j * t * h1) @ expm(1j * t * h2) @ expm(-1j * t * h1)
    return np.linalg.matrix_power(m, steps)
