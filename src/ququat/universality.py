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

from .config import MAX_LIE_SIDE, tolerances
from .errors import NumericContractError
from .gates import GateMatrix, _operator_ququats
from .liouville import _exponent, _kron, _superop_transfer

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

    Matrices of L_A and R_{A^dagger} are entrywise complex conjugates of
    each other.
    """

    n: int
    matrix: np.ndarray

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
    n = _operator_ququats(a, "operator")
    mat = _superop_transfer(_kron(a, np.eye(2**n)), n, n)
    return PseudoGate(n, mat)


def right_mult_superop(a: np.ndarray) -> PseudoGate:
    """Matrix of B -> B A on Pauli coefficient vectors.

    R[mu, nu] = 2**-n Tr(sigma_mu sigma_nu A); order reversal holds,
    right(A) @ right(B) = right(B A), and right(A^dagger) equals the
    entrywise conjugate of left(A).
    """
    a = np.asarray(a, dtype=complex)
    n = _operator_ququats(a, "operator")
    mat = _superop_transfer(_kron(np.eye(2**n), a.T), n, n)
    return PseudoGate(n, mat)


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
    if not _exponent(dim, 4):
        raise NumericContractError(f"dim must be a power of 4, got {dim}")

    def frozen(*entries):
        e = np.zeros((dim, dim), dtype=complex)
        for a, b, value in entries:
            e[a, b] = value
        e.setflags(write=False)
        return e

    pairs = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    units = [frozen((mu, nu, 1.0)) for mu in range(dim) for nu in range(dim)]
    herm = [frozen((a, a, 1.0)) for a in range(dim)]
    herm += [frozen((a, b, 1.0), (b, a, 1.0)) for a, b in pairs]
    herm += [frozen((a, b, -1j), (b, a, 1j)) for a, b in pairs]
    return GeneratorSet(units=tuple(units), hermitian=tuple(herm))


_SPAN_THRESHOLD = 1e-9  # relative residual above which a candidate joins a Lie span


class _RealSpan:
    """Orthonormal rows [Re M, Im M] of complex matrices M, in a (dim, dim) buffer.

    A candidate is kept when its residual after two Gram-Schmidt passes,
    relative to its norm, exceeds ``_SPAN_THRESHOLD``.
    """

    def __init__(self, dim: int):
        self.rows = np.zeros((dim, dim))
        self.dim = 0

    def extend(self, mats: np.ndarray) -> np.ndarray:
        """Offer each matrix, then i times it; return the kept ones, normalised, in order."""
        flat = mats.reshape(len(mats), -1)
        norms = np.linalg.norm(flat, axis=1)
        keep = norms > _SPAN_THRESHOLD
        flat = flat[keep] / norms[keep, None]
        flat = np.stack([flat, 1j * flat], axis=1).reshape(-1, flat.shape[1])
        vecs = np.concatenate([flat.real, flat.imag], axis=1)
        held = self.rows[: self.dim]
        # one GEMM per pass against the rows held before the call; a
        # residual at or below the threshold cannot grow in a later pass
        for _ in range(2):
            vecs -= (vecs @ held.T) @ held
            live = np.linalg.norm(vecs, axis=1) > _SPAN_THRESHOLD
            vecs, flat = vecs[live], flat[live]
        start = self.dim
        kept = []
        for j, v in enumerate(vecs):
            new = self.rows[start : self.dim]
            for _ in range(2):
                v = v - new.T @ (new @ v)
            resid = np.linalg.norm(v)
            if resid > _SPAN_THRESHOLD and self.dim < len(self.rows):
                self.rows[self.dim] = v / resid
                self.dim += 1
                kept.append(j)
        return flat[kept].reshape(-1, *mats.shape[1:])


# Entries of the commutator block formed at once: 2**14 complex, 256 KiB.
# In small blocks the rows a block adds are held, and so projected out by
# GEMM, for the next block; 2**20 took twice as long at N = 16.
_BRACKET_ENTRIES = 2**14


def lie_closure_dim(generators, max_iter: int = 100) -> int:
    """Real dimension of the matrix Lie algebra generated by a set.

    The algebra is taken closed under multiplication by i (each element
    is inserted together with i times itself), so a set spanning all
    matrix units of size N closes to gl(N, C) with real dimension
    2 N**2.  New directions are found by commutating the generators
    against the accumulating basis (left-normed brackets span the
    algebra); the rank is tracked by thresholded Gram-Schmidt.

    Generators of side above ``MAX_LIE_SIDE`` are refused with
    :class:`NumericContractError` before the span is allocated.

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
    if size > MAX_LIE_SIDE:
        raise NumericContractError(
            f"generators have side {size}; Lie closures are limited to side {MAX_LIE_SIDE}"
        )

    gens = np.stack(mats)
    span = _RealSpan(2 * size * size)
    frontier = span.extend(gens)
    # brackets [g, b], frontier outer and generator inner, in blocks of at
    # most _BRACKET_ENTRIES entries or of one frontier member
    step = max(1, _BRACKET_ENTRIES // gens.size)
    for _ in range(max_iter):
        # a full span has no new directions to find
        if not len(frontier) or span.dim == len(span.rows):
            break
        found = []
        for i in range(0, len(frontier), step):
            b = frontier[i : i + step, None]
            found.append(span.extend((gens @ b - b @ gens).reshape(-1, size, size)))
        frontier = np.concatenate(found)
    else:
        if len(frontier):
            warnings.warn(
                "lie closure did not stabilize within max_iter sweeps; "
                "returned dimension is a lower bound",
                LieClosureWarning,
                stacklevel=2,
            )
    return span.dim


def swap_pseudo_gate() -> PseudoGate:
    """Permutation superoperator exchanging the two factors of a two-ququat register.

    Maps coefficient index (mu, nu) to (nu, mu); it is an involution, and
    conjugating tensor_gates(g, identity) by it yields
    tensor_gates(identity, g).
    """
    size = 16
    mat = np.zeros((size, size), dtype=complex)
    for mu in range(4):
        for nu in range(4):
            mat[4 * nu + mu, 4 * mu + nu] = 1.0
    return PseudoGate(2, mat)


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
    from scipy.linalg import expm  # imported here: scipy.linalg is most of the CLI start
    t = 1.0 / np.sqrt(steps)
    m = expm(-1j * t * h2) @ expm(1j * t * h1) @ expm(1j * t * h2) @ expm(-1j * t * h1)
    return np.linalg.matrix_power(m, steps)
