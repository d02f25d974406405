"""Real gate matrices of quantum operations in the Pauli basis.

A gate of order (n, m) is the real 4**m x 4**n matrix E with

    E[mu, nu] = 2**-n Tr(sigma_mu  E(sigma_nu)),

acting on square-bracket coefficient vectors as P' = E @ P.  Gates built
from a unitary U use E(X) = U X U^dagger; gates built from Kraus operators
{A_j} use E(X) = sum_j A_j X A_j^dagger.  Trace-preserving gates have row
zero equal to (1, 0, ..., 0); trace-decreasing gates need the nonlinear
apply which renormalizes by the outcome probability.

Index-order note: one published statement of the unitary formula swaps mu
and nu relative to its own derivation (the two forms are transposes).  We
use the derivation's form, E[mu, nu] = 2**-n Tr(sigma_mu U sigma_nu
U^dagger), which is the one consistent with the displayed rotation
matrices and with P' = E @ P as a left action.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .config import MAX_GATE_QUQUATS, tolerances
from .errors import NumericContractError, ZeroProbabilityError
from .liouville import (PauliVector, _basis_product, _exponent, _frozen, _kron, _pauli_transfer,
                        _superop_transfer)

__all__ = [
    "GateMatrix",
    "KrausSet",
    "GateReport",
    "ReversibilityCertificate",
    "classify_kind",
    "gate_from_matrix",
    "gate_from_unitary",
    "gate_from_kraus",
    "Measurement",
    "measurement",
    "measurement_gates",
    "apply_linear",
    "apply_nonlinear",
    "compose",
    "tensor_gates",
    "adjoint_gate",
    "choi_matrix",
    "analyze_gate",
    "check_reversible",
    "check_reversible_superop",
]

TRACE_PRESERVING = "trace_preserving"
TRACE_DECREASING = "trace_decreasing"
GENERAL = "general"


@dataclass(frozen=True)
class GateMatrix:
    """Real transfer matrix of a four-valued logic gate.

    ``kind`` is one of ``trace_preserving``, ``trace_decreasing`` or
    ``general`` (neither; e.g. the adjoint of a non-unital gate, which can
    be trace-increasing).  Gates from unitaries, Kraus sets and
    measurements have the kind sum A^dagger A shows and are completely
    positive by construction; any other matrix has the kind of its row 0
    (:func:`classify_kind`), and :func:`analyze_gate` certifies it.
    """

    n_in: int
    n_out: int
    entries: np.ndarray
    kind: str

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        shape = (4**self.n_out, 4**self.n_in)
        if entries.shape != shape:
            raise NumericContractError(
                f"gate of order ({self.n_in},{self.n_out}) must be {shape}, got {entries.shape}"
            )
        if self.kind not in (TRACE_PRESERVING, TRACE_DECREASING, GENERAL):
            raise NumericContractError(f"unknown gate kind {self.kind!r}")
        object.__setattr__(self, "entries", _frozen(entries))

    @property
    def square(self) -> bool:
        return self.n_in == self.n_out


@dataclass(frozen=True)
class KrausSet:
    """Operators {A_j} of a completely positive map sum_j A_j rho A_j^dagger."""

    ops: tuple[np.ndarray, ...]
    n_in: int = field(init=False)
    n_out: int = field(init=False)

    def __post_init__(self):
        ops = tuple(np.array(a, dtype=complex) for a in self.ops)
        if not ops:
            raise NumericContractError("KrausSet needs at least one operator")
        shape = ops[0].shape
        if any(a.shape != shape for a in ops):
            raise NumericContractError("all Kraus operators must have the same shape")
        if not all(np.isfinite(a).all() for a in ops):
            raise NumericContractError("Kraus operators have non-finite entries")
        sides = [_exponent(s, 2) for s in shape]
        if len(sides) != 2 or not all(sides):
            raise NumericContractError(f"Kraus operators must be 2**m x 2**n, got {shape}")
        n_out, n_in = sides
        for a in ops:
            a.setflags(write=False)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "n_in", n_in)
        object.__setattr__(self, "n_out", n_out)

    def completeness(self) -> np.ndarray:
        """The operator sum_j A_j^dagger A_j (identity iff trace-preserving)."""
        return sum(a.conj().T @ a for a in self.ops)

    def kind(self) -> str:
        return _completeness_kind(self.completeness())


def _completeness_kind(s: np.ndarray) -> str:
    """Kind of a map with sum_j A_j^dagger A_j = s; a trace-increasing s is refused."""
    if np.max(np.abs(s - np.eye(s.shape[0]))) <= tolerances.algebra:
        return TRACE_PRESERVING
    top = float(np.linalg.eigvalsh(s)[-1])
    if top <= 1.0 + tolerances.algebra:
        return TRACE_DECREASING
    raise NumericContractError(
        f"trace-increasing Kraus set: max eigenvalue of sum A^dag A is {top!r}"
    )


def _check_gate_size(n: int, what: str) -> None:
    """Refuse a gate on more than MAX_GATE_QUQUATS ququats before its 4**n x 4**n matrix exists."""
    if n > MAX_GATE_QUQUATS:
        raise NumericContractError(
            f"{what} acts on {n} ququats; dense gates are limited to {MAX_GATE_QUQUATS}"
        )


def _operator_ququats(a: np.ndarray, what: str) -> int:
    """n of a square 2**n x 2**n operator, n >= 1, within the gate size ceiling."""
    n = _exponent(a.shape[0], 2) if a.ndim == 2 else None
    if not n or a.shape != (2**n, 2**n):
        raise NumericContractError(f"{what} must be square 2**n x 2**n, got {a.shape}")
    _check_gate_size(n, what)
    return n


_NO_QUQUAT = "a gate acts on at least one ququat"


def _gate_order(shape: tuple[int, ...]) -> tuple[int, int]:
    """(n_out, n_in), each at least 1, of a 4**m x 4**n gate matrix shape."""
    sides = [_exponent(s, 4) for s in shape]
    if len(sides) != 2 or None in sides:
        raise NumericContractError(f"gate matrix must be 4**m x 4**n, got {shape}")
    if 0 in sides:
        raise NumericContractError(f"{_NO_QUQUAT}, got {shape}")
    return tuple(sides)


def _row0_deviation(row: np.ndarray) -> float:
    """max |row - delta| for delta = (1, 0, ..., 0), the row 0 of a trace-preserving gate."""
    delta = np.zeros(len(row))
    delta[0] = 1.0
    return float(np.max(np.abs(row - delta)))


def _pin_row0(row: np.ndarray) -> None:
    """Set a certified trace-preserving row 0 to delta exactly, dropping ~1e-16 residue."""
    if _row0_deviation(row) > tolerances.algebra:
        raise NumericContractError("trace-preserving construction produced a bad row 0")
    row[:] = 0.0
    row[0] = 1.0


def classify_kind(entries: np.ndarray) -> str:
    """Kind of a gate matrix that no construction certifies, read off its row zero."""
    row0 = np.asarray(entries)[0]
    if _row0_deviation(row0) <= tolerances.algebra:
        return TRACE_PRESERVING
    if float(row0 @ row0) <= 1.0 + tolerances.algebra:
        return TRACE_DECREASING
    return GENERAL


def gate_from_matrix(entries) -> GateMatrix:
    """Wrap a user-supplied real matrix as a gate of the kind of its row 0 (CP unverified)."""
    entries = np.asarray(entries, dtype=float)
    n_out, n_in = _gate_order(entries.shape)
    return GateMatrix(n_in, n_out, entries, classify_kind(entries))


def _kraus_transfer(ops, n_in: int, n_out: int) -> np.ndarray:
    acc = _superop_transfer(sum(_kron(a, a.conj()) for a in ops), n_in, n_out)
    resid = float(np.max(np.abs(acc.imag)))
    if resid > tolerances.algebra:
        raise NumericContractError(f"gate entries not real: max imaginary part {resid:.3e}")
    return acc.real


def _kraus_gate(ops, n_in: int, n_out: int, kind: str) -> GateMatrix:
    """Gate of operators certified to be of ``kind``; a trace-preserving row 0 is pinned."""
    entries = _kraus_transfer(ops, n_in, n_out)
    if kind == TRACE_PRESERVING:
        _pin_row0(entries[0])
    return GateMatrix(n_in, n_out, entries, kind)


def gate_from_unitary(u: np.ndarray) -> GateMatrix:
    """Gate of a unitary map rho -> U rho U^dagger.

    The result is trace-preserving, unital and orthogonal, with
    E[mu, nu] = 2**-n Tr(sigma_mu U sigma_nu U^dagger).
    """
    u = np.asarray(u, dtype=complex)
    if not np.isfinite(u).all():
        raise NumericContractError("unitary has non-finite entries")
    n = _operator_ququats(u, "unitary")
    if np.max(np.abs(u.conj().T @ u - np.eye(2**n))) > tolerances.algebra:
        raise NumericContractError("input is not unitary within tolerance")
    return _kraus_gate([u], n, n, TRACE_PRESERVING)


def gate_from_kraus(kraus: KrausSet | list | tuple) -> GateMatrix:
    """Gate of a completely positive map given by Kraus operators.

    Kind is set from the completeness test; trace-increasing sets are
    rejected.  A single unitary operator reproduces
    :func:`gate_from_unitary` exactly.
    """
    if not isinstance(kraus, KrausSet):
        kraus = KrausSet(tuple(kraus))
    _check_gate_size(max(kraus.n_in, kraus.n_out), "Kraus set")
    return _kraus_gate(kraus.ops, kraus.n_in, kraus.n_out, kraus.kind())


@dataclass(frozen=True)
class Measurement:
    """Frozen projectors P_k on n ququats, certified by :func:`measurement`, with
    the kind and row 0 of each branch gate rho -> P_k rho P_k: ``rows @ P``
    gives every branch probability without building a gate."""

    n: int
    projectors: tuple[np.ndarray, ...]
    kinds: tuple[str, ...]
    rows: np.ndarray

    def gate(self, k: int | None = None) -> GateMatrix:
        """The branch gate of P_k, or with ``None`` the channel rho -> sum_k P_k rho P_k
        of a complete family, through one Pauli transfer."""
        if k is None:
            return _kraus_gate(self.projectors, self.n, self.n, TRACE_PRESERVING)
        return _kraus_gate([self.projectors[k]], self.n, self.n, self.kinds[k])


def measurement(projectors) -> Measurement:
    """The projectors as a :class:`Measurement`, refused unless they form one.

    Each must be a square operator of side 2**n, n >= 1, sized as every
    other operator is, and a Hermitian idempotent; all must be of one size,
    and each pair must be orthogonal.  Each kind is then read off P^dagger P
    as in :func:`gate_from_kraus`, refusing a non-finite P and a
    trace-increasing P^dagger P, which P P = P within tolerance allows.
    """
    projectors = [np.asarray(p, dtype=complex) for p in projectors]
    if not projectors:
        raise NumericContractError("need at least one projector")
    tol = tolerances.algebra
    sizes = []
    for i, p in enumerate(projectors):
        sizes.append(_operator_ququats(p, f"projector {i}"))
        if np.max(np.abs(p - p.conj().T)) > tol or np.max(np.abs(p @ p - p)) > tol:
            raise NumericContractError(f"projector {i} is not Hermitian idempotent")
    n, d = sizes[0], len(projectors[0])
    for i, p in enumerate(projectors):
        if len(p) != d:
            raise NumericContractError(
                f"projector {i} is {len(p)}x{len(p)}, projector 0 is {d}x{d}"
            )
    for i in range(len(projectors)):
        for j in range(i + 1, len(projectors)):
            if np.max(np.abs(projectors[i] @ projectors[j])) > tol:
                raise NumericContractError(f"projectors {i} and {j} are not orthogonal")
    squares = np.stack([p.conj().T @ p for p in projectors])
    if not np.isfinite(squares).all():
        # NaN passes every tolerance comparison above
        raise NumericContractError("Kraus operators have non-finite entries")
    kinds = tuple(map(_completeness_kind, squares))
    # row 0 of the gate of {A} is 2**-n Tr(sigma_nu A^dagger A): one transfer gives all
    rows = np.ascontiguousarray(_pauli_transfer(squares, n).real.T) / 2**n
    for row, kind in zip(rows, kinds):
        if kind == TRACE_PRESERVING:
            # as in _kraus_gate: the certified row is pinned exactly
            _pin_row0(row)
    return Measurement(n, tuple(map(_frozen, projectors)), kinds, _frozen(rows))


def measurement_gates(projectors) -> list[GateMatrix]:
    """Trace-decreasing gates E(k)[mu, nu] = 2**-n Tr(sigma_mu P_k sigma_nu P_k).

    Each projector must be Hermitian idempotent; pairwise orthogonality is
    enforced.  If the family is complete the gate matrices sum to a
    trace-preserving gate.
    """
    m = measurement(projectors)
    return [m.gate(k) for k in range(len(m.projectors))]


def _branch_probabilities(
    rows: np.ndarray, pvec: PauliVector, targets: tuple[int, ...] | None = None
) -> list[float]:
    """The probability ``row @ x`` of each row of :attr:`Measurement.rows`.

    x is the state on the ququats ``targets`` with every other digit 0: a
    row 0 tensored with the identity elsewhere reads only those entries.
    ``None`` is the whole register, where x is P itself.
    """
    k = _exponent(rows.shape[1], 4)
    order, _ = _target_axes(targets, pvec.n, k, k)
    x = pvec.P.reshape((4,) * pvec.n).transpose(order).reshape(rows.shape[1], -1)[:, 0]
    return [float(row @ x) for row in rows]


@functools.lru_cache(maxsize=1024)
def _target_axes(
    targets: tuple[int, ...] | None, n: int, n_in: int, n_out: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Axis orders that place a gate of order (n_in, n_out) on ``targets`` of n ququats.

    Returns ``(order, inverse)``: ``order`` lists the targets, then the
    other positions in increasing order, and ``inverse`` moves the axes
    of the result back.  ``None`` is the whole register in its own order.
    Raises on a placement a circuit cannot hold; only valid placements
    are cached.
    """
    if targets is None:
        if n_in != n:
            raise NumericContractError(f"gate expects n={n_in}, state has n={n}")
        return tuple(range(n)), tuple(range(n_out))
    if n_in != n_out:
        raise NumericContractError("only square gates can be embedded in a circuit")
    if len(targets) != n_in:
        raise NumericContractError(f"gate acts on {n_in} ququats, got targets {targets}")
    if len(set(targets)) != n_in or any(not 0 <= t < n for t in targets):
        raise NumericContractError(f"targets {targets} invalid for n={n}")
    order = targets + tuple(p for p in range(n) if p not in targets)
    return order, tuple(sorted(range(n), key=order.__getitem__))


def _apply_local(gate: GateMatrix, pvec: PauliVector, targets) -> np.ndarray:
    """E @ P with E on the ququats ``targets`` of P and the identity on the rest.

    P is viewed with one axis of 4 per ququat; the target axes move to
    the front, one product with E acts on them, and the axes move back.
    The result equals ``embed_gate(gate, targets, n).entries @ P`` without
    forming the 4**n x 4**n matrix.
    """
    n = pvec.n
    if targets is not None:
        targets = tuple(targets)
    order, inverse = _target_axes(targets, n, gate.n_in, gate.n_out)
    x = pvec.P.reshape((4,) * n).transpose(order).reshape(gate.entries.shape[1], -1)
    out = gate.entries @ x
    return out.reshape((4,) * len(inverse)).transpose(inverse).reshape(-1)


def apply_linear(gate: GateMatrix, pvec: PauliVector, *, targets=None) -> PauliVector:
    """Apply a trace-preserving gate: P' = E @ P.

    With ``targets`` the square gate acts on those ququats of P, in
    order, and the identity on the others.
    """
    if gate.kind != TRACE_PRESERVING:
        raise NumericContractError(
            "apply_linear requires a trace-preserving gate; use apply_nonlinear"
        )
    out = _apply_local(gate, pvec, targets)
    if abs(out[0] - 1.0) > tolerances.algebra:
        raise NumericContractError(f"trace-preserving gate produced P[0]={out[0]}")
    return PauliVector(pvec.n + gate.n_out - gate.n_in, out)


def apply_nonlinear(
    gate: GateMatrix, pvec: PauliVector, *, targets=None
) -> tuple[PauliVector, float]:
    """Apply a (trace-decreasing) gate with renormalization.

    Returns the renormalized state and the outcome probability
    p = (E @ P)[0].  Raises :class:`ZeroProbabilityError` when p vanishes
    and :class:`NumericContractError` when it exceeds 1.  ``targets``
    places the gate as in :func:`apply_linear`.
    """
    out = _apply_local(gate, pvec, targets)
    p = float(out[0])
    if p < tolerances.algebra:
        raise ZeroProbabilityError(f"outcome probability {p:.3e} is not positive")
    if p > 1.0 + tolerances.algebra:
        raise NumericContractError(f"outcome probability {p} exceeds 1")
    return PauliVector(pvec.n + gate.n_out - gate.n_in, out / p), p


def compose(g2: GateMatrix, g1: GateMatrix) -> GateMatrix:
    """Gate of the composition: g1 first, then g2 (matrix product g2 @ g1)."""
    if g1.n_out != g2.n_in:
        raise NumericContractError(
            f"shape mismatch: first gate outputs n={g1.n_out}, second expects n={g2.n_in}"
        )
    entries = g2.entries @ g1.entries
    return GateMatrix(g1.n_in, g2.n_out, entries, classify_kind(entries))


def tensor_gates(ga: GateMatrix, gb: GateMatrix) -> GateMatrix:
    """Kronecker product acting as ga on the leading (big-endian) indices."""
    _check_gate_size(max(ga.n_in + gb.n_in, ga.n_out + gb.n_out), "tensor product")
    entries = np.kron(ga.entries, gb.entries)
    return GateMatrix(ga.n_in + gb.n_in, ga.n_out + gb.n_out, entries, classify_kind(entries))


def adjoint_gate(gate: GateMatrix) -> GateMatrix:
    """Gate of the adjoint superoperator; matrices are transposes.

    For unitary-derived gates the adjoint is the inverse.  The adjoint of
    a trace-decreasing gate can be trace-increasing, in which case the
    result is classified ``general``.
    """
    if not gate.square:
        raise NumericContractError("adjoint requires a square gate")
    entries = gate.entries.T
    return GateMatrix(gate.n_in, gate.n_out, entries, classify_kind(entries))


def choi_matrix(gate: GateMatrix) -> np.ndarray:
    """Choi matrix J = sum_ij E(|i><j|) kron |i><j|; PSD iff the map is CP.

    Closed form: J = 2**-n_out sum_{mu nu} E[mu, nu] sigma_mu kron sigma_nu^T,
    output factor leading.  Over the flattened bases, M = B_out^T E B_in
    holds J[(a, i), (b, k)] at M[(a, b), (k, i)]; both basis products go
    through ``liouville._basis_product``, E B_in as (B_in^T E^T)^T.  The
    result is symmetrized as (J + J^dagger) / 2.  The identity gate
    yields 2**n times the maximally entangled projector.  Gates built from
    Kraus sets always pass the PSD test.
    """
    d_in = 2**gate.n_in
    d_out = 2**gate.n_out
    # j is rebound at each stage, so fewer full-size arrays are alive at once
    j = _basis_product(gate.entries.T, gate.n_in, transpose=True).T
    j = _basis_product(j, gate.n_out, transpose=True)
    j = j.reshape(d_out, d_out, d_in, d_in).transpose(0, 3, 1, 2).reshape(d_out * d_in, -1)
    j /= d_out
    jh = j.conj().T
    resid = float(np.max(np.abs(j - jh)))
    if resid > tolerances.algebra:
        raise NumericContractError(f"Choi matrix not Hermitian: residual {resid:.3e}")
    j += jh
    j /= 2
    return j


@dataclass(frozen=True)
class GateReport:
    """Classification flags with the measured quantities behind them."""

    real: bool
    trace_preserving: bool
    trace_decreasing: bool
    unital: bool
    orthogonal: bool
    completely_positive: bool
    row0_deviation: float
    row0_sq_sum: float
    min_choi_eigenvalue: float
    t_norm: float


def analyze_gate(gate: GateMatrix) -> GateReport:
    """Test a gate against the superoperator requirements.

    ``trace_decreasing`` reports the sufficient bound sum_mu E[0, mu]**2
    <= 1 (it does not prove trace-increase when False).  Complete
    positivity is certified by the Choi eigendecomposition.
    """
    tol = tolerances.algebra
    e = gate.entries
    row0_dev = _row0_deviation(e[0])
    row0_sq = float(e[0] @ e[0])
    t_norm = float(np.linalg.norm(e[1:, 0]))
    unital = _row0_deviation(e[:, 0]) <= tol
    ortho = (
        np.max(np.abs(e @ e.T - np.eye(e.shape[0]))) <= tol
        and np.max(np.abs(e.T @ e - np.eye(e.shape[1]))) <= tol
    )
    min_choi = float(np.linalg.eigvalsh(choi_matrix(gate))[0])
    return GateReport(
        real=bool(np.isrealobj(e)),
        trace_preserving=row0_dev <= tol,
        trace_decreasing=row0_sq <= 1.0 + tol,
        unital=unital,
        orthogonal=bool(ortho),
        completely_positive=min_choi >= -tolerances.psd,
        row0_deviation=row0_dev,
        row0_sq_sum=row0_sq,
        min_choi_eigenvalue=min_choi,
        t_norm=t_norm,
    )


@dataclass(frozen=True)
class ReversibilityCertificate:
    """Result of the subspace reversibility test.

    ``m`` collects the candidate constants from P A_k^dag A_j P =
    M[j, k] P; ``mu_sq = Tr M`` is the constant channel norm on the
    subspace; ``residual`` is the worst deviation from the defining
    relation.
    """

    reversible: bool
    m: np.ndarray
    mu_sq: float
    residual: float


def check_reversible(kraus: KrausSet | list | tuple, p_m: np.ndarray) -> ReversibilityCertificate:
    """Test reversibility of a Kraus channel on the range of projector P.

    The candidate matrix M is extracted by the trace ratio
    M[j, k] = Tr(P A_k^dag A_j P) / Tr(P), then residual-checked against
    P A_k^dag A_j P = M[j, k] P.  Reversible iff the residual vanishes and
    M is PSD.
    """
    tol = tolerances.algebra
    if not isinstance(kraus, KrausSet):
        kraus = KrausSet(tuple(kraus))
    p = np.asarray(p_m, dtype=complex)
    if not np.isfinite(p).all():
        # every tolerance comparison below would pass NaN
        raise NumericContractError("P_M has non-finite entries")
    d = 2**kraus.n_in
    if p.shape != (d, d):
        raise NumericContractError(f"P_M must be {d}x{d} like the Kraus input, got {p.shape}")
    if np.max(np.abs(p - p.conj().T)) > tol or np.max(np.abs(p @ p - p)) > tol:
        raise NumericContractError("P_M is not a Hermitian idempotent projector")
    tr_p = float(np.trace(p).real)
    if tr_p <= tol:
        raise NumericContractError("P_M is the zero projector")
    ops = kraus.ops
    m = np.zeros((len(ops), len(ops)), dtype=complex)
    residual = 0.0
    for j, aj in enumerate(ops):
        for k, ak in enumerate(ops):
            block = p @ ak.conj().T @ aj @ p
            m[j, k] = np.trace(block) / tr_p
            residual = max(residual, float(np.max(np.abs(block - m[j, k] * p))))
    herm = float(np.max(np.abs(m - m.conj().T)))
    min_eig = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
    reversible = residual <= tol and herm <= tol and min_eig >= -tolerances.psd
    return ReversibilityCertificate(
        reversible=reversible, m=m, mu_sq=float(np.trace(m).real), residual=residual
    )


def check_reversible_superop(gate: GateMatrix, gate_m: GateMatrix) -> tuple[bool, float]:
    """Gate-matrix reversibility test: gM E^T E gM = gamma gM.

    ``gate_m`` must be the idempotent symmetric gate of rho -> P rho P.
    Returns the verdict and the best-fit gamma (ratio of Frobenius inner
    products).
    """
    tol = tolerances.algebra
    gm = gate_m.entries
    if np.max(np.abs(gm @ gm - gm)) > tol or np.max(np.abs(gm - gm.T)) > tol:
        raise NumericContractError("projection gate is not symmetric idempotent")
    x = gm @ gate.entries.T @ gate.entries @ gm
    denom = float(np.sum(gm * gm))
    if denom <= tol:
        raise NumericContractError("projection gate is zero")
    gamma = float(np.sum(x * gm) / denom)
    residual = float(np.max(np.abs(x - gamma * gm)))
    return residual <= tol, gamma
