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

from dataclasses import dataclass, field

import numpy as np

from .config import tolerances
from .errors import NumericContractError, ZeroProbabilityError
from .liouville import PauliVector, _frozen, _pauli_transfer, pauli_basis

__all__ = [
    "GateMatrix",
    "KrausSet",
    "GateReport",
    "ReversibilityCertificate",
    "classify_kind",
    "gate_from_matrix",
    "gate_from_unitary",
    "gate_from_kraus",
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
    be trace-increasing).  ``cp_certified`` is True only for gates whose
    construction guarantees complete positivity (unitary, Kraus,
    measurement); matrices supplied directly are unverified until
    :func:`analyze_gate` is run.
    """

    n_in: int
    n_out: int
    entries: np.ndarray
    kind: str
    cp_certified: bool = False

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
        rows, cols = shape
        n_out = int(round(np.log2(rows)))
        n_in = int(round(np.log2(cols)))
        if (2**n_out, 2**n_in) != shape:
            raise NumericContractError(f"Kraus operators must be 2**m x 2**n, got {shape}")
        for a in ops:
            a.setflags(write=False)
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "n_in", n_in)
        object.__setattr__(self, "n_out", n_out)

    def completeness(self) -> np.ndarray:
        """The operator sum_j A_j^dagger A_j (identity iff trace-preserving)."""
        return sum(a.conj().T @ a for a in self.ops)

    def kind(self, tol: float | None = None) -> str:
        tol = tolerances.algebra if tol is None else tol
        s = self.completeness()
        if np.max(np.abs(s - np.eye(s.shape[0]))) <= tol:
            return TRACE_PRESERVING
        top = float(np.linalg.eigvalsh(s)[-1])
        if top <= 1.0 + tol:
            return TRACE_DECREASING
        raise NumericContractError(
            f"trace-increasing Kraus set: max eigenvalue of sum A^dag A is {top:.6g}"
        )


def classify_kind(entries: np.ndarray, tol: float | None = None) -> str:
    """Classify a raw gate matrix by its row zero."""
    tol = tolerances.algebra if tol is None else tol
    row0 = np.asarray(entries)[0]
    delta = np.zeros_like(row0)
    delta[0] = 1.0
    if np.max(np.abs(row0 - delta)) <= tol:
        return TRACE_PRESERVING
    if float(row0 @ row0) <= 1.0 + tol:
        return TRACE_DECREASING
    return GENERAL


def gate_from_matrix(entries, kind: str | None = None, tol: float | None = None) -> GateMatrix:
    """Wrap a user-supplied real matrix as a gate (CP left unverified)."""
    entries = np.asarray(entries, dtype=float)
    rows, cols = entries.shape
    n_out = int(round(np.log2(rows) / 2))
    n_in = int(round(np.log2(cols) / 2))
    if (4**n_out, 4**n_in) != entries.shape:
        raise NumericContractError(f"gate matrix must be 4**m x 4**n, got {entries.shape}")
    if kind is None:
        kind = classify_kind(entries, tol)
    return GateMatrix(n_in, n_out, entries, kind, cp_certified=False)


def _kraus_transfer(ops, n_in: int, n_out: int, tol: float, snap_row0: bool = False) -> np.ndarray:
    bin_ = pauli_basis(n_in)
    images = sum(a @ bin_ @ a.conj().T for a in ops)
    acc = _pauli_transfer(images, n_out) / 2**n_in
    resid = float(np.max(np.abs(acc.imag)))
    if resid > tol:
        raise NumericContractError(f"gate entries not real: max imaginary part {resid:.3e}")
    entries = acc.real
    if snap_row0:
        # trace preservation is certified by the completeness test; pin the
        # contractual row exactly instead of keeping ~1e-16 residue
        delta = np.zeros(entries.shape[1])
        delta[0] = 1.0
        if np.max(np.abs(entries[0] - delta)) > tol:
            raise NumericContractError("trace-preserving construction produced a bad row 0")
        entries[0] = delta
    return entries


def gate_from_unitary(u: np.ndarray, tol: float | None = None) -> GateMatrix:
    """Gate of a unitary map rho -> U rho U^dagger.

    The result is trace-preserving, unital and orthogonal, with
    E[mu, nu] = 2**-n Tr(sigma_mu U sigma_nu U^dagger).
    """
    tol = tolerances.algebra if tol is None else tol
    u = np.asarray(u, dtype=complex)
    if not np.isfinite(u).all():
        raise NumericContractError("unitary has non-finite entries")
    d = u.shape[0]
    n = int(round(np.log2(d)))
    if u.shape != (d, d) or 2**n != d:
        raise NumericContractError(f"unitary must be square 2**n x 2**n, got {u.shape}")
    if np.max(np.abs(u.conj().T @ u - np.eye(d))) > tol:
        raise NumericContractError("input is not unitary within tolerance")
    entries = _kraus_transfer([u], n, n, tol, snap_row0=True)
    return GateMatrix(n, n, entries, TRACE_PRESERVING, cp_certified=True)


def gate_from_kraus(kraus: KrausSet | list | tuple, tol: float | None = None) -> GateMatrix:
    """Gate of a completely positive map given by Kraus operators.

    Kind is set from the completeness test; trace-increasing sets are
    rejected.  A single unitary operator reproduces
    :func:`gate_from_unitary` exactly.
    """
    tol = tolerances.algebra if tol is None else tol
    if not isinstance(kraus, KrausSet):
        kraus = KrausSet(tuple(kraus))
    kind = kraus.kind(tol)
    entries = _kraus_transfer(
        kraus.ops, kraus.n_in, kraus.n_out, tol, snap_row0=kind == TRACE_PRESERVING
    )
    return GateMatrix(kraus.n_in, kraus.n_out, entries, kind, cp_certified=True)


def measurement_gates(projectors, tol: float | None = None) -> list[GateMatrix]:
    """Trace-decreasing gates E(k)[mu, nu] = 2**-n Tr(sigma_mu P_k sigma_nu P_k).

    Each projector must be Hermitian idempotent; pairwise orthogonality is
    enforced.  If the family is complete the gate matrices sum to a
    trace-preserving gate.
    """
    tol = tolerances.algebra if tol is None else tol
    projectors = [np.asarray(p, dtype=complex) for p in projectors]
    if not projectors:
        raise NumericContractError("need at least one projector")
    for i, p in enumerate(projectors):
        if np.max(np.abs(p - p.conj().T)) > tol or np.max(np.abs(p @ p - p)) > tol:
            raise NumericContractError(f"projector {i} is not Hermitian idempotent")
    for i in range(len(projectors)):
        for j in range(i + 1, len(projectors)):
            if np.max(np.abs(projectors[i] @ projectors[j])) > tol:
                raise NumericContractError(f"projectors {i} and {j} are not orthogonal")
    return [gate_from_kraus([p], tol) for p in projectors]


def apply_linear(gate: GateMatrix, pvec: PauliVector, tol: float | None = None) -> PauliVector:
    """Apply a trace-preserving gate: P' = E @ P."""
    tol = tolerances.algebra if tol is None else tol
    if gate.kind != TRACE_PRESERVING:
        raise NumericContractError(
            "apply_linear requires a trace-preserving gate; use apply_nonlinear"
        )
    if gate.n_in != pvec.n:
        raise NumericContractError(f"gate expects n={gate.n_in}, state has n={pvec.n}")
    out = gate.entries @ pvec.P
    if abs(out[0] - 1.0) > tol:
        raise NumericContractError(f"trace-preserving gate produced P[0]={out[0]}")
    return PauliVector(gate.n_out, out)


def apply_nonlinear(
    gate: GateMatrix, pvec: PauliVector, tol: float | None = None
) -> tuple[PauliVector, float]:
    """Apply a (trace-decreasing) gate with renormalization.

    Returns the renormalized state and the outcome probability
    p = (E @ P)[0].  Raises :class:`ZeroProbabilityError` when p vanishes.
    """
    tol = tolerances.algebra if tol is None else tol
    if gate.n_in != pvec.n:
        raise NumericContractError(f"gate expects n={gate.n_in}, state has n={pvec.n}")
    out = gate.entries @ pvec.P
    p = float(out[0])
    if p < tol:
        raise ZeroProbabilityError(f"outcome probability {p:.3e} is not positive")
    if p > 1.0 + tol:
        raise NumericContractError(f"outcome probability {p} exceeds 1")
    return PauliVector(gate.n_out, out / p), p


def compose(g2: GateMatrix, g1: GateMatrix) -> GateMatrix:
    """Gate of the composition: g1 first, then g2 (matrix product g2 @ g1)."""
    if g1.n_out != g2.n_in:
        raise NumericContractError(
            f"shape mismatch: first gate outputs n={g1.n_out}, second expects n={g2.n_in}"
        )
    entries = g2.entries @ g1.entries
    kinds = {g1.kind, g2.kind}
    if kinds == {TRACE_PRESERVING}:
        kind = TRACE_PRESERVING
    elif GENERAL in kinds:
        kind = classify_kind(entries)
    else:
        kind = TRACE_DECREASING
    return GateMatrix(g1.n_in, g2.n_out, entries, kind, g1.cp_certified and g2.cp_certified)


def tensor_gates(ga: GateMatrix, gb: GateMatrix) -> GateMatrix:
    """Kronecker product acting as ga on the leading (big-endian) indices."""
    entries = np.kron(ga.entries, gb.entries)
    if ga.kind == gb.kind == TRACE_PRESERVING:
        kind = TRACE_PRESERVING
    elif GENERAL in (ga.kind, gb.kind):
        kind = classify_kind(entries)
    else:
        kind = TRACE_DECREASING
    return GateMatrix(
        ga.n_in + gb.n_in, ga.n_out + gb.n_out, entries, kind, ga.cp_certified and gb.cp_certified
    )


def adjoint_gate(gate: GateMatrix) -> GateMatrix:
    """Gate of the adjoint superoperator; matrices are transposes.

    For unitary-derived gates the adjoint is the inverse.  The adjoint of
    a trace-decreasing gate can be trace-increasing, in which case the
    result is classified ``general``.
    """
    if not gate.square:
        raise NumericContractError("adjoint requires a square gate")
    entries = gate.entries.T
    return GateMatrix(gate.n_in, gate.n_out, entries, classify_kind(entries), gate.cp_certified)


def choi_matrix(gate: GateMatrix, tol: float | None = None) -> np.ndarray:
    """Choi matrix J = sum_ij E(|i><j|) kron |i><j|; PSD iff the map is CP.

    Closed form: J = 2**-n_out sum_{mu nu} E[mu, nu] sigma_mu kron sigma_nu^T,
    output factor leading.  Over the flattened bases, M = B_out^T E B_in
    holds J[(a, i), (b, k)] at M[(a, b), (k, i)].  The identity gate
    yields 2**n times the maximally entangled projector.  Gates built from
    Kraus sets always pass the PSD test.
    """
    tol = tolerances.algebra if tol is None else tol
    d_in = 2**gate.n_in
    d_out = 2**gate.n_out
    bin_ = pauli_basis(gate.n_in).reshape(d_in**2, -1)
    bout = pauli_basis(gate.n_out).reshape(d_out**2, -1)
    m = bout.T @ (gate.entries @ bin_) / d_out
    j = m.reshape(d_out, d_out, d_in, d_in).transpose(0, 3, 1, 2).reshape(d_out * d_in, -1)
    resid = float(np.max(np.abs(j - j.conj().T)))
    if resid > tol:
        raise NumericContractError(f"Choi matrix not Hermitian: residual {resid:.3e}")
    return (j + j.conj().T) / 2


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


def analyze_gate(gate: GateMatrix, tol: float | None = None) -> GateReport:
    """Test a gate against the superoperator requirements.

    ``trace_decreasing`` reports the sufficient bound sum_mu E[0, mu]**2
    <= 1 (it does not prove trace-increase when False).  Complete
    positivity is certified by the Choi eigendecomposition.
    """
    tol = tolerances.algebra if tol is None else tol
    e = gate.entries
    delta_row = np.zeros(e.shape[1])
    delta_row[0] = 1.0
    row0_dev = float(np.max(np.abs(e[0] - delta_row)))
    row0_sq = float(e[0] @ e[0])
    delta_col = np.zeros(e.shape[0])
    delta_col[0] = 1.0
    t_norm = float(np.linalg.norm(e[1:, 0]))
    unital = float(np.max(np.abs(e[:, 0] - delta_col))) <= tol
    ortho = (
        np.max(np.abs(e @ e.T - np.eye(e.shape[0]))) <= tol
        and np.max(np.abs(e.T @ e - np.eye(e.shape[1]))) <= tol
    )
    min_choi = float(np.linalg.eigvalsh(choi_matrix(gate, tol))[0])
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


def check_reversible(
    kraus: KrausSet | list | tuple, p_m: np.ndarray, tol: float | None = None
) -> ReversibilityCertificate:
    """Test reversibility of a Kraus channel on the range of projector P.

    The candidate matrix M is extracted by the trace ratio
    M[j, k] = Tr(P A_k^dag A_j P) / Tr(P), then residual-checked against
    P A_k^dag A_j P = M[j, k] P.  Reversible iff the residual vanishes and
    M is PSD.
    """
    tol = tolerances.algebra if tol is None else tol
    if not isinstance(kraus, KrausSet):
        kraus = KrausSet(tuple(kraus))
    p = np.asarray(p_m, dtype=complex)
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


def check_reversible_superop(
    gate: GateMatrix, gate_m: GateMatrix, tol: float | None = None
) -> tuple[bool, float]:
    """Gate-matrix reversibility test: gM E^T E gM = gamma gM.

    ``gate_m`` must be the idempotent symmetric gate of rho -> P rho P.
    Returns the verdict and the best-fit gamma (ratio of Frobenius inner
    products).
    """
    tol = tolerances.algebra if tol is None else tol
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
