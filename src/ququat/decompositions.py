"""Structural decompositions of trace-preserving gate matrices.

Every trace-preserving gate is the block matrix [[1, 0], [T, R]]: an
affine translation T of the Bloch-block coefficients composed with a
linear block R.  The factorizations here work on R (SVD, polar, Euler
angles for single-ququat orthogonal blocks) and carry the translation as
a separate factor, so a gate splits into translation, orthogonal,
diagonal and symmetric building blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import tolerances
from .errors import NumericContractError
from .gates import GateMatrix, TRACE_PRESERVING, _gate_order, classify_kind, compose

__all__ = [
    "TranslationSplit",
    "GateSVD",
    "GatePolar",
    "EulerAngles",
    "split_translation",
    "translation_gate",
    "unital_gate",
    "svd_gate",
    "svd_rect_gate",
    "polar_gate",
    "euler_angles",
    "named_gate",
    "NAMED_GATES",
]


@dataclass(frozen=True)
class TranslationSplit:
    """Translation column T and unital block R of a TP gate."""

    t: np.ndarray
    r: np.ndarray

    def reassemble(self) -> GateMatrix:
        return _assemble(self.t, self.r)


def _assemble(t: np.ndarray | None, r: np.ndarray) -> GateMatrix:
    rows = r.shape[0] + 1
    cols = r.shape[1] + 1
    entries = np.zeros((rows, cols))
    entries[0, 0] = 1.0
    entries[1:, 1:] = r
    if t is not None:
        entries[1:, 0] = t
    n_out, n_in = _gate_order(entries.shape)
    return GateMatrix(n_in, n_out, entries, TRACE_PRESERVING)


def translation_gate(t: np.ndarray) -> GateMatrix:
    """Gate E(T, I): shifts the Bloch-block coefficients by T."""
    t = np.asarray(t, dtype=float)
    return _assemble(t, np.eye(t.shape[0]))


def unital_gate(r: np.ndarray) -> GateMatrix:
    """Gate E(0, R): unital block R, zero translation."""
    return _assemble(None, np.asarray(r, dtype=float))


def split_translation(gate: GateMatrix) -> TranslationSplit:
    """Extract (T, R) from a trace-preserving gate.

    The reassembled block matrix [[1, 0], [T, R]] equals the source
    exactly, and the group law E(T,R) E(T',R') = E(T + R T', R R') holds.
    """
    if classify_kind(gate.entries) != TRACE_PRESERVING:
        raise NumericContractError("operation requires a trace-preserving gate (row 0 = delta)")
    return TranslationSplit(t=gate.entries[1:, 0].copy(), r=gate.entries[1:, 1:].copy())


def _signed_svd(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD with a deterministic sign convention.

    Each left singular vector is flipped so its first entry of magnitude
    above 1e-12 is positive (the right vector flips with it), which pins
    the factors also when LAPACK's choice is sign-ambiguous.
    """
    u, s, vh = np.linalg.svd(r)
    u = u.copy()
    vh = vh.copy()
    for i in range(min(r.shape)):
        col = u[:, i]
        nz = np.nonzero(np.abs(col) > 1e-12)[0]
        if nz.size and col[nz[0]] < 0:
            u[:, i] = -col
            vh[i, :] = -vh[i, :]
    return u, s, vh


@dataclass(frozen=True)
class GateSVD:
    """Factors of E = T_part . U1 . D . U2 with D diagonal nonnegative."""

    u1: GateMatrix
    d: GateMatrix
    u2: GateMatrix
    t_part: GateMatrix
    singular_values: np.ndarray

    def reconstruct(self) -> GateMatrix:
        return compose(self.t_part, compose(self.u1, compose(self.d, self.u2)))


def svd_rect_gate(gate: GateMatrix) -> GateSVD:
    """Singular value decomposition of a TP gate of order (n, m).

    The unital block factors as R = U1 D U2 with orthogonal U1 (output
    side), orthogonal U2 (input side) and rectangular diagonal D holding
    p = min(4**n - 1, 4**m - 1) nonincreasing singular values; the
    translation factor sits on the output side.
    """
    split = split_translation(gate)
    u, s, vh = _signed_svd(split.r)
    d_block = np.zeros_like(split.r)
    d_block[: s.size, : s.size] = np.diag(s)
    return GateSVD(
        u1=unital_gate(u),
        d=_assemble(None, d_block),
        u2=unital_gate(vh),
        t_part=translation_gate(split.t),
        singular_values=s,
    )


def svd_gate(gate: GateMatrix) -> GateSVD:
    """SVD of a square TP gate (order (n, n) case of :func:`svd_rect_gate`)."""
    if not gate.square:
        raise NumericContractError("svd_gate requires a square gate; use svd_rect_gate")
    return svd_rect_gate(gate)


@dataclass(frozen=True)
class GatePolar:
    """Polar factors of the unital block: R = U S (right) or S U (left)."""

    orthogonal: GateMatrix
    symmetric: GateMatrix
    t_part: GateMatrix
    side: str

    def reconstruct(self) -> GateMatrix:
        if self.side == "right":
            inner = compose(self.orthogonal, self.symmetric)
        else:
            inner = compose(self.symmetric, self.orthogonal)
        return compose(self.t_part, inner)


def polar_gate(gate: GateMatrix, side: str = "right") -> GatePolar:
    """Polar decomposition of the unital block of a square TP gate.

    ``side='right'`` gives R = U S with S = sqrt(R^T R); ``side='left'``
    gives R = S' U with S' = sqrt(R R^T).  S is symmetric PSD; the
    translation part is carried separately.
    """
    if side not in ("right", "left"):
        raise NumericContractError(f"side must be 'left' or 'right', got {side!r}")
    if not gate.square:
        raise NumericContractError("polar_gate requires a square gate")
    split = split_translation(gate)
    u, s, vh = _signed_svd(split.r)
    ortho = u @ vh
    if side == "right":
        sym = vh.T @ np.diag(s) @ vh
    else:
        sym = u @ np.diag(s) @ u.T
    return GatePolar(
        orthogonal=unital_gate(ortho),
        symmetric=unital_gate(sym),
        t_part=translation_gate(split.t),
        side=side,
    )


@dataclass(frozen=True)
class EulerAngles:
    """Angles with U1(alpha) U2(theta) U1(beta) reproducing the source gate."""

    alpha: float
    theta: float
    beta: float

    def reconstruct(self) -> GateMatrix:
        return compose(
            named_gate("rot1", self.alpha),
            compose(named_gate("rot2", self.theta), named_gate("rot1", self.beta)),
        )


def euler_angles(gate: GateMatrix) -> EulerAngles:
    """Euler angles of a single-ququat orthogonal gate from SU(2).

    Requires a 4x4 trace-preserving unital gate with orthogonal Bloch
    block of determinant +1.  At the gimbal-degenerate angles theta in
    {0, pi} the split between alpha and beta is not unique; the canonical
    answer folds everything into alpha and reports beta = 0.
    """
    tol = tolerances.algebra
    if gate.entries.shape != (4, 4):
        raise NumericContractError("euler_angles requires a single-ququat gate")
    split = split_translation(gate)
    if np.abs(split.t).max() > tol:
        raise NumericContractError("euler_angles requires a unital gate")
    b = split.r
    if np.abs(b @ b.T - np.eye(3)).max() > tol:
        raise NumericContractError("Bloch block is not orthogonal")
    if np.linalg.det(b) < 0:
        raise NumericContractError("Bloch block has determinant -1 (not from SU(2))")
    sin_theta = math.hypot(b[0, 2], b[1, 2])
    cos_theta = b[2, 2]
    theta = math.atan2(sin_theta, cos_theta)
    if sin_theta <= tol:
        if cos_theta > 0:
            alpha = math.atan2(b[1, 0], b[0, 0])
            theta = 0.0
        else:
            alpha = math.atan2(-b[0, 1], -b[0, 0])
            theta = math.pi
        beta = 0.0
    else:
        alpha = math.atan2(b[1, 2], b[0, 2])
        beta = math.atan2(b[2, 1], -b[2, 0])
    return EulerAngles(alpha % (2 * math.pi), theta, beta % (2 * math.pi))


def _rot1(alpha: float) -> np.ndarray:
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array(
        [[1, 0, 0, 0], [0, c, -s, 0], [0, s, c, 0], [0, 0, 0, 1]], dtype=float
    )


def _rot2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array(
        [[1, 0, 0, 0], [0, c, 0, s], [0, 0, 1, 0], [0, -s, 0, c]], dtype=float
    )


def _pauli_gate(k: int) -> np.ndarray:
    d = -np.ones(4)
    d[0] = 1.0
    d[k] = 1.0
    return np.diag(d)


_HADAMARD = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0], [0, 1, 0, 0]], dtype=float
)

NAMED_GATES = (
    "rot1",
    "rot2",
    "reflect1",
    "reflect2",
    "reflect3",
    "inversion",
    "pauli_k",
    "hadamard",
    "not",
)

def named_gate(name: str, param: float | int | None = None) -> GateMatrix:
    """Single-ququat elementary gates by name.

    ``rot1``/``rot2`` take an angle, ``pauli_k`` takes k in {1,2,3};
    the reflections, ``inversion``, ``hadamard`` and ``not`` take no
    parameter.  The reflection identities hold at angle pi:
    reflect3 = rot1(pi) . inversion, reflect2 = rot2(pi) . inversion and
    reflect1 = rot1(pi) . rot2(pi) . inversion.  The reflections and the
    inversion are valid gate matrices but not completely positive maps;
    the other gates come from unitaries.
    """
    if name == "rot1":
        if param is None:
            raise NumericContractError("rot1 requires an angle")
        entries = _rot1(float(param))
    elif name == "rot2":
        if param is None:
            raise NumericContractError("rot2 requires an angle")
        entries = _rot2(float(param))
    elif name == "reflect1":
        entries = np.diag([1.0, -1.0, 1.0, 1.0])
    elif name == "reflect2":
        entries = np.diag([1.0, 1.0, -1.0, 1.0])
    elif name == "reflect3":
        entries = np.diag([1.0, 1.0, 1.0, -1.0])
    elif name == "inversion":
        entries = np.diag([1.0, -1.0, -1.0, -1.0])
    elif name == "pauli_k":
        if param is None:
            raise NumericContractError("pauli_k requires k")
        if param not in (1, 2, 3):
            # checked before int() would truncate a k such as 2.5
            raise NumericContractError("pauli_k takes k in {1, 2, 3}")
        entries = _pauli_gate(int(param))
    elif name == "hadamard":
        entries = _HADAMARD
    elif name == "not":
        entries = np.diag([1.0, 1.0, -1.0, -1.0])
    else:
        raise NumericContractError(f"unknown gate name {name!r}")
    assert classify_kind(entries) == TRACE_PRESERVING
    return GateMatrix(1, 1, entries, TRACE_PRESERVING)
