"""Circuit documents: parse gate sequences from JSON and fold them over states.

A circuit fixes the ququat count n and lists steps, and every step is one
gate on some of the n ququats.  Gate-bearing steps hold one of: a named
single-ququat gate, a unitary, a Kraus set, a Lindblad model with an
evolution time, a raw gate matrix, or a classical table to synthesize.
Measurement steps hold a projector family and optionally a
post-selection index.  With post-selection the step's gate is the
trace-decreasing rho -> P rho P of the selected projector, applied with
renormalisation; without it the family must be complete, and the gate is
the trace-preserving nonselective channel rho -> sum_k P_k rho P_k.  A
measurement step also keeps row 0 of each branch gate, from which the
branch probabilities are read as ``ququat measure`` reads them; the
post-selected branch's is the probability the state was renormalised
by.  Gates are constructed and checked eagerly, so schema and contract
failures surface at parse time; a step is certified (its
:class:`GateReport` computed) only when its ``report`` is first read.

Every step keeps its gate on its own k ququats together with its
targets; it is certified and applied there, and the identity on the
other n - k ququats is never written out as a 4**n x 4**n matrix.
:func:`embed_gate` still builds that matrix, for callers that want it and
as the reference the local path is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .config import MAX_QUQUATS, MAX_RUN_ENTRIES, tolerances
from .decompositions import NAMED_GATES, named_gate
from .errors import NumericContractError, QuquatError, SchemaError
from .gates import (
    GateMatrix,
    GateReport,
    TRACE_PRESERVING,
    _branch_probabilities,
    _check_gate_size,
    _row0_deviation,
    _target_axes,
    analyze_gate,
    apply_linear,
    apply_nonlinear,
    gate_from_kraus,
    gate_from_unitary,
)
from .liouville import PauliVector, ValidationReport, _validate_pvecs
from .mvlogic import synthesize_quantum
from . import serialization as sz

__all__ = [
    "Circuit",
    "CircuitStep",
    "RunRecord",
    "StepRecord",
    "embed_gate",
    "parse_circuit",
    "run_circuit",
]


def embed_gate(gate: GateMatrix, targets, n: int) -> GateMatrix:
    """Extend a square k-ququat gate to n ququats, acting on ``targets``.

    The remaining positions carry the identity; ``targets`` gives the
    circuit positions of the gate's own indices in order.
    """
    targets = tuple(int(t) for t in targets)
    order, _ = _target_axes(targets, n, gate.n_in, gate.n_out)
    k = gate.n_in
    _check_gate_size(n, "embedded gate")
    if k == n and targets == tuple(range(n)):
        return gate
    big = np.kron(gate.entries, np.eye(4 ** (n - k)))
    # perm[a] = index into `big` whose digits are a's digits read off in
    # `order`; then E_full = big[perm][:, perm].
    shifts = [2 * (n - 1 - p) for p in range(n)]
    idx = np.arange(4**n)
    perm = np.zeros(4**n, dtype=np.int64)
    for pos_in_big, p in enumerate(order):
        digit = (idx >> shifts[p]) & 3
        perm |= digit << (2 * (n - 1 - pos_in_big))
    entries = big[np.ix_(perm, perm)]
    return GateMatrix(n, n, entries, gate.kind)


@dataclass(frozen=True)
class CircuitStep:
    """One parsed step: a local k-ququat gate on ``targets``.

    ``gate`` is constructed and checked at parse time.  A step with
    ``post_select`` applies it with renormalisation; any other step is
    trace-preserving.  ``rows`` holds row 0 of each branch gate of a
    measurement step, frozen, and is ``None`` for a linear step.
    ``report`` certifies the gate on first read, with the tolerances then
    in force, and keeps its :class:`GateReport`.  Tensoring with the
    identity keeps every flag and ``row0_deviation``, ``row0_sq_sum`` and
    ``t_norm``; ``min_choi_eigenvalue`` is the local gate's.  The Choi
    spectrum of the embedded n-ququat gate is the local one scaled by
    2**(n - k), plus zeros.
    """

    gate: GateMatrix
    targets: tuple[int, ...]
    post_select: int | None = None
    rows: np.ndarray | None = None

    @cached_property
    def report(self) -> GateReport:
        return analyze_gate(self.gate)


@dataclass(frozen=True)
class Circuit:
    n: int
    steps: tuple[CircuitStep, ...]


@dataclass(frozen=True)
class StepRecord:
    """State after a step, with its validation; branch probabilities for measurement steps."""

    state: PauliVector
    probabilities: tuple[float, ...] | None
    probability: float | None
    cumulative_probability: float
    validation: ValidationReport


@dataclass(frozen=True)
class RunRecord:
    steps: tuple[StepRecord, ...]
    cumulative_probability: float

    @property
    def final_state(self) -> PauliVector:
        return self.steps[-1].state


_GATE_KEYS = ("named", "unitary", "kraus", "lindblad", "gate", "table")


def _build_step_gate(step: dict, path: str) -> GateMatrix:
    present = [k for k in _GATE_KEYS if k in step]
    if len(present) != 1:
        raise SchemaError(f"{path}: expected exactly one of {_GATE_KEYS}, got {present}")
    key = present[0]
    if key == "named":
        name = step["named"]
        if name not in NAMED_GATES:
            raise SchemaError(f"{path}.named: unknown gate name {name!r}")
        param = step.get("param")
        if param is not None:
            param = sz._decode_number(param, f"{path}.param")
        return named_gate(name, param)
    if key == "unitary":
        return gate_from_unitary(sz.decode_complex_matrix(step["unitary"], f"{path}.unitary"))
    if key == "kraus":
        return gate_from_kraus(sz.kraus_from_json(step["kraus"], f"{path}.kraus"))
    if key == "lindblad":
        return sz.lindblad_from_json(step["lindblad"], f"{path}.lindblad")[0]
    if key == "gate":
        return sz.gate_from_json(step["gate"], f"{path}.gate")
    return synthesize_quantum(sz.table_from_json(step["table"], f"{path}.table"))


def _decode_targets(step: dict, n_in: int, n_out: int, n: int, path: str) -> tuple[int, ...]:
    """The targets of a step's gate of order (n_in, n_out), checked against the circuit size.

    The check caches the step's axis order, so ``run_circuit`` does not
    work it out again for every state.
    """
    if "targets" in step:
        raw = step["targets"]
        targets = tuple(sz._decode_list(raw, f"{path}.targets", partial(sz._decode_int, minimum=0)))
    elif n_in > n:
        raise NumericContractError(f"{path}: gate needs {n_in} ququats, circuit has {n}")
    else:
        targets = tuple(range(n_in))
    _target_axes(targets, n, n_in, n_out)
    return targets


def _parse_step(raw, path: str, n: int) -> CircuitStep:
    raw = sz._expect(raw, dict, path, "an object")
    if "measure" in raw:
        spec = sz._expect(raw["measure"], dict, f"{path}.measure", "an object")
        m, post = sz.measurement_from_json(
            sz._expect_key(spec, "projectors", f"{path}.measure"),
            raw.get("post_select"),
            f"{path}.measure.projectors",
            f"{path}.post_select",
        )
        targets = _decode_targets(raw, m.n, m.n, n, path)
        if post is not None:
            return CircuitStep(m.gate(post), targets, post, m.rows)
        # the probabilities sum to 1 for every state
        if _row0_deviation(m.rows.sum(axis=0)) > tolerances.algebra:
            raise NumericContractError(f"{path}: projector family is incomplete; give post_select")
        return CircuitStep(m.gate(), targets, rows=m.rows)
    gate = _build_step_gate(raw, path)
    targets = _decode_targets(raw, gate.n_in, gate.n_out, n, path)
    if gate.kind != TRACE_PRESERVING:
        raise NumericContractError(f"{path}: non-measurement steps need a trace-preserving gate")
    return CircuitStep(gate, targets)


def parse_circuit(doc) -> Circuit:
    """Validate a circuit document and construct all gates eagerly.

    Steps are not certified here; each step's ``report`` is computed when
    it is first read.
    """
    doc = sz._expect(doc, dict, "circuit", "an object")
    n = sz._decode_int(sz._expect_key(doc, "n", "circuit"), "circuit.n", 1)
    if n > MAX_QUQUATS:
        # no initial state of more ququats can be decoded, and each step's
        # targets are checked against range(n)
        raise SchemaError(f"circuit.n: expected an integer <= {MAX_QUQUATS}, got {n}")
    raw_steps = sz._expect_key(doc, "steps", "circuit")
    if isinstance(raw_steps, list) and raw_steps:
        # every state of the run is kept and written: refused before any gate is built
        states = len(raw_steps) + 1
        if states * 4 ** max(n, 4) > MAX_RUN_ENTRIES:
            raise SchemaError(
                f"steps: {states} states at n={n} count {states * 4 ** max(n, 4)} numbers; "
                f"a run is limited to {MAX_RUN_ENTRIES}"
            )
    entries = 0

    def parse_step(raw, path: str) -> CircuitStep:
        # every gate is kept too, counted apart from the states
        nonlocal entries
        step = _parse_step(raw, path, n)
        entries += step.gate.entries.size
        if entries > MAX_RUN_ENTRIES:
            raise SchemaError(
                f"{path}: the gates up to this step count {entries} numbers; "
                f"a run's gates are limited to {MAX_RUN_ENTRIES}"
            )
        return step

    return Circuit(n=n, steps=tuple(sz._decode_list(raw_steps, "steps", parse_step)))


def run_circuit(circuit: Circuit, initial: PauliVector) -> RunRecord:
    """Fold the steps over an initial state, then certify the states.

    Post-selected measurements renormalize the state and multiply the
    cumulative probability; zero-probability branches raise.  The initial
    state and every recorded state are checked to be valid density
    matrices in one stacked pass after the fold, and each record keeps
    its state's :class:`ValidationReport`.  The first failure of the run
    is raised: an invalid state wins over the error of a later step.
    """
    if initial.n != circuit.n:
        raise NumericContractError(
            f"initial state has n={initial.n}, circuit expects n={circuit.n}"
        )
    n = circuit.n
    state = initial
    cumulative = 1.0
    folded = []
    failure = None
    try:
        for step in circuit.steps:
            probs = p = None
            if step.rows is not None:
                probs = _branch_probabilities(step.rows, state, step.targets)
            if step.post_select is None:
                state = apply_linear(step.gate, state, targets=step.targets)
            else:
                state, p = apply_nonlinear(step.gate, state, targets=step.targets)
                probs[step.post_select] = p
                cumulative *= p
            folded.append((state, None if probs is None else tuple(probs), p, cumulative))
    except QuquatError as exc:
        # raised below, once the states before it are known to be valid
        failure = exc
    reports = _validate_pvecs([initial.P] + [row[0].P for row in folded], n)
    if not reports[0].valid:
        raise NumericContractError("initial state is not a valid density matrix")
    if not all(r.valid for r in reports):
        raise NumericContractError("circuit produced an invalid state")
    if failure is not None:
        raise failure
    records = tuple(StepRecord(*row, report) for row, report in zip(folded, reports[1:]))
    return RunRecord(steps=records, cumulative_probability=cumulative)
