"""Circuit documents: parse gate sequences from JSON and fold them over states.

A circuit fixes the ququat count n and lists steps.  Gate-bearing steps
hold one of: a named single-ququat gate, a unitary, a Kraus set, a
Lindblad model with an evolution time, a raw gate matrix, or a classical
table to synthesize.  Measurement steps hold a projector family and
optionally a post-selection index; without post-selection the family
must be complete and the recorded state is the nonselective mixture
(the summed, trace-preserving gate), with the branch probabilities
recorded.  Gates are constructed and checked eagerly, so schema and
contract failures surface at parse time; a step is certified (its
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

from .config import MAX_QUQUATS, tolerances
from .decompositions import NAMED_GATES, named_gate
from .errors import NumericContractError, QuquatError, SchemaError
from .gates import (
    GateMatrix,
    GateReport,
    TRACE_PRESERVING,
    _apply_local,
    _check_gate_size,
    _projector_gate,
    _row0_deviation,
    _target_axes,
    _renormalize,
    analyze_gate,
    apply_linear,
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
    """One parsed step: a linear gate or a measurement family on ``targets``.

    ``gates`` holds the local k-ququat gates (one, or one per projector),
    constructed and checked at parse time.  ``report`` certifies them on
    first read, with the tolerances then in force, and keeps the result:
    the :class:`GateReport` of the linear gate, or a tuple with one per
    projector.  Tensoring with the
    identity keeps every flag and ``row0_deviation``, ``row0_sq_sum`` and
    ``t_norm``; ``min_choi_eigenvalue`` is the local gate's.  The Choi
    spectrum of the embedded n-ququat gate is the local one scaled by
    2**(n - k), plus zeros.
    """

    kind: str  # "linear" | "measurement"
    gates: tuple[GateMatrix, ...]
    targets: tuple[int, ...]
    post_select: int | None

    @cached_property
    def report(self) -> GateReport | tuple[GateReport, ...]:
        if self.kind == "linear":
            return analyze_gate(self.gates[0])
        return tuple(analyze_gate(g) for g in self.gates)


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


def _decode_targets(step: dict, gate: GateMatrix, n: int, path: str) -> tuple[int, ...]:
    """The step's targets, checked against the gate and the circuit size.

    The check caches the step's axis order, so ``run_circuit`` does not
    work it out again for every state.
    """
    k = gate.n_in
    if "targets" in step:
        raw = step["targets"]
        targets = tuple(sz._decode_list(raw, f"{path}.targets", partial(sz._decode_int, minimum=0)))
    elif k > n:
        raise NumericContractError(f"{path}: gate needs {k} ququats, circuit has {n}")
    else:
        targets = tuple(range(k))
    _target_axes(targets, n, gate.n_in, gate.n_out)
    return targets


def _parse_step(raw, path: str, n: int) -> CircuitStep:
    raw = sz._expect(raw, dict, path, "an object")
    if "measure" in raw:
        spec = sz._expect(raw["measure"], dict, f"{path}.measure", "an object")
        family, post = sz.measurement_from_json(
            sz._expect_key(spec, "projectors", f"{path}.measure"),
            raw.get("post_select"),
            f"{path}.measure.projectors",
            f"{path}.post_select",
        )
        gates = tuple(_projector_gate(p, kind) for p, kind in family)
        targets = _decode_targets(raw, gates[0], n, path)
        if post is None:
            # row 0 of the embedded sum is this row 0 tensored with delta
            total = np.sum([g.entries[0] for g in gates], axis=0)
            if _row0_deviation(total) > tolerances.algebra:
                raise NumericContractError(
                    f"{path}: projector family is incomplete; give post_select"
                )
        return CircuitStep(kind="measurement", gates=gates, targets=targets, post_select=post)
    gate = _build_step_gate(raw, path)
    targets = _decode_targets(raw, gate, n, path)
    if gate.kind != TRACE_PRESERVING:
        raise NumericContractError(f"{path}: non-measurement steps need a trace-preserving gate")
    return CircuitStep(
        kind="linear",
        gates=(gate,),
        targets=targets,
        post_select=None,
    )


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
    steps = sz._decode_list(raw_steps, "steps", lambda raw, path: _parse_step(raw, path, n))
    return Circuit(n=n, steps=tuple(steps))


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
    rows = []
    failure = None
    try:
        for step in circuit.steps:
            probs = p = None
            if step.kind == "linear":
                state = apply_linear(step.gates[0], state, targets=step.targets)
            else:
                branches = [_apply_local(g, state, step.targets) for g in step.gates]
                probs = tuple(float(b[0]) for b in branches)
                if step.post_select is None:
                    state = PauliVector(n, np.sum(branches, axis=0))
                else:
                    state, p = _renormalize(branches[step.post_select], n)
                    cumulative *= p
            rows.append((state, probs, p, cumulative))
    except QuquatError as exc:
        # raised below, once the states before it are known to be valid
        failure = exc
    reports = _validate_pvecs([initial.P] + [row[0].P for row in rows], n)
    if not reports[0].valid:
        raise NumericContractError("initial state is not a valid density matrix")
    if not all(r.valid for r in reports):
        raise NumericContractError("circuit produced an invalid state")
    if failure is not None:
        raise failure
    records = tuple(StepRecord(*row, report) for row, report in zip(rows, reports[1:]))
    return RunRecord(steps=records, cumulative_probability=cumulative)
