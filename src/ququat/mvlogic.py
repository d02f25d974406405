"""Classical four-valued logic and its quantum gate realizations.

Truth tables map {0,1,2,3}**n to {0,1,2,3} (tuples of tables give
multi-output maps).  Any table is realized exactly as a trace-preserving
gate on generalized computational states, |x] -> |g(x)]; a table admits a
unital (T = 0) realization on the same number of ququats iff it fixes the
all-zero input, and otherwise gains one by adding an ancilla ququat that
gates the computation (ancilla 0 collapses everything to |0...0]).

The closure search is a clone fixpoint: compositions of generators over
members and projections, deduplicated by output vector, breadth-first and
deterministic, with a budget on the number of distinct functions kept.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .config import MAX_CLOSURE_ARITY, MAX_CLOSURE_BUDGET, MAX_CLOSURE_ENTRIES
from .errors import NumericContractError
from .gates import GateMatrix, TRACE_PRESERVING, _check_gate_size

__all__ = [
    "TruthTable",
    "ClassicalExpression",
    "const_expr",
    "var_expr",
    "apply_expr",
    "evaluate_expression",
    "builtin",
    "BUILTIN_NAMES",
    "compose_classical",
    "substitute_variables",
    "projection",
    "dnf",
    "dnf_terms",
    "closure",
    "ClosureResult",
    "synthesize_quantum",
    "unital_realizable",
    "synthesize_unital_extended",
    "verify_realization",
    "luk_neg_value",
]


def luk_neg_value(x: int) -> int:
    """Lukasiewicz negation ~x = 3 - x."""
    return 3 - x


@dataclass(frozen=True)
class TruthTable:
    """A function {0,1,2,3}**arity -> {0,1,2,3}.

    ``outputs`` is indexed by the big-endian base-4 scalar of the input
    tuple (x_1 is the most significant digit).
    """

    arity: int
    outputs: tuple[int, ...]

    def __post_init__(self):
        outputs = tuple(int(v) for v in self.outputs)
        if len(outputs) != 4**self.arity:
            raise NumericContractError(
                f"table of arity {self.arity} needs {4**self.arity} outputs, got {len(outputs)}"
            )
        if any(v not in (0, 1, 2, 3) for v in outputs):
            raise NumericContractError("table outputs must be in 0..3")
        object.__setattr__(self, "outputs", outputs)

    def __call__(self, *args: int) -> int:
        if len(args) != self.arity:
            raise NumericContractError(f"expected {self.arity} arguments, got {len(args)}")
        if any(a not in (0, 1, 2, 3) for a in args):
            raise NumericContractError("inputs must be in 0..3")
        return self.outputs[_index(args)]

    def is_constant(self) -> bool:
        return len(set(self.outputs)) == 1


def projection(arity: int, index: int) -> TruthTable:
    """The projection (x_1, ..., x_arity) -> x_{index+1}."""
    if not 0 <= index < arity:
        raise NumericContractError(f"projection index {index} out of range for arity {arity}")
    return _table_from_fn(arity, lambda *xs: xs[index])


def _index(rows):
    """Flat big-endian base-4 index of ``TruthTable.outputs`` for one digit per
    argument, x_1 first: ints, or integer arrays that broadcast to many tuples."""
    idx = 0
    for row in rows:
        idx = 4 * idx + row
    return idx


def _inputs(arity: int):
    """Every input tuple in the flat big-endian order of ``TruthTable.outputs``."""
    return itertools.product(range(4), repeat=arity)


def _table_from_fn(arity: int, fn) -> TruthTable:
    return TruthTable(arity, tuple(fn(*xs) for xs in _inputs(arity)))


_BUILTINS = {
    "luk_neg": TruthTable(1, (3, 2, 1, 0)),
    "cyclic_shift": TruthTable(1, (1, 2, 3, 0)),
    "bar_neg": TruthTable(1, (1, 2, 3, 0)),
    "box": TruthTable(1, (0, 0, 0, 3)),
    "diamond": TruthTable(1, (0, 3, 3, 3)),
    "I0": TruthTable(1, (3, 0, 0, 0)),
    "I1": TruthTable(1, (0, 3, 0, 0)),
    "I2": TruthTable(1, (0, 0, 3, 0)),
    "I3": TruthTable(1, (0, 0, 0, 3)),
    "const0": TruthTable(1, (0, 0, 0, 0)),
    "const1": TruthTable(1, (1, 1, 1, 1)),
    "const2": TruthTable(1, (2, 2, 2, 2)),
    "const3": TruthTable(1, (3, 3, 3, 3)),
    "g1": TruthTable(1, (3, 0, 1, 2)),
    "g2": TruthTable(1, (0, 1, 3, 2)),
    "g3": TruthTable(1, (1, 1, 2, 3)),
    "min": _table_from_fn(2, min),
    "max": _table_from_fn(2, max),
    "v4": _table_from_fn(2, lambda a, b: (max(a, b) + 1) % 4),
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin(name: str) -> TruthTable:
    """Named elementary tables (negations, I_k, constants, min/max, Sheffer V4)."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise NumericContractError(f"unknown builtin table {name!r}") from None


def compose_classical(outer: TruthTable, inners) -> TruthTable:
    """Substitution (outer o inners)(x) = outer(inner_1(x), ..., inner_k(x)).

    All inner tables must share one arity, which becomes the arity of the
    result.
    """
    inners = list(inners)
    if len(inners) != outer.arity:
        raise NumericContractError(
            f"outer arity {outer.arity} needs {outer.arity} inner tables, got {len(inners)}"
        )
    if not inners:
        raise NumericContractError("cannot compose a nullary outer")
    m = inners[0].arity
    if any(t.arity != m for t in inners):
        raise NumericContractError("inner tables must share one arity")
    outputs = np.array(outer.outputs)[_index(np.array(t.outputs) for t in inners)]
    return TruthTable(m, tuple(outputs.tolist()))


def substitute_variables(table: TruthTable, var_map, new_arity: int) -> TruthTable:
    """Variable permutation / identification / dummy insertion."""
    var_map = tuple(int(v) for v in var_map)
    if len(var_map) != table.arity or any(not 0 <= v < new_arity for v in var_map):
        raise NumericContractError("var_map must assign each argument a new position")
    return compose_classical(table, [projection(new_arity, v) for v in var_map])


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicalExpression:
    """Tree over constants, variables and named table applications.

    ``op`` is "const" (uses ``value``), "var" (uses ``index``) or the name
    of a table in the evaluation registry (builtins by default).
    """

    op: str
    args: tuple["ClassicalExpression", ...] = ()
    value: int | None = None
    index: int | None = None


def const_expr(value: int) -> ClassicalExpression:
    return ClassicalExpression("const", value=int(value))


def var_expr(index: int) -> ClassicalExpression:
    return ClassicalExpression("var", index=int(index))


def apply_expr(op: str, *args: ClassicalExpression) -> ClassicalExpression:
    return ClassicalExpression(op, args=tuple(args))


def evaluate_expression(expr: ClassicalExpression, inputs, registry=None) -> int:
    """Evaluate an expression tree on concrete inputs.

    ``registry`` maps operation names to tables; defaults to the builtins.
    """
    ops = _BUILTINS if registry is None else registry
    if expr.op == "const":
        return int(expr.value)
    if expr.op == "var":
        return int(inputs[expr.index])
    table = ops.get(expr.op)
    if table is None:
        raise NumericContractError(f"unknown operation {expr.op!r} in expression")
    return table(*[evaluate_expression(a, inputs, registry) for a in expr.args])


def dnf_terms(table: TruthTable) -> list[ClassicalExpression]:
    """Conjunctive terms of the disjunction normal form, one per input tuple.

    Each term is I_{k_1}(x_1) and ... and I_{k_n}(x_n) and g(k); the
    all-zero table has no terms (empty disjunction).
    """
    if table.is_constant() and table.outputs[0] == 0:
        return []
    terms = []
    for flat, digits in enumerate(_inputs(table.arity)):
        factors = [apply_expr(f"I{k}", var_expr(i)) for i, k in enumerate(digits)]
        factors.append(const_expr(table.outputs[flat]))
        term = factors[0]
        for f in factors[1:]:
            term = apply_expr("min", term, f)
        terms.append(term)
    return terms


def dnf(table: TruthTable) -> ClassicalExpression:
    """Disjunction normal form; evaluates to the table on every input."""
    terms = dnf_terms(table)
    if not terms:
        return const_expr(0)
    # A balanced tree: the 4**arity terms are paired level by level, so the
    # form nests 2 * arity levels of max deep, not one level per term.
    while len(terms) > 1:
        terms = [apply_expr("max", a, b) for a, b in zip(terms[::2], terms[1::2])]
    return terms[0]


# ---------------------------------------------------------------------------
# Closure search
# ---------------------------------------------------------------------------


@dataclass
class ClosureResult:
    """Functions generated from a set, with provenance and completeness flag.

    ``provenance`` maps each table's (arity, outputs) key to an expression
    over variables and the generators (named "g0", "g1", ...); evaluating
    the expression through ``registry`` reproduces the table.  When the
    budget or the work ceiling is spent before the fixpoint, ``complete``
    is False and the set is a sound under-approximation.
    """

    tables: list[TruthTable]
    provenance: dict
    registry: dict
    complete: bool

    def __contains__(self, table: TruthTable) -> bool:
        return (table.arity, table.outputs) in self.provenance

    def count(self, arity: int | None = None) -> int:
        if arity is None:
            return len(self.tables)
        return sum(1 for t in self.tables if t.arity == arity)


def closure(generators, max_arity: int = 2, budget: int = 5000) -> ClosureResult:
    """Fixpoint of composition over a generator set.

    Members are kept up to ``max_arity``, at most ``MAX_CLOSURE_ARITY``;
    projections are included (they are the variables).  Each sweep applies
    every generator to all tuples of same-arity members; new output vectors
    join the pool until the fixpoint, the first new table the budget (at
    most ``MAX_CLOSURE_BUDGET``) refuses, or ``MAX_CLOSURE_ENTRIES`` composed
    table entries.  Iteration order is fixed, so the result is deterministic.
    """
    for name, value, limit in (("max_arity", max_arity, MAX_CLOSURE_ARITY),
                               ("budget", budget, MAX_CLOSURE_BUDGET)):
        if value > limit:
            raise NumericContractError(f"{name} {value} exceeds the closure limit of {limit}")
    generators = list(generators)
    if not generators:
        raise NumericContractError("closure needs at least one generator")
    if any(not 1 <= g.arity <= max_arity for g in generators):
        raise NumericContractError("generator arity must be in 1..max_arity")
    registry = {f"g{i}": g for i, g in enumerate(generators)}

    tables: list[TruthTable] = []
    provenance: dict = {}
    # Output rows per arity, stacked into one integer matrix per generator
    # pass for the vectorized composition step.
    pool_rows: dict[int, list[np.ndarray]] = {m: [] for m in range(1, max_arity + 1)}
    pool_exprs: dict[int, list[ClassicalExpression]] = {m: [] for m in range(1, max_arity + 1)}

    def add(arity: int, outputs: tuple, expr: ClassicalExpression) -> bool:
        """Keep a table not yet known; False when the budget refuses it."""
        if len(tables) >= budget:
            return False
        tables.append(TruthTable(arity, outputs))
        provenance[(arity, outputs)] = expr
        pool_rows[arity].append(np.array(outputs, dtype=np.int64))
        pool_exprs[arity].append(expr)
        return True

    def search() -> bool:
        """Add tables in discovery order; False at the first one refused."""
        seeds = [(m, projection(m, i).outputs, var_expr(i)) for m in pool_rows for i in range(m)]
        seeds += [
            (g.arity, g.outputs, apply_expr(name, *map(var_expr, range(g.arity))))
            for name, g in registry.items()
        ]
        for arity, outputs, expr in seeds:
            if (arity, outputs) not in provenance and not add(arity, outputs, expr):
                return False
        composed = 0
        # Inner tuples share one arity, so results of arity m depend only on
        # the arity-m pool: each arity is a self-contained fixpoint.  Small
        # arities are saturated first (there are at most 256 unary
        # functions), which keeps unary targets reachable under tight budgets.
        for m in pool_rows:
            # Pool size at each generator's last pass: a tuple of members
            # all older than that was composed then, so its table is known.
            # A pool holding all 4**4**m tables of its arity is closed.
            cursors = dict.fromkeys(registry, 0)
            while min(cursors.values()) < len(pool_rows[m]) < 4 ** 4**m:
                for name, g in registry.items():
                    old, cursors[name] = cursors[name], len(pool_rows[m])
                    if old == cursors[name]:
                        continue
                    g_out = np.array(g.outputs, dtype=np.int64)
                    mat = np.stack(pool_rows[m])
                    exprs = pool_exprs[m]
                    # All but the last argument index the block; the block
                    # holds every pool member (or every new one) as the last.
                    for head in np.ndindex(*[len(mat)] * (g.arity - 1)):
                        first = old if all(c < old for c in head) else 0
                        composed += (len(mat) - first) * 4**m
                        if composed > MAX_CLOSURE_ENTRIES:
                            return False
                        block = g_out[_index([*(mat[c] for c in head), mat[first:]])]
                        for last, outputs in enumerate(map(tuple, block.tolist()), first):
                            if (m, outputs) in provenance:
                                continue
                            expr = apply_expr(name, *[exprs[c] for c in head], exprs[last])
                            if not add(m, outputs, expr):
                                return False
        return True

    complete = search()
    return ClosureResult(tables=tables, provenance=provenance, registry=registry, complete=complete)


# ---------------------------------------------------------------------------
# Quantum realization
# ---------------------------------------------------------------------------


def _as_table_tuple(tables) -> tuple[TruthTable, ...]:
    if isinstance(tables, TruthTable):
        return (tables,)
    tables = tuple(tables)
    if not tables:
        raise NumericContractError("need at least one output table")
    n = tables[0].arity
    if any(t.arity != n for t in tables):
        raise NumericContractError("all output tables must share one arity")
    return tables


def _one_hot(tables: tuple[TruthTable, ...]) -> np.ndarray:
    """The (4**m, 4**n) matrix with a one at (g(x), x) for every input x."""
    cols = 4 ** tables[0].arity
    out = np.zeros((4 ** len(tables), cols))
    out[_index(np.array(t.outputs) for t in tables), np.arange(cols)] = 1.0
    return out


def synthesize_quantum(tables) -> GateMatrix:
    """Trace-preserving gate of order (n, m) realizing a classical map.

    ``tables`` is one table (m = 1) or a sequence of m tables evaluated on
    the same inputs.  The gate maps generalized computational states
    exactly: apply to |x] gives |g(x)].  Column zero carries the image of
    the all-zero input, so the gate is unital iff g(0,...,0) = 0.
    """
    tables = _as_table_tuple(tables)
    n = tables[0].arity
    m = len(tables)
    _check_gate_size(max(n, m), "classical map")
    entries = _one_hot(tables)
    # |nu] = delta_0 + delta_nu for nu != 0, so column nu is g(nu)'s one
    # less g(0)'s, and row 0 (the trace) is delta.
    entries[:, 1:] -= entries[:, :1]
    entries[0] = 0.0
    entries[0, 0] = 1.0
    return GateMatrix(n, m, entries, TRACE_PRESERVING)


def unital_realizable(table: TruthTable) -> bool:
    """Published same-ququat unital realizability criterion.

    True iff g(0,...,0) = 0 or g is constant.  Note the constant clause
    is vacuous as a state map for nonzero constants: a unital gate fixes
    the maximally mixed state, so no unital gate sends |0...0] to |k];
    the criterion is kept as published and the divergence is pinned in
    the regression tests.
    """
    return table.outputs[0] == 0 or table.is_constant()


def _extended_map(table: TruthTable) -> tuple[TruthTable, ...]:
    """Output tables of the one-ancilla construction.

    Inputs (x_1..x_n, a); for a != 0 the outputs are the table value, its
    Lukasiewicz negation alternating across the remaining data wires, and
    the ancilla passed through; a = 0 collapses everything to zero.
    """
    # Inputs as a (4**n, 4) grid: data tuple by ancilla digit, in flat order.
    g = np.array(table.outputs)[:, None]
    anc = np.arange(4)
    outs = [np.where(anc != 0, luk_neg_value(g) if i % 2 else g, 0) for i in range(table.arity)]
    outs.append(np.broadcast_to(anc, g.shape[:1] + anc.shape))
    return tuple(TruthTable(table.arity + 1, tuple(o.ravel().tolist())) for o in outs)


def synthesize_unital_extended(table: TruthTable) -> GateMatrix:
    """Unital gate computing a table with one ancilla ququat.

    For ancilla != 0 the gate computes the table on the leading ququats
    (value on the first output wire, its negation on the following data
    wires) and passes the ancilla through; ancilla 0 maps every input to
    |0...0].  Only for tables that have no same-ququat unital realization.
    """
    if unital_realizable(table):
        raise NumericContractError(
            "table is unital-realizable on its own ququats; use synthesize_quantum"
        )
    gate = synthesize_quantum(_extended_map(table))
    col0 = gate.entries[:, 0]
    assert col0[0] == 1.0 and not np.any(col0[1:])
    return gate


def verify_realization(gate: GateMatrix, tables, mode: str = "plain") -> bool:
    """Exhaustively check a gate against a classical map on computational states.

    ``plain`` checks apply(|x]) == |g(x)] exactly for every input tuple;
    ``extended`` checks the one-ancilla contract of
    :func:`synthesize_unital_extended`.  Entries are integers, so the
    comparison is exact.
    """
    if mode == "plain":
        tables = _as_table_tuple(tables)
    elif mode == "extended":
        if not isinstance(tables, TruthTable):
            raise NumericContractError("extended mode verifies a single table")
        tables = _extended_map(tables)
    else:
        raise NumericContractError(f"unknown mode {mode!r}")
    if (gate.n_in, gate.n_out) != (tables[0].arity, len(tables)):
        return False
    # Every computational input at once: |0] is delta_0 and |nu] is
    # delta_0 + delta_nu, so the images are column 0 and column 0 plus nu.
    images = gate.entries + gate.entries[:, :1]
    images[:, 0] = gate.entries[:, 0]
    expected = _one_hot(tables)
    expected[0] = 1.0
    return np.array_equal(images, expected)
