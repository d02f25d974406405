"""Truth tables, classical laws, DNF, closure and quantum realization tests."""

import itertools
import json
import os
import resource
import subprocess
import sys

import numpy as np
import pytest

from ququat import (
    NumericContractError,
    PauliIndex,
    analyze_gate,
    apply_linear,
    builtin,
    choi_matrix,
    closure,
    compose_classical,
    computational_state,
    dnf,
    swap_pseudo_gate,
    synthesize_quantum,
    synthesize_unital_extended,
    unital_realizable,
    verify_realization,
)
from ququat import mvlogic
from ququat.cli import EXIT_OK, EXIT_SCHEMA
from ququat.gates import GateMatrix
from ququat.liouville import SIGMA
from ququat.mvlogic import (
    TruthTable,
    _extended_map,
    _table_from_fn,
    apply_expr,
    dnf_terms,
    evaluate_expression,
    projection,
    substitute_variables,
    var_expr,
)
from ququat.serialization import expression_from_json, expression_to_json

ALL_UNARY = [TruthTable(1, outs) for outs in itertools.product(range(4), repeat=4)]


class TestBuiltins:
    def test_luk_neg(self):
        assert builtin("luk_neg").outputs == (3, 2, 1, 0)

    def test_v4_values(self):
        v4 = builtin("v4")
        assert v4(1, 2) == 3
        assert v4(0, 0) == 1
        assert v4(3, 3) == 0

    def test_g_tables(self):
        assert builtin("g1").outputs == (3, 0, 1, 2)
        assert builtin("g2").outputs == (0, 1, 3, 2)
        assert builtin("g3").outputs == (1, 1, 2, 3)

    def test_single_argument_table(self):
        # the displayed single-argument table, column by column
        assert builtin("box").outputs == (0, 0, 0, 3)
        assert builtin("diamond").outputs == (0, 3, 3, 3)
        assert builtin("bar_neg").outputs == (1, 2, 3, 0)
        assert builtin("I0").outputs == (3, 0, 0, 0)
        assert builtin("I2").outputs == (0, 0, 3, 0)

    def test_unknown(self):
        with pytest.raises(NumericContractError):
            builtin("nand")


class TestClassicalLaws:
    def test_commutativity(self):
        mn, mx = builtin("min"), builtin("max")
        for a in range(4):
            for b in range(4):
                assert mn(a, b) == mn(b, a)
                assert mx(a, b) == mx(b, a)

    def test_associativity_and_distributivity(self):
        mn, mx = builtin("min"), builtin("max")
        for a, b, c in itertools.product(range(4), repeat=3):
            assert mx(mx(a, b), c) == mx(a, mx(b, c))
            assert mn(mn(a, b), c) == mn(a, mn(b, c))
            assert mx(a, mn(b, c)) == mn(mx(a, b), mx(a, c))
            assert mn(a, mx(b, c)) == mx(mn(a, b), mn(a, c))

    def test_involution_and_de_morgan(self):
        neg, mn, mx = builtin("luk_neg"), builtin("min"), builtin("max")
        for a in range(4):
            assert neg(neg(a)) == a
        for a, b in itertools.product(range(4), repeat=2):
            assert neg(mn(a, b)) == mx(neg(a), neg(b))

    def test_cyclic_shift_is_not_an_involution(self):
        bar = builtin("bar_neg")
        assert any(bar(bar(a)) != a for a in range(4))

    def test_max_with_negation(self):
        assert builtin("max")(1, builtin("luk_neg")(1)) == 2


class TestComposeAndSubstitute:
    def test_compose(self):
        mx = builtin("max")
        neg = builtin("luk_neg")
        t = compose_classical(mx, [projection(1, 0), neg])
        assert t.outputs == tuple(max(x, 3 - x) for x in range(4))

    def test_arity_mismatch(self):
        with pytest.raises(NumericContractError):
            compose_classical(builtin("max"), [builtin("luk_neg")])

    def test_substitute_swap(self):
        v4 = builtin("v4")
        swapped = substitute_variables(v4, (1, 0), 2)
        for a, b in itertools.product(range(4), repeat=2):
            assert swapped(a, b) == v4(b, a)

    def test_substitute_identify(self):
        diag = substitute_variables(builtin("v4"), (0, 0), 1)
        assert diag.outputs == tuple((x + 1) % 4 for x in range(4))


class TestDNF:
    def test_const0_empty(self):
        assert dnf_terms(builtin("const0")) == []
        expr = dnf(builtin("const0"))
        assert all(evaluate_expression(expr, (x,)) == 0 for x in range(4))

    def test_luk_neg_terms_and_evaluation(self):
        t = builtin("luk_neg")
        assert len(dnf_terms(t)) == 4
        expr = dnf(t)
        assert tuple(evaluate_expression(expr, (x,)) for x in range(4)) == (3, 2, 1, 0)

    def test_v4_terms_and_evaluation(self):
        t = builtin("v4")
        assert len(dnf_terms(t)) == 16
        expr = dnf(t)
        for a, b in itertools.product(range(4), repeat=2):
            assert evaluate_expression(expr, (a, b)) == t(a, b)

    def test_every_unary_table(self):
        for t in ALL_UNARY:
            expr = dnf(t)
            assert tuple(evaluate_expression(expr, (x,)) for x in range(4)) == t.outputs

    @pytest.mark.parametrize("arity", [5, 6])
    def test_wide_tables_evaluate_and_serialize(self, arity):
        # above the CLI's ceiling, the recursive evaluator and writers
        # still walk the form: it nests a few levels per argument
        rng = np.random.default_rng(arity)
        t = TruthTable(arity, tuple(rng.integers(0, 4, 4**arity).tolist()))
        expr = dnf(t)

        def depth(e):
            return 1 + max(map(depth, e.args), default=0)

        # 2 * arity levels of max, a term's chain of arity mins, I_k and its variable
        assert depth(expr) == 3 * arity + 2
        assert expression_from_json(expression_to_json(expr)) == expr
        for flat in rng.integers(0, 4**arity, 6).tolist():
            digits = [(flat >> (2 * (arity - 1 - i))) & 3 for i in range(arity)]
            assert evaluate_expression(expr, digits) == t.outputs[flat]

    def test_terms_keep_their_order(self):
        t = builtin("v4")
        expr, terms = dnf(t), dnf_terms(t)
        leaves = []

        def collect(e):
            if e.op == "max":
                for a in e.args:
                    collect(a)
            else:
                leaves.append(e)

        collect(expr)
        assert leaves == terms
        t = TruthTable(1, (0, 1, 2, 3))
        a, b, c, d = dnf_terms(t)
        assert dnf(t) == apply_expr("max", apply_expr("max", a, b), apply_expr("max", c, d))


class TestClosure:
    def test_unary_generators_span_all(self):
        res = closure([builtin("g1"), builtin("g2"), builtin("g3")], max_arity=1, budget=400)
        assert res.complete
        assert res.count() == 256

    def test_shift_max_reaches_targets(self):
        res = closure([builtin("cyclic_shift"), builtin("max")], max_arity=2, budget=2000)
        for name in ("luk_neg", "const0", "const1", "const2", "const3", "I0", "I1", "I2", "I3"):
            assert builtin(name) in res
        assert not res.complete  # binary pool exceeds the budget

    def test_v4_alone(self):
        res = closure([builtin("v4")], max_arity=2, budget=2000)
        assert builtin("v4") in res
        assert builtin("cyclic_shift") in res  # V4(x, x) = shift of max(x, x)
        assert builtin("luk_neg") in res

    def test_provenance_sound(self):
        res = closure([builtin("cyclic_shift"), builtin("max")], max_arity=2, budget=500)
        for t in res.tables:
            expr = res.provenance[(t.arity, t.outputs)]
            for flat in range(4**t.arity):
                digits = [(flat >> (2 * (t.arity - 1 - i))) & 3 for i in range(t.arity)]
                assert evaluate_expression(expr, digits, res.registry) == t.outputs[flat]

    def test_budget_flag(self):
        res = closure([builtin("v4")], max_arity=2, budget=50)
        assert not res.complete
        assert res.count() <= 50

    def test_monotone_under_generators(self):
        small = closure([builtin("g2")], max_arity=1, budget=400)
        big = closure([builtin("g2"), builtin("g1")], max_arity=1, budget=400)
        assert small.count() <= big.count()


def three_branch_closure(generators, max_arity, budget):
    """The closure sweep as three arity branches that finish a sweep after the
    budget refuses a table: the oracle for order, provenance and ``complete``."""
    registry = {f"g{i}": g for i, g in enumerate(generators)}
    tables, provenance, budget_hit = [], {}, [False]
    pool_rows = {m: [] for m in range(1, max_arity + 1)}
    pool_exprs = {m: [] for m in range(1, max_arity + 1)}

    def try_add(arity, row, expr):
        key = (arity, tuple(int(v) for v in row))
        if key in provenance:
            return False
        if len(tables) >= budget:
            budget_hit[0] = True
            return False
        tables.append(TruthTable(arity, key[1]))
        provenance[key] = expr
        pool_rows[arity].append(np.asarray(row, dtype=np.int64))
        pool_exprs[arity].append(expr)
        return True

    for m in range(1, max_arity + 1):
        for i in range(m):
            try_add(m, np.array(projection(m, i).outputs), var_expr(i))
    for name, g in registry.items():
        try_add(g.arity, np.array(g.outputs), apply_expr(name, *[var_expr(i) for i in range(g.arity)]))
    complete = True
    for m in range(1, max_arity + 1):
        while not budget_hit[0]:
            added = False
            for name, g in registry.items():
                k, g_out, rows = g.arity, np.array(g.outputs, dtype=np.int64), pool_rows[m]
                if not rows:
                    continue
                mat = np.stack(rows)
                s = mat.shape[0]
                exprs = pool_exprs[m]
                if k == 1:
                    cand = g_out[mat]
                    for i in range(s):
                        added |= try_add(m, cand[i], apply_expr(name, exprs[i]))
                elif k == 2:
                    cand = g_out[(4 * mat[:, None, :] + mat[None, :, :]).reshape(s * s, -1)]
                    for idx in range(s * s):
                        i, j = divmod(idx, s)
                        added |= try_add(m, cand[idx], apply_expr(name, exprs[i], exprs[j]))
                else:
                    for combo in np.ndindex(*([s] * k)):
                        idx = mat[combo[0]]
                        for c in combo[1:]:
                            idx = 4 * idx + mat[c]
                        added |= try_add(m, g_out[idx], apply_expr(name, *[exprs[c] for c in combo]))
            if not added:
                break
        if budget_hit[0]:
            complete = False
            break
    return tables, provenance, complete


_MAX3 = _table_from_fn(3, lambda x, y, z: max(x, y, z))
_SELECT3 = _table_from_fn(3, lambda x, y, z: y if x else z)
_UNARY_BASIS = ("g1", "g2", "g3")


def _gens(*items):
    return [builtin(g) if isinstance(g, str) else g for g in items]


# (generators, max_arity, budget, complete): budgets 0, 1, 4 and 255..257,
# cuts inside unary, binary and ternary sweeps, fixpoints, and generators
# that repeat a projection or each other
_ORACLE_CASES = [
    (_gens("v4"), 2, 0, False),
    (_gens("v4"), 2, 1, False),
    (_gens("v4"), 2, 4, False),
    (_gens(*_UNARY_BASIS), 1, 255, False),
    (_gens(*_UNARY_BASIS), 1, 256, True),
    (_gens(*_UNARY_BASIS), 1, 257, True),
    (_gens("v4"), 2, 50, False),
    (_gens("cyclic_shift", "max"), 2, 100, False),
    (_gens("luk_neg", "min"), 2, 5000, True),
    (_gens("luk_neg", "min"), 2, 60, False),
    (_gens(_SELECT3), 3, 40, False),
    (_gens(_SELECT3), 3, 5, False),
    (_gens(_MAX3), 3, 5000, True),
    (_gens(_MAX3, "luk_neg"), 3, 30, False),
    (_gens("min", "min"), 2, 100, True),
    (_gens(projection(2, 1), "luk_neg"), 2, 100, True),
    (_gens("const1", "max"), 2, 4, False),
    (_gens("g2"), 1, 400, True),
    (_gens("g2"), 1, 2, True),
    # several passes per generator, and budgets that cut a later pass
    (_gens("g1"), 1, 400, True),
    (_gens("g1"), 1, 3, False),
    (_gens("g2", "g1"), 1, 400, True),
    (_gens("g1", "g3"), 1, 100, False),
    (_gens("g1", "g3"), 1, 64, False),
    (_gens("g1", "g3"), 1, 200, True),
    (_gens("v4"), 2, 300, False),
    (_gens("v4"), 2, 257, False),
    (_gens("cyclic_shift", "max"), 2, 333, False),
    (_gens("luk_neg", "min"), 3, 150, False),
    (_gens("max", "I0"), 3, 300, False),
    (_gens(_MAX3, "luk_neg"), 3, 60, False),
    (_gens("max", "box"), 3, 5000, True),
]


@pytest.mark.parametrize("gens,max_arity,budget,complete", _ORACLE_CASES)
def test_closure_matches_three_branch_oracle(gens, max_arity, budget, complete):
    tables, provenance, oracle_complete = three_branch_closure(gens, max_arity, budget)
    res = closure(gens, max_arity=max_arity, budget=budget)
    assert res.tables == tables
    assert list(res.provenance.items()) == list(provenance.items())
    assert res.complete is oracle_complete is complete


def _capped_run(args, stdin=None, timeout=60):
    """A child Python under a 3 GiB address-space cap and a timeout."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True,
        timeout=timeout, preexec_fn=cap,
        # BLAS thread pools reserve address space per core
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
    )


def test_closure_cli_stays_within_3_gib():
    # a pass that stacked every pair of members would need 257 GiB here
    proc = _capped_run(["-m", "ququat.cli", "mvlogic", "closure"],
                       '{"generators": ["v4"], "budget": 50000}', timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr[-500:]
    out = json.loads(proc.stdout)
    assert out["count"] == 50000 and out["complete"] is False


@pytest.mark.parametrize("max_arity", [13, 40])
def test_max_arity_above_the_ceiling_is_refused(max_arity):
    # in child processes: before the ceiling, both hung building 4**m-entry projections
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "ququat.cli", "mvlogic", "closure"],
        input='{"generators": ["v4"], "max_arity": %d}' % max_arity,
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert (proc.returncode, proc.stdout) == (EXIT_SCHEMA, "")
    assert proc.stderr == f"error: max_arity: expected an integer <= 6, got {max_arity}\n"
    script = (
        "from ququat import NumericContractError, builtin, closure\n"
        "try:\n"
        f"    closure([builtin('v4')], max_arity={max_arity})\n"
        "except NumericContractError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.stdout == f"max_arity {max_arity} exceeds the closure limit of 6\n", proc.stderr


def test_budget_above_the_ceiling_is_refused():
    from ququat.config import MAX_CLOSURE_BUDGET

    assert MAX_CLOSURE_BUDGET == 50000  # test_closure_cli_stays_within_3_gib runs at it
    script = (
        "import io, sys\n"
        "from ququat import NumericContractError, builtin, closure\n"
        "from ququat.cli import main\n"
        "for budget in (50001, 10**7):\n"
        "    sys.stdin = io.StringIO('{\"generators\": [\"v4\"], \"budget\": %d}' % budget)\n"
        "    print(main(['mvlogic', 'closure']))\n"
        "    try:\n"
        "        closure([builtin('v4')], budget=budget)\n"
        "    except NumericContractError as exc:\n"
        "        print(exc)\n"
    )
    proc = _capped_run(["-c", script])
    assert proc.stdout.splitlines() == [
        "2", "budget 50001 exceeds the closure limit of 50000",
        "2", "budget 10000000 exceeds the closure limit of 50000",
    ], proc.stderr[-500:]
    assert proc.stderr.splitlines() == [
        "error: budget: expected an integer <= 50000, got 50001",
        "error: budget: expected an integer <= 50000, got 10000000",
    ]


def test_closure_work_ceiling_stops_the_four_ary_witness():
    # v4 of its first two arguments as a 4-ary generator: once the 256 unary
    # members are in the pool, every pass would compose 256**4 tuples
    v4_of_two = _table_from_fn(4, lambda a, b, c, d: (max(a, b) + 1) % 4)
    doc = {"generators": [{"arity": 4, "outputs": list(v4_of_two.outputs)}], "max_arity": 4}
    proc = _capped_run(["-m", "ququat.cli", "mvlogic", "closure"], json.dumps(doc), timeout=30)
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    out = json.loads(proc.stdout)
    assert out["complete"] is False and out["count_by_arity"]["1"] > 100


def test_closure_work_ceiling_is_exact(monkeypatch):
    # luk_neg and min reach their 86-table fixpoint composing 108976 entries
    gens = _gens("luk_neg", "min")
    tables, provenance, _ = three_branch_closure(gens, 2, 5000)
    monkeypatch.setattr(mvlogic, "MAX_CLOSURE_ENTRIES", 108976)
    res = closure(gens, max_arity=2, budget=5000)
    assert res.complete and res.tables == tables
    assert list(res.provenance.items()) == list(provenance.items())
    for ceiling in (108975, 10000):
        monkeypatch.setattr(mvlogic, "MAX_CLOSURE_ENTRIES", ceiling)
        res = closure(gens, max_arity=2, budget=5000)
        assert not res.complete and res.tables == tables[: res.count()]
    assert res.count() < len(tables)


def test_a_pool_of_every_unary_table_is_closed(monkeypatch):
    # no pass runs once the 256 unary tables are in; the passes that
    # confirmed the fixpoint took the count from 3056 entries to 3072
    monkeypatch.setattr(mvlogic, "MAX_CLOSURE_ENTRIES", 3056)
    res = closure(_gens(*_UNARY_BASIS), max_arity=1, budget=400)
    assert res.complete and res.count() == 256
    monkeypatch.setattr(mvlogic, "MAX_CLOSURE_ENTRIES", 3055)
    assert not closure(_gens(*_UNARY_BASIS), max_arity=1, budget=400).complete


def test_max_arity_ceiling_admits_six():
    from ququat.config import MAX_CLOSURE_ARITY

    assert MAX_CLOSURE_ARITY == 6
    res = closure([builtin("cyclic_shift")], max_arity=6, budget=5000)
    assert res.complete and res.count(6) == 24


LN_EXPECTED = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [1, -1, -1, -1]], dtype=float
)
I0_EXPECTED = np.array(
    [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [1, -1, -1, -1]], dtype=float
)


class TestSynthesis:
    def test_luk_neg_matrix(self):
        assert np.array_equal(synthesize_quantum(builtin("luk_neg")).entries, LN_EXPECTED)

    def test_i0_matrix(self):
        assert np.array_equal(synthesize_quantum(builtin("I0")).entries, I0_EXPECTED)

    def test_ik_matrices(self):
        for k in (1, 2, 3):
            expected = np.zeros((4, 4))
            expected[0, 0] = 1.0
            expected[3, k] = 1.0
            assert np.array_equal(synthesize_quantum(builtin(f"I{k}")).entries, expected)

    def test_const_matrices(self):
        for k in (1, 2, 3):
            expected = np.zeros((4, 4))
            expected[0, 0] = 1.0
            expected[k, 0] = 1.0
            assert np.array_equal(synthesize_quantum(builtin(f"const{k}")).entries, expected)
        assert np.array_equal(
            synthesize_quantum(builtin("const0")).entries,
            np.diag([1.0, 0.0, 0.0, 0.0]),
        )

    def test_cyclic_shift_matrix(self):
        expected = np.array(
            [[1, 0, 0, 0], [1, -1, -1, -1], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=float
        )
        assert np.array_equal(synthesize_quantum(builtin("bar_neg")).entries, expected)

    def test_g_matrices(self):
        g1 = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, -1, -1, -1]], dtype=float)
        g2 = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=float)
        g3 = np.array([[1, 0, 0, 0], [1, 0, -1, -1], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=float)
        assert np.array_equal(synthesize_quantum(builtin("g1")).entries, g1)
        assert np.array_equal(synthesize_quantum(builtin("g2")).entries, g2)
        assert np.array_equal(synthesize_quantum(builtin("g3")).entries, g3)

    def test_diamond_box_matrices(self):
        diamond = np.zeros((4, 4))
        diamond[0, 0] = 1.0
        diamond[3, 1] = diamond[3, 2] = diamond[3, 3] = 1.0
        assert np.array_equal(synthesize_quantum(builtin("diamond")).entries, diamond)
        assert np.array_equal(
            synthesize_quantum(builtin("box")).entries, np.diag([1.0, 0.0, 0.0, 1.0])
        )

    def test_all_unary_tables_verify(self):
        for t in ALL_UNARY:
            assert verify_realization(synthesize_quantum(t), t)

    def test_arity_two_builtins_verify(self):
        for name in ("min", "max", "v4"):
            t = builtin(name)
            assert verify_realization(synthesize_quantum(t), t)

    def test_wrong_gate_fails_verification(self):
        from ququat import gate_from_unitary
        from ququat.liouville import SIGMA

        not_gate = gate_from_unitary(SIGMA[1])
        assert not verify_realization(not_gate, builtin("luk_neg"))

    def test_apply_on_computational_states(self):
        gate = synthesize_quantum(builtin("luk_neg"))
        out = apply_linear(gate, computational_state(PauliIndex((2,))))
        assert np.array_equal(out.P, computational_state(PauliIndex((1,))).P)

    @pytest.mark.parametrize("k", range(4))
    def test_arity_zero_gate_is_completely_positive(self, k):
        """The gate of order (0, 1) that prepares |k] has the density of |k] as its
        Choi matrix: I/2 for k = 0 and (I + sigma_k)/2 otherwise."""
        gate = synthesize_quantum(TruthTable(0, (k,)))
        assert (gate.n_in, gate.n_out) == (0, 1)
        want = (SIGMA[0] + (SIGMA[k] if k else 0)) / 2
        np.testing.assert_allclose(choi_matrix(gate), want, rtol=0, atol=1e-15)
        assert analyze_gate(gate).completely_positive


class TestUnitalRealizability:
    def test_examples(self):
        assert not unital_realizable(builtin("luk_neg"))
        assert unital_realizable(builtin("min"))
        assert unital_realizable(builtin("const2"))
        assert not unital_realizable(builtin("I0"))
        assert not unital_realizable(builtin("bar_neg"))
        assert not unital_realizable(builtin("g1"))
        assert not unital_realizable(builtin("g3"))

    def test_barrier_column(self):
        # every non-realizable table leaves a nonzero translation entry
        for t in ALL_UNARY:
            gate = synthesize_quantum(t)
            if not unital_realizable(t):
                assert gate.entries[t.outputs[0], 0] == 1.0


class TestExtendedSynthesis:
    def test_rejects_realizable(self):
        with pytest.raises(NumericContractError):
            synthesize_unital_extended(builtin("min"))

    def test_luk_neg_extended_is_unital(self):
        gate = synthesize_unital_extended(builtin("luk_neg"))
        assert gate.entries.shape == (16, 16)
        col0 = gate.entries[:, 0]
        assert col0[0] == 1.0 and not np.any(col0[1:])

    def test_luk_neg_extended_action(self):
        gate = synthesize_unital_extended(builtin("luk_neg"))
        # ancilla (last ququat) nonzero: negate the data wire, pass ancilla
        out = apply_linear(gate, computational_state(PauliIndex((1, 2))))
        assert np.array_equal(out.P, computational_state(PauliIndex((2, 2))).P)
        # ancilla zero: collapse to |0,0]
        out = apply_linear(gate, computational_state(PauliIndex((1, 0))))
        assert np.array_equal(out.P, computational_state(PauliIndex((0, 0))).P)

    def test_luk_neg_matches_published_expansion_up_to_swap(self):
        # the published two-ququat expansion |00)(00| + sum_k |k,~l)(k,l|
        # carries the ancilla on the FIRST ququat; ours carries it last.
        published = np.zeros((16, 16))
        published[0, 0] = 1.0
        for k in (1, 2, 3):
            for l in range(4):
                published[4 * k + (3 - l), 4 * k + l] = 1.0
        swap = swap_pseudo_gate().matrix.real
        mine = synthesize_unital_extended(builtin("luk_neg")).entries
        assert np.array_equal(swap @ published @ swap, mine)

    def test_extended_verify_mode(self):
        for name in ("luk_neg", "bar_neg", "g1", "g3", "I0"):
            t = builtin(name)
            gate = synthesize_unital_extended(t)
            assert verify_realization(gate, t, mode="extended")

    def test_sheffer_three_ququat(self):
        gate = synthesize_unital_extended(builtin("v4"))
        assert gate.entries.shape == (64, 64)
        out = apply_linear(gate, computational_state(PauliIndex((1, 2, 3))))
        # V4(1,2) = 3, ~3 = 0, ancilla passes through
        assert np.array_equal(out.P, computational_state(PauliIndex((3, 0, 3))).P)
        out = apply_linear(gate, computational_state(PauliIndex((1, 2, 0))))
        assert np.array_equal(out.P, computational_state(PauliIndex((0, 0, 0))).P)
        col0 = gate.entries[:, 0]
        assert col0[0] == 1.0 and not np.any(col0[1:])


def cd_gate_from_published_terms():
    """Two-ququat conjunction/disjunction gate, transcribed term by term."""
    e = np.eye(16)
    idx = lambda a, b: 4 * a + b
    for k in (1, 2, 3):
        e[:, idx(k, 0)] += np.eye(16)[idx(0, k)] - np.eye(16)[idx(k, 0)]
    for k in (2, 3):
        e[:, idx(k, 1)] += np.eye(16)[idx(1, k)] - np.eye(16)[idx(k, 1)]
    e[:, idx(3, 2)] += np.eye(16)[idx(2, 3)] - np.eye(16)[idx(3, 2)]
    from ququat import gate_from_matrix

    return gate_from_matrix(e)


class TestCDGate:
    def test_published_terms_realize_min_max(self):
        gate = cd_gate_from_published_terms()
        assert verify_realization(gate, [builtin("min"), builtin("max")])

    def test_matches_synthesis(self):
        gate = cd_gate_from_published_terms()
        ours = synthesize_quantum([builtin("min"), builtin("max")])
        assert np.array_equal(gate.entries, ours.entries)

    def test_unital(self):
        gate = synthesize_quantum([builtin("min"), builtin("max")])
        col0 = gate.entries[:, 0]
        assert col0[0] == 1.0 and not np.any(col0[1:])


# -- the per-input loops that the flat-index kernel replaced, as oracles --------


def _flat(digits):
    idx = 0
    for d in digits:
        idx = 4 * idx + d
    return idx


def _loop_call(table, xs):
    return table.outputs[_flat(xs)]


def _loop_compose(outer, inners):
    m = inners[0].arity
    return tuple(
        _loop_call(outer, [_loop_call(t, xs) for t in inners])
        for xs in itertools.product(range(4), repeat=m)
    )


def _loop_scalar(tables, nu):
    return _flat([t.outputs[nu] for t in tables])


def _loop_synthesis(tables):
    n, m = tables[0].arity, len(tables)
    entries = np.zeros((4**m, 4**n))
    g0 = _loop_scalar(tables, 0)
    entries[0, 0] = 1.0
    if g0 != 0:
        entries[g0, 0] = 1.0
    for nu in range(1, 4**n):
        gv = _loop_scalar(tables, nu)
        if gv != 0:
            entries[gv, nu] += 1.0
        if g0 != 0:
            entries[g0, nu] -= 1.0
    return entries


def _loop_extended_map(table):
    n = table.arity
    out = []
    for slot in range(n + 1):
        outs = []
        for *xs, anc in itertools.product(range(4), repeat=n + 1):
            if anc == 0:
                outs.append(0)
            elif slot == n:
                outs.append(anc)
            else:
                g = _loop_call(table, xs)
                outs.append(g if slot % 2 == 0 else 3 - g)
        out.append(tuple(outs))
    return out


def _loop_verify(entries, tables):
    n, m = tables[0].arity, len(tables)
    if entries.shape != (4**m, 4**n):
        return False
    for nu in range(4**n):
        vin = np.zeros(4**n)
        vin[0] = 1.0
        vin[nu] = 1.0
        expected = np.zeros(4**m)
        expected[0] = 1.0
        expected[_loop_scalar(tables, nu)] = 1.0
        with np.errstate(invalid="ignore"):  # 0 * inf in the product
            image = entries @ vin
        if not np.array_equal(image, expected):
            return False
    return True


def _random_tables(rng, arity, count):
    return tuple(TruthTable(arity, tuple(rng.integers(0, 4, 4**arity).tolist()))
                 for _ in range(count))


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


_SHAPES = [(n, m) for n in range(4) for m in (1, 2, 3)]


@pytest.mark.parametrize("n,m", _SHAPES)
def test_synthesis_matches_the_per_column_loop(n, m):
    rng = np.random.default_rng([n, m])
    for _ in range(4):
        tables = _random_tables(rng, n, m)
        assert _same_bits(synthesize_quantum(tables).entries, _loop_synthesis(tables))
    # g(0) = 0 and a constant map, the two ends of column 0
    zero = (TruthTable(n, (0,) * 4**n),) * m
    assert _same_bits(synthesize_quantum(zero).entries, _loop_synthesis(zero))
    three = (TruthTable(n, (3,) * 4**n),) * m
    assert _same_bits(synthesize_quantum(three).entries, _loop_synthesis(three))


@pytest.mark.parametrize("n", range(4))
def test_extended_map_matches_the_per_input_loop(n):
    rng = np.random.default_rng(n)
    for (table,) in [_random_tables(rng, n, 1) for _ in range(4)]:
        mapped = _extended_map(table)
        assert [t.outputs for t in mapped] == _loop_extended_map(table)
        assert _same_bits(synthesize_quantum(mapped).entries, _loop_synthesis(mapped))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m", range(4))
def test_compose_matches_the_per_input_loop(k, m):
    rng = np.random.default_rng([k, m])
    for _ in range(4):
        (outer,) = _random_tables(rng, k, 1)
        inners = _random_tables(rng, m, k)
        assert compose_classical(outer, inners).outputs == _loop_compose(outer, inners)


@pytest.mark.parametrize("n,m", _SHAPES)
def test_verify_matches_the_per_input_loop(n, m):
    rng = np.random.default_rng([n, m, 1])
    tables = _random_tables(rng, n, m)
    good = synthesize_quantum(tables).entries
    gates = [good, synthesize_quantum(_random_tables(rng, n, m)).entries]
    for value in (np.nan, np.inf, -np.inf, 1.0, -1.0, 2.0):
        for at in [(0, 0), (0, good.shape[1] - 1), tuple(rng.integers(0, good.shape))]:
            bad = good.copy()
            bad[at] = value
            gates.append(bad)
    verdicts = [verify_realization(GateMatrix(n, m, e, "general"), tables) for e in gates]
    assert verdicts == [_loop_verify(e, tables) for e in gates]
    assert verdicts[0] is True
    assert not verify_realization(GateMatrix(n + 1, m, np.eye(4**m, 4 ** (n + 1)), "general"),
                                  tables)


@pytest.mark.parametrize("n", range(3))
def test_extended_verify_matches_the_per_input_loop(n):
    rng = np.random.default_rng([n, 2])
    for (table,) in [_random_tables(rng, n, 1) for _ in range(3)]:
        mapped = tuple(TruthTable(n + 1, o) for o in _loop_extended_map(table))
        good = _loop_synthesis(mapped)
        gates = [good]
        for value in (np.nan, np.inf, -np.inf, 1.0):
            bad = good.copy()
            bad[tuple(rng.integers(0, good.shape))] = value
            gates.append(bad)
        verdicts = [verify_realization(GateMatrix(n + 1, n + 1, e, "general"), table,
                                       mode="extended") for e in gates]
        assert verdicts == [_loop_verify(e, mapped) for e in gates]
        assert verdicts[0] is True
