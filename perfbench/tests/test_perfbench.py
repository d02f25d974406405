"""The benchmark's own tests: each check rejects a perturbed output, the
reference conventions hold, and the tracer leaves nothing behind.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads as wl  # noqa: E402


def run_round(workload, index=0):
    """Run one round untimed; return (job, output) pairs, outputs checked clean."""
    done = []
    for job in workload.round(index):
        job.output = job.run()
        assert job.check(job.output) == []
        done.append((job, job.output))
    return done


def edited(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


# -- reference conventions ----------------------------------------------------


def test_rotation_tables_cycle_the_axes():
    for outputs, u in ref.ROTATION_TABLES.items():
        for src in (1, 2, 3):
            image = u @ ref.PAULI[src] @ u.conj().T
            assert np.allclose(image, ref.PAULI[outputs[src]], atol=1e-12)


def test_embed_places_operator_on_targets():
    a, b = wl.haar_unitary(np.random.default_rng(0), 2), wl.haar_unitary(np.random.default_rng(1), 2)
    full = np.kron(np.kron(a, np.eye(2)), b)
    assert np.allclose(ref.embed(np.kron(b, a), [2, 0], 3), full, atol=1e-12)


def test_unary_clone_of_v4_is_everything():
    assert len(ref.unary_clone([wl.V4])) == 256
    assert ref.unary_clone([wl.CYCLIC_SHIFT]) == {tuple((x + k) % 4 for x in range(4)) for k in range(4)}


# -- each check rejects a perturbed output ------------------------------------


class SmallSimulate(wl.SimulateLocal):
    n = 2
    pool = 1


def test_simulate_check_rejects_changed_state_entry():
    w = SmallSimulate(seed=3)
    (job, out), = run_round(w)
    bad = edited(out, lambda d: d["steps"][4]["state"]["P"].__setitem__(5, d["steps"][4]["state"]["P"][5] + 1e-6))
    assert job.check(bad)
    bad = edited(out, lambda d: d["steps"][2].__setitem__("probability", d["steps"][2]["probability"] + 1e-6))
    assert job.check(bad)


class SmallGates(wl.GateWide):
    n = 2
    pool = 1


@pytest.fixture(scope="module")
def gate_round():
    return run_round(SmallGates(seed=4))


def test_gate_check_rejects_changed_gate_entry(gate_round):
    for job, out in (gate_round[0], gate_round[2]):
        bad = edited(out, lambda d: d["entries"][5].__setitem__(7, d["entries"][5][7] + 1e-6))
        assert job.check(bad)


def test_analyze_checks_reject_wrong_flags(gate_round):
    for job, out in (gate_round[1], gate_round[3]):
        assert job.check(edited(out, lambda d: d.__setitem__("completely_positive", False)))
    job, out = gate_round[5]
    assert job.check(edited(out, lambda d: d.__setitem__("min_choi_eigenvalue", -1.0 + 1e-9)))
    assert job.check(edited(out, lambda d: d.__setitem__("completely_positive", True)))


def test_measure_check_rejects_changed_probability(gate_round):
    job, out = gate_round[4]
    assert job.check(edited(out, lambda d: d["probabilities"].__setitem__(0, d["probabilities"][0] + 1e-6)))


class SmallClosure(wl.ClosureSearch):
    pool = 1
    budgets = (300, 300)


def test_closure_check_rejects_dropped_table():
    w = SmallClosure(seed=5)
    jobs = w.round(0)
    job = next(jobs)
    out = job.run()
    assert job.check(out) == []
    doc = json.loads(out)
    unary = [i for i, t in enumerate(doc["tables"]) if t["arity"] == 1]
    # dropped table alone, then with every count made consistent with it
    dropped = copy.deepcopy(doc)
    del dropped["tables"][unary[-1]]
    assert job.check(json.dumps(dropped))
    dropped["count"] -= 1
    dropped["count_by_arity"]["1"] -= 1
    dropped["complete"] = True
    assert job.check(json.dumps(dropped))
    assert any("unary" in p for p in job.check(json.dumps(dropped)))


def test_dimension_check_rejects_off_by_one():
    w = SmallClosure(seed=5)
    assert w.untimed_checks() == []
    assert wl.check_dimension({"dimension": 512}, 512, "entangler") == []
    for dim in (511, 513):
        assert wl.check_dimension({"dimension": dim}, 512, "entangler")


class SmallSweep(wl.StateSweep):
    n = 2
    pool = 1
    states = 4


def test_sweep_check_rejects_changed_state_entry():
    done = run_round(SmallSweep(seed=6))
    job, record = done[2]
    steps = [types.SimpleNamespace(state=types.SimpleNamespace(P=np.array(s.state.P)),
                                   probabilities=s.probabilities) for s in record.steps]
    steps[3].state.P[9] += 1e-6
    fake = types.SimpleNamespace(steps=steps, cumulative_probability=1.0)
    assert job.check(fake)


def test_closure_tables_are_conjugated_not_renamed():
    perm = np.array([2, 0, 3, 1])
    arity, outputs = wl.conjugate_table(wl.CYCLIC_SHIFT, perm)
    # pi . shift . pi^-1 sends pi(x) to pi(x + 1)
    assert all(outputs[perm[x]] == perm[(x + 1) % 4] for x in range(4))


# -- the tracer ---------------------------------------------------------------


def _namespaces():
    return {(mod.__name__, attr): value for mod in tracer._ququat_modules()
            for attr, value in vars(mod).items()}


def test_tracer_counts_and_restores():
    import ququat.cli
    import ququat.gates
    import ququat.lindblad

    tracer.targets()  # imports the remaining traced module
    before = _namespaces()
    method = ququat.lindblad.LiouvillianSuperop.__dict__["to_pauli_generator"]
    tr = tracer.Tracer()
    tr.install()
    try:
        assert tracer.wrapped_attributes()
        assert hasattr(ququat.gates.choi_matrix, "__perfbench_original__")
        # the CLI sees the wrapper through its own namespace
        assert hasattr(ququat.cli.analyze_gate, "__perfbench_original__")
        gate = ququat.gates.gate_from_unitary(np.eye(2))
        ququat.cli.analyze_gate(gate)
    finally:
        tr.uninstall()
    assert tracer.wrapped_attributes() == []
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert ququat.lindblad.LiouvillianSuperop.__dict__["to_pauli_generator"] is method
    m = tr.metrics()
    assert m["gates.analyze_gate.calls"]["value"] == 1
    assert m["gates.choi_matrix.calls"]["value"] == 1
    assert m["gates.gate_from_unitary.calls"]["value"] == 1
    assert m["gates.choi_matrix.self_s"]["value"] > 0
    assert set(m) == {name for name, _, _ in tracer.per_layer_metrics()}


def test_timed_rounds_refuse_wrappers():
    import worker

    w = SmallSweep(seed=7)
    tr = tracer.Tracer()
    tr.install()
    try:
        with pytest.raises(RuntimeError, match="wrappers"):
            worker.timed_rounds(w, worker.Runner(), 0)
    finally:
        tr.uninstall()
    runner = worker.Runner()
    assert worker.timed_rounds(w, runner, 0) == 1
    assert runner.failed == 0 and runner.problems == [] and len(runner.job_times) == w.states


# -- the benchmark definition --------------------------------------------------


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert list(run.WORKLOADS) == list(wl.WORKLOADS)
    # state-sweep and closure-search are run by hand only; see the README
    assert [w["name"] for w in bench["workloads"]] == ["simulate-local", "gate-wide"]
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == tracer.per_layer_metrics()


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gate-wide", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
