"""The benchmark's workloads: seeded inputs, timed jobs and their checks.

A workload builds all of its inputs from the seed when it is created.  It
hands out rounds of jobs; every round of a workload runs the same
operations on inputs of the same size, so any whole number of rounds keeps
the mix of job sizes fixed.  ``Job.run`` is the timed part.  ``Job.check``
runs afterwards, untimed, and compares the output with the reference
computations in :mod:`reference`, which never call the package.

The package is reached only through module attributes looked up at call
time (``ququat.cli.main``, ``ququat.circuits.run_circuit``), so the tracer's
wrappers see the calls while they are installed.
"""

from __future__ import annotations

import contextlib
import io
from functools import partial
import json
import sys

import numpy as np

import reference as ref

TOL = 1e-9


class JobFailed(Exception):
    """The program refused an operation (non-zero exit or an exception)."""


class Job:
    """One timed operation; ``output`` is set by the runner after ``run``."""

    counts_as_job = True
    output = None

    def run(self):
        raise NotImplementedError

    def check(self, output) -> list[str]:
        return []


class CliJob(Job):
    """An in-process ``ququat`` command with JSON on stdin and captured stdout."""

    def __init__(self, argv, text, check):
        self.argv = list(argv)
        self.text = text
        self._check = check

    def run(self):
        if self.text is None:
            raise JobFailed("input missing: the job producing it failed")
        import ququat.cli

        stdin, out = io.StringIO(self.text), io.StringIO()
        saved, sys.stdin = sys.stdin, stdin
        try:
            with contextlib.redirect_stdout(out):
                code = ququat.cli.main(self.argv)
        finally:
            sys.stdin = saved
        if code != 0:
            raise JobFailed(f"ququat {' '.join(self.argv)} exited {code}")
        return out.getvalue()

    def check(self, output) -> list[str]:
        return self._check(json.loads(output))


# -- seeded inputs --------------------------------------------------------------


def haar_unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_density(rng, d: int, mix: float = 0.0) -> np.ndarray:
    """Ginibre state, mixed with the maximally mixed state by weight ``mix``."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return (1 - mix) * rho + mix * np.eye(d) / d


def random_hermitian(rng, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (g + g.conj().T) / 2


def stinespring_kraus(rng, d: int, rank: int) -> list[np.ndarray]:
    """Trace-preserving Kraus operators: blocks of a random isometry."""
    v = haar_unitary(rng, d * rank)[:, :d]
    return [v[j * d : (j + 1) * d] for j in range(rank)]


def basis_projectors(rng, d: int, parts: int) -> list[np.ndarray]:
    """A complete family of ``parts`` orthogonal projectors of equal rank."""
    b = haar_unitary(rng, d)
    w = d // parts
    return [b[:, k * w : (k + 1) * w] @ b[:, k * w : (k + 1) * w].conj().T for k in range(parts)]


def enc_complex(m) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def enc_pvec(rho) -> dict:
    p = ref.pvec(rho)
    return {"n": int(np.log2(rho.shape[0])), "P": [float(x) for x in p]}


def _targets(rng, n: int, k: int) -> list[int]:
    return [int(t) for t in rng.permutation(n)[:k]]


NAMED_CP = ("rot1", "rot2", "pauli_k", "hadamard", "not")


def step_named(rng, n):
    name = NAMED_CP[rng.integers(len(NAMED_CP))]
    param = {"rot1": rng.uniform(0, 2 * np.pi), "rot2": rng.uniform(0, 2 * np.pi),
             "pauli_k": int(rng.integers(1, 4))}.get(name)
    t = _targets(rng, n, 1)
    doc = {"named": name, "targets": t}
    if param is not None:
        doc["param"] = float(param) if name != "pauli_k" else param
    return doc, partial(ref.kraus_step, [ref.named_unitary(name, param)], t, n)


def step_unitary(rng, n, k):
    u = haar_unitary(rng, 2**k)
    t = _targets(rng, n, k)
    return {"unitary": enc_complex(u), "targets": t}, partial(ref.kraus_step, [u], t, n)


KRAUS_RANK = 3


def step_kraus(rng, n, k):
    ops = stinespring_kraus(rng, 2**k, KRAUS_RANK)
    t = _targets(rng, n, k)
    return {"kraus": {"ops": [enc_complex(a) for a in ops]}, "targets": t}, partial(ref.kraus_step, ops, t, n)


def step_lindblad(rng, n, k):
    d = 2**k
    h = random_hermitian(rng, d)
    jumps = [0.5 * (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) for _ in range(2)]
    time_ = float(rng.uniform(0.2, 1.0))
    t = _targets(rng, n, k)
    doc = {"lindblad": {"H": enc_complex(h), "V": [enc_complex(v) for v in jumps], "t": time_},
           "targets": t}
    return doc, partial(ref.lindblad_step, h, jumps, time_, t, n)


def step_table(rng, n):
    outputs = list(ref.ROTATION_TABLES)[rng.integers(len(ref.ROTATION_TABLES))]
    t = _targets(rng, n, 1)
    doc = {"table": {"arity": 1, "outputs": list(outputs)}, "targets": t}
    return doc, partial(ref.kraus_step, [ref.ROTATION_TABLES[outputs]], t, n)


def step_measure(rng, n, post_select=None):
    projs = basis_projectors(rng, 2, 2)
    t = _targets(rng, n, 1)
    doc = {"measure": {"projectors": [enc_complex(p) for p in projs]}, "targets": t}
    if post_select is not None:
        doc["post_select"] = post_select
    return doc, partial(ref.measure_step, projs, t, n, post_select)


def local_circuit(rng, n: int, post_select: bool):
    """Steps on one or two ququats: (JSON steps, builders of reference steps).

    The reference steps are built when an output is checked, so that their
    cost stays out of set-up and timing.

    With ``post_select`` the third step is a post-selected measurement.  It
    follows only unitary steps, so on an initial state whose eigenvalues
    are at least 1/(2d) its outcome probability is at least 1/4.
    """
    made = [step_named(rng, n), step_unitary(rng, n, 2)]
    if post_select:
        made.append(step_measure(rng, n, int(rng.integers(2))))
    made += [step_kraus(rng, n, 2), step_lindblad(rng, n, 2), step_table(rng, n),
             step_measure(rng, n)]
    if not post_select:
        made.append(step_unitary(rng, n, 1))
    return [doc for doc, _ in made], [build for _, build in made]


def _max_diff(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a, dtype=float) - np.asarray(b, dtype=float))))


def check_run(steps_out, expected, where: str) -> list[str]:
    """Compare per-step Pauli vectors and probabilities with a reference run.

    ``steps_out`` holds (P, probabilities or None); ``expected`` is the
    output of :func:`reference.simulate`.
    """
    if len(steps_out) != len(expected):
        return [f"{where}: {len(steps_out)} steps, expected {len(expected)}"]
    problems = []
    for i, ((p, probs), (rho, want_probs)) in enumerate(zip(steps_out, expected)):
        diff = _max_diff(p, ref.pvec(rho))
        if diff > TOL:
            problems.append(f"{where} step {i}: state differs by {diff:.3g}")
        if (probs is None) != (want_probs is None) or (
            probs is not None and _max_diff(probs, want_probs) > TOL
        ):
            problems.append(f"{where} step {i}: probabilities {probs} != {want_probs}")
    return problems


# -- workloads ------------------------------------------------------------------


class Workload:
    name = ""
    # rounds in a traced run: a fixed amount of work, so counts repeat
    trace_rounds = 1

    def round(self, index: int):
        """Jobs of one round; a generator, resumed after each job has run."""
        raise NotImplementedError

    def warmup(self):
        """Jobs run untimed before timing starts."""
        return self.round(0)

    def untimed_checks(self) -> list[str]:
        return []


class SimulateLocal(Workload):
    """``ququat simulate`` on n=4 circuits of one- and two-ququat steps."""

    name = "simulate-local"
    n = 4
    pool = 8
    trace_rounds = 3

    def __init__(self, seed: int):
        self.docs, self.refs, self.expected = [], [], {}
        for i in range(self.pool):
            rng = np.random.default_rng([seed, i])
            steps, builders = local_circuit(rng, self.n, post_select=True)
            rho0 = random_density(rng, 2**self.n, mix=0.5)
            doc = {"circuit": {"n": self.n, "steps": steps}, "initial": enc_pvec(rho0)}
            self.docs.append(json.dumps(doc))
            self.refs.append((builders, rho0))

    def round(self, index):
        i = index % self.pool
        yield CliJob(["simulate"], self.docs[i], lambda out: self.check(i, out))

    def check(self, i, out) -> list[str]:
        if i not in self.expected:
            builders, rho0 = self.refs[i]
            # The steps are dropped after use: at n=4 the Lindblad step alone
            # holds 2 MiB, which would otherwise count in peak_rss_mb.
            steps = [build() for build in builders]
            self.expected[i] = ([s.post_select for s in steps], ref.simulate(steps, rho0))
        posts, expected = self.expected[i]
        steps = [(s["state"]["P"], s["probabilities"]) for s in out["steps"]]
        problems = check_run(steps, expected, f"circuit {i}")
        cumulative = 1.0
        for s, (_, probs), post in zip(out["steps"], expected, posts):
            if post is not None:
                cumulative *= probs[post]
                if abs(s["probability"] - probs[post]) > TOL:
                    problems.append(f"circuit {i}: post-selection probability {s['probability']}")
        if abs(out["cumulative_probability"] - cumulative) > TOL:
            problems.append(f"circuit {i}: cumulative probability {out['cumulative_probability']}")
        if out["final_state"] != out["steps"][-1]["state"]:
            problems.append(f"circuit {i}: final state is not the last step's state")
        return problems


def transpose_gate_entries(n: int) -> np.ndarray:
    """Transfer matrix of rho -> rho^T: sigma_y flips sign, the rest stay."""
    signs = [(-1.0) ** sum(d == 2 for d in digits) for digits in np.ndindex(*([4] * n))]
    return np.diag(signs)


def check_channel_gate(out, kraus_ops, states, what: str) -> list[str]:
    """E P(rho) must equal P(Phi(rho)) for every test state."""
    n = int(np.log2(kraus_ops[0].shape[0]))
    e = np.array(out["entries"], dtype=float)
    if e.shape != (4**n, 4**n) or out["n_in"] != n or out["n_out"] != n:
        return [f"{what}: gate of shape {e.shape}"]
    problems = [] if out["kind"] == "trace_preserving" else [f"{what}: kind {out['kind']}"]
    for k, rho in enumerate(states):
        image = sum(a @ rho @ a.conj().T for a in kraus_ops)
        diff = _max_diff(e @ ref.pvec(rho), ref.pvec(image))
        if diff > TOL:
            problems.append(f"{what}: E P(rho_{k}) differs from P(Phi(rho_{k})) by {diff:.3g}")
    return problems


def check_flags(out, want: dict, what: str) -> list[str]:
    return [f"{what}: {key} is {out.get(key)}, expected {val}"
            for key, val in want.items() if out.get(key) is not val]


class GateWide(Workload):
    """Full-register n=4 gates built, analysed and measured through the CLI."""

    name = "gate-wide"
    n = 4
    pool = 8
    trace_rounds = 4
    measure_parts = 4
    test_states = 3

    def __init__(self, seed: int):
        d = 2**self.n
        self.inputs = []
        for i in range(self.pool):
            rng = np.random.default_rng([seed, i])
            u = haar_unitary(rng, d)
            kraus = stinespring_kraus(rng, d, KRAUS_RANK)
            projs = basis_projectors(rng, d, self.measure_parts)
            rho = random_density(rng, d)
            states = [random_density(rng, d) for _ in range(self.test_states)]
            self.inputs.append({
                "u": u, "kraus": kraus, "projs": projs, "rho": rho, "states": states,
                "u_text": json.dumps({"U": enc_complex(u)}),
                "kraus_text": json.dumps({"ops": [enc_complex(a) for a in kraus]}),
                "measure_text": json.dumps({"projectors": [enc_complex(p) for p in projs],
                                            "state": enc_pvec(rho)}),
            })
        entries = transpose_gate_entries(self.n)
        self.transpose_text = json.dumps({"entries": entries.tolist()})

    def round(self, index):
        inp = self.inputs[index % self.pool]
        made = CliJob(["gate", "from-unitary"], inp["u_text"],
                      lambda out: check_channel_gate(out, [inp["u"]], inp["states"], "unitary gate"))
        yield made
        yield CliJob(["gate", "analyze"], made.output, lambda out: check_flags(
            out, {"real": True, "trace_preserving": True, "unital": True, "orthogonal": True,
                  "completely_positive": True}, "unitary analysis"))
        made = CliJob(["gate", "from-kraus"], inp["kraus_text"],
                      lambda out: check_channel_gate(out, inp["kraus"], inp["states"], "Kraus gate"))
        yield made
        yield CliJob(["gate", "analyze"], made.output, lambda out: check_flags(
            out, {"trace_preserving": True, "completely_positive": True}, "Kraus analysis"))
        yield CliJob(["measure"], inp["measure_text"],
                     lambda out: self.check_measure(out, inp["projs"], inp["rho"]))
        yield CliJob(["gate", "analyze"], self.transpose_text, self.check_transpose)

    @staticmethod
    def check_measure(out, projs, rho) -> list[str]:
        want = [np.trace(p @ rho).real for p in projs]
        problems = []
        if len(out["probabilities"]) != len(want) or _max_diff(out["probabilities"], want) > TOL:
            problems.append(f"measure: probabilities {out['probabilities']} != {want}")
        elif abs(sum(out["probabilities"]) - 1.0) > TOL:
            problems.append(f"measure: probabilities sum to {sum(out['probabilities'])}")
        return problems

    @staticmethod
    def check_transpose(out) -> list[str]:
        # the Choi matrix of the transpose map is the swap, spectrum {-1, 1}
        problems = check_flags(out, {"trace_preserving": True, "completely_positive": False},
                               "transpose analysis")
        if abs(out["min_choi_eigenvalue"] + 1.0) > 1e-12:
            problems.append(f"transpose analysis: min Choi eigenvalue {out['min_choi_eigenvalue']}")
        return problems


class ParseJob(Job):
    """``parse_circuit`` once per pass; timed, but not counted as a job."""

    counts_as_job = False

    def __init__(self, doc):
        self.doc = doc

    def run(self):
        import ququat.circuits

        return ququat.circuits.parse_circuit(self.doc)


class RunJob(Job):
    """One ``run_circuit`` call on a parsed circuit."""

    def __init__(self, parsed: ParseJob, state, check):
        self.parsed = parsed
        self.state = state
        self._check = check

    def run(self):
        import ququat.circuits

        if self.parsed.output is None:
            raise JobFailed("circuit did not parse")
        return ququat.circuits.run_circuit(self.parsed.output, self.state)

    def check(self, record) -> list[str]:
        return self._check(record)


class StateSweep(Workload):
    """``run_circuit`` on hundreds of initial states per parsed n=3 circuit."""

    name = "state-sweep"
    n = 3
    pool = 4
    states = 300
    trace_rounds = 8

    def __init__(self, seed: int):
        from ququat.liouville import PauliVector

        d = 2**self.n
        self.passes = []
        for i in range(self.pool):
            rng = np.random.default_rng([seed, i])
            steps, builders = local_circuit(rng, self.n, post_select=False)
            rhos = []
            for k in range(self.states):
                if k % 2 == 0:
                    # computational state |mu] = (I + sigma_mu) / 2**n, or I / 2**n
                    mu = int(rng.integers(4**self.n))
                    p = np.zeros(4**self.n)
                    p[0] = 1.0
                    p[mu] = 1.0
                    rhos.append(ref.density(p))
                else:
                    rhos.append(random_density(rng, d))
            initial = [PauliVector(self.n, ref.pvec(r)) for r in rhos]
            self.passes.append(({"n": self.n, "steps": steps}, builders, rhos, initial))
        self.ref_steps = {}

    def round(self, index):
        i = index % self.pool
        doc, _, rhos, initial = self.passes[i]
        parsed = ParseJob(doc)
        yield parsed
        for rho, state in zip(rhos, initial):
            yield RunJob(parsed, state, lambda rec, rho=rho: self.check(rec, i, rho))

    def check(self, record, i, rho) -> list[str]:
        if i not in self.ref_steps:
            self.ref_steps[i] = [build() for build in self.passes[i][1]]
        steps = [(s.state.P, s.probabilities) for s in record.steps]
        problems = check_run(steps, ref.simulate(self.ref_steps[i], rho), "sweep")
        if record.cumulative_probability != 1.0:
            problems.append(f"sweep: cumulative probability {record.cumulative_probability}")
        return problems


# Builtin tables written out here; x is the most significant input digit.
V4 = (2, tuple((max(a, b) + 1) % 4 for a in range(4) for b in range(4)))
MAX = (2, tuple(max(a, b) for a in range(4) for b in range(4)))
CYCLIC_SHIFT = (1, (1, 2, 3, 0))


def conjugate_table(table, perm) -> tuple[int, tuple[int, ...]]:
    """The table of pi . g . pi^-1: the clone it generates is the image under pi."""
    arity, outputs = table
    inv = np.argsort(perm)
    out = []
    for flat in range(4**arity):
        digits = [(flat >> (2 * (arity - 1 - i))) & 3 for i in range(arity)]
        src = 0
        for dgt in digits:
            src = 4 * src + int(inv[dgt])
        out.append(int(perm[outputs[src]]))
    return arity, tuple(out)


def pseudo_gate_set(entangler: bool) -> list[np.ndarray]:
    """Left/right multiplications by the 2x2 matrix units on either factor.

    In the Pauli coefficient basis of one ququat, L_A[mu, nu] =
    Tr(sigma_mu A sigma_nu) / 2 and R_A[mu, nu] = Tr(sigma_mu sigma_nu A) / 2.
    The entangler is the two-ququat superoperator unit |0,1)(1,0|.
    """
    paulis = ref.pauli_strings(1)
    eye4 = np.eye(4)
    out = []
    for a in range(2):
        for b in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[a, b] = 1.0
            left = np.einsum("mij,jk,nki->mn", paulis, unit, paulis) / 2
            right = np.einsum("mij,njk,ki->mn", paulis, paulis, unit) / 2
            out += [np.kron(left, eye4), np.kron(eye4, left), np.kron(right, eye4),
                    np.kron(eye4, right)]
    if entangler:
        e = np.zeros((16, 16), dtype=complex)
        e[1, 4] = 1.0
        out.append(e)
    return out


def matrix_units_chain(size: int) -> list[np.ndarray]:
    out = []
    for a in range(size - 1):
        e = np.zeros((size, size), dtype=complex)
        e[a, a + 1] = 1.0
        out.append(e)
    return out


def check_closure(out, unary_clone: set, budget: int, what: str) -> list[str]:
    problems = []
    keys = [(t["arity"], tuple(t["outputs"])) for t in out["tables"]]
    if len(set(keys)) != len(keys):
        problems.append(f"{what}: tables repeat")
    if out["count"] != len(keys) or sum(out["count_by_arity"].values()) != out["count"]:
        problems.append(f"{what}: counts {out['count']} {out['count_by_arity']} for {len(keys)} tables")
    for m, c in out["count_by_arity"].items():
        if c != sum(1 for a, _ in keys if a == int(m)):
            problems.append(f"{what}: count_by_arity[{m}] = {c} disagrees with the tables")
    if not out["complete"] and out["count"] != budget:
        problems.append(f"{what}: incomplete search kept {out['count']} tables, budget {budget}")
    unary = {o for a, o in keys if a == 1}
    if unary != unary_clone:
        problems.append(f"{what}: {len(unary)} unary tables, the clone has {len(unary_clone)}")
    return problems


def check_dimension(out, want: int, what: str) -> list[str]:
    return [] if out["dimension"] == want else [f"{what}: dimension {out['dimension']} != {want}"]


def _conjugated(mats, u) -> list[np.ndarray]:
    return [u @ m @ u.conj().T for m in mats]


class ClosureSearch(Workload):
    """``mvlogic closure`` and ``universality closure-dim`` on builtin sets.

    The seed conjugates the sets, by a permutation of the four values for
    tables and by a unitary for matrices; this changes the inputs but not
    the size of either search, and the closed-form answers still hold.
    """

    name = "closure-search"
    pool = 2
    trace_rounds = 1
    budgets = (5000, 2000)
    max_iter = 60

    def __init__(self, seed: int):
        self.inputs = []
        for i in range(self.pool):
            rng = np.random.default_rng([seed, i])
            perm = rng.permutation(4)
            sets = ([conjugate_table(V4, perm)],
                    [conjugate_table(CYCLIC_SHIFT, perm), conjugate_table(MAX, perm)])
            u = haar_unitary(rng, 16)
            texts = [json.dumps({"generators": [{"arity": a, "outputs": list(o)} for a, o in gens],
                                 "budget": budget})
                     for gens, budget in zip(sets, self.budgets)]
            dim_text = json.dumps({"generators": [enc_complex(m) for m in
                                                  _conjugated(pseudo_gate_set(True), u)],
                                   "max_iter": self.max_iter})
            self.inputs.append((sets, texts, dim_text))
        rng = np.random.default_rng([seed, self.pool])
        # untimed cases: (generators, closed-form dimension)
        self.small_cases = [
            (_conjugated(pseudo_gate_set(False), haar_unitary(rng, 16)), 26),
            (_conjugated(matrix_units_chain(4), haar_unitary(rng, 4)), 12),
            (_conjugated([ref.X, ref.Z], haar_unitary(rng, 2)), 6),
        ]
        self._clones = {}

    def _clone(self, gens):
        key = tuple(gens)
        if key not in self._clones:
            self._clones[key] = ref.unary_clone(gens)
        return self._clones[key]

    def round(self, index):
        sets, texts, dim_text = self.inputs[index % self.pool]
        for gens, text, budget in zip(sets, texts, self.budgets):
            yield CliJob(["mvlogic", "closure"], text,
                         lambda out, g=gens, b=budget: check_closure(out, self._clone(g), b, "closure"))
        yield CliJob(["universality", "closure-dim"], dim_text,
                     lambda out: check_dimension(out, 512, "entangler set"))

    def warmup(self):
        sets, _, _ = self.inputs[0]
        text = json.dumps({"generators": [{"arity": a, "outputs": list(o)} for a, o in sets[0]],
                           "budget": 300})
        yield CliJob(["mvlogic", "closure"], text,
                     lambda out: check_closure(out, self._clone(sets[0]), 300, "warm-up closure"))

    def untimed_checks(self) -> list[str]:
        problems = []
        for gens, want in self.small_cases:
            job = CliJob(["universality", "closure-dim"],
                         json.dumps({"generators": [enc_complex(m) for m in gens],
                                     "max_iter": self.max_iter}),
                         lambda out, w=want: check_dimension(out, w, f"{len(gens)} generators"))
            try:
                problems += job.check(job.run())
            except JobFailed as exc:
                problems.append(str(exc))
        return problems


WORKLOADS = {w.name: w for w in (SimulateLocal, GateWide, StateSweep, ClosureSearch)}
