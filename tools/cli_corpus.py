"""Output-identity corpus for the ``ququat`` CLI.

Runs a fixed corpus of commands in process through ``ququat.cli.main`` and
prints one line per case: the arguments, the sha256 of the input, the exit
code and the sha256 of stdout and of stderr.  The last line is a summary
that starts with ``#``.  Two checkouts print the same lines exactly when
every command writes the same bytes and exits alike, so comparing two
revisions is one ``diff``:

    python tools/cli_corpus.py --root PARENT_CHECKOUT > parent.txt
    python tools/cli_corpus.py > change.txt
    diff parent.txt change.txt

``--root`` names the checkout whose ``src/``, ``tests/`` and ``perfbench/``
are imported (by default the one holding this file).  The corpus is the
README examples of ``tests/test_cli.py``, every single-node mutant of
them, and every mutant that sets one numeric leaf to a float edge of
:data:`EDGE_FLOATS`, each in JSON and in ``--format text``; rounds 0-7 of
``GateWide(101)``, each job fed the output of the one before as the
benchmark does; the ``SimulateLocal(101)`` and ``(102)`` documents; and
the ``mvlogic``, measurement and edge commands below; and last, seeded
single-qubit Lindblad models and two witnesses at large coefficients, the
cases of certificates read at an operator's size, ``gate analyze`` of
gates whose Choi matrix is real, and of transpose maps with one tiny or
-0.0 odd-parity entry.  BLAS runs on one
thread, as with more threads two runs of one revision can differ in the
last bits.  The tool exits 1 when any case ends outside the CLI's exit
codes 0, 2, 3 and 4, such as in a traceback, or prints a non-finite
number: NaN or Infinity in JSON, a nan or inf cell in text.

Where outputs are meant to move only in their last bits, compare mode
says by how much:

    python tools/cli_corpus.py --against PARENT_CHECKOUT

runs the corpus in PARENT_CHECKOUT and in ``--root``, each in a child
process, and prints each case that differs with the largest absolute
move of a float on its stdout.  It exits 1 on a difference of any other
kind: exit code, stderr, JSON structure, a value that is not a float, a
JSON float that moves by more than :data:`LAST_BITS` times
max(1, |a|, |b|), or a text number that moves by more than one unit of
its last printed digit.

A change that moves output on purpose lists the cases it moves:

    python tools/cli_corpus.py --against PARENT_CHECKOUT --expect FILE

Each line of FILE names one case by its argv and input sha, as compare
mode prints them, and one kind of difference it shows, ``stdout``,
``stderr`` or ``exit``, separated by tabs; blank lines and lines starting
with ``#`` are skipped.  A listed case must differ beyond the last bits in
exactly its listed kinds: a listed case that does not, like a difference
that is not listed, exits 1.  A line with a wildcard is refused.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


# floats near the largest finite one, which overflow when summed or squared,
# and the smallest subnormal
EDGE_FLOATS = (1.7e308, -1.7e308, 5e-324)
EXIT_CODES = (0, 2, 3, 4)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()


def run_case(main, argv, text):
    """(exit code, stdout, stderr) of ``main(argv)`` with ``text`` on stdin."""
    out, err = io.StringIO(), io.StringIO()
    saved, sys.stdin = sys.stdin, io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse refused the arguments
                code = exc.code
            except Exception as exc:  # a traceback from the real CLI
                code = f"raised {type(exc).__name__}"
                err.write(f"{exc}\n")
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def _mvlogic_cases():
    """The ``mvlogic`` cases, in the protocol of :func:`corpus`: every builtin
    table, DNF and synthesis of small tables, verification of each gate
    against its table and against the negated one, and closure searches up
    to and just above the ceilings."""
    from ququat.mvlogic import BUILTIN_NAMES, builtin

    for name in BUILTIN_NAMES:
        for fmt in ("json", "text"):
            yield ["--format", fmt, "mvlogic", "table", name], ""
    tables = [{"arity": 1, "outputs": list(builtin(name).outputs)} for name in BUILTIN_NAMES]
    tables += [{"arity": a, "outputs": [(7 * i + i // 5) % 4 for i in range(4**a)]}
               for a in (0, 2, 3, 4)]
    for table in tables:
        text = json.dumps(table)
        for fmt in ("json", "text"):
            yield ["--format", fmt, "mvlogic", "dnf"], text
        negated = {**table, "outputs": [3 - v for v in table["outputs"]]}
        for extra, mode in (([], "plain"), (["--extended"], "extended")):
            code, out, _ = yield ["mvlogic", "synth", *extra], text
            for against in (table, negated) if code == 0 else ():
                doc = {"gate": json.loads(out), "table": against, "mode": mode}
                yield ["mvlogic", "verify"], json.dumps(doc)
    closures = [
        {"generators": ["v4"], "budget": 5000},
        {"generators": ["cyclic_shift", "max"], "budget": 2000},
        {"generators": ["g1", "g2", "g3"], "max_arity": 1, "budget": 400},
        {"generators": ["luk_neg", "min"], "max_arity": 3, "budget": 500},
        {"generators": ["max"], "max_arity": 6},
        {"generators": ["cyclic_shift"], "max_arity": 6},
        {"generators": ["v4"], "budget": 50000},
        {"generators": ["v4"], "budget": 50001},
        {"generators": ["v4"], "max_arity": 7},
    ]
    for doc in closures:
        for fmt in ("json", "text"):
            yield ["--format", fmt, "mvlogic", "closure"], json.dumps(doc)


def _measurement_cases():
    """The measurement cases, in the protocol of :func:`corpus`: each projector
    family through ``measure``, a ``simulate`` measurement step and
    ``reversible``, with and without ``post_select``.  The families are the
    edges of the projector certificate: P P - P just inside the tolerance
    with P^dagger P just inside (3e-11) or just above (9e-11) 1 + tolerance,
    also under ``--tol 1e-9``; P = I; an incomplete family; a non-orthogonal
    pair; mixed sizes; a 1x1 projector and one over the gate size ceiling;
    and the seeded Haar families of :func:`_haar_measurement_cases`."""
    import numpy as np

    def pair(eps):
        return [np.diag([1 + eps, 0.0]), np.diag([0.0, 1.0])]

    families = [
        pair(3e-11),
        pair(9e-11),
        [np.eye(2)],
        [np.diag([1.0, 0, 0, 0])],
        [np.diag([1.0, 0]), np.full((2, 2), 0.5)],
        [np.diag([1.0, 0]), np.diag([0, 0, 1.0, 1])],
        [np.eye(1)],
        [np.eye(64)],
    ]
    for projs in families:
        d = len(projs[0])
        n = max(d.bit_length() - 1, 1)
        state = {"n": n, "P": [1.0] + [0.0] * (4**n - 1)}
        encoded = [p.tolist() for p in projs]
        for tol in ([], ["--tol", "1e-9"]):
            for post in [None, *range(len(projs))]:
                extra = {} if post is None else {"post_select": post}
                doc = {"projectors": encoded, "state": state, **extra}
                yield [*tol, "measure"], json.dumps(doc)
                step = {"measure": {"projectors": encoded}, **extra}
                doc = {"circuit": {"n": n, "steps": [step]}, "initial": state}
                yield [*tol, "simulate"], json.dumps(doc)
            for p in encoded:
                doc = {"kraus": {"ops": [np.eye(d).tolist()]}, "projector": p}
                yield [*tol, "reversible"], json.dumps(doc)
    for op, p in (([[1, 0], [0, 1], [0, 0], [0, 0]], np.diag([1.0, 0])),
                  ([[1, 0, 0, 0], [0, 1, 0, 0]], np.diag([1.0, 1, 0, 0]))):
        doc = {"kraus": {"ops": [op]}, "projector": p.tolist()}
        yield ["reversible"], json.dumps(doc)
    yield from _haar_measurement_cases()


def _complex(m):
    import numpy as np

    return np.stack((m.real, m.imag), axis=-1).tolist()


def _haar_measurement_cases():
    """Seeded Haar projector families, each measured through ``measure`` and
    through a one-step ``simulate``, without and with every ``post_select``.
    A family on k ququats is cut from the columns of a Haar unitary, so its
    probabilities are not exact.  It is measured on the whole register
    (k = n) and on sub-register targets of n = k + 1 or k + 2 ququats, where
    ``measure`` gets the family tensored with the identity elsewhere."""
    import numpy as np

    placements = [(k, tuple(range(k)), seed) for k in (1, 2, 3) for seed in range(4)]
    placements += [(3, t, seed) for t in ((1,), (2, 0)) for seed in range(2)]
    placements += [(2, (1,), seed) for seed in range(2)]
    for n, targets, seed in placements:
        rng = np.random.default_rng([2020, n, len(targets), seed])
        k, d = len(targets), 2 ** len(targets)
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        v = np.linalg.qr(z)[0]
        cuts = sorted(rng.choice(np.arange(1, d), size=min(2, d - 1), replace=False))
        family = [v[:, a:b] @ v[:, a:b].conj().T for a, b in zip([0, *cuts], [*cuts, d])]
        # each projector on the targets, the identity on the other qubits
        order = [*targets, *(q for q in range(n) if q not in targets)]
        inverse = [order.index(q) for q in range(n)]
        axes = [*inverse, *(n + i for i in inverse)]
        wide = [np.kron(p, np.eye(2 ** (n - k))).reshape((2,) * (2 * n)).transpose(axes)
                .reshape(2**n, 2**n) for p in family]
        g = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
        rho = g @ g.conj().T
        state = {"entries": _complex(rho / np.trace(rho).real)}
        for post in [None, *range(len(family))]:
            extra = {} if post is None else {"post_select": post}
            doc = {"projectors": [_complex(p) for p in wide], "state": state, **extra}
            yield ["measure"], json.dumps(doc)
            step = {"measure": {"projectors": [_complex(p) for p in family]},
                    "targets": list(targets), **extra}
            doc = {"circuit": {"n": n, "steps": [step]}, "initial": state}
            yield ["simulate"], json.dumps(doc)


def _edge_cases():
    """Paths nothing above reaches: ``gate compose`` and ``gate tensor`` of one
    gate, ``universality pseudo`` on the right and with a bad side, ``mvlogic
    verify`` against a list of tables, and ``state validate`` of states whose
    purity or trace overflows.  Then, after all of those, the documents of
    :func:`_error_documents` and a gate's kind against its label: M, the
    identity with row 0 set to (1, 0.5, 0, 0) and labelled trace-preserving,
    through ``gate compose`` and ``gate tensor`` of [M, M] and as a
    ``simulate`` step, and a step of the identity labelled ``general``.  Last,
    a Lindblad model whose Pauli-basis generator has a top-row residue of
    about 2e-16, at t = 1e6, through ``gate from-lindblad`` and as a
    ``simulate`` step: its propagator's row 0 must stay exactly delta."""
    import numpy as np
    from ququat.mvlogic import builtin, synthesize_quantum
    from ququat.serialization import gate_to_json

    one = json.dumps({"gates": [{"entries": np.eye(4).tolist()}]})
    a = np.arange(16).reshape(4, 4) / 7 + 1j * np.eye(4)
    pseudo = [{"A": _complex(a), "side": side} for side in ("right", "up")]
    tables = [builtin("luk_neg"), builtin("cyclic_shift")]
    gate = gate_to_json(synthesize_quantum(tables))
    listed = [{"arity": 1, "outputs": list(t.outputs)} for t in tables]
    states = [{"n": 1, "P": [1.7e308, 0.2, 0.1, 0.3]}, {"n": 1, "P": [1.7e308, 0, 0, 1.7e308]}]
    for fmt in ("json", "text"):
        for command in ("compose", "tensor"):
            yield ["--format", fmt, "gate", command], one
        for doc in pseudo:
            yield ["--format", fmt, "universality", "pseudo"], json.dumps(doc)
        for order in (listed, listed[::-1]):
            doc = {"gate": gate, "tables": order}
            yield ["--format", fmt, "mvlogic", "verify"], json.dumps(doc, default=np.ndarray.tolist)
        for doc in states:
            yield ["--format", fmt, "state", "validate"], json.dumps(doc)
    m = np.eye(4)
    m[0, 1] = 0.5
    labelled = {"kind": "trace_preserving", "entries": m.tolist()}
    general = {"kind": "general", "entries": np.eye(4).tolist()}
    kinds = [(["gate", c], {"gates": [labelled, labelled]}) for c in ("compose", "tensor")]
    kinds += [(["simulate"], _one_step(1, {"gate": gate})) for gate in (labelled, general)]
    long = {"H": [[[0.19, 0], [-0.41, -2.44]], [[-0.41, 2.44], [-0.52, 0]]],
            "V": [[[[1.8, 1.14], [-0.33, 0.77]], [[0.28, -0.55], [0.98, -0.31]]]], "t": 1e6}
    kinds += [(["gate", "from-lindblad"], long), (["simulate"], _one_step(1, {"lindblad": long}))]
    for fmt in ("json", "text"):
        for argv, doc in [*_error_documents(), *kinds]:
            yield ["--format", fmt, *argv], json.dumps(doc)


def _lindblad_model_cases():
    """After every other case, in JSON and in text: seeded single-qubit models
    through ``gate from-lindblad``, with C positive definite or traceless, real
    or complex, at scales 1, 1e6 and 1e12 and tau = 0.3 / scale; then two
    witnesses whose Pauli-basis generators keep a rounding residue of 1.164e-10
    at entries of about 1e6, a GKS model and an H/V one, and a one-step
    ``simulate`` of the H/V one.  The documents are written out here, not
    imported from the tests, so that an older checkout runs the same cases."""
    import numpy as np

    docs = []
    for scale in (1.0, 1e6, 1e12):
        for positive in (True, False):
            for complex_c in (False, True):
                rng = np.random.default_rng([2026, int(np.log10(scale)), positive, complex_c])
                for _ in range(3):
                    g = rng.normal(size=(3, 3)) + (1j * rng.normal(size=(3, 3)) if complex_c else 0)
                    c = g @ g.conj().T
                    if not positive:
                        c = c - np.trace(c).real / 3 * np.eye(3)
                    c = scale * c
                    c = (c + c.conj().T) / 2  # exactly Hermitian
                    model = {"H": (scale * rng.normal(size=3)).tolist(),
                             "C": _complex(c) if complex_c else c.real.tolist()}
                    docs.append((["gate", "from-lindblad"], {"model": model, "tau": 0.3 / scale}))
    gks = {"H": [283379.4, 112078.2, -629887.9],
           "C": [[[2523224.3, 0.0], [-362715.9, 565606.3], [-734551.3, 180180.9]],
                 [[-362715.9, -565606.3], [3457121.1, 0.0], [-561778.1, -800736.1]],
                 [[-734551.3, -180180.9], [-561778.1, 800736.1], [2549938.7, 0.0]]]}
    hv = {"H": [[[-828701.7, 0], [-526379.0, 602548.9]], [[-526379.0, -602548.9], [828701.7, 0]]],
          "V": [[[[-811.7, -133.7], [-41.9, -680.5]], [[469.2, -772.7], [-217.5, 33.5]]]],
          "t": 1e-06}
    docs += [(["gate", "from-lindblad"], {"model": gks, "tau": 1e-06}),
             (["gate", "from-lindblad"], hv), (["simulate"], _one_step(1, {"lindblad": hv}))]
    for fmt in ("json", "text"):
        for argv, doc in docs:
            yield ["--format", fmt, *argv], json.dumps(doc)


def _size_rule_cases():
    """After the Lindblad model cases, in JSON and in text: an H and a C
    computed in floating point, whose Hermitian residues are rounding at
    entries of about 1e6, and a rank-one C whose least eigenvalue is; three
    seeded, exactly Hermitian densities at n = 3 and scale 1e5 through ``state
    convert``; and ``gate analyze`` of a gate whose Choi matrix overflows into
    NaN.  Then ``--precision`` at -1, 0, 17, 18 and 10**11 on a text
    ``universality swap``."""
    import numpy as np

    h = [[[-1351013.371381643, 1.1480496329382049e-11], [-848451.1263078249, 146333.91161126996]],
         [[-848451.1263078247, -146333.91161126996], [-148986.62861835706, 1.651383466427677e-12]]]
    c = [[[2695100.0, -3.1952218648712005e-11], [2206300.0, -137799.9999999999],
          [-2548899.9999999995, 1937200.0]],
         [[2206300.0, 137799.99999999997], [2907300.0, 5.595524044110789e-12],
          [-679700.0000000002, 1790400.0]],
         [[-2548899.9999999995, -1937200.0], [-679700.0000000002, -1790400.0],
          [7053500.0, 8.886225089099753e-11]]]
    rank_one = [[[3914500.0, 0.0], [-1397600.0, -2844800.0], [1814799.9999999998, -1459600.0]],
                [[-1397600.0, 2844800.0], [2566400.0000000005, 0.0], [412800.00000000006, 1840000.0]],
                [[1814799.9999999998, 1459600.0], [412800.00000000006, -1840000.0], [1385600.0, 0.0]]]
    docs = [(["gate", "from-lindblad"], {"H": h, "t": 1e-06})]
    docs += [(["gate", "from-lindblad"], {"model": {"H": [0.0, 0.0, 0.0], "C": m}, "tau": 1e-07})
             for m in (c, rank_one)]
    rng = np.random.default_rng(83)
    for _ in range(3):
        g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = 1e5 * (g @ g.conj().T)
        rho = (rho + rho.conj().T) / 2  # Hermitian entry for entry
        docs.append((["state", "convert"], {"n": 3, "entries": _complex(rho)}))
    docs.append((["gate", "analyze"], {"entries": np.diag([1, 1.7e308, 1.7e308, 1]).tolist()}))
    for fmt in ("json", "text"):
        for argv, doc in docs:
            yield ["--format", fmt, *argv], json.dumps(doc)
    for precision in (-1, 0, 17, 18, 10**11):
        yield ["--format", "text", "--precision", str(precision), "universality", "swap"], ""


def _real_channel_cases():
    """After the size-rule cases: ``gate analyze``, in JSON and in text, of gates
    whose Choi matrix is real, each built by the CLI first: seeded channels of
    three real Kraus operators, two at each of n = 1..4 (``gate from-kraus``),
    a seeded real orthogonal unitary at n = 3 (``gate from-unitary``), and the
    arity-2 table below (``mvlogic synth``), where every input with exactly
    one digit 2 goes where (0, 0) goes.  The Kraus channels are of rank 3, so
    their least Choi eigenvalues are rounding-level zeros."""
    import numpy as np

    builds = []
    for n in (1, 2, 3, 4):
        for seed in range(2):
            rng = np.random.default_rng([2029, n, seed])
            blocks = [rng.normal(size=(2**n, 2**n)) for _ in range(3)]
            w, v = np.linalg.eigh(sum(b.T @ b for b in blocks))
            ops = [b @ (v / np.sqrt(w)) @ v.T for b in blocks]
            builds.append((["gate", "from-kraus"], {"ops": [a.tolist() for a in ops]}))
    rng = np.random.default_rng([2029, 3])
    q = np.linalg.qr(rng.normal(size=(8, 8)))[0]
    builds.append((["gate", "from-unitary"], {"U": q.tolist()}))
    table = {"arity": 2, "outputs": [0, 3, 0, 0, 0, 1, 0, 3, 0, 0, 1, 0, 1, 1, 0, 0]}
    builds.append((["mvlogic", "synth"], table))
    for argv, doc in builds:
        code, out, _ = yield argv, json.dumps(doc)
        for fmt in ("json", "text") if code == 0 else ():
            yield ["--format", fmt, "gate", "analyze"], out


def _odd_parity_cases():
    """After the real-channel cases: ``gate analyze``, in JSON and in text, of
    the transpose map rho -> rho^T on 2 and 4 ququats with the odd-parity
    entry [0, 2] (one Y factor) set to -0.0, 1e-300 or 5e-324.  Its Choi
    matrix is real exactly for the -0.0, which counts as zero."""
    import numpy as np

    for n in (2, 4):
        diagonal = np.ones(1)
        for _ in range(n):
            diagonal = np.kron(diagonal, [1.0, 1.0, -1.0, 1.0])
        entries = np.diag(diagonal)
        for value in (-0.0, 1e-300, 5e-324):
            entries[0, 2] = value
            text = json.dumps({"entries": entries.tolist()})
            for fmt in ("json", "text"):
                yield ["--format", fmt, "gate", "analyze"], text


def _one_step(n, step):
    """A ``simulate`` document of one step on n ququats from the state P = (1, 0, ..., 0)."""
    state = {"n": n, "P": [1.0] + [0.0] * (4**n - 1)}
    return {"circuit": {"n": n, "steps": [step]}, "initial": state}


def _error_documents():
    """(argv, document) of each refusal, exit 2 or 3 with one line, that no
    other case reaches.  ``simulate``: a two-ququat unitary at n = 1 without
    targets, a trace-decreasing Kraus step, a Kraus step of 2x4 operators and
    a 4x16 gate step at n = 2, ``pauli_k`` with k = 5, k = 2.5 and no k,
    ``rot1`` and ``rot2`` without an angle, and ``not`` on target 5 at n = 1.
    ``gate``: ``compose`` of a one-ququat gate after a two-ququat one,
    ``adjoint``, ``decompose --polar`` of a 4x16 gate, ``decompose --euler``
    of a 16x16 one, ``from-kraus`` of operators of two shapes, and
    ``from-lindblad`` with a non-Hermitian H and with a 2x2 C.  Then ``state
    convert`` with an n unlike the entries', ``measure`` with ``post_select``
    2 of two projectors, ``mvlogic closure`` of a generator above
    ``max_arity``, ``mvlogic verify`` of tables of two arities, of a table
    list in extended mode and with a ``mode`` that is not a mode ("bogus", 3
    and null), and ``universality closure-dim`` of generators of two sizes."""
    import numpy as np

    eye, wide = np.eye(4).tolist(), np.eye(4, 16).tolist()
    steps = [
        (1, {"unitary": eye}),
        (1, {"kraus": {"ops": [[[1, 0], [0, 0]]]}}),
        (2, {"kraus": {"ops": [np.eye(2, 4).tolist()]}}),
        (2, {"gate": {"entries": wide}}),
        (1, {"named": "pauli_k", "param": 5}),
        (1, {"named": "pauli_k", "param": 2.5}),
        (1, {"named": "pauli_k"}),
        (1, {"named": "rot1"}),
        (1, {"named": "rot2"}),
        (1, {"named": "not", "targets": [5]}),
    ]
    yield from ((["simulate"], _one_step(n, step)) for n, step in steps)
    yield ["gate", "compose"], {"gates": [{"entries": eye}, {"entries": np.eye(16).tolist()}]}
    yield ["gate", "adjoint"], {"entries": wide}
    yield ["gate", "decompose", "--polar"], {"entries": wide}
    yield ["gate", "decompose", "--euler"], {"entries": np.eye(16).tolist()}
    yield ["gate", "from-kraus"], {"ops": [np.eye(2).tolist(), eye]}
    yield ["gate", "from-lindblad"], {"H": [[0, 1], [0, 0]], "t": 1.0}
    model = {"H": [0, 0, 0.5], "C": [[1, 0], [0, 1]]}
    yield ["gate", "from-lindblad"], {"model": model, "tau": 1.0}
    yield ["state", "convert"], {"n": 2, "entries": [[1, 0], [0, 0]]}
    state = {"n": 1, "P": [1, 0, 0, 0]}
    yield ["measure"], {"projectors": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], "state": state,
                        "post_select": 2}
    yield ["mvlogic", "closure"], {"generators": ["max"], "max_arity": 1}
    tables = [{"arity": 1, "outputs": [0, 1, 2, 3]}, {"arity": 0, "outputs": [1]}]
    yield ["mvlogic", "verify"], {"gate": {"entries": eye}, "tables": tables}
    yield ["mvlogic", "verify"], {"gate": {"entries": eye}, "tables": tables[:1],
                                  "mode": "extended"}
    for mode in ("bogus", 3, None):
        yield ["mvlogic", "verify"], {"gate": {"entries": eye}, "table": tables[0], "mode": mode}
    yield ["universality", "closure-dim"], {"generators": [[[0, 1], [1, 0]], eye]}


def corpus():
    """Yield (argv, text) for every case and receive its (exit code, stdout,
    stderr): a chained ``gate-wide`` job reads the output of the one before."""
    import numpy as np
    from test_cli import _README_EXAMPLES, _mutants, _mutate, _node_paths
    from workloads import GateWide, SimulateLocal

    def leaf(doc, where):
        for key in where:
            doc = doc[key]
        return doc

    for fmt in ("json", "text"):
        for argv, doc in _README_EXAMPLES:
            yield ["--format", fmt, *argv], json.dumps(doc, default=np.ndarray.tolist)
        for argv, doc, where, value in _mutants():
            yield ["--format", fmt, *argv], json.dumps(_mutate(doc, where, value))
        for argv, doc in _README_EXAMPLES:
            for where in _node_paths(doc):
                number = leaf(doc, where)
                if isinstance(number, (int, float)) and not isinstance(number, bool):
                    for value in EDGE_FLOATS:
                        yield ["--format", fmt, *argv], json.dumps(_mutate(doc, where, value))
    gate_wide = GateWide(101)
    for index in range(8):
        for job in gate_wide.round(index):
            code, out, _ = yield job.argv, job.text
            job.output = out if code == 0 else None
    for seed in (101, 102):
        for text in SimulateLocal(seed).docs:
            yield ["simulate"], text
    yield from _mvlogic_cases()
    yield from _measurement_cases()
    yield from _edge_cases()
    yield from _lindblad_model_cases()
    yield from _size_rule_cases()
    yield from _real_channel_cases()
    yield from _odd_parity_cases()


def _results(root: Path):
    """Run the corpus against the package of ``root``: yield (argv, input sha,
    exit code, stdout, stderr) of every case, in order."""
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(root / "perfbench")]
    import ququat.cli

    cases = corpus()
    result = None
    while True:
        try:
            case_argv, text = cases.send(result)
        except StopIteration:
            return
        text = "" if text is None else text
        result = run_case(ququat.cli.main, case_argv, text)
        yield (case_argv, _sha(text)[:16], *result)


def _is_text(argv) -> bool:
    return "--format" in argv and argv[argv.index("--format") + 1] == "text"


# a text cell is rendered with an explicit sign, "+inf" or "-nan" at an overflow
_TEXT_NON_FINITE = re.compile(r"[+-](?:nan|inf)")


class _NonFinite(Exception):
    pass


def _reject_constant(name):
    raise _NonFinite(name)


def non_finite(argv, out: str) -> bool:
    """Whether stdout holds NaN or Infinity (JSON) or a nan or inf cell (text)."""
    if _is_text(argv):
        return _TEXT_NON_FINITE.search(out) is not None
    try:
        json.loads(out or "null", parse_constant=_reject_constant)
    except _NonFinite:
        return True
    return False


# -- comparing two checkouts ---------------------------------------------------


# a JSON float may move by this much relative to max(1, |a|, |b|): its last bits
LAST_BITS = 1e-12

_NUMBER = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|[+-]?(?:nan|inf)")


def _float_moves(a, b, moves: list) -> str | None:
    """Append to ``moves`` |a - b| of each pair of unequal floats of two JSON
    values; return the first difference of any other kind, or None."""
    if type(a) is not type(b):
        return f"{type(a).__name__} became {type(b).__name__}"
    if type(a) is float:
        move = abs(a - b)
        if not move <= LAST_BITS * max(1.0, abs(a), abs(b)):  # a NaN or inf move included
            return f"float {a!r} became {b!r}"
        if move:
            moves.append(move)
    elif type(a) is dict:
        if list(a) != list(b):
            return "object keys differ"
        for key in a:
            why = _float_moves(a[key], b[key], moves)
            if why:
                return why
    elif type(a) is list:
        if len(a) != len(b):
            return "list lengths differ"
        for x, y in zip(a, b):
            why = _float_moves(x, y, moves)
            if why:
                return why
    elif a != b:
        return f"{a!r} became {b!r}"
    return None


def _text_moves(a: str, b: str, moves: list) -> str | None:
    """As :func:`_float_moves`, for text: everything but the numbers must match,
    and a number that differs must be a finite float on both sides that moves
    by at most one unit of its last printed digit (the coarser of the two)."""
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return "text outside the numbers differs"
    for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
        if x == y:
            continue
        dx, dy = Decimal(x), Decimal(y)
        if not all(("." in z or "e" in z) and Decimal(z).is_finite() for z in (x, y)):
            return f"{x} became {y}"
        move = abs(dx - dy)
        if move > Decimal(1).scaleb(max(dx.as_tuple().exponent, dy.as_tuple().exponent)):
            return f"{x} became {y}"
        moves.append(float(move))
    return None


def _stdout_moves(argv, a: str, b: str) -> tuple[float | None, str | None]:
    """The largest float move between two stdouts of one case (None if they are
    identical), and the first difference of any other kind (None if there is none)."""
    if a == b:
        return None, None
    moves = []
    if _is_text(argv):
        why = _text_moves(a, b, moves)
    else:
        try:
            why = _float_moves(json.loads(a), json.loads(b), moves)
        except ValueError:
            why = "stdout is not JSON"
    return max(moves, default=None), why


def difference(base, change) -> tuple[float | None, str | None]:
    """How one case's result moved between two checkouts: the largest move of a
    float on stdout (None if stdout is identical), and the first difference of
    any other kind (None if there is none).  The inputs may differ only where
    a chained ``gate-wide`` job read an output that moved."""
    if base[0] != change[0]:
        return None, "the cases differ"
    if base[2] != change[2]:
        return None, f"exit {base[2]} became {change[2]}"
    if base[4] != change[4]:
        return None, "stderr differs"
    return _stdout_moves(base[0], base[3], change[3])


KINDS = ("stdout", "stderr", "exit")


def kinds(base, change) -> set[str]:
    """Each kind of difference beyond the last bits between two results of one case."""
    found = {"exit"} if base[2] != change[2] else set()
    if base[4] != change[4]:
        found.add("stderr")
    if _stdout_moves(base[0], base[3], change[3])[1]:
        found.add("stdout")
    return found


_SHA = re.compile(r"[0-9a-f]{16}")


def read_expected(path: Path) -> dict[tuple[str, str], set[str]]:
    """The listed kinds of difference of each case (argv, input sha) of an
    expected-differences file; a line that names no single case, a wildcard
    in it included, raises ValueError."""
    expected = {}
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t")
        if (len(fields) != 3 or not fields[0] or any(c in fields[0] for c in "*?")
                or not _SHA.fullmatch(fields[1]) or fields[2] not in KINDS):
            raise ValueError(f"{path}:{number}: not 'argv<TAB>sha<TAB>kind' of one case: {line!r}")
        expected.setdefault((fields[0], fields[1]), set()).add(fields[2])
    return expected


def report(pairs, expected) -> int:
    """Print each case of ``pairs``, (base, change) results, that differs.
    Returns the number of failures: differences beyond the last bits that
    ``expected`` (:func:`read_expected`) does not list, listed cases that
    differ in other kinds, and listed cases that do not differ."""
    total, floats, listed, failures, top = 0, Counter(), 0, 0, 0.0
    seen = set()
    for base, change in pairs:
        total += 1
        move, why = difference(base, change)
        case = (" ".join(base[0]), base[1])
        if why:
            want = expected.get(case)
            found = kinds(base, change) if base[0] == change[0] else set()
            seen.add(case)
            if found == want:
                listed += 1
                print(f"{case[0]}\t{case[1]}\tdiffers as listed: {why}")
                continue
            failures += 1
            if want:
                why += f" (in {', '.join(sorted(found)) or 'the case'}; listed {', '.join(want)})"
            print(f"{case[0]}\t{case[1]}\tdiffers: {why}")
        elif move is not None:
            floats[case[0]] += 1
            top = max(top, move)
            sha = base[1] if base[1] == change[1] else f"{base[1]} -> {change[1]}"
            print(f"{case[0]}\t{sha}\tfloats move by at most {move:.3g}")
    for case in sorted(expected.keys() - seen):
        failures += 1
        print(f"{case[0]}\t{case[1]}\tlisted, but does not differ beyond the last bits")
    by_command = ", ".join(f"{n} {c}" for c, n in floats.most_common())
    print(f"# {total} cases; {sum(floats.values())} differ in stdout floats only, by at most "
          f"{top:.3g} ({by_command or 'none'}); {listed} differ as listed; {failures} fail")
    return failures


def compare(against: Path, root: Path, expected: dict) -> int:
    """Run the corpus in ``against`` and in ``root``, one child process each as
    both import ``ququat``, and :func:`report` each case whose result differs."""
    command = [sys.executable, __file__, "--records", "--root"]
    children = [subprocess.Popen([*command, str(r)], stdout=subprocess.PIPE, text=True,
                                 encoding="utf-8", errors="surrogatepass") for r in (against, root)]
    pairs = ([json.loads(line) for line in lines] for lines in zip(*(c.stdout for c in children)))
    failures = report(pairs, expected)
    # a child with cases left over ran a different corpus
    left = sum(1 for child in children for _ in child.stdout)
    if left:
        print(f"# {left} cases left over: the two checkouts ran different corpora")
    codes = [child.wait() for child in children]
    return int(failures > 0 or left > 0 or any(codes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    here = Path(__file__).resolve().parent.parent
    parser.add_argument("--root", type=Path, default=here,
                        help="checkout whose src/, tests/ and perfbench/ are imported")
    parser.add_argument("--against", type=Path, metavar="CHECKOUT",
                        help="compare the results of CHECKOUT with those of --root")
    parser.add_argument("--expect", type=Path, metavar="FILE",
                        help="with --against: the cases that differ on purpose, and how")
    parser.add_argument("--records", action="store_true",
                        help="print each case's full result as one JSON line")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.expect is not None and args.against is None:
        parser.error("--expect needs --against")
    if args.against is not None:
        try:
            expected = read_expected(args.expect) if args.expect is not None else {}
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
        return compare(args.against.resolve(), root, expected)
    if args.records:
        for result in _results(root):
            print(json.dumps(result))
        return 0
    codes = Counter()
    digest = hashlib.sha256()
    non_finite_cases = 0
    for case_argv, sha, code, out, err in _results(root):
        line = "\t".join([" ".join(case_argv), sha, str(code), _sha(out), _sha(err)])
        print(line)
        digest.update(line.encode() + b"\n")
        codes[code] += 1
        if non_finite(case_argv, out):
            non_finite_cases += 1
            print(f"non-finite number on stdout: {' '.join(case_argv)} {sha}", file=sys.stderr)
    by_code = ", ".join(f"{n} exit {c}" for c, n in sorted(codes.items(), key=str))
    print(f"# {sum(codes.values())} cases ({by_code}); digest {digest.hexdigest()[:16]}")
    return int(non_finite_cases > 0 or any(code not in EXIT_CODES for code in codes))


if __name__ == "__main__":
    sys.exit(main())
