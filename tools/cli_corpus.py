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
the ``mvlogic`` and measurement commands below.  BLAS runs on one
thread, as with more threads two runs of one revision can differ in the
last bits.  The tool exits 1 when any case ends outside the CLI's exit
codes 0, 2, 3 and 4, such as in a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from collections import Counter
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/, tests/ and perfbench/ are imported")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "tests"), str(root / "perfbench")]
    import ququat.cli

    codes = Counter()
    digest = hashlib.sha256()
    cases = corpus()
    result = None
    while True:
        try:
            case_argv, text = cases.send(result)
        except StopIteration:
            break
        text = "" if text is None else text
        result = run_case(ququat.cli.main, case_argv, text)
        code, out, err = result
        line = "\t".join([" ".join(case_argv), _sha(text)[:16], str(code), _sha(out), _sha(err)])
        print(line)
        digest.update(line.encode() + b"\n")
        codes[code] += 1
    by_code = ", ".join(f"{n} exit {c}" for c, n in sorted(codes.items(), key=str))
    print(f"# {sum(codes.values())} cases ({by_code}); digest {digest.hexdigest()[:16]}")
    return int(any(code not in EXIT_CODES for code in codes))


if __name__ == "__main__":
    sys.exit(main())
