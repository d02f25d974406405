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
the ``mvlogic``, measurement and edge commands below.  BLAS runs on one
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
kind: exit code, stderr, JSON structure, or a value that is not a float.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
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


def _edge_cases():
    """Paths nothing above reaches: ``gate compose`` and ``gate tensor`` of one
    gate, ``universality pseudo`` on the right and with a bad side, ``mvlogic
    verify`` against a list of tables, and ``state validate`` of states whose
    purity or trace overflows.  Then, after all of those, the documents of
    :func:`_error_documents` and a gate's kind against its label: M, the
    identity with row 0 set to (1, 0.5, 0, 0) and labelled trace-preserving,
    through ``gate compose`` and ``gate tensor`` of [M, M] and as a
    ``simulate`` step, and a step of the identity labelled ``general``."""
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
    for fmt in ("json", "text"):
        for argv, doc in [*_error_documents(), *kinds]:
            yield ["--format", fmt, *argv], json.dumps(doc)


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
    ``max_arity``, ``mvlogic verify`` of tables of two arities and of a table
    list in extended mode, and ``universality closure-dim`` of generators of
    two sizes."""
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


_NUMBER = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|[+-]?(?:nan|inf)")


def _float_moves(a, b, moves: list) -> str | None:
    """Append to ``moves`` |a - b| of each pair of unequal floats of two JSON
    values; return the first difference of any other kind, or None."""
    if type(a) is not type(b):
        return f"{type(a).__name__} became {type(b).__name__}"
    if type(a) is float:
        move = abs(a - b)
        if not math.isfinite(move):
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
    and a number that differs must be written as a float on both sides."""
    if _NUMBER.sub("#", a) != _NUMBER.sub("#", b):
        return "text outside the numbers differs"
    for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)):
        if x == y:
            continue
        if not all("." in z or "e" in z or z[-3:] in ("nan", "inf") for z in (x, y)):
            return f"{x} became {y}"
        why = _float_moves(float(x), float(y), moves)
        if why:
            return why
    return None


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
    if base[3] == change[3]:
        return None, None
    moves = []
    if _is_text(base[0]):
        why = _text_moves(base[3], change[3], moves)
    else:
        try:
            why = _float_moves(json.loads(base[3]), json.loads(change[3]), moves)
        except ValueError:
            why = "stdout is not JSON"
    return max(moves, default=None), why


def compare(against: Path, root: Path) -> int:
    """Run the corpus in ``against`` and in ``root``, one child process each as
    both import ``ququat``, and print each case whose result differs."""
    command = [sys.executable, __file__, "--records", "--root"]
    children = [subprocess.Popen([*command, str(r)], stdout=subprocess.PIPE, text=True,
                                 encoding="utf-8", errors="surrogatepass") for r in (against, root)]
    total, floats, others, top = 0, Counter(), 0, 0.0
    for lines in zip(*(child.stdout for child in children)):
        base, change = (json.loads(line) for line in lines)
        total += 1
        move, why = difference(base, change)
        if why:
            others += 1
            print(f"{' '.join(base[0])}\t{base[1]}\tdiffers: {why}")
        elif move is not None:
            floats[" ".join(base[0])] += 1
            top = max(top, move)
            sha = base[1] if base[1] == change[1] else f"{base[1]} -> {change[1]}"
            print(f"{' '.join(base[0])}\t{sha}\tfloats move by at most {move:.3g}")
    # a child with cases left over ran a different corpus
    others += sum(1 for child in children for _ in child.stdout)
    codes = [child.wait() for child in children]
    by_command = ", ".join(f"{n} {c}" for c, n in floats.most_common())
    print(f"# {total} cases; {sum(floats.values())} differ in stdout floats only, by at most "
          f"{top:.3g} ({by_command or 'none'}); {others} differ otherwise")
    return int(others > 0 or any(codes))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    here = Path(__file__).resolve().parent.parent
    parser.add_argument("--root", type=Path, default=here,
                        help="checkout whose src/, tests/ and perfbench/ are imported")
    parser.add_argument("--against", type=Path, metavar="CHECKOUT",
                        help="compare the results of CHECKOUT with those of --root")
    parser.add_argument("--records", action="store_true",
                        help="print each case's full result as one JSON line")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if args.against is not None:
        return compare(args.against.resolve(), root)
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
