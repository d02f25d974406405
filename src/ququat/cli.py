"""Command-line front end.

Subcommands map one-to-one onto the library: state conversion and
validation, gate construction (from unitary, Kraus set or Lindblad
model), analysis, decomposition, composition, measurement, reversibility
certificates, classical four-valued logic, universality tools and circuit
simulation.  Input documents are JSON from a file argument or stdin
("-"); output is JSON on stdout (or an aligned text rendering with
``--format text``).

Exit codes: 0 success, 2 schema error, 3 numeric contract violation,
4 zero-probability post-selection.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import warnings
from dataclasses import asdict
from itertools import repeat

import numpy as np
import orjson

from . import __version__
from . import serialization as sz
from .circuits import parse_circuit, run_circuit
from .config import (MAX_CLOSURE_ARITY, MAX_CLOSURE_BUDGET, MAX_DNF_ARITY, set_tolerances,
                     tolerances)
from .decompositions import (
    euler_angles,
    polar_gate,
    svd_rect_gate,
)
from .errors import NumericContractError, QuquatError, SchemaError, ZeroProbabilityError
from .gates import (
    _branch_probabilities,
    adjoint_gate,
    analyze_gate,
    apply_nonlinear,
    check_reversible,
    check_reversible_superop,
    compose,
    gate_from_kraus,
    gate_from_unitary,
    measurement_gates,
    tensor_gates,
)
from .liouville import PauliVector, density_to_pvec, pvec_to_density, validate_density
from .mvlogic import (
    builtin,
    closure,
    dnf,
    synthesize_quantum,
    synthesize_unital_extended,
    unital_realizable,
    verify_realization,
)
from .universality import (
    left_mult_superop,
    lie_closure_dim,
    right_mult_superop,
    swap_pseudo_gate,
)

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_CONTRACT = 3
EXIT_ZERO_PROBABILITY = 4


def _load_document(path: str | None):
    try:
        if path is None or path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read input: {exc}") from exc
    return _parse(text)


# orjson parses several times faster than json.loads and gives the same value
# for every document it accepts, with two exceptions: it recurses once per
# nesting level with no limit (objects some 100000 deep overflow an 8 MB
# stack), and it turns an integer beyond 64 bits into a float.  Such
# documents go to json.loads, which stays the reference: it also takes what
# orjson refuses (NaN, Infinity, 1e400, lone surrogates) and words every
# error message.
_ORJSON_MAX_OPEN = 10_000  # opening brackets, so nesting levels, handed to orjson
_MAX_DEPTH = 500  # nesting json.loads takes within the default recursion limit
_WIDE = 2.0**63  # the least magnitude orjson gives an integer it cannot hold


def _parse(text: str):
    """``json.loads(text)``, read by orjson where the two are sure to agree."""
    if text.count("[") + text.count("{") <= _ORJSON_MAX_OPEN:
        try:
            doc = orjson.loads(text)
        except orjson.JSONDecodeError:
            pass
        else:
            if _as_json_loads_reads_it(doc):
                return doc
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: malformed text, or an integer of more digits than
        # int() converts; RecursionError: nesting deeper than the stack
        raise SchemaError(f"invalid JSON: {exc}") from exc


def _as_json_loads_reads_it(doc) -> bool:
    """Whether json.loads is sure to read the same ``doc`` from its text.

    That fails when ``doc`` nests more than ``_MAX_DEPTH`` levels deep, or
    holds a float of magnitude 2**63 or more, which may have been an integer
    literal.  The walk goes level by level, so it knows the depth.  A list
    is read in one pass by ``math.hypot``, which refuses any item but a
    number and is at least each number's magnitude (held to 2**62, far
    below what its rounding could hide); a list it refuses is walked.
    """
    level = [doc]
    for _ in range(_MAX_DEPTH):
        inner = []
        for obj in level:
            if type(obj) is dict:
                inner.extend(obj.values())
            elif type(obj) is list:
                try:
                    if not math.hypot(*obj) < _WIDE / 2:
                        return False
                except TypeError:
                    inner.extend(obj)
            elif type(obj) is float and not -_WIDE < obj < _WIDE:
                return False
        if not inner:
            return True
        level = inner
    return False


def _load_object(args) -> dict:
    """The input document, which must be a JSON object."""
    return sz._expect(_load_document(args.input), dict, "input", "an object")


def _state_from_json(obj, path: str = "state") -> PauliVector:
    if isinstance(obj, dict) and "entries" in obj:
        return density_to_pvec(sz.density_from_json(obj, path))
    return sz.pvec_from_json(obj, path)


def _format_complex(z: complex, precision: int) -> str:
    return f"{z.real:+.{precision}f}{z.imag:+.{precision}f}j"


def _render_text(obj, precision: int, indent: int = 0) -> list[str]:
    if type(obj) is np.ndarray:
        obj = obj.tolist()
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        for key in obj:
            val = obj[key]
            if isinstance(val, (dict, list, np.ndarray)):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(val, precision, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_render_scalar(val, precision)}")
    elif isinstance(obj, list):
        if _is_matrix(obj):
            for row in obj:
                cells = [_render_cell(v, precision) for v in row]
                lines.append(pad + "  ".join(cells))
        elif all(isinstance(v, (int, float, bool, str)) or _is_complex_pair(v) for v in obj):
            lines.append(pad + "  ".join(_render_cell(v, precision) for v in obj))
        else:
            for i, v in enumerate(obj):
                lines.append(f"{pad}[{i}]:")
                lines.extend(_render_text(v, precision, indent + 1))
    else:
        lines.append(pad + _render_scalar(obj, precision))
    return lines


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and type(v) is not bool


def _is_complex_pair(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(_is_number(x) for x in v)


def _is_matrix(obj) -> bool:
    return (
        isinstance(obj, list)
        and obj
        and all(
            isinstance(row, list)
            and row
            and all(_is_number(v) or _is_complex_pair(v) for v in row)
            for row in obj
        )
    )


def _render_cell(v, precision: int) -> str:
    if _is_complex_pair(v):
        return _format_complex(complex(v[0], v[1]), precision)
    return _render_scalar(v, precision)


def _render_scalar(v, precision: int) -> str:
    if isinstance(v, (str, int)) or v is None:
        return str(v)
    return f"{v:+.{precision}f}"


# the C encoder; json.dumps with an indent runs the pure-Python one
_encode = json.JSONEncoder(separators=(",", ":")).encode
_OPTIONS = orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_SERIALIZE_NUMPY
_ORJSON_DEPTH = 255  # the most containers orjson nests
_ORJSON_INTS = range(-(2**63), 2**64)
_NON_FINITE = frozenset(("NaN", "Infinity", "-Infinity"))


def _plain(text: str) -> bool:
    """Whether orjson writes ``text`` as json.dumps does, and no ``null`` is in it."""
    # printable leaves out DEL, which json.dumps escapes and orjson does not
    return text.isascii() and text.isprintable() and "null" not in text


def _spell(payload) -> tuple:
    """``(tree, texts, plain)``: ``payload`` for orjson to write, and the values spelt apart.

    The walk visits keys sorted, as orjson does, and keeps each value that
    orjson writes as ``json.dumps`` does: a plain string, an int of 64 bits,
    a float of magnitude below 1e-9 or in [1e-4, 1e16) (orjson spells 1e-7,
    0.000015 and 1e16 for repr's 1e-07, 1.5e-05 and 1e+16), a float64 array.
    Any other value, None too, is None in ``tree``, or NaN in an array, which
    orjson writes as null, and the C encoder's text of it goes to ``texts``.
    ``plain`` is False for what orjson cannot write: a key that is not
    plain, or containers nested more than 255 deep.  Keys must be strings.
    """
    texts = []
    plain = True

    def walk(obj, depth: int):
        nonlocal plain
        kind = type(obj)
        if (kind is float and (abs(obj) < 1e-9 or 1e-4 <= abs(obj) < 1e16)
                or (kind is int or kind is bool) and obj in _ORJSON_INTS
                or kind is str and _plain(obj)):
            return obj
        # map calls walk from C, one frame a level: the walk nests as deep as json.dumps
        if kind is dict:
            keys = sorted(obj)
            plain = _plain(" ".join(keys)) and depth < _ORJSON_DEPTH and plain
            return dict(zip(keys, map(walk, map(obj.__getitem__, keys), repeat(depth + 1))))
        if kind is list or kind is tuple:
            plain = depth < _ORJSON_DEPTH and plain
            if set(map(type, obj)) == {int} and min(obj) in _ORJSON_INTS \
                    and max(obj) in _ORJSON_INTS:
                return obj
            return list(map(walk, obj, repeat(depth + 1)))
        if kind is np.ndarray:
            if obj.dtype != float or not obj.ndim:
                return walk(obj.tolist(), depth)
            obj = np.ascontiguousarray(obj)
            mag = np.abs(obj)
            odd = ~((mag < 1e-9) | (mag >= 1e-4) & (mag < 1e16))
            if odd.any():
                texts.extend(_encode(obj[odd].tolist())[1:-1].split(","))
                obj = np.where(odd, math.nan, obj)
            return obj
        texts.append(_encode(obj))
        return None

    tree = walk(payload, 0)
    return tree, texts, plain


def _json_pieces(payload, spelling: tuple) -> list[str]:
    """``json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist)``, in pieces.

    orjson writes the tree of ``spelling = _spell(payload)`` in one call;
    each null of its text becomes, in order, the next spelt text.  Outside
    a string only null holds an "n", and a plain string holds no "null".
    """
    tree, texts, plain = spelling
    if not plain:
        return [json.dumps(payload, indent=2, sort_keys=True, default=np.ndarray.tolist)]
    text = orjson.dumps(tree, option=_OPTIONS)
    view, out, done = memoryview(text), [], 0
    for spelt in texts:
        at = text.find(b"n", done)
        while not text.startswith(b"null", at):
            at = text.find(b"n", at + 1)
        out += (str(view[done:at], "ascii"), spelt)
        done = at + 4
    out.append(str(view[done:], "ascii"))
    return out


def _json_text(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, default=np.ndarray.tolist)``, byte for byte."""
    return "".join(_json_pieces(obj, _spell(obj)))


def _output(payload, args) -> list[str]:
    """The text a command writes, in pieces; the payload's walk is freed before it is written."""
    if type(payload) is str:  # text a handler rendered, written as it is
        return [payload]
    spelling = _spell(payload)
    # checked once, before either format writes anything
    if not _NON_FINITE.isdisjoint(spelling[1]):
        raise NumericContractError("result has non-finite entries")
    if args.format == "json":
        return [*_json_pieces(payload, spelling), "\n"]
    return ["\n".join(_render_text(payload, args.precision)), "\n"]


# -- subcommand handlers ------------------------------------------------------


def _cmd_state_convert(args):
    pvec = _state_from_json(_load_document(args.input))
    if args.to == "density":
        return sz.density_to_json(pvec_to_density(pvec))
    out = sz.pvec_to_json(pvec)
    if args.representation == "round":
        out = {"n": pvec.n, "rho": [float(x) for x in pvec.round_bracket()]}
    return out


def _cmd_state_validate(args):
    doc = _load_document(args.input)
    # a density matrix is checked as given, so that a non-Hermitian input
    # is reported rather than rejected by the Pauli expansion
    if isinstance(doc, dict) and "entries" in doc:
        state = sz.density_from_json(doc, "state")
    else:
        state = sz.pvec_from_json(doc, "state")
    rep = validate_density(state)
    # a quantity that overflowed is reported as not computed
    report = {key: None if isinstance(v, float) and not math.isfinite(v) else v
              for key, v in asdict(rep).items()}
    return {**report, "valid": rep.valid}


def _cmd_gate_from_unitary(args):
    doc = _load_document(args.input)
    mat = doc["U"] if isinstance(doc, dict) and "U" in doc else doc
    return sz.gate_to_json(gate_from_unitary(sz.decode_complex_matrix(mat, "U")))


def _cmd_gate_from_kraus(args):
    doc = _load_document(args.input)
    return sz.gate_to_json(gate_from_kraus(sz.kraus_from_json(doc, "kraus")))


def _cmd_gate_from_lindblad(args):
    gate, generator = sz.lindblad_from_json(_load_document(args.input))
    return {**sz.gate_to_json(gate), "generator": sz.encode_real_matrix(generator)}


def _cmd_gate_analyze(args):
    report = analyze_gate(sz.gate_from_json(_load_document(args.input)))
    return {**asdict(report), "row0_bound_holds": report.trace_decreasing}


def _cmd_gate_decompose(args):
    gate = sz.gate_from_json(_load_document(args.input))
    if args.euler:
        ang = euler_angles(gate)
        return {"alpha": ang.alpha, "theta": ang.theta, "beta": ang.beta}
    if args.polar:
        pol = polar_gate(gate, side=args.side)
        return {
            "side": pol.side,
            "factors": [
                sz.gate_to_json(pol.t_part),
                sz.gate_to_json(pol.orthogonal if pol.side == "right" else pol.symmetric),
                sz.gate_to_json(pol.symmetric if pol.side == "right" else pol.orthogonal),
            ],
        }
    dec = svd_rect_gate(gate)
    return {
        "singular_values": [float(s) for s in dec.singular_values],
        "factors": [
            sz.gate_to_json(dec.t_part),
            sz.gate_to_json(dec.u1),
            sz.gate_to_json(dec.d),
            sz.gate_to_json(dec.u2),
        ],
    }


def _cmd_gate_adjoint(args):
    return sz.gate_to_json(adjoint_gate(sz.gate_from_json(_load_document(args.input))))


def _load_gates(args) -> list:
    doc = _load_object(args)
    gates = sz._decode_list(doc.get("gates"), "gates", sz.gate_from_json)
    if len(gates) < 2:
        raise SchemaError("gates: expected at least two gates")
    return gates


def _cmd_gate_compose(args):
    # applied right to left: the last gate acts first
    gates = reversed(_load_gates(args))
    return sz.gate_to_json(functools.reduce(lambda inner, outer: compose(outer, inner), gates))


def _cmd_gate_tensor(args):
    return sz.gate_to_json(functools.reduce(tensor_gates, _load_gates(args)))


def _cmd_measure(args):
    doc = _load_object(args)
    m, post = sz.measurement_from_json(doc.get("projectors"), doc.get("post_select"))
    state = _state_from_json(doc.get("state"), "state")
    if state.n != m.n:
        raise NumericContractError(f"state has n={state.n}, projectors act on n={m.n}")
    if not validate_density(state).valid:
        raise NumericContractError("state is not a valid density matrix")
    # a probability is row 0 of its branch gate times P; only the
    # post-selected branch needs its whole gate
    out = {"probabilities": _branch_probabilities(m.rows, state)}
    if post is not None:
        new_state, p = apply_nonlinear(m.gate(post), state)
        # the branch has one probability: the p the state is renormalised by
        out["probabilities"][post] = p
        out["post_select"] = post
        out["probability"] = p
        out["state"] = sz.pvec_to_json(new_state)
    return out


def _cmd_reversible(args):
    doc = _load_object(args)
    kraus = sz.kraus_from_json(doc.get("kraus"), "kraus")
    proj = sz.decode_complex_matrix(doc.get("projector"), "projector")
    cert = check_reversible(kraus, proj)
    gate = gate_from_kraus(kraus)
    (gate_m,) = measurement_gates([proj])
    agree, gamma = check_reversible_superop(gate, gate_m)
    return {
        "reversible": cert.reversible,
        "mu_sq": cert.mu_sq,
        "residual": cert.residual,
        "M": sz.encode_complex_matrix(cert.m),
        "superop_check": {"reversible": agree, "gamma": gamma},
    }


def _table_line(table) -> str:
    return "".join(str(v) for v in table.outputs) + "\n"


def _cmd_mvlogic_table(args):
    table = builtin(args.name)
    return _table_line(table) if args.format == "text" else sz.table_to_json(table)


def _cmd_mvlogic_dnf(args):
    table = sz.table_from_json(_load_document(args.input))
    if table.arity > MAX_DNF_ARITY:
        raise SchemaError(f"table.arity: expected an integer <= {MAX_DNF_ARITY}, got {table.arity}")
    return {"table": sz.table_to_json(table), "dnf": sz.expression_to_json(dnf(table))}


def _generator_from_json(obj, path: str):
    return builtin(obj) if isinstance(obj, str) else sz.table_from_json(obj, path)


def _cmd_mvlogic_closure(args):
    doc = _load_object(args)
    gens = sz._decode_list(doc.get("generators"), "generators", _generator_from_json)
    max_arity = sz._decode_int(doc.get("max_arity", 2), "max_arity", 1)
    if max_arity > MAX_CLOSURE_ARITY:
        raise SchemaError(f"max_arity: expected an integer <= {MAX_CLOSURE_ARITY}, got {max_arity}")
    budget = sz._decode_int(doc.get("budget", 5000), "budget", 0)
    if budget > MAX_CLOSURE_BUDGET:
        raise SchemaError(f"budget: expected an integer <= {MAX_CLOSURE_BUDGET}, got {budget}")
    result = closure(gens, max_arity=max_arity, budget=budget)
    if args.format == "text":  # one base-4 output string per discovered table
        return "".join(map(_table_line, result.tables))
    return {
        "count": result.count(),
        "count_by_arity": {
            str(m): result.count(m) for m in range(1, max_arity + 1)
        },
        "complete": result.complete,
        "tables": [sz.table_to_json(t) for t in result.tables],
    }


def _cmd_mvlogic_synth(args):
    table = sz.table_from_json(_load_document(args.input))
    if args.extended:
        gate = synthesize_unital_extended(table)
    else:
        gate = synthesize_quantum(table)
    out = sz.gate_to_json(gate)
    out["unital_realizable"] = unital_realizable(table)
    return out


def _cmd_mvlogic_verify(args):
    doc = _load_object(args)
    gate = sz.gate_from_json(doc.get("gate"), "gate")
    mode = doc.get("mode", "plain")
    if "tables" in doc:
        tables = sz._decode_list(doc["tables"], "tables", sz.table_from_json)
    else:
        tables = sz.table_from_json(doc.get("table"), "table")
    return {"realizes": verify_realization(gate, tables, mode=mode)}


def _cmd_universality_pseudo(args):
    doc = _load_object(args)
    a = sz.decode_complex_matrix(doc.get("A"), "A")
    side = doc.get("side", "left")
    if side == "left":
        return {"matrix": sz.encode_complex_matrix(left_mult_superop(a).matrix)}
    if side == "right":
        return {"matrix": sz.encode_complex_matrix(right_mult_superop(a).matrix)}
    raise SchemaError("side: expected 'left' or 'right'")


def _cmd_universality_closure_dim(args):
    doc = _load_object(args)
    gens = sz._decode_list(doc.get("generators"), "generators", sz.decode_complex_matrix)
    max_iter = sz._decode_int(doc.get("max_iter", 100), "max_iter", 0)
    return {"dimension": lie_closure_dim(gens, max_iter=max_iter)}


def _cmd_universality_swap(args):
    return {"matrix": sz.encode_complex_matrix(swap_pseudo_gate().matrix)}


def _cmd_simulate(args):
    doc = _load_object(args)
    circuit = parse_circuit(doc.get("circuit"))
    initial = _state_from_json(doc.get("initial"), "initial")
    record = run_circuit(circuit, initial)
    return {
        "cumulative_probability": record.cumulative_probability,
        "final_state": sz.pvec_to_json(record.final_state),
        "steps": [
            {
                "state": sz.pvec_to_json(s.state),
                "probabilities": list(s.probabilities) if s.probabilities else None,
                "probability": s.probability,
                "cumulative_probability": s.cumulative_probability,
            }
            for s in record.steps
        ],
    }


def _cmd_version(args):
    return {"version": __version__}


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call; parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="ququat",
        description="Four-valued logic gates on open n-qubit states.",
    )
    parser.add_argument(
        "--tol", type=_tolerance, default=None, help="algebraic tolerance (default 1e-10)"
    )
    parser.add_argument("--format", choices=("json", "text"), default="json")
    parser.add_argument("--precision", type=int, choices=range(18), default=6,
                        metavar="PRECISION", help="digits in text output, 0 to 17")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(parent, name, handler, with_input=True):
        p = parent.add_parser(name)
        if with_input:
            p.add_argument("input", nargs="?", default="-", help="JSON file or '-' for stdin")
        p.set_defaults(handler=handler)
        return p

    state = sub.add_parser("state").add_subparsers(dest="subcommand", required=True)
    convert = add(state, "convert", _cmd_state_convert)
    convert.add_argument("--to", choices=("pvec", "density"), default="pvec")
    convert.add_argument("--representation", choices=("square", "round"), default="square")
    add(state, "validate", _cmd_state_validate)

    gate = sub.add_parser("gate").add_subparsers(dest="subcommand", required=True)
    add(gate, "from-unitary", _cmd_gate_from_unitary)
    add(gate, "from-kraus", _cmd_gate_from_kraus)
    add(gate, "from-lindblad", _cmd_gate_from_lindblad)
    add(gate, "analyze", _cmd_gate_analyze)
    decompose = add(gate, "decompose", _cmd_gate_decompose)
    mode = decompose.add_mutually_exclusive_group(required=True)
    mode.add_argument("--svd", action="store_true")
    mode.add_argument("--polar", action="store_true")
    mode.add_argument("--euler", action="store_true")
    decompose.add_argument("--side", choices=("left", "right"), default="right")
    add(gate, "adjoint", _cmd_gate_adjoint)
    add(gate, "compose", _cmd_gate_compose)
    add(gate, "tensor", _cmd_gate_tensor)

    add(sub, "measure", _cmd_measure)
    add(sub, "reversible", _cmd_reversible)

    mvlogic = sub.add_parser("mvlogic").add_subparsers(dest="subcommand", required=True)
    table = add(mvlogic, "table", _cmd_mvlogic_table, with_input=False)
    table.add_argument("name")
    add(mvlogic, "dnf", _cmd_mvlogic_dnf)
    add(mvlogic, "closure", _cmd_mvlogic_closure)
    synth = add(mvlogic, "synth", _cmd_mvlogic_synth)
    synth.add_argument("--extended", action="store_true")
    add(mvlogic, "verify", _cmd_mvlogic_verify)

    uni = sub.add_parser("universality").add_subparsers(dest="subcommand", required=True)
    add(uni, "pseudo", _cmd_universality_pseudo)
    add(uni, "closure-dim", _cmd_universality_closure_dim)
    add(uni, "swap", _cmd_universality_swap, with_input=False)

    add(sub, "simulate", _cmd_simulate)
    add(sub, "version", _cmd_version, with_input=False)
    return parser


def _run(args) -> int:
    try:
        pieces = _output(args.handler(args), args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except ZeroProbabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ZERO_PROBABILITY
    except (NumericContractError, QuquatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone, as after `| head -n 1`: what is left in the
        # buffer goes to the null device, so the final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    algebra = tolerances.algebra
    try:
        if args.tol is not None:
            set_tolerances(algebra=args.tol)
        # warnings are recorded so that stderr keeps one line per message:
        # a failed command prints only its error line
        with warnings.catch_warnings(record=True) as caught:
            code = _run(args)
    finally:
        set_tolerances(algebra=algebra)
    if code == EXIT_OK:
        for w in caught:
            print(f"warning: {w.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
