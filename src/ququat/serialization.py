"""JSON encoding and decoding for the package's value types.

Conventions: complex scalars are two-element arrays [re, im] (bare
numbers are accepted as real input); matrices are row-major nested
arrays; gate entries are real and encoded as plain floats.  Decoders
raise :class:`SchemaError` with a path-qualified message pointing at the
offending element.  The matrix and vector decoders reject NaN and
+-Infinity, which the JSON parser accepts.
"""

from __future__ import annotations

import numpy as np

from .errors import SchemaError
from .gates import GateMatrix, KrausSet, gate_from_matrix
from .lindblad import GKSModel
from .liouville import DensityMatrix, PauliVector
from .mvlogic import (
    ClassicalExpression,
    TruthTable,
    apply_expr,
    const_expr,
    var_expr,
)

__all__ = [
    "encode_complex",
    "encode_complex_matrix",
    "encode_real_matrix",
    "decode_complex",
    "decode_complex_matrix",
    "decode_real_matrix",
    "decode_real_vector",
    "gate_to_json",
    "gate_from_json",
    "pvec_to_json",
    "pvec_from_json",
    "density_to_json",
    "density_from_json",
    "kraus_to_json",
    "kraus_from_json",
    "gks_model_from_json",
    "gks_model_to_json",
    "table_to_json",
    "table_from_json",
    "expression_to_json",
    "expression_from_json",
]


def encode_complex(z: complex) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def encode_complex_matrix(m: np.ndarray) -> list:
    return [[encode_complex(z) for z in row] for row in np.asarray(m)]


def encode_real_matrix(m: np.ndarray) -> list:
    return [[float(x) for x in row] for row in np.asarray(m)]


def _expect(obj, types, path: str, what: str):
    if not isinstance(obj, types):
        raise SchemaError(f"{path}: expected {what}, got {type(obj).__name__}")
    return obj


def _expect_key(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}: missing required key {key!r}")
    return obj[key]


def decode_complex(obj, path: str) -> complex:
    if isinstance(obj, bool):
        raise SchemaError(f"{path}: expected a number or [re, im] pair")
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj
    ):
        return complex(obj[0], obj[1])
    raise SchemaError(f"{path}: expected a [re, im] pair")


def _finite(arr: np.ndarray, path: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        where = "".join(f"[{k}]" for k in np.argwhere(~np.isfinite(arr))[0])
        raise SchemaError(f"{path}{where}: expected a finite number")
    return arr


def decode_complex_matrix(obj, path: str) -> np.ndarray:
    rows = _expect(obj, list, path, "a matrix (list of rows)")
    if not rows:
        raise SchemaError(f"{path}: matrix must not be empty")
    out = []
    width = None
    for i, row in enumerate(rows):
        row = _expect(row, list, f"{path}[{i}]", "a row (list)")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise SchemaError(f"{path}[{i}]: ragged matrix row")
        out.append([decode_complex(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return _finite(np.array(out, dtype=complex), path)


def decode_real_matrix(obj, path: str) -> np.ndarray:
    m = decode_complex_matrix(obj, path)
    if np.max(np.abs(m.imag)) > 0:
        raise SchemaError(f"{path}: expected a real matrix")
    return m.real


def decode_real_vector(obj, path: str, length: int | None = None) -> np.ndarray:
    vec = _expect(obj, list, path, "a list of numbers")
    out = []
    for i, v in enumerate(vec):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise SchemaError(f"{path}[{i}]: expected a number")
        out.append(float(v))
    if length is not None and len(out) != length:
        raise SchemaError(f"{path}: expected {length} entries, got {len(out)}")
    return _finite(np.array(out), path)


# -- states -----------------------------------------------------------------


def pvec_to_json(p: PauliVector) -> dict:
    return {"n": p.n, "P": [float(x) for x in p.P]}


def pvec_from_json(obj, path: str = "state") -> PauliVector:
    obj = _expect(obj, dict, path, "an object")
    n = _expect(_expect_key(obj, "n", path), int, f"{path}.n", "an integer")
    vec = decode_real_vector(_expect_key(obj, "P", path), f"{path}.P", 4**n)
    return PauliVector(n, vec)


def density_to_json(rho: DensityMatrix) -> dict:
    return {"n": rho.n, "entries": encode_complex_matrix(rho.entries)}


def density_from_json(obj, path: str = "state") -> DensityMatrix:
    obj = _expect(obj, dict, path, "an object")
    entries = decode_complex_matrix(_expect_key(obj, "entries", path), f"{path}.entries")
    n = int(round(np.log2(entries.shape[0])))
    if "n" in obj and obj["n"] != n:
        raise SchemaError(f"{path}.n: inconsistent with entries shape {entries.shape}")
    if entries.shape != (2**n, 2**n):
        raise SchemaError(f"{path}.entries: expected a square 2**n matrix")
    return DensityMatrix(n, entries)


# -- gates ------------------------------------------------------------------


def gate_to_json(g: GateMatrix) -> dict:
    return {
        "n_in": g.n_in,
        "n_out": g.n_out,
        "kind": g.kind,
        "entries": encode_real_matrix(g.entries),
    }


def gate_from_json(obj, path: str = "gate") -> GateMatrix:
    obj = _expect(obj, dict, path, "an object")
    entries = decode_real_matrix(_expect_key(obj, "entries", path), f"{path}.entries")
    kind = obj.get("kind")
    if kind is not None and kind not in ("trace_preserving", "trace_decreasing", "general"):
        raise SchemaError(f"{path}.kind: unknown kind {kind!r}")
    gate = gate_from_matrix(entries, kind=kind)
    for key, want in (("n_in", gate.n_in), ("n_out", gate.n_out)):
        if key in obj and obj[key] != want:
            raise SchemaError(f"{path}.{key}: inconsistent with entries shape")
    return gate


def kraus_to_json(k: KrausSet) -> dict:
    return {"ops": [encode_complex_matrix(a) for a in k.ops]}


def kraus_from_json(obj, path: str = "kraus") -> KrausSet:
    obj = _expect(obj, dict, path, "an object")
    ops = _expect(_expect_key(obj, "ops", path), list, f"{path}.ops", "a list of matrices")
    if not ops:
        raise SchemaError(f"{path}.ops: must not be empty")
    return KrausSet(tuple(decode_complex_matrix(a, f"{path}.ops[{i}]") for i, a in enumerate(ops)))


def gks_model_to_json(m: GKSModel) -> dict:
    return {"H": [float(h) for h in m.h], "C": encode_complex_matrix(m.c)}


def gks_model_from_json(obj, path: str = "model") -> GKSModel:
    obj = _expect(obj, dict, path, "an object")
    h = decode_real_vector(_expect_key(obj, "H", path), f"{path}.H", 3)
    c = decode_complex_matrix(_expect_key(obj, "C", path), f"{path}.C")
    if c.shape != (3, 3):
        raise SchemaError(f"{path}.C: expected a 3x3 matrix")
    return GKSModel(h, c)


# -- classical logic --------------------------------------------------------


def table_to_json(t: TruthTable) -> dict:
    return {"arity": t.arity, "outputs": list(t.outputs)}


def table_from_json(obj, path: str = "table") -> TruthTable:
    obj = _expect(obj, dict, path, "an object")
    arity = _expect(_expect_key(obj, "arity", path), int, f"{path}.arity", "an integer")
    outputs = _expect(_expect_key(obj, "outputs", path), list, f"{path}.outputs", "a list")
    if len(outputs) != 4**arity:
        raise SchemaError(f"{path}.outputs: expected {4**arity} entries, got {len(outputs)}")
    for i, v in enumerate(outputs):
        if isinstance(v, bool) or not isinstance(v, int) or v not in (0, 1, 2, 3):
            raise SchemaError(f"{path}.outputs[{i}]: expected an integer in 0..3")
    return TruthTable(arity, tuple(outputs))


def expression_to_json(e: ClassicalExpression) -> dict:
    if e.op == "const":
        return {"const": e.value}
    if e.op == "var":
        return {"var": e.index}
    return {"op": e.op, "args": [expression_to_json(a) for a in e.args]}


def expression_from_json(obj, path: str = "expression") -> ClassicalExpression:
    obj = _expect(obj, dict, path, "an object")
    if "const" in obj:
        v = obj["const"]
        if isinstance(v, bool) or not isinstance(v, int) or v not in (0, 1, 2, 3):
            raise SchemaError(f"{path}.const: expected an integer in 0..3")
        return const_expr(v)
    if "var" in obj:
        v = obj["var"]
        if isinstance(v, bool) or not isinstance(v, int) or v < 0:
            raise SchemaError(f"{path}.var: expected a nonnegative integer")
        return var_expr(v)
    if "op" in obj:
        op = _expect(obj["op"], str, f"{path}.op", "a string")
        args = _expect(obj.get("args", []), list, f"{path}.args", "a list")
        return apply_expr(
            op, *[expression_from_json(a, f"{path}.args[{i}]") for i, a in enumerate(args)]
        )
    raise SchemaError(f"{path}: expected one of 'const', 'var', 'op'")
