"""JSON encoding and decoding for the package's value types.

Conventions: complex scalars are two-element arrays [re, im] (bare
numbers are accepted as real input); matrices are row-major nested
arrays.  Encoders put matrices and Pauli vectors into payloads as
finite, C-contiguous float64 arrays (complex ones with a last [re, im]
axis), which the decoders take back; ``json.dumps`` writes them with
``default=np.ndarray.tolist``.  Decoders raise :class:`SchemaError` with
a path-qualified message naming the offending element.  Every decoded
number must be finite: NaN and +-Infinity, which the JSON parser
accepts, are schema errors.  Option fields (times, indices, counts,
lists) are decoded here too, so the CLI and circuit documents share one
decode path.

Number arrays are decoded in bulk by numpy when they are well formed;
anything numpy would coerce or refuse goes through a per-element loop,
which is also the reference the bulk path is tested against.
"""

from __future__ import annotations

import sys
from itertools import chain

import numpy as np

from .config import MAX_QUQUATS
from .errors import NumericContractError, SchemaError
from .gates import _NO_QUQUAT, GateMatrix, KrausSet, Measurement, gate_from_matrix, measurement
from .lindblad import (
    GKSModel,
    _liouvillian_propagator,
    gks_matrix,
    gks_propagator,
    liouvillian_superop,
)
from .liouville import DensityMatrix, PauliVector, _exponent
from .mvlogic import (
    ClassicalExpression,
    TruthTable,
    apply_expr,
    const_expr,
    var_expr,
)

__all__ = [
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
    "lindblad_from_json",
    "measurement_from_json",
    "table_to_json",
    "table_from_json",
    "expression_to_json",
    "expression_from_json",
]


def _finite_array(m) -> np.ndarray:
    """``m`` as a C-contiguous float64 array, which may share its memory."""
    m = np.ascontiguousarray(m, dtype=float)
    if not np.isfinite(m).all():
        raise NumericContractError("result has non-finite entries")
    return m


def encode_complex_matrix(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    return _finite_array(np.stack((m.real, m.imag), axis=-1))


def encode_real_matrix(m: np.ndarray) -> np.ndarray:
    return _finite_array(m)


def _expect(obj, types, path: str, what: str):
    if not isinstance(obj, types):
        raise SchemaError(f"{path}: expected {what}, got {type(obj).__name__}")
    return obj


def _expect_key(obj: dict, key: str, path: str):
    if key not in obj:
        raise SchemaError(f"{path}: missing required key {key!r}")
    return obj[key]


def _decode_int(obj, path: str, minimum: int) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int) or obj < minimum:
        raise SchemaError(f"{path}: expected an integer >= {minimum}")
    return obj


def _decode_number(obj, path: str) -> float:
    # the bound also rejects integers too large to convert to a float
    if (
        isinstance(obj, bool)
        or not isinstance(obj, (int, float))
        or not abs(obj) <= sys.float_info.max
    ):
        raise SchemaError(f"{path}: expected a finite number")
    return float(obj)


def _entry_count(k: int, items: list, path: str) -> int:
    """``4**k``, the length of a k-ququat Pauli vector or a k-ary truth table.

    No list holds 4**33 items, so a k above ``MAX_QUQUATS`` is refused
    before 4**k is formed: for k in the billions that alone would not finish.
    """
    if k > MAX_QUQUATS:
        raise SchemaError(f"{path}: expected 4**{k} entries, got {len(items)}")
    return 4**k


def _decode_list(obj, path: str, decode_item) -> list:
    if not isinstance(obj, list) or not obj:
        raise SchemaError(f"{path}: expected a nonempty list")
    return [decode_item(v, f"{path}[{i}]") for i, v in enumerate(obj)]


def decode_complex(obj, path: str) -> complex:
    if isinstance(obj, bool):
        raise SchemaError(f"{path}: expected a number or [re, im] pair")
    try:
        if isinstance(obj, (int, float)):
            return complex(obj)
        if isinstance(obj, list) and len(obj) == 2 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in obj
        ):
            return complex(obj[0], obj[1])
    except OverflowError:
        # an integer beyond float range
        raise SchemaError(f"{path}: expected a finite number") from None
    raise SchemaError(f"{path}: expected a [re, im] pair")


def _finite(arr: np.ndarray, path: str) -> np.ndarray:
    if not np.isfinite(arr).all():
        where = "".join(f"[{k}]" for k in np.argwhere(~np.isfinite(arr))[0])
        raise SchemaError(f"{path}{where}: expected a finite number")
    return arr


def _bulk_numbers(obj, ndims: tuple[int, ...]) -> np.ndarray | None:
    """``obj`` as a float64 array of one of ``ndims`` axes, or None to decode it by element.

    The nested lists are flattened one level at a time with ``chain``;
    every level above the numbers must hold only lists, all of one
    length.  The flat numbers must all be ints or floats: numpy would
    also read ``True`` as 1.  numpy then converts them in one pass, as
    ``float()`` does.  Ragged rows, mixed scalars and pairs, integers
    beyond float range, strings and None are refused.  A float64 array,
    an encoder's output, is taken as it is, copied.
    """
    if type(obj) is np.ndarray:
        return obj.copy() if obj.dtype == float and obj.ndim in ndims and obj.size else None
    if type(obj) is not list:
        return None
    shape = [len(obj)]
    items = obj
    types = set(map(type, items))
    while types == {list} and len(shape) < max(ndims):
        widths = set(map(len, items))
        if len(widths) != 1:
            return None
        shape.append(widths.pop())
        items = list(chain.from_iterable(items))
        types = set(map(type, items))
    if not items or not types <= {int, float} or len(shape) not in ndims:
        return None
    try:
        return np.fromiter(items, float, len(items)).reshape(shape)
    except OverflowError:
        return None


def decode_complex_matrix(obj, path: str) -> np.ndarray:
    arr = _bulk_numbers(obj, (2, 3))
    if arr is not None and arr.ndim == 2:
        return _finite(arr.astype(complex), path)
    if arr is not None and arr.shape[2] == 2:
        # [re, im] pairs: the last axis is the real and imaginary part
        return _finite(arr.view(complex)[..., 0], path)
    rows = obj.tolist() if type(obj) is np.ndarray else obj  # the loop reads lists
    rows = _expect(rows, list, path, "a matrix (list of rows)")
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
    if width == 0:
        raise SchemaError(f"{path}: matrix must not be empty")
    return _finite(np.array(out, dtype=complex), path)


def decode_real_matrix(obj, path: str) -> np.ndarray:
    m = decode_complex_matrix(obj, path)
    if np.max(np.abs(m.imag)) > 0:
        raise SchemaError(f"{path}: expected a real matrix")
    return m.real


def decode_real_vector(obj, path: str, length: int | None = None) -> np.ndarray:
    out = _bulk_numbers(obj, (1,))
    if out is None:
        vec = obj.tolist() if type(obj) is np.ndarray else obj  # the loop reads lists
        vec, out = _expect(vec, list, path, "a list of numbers"), []
        try:
            for i, v in enumerate(vec):
                if isinstance(v, bool) or not isinstance(v, (int, float)):
                    raise SchemaError(f"{path}[{i}]: expected a number")
                out.append(float(v))
        except OverflowError:
            raise SchemaError(f"{path}[{i}]: expected a finite number") from None
        out = np.array(out)
    if length is not None and len(out) != length:
        raise SchemaError(f"{path}: expected {length} entries, got {len(out)}")
    return _finite(out, path)


# -- states -----------------------------------------------------------------


def pvec_to_json(p: PauliVector) -> dict:
    return {"n": p.n, "P": _finite_array(p.P)}


def pvec_from_json(obj, path: str = "state") -> PauliVector:
    obj = _expect(obj, dict, path, "an object")
    n = _decode_int(_expect_key(obj, "n", path), f"{path}.n", 1)
    vec = _expect(_expect_key(obj, "P", path), (list, np.ndarray), f"{path}.P", "a list of numbers")
    return PauliVector(n, decode_real_vector(vec, f"{path}.P", _entry_count(n, vec, f"{path}.P")))


def density_to_json(rho: DensityMatrix) -> dict:
    return {"n": rho.n, "entries": encode_complex_matrix(rho.entries)}


def density_from_json(obj, path: str = "state") -> DensityMatrix:
    obj = _expect(obj, dict, path, "an object")
    entries = decode_complex_matrix(_expect_key(obj, "entries", path), f"{path}.entries")
    n = _exponent(entries.shape[0], 2)
    if "n" in obj and _decode_int(obj["n"], f"{path}.n", 1) != n:
        raise SchemaError(f"{path}.n: inconsistent with entries shape {entries.shape}")
    if not n or entries.shape != (2**n, 2**n):
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
    # a kind name is checked, but the kind is read off the entries
    if kind is not None and kind not in ("trace_preserving", "trace_decreasing", "general"):
        raise SchemaError(f"{path}.kind: unknown kind {kind!r}")
    try:
        gate = gate_from_matrix(entries)
    except NumericContractError as exc:
        if not str(exc).startswith(_NO_QUQUAT):
            raise
        raise SchemaError(f"{path}.entries: {exc}") from None
    for key, want in (("n_in", gate.n_in), ("n_out", gate.n_out)):
        if key in obj and _decode_int(obj[key], f"{path}.{key}", 0) != want:
            raise SchemaError(f"{path}.{key}: inconsistent with entries shape")
    return gate


def kraus_to_json(k: KrausSet) -> dict:
    return {"ops": [encode_complex_matrix(a) for a in k.ops]}


def kraus_from_json(obj, path: str = "kraus") -> KrausSet:
    obj = _expect(obj, dict, path, "an object")
    ops = _decode_list(_expect_key(obj, "ops", path), f"{path}.ops", decode_complex_matrix)
    return KrausSet(tuple(ops))


def gks_model_to_json(m: GKSModel) -> dict:
    return {"H": [float(h) for h in m.h], "C": encode_complex_matrix(m.c)}


def gks_model_from_json(obj, path: str = "model") -> GKSModel:
    obj = _expect(obj, dict, path, "an object")
    h = decode_real_vector(_expect_key(obj, "H", path), f"{path}.H", 3)
    c = decode_complex_matrix(_expect_key(obj, "C", path), f"{path}.C")
    if c.shape != (3, 3):
        raise SchemaError(f"{path}.C: expected a 3x3 matrix")
    return GKSModel(h, c)


def lindblad_from_json(obj, path: str = "lindblad") -> tuple[GateMatrix, np.ndarray]:
    """Propagator gate and its Pauli-basis generator from a Lindblad spec.

    ``{"model": {H, C}, "tau": t}`` is the single-qubit GKS route and
    ``{"H": ..., "V": [...], "t": t}`` the general-n Liouvillian route; an
    absent or empty ``V`` means no jump operators.
    """
    obj = _expect(obj, dict, path, "an object")
    if "model" in obj:
        model = gks_model_from_json(obj["model"], f"{path}.model")
        tau = _decode_number(_expect_key(obj, "tau", path), f"{path}.tau")
        gen = gks_matrix(model)
        return gks_propagator(gen, tau), gen.matrix
    if "H" in obj:
        h = decode_complex_matrix(obj["H"], f"{path}.H")
        v = obj.get("V", [])
        ops = [] if v == [] else _decode_list(v, f"{path}.V", decode_complex_matrix)
        t = _decode_number(_expect_key(obj, "t", path), f"{path}.t")
        return _liouvillian_propagator(liouvillian_superop(h, ops), t)
    raise SchemaError(f"{path}: expected 'model' or 'H'")


def measurement_from_json(
    projectors, post_select, path: str = "projectors", post_path: str = "post_select"
) -> tuple[Measurement, int | None]:
    """The certified :class:`~ququat.gates.Measurement` and the optional post-selected index."""
    m = measurement(_decode_list(projectors, path, decode_complex_matrix))
    if post_select is None:
        return m, None
    post = _decode_int(post_select, post_path, 0)
    if post >= len(m.projectors):
        raise SchemaError(
            f"{post_path}: index {post} out of range for {len(m.projectors)} projectors"
        )
    return m, post


# -- classical logic --------------------------------------------------------


def table_to_json(t: TruthTable) -> dict:
    return {"arity": t.arity, "outputs": list(t.outputs)}


def table_from_json(obj, path: str = "table") -> TruthTable:
    obj = _expect(obj, dict, path, "an object")
    arity = _decode_int(_expect_key(obj, "arity", path), f"{path}.arity", 0)
    outputs = _expect(_expect_key(obj, "outputs", path), list, f"{path}.outputs", "a list")
    count = _entry_count(arity, outputs, f"{path}.outputs")
    if len(outputs) != count:
        raise SchemaError(f"{path}.outputs: expected {count} entries, got {len(outputs)}")
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
        return var_expr(_decode_int(obj["var"], f"{path}.var", 0))
    if "op" in obj:
        op = _expect(obj["op"], str, f"{path}.op", "a string")
        args = _expect(obj.get("args", []), list, f"{path}.args", "a list")
        return apply_expr(
            op, *[expression_from_json(a, f"{path}.args[{i}]") for i, a in enumerate(args)]
        )
    raise SchemaError(f"{path}: expected one of 'const', 'var', 'op'")
