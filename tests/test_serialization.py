"""Differential tests: the bulk array decoders against the per-element loop.

``decode_complex_matrix`` and ``decode_real_vector`` hand a document to
numpy first and fall back to a loop over its elements when numpy would
coerce or refuse it.  With the bulk path switched off, the loop decodes
everything, so it is the oracle: both routes must give the same array,
bit for bit, or the same ``SchemaError`` text.
"""

import numpy as np
import pytest

from ququat import serialization as sz
from ququat.errors import SchemaError

NAN = float("nan")
INF = float("inf")

MATRICES = [
    # numpy turns bools into numbers without complaint
    [[True, 1.5]],
    [[True, 1]],
    [[False]],
    [[1.5, False]],
    [[[True, 0]]],
    # integers at and beyond the int64 and float ranges
    [[10**19]],
    [[10**19, -1]],
    [[10**19, 0.5]],
    [[2**64 + 1, -1]],
    [[2**70, 0.5]],
    [[10**400]],
    [[10**400, 0.5]],
    [[1, [0, -(10**400)]]],
    [[2**63 - 1]],
    [[2**63 - 1, 0.5]],
    [[-(2**63)]],
    [[-(2**63) - 1]],
    [[2**53 + 1]],
    [[2**53 + 1, 0.5]],
    [[[2**53 + 1, 1]]],
    # mixed scalars and pairs, ragged rows
    [[1, [1, 2]]],
    [[[1, 2], 1]],
    [[1, 2], [3]],
    [[[1, 2]], [[1, 2], [3, 4]]],
    [[[1, 2]], [3]],
    # other JSON values and shapes
    [["x", 1]],
    [[1, "1"]],
    [[None]],
    [[1, None]],
    [[[1, None]]],
    [[{}]],
    [[{"re": 1}, 2]],
    [],
    [[]],
    [[], []],
    [[[]]],
    [[[1, 2, 3]]],
    [[[1]]],
    [[[[1, 2]]]],
    [1, 2],
    [[1], 2],
    [(1, 2)],
    [[(1, 2)]],
    "x",
    None,
    {},
    # signed zeros, extremes and non-finite values at inner positions
    [[-0.0, 1]],
    [[[-0.0, -0.0]]],
    [[-0.0, [0.0, -0.0]]],
    [[1e308, -1e308]],
    [[[1e308, 1]]],
    [[5e-324, 1e-320]],
    [[1, 2], [3, NAN]],
    [[[1, 0], [0, INF]]],
    [[1, 2], [-INF, NAN]],
    [[[1, 0], [0, 1]], [[0, NAN], [0, 1]]],
    [[1, [0, INF]], [1, 0]],
]

VECTORS = [
    [True, 1.5],
    [1, True],
    [1, 2],
    [1, 2.5],
    [],
    [10**19],
    [10**19, -1],
    [10**400],
    [1, 10**400],
    [2**53 + 1],
    [2**63 - 1, 0.5],
    [1, None],
    ["x"],
    [[1]],
    [[1], 2],
    [(1,)],
    [NAN, 1],
    [1, INF],
    [-0.0],
    [1e308, -1e308],
    "x",
    {},
]


def _outcome(decode, obj, **kw):
    try:
        out = decode(obj, "U", **kw)
    except SchemaError as exc:
        return "error", str(exc)
    return out.dtype.str, out.shape, out.tobytes()


def _both(monkeypatch, decode, obj, **kw):
    bulk = _outcome(decode, obj, **kw)
    with monkeypatch.context() as m:
        m.setattr(sz, "_bulk_numbers", lambda *args: None)
        loop = _outcome(decode, obj, **kw)
    return bulk, loop


def _random_matrices():
    rng = np.random.default_rng(2024)
    out = []
    for rows, cols in ((1, 1), (2, 2), (3, 5), (16, 16)):
        re = rng.normal(size=(rows, cols))
        im = rng.normal(size=(rows, cols))
        out.append(re.tolist())
        out.append(rng.integers(-5, 5, size=(rows, cols)).tolist())
        out.append(np.stack((re, im), axis=-1).tolist())
        # ints and floats mixed inside one matrix and inside its pairs
        mixed = np.stack((re, im), axis=-1).tolist()
        mixed[0][0] = [3, -2]
        out.append(mixed)
    # the size of an n=8 density matrix
    out.append(np.stack((rng.normal(size=(256, 256)), rng.normal(size=(256, 256))), axis=-1).tolist())
    return out


RANDOM = _random_matrices()


@pytest.mark.parametrize("decode", [sz.decode_complex_matrix, sz.decode_real_matrix])
@pytest.mark.parametrize(
    "obj",
    MATRICES + RANDOM,
    ids=[repr(m) for m in MATRICES] + [f"random{i}" for i in range(len(RANDOM))],
)
def test_matrix_decoders_agree(monkeypatch, decode, obj):
    bulk, loop = _both(monkeypatch, decode, obj)
    assert bulk == loop


@pytest.mark.parametrize("length", [None, 2])
@pytest.mark.parametrize("obj", VECTORS, ids=repr)
def test_vector_decoders_agree(monkeypatch, obj, length):
    bulk, loop = _both(monkeypatch, sz.decode_real_vector, obj, length=length)
    assert bulk == loop


def test_well_formed_documents_skip_the_per_element_loop(monkeypatch):
    def refuse(*args):
        raise AssertionError("per-element decode on a well-formed document")

    monkeypatch.setattr(sz, "decode_complex", refuse)
    for obj in RANDOM:
        sz.decode_complex_matrix(obj, "U")
    assert sz.decode_real_vector([1, 2.5, -3], "P").tolist() == [1.0, 2.5, -3.0]
    # a bool is not a number here, and only the loop can say where it is
    with pytest.raises(AssertionError):
        sz.decode_complex_matrix([[1.5, True]], "U")

