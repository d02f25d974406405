"""Differential tests: the bulk array decoders against the per-element loop.

``decode_complex_matrix`` and ``decode_real_vector`` hand a document to
numpy first and fall back to a loop over its elements when numpy would
coerce or refuse it.  With the bulk path switched off, the loop decodes
everything, so it is the oracle: both routes must give the same array,
bit for bit, or the same ``SchemaError`` text.
"""

import json

import numpy as np
import pytest

from ququat import serialization as sz
from ququat.errors import NumericContractError, SchemaError
from ququat.gates import gate_from_kraus
from ququat.lindblad import GKSModel

from helpers import random_density, random_pvec, random_tp_kraus

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



def _encoded_values():
    """(encoder, decoder, value, the arrays that define the value) for every array encoder."""
    rng = np.random.default_rng(2026)
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    pvec, rho = random_pvec(rng, 2), random_density(rng, 2)
    gate, kraus = gate_from_kraus(random_tp_kraus(rng, 2)), random_tp_kraus(rng, 1)
    model = GKSModel(rng.normal(size=3), 0.2 * g @ g.conj().T)
    real, cplx = rng.normal(size=(3, 5)), g[:2]
    real[0, :2] = (-0.0, 1.5e-05)
    return [
        (sz.pvec_to_json, sz.pvec_from_json, pvec, lambda v: [v.P]),
        (sz.density_to_json, sz.density_from_json, rho, lambda v: [v.entries]),
        (sz.gate_to_json, sz.gate_from_json, gate, lambda v: [v.entries]),
        (sz.kraus_to_json, sz.kraus_from_json, kraus, lambda v: list(v.ops)),
        (sz.gks_model_to_json, sz.gks_model_from_json, model, lambda v: [v.h, v.c]),
        (sz.encode_real_matrix, lambda d: sz.decode_real_matrix(d, "m"), real, lambda v: [v]),
        (sz.encode_complex_matrix, lambda d: sz.decode_complex_matrix(d, "m"), cplx, lambda v: [v]),
    ]


@pytest.mark.parametrize("case", range(7))
def test_every_encoder_round_trips_through_its_decoder(case):
    """Payload arrays, and their JSON text, decode back to the same arrays, bit for bit."""
    encode, decode, value, arrays = _encoded_values()[case]
    doc = encode(value)
    for payload in (doc.values() if isinstance(doc, dict) else [doc]):
        for arr in payload if isinstance(payload, list) else [payload]:
            if isinstance(arr, np.ndarray):
                assert arr.dtype == float and arr.flags.c_contiguous
    want = [a.tobytes() for a in arrays(value)]
    for form in (doc, json.loads(json.dumps(doc, default=np.ndarray.tolist))):
        assert [a.tobytes() for a in arrays(decode(form))] == want


def test_decoders_take_arrays_they_cannot_read_in_bulk():
    """A numpy array that is not float64 of the right shape is decoded as its lists would be."""
    for obj in (np.array([[1, 2]]), np.array([[True, 0.5]], dtype=object), np.zeros((2, 0)),
                np.float64(1.0), np.ones((2, 2, 3)), np.array([[np.nan, 1.0]])):
        assert _outcome(sz.decode_complex_matrix, obj) == _outcome(sz.decode_complex_matrix,
                                                                   _listed(obj))
    for obj in (np.array([1, 2]), np.ones((2, 2)), np.array([np.inf])):
        assert _outcome(sz.decode_real_vector, obj) == _outcome(sz.decode_real_vector, _listed(obj))


def _listed(obj):
    return obj.tolist() if isinstance(obj, np.ndarray) else obj


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_array_encoders_refuse_non_finite_entries(bad):
    m = np.eye(2)
    m[1, 0] = bad
    for encode in (sz.encode_real_matrix, sz.encode_complex_matrix):
        with pytest.raises(NumericContractError, match="non-finite"):
            encode(m)
    m = np.eye(2, dtype=complex)
    m[0, 1] = complex(0, bad)
    with pytest.raises(NumericContractError, match="non-finite"):
        sz.encode_complex_matrix(m)


@pytest.mark.parametrize("obj", [10**400, -(10**400), [10**400, 0], [0, -(10**400)]],
                         ids=["int", "negative", "real part", "imaginary part"])
def test_decode_complex_refuses_an_integer_beyond_float_range(obj):
    with pytest.raises(SchemaError, match=r"^x: expected a finite number$"):
        sz.decode_complex(obj, "x")
    with pytest.raises(SchemaError, match=r"^m\[0\]\[1\]: expected a finite number$"):
        sz.decode_complex_matrix([[1, obj]], "m")
