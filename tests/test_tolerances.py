"""One tolerance source: ``ququat.config.tolerances``, read by every check when it runs."""

import functools
import importlib
import inspect
import pkgutil
from types import SimpleNamespace

import numpy as np
import pytest

import ququat
from ququat import (
    GKSModel,
    GateMatrix,
    KrausSet,
    LiouvillianSuperop,
    NumericContractError,
    PauliVector,
    analyze_gate,
    apply_linear,
    apply_nonlinear,
    check_reversible,
    check_reversible_superop,
    choi_matrix,
    computational_state,
    density_to_pvec,
    euler_angles,
    gate_from_kraus,
    gate_from_matrix,
    gate_from_unitary,
    gks_matrix,
    measurement_gates,
    polar_gate,
    pvec_to_density,
    set_tolerances,
    split_translation,
    svd_gate,
    svd_rect_gate,
    validate_density,
)
from ququat.config import Tolerances, tolerances
from ququat.gates import (
    TRACE_PRESERVING,
    _kraus_gate,
    classify_kind,
    measurement,
)
from ququat.liouville import SIGMA, DensityMatrix, PauliIndex

OFF = 1e-8  # how far each input below is from its contract
LOOSE = 1e-6  # an algebra tolerance that lets every such input through


@pytest.fixture(autouse=True)
def default_tolerances():
    """Every test starts and ends at the package defaults."""
    set_tolerances(algebra=Tolerances.algebra, psd=Tolerances.psd)
    yield
    set_tolerances(algebra=Tolerances.algebra, psd=Tolerances.psd)


def _callables():
    """(qualified name, callable) of every function and method the package defines."""
    modules = [ququat] + [
        importlib.import_module(f"ququat.{info.name}")
        for info in pkgutil.iter_modules(ququat.__path__)
    ]
    for module in modules:
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    elif isinstance(member, functools.cached_property):
                        member = member.func
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_callable_takes_a_tolerance():
    found = dict(_callables())
    assert "ququat.gates.KrausSet.kind" in found and "ququat.gates._kraus_transfer" in found
    knobs = {"tol", "threshold"}
    assert [name for name, fn in found.items() if knobs & set(inspect.signature(fn).parameters)] == []


# -- one input OFF from its contract per former ``tol`` function ---------------

_P0_OFF = np.diag([1.0 + OFF, 0.0])  # a projector that is not idempotent by 2e-8
_SCALED_ID = [np.sqrt(1.0 + OFF) * np.eye(2)]  # a Kraus set that adds OFF to the trace
_ROW0_OFF = np.diag([1.0, 1.0, -1.0, -1.0])
_ROW0_OFF[0, 1] = OFF  # row 0 is OFF from delta
_MIXED = computational_state(PauliIndex((0,)))


def _gate(entries, kind=TRACE_PRESERVING):
    return GateMatrix(1, 1, np.asarray(entries, dtype=float), kind)


def _probability_above_one():
    entries = np.eye(4)
    entries[0, 0] = 1.0 + OFF
    return entries


def _translated_identity():
    entries = np.eye(4)
    entries[1, 0] = OFF  # a translation of OFF: not unital
    return entries


def _choi_of_nonreal_gate():
    # a real gate's Choi matrix is always Hermitian, so this probe hands
    # choi_matrix a gate stand-in with an imaginary entry of OFF
    entries = np.eye(4, dtype=complex)
    entries[1, 1] += 1j * OFF
    return choi_matrix(SimpleNamespace(n_in=1, n_out=1, entries=entries))


def _generator_off_trace():
    return LiouvillianSuperop(n=1, matrix=OFF * np.eye(4)).to_pauli_generator()


_RHO_OFF = (SIGMA[0] + 1j * OFF * SIGMA[1]) / 2  # an imaginary Pauli coefficient of OFF
_C_OFF = np.eye(3, dtype=complex)
_C_OFF[0, 1] = OFF  # C is not Hermitian by OFF

# (former tol function, call): the call returns whether the input met the
# contract; NumericContractError counts as not meeting it
CASES = [
    ("density_to_pvec", lambda: density_to_pvec(DensityMatrix(1, _RHO_OFF))),
    ("pvec_to_density", lambda: pvec_to_density(PauliVector(1, [1.0 + OFF, 0, 0, 0]))),
    ("validate_density", lambda: validate_density(PauliVector(1, [1.0 + OFF, 0, 0, 0])).unit_trace),
    ("KrausSet.kind", lambda: KrausSet(tuple(_SCALED_ID)).kind() == TRACE_PRESERVING),
    ("classify_kind", lambda: classify_kind(_ROW0_OFF) == TRACE_PRESERVING),
    ("gate_from_matrix", lambda: gate_from_matrix(_ROW0_OFF).kind == TRACE_PRESERVING),
    ("gate_from_unitary", lambda: gate_from_unitary((1.0 + OFF) * SIGMA[1])),
    ("gate_from_kraus", lambda: gate_from_kraus(_SCALED_ID)),
    ("measurement_gates", lambda: measurement_gates([_P0_OFF])),
    ("apply_linear", lambda: apply_linear(_gate(_probability_above_one()), _MIXED)),
    ("apply_nonlinear", lambda: apply_nonlinear(_gate(_probability_above_one()), _MIXED)),
    ("choi_matrix", _choi_of_nonreal_gate),
    ("analyze_gate", lambda: analyze_gate(_gate(_ROW0_OFF, "trace_decreasing")).trace_preserving),
    ("check_reversible", lambda: check_reversible([SIGMA[0]], _P0_OFF)),
    ("check_reversible_superop",
     lambda: check_reversible_superop(_gate(np.eye(4)), _gate(np.diag([1.0 + OFF, 1, 1, 1])))),
    ("_kraus_gate", lambda: _kraus_gate(_SCALED_ID, 1, 1, TRACE_PRESERVING)),
    # measurement() now holds the checks of both former projector helpers
    ("_projector_family", lambda: measurement([_P0_OFF])),
    ("_branch_rows", lambda: measurement([_P0_OFF]).rows),
    ("split_translation", lambda: split_translation(_gate(_ROW0_OFF))),
    ("svd_rect_gate", lambda: svd_rect_gate(_gate(_ROW0_OFF))),
    ("svd_gate", lambda: svd_gate(_gate(_ROW0_OFF))),
    ("polar_gate", lambda: polar_gate(_gate(_ROW0_OFF))),
    ("euler_angles", lambda: euler_angles(_gate(_translated_identity()))),
    ("GKSModel.is_hermitian", lambda: GKSModel(np.zeros(3), _C_OFF).is_hermitian()),
    ("gks_matrix", lambda: gks_matrix(GKSModel(np.zeros(3), _C_OFF))),
    ("LiouvillianSuperop.to_pauli_generator", _generator_off_trace),
]


def _meets_contract(call) -> bool:
    try:
        return call() is not False
    except NumericContractError:
        return False


@pytest.mark.parametrize("call", [call for _, call in CASES], ids=[name for name, _ in CASES])
def test_off_contract_input_follows_the_global_tolerance(call):
    assert tolerances.algebra == 1e-10
    assert not _meets_contract(call)
    set_tolerances(algebra=LOOSE)
    assert _meets_contract(call)
