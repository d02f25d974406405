"""Per-layer tracing by wrapping the package's public functions from outside.

Each traced function is replaced, in every ``ququat`` module namespace that
holds it (and on its class, for a method), by a wrapper that counts calls
and accumulates self time: the wall time inside the call minus the time
spent in wrapped calls it makes.  Functions are looked up by name at call
time, so a wrapper in ``ququat.gates`` also catches the call that
``analyze_gate`` makes to ``choi_matrix``.  :meth:`Tracer.uninstall`
puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (metric prefix, module, attribute path); several attributes may share a
# prefix, and then their figures are summed.
_FIXED_TARGETS = (
    ("cli.main", "ququat.cli", "main"),
    ("circuits.embed_gate", "ququat.circuits", "embed_gate"),
    ("circuits.parse_circuit", "ququat.circuits", "parse_circuit"),
    ("circuits.run_circuit", "ququat.circuits", "run_circuit"),
    ("gates.choi_matrix", "ququat.gates", "choi_matrix"),
    ("gates.analyze_gate", "ququat.gates", "analyze_gate"),
    ("gates.gate_from_unitary", "ququat.gates", "gate_from_unitary"),
    ("gates.gate_from_kraus", "ququat.gates", "gate_from_kraus"),
    ("gates.measurement_gates", "ququat.gates", "measurement_gates"),
    ("gates.apply_linear", "ququat.gates", "apply_linear"),
    ("gates.apply_nonlinear", "ququat.gates", "apply_nonlinear"),
    ("liouville.validate_density", "ququat.liouville", "validate_density"),
    ("lindblad.liouvillian_superop", "ququat.lindblad", "liouvillian_superop"),
    (
        "lindblad.LiouvillianSuperop.to_pauli_generator",
        "ququat.lindblad",
        "LiouvillianSuperop.to_pauli_generator",
    ),
    ("decompositions.named_gate", "ququat.decompositions", "named_gate"),
    ("mvlogic.closure", "ququat.mvlogic", "closure"),
    ("mvlogic.synthesize_quantum", "ququat.mvlogic", "synthesize_quantum"),
    ("universality.lie_closure_dim", "ququat.universality", "lie_closure_dim"),
    ("universality.trace_decreasing_bound", "ququat.universality", "trace_decreasing_bound"),
)

# Counts derived from results: (metric, unit, better).
DERIVED = (
    ("circuits.embed_gate.bytes", "B", "lower"),
    ("mvlogic.closure.tables", "count", "higher"),
    ("universality.lie_closure_dim.dim", "count", "higher"),
)


def _serialization_targets() -> list[tuple[str, str, str]]:
    import ququat.serialization as sz

    out = []
    for name in sz.__all__:
        if name.startswith("decode_") or name.endswith("_from_json"):
            out.append(("serialization.decode", "ququat.serialization", name))
        elif name.startswith("encode_") or name.endswith("_to_json"):
            out.append(("serialization.encode", "ququat.serialization", name))
    return out


def targets() -> list[tuple[str, str, str]]:
    """Every traced (metric prefix, module, attribute path); imports ququat."""
    return list(_FIXED_TARGETS) + _serialization_targets()


def prefixes() -> list[str]:
    """Metric prefixes in report order, without importing ququat."""
    return [p for p, _, _ in _FIXED_TARGETS] + ["serialization.decode", "serialization.encode"]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for p in prefixes():
        out.append((f"{p}.self_s", "s", "lower"))
        out.append((f"{p}.calls", "count", "lower"))
    return out + list(DERIVED)


def _ququat_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "ququat" or name.startswith("ququat.")]


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _embed_bytes(args, kwargs, result):
    gate = args[0] if args else kwargs["gate"]
    n = args[2] if len(args) > 2 else kwargs["n"]
    # embed_gate returns its argument unchanged when no embedding is needed
    return 0 if result is gate else 8 * 16**n


_DERIVE = {
    "circuits.embed_gate": ("circuits.embed_gate.bytes", _embed_bytes),
    "mvlogic.closure": ("mvlogic.closure.tables", lambda a, k, r: len(r.tables)),
    "universality.lie_closure_dim": ("universality.lie_closure_dim.dim", lambda a, k, r: int(r)),
}


class Tracer:
    """Installs counting wrappers; one instance per traced run."""

    def __init__(self):
        self.calls: dict[str, int] = {p: 0 for p in prefixes()}
        self.self_s: dict[str, float] = {p: 0.0 for p in prefixes()}
        self.derived: dict[str, int] = {name: 0 for name, _, _ in DERIVED}
        # child-time accumulators of the open wrapped calls; the bottom
        # entry collects top-level time and is never read
        self._stack = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, prefix: str):
        stack = self._stack
        clock = time.perf_counter
        calls, self_s = self.calls, self.self_s
        derive = _DERIVE.get(prefix)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                stack[-1] += elapsed
                calls[prefix] += 1
                self_s[prefix] += elapsed - child
            if derive is not None:
                self.derived[derive[0]] += derive[1](args, kwargs, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        resolved = [(prefix, *_resolve(module, path)) for prefix, module, path in targets()]
        modules = _ququat_modules()
        for prefix, owner, name in resolved:
            original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
            wrapper = self._wrap(original, prefix)
            if isinstance(owner, type):
                self._patch(owner, name, original, wrapper)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, original, wrapper)

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict:
        out = {}
        for p in prefixes():
            out[f"{p}.self_s"] = {"value": self.self_s[p], "unit": "s"}
            out[f"{p}.calls"] = {"value": self.calls[p], "unit": "count"}
        for name, unit, _ in DERIVED:
            out[name] = {"value": self.derived[name], "unit": unit}
        return out


def wrapped_attributes() -> list[str]:
    """Names of ququat attributes that are tracer wrappers; empty when untraced."""
    found = []
    for mod in _ququat_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, "__perfbench_original__"):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for name, member in vars(value).items():
                    if hasattr(member, "__perfbench_original__"):
                        found.append(f"{mod.__name__}.{attr}.{name}")
    return found
