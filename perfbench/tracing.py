"""Spans around gridprep's public functions, recorded from outside.

`Tracer.install` replaces each function named in LAYERS by a wrapper in
every gridprep module that holds it, because callers look functions up in
their own module (compose imports `partial_trace` by name, for example).
Methods are wrapped on their class, and `DensityMatrix` on its `__init__`,
so construction with validation is timed and `isinstance` still works.

A span is [name, start, end, parent span, operation id, input MiB]; spans
stay in memory until the run writes them out.
"""
from __future__ import annotations

import functools
import sys
import time

import numpy as np

#: Public functions to time, by layer (module of gridprep).
LAYERS = {
    "basis": ["Orbital.grid_values", "BasisSet.grid_matrix",
              "BasisSet.fock_unitary"],
    "loader": ["load_orbital", "apply_phases"],
    "assemble": ["antisymmetrize", "generate_permutation_superposition",
                 "apply_rank_to_permutation", "sort_and_entangle"],
    "discriminate": ["PhaseEstimationConfig.build", "identify_and_decrement",
                     "phase_estimate", "verify_uncomputation"],
    "statevec": ["QuantumState.segment_is_blank", "apply_unitary_on_segment",
                 "check_unitary", "qft", "measure_segment", "partial_trace",
                 "DensityMatrix", "extract_segment_vector"],
    "compose": ["prepare_orbital", "prepare_slater", "prepare_superposition",
                "prepare_mixed"],
}

MIB = float(1 << 20)


def _amplitude_mib(value) -> float:
    """MiB of the amplitude vector of a QuantumState, or of the first one
    in a tuple; 0 for anything else.
    """
    if isinstance(value, tuple) and value:
        value = value[0]
    amps = getattr(value, "amplitudes", None)
    return amps.nbytes / MIB if isinstance(amps, np.ndarray) else 0.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.max_state_mib = 0.0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            mib = next((m for m in map(_amplitude_mib, args) if m), 0.0)
            span = [name, 0.0, 0.0,
                    tracer._stack[-1] if tracer._stack else -1, tracer.op,
                    mib]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            tracer.max_state_mib = max(tracer.max_state_mib, mib,
                                       _amplitude_mib(out))
            return out

        return traced

    def install(self, gp) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and name.split(".")[0] == gp.__name__]
        for layer, names in LAYERS.items():
            module = getattr(gp, layer)
            for qualname in names:
                self._install_one(modules, module, layer, qualname)

    def _install_one(self, modules, module, layer, qualname):
        span_name = f"{layer}.{qualname}"
        owner, _, attr = qualname.rpartition(".")
        if owner:  # a method: wrap it on its class
            cls = getattr(module, owner)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(cls, attr,
                        classmethod(self._wrap(span_name, raw.__func__)))
            else:
                setattr(cls, attr, self._wrap(span_name, raw))
            return
        target = getattr(module, attr)
        if isinstance(target, type):  # a class: time its construction
            target.__init__ = self._wrap(span_name, target.__init__)
            return
        wrapped = self._wrap(span_name, target)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is target:
                    setattr(mod, key, wrapped)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive seconds, self seconds (minus direct
        children), calls, and input MiB summed over calls.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _, mib) in enumerate(self.spans):
            row = out.setdefault(name, {"s": 0.0, "self_s": 0.0,
                                        "calls": 0, "amp_mib": 0.0})
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
            row["calls"] += 1
            row["amp_mib"] += mib
        return out
