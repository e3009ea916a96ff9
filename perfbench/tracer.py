"""Spans around calls into the public functions of each `dicke4` module.

The wrappers live here, in the benchmark, and are installed by replacing
every module attribute that refers to a wrapped function, so calls between
modules (`from .lindblad_solver import evolve`) are caught as well as calls
from outside.  Spans stay in memory, in flat arrays (the battery makes
about 2e5 spans per run), and `write` dumps them at the end.

A span has a function key, a size tag Z, start and end times and the index
of its parent span.  Calls that missed an `lru_cache` are marked cold.  The
time the benchmark's own counter takes after a call is kept apart as the
span's hook time; it belongs to no layer.  The self time of a span is its
duration minus the durations and hook times of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
from array import array

LAYERS = ("cli", "symmetric_sector", "lindblad_solver", "observables",
          "dense_oracle", "su4_algebra", "verification")

# Label and word helpers run once per word or per basis label (4^Z times in
# a dense reconstruction); a span there would cost more than the call.
UNTRACED = {
    "su4_algebra": {"oracle_limit", "validate_word", "word_sum", "clean", "add_into",
                    "scale", "single_site_action", "word_entry", "dual"},
    "symmetric_sector": {"qnum", "qn_from_config", "config_from_qn", "multiplicity",
                         "dual_qn", "apply_qtilde", "apply_ladder", "sector_dimension"},
    "cli": {"build_parser", "entry"},
}

VERIFY_CHECKS = (
    "check_commutator_table", "check_dependency_identities", "check_linearity",
    "check_duality", "check_casimir", "check_dimension", "check_ladder_vs_dense",
    "check_biorthogonality", "check_spectrum", "check_block_rates",
    "check_decay_closed_form", "check_dephasing_vs_oracle", "check_bell_weights",
    "check_bch_vs_oracle", "check_ghz_weights", "check_physicality",
    "check_entropy_endpoints", "check_inversion_formulas",
)


def _size_tag(args) -> int:
    """Z of a call: an int first argument, a `.z` attribute of the first
    argument (states, parameters), or log2 of a square dense matrix."""
    if not args:
        return 0
    a = args[0]
    if isinstance(a, int) and not isinstance(a, bool):
        return a
    z = getattr(a, "z", None)
    if isinstance(z, int):
        return z
    shape = getattr(a, "shape", None)
    if shape is not None and len(shape) == 2 and shape[0] == shape[1] and shape[0] > 1:
        return int(round(math.log2(shape[0])))
    return 0


class Tracer:
    def __init__(self):
        self.keys = []               # key id -> "layer.function"
        self.key = array("i")
        self.z = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cold = set()            # span indices whose call missed an lru_cache
        self.hook = {}               # span index -> seconds in the benchmark's counter
        self.stack = []
        self.enabled = True
        self.nonfinite_states = 0
        self._patched = []

    def __len__(self) -> int:
        return len(self.start)

    # -------------------------------------------------------------- install
    def install(self) -> None:
        import numpy as np
        mods = [importlib.import_module(f"dicke4.{name}") for name in LAYERS]
        replacements = {}
        for layer, mod in zip(LAYERS, mods):
            skip = UNTRACED.get(layer, set())
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or name in skip:
                    continue
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    post = None
                    if (layer, name) == ("lindblad_solver", "evolve"):
                        def post(out):
                            if not np.all(np.isfinite(out.coeffs)):
                                self.nonfinite_states += 1
                    replacements[id(obj)] = (obj, self._wrap(f"{layer}.{name}", obj, post))
        for mod in [importlib.import_module("dicke4"), *mods]:
            for name, obj in list(vars(mod).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, name, obj))
                    setattr(mod, name, hit[1])

    def _wrap_methods(self, layer: str, cls) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, classmethod):
                wrapped = classmethod(self._wrap(key, attr.__func__))
            elif inspect.isfunction(attr):
                wrapped = self._wrap(key, attr)
            else:
                continue
            self._patched.append((cls, name, attr))
            setattr(cls, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._patched):
            setattr(owner, name, obj)
        self._patched.clear()

    def _wrap(self, key: str, fn, post=None):
        kid = len(self.keys)
        self.keys.append(key)
        keys, zs, parents, starts, ends = self.key, self.z, self.parent, self.start, self.end
        stack, cold, hook = self.stack, self.cold, self.hook
        cache_info = getattr(fn, "cache_info", None)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(starts)
            keys.append(kid)
            zs.append(_size_tag(args))
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            misses = cache_info().misses if cache_info else 0
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                if cache_info and cache_info().misses > misses:
                    cold.add(idx)
            if post is not None:
                post(out)
                hook[idx] = clock() - ends[idx]
            return out

        return wrapper

    # -------------------------------------------------------------- results
    def arrays(self):
        """(key id, Z, duration, self time) of every span, as numpy arrays."""
        import numpy as np
        key = np.frombuffer(self.key, dtype=np.int32)
        z = np.frombuffer(self.z, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        hook = np.zeros_like(dur)
        if self.hook:
            hook[list(self.hook)] = list(self.hook.values())
        own = dur.copy()
        child = parent >= 0
        np.subtract.at(own, parent[child], dur[child] + hook[child])
        return key, z, dur, own

    def write(self, path) -> None:
        import numpy as np
        np.savez(path, keys=np.array(self.keys), key=np.frombuffer(self.key, dtype=np.int32),
                 z=np.frombuffer(self.z, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 cold=np.array(sorted(self.cold), dtype=np.int64),
                 hook_index=np.array(list(self.hook), dtype=np.int64),
                 hook_s=np.array(list(self.hook.values())))


def layer_metrics(tracer: Tracer, first_measured: int, rounds: int, import_s: float,
                  ops_per_s: float, sector_dimension) -> dict:
    """Per-layer metrics from the spans.  Spans before `first_measured` come
    from the warm-up; they feed only the cold-build metrics.  Timings are
    medians per call; counts and layer self times are per round.  A metric
    whose layer the workload never calls reads 0."""
    import numpy as np
    key, z, dur, own = tracer.arrays()
    measured = np.arange(len(dur)) >= first_measured
    cold = np.zeros(len(dur), dtype=bool)
    cold[list(tracer.cold)] = True
    ids = {name: k for k, name in enumerate(tracer.keys)}

    def sel(name, size=None, where=measured):
        mask = where & (key == ids.get(name, -1))
        return mask if size is None else mask & (z == size)

    def med(values) -> float:
        return float(np.median(values)) if len(values) else 0.0

    def per_call(name, size=None):
        return med(dur[sel(name, size)])

    def cold_call(name, size=None):
        return med(dur[sel(name, size, cold)])

    m = {"dicke4.import_s": (import_s, "s")}
    for zz in (20, 40, 60):
        m[f"symmetric_sector.basis_s.z{zz}"] = (cold_call("symmetric_sector.basis", zz), "s")
        m[f"lindblad_solver.ladder_matrices_s.z{zz}"] = (
            cold_call("lindblad_solver.ladder_matrices", zz), "s")
        m[f"lindblad_solver.evolve_s.z{zz}"] = (per_call("lindblad_solver.evolve", zz), "s")
    evolves = sel("lindblad_solver.evolve")
    m["lindblad_solver.evolve_calls"] = (int(evolves.sum()) / rounds, "count")
    m["lindblad_solver.coeffs_propagated"] = (
        sum(sector_dimension(int(zz)) for zz in z[evolves]) / rounds, "count")
    m["lindblad_solver.nonfinite_states"] = (tracer.nonfinite_states / rounds, "count")
    m["cli.main_self_s"] = (med(own[sel("cli.main")]), "s")
    m["observables.atomic_inversion_s"] = (per_call("observables.atomic_inversion"), "s")
    to_dense = "symmetric_sector.SymmetricVector.to_dense"
    extract = "symmetric_sector.extract_coefficients"
    for zz in (6, 7, 8, 9):
        m[f"symmetric_sector.to_dense_s.z{zz}"] = (per_call(to_dense, zz), "s")
        m[f"symmetric_sector.extract_coefficients_s.z{zz}"] = (per_call(extract, zz), "s")
        m[f"observables.matrix_entropy_s.z{zz}"] = (per_call("observables.matrix_entropy", zz), "s")
    dense = sel(to_dense) | sel(extract)
    m["symmetric_sector.dense_entries"] = (float(np.sum(4.0 ** z[dense])) / rounds, "count")
    for check in VERIFY_CHECKS:
        m[f"verification.{check}_s"] = (per_call(f"verification.{check}"), "s")
    m["su4_algebra.apply_superoperator_calls"] = (
        int(sel("su4_algebra.apply_superoperator").sum()) / rounds, "count")
    m["su4_algebra.apply_superoperator_s"] = (per_call("su4_algebra.apply_superoperator"), "s")
    m["dense_oracle.dense_propagate_s"] = (per_call("dense_oracle.dense_propagate"), "s")
    m["dense_oracle.liouvillian_sparse_s"] = (cold_call("dense_oracle.liouvillian_sparse"), "s")
    m["lindblad_solver.spectrum_s"] = (per_call("lindblad_solver.spectrum"), "s")
    m["lindblad_solver.liouvillian_matrix_s"] = (per_call("lindblad_solver.liouvillian_matrix"), "s")
    layer_of = np.array([name.split(".")[0] for name in tracer.keys])
    for layer in LAYERS:
        in_layer = np.isin(key, np.flatnonzero(layer_of == layer))
        m[f"{layer}.self_s"] = (float(own[measured & in_layer].sum()) / rounds, "s")
    m["trace.ops_per_s"] = (ops_per_s, "1/s")
    return m
