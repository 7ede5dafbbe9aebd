"""Per-layer tracing of mixlab from outside the package.

``Tracer.install()`` replaces the public functions listed in ``LAYERS`` with
timing wrappers: methods are patched on their class, and module-level
functions are replaced under every ``mixlab.*`` module name (and inside every
module-level dict, such as ``cli.RUNNERS``) that holds them, because modules
import each other's functions by name.  ``uninstall()`` restores the
originals, so untraced runs execute the unmodified program.

Each call records one span ``(name, start_ns, end_ns, parent, units, bytes)``
in memory.  Self time is a span's duration minus the durations of its direct
children; the program runs single-threaded (``--threads 1``), so children
never overlap.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from pathlib import Path

import numpy as np

F64 = 8  # bytes per float64 coordinate


def em_steps(t: float, h: float) -> int:
    """Euler-Maruyama steps over horizon t with step h (full steps plus a remainder)."""
    n_full = math.floor(t / h + 1e-12)
    return n_full + (1 if t - n_full * h > 1e-12 * max(1.0, t) else 0)


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def _em_path_steps(a, r) -> int:
    return int(a["n"]) * em_steps(a["T"], a["cfg"].step) if a["T"] > 0 else 0


# layer -> (module, [(function, unit, units(bound_args, result) or None)])
# A unit names the work one call does; functions without one report only
# calls and self time.
LAYERS = {
    "rng": ("mixlab.rng", [
        ("substream", None, None),
        ("parallel_map", None, None),
    ]),
    "measures": ("mixlab.measures", [
        ("MultiModalData.sample", "coord", lambda a, r: r.size),
        ("SphericalMeasure.sample", "coord", lambda a, r: r.size),
        ("projection_norm_samples", "coord", lambda a, r: r.size * int(a["k"])),
        ("projection_quantile", "coord", lambda a, r: int(a["n"]) * int(a["k"])),
        ("MultiModalData.mass_within_origin_ball", "coord",
         lambda a, r: int(a["n"]) * a["self"].d),
        # validate_data_spec raises n to at least 1e5 before sampling
        ("validate_data_spec", "coord", lambda a, r: max(int(a["n"]), 100_000) * a["spec"].d),
    ]),
    "forward": ("mixlab.forward", [
        ("OUProcess.evolve", "coord", lambda a, r: r.size),
        ("TemperedLangevin.sample_endpoints", "path-step", _em_path_steps),
        ("TemperedLangevin.drift", "path-step", lambda a, r: _rows(a["x"])),
        ("TemperedLangevin.dispersion_scalar", "path-step", lambda a, r: _rows(a["x"])),
        ("check_linear_growth", None, None),
        ("check_drift_condition", None, None),
        ("check_dispersion_balance", None, None),
    ]),
    "bounds": ("mixlab.bounds", [
        ("tv_lower_bound", None, None),
        ("SubspaceProjector.lyapunov", "sample", lambda a, r: _rows(a["x"])),
        ("LinearRate.grow", None, None),
        ("LinearRate.threshold_level", None, None),
        ("ou_tv_upper_bound", None, None),
        ("check_growth_envelope", None, None),
        ("check_generator_bound", None, None),
        ("mixing_horizons", None, None),
    ]),
    "stats": ("mixlab.stats", [
        ("projected_tv_vs_gaussian", "sample", lambda a, r: _rows(a["samples"])),
        ("empirical_tv_1d", "sample", lambda a, r: int(np.asarray(a["samples_a"]).size)),
        ("ks_statistic", "sample", lambda a, r: int(np.asarray(a["samples"]).size)),
    ]),
    "experiments": ("mixlab.experiments", [
        ("run_cutoff", None, None),
        ("run_lowerbound", None, None),
        ("run_validate", None, None),
    ]),
    "cli": ("mixlab.cli", [
        ("main", None, None),
        ("resolve_config", None, None),
        ("write_csv", "B", lambda a, r: Path(a["path"]).stat().st_size),
    ]),
}

UNIT_NAMES = {"coord": "ns/coord", "path-step": "ns/path-step", "sample": "ns/sample",
              "B": "ns/B"}
OVERHEAD_METRICS = ("trace.untraced_wall_s", "trace.traced_wall_s", "trace.overhead_s")


def functions():
    """Yield (layer, qualified name, unit, units_fn) for every wrapped function."""
    for layer, (_, entries) in LAYERS.items():
        for fname, unit, units_fn in entries:
            yield layer, f"{layer}.{fname}", unit, units_fn


def metric_units() -> dict[str, str]:
    """Every per-layer metric name mapped to its unit, in report order."""
    out = {}
    for _, qual, unit, _ in functions():
        out[f"{qual}.calls"] = "count"
        out[f"{qual}.self_s"] = "s"
        if unit is not None:
            out[f"{qual}.ns_per_unit"] = UNIT_NAMES[unit]
            out[f"{qual}.bytes_computed"] = "B"
    for layer in LAYERS:
        out[f"{layer}.self_s"] = "s"
    for name in OVERHEAD_METRICS:
        out[name] = "s"
    return out


def _array_bytes(bound: inspect.BoundArguments, result) -> int:
    vals = list(bound.arguments.values()) + [result]
    return sum(v.nbytes for v in vals if isinstance(v, np.ndarray))


class Tracer:
    """Installs timing wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def _wrap(self, qual: str, fn, unit: str | None, units_fn):
        sig = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (qual, t0, t1, parent, 0, 0)
            if unit is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if unit == "B":
                    units = nbytes = units_fn(bound.arguments, result)
                else:
                    units = units_fn(bound.arguments, result)
                    # functions that pass no array draw their points inside
                    # (validate_data_spec, projection_quantile): one float64 per unit
                    nbytes = _array_bytes(bound, result) or units * F64
                spans[idx] = (qual, t0, t1, parent, int(units), int(nbytes))
            return result

        return wrapper

    def install(self) -> None:
        mods = [m for name, m in sys.modules.items()
                if name == "mixlab" or name.startswith("mixlab.")]
        for layer, qual, unit, units_fn in functions():
            module = sys.modules[LAYERS[layer][0]]
            parts = qual.split(".")[1:]
            if len(parts) == 2:
                cls = getattr(module, parts[0])
                orig = cls.__dict__[parts[1]]
                setattr(cls, parts[1], self._wrap(qual, orig, unit, units_fn))
                self._restore.append((cls, parts[1], orig, True))
                continue
            orig = getattr(module, parts[0])
            wrapped = self._wrap(qual, orig, unit, units_fn)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if key.startswith("__"):
                        continue
                    if val is orig:
                        setattr(m, key, wrapped)
                        self._restore.append((m, key, orig, True))
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is orig:
                                val[k] = wrapped
                                self._restore.append((val, k, orig, False))

    def uninstall(self) -> None:
        for owner, key, orig, is_attr in reversed(self._restore):
            if is_attr:
                setattr(owner, key, orig)
            else:
                owner[key] = orig
        self._restore.clear()

    def summary(self, first: int, last: int) -> dict[str, float]:
        """Per-layer metrics of the spans ``first`` to ``last`` (exclusive): one call."""
        spans = self.spans[first:last]
        child_ns = [0] * len(spans)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= first:
                child_ns[parent - first] += t1 - t0
        acc = {qual: [0, 0, 0, 0] for _, qual, _, _ in functions()}
        for (name, t0, t1, _, units, nbytes), child in zip(spans, child_ns):
            a = acc[name]
            a[0] += 1
            a[1] += t1 - t0 - child
            a[2] += units
            a[3] += nbytes
        out = {}
        layer_ns = dict.fromkeys(LAYERS, 0)
        for layer, qual, unit, _ in functions():
            calls, self_ns, units, nbytes = acc[qual]
            layer_ns[layer] += self_ns
            out[f"{qual}.calls"] = calls
            out[f"{qual}.self_s"] = self_ns / 1e9
            if unit is not None:
                out[f"{qual}.ns_per_unit"] = self_ns / units if units else 0.0
                out[f"{qual}.bytes_computed"] = nbytes
        for layer, ns in layer_ns.items():
            out[f"{layer}.self_s"] = ns / 1e9
        return out
