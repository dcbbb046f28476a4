"""Per-layer spans recorded from outside the library.

Each public boundary is wrapped where its caller looks the name up, so a
call made through that name is counted no matter which module defines it.
Spans are aggregated as they close (calls, errors, total and self time)
instead of being stored: one ``curve`` pass opens a few hundred thousand.
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import time

# span name -> (module, attribute) lookup sites on the solve, curve and compare paths.
BOUNDARIES = {
    "solver.tau": [("lqspec.solver", "tau")],
    "spectral.classify": [("lqspec.solver", "classify")],
    "spectral.communication_classes": [("lqspec.spectral", "communication_classes")],
    "spectral.class_root": [("lqspec.spectral", "class_root")],
    "spectral.spectral_radius": [("lqspec.spectral", "spectral_radius")],
    "spectral.lattice_check": [("lqspec.spectral", "lattice_check")],
    "matrix.build_matrix_spec": [("lqspec.cli", "build_matrix_spec")],
    "matrix.entry_value": [("lqspec.spectral", "entry_value")],
    "matrix.AtomFamily.evaluate": [("lqspec.matrix:AtomFamily", "evaluate")],
    # cli calls it directly; build_matrix_spec imports it from gifs at call time.
    "gifs.build_example": [("lqspec.cli", "build_example"), ("lqspec.gifs", "build_example")],
    "empirical.sample": [("lqspec.empirical", "sample")],
    "empirical.partition_sum": [("lqspec.empirical", "partition_sum")],
    "empirical.estimate_tau": [("lqspec.empirical", "estimate_tau")],
}

# (metric, numerator span, denominator span), both as call counts.
RATIOS = (
    ("spectral.radius_evals_per_root", "spectral.spectral_radius", "spectral.class_root"),
    ("spectral.decompositions_per_solve", "spectral.communication_classes",
     "spectral.classify"),
    ("matrix.evals_per_radius", "matrix.AtomFamily.evaluate", "spectral.spectral_radius"),
)


def _owner(site: str):
    module, _, cls = site.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Context manager that wraps every boundary on entry and restores it on exit."""

    def __init__(self):
        # name -> [calls, errors, total_s, self_s]
        self.stats = {name: [0, 0, 0.0, 0.0] for name in BOUNDARIES}
        self.walks = 0  # points returned by empirical.sample
        self._child_time = [0.0]  # one accumulator per open span, plus the root
        self._saved = []

    def __enter__(self):
        for name, sites in BOUNDARIES.items():
            for site, attr in sites:
                owner = _owner(site)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, name, fn):
        stats = self.stats[name]
        child_time = self._child_time
        clock = time.perf_counter
        count_walks = name == "empirical.sample"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[1] += 1
                raise
            finally:
                dt = clock() - t0
                stats[0] += 1
                stats[2] += dt
                stats[3] += dt - child_time.pop()
                child_time[-1] += dt
            if count_walks:
                self.walks += len(result)
            return result

        return span

    def metrics(self, passes: int, overhead_frac: float) -> dict:
        """Per-pass metrics as {name: (value, unit)}."""
        out = {}
        for name, (calls, errors, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = (calls / passes, "count")
            out[f"{name}.total_s"] = (total / passes, "s")
            out[f"{name}.self_s"] = (self_s / passes, "s")
            out[f"{name}.errors"] = (errors / passes, "count")
        for metric, num, den in RATIOS:
            d = self.stats[den][0]
            out[metric] = (self.stats[num][0] / d if d else 0.0, "ratio")
        sample_s = self.stats["empirical.sample"][2]
        out["empirical.walks_per_s"] = (self.walks / sample_s if sample_s else 0.0, "1/s")
        out["trace.overhead_frac"] = (overhead_frac, "frac")
        return out
