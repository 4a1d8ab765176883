"""In-memory span tracer that wraps carnot's public functions from outside.

`Tracer.install()` replaces a fixed list of public carnot functions and
methods (module attributes, names re-imported by other carnot modules, and
class attributes) with wrappers; `uninstall()` restores the originals.
Nothing inside carnot is edited.  Each wrapped call appends a span
[name, start, end, parent index, info] and bumps deterministic work
counters (calls, points, samples, evaluations).  A layer's self time is
its span time minus the time of its direct child spans.

Known blind spot: `check_axioms` evaluates its random triples through the
private `_pair` -> `_norm_multiradial`, so those norms are charged to
`metrics.check_axioms.self_s`, not to `metrics.norm.*`.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


def _points(out):
    """Number of points in a batched (..., dim) result; 1 for a single point."""
    a = np.asarray(out)
    return int(np.prod(a.shape[:-1])) if a.ndim >= 2 else 1


def _count_multiply(tr, group, out):
    tr.counts["algebra.multiply.calls"] += 1
    tr.counts[f"algebra.multiply.s{group.step}.points"] += _points(out)


def _multiply_span(args):
    """Products are timed per group step, as their BCH cost grows with it."""
    return f"algebra.multiply.s{args[0].step}"


def _count_points(prefix, calls=False):
    def hook(tr, obj, out):
        if calls:
            tr.counts[prefix + ".calls"] += 1
        tr.counts[prefix + ".points"] += _points(out)
    return hook


def _count_ball(tr, obj, out):
    a = np.asarray(out)
    tr.counts["metrics.ball_contains.calls"] += 1
    tr.counts["metrics.ball_contains.points"] += a.size
    tr.counts["metrics.ball_contains.hits"] += int(np.count_nonzero(a))
    if tr.inside("blowup.density_curve"):
        tr.counts["blowup.density_curve.ball_points"] += a.size


def _count_calls(prefix):
    def hook(tr, obj, out):
        tr.counts[prefix + ".calls"] += 1
    return hook


def _count_axioms(tr, obj, out):
    tr.counts["metrics.check_axioms.calls"] += 1
    tr.counts["metrics.check_axioms.triples"] += int(out.n_samples)


def _count_mc(tr, obj, out):
    tr.counts["factor.slice_volume_mc.calls"] += 1
    tr.counts["factor.slice_volume_mc.samples"] += int(out.n_samples)
    info = tr.nearest_info("factor.spherical_factor")
    if info is not None:
        if out.n_samples == info["n_mc"]:
            tr.counts["factor.objective_evals"] += 1
        elif out.n_samples == 10 * info["n_mc"]:
            tr.counts["factor.final_evals"] += 1


def _factor_info(fn):
    sig = inspect.signature(fn)

    def info(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return {"n_mc": int(bound.arguments["n_mc"])}
    return info


# (module, attribute path, span name or name-of-args function,
#  counter hook(tracer, bound object or None, result), info hook factory)
TARGETS = [
    ("carnot.algebra", "GradedGroup.multiply", _multiply_span, _count_multiply, None),
    ("carnot.algebra", "GradedGroup.layer_norms", "algebra.layer_norms",
     _count_points("algebra.layer_norms"), None),
    ("carnot.algebra", "group_law_checks", "algebra.group_law_checks", None, None),
    ("carnot.subgroups", "HomSubspace.embed", "subgroups.embed",
     _count_points("subgroups.embed"), None),
    ("carnot.subgroups", "coset_volume_check", "subgroups.coset_volume_check", None, None),
    ("carnot.metrics", "DistanceSpec.ball_contains", "metrics.ball_contains", _count_ball, None),
    ("carnot.metrics", "DistanceSpec.norm", "metrics.norm",
     _count_points("metrics.norm", calls=True), None),
    ("carnot.metrics", "check_axioms", "metrics.check_axioms", _count_axioms, None),
    ("carnot.metrics", "dinf", "metrics.build", None, None),
    ("carnot.metrics", "koranyi", "metrics.build", None, None),
    ("carnot.metrics", "hebisch_sikora", "metrics.build", None, None),
    ("carnot.metrics", "euclidean", "metrics.build", None, None),
    ("carnot.metrics", "from_profile", "metrics.build", None, None),
    ("carnot.factor", "spherical_factor", "factor.spherical_factor",
     _count_calls("factor.spherical_factor"), _factor_info),
    ("carnot.factor", "slice_volume_mc", "factor.slice_volume_mc", _count_mc, None),
    ("carnot.factor", "slice_volume_nested", "factor.slice_volume_nested",
     _count_calls("factor.slice_volume_nested"), None),
    ("carnot.blowup", "density_curve", "blowup.density_curve",
     _count_calls("blowup.density_curve"), None),
    ("carnot.blowup", "graph_area_levelset", "blowup.graph_area_levelset", None, None),
    ("carnot.blowup", "surface_measure_total", "blowup.surface_measure_total", None, None),
    ("carnot.config", "load_config", "config.load", None, None),
    ("carnot.config", "ExperimentConfig.group", "config.parse", None, None),
    ("carnot.config", "ExperimentConfig.distance", "config.parse", None, None),
    ("carnot.config", "ExperimentConfig.subspace", "config.parse", None, None),
    ("carnot.config", "ExperimentConfig.surface", "config.parse", None, None),
    ("carnot.cli", "main", "cli.main", None, None),
]

# a span of the first name opened directly under one of the second is
# folded into its parent: the validating sampler counts as distance build
FOLD_INTO = {"metrics.check_axioms": ("metrics.build",)}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.missing = []
        self._stack = []
        self._patches = []

    # -- span bookkeeping ----------------------------------------------------

    def inside(self, name):
        return any(self.spans[i][0] == name for i in self._stack)

    def nearest_info(self, name):
        for i in reversed(self._stack):
            if self.spans[i][0] == name:
                return self.spans[i][4]
        return None

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def _wrap(self, fn, name, hook, info_factory, method):
        tracer = self
        info_of = info_factory(fn) if info_factory else None
        fold = FOLD_INTO.get(name, ()) if isinstance(name, str) else ()

        def wrapper(*args, **kwargs):
            if fold and tracer._stack and tracer.spans[tracer._stack[-1]][0] in fold:
                return fn(*args, **kwargs)
            info = info_of(args, kwargs) if info_of else None
            rec = [name if isinstance(name, str) else name(args), time.perf_counter(), 0.0,
                   tracer._stack[-1] if tracer._stack else -1, info]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                tracer._stack.pop()
            if hook:
                hook(tracer, args[0] if method else None, out)
            return out

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self):
        self.missing = []
        for modname, path, name, hook, info_factory in TARGETS:
            mod = importlib.import_module(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, attr, None) if owner is not None else None
            if orig is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapped = self._wrap(orig, name, hook, info_factory, method=bool(owner_name))
            if owner_name:
                self._patches.append((owner, attr, orig))
                setattr(owner, attr, wrapped)
                continue
            # module function: replace every carnot-module name bound to it
            for m in [m for k, m in list(sys.modules.items())
                      if k == "carnot" or k.startswith("carnot.")]:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, key, orig))
                        setattr(m, key, wrapped)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []
