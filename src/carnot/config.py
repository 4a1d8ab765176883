"""Experiment configuration: JSON parsing, a safe expression grammar.

A config file is a single JSON object; unknown keys are rejected at every
level so typos fail loudly.  User-supplied formulas (distance profiles,
surface parametrizations, level-set functions) are compiled through a
whitelisted subset of Python expression syntax — arithmetic, ``**``,
``max``/``min``/``sqrt``/``abs`` and named variables — evaluated with
numpy broadcasting.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .algebra import (ConfigurationError, GradedGroup, checked_int, checked_reals,
                      group_from_dict)
from .blowup import LevelSetSpec, SurfacePatch
from . import metrics
from .metrics import PROFILE_HINT, DistanceSpec, _build
from .subgroups import HomSubspace, subspace_from_dict

_BINOPS = {ast.Add: np.add, ast.Sub: np.subtract, ast.Mult: np.multiply,
           ast.Div: np.divide, ast.Pow: np.power}
_UNARYOPS = {ast.USub: np.negative, ast.UAdd: np.positive}
_CALLS = {"sqrt": np.sqrt, "abs": np.abs,
          "max": lambda *a: np.maximum.reduce(np.broadcast_arrays(*a)),
          "min": lambda *a: np.minimum.reduce(np.broadcast_arrays(*a))}


def compile_expression(src: str, variables):
    """Compile a formula over the named variables to a vectorized function.

    Returns f(**arrays) -> array.  Anything outside the whitelisted
    grammar (attribute access, subscripts, unknown names or calls) is a
    configuration error naming the offending token.
    """
    variables = tuple(variables)
    if not isinstance(src, str):
        raise ConfigurationError(f"expression must be a string, got {src!r}")
    try:
        tree = ast.parse(src, mode="eval")
    except SyntaxError as exc:
        raise ConfigurationError(f"invalid expression {src!r}: {exc.msg}") from exc

    def ev(node, env):
        if isinstance(node, ast.Expression):
            return ev(node.body, env)
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ConfigurationError(
                    f"non-numeric constant {node.value!r} in {src!r}")
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id not in env:
                raise ConfigurationError(
                    f"unknown variable {node.id!r} in {src!r}; "
                    f"allowed: {', '.join(variables)}")
            return env[node.id]
        if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
            return _BINOPS[type(node.op)](ev(node.left, env), ev(node.right, env))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARYOPS:
            return _UNARYOPS[type(node.op)](ev(node.operand, env))
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _CALLS:
                raise ConfigurationError(f"unknown function call in {src!r}")
            if node.keywords:
                raise ConfigurationError(f"keyword arguments not allowed in {src!r}")
            return _CALLS[node.func.id](*(ev(a, env) for a in node.args))
        raise ConfigurationError(
            f"unsupported syntax {type(node).__name__!r} in expression {src!r}")

    # validate once against dummy scalars so errors surface at parse time; a
    # NaN or inf is no warning, since every caller refuses it or reads it as outside
    try:
        with np.errstate(all="ignore"):
            ev(tree, {v: 0.5 for v in variables})
    except ConfigurationError:
        raise
    except (ArithmeticError, TypeError, ValueError) as exc:  # e.g. sqrt(t1, t2), max()
        raise ConfigurationError(f"cannot evaluate {src!r}: {exc}") from exc

    def fn(**arrays):
        missing = set(variables) - set(arrays)
        if missing:
            raise ValueError(f"missing variables {sorted(missing)}")
        with np.errstate(all="ignore"):
            return np.asarray(ev(tree, arrays), dtype=float)

    return fn


def _require_keys(d, allowed, required=(), where="config"):
    if not isinstance(d, dict):
        raise ConfigurationError(f"{where} must be an object, got {type(d).__name__}")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigurationError(f"unknown {where} keys: {sorted(unknown)}")
    missing = set(required) - set(d)
    if missing:
        raise ConfigurationError(f"missing {where} keys: {sorted(missing)}")


# family -> its one parameter; the constructor is looked up in metrics per call
_FAMILIES = {"dinf": "c", "koranyi": "gamma", "hebisch_sikora": "eps"}


def distance_from_dict(g: GradedGroup, spec, validate: bool = True) -> DistanceSpec:
    """Distance from `{family: ..., params: {...}}` (or a bare family name).

    With validate=False the randomized axiom sampler is skipped at
    construction, so a deliberately bad parameter choice can still be
    built and then reported on by check_axioms.
    """
    if isinstance(spec, str):
        spec = {"family": spec}
    _require_keys(spec, {"family", "params"}, {"family"}, "distance")
    family = spec["family"]
    params = spec.get("params", {})
    if isinstance(family, str) and family in _FAMILIES:
        _require_keys(params, {_FAMILIES[family]}, where=f"{family} params")
        return getattr(metrics, family)(g, validate=validate, **params)
    if family == "euclidean":
        _require_keys(params, set(), where="euclidean params")
        return metrics.euclidean(g)
    if family == "profile":
        _require_keys(params, {"expr"}, {"expr"}, "profile params")
        names = tuple(f"t{j}" for j in range(1, g.step + 1))
        expr = compile_expression(params["expr"], names)

        def phi(t):
            t = np.asarray(t, dtype=float)
            return expr(**{n: t[..., j] for j, n in enumerate(names)})

        # phi is compiled from this string and the group's step alone, so
        # the string keys the memoized axiom verdict together with the group
        return _build(g, f"profile:{params['expr']}", phi, False, validate,
                      PROFILE_HINT, key=("profile", params["expr"]))
    raise ConfigurationError(f"unknown distance family {family!r}")


def surface_from_dict(g: GradedGroup, spec):
    """Surface from `{kind: param|levelset, expr: ..., domain: [[..],[..]]}`.

    Returns a SurfacePatch for `param` (expressions x, y, t over u, v) or a
    LevelSetSpec plus region for `levelset` (expression f over x, y, t).
    """
    _require_keys(spec, {"kind", "expr", "domain"}, {"kind", "expr", "domain"},
                  "surface")
    domain = spec["domain"]
    if not isinstance(domain, list) or len(domain) != 2:
        raise ConfigurationError(f"surface domain must be [[u0, u1], [v0, v1]], got {domain!r}")
    (u0, u1), (v0, v1) = (checked_reals(side, "surface domain side", 2) for side in domain)
    if spec["kind"] == "param":
        _require_keys(spec["expr"], {"x", "y", "t"}, {"x", "y", "t"}, "surface expr")
        comps = [compile_expression(spec["expr"][k], ("u", "v")) for k in "xyt"]

        def fn(U, V):
            U, V = np.broadcast_arrays(np.asarray(U, float), np.asarray(V, float))
            return np.stack([np.broadcast_to(c(u=U, v=V), U.shape) for c in comps],
                            axis=-1)

        return SurfacePatch(group=g, fn=fn, domain=((u0, u1), (v0, v1)))
    if spec["kind"] == "levelset":
        _require_keys(spec["expr"], {"f"}, {"f"}, "surface expr")
        f = compile_expression(spec["expr"]["f"], ("x", "y", "t"))
        spec_f = LevelSetSpec(group=g,
                              fn=lambda p: f(x=p[:, 0], y=p[:, 1], t=p[:, 2]))
        return spec_f, ((u0, u1), (v0, v1))
    raise ConfigurationError(f"unknown surface kind {spec['kind']!r}")


_TOP_KEYS = {"group", "distance", "subspace", "signature", "k", "surface",
             "point", "radii", "n_grid", "samples", "n_starts",
             "seed", "out"}


@dataclass
class ExperimentConfig:
    """Validated run configuration; sections are parsed lazily on access."""

    raw: dict
    digest: str = field(init=False)

    def __post_init__(self):
        _require_keys(self.raw, _TOP_KEYS)
        canon = json.dumps(self.raw, sort_keys=True, separators=(",", ":"))
        self.digest = hashlib.sha256(canon.encode()).hexdigest()[:16]

    def require(self, key):
        if key not in self.raw:
            raise ConfigurationError(f"missing config key {key!r}")
        return self.raw[key]

    def group(self) -> GradedGroup:
        return group_from_dict(self.require("group"))

    def distance(self, g, validate: bool = True) -> DistanceSpec:
        return distance_from_dict(g, self.require("distance"), validate=validate)

    def subspace(self, g) -> HomSubspace:
        return subspace_from_dict(g, self.require("subspace"))

    def surface(self, g):
        return surface_from_dict(g, self.require("surface"))

    def get(self, key, default=None):
        return self.raw.get(key, default)

    def integer(self, key, default=None, minimum=1, maximum=None):
        """`key` as a checked integer; required when there is no default."""
        value = self.require(key) if default is None else self.raw.get(key, default)
        return checked_int(value, key, minimum, maximum)

    def reals(self, key, default=None, length=None, positive=False):
        """`key` as a tuple of checked finite numbers; required when there is no default."""
        value = self.require(key) if default is None else self.raw.get(key, default)
        return checked_reals(value, key, length, positive)


def load_config(path) -> ExperimentConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path} is not valid JSON: {exc}") from exc
    return ExperimentConfig(raw=raw)
