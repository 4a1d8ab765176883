"""Graded nilpotent Lie algebra and group arithmetic.

A group element is a plain float vector in exponential coordinates of the
first kind, adapted to a layer-orthogonal basis.  The group product is the
BCH series truncated at the nilpotency step, evaluated through a
precomputed table of Dynkin words, so it is exact (up to rounding) for any
group of step <= MAX_STEP.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from numbers import Real

import numpy as np

MAX_STEP = 6
# validate_grading holds q^4 floats per Jacobi term: 134 MB at q = 64
MAX_DIMENSION = 64
ATOL = 1e-12


class ConfigurationError(ValueError):
    """Raised for malformed group/distance/subspace definitions."""


def checked_int(value, what, minimum):
    """`value` as an int >= minimum; strings, bools and fractions are refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer()) or value < minimum):
        raise ConfigurationError(f"{what} must be an integer >= {minimum}, got {value!r}")
    return int(value)


def checked_real(value, what, positive=False):
    """`value` as a finite float, > 0 when `positive`; strings and bools are refused."""
    # the comparisons are False for NaN and exact for integers beyond float range
    if (isinstance(value, bool) or not isinstance(value, Real)
            or not abs(value) <= sys.float_info.max or (positive and not value > 0)):
        raise ConfigurationError(
            f"{what} must be a finite number{' > 0' if positive else ''}, got {value!r}")
    return float(value)


def checked_reals(values, what, length=None, positive=False):
    """A list of `length` (default: one or more) checked reals, as a tuple."""
    if not isinstance(values, list) or not values or length not in (None, len(values)):
        raise ConfigurationError(
            f"{what} must be a list of {length or 'one or more'} numbers, got {values!r}")
    return tuple(checked_real(x, f"{what} entry", positive) for x in values)


@dataclass(frozen=True)
class StructureConstants:
    """Layered bracket tensor c[k, i, j]: coefficient of e_k in [e_i, e_j]."""

    step: int
    layer_dims: tuple
    bracket: np.ndarray  # (q, q, q), dense

    def __post_init__(self):
        q = sum(self.layer_dims)
        if self.step < 1 or self.step != len(self.layer_dims):
            raise ConfigurationError(
                f"step {self.step} does not match {len(self.layer_dims)} layer dims")
        if any(d < 1 for d in self.layer_dims):
            raise ConfigurationError(f"layer_dims must be positive, got {self.layer_dims}")
        if self.bracket.shape != (q, q, q):
            raise ConfigurationError(
                f"bracket tensor shape {self.bracket.shape} incompatible with q={q}")

    @property
    def q(self):
        return sum(self.layer_dims)


@dataclass(frozen=True)
class GradingReport:
    ok: bool
    violations: list


def _layer_of_index(layer_dims):
    """Map global basis index -> 1-based layer number."""
    out = []
    for j, d in enumerate(layer_dims, start=1):
        out.extend([j] * d)
    return np.array(out)


def validate_grading(sc: StructureConstants) -> GradingReport:
    """Check antisymmetry, grading compatibility and the Jacobi identity.

    The Jacobi identity is verified by exhaustive enumeration of basis
    triples; everything is compared at absolute tolerance 1e-12.
    """
    c = sc.bracket
    q = sc.q
    layer = _layer_of_index(sc.layer_dims)
    violations = []

    anti = c + np.swapaxes(c, 1, 2)
    bad = np.argwhere(np.abs(anti) > ATOL)
    for k, i, j in bad[:10]:
        violations.append(f"antisymmetry: c[{k}][{i}][{j}] != -c[{k}][{j}][{i}]")

    for i in range(q):
        for j in range(q):
            target = layer[i] + layer[j]
            for k in np.nonzero(np.abs(c[:, i, j]) > ATOL)[0]:
                if target > sc.step:
                    violations.append(
                        f"grading: [e{i + 1},e{j + 1}] must vanish (layers sum to {target})")
                elif layer[k] != target:
                    violations.append(
                        f"grading: [e{i + 1},e{j + 1}] hits e{k + 1} in layer {layer[k]}, "
                        f"expected layer {target}")

    # Jacobi: [ei,[ej,ek]] + [ej,[ek,ei]] + [ek,[ei,ej]] = 0
    jac = (np.einsum("ajk,bia->bijk", c, c)
           + np.einsum("aki,bja->bijk", c, c)
           + np.einsum("aij,bka->bijk", c, c))
    bad = np.argwhere(np.abs(jac) > ATOL)
    for b, i, j, k in bad[:10]:
        violations.append(
            f"jacobi: cyclic sum on (e{i + 1},e{j + 1},e{k + 1}) has residue on e{b + 1}")

    return GradingReport(ok=not violations, violations=violations)


@lru_cache(maxsize=None)
def _dynkin_words(step):
    """Dynkin-series coefficients of BCH through total degree `step`.

    Returns a tuple of (word, coefficient) pairs, where a word is a string
    over {'x','y'} and its value is the right-nested bracket of the letters
    (last letter innermost).  Words whose last two letters coincide are
    dropped, their bracket being zero.
    """
    coef = {}

    def extend(pairs, degree):
        n = len(pairs)
        if n:
            word = "".join("x" * r + "y" * s for r, s in pairs)
            denom = 1
            for r, s in pairs:
                denom *= factorial(r) * factorial(s)
            c = Fraction((-1) ** (n - 1), n * degree * denom)
            coef[word] = coef.get(word, Fraction(0)) + c
        if degree >= step:
            return
        for r in range(0, step - degree + 1):
            for s in range(0, step - degree - r + 1):
                if r + s == 0:
                    continue
                extend(pairs + [(r, s)], degree + r + s)

    extend([], 0)
    out = []
    for word, c in sorted(coef.items(), key=lambda kv: (len(kv[0]), kv[0])):
        if len(word) >= 2 and word[-1] == word[-2]:
            continue
        if c != 0:
            out.append((word, float(c)))
    return tuple(out)


class GradedGroup:
    """A graded nilpotent Lie group in exponential coordinates."""

    def __init__(self, sc: StructureConstants):
        report = validate_grading(sc)
        if not report.ok:
            raise ConfigurationError("invalid structure constants: "
                                     + "; ".join(report.violations[:3]))
        self.sc = sc
        self.step = sc.step
        self.layer_dims = tuple(sc.layer_dims)
        self.q = sc.q
        self.Q = int(sum(j * d for j, d in enumerate(self.layer_dims, start=1)))
        if self.step > MAX_STEP:
            raise ConfigurationError(f"step {self.step} exceeds supported maximum {MAX_STEP}")

        bounds = np.cumsum((0,) + self.layer_dims)
        self.layer_starts = bounds[:-1].astype(np.int64)
        self.layer_ends = bounds[1:].astype(np.int64)

        ks, iis, jjs = np.nonzero(np.abs(sc.bracket) > ATOL)
        self._sparse = (ks.astype(np.int64), iis.astype(np.int64), jjs.astype(np.int64),
                        sc.bracket[ks, iis, jjs].astype(np.float64))
        self._words = _dynkin_words(self.step)
        self._weights = np.repeat(np.arange(1, self.step + 1), self.layer_dims).astype(float)

    # -- elements ----------------------------------------------------------

    def point(self, *coords):
        x = np.asarray(coords if len(coords) > 1 else coords[0], dtype=float).ravel()
        if x.size != self.q:
            raise ValueError(f"expected {self.q} coordinates, got {x.size}")
        return x

    def zero(self):
        return np.zeros(self.q)

    def basis_vector(self, i):
        """1-based basis vector e_i."""
        e = np.zeros(self.q)
        e[i - 1] = 1.0
        return e

    # -- algebra operations ------------------------------------------------

    def _bracket_rows(self, a, b):
        """Rowwise Lie bracket of two (n, q) batches over the sparse tensor."""
        out = np.zeros_like(a)
        for k, i, j, c in zip(*self._sparse):
            out[:, k] += c * a[:, i] * b[:, j]
        return out

    def bracket(self, a, b):
        a = np.atleast_2d(np.asarray(a, dtype=float))
        b = np.atleast_2d(np.asarray(b, dtype=float))
        a, b = np.broadcast_arrays(a, b)
        out = self._bracket_rows(np.ascontiguousarray(a), np.ascontiguousarray(b))
        return out[0] if out.shape[0] == 1 else out

    def multiply(self, p, q):
        """Group product by the truncated BCH series; accepts (q,) or (n, q)."""
        p2 = np.atleast_2d(np.asarray(p, dtype=float))
        q2 = np.atleast_2d(np.asarray(q, dtype=float))
        p2, q2 = np.broadcast_arrays(p2, q2)
        p2 = np.ascontiguousarray(p2)
        q2 = np.ascontiguousarray(q2)
        out = np.zeros_like(p2)
        for word, c in self._words:
            v = p2 if word[-1] == "x" else q2
            for letter in word[-2::-1]:
                v = self._bracket_rows(p2 if letter == "x" else q2, v)
            out += c * v
        scalar = (np.asarray(p).ndim == 1 and np.asarray(q).ndim == 1)
        return out[0] if scalar else out

    def inverse(self, p):
        return -np.asarray(p, dtype=float)

    def dilate(self, r, p):
        r = float(r)
        if r <= 0:
            raise ValueError(f"dilation factor must be positive, got {r}")
        return np.asarray(p, dtype=float) * r ** self._weights

    def project_layer(self, j, p):
        """The H_j block of p (1 <= j <= step)."""
        if not 1 <= j <= self.step:
            raise ValueError(f"layer index {j} out of range 1..{self.step}")
        p = np.asarray(p, dtype=float)
        return p[..., self.layer_starts[j - 1]:self.layer_ends[j - 1]]

    def layer_norms(self, p):
        """Euclidean norms (|x_1|, ..., |x_iota|); batched over leading axes."""
        p2 = np.ascontiguousarray(np.atleast_2d(np.asarray(p, dtype=float)))
        sq = np.empty((p2.shape[0], self.step))
        for j, (s, e) in enumerate(zip(self.layer_starts, self.layer_ends)):
            sq[:, j] = np.einsum("nc,nc->n", p2[:, s:e], p2[:, s:e])
        out = np.sqrt(sq)
        return out[0] if np.asarray(p).ndim == 1 else out

    def __repr__(self):
        return f"GradedGroup(step={self.step}, layer_dims={self.layer_dims}, Q={self.Q})"


# -- construction helpers --------------------------------------------------

def structure_constants_from_sparse(step, layer_dims, entries):
    """Build the dense tensor from sparse 1-based [k, i, j, value] entries.

    The mirrored entry [k, j, i, -value] is filled in automatically when it
    is not given explicitly.
    """
    q = sum(layer_dims)
    if q > MAX_DIMENSION:
        raise ConfigurationError(
            f"group dimension q = {q} exceeds the supported maximum {MAX_DIMENSION}")
    c = np.zeros((q, q, q))
    given = set()
    for ent in entries:
        if len(ent) != 4:
            raise ConfigurationError(f"bracket entry {ent!r} must be [k, i, j, value]")
        k, i, j = (checked_int(x, f"bracket entry {ent!r} index", 1) - 1 for x in ent[:3])
        if not (k < q and i < q and j < q):
            raise ConfigurationError(f"bracket entry {ent!r} has an index outside 1..{q}")
        c[k, i, j] = checked_real(ent[3], f"bracket entry {ent!r} value")
        given.add((k, i, j))
    for (k, i, j) in list(given):
        if (k, j, i) not in given:
            c[k, j, i] = -c[k, i, j]
    return StructureConstants(step=step, layer_dims=tuple(layer_dims), bracket=c)


def _preset_constants(name) -> StructureConstants:
    if name == "heisenberg1":
        return structure_constants_from_sparse(2, (2, 1), [[3, 1, 2, 1.0]])
    if name == "engel":
        return structure_constants_from_sparse(3, (2, 1, 1),
                                               [[3, 1, 2, 1.0], [4, 1, 3, 1.0]])
    if isinstance(name, str) and name.startswith("abelian:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigurationError(f"abelian dimension in {name!r} is not an "
                                     "integer") from exc
        if n < 1:
            raise ConfigurationError(f"abelian dimension must be >= 1, got {n}")
        return structure_constants_from_sparse(1, (n,), [])
    raise ConfigurationError(f"unknown group preset {name!r}")


def preset_group(name: str) -> GradedGroup:
    """Named presets: 'heisenberg1', 'abelian:<n>', 'engel'.

    heisenberg1 uses the normalization [e1, e2] = e3; engel additionally
    has [e1, e3] = e4.
    """
    return GradedGroup(_preset_constants(name))


def structure_constants_from_dict(spec) -> StructureConstants:
    """Structure constants of a parsed group definition, not yet validated.

    `spec` is a preset name, `{"preset": name}` (no other key) or
    `{"step": ..., "layer_dims": [...], "bracket": [[k, i, j, value], ...]}`.
    Malformed definitions raise ConfigurationError; grading and Jacobi are
    left to `validate_grading`.
    """
    if isinstance(spec, str):
        return _preset_constants(spec)
    try:
        allowed = {"preset"} if "preset" in spec else {"step", "layer_dims", "bracket"}
        unknown = set(spec) - allowed
        if unknown:
            raise ConfigurationError(f"unknown group keys: {sorted(unknown)}")
        if "preset" in spec:
            return _preset_constants(spec["preset"])
        step = checked_int(spec["step"], "step", 1)
        layer_dims = tuple(checked_int(d, "layer_dims entry", 1) for d in spec["layer_dims"])
        return structure_constants_from_sparse(step, layer_dims, spec.get("bracket", []))
    except ConfigurationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigurationError(f"malformed group spec: {exc!r}") from exc


def group_from_dict(spec) -> GradedGroup:
    """Group from a parsed definition tree (see `structure_constants_from_dict`)."""
    return GradedGroup(structure_constants_from_dict(spec))


# -- randomized group-law suites -------------------------------------------

@dataclass(frozen=True)
class LawCheck:
    name: str
    ok: bool
    worst: float
    tol: float


def group_law_checks(g: GradedGroup, n_samples=10000, seed=0, tol=1e-10):
    """Randomized associativity / inverse / dilation-homomorphism suites.

    Coordinates are drawn uniformly in [-1, 1]; residuals are reported in
    the max norm over all sampled triples.
    """
    from .randomness import OP_PROPERTY_SAMPLES, stream

    rng = stream(seed, OP_PROPERTY_SAMPLES, 0)
    x, y, z = (rng.uniform(-1.0, 1.0, size=(n_samples, g.q)) for _ in range(3))
    rs = rng.uniform(0.25, 4.0, size=n_samples)

    assoc = np.abs(g.multiply(g.multiply(x, y), z)
                   - g.multiply(x, g.multiply(y, z))).max()
    inv = np.abs(g.multiply(x, g.inverse(x))).max()
    ident = np.abs(g.multiply(x, g.zero()[None, :]) - x).max()
    scale = rs[:, None] ** g._weights[None, :]
    dil = np.abs(g.multiply(x, y) * scale - g.multiply(x * scale, y * scale)).max()

    checks = [
        LawCheck("associativity", bool(assoc <= tol), float(assoc), tol),
        LawCheck("inverse", bool(inv <= tol), float(inv), tol),
        LawCheck("identity", bool(ident <= tol), float(ident), tol),
        LawCheck("dilation_homomorphism", bool(dil <= tol), float(dil), tol),
    ]
    return checks
