"""Graded nilpotent Lie algebra and group arithmetic.

A group element is a plain float vector in exponential coordinates of the
first kind, adapted to a layer-orthogonal basis.  The group product is the
BCH series truncated at the nilpotency step, a sum of right-nested Dynkin
words with exact rational coefficients, so it is exact (up to rounding) for
any group of step <= MAX_STEP.  A word ending in 'yx' is merged into the
one ending in 'xy', as [y, x] = -[x, y], and each distinct word suffix is
evaluated once and shared by every word ending in it: 13 brackets at step
5, against 30 (80 word by word) for the unmerged words.  Points are held
as (q, n) columns so that each sparse bracket term reads and writes
contiguous rows, in blocks of CHUNK_COLUMNS points.  A suffix of L letters
lies in layers >= L, so it is held from the first row of layer L, its
bracket keeps only the sparse entries that read those rows, and its words
are added into those rows alone: 2, 6 and 28 bracket terms per block on
heisenberg1, engel and the step-5 filiform group, against 2, 12 and 104
over every entry, with the same bits.  Layer norms are read off (q, m)
columns as (iota, m) rows, so a distance's x^-1 y goes from the product's
columns to its layer norms (`quotient_layer_norms`) with no (n, q) product.
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
# the structure constants are held as a dense (q, q, q) tensor
MAX_DIMENSION = 64
# points per block of the product kernel: a block keeps the suffix values of
# two word lengths alive (10 at step 5), each of at most q * CHUNK_COLUMNS floats
CHUNK_COLUMNS = 2048
ATOL = 1e-12


class ConfigurationError(ValueError):
    """Raised for malformed group/distance/subspace definitions."""


def checked_int(value, what, minimum, maximum=None):
    """`value` as an int in minimum..maximum; strings, bools and fractions are refused."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer()) or value < minimum
            or (maximum is not None and value > maximum)):
        bound = f">= {minimum}" if maximum is None else f">= {minimum} and <= {maximum}"
        raise ConfigurationError(f"{what} must be an integer {bound}, got {value!r}")
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

    The Jacobi identity is verified on every basis triple, one output
    coordinate at a time over the nonzero columns of its bracket matrix, so
    at most q^3 floats are held at once; everything is compared at absolute
    tolerance 1e-12.  Violations are listed in index order, at most 10 per
    antisymmetry and Jacobi.  A tensor with a NaN or infinite entry, which
    every one of those comparisons would pass, is refused with its first 10
    non-finite entries alone.
    """
    c = sc.bracket
    q = sc.q
    layer = _layer_of_index(sc.layer_dims)
    nonfinite = np.argwhere(~np.isfinite(c))
    if len(nonfinite):
        return GradingReport(ok=False, violations=[
            f"non-finite: c[{k}][{i}][{j}] = {c[k, i, j]}" for k, i, j in nonfinite[:10]])
    violations = []

    anti = c + np.swapaxes(c, 1, 2)
    bad = np.argwhere(np.abs(anti) > ATOL)
    for k, i, j in bad[:10]:
        violations.append(f"antisymmetry: c[{k}][{i}][{j}] != -c[{k}][{j}][{i}]")

    for i, j, k in np.argwhere(np.abs(c.transpose(1, 2, 0)) > ATOL):
        target = layer[i] + layer[j]
        if target > sc.step:
            violations.append(
                f"grading: [e{i + 1},e{j + 1}] must vanish (layers sum to {target})")
        elif layer[k] != target:
            violations.append(
                f"grading: [e{i + 1},e{j + 1}] hits e{k + 1} in layer {layer[k]}, "
                f"expected layer {target}")

    # Jacobi: [ei,[ej,ek]] + [ej,[ek,ei]] + [ek,[ei,ej]] = 0.  On e_b, with
    # t[i, j, k] the e_b-coefficient of [ei,[ej,ek]], the sum is
    # t[i, j, k] + t[j, k, i] + t[k, i, j]; t vanishes where c[b] does.
    flat = c.reshape(q, q * q)
    jacobi = []
    for b in np.nonzero(flat.any(axis=1))[0]:
        cols = np.nonzero(c[b].any(axis=0))[0]
        t = (c[b][:, cols] @ flat[cols]).reshape(q, q, q)
        jac = t + t.transpose(2, 0, 1) + t.transpose(1, 2, 0)
        jacobi += [f"jacobi: cyclic sum on (e{i + 1},e{j + 1},e{k + 1}) has residue on e{b + 1}"
                   for i, j, k in np.argwhere(np.abs(jac) > ATOL)[:10 - len(jacobi)]]
        if len(jacobi) == 10:
            break
    violations += jacobi

    return GradingReport(ok=not violations, violations=violations)


@lru_cache(maxsize=None)
def _dynkin_words(step):
    """Dynkin-series coefficients of BCH through total degree `step`.

    Returns a tuple of (word, coefficient) pairs, where a word is a string
    over {'x','y'} and its value is the right-nested bracket of the letters
    (last letter innermost).  Words whose last two letters coincide are
    dropped, their bracket being zero, and a word w + 'yx' is merged into
    w + 'xy' with its coefficient negated, as [y, x] = -[x, y]: the sums
    are exact fractions, and a word whose sum is zero is dropped.
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
            if word.endswith("yx"):
                word, c = word[:-2] + "xy", -c
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


@lru_cache(maxsize=None)
def _suffix_plan(step):
    """Shared-suffix evaluation order of the Dynkin words through `step`.

    Values are numbered 0 (x), 1 (y), then one per distinct suffix of two or
    more letters.  Returns (brackets, terms): brackets[m] = (a, b) makes
    value m + 2 the bracket [value a, value b], every b numbered before it;
    terms lists (value, coefficient) in `_dynkin_words` order.
    """
    words = _dynkin_words(step)
    suffixes = sorted({w[-k:] for w, _ in words for k in range(2, len(w) + 1)},
                      key=lambda s: (len(s), s))
    slot = {"x": 0, "y": 1}
    brackets = []
    for s in suffixes:
        brackets.append((slot[s[0]], slot[s[1:]]))
        slot[s] = len(slot)
    return tuple(brackets), tuple((slot[w], c) for w, c in words)


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
        self._sparse = tuple(zip(ks.tolist(), iis.tolist(), jjs.tolist(),
                                 sc.bracket[ks, iis, jjs].tolist()))
        self._stages = self._graded_stages()
        self._weights = np.repeat(np.arange(1, self.step + 1), self.layer_dims).astype(float)

    def _graded_stages(self):
        """The shared-suffix plan cut by word length, with graded bracket entries.

        A value of length L lies in layers >= L (each bracket adds its
        operands' layers) and is held as its rows from lo, the first row
        of layer L.  Stage L >= 2 is (lo, brackets, entries, terms),
        numbered as in `_suffix_plan`: each bracket (v, a, b) makes value v
        from letter a and the value b of length L - 1; `entries` are the
        (k - lo, i, j - lo_b, c) of `_sparse` with j in a layer >= L - 1
        (the others meet only zeros); `terms` are those of length L.
        """
        brackets, terms = _suffix_plan(self.step)
        length = [1, 1]  # per value number
        for _, b in brackets:
            length.append(length[b] + 1)
        lo = [0] + self.layer_starts.tolist()  # lo[L]: first row of layer L
        return tuple(
            (lo[L],
             tuple((v, a, b) for v, (a, b) in enumerate(brackets, start=2) if length[v] == L),
             tuple((k - lo[L], i, j - lo[L - 1], c) for k, i, j, c in self._sparse
                   if j >= lo[L - 1]),
             tuple((v, c) for v, c in terms if length[v] == L))
            for L in range(2, self.step + 1))

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

    @staticmethod
    def _broadcast(a, b):
        """Two (q,) or (n, q) inputs as broadcast (n, q) float batches."""
        return np.broadcast_arrays(np.atleast_2d(np.asarray(a, dtype=float)),
                                   np.atleast_2d(np.asarray(b, dtype=float)))

    def _columns(self, kernel, a, b):
        """`kernel` over (q, m) column blocks of two broadcast batches; (n, q) result."""
        a, b = self._broadcast(a, b)
        out = np.empty(a.shape)
        for lo in range(0, a.shape[0], CHUNK_COLUMNS):
            hi = lo + CHUNK_COLUMNS
            out[lo:hi] = kernel(a[lo:hi].T.copy(), b[lo:hi].T.copy()).T
        return out

    @staticmethod
    def _bracket_rows(entries, rows, a, b):
        """(rows, m) block with c * a[i] * b[j] added into row k per (k, i, j, c)."""
        out = np.zeros((rows, a.shape[1]))
        term = np.empty(a.shape[1])
        for k, i, j, c in entries:
            np.multiply(c, a[i], out=term)
            term *= b[j]
            out[k] += term
        return out

    def _bch_columns(self, x, y):
        """Truncated BCH series of two (q, m) column blocks, suffixes shared.

        One stage per word length: its suffix values replace those of the
        length below, which no later bracket reads, and its words are
        added into the rows those values hold.  Every term skipped is
        c * a * (+0.0) = +-0.0 on a row that is never -0.0, so the sum is
        the full series bit for bit on finite input.
        """
        out = np.zeros_like(x)
        out += x  # the words x and y, of coefficient 1
        out += y
        term = np.empty_like(x)
        values = {0: x, 1: y}
        for lo, brackets, entries, terms in self._stages:
            values = {v: self._bracket_rows(entries, self.q - lo, (x, y)[a], values[b])
                      for v, a, b in brackets}
            out_rows, term_rows = out[lo:], term[lo:]
            for v, c in terms:
                np.multiply(c, values[v], out=term_rows)
                out_rows += term_rows
        return out

    def bracket(self, a, b):
        out = self._columns(lambda u, v: self._bracket_rows(self._sparse, self.q, u, v), a, b)
        return out[0] if out.shape[0] == 1 else out

    def multiply(self, p, q):
        """Group product by the truncated BCH series; accepts (q,) or (n, q)."""
        out = self._columns(self._bch_columns, p, q)
        scalar = (np.asarray(p).ndim == 1 and np.asarray(q).ndim == 1)
        return out[0] if scalar else out

    def inverse(self, p):
        return -np.asarray(p, dtype=float)

    def dilate(self, r, p):
        r = float(r)
        if not 0.0 < r < np.inf:
            raise ValueError(f"dilation factor must be positive and finite, got {r}")
        return np.asarray(p, dtype=float) * r ** self._weights

    def project_layer(self, j, p):
        """The H_j block of p (1 <= j <= step)."""
        if not 1 <= j <= self.step:
            raise ValueError(f"layer index {j} out of range 1..{self.step}")
        p = np.asarray(p, dtype=float)
        return p[..., self.layer_starts[j - 1]:self.layer_ends[j - 1]]

    def _layer_rows(self, c):
        """(iota, m) Euclidean layer norms of a (q, m) column block.

        Each layer's squares are summed row by row, then square-rooted.  A
        layer whose sum is subnormal, infinite, or zero with a nonzero entry
        is summed again by hypot, which scales as it goes, so only a norm out
        of range underflows or overflows.
        """
        sq = np.empty((self.step, c.shape[1]))
        with np.errstate(over="ignore"):
            for j, (s, e) in enumerate(zip(self.layer_starts, self.layer_ends)):
                np.multiply(c[s], c[s], out=sq[j])
                for k in range(s + 1, e):
                    sq[j] += c[k] * c[k]
            out = np.sqrt(sq)
            odd = (sq < np.finfo(float).tiny) | (sq == np.inf)
            if odd.any():
                for j, (s, e) in enumerate(zip(self.layer_starts, self.layer_ends)):
                    cols = np.flatnonzero(odd[j])
                    cols = cols[c[s:e, cols].any(axis=0)]  # an all-zero layer keeps its 0
                    out[j, cols] = np.hypot.reduce(c[s:e, cols], axis=0, initial=0.0)
        return out

    def layer_norms(self, p):
        """Euclidean norms (|x_1|, ..., |x_iota|) of a (q,) or (n, q) input.

        The (n, iota) result is the transpose of `_layer_rows` on p's columns.
        """
        p = np.asarray(p, dtype=float)
        out = self._layer_rows(np.atleast_2d(p).T).T
        return out[0] if p.ndim == 1 else out

    def quotient_layer_norms(self, x, y):
        """(iota, n) layer norms of x^-1 y for two broadcast (q,) or (n, q) inputs.

        Each CHUNK_COLUMNS block of x is negated as it is copied to columns,
        and the BCH product's columns go straight to `_layer_rows`; no (n, q)
        product is written.  The result is `layer_norms(multiply(inverse(x),
        y)).T` bit for bit.
        """
        a, b = self._broadcast(x, y)
        out = np.empty((self.step, a.shape[0]))
        for lo in range(0, a.shape[0], CHUNK_COLUMNS):
            hi = lo + CHUNK_COLUMNS
            out[:, lo:hi] = self._layer_rows(
                self._bch_columns(np.negative(a[lo:hi].T, order="C"), b[lo:hi].T.copy()))
        return out

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
class Check:
    """Worst value of one sampled check, with its witness when one is kept.

    It passes when the worst value is finite and at most `tol`, so NaN and
    infinities fail.
    """

    name: str
    worst: float
    tol: float
    witness: tuple = ()

    @property
    def ok(self):
        return bool(np.isfinite(self.worst) and self.worst <= self.tol)


def group_law_checks(g: GradedGroup, n_samples=10000, seed=0, tol=1e-10):
    """Randomized associativity / inverse / dilation-homomorphism suites.

    Coordinates are drawn uniformly in [-1, 1], all at once; the residuals
    are computed in blocks of CHUNK_COLUMNS samples and reported in the max
    norm over all sampled triples.
    """
    from .randomness import OP_PROPERTY_SAMPLES, stream

    rng = stream(seed, OP_PROPERTY_SAMPLES, 0)
    x, y, z = (rng.uniform(-1.0, 1.0, size=(n_samples, g.q)) for _ in range(3))
    rs = rng.uniform(0.25, 4.0, size=n_samples)

    maxima = []
    for lo in range(0, n_samples, CHUNK_COLUMNS):
        xb, yb, zb = (a[lo:lo + CHUNK_COLUMNS] for a in (x, y, z))
        xy = g.multiply(xb, yb)
        scale = rs[lo:lo + CHUNK_COLUMNS, None] ** g._weights[None, :]
        maxima.append((
            np.abs(g.multiply(xy, zb) - g.multiply(xb, g.multiply(yb, zb))).max(),
            np.abs(g.multiply(xb, g.inverse(xb))).max(),
            np.abs(g.multiply(xb, g.zero()[None, :]) - xb).max(),
            np.abs(xy * scale - g.multiply(xb * scale, yb * scale)).max()))
    names = ("associativity", "inverse", "identity", "dilation_homomorphism")
    return [Check(name, float(worst), tol) for name, worst in zip(names, np.max(maxima, axis=0))]
