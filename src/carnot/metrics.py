"""Homogeneous distances.

A multiradial distance is described by a profile phi acting on the layer
norms (|x_1|, ..., |x_iota|): the unit ball is {phi <= 1} and the norm of a
point is the unique dilation parameter r with
phi(|x_1|/r, ..., |x_iota|/r^iota) = 1.  The search starts at phi(|x_1|, ...,
|x_iota|), the norm itself for profiles with phi(t_1/r, ..., t_iota/r^iota) =
phi(t)/r such as dinf and koranyi, and takes safeguarded log-log Newton
steps.  No closed form is assumed: every norm is certified by a bracket of
relative width below NORM_RTOL, else it is NaN.  Distance constants of the
built-in families are validated by a randomized axiom sampler at
construction time instead of being trusted; its verdict is memoized per
process on the family, its exact parameter and the structure constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import randomness
from .algebra import Check, ConfigurationError, GradedGroup, checked_real

# Calibrated by dyadic search over the axiom sampler (largest passing value)
# under the [e1,e2]=e3 bracket normalization of the presets.
DINF_DEFAULT_C = 2.0
KORANYI_DEFAULT_GAMMA = 16.0
HEBISCH_SIKORA_DEFAULT_EPS = 0.5

NORM_RTOL = 1e-10
# profile rounds per block of the certified norm: dinf and koranyi need one,
# hebisch_sikora up to 6 on engel and 7 at step 5, a slopeless profile about 40
NORM_MAX_ROUNDS = 200
# lanes per block of the certified norm; phi sees at most twice as many rows
NORM_LANES = 8192
RHO_ATOL = 1e-10
# construction-time axiom verdicts kept per process, least recently used out
AXIOM_MEMO_SIZE = 64


def bisect(lower, lo, hi, done, max_iter, grow=0):
    """Vectorized search for the threshold where the predicate `lower` fails.

    `lower(x)` is a boolean array that holds below the threshold and fails
    above it.  While `lower(hi)` holds somewhere, lo moves up to hi and hi
    doubles there, at most `grow` times.  Then each bracket is halved, the
    end on the same side of the threshold as the midpoint moving to it, for
    at most `max_iter` halvings or until `done(lo, hi)`.  Returns the final
    (lo, hi) and their midpoint.  A predicate that fails everywhere, as a
    comparison with NaN does, ends the growth at once and closes the
    bracket onto lo.
    """
    for _ in range(grow):
        mask = lower(hi)
        if not np.any(mask):
            break
        lo = np.where(mask, hi, lo)
        hi = np.where(mask, hi * 2.0, hi)
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        below = lower(mid)
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if done(lo, hi):
            break
    return lo, hi, 0.5 * (lo + hi)


def false_position(g, lo, hi, tol, max_iter, g_lo=None, g_hi=None):
    """Vectorized root search of g in brackets with g(lo) > 0 >= g(hi).

    Illinois false position (Dowell & Jarratt, BIT 11, 1971): the secant
    point, an end kept twice running having its value halved, or the
    midpoint where that is not finite.  It keeps tol / 4 off both ends and
    within (T - w) / 4 of the midpoint, w the width and T four times the
    first width halved each step: at most two steps more than bisection.  A
    NaN value counts as <= 0; a zero closes its lane, at an end too.  `g_lo`
    and `g_hi` are g at the ends when known.  Returns (lo, hi) once each lane
    is narrower than its tol, or after `max_iter` steps.
    """
    fa, fb = (np.array(g(x) if v is None else v, dtype=float) for x, v in ((lo, g_lo), (hi, g_hi)))
    hi = np.where(fa == 0.0, lo, hi)
    lo = np.where(fb == 0.0, hi, lo)
    budget, last = 4.0 * np.abs(hi - lo), np.zeros(lo.shape)  # last: +1 moved lo, -1 hi
    for _ in range(max_iter):
        w = np.abs(hi - lo)
        live = w >= tol
        if not np.any(live):
            break
        mid, r, budget = 0.5 * (lo + hi), 0.25 * (budget - w), 0.5 * budget
        with np.errstate(all="ignore"):
            x = np.clip(lo + fa / (fa - fb) * (hi - lo),
                        np.minimum(lo, hi) + 0.25 * tol, np.maximum(lo, hi) - 0.25 * tol)
        x = np.clip(np.where(np.isfinite(x), x, mid), mid - r, mid + r)
        gx = g(x)
        up, down = live & (gx > 0.0), live & ~(gx > 0.0)
        fa = np.where(up, gx, np.where(down & (last < 0), 0.5 * fa, fa))
        fb = np.where(down, gx, np.where(up & (last > 0), 0.5 * fb, fb))
        lo, hi = np.where(up | down & (gx == 0.0), x, lo), np.where(down, x, hi)
        last = np.where(live, np.where(up, 1.0, -1.0), last)
    return lo, hi


@dataclass
class MultiradialProfile:
    """Monotone coercive profile phi: [0, inf)^iota -> [0, inf)."""

    group: GradedGroup
    evaluator: Callable  # phi(t) with t of shape (..., iota), vectorized
    name: str = "profile"
    # (evaluator, rho_1) of the last rho_1 bisection
    _rho1: tuple = field(default=(None, 0.0), init=False, repr=False, compare=False)

    def __post_init__(self):
        self._validate()

    def __call__(self, t):
        return np.asarray(self.evaluator(np.asarray(t, dtype=float)), dtype=float)

    def _validate(self, n=512, seed=0):
        iota = self.group.step
        # every test is written so that a NaN value of phi fails it
        z = self(np.zeros(iota))
        if not abs(float(z)) <= 1e-12:
            raise ConfigurationError(f"{self.name}: phi(0) = {z}, expected 0")
        rng = randomness.stream(seed, randomness.OP_PROPERTY_SAMPLES)
        t = rng.uniform(0.0, 4.0, (n, iota))
        bump = rng.uniform(0.0, 1.0, (n, iota)) * (rng.random((n, iota)) < 0.5)
        worse = self(t + bump) - self(t)
        if not worse.min() >= -1e-10:
            i = int(np.argmin(worse))
            raise ConfigurationError(
                f"{self.name}: phi is not monotone nondecreasing near t = {t[i].tolist()}")
        # coercivity along random rays and the coordinate axes
        dirs = np.vstack([np.eye(iota), rng.uniform(0.05, 1.0, (32, iota))])
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        _, s, _ = bisect(lambda s: self(s[:, None] * dirs) <= 2.0,
                         np.zeros(len(dirs)), np.ones(len(dirs)), None, 0, grow=40)
        weak = ~np.broadcast_to(self(s[:, None] * dirs) > 2.0, s.shape)
        if np.any(weak):
            u = dirs[int(np.argmax(weak))]
            raise ConfigurationError(
                f"{self.name}: phi fails coercivity along direction {u.tolist()}")

    # -- rho functions -----------------------------------------------------

    def rho_i(self, i: int, t):
        """sup{s >= 0 : phi(t_1, ..., t_{i-1}, s, 0, ..., 0) < 1}, batched over t.

        0 where t already leaves the open unit ball.  rho_1 = `rho_i(1, [])`
        is a constant of the profile, bisected once per evaluator and reused.
        """
        iota = self.group.step
        if not 1 <= i <= iota:
            raise ValueError(f"layer index {i} out of range 1..{iota}")
        scalar_in = np.asarray(t).ndim <= 1
        t = np.atleast_2d(np.asarray(t, dtype=float))
        if t.shape[-1] != i - 1:
            raise ValueError(f"expected {i - 1} leading arguments, got {t.shape[-1]}")
        head = np.zeros((t.shape[0], iota))
        head[:, :i - 1] = np.abs(t)
        if i == 1:
            if self._rho1[0] is not self.evaluator:
                rho1 = self._bisect_rho(1, np.zeros((1, iota)))[0]
                self._rho1 = (self.evaluator, float(rho1))
            out = np.full(len(t), self._rho1[1])
        else:
            out = self._bisect_rho(i, head)
        out = np.where(self(head) < 1.0, out, 0.0)  # outside lanes leave the others' bits alone
        return float(out[0]) if scalar_in else out

    def _bisect_rho(self, i, head):
        """rho_i at each row of `head`, whose first i - 1 entries are set."""
        def below_one(s):
            full = head.copy()
            full[:, i - 1] = s
            return self(full) < 1.0

        _, _, out = bisect(below_one, np.zeros(len(head)), np.ones(len(head)),
                           lambda lo, hi: np.max(hi - lo, initial=0.0) < RHO_ATOL, 80, grow=64)
        return out


@dataclass
class DistanceSpec:
    """A homogeneous distance with unit ball {phi(|x_1|, ..., |x_iota|) <= 1}."""

    group: GradedGroup
    profile: MultiradialProfile
    convex_ball: bool = False
    name: str = "distance"

    # -- evaluation --------------------------------------------------------

    def norm(self, x, start=None):
        """Certified norms of a (q,) or (n, q) input.

        `start`, a float or one per point, is the first r of the search where
        it is a positive finite float (see `_norm_multiradial`): a wrong one
        costs rounds, never accuracy.
        """
        x = np.asarray(x, dtype=float)
        out = self._norm_rows(np.atleast_2d(self.group.layer_norms(x)).T, start)
        return float(out[0]) if x.ndim == 1 else out

    def _norm_rows(self, a, start):
        """Norms of the points with (iota, n) layer norm rows `a`, started at `start`.

        The points go to `_norm_multiradial` in near-equal blocks of at most
        NORM_LANES; they are independent, so a split keeps every bit.
        """
        r = np.broadcast_to(np.nan if start is None else np.asarray(start, dtype=float),
                            a.shape[1])
        k = -(-a.shape[1] // NORM_LANES) or 1
        return np.concatenate([self._norm_multiradial(*block) for block in
                               zip(np.array_split(a, k, axis=1), np.array_split(r, k))])

    def _norm_multiradial(self, a, start):
        """Norms of the points with (iota, m) layer norm rows `a`, certified to NORM_RTOL.

        Each round evaluates phi at r(1 - delta) and r(1 + delta), delta =
        NORM_RTOL / 2, for the points still open, as the (2, m, iota) view of
        one (iota, 2, m) array.  A point outside the ball at the first and
        not at the second is certified and gets the secant root of log phi
        against log r through that pair, clamped into it.  Otherwise both
        evaluations narrow its bracket [lo, hi], and the next r is that
        secant root when it lies inside the bracket, else 2 lo, hi / 2 or
        sqrt(lo) sqrt(hi), computed for those points only (the product lo hi
        would overflow or underflow past 1e+-154); hi - lo <= NORM_RTOL hi
        also certifies.  The first r is `start` where it is a positive finite
        float, else phi(a), the norm itself when phi(a / r^w) = phi(a) / r
        (dinf, koranyi), or max_j a_j^(1/j) where phi(a) is not a positive
        float either.  A non-finite coordinate or phi value, or a point still
        open after NORM_MAX_ROUNDS, gives NaN.  Powers r^j are running
        products, each clamped to the smallest normal float in a round where
        some open point's r(1 - delta)^iota is below it: below a norm of
        about 1e-308^(1/iota) (1e-62 at step 5) the result is NaN or
        unresolved.  A certified or failed point is dead: it is never written
        again, and the arrays drop the dead points once they are 1/8 of them.
        """
        iota, m = a.shape
        tiny = np.finfo(float).tiny
        finite, nonzero = np.isfinite(a).all(axis=0), (a > 0.0).any(axis=0)
        out = np.where(finite & ~nonzero, 0.0, np.nan)
        idx = np.flatnonzero(finite & nonzero)
        if not len(idx):
            return out
        if len(idx) < m:
            a, r = a[:, idx], start[idx]  # r: a copy
        else:
            r = start.copy()
        delta = np.array([[-0.5 * NORM_RTOL], [0.5 * NORM_RTOL]])
        du = float(np.log1p(delta[1, 0]) - np.log1p(delta[0, 0]))  # log(ends[1] / ends[0])
        lo, hi, alive = np.zeros(len(r)), np.full(len(r), np.inf), np.ones(len(r), dtype=bool)
        with np.errstate(all="ignore"):  # each lane handles its own inf and NaN
            cold = ~(np.isfinite(r) & (r > 0.0))  # these start at phi(a)
            if cold.all():
                r[:] = self.profile(a.T)
            elif cold.any():
                r[cold] = self.profile(a[:, cold].T)
            off = np.flatnonzero(cold & ~(np.isfinite(r) & (r > 0.0)))  # there at max_j a_j^(1/j)
            r[off] = (a[:, off] ** (1.0 / np.arange(1, iota + 1))[:, None]).max(axis=0)
            for _ in range(NORM_MAX_ROUNDS):
                ends = r * (1.0 + delta)  # (2, m)
                # rounding is monotone, so the smallest ends[0] has the smallest
                # powers; a dead lane can only make the clamp run
                low = power = ends[0].min()
                for _ in range(iota - 1):
                    power = power * low
                clamp = not power >= tiny
                t, power = np.empty((iota, 2, len(r))), ends.copy()
                for j in range(iota):  # t[j] = a_j / ends^(j+1), the power a running product
                    np.divide(a[j], np.maximum(power, tiny) if clamp else power, out=t[j])
                    if j + 1 < iota:
                        power *= ends
                f = np.log(self.profile(t.transpose(1, 2, 0)))  # (2, m)
                step = ends[0] * np.exp(f[0] * du / (f[0] - f[1]))
                out_lo, out_hi = f > 0.0  # outside the ball at each end
                np.maximum(lo, np.where(out_hi, ends[1], np.where(out_lo, ends[0], 0.0)), out=lo)
                np.minimum(hi, np.where(out_lo, np.where(out_hi, np.inf, ends[1]), ends[0]), out=hi)
                r = step
                miss = np.flatnonzero(alive & ~((lo < step) & (step < hi)))  # root off [lo, hi]
                if len(miss):
                    r = step.copy()
                    l, h = lo[miss], hi[miss]
                    r[miss] = np.where(h == np.inf, 2.0 * l,
                                      np.where(l == 0.0, 0.5 * h, np.sqrt(l) * np.sqrt(h)))
                sane = (0.0 < hi) & (lo <= hi) & ~(np.isnan(f[0]) | np.isnan(f[1]))
                done = alive & sane & ((out_lo & ~out_hi) | (lo >= (1.0 - NORM_RTOL) * hi))
                fin = np.flatnonzero(done)
                if len(fin):
                    s = step[fin]
                    out[idx[fin]] = np.where(np.isfinite(s), np.clip(s, lo[fin], hi[fin]), r[fin])
                alive &= sane & ~done
                live = np.count_nonzero(alive)
                if not live:
                    break
                if 8 * live <= 7 * len(alive):
                    keep = np.flatnonzero(alive)
                    idx, a, r, lo, hi = idx[keep], a[:, keep], r[keep], lo[keep], hi[keep]
                    alive = np.ones(live, dtype=bool)
        return out

    def distance(self, x, y, start=None):
        """d(x, y) = ||x^-1 y||, the norm started at `start` as in `norm`.

        The layer norms are read off the columns of the product
        (`GradedGroup.quotient_layer_norms`), which is never materialized.
        """
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        out = self._norm_rows(self.group.quotient_layer_norms(x, y), start)
        return float(out[0]) if x.ndim == 1 and y.ndim == 1 else out

    def ball_gauge(self, center, r, x):
        """phi of the layer norms of center^-1 * x dilated by 1/r; batched over x.

        The layer norms are read off the product's columns as in `distance`,
        and phi sees the (n, iota) view of the dilated rows.
        """
        if not 0.0 < r < np.inf:
            raise ValueError(f"radius must be positive and finite, got {r}")
        g = self.group
        a = g.quotient_layer_norms(np.asarray(center, dtype=float)[None, :], x)
        weights = np.arange(1, g.step + 1, dtype=float)
        out = self.profile((a / (r ** weights)[:, None]).T)
        return float(out[0]) if np.asarray(x).ndim == 1 else out

    def ball_contains(self, center, r, x):
        """Closed-ball membership of x in B(center, r), ball_gauge <= 1 (NaN is outside)."""
        return self.ball_gauge(center, r, x) <= 1.0


# -- axiom sampler ---------------------------------------------------------

@dataclass(frozen=True)
class AxiomReport:
    checks: tuple
    seed: int
    n_samples: int

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]


def _canonical_probe_pairs(g: GradedGroup):
    """Deterministic probe pairs (+-e_i, e_j), ordered by i, j, sign: two (2q^2, q) stacks."""
    i, j, sign = np.meshgrid(np.arange(g.q), np.arange(g.q), (1.0, -1.0), indexing="ij")
    eye = np.eye(g.q)
    return sign.reshape(-1, 1) * eye[i.ravel()], eye[j.ravel()]


def _worst_index(values):
    """Index of the first non-finite entry, else of the largest."""
    bad = ~np.isfinite(values)
    return int(np.argmax(bad if bad.any() else values))


def check_axioms(d: DistanceSpec, g: GradedGroup = None, n_samples: int = 100000,
                 seed: int = 0) -> AxiomReport:
    """Randomized check of the homogeneous-distance axioms on the unit box.

    Failure is definitive (a counterexample is reported); success is
    statistical evidence only.  The triangle inequality is probed on random
    triples plus a deterministic set of basis-vector pairs, so classic
    violations are found independently of the seed.
    """
    g = g or d.group
    tol = 1e-7
    rng = randomness.stream(seed, randomness.OP_AXIOMS)
    block = 20000
    checks = {}

    def update(name, worst, witness):
        # a non-finite value wins and is never replaced
        cur = checks.get(name)
        if cur is not None and not np.isfinite(cur[0]):
            return
        if cur is None or not np.isfinite(worst) or worst > cur[0]:
            checks[name] = (worst, witness)

    # deterministic probes: ||x*y|| <= ||x|| + ||y|| via the triple (0, x, x*y)
    X, Y = _canonical_probe_pairs(g)
    XY = g.multiply(X, Y)
    viol = d.norm(XY) - d.norm(X) - d.norm(Y)
    i = _worst_index(viol)
    update("triangle", float(viol[i]), (np.zeros(g.q).tolist(), X[i].tolist(), XY[i].tolist()))

    done = 0
    while done < n_samples:
        n = min(block, n_samples - done)
        X = rng.uniform(-1, 1, (n, g.q))
        Y = rng.uniform(-1, 1, (n, g.q))
        Z = rng.uniform(-1, 1, (n, g.q))
        r = rng.uniform(0.1, 2.0, n)

        dxy = d.distance(X, Y)
        dyz = d.distance(Y, Z)
        dxz = d.distance(X, Z)
        viol = dxz - dxy - dyz
        i = _worst_index(viol)
        update("triangle", float(viol[i]), (X[i].tolist(), Y[i].tolist(), Z[i].tolist()))

        # y^-1 x = (x^-1 y)^-1: a symmetric, homogeneous distance has these
        # norms at their starts, and each is certified from its start anyway
        dyx = d.distance(Y, X, start=dxy)
        sym = np.abs(dxy - dyx)
        i = _worst_index(sym)
        update("symmetry", float(sym[i]), (X[i].tolist(), Y[i].tolist()))

        scale, rd = r[:64, None] ** g._weights, r[:64] * dxy[:64]
        hom = np.abs(d.distance(X[:64] * scale, Y[:64] * scale, start=rd) - rd)
        i = _worst_index(hom)
        update("homogeneity", float(hom[i]), (X[i].tolist(), Y[i].tolist(), float(r[i])))
        done += n

    out = [Check(name, worst, tol, witness)
           for name, (worst, witness) in sorted(checks.items())]
    return AxiomReport(checks=tuple(out), seed=seed, n_samples=n_samples)


# -- built-in families -----------------------------------------------------

_axiom_memo = {}  # memo key -> AxiomReport, least recently used first


def _construction_verdict(d: DistanceSpec, key) -> AxiomReport:
    """check_axioms(d, n_samples=20000, seed=0), memoized per process.

    `key` must determine the profile on every group, as (family, exact
    parameter) does; the memo key adds the layer dims and the bracket
    bytes.  With key None the check always runs.
    """
    if key is None:
        return check_axioms(d, n_samples=20000, seed=0)
    g = d.group
    key = (key, g.layer_dims, g.sc.bracket.tobytes())
    report = _axiom_memo.pop(key, None)
    if report is None:
        report = check_axioms(d, n_samples=20000, seed=0)
    _axiom_memo[key] = report
    if len(_axiom_memo) > AXIOM_MEMO_SIZE:
        del _axiom_memo[next(iter(_axiom_memo))]
    return report


def _build(g, name, evaluator, convex_ball, validate, hint, key=None):
    """Distance of a profile; with `validate`, the axiom sampler must pass."""
    prof = MultiradialProfile(group=g, evaluator=evaluator, name=name)
    d = DistanceSpec(group=g, profile=prof, convex_ball=convex_ball, name=name)
    if validate:
        rep = _construction_verdict(d, key)
        if not rep.ok:
            c = rep.failures()[0]
            raise ConfigurationError(
                f"{d.name}: {c.name} violation {c.worst:.3e} at {c.witness}; {hint}")
    return d


def dinf(g: GradedGroup, c: float = DINF_DEFAULT_C, validate: bool = True) -> DistanceSpec:
    """max(t1, c*sqrt(t2)) profile on step-2 groups."""
    if g.step != 2:
        raise ConfigurationError("dinf is defined on step-2 groups")
    c = checked_real(c, "dinf: c", positive=True)
    return _build(g, f"dinf({c:g})",
                  lambda t: np.maximum(t[..., 0], c * np.sqrt(t[..., 1])),
                  False, validate, "decrease c", key=("dinf", c))


def koranyi(g: GradedGroup, gamma: float = KORANYI_DEFAULT_GAMMA,
            validate: bool = True) -> DistanceSpec:
    """Cygan-Koranyi gauge (t1^4 + gamma*t2^2)^(1/4) on heisenberg1-like groups."""
    if g.step != 2:
        raise ConfigurationError("koranyi is defined on step-2 groups")
    gamma = checked_real(gamma, "koranyi: gamma", positive=True)
    return _build(g, f"koranyi({gamma:g})",
                  lambda t: (t[..., 0] ** 4 + gamma * t[..., 1] ** 2) ** 0.25,
                  False, validate, "adjust gamma to the bracket normalization",
                  key=("koranyi", gamma))


def hebisch_sikora(g: GradedGroup, eps: float = HEBISCH_SIKORA_DEFAULT_EPS,
                   validate: bool = True) -> DistanceSpec:
    """Distance whose unit ball is the Euclidean ball of radius eps (convex)."""
    eps = checked_real(eps, "hebisch_sikora: eps", positive=True)

    def profile(t):
        # summed in place from t_1^2: the bits of Python's sum from 0
        total = t[..., 0] * t[..., 0]
        for j in range(1, t.shape[-1]):
            total += t[..., j] * t[..., j]
        return np.sqrt(total) / eps
    return _build(g, f"hebisch_sikora({eps:g})", profile,
                  True, validate, "decrease eps", key=("hebisch_sikora", eps))


def euclidean(g: GradedGroup) -> DistanceSpec:
    """Euclidean distance; a homogeneous distance only on abelian groups."""
    if g.step != 1:
        raise ConfigurationError("euclidean distance is homogeneous only on abelian groups")
    return _build(g, "euclidean", lambda t: t[..., 0], True, False, None)


PROFILE_HINT = "profile does not induce a distance"


def from_profile(g: GradedGroup, evaluator, name="profile", convex_ball=False,
                 validate: bool = True) -> DistanceSpec:
    """Distance of a user profile; a callable has no memo key, so every
    validated build runs the axiom sampler."""
    return _build(g, name, evaluator, convex_ball, validate, PROFILE_HINT)
