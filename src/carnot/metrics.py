"""Homogeneous distances.

A multiradial distance is described by a profile phi acting on the layer
norms (|x_1|, ..., |x_iota|): the unit ball is {phi <= 1} and the norm of a
point is the unique dilation parameter r with
phi(|x_1|/r, ..., |x_iota|/r^iota) = 1, found by bracketing bisection.  No
closed form for the norm is ever assumed.  Distance constants of the
built-in families are validated by a randomized axiom sampler at
construction time instead of being trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import randomness
from .algebra import ConfigurationError, GradedGroup, checked_real

# Calibrated by dyadic search over the axiom sampler (largest passing value)
# under the [e1,e2]=e3 bracket normalization of the presets.
DINF_DEFAULT_C = 2.0
KORANYI_DEFAULT_GAMMA = 16.0
HEBISCH_SIKORA_DEFAULT_EPS = 0.5

NORM_RTOL = 1e-10
RHO_ATOL = 1e-10


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


@dataclass
class MultiradialProfile:
    """Monotone coercive profile phi: [0, inf)^iota -> [0, inf)."""

    group: GradedGroup
    evaluator: Callable  # phi(t) with t of shape (..., iota), vectorized
    name: str = "profile"

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

        rho_1 takes no leading arguments: `rho_i(1, [])`.
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
        if np.any(self(head) >= 1.0):
            bad = int(np.argmax(self(head) >= 1.0))
            raise ValueError(
                f"argument {t[bad].tolist()} lies outside the domain T_{i}")

        def below_one(s):
            full = head.copy()
            full[:, i - 1] = s
            return self(full) < 1.0

        _, _, out = bisect(below_one, np.zeros(len(t)), np.ones(len(t)),
                           lambda lo, hi: np.max(hi - lo) < RHO_ATOL, 80, grow=64)
        return float(out[0]) if scalar_in else out


@dataclass
class DistanceSpec:
    """A homogeneous distance with unit ball {phi(|x_1|, ..., |x_iota|) <= 1}."""

    group: GradedGroup
    profile: MultiradialProfile
    convex_ball: bool = False
    name: str = "distance"

    # -- evaluation --------------------------------------------------------

    def norm(self, x):
        out = self._norm_multiradial(np.atleast_2d(np.asarray(x, dtype=float)))
        return float(out[0]) if np.asarray(x).ndim == 1 else out

    def _norm_multiradial(self, x2):
        g = self.group
        a = np.atleast_2d(g.layer_norms(x2))  # (n, iota)
        weights = np.arange(1, g.step + 1, dtype=float)
        out = np.zeros(a.shape[0])
        live = np.any(a > 0.0, axis=1)
        if not np.any(live):
            return out
        al = a[live]

        def outside(r):
            return self.profile(al / np.maximum(r, 1e-300)[:, None] ** weights) > 1.0

        # grow hi until the point is inside the ball of radius hi
        lo, hi, _ = bisect(outside, np.zeros(al.shape[0]), np.ones(al.shape[0]),
                           None, 0, grow=80)
        # where the point was already inside the unit ball, shrink lo up from 0
        for _ in range(600):
            open_below = (lo == 0.0) & (hi > 1e-280)
            if not np.any(open_below):
                break
            half = hi / 2.0
            mask = open_below & ~outside(half)
            lo = np.where(open_below & ~mask, half, lo)
            hi = np.where(mask, half, hi)
        _, _, out[live] = bisect(
            outside, lo, hi,
            lambda lo, hi: np.max((hi - lo) / np.maximum(hi, 1e-300)) < NORM_RTOL, 120)
        return out

    def distance(self, x, y):
        g = self.group
        return self.norm(g.multiply(g.inverse(np.asarray(x, dtype=float)),
                                    np.asarray(y, dtype=float)))

    def ball_contains(self, center, r, x):
        """Closed-ball membership of x in B(center, r); batched over x."""
        if r <= 0:
            raise ValueError(f"radius must be positive, got {r}")
        g = self.group
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        u = np.atleast_2d(g.multiply(g.inverse(np.asarray(center, dtype=float))[None, :], x2))
        a = np.atleast_2d(g.layer_norms(u))
        weights = np.arange(1, g.step + 1, dtype=float)
        out = self.profile(a / r ** weights) <= 1.0
        return bool(out[0]) if np.asarray(x).ndim == 1 else out


# -- axiom sampler ---------------------------------------------------------

@dataclass(frozen=True)
class AxiomCheck:
    name: str
    worst: float
    witness: tuple
    tol: float

    @property
    def ok(self):
        return self.worst <= self.tol


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


def _canonical_probe_triples(g: GradedGroup):
    """Deterministic (x, y) probe pairs: basis vectors and their products."""
    pairs = []
    for i in range(1, g.q + 1):
        for j in range(1, g.q + 1):
            for si in (1.0, -1.0):
                pairs.append((si * g.basis_vector(i), g.basis_vector(j)))
    return pairs


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
        cur = checks.get(name)
        if cur is None or worst > cur[0]:
            checks[name] = (worst, witness)

    # deterministic probes: ||x*y|| <= ||x|| + ||y|| via the triple (0, x, x*y)
    for x, y in _canonical_probe_triples(g):
        viol = d.norm(g.multiply(x, y)) - d.norm(x) - d.norm(y)
        update("triangle", viol, (np.zeros(g.q).tolist(), x.tolist(),
                                  g.multiply(x, y).tolist()))

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
        i = int(np.argmax(viol))
        update("triangle", float(viol[i]), (X[i].tolist(), Y[i].tolist(), Z[i].tolist()))

        dyx = d.distance(Y, X)
        sym = np.abs(dxy - dyx)
        i = int(np.argmax(sym))
        update("symmetry", float(sym[i]), (X[i].tolist(), Y[i].tolist()))

        Xr = np.stack([g.dilate(ri, xi) for ri, xi in zip(r[:64], X[:64])])
        Yr = np.stack([g.dilate(ri, yi) for ri, yi in zip(r[:64], Y[:64])])
        hom = np.abs(d.distance(Xr, Yr) - r[:64] * dxy[:64])
        i = int(np.argmax(hom))
        update("homogeneity", float(hom[i]), (X[i].tolist(), Y[i].tolist(), float(r[i])))
        done += n

    out = [AxiomCheck(name, worst, witness, tol)
           for name, (worst, witness) in sorted(checks.items())]
    return AxiomReport(checks=tuple(out), seed=seed, n_samples=n_samples)


# -- built-in families -----------------------------------------------------

def _build(g, name, evaluator, convex_ball, validate, hint):
    """Distance of a profile; with `validate`, the axiom sampler must pass."""
    prof = MultiradialProfile(group=g, evaluator=evaluator, name=name)
    d = DistanceSpec(group=g, profile=prof, convex_ball=convex_ball, name=name)
    if validate:
        rep = check_axioms(d, n_samples=20000, seed=0)
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
                  False, validate, "decrease c")


def koranyi(g: GradedGroup, gamma: float = KORANYI_DEFAULT_GAMMA,
            validate: bool = True) -> DistanceSpec:
    """Cygan-Koranyi gauge (t1^4 + gamma*t2^2)^(1/4) on heisenberg1-like groups."""
    if g.step != 2:
        raise ConfigurationError("koranyi is defined on step-2 groups")
    gamma = checked_real(gamma, "koranyi: gamma", positive=True)
    return _build(g, f"koranyi({gamma:g})",
                  lambda t: (t[..., 0] ** 4 + gamma * t[..., 1] ** 2) ** 0.25,
                  False, validate, "adjust gamma to the bracket normalization")


def hebisch_sikora(g: GradedGroup, eps: float = HEBISCH_SIKORA_DEFAULT_EPS,
                   validate: bool = True) -> DistanceSpec:
    """Distance whose unit ball is the Euclidean ball of radius eps (convex)."""
    eps = checked_real(eps, "hebisch_sikora: eps", positive=True)
    return _build(g, f"hebisch_sikora({eps:g})",
                  lambda t: np.sqrt(np.sum(t ** 2, axis=-1)) / eps,
                  True, validate, "decrease eps")


def euclidean(g: GradedGroup) -> DistanceSpec:
    """Euclidean distance; a homogeneous distance only on abelian groups."""
    if g.step != 1:
        raise ConfigurationError("euclidean distance is homogeneous only on abelian groups")
    return _build(g, "euclidean", lambda t: t[..., 0], True, False, None)


def from_profile(g: GradedGroup, evaluator, name="profile", convex_ball=False,
                 validate: bool = True) -> DistanceSpec:
    return _build(g, name, evaluator, convex_ball, validate,
                  "profile does not induce a distance")
