"""Slice-volume oracles and the spherical factor.

The spherical factor of a distance with respect to a homogeneous subspace V
is the maximum over ball centers z of the Euclidean volume of V
intersected with the unit metric ball at z.  Two independent volume
oracles are provided: hit-or-miss Monte Carlo, which only queries ball
membership, and a nested Gauss-Legendre quadrature of the layerwise Fubini
reduction, which uses the profile's rho functions.  For an ideal V (it
holds every layer above the first) and for a horizontal V the symmetry of
the multiradial ball puts the maximum at the origin, and beta is the
origin volume: a radial quadrature in the layer norms alone.  Every other
V takes a multi-start Nelder-Mead on a common-random-numbers surface, so
the objective is a deterministic function of the center for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gamma as _gamma_fn
from math import pi

import numpy as np

from . import randomness
from .algebra import ConfigurationError, GradedGroup
from .metrics import RHO_ATOL, DistanceSpec
from .subgroups import HomSubspace, is_normal, subspace_from_signature_reference

MAX_BOX_DOUBLINGS = 20
MIN_MC_SAMPLES = 1000
GL_NODES = 32
# rows of a quadrature batch: n_nodes^(n_1 + ... + n_{iota-1}) in
# slice_volume_nested, where a row costs about 480 bytes on the step-5 filiform
# group (q = 6), so a batch peaks near 125 MB, and n^(a - 1) in _origin_volume
MAX_QUAD_ROWS = 1 << 18
NM_MAXITER = 120


def unit_ball_volume(m: int) -> float:
    """Lebesgue measure of the Euclidean unit ball of dimension m."""
    return pi ** (m / 2.0) / _gamma_fn(m / 2.0 + 1.0)


@dataclass(frozen=True)
class VolumeEstimate:
    value: float
    std_error: float
    n_samples: int
    method: str  # "mc" | "nested_quadrature"


@dataclass(frozen=True)
class FactorReport:
    beta: float
    beta_error: float  # MC: one standard error; quadrature, closed form: a bound
    argmax_center: np.ndarray  # the origin on the ideal and horizontal routes
    center_gap: float  # beta minus the origin volume; 0 on those routes by proof
    gap_error: float  # MC search: hypot of the errors of beta and the origin; else 0
    n_starts: int  # 0 unless the MC search ran
    n_mc: int  # 0 on the quadrature and closed-form routes
    seed: int
    boundary_argmax: bool
    method: str  # "nested_quadrature" | "closed_form" | "mc"


@dataclass(frozen=True)
class SweepReport:
    signature: tuple
    betas: tuple
    std_errors: tuple
    spread: float
    spread_error: float  # sum of the 3-sigma bars of the extremal pair
    mean: float
    seed: int

    @property
    def ok(self):
        return self.spread <= self.spread_error


@dataclass(frozen=True)
class ConvexNormalReport:
    beta: float
    origin_volume: float
    gap: float
    gap_error: float  # combined one-sigma error

    @property
    def ok(self):
        return abs(self.gap) <= 3.0 * self.gap_error


# -- Monte Carlo oracle ----------------------------------------------------

def _bounding_halfwidths(d: DistanceSpec, V: HomSubspace, z, seed):
    """Coordinate box in V containing the slice, by doubling search.

    The box is doubled until a shell of 1000 probe points on its boundary
    contains no member of the slice.
    """
    rng = randomness.stream(seed, randomness.OP_MC_BOX)
    h = np.ones(V.n)
    for _ in range(MAX_BOX_DOUBLINGS + 1):
        probes = rng.uniform(-1.0, 1.0, (1000, V.n))
        scale = np.max(np.abs(probes), axis=1)
        probes /= np.maximum(scale, 1e-12)[:, None]  # push to the box boundary
        pts = V.embed(probes * h)
        if not np.any(d.ball_contains(z, 1.0, pts)):
            return h
        h = h * 2.0
    raise ConfigurationError(
        "bounding-box search did not terminate; the slice appears unbounded "
        "(profile coercivity failure?)")


def slice_volume_mc(d: DistanceSpec, V: HomSubspace, z, n: int = 100000,
                    seed: int = 0) -> VolumeEstimate:
    """Hit-or-miss Monte Carlo estimate of the n-volume of V inside B(z, 1).

    Deterministic for a fixed seed: all randomness is drawn from
    counter-based streams keyed by (seed, operation, block index).
    """
    if n < MIN_MC_SAMPLES:
        raise ValueError(f"n >= {MIN_MC_SAMPLES} required for a usable estimate")
    z = np.asarray(z, dtype=float)
    h = _bounding_halfwidths(d, V, z, seed)
    box_vol = float(np.prod(2.0 * h))

    hits = 0
    block = 1 << 18
    done = 0
    idx = 0
    while done < n:
        m = min(block, n - done)
        rng = randomness.stream(seed, randomness.OP_MC_VOLUME, idx)
        c = rng.uniform(-1.0, 1.0, (m, V.n)) * h
        hits += int(np.count_nonzero(d.ball_contains(z, 1.0, V.embed(c))))
        done += m
        idx += 1
    p = hits / n
    # with no hit or no miss, 3 * box_vol / n is the rule-of-three 95 % bound
    err = box_vol * float(np.sqrt(p * (1.0 - p) / n)) if 0 < hits < n else box_vol / n
    return VolumeEstimate(value=box_vol * p, std_error=err, n_samples=n, method="mc")


# -- nested quadrature oracle ---------------------------------------------

@lru_cache(maxsize=8)
def _gl_rule(n_nodes):
    """Gauss-Legendre nodes and weights on (-1, 1), cached per n_nodes; read-only."""
    rule = np.polynomial.legendre.leggauss(n_nodes)
    for a in rule:
        a.flags.writeable = False
    return rule


@lru_cache(maxsize=8)
def _gl_sin_rule(n_nodes):
    """Gauss-Legendre nodes mapped by x = sin(theta) on (-1, 1).

    Absorbs square-root vanishing of ball slices at the domain edge.
    Cached per n_nodes; the arrays are read-only.
    """
    u, w = _gl_rule(n_nodes)
    theta = u * (pi / 2.0)
    rule = np.sin(theta), np.cos(theta) * w * (pi / 2.0)
    for a in rule:
        a.flags.writeable = False
    return rule


def slice_volume_nested(d: DistanceSpec, V: HomSubspace, z=None,
                        n_nodes: int = GL_NODES) -> VolumeEstimate:
    """Nested-quadrature volume of V inside B(z, 1) for a multiradial distance.

    Layers are integrated outermost-first over Euclidean balls whose radii
    come from the profile's rho functions and whose centers are the
    BCH-shifted images of z; the innermost layer uses the closed form
    omega_m * (rho^2 - dist^2)^(m/2) for an affine slice of a ball.  The
    layers below the top expand a batch of n_nodes^(n_1 + ... + n_{iota-1})
    rows, refused above MAX_QUAD_ROWS before anything is computed.  A V
    with no top-layer direction is refused too: its last layer would be a
    0/1 indicator, off by up to about 10 % away from the origin.
    """
    k = sum(V.signature[:-1])
    if n_nodes ** k > MAX_QUAD_ROWS:
        raise ConfigurationError(
            f"nested quadrature needs {n_nodes}^{k} rows > {MAX_QUAD_ROWS}, "
            "use slice_volume_mc")
    if not V.signature[-1]:
        raise ConfigurationError(f"nested quadrature needs a top-layer direction, V has signature "
                                 f"{V.signature}: use slice_volume_mc or, for a horizontal V, "
                                 "spherical_factor")
    g = d.group
    z = g.zero() if z is None else np.asarray(z, dtype=float)
    inv_z = g.inverse(z)
    nodes1, weights1 = _gl_sin_rule(n_nodes)

    iota = g.step
    # running state: partial points (batch, q) with layers < j filled, weights
    pts = np.zeros((1, g.q))
    wts = np.ones(1)

    for j in range(1, iota + 1):
        nj = V.signature[j - 1]
        Bj = V.layer_bases[j - 1]  # (dim H_j, nj)
        # Psi_j (batch, dim H_j) and the rho arguments (batch, j-1)
        u = np.atleast_2d(g.multiply(inv_z[None, :], pts))
        psi = -g.project_layer(j, u)
        # rho_j, 0 where the leading layers already leave the ball
        rho = d.profile.rho_i(j, np.atleast_2d(g.layer_norms(u))[:, :j - 1])
        zeta = psi @ Bj if nj else np.zeros((pts.shape[0], 0))
        perp = psi - (zeta @ Bj.T if nj else 0.0)
        r_sq = rho ** 2 - np.einsum("nc,nc->n", np.atleast_2d(perp), np.atleast_2d(perp))
        r_eff = np.sqrt(np.maximum(r_sq, 0.0))
        if j == iota or nj == 0:
            # the last layer has a closed form; with no layer-j freedom in V
            # the constraint folds into later rho args
            continue
        # expand the batch over an nj-dimensional ball via nested sin maps
        for axis in range(nj):
            coords = nodes1[None, :] * r_eff[:, None] + zeta[:, axis][:, None]
            w_new = wts[:, None] * weights1[None, :] * r_eff[:, None]
            col = np.zeros(g.q)
            col[g.layer_starts[j - 1]:g.layer_ends[j - 1]] = Bj[:, axis]
            shift = coords[:, :, None] * col[None, None, :]
            pts = (pts[:, None, :] + shift).reshape(-1, g.q)
            wts = w_new.reshape(-1)
            r_eff = (np.sqrt(np.maximum(r_eff[:, None] ** 2 - (coords - zeta[:, axis][:, None]) ** 2,
                                        0.0))).reshape(-1)
            zeta = np.repeat(zeta, n_nodes, axis=0)
        # prune zero-weight nodes to keep the batch small
        keep = wts > 0.0
        pts, wts = pts[keep], wts[keep]

    vals = unit_ball_volume(nj) * r_eff ** nj
    return VolumeEstimate(value=float(np.dot(wts, vals)), std_error=0.0,
                          n_samples=0, method="nested_quadrature")


def _origin_volume(prof, sig, n):
    """Volume of a V of layer signature sig inside B(0, 1), in polar coordinates.

    On each layer V meets the radius s_j runs over [0, rho_j(s_1, ..., s_{j-1})]
    with weight n_j * omega_{n_j} * s_j^(n_j - 1) on the n-node sin rule moved
    to (0, 1), and the last one is closed, omega_{n_j} * rho_j^{n_j}: n^(a - 1)
    rows for a layers met, and no group product.
    """
    x, w = _gl_sin_rule(n)
    u, w = 0.5 * (x + 1.0), 0.5 * w
    met = [j for j, nj in enumerate(sig, start=1) if nj]
    s = np.zeros((1, len(sig)))  # the layer norms of each row so far
    wts = np.ones(1)
    for j in met[:-1]:
        nj = sig[j - 1]
        rho = prof.rho_i(j, s[:, :j - 1])[:, None]
        r = rho * u
        wts = (wts[:, None] * (nj * unit_ball_volume(nj) * w) * r ** (nj - 1) * rho).reshape(-1)
        s = np.repeat(s, n, axis=0)
        s[:, j - 1] = r.reshape(-1)
    j, nj = met[-1], sig[met[-1] - 1]
    return float(np.dot(wts, unit_ball_volume(nj) * prof.rho_i(j, s[:, :j - 1]) ** nj))


# -- spherical factor ------------------------------------------------------

def _project_to_unit_ball(d: DistanceSpec, z):
    nz = d.norm(z)
    if nz > 1.0:
        return d.group.dilate(1.0 / nz, z)
    return np.asarray(z, dtype=float)


def spherical_factor(d: DistanceSpec, V: HomSubspace, n_starts: int = 16,
                     n_mc: int = 100000, seed: int = 0) -> FactorReport:
    """Maximum of the slice volume over ball centers in the unit metric ball.

    The symmetry of the multiradial ball puts it at the origin for

    - an ideal V (it holds every layer above the first): a center factors
      as z = w * v with v in V and w in W = V^perp in H_1; for fixed v_1
      the higher layers of w^-1 * v are a unit-Jacobian shear of those of
      v, and |(w^-1 * v)_1| = sqrt(|v_1|^2 + |w|^2), so by the monotone
      profile the slice volume does not increase with |w|
      (`method == "nested_quadrature"`);
    - a horizontal V: the first layer of z^-1 * v is v - z_1 and the other
      layers only raise the profile, so every slice fits in a V-translate
      of the origin slice (`"closed_form"`).

    There beta is `_origin_volume` on the most nodes, up to GL_NODES, whose
    doubled batch fits MAX_QUAD_ROWS, bounded by the gap to the doubled
    rule plus the rho bisection tolerance; the argmax is the origin and the
    center gap 0 by proof, and n_starts, n_mc and seed are unused.  Every
    other V takes the multi-start Monte Carlo search of `_mc_factor`.
    """
    g = d.group
    if not 1 <= V.n <= g.q - 1:
        raise ConfigurationError("spherical factor needs 1 <= dim V <= q - 1")
    sig = V.signature
    ideal = sig[1:] == g.layer_dims[1:]
    if not ideal and any(sig[1:]):
        return _mc_factor(d, V, n_starts, n_mc, seed)
    a = sum(1 for nj in sig if nj)
    n = next(m for m in range(GL_NODES, 0, -1) if (2 * m) ** (a - 1) <= MAX_QUAD_ROWS)
    beta = _origin_volume(d.profile, sig, n)
    bar = abs(beta - _origin_volume(d.profile, sig, 2 * n)) + beta * _rho_floor(d, V)
    return FactorReport(beta=beta, beta_error=bar, argmax_center=g.zero(), center_gap=0.0,
                        gap_error=0.0, n_starts=0, n_mc=0, seed=seed, boundary_argmax=False,
                        method="nested_quadrature" if ideal else "closed_form")


def _rho_floor(d: DistanceSpec, V: HomSubspace):
    """Relative error of an origin slice volume from the rho bisection tolerance."""
    prof = d.profile
    return sum(nj * RHO_ATOL / prof.rho_i(j, np.zeros(j - 1))
               for j, nj in enumerate(V.signature, start=1) if nj)


def _mc_factor(d: DistanceSpec, V: HomSubspace, n_starts, n_mc, seed):
    """Multi-start Nelder-Mead on a common-random-numbers Monte Carlo surface.

    Every evaluation uses one fixed seed, so each start runs on a frozen
    surface; centers leaving the unit ball are pulled back by dilation
    rescaling.  The distinct end points (origin included) are re-scored
    with 10x samples on a fresh stream; the largest score both picks the
    center and is the reported beta, so with several candidates beta reads
    high.
    """
    from scipy.optimize import minimize

    g = d.group

    def objective(z):
        zc = _project_to_unit_ball(d, z)
        return -slice_volume_mc(d, V, zc, n=n_mc, seed=seed).value

    rng = randomness.stream(seed, randomness.OP_FACTOR_STARTS)
    starts = [g.zero()]
    while len(starts) < n_starts:
        u = rng.uniform(-1.0, 1.0, g.q)
        nu = d.norm(u)
        if nu > 0:
            s = rng.uniform(0.0, 1.0) ** (1.0 / g.Q)
            starts.append(g.dilate(s / nu, u))

    candidates = [g.zero()]
    for z0 in starts:
        res = minimize(objective, z0, method="Nelder-Mead",
                       options=dict(maxiter=NM_MAXITER, xatol=1e-3, fatol=1e-9))
        zc = _project_to_unit_ball(d, res.x)
        if all(np.abs(zc - c).max() > 5e-3 for c in candidates):
            candidates.append(zc)
    finals = [slice_volume_mc(d, V, c, n=10 * n_mc, seed=seed + 1) for c in candidates]
    i_best = int(np.argmax([f.value for f in finals]))
    final = finals[i_best]
    best_z = candidates[i_best]
    origin = finals[0]
    gap = final.value - origin.value
    gap_err = float(np.hypot(final.std_error, origin.std_error))
    return FactorReport(beta=final.value, beta_error=final.std_error,
                        argmax_center=best_z, center_gap=gap, gap_error=gap_err,
                        n_starts=n_starts, n_mc=n_mc, seed=seed,
                        boundary_argmax=bool(d.norm(best_z) > 1.0 - 1e-6),
                        method="mc")


def random_subspace(g: GradedGroup, signature, seed: int = 0) -> HomSubspace:
    """Haar-random homogeneous subspace of the given layer signature.

    Independent random orthogonal maps (QR of Gaussian matrices, sign
    fixed) rotate each layer of the reference subspace.
    """
    ref = subspace_from_signature_reference(g, signature)
    rng = randomness.stream(seed, randomness.OP_RANDOM_SUBSPACE)
    bases = []
    for dj, B in zip(g.layer_dims, ref.layer_bases):
        A = rng.standard_normal((dj, dj))
        Qm, R = np.linalg.qr(A)
        Qm = Qm * np.sign(np.diag(R))[None, :]
        bases.append(Qm @ B)
    return HomSubspace(group=g, layer_bases=bases)


def rotational_sweep(d: DistanceSpec, signature, k: int, n_starts: int = 6,
                     n_mc: int = 100000, seed: int = 0) -> SweepReport:
    """Spherical factors of k random subspaces with a fixed layer signature.

    For a multiradial distance the factor is predicted to be constant on
    the signature family, so the max pairwise spread should vanish within
    error bars.
    """
    if k < 1:
        raise ValueError("k >= 1 subspaces required")
    signature = subspace_from_signature_reference(d.group, signature).signature
    betas, errs = [], []
    for i in range(k):
        V = random_subspace(d.group, signature, seed=seed * 1000 + i)
        rep = spherical_factor(d, V, n_starts=n_starts, n_mc=n_mc, seed=seed + i)
        betas.append(rep.beta)
        errs.append(rep.beta_error)
    i_max = int(np.argmax(betas))
    i_min = int(np.argmin(betas))
    spread = betas[i_max] - betas[i_min]
    return SweepReport(signature=signature, betas=tuple(betas), std_errors=tuple(errs),
                       spread=float(spread),
                       spread_error=float(3.0 * errs[i_max] + 3.0 * errs[i_min]),
                       mean=float(np.mean(betas)), seed=seed)


def convex_normal_check(d: DistanceSpec, W: HomSubspace, **opts) -> ConvexNormalReport:
    """Check beta(W) against the origin slice volume for convex-ball distances.

    Requires W to be a normal subgroup; for a convex unit ball the maximum
    over centers is attained at the origin.
    """
    if not d.convex_ball:
        raise ConfigurationError(f"{d.name} does not assert a convex unit ball")
    if not is_normal(W):
        raise ConfigurationError("W is not a normal subgroup, the symmetry "
                                 "statement does not apply")
    rep = spherical_factor(d, W, **opts)
    origin = rep.beta - rep.center_gap
    return ConvexNormalReport(beta=rep.beta, origin_volume=origin,
                              gap=rep.center_gap, gap_error=rep.gap_error)
