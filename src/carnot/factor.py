"""Slice-volume oracles and spherical-factor maximization.

The spherical factor of a distance with respect to a homogeneous subspace V
is the maximum over ball centers z of the Euclidean volume of V
intersected with the unit metric ball at z.  Two independent volume
oracles are provided: hit-or-miss Monte Carlo, which only queries ball
membership, and a nested Gauss-Legendre quadrature of the layerwise Fubini
reduction, which uses the profile's rho functions.  When V contains every
layer above the first, the maximization runs on the quadrature oracle
over the small horizontal complement of V; otherwise it is multi-start
Nelder-Mead on a common-random-numbers surface, so the objective is a
deterministic function of the center for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass
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
MAX_QUAD_LAYER_DIM = 3
MAX_QUAD_BATCH = 1 << 16
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
    beta_error: float  # MC: one standard error; quadrature: an error bound
    argmax_center: np.ndarray
    center_gap: float
    gap_error: float  # hypot of the errors of beta and of the origin volume
    n_starts: int
    n_mc: int
    seed: int
    boundary_argmax: bool
    method: str  # "nested_quadrature" | "mc"


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
    return VolumeEstimate(value=box_vol * p,
                          std_error=box_vol * float(np.sqrt(p * (1.0 - p) / n)),
                          n_samples=n, method="mc")


# -- nested quadrature oracle ---------------------------------------------

def _gl_sin_rule(n_nodes):
    """Gauss-Legendre nodes mapped by x = sin(theta) on (-1, 1).

    Absorbs square-root vanishing of ball slices at the domain edge.
    """
    u, w = np.polynomial.legendre.leggauss(n_nodes)
    theta = u * (pi / 2.0)
    return np.sin(theta), np.cos(theta) * w * (pi / 2.0)


def slice_volume_nested(d: DistanceSpec, V: HomSubspace, z=None,
                        n_nodes: int = GL_NODES) -> VolumeEstimate:
    """Nested-quadrature volume of V inside B(z, 1) for a multiradial distance.

    Layers are integrated outermost-first over Euclidean balls whose radii
    come from the profile's rho functions and whose centers are the
    BCH-shifted images of z; the innermost layer uses the closed form
    omega_m * (rho^2 - dist^2)^(m/2) for an affine slice of a ball.
    """
    g = d.group
    prof = d.profile
    z = g.zero() if z is None else np.asarray(z, dtype=float)
    for nj in V.signature:
        if nj > MAX_QUAD_LAYER_DIM:
            raise ConfigurationError(
                f"layer dimension {nj} > {MAX_QUAD_LAYER_DIM}: nested quadrature "
                "cost is prohibitive, use slice_volume_mc")
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
        targs = np.atleast_2d(g.layer_norms(u))[:, :j - 1]
        # rho_j, or 0 where the leading layers already leave the ball
        head = np.zeros((targs.shape[0], iota))
        head[:, :j - 1] = targs
        inside = prof(head) < 1.0
        rho = np.zeros(targs.shape[0])
        if np.any(inside):
            rho[inside] = np.atleast_1d(prof.rho_i(j, targs[inside]))
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

    vals = unit_ball_volume(nj) * r_eff ** nj if nj else (r_sq >= 0.0).astype(float)
    return VolumeEstimate(value=float(np.dot(wts, vals)), std_error=0.0,
                          n_samples=0, method="nested_quadrature")


# -- spherical factor ------------------------------------------------------

def _project_to_unit_ball(d: DistanceSpec, z):
    nz = d.norm(z)
    if nz > 1.0:
        return d.group.dilate(1.0 / nz, z)
    return np.asarray(z, dtype=float)


def spherical_factor(d: DistanceSpec, V: HomSubspace, n_starts: int = 16,
                     n_mc: int = 100000, seed: int = 0) -> FactorReport:
    """Maximize the slice volume over ball centers in the unit metric ball.

    When V contains every layer above the first, V is an ideal and every
    center factors as z = w * v with v in V and w the part of z_1 orthogonal
    to V, so the slice volume at z equals the one at w.  If that horizontal
    complement W has dimension 1 or 2 and the nested batch is small, the
    search runs deterministically on nested quadrature over the ball
    |w| <= rho_1 of W (`method == "nested_quadrature"`; n_starts, n_mc and
    seed are then unused).  Every other V takes the Monte Carlo search.
    """
    g = d.group
    if not 1 <= V.n <= g.q - 1:
        raise ConfigurationError("spherical factor needs 1 <= dim V <= q - 1")
    W = _quadrature_complement(V)
    if W is not None:
        return _quadrature_factor(d, V, W, seed)
    return _mc_factor(d, V, n_starts, n_mc, seed)


def _quadrature_complement(V: HomSubspace):
    """Orthonormal basis of W = V^perp in H_1 if the quadrature search applies.

    It applies when V's signature is (n_1, d_2, ..., d_iota), 1 <= dim W <= 2,
    every n_j is at most MAX_QUAD_LAYER_DIM and the nested batch of
    slice_volume_nested stays within MAX_QUAD_BATCH rows; otherwise None.
    """
    g = V.group
    sig = V.signature
    m = g.layer_dims[0] - sig[0]
    if (sig[1:] != g.layer_dims[1:] or not 1 <= m <= 2
            or max(sig) > MAX_QUAD_LAYER_DIM
            or GL_NODES ** sum(sig[:-1]) > MAX_QUAD_BATCH):
        return None
    B1 = V.layer_bases[0]
    u, _, _ = np.linalg.svd(np.eye(g.layer_dims[0]) - B1 @ B1.T)
    return u[:, :m]


def _quadrature_factor(d: DistanceSpec, V: HomSubspace, W, seed):
    """Grid plus Nelder-Mead on nested quadrature over the ball |w| <= rho_1 in W.

    The error bar adds the n against 2n node gap at the argmax, the
    bisection tolerance of the rho radii relative to rho_j(0), and the
    spread of the final simplex when the Nelder-Mead point wins.
    """
    from scipy.optimize import minimize

    g = d.group
    prof = d.profile
    m = W.shape[1]
    rho1 = prof.rho_i(1, [])
    rho_floor = sum(nj * RHO_ATOL / prof.rho_i(j, np.zeros(j - 1))
                    for j, nj in enumerate(V.signature, start=1) if nj)

    def center(c):
        z = g.zero()
        z[:g.layer_dims[0]] = W @ c
        return z

    def clip(c):
        r = np.linalg.norm(c)
        return c * (rho1 / r) if r > rho1 else c

    def volume(c, n_nodes=GL_NODES):
        return slice_volume_nested(d, V, center(c), n_nodes=n_nodes).value

    def bar(c, value):
        return abs(value - volume(c, 2 * GL_NODES)) + value * rho_floor

    k = 10 if m == 1 else 5
    axis = rho1 * np.arange(-k, k + 1) / k
    grid = np.stack(np.meshgrid(*[axis] * m, indexing="ij"), axis=-1).reshape(-1, m)
    grid = grid[np.linalg.norm(grid, axis=1) <= rho1]
    values = [volume(c) for c in grid]
    c_grid = grid[int(np.argmax(values))]
    res = minimize(lambda c: -volume(clip(c)), c_grid, method="Nelder-Mead",
                   options=dict(maxiter=NM_MAXITER, xatol=1e-6 * rho1, fatol=1e-12,
                                initial_simplex=np.vstack(
                                    [c_grid, c_grid + (rho1 / k) * np.eye(m)])))

    origin = np.zeros(m)
    q0 = volume(origin)
    centers = [origin, c_grid, clip(res.x)]
    scores = [q0, max(values), float(-res.fun)]
    i_best = int(np.argmax(scores))
    beta, best = scores[i_best], centers[i_best]
    origin_error = bar(origin, q0)
    beta_error = origin_error if i_best == 0 else bar(best, beta)
    if i_best == 2:
        beta_error += float(np.ptp(res.final_simplex[1]))
    best_z = center(best)
    return FactorReport(beta=beta, beta_error=beta_error, argmax_center=best_z,
                        center_gap=beta - q0,
                        gap_error=float(np.hypot(beta_error, origin_error)),
                        n_starts=0, n_mc=0, seed=seed,
                        boundary_argmax=bool(d.norm(best_z) > 1.0 - 1e-6),
                        method="nested_quadrature")


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
