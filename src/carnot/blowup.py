"""Degree-weighted surface measures and density blow-ups in heisenberg1.

Everything here is specific to 2-dimensional surfaces in the first
Heisenberg group with the preset normalization [e1, e2] = e3.  The
left-invariant frame is X = dx - (y/2) dt, Y = dy + (x/2) dt, T = dt; a
coordinate tangent vector (a, b, c) at (x, y, t) has frame components
(a, b, c + (y/2) a - (x/2) b).  The degree-3 area density of a tangent
2-plane is the X^T / Y^T part of its wedge, which vanishes exactly at
characteristic points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .algebra import ConfigurationError, GradedGroup
from .metrics import DistanceSpec, bisect
from .subgroups import HomSubspace, subspace_from_vectors

FD_STEP = 1e-6
DEGREE3_DENSITY_FLOOR = 1e-10


def _require_heisenberg(g: GradedGroup):
    if g.step != 2 or g.layer_dims != (2, 1):
        raise ConfigurationError("surface routines are scoped to heisenberg1")
    e3 = g.bracket(g.basis_vector(1), g.basis_vector(2))
    if abs(e3[2] - 1.0) > 1e-12:
        raise ConfigurationError("surface routines assume the normalization [e1,e2]=e3")


@dataclass
class SurfacePatch:
    """Parametrized surface (u, v) -> heisenberg1."""

    group: GradedGroup
    fn: Callable  # (U, V) arrays -> (..., 3)
    domain: tuple  # ((u0, u1), (v0, v1))

    def __post_init__(self):
        _require_heisenberg(self.group)
        (u0, u1), (v0, v1) = self.domain
        if not (u1 > u0 and v1 > v0):
            raise ConfigurationError("degenerate parameter rectangle")
        self.domain = ((float(u0), float(u1)), (float(v0), float(v1)))
        uu = np.linspace(u0, u1, 9)
        vv = np.linspace(v0, v1, 9)
        U, V = np.meshgrid(uu, vv, indexing="ij")
        pu, pv = self.tangents(U.ravel(), V.ravel())
        wedge = np.cross(pu, pv)
        if np.min(np.linalg.norm(wedge, axis=-1)) < 1e-8:
            raise ConfigurationError("patch partials are linearly dependent on the grid")

    def points(self, U, V):
        return np.asarray(self.fn(np.asarray(U, dtype=float), np.asarray(V, dtype=float)))

    def tangents(self, U, V):
        """Central finite-difference partials (dPhi/du, dPhi/dv)."""
        h = FD_STEP
        pu = (self.points(U + h, V) - self.points(U - h, V)) / (2 * h)
        pv = (self.points(U, V + h) - self.points(U, V - h)) / (2 * h)
        return pu, pv


@dataclass(frozen=True)
class TangentReport:
    point: np.ndarray
    degree: int
    tangent: Optional[HomSubspace]  # signature (1, 1) when degree 3


@dataclass(frozen=True)
class DensityCurve:
    point: np.ndarray
    radii: tuple
    ratios: tuple
    limit: float
    uncertainty: float
    truncated: bool


@dataclass(frozen=True)
class MuEstimate:
    value: float
    truncated: bool
    box: Optional[tuple]  # the parameter rectangle integrated, None on a miss


@dataclass(frozen=True)
class BlowupReport:
    curve: DensityCurve
    beta: float
    beta_error: float
    gap: float
    tol: float
    ok: bool

    @property
    def limit(self):
        return self.curve.limit


def frame_components(points, vecs):
    """Left-invariant frame components of coordinate tangent vectors."""
    p = np.asarray(points, dtype=float)
    w = np.asarray(vecs, dtype=float)
    a, b, c = w[..., 0], w[..., 1], w[..., 2]
    tau = c + 0.5 * p[..., 1] * a - 0.5 * p[..., 0] * b
    return np.stack([a, b, tau], axis=-1)


def _wedge_frame(patch: SurfacePatch, U, V):
    """Points, tangent wedge (w_XY, w_XT, w_YT) and frame partials (f1, f2)."""
    pts = patch.points(U, V)
    pu, pv = patch.tangents(U, V)
    f1 = frame_components(pts, pu)
    f2 = frame_components(pts, pv)
    w_xy = f1[..., 0] * f2[..., 1] - f1[..., 1] * f2[..., 0]
    w_xt = f1[..., 0] * f2[..., 2] - f1[..., 2] * f2[..., 0]
    w_yt = f1[..., 1] * f2[..., 2] - f1[..., 2] * f2[..., 1]
    return pts, np.stack([w_xy, w_xt, w_yt], axis=-1), (f1, f2)


def tangent_bivector_components(patch: SurfacePatch, u, v):
    """Unit 2-vector components (c_XY, c_XT, c_YT) of the tangent at (u, v)."""
    _, w, _ = _wedge_frame(patch, np.asarray([u]), np.asarray([v]))
    w = w[0]
    norm = np.linalg.norm(w)
    if norm < 1e-12:
        raise ValueError(f"degenerate partials at ({u}, {v})")
    return tuple(w / norm)


def degree3_density(patch: SurfacePatch, U, V):
    """|tau_{Sigma,3}| times the Riemannian area element, batched."""
    _, w, _ = _wedge_frame(patch, U, V)
    return np.hypot(w[..., 1], w[..., 2])


def homogeneous_tangent(patch: SurfacePatch, u, v) -> TangentReport:
    """Homogeneous tangent subspace span{h, e3} at a degree-3 point.

    The horizontal direction h is the intersection of the tangent plane
    with the horizontal frame plane; at characteristic points (degree 2)
    no subspace is returned.
    """
    pts, w, (f1, f2) = _wedge_frame(patch, np.asarray([u]), np.asarray([v]))
    p, f1, f2 = pts[0], f1[0], f2[0]
    density = np.hypot(w[0, 1], w[0, 2]) / np.linalg.norm(w[0])
    if density <= DEGREE3_DENSITY_FLOOR:
        return TangentReport(point=p, degree=2, tangent=None)
    # a*f1 + b*f2 horizontal: (a, b) proportional to (f2_tau, -f1_tau)
    h = f2[2] * f1 - f1[2] * f2
    h[2] = 0.0
    h /= np.linalg.norm(h)
    A = subspace_from_vectors(patch.group, [h, [0.0, 0.0, 1.0]])
    return TangentReport(point=p, degree=3, tangent=A)


# -- quadrature of the surface measure --------------------------------------

def _midpoint_grid(box, n):
    """Flattened n x n midpoint-rule nodes (U, V) on `box`, and the cell area."""
    (u0, u1), (v0, v1) = box
    uu = u0 + (u1 - u0) * (np.arange(n) + 0.5) / n
    vv = v0 + (v1 - v0) * (np.arange(n) + 0.5) / n
    U, V = np.meshgrid(uu, vv, indexing="ij")
    return U.ravel(), V.ravel(), (u1 - u0) * (v1 - v0) / (n * n)


def _cross_hits(patch, d, center, r, axis, value, span, n=2048):
    """Whether the ball meets the patch on the line {axis coordinate = value}."""
    tt = np.linspace(span[0], span[1], n)
    cc = np.full(n, value)
    pts = patch.points(cc, tt) if axis == 0 else patch.points(tt, cc)
    return bool(np.any(d.ball_contains(center, r, pts)))


def _hit_cell_bounds(patch, d, center, r, box, n=512):
    """Bounding box of ball-membership grid hits inside `box`, or None."""
    U, V, _ = _midpoint_grid(box, n)
    inside = d.ball_contains(center, r, patch.points(U, V)).reshape(n, n)
    if not np.any(inside):
        return None
    iu = np.nonzero(np.any(inside, axis=1))[0]
    iv = np.nonzero(np.any(inside, axis=0))[0]
    uu, vv = U[::n], V[:n]  # the grid's u and v axes
    return (uu[iu[0]], uu[iu[-1]]), (vv[iv[0]], vv[iv[-1]])


def _param_bounding_box(patch: SurfacePatch, d: DistanceSpec, center, r,
                        guess=None):
    """Tight parameter rectangle containing the preimage of B(center, r).

    Starts from `guess` (any rectangle known to contain the preimage, e.g.
    the tight box of a larger concentric ball), grows it while ball points
    cross its edges, then tightens each free side by bisection.  Returns
    (box, touches_domain_boundary), or (None, False) when the ball misses
    the patch.  Without a guess the whole domain is probed on a uniform
    grid, which can overlook regions much thinner than the grid spacing.
    """
    dom = patch.domain
    (du0, du1), (dv0, dv1) = dom
    box = [list(map(float, side)) for side in (guess if guess is not None else dom)]
    box[0] = [max(box[0][0], du0), min(box[0][1], du1)]
    box[1] = [max(box[1][0], dv0), min(box[1][1], dv1)]

    hits = _hit_cell_bounds(patch, d, center, r, box)
    if hits is None and guess is not None:
        box = [[du0, du1], [dv0, dv1]]
        hits = _hit_cell_bounds(patch, d, center, r, box)
    if hits is None:
        return None, False

    # grow any side whose edge still meets the ball (domain edges stay put)
    moved = False
    for _ in range(80):
        grew = False
        for axis, (dlo, dhi) in enumerate(((du0, du1), (dv0, dv1))):
            span = tuple(box[1 - axis])
            width = box[axis][1] - box[axis][0]
            if box[axis][0] > dlo and _cross_hits(patch, d, center, r, axis,
                                                  box[axis][0], span):
                box[axis][0] = max(dlo, box[axis][0] - 0.5 * width)
                grew = True
            if box[axis][1] < dhi and _cross_hits(patch, d, center, r, axis,
                                                  box[axis][1], span):
                box[axis][1] = min(dhi, box[axis][1] + 0.5 * width)
                grew = True
        if not grew:
            break
        moved = True
    if moved:
        hits = _hit_cell_bounds(patch, d, center, r, box)
        if hits is None:
            return None, False

    blind = guess is None
    touches = False
    out = []
    for axis, (dlo, dhi) in enumerate(((du0, du1), (dv0, dv1))):
        span = tuple(box[1 - axis])
        scale = max(1.0, abs(box[axis][0]) + abs(box[axis][1]))
        cross = lambda x: _cross_hits(patch, d, center, r, axis, x, span)
        side = []
        # each free edge moves to the boundary of the hit region
        for edge, hit in zip(box[axis], hits[axis]):
            if cross(edge):
                touches = True
            else:
                edge = float(bisect(lambda x: not cross(x), edge, hit,
                                    lambda lo, hi: abs(hi - lo) < 1e-12 * scale, 50)[0])
            side.append(edge)
        out.append(tuple(side))
    box = (tuple(out[0]), tuple(out[1]))
    if blind:
        # re-tighten with probe spacing matched to the located region, so
        # the result is independent of how large the blind starting domain
        # was (boundary detection error scales with the probe spacing)
        return _param_bounding_box(patch, d, center, r, guess=box)
    return box, touches


def mu_measure(patch: SurfacePatch, d: DistanceSpec, center, r,
               n_grid: int = 512, box_guess=None) -> MuEstimate:
    """Degree-3 surface measure of the patch inside B(center, r).

    Midpoint rule on a tight parameter bounding box of the ball preimage;
    `truncated` is set when the ball reaches the patch boundary.  For small
    balls far below the patch scale, pass `box_guess` (a parameter
    rectangle known to contain the preimage) so the locator probes at a
    resolution matched to the region.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=float)
    box, truncated = _param_bounding_box(patch, d, center, r, guess=box_guess)
    if box is None:
        return MuEstimate(value=0.0, truncated=False, box=None)
    U, V, cell = _midpoint_grid(box, n_grid)
    dens = degree3_density(patch, U, V)
    inside = d.ball_contains(center, r, patch.points(U, V))
    return MuEstimate(value=float(np.sum(dens * inside) * cell),
                      truncated=truncated, box=box)


def surface_measure_total(patch: SurfacePatch, n_grid: int = 512) -> float:
    """Degree-3 measure of the whole patch (no ball restriction)."""
    U, V, cell = _midpoint_grid(patch.domain, n_grid)
    return float(np.sum(degree3_density(patch, U, V)) * cell)


def density_curve(patch: SurfacePatch, d: DistanceSpec, u, v, radii,
                  n_grid: int = 512) -> DensityCurve:
    """Ratios mu(B(p, r)) / r^3 and their linear-in-r extrapolation to 0.

    Requires a degree-3 base point; the limit is the intercept of a linear
    fit over the three smallest radii.
    """
    radii = sorted((float(r) for r in radii), reverse=True)
    if len(radii) < 1 or radii[-1] <= 0:
        raise ValueError("radii must be positive")
    rep = homogeneous_tangent(patch, u, v)
    if rep.degree != 3:
        raise ValueError(
            "base point is characteristic (degree 2); the blow-up identity "
            "only applies at points of maximal degree")
    p = rep.point
    ratios = []
    truncated = False
    # walk radii downward, reusing each tight box as the next locator guess
    # so the probe resolution follows the shrinking (anisotropic) preimage
    box = None
    for r in radii:
        mu = mu_measure(patch, d, p, r, n_grid=n_grid, box_guess=box)
        if mu.box is not None:
            box = mu.box
        truncated = truncated or mu.truncated
        ratios.append(mu.value / r ** 3)
    rs = np.array(radii[-3:])
    ys = np.array(ratios[-3:])
    if len(rs) >= 2:
        slope, intercept = np.polyfit(rs, ys, 1)
        resid = float(np.max(np.abs(slope * rs + intercept - ys)))
        limit = float(intercept)
    else:
        limit, resid = float(ys[0]), 0.0
    return DensityCurve(point=p, radii=tuple(radii), ratios=tuple(ratios),
                        limit=limit, uncertainty=2.0 * resid, truncated=truncated)


def blowup_check(patch: SurfacePatch, d: DistanceSpec, u, v,
                 radii=(0.4, 0.2, 0.1), n_grid: int = 512, rel_tol: float = 0.02,
                 factor_opts=None) -> BlowupReport:
    """Compare the extrapolated density at (u, v) with beta_d of the tangent.

    `factor_opts` are passed on to `spherical_factor`.
    """
    from .factor import spherical_factor

    curve = density_curve(patch, d, u, v, radii, n_grid=n_grid)
    tangent = homogeneous_tangent(patch, u, v).tangent
    rep = spherical_factor(d, tangent, **(factor_opts or {}))
    tol = rel_tol * abs(rep.beta) + 3.0 * rep.beta_error
    gap = curve.limit - rep.beta
    return BlowupReport(curve=curve, beta=rep.beta, beta_error=rep.beta_error,
                        gap=float(gap), tol=float(tol), ok=bool(abs(gap) <= tol))


# -- level sets --------------------------------------------------------------

@dataclass
class LevelSetSpec:
    """f: heisenberg1 -> R, differentiated by central finite differences."""

    group: GradedGroup
    fn: Callable  # (n, 3) -> (n,)

    def __post_init__(self):
        _require_heisenberg(self.group)

    def value(self, pts):
        return np.asarray(self.fn(np.atleast_2d(np.asarray(pts, dtype=float))), dtype=float)

    def gradient(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        h = FD_STEP
        cols = []
        for a in range(3):
            e = np.zeros(3)
            e[a] = h
            cols.append((self.value(pts + e) - self.value(pts - e)) / (2 * h))
        return np.stack(cols, axis=-1)


def _graph_points(f: LevelSetSpec, U, V, s_window=8.0):
    """Solve f(Phi(w)) = 0 along the V-cosets of w = (0, u, v), batched.

    Phi(w) = w * (s, 0, 0) = (s, u, v - u s / 2); bisection needs a sign
    change of f in |s| <= s_window, otherwise the offending cell is named.
    """

    def pts(s):
        return np.stack([s, U, V - 0.5 * U * s], axis=-1)

    lo = np.full(U.shape, -s_window)
    hi = np.full(U.shape, s_window)
    sign_lo = np.sign(f.value(pts(lo)))
    bad = sign_lo == np.sign(f.value(pts(hi)))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"level set leaves the coset window |s|<={s_window} at "
            f"(u, v) = ({U.ravel()[i]:.6g}, {V.ravel()[i]:.6g})")
    _, _, s = bisect(lambda s: np.sign(f.value(pts(s))) == sign_lo, lo, hi,
                     lambda lo, hi: np.max(hi - lo) < 1e-13 * s_window, 80)
    return s, pts(s)


def levelset_patch(f: LevelSetSpec, region) -> SurfacePatch:
    """SurfacePatch over W-coordinates (u, v) solving the level set on demand."""
    (u0, u1), (v0, v1) = region

    def fn(U, V):
        U = np.asarray(U, dtype=float)
        _, p = _graph_points(f, U, np.asarray(V, dtype=float))
        return p

    return SurfacePatch(group=f.group, fn=fn, domain=((u0, u1), (v0, v1)))


def graph_area_levelset(f: LevelSetSpec, region, d: DistanceSpec,
                        n_grid: int = 256) -> float:
    """Spherical-measure area of a level-set graph over a W-region.

    Evaluates |V ^ W| * integral over the region of J_H f / J_V f at the
    graph points, where V = span{e1}, W = span{e2, e3}, J_V f = X f and
    J_H f = sqrt((X f)^2 + (Y f)^2).  Requires X f > 0 on the region.
    """
    U, V, cell = _midpoint_grid(region, n_grid)
    _, pts = _graph_points(f, U, V)
    grad = f.gradient(pts)
    xf = grad[:, 0] - 0.5 * pts[:, 1] * grad[:, 2]
    yf = grad[:, 1] + 0.5 * pts[:, 0] * grad[:, 2]
    if np.min(xf) <= 0.0:
        i = int(np.argmin(xf))
        raise ValueError(f"J_V f <= 0 at graph point {pts[i].tolist()}; the "
                         "area-formula hypothesis fails on this region")
    integrand = np.hypot(xf, yf) / xf
    # |V ^ W| = 1 for the orthonormal frame (e1; e2, e3)
    return float(np.sum(integrand) * cell)
