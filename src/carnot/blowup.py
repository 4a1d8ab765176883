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

from .algebra import CHUNK_COLUMNS, Check, ConfigurationError, GradedGroup
from .factor import GL_NODES, _gl_rule, _gl_sin_rule, spherical_factor
from .metrics import DistanceSpec, false_position
from .subgroups import HomSubspace, subspace_from_vectors

FD_STEP = 1e-6
MU_RTOL = 1e-9
MU_SPLIT = 4
MU_MAX_PANELS = 64
DEGREE3_DENSITY_FLOOR = 1e-10
LOCATOR_LINE = 512
LOCATOR_FINE = 64
LOCATOR_LEVELS = 2
LOCATOR_ZOOM = 8
LOCATOR_SCAN = 16
LOCATOR_STEPS = 32


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
        """Central finite-difference partials over the rounded steps (exact if linear)."""
        (um, up), (vm, vp) = ((x - FD_STEP, x + FD_STEP) for x in map(np.asarray, (U, V)))
        pu = (self.points(up, V) - self.points(um, V)) / (up - um)[..., None]
        pv = (self.points(U, vp) - self.points(U, vm)) / (vp - vm)[..., None]
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


@dataclass(frozen=True)
class BlowupReport:
    curve: DensityCurve
    beta: float
    beta_error: float
    gap: float
    tol: float

    @property
    def ok(self):
        return Check("gap", abs(self.gap), self.tol).ok

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


def _probe_lines(spans, through):
    """Probe line of each locator edge: LOCATOR_LINE points across its span.

    Rows are the edges (u0, u1, v0, v1); the u edges probe along v, the v
    edges along u.  Line e holds the coordinate through[e] exactly, the
    other coordinate of a point known inside the ball, so that a bracket
    end there reads inside.
    """
    lines = np.linspace(spans[:, 0], spans[:, 1], LOCATOR_LINE, axis=1)
    lines[np.arange(4), np.argmin(np.abs(lines - through[:, None]), axis=1)] = through
    return lines


def _patch_gauge(patch: SurfacePatch, d: DistanceSpec, center, r, U, V):
    """ball_gauge of the patch's images at (U, V), a NaN image read as +inf (outside)."""
    return np.nan_to_num(d.ball_gauge(center, r, patch.points(U, V)), nan=np.inf)


def _base_point(patch: SurfacePatch, u, v):
    """Image p of (u, v), the ball center; refused off the domain or if not finite."""
    (u0, u1), (v0, v1) = patch.domain
    if not (u0 <= u <= u1 and v0 <= v <= v1):
        raise ConfigurationError(f"point ({u}, {v}) lies outside the domain {patch.domain}")
    p = patch.points(np.asarray([u]), np.asarray([v]))[0]
    if not np.all(np.isfinite(p)):
        raise ConfigurationError(f"point ({u}, {v}) maps to a non-finite point {p.tolist()}")
    return p


def _edge_gauge(patch: SurfacePatch, d: DistanceSpec, center, r, lines, along_v):
    """x -> min phi - 1 on each probe line at coordinate x (NaN is outside).

    Row e of `lines` holds v values at u = x[e] where along_v[e], else u
    values at v = x[e].  The line's min is refined LOCATOR_LEVELS times,
    each on LOCATOR_FINE points across the two cells around the previous
    argmin, so that a preimage tip thinner than a line cell still reads
    inside.
    """
    along_v, lane = along_v[:, None], np.arange(len(lines))
    first, last = lines[:, :1], lines[:, -1:]
    unit = np.linspace(-1.0, 1.0, LOCATOR_FINE)

    def phi(x, pts):
        U, V = np.where(along_v, x[:, None], pts), np.where(along_v, pts, x[:, None])
        return _patch_gauge(patch, d, center, r, U.ravel(), V.ravel()).reshape(len(lane), -1)

    def gauge(x):
        pts, cell, best = lines, (last - first) / (lines.shape[1] - 1), np.inf
        for _ in range(LOCATOR_LEVELS + 1):
            val = phi(x, pts)
            j = np.argmin(val, axis=1)
            best = np.minimum(best, val[lane, j])
            pts = np.clip(pts[lane, j][:, None] + cell * unit, first, last)
            cell = cell * 2.0 / (LOCATOR_FINE - 1)
        return best - 1.0
    return gauge


def _param_bounding_box(patch: SurfacePatch, d: DistanceSpec, center, r, inside,
                        search=None, n: int = 512):
    """Tight parameter rectangle containing the preimage of B(center, r).

    `inside` maps into the ball, e.g. the base point that maps to `center`.
    Each edge of a search box moves in to the ball along the gauge min
    phi - 1 of its LOCATOR_LINE-point probe line (`_edge_gauge`), which
    passes through the edge's witness, a point known inside.
    LOCATOR_SCAN + 1 evenly spaced samples from the edge to the witness
    find the first that reads inside, and one batched false-position solve
    closes every bracket between it and the sample before, keeping the
    outside end.  Without `search` an n x n hit grid on the domain gives
    the witnesses, `inside` among them, and the probe lines span the hits
    widened by a cell; with it `inside` witnesses every edge and the lines
    span `search`.  A box that leaves its lines' span, or is under
    1/LOCATOR_ZOOM of it, or has an edge off the domain boundary that reads
    inside, is probed again from `inside`: on itself widened by its width on
    each side, an edge that read inside from the domain's edge.  Returns
    (box, touches_domain_boundary).  The grid can miss a part of the
    preimage much thinner than a cell away from `inside`, and the scan one
    away from the witness's part spanning under 1/LOCATOR_SCAN of a bracket.
    """
    dom, inside = np.array(patch.domain), np.asarray(inside, dtype=float)
    if search is None:
        outer = dom
        U, V, _ = _midpoint_grid(patch.domain, n)
        hit = d.ball_contains(center, r, patch.points(U, V))  # NaN is outside
        hits = np.vstack([np.stack([U[hit], V[hit]], axis=1), inside])
        cell = np.diff(dom, axis=1)[:, 0] / n
        span = np.stack([np.maximum(dom[:, 0], hits.min(axis=0) - cell),
                         np.minimum(dom[:, 1], hits.max(axis=0) + cell)], axis=1)
    else:
        outer = np.array(search, dtype=float)
        hits, span = inside[None, :], outer
    witness = hits[[np.argmin(hits[:, 0]), np.argmax(hits[:, 0]),
                    np.argmin(hits[:, 1]), np.argmax(hits[:, 1])]]
    along, across = np.array([1, 1, 0, 0]), np.array([0, 0, 1, 1])  # axis of line, of edge
    ends, through = witness[np.arange(4), across], witness[np.arange(4), along]
    dom_edges, lo_edges, hi_edges = dom.ravel(), dom[across, 0], dom[across, 1]
    tol = 1e-12 * np.repeat(np.maximum(1.0, np.abs(outer).sum(axis=1)), 2)
    rows, frac = np.repeat(np.arange(4), LOCATOR_SCAN + 1), np.linspace(0.0, 1.0, LOCATOR_SCAN + 1)
    probe = outer.ravel()
    for _ in range(LOCATOR_STEPS):
        lines = _probe_lines(span[along], through)
        xs = probe[:, None] + (ends - probe)[:, None] * frac
        xs[:, -1] = ends
        G = _edge_gauge(patch, d, center, r, lines[rows], along[rows] == 1)(xs.ravel())
        G = G.reshape(xs.shape)
        reads_in = ~(G > 0.0)
        reads_in[:, -1] = True  # the witness
        k = np.argmax(reads_in, axis=1)
        meets, lane = k == 0, np.arange(4)
        cut = meets & (probe != dom_edges)  # an edge off the domain boundary reads inside
        k_out = np.maximum(k - 1, 0)
        gauge = _edge_gauge(patch, d, center, r, lines, along == 1)
        lo, _ = false_position(gauge, xs[lane, k_out], xs[lane, k], tol, 50,
                               G[lane, k_out], G[lane, k])
        found = lo.reshape(2, 2)
        width = np.diff(found, axis=1)[:, 0]
        if np.all((found[:, 0] >= span[:, 0]) & (found[:, 1] <= span[:, 1])
                  & (LOCATOR_ZOOM * width >= np.diff(span, axis=1)[:, 0])) and not np.any(cut):
            break
        # probe again on the box widened by its width on each side; a cut edge from the domain edge
        ends, through = inside[across], inside[along]
        widened = (found + width[:, None] * [-1.0, 1.0]).ravel()
        probe = np.clip(np.where(cut, dom_edges, widened), lo_edges, hi_edges)
        span = probe.reshape(2, 2)
    return (tuple(lo[:2].tolist()), tuple(lo[2:].tolist())), bool(np.any(meets))


def _row_measures(patch: SurfacePatch, d: DistanceSpec, center, r, u, v_lim):
    """Degree-3 measure inside B(center, r) of each row u, v in v_lim.

    A 32-point scan brackets the inside v-intervals (rows with none are
    rescanned near their gauge min, up to 8 times), one false-position solve
    moves all brackets to the ball, and 16-node Gauss-Legendre sums the
    density on each interval.
    """

    def gauge(U, V):
        return _patch_gauge(patch, d, center, r, U, V) - 1.0

    n_scan = 32
    V = np.tile(np.linspace(*v_lim, n_scan), (len(u), 1))
    G = gauge(np.repeat(u, n_scan), V.ravel()).reshape(V.shape)
    for _ in range(8):
        thin = np.flatnonzero(~np.any(G <= 0.0, axis=1))
        if not len(thin):
            break
        k = np.argmin(G[thin], axis=1)
        a, b = V[thin, np.maximum(k - 1, 0)], V[thin, np.minimum(k + 1, n_scan - 1)]
        V[thin] = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, n_scan)
        G[thin] = gauge(np.repeat(u[thin], n_scan), V[thin].ravel()).reshape(-1, n_scan)
    # +1 at the first and -1 after the last inside scan point of an interval;
    # a scan end that is inside is a domain edge and stays put
    step = np.diff(np.pad(G <= 0.0, ((0, 0), (1, 1))).astype(np.int8), axis=1)
    (rs, js), (re, je) = np.nonzero(step == 1), np.nonzero(step == -1)
    rows, j_in = np.concatenate([rs, re]), np.concatenate([js, je - 1])
    j_out = np.clip(j_in + np.repeat([-1, 1], len(rs)), 0, n_scan - 1)
    lo, hi = false_position(lambda x: gauge(u[rows], x), V[rows, j_out], V[rows, j_in],
                            1e-12 * (v_lim[1] - v_lim[0]), 60, G[rows, j_out], G[rows, j_in])
    a, b = np.split(0.5 * (lo + hi), 2)
    x, w = _gl_rule(16)
    vq = 0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * x
    dens = degree3_density(patch, np.repeat(u[rs], len(x)), vq.ravel()).reshape(vq.shape)
    return np.bincount(rs, weights=0.5 * (b - a) * (dens @ w), minlength=len(u))


def _box_measure(patch: SurfacePatch, d: DistanceSpec, center, r, box) -> float:
    """Degree-3 measure inside B(center, r) of the patch over the parameter `box`.

    Sin-mapped Gauss-Legendre rows in u, on panels graded toward both ends
    of the box, sum the row measures of `_row_measures`.  A panel whose
    GL_NODES / 2 and GL_NODES node sums differ by more than MU_RTOL of the
    total is cut in MU_SPLIT, while there are at most MU_MAX_PANELS panels.
    """
    grade = np.array([0.0, 1e-8, 1e-6, 1e-4, 1e-2])
    cuts = np.interp(np.concatenate([grade, 1.0 - grade[::-1]]), [0.0, 1.0], box[0])
    panels, kept, n_panels = np.stack([cuts[:-1], cuts[1:]], axis=1), 0.0, len(cuts) - 1
    rules = [_gl_sin_rule(n) for n in (GL_NODES // 2, GL_NODES)]
    while True:
        mid, half = panels.mean(axis=1)[:, None], 0.5 * np.diff(panels, axis=1)
        u = [(mid + half * x).ravel() for x, _ in rules]
        f = np.split(_row_measures(patch, d, center, r, np.concatenate(u), box[1]),
                     [u[0].size])
        q_n, q_2n = (half[:, 0] * (fi.reshape(len(panels), -1) @ w) for fi, (_, w) in zip(f, rules))
        total = kept + float(np.sum(q_2n))
        split = np.abs(q_2n - q_n) > MU_RTOL * abs(total)
        n_panels += (MU_SPLIT - 1) * np.count_nonzero(split)
        if not np.any(split) or n_panels > MU_MAX_PANELS:
            return total
        kept += float(np.sum(q_2n[~split]))
        cut = np.linspace(*panels[split].T, MU_SPLIT + 1, axis=1)
        panels = np.stack([cut[:, :-1].ravel(), cut[:, 1:].ravel()], axis=1)


def mu_measure(patch: SurfacePatch, d: DistanceSpec, u, v, r,
               n_grid: int = 512) -> MuEstimate:
    """Degree-3 surface measure of the patch inside B(p, r), p the image of (u, v).

    An n_grid x n_grid hit grid on the domain, (u, v) counted as a hit,
    locates the preimage box (`_param_bounding_box`) that `_box_measure`
    integrates; `truncated` is set when the ball reaches the patch boundary.
    A base point off the domain or with a non-finite image raises
    ConfigurationError.
    """
    center = _base_point(patch, u, v)
    if not 0.0 < r < np.inf:
        raise ValueError(f"radius must be positive and finite, got {r}")
    box, truncated = _param_bounding_box(patch, d, center, r, (u, v), n=n_grid)
    return MuEstimate(value=_box_measure(patch, d, center, r, box), truncated=truncated)


def surface_measure_total(patch: SurfacePatch, n_grid: int = 512) -> float:
    """Degree-3 measure of the whole patch (no ball restriction)."""
    U, V, cell = _midpoint_grid(patch.domain, n_grid)
    return float(np.sum(degree3_density(patch, U, V)) * cell)


def density_curve(patch: SurfacePatch, d: DistanceSpec, u, v, radii,
                  n_grid: int = 512) -> DensityCurve:
    """Ratios mu(B(p, r)) / r^3 and their linear-in-r extrapolation to 0.

    Requires a degree-3 base point and distinct radii; the limit is the
    intercept of a linear fit over the three smallest radii.  Each ball is
    centred at the image p of (u, v), and the radii are walked downward:
    the largest locates its preimage box as `mu_measure` does, and each
    smaller one brackets its edges from (u, v) across the previous box with
    no hit grid, however far apart the radii are.  There a part of the
    preimage away from the base point's part is kept when it spans more
    than 1/LOCATOR_SCAN of an edge's bracket.
    """
    p = _base_point(patch, u, v)
    radii = sorted((float(r) for r in radii), reverse=True)
    if not radii or not all(0.0 < r < np.inf for r in radii) or len(set(radii)) < len(radii):
        raise ValueError(f"radii must be positive, finite and distinct, got {radii}")
    if homogeneous_tangent(patch, u, v).degree != 3:
        raise ValueError(
            "base point is characteristic (degree 2); the blow-up identity "
            "only applies at points of maximal degree")
    ratios, truncated, box = [], False, None
    for r in radii:
        box, meets = _param_bounding_box(patch, d, p, r, (u, v), search=box, n=n_grid)
        truncated = truncated or meets
        ratios.append(_box_measure(patch, d, p, r, box) / r ** 3)
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
    curve = density_curve(patch, d, u, v, radii, n_grid=n_grid)
    tangent = homogeneous_tangent(patch, u, v).tangent
    rep = spherical_factor(d, tangent, **(factor_opts or {}))
    tol = rel_tol * abs(rep.beta) + 3.0 * rep.beta_error
    gap = curve.limit - rep.beta
    return BlowupReport(curve=curve, beta=rep.beta, beta_error=rep.beta_error,
                        gap=float(gap), tol=float(tol))


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

    Phi(w) = w * (s, 0, 0) = (s, u, v - u s / 2); false position on
    sign(f(-s_window)) f, in blocks of CHUNK_COLUMNS rows, needs a sign
    change of f in |s| <= s_window, otherwise the offending cell is named.
    """

    def pts(s, U=U, V=V):
        return np.stack([s, U, V - 0.5 * U * s], axis=-1)

    f_lo, f_hi = (f.value(pts(np.full(U.shape, s))) for s in (-s_window, s_window))
    sign = np.sign(f_lo)
    bad = sign == np.sign(f_hi)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"level set leaves the coset window |s|<={s_window} at "
            f"(u, v) = ({U.ravel()[i]:.6g}, {V.ravel()[i]:.6g})")
    s = np.empty(U.shape)
    for b in range(0, len(U), CHUNK_COLUMNS):
        k = slice(b, b + CHUNK_COLUMNS)
        lo, hi = false_position(lambda s: sign[k] * f.value(pts(s, U[k], V[k])), -s_window,
                                s_window, 1e-13 * s_window, 80, sign[k] * f_lo[k],
                                sign[k] * f_hi[k])
        s[k] = 0.5 * (lo + hi)
    return s, pts(s)


def levelset_patch(f: LevelSetSpec, region) -> SurfacePatch:
    """SurfacePatch over W-coordinates (u, v) solving the level set on demand."""
    (u0, u1), (v0, v1) = region
    return SurfacePatch(group=f.group, fn=lambda U, V: _graph_points(f, U, V)[1],
                        domain=((u0, u1), (v0, v1)))


def graph_area_levelset(f: LevelSetSpec, region, d: DistanceSpec,
                        n_grid: int = 256) -> float:
    """Intrinsic surface measure sigma of a level-set graph over a W-region.

    Evaluates sigma = |V ^ W| * integral over the region of J_H f / J_V f at
    the graph points, where V = span{e1}, W = span{e2, e3}, J_V f = X f and
    J_H f = sqrt((X f)^2 + (Y f)^2).  Requires X f > 0 on the region.  This
    is not the spherical measure, which is sigma divided by the spherical
    factor of the tangent planes; `d` is not read.
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
