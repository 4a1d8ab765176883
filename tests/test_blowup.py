import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from carnot import blowup
from carnot.algebra import CHUNK_COLUMNS, ConfigurationError, preset_group
from carnot.blowup import (LevelSetSpec, SurfacePatch, _graph_points,
                           _param_bounding_box, blowup_check, density_curve,
                           frame_components, graph_area_levelset, homogeneous_tangent,
                           levelset_patch, mu_measure, surface_measure_total,
                           tangent_bivector_components)
from carnot.config import ExperimentConfig
from carnot.metrics import DistanceSpec, dinf, hebisch_sikora, koranyi


@pytest.fixture(scope="module")
def g():
    return preset_group("heisenberg1")


def vertical_plane(g):
    return SurfacePatch(
        group=g,
        fn=lambda U, V: np.stack([np.zeros_like(U), U, V], axis=-1),
        domain=((-1.0, 1.0), (-1.0, 1.0)))


def horizontal_plane(g):
    return SurfacePatch(
        group=g,
        fn=lambda U, V: np.stack([U, V, np.zeros_like(U)], axis=-1),
        domain=((-2.0, 2.0), (-2.0, 2.0)))


def paraboloid(g):
    return SurfacePatch(
        group=g,
        fn=lambda U, V: np.stack([(U ** 2 + V ** 2) / 4.0, U, V], axis=-1),
        domain=((-1.0, 1.0), (-1.0, 1.0)))


class TestFrameAndBivector:
    def test_frame_conversion(self, g):
        # at (x, y, t) the coordinate vector (a, b, c) has T-component
        # c + (y/2) a - (x/2) b
        out = frame_components(np.array([1.0, 2.0, 0.0]),
                               np.array([3.0, 4.0, 5.0]))
        np.testing.assert_allclose(out, [3.0, 4.0, 5.0 + 3.0 - 2.0])

    def test_vertical_plane_components(self, g):
        comps = tangent_bivector_components(vertical_plane(g), 0.3, -0.8)
        np.testing.assert_allclose(comps, [0.0, 0.0, 1.0], atol=1e-9)

    def test_horizontal_plane_origin_characteristic(self, g):
        comps = tangent_bivector_components(horizontal_plane(g), 0.0, 0.0)
        np.testing.assert_allclose(comps, [1.0, 0.0, 0.0], atol=1e-9)

    def test_horizontal_plane_off_origin(self, g):
        # at (x, y) = (1, 0): tangents X and Y - T/2, density (1/2)/sqrt(5/4)
        comps = np.asarray(tangent_bivector_components(horizontal_plane(g), 1.0, 0.0))
        density = np.hypot(comps[1], comps[2])
        assert density == pytest.approx(0.5 / np.sqrt(1.25), rel=1e-8)

    def test_degenerate_patch_rejected(self, g):
        with pytest.raises(ConfigurationError, match="dependent"):
            SurfacePatch(group=g,
                         fn=lambda U, V: np.stack([U, U, np.zeros_like(U)], axis=-1),
                         domain=((-1.0, 1.0), (-1.0, 1.0)))

    def test_step3_group_rejected(self):
        e = preset_group("engel")
        with pytest.raises(ConfigurationError, match="heisenberg1"):
            SurfacePatch(group=e,
                         fn=lambda U, V: np.stack([U, V, U, V], axis=-1),
                         domain=((-1.0, 1.0), (-1.0, 1.0)))


class TestHomogeneousTangent:
    def test_vertical_plane(self, g):
        rep = homogeneous_tangent(vertical_plane(g), 0.2, 0.4)
        assert rep.degree == 3
        assert rep.tangent.signature == (1, 1)
        assert rep.tangent.contains([0.0, 1.0, 0.0])
        assert rep.tangent.contains([0.0, 0.0, 1.0])

    def test_characteristic_origin(self, g):
        rep = homogeneous_tangent(horizontal_plane(g), 0.0, 0.0)
        assert rep.degree == 2
        assert rep.tangent is None

    def test_horizontal_plane_off_origin(self, g):
        # the horizontal direction of T_(1,0){t=0} solves the frame equations
        rep = homogeneous_tangent(horizontal_plane(g), 1.0, 0.0)
        assert rep.degree == 3
        h = rep.tangent.layer_bases[0][:, 0]
        # tangent plane spanned by X, Y - T/2: horizontal combination is X
        np.testing.assert_allclose(np.abs(h), [1.0, 0.0], atol=1e-8)

    def test_degree_dichotomy_on_grid(self, g):
        patch = horizontal_plane(g)
        uu = np.linspace(-2, 2, 9)
        degrees = {(u, v): homogeneous_tangent(patch, u, v).degree
                   for u in uu for v in uu}
        # characteristic exactly at the origin of the plane
        assert degrees[(0.0, 0.0)] == 2
        assert all(deg == 3 for (u, v), deg in degrees.items() if (u, v) != (0.0, 0.0))


class TestMuMeasure:
    def test_vertical_plane_closed_form(self, g):
        patch = vertical_plane(g)
        for c in (2.0, 1.5):
            d = dinf(g, c=c)
            # at r = 0.02 the preimage is thinner than a cell of the domain grid
            for r in (0.4, 0.1, 0.02):
                est = mu_measure(patch, d, 0.0, 0.0, r)
                assert est.value == pytest.approx((4.0 / c ** 2) * r ** 3, rel=1e-6)
                assert not est.truncated

    def test_truncation_flag(self, g):
        patch = vertical_plane(g)
        est = mu_measure(patch, dinf(g), 0.0, 0.0, 1.5)
        assert est.truncated

    def test_invalid_radius(self, g):
        with pytest.raises(ValueError):
            mu_measure(vertical_plane(g), dinf(g), 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("r", [np.nan, np.inf])
    def test_non_finite_radius(self, g, r):
        with pytest.raises(ValueError, match="radius"):
            mu_measure(vertical_plane(g), dinf(g), 0.0, 0.0, r)

    @pytest.mark.parametrize("point, cause", [
        ((1.5, 0.0), "outside the domain"),
        ((-0.5, 0.0), "non-finite"),
    ], ids=["outside-domain", "image-nan"])
    def test_bad_base_point_refused(self, g, point, cause):
        # the plane's points are NaN below u = -0.25, and (1.5, 0) lies beyond u = 1
        def fn(U, V):
            p = np.stack([np.zeros_like(U), U, V], axis=-1)
            return np.where((U < -0.25)[..., None], np.nan, p)

        patch = SurfacePatch(group=g, fn=fn, domain=((-1.0, 1.0), (-1.0, 1.0)))
        with pytest.raises(ConfigurationError, match=cause):
            mu_measure(patch, dinf(g), *point, 0.2)
        with pytest.raises(ConfigurationError, match=cause):
            density_curve(patch, dinf(g), *point, (0.4, 0.2, 0.1))


class TestBoundaryFittedMu:
    """Exact references for mu on a tilted preimage with corners and a clipped one."""

    def test_dinf_off_origin(self, g):
        # two independent quadratures agree on this ratio to 5e-12
        patch = paraboloid(g)
        est = mu_measure(patch, dinf(g, c=2.0), 0.3, 0.2, 0.2)
        assert est.value / 0.2 ** 3 == pytest.approx(1.0003059333072861, abs=1e-8)

    def test_clipped_dinf_plane(self, g):
        # |u| <= r, |v| <= r^2/c^2 cut at the domain edge u = -0.2
        patch = SurfacePatch(
            group=g, fn=lambda U, V: np.stack([np.zeros_like(U), U, V], axis=-1),
            domain=((-0.2, 1.0), (-1.0, 1.0)))
        est = mu_measure(patch, dinf(g, c=2.0), 0.0, 0.0, 0.4)
        assert est.truncated
        assert est.value == pytest.approx(0.6 * 2.0 * 0.4 ** 2 / 2.0 ** 2, rel=1e-12, abs=0)

    def test_linear_patch_density_exact(self, g):
        # the partials divide by the rounded step, so a plane's density is exact
        rng = np.random.default_rng(5)
        U, V = rng.uniform(-1.0, 1.0, (2, 1000))
        assert np.all(blowup.degree3_density(vertical_plane(g), U, V) == 1.0)

    def test_repeated_radii_refused(self, g):
        with pytest.raises(ValueError, match="distinct"):
            density_curve(vertical_plane(g), dinf(g), 0.0, 0.0, (0.2, 0.2, 0.2))


class TestLocator:
    """A search box that cuts the preimage is pushed out to the domain search's box."""

    @pytest.mark.parametrize("search", [
        ((-0.1, 0.9), (-0.9, 0.9)),    # interior edge u = -0.1 cuts the preimage
        ((-0.1, 0.1), (-0.01, 0.01)),  # every edge cuts it
    ], ids=["one-edge", "every-edge"])
    @pytest.mark.parametrize("family", [dinf, koranyi])
    def test_search_cutting_preimage(self, g, search, family):
        # the preimage spans |u| < 0.3, |v| <= 0.0225 at r = 0.3
        patch, d = paraboloid(g), family(g)
        blind, blind_touches = _param_bounding_box(patch, d, g.zero(), 0.3, (0.0, 0.0))
        box, touches = _param_bounding_box(patch, d, g.zero(), 0.3, (0.0, 0.0), search=search)
        np.testing.assert_allclose(box, blind, rtol=0, atol=1e-10)
        assert not (touches or blind_touches)

    @pytest.mark.parametrize("half", [1.0, 4.0])
    def test_vertical_plane_without_guess(self, g, half):
        # the preimage |u| <= r, |v| <= r^2/c^2 spans several cells of the
        # 512^2 hit grid on either domain
        patch = SurfacePatch(
            group=g, fn=lambda U, V: np.stack([np.zeros_like(U), U, V], axis=-1),
            domain=((-half, half), (-half, half)))
        for c in (2.0, 1.5):
            for r in (0.5, 0.3):
                est = mu_measure(patch, dinf(g, c=c), 0.0, 0.0, r)
                assert est.value == pytest.approx((4.0 / c ** 2) * r ** 3, rel=1e-6)
                assert not est.truncated


def test_search_edge_at_witness(g):
    # an edge 1e-30 from the witness reads inside; it is probed again from the
    # domain edge, so the box is the domain search's
    patch, d = paraboloid(g), dinf(g)
    blind, _ = _param_bounding_box(patch, d, g.zero(), 0.3, (0.0, 0.0))
    box, _ = _param_bounding_box(patch, d, g.zero(), 0.3, (0.0, 0.0),
                                 search=((-1e-30, 0.9), (-0.9, 0.9)))
    np.testing.assert_allclose(box, blind, rtol=0, atol=1e-10)


class TestDensityCurve:
    def test_vertical_plane_ratios_exact(self, g):
        curve = density_curve(vertical_plane(g), dinf(g), 0.0, 0.0,
                              (0.4, 0.2, 0.1))
        np.testing.assert_allclose(curve.ratios, 1.0, rtol=1e-6)
        assert curve.limit == pytest.approx(1.0, rel=1e-6)

    def test_paraboloid_blowup(self, g):
        rep = blowup_check(paraboloid(g), dinf(g), 0.0, 0.0,
                           factor_opts={"n_starts": 4, "n_mc": 30000})
        assert rep.ok
        assert rep.beta == pytest.approx(1.0, abs=3 * rep.beta_error)
        assert rep.limit == pytest.approx(1.0, rel=0.02)

    def test_characteristic_point_rejected(self, g):
        with pytest.raises(ValueError, match="characteristic"):
            density_curve(horizontal_plane(g), dinf(g), 0.0, 0.0, (0.4, 0.2))

    def test_koranyi_vertical_plane(self, g):
        # ratios constant in r (dilation invariance), equal to the slice area
        curve = density_curve(vertical_plane(g), koranyi(g), 0.0, 0.0,
                              (0.4, 0.2, 0.1))
        np.testing.assert_allclose(curve.ratios, curve.ratios[0], rtol=1e-6)
        assert curve.limit == pytest.approx(0.8740191847640303, rel=1e-4)
        # each ratio is the slice area itself
        np.testing.assert_allclose(curve.ratios, 0.87401918476404, rtol=0, atol=1e-8)


# mu / r^3 of a vertical plane: 4 / c^2 under dinf, the slice area under Koranyi
EXACT_PLANE_RATIOS = pytest.mark.parametrize("family, exact", [
    (lambda g: dinf(g, c=2.0), 1.0),
    (lambda g: koranyi(g, gamma=16.0), 0.87401918476404),
], ids=["dinf", "koranyi"])


def folded_patch(g):
    """x = u/100, y = u^2, t = v: two arms 1/100 apart in x, joined at u = 0."""
    return SurfacePatch(
        group=g, fn=lambda U, V: np.stack([0.01 * U, U ** 2, V], axis=-1),
        domain=((-1.0, 1.0), (-1.0, 1.0)))


def folded_patch_ratio(r, family):
    """mu(B(p, r)) / r^3 on `folded_patch` at p = (0.005, 0.25, 0), without carnot.

    In p^-1 q the horizontal part (0.01 u - 0.005, u^2 - 1/4) depends on u
    alone, so the preimage is a band of v-rows over the u where its length
    h(u) <= r, one interval per arm once r < 1/4; the rows have height r^2/2
    under dinf(c=2) and sqrt(r^4 - h^4)/2 under koranyi(16), and the density
    is hypot(0.01, 2u).  scipy quad integrates each interval.
    """
    quartic = np.poly1d([1.0, 0.0, -0.4999, -1e-4, 0.0625 + 2.5e-5 - r * r])  # h^2 - r^2
    roots = np.sort(quartic.roots[np.abs(quartic.roots.imag) < 1e-12].real)
    total = 0.0
    for a, b in zip(roots[:-1], roots[1:]):
        if quartic(0.5 * (a + b)) < 0.0:
            def row(u):
                h4 = ((0.01 * u - 0.005) ** 2 + (u * u - 0.25) ** 2) ** 2
                height = r * r / 2.0 if family == "dinf" else 0.5 * np.sqrt(max(r ** 4 - h4, 0.0))
                return height * np.hypot(0.01, 2.0 * u)
            total += quad(row, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
    return total / r ** 3


class TestWideRatios:
    """Radii far apart, or all small: every ratio meets its exact value."""

    @pytest.mark.parametrize("radii", [(0.4, 0.01), (0.5, 0.005), (0.02, 0.01)])
    @EXACT_PLANE_RATIOS
    def test_vertical_plane(self, g, family, exact, radii):
        curve = density_curve(vertical_plane(g), family(g), 0.0, 0.0, radii)
        np.testing.assert_allclose(curve.ratios, exact, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("radii", [(0.4, 0.2, 0.1), (0.4, 0.003)])
    @EXACT_PLANE_RATIOS
    def test_slanted_plane(self, g, family, exact, radii):
        # x = 1/2 is a left translate of the vertical plane, so mu / r^3 is
        # exact at every radius; its preimages are slanted, with thin tips
        patch = SurfacePatch(
            group=g, fn=lambda U, V: np.stack([np.full_like(U, 0.5), U, V], axis=-1),
            domain=((-1.0, 1.0), (-1.0, 1.0)))
        curve = density_curve(patch, family(g), 0.3, -0.2, radii)
        np.testing.assert_allclose(curve.ratios, exact, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("radii", [(0.4, 0.003), (0.4, 0.01)])
    def test_dinf_paraboloid(self, g, radii):
        curve = density_curve(paraboloid(g), dinf(g, c=2.0), 0.0, 0.0, radii)
        ref = [dinf_paraboloid_origin_ratio(r) for r in radii]
        np.testing.assert_allclose(curve.ratios, ref, rtol=1e-8, atol=0)

    @pytest.mark.parametrize("radii", [(0.4, 0.003), (0.4, 0.01)])
    def test_koranyi_paraboloid(self, g, radii):
        # the ratio is beta + O(r^2), about 5e-7 above beta at r = 0.01
        curve = density_curve(paraboloid(g), koranyi(g, gamma=16.0), 0.3, 0.2, radii)
        assert curve.ratios[0] == pytest.approx(PARABOLOID["koranyi"][2][0], rel=1e-8)
        assert curve.ratios[1] == pytest.approx(0.87401918476404, abs=1e-5)


    @pytest.mark.parametrize("family, rtol", [
        # under dinf each arm's row measure jumps to 0 at its inner end,
        # which the u-panels resolve to about 4e-6 (both arms read 2e-6 off)
        (lambda g: dinf(g, c=2.0), 1e-5),
        (lambda g: koranyi(g, gamma=16.0), 1e-8),
    ], ids=["dinf", "koranyi"])
    def test_split_preimage(self, g, family, rtol):
        # the preimage is joined through the fold at r = 0.4 and splits in
        # two arms at the smaller radii; the bracket of the u0 edge crosses
        # the far arm and the gap between the arms
        curve = density_curve(folded_patch(g), family(g), 0.5, 0.0, (0.4, 0.2, 0.05))
        ref = [folded_patch_ratio(r, family(g).name.split("(")[0]) for r in curve.radii]
        assert min(ref[1:]) > 1.7  # both arms count
        np.testing.assert_allclose(curve.ratios, ref, rtol=rtol, atol=0)


class TestGraphArea:
    def unit_region(self):
        return ((0.0, 1.0), (0.0, 1.0))

    def test_flat_graph_area_one(self, g):
        f = LevelSetSpec(group=g, fn=lambda p: p[:, 0])
        assert graph_area_levelset(f, self.unit_region(), dinf(g)) \
            == pytest.approx(1.0, abs=1e-12)

    def test_left_translation_invariance(self, g):
        f = LevelSetSpec(group=g, fn=lambda p: p[:, 0] - 0.7)
        assert graph_area_levelset(f, self.unit_region(), dinf(g)) \
            == pytest.approx(1.0, abs=1e-12)

    def test_parabolic_graph_cross_check(self, g):
        f = LevelSetSpec(group=g, fn=lambda p: p[:, 0] - p[:, 1] ** 2)
        area = graph_area_levelset(f, self.unit_region(), dinf(g), n_grid=128)
        patch = levelset_patch(f, self.unit_region())
        surface = surface_measure_total(patch, n_grid=128)
        assert area == pytest.approx(surface, rel=2e-2)
        # independent closed form: integral of sqrt(1 + 4 u^2) over [0,1]
        exact = (2 * np.sqrt(5) + np.arcsinh(2.0)) / 4.0
        assert area == pytest.approx(exact, rel=1e-4)

    def test_negative_jacobian_rejected(self, g):
        f = LevelSetSpec(group=g, fn=lambda p: -p[:, 0])
        with pytest.raises(ValueError, match="hypothesis"):
            graph_area_levelset(f, self.unit_region(), dinf(g), n_grid=16)

    def test_root_escape_reported(self, g):
        f = LevelSetSpec(group=g, fn=lambda p: p[:, 0] - 20.0)
        with pytest.raises(ValueError, match="coset window"):
            graph_area_levelset(f, self.unit_region(), dinf(g), n_grid=8)


class TestSolverCounts:
    """The false-position searches take a few batched evaluations each."""

    def test_graph_points_linear_coset(self, g):
        # x - y^2 is linear along each coset, so a secant step lands on the root
        calls = []

        def f(p):
            calls.append(len(p))
            return p[:, 0] - p[:, 1] ** 2

        U, V = np.meshgrid(np.linspace(0.0, 1.0, 64), np.linspace(0.0, 1.0, 64))
        s, pts = _graph_points(LevelSetSpec(group=g, fn=f), U.ravel(), V.ravel())
        # the two window ends, then at most two steps per block of rows
        assert calls[:2] == [64 * 64] * 2 and set(calls[2:]) == {CHUNK_COLUMNS}
        assert len(calls) - 2 <= 2 * (64 * 64 // CHUNK_COLUMNS)
        np.testing.assert_allclose(s, U.ravel() ** 2, atol=1e-12)

    def test_density_curve_gauge_calls(self, g, monkeypatch):
        # per README curve: one 512^2 hit grid in blocks of at most
        # GRID_POINTS, all for the first radius before its first edge scan
        # (the others bracket from the base point), no one-point check of
        # the base point, at most 6 edge scans of 4 x 17 lines and at most
        # 30 probe calls of 4 lines, each line of 512 points and refined by
        # two calls of 64 points a line, and at most 512^2 integral points,
        # ball and density points together
        located, integral, in_rows = [], [], [False]
        gauge, rows, density = DistanceSpec.ball_gauge, blowup._row_measures, blowup.degree3_density

        def counted_gauge(self, center, r, x):
            (integral if in_rows[0] else located).append(len(x))
            return gauge(self, center, r, x)

        def counted_rows(*args, **kwargs):
            in_rows[0] = True
            try:
                return rows(*args, **kwargs)
            finally:
                in_rows[0] = False

        def counted_density(patch, U, V):
            integral.append(np.size(U))
            return density(patch, U, V)

        monkeypatch.setattr(DistanceSpec, "ball_gauge", counted_gauge)
        monkeypatch.setattr(blowup, "_row_measures", counted_rows)
        monkeypatch.setattr(blowup, "degree3_density", counted_density)
        for d, point in ((dinf(g, c=2.0), (0.0, 0.0)), (koranyi(g, gamma=16.0), (0.3, 0.2))):
            located.clear()
            integral.clear()
            density_curve(paraboloid(g), d, *point, (0.4, 0.2, 0.1))
            scans, probes = located.count(4 * 17 * 512), located.count(4 * 512)
            refined = located.count(4 * 17 * 64) + located.count(4 * 64)
            blocks = -(-512 * 512 // blowup.GRID_POINTS)
            grid = located[:blocks]
            assert max(grid) <= blowup.GRID_POINTS and sum(grid) == 512 * 512
            assert located.count(1) == 0
            assert len(located) == blocks + scans + probes + refined
            assert scans <= 6 and probes <= 30 and refined == 2 * (scans + probes)
            assert 0 < sum(integral) <= 512 * 512

    def test_gauge_matches_membership(self, g):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1.0, 1.0, (4000, 3))
        pts[::7, rng.integers(0, 3)] = np.nan
        center = np.array([0.2, -0.1, 0.3])
        for d in (dinf(g), koranyi(g), hebisch_sikora(g)):
            for r in (0.3, 1.0):
                # membership as the profile test on the dilated layer norms
                u = g.multiply(g.inverse(center)[None, :], pts)
                ref = d.profile(g.layer_norms(u) / r ** np.array([1.0, 2.0])) <= 1.0
                inside = d.ball_gauge(center, r, pts) <= 1.0
                np.testing.assert_array_equal(inside, ref)
                np.testing.assert_array_equal(d.ball_contains(center, r, pts), ref)
                assert not inside[::7].any()
                assert d.ball_contains(center, r, pts[1]) is bool(ref[1])

    def test_nan_probes_count_as_outside(self, g):
        # the plane's points are NaN beyond u = 0.2, so the u edge stops there
        def fn(U, V):
            p = np.stack([np.zeros_like(U), U, V], axis=-1)
            return np.where((U > 0.2)[..., None], np.nan, p)

        patch = SurfacePatch(group=g, fn=fn, domain=((-1.0, 1.0), (-1.0, 1.0)))
        box, touches = _param_bounding_box(patch, dinf(g), g.zero(), 0.4, (0.0, 0.0))
        assert box[0][0] == pytest.approx(-0.4, abs=1e-9)
        assert box[0][1] == pytest.approx(0.2, abs=1e-9)
        np.testing.assert_allclose(box[1], (-0.04, 0.04), atol=1e-9)
        assert not touches


def dinf_paraboloid_origin_ratio(r, n=64):
    """mu(B(0, r)) / r^3 on the README paraboloid under dinf(c=2), without carnot.

    The preimage is |v| <= r^2/4 and ((u^2 + v^2)/4)^2 + u^2 <= r^2, so each
    v-row is |u| <= U(v), found by brentq; both integrals are n-node
    Gauss-Legendre on smooth integrands.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    total = 0.0
    for v, wv in zip(r * r / 4.0 * x, r * r / 4.0 * w):
        end = brentq(lambda u: ((u * u + v * v) / 4.0) ** 2 + u * u - r * r, 0.0, r)
        u = end * x
        dens = np.hypot(0.5 * u * (1.0 + u * v / 4.0) - (u * u - v * v) * v / 16.0,
                        1.0 + u * v / 4.0)
        total += wv * end * np.dot(w, dens)
    return total / r ** 3


# the README paraboloid curves of perfbench/configs/paraboloid_*.json.  The
# dinf ratios are the independent quadrature above; the Koranyi ratios are
# scipy quad over rows at epsrel 1e-10, checked against a second,
# adaptive-panel method to <= 3e-11.  The uncertainties follow from the
# ratios (twice the largest residual of the linear fit).
PARABOLOID = {
    "dinf": ({"family": "dinf", "params": {"c": 2}}, [0, 0],
             tuple(dinf_paraboloid_origin_ratio(r) for r in (0.4, 0.2, 0.1)),
             2.3840656505713653e-4),
    "koranyi": ({"family": "koranyi", "params": {"gamma": 16}}, [0.3, 0.2],
                (0.8748630890961315, 0.8742363279000325, 0.8740738553955896),
                1.2934979452028372e-4),
}


class TestPinnedValues:
    """The boundary-fitted mu meets independent references to 1e-8."""

    @pytest.mark.parametrize("name", sorted(PARABOLOID))
    def test_readme_paraboloid(self, name):
        distance, point, ratios, uncertainty = PARABOLOID[name]
        cfg = ExperimentConfig({
            "group": "heisenberg1", "distance": distance,
            "surface": {"kind": "param",
                        "expr": {"x": "(u*u + v*v)/4", "y": "u", "t": "v"},
                        "domain": [[-1, 1], [-1, 1]]}})
        g = cfg.group()
        curve = density_curve(cfg.surface(g), cfg.distance(g), *point, (0.4, 0.2, 0.1))
        np.testing.assert_allclose(curve.ratios, ratios, rtol=1e-8, atol=0)
        assert curve.uncertainty == pytest.approx(uncertainty, abs=1e-8)

    def test_graph_area(self, g):
        # perfbench/configs/graph_area.json, as the bisection coset solve gave it
        cfg = ExperimentConfig({
            "group": "heisenberg1", "distance": {"family": "dinf", "params": {"c": 2}},
            "surface": {"kind": "levelset", "expr": {"f": "x - y**2"},
                        "domain": [[0, 1], [0, 1]]}})
        f, region = cfg.surface(g)
        area = graph_area_levelset(f, region, cfg.distance(g), n_grid=256)
        route = surface_measure_total(levelset_patch(f, region), n_grid=256)
        assert area == pytest.approx(1.4789417202288018, rel=1e-9, abs=0)
        assert route == pytest.approx(1.4789417197316044, rel=1e-9, abs=0)


def float_bits(*values):
    return [float(v).hex() for v in np.ravel(values)]


def across_blocks(monkeypatch, n, run):
    """run() at the default GRID_POINTS, at 1000 (cutting grid rows) and at >= n^2."""
    out = []
    for points in (blowup.GRID_POINTS, 1000, max(n * n, blowup.GRID_POINTS)):
        monkeypatch.setattr(blowup, "GRID_POINTS", points)
        out.append(run())
    return out


def error_message(run):
    with pytest.raises(ValueError) as err:
        run()
    return str(err.value)


def peak_bytes(run):
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestGridBlocks:
    """The n_grid^2 grids run in blocks: every output keeps its bits, in bounded memory."""

    GRAPH_AREA = ExperimentConfig({
        "group": "heisenberg1", "distance": {"family": "dinf", "params": {"c": 2}},
        "surface": {"kind": "levelset", "expr": {"f": "x - y**2"},
                    "domain": [[0, 1], [0, 1]]}})

    @pytest.mark.parametrize("name", sorted(PARABOLOID))
    def test_readme_density_curve(self, name, monkeypatch):
        distance, point, _, _ = PARABOLOID[name]
        cfg = ExperimentConfig({
            "group": "heisenberg1", "distance": distance,
            "surface": {"kind": "param",
                        "expr": {"x": "(u*u + v*v)/4", "y": "u", "t": "v"},
                        "domain": [[-1, 1], [-1, 1]]}})
        g = cfg.group()
        patch, d = cfg.surface(g), cfg.distance(g)

        def run():
            curve = density_curve(patch, d, *point, (0.4, 0.2, 0.1), n_grid=512)
            return (float_bits(*curve.ratios, curve.limit, curve.uncertainty), curve.truncated,
                    float_bits(surface_measure_total(patch, n_grid=512)))
        default, ragged, whole = across_blocks(monkeypatch, 512, run)
        assert default == ragged == whole

    def test_graph_area_routes(self, g, monkeypatch):
        f, region = self.GRAPH_AREA.surface(g)
        d = self.GRAPH_AREA.distance(g)

        def run():
            return float_bits(graph_area_levelset(f, region, d, n_grid=256),
                              surface_measure_total(levelset_patch(f, region), n_grid=256))
        default, ragged, whole = across_blocks(monkeypatch, 256, run)
        assert default == ragged == whole

    def test_window_error_names_first_bad_cell(self, g, monkeypatch):
        # the roots leave |s| <= 8 from the u row 29 of 64 on, flat index 1856,
        # in the second block of 1000
        f = LevelSetSpec(group=g, fn=lambda p: p[:, 0] - 20.0 * (p[:, 1] > 0.45))
        messages = across_blocks(monkeypatch, 64, lambda: error_message(
            lambda: graph_area_levelset(f, ((0.0, 1.0), (0.0, 1.0)), dinf(g), n_grid=64)))
        assert len(set(messages)) == 1
        assert "coset window" in messages[0] and "(0.460938, 0.0078125)" in messages[0]

    def test_jacobian_error_names_least_x_f(self, g, monkeypatch):
        # X f = a(u) is -0.5 on the first two u rows (first block of 1000) and
        # least, -2, on rows 21 and 42 of 64 (flat indices 1344 and 2688, the
        # second and third blocks); the first in flat order is named
        def a(y):
            least = (np.abs(y - 0.336) < 0.005) | (np.abs(y - 0.664) < 0.005)
            return np.where(y < 0.03, -0.5, np.where(least, -2.0, 1.0))

        f = LevelSetSpec(group=g, fn=lambda p: p[:, 0] * a(p[:, 1]))
        messages = across_blocks(monkeypatch, 64, lambda: error_message(
            lambda: graph_area_levelset(f, ((0.0, 1.0), (0.0, 1.0)), dinf(g), n_grid=64)))
        assert len(set(messages)) == 1
        assert "J_V f <= 0 at graph point [0.0, 0.3359375, 0.0078125]" in messages[0]

    @pytest.mark.parametrize("n_grid", [-3, 0, 2.5, 64.0, True, "64", None])
    def test_n_grid_refused(self, g, n_grid):
        patch = vertical_plane(g)
        f, region = self.GRAPH_AREA.surface(g)
        match = f"n_grid must be an integer >= 1, got {n_grid!r}"
        for run in (lambda: mu_measure(patch, dinf(g), 0.0, 0.0, 0.2, n_grid=n_grid),
                    lambda: density_curve(patch, dinf(g), 0.0, 0.0, (0.2, 0.1), n_grid=n_grid),
                    lambda: surface_measure_total(patch, n_grid=n_grid),
                    lambda: graph_area_levelset(f, region, dinf(g), n_grid=n_grid)):
            with pytest.raises(ValueError) as err:
                run()
            assert str(err.value) == match

    def test_numpy_integer_n_grid(self, g):
        patch = vertical_plane(g)
        assert surface_measure_total(patch, n_grid=np.int64(16)) \
            == surface_measure_total(patch, n_grid=16)

    def test_mu_grid_memory(self, g):
        # one 2048^2 hit grid peaked at 352 MiB
        patch, d = paraboloid(g), dinf(g, c=2.0)
        d.ball_gauge(g.zero(), 1.0, g.zero())  # any lazy set-up of d happens here
        assert peak_bytes(lambda: mu_measure(patch, d, 0.0, 0.0, 0.4, n_grid=2048)) <= 16 << 20

    def test_area_routes_memory(self, g):
        # the whole 512^2 grid peaked at 28.0 MiB (graph area) and 46.3 MiB
        # (its surface-measure cross-check)
        f, region = self.GRAPH_AREA.surface(g)
        d = self.GRAPH_AREA.distance(g)
        assert peak_bytes(lambda: graph_area_levelset(f, region, d, n_grid=512)) <= 10 << 20
        assert peak_bytes(lambda: surface_measure_total(levelset_patch(f, region),
                                                        n_grid=512)) <= 10 << 20
