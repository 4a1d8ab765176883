import subprocess
import sys
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from carnot.algebra import (ConfigurationError, GradedGroup, preset_group,
                            structure_constants_from_sparse)
from carnot.blowup import BlowupReport
from carnot.factor import (MAX_QUAD_ROWS, ConvexNormalReport, SweepReport, _gl_sin_rule,
                           _mc_factor, convex_normal_check, random_subspace,
                           rotational_sweep, slice_volume_mc,
                           slice_volume_nested, spherical_factor,
                           unit_ball_volume)
from carnot.metrics import dinf, euclidean, hebisch_sikora, koranyi
from carnot.subgroups import subspace_from_dict, subspace_from_vectors


@pytest.fixture(scope="module")
def heis():
    return preset_group("heisenberg1")


@pytest.fixture(scope="module")
def vertical(heis):
    return subspace_from_vectors(heis, [[0, 1, 0], [0, 0, 1]])


@pytest.fixture(scope="module")
def h8():
    # H_8: layer dims (16, 1), [e_i, e_{i+8}] = e_17, and its ideal span{e_2, ..., e_17}
    g = GradedGroup(structure_constants_from_sparse(
        2, (16, 1), [[17, i, i + 8, 1.0] for i in range(1, 9)]))
    return g, subspace_from_vectors(g, np.eye(17)[1:])


class TestNestedQuadrature:
    def test_euclidean_plane_is_pi(self):
        g = preset_group("abelian:3")
        V = subspace_from_vectors(g, [[1, 0, 0], [0, 1, 0]])
        est = slice_volume_nested(euclidean(g), V)
        assert est.method == "nested_quadrature"
        assert est.std_error == 0.0
        assert est.value == pytest.approx(np.pi, rel=1e-9)

    def test_dinf_vertical_plane_closed_form(self, heis, vertical):
        # the slice is the rectangle |y| <= 1, |t| <= 1/c^2: area 4/c^2
        for c in (2.0, 1.5):
            est = slice_volume_nested(dinf(heis, c=c), vertical)
            assert est.value == pytest.approx(4.0 / c ** 2, rel=1e-9)

    def test_koranyi_vertical_plane_oracle(self, heis, vertical):
        est = slice_volume_nested(koranyi(heis), vertical)
        oracle, _ = integrate.quad(lambda y: np.sqrt(1.0 - y ** 4), -1.0, 1.0,
                                   limit=200)
        assert est.value == pytest.approx(0.5 * oracle, rel=1e-8)

    def test_off_center_matches_mc(self, heis, vertical):
        d = koranyi(heis)
        z = np.array([0.2, -0.1, 0.05])
        nested = slice_volume_nested(d, vertical, z)
        mc = slice_volume_mc(d, vertical, z, n=200000, seed=7)
        assert abs(nested.value - mc.value) <= 3 * mc.std_error

    def test_line_chord_length(self):
        g = preset_group("abelian:2")
        V = subspace_from_vectors(g, [[1, 0]])
        est = slice_volume_nested(euclidean(g), V)
        assert est.value == pytest.approx(2.0, rel=1e-9)

    def test_cached_rule_is_read_only(self):
        nodes, weights = _gl_sin_rule(32)
        for a in (nodes, weights):
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert _gl_sin_rule(32)[0] is nodes
        assert weights.sum() == pytest.approx(2.0, rel=1e-12)


class TestMonteCarlo:
    def test_deterministic_given_seed(self, heis, vertical):
        d = dinf(heis)
        a = slice_volume_mc(d, vertical, heis.zero(), n=50000, seed=1)
        b = slice_volume_mc(d, vertical, heis.zero(), n=50000, seed=1)
        assert a.value == b.value
        assert slice_volume_mc(d, vertical, heis.zero(), n=50000, seed=2).value \
            != a.value

    def test_error_bar_covers_truth(self, heis, vertical):
        d = dinf(heis)
        est = slice_volume_mc(d, vertical, heis.zero(), n=100000, seed=0)
        assert abs(est.value - 1.0) <= 3 * est.std_error

    def test_center_outside_reach_gives_zero(self, heis, vertical):
        d = dinf(heis)
        far = np.array([5.0, 0.0, 0.0])
        est = slice_volume_mc(d, vertical, far, n=10000, seed=0)
        assert est.value == 0.0
        assert est.std_error > 0.0

    def test_no_hit_bar_covers_a_tiny_slice(self, h8):
        # the 16-ball of radius 1/2 fills 5.5e-11 of the box [-1, 1]^16, so
        # 1e5 samples see no hit; the bar must still cover the truth
        g, V = h8
        est = slice_volume_mc(hebisch_sikora(g, 0.5, validate=False), V, g.zero(), n=100000)
        assert est.value == 0.0
        assert 3 * est.std_error >= unit_ball_volume(16) / 2 ** 16


class TestSphericalFactor:
    def test_euclidean_beta_is_pi(self):
        g = preset_group("abelian:3")
        V = subspace_from_vectors(g, [[1, 0, 0], [0, 1, 0]])
        rep = spherical_factor(euclidean(g), V, n_starts=6, n_mc=30000, seed=0)
        assert rep.beta == pytest.approx(np.pi, abs=3 * rep.beta_error)
        assert abs(rep.center_gap) <= 3 * rep.gap_error
        assert np.linalg.norm(rep.argmax_center) <= 1.0 + 1e-9

    def test_koranyi_origin_max(self, heis, vertical):
        rep = spherical_factor(koranyi(heis), vertical, n_starts=6,
                               n_mc=30000, seed=0)
        nested = slice_volume_nested(koranyi(heis), vertical)
        assert rep.beta == pytest.approx(nested.value, abs=3 * rep.beta_error)
        assert abs(rep.center_gap) <= 3 * rep.gap_error

    def test_unit_ball_volume(self):
        assert unit_ball_volume(0) == 1.0
        assert unit_ball_volume(1) == pytest.approx(2.0)
        assert unit_ball_volume(2) == pytest.approx(np.pi)
        assert unit_ball_volume(3) == pytest.approx(4 * np.pi / 3)


class TestQuadraturePath:
    """V holds every layer above the first and dim W <= 2: deterministic beta."""

    def test_deterministic_and_seed_free(self, heis, vertical):
        d = koranyi(heis)
        a = spherical_factor(d, vertical, seed=0)
        b = spherical_factor(d, vertical, seed=7)
        assert a.method == b.method == "nested_quadrature"
        assert (a.n_starts, a.n_mc) == (0, 0)
        assert a.beta == b.beta
        assert a.beta_error == b.beta_error
        np.testing.assert_array_equal(a.argmax_center, b.argmax_center)

    @pytest.mark.parametrize("distance, param, beta, beta_error", [
        (koranyi, 16.0, 0.8740191847530902, 4.3786746175091633e-10),
        (hebisch_sikora, 0.5, 0.7853981633993408, 3.14993931047936e-10),
    ], ids=["koranyi", "hebisch_sikora"])
    def test_vertical_plane_bits(self, heis, vertical, distance, param, beta, beta_error):
        # pinned to the bit; the cached rho_1 and rule must not move them
        for _ in range(2):
            rep = spherical_factor(distance(heis, param), vertical)
            assert (repr(rep.beta), repr(rep.beta_error)) == (repr(beta), repr(beta_error))

    @pytest.mark.parametrize("group, distance, span, truth, method", [
        ("heisenberg1", dinf, [[0, 1, 0], [0, 0, 1]], 1.0, "nested_quadrature"),
        ("abelian:3", euclidean, [[1, 0, 0], [0, 1, 0]], np.pi, "nested_quadrature"),
        ("engel", hebisch_sikora, np.eye(4)[1:], np.pi / 6, "nested_quadrature"),
        ("heisenberg1", koranyi, [[0, 0, 1]], 0.5, "nested_quadrature"),  # W = H_1
        # horizontal V: omega_k * rho_1^k, with rho_1 = 1, 1, 0.5
        ("heisenberg1", dinf, [[1, 0, 0]], 2.0, "closed_form"),
        ("heisenberg1", koranyi, [[1, 0, 0]], 2.0, "closed_form"),
        ("heisenberg1", hebisch_sikora, [[1, 0, 0]], 1.0, "closed_form"),
        ("heisenberg1", koranyi, [[1, 0, 0], [0, 1, 0]], np.pi, "closed_form"),
        ("engel", hebisch_sikora, [[1, 0, 0, 0]], 1.0, "closed_form"),
    ], ids=["dinf-vertical", "euclidean-plane", "hebisch_sikora-engel",
            "koranyi-center", "dinf-x-axis", "koranyi-x-axis", "hebisch_sikora-x-axis",
            "koranyi-h1-plane", "hebisch_sikora-engel-e1"])
    def test_closed_forms(self, group, distance, span, truth, method):
        g = preset_group(group)
        rep = spherical_factor(distance(g), subspace_from_vectors(g, span))
        assert rep.method == method
        assert 0.0 < rep.beta_error < 1e-6
        assert abs(rep.beta - truth) <= 3 * rep.beta_error
        assert abs(rep.center_gap) <= 3 * rep.gap_error

    @pytest.mark.parametrize("group, distance, span", [
        ("heisenberg1", koranyi, [[0, 0, 1]]),
        ("heisenberg1", dinf, [[0, 1, 0], [0, 0, 1]]),
        ("engel", hebisch_sikora, np.eye(4)[1:]),
        ("heisenberg1", dinf, [[1, 0, 0]]),
        ("heisenberg1", koranyi, [[1, 0, 0]]),
        ("heisenberg1", hebisch_sikora, [[1, 0, 0]]),
        ("heisenberg1", koranyi, [[1, 0, 0], [0, 1, 0]]),
        ("engel", hebisch_sikora, [[1, 0, 0, 0]]),
    ], ids=["koranyi-center", "dinf-vertical", "hebisch_sikora-engel", "dinf-x-axis",
            "koranyi-x-axis", "hebisch_sikora-x-axis", "koranyi-h1-plane",
            "hebisch_sikora-engel-e1"])
    def test_matches_mc_at_argmax(self, group, distance, span):
        g = preset_group(group)
        d, V = distance(g), subspace_from_vectors(g, span)
        rep = spherical_factor(d, V)
        mc = slice_volume_mc(d, V, rep.argmax_center, n=1000000, seed=1)
        assert abs(rep.beta - mc.value) <= 3 * np.hypot(mc.std_error, rep.beta_error)


class TestQuadratureBudget:
    def test_over_budget_direct_call_raises_before_allocating(self):
        # a (2, 1, 1, 1, 0) slice of filiform would expand 32^5 rows, about 14 GB
        g = GradedGroup(structure_constants_from_sparse(
            5, (2, 1, 1, 1, 1), [[3, 1, 2, 1], [4, 1, 3, 1], [5, 1, 4, 1], [6, 1, 5, 1]]))
        d, V = hebisch_sikora(g, validate=False), subspace_from_vectors(g, np.eye(6)[:5])
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match=f"32\\^5 rows > {MAX_QUAD_ROWS}"):
                slice_volume_nested(d, V)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_no_top_layer_direction_refused(self, heis):
        # on the x axis the last layer would be a 0/1 indicator: at this z
        # it gave 0.5181 (32 nodes) and 0.5775 (64 nodes) with std_error 0,
        # against 0.5665 from a 6e5-point membership grid
        V = subspace_from_dict(heis, "horizontal_x_axis")
        with pytest.raises(ConfigurationError, match="top-layer direction.*slice_volume_mc"):
            slice_volume_nested(dinf(heis, c=2.0), V, np.array([0.1, -0.4, 0.3]))

    def test_wide_top_layer_takes_quadrature(self):
        # free step-2 group of rank 4; V = span{e1, e2} + H_2 has a closed-form
        # top layer of dimension 6, and its slice under dinf(c=1) is a disc
        # times a 6-ball, so beta = pi * omega_6
        pairs = combinations(range(1, 5), 2)
        g = GradedGroup(structure_constants_from_sparse(
            2, (4, 6), [[5 + n, i, j, 1.0] for n, (i, j) in enumerate(pairs)]))
        d = dinf(g, c=1.0)
        V = subspace_from_vectors(g, np.eye(10)[[0, 1, 4, 5, 6, 7, 8, 9]])
        assert V.signature == (2, 6)
        rep = spherical_factor(d, V)
        assert rep.method == "nested_quadrature"
        assert abs(rep.beta - np.pi * unit_ball_volume(6)) <= 3 * rep.beta_error
        mc = slice_volume_mc(d, V, rep.argmax_center, n=1000000, seed=1)
        assert abs(rep.beta - mc.value) <= 3 * np.hypot(mc.std_error, rep.beta_error)


class TestMonteCarloFallback:
    def test_horizontal_axis_keeps_mc_path(self, heis):
        # the x axis now takes the closed form; the Monte Carlo search that
        # mixed V still take is pinned on it, bit for bit
        V = subspace_from_dict(heis, "horizontal_x_axis")
        rep = _mc_factor(dinf(heis), V, 2, 20000, 0)
        assert rep.method == "mc"
        assert abs(rep.beta - 2.0) <= 3 * rep.beta_error
        assert (rep.beta, rep.beta_error) == (2.00018, 0.004472135936887429)
        assert (rep.center_gap, rep.gap_error) == (0.0031199999999997896,
                                                   0.0063245518908457065)
        assert rep.argmax_center.tolist() == [0.30561386533970214, 0.012530826440225724,
                                              0.1362425199729119]


class TestOriginRoutes:
    """Ideal and horizontal V: beta at the origin, with no search."""

    def test_ideal_with_wide_complement_takes_quadrature(self):
        # free step-2 group of rank 4; V = span{e1} + H_2 has dim W = 3, and
        # its slice under dinf(c=1) is a segment times a 6-ball: 2 * omega_6
        pairs = combinations(range(1, 5), 2)
        g = GradedGroup(structure_constants_from_sparse(
            2, (4, 6), [[5 + n, i, j, 1.0] for n, (i, j) in enumerate(pairs)]))
        d = dinf(g, c=1.0)
        V = subspace_from_vectors(g, np.eye(10)[[0, 4, 5, 6, 7, 8, 9]])
        assert V.signature == (1, 6)
        rep = spherical_factor(d, V)
        assert rep.method == "nested_quadrature"
        assert abs(rep.beta - 2.0 * unit_ball_volume(6)) <= 3 * rep.beta_error

    def test_filiform_hyperplane_takes_quadrature(self):
        # the (1, 1, 1, 1, 1) hyperplane of filiform meets five layers: the
        # radial rule takes 11 nodes, 22^4 rows for its bar; its slice is the
        # 5-ball of radius 1/2, pi^2 / 60
        g = GradedGroup(structure_constants_from_sparse(
            5, (2, 1, 1, 1, 1), [[3, 1, 2, 1], [4, 1, 3, 1], [5, 1, 4, 1], [6, 1, 5, 1]]))
        V = subspace_from_vectors(g, np.eye(6)[1:])
        rep = spherical_factor(hebisch_sikora(g, 0.5, validate=False), V, n_mc=20000)
        assert rep.method == "nested_quadrature"
        assert (rep.n_starts, rep.n_mc, rep.center_gap, rep.gap_error) == (0, 0, 0.0, 0.0)
        assert abs(rep.beta - np.pi ** 2 / 60) <= 3 * rep.beta_error
        assert 0.0 < rep.beta_error < 1e-9

    def test_wide_ideal_is_not_zero(self, h8):
        # 16-dimensional ideal of H_8 under hebisch_sikora(0.5): the slice is
        # the 16-ball of radius 1/2, far too small for origin Monte Carlo
        g, V = h8
        rep = spherical_factor(hebisch_sikora(g, 0.5, validate=False), V)
        assert rep.method == "nested_quadrature"
        assert rep.beta_error > 0.0
        assert abs(rep.beta - unit_ball_volume(16) / 2 ** 16) <= 3 * rep.beta_error

    def test_search_code_never_imported(self):
        # scipy costs import time, so neither the import nor a proof route
        # may load any of it
        code = ("import sys\n"
                "import carnot, carnot.cli\n"
                "scipy = lambda: [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
                "assert not scipy(), scipy()\n"
                "from carnot.algebra import preset_group\n"
                "from carnot.factor import spherical_factor\n"
                "from carnot.metrics import koranyi\n"
                "from carnot.subgroups import subspace_from_dict\n"
                "g = preset_group('heisenberg1')\n"
                "for name in ('vertical_plane_x0', 'horizontal_x_axis'):\n"
                "    spherical_factor(koranyi(g), subspace_from_dict(g, name))\n"
                "assert not scipy(), scipy()\n")
        subprocess.run([sys.executable, "-c", code], check=True)


class TestOriginMaximality:
    """The symmetry that the origin routes rest on, probed off the origin."""

    @pytest.mark.parametrize("group, distance, span", [
        ("heisenberg1", dinf, [[0, 1, 0], [0, 0, 1]]),
        ("heisenberg1", koranyi, [[0, 1, 0], [0, 0, 1]]),
        ("heisenberg1", hebisch_sikora, [[0, 1, 0], [0, 0, 1]]),
        ("engel", hebisch_sikora, np.eye(4)[1:]),
    ], ids=["heisenberg1-dinf", "heisenberg1-koranyi", "heisenberg1-hebisch_sikora",
            "engel-hebisch_sikora"])
    def test_ideal_slice_is_largest_at_origin(self, group, distance, span):
        # for these V the complement W in H_1 is span{e1}; centers w in W
        # leave the unit ball beyond |w| = rho_1
        g = preset_group(group)
        d, V = distance(g), subspace_from_vectors(g, span)
        rep = spherical_factor(d, V)
        rho1 = d.profile.rho_i(1, [])

        @settings(max_examples=20, derandomize=True, deadline=None)
        @given(st.floats(-1.0, 1.0))
        def check(u):
            w = g.zero()
            w[0] = u * rho1
            assert slice_volume_nested(d, V, w).value <= rep.beta + rep.beta_error

        check()

    @pytest.mark.parametrize("distance", [dinf, koranyi, hebisch_sikora],
                             ids=["dinf", "koranyi", "hebisch_sikora"])
    def test_x_axis_chord_fits_origin_chord(self, heis, distance):
        # every point s * e1 of B(z, 1) has |s - z_1| <= rho_1, so the chord
        # is at most 2 * rho_1 wherever z is in the unit ball
        d = distance(heis)
        rep = spherical_factor(d, subspace_from_dict(heis, "horizontal_x_axis"))
        s = np.linspace(-3.0, 3.0, 6001)
        line = np.zeros((s.size, 3))
        line[:, 0] = s

        @settings(max_examples=30, derandomize=True, deadline=None)
        @given(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3))
        def check(u):
            z = np.asarray(u)
            nz = d.norm(z)
            if nz > 1.0:
                z = heis.dilate(1.0 / nz, z)
            hit = s[d.ball_contains(z, 1.0, line)]
            if hit.size:
                assert 2.0 * np.abs(hit - z[0]).max() <= rep.beta + rep.beta_error

        check()


class TestRandomSubspace:
    def test_signature_and_orthonormality(self, heis):
        V = random_subspace(heis, (1, 1), seed=9)
        assert V.signature == (1, 1)
        B = V.ambient_basis
        np.testing.assert_allclose(B.T @ B, np.eye(2), atol=1e-12)

    def test_seed_determinism(self, heis):
        a = random_subspace(heis, (1, 1), seed=4).ambient_basis
        b = random_subspace(heis, (1, 1), seed=4).ambient_basis
        np.testing.assert_array_equal(a, b)
        c = random_subspace(heis, (1, 1), seed=5).ambient_basis
        assert not np.array_equal(a, c)

    def test_invalid_signature(self, heis):
        with pytest.raises(ConfigurationError):
            random_subspace(heis, (3, 0), seed=0)


class TestSweepAndConvex:
    def test_euclidean_sweep_all_pi(self):
        g = preset_group("abelian:3")
        rep = rotational_sweep(euclidean(g), (2,), k=3, n_starts=3,
                               n_mc=20000, seed=0)
        for b, e in zip(rep.betas, rep.std_errors):
            assert b == pytest.approx(np.pi, abs=3 * e + 3e-3)
        assert rep.spread <= rep.spread_error

    def test_single_subspace_sweep(self, heis):
        rep = rotational_sweep(koranyi(heis), (1, 1), k=1, n_starts=3,
                               n_mc=20000, seed=0)
        assert rep.spread == 0.0

    def test_convex_normal_gap(self, heis, vertical):
        d = hebisch_sikora(heis)
        rep = convex_normal_check(d, vertical, n_starts=4, n_mc=30000, seed=0)
        assert abs(rep.gap) <= 3 * rep.gap_error

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("report", [
        lambda x: SweepReport((1, 1), (0.0, x), (0.0, x), spread=x, spread_error=x,
                              mean=x, seed=0),
        lambda x: ConvexNormalReport(beta=x, origin_volume=0.0, gap=x, gap_error=x),
        lambda x: BlowupReport(curve=None, beta=x, beta_error=x, gap=x, tol=x),
    ], ids=["sweep", "convex-normal", "blowup"])
    def test_non_finite_value_fails(self, report, bad):
        # a value and a bar that are both inf (or NaN) fail, as in algebra.Check
        assert not report(bad).ok

    def test_convex_flag_required(self, heis, vertical):
        with pytest.raises(ConfigurationError, match="convex"):
            convex_normal_check(koranyi(heis), vertical)
