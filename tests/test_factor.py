import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from scipy import integrate

from carnot.algebra import (ConfigurationError, GradedGroup, preset_group,
                            structure_constants_from_sparse)
from carnot.factor import (MAX_QUAD_ROWS, _gl_sin_rule, convex_normal_check, random_subspace,
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
        (koranyi, 16.0, 0.87401918474219742, 4.4849851334007061e-10),
        (hebisch_sikora, 0.5, 0.78539816340842594, 3.1699566316496921e-10),
    ], ids=["koranyi", "hebisch_sikora"])
    def test_vertical_plane_bits(self, heis, vertical, distance, param, beta, beta_error):
        # pinned to the bit; the cached rho_1 and rule must not move them
        for _ in range(2):
            rep = spherical_factor(distance(heis, param), vertical)
            assert (repr(rep.beta), repr(rep.beta_error)) == (repr(beta), repr(beta_error))

    @pytest.mark.parametrize("group, distance, span, truth", [
        ("heisenberg1", dinf, [[0, 1, 0], [0, 0, 1]], 1.0),
        ("abelian:3", euclidean, [[1, 0, 0], [0, 1, 0]], np.pi),
        ("engel", hebisch_sikora, np.eye(4)[1:], np.pi / 6),
        ("heisenberg1", koranyi, [[0, 0, 1]], 0.5),  # W = H_1: a 2-D search
    ], ids=["dinf-vertical", "euclidean-plane", "hebisch_sikora-engel",
            "koranyi-center"])
    def test_closed_forms(self, group, distance, span, truth):
        g = preset_group(group)
        rep = spherical_factor(distance(g), subspace_from_vectors(g, span))
        assert rep.method == "nested_quadrature"
        assert 0.0 < rep.beta_error < 1e-6
        assert abs(rep.beta - truth) <= 3 * rep.beta_error
        assert abs(rep.center_gap) <= 3 * rep.gap_error

    @pytest.mark.parametrize("group, distance, span", [
        ("heisenberg1", koranyi, [[0, 0, 1]]),
        ("heisenberg1", dinf, [[0, 1, 0], [0, 0, 1]]),
        ("engel", hebisch_sikora, np.eye(4)[1:]),
    ], ids=["koranyi-center", "dinf-vertical", "hebisch_sikora-engel"])
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
        # V = span{e1} misses the centre, so no reduction applies
        V = subspace_from_dict(heis, "horizontal_x_axis")
        rep = spherical_factor(dinf(heis), V, n_starts=2, n_mc=20000, seed=0)
        assert rep.method == "mc"
        assert abs(rep.beta - 2.0) <= 3 * rep.beta_error
        # the Monte Carlo search is unchanged, bit for bit
        assert (rep.beta, rep.beta_error) == (2.00018, 0.004472135936887429)
        assert (rep.center_gap, rep.gap_error) == (0.0031199999999997896,
                                                   0.0063245518908457065)
        assert rep.argmax_center.tolist() == [0.30561386533970214, 0.012530826440225724,
                                              0.1362425199729119]


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

    def test_convex_flag_required(self, heis, vertical):
        with pytest.raises(ConfigurationError, match="convex"):
            convex_normal_check(koranyi(heis), vertical)
