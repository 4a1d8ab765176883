import numpy as np
import pytest

from carnot.algebra import ConfigurationError, preset_group
from carnot.metrics import (MultiradialProfile, bisect, check_axioms, dinf,
                            euclidean, from_profile, hebisch_sikora, koranyi)


@pytest.fixture(scope="module")
def g():
    return preset_group("heisenberg1")


class TestBisect:
    def test_contract(self):
        # thresholds sqrt(2) and sqrt(50): the second needs three doublings
        lower = lambda x: x * x < np.array([2.0, 50.0])
        lo, hi, mid = bisect(lower, np.zeros(2), np.ones(2),
                             lambda lo, hi: np.max(hi - lo) < 1e-12, 200, grow=10)
        assert np.all(lower(lo)) and not np.any(lower(hi))
        np.testing.assert_allclose(mid, np.sqrt([2.0, 50.0]), rtol=1e-12)
        # the grow cap: three doublings stop short of a threshold at 100
        lo, hi, _ = bisect(lambda x: x < 100.0, np.zeros(1), np.ones(1), None, 0, grow=3)
        assert (lo[0], hi[0]) == (4.0, 8.0)
        # a predicate on NaN values fails everywhere: no doubling, and the
        # halving closes onto lo until the stop test holds
        calls = []

        def nan_lower(x):
            calls.append(x)
            return np.full(np.shape(x), np.nan) < 1.0

        lo, hi, _ = bisect(nan_lower, np.zeros(3), np.ones(3),
                           lambda lo, hi: np.max(hi - lo) < 1e-3, 500, grow=500)
        assert np.all(lo == 0.0) and np.all(hi == 2.0 ** -10)
        assert len(calls) == 1 + 10


class TestProfiles:
    def test_dinf_radii(self, g):
        d = dinf(g, c=2.0)
        p = d.profile
        assert p.rho_i(1, []) == pytest.approx(1.0, rel=1e-9)
        # below the unit ball rim the vertical radius is 1/c^2
        assert p.rho_i(2, [0.5]) == pytest.approx(0.25, rel=1e-9)
        assert p.rho_i(2, [0.0]) == pytest.approx(0.25, rel=1e-9)

    def test_koranyi_radii(self, g):
        d = koranyi(g)
        p = d.profile
        assert p.rho_i(1, []) == pytest.approx(1.0, rel=1e-9)
        for t1 in (0.0, 0.3, 0.9):
            expected = np.sqrt((1 - t1 ** 4) / 16.0)
            assert p.rho_i(2, [t1]) == pytest.approx(expected, rel=1e-8)

    def test_rho_i_batched(self, g):
        p = koranyi(g).profile
        t = np.array([[0.0], [0.3], [0.9]])
        out = p.rho_i(2, t)
        np.testing.assert_allclose(
            out, np.sqrt((1 - t[:, 0] ** 4) / 16.0), rtol=1e-8)

    def test_invalid_profile_rejected(self, g):
        with pytest.raises(ConfigurationError):
            MultiradialProfile(group=g, evaluator=lambda t: t[..., 0] + 1.0,
                               name="offset")  # phi(0) = 1: empty interior
        with pytest.raises(ConfigurationError):
            MultiradialProfile(group=g, evaluator=lambda t: 0.0 * t[..., 0],
                               name="flat")  # never reaches 1: not coercive


class TestNorms:
    def test_dinf_norm_closed_form(self, g):
        d = dinf(g, c=2.0)
        pts = np.array([[0.3, -0.4, 0.2], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
        expected = np.maximum(np.hypot(pts[:, 0], pts[:, 1]),
                              2.0 * np.sqrt(np.abs(pts[:, 2])))
        np.testing.assert_allclose(d.norm(pts), expected, rtol=1e-9)

    def test_koranyi_norm_closed_form(self, g):
        d = koranyi(g)
        pts = np.array([[0.3, -0.4, 0.2], [2.0, 1.0, -3.0]])
        r2 = pts[:, 0] ** 2 + pts[:, 1] ** 2
        expected = (r2 ** 2 + 16.0 * pts[:, 2] ** 2) ** 0.25
        np.testing.assert_allclose(d.norm(pts), expected, rtol=1e-9)

    def test_norm_zero_at_origin(self, g):
        assert dinf(g).norm(np.zeros(3)) == 0.0

    def test_distance_left_invariance(self, g):
        d = koranyi(g)
        rng = np.random.default_rng(1)
        x, y, a = rng.uniform(-1, 1, size=(3, 3))
        lhs = d.distance(g.multiply(a, x), g.multiply(a, y))
        assert lhs == pytest.approx(d.distance(x, y), rel=1e-9)

    def test_hebisch_sikora_ball_is_euclidean(self, g):
        d = hebisch_sikora(g)
        eps = 0.5
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1, 1, size=(200, 3))
        inside = d.ball_contains(g.zero(), 1.0, pts)
        np.testing.assert_array_equal(inside,
                                      np.linalg.norm(pts, axis=1) <= eps)

    def test_euclidean_only_on_abelian(self, g):
        with pytest.raises(ConfigurationError):
            euclidean(g)
        a = preset_group("abelian:3")
        d = euclidean(a)
        assert d.norm(np.array([3.0, 4.0, 0.0])) == pytest.approx(5.0, rel=1e-9)

    def test_ball_contains_is_closed(self, g):
        d = dinf(g, c=2.0)
        assert d.ball_contains(g.zero(), 1.0, np.array([1.0, 0.0, 0.0]))
        assert not d.ball_contains(g.zero(), 1.0, np.array([1.0 + 1e-9, 0.0, 0.0]))


class TestAxiomSampler:
    def test_default_presets_pass(self, g):
        for d in (dinf(g), koranyi(g), hebisch_sikora(g)):
            assert check_axioms(d, g, n_samples=20000, seed=0).ok

    def test_euclidean_abelian_passes(self):
        a = preset_group("abelian:3")
        assert check_axioms(euclidean(a), a, n_samples=20000, seed=0).ok

    def test_dinf_c10_rejected_with_counterexample(self, g):
        d = dinf(g, c=10.0, validate=False)
        report = check_axioms(d, g, n_samples=100000, seed=0)
        assert not report.ok
        failures = report.failures()
        assert [c.name for c in failures] == ["triangle"]
        x, y, z = (np.asarray(w) for w in failures[0].witness)
        assert d.distance(x, z) > d.distance(x, y) + d.distance(y, z) + 1e-7

    def test_validation_at_construction(self, g):
        with pytest.raises(ConfigurationError, match="triangle"):
            dinf(g, c=10.0)

    def test_from_profile_rejects_invalid(self, g):
        # a vertical weight this large breaks the triangle inequality
        with pytest.raises(ConfigurationError, match="triangle"):
            from_profile(g, lambda t: np.maximum(t[..., 0], 10.0 * np.sqrt(t[..., 1])),
                         name="steep")

    def test_from_profile_custom(self, g):
        d = from_profile(g, lambda t: np.maximum(t[..., 0], 2.0 * np.sqrt(t[..., 1])),
                         name="gauge")
        assert d.norm(np.array([0.0, 0.0, 1.0])) == pytest.approx(2.0, rel=1e-9)

    def test_determinism(self, g):
        d = koranyi(g)
        a = check_axioms(d, g, n_samples=5000, seed=3)
        b = check_axioms(d, g, n_samples=5000, seed=3)
        assert [(c.name, c.worst) for c in a.checks] == \
            [(c.name, c.worst) for c in b.checks]
