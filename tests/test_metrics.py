from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carnot import metrics, randomness
from carnot.algebra import MAX_STEP, ConfigurationError, group_from_dict, preset_group
from carnot.config import distance_from_dict
from carnot.metrics import (NORM_LANES, NORM_RTOL, RHO_ATOL, MultiradialProfile, bisect,
                            check_axioms, dinf, euclidean, false_position, from_profile,
                            hebisch_sikora, koranyi)

# the filiform group of perfbench/configs/check_distance_filiform_hs.json
FILIFORM5 = {"step": 5, "layer_dims": [2, 1, 1, 1, 1],
             "bracket": [[3, 1, 2, 1], [4, 1, 3, 1], [5, 1, 4, 1], [6, 1, 5, 1]]}


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


def counted(g):
    """g with a list of its arguments, one entry per call."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return g(x)

    return wrapped, calls


def bisect_calls(roots, tol):
    """Halvings that bisect takes to close [0, 1] onto each root."""
    lower, calls = counted(lambda x: x < roots)
    bisect(lower, np.zeros(len(roots)), np.ones(len(roots)),
           lambda lo, hi: np.max(hi - lo) < tol, 200)
    return len(calls)


class TestFalsePosition:
    def test_bracket_contract(self):
        # lanes with their own tol; the third brackets downward, g(1) > 0 >= g(-1)
        roots = np.array([np.sqrt(2.0), np.log(3.0), 0.3])
        g = lambda x: np.array([2.0 - x[0] ** 2, np.exp(-x[1]) - 1.0 / 3.0,
                                (x[2] - 0.3) ** 3])
        lo, hi = false_position(g, np.array([0.0, 0.0, 1.0]), np.array([3.0, 2.0, -1.0]),
                                np.array([1e-13, 1e-9, 1e-12]), 100)
        assert np.all(np.abs(hi - lo) < [1e-13, 1e-9, 1e-12])
        assert np.all(g(lo) > 0.0) and np.all(g(hi) <= 0.0)
        np.testing.assert_allclose(lo, roots, atol=1e-9)

    def test_exact_zero_closes_the_lane(self):
        # the first secant point of 0.5 - x on [0, 1] is the root itself
        g, calls = counted(lambda x: 0.5 - x)
        lo, hi = false_position(g, np.zeros(1), np.ones(1), 1e-12, 50)
        assert (lo[0], hi[0]) == (0.5, 0.5)
        assert len(calls) == 2 + 1
        # a zero at an end closes the lane there, before any step
        g, calls = counted(lambda x: 1.0 - x)
        lo, hi = false_position(g, np.zeros(2), np.array([1.0, 2.0]), 1e-12, 50)
        assert (lo[0], hi[0]) == (1.0, 1.0) and abs(hi[1] - lo[1]) < 1e-12
        lo, hi = false_position(lambda x: 0.0 * x, np.zeros(1), np.ones(1), 1e-12, 50)
        assert (lo[0], hi[0]) == (0.0, 0.0)

    def test_linear_needs_three_steps(self):
        rng = np.random.default_rng(5)
        slope, root = rng.uniform(0.1, 5.0, 64), rng.uniform(-9.0, 9.0, 64)
        lin = lambda x: slope * (root - x)
        lo, hi = np.full(64, -10.0), np.full(64, 10.0)
        g, calls = counted(lin)
        lo, hi = false_position(g, lo, hi, 1e-12, 100, g_lo=lin(lo), g_hi=lin(hi))
        assert len(calls) <= 3
        assert np.all(np.abs(hi - lo) < 1e-12) and np.all(lo <= root) and np.all(root <= hi)

    def test_step_function_within_two_of_bisection(self):
        # a step carries no slope, so every secant point is a guess
        roots = np.random.default_rng(6).uniform(0.0, 1.0, 64)
        step = lambda x: np.where(x < roots, 1.0, -1.0)
        g, calls = counted(step)
        lo, hi = false_position(g, np.zeros(64), np.ones(64), 1e-12, 200,
                                g_lo=np.ones(64), g_hi=-np.ones(64))
        assert np.all(np.abs(hi - lo) < 1e-12) and np.all(lo < roots) and np.all(roots <= hi)
        assert len(calls) <= bisect_calls(roots, 1e-12) + 2

    def test_max_iter_caps_the_loop(self):
        g, calls = counted(lambda x: 2.0 - x ** 2)
        lo, hi = false_position(g, np.zeros(1), np.full(1, 3.0), 1e-15, 3,
                                g_lo=np.full(1, 2.0), g_hi=np.full(1, -7.0))
        assert len(calls) == 3
        assert hi[0] - lo[0] > 1e-15 and lo[0] < np.sqrt(2.0) < hi[0]

    def test_nan_and_infinite_values(self):
        # NaN counts as <= 0, the side a failed comparison gives; an infinite
        # value, as a NaN gauge mapped outside gives, falls back to midpoints
        c = np.array([0.3, 0.7])
        g = lambda x: np.where(x < c, [1.0, np.inf], [np.nan, -1.0])
        lo, hi = false_position(g, np.zeros(2), np.ones(2), 1e-12, 100)
        assert np.all(np.abs(hi - lo) < 1e-12) and np.all(lo < c) and np.all(c <= hi)


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
        t = np.array([[0.0], [0.3], [0.9], [1.5]])
        out = p.rho_i(2, t)
        # t_1 = 1.5 already leaves the unit ball: rho is 0 there
        np.testing.assert_allclose(
            out, np.sqrt(np.maximum(1 - t[:, 0] ** 4, 0.0) / 16.0), rtol=1e-8)
        assert out[3] == 0.0

    def test_cached_rho1_matches_fresh_bisection(self, g):
        for d in (dinf(g), koranyi(g), hebisch_sikora(g), dinf(g, c=1.5)):
            p = d.profile
            lower = lambda s: p(np.column_stack([s, np.zeros((1, g.step - 1))])) < 1.0
            _, _, fresh = bisect(lower, np.zeros(1), np.ones(1),
                                 lambda lo, hi: np.max(hi - lo) < RHO_ATOL, 80, grow=64)
            assert p.rho_i(1, []) == fresh[0]
            np.testing.assert_array_equal(p.rho_i(1, np.zeros((3, 0))), np.full(3, fresh[0]))

    def test_rho1_bisected_once_per_evaluator(self, g):
        d = dinf(g)
        p = d.profile
        calls = _count_profile_calls(d)
        assert p.rho_i(1, []) == pytest.approx(1.0, rel=1e-9)
        n = len(calls)
        assert n > 30
        assert p.rho_i(1, []) == pytest.approx(1.0, rel=1e-9)
        assert len(calls) == n + 1  # the domain check only
        # a new evaluator gets its own rho_1
        p.evaluator = lambda t: 2.0 * np.maximum(t[..., 0], 2.0 * np.sqrt(t[..., 1]))
        assert p.rho_i(1, []) == pytest.approx(0.5, rel=1e-9)

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

    @pytest.mark.parametrize("spec", [
        "engel",
        # the filiform group of perfbench/configs/check_distance_filiform_hs.json
        {"step": 5, "layer_dims": [2, 1, 1, 1, 1],
         "bracket": [[3, 1, 2, 1], [4, 1, 3, 1], [5, 1, 4, 1], [6, 1, 5, 1]]},
    ], ids=["engel", "filiform5"])
    def test_batched_left_invariance(self, spec):
        h = group_from_dict(spec)
        d = hebisch_sikora(h, validate=False)
        rng = np.random.default_rng(7)
        p, x, y = rng.uniform(-1, 1, size=(3, 500, h.q))
        lhs = d.distance(h.multiply(p, x), h.multiply(p, y))
        np.testing.assert_allclose(lhs, d.distance(x, y), rtol=1e-9)

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

    @pytest.mark.parametrize("r", [np.nan, np.inf, 0.0, -1.0])
    def test_ball_contains_rejects_bad_radius(self, g, r):
        # a NaN radius passes a bare r <= 0 test and would match nothing
        with pytest.raises(ValueError, match="radius"):
            dinf(g).ball_contains(g.zero(), r, np.zeros((2, 3)))

    def test_ball_contains_is_closed(self, g):
        d = dinf(g, c=2.0)
        assert d.ball_contains(g.zero(), 1.0, np.array([1.0, 0.0, 0.0]))
        assert not d.ball_contains(g.zero(), 1.0, np.array([1.0 + 1e-9, 0.0, 0.0]))


@lru_cache(maxsize=None)
def _invariance_distance(case):
    """dinf and koranyi at step 2; hebisch_sikora at steps 2, 3 and 5."""
    if case in ("dinf", "koranyi"):
        return (dinf if case == "dinf" else koranyi)(preset_group("heisenberg1"))
    spec = {"hs-heisenberg1": "heisenberg1", "hs-engel": "engel", "hs-filiform5": FILIFORM5}
    return hebisch_sikora(group_from_dict(spec[case]), validate=False)


def _drawn_point(data, q, first):
    """A point of [-1, 1]^q drawn by hypothesis, its first coordinate in `first`."""
    rest = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=q - 1, max_size=q - 1))
    return np.array([data.draw(st.floats(*first))] + rest)


INVARIANCE_CASES = ["dinf", "koranyi", "hs-heisenberg1", "hs-engel", "hs-filiform5"]


class TestInvarianceProperties:
    """Left invariance and homogeneity, through the BCH product and the norm.

    x and y are at least 0.5 apart in their first coordinate, so d(x, y) is
    not small against the rounding of the products in the top layer.
    """

    @pytest.mark.parametrize("case", INVARIANCE_CASES)
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_left_invariance(self, case, data):
        d = _invariance_distance(case)
        h = d.group
        p = _drawn_point(data, h.q, (-1.0, 1.0))
        x, y = _drawn_point(data, h.q, (-1.0, -0.25)), _drawn_point(data, h.q, (0.25, 1.0))
        assert d.distance(h.multiply(p, x), h.multiply(p, y)) == pytest.approx(
            d.distance(x, y), rel=1e-9, abs=0)

    @pytest.mark.parametrize("case", INVARIANCE_CASES)
    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_homogeneity(self, case, data):
        d = _invariance_distance(case)
        h = d.group
        lam = data.draw(st.floats(1e-3, 1e3))
        x, y = _drawn_point(data, h.q, (-1.0, -0.25)), _drawn_point(data, h.q, (0.25, 1.0))
        assert d.norm(h.dilate(lam, x)) == pytest.approx(lam * d.norm(x), rel=1e-12, abs=0)
        assert d.distance(h.dilate(lam, x), h.dilate(lam, y)) == pytest.approx(
            lam * d.distance(x, y), rel=1e-9, abs=0)


def _scattered_points(q, n, seed):
    # uniform directions in the unit box, scaled over six decades
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, (n, q)) * 10.0 ** rng.uniform(-3, 3, (n, 1))


def _reference_norm(d, x):
    """The norm by 200 halvings of a bracket grown from [0, 1]."""
    a = d.group.layer_norms(x)
    w = np.arange(1, d.group.step + 1, dtype=float)
    outside = lambda r: d.profile(a / r[:, None] ** w) > 1.0
    lo, hi = np.zeros(len(a)), np.ones(len(a))
    while np.any(grow := outside(hi)):
        lo, hi = np.where(grow, hi, lo), np.where(grow, 2.0 * hi, hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        below = outside(mid)
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


def _count_profile_calls(d):
    """Wrap the profile evaluator of `d`; the list collects one entry per call."""
    calls, inner = [], d.profile.evaluator

    def counting(t):
        calls.append(np.shape(t))
        return inner(t)

    d.profile.evaluator = counting
    return calls


class TestCertifiedNorm:
    @pytest.mark.parametrize("family", ["dinf", "koranyi"])
    def test_closed_forms(self, g, family):
        x = _scattered_points(3, 3000, seed=21)
        h2, t = x[:, 0] ** 2 + x[:, 1] ** 2, x[:, 2]
        if family == "dinf":
            d, expected = dinf(g, c=2.0), np.maximum(np.sqrt(h2), 2.0 * np.sqrt(np.abs(t)))
        else:
            d, expected = koranyi(g), (h2 ** 2 + 16.0 * t ** 2) ** 0.25
        np.testing.assert_allclose(d.norm(x), expected, rtol=1e-14, atol=0)

    @pytest.mark.parametrize("spec", ["engel", FILIFORM5], ids=["engel", "filiform5"])
    def test_hebisch_sikora_against_halving_reference(self, spec):
        h = group_from_dict(spec)
        d = hebisch_sikora(h, validate=False)
        x = _scattered_points(h.q, 2000, seed=22)
        np.testing.assert_allclose(d.norm(x), _reference_norm(d, x), rtol=1e-13, atol=0)

    @pytest.mark.parametrize("case", ["dinf", "koranyi", "hs-engel", "hs-filiform5"])
    def test_symmetry_and_homogeneity(self, g, case):
        if case.startswith("hs-"):
            h = group_from_dict("engel" if case == "hs-engel" else FILIFORM5)
            d = hebisch_sikora(h, validate=False)
        else:
            h, d = g, (dinf(g) if case == "dinf" else koranyi(g))
        rng = np.random.default_rng(23)
        x, y = rng.uniform(-1, 1, (2, 4000, h.q))
        np.testing.assert_allclose(d.distance(x, y), d.distance(y, x), rtol=1e-13, atol=0)
        base = d.norm(x)
        for lam in (1e-3, 0.37, 3.1, 1e3):
            np.testing.assert_allclose(d.norm(h.dilate(lam, x)), lam * base,
                                       rtol=1e-13, atol=0)

    def test_step_profile_falls_back_to_the_bracket(self, g):
        # phi jumps over 1 where 4 rho / r reaches 5, so the norm is 0.8 rho
        # exactly and phi is flat on both sides: no slope to step along
        rho = lambda t: np.maximum(t[..., 0], 2.0 * np.sqrt(t[..., 1]))
        d = from_profile(g, lambda t: np.floor(4.0 * rho(t)) / 4.0, name="steps",
                         validate=False)
        x = _scattered_points(3, 500, seed=24)
        expected = 0.8 * rho(g.layer_norms(x))
        err = np.abs(d.norm(x) - expected) / expected
        assert err.max() <= NORM_RTOL
        # the bracket's midpoint sqrt(lo hi) would overflow or underflow here
        for v in (1e160, 1e-160, 1e300, 1e-300):
            assert d.norm([v, 0.0, 0.0]) == pytest.approx(0.8 * v, rel=NORM_RTOL, abs=0)

    def test_batch_across_blocks_matches_single_points(self):
        h = preset_group("engel")
        d = hebisch_sikora(h, validate=False)
        x = _scattered_points(h.q, 2 * NORM_LANES + 1, seed=25)
        batch = d.norm(x)
        # three blocks of 5462, 5462 and 5461 lanes: every lane within 32 of a
        # cut or an end, every 4th lane, and slices astride each cut
        cuts = (0, 5462, 10924, len(x))
        near = np.concatenate([np.arange(max(c - 32, 0), min(c + 32, len(x))) for c in cuts])
        idx = np.union1d(near, np.arange(0, len(x), 4))
        single = np.array([d.norm(x[i]) for i in idx])
        assert batch[idx].tobytes() == single.tobytes()
        for c in cuts[1:-1]:
            assert d.norm(x[c - 700:c + 300]).tobytes() == batch[c - 700:c + 300].tobytes()

    @pytest.mark.parametrize("case", ["hs-filiform5", "steps"])
    def test_block_splits_keep_every_bit(self, g, case):
        # lanes are independent, so any split of a batch gives the same norms;
        # the floor profile has no slope, so its lanes take the fallback r
        if case == "steps":
            rho = lambda t: np.maximum(t[..., 0], 2.0 * np.sqrt(t[..., 1]))
            d = from_profile(g, lambda t: np.floor(4.0 * rho(t)) / 4.0, name="steps",
                             validate=False)
        else:
            d = hebisch_sikora(group_from_dict(FILIFORM5), validate=False)
        calls = _count_profile_calls(d)
        x = _scattered_points(d.group.q, 3 * NORM_LANES + 5, seed=28)
        whole = d.norm(x)
        # phi never sees more than two rows per lane of the largest block
        assert max(shape[0] for shape in calls) <= 2 * NORM_LANES
        rng = np.random.default_rng(29)
        for cuts in ([1, NORM_LANES, NORM_LANES + 1, 2 * NORM_LANES + 3],
                     np.sort(rng.integers(0, len(x), 5)), [len(x) - 1]):
            parts = [d.norm(part) for part in np.split(x, cuts)]
            assert np.concatenate(parts).tobytes() == whole.tobytes()

    @pytest.mark.parametrize("case", ["dinf", "hs-engel", "hs-filiform5", "steps"])
    def test_a_wrong_start_costs_rounds_only(self, g, case):
        # a start off by 1e+-3, or one that is not a positive float, gives the
        # norms of the cold start, with the same NaN and zero lanes
        if case == "steps":
            rho = lambda t: np.maximum(t[..., 0], 2.0 * np.sqrt(t[..., 1]))
            d = from_profile(g, lambda t: np.floor(4.0 * rho(t)) / 4.0, name="steps",
                             validate=False)
        elif case == "dinf":
            d = dinf(g)
        else:
            d = hebisch_sikora(group_from_dict("engel" if case == "hs-engel" else FILIFORM5),
                               validate=False)
        x = _scattered_points(d.group.q, 3000, seed=30)
        x[:20] = 0.0
        x[20:40, -1] = np.nan
        x[40:60, 0] = np.inf
        cold = d.norm(x)
        rng = np.random.default_rng(31)
        with np.errstate(invalid="ignore"):  # 0 * inf on the zero lanes
            mixed = cold * rng.choice([1e-3, 1.0, 1e3, 0.0, -1.0, np.nan, np.inf], len(x))
        for start in (1e3 * cold, 1e-3 * cold, 0.0, np.nan, np.inf, -np.inf, mixed):
            warm = d.norm(x, start=start)
            assert np.isnan(warm).tolist() == np.isnan(cold).tolist()
            assert (warm == 0.0).tolist() == (cold == 0.0).tolist()
            ok = np.isfinite(cold) & (cold > 0.0)
            np.testing.assert_allclose(warm[ok], cold[ok], rtol=NORM_RTOL, atol=0)
        assert d.norm(x[100], start=np.nan) == cold[100]
        assert d.norm(x[100], start=7.0) == pytest.approx(cold[100], rel=NORM_RTOL, abs=0)

    def test_the_mirror_start_needs_one_round(self):
        # y^-1 x = (x^-1 y)^-1 has the norm d(x, y): one round per block certifies it
        h = group_from_dict(FILIFORM5)
        d = hebisch_sikora(h, validate=False)
        x, y = np.random.default_rng(32).uniform(-1, 1, (2, 20000, h.q))
        dxy = d.distance(x, y)
        calls = _count_profile_calls(d)
        dyx = d.distance(y, x, start=dxy)
        assert len(calls) == -(-len(x) // NORM_LANES)
        np.testing.assert_allclose(dyx, dxy, rtol=1e-14, atol=0)

    def test_non_finite_and_extreme_points(self, g):
        d, hs = dinf(g), hebisch_sikora(g)
        for bad in ([np.nan, 0, 0], [np.inf, 0, 0], [0, -np.inf, 0], [0, 0, np.nan]):
            assert np.isnan(d.norm(bad)) and np.isnan(hs.norm(bad))
        # beyond the 2^80 growth cap the old search stopped at
        assert d.norm([1e30, 0, 0]) == pytest.approx(1e30, rel=1e-14)
        assert hs.norm([1e30, 0, 0]) == pytest.approx(2e30, rel=1e-14)
        assert d.norm([0, 0, 1e30]) == pytest.approx(2e15, rel=1e-14)
        assert hs.norm([0, 0, 1e30]) == pytest.approx(np.sqrt(2e30), rel=1e-14)
        assert d.norm([1e-30, 0, 0]) == pytest.approx(1e-30, rel=1e-14, abs=0)
        # step 5: the powers r^1..r^5 and their clamp at the extremes
        h = group_from_dict(FILIFORM5)
        hf = hebisch_sikora(h, validate=False)
        for v in (1e30, 1e-30):
            first, top = np.zeros(h.q), np.zeros(h.q)
            first[0] = top[-1] = v
            assert hf.norm(first) == pytest.approx(2.0 * v, rel=1e-14, abs=0)
            assert hf.norm(top) == pytest.approx((2.0 * v) ** 0.2, rel=1e-14, abs=0)
        # a batch keeps its finite points
        out = d.norm(np.array([[0.3, 0, 0], [np.nan, 0, 0], [0, 0, 0], [1, np.inf, 0]]))
        assert out[0] == pytest.approx(0.3, rel=1e-14) and out[2] == 0.0
        assert np.isnan(out[1]) and np.isnan(out[3])

    @pytest.mark.parametrize("family, point, expected", [
        ("dinf", [0, 0, 1e-200], 2e-100),
        ("dinf", [0, 0, 1e-160], 2e-80),
        ("dinf", [0, 0, 1e300], 2e150),
        ("hebisch_sikora", [1e300, 0, 0], 2e300),
        ("filiform5", [0, 0, 0, 0, 0, 1e-200], 2e-200 ** 0.2),
    ], ids=["dinf-1e-200", "dinf-1e-160", "dinf-1e300", "hs-1e300", "hs-filiform5-1e-200"])
    def test_layer_squares_past_the_float_range(self, g, family, point, expected):
        # a layer's sum of squares underflows or overflows; its norm does not
        if family == "filiform5":
            d = hebisch_sikora(group_from_dict(FILIFORM5), validate=False)
        else:
            d = dinf(g) if family == "dinf" else hebisch_sikora(g)
        assert d.norm(point) == pytest.approx(expected, rel=1e-14, abs=0)

    def test_distinct_points_a_tiny_step_apart(self, g):
        x, y = [0.3, 0.1, 0.0], [0.3, 0.1, 1e-200]
        assert dinf(g).distance(x, y) == pytest.approx(2e-100, rel=1e-14, abs=0)

    def test_a_point_never_certified_is_nan(self, g):
        # a profile that never exceeds 1 leaves every bracket open
        d = dinf(g, validate=False)
        d.profile.evaluator = lambda t: np.full(np.shape(t)[:-1], 0.5)
        assert np.isnan(d.norm([1.0, 0.0, 0.0]))
        # 2 rho is finite and outside at r < 1.25 but NaN beyond it, so the
        # bracket would close on 1.25 with no point ever found inside
        inner = dinf(g, validate=False).profile.evaluator
        d.profile.evaluator = lambda t: np.where(t[..., 0] < 0.8, np.nan, 2.0 * inner(t))
        assert np.isnan(d.norm([1.0, 0.0, 0.0]))

    def test_nan_norms_fail_the_axiom_check(self, g):
        # phi is NaN on part of the unit sphere, past its validation
        d = dinf(g, validate=False)
        inner = d.profile.evaluator
        d.profile.evaluator = lambda t: np.where(t[..., 1] > 0.2, np.nan, inner(t))
        assert np.isnan(d.norm([0.0, 0.0, 1.0]))
        report = check_axioms(d, g, n_samples=2000, seed=0)
        assert not report.ok
        assert np.isnan({c.name: c for c in report.checks}["triangle"].worst)

    def test_profile_rounds(self, g):
        # a closed-form profile is certified in one round after the start
        d = dinf(g)
        calls = _count_profile_calls(d)
        x = np.random.default_rng(26).uniform(-1, 1, (20000, 3))
        d.norm(x)
        blocks = -(-len(x) // NORM_LANES)
        assert len(calls) == blocks * (1 + 1)
        # hebisch_sikora: a start and at most 6 rounds per block on engel and
        # 7 on filiform (21 and 22 calls over the 3 blocks)
        for spec, rounds in (("engel", 6), (FILIFORM5, 7)):
            h = group_from_dict(spec)
            d = hebisch_sikora(h, validate=False)
            calls = _count_profile_calls(d)
            d.norm(np.random.default_rng(27).uniform(-1, 1, (20000, h.q)))
            assert len(calls) <= blocks * (1 + rounds)


@pytest.mark.parametrize("step", range(1, MAX_STEP + 1))
def test_hebisch_sikora_profile_bits(step):
    # the evaluator sums its squares column by column, with the bits of a sum
    # over the last axis, on rows (a ball gauge) and on columns (the norm)
    h = group_from_dict({"step": step, "layer_dims": [2] + [1] * (step - 1),
                         "bracket": [[k + 1, 1, k, 1] for k in range(2, step + 1)]})
    d = hebisch_sikora(h, validate=False)
    rng = np.random.default_rng(step)
    t = np.abs(rng.standard_normal((4000, step))) * 10.0 ** rng.uniform(-200, 200, (4000, step))
    t[rng.random(t.shape) < 0.2] = 0.0
    t[:3, -1] = [np.inf, np.nan, 1e-320]
    with np.errstate(all="ignore"):
        expected = np.sqrt(np.sum(t ** 2, axis=-1)) / 0.5
        for view in (t, np.asfortranarray(t)):
            assert d.profile(view).tobytes() == expected.tobytes()


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

    def test_nan_in_a_random_block_fails_the_check(self, g):
        d = from_profile(g, lambda t: np.sqrt(np.sum(t ** 2, axis=-1)) / 0.5,
                         name="hs", validate=False)
        finite = d.norm

        def norm(x, start=None):
            # the probes, basis vectors and their products, have x1 in {0, +-1, +-2}
            x = np.asarray(x, dtype=float)
            out = np.where((0.25 < x[..., 0]) & (x[..., 0] < 0.75), np.nan, finite(x, start))
            return float(out) if x.ndim == 1 else out

        d.norm = norm
        report = check_axioms(d, g, n_samples=2000, seed=0)
        checks = {c.name: c for c in report.checks}
        assert np.isnan(checks["triangle"].worst)
        assert not checks["triangle"].ok and not checks["symmetry"].ok
        assert not report.ok

    def test_an_asymmetric_product_fails_symmetry(self):
        # y^-1 x is (x^-1 y)^-1 dilated by 1 + 1e-3 on some lanes: the start
        # d(x, y) must not certify d(y, x) there
        h = group_from_dict(FILIFORM5)
        d = hebisch_sikora(h, validate=False)
        product = h.multiply

        def skewed(p, q):
            out = product(p, q)
            lanes = np.asarray(p)[..., :1] > 0.5
            return np.where(lanes, h.dilate(1.0 + 1e-3, out), out)

        h.multiply = skewed
        report = check_axioms(d, n_samples=3000, seed=0)
        symmetry = {c.name: c for c in report.checks}["symmetry"]
        assert not symmetry.ok and symmetry.worst > 1e-4

    def test_determinism(self, g):
        d = koranyi(g)
        a = check_axioms(d, g, n_samples=5000, seed=3)
        b = check_axioms(d, g, n_samples=5000, seed=3)
        assert [(c.name, c.worst) for c in a.checks] == \
            [(c.name, c.worst) for c in b.checks]


def looped_axiom_report(d, n_samples, seed):
    """check_axioms with every canonical probe pair evaluated on its own.

    The probes are (x, y) = (+-e_i, e_j) in the order i, j, sign; each is
    scored as ||x*y|| - ||x|| - ||y|| with the witness (0, x, x*y).  A
    non-finite score wins and is kept, else a strictly larger one replaces
    the current worst.  The random blocks follow the same rule, d(y, x)
    started at d(x, y) and the dilated pair at r d(x, y), as in check_axioms.
    """
    g = d.group
    checks = {}

    def update(name, worst, witness):
        cur = checks.get(name)
        if cur is not None and not np.isfinite(cur[0]):
            return
        if cur is None or not np.isfinite(worst) or worst > cur[0]:
            checks[name] = (worst, witness)

    for i in range(1, g.q + 1):
        for j in range(1, g.q + 1):
            for si in (1.0, -1.0):
                x, y = si * g.basis_vector(i), g.basis_vector(j)
                xy = g.multiply(x, y)
                update("triangle", d.norm(xy) - d.norm(x) - d.norm(y),
                       (np.zeros(g.q).tolist(), x.tolist(), xy.tolist()))

    rng = randomness.stream(seed, randomness.OP_AXIOMS)
    for lo in range(0, n_samples, 20000):
        n = min(20000, n_samples - lo)
        X, Y, Z = (rng.uniform(-1, 1, (n, g.q)) for _ in range(3))
        r = rng.uniform(0.1, 2.0, n)
        dxy, dyz, dxz = d.distance(X, Y), d.distance(Y, Z), d.distance(X, Z)
        for k, viol in enumerate(dxz - dxy - dyz):
            update("triangle", viol, (X[k].tolist(), Y[k].tolist(), Z[k].tolist()))
        for k, sym in enumerate(np.abs(dxy - d.distance(Y, X, start=dxy))):
            update("symmetry", sym, (X[k].tolist(), Y[k].tolist()))
        Xr = np.stack([g.dilate(ri, xi) for ri, xi in zip(r[:64], X[:64])])
        Yr = np.stack([g.dilate(ri, yi) for ri, yi in zip(r[:64], Y[:64])])
        rd = r[:64] * dxy[:64]
        for k, hom in enumerate(np.abs(d.distance(Xr, Yr, start=rd) - rd)):
            update("homogeneity", hom, (X[k].tolist(), Y[k].tolist(), float(r[k])))
    return sorted(checks.items())


class TestProbeBatching:
    """The batched probe pass reports what the per-pair loop reports, bit for bit."""

    @pytest.mark.parametrize("case", ["dinf10-heisenberg1", "hebisch_sikora-filiform"])
    @pytest.mark.parametrize("n_samples", [0, 3000])
    def test_report_matches_per_pair_loop(self, g, case, n_samples):
        if case == "dinf10-heisenberg1":
            d = dinf(g, c=10.0, validate=False)
        else:
            d = hebisch_sikora(group_from_dict(FILIFORM5), validate=False)
        report = check_axioms(d, n_samples=n_samples, seed=4)
        expected = looped_axiom_report(d, n_samples, seed=4)
        assert [c.name for c in report.checks] == [name for name, _ in expected]
        for c, (name, (worst, witness)) in zip(report.checks, expected):
            assert np.float64(c.worst).tobytes() == np.float64(worst).tobytes(), name
            assert c.witness == witness, name
        if case == "dinf10-heisenberg1":
            assert [c.name for c in report.failures()] == ["triangle"]


class TestAxiomMemo:
    """The construction-time verdict is computed once per family, parameter and group."""

    @pytest.fixture
    def calls(self, monkeypatch):
        seen = []
        original = metrics.check_axioms

        def recording(d, *args, **kwargs):
            seen.append(d.name)
            return original(d, *args, **kwargs)

        monkeypatch.setattr(metrics, "_axiom_memo", {})
        monkeypatch.setattr(metrics, "check_axioms", recording)
        return seen

    def test_keyed_on_parameter_and_bracket(self, g, calls):
        dinf(g, 2.0)
        dinf(g, 2.0)
        assert len(calls) == 1
        # the same name, "dinf(2)", but another parameter
        dinf(g, 2.0000001)
        assert len(calls) == 2
        half = group_from_dict({"step": 2, "layer_dims": [2, 1], "bracket": [[3, 1, 2, 0.5]]})
        dinf(half, 2.0)
        assert len(calls) == 3
        koranyi(g, 2.0)
        assert len(calls) == 4
        dinf(g, 2.0)
        dinf(half, 2.0)
        assert len(calls) == 4

    def test_failing_verdict_raises_the_same_message(self, g, calls):
        messages = []
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="triangle") as exc:
                dinf(g, 10.0)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert len(calls) == 1

    def test_config_profiles_keyed_on_expression(self, g, calls):
        spec = {"family": "profile", "params": {"expr": "max(t1, 2*sqrt(t2))"}}
        distance_from_dict(g, spec)
        distance_from_dict(g, spec)
        assert len(calls) == 1
        bad = {"family": "profile", "params": {"expr": "max(t1, 10*sqrt(t2))"}}
        for _ in range(2):
            with pytest.raises(ConfigurationError, match="triangle"):
                distance_from_dict(g, bad)
        assert len(calls) == 2

    def test_callables_never_share_a_verdict(self, g, calls):
        good = lambda t: np.maximum(t[..., 0], 2.0 * np.sqrt(t[..., 1]))
        bad = lambda t: np.maximum(t[..., 0], 10.0 * np.sqrt(t[..., 1]))
        from_profile(g, good, name="E")
        from_profile(g, good, name="E")
        assert len(calls) == 2
        # the same name does not let a failing evaluator reuse a pass
        with pytest.raises(ConfigurationError, match="triangle"):
            from_profile(g, bad, name="E")
        assert len(calls) == 3 and metrics._axiom_memo == {}

    def test_unvalidated_builds_skip_the_memo(self, g, calls):
        dinf(g, 10.0, validate=False)
        assert calls == [] and metrics._axiom_memo == {}

    def test_bounded_least_recently_used(self, g, calls, monkeypatch):
        monkeypatch.setattr(metrics, "AXIOM_MEMO_SIZE", 2)
        for c in (1.0, 1.5, 1.0, 1.25, 1.0, 1.5):
            dinf(g, c)
        # 1.25 evicted 1.5, the least recently used
        assert calls == ["dinf(1)", "dinf(1.5)", "dinf(1.25)", "dinf(1.5)"]
        assert len(metrics._axiom_memo) == 2
