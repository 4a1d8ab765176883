import tracemalloc
import warnings
from fractions import Fraction
from math import factorial

import numpy as np
import pytest

from carnot.algebra import (ATOL, CHUNK_COLUMNS, MAX_STEP, ConfigurationError, GradedGroup,
                            StructureConstants, _dynkin_words, _suffix_plan, group_from_dict,
                            group_law_checks, preset_group,
                            structure_constants_from_sparse, validate_grading)
from carnot.metrics import NORM_LANES, hebisch_sikora


def heis():
    return preset_group("heisenberg1")


class TestDynkinWords:
    def test_low_degree_coefficients(self):
        # "yx" is merged into "xy": [y,x] = -[x,y]
        words = dict(_dynkin_words(2))
        assert words == {"x": 1.0, "y": 1.0, "xy": 0.5}

    def test_degree_three_coefficients(self):
        # [x,[x,y]]/12 - [y,[x,y]]/12, the merged "xyx" and "yyx"
        words = dict(_dynkin_words(3))
        assert words["xxy"] == 1 / 12 and words["yxy"] == -1 / 12
        assert "xyx" not in words and "yyx" not in words

    def test_word_count_is_stable(self):
        assert len(_dynkin_words(2)) == 3
        assert len(_dynkin_words(6)) == 27
        assert all(w in ("x", "y") or w.endswith("xy") for w, _ in _dynkin_words(6))


def _free_product(p, q, degree):
    """Product of two polynomials {word: Fraction} in noncommuting x, y, through `degree`."""
    out = {}
    for u, a in p.items():
        for v, b in q.items():
            if len(u) + len(v) <= degree:
                out[u + v] = out.get(u + v, 0) + a * b
    return out


def _log_exp_exp(degree):
    """log(exp(x) exp(y)) in the free associative algebra on {x, y}, through `degree`."""
    exp_x, exp_y = ({letter * k: Fraction(1, factorial(k)) for k in range(degree + 1)}
                    for letter in "xy")
    z = _free_product(exp_x, exp_y, degree)
    del z[""]  # exp(x) exp(y) = 1 + z
    out, power = {}, {"": Fraction(1)}
    for n in range(1, degree + 1):
        power = _free_product(power, z, degree)
        for w, c in power.items():
            out[w] = out.get(w, 0) + Fraction((-1) ** (n - 1), n) * c
    return {w: c for w, c in out.items() if c}


def _right_nested(word):
    """The right-nested bracket of `word`, last letter innermost, as {word: int}."""
    value = {word[-1]: 1}
    for letter in word[-2::-1]:
        out = {}
        for w, c in value.items():
            out[letter + w] = out.get(letter + w, 0) + c
            out[w + letter] = out.get(w + letter, 0) - c
        value = out
    return value


@pytest.mark.parametrize("step", range(2, MAX_STEP + 1))
def test_words_sum_to_log_of_exp_product(step):
    # an oracle that shares no code with Dynkin's formula: the words' brackets,
    # expanded into associative words, sum to log(exp(x) exp(y)) exactly
    series = {}
    for word, c in _dynkin_words(step):
        exact = Fraction(c).limit_denominator(10 ** 6)  # denominators are at most 2160
        assert float(exact) == c != 0
        for w, k in _right_nested(word).items():
            series[w] = series.get(w, 0) + exact * k
    assert {w: c for w, c in series.items() if c} == _log_exp_exp(step)


def reference_product(g, p, q):
    """Word-by-word BCH: every Dynkin word rebuilds its whole bracket chain."""
    p, q = np.broadcast_arrays(np.atleast_2d(p), np.atleast_2d(q))
    terms = [(k, i, j, g.sc.bracket[k, i, j])
             for k, i, j in zip(*np.nonzero(np.abs(g.sc.bracket) > ATOL))]
    out = np.zeros(p.shape)
    for word, c in _dynkin_words(g.step):
        v = p if word[-1] == "x" else q
        for letter in word[-2::-1]:
            a, b, v = (p if letter == "x" else q), v, np.zeros(p.shape)
            for k, i, j, ck in terms:
                v[:, k] += ck * a[:, i] * b[:, j]
        out += c * v
    return out


# free nilpotent algebras whose upper layers have more than one row:
# name -> (step, layer_dims, 1-based [k, i, j, value] entries)
WIDE_GROUPS = {
    "free3-rank2": (3, (2, 1, 2), [[3, 1, 2, 0.7], [4, 1, 3, -1.3], [5, 1, 3, 0.5],
                                   [5, 2, 3, 2.1]]),
    "free2-rank3": (2, (3, 3), [[4, 1, 2, 0.7], [6, 1, 2, -0.4], [5, 1, 3, -1.3],
                                [6, 2, 3, 2.1], [4, 2, 3, 0.3]]),
}


@pytest.fixture(scope="module", params=[2, 3, 4, 5, 6, *WIDE_GROUPS],
                ids=lambda s: f"step{s}" if isinstance(s, int) else s)
def stepped(request):
    """Filiform group [e1, e_k] = c_k e_{k+1}, k = 2..step, or a WIDE_GROUPS entry.

    Constants other than 1 make a change of operand order show in the bits.
    """
    if request.param in WIDE_GROUPS:
        return GradedGroup(structure_constants_from_sparse(*WIDE_GROUPS[request.param]))
    step = request.param
    return GradedGroup(structure_constants_from_sparse(
        step, (2,) + (1,) * (step - 1),
        [[k + 1, 1, k, c] for k, c in zip(range(2, step + 1), (0.7, -1.3, 2.1, 0.3, 1.7))]))


class TestSharedSuffixProduct:
    """The product must equal word-by-word evaluation to the last bit."""

    def test_plan_sizes(self):
        assert [len(_suffix_plan(s)[0]) for s in range(2, 7)] == [1, 3, 5, 13, 29]

    @staticmethod
    def assert_identical(g, p, q):
        out = g.multiply(p, q)
        ref = reference_product(g, p, q)
        if np.ndim(p) == 1 and np.ndim(q) == 1:
            ref = ref[0]
        assert out.shape == ref.shape and out.flags.c_contiguous
        assert out.tobytes() == ref.tobytes()

    def test_random_batches_across_blocks(self, stepped):
        rng = np.random.default_rng(21)
        for n in (1, 5, 3000):
            p, q = rng.standard_normal((2, n, stepped.q))
            self.assert_identical(stepped, p, q)

    def test_signed_zeros(self, stepped):
        rng = np.random.default_rng(22)
        p, q = rng.choice([0.0, -0.0, 1.0, -0.5], size=(2, 400, stepped.q))
        self.assert_identical(stepped, p, q)
        self.assert_identical(stepped, -np.zeros(stepped.q), -np.zeros(stepped.q))

    def test_single_points(self, stepped):
        rng = np.random.default_rng(23)
        p, q = rng.uniform(-2, 2, size=(2, stepped.q))
        self.assert_identical(stepped, p, q)
        self.assert_identical(stepped, p[None, :], q)

    def test_broadcast_left_factor(self, stepped):
        # ball_contains and the spherical factor translate a batch by one center
        rng = np.random.default_rng(24)
        center = rng.uniform(-1, 1, size=(1, stepped.q))
        self.assert_identical(stepped, center, rng.uniform(-1, 1, size=(2500, stepped.q)))


class TestGradedStages:
    def test_bracket_terms_per_block(self):
        # the shared-suffix plan over every sparse entry makes 2, 12 and 104
        filiform = group_from_dict({"step": 5, "layer_dims": [2, 1, 1, 1, 1], "bracket": [
            [3, 1, 2, 1], [4, 1, 3, 1], [5, 1, 4, 1], [6, 1, 5, 1]]})
        counts = [sum(len(brackets) * len(entries) for _, brackets, entries, _ in g._stages)
                  for g in (heis(), preset_group("engel"), filiform)]
        assert counts == [2, 6, 28]


class TestNonFiniteFactors:
    """A NaN or infinite coordinate in either factor never gives a finite result.

    Which coordinates come out NaN rather than infinite is not pinned: the
    product skips bracket terms whose inner operand is zero by grading.
    """

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_product_and_distance(self, stepped, bad):
        d = hebisch_sikora(stepped, validate=False)
        rng = np.random.default_rng(25)
        # row k of `broken` has its k-th coordinate replaced
        broken = rng.uniform(-1, 1, size=(stepped.q, stepped.q))
        np.fill_diagonal(broken, bad)
        finite = rng.uniform(-1, 1, size=(stepped.q, stepped.q))
        with np.errstate(invalid="ignore"):  # inf - inf and inf * 0 are expected
            for a, b in ((broken, finite), (finite, broken)):
                assert not np.isfinite(stepped.multiply(a, b)).all(axis=1).any()
                assert np.isnan(d.distance(a, b)).all()
                for pa, pb in zip(a, b):
                    assert not np.isfinite(stepped.multiply(pa, pb)).all()
                    assert np.isnan(d.distance(pa, pb))


class TestHeisenbergLaw:
    def test_closed_form_product(self):
        g = heis()
        p = g.point(1.0, 2.0, 3.0)
        q = g.point(-0.5, 4.0, 1.0)
        out = g.multiply(p, q)
        x, y, t = p
        a, b, c = q
        expected = [x + a, y + b, t + c + 0.5 * (x * b - y * a)]
        np.testing.assert_allclose(out, expected, atol=1e-14)

    def test_batched_product_matches_scalar(self):
        g = heis()
        rng = np.random.default_rng(3)
        P = rng.standard_normal((40, 3))
        Q = rng.standard_normal((40, 3))
        batched = g.multiply(P, Q)
        rows = np.stack([g.multiply(p, q) for p, q in zip(P, Q)])
        np.testing.assert_array_equal(batched, rows)

    def test_inverse_and_identity(self):
        g = heis()
        p = g.point(0.3, -0.7, 2.0)
        np.testing.assert_allclose(g.multiply(p, g.inverse(p)), 0.0, atol=1e-15)
        np.testing.assert_allclose(g.multiply(g.zero(), p), p, atol=1e-15)

    def test_dilation_weights(self):
        g = heis()
        out = g.dilate(2.0, g.point(1.0, 1.0, 1.0))
        np.testing.assert_allclose(out, [2.0, 2.0, 4.0])

    @pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_dilation_refuses_bad_factors(self, r):
        # a NaN factor passes a bare r <= 0 test and would give NaN coordinates
        with pytest.raises(ValueError, match="dilation factor"):
            heis().dilate(r, heis().point(1.0, 1.0, 1.0))

    def test_hausdorff_dimension(self):
        assert heis().Q == 4
        assert preset_group("engel").Q == 7
        assert preset_group("abelian:5").Q == 5


class TestHigherStep:
    def test_step4_filiform_associativity(self):
        # [e1,e2]=e3, [e1,e3]=e4, [e1,e4]=e5 exercises the degree-4 terms
        sc = structure_constants_from_sparse(
            4, (2, 1, 1, 1), [[3, 1, 2, 1.0], [4, 1, 3, 1.0], [5, 1, 4, 1.0]])
        g = GradedGroup(sc)
        rng = np.random.default_rng(0)
        x, y, z = rng.uniform(-1, 1, size=(3, 200, g.q))
        lhs = g.multiply(g.multiply(x, y), z)
        rhs = g.multiply(x, g.multiply(y, z))
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)

    def test_engel_law_suites(self):
        checks = group_law_checks(preset_group("engel"), n_samples=2000, seed=5)
        assert all(c.ok for c in checks)
        assert {c.name for c in checks} == {
            "associativity", "inverse", "identity", "dilation_homomorphism"}


class TestValidation:
    def test_jacobi_violation_detected(self):
        # cyclic sum on (e1,e2,e3) is [e1,e4] + [e3,e4] = 2 e5, not zero
        sc = structure_constants_from_sparse(
            3, (3, 1, 1), [[4, 1, 2, 1.0], [4, 2, 3, 1.0],
                           [5, 1, 4, 1.0], [5, 3, 4, 1.0]])
        report = validate_grading(sc)
        assert not report.ok
        assert any("jacobi" in v for v in report.violations)

    def test_jacobi_violations_listed_in_index_order(self):
        # free step-2 on e1, e2, e3 with three layer-3 brackets that break Jacobi
        # on (e1, e2, e3) along e7, e8 and e9; the list stops at 10
        sc = structure_constants_from_sparse(3, (3, 3, 3), [
            [4, 1, 2, 1.0], [5, 2, 3, 1.0], [6, 1, 3, 1.0],
            [7, 1, 5, 1.0], [8, 2, 6, 1.0], [9, 3, 4, 1.0]])
        triples = ["e1,e2,e3", "e1,e3,e2", "e2,e1,e3", "e2,e3,e1", "e3,e1,e2", "e3,e2,e1"]
        expected = [f"jacobi: cyclic sum on ({t}) has residue on e{b}"
                    for b in (7, 8) for t in triples][:10]
        assert validate_grading(sc).violations == expected

    def test_dimension_64_validates_in_little_memory(self):
        # 16 commuting copies of engel: [a, b] = c, [a, c] = d in each
        entries = []
        for m in range(16):
            a, b, c, d = 2 * m + 1, 2 * m + 2, 33 + m, 49 + m
            entries += [[c, a, b, 1.0], [d, a, c, 1.0]]
        sc = structure_constants_from_sparse(3, (32, 16, 16), entries)
        tracemalloc.start()
        try:
            report = validate_grading(sc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok, report.violations
        assert peak < 20e6  # one dense q^4 Jacobi term alone is 134 MB

    @pytest.mark.parametrize("pair", [(np.nan, np.nan), (np.inf, -np.inf),
                                      (-np.inf, np.inf), (np.nan, -1.0)],
                             ids=["nan", "inf", "-inf", "nan-one-side"])
    def test_non_finite_constants_rejected(self, pair):
        # every other test compares abs(x) > ATOL, which is False for NaN,
        # and inf + -inf is NaN, so the antisymmetry test passes both
        c = np.zeros((3, 3, 3))
        c[2, 0, 1], c[2, 1, 0] = pair
        report = validate_grading(StructureConstants(2, (2, 1), c))
        assert not report.ok
        assert report.violations[0].startswith("non-finite: c[2][0][1]")
        with pytest.raises(ConfigurationError, match="non-finite"):
            GradedGroup(StructureConstants(2, (2, 1), c))

    def test_grading_violation_detected(self):
        sc = structure_constants_from_sparse(2, (2, 1), [[1, 1, 2, 1.0]])
        report = validate_grading(sc)
        assert not report.ok
        assert any("grading" in v for v in report.violations)

    def test_bad_group_rejected_at_construction(self):
        sc = structure_constants_from_sparse(2, (2, 1), [[2, 1, 3, 1.0]])
        with pytest.raises(ConfigurationError):
            GradedGroup(sc)

    def test_out_of_range_entry(self):
        with pytest.raises(ConfigurationError, match="outside"):
            structure_constants_from_sparse(2, (2, 1), [[9, 1, 2, 1.0]])

    def test_unknown_dict_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown group keys"):
            group_from_dict({"step": 2, "layer_dims": [2, 1], "brackets": []})

    def test_extra_keys_next_to_preset_rejected(self):
        with pytest.raises(ConfigurationError, match="typo"):
            group_from_dict({"preset": "engel", "typo": 1})

    def test_unknown_preset(self):
        with pytest.raises(ConfigurationError, match="preset"):
            preset_group("free:nope")

    def test_non_integer_abelian_dimension(self):
        with pytest.raises(ConfigurationError, match="abelian"):
            preset_group("abelian:x")


def test_group_from_dict_matches_preset():
    g = group_from_dict({"step": 2, "layer_dims": [2, 1],
                         "bracket": [[3, 1, 2, 1.0]]})
    h = heis()
    p = [0.1, 0.2, 0.3]
    q = [0.4, 0.5, 0.6]
    np.testing.assert_array_equal(g.multiply(p, q), h.multiply(p, q))


def test_bracket_matches_dense_tensor():
    g = preset_group("engel")
    rng = np.random.default_rng(11)
    a = rng.standard_normal((64, g.q))
    b = rng.standard_normal((64, g.q))
    dense = np.einsum("kij,ni,nj->nk", g.sc.bracket, a, b)
    np.testing.assert_allclose(g.bracket(a, b), dense, atol=1e-13)


def test_layer_norms_match_manual():
    g = preset_group("engel")
    rng = np.random.default_rng(12)
    a = rng.standard_normal((64, g.q))
    manual = np.stack([np.sqrt(np.sum(a[:, s:e] ** 2, axis=1))
                       for s, e in zip(g.layer_starts, g.layer_ends)], axis=1)
    np.testing.assert_allclose(g.layer_norms(a), manual, rtol=1e-15)


def test_layer_norms_at_the_float_extremes():
    # sums of squares that underflow or overflow are scaled; a zero, infinite
    # or NaN layer keeps its norm
    g = preset_group("engel")
    x = np.array([[1e-200, -1e-200, 1e-160, 1e300],
                  [3e300, 4e300, 0.0, -1e-320],
                  [0.0, 0.0, np.inf, np.nan],
                  [np.inf, 1.0, 0.0, 0.0]])
    out = g.layer_norms(x)
    np.testing.assert_allclose(out[:2], [[np.sqrt(2.0) * 1e-200, 1e-160, 1e300],
                                         [5e300, 0.0, 1e-320]], rtol=1e-15)
    assert out[2, 0] == 0.0 and out[2, 1] == np.inf and np.isnan(out[2, 2])
    assert out[3].tolist() == [np.inf, 0.0, 0.0]


class TestQuotientLayerNorms:
    """The rows kernel is the layer norms of the materialized product, bit for bit."""

    @staticmethod
    def reference(g, x, y):
        return g.layer_norms(g.multiply(g.inverse(x), y)).T

    @pytest.mark.parametrize("n", [CHUNK_COLUMNS - 1, CHUNK_COLUMNS + 1,
                                   NORM_LANES - 1, NORM_LANES + 1])
    def test_batches_across_blocks(self, stepped, n):
        rng = np.random.default_rng(n)
        x, y = rng.uniform(-1, 1, (2, n, stepped.q)) * 10.0 ** rng.uniform(-3, 3, (2, n, 1))
        # lanes of 0, NaN, +-inf and 1e+-300 in either factor
        special = np.array([0.0, np.nan, np.inf, -np.inf, 1e300, -1e-300])
        for z in (x, y):
            k = rng.integers(0, n, 40)
            z[k, rng.integers(0, stepped.q, 40)] = special[np.arange(40) % len(special)]
            z[k[:3]] = 0.0
        with np.errstate(invalid="ignore", over="ignore"):  # the product's inf - inf, inf * 0
            out = stepped.quotient_layer_norms(x, y)
            ref = self.reference(stepped, x, y)
        assert out.shape == (stepped.step, n) and out.tobytes() == ref.tobytes()

    def test_extreme_finite_lanes_raise_no_warning(self, stepped):
        # x = 0 leaves y's coordinates as the product: layer squares that
        # overflow or underflow are summed again, with no RuntimeWarning
        y = np.zeros((6, stepped.q))
        y[0], y[1], y[2, -1], y[3, 0], y[4, :2] = 1e300, -1e-300, 1e300, 5e-324, 3e200
        y[5] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = stepped.quotient_layer_norms(np.zeros(stepped.q), y)
            ref = self.reference(stepped, np.zeros(stepped.q), y)
        assert out.tobytes() == ref.tobytes()
        assert np.isfinite(out[:, :5]).all() and np.isnan(out[:, 5]).any()

    def test_broadcast_and_empty(self, stepped):
        rng = np.random.default_rng(26)
        center, x = rng.uniform(-1, 1, (1, stepped.q)), rng.uniform(-1, 1, (300, stepped.q))
        for a, b in ((center, x), (x, center), (center[0], x), (center[0], x[0])):
            out = stepped.quotient_layer_norms(a, b)
            ref = np.atleast_2d(stepped.layer_norms(stepped.multiply(stepped.inverse(a), b))).T
            assert out.shape == ref.shape and out.tobytes() == ref.tobytes()
        assert stepped.quotient_layer_norms(np.zeros((0, stepped.q)), center).shape == (
            stepped.step, 0)
