import numpy as np
import pytest

from carnot.algebra import (ConfigurationError, GradedGroup, _dynkin_words,
                            group_from_dict, group_law_checks, preset_group,
                            structure_constants_from_sparse, validate_grading)


def heis():
    return preset_group("heisenberg1")


class TestDynkinWords:
    def test_low_degree_coefficients(self):
        # aggregate coefficient of [x,y]: "xy" minus the mirrored "yx"
        words = dict(_dynkin_words(2))
        assert words["xy"] - words["yx"] == pytest.approx(0.5)
        assert "xx" not in words and "yy" not in words

    def test_degree_three_coefficients(self):
        # [x,[x,y]]/12 and [y,[y,x]]/12 terms ("xyx" carries -[x,[x,y]])
        words = dict(_dynkin_words(3))
        assert words["xxy"] - words["xyx"] == pytest.approx(1 / 12)
        assert words["yyx"] - words["yxy"] == pytest.approx(1 / 12)

    def test_word_count_is_stable(self):
        assert len(_dynkin_words(2)) == 4
        assert len(_dynkin_words(6)) == 40


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
