import json

import numpy as np
import pytest

from carnot.algebra import ConfigurationError, preset_group
from carnot.blowup import LevelSetSpec, SurfacePatch
from carnot.config import (ExperimentConfig, compile_expression,
                           distance_from_dict, load_config, surface_from_dict)
from carnot.metrics import MultiradialProfile


@pytest.fixture(scope="module")
def g():
    return preset_group("heisenberg1")


class TestExpressionGrammar:
    def test_arithmetic_and_calls(self):
        f = compile_expression("max(t1, 2*sqrt(t2))", ("t1", "t2"))
        assert f(t1=0.5, t2=0.25) == pytest.approx(1.0)
        arr = f(t1=np.array([0.5, 3.0]), t2=np.array([0.25, 0.0]))
        np.testing.assert_allclose(arr, [1.0, 3.0])

    def test_power_and_unary(self):
        f = compile_expression("(t1**4 + 16*t2**2)**0.25", ("t1", "t2"))
        assert f(t1=1.0, t2=0.0) == pytest.approx(1.0)
        f2 = compile_expression("-t1 + 3", ("t1",))
        assert f2(t1=1.0) == pytest.approx(2.0)

    def test_unknown_variable_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown variable"):
            compile_expression("t1 + q", ("t1", "t2"))

    def test_unknown_call_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown function"):
            compile_expression("__import__('os')", ("t1",))

    def test_attribute_access_rejected(self):
        with pytest.raises(ConfigurationError, match="unsupported syntax"):
            compile_expression("t1.real", ("t1",))

    def test_syntax_error_reported(self):
        with pytest.raises(ConfigurationError, match="invalid expression"):
            compile_expression("t1 +", ("t1",))


class TestDistanceSpecs:
    def test_families(self, g):
        assert distance_from_dict(g, {"family": "dinf"}).name.startswith("dinf")
        d = distance_from_dict(g, {"family": "koranyi", "params": {"gamma": 16}})
        assert isinstance(d.profile, MultiradialProfile)
        a = preset_group("abelian:3")
        assert distance_from_dict(a, "euclidean").convex_ball

    def test_profile_family(self, g):
        d = distance_from_dict(
            g, {"family": "profile", "params": {"expr": "max(t1, 2*sqrt(t2))"}})
        assert d.norm(np.array([0.0, 0.0, 1.0])) == pytest.approx(2.0, rel=1e-9)

    def test_unknown_family(self, g):
        with pytest.raises(ConfigurationError, match="family"):
            distance_from_dict(g, {"family": "manhattan"})

    def test_unknown_param_rejected(self, g):
        with pytest.raises(ConfigurationError, match="unknown"):
            distance_from_dict(g, {"family": "dinf", "params": {"speed": 3}})


class TestSurfaceSpecs:
    def test_param_surface(self, g):
        patch = surface_from_dict(g, {
            "kind": "param",
            "expr": {"x": "(u*u + v*v)/4", "y": "u", "t": "v"},
            "domain": [[-1, 1], [-1, 1]]})
        assert isinstance(patch, SurfacePatch)
        np.testing.assert_allclose(patch.points([2.0], [0.0])[0], [1.0, 2.0, 0.0])

    def test_levelset_surface(self, g):
        f, region = surface_from_dict(g, {
            "kind": "levelset", "expr": {"f": "x - y*y"},
            "domain": [[0, 1], [0, 1]]})
        assert isinstance(f, LevelSetSpec)
        assert region == ((0.0, 1.0), (0.0, 1.0))
        np.testing.assert_allclose(f.value([[0.25, 0.5, 9.0]]), [0.0])

    def test_unknown_kind(self, g):
        with pytest.raises(ConfigurationError, match="kind"):
            surface_from_dict(g, {"kind": "implicit", "expr": {"f": "x"},
                                  "domain": [[0, 1], [0, 1]]})

    def test_missing_component(self, g):
        with pytest.raises(ConfigurationError, match="missing"):
            surface_from_dict(g, {"kind": "param", "expr": {"x": "u", "y": "v"},
                                  "domain": [[0, 1], [0, 1]]})


class TestExperimentConfig:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            ExperimentConfig(raw={"group": "heisenberg1", "grpoup": 1})

    def test_digest_is_canonical(self):
        a = ExperimentConfig(raw={"group": "heisenberg1", "seed": 3})
        b = ExperimentConfig(raw={"seed": 3, "group": "heisenberg1"})
        assert a.digest == b.digest
        c = ExperimentConfig(raw={"group": "heisenberg1", "seed": 4})
        assert a.digest != c.digest

    def test_missing_key_error(self):
        cfg = ExperimentConfig(raw={"group": "heisenberg1"})
        with pytest.raises(ConfigurationError, match="distance"):
            cfg.distance(cfg.group())

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_config(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(ConfigurationError, match="JSON"):
            load_config(bad)

    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps({"group": "heisenberg1",
                                    "distance": {"family": "dinf"}}))
        cfg = load_config(path)
        assert cfg.group().layer_dims == (2, 1)
        assert isinstance(cfg.distance(cfg.group()).profile, MultiradialProfile)
