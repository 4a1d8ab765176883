import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from carnot import blowup, cli, factor, metrics
from carnot.cli import main


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(argv):
    return main(argv)


class TestCheckGroup:
    def test_preset_passes(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "g.json", {"group": "engel"})
        assert run(["check-group", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "Q = 7" in out
        assert "FAIL" not in out

    def test_broken_bracket_fails(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "g.json", {"group": {
            "step": 2, "layer_dims": [2, 1], "bracket": [[1, 1, 2, 1.0]]}})
        assert run(["check-group", "--config", cfg]) == 2
        assert "grading" in capsys.readouterr().out

    def test_grading_row_counts_violations(self, tmp_path, capsys):
        # [e2, e2] = e3/2 breaks antisymmetry once; the row is the verdict
        cfg = write_cfg(tmp_path, "g.json", {"group": {
            "step": 2, "layer_dims": [2, 1], "bracket": [[3, 1, 2, 1], [3, 2, 2, 0.5]]}})
        out = tmp_path / "g.csv"
        assert run(["check-group", "--config", cfg, "--out", str(out)]) == 2
        assert "[FAIL] grading_jacobi: 1 (threshold 0)" in capsys.readouterr().out
        assert out.read_text().splitlines()[1] == "grading_jacobi,false,1,0"

    def test_malformed_spec_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "g.json", {"group": {
            "step": 2, "layer_dims": [2, 1], "brackets": []}})
        assert run(["check-group", "--config", cfg]) == 3

    def test_missing_step_is_config_error(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "g.json", {"group": {"layer_dims": [2, 1]}})
        assert run(["check-group", "--config", cfg]) == 3
        assert "step" in capsys.readouterr().err


class TestCheckDistance:
    def test_default_dinf_passes(self, tmp_path):
        cfg = write_cfg(tmp_path, "d.json", {
            "group": "heisenberg1", "distance": {"family": "dinf"},
            "samples": 20000})
        assert run(["check-distance", "--config", cfg]) == 0

    def test_bad_constant_fails_with_counterexample(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "d.json", {
            "group": "heisenberg1",
            "distance": {"family": "dinf", "params": {"c": 10}},
            "samples": 20000})
        assert run(["check-distance", "--config", cfg]) == 2
        out = capsys.readouterr().out
        assert "counterexample for triangle" in out


class TestBeta:
    def test_euclidean_plane(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "b.json", {
            "group": "abelian:3", "distance": {"family": "euclidean"},
            "subspace": [[1, 0, 0], [0, 1, 0]],
            "samples": 20000, "n_starts": 4})
        out_csv = tmp_path / "beta.csv"
        assert run(["beta", "--config", cfg, "--out", str(out_csv)]) == 0
        text = out_csv.read_text()
        assert text.startswith("beta,")
        beta = float(text.splitlines()[1].split(",")[0])
        assert beta == pytest.approx(3.14159, abs=0.05)
        assert "\r" not in text

    def test_wide_ideal_is_not_zero(self, tmp_path, capsys):
        # span{e_2, ..., e_17} in H_8 under hebisch_sikora(0.5): the 16-ball of
        # radius 1/2, which no Monte Carlo sample at the default count hits
        cfg = write_cfg(tmp_path, "b.json", {
            "group": {"step": 2, "layer_dims": [16, 1],
                      "bracket": [[17, i, i + 8, 1.0] for i in range(1, 9)]},
            "distance": {"family": "hebisch_sikora", "params": {"eps": 0.5}},
            "subspace": [[float(i == j) for i in range(17)] for j in range(1, 17)]})
        out_csv = tmp_path / "beta.csv"
        assert run(["beta", "--config", cfg, "--out", str(out_csv)]) == 0
        assert "method: nested_quadrature" in capsys.readouterr().out
        head, row = out_csv.read_text().splitlines()
        row = dict(zip(head.split(","), row.split(",")))
        truth = factor.unit_ball_volume(16) / 2 ** 16
        assert float(row["beta_error"]) > 0.0
        assert abs(float(row["beta"]) - truth) <= 3 * float(row["beta_error"])

    def test_missing_subspace_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "b.json", {
            "group": "abelian:3", "distance": {"family": "euclidean"}})
        assert run(["beta", "--config", cfg]) == 3

    @pytest.mark.parametrize("subspace, method", [
        ("vertical_plane_x0", "nested_quadrature"),
        ("horizontal_x_axis", "closed_form"),
    ], ids=["vertical_plane_x0", "horizontal_x_axis"])
    def test_quadrature_csv_depends_on_seed_column_only(self, tmp_path, capsys, subspace,
                                                        method):
        cfg = write_cfg(tmp_path, "b.json", {
            "group": "heisenberg1", "distance": {"family": "koranyi"},
            "subspace": subspace})
        rows = []
        for seed in ("1", "2"):
            out_csv = tmp_path / f"beta{seed}.csv"
            assert run(["beta", "--config", cfg, "--seed", seed,
                        "--out", str(out_csv)]) == 0
            assert f"method: {method}" in capsys.readouterr().out
            head, row = out_csv.read_text().splitlines()
            rows.append(dict(zip(head.split(","), row.split(","))))
        assert rows[0]["seed"] == "1" and rows[1]["seed"] == "2"
        assert rows[0]["n_mc"] == rows[0]["n_starts"] == "0"
        del rows[0]["seed"], rows[1]["seed"]
        assert rows[0] == rows[1]


class TestSampleCounts:
    """check-distance and check-group read the config's `samples` key."""

    def test_check_distance_uses_config_samples(self, tmp_path, monkeypatch):
        seen = []
        original = metrics.check_axioms

        def recording(*args, **kwargs):
            seen.append(kwargs["n_samples"])
            return original(*args, **kwargs)

        monkeypatch.setattr(metrics, "check_axioms", recording)
        cfg = write_cfg(tmp_path, "d.json", {
            "group": "heisenberg1", "distance": {"family": "dinf"},
            "samples": 2000})
        assert run(["check-distance", "--config", cfg]) == 0
        assert seen == [2000]
        assert run(["check-distance", "--config", cfg, "--samples", "3000"]) == 0
        assert seen == [2000, 3000]

    def test_check_group_uses_config_samples(self, tmp_path, monkeypatch):
        seen = []
        original = cli.group_law_checks

        def recording(*args, **kwargs):
            seen.append(kwargs["n_samples"])
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "group_law_checks", recording)
        cfg = write_cfg(tmp_path, "g.json", {"group": "engel", "samples": 2000})
        assert run(["check-group", "--config", cfg]) == 0
        assert seen == [2000]


class TestSweep:
    def test_single_subspace(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "s.json", {
            "group": "heisenberg1", "distance": {"family": "koranyi"},
            "signature": [1, 1], "k": 1, "samples": 5000, "n_starts": 2})
        assert run(["sweep", "--config", cfg]) == 0
        assert "spread" in capsys.readouterr().out


class TestBlowup:
    def test_vertical_plane(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "bl.json", {
            "group": "heisenberg1", "distance": {"family": "dinf"},
            "surface": {"kind": "param",
                        "expr": {"x": "0*u", "y": "u", "t": "v"},
                        "domain": [[-1, 1], [-1, 1]]},
            "point": [0, 0], "samples": 10000, "n_starts": 2})
        assert run(["blowup", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "blowup_density_matches_factor" in out

    def test_density_curve_computed_once(self, tmp_path, monkeypatch):
        calls = []
        original = blowup.density_curve

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(blowup, "density_curve", counting)
        cfg = write_cfg(tmp_path, "bl.json", {
            "group": "heisenberg1", "distance": {"family": "dinf"},
            "surface": {"kind": "param",
                        "expr": {"x": "0*u", "y": "u", "t": "v"},
                        "domain": [[-1, 1], [-1, 1]]},
            "point": [0, 0], "samples": 10000, "n_starts": 2, "n_grid": 64})
        out_csv = tmp_path / "curve.csv"
        assert run(["blowup", "--config", cfg, "--out", str(out_csv)]) == 0
        assert len(calls) == 1
        assert len(out_csv.read_text().splitlines()) == 4

    def test_far_apart_radii_pass(self, tmp_path, capsys):
        # the README dinf paraboloid; a small radius once read mu = 0 here
        cfg = write_cfg(tmp_path, "bl.json", {
            "group": "heisenberg1", "distance": {"family": "dinf", "params": {"c": 2}},
            "surface": {"kind": "param",
                        "expr": {"x": "(u*u + v*v)/4", "y": "u", "t": "v"},
                        "domain": [[-1, 1], [-1, 1]]},
            "point": [0, 0], "radii": [0.4, 0.01]})
        assert run(["blowup", "--config", cfg]) == 0
        assert "[FAIL]" not in capsys.readouterr().out

    def test_characteristic_point_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "bl.json", {
            "group": "heisenberg1", "distance": {"family": "dinf"},
            "surface": {"kind": "param",
                        "expr": {"x": "u", "y": "v", "t": "0*u"},
                        "domain": [[-1, 1], [-1, 1]]},
            "point": [0, 0]})
        assert run(["blowup", "--config", cfg]) == 2
        assert "characteristic" in capsys.readouterr().err


class TestParser:
    def test_built_once(self, tmp_path, monkeypatch):
        built, init = [], argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        cfg = write_cfg(tmp_path, "g.json", {"group": "engel", "samples": 10})
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        try:
            assert run(["check-group", "--config", cfg]) == 0
            assert run(["check-group", "--config", cfg]) == 0
        finally:
            cli.build_parser.cache_clear()
        assert built.count("carnot") == 1


class TestGraphArea:
    def test_flat_graph(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "ga.json", {
            "group": "heisenberg1", "distance": {"family": "dinf"},
            "surface": {"kind": "levelset", "expr": {"f": "x"},
                        "domain": [[0, 1], [0, 1]]},
            "n_grid": 64})
        assert run(["graph-area", "--config", cfg]) == 0
        row = capsys.readouterr().out
        assert "\n1 " in row or "\n1\n" in row or "1  " in row

    def test_infinite_area_fails(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(blowup, "graph_area_levelset", lambda *a, **k: float("inf"))
        cfg = write_cfg(tmp_path, "ga.json", {
            "group": "heisenberg1", "distance": {"family": "dinf"},
            "surface": {"kind": "levelset", "expr": {"f": "x"},
                        "domain": [[0, 1], [0, 1]]},
            "n_grid": 64})
        assert run(["graph-area", "--config", cfg]) == 2
        assert "[FAIL] level_set_vs_surface_route_2pct: inf" in capsys.readouterr().out


PARABOLOID = {"kind": "param",
              "expr": {"x": "(u*u + v*v)/4", "y": "u", "t": "v"},
              "domain": [[-1, 1], [-1, 1]]}


class TestConfigFaults:
    """Malformed numbers end as exit 3 with the offending field named."""

    @pytest.mark.parametrize("command, payload, extra, cause", [
        ("check-group", {"group": "engel", "seed": "abc"}, [], "seed must be"),
        ("check-distance", {"group": "heisenberg1",
                            "distance": {"family": "dinf", "params": {"c": "2"}}},
         ["--samples", "1000"], "dinf: c"),
        ("beta", {"group": "heisenberg1", "distance": {"family": "koranyi"},
                  "subspace": "vertical_plane_x0"}, ["--samples", "10"], "samples must be"),
        ("blowup", {"group": "heisenberg1", "distance": {"family": "dinf"},
                    "surface": PARABOLOID, "point": [0, 0], "n_grid": 0},
         [], "n_grid must be"),
        ("check-distance", {"group": "heisenberg1",
                            "distance": {"family": "dinf", "params": {"c": 2}}},
         ["--samples", "-5"], "samples must be"),
        ("sweep", {"group": "heisenberg1", "distance": {"family": "koranyi"},
                   "signature": [1, 1], "k": 0}, [], "k must be"),
    ], ids=["seed-string", "dinf-c-string", "beta-samples-10", "n_grid-0",
            "samples-negative", "sweep-k-0"])
    def test_bad_number_is_config_error(self, tmp_path, capsys, command, payload,
                                        extra, cause):
        cfg = write_cfg(tmp_path, "c.json", payload)
        assert run([command, "--config", cfg, *extra]) == 3
        assert cause in capsys.readouterr().err

    def test_nan_distance_parameter_fails_closed(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "b.json", {
            "group": "heisenberg1",
            "distance": {"family": "dinf", "params": {"c": float("nan")}},
            "subspace": "vertical_plane_x0", "samples": 1000, "n_starts": 1})
        assert run(["beta", "--config", cfg]) == 3
        captured = capsys.readouterr()
        assert "nan" in captured.err
        assert "PASS" not in captured.out

    @pytest.mark.parametrize("command, payload, cause", [
        ("blowup", {"point": 5}, "point"),
        ("blowup", {"radii": 5}, "radii"),
        ("blowup", {"point": [0.1]}, "point"),
        ("blowup", {"point": ["a", 1]}, "point"),
        ("blowup", {"radii": []}, "radii"),
        ("blowup", {"radii": [-1]}, "radii"),
        ("blowup", {"radii": ["x"]}, "radii"),
        ("blowup", {"point": [float("nan"), 0]}, "point"),
        ("blowup", {"radii": [0.2, float("inf")]}, "radii"),
        ("blowup", {"radii": [0.2, 0.2, 0.2]}, "radii must be distinct"),
        ("blowup", {"point": [1.5, 0]}, "outside the domain"),
        ("blowup", {"surface": {**PARABOLOID, "expr": {"x": "sqrt(u)", "y": "u", "t": "v"}},
                    "point": [-0.5, 0]}, "non-finite"),
        ("check-distance", {"distance": {"family": "dinf", "params": 5}}, "params"),
        ("check-distance", {"distance": {"family": "dinf", "params": "ab"}}, "params"),
        ("check-distance", {"distance": {"family": "profile", "params": {"expr": 5}}},
         "expression"),
        ("check-distance", {"distance": {"family": "profile",
                                         "params": {"expr": "sqrt(t1, t2)"}}},
         "sqrt(t1, t2)"),
        ("check-distance", {"distance": {"family": "profile", "params": {"expr": "max()"}}},
         "max()"),
        ("beta", {"subspace": 5}, "subspace"),
        ("beta", {"subspace": [[1, 0]]}, "subspace"),
        ("sweep", {"signature": 5, "k": 1}, "signature"),
        ("check-group", {"group": {"step": 2, "layer_dims": [2, 1],
                                   "bracket": [[3.5, 1, 2, 1]]}}, "bracket entry"),
        ("check-group", {"group": {"step": 2, "layer_dims": [2, 1],
                                   "bracket": [[3, 1, 2, float("inf")]]}}, "bracket entry"),
    ], ids=["point-int", "radii-int", "point-short", "point-string", "radii-empty",
            "radii-negative", "radii-string", "point-nan", "radii-infinity", "radii-repeated",
            "point-outside-domain", "point-image-nan",
            "params-int", "params-string", "expr-int", "expr-sqrt-two-args",
            "expr-max-no-args", "subspace-int", "subspace-short", "signature-int",
            "bracket-fractional-index", "bracket-infinite-value"])
    def test_malformed_field_is_config_error(self, tmp_path, capsys, command, payload,
                                             cause):
        base = {"group": "heisenberg1", "distance": {"family": "dinf"},
                "surface": PARABOLOID, "point": [0, 0], "n_grid": 16,
                "subspace": "vertical_plane_x0", "samples": 1000}
        keys = {"blowup": ("group", "distance", "surface", "point", "n_grid"),
                "check-distance": ("group", "distance", "samples"),
                "beta": ("group", "distance", "subspace", "samples"),
                "sweep": ("group", "distance", "samples"),
                "check-group": ()}[command]
        cfg = write_cfg(tmp_path, "c.json", {**{k: base[k] for k in keys}, **payload})
        assert run([command, "--config", cfg]) == 3
        assert cause in capsys.readouterr().err

    @pytest.mark.parametrize("payload, extra", [
        ({"out": 7}, []),
        ({"out": True}, []),
        ({"out": "/nonexistent/x.csv"}, []),
        ({}, ["--out", "/nonexistent/x.csv"]),
    ], ids=["out-int", "out-bool", "out-missing-dir", "cli-out-missing-dir"])
    def test_bad_out_refused_before_the_run(self, tmp_path, capsys, payload, extra):
        cfg = write_cfg(tmp_path, "g.json", {"group": "engel", **payload})
        assert run(["check-group", "--config", cfg, *extra]) == 3
        captured = capsys.readouterr()
        assert "out must be" in captured.err
        assert captured.out == ""

    def test_failed_write_is_config_error(self, tmp_path, capsys, monkeypatch):
        def refuse(path, report):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(cli, "write_csv", refuse)
        cfg = write_cfg(tmp_path, "g.json", {"group": "engel"})
        assert run(["check-group", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 3
        assert "cannot write out" in capsys.readouterr().err

    def test_huge_group_refused_before_allocation(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "g.json", {"group": "abelian:100000"})
        t0 = time.perf_counter()
        assert run(["check-group", "--config", cfg]) == 3
        assert time.perf_counter() - t0 < 5.0
        assert "dimension" in capsys.readouterr().err


class TestResourceCaps:
    """Counts above their caps end as exit 3, named, before any work starts."""

    LEVELSET = {"kind": "levelset", "expr": {"f": "x - y**2"}, "domain": [[0, 1], [0, 1]]}
    BASE = {"group": "heisenberg1", "distance": {"family": "dinf"},
            "subspace": "vertical_plane_x0", "signature": [1, 1], "k": 2,
            "surface": PARABOLOID, "point": [0, 0]}
    KEYS = {"check-group": ("group",), "check-distance": ("group", "distance"),
            "beta": ("group", "distance", "subspace"),
            "sweep": ("group", "distance", "signature", "k"),
            "blowup": ("group", "distance", "surface", "point"),
            "graph-area": ("group", "distance")}

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def started(*args, **kwargs):
            raise AssertionError("the run started")

        # check_axioms also stands for the construction-time verdict
        for module, name in ((metrics, "check_axioms"), (cli, "group_law_checks"),
                             (factor, "spherical_factor"), (factor, "rotational_sweep"),
                             (blowup, "blowup_check"), (blowup, "graph_area_levelset")):
            monkeypatch.setattr(module, name, started)

    def config(self, tmp_path, command, payload):
        return write_cfg(tmp_path, "c.json", {**{k: self.BASE[k] for k in self.KEYS[command]},
                                              **payload})

    @pytest.mark.parametrize("command, payload, extra, cause", [
        ("check-group", {"samples": cli.MAX_SAMPLES + 1}, [], "samples must be"),
        ("check-distance", {"samples": 10 ** 12}, [], "samples must be"),
        ("check-distance", {}, ["--samples", str(cli.MAX_SAMPLES + 1)], "--samples must be"),
        ("beta", {"samples": 10 ** 9}, [], "samples must be"),
        ("sweep", {"samples": 10 ** 9}, [], "samples must be"),
        ("sweep", {"k": cli.MAX_SUBSPACES + 1}, [], "k must be"),
        ("beta", {"n_starts": 10 ** 9}, [], "n_starts must be"),
        ("sweep", {"n_starts": cli.MAX_STARTS + 1}, [], "n_starts must be"),
        ("blowup", {"samples": 10 ** 9}, [], "samples must be"),
        ("blowup", {"n_grid": cli.MAX_N_GRID + 1}, [], "n_grid must be"),
        ("graph-area", {"n_grid": 10 ** 6, "surface": LEVELSET}, [], "n_grid must be"),
    ], ids=["check-group-samples", "check-distance-samples", "cli-samples", "beta-samples",
            "sweep-samples", "sweep-k", "beta-n_starts", "sweep-n_starts", "blowup-samples",
            "blowup-n_grid", "graph-area-n_grid"])
    def test_count_above_its_cap(self, tmp_path, capsys, command, payload, extra, cause):
        cfg = self.config(tmp_path, command, payload)
        assert run([command, "--config", cfg, *extra]) == 3
        captured = capsys.readouterr()
        assert cause in captured.err and "<=" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command, payload", [
        ("check-distance", {"samples": cli.MAX_SAMPLES}),
        ("graph-area", {"n_grid": cli.MAX_N_GRID, "surface": LEVELSET}),
    ], ids=["samples", "n_grid"])
    def test_count_at_its_cap_is_run(self, tmp_path, command, payload):
        cfg = self.config(tmp_path, command, payload)
        with pytest.raises(AssertionError, match="the run started"):
            run([command, "--config", cfg])


class TestDeterminism:
    def test_csv_bytes_stable_across_thread_counts(self, tmp_path):
        cfg = write_cfg(tmp_path, "b.json", {
            "group": "heisenberg1", "distance": {"family": "koranyi"},
            "subspace": "vertical_plane_x0",
            "samples": 20000, "n_starts": 3, "seed": 11})

        def run_proc(out):
            subprocess.run(
                [sys.executable, "-m", "carnot.cli", "beta", "--config", cfg,
                 "--out", str(out)],
                check=True, capture_output=True)
            return out.read_bytes()

        a = run_proc(tmp_path / "a.csv")
        b = run_proc(tmp_path / "b.csv")
        assert a == b


# the configs of perfbench/configs/ that the benchmark runs through the CLI,
# with the exit code it expects: dinf at c = 10 is refused with a counterexample
BENCHMARK_CLI_CONFIGS = [
    ("beta", "beta_koranyi.json", 0),
    ("beta", "beta_hebisch_sikora.json", 0),
    ("check-distance", "check_distance_dinf2.json", 0),
    ("check-distance", "check_distance_dinf10.json", 2),
    ("check-distance", "check_distance_engel_hs.json", 0),
    ("check-distance", "check_distance_filiform_hs.json", 0),
    ("check-group", "check_group_engel.json", 0),
    ("check-group", "check_group_filiform.json", 0),
    ("graph-area", "graph_area.json", 0),
]


@pytest.mark.parametrize("command, config, code", BENCHMARK_CLI_CONFIGS,
                         ids=[c for _, c, _ in BENCHMARK_CLI_CONFIGS])
def test_benchmark_cli_configs_run(tmp_path, capsys, command, config, code):
    # an API change that breaks a benchmark op fails here first, at 2000 samples
    path = Path(__file__).resolve().parent.parent / "perfbench" / "configs" / config
    out = tmp_path / "out.csv"
    assert run([command, "--config", str(path), "--seed", "1", "--samples", "2000",
                "--out", str(out)]) == code
    assert out.read_text().strip()
    if code == 2:
        assert "counterexample for triangle" in capsys.readouterr().out
