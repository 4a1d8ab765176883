import json
import subprocess
import sys
import time

import pytest

from carnot import blowup, cli, metrics
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

    def test_missing_subspace_is_config_error(self, tmp_path):
        cfg = write_cfg(tmp_path, "b.json", {
            "group": "abelian:3", "distance": {"family": "euclidean"}})
        assert run(["beta", "--config", cfg]) == 3

    def test_quadrature_csv_depends_on_seed_column_only(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "b.json", {
            "group": "heisenberg1", "distance": {"family": "koranyi"},
            "subspace": "vertical_plane_x0"})
        rows = []
        for seed in ("1", "2"):
            out_csv = tmp_path / f"beta{seed}.csv"
            assert run(["beta", "--config", cfg, "--seed", seed,
                        "--out", str(out_csv)]) == 0
            assert "method: nested_quadrature" in capsys.readouterr().out
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

    def test_characteristic_point_exit_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "bl.json", {
            "group": "heisenberg1", "distance": {"family": "dinf"},
            "surface": {"kind": "param",
                        "expr": {"x": "u", "y": "v", "t": "0*u"},
                        "domain": [[-1, 1], [-1, 1]]},
            "point": [0, 0]})
        assert run(["blowup", "--config", cfg]) == 2
        assert "characteristic" in capsys.readouterr().err


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
            "radii-negative", "radii-string", "point-nan", "radii-infinity",
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

    def test_huge_group_refused_before_allocation(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "g.json", {"group": "abelian:100000"})
        t0 = time.perf_counter()
        assert run(["check-group", "--config", cfg]) == 3
        assert time.perf_counter() - t0 < 5.0
        assert "dimension" in capsys.readouterr().err


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
