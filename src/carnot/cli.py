"""Config-driven command-line front end.

Each subcommand reads one JSON config file, runs a validation suite or an
experiment, prints a human-readable report and optionally writes the result
rows as CSV.  Exit codes: 0 success, 2 invariant/precondition failure,
3 configuration error.  CSV output is deterministic for a fixed config and
seed: '.' decimal separator, 17 significant digits, LF line endings.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import blowup, factor, metrics
from .algebra import (Check, ConfigurationError, GradedGroup, checked_int, group_law_checks,
                      structure_constants_from_dict, validate_grading)
from .config import ExperimentConfig, load_config

EXIT_OK = 0
EXIT_INVARIANT = 2
EXIT_CONFIG = 3

# resource caps, each well above the benchmark configs (1e5 samples, n_grid
# 512); the README derives them from the memory each unit costs
MAX_SAMPLES = 10 ** 6
MAX_N_GRID = 2048
MAX_SUBSPACES = 1000  # sweep `k`
MAX_STARTS = 256  # `n_starts` of beta and sweep


@dataclass
class RunReport:
    command: str
    config_digest: str
    seed: int
    wall_time: float = 0.0
    columns: tuple = ()
    rows: list = field(default_factory=list)  # tuples matching columns
    verdicts: list = field(default_factory=list)  # algebra.Check records
    notes: list = field(default_factory=list)

    @property
    def ok(self):
        return all(v.ok for v in self.verdicts)

    def as_text(self):
        lines = [f"command: {self.command}",
                 f"config: {self.config_digest}  seed: {self.seed}  "
                 f"wall: {self.wall_time:.2f}s"]
        if self.rows:
            lines.append("  ".join(self.columns))
            for row in self.rows:
                lines.append("  ".join(_fmt(x) for x in row))
        for v in self.verdicts:
            status = "PASS" if v.ok else "FAIL"
            lines.append(f"[{status}] {v.name}: {_fmt(v.worst)} "
                         f"(threshold {_fmt(v.tol)})")
        lines.extend(self.notes)
        return "\n".join(lines)


def _fmt(x):
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def write_csv(path, report: RunReport):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(report.columns) + "\n")
        for row in report.rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _out_path(args, cfg: ExperimentConfig):
    """The CSV path of --out, else of the config's `out`; None when neither is set."""
    out = args.out if args.out is not None else cfg.get("out")
    if out is None:
        return None
    if (not isinstance(out, str) or not out or os.path.isdir(out)
            or not os.path.isdir(os.path.dirname(out) or ".")):
        raise ConfigurationError(
            f"out must be a file path in an existing directory, got {out!r}")
    return out


# -- subcommands -------------------------------------------------------------

def _samples(cfg: ExperimentConfig, samples, default=100000,
             minimum=factor.MIN_MC_SAMPLES) -> int:
    """Sample count: the --samples override, else the config's, else `default`."""
    if samples is not None:
        return checked_int(samples, "--samples", minimum, MAX_SAMPLES)
    return cfg.integer("samples", default, minimum, MAX_SAMPLES)


def _add_checks(rep: RunReport, checks):
    """One row and one verdict per check; a failed check's witness as a note."""
    for chk in checks:
        rep.rows.append((chk.name, chk.ok, chk.worst, chk.tol))
        rep.verdicts.append(chk)
        if not chk.ok and chk.witness:
            rep.notes.append(f"counterexample for {chk.name}: {chk.witness}")


def cmd_check_group(cfg: ExperimentConfig, seed: int, samples) -> RunReport:
    n_samples = _samples(cfg, samples, 10000, 1)
    sc = structure_constants_from_dict(cfg.require("group"))
    rep = RunReport("check-group", cfg.digest, seed,
                    columns=("check", "ok", "residual", "tol"))
    grading = validate_grading(sc)
    _add_checks(rep, [Check("grading_jacobi", float(len(grading.violations)), 0.0)])
    rep.notes.extend(grading.violations[:5])
    if not rep.ok:
        return rep
    g = GradedGroup(sc)
    rep.notes.append(f"group: step {g.step}, layer_dims {g.layer_dims}, Q = {g.Q}")
    _add_checks(rep, group_law_checks(g, n_samples=n_samples, seed=seed))
    return rep


def cmd_check_distance(cfg: ExperimentConfig, seed: int, samples) -> RunReport:
    n_samples = _samples(cfg, samples, 100000, 1)
    g = cfg.group()
    d = cfg.distance(g, validate=False)
    axioms = metrics.check_axioms(d, g, n_samples=n_samples, seed=seed)
    rep = RunReport("check-distance", cfg.digest, seed,
                    columns=("axiom", "ok", "violation", "tol"))
    _add_checks(rep, axioms.checks)
    return rep


def cmd_beta(cfg: ExperimentConfig, seed: int, samples) -> RunReport:
    n_starts = cfg.integer("n_starts", 16, maximum=MAX_STARTS)
    n_mc = _samples(cfg, samples)
    g = cfg.group()
    V = cfg.subspace(g)
    d = cfg.distance(g)
    res = factor.spherical_factor(d, V, n_starts=n_starts, n_mc=n_mc, seed=seed)
    cols = (["beta", "beta_error", "center_gap", "gap_error", "n_starts",
             "n_mc", "seed", "boundary_argmax"]
            + [f"z{i + 1}" for i in range(g.q)])
    rep = RunReport("beta", cfg.digest, seed, columns=tuple(cols))
    rep.rows.append((res.beta, res.beta_error, res.center_gap, res.gap_error,
                     res.n_starts, res.n_mc, res.seed, res.boundary_argmax,
                     *res.argmax_center))
    rep.verdicts.append(Check("center_gap_within_3sigma", abs(res.center_gap),
                              3 * res.gap_error))
    rep.notes.append(f"method: {res.method}")
    return rep


def cmd_sweep(cfg: ExperimentConfig, seed: int, samples) -> RunReport:
    entries = cfg.require("signature")
    if not isinstance(entries, list):
        raise ConfigurationError(f"signature must be a list of integers, got {entries!r}")
    signature = tuple(checked_int(n, "signature entry", 0) for n in entries)
    k = cfg.integer("k", maximum=MAX_SUBSPACES)
    n_starts = cfg.integer("n_starts", 6, maximum=MAX_STARTS)
    n_mc = _samples(cfg, samples)
    g = cfg.group()
    d = cfg.distance(g)
    res = factor.rotational_sweep(d, signature, k, n_starts=n_starts, n_mc=n_mc, seed=seed)
    rep = RunReport("sweep", cfg.digest, seed,
                    columns=("index", "beta", "beta_error"))
    for i, (b, e) in enumerate(zip(res.betas, res.std_errors)):
        rep.rows.append((i, b, e))
    rep.verdicts.append(Check("spread_within_3sigma_bars", res.spread, res.spread_error))
    rep.notes.append(f"mean beta: {_fmt(res.mean)}")
    return rep


def cmd_blowup(cfg: ExperimentConfig, seed: int, samples) -> RunReport:
    u, v = cfg.reals("point", length=2)
    radii = cfg.reals("radii", [0.4, 0.2, 0.1], positive=True)
    if len(set(radii)) < len(radii):
        raise ConfigurationError(f"radii must be distinct, got {list(radii)}")
    n_grid = cfg.integer("n_grid", 512, maximum=MAX_N_GRID)
    n_mc = _samples(cfg, samples)
    g = cfg.group()
    d = cfg.distance(g)
    patch = cfg.surface(g)
    if not isinstance(patch, blowup.SurfacePatch):
        raise ConfigurationError("blowup needs a surface of kind 'param'")
    check = blowup.blowup_check(
        patch, d, u, v, radii=radii, n_grid=n_grid, factor_opts={"seed": seed, "n_mc": n_mc})
    curve = check.curve
    rep = RunReport("blowup", cfg.digest, seed, columns=("r", "ratio", "err"))
    for r, ratio in zip(curve.radii, curve.ratios):
        rep.rows.append((r, ratio, curve.uncertainty))
    rep.verdicts.append(Check("blowup_density_matches_factor", abs(check.gap), check.tol))
    rep.notes.append(f"extrapolated density: {_fmt(check.limit)}; "
                     f"beta of tangent: {_fmt(check.beta)} "
                     f"+- {_fmt(check.beta_error)}")
    if curve.truncated:
        rep.notes.append("warning: some balls were truncated by the patch boundary")
    return rep


def cmd_graph_area(cfg: ExperimentConfig, seed: int, samples) -> RunReport:
    n_grid = cfg.integer("n_grid", 256, maximum=MAX_N_GRID)
    g = cfg.group()
    d = cfg.distance(g)
    surface = cfg.surface(g)
    if isinstance(surface, blowup.SurfacePatch):
        raise ConfigurationError("graph-area needs a surface of kind 'levelset'")
    f, region = surface
    area = blowup.graph_area_levelset(f, region, d, n_grid=n_grid)
    patch = blowup.levelset_patch(f, region)
    surface_route = blowup.surface_measure_total(patch, n_grid=n_grid)
    gap = abs(area - surface_route)
    rep = RunReport("graph-area", cfg.digest, seed,
                    columns=("area", "surface_route", "abs_gap"))
    rep.rows.append((area, surface_route, gap))
    rep.verdicts.append(Check("level_set_vs_surface_route_2pct", gap, 0.02 * abs(area)))
    return rep


COMMANDS = {
    "check-group": cmd_check_group,
    "check-distance": cmd_check_distance,
    "beta": cmd_beta,
    "sweep": cmd_sweep,
    "blowup": cmd_blowup,
    "graph-area": cmd_graph_area,
}


@lru_cache(maxsize=1)
def build_parser():
    parser = argparse.ArgumentParser(
        prog="carnot",
        description="numerical experiments on spherical factors in "
                    "homogeneous groups")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to JSON config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--out", default=None, help="CSV output path")
        p.add_argument("--samples", type=int, default=None,
                       help="override the config sample count")
        p.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    t0 = time.time()
    try:
        cfg = load_config(args.config)
        out = _out_path(args, cfg)
        seed = (checked_int(args.seed, "--seed", 0) if args.seed is not None
                else cfg.integer("seed", 0, minimum=0))
        if args.samples is not None:
            checked_int(args.samples, "--samples", 1, MAX_SAMPLES)
        report = COMMANDS[args.command](cfg, seed, args.samples)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"invariant/precondition failure: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    report.wall_time = time.time() - t0
    print(report.as_text())
    if out:
        try:
            write_csv(out, report)
        except OSError as exc:
            print(f"configuration error: cannot write out {out!r}: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        if args.verbose:
            print(f"wrote {out}", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
