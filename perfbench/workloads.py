"""The benchmark's workloads: their operations and per-operation checks.

An operation goes through `carnot.cli.main`, called in-process on a
committed config under `configs/`, whenever a subcommand computes exactly
that operation; otherwise it calls the public library function.  Every
operation's output is checked against a reference that does not share its
code path (nested quadrature against Monte Carlo or grid sums, closed-form
Heisenberg arithmetic against the BCH product and bisection norms).
"""

from __future__ import annotations

import ast
import hashlib
import io
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import carnot.algebra
import carnot.blowup
import carnot.cli
import carnot.factor
import carnot.subgroups
from carnot.config import load_config

CONFIG_DIR = Path(__file__).resolve().parent / "configs"


def sub_seed(seed, op, rep):
    """Seed of repetition `rep` of operation `op` under the benchmark seed."""
    digest = hashlib.sha256(f"{seed}/{op}/{rep}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


class Outcome:
    """What one operation returned: exit code, CSV bytes, stdout, value."""

    def __init__(self, code=0, csv=b"", stdout="", value=None):
        self.code = code
        self.csv = csv
        self.stdout = stdout
        self.value = value

    def rows(self):
        lines = self.csv.decode().splitlines()
        head = lines[0].split(",")
        return [dict(zip(head, line.split(","))) for line in lines[1:]]


class Op:
    """One operation of a workload.

    `check(outcome, ref)` returns None when the output is right, else the
    reason; `reference()` computes `ref` once per run, outside the timed
    and traced passes; `est_error(outcome)` is the error bar the operation
    reports, if it reports one.
    """

    config = None

    def __init__(self, name, check, reference=None, est_error=None):
        self.name = name
        self.check = check
        self.reference = reference
        self.est_error = est_error


class CliOp(Op):
    """`carnot <command> --config configs/<file> --seed <s> --out <csv>`."""

    def __init__(self, name, command, config, out_dir, check, **kw):
        super().__init__(name, check, **kw)
        self.command = command
        self.config_path = CONFIG_DIR / config
        self.config = load_config(self.config_path)
        self.csv_path = out_dir / f"{name}.csv"

    def call(self, seed):
        # looked up on every call so that an installed tracer sees it
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = carnot.cli.main([self.command, "--config", str(self.config_path),
                                    "--seed", str(seed), "--out", str(self.csv_path)])
        return code, out.getvalue() + err.getvalue()

    def collect(self, raw):
        code, stdout = raw
        csv = self.csv_path.read_bytes() if self.csv_path.exists() else b""
        self.csv_path.unlink(missing_ok=True)
        return Outcome(code=code, csv=csv, stdout=stdout)


class LibOp(Op):
    """A public library call on inputs prepared at set-up."""

    def __init__(self, name, fn, check, config=None, **kw):
        super().__init__(name, check, **kw)
        self.fn = fn
        self.config = config

    def call(self, seed):
        return self.fn(seed)

    def collect(self, raw):
        return Outcome(value=raw)


# -- independent references ----------------------------------------------------

def heisenberg_dinf_norm(p, c):
    """Closed form of the dinf norm on heisenberg1: max(|x_h|, c sqrt|t|)."""
    p = np.asarray(p, dtype=float)
    return max(math.hypot(p[0], p[1]), c * math.sqrt(abs(p[2])))


def heisenberg_product(a, b):
    """x + y + [x, y] / 2 under [e1, e2] = e3."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a + b + np.array([0.0, 0.0, 0.5 * (a[0] * b[1] - a[1] * b[0])])


def nested_origin_volume(config, subspace="vertical_plane_x0"):
    g = config.group()
    return carnot.factor.slice_volume_nested(
        config.distance(g), carnot.subgroups.subspace_from_dict(g, subspace)).value


# -- checks --------------------------------------------------------------------

def check_beta(o, ref):
    if o.code != 0:
        return f"exit {o.code} (center-gap verdict or error): {o.stdout[-300:]}"
    row = o.rows()[0]
    beta, err = float(row["beta"]), float(row["beta_error"])
    if not abs(beta - ref) <= 3.0 * err:
        return (f"beta {beta:.6f} is {(beta - ref) / err:+.2f} sigma from the "
                f"nested origin volume {ref:.6f}")
    return None


def check_density(o, ref):
    rel = abs(o.value.limit - ref) / ref
    if not rel <= 0.02:
        return f"density limit {o.value.limit:.6f} is {rel:.2%} from {ref:.6f}"
    return None


def check_graph_area(o, ref):
    if o.code != 0:
        return f"exit {o.code}: {o.stdout[-300:]}"
    row = o.rows()[0]
    area, route = float(row["area"]), float(row["surface_route"])
    if not abs(area - route) <= 0.02 * abs(area):
        return f"graph area {area:.6f} vs surface route {route:.6f}: gap above 2%"
    return None


def check_coset(o, ref):
    before, after = o.value
    if not abs(after - before) <= 1e-4 * before:
        return f"coset volume {after!r} vs {before!r}: mismatch above 1e-4"
    return None


def check_axioms_pass(o, ref):
    if o.code != 0:
        return f"exit {o.code}, expected the axioms to pass: {o.stdout[-300:]}"
    bad = [r["axiom"] for r in o.rows() if r["ok"] != "true"]
    return f"axioms reported failing: {bad}" if bad else None


def check_axioms_reject(c):
    def check(o, ref):
        if o.code != 2:
            return f"exit {o.code}, expected 2 (dinf c={c} must be rejected)"
        failing = [r["axiom"] for r in o.rows() if r["ok"] != "true"]
        if "triangle" not in failing:
            return f"triangle inequality not reported failing ({failing})"
        line = next((ln for ln in o.stdout.splitlines()
                     if ln.startswith("counterexample for triangle: ")), None)
        if line is None:
            return "no triangle counterexample printed"
        x, y, z = ast.literal_eval(line.split(": ", 1)[1])

        def d(a, b):
            return heisenberg_dinf_norm(heisenberg_product(-np.asarray(a), b), c)
        margin = d(x, z) - d(x, y) - d(y, z)
        if not margin > 1e-7:
            return f"recomputed counterexample margin {margin:.3e} is not above 1e-7"
        return None
    return check


def check_group_laws(o, ref):
    if o.code != 0:
        return f"exit {o.code}: {o.stdout[-300:]}"
    for r in o.rows():
        if r["ok"] != "true":
            return f"check {r['check']} failed"
        if r["check"] != "grading_jacobi" and not float(r["residual"]) <= 1e-10:
            return f"{r['check']} residual {r['residual']} above 1e-10"
    return None


def beta_error_of(o):
    return float(o.rows()[0]["beta_error"]) if o.code == 0 else None


def homogeneity_of(o):
    rows = [r for r in o.rows() if r["axiom"] == "homogeneity"]
    return float(rows[0]["violation"]) if rows else None


# -- workloads ------------------------------------------------------------------

def beta_mc(out_dir):
    ops = []
    for name, cfg in (("beta_koranyi", "beta_koranyi.json"),
                      ("beta_hebisch_sikora", "beta_hebisch_sikora.json")):
        op = CliOp(name, "beta", cfg, out_dir, check_beta, est_error=beta_error_of)
        # multiradial distances, and convex balls on a normal subgroup, take
        # their maximum slice at the origin, where quadrature is exact
        op.reference = lambda config=op.config: nested_origin_volume(config)
        ops.append(op)
    return ops


def surface_grid(out_dir):
    ops = []
    for name, cfg in (("density_dinf_origin", "paraboloid_dinf.json"),
                      ("density_koranyi_offorigin", "paraboloid_koranyi.json")):
        config = load_config(CONFIG_DIR / cfg)
        g = config.group()
        d = config.distance(g)
        patch = config.surface(g)
        u, v = (float(x) for x in config.require("point"))
        radii = tuple(config.require("radii"))
        n_grid = int(config.require("n_grid"))

        def run(seed, patch=patch, d=d, u=u, v=v, radii=radii, n_grid=n_grid):
            return carnot.blowup.density_curve(patch, d, u, v, radii, n_grid=n_grid)

        # the tangent at a degree-3 point is span{h, e3}; a multiradial slice
        # volume does not depend on the horizontal direction h and is largest
        # at the origin, so the vertical plane's nested volume is the reference
        ops.append(LibOp(name, run, check_density, config=config,
                         reference=lambda config=config: nested_origin_volume(config),
                         est_error=lambda o: o.value.uncertainty))

    ops.append(CliOp("graph_area", "graph-area", "graph_area.json", out_dir,
                     check_graph_area))

    g = carnot.algebra.preset_group("heisenberg1")
    pair = carnot.subgroups.ComplementaryPair(
        W=carnot.subgroups.subspace_from_dict(g, "vertical_plane_x0"),
        V=carnot.subgroups.subspace_from_dict(g, "horizontal_x_axis"))

    def coset(seed):
        x = np.random.default_rng(seed).uniform(-2.0, 2.0, 3)
        return carnot.subgroups.coset_volume_check(pair, x, [(-1.0, 1.0), (-0.5, 0.5)])

    ops.append(LibOp("coset_volume", coset, check_coset))
    return ops


def axioms_highstep(out_dir):
    def check_distance(name, cfg, check):
        return CliOp(name, "check-distance", cfg, out_dir, check,
                     est_error=homogeneity_of)

    return [
        check_distance("check_distance_dinf2", "check_distance_dinf2.json",
                       check_axioms_pass),
        check_distance("check_distance_dinf10", "check_distance_dinf10.json",
                       check_axioms_reject(10.0)),
        check_distance("check_distance_engel_hs", "check_distance_engel_hs.json",
                       check_axioms_pass),
        check_distance("check_distance_filiform_hs", "check_distance_filiform_hs.json",
                       check_axioms_pass),
        CliOp("check_group_engel", "check-group", "check_group_engel.json", out_dir,
              check_group_laws),
        CliOp("check_group_filiform", "check-group", "check_group_filiform.json",
              out_dir, check_group_laws),
    ]


WORKLOADS = {
    "beta-mc": beta_mc,
    "surface-grid": surface_grid,
    "axioms-highstep": axioms_highstep,
}
