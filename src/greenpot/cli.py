"""Command-line harness for the greenpot experiments.

One binary, twelve subcommands, all generated from one table
(`EXPERIMENTS`: runner, help line and flag defaults per subcommand) and
one map from flag to parser (`FLAGS`).  Every flag has a config-file
equivalent (JSON object keyed by the flag name with dashes as
underscores); command line values win over the config file unless
--force is given.  A config value is read as its flag's text: a string
goes through the flag's parser, a number or boolean through the parser
of its JSON text, an array of a tuple flag as its items joined with
``,`` (``:`` for ``transform``), and a ``domain`` or ``matrix`` object or
array as its JSON text; null leaves the flag unset, and a value its
parser rejects is a usage error.

Reports are canonical JSON (sorted keys, full precision) plus an
RFC-4180 CSV with 6 significant digits; run metadata (timestamp, argv)
goes to a separate .meta.json sidecar so report files are byte-identical
across reruns of the same configuration.

Seeding: the global --seed feeds fixed per-purpose stream indices so
experiments stay reproducible and independent: 0 random matrix
populations, 1 CMP probe vectors, 2 random grid functions, 3 lattice
walks, 4 occupation-integral sampling.

Exit codes: 0 pass, 1 assertion failure, resource stop (`ResourceLimitError`: a
byte or step budget; `QuadratureError`) or numerical failure (`LinAlgError`: a
singular, asymmetric or uncertified solve, or a transform that takes a kernel
value to 0 or past the largest float), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import re
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .domains import (
    Ball,
    GridSpec,
    domain_from_json,
    exterior_grid,
    grid_points,
    interior_grid,
    nonempty_grid_points,
)
from .kernels import QuadratureError, ball_kernel_integral, disk_green_2d
from .lattice import ResourceLimitError, far_field, killed_green_matrix, lattice_kernel
from .mc import RngStream, estimate_boundary_term, estimate_riesz_potential
from .operators import BallIndicator, assemble, cmp_functional, converge, is_origin_disk
from .potential import (classify, hadamard_exp, hadamard_power, is_inverse_m_matrix, killed_green_check,
                        random_potential, sample_cmp)

STREAMS = {"matrices": 0, "probes": 1, "functions": 2, "walks": 3, "riesz": 4}

PASS, FAIL, USAGE = 0, 1, 2


def derived_seed(seed: int, stream: int, index: int = 0) -> int:
    return int(np.random.SeedSequence(seed, spawn_key=(stream, index)).generate_state(1)[0])


# ------------------------------------------------------------- plumbing

def canonical_json(obj) -> str:
    """The one serialization of reports: sorted keys, compact separators,
    full float precision, one trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _cell(v) -> str:
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.6g}"
    if isinstance(v, (tuple, list, np.ndarray)):
        return " ".join(_cell(c) for c in v)
    return str(v)


def csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    return buf.getvalue()


def parse_floats(text: str) -> tuple:
    return tuple(float(p) for p in text.split(","))


def parse_ints(text: str) -> tuple:
    return tuple(int(p) for p in text.split(","))


def parse_transform(text: str) -> tuple:
    kind, _, value = text.partition(":")
    if kind not in ("power", "exp") or not value:
        raise ValueError("transform must look like power:1.5 or exp:1")
    return kind, float(value)


def _document(cfg, key: str) -> str:
    """JSON text of the required --domain or --matrix; ``@path`` reads a file."""
    text = cfg[key]
    if text is None:
        raise ValueError(f"missing required option(s): {[key]}")
    return Path(text[1:]).read_text() if text.startswith("@") else text


def load_domain(cfg):
    return domain_from_json(_document(cfg, "domain"))


def load_matrix(cfg) -> np.ndarray:
    """The --matrix document: a JSON array of rows, or a killed-green report
    or its ``matrix`` object, whose flat ``entries`` are read as m x m with
    m the number of its ``points``.  Anything else is a ValueError."""
    doc = json.loads(_document(cfg, "matrix"))
    flat = None
    if isinstance(doc, dict):
        obj = doc.get("matrix", doc)
        if not (isinstance(obj, dict) and isinstance(obj.get("points"), list)
                and isinstance(obj.get("entries"), list)):
            raise ValueError("a matrix object holds 'points' and flat 'entries' arrays")
        m, flat = len(obj["points"]), obj["entries"]
        if len(flat) != m * m:
            raise ValueError(f"{len(flat)} entries do not fill a {m} x {m} matrix")
    elif isinstance(doc, list) and all(isinstance(row, list) and len(row) == len(doc) for row in doc):
        m, flat = len(doc), [v for row in doc for v in row]
    bad = "a matrix is a square array of rows of finite numbers"
    if flat is None or not set(map(type, flat)) <= {int, float}:  # bool, str, None, list: not numbers
        raise ValueError(bad)
    try:
        a = np.array(flat, dtype=float)
    except OverflowError:  # an integer past the largest float
        raise ValueError(bad) from None
    if not np.isfinite(a).all():
        raise ValueError(bad)
    return a.reshape(m, m)


def _jsonable(v):
    """`v` with numpy scalars and arrays as Python values and every
    non-finite float as None, which JSON has no literal for."""
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        return _jsonable(v.item())
    if isinstance(v, np.ndarray):
        return [_jsonable(c) for c in v.tolist()]
    if isinstance(v, (list, tuple)):
        return [_jsonable(c) for c in v]
    if isinstance(v, dict):
        return {k: _jsonable(c) for k, c in v.items()}
    if isinstance(v, float) and not math.isfinite(v):
        return None
    return v


# ---------------------------------------------------------- experiments
# each runner: cfg dict -> (report dict, (header, rows) or None, passed or None)

def run_lattice_green(cfg):
    d, top = cfg["d"], cfg["max"]
    points = [(0,) * d] + [(k,) + (0,) * (d - 1) for k in range(1, top + 1)]
    points += [(k, k) + (0,) * (d - 2) for k in range(1, top + 1) if k * math.sqrt(2) <= top]
    values = lattice_kernel(d, points)  # before the asymptote: it rejects d < 2 with its own message
    rows = [[p, v, a, v / a] for p, v, a in
            zip(points[1:], values[1:].tolist(), far_field(d, points[1:]).tolist())]
    report = {
        "experiment": "lattice-green",
        "d": d,
        "origin_value": float(values[0]),
        "entries": [{"point": list(p), "value": v, "asymptote": a, "ratio": q}
                    for p, v, a, q in rows],
    }
    return report, (["point", "value", "asymptote", "ratio"], rows), None


def run_killed_green(cfg):
    domain = load_domain(cfg)
    grid = GridSpec(d=domain.d, n=cfg["n"])
    lattice = nonempty_grid_points(domain, grid)
    matrix = killed_green_matrix(lattice)
    check = killed_green_check(matrix, tol=cfg["tol"])
    report = {
        "experiment": "killed-green",
        "d": domain.d,
        "n": cfg["n"],
        "size": len(lattice),
        "potential_check": asdict(check),
    }
    rows = None
    if len(lattice) <= cfg["dump_limit"]:
        report["matrix"] = {"d": domain.d, "points": lattice.points,
                            "entries": matrix.entries.reshape(-1)}
        pts = lattice.points
        rows = [[tuple(pts[i]), tuple(pts[j]), matrix.entries[i, j]]
                for i in range(len(pts)) for j in range(i, len(pts))]
    return report, (None if rows is None else (["x", "y", "green"], rows)), check.is_potential is True


def run_check_potential(cfg):
    u = load_matrix(cfg)
    report_obj = classify(u, trials=cfg["trials"],
                          seed=derived_seed(cfg["seed"], STREAMS["probes"]), tol=cfg["tol"])
    report = {"experiment": "check-potential", "size": int(u.shape[0]),
              "report": asdict(report_obj)}
    passed = report_obj.is_potential is True
    return report, None, passed


def _matrix_population(cfg) -> list:
    """The run's random killed Green matrices, built once and shared by every parameter."""
    if cfg["count"] < 1:
        raise ValueError("--count must be at least 1")
    return [random_potential(cfg["d"], tuple(cfg["sizes"]),
                             derived_seed(cfg["seed"], STREAMS["matrices"], i))
            for i in range(cfg["count"])]


def _sweep_runner(name, param, transform):
    """Runner counting the population members whose transform stays a potential."""
    def run(cfg):
        population = _matrix_population(cfg)
        rows = []
        for value in cfg[param + "s"]:
            passes = sum(is_inverse_m_matrix(transform(green.entries, value),
                                             tol=cfg["tol"]).is_potential is True
                         for green in population)
            rows.append([value, passes, cfg["count"], passes / cfg["count"]])
        header = [param, "passes", "count", "rate"]
        report = {"experiment": name, "d": cfg["d"], "count": cfg["count"],
                  "results": [dict(zip(header, row)) for row in rows]}
        return report, (header, rows), all(row[1] == cfg["count"] for row in rows)
    return run


run_hadamard_sweep = _sweep_runner("hadamard-sweep", "beta", hadamard_power)
run_exp_sweep = _sweep_runner("exp-sweep", "alpha", hadamard_exp)


def run_cmp_random(cfg):
    rows = []
    worst = math.inf
    for i, green in enumerate(_matrix_population(cfg)):
        u = green.entries
        value, _ = sample_cmp(u, cfg["trials"],
                              derived_seed(cfg["seed"], STREAMS["probes"], i))
        scale = float(np.max(np.abs(u)))
        rows.append([i, u.shape[0], value, scale, value / scale])
        worst = min(worst, value / scale)
    passed = worst >= -cfg["tol"]
    report = {"experiment": "cmp-random", "d": cfg["d"], "count": cfg["count"],
              "trials": cfg["trials"], "worst_normalized": worst,
              "results": [{"index": i, "size": s, "min_value": v, "scale": sc,
                           "normalized": nv} for i, s, v, sc, nv in rows]}
    return report, (["index", "size", "min_value", "scale", "normalized"], rows), passed


def run_cmp_functional(cfg):
    if cfg["functions"] < 1:
        raise ValueError("--functions must be at least 1")
    domain = load_domain(cfg)
    grid = GridSpec(d=domain.d, n=cfg["n"])
    op = assemble(grid, cfg["transform"], domain=domain)
    vol = len(op.lattice) * grid.h**grid.d
    gen = RngStream(cfg["seed"], stream=STREAMS["functions"]).generator()
    rows = []
    passed = True
    for k in range(cfg["functions"]):
        f = gen.standard_normal(len(op.lattice))
        # a positive multiple leaves the CMP statement unchanged; this one
        # lifts max(opF) to 2, so (opF - 1)^+ is not identically 0
        peak = float(np.max(op.matrix @ f))
        scale = 2.0 / peak if peak > 0 else 1.0
        f *= scale
        value = cmp_functional(op, f)
        bound = -cfg["tol"] * float(np.max(np.abs(f))) ** 2 * vol
        rows.append([k, value, bound, scale])
        passed &= value >= bound
    header = ["index", "value", "lower_bound", "scale"]
    report = {"experiment": "cmp-functional", "d": domain.d, "n": cfg["n"],
              "transform": list(cfg["transform"]), "size": len(op.lattice),
              "min_value": min(r[1] for r in rows),
              "results": [dict(zip(header, row)) for row in rows]}
    return report, (header, rows), passed


def _report_from_convergence(rep, name, tol):
    report = {"experiment": name, **asdict(rep), "abs_errors": rep.abs_errors,
              "rel_errors": rep.rel_errors, "rates": rep.rates}
    header = ["n", "value", "reference", "abs_err", "rel_err", "rate"]
    rows = [[n, v, rep.reference, a, r, "" if q is None else q] for n, v, a, r, q
            in zip(rep.levels, rep.values, rep.abs_errors, rep.rel_errors, rep.rates)]
    passed = None
    if tol is not None:
        passed = rep.rel_errors[-1] <= tol
        report["tolerance"] = tol
    return report, (header, rows), passed


def run_converge_disk(cfg):
    domain = Ball(center=(0.0, 0.0), radius=cfg["radius"])
    rep = converge(domain, cfg["transform"], cfg["x"], cfg["y"],
                   cfg["levels"], cfg["base"])
    return _report_from_convergence(rep, "converge-disk", cfg["tol"])


def run_converge_free(cfg):
    target = BallIndicator(center=cfg["center"], radius=cfg["radius"])
    rep = converge(None, ("power", cfg["beta"]), cfg["x"], target,
                   cfg["levels"], cfg["base"])
    return _report_from_convergence(rep, "converge-free", cfg["tol"])


def run_riesz_mc(cfg):
    ball = Ball(center=cfg["center"], radius=cfg["radius"])
    est = estimate_riesz_potential(cfg["d"], cfg["beta"], ball, cfg["x"],
                                   cfg["time_step"], cfg["horizon"], cfg["trials"],
                                   RngStream(cfg["seed"], stream=STREAMS["riesz"]))
    oracle = ball_kernel_integral(cfg["d"], cfg["beta"], cfg["x"], cfg["center"], cfg["radius"])
    gap = abs(est.mean - oracle)
    tolerance = 3 * est.stderr + est.step_error
    passed = bool(gap <= tolerance)
    report = {"experiment": "riesz-mc", "estimate": asdict(est),
              "oracle": oracle, "gap": gap, "tolerance": tolerance, "passed": passed}
    rows = [[est.mean, est.stderr, est.step_error, est.window_share, oracle,
             est.subordination_oracle, gap, tolerance, passed]]
    return report, (["mean", "stderr", "step_error", "window_share", "oracle",
                     "subordination_oracle", "gap", "tolerance", "passed"], rows), passed


def run_exit_mc(cfg):
    domain = load_domain(cfg)
    grid = GridSpec(d=domain.d, n=cfg["n"])
    est = estimate_boundary_term(domain, grid, cfg["x"], cfg["y"], cfg["trials"],
                                 RngStream(cfg["seed"], stream=STREAMS["walks"]))
    report = {"experiment": "exit-mc", "d": domain.d, "n": cfg["n"],
              "estimate": asdict(est)}
    passed = None
    reference = None
    if is_origin_disk(domain):
        reference = disk_green_2d(domain.radius, cfg["x"], cfg["y"])
        gap = abs(est.mean - reference)
        tolerance = max(4 * est.stderr, 0.05 * reference)
        passed = bool(gap <= tolerance)
        report.update({"reference": reference, "gap": gap, "tolerance": tolerance,
                       "passed": passed})
    rows = [[est.mean, est.stderr, est.trials,
             "" if reference is None else reference]]
    return report, (["mean", "stderr", "trials", "reference"], rows), passed


def run_domain_grid(cfg):
    domain = load_domain(cfg)
    grid = GridSpec(d=domain.d, n=cfg["n"])
    builder = {"exact": grid_points, "interior": interior_grid, "exterior": exterior_grid}
    lattice = builder[cfg["mode"]](domain, grid)
    report = {"experiment": "domain-grid", "d": domain.d, "n": cfg["n"],
              "mode": cfg["mode"], "spacing": grid.h, "size": len(lattice),
              "points": [list(map(int, p)) for p in lattice.points]}
    rows = [[tuple(p), tuple(grid.h * c for c in p)] for p in lattice.points]
    return report, (["index_point", "continuum_point"], rows), None


# flag -> parser of its command-line text; a tuple lists the allowed words
FLAGS = {
    "seed": int, "out": str,
    "d": int, "n": int, "max": int, "count": int, "trials": int, "functions": int,
    "levels": int, "base": int, "dump_limit": int,
    "tol": float, "radius": float, "beta": float, "time_step": float, "horizon": float,
    "x": parse_floats, "y": parse_floats, "center": parse_floats, "betas": parse_floats,
    "alphas": parse_floats, "sizes": parse_ints, "transform": parse_transform,
    "domain": str, "matrix": str, "mode": ("exact", "interior", "exterior"),
}
# the separator that joins the items of a config-file array into flag text
SEPARATORS = {parse_floats: ",", parse_ints: ",", parse_transform: ":"}

# one row per subcommand: runner, help line, flag defaults in --help order
# (None: unset; --domain and --matrix must be given)
EXPERIMENTS = {
    "lattice-green": (run_lattice_green, "whole-space kernel table with asymptote ratios",
                      {"d": 3, "max": 12}),
    "killed-green": (run_killed_green, "killed Green matrix of a domain grid plus potential check",
                     {"domain": None, "n": 18, "tol": 1e-8, "dump_limit": 100}),
    "check-potential": (run_check_potential, "inverse M-matrix and CMP classification of a matrix",
                        {"matrix": None, "trials": 10000, "tol": 1e-8}),
    "hadamard-sweep": (run_hadamard_sweep, "entrywise powers of random killed-Green matrices",
                       {"d": 3, "betas": (1.0, 1.5, 2.0, 3.0, 3.7), "count": 200,
                        "sizes": (2, 40), "tol": 1e-8}),
    "exp-sweep": (run_exp_sweep, "entrywise exponentials of random killed-Green matrices",
                  {"d": 3, "alphas": (0.1, 0.5, 1.0), "count": 200, "sizes": (2, 40),
                   "tol": 1e-8}),
    "cmp-random": (run_cmp_random, "random-probe CMP inequality minima over random potentials",
                   {"d": 3, "count": 50, "trials": 10000, "sizes": (2, 40), "tol": 1e-10}),
    "cmp-functional": (run_cmp_functional, "discrete CMP functional of a grid operator",
                       {"domain": None, "n": 50, "transform": ("power", 2.0),
                        "functions": 20, "tol": 1e-8}),
    "converge-disk": (run_converge_disk, "planar disk kernel refinement study",
                      {"x": (0.2, 0.0), "y": (-0.3, 0.1), "levels": 4, "base": 2,
                       "radius": 1.0, "transform": ("power", 1.0), "tol": None}),
    "converge-free": (run_converge_free, "free-space operator refinement study",
                      {"beta": 1.0, "x": (0.0, 0.0, 0.0), "center": (0.0, 0.0, 0.0),
                       "radius": 1.0, "levels": 3, "base": 3, "tol": None}),
    "riesz-mc": (run_riesz_mc, "occupation-time estimate vs ball-integral oracle",
                 {"d": 3, "beta": 2.0, "x": (0.0, 0.0, 0.0), "center": (2.0, 0.0, 0.0),
                  "radius": 1.0, "time_step": 0.05, "horizon": 1.0, "trials": 100000}),
    "exit-mc": (run_exit_mc, "walk-exit estimate of the killed kernel boundary term",
                {"domain": None, "n": 1458, "x": (1 / 9, 0.0), "y": (-1 / 9, 1 / 27),
                 "trials": 4000}),
    "domain-grid": (run_domain_grid, "dump exact/interior/exterior grids of a domain",
                    {"domain": None, "n": 18, "mode": "exact"}),
}
RUNNERS = {name: row[0] for name, row in EXPERIMENTS.items()}
DEFAULTS = {name: row[2] for name, row in EXPERIMENTS.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="greenpot",
        description="Green kernel experiments: lattice tables, potential-matrix "
                    "sweeps, operator convergence, and Monte Carlo estimates.")
    sub = parser.add_subparsers(dest="experiment", required=True)

    # accept comma tuples with leading minus, e.g. --y -0.3,0.1
    negative_tuple = re.compile(r"^-(\d+\.?\d*|\.\d+)(,-?(\d+\.?\d*|\.\d+))*$")

    for name, (_, help_text, defaults) in EXPERIMENTS.items():
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        p._negative_number_matcher = negative_tuple
        p.add_argument("--seed", type=int, help="global seed (default 0)")
        p.add_argument("--out", help="report base path; writes .json/.csv/.meta.json")
        p.add_argument("--config", help="JSON config file with flag equivalents")
        p.add_argument("--force", action="store_true",
                       help="let the config file override explicit flags")
        for key in defaults:
            parse = FLAGS[key]
            kind = {"choices": parse} if isinstance(parse, tuple) else {"type": parse}
            p.add_argument("--" + key.replace("_", "-"), **kind)
    return parser


def _config_value(key: str, value):
    """A config-file value parsed as the command-line text of its flag."""
    parse = FLAGS[key]
    if isinstance(value, list) and parse in SEPARATORS:
        value = SEPARATORS[parse].join(v if isinstance(v, str) else json.dumps(v) for v in value)
    text = value if isinstance(value, str) else json.dumps(value)
    if isinstance(parse, tuple):
        if text not in parse:
            raise ValueError(f"config key {key!r} must be one of {list(parse)}")
        return text
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"config key {key!r}: {exc}") from None


def merge_config(args: argparse.Namespace):
    """Layer defaults, config file, and explicit flags; returns (cfg, out).

    Explicit command line values win unless --force promotes the config
    file over them.
    """
    name = args.experiment
    explicit = {k: v for k, v in vars(args).items()
                if k not in ("experiment", "config", "force")}
    cfg = {**DEFAULTS[name], "seed": 0, "out": None}
    file_cfg = {}
    if getattr(args, "config", None):
        raw = json.loads(Path(args.config).read_text())
        if not isinstance(raw, dict):
            raise ValueError("a config file holds one JSON object")
        unknown = set(raw) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        file_cfg = {k: _config_value(k, v) for k, v in raw.items() if v is not None}
    layers = [file_cfg, explicit] if not getattr(args, "force", False) else [explicit, file_cfg]
    for layer in layers:
        cfg.update(layer)
    return cfg, cfg.pop("out")


def write_reports(out: str | None, report: dict, csv_data, meta: dict):
    text = canonical_json(_jsonable(report))
    if out is None:
        sys.stdout.write(text)
        return
    base = out.removesuffix(".json")  # any other dot is part of the name
    Path(base).parent.mkdir(parents=True, exist_ok=True)
    Path(base + ".json").write_text(text)
    if csv_data is not None and csv_data[0] is not None:
        Path(base + ".csv").write_text(csv_text(*csv_data))
    Path(base + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE
    try:
        cfg, out = merge_config(args)
        report, csv_data, passed = RUNNERS[args.experiment](cfg)
    except np.linalg.LinAlgError as exc:  # a ValueError, so caught first
        print(f"numerical failure: {exc}", file=sys.stderr)
        return FAIL
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (ResourceLimitError, QuadratureError) as exc:
        print(f"resource stop: {exc}", file=sys.stderr)
        return FAIL
    meta = {"experiment": args.experiment, "created_at":
            time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "argv": list(argv) if argv is not None else sys.argv[1:]}
    write_reports(out, report, csv_data, meta)
    if passed is not None and not passed:
        print(f"FAIL: {args.experiment} assertion did not hold", file=sys.stderr)
        return FAIL
    return PASS


if __name__ == "__main__":
    sys.exit(main())
