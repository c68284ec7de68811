"""End-to-end tests of the experiment command line.

Each subcommand runs in-process through ``main`` with small workloads;
file outputs, config layering, and exit codes are checked explicitly.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import greenpot
from greenpot import Ball, GridSpec, RieszEstimate, grid_points, killed_green_entries, killed_green_matrix
from greenpot import cli
from greenpot import lattice as lattice_module
from greenpot import operators as operators_module
from greenpot.cli import canonical_json, csv_text, derived_seed, main
from greenpot.potential import hadamard_exp, hadamard_power, is_inverse_m_matrix, random_potential

DISK = '{"d":2,"shape":{"ball":{"center":[0.0,0.0],"radius":1.0}}}'
DISK3 = '{"d":3,"shape":{"ball":{"center":[0.0,0.0,0.0],"radius":1.0}}}'
STRIP = '{"d":2,"shape":{"box":{"hi":[1.5,0.5],"lo":[-1.5,-0.5]}}}'
TWO_CUBES = '{"d":2,"shape":{"cubic":{"basis":[[0,0],[1,0]],"height":8}}}'


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


SMOKE_CASES = [
    (["lattice-green", "--d", "3", "--max", "6"], "lattice-green"),
    (["killed-green", "--domain", DISK, "--n", "18"], "killed-green"),
    (["check-potential", "--matrix", "[[2,1],[1,2]]", "--trials", "200"], "check-potential"),
    (["hadamard-sweep", "--d", "2", "--count", "3", "--sizes", "2,6"], "hadamard-sweep"),
    (["exp-sweep", "--d", "2", "--count", "3", "--sizes", "2,6"], "exp-sweep"),
    (["cmp-random", "--d", "2", "--count", "3", "--trials", "500", "--sizes", "2,6"], "cmp-random"),
    (["cmp-functional", "--domain", DISK, "--n", "18", "--functions", "3"], "cmp-functional"),
    (["cmp-functional", "--domain", TWO_CUBES, "--n", "32", "--functions", "3",
      "--transform", "exp:3.0"], "cmp-functional"),
    (["converge-disk", "--levels", "2", "--base", "2"], "converge-disk"),
    (["converge-free", "--levels", "2", "--base", "3", "--beta", "1.0"], "converge-free"),
    (["riesz-mc", "--trials", "1000", "--time-step", "0.2", "--horizon", "4.0"], "riesz-mc"),
    (["exit-mc", "--domain", DISK, "--trials", "600"], "exit-mc"),
    (["domain-grid", "--domain", STRIP, "--n", "8", "--mode", "exterior"], "domain-grid"),
]


@pytest.mark.parametrize("argv,name", SMOKE_CASES, ids=[" ".join(c[0][:1]) + str(i) for i, c in enumerate(SMOKE_CASES)])
def test_subcommand_smoke(capsys, argv, name):
    rc, out, err = run_cli(capsys, argv)
    assert rc == 0, err
    report = json.loads(out)
    assert report["experiment"] == name


def test_failing_assertion_returns_one(capsys):
    rc, out, err = run_cli(capsys, ["check-potential", "--matrix", "[[1,2],[2,1]]"])
    assert rc == 1
    assert "FAIL" in err
    report = json.loads(out)
    assert report["report"]["is_potential"] is False


def test_check_potential_reads_killed_green_report(tmp_path, capsys):
    rc, _, err = run_cli(capsys, ["killed-green", "--domain", DISK, "--n", "8",
                                  "--out", str(tmp_path / "kg")])
    assert rc == 0, err
    killed = json.loads((tmp_path / "kg.json").read_text())
    (tmp_path / "matrix.json").write_text(json.dumps(killed["matrix"]))
    reports = []
    for doc in ("kg.json", "matrix.json"):
        rc, out, err = run_cli(capsys, ["check-potential", "--matrix", f"@{tmp_path / doc}"])
        assert rc == 0, err
        reports.append(json.loads(out))
    assert reports[0] == reports[1]
    assert reports[0]["size"] == killed["size"] == 9
    assert reports[0]["report"]["is_potential"] is True


@pytest.mark.parametrize("matrix,named", [
    ('{"d":2,"points":[[0,0],[1,0]],"entries":[1.0,0.5,0.5]}', "3 entries"),
    ('{"matrix":{"d":2,"points":[[0,0]],"entries":[1.0,0.5]}}', "2 entries"),
    ('{"matrix":{"d":2,"points":[[0,0]]}}', "entries"),
    ('{"experiment":"killed-green","size":400}', "entries"),
    ('{"d":2,"points":[[0,0]],"entries":["1"]}', "finite numbers"),
    ('[[1,"2"],[2,1]]', "finite numbers"),
    ('[[1,null],[0,1]]', "finite numbers"),
    ('[[true,0],[0,1]]', "finite numbers"),
    ('[[{"x":1}]]', "finite numbers"),
    ('[[NaN]]', "finite numbers"),
    ('[[1,2],[3]]', "square"),
    ('[1,2]', "square"),
    ('"x"', "square"),
])
def test_malformed_matrix_is_usage_error(capsys, matrix, named):
    rc, out, err = run_cli(capsys, ["check-potential", "--matrix", matrix])
    assert rc == 2 and out == ""
    assert err.startswith("error:") and named in err and "Traceback" not in err


def test_usage_errors_return_two(capsys):
    assert run_cli(capsys, ["no-such-experiment"])[0] == 2
    assert run_cli(capsys, ["exit-mc", "--trials", "100"])[0] == 2  # domain required
    assert run_cli(capsys, ["check-potential", "--matrix", "not json"])[0] == 2
    assert run_cli(capsys, ["killed-green", "--domain", '{"d":2,"shape":{"blob":{}}}'])[0] == 2
    assert run_cli(capsys, ["converge-disk", "--levels"])[0] == 2  # missing value


@pytest.mark.parametrize("domain,named", [
    ('{"d":2,"shape":5}', "shape"),
    ('{"d":2,"shape":{"ball":5}}', "ball"),
    ('{"d":2}', "shape"),
    ('{"d":2,"shape":{"ball":{"center":[0.0,0.0]}}}', "radius"),
    ('{"d":2,"shape":{"ball":{"center":5,"radius":1.0}}}', "center"),
    ('{"d":2,"shape":{"box":{"lo":[0,0],"hi":"x"}}}', "hi"),
    ('{"d":2,"shape":{"cubic":{"height":8,"basis":[0,1]}}}', "basis"),
    ('{"d":[2],"shape":{"ball":{"center":[0.0,0.0],"radius":1.0}}}', "'d'"),
    ('{"d":2,"shape":{"cubic":{"height":2,"basis":[[0,0],[4294967296,0]]}}}', "too wide"),
    ('{"d":2,"shape":{"cubic":{"height":2,"basis":[[0,0],[9223372036854775808,0]]}}}', "basis"),
])
def test_malformed_domain_is_usage_error(capsys, domain, named):
    rc, out, err = run_cli(capsys, ["domain-grid", "--domain", domain])
    assert rc == 2 and out == ""
    assert err.startswith("error:") and named in err and "Traceback" not in err


def test_converge_free_reaches_level_four(capsys):
    # n = 2187, about 1e5 points: read one row at a time, never dense
    rc, out, err = run_cli(capsys, ["converge-free", "--levels", "4"])
    assert rc == 0, err
    errors = json.loads(out)["rel_errors"]
    assert len(errors) == 4
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_asymmetric_solve_is_numerical_failure(capsys, monkeypatch):
    monkeypatch.setattr(lattice_module, "SYMMETRY_TOL", -1.0)
    rc, out, err = run_cli(capsys, ["killed-green", "--domain", DISK, "--n", "18"])
    assert rc == 1 and out == ""
    assert err.startswith("numerical failure:") and "Traceback" not in err


def test_singular_solve_is_numerical_failure_not_usage(capsys, monkeypatch):
    def singular(lattice):
        raise np.linalg.LinAlgError("matrix is singular")

    monkeypatch.setattr(cli, "killed_green_matrix", singular)
    rc, _, err = run_cli(capsys, ["killed-green", "--domain", DISK, "--n", "18"])
    assert rc == 1
    assert err.startswith("numerical failure:")


def test_oversized_killed_green_is_resource_stop(capsys, monkeypatch):
    def never(lattice):
        raise AssertionError("solve reached past the size cap")

    monkeypatch.setattr(operators_module, "MAX_POINTS", 24)  # the n = 18 disk has 25 points
    monkeypatch.setattr(cli, "killed_green_matrix", never)
    rc, out, err = run_cli(capsys, ["killed-green", "--domain", DISK, "--n", "18"])
    assert rc == 1 and out == ""
    assert err.startswith("resource stop:") and "25" in err and "Traceback" not in err


def test_exactly_singular_sparse_factor_is_numerical_failure(capsys, monkeypatch):
    from scipy import sparse
    from scipy.sparse.linalg import splu

    def singular(lattice):  # I - P with its last row and column zeroed
        m = len(lattice)
        return sparse.csc_matrix((np.ones(m - 1), (np.arange(m - 1), np.arange(m - 1))),
                                 shape=(m, m))

    lat = grid_points(Ball((0.0, 0.0), 1.0), GridSpec(d=2, n=18))
    with pytest.raises(RuntimeError, match="singular"):  # what splu itself raises
        splu(singular(lat))
    monkeypatch.setattr(lattice_module, "_killed_laplacian", singular)
    monkeypatch.setattr(lattice_module, "DENSE_LIMIT", 0)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        killed_green_matrix(lat)
    with pytest.raises(np.linalg.LinAlgError, match="singular"):
        killed_green_entries(lat, tuple(lat.points[0]), [tuple(lat.points[-1])])
    rc, out, err = run_cli(capsys, ["converge-disk", "--levels", "1"])
    assert rc == 1 and out == ""
    assert err.startswith("numerical failure:") and "Traceback" not in err


def test_numpy_false_from_runner_fails(capsys, monkeypatch):
    monkeypatch.setitem(cli.RUNNERS, "riesz-mc",
                        lambda cfg: ({"experiment": "riesz-mc"}, None, np.False_))
    rc, _, err = run_cli(capsys, ["riesz-mc"])
    assert rc == 1 and "FAIL" in err


def test_failed_monte_carlo_check_exits_one(capsys, monkeypatch):
    far_off = RieszEstimate(mean=1.0, stderr=1e-6, trials=100, seed=0,
                            step_error=np.float64(1e-6), window_share=0.5,
                            subordination_oracle=0.028)
    monkeypatch.setattr(cli, "estimate_riesz_potential", lambda *a, **k: far_off)
    report, _, passed = cli.run_riesz_mc({**cli.DEFAULTS["riesz-mc"], "seed": 0})
    assert passed is False and report["passed"] is False
    rc, out, _ = run_cli(capsys, ["riesz-mc"])
    assert rc == 1 and json.loads(out)["passed"] is False


def test_riesz_mc_at_beta_one_passes_at_default_flags(capsys):
    # the fixed clock: stderr 0, the gate is the measured trapezoid error
    rc, out, _ = run_cli(capsys, ["riesz-mc", "--beta", "1", "--seed", "0"])
    report = json.loads(out)
    assert rc == 0 and report["passed"] is True
    assert report["estimate"]["stderr"] == 0.0
    assert report["gap"] <= report["tolerance"] == report["estimate"]["step_error"]


def test_negative_tuple_arguments_parse(capsys):
    rc, out, _ = run_cli(
        capsys,
        ["converge-disk", "--x", "0.2,0", "--y", "-0.3,0.1", "--levels", "1", "--base", "2"],
    )
    assert rc == 0
    assert json.loads(out)["reference"] > 0


def test_out_writes_json_csv_meta(tmp_path, capsys):
    base = tmp_path / "report"
    rc, out, _ = run_cli(
        capsys,
        ["converge-disk", "--levels", "2", "--base", "2", "--out", str(base)],
    )
    assert rc == 0 and out == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["experiment"] == "converge-disk"
    csv_body = (tmp_path / "report.csv").read_bytes()
    assert b"\r\n" in csv_body
    assert csv_body.splitlines()[0].startswith(b"n,")
    meta = json.loads((tmp_path / "report.meta.json").read_text())
    assert meta["experiment"] == "converge-disk"
    assert "created_at" in meta and "--levels" in meta["argv"]


def test_reports_byte_identical_across_runs(tmp_path, capsys):
    argv = ["riesz-mc", "--trials", "500", "--time-step", "0.2", "--horizon", "4.0"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(capsys, argv + ["--out", str(a)])[0] == 0
    assert run_cli(capsys, argv + ["--out", str(b)])[0] == 0
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_config_file_fills_missing_options(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": json.loads(DISK), "n": 32}))
    rc, out, _ = run_cli(capsys, ["domain-grid", "--config", str(cfg)])
    assert rc == 0
    assert json.loads(out)["n"] == 32


def test_explicit_flags_beat_config_unless_forced(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": json.loads(DISK), "n": 32}))
    rc, out, _ = run_cli(capsys, ["domain-grid", "--config", str(cfg), "--n", "18"])
    assert rc == 0 and json.loads(out)["n"] == 18
    rc, out, _ = run_cli(capsys, ["domain-grid", "--config", str(cfg), "--n", "18", "--force"])
    assert rc == 0 and json.loads(out)["n"] == 32


def test_config_matrix_may_be_an_array(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"matrix": [[2, 1], [1, 2]], "trials": 50}))
    rc, out, err = run_cli(capsys, ["check-potential", "--config", str(cfg)])
    assert rc == 0, err
    assert json.loads(out)["size"] == 2


def test_config_values_go_through_their_flag_parsers(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": json.loads(DISK), "n": "8", "mode": "interior"}))
    rc, out, err = run_cli(capsys, ["domain-grid", "--config", str(cfg)])
    assert rc == 0, err
    assert json.loads(out)["n"] == 8
    for bad in ({"n": True}, {"n": 8.5}, {"n": [8]}, {"n": "eight"}, {"mode": 3},
                {"mode": "outer"}, {"domain": 5}, {"domain": [1, 2]}):
        cfg.write_text(json.dumps({"domain": json.loads(DISK), **bad}))
        rc, _, err = run_cli(capsys, ["domain-grid", "--config", str(cfg)])
        assert rc == 2 and err.startswith("error:") and "Traceback" not in err, bad


def test_parser_flags_come_from_the_table():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(cli.EXPERIMENTS) == list(cli.RUNNERS) == list(cli.DEFAULTS)
    for name, parser in sub.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings} - {"-h", "--help"}
        table = {"--" + key.replace("_", "-") for key in cli.DEFAULTS[name]}
        assert flags == table | {"--seed", "--out", "--config", "--force"}, name


def test_config_holding_the_defaults_changes_nothing(tmp_path):
    parser = cli.build_parser()
    cfg = tmp_path / "cfg.json"
    for name, defaults in cli.DEFAULTS.items():
        cfg.write_text(json.dumps(defaults))
        assert (cli.merge_config(parser.parse_args([name, "--config", str(cfg)]))
                == cli.merge_config(parser.parse_args([name]))), name


def test_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": json.loads(DISK), "bogus": 1}))
    rc, _, err = run_cli(capsys, ["domain-grid", "--config", str(cfg)])
    assert rc == 2
    assert "bogus" in err


def test_config_setting_the_removed_tail_tolerance_is_a_usage_error(tmp_path, capsys):
    # the Riesz tail is integrated exactly, so no horizon guard is left to set
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tail_tolerance": 1e-3}))
    rc, _, err = run_cli(capsys, ["riesz-mc", "--config", str(cfg)])
    assert rc == 2
    assert "tail_tolerance" in err
    rc, _, err = run_cli(capsys, ["riesz-mc", "--tail-tolerance", "1e-3"])
    assert rc == 2 and "--tail-tolerance" in err


def test_config_can_set_output_path(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": json.loads(DISK), "out": str(tmp_path / "r")}))
    rc, out, _ = run_cli(capsys, ["domain-grid", "--config", str(cfg), "--n", "8"])
    assert rc == 0 and out == ""
    assert (tmp_path / "r.json").exists()


def test_domain_file_reference(tmp_path, capsys):
    dom = tmp_path / "domain.json"
    dom.write_text(DISK)
    rc, out, _ = run_cli(capsys, ["domain-grid", "--domain", f"@{dom}", "--n", "8"])
    assert rc == 0
    assert json.loads(out)["d"] == 2


def test_killed_green_reports_potential_check(capsys):
    rc, out, _ = run_cli(capsys, ["killed-green", "--domain", DISK3, "--n", "12"])
    assert rc == 0
    report = json.loads(out)
    assert report["potential_check"]["is_potential"] is True
    assert report["size"] > 0


def test_cmp_functional_default_probes_reach_the_level_set(capsys):
    # unscaled standard-normal probes keep opF below 1 on the n = 50 disk,
    # which makes every value 0 whatever the operator
    rc, out, err = run_cli(capsys, ["cmp-functional", "--domain", DISK])
    assert rc == 0, err
    report = json.loads(out)
    assert len(report["results"]) == 20
    assert all(r["value"] > 0 for r in report["results"])
    assert report["min_value"] > 0
    op = greenpot.assemble(GridSpec(d=2, n=50), ("power", 2.0), domain=Ball((0.0, 0.0), 1.0))
    gen = greenpot.RngStream(0, stream=cli.STREAMS["functions"]).generator()
    for r in report["results"]:
        f = r["scale"] * gen.standard_normal(len(op.lattice))
        assert np.max(op.matrix @ f) == pytest.approx(2.0, rel=1e-12)


def test_canonical_json_and_csv_formatting():
    assert canonical_json({"b": 1, "a": [1.5, True]}) == '{"a":[1.5,true],"b":1}\n'
    body = csv_text(["x", "y"], [[0.123456789, "s"], [1e-10, (1, 2)]])
    lines = body.split("\r\n")
    assert lines[0] == "x,y"
    assert lines[1] == "0.123457,s"
    assert lines[2] == "1e-10,1 2"


def test_derived_seed_is_stable():
    a = derived_seed(2024, 3, 7)
    assert a == derived_seed(2024, 3, 7)
    assert a != derived_seed(2024, 3, 8)
    assert 0 <= a < 2**32


def _regenerating_sweep(name, param, transform, cfg):
    """The former sweep runner: a fresh population for every parameter value."""
    rows = []
    all_pass = True
    for value in cfg[param + "s"]:
        passes = 0
        for i in range(cfg["count"]):
            green = random_potential(cfg["d"], tuple(cfg["sizes"]),
                                     derived_seed(cfg["seed"], cli.STREAMS["matrices"], i))
            rep = is_inverse_m_matrix(transform(green.entries, value), tol=cfg["tol"])
            passes += rep.is_potential is True
        rows.append([value, passes, cfg["count"], passes / cfg["count"]])
        all_pass &= passes == cfg["count"]
    report = {"experiment": name, "d": cfg["d"], "count": cfg["count"],
              "results": [{param: v, "passes": p, "count": c, "rate": r} for v, p, c, r in rows]}
    return report, ([param, "passes", "count", "rate"], rows), all_pass


@pytest.mark.parametrize("name,param,transform", [("hadamard-sweep", "beta", hadamard_power),
                                                  ("exp-sweep", "alpha", hadamard_exp)])
def test_sweep_builds_its_population_once(monkeypatch, name, param, transform):
    cfg = {**cli.DEFAULTS[name], "count": 12, "seed": 5}
    report, csv_data, passed = _regenerating_sweep(name, param, transform, cfg)
    calls = []

    def counted(*args):
        calls.append(args)
        return random_potential(*args)

    monkeypatch.setattr(cli, "random_potential", counted)
    got_report, got_csv, got_passed = cli.RUNNERS[name](cfg)
    assert len(calls) == cfg["count"]
    assert canonical_json(got_report) == canonical_json(report)
    assert csv_text(*got_csv) == csv_text(*csv_data)
    assert got_passed == passed


# Subcommands that need only numpy: scipy must not be imported by running them.
NUMPY_ONLY = [
    ["hadamard-sweep", "--count", "3", "--sizes", "2,6"],
    ["exp-sweep", "--count", "3", "--sizes", "2,6"],
    ["cmp-random", "--count", "3", "--trials", "200", "--sizes", "2,6"],
    ["check-potential", "--matrix", "[[2,1],[1,2]]", "--trials", "200"],
    ["domain-grid", "--domain", STRIP, "--n", "8", "--mode", "exterior"],
    ["killed-green", "--domain", DISK, "--n", "18"],
    ["cmp-functional", "--domain", DISK, "--n", "18", "--functions", "3"],
]

IMPORT_GUARD = """
import json, sys
import greenpot
from greenpot.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv
assert main(["converge-disk", "--levels", "2"]) == 0
assert "scipy" in sys.modules
"""


def _run_fresh(script: str, arg) -> subprocess.CompletedProcess:
    """Run `script` in a new interpreter with `arg` as JSON in ``sys.argv[1]``."""
    src = str(Path(greenpot.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, "-c", script, json.dumps(arg)],
                          capture_output=True, text=True, timeout=300, env=env)


def test_numpy_only_subcommands_do_not_import_scipy():
    proc = _run_fresh(IMPORT_GUARD, NUMPY_ONLY)
    assert proc.returncode == 0, proc.stderr[-2000:]


QUADRATURE_GUARD = """
import json, sys
from greenpot.cli import main
assert main(json.loads(sys.argv[1])) == 0
assert "scipy.special" in sys.modules
assert "scipy.integrate" not in sys.modules
"""


def test_planar_exit_mc_does_not_import_quadrature():
    # the planar kernel is summed on the shared Bessel rule, not by quad
    proc = _run_fresh(QUADRATURE_GUARD, ["exit-mc", "--domain", DISK, "--trials", "200"])
    assert proc.returncode == 0, proc.stderr[-2000:]


STATS_GUARD = """
import json, sys
from greenpot.cli import main
assert main(json.loads(sys.argv[1])) == 0
assert "scipy.stats" not in sys.modules
"""


def test_riesz_mc_does_not_import_scipy_stats():
    # the ball chance is a scipy.special distribution function, not ncx2
    proc = _run_fresh(STATS_GUARD, ["riesz-mc", "--trials", "200"])
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_planar_lattice_green_is_finite(capsys):
    # |x|^2 reaches 3600, past where scalar quadrature of a(x) gave NaN
    rc, out, err = run_cli(capsys, ["lattice-green", "--d", "2", "--max", "60"])
    assert rc == 0, err
    entries = json.loads(out)["entries"]
    assert len(entries) == 102
    values = [e[k] for e in entries for k in ("value", "asymptote", "ratio")]
    assert all(v is not None and math.isfinite(v) for v in values)


def test_exit_mc_mean_is_finite_on_a_fine_disk(capsys):
    # exit-minus-target keys reach |x|^2 = 3277, where quadrature of a(x) gave NaN
    _, out, _ = run_cli(capsys, ["exit-mc", "--domain", DISK, "--n", "5000", "--trials", "200"])
    report = json.loads(out)
    assert report["estimate"]["mean"] is not None and math.isfinite(report["estimate"]["mean"])
    assert report["gap"] is not None


@pytest.mark.skipif(shutil.which("greenpot") is None, reason="console script not on PATH")
def test_console_script_entry_point():
    proc = subprocess.run(
        ["greenpot", "lattice-green", "--d", "3", "--max", "4"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["experiment"] == "lattice-green"
