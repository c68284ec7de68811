"""greenpot benchmark: the CLI driven the way a user drives it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client runs the workload's
subcommands one at a time, each in a fresh process (a closed loop), and
repeats the whole pass until ``--seconds`` have gone by.  Every child is
pinned to one BLAS/OpenMP thread and ``GREENPOT_THREADS=1``, so this is
the plain single-threaded baseline.  ``--seed`` is passed to every
invocation.

Each invocation fails, and counts in ``failed``, when it exits nonzero,
when its report fails the subcommand's check, or when its ``.json``
report differs by one byte from the same invocation in another pass.

``--trace 0`` reports the end-to-end metrics ``wall_s`` (one pass, as the
parent sees it), ``setup_s`` (process start until ``greenpot.cli`` is
imported) and ``peak_rss_mb`` (largest child ``ru_maxrss`` in a pass),
each the median over the run.  ``--trace 1`` alternates untraced and
traced passes; the traced children record spans around each module's
public functions (see ``spans.py``) and the run reports the per-layer
metrics of ``PER_LAYER`` plus the tracing overhead.

Lines before the last describe the run: provenance, sample counts and
high percentiles, ``error_rate``, and on ``dense-refine`` the finest-level
relative errors of both refinement studies.  The last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "GREENPOT_THREADS": "1"}
INVOCATION_TIMEOUT_S = 60

DISK = '{"d":2,"shape":{"ball":{"center":[0.0,0.0],"radius":1.0}}}'

# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "matrix-sweep": [["hadamard-sweep"], ["exp-sweep"], ["cmp-random"]],
    "dense-refine": [["converge-disk"], ["killed-green", "--domain", DISK, "--n", "1458"],
                     ["converge-free"]],
    "mc-occupation": [["riesz-mc"], ["exit-mc", "--domain", DISK]],
}


def _sweep_passes(report):
    return all(row["passes"] == row["count"] for row in report["results"])


def _refines(report):
    errors = report["rel_errors"]
    return all(b < a for a, b in zip(errors, errors[1:]))


# Report checks beyond the exit code.  The disk error is recorded, never
# gated: the finest disk level sits just above 5% by a known rounding
# effect, and the levels are not re-tuned to hide it.
CHECKS = {
    "hadamard-sweep": _sweep_passes,
    "exp-sweep": _sweep_passes,
    "cmp-random": lambda r: len(r["results"]) == r["count"],
    "converge-disk": _refines,
    "converge-free": _refines,
    "killed-green": lambda r: r["potential_check"]["is_potential"] is True,
    "riesz-mc": lambda r: r["passed"] is True,
    "exit-mc": lambda r: r["passed"] is True,
}

# The per-layer metrics of the traced run: name, unit, better, the
# end-to-end metric it should move, and the workloads where it should.
# On every other workload the prediction is no change.
PER_LAYER = [
    ("lattice.whole_space_green.calls", "count", "lower", "wall_s", "dense-refine"),
    ("lattice.whole_space_green.self_s", "s", "lower", "wall_s", "dense-refine"),
    ("lattice.whole_space_green.unique_ratio", "ratio", "higher", "wall_s", "dense-refine"),
    ("lattice.potential_kernel_2d.calls", "count", "lower", "wall_s", "mc-occupation"),
    ("lattice.potential_kernel_2d.self_s", "s", "lower", "wall_s", "mc-occupation"),
    ("lattice.killed_green_matrix.calls", "count", "lower", "wall_s", "dense-refine matrix-sweep"),
    ("lattice.killed_green_matrix.self_s", "s", "lower", "wall_s", "dense-refine matrix-sweep"),
    ("lattice.killed_green_matrix.points", "count", "lower", "wall_s", "dense-refine matrix-sweep"),
    ("lattice.killed_green_matrix.max_points", "count", "lower", "wall_s", "dense-refine"),
    ("lattice.killed_green_matrix.dense_bytes", "bytes", "lower", "wall_s", "dense-refine matrix-sweep"),
    ("potential.is_inverse_m_matrix.calls", "count", "lower", "wall_s", "dense-refine matrix-sweep"),
    ("potential.is_inverse_m_matrix.self_s", "s", "lower", "wall_s", "dense-refine matrix-sweep"),
    ("potential.is_inverse_m_matrix.max_size", "count", "lower", "wall_s", "dense-refine"),
    ("potential.is_inverse_m_matrix.unreliable", "count", "lower", "wall_s", "dense-refine matrix-sweep"),
    ("potential.random_potential.calls", "count", "lower", "wall_s", "matrix-sweep"),
    ("potential.random_potential.self_s", "s", "lower", "wall_s", "matrix-sweep"),
    ("potential.random_potential.unique_ratio", "ratio", "higher", "wall_s", "matrix-sweep"),
    ("potential.sample_cmp.calls", "count", "lower", "wall_s", "matrix-sweep"),
    ("potential.sample_cmp.self_s", "s", "lower", "wall_s", "matrix-sweep"),
    ("domains.grid_points.self_s", "s", "lower", "wall_s", "dense-refine"),
    ("domains.grid_points.points", "count", "lower", "wall_s", "dense-refine"),
    ("domains.exterior_grid.self_s", "s", "lower", "wall_s", "dense-refine"),
    ("domains.exterior_grid.points", "count", "lower", "wall_s", "dense-refine"),
    ("operators.assemble.calls", "count", "lower", "wall_s peak_rss_mb", "dense-refine"),
    ("operators.assemble.self_s", "s", "lower", "wall_s peak_rss_mb", "dense-refine"),
    ("operators.assemble.points", "count", "lower", "wall_s peak_rss_mb", "dense-refine"),
    ("operators.assemble.matrix_bytes", "bytes", "lower", "wall_s peak_rss_mb", "dense-refine"),
    ("operators.apply_operator.self_s", "s", "lower", "wall_s", "dense-refine"),
    ("operators.converge.self_s", "s", "lower", "wall_s", "dense-refine"),
    ("kernels.ball_kernel_integral.calls", "count", "lower", "none (control)", "all"),
    ("kernels.ball_kernel_integral.self_s", "s", "lower", "none (control)", "all"),
    ("mc.sample_stable_increment.calls", "count", "lower", "wall_s peak_rss_mb", "mc-occupation"),
    ("mc.sample_stable_increment.self_s", "s", "lower", "wall_s peak_rss_mb", "mc-occupation"),
    ("mc.sample_stable_increment.draws", "count", "lower", "wall_s peak_rss_mb", "mc-occupation"),
    ("mc.estimate_riesz_potential.self_s", "s", "lower", "wall_s peak_rss_mb", "mc-occupation"),
    ("mc.estimate_boundary_term.self_s", "s", "lower", "wall_s", "mc-occupation"),
    ("cli.import_s", "s", "lower", "setup_s", "all"),
    ("cli.main.self_s", "s", "lower", "wall_s", "matrix-sweep"),
    ("cli.report_bytes", "bytes", "lower", "wall_s", "matrix-sweep"),
    ("trace.overhead_s", "s", "lower", "none (tracing cost)", "all"),
]
# Per-call counters summed over a pass; max_* counters take the maximum.
MAX_COUNTERS = ("max_points", "max_size")


class BenchError(Exception):
    """The benchmark cannot run here."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREADS)
    env["PYTHONPATH"] = str(SRC)
    return env


def provenance() -> dict:
    """Machine, library versions and thread settings, as the children see them.

    Also warms the import path before anything is timed.
    """
    probe = (
        "import json, platform, numpy, scipy, greenpot.cli\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,"
        " 'scipy': scipy.__version__, 'blas': blas.get('name'),"
        " 'blas_version': blas.get('version')}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", probe], env=child_env(), cwd=ROOT,
                          capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"cannot import greenpot from {SRC}: {proc.stderr.strip()[-300:]}")
    info = json.loads(proc.stdout)
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    info.update({"nproc": os.cpu_count(), "cpu": cpu, "threads": THREADS})
    return info


def invoke(work: Path, label: str, argv: list, seed: int, trace: bool) -> dict:
    """One subcommand in a fresh process; returns its measurements and verdict."""
    base = work / label
    stats_path = work / f"{label}.stats.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(stats_path), "1" if trace else "0",
           *argv, "--seed", str(seed), "--out", str(base)]
    env = child_env()
    env["GREENPOT_BENCH_SPAWN"] = repr(time.monotonic())
    out = {"subcommand": argv[0], "error": None, "report": b"", "stats": {}}
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        proc = None
        out["error"] = f"no exit within {INVOCATION_TIMEOUT_S} s"
    if stats_path.exists():
        out["stats"] = json.loads(stats_path.read_text())
    report_path = base.with_suffix(".json")
    if report_path.exists():
        out["report"] = report_path.read_bytes()
    if proc is not None and proc.returncode != 0:
        out["error"] = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    elif proc is not None:
        try:
            if not CHECKS[argv[0]](json.loads(out["report"])):
                out["error"] = "report check failed"
        except (ValueError, KeyError, TypeError) as exc:
            out["error"] = f"malformed report: {exc!r}"
    for path in work.glob(f"{label}.*"):
        path.unlink()
    return out


def run_pass(work: Path, workload: str, seed: int, trace: bool, index: int) -> dict:
    start = time.perf_counter()
    calls = [invoke(work, f"p{index}-{k}", argv, seed, trace)
             for k, argv in enumerate(WORKLOADS[workload])]
    return {"wall_s": time.perf_counter() - start, "traced": trace, "calls": calls}


def check_identical(passes: list) -> None:
    """Fail any invocation whose report differs from the same one in pass 0."""
    reference = [c["report"] for c in passes[0]["calls"]]
    for p in passes[1:]:
        for c, ref in zip(p["calls"], reference):
            if c["error"] is None and c["report"] != ref:
                c["error"] = "report differs from pass 0"


def high_percentile(values: list):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def describe(name: str, unit: str, values: list) -> str:
    line = f"{name}: median {statistics.median(values):.6g} {unit}, n={len(values)}"
    hp = high_percentile(values)
    if hp is None:
        return line + ", no percentile with 10 samples beyond it"
    return line + f", p{hp[0]:.0f} {hp[1]:.6g} {unit}"


def end_to_end(passes: list, workload: str) -> tuple[dict, list]:
    walls = [p["wall_s"] for p in passes]
    setups = [c["stats"]["setup_s"] for p in passes for c in p["calls"] if c["stats"]]
    rss = [max(c["stats"].get("maxrss_kb", 0) for c in p["calls"]) / 1024.0 for p in passes]
    metrics = {"wall_s": (statistics.median(walls), "s"),
               "setup_s": (statistics.median(setups), "s"),
               "peak_rss_mb": (statistics.median(rss), "MB")}
    lines = [describe("wall_s", "s", walls), describe("setup_s", "s", setups),
             describe("peak_rss_mb", "MB", rss)]
    calls = [c for p in passes for c in p["calls"]]
    failed = sum(c["error"] is not None for c in calls)
    lines.append(f"error_rate: {failed / len(calls):.6g} ratio ({failed} of {len(calls)})")
    if workload == "dense-refine":
        for c in passes[0]["calls"]:
            if c["subcommand"] in ("converge-disk", "converge-free") and c["report"]:
                key = "disk_rel_error" if c["subcommand"] == "converge-disk" else "free_rel_error"
                error = json.loads(c["report"])["rel_errors"][-1]
                lines.append(f"{key}: {error!r} ratio")
    return metrics, lines


def layer_totals(p: dict) -> dict:
    """Calls, self time and counters per layer, summed over one traced pass."""
    totals: dict[str, dict] = {}
    for c in p["calls"]:
        trace = c["stats"].get("trace")
        if trace is None:
            continue
        names = trace["names"]
        for span, own in zip(trace["spans"], self_times(trace["spans"])):
            layer = totals.setdefault(names[span[0]], {})
            layer["calls"] = layer.get("calls", 0) + 1
            layer["self_s"] = layer.get("self_s", 0.0) + own
        for name, counters in trace["counters"].items():
            layer = totals.setdefault(name, {})
            for key, value in counters.items():
                merge = max if key in MAX_COUNTERS else operator.add
                layer[key] = merge(layer.get(key, 0), value)
    return totals


def per_layer(passes: list) -> dict:
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    totals = [layer_totals(p) for p in traced]
    metrics = {}
    for name, unit, _better, _moves, _where in PER_LAYER:
        # counts repeat exactly from pass to pass; median_low keeps them integers
        middle = statistics.median if unit == "s" else statistics.median_low
        if name == "cli.import_s":
            value = statistics.median(c["stats"]["import_s"] for p in passes
                                      for c in p["calls"] if c["stats"])
        elif name == "cli.report_bytes":
            value = middle(sum(len(c["report"]) for c in p["calls"]) for p in passes)
        elif name == "trace.overhead_s":
            value = (statistics.median(p["wall_s"] for p in traced)
                     - statistics.median(p["wall_s"] for p in untraced))
        else:
            layer, field = name.rsplit(".", 1)
            samples = []
            for t in totals:
                entry = t.get(layer, {})
                if field == "unique_ratio":
                    calls = entry.get("calls", 0)
                    samples.append(entry.get("unique", 0) / calls if calls else 0.0)
                else:
                    samples.append(entry.get(field, 0))
            value = middle(samples)
        metrics[name] = (value, unit)
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "greenpot" / "cli.py").is_file():
        print(f"error: no greenpot sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        info = provenance()
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("provenance: " + json.dumps(info, sort_keys=True))
    trace = bool(args.trace)
    scratch = HERE / ".work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        passes = []
        start = time.perf_counter()
        # Start another pass while it would end less than half a pass past
        # the deadline, so a run lasts about --seconds whatever the pass
        # length.  A traced run needs one untraced and one traced pass.
        while len(passes) < 1 + trace or (
                time.perf_counter() - start + passes[-1]["wall_s"] / 2 < args.seconds):
            passes.append(run_pass(work, args.workload, args.seed,
                                   trace and len(passes) % 2 == 1, len(passes)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check_identical(passes)
    calls = [c for p in passes for c in p["calls"]]
    for c in calls:
        if c["error"] is not None:
            print(f"FAILED {c['subcommand']}: {c['error']}")
    e2e, lines = end_to_end([p for p in passes if not p["traced"]], args.workload)
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
          f"({sum(p['traced'] for p in passes)} traced), closed loop, one client")
    for line in lines:
        print(line)
    print("pass wall_s: " + " ".join(f"{p['wall_s']:.3f}{'t' if p['traced'] else ''}"
                                     for p in passes))
    metrics = e2e
    if trace:
        metrics = per_layer(passes)
        for name, unit, _better, moves, where in PER_LAYER:
            print(f"{name}: {metrics[name][0]!r} {unit}  (should move {moves} on {where})")
    failed = sum(c["error"] is not None for c in calls)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
