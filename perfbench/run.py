#!/usr/bin/env python3
"""Benchmark lipkit the way its users run it: CLI subcommands on generated inputs.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Workloads (see workloads.py for why each one exists): graph-certify,
sv-dynamics, spectral-game, cli-short.

One parent process, one client, closed loop: each job is a fresh child process
running ``lipkit.cli.main`` from ``src/``, started only after the previous
one has exited. The parent cycles through the workload's job list until
``--seconds`` have passed (always at least one full pass). Every job's
output is checked independently; a job fails on a nonzero exit, a timeout
or a failed check, and failed checks are named in the report. A check that
fails only through a documented defect of the program (see
``workloads.check_bound``) is reported as a known defect: it counts in
fail_frac, but not in ``failed`` or ``correct``. BLAS
threads in each child are capped at the number of usable cores.

--trace 0 reports the end-to-end metrics, from untraced children:
  wall_s       sum over jobs of the median wall time of a job, spawn to
               exit (interpreter start and import included)
  compute_s    sum over jobs of the median time inside lipkit.cli.main
  setup_s      median over all job runs of spawn until ``import lipkit.cli``
               has finished
  peak_rss_mb  largest ru_maxrss of any child
  ok_frac      1 - fail_frac, where fail_frac is the mean over jobs of the
               share of that job's runs that failed (fail_frac itself can
               be 0, which an end-to-end metric may not be)
--trace 1 runs every job untraced and then traced (spans from spans.py)
and reports the per-layer metrics in PER_LAYER, plus import times from
``python -X importtime`` children.

Every metric is printed with its unit; the last line is one JSON object
{"correct", "attempted", "failed", "metrics"}. --quick uses tiny sizes.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

JOB_TIMEOUT_S = 60.0
RUN_LIMIT_S = 150.0  # a run must end well inside 180 s, even if a job hangs
IMPORTTIME_RUNS = 3

END_TO_END = {
    "wall_s": "s",
    "compute_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

IMPORTS = {
    "import.lipkit_s": "lipkit",
    "import.scipy_stats_s": "scipy.stats",
    "import.networkx_s": "networkx",
    "import.scipy_optimize_s": "scipy.optimize",
}

# per-layer metric -> the workload whose traced run must report it nonzero
PER_LAYER = {
    **{name: "cli-short" for name in IMPORTS},
    "netbounds.articulation_bound.self_s": "graph-certify",
    "netbounds.articulation_bound.node_visits": "graph-certify",
    "netbounds.node_lipschitz.calls": "graph-certify",
    "netbounds.node_lipschitz.self_s": "graph-certify",
    "netbounds.node_lipschitz.distinct_weight_ratio": "graph-certify",
    "specest.power_iteration.calls": "graph-certify",
    "specest.power_iteration.self_s": "graph-certify",
    "specest.power_iteration.matvecs": "graph-certify",
    "specest.power_iteration.rel_undershoot_max": "graph-certify",
    "_kernels.power_iterate.self_s": "graph-certify",
    "cli.load_network_json.self_s": "graph-certify",
    "netbounds.NetworkGraph.self_s": "graph-certify",
    "netbounds.bound_excess_rel": "graph-certify",
    "svdcalc.sv_hessian.calls": "sv-dynamics",
    "svdcalc.sv_hessian.self_s": "sv-dynamics",
    "svdcalc.sv_hessian.bytes": "sv-dynamics",
    "svdcalc.sv_jacobian.calls": "sv-dynamics",
    "matcore.full_svd.calls": "sv-dynamics",
    "matcore.full_svd.self_s": "sv-dynamics",
    "dynamics.LayerDynamicsState.create.calls": "sv-dynamics",
    "dynamics.LayerDynamicsState.create.self_s": "sv-dynamics",
    "dynamics.driving_forces.self_s": "sv-dynamics",
    "dynamics.trajectory_stats.self_s": "sv-dynamics",
    "dynamics.euler_maruyama.self_s": "sv-dynamics",
    "dynamics.euler_maruyama.noise_bytes": "sv-dynamics",
    "_kernels.em_path.self_s": "sv-dynamics",
    "matcore.load_matrix_csv.self_s": "sv-dynamics",
    "fourlip.load_signal_csv.self_s": "spectral-game",
    "specgame.load_game_csv.self_s": "spectral-game",
    "fourlip.spectrum.ffts": "spectral-game",
    "fourlip.directional_transform.self_s": "spectral-game",
    "fourlip.radial_esd.self_s": "spectral-game",
    "fourlip.band_remove.self_s": "spectral-game",
    "_kernels.direct_dft.self_s": "spectral-game",
    "_kernels.direct_dft.ops": "spectral-game",
    "specgame.shapley_exact.self_s": "spectral-game",
    "_kernels.shapley_accumulate.self_s": "spectral-game",
    "specgame.shapley_mc.self_s": "spectral-game",
    "specgame.shapley_mc.value_calls": "spectral-game",
    "activations.make_activation.calls": "cli-short",
    "activations.make_activation.self_s": "cli-short",
    "activations.numeric_scalar_lipschitz.self_s": "cli-short",
    "activations.numeric_softmax_lipschitz.self_s": "cli-short",
    # self time per module; with cli.self_s they add up to trace.compute_s
    "cli.self_s": "sv-dynamics",
    "matcore.self_s": "sv-dynamics",
    "svdcalc.self_s": "sv-dynamics",
    "specest.self_s": "graph-certify",
    "activations.self_s": "cli-short",
    "netbounds.self_s": "graph-certify",
    "fourlip.self_s": "spectral-game",
    "dynamics.self_s": "sv-dynamics",
    "specgame.self_s": "spectral-game",
    "_kernels.self_s": "spectral-game",
    "trace.compute_s": "cli-short",
    "trace.accounted_frac": "cli-short",
    "trace.overhead_frac": None,  # a difference of two timings; may be 0 or negative
}


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("_frac", "_ratio", "_rel", "_max")):
        return "ratio"
    return "count"


def nproc():
    return len(os.sched_getaffinity(0))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(nproc())
    return env


# what one child process left behind; ``record`` is child.py's JSON, or None
Child = collections.namedtuple("Child", "record wall rss_mb code timed_out stdout")


class Run:
    """One execution of one job in a fresh child process, and its verdict."""

    def __init__(self, job, child):
        self.job, self.record, self.wall, self.rss_mb = job, child.record, child.wall, child.rss_mb
        record = child.record
        self.setup = record["imported"] - record["spawned"] if record else None
        self.compute = record["main_end"] - record["main_start"] if record else None
        if child.timed_out:
            self.verdict = workloads.Verdict(["timeout"])
        elif child.code != 0 or record is None:
            self.verdict = workloads.Verdict([f"exit_code_{child.code}"])
        else:
            self.verdict = job.check(child.stdout)


def spawn(argv, workdir, tag, traced, timeout):
    """Start child.py, wait for it with os.wait4 to get its rusage, and
    return a Child."""
    record_path = os.path.join(workdir, f"{tag}.record.json")
    out_path = os.path.join(workdir, f"{tag}.stdout")
    if os.path.exists(record_path):
        os.remove(record_path)
    killed = threading.Event()
    with open(out_path, "wb") as out, open(os.path.join(workdir, f"{tag}.stderr"), "wb") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, CHILD, record_path, "1" if traced else "0", *argv],
            stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=child_env(), cwd=ROOT,
        )

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped by wait4
    record = None
    if os.path.exists(record_path):
        with open(record_path) as fh:
            record = json.load(fh)
        record["spawned"] = spawned
    with open(out_path) as fh:
        stdout = fh.read()
    return Child(record, ended - spawned, usage.ru_maxrss / 1024.0, proc.returncode,
                 killed.is_set(), stdout)


def import_times(runs, timeout):
    """Median cumulative import time of each module in IMPORTS, from
    ``python -X importtime -c 'import lipkit.cli'`` in fresh children."""
    samples = {name: [] for name in IMPORTS}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import lipkit.cli"],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            env=child_env(), cwd=ROOT, timeout=timeout, text=True, check=True,
        )
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and line.startswith("import time:") and parts[1].strip().isdigit():
                cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
        for name, module in IMPORTS.items():
            samples[name].append(cumulative.get(module, 0.0))
    return {name: statistics.median(vals) for name, vals in samples.items()}


def sum_of_medians(runs_by_job, value):
    total = 0.0
    for runs in runs_by_job.values():
        vals = [value(r) for r in runs if value(r) is not None]
        if vals:
            total += statistics.median(vals)
    return total


def layer_values(run):
    """Per-layer numbers of one traced run: span calls and self times,
    module self-time totals, and counters."""
    trace = run.record["trace"]
    out = dict(trace["counts"])
    for name, span in trace["spans"].items():
        out[f"{name}.calls"] = span["calls"]
        out[f"{name}.self_s"] = span["self_s"]
        module = name.split(".", 1)[0]
        out[f"{module}.self_s"] = out.get(f"{module}.self_s", 0.0) + span["self_s"]
    out["trace.span_s"] = sum(span["self_s"] for span in trace["spans"].values())
    out["netbounds.node_lipschitz.distinct_weight_refs"] = trace["distinct_weight_refs"]
    out["netbounds.node_lipschitz.linear_calls"] = trace["linear_node_calls"]
    return out


def per_layer_metrics(untraced, traced, diag, imports):
    values = {}  # sum over jobs of the median over that job's traced runs
    for runs in traced.values():
        samples = [layer_values(r) for r in runs if r.record]
        for key in set().union(*samples):
            values[key] = values.get(key, 0.0) + statistics.median(s.get(key, 0.0) for s in samples)
    traced_compute = sum_of_medians(traced, lambda r: r.compute)
    untraced_compute = sum_of_medians(untraced, lambda r: r.compute)
    linear = values.get("netbounds.node_lipschitz.linear_calls", 0)
    values.update(imports)
    values.update(diag)
    values["netbounds.node_lipschitz.distinct_weight_ratio"] = (
        values.get("netbounds.node_lipschitz.distinct_weight_refs", 0) / linear if linear else 0.0)
    values["trace.compute_s"] = traced_compute
    values["trace.accounted_frac"] = (
        values.get("trace.span_s", 0.0) / traced_compute if traced_compute else 0.0)
    values["trace.overhead_frac"] = (
        traced_compute / untraced_compute - 1.0 if untraced_compute else 0.0)
    return {name: values.get(name, 0.0) for name in PER_LAYER}


def run_workload(args, workdir):
    jobs = workloads.build(args.workload, args.seed, workdir, quick=args.quick)
    started = time.monotonic()
    hard_stop = started + RUN_LIMIT_S

    def timeout():
        return max(1.0, min(JOB_TIMEOUT_S, hard_stop - time.monotonic()))

    warm = spawn([], workdir, "warmup", False, timeout())  # fills caches, reports the environment
    if warm.record is None or warm.code != 0:
        with open(os.path.join(workdir, "warmup.stderr")) as fh:
            raise RuntimeError("lipkit.cli does not import:\n" + fh.read()[-2000:])
    threads = int(child_env()["OPENBLAS_NUM_THREADS"])
    env = dict(warm.record["env"], nproc=nproc(), blas_threads=threads)
    imports = import_times(1 if args.quick else IMPORTTIME_RUNS, timeout()) if args.trace else {}

    deadline = time.monotonic() + args.seconds
    untraced = {job.name: [] for job in jobs}
    traced = {job.name: [] for job in jobs}
    first_pass = True
    while first_pass or time.monotonic() < deadline:
        for i, job in enumerate(jobs):
            if not first_pass and time.monotonic() >= deadline:
                break
            for is_traced in ((False, True) if args.trace else (False,)):
                tag = f"{i}-{'t' if is_traced else 'u'}"
                run = Run(job, spawn(job.argv, workdir, tag, is_traced, timeout()))
                (traced if is_traced else untraced)[job.name].append(run)
        first_pass = False
    return jobs, env, imports, untraced, traced


def listed(values):
    return "[" + " ".join(f"{v:.3f}" for v in values) + "]"


def report(args, jobs, env, imports, untraced, traced):
    every = [r for runs in (*untraced.values(), *traced.values()) for r in runs]
    attempted = len(every)
    failed = sum(1 for r in every if r.verdict.failures)
    checks = collections.Counter(
        f"{r.job.name}: {name}" for r in every for name in r.verdict.failures)
    known = collections.Counter(
        f"{r.job.name}: {name}" for r in every for name in r.verdict.known)
    diag = {}  # the worst value any output check measured
    for key, worst in (("specest.power_iteration.rel_undershoot_max", max),
                       ("netbounds.bound_excess_rel", min)):
        diag[key] = worst((r.verdict.diag[key] for r in every if key in r.verdict.diag),
                          default=0.0)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} "
          f"trace {int(args.trace)} quick {int(args.quick)}")
    print("env " + json.dumps(env, sort_keys=True))
    for job in jobs:
        runs = untraced[job.name]
        walls = [r.wall for r in runs]
        computes = [r.compute for r in runs if r.compute is not None]
        print(f"job {job.name} runs={len(runs)} failed={sum(1 for r in runs if r.verdict.failures)} "
              f"known_defect={sum(1 for r in runs if r.verdict.known)} "
              f"wall_s={listed(walls)} compute_s={listed(computes)}")
    # A run fails for fail_frac on any failed check, a known defect included;
    # each job weighs the same, however many times it ran before the deadline.
    fail_frac = statistics.fmean(
        sum(1 for r in runs if r.verdict.failures or r.verdict.known) / len(runs)
        for runs in untraced.values())
    with_known = sum(1 for r in every if r.verdict.failures or r.verdict.known)
    print(f"fail_frac = {fail_frac:.6f} over {len(jobs)} jobs "
          f"({with_known} of {attempted} job runs failed, traced runs included; "
          f"{failed} of them on a check that is not a known defect)")
    for key, count in sorted(checks.items()):
        print(f"failed check {key} x{count}")
    for key, count in sorted(known.items()):
        print(f"known defect {key} x{count} (counted in fail_frac, not in failed)")

    if args.trace:
        metrics = {name: (value, unit_of(name))
                   for name, value in per_layer_metrics(untraced, traced, diag, imports).items()}
    else:
        runs = [r for rs in untraced.values() for r in rs]
        values = {
            "wall_s": sum_of_medians(untraced, lambda r: r.wall),
            "compute_s": sum_of_medians(untraced, lambda r: r.compute),
            "setup_s": statistics.median(r.setup for r in runs if r.setup is not None),
            "peak_rss_mb": max(r.rss_mb for r in runs),
            "ok_frac": 1.0 - fail_frac,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="tiny inputs, for smoke tests")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lipkit", "cli.py")):
        print(f"error: no lipkit sources under {SRC}", file=sys.stderr)
        return 2
    base = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result = run_workload(args, workdir)
    except (RuntimeError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    else:
        report(args, *result)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(base) and not os.listdir(base):
            os.rmdir(base)


if __name__ == "__main__":
    sys.exit(main())
