"""End-to-end benchmark of varopt experiments.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates one workload's config from the seed, then repeats what
`varopt run` does, build_experiment followed by run_experiment(config,
write=True), one experiment at a time in this one process, for about S
seconds.  Every repetition is checked (see check_artifacts).  Stdout ends
with a table, an environment record and, as its last line, one JSON
object with "correct", "attempted", "failed" and "metrics":

* --trace 0: experiment_s (median wall time of run_experiment), setup_s
  (median wall time of build_experiment, called SETUPS_PER_REP times
  before each experiment) and peak_rss_mb (peak resident memory of this
  process).  Both times are rescaled to a fixed host speed (see
  hostspeed.py); the wall times are printed in the table.
* --trace 1: the per-layer metrics of tracing.LAYER_METRICS, from
  repetitions alternating between untraced and traced, medians over the
  traced ones.

failed / attempted is failed_frac: failed seeds plus failed checks over
the seeds and checks attempted.  It is printed in the table; it is not a
metric because it is 0 when all is well.
"""

from __future__ import annotations

import os

# Pinned before numpy loads: one BLAS thread keeps timings steady on a
# shared machine, and the matrices here (d <= 16) gain nothing from more.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
# It would replace the generated seed list.
os.environ.pop("VAROPT_SEED", None)

import argparse
import gc
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import hostspeed
import oracles
import tracing
from workloads import SPEED_KINDS, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS_PER_REP = 3
MIN_REPS = 2     # the byte-identity check needs a second repetition


class Checks:
    """Counts of attempted and failed seeds and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)


def check_artifacts(artifacts, oracle, checks: Checks, reference: dict) -> tuple:
    """Check one experiment; returns (phi_max_rel_err, csv bytes, verdicts).

    Each seed must complete all steps without error; Phi must match its
    closed form to oracles.PHI_RTOL; the written files must equal those of
    the first repetition byte for byte (reference starts empty); on an
    empirical problem the final mean gap must be below the initial one.
    """
    config = artifacts.config
    complete = []
    for seed, traj in zip(config.seeds, artifacts.trajectories):
        ok = traj.error is None and traj.steps == config.steps
        checks.record(ok, f"seed {seed}: {traj.error or f'{traj.steps} of {config.steps} steps'}")
        if ok:
            complete.append(traj)

    phi_err = max((oracles.max_rel_err(t.phi_path, oracle(t.times[:-1])) for t in complete),
                  default=float("nan"))
    checks.record(phi_err <= oracles.PHI_RTOL,
                  f"Phi deviates from its closed form by {phi_err:.3g}")

    digests = {}
    csv_bytes = 0
    for path in artifacts.files:
        data = Path(path).read_bytes()
        digests[os.path.basename(path)] = hashlib.sha256(data).hexdigest()
        csv_bytes += len(data)
    if reference:
        checks.record(digests == reference, "artifacts differ from the first repetition")
    else:
        reference.update(digests)

    if config.optimizer_spec.mode == "empirical":
        first = np.mean([t.loss_gap[0] for t in complete]) if complete else np.nan
        last = np.mean([t.loss_gap[-1] for t in complete]) if complete else np.nan
        checks.record(bool(last < first), f"mean gap went from {first:.3g} to {last:.3g}")

    verdicts = {}
    if artifacts.supermartingale is not None:
        verdicts["supermartingale_pass"] = bool(artifacts.supermartingale.passed)
    if artifacts.rate_bound is not None:
        verdicts["rate_bound_pass"] = bool(artifacts.rate_bound.passed)
    return phi_err, csv_bytes, verdicts


def timed(fn, *args):
    gc.collect()
    start = time.perf_counter()
    value = fn(*args)
    return value, time.perf_counter() - start


def keep_going(times: list, start: float, seconds: float) -> bool:
    """Another repetition, timed so far at times, fits in the measuring time
    (or too few so far)."""
    if len(times) < MIN_REPS:
        return True
    return time.perf_counter() - start + statistics.median(times) <= seconds


def bench_end_to_end(cfg, oracle, seconds, checks, kinds):
    """Repetitions of SETUPS_PER_REP set-ups and one experiment.  Each
    time is rescaled to a fixed host speed by the hostspeed kernel that
    kinds names for its metric, timed just before and just after it."""
    from varopt.harness import config as vconfig, runner as vrunner

    samples = {name: [] for name in ("experiment_s", "setup_s",
                                     "wall experiment_s", "wall setup_s")}
    kernel_times = {kind: [] for kind in set(kinds.values())}
    reference, verdicts, rep_times = {}, {}, []
    start = time.perf_counter()
    before_setup = hostspeed.time_kernels(kernel_times)
    while keep_going(rep_times, start, seconds):
        rep_start = time.perf_counter()
        setups = []
        for _ in range(SETUPS_PER_REP):
            config, elapsed = timed(vconfig.build_experiment, cfg)
            setups.append(elapsed)
        shutil.rmtree(config.output, ignore_errors=True)
        before_run = hostspeed.time_kernels(kernel_times)
        artifacts, elapsed = timed(vrunner.run_experiment, config, True)
        after_run = hostspeed.time_kernels(kernel_times)
        _, _, verdicts = check_artifacts(artifacts, oracle, checks, reference)

        samples["setup_s"] += [hostspeed.at_nominal_speed(
            s, kinds["setup_s"], before_setup, before_run) for s in setups]
        samples["experiment_s"].append(hostspeed.at_nominal_speed(
            elapsed, kinds["experiment_s"], before_run, after_run))
        samples["wall setup_s"] += setups
        samples["wall experiment_s"].append(elapsed)
        for kind, times in kernel_times.items():
            times += [before_run[kind], after_run[kind]]
        # The kernels timed after this experiment precede the next set-ups.
        before_setup = after_run
        rep_times.append(time.perf_counter() - rep_start)

    for kind, times in kernel_times.items():
        samples[f"{kind} kernel"] = times
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    metrics = {
        "experiment_s": (statistics.median(samples["experiment_s"]), "s"),
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    return metrics, samples, verdicts


def bench_traced(cfg, oracle, seconds, checks):
    from varopt.harness import config as vconfig, runner as vrunner

    span_probes, missing = tracing.resolve(tracing.SPAN_PROBES)
    count_probes, missing_counts = tracing.resolve(tracing.COUNT_PROBES)
    missing += missing_counts
    for target in missing:
        print(f"perfbench: trace probe {target} not found; its layer reads 0 calls",
              file=sys.stderr)

    tracer = tracing.Tracer()
    plain, traced, rows, reference, verdicts = [], [], [], {}, {}
    start = time.perf_counter()
    while keep_going(plain + traced, start, seconds):
        tracer.reset()
        shutil.rmtree(cfg["output"], ignore_errors=True)
        if len(plain) > len(traced):
            with tracing.instrument(tracer, span_probes, count_probes):
                config = vconfig.build_experiment(cfg)
                tracing.count_schedule_evals(tracer, config.schedule)
                if config.optimizer_spec.schedule is not config.schedule:
                    tracing.count_schedule_evals(tracer, config.optimizer_spec.schedule)
                artifacts, elapsed = timed(vrunner.run_experiment, config, True)
            traced.append(elapsed)
            row = tracing.layer_metrics(tracer)
        else:
            config = vconfig.build_experiment(cfg)
            artifacts, elapsed = timed(vrunner.run_experiment, config, True)
            plain.append(elapsed)
            row = None
        phi_err, csv_bytes, verdicts = check_artifacts(artifacts, oracle, checks, reference)
        if row is not None:
            row.update({"schedules.phi_max_rel_err": phi_err, "runner.csv_bytes": csv_bytes,
                        "trace.experiment_s": elapsed})
            rows.append(row)

    metrics = {}
    for metric in tracing.LAYER_METRICS:
        if metric.name in rows[0]:
            metrics[metric.name] = (statistics.median(r[metric.name] for r in rows),
                                    metric.unit)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    metrics["trace.missing_probes"] = (len(missing), "count")
    return metrics, {"untraced experiment_s": plain, "trace.experiment_s": traced}, verdicts


def git_commit():
    """HEAD of the checkout's git repository, read from files; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import varopt

    backend = getattr(varopt, "BACKEND_NAME", None)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "varopt_backend": backend,
        "git_commit": git_commit(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "varopt" / "__init__.py").is_file():
        print(f"perfbench: no varopt sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    cfg, oracle = WORKLOADS[args.workload](args.seed, str(out_dir))
    checks = Checks()
    try:
        if args.trace:
            metrics, samples, verdicts = bench_traced(cfg, oracle, args.seconds, checks)
        else:
            metrics, samples, verdicts = bench_end_to_end(
                cfg, oracle, args.seconds, checks, SPEED_KINDS[args.workload])
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        if OUT.is_dir() and not any(OUT.iterdir()):
            OUT.rmdir()

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seeds per experiment {len(cfg['seeds'])}")
    for name, values in samples.items():
        q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        print(f"  {name} over {len(values)} calls: q1 {q1:.6g}, median {q2:.6g}, q3 {q3:.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(f"  {'failed_frac':36s} {checks.failed / checks.attempted:.6g} "
          f"({checks.failed} of {checks.attempted} seeds and checks)")
    for name, passed in verdicts.items():
        print(f"  {name:36s} {passed}")
    print("perfbench env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
