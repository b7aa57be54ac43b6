#!/usr/bin/env python3
"""Benchmark of multiwell: closed-loop workloads, one caller, one process.

Run from the repository root:

    python3 benchmarks/run.py --workload alc_numeric --seed 1 --seconds 25 --trace 0

Workloads (inputs, ops and checks live in workloads.py):

  harmonic_study  closed-form study at one alpha: crossing_table, pairing_gaps,
                  an 11-point asym_locus_cubic sweep, harmonic_wells
  alc_numeric     numerical solve_crossing against converged reference deltas
  reloc_sweep     `multiwell sweep` relocalization scans through cli.main

The seed makes one pass of op inputs; the pass repeats until --seconds have
elapsed, always finishing the pass it is in, so every count per op repeats
exactly for a given seed.  Every op's output is checked; an op that raises
or fails its check counts as failed.

--trace 0 reports the end-to-end metrics, with the library unwrapped.  Op
and setup times are divided by a machine-speed factor (calibration.py);
setup_s is the median over this run's own setup and SETUP_PROBES setups of
fresh interpreters, run between ops spread over the measured time.
--trace 1 is a separate run: it runs each op once plain and once with the
library's public functions wrapped (tracing.py), and reports per-op calls and
self time of each function, derived counts, and the tracing overhead.  Spans
are written to .bench_out/spans-<workload>.npz.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it, also written to .bench_out/, records
the seed, the environment, fail_frac and the sample details.  The record
of an untraced run also keeps the raw op, setup and kernel times, from which
fit_shares.py refits the python shares of the speed factor.

Which end-to-end metric each layer metric should move:

  spectrum.solve_numerical.self_s   op_s_p50 on alc_numeric and reloc_sweep;
                                    not on harmonic_study (no eigensolves)
  wells.critical_points.*,          op_s_p50 mostly on reloc_sweep and
  polynomial.real_roots.*           alc_numeric
  crossings.residual_evals_per_solve  op_s_p50 on alc_numeric and
                                    harmonic_study; not on reloc_sweep
  cli.main.self_s                   reloc_sweep only
  a new discretization              err_max on alc_numeric; not on reloc_sweep,
                                    whose error the lattice step limits
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, set before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOAD_NAMES = ("harmonic_study", "alc_numeric", "reloc_sweep")
# op_s_tail is the highest of these percentiles with >= 10 samples beyond it.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_BEYOND = 10
# Fresh-process setups on top of this run's own, spread evenly over the
# measured time so that their median spans the machine's speed phases;
# setup_s is the median of all of them, each divided by its speed factor.
SETUP_PROBES = 7
# Kernel samples timed right after a setup, and the python share of the setup
# (calibration.py): of 0, 0.25, ..., 1, the share that gave the smallest
# quartile spread / median of setup_s over 15 runs per workload on a 2-vCPU
# VM (fit_shares.py): 0.047 / 0.053 / 0.049 at 0.5, against 0.096 / 0.114 /
# 0.266 in wall time and 0.044 / 0.075 / 0.099 at 0.25 (alc_numeric /
# harmonic_study / reloc_sweep).
SETUP_KERNEL_SAMPLES = 5
SETUP_PYTHON_SHARE = 0.5
# Untraced runs time the calibration kernels (calibration.py) before an op
# whenever this long has passed since they last ran.
CALIBRATE_EVERY_S = 0.25
MAX_REPORTED_FAILURES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_s_p50": "s",
    "op_s_tail": "s",
    "ops_per_s": "1/s",
    "err_max": "tol",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/op"
    if name.endswith(".self_s"):
        return "s/op"
    return {
        "spectrum.solve_numerical.work": "pt_levels/op",
        "crossings.residual_evals_per_solve": "evals/solve",
        "wells.critical_points_per_eigensolve": "calls/solve",
        "cli.bytes_written": "bytes/op",
        "trace_overhead_frac": "frac",
    }[name]


class SetupSample(NamedTuple):
    seconds: float
    python_s: float  # median kernel times right after the setup
    lapack_s: float

    def normalized(self, python_share: float = SETUP_PYTHON_SHARE) -> float:
        from calibration import speed_factor
        return self.seconds / speed_factor([self.python_s], [self.lapack_s],
                                           python_share)


class Sample(NamedTuple):
    seconds: float
    error: float | None  # None: the op raised or failed its check
    nbytes: int
    speed: float = 1.0   # machine speed factor when the op started (untraced runs)


def setup(workload: str, seed: int, workdir: Path):
    """Import, input generation and one untimed warm-up op, timed together,
    with the calibration kernels timed right after them."""
    sys.path[:0] = [str(SRC), str(HERE)]
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[workload](workdir)
    inputs = wl.generate(seed)
    wl.prepare(inputs + [wl.warmup])
    wl.check(wl.warmup, wl.run(wl.warmup))
    seconds = time.perf_counter() - t0
    # Imported only now, so that setup times the import of numpy and scipy.
    from calibration import Calibration
    cal = Calibration(SETUP_PYTHON_SHARE)
    for _ in range(SETUP_KERNEL_SAMPLES):
        cal.sample()
    return wl, inputs, SetupSample(seconds, statistics.median(cal.python_s),
                                   statistics.median(cal.lapack_s))


def probe_setup(args) -> SetupSample:
    """Setup of a fresh interpreter running the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}):\n{proc.stderr}")
    return SetupSample(**json.loads(proc.stdout.strip().splitlines()[-1]))


class Runner:
    def __init__(self, wl, tracer=None, calibration=None, probe=None):
        self.wl = wl
        self.tracer = tracer
        self.calibration = calibration
        self.probe = probe  # runs a setup probe; None: no probes
        self.setups: list[SetupSample] = []
        self.before: list[int] = []  # per plain op: last calibration sample before it
        self.failed = 0

    def op(self, inp, op_id: int, traced: bool = False) -> Sample:
        ctx = self.tracer.installed(op_id) if traced else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with ctx:
                out = self.wl.run(inp)
            seconds = time.perf_counter() - t0
            nbytes = self.wl.bytes_written(out)
            return Sample(seconds, self.wl.check(inp, out), nbytes)
        except Exception:  # the run goes on; the op is counted as failed
            seconds = time.perf_counter() - t0
            self.failed += 1
            if self.failed <= MAX_REPORTED_FAILURES:
                print(f"op {op_id} failed on {inp!r}:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return Sample(seconds, None, 0)

    def measure(self, inputs: list, seconds: float):
        """Repeat the pass until `seconds` have elapsed; returns (plain, traced, passes).

        Setup probes run between ops, the k-th once k/SETUP_PROBES of
        `seconds` has elapsed; any left when the time is up run after it.
        Time spent in probes does not count towards `seconds`, so the number
        of passes does not depend on how long the probes take."""
        plain: list[Sample] = []
        traced: list[Sample] = []
        passes = 0
        probe_at = ([k * seconds / SETUP_PROBES for k in range(SETUP_PROBES)]
                    if self.probe else [])
        begin = time.perf_counter()
        probing = 0.0
        calibrated = -math.inf
        before = self.before
        while True:
            for inp in inputs:
                if probe_at and time.perf_counter() - begin - probing >= probe_at[0]:
                    probe_at.pop(0)
                    t0 = time.perf_counter()
                    self.setups.append(self.probe())
                    probing += time.perf_counter() - t0
                if self.calibration and time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
                    self.calibration.sample()
                    calibrated = time.perf_counter()
                    before.append(len(self.calibration.python_s) - 1)
                elif self.calibration:
                    before.append(before[-1])
                op_id = len(plain)
                plain.append(self.op(inp, op_id))
                if self.tracer is not None:
                    traced.append(self.op(inp, op_id, traced=True))
            passes += 1
            if time.perf_counter() - begin - probing >= seconds:
                break
        for _ in probe_at:
            self.setups.append(self.probe())
        if self.calibration:
            self.calibration.sample()
            plain = [s._replace(speed=self.calibration.factor(k))
                     for s, k in zip(plain, before)]
        return plain, traced, passes


def tail(values: list[float], cap: float) -> tuple[float, float]:
    """(percentile, value): highest ladder percentile up to `cap` with
    TAIL_BEYOND samples beyond it, nearest-rank; the median when there are too
    few samples.  The cap keeps the percentile the same in runs whose pass
    counts differ."""
    ordered = sorted(values)
    n = len(ordered)
    pct = max((p for p in TAIL_LADDER
               if p <= cap and n * (100.0 - p) / 100.0 >= TAIL_BEYOND), default=50.0)
    rank = max(1, math.ceil(round(pct * n / 100.0, 9)))
    return pct, ordered[rank - 1]


def timings(secs: list[float], tail_cap: float, ops_per_pass: int):
    """(tail percentile, {op_s_p50, op_s_tail, ops_per_s}) of whole passes.

    Passes are identical, so each input's median over the passes is its
    typical time, and op_s_p50 is the median of those: it does not hinge on
    the extremes of the inputs' noise, as the median of all samples does when
    it falls between two inputs of different cost.  Likewise a typical pass
    gives the throughput.  op_s_tail is taken over all samples."""
    pct, tail_value = tail(secs, tail_cap)
    typical = [statistics.median(secs[i::ops_per_pass]) for i in range(ops_per_pass)]
    pass_seconds = [sum(secs[i:i + ops_per_pass])
                    for i in range(0, len(secs), ops_per_pass)]
    return pct, {"op_s_p50": statistics.median(typical), "op_s_tail": tail_value,
                 "ops_per_s": ops_per_pass / statistics.median(pass_seconds)}


def end_to_end(plain: list[Sample], setups: list[SetupSample], tail_cap: float,
               ops_per_pass: int):
    """End-to-end metrics, setup and op times divided by the machine speed factor."""
    pct, normalized = timings([s.seconds / s.speed for s in plain], tail_cap,
                              ops_per_pass)
    errors = [s.error for s in plain if s.error is not None]
    metrics = {
        "setup_s": statistics.median(s.normalized() for s in setups),
        **normalized,
        # With no op passing its check, report the tolerance itself.
        "err_max": max(errors, default=1.0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    _, wall = timings([s.seconds for s in plain], tail_cap, ops_per_pass)
    return metrics, {"tail_percentile": pct, "wall_timings": wall,
                     "wall_setup_s": statistics.median(s.seconds for s in setups),
                     "speed_factor_median": statistics.median(s.speed for s in plain)}


def per_layer(tracer, plain: list[Sample], traced: list[Sample]):
    metrics = tracer.summary(len(traced))
    metrics["cli.bytes_written"] = sum(s.nbytes for s in traced) / len(traced)
    metrics["trace_overhead_frac"] = (sum(s.seconds for s in traced)
                                      / sum(s.seconds for s in plain) - 1.0)
    return metrics, {"wrapped_bindings": tracer.bound_names}


def environment(seed: int) -> dict:
    import multiwell
    import numpy
    import scipy
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "multiwell": multiwell.__version__,
        "machine": platform.machine(),
        "threads": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                               "MKL_NUM_THREADS")},
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="measure until this much time has elapsed (whole passes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ops", type=int, default=0,
                    help="truncate the pass to its first N ops (smoke tests); 0 = all")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "multiwell" / "__init__.py").is_file():
        print(f"error: no multiwell sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl, inputs, own_setup = setup(args.workload, args.seed, workdir)
        import multiwell
        if not Path(multiwell.__file__).resolve().is_relative_to(SRC.resolve()):
            print(f"error: imported multiwell from {multiwell.__file__}, not {SRC}",
                  file=sys.stderr)
            return 2
        if args.setup_probe:
            print(json.dumps(own_setup._asdict()))
            return 0
        if args.ops > 0:
            inputs = inputs[:args.ops]

        # setup_s is reported by untraced runs only, so only they probe.
        tracer = calibration = probe = None
        if args.trace:
            from tracing import Tracer
            tracer = Tracer()
        else:
            from calibration import Calibration
            calibration = Calibration(wl.python_share)
            probe = lambda: probe_setup(args)  # noqa: E731
        runner = Runner(wl, tracer, calibration, probe)
        plain, traced, passes = runner.measure(inputs, args.seconds)
        setups = [own_setup] + runner.setups
        raw = {}
        if tracer is None:
            metrics, details = end_to_end(plain, setups, wl.tail_percentile,
                                          len(inputs))
            details["calibration_kernel_s"] = {
                "python": statistics.median(calibration.python_s),
                "lapack": statistics.median(calibration.lapack_s),
                "samples": len(calibration.python_s)}
            units = END_TO_END_UNITS
            # Everything fit_shares.py needs to refit the python shares.
            raw = {"python_share": wl.python_share,
                   "tail_percentile_cap": wl.tail_percentile,
                   "setups": [s._asdict() for s in setups],
                   "op_seconds": [s.seconds for s in plain],
                   "op_before": runner.before,
                   "kernel_python_s": calibration.python_s,
                   "kernel_lapack_s": calibration.lapack_s}
        else:
            metrics, details = per_layer(tracer, plain, traced)
            units = {name: per_layer_unit(name) for name in metrics}
            tracer.save(OUT / f"spans-{args.workload}.npz")
        attempted = len(plain) + len(traced)
        result = {
            "correct": runner.failed == 0,
            "attempted": attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()},
        }
        info = {
            "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "passes": passes, "ops_per_pass": len(inputs), "samples": len(plain),
            "fail_frac": runner.failed / attempted,
            "setup_samples_s": [s.seconds for s in setups], **details,
            "env": environment(args.seed),
        }
        record = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(json.dumps({"info": info, "result": result, **raw},
                                     indent=1) + "\n", encoding="utf-8")
        print(json.dumps({"info": info}))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
