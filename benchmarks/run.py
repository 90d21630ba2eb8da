"""Run one benchmark workload and print its metrics as JSON on the last line.

    python3 benchmarks/run.py --workload mnist_train --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` runs the workload untraced for half the time, then installs the
span wrappers from ``tracing.py``, repeats the same work traced and prints the
per-layer metrics. See README.md in this directory.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STARTED = time.perf_counter()
SETUP_REPEATS = 5  # setup_s is the median of at least this many set-ups,
SETUP_MIN_S = 3.0  # repeated until this long has passed
WARMUP_S = 4.0  # untimed work first: a fresh process runs slower for its first seconds
TRAIN_SHARE = 0.7  # of a training workload's run spent on units; the rest on eval passes
MIN_UNITS = 3
MIN_EVAL_BATCHES = 100  # so that ten timed batches lie beyond p90
PROBE_EVERY_S = 0.5  # host probe interval
REFERENCE_PROBE_S = 2.0e-3  # about the probe's time on the tuning VM in its faster spells
HARD_STOP_S = 150.0  # after this long in the process, stop repeating whatever the minimums say
WORKLOAD_NAMES = ("mnist_train", "mnist_eval")  # keys of workloads.WORKLOADS


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_model": None,
        "l3_cache": None,
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() == "3":
                env["l3_cache"] = (index / "size").read_text().strip()
        except OSError:
            pass
    return env


class HostProbe:
    """Times a fixed numpy kernel between the workload's steps to track host speed.

    The kernel (tanh over a 512x784 array, then a matmul with a 784x32 one)
    shares no code with the package; its two arrays add about 6 MB to the
    process's peak RSS. Samples are kept per phase of the run, so each phase's
    timings are scaled by the host speed during that phase.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.standard_normal((512, 784))
        self._t = np.empty_like(self._a)
        self._w = rng.standard_normal((784, 32))
        self.samples = {}  # phase -> best-of-three kernel times, s
        self._last = -PROBE_EVERY_S

    def _once(self):
        t0 = time.perf_counter()
        self._np.tanh(self._a, out=self._t)
        float((self._t @ self._w).sum())
        return time.perf_counter() - t0

    def maybe_sample(self, phase):
        """Best of three kernel runs: on a phase's first call, then at most
        once every PROBE_EVERY_S."""
        if phase not in self.samples or time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.samples.setdefault(phase, []).append(min(self._once() for _ in range(3)))
            self._last = time.perf_counter()

    def median_s(self, phase=None):
        if phase is None:
            return statistics.median(t for ts in self.samples.values() for t in ts)
        return statistics.median(self.samples[phase])

    def slowdown(self, phase):
        """How much slower than the reference the host ran during ``phase``."""
        return self.median_s(phase) / REFERENCE_PROBE_S


def repeat(step, seconds=None, count=None, enough=lambda n: True, between=None):
    """Call ``step`` ``count`` times, or until ``seconds`` have passed and
    ``enough(calls)`` holds; returns the number of calls. ``between`` runs
    after every call, outside the step's own timings."""
    t0 = time.perf_counter()
    n = 0
    while True:
        step()
        n += 1
        if between is not None:
            between()
        now = time.perf_counter()
        if count is not None:
            if n >= count:
                return n
        elif now - STARTED >= HARD_STOP_S or (now - t0 >= seconds and enough(n)):
            return n


def timed_setup(workload):
    t0 = time.perf_counter()
    workload.setup()
    return time.perf_counter() - t0


def end_to_end(rec, setup_times, probe, trains):
    """The end-to-end metrics as measured, and scaled to the reference host speed.

    Returns {name: (scaled value, measured value, unit)}. A time is divided
    and a rate multiplied by the host's slowdown during the phase that
    measured it; peak RSS is not scaled.
    """
    batch_ms = [s * 1e3 for s in rec.batch_s]
    # rates are total work over total time, which averages the host's slow and
    # fast spells; a median of per-unit rates would flip between them
    if trains:
        steps = (sum(rec.train_steps) / sum(rec.train_s), "train")
    else:  # forward-only workload: a step is one forward batch
        steps = (len(rec.batch_s) / sum(rec.batch_s), "eval")
    times = {
        "setup_s": (statistics.median(setup_times), "setup", "s"),
        "eval_batch_ms_p50": (statistics.median(batch_ms), "eval", "ms"),
        "eval_batch_ms_p90": (statistics.quantiles(batch_ms, n=10)[8], "eval", "ms"),
    }
    rates = {
        "steps_per_s": (*steps, "1/s"),
        "eval_samples_per_s": (rec.batch_rows / sum(rec.batch_s), "eval", "1/s"),
    }
    out = {k: (v / probe.slowdown(p), v, u) for k, (v, p, u) in times.items()}
    out.update({k: (v * probe.slowdown(p), v, u) for k, (v, p, u) in rates.items()})
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["peak_rss_mb"] = (rss, rss, "MB")
    return out


def warm_up(workload):
    """Set up once and run the workload's own steps, untimed, for WARMUP_S."""
    from workloads import Record

    workload.setup()
    repeat(lambda: workload.step(Record()), WARMUP_S)


def measure(workload, rec, seconds):
    """Untraced run: warm-up, set-ups, then training units, then eval passes."""
    from workloads import Record

    warm_up(workload)
    probe = HostProbe()
    setup_times = []
    repeat(lambda: setup_times.append(timed_setup(workload)), SETUP_MIN_S,
           enough=lambda n: n >= SETUP_REPEATS, between=lambda: probe.maybe_sample("setup"))
    workload.checks(rec)
    eval_seconds = seconds
    if workload.trains:
        repeat(lambda: workload.unit(rec), seconds * TRAIN_SHARE,
               enough=lambda n: n >= MIN_UNITS, between=lambda: probe.maybe_sample("train"))
        eval_seconds -= seconds * TRAIN_SHARE
    workload.eval_pass(Record())  # warm-up pass, not timed into rec
    repeat(lambda: workload.eval_pass(rec), eval_seconds,
           enough=lambda n: len(rec.batch_s) >= MIN_EVAL_BATCHES,
           between=lambda: probe.maybe_sample("eval"))
    print("host probe median ms " + json.dumps(
        {p: round(probe.median_s(p) * 1e3, 4) for p in probe.samples})
          + f", reference {REFERENCE_PROBE_S * 1e3:.4f} ms")
    print(f"{'metric':32s} {'scaled':>14s} {'measured':>14s}")
    metrics = end_to_end(rec, setup_times, probe, workload.trains)
    for name, (scaled, measured, unit) in metrics.items():
        print(f"{name:32s} {scaled:>14.6g} {measured:>14.6g} {unit}")
    return {k: {"value": v, "unit": u} for k, (v, _, u) in metrics.items()}


def measure_traced(workload, rec, seconds):
    """Set-up plus the workload's own work (training units, or eval passes for
    the forward-only workload), first untraced for half the time, then traced
    for the same number of repeats; the traced phase gives the per-layer metrics.

    Each phase's wall time is scaled by its own host probe median before the
    two are compared, so a host slowdown between them does not read as
    tracing overhead."""
    from tracing import Tracer, per_layer_metrics

    step = lambda: workload.step(rec)
    warm_up(workload)
    probe = HostProbe()
    t0 = time.perf_counter()
    workload.setup()
    repeats = repeat(step, seconds / 2, between=lambda: probe.maybe_sample("untraced"))
    untraced = time.perf_counter() - t0
    workload.checks(rec)

    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        workload.setup()
        repeat(step, count=repeats, between=lambda: probe.maybe_sample("traced"))
        traced = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    print("layers " + json.dumps(tracer.shapes))
    overhead = (traced / probe.slowdown("traced")) / (untraced / probe.slowdown("untraced")) - 1
    metrics = per_layer_metrics(tracer, traced, untraced, overhead)
    metrics["host.probe_ms"] = {"value": probe.median_s() * 1e3, "unit": "ms"}
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "chebykan" / "__init__.py").is_file():
        print(f"error: no chebykan package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # one BLAS thread unless the caller chose otherwise; must precede numpy's import
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))
    import chebykan

    if Path(chebykan.__file__).resolve().parent != ROOT / "src" / "chebykan":
        print(f"error: imported chebykan from {chebykan.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, Record

    print("env " + json.dumps(environment()))
    # SIGTERM unwinds like an exception, so the finally below removes the inputs
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = tempfile.mkdtemp(prefix=".benchwork-", dir=ROOT)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        workload.prepare()
        rec = Record()
        if args.trace:
            metrics = measure_traced(workload, rec, args.seconds)
        else:
            metrics = measure(workload, rec, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"digest {args.workload} seed={args.seed} {rec.run_digest()}")
    for problem in rec.problems:
        print(f"FAILED {problem}")
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
