"""Closed-loop timing of a workload, its set-up cost, and the environment it ran in."""

import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from fracint import FracintError

from . import workloads
from .tracing import Tracer

# Fresh interpreters timed for setup_s; their median is reported.
LAUNCHES = 5
# Fewest operations an untraced run attempts.
MIN_OPS = 100

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def percentile(values, q):
    """The q-th percentile (0..100), interpolating linearly between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    best: dict = field(default_factory=dict)  # round position -> fastest latency, s
    digits: list = field(default_factory=list)
    incorrect: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    @property
    def latencies(self):
        return list(self.best.values())

    @property
    def ops_per_s(self):
        return len(self.best) / sum(self.best.values())


def run_op(position, op, tally, tracer=None):
    """Time one call; check its output outside the timed region."""
    if tracer is not None:
        tracer.begin_op()
    start = time.perf_counter()
    try:
        output = op.call()
    except FracintError as exc:
        output = exc
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op(op.label)
    tally.attempted += 1
    if isinstance(output, FracintError):
        tally.failed += 1
        tally.failures.append(f"{op.label}: {type(output).__name__}: {output}")
        return
    tally.best[position] = min(elapsed, tally.best.get(position, elapsed))
    verdict = op.check(output)
    if verdict.failed:
        tally.failed += 1
        tally.failures.append(op.label)
    elif not verdict.ok:
        tally.incorrect.append(op.label)
    if verdict.digits is not None:
        tally.digits.append(verdict.digits)


def run_rounds(ops, seconds, min_ops=0, tracer=None):
    """Repeat whole rounds until ``seconds`` have passed and ``min_ops`` were attempted."""
    tally = Tally()
    start = time.perf_counter()
    while True:
        for position, op in enumerate(ops):
            run_op(position, op, tally, tracer)
        if time.perf_counter() - start >= seconds and tally.attempted >= min_ops:
            return tally


def child_env(root):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({name: "1" for name in BLAS_THREADS})
    return env


def import_seconds(root, launches=LAUNCHES):
    """Wall time of fresh interpreters running ``import fracint``, one at a time."""
    times = []
    for _ in range(launches):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import fracint"], env=child_env(root), check=True)
        times.append(time.perf_counter() - start)
    return times


def parse_importtime(text):
    """Cumulative ms of fracint, numpy and scipy from ``-X importtime`` output.

    Each package's figure is the sum over its outermost imports, so that
    ``scipy.interpolate`` counts once even though it imports ``scipy``.
    """
    entries = []
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, int(cumulative), name.strip()))
    totals = {"fracint": 0.0, "numpy": 0.0, "scipy": 0.0}
    ancestors = []  # names on the path from the root, in reverse file order
    for depth, cumulative, name in reversed(entries):
        del ancestors[depth:]
        package = name.split(".")[0]
        if package in totals and not any(a.split(".")[0] == package for a in ancestors):
            totals[package] += cumulative / 1000.0
        ancestors.append(name)
    return totals


def import_profile(root):
    """Module count and import times of one fresh ``import fracint``."""
    completed = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import sys, fracint; print(len(sys.modules))"],
        env=child_env(root), check=True, capture_output=True, text=True,
    )
    totals = parse_importtime(completed.stderr)
    return {
        "import.modules": (int(completed.stdout.split()[-1]), "count"),
        "import.fracint_ms": (totals["fracint"], "ms"),
        "import.numpy_ms": (totals["numpy"], "ms"),
        "import.scipy_ms": (totals["scipy"], "ms"),
    }


def environment():
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
    }


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(name, seed, seconds, trace, root, out_dir):
    """One run of a workload; returns the result line and the details kept on file."""
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        if trace:
            profile = import_profile(root)
        else:
            launches = import_seconds(root)
        start = time.perf_counter()
        round_ = workloads.build(name, seed, workdir)
        build_s = time.perf_counter() - start

        if not trace:
            tally = run_rounds(round_.ops, seconds, MIN_OPS)
            metrics = {
                "setup_s": (statistics.median(launches) + build_s, "s"),
                "ops_per_s": (tally.ops_per_s, "1/s"),
                "op_p50_ms": (percentile(tally.latencies, 50) * 1e3, "ms"),
                "op_p90_ms": (percentile(tally.latencies, 90) * 1e3, "ms"),
                "digits_min": (min(tally.digits), "digits"),
                "peak_rss_mb": (_peak_rss_mb(), "MB"),
            }
            tallies = [tally]
            extra = {"import_s": launches, "build_s": build_s,
                     "fastest_ms": {round_.ops[k].label: v * 1e3 for k, v in sorted(tally.best.items())}}
        else:
            plain = run_rounds(round_.ops, seconds / 2.0)
            tracer = Tracer()
            tracer.install(round_.counting)
            try:
                tally = run_rounds(round_.ops, seconds / 2.0, tracer=tracer)
            finally:
                tracer.uninstall()
            tracer.write(out_dir / f"trace-{name}.jsonl")
            metrics = dict(profile)
            metrics.update(tracer.metrics())
            metrics.update({
                "trace.ops_per_s": (tally.ops_per_s, "1/s"),
                "trace.untraced_ops_per_s": (plain.ops_per_s, "1/s"),
                "trace.overhead_pct": ((plain.ops_per_s / tally.ops_per_s - 1.0) * 100.0, "%"),
            })
            tallies = [plain, tally]
            extra = {"traced_ops": tally.attempted, "untraced_ops": plain.attempted}

    incorrect = [label for t in tallies for label in t.incorrect]
    result = {
        "correct": not incorrect,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    details = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "round_size": len(round_.ops),
        "incorrect": incorrect, "failures": sorted(set(tally.failures)), **extra,
    }
    with open(out_dir / f"result-{name}-seed{seed}-trace{int(trace)}.json", "w") as handle:
        json.dump({"result": result, "details": details}, handle, indent=2)
    return result, details
