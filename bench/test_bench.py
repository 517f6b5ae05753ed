"""Self-tests of the benchmark: its references, arithmetic, tracing and workloads.

Quick enough for the root ``pytest`` run; the timed runs themselves are
started with ``python3 bench/run.py`` (see bench/README.md).
"""

import math
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from mpmath import mp, mpf
from mpmath import quad as mp_quad

import fracint.cli
from bench import measure, references, workloads
from bench.tracing import Tracer, self_times

mp.dps = 30


def mp_integral(f, alpha, t, breakpoints=()):
    """Order-alpha integral by mpmath: (1/Gamma(alpha)) int_0^t (t - tau)^(alpha-1) f(tau) dtau.

    The kernel singularity is removed by u = (t - tau)^alpha, which leaves
    (1/Gamma(alpha+1)) int_0^(t^alpha) f(t - u^(1/alpha)) du.
    """
    alpha, t = mpf(alpha), mpf(t)
    points = sorted([mpf(0), t**alpha] + [(t - mpf(b)) ** alpha for b in breakpoints])
    return mp_quad(lambda u: f(t - u ** (1 / alpha)), points) / mp.gamma(alpha + 1)


# --- references against mpmath ------------------------------------------


@pytest.mark.parametrize("alpha,t,p", [(0.3, 2.0, 0.5), (0.9, 0.01, 2.0), (0.05, 50.0, 1.0), (1.0, 3.0, 0.0)])
def test_power_integral_matches_mpmath(alpha, t, p):
    expected = mp_integral(lambda tau: tau**p, alpha, t)
    assert references.power_integral(alpha, t, p) == pytest.approx(float(expected), rel=1e-13)


@pytest.mark.parametrize("alpha,t,s,q", [(0.472, 7.894, 0.457 * 7.894, 1.0), (0.2, 1.5, 0.3, 0.5)])
def test_kink_integral_matches_mpmath(alpha, t, s, q):
    expected = mp_integral(lambda tau: max(tau - s, 0) ** q, alpha, t, breakpoints=(s,))
    assert references.kink_integral(alpha, t, s, q) == pytest.approx(float(expected), rel=1e-13)


def test_composed_order_matches_mpmath():
    alpha, beta, p, t = 0.3, 0.45, 0.5, 2.0
    inner = mpf(references.gamma_ratio(p + 1, p + 1 + beta))
    expected = mp_integral(lambda tau: inner * tau ** (p + beta), alpha, t)
    assert references.power_integral(alpha + beta, t, p) == pytest.approx(float(expected), rel=1e-13)


@pytest.mark.parametrize("alpha,t", [(0.8, 10.0), (0.25, 3.0)])
def test_transform_pair_matches_mpmath(alpha, t):
    a, tt = mpf(alpha), mpf(t)

    def g_mp(tau):  # the integrator: the kernel's integral from 0 to tau
        return mp_quad(lambda s: (tt - s) ** (a - 1), [0, tau]) / mp.gamma(a)

    assert references.span(alpha, t) == pytest.approx(float(tt**a / mp.gamma(a + 1)), rel=1e-14)
    for share in (0.1, 0.5, 0.9, 0.99):
        tau = share * t
        x = g_mp(mpf(tau))
        assert references.g(alpha, t, tau) == pytest.approx(float(x), rel=1e-13)
        assert references.h(alpha, t, float(x)) == pytest.approx(tau, rel=1e-11)


def test_strip_areas_sum_to_the_left_sum_within_the_bound():
    alpha, t, p, n = 0.6, 4.0, 1.5, 40
    areas = [references.strip_area(alpha, t, p, n, i) for i in range(n)]
    exact = float(mp_integral(lambda tau: tau**p, alpha, t))
    bound = references.left_sum_bound(0.0, t**p, references.span(alpha, t), n)
    assert 0.0 < exact - math.fsum(areas) <= bound


def test_svg_and_repeat_checks():
    good = '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 800 600"><rect/></svg>'
    assert references.svg_ok(good)
    assert not references.svg_ok(good.replace("800 600", "800 500"))
    assert not references.svg_ok(good[:-3])
    repeats = references.RepeatCheck()
    assert repeats.same("a", [b"x", b"y"]) and repeats.same("a", [b"x", b"y"])
    assert not repeats.same("a", [b"x", b"z"])


# --- arithmetic -----------------------------------------------------------


def test_percentile():
    assert measure.percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert measure.percentile([7.0], 90) == 7.0
    assert measure.percentile(range(11), 90) == 9.0
    values = [random.Random(3).random() for _ in range(101)]
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    assert measure.percentile(values, 90) == pytest.approx(deciles[8])
    assert measure.percentile(values, 50) == pytest.approx(statistics.median(values))


def test_self_times():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 30, 0),
        ("b", 20, 50, 0),    # overlaps a: the union 10..50 counts once
        ("leaf", 12, 15, 1),
        ("late", 90, 120, 0),  # runs past its parent: clipped at 100
    ]
    assert self_times(spans) == [50, 17, 30, 3, 30]


def test_parse_importtime():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |   scipy",
        "import time:       400 |        450 |     scipy.sparse",
        "import time:       100 |        500 |   scipy.interpolate",
        "import time:        10 |       1310 | fracint",
    ])
    assert measure.parse_importtime(text) == {"fracint": 1.31, "numpy": 0.3, "scipy": 0.55}


# --- tiny runs of each workload -------------------------------------------


def test_sweep_round_fails_only_on_the_named_kink(tmp_path):
    round_ = workloads.build("sweep", 1, str(tmp_path))
    tally = measure.run_rounds(round_.ops, 0.0)
    assert tally.attempted == len(round_.ops) and not tally.incorrect
    assert tally.failures == [f"{route} kink:3.60756:1 alpha=0.472 t=7.894" for route in workloads.ROUTES]


def test_compose_and_figures_ops_pass_their_checks(tmp_path):
    compose = workloads.build("compose", 1, str(tmp_path)).ops[0]  # the cheap p = 0 anchor
    figures = workloads.build("figures", 1, str(tmp_path)).ops
    kinds = {}
    for op in figures:
        kinds.setdefault(op.label.split()[0], op)
    tally = measure.run_rounds([compose] + list(kinds.values()), 0.0)
    assert set(kinds) == {"strips", "regions", "curves", "transform", "compare"}
    assert tally.failed == 0 and not tally.incorrect
    assert min(tally.digits) > 5.0


def test_traced_ops_report_their_layers(tmp_path):
    sweep = workloads.build("sweep", 2, str(tmp_path))
    compose = workloads.build("compose", 2, str(tmp_path))
    figures = workloads.build("figures", 2, str(tmp_path)).ops
    compare = next(op for op in figures if op.label.startswith("compare"))
    ops = sweep.ops[:2] + compose.ops[:1] + [figures[0], compare]  # figures[0]: the fewest strips
    originals = (fracint.cli.main, fracint.compose, fracint.gamma)
    tracer = Tracer()
    tracer.install(sweep.counting + compose.counting)
    try:
        measure.run_rounds(ops, 0.0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert (fracint.cli.main, fracint.compose, fracint.gamma) == originals
    assert all(f.tracer is None for f in sweep.counting)
    metrics = {name: value for name, (value, unit) in tracer.metrics().items()}
    assert tracer.ops == 5
    for name, value in metrics.items():
        if name == "quadrature.est_over_actual_log10":
            assert math.isfinite(value)
        else:
            assert value > 0.0, name
    assert metrics["operator.apply_calls_per_op"] == pytest.approx((1 + 1 + 256 + 0 + 4) / 5)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(Path(__file__).parent, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0 and completed.stdout == ""
