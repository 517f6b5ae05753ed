"""The three workloads: one round of public fracint calls each, with their checks.

A round is a fixed list of operations built from the seed; a run repeats
whole rounds.  Inputs are drawn by stratified sampling (one draw per
stratum, strata shuffled per coordinate), so that every seed covers each
range evenly and the latency quantiles of two seeds are comparable.
"""

import dataclasses
import json
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import fracint
from fracint import FractionalOperator, Integrand, cli, power_integrand
from fracint.integrand import INCREASING

from . import references
from .tracing import CountingFn

_DEFAULT_OPERATOR = FractionalOperator(0.5)
ABS_TOL = _DEFAULT_OPERATOR.abs_tol
REL_TOL = _DEFAULT_OPERATOR.rel_tol

# sweep
ROUTES = ("transformed", "direct")
ALPHA_MIN = 1e-3
T_LOG10 = (-3.0, 3.0)
N_INTEGER = 48
N_FRACTIONAL = 48
# Corners every round visits: the least accurate (smallest order, horizon and
# largest integer power, where abs_tol is not scaled) and order 1 at 1e3.
SWEEP_ANCHORS = ((ALPHA_MIN, 1e-3, 3.0), (1.0, 1e3, 0.5))
# Kinks are a fixed, seed-independent slice: about 1% of kinks miss their
# tolerance (the Kronrod panel cannot see a kink outside its outermost
# nodes), and a seeded slice would fail a different number of times per seed.
KINK_SEED = 1909
N_KINK = 24
NAMED_KINK = (0.472, 7.894, 0.457 * 7.894, 1.0)  # alpha, t, s, q: estimate 1.6e-10, error 3.0e-6

# compose
# Operations of tens of milliseconds or less time steadily on a shared host;
# longer ones do not (see README).  A composition costs 255 inner quadratures
# of about 15 evaluations (20-40 ms) when p is 0, 1 or 2 and beta lies in
# BETA_BAND, and 4-60 times more at fractional p or beta above 1/3.
COMPOSE_EXPONENTS = (0.0, 1.0, 2.0)
N_COMPOSE_PER_EXPONENT = 8
BETA_BAND = (0.17, 0.25)
BETA_MIN = 0.02
COMPOSE_T = (1.0, 10.0)
COMPOSE_REL_TOL = 1e-5
# p = 0 with the smallest beta and the largest alpha is the worst interpolant.
COMPOSE_ANCHOR = (1.0 - BETA_MIN, BETA_MIN, 0.0, 1.0)

# figures
# A CLI run costs at least 3-4 ms (argparse builds every subcommand's parser),
# and the fastest repeat of an operation is steady only if the run repeats it
# often enough to meet the host's fast spells: about 25 repeats in a 30 s run
# (a 100-operation round) left the latency quantiles 17-25% apart between runs.
# So the round holds 28 operations of 3-15 ms, about 0.25 s, repeated about
# 100 times a run.
# A strips run costs about its number of boundary points: n boundaries of
# about 200 * S points each, where S = Gamma(p+1) Gamma(alpha+1) / Gamma(p+1+alpha)
# is the region's mean height over f(t), between 1/3 and 0.9 here.  The seed
# draws the shape (alpha, t, p); n is then set so that every seed puts the
# same number of points, those of 2 ... 8 boundaries at S = 1/3, on each rung.
N_STRIPS_OPS = 12
STRIP_RUNGS = [2 * 4 ** (k / (N_STRIPS_OPS - 1)) for k in range(N_STRIPS_OPS)]
S_MIN = 1.0 / 3.0
# A small family from the paper's (alpha, t) grid: orders, horizons, curve step.
FAMILY = ("0.4,0.8", "2,6", "0.5")
# From p >= 1, because h(0) comes out as about 1e-15 t instead of 0 (cancellation
# in t - (t**alpha)**(1/alpha)), and below p = 1 the first strip's area
# f(h(0)) width/n grows to 1e-8 of a full strip.
STRIP_EXPONENTS = (1.0, 2.0)
# Region, curve and compare checks run adaptive quadrature at fixed grids of
# (alpha, t); at rare exponents (p = 1.7294, alpha = 0.6, t = 2) its first
# panel is accepted with an error 38 times the tolerance.  Those checks use
# the exponents of the paper's figures, which never hit it on the grids, each
# once a round, so that every seed's round costs the same at the top.
FIGURE_EXPONENTS = (0.5, 1.0, 1.5, 2.0)
N_TRANSFORM_OPS = 4
N_COMPARE_OPS = len(FIGURE_EXPONENTS)
SLACK = 1e-12  # rounding allowance on a bound, as a share of the value


@dataclass
class Verdict:
    ok: bool                # the output agrees with the references
    failed: bool = False    # a known fault struck: counted as failed, not incorrect
    digits: Optional[float] = None


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], Verdict]


@dataclass
class Round:
    ops: list
    counting: list  # CountingFn of the benchmark's integrands, for the tracer


def strata(rng, n, lo=0.0, hi=1.0):
    """One uniform draw in each of n equal strata of [lo, hi], in shuffled order."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return lo + (hi - lo) * u


def _counted(f, counting):
    fn = CountingFn(f.fn)
    counting.append(fn)
    return dataclasses.replace(f, fn=fn)


@dataclass(frozen=True)
class KinkIntegrand(Integrand):
    """max(tau - s, 0)**q, with (s, q) kept for the reference."""

    kink: Optional[tuple] = None


def _kink(s, q, counting):
    def fn(tau):
        return np.maximum(np.asarray(tau, dtype=float) - s, 0.0) ** q

    counter = CountingFn(fn)
    counting.append(counter)
    return KinkIntegrand(fn=counter, monotone=INCREASING, label=f"kink:{s:g}:{q:g}", kink=(s, q))


# --- sweep -----------------------------------------------------------------


def _apply_op(alpha, route, f, t, is_kink):
    def call():
        return FractionalOperator(alpha, route).apply(f, t)

    def check(result):
        reference = references.integral_of(f, alpha, t)
        error = abs(result.value - reference)
        within = error <= references.quadrature_tolerance(reference, ABS_TOL, REL_TOL)
        return Verdict(within or is_kink, is_kink and not within, references.digits(error, reference))

    return Op(f"{route} {f.label} alpha={alpha:.6g} t={t:.6g}", call, check)


def kink_cases():
    """The fixed kink slice: the named miss plus draws from a constant seed."""
    rng = np.random.default_rng(KINK_SEED)
    alphas = strata(rng, N_KINK, ALPHA_MIN, 1.0)
    ts = 10.0 ** strata(rng, N_KINK, *T_LOG10)
    shares = strata(rng, N_KINK, 0.1, 0.9)
    qs = strata(rng, N_KINK, 0.5, 2.0)
    return [NAMED_KINK] + [(a, t, u * t, q) for a, t, u, q in zip(alphas, ts, shares, qs)]


def build_sweep(seed, workdir):
    rng = np.random.default_rng(seed)
    counting = []
    cases = [(alpha, t, _counted(power_integrand(1.0, p), counting), False)
             for alpha, t, p in SWEEP_ANCHORS]
    n = N_INTEGER + N_FRACTIONAL
    alphas = strata(rng, n, ALPHA_MIN, 1.0)
    ts = 10.0 ** strata(rng, n, *T_LOG10)
    exponents = [float(1 + k % 3) for k in range(N_INTEGER)] + list(strata(rng, N_FRACTIONAL))
    for alpha, t, p in zip(alphas, ts, exponents):
        cases.append((alpha, t, _counted(power_integrand(1.0, p), counting), False))
    for alpha, t, s, q in kink_cases():
        cases.append((alpha, t, _kink(s, q, counting), True))
    ops = [_apply_op(float(alpha), route, f, float(t), is_kink)
           for alpha, t, f, is_kink in cases for route in ROUTES]
    return Round(ops, counting)


# --- compose ---------------------------------------------------------------


def _compose_op(alpha, beta, p, t, f):
    def call():  # looked up at call time, so that a tracer's wrapper is seen
        return fracint.compose(FractionalOperator(alpha), FractionalOperator(beta), f, t)

    def check(value):
        reference = references.power_integral(alpha + beta, t, p)
        error = abs(value - reference)
        return Verdict(error <= COMPOSE_REL_TOL * reference, digits=references.digits(error, reference))

    return Op(f"compose alpha={alpha:.6g} beta={beta:.6g} p={p:.6g} t={t:.6g}", call, check)


def build_compose(seed, workdir):
    rng = np.random.default_rng(seed)
    counting = []
    cases = [COMPOSE_ANCHOR]
    n = N_COMPOSE_PER_EXPONENT
    for p in COMPOSE_EXPONENTS:
        betas = strata(rng, n, *BETA_BAND)
        shares = strata(rng, n, 0.05, 1.0)
        ts = np.exp(strata(rng, n, *np.log(COMPOSE_T)))
        cases += [((1.0 - b) * w, b, p, t) for b, w, t in zip(betas, shares, ts)]
    ops = [_compose_op(float(a), float(b), float(q), float(t), _counted(power_integrand(1.0, q), counting))
           for a, b, q, t in cases]
    return Round(ops, counting)


# --- figures ---------------------------------------------------------------


def _blocks(text):
    return [block.split("\n") for block in text.rstrip("\n").split("\n\n")]


def _rows(block, columns):
    return [tuple(float(cells[c]) for c in columns) for cells in (line.split(",") for line in block[1:])]


def _read(path):
    with open(path, "rb") as handle:
        return handle.read()


def _worst(pairs, tolerance):
    """Check (value, reference) pairs: all within tolerance(reference), and the fewest digits."""
    ok = True
    least = None
    for value, reference, scale in pairs:
        error = abs(value - reference)
        ok = ok and error <= tolerance(reference, scale)
        d = references.digits(error, scale)
        least = d if least is None else min(least, d)
    return ok, least


def _quadrature_bound(reference, scale):
    return references.quadrature_tolerance(reference, ABS_TOL, REL_TOL) + 1e-11 * abs(reference)


def _check_strips(text, alpha, t, p, n):
    areas = _rows(_blocks(text)[1], (1,))
    expected = [references.strip_area(alpha, t, p, n, i) for i in range(n)]
    scale = t**p * references.span(alpha, t) / n  # a full-height strip; the first strip's area is 0
    ok, least = _worst(
        ((a, e, scale) for (a,), e in zip(areas, expected)), lambda r, s: 1e-9 * s
    )
    return ok and len(areas) == n, least


def _check_regions(text, p):
    pairs = [(area, i, i) for area, i in
             ((area, references.power_integral(a, t, p)) for a, t, area in _rows(_blocks(text)[1], (0, 1, 2)))]
    return _worst(pairs, _quadrature_bound)


def _check_curves(text, p):
    curve, markers = _blocks(text)
    values = _rows(curve, (0, 1, 2))
    ok_curve, least_curve = _worst(
        [(v, i, i) for v, i in ((v, references.power_integral(a, t, p)) for a, t, v in values if t > 0)],
        lambda r, s: 1e-10 * abs(r),
    )
    ok_markers, least_markers = _worst(
        [(v, i, i) for v, i in ((v, references.power_integral(a, t, p)) for a, t, v in _rows(markers, (0, 1, 2)))],
        _quadrature_bound,
    )
    at_zero = [v for a, t, v in values if t == 0]  # the integral vanishes at t = 0 (p > 0)
    return ok_curve and ok_markers and not any(at_zero), min(least_curve, least_markers)


def _check_transform(text, alpha, t):
    """g and h at the CLI's abscissae: even steps over [0, t] and [0, width]."""
    g_block, h_block = _blocks(text)
    width = references.span(alpha, t)
    pairs = []
    for tau, (parsed, g) in zip(np.linspace(0.0, t, len(g_block) - 1), _rows(g_block, (0, 1))):
        pairs += [(parsed, tau, t), (g, references.g(alpha, t, tau), width)]
    for x, (parsed, h) in zip(np.linspace(0.0, width, len(h_block) - 1), _rows(h_block, (0, 1))):
        pairs += [(parsed, x, width), (h, references.h(alpha, t, x), t)]
    return _worst(pairs, lambda r, s: 1e-9 * s)


def _check_compare(text, alpha, t, p):
    payload = json.loads(text)
    (entry,) = payload["results"].values()
    reference = references.power_integral(alpha, t, p)
    ok, least = _worst(
        ((entry[route], reference, reference) for route in ("direct", "transformed")),
        lambda r, s: references.quadrature_tolerance(r, ABS_TOL, REL_TOL),
    )
    ok_oracle, least_oracle = _worst([(entry["oracle"], reference, reference)], lambda r, s: 1e-11 * abs(r))
    bound = references.left_sum_bound(0.0, t**p, references.span(alpha, t), payload["n"])
    sums_ok = all(abs(entry[route] - reference) <= bound + SLACK * reference
                  for route in ("stieltjes", "cavalieri"))
    return ok and ok_oracle and sums_ok, min(least, least_oracle)


def _cli_op(label, argv, paths, repeats, check_text):
    """``fracint`` run in-process; ``paths`` are its output file and its SVG, if any."""

    def call():
        return cli.main(argv)

    def check(code):
        if code != 0:
            return Verdict(True, failed=True)
        payloads = [_read(path) for path in paths]
        # Removed, so that the next run creates its files: rewriting a file in
        # place makes ext4 write it back on close, and the run then waits on
        # the disk, whose delays vary from run to run by far more than the CLI.
        for path in paths:
            os.remove(path)
        ok, least = check_text(payloads[0].decode())
        if len(payloads) > 1:
            ok = ok and references.svg_ok(payloads[1].decode())
        return Verdict(ok and repeats.same(paths[0], payloads), digits=least)

    return Op(label, call, check)


def _spec(x):
    return f"{x:.4f}"


def build_figures(seed, workdir):
    rng = np.random.default_rng(seed)
    repeats = references.RepeatCheck()
    ops = []

    def paths(*suffixes):
        return [os.path.join(workdir, f"op{len(ops)}.{suffix}") for suffix in suffixes]

    def draw(lo, hi, n):
        return [float(_spec(x)) for x in strata(rng, n, lo, hi)]

    def add(argv, check, svg=False):
        files = paths("csv", "svg") if svg else paths("json" if argv[0] == "compare" else "csv")
        flags = ["--out", files[0]] + (["--svg", files[1]] if svg else [])
        ops.append(_cli_op(" ".join(argv), argv + flags, files, repeats, check))

    for rung, alpha, t, p in zip(STRIP_RUNGS, draw(0.2, 1.0, N_STRIPS_OPS), draw(1.0, 10.0, N_STRIPS_OPS),
                                 draw(*STRIP_EXPONENTS, N_STRIPS_OPS)):
        mean_height = references.power_integral(alpha, 1.0, p) / references.span(alpha, 1.0)
        n = max(1, int(round(rung * S_MIN / mean_height)))
        add(["strips", "--f", f"pow:1:{_spec(p)}", "--alpha", _spec(alpha), "--t", _spec(t),
             "--n-strips", str(n)], lambda text, a=alpha, t=t, p=p, n=n: _check_strips(text, a, t, p, n),
            svg=True)

    alphas, horizons, step = FAMILY
    for p in FIGURE_EXPONENTS:
        add(["regions", "--f", f"pow:1:{_spec(p)}", "--alpha", alphas, "--t", horizons, "--samples", "100"],
            lambda text, p=p: _check_regions(text, p), svg=True)
        add(["curves", "--f", f"pow:1:{_spec(p)}", "--alpha", alphas, "--t-stop", horizons.split(",")[-1],
             "--t-step", step, "--marker-t", horizons],
            lambda text, p=p: _check_curves(text, p))

    for alpha, t in zip(draw(0.1, 1.0, N_TRANSFORM_OPS), draw(0.5, 10.0, N_TRANSFORM_OPS)):
        add(["transform", "--alpha", _spec(alpha), "--t", _spec(t)],
            lambda text, a=alpha, t=t: _check_transform(text, a, t))
    exponents = rng.permutation(FIGURE_EXPONENTS)
    for p, alpha, t in zip(exponents, draw(0.1, 1.0, N_COMPARE_OPS), draw(0.5, 10.0, N_COMPARE_OPS)):
        add(["compare", "--f", f"pow:1:{_spec(p)}", "--alpha", _spec(alpha), "--t", _spec(t)],
            lambda text, p=p, a=alpha, t=t: _check_compare(text, a, t, p))
    return Round(ops, [])


WORKLOADS = {"sweep": build_sweep, "compose": build_compose, "figures": build_figures}


def build(name, seed, workdir):
    """One round of the named workload; ``workdir`` receives the figures' files."""
    return WORKLOADS[name](seed, workdir)
