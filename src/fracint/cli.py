"""Command-line surface.

Subcommands: gamma, transform, compute, compare, strips, regions, curves,
semigroup.  Exit codes: 0 success, 2 input or domain error, 3 numerical
failure or an allocation that does not fit in memory.  The parser holds every
default and parses every input, the integrand spec and the comma-separated
lists included, before any handler runs, so a malformed input exits 2 before
any computation.  Each subcommand and each shared flag group is declared once.
A process builds one parser tree, the top-level parser and all eight subcommand
parsers, on its first run, and never changes it; each run parses with its own
copy of the top-level parser.
An optional key=value config file seeds the parse of its own call with values
for the settings flags its subcommand offers; explicit flags always win.  ``strips``
offers no settings flags: its ``strip_index,area`` rows are the left-endpoint areas
f(x2_i) * W/n, whose total is the ``stieltjes`` value, not the drawn strips' areas.
This module imports no numpy: each handler that computes imports what it uses, so
``--help``, ``gamma`` and an unknown subcommand run without it.
"""

from __future__ import annotations

import argparse
import copy
import functools
import itertools
import math
import sys
import time
from typing import TYPE_CHECKING

from .defaults import (
    DEFAULT_ABS_TOL,
    DEFAULT_BUDGET,
    DEFAULT_COMPOSE_GRID,
    DEFAULT_REL_TOL,
    DEFAULT_SUM_N,
    METHODS,
    ROUTES,
)
from .errors import DomainError, NumericalError
from .gamma import gamma as gamma_fn
from .output import (
    CSV_NUMBER,
    format_number,
    format_rows,
    join_blocks,
    json_text,
    svg_document,
    write_text,
    write_texts,
)

if TYPE_CHECKING:
    from .integrand import Integrand
    from .operator import FractionalOperator

DEFAULT_ALPHAS = "0,0.2,0.4,0.6,0.8,1"
DEFAULT_HORIZONS = "2,4,6,8,10"

# the flags, by dest, whose values a config file may seed
SETTINGS = ("abs_tol", "rel_tol", "budget", "n", "tolerance")

_TINY = 1e-300

# rows of sampled points one run may ask for, checked before anything is sampled: a huge
# --samples, --n-strips or a tiny --t-step would otherwise exhaust memory first
MAX_ROWS = 1_000_000
MAX_CURVE_HORIZONS = MAX_ROWS  # the bound on curves' horizons, under its own name
# strips of one sum, checked as --n is parsed: a sum holds one array of n + 1 doubles
# and f's heights for one block of it
MAX_SUM_N = 10**8

# one CSV row of two numbers
_PAIR = f"{CSV_NUMBER},{CSV_NUMBER}"


def power_integrand(coefficient: float, exponent: float) -> Integrand:
    """``integrand.power_integrand``, imported on the first call, since its module loads numpy.

    ``parse_integrand`` calls it through this module's name, so it can be rebound here.
    """
    from .integrand import power_integrand

    return power_integrand(coefficient, exponent)


def parse_integrand(spec: str) -> Integrand:
    """Integrand grammar: pow:<coefficient>:<exponent>."""
    parts = spec.split(":")
    if len(parts) != 3 or parts[0] != "pow":
        raise DomainError(f"unsupported integrand spec {spec!r}; expected pow:<c>:<p>")
    try:
        coefficient, exponent = float(parts[1]), float(parts[2])
    except ValueError as exc:
        raise DomainError(f"bad integrand spec {spec!r}: {exc}") from None
    return power_integrand(coefficient, exponent)


def parse_float_list(text: str):
    try:
        values = [float(item) for item in text.split(",") if item.strip() != ""]
    except ValueError as exc:
        raise DomainError(f"bad numeric list {text!r}: {exc}") from None
    if not values:
        raise DomainError(f"empty numeric list {text!r}")
    return values


def parse_sum_n(text: str) -> int:
    """A partition size for the sum routes, refused above MAX_SUM_N before anything is allocated."""
    n = int(text)
    if n > MAX_SUM_N:
        raise DomainError(f"partition size {n} is more than {MAX_SUM_N}")
    return n


def load_config(path: str, command: str) -> dict:
    """Values for the settings flags of ``command`` from key=value lines, cast by flag type."""
    rows = _flags(*next(row[3:] for row in COMMANDS if row[0] == command))
    types = {options.get("dest", names[0][2:]): options.get("type") for names, options in rows}
    config = {}
    try:
        with open(path) as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key = key.strip()
                if key not in SETTINGS or key not in types:
                    raise DomainError(f"{path}:{lineno}: unknown config key {key!r} for fracint {command}")
                try:
                    config[key] = types[key](value.strip())
                except ValueError as exc:
                    raise DomainError(f"config key {key!r}: {exc}") from None
    except OSError as exc:
        raise DomainError(f"cannot read config {path!r}: {exc}") from None
    return config


def _operator(alpha: float, method: str, args) -> FractionalOperator:
    """The order-``alpha`` operator, configured by the settings flags the subcommand offers."""
    from .operator import FractionalOperator

    settings = {key: getattr(args, key)
                for key in ("abs_tol", "rel_tol", "budget", "n") if hasattr(args, key)}
    return FractionalOperator(alpha, route=method, **settings)


def _oracle_value(f: Integrand, alpha: float, t: float) -> float:
    from .operator import power_oracle

    coefficient, exponent = f.power
    return power_oracle(exponent, alpha, t, coefficient)


def _rel_delta(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), _TINY)


def _check_rows(rows: int, request: str) -> None:
    if rows > MAX_ROWS:
        raise DomainError(f"{request} asks for {rows} rows, more than {MAX_ROWS}")


def _computes(handler):
    """``handler`` run with numpy's overflow warning off.

    An overflow is refused by the check that meets it (_kronrod, QuadratureResult,
    strips), so numpy's warning would only print before the fracint: line.
    """

    @functools.wraps(handler)
    def run(args) -> None:
        import numpy as np

        with np.errstate(over="ignore"):
            handler(args)

    return run


def cmd_gamma(args) -> None:
    value = gamma_fn(args.x)
    write_text(args.out, f"{value:.15g}\n")


@_computes
def cmd_transform(args) -> None:
    import numpy as np

    from .transforms import make_transform, validate_count

    pair = make_transform(args.alpha, args.t)
    validate_count(args.samples, 2, "samples per curve")
    _check_rows(2 * args.samples, f"--samples {args.samples}")
    taus = np.linspace(0.0, pair.t, args.samples)
    xs = np.linspace(0.0, pair.width, args.samples)
    g_block = ["tau,g", format_rows(_PAIR, (taus, pair.forward(taus)))]
    h_block = ["x,h", format_rows(_PAIR, (xs, pair.inverse(xs)))]
    write_text(args.out, join_blocks(g_block, h_block))


@_computes
def cmd_compute(args) -> None:
    records = []
    for alpha in args.alpha:
        op = _operator(alpha, args.method, args)
        for t in args.t:
            start = time.perf_counter()
            result = op.apply(args.f, t)
            seconds = time.perf_counter() - start
            oracle = _oracle_value(args.f, alpha, t)
            abs_err = abs(result.value - oracle)
            records.append((alpha, t, result.value, oracle, abs_err,
                            abs_err / max(abs(oracle), _TINY), result.evaluations, seconds))
    # a method name holds no "%", so it is a literal of the row template
    row = f"{_PAIR},{args.method},{_PAIR},{_PAIR},%d,{CSV_NUMBER}"
    header = "alpha,t,method,value,oracle,abs_err,rel_err,n_evals,seconds"
    write_text(args.out, join_blocks([header, format_rows(row, zip(*records))]))


@_computes
def cmd_compare(args) -> None:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0.0):
        raise DomainError(f"tolerance must be finite and >= 0, got {args.tolerance!r}")
    results = {}
    all_consistent = True
    for alpha in args.alpha:
        for t in args.t:
            values = {
                route: _operator(alpha, route, args).apply(args.f, t).value
                for route in ROUTES
            }
            deltas = {f"{r1}|{r2}": _rel_delta(values[r1], values[r2])
                      for r1, r2 in itertools.combinations(ROUTES, 2)}
            consistent = all(d <= args.tolerance for d in deltas.values())
            all_consistent = all_consistent and consistent
            results[f"alpha={alpha:g},t={t:g}"] = {
                **values, "oracle": _oracle_value(args.f, alpha, t), "deltas": deltas,
                "consistent": consistent,
            }
    payload = {
        "integrand": args.f.label,
        "tolerance": args.tolerance,
        "n": args.n,
        "budget": args.budget,
        "consistent": all_consistent,
        "results": results,
    }
    write_text(args.out, json_text(payload))


def _strips_csv(geometry) -> str:
    boundary_block = ["boundary_index,y,x"] + [
        format_rows(f"{index},{_PAIR}", (polyline[:, 1], polyline[:, 0]))
        for index, polyline in enumerate(geometry.boundaries)
    ]
    areas = geometry.strip_areas
    area_block = [
        "strip_index,area", format_rows(f"%d,{CSV_NUMBER}", (range(len(areas)), areas)),
    ]
    return join_blocks(boundary_block, area_block)


def _strips_svg(geometry) -> str:
    curves = [{"points": geometry.region_outline, "dashed": False, "shade": 0.0}]
    count = max(len(geometry.boundaries) - 1, 1)
    for index, polyline in enumerate(geometry.boundaries):
        curves.append({"points": polyline, "dashed": True, "shade": index / count})
    return svg_document(curves)


@_computes
def cmd_strips(args) -> None:
    from .strips import build_strips
    from .transforms import make_transform

    pair = make_transform(args.alpha, args.t)
    _check_rows((args.n_strips + 1) * args.samples,
                f"--n-strips {args.n_strips} with --samples {args.samples}")
    geometry = build_strips(args.f, pair, args.n_strips, args.samples)
    svg = [(args.svg, _strips_svg(geometry))] if args.svg else []
    write_texts((args.out, _strips_csv(geometry)), *svg)


@_computes
def cmd_regions(args) -> None:
    from .strips import region_family

    regions = len(args.alpha) * len(args.t)
    _check_rows(2 * regions * args.samples, f"{regions} regions at --samples {args.samples}")
    family = region_family(args.f, args.alpha, args.t, args.samples)

    outline_block = ["alpha,t,part,x,y"]
    area_block = ["alpha,t,area"]
    drawn = []  # (t, curve, edge) of each region
    for geometry in family:
        # formatted numbers hold no "%", so the prefix is a literal of the row template
        prefix = f"{format_number(geometry.alpha)},{format_number(geometry.t)}"
        curve = geometry.region_outline[: geometry.samples_per_curve]
        edge = geometry.boundaries[-1]
        drawn.append((geometry.t, curve, edge))
        outline_block.append(format_rows(f"{prefix},f,{_PAIR}", (curve[:, 0], curve[:, 1])))
        outline_block.append(format_rows(f"{prefix},edge,{_PAIR}", (edge[:, 0], edge[:, 1])))
        area = _operator(geometry.alpha, "transformed", args).apply(args.f, geometry.t).value
        area_block.append(f"{prefix},{format_number(area)}")
    svg = []
    if args.svg:
        t_values = sorted({t for t, _, _ in drawn})
        curves = []
        for t, curve, edge in drawn:
            shade = t_values.index(t) / max(len(t_values) - 1, 1)
            curves.append({"points": curve, "dashed": False, "shade": 0.0})
            curves.append({"points": edge, "dashed": False, "shade": shade})
        svg = [(args.svg, svg_document(curves))]
    write_texts((args.out, join_blocks(outline_block, area_block)), *svg)


def _curve_value(op: FractionalOperator, f: Integrand, t: float) -> float:
    if t < 0:
        raise DomainError(f"curve horizon must be >= 0, got {t:g}")
    if t == 0.0:
        from .integrand import evaluate

        return float(evaluate(f, 0.0)) if op.alpha == 0.0 else 0.0
    return op.apply(f, t).value


@_computes
def cmd_curves(args) -> None:
    if not all(map(math.isfinite, (args.t_start, args.t_stop, args.t_step))):
        raise DomainError("t-start, t-stop and t-step must be finite")
    if args.t_step <= 0 or args.t_stop < args.t_start:
        raise DomainError("need t-step > 0 and t-stop >= t-start")
    steps = (args.t_stop - args.t_start) / args.t_step + 1e-9  # inf if it overflows
    if not steps < MAX_CURVE_HORIZONS:  # checked before the horizon list is built
        raise DomainError(
            f"t-step {args.t_step:g} over [{args.t_start:g}, {args.t_stop:g}] needs more "
            f"than {MAX_CURVE_HORIZONS} horizons"
        )
    horizons = [args.t_start + k * args.t_step for k in range(int(steps) + 1)]

    curve_block = ["alpha,t,value"]
    for alpha in args.alpha:
        op = _operator(alpha, args.method, args)
        values = [_curve_value(op, args.f, t) for t in horizons]
        curve_block.append(format_rows(f"{format_number(alpha)},{_PAIR}", (horizons, values)))

    marker_block = ["alpha,t,area_marker"]
    for alpha in args.alpha:
        op = _operator(alpha, "transformed", args)
        markers = [op.apply(args.f, t).value for t in args.marker_t]
        marker_block.append(format_rows(f"{format_number(alpha)},{_PAIR}", (args.marker_t, markers)))
    write_text(args.out, join_blocks(curve_block, marker_block))


@_computes
def cmd_semigroup(args) -> None:
    from .operator import compose

    outer = _operator(args.alpha, args.method, args)
    inner = _operator(args.beta, args.method, args)
    composed = compose(outer, inner, args.f, args.t, args.grid)
    direct = _operator(min(args.alpha + args.beta, 1.0), args.method, args).apply(args.f, args.t).value
    gap = _rel_delta(composed, direct)
    write_text(
        args.out,
        f"composed={format_number(composed)}\n"
        f"direct={format_number(direct)}\n"
        f"rel_gap={format_number(gap)}\n",
    )


def _flag(*names, **options):
    return names, options


# the shared flag groups; every subcommand offers "out" after the groups it names
GROUPS = {
    "f": [_flag("--f", type=parse_integrand, default="pow:1:1", help="integrand spec pow:<c>:<p>")],
    "alphas": [_flag("--alpha", type=parse_float_list, default=DEFAULT_ALPHAS)],
    "horizons": [_flag("--t", type=parse_float_list, default=DEFAULT_HORIZONS)],
    "settings": [
        _flag("--config", default=None, help="key=value file of settings-flag defaults"),
        _flag("--abs-tol", dest="abs_tol", type=float, default=DEFAULT_ABS_TOL),
        _flag("--rel-tol", dest="rel_tol", type=float, default=DEFAULT_REL_TOL),
        _flag("--budget", type=int, default=DEFAULT_BUDGET, help="adaptive evaluation budget"),
    ],
    "sums": [
        _flag("--n", type=parse_sum_n, default=DEFAULT_SUM_N, help="partition size for the sum routes"),
    ],
    "out": [_flag("--out", default=None, help="output file (default: stdout)")],
}
_ALPHA, _T = _flag("--alpha", type=float, required=True), _flag("--t", type=float, required=True)
_SAMPLES = _flag("--samples", type=int, default=200)
_EVERY_GROUP = ("f", "alphas", "horizons", "settings", "sums")

# (name, handler, help line, groups, own flags), in the order --help lists them
COMMANDS = (
    ("gamma", cmd_gamma, "evaluate the gamma function", (), [_flag("--x", type=float, required=True)]),
    ("transform", cmd_transform, "sample the forward/inverse transform pair as CSV", (),
     [_ALPHA, _T, _SAMPLES]),
    ("compute", cmd_compute, "stream value/oracle rows as CSV", _EVERY_GROUP,
     [_flag("--method", choices=METHODS, default="transformed")]),
    ("compare", cmd_compare, "run all four routes and report agreement as JSON", _EVERY_GROUP,
     [_flag("--tolerance", type=float, default=1e-3, help="pairwise consistency tolerance")]),
    ("strips", cmd_strips, "emit strip boundary polylines and areas", ("f",), [
        _ALPHA, _T, _flag("--n-strips", dest="n_strips", type=int, default=5), _SAMPLES,
        _flag("--svg", default=None, help="also render an SVG to this path"),
    ]),
    ("regions", cmd_regions, "emit region outlines and areas for an (alpha, t) family",
     ("f", "alphas", "horizons", "settings"), [_SAMPLES, _flag("--svg", default=None)]),
    ("curves", cmd_curves, "emit value curves over t plus transformed-route markers",
     ("f", "alphas", "settings", "sums"), [
        _flag("--t-start", dest="t_start", type=float, default=0.0),
        _flag("--t-stop", dest="t_stop", type=float, default=10.0),
        _flag("--t-step", dest="t_step", type=float, default=0.1),
        _flag("--marker-t", dest="marker_t", type=parse_float_list, default=DEFAULT_HORIZONS),
        _flag("--method", choices=METHODS, default="oracle"),
    ]),
    ("semigroup", cmd_semigroup, "check composed orders against the single operator",
     ("f", "settings", "sums"), [
        _ALPHA, _flag("--beta", type=float, required=True), _T,
        _flag("--grid", type=int, default=DEFAULT_COMPOSE_GRID),
        _flag("--method", choices=METHODS, default="transformed"),
    ]),
)


def _flags(groups, flags):
    """A subcommand's (names, options) rows, in the order its parser adds them."""
    return [*(g for key in (*groups, "out") for g in GROUPS[key]), *flags]


@functools.cache
def _fracint_parser() -> argparse.ArgumentParser:
    """The one ``fracint`` parser tree of this process, built on first use, never changed."""
    parser = argparse.ArgumentParser(
        prog="fracint",
        description="Order-alpha integrals by four named routes on two numerical cores, "
        "with strip-geometry and table/figure data emitters.",
    )
    # prog given, so that argparse does not format the usage above to derive the same name
    sub = parser.add_subparsers(dest="command", required=True, prog="fracint")
    for name, handler, help_text, groups, flags in COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for names, options in _flags(groups, flags):
            p.add_argument(*names, **options)
        p.set_defaults(handler=handler, parser=p)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """A copy of the one ``fracint`` parser: set attributes on it, but change nothing it shares."""
    return copy.copy(_fracint_parser())


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file seeds a reparse of the subcommand's own tokens: argparse sets a
            # default only where the namespace lacks the attribute, so explicit flags win
            argv = sys.argv[1:] if argv is None else argv
            rest = argv[argv.index(args.command) + 1:]
            config = load_config(args.config, args.command)
            args = args.parser.parse_args(rest, argparse.Namespace(**config))
        args.handler(args)
    except DomainError as exc:
        print(f"fracint: {exc}", file=sys.stderr)
        return 2
    except (NumericalError, MemoryError) as exc:
        # numpy's MemoryError names the allocation that failed; a bare one says nothing
        print(f"fracint: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
