"""Command-line surface.

Subcommands: gamma, transform, compute, compare, strips, regions, curves,
semigroup.  Exit codes: 0 success, 2 input or domain error, 3 numerical
failure.  The parser holds every default.  An optional key=value config file
replaces the defaults of the settings flags its subcommand offers; explicit
flags always win.  Every printed area is an operator value: ``strips`` draws
geometry only and offers no settings flags.
"""

import argparse
import sys
import time

import numpy as np

from .engines import METHODS
from .errors import DomainError, NumericalError
from .gamma import gamma as gamma_fn
from .integrand import Integrand, power_integrand
from .operator import (
    DEFAULT_COMPOSE_GRID,
    DEFAULT_SUM_N,
    FractionalOperator,
    compose,
    power_oracle,
)
from .output import format_number, join_blocks, json_text, svg_document, write_text
from .quadrature import DEFAULT_ABS_TOL, DEFAULT_BUDGET, DEFAULT_REL_TOL
from .strips import build_strips, region_family
from .transforms import make_transform

DEFAULT_ALPHAS = "0,0.2,0.4,0.6,0.8,1"
DEFAULT_HORIZONS = "2,4,6,8,10"

# the flags, by dest, whose defaults a config file may replace
SETTINGS = ("abs_tol", "rel_tol", "budget", "n", "tolerance")

_TINY = 1e-300


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


def load_config(path: str, parser: argparse.ArgumentParser) -> dict:
    """Defaults for the settings flags of ``parser`` from key=value lines, cast by flag type."""
    actions = {a.dest: a for a in parser._actions if a.dest in SETTINGS}
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
                if key not in actions:
                    raise DomainError(f"{path}:{lineno}: unknown config key {key!r} for {parser.prog}")
                try:
                    config[key] = actions[key].type(value.strip())
                except ValueError as exc:
                    raise DomainError(f"config key {key!r}: {exc}") from None
    except OSError as exc:
        raise DomainError(f"cannot read config {path!r}: {exc}") from None
    return config


def _operator(alpha: float, method: str, args) -> FractionalOperator:
    return FractionalOperator(
        alpha,
        route=method,
        abs_tol=args.abs_tol,
        rel_tol=args.rel_tol,
        budget=args.budget,
        n=args.n,
    )


def _oracle_value(f: Integrand, alpha: float, t: float) -> float:
    coefficient, exponent = f.power
    return power_oracle(exponent, alpha, t, coefficient)


def _rel_delta(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), _TINY)


def cmd_gamma(args) -> None:
    value = gamma_fn(args.x)
    write_text(args.out, f"{value:.15g}\n")


def cmd_transform(args) -> None:
    pair = make_transform(args.alpha, args.t)
    if args.samples < 2:
        raise DomainError(f"need at least 2 samples per curve, got {args.samples}")
    taus = np.linspace(0.0, pair.t, args.samples)
    xs = np.linspace(0.0, pair.width, args.samples)
    g_block = ["tau,g"] + [
        f"{format_number(tau)},{format_number(g)}"
        for tau, g in zip(taus, pair.forward(taus))
    ]
    h_block = ["x,h"] + [
        f"{format_number(x)},{format_number(h)}"
        for x, h in zip(xs, pair.inverse(xs))
    ]
    write_text(args.out, join_blocks(g_block, h_block))


def cmd_compute(args) -> None:
    f = parse_integrand(args.f)
    rows = ["alpha,t,method,value,oracle,abs_err,rel_err,n_evals,seconds"]
    for alpha in parse_float_list(args.alpha):
        op = _operator(alpha, args.method, args)
        for t in parse_float_list(args.t):
            start = time.perf_counter()
            result = op.apply(f, t)
            seconds = time.perf_counter() - start
            oracle = _oracle_value(f, alpha, t)
            abs_err = abs(result.value - oracle)
            rows.append(
                ",".join(
                    (
                        format_number(alpha),
                        format_number(t),
                        args.method,
                        format_number(result.value),
                        format_number(oracle),
                        format_number(abs_err),
                        format_number(abs_err / max(abs(oracle), _TINY)),
                        str(result.evaluations),
                        format_number(seconds),
                    )
                )
            )
    write_text(args.out, "\n".join(rows) + "\n")


def cmd_compare(args) -> None:
    f = parse_integrand(args.f)
    if not (np.isfinite(args.tolerance) and args.tolerance >= 0.0):
        raise DomainError(f"tolerance must be finite and >= 0, got {args.tolerance!r}")
    routes = ("direct", "stieltjes", "cavalieri", "transformed")
    results = {}
    all_consistent = True
    for alpha in parse_float_list(args.alpha):
        for t in parse_float_list(args.t):
            values = {
                route: _operator(alpha, route, args).apply(f, t).value
                for route in routes
            }
            deltas = {}
            for i, r1 in enumerate(routes):
                for r2 in routes[i + 1:]:
                    deltas[f"{r1}|{r2}"] = _rel_delta(values[r1], values[r2])
            consistent = all(d <= args.tolerance for d in deltas.values())
            all_consistent = all_consistent and consistent
            entry = dict(values)
            entry["oracle"] = _oracle_value(f, alpha, t)
            entry["deltas"] = deltas
            entry["consistent"] = consistent
            results[f"alpha={alpha:g},t={t:g}"] = entry
    payload = {
        "integrand": f.label,
        "tolerance": args.tolerance,
        "n": args.n,
        "budget": args.budget,
        "consistent": all_consistent,
        "results": results,
    }
    write_text(args.out, json_text(payload))


def _strips_csv(geometry) -> str:
    boundary_block = ["boundary_index,y,x"]
    for index, polyline in enumerate(geometry.boundaries):
        for x, y in polyline:
            boundary_block.append(f"{index},{format_number(y)},{format_number(x)}")
    area_block = ["strip_index,area"]
    for index, area in enumerate(geometry.strip_areas):
        area_block.append(f"{index},{format_number(area)}")
    return join_blocks(boundary_block, area_block)


def _strips_svg(geometry) -> str:
    curves = [{"points": geometry.region_outline, "dashed": False, "shade": 0.0}]
    count = max(len(geometry.boundaries) - 1, 1)
    for index, polyline in enumerate(geometry.boundaries):
        curves.append({"points": polyline, "dashed": True, "shade": index / count})
    return svg_document(curves)


def cmd_strips(args) -> None:
    f = parse_integrand(args.f)
    pair = make_transform(args.alpha, args.t)
    geometry = build_strips(f, pair, args.n_strips, args.samples)
    write_text(args.out, _strips_csv(geometry))
    if args.svg:
        write_text(args.svg, _strips_svg(geometry))


def cmd_regions(args) -> None:
    f = parse_integrand(args.f)
    alphas = parse_float_list(args.alpha)
    horizons = parse_float_list(args.t)
    family = region_family(f, alphas, horizons, args.samples)

    outline_block = ["alpha,t,part,x,y"]
    area_block = ["alpha,t,area"]
    for geometry in family:
        prefix = f"{format_number(geometry.alpha)},{format_number(geometry.t)}"
        curve = geometry.region_outline[: geometry.samples_per_curve]
        for x, y in curve:
            outline_block.append(f"{prefix},f,{format_number(x)},{format_number(y)}")
        for x, y in geometry.boundaries[-1]:
            outline_block.append(f"{prefix},edge,{format_number(x)},{format_number(y)}")
        area = FractionalOperator(
            geometry.alpha, abs_tol=args.abs_tol, rel_tol=args.rel_tol, budget=args.budget
        ).apply(f, geometry.t).value
        area_block.append(f"{prefix},{format_number(area)}")
    write_text(args.out, join_blocks(outline_block, area_block))

    if args.svg:
        t_values = sorted({g.t for g in family})
        curves = []
        for geometry in family:
            shade = (
                t_values.index(geometry.t) / max(len(t_values) - 1, 1)
            )
            curve = geometry.region_outline[: geometry.samples_per_curve]
            curves.append({"points": curve, "dashed": False, "shade": 0.0})
            curves.append({"points": geometry.boundaries[-1], "dashed": False, "shade": shade})
        write_text(args.svg, svg_document(curves))


def _curve_value(op: FractionalOperator, f: Integrand, t: float) -> float:
    if t < 0:
        raise DomainError(f"curve horizon must be >= 0, got {t:g}")
    if t == 0.0:
        return float(f(0.0)) if op.alpha == 0.0 else 0.0
    return op.apply(f, t).value


def cmd_curves(args) -> None:
    f = parse_integrand(args.f)
    alphas = parse_float_list(args.alpha)
    if args.t_step <= 0 or args.t_stop < args.t_start:
        raise DomainError("need t-step > 0 and t-stop >= t-start")
    count = int(np.floor((args.t_stop - args.t_start) / args.t_step + 1e-9)) + 1
    horizons = [args.t_start + k * args.t_step for k in range(count)]

    curve_block = ["alpha,t,value"]
    for alpha in alphas:
        op = _operator(alpha, args.method, args)
        for t in horizons:
            value = _curve_value(op, f, t)
            curve_block.append(
                f"{format_number(alpha)},{format_number(t)},{format_number(value)}"
            )

    marker_block = ["alpha,t,area_marker"]
    marker_ts = parse_float_list(args.marker_t)
    for alpha in alphas:
        op = _operator(alpha, "transformed", args)
        for t in marker_ts:
            marker = op.apply(f, t).value
            marker_block.append(
                f"{format_number(alpha)},{format_number(t)},{format_number(marker)}"
            )
    write_text(args.out, join_blocks(curve_block, marker_block))


def cmd_semigroup(args) -> None:
    f = parse_integrand(args.f)
    outer = _operator(args.alpha, args.method, args)
    inner = _operator(args.beta, args.method, args)
    composed = compose(outer, inner, f, args.t, args.grid)
    direct = _operator(min(args.alpha + args.beta, 1.0), args.method, args).apply(f, args.t).value
    gap = _rel_delta(composed, direct)
    write_text(
        args.out,
        f"composed={format_number(composed)}\n"
        f"direct={format_number(direct)}\n"
        f"rel_gap={format_number(gap)}\n",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracint",
        description="Order-alpha integrals by four named routes on two numerical cores, "
        "with strip-geometry and table/figure data emitters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tolerances=True, sums=True):
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        if tolerances:
            p.add_argument("--config", default=None, help="key=value file of settings-flag defaults")
            p.add_argument("--abs-tol", dest="abs_tol", type=float, default=DEFAULT_ABS_TOL)
            p.add_argument("--rel-tol", dest="rel_tol", type=float, default=DEFAULT_REL_TOL)
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="adaptive evaluation budget")
            p.set_defaults(parser=p)
        if tolerances and sums:
            p.add_argument("--n", type=int, default=DEFAULT_SUM_N, help="partition size for the sum routes")

    p = sub.add_parser("gamma", help="evaluate the gamma function")
    p.add_argument("--x", type=float, required=True)
    common(p, tolerances=False)
    p.set_defaults(handler=cmd_gamma)

    p = sub.add_parser("transform", help="sample the forward/inverse transform pair as CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--samples", type=int, default=200)
    common(p, tolerances=False)
    p.set_defaults(handler=cmd_transform)

    p = sub.add_parser("compute", help="stream value/oracle rows as CSV")
    p.add_argument("--f", default="pow:1:1", help="integrand spec pow:<c>:<p>")
    p.add_argument("--alpha", default=DEFAULT_ALPHAS)
    p.add_argument("--t", default=DEFAULT_HORIZONS)
    p.add_argument("--method", choices=METHODS, default="transformed")
    common(p)
    p.set_defaults(handler=cmd_compute)

    p = sub.add_parser("compare", help="run all four routes and report agreement as JSON")
    p.add_argument("--f", default="pow:1:1")
    p.add_argument("--alpha", default=DEFAULT_ALPHAS)
    p.add_argument("--t", default=DEFAULT_HORIZONS)
    p.add_argument("--tolerance", type=float, default=1e-3, help="pairwise consistency tolerance")
    common(p)
    p.set_defaults(handler=cmd_compare)

    p = sub.add_parser("strips", help="emit strip boundary polylines and areas")
    p.add_argument("--f", default="pow:1:1")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n-strips", dest="n_strips", type=int, default=5)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--svg", default=None, help="also render an SVG to this path")
    common(p, tolerances=False)
    p.set_defaults(handler=cmd_strips)

    p = sub.add_parser("regions", help="emit region outlines and areas for an (alpha, t) family")
    p.add_argument("--f", default="pow:1:1")
    p.add_argument("--alpha", default=DEFAULT_ALPHAS)
    p.add_argument("--t", default=DEFAULT_HORIZONS)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--svg", default=None)
    common(p, sums=False)
    p.set_defaults(handler=cmd_regions)

    p = sub.add_parser("curves", help="emit value curves over t plus transformed-route markers")
    p.add_argument("--f", default="pow:1:1")
    p.add_argument("--alpha", default=DEFAULT_ALPHAS)
    p.add_argument("--t-start", dest="t_start", type=float, default=0.0)
    p.add_argument("--t-stop", dest="t_stop", type=float, default=10.0)
    p.add_argument("--t-step", dest="t_step", type=float, default=0.1)
    p.add_argument("--marker-t", dest="marker_t", default=DEFAULT_HORIZONS)
    p.add_argument("--method", choices=METHODS, default="oracle")
    common(p)
    p.set_defaults(handler=cmd_curves)

    p = sub.add_parser("semigroup", help="check composed orders against the single operator")
    p.add_argument("--f", default="pow:1:1")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--grid", type=int, default=DEFAULT_COMPOSE_GRID)
    p.add_argument("--method", choices=METHODS, default="transformed")
    common(p)
    p.set_defaults(handler=cmd_semigroup)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            # the parser is built afresh per call, so these defaults do not outlive it
            args.parser.set_defaults(**load_config(args.config, args.parser))
            args = parser.parse_args(argv)
        args.handler(args)
    except DomainError as exc:
        print(f"fracint: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"fracint: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
