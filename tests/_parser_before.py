"""fracint's argument parser as it was when every run built all 15 parsers.

A verbatim copy of ``fracint.cli.build_parser`` from before subcommand parsers
were built on lookup, kept as the reference that ``test_parser.py`` compares
the help, usage and error text and the parsed namespaces of
``fracint.cli.build_parser`` with, byte for byte.  Only the imports below are
new.
"""

import argparse

from fracint.cli import (
    DEFAULT_ALPHAS,
    DEFAULT_HORIZONS,
    cmd_compare,
    cmd_compute,
    cmd_curves,
    cmd_gamma,
    cmd_regions,
    cmd_semigroup,
    cmd_strips,
    cmd_transform,
    parse_float_list,
    parse_integrand,
)
from fracint.engines import METHODS
from fracint.operator import DEFAULT_COMPOSE_GRID, DEFAULT_SUM_N
from fracint.quadrature import DEFAULT_ABS_TOL, DEFAULT_BUDGET, DEFAULT_REL_TOL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracint",
        description="Order-alpha integrals by four named routes on two numerical cores, "
        "with strip-geometry and table/figure data emitters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # One parent parser per shared flag group.  The subcommands naming a group share
    # its action objects, so a config file's set_defaults on one subcommand changes
    # them for the whole parser: safe only because main builds a fresh parser per call.
    out, f, alphas, horizons, settings, sums = (
        argparse.ArgumentParser(add_help=False) for _ in range(6)
    )
    out.add_argument("--out", default=None, help="output file (default: stdout)")
    f.add_argument("--f", type=parse_integrand, default="pow:1:1", help="integrand spec pow:<c>:<p>")
    alphas.add_argument("--alpha", type=parse_float_list, default=DEFAULT_ALPHAS)
    horizons.add_argument("--t", type=parse_float_list, default=DEFAULT_HORIZONS)
    settings.add_argument("--config", default=None, help="key=value file of settings-flag defaults")
    settings.add_argument("--abs-tol", dest="abs_tol", type=float, default=DEFAULT_ABS_TOL)
    settings.add_argument("--rel-tol", dest="rel_tol", type=float, default=DEFAULT_REL_TOL)
    settings.add_argument("--budget", type=int, default=DEFAULT_BUDGET, help="adaptive evaluation budget")
    sums.add_argument("--n", type=int, default=DEFAULT_SUM_N, help="partition size for the sum routes")

    def command(name, handler, help_text, *groups):
        p = sub.add_parser(name, help=help_text, parents=[*groups, out])
        p.set_defaults(handler=handler, parser=p)
        return p

    p = command("gamma", cmd_gamma, "evaluate the gamma function")
    p.add_argument("--x", type=float, required=True)

    p = command("transform", cmd_transform, "sample the forward/inverse transform pair as CSV")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--samples", type=int, default=200)

    p = command("compute", cmd_compute, "stream value/oracle rows as CSV",
                f, alphas, horizons, settings, sums)
    p.add_argument("--method", choices=METHODS, default="transformed")

    p = command("compare", cmd_compare, "run all four routes and report agreement as JSON",
                f, alphas, horizons, settings, sums)
    p.add_argument("--tolerance", type=float, default=1e-3, help="pairwise consistency tolerance")

    p = command("strips", cmd_strips, "emit strip boundary polylines and areas", f)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--n-strips", dest="n_strips", type=int, default=5)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--svg", default=None, help="also render an SVG to this path")

    p = command("regions", cmd_regions, "emit region outlines and areas for an (alpha, t) family",
                f, alphas, horizons, settings)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--svg", default=None)

    p = command("curves", cmd_curves, "emit value curves over t plus transformed-route markers",
                f, alphas, settings, sums)
    p.add_argument("--t-start", dest="t_start", type=float, default=0.0)
    p.add_argument("--t-stop", dest="t_stop", type=float, default=10.0)
    p.add_argument("--t-step", dest="t_step", type=float, default=0.1)
    p.add_argument("--marker-t", dest="marker_t", type=parse_float_list, default=DEFAULT_HORIZONS)
    p.add_argument("--method", choices=METHODS, default="oracle")

    p = command("semigroup", cmd_semigroup, "check composed orders against the single operator",
                f, settings, sums)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--grid", type=int, default=DEFAULT_COMPOSE_GRID)
    p.add_argument("--method", choices=METHODS, default="transformed")

    return parser
