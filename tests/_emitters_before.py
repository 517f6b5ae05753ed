"""fracint's CSV and SVG emitters as they were when each number had its own call.

A verbatim copy, kept as the reference that ``test_output.py`` compares the
block emitters of ``fracint.output`` and ``fracint.cli`` with, byte for byte:
``format_number``, ``join_blocks``, ``write_text`` and ``svg_document`` from
``fracint.output``, and the handlers of ``fracint.cli`` that emit CSV or SVG.
Only the imports below are new.
"""

import sys
import time

import numpy as np

from fracint.cli import MAX_CURVE_HORIZONS, _TINY, _curve_value, _operator, _oracle_value
from fracint.errors import DomainError
from fracint.output import _MARGIN, SVG_HEIGHT, SVG_WIDTH, _shade
from fracint.strips import build_strips, region_family
from fracint.transforms import make_transform


def format_number(value) -> str:
    return f"{float(value):.11e}"


def join_blocks(*blocks) -> str:
    """Assemble CSV blocks (lists of lines) separated by single blank lines."""
    return "\n\n".join("\n".join(block) for block in blocks) + "\n"


def write_text(path, text) -> None:
    """Write to a file (newline-preserving) or stdout when path is None."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as handle:
            handle.write(text)


def svg_document(curves) -> str:
    """Render polylines into a fixed 800x600 view box.

    ``curves`` is a sequence of dicts with keys ``points`` ((m, 2) array),
    ``dashed`` (bool), and ``shade`` (0 darkest .. 1 lightest).
    """
    pts = np.vstack([np.asarray(c["points"], dtype=float) for c in curves if len(c["points"])])
    x_lo, y_lo = pts.min(axis=0)
    x_hi, y_hi = pts.max(axis=0)
    x_lo, y_lo = min(x_lo, 0.0), min(y_lo, 0.0)
    x_span = max(x_hi - x_lo, 1e-12)
    y_span = max(y_hi - y_lo, 1e-12)
    inner_w = SVG_WIDTH - 2 * _MARGIN
    inner_h = SVG_HEIGHT - 2 * _MARGIN

    def to_px(xy):
        x = _MARGIN + (xy[:, 0] - x_lo) / x_span * inner_w
        y = SVG_HEIGHT - _MARGIN - (xy[:, 1] - y_lo) / y_span * inner_h
        return x, y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
    ]
    # axes through the data origin
    ox = _MARGIN + (0.0 - x_lo) / x_span * inner_w
    oy = SVG_HEIGHT - _MARGIN - (0.0 - y_lo) / y_span * inner_h
    parts.append(
        f'<line x1="{_MARGIN:.2f}" y1="{oy:.2f}" x2="{SVG_WIDTH - _MARGIN:.2f}" '
        f'y2="{oy:.2f}" stroke="black" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{ox:.2f}" y1="{_MARGIN:.2f}" x2="{ox:.2f}" '
        f'y2="{SVG_HEIGHT - _MARGIN:.2f}" stroke="black" stroke-width="1"/>'
    )
    for curve in curves:
        points = np.asarray(curve["points"], dtype=float)
        if len(points) < 2:
            continue
        x, y = to_px(points)
        coords = " ".join(f"{xi:.2f},{yi:.2f}" for xi, yi in zip(x, y))
        dash = ' stroke-dasharray="6,4"' if curve.get("dashed") else ""
        stroke = _shade(curve.get("shade", 0.0))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="1.5"{dash}/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
    rows = ["alpha,t,method,value,oracle,abs_err,rel_err,n_evals,seconds"]
    for alpha in args.alpha:
        op = _operator(alpha, args.method, args)
        for t in args.t:
            start = time.perf_counter()
            result = op.apply(args.f, t)
            seconds = time.perf_counter() - start
            oracle = _oracle_value(args.f, alpha, t)
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
    pair = make_transform(args.alpha, args.t)
    geometry = build_strips(args.f, pair, args.n_strips, args.samples)
    write_text(args.out, _strips_csv(geometry))
    if args.svg:
        write_text(args.svg, _strips_svg(geometry))


def cmd_regions(args) -> None:
    family = region_family(args.f, args.alpha, args.t, args.samples)

    outline_block = ["alpha,t,part,x,y"]
    area_block = ["alpha,t,area"]
    for geometry in family:
        prefix = f"{format_number(geometry.alpha)},{format_number(geometry.t)}"
        curve = geometry.region_outline[: geometry.samples_per_curve]
        for x, y in curve:
            outline_block.append(f"{prefix},f,{format_number(x)},{format_number(y)}")
        for x, y in geometry.boundaries[-1]:
            outline_block.append(f"{prefix},edge,{format_number(x)},{format_number(y)}")
        area = _operator(geometry.alpha, "transformed", args).apply(args.f, geometry.t).value
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


def cmd_curves(args) -> None:
    if not np.isfinite([args.t_start, args.t_stop, args.t_step]).all():
        raise DomainError("t-start, t-stop and t-step must be finite")
    if args.t_step <= 0 or args.t_stop < args.t_start:
        raise DomainError("need t-step > 0 and t-stop >= t-start")
    steps = np.floor((args.t_stop - args.t_start) / args.t_step + 1e-9)  # inf if it overflows
    if not steps < MAX_CURVE_HORIZONS:  # checked before the horizon list is built
        raise DomainError(
            f"t-step {args.t_step:g} over [{args.t_start:g}, {args.t_stop:g}] needs more "
            f"than {MAX_CURVE_HORIZONS} horizons"
        )
    count = int(steps) + 1
    horizons = [args.t_start + k * args.t_step for k in range(count)]

    curve_block = ["alpha,t,value"]
    for alpha in args.alpha:
        op = _operator(alpha, args.method, args)
        for t in horizons:
            value = _curve_value(op, args.f, t)
            curve_block.append(
                f"{format_number(alpha)},{format_number(t)},{format_number(value)}"
            )

    marker_block = ["alpha,t,area_marker"]
    for alpha in args.alpha:
        op = _operator(alpha, "transformed", args)
        for t in args.marker_t:
            marker = op.apply(args.f, t).value
            marker_block.append(
                f"{format_number(alpha)},{format_number(t)},{format_number(marker)}"
            )
    write_text(args.out, join_blocks(curve_block, marker_block))
