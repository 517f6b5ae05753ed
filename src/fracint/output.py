"""Deterministic CSV, JSON, and SVG emission.

All numeric CSV fields use fixed 12-significant-digit scientific notation
(``CSV_NUMBER``), SVG coordinates two decimals (``SVG_NUMBER``), and files end
with a single trailing newline, so identical configurations produce
byte-identical output.  ``format_rows`` formats a block of numeric rows with
one ``%`` operation.  Only ``format_rows`` and ``svg_document`` import numpy, so
text that needs neither is written without it.
"""

import json
import os
import stat
import sys
from contextlib import ExitStack

from .errors import DomainError

SVG_WIDTH = 800
SVG_HEIGHT = 600
_MARGIN = 50.0

# printf-style specs; '%.11e' % x and f"{x:.11e}" run the same float formatter
CSV_NUMBER = "%.11e"
SVG_NUMBER = "%.2f"


def format_number(value) -> str:
    return CSV_NUMBER % float(value)


def format_rows(row: str, columns, sep: str = "\n") -> str:
    """One ``row`` per row of ``columns``, joined by ``sep``.

    ``row`` is a %-template with one field per column; literal text in it
    must spell ``%`` as ``%%``.  Each column is converted to Python numbers
    once, and the whole block is formatted by a single ``%`` operation.  No
    rows give "", which ``join_blocks`` leaves out.
    """
    import numpy as np

    lists = [np.asarray(column).tolist() for column in columns]
    rows, width = len(lists[0]), len(lists)
    values = [None] * (rows * width)
    for offset, column in enumerate(lists):
        values[offset::width] = column
    return sep.join([row] * rows) % tuple(values)


def join_blocks(*blocks) -> str:
    """Assemble CSV blocks separated by single blank lines.

    A block is a list of lines and ``format_rows`` chunks; an empty chunk adds
    no line.
    """
    return "\n\n".join("\n".join(filter(None, block)) for block in blocks) + "\n"


def _named(path) -> str:
    return "stdout" if path is None else repr(path)


def _unwritable(path, exc: OSError) -> DomainError:
    return DomainError(f"cannot write {path!r}: {exc.strerror or exc}")


def write_texts(*outputs) -> None:
    """Write each (path, text) pair to its file, or to stdout where path is None.

    Every file is opened before the first write, so a path that cannot be written
    writes nothing; it is an input error, and so are two outputs in one regular file,
    stdout included when a text goes there.
    """
    with ExitStack() as stack:
        handles = []
        for path, _ in outputs:
            try:
                # not "w": ext4 flushes a file truncated to 0 on close, so only a
                # non-empty one is emptied, below
                handle = None if path is None else stack.enter_context(open(path, "a", newline=""))
            except OSError as exc:
                raise _unwritable(path, exc) from None
            handles.append(handle)
        # one regular file given twice would keep only the last text, and the shell may
        # have opened a file for stdout; a device may repeat
        files = {}
        for handle, (path, _) in zip(handles, outputs):
            stream = sys.stdout if handle is None else handle
            try:
                info = os.fstat(stream.fileno())
            except (AttributeError, OSError, ValueError):  # a stdout without a descriptor
                continue
            if stat.S_ISREG(info.st_mode):
                first, first_path = files.setdefault((info.st_dev, info.st_ino), (stream, path))
                if first is not stream:
                    raise DomainError(f"outputs {_named(first_path)} and {_named(path)} are one file")
        for handle, (path, text) in zip(handles, outputs):
            if handle is None:
                sys.stdout.write(text)
                continue
            try:
                with handle:
                    if os.fstat(handle.fileno()).st_size:
                        handle.truncate(0)
                    handle.write(text)
            except OSError as exc:
                raise _unwritable(path, exc) from None


def write_text(path, text) -> None:
    """``write_texts`` of one (path, text) pair."""
    write_texts((path, text))


def json_text(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _shade(level: float) -> str:
    """Gray stroke, darker for level 0, lighter for level 1."""
    gray = int(round(40 + 160 * min(max(level, 0.0), 1.0)))
    return f"rgb({gray},{gray},{gray})"


def svg_document(curves) -> str:
    """Render polylines into a fixed 800x600 view box.

    ``curves`` is a sequence of dicts with keys ``points`` ((m, 2) array),
    ``dashed`` (bool), and ``shade`` (0 darkest .. 1 lightest).
    """
    import numpy as np

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
    axis = (
        f'<line x1="{SVG_NUMBER}" y1="{SVG_NUMBER}" x2="{SVG_NUMBER}" y2="{SVG_NUMBER}" '
        'stroke="black" stroke-width="1"/>'
    )
    parts.append(axis % (_MARGIN, oy, SVG_WIDTH - _MARGIN, oy))
    parts.append(axis % (ox, _MARGIN, ox, SVG_HEIGHT - _MARGIN))
    for curve in curves:
        points = np.asarray(curve["points"], dtype=float)
        if len(points) < 2:
            continue
        x, y = to_px(points)
        coords = format_rows(f"{SVG_NUMBER},{SVG_NUMBER}", (x, y), sep=" ")
        dash = ' stroke-dasharray="6,4"' if curve.get("dashed") else ""
        stroke = _shade(curve.get("shade", 0.0))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="{stroke}" '
            f'stroke-width="1.5"{dash}/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
