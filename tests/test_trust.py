"""Where each numeric route can be trusted: one probe over a grid of power integrands.

Every numeric route runs with its default settings on tau**p over the grid
below and is compared with ``power_oracle``.  A case with no finite non-zero
closed form is left out.  On the rest a result is

- *ok* within 1e-8 relative of the closed form (adaptive routes) or 1e-3 (sums);
- *flagged* if the route raises a ``FracintError``, or its own error estimate
  exceeds that tolerance or covers the error;
- *silent* otherwise.

The README table "Where results can be trusted" states the counts; its flagged
and silent counts are upper bounds that no change may raise without changing
the table.
"""

import functools
import math
import os
import re
from collections import Counter

import pytest

from fracint import FractionalOperator, power_integrand
from fracint.defaults import ROUTES
from fracint.errors import FracintError
from fracint.operator import power_oracle

EXPONENTS = (0.0, 0.001, 0.5, 1.0, 3.0, 10.0, 40.0)
ORDERS = (1e-6, 1e-3, 0.05, 0.5, 0.999, 1.0)
HORIZONS = (1e-300, 1e-100, 1e-8, 1.0, 1e8, 1e100, 1e300)
TOLERANCE = {"direct": 1e-8, "transformed": 1e-8, "stieltjes": 1e-3, "cavalieri": 1e-3}

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def classify(route, p, alpha, t, oracle):
    tolerance = TOLERANCE[route] * abs(oracle)
    try:
        result = FractionalOperator(alpha, route).apply(power_integrand(1.0, p), t)
    except FracintError:
        return "flagged"
    error = abs(result.value - oracle)
    if error <= tolerance:
        return "ok"
    if result.error_estimate > tolerance or result.error_estimate >= error:
        return "flagged"
    return "silent"


@functools.cache
def probe():
    """(count of cases left out, {route: Counter of classes}) over the whole grid."""
    left_out = 0
    classes = {route: Counter() for route in ROUTES}
    for p in EXPONENTS:
        for alpha in ORDERS:
            for t in HORIZONS:
                try:
                    oracle = power_oracle(p, alpha, t)
                except FracintError:
                    oracle = math.inf
                if oracle == 0.0 or not math.isfinite(oracle):
                    left_out += 1
                    continue
                for route in ROUTES:
                    classes[route][classify(route, p, alpha, t, oracle)] += 1
    return left_out, classes


def readme_table():
    """(cases left out, cases in the grid, {route: (ok, flagged, silent)}) as the README states them."""
    with open(README) as handle:
        text = handle.read()
    section = text.split("## Where results can be trusted\n", 1)[1].split("\n## ", 1)[0]
    left_out, total = re.search(r"(\d+) of the (\d+) cases have no finite", section).groups()
    rows = re.findall(r"^\| `(\w+)` +\| (\d+) +\| (\d+) +\| (\d+) +\|$", section, re.M)
    return int(left_out), int(total), {route: tuple(map(int, counts)) for route, *counts in rows}


def test_the_readme_names_the_grid_and_every_route():
    left_out, total, table = readme_table()
    assert total == len(EXPONENTS) * len(ORDERS) * len(HORIZONS)
    assert left_out == probe()[0]
    assert sorted(table) == sorted(ROUTES)
    for route, counts in table.items():
        assert sum(counts) == total - left_out, route


@pytest.mark.parametrize("route", ROUTES)
def test_no_flagged_or_silent_count_rises_past_the_readme_table(route):
    _, _, table = readme_table()
    _, flagged_bound, silent_bound = table[route]
    classes = probe()[1][route]
    assert classes["silent"] <= silent_bound
    assert classes["flagged"] <= flagged_bound
