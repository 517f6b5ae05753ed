"""Independent references the benchmark checks fracint's outputs against.

Everything here is computed apart from fracint: gamma ratios come from
``math.lgamma``, never from ``fracint.gamma``, and nothing is a stored copy
of an earlier fracint output.
"""

import hashlib
import math
import xml.etree.ElementTree as ElementTree

SVG_VIEW_BOX = "0 0 800 600"

# An error below this share of a value's size is below double rounding.
EPS = 2.0**-52


def gamma_ratio(a: float, b: float) -> float:
    """Gamma(a) / Gamma(b) for a, b > 0."""
    return math.exp(math.lgamma(a) - math.lgamma(b))


def power_integral(alpha: float, t: float, p: float, c: float = 1.0) -> float:
    """Order-alpha integral of c * tau**p at t: c Gamma(p+1)/Gamma(p+1+alpha) t**(p+alpha).

    Order alpha + beta gives the composition of orders alpha and beta.
    """
    return c * gamma_ratio(p + 1.0, p + 1.0 + alpha) * t ** (p + alpha)


def kink_integral(alpha: float, t: float, s: float, q: float) -> float:
    """Order-alpha integral of max(tau - s, 0)**q at t: the power form started at s."""
    return power_integral(alpha, t - s, q) if t > s else 0.0


def integral_of(f, alpha: float, t: float):
    """Closed form for a power integrand (``f.power``) or a kink (``f.kink``), else None."""
    if getattr(f, "kink", None) is not None:
        return kink_integral(alpha, t, *f.kink)
    if f.power is not None:
        c, p = f.power
        return power_integral(alpha, t, p, c)
    return None


def span(alpha: float, t: float) -> float:
    """Width of the transformed axis, t**alpha / Gamma(alpha + 1)."""
    return t**alpha / math.exp(math.lgamma(alpha + 1.0))


def g(alpha: float, t: float, tau: float) -> float:
    """Forward transform (t**alpha - (t - tau)**alpha) / Gamma(alpha + 1)."""
    return (t**alpha - (t - tau) ** alpha) / math.exp(math.lgamma(alpha + 1.0))


def h(alpha: float, t: float, x: float) -> float:
    """Inverse transform t - (t**alpha - Gamma(alpha + 1) x)**(1/alpha)."""
    radicand = max(t**alpha - math.exp(math.lgamma(alpha + 1.0)) * x, 0.0)
    return min(max(t - radicand ** (1.0 / alpha), 0.0), t)


def strip_area(alpha: float, t: float, p: float, n: int, i: int) -> float:
    """Area f(h(x_i)) * width/n of strip i of n, for f = tau**p and x_i = i * width/n."""
    step = span(alpha, t) / n
    return h(alpha, t, i * step) ** p * step


def left_sum_bound(f0: float, ft: float, width: float, n: int) -> float:
    """|S_n - I| <= (f(t) - f(0)) width/n for any left sum of a monotone f on n equal cells."""
    return abs(ft - f0) * width / n


def quadrature_tolerance(value: float, abs_tol: float, rel_tol: float) -> float:
    """Ten times the tolerance an adaptive call asked for."""
    return 10.0 * max(abs_tol, rel_tol * abs(value))


def digits(error: float, scale: float) -> float:
    """-log10 of the relative error, capped where the error is below double rounding."""
    return -math.log10(max(abs(error) / abs(scale), EPS)) if scale else -math.log10(EPS)


def svg_ok(text: str) -> bool:
    """The document parses as XML and is an <svg> with the 800x600 view box."""
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError:
        return False
    return root.tag.rsplit("}", 1)[-1] == "svg" and root.get("viewBox") == SVG_VIEW_BOX


class RepeatCheck:
    """Byte-identity of repeated runs: the first run of a key sets its digest."""

    def __init__(self):
        self._digests = {}

    def same(self, key, payloads) -> bool:
        digest = hashlib.sha256()
        for payload in payloads:
            digest.update(hashlib.sha256(payload).digest())
        return self._digests.setdefault(key, digest.digest()) == digest.digest()
