"""Student-t quantiles from the standard library.

``t_quantile(df, p)`` solves Q(t) = 1 - p for t, where Q is the upper tail
probability of Student's t with ``df`` degrees of freedom.  The tail is a
regularised incomplete beta function, Q(t) = I_x(df/2, 1/2) / 2 with
x = df / (df + t^2), evaluated by whichever route is well conditioned:

* small t: the central probability 1 - 2Q = I_y(1/2, df/2), y = 1 - x, from
  the incomplete-beta continued fraction;
* larger t with df < 20, or t^2 > (e - 1) df: I_x(df/2, 1/2) from the same
  continued fraction;
* otherwise the expansion of I_x(a, b) for large a in incomplete gamma
  functions (DiDonato and Morris 1992, ACM TOMS 18, routine BGRAT), which
  for b = 1/2 is a short series that starts from erfc.  Here x
  is close to 1, and the continued fraction loses hundreds of ulp by
  df = 1000; the expansion does not.

Halley steps from Hill's starting value (1970, CACM Algorithm 396) converge
in one or two evaluations.  df = 1 and df = 2 have closed forms.
"""

from __future__ import annotations

import math
from statistics import NormalDist

_EPS = 2.0**-52
# Below this a = df/2 the tail comes from the continued fraction.
_LARGE_A = 10.0
# Coefficients d_n of (sinh(w/2) / (w/2))^(-1/2) = sum d_n w^(2n).
_H_COEFFS = (
    1.0,
    -1.0 / 48.0,
    1.0 / 2560.0,
    -61.0 / 7741440.0,
    1261.0 / 7431782400.0,
    -79.0 / 20761804800.0,
    66643.0 / 761775532277760.0,
    -16820653.0 / 8227175748599808000.0,
    3745813.0 / 77499283242221568000.0,
    -1975649524361.0 / 1714327544916556728238080000.0,
    19259487248923.0 / 696280725935339963469004800000.0,
    -15123863844107.0 / 22659911516154193096841625600000.0,
)


def t_quantile(df: float, p: float) -> float:
    """The p-quantile of Student's t for 1/2 <= p <= 1 and df >= 1."""
    q = 1.0 - p  # exact for p >= 1/2 (Sterbenz)
    c = p - q  # 2p - 1, also exact: the central probability
    if q == 0.0:
        return math.inf
    if c == 0.0:
        return 0.0
    if df == 1:
        return math.tan(0.5 * math.pi * c) if q > 0.25 else 1.0 / math.tan(math.pi * q)
    if df == 2:
        return c / math.sqrt(2.0 * p * q)
    ratio = _gamma_half_ratio(0.5 * df)
    t = _hill_start(df, 2.0 * q)
    for _ in range(16):
        # Halley's step on Q(t) - q, with Q'' / Q' = -(df + 1) t / (df + t^2).
        # It converges cubically: after a step this small the error is at
        # the rounding level of the tail itself.
        excess, density = _tail_excess(t, df, q, c, ratio)
        u = excess / density
        step = u / (1.0 - 0.5 * u * (df + 1.0) * t / (df + t * t))
        t += step
        if abs(step) <= 1e-13 * t:
            break
    return t


def _tail_excess(
    t: float, df: float, q: float, c: float, ratio: float
) -> tuple[float, float]:
    """Q(t) - q and the density at t > 0; ratio is Gamma(a + 1/2) / Gamma(a)."""
    a = 0.5 * df
    t2 = t * t
    r = df + t2
    w = math.log1p(t2 / df)  # -ln x
    density = math.exp(-a * w) * ratio / math.sqrt(math.pi * r)
    if t < 0.4 or (a < _LARGE_A and t2 / r < 1.5 / (a + 2.5)):
        central = 2.0 * density * t * _beta_fraction(0.5, a, t2 / r)
        return 0.5 * (c - central), density
    if a < _LARGE_A or w > 1.0:
        return density * t / df * _beta_fraction(a, 0.5, df / r) - q, density
    s = a - 0.25
    return 0.5 * ratio / math.sqrt(s) * _large_a_sum(s, w) - q, density


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) by the modified Lentz method.

    I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) times the returned value; it
    converges fast for x < (a + 1) / (a + b + 2) (Press et al., Numerical
    Recipes, 6.4), which the routes in _tail_excess keep to.
    """
    tiny = 1e-300
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    c = 1.0
    h = d
    for m in range(1, 1000):
        m2 = 2 * m
        for num in (
            m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            delta = c * d
            h *= delta
        if abs(delta - 1.0) <= _EPS:
            break
    return h


def _large_a_sum(s: float, w: float) -> float:
    """sqrt(s / pi) times the integral of exp(-s v) v^(-1/2) h(v) over v > w.

    With s = a - 1/4 and w = -ln x this is I_x(a, 1/2) sqrt(s) / ratio, since
    (1 - exp(-v))^(-1/2) = exp(v/4) v^(-1/2) h(v) for the even function
    h(v) = (sinh(v/2) / (v/2))^(-1/2) = sum d_n v^(2n).  Term by term the
    integral is the sum of d_n Gamma(2n + 1/2, s w) / s^(2n + 1/2); each
    Gamma follows from the last by Gamma(z + 1, u) = z Gamma(z, u) +
    u^z exp(-u), starting from Gamma(1/2, u) = sqrt(pi) erfc(sqrt(u)).
    Terms fall by about w^2 / (2 pi)^2 and (2n)^2 / (2 pi s)^2, so a dozen
    suffice for w <= 1 and s >= 9.75.
    """
    u = s * w
    gamma = math.erfc(math.sqrt(u))
    power = math.sqrt(u / math.pi) * math.exp(-u)
    total = gamma
    s2 = s * s
    w2 = w * w
    for n, d in enumerate(_H_COEFFS[1:]):
        z = 2 * n + 0.5
        gamma = (z * (z + 1.0) * gamma + (z + 1.0 + u) * power) / s2
        power *= w2
        term = d * gamma
        total += term
        if abs(term) <= 0.5 * _EPS * total:
            break
    return total


def _gamma_half_ratio(a: float) -> float:
    """Gamma(a + 1/2) / Gamma(a).

    Raised to a >= 20 by Gamma(a + 1/2) / Gamma(a) = a / (a + 1/2) times the
    same ratio at a + 1; then from the asymptotic series of
    ln(Gamma(a + 1/2) / (Gamma(a) sqrt(a))), whose terms are
    (2^(1-2k) - 2) B_2k / (2k (2k - 1) a^(2k-1)).  The difference of two
    lgamma values would lose log10(a ln a) digits.
    """
    factor = 1.0
    while a < 20.0:
        factor *= a / (a + 0.5)
        a += 1.0
    r2 = 1.0 / (a * a)
    series = (
        -1.0 / 8.0
        + r2 * (1.0 / 192.0 + r2 * (-1.0 / 640.0 + r2 * (17.0 / 14336.0 + r2 * (
            -31.0 / 18432.0 + r2 * (691.0 / 180224.0)))))
    ) / a
    return factor * math.sqrt(a) * math.exp(series)


def _hill_start(df: float, p2: float) -> float:
    """Hill's approximation to the t with two-tailed probability p2."""
    a = 1.0 / (df - 0.5)
    b = 48.0 / (a * a)
    c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
    d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(a * math.pi / 2.0) * df
    y = (d * p2) ** (2.0 / df)
    if y > 0.05 + a:
        x = -NormalDist().inv_cdf(0.5 * p2)
        y = x * x
        if df < 5:
            c += 0.3 * (df - 4.5) * (x + 0.6)
        c = (((0.05 * d * x - 5.0) * x - 7.0) * x - 2.0) * x + b + c
        y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * x
        y = math.expm1(a * y * y)
    else:
        e = 1.0 / (((df + 6.0) / (df * y) - 0.089 * d - 0.822) * (df + 2.0) * 3.0)
        y = ((e + 0.5 / (df + 4.0)) * y - 1.0) * (df + 1.0) / (df + 2.0) + 1.0 / y
    return math.sqrt(df * y)
