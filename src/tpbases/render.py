"""Decimal rendering of exact rationals and certified enclosures.

Scientific notation is fixed to the form ``d.dd...e±XX`` (two-digit,
zero-padded exponent) with round-half-even applied to the exact value, so
rendered strings are deterministic functions of the rational inputs.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, ROUND_HALF_EVEN
from fractions import Fraction

from .errors import DomainError


def sci_notation(value: Fraction, sig_digits: int) -> str:
    """Exact rational -> scientific notation at sig_digits, round-half-even."""
    if sig_digits < 1:
        raise DomainError(f"need at least one significant digit, got {sig_digits}")
    value = Fraction(value)
    if value == 0:
        return format(0, f".{sig_digits - 1}e")
    # Decimal division is correctly rounded at the context precision
    ctx = Context(prec=sig_digits, rounding=ROUND_HALF_EVEN)
    d = ctx.divide(Decimal(value.numerator), Decimal(value.denominator))
    mantissa, exp = format(d, f".{sig_digits - 1}e").split("e")
    return f"{mantissa}e{int(exp):+03d}"


def sqrt_enclosure(low: Fraction, high: Fraction) -> tuple[Fraction, Fraction]:
    """Outward-rounded rational enclosure of [sqrt(low), sqrt(high)].

    Rounds to max(40, floor(-log10(high))) decimal places, so the bound
    on sqrt(high) keeps at least 19 significant digits however small high
    is.
    """
    if low < 0:
        raise DomainError("cannot take the square root of a negative bound")
    if low > high:
        raise DomainError(f"inverted bounds: low {low} > high {high}")
    digits = 40
    if high > 0:
        digits = max(digits, len(str(high.denominator // high.numerator)) - 1)
    scale = 10**digits
    lo_n = math.isqrt(low.numerator * scale * scale // low.denominator)
    hi_scaled = high.numerator * scale * scale
    hi_n = math.isqrt(hi_scaled // high.denominator)
    if hi_n * hi_n * high.denominator < hi_scaled:
        hi_n += 1
    return Fraction(lo_n, scale), Fraction(hi_n, scale)


def render_enclosure(enc, sig_digits: int, sqrt: bool = False) -> str | None:
    """Render an enclosure (its ``low`` and ``high``) as one decimal
    string, or None when the interval is still too wide to round
    unambiguously.

    With ``sqrt=True`` the enclosure is treated as holding a squared value
    (sigma_min^2) and an outward-rounded square root is rendered.
    """
    low, high = enc.low, enc.high
    if sqrt:
        low, high = sqrt_enclosure(low, high)
    s_low = sci_notation(low, sig_digits)
    s_high = sci_notation(high, sig_digits)
    return s_low if s_low == s_high else None


def fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational {text!r}") from exc
