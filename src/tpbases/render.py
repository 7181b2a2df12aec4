"""Decimal rendering of exact rationals and certified enclosures.

Scientific notation is fixed to the form ``d.dd...e±XX`` (two-digit,
zero-padded exponent) with round-half-even applied to the exact value, so
rendered strings are deterministic functions of the rational inputs.
"""

from __future__ import annotations

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


def render_enclosure(enc, sig_digits: int) -> str | None:
    """Render an enclosure (its ``low`` and ``high``) as one decimal
    string, or None when the interval is still too wide to round
    unambiguously."""
    s_low = sci_notation(enc.low, sig_digits)
    s_high = sci_notation(enc.high, sig_digits)
    return s_low if s_low == s_high else None


def fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational {text!r}") from exc
