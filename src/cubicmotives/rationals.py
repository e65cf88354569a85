"""Exact rational scalars.

Everything in this package computes over Q with zero tolerance.  The scalar
type is the stdlib ``fractions.Fraction``: ``QQ`` is that class itself, so
``QQ(p, q)`` builds p/q and ``QQ("p/q")`` parses the string form.  Every
JSON interface writes rationals in the canonical ``"p/q"`` grammar below.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational

QQ = Fraction
BACKEND = "fraction"
ZERO = QQ(0)


def rational_str(x) -> str:
    """Serialize as canonical ``"p/q"`` with q > 0 and gcd(p, q) = 1.

    The denominator is always written explicitly ("3/1"), keeping the JSON
    grammar uniform.
    """
    q = QQ(x)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(s):
    """Parse ``"p/q"`` (or a bare integer / integer string) to an exact rational.

    A ``bool`` is rejected: JSON ``true`` is not a number here."""
    if isinstance(s, bool):
        raise TypeError(f"not a rational: {s!r}")
    if isinstance(s, Rational):
        return QQ(s.numerator, s.denominator)
    text = str(s).strip()
    if "/" in text:
        p, q = text.split("/")
        return QQ(int(p), int(q))
    return QQ(int(text))
