"""Fraction-level views that only the tests read: the bilinear form, the
reduction of a vector mod 1 and Q mod 1 on an EvenLattice, and one q-row of
a JacobiSeries. Each takes the record as its first argument and answers
exactly as the package's own arithmetic does, so the tests use them as
oracles next to the integer paths of the package."""

from fractions import Fraction
from math import floor

from borcherdskit.errors import PrecisionTooSmall
from borcherdskit.lattice import _as_integers, _Fractions


def bilinear_value(lattice, v, w) -> Fraction:
    """<v, w> = v^T * gram * w, exactly."""
    dv, a = _as_integers(lattice._vec(v))
    dw, b = _as_integers(lattice._vec(w))
    return Fraction(lattice._pair(a, b), dv * dw)


def reduce_mod1(lattice, v) -> tuple:
    """Reduce coordinates componentwise into [0, 1); a vector already
    reduced is returned as it is."""
    w = lattice._vec(v)
    if all(0 <= c.numerator < c.denominator for c in w):
        return w
    return tuple(c - floor(c) for c in w)


def q_mod1(lattice, gamma) -> Fraction:
    """Q(gamma) mod 1; well defined on cosets of the lattice."""
    return lattice.quadratic_value(lattice._dual(gamma)) % 1


def q_row(series, n) -> dict:
    """All labels at the given q-exponent. Raises if n is outside the
    stored window."""
    n = Fraction(n)
    if n >= series.prec:
        raise PrecisionTooSmall(
            f"q-exponent {n} is not below the stored precision {series.prec}")
    grade, rest = divmod(n * series.q_den, 1)
    labels = _Fractions(series.den).__getitem__
    return {} if rest else {tuple(map(labels, vec)): c
                            for (t, vec), c in series.terms.items() if t == grade}
