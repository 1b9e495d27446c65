"""Multiplicative lift data derived from a weight-0 input form: principal
parts, lift and singular weights, the mod-24 congruence, the inner-product
divisibility criterion, Weyl vectors, and truncated product expansions.

The product attached to an input with coefficients c(n, l) is

    q^A r^B s^C  prod_{(n, l, m) > 0} (1 - q^n r^l s^m)^{c(nm, l)} ,

where the positivity condition is fixed by a generic chamber vector w0:
(n, l, m) > 0 means m > 0, or m = 0 and n > 0, or n = m = 0 and <l, w0> < 0.
Expansions are formal and truncated by total degree n + m; whether the lift
is holomorphic is not decided here, and expansions carry the disclaimer
field holomorphic = "unknown".

The Weyl vector formula implemented by weyl_vector,

    A = (1/24) sum_l c(0, l)
    B = (1/2)  sum_{<l, w0> > 0} c(0, l) l
    C = (1/(2 rank)) sum_l c(0, l) <l, l> ,

is pinned by a classical rank-1 sanity value in the test suite (the input
with q^0 part 10 + zeta + zeta^-1 must give A = C = 1/2 and B pairing 1/2)
before anything else relies on it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Mapping
from copy import copy
from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import chain, groupby, repeat
from math import comb, gcd, lcm
from operator import add, floordiv, itemgetter, mod, mul, neg

from .errors import (
    CongruenceFailed,
    FormClassError,
    InsufficientInputPrecision,
    NonGenericChamber,
    PrecisionTooSmall,
    ResourceLimit,
    SelfCheckFailed,
    UnboundedExpansion,
)
from .lattice import EvenLattice, Vector, _as_integers, _Fractions, vector_str
from .series import (
    DEFAULT_BUDGET,
    WEAK_JACOBI,
    JacobiSeries,
    VectorValuedForm,
    _grade_limit,
    _joined,
    _mul_rows,
    _exponent_den,
    _Packing,
    _scaled,
    _View,
)


# -- principal parts ----------------------------------------------------------


class PrincipalPart(namedtuple("PrincipalPart", "lattice constant_term terms eden")):
    """Negative-exponent tail of a vector-valued form plus its c(0,0).

    lattice: EvenLattice; constant_term: int; terms: dict mapping integer
    keys (det * gamma reduced mod det, eden * e), gamma a coset of the
    discriminant group and e < 0 an exponent, to the integer coefficient;
    eden: the common exponent denominator _exponent_den gives for the keys,
    so == compares the stored terms as they are.

    The constructor reads the Fraction map {(gamma, e): c}, as the parser
    reads a file: ValueError for e >= 0 or for two keys on one coset and
    exponent, NotInDualLattice for a gamma outside the dual lattice. coeffs
    gives that map back, with gammas reduced mod 1, as a read-only view over
    terms: its len is the number of terms, and == between the coeffs of two
    parts over one det compares their integer terms. Every other read of
    coeffs decodes the terms to Fractions, once per view: each access of
    coeffs makes a new view.
    """

    __slots__ = ()

    def __new__(cls, lattice, constant_term, coeffs):
        for gamma, e in coeffs:
            if e >= 0:
                raise ValueError(
                    f"principal part exponent {e} at {vector_str(gamma)} is not negative")
        index = {}
        terms = {(lattice._coset_key(gamma), index.setdefault(Fraction(e), len(index))): c
                 for (gamma, e), c in coeffs.items()}
        if len(terms) != len(coeffs):
            raise ValueError("two terms of the principal part share a coset and an exponent")
        return cls._build(lattice, constant_term, list(index), terms)

    @classmethod
    def _build(cls, lattice, constant_term, values, terms):
        """The part of interned columns: terms maps (det * gamma reduced, i)
        to the coefficient at the exponent values[i]."""
        over = lcm(*{x.denominator for x in values})
        exps = [_scaled(x, over) for x in values]
        return cls._of(lattice, constant_term,
                       {(key, exps[i]): c for (key, i), c in terms.items()}, over)

    @classmethod
    def _of(cls, lattice, constant_term, terms, over: int):
        """The part of integer terms (det * gamma reduced, over * e), stored
        over eden; it keeps the dict when eden is over."""
        # the lcm of the denominators of the e is over / gcd(over, *over * e)
        eden = _exponent_den(lattice.det, map(itemgetter(0), terms),
                             [over // gcd(over, *map(itemgetter(1), terms))])
        if eden != over:
            terms = {(key, e * eden // over): c for (key, e), c in terms.items()}
        return super().__new__(cls, lattice, constant_term, terms, eden)

    def __reduce__(self):  # copy and pickle past the constructor's Fraction map
        return PrincipalPart._of, tuple(self)

    @property
    def coeffs(self) -> Mapping:
        """The terms as a read-only {(gamma, e): c} map with Fraction keys."""
        return _View(self, len(self.terms))

    def _fractions(self) -> dict:
        coords, exps = _Fractions(self.lattice.det).__getitem__, _Fractions(self.eden)
        return {(tuple(map(coords, key)), exps[e]): c for (key, e), c in self.terms.items()}

    def _common(self, other: "PrincipalPart") -> tuple[tuple, tuple] | None:
        """The (eden, terms) of both parts; None when their gammas lie over
        different dets. eden is a function of the Fraction map, so over one
        det two parts with different edens are different maps."""
        if self.lattice.det != other.lattice.det:
            return None
        return (self.eden, self.terms), (other.eden, other.terms)


def principal_part(form: VectorValuedForm) -> PrincipalPart:
    """Extract all (gamma, exponent < 0) coefficients and the constant term
    of the zero component, on the form's integer keys."""
    if form.prec <= 0:
        raise PrecisionTooSmall("the zero component does not reach exponent 0")
    constant = form.terms.get((0,) * form.lattice.rank, {}).get(0, 0)
    terms = {(key, e): c for key, fg in form.terms.items() for e, c in fg.items() if e < 0}
    return PrincipalPart._of(form.lattice, constant, terms, form.eden)


def lift_weight(pp: PrincipalPart) -> Fraction:
    """Weight of the product attached to this input: c(0,0) / 2."""
    return Fraction(pp.constant_term, 2)


def is_half_integral(pp: PrincipalPart) -> bool:
    return pp.constant_term % 2 != 0


def singular_weight(lattice: EvenLattice) -> Fraction:
    """The singular weight rank/2 for the ambient signature
    (rank + 2, 2) quadratic space."""
    return Fraction(lattice.rank, 2)


def is_singular_weight(pp: PrincipalPart) -> bool:
    return lift_weight(pp) == singular_weight(pp.lattice)


# -- arithmetic obstructions ------------------------------------------------------


class CongruenceReport(namedtuple("CongruenceReport",
                                   "gcd_inner_products q0_sum residue passes")):
    """Outcome of the mod-24 check N * sum_l c(0, l) = 0 (mod 24), where N
    is the gcd of all inner products of the index lattice.

    gcd_inner_products: int (N); q0_sum: int; residue: int; passes: bool.
    """

    __slots__ = ()


def congruence_check(phi: JacobiSeries) -> CongruenceReport:
    if phi.form_class != WEAK_JACOBI or phi.weight != 0:
        raise FormClassError("the congruence check expects a weight-0 weak Jacobi form")
    if phi.prec <= 0:
        raise PrecisionTooSmall("the q^0 row is outside the stored window")
    n = phi.lattice.gcd_inner_products()
    total = sum(map(itemgetter(1), _q0_row(phi)))
    residue = (n * total) % 24
    return CongruenceReport(n, total, residue, residue == 0)


def admits_half_integral_weight(lattice: EvenLattice) -> bool:
    """Divisibility criterion: every inner product of lattice vectors is a
    multiple of 8. Exactly these index lattices carry holomorphic products
    of half-integral weight."""
    return lattice.gcd_inner_products() % 8 == 0


# -- Weyl data -----------------------------------------------------------------


class WeylData(namedtuple("WeylData", "a b c chamber_vector")):
    """Prefactor exponents (A, B, C) of q^A r^B s^C together with the
    chamber vector that fixed the positivity condition.

    a: Fraction; b: Vector; c: Fraction; chamber_vector: Vector.
    """

    __slots__ = ()


def default_chamber_vector(rank: int) -> Vector:
    """(1, 1/10, 1/100, ...): generic for every q^0 support met in practice;
    genericity is still checked, never assumed."""
    return tuple(Fraction(1, 10 ** i) for i in range(rank))


def _q0_row(phi: JacobiSeries) -> list:
    """The q^0 row of phi as (l * phi.den, c) pairs, in the order of its
    terms."""
    return [(vec, c) for (t, vec), c in phi.terms.items() if not t]


def weyl_vector(phi: JacobiSeries, w0=None) -> WeylData:
    """Evaluate the Weyl vector formula on the q^0 row of phi for the chamber
    containing w0. Raises NonGenericChamber when some supported label pairs
    to zero with w0, and DimensionMismatch when w0 does not have the rank of
    the lattice.

    The sums run on integers: the labels l * den that phi stores pair with
    w0 scaled to integers with the sign of <l, w0>. Fractions are built only
    for A, B and C, and for the label a message names."""
    if phi.form_class != WEAK_JACOBI or phi.weight != 0:
        raise FormClassError("Weyl data expects a weight-0 weak Jacobi form")
    if phi.prec <= 0:
        raise PrecisionTooSmall("the q^0 row is outside the stored window")
    lat, den = phi.lattice, phi.den
    w0 = default_chamber_vector(lat.rank) if w0 is None else lat._vec(w0)
    w = _as_integers(w0)[1]
    a = c = 0
    b = [0] * lat.rank
    for l, coef in _q0_row(phi):
        pairing = lat._pair(l, w)
        if pairing > 0:
            b = [x + coef * y for x, y in zip(b, l)]
        elif pairing == 0 and any(l):
            raise NonGenericChamber(
                f"chamber vector {vector_str(w0)} pairs to zero with supported label "
                f"{vector_str([Fraction(x, den) for x in l])}")
        a += coef
        c += coef * lat._pair(l, l)
    return WeylData(Fraction(a, 24), tuple([Fraction(x, 2 * den) for x in b]),
                    Fraction(c, 2 * lat.rank * den * den), w0)


# -- truncated product expansion ---------------------------------------------------


class OrthogonalExpansion:
    """Truncated coefficients of the product expansion, graded by n + m.

    lattice: EvenLattice; weyl: WeylData; weight: Fraction; total_prec:
    Fraction; holomorphic: str, "unknown" by default.

    The coefficient of q^n r^l s^m in the product itself is stored in the
    kernel's map {key: c} on the keys of a _Packing of rank + 1 digits,
    under which the monomial packs as (n, (m, *l * den)): n, m >= 0 are
    integers and den is a common denominator of the labels, not always the
    least one. Keys in numeric order are monomials in file order
    (n, m, lex l). The lift routes hand over the packing of their factor
    table; the constructor and the parser pack their integer keys.
    term_count, repr and emit_expansion read the packed keys, and so does
    == between two expansions, or their coeffs, over one den and one digit
    width. terms decodes the keys once, on first read, into the map
    {(n, m, l * den): c} in file order.
    coeffs is the read-only {(n, l, m): c} view with Fraction labels over
    terms; the constructor reads such a map. Its len is term_count, and ==
    between the coeffs of two expansions compares their integer terms over
    a common den; every other read of coeffs decodes the labels to
    Fractions. The Weyl prefactor q^A r^B s^C is carried separately in weyl.
    Holomorphy of the underlying lift is not decided by this package.
    """

    def __init__(self, lattice, weyl, weight, coeffs, total_prec, holomorphic="unknown"):
        index = {}
        terms = {(n, m, tuple([index.setdefault(x, len(index)) for x in l])): c
                 for (n, l, m), c in coeffs.items()}
        self._build(lattice, weyl, weight, list(index), terms, total_prec, holomorphic)

    def _build(self, lattice, weyl, weight, values, terms, total_prec, holomorphic):
        """The expansion of interned columns: terms maps (n, m, l) to c, l
        the indices of the label's entries in values; the labels are stored
        over the lcm of the denominators of values."""
        den = lcm(*{x.denominator for x in values})
        coord = [_scaled(x, den) for x in values]
        terms = {(n, m, tuple(map(coord.__getitem__, l))): c for (n, m, l), c in terms.items()}
        return self._pack(lattice, weyl, weight, terms, den, total_prec, holomorphic)

    @classmethod
    def _of(cls, lattice, weyl, weight, terms, den, total_prec, holomorphic="unknown"):
        """The expansion of integer terms {(n, m, l * den): c}."""
        return cls.__new__(cls)._pack(lattice, weyl, weight, terms, den, total_prec,
                                      holomorphic)

    def _pack(self, lattice, weyl, weight, terms, den, total_prec, holomorphic):
        """Store integer terms on the keys of the least packing that holds
        them."""
        packing = _Packing(lattice.rank + 1, max(map(abs, chain.from_iterable(
            (m, *l) for _, m, l in terms)), default=0))
        packed = {packing.pack(n, (m, *l)): c for (n, m, l), c in terms.items()}
        return self._store(lattice, weyl, weight, packed, packing, den, total_prec,
                           holomorphic)

    def _store(self, lattice, weyl, weight, packed, packing, den, total_prec, holomorphic):
        """Set every attribute: packed is a map {key: c} on the keys of
        packing, left undecoded."""
        self.lattice, self.weyl, self.weight = lattice, weyl, weight
        self.total_prec, self.holomorphic, self.den = total_prec, holomorphic, den
        self._packed, self._packing, self._terms = packed, packing, None
        return self

    @property
    def terms(self) -> dict:
        """The {(n, m, l * den): c} map in file order, decoded from the
        packed keys on first read."""
        if self._terms is None:
            keys = sorted(self._packed)
            ns, ms, *labels = self._packing.digits(keys)
            self._terms = dict(zip(zip(ns, ms, zip(*labels)),
                                   map(self._packed.__getitem__, keys)))
        return self._terms

    def term_count(self) -> int:
        """The number of stored terms, counted without decoding a key."""
        return len(self._packed)

    @cached_property
    def coeffs(self) -> Mapping:
        """The terms as a read-only {(n, l, m): c} map with Fraction labels.
        The view holds a second expansion on the same terms, which holds no
        view, so that the two make no reference cycle."""
        return _View(copy(self), self.term_count())

    def _fractions(self) -> dict:
        labels = _Fractions(self.den).__getitem__
        return {(n, tuple(map(labels, l)), m): c for (n, m, l), c in self.terms.items()}

    def _common(self, other: "OrthogonalExpansion") -> tuple[dict, dict]:
        """The packed maps of both expansions when they share den and the
        layout of their keys; else their terms over the lcm of their dens."""
        mine, theirs = self._packing, other._packing
        if (self.den, mine.width, mine.shift) == (other.den, theirs.width, theirs.shift):
            return self._packed, other._packed
        den = lcm(self.den, other.den)
        return tuple(e.terms if e.den == den else
                     {(n, m, tuple([den // e.den * x for x in l])): c
                      for (n, m, l), c in e.terms.items()} for e in (self, other))

    def __eq__(self, other):
        if not isinstance(other, OrthogonalExpansion):
            return NotImplemented
        mine, theirs = self._common(other)
        return ((self.lattice, self.weyl, self.weight, self.total_prec, self.holomorphic)
                == (other.lattice, other.weyl, other.weight, other.total_prec,
                    other.holomorphic) and mine == theirs)

    def __repr__(self):
        return (f"OrthogonalExpansion(weight={self.weight}, rank={self.lattice.rank}, "
                f"terms={self.term_count()}, total_prec={self.total_prec})")


def _factor_powers(c: int, grade: int, top: int, size: int):
    """Exponents and coefficients of (1 - X)^c as a list of (k, coef) with
    k * grade < top; grade-0 factors must have c >= 0 and expand to the full
    binomial polynomial, c + 1 terms of up to c bits for each of size terms."""
    if grade == 0:
        if c < 0:
            raise UnboundedExpansion(
                "a factor of degree zero in q and s has negative exponent")
        if size * (c + 1) * (1 + c // 64) > DEFAULT_BUDGET:
            raise ResourceLimit(f"degree-zero factor with exponent {c}: {c + 1} binomials "
                                f"on {size} terms exceed the {DEFAULT_BUDGET}-term budget")
    terms, k = [], 0
    while k * grade < top and (c < 0 or k <= c):
        terms.append((k, (-1) ** k * comb(c, k) if c >= 0 else comb(k - c - 1, k)))
        k += 1
    return terms


def _expansion_preamble(phi: JacobiSeries, total_prec, w0):
    total_prec = Fraction(total_prec)
    if total_prec <= 0:
        raise ValueError("total_prec must be positive")
    if phi.prec < total_prec * total_prec / 4:
        raise InsufficientInputPrecision(
            f"input precision {phi.prec} is below the required bound "
            f"{total_prec * total_prec / 4} for total_prec {total_prec}")
    report = congruence_check(phi)
    if not report.passes:
        raise CongruenceFailed(
            f"{report.gcd_inner_products} * {report.q0_sum} = "
            f"{report.residue} (mod 24), expected 0")
    weyl = weyl_vector(phi, w0)  # raises NonGenericChamber if w0 is bad
    return total_prec, weyl


def _factor_table(phi: JacobiSeries, weyl: WeylData, top: int):
    """Every factor (1 - q^n r^l s^m)^c that can touch total degrees below
    top, as (packing, [(g, keys, cs)]): one group for each degree g = n + m
    that has factors, keys[i] the packed monomial (n, (m, *l * phi.den)) of
    a factor and cs[i] its exponent c.

    The groups come in the order the direct route applies them: g from
    top - 1 down to 1, within g m ascending, then the input's term order of
    its row at q^(nm), with c = c(nm, l); then the degree-zero factors, the
    q^0 labels on the negative side of the chamber in lex order, with
    c = c(0, l). The table is built by columns: one pass over phi.terms
    collects the rows at integer exponents e = n * m, the max |l| and the
    packed labels of a row are taken column by column over its labels, and
    the keys of one (n, m) are those plus a constant.

    The packing holds every monomial that a product of the factors forms
    below top, so that keys in numeric order are monomials in file order
    (n, m, lex l). Its bound is top plus the sum over the factors of
    power * max |l|: m < top, and a monomial takes a factor of degree g > 0
    to a power below top / g, one of degree zero to a power of at most |c|.
    Over the factors of positive degree that sum is, row by row,
    sum_(n,m) ((top - 1) // (n + m)) * S_(nm), S_e the sum of max |l| over
    the row at q^e. The total degree n + m is no digit of the key, so the
    routes keep the monomials of each degree in a map of their own, and
    hand _mul_rows only pairs of terms whose degrees add up to less than
    top."""
    q_den, pair = phi.q_den, phi.lattice._pair
    # the rows at integer exponents up to the largest n * m with n + m < top,
    # as columns (vecs, cs)
    deepest = (top - 1) ** 2 // 4 * q_den
    rows: dict[int, tuple[list, list]] = {}
    for (t, vec), c in phi.terms.items():
        if t % q_den == 0 and t <= deepest:
            vecs, cs = rows.setdefault(t // q_den, ([], []))
            vecs.append(vec)
            cs.append(c)
    # the scaled label and chamber vector pair with the sign of <l, w0>
    w = _as_integers(weyl.chamber_vector)[1]
    zero = sorted((vec, c) for vec, c in zip(*rows.get(0, ((), ()))) if pair(vec, w) < 0)
    cells = [(g, m, (g - m) * m) for g in reversed(range(1, top)) for m in range(g + 1)
             if (g - m) * m in rows]
    # each row read as the columns of its labels: max |l| of a label is the
    # max over the columns (the 0 lets max take a single column)
    columns = {e: list(zip(*rows[e][0])) for _, _, e in cells}
    widest = {e: sum(map(max, repeat(0), *[map(abs, x) for x in cols]))
              for e, cols in columns.items()}
    packing = _Packing(phi.lattice.rank + 1, top
                       + sum(abs(c) * max(map(abs, vec)) for vec, c in zero)
                       + sum((top - 1) // g * widest[e] for g, _, e in cells))
    # (n, (m, *l)) packs to n * unit + m * step + the packed label
    step, *weights = packing.weights
    # and the packed label is the sum of the columns times their weights
    labels = {e: list(reduce(partial(map, add),
                             [map(mul, x, repeat(w)) for x, w in zip(cols, weights)]))
              for e, cols in columns.items()}
    table = []
    for g, group in groupby(cells, itemgetter(0)):
        keys, cs = [], []
        for _, m, e in group:
            keys += map(add, labels[e], repeat((g - m) * packing.unit + m * step))
            cs += rows[e][1]
        table.append((g, keys, cs))
    if zero:
        table.append((0, [sum(map(mul, vec, weights)) for vec, _ in zero],
                      list(map(itemgetter(1), zero))))
    return packing, table


def _factor_rows(layers, g, key, c) -> list:
    """(1 - X)^c - 1 below the truncation len(layers) as rows (s, [(k, w)])
    of one term each, the power X^j as (j * g, [(j * key, w_j)]) in
    ascending j, X the monomial of degree g that packs to key."""
    return [(j * g, [(j * key, w)]) for j, w in
            _factor_powers(c, g, len(layers), sum(map(len, layers))) if j and w]


def _apply_factor(layers, g, rest):
    """Multiply in place by 1 + R, R given by rest as rows (s, [(key, w)])
    of the monomials of degree s >= g, in ascending s.

    layers[t] maps the packed monomials (n, (m, *l)) of total degree
    t = n + m, up to the truncation len(layers), to their coefficients, under
    the packing of _factor_table, whose bound holds for every product of the
    table's factors below len(layers). Layer t + s gains layer t times each
    row of degree s, in one _mul_rows pass for each nonempty layer t and
    each row with t + s below len(layers), and only the layers below
    len(layers) - g are read. Layers are visited from the top down, so every
    layer is read, as its own items, before it gains anything; only a
    factor of degree zero, which writes back into the layer it reads, reads
    a copy of it.

    rest is one factor (1 - X)^c less 1 (_factor_rows), or, for the factors
    of one degree g with 2g >= len(layers), the one row of the -c X of all
    of them: a product of two of those has degree at least len(layers), so
    below it their product is 1 - sum c X.
    """
    top = len(layers)
    for t in reversed(range(top - g)):
        if not layers[t]:
            continue
        source = layers[t].items() if g else list(layers[t].items())
        for s, row in rest:
            if t + s >= top:
                break
            _mul_rows(layers[t + s], source, row)


def _expansion(phi, weyl, packing, layers, total_prec) -> OrthogonalExpansion:
    """The OrthogonalExpansion of maps of packed monomials (n, (m, *l)) to
    integer coefficients, with labels l scaled by phi.den. The layers hold
    disjoint keys and are merged as they are, without decoding a key."""
    weight = Fraction(phi.terms.get((0, (0,) * phi.lattice.rank), 0), 2)
    return OrthogonalExpansion.__new__(OrthogonalExpansion)._store(
        phi.lattice, weyl, weight, _joined(layers), packing, phi.den, total_prec, "unknown")


def lift_expansion(phi: JacobiSeries, total_prec, w0=None) -> OrthogonalExpansion:
    """Expand the product over all factor indices with n + m < total_prec,
    reading the exponent of the (n, l, m) factor from c(nm, l).

    Negative exponents are expanded through geometric series; every factor
    with n + m > 0 is 1 + higher order, so the truncation by total degree is
    exact and all output coefficients are integers by construction.

    The factors come from _factor_table: one group of packed keys and
    exponents for each degree g, in descending degree with the degree-zero
    binomials last, under one packing for the whole product. Each factor
    multiplies the layers of one degree each in place (_apply_factor), the
    factors of one high degree g, 2g >= top, all in one pass.
    """
    total_prec, weyl = _expansion_preamble(phi, total_prec, w0)
    top = _grade_limit(total_prec, 1)
    packing, table = _factor_table(phi, weyl, top)
    # the monomial 1 packs to the key 0
    layers = [{0: 1}] + [{} for _ in range(1, top)]
    # Descending degree: while every factor applied so far has degree at
    # least g, the layers strictly between 0 and g are empty, so a factor of
    # degree g > top/2 reads only layer 0. The degree-zero factors keep every
    # grade and widen each layer they touch, so they come last.
    for g, keys, cs in table:
        if 2 * g >= top:
            _apply_factor(layers, g, [(g, list(zip(keys, map(neg, cs))))])
        else:
            for key, c in zip(keys, cs):
                _apply_factor(layers, g, _factor_rows(layers, g, key, c))
    if layers[0].get(0) != 1:
        raise SelfCheckFailed("lift constant term",
                              "constant coefficient of the product is not 1")
    return _expansion(phi, weyl, packing, layers, total_prec)


def lift_expansion_log_exp(phi: JacobiSeries, total_prec, w0=None) -> OrthogonalExpansion:
    """Second route to the same expansion: exponentiate
    - sum_{(n,l,m)>0, n+m>0} c(nm, l) sum_k (1/k) q^{kn} r^{kl} s^{km}
    grade by grade with the recurrence g E_g = sum_h h L_h E_(g-h), then
    multiply in the finitely many degree-zero binomial factors.

    Everything stays on integers: h L_h has integer coefficients, and E is
    the product of the factors (1 - X)^c of positive degree, each with
    integer coefficients, so E_g is integral and g divides every g E_g the
    recurrence forms. The division is exact, and a remainder raises
    SelfCheckFailed at the grade where it appears.

    It reads the factor table of the direct route (_factor_table): a group
    of degree g > 0 adds -c * g at k * key to h L_h, h = k * g, for each
    multiple k with h < top; the degree-zero group goes in last, as there.
    The maps of h L_h and of E_(g-h) go to _mul_rows as they are, as their
    items, without a copy."""
    total_prec, weyl = _expansion_preamble(phi, total_prec, w0)
    top = _grade_limit(total_prec, 1)
    packing, table = _factor_table(phi, weyl, top)

    # h * L_h: the log terms of total degree h, times h. The factor
    # (n, l, m) contributes -c/k at k(n, l, m), so the weighted term is
    # -c * (n + m), an integer.
    weighted_log: dict[int, dict] = {}
    zero_grade = []
    for g, keys, cs in table:
        if g == 0:
            zero_grade += zip(keys, cs)
            continue
        weights = [-c * g for c in cs]
        for k in range(1, -(-top // g)):
            bucket = weighted_log.setdefault(k * g, {})
            for key, w in zip(map(mul, keys, repeat(k)), weights):
                bucket[key] = bucket.get(key, 0) + w

    # layers[g] is E_g as a map of packed monomials; every product formed
    # has degree h + (g - h) = g below top
    layers = [{0: 1}]
    for g in range(1, top):
        bucket = {}
        for h in range(1, g + 1):
            if h in weighted_log:
                _mul_rows(bucket, weighted_log[h].items(), layers[g - h].items())
        if any(map(mod, bucket.values(), repeat(g))):
            (n, vec), v = next((mono, v) for mono, v in packing.unpack(bucket).items() if v % g)
            raise SelfCheckFailed("lift integrality", f"non-integral coefficient "
                                  f"{Fraction(v, g)} at n={n}, m={vec[0]}")
        layers.append(dict(zip(bucket, map(floordiv, bucket.values(), repeat(g)))))
    for key, c in zero_grade:
        _apply_factor(layers, 0, _factor_rows(layers, 0, key, c))
    return _expansion(phi, weyl, packing, layers, total_prec)


# -- diagnostics for principal parts -------------------------------------------------


class PrincipalPartReport(namedtuple("PrincipalPartReport", [
        "exponent_class_ok", "exponent_class_offenders", "symmetry_ok",
        "symmetry_offenders", "weight_ok", "weight", "half_integral",
        "singular_weight", "is_singular"])):
    """Per-check outcome of validate_principal_part; offender lists hold the
    (gamma, exponent) keys that failed.

    exponent_class_ok: bool; exponent_class_offenders: list; symmetry_ok:
    bool; symmetry_offenders: list; weight_ok: bool; weight: Fraction;
    half_integral: bool; singular_weight: Fraction; is_singular: bool.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.exponent_class_ok and self.symmetry_ok and self.weight_ok


def validate_principal_part(pp: PrincipalPart, claimed_weight=None) -> PrincipalPartReport:
    """Diagnostics, not exceptions: (1) every exponent is congruent to
    -Q(gamma) mod 1; (2) coefficients are symmetric under gamma -> -gamma;
    (3) the constant term matches the claimed weight (skipped when no weight
    is claimed); plus the resulting lift weight and singular weight."""
    lat, det, eden, terms = pp.lattice, pp.lattice.det, pp.eden, pp.terms

    def offender(key, e):  # the only Fractions built here
        return tuple([Fraction(x, det) for x in key]), Fraction(e, eden)

    class_offenders, symmetry_offenders = [], []
    for key, e in sorted(terms, key=itemgetter(1, 0)):
        # eden * Q(gamma) is an integer, as eden is a multiple of 2 d^2
        if (e + eden * lat._pair(key, key) // (2 * det * det)) % eden:
            class_offenders.append(offender(key, e))
        if terms.get((tuple([-x % det for x in key]), e), 0) != terms[key, e]:
            symmetry_offenders.append(offender(key, e))
    weight = lift_weight(pp)
    weight_ok = True
    if claimed_weight is not None:
        weight_ok = Fraction(claimed_weight) == weight
    return PrincipalPartReport(
        exponent_class_ok=not class_offenders,
        exponent_class_offenders=class_offenders,
        symmetry_ok=not symmetry_offenders,
        symmetry_offenders=symmetry_offenders,
        weight_ok=weight_ok,
        weight=weight,
        half_integral=is_half_integral(pp),
        singular_weight=singular_weight(lat),
        is_singular=is_singular_weight(pp),
    )
