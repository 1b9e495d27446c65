"""Sparse exact Fourier expansions for Jacobi forms of lattice index.

A series is a finite sum  sum c(n, l) q^n zeta^l  with rational q-exponents n,
elliptic labels l stored as vectors in lattice-basis coordinates, and integer
coefficients. zeta^l abbreviates e(<l, z>), so pairing values rather than raw
coordinates play the role of classical elliptic exponents; on the rank-1
lattice with Gram matrix [[8]] the classical zeta = e(z) is the label l = 1/8
and the half-integral powers of the odd theta function live on l in (1/16)Z.

Two classes of series are tracked. "raw" building blocks (theta functions)
may use fractional q-exponents and half-lattice labels; "weak_jacobi" series
promise integer q-exponents, labels in the dual lattice and the elliptic
shift invariance, which theta_decompose verifies before trusting it.

Every series carries a truncation bound prec: coefficients are stored, and
trusted, exactly for q-exponents strictly below prec. Binary operations
return the minimum of the input precisions (adjusted downward when a factor
has negative exponents). Comparison looks only at the common window.

A series stores its terms on integer keys: q-exponent n as the grade n * q_den
and label l as the tuple l * den, den being a label denominator of the series.
A VectorValuedForm stores {det * gamma: {eden * e: c}}, keyed as the
coset-minima table keys its cosets. Fraction keys appear only at the
boundary: the constructors read them, and coeffs and components give them
back through read-only views (_View), which answer len, and == between two
views, on the integer terms and decode the Fraction map only for a read
that needs its keys. A constructor interns its Fraction map into columns,
the distinct Fractions and the terms keyed by their indices, and hands them
to _build, which the io parser of the record calls too: each record's
denominator rule lives there. Products of terms run on keys packed into one
int each (_Packing). A product of two term lists (*, direct_product and
both lift expansions) runs through one kernel, _mul_into; recompose needs
none, as no two of its terms fall on one monomial. A product or quotient
by one binomial 1 + c X, the factors of phi04 and of the triple product,
runs through _binomial, in place on the accumulator's rows of one grade
each.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from itertools import chain, compress, repeat
from math import gcd, lcm
from operator import add, and_, itemgetter, lshift, mul, rshift, sub

from .errors import (
    DimensionMismatch,
    FormClassError,
    IncompatiblePrecision,
    NotInDualLattice,
    PrecisionTooSmall,
    ResourceLimit,
    SelfCheckFailed,
    ShiftInvarianceViolated,
)
from .lattice import (
    EvenLattice,
    _as_integers,
    _Fractions,
    direct_sum,
    to_vector,
    vector_str,
)

RAW = "raw"
WEAK_JACOBI = "weak_jacobi"

_THETA_LATTICE_GRAM = ((8,),)


# -- the exact product kernel ---------------------------------------------------


class _Packing:
    """Kronecker substitution of kernel keys for vectors of length rank >= 1
    whose components all satisfy |v_i| <= bound.

    The base is M = 2^width, the least power of two with M/2 > bound, and the
    monomial (t, vec) packs to t * M^rank + sum vec_i * M^(rank-1-i): balanced
    digits, so the map is linear, one-to-one on the box |v_i| <= bound, and
    keys in numeric order are monomials in (t, lex vec) order. The grade t may
    be any integer. A key whose vector leaves the box stands for another
    monomial, so bound must hold for every product formed on the keys.
    """

    __slots__ = ("bound", "width", "weights", "unit", "shift", "shifts", "offset", "mask",
                 "half")

    def __init__(self, rank: int, bound: int):
        self.bound = bound
        self.width = width = bound.bit_length() + 1
        # digit i sits shifts[i] bits up, the grade shift bits up
        self.shift = width * rank
        self.shifts = tuple(width * i for i in reversed(range(rank)))
        self.weights = tuple(1 << s for s in self.shifts)
        self.unit = 1 << self.shift
        self.mask, self.half = (1 << width) - 1, 1 << width - 1
        # key + offset has the unsigned digits vec_i + M/2, all in [0, M)
        self.offset = self.half * sum(self.weights)

    def pack(self, t: int, vec) -> int:
        return t * self.unit + sum(map(mul, vec, self.weights))

    def digits(self, keys) -> list:
        """The grades of the keys, then each digit vec_i of their vectors, as
        one iterator over the keys each."""
        lifted = list(map(add, keys, repeat(self.offset)))
        unsigned = [map(and_, map(rshift, lifted, repeat(s)), repeat(self.mask))
                    for s in self.shifts]
        return [map(rshift, lifted, repeat(self.shift))] + [
            map(sub, d, repeat(self.half)) for d in unsigned]

    def unpack(self, packed: dict) -> dict:
        """The map {k: c} as {(t, vec): c} in (t, lex vec) order, which is the
        numeric order of the keys."""
        keys = sorted(packed)
        grades, *digits = self.digits(keys)
        return dict(zip(zip(grades, zip(*digits)), map(packed.__getitem__, keys)))


def _mul_into(dst, a, b, limit, max_terms=None):
    """dst += a * b over packed terms, keeping grades below limit.

    A term is (t, k, c): an integer truncation grade t, the key k of the
    monomial (t, vec) under one _Packing, and a coefficient c; dst maps keys
    to coefficients. Two terms multiply to grade t_a + t_b, key k_a + k_b and
    coefficient c_a * c_b, which is the product monomial as long as its vector
    stays inside the packing's box: every caller chooses a bound that holds
    for all grades below limit. b must be sorted by grade, so the inner loop
    stops at the first term whose product would reach limit. Coefficients
    that cancel to zero leave dst, and ResourceLimit is raised as soon as dst
    holds more than max_terms terms.
    """
    for ta, ka, ca in a:
        stop = limit - ta
        for tb, kb, cb in b:
            if tb >= stop:
                break
            key = ka + kb
            c = dst.get(key, 0) + ca * cb
            if c:
                dst[key] = c
                if max_terms is not None and len(dst) > max_terms:
                    raise ResourceLimit(
                        f"product exceeded the {max_terms}-coefficient budget")
            else:
                dst.pop(key, None)


def _binomial(rows, g, key, c, limit, count=0, max_terms=None, divide=False):
    """Multiply, or with divide divide, the series held in rows by 1 + c X in
    place, keeping grades below limit, and return the running term count.

    rows[t] maps the packed keys of the terms t steps above row 0 to their
    coefficients, a step being a fixed number of grades; X is the monomial g
    >= 1 steps up with key key, c is nonzero, and rows at or above limit are
    not kept. Row t gains +-c X times row t - g: a product walks the rows
    downward, so that row is still the old one, and a quotient walks them
    upward, so that row already holds the quotient. Rows are appended as the
    walk reaches them. count is the number of terms in rows before the call;
    ResourceLimit is raised as soon as a row leaves more than max_terms terms
    in all, and a quotient that will pass max_terms once it walks past the
    rows it was given is refused before that walk starts. This and _mul_into
    are the only places where products of terms are formed.
    """
    if divide:
        c, walk, new = -c, range(g, limit), max(g, len(rows))
    else:
        walk, new = range(min(len(rows) + g, limit) - 1, g - 1, -1), None
    for t in walk:
        if t == new and max_terms is not None:
            # a quotient's new row is c X times the row g below it, so every
            # row from t on repeats the size of one of the g rows below t
            ahead = sum(len(row) * -(-(limit - t - j) // g)
                        for j, row in enumerate(rows[t - g:t]))
            if count + ahead > max_terms:
                raise ResourceLimit(f"product exceeded the {max_terms}-coefficient budget")
        if t >= len(rows):
            rows += [{} for _ in range(len(rows), t + 1)]
        src = rows[t - g]
        if not src:
            continue
        row = rows[t]
        before, get = len(row), row.get
        for k, v in src.items():
            k += key
            v = get(k, 0) + c * v
            if v:
                row[k] = v
            else:
                del row[k]
        count += len(row) - before
        if max_terms is not None and count > max_terms:
            raise ResourceLimit(f"product exceeded the {max_terms}-coefficient budget")
    return count


def _joined(rows) -> dict:
    """The rows of _binomial as one map {k: c}."""
    return dict(chain.from_iterable(map(dict.items, rows)))


def _grade_limit(prec: Fraction, q_den: int) -> int:
    """Smallest integer t with t / q_den >= prec: the kernel limit that keeps
    exactly the q-exponents below prec."""
    return -(-prec.numerator * q_den // prec.denominator)


def _scaled(x: Fraction, den: int) -> int:
    """x * den for a Fraction x whose denominator divides den."""
    return x.numerator * (den // x.denominator)


class _View(Mapping):
    """The read-only Fraction-keyed map of a record's integer terms: the
    coeffs of a series, an expansion or a principal part, the components of
    a form.

    len is size, the number of the record's terms. == against a view of a
    record of the same type compares the integers that record._common(other)
    gives for both records: their terms on one scale, for expansions whose
    packed keys share one layout those keys, or for principal parts their
    (eden, terms). Every other read, and == where _common returns
    None, decodes record._fractions() once and answers from that map, which
    the view keeps but leaves out of a pickle or a copy; in, get and keys
    are Mapping's, read through __getitem__ and __iter__. Assignment raises
    TypeError.
    """

    __slots__ = ("_record", "_size", "_map")

    def __init__(self, record, size: int):
        self._record, self._size, self._map = record, size, None

    def __reduce__(self):
        return _View, (self._record, self._size)

    def _fractions(self) -> dict:
        if self._map is None:
            self._map = self._record._fractions()
        return self._map

    def __len__(self):
        return self._size

    def __eq__(self, other):
        if isinstance(other, _View) and type(other._record) is type(self._record):
            pair = self._record._common(other._record)
            if pair is not None:
                return pair[0] == pair[1]
            other = other._fractions()
        return self._fractions() == other

    __hash__ = None

    def __getitem__(self, key):
        return self._fractions()[key]

    def __iter__(self):
        return iter(self._fractions())

    # Mapping's values and items would look each key up again, and hashing a
    # tuple of Fractions makes that some 30 times slower than reading the
    # decoded map (the items of phi_n(4, 5), CPython 3.11)
    def values(self):
        return self._fractions().values()

    def items(self):
        return self._fractions().items()

    def copy(self) -> dict:
        return self._fractions().copy()

    def __repr__(self):
        return f"_View({self._fractions()!r})"


def _product_prec(prec_a, a, prec_b, b, q_den: int) -> Fraction:
    """Window of a product: a factor with terms below q^0 lowers the window
    of the other one. a and b are the factors' kernel terms, sorted by
    grade."""
    low_a = min(a[0][0], 0) if a else 0
    low_b = min(b[0][0], 0) if b else 0
    return min(prec_a + Fraction(low_b, q_den), prec_b + Fraction(low_a, q_den))


class JacobiSeries:
    """Truncated Fourier expansion sum c(n, l) q^n zeta^l with exact data.

    terms maps integer keys (t, vec) to the coefficient of q^(t / q_den)
    zeta^(vec / den), den being a common denominator of the labels, not always
    the least one. Series may share terms, and none modifies it. A direct
    product stores the kernel's map {k: c} on the keys of its _Packing
    instead, and terms decodes it on first access; term_count, is_zero,
    repr and the next direct product read the packed keys, and so does
    emit_series until terms is read.
    coeffs is the read-only {(n, l): c} view with Fraction keys over terms.
    Its len is term_count, and == between the coeffs of two series compares
    their integer terms over common denominators; coefficient reads one
    integer key. Every other read of coeffs decodes the terms to Fractions,
    once per view: each access of coeffs makes a new view, so keep it for
    repeated reads.
    """

    __slots__ = ("lattice", "weight", "prec", "q_den", "den", "form_class", "_terms",
                 "_packing", "_packed")

    def __init__(self, lattice, weight, prec, coeffs, q_den=None, form_class=RAW):
        if form_class not in (RAW, WEAK_JACOBI):
            raise FormClassError(f"unknown form class {form_class!r}")
        index, ns, flat, cs = {}, [], [], []
        for (n, l), c in coeffs.items():
            l = to_vector(l)
            if len(l) != lattice.rank:
                raise DimensionMismatch(
                    f"label {vector_str(l)} has length {len(l)}, lattice rank is "
                    f"{lattice.rank}")
            ns.append(index.setdefault(Fraction(n), len(index)))
            flat += [index.setdefault(x, len(index)) for x in l]
            cs.append(c if type(c) is int else int(c))
        self._build(lattice, weight, Fraction(prec), list(index), ns, flat, cs, q_den,
                    form_class)

    def _build(self, lattice, weight, prec, values, ns, flat, cs, q_den, form_class):
        """The series of interned columns: values lists distinct Fractions,
        and term i has the q-exponent values[ns[i]], the label entries
        values[flat[rank * i + j]] and the coefficient cs[i]. The terms below
        prec with nonzero coefficients are kept on integer keys: grades over
        q_den, or over the lcm of their denominators when q_den is None, and
        labels over the lcm of theirs. ValueError unless the weight has
        denominator 1 or 2 and q_den is a positive multiple of every kept
        denominator."""
        weight = Fraction(weight)
        if weight.denominator > 2:
            raise ValueError(f"weight {weight} does not have denominator <= 2")
        rank = lattice.rank
        # one comparison with prec per distinct value, then one pass per column
        below = [x < prec for x in values]
        keep = list(map(and_, map(below.__getitem__, ns), map(bool, cs)))
        ns, cs = list(compress(ns, keep)), list(compress(cs, keep))
        flat = list(compress(flat, chain.from_iterable(zip(*[keep] * rank))))
        exps, coords = set(ns), set(flat)
        dens = {values[n].denominator for n in exps}
        q_den = lcm(*dens) if q_den is None else int(q_den)
        if q_den < 1:
            raise ValueError(f"q_den must be a positive integer, got {q_den}")
        if any(q_den % d for d in dens):
            raise ValueError(f"a q-exponent does not lie in (1/{q_den})Z")
        den = lcm(*{values[x].denominator for x in coords})
        grade = {n: _scaled(values[n], q_den) for n in exps}
        coord = {x: _scaled(values[x], den) for x in coords}
        keys = zip(map(grade.__getitem__, ns), zip(*[map(coord.__getitem__, flat)] * rank))
        return self._store(lattice, weight, prec, dict(zip(keys, cs)), q_den, den, form_class)

    def _store(self, lattice, weight, prec, terms, q_den, den, form_class, packing=None):
        """Set every slot; with a packing, terms is the kernel's map on its
        keys, kept packed."""
        self.lattice, self.weight, self.prec = lattice, weight, prec
        self.q_den, self.den, self.form_class = q_den, den, form_class
        self._terms, self._packing, self._packed = ((terms, None, None) if packing is None
                                                    else (None, packing, terms))
        return self

    @classmethod
    def _of(cls, lattice, weight, prec, terms, q_den, den, form_class):
        """The series of integer terms as the kernel leaves them: the dict
        itself, or a copy without zero coefficients and grades >= prec."""
        limit = _grade_limit(prec, q_den)
        if 0 in terms.values() or (terms and max(map(itemgetter(0), terms)) >= limit):
            terms = {key: c for key, c in terms.items() if c and key[0] < limit}
        return cls.__new__(cls)._store(lattice, weight, prec, terms, q_den, den, form_class)

    def _over(self, q_den: int, den: int) -> dict:
        """The terms with grades over q_den and labels over den, multiples of
        the stored denominators; the stored dict itself when they are equal."""
        if q_den == self.q_den and den == self.den:
            return self.terms
        a, b = q_den // self.q_den, den // self.den
        return {(t * a, tuple([b * x for x in vec])): c for (t, vec), c in self.terms.items()}

    def _common(self, other: "JacobiSeries") -> tuple[dict, dict]:
        """The terms of both series over the lcm of their denominators."""
        q_den, den = lcm(self.q_den, other.q_den), lcm(self.den, other.den)
        return self._over(q_den, den), other._over(q_den, den)

    def _reach(self, den: int) -> int:
        """A bound on |component| of the label vectors over den: the largest
        one, or the bound of the packing of a packed series."""
        if self._packed is None:
            bound = max(map(abs, chain.from_iterable(map(itemgetter(1), self._terms))),
                        default=0)
        else:
            bound = self._packing.bound
        return bound * (den // self.den)

    def _kernel(self, packing: _Packing, q_den: int, den: int, before: int = 0) -> list:
        """The terms over q_den and den as packed kernel input, sorted by
        grade; the label vector takes the digits from before on."""
        a, b = q_den // self.q_den, den // self.den
        unit = a * packing.unit
        weights = [b * w for w in packing.weights[before:]]
        return sorted([(a * t, unit * t + sum(map(mul, vec, weights)), c)
                       for (t, vec), c in self.terms.items()])

    def _factor(self, packing: _Packing, den: int, before: int) -> list:
        """The terms over q_den 1 and den as the kernel input of a direct
        product, sorted by grade; the label vector takes the digits from before
        on. A packed series over den whose digits have the width of packing's
        is re-keyed without decoding: the key t * U + v of its packing becomes
        t * U' + (v << s), U' being the unit of packing and s the width of the
        digits after the vector's."""
        packed, mine = self._packed, self._packing
        if packed is None or den != self.den or mine.width != packing.width:
            return self._kernel(packing, 1, den, before)
        keys = sorted(packed)
        grades = list(map(rshift, map(add, keys, repeat(mine.offset)), repeat(mine.shift)))
        s = packing.shift - mine.shift - packing.width * before
        moved = map(lshift, keys, repeat(s))
        # zero for the leftmost factor, whose keys only shift
        step = packing.unit - (mine.unit << s)
        if step:
            moved = map(add, moved, map(mul, grades, repeat(step)))
        return list(zip(grades, moved, map(packed.__getitem__, keys)))

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict:
        """The {(t, vec): c} map, decoded from the packed keys on first
        access."""
        if self._terms is None:
            self._terms = self._packing.unpack(self._packed)
        return self._terms

    def term_count(self) -> int:
        """The number of stored terms, counted without decoding packed
        keys."""
        return len(self._terms if self._packed is None else self._packed)

    @property
    def coeffs(self) -> Mapping:
        """The terms as a read-only {(n, l): c} map with Fraction keys."""
        return _View(self, self.term_count())

    def _fractions(self) -> dict:
        exps, labels = _Fractions(self.q_den), _Fractions(self.den).__getitem__
        return {(exps[t], tuple(map(labels, vec))): c for (t, vec), c in self.terms.items()}

    @property
    def min_exp(self) -> Fraction:
        """Smallest stored q-exponent (0 for the zero series)."""
        return Fraction(min((t for t, _ in self.terms), default=0), self.q_den)

    def is_zero(self) -> bool:
        return not self.term_count()

    def coefficient(self, n, l) -> int:
        """Stored coefficient; exponents below prec that are absent are 0.
        It is read at the integer key (n * q_den, l * den), and is 0 where
        that key is not integral or l has the wrong length. A packed series
        looks the key up packed, without decoding its terms; a label outside
        the packing's box is 0 there, since its key would stand for another
        monomial."""
        t = Fraction(n) * self.q_den
        vec = [x * self.den for x in to_vector(l)]
        if (t.denominator != 1 or any(x.denominator != 1 for x in vec)
                or len(vec) != self.lattice.rank):
            return 0
        t, vec = t.numerator, [x.numerator for x in vec]
        if self._packed is None:
            return self._terms.get((t, tuple(vec)), 0)
        packing = self._packing
        if max(map(abs, vec), default=0) > packing.bound:
            return 0
        return self._packed.get(packing.pack(t, vec), 0)

    def support(self):
        """Stored terms in canonical (n, lex l) order. The integer keys
        (t, vec) sort in that order, as both are scaled by positive
        denominators, so only the sorted keys are decoded."""
        exps, labels = _Fractions(self.q_den), _Fractions(self.den).__getitem__
        return [((exps[t], tuple(map(labels, vec))), c)
                for (t, vec), c in sorted(self.terms.items())]

    def __repr__(self):
        return (f"JacobiSeries(weight={self.weight}, rank={self.lattice.rank}, "
                f"terms={self.term_count()}, prec={self.prec}, {self.form_class})")

    def __eq__(self, other):
        if not isinstance(other, JacobiSeries):
            return NotImplemented
        if self.lattice != other.lattice or self.weight != other.weight:
            return False
        q_den, den = lcm(self.q_den, other.q_den), lcm(self.den, other.den)
        limit = _grade_limit(min(self.prec, other.prec), q_den)
        mine, theirs = ({key: c for key, c in phi._over(q_den, den).items() if key[0] < limit}
                        for phi in (self, other))
        return mine == theirs

    __hash__ = None

    # -- ring operations ----------------------------------------------------

    def _require_same_lattice(self, other):
        if self.lattice != other.lattice:
            raise DimensionMismatch("series live on different lattices")

    def __add__(self, other):
        if not isinstance(other, JacobiSeries):
            return NotImplemented
        self._require_same_lattice(other)
        if self.weight != other.weight:
            raise ValueError("cannot add series of different weights")
        q_den, den = lcm(self.q_den, other.q_den), lcm(self.den, other.den)
        out = dict(self._over(q_den, den))
        for key, c in other._over(q_den, den).items():
            out[key] = out.get(key, 0) + c
        cls = WEAK_JACOBI if self.form_class == other.form_class == WEAK_JACOBI else RAW
        return JacobiSeries._of(self.lattice, self.weight, min(self.prec, other.prec),
                                out, q_den, den, cls)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return JacobiSeries._of(self.lattice, self.weight, self.prec,
                                    {key: other * c for key, c in self.terms.items()},
                                    self.q_den, self.den, self.form_class)
        if not isinstance(other, JacobiSeries):
            return NotImplemented
        self._require_same_lattice(other)
        q_den, den = lcm(self.q_den, other.q_den), lcm(self.den, other.den)
        # a label of the product is the sum of one label of each factor, so
        # the sum of the two reaches bounds its components
        packing = _Packing(self.lattice.rank, self._reach(den) + other._reach(den))
        a, b = self._kernel(packing, q_den, den), other._kernel(packing, q_den, den)
        prec = _product_prec(self.prec, a, other.prec, b, q_den)
        out = {}
        _mul_into(out, a, b, _grade_limit(prec, q_den))
        cls = WEAK_JACOBI if self.form_class == other.form_class == WEAK_JACOBI else RAW
        return JacobiSeries._of(self.lattice, self.weight + other.weight, prec,
                                packing.unpack(out), q_den, den, cls)

    __rmul__ = __mul__

    def truncate(self, prec) -> "JacobiSeries":
        prec = Fraction(prec)
        if prec > self.prec:
            raise PrecisionTooSmall(
                f"cannot extend precision {self.prec} to {prec} by truncation")
        return JacobiSeries._of(self.lattice, self.weight, prec, self.terms,
                                self.q_den, self.den, self.form_class)


# -- theta building blocks ---------------------------------------------------


def theta_lattice() -> EvenLattice:
    """The rank-1 lattice with Gram matrix [[8]] that the scalar theta
    quotient machinery lives on."""
    return EvenLattice([row[:] for row in map(list, _THETA_LATTICE_GRAM)])


def theta_sum(prec) -> JacobiSeries:
    """Odd Jacobi theta function as a character sum: the term for odd n sits
    at q^(n^2/8) with label n/16 and coefficient +1 for n = 1 mod 4, -1 for
    n = 3 mod 4."""
    prec = Fraction(prec)
    # kernel terms: grades are 8 * q-exponents, labels are scaled by 16
    limit = _grade_limit(prec, 8)
    terms = {(s * s, (s,)): 1 if s % 4 == 1 else -1
             for n in range(1, limit, 2) if n * n < limit for s in (-n, n)}
    return JacobiSeries._of(theta_lattice(), Fraction(1, 2), prec, terms, 8, 16, RAW)


def theta_triple_product(prec) -> JacobiSeries:
    """The same theta function computed from its infinite-product form
    q^(1/8) (zeta^(1/2) - zeta^(-1/2)) prod (1-q^n zeta)(1-q^n zeta^-1)(1-q^n).

    Only factors with n + 1/8 < prec can touch the stored window, so the
    product is finite and the truncation exact. The product is kept as rows
    of one grade 8 n + 1 each, and each binomial factor multiplies them in
    place.
    """
    prec = Fraction(prec)
    # kernel terms: grades are 8 * q-exponents, labels are scaled by 16
    limit = _grade_limit(prec, 8)
    # the prefactor has |label| 1 at grade 1, and each factor adds at most 2
    # to |label| and 8 n >= 8 to the grade, so |label| <= 1 + grade / 4
    packing = _Packing(1, 1 + limit // 4)
    # row n holds grade 8 n + 1, the only grades the product reaches
    rows = [{packing.pack(1, (1,)): 1, packing.pack(1, (-1,)): -1}]
    top = -(-(limit - 1) // 8)
    for n in range(1, top):
        for label in (2, -2, 0):
            _binomial(rows, n, packing.pack(8 * n, (label,)), -1, top)
    return JacobiSeries._of(theta_lattice(), Fraction(1, 2), prec,
                            packing.unpack(_joined(rows)), 8, 16, RAW)


def rescale_elliptic(phi: JacobiSeries, a: int) -> JacobiSeries:
    """Substitute z -> a*z: every label l becomes a*l, q-exponents unchanged."""
    a = int(a)
    if a < 1:
        raise ValueError("rescaling factor must be a positive integer")
    if a == 1:
        return phi
    terms = {(t, tuple([a * x for x in vec])): c for (t, vec), c in phi.terms.items()}
    return JacobiSeries._of(phi.lattice, phi.weight, phi.prec, terms, phi.q_den, phi.den,
                            phi.form_class)


def phi04(prec, max_terms: int | None = None) -> JacobiSeries:
    """The weight-0 weak Jacobi form on the [[8]] lattice whose q^0 part is
    zeta + 1 + zeta^-1, built as a theta quotient that divides only by
    binomials, never by another series.

    The two theta prefactors cancel to the exact three-term Laurent
    polynomial (zeta^(3/2) - zeta^(-3/2)) / (zeta^(1/2) - zeta^(-1/2))
    = zeta + 1 + zeta^-1, the (1 - q^n) factors cancel completely, and each
    remaining factor (1 - q^n zeta^(+-1))^-1 is 1 + O(q^n), so its geometric
    expansion truncates exactly. The expansion is kept as rows of one grade
    each: per n, the two factors 1 - q^n zeta^(+-3) multiply them and the two
    factors 1 - q^n zeta^(+-1) divide them, in place, one pass each. The
    defining identity phi04 * theta(z) = theta(3z) is re-checked on every
    call. ResourceLimit is raised as soon as the expansion holds more than
    max_terms terms.
    """
    prec = Fraction(prec)
    if prec < 1:
        raise PrecisionTooSmall(f"phi04 needs precision >= 1, got {prec}")
    # kernel terms: q-exponents are integers, labels are scaled by 8
    limit = _grade_limit(prec, 1)
    # the q^0 part has |label| <= 1 and every factor adds at most 3 to
    # |label| per unit of grade, so |label| <= 1 + 3 * grade
    packing = _Packing(1, 1 + 3 * limit)
    pack = packing.pack
    rows = [{pack(0, (1,)): 1, pack(0, (0,)): 1, pack(0, (-1,)): 1}]
    count = 3
    for n in range(1, limit):
        for label, divide in ((3, False), (-3, False), (1, True), (-1, True)):
            count = _binomial(rows, n, pack(n, (label,)), -1, limit, count, max_terms, divide)
    result = JacobiSeries._of(theta_lattice(), Fraction(0), prec, packing.unpack(_joined(rows)),
                              1, 8, WEAK_JACOBI)
    theta = theta_sum(prec)
    if result * theta != rescale_elliptic(theta, 3):
        raise SelfCheckFailed("phi04 identity", "phi04 * theta(z) differs from theta(3z)")
    return result


# -- products over several lattice factors ------------------------------------


def direct_product(phi1: JacobiSeries, phi2: JacobiSeries,
                   max_terms: int | None = None) -> JacobiSeries:
    """Series on the direct sum of the two index lattices with
    c(n, (l1, l2)) = sum over a + b = n of c1(a, l1) * c2(b, l2)."""
    for phi in (phi1, phi2):
        if phi.q_den != 1:
            raise FormClassError("direct products need integer q-exponents")
    # phi1 fills the first digits of a key and phi2 the others, so the sum of
    # two keys packs the concatenated label; a component of that label is a
    # component of one factor's label, so the larger of the two reaches bounds
    # it, and the product keeps its keys on that packing
    den = lcm(phi1.den, phi2.den)
    packing = _Packing(phi1.lattice.rank + phi2.lattice.rank,
                       max(phi1._reach(den), phi2._reach(den)))
    a = phi1._factor(packing, den, 0)
    b = phi2._factor(packing, den, phi1.lattice.rank)
    prec = _product_prec(phi1.prec, a, phi2.prec, b, 1)
    if prec <= 0:
        raise IncompatiblePrecision(
            f"truncations {phi1.prec} and {phi2.prec} leave no usable window")
    out = {}
    _mul_into(out, a, b, _grade_limit(prec, 1), max_terms)
    cls = WEAK_JACOBI if phi1.form_class == phi2.form_class == WEAK_JACOBI else RAW
    # the kernel keeps no zero coefficient and no grade at or above the limit
    return JacobiSeries.__new__(JacobiSeries)._store(
        direct_sum(phi1.lattice, phi2.lattice), phi1.weight + phi2.weight, prec, out, 1, den,
        cls, packing)


DEFAULT_BUDGET = 10_000_000


def phi_n(n: int, prec, budget: int = DEFAULT_BUDGET) -> JacobiSeries:
    """n-fold direct product of phi04 with itself, a weight-0 weak Jacobi
    form on the lattice with Gram matrix diag(8, ..., 8)."""
    n = int(n)
    if n < 1:
        raise ValueError("the number of factors must be a positive integer")
    base = phi04(prec, max_terms=budget)
    acc = base
    for _ in range(n - 1):
        acc = direct_product(acc, base, max_terms=budget)
    if acc.term_count() > budget:
        raise ResourceLimit(f"series exceeded the {budget}-coefficient budget")
    return acc


# -- theta components and the decomposition ----------------------------------


def theta_component(lattice: EvenLattice, gamma, prec) -> JacobiSeries:
    """Coset theta series: one term q^Q(l) zeta^l for every l in gamma + Z^rank
    with Q(l) < prec."""
    gamma = lattice._dual(gamma)
    prec = Fraction(prec)
    den, offset = _as_integers(gamma)
    scale, points = lattice._points(offset, den, prec.numerator, prec.denominator)
    limit = _grade_limit(prec, scale)
    points = [(l, q) for l, q in points if q < limit]
    # the least q denominator, as the public constructor infers it
    g = gcd(scale, *(q for _, q in points))
    return JacobiSeries._of(lattice, Fraction(lattice.rank, 2), prec,
                            {(q // g, l): 1 for l, q in points}, scale // g, den, RAW)


def _exponent_den(det: int, keys, dens) -> int:
    """A common denominator of exponents with the denominators dens, on a
    form or principal part with the keys over det: lcm(2 d^2, *dens), d the
    least common denominator of the gammas. The exponents of f_gamma lie in
    -Q(gamma) + Z, in (1/(2 d^2))Z, so this is the eden that theta_decompose
    keeps for a series over its least label denominator d, and == compares
    the integers of such forms as they are. A PrincipalPart always takes
    it."""
    d = det // gcd(det, *chain.from_iterable(keys))
    return lcm(2 * d * d, *dens)


class VectorValuedForm:
    """Components f_gamma of the theta decomposition, one sparse q-series per
    coset of the discriminant group.

    terms maps integer keys det * gamma to {eden * e: c}, gamma a
    representative and e an exponent of f_gamma; eden is a common
    denominator, not always the least one. Every form the package builds
    keys by reduced representatives, which is how the coset-minima table
    keys them. No zero coefficient and no empty component is stored, so an
    absent coset has f_gamma = 0. Exponents of f_gamma lie in -Q(gamma) + Z,
    and f_gamma is known below precision(gamma) = prec - min Q on the coset.

    The constructor reads the Fraction map {gamma: {e: c}}, reduces each
    gamma mod 1, drops zero coefficients, then empty components, and raises
    NotInDualLattice for a gamma outside the dual lattice and ValueError for
    two gammas of one coset; components is that map, with gammas reduced, a
    read-only view with Fraction keys over terms. Its len is the number of
    nonzero components, and == between the components of two forms over
    one det compares their integer terms; component decodes one coset.
    Every other read of components decodes the terms to Fractions.
    """

    def __init__(self, lattice, weight, components, prec):
        index = {}
        kept = {lattice._coset_key(g): {index.setdefault(Fraction(e), len(index)): c
                                        for e, c in fg.items() if c}
                for g, fg in components.items()}
        if len(kept) != len(components):
            raise ValueError("two components of the form share a coset")
        self._build(lattice, Fraction(weight), Fraction(prec), list(index), kept)

    def _build(self, lattice, weight, prec, values, components):
        """The form of interned columns: components maps det * gamma to
        {i: c}, the coefficient c at the exponent values[i], and values holds
        the exponents of the terms. Zero coefficients, then empty
        components, are dropped, and the exponents are stored over eden,
        _exponent_den of the keys kept and of the denominators of values."""
        nonzero = {}  # each key hashed once
        for key, fg in components.items():
            if 0 in fg.values():
                fg = {i: c for i, c in fg.items() if c}
            if fg:
                nonzero[key] = fg
        eden = _exponent_den(lattice.det, nonzero, {x.denominator for x in values})
        exps = [_scaled(x, eden) for x in values]
        return self._store(lattice, weight, prec,
                           {key: dict(zip(map(exps.__getitem__, fg), fg.values()))
                            for key, fg in nonzero.items()}, eden)

    def _store(self, lattice, weight, prec, terms, eden):
        self.lattice, self.weight, self.prec, self.terms, self.eden = (
            lattice, weight, prec, terms, eden)
        return self

    @classmethod
    def _of(cls, lattice, weight: Fraction, prec: Fraction, terms, eden: int):
        """The form of integer terms with no zero coefficient and no empty
        component; it keeps the dict."""
        return cls.__new__(cls)._store(lattice, weight, prec, terms, eden)

    def _over(self, eden: int) -> dict:
        """The terms with exponents over eden, a multiple of the stored
        denominator; the stored dict itself when they are equal."""
        if eden == self.eden:
            return self.terms
        b = eden // self.eden
        return {g: {b * e: c for e, c in fg.items()} for g, fg in self.terms.items()}

    def _common(self, other: "VectorValuedForm") -> tuple[dict, dict] | None:
        """The terms of both forms over the lcm of their edens; None when
        their gammas lie over different dets."""
        if self.lattice.det != other.lattice.det:
            return None
        eden = lcm(self.eden, other.eden)
        return self._over(eden), other._over(eden)

    @cached_property
    def components(self) -> Mapping:
        """The terms as a read-only {gamma: {e: c}} map with Fraction keys.
        The view holds a second form on the same terms, which holds no view,
        so that the two make no reference cycle."""
        return _View(VectorValuedForm._of(self.lattice, self.weight, self.prec, self.terms,
                                          self.eden), len(self.terms))

    def _fractions(self) -> dict:
        coords = _Fractions(self.lattice.det).__getitem__
        exps = _Fractions(self.eden).__getitem__
        return {tuple(map(coords, g)): dict(zip(map(exps, fg), fg.values()))
                for g, fg in self.terms.items()}

    def component(self, gamma) -> dict[Fraction, int]:
        """f_gamma as {e: c} with Fraction exponents, built for this coset
        alone; NotInDualLattice for a gamma outside the dual lattice."""
        fg = self.terms.get(self.lattice._coset_key(gamma), {})
        return {Fraction(e, self.eden): c for e, c in fg.items()}

    def precision(self, gamma) -> Fraction:
        return self.prec - self.lattice.coset_minimum(gamma)

    def __repr__(self):
        return (f"VectorValuedForm(weight={self.weight}, prec={self.prec}, "
                f"components={self.lattice.det}, nonzero={len(self.terms)})")

    def __eq__(self, other):
        if not isinstance(other, VectorValuedForm):
            return NotImplemented
        if (self.lattice, self.weight, self.prec) != (other.lattice, other.weight, other.prec):
            return False
        mine, theirs = self._common(other)
        return mine == theirs

    __hash__ = None


def theta_decompose(phi: JacobiSeries) -> VectorValuedForm:
    """Split a weight-0 weak Jacobi form as sum f_gamma * Theta_gamma.

    The coefficient of f_gamma at exponent e is c(e + Q(l), l) for any l in
    the coset; the function checks that every stored witness of a class
    agrees and that no witness inside the window is silently missing, and
    raises ShiftInvarianceViolated otherwise. Component gamma is determined
    for exponents below prec - min Q on its coset.

    It runs on integers over the label denominator den of phi: a class is
    (den * gamma, eden * e) with eden = 2 den^2, its witnesses are counted by
    one integer search per coset for the norms eden * Q(l) of its
    translates, and the form keeps the classes as its terms, gamma rescaled
    from den to det. Fractions are built only for messages.
    """
    if phi.form_class != WEAK_JACOBI:
        raise FormClassError("theta decomposition expects a weak_jacobi series")
    if phi.weight != 0:
        raise FormClassError(f"theta decomposition expects weight 0, got {phi.weight}")
    if phi.q_den != 1:
        raise FormClassError("theta decomposition expects integer q-exponents")
    lat, den, prec = phi.lattice, phi.den, phi.prec
    # classes on integers: the label l = vec / den reduces to vec % den, and
    # the exponent n - Q(l) is (2 den^2 n - vec^T gram vec) / eden
    eden = 2 * den * den
    labels, exps = _Fractions(den).__getitem__, _Fractions(eden)
    groups: dict[tuple[tuple[int, ...], int], tuple[int, int]] = {}
    # q_den is 1, so the grade n is the q-exponent
    for (n, vec), c in phi.terms.items():
        pairings = [sum(map(mul, row, vec)) for row in lat.gram]
        if any(x % den for x in pairings):
            raise NotInDualLattice(
                f"label {vector_str(map(labels, vec))} is not in the dual lattice")
        key = (tuple([x % den for x in vec]), eden * n - sum(map(mul, vec, pairings)))
        value, count = groups.get(key, (c, 0))
        if value != c:
            raise ShiftInvarianceViolated(
                f"coefficients at class gamma={vector_str(map(labels, key[0]))}, "
                f"exponent {exps[key[1]]} disagree: {value} vs {c}")
        groups[key] = (c, count + 1)
    classes: dict[tuple[int, ...], list[tuple[int, int, int]]] = {}
    for (cls, e), (value, count) in groups.items():
        classes.setdefault(cls, []).append((e, value, count))
    if lat.det > DEFAULT_BUDGET:
        raise ResourceLimit(f"determinant {lat.det} exceeds the {DEFAULT_BUDGET}-coset budget")
    # a translate l = y / den of a class lies in the window e + Q(l) < prec
    # exactly when eden * Q(l) = y^T gram y is below ceil(eden * prec) - e
    cap = -(-eden * prec.numerator // prec.denominator)
    for cls, entries in classes.items():
        e_min, _, count_min = min(entries)
        # Q is constant mod 1 on a coset of an even lattice, so the translates
        # with Q < prec - e_min are those with Q <= bound, here over eden
        q0 = lat._pair(cls, cls)
        top = prec.numerator * eden - (e_min + q0) * prec.denominator
        bound = q0 + eden * (-(-top // (eden * prec.denominator)) - 1)
        # the search stops once it proves class (gamma, e_min) short of
        # witnesses, so a prec far beyond the stored terms cannot run it long
        scale, points = lat._points(cls, den, bound, eden, limit=count_min)
        # scale * Q(l) is k * y^T gram y for an integer k
        k = scale // eden
        norms = sorted([q // k for _, q in points])
        if len(norms) > count_min:
            raise ShiftInvarianceViolated(
                f"class gamma={vector_str(map(labels, cls))}, exponent {exps[e_min]} has "
                f"{count_min} stored witnesses but more than {count_min} lattice "
                f"translates in the window")
        for e, value, count in entries:
            expected = bisect_left(norms, cap - e)
            if expected != count:
                raise ShiftInvarianceViolated(
                    f"class gamma={vector_str(map(labels, cls))}, exponent {exps[e]} has "
                    f"{count} stored witnesses but {expected} lattice translates in the "
                    f"window")
    # every label is dual, so det * gamma = det * cls / den is an integer; den
    # need not divide det, as it need not be the least label denominator
    det = lat.det
    terms = {tuple([x * det // den for x in cls]): {e: value for e, value, _ in entries}
             for cls, entries in classes.items()}
    return VectorValuedForm._of(lat, Fraction(-lat.rank, 2), prec, terms, eden)


def recompose(form: VectorValuedForm, prec) -> JacobiSeries:
    """Expand sum f_gamma * Theta_gamma back into a Jacobi series.

    The output window is capped at form.prec: f_gamma * Theta_gamma is known
    below precision(gamma) + min Q on the coset, which is form.prec. Each
    term below the window goes straight into the output map, which is
    sorted once into file order.
    """
    lat = form.lattice
    out_prec = min(Fraction(prec), form.prec)
    det, eden = lat.det, form.eden
    # Theta_gamma needs the vectors with Q <= out_prec - e_min on the coset,
    # that is Q <= (top - e_min * out_prec.denominator) / over
    top, over = out_prec.numerator * eden, out_prec.denominator * eden
    # (f_gamma, den, scale, points): Theta_gamma as integer pairs
    # (den * l, scale * Q(l)), den the least denominator of gamma
    blocks = []
    for key, fg in form.terms.items():
        d = det // gcd(det, *key)
        scale, points = lat._points([x * d // det for x in key], d,
                                    top - min(fg) * out_prec.denominator, over)
        blocks.append((fg, d, scale, points))
    q_den = lcm(eden, *{scale for _, _, scale, _ in blocks})
    den = lcm(*{d for _, d, _, points in blocks if points})
    limit, es = _grade_limit(out_prec, q_den), q_den // eden
    # no two terms fall on one monomial: the labels of two cosets differ, and
    # a label l takes the exponent e + Q(l) once for each e of f_gamma
    out = {}
    for fg, d, scale, points in blocks:
        qs, ls = q_den // scale, den // d
        exps = [(e * es, c) for e, c in fg.items()]
        for y, q in points:
            vec, t = tuple([ls * x for x in y]), q * qs
            for e, c in exps:
                if e + t < limit:
                    out[e + t, vec] = c
    out = dict(sorted(out.items()))  # file order
    # the least q denominator of the result, as the public constructor infers it
    g = gcd(q_den, *(t for t, _ in out))
    weight = form.weight + Fraction(lat.rank, 2)
    cls = WEAK_JACOBI if g == q_den and weight.denominator == 1 else RAW
    terms = {(t // g, vec): c for (t, vec), c in out.items()}
    return JacobiSeries._of(lat, weight, out_prec, terms, q_den // g, den, cls)
