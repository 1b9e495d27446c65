"""Canonical JSON serialization for every file format the tools exchange.

Parsing is lenient about the order of list entries; emission is canonical:
terms are sorted, rationals are written as "p/q" in lowest terms with q > 0
(just "p" when the denominator is 1), and coefficients that may exceed 53
bits are written as strings. emit(parse(x)) is byte-identical for canonical
inputs, which the golden tests rely on.

The layout is exactly that of json.dumps(doc, indent=2, ensure_ascii=True)
followed by a newline: one item per line, indented by two spaces per level,
": " after keys, [] and {} for empty containers, non-ASCII escaped as
\\uXXXX. canonical_dumps writes those bytes with a recursive emitter over
the json module's C string escaper, because json.dumps with an indent runs
the pure-Python encoder. The test suite compares the two on random documents
and on the golden corpus.

Most of every document is a list of rows, dicts with the same keys in the
same order: the terms of a series or an expansion, the components of a
vvform. The emitter writes such a list column by column (_rows): the text
between two cells is the same in every row, so the list is one join of
those pieces interleaved with the columns, each written by one C-level map.
A column of str is left as it is when one escaper call on the whole column
shows that nothing needs escaping, and quoted by the escaper otherwise; a
column of non-empty lists of str that needs no escaping is one join per
cell; any other column goes through the recursive emitter cell by cell.
Any other list, and any TypeError, falls back to the recursive path, which
stays the one source of the output and of the first error in document
order.

Emission sorts integer keys: each q-exponent, label, gamma or exponent is
scaled by a positive common denominator, which keeps the order of the
Fractions, and each distinct rational string is built once per document.
Series and expansions store their terms on such keys already, over den, and
the product kernel leaves them in file order, so that sort is one linear
pass; the rows are then built by maps over the sorted keys. A direct product
whose terms were never decoded is written from the digits of its packed int
keys instead.
Parsing turns each distinct rational string of a document into a Fraction
once and hashes each key once. The series parser goes further: each distinct
value gets a small int, every term is keyed by the ints of its rationals,
and only the terms kept are scaled to the integer keys of the series.
Neither changes the format: the bytes emitted and the messages raised are
those of the Fraction-keyed code they replace.

A vvform file lists every coset, so both of its routes run on the integer
coset-minima table of EvenLattice.coset_minima(), keyed by det * gamma, and
build no Fraction from it. The emitter walks the table in order and writes
terms only for the nonzero components. The parser scales each gamma by
det, a common denominator of every dual vector (a coordinate whose
denominator does not divide det is not dual), and reduces it mod det; the
table's keys are exactly the reduced dual cosets. A list of exactly det
entries is read by columns first (_columns): each check is one C-level pass
over a column, each distinct gamma entry is parsed once, one map of table
lookups tests every key and gives its minimum, one set finds duplicates,
and only the entries with terms are read one by one. That reader never
raises, and it reads every valid list of JSON values. On any other list the
entry loop (_entries) reads the list again, and it alone reports errors,
the first in document order. It tests each key by gram * key = 0 mod det
and lists the table only after it has found det distinct cosets, so a
short list is refused without listing it. Both check the precisions once
per distinct (prec, minimum) pair and build Fraction keys only for the
nonzero components returned.

Formats:
  lattice     {"gram": [[int, ...], ...]}
  series      {"gram": ..., "weight": "k/2", "q_den": D, "prec": "p/q",
               "form_class": "raw" | "weak_jacobi",
               "terms": [{"n": "a/b", "l": ["p/q", ...], "c": "int"}, ...]}
              terms sorted by (n, lex l)
  vvform      {"gram": ..., "weight": "k/2", "components": [
               {"gamma": [...], "prec": "p/q",
                "terms": [{"e": "a/b", "c": "int"}, ...]}, ...]}
              every coset once, sorted by lex gamma, terms by e; prec is
              P - min Q(gamma) for one P, and other documents are rejected
  principal   {"gram": ..., "constant_term": int, "terms": [
               {"gamma": [...], "exp": "-a/b", "c": int}, ...]}
              terms sorted by (exp, lex gamma)
  expansion   {"gram": ..., "weight": "k/2", "holomorphic": "unknown",
               "total_prec": "p/q", "weyl": {"A": ..., "B": [...], "C": ...,
               "w0": [...]}, "terms": [{"n": "a", "l": [...], "m": "b",
               "c": "int"}, ...]}  sorted by (n, m, lex l), with
              integers n, m >= 0 and n + m < total_prec
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _quote
from math import lcm
from operator import is_, itemgetter, mul, sub

from .errors import ResourceLimit, SchemaViolation
from .lattice import EvenLattice, Vector, _Fractions, frac_str
from .lift import OrthogonalExpansion, PrincipalPart, WeylData
from .series import (
    DEFAULT_BUDGET,
    RAW,
    WEAK_JACOBI,
    JacobiSeries,
    VectorValuedForm,
    _checked_q_den,
    _checked_weight,
    _scaled,
)


# -- scalars -------------------------------------------------------------------


def parse_frac(value, path) -> Fraction:
    if isinstance(value, bool):
        raise SchemaViolation(f"{path}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise SchemaViolation(f"{path}: {value!r} is not a rational p/q") from None
    raise SchemaViolation(f"{path}: expected a rational string, got {type(value).__name__}")


def parse_int(value, path) -> int:
    if isinstance(value, bool):
        raise SchemaViolation(f"{path}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            raise SchemaViolation(f"{path}: {value!r} is not an integer") from None
    raise SchemaViolation(f"{path}: expected an integer, got {type(value).__name__}")


def _expect_object(value, path, required, optional=()):
    if not isinstance(value, dict):
        raise SchemaViolation(f"{path}: expected an object, got {type(value).__name__}")
    for key in required:
        if key not in value:
            raise SchemaViolation(f"{path}.{key}: missing required field")
    for key in value:
        if key not in required and key not in optional:
            raise SchemaViolation(f"{path}.{key}: unknown field")
    return value


def _expect_list(value, path):
    if not isinstance(value, list):
        raise SchemaViolation(f"{path}: expected a list, got {type(value).__name__}")
    return value


class _Rationals(dict):
    """parse_frac over one document, each distinct rational string parsed
    once. Values that are not strings go to parse_frac every time, so the
    results and the messages are those of parse_frac."""

    def frac(self, value, path) -> Fraction:
        if type(value) is str:
            x = self.get(value)
            if x is None:
                x = self[value] = parse_frac(value, path)
            return x
        return parse_frac(value, path)

    def vector(self, value, path) -> Vector:
        if type(value) is list:
            try:
                return tuple([self[x] for x in value])
            except (KeyError, TypeError):
                pass  # a string not seen yet, or not a string
        return tuple(self.frac(x, f"{path}[{i}]")
                     for i, x in enumerate(_expect_list(value, path)))


def _parse_lattice_vector(value, path, lattice: EvenLattice, fracs: _Rationals) -> Vector:
    """A vector with one entry per basis vector of lattice."""
    return _of_rank(fracs.vector(value, path), path, lattice.rank)


def _of_rank(vec: tuple, path, rank: int) -> tuple:
    if len(vec) != rank:
        raise SchemaViolation(f"{path}: vector has length {len(vec)}, lattice rank is {rank}")
    return vec


class _Interned(dict):
    """The rationals of one document as small ints: each distinct value gets
    the next index into values, and each distinct string is parsed once and
    maps to the index of its value, so two spellings of one rational get one
    index. Values that are not strings go to parse_frac every time, so the
    messages are those of parse_frac."""

    def __init__(self):
        super().__init__()
        self.values: list[Fraction] = []
        self.index: dict[Fraction, int] = {}

    def of(self, value, path) -> int:
        if type(value) is str:
            i = self.get(value)
            if i is not None:
                return i
        x = parse_frac(value, path)
        i = self.index.get(x)
        if i is None:
            i = self.index[x] = len(self.values)
            self.values.append(x)
        if type(value) is str:
            self[value] = i
        return i

    def vector(self, value, path, rank: int) -> tuple[int, ...]:
        """The indices of a vector with rank entries."""
        if type(value) is list:
            try:
                return _of_rank(tuple([self[x] for x in value]), path, rank)
            except (KeyError, TypeError):
                pass  # a string not seen yet, or not a string
        return _of_rank(tuple([self.of(x, f"{path}[{i}]")
                               for i, x in enumerate(_expect_list(value, path))]), path, rank)


def _add_term(table, key, raw, path) -> bool:
    """Store parse_int(raw, path) under key, hashing key once; False when key
    was already there. A duplicate key is reported before a malformed raw,
    as a lookup ahead of the parse would report it."""
    size = len(table)
    try:
        table[key] = parse_int(raw, path)
    except SchemaViolation:
        if key in table:
            return False
        raise
    return len(table) > size


def emit_vector(vec) -> list[str]:
    return [frac_str(x) for x in vec]


class _Strings(_Fractions):
    """frac_str(Fraction(k - low, den)) for integers k, each built once."""

    def __init__(self, den: int, low: int = 0):
        super().__init__(den)
        self.low = low

    def __missing__(self, k):
        value = self[k] = frac_str(Fraction(k - self.low, self.den))
        return value


def _coordinates(vectors, rank: int) -> list:
    """The columns of the vectors' coordinates; vectors is read once per
    coordinate."""
    return [map(itemgetter(i), vectors) for i in range(rank)]


def _lists(strings: _Strings, columns: list):
    """The integer vectors given by their coordinate columns as lists of
    their entries' strings. Each list is built from a tuple, so list() sizes
    it by its length; from a map, which has none, it would keep room for 8
    entries."""
    return map(list, zip(*[map(strings.__getitem__, column) for column in columns]))


def _den(values) -> int:
    """Least common denominator of the given Fractions."""
    return lcm(*{x.denominator for x in values})


def _scaled_vector(vec, den: int) -> tuple[int, ...]:
    return tuple([_scaled(x, den) for x in vec])


def canonical_dumps(doc) -> str:
    """doc as json.dumps(doc, indent=2, ensure_ascii=True) + "\\n" writes it.

    doc is built from dicts with str keys, lists, str, int, True, False and
    None. Any other value type, a tuple or a float included, raises
    TypeError naming it; a key that is not a str raises the TypeError of the
    json module's string escaper."""
    return _dumps(doc, "\n") + "\n"


def _dumps(value, indent: str) -> str:
    """value as JSON text; indent is the newline and indent of its line.

    The str values of a dict, and a list of str, skip the recursive call:
    they make up most of every document. Each list of items is a temporary
    of its join, so the text of a large container is held at most twice."""
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = indent + "  "
        body = ("," + inner).join([
            f"{_quote(k)}: {_quote(x) if type(x) is str else _dumps(x, inner)}"
            for k, x in value.items()])
        return f"{{{inner}{body}{indent}}}"
    if kind is list:
        if not value:
            return "[]"
        inner = indent + "  "
        sep = "," + inner
        if type(value[0]) is dict:
            text = _rows(value, indent)
            if text is not None:
                return text
        else:
            try:
                return f"[{inner}{sep.join(map(_quote, value))}{indent}]"
            except TypeError:  # an item is not a str
                pass
        body = sep.join([_dumps(x, inner) for x in value])
        return f"[{inner}{body}{indent}]"
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    raise TypeError(f"canonical_dumps: cannot encode {kind.__name__}")


def _rows(rows: list, indent: str):
    """A list of dicts that all have the keys of the first in its order, as
    _dumps writes it at indent; None for any other list, and on any
    TypeError, so that the recursive path writes the list or reports its
    first error in document order.

    The rows are written column by column: the text between two cells is the
    same in every row, so the whole list is one join of those constant
    pieces interleaved with the columns that _column writes."""
    keys = tuple(rows[0])
    if not keys or not (_of_type(dict, rows) and all(map(keys.__eq__, map(tuple, rows)))):
        return None
    inner, field = indent + "  ", indent + "    "
    heads, columns, text = [], [], f",{inner}{{"
    try:
        for key in keys:
            before, column, after = _column(list(map(itemgetter(key), rows)), field)
            heads.append(f"{text}{field}{_quote(key)}: {before}")
            columns.append(column)
            text = after + ","
    except TypeError:
        return None
    heads.append(f"{after}{inner}}}")
    # every row opens with a separator, the first with the bracket instead
    streams = [chain([f"[{heads[0][1:]}"], repeat(heads[0]))]
    for column, head in zip(columns, heads[1:]):
        streams += [column, repeat(head)]
    return "".join(chain(chain.from_iterable(zip(*streams)), [f"{indent}]"]))


def _column(cells: list, indent: str):
    """(before, texts, after): the values of one dict key across the rows,
    each written as _dumps writes it at indent and then put between before
    and after. One escaper call on the whole column shows whether it has a
    character to escape. A column of str without one is its cells as they
    are, with the quotes in before and after, and with one it is one map of
    the escaper; a column of non-empty lists of str without one is one join
    per cell. In any other column of lists, such as the terms of a vvform's
    components, the empty cells are "[]" and only the others go through
    _dumps; any other column goes through _dumps cell by cell."""
    kinds = set(map(type, cells))
    if kinds == {str}:
        if _plain("".join(cells)):
            return '"', cells, '"'
        return "", list(map(_quote, cells)), ""
    if kinds == {list}:
        if all(cells):
            inner = indent + "  "
            try:
                if _plain("".join(map("".join, cells))):
                    return f'[{inner}"', list(map(f'",{inner}"'.join, cells)), f'"{indent}]'
            except TypeError:  # an item of a cell is not a str
                pass
        else:
            return "", [_dumps(cell, indent) if cell else "[]" for cell in cells], ""
    return "", list(map(_dumps, cells, repeat(indent))), ""


def _of_type(kind: type, values) -> bool:
    """Whether the type of every value is kind itself."""
    return all(map(is_, map(type, values), repeat(kind)))


def _plain(text: str) -> bool:
    """Whether the string escaper writes every character of text as it is.
    It escapes character by character, so this holds for a concatenation
    exactly when it holds for each of its parts."""
    return len(_quote(text)) == len(text) + 2


# -- lattices -------------------------------------------------------------------


def parse_lattice(doc, path="$") -> EvenLattice:
    _expect_object(doc, path, required=("gram",))
    gram = _expect_list(doc["gram"], f"{path}.gram")
    rows = []
    for i, row in enumerate(gram):
        rows.append([parse_int(x, f"{path}.gram[{i}][{j}]")
                     for j, x in enumerate(_expect_list(row, f"{path}.gram[{i}]"))])
    return EvenLattice(rows)


def emit_lattice(lattice: EvenLattice) -> dict:
    return {"gram": [list(row) for row in lattice.gram]}


# -- Jacobi series -----------------------------------------------------------------


_SERIES_TERM = {"n", "l", "c"}


def parse_series(doc, path="$") -> JacobiSeries:
    """The series of a document, read on integers: each term is keyed by the
    value-interned indices of its rationals, which also finds duplicates
    however they are spelled, and only the terms below prec with nonzero
    coefficients are scaled to the (n * q_den, l * den) keys of the series.
    The messages, and their order, are those of the Fraction-keyed parse
    through the JacobiSeries constructor."""
    _expect_object(doc, path, required=("gram", "weight", "q_den", "prec",
                                        "form_class", "terms"))
    lattice = parse_lattice({"gram": doc["gram"]}, path)
    rank = lattice.rank
    weight = parse_frac(doc["weight"], f"{path}.weight")
    q_den = parse_int(doc["q_den"], f"{path}.q_den")
    prec = parse_frac(doc["prec"], f"{path}.prec")
    form_class = doc["form_class"]
    if form_class not in (RAW, WEAK_JACOBI):
        raise SchemaViolation(f"{path}.form_class: {form_class!r} is not a form class")
    ids = _Interned()
    values = ids.values
    terms = {}  # (index of n, indices of l) -> c
    for i, term in enumerate(_expect_list(doc["terms"], f"{path}.terms")):
        tpath = f"{path}.terms[{i}]"
        if type(term) is not dict or term.keys() != _SERIES_TERM:
            _expect_object(term, tpath, required=("n", "l", "c"))
        key = (ids.of(term["n"], f"{tpath}.n"), ids.vector(term["l"], f"{tpath}.l", rank))
        if not _add_term(terms, key, term["c"], f"{tpath}.c"):
            raise SchemaViolation(f"{tpath}: duplicate term at n={frac_str(values[key[0]])}")
    below = [x < prec for x in values]
    kept = [(key, c) for key, c in terms.items() if c and below[key[0]]]
    exps = {n for (n, _), _ in kept}
    coords = {x for (_, l), _ in kept for x in l}
    try:
        weight = _checked_weight(weight)
        q_den = _checked_q_den(q_den, {values[n].denominator for n in exps})
    except ValueError as exc:
        raise SchemaViolation(f"{path}: {exc}") from None
    den = lcm(*{values[x].denominator for x in coords})
    grade = {n: _scaled(values[n], q_den) for n in exps}
    coord = {x: _scaled(values[x], den) for x in coords}
    return JacobiSeries._of(lattice, weight, prec,
                            {(grade[n], tuple(map(coord.__getitem__, l))): c
                             for (n, l), c in kept}, q_den, den, form_class)


def emit_series(series: JacobiSeries) -> dict:
    """The document of a series. Its columns come from the tuple keys of its
    terms, or from the digits of the sorted packed keys of a series whose
    terms were never decoded."""
    terms, low = series._terms, 0
    if terms is not None:
        keys = sorted(terms)  # linear in the kernel's order
        grades = map(itemgetter(0), keys)
        coords = _coordinates(list(map(itemgetter(1), keys)), series.lattice.rank)
    else:
        terms = series._packed
        keys = sorted(terms)
        # unsigned digits are vec_i + low
        grades, *coords = series._packing.digits(keys, signed=False)
        low = series._packing.half
    ns = map(_Strings(series.q_den).__getitem__, grades)
    ls = _lists(_Strings(series.den, low), coords)
    cs = map(str, map(terms.__getitem__, keys))
    return {
        **emit_lattice(series.lattice),
        "weight": frac_str(series.weight),
        "q_den": series.q_den,
        "prec": frac_str(series.prec),
        "form_class": series.form_class,
        "terms": [{"n": n, "l": l, "c": c} for n, l, c in zip(ns, ls, cs)],
    }


# -- vector-valued forms --------------------------------------------------------------


def _reduced(x: Fraction, den: int):
    """den * x reduced mod den, or None when den is no multiple of the
    denominator of x."""
    return None if den % x.denominator else x.numerator * (den // x.denominator) % den


_COMPONENT = {"gamma", "prec", "terms"}
_RATIONAL = {str, int}  # the types parse_frac reads; a bool is neither


def parse_vvform(doc, path="$") -> VectorValuedForm:
    """The form of a document. A well-formed component list is read by
    columns (_columns); any other goes through the entry loop (_entries),
    which is the one source of every message and of which error comes
    first. Both return {det * gamma reduced: its terms} for the entries with
    terms, and P."""
    _expect_object(doc, path, required=("gram", "weight", "components"))
    lattice = parse_lattice({"gram": doc["gram"]}, path)
    fracs = _Rationals()
    weight = fracs.frac(doc["weight"], f"{path}.weight")
    entries = _expect_list(doc["components"], f"{path}.components")
    components, prec = (_columns(entries, lattice, fracs)
                        or _entries(entries, path, lattice, fracs))
    coord = _Fractions(lattice.det).__getitem__
    nonzero = {}  # each key hashed once: fg keeps its dict unless a coefficient is zero
    for key, fg in components.items():
        if 0 in fg.values():
            fg = {e: c for e, c in fg.items() if c}
        if fg:
            nonzero[tuple(map(coord, key))] = fg
    return VectorValuedForm._of(lattice, weight, nonzero, prec)


def _columns(entries: list, lattice: EvenLattice, fracs: _Rationals):
    """What _entries returns for a well-formed list of exactly det
    components, or None for any other list, whose message _entries gives.
    It never raises: each check is a C-level pass over one column, each
    distinct gamma entry is parsed once, and only the entries with terms are
    read one by one, a SchemaViolation of _terms meaning None. It reads every
    list of JSON values that _entries accepts, so that for a document read
    from a file the loop runs only to report an error."""
    det, rank = lattice.det, lattice.rank
    if len(entries) != det or not _of_type(dict, entries) or set(map(len, entries)) != {3}:
        return None
    try:
        gammas, raws, terms = [list(map(itemgetter(key), entries))
                               for key in ("gamma", "prec", "terms")]
    except KeyError:
        return None
    if not (_of_type(list, gammas) and set(map(len, gammas)) == {rank}
            and set(map(type, raws)) <= _RATIONAL and _of_type(list, terms)):
        return None
    try:
        values = set(chain.from_iterable(gammas))
    except TypeError:  # an entry of a gamma is not hashable
        return None
    if not set(map(type, values)) <= _RATIONAL:
        return None
    try:  # Fraction raises on a string that is not a rational, _terms on a bad term
        scaled = {x: _reduced(Fraction(x), det) for x in values}
        keys = list(zip(*[map(scaled.__getitem__, chain.from_iterable(gammas))] * rank))
        minima = lattice.coset_minima()  # one lookup tests a key and gives its minimum
        qs = list(map(minima.table.get, keys))
        if None in qs or len(set(keys)) != det:
            return None
        tops = {Fraction(raw) + Fraction(q, minima.qden) for raw, q in set(zip(raws, qs))}
        if len(tops) != 1:
            return None
        # the path names no entry: a message built here is never shown
        components = {key: _terms(fg, "", fracs) for key, fg in compress(zip(keys, terms), terms)}
    except (ValueError, ZeroDivisionError, SchemaViolation):
        return None
    return components, tops.pop()


def _entries(entries: list, path, lattice: EvenLattice, fracs: _Rationals):
    """The components with terms, and P, of a component list read one entry
    at a time; the first error in document order raises its SchemaViolation.
    A key is dual when gram * key = 0 mod det, and the coset table is listed
    only for a list of det distinct cosets, which a short list cannot be."""
    det, gram = lattice.det, lattice.gram
    seen = set()
    components = {}  # det * gamma reduced -> its terms, for the entries with terms
    precisions = {}  # raw prec -> its Fraction
    pairs = []  # (raw prec, key)
    for i, comp in enumerate(entries):
        cpath = f"{path}.components[{i}]"
        if type(comp) is not dict or comp.keys() != _COMPONENT:
            _expect_object(comp, cpath, required=("gamma", "prec", "terms"))
        gamma = _parse_lattice_vector(comp["gamma"], f"{cpath}.gamma", lattice, fracs)
        key = tuple([_reduced(x, det) for x in gamma])
        if None in key or any(sum(map(mul, row, key)) % det for row in gram):
            raise SchemaViolation(f"{cpath}.gamma: not in the dual lattice")
        size = len(seen)
        seen.add(key)
        if len(seen) == size:
            raise SchemaViolation(f"{cpath}.gamma: duplicate component")
        terms = comp["terms"]
        if type(terms) is not list or terms:
            components[key] = _terms(terms, cpath, fracs)
        raw = comp["prec"]
        precisions[raw] = fracs.frac(raw, f"{cpath}.prec")
        pairs.append((raw, key))
    if len(seen) != det:
        raise SchemaViolation(f"{path}.components: has {len(seen)} of {det} cosets")
    minima = lattice.coset_minima()
    tops = {precisions[raw] + Fraction(q, minima.qden)
            for raw, q in {(raw, minima.table[key]) for raw, key in pairs}}
    if len(tops) != 1:
        raise SchemaViolation(f"{path}.components: the precisions are not P - min Q(gamma)")
    return components, tops.pop()


def _terms(terms, path, fracs: _Rationals) -> dict:
    """The {e: c} of the terms of the component at path."""
    fg = {}
    for j, term in enumerate(_expect_list(terms, f"{path}.terms")):
        tpath = f"{path}.terms[{j}]"
        _expect_object(term, tpath, required=("e", "c"))
        e = fracs.frac(term["e"], f"{tpath}.e")
        if not _add_term(fg, e, term["c"], f"{tpath}.c"):
            raise SchemaViolation(f"{tpath}: duplicate exponent {frac_str(e)}")
    return fg


def emit_vvform(form: VectorValuedForm) -> dict:
    if form.lattice.det > DEFAULT_BUDGET:
        raise ResourceLimit(
            f"determinant {form.lattice.det} exceeds the {DEFAULT_BUDGET}-coset budget")
    minima = form.lattice.coset_minima()  # keys in canonical order
    gden, table = minima.gden, minima.table
    scaled = {}
    for gamma, fg in form.components.items():
        key = None if any(gden % x.denominator for x in gamma) else _scaled_vector(gamma, gden)
        if key not in table:
            raise ValueError("a component key is not a reduced coset representative")
        scaled[key] = fg
    eden = lcm(form.prec.denominator, minima.qden,
               _den(e for fg in form.components.values() for e in fg))
    exps = _Strings(eden)
    top, qs = _scaled(form.prec, eden), eden // minima.qden
    gammas = _lists(_Strings(gden), _coordinates(table, form.lattice.rank))
    precs = map(exps.__getitem__, map(sub, repeat(top), map(mul, table.values(), repeat(qs))))
    terms = [[{"e": exps[e], "c": str(c)}
              for e, c in sorted([(_scaled(e, eden), c) for e, c in fg.items()])] if fg else []
             for fg in map(scaled.get, table)]
    return {
        **emit_lattice(form.lattice),
        "weight": frac_str(form.weight),
        "components": [{"gamma": g, "prec": p, "terms": t}
                       for g, p, t in zip(gammas, precs, terms)],
    }


# -- principal parts --------------------------------------------------------------------


def parse_principal_part(doc, path="$") -> PrincipalPart:
    _expect_object(doc, path, required=("gram", "constant_term", "terms"))
    lattice = parse_lattice({"gram": doc["gram"]}, path)
    constant = parse_int(doc["constant_term"], f"{path}.constant_term")
    fracs = _Rationals()
    terms = {}
    for i, term in enumerate(_expect_list(doc["terms"], f"{path}.terms")):
        tpath = f"{path}.terms[{i}]"
        _expect_object(term, tpath, required=("gamma", "exp", "c"))
        gamma = _parse_lattice_vector(term["gamma"], f"{tpath}.gamma", lattice, fracs)
        if not lattice.is_dual_vector(gamma):
            raise SchemaViolation(f"{tpath}.gamma: not in the dual lattice")
        gamma = lattice.reduce_mod1(gamma)
        e = fracs.frac(term["exp"], f"{tpath}.exp")
        if e >= 0:
            raise SchemaViolation(f"{tpath}.exp: {frac_str(e)} is not negative")
        if not _add_term(terms, (gamma, e), term["c"], f"{tpath}.c"):
            raise SchemaViolation(f"{tpath}: duplicate term for this coset and exponent")
    return PrincipalPart(lattice, constant, terms)


def emit_principal_part(pp: PrincipalPart) -> dict:
    gden = _den(x for gamma, _ in pp.terms for x in gamma)
    eden = _den(e for _, e in pp.terms)
    coords, exps = _Strings(gden), _Strings(eden)
    ordered = sorted(((_scaled(e, eden), _scaled_vector(gamma, gden)), c)
                     for (gamma, e), c in pp.terms.items())
    return {
        **emit_lattice(pp.lattice),
        "constant_term": pp.constant_term,
        "terms": [{"gamma": [coords[x] for x in key], "exp": exps[e], "c": c}
                  for (e, key), c in ordered],
    }


# -- expansions -----------------------------------------------------------------------------


def emit_weyl(weyl: WeylData) -> dict:
    return {
        "A": frac_str(weyl.a),
        "B": emit_vector(weyl.b),
        "C": frac_str(weyl.c),
        "w0": emit_vector(weyl.chamber_vector),
    }


def parse_weyl(doc, path, lattice: EvenLattice) -> WeylData:
    _expect_object(doc, path, required=("A", "B", "C", "w0"))
    return WeylData(
        a=parse_frac(doc["A"], f"{path}.A"),
        b=_parse_lattice_vector(doc["B"], f"{path}.B", lattice, _Rationals()),
        c=parse_frac(doc["C"], f"{path}.C"),
        chamber_vector=_parse_lattice_vector(doc["w0"], f"{path}.w0", lattice, _Rationals()),
    )


def parse_expansion(doc, path="$") -> OrthogonalExpansion:
    _expect_object(doc, path, required=("gram", "weight", "holomorphic",
                                        "total_prec", "weyl", "terms"))
    lattice = parse_lattice({"gram": doc["gram"]}, path)
    fracs = _Rationals()
    weight = fracs.frac(doc["weight"], f"{path}.weight")
    total_prec = fracs.frac(doc["total_prec"], f"{path}.total_prec")
    weyl = parse_weyl(doc["weyl"], f"{path}.weyl", lattice)
    if not isinstance(doc["holomorphic"], str):
        raise SchemaViolation(f"{path}.holomorphic: {doc['holomorphic']!r} is not a string")
    coeffs = {}
    for i, term in enumerate(_expect_list(doc["terms"], f"{path}.terms")):
        tpath = f"{path}.terms[{i}]"
        _expect_object(term, tpath, required=("n", "l", "m", "c"))
        n = parse_int(term["n"], f"{tpath}.n")
        m = parse_int(term["m"], f"{tpath}.m")
        if min(n, m) < 0 or n + m >= total_prec:
            raise SchemaViolation(f"{tpath}: monomial n={n}, m={m} is not in n, m >= 0, "
                                  f"n + m < {frac_str(total_prec)}")
        l = _parse_lattice_vector(term["l"], f"{tpath}.l", lattice, fracs)
        if not _add_term(coeffs, (n, l, m), term["c"], f"{tpath}.c"):
            raise SchemaViolation(f"{tpath}: duplicate monomial")
    return OrthogonalExpansion(lattice, weyl, weight, coeffs, total_prec,
                               holomorphic=doc["holomorphic"])


def emit_expansion(exp: OrthogonalExpansion) -> dict:
    terms = exp.terms
    keys = sorted(terms)  # linear in the order the lift leaves them
    ns = map(str, map(itemgetter(0), keys))
    ms = map(str, map(itemgetter(1), keys))
    ls = _lists(_Strings(exp.den), _coordinates(list(map(itemgetter(2), keys)),
                                                exp.lattice.rank))
    cs = map(str, map(terms.__getitem__, keys))
    return {
        **emit_lattice(exp.lattice),
        "weight": frac_str(exp.weight),
        "holomorphic": exp.holomorphic,
        "total_prec": frac_str(exp.total_prec),
        "weyl": emit_weyl(exp.weyl),
        "terms": [{"n": n, "l": l, "m": m, "c": c} for n, l, m, c in zip(ns, ls, ms, cs)],
    }


# -- file helpers -------------------------------------------------------------------------------


def read_json(handle, name):
    """The JSON document in an open binary file, decoded as strict UTF-8
    whatever the locale; name is its path or "stdin"."""
    try:
        return json.loads(handle.read().decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"{name}: not valid JSON ({exc})") from None
    except UnicodeDecodeError as exc:
        raise SchemaViolation(f"{name}: not valid UTF-8 ({exc})") from None
    except RecursionError:
        raise SchemaViolation(f"{name}: JSON nested too deeply to read") from None


def load_json(path):
    with open(path, "rb") as handle:
        return read_json(handle, path)
