"""Canonical JSON serialization for every file format the tools exchange.

Parsing is lenient about the order of list entries; emission is canonical:
terms are sorted, rationals are written as "p/q" in lowest terms with q > 0
(just "p" when the denominator is 1), and coefficients that may exceed 53
bits are written as strings. emit(parse(x)) is byte-identical for canonical
inputs, which the golden tests rely on.

The layout is exactly that of json.dumps(doc, indent=2, ensure_ascii=True)
followed by a newline: one item per line, indented by two spaces per level,
": " after keys, [] and {} for empty containers, non-ASCII escaped as
\\uXXXX. canonical_dumps writes those bytes itself, because json.dumps with
an indent runs the pure-Python encoder; the test suite compares the two.

Both directions run on integer keys: each q-exponent, label, gamma or
exponent is scaled by a positive common denominator, which keeps the order
of the Fractions, so emission sorts ints, and parsing reads each distinct
rational string of a document once. A vvform gamma is keyed by det * gamma
reduced mod det, as EvenLattice.coset_minima() keys its table.

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
from collections.abc import Sequence
from fractions import Fraction
from itertools import chain, compress, repeat
from json.encoder import encode_basestring_ascii as _quote
from math import lcm
from operator import eq, is_, itemgetter, mul, sub

from .errors import ResourceLimit, SchemaViolation
from .lattice import EvenLattice, Vector, _Fractions, _Memo, frac_str
from .lift import OrthogonalExpansion, PrincipalPart, WeylData
from .series import (
    DEFAULT_BUDGET,
    RAW,
    WEAK_JACOBI,
    JacobiSeries,
    VectorValuedForm,
    _checked_q_den,
    _checked_weight,
    _exponent_den,
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

    def fracs(self, value, path, rank: int) -> Vector:
        """The Fractions of a vector with rank entries."""
        return tuple(map(self.values.__getitem__, self.vector(value, path, rank)))


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


def _Strings(den: int, low: int = 0) -> _Memo:
    """frac_str(Fraction(k - low, den)) for integers k, each built once."""
    return _Memo(lambda k: frac_str(Fraction(k - low, den)))


def _coordinates(vectors, rank: int) -> list:
    """The columns of the vectors' coordinates; vectors is read once per
    coordinate."""
    return [map(itemgetter(i), vectors) for i in range(rank)]


def _string_columns(strings: _Memo, columns) -> list:
    """Each column of integers as the list of their strings."""
    return [list(map(strings.__getitem__, column)) for column in columns]


def _den(values) -> int:
    """Least common denominator of the given Fractions."""
    return lcm(*{x.denominator for x in values})


def _scaled_vector(vec, den: int) -> tuple[int, ...]:
    return tuple([_scaled(x, den) for x in vec])


def canonical_dumps(doc) -> str:
    """doc as json.dumps(doc, indent=2, ensure_ascii=True) + "\\n" writes it,
    with each Rows in doc written as the list of its rows.

    doc is built from dicts with str keys, lists, Rows, str, int, True, False
    and None. Any other value type, a tuple or a float included, raises
    TypeError naming it; a key that is not a str raises the TypeError of the
    json module's string escaper. json.dumps does not write a Rows, and the
    parse_* functions read plain JSON trees only: pass them
    json.loads(canonical_dumps(doc))."""
    return _dumps(doc, "\n") + "\n"


def _dumps(value, indent: str) -> str:
    """value as JSON text; indent is the newline and indent of its line.

    The str values of a dict, and a list of str, skip the recursive call:
    they make up most of every plain document. Each list of items is a
    temporary of its join, so the text of a large container is held at most
    twice."""
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
    if kind is Rows:
        return value._text(indent)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    raise TypeError(f"canonical_dumps: cannot encode {kind.__name__}")


class Rows(Sequence):
    """An immutable sequence of dicts with the same keys in the same order,
    stored as columns: the terms of a series, an expansion or a principal
    part, the components of a vvform and their terms.

    fields holds (key, kind, column) for each key, where kind is the type of
    the key's value in a row. A str or int column lists its cells; a list
    column is a vector of str, stored as the list of its coordinate columns;
    a Rows column lists one Rows per row, whose value in the row is the list
    of its rows. len, indexing, iteration and == work on rows built as fresh
    dicts, so changing one changes nothing stored. canonical_dumps writes
    the columns themselves (_text)."""

    __slots__ = ("size", "fields")

    def __init__(self, size: int, *fields):
        self.size, self.fields = size, fields

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        index = range(self.size)[i]
        return list(map(self._row, index)) if type(index) is range else self._row(index)

    def __iter__(self):
        return map(self._row, range(self.size))

    def __eq__(self, other):
        if not isinstance(other, (Rows, list)):
            return NotImplemented
        return self.size == len(other) and all(map(eq, self, other))

    def _row(self, i: int) -> dict:
        # a vector is built from a tuple, so list() sizes it by its length
        return {key: list(tuple([x[i] for x in column])) if kind is list
                else list(column[i]) if kind is Rows else column[i]
                for key, kind, column in self.fields}

    def _text(self, indent: str) -> str:
        """The rows as _dumps writes their dicts in a list at indent. The
        text between two cells is the same in every row, so the whole list
        is one join of those constant pieces interleaved with the columns,
        and no row is built. The cells of str and vector columns are written
        as they are: the emitters build them with frac_str and str, which
        give ASCII text that the string escaper leaves alone."""
        if not self.size:
            return "[]"
        inner, field = indent + "  ", indent + "    "
        # pieces[j] comes before the j-th column in a row, pieces[-1] ends it
        pieces, columns, text = [], [], f",{inner}{{"
        for n, (key, kind, column) in enumerate(self.fields):
            text += f"{',' if n else ''}{field}{_quote(key)}: "
            if kind is str:
                pieces.append(text + '"')
                columns.append(column)
                text = '"'
            elif kind is list:
                text += "["
                for coordinate in column:
                    pieces.append(f'{text}{field}  "')
                    columns.append(coordinate)
                    text = '",'
                text = f'"{field}]'
            else:
                pieces.append(text)
                columns.append(map(int.__repr__, column) if kind is int
                               else map(Rows._text, column, repeat(field)))
                text = ""
        pieces.append(f"{text}{inner}}}")
        # every row opens with a separator, the first with the bracket instead
        streams = [chain([f"[{pieces[0][1:]}"], repeat(pieces[0], self.size - 1))]
        for column, piece in zip(columns, pieces[1:]):
            streams += [column, repeat(piece)]
        return "".join(chain(chain.from_iterable(zip(*streams)), [f"{indent}]"]))


def _of_type(kind: type, values) -> bool:
    """Whether the type of every value is kind itself."""
    return all(map(is_, map(type, values), repeat(kind)))


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
    ns = list(map(_Strings(series.q_den).__getitem__, grades))
    ls = _string_columns(_Strings(series.den, low), coords)
    cs = list(map(_Memo(str).__getitem__, map(terms.__getitem__, keys)))
    return {
        **emit_lattice(series.lattice),
        "weight": frac_str(series.weight),
        "q_den": series.q_den,
        "prec": frac_str(series.prec),
        "form_class": series.form_class,
        "terms": Rows(len(keys), ("n", str, ns), ("l", list, ls), ("c", str, cs)),
    }


# -- vector-valued forms --------------------------------------------------------------


def _reduced(x: Fraction, den: int):
    """den * x reduced mod den, or None when den is no multiple of the
    denominator of x."""
    return None if den % x.denominator else x.numerator * (den // x.denominator) % den


def _dual_key(gamma: Vector, path, lattice: EvenLattice) -> tuple[int, ...]:
    """det * gamma reduced mod det; SchemaViolation when gamma is not in the
    dual lattice. det clears the denominators of every dual vector, and the
    key is dual when gram * key = 0 mod det."""
    det = lattice.det
    key = tuple([_reduced(x, det) for x in gamma])
    if None in key or any(sum(map(mul, row, key)) % det for row in lattice.gram):
        raise SchemaViolation(f"{path}: not in the dual lattice")
    return key


_COMPONENT = {"gamma", "prec", "terms"}
_RATIONAL = {str, int}  # the types parse_frac reads; a bool is neither


def parse_vvform(doc, path="$") -> VectorValuedForm:
    """The form of a document. A well-formed component list is read by
    columns (_columns); any other goes through the entry loop (_entries),
    which is the one source of every message and of which error comes
    first. Both return {det * gamma reduced: its terms} for the entries with
    terms, and P; the terms are keyed by the interned indices of their
    exponents, which are scaled to their common denominator at the end."""
    _expect_object(doc, path, required=("gram", "weight", "components"))
    lattice = parse_lattice({"gram": doc["gram"]}, path)
    ids = _Interned()
    weight = parse_frac(doc["weight"], f"{path}.weight")
    entries = _expect_list(doc["components"], f"{path}.components")
    components, prec = _columns(entries, lattice, ids) or _entries(entries, path, lattice, ids)
    nonzero = {}  # each key hashed once
    for key, fg in components.items():
        if 0 in fg.values():
            fg = {i: c for i, c in fg.items() if c}
        if fg:
            nonzero[key] = fg
    eden = _exponent_den(lattice.det, nonzero, {x.denominator for x in ids.values})
    exps = [_scaled(x, eden) for x in ids.values]
    terms = {key: dict(zip(map(exps.__getitem__, fg), fg.values()))
             for key, fg in nonzero.items()}
    return VectorValuedForm._of(lattice, weight, prec, terms, eden)


def _columns(entries: list, lattice: EvenLattice, ids: _Interned):
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
        minima = lattice.coset_minima()
        if keys == list(minima.table):  # the canonical order: no key is hashed
            qs = list(minima.table.values())
        else:  # one lookup tests a key and gives its minimum
            qs = list(map(minima.table.get, keys))
            if None in qs or len(set(keys)) != det:
                return None
        # each distinct prec is parsed once, and P * den is one integer;
        # a prec spelled alike on cosets of two minima is refused
        minimum = dict(zip(raws, qs))
        if list(map(minimum.__getitem__, raws)) != qs:
            return None
        precs = {raw: Fraction(raw) for raw in minimum}
        den = lcm(minima.qden, *{x.denominator for x in precs.values()})
        tops = {x.numerator * (den // x.denominator) + minimum[raw] * (den // minima.qden)
                for raw, x in precs.items()}
        if len(tops) != 1:
            return None
        # the path names no entry: a message built here is never shown
        components = {key: _terms(fg, "", ids) for key, fg in compress(zip(keys, terms), terms)}
    except (ValueError, ZeroDivisionError, SchemaViolation):
        return None
    return components, Fraction(tops.pop(), den)


def _entries(entries: list, path, lattice: EvenLattice, ids: _Interned):
    """The components with terms, and P, of a component list read one entry
    at a time; the first error in document order raises its SchemaViolation.
    The coset table is listed only for a list of det distinct cosets, which a
    short list cannot be. The gammas and precisions are interned apart from
    the exponents in ids, whose values set the exponent denominator."""
    det, rank, fracs = lattice.det, lattice.rank, _Interned()
    seen = set()
    components = {}  # det * gamma reduced -> its terms, for the entries with terms
    precisions = {}  # raw prec -> its Fraction
    pairs = []  # (raw prec, key)
    for i, comp in enumerate(entries):
        cpath = f"{path}.components[{i}]"
        if type(comp) is not dict or comp.keys() != _COMPONENT:
            _expect_object(comp, cpath, required=("gamma", "prec", "terms"))
        gpath = f"{cpath}.gamma"
        key = _dual_key(fracs.fracs(comp["gamma"], gpath, rank), gpath, lattice)
        size = len(seen)
        seen.add(key)
        if len(seen) == size:
            raise SchemaViolation(f"{cpath}.gamma: duplicate component")
        terms = comp["terms"]
        if type(terms) is not list or terms:
            components[key] = _terms(terms, cpath, ids)
        raw = comp["prec"]
        precisions[raw] = fracs.values[fracs.of(raw, f"{cpath}.prec")]
        pairs.append((raw, key))
    if len(seen) != det:
        raise SchemaViolation(f"{path}.components: has {len(seen)} of {det} cosets")
    minima = lattice.coset_minima()
    tops = {precisions[raw] + Fraction(q, minima.qden)
            for raw, q in {(raw, minima.table[key]) for raw, key in pairs}}
    if len(tops) != 1:
        raise SchemaViolation(f"{path}.components: the precisions are not P - min Q(gamma)")
    return components, tops.pop()


_TERM = {"e", "c"}


def _terms(terms, path, ids: _Interned) -> dict:
    """The {index of e: c} of the terms of the component at path; two
    spellings of one exponent share its index. A term of the two fields
    whose e is a string seen before is read by lookups."""
    fg = {}
    for j, term in enumerate(_expect_list(terms, f"{path}.terms")):
        if type(term) is not dict or term.keys() != _TERM:
            _expect_object(term, f"{path}.terms[{j}]", required=("e", "c"))
        e = term["e"]
        i = ids.get(e) if type(e) is str else None
        if i is None:
            i = ids.of(e, f"{path}.terms[{j}].e")
        if not _add_term(fg, i, term["c"], f"{path}.terms[{j}].c"):
            raise SchemaViolation(
                f"{path}.terms[{j}]: duplicate exponent {frac_str(ids.values[i])}")
    return fg


def emit_vvform(form: VectorValuedForm) -> dict:
    """The document of a form: the coset table in order, each key of the
    form looked up in it, and the exponents rescaled by one integer factor."""
    if form.lattice.det > DEFAULT_BUDGET:
        raise ResourceLimit(
            f"determinant {form.lattice.det} exceeds the {DEFAULT_BUDGET}-coset budget")
    minima = form.lattice.coset_minima()  # keys in canonical order
    gden, table = minima.gden, minima.table
    if not all(map(table.__contains__, form.terms)):
        raise ValueError("a component key is not a reduced coset representative")
    eden = lcm(form.prec.denominator, minima.qden, form.eden)
    exps, es = _Strings(eden), eden // form.eden
    top, qs = _scaled(form.prec, eden), eden // minima.qden
    gammas = _string_columns(_Strings(gden), _coordinates(table, form.lattice.rank))
    precs = map(exps.__getitem__, map(sub, repeat(top), map(mul, table.values(), repeat(qs))))
    decimal = _Memo(str).__getitem__
    rows = {}
    for key, fg in form.terms.items():
        keys = sorted(fg)
        rows[key] = Rows(len(keys),
                         ("e", str, list(map(exps.__getitem__, map(mul, keys, repeat(es))))),
                         ("c", str, list(map(decimal, map(fg.__getitem__, keys)))))
    terms = list(map(rows.get, table, repeat(Rows(0))))
    return {
        **emit_lattice(form.lattice),
        "weight": frac_str(form.weight),
        "components": Rows(len(table), ("gamma", list, gammas), ("prec", str, list(precs)),
                           ("terms", Rows, terms)),
    }


# -- principal parts --------------------------------------------------------------------


def parse_principal_part(doc, path="$") -> PrincipalPart:
    _expect_object(doc, path, required=("gram", "constant_term", "terms"))
    lattice = parse_lattice({"gram": doc["gram"]}, path)
    constant = parse_int(doc["constant_term"], f"{path}.constant_term")
    ids, coords = _Interned(), _Fractions(lattice.det).__getitem__
    terms = {}
    for i, term in enumerate(_expect_list(doc["terms"], f"{path}.terms")):
        tpath = f"{path}.terms[{i}]"
        _expect_object(term, tpath, required=("gamma", "exp", "c"))
        gpath = f"{tpath}.gamma"
        key = _dual_key(ids.fracs(term["gamma"], gpath, lattice.rank), gpath, lattice)
        gamma = tuple(map(coords, key))
        e = ids.values[ids.of(term["exp"], f"{tpath}.exp")]
        if e >= 0:
            raise SchemaViolation(f"{tpath}.exp: {frac_str(e)} is not negative")
        if not _add_term(terms, (gamma, e), term["c"], f"{tpath}.c"):
            raise SchemaViolation(f"{tpath}: duplicate term for this coset and exponent")
    return PrincipalPart(lattice, constant, terms)


def emit_principal_part(pp: PrincipalPart) -> dict:
    gden = _den(x for gamma, _ in pp.terms for x in gamma)
    eden = _den(e for _, e in pp.terms)
    ordered = sorted(((_scaled(e, eden), _scaled_vector(gamma, gden)), c)
                     for (gamma, e), c in pp.terms.items())
    keys = list(map(itemgetter(0), ordered))
    gammas = _coordinates(list(map(itemgetter(1), keys)), pp.lattice.rank)
    exps = list(map(_Strings(eden).__getitem__, map(itemgetter(0), keys)))
    return {
        **emit_lattice(pp.lattice),
        "constant_term": pp.constant_term,
        "terms": Rows(len(keys), ("gamma", list, _string_columns(_Strings(gden), gammas)),
                      ("exp", str, exps), ("c", int, list(map(itemgetter(1), ordered)))),
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
    ids = _Interned()
    return WeylData(
        a=parse_frac(doc["A"], f"{path}.A"),
        b=ids.fracs(doc["B"], f"{path}.B", lattice.rank),
        c=parse_frac(doc["C"], f"{path}.C"),
        chamber_vector=ids.fracs(doc["w0"], f"{path}.w0", lattice.rank),
    )


def parse_expansion(doc, path="$") -> OrthogonalExpansion:
    _expect_object(doc, path, required=("gram", "weight", "holomorphic",
                                        "total_prec", "weyl", "terms"))
    lattice = parse_lattice({"gram": doc["gram"]}, path)
    weight = parse_frac(doc["weight"], f"{path}.weight")
    total_prec = parse_frac(doc["total_prec"], f"{path}.total_prec")
    ids = _Interned()
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
        l = ids.fracs(term["l"], f"{tpath}.l", lattice.rank)
        if not _add_term(coeffs, (n, l, m), term["c"], f"{tpath}.c"):
            raise SchemaViolation(f"{tpath}: duplicate monomial")
    return OrthogonalExpansion(lattice, weyl, weight, coeffs, total_prec,
                               holomorphic=doc["holomorphic"])


def emit_expansion(exp: OrthogonalExpansion) -> dict:
    terms = exp.terms
    keys = sorted(terms)  # linear in the order the lift leaves them
    labels = _coordinates(list(map(itemgetter(2), keys)), exp.lattice.rank)
    decimal = _Memo(str).__getitem__
    return {
        **emit_lattice(exp.lattice),
        "weight": frac_str(exp.weight),
        "holomorphic": exp.holomorphic,
        "total_prec": frac_str(exp.total_prec),
        "weyl": emit_weyl(exp.weyl),
        "terms": Rows(len(keys), ("n", str, list(map(decimal, map(itemgetter(0), keys)))),
                      ("l", list, _string_columns(_Strings(exp.den), labels)),
                      ("m", str, list(map(decimal, map(itemgetter(1), keys)))),
                      ("c", str, list(map(decimal, map(terms.__getitem__, keys))))),
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
