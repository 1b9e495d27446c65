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
It collects the pieces of the whole document in one list and joins them
once. The emitters hand it the rows of a table as a Rows of columns, and
it interleaves them with the text that is the same in every row. Rows
sorted by (n, lex l) share their leading cells: emit_series splits the
sorted keys into runs of one head (n and the label entries before the last
two), with one search per run, and gives each row the id of its tail
(those two entries). The text of each head is written once and repeated
over its run, that of each distinct tail once, and a row joins its head,
its tail and its coefficient.

Both directions run on integer keys: each q-exponent, label, gamma or
exponent is scaled by a positive common denominator, which keeps the order
of the Fractions, so emission sorts ints, and parsing reads each distinct
rational string of a document once. An expansion, and a direct product
until its terms are read, hold the product kernel's packed int keys,
which sort in file order; emit_expansion and emit_series write from those
keys and their digits without building a tuple per term. A vvform or
principal part gamma is keyed by det * gamma reduced mod det, as
EvenLattice.coset_minima() keys its table. A parser checks the schema and interns the rationals; the
record's _build method, which its public constructor calls too, filters
the terms, picks the denominators and scales the keys; an expansion's
_build packs them too.

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
              P - min Q(gamma) for one P, and other documents are rejected.
              The text emit_vvform writes is read by columns, each gamma
              and prec compared as a string with _layout's; any other
              order or spelling is read entry by entry
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
import re
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate, chain, compress, count, repeat
from json.encoder import encode_basestring_ascii as _quote
from math import ceil, gcd, lcm
from operator import eq, is_, itemgetter, mul, sub

from .errors import NotInDualLattice, ResourceLimit, SchemaViolation
from .lattice import EvenLattice, Vector, _Memo, frac_str
from .lift import OrthogonalExpansion, PrincipalPart, WeylData
from .series import (
    DEFAULT_BUDGET,
    RAW,
    WEAK_JACOBI,
    JacobiSeries,
    VectorValuedForm,
    _scaled,
)


# -- scalars -------------------------------------------------------------------


_RATIONAL_TEXT = re.compile("(-?[0-9]+)(?:/([0-9]+))?")


def parse_frac(value, path) -> Fraction:
    """A JSON integer, or a string "p/q" or "p": an optional minus sign and
    ASCII digits, with no space, sign, point, exponent or underscore else."""
    if isinstance(value, bool):
        raise SchemaViolation(f"{path}: expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL_TEXT.fullmatch(value)
        if match:
            try:  # q = 0, or more digits than int() reads
                return Fraction(int(match[1]), int(match[2] or 1))
            except (ValueError, ZeroDivisionError):
                pass
        raise SchemaViolation(f"{path}: {value!r} is not a rational p/q")
    raise SchemaViolation(f"{path}: expected a rational string, got {type(value).__name__}")


_INTEGER_TEXT = re.compile("-?[0-9]+")


def parse_int(value, path) -> int:
    """A JSON integer, or a string of ASCII digits with an optional minus
    sign: the grammar of parse_frac without the denominator."""
    if isinstance(value, bool):
        raise SchemaViolation(f"{path}: expected an integer, got a boolean")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        if _INTEGER_TEXT.fullmatch(value):
            try:  # more digits than int() reads
                return int(value)
            except ValueError:
                pass
        raise SchemaViolation(f"{path}: {value!r} is not an integer")
    raise SchemaViolation(f"{path}: expected an integer, got {type(value).__name__}")


def _expect_object(value, path, required):
    if not isinstance(value, dict):
        raise SchemaViolation(f"{path}: expected an object, got {type(value).__name__}")
    for key in required:
        if key not in value:
            raise SchemaViolation(f"{path}.{key}: missing required field")
    for key in value:
        if key not in required:
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
        i = self.index.setdefault(x, len(self.values))  # x is hashed once
        if i == len(self.values):
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


def _Strings(den: int) -> _Memo:
    """frac_str(Fraction(k, den)) for integers k and den > 0, each built
    once from integers."""
    def text(k):
        g = gcd(k, den)
        return str(k // g) if g == den else f"{k // g}/{den // g}"

    return _Memo(text)


def _coordinates(vectors, rank: int) -> list:
    """The columns of the vectors' coordinates; vectors is read once per
    coordinate."""
    return [map(itemgetter(i), vectors) for i in range(rank)]


def _string_columns(strings: _Memo, columns) -> list:
    """Each column of integers as the list of their strings."""
    return [list(map(strings.__getitem__, column)) for column in columns]


def canonical_dumps(doc) -> str:
    """doc as json.dumps(doc, indent=2, ensure_ascii=True) + "\\n" writes it,
    with each Rows in doc written as the list of its rows.

    doc is built from dicts with str keys, lists, Rows, str, int, True, False
    and None. Any other value type, a tuple or a float included, raises
    TypeError naming it; a key that is not a str raises the TypeError of the
    json module's string escaper. json.dumps does not write a Rows, and the
    parse_* functions read plain JSON trees only: pass them
    json.loads(canonical_dumps(doc))."""
    out = []
    _dumps(doc, "\n", out)
    out.append("\n")
    return "".join(out)


def _dumps(value, indent: str, out: list) -> None:
    """Append the pieces of value's JSON text to out; indent is the newline
    and indent of its line. The whole document is one join of out.

    The str values of a dict, and a list of str, skip the recursive call:
    they make up most of every plain document."""
    kind = type(value)
    if kind is dict:
        inner, lead = indent + "  ", "{"
        for k, x in value.items():
            out.append(f"{lead}{inner}{_quote(k)}: ")
            if type(x) is str:
                out.append(_quote(x))
            else:
                _dumps(x, inner, out)
            lead = ","
        return out.append(f"{indent}}}" if value else "{}")
    if kind is list:
        inner = indent + "  "
        sep = "," + inner
        try:
            return out.append(f"[{inner}{sep.join(map(_quote, value))}{indent}]" if value else "[]")
        except TypeError:  # an item is not a str
            pass
        lead = "[" + inner
        for x in value:
            out.append(lead)
            _dumps(x, inner, out)
            lead = sep
        return out.append(indent + "]")
    if kind is Rows:
        return out.extend(value._text(indent))
    if kind is str:
        return out.append(_quote(value))
    if kind is int:
        return out.append(int.__repr__(value))
    if value is True or value is False or value is None:
        return out.append(json.dumps(value))
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
    the columns themselves (_text).

    Rows sorted by a vector share their leading cells. A table with one
    vector column may carry heads, (runs, tail ids): the length of each run
    of rows with one head, in order, and one tail id per row. Its rows split
    at the vector's last two coordinates: the head is every cell before
    them, the tail is those two, and a vector of one or two coordinates is
    all tail. A head column then lists one str cell per run, a tail column
    one per tail id, and the cells after the vector are listed by row.
    _text writes the text of each distinct head and tail once."""

    __slots__ = ("size", "fields", "heads")

    def __init__(self, size: int, *fields, heads=None):
        self.size, self.fields, self.heads = size, fields, heads

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i):
        index = range(self.size)[i]
        if type(index) is range:
            return list(map(list(self).__getitem__, index))
        runs, tails = self.heads or ([1] * self.size, range(self.size))
        return self._row(index, bisect_right(list(accumulate(runs)), index), tails[index])

    def __iter__(self):
        # a table without heads is read as runs of one row, each its own tail
        runs, tails = self.heads or (repeat(1, self.size), range(self.size))
        return map(self._row, range(self.size), chain.from_iterable(map(repeat, count(), runs)),
                   tails)

    def __eq__(self, other):
        if not isinstance(other, (Rows, list)):
            return NotImplemented
        return self.size == len(other) and all(map(eq, self, other))

    def _row(self, i: int, h: int, t: int) -> dict:
        """Row i, whose head and tail are the h-th and the t-th."""
        row, at = {}, h
        for key, kind, column in self.fields:
            if kind is list:
                # a vector is built from a tuple, so list() sizes it by its length
                row[key] = list(tuple([x[h] for x in column[:-2]] + [x[t] for x in column[-2:]]))
                at = i
            elif kind is Rows:
                row[key] = list(column[at])
            else:
                row[key] = column[at]
        return row

    def _text(self, indent: str) -> list:
        """The pieces of the text _dumps writes of the rows' dicts in a list
        at indent, which joined make that text. The text before each cell is
        the same in every row, so a row is those constant pieces interleaved
        with its cells, and the pieces are laid out column by column without
        building a row. With heads, the text of a row up to its tail is
        built once per run and repeated over it, and that of its tail, with
        the piece after it, once per tail id; a row joins the two with its
        later cells. The cells of str and vector columns are written as they
        are: the emitters build them with frac_str and str, which give ASCII
        text that the string escaper leaves alone."""
        if not self.size:
            return ["[]"]
        inner, field = indent + "  ", indent + "    "
        # pieces[j] comes before the j-th cell of a row, pieces[-1] ends it
        pieces, columns, text = [], [], f",{inner}{{"
        tail = end = 0  # with heads, columns[:tail] make the head, columns[tail:end] the tail
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
                if self.heads is not None:
                    end = len(columns)
                    tail = end - min(len(column), 2)
            else:
                pieces.append(text)
                columns.append(map(int.__repr__, column) if kind is int
                               else map("".join, map(Rows._text, column, repeat(field))))
                text = ""
        pieces.append(f"{text}{inner}}}")
        # a row's slots: the piece before each cell, then the cell; the
        # first piece also ends the row above
        slots = list(chain.from_iterable(zip([pieces[-1] + pieces[0], *pieces[1:]], columns)))
        if self.heads is not None:
            runs, ids = self.heads
            heads = chain.from_iterable(map(repeat, _joined(slots[:2 * tail]), runs))
            slots[:2 * end + 1] = heads, map(_joined(slots[2 * tail:2 * end + 1]).__getitem__, ids)
        width = len(slots)
        out = [slot if type(slot) is str else None for slot in slots] * self.size
        for j, slot in enumerate(slots):
            if type(slot) is not str:
                out[j::width] = slot
        # the first row opens with the bracket instead of a row end and a comma
        out[0] = f"[{out[0][len(pieces[-1]) + 1:]}"
        out.append(f"{pieces[-1]}{indent}]")
        return out


def _joined(slots: list) -> list:
    """The text of each index of the columns in slots, which alternate
    pieces and columns of one length, starting with a piece."""
    return list(map("".join, zip(*[slot if j % 2 else repeat(slot)
                                   for j, slot in enumerate(slots)])))


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
_RATIONAL = {str, int}  # the types parse_frac and parse_int read; a bool is neither


def parse_series(doc, path="$") -> JacobiSeries:
    """The series of a document, read on integers. A well-formed term list
    is read by columns (_series_columns); any other goes through the term
    loop (_series_terms), which is the one source of every message and of
    which error comes first. Both read each rational as its value-interned
    index, which also finds duplicates however they are spelled, and hands
    the columns to JacobiSeries._build, the constructor's builder, which
    keeps the terms below prec with nonzero coefficients on integer keys.
    The messages, and their order, are those of the Fraction-keyed parse
    through the JacobiSeries constructor."""
    _expect_object(doc, path, required=("gram", "weight", "q_den", "prec",
                                        "form_class", "terms"))
    lattice = parse_lattice({"gram": doc["gram"]}, path)
    weight = parse_frac(doc["weight"], f"{path}.weight")
    q_den = parse_int(doc["q_den"], f"{path}.q_den")
    prec = parse_frac(doc["prec"], f"{path}.prec")
    form_class = doc["form_class"]
    if form_class not in (RAW, WEAK_JACOBI):
        raise SchemaViolation(f"{path}.form_class: {form_class!r} is not a form class")
    entries, rank = _expect_list(doc["terms"], f"{path}.terms"), lattice.rank
    ns, flat, cs, values = (_series_columns(entries, rank)
                            or _series_terms(entries, path, rank))
    try:
        return JacobiSeries.__new__(JacobiSeries)._build(lattice, weight, prec, values, ns,
                                                         flat, cs, q_den, form_class)
    except ValueError as exc:
        raise SchemaViolation(f"{path}: {exc}") from None


def _series_columns(entries: list, rank: int):
    """What _series_terms returns for a well-formed term list, or None for
    any other list, whose message _series_terms gives. It never raises: each
    check is a C-level pass over one column, and each distinct n or label
    entry is parsed once."""
    if not _of_type(dict, entries) or not set(map(len, entries)) <= {3}:
        return None
    try:
        ns, ls, cs = [list(map(itemgetter(key), entries)) for key in ("n", "l", "c")]
    except KeyError:
        return None
    if not (_of_type(list, ls) and set(map(len, ls)) <= {rank}):
        return None
    coords = list(chain.from_iterable(ls))
    if not set(map(type, chain(ns, coords, cs))) <= _RATIONAL:
        return None
    distinct = list(set(cs))  # each string among them in parse_int's grammar
    texts = compress(distinct, map(is_, map(type, distinct), repeat(str)))
    if not all(map(_INTEGER_TEXT.fullmatch, texts)):
        return None
    ids = _Interned()
    try:
        index = {x: ids.of(x, "") for x in {*ns, *coords}}
        cs = list(map(int, cs))  # parse_int of a str or an int
    except (SchemaViolation, ValueError):
        return None
    ns, flat = list(map(index.__getitem__, ns)), list(map(index.__getitem__, coords))
    if len(set(zip(ns, zip(*[iter(flat)] * rank)))) != len(entries):
        return None  # a duplicate term
    return ns, flat, cs, ids.values


def _series_terms(entries: list, path, rank: int):
    """The columns of a term list read one term at a time: the interned
    indices of n, those of the label entries term after term, and c; then
    the values of the indices. The first error in document order raises its
    SchemaViolation."""
    ids = _Interned()
    terms = {}
    for i, term in enumerate(entries):
        tpath = f"{path}.terms[{i}]"
        if type(term) is not dict or term.keys() != _SERIES_TERM:
            _expect_object(term, tpath, required=("n", "l", "c"))
        key = (ids.of(term["n"], f"{tpath}.n"), ids.vector(term["l"], f"{tpath}.l", rank))
        if not _add_term(terms, key, term["c"], f"{tpath}.c"):
            raise SchemaViolation(
                f"{tpath}: duplicate term at n={frac_str(ids.values[key[0]])}")
    return ([n for n, _ in terms], list(chain.from_iterable(l for _, l in terms)),
            list(terms.values()), ids.values)


def emit_series(series: JacobiSeries) -> dict:
    """The document of a series. Its rows, sorted by (n, lex l), come in
    runs of one head (Rows): a row's head is its grade and label entries
    before the last two, its tail is those two. One search finds the end of
    each run (_runs), and the cells are written from the first key of each
    run and from the distinct tails only. The keys are the tuples (n, l),
    or for a series whose terms were never decoded its packed keys: the
    base of a run is its key whose last two digits vec_i + M/2 are 0, and
    a row's tail is its key less that base."""
    rank, packing = series.lattice.rank, series._packing
    split = max(rank - 2, 0)  # the label entries in the head
    terms = series._packed if series._terms is None else series._terms
    keys = sorted(terms)  # linear in the kernel's order
    if terms is series._packed:
        offset, span = packing.offset, 1 << packing.width * (rank - split)
        base = lambda k: (k + offset) // span * span - offset
        firsts, runs = _runs(keys, lambda k: base(k) + span)
        values = list(map(sub, keys, chain.from_iterable(map(repeat, map(base, firsts), runs))))
        tails = list(dict.fromkeys(values))
        cells = (packing.digits(firsts)[:1 + split]
                 + packing.digits(list(map(sub, tails, repeat(offset))))[1 + split:])
    else:
        firsts, runs = _runs(keys, (lambda k: (k[0], (*k[1][:split - 1], k[1][split - 1] + 1)))
                             if split else (lambda k: (k[0] + 1,)))
        values = list(map(itemgetter(slice(split, None)), map(itemgetter(1), keys)))
        tails = list(dict.fromkeys(values))
        cells = [map(itemgetter(0), firsts), *_coordinates(list(map(itemgetter(1), firsts)), split),
                 *_coordinates(tails, rank - split)]
    strings = [_Strings(series.q_den)] + [_Strings(series.den)] * rank
    ns, *ls = [list(map(text.__getitem__, column)) for text, column in zip(strings, cells)]
    cs = list(map(_Memo(str).__getitem__, map(terms.__getitem__, keys)))
    return {
        **emit_lattice(series.lattice),
        "weight": frac_str(series.weight),
        "q_den": series.q_den,
        "prec": frac_str(series.prec),
        "form_class": series.form_class,
        "terms": Rows(len(keys), ("n", str, ns), ("l", list, ls), ("c", str, cs),
                      heads=(runs, list(map(dict(zip(tails, count())).__getitem__, values)))),
    }


def _runs(keys: list, end) -> tuple[list, list]:
    """The first key and the length of each run of one head in the sorted
    list keys, where end(k) is the least key above every key with the head
    of k: one search per run."""
    starts, i = [], 0
    while i < len(keys):
        starts.append(i)
        i = bisect_left(keys, end(keys[i]), i + 1)
    return list(map(keys.__getitem__, starts)), list(map(sub, [*starts[1:], len(keys)], starts))


# -- vector-valued forms --------------------------------------------------------------


def _dual_key(gamma: Vector, path, lattice: EvenLattice) -> tuple[int, ...]:
    """det * gamma reduced mod det; SchemaViolation when gamma is not in the
    dual lattice."""
    try:
        return lattice._coset_key(gamma)
    except NotInDualLattice:
        raise SchemaViolation(f"{path}: not in the dual lattice") from None


_COMPONENT = {"gamma", "prec", "terms"}


def parse_vvform(doc, path="$") -> VectorValuedForm:
    """The form of a document. The component list emit_vvform writes is
    read by columns (_columns); any other goes through the entry loop
    (_entries), which is the one source of every message and of which error
    comes first. Both return {det * gamma reduced: its terms} for the
    entries with terms, and P; the terms are keyed by the interned indices
    of their exponents, and VectorValuedForm._build, the constructor's
    builder, drops zeros and scales the exponents."""
    _expect_object(doc, path, required=("gram", "weight", "components"))
    lattice = parse_lattice({"gram": doc["gram"]}, path)
    ids = _Interned()
    weight = parse_frac(doc["weight"], f"{path}.weight")
    entries = _expect_list(doc["components"], f"{path}.components")
    components, prec = _columns(entries, lattice, ids) or _entries(entries, path, lattice, ids)
    return VectorValuedForm.__new__(VectorValuedForm)._build(lattice, weight, prec, ids.values,
                                                             components)


def _columns(entries: list, lattice: EvenLattice, ids: _Interned):
    """What _entries returns for a component list that is exactly the text
    emit_vvform writes, or None for any other list, which _entries reads or
    refuses. It never raises: P is read from the first prec, the zero
    coset's, whose minimum is 0; the gamma and prec columns are then
    compared as strings with those of _layout; and only the entries with
    terms are read one by one, a SchemaViolation of _terms meaning None. A
    valid document in another order or spelling (an int-spelled or
    unreduced gamma, a prec spelled "2/4") is left to the entry loop."""
    if (len(entries) != lattice.det or not _of_type(dict, entries)
            or set(map(len, entries)) != {3}):
        return None
    try:
        gammas, raws, terms = [list(map(itemgetter(key), entries))
                               for key in ("gamma", "prec", "terms")]
        prec = parse_frac(raws[0], "")
    except (KeyError, SchemaViolation):
        return None
    minima = lattice.coset_minima()
    columns, precs = _layout(minima, prec)
    if (raws != precs or not _of_type(list, terms)
            or not all(map(eq, gammas, map(list, zip(*columns))))):
        return None
    keys = zip(*minima.table.columns())  # built at C speed, unlike iter(table)
    try:  # the path names no entry: a message built here is never shown
        components = {key: _terms(fg, "", ids) for key, fg in compress(zip(keys, terms), terms)}
    except SchemaViolation:
        return None
    return components, prec


def _entries(entries: list, path, lattice: EvenLattice, ids: _Interned):
    """The components with terms, and P, of a component list read one entry
    at a time: every list that _columns leaves, a valid one in another order
    or spelling included. The first error in document order raises its
    SchemaViolation. The coset table is listed only for a list of det
    distinct cosets, which a short list cannot be. The gammas and precisions
    are interned apart from the exponents in ids, whose values set the
    exponent denominator."""
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


def _layout(minima, prec: Fraction) -> tuple[list, list]:
    """The gamma columns and the prec strings of a vvform with precision
    prec, in the order of the coset table: gamma = key / gden and prec -
    min Q(gamma), as frac_str writes them."""
    table = minima.table
    den = lcm(prec.denominator, minima.qden)
    top, qs = _scaled(prec, den), den // minima.qden
    return (list(table.columns(_Strings(minima.gden).__getitem__)),
            list(map(_Strings(den).__getitem__, map(sub, repeat(top),
                                                     map(mul, table.values(), repeat(qs))))))


def emit_vvform(form: VectorValuedForm) -> dict:
    """The document of a form: the columns of the coset table in order
    (_layout), and each component of the form at its key's position in the
    table."""
    if form.lattice.det > DEFAULT_BUDGET:
        raise ResourceLimit(
            f"determinant {form.lattice.det} exceeds the {DEFAULT_BUDGET}-coset budget")
    minima = form.lattice.coset_minima()  # keys in canonical order
    try:
        places = list(map(minima.table.position, form.terms))
    except KeyError:
        raise ValueError("a component key is not a reduced coset representative") from None
    gammas, precs = _layout(minima, form.prec)
    exps, decimal = _Strings(form.eden).__getitem__, _Memo(str).__getitem__
    terms = [Rows(0)] * len(precs)  # each component at its place in the table
    for place, fg in zip(places, form.terms.values()):
        keys = sorted(fg)
        terms[place] = Rows(len(keys), ("e", str, list(map(exps, keys))),
                            ("c", str, list(map(decimal, map(fg.__getitem__, keys)))))
    return {
        **emit_lattice(form.lattice),
        "weight": frac_str(form.weight),
        "components": Rows(len(precs), ("gamma", list, gammas), ("prec", str, precs),
                           ("terms", Rows, terms)),
    }


# -- principal parts --------------------------------------------------------------------


def parse_principal_part(doc, path="$") -> PrincipalPart:
    """The part of a document: each term keyed by (det * gamma reduced, the
    interned index of its exponent), the gammas interned apart from the
    exponents, whose values set eden."""
    _expect_object(doc, path, required=("gram", "constant_term", "terms"))
    lattice = parse_lattice({"gram": doc["gram"]}, path)
    constant = parse_int(doc["constant_term"], f"{path}.constant_term")
    ids, fracs, terms = _Interned(), _Interned(), {}
    for i, term in enumerate(_expect_list(doc["terms"], f"{path}.terms")):
        tpath = f"{path}.terms[{i}]"
        _expect_object(term, tpath, required=("gamma", "exp", "c"))
        gpath = f"{tpath}.gamma"
        key = _dual_key(fracs.fracs(term["gamma"], gpath, lattice.rank), gpath, lattice)
        e = ids.of(term["exp"], f"{tpath}.exp")
        if ids.values[e] >= 0:
            raise SchemaViolation(f"{tpath}.exp: {frac_str(ids.values[e])} is not negative")
        if not _add_term(terms, (key, e), term["c"], f"{tpath}.c"):
            raise SchemaViolation(f"{tpath}: duplicate term for this coset and exponent")
    return PrincipalPart._build(lattice, constant, ids.values, terms)


def emit_principal_part(pp: PrincipalPart) -> dict:
    """The document of a part: its integer keys sorted by (exponent, gamma),
    each coordinate and exponent written over det and eden."""
    keys = sorted(pp.terms, key=itemgetter(1, 0))
    gammas = _string_columns(_Strings(pp.lattice.det),
                             _coordinates(list(map(itemgetter(0), keys)), pp.lattice.rank))
    exps = list(map(_Strings(pp.eden).__getitem__, map(itemgetter(1), keys)))
    return {
        **emit_lattice(pp.lattice),
        "constant_term": pp.constant_term,
        "terms": Rows(len(keys), ("gamma", list, gammas), ("exp", str, exps),
                      ("c", int, list(map(pp.terms.__getitem__, keys)))),
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
    """The expansion of a document, read on integers: each monomial is keyed
    by (n, m, the value-interned indices of l), and
    OrthogonalExpansion._build, the constructor's builder, scales the
    labels and packs the keys."""
    _expect_object(doc, path, required=("gram", "weight", "holomorphic",
                                        "total_prec", "weyl", "terms"))
    lattice = parse_lattice({"gram": doc["gram"]}, path)
    weight = parse_frac(doc["weight"], f"{path}.weight")
    total_prec = parse_frac(doc["total_prec"], f"{path}.total_prec")
    ids = _Interned()
    weyl = parse_weyl(doc["weyl"], f"{path}.weyl", lattice)
    if not isinstance(doc["holomorphic"], str):
        raise SchemaViolation(f"{path}.holomorphic: {doc['holomorphic']!r} is not a string")
    terms, top = {}, ceil(total_prec)  # n + m < total_prec means n + m < top
    for i, term in enumerate(_expect_list(doc["terms"], f"{path}.terms")):
        tpath = f"{path}.terms[{i}]"
        _expect_object(term, tpath, required=("n", "l", "m", "c"))
        n = parse_int(term["n"], f"{tpath}.n")
        m = parse_int(term["m"], f"{tpath}.m")
        if min(n, m) < 0 or n + m >= top:
            raise SchemaViolation(f"{tpath}: monomial n={n}, m={m} is not in n, m >= 0, "
                                  f"n + m < {frac_str(total_prec)}")
        l = ids.vector(term["l"], f"{tpath}.l", lattice.rank)
        if not _add_term(terms, (n, m, l), term["c"], f"{tpath}.c"):
            raise SchemaViolation(f"{tpath}: duplicate monomial")
    return OrthogonalExpansion.__new__(OrthogonalExpansion)._build(
        lattice, weyl, weight, ids.values, terms, total_prec, doc["holomorphic"])


def emit_expansion(exp: OrthogonalExpansion) -> dict:
    """The document of an expansion, written from its packed keys: sorted,
    they are the monomials in file order, and _Packing.digits gives the
    columns n, m and l * den."""
    packed = exp._packed
    keys = sorted(packed)
    ns, ms, *labels = exp._packing.digits(keys)
    decimal = _Memo(str).__getitem__
    return {
        **emit_lattice(exp.lattice),
        "weight": frac_str(exp.weight),
        "holomorphic": exp.holomorphic,
        "total_prec": frac_str(exp.total_prec),
        "weyl": emit_weyl(exp.weyl),
        "terms": Rows(len(keys), ("n", str, list(map(decimal, ns))),
                      ("l", list, _string_columns(_Strings(exp.den), labels)),
                      ("m", str, list(map(decimal, ms))),
                      ("c", str, list(map(decimal, map(packed.__getitem__, keys))))),
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
