"""JSON-mutation fuzzing of every command that reads input.

Golden and fixture documents are mutated and piped through cli.main: a value
is replaced by one from a fixed list of awkward JSON values, or an entry is
deleted or duplicated. Mutations reach into the first three entries of each
list, where the sorted documents keep the q^0 row and the lowest exponents.
Each run must end with exit code 0, 1 or 2 (a result, a domain error or a
schema error) within two seconds; an uncaught exception, exit 3 or a run cut
by the alarm fails the test. The search is derandomized, so every
run tries the same inputs.
"""

import copy
import io
import json
import signal
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from borcherdskit.cli import main

ROOT = Path(__file__).resolve().parent.parent
SECONDS_PER_RUN = 2


def _load(path):
    return json.loads((ROOT / path).read_text(encoding="utf-8"))


# phi_n3_prec3.json is left out: its five runs take about 0.35 s per input,
# against 0.05 s for phi_n2_prec4.json
SERIES = ["tests/golden/phi_n1_prec16.json", "tests/golden/phi_n2_prec4.json"]
# (documents, the commands that read them from stdin)
TARGETS = [
    ([_load(p) for p in SERIES], [["decompose"], ["principal-part"], ["congruence"],
                                  ["weyl"], ["lift", "--prec", "4"]]),
    ([_load("fixtures/gram_ex1.json"), _load("fixtures/gram_ex2.json"),
      {"gram": _load(SERIES[1])["gram"]}], [["lattice-info", "-"], ["criterion", "-"]]),
    ([_load("fixtures/example1.json"), _load("fixtures/example2.json"),
      _load("tests/golden/principal_part_phi_n2_prec4.json")],
     [["validate-pp", "-", "--weight", "9/2"]]),
]

# boundary numbers, which tend to pass the schema and reach the computation,
# and values of the wrong kind; 10^6 and 2^70 are 1 mod 3, so as a q^0
# coefficient they keep the mod-24 congruence of diag(8, ..., 8) and a lift
# gets as far as the product
NUMBERS = [0, 1, -1, 2, 10 ** 6, 2 ** 70, -2 ** 70, "0", "-1", "1/2", "-1/16",
           str(10 ** 6), str(2 ** 70), f"1/{2 ** 70}"]
JUNK = ["1/0", "x", 0.5, True, None, [], {}, ["0"]]


def _paths(node, path=()):
    """Paths to the values in a document, into the first three entries of
    each list only."""
    if isinstance(node, dict):
        children = [(key, node[key]) for key in sorted(node)]
    elif isinstance(node, list):
        children = list(enumerate(node[:3]))
    else:
        children = []
    for key, child in children:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def mutated(draw, doc):
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        *route, key = draw(st.sampled_from(paths))
        parent = doc
        for step in route:
            parent = parent[step]
        action = draw(st.sampled_from(("number", "number", "number", "junk", "delete",
                                       "duplicate")))
        if action in ("number", "junk"):
            parent[key] = copy.deepcopy(draw(st.sampled_from(NUMBERS if action == "number"
                                                             else JUNK)))
        elif action == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[f"{key}_"] = copy.deepcopy(parent[key])
    return doc


@st.composite
def cases(draw):
    # series documents feed five commands, so they come up half the time
    docs, commands = draw(st.sampled_from(TARGETS[:1] + TARGETS))
    return draw(mutated(draw(st.sampled_from(docs)))), commands


class Hang(Exception):
    pass


def _alarm(signum, frame):
    raise Hang(f"no exit after {SECONDS_PER_RUN} s")


@contextmanager
def time_bound(seconds):
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run(argv, text):
    stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            with time_bound(SECONDS_PER_RUN):
                code = main(argv)
    finally:
        sys.stdin = stdin
    return code, err.getvalue()


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_mutated_documents_exit_cleanly(case):
    doc, commands = case
    text = json.dumps(doc)
    for argv in commands:
        code, err = run(argv, text)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
