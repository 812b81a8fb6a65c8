"""Malformed JSON input files never make the CLI exit 4.

Every subcommand that reads a JSON file (`div`, `fresco-act`, `act`,
`bernstein`, `geometric`, `ode2ab`, `xi-act`) gets two kinds of document:
arbitrary JSON values, and near misses of a valid document, with keys
deleted and values replaced by values of the wrong type, of the wrong sign
or size, or by malformed rational strings.  `cli.main` runs in-process; an
arbitrary value must be rejected (exit 2 or 3), and a near miss may also be
accepted (exit 0), but no document may end in exit 4, the internal error.
"""

import contextlib
import copy
import io
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from abalg.cli import main  # noqa: E402


def _c(re, im="0"):
    return {"re": re, "im": im}


def _matrix(k, entries):
    return {"k": k, "entries": entries}


_PRODUCT = {"factors": [
    {"lambda": _c("1/2"), "S": {"order": 4, "ordering": "left", "terms": [
        {"p": 0, "q": 0, "re": "2", "im": "1"}, {"p": 0, "q": 2, "re": "-1/3", "im": "0"}]}},
    {"lambda": _c("0", "1"), "S": {"order": 4, "ordering": "right", "terms": [
        {"p": 0, "q": 0, "re": "1", "im": "0"}]}},
]}
_MATRIX = _matrix(2, [[_c("1/2"), _c("0")], [_c("1"), _c("3")]])
_SYSTEM = {"k": 1, "coeffs": [_matrix(1, [[_c("2")]]), _matrix(1, [[_c("3", "1")]])]}
_SERIES = {"degree": 6, "terms": [{"m": 0, "re": "1", "im": "0"},
                                  {"m": 2, "re": "2/3", "im": "-1"}]}
_XI = {"dim": 2, "log_depth": 1, "m_bound": 3, "terms": [
    {"alpha": "1/2", "m": 0, "j": 1, "c": [_c("1"), _c("0", "2/5")]}]}

# (valid document, the command line with FILE standing for its path)
CASES = {
    "div": (_PRODUCT, ["div", "--order", "4", "--product", "FILE", "a^2 + b"]),
    "fresco-act": (_PRODUCT, ["fresco-act", "--order", "4", "--product", "FILE", "a", "1 + a"]),
    "act": (_SERIES, ["act", "--order", "3", "--input", "FILE", "a + b"]),
    "bernstein": (_MATRIX, ["bernstein", "--matrix", "FILE"]),
    "geometric": (_MATRIX, ["geometric", "--matrix", "FILE"]),
    "ode2ab": (_SYSTEM, ["ode2ab", "--system", "FILE", "--order", "3"]),
    "xi-act a": (_XI, ["xi-act", "--input", "FILE", "--op", "a"]),
    "xi-act b": (_XI, ["xi-act", "--input", "FILE", "--op", "b"]),
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=12)

# Values close to what a field holds: the wrong sign or size, the wrong type,
# and rational strings that are malformed or divide by zero.
near_values = st.one_of(
    st.sampled_from([0, 1, -1, 2, 5, 10 ** 12, -10 ** 12, 10 ** 40, True, False, None,
                     1.5, float("nan"), float("inf"), "", "0", "1/0", "x", "1/2/3", "-3/4",
                     "1e5", "0x10", " 7 ", "9" * 5000, [], {}, [[]], [{}], {"re": "1"}]),
    st.integers(-3, 12),
    json_values)


def _paths(doc, prefix=()):
    """Every path (a tuple of keys and indices) inside doc, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(
        doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def near_misses(draw, doc):
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(draw(near_values))
    return doc


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


def _run(doc_path, case, doc):
    doc_path.write_text(json.dumps(doc))
    argv = [str(doc_path) if a == "FILE" else a for a in CASES[case][1]]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "internal error" not in err.getvalue(), (case, doc, err.getvalue())
    return code


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_valid_documents_are_accepted(doc_path, case):
    assert _run(doc_path, case, CASES[case][0]) == 0


@pytest.mark.parametrize("case", sorted(CASES))
@given(doc=json_values)
def test_an_arbitrary_json_value_is_rejected(doc_path, case, doc):
    assert _run(doc_path, case, doc) in (2, 3)


@pytest.mark.parametrize("case", sorted(CASES))
@given(data=st.data())
def test_a_near_miss_document_never_exits_4(doc_path, case, data):
    doc = data.draw(near_misses(CASES[case][0]))
    assert _run(doc_path, case, doc) in (0, 2, 3)


def _with(doc, *path_and_value):
    """A copy of doc with the value at path replaced."""
    doc = copy.deepcopy(doc)
    *path, value = path_and_value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@pytest.mark.parametrize("case, doc, code", [
    # a negative degree bound of a power series
    ("act", {"degree": -1, "terms": []}, 2),
    # a 0x0 matrix
    ("bernstein", {"k": 0, "entries": []}, 2),
    ("geometric", {"k": 0, "entries": []}, 2),
    # a unit part of a huge truncation order is read only to the product's order
    ("div", _with(_PRODUCT, "factors", 0, "S", "order", 10 ** 12), 0),
    ("fresco-act", _with(_PRODUCT, "factors", 1, "S", "order", 10 ** 12), 0),
    # a log depth past jsonio.MAX_LOG_DEPTH
    ("xi-act b", _with(_with(_XI, "log_depth", 5000), "terms", 0, "j", 5000), 2),
])
def test_the_documents_that_once_exited_4(doc_path, case, doc, code):
    assert _run(doc_path, case, doc) == code
