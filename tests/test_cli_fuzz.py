"""Malformed JSON input files and generated expressions never make the CLI exit 4.

Every subcommand that reads a JSON file (`div`, `fresco-act`, `act`,
`bernstein`, `geometric`, `ode2ab`, `xi-act`) gets two kinds of document:
arbitrary JSON values, and near misses of a valid document, with keys
deleted and values replaced by values of the wrong type, of the wrong sign
or size, or by malformed rational strings.  `cli.main` runs in-process; an
arbitrary value must be rejected (exit 2 or 3), and a near miss may also be
accepted (exit 0), but no document may end in exit 4, the internal error.

Every subcommand that reads an expression (`normalize`, `mul`, `inv`,
`div-linear`, `tau`, `anti-f`, `factor`) gets text from the README grammar
and near misses of it, with `--order` 0-100 (and just outside), `--form`,
`--lambda`, `--x` and `--pretty` drawn.  Exponents stay small, so that
each call ends at once.  No invocation exits 4, text that is certainly off
the grammar exits 2, and text that `normalize` accepts re-parses from its
printed form to the same element.
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
from abalg.elements import Ordering  # noqa: E402
from abalg.expr import format_element, parse_element  # noqa: E402
from abalg.jsonio import element_from_json  # noqa: E402


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


def _invoke(doc_path, case, doc):
    """(exit code, stderr) of the case on doc, written by json.dumps, or as it is if bytes."""
    doc_path.write_bytes(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
    argv = [str(doc_path) if a == "FILE" else a for a in CASES[case][1]]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert "internal error" not in err.getvalue(), (case, doc, err.getvalue())
    return code, err.getvalue()


def _run(doc_path, case, doc):
    return _invoke(doc_path, case, doc)[0]


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
    # an integer literal longer than int() reads (4300 digits), which json.dumps cannot write
    *[(case, json.dumps(doc)[:-1].encode() + b', "n": ' + b"1" * 4400 + b"}", 2)
      for case, (doc, _) in sorted(CASES.items())],
    # bytes that are not UTF-8
    ("bernstein", b"\xff\xfe{}", 2),
])
def test_the_documents_that_once_exited_4(doc_path, case, doc, code):
    assert _run(doc_path, case, doc) == code


@pytest.mark.parametrize("case, doc, named", [
    # JSON true and false are no integers, though bool subclasses int
    ("xi-act a", {"dim": True, "log_depth": 0, "m_bound": True, "terms": [
        {"alpha": "1", "m": False, "j": 0, "c": [_c("1")]}]}, "field 'dim'"),
    ("xi-act a", _with(_XI, "terms", 0, "m", False), "field 'm'"),
    ("xi-act a", _with(_XI, "m_bound", True), "m_bound"),
    ("act", _with(_SERIES, "degree", True), "field 'degree'"),
    # a negative m_bound, which would drop every term
    ("xi-act a", _with(_XI, "m_bound", -5), "m_bound"),
])
def test_a_boolean_or_negative_count_exits_2_naming_its_field(doc_path, case, doc, named):
    code, err = _invoke(doc_path, case, doc)
    assert code == 2 and named in err


# -- expressions on the command line ------------------------------------------------

EXPRESSION_COMMANDS = ("normalize", "mul", "inv", "div-linear", "tau", "anti-f", "factor")
FORMS = {"normalize", "mul", "tau", "anti-f"}

rationals = st.builds(lambda n, d: f"{n}" if d is None else f"{n}/{d}",
                      st.integers(0, 12), st.none() | st.integers(1, 9))
atoms = st.sampled_from(["a", "b", "i"]) | rationals
small_exponents = st.integers(0, 3)


def _joined(ops, terms):
    return terms[0] + "".join(op + t for op, t in zip(ops, terms[1:]))


# The README grammar: sums, products, unary minus, powers of an atom or of a
# parenthesised expression, with short sums and products and small exponents.
expressions = st.recursive(
    atoms | st.builds(lambda x, n: f"{x}^{n}", atoms, small_exponents),
    lambda inner: st.one_of(
        st.builds(lambda x: f"-{x}", inner),
        st.builds(lambda x, n: f"({x})^{n}", inner, small_exponents),
        st.builds(lambda xs: "*".join(xs), st.lists(inner, min_size=2, max_size=3)),
        st.builds(_joined, st.lists(st.sampled_from(["+", "-", " + ", " - "]), min_size=2,
                                    max_size=2), st.lists(inner, min_size=3, max_size=3)),
        st.builds(lambda x, y: f"{x}-{y}", inner, inner),
        st.builds(lambda x: f"({x})", inner)),
    max_leaves=6)

# Inserted anywhere, each of these leaves text outside the grammar: "_" is no
# token, "(" leaves a parenthesis open, and "^" takes only a natural number.
OFF_GRAMMAR = ["_", "(", "^-1", "^1/2", "^a", "^(2)"]
# These may or may not leave the grammar: a stray "/" or operator, a space
# inside a number, a doubled token, a non-ASCII digit.
NEAR = ["/", " ", "1 ", "+", "*", "-", ")", "^", "^2", "0", "/0", "a", "١", "²", "."]


@st.composite
def near_miss_expressions(draw, pieces):
    text = draw(expressions)
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(pieces)) + text[at:]


scalar_texts = rationals | st.sampled_from(["-1/2", "i", "1 + i", "2/3 - 5/7*i", "0", "a",
                                            "1/0", "x", ""])


@st.composite
def invocations(draw, text):
    """argv for one of EXPRESSION_COMMANDS on text, with its flags drawn."""
    cmd = draw(st.sampled_from(EXPRESSION_COMMANDS))
    argv = [cmd, "--order", str(draw(st.integers(-1, 101)))]  # 0-100, and just outside
    if cmd != "factor" and draw(st.booleans()):
        argv.append("--pretty")
    if cmd in FORMS and draw(st.booleans()):
        argv += ["--form", draw(st.sampled_from(["left", "right"]))]
    if cmd == "div-linear":
        argv += ["--lambda", draw(scalar_texts)]
    if cmd == "tau":
        argv += ["--x", draw(scalar_texts)]
    argv += ["--", text]  # so that "-a" is an expression, not an option
    if cmd == "mul":
        argv.append(draw(expressions))
    return argv


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3) and "internal error" not in err.getvalue(), (argv, err.getvalue())
    return code, out.getvalue()


@given(data=st.data())
def test_an_invocation_on_grammar_text_never_exits_4(data):
    _cli(data.draw(invocations(data.draw(expressions))))


@given(data=st.data())
def test_an_invocation_on_near_miss_text_never_exits_4(data):
    _cli(data.draw(invocations(data.draw(near_miss_expressions(NEAR)))))


@given(data=st.data())
def test_off_grammar_text_exits_2(data):
    argv = data.draw(invocations(data.draw(near_miss_expressions(OFF_GRAMMAR))))
    assert _cli(argv)[0] == 2


@given(expressions, st.integers(0, 100), st.sampled_from(["left", "right"]), st.booleans())
def test_accepted_text_re_parses_from_its_printed_form(text, order, form, pretty):
    argv = ["normalize", "--order", str(order), "--form", form] + ["--pretty"] * pretty
    code, out = _cli(argv + ["--", text])
    if code == 0:
        x = parse_element(text, order, Ordering(form))
        printed = parse_element(out, order, Ordering(form)) if pretty else element_from_json(
            json.loads(out))
        assert printed == x
        assert _cli(argv + ["--", format_element(x)]) == (0, out)
