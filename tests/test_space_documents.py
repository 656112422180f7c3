"""Differential tests of the one-pass space-document parser and of the
validation checks that read the stored codes, against the code they replaced.

The oracles are that code, kept verbatim up to imports and names:
``parse_document`` calling ``json.loads`` on each value,
``_space_from_document`` walking each constraint entry three times
(``_list_of_lists``, ``_value_tuple``, then the ``ConstrainedSpace``
constructor's encoding), ``label_index`` reading JSON's true and false as
the indices 1 and 0, ``_project`` through ``power_tuple`` and
``power_index``, ``_check_closed`` on the decoded tuples, ``_is_subdirect``
on that projection, and ``validate_constrained`` and ``_mv_order`` (the
order ``priestley_to_order`` reads) reading each pair of points through
``constraint_tuple``.

Three changes of meaning are switched on in the oracle by name, so every
other message is compared as the old parser gave it: ``booleans`` refuses a
JSON boolean where an element is expected, naming the key, ``repeats``
refuses a constraint key that repeats a point, naming the point (the old
order check let it through to a wrong-length error on the smaller key), and
``misspelled`` refuses a key that starts with ``constraint`` but not with
``constraint `` (the old loop skipped it, dropping its entry).  The oracle
reads ``points`` with today's ``_parse_points``, which refuses points that
are distinct values but one label, such as 1 and "1".

The documents compared are every space document of the benchmark's input
sets 0, 1 and 7, and documents mutated at random: keys, entries, rows,
labels, whitespace, ``points`` and ``a_empty``.  The JSON scan is compared
with ``json.loads`` on arbitrary text.
"""

import itertools
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualkit.cli as cli
from dualkit.algebras import InvalidInput, power_index, power_tuple, unclosed_operation
from dualkit.catalog import luk
from dualkit.constrained import (
    ConstrainedReport,
    ConstrainedSpace,
    UnaryConstrainedSpace,
    _check_closed,
    _family_is_continuous,
    _is_subdirect,
    _mv_order,
    _project,
    validate_constrained,
)
from dualkit.fileformat import (
    ParseError,
    SpaceDocument,
    ValidationError,
    _json_value,
    _list_of_lists,
    _parse_points,
    _parse_poset,
    _parse_topology,
    parse_document,
    parse_space,
    resolve_algebra,
)
from dualkit.spaces import lspace
from dualkit.topology import discrete_topology

from test_constrained_kernel import closed_kary_spaces, kary_spaces
from test_property_kernels import _docgen


# --- the oracles ------------------------------------------------------------------

def old_parse_document(text: str) -> dict:
    """Key/value lines -> ordered dict; values are JSON or raw strings."""
    out: dict[str, object] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(number, "expected 'key: value'")
        key, _, value = line.partition(":")
        key = key.strip()
        if not key:
            raise ParseError(number, "empty key")
        if key in out:
            raise ParseError(number, "duplicate key %r" % key)
        value = value.strip()
        try:
            out[key] = json.loads(value)
        except json.JSONDecodeError:
            out[key] = value
    return out


def old_label_index(doc, value, key, booleans):
    """``AlgebraDocument.label_index`` before booleans were refused, unless
    ``booleans``."""
    if booleans and isinstance(value, bool):
        raise ValidationError("boolean %s in %r is not an element" % (json.dumps(value), key))
    if isinstance(value, int):
        if not 0 <= value < doc.algebra.size:
            raise ValidationError("element index %r out of range" % value)
        return value
    try:
        return doc._index[value]
    except (KeyError, TypeError):
        raise ValidationError("unknown element label %r" % (value,))


def old_value_tuple(dualizer_doc, values, key, booleans):
    return tuple(old_label_index(dualizer_doc, v, key, booleans) for v in values)


def old_space_from_document(doc: dict, booleans=False, repeats=False, misspelled=False):
    """The space of a document already split by ``parse_document``."""
    kind = doc.get("kind")
    if kind == "poset":
        return _parse_poset(doc)
    if kind not in ("lspace", "constrained-unary") and not (
            isinstance(kind, str) and kind.startswith("constrained-")):
        raise ValidationError("unknown document kind %r" % kind)
    ref = doc.get("dualizer")
    if not isinstance(ref, str):
        raise ValidationError("missing dualizer reference")
    dualizer = resolve_algebra(ref)
    points = _parse_points(doc)
    top = _parse_topology(doc, points)
    index = {p: i for i, p in enumerate(points)}

    if kind == "lspace":
        comp = doc.get("comp")
        if not isinstance(comp, list):
            raise ValidationError("lspace documents need a comp block")
        functions = [old_value_tuple(dualizer, f, "comp", booleans)
                     for f in _list_of_lists(comp, "comp", "element labels")]
        space = lspace(top, dualizer.algebra, functions)
        return SpaceDocument(kind, points, ref, dualizer, space)

    if kind == "constrained-unary":
        fibers_doc = doc.get("fibers")
        if not isinstance(fibers_doc, list) or len(fibers_doc) != len(points):
            raise ValidationError("fibers must list one value set per point")
        fibers = [frozenset(old_label_index(dualizer, v, "fibers", booleans) for v in f)
                  for f in _list_of_lists(fibers_doc, "fibers", "element labels")]
        equiv_doc = doc.get("equiv")
        classes = list(range(len(points)))
        if equiv_doc is not None:
            seen = set()
            for c, block in enumerate(_list_of_lists(equiv_doc, "equiv", "point labels", str)):
                for p in block:
                    if p not in index or p in seen:
                        raise ValidationError("bad equivalence block %r" % (block,))
                    seen.add(p)
                    classes[index[p]] = c
            if len(seen) != len(points):
                raise ValidationError("equivalence blocks must cover every point")
        a_empty = doc.get("a_empty")
        space = UnaryConstrainedSpace(top, dualizer.algebra, fibers, classes,
                                      a_empty if a_empty is None else bool(a_empty))
        return SpaceDocument(kind, points, ref, dualizer, space)

    try:
        k = int(kind.split("-", 1)[1])
    except ValueError:
        raise ValidationError("unknown document kind %r" % kind)
    family = {}
    for key, value in doc.items():
        if not key.startswith("constraint "):
            if misspelled and key.startswith("constraint"):
                raise ValidationError("bad constraint key %r" % key)
            continue
        try:
            subset = json.loads(key[len("constraint "):])
        except json.JSONDecodeError:
            raise ValidationError("bad constraint key %r" % key)
        if not isinstance(subset, list) or not all(isinstance(p, str) for p in subset):
            raise ValidationError("bad constraint key %r" % key)
        try:
            pts = tuple(index[p] for p in subset)
        except KeyError as exc:
            raise ValidationError("unknown point %s in constraint key" % exc)
        if sorted(pts) != list(pts):
            raise ValidationError("constraint keys list points in document order")
        if repeats and len(set(pts)) != len(pts):
            repeated = next(subset[i] for i in range(1, len(pts)) if pts[i] == pts[i - 1])
            raise ValidationError("point %r repeated in constraint key %r" % (repeated, key))
        family[frozenset(pts)] = {old_value_tuple(dualizer, f, key, booleans)
                                  for f in _list_of_lists(value, key, "element labels")}
    if "a_empty" in doc:
        family[frozenset()] = {()} if doc["a_empty"] else set()
    space = ConstrainedSpace(k, top, dualizer.algebra, family)
    return SpaceDocument(kind, points, ref, dualizer, space)


def old_project(codes, I: tuple, J: tuple, size: int) -> frozenset:
    """The codes of local functions on the sorted tuple I, read at the sorted
    points J of I."""
    at = [I.index(x) for x in J]
    return frozenset(power_index(size, [values[i] for i in at])
                     for values in (power_tuple(size, len(I), c) for c in codes))


def old_check_closed(space: ConstrainedSpace) -> None:
    """InvalidInput unless every stored constraint is a subuniverse."""
    # many keys hold the same set (a Priestley space has four pair sets at
    # most), and the answer depends on the set alone
    closed = set()
    for I, codes in space._codes.items():
        if (len(I), codes) not in closed:
            if unclosed_operation(space.dualizer, len(I), space.constraint(I)) is not None:
                raise InvalidInput("constraint for %r is not a subuniverse" % list(I))
            closed.add((len(I), codes))


def old_is_subdirect(space: ConstrainedSpace) -> bool:
    """Every projection of every largest stored A_I equals the A_J that
    constraint() derives, so any two stored constraints agree on their
    common points."""
    m, size = min(space.k, space.n), space.dualizer.size
    return all(old_project(codes, I, J, size) == space._codes_of(J)
               for I, codes in space._codes.items() if len(I) == m
               for points in range(m) for J in itertools.combinations(I, points))


def old_mv_order(space) -> list[list[bool]]:
    """x <= y iff every pair (a, b) of A_{x,y} has a <= b."""
    return [[all(a <= b for a, b in space.constraint_tuple((x, y))) for y in range(space.n)]
            for x in range(space.n)]


def old_validate_constrained(space: ConstrainedSpace) -> ConstrainedReport:
    n = space.n
    old_check_closed(space)
    subdirect = old_is_subdirect(space)
    continuous = _family_is_continuous(space)

    separated = True
    for x in range(n):
        for y in range(x + 1, n):
            pairs = space.constraint_tuple((x, y))
            if not any(a != b for a, b in pairs):
                separated = False
    return ConstrainedReport(subdirect, continuous, separated, continuous)


# --- comparison -------------------------------------------------------------------

def summary(doc):
    """What a parsed space document holds, comparable with ==: for a
    constrained space its stored codes, in the store's order."""
    space = doc.space
    head = (doc.kind, doc.points, doc.dualizer_ref, doc.dualizer)
    if doc.kind == "poset":
        return head + (space,)
    if isinstance(space, ConstrainedSpace):
        return head + (space.k, space.topology, list(space._codes.items()))
    if isinstance(space, UnaryConstrainedSpace):
        return head + (space.topology, space.fibers, space.equiv, space.a_empty)
    return head + (space.topology, space.functions)


def outcome(fn, *args):
    """fn's result, or the type and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:        # a crash must match too
        return (type(exc).__name__, str(exc))


def new_parse(text):
    return summary(parse_space(text))


def old_parse(text):
    return summary(old_space_from_document(old_parse_document(text), booleans=True, repeats=True,
                                           misspelled=True))


def same_checks(space):
    """The checks on codes against their oracles, on one constrained space."""
    assert outcome(_check_closed, space) == outcome(old_check_closed, space)
    assert _is_subdirect(space) == old_is_subdirect(space)
    assert outcome(validate_constrained, space) == outcome(old_validate_constrained, space)
    assert _mv_order(space) == old_mv_order(space)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_benchmark_documents_match_the_oracle(seed):
    with tempfile.TemporaryDirectory() as directory:
        _docgen().generate(seed, directory)
        texts = [path.read_text() for path in sorted(Path(directory).iterdir())]
    kinds = set()
    for text in texts:
        kind = parse_document(text)["kind"]
        if kind == "algebra":
            continue
        kinds.add(kind)
        assert new_parse(text) == old_parse(text)
        assert parse_document(text) == old_parse_document(text)
        space = parse_space(text).space
        if isinstance(space, ConstrainedSpace):
            same_checks(space)
    assert kinds == {"lspace", "poset", "constrained-2"}


# --- mutated documents ------------------------------------------------------------

BASES = {
    "priestley": [
        ("kind", "constrained-2"), ("dualizer", "builtin:dl2"), ("points", ["p0", "p1", "p2"]),
        ('constraint ["p0"]', [["0"], ["1"]]), ('constraint ["p1"]', [["0"], ["1"]]),
        ('constraint ["p2"]', [["0"], ["1"]]),
        ('constraint ["p0", "p1"]', [["0", "0"], ["0", "1"], ["1", "1"]]),
        ('constraint ["p0", "p2"]', [["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"]]),
        ('constraint ["p1", "p2"]', [["0", "0"], ["1", "0"], ["1", "1"]])],
    "binary": [
        ("kind", "constrained-2"), ("dualizer", "builtin:luk(2)"), ("points", ["p0", "p1"]),
        ('constraint ["p0"]', [["0"], ["1/2"], ["1"]]), ('constraint ["p1"]', [["0"], ["1"]]),
        ('constraint ["p0", "p1"]', [["0", "0"], ["1/2", "0"], ["1", "1"], [2, 1]]),
        ("opens", [["p0", "p1"]])],
    "ternary": [
        ("kind", "constrained-3"), ("dualizer", "builtin:dl2"), ("points", ["a", "b", "c"]),
        ('constraint ["a", "b", "c"]', [["0", "0", "0"], ["0", "1", "1"], ["1", "1", "1"]]),
        ('constraint ["b"]', [["0"], ["1"]])],
    "bare": [
        ("kind", "constrained-2"), ("dualizer", "builtin:posluk(1)"), ("points", ["x", "y"]),
        ('constraint ["x", "y"]', [["0", "1"], ["1", "1"]]), ("a_empty", True)],
    "lspace": [
        ("kind", "lspace"), ("dualizer", "builtin:luk(2)"), ("points", ["p0", "p1"]),
        ("opens", [["p0"]]), ("comp", [["0", "0"], ["1/2", "1/2"], ["1", "1"]])],
    "unary": [
        ("kind", "constrained-unary"), ("dualizer", "builtin:dl2"), ("points", ["p0", "p1"]),
        ("fibers", [["0", "1"], ["0"]]), ("equiv", [["p0"], ["p1"]]), ("a_empty", True)],
}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3), max_leaves=5)
LABELS = st.sampled_from(["0", "1", "1/2", "x", "", 0, 1, 2, 3, -1, True, False, 1.0, 0.0,
                          None, ["0"], {"0": 1}])
SPACES = st.sampled_from([" ", "  ", "\t", "", " \t "])


def _subset_text(draw, subset, points):
    """A constraint key's point list, mutated and written with drawn spacing."""
    kind = draw(st.sampled_from(["same", "drop", "repeat", "swap", "unknown", "number",
                                 "nested", "garbage"]))
    subset = list(subset)
    if kind == "drop" and subset:
        del subset[draw(st.integers(0, len(subset) - 1))]
    elif kind == "repeat" and subset:
        at = draw(st.integers(0, len(subset) - 1))
        subset.insert(draw(st.integers(at, len(subset))), subset[at])
    elif kind == "swap" and len(subset) > 1:
        subset.reverse()
    elif kind == "unknown":
        subset.insert(draw(st.integers(0, len(subset))), draw(st.sampled_from(["q", "", "P0"])))
    elif kind == "number":
        subset = draw(st.sampled_from([5, [0], [1, "p1"]]))
    elif kind == "nested":
        subset = [subset]
    elif kind == "garbage":
        return draw(st.sampled_from(['["p0"', "p0", '["p0"] ["p1"]', "", "\ufeff[\"p0\"]",
                                     '["a" "b"]', "NaN", "[] x"]))
    if kind != "same" and isinstance(subset, list) and draw(st.booleans()):
        subset = subset + [draw(st.sampled_from(points))]
    separator = draw(st.sampled_from([", ", ",", " , ", ",\t"]))
    return draw(SPACES) + json.dumps(subset, separators=(separator, ": "))


def _mutated_rows(draw, rows):
    rows = [list(r) if isinstance(r, list) else r for r in rows]
    kind = draw(st.sampled_from(["drop", "duplicate", "short", "long", "not a list",
                                 "empty row", "label", "label", "label"]))
    if not rows:
        return [[draw(LABELS)]]
    at = draw(st.integers(0, len(rows) - 1))
    if kind == "drop":
        del rows[at]
    elif kind == "duplicate":
        rows.insert(draw(st.integers(0, len(rows))), rows[at])
    elif kind == "short" and isinstance(rows[at], list):
        rows[at] = rows[at][1:]
    elif kind == "long" and isinstance(rows[at], list):
        rows[at] = rows[at] + [draw(LABELS)]
    elif kind == "not a list":
        rows[at] = draw(st.sampled_from(["0", 0, None, {"0": 0}, True]))
    elif kind == "empty row":
        rows.insert(at, [])
    elif isinstance(rows[at], list) and rows[at]:
        rows[at][draw(st.integers(0, len(rows[at]) - 1))] = draw(LABELS)
    return rows


@st.composite
def mutated_space_documents(draw):
    """The text of a space document with one to three drawn mutations."""
    lines = [[key, value, None] for key, value in BASES[draw(st.sampled_from(sorted(BASES)))]]
    points = lines[2][1]
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["key", "key", "entry", "rows", "rows", "rows", "rows",
                                     "whitespace", "whitespace", "points", "a_empty", "delete",
                                     "repeat line"]))
        # the kind, dualizer and points lines come first; keys, entries and
        # rows are drawn among the lines after them
        first = 3 if kind in ("key", "entry", "rows") and len(lines) > 3 else 0
        at = draw(st.integers(first, len(lines) - 1))
        key, value, raw = lines[at]
        if kind == "key" and key.startswith("constraint "):
            try:
                subset = json.loads(key[len("constraint "):])
            except json.JSONDecodeError:        # a key mutated already
                subset = None
            if isinstance(subset, list):
                prefix = draw(st.sampled_from(["constraint "] * 4 + [
                    "constraint", "constraint\u00a0", "constraints "]))
                lines[at][0] = prefix + _subset_text(draw, subset, points)
        elif kind == "entry":
            lines[at][1] = draw(JSON_VALUES)
        elif kind == "rows" and isinstance(value, list) and key not in ("points", "opens",
                                                                          "equiv"):
            lines[at][1] = _mutated_rows(draw, value)
        elif kind == "whitespace":
            separators = draw(st.sampled_from([(", ", ": "), (",", ":"), (" ,  ", " : ")]))
            text = json.dumps(value, separators=separators)
            lines[at][2] = (draw(SPACES) + key + draw(SPACES) + ":" + draw(SPACES)
                            + draw(st.sampled_from(["", "\ufeff"])) + text + draw(SPACES))
        elif kind == "points":
            mutated = list(points)
            how = draw(st.sampled_from(["drop", "extra", "duplicate", "reverse", "number",
                                        "nested", "not a list"]))
            if how == "drop" and mutated:
                mutated.pop()
            elif how == "extra":
                mutated.append(draw(st.sampled_from(["q", "p9", 7])))
            elif how == "duplicate" and mutated:
                mutated.append(mutated[0])
            elif how == "reverse":
                mutated.reverse()
            elif how == "number":
                mutated = [0, 1, 2][:len(mutated)]
            elif how == "nested":
                mutated = [[p] for p in mutated]
            else:
                mutated = draw(st.sampled_from(["p0 p1", 3, None]))
            for line in lines:
                if line[0] == "points":
                    line[1] = mutated
        elif kind == "a_empty":
            flag = draw(st.sampled_from([True, False, 0, 1, "no", None, []]))
            lines = [line for line in lines if line[0] != "a_empty"]
            lines.insert(draw(st.integers(0, len(lines))), ["a_empty", flag, None])
        elif kind == "delete" and len(lines) > 1:
            del lines[at]
        elif kind == "repeat line":
            lines.insert(draw(st.integers(0, len(lines))), list(lines[at]))
    return "".join((raw if raw is not None else "%s: %s" % (key, json.dumps(value))) + "\n"
                   for key, value, raw in lines)


@settings(max_examples=500, deadline=None)
@given(text=mutated_space_documents())
def test_mutated_space_documents_match_the_oracle(text):
    assert outcome(new_parse, text) == outcome(old_parse, text)


def test_the_two_changes_of_meaning():
    # without them the oracle reads true as 1 and lets a repeated point
    # through to a wrong-length error on the smaller key
    lines = dict(BASES["priestley"])
    boolean = lines.copy()
    boolean['constraint ["p0"]'] = [[True], ["0"]]
    repeated = lines.copy()
    del repeated['constraint ["p0", "p1"]']
    repeated['constraint ["p0", "p0"]'] = [["0", "0"]]
    for items, message in [
            (boolean, "boolean true in 'constraint [\"p0\"]' is not an element"),
            (repeated, "point 'p0' repeated in constraint key 'constraint [\"p0\", \"p0\"]'")]:
        text = "".join("%s: %s\n" % (key, json.dumps(value)) for key, value in items.items())
        assert outcome(new_parse, text) == ("ValidationError", message)
        assert outcome(old_parse, text) == ("ValidationError", message)
        assert outcome(new_parse, text) != outcome(
            lambda t: summary(old_space_from_document(old_parse_document(t))), text)


@pytest.mark.parametrize("prefix", ["constraint", "constraint\u00a0", "constraints "])
def test_a_misspelled_constraint_key_is_refused(prefix):
    # the old loop skipped it, so its entry was dropped without a word
    def document(lines):
        return "".join("%s: %s\n" % (key, json.dumps(value)) for key, value in lines.items())

    lines = dict(BASES["priestley"])
    lines[prefix + '["p0"]'] = lines.pop('constraint ["p0"]')
    text = document(lines)
    message = "bad constraint key %r" % (prefix + '["p0"]')
    assert outcome(new_parse, text) == outcome(old_parse, text) == ("ValidationError", message)
    skipped = summary(old_space_from_document(old_parse_document(text), booleans=True,
                                              repeats=True))
    del lines[prefix + '["p0"]']
    assert skipped == new_parse(document(lines))


def test_points_that_print_as_one_label_are_refused(capsys, tmp_path):
    # 1 and "1" are distinct JSON values, and export-dot drew two nodes "1"
    text = 'kind: lspace\ndualizer: builtin:dl2\npoints: [1, "1"]\ncomp: [["0", "0"], ["1", "1"]]\n'
    assert outcome(new_parse, text) == (
        "ValidationError", "points must be a list of distinct labels")
    path = tmp_path / "points.dk"
    path.write_text(text)
    code = cli.main(["export-dot", str(path)])
    assert (code,) + tuple(capsys.readouterr()) == (
        2, "", "error: points must be a list of distinct labels\n")
    # labels that differ as text still pass
    assert new_parse(text.replace('[1, "1"]', '[1, "x"]'))[1] == ("1", "x")


# --- the JSON scan ----------------------------------------------------------------

JSON_PIECES = st.lists(st.sampled_from(
    [" ", "\t", "\n", "\r", "\ufeff", "\u00a0", "\x0b", "[", "]", "{", "}", ",", ":", '"', "\\",
     "\\u00", "1", "-", ".", "e", "NaN", "Infinity", "-Infinity", "true", "null", "x", "0",
     '"p0"', "\x00", "1" * 4500]), max_size=10).map("".join)


def json_loads_or(text, default):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return default


@settings(max_examples=1500, deadline=None)
@given(text=st.one_of(st.text(max_size=12), JSON_PIECES,
                      JSON_VALUES.map(json.dumps).flatmap(
                          lambda t: st.tuples(SPACES, SPACES, st.sampled_from(["", "x", ",", "]"]))
                          .map(lambda s: s[0] + t + s[1] + s[2]))))
def test_the_json_scan_matches_json_loads(text):
    # repr tells NaN and its neighbours apart (NaN != NaN), and 1, 1.0 and True
    default = object()
    assert repr(outcome(_json_value, text, default)) == repr(outcome(json_loads_or, text, default))
    lines = text.replace("\n", " ").replace("\r", " ")
    document = "a: %s\nb :%s\n" % (lines, lines)
    assert repr(outcome(parse_document, document)) == repr(outcome(old_parse_document, document))


# --- the checks on codes ----------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(space=st.one_of(kary_spaces(), closed_kary_spaces()))
def test_the_checks_on_codes_match_their_oracles(space):
    m, size = min(space.k, space.n), space.dualizer.size
    for I, codes in space._codes.items():
        for points in range(len(I) + 1):
            for at in itertools.combinations(range(len(I)), points):
                J = tuple(I[i] for i in at)
                assert _project(codes, len(I), at, size) == old_project(codes, I, J, size)
    assert all(len(I) in (0, 1, m) for I in space._codes)
    same_checks(space)


def test_closedness_reads_codes_past_int64():
    # ten points over luk(99): the codes of the one key run to 100^10 > 2^63,
    # so the closure kernel reads them as exact Python ints
    L, n = luk(99).algebra, 10
    constants = {tuple([v] * n) for v in range(L.size)}
    space = ConstrainedSpace(n, discrete_topology(n), L, {frozenset(range(n)): constants})
    assert max(space._codes[tuple(range(n))]) > 2**63
    same_checks(space)
    assert validate_constrained(space).valid
    broken = ConstrainedSpace(n, discrete_topology(n), L,
                              {frozenset(range(n)): constants | {(1,) + (0,) * (n - 1)}})
    assert outcome(_check_closed, broken) == outcome(old_check_closed, broken) == (
        "InvalidInput", "constraint for %r is not a subuniverse" % list(range(n)))


def test_separation_stops_at_the_first_pair_on_the_diagonal(monkeypatch):
    # the pair codes of dl2 are 2a + b, the diagonal 0 and 3: a and b are
    # not separated, so the pairs after them are not read
    text = "".join("%s: %s\n" % (key, json.dumps(value)) for key, value in [
        ("kind", "constrained-2"), ("dualizer", "builtin:dl2"), ("points", ["a", "b", "c"]),
        ('constraint ["a", "b"]', [["0", "0"], ["1", "1"]]),
        ('constraint ["a", "c"]', [["0", "1"], ["0", "0"], ["1", "1"]]),
        ('constraint ["b", "c"]', [["0", "0"], ["1", "1"], ["1", "0"]])])
    space = parse_space(text).space
    assert validate_constrained(space) == old_validate_constrained(space)
    reads, read = [], ConstrainedSpace._codes_of

    def counting(self, I):
        reads.append(I)
        return read(self, I)

    monkeypatch.setattr(ConstrainedSpace, "_codes_of", counting)
    assert not validate_constrained(space).separated
    # subdirectness reads the points and the empty key; separation one pair
    assert [I for I in reads if len(I) == 2] == [(0, 1)]
