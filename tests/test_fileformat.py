import pytest

from dualkit.algebras import InvalidInput
from dualkit.catalog import dl2, luk
from dualkit.constrained import ConstrainedSpace, UnaryConstrainedSpace
from dualkit.fileformat import (
    AlgebraDocument,
    ParseError,
    ValidationError,
    export_dot,
    parse_algebra,
    parse_document,
    parse_space,
    resolve_algebra,
    serialize_algebra,
    serialize_space,
    space_document,
)
from dualkit.spaces import lspace, spectrum
from dualkit.terms import free_one_generated
from dualkit.topology import discrete_topology

DL_DOC = """\
kind: algebra
name: dl2
signature: [["meet", 2], ["join", 2], ["zero", 0], ["one", 0]]
size: 2
labels: ["0", "1"]
table meet: [[0, 0], [0, 1]]
table join: [[0, 1], [1, 1]]
table zero: 0
table one: 1
"""

PRIESTLEY_DOC = """\
kind: constrained-2
dualizer: builtin:dl2
points: ["x", "y"]
constraint ["x"]: [["0"], ["1"]]
constraint ["y"]: [["0"], ["1"]]
constraint ["x", "y"]: [["0", "0"], ["0", "1"], ["1", "1"]]
"""


def test_algebra_document_round_trip():
    doc = parse_algebra(DL_DOC)
    assert doc.algebra == dl2().algebra
    canonical = serialize_algebra(doc)
    assert parse_algebra(canonical).algebra == doc.algebra
    assert serialize_algebra(parse_algebra(canonical)) == canonical


def test_duplicate_keys_rejected_with_line():
    bad = DL_DOC + "size: 2\n"
    with pytest.raises(ParseError) as err:
        parse_document(bad)
    assert err.value.line == 10


def test_missing_colon_is_a_parse_error():
    with pytest.raises(ParseError):
        parse_document("kind algebra")


def test_out_of_range_entry_names_op_and_tuple():
    bad = DL_DOC.replace("table meet: [[0, 0], [0, 1]]",
                         "table meet: [[0, 5], [0, 1]]")
    with pytest.raises(ValidationError) as err:
        parse_algebra(bad)
    assert "meet" in str(err.value) and "(0, 1)" in str(err.value)


def test_builtin_reference_resolves_without_a_file():
    doc = resolve_algebra("builtin:luk(2)")
    assert doc.algebra == luk(2).algebra
    assert doc.labels == ("0", "1/2", "1")


def test_lspace_document_round_trip():
    X = lspace(discrete_topology(2), dl2().algebra, [(0, 0), (0, 1), (1, 1)])
    doc = space_document(X, "builtin:dl2", points=("x", "y"))
    text = serialize_space(doc)
    again = parse_space(text)
    assert again.space.functions == X.functions
    assert again.space.topology == X.topology
    assert serialize_space(again) == text


def test_constrained_document_round_trip():
    doc = parse_space(PRIESTLEY_DOC)
    assert isinstance(doc.space, ConstrainedSpace)
    assert doc.space.constraint((0, 1)) == frozenset({(0, 0), (0, 1), (1, 1)})
    text = serialize_space(doc)
    assert parse_space(text).space.constraint((0, 1)) == doc.space.constraint((0, 1))
    assert serialize_space(parse_space(text)) == text


def test_unary_document_round_trip():
    space = UnaryConstrainedSpace(discrete_topology(2), luk(2).algebra,
                                  [{0, 2}, {0, 1, 2}], [0, 0])
    doc = space_document(space, "builtin:luk(2)", points=("x", "y"))
    text = serialize_space(doc)
    again = parse_space(text)
    assert again.space.fibers == space.fibers
    assert again.space.related(0, 1)
    assert serialize_space(again) == text


def test_poset_document():
    text = 'kind: poset\npoints: ["a", "b"]\nleq: [["a", "b"]]\n'
    doc = parse_space(text)
    assert doc.kind == "poset"
    assert doc.space == [[True, True], [False, True]]
    assert serialize_space(doc) == text


def test_indices_accepted_as_values():
    text = PRIESTLEY_DOC.replace('[["0"], ["1"]]', "[[0], [1]]", 1)
    doc = parse_space(text)
    assert doc.space.constraint((0,)) == frozenset({(0,), (1,)})


def test_unknown_point_rejected():
    bad = PRIESTLEY_DOC.replace('constraint ["x"]', 'constraint ["q"]')
    with pytest.raises(ValidationError):
        parse_space(bad)


TWO_POINT_LSPACE = """\
kind: lspace
dualizer: builtin:dl2
points: ["x", "y"]
comp: [["0", "0"], ["1", "1"]]
"""


def test_opens_parsed_as_subbasis():
    doc = parse_space(TWO_POINT_LSPACE + 'opens: [["x"]]\n')
    assert doc.space.topology.opens == frozenset({0, 1, 3})


@pytest.mark.parametrize("opens", ['3', '[["x"], 5]', '[["x", ["y"]]]', '"xy"', '["xy"]'],
                         ids=["number", "number-subset", "nested-label", "string",
                              "string-subset"])
def test_malformed_opens_rejected(opens):
    with pytest.raises(ValidationError):
        parse_space(TWO_POINT_LSPACE + "opens: %s\n" % opens)


UNARY_DOC = """\
kind: constrained-unary
dualizer: builtin:dl2
points: ["x", "y"]
fibers: [["0", "1"], ["0", "1"]]
equiv: [["x"], ["y"]]
"""


@pytest.mark.parametrize("comp", ['[5]', '[["0", "0"], "11"]', '5'],
                         ids=["number", "string", "bare-number"])
def test_malformed_comp_rejected(comp):
    text = TWO_POINT_LSPACE.replace('[["0", "0"], ["1", "1"]]', comp)
    with pytest.raises(ValidationError, match="comp"):
        parse_space(text)


@pytest.mark.parametrize("fibers", ['[5, ["0"]]', '[["0"], "01"]'], ids=["number", "string"])
def test_malformed_fibers_rejected(fibers):
    text = UNARY_DOC.replace('[["0", "1"], ["0", "1"]]', fibers)
    with pytest.raises(ValidationError, match="fibers"):
        parse_space(text)


@pytest.mark.parametrize("equiv", ['5', '[5, ["y"]]', '[["x", ["y"]]]', '["xy"]'],
                         ids=["number", "number-block", "nested-label", "string-block"])
def test_malformed_equiv_rejected(equiv):
    text = UNARY_DOC.replace('[["x"], ["y"]]', equiv)
    with pytest.raises(ValidationError, match="equiv"):
        parse_space(text)


@pytest.mark.parametrize("value", ['5', '[5]', '["0"]'], ids=["number", "number-row", "string-row"])
def test_malformed_constraint_rejected(value):
    text = PRIESTLEY_DOC.replace('constraint ["x"]: [["0"], ["1"]]', 'constraint ["x"]: %s' % value)
    with pytest.raises(ValidationError, match=r'constraint \["x"\]'):
        parse_space(text)


@pytest.mark.parametrize("key", ['5', '[["x"]]', '"x"'], ids=["number", "nested", "string"])
def test_malformed_constraint_key_rejected(key):
    text = PRIESTLEY_DOC.replace('constraint ["x"]:', 'constraint %s:' % key)
    with pytest.raises(ValidationError, match="bad constraint key"):
        parse_space(text)


@pytest.mark.parametrize("leq", ['5', '[5]', '[["a", ["b"]]]'],
                         ids=["number", "number-pair", "nested"])
def test_malformed_leq_rejected(leq):
    with pytest.raises(ValidationError, match="leq"):
        parse_space('kind: poset\npoints: ["a", "b"]\nleq: %s\n' % leq)


def test_dot_for_two_chain_has_one_edge():
    doc = parse_space(PRIESTLEY_DOC)
    dot = export_dot(doc)
    assert dot.count("->") == 1
    assert '"x" -> "y"' in dot


def test_dot_for_antichain_has_no_edges():
    text = 'kind: poset\npoints: ["a", "b"]\nleq: []\n'
    dot = export_dot(parse_space(text))
    assert "->" not in dot


def test_dot_for_spectrum_is_isolated_annotated_nodes():
    from dualkit.catalog import bool2
    F, _ = free_one_generated(bool2().algebra)
    spec = spectrum(F, bool2().algebra)
    doc = space_document(spec.space, "builtin:bool2")
    dot = export_dot(doc)
    assert "->" not in dot
    assert dot.count("label=") == 2


def test_dot_for_unary_boxes_classes():
    space = UnaryConstrainedSpace(discrete_topology(3), luk(2).algebra,
                                  [{0, 2}, {0, 2}, {0, 1, 2}], [0, 0, 1])
    doc = space_document(space, "builtin:luk(2)")
    dot = export_dot(doc)
    assert dot.count("subgraph cluster_") == 2
    assert "1/2" in dot


def old_label_index(doc, value):
    """``AlgebraDocument.label_index`` before its label dict: two scans of
    the labels."""
    if isinstance(value, int):
        if not 0 <= value < doc.algebra.size:
            raise ValidationError("element index %r out of range" % value)
        return value
    if value in doc.labels:
        return doc.labels.index(value)
    raise ValidationError("unknown element label %r" % (value,))


def _outcome(call, *args):
    try:
        return call(*args)
    except ValidationError as exc:
        return str(exc)


@pytest.mark.parametrize("labels", [("0", "1/2", "1"), ("a", "b", "a")], ids=["luk2", "repeated"])
def test_label_index_matches_two_scans(labels):
    doc = AlgebraDocument("luk2", luk(2).algebra, labels)
    values = list(labels) + [0, 2, 3, -1, "2/3", "", ["0"], ("0",), {"0": 1}, None, 1.0]
    for value in values:
        assert _outcome(doc.label_index, value, "comp") == _outcome(old_label_index, doc, value)
    assert _outcome(doc.label_index, ["0"], "comp") == "unknown element label ['0']"
    # the two scans read True as the index 1; a boolean names no element
    assert _outcome(old_label_index, doc, True) == 1
    assert _outcome(doc.label_index, True, "comp") == "boolean true in 'comp' is not an element"
    assert _outcome(doc.label_index, False, "comp") == "boolean false in 'comp' is not an element"


def test_a_repeated_point_in_a_constraint_key_is_named():
    # sorted, so the document-order check passed it, and the key of one
    # point then refused its rows of two values
    text = PRIESTLEY_DOC.replace('constraint ["x", "y"]', 'constraint ["x", "x"]')
    with pytest.raises(ValidationError) as err:
        parse_space(text)
    assert str(err.value) == "point 'x' repeated in constraint key 'constraint [\"x\", \"x\"]'"
    text = PRIESTLEY_DOC.replace('constraint ["x", "y"]', 'constraint ["y", "x", "x"]')
    with pytest.raises(ValidationError, match="document order"):
        parse_space(text)


@pytest.mark.parametrize("text, key, value", [
    (PRIESTLEY_DOC.replace('[["0", "0"], ["0", "1"]', '[[true, true], ["0", "1"]'),
     'constraint ["x", "y"]', "true"),
    (TWO_POINT_LSPACE.replace('[["0", "0"], ["1", "1"]]', "[[false, false], [true, true]]"),
     "comp", "false"),
    (UNARY_DOC.replace('[["0", "1"], ["0", "1"]]', '[["0", "1"], [true]]'), "fibers", "true"),
], ids=["constraint", "comp", "fibers"])
def test_a_json_boolean_is_no_element_of_a_space(text, key, value):
    # true and false are the Python ints 1 and 0, which label_index took
    # for element indices
    with pytest.raises(ValidationError) as err:
        parse_space(text)
    assert str(err.value) == "boolean %s in %r is not an element" % (value, key)


@pytest.mark.parametrize("old, new, key, value", [
    ("table neg: [1, 0]", "table neg: [true, false]", "table neg", "true"),
    ("table zero: 0", "table zero: false", "table zero", "false"),
    ("table meet: [[0, 0], [0, 1]]", "table meet: [[0, 0], [false, true]]", "table meet",
     "false"),
], ids=["unary", "constant", "binary"])
def test_a_json_boolean_is_no_table_entry(old, new, key, value):
    text = serialize_algebra(resolve_algebra("builtin:bool2"))
    assert old in text
    with pytest.raises(ValidationError) as err:
        parse_algebra(text.replace(old, new))
    assert str(err.value) == "boolean %s in %r is not an element" % (value, key)


def test_constraint_keys_read_as_json_after_the_prefix():
    # json.loads skips JSON whitespace before the value, so these parsed
    for spacing in ("  ", " \t", " \t "):
        text = PRIESTLEY_DOC.replace('constraint ["x"]', 'constraint%s["x"]' % spacing)
        assert parse_space(text).space.constraint((0,)) == frozenset({(0,), (1,)})
    # but not other whitespace, a BOM, or more than one value
    for key in ('constraint \u00a0["x"]', 'constraint \ufeff["x"]', 'constraint ["x"] ["y"]'):
        with pytest.raises(ValidationError, match="bad constraint key"):
            parse_space(PRIESTLEY_DOC.replace('constraint ["x"]', key))


def test_a_row_of_the_wrong_length_is_refused_after_every_other_fault():
    short = PRIESTLEY_DOC.replace('[["0", "0"], ["0", "1"], ["1", "1"]]', '[["0"], ["1", "1"]]')
    with pytest.raises(InvalidInput, match=r"local function of wrong length for \(0, 1\)"):
        parse_space(short)
    # a label fault in a later entry comes first
    later = short.replace('constraint ["y"]: [["0"], ["1"]]', 'constraint ["y"]: [["0"], ["2/3"]]')
    with pytest.raises(ValidationError, match="unknown element label '2/3'"):
        parse_space(later)
    # and a fault of the keys the store finds, such as a missing constraint
    missing = short.replace('points: ["x", "y"]', 'points: ["x", "y", "z"]')
    with pytest.raises(InvalidInput, match=r"missing constraint for \[0, 2\]"):
        parse_space(missing)
    # the largest keys are encoded first, so the pair is named before the point
    both = short.replace('constraint ["x"]: [["0"], ["1"]]', 'constraint ["x"]: [["0", "0"]]')
    with pytest.raises(InvalidInput, match=r"local function of wrong length for \(0, 1\)"):
        parse_space(both)


def test_points_that_cannot_be_hashed_are_refused():
    # a list among the points made set() raise TypeError, a traceback
    text = TWO_POINT_LSPACE.replace('points: ["x", "y"]', 'points: [["x"], "y"]')
    with pytest.raises(ValidationError, match="points must be a list of distinct labels"):
        parse_space(text)
