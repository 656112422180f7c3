"""Line-oriented document formats and DOT export.

Documents are ``key: value`` lines with JSON-style values; ``#`` starts a
comment line and duplicate keys are rejected.  Algebra tables are nested
arrays, row-major in the first argument.  Element values inside space
documents are written as dualizer labels; bare indices are accepted on
input, and JSON's true and false are neither.  Parsing errors carry line
numbers and are distinct from semantic validation errors.
"""

from __future__ import annotations

import functools
import json
import operator
from dataclasses import dataclass, field

from .algebras import (DEFAULT_BUDGET, FiniteAlgebra, InvalidInput, Signature, power_index,
                       power_tuple)
from .catalog import build
from .constrained import ConstrainedSpace, UnaryConstrainedSpace, _mv_order
from .spaces import LSpace, lspace
from .topology import bits_of, discrete_topology, mask_of, topology_from_subbasis


class ParseError(ValueError):
    """Syntactically malformed document; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__("line %d: %s" % (line, message))
        self.line = line


class ValidationError(InvalidInput):
    """Well-formed document with inconsistent content."""


_SCAN = json.JSONDecoder().scan_once
_SPACE = json.decoder.WHITESPACE.match


def _json_value(text: str, default):
    """``json.loads(text)``, or ``default`` where that raises
    JSONDecodeError: one scan from the first character after JSON
    whitespace, which must end the text but for more whitespace.  A text
    that starts with a BOM, which ``json.loads`` refuses, has no value
    there, so the scan refuses it too."""
    try:
        value, end = _SCAN(text, _SPACE(text).end())
    except (StopIteration, json.JSONDecodeError):
        return default
    return value if end == len(text) or _SPACE(text, end).end() == len(text) else default


def _boolean(value, key: str) -> ValidationError:
    """JSON's true and false are Python ints, but name no element."""
    return ValidationError("boolean %s in %r is not an element" % (json.dumps(value), key))


def parse_document(text: str) -> dict:
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
        out[key] = _json_value(value, value)
    return out


def serialize_document(items) -> str:
    lines = []
    for key, value in items:
        if isinstance(value, str):
            lines.append("%s: %s" % (key, value))
        else:
            lines.append("%s: %s" % (key, json.dumps(value)))
    return "\n".join(lines) + "\n"


# --- algebras ---------------------------------------------------------------------

def _integer(value, what: str) -> int:
    """value as an int by the rule ``_is_element`` uses (``operator.index``);
    a float, a string or anything else is a TypeError naming ``what``."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError("%s must be an integer, found %r" % (what, value)) from None


def _nest_table(table, size, arity):
    if arity == 0:
        return table[0]
    if arity == 1:
        return list(table)
    width = size ** (arity - 1)
    return [_nest_table(table[i * width:(i + 1) * width], size, arity - 1)
            for i in range(size)]


def _flatten_table(nested, size, arity, name):
    """The entries of a nested table as one list, row-major."""
    if arity == 0:
        if not isinstance(nested, int):
            raise ValidationError("table for %r must be a single index" % name)
        return [nested]
    if not isinstance(nested, list) or len(nested) != size:
        raise ValidationError("table for %r must have %d rows" % (name, size))
    out = []
    for row in nested:
        out.extend(_flatten_table(row, size, arity - 1, name))
    return out


@dataclass(frozen=True)
class AlgebraDocument:
    name: str
    algebra: FiniteAlgebra
    labels: tuple[str, ...]
    # label -> element, the first element of a repeated label
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {}
        for element, label in enumerate(self.labels):
            index.setdefault(label, element)
        object.__setattr__(self, "_index", index)

    def label_index(self, value, key: str) -> int:
        """The element an index or a label names; ``key`` names the document
        entry a boolean, which is refused, stands in."""
        if isinstance(value, bool):
            raise _boolean(value, key)
        if isinstance(value, int):
            if not 0 <= value < self.algebra.size:
                raise ValidationError("element index %r out of range" % value)
            return value
        try:
            return self._index[value]
        except (KeyError, TypeError):
            # TypeError: an unhashable value, such as a list, is no label
            raise ValidationError("unknown element label %r" % (value,))


def parse_algebra(text: str) -> AlgebraDocument:
    return _algebra_from_document(parse_document(text))


def _algebra_from_document(doc: dict) -> AlgebraDocument:
    """The algebra of a document already split by ``parse_document``."""
    if doc.get("kind") != "algebra":
        raise ValidationError("expected kind: algebra")
    try:
        signature = Signature(tuple((str(n), _integer(a, "the arity of %r" % str(n)))
                                    for n, a in doc["signature"]))
        size = _integer(doc["size"], "size")
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("bad signature/size: %s" % exc)
    if size > DEFAULT_BUDGET:
        raise ValidationError("size %d exceeds the largest carrier, %d" % (size, DEFAULT_BUDGET))
    labels = doc.get("labels")
    if labels is None:
        labels = [str(i) for i in range(size)]
    if not isinstance(labels, list) or not all(isinstance(label, (str, int, float))
                                               for label in labels):
        raise ValidationError("labels must be a list of strings or numbers")
    if len(labels) != size or len(set(labels)) != size:
        raise ValidationError("labels must be bijective with the carrier")
    tables = {}
    for name, arity in signature.ops:
        key = "table %s" % name
        if key not in doc:
            raise ValidationError("missing %r" % key)
        flat = _flatten_table(doc[key], size, arity, name)
        for position, entry in enumerate(flat):
            if isinstance(entry, bool):
                raise _boolean(entry, key)
            if not 0 <= entry < size:
                args = power_tuple(size, arity, position)
                raise ValidationError(
                    "table entry %r out of range in %r at %r" % (entry, name, args))
        tables[name] = flat
    algebra = FiniteAlgebra(signature, size, tables)
    return AlgebraDocument(str(doc.get("name", "")), algebra, tuple(labels))


def serialize_algebra(doc: AlgebraDocument) -> str:
    items = [("kind", "algebra")]
    if doc.name:
        items.append(("name", doc.name))
    items.append(("signature", [[n, a] for n, a in doc.algebra.signature.ops]))
    items.append(("size", doc.algebra.size))
    items.append(("labels", list(doc.labels)))
    for name, arity in doc.algebra.signature.ops:
        items.append(("table %s" % name,
                      _nest_table(doc.algebra.tables[name], doc.algebra.size, arity)))
    return serialize_document(items)


def resolve_algebra(ref: str) -> AlgebraDocument:
    """Resolve ``builtin:NAME`` against the catalog, anything else as a path."""
    ref = ref.strip()
    if ref.startswith("builtin:"):
        entry = build(ref[len("builtin:"):])
        name = entry.name if not entry.params else \
            "%s(%s)" % (entry.name, ",".join(map(str, entry.params)))
        return AlgebraDocument(name, entry.algebra, entry.labels)
    with open(ref, "r", encoding="utf-8") as handle:
        return parse_algebra(handle.read())


# --- spaces -----------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceDocument:
    kind: str                  # lspace | constrained-k | constrained-unary | poset
    points: tuple[str, ...]
    dualizer_ref: str
    dualizer: AlgebraDocument | None
    space: object              # LSpace | ConstrainedSpace | UnaryConstrainedSpace | leq


def _parse_points(doc):
    points = doc.get("points")
    try:
        distinct = isinstance(points, list) and len(set(points)) == len(points)
    except TypeError:           # an unhashable label, such as a list
        distinct = False
    labels = tuple(str(p) for p in points) if distinct else ()
    # distinct values can print as one label, such as 1 and "1"
    if not distinct or len(set(labels)) != len(labels):
        raise ValidationError("points must be a list of distinct labels")
    return labels


def _list_of_lists(value, key, what, entry=object):
    """``value`` itself, or ValidationError naming ``key`` unless it is a
    list of lists of ``entry`` instances."""
    if not isinstance(value, list) or not all(
            isinstance(item, list) and all(isinstance(x, entry) for x in item)
            for item in value):
        raise ValidationError("%s must be a list of lists of %s" % (key, what))
    return value


def _parse_topology(doc, points):
    opens = doc.get("opens")
    n = len(points)
    if opens is None:
        return discrete_topology(n)
    index = {p: i for i, p in enumerate(points)}
    masks = []
    for subset in _list_of_lists(opens, "opens", "point labels", str):
        try:
            masks.append(mask_of(index[p] for p in subset))
        except KeyError as exc:
            raise ValidationError("unknown point %s in opens" % exc)
    return topology_from_subbasis(n, masks)


def _element_rows(dualizer: AlgebraDocument, value, key: str, convert) -> list:
    """``convert`` of the elements of each row of ``value``, a list of lists
    of element labels or indices, in one loop over the rows.

    ValidationError naming ``key`` unless ``value`` has that shape, and
    else at the first value that names no element (``label_index``); a
    row's fault waits for the shape of the rows after it."""
    out = []
    if isinstance(value, list):
        for row in value:
            if not isinstance(row, list):
                break
            try:
                out.append(convert([dualizer.label_index(v, key) for v in row]))
            except ValidationError:
                _list_of_lists(value, key, "element labels")
                raise
        else:
            return out
    raise ValidationError("%s must be a list of lists of element labels" % key)


def parse_space(text: str) -> SpaceDocument:
    return _space_from_document(parse_document(text))


def _space_from_document(doc: dict) -> SpaceDocument:
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
        functions = _element_rows(dualizer, comp, "comp", tuple)
        space = lspace(top, dualizer.algebra, functions)
        return SpaceDocument(kind, points, ref, dualizer, space)

    if kind == "constrained-unary":
        fibers_doc = doc.get("fibers")
        if not isinstance(fibers_doc, list) or len(fibers_doc) != len(points):
            raise ValidationError("fibers must list one value set per point")
        fibers = _element_rows(dualizer, fibers_doc, "fibers", frozenset)
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
    # each entry straight to the codes of its rows, keyed by its points
    # ascending, as ConstrainedSpace stores them
    family: dict = {}
    encode = functools.partial(power_index, dualizer.algebra.size)
    for key, value in doc.items():
        if not key.startswith("constraint"):
            continue
        # a misspelled key, such as constraint["x"], is refused, not skipped
        subset = None
        if key.startswith("constraint "):
            subset = _json_value(key[len("constraint "):], None)
        if not isinstance(subset, list) or not all([isinstance(p, str) for p in subset]):
            raise ValidationError("bad constraint key %r" % key)
        try:
            pts = tuple(map(index.__getitem__, subset))
        except KeyError as exc:
            raise ValidationError("unknown point %s in constraint key" % exc)
        if not all(map(operator.lt, pts, pts[1:])):
            if sorted(pts) != list(pts):
                raise ValidationError("constraint keys list points in document order")
            repeated = next(p for p, q in zip(subset, subset[1:]) if index[p] == index[q])
            raise ValidationError("point %r repeated in constraint key %r" % (repeated, key))
        codes = frozenset(_element_rows(dualizer, value, key, encode))
        # a row of another length is refused where the constructor refuses
        # it, after every fault of the keys and the labels
        family[pts] = codes if all([len(row) == len(pts) for row in value]) else None
    if "a_empty" in doc:
        family[()] = frozenset((0,)) if doc["a_empty"] else frozenset()
    space = ConstrainedSpace._from_codes(k, top, dualizer.algebra, family)
    return SpaceDocument(kind, points, ref, dualizer, space)


def _parse_poset(doc):
    points = _parse_points(doc)
    index = {p: i for i, p in enumerate(points)}
    n = len(points)
    leq = [[x == y for y in range(n)] for x in range(n)]
    for pair in _list_of_lists(doc.get("leq", []), "leq", "point labels", str):
        try:
            x, y = pair
            leq[index[x]][index[y]] = True
        except (ValueError, KeyError):
            raise ValidationError("bad leq pair %r" % (pair,))
    return SpaceDocument("poset", points, "", None, leq)


def _serialize_topology(items, space, points):
    top = space.topology if hasattr(space, "topology") else None
    if top is not None and not top.is_discrete():
        opens = sorted(sorted(points[i] for i in bits_of(u)) for u in top.opens)
        items.append(("opens", opens))


def serialize_space(doc: SpaceDocument) -> str:
    points = doc.points
    if doc.kind == "poset":
        leq = doc.space
        pairs = sorted([points[x], points[y]]
                       for x in range(len(points)) for y in range(len(points))
                       if x != y and leq[x][y])
        return serialize_document([("kind", "poset"), ("points", list(points)),
                                   ("leq", pairs)])
    labels = doc.dualizer.labels
    items = [("kind", doc.kind), ("dualizer", doc.dualizer_ref),
             ("points", list(points))]
    _serialize_topology(items, doc.space, points)
    space = doc.space
    if doc.kind == "lspace":
        items.append(("comp", sorted([labels[v] for v in f]
                                     for f in space.functions)))
    elif doc.kind == "constrained-unary":
        items.append(("fibers", [sorted(labels[v] for v in f) for f in space.fibers]))
        blocks: dict[int, list] = {}
        for p, c in enumerate(space.equiv):
            blocks.setdefault(c, []).append(points[p])
        items.append(("equiv", sorted(blocks.values())))
        if not space.dualizer.signature.constants:
            items.append(("a_empty", space.a_empty))
    else:
        constraints = space.constraints
        for key in sorted(constraints, key=lambda s: (len(s), sorted(s))):
            if not key and space.dualizer.signature.constants:
                continue
            if not key:
                items.append(("a_empty", () in constraints[key]))
                continue
            pts = sorted(key)
            funs = sorted([labels[v] for v in f] for f in constraints[key])
            items.append(("constraint %s" % json.dumps([points[p] for p in pts]), funs))
    return serialize_document(items)


def space_document(space, dualizer_ref: str, points=None) -> SpaceDocument:
    """Wrap an in-memory space for serialization."""
    dualizer = resolve_algebra(dualizer_ref)
    n = space.n
    if points is None:
        points = tuple("p%d" % i for i in range(n))
    if isinstance(space, LSpace):
        kind = "lspace"
    elif isinstance(space, UnaryConstrainedSpace):
        kind = "constrained-unary"
    else:
        kind = "constrained-%d" % space.k
    return SpaceDocument(kind, tuple(points), dualizer_ref, dualizer, space)


# --- DOT export --------------------------------------------------------------------

def _hasse_edges(leq, n):
    strict = [[leq[x][y] and not leq[y][x] for y in range(n)] for x in range(n)]
    edges = []
    for x in range(n):
        for y in range(n):
            if not strict[x][y]:
                continue
            if any(strict[x][z] and strict[z][y] for z in range(n)):
                continue
            edges.append((x, y))
    return edges


def export_dot(doc: SpaceDocument) -> str:
    """Deterministic DOT: Hasse edges for extracted orders, fibers as node
    annotations, equivalence classes boxed."""
    points = doc.points
    lines = ["digraph dual {", "  rankdir=BT;"]
    if doc.kind == "poset":
        for x, y in _hasse_edges(doc.space, len(points)):
            lines.append('  "%s" -> "%s";' % (points[x], points[y]))
        for p in points:
            lines.append('  "%s";' % p)
    elif doc.kind == "constrained-unary":
        space = doc.space
        labels = doc.dualizer.labels
        blocks: dict[int, list] = {}
        for p, c in enumerate(space.equiv):
            blocks.setdefault(c, []).append(p)
        for c, members in sorted(blocks.items()):
            lines.append("  subgraph cluster_%d {" % c)
            for p in sorted(members):
                annotation = ",".join(labels[v] for v in sorted(space.fibers[p]))
                lines.append('    "%s" [label="%s {%s}"];' % (points[p], points[p], annotation))
            lines.append("  }")
    elif doc.kind.startswith("constrained-"):
        space = doc.space
        labels = doc.dualizer.labels
        for x, y in _hasse_edges(_mv_order(space), space.n):
            lines.append('  "%s" -> "%s";' % (points[x], points[y]))
        for p in range(space.n):
            fiber = ",".join(labels[f[0]] for f in sorted(space.constraint((p,))))
            lines.append('  "%s" [label="%s {%s}"];' % (points[p], points[p], fiber))
    else:
        space = doc.space
        labels = doc.dualizer.labels
        for p in range(space.n):
            column = ",".join(labels[f[p]] for f in sorted(space.functions))
            lines.append('  "%s" [label="%s (%s)"];' % (points[p], points[p], column))
    lines.append("}")
    return "\n".join(lines) + "\n"
