"""Seeded documents for the ``documents`` workload, built without dualkit.

The generator carries its own copy of the catalog's operation tables and its
own vector closure, so the inputs do not depend on the code under test: a
change to dualkit cannot change what the benchmark feeds it.  Every document
is valid by construction (closed function sets, subdirect constraints), so
each command returns a verdict rather than an input error.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
from fractions import Fraction


# --- dualizers: the catalog's algebras, tabulated independently ----------------

def _chain(n, with_neg):
    """The Lukasiewicz chain on {0, 1/n, ..., 1} (element i is i/n)."""
    ops = [
        ("oplus", 2, lambda a, b: min(a + b, n)),
        ("odot", 2, lambda a, b: max(a + b - n, 0)),
        ("neg", 1, lambda a: n - a),
        ("join", 2, max),
        ("meet", 2, min),
        ("zero", 0, lambda: 0),
        ("one", 0, lambda: n),
    ]
    if not with_neg:
        ops = [op for op in ops if op[0] != "neg"]
    labels = tuple(str(Fraction(i, n)) for i in range(n + 1))
    return n + 1, labels, ops


def dualizer(name):
    """(size, labels, [(op, arity, fn)]) for a builtin catalog name."""
    if name == "bool2":
        return 2, ("0", "1"), [("meet", 2, min), ("join", 2, max),
                               ("neg", 1, lambda a: 1 - a),
                               ("zero", 0, lambda: 0), ("one", 0, lambda: 1)]
    if name == "dl2":
        return 2, ("0", "1"), [("meet", 2, min), ("join", 2, max),
                               ("zero", 0, lambda: 0), ("one", 0, lambda: 1)]
    kind, n = name.rstrip(")").split("(")
    return _chain(int(n), with_neg=kind == "luk")


BUILTINS = ("bool2", "dl2", "luk(1)", "luk(2)", "luk(3)", "luk(4)",
            "posluk(1)", "posluk(2)", "posluk(3)", "posluk(4)")


def closure(ops, length, seeds):
    """Sorted closure of vectors of the given length under pointwise ops."""
    known = {tuple(s) for s in seeds}
    for _, arity, fn in ops:
        if arity == 0:
            known.add((fn(),) * length)
    frontier = set(known)
    while frontier:
        new = set()
        ordered = sorted(known)
        for _, arity, fn in ops:
            if arity == 1:
                pairs = ((u,) for u in frontier)
            elif arity == 2:
                pairs = ((u, v) for u in ordered for v in ordered
                         if u in frontier or v in frontier)
            else:
                continue
            for args in pairs:
                vec = tuple(fn(*column) for column in zip(*args))
                if vec not in known:
                    new.add(vec)
        known |= new
        frontier = new
    return sorted(known)


# --- document text -----------------------------------------------------------------

def _lines(items):
    return "".join("%s: %s\n" % (key, value if isinstance(value, str) else json.dumps(value))
                   for key, value in items)


def _points(n):
    return ["p%d" % i for i in range(n)]


def _topology(rng, n):
    """A subbasis (list of point-index lists, or None for discrete) and the
    components: the classes a continuous function must be constant on."""
    kind = rng.randrange(3)
    if kind == 0:
        return None, list(range(n))
    if kind == 1:
        blocks = [rng.randrange(max(1, n - 1)) for _ in range(n)]
        canon = {}
        classes = [canon.setdefault(b, len(canon)) for b in blocks]
        subbasis = [[p for p in range(n) if classes[p] == c] for c in range(len(canon))]
        return subbasis, classes
    # a nested chain of opens: every point lies in the largest one, so the
    # whole space is a single component
    order = list(range(n))
    rng.shuffle(order)
    cut = sorted(rng.sample(range(1, n + 1), min(n, 2))) if n else []
    subbasis = [sorted(order[:c]) for c in cut]
    return subbasis, [0] * n


def lspace_doc(rng, name, n):
    """An lspace document on n points and its number of compatible functions."""
    size, labels, ops = dualizer(name)
    subbasis, classes = _topology(rng, n)
    count = max(classes) + 1 if classes else 0
    seeds = []
    for _ in range(rng.randint(1, 3)):
        per_class = [rng.randrange(size) for _ in range(count)]
        seeds.append(tuple(per_class[c] for c in classes))
    comp = closure(ops, n, seeds)
    points = _points(n)
    items = [("kind", "lspace"), ("dualizer", "builtin:" + name), ("points", points)]
    if subbasis is not None:
        items.append(("opens", [[points[p] for p in block] for block in subbasis]))
    items.append(("comp", [[labels[v] for v in f] for f in comp]))
    return _lines(items), len(comp)


def random_order(rng, n, transitive):
    """A reflexive relation on n points, a partial order when transitive,
    and how many ordered pairs of distinct points it relates."""
    rank = list(range(n))
    rng.shuffle(rank)
    leq = [[x == y for y in range(n)] for x in range(n)]
    for x, y in itertools.permutations(range(n), 2):
        if rank[x] < rank[y] and rng.random() < 0.35:
            leq[x][y] = True
    if transitive:
        for z in range(n):
            for x in range(n):
                if leq[x][z]:
                    for y in range(n):
                        if leq[z][y]:
                            leq[x][y] = True
    return leq, sum(leq[x][y] for x in range(n) for y in range(n) if x != y)


def poset_doc(leq):
    points = _points(len(leq))
    pairs = [[points[x], points[y]] for x in range(len(leq)) for y in range(len(leq))
             if x != y and leq[x][y]]
    return _lines([("kind", "poset"), ("points", points), ("leq", pairs)])


def priestley_doc(leq):
    """The binary 2_DL-constrained space of a reflexive relation:
    (1,0) is allowed on x,y unless x <= y."""
    n = len(leq)
    points = _points(n)
    items = [("kind", "constrained-2"), ("dualizer", "builtin:dl2"), ("points", points)]
    for x in range(n):
        items.append(("constraint %s" % json.dumps([points[x]]), [["0"], ["1"]]))
    for x, y in itertools.combinations(range(n), 2):
        funs = [["0", "0"], ["1", "1"]]
        if not leq[y][x]:
            funs.append(["0", "1"])
        if not leq[x][y]:
            funs.append(["1", "0"])
        items.append(("constraint %s" % json.dumps([points[x], points[y]]), sorted(funs)))
    return _lines(items)


def binary_doc(rng, name, n):
    """A subdirect binary constrained space on n discrete points, and the size
    of its Comp.  Fibers are subuniverses of L, each pair constraint a
    subuniverse of L^2 that projects onto both fibers."""
    size, labels, ops = dualizer(name)
    fibers = []
    for _ in range(n):
        chosen = rng.sample(range(size), rng.randint(1, size))
        fibers.append(tuple(v for (v,) in closure(ops, 1, [(a,) for a in chosen])))
    points = _points(n)
    items = [("kind", "constrained-2"), ("dualizer", "builtin:" + name), ("points", points)]
    for x in range(n):
        items.append(("constraint %s" % json.dumps([points[x]]),
                      [[labels[a]] for a in fibers[x]]))
    constraints = {}
    for x, y in itertools.combinations(range(n), 2):
        product = list(itertools.product(fibers[x], fibers[y]))
        pairs = closure(ops, 2, rng.sample(product, rng.randint(1, min(3, len(product)))))
        if (sorted({a for a, _ in pairs}) != list(fibers[x])
                or sorted({b for _, b in pairs}) != list(fibers[y])):
            pairs = sorted(product)
        constraints[x, y] = set(pairs)
        items.append(("constraint %s" % json.dumps([points[x], points[y]]),
                      [[labels[a], labels[b]] for a, b in pairs]))
    # |Comp|: the global functions meeting every constraint
    comp = sum(all((f[x], f[y]) in pairs for (x, y), pairs in constraints.items())
               for f in itertools.product(*fibers))
    return _lines(items), comp


def algebra_doc(rng, name, exponent, title):
    """A generated subalgebra of L^exponent, tabulated as an algebra document,
    and the size of its carrier."""
    size, _, ops = dualizer(name)
    seeds = [tuple(rng.randrange(size) for _ in range(exponent))
             for _ in range(rng.randint(1, 3))]
    carrier = closure(ops, exponent, seeds)
    index = {v: i for i, v in enumerate(carrier)}
    items = [("kind", "algebra"), ("name", title),
             ("signature", [[op, arity] for op, arity, _ in ops]),
             ("size", len(carrier)),
             ("labels", ["a%d" % i for i in range(len(carrier))])]
    for op, arity, fn in ops:
        if arity == 0:
            table = index[(fn(),) * exponent]
        elif arity == 1:
            table = [index[tuple(fn(a) for a in u)] for u in carrier]
        else:
            table = [[index[tuple(fn(a, b) for a, b in zip(u, v))] for v in carrier]
                     for u in carrier]
        items.append(("table %s" % op, table))
    return _lines(items), len(carrier)


def banded(draw, low, high, tries=1000):
    """The first drawn (item, size) whose size lies in [low, high].

    The work a command does grows fast with the size of its input (the
    compatible functions of a space, the carrier of an algebra), so drawing
    sizes freely would make one seed's pass several times another's.
    """
    for _ in range(tries):
        item, size = draw()
        if low <= size <= high:
            return item
    raise ValueError("no document of size %d..%d in %d draws" % (low, high, tries))


# --- the command mix -----------------------------------------------------------------

LSPACE_COMMANDS = (("props",), ("roundtrip",), ("jonsson-check",), ("export-dot",), ("cons",))
PRIESTLEY_COMMANDS = (("comp",), ("lep",), ("gep",), ("func",), ("priestley",),
                      ("local2global",), ("props",))
BINARY_COMMANDS = (("comp",), ("lep",), ("gep",), ("func",), ("local2global",), ("props",))
ALGEBRA_COMMANDS = ("spectrum", "roundtrip", "congruences")
BUILTIN_COMMANDS = (("nu-search", "--k", "3"), ("endos",), ("classify-sq",))

LSPACE_DUALIZERS = ("dl2", "bool2", "luk(2)", "posluk(2)")
# three-element fibers make Comp grow as 3^n, so those spaces stay small
BINARY_SHAPES = (("dl2", 3), ("dl2", 4), ("dl2", 5), ("dl2", 6), ("dl2", 7), ("dl2", 8),
                 ("luk(2)", 3), ("luk(2)", 4), ("luk(2)", 5),
                 ("posluk(2)", 3), ("posluk(2)", 4), ("posluk(2)", 5))
ALGEBRA_DUALIZERS = (("dl2", 3), ("bool2", 3), ("luk(2)", 2), ("posluk(2)", 2))
# size bands: |Comp| of an lspace, |Comp| of a binary space over a
# three-element dualizer (func validates Comp in time quadratic in it), and
# the carrier of a generated algebra
LSPACE_COMP = (2, 27)
BINARY_COMP = {(name, n): (6, 18) if n == 3 else (12, 48)
               for name in ("luk(2)", "posluk(2)") for n in (3, 4, 5)}
ALGEBRA_SIZE = (1, 12)
# (points, transitive).  A relation that may break transitivity gives LEP(2)
# failures (exit 1), which stop early; they stay small.  The 7-point partial
# orders are many so that the tail percentile, which leaves ten commands
# above it, falls inside one group of similar commands (lep and local2global
# on them) instead of at the edge between two groups.
PRIESTLEY_SHAPES = ((3, True), (3, False), (4, True), (4, False), (5, True), (5, False),
                    (6, True), (6, False)) + ((7, True),) * 10 + ((8, True),) * 2


def generate(seed, directory):
    """Write the documents for one seed; return the command list.

    Each command is (label, argv) with document paths inside ``directory``;
    the label names the command without the path, for reports and
    references.  The shape of the mix is fixed (how many documents of each
    kind and size); the seed draws their content and the command order.
    """
    rng = random.Random("dualkit-bench|documents|%d" % seed)
    docs = []      # (file name, text, [command prefixes])
    for i in range(30):
        name = LSPACE_DUALIZERS[i % len(LSPACE_DUALIZERS)]
        text = banded(lambda: lspace_doc(rng, name, 1 + i % 4), *LSPACE_COMP)
        docs.append(("lspace%02d.dk" % i, text, LSPACE_COMMANDS))
    for i, (n, transitive) in enumerate(PRIESTLEY_SHAPES):
        # LEP(2) visits every compatible pair, and incomparable points allow
        # more of them, so the number of comparable pairs is held near n(n-1)/4
        middle = n * (n - 1) // 4
        leq = banded(lambda: random_order(rng, n, transitive), middle - 1, middle + 1)
        docs.append(("priestley%02d.dk" % i, priestley_doc(leq), PRIESTLEY_COMMANDS))
        poset, _ = random_order(rng, n, True)
        docs.append(("poset%02d.dk" % i, poset_doc(poset), (("priestley",),)))
    for i, (name, n) in enumerate(BINARY_SHAPES * 2):
        text = banded(lambda: binary_doc(rng, name, n), *BINARY_COMP.get((name, n), (1, 256)))
        docs.append(("binary%02d.dk" % i, text, BINARY_COMMANDS))
    for i in range(20):
        name, exponent = ALGEBRA_DUALIZERS[i % len(ALGEBRA_DUALIZERS)]
        text = banded(lambda: algebra_doc(rng, name, 1 + i % exponent, "gen%02d" % i),
                      *ALGEBRA_SIZE)
        commands = tuple((c, "--dualizer", "builtin:" + name) for c in ALGEBRA_COMMANDS)
        docs.append(("algebra%02d.dk" % i, text, commands))

    commands = []
    for file_name, text, prefixes in docs:
        path = os.path.join(directory, file_name)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        for prefix in prefixes:
            argv = [prefix[0], path] + list(prefix[1:])
            commands.append((" ".join([prefix[0], file_name] + list(prefix[1:])), argv))
    for name in BUILTINS:
        for prefix in BUILTIN_COMMANDS:
            argv = list(prefix) + ["--dualizer", "builtin:" + name]
            commands.append((" ".join(argv), argv))
    rng.shuffle(commands)
    return commands


def fingerprint(directory, commands):
    """Digest of the generated inputs: every document and the command order."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as handle:
            digest.update(name.encode() + b"\0" + handle.read() + b"\0")
    for label, _ in commands:
        digest.update(label.encode() + b"\n")
    return digest.hexdigest()
