"""Finite topologies on minimal neighbourhoods, checked against the open-set family.

``OpenFamilyTopology`` is the former implementation, which stored every open
set and took no neighbourhood shortcut.  It is the oracle: every topology on
at most four points is built both ways and every operation must agree.
"""

import itertools
import random
import time

import pytest

import dualkit.topology as topology
from dualkit.algebras import BudgetExceeded, InvalidInput
from dualkit.spaces import is_continuous_vector
from dualkit.topology import (
    MAX_POINTS,
    bits_of,
    discrete_topology,
    mask_of,
    topology_from_opens,
    topology_from_subbasis,
)


class OpenFamilyTopology:
    """Points 0..n-1 plus every open set as a bitmask."""

    def __init__(self, n, opens):
        self.n = n
        self.opens = frozenset(opens)
        if n < 0 or n > MAX_POINTS:
            raise InvalidInput("point count must lie in 0..%d" % MAX_POINTS)
        full = (1 << n) - 1
        if 0 not in self.opens or full not in self.opens:
            raise InvalidInput("a topology contains the empty set and the whole space")
        for u in self.opens:
            if u & ~full:
                raise InvalidInput("open set outside the point range")
            for v in self.opens:
                if u | v not in self.opens or u & v not in self.opens:
                    raise InvalidInput("opens not closed under union/intersection")

    @property
    def full_mask(self):
        return (1 << self.n) - 1

    def is_open(self, mask):
        return mask in self.opens

    def is_closed(self, mask):
        return (self.full_mask & ~mask) in self.opens

    def is_discrete(self):
        return len(self.opens) == 1 << self.n

    def min_nbhd(self, point):
        out = self.full_mask
        for u in self.opens:
            if u & (1 << point):
                out &= u
        return out

    def components(self):
        parent = list(range(self.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for x in range(self.n):
            for y in bits_of(self.min_nbhd(x)):
                parent[find(x)] = find(y)
        canon = {}
        out = []
        for x in range(self.n):
            r = find(x)
            if r not in canon:
                canon[r] = len(canon)
            out.append(canon[r])
        return tuple(out)

    def specialization(self):
        return [[bool(self.min_nbhd(y) & (1 << x)) for y in range(self.n)]
                for x in range(self.n)]

    def subspace(self, points):
        points = sorted(set(points))
        position = {p: i for i, p in enumerate(points)}
        opens = set()
        for u in self.opens:
            opens.add(mask_of(position[p] for p in bits_of(u) if p in position))
        return OpenFamilyTopology(len(points), opens)

    def quotient(self, classes):
        classes = tuple(classes)
        m = max(classes) + 1 if classes else 0
        opens = set()
        for candidate in range(1 << m):
            preimage = mask_of(p for p in range(self.n) if candidate & (1 << classes[p]))
            if preimage in self.opens:
                opens.add(candidate)
        return OpenFamilyTopology(m, opens)


def oracle_subbasis(n, masks):
    """Close a subbasis under intersection and union."""
    full = (1 << n) - 1
    opens = {0, full}
    opens.update(m & full for m in masks)
    changed = True
    while changed:
        changed = False
        current = list(opens)
        for i, u in enumerate(current):
            for v in current[i + 1:]:
                for w in (u | v, u & v):
                    if w not in opens:
                        opens.add(w)
                        changed = True
    return OpenFamilyTopology(n, opens)


def oracle_vector_continuous(top, vec):
    fibers = {}
    for point, value in enumerate(vec):
        fibers[value] = fibers.get(value, 0) | (1 << point)
    return all(top.is_open(m) for m in fibers.values())


def oracle_map_continuous(X, Y, values):
    for u in Y.opens:
        pre = mask_of(x for x in range(X.n) if u & (1 << values[x]))
        if not X.is_open(pre):
            return False
    return True


def oracle_closed_relation(top, related):
    for x in range(top.n):
        for y in range(top.n):
            if related[x][y]:
                continue
            for u in bits_of(top.min_nbhd(x)):
                for v in bits_of(top.min_nbhd(y)):
                    if related[u][v]:
                        return False
    return True


def all_families(n):
    """Every family of subsets of n points that holds the empty and full sets."""
    full = (1 << n) - 1
    middle = list(range(1, full))
    for choice in range(1 << len(middle)):
        yield frozenset({0, full} | {m for i, m in enumerate(middle) if choice >> i & 1})


def is_closed_family(family):
    return all(u | v in family and u & v in family for u in family for v in family)


TOPOLOGIES = {n: [f for f in all_families(n) if is_closed_family(f)] for n in range(5)}


def partitions(n):
    """Every partition of n points, as restricted growth strings."""
    def grow(prefix, blocks):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for c in range(blocks + 1):
            yield from grow(prefix + [c], max(blocks, c + 1))
    yield from grow([], 0)


def test_topology_counts():
    assert [len(TOPOLOGIES[n]) for n in range(5)] == [1, 1, 4, 29, 355]
    assert sum(len(ts) for ts in TOPOLOGIES.values()) == 390


@pytest.mark.parametrize("n", range(5))
def test_neighbourhoods_match_open_family(n):
    subsets = [bits_of(s) for s in range(1 << n)]
    for family in TOPOLOGIES[n]:
        old = OpenFamilyTopology(n, family)
        new = topology_from_opens(n, family)
        assert new.opens == family
        assert new == topology_from_subbasis(n, family)
        masks = range(1 << (n + 1))   # the top half lies outside the point range
        assert [new.is_open(m) for m in masks] == [old.is_open(m) for m in masks]
        assert [new.is_closed(m) for m in masks] == [old.is_closed(m) for m in masks]
        assert new.is_discrete() == old.is_discrete()
        assert [new.min_nbhd(x) for x in range(n)] == [old.min_nbhd(x) for x in range(n)]
        assert new.components() == old.components()
        assert new.specialization() == old.specialization()
        # ties: the symmetric specialization less the diagonal; a component
        # mask: the points of the oracle's component
        leq, classes = old.specialization(), old.components()
        assert new.ties == tuple(mask_of(q for q in range(n) if q != p and (leq[p][q] or leq[q][p]))
                                 for p in range(n))
        assert new.component_masks == tuple(mask_of(q for q in range(n) if classes[q] == classes[p])
                                            for p in range(n))
        for points in subsets:
            old_sub = old.subspace(points)
            assert new.subspace(points).opens == old_sub.opens
            for fun in itertools.product(range(3), repeat=len(points)):
                assert new.is_locally_constant(points, fun) == \
                    oracle_vector_continuous(old_sub, fun)
        for classes in partitions(n):
            assert new.quotient(classes).opens == old.quotient(classes).opens
        for vec in itertools.product(range(3), repeat=n):
            assert is_continuous_vector(new, vec) == oracle_vector_continuous(old, vec)


def test_equal_topologies_share_what_their_neighbourhoods_fix():
    # ties and component masks are kept by the value of the neighbourhoods,
    # so equal topologies built apart read the same tuples; a topology is not
    # shared itself, since ``opens`` is derived under the budget in force then
    for n in range(5):
        for family in TOPOLOGIES[n]:
            a, b = topology_from_opens(n, family), topology_from_subbasis(n, family)
            assert a == b and a is not b
            assert a.ties is b.ties and a.component_masks is b.component_masks
    assert discrete_topology(3) is not discrete_topology(3)


def test_point_map_continuity_matches_open_family():
    small = [(n, f) for n in range(4) for f in TOPOLOGIES[n]]
    pairs = [(x, y) for x in small for y in small]
    pairs += [((4, f), (4, f)) for f in TOPOLOGIES[4]]
    for (m, fx), (n, fy) in pairs:
        old_x, old_y = OpenFamilyTopology(m, fx), OpenFamilyTopology(n, fy)
        new_x, new_y = topology_from_opens(m, fx), topology_from_opens(n, fy)
        for values in itertools.product(range(n), repeat=m):
            assert new_x.is_continuous_map(new_y, values) == \
                oracle_map_continuous(old_x, old_y, values)


def test_closed_relations_match_open_family():
    for n in range(4):
        for family in TOPOLOGIES[n]:
            old = OpenFamilyTopology(n, family)
            new = topology_from_opens(n, family)
            for bits in range(1 << (n * n)):
                related = [[bool(bits >> (x * n + y) & 1) for y in range(n)] for x in range(n)]
                rows = [mask_of(y for y in range(n) if related[x][y]) for x in range(n)]
                assert new.is_closed_relation(rows) == oracle_closed_relation(old, related)


def test_invalid_families_rejected_like_the_open_family():
    for n in range(4):
        for choice in range(1 << (1 << n)):
            family = {m for m in range(1 << n) if choice >> m & 1}
            try:
                OpenFamilyTopology(n, family)
                expected = None
            except InvalidInput as exc:
                expected = str(exc)
            try:
                topology_from_opens(n, family)
                got = None
            except InvalidInput as exc:
                got = str(exc)
            assert got == expected


@pytest.mark.parametrize("n, opens", [(MAX_POINTS + 1, [0]), (-1, [0]), (2, [0, 3, 7])])
def test_open_family_messages_for_bad_ranges(n, opens):
    with pytest.raises(InvalidInput) as new_err:
        topology_from_opens(n, opens)
    with pytest.raises(InvalidInput) as old_err:
        OpenFamilyTopology(n, opens)
    assert str(new_err.value) == str(old_err.value)


def test_subbasis_matches_closure_on_random_subbases():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(0, 6)
        masks = [rng.getrandbits(n + 1) for _ in range(rng.randint(0, 4))]
        assert topology_from_subbasis(n, masks).opens == oracle_subbasis(n, masks).opens


def test_opens_respect_the_budget(monkeypatch):
    monkeypatch.setattr(topology, "DEFAULT_BUDGET", 100)
    assert len(discrete_topology(6).opens) == 64
    with pytest.raises(BudgetExceeded):
        discrete_topology(8).opens


def random_subbasis_topology():
    rng = random.Random(1)
    return topology_from_subbasis(MAX_POINTS, [rng.getrandbits(MAX_POINTS) for _ in range(40)])


@pytest.mark.parametrize("build", [lambda: discrete_topology(MAX_POINTS),
                                   random_subbasis_topology])
def test_twenty_points_build_quickly(build):
    start = time.perf_counter()
    top = build()
    half = top.subspace(range(0, MAX_POINTS, 2))
    assert top.n == MAX_POINTS and half.n == MAX_POINTS // 2
    assert time.perf_counter() - start < 0.5


def old_bits_of(mask: int) -> tuple[int, ...]:
    """``bits_of`` as it was: one step per bit position up to the highest."""
    if mask < 0:
        raise InvalidInput("a point set mask cannot be negative")
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def test_bits_of_matches_the_bit_by_bit_walk():
    rng = random.Random(11)
    masks = [0, 1, 255, 256, (1 << 20) - 1, (1 << 24) - 1, 1 << 24, 1 << 999,
             (1 << 3) | (1 << 57) | (1 << 99), ((1 << 1000) - 1) ^ (1 << 500)]
    masks += [rng.getrandbits(20) for _ in range(300)]
    masks += [rng.getrandbits(rng.randrange(1, 1100)) for _ in range(300)]
    masks += [mask_of(rng.sample(range(1100), rng.randrange(6))) for _ in range(300)]
    for mask in masks:
        assert bits_of(mask) == old_bits_of(mask)
        assert type(bits_of(mask)) is tuple
    for mask in (-1, -(1 << 999), -256):
        for fn in (bits_of, old_bits_of):
            with pytest.raises(InvalidInput, match="cannot be negative"):
                fn(mask)
