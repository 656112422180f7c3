"""L-spaces and the two halves of the duality.

An L-space is a finite topological space together with a designated
subalgebra of continuous L-valued functions (its compatible functions).
``spectrum`` sends an algebra to its space of homomorphisms into L,
``canonical_embedding`` is the unit a |-> (h |-> h(a)), and
``evaluation_map`` is the counit x |-> pi_x.  ``check_duality_roundtrip``
verifies both directions plus the triangle identities and naturality on
explicit witnesses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .algebras import (
    DEFAULT_BUDGET,
    BudgetExceeded,
    Congruence,
    ElementMap,
    FiniteAlgebra,
    InvalidInput,
    _induced_tables,
    _rows,
    _tables_on,
    enumerate_homs,
)
from .topology import (
    FiniteTopology,
    discrete_topology,
    mask_of,
    topology_from_subbasis,
)


def is_continuous_vector(top: FiniteTopology, vec) -> bool:
    """Every fiber of the vector is open (the codomain is discrete)."""
    return top.is_locally_constant(range(top.n), vec)


def continuous_functions(top: FiniteTopology, L: FiniteAlgebra,
                         budget: int = DEFAULT_BUDGET) -> list[tuple[int, ...]]:
    """All continuous maps into the discrete carrier of L.

    These are exactly the functions constant on the topological components,
    so the search assigns one value per component instead of one per point.
    """
    classes = top.components()
    count = max(classes) + 1 if classes else 0
    if L.size**count > budget:
        raise BudgetExceeded("continuous-function search exceeds budget")
    out = []
    for choice in itertools.product(L.elements, repeat=count):
        out.append(tuple(choice[c] for c in classes))
    return sorted(out)


@dataclass(frozen=True)
class LSpace:
    """A finite topology plus a subalgebra of continuous L-valued functions.

    Validation (``lspace``, for every space from outside) tabulates the
    operations on the functions, which tests that they are closed, and
    keeps the result as Comp X.  ``_from_trusted`` skips it where the
    construction guarantees it: the image of eta_A is A/ker(eta_A), which
    ``spectrum`` reads off A's tables, and ``func`` of a constrained space
    with subuniverse constraints is closed and continuous (its Comp X is
    tabulated on first read).
    """

    topology: FiniteTopology
    dualizer: FiniteAlgebra
    functions: frozenset
    _comp: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        for f in self.functions:
            if len(f) != self.topology.n:
                raise InvalidInput("compatible function of wrong length")
            if any(not 0 <= v < self.dualizer.size for v in f):
                raise InvalidInput("compatible function outside the carrier")
            if not is_continuous_vector(self.topology, f):
                raise InvalidInput("compatible function is not continuous")
        self.comp_algebra()

    @classmethod
    def _from_trusted(cls, topology, dualizer, functions: frozenset, comp) -> "LSpace":
        """The L-space on functions known to be continuous and closed; comp is
        Comp X as (algebra, carrier), or None to tabulate it on first use."""
        space = object.__new__(cls)
        vars(space).update(topology=topology, dualizer=dualizer, functions=functions, _comp=comp)
        return space

    @property
    def n(self) -> int:
        return self.topology.n

    def comp_algebra(self):
        """The compatible functions as an abstract algebra (pointwise tables).

        Returns (algebra, carrier) with carrier[i] the vector of element i,
        in lexicographic order.
        """
        if self._comp is None:
            carrier = tuple(sorted(self.functions))
            tables, name = _tables_on(self.dualizer, _rows(carrier, self.n))
            if name in self.dualizer.signature.constants:
                raise InvalidInput("compatible functions miss the constant %r" % name)
            if name is not None:
                raise InvalidInput("compatible functions not closed under %r" % name)
            comp = FiniteAlgebra(self.dualizer.signature, len(carrier), tables)
            object.__setattr__(self, "_comp", (comp, carrier))
        return self._comp


def lspace(top: FiniteTopology, L: FiniteAlgebra, functions) -> LSpace:
    return LSpace(top, L, frozenset(tuple(f) for f in functions))


def full_function_space(top: FiniteTopology, L: FiniteAlgebra) -> LSpace:
    return lspace(top, L, continuous_functions(top, L))


@dataclass(frozen=True)
class LMap:
    """A point map between L-spaces; validity is checked by ``is_lmap``."""

    domain: LSpace
    codomain: LSpace
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != self.domain.n:
            raise InvalidInput("point map length does not match the domain")
        if any(not 0 <= v < self.codomain.n for v in self.values):
            raise InvalidInput("point map value outside the codomain")


def is_point_map_continuous(phi: LMap) -> bool:
    return phi.domain.topology.is_continuous_map(phi.codomain.topology, phi.values)


def reflects_compatibility(phi: LMap) -> bool:
    for g in phi.codomain.functions:
        if tuple(g[phi.values[x]] for x in range(phi.domain.n)) not in phi.domain.functions:
            return False
    return True


def is_lmap(phi: LMap) -> bool:
    return is_point_map_continuous(phi) and reflects_compatibility(phi)


def is_lspace_isomorphism(phi: LMap) -> bool:
    """Bijective homeomorphism reflecting compatibility in both directions."""
    if phi.domain.n != phi.codomain.n or len(set(phi.values)) != phi.domain.n:
        return False
    if not is_lmap(phi):
        return False
    inverse = [0] * phi.domain.n
    for x, y in enumerate(phi.values):
        inverse[y] = x
    return is_lmap(LMap(phi.codomain, phi.domain, tuple(inverse)))


@dataclass(frozen=True)
class Spectrum:
    """Spec A: points are the homomorphisms A -> L in canonical order."""

    algebra: FiniteAlgebra
    dualizer: FiniteAlgebra
    homs: tuple[ElementMap, ...]
    space: LSpace


def _eta(A: FiniteAlgebra, homs) -> list[tuple]:
    """eta_A's vectors: element a's images under ``homs``, one tuple per a
    (|A| empty tuples when there is no homomorphism)."""
    return list(zip(*[h.values for h in homs])) if homs else [()] * A.size


def spectrum(A: FiniteAlgebra, L: FiniteAlgebra, gens=None) -> Spectrum:
    """The dual space of A: Hom(A, L) under the clopen subbasis U_{a -> W}.

    Distinct homomorphisms differ at some a, so U_{a -> h(a)} isolates each
    point h and the topology is discrete.  Compatible functions are the
    images of eta_A; point order is the lexicographic order of the
    homomorphisms' value vectors.
    """
    homs = sorted(enumerate_homs(A, L, gens=gens), key=lambda h: h.values)
    vectors = _eta(A, homs)
    top = discrete_topology(len(homs))
    # Comp Spec A is A/ker(eta_A), its blocks numbered in the carrier's order
    carrier = tuple(sorted(set(vectors)))
    position = {v: i for i, v in enumerate(carrier)}
    tables = _induced_tables(A, [position[v] for v in vectors], len(carrier))
    comp = (FiniteAlgebra(A.signature, len(carrier), tables), carrier)
    return Spectrum(A, L, tuple(homs), LSpace._from_trusted(top, L, frozenset(carrier), comp))


@dataclass(frozen=True)
class CanonicalEmbedding:
    """eta_A : A -> Comp Spec A, with the comp algebra materialized."""

    spectrum: Spectrum
    comp_algebra: FiniteAlgebra
    comp_carrier: tuple
    map: ElementMap  # A -> comp_algebra

    @property
    def is_injective(self) -> bool:
        return self.map.is_injective()

    @property
    def is_isomorphism(self) -> bool:
        # eta is a surjection onto Comp Spec A by construction, so bijectivity
        # reduces to injectivity; the homomorphism property is still verified.
        return self.map.is_injective() and self.map.is_homomorphism()


def canonical_embedding(A: FiniteAlgebra, L: FiniteAlgebra, gens=None) -> CanonicalEmbedding:
    spec = spectrum(A, L, gens=gens)
    comp_alg, carrier = spec.space.comp_algebra()
    lookup = {v: i for i, v in enumerate(carrier)}
    values = tuple(lookup[v] for v in _eta(A, spec.homs))
    return CanonicalEmbedding(spec, comp_alg, carrier, ElementMap(A, comp_alg, values))


@dataclass(frozen=True)
class EvaluationMap:
    """ev_X : X -> Spec Comp X, sending a point to evaluation at it."""

    space: LSpace
    comp_algebra: FiniteAlgebra
    comp_carrier: tuple
    spectrum: Spectrum
    map: LMap

    @property
    def is_injective(self) -> bool:
        return len(set(self.map.values)) == self.space.n

    @property
    def is_surjective(self) -> bool:
        return len(set(self.map.values)) == self.spectrum.space.n


def evaluation_map(X: LSpace) -> EvaluationMap:
    comp_alg, carrier = X.comp_algebra()
    spec = spectrum(comp_alg, X.dualizer)
    hom_index = {h.values: i for i, h in enumerate(spec.homs)}
    values = []
    for x in range(X.n):
        pi_x = tuple(vec[x] for vec in carrier)
        if pi_x not in hom_index:
            raise AssertionError("point evaluation is not a homomorphism")
        values.append(hom_index[pi_x])
    ev = LMap(X, spec.space, tuple(values))
    return EvaluationMap(X, comp_alg, carrier, spec, ev)


@dataclass(frozen=True)
class SpaceProperties:
    separated: bool
    full: bool
    completely_regular: bool
    discrete: bool
    compact: bool = True


def _separates_points(functions, n) -> bool:
    """Whether the functions tell every two of the n points apart: whether
    the n columns of their values are distinct."""
    return n < 2 or len(set(zip(*functions))) == n


def space_properties(X: LSpace) -> SpaceProperties:
    separated = _separates_points(X.functions, X.n)
    comp_alg, carrier = X.comp_algebra()
    evaluations = {tuple(vec[x] for vec in carrier) for x in range(X.n)}
    full = all(h.values in evaluations for h in enumerate_homs(comp_alg, X.dualizer))
    completely_regular = X.topology == _fiber_topology(X)
    return SpaceProperties(separated, full, completely_regular, X.topology.is_discrete())


def _fiber_topology(X: LSpace) -> FiniteTopology:
    subbasis = []
    for f in X.functions:
        for a in X.dualizer.elements:
            subbasis.append(mask_of(x for x in range(X.n) if f[x] == a))
    return topology_from_subbasis(X.n, subbasis)


def regularize(X: LSpace) -> LSpace:
    """Install the initial topology generated by the fibers of comp."""
    return lspace(_fiber_topology(X), X.dualizer, X.functions)


def discretize(X: LSpace) -> LSpace:
    return lspace(discrete_topology(X.n), X.dualizer, X.functions)


def separated_quotient(X: LSpace) -> tuple[LSpace, tuple[int, ...]]:
    """Collapse points that all compatible functions fail to distinguish.

    Returns the quotient space and the point -> class vector; the quotient
    carries the quotient topology and the pushed-down functions.
    """
    ordered = sorted(X.functions)
    theta = Congruence.from_blocks(tuple(f[x] for f in ordered) for x in range(X.n))
    classes = theta.blocks
    top = X.topology.quotient(classes)
    functions = set()
    for f in X.functions:
        pushed = [None] * theta.num_blocks
        for x, c in enumerate(classes):
            pushed[c] = f[x]
        functions.add(tuple(pushed))
    return lspace(top, X.dualizer, functions), classes


@dataclass
class RoundtripReport:
    failures: list = field(default_factory=list)
    checked: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, name, ok, witness=None):
        self.checked.append(name)
        if not ok:
            self.failures.append((name, witness))


def _spectrum_triangle(eta: CanonicalEmbedding, ev: EvaluationMap):
    """Spec(eta_A) after ev_{Spec A} is the identity on points: yields
    (i, point i's hom values, those values carried round the triangle)."""
    elements = eta.spectrum.algebra.elements
    for i, h in enumerate(eta.spectrum.homs):
        point = ev.spectrum.homs[ev.map.values[i]]
        yield i, h.values, tuple(point.values[eta.map.values[a]] for a in elements)


def _comp_triangle(ev: EvaluationMap):
    """Comp(ev_X) after eta_{Comp X} is the identity on Comp X: yields
    (i, compatible function i, that function carried round the triangle)."""
    for i, vec in enumerate(ev.comp_carrier):
        eta_vec = tuple(h.values[i] for h in ev.spectrum.homs)
        yield i, vec, tuple(eta_vec[x] for x in ev.map.values)


def check_duality_roundtrip_algebra(A: FiniteAlgebra, L: FiniteAlgebra,
                                    gens=None) -> RoundtripReport:
    """For A in the prevariety of L: eta_A is an isomorphism onto Comp Spec A,
    Spec A is full/separated/completely regular, and the triangle identity
    on Spec A holds pointwise."""
    report = RoundtripReport()
    eta = canonical_embedding(A, L, gens=gens)
    # A is in the prevariety exactly when Hom(A, L) separates A, i.e. eta_A is injective
    if not eta.is_injective:
        report.record("algebra in prevariety", False, "Hom(A, L) does not separate")
        return report
    report.record("eta injective", eta.is_injective)
    report.record("eta isomorphism", eta.is_isomorphism)
    props = space_properties(eta.spectrum.space)
    report.record("spectrum separated", props.separated)
    report.record("spectrum full", props.full)
    report.record("spectrum completely regular", props.completely_regular)
    ev = evaluation_map(eta.spectrum.space)
    for i, values, transported in _spectrum_triangle(eta, ev):
        report.record("triangle on spectrum point %d" % i, transported == values,
                      (values, transported))
    return report


def check_duality_roundtrip_space(X: LSpace) -> RoundtripReport:
    """For a full separated (finite, hence discrete) L-space: ev_X is an
    isomorphism of L-spaces, and the triangle identity on Comp X holds."""
    report = RoundtripReport()
    props = space_properties(X)
    ev = evaluation_map(X)
    report.record("ev injective iff separated", ev.is_injective == props.separated)
    report.record("ev surjective iff full", ev.is_surjective == props.full)
    if props.separated and props.full:
        report.record("ev isomorphism", is_lspace_isomorphism(ev.map))
    for i, vec, pulled in _comp_triangle(ev):
        report.record("triangle on compatible function %d" % i, pulled == vec,
                      (vec, pulled))
    return report


def check_duality_roundtrip(obj, dualizer: FiniteAlgebra | None = None,
                            gens=None) -> RoundtripReport:
    """Dispatch on the argument: an L-space checks the counit, an algebra
    (with an explicit dualizer) checks the unit."""
    if isinstance(obj, LSpace):
        return check_duality_roundtrip_space(obj)
    if dualizer is None:
        raise InvalidInput("round-tripping an algebra needs the dualizer")
    return check_duality_roundtrip_algebra(obj, dualizer, gens=gens)


def check_naturality(h: ElementMap, L: FiniteAlgebra) -> RoundtripReport:
    """Comp(Spec h) . eta_A = eta_B . h, checked pointwise on elements of A."""
    A, B = h.domain, h.codomain
    report = RoundtripReport()
    if not h.is_homomorphism():
        report.record("input is a homomorphism", False)
        return report
    spec_a = spectrum(A, L)
    spec_b = spectrum(B, L)
    # Spec h maps a point g of Spec B to g . h, a point of Spec A.
    index_a = {hm.values: i for i, hm in enumerate(spec_a.homs)}
    spec_h = []
    for g in spec_b.homs:
        composed = tuple(g.values[h.values[a]] for a in A.elements)
        if composed not in index_a:
            report.record("Spec h lands in Spec A", False, composed)
            return report
        spec_h.append(index_a[composed])
    for a in A.elements:
        eta_a = tuple(hm.values[a] for hm in spec_a.homs)
        lhs = tuple(eta_a[spec_h[j]] for j in range(len(spec_b.homs)))
        rhs = tuple(hm.values[h.values[a]] for hm in spec_b.homs)
        report.record("naturality at element %d" % a, lhs == rhs, (lhs, rhs))
    return report


def spec_contravariant_check(h: ElementMap, g: ElementMap, L: FiniteAlgebra) -> bool:
    """Spec(g . h) = Spec(h) . Spec(g) on points, for composable homs h, g."""
    composed = g.compose(h)
    spec_outer = spectrum(composed.domain, L)

    def spec_of(m, target_spec):
        index = {hm.values: i for i, hm in enumerate(target_spec.homs)}
        def act(point_hom):
            return index[tuple(point_hom.values[m.values[a]] for a in m.domain.elements)]
        return act

    spec_mid = spectrum(g.domain, L)
    act_g = spec_of(g, spec_mid)          # Spec g : Spec C -> Spec B
    act_h = spec_of(h, spec_outer)        # Spec h : Spec B -> Spec A
    act_gh = spec_of(composed, spec_outer)
    spec_c = spectrum(g.codomain, L)
    for p in spec_c.homs:
        mid = spec_mid.homs[act_g(p)]
        if act_h(mid) != act_gh(p):
            return False
    return True
