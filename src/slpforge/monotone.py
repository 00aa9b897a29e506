"""Monomial-support analysis for monotone circuits.

A monotone circuit (characteristic-zero ring, no negative constants)
can never cancel a term, so the monomials of its expansion are exactly
the monomials it can produce.  All operations here work on that set
level and refuse circuits where cancellation could hide a monomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .circuits import LayeredCircuit, expand, validate
from .errors import ModeMismatch, NotMonotone, ParamError
from .families import FamilyParams, family_monomial_set
from .polynomials import COMMUTATIVE, DEFAULT_CAPS, ExpansionCaps, Monomial


@dataclass(frozen=True)
class MonomialSet:
    """The support of a polynomial, with no coefficient information."""

    mode: str
    num_variables: int
    members: frozenset[Monomial]
    origin_degree_bound: int

    def __post_init__(self):
        for mono in self.members:
            if mono.mode != self.mode:
                raise ModeMismatch("monomial mode differs from the set mode")
            if mono.degree > self.origin_degree_bound:
                raise ParamError(
                    f"monomial degree {mono.degree} exceeds declared "
                    f"bound {self.origin_degree_bound}"
                )

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class GraphComponent:
    variables: frozenset[int]
    monomials: frozenset[Monomial]


@dataclass(frozen=True)
class MonVarGraph:
    """Bipartite occurrence graph between variables and monomials."""

    monomial_vertices: frozenset[Monomial]
    variable_vertices: frozenset[int]
    edges: frozenset[tuple[int, Monomial]]
    components: tuple[GraphComponent, ...]


def mon_set(c: LayeredCircuit, caps: ExpansionCaps = DEFAULT_CAPS) -> MonomialSet:
    """Support of expand(c): the monomials of its expansion under caps.

    Defined for monotone circuits only, where nothing cancels, so these
    are also all the monomials the circuit produces; anything else
    raises NotMonotone.
    """
    if not validate(c).monotone:
        raise NotMonotone("set semantics require a monotone circuit")
    poly = expand(c, caps)
    return MonomialSet(c.mode, c.num_variables, frozenset(poly.terms), poly.degree())


def mon_var_graph(s: MonomialSet) -> MonVarGraph:
    """Occurrence graph of a monomial set and its connected components.

    Components are reported smallest-variable first; a constant monomial
    touches no variable and forms a component of its own, reported last.
    """
    variables_of = {mono: mono.variables() for mono in s.members}
    edges = frozenset((var, mono) for mono, vs in variables_of.items() for var in vs)
    parent = {var: var for vs in variables_of.values() for var in vs}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Each monomial joins its variables into one component.
    for vs in variables_of.values():
        if vs:
            root = find(min(vs))
            for var in vs:
                parent[find(var)] = root

    # Keyed by root, inserted smallest variable first; the constant
    # monomial's key None comes after every variable's.
    groups: dict[int | None, tuple[set[int], set[Monomial]]] = {}
    for var in sorted(parent):
        vars_, _ = groups.setdefault(find(var), (set(), set()))
        vars_.add(var)
    for mono, vs in variables_of.items():
        root = find(min(vs)) if vs else None
        _, monos = groups.setdefault(root, (set(), set()))
        monos.add(mono)
    return MonVarGraph(
        monomial_vertices=frozenset(s.members),
        variable_vertices=frozenset(parent),
        edges=edges,
        components=tuple(
            GraphComponent(frozenset(v), frozenset(m)) for v, m in groups.values()
        ),
    )


@dataclass(frozen=True)
class CoverageReport:
    contained: bool
    circuit_count: int
    family_count: int
    fraction: Fraction


def coverage(
    c: LayeredCircuit,
    params: FamilyParams,
    caps: ExpansionCaps = DEFAULT_CAPS,
) -> CoverageReport:
    """Compare a monotone circuit's support against a block-family instance."""
    if c.mode != COMMUTATIVE:
        raise ModeMismatch("coverage compares against a commutative family")
    circuit_support = mon_set(c, caps).members
    family_support = family_monomial_set(params, caps)
    return CoverageReport(
        contained=circuit_support <= family_support,
        circuit_count=len(circuit_support),
        family_count=len(family_support),
        fraction=Fraction(len(circuit_support), len(family_support)),
    )
