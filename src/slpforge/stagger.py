"""Staggering: layered circuits to register programs of width at most w+1.

Each layer transition V_i -> V_{i+1} is summarized by a multigraph on
the layer-i gates.  A layer-(i+1) gate whose operands are both held in
registers becomes an edge between them (a self-loop when they coincide
or when one operand is a leaf); a gate reading two leaves costs no
registers until it is emitted and goes to the constant list.  Because
each layer-(i+1) gate contributes one edge or one constant entry,
|V(G)| <= w and |E(G)| + |V'| <= w.

Copies are aliases.  Every copy u*1 of a layer-i gate u (see the
circuits module docstring) holds u's value, in u's register, and emits
no step.  Then u is read like a leaf: it is no vertex of the
multigraph, so the census counts its register with the aliases and
never frees it, and a gate reading u counts only its other operand.  A
copy of a leaf is an ordinary gate, a step of its own.  With A aliased
sources, the A registers they hold and the graph of the remaining
gates together respect the bound: A + |V(G)| <= w, since the aliased
sources are layer-i gates that are not vertices, and
A + |E(G)| + |V'| <= w, since every layer-(i+1) gate is an alias, an
edge or a constant entry, and each source has at least one alias.
Staggering keys on gate ids and the copy table and never on leaf
values, so mapping a variable leaf to 1 changes no alias.

order_edges schedules the edges so that the running register demand --
results already computed plus layer-i values still needed -- never
exceeds max{|V(G)|, |E(G)|+1, |E(G)|+|V'|}, so with the aliases a
transition needs at most A + that <= w+1 registers (census_bound).  The
census lets a result reuse the register of an operand that dies with
the edge, and counts a self-loop's result in a register of its own.

The order is fixed, because slp_to_circuit derives copy gates from it
and so emitted sizes depend on it.  Components go acyclic first, then
by least vertex.  Inside a component each step removes, while any edge
lies on a cycle (loops and parallel copies included), the least such
edge by (u, v, gate); after that the component is a tree, and each step
removes the least edge by (u, v, gate) with an endpoint of degree one.

The cycle steps have a closed form.  Removing an edge never turns a
bridge into a non-bridge, so every edge below the one just removed
stays a bridge, and the cycle edges go in increasing key order.  That
is a reverse-delete pass (Kruskal 1956) visiting the edges in
increasing key order and deleting each that still lies on a cycle:
what survives is the maximum-key spanning forest, and the cycle steps
are the other edges, in key order.  order_edges finds them in one
union-find pass over the edges, largest key first, where an edge whose
ends are already joined is a cycle edge; the same pass gives the
components.  Cost: one sort and one union-find pass, then one scan for
leaf edges per tree step, so still O(E^2) per layer in the worst case.

staggerize schedules only the output's cone: the output and every gate
it depends on, found by one walk back from the output over operands
and copy sources that stops at leaves.  Each transition's multigraph is
built on the cone alone, both the layer and the resident set restricted
to it.  The cone is itself a layered circuit: a cone gate reads cone
gates of the layer below, or leaves.  Its layers are subsets of the
circuit's, so its width w_c is at most w, and the census argument
above, applied to the cone, gives every transition
A + max{|V|, |E|+1, |E|+|V'|} <= w_c+1 <= w+1 registers.  A circuit
whose every internal gate lies in the cone schedules as on whole
layers.

The schedule is a list of steps, one apply step per cone gate below
the output's layer that is not an alias, an alias naming its source's
value; a leaf gate is itself the step's immediate operand, so no loads
are spent on leaves.  circuits._allocate, as for circuit_to_slp, emits the steps
in schedule order and picks the registers: each value is freed at its
last read and each result takes the smallest free register.  That is
the fewest registers this step order allows, so never more than the
census bound w_c+1, and often fewer.  A circuit costs one step per gate
of the output's cone that is not an alias, and a circuit whose output
is a leaf one load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Container

from .circuits import (
    BinGate,
    LayeredCircuit,
    Leaf,
    SlpBuilder,
    StraightLineProgram,
    _allocate,
    validate,
)
from .errors import ParamError


@dataclass(frozen=True)
class MultiEdge:
    """Edge of a layer multigraph; u <= v, u == v for self-loops."""

    u: int
    v: int
    gate: int  # id of the layer-(i+1) gate this edge computes

    @property
    def is_loop(self) -> bool:
        return self.u == self.v


@dataclass(frozen=True)
class LayerMultigraph:
    vertices: frozenset[int]
    edges: tuple[MultiEdge, ...]
    constant_gates: tuple[int, ...]
    # (copy id, source id) for each copy that takes over its source's
    # register; the source is not a vertex.
    aliases: tuple[tuple[int, int], ...] = ()


def build_layer_multigraph(
    circuit: LayeredCircuit, layer_index: int, cone: Container[int]
) -> LayerMultigraph:
    """Multigraph for the transition V_layer_index -> V_{layer_index+1} within cone.

    Both layers are restricted to the gates in cone, in layer order:
    staggerize passes the output's cone, and circuit.gates gives the
    whole layers.  For layer_index 1 the register-resident set is empty
    (leaves are immediates), so every layer-2 gate lands in
    constant_gates.  Every copy of a resident gate is an alias, not an
    edge, and its source is read like a leaf by every other gate of the
    layer.
    """
    if not 1 <= layer_index < circuit.layer_count:
        raise ParamError(
            f"no transition starting at layer {layer_index} in a "
            f"{circuit.layer_count}-layer circuit"
        )
    table = circuit.gates
    gates, copies = table.explicit, table.copies
    layer = [gid for gid in circuit.layers[layer_index] if gid in cone]
    below = circuit.layers[layer_index - 1] if layer_index >= 2 else ()
    resident = {gid for gid in below if gid in cone}
    aliases: dict[int, int] = {}
    if copies and resident:
        for gid in layer:
            source = copies.get(gid)
            if source in resident:
                aliases[gid] = source
        resident.difference_update(aliases.values())
    edges = []
    constants = []
    for gid in layer:
        source = copies.get(gid)
        if source is not None:
            if gid in aliases:
                continue
            operands = (source, table.one)
        else:
            g = gates[gid]
            if not isinstance(g, BinGate):
                raise ParamError(f"gate {gid} in layer {layer_index + 1} is not internal")
            operands = (g.left, g.right)
        ends = [ref for ref in operands if ref in resident]
        if not ends:
            constants.append(gid)
        elif len(ends) == 1:
            edges.append(MultiEdge(ends[0], ends[0], gid))
        else:
            a, b = sorted(ends)
            edges.append(MultiEdge(a, b, gid))
    return LayerMultigraph(
        frozenset(resident), tuple(edges), tuple(constants), tuple(aliases.items())
    )


@dataclass(frozen=True)
class OrderResult:
    order: tuple[MultiEdge, ...]
    census: tuple[int, ...]  # census[0] before any step, then one peak per step


def _edge_key(e: MultiEdge) -> tuple[int, int, int]:
    return (e.u, e.v, e.gate)


def order_edges(graph: LayerMultigraph) -> OrderResult:
    """Schedule the edges within the documented register census."""
    edges = graph.edges
    by_key = sorted(range(len(edges)), key=lambda i: _edge_key(edges[i]))
    degree: dict[int, int] = {}
    parent: dict[int, int] = {}
    for e in edges:
        degree[e.u] = degree.get(e.u, 0) + 1
        degree[e.v] = degree.get(e.v, 0) + 1
        parent[e.u] = e.u
        parent[e.v] = e.v

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    # Kruskal, largest key first: an edge whose ends are already joined
    # lies outside the maximum-key spanning forest.
    cycle_edges: set[int] = set()
    for i in reversed(by_key):
        ru, rv = find(edges[i].u), find(edges[i].v)
        if ru == rv:
            cycle_edges.add(i)
        else:
            parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for i in by_key:
        groups.setdefault(find(edges[i].u), []).append(i)
    # A component's least-key edge has its least vertex as u.
    components = sorted(
        groups.values(),
        key=lambda comp: (any(i in cycle_edges for i in comp), edges[comp[0]].u),
    )

    order: list[MultiEdge] = []
    census = [len(degree)]
    nonisolated = len(degree)

    def remove(e: MultiEdge) -> None:
        # The result needs a register of its own unless an endpoint dies
        # with the edge; a self-loop's result is counted in one anyway.
        nonlocal nonisolated
        degree[e.u] -= 1
        degree[e.v] -= 1
        freed = len({x for x in (e.u, e.v) if degree[x] == 0})
        fresh = e.is_loop or not freed
        census.append(len(order) + nonisolated + (1 if fresh else 0))
        nonisolated -= freed
        order.append(e)

    for comp in components:
        for i in comp:
            if i in cycle_edges:
                remove(edges[i])
        # What is left is a tree: prune the least edge at a leaf, in key order.
        live = [edges[i] for i in comp if i not in cycle_edges]
        while live:
            j = next(j for j, e in enumerate(live) if degree[e.u] == 1 or degree[e.v] == 1)
            remove(live.pop(j))
    return OrderResult(tuple(order), tuple(census))


def census_bound(graph: LayerMultigraph) -> int:
    """|A| + max{|V|, |E|+1, |E|+|V'|}, the register budget for one transition.

    A is the set of aliased sources: the copies of one source share its
    register, which they hold throughout; the census of order_edges
    counts the rest.
    """
    v = len(graph.vertices)
    e = len(graph.edges)
    aliased = len({source for _, source in graph.aliases})
    return aliased + max(v, e + 1, e + len(graph.constant_gates))


def _cone(circuit: LayeredCircuit) -> set[int]:
    """The output and every gate it depends on: one walk back that stops at leaves."""
    table = circuit.gates
    gates, copies = table.explicit, table.copies
    cone = {circuit.output_id}
    stack = [circuit.output_id]
    while stack:
        gid = stack.pop()
        source = copies.get(gid)
        if source is not None:
            reads: tuple[int, ...] = (source,)
        else:
            g = gates[gid]
            if not isinstance(g, BinGate):
                continue
            reads = (g.left, g.right)
        for ref in reads:
            if ref not in cone:
                cone.add(ref)
                stack.append(ref)
    return cone


def staggerize(circuit: LayeredCircuit, name: str | None = None) -> StraightLineProgram:
    """Equivalent straight-line program over at most width+1 registers.

    Only the output's cone is scheduled, each transition on the cone's
    part of its two layers; the cone's width is at most the circuit's,
    so the budget width+1 holds (see the module docstring).
    """
    validate(circuit)
    sb = SlpBuilder(
        circuit.ring, circuit.mode, circuit.num_variables, name=name or f"{circuit.name}-staggered"
    )
    out_layer = next(
        i for i, layer in enumerate(circuit.layers, start=1) if circuit.output_id in layer
    )
    gates = circuit.gates
    leaves = set(circuit.layers[0])
    cone = _cone(circuit)
    alias: dict[int, int] = {}  # aliased copy -> the gate whose value it holds

    def operand(ref: int) -> int | Leaf:
        return gates.explicit[ref] if ref in leaves else alias.get(ref, ref)

    steps: list[tuple] = []
    for i in range(1, out_layer):
        graph = build_layer_multigraph(circuit, i, cone)
        for gid, source in graph.aliases:
            alias[gid] = alias.get(source, source)
        for gid in [e.gate for e in order_edges(graph).order] + list(graph.constant_gates):
            gate = gates[gid]
            steps.append((gid, gate.op, operand(gate.left), operand(gate.right)))
    return _allocate(sb, steps, operand(circuit.output_id), circuit.width + 1)
