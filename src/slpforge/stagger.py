"""Staggering: layered circuits to register programs of width w+1.

Each layer transition V_i -> V_{i+1} is summarized by a multigraph on
the layer-i gates.  A layer-(i+1) gate whose operands are both held in
registers becomes an edge between them (a self-loop when they coincide
or when one operand is a leaf); a gate reading two leaves costs no
registers until it is emitted and goes to the constant list.  Because
each layer-(i+1) gate contributes one edge or one constant entry,
|V(G)| <= w and |E(G)| + |V'| <= w.

Copies are aliases.  The first copy u*1 of a layer-i gate u (see the
circuits module docstring) takes over u's register and emits no step.
From then on u is read like a leaf: it is no vertex of the multigraph,
so the schedule never frees its register, and a gate reading u counts
only its other operand.  A second copy of u and a copy of a leaf are
ordinary gates, so two live gates never share a register.  With A
aliases, the A registers they hold and the graph of the remaining gates
together respect the bound: A + |V(G)| <= w, since the aliased sources
are layer-i gates that are not vertices, and A + |E(G)| + |V'| <= w,
since every layer-(i+1) gate is an alias, an edge or a constant entry.
Staggering keys on gate ids and the copy table and never on leaf
values, so mapping a variable leaf to 1 changes no alias.

order_edges schedules the edges so that the running register demand --
results already computed plus layer-i values still needed -- never
exceeds max{|V(G)|, |E(G)|+1, |E(G)|+|V'|}, so with the aliases a
transition needs at most A + that <= w+1 registers (census_bound).  The
result register can reuse the register of an operand that dies with the
edge; a self-loop reads its register twice and therefore always takes a
fresh one.

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

staggerize replays the schedule as straight-line code, giving at most
w+1 registers and one apply step per internal gate that is not an
alias: leaf operands are embedded as immediates, so no loads are spent
on them.  A circuit from slp_to_circuit, read back from a file or not,
costs at most one step per layer up to the output, and exactly one
when no step of its program multiplies by 1.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .circuits import (
    BinGate,
    LayeredCircuit,
    Operand,
    RegOperand,
    SlpBuilder,
    StraightLineProgram,
    leaf_operand,
    validate,
)
from .errors import InvariantViolation, ParamError


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


def build_layer_multigraph(circuit: LayeredCircuit, layer_index: int) -> LayerMultigraph:
    """Multigraph for the transition V_layer_index -> V_{layer_index+1}.

    For layer_index 1 the register-resident set is empty (leaves are
    immediates), so every layer-2 gate lands in constant_gates.  The
    first copy of each resident gate is an alias, not an edge,
    and its source is read like a leaf by every other gate of the layer.
    """
    if not 1 <= layer_index < circuit.layer_count:
        raise ParamError(
            f"no transition starting at layer {layer_index} in a "
            f"{circuit.layer_count}-layer circuit"
        )
    table = circuit.gates
    gates, copies = table.explicit, table.copies
    layer = circuit.layers[layer_index]
    resident = set(circuit.layers[layer_index - 1]) if layer_index >= 2 else set()
    aliases: dict[int, int] = {}
    if copies and resident:
        for gid in layer:
            source = copies.get(gid)
            if source in resident:
                resident.remove(source)
                aliases[gid] = source
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
class EdgeStep:
    """One scheduled edge removal with its register bookkeeping."""

    edge: MultiEdge
    fresh: bool  # result needs a register not freed by this step
    freed: tuple[int, ...]  # vertices isolated by this removal


@dataclass(frozen=True)
class OrderResult:
    order: tuple[MultiEdge, ...]
    census: tuple[int, ...]  # census[0] before any step, then one peak per step
    steps: tuple[EdgeStep, ...]


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
    steps: list[EdgeStep] = []
    census = [len(degree)]
    nonisolated = len(degree)

    def remove(e: MultiEdge) -> None:
        nonlocal nonisolated
        degree[e.u] -= 1
        degree[e.v] -= 1
        freed = tuple(sorted({x for x in (e.u, e.v) if degree[x] == 0}))
        fresh = e.is_loop or not freed
        census.append(len(order) + nonisolated + (1 if fresh else 0))
        nonisolated -= len(freed)
        order.append(e)
        steps.append(EdgeStep(e, fresh, freed))

    for comp in components:
        for i in comp:
            if i in cycle_edges:
                remove(edges[i])
        # What is left is a tree: prune the least edge at a leaf, in key order.
        live = [edges[i] for i in comp if i not in cycle_edges]
        while live:
            j = next(j for j, e in enumerate(live) if degree[e.u] == 1 or degree[e.v] == 1)
            remove(live.pop(j))
    return OrderResult(tuple(order), tuple(census), tuple(steps))


def census_bound(graph: LayerMultigraph) -> int:
    """|A| + max{|V|, |E|+1, |E|+|V'|}, the register budget for one transition.

    The |A| aliased copies hold their sources' registers throughout; the
    census of order_edges counts the rest.
    """
    v = len(graph.vertices)
    e = len(graph.edges)
    return len(graph.aliases) + max(v, e + 1, e + len(graph.constant_gates))


def staggerize(circuit: LayeredCircuit, name: str | None = None) -> StraightLineProgram:
    """Equivalent straight-line program over at most width+1 registers."""
    validate(circuit)
    width = circuit.width
    register_count = max(width + 1, 1)
    sb = SlpBuilder(
        circuit.ring,
        circuit.mode,
        circuit.num_variables,
        register_count,
        name or f"{circuit.name}-staggered",
    )

    out_layer = next(
        i for i, layer in enumerate(circuit.layers, start=1) if circuit.output_id in layer
    )
    leaves = set(circuit.layers[0])

    if out_layer == 1:
        sb.load(0, leaf_operand(circuit, circuit.output_id))
        return sb.finish(0)

    free = list(range(register_count))  # a heap: the smallest goes first

    def alloc() -> int:
        if not free:
            raise InvariantViolation("register budget exhausted; scheduling bug")
        return heapq.heappop(free)

    def release(reg: int) -> None:
        heapq.heappush(free, reg)

    register_of: dict[int, int] = {}
    for i in range(1, out_layer):
        graph = build_layer_multigraph(circuit, i)
        # An aliased copy takes over its source's register.  The source is
        # read there until the layer is done and is never released.
        for gid, source in graph.aliases:
            register_of[gid] = register_of[source]
        # Layer-i gates nothing consumes die now.
        used = {e.u for e in graph.edges} | {e.v for e in graph.edges}
        for vid in sorted(graph.vertices - used):
            release(register_of.pop(vid))

        def operand_for(ref: int) -> Operand:
            if ref in leaves:
                return leaf_operand(circuit, ref)
            return RegOperand(register_of[ref])

        schedule = order_edges(graph)
        for step in schedule.steps:
            gate = circuit.gates[step.edge.gate]
            left, right = operand_for(gate.left), operand_for(gate.right)
            # A fresh step allocates before any register it frees is back on the heap.
            popped = sorted(register_of.pop(vid) for vid in step.freed)
            dest = alloc() if step.fresh else popped[0]
            sb.apply(dest, gate.op, left, right)
            for reg in popped:
                if reg != dest:
                    release(reg)
            register_of[step.edge.gate] = dest
        for gid in graph.constant_gates:
            gate = circuit.gates[gid]
            dest = alloc()
            sb.apply(dest, gate.op, operand_for(gate.left), operand_for(gate.right))
            register_of[gid] = dest
        for _, source in graph.aliases:
            del register_of[source]
        # Registers now hold exactly the layer-(i+1) values.
        if set(register_of) != set(circuit.layers[i]):
            raise InvariantViolation(f"layer {i + 1} not fully consumed; scheduling bug")

    return sb.finish(register_of[circuit.output_id])
