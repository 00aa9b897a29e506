"""Layer multigraphs, edge scheduling, and the staggering transform."""

import hashlib
import importlib
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from genutil import (
    cone_circuit,
    cone_steps,
    peak_live_values,
    program_digest,
    random_layered_circuit,
    random_slp,
    reference_circuit_to_slp,
    reference_order_edges,
    reference_slp_to_circuit,
)
from slpforge import stagger
from slpforge.circuits import (
    ApplyStep,
    CircuitBuilder,
    LayeredCircuit,
    LoadStep,
    RegOperand,
    circuit_to_slp,
    evaluate,
    evaluate_batch,
    expand,
    leaf_operand,
    slp_to_circuit,
    syntactic_degree,
    validate,
)
from slpforge.families import build_permanent_sparse
from slpforge.polynomials import COMMUTATIVE, MODES, NONCOMMUTATIVE
from slpforge.rings import RATIONALS, PrimeField, RationalField
from slpforge.textio import parse_circuit, serialize_circuit
from slpforge.stagger import (
    LayerMultigraph,
    MultiEdge,
    build_layer_multigraph,
    census_bound,
    order_edges,
    staggerize,
)
from slpforge.transforms import sparse_to_width2

F = PrimeField(101)


def census_ok(graph: LayerMultigraph) -> bool:
    result = order_edges(graph)
    return all(c <= census_bound(graph) for c in result.census)


def test_single_edge_census():
    g = LayerMultigraph(frozenset({1, 2}), (MultiEdge(1, 2, 10),), ())
    result = order_edges(g)
    assert result.order == (MultiEdge(1, 2, 10),)
    assert max(result.census) == 2


def test_self_loop_census():
    g = LayerMultigraph(frozenset({1}), (MultiEdge(1, 1, 10),), ())
    result = order_edges(g)
    assert result.census == (1, 2)


def test_triangle_census():
    edges = (MultiEdge(1, 2, 10), MultiEdge(2, 3, 11), MultiEdge(1, 3, 12))
    g = LayerMultigraph(frozenset({1, 2, 3}), edges, ())
    result = order_edges(g)
    assert len(result.order) == 3
    assert max(result.census) <= 4  # |E| + 1


def test_parallel_edges_and_loops_schedule():
    edges = (
        MultiEdge(1, 2, 10),
        MultiEdge(1, 2, 11),
        MultiEdge(2, 2, 12),
        MultiEdge(3, 4, 13),
    )
    g = LayerMultigraph(frozenset({1, 2, 3, 4}), edges, ())
    result = order_edges(g)
    assert sorted((e.u, e.v, e.gate) for e in result.order) == [
        (1, 2, 10),
        (1, 2, 11),
        (2, 2, 12),
        (3, 4, 13),
    ]
    assert max(result.census) <= census_bound(g)


def test_multigraph_construction_classifies_operands():
    cb = CircuitBuilder(F, COMMUTATIVE, 2)
    x1, x2 = cb.var_leaf(1), cb.var_leaf(2)
    a = cb.gate(2, "mul", x1, x2)
    b = cb.gate(2, "add", x1, x1)
    both = cb.gate(3, "mul", a, b)  # edge {a, b}
    half = cb.gate(3, "add", a, x1)  # self-loop at a
    const_pair = cb.gate(3, "mul", x1, x2)  # neither operand resident
    cb.set_output(both)
    c = cb.build()

    g = build_layer_multigraph(c, 2, c.gates)
    assert g.vertices == frozenset({a, b})
    kinds = sorted((e.u, e.v) for e in g.edges)
    assert kinds == [(min(a, b), max(a, b)), (a, a)] or kinds == [
        (a, a),
        (min(a, b), max(a, b)),
    ]
    assert g.constant_gates == (const_pair,)
    # Layer-1 transitions see no resident registers: everything is constant-like.
    g1 = build_layer_multigraph(c, 1, c.gates)
    assert g1.vertices == frozenset()
    assert len(g1.constant_gates) == 2


def test_multigraph_invariants_on_random_circuits():
    rng = random.Random(7)
    from genutil import random_layered_circuit

    for _ in range(40):
        width = rng.randrange(1, 6)
        mode = rng.choice(MODES)
        c = random_layered_circuit(rng, F, mode, width, internal_layers=rng.randrange(1, 5))
        w = c.width
        for layer_index in range(1, c.layer_count):
            g = build_layer_multigraph(c, layer_index, c.gates)
            assert len(g.vertices) <= w
            assert len(g.edges) + len(g.constant_gates) <= w
            assert census_ok(g)


def test_staggerize_register_bound_and_equivalence():
    rng = random.Random(11)
    from genutil import random_layered_circuit

    for trial in range(30):
        width = rng.randrange(1, 6)
        mode = rng.choice(MODES)
        c = random_layered_circuit(rng, F, mode, width, internal_layers=rng.randrange(1, 5))
        slp = staggerize(c)
        assert slp.register_count <= c.width + 1, f"trial {trial}"
        assert expand(slp) == expand(c), f"trial {trial}"


def test_staggerize_size_bound():
    rng = random.Random(13)
    from genutil import random_layered_circuit

    for _ in range(20):
        width = rng.randrange(1, 6)
        c = random_layered_circuit(rng, F, COMMUTATIVE, width, internal_layers=3)
        staggered = slp_to_circuit(staggerize(c))
        report = validate(staggered)
        assert report.staggered
        assert report.size <= 4 * c.width * c.size


def test_staggerize_width2_uses_three_registers():
    cb = CircuitBuilder(F, COMMUTATIVE, 4)
    m1 = cb.gate(2, "mul", cb.var_leaf(1), cb.var_leaf(2))
    m2 = cb.gate(2, "mul", cb.var_leaf(3), cb.var_leaf(4))
    out = cb.gate(3, "add", m1, m2)
    cb.set_output(out)
    c = cb.build()
    assert c.width == 2

    slp = staggerize(c)
    assert slp.register_count <= 3
    expected = expand(c)
    assert expand(slp) == expected
    assert {m.text() for m in expected.terms} == {"x1*x2", "x3*x4"}


def test_staggerize_idempotent_on_staggered_circuits():
    cb = CircuitBuilder(F, COMMUTATIVE, 2)
    g1 = cb.gate(2, "mul", cb.var_leaf(1), cb.var_leaf(2))
    g2 = cb.gate(3, "mul", g1, cb.const_leaf(1))
    g3 = cb.gate(4, "add", g2, cb.var_leaf(1))
    cb.set_output(g3)
    c = cb.build()
    assert validate(c).staggered

    slp = staggerize(c)
    assert slp.register_count <= c.width + 1
    assert expand(slp) == expand(c)


def test_staggerize_noncommutative_order_preserved():
    cb = CircuitBuilder(F, NONCOMMUTATIVE, 2)
    a = cb.gate(2, "mul", cb.var_leaf(1), cb.var_leaf(2))
    b = cb.gate(2, "mul", cb.var_leaf(2), cb.var_leaf(1))
    out = cb.gate(3, "mul", a, b)
    cb.set_output(out)
    c = cb.build()

    slp = staggerize(c)
    expansion = expand(slp)
    assert [m.key for m in expansion.monomials()] == [(1, 2, 2, 1)]


def test_staggerize_rational_constants():
    R = RationalField()
    cb = CircuitBuilder(R, COMMUTATIVE, 1)
    half = cb.const_leaf(Fraction(1, 2))
    g = cb.gate(2, "mul", cb.var_leaf(1), half)
    cb.set_output(g)
    c = cb.build()
    slp = staggerize(c)
    assert expand(slp) == expand(c)


def test_roundtrip_through_circuit_to_slp():
    rng = random.Random(17)
    from genutil import random_layered_circuit

    for _ in range(10):
        c = random_layered_circuit(rng, F, COMMUTATIVE, rng.randrange(1, 5))
        staggered = slp_to_circuit(staggerize(c))
        back = circuit_to_slp(staggered)
        assert expand(back) == expand(c)


def staggered_draws(rng, monkeypatch):
    """random_layered_circuit draws, then perfbench's stagger_wide shape at widths 8-64."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    gen = importlib.import_module("perfbench.gen")
    for trial in range(160):
        ring, mode = (F, RATIONALS)[trial % 2], MODES[trial // 2 % 2]
        width, layers = rng.randrange(1, 13), rng.randrange(1, 6)
        yield random_layered_circuit(rng, ring, mode, width, internal_layers=layers)
    for trial, width in enumerate((8, 8, 16, 32, 64)):
        yield gen.layered_circuit(rng, F, MODES[trial % 2], [width, width, width // 8])


def test_staggered_programs_come_back_step_for_step(monkeypatch):
    # circuit_to_slp of the staggered circuit lists the program's steps
    # again, and the one allocator gives them the same registers.
    for trial, c in enumerate(staggered_draws(random.Random(61), monkeypatch)):
        program = staggerize(c)
        back = circuit_to_slp(slp_to_circuit(program))
        assert program_parts(back) == program_parts(program), trial


def every_step_is_read(program) -> bool:
    """Each step writes the output, or a value a later step reads before it is overwritten."""
    writer: dict[int, int] = {}
    read: set[int] = set()
    for j, step in enumerate(program.steps):
        operands = (step.left, step.right) if isinstance(step, ApplyStep) else ()
        read |= {writer[op.register] for op in operands if isinstance(op, RegOperand)}
        writer[step.dest] = j
    read.add(writer[program.output_register])
    return read == set(range(program.step_count))


def test_only_the_steps_the_output_reads_are_emitted(monkeypatch):
    rng = random.Random(71)
    draws = list(staggered_draws(rng, monkeypatch))
    for trial in range(150):
        registers, steps = rng.randrange(1, 7), rng.randrange(0, 20)
        slp = random_slp(rng, F, MODES[trial % 2], registers, step_count=steps)
        draws.append(slp_to_circuit(slp))
    for trial, c in enumerate(draws):
        program = staggerize(c)
        back = circuit_to_slp(slp_to_circuit(program))
        assert every_step_is_read(program), trial
        assert every_step_is_read(back), trial
        assert program.step_count == max(cone_steps(c), 1), trial
        assert expand(program) == expand(back) == expand(c), trial
        # Read at a leaf, the same circuit staggers to one load of it.
        leaf = rng.choice(c.layers[0])
        bare = LayeredCircuit(c.name, c.ring, c.mode, c.num_variables, c.layers, c.gates, leaf)
        program = staggerize(bare)
        assert program.steps == (LoadStep(0, leaf_operand(c, leaf)),), trial
        assert program.register_count == 1 and expand(program) == expand(bare), trial


def test_register_count_is_the_peak_of_live_values(monkeypatch):
    rng = random.Random(67)
    for trial, c in enumerate(staggered_draws(rng, monkeypatch)):
        program = staggerize(c)
        assert program.register_count == peak_live_values(program), trial
    for trial in range(300):
        registers, steps = rng.randrange(1, 7), rng.randrange(0, 24)
        slp = random_slp(rng, F, MODES[trial % 2], registers, step_count=steps)
        program = circuit_to_slp(slp_to_circuit(slp))
        assert program.register_count == peak_live_values(program), trial


def program_parts(slp):
    return (slp.name, slp.register_count, slp.steps, slp.output_register)


def twins(c):
    """c made again by the other ways of making a circuit: parsed, and from a plain mapping."""
    parsed = parse_circuit(serialize_circuit(c))
    mapped = LayeredCircuit(
        c.name, c.ring, c.mode, c.num_variables, c.layers, dict(c.gates), c.output_id
    )
    return parsed, mapped


def assert_construction_paths_agree(c, rng):
    """Every way of making c stores the same gates and copies and behaves alike."""
    points = [[rng.randrange(-50, 51) for _ in range(c.num_variables)] for _ in range(3)]
    columns = np.array(points, dtype=np.int64).reshape(3, -1).T
    for twin in twins(c):
        assert twin.gates.explicit == c.gates.explicit
        assert twin.gates.copies == c.gates.copies
        assert twin.gates.one == c.gates.one
        assert validate(twin) == validate(c)
        assert list(twin.gates) == list(c.gates)
        assert serialize_circuit(twin) == serialize_circuit(c)
        assert program_parts(staggerize(twin)) == program_parts(staggerize(c))
        if validate(c).staggered:
            assert program_parts(circuit_to_slp(twin)) == program_parts(circuit_to_slp(c))
        assert expand(twin) == expand(c)
        assert syntactic_degree(twin) == syntactic_degree(c)
        for point in points:
            assert evaluate(twin, point) == evaluate(c, point)
        assert np.array_equal(evaluate_batch(twin, columns), evaluate_batch(c, columns))


def assert_conversions_match_reference(slp):
    """Both conversions give the output of their first-written versions.

    The first-written slp_to_circuit builds each copy with
    CircuitBuilder.gate, one gate u*1 at a time, and the builder stores
    it in the copy table all the same.
    """
    staggered = slp_to_circuit(slp)
    first = reference_slp_to_circuit(slp)
    # One layer per apply step, holding at most one explicit gate; every
    # copy is in the copy table.
    applies = sum(isinstance(step, ApplyStep) for step in slp.steps)
    explicit = staggered.gates.explicit
    assert len(staggered.layers) == applies + 1
    assert all(sum(gid in explicit for gid in layer) <= 1 for layer in staggered.layers[1:])
    assert explicit == first.gates.explicit
    assert staggered.gates.copies == first.gates.copies
    assert serialize_circuit(staggered) == serialize_circuit(first)
    back = circuit_to_slp(staggered)
    assert program_parts(back) == program_parts(reference_circuit_to_slp(staggered))
    assert back.step_count == max(cone_steps(staggered), 1)
    assert_construction_paths_agree(staggered, random.Random(len(slp.steps)))
    return staggered, back


def test_round_trip_matches_reference_on_generated_circuits():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(0, 2**32),
        st.sampled_from(MODES),
        st.sampled_from((F, RATIONALS)),
        st.integers(1, 12),
        st.integers(1, 5),
    )
    def check(seed, mode, ring, width, internal_layers):
        rng = random.Random(seed)
        c = random_layered_circuit(rng, ring, mode, width, internal_layers=internal_layers)
        staggered, back = assert_conversions_match_reference(staggerize(c))
        report = validate(staggered)
        assert report.staggered
        assert report.width <= c.width + 1
        for _ in range(3):
            point = [rng.randrange(-50, 51) for _ in range(c.num_variables)]
            assert evaluate(back, point) == evaluate(c, point)

    check()


def test_conversions_match_reference_on_random_programs():
    # Loads, constant operands and registers read before any write: the
    # paths that create the 0 and 1 leaves between gates.
    rng = random.Random(41)
    for mode in MODES:
        for _ in range(150):
            slp = random_slp(
                rng, F, mode, rng.randrange(1, 6), step_count=rng.randrange(0, 16)
            )
            staggered, back = assert_conversions_match_reference(slp)
            assert expand(back) == expand(slp)


def multigraph(pairs, isolated=(), constants=0) -> LayerMultigraph:
    """Layer multigraph with edge i between pairs[i], computing gate 1000+i."""
    edges = tuple(MultiEdge(min(a, b), max(a, b), 1000 + i) for i, (a, b) in enumerate(pairs))
    vertices = frozenset(isolated) | {x for e in edges for x in (e.u, e.v)}
    return LayerMultigraph(vertices, edges, tuple(range(2000, 2000 + constants)))


def random_multigraph(rng: random.Random, dense: bool = False) -> LayerMultigraph:
    """Several components, loops, parallel copies, isolated vertices, constants.

    A dense graph has up to 30 edges on 6 vertices drawn in two or three
    groups, with runs of two to four parallel edges.
    """
    if dense:
        vertices = rng.sample(range(1, 60), 6)
        cuts = sorted(rng.sample(range(1, 6), rng.randrange(1, 3)))
        comps = [vertices[a:b] for a, b in zip([0, *cuts], [*cuts, 6])]
    else:
        comps = (rng.sample(range(1, 60), rng.randrange(1, 7)) for _ in range(rng.randrange(0, 4)))
    pairs = []
    for comp in comps:
        for _ in range(rng.randrange(0, (5 if dense else 2) * len(comp) + 1)):
            a = rng.choice(comp)
            b = a if rng.random() < 0.15 else rng.choice(comp)
            pairs.append((a, b))
            if rng.random() < 0.15:
                # Parallel copies.
                pairs.extend([(b, a)] * (rng.randrange(1, 4) if dense else 1))
    rng.shuffle(pairs)
    if dense:
        del pairs[30:]
    isolated = rng.sample(range(60, 70), rng.randrange(0, 3))
    return multigraph(pairs, isolated, rng.randrange(0, 3))


def assert_matches_reference(graph: LayerMultigraph) -> None:
    result = order_edges(graph)
    assert result == reference_order_edges(graph)
    assert max(result.census) <= census_bound(graph)


def test_order_edges_matches_reference_on_random_multigraphs():
    rng = random.Random(23)
    for _ in range(2000):
        assert_matches_reference(random_multigraph(rng))
    for _ in range(1000):
        assert_matches_reference(random_multigraph(rng, dense=True))


def test_order_edges_matches_reference_on_every_layer_of_wide_circuits():
    rng = random.Random(29)
    for width in (8, 16, 32, 64, 128):
        for mode in MODES:
            sizes = [width, width, width // 8]
            c = random_layered_circuit(rng, F, mode, width, layer_sizes=sizes)
            for layer_index in range(1, c.layer_count):
                assert_matches_reference(build_layer_multigraph(c, layer_index, c.gates))


def test_order_edges_matches_reference_on_generated_multigraphs():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    vertex = st.integers(1, 8)
    dense_vertex = st.integers(1, 6)
    # Up to 10 runs of 1-3 parallel edges on 6 vertices: up to 30 edges.
    dense = st.lists(
        st.tuples(st.tuples(dense_vertex, dense_vertex), st.integers(1, 3)), min_size=6, max_size=10
    ).map(lambda runs: [pair for pair, count in runs for _ in range(count)])

    @hypothesis.settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.one_of(st.lists(st.tuples(vertex, vertex), max_size=14), dense),
        st.sets(st.integers(9, 12), max_size=2),
        st.integers(0, 2),
    )
    def check(pairs, isolated, constants):
        assert_matches_reference(multigraph(pairs, isolated, constants))

    check()


def test_copies_through_distinct_one_leaves_stay_staggered():
    text = """\
circuit two-ones
ring prime 101
mode commutative
vars 2
gate 1 1 var 1
gate 2 1 var 2
gate 3 1 const 1
gate 4 1 const 1
gate 5 2 mul 1 2
gate 6 2 mul 1 3
gate 7 3 mul 5 3
gate 8 3 mul 4 6
gate 9 3 add 5 6
gate 10 4 add 7 8
gate 11 4 mul 9 3
gate 12 5 mul 10 11
output 12
"""
    c = parse_circuit(text)
    # Layer 3 holds one real gate and a copy through each 1 leaf.
    assert validate(c).staggered
    slp = circuit_to_slp(c)
    assert slp.register_count == 3
    assert expand(slp) == expand(c)


def output_layer(c) -> int:
    return next(i for i, layer in enumerate(c.layers, 1) if c.output_id in layer)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("ring", (RATIONALS, F), ids=("Q", "101"))
def test_aliased_copies_on_random_programs(ring, mode):
    rng = random.Random(43)
    for trial in range(150):
        slp = random_slp(rng, ring, mode, rng.randrange(1, 7), step_count=rng.randrange(0, 20))
        c = slp_to_circuit(slp)
        for layer_index in range(1, c.layer_count):
            g = build_layer_multigraph(c, layer_index, c.gates)
            # The copies of one source share its register.
            sources = len({source for _, source in g.aliases})
            assert len(g.vertices) + sources <= c.width
            assert len(g.edges) + len(g.constant_gates) + len(g.aliases) <= c.width
            assert max(order_edges(g).census) + sources <= census_bound(g) <= c.width + 1
        # Every gate the output reads that is not an alias costs one step.
        staggered = staggerize(c)
        assert staggered.register_count <= c.width + 1, trial
        assert expand(staggered) == expand(c), trial
        assert staggered.step_count == max(cone_steps(c), 1), trial
        assert staggered.step_count <= max(output_layer(c) - 1, 1), trial

        # The same circuit from a plain mapping has the same copy table,
        # so it staggers to the same program.
        twin = twins(c)[1]
        assert twin.gates.copies == c.gates.copies
        program = staggerize(twin)
        assert program_parts(program) == program_parts(staggered), trial
        point = [rng.randrange(-50, 51) for _ in range(c.num_variables)]
        assert evaluate(program, point) == evaluate(c, point)


@pytest.mark.parametrize("mode", MODES)
def test_parsed_staggered_circuits_stagger_as_built(mode):
    # Read back from its file, a staggered circuit keeps its copies in
    # the copy table, so staggerize aliases them as it does for the
    # circuit slp_to_circuit built, and emits a step for each other gate
    # the output reads.
    rng = random.Random(59)
    for trial in range(120):
        constants = range(7) if trial % 2 else (0, 2, 3, 5)
        slp = random_slp(
            rng, F, mode, rng.randrange(1, 7), step_count=rng.randrange(0, 24), constants=constants
        )
        c = slp_to_circuit(slp)
        built = staggerize(c)
        read = staggerize(parse_circuit(serialize_circuit(c)))
        assert program_parts(read) == program_parts(built), trial
        assert read.step_count == max(cone_steps(c), 1), trial


def test_every_copy_of_a_gate_is_an_alias_and_a_copy_of_a_leaf_a_step():
    cb = CircuitBuilder(F, COMMUTATIVE, 2)
    x1, x2 = cb.var_leaf(1), cb.var_leaf(2)
    a = cb.gate(2, "mul", x1, x2)
    b = cb.gate(2, "add", x1, x2)
    first, second = cb.copies(3, [a, a])
    leaf_copy = cb.copy(3, x2)
    s = cb.gate(3, "add", a, b)
    t = cb.gate(4, "add", first, second)
    u = cb.gate(4, "mul", leaf_copy, s)
    cb.set_output(cb.gate(5, "mul", t, u))
    c = cb.build()

    graph = build_layer_multigraph(c, 2, c.gates)
    assert graph.aliases == ((first, a), (second, a))
    # a is read like a leaf: the copy of x2 is a constant gate, a + b a loop at b.
    assert graph.vertices == frozenset({b})
    assert graph.constant_gates == (leaf_copy,)
    assert graph.edges == (MultiEdge(b, b, s),)
    # Both copies hold a's one register.
    assert max(order_edges(graph).census) + 1 <= census_bound(graph) == 1 + 2 <= c.width + 1

    program = staggerize(c)
    assert program.register_count <= c.width + 1
    assert expand(program) == expand(c)
    assert program.step_count == cone_steps(c) == 2 + 2 + 2 + 1  # no copy of a emits a step


def recorded_graphs(monkeypatch) -> list[LayerMultigraph]:
    """The graphs staggerize passes to order_edges from now on."""
    graphs: list[LayerMultigraph] = []
    order = stagger.order_edges

    def recording(graph):
        graphs.append(graph)
        return order(graph)

    monkeypatch.setattr(stagger, "order_edges", recording)
    return graphs


def test_staggering_a_circuit_is_staggering_its_cone(monkeypatch):
    # staggered_draws, then perfbench's stagger_wide shape at width 128.
    rng = random.Random(89)
    draws = list(staggered_draws(rng, monkeypatch))
    gen = importlib.import_module("perfbench.gen")
    draws += [gen.layered_circuit(rng, F, mode, [128, 128, 16]) for mode in MODES]
    graphs = recorded_graphs(monkeypatch)
    smaller = 0
    for trial, c in enumerate(draws):
        cone = cone_circuit(c)
        smaller += cone.size < c.size
        expected = program_digest(staggerize(cone))
        graphs.clear()
        assert program_digest(staggerize(c)) == expected, trial
        # Each internal cone gate is one edge, constant entry or alias of
        # its transition, and no other gate is scheduled.
        scheduled = sum(len(g.edges) + len(g.constant_gates) + len(g.aliases) for g in graphs)
        assert scheduled == cone.size - len(cone.layers[0]), trial
        for g in graphs:
            sources = len({source for _, source in g.aliases})
            peak = max(order_edges(g).census)
            assert peak + sources <= census_bound(g) <= cone.width + 1 <= c.width + 1, trial
    assert smaller > len(draws) // 2


def test_a_wide_layer_outside_the_cone_is_not_scheduled(monkeypatch):
    cb = CircuitBuilder(F, COMMUTATIVE, 2)
    x1, x2 = cb.var_leaf(1), cb.var_leaf(2)
    a = cb.gate(2, "mul", x1, x2)
    b = cb.gate(2, "add", x1, x2)
    wide = [cb.gate(2, "add", x1, cb.const_leaf(k)) for k in range(2, 14)]
    ring_of_wide = [cb.gate(3, "mul", u, v) for u, v in zip(wide, wide[1:] + wide[:1])]
    out = cb.gate(3, "mul", b, a)
    cb.gate(4, "add", ring_of_wide[0], ring_of_wide[1])  # a layer above the output's
    cb.set_output(out)
    c = cb.build()
    assert c.width == 14

    graphs = recorded_graphs(monkeypatch)
    program = staggerize(c)
    assert [g.constant_gates for g in graphs] == [(a, b), ()]
    assert [g.vertices for g in graphs] == [frozenset(), frozenset({a, b})]
    assert [g.edges for g in graphs] == [(), (MultiEdge(a, b, out),)]
    assert program.step_count == 3 and program.register_count == 2
    assert program_digest(program) == program_digest(staggerize(cone_circuit(c)))
    assert expand(program) == expand(c)


def pinned_circuits() -> dict[str, list[LayeredCircuit]]:
    """Circuits whose schedule is the same on the cone as on whole layers.

    A staggered circuit has at most one real gate per layer, so each
    transition has at most one edge; the compiled permanents' cone is
    every gate.
    """
    rng = random.Random(83)
    staggered = [
        slp_to_circuit(
            random_slp(
                rng,
                (F, RATIONALS)[trial % 2],
                MODES[trial // 2 % 2],
                rng.randrange(1, 7),
                step_count=rng.randrange(0, 24),
            )
        )
        for trial in range(160)
    ]
    permanents = [
        slp_to_circuit(sparse_to_width2(build_permanent_sparse(n, ring)))
        for ring in (PrimeField(2**31 - 1), RATIONALS)
        for n in (2, 3, 4)
    ]
    return {"slp_to_circuit": staggered, "permanent": permanents}


# sha256 over the program_digest of staggerize on each circuit, as
# staggerize emitted them when it scheduled every gate below the output's
# layer.
STAGGERED_BEFORE = {
    "slp_to_circuit": "83006c12f9eec749ad86dba3c60f0ba35cd6c47e6013e9f49599334d57e87d6a",
    "permanent": "43948426d8d158a6c2c822e0d740c2c7aa25a7d0610dba34ffbb0c0eaec0a726",
}


def test_staggering_is_unchanged_where_the_cone_schedules_alike():
    circuits = pinned_circuits()
    for c in circuits["permanent"]:
        assert cone_circuit(c).size == c.size
    for kind, group in circuits.items():
        joined = " ".join(program_digest(staggerize(c)) for c in group)
        assert hashlib.sha256(joined.encode()).hexdigest() == STAGGERED_BEFORE[kind], kind
