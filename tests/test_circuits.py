"""Circuit IR semantics: validation, evaluation, expansion, conversions."""

import dataclasses
import importlib
import random
from pathlib import Path

import pytest

import genutil
from genutil import (
    cone_steps,
    evaluate_sparse,
    linear_form_value,
    peak_live_values,
    planted_root_program,
    random_layered_circuit,
    reference_circuit_to_slp,
    without_dead_steps,
)
from slpforge import circuits
from slpforge.circuits import (
    AlgebraicBranchingProgram,
    ApplyStep,
    BinGate,
    CircuitBuilder,
    ConstLeaf,
    ConstOperand,
    LayeredCircuit,
    LinearForm,
    LoadStep,
    RegOperand,
    SlpBuilder,
    StraightLineProgram,
    VarLeaf,
    VarOperand,
    circuit_to_slp,
    evaluate,
    evaluate_batch,
    expand,
    slp_to_circuit,
    syntactic_degree,
    validate,
)
from slpforge.errors import (
    ArityMismatch,
    BadOperandLayer,
    CircuitSemanticError,
    DanglingOutput,
    InvariantViolation,
    ParamError,
    SlpforgeError,
)
from slpforge.polynomials import COMMUTATIVE, Monomial, NONCOMMUTATIVE, SparsePolynomial
from slpforge.rings import DEFAULT_PRIME, PrimeField, RATIONALS
from slpforge.stagger import staggerize
from slpforge.textio import parse_circuit, serialize_circuit

F = PrimeField(PrimeField(101).p)


def product_sum_circuit(ring=F, mode=COMMUTATIVE):
    """x1*x2 + x3*x4 as a 3-layer circuit."""
    b = CircuitBuilder(ring, mode, 4, name="prodsum")
    m1 = b.gate(2, "mul", b.var_leaf(1), b.var_leaf(2))
    m2 = b.gate(2, "mul", b.var_leaf(3), b.var_leaf(4))
    out = b.gate(3, "add", m1, m2)
    b.set_output(out)
    return b.build()


def test_validation_report_shape():
    c = product_sum_circuit()
    report = validate(c)
    assert report.width == 2
    assert report.size == 7
    assert report.layer_count == 3
    assert report.homogeneous is True
    assert not report.monotone  # prime field, not the rationals


def test_single_leaf_circuit_is_width_zero():
    b = CircuitBuilder(F, COMMUTATIVE, 1)
    b.set_output(b.var_leaf(1))
    c = b.build()
    report = validate(c)
    assert report.width == 0
    assert report.size == 1
    assert report.staggered


def test_leaf_reads_allowed_from_any_layer():
    b = CircuitBuilder(F, COMMUTATIVE, 2)
    g2 = b.gate(2, "mul", b.var_leaf(1), b.var_leaf(2))
    g3 = b.gate(3, "add", g2, b.var_leaf(1))  # layer 3 reading layer 1
    b.set_output(g3)
    report = validate(b.build())
    assert report.layer_count == 3


def test_skipping_a_layer_is_rejected():
    b = CircuitBuilder(F, COMMUTATIVE, 2)
    g2 = b.gate(2, "mul", b.var_leaf(1), b.var_leaf(2))
    g3 = b.gate(3, "add", g2, g2)
    g4 = b.gate(4, "add", g2, g3)  # layer 4 reading layer 2
    b.set_output(g4)
    with pytest.raises(BadOperandLayer):
        b.build()


def test_failed_validation_raises_again():
    gates = {
        1: VarLeaf(1),
        2: VarLeaf(2),
        3: BinGate("mul", 1, 2),
        4: BinGate("add", 3, 3),
        5: BinGate("add", 3, 4),  # layer 4 reading layer 2
    }
    c = LayeredCircuit("bad", F, COMMUTATIVE, 2, [[1, 2], [3], [4], [5]], gates, 5)
    for _ in range(2):
        with pytest.raises(BadOperandLayer):
            validate(c)


def test_gate_table_is_read_only():
    c = product_sum_circuit()
    with pytest.raises(TypeError):
        c.gates[1] = VarLeaf(2)
    with pytest.raises(TypeError):
        del c.gates[1]
    with pytest.raises(AttributeError):
        c.gates = {}
    assert c.gates[1] == VarLeaf(1)


def test_validate_returns_the_stored_report():
    c = product_sum_circuit()
    assert validate(c) is validate(c)


def test_round_trip_folds_each_circuit_once(monkeypatch):
    folded = []
    real_fold = circuits.fold

    def counting_fold(obj, *algebra):
        folded.append(obj)
        return real_fold(obj, *algebra)

    monkeypatch.setattr(circuits, "fold", counting_fold)
    rng = random.Random(31)
    for mode in (COMMUTATIVE, NONCOMMUTATIVE):
        built = random_layered_circuit(rng, F, mode, 6)
        c = parse_circuit(serialize_circuit(built))  # a fresh, unvalidated object
        folded.clear()
        staggered = slp_to_circuit(staggerize(c))
        assert validate(staggered).staggered
        circuit_to_slp(staggered)
        validate(c)
        # Neither is walked: the parsed file carries the report its parse
        # derived, the converted circuit the one its program implies.
        assert folded == []


def report_programs(monkeypatch):
    """Programs of every generator, over Q, F_101 and F_(2^61-1), both modes.

    genutil's random_slp with negative constants, and the same programs
    without their dead steps; this module's random_slp; staggerize of
    random_layered_circuit;
    circuit_to_slp's reference of a converted program; planted roots;
    and perfbench.gen.random_slp, which is commutative.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    gen = importlib.import_module("perfbench.gen")
    rng = random.Random(47)
    rings = (RATIONALS, F, PrimeField(DEFAULT_PRIME))
    for trial in range(240):
        ring, mode = rings[trial % 3], (COMMUTATIVE, NONCOMMUTATIVE)[trial // 3 % 2]
        program = genutil.random_slp(
            rng, ring, mode, rng.randrange(1, 7), step_count=rng.randrange(0, 30),
            constants=range(-3, 7),
        )
        yield program
        yield without_dead_steps(program)
        yield random_slp(rng, ring, mode, 3, rng.randrange(1, 5), rng.randrange(0, 16))
        yield reference_circuit_to_slp(slp_to_circuit(program))
        yield staggerize(
            random_layered_circuit(
                rng, ring, mode, rng.randrange(1, 9), internal_layers=rng.randrange(1, 5),
                constants=range(-3, 7),
            )
        )
        yield gen.random_slp(rng, ring, rng.randrange(1, 7), rng.randrange(1, 40))
    for ring in rings:
        for n, r in ((1, 1), (2, 2), (3, 3)):
            yield planted_root_program(rng, ring, n, r)[0]


def edge_case_programs():
    """(program, homogeneous, monotone): the cases a derived report could miss."""
    q = RATIONALS
    x1, x2 = VarOperand(1), VarOperand(2)

    def program(steps, output=0, registers=2, ring=q):
        return StraightLineProgram("edge", ring, COMMUTATIVE, 2, registers, steps, output)

    def const(v, ring=q):
        return ConstOperand(ring.scalar(v))

    return [
        # A dead step that adds two degrees still makes a gate.
        (program([ApplyStep(1, "add", x1, const(1)), ApplyStep(0, "mul", x1, x2)]), False, True),
        (program([ApplyStep(0, "mul", x1, const(-2))]), True, False),
        (program([LoadStep(1, const(-1)), ApplyStep(0, "mul", x1, x2)]), True, False),
        (program([ApplyStep(0, "mul", x1, const(-2, F))], ring=F), True, False),
        # An unwritten register reads the 0-leaf, of degree 0.
        (program([ApplyStep(0, "add", RegOperand(1), x1)]), False, True),
        (program([ApplyStep(0, "mul", RegOperand(1), x1)]), True, True),
        # Leaf outputs: no internal layer.
        (program([LoadStep(0, x2)]), True, True),
        (program([]), True, True),
        (program([LoadStep(1, const(-3)), LoadStep(0, x1)]), True, False),
        # A mul by the 1-leaf, read directly or from a register, is a copy.
        (program([ApplyStep(0, "mul", x1, const(1))]), True, True),
        (
            program([
                LoadStep(1, const(1)), ApplyStep(0, "mul", x1, x2),
                ApplyStep(0, "mul", RegOperand(1), RegOperand(0)),
                ApplyStep(0, "add", RegOperand(0), RegOperand(1)),
            ]),
            False,
            True,
        ),
    ]


def assert_report_is_derived(c):
    """c carries a report, validate returns it, and the full walk agrees field for field."""
    report = c._report
    assert report is not None and validate(c) is report
    assert dataclasses.asdict(report) == dataclasses.asdict(circuits._validate(c))
    assert report.staggered


def test_converted_circuits_carry_the_report_of_the_full_walk(monkeypatch):
    count = 0
    for program in report_programs(monkeypatch):
        assert_report_is_derived(slp_to_circuit(program))
        count += 1
    assert count == 240 * 6 + 9
    for program, homogeneous, monotone in edge_case_programs():
        c = slp_to_circuit(program)
        assert_report_is_derived(c)
        assert (c._report.homogeneous, c._report.monotone) == (homogeneous, monotone)
    copy = slp_to_circuit(edge_case_programs()[-2][0])
    assert copy.width == 1 and len(copy.gates.copies) == 1
    assert slp_to_circuit(edge_case_programs()[6][0]).width == 0


def test_copies_take_consecutive_ids_in_one_layer():
    b = CircuitBuilder(F, COMMUTATIVE, 2)
    x1, x2 = b.var_leaf(1), b.var_leaf(2)
    g = b.gate(2, "add", x1, x2)
    h = b.gate(2, "mul", x1, x2)
    assert b.copies(3, []) == range(5, 5)  # no copies, no 1 leaf
    ids = b.copies(3, [g, h, g])
    one = 5  # created on the first copy, before the copy ids
    assert ids == range(6, 9)
    assert b.copy(3, h) == 9
    b.set_output(b.gate(4, "add", 6, 7))
    c = b.build()
    assert c.layers[0] == (x1, x2, one)
    assert c.layers[2] == (6, 7, 8, 9)
    assert c.gates[one] == ConstLeaf(F.one())
    assert [c.gates[gid] for gid in c.layers[2]] == [
        BinGate("mul", src, one) for src in (g, h, g, h)
    ]


def _circuit_with_copy(layer, source, implicit):
    """x1*x2, then +x1, then *x2, with one more copy source*1 in the given layer.

    source names a gate of that build: "x1", "g" (layer 2) or an undefined id.
    The copy is made with CircuitBuilder.copy (implicit) or as the gate
    source*1 with CircuitBuilder.gate (explicit); both give a copy id 6.
    """
    b = CircuitBuilder(F, COMMUTATIVE, 2)
    x1, x2, one = b.var_leaf(1), b.var_leaf(2), b.const_leaf(1)
    g = b.gate(2, "mul", x1, x2)
    h = b.gate(3, "add", g, x1)
    source = {"x1": x1, "g": g}.get(source, source)
    if implicit:
        b.copy(layer, source)
    else:
        b.gate(layer, "mul", source, one)
    b.set_output(b.gate(4, "mul", h, x2))
    return b.build()


@pytest.mark.parametrize(
    "layer, source, error",
    [
        (4, "g", BadOperandLayer),  # the source is two layers down
        (1, "x1", BadOperandLayer),  # a copy in the leaf layer
        (4, 99, CircuitSemanticError),  # an undefined source
    ],
)
def test_ill_formed_implicit_copy_raises_as_its_explicit_twin(layer, source, error):
    expected = {
        "g": "gate 6 in layer 4 reads layer 2",
        "x1": "internal gate 6 in the leaf layer",
        99: "gate 6 reads undefined gate 99",
    }[source]
    for implicit in (False, True):
        with pytest.raises(error, match=f"^{expected}$"):
            _circuit_with_copy(layer, source, implicit)


def test_well_formed_implicit_copy_matches_its_explicit_twin():
    explicit, implicit = (_circuit_with_copy(4, "x1", flag) for flag in (False, True))
    assert implicit.gates.copies == explicit.gates.copies == {6: 1}
    assert dict(implicit.gates) == dict(explicit.gates)
    assert validate(implicit) == validate(explicit)
    assert serialize_circuit(implicit) == serialize_circuit(explicit)
    assert circuit_to_slp(implicit).steps == circuit_to_slp(explicit).steps


def test_implicit_copies_must_read_a_one_leaf():
    gates = {1: VarLeaf(1), 2: ConstLeaf(F.scalar(2)), 3: BinGate("add", 1, 2)}
    table = circuits._GateTable(gates, {4: 3}, 2)  # copies through the 2-leaf
    c = LayeredCircuit("two", F, COMMUTATIVE, 1, [[1, 2], [3], [4]], table, 4)
    with pytest.raises(CircuitSemanticError):
        validate(c)


def test_passes_read_implicit_copies_without_gate_objects(monkeypatch):
    rng = random.Random(47)
    prog = staggerize(random_layered_circuit(rng, F, NONCOMMUTATIVE, 6))
    lookup = circuits._GateTable.__getitem__

    def guarded_lookup(self, gid):
        if gid in self.copies:
            raise AssertionError(f"copy {gid} built as a gate object")
        return lookup(self, gid)

    monkeypatch.setattr(circuits._GateTable, "__getitem__", guarded_lookup)
    c = slp_to_circuit(prog)  # validates
    parsed = parse_circuit(serialize_circuit(c))
    assert c.gates.copies and parsed.gates.copies == c.gates.copies
    assert parsed.gates.explicit == c.gates.explicit
    # Both carry derived reports, so validate() does not walk them; the
    # oracle walk is called directly, also on a circuit of many copies.
    many = slp_to_circuit(
        genutil.random_slp(rng, F, COMMUTATIVE, 6, num_variables=3, step_count=40, bite=True)
    )
    assert len(many.gates.copies) >= 20
    point = [rng.randrange(101) for _ in range(c.num_variables)]
    for circuit in (c, parsed):
        assert circuits._validate(circuit) == validate(circuit)
        circuit_to_slp(circuit)
        serialize_circuit(circuit)
        expand(circuit)
        evaluate(circuit, point)
    assert circuits._validate(many) == validate(many)


def test_a_mutated_copy_of_a_converted_circuit_fails_as_its_explicit_twin():
    # The walk checks a copy as the gate source*1: mutating one copy of a
    # converted circuit raises what the same gate, stored explicitly, does.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(0, 2**32),
        st.sampled_from([F, RATIONALS]),
        st.sampled_from(["undefined", "two layers down", "own layer", "into layer 1"]),
        st.integers(0, 2**16),
    )
    def check(seed, ring, mutation, pick):
        rng = random.Random(seed)
        slp = genutil.random_slp(
            rng, ring, COMMUTATIVE, rng.randrange(2, 7), step_count=rng.randrange(4, 40), bite=True
        )
        c = slp_to_circuit(slp)
        table = c.gates
        hypothesis.assume(table.copies)
        gid = sorted(table.copies)[pick % len(table.copies)]
        source = table.copies[gid]
        layers = [list(ids) for ids in c.layers]
        layer = next(i for i, ids in enumerate(layers, start=1) if gid in ids)
        if mutation == "into layer 1":
            layers[layer - 1].remove(gid)
            layers[0].append(gid)
        else:
            sources = {
                "undefined": [max(table) + 1],
                "two layers down": layers[layer - 3] if layer >= 4 else [],
                "own layer": layers[layer - 1],
            }[mutation]
            hypothesis.assume(sources)
            source = sources[pick % len(sources)]
        implicit = circuits._GateTable(table.explicit, {**table.copies, gid: source}, table.one)
        twin = circuits._GateTable(
            {**table.explicit, gid: BinGate("mul", source, table.one)},
            {copy: s for copy, s in table.copies.items() if copy != gid},
            table.one,
        )
        raised = []
        for gates in (implicit, twin):
            mutated = LayeredCircuit(
                c.name, ring, c.mode, c.num_variables, layers, gates, c.output_id
            )
            with pytest.raises(SlpforgeError) as info:
                circuits._validate(mutated)
            raised.append((type(info.value), str(info.value)))
        assert raised[0] == raised[1]

    check()


def test_missing_output_rejected():
    b = CircuitBuilder(F, COMMUTATIVE, 1)
    b.var_leaf(1)
    with pytest.raises(DanglingOutput):
        b.build()


# Files the parser accepts and validate rejects: a leaf beyond the
# declared variables, and a layer-4 gate reading layer 2.
ILL_FORMED_FILES = {
    "leaf beyond vars": """\
circuit beyond
ring prime 101
mode commutative
vars 1
gate 1 1 var 1
gate 2 1 var 2
gate 3 2 mul 1 2
output 3
""",
    "skips a layer": """\
circuit skip
ring prime 101
mode commutative
vars 1
gate 1 1 var 1
gate 2 2 mul 1 1
gate 3 3 mul 2 1
gate 4 4 mul 3 2
output 4
""",
}

SEMANTICS = {
    "evaluate": lambda c: evaluate(c, [1]),
    "evaluate_batch": lambda c: evaluate_batch(c, [[1]]),
    "expand": expand,
    "syntactic_degree": syntactic_degree,
}


@pytest.mark.parametrize("semantics", SEMANTICS)
@pytest.mark.parametrize("text", ILL_FORMED_FILES.values(), ids=list(ILL_FORMED_FILES))
def test_semantics_validate_parsed_circuits(text, semantics):
    # A typed error, neither an IndexError nor a value.
    with pytest.raises(SlpforgeError):
        SEMANTICS[semantics](parse_circuit(text))


def test_evaluate_product_sum():
    c = product_sum_circuit()
    assert evaluate(c, [1, 2, 3, 4]) == F.scalar(14)
    assert evaluate(c, [0, 0, 0, 0]) == F.zero()
    with pytest.raises(ArityMismatch):
        evaluate(c, [1, 2, 3])


def test_expand_product_sum():
    p = expand(product_sum_circuit())
    assert p.term_count == 2
    m12 = Monomial.from_exponents({1: 1, 2: 1})
    m34 = Monomial.from_exponents({3: 1, 4: 1})
    assert p.terms == {m12: F.one(), m34: F.one()}


def test_monotone_flag_over_rationals():
    c = product_sum_circuit(ring=RATIONALS)
    assert validate(c).monotone
    b = CircuitBuilder(RATIONALS, COMMUTATIVE, 1)
    g = b.gate(2, "mul", b.var_leaf(1), b.const_leaf(-2))
    b.set_output(g)
    assert not validate(b.build()).monotone


def test_noncommutative_operand_order_matters():
    b = CircuitBuilder(F, NONCOMMUTATIVE, 2)
    g = b.gate(2, "mul", b.var_leaf(1), b.var_leaf(2))
    b.set_output(g)
    p = expand(b.build())
    assert p.terms == {Monomial.word([1, 2]): F.one()}

    b2 = CircuitBuilder(F, NONCOMMUTATIVE, 2)
    g2 = b2.gate(2, "mul", b2.var_leaf(2), b2.var_leaf(1))
    b2.set_output(g2)
    assert expand(b2.build()) != p


def test_slp_evaluation_and_expansion():
    sb = SlpBuilder(F, COMMUTATIVE, 4, register_count=2)
    sb.apply(0, "mul", sb.var(1), sb.var(2))
    sb.apply(1, "mul", sb.var(3), sb.var(4))
    sb.apply(0, "add", sb.reg(0), sb.reg(1))
    slp = sb.finish(0)
    assert evaluate(slp, [1, 2, 3, 4]) == F.scalar(14)
    assert expand(slp) == expand(product_sum_circuit())


def test_slp_unwritten_registers_read_as_zero():
    sb = SlpBuilder(F, COMMUTATIVE, 1, register_count=2)
    sb.apply(0, "add", sb.reg(1), sb.var(1))
    slp = sb.finish(0)
    assert evaluate(slp, [5]) == F.scalar(5)


def test_slp_in_place_destination():
    sb = SlpBuilder(F, COMMUTATIVE, 1, register_count=1)
    sb.load(0, sb.var(1))
    sb.apply(0, "mul", sb.reg(0), sb.reg(0))
    sb.apply(0, "mul", sb.reg(0), sb.reg(0))
    slp = sb.finish(0)
    assert evaluate(slp, [3]) == F.scalar(81)


def test_slp_register_bounds_checked():
    sb = SlpBuilder(F, COMMUTATIVE, 1, register_count=1)
    sb.apply(1, "add", sb.var(1), sb.var(1))
    with pytest.raises(ParamError):
        sb.finish(0)
    # Every register a step names is checked against an explicit count.
    cases = [
        lambda sb: sb.apply(2, "add", sb.var(1), sb.var(1)),
        lambda sb: sb.apply(-1, "add", sb.var(1), sb.var(1)),
        lambda sb: sb.apply(0, "add", sb.reg(2), sb.var(1)),
        lambda sb: sb.apply(0, "mul", sb.var(1), sb.reg(5)),
        lambda sb: sb.load(2, sb.var(1)),
    ]
    for emit in cases:
        sb = SlpBuilder(F, COMMUTATIVE, 1, register_count=2)
        sb.apply(1, "add", sb.var(1), sb.reg(0))
        emit(sb)
        with pytest.raises(ParamError):
            sb.finish(0)
    sb = SlpBuilder(F, COMMUTATIVE, 1, register_count=2)
    sb.load(0, sb.var(1))
    with pytest.raises(ParamError):
        sb.finish(2)


def test_implicit_register_count_is_one_past_the_highest_register():
    rng = random.Random(4711)
    for _ in range(200):
        n = rng.randrange(1, 7)
        sb = SlpBuilder(F, COMMUTATIVE, 2)
        named = []

        def operand():
            if rng.random() < 0.5:
                r = rng.randrange(n)
                named.append(r)
                return sb.reg(r)
            return sb.var(rng.randrange(1, 3))

        for _ in range(rng.randrange(0, 10)):
            dest = rng.randrange(n)
            named.append(dest)
            if rng.random() < 0.3:
                sb.load(dest, sb.var(1))
            else:
                sb.apply(dest, rng.choice(("add", "mul")), operand(), operand())
        out = rng.randrange(n)
        named.append(out)
        slp = sb.finish(out)
        assert slp.register_count == max(named) + 1


def test_slp_to_circuit_is_staggered_and_equivalent():
    sb = SlpBuilder(F, COMMUTATIVE, 4, register_count=3)
    sb.apply(0, "mul", sb.var(1), sb.var(2))
    sb.apply(1, "mul", sb.var(3), sb.var(4))
    sb.apply(2, "add", sb.reg(0), sb.reg(1))
    sb.apply(2, "mul", sb.reg(2), sb.reg(0))
    slp = sb.finish(2)
    c = slp_to_circuit(slp)
    report = validate(c)
    assert report.staggered
    assert report.width <= slp.register_count
    assert expand(c) == expand(slp)


def test_circuit_to_slp_register_count_equals_width():
    c = product_sum_circuit()
    staggered = slp_to_circuit(circuit_to_slp_via_identity(c))
    report = validate(staggered)
    slp = circuit_to_slp(staggered)
    assert slp.register_count == report.width
    assert expand(slp) == expand(c)


def test_allocate_raises_past_its_budget():
    # Gates 10 and 11 are both live when gate 12 reads them: two registers.
    steps = [
        (10, "add", VarOperand(1), VarOperand(2)),
        (11, "mul", VarOperand(1), ConstOperand(F.scalar(3))),
        (12, "mul", 10, 11),
    ]
    program = circuits._allocate(SlpBuilder(F, COMMUTATIVE, 2), steps, 12, 2)
    assert program.register_count == 2
    assert [step.dest for step in program.steps] == [0, 1, 0]
    with pytest.raises(InvariantViolation):
        circuits._allocate(SlpBuilder(F, COMMUTATIVE, 2), steps, 12, 1)


def circuit_to_slp_via_identity(c):
    """Rebuild a small circuit as an SLP by hand for roundtrip tests."""
    sb = SlpBuilder(c.ring, c.mode, c.num_variables, register_count=2)
    sb.apply(0, "mul", sb.var(1), sb.var(2))
    sb.apply(1, "mul", sb.var(3), sb.var(4))
    sb.apply(0, "add", sb.reg(0), sb.reg(1))
    return sb.finish(0)


def test_circuit_to_slp_rejects_wide_layers():
    with pytest.raises(ParamError):
        circuit_to_slp(product_sum_circuit())  # two real gates in layer 2


def random_slp(rng, ring, mode, num_variables, register_count, steps):
    sb = SlpBuilder(ring, mode, num_variables, register_count)

    def operand():
        kind = rng.randrange(3)
        if kind == 0:
            return sb.reg(rng.randrange(register_count))
        if kind == 1:
            return sb.var(rng.randrange(1, num_variables + 1))
        return sb.const(rng.randrange(5))

    for _ in range(steps):
        if rng.random() < 0.2:
            source = sb.var(rng.randrange(1, num_variables + 1))
            sb.load(rng.randrange(register_count), source)
        else:
            op = "add" if rng.random() < 0.5 else "mul"
            sb.apply(rng.randrange(register_count), op, operand(), operand())
    return sb.finish(rng.randrange(register_count))


def test_random_slp_roundtrip_through_staggered_circuit():
    rng = random.Random(900913)
    for mode in (COMMUTATIVE, NONCOMMUTATIVE):
        for _ in range(15):
            slp = random_slp(rng, F, mode, 3, rng.randrange(2, 5), rng.randrange(3, 12))
            c = slp_to_circuit(slp)
            report = validate(c)
            assert report.staggered
            assert report.width <= slp.register_count
            back = circuit_to_slp(c)
            assert back.register_count == peak_live_values(back) <= max(report.width, 1)
            assert back.step_count == max(cone_steps(c), 1)
            assert expand(back) == expand(slp)


def test_evaluate_agrees_with_expansion_on_random_points():
    rng = random.Random(424242)
    for _ in range(10):
        slp = random_slp(rng, F, COMMUTATIVE, 3, 3, 10)
        poly = expand(slp)
        for _ in range(10):
            point = [rng.randrange(101) for _ in range(3)]
            assert evaluate(slp, point) == evaluate_sparse(poly, point)


def small_abp():
    """Two parallel length-2 paths: (x1)(x2) + (x3)(2 + x4)."""
    forms = {
        "x1": LinearForm(F.zero(), {1: F.one()}),
        "x2": LinearForm(F.zero(), {2: F.one()}),
        "x3": LinearForm(F.zero(), {3: F.one()}),
        "2+x4": LinearForm(F.scalar(2), {4: F.one()}),
    }
    return AlgebraicBranchingProgram(
        "small",
        F,
        4,
        layers=[[1], [2, 3], [4]],
        edges=[
            (1, 2, forms["x1"]),
            (1, 3, forms["x3"]),
            (2, 4, forms["x2"]),
            (3, 4, forms["2+x4"]),
        ],
        source=1,
        sink=4,
    )


def abp_paths_oracle(abp, point):
    """Sum over explicit source-to-sink paths; only usable on tiny programs."""
    assert abp.size <= 10
    by_source = {}
    for u, v, label in abp.edges:
        by_source.setdefault(u, []).append((v, label))
    total = abp.ring.zero()

    def walk(vertex, acc):
        nonlocal total
        if vertex == abp.sink:
            total = total + acc
            return
        for nxt, label in by_source.get(vertex, []):
            walk(nxt, acc * linear_form_value(label, point))

    walk(abp.source, abp.ring.one())
    return total


def test_abp_evaluation_matches_path_enumeration():
    abp = small_abp()
    rng = random.Random(1001)
    for _ in range(25):
        point = [F.scalar(rng.randrange(101)) for _ in range(4)]
        assert evaluate(abp, point) == abp_paths_oracle(abp, point)


def test_abp_expansion_keeps_word_order():
    p = expand(small_abp())
    assert p.mode == NONCOMMUTATIVE
    expected = {
        Monomial.word([1, 2]): F.one(),
        Monomial.word([3, 4]): F.one(),
        Monomial.word([3]): F.scalar(2),
    }
    assert p.terms == expected


def test_abp_structure_validation():
    x1 = LinearForm(F.zero(), {1: F.one()})
    with pytest.raises(CircuitSemanticError):
        AlgebraicBranchingProgram(
            "bad", F, 1, layers=[[1, 2], [3]], edges=[(1, 3, x1)], source=1, sink=3
        )
    with pytest.raises(BadOperandLayer):
        AlgebraicBranchingProgram(
            "skip",
            F,
            1,
            layers=[[1], [2], [3]],
            edges=[(1, 3, x1)],
            source=1,
            sink=3,
        )


def test_syntactic_degree_bounds_actual_degree():
    rng = random.Random(77)
    for _ in range(10):
        slp = random_slp(rng, F, COMMUTATIVE, 3, 3, 8)
        assert expand(slp).degree() <= syntactic_degree(slp)
    assert syntactic_degree(product_sum_circuit()) == 2


def test_syntactic_degree_of_a_circuit_reads_its_report(monkeypatch):
    # A converted circuit, its parse and a circuit validated once carry
    # a report, so their degree comes without another fold.
    rng = random.Random(78)
    programs = [random_slp(rng, F, COMMUTATIVE, 3, 3, 8) for _ in range(10)]
    degrees = [syntactic_degree(slp) for slp in programs]
    converted = [slp_to_circuit(slp) for slp in programs]
    parsed = [parse_circuit(serialize_circuit(c)) for c in converted]
    built = product_sum_circuit()
    validate(built)
    folded = []
    real_fold = circuits.fold

    def counting_fold(obj, *algebra):
        folded.append(obj)
        return real_fold(obj, *algebra)

    monkeypatch.setattr(circuits, "fold", counting_fold)
    assert [syntactic_degree(c) for c in converted] == degrees
    assert [syntactic_degree(c) for c in parsed] == degrees
    assert syntactic_degree(built) == 2
    assert folded == []
    assert syntactic_degree(programs[0]) == degrees[0]
    assert folded == [programs[0]]
