"""Text format parsing and serialization."""

import hashlib
import importlib
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from genutil import random_layered_circuit, random_slp, with_mode
from slpforge import circuits
from slpforge.circuits import (
    AlgebraicBranchingProgram,
    BinGate,
    ConstLeaf,
    LayeredCircuit,
    LinearForm,
    evaluate,
    expand,
    VarLeaf,
    slp_to_circuit,
    validate,
)
from slpforge.errors import (
    BadOperandLayer,
    CircuitSemanticError,
    CircuitSyntaxError,
    DanglingOutput,
    SlpforgeError,
)
from slpforge.families import build_E_abp
from slpforge.polynomials import (
    COMMUTATIVE,
    MODES,
    NONCOMMUTATIVE,
    Monomial,
    SparsePolynomial,
)
from slpforge.rings import DEFAULT_PRIME, PrimeField, RATIONALS
from slpforge.stagger import staggerize
from slpforge.textio import (
    parse_circuit,
    parse_polynomial,
    serialize_circuit,
    serialize_polynomial,
)

SAMPLE = """\
circuit demo
ring prime 101
mode commutative
vars 4
gate 1 1 var 1
gate 2 1 var 2
gate 3 1 var 3
gate 4 1 var 4
gate 5 2 mul 1 2
gate 6 2 mul 3 4
gate 7 3 add 5 6
output 7
"""


def test_parse_sample_circuit():
    c = parse_circuit(SAMPLE)
    assert isinstance(c, LayeredCircuit)
    assert c.name == "demo"
    assert c.ring == PrimeField(101)
    report = validate(c)
    assert report.width == 2
    assert evaluate(c, [1, 2, 3, 4]).value == 14


def test_serialize_parse_roundtrip_is_identity():
    c = parse_circuit(SAMPLE)
    text = serialize_circuit(c)
    again = parse_circuit(text)
    assert serialize_circuit(again) == text
    assert expand(again) == expand(c)
    assert again.output_id == c.output_id
    assert again.layers == c.layers


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\n" + SAMPLE
    assert expand(parse_circuit(text)) == expand(parse_circuit(SAMPLE))


def test_rational_ring_and_fraction_constants():
    text = (
        "circuit frac\n"
        "ring rational\n"
        "mode commutative\n"
        "vars 1\n"
        "gate 1 1 var 1\n"
        "gate 2 1 const 3/4\n"
        "gate 3 2 mul 1 2\n"
        "output 3\n"
    )
    c = parse_circuit(text)
    assert c.ring == RATIONALS
    value = evaluate(c, [RATIONALS.scalar(4)])
    assert value == RATIONALS.scalar(3)
    assert "const 3/4" in serialize_circuit(c)


def test_undefined_reference_is_semantic_error():
    text = SAMPLE.replace("gate 7 3 add 5 6", "gate 7 3 add 5 9")
    with pytest.raises(CircuitSemanticError, match="gate 7 reads undefined gate 9"):
        validate(parse_circuit(text))


def test_duplicate_gate_id_is_semantic_error():
    text = SAMPLE.replace("gate 6 2 mul 3 4", "gate 5 2 mul 3 4")
    with pytest.raises(CircuitSemanticError):
        parse_circuit(text)


def test_undefined_output_raises_dangling_output():
    text = SAMPLE.replace("output 7", "output 12")
    with pytest.raises(DanglingOutput):
        validate(parse_circuit(text))


def test_syntax_errors_carry_line_numbers():
    bad_mode = SAMPLE.replace("mode commutative", "mode sideways")
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit(bad_mode)
    assert err.value.line == 3

    bad_gate = SAMPLE.replace("gate 5 2 mul 1 2", "gate 5 2 mul 1")
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit(bad_gate)
    assert err.value.line == 9


LEAF = "leaf must be 'var <i>' or 'const <scalar>'"
INTERNAL = "internal gate must be '<add|mul> <left> <right>'"


@pytest.mark.parametrize(
    "line, error, message",
    [
        ("gate x 2 mul 1 2", CircuitSyntaxError, "gate id must be an integer, got 'x'"),
        ("gate x y z", CircuitSyntaxError, "gate id must be an integer, got 'x'"),
        ("gate 5 y mul 1 2", CircuitSyntaxError, "layer must be an integer, got 'y'"),
        ("gate 4 x mul 1 2", CircuitSyntaxError, "layer must be an integer, got 'x'"),
        ("gate 4 2 mul 1 2", CircuitSemanticError, "duplicate gate id 4"),
        ("gate 4 2 mul 1 z", CircuitSemanticError, "duplicate gate id 4"),
        ("gate 4 1 var x", CircuitSemanticError, "duplicate gate id 4"),
        ("gate 5 2 mul 1 z", CircuitSyntaxError, "operand must be an integer, got 'z'"),
        ("gate 5 2 mul z 2", CircuitSyntaxError, "operand must be an integer, got 'z'"),
        ("gate 5 2 sub 1 z", CircuitSyntaxError, INTERNAL),
        ("gate 5 2 var z", CircuitSyntaxError, INTERNAL),
        ("gate 5 2 mul 1 2 3", CircuitSyntaxError, INTERNAL),
        ("gate 5 2 mul 1", CircuitSyntaxError, INTERNAL),
        ("gate 5 0 mul 1 2", CircuitSyntaxError, "bad layer 0"),
        ("gate 5 -1 add x y", CircuitSyntaxError, "bad layer -1"),
        ("gate 5 1 var q", CircuitSyntaxError, "variable index must be an integer, got 'q'"),
        ("gate 5 1 var 1.5", CircuitSyntaxError, "variable index must be an integer, got '1.5'"),
        ("gate 5 1 var 1 2", CircuitSyntaxError, LEAF),
        ("gate 5 1 var 1 z", CircuitSyntaxError, LEAF),
        ("gate 5 1 const x y", CircuitSyntaxError, LEAF),
        ("gate 5 1 const 1/0", CircuitSyntaxError, "bad scalar literal '1/0'"),
        ("gate 5 2", CircuitSyntaxError, "truncated gate line"),
    ],
)
def test_gate_line_errors_name_the_first_fault(line, error, message):
    # A gate line is read in order: the id, the layer, a duplicate id, the
    # line's shape, then its variable index, constant or operands; the
    # first fault found is the one raised, whichever tokens read at once.
    text = SAMPLE.replace("gate 5 2 mul 1 2", line)
    with pytest.raises(error) as err:
        parse_circuit(text)
    if error is CircuitSyntaxError:
        message = f"line 9: {message}"
    assert str(err.value) == message


def test_leaf_grammar_enforced():
    text = SAMPLE.replace("gate 1 1 var 1", "gate 1 2 var 1")
    with pytest.raises(CircuitSyntaxError):
        parse_circuit(text)


ABP_SAMPLE = """\
abp walk
ring prime 101
vars 3
vertex 1 0
vertex 2 1
vertex 3 1
vertex 4 2
edge 1 2 0 1:1
edge 1 3 2
edge 2 4 0 2:1
edge 3 4 0 3:5
source 1
sink 4
"""


def test_parse_abp_and_roundtrip():
    abp = parse_circuit(ABP_SAMPLE)
    assert isinstance(abp, AlgebraicBranchingProgram)
    assert abp.size == 4
    # x1*x2 + 2*5*x3 at (3, 4, 1) = 12 + 10.
    assert evaluate(abp, [3, 4, 1]).value == 22
    text = serialize_circuit(abp)
    assert serialize_circuit(parse_circuit(text)) == text


def test_abp_layer_contiguity_required():
    text = ABP_SAMPLE.replace("vertex 4 2", "vertex 4 3")
    with pytest.raises(CircuitSemanticError):
        parse_circuit(text)


def test_abp_undefined_vertex_in_edge():
    text = ABP_SAMPLE.replace("edge 3 4 0 3:5", "edge 3 9 0 3:5")
    with pytest.raises(CircuitSemanticError):
        parse_circuit(text)


@pytest.mark.parametrize(
    "good, bad",
    [("source 1", "source"), ("sink 4", "sink"), ("source 1", "source 1 2"), ("sink 4", "sink 4 4")],
)
def test_abp_source_and_sink_lines_take_one_id(good, bad):
    text = ABP_SAMPLE.replace(good + "\n", bad + "\n")
    with pytest.raises(CircuitSyntaxError) as err:
        parse_circuit(text)
    assert err.value.line == text.splitlines().index(bad) + 1
    assert f"expected '{good.split()[0]} <id>'" in str(err.value)


def test_polynomial_serialization_is_canonical():
    c = parse_circuit(SAMPLE)
    text = serialize_polynomial(expand(c), name="prodsum")
    lines = text.splitlines()
    assert lines[0] == "polynomial prodsum"
    assert lines[4:] == ["term 1 x1*x2", "term 1 x3*x4"]


def test_polynomial_roundtrip_commutative():
    poly = SparsePolynomial(
        RATIONALS,
        COMMUTATIVE,
        3,
        {
            Monomial.from_exponents({1: 2, 3: 1}): RATIONALS.parse("-5/2"),
            Monomial.unit(COMMUTATIVE): RATIONALS.scalar(7),
        },
    )
    text = serialize_polynomial(poly, name="mixed")
    name, again = parse_polynomial(text)
    assert name == "mixed"
    assert again == poly
    assert serialize_polynomial(again, name=name) == text


def test_polynomial_roundtrip_noncommutative():
    poly = SparsePolynomial(
        PrimeField(101),
        NONCOMMUTATIVE,
        2,
        {
            Monomial.word([1, 2, 1]): PrimeField(101).scalar(3),
            Monomial.word([2, 2]): PrimeField(101).scalar(1),
        },
    )
    text = serialize_polynomial(poly, name="words")
    name, again = parse_polynomial(text)
    assert again == poly
    assert serialize_polynomial(again, name=name) == text


def test_polynomial_parse_errors():
    good = (
        "polynomial p\n"
        "ring rational\n"
        "mode commutative\n"
        "vars 2\n"
        "term 3 x1*x2\n"
    )
    name, poly = parse_polynomial(good)
    assert len(poly.terms) == 1

    with pytest.raises(CircuitSyntaxError):
        parse_polynomial(good.replace("term 3 x1*x2", "term 3 y1*x2"))
    with pytest.raises(CircuitSyntaxError):
        parse_polynomial(good.replace("term 3 x1*x2", "term 3 x1^0"))
    with pytest.raises(CircuitSyntaxError):
        parse_polynomial(good.replace("term 3 x1*x2", "blob 3 x1*x2"))
    with pytest.raises(CircuitSemanticError):
        parse_polynomial(good.replace("vars 2", "vars 1"))
    with pytest.raises(CircuitSemanticError):
        parse_polynomial(good + "term 4 x1*x2\n")


def test_polynomial_zero_coefficients_dropped():
    text = (
        "polynomial p\n"
        "ring prime 7\n"
        "mode commutative\n"
        "vars 1\n"
        "term 7 x1\n"
    )
    _, poly = parse_polynomial(text)
    assert poly.terms == {}


def test_abp_mode_survives_roundtrip():
    abp = with_mode(build_E_abp(1), COMMUTATIVE)
    back = parse_circuit(serialize_circuit(abp))
    assert back.mode == abp.mode == COMMUTATIVE
    assert expand(back) == expand(abp)
    assert len(expand(back).terms) == 1  # 2*x1*x2, not x1*x2 + x2*x1


def test_abp_without_mode_line_stays_noncommutative():
    assert "mode" not in ABP_SAMPLE
    assert parse_circuit(ABP_SAMPLE).mode == NONCOMMUTATIVE


def test_readme_format_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.S | re.M)
    examples = [b for b in blocks if b.startswith(("circuit ", "abp "))]
    assert {b.split()[0] for b in examples} == {"circuit", "abp"}
    for text in examples:
        obj = parse_circuit(text)
        assert parse_circuit(serialize_circuit(obj)).name == obj.name


# Property tests: parse∘serialize is the identity on generated objects.
# The ring list covers Q (with fractional constants), a small prime and
# the default 2^61 - 1; over F_p a fraction is its residue.
ROUND_TRIP_RINGS = (RATIONALS, PrimeField(101), PrimeField((1 << 61) - 1))


def _constants(st):
    return st.lists(
        st.sampled_from((Fraction(3, 4), Fraction(-5, 2)))
        | st.fractions(min_value=-20, max_value=20, max_denominator=12),
        min_size=1,
        max_size=4,
    )


def test_generated_circuits_round_trip():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(0, 2**32),
        st.sampled_from(ROUND_TRIP_RINGS),
        st.sampled_from(MODES),
        _constants(st),
        st.booleans(),
    )
    def check(seed, ring, mode, constants, from_program):
        rng = random.Random(seed)
        if from_program:
            # Implicit copies, and the 0-leaf of an unwritten register.
            program = random_slp(
                rng, ring, mode, rng.randint(1, 6), step_count=rng.randint(0, 24),
                constants=constants,
            )
            c = slp_to_circuit(program)
        else:
            c = random_layered_circuit(rng, ring, mode, rng.randint(1, 5), constants=constants)
        text = serialize_circuit(c)
        again = parse_circuit(text)
        assert serialize_circuit(again) == text
        assert dict(again.gates) == dict(c.gates)
        assert again.layers == c.layers
        assert again.output_id == c.output_id

    check()


def _hand_written_copies(rng: random.Random, mode: str, malformed: bool):
    """A circuit file whose copies are written by hand: (text, copies, bad copy id).

    Leaves x1, x2, two 1-leaves (3 and 4) and a 2-leaf (5); layer 2 holds
    x1+x2 and x1*x2, layer 3 their product and copies of leaves and of
    layer-2 gates.  Each copy reads either 1-leaf, written as
    mul <one> <u> or mul <u> <one>.  Later layers combine the gates below
    pairwise, copying an odd one up, until one gate is left.  A malformed
    file also holds a layer-4 copy of a layer-2 gate.  copies maps each
    copy id to its source.
    """
    lines = [
        "circuit hand", "ring prime 101", f"mode {mode}", "vars 2",
        "gate 1 1 var 1", "gate 2 1 var 2", "gate 3 1 const 1", "gate 4 1 const 1",
        "gate 5 1 const 2", "gate 6 2 add 1 2", "gate 7 2 mul 1 2", "gate 8 3 mul 6 7",
    ]
    copies: dict[int, int] = {}

    def gate(layer: int, op: str, left: int, right: int) -> int:
        gid = len(lines) - 3  # gate ids count the lines after the 4 header lines
        lines.append(f"gate {gid} {layer} {op} {left} {right}")
        return gid

    def copy(layer: int, source: int) -> int:
        one = rng.choice((3, 4))
        gid = gate(layer, "mul", *((one, source) if rng.random() < 0.5 else (source, one)))
        copies[gid] = source
        return gid

    current = [8] + [copy(3, rng.choice((1, 2, 5, 6, 7))) for _ in range(rng.randint(1, 4))]
    bad = copy(4, rng.choice((6, 7))) if malformed else None
    layer = 3
    while len(current) > 1:
        layer += 1
        pairs = zip(current[::2], current[1::2])
        following = [gate(layer, rng.choice(("add", "mul")), a, b) for a, b in pairs]
        if len(current) % 2:
            following.append(copy(layer, current[-1]))
        current = following
    lines.append(f"output {current[0]}")
    return "\n".join(lines) + "\n", copies, bad


def _text_polynomial(text: str) -> SparsePolynomial:
    """The polynomial of a prime-101 circuit file, gate line by gate line."""
    ring, values = PrimeField(101), {}
    for tokens in map(str.split, text.splitlines()):
        if tokens[0] == "mode":
            mode = tokens[1]
        elif tokens[0] == "output":
            return values[int(tokens[1])]
        elif tokens[0] == "gate":
            gid, kind, args = int(tokens[1]), tokens[3], tokens[4:]
            if kind == "var":
                values[gid] = SparsePolynomial.variable(ring, mode, 2, int(args[0]))
            elif kind == "const":
                values[gid] = SparsePolynomial.constant(ring, mode, 2, int(args[0]))
            else:
                left, right = (values[int(a)] for a in args)
                values[gid] = left.add(right) if kind == "add" else left.mul(right)
    raise AssertionError("no output line")


def test_hand_written_copies_read_into_the_copy_table():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(0, 2**32), st.sampled_from(MODES), st.booleans())
    def check(seed, mode, malformed):
        text, copies, bad = _hand_written_copies(random.Random(seed), mode, malformed)
        c = parse_circuit(text)
        assert c.gates.copies == copies
        assert c.gates.one == 3
        if malformed:
            # As the same gate reading the 2-leaf, which is no copy.
            twin = re.sub(rf"^gate {bad} .*$", f"gate {bad} 4 mul {copies[bad]} 5", text, flags=re.M)
            for circuit in (c, parse_circuit(twin)):
                with pytest.raises(BadOperandLayer, match=f"^gate {bad} in layer 4 reads layer 2$"):
                    validate(circuit)
            return
        once = serialize_circuit(c)
        for gid, source in copies.items():
            assert re.search(rf"^gate {gid} \d+ mul {source} 3$", once, flags=re.M)
        assert serialize_circuit(parse_circuit(once)) == once
        want = _text_polynomial(text)
        assert expand(c) == expand(parse_circuit(once)) == want
        assert expand(staggerize(c)) == want

    check()


def test_generated_abps_round_trip():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def random_abps(draw):
        ring = draw(st.sampled_from(ROUND_TRIP_RINGS))
        n = draw(st.integers(1, 3))
        scalars = _constants(st).map(lambda values: [ring.scalar(v) for v in values])
        layers, next_id = [[0]], 1
        for size in draw(st.lists(st.integers(1, 3), max_size=3)):
            layers.append(list(range(next_id, next_id + size)))
            next_id += size
        layers.append([next_id])
        edges = []
        for below, above in zip(layers, layers[1:]):
            for v in above:
                for u in below:
                    if draw(st.booleans()):
                        constant, *coeffs = draw(scalars)
                        variables = draw(st.permutations(range(1, n + 1)))
                        label = LinearForm(constant, dict(zip(variables, coeffs)))
                        edges.append((u, v, label))
        mode = draw(st.sampled_from(MODES))
        return AlgebraicBranchingProgram("rabp", ring, n, layers, edges, 0, next_id, mode=mode)

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        random_abps()
        | st.builds(
            lambda n, ring, mode: with_mode(build_E_abp(n, ring), mode),
            st.integers(1, 3),
            st.sampled_from(ROUND_TRIP_RINGS),
            st.sampled_from(MODES),
        )
    )
    def check(abp):
        text = serialize_circuit(abp)
        assert serialize_circuit(parse_circuit(text)) == text

    check()


def test_generated_polynomials_round_trip():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def polynomials(draw):
        ring = draw(st.sampled_from(ROUND_TRIP_RINGS))
        mode = draw(st.sampled_from(MODES))
        n = draw(st.integers(0, 3))
        if n == 0:
            monomials = st.just(Monomial.unit(mode))
        elif mode == COMMUTATIVE:
            exponents = st.dictionaries(st.integers(1, n), st.integers(0, 3), max_size=n)
            monomials = exponents.map(Monomial.from_exponents)
        else:
            monomials = st.lists(st.integers(1, n), max_size=4).map(Monomial.word)
        terms = draw(st.lists(monomials, max_size=5))
        coeffs = draw(_constants(st))
        return SparsePolynomial(ring, mode, n, dict(zip(terms, coeffs * len(terms))))

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(polynomials(), st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,8}", fullmatch=True))
    def check(poly, name):
        text = serialize_polynomial(poly, name=name)
        assert parse_polynomial(text) == (name, poly)

    check()


def serialized_draws(monkeypatch):
    """Circuits whose serialized bytes are pinned.

    random_layered_circuit and random_slp draws over three rings, with
    negative constants, each layered draw also staggered; and perfbench's
    stagger_wide shapes at widths 8-128, also staggered.
    """
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
    gen = importlib.import_module("perfbench.gen")
    rng = random.Random(97)
    rings = (PrimeField(101), RATIONALS, PrimeField(DEFAULT_PRIME))
    for trial in range(120):
        ring, mode = rings[trial % 3], MODES[trial // 3 % 2]
        c = random_layered_circuit(
            rng, ring, mode, rng.randrange(1, 13), internal_layers=rng.randrange(1, 6),
            constants=range(-3, 7),
        )
        yield c
        yield slp_to_circuit(staggerize(c))
        yield slp_to_circuit(
            random_slp(
                rng, ring, mode, rng.randrange(1, 7), step_count=rng.randrange(0, 24),
                constants=range(-3, 7),
            )
        )
    for trial, width in enumerate((8, 16, 32, 64, 128)):
        ring, mode = rings[1 + trial % 2], MODES[trial % 2]
        c = gen.layered_circuit(rng, ring, mode, [width, width, width // 8], name=f"w{width}")
        yield c
        yield slp_to_circuit(staggerize(c))


# sha256 over the serialized texts of serialized_draws, as serialize_circuit
# wrote them one gate at a time.
SERIALIZED_BEFORE = "073d740ea404bf816ade7d6f854e3ba2be35c197e476160f18e2d3bb0801fba1"


def test_serialized_bytes_are_pinned(monkeypatch):
    texts = [serialize_circuit(c) for c in serialized_draws(monkeypatch)]
    assert len(texts) == 370
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == SERIALIZED_BEFORE


def test_serialize_refuses_a_circuit_validate_refuses():
    # Leaves outside layer 1 would be written into layer 1, and the text
    # would parse into a circuit that validates: refused before writing.
    one = RATIONALS.one()
    misplaced = [
        (
            {1: VarLeaf(1), 2: VarLeaf(2), 3: ConstLeaf(one), 4: BinGate("mul", 2, 3)},
            [[1], [2, 3], [4]],
            4,
        ),
        (
            {
                1: VarLeaf(1), 2: ConstLeaf(one), 3: BinGate("add", 1, 1), 4: VarLeaf(2),
                5: BinGate("mul", 3, 2), 6: ConstLeaf(-one), 7: BinGate("mul", 2, 4),
            },
            [[1, 2, 3], [4, 5], [6, 7]],
            7,
        ),
    ]
    for gates, layers, output in misplaced:
        c = LayeredCircuit("misplaced", RATIONALS, COMMUTATIVE, 2, layers, gates, output)
        with pytest.raises(BadOperandLayer):
            serialize_circuit(c)


def _circuit_from_a_dict(text: str, like: LayeredCircuit) -> LayeredCircuit:
    """The circuit of a file's gate lines, built from a plain gate dict.

    like gives the header: name, ring, mode and variable count.
    """
    gates, layers, output = {}, [[]], None
    for tokens in map(str.split, text.splitlines()):
        if tokens[0] == "output":
            output = int(tokens[1])
        elif tokens[0] == "gate":
            gid, layer, kind, args = int(tokens[1]), int(tokens[2]), tokens[3], tokens[4:]
            if kind == "var":
                gates[gid] = VarLeaf(int(args[0]))
            elif kind == "const":
                gates[gid] = ConstLeaf(like.ring.parse(args[0]))
            else:
                gates[gid] = BinGate(kind, int(args[0]), int(args[1]))
            layers.extend([] for _ in range(layer - len(layers)))
            layers[layer - 1].append(gid)
    return LayeredCircuit(like.name, like.ring, like.mode, like.num_variables, layers, gates, output)


def _outcome(check, circuit):
    """check(circuit), or the type and message of the error it raises."""
    try:
        return check(circuit)
    except SlpforgeError as exc:
        return type(exc), str(exc)


def _parsed_like_a_dict(text: str, walk) -> LayeredCircuit:
    """Parse text, and check it against the same gates built from a dict.

    The two tables and layers agree, and validate of the parsed circuit
    returns or raises what walk (the full check) does on the built one.
    Returns the parsed circuit.
    """
    parsed = parse_circuit(text)
    built = _circuit_from_a_dict(text, parsed)
    assert parsed.gates.explicit == built.gates.explicit
    assert parsed.gates.copies == built.gates.copies
    assert parsed.gates.one == built.gates.one
    assert parsed.layers == built.layers
    assert parsed.output_id == built.output_id
    assert _outcome(validate, parsed) == _outcome(walk, built)
    return parsed


def _report_draws(monkeypatch):
    """Well-formed circuit files: the pinned serialized draws, more random
    circuits and converted programs over Q, F_101 and F_(2^61-1) in both
    modes, and the hand-written copy files."""
    for c in serialized_draws(monkeypatch):
        yield serialize_circuit(c)
    rng = random.Random(26)
    for trial in range(60):
        ring, mode = ROUND_TRIP_RINGS[trial % 3], MODES[trial // 3 % 2]
        c = random_layered_circuit(
            rng, ring, mode, rng.randrange(1, 9), internal_layers=rng.randrange(0, 5),
            constants=(-2, 1, 1, Fraction(3, 4), 5),
        )
        program = random_slp(
            rng, ring, mode, rng.randrange(1, 6), step_count=rng.randrange(0, 30),
            bite=trial % 2 == 1,
        )
        for circuit in (c, slp_to_circuit(staggerize(c)), slp_to_circuit(program)):
            yield serialize_circuit(circuit)
    for seed in range(40):
        yield _hand_written_copies(random.Random(seed), MODES[seed % 2], False)[0]


def test_parse_derives_the_report_the_walk_computes(monkeypatch):
    # A well-formed file's report comes from its parse: validate never
    # walks it, and the report equals the walk's, field for field.
    walk = circuits._validate

    def refuse(circuit):
        raise AssertionError("validate walked a parsed file")

    texts = list(_report_draws(monkeypatch))
    monkeypatch.setattr(circuits, "_validate", refuse)
    reports = set()
    for text in texts:
        parsed = _parsed_like_a_dict(text, walk)
        assert validate(parsed) == walk(parsed)
        reports.add(validate(parsed))
    assert len(texts) == 370 + 180 + 40
    # Every field takes both values, or several.
    for field in ("staggered", "monotone", "homogeneous"):
        assert {getattr(r, field) for r in reports} == {False, True}


def test_a_misordered_or_misread_file_validates_as_its_gates_do():
    # Gate lines shuffled (or shuffled within their layers), an operand
    # read from a later line, an undefined gate or a wrong layer, a
    # variable beyond vars, or an output that is no gate: validate of the
    # parse returns or raises just what the full walk does on the same
    # gates built from a dict.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    mutations = ("shuffle", "shuffle layers", "later", "undefined", "layer", "variable", "output")

    @hypothesis.settings(max_examples=250, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(0, 2**32),
        st.sampled_from(ROUND_TRIP_RINGS),
        st.sampled_from(MODES),
        st.booleans(),
        st.sampled_from(mutations),
    )
    def check(seed, ring, mode, from_program, mutation):
        rng = random.Random(seed)
        if from_program:
            program = random_slp(rng, ring, mode, rng.randint(1, 5), step_count=rng.randint(1, 20))
            c = slp_to_circuit(program)
        else:
            c = random_layered_circuit(rng, ring, mode, rng.randint(1, 5), constants=(-1, 1, 2))
        lines = serialize_circuit(c).splitlines()
        head, gate_lines, output = lines[:4], lines[4:-1], lines[-1]
        fields = [line.split() for line in gate_lines]
        internal = [i for i, f in enumerate(fields) if f[3] in ("add", "mul")]
        if mutation.startswith("shuffle"):
            rng.shuffle(gate_lines)
            if mutation == "shuffle layers":
                gate_lines.sort(key=lambda line: int(line.split()[2]))
        elif mutation in ("later", "undefined", "layer") and internal:
            i = rng.choice(internal)
            _, gid, layer, op, *operands = fields[i]
            if mutation == "later":
                pool = [f[1] for f in fields[i:]]
            elif mutation == "undefined":
                pool = [str(max(c.gates) + 1)]
            else:
                pool = [f[1] for f in fields if int(f[2]) not in (1, int(layer) - 1)]
            if pool:
                operands[rng.randrange(2)] = rng.choice(pool)
                gate_lines[i] = f"gate {gid} {layer} {op} {' '.join(operands)}"
        elif mutation == "variable":
            leaves = [i for i, f in enumerate(fields) if f[3] == "var"]
            if leaves:
                i = rng.choice(leaves)
                index = rng.choice((0, c.num_variables + 1))
                gate_lines[i] = re.sub(r"var \d+$", f"var {index}", gate_lines[i])
        elif mutation == "output":
            output = f"output {max(c.gates) + rng.randint(1, 3)}"
        _parsed_like_a_dict("\n".join(head + gate_lines + [output]) + "\n", circuits._validate)

    check()
