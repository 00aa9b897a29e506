"""Line-oriented text formats for circuits and branching programs.

Circuit files:

    circuit <name>
    ring prime <p>        (or: ring rational)
    mode commutative      (or: mode noncommutative)
    vars <n>
    gate <id> 1 var <i>
    gate <id> 1 const <scalar>
    gate <id> <layer> <add|mul> <leftId> <rightId>   (layer >= 2)
    output <id>

Branching-program files:

    abp <name>
    ring ...
    mode ...              (optional; noncommutative when absent)
    vars <n>
    vertex <id> <layer>
    edge <from> <to> <c0> [<i>:<ci>]...
    source <id>
    sink <id>

Polynomial files:

    polynomial <name>
    ring ...
    mode ...
    vars <n>
    term <coeff> <monomial>      (monomial like x1*x3^2, or 1)

Scalars are decimal integers or num/den fractions.  Blank lines and
lines starting with '#' are ignored.  Parsing reports the 1-based line
number of the first offending line, and a duplicate id raises
CircuitSemanticError.  This module reads tokens and syntax only: it
hands a circuit's gate lines, in file order, to circuits, which builds
the gate table and, in the same pass, the report validate() would
compute.  A file whose references that pass cannot vouch for carries
no report, and circuits.validate, which every semantics runs first,
raises its typed error: CircuitSemanticError for a gate reading an
undefined gate, DanglingOutput for an output that is not a gate.

Straight-line programs are stored as their staggered-circuit form, so
one grammar covers both; parse_circuit followed by circuit_to_slp
recovers the register program.  A copy line, a mul gate with a 1-leaf
as either operand, is read into the circuit's copy table, and every
copy is written as 'mul <source> <one>', with one the 1-leaf of least
id (see the circuits module docstring).
"""

from __future__ import annotations

from typing import NoReturn, Union

from .circuits import (
    AlgebraicBranchingProgram,
    BinGate,
    Gate,
    LayeredCircuit,
    LinearForm,
    VarLeaf,
    _read_gate_lines,
    validate,
)
from .errors import (
    CircuitSemanticError,
    CircuitSyntaxError,
    ParamError,
    SlpforgeError,
)
from .polynomials import COMMUTATIVE, MODES, NONCOMMUTATIVE, Monomial, SparsePolynomial
from .rings import Ring, ring_from_descriptor

Parsed = Union[LayeredCircuit, AlgebraicBranchingProgram]


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    """(line number, tokens) of each line that is neither blank nor a comment."""
    return [
        (lineno, tokens)
        for lineno, tokens in enumerate(map(str.split, text.splitlines()), start=1)
        if tokens and tokens[0][0] != "#"
    ]


def _int(token: str, lineno: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise CircuitSyntaxError(f"{what} must be an integer, got {token!r}", lineno)


def _header(lines, kind: str, default_mode: str | None = None):
    """Shared header of all three formats: (name, ring, mode, vars, rest).

    The mode line is required unless a default_mode is given.
    """
    if not lines:
        raise CircuitSyntaxError("empty file", 1)
    lineno, tokens = lines[0]
    if len(tokens) != 2 or tokens[0] != kind:
        raise CircuitSyntaxError(f"expected '{kind} <name>'", lineno)
    name = tokens[1]
    if len(lines) < 2:
        raise CircuitSyntaxError("missing ring line", lineno)
    lineno, tokens = lines[1]
    if tokens[0] != "ring":
        raise CircuitSyntaxError("expected 'ring ...'", lineno)
    try:
        ring = ring_from_descriptor(tokens[1:])
    except ParamError as exc:
        raise CircuitSyntaxError(str(exc), lineno)
    rest = lines[2:]
    mode = default_mode
    if mode is None or (rest and rest[0][1][0] == "mode"):
        if not rest:
            raise CircuitSyntaxError("missing mode line", lineno)
        lineno, tokens = rest[0]
        if len(tokens) != 2 or tokens[0] != "mode" or tokens[1] not in MODES:
            raise CircuitSyntaxError("expected 'mode commutative' or 'mode noncommutative'", lineno)
        mode = tokens[1]
        rest = rest[1:]
    if not rest:
        raise CircuitSyntaxError("missing vars line", lineno)
    lineno, tokens = rest[0]
    if len(tokens) != 2 or tokens[0] != "vars":
        raise CircuitSyntaxError("expected 'vars <n>'", lineno)
    return name, ring, mode, _int(tokens[1], lineno, "variable count"), rest[1:]


def parse_circuit(text: str) -> Parsed:
    """Parse either file kind, dispatching on the first keyword."""
    lines = _content_lines(text)
    if not lines:
        raise CircuitSyntaxError("empty file", 1)
    kind = lines[0][1][0]
    if kind == "circuit":
        return _parse_layered(lines)
    if kind == "abp":
        return _parse_abp(lines)
    raise CircuitSyntaxError(f"expected 'circuit' or 'abp', got {kind!r}", lines[0][0])


def _parse_layered(lines) -> LayeredCircuit:
    name, ring, mode, num_variables, rest = _header(lines, "circuit")

    # One (gid, layer, kind, a, b) per gate line, in file order; circuits
    # builds the gates and the report from them.
    gate_lines: list[tuple] = []
    seen: set[int] = set()
    output_id: int | None = None
    for lineno, tokens in rest:
        if tokens[0] == "gate":
            if output_id is not None:
                raise CircuitSyntaxError("gate line after output line", lineno)
            count = len(tokens)
            if count < 4:
                raise CircuitSyntaxError("truncated gate line", lineno)
            kind = tokens[3]
            try:
                gid, layer = int(tokens[1]), int(tokens[2])
                if count == 6:
                    a, b = int(tokens[4]), int(tokens[5])
                elif count == 5 and kind == "var":
                    a = int(tokens[4])
            except ValueError:
                _raise_gate_line_error(tokens, lineno, seen)
            if gid in seen:
                raise CircuitSemanticError(f"duplicate gate id {gid}")
            seen.add(gid)
            if layer >= 2 and count == 6 and kind in ("add", "mul"):
                gate_lines.append((gid, layer, kind, a, b))
            elif layer == 1 and count == 5 and kind == "var":
                gate_lines.append((gid, 1, kind, a, None))
            elif layer == 1 and count == 5 and kind == "const":
                try:
                    gate_lines.append((gid, 1, kind, ring.parse(tokens[4]), None))
                except ParamError as exc:
                    raise CircuitSyntaxError(str(exc), lineno)
            else:
                _raise_gate_grammar_error(layer, lineno)
        elif tokens[0] == "output":
            if len(tokens) != 2:
                raise CircuitSyntaxError("expected 'output <id>'", lineno)
            if output_id is not None:
                raise CircuitSyntaxError("second output line", lineno)
            output_id = _int(tokens[1], lineno, "output id")
        else:
            raise CircuitSyntaxError(f"unknown directive {tokens[0]!r}", lineno)

    if output_id is None:
        raise CircuitSyntaxError("missing output line", lines[-1][0])
    return _read_gate_lines(name, ring, mode, num_variables, gate_lines, output_id)


def _raise_gate_grammar_error(layer: int, lineno: int) -> NoReturn:
    """The syntax error of a gate line whose integers read but whose shape is wrong."""
    if layer == 1:
        raise CircuitSyntaxError("leaf must be 'var <i>' or 'const <scalar>'", lineno)
    if layer >= 2:
        raise CircuitSyntaxError("internal gate must be '<add|mul> <left> <right>'", lineno)
    raise CircuitSyntaxError(f"bad layer {layer}", lineno)


def _raise_gate_line_error(tokens: list[str], lineno: int, seen: set[int]) -> NoReturn:
    """The first error of a gate line with a malformed integer, found token by token.

    In line order: the id, the layer, a duplicate id, the line's shape,
    then the variable index or the operands.
    """
    gid = _int(tokens[1], lineno, "gate id")
    layer = _int(tokens[2], lineno, "layer")
    if gid in seen:
        raise CircuitSemanticError(f"duplicate gate id {gid}")
    if layer == 1 and len(tokens) == 5 and tokens[3] == "var":
        _int(tokens[4], lineno, "variable index")
    elif layer >= 2 and len(tokens) == 6 and tokens[3] in ("add", "mul"):
        _int(tokens[4], lineno, "operand")
        _int(tokens[5], lineno, "operand")
    _raise_gate_grammar_error(layer, lineno)


def _parse_abp(lines) -> AlgebraicBranchingProgram:
    name, ring, mode, num_variables, rest = _header(lines, "abp", NONCOMMUTATIVE)

    vertex_layer: dict[int, int] = {}
    edges: list[tuple[int, int, LinearForm]] = []
    source: int | None = None
    sink: int | None = None
    for lineno, tokens in rest:
        if tokens[0] == "vertex":
            if len(tokens) != 3:
                raise CircuitSyntaxError("expected 'vertex <id> <layer>'", lineno)
            vid = _int(tokens[1], lineno, "vertex id")
            if vid in vertex_layer:
                raise CircuitSemanticError(f"duplicate vertex id {vid}")
            vertex_layer[vid] = _int(tokens[2], lineno, "layer")
        elif tokens[0] == "edge":
            if len(tokens) < 4:
                raise CircuitSyntaxError("truncated edge line", lineno)
            u = _int(tokens[1], lineno, "vertex id")
            v = _int(tokens[2], lineno, "vertex id")
            try:
                constant = ring.parse(tokens[3])
                coeffs = {}
                for item in tokens[4:]:
                    var_text, _, coeff_text = item.partition(":")
                    if not coeff_text:
                        raise CircuitSyntaxError(
                            f"edge coefficient {item!r} is not '<i>:<c>'", lineno
                        )
                    coeffs[_int(var_text, lineno, "variable index")] = ring.parse(coeff_text)
            except ParamError as exc:
                raise CircuitSyntaxError(str(exc), lineno)
            edges.append((u, v, LinearForm(constant, coeffs)))
        elif tokens[0] == "source":
            if len(tokens) != 2:
                raise CircuitSyntaxError("expected 'source <id>'", lineno)
            source = _int(tokens[1], lineno, "source id")
        elif tokens[0] == "sink":
            if len(tokens) != 2:
                raise CircuitSyntaxError("expected 'sink <id>'", lineno)
            sink = _int(tokens[1], lineno, "sink id")
        else:
            raise CircuitSyntaxError(f"unknown directive {tokens[0]!r}", lineno)

    if source is None or sink is None:
        raise CircuitSyntaxError("missing source or sink line", lines[-1][0])
    declared = sorted(set(vertex_layer.values()))
    if declared != list(range(len(declared))):
        raise CircuitSemanticError(f"vertex layers must be 0..t, got {declared}")
    layers: list[list[int]] = [[] for _ in declared]
    for vid in sorted(vertex_layer):
        layers[vertex_layer[vid]].append(vid)
    # Constructor enforces source/sink placement, defined vertices and adjacency.
    return AlgebraicBranchingProgram(
        name, ring, num_variables, layers, edges, source, sink, mode
    )


def _header_lines(kind: str, name: str, obj) -> list[str]:
    """The four header lines of every format; the inverse of _header."""
    return [
        f"{kind} {name}",
        f"ring {obj.ring.descriptor()}",
        f"mode {obj.mode}",
        f"vars {obj.num_variables}",
    ]


def _leaf_line(gid: int, g: Gate) -> str:
    if isinstance(g, VarLeaf):
        return f"gate {gid} 1 var {g.index}"
    return f"gate {gid} 1 const {g.value.text()}"


def serialize_circuit(obj: Parsed) -> str:
    """Inverse of parse_circuit; output parses back structurally identical.

    A circuit is validated first (free for one that carries its report),
    so one that validate refuses raises its typed error instead of being
    written as a file that would parse into a different circuit.
    """
    if isinstance(obj, LayeredCircuit):
        validate(obj)
        lines = _header_lines("circuit", obj.name, obj)
        gates, copies, one = obj.gates.explicit, obj.gates.copies, obj.gates.one
        for layer_index, layer in enumerate(obj.layers, start=1):
            # One comprehension per layer: a copy, from the copy table, or
            # an explicit gate.  Every leaf is in layer 1.
            lines += [
                f"gate {gid} {layer_index} mul {copies[gid]} {one}" if g is None
                else f"gate {gid} {layer_index} {g.op} {g.left} {g.right}"
                if isinstance(g, BinGate) else _leaf_line(gid, g)
                for gid, g in zip(layer, map(gates.get, layer))
            ]
        lines.append(f"output {obj.output_id}")
        return "\n".join(lines) + "\n"

    if isinstance(obj, AlgebraicBranchingProgram):
        lines = _header_lines("abp", obj.name, obj)
        for layer_index, layer in enumerate(obj.layers):
            for vid in layer:
                lines.append(f"vertex {vid} {layer_index}")
        for u, v, label in obj.edges:
            parts = [f"edge {u} {v} {label.constant.text()}"]
            parts.extend(
                f"{var}:{coeff.text()}" for var, coeff in label.coefficients.items()
            )
            lines.append(" ".join(parts))
        lines.append(f"source {obj.source}")
        lines.append(f"sink {obj.sink}")
        return "\n".join(lines) + "\n"

    raise ParamError(f"cannot serialize {type(obj).__name__}")


def serialize_polynomial(poly: SparsePolynomial, name: str = "p") -> str:
    """One term per line, coefficients first, monomials in canonical order."""
    lines = _header_lines("polynomial", name, poly)
    for mono in poly.monomials():
        lines.append(f"term {poly.terms[mono].text()} {mono.text()}")
    return "\n".join(lines) + "\n"


def _parse_monomial(text: str, mode: str, lineno: int) -> Monomial:
    if text == "1":
        return Monomial.unit(mode)
    factors = []
    for part in text.split("*"):
        body, caret, exp_text = part.partition("^")
        if not body.startswith("x"):
            raise CircuitSyntaxError(f"bad monomial factor {part!r}", lineno)
        index = _int(body[1:], lineno, "variable index")
        exponent = _int(exp_text, lineno, "exponent") if caret else 1
        if index < 1 or exponent < 1:
            raise CircuitSyntaxError(f"bad monomial factor {part!r}", lineno)
        factors.append((index, exponent))
    if mode == COMMUTATIVE:
        exponents: dict[int, int] = {}
        for index, exponent in factors:
            exponents[index] = exponents.get(index, 0) + exponent
        return Monomial.from_exponents(exponents)
    word: list[int] = []
    for index, exponent in factors:
        word.extend([index] * exponent)
    return Monomial.word(word)


def parse_polynomial(text: str) -> tuple[str, SparsePolynomial]:
    """Inverse of serialize_polynomial; returns (name, polynomial)."""
    lines = _content_lines(text)
    name, ring, mode, num_variables, rest = _header(lines, "polynomial")

    terms: dict[Monomial, object] = {}
    for lineno, tokens in rest:
        if tokens[0] != "term":
            raise CircuitSyntaxError(f"unknown directive {tokens[0]!r}", lineno)
        if len(tokens) != 3:
            raise CircuitSyntaxError("expected 'term <coeff> <monomial>'", lineno)
        try:
            coeff = ring.parse(tokens[1])
        except (ParamError, ValueError) as exc:
            raise CircuitSyntaxError(str(exc), lineno)
        mono = _parse_monomial(tokens[2], mode, lineno)
        if mono in terms:
            raise CircuitSemanticError(f"duplicate term {tokens[2]!r}")
        if mono.max_variable() > num_variables:
            raise CircuitSemanticError(
                f"monomial {tokens[2]!r} uses x{mono.max_variable()}, "
                f"but vars is {num_variables}"
            )
        if coeff != ring.zero():
            terms[mono] = coeff
    return name, SparsePolynomial(ring, mode, num_variables, terms)
