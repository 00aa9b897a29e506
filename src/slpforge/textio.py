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
CircuitSemanticError.  The parser checks a circuit's references no
further: circuits.validate, which every semantics runs first, raises
CircuitSemanticError for a gate reading an undefined gate and
DanglingOutput for an output that is not a gate.

Straight-line programs are stored as their staggered-circuit form, so
one grammar covers both; parse_circuit followed by circuit_to_slp
recovers the register program.  A copy line, a mul gate with a 1-leaf
as either operand, is read into the circuit's copy table, and every
copy is written as 'mul <source> <one>', with one the 1-leaf of least
id (see the circuits module docstring).
"""

from __future__ import annotations

from typing import Union

from .circuits import (
    AlgebraicBranchingProgram,
    BinGate,
    ConstLeaf,
    Gate,
    LayeredCircuit,
    LinearForm,
    VarLeaf,
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
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.append((lineno, stripped.split()))
    return out


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

    gates: dict[int, Gate] = {}
    layers: list[list[int]] = [[]]
    output_id: int | None = None
    for lineno, tokens in rest:
        if tokens[0] == "gate":
            if output_id is not None:
                raise CircuitSyntaxError("gate line after output line", lineno)
            if len(tokens) < 4:
                raise CircuitSyntaxError("truncated gate line", lineno)
            gid = _int(tokens[1], lineno, "gate id")
            layer = _int(tokens[2], lineno, "layer")
            if gid in gates:
                raise CircuitSemanticError(f"duplicate gate id {gid}")
            if layer == 1:
                if tokens[3] == "var" and len(tokens) == 5:
                    gate: Gate = VarLeaf(_int(tokens[4], lineno, "variable index"))
                elif tokens[3] == "const" and len(tokens) == 5:
                    try:
                        gate = ConstLeaf(ring.parse(tokens[4]))
                    except ParamError as exc:
                        raise CircuitSyntaxError(str(exc), lineno)
                else:
                    raise CircuitSyntaxError(
                        "leaf must be 'var <i>' or 'const <scalar>'", lineno
                    )
            elif layer >= 2:
                if tokens[3] not in ("add", "mul") or len(tokens) != 6:
                    raise CircuitSyntaxError(
                        "internal gate must be '<add|mul> <left> <right>'", lineno
                    )
                gate = BinGate(
                    tokens[3],
                    _int(tokens[4], lineno, "operand"),
                    _int(tokens[5], lineno, "operand"),
                )
            else:
                raise CircuitSyntaxError(f"bad layer {layer}", lineno)
            gates[gid] = gate
            if layer > len(layers):
                layers.extend([] for _ in range(layer - len(layers)))
            layers[layer - 1].append(gid)
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
    return LayeredCircuit(name, ring, mode, num_variables, layers, gates, output_id)


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
