"""Circuit intermediate representations and their semantics.

Three forms share one polynomial semantics:

* LayeredCircuit: gates arranged in layers V_1..V_t.  V_1 holds the
  leaves (variables and constants).  An internal gate in V_i (i > 1)
  reads operands from V_1 or V_{i-1} only.  Width is the largest
  internal layer; a circuit with no internal layer has width 0.  Size
  counts every gate, leaves included.  The gate table is a read-only
  mapping, so validate() computes its report once per circuit object
  and stores it on the circuit; a circuit slp_to_circuit builds carries
  the report derived from its program instead, and a parsed file the
  report its parse derived, so neither is walked for it.  The gate
  table holds two tables: explicit gates
  (leaves and BinGates) and copies, copy id -> source id.  A copy is
  any mul gate with a constant-1 leaf of layer 1 as either operand,
  stored so however the circuit is made (CircuitBuilder, parser, plain
  mapping); looking it up builds BinGate("mul", source, one), with one
  the 1-leaf of least id, so no pass needs a gate object per copy.

* StraightLineProgram: a register program over w registers.  Steps are
  load (register := variable or constant) and apply (register :=
  operand op operand), where apply operands may be registers, variables,
  or constants, and the destination may coincide with a source.
  Registers start at zero.  A step is live when its register is the
  output or is read by a live step before being written again;
  live_steps() lists the live steps once per program; fold() and the
  transforms' re-runs read only those, while slp_to_circuit converts
  every step.  An SLP over w registers is the same object
  as a staggered layered circuit of width w: each layer of such a
  circuit has at most one gate that is not a copy (u times 1), and the
  copy chains are exactly registers kept alive.  slp_to_circuit and
  circuit_to_slp realize the two directions.

* AlgebraicBranchingProgram: a layered DAG with a unique source and
  sink whose edges carry linear forms; it computes the sum over all
  source-to-sink paths of the ordered product of edge labels.  Size is
  the vertex count.  Evaluation and expansion run layer by layer, never
  by path enumeration.

fold() is the one walk over all three forms: it interprets an object in
an algebra given as four functions (var, const, add, mul).  Each
semantics is such an algebra: evaluate() over ring scalars,
evaluate_batch() over columns of raw values, one entry per point (int64
residues over F_p with p < 2^31, exact Python numbers in numpy object
arrays over every other ring), expand() over raw sparse terms under hard
caps (polynomials.term_algebra), and syntactic_degree() and the
degree and homogeneity check in validate() over integer degrees (a
circuit's syntactic_degree() is the degree its report carries).  The
four public semantics validate a circuit before using it, so a parsed circuit
that breaks an invariant raises validate's typed error; fold() itself
does not, since validate() runs it.  fold() gives a
copy its source's value itself, without calling mul; that is
exact in every one of these algebras, since const(1) is the
multiplicative identity and none of them mutates an operand.
"""

from __future__ import annotations

import heapq
import operator
from collections.abc import Iterator, Mapping
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Sequence, TypeVar, Union

import numpy as np

from .errors import (
    ArityMismatch,
    BadOperandLayer,
    CircuitSemanticError,
    DanglingOutput,
    InvariantViolation,
    ParamError,
    RingMismatch,
)
from .polynomials import (
    DEFAULT_CAPS,
    ExpansionCaps,
    NONCOMMUTATIVE,
    SparsePolynomial,
    _check_mode,
    term_algebra,
)
from .rings import Ring, Scalar, ScalarLike

ADD = "add"
MUL = "mul"
OPS = (ADD, MUL)

T = TypeVar("T")


# ---------------------------------------------------------------------------
# Layered circuits


@dataclass(frozen=True)
class VarLeaf:
    index: int


@dataclass(frozen=True)
class ConstLeaf:
    value: Scalar


@dataclass(frozen=True)
class BinGate:
    op: str
    left: int
    right: int


Gate = Union[VarLeaf, ConstLeaf, BinGate]


class _GateTable(Mapping):
    """Read-only gate table: explicit gates plus copies.

    explicit maps ids to leaves and BinGates, copies maps each copy id
    to its source, and one is the id of the 1-leaf every copy reads.
    Looking up a copy builds BinGate("mul", source, one); ids iterate in
    id order.  The passes of this package read the two tables directly
    and never change them.
    """

    __slots__ = ("explicit", "copies", "one")

    def __init__(self, explicit: dict[int, Gate], copies: dict[int, int], one: int | None):
        self.explicit = explicit
        self.copies = copies
        self.one = one

    def __getitem__(self, gid: int) -> Gate:
        g = self.explicit.get(gid)
        if g is None:
            return BinGate(MUL, self.copies[gid], self.one)
        return g

    def __contains__(self, gid: object) -> bool:
        return gid in self.explicit or gid in self.copies

    def __len__(self) -> int:
        return len(self.explicit) + len(self.copies)

    def __iter__(self) -> Iterator[int]:
        # A builder's two tables are each in id order, so this sort merges two runs.
        return iter(sorted([*self.explicit, *self.copies]))


def _split_copies(gates: Mapping[int, Gate], leaves: Sequence[int], one: Scalar) -> _GateTable:
    """gates as a table whose copies are the mul gates reading a 1-leaf among leaves."""
    ones = {g for g in leaves if isinstance(gates.get(g), ConstLeaf) and gates[g].value == one}
    if not ones:
        return _GateTable(dict(gates), {}, None)
    copies = {
        gid: g.right if g.left in ones else g.left
        for gid, g in gates.items()
        if isinstance(g, BinGate) and g.op == MUL and (g.left in ones or g.right in ones)
    }
    explicit = {gid: g for gid, g in gates.items() if gid not in copies}
    return _GateTable(explicit, copies, min(ones))


class LayeredCircuit:
    """Immutable layered circuit.  Built via CircuitBuilder or the parser.

    gates is a read-only table over a private copy of the given gates, so
    the report validate() stores on the circuit cannot go stale.  Copy
    gates u*1 are held as a copy id -> source id table (see the module
    docstring); every other gate is held as given.
    """

    __slots__ = (
        "name", "ring", "mode", "num_variables", "layers", "gates", "output_id", "_report"
    )

    def __init__(
        self,
        name: str,
        ring: Ring,
        mode: str,
        num_variables: int,
        layers: Sequence[Sequence[int]],
        gates: Mapping[int, Gate],
        output_id: int,
    ):
        _check_mode(mode)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "num_variables", num_variables)
        object.__setattr__(self, "layers", tuple(tuple(layer) for layer in layers))
        # A _GateTable never changes, so it is shared rather than copied.
        if not isinstance(gates, _GateTable):
            gates = _split_copies(gates, self.layers[0] if self.layers else (), ring.one())
        object.__setattr__(self, "gates", gates)
        object.__setattr__(self, "output_id", output_id)
        object.__setattr__(self, "_report", None)

    def __setattr__(self, key, value):
        raise AttributeError("LayeredCircuit is immutable")

    @property
    def width(self) -> int:
        return max((len(layer) for layer in self.layers[1:]), default=0)

    @property
    def size(self) -> int:
        return len(self.gates)

    @property
    def layer_count(self) -> int:
        return len(self.layers)


@dataclass(frozen=True)
class ValidationReport:
    width: int
    size: int
    layer_count: int
    staggered: bool
    monotone: bool
    homogeneous: bool  # exact: every gate has a single syntactic degree
    degree: int  # the output's syntactic degree: leaves 1/0, add max, mul sum


def validate(circuit: LayeredCircuit) -> ValidationReport:
    """Check structural invariants and summarize the circuit.

    Raises BadOperandLayer, DanglingOutput, CircuitSemanticError,
    RingMismatch, or ParamError on ill-formed circuits.  The report is
    computed once per circuit object and stored on it; a circuit that
    fails stores nothing and raises again on the next call.  A circuit
    made by slp_to_circuit carries the report derived from its program,
    a parsed file the one its parse derived (see _read_gate_lines), and
    a _renamed copy the report its original holds; validate returns such
    a report as it is.  Every other circuit gets the full walk.
    """
    report = circuit._report
    if report is None:
        report = _validate(circuit)
        object.__setattr__(circuit, "_report", report)
    return report


def _renamed(circuit: LayeredCircuit, name: str) -> LayeredCircuit:
    """The circuit under another name, sharing its gate table and any report it holds.

    A report reads nothing but the gates, layers and output, so a copy
    of a validated circuit is not walked again, and validating a copy
    of an unvalidated one leaves the original as it was.
    """
    copy = LayeredCircuit(
        name, circuit.ring, circuit.mode, circuit.num_variables, circuit.layers,
        circuit.gates, circuit.output_id,
    )
    object.__setattr__(copy, "_report", circuit._report)
    return copy


def _validate(circuit: LayeredCircuit) -> ValidationReport:
    """The full walk behind validate(): one loop over the gates, then the degree fold.

    It checks the ids, then every gate in layer order, copies included,
    and raises the first error it meets.  The degree and homogeneity
    come from fold(), not from the gate loop, so this walk stays
    independent of the reports slp_to_circuit and the parser derive.
    """
    table = circuit.gates
    gates, copies = table.explicit, table.copies
    layer_of: dict[int, int] = {}
    for i, layer in enumerate(circuit.layers, start=1):
        for gid in layer:
            if gid in layer_of:
                raise CircuitSemanticError(f"gate {gid} appears in two layers")
            layer_of[gid] = i
    table_ids = gates.keys() | copies.keys() if copies else gates.keys()
    if table_ids != layer_of.keys():
        stray = set(table_ids) ^ set(layer_of)
        raise CircuitSemanticError(f"gate table and layers disagree on ids {sorted(stray)}")

    # Every copy reads table.one, which must be a 1-leaf of layer 1.
    if copies:
        leaf = gates.get(table.one)
        one = circuit.ring.one()
        if layer_of.get(table.one) != 1 or not (isinstance(leaf, ConstLeaf) and leaf.value == one):
            raise CircuitSemanticError(f"implicit copies read gate {table.one}, not a 1-leaf")

    # One pass over the layers checks every gate and counts, per internal
    # layer, its real gates: the explicit BinGates.  A copy is checked as
    # the gate source*1, read off the copy table, with no gate object.
    copy_source = copies.get
    monotone = circuit.ring.characteristic == 0
    staggered = True
    for layer, ids in enumerate(circuit.layers, start=1):
        real = 0
        for gid in ids:
            source = copy_source(gid)
            g = gates[gid] if source is None else None
            if isinstance(g, VarLeaf):
                if layer != 1:
                    raise BadOperandLayer(f"variable leaf {gid} in layer {layer}")
                if not 1 <= g.index <= circuit.num_variables:
                    raise ParamError(f"gate {gid} reads x{g.index} beyond vars {circuit.num_variables}")
            elif isinstance(g, ConstLeaf):
                if layer != 1:
                    raise BadOperandLayer(f"constant leaf {gid} in layer {layer}")
                if g.value.ring != circuit.ring:
                    raise RingMismatch(f"gate {gid} constant from a different ring")
                if monotone and g.value.value < 0:
                    monotone = False
            else:
                if layer == 1:
                    raise BadOperandLayer(f"internal gate {gid} in the leaf layer")
                if g is None:
                    refs = (source, table.one)
                else:
                    if g.op not in OPS:
                        raise ParamError(f"gate {gid} has unknown op {g.op!r}")
                    refs = (g.left, g.right)
                    real += 1
                for ref in refs:
                    ref_layer = layer_of.get(ref)
                    if ref_layer is None:
                        raise CircuitSemanticError(f"gate {gid} reads undefined gate {ref}")
                    if ref_layer not in (1, layer - 1):
                        raise BadOperandLayer(
                            f"gate {gid} in layer {layer} reads layer {ref_layer}"
                        )
        if real > 1:
            staggered = False
    if circuit.output_id not in layer_of:
        raise DanglingOutput(f"output {circuit.output_id} is not a gate")

    # Syntactic homogeneity: the integer degree fold of syntactic_degree,
    # whose add notes operands of two different degrees.  The first gate
    # with more than one possible degree is such an add, since a product
    # of single degrees has a single degree.
    mixed = False

    def add(a: int, b: int) -> int:
        nonlocal mixed
        if a != b:
            mixed = True
        return max(a, b)

    degree = fold(circuit, lambda i: 1, lambda c: 0, add, operator.add)

    return ValidationReport(
        width=circuit.width,
        size=circuit.size,
        layer_count=circuit.layer_count,
        staggered=staggered,
        monotone=monotone,
        homogeneous=not mixed,
        degree=degree,
    )


class CircuitBuilder:
    """Incremental construction of a LayeredCircuit with auto-assigned ids."""

    def __init__(self, ring: Ring, mode: str, num_variables: int, name: str = "c"):
        _check_mode(mode)
        self.ring = ring
        self.mode = mode
        self.num_variables = num_variables
        self.name = name
        self._gates: dict[int, Gate] = {}
        self._copies: dict[int, int] = {}
        self._layers: list[list[int]] = []
        self._next_id = 1
        self._output: int | None = None
        self._var_ids: dict[int, int] = {}
        self._const_ids: dict[Scalar, int] = {}
        self._one: int | None = None

    def _layer(self, layer: int) -> list[int]:
        if layer < 1:
            raise ParamError(f"layer must be >= 1, got {layer}")
        while len(self._layers) < layer:
            self._layers.append([])
        return self._layers[layer - 1]

    def _fresh(self, layer: int, gate: Gate) -> int:
        target = self._layer(layer)
        gid = self._next_id
        self._next_id += 1
        self._gates[gid] = gate
        target.append(gid)
        return gid

    def var_leaf(self, index: int) -> int:
        """Leaf for xindex, deduplicated."""
        if index not in self._var_ids:
            self._var_ids[index] = self._fresh(1, VarLeaf(index))
        return self._var_ids[index]

    def const_leaf(self, value: ScalarLike) -> int:
        v = self.ring.scalar(value)
        if v not in self._const_ids:
            self._const_ids[v] = gid = self._fresh(1, ConstLeaf(v))
            if v == self.ring.one():
                self._one = gid
        return self._const_ids[v]

    def gate(self, layer: int, op: str, left: int, right: int) -> int:
        """Gate op(left, right); a mul reading the 1-leaf is a copy of the other operand."""
        if op not in OPS:
            raise ParamError(f"op must be add or mul, got {op!r}")
        if op == MUL and self._one in (left, right):
            return self.copy(layer, right if left == self._one else left)
        return self._fresh(layer, BinGate(op, left, right))

    def copies(self, layer: int, sources: Sequence[int]) -> range:
        """Ferry each gate s*1 into the given layer, in order, with consecutive ids.

        The circuit stores the copies' sources only.
        """
        target = self._layer(layer)
        if sources and self._one is None:
            self.const_leaf(1)
        ids = range(self._next_id, self._next_id + len(sources))
        self._next_id = ids.stop
        self._copies.update(zip(ids, sources))
        target.extend(ids)
        return ids

    def copy(self, layer: int, source: int) -> int:
        """Ferry gate source*1 into the given layer."""
        return self.copies(layer, [source])[0]

    def set_output(self, gid: int) -> None:
        self._output = gid

    def build(self) -> LayeredCircuit:
        """The circuit built so far, validated by the full walk of validate()."""
        if self._output is None:
            raise DanglingOutput("no output designated")
        circuit = LayeredCircuit(
            self.name,
            self.ring,
            self.mode,
            self.num_variables,
            self._layers,
            _GateTable(dict(self._gates), dict(self._copies), self._one),
            self._output,
        )
        validate(circuit)
        return circuit


# ---------------------------------------------------------------------------
# Straight-line programs


@dataclass(frozen=True)
class RegOperand:
    register: int


@dataclass(frozen=True)
class VarOperand:
    index: int


@dataclass(frozen=True)
class ConstOperand:
    value: Scalar


Operand = Union[RegOperand, VarOperand, ConstOperand]


@dataclass(frozen=True)
class LoadStep:
    dest: int
    source: Union[VarOperand, ConstOperand]


@dataclass(frozen=True)
class ApplyStep:
    dest: int
    op: str
    left: Operand
    right: Operand


Step = Union[LoadStep, ApplyStep]


class StraightLineProgram:
    """Immutable register program; see the module docstring for semantics.

    live_steps() computes the steps the output reads once per program
    and stores them on it.
    """

    __slots__ = (
        "name", "ring", "mode", "num_variables", "register_count", "steps", "output_register",
        "_live",
    )

    def __init__(
        self,
        name: str,
        ring: Ring,
        mode: str,
        num_variables: int,
        register_count: int,
        steps: Sequence[Step],
        output_register: int,
    ):
        _check_mode(mode)
        if register_count < 1:
            raise ParamError(f"register_count must be >= 1, got {register_count}")
        if not 0 <= output_register < register_count:
            raise ParamError(f"output register {output_register} out of range")

        def _check_operand(op: Operand) -> None:
            if isinstance(op, RegOperand):
                if not 0 <= op.register < register_count:
                    raise ParamError(f"register {op.register} out of range")
            elif isinstance(op, VarOperand):
                if not 1 <= op.index <= num_variables:
                    raise ParamError(f"variable x{op.index} beyond vars {num_variables}")
            elif isinstance(op, ConstOperand):
                if op.value.ring != ring:
                    raise RingMismatch("constant operand from a different ring")
            else:
                raise ParamError(f"bad operand {op!r}")

        for step in steps:
            if isinstance(step, LoadStep):
                if not 0 <= step.dest < register_count:
                    raise ParamError(f"register {step.dest} out of range")
                if isinstance(step.source, RegOperand):
                    raise ParamError("load source must be a variable or constant")
                _check_operand(step.source)
            elif isinstance(step, ApplyStep):
                if not 0 <= step.dest < register_count:
                    raise ParamError(f"register {step.dest} out of range")
                if step.op not in OPS:
                    raise ParamError(f"op must be add or mul, got {step.op!r}")
                _check_operand(step.left)
                _check_operand(step.right)
            else:
                raise ParamError(f"bad step {step!r}")

        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "num_variables", num_variables)
        object.__setattr__(self, "register_count", register_count)
        object.__setattr__(self, "steps", tuple(steps))
        object.__setattr__(self, "output_register", output_register)
        object.__setattr__(self, "_live", None)

    def __setattr__(self, key, value):
        raise AttributeError("StraightLineProgram is immutable")

    @property
    def step_count(self) -> int:
        return len(self.steps)


def live_steps(prog: StraightLineProgram) -> tuple[Step, ...]:
    """The steps whose value the output reads, in program order.

    Walking backward over registers, a step is kept when its register is
    the output, or is read by a kept step before being written again.  A
    dead step's value reaches neither the output nor a kept step, so the
    kept steps alone compute the output in every algebra.  Computed once
    per program and stored on it; a program with no dead step returns
    its own steps.
    """
    live = prog._live
    if live is None:
        needed = {prog.output_register}
        kept: list[Step] = []
        for step in reversed(prog.steps):
            if step.dest in needed:
                needed.discard(step.dest)
                kept.append(step)
                if isinstance(step, ApplyStep):
                    for op in (step.left, step.right):
                        if isinstance(op, RegOperand):
                            needed.add(op.register)
        kept.reverse()
        live = prog.steps if len(kept) == len(prog.steps) else tuple(kept)
        object.__setattr__(prog, "_live", live)
    return live


class SlpBuilder:
    """Incremental SLP construction with operand helpers.

    Steps and operands are immutable, so extend() appends existing step
    objects as they are (a re-run body's unchanged steps), and reg()
    hands out one RegOperand per register.  finish() checks every step,
    appended or built, as StraightLineProgram does.
    """

    def __init__(
        self,
        ring: Ring,
        mode: str,
        num_variables: int,
        register_count: int | None = None,
        name: str = "slp",
    ):
        self.ring = ring
        self.mode = mode
        self.num_variables = num_variables
        self.register_count = register_count
        self.name = name
        self._steps: list[Step] = []
        self._regs: dict[int, RegOperand] = {}

    def reg(self, index: int) -> RegOperand:
        op = self._regs.get(index)
        if op is None:
            op = self._regs[index] = RegOperand(index)
        return op

    def var(self, index: int) -> VarOperand:
        return VarOperand(index)

    def const(self, value: ScalarLike) -> ConstOperand:
        return ConstOperand(self.ring.scalar(value))

    def load(self, dest: int, source: Union[VarOperand, ConstOperand]) -> None:
        self._steps.append(LoadStep(dest, source))

    def apply(self, dest: int, op: str, left: Operand, right: Operand) -> None:
        self._steps.append(ApplyStep(dest, op, left, right))

    def extend(self, steps: Sequence[Step]) -> None:
        self._steps.extend(steps)

    def finish(self, output_register: int) -> StraightLineProgram:
        """The program; without a register count, one past the highest register named.

        StraightLineProgram checks every register against the count.
        """
        count = self.register_count
        if count is None:
            high = output_register
            for step in self._steps:
                high = max(high, step.dest)
                if isinstance(step, ApplyStep):
                    for op in (step.left, step.right):
                        if isinstance(op, RegOperand):
                            high = max(high, op.register)
            count = high + 1
        return StraightLineProgram(
            self.name,
            self.ring,
            self.mode,
            self.num_variables,
            count,
            self._steps,
            output_register,
        )


# ---------------------------------------------------------------------------
# Algebraic branching programs


class LinearForm:
    """constant + sum of coefficient*variable, the label of an ABP edge."""

    __slots__ = ("constant", "coefficients")

    def __init__(self, constant: Scalar, coefficients: Mapping[int, Scalar] | None = None):
        object.__setattr__(self, "constant", constant)
        clean = {}
        for var, coeff in (coefficients or {}).items():
            if var < 1:
                raise ParamError(f"variable index must be >= 1, got {var}")
            if coeff.ring != constant.ring:
                raise RingMismatch("mixed rings inside a linear form")
            if not coeff.is_zero:
                clean[var] = coeff
        object.__setattr__(self, "coefficients", dict(sorted(clean.items())))

    def __setattr__(self, key, value):
        raise AttributeError("LinearForm is immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LinearForm)
            and other.constant == self.constant
            and other.coefficients == self.coefficients
        )

    def __hash__(self) -> int:
        return hash((self.constant, tuple(self.coefficients.items())))


class AlgebraicBranchingProgram:
    """Layered source-to-sink DAG with linear-form edge labels.

    The mode governs expansion only: in the default noncommutative mode,
    expand() keeps the source-to-sink order of each path as a word.
    """

    __slots__ = ("name", "ring", "mode", "num_variables", "layers", "edges", "source", "sink")

    def __init__(
        self,
        name: str,
        ring: Ring,
        num_variables: int,
        layers: Sequence[Sequence[int]],
        edges: Sequence[tuple[int, int, LinearForm]],
        source: int,
        sink: int,
        mode: str = NONCOMMUTATIVE,
    ):
        _check_mode(mode)
        layer_tuple = tuple(tuple(layer) for layer in layers)
        layer_of: dict[int, int] = {}
        for i, layer in enumerate(layer_tuple):
            for vid in layer:
                if vid in layer_of:
                    raise CircuitSemanticError(f"vertex {vid} appears twice")
                layer_of[vid] = i
        if not layer_tuple or len(layer_tuple[0]) != 1 or layer_tuple[0][0] != source:
            raise CircuitSemanticError("layer 0 must hold exactly the source")
        if len(layer_tuple[-1]) != 1 or layer_tuple[-1][0] != sink:
            raise CircuitSemanticError("the last layer must hold exactly the sink")
        indeg = {v: 0 for v in layer_of}
        outdeg = {v: 0 for v in layer_of}
        for u, v, label in edges:
            if u not in layer_of or v not in layer_of:
                raise CircuitSemanticError(f"edge ({u}, {v}) uses an undefined vertex")
            if layer_of[v] != layer_of[u] + 1:
                raise BadOperandLayer(f"edge ({u}, {v}) skips layers")
            if label.constant.ring != ring:
                raise RingMismatch("edge label from a different ring")
            indeg[v] += 1
            outdeg[u] += 1
        if indeg[source]:
            raise CircuitSemanticError("source has incoming edges")
        if outdeg[sink]:
            raise CircuitSemanticError("sink has outgoing edges")

        object.__setattr__(self, "name", name)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "num_variables", num_variables)
        object.__setattr__(self, "layers", layer_tuple)
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "sink", sink)

    def __setattr__(self, key, value):
        raise AttributeError("AlgebraicBranchingProgram is immutable")

    @property
    def size(self) -> int:
        """Vertex count."""
        return sum(len(layer) for layer in self.layers)


# ---------------------------------------------------------------------------
# Shared semantics

IRForm = Union[LayeredCircuit, StraightLineProgram, AlgebraicBranchingProgram]


def fold(
    obj: IRForm,
    var: Callable[[int], T],
    const: Callable[[Scalar], T],
    add: Callable[[T, T], T],
    mul: Callable[[T, T], T],
) -> T:
    """The output of any IR form interpreted in the algebra (var, const, add, mul).

    Every gate of a circuit is computed, including gates the output does
    not read.  A copy takes its source's value itself, with no
    call to mul: exact in every algebra of this library, whose const(1)
    is the multiplicative identity and none of which mutates an operand.
    An SLP runs its live_steps() alone: a step the output does not read
    is never computed, so it can neither fail (a cap) nor cost anything.
    Unwritten SLP registers read as const(0).  An ABP vertex is the sum
    over its incoming edges of mul(parent, label), in edge order, and the
    source is const(1); a vertex no path reaches has no value, so an
    unreachable sink yields const(0).  Each distinct edge label
    c0 + c1*x_i1 + ... is built once per call, left to right.
    """
    if isinstance(obj, LayeredCircuit):
        gates, copy_source = obj.gates.explicit, obj.gates.copies.get
        values: dict[int, T] = {}
        for layer in obj.layers:
            for gid in layer:
                source = copy_source(gid)
                if source is not None:
                    values[gid] = values[source]
                    continue
                g = gates[gid]
                if isinstance(g, BinGate):
                    op = add if g.op == ADD else mul
                    values[gid] = op(values[g.left], values[g.right])
                elif isinstance(g, VarLeaf):
                    values[gid] = var(g.index)
                else:
                    values[gid] = const(g.value)
        return values[obj.output_id]

    if isinstance(obj, StraightLineProgram):
        regs = [const(obj.ring.zero())] * obj.register_count

        def operand(op: Operand) -> T:
            if isinstance(op, RegOperand):
                return regs[op.register]
            if isinstance(op, VarOperand):
                return var(op.index)
            return const(op.value)

        for step in live_steps(obj):
            if isinstance(step, LoadStep):
                regs[step.dest] = operand(step.source)
            else:
                op = add if step.op == ADD else mul
                regs[step.dest] = op(operand(step.left), operand(step.right))
        return regs[obj.output_register]

    if isinstance(obj, AlgebraicBranchingProgram):
        built: dict[LinearForm, T] = {}
        incoming: dict[int, list[tuple[int, LinearForm]]] = {}
        for u, v, label in obj.edges:
            incoming.setdefault(v, []).append((u, label))
            if label not in built:
                acc = const(label.constant)
                for index, coeff in label.coefficients.items():
                    acc = add(acc, mul(const(coeff), var(index)))
                built[label] = acc
        values = {obj.source: const(obj.ring.one())}
        for layer in obj.layers[1:]:
            for v in layer:
                terms = [
                    mul(values[u], built[label])
                    for u, label in incoming.get(v, ())
                    if u in values
                ]
                if terms:
                    values[v] = reduce(add, terms)
        if obj.sink in values:
            return values[obj.sink]
        return const(obj.ring.zero())

    raise ParamError(f"cannot interpret {type(obj).__name__}")


def _checked(obj: IRForm) -> IRForm:
    """obj, validated first if it is a circuit (a built one carries its report)."""
    if isinstance(obj, LayeredCircuit):
        validate(obj)
    return obj


def evaluate(obj: IRForm, assignment: Sequence[ScalarLike]) -> Scalar:
    """Evaluate any IR form at a point, exactly."""
    _checked(obj)
    if len(assignment) != obj.num_variables:
        raise ArityMismatch(
            f"expected {obj.num_variables} scalars, got {len(assignment)}"
        )
    # Index 0 is padding, so xi reads point[i] through a C-level getter.
    point = [None] + [obj.ring.scalar(v) for v in assignment]
    return fold(obj, point.__getitem__, lambda c: c, operator.add, operator.mul)


# Residues below 2^31 keep every product below 2^62, inside int64.
BATCH_MODULUS_LIMIT = 1 << 31


def batch_dtype(ring: Ring) -> np.dtype:
    """evaluate_batch's dtype: int64 over F_p, p < 2^31, else object."""
    small = 0 < ring.characteristic < BATCH_MODULUS_LIMIT
    return np.dtype(np.int64 if small else object)


def evaluate_batch(obj: IRForm, columns: np.ndarray) -> np.ndarray:
    """Evaluate any IR form at many points at once, exactly.

    columns has shape (num_variables, points): row i-1 holds x_i's raw
    value (an int, or over Q a Fraction) at every point.  Returns the
    raw output values in batch_dtype(obj.ring), one per point even when
    the output is constant: residues over F_p, exact numbers over Q.
    """
    _checked(obj)
    cols = np.asarray(columns, dtype=batch_dtype(obj.ring))
    if cols.ndim != 2 or cols.shape[0] != obj.num_variables:
        raise ArityMismatch(
            f"expected {obj.num_variables} columns, got shape {cols.shape}"
        )
    add, mul = obj.ring.add, obj.ring.mul
    # add(cols, 0) puts every input in canonical form.  Index 0 is
    # padding, so xi reads rows[i] through a C-level getter.
    rows = [None, *add(cols, 0)]
    out = fold(obj, rows.__getitem__, lambda c: c.value, add, mul)
    return np.broadcast_to(np.asarray(out, dtype=cols.dtype), cols.shape[1:]).copy()


def expand(obj: IRForm, caps: ExpansionCaps = DEFAULT_CAPS) -> SparsePolynomial:
    """The exact sparse polynomial computed by any IR form.

    Raises TermCapExceeded or DegreeCapExceeded rather than truncating.
    """
    alg = term_algebra(obj.ring, obj.mode, obj.num_variables, caps)
    return alg.wrap(fold(_checked(obj), alg.var, alg.const, alg.add, alg.mul))


def syntactic_degree(obj: IRForm) -> int:
    """Upper bound on the output degree: leaves 1/0, add max, mul sum.

    A circuit's is the degree its ValidationReport carries; a program or
    an ABP is folded.
    """
    if isinstance(obj, LayeredCircuit):
        return validate(obj).degree
    return fold(obj, lambda i: 1, lambda c: 0, max, operator.add)


# ---------------------------------------------------------------------------
# SLP <-> staggered circuit conversion


def slp_to_circuit(slp: StraightLineProgram, name: str | None = None) -> LayeredCircuit:
    """Staggered layered circuit equivalent to the program.

    Loads bind registers straight to leaves (readable from every layer),
    so only apply steps create layers: one real gate, then a copy gate
    for every other register whose value is not a leaf and is still read
    later, in ascending register order.  An unwritten register reads the
    0-leaf, made at the first such read.  The resulting width is at most
    the register count.  One walk backward over the steps finds, for
    each, the registers it reads for the last time and whether its value
    is read later; a write ends a register's life, and a dead step still
    makes its gate.

    One walk forward fills the gate table and the layers itself, with
    the ids, layer order and copies CircuitBuilder would give the same
    calls: a leaf is made at its first read, a mul step reading the
    1-leaf is a copy of its other operand, and the 1-leaf is made at the
    first copy if no step read it before.  No builder method is called
    per step.

    The circuit carries the ValidationReport its program implies, derived
    in the same loop, so validate() returns it without walking the
    circuit.  The program's constructor has checked every operand, and
    each apply step makes one gate, real or a copy, in a layer of its
    own: the circuit is staggered.  It is monotone over the rationals
    when no constant leaf is negative, and homogeneous unless some apply
    step, live or dead, adds operands of two degrees: every step makes a
    gate, and validate's degree fold reads every gate.
    """
    ring = slp.ring

    # plan: per step, the registers it reads for the last time, and
    # whether a later step, or the output, reads what it writes.
    live = {slp.output_register}
    plan: list[tuple[set[int], bool]] = []
    for step in reversed(slp.steps):
        operands = (step.left, step.right) if isinstance(step, ApplyStep) else ()
        reads = {op.register for op in operands if isinstance(op, RegOperand)}
        keep = step.dest in live
        live.discard(step.dest)
        plan.append((reads - live, keep))
        live |= reads
    plan.reverse()

    # The gate table and layers, ids counted from 1.  var_ids and
    # const_ids map a variable index and a raw constant to its leaf, and
    # one is the 1-leaf once made.
    explicit: dict[int, Gate] = {}
    copies: dict[int, int] = {}
    leaves: list[int] = []
    layers = [leaves]
    var_ids: dict[int, int] = {}
    const_ids: dict = {}
    one: int | None = None
    one_value = ring.one().value
    next_id = 1

    def const_leaf(value: Scalar) -> int:
        nonlocal next_id, one
        gid = const_ids.get(value.value)
        if gid is None:
            gid = const_ids[value.value] = next_id
            next_id += 1
            explicit[gid] = ConstLeaf(value)
            leaves.append(gid)
            if value.value == one_value:
                one = gid
        return gid

    # held: register -> gate of its value, while that value is not a
    # leaf and is still read later; leaf: register -> its leaf gate;
    # degree: register -> syntactic degree of its value (the 0-leaf's 0
    # while unwritten).
    held: dict[int, int] = {}
    leaf: dict[int, int] = {}
    degree = [0] * slp.register_count
    mixed = False

    def read(op: Operand) -> tuple[int, int]:
        """The gate an operand reads, and its syntactic degree."""
        nonlocal next_id
        if isinstance(op, RegOperand):
            reg = op.register
            gid = held.get(reg)
            if gid is None:
                gid = leaf.get(reg)
                if gid is None:
                    gid = const_leaf(ring.zero())
            return gid, degree[reg]
        if isinstance(op, VarOperand):
            gid = var_ids.get(op.index)
            if gid is None:
                gid = var_ids[op.index] = next_id
                next_id += 1
                explicit[gid] = VarLeaf(op.index)
                leaves.append(gid)
            return gid, 1
        return const_leaf(op.value), 0

    for step, (ends, keep) in zip(slp.steps, plan):
        if isinstance(step, LoadStep):
            leaf[step.dest], degree[step.dest] = read(step.source)
            continue
        (left, d_left), (right, d_right) = read(step.left), read(step.right)
        op = step.op
        if op == ADD:
            mixed = mixed or d_left != d_right
            degree[step.dest] = max(d_left, d_right)
        else:
            degree[step.dest] = d_left + d_right
        gid = next_id
        next_id += 1
        if op == MUL and one is not None and (left == one or right == one):
            copies[gid] = right if left == one else left
        else:
            explicit[gid] = BinGate(op, left, right)
        ids = [gid]
        layers.append(ids)
        for reg in ends:
            held.pop(reg, None)
        if held:
            if one is None:
                const_leaf(ring.one())
            for reg in sorted(held):
                copies[next_id] = held[reg]
                held[reg] = next_id
                ids.append(next_id)
                next_id += 1
        if keep:
            held[step.dest] = gid

    output = read(RegOperand(slp.output_register))[0]
    table = _GateTable(explicit, copies, one)
    circuit = LayeredCircuit(
        name or slp.name, ring, slp.mode, slp.num_variables, layers, table, output
    )
    report = ValidationReport(
        width=circuit.width,
        size=circuit.size,
        layer_count=circuit.layer_count,
        staggered=True,
        monotone=ring.characteristic == 0 and all(v >= 0 for v in const_ids),
        homogeneous=not mixed,
        degree=degree[slp.output_register],
    )
    object.__setattr__(circuit, "_report", report)
    return circuit


def _read_gate_lines(
    name: str,
    ring: Ring,
    mode: str,
    num_variables: int,
    lines: Sequence[tuple],
    output_id: int,
) -> LayeredCircuit:
    """The circuit of a file's gate lines, carrying the report validate() computes.

    lines holds one (gid, layer, kind, a, b) per gate line, in file
    order, with distinct ids: kind "var" with a the variable index,
    "const" with a a Scalar of ring, or "add"/"mul" with a and b the
    operand ids.  The gate table and layers are those LayeredCircuit
    makes of the same gates.

    One pass in file order builds the explicit and copy tables and the
    report: the layer and syntactic degree of each gate (a copy takes
    its source's degree and is no real gate), the explicit BinGates of
    each internal layer, and the constants.  It stores no report when a
    gate reads one not defined on an earlier line, or one outside layer
    1 and its own layer - 1, when a line goes back to a lower layer
    than an earlier one, when a variable index is out of range, or when
    the output is not a gate; validate() then walks the circuit as for
    any other, and raises its typed error.
    """
    one = ring.one()
    explicit: dict[int, Gate] = {}
    copies: dict[int, int] = {}
    ones: set[int] = set()
    layer_of: dict[int, int] = {}
    degree: dict[int, int] = {}
    layers: list[list[int]] = [[]]
    ids = layers[0]
    top = below = 1  # the layer of the last line, and the one under it
    real = 0  # explicit BinGates in layer top
    staggered = True
    monotone = ring.characteristic == 0
    mixed = False
    for gid, layer, kind, a, b in lines:
        if layer != top:
            if layer < top:
                break
            if real > 1:
                staggered = False
            real = 0
            layers.extend([] for _ in range(layer - top))
            ids, top, below = layers[-1], layer, layer - 1
        if layer == 1:
            if kind == "var":
                if not 1 <= a <= num_variables:
                    break
                explicit[gid] = VarLeaf(a)
                degree[gid] = 1
            else:
                explicit[gid] = ConstLeaf(a)
                degree[gid] = 0
                if a == one:
                    ones.add(gid)
                elif a.value < 0:
                    monotone = False
        else:
            a_layer, b_layer = layer_of.get(a), layer_of.get(b)
            if a_layer != 1 and a_layer != below or b_layer != 1 and b_layer != below:
                break
            if kind == MUL and (a in ones or b in ones):
                source = b if a in ones else a
                copies[gid] = source
                degree[gid] = degree[source]
            else:
                explicit[gid] = BinGate(kind, a, b)
                real += 1
                d_a, d_b = degree[a], degree[b]
                if kind == MUL:
                    degree[gid] = d_a + d_b
                elif d_a == d_b:
                    degree[gid] = d_a
                else:
                    mixed = True
                    degree[gid] = d_a if d_a > d_b else d_b
        layer_of[gid] = layer
        ids.append(gid)
    else:
        if output_id in layer_of:
            table = _GateTable(explicit, copies, min(ones) if ones else None)
            circuit = LayeredCircuit(name, ring, mode, num_variables, layers, table, output_id)
            report = ValidationReport(
                width=circuit.width,
                size=circuit.size,
                layer_count=circuit.layer_count,
                staggered=staggered and real <= 1,
                monotone=monotone,
                homogeneous=not mixed,
                degree=degree[output_id],
            )
            object.__setattr__(circuit, "_report", report)
            return circuit

    gates: dict[int, Gate] = {}
    layers = [[]]
    for gid, layer, kind, a, b in lines:
        gates[gid] = (
            BinGate(kind, a, b) if layer > 1 else VarLeaf(a) if kind == "var" else ConstLeaf(a)
        )
        if layer > len(layers):
            layers.extend([] for _ in range(layer - len(layers)))
        layers[layer - 1].append(gid)
    return LayeredCircuit(name, ring, mode, num_variables, layers, gates, output_id)


def leaf_operand(circuit: LayeredCircuit, gid: int) -> Union[VarOperand, ConstOperand]:
    """The immediate operand for leaf gate gid."""
    g = circuit.gates[gid]
    if isinstance(g, VarLeaf):
        return VarOperand(g.index)
    if isinstance(g, ConstLeaf):
        return ConstOperand(g.value)
    raise ParamError(f"gate {gid} is not a leaf")


def circuit_to_slp(circuit: LayeredCircuit, name: str | None = None) -> StraightLineProgram:
    """Register program for a staggered circuit.

    A copy of a gate holds its source's value and costs nothing; each
    layer lists one apply step for its real gate and one for each copy
    of a leaf, and _allocate emits those the output reads and picks the
    registers.  The register count is at most the circuit width (or 1
    for a circuit whose output is a leaf).
    """
    report = validate(circuit)
    if not report.staggered:
        raise ParamError("circuit is not staggered")
    sb = SlpBuilder(circuit.ring, circuit.mode, circuit.num_variables, name=name or circuit.name)

    table = circuit.gates
    gates, copy_source = table.explicit, table.copies.get
    leaves = set(circuit.layers[0])
    alias: dict[int, int] = {}  # copy of a gate -> the gate whose value it holds

    def operand(ref: int) -> Union[int, VarOperand, ConstOperand]:
        return leaf_operand(circuit, ref) if ref in leaves else alias.get(ref, ref)

    steps: list[tuple] = []
    for layer in circuit.layers[1:]:
        # The real gate, then the copies of leaves: each needs a register.
        leaf_copies: list[tuple] = []
        for gid in layer:
            source = copy_source(gid)
            if source is None:
                g = gates[gid]
                steps.append((gid, g.op, operand(g.left), operand(g.right)))
            elif source in leaves:
                leaf_copies.append((gid, MUL, operand(source), operand(table.one)))
            else:
                alias[gid] = alias.get(source, source)
        steps += leaf_copies
    return _allocate(sb, steps, operand(circuit.output_id), max(report.width, 1))


def _allocate(
    sb: SlpBuilder,
    steps: Sequence[tuple],
    output: Union[int, VarOperand, ConstOperand],
    budget: int,
) -> StraightLineProgram:
    """sb's program for the steps (value, op, left, right) the output reads.

    A value is named by the gate id that defines it, and an operand, or
    the output, is a value or a leaf operand.  Only the output's cone is
    emitted, in the given order.  One walk backward keeps a step when its
    value is the output or a step that stays reads it, and notes the
    reads no later kept step makes: its last reads.  Walking forward,
    each value is freed at its last read and each result goes to the
    smallest free register, so a step may overwrite a register one of
    its own operands is read from for the last time.  For a fixed step
    order that is the fewest registers possible (interval colouring).  A
    leaf output is loaded into register 0 and is then the only step.
    Raises InvariantViolation when more than budget registers are needed.
    """
    # Each value is defined by one step, so the reads of a kept step that
    # are not needed yet are its last reads.
    needed = {output}
    live: list[tuple[tuple, set]] = []
    for step in reversed(steps):
        if step[0] in needed:
            reads = {ref for ref in step[2:] if isinstance(ref, int)}
            live.append((step, reads - needed))
            needed |= reads
    live.reverse()
    register_of: dict[int, int] = {}
    free: list[int] = []  # a heap: the smallest goes first
    count = 0
    for (value, op, left, right), ends in live:
        operands = [
            sb.reg(register_of[ref]) if isinstance(ref, int) else ref for ref in (left, right)
        ]
        for ref in ends:
            heapq.heappush(free, register_of.pop(ref))
        if free:
            dest = heapq.heappop(free)
        else:
            dest = count
            count += 1
        sb.apply(dest, op, *operands)
        register_of[value] = dest
    if count > budget:
        raise InvariantViolation(f"{count} registers needed, {budget} allowed; scheduling bug")
    sb.register_count = max(count, 1)
    if isinstance(output, int):
        return sb.finish(register_of[output])
    sb.load(0, output)
    return sb.finish(0)
