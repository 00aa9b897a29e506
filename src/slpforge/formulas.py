"""Unbounded-fanin formula trees, the transient input of depth_to_width.

A formula is a tree: leaves are variables or constants, internal nodes
are add/mul with any number of children.  The leaves are the circuits
module's VarLeaf and ConstLeaf, the objects a circuit's leaf gates and
a program's operands are.  Sharing a node between two parents makes the
input a DAG, which depth_to_width must reject, so validation walks the
tree by object identity.

Depth counts gate levels only: a bare leaf has depth 0, a sum of
products of leaves has depth 2.
"""

from __future__ import annotations

from typing import Sequence, Union

from .circuits import ConstLeaf, VarLeaf
from .errors import NotATree, ParamError, RingMismatch
from .polynomials import _check_mode, _check_num_variables
from .rings import Ring, ScalarLike

FVar = VarLeaf  # the leaf classes under their formula leaf names
FConst = ConstLeaf


class FOp:
    """Internal node; children keep their order (meaningful when noncommutative)."""

    __slots__ = ("op", "children")

    def __init__(self, op: str, children: Sequence["FormulaNode"]):
        if op not in ("add", "mul"):
            raise ParamError(f"op must be add or mul, got {op!r}")
        if not children:
            raise ParamError("formula gate needs at least one child")
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "children", tuple(children))

    def __setattr__(self, key, value):
        raise AttributeError("FOp is immutable")


FormulaNode = Union[VarLeaf, ConstLeaf, FOp]


class Formula:
    """A formula tree together with its ring, mode, and variable count."""

    __slots__ = ("ring", "mode", "num_variables", "root")

    def __init__(self, ring: Ring, mode: str, num_variables: int, root: FormulaNode):
        _check_mode(mode)
        _check_num_variables(num_variables)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "num_variables", num_variables)
        object.__setattr__(self, "root", root)
        self._check_tree()

    def __setattr__(self, key, value):
        raise AttributeError("Formula is immutable")

    def _check_tree(self) -> None:
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if isinstance(node, FOp):
                if id(node) in seen:
                    raise NotATree("formula shares a subnode between two parents")
                seen.add(id(node))
                stack.extend(node.children)
            elif isinstance(node, VarLeaf):
                if not 1 <= node.index <= self.num_variables:
                    raise ParamError(
                        f"x{node.index} beyond vars {self.num_variables}"
                    )
            elif isinstance(node, ConstLeaf):
                if node.value.ring != self.ring:
                    raise RingMismatch("formula constant from a different ring")
            else:
                raise ParamError(f"bad formula node {node!r}")

    @property
    def depth(self) -> int:
        def walk(node: FormulaNode) -> int:
            if isinstance(node, FOp):
                return 1 + max(walk(child) for child in node.children)
            return 0

        return walk(self.root)

    @property
    def size(self) -> int:
        def walk(node: FormulaNode) -> int:
            if isinstance(node, FOp):
                return 1 + sum(walk(child) for child in node.children)
            return 1

        return walk(self.root)


def substitute_leaves(
    formula: Formula,
    mapping: dict[int, FormulaNode],
    num_variables: int,
) -> Formula:
    """Replace variables by leaf nodes, renumbering to num_variables.

    Every mapping value must itself be a leaf (variable or constant);
    unmapped variables pass through.  Gates are rebuilt fresh, so the
    result is a tree even when one leaf value is reused.
    """
    for value in mapping.values():
        if not isinstance(value, (VarLeaf, ConstLeaf)):
            raise ParamError("substitution values must be leaves")

    def walk(node: FormulaNode) -> FormulaNode:
        if isinstance(node, FOp):
            return FOp(node.op, [walk(child) for child in node.children])
        if isinstance(node, VarLeaf):
            return mapping.get(node.index, node)
        return node

    return Formula(formula.ring, formula.mode, num_variables, walk(formula.root))


def fvar(index: int) -> VarLeaf:
    return VarLeaf(index)


def fconst(ring: Ring, value: ScalarLike) -> ConstLeaf:
    return ConstLeaf(ring.scalar(value))


def fadd(*children: FormulaNode) -> FOp:
    return FOp("add", children)


def fmul(*children: FormulaNode) -> FOp:
    return FOp("mul", children)
