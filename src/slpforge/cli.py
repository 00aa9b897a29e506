"""Command-line surface: one subcommand per library operation.

Every run prints a final machine-parseable line ``RESULT key=value ...``
on stdout; informational lines, when any, come before it.  Exit status
is 0 on success (including a "nonzero" or "reject" verdict, which is a
successful test run), 1 on operation errors, and 2 on usage errors.
Messages for both error classes go to stderr.

Output files use the text formats of the textio module and always
re-parse.  The env var SLPFORGE_CAPS overrides expansion caps and the
grid budget, e.g. ``SLPFORGE_CAPS=max_degree=32,max_terms=4096``.

Randomized subcommands take ``--seed``; the seed fully determines the
run (a counter-based generator is derived from it per trial), so equal
argv plus equal seed reproduces the RESULT line byte for byte.
"""

from __future__ import annotations

import argparse
import ast
import functools
import os
import re
import sys
from dataclasses import dataclass
from typing import Sequence

from .circuits import (
    AlgebraicBranchingProgram,
    ConstLeaf,
    LayeredCircuit,
    StraightLineProgram,
    VarLeaf,
    circuit_to_slp,
    evaluate,
    expand,
    slp_to_circuit,
    validate,
)
from .errors import ParamError, SlpforgeError
from .families import (
    BenOrParams,
    FamilyParams,
    build_E_abp,
    build_E_width2,
    build_P,
    build_palindrome,
    build_permanent_sparse,
    project_to_formula,
)
from .formulas import FOp, Formula, FormulaNode, substitute_leaves
from .monotone import coverage, mon_set, mon_var_graph
from .pit import (
    _GRID_BUDGET,
    HARD_FAMILIES,
    nw_pit,
    schwartz_zippel,
    verify_permanent_circuit,
)
from .polynomials import COMMUTATIVE, DEFAULT_CAPS, ExpansionCaps, MODES, SparsePolynomial
from .rings import DEFAULT_PRIME, PrimeField, RATIONALS, Ring
from .rootfind import RootProblem, root_circuit
from .stagger import staggerize
from .textio import (
    parse_circuit,
    parse_polynomial,
    serialize_circuit,
    serialize_polynomial,
)
from .transforms import (
    depth_to_width,
    homogeneous_components,
    homogeneous_prefix,
    partial_derivative_y,
    sparse_to_width2,
)

__all__ = ["main"]


# ---------------------------------------------------------------------------
# Run configuration


@dataclass(frozen=True)
class _Caps:
    expansion: ExpansionCaps
    grid_budget: int


_CAP_KEYS = ("max_degree", "max_terms", "grid_budget")


def _caps_from_env(env: str | None) -> _Caps:
    values = {
        "max_degree": DEFAULT_CAPS.max_degree,
        "max_terms": DEFAULT_CAPS.max_terms,
        "grid_budget": _GRID_BUDGET,
    }
    if env:
        for item in env.split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, raw = item.partition("=")
            if not eq or key not in _CAP_KEYS:
                raise ParamError(
                    f"SLPFORGE_CAPS entries are key=value with keys {_CAP_KEYS}, got {item!r}"
                )
            try:
                number = int(raw)
            except ValueError:
                raise ParamError(f"SLPFORGE_CAPS value {raw!r} is not an integer")
            if number < 1:
                raise ParamError(f"SLPFORGE_CAPS value for {key} must be positive")
            values[key] = number
    return _Caps(
        ExpansionCaps(max_degree=values["max_degree"], max_terms=values["max_terms"]),
        values["grid_budget"],
    )


def _ring_from_name(text: str) -> Ring:
    if text == "rational":
        return RATIONALS
    if text == "prime":
        return PrimeField(DEFAULT_PRIME)
    if text.startswith("prime:"):
        try:
            p = int(text[len("prime:"):])
        except ValueError:
            raise ParamError(f"bad prime modulus in {text!r}")
        return PrimeField(p)
    raise ParamError(f"ring must be rational, prime, or prime:<p>, got {text!r}")


def _need(args: argparse.Namespace, names: Sequence[str]) -> None:
    missing = [n for n in names if getattr(args, n.replace("-", "_")) is None]
    if missing:
        flags = ", ".join(f"--{n}" for n in missing)
        raise _UsageError(f"family {args.name!r} requires {flags}")


class _UsageError(Exception):
    """Bad option combination that argparse's grammar cannot express."""


# ---------------------------------------------------------------------------
# Small shared helpers


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write(path: str | None, obj, name: str = "p") -> None:
    """Write obj to path in its text format; without a path nothing is built.

    A polynomial is written under name, a program as its staggered circuit.
    """
    if path is None:
        return
    if isinstance(obj, SparsePolynomial):
        text = serialize_polynomial(obj, name)
    else:
        if isinstance(obj, StraightLineProgram):
            obj = slp_to_circuit(obj)
        text = serialize_circuit(obj)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _write_program(path: str | None, prog: StraightLineProgram) -> dict[str, object]:
    """Write the program to path; its RESULT register and step counts."""
    _write(path, prog)
    return {"registers": prog.register_count, "steps": prog.step_count}


def _load(path: str) -> LayeredCircuit | AlgebraicBranchingProgram:
    """Parse a circuit or branching-program file; a layered circuit is validated."""
    obj = parse_circuit(_read(path))
    if isinstance(obj, LayeredCircuit):
        validate(obj)
    return obj


def _load_circuit(path: str) -> LayeredCircuit:
    obj = _load(path)
    if not isinstance(obj, LayeredCircuit):
        raise ParamError(f"{path} holds a branching program, expected a circuit")
    return obj


def _load_program(path: str) -> StraightLineProgram:
    """Circuit file as a register program; staggers first when needed.

    circuit_to_slp reads a staggered file three to four times faster
    than staggerize schedules it, unless the output lies far below the
    last layer: staggerize stops at the output's layer.
    """
    c = _load_circuit(path)
    if validate(c).staggered:
        return circuit_to_slp(c)
    return staggerize(c)


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if hasattr(value, "text"):
        return value.text()
    return str(value)


def _print_result(pairs: dict[str, object]) -> None:
    print("RESULT " + " ".join(f"{k}={_fmt(v)}" for k, v in pairs.items()))


def _witness_text(witness) -> str:
    return ",".join(scalar.text() for scalar in witness)


# ---------------------------------------------------------------------------
# Inline formula expressions

_VAR_RE = re.compile(r"x([1-9][0-9]*)\Z")


def _formula_from_expression(
    text: str, ring: Ring, mode: str, num_variables: int
) -> Formula:
    """Parse +, -, *, ** and integer literals over variables x1, x2, ...

    Subtraction and negation become multiplication by -1; a ** with a
    literal exponent unrolls into repeated multiplication; division is
    allowed between constants only (exact fractions).
    """
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ParamError(f"bad expression: {exc.msg}") from None

    def copy_node(node: FormulaNode) -> FormulaNode:
        # Leaves are immutable and shareable; gates must stay a tree.
        if isinstance(node, FOp):
            return FOp(node.op, [copy_node(child) for child in node.children])
        return node

    def conv(node: ast.expr) -> FormulaNode:
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mult)):
            kind = type(node.op)
            op = "add" if kind is ast.Add else "mul"
            children: list[FormulaNode] = []

            def flatten(n: ast.expr) -> None:
                if isinstance(n, ast.BinOp) and isinstance(n.op, kind):
                    flatten(n.left)
                    flatten(n.right)
                else:
                    children.append(conv(n))

            flatten(node.left)
            flatten(node.right)
            return FOp(op, children)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub):
            negated = FOp("mul", [ConstLeaf(ring.scalar(-1)), conv(node.right)])
            return FOp("add", [conv(node.left), negated])
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent = node.right
            if not (
                isinstance(exponent, ast.Constant)
                and isinstance(exponent.value, int)
                and not isinstance(exponent.value, bool)
            ):
                raise ParamError("exponents must be integer literals")
            e = exponent.value
            if e < 0:
                raise ParamError(f"negative exponent {e}")
            if e == 0:
                return ConstLeaf(ring.one())
            base = conv(node.left)
            if e == 1:
                return base
            return FOp("mul", [base] + [copy_node(base) for _ in range(e - 1)])
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
            left, right = conv(node.left), conv(node.right)
            if isinstance(left, ConstLeaf) and isinstance(right, ConstLeaf):
                return ConstLeaf(left.value / right.value)
            raise ParamError("division is allowed between constants only")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            inner = conv(node.operand)
            if isinstance(inner, ConstLeaf):
                return ConstLeaf(ring.scalar(-1) * inner.value)
            return FOp("mul", [ConstLeaf(ring.scalar(-1)), inner])
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.UAdd):
            return conv(node.operand)
        if isinstance(node, ast.Name):
            match = _VAR_RE.match(node.id)
            if not match:
                raise ParamError(f"unknown name {node.id!r}; variables are x1, x2, ...")
            return VarLeaf(int(match.group(1)))
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int) and not isinstance(node.value, bool):
                return ConstLeaf(ring.scalar(node.value))
            raise ParamError(f"unsupported literal {node.value!r}")
        raise ParamError(f"unsupported expression element {type(node).__name__}")

    return Formula(ring, mode, num_variables, conv(tree.body))


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the RESULT key/value pairs)


def _cmd_family(args: argparse.Namespace, caps: _Caps) -> dict[str, object]:
    ring = _ring_from_name(args.ring)

    if args.name == "P":
        _need(args, ["l", "k"])
        params = FamilyParams(args.l, args.k)
        c = build_P(params, "circuit", ring)
        if args.form == "circuit":
            _write(args.output, c)
            return {"width": validate(c).width, "terms": params.monomial_count}
        poly = expand(c, caps.expansion)
        _write(args.output, poly, c.name)
        return {"terms": len(poly.terms), "degree": params.degree}

    if args.name == "palindrome":
        _need(args, ["n"])
        c = build_palindrome(args.n, ring)
        _write(args.output, c)
        return {"width": validate(c).width, "size": c.size, "words": 2 ** args.n}

    if args.name == "E-abp":
        _need(args, ["n"])
        abp = build_E_abp(args.n, ring)
        _write(args.output, abp)
        return {"vertices": abp.size, "edges": len(abp.edges)}

    if args.name == "E-width2":
        _need(args, ["n"])
        return _write_program(args.output, build_E_width2(BenOrParams(args.n), ring))

    _need(args, ["k"])
    poly = build_permanent_sparse(args.k, ring, caps.expansion)
    _write(args.output, poly, f"perm_{args.k}")
    return {"terms": len(poly.terms), "degree": args.k}


def _cmd_stagger(args: argparse.Namespace, caps: _Caps) -> dict[str, object]:
    prog = _load_program(args.input)
    out = slp_to_circuit(prog)
    _write(args.output, out)
    return {
        "registers": prog.register_count,
        "steps": prog.step_count,
        "size": out.size,
    }


def _cmd_depth2width(args: argparse.Namespace, caps: _Caps) -> dict[str, object]:
    ring = _ring_from_name(args.ring)
    formula = _formula_from_expression(args.expr, ring, args.mode, args.vars)
    c = depth_to_width(formula, name="expr")
    _write(args.output, c)
    return {"width": validate(c).width, "size": c.size, "depth": formula.depth}


def _cmd_homog(args: argparse.Namespace, caps: _Caps) -> dict[str, object]:
    prog = _load_program(args.input)
    if args.index is not None:
        if not 0 <= args.index <= args.degree:
            raise ParamError(f"--index {args.index} outside 0..{args.degree}")
        out = homogeneous_components(prog, args.degree)[args.index]
        keys: dict[str, object] = {"degree": args.degree, "index": args.index}
    else:
        out = homogeneous_prefix(prog, args.degree)
        keys = {"degree": args.degree}
    return {**keys, **_write_program(args.output, out)}


def _cmd_deriv(args: argparse.Namespace, caps: _Caps) -> dict[str, object]:
    prog = _load_program(args.input)
    out = partial_derivative_y(prog, args.j, args.r, caps.expansion)
    return {"j": args.j, "r": args.r, **_write_program(args.output, out)}


def _cmd_compile_sparse(args: argparse.Namespace, caps: _Caps) -> dict[str, object]:
    name, poly = parse_polynomial(_read(args.input))
    prog = sparse_to_width2(poly, name=name)
    return {**_write_program(args.output, prog), "terms": len(poly.terms)}


def _cmd_root(args: argparse.Namespace, caps: _Caps) -> dict[str, object]:
    prog = _load_program(args.input)
    y0 = prog.ring.parse(args.y0)
    problem = RootProblem(prog, args.r, args.m, y0, caps.expansion)
    out = root_circuit(problem)
    return {"m": args.m, "r": args.r, **_write_program(args.output, out)}


def _cmd_expand(args: argparse.Namespace, caps: _Caps) -> dict[str, object]:
    obj = _load(args.input)
    poly = expand(obj, caps.expansion)
    _write(args.output, poly, obj.name)
    return {"terms": len(poly.terms), "degree": poly.degree()}


def _cmd_eval(args: argparse.Namespace, caps: _Caps) -> dict[str, object]:
    obj = _load(args.input)
    tokens = [t for t in args.point.split(",") if t.strip()]
    point = [obj.ring.parse(t.strip()) for t in tokens]
    value = evaluate(obj, point)
    return {"value": value}


def _cmd_mon(args: argparse.Namespace, caps: _Caps) -> dict[str, object]:
    c = _load_circuit(args.circuit)
    support = mon_set(c, caps.expansion)
    graph = mon_var_graph(support)
    for index, component in enumerate(graph.components, start=1):
        print(
            f"component {index}: variables={len(component.variables)} "
            f"monomials={len(component.monomials)}"
        )
    keys: dict[str, object] = {
        "monomials": len(support),
        "degree": support.origin_degree_bound,
        "components": len(graph.components),
    }
    if args.family is not None:
        _need(args, ["l", "k"])
        report = coverage(c, FamilyParams(args.l, args.k), caps.expansion)
        keys["contained"] = report.contained
        keys["fraction"] = report.fraction
    return keys


def _cmd_project(args: argparse.Namespace, caps: _Caps) -> dict[str, object]:
    ring = _ring_from_name(args.ring)
    target = _formula_from_expression(args.expr, ring, COMMUTATIVE, args.vars)
    params = FamilyParams(args.l, args.k)
    mapping = project_to_formula(target, params)
    for index in sorted(mapping):
        leaf = mapping[index]
        image = f"x{leaf.index}" if isinstance(leaf, VarLeaf) else leaf.value.text()
        print(f"subst x{index} = {image}")
    keys: dict[str, object] = {"entries": len(mapping)}
    if args.output is not None:
        family = build_P(params, "formula", ring)
        image_formula = substitute_leaves(family, mapping, target.num_variables)
        c = depth_to_width(image_formula, name="projected")
        _write(args.output, c)
        keys["width"] = validate(c).width
    return keys


def _cmd_pit(args: argparse.Namespace, caps: _Caps) -> dict[str, object]:
    c = _load_circuit(args.circuit)
    if args.mode == "sz":
        verdict = schwartz_zippel(
            c, trials=args.trials, seed=args.seed, sample_size=args.sample_size
        )
    else:
        verdict = nw_pit(
            c,
            HARD_FAMILIES[args.hard_family],
            args.m,
            sample_size=args.sample_size,
            grid_budget=caps.grid_budget,
        )
    keys: dict[str, object] = {"verdict": verdict.status}
    if verdict.witness is not None:
        keys["witness"] = _witness_text(verdict.witness)
    return keys


def _cmd_verify_perm(args: argparse.Namespace, caps: _Caps) -> dict[str, object]:
    c = _load_circuit(args.circuit)
    if args.n is not None and args.n * args.n != c.num_variables:
        raise ParamError(
            f"--n {args.n} means {args.n * args.n} variables, file has {c.num_variables}"
        )
    backend = "schwartz_zippel" if args.mode == "sz" else "nw_pit"
    verdict = verify_permanent_circuit(
        c,
        backend=backend,
        seed=args.seed,
        trials=args.trials,
        m=args.m,
        sample_size=args.sample_size,
        grid_budget=caps.grid_budget,
    )
    keys: dict[str, object] = {"verdict": verdict.status}
    if verdict.failing_index is not None:
        keys["k"] = verdict.failing_index
    if verdict.witness is not None:
        keys["witness"] = _witness_text(verdict.witness)
    return keys


# ---------------------------------------------------------------------------
# Parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="slpforge",
        description="Bounded-width arithmetic circuits: build, transform, analyze, test.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def ring_opt(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--ring",
            default="rational",
            help="rational (default), prime (2^61-1), or prime:<p>",
        )

    p = sub.add_parser("family", help="build a named family instance")
    p.add_argument(
        "--name",
        required=True,
        choices=["P", "palindrome", "E-abp", "E-width2", "perm"],
    )
    p.add_argument("--l", type=int, help="block fan-in (family P)")
    p.add_argument("--k", type=int, help="recursion depth (P) or matrix order (perm)")
    p.add_argument("--n", type=int, help="word half-length (palindrome, E-*)")
    p.add_argument(
        "--form",
        choices=["circuit", "formula"],
        default="circuit",
        help="P only: circuit file, or expanded polynomial file",
    )
    ring_opt(p)
    p.add_argument("-o", "--output", help="write the instance to this file")
    p.set_defaults(handler=_cmd_family)

    p = sub.add_parser("stagger", help="one non-copy gate per layer")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_stagger)

    p = sub.add_parser("depth2width", help="compile a formula expression to a circuit")
    p.add_argument("--expr", required=True, help="e.g. '(x1+x2)*(x3+2)'")
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--mode", choices=sorted(MODES), default=COMMUTATIVE)
    ring_opt(p)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_depth2width)

    p = sub.add_parser("homog", help="homogeneous component or prefix")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--degree", type=int, required=True, help="total degree bound m")
    p.add_argument("--index", type=int, help="extract H_index; omit for H_0+..+H_m")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_homog)

    p = sub.add_parser("deriv", help="derivative in the last variable")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--j", type=int, required=True, help="derivative order")
    p.add_argument("--r", type=int, required=True, help="degree bound in the last variable")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_deriv)

    p = sub.add_parser("compile-sparse", help="polynomial file to a two-register program")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_compile_sparse)

    p = sub.add_parser("root", help="power-series root of the last variable")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--y0", required=True, help="root of P(0,y), e.g. 2 or -1/3")
    p.add_argument("--m", type=int, required=True, help="truncation degree")
    p.add_argument("--r", type=int, required=True, help="degree bound in the last variable")
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_root)

    p = sub.add_parser("expand", help="exact sparse polynomial of a circuit or ABP")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(handler=_cmd_expand)

    p = sub.add_parser("eval", help="evaluate at a point")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--point", required=True, help="comma-separated scalars")
    p.set_defaults(handler=_cmd_eval)

    p = sub.add_parser("mon", help="monomial support and variable-graph components")
    p.add_argument("--circuit", required=True)
    p.add_argument("--family", choices=["P"], help="also test containment in a family")
    p.add_argument("--l", type=int)
    p.add_argument("--k", type=int)
    p.set_defaults(handler=_cmd_mon)

    p = sub.add_parser("project", help="embed a formula into the block family")
    p.add_argument("--expr", required=True)
    p.add_argument("--vars", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    ring_opt(p)
    p.add_argument("-o", "--output", help="also write the projected circuit")
    p.set_defaults(handler=_cmd_project)

    p = sub.add_parser("pit", help="polynomial identity test")
    p.add_argument("--circuit", required=True)
    p.add_argument("--mode", required=True, choices=["sz", "nw"])
    p.add_argument("--trials", type=int, default=20, help="sz only")
    p.add_argument("--seed", type=int, default=0, help="sz only")
    p.add_argument("--m", type=int, default=2, help="nw only: hard-family arity")
    p.add_argument("--sample-size", type=int, help="evaluation grid size")
    p.add_argument(
        "--hard-family",
        choices=sorted(HARD_FAMILIES),
        default="desk-rule",
        help="nw only",
    )
    p.set_defaults(handler=_cmd_pit)

    p = sub.add_parser("verify-perm", help="check a permanent candidate")
    p.add_argument("--circuit", required=True)
    p.add_argument("--n", type=int, help="matrix order; checked against the file")
    p.add_argument("--mode", required=True, choices=["sz", "nw"])
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--sample-size", type=int)
    p.set_defaults(handler=_cmd_verify_perm)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        caps = _caps_from_env(os.environ.get("SLPFORGE_CAPS"))
    except ParamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        keys = args.handler(args, caps)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SlpforgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_result(keys)
    return 0


if __name__ == "__main__":
    sys.exit(main())
