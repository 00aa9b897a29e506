"""Checks on the library source itself."""

import ast
import importlib
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "slpforge"


def test_library_has_no_assert_statements():
    # Invariants must hold under python -O, which strips assert statements.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SOURCE.rglob("*.py"))) > 10
    assert found == []


def _source_nodes():
    """(file name, node) for every AST node of the library source."""
    for path in sorted(SOURCE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path.name, node


def test_only_circuits_builds_a_gate_table():
    # circuits decides what a copy is, so it alone fills a gate table.
    builders = {
        name
        for name, node in _source_nodes()
        if isinstance(node, ast.Call) and _callee(node) == "_GateTable"
    }
    assert builders == {"circuits.py"}


def test_only_the_allocator_picks_registers_for_staggerize():
    # staggerize lists steps and circuits._allocate picks their registers,
    # so stagger keeps no free-register heap and writes no register operand.
    found = [
        f"{name}:{node.lineno}"
        for name, node in _source_nodes()
        if name == "stagger.py"
        and (
            isinstance(node, ast.alias) and node.name in ("heapq", "RegOperand")
            or isinstance(node, ast.ImportFrom) and node.module == "heapq"
            or isinstance(node, ast.Name) and node.id == "RegOperand"
            or isinstance(node, ast.Attribute) and node.attr == "RegOperand"
        )
    ]
    assert found == []


def test_the_testers_evaluate_in_batches_only():
    # pit evaluates every batch through circuits.evaluate_batch on every
    # ring, and circuits alone decides int64 or object columns.  Every
    # hard-family table is one HardFamily.evaluate_raw over key columns,
    # so pit calls no .evaluate( at all, the family's scalar method
    # included (which it still defines, for other callers).
    scalar = [
        f"{name}:{node.lineno}"
        for name, node in _source_nodes()
        if name == "pit.py"
        and (
            isinstance(node, ast.alias) and node.name == "evaluate"
            or isinstance(node, ast.Name) and node.id == "evaluate"
            or isinstance(node, ast.Attribute)
            and node.attr == "evaluate"
            and _names(node.value, "circuits")
            or isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "evaluate"
        )
    ]
    assert scalar == []
    limit = {
        name
        for name, node in _source_nodes()
        if _names(node, "BATCH_MODULUS_LIMIT")
        or isinstance(node, ast.alias) and node.name == "BATCH_MODULUS_LIMIT"
    }
    assert limit == {"circuits.py"}


def test_the_expansion_kernel_meets_fractions_only_at_its_boundaries():
    # Over Q a term_algebra value is integer numerators over one
    # denominator: a Fraction is built (wrap) or read (const, lift, scale)
    # only where a value meets a Scalar or a raw factor, never per term
    # of a sum or product.
    tree = ast.parse((SOURCE / "polynomials.py").read_text())
    found = set()

    def visit(node, stack):
        if isinstance(node, ast.FunctionDef):
            stack = stack + (node.name,)
        if (
            isinstance(node, ast.Call) and _callee(node) == "Fraction"
            or isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator")
        ):
            found.add(stack)
        for child in ast.iter_child_nodes(node):
            visit(child, stack)

    visit(tree, ())
    assert ("term_algebra", "wrap") in found
    assert found <= {("term_algebra", name) for name in ("wrap", "const", "lift", "scale")}


def _nodes_in_functions():
    """(file name, innermost enclosing function name or None, node) for the library."""
    def visit(node, function):
        yield node, function
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            function = getattr(node, "name", "<lambda>")
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    for path in sorted(SOURCE.rglob("*.py")):
        for node, function in visit(ast.parse(path.read_text(), str(path)), None):
            yield path.name, function, node


def _reduces_by_a_modulus(node: ast.AST) -> bool:
    """x % p, x % ring.characteristic, x %= p, any .p, or pow(x, e, p)."""
    if isinstance(node, ast.Attribute) and node.attr == "p":
        return True
    if isinstance(node, ast.Call):
        return _callee(node) == "pow" and len(node.args) == 3
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
        modulus = node.right
    elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mod):
        modulus = node.value
    else:
        return False
    return _names(modulus, "p") or _names(modulus, "characteristic")


def test_only_the_rings_combine_raw_values():
    # The rings' add, mul, neg, div and pow are the one code that knows how
    # raw values combine.  No other module reduces by a modulus, and no
    # code tests which ring it is in: a ring's __eq__ tests what it
    # equals, and circuits.batch_dtype reads the characteristic.
    ring_classes = ("PrimeField", "RationalField")
    reductions, ring_tests = [], []
    for name, function, node in _nodes_in_functions():
        where = f"{name}:{getattr(node, 'lineno', 0)}"
        if name != "rings.py" and _reduces_by_a_modulus(node):
            reductions.append(where)
        if (
            isinstance(node, ast.Call)
            and _callee(node) == "isinstance"
            and any(_names(n, c) for n in ast.walk(node.args[-1]) for c in ring_classes)
            and not (name == "rings.py" and function == "__eq__")
        ):
            ring_tests.append(where)
    assert reductions == []
    assert ring_tests == []
    # Every ring has each raw op, and Scalar's arithmetic reaches each
    # through its own op alone: -x is the ring's neg, not mul by -1.
    raw_ops = {"add", "mul", "neg", "div", "pow"}
    tree = ast.parse((SOURCE / "rings.py").read_text())
    classes = {node.name: node.body for node in tree.body if isinstance(node, ast.ClassDef)}
    for ring_class in ("Ring",) + ring_classes:
        body = classes[ring_class]
        defined = {node.name for node in body if isinstance(node, ast.FunctionDef)}
        defined |= {
            getattr(t, "id", None) for n in body if isinstance(n, ast.Assign) for t in n.targets
        }
        assert raw_ops <= defined, ring_class
    methods = {node.name: node for node in classes["Scalar"] if isinstance(node, ast.FunctionDef)}
    scalar_ops = (("__add__", "add"), ("__neg__", "neg"), ("__mul__", "mul"), ("__pow__", "pow"))
    for method, op in scalar_ops:
        calls = {_callee(node) for node in ast.walk(methods[method]) if isinstance(node, ast.Call)}
        assert calls & raw_ops == {op}, method


def test_no_module_keeps_a_second_copy_rule():
    # Copies u*1 are read off the copy table, never recognised again.
    found = [
        f"{name}:{node.lineno}"
        for name, node in _source_nodes()
        if isinstance(node, ast.FunctionDef) and node.name in ("_copy_source", "_one_leaves")
    ]
    assert found == []


def test_only_validate_calls_the_full_walk():
    # _validate is the one structural check of parsed and hand-built
    # circuits, reached through validate, which stores its report.
    inside, anywhere = set(), set()
    for name, node in _source_nodes():
        if isinstance(node, ast.FunctionDef) and node.name == "validate":
            inside |= {f"{name}:{n.lineno}" for n in ast.walk(node) if _names(n, "_validate")}
        if _names(node, "_validate"):
            anywhere.add(f"{name}:{node.lineno}")
    assert inside and anywhere == inside


def test_the_circuit_core_walks_each_job_once():
    # _allocate and slp_to_circuit find what they keep and each step's
    # last reads in one backward loop, with no separate liveness helper;
    # slp_to_circuit fills its tables in its forward loop, with no
    # CircuitBuilder; and _validate checks copies in its own gate loop,
    # without numpy.
    tree = ast.parse((SOURCE / "circuits.py").read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert "_last_reads" not in functions
    for name in ("_allocate", "slp_to_circuit"):
        backward = [
            node.lineno
            for node in ast.walk(functions[name])
            if isinstance(node, ast.For)
            and isinstance(node.iter, ast.Call)
            and _callee(node.iter) == "reversed"
        ]
        assert len(backward) == 1, name
    assert not any(_names(node, "CircuitBuilder") for node in ast.walk(functions["slp_to_circuit"]))
    assert not any(_names(node, "np") for node in ast.walk(functions["_validate"]))


def test_only_circuits_assigns_a_report():
    # A report is stored by validate, or derived by slp_to_circuit and
    # carried by a copy, all in circuits: no second report path.
    assigners = {
        name
        for name, node in _source_nodes()
        if isinstance(node, ast.Call)
        and _callee(node) in ("__setattr__", "setattr")
        and any(isinstance(a, ast.Constant) and a.value == "_report" for a in node.args)
        or isinstance(node, ast.Attribute)
        and node.attr == "_report"
        and isinstance(node.ctx, (ast.Store, ast.Del))
    }
    assert assigners == {"circuits.py"}


def test_textio_reads_syntax_only():
    # The parser hands gate lines to circuits, which alone splits copies
    # and derives a report: textio names neither.
    found = [
        f"{name}:{node.lineno}"
        for name, node in _source_nodes()
        if name == "textio.py"
        and any(
            _names(node, word) or isinstance(node, ast.alias) and node.name == word
            for word in ("ValidationReport", "_report", "_split_copies")
        )
    ]
    assert found == []


def _names(node: ast.AST, name: str) -> bool:
    """Whether node refers to name, as a bare name or an attribute."""
    return (
        isinstance(node, ast.Name) and node.id == name
        or isinstance(node, ast.Attribute) and node.attr == name
    )


def _callee(node: ast.AST) -> str | None:
    """Name of the function a call (or a bare decorator) refers to."""
    func = node.func if isinstance(node, ast.Call) else node
    if isinstance(func, ast.Attribute):
        return func.attr
    return getattr(func, "id", None)


def _pins_examples(node: ast.AST) -> bool:
    """A settings(...) call with derandomize=True and database=None."""
    if not isinstance(node, ast.Call) or _callee(node) != "settings":
        return False
    values = {k.arg: k.value for k in node.keywords}
    return all(
        isinstance(values.get(key), ast.Constant) and values[key].value is want
        for key, want in (("derandomize", True), ("database", None))
    )


def test_property_tests_draw_fixed_examples():
    # Every hypothesis.given sits under a settings decorator that fixes its
    # examples, so each run of the suite tests the same inputs.
    tests = Path(__file__).resolve().parent
    givens, pinned = [], []
    for path in sorted(tests.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and _callee(node) == "given":
                givens.append(f"{path.name}:{node.lineno}")
            decorators = getattr(node, "decorator_list", [])
            for i, decorator in enumerate(decorators):
                if _callee(decorator) == "given" and any(map(_pins_examples, decorators[:i])):
                    pinned.append(f"{path.name}:{decorator.lineno}")
    assert len(givens) >= 6
    assert sorted(givens) == sorted(pinned)


def test_every_function_the_traced_benchmark_names_exists(monkeypatch):
    # perfbench's traced run resolves library functions by module and
    # name; a rename or a removed nested function fails here too, not only
    # in a traced benchmark run.  Building Profiles only reads perfbench.
    monkeypatch.syspath_prepend(str(SOURCE.parents[1]))
    importlib.import_module("perfbench.tracing").Profiles()
