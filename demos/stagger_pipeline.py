"""From a layered circuit to a register program and back.

Builds a width-3 circuit for (x1 + x2)(x2 + x3)(x1*x3 + 7), squeezes it
into a straight-line program over at most width+1 registers, and
confirms both forms expand to the same polynomial.  Run it directly:

    python3 demos/stagger_pipeline.py
"""

from slpforge import (
    CircuitBuilder,
    RATIONALS,
    expand,
    serialize_circuit,
    slp_to_circuit,
    staggerize,
    validate,
)

# A small three-layer circuit, built layer by layer.  Leaves live in
# layer 1; every gate names its layer and reads operands from below.
cb = CircuitBuilder(RATIONALS, "commutative", 3, name="demo")
x1, x2, x3 = (cb.var_leaf(i) for i in (1, 2, 3))
seven = cb.const_leaf(7)

s12 = cb.gate(2, "add", x1, x2)
s23 = cb.gate(2, "add", x2, x3)
p13 = cb.gate(2, "mul", x1, x3)

t = cb.gate(3, "mul", s12, s23)
q = cb.gate(3, "add", p13, seven)

cb.set_output(cb.gate(4, "mul", t, q))
circuit = cb.build()

report = validate(circuit)
print(f"circuit: width {report.width}, size {report.size}, "
      f"{report.layer_count} layers")

# Staggering schedules each layer transition as a sequence of register
# writes.  The register budget is width + 1 no matter how the layers
# share their operands; a value is freed at its last read, so this
# program needs only 3.
program = staggerize(circuit)
print(f"program: {program.register_count} registers, "
      f"{program.step_count} steps")

same = expand(program) == expand(circuit)
print(f"expansions agree: {same}")
print(f"polynomial: {expand(circuit).text()}")

# A staggered circuit round-trips through the text format.
staggered = slp_to_circuit(program)
print()
print(serialize_circuit(staggered), end="")
