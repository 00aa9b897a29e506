"""The three benchmark workloads.

A workload turns a seed into a fixed list of instances.  An instance is
one unit of user work: ``work`` makes only library calls and is the
part that is timed; ``check`` compares what ``work`` returned against
the independent reference in ``reference.py`` and returns the exact
counts the instance contributes (emitted sizes and per-layer sizes).
``check`` raises ``Wrong`` when an output is wrong or breaks a bound.

Every round repeats a workload's 25 instances (27 for ``stagger_wide``),
so the median and the 90th percentile read the 13th and the 23rd
cheapest instance (the 14th and 25th of 27).  Each workload puts a group
of instances of one configuration
around each of those ranks, with the rank away from the group's edges, so
that a seed cannot move the reading onto a boundary between two
configurations.

Every library call in ``work`` goes through ``call(name, fn, *args)``,
which is a plain call in the untraced run and a recorded span in the
traced run.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import shlex
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from slpforge.circuits import (
    LayeredCircuit,
    circuit_to_slp,
    expand,
    slp_to_circuit,
    validate,
)
from slpforge.cli import main as cli_main
from slpforge.families import BenOrParams, build_E_abp, build_E_width2, build_permanent_sparse
from slpforge.pit import (
    HARD_FAMILIES,
    nw_pit,
    perm_check_instance,
    schwartz_zippel,
    verify_permanent_circuit,
)
from slpforge.rings import RATIONALS, PrimeField
from slpforge.rootfind import RootProblem, newton_series_root, root_circuit
from slpforge.stagger import staggerize
from slpforge.textio import parse_circuit, serialize_circuit
from slpforge.transforms import (
    depth_to_width,
    homogeneous_components,
    partial_derivative_y,
    sparse_to_width2,
)

from . import gen
from . import reference as ref

BIG = PrimeField((1 << 61) - 1)
SMALL_P = 2147483647
SMALL = PrimeField(SMALL_P)


class Wrong(Exception):
    """An output that disagrees with the reference or breaks a bound."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise Wrong(message)


@dataclass
class Instance:
    kind: str
    work: Callable[[Callable], Any]
    check: Callable[[Any], dict]


def _modulus(ring) -> int | None:
    return ring.characteristic or None


# ---------------------------------------------------------------------------
# stagger_wide


def _stagger_points(rng: random.Random, c: LayeredCircuit) -> tuple[list, int | None]:
    """Three seeded check points for ``c`` and the modulus they live in.

    A commutative circuit gets numbers; a noncommutative one gets 2x2
    matrices mod a prime, so that a swapped mul operand changes the value.
    """
    if c.mode == "commutative":
        p = _modulus(c.ring)
        return [
            [rng.randrange(p) if p else rng.randrange(-50, 51) for _ in range(c.num_variables)]
            for _ in range(3)
        ], p
    p = ref.matrix_modulus(c.ring)
    return [
        [tuple(rng.randrange(p) for _ in range(4)) for _ in range(c.num_variables)]
        for _ in range(3)
    ], p


def _stagger_instance(c: LayeredCircuit, points: list, p: int | None) -> Instance:
    w = c.width

    def work(call):
        text = call("textio.serialize_circuit", serialize_circuit, c)
        parsed = call("textio.parse_circuit", parse_circuit, text)
        call("circuits.validate", validate, parsed)
        prog = call("stagger.staggerize", staggerize, parsed)
        staggered = call("circuits.slp_to_circuit", slp_to_circuit, prog)
        report = call("circuits.validate", validate, staggered)
        back = call("circuits.circuit_to_slp", circuit_to_slp, staggered)
        text_out = call("textio.serialize_circuit", serialize_circuit, staggered)
        return text, prog, staggered, report, back, text_out

    def check(out):
        text, prog, staggered, report, back, text_out = out
        require(prog.register_count <= w + 1, f"{prog.register_count} registers > w+1 = {w + 1}")
        require(report.staggered, "slp_to_circuit output is not staggered")
        require(report.size <= 4 * w * c.size, f"staggered size {report.size} > 4*w*size")
        for i, point in enumerate(points):
            want = ref.evaluate(c, point, p)
            require(ref.evaluate(prog, point, p) == want, "staggered program differs from input")
            require(ref.evaluate(back, point, p) == want, "round-tripped program differs from input")
            if i == 0:
                require(ref.evaluate(staggered, point, p) == want, "staggered circuit differs")
        return {
            "emitted_steps": prog.step_count + back.step_count,
            "emitted_registers": prog.register_count + back.register_count,
            "stagger.gates_in": c.size,
            "stagger.steps_out": prog.step_count,
            "stagger.registers_out": prog.register_count,
            "stagger.register_ratio": Fraction(prog.register_count, w + 1),
            "stagger.size_ratio": Fraction(report.size, 4 * w * c.size),
            "circuits.gates_out": staggered.size,
            "textio.bytes": len(text) + len(text_out),
        }

    mode = "comm" if c.mode == "commutative" else "noncomm"
    return Instance(f"stagger w={w} {c.ring.name} {mode}", work, check)


def readme_commands(readme: Path) -> list[tuple[list[str], str]]:
    """(argv, expected RESULT line) for each ``$ slpforge`` example."""
    commands = []
    argv = None
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("$ slpforge "):
            argv = shlex.split(line[len("$ slpforge "):])
        elif argv is not None and line.startswith("RESULT "):
            commands.append((argv, line))
            argv = None
    if not commands:
        raise RuntimeError(f"no '$ slpforge' examples found in {readme}")
    return commands


def _result_fields(line: str) -> dict[str, str]:
    return dict(token.split("=", 1) for token in line.split()[1:])


def _option(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def _readme_instance(commands, workdir: Path) -> Instance:
    def run_pass(call):
        lines, codes = [], []
        for argv, _ in commands:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes.append(call("cli.main", cli_main, argv))
            out = buf.getvalue().splitlines()
            lines.append(out[-1] if out else "")
        return lines, codes

    def work(call):
        previous = os.getcwd()
        os.chdir(workdir)
        try:
            return run_pass(call), run_pass(call)
        finally:
            os.chdir(previous)

    def check(out):
        (first, codes1), (second, codes2) = out
        require(first == second, "RESULT lines differ between the two passes")
        nonzero = sum(1 for code in codes1 + codes2 if code != 0)
        require(nonzero == 0, f"{nonzero} commands exited nonzero")
        steps = regs = 0
        for (argv, expected), got in zip(commands, first):
            fields = _result_fields(got)
            if "steps" in fields:
                steps += int(fields["steps"])
            if "registers" in fields:
                regs += int(fields["registers"])
            if argv[0] != "root":
                require(got == expected, f"{argv[0]}: {got!r} != README {expected!r}")
                continue
            want = _result_fields(expected)
            for key in ("m", "r", "registers"):
                require(fields.get(key) == want[key], f"root {key}: {got!r} vs {expected!r}")
            require(int(fields["steps"]) <= int(want["steps"]), f"root grew: {got!r}")
            _check_readme_root(argv, workdir)
        return {
            "emitted_steps": steps,
            "emitted_registers": regs,
            "cli.commands": 2 * len(commands),
            "cli.exit_nonzero": nonzero,
        }

    return Instance("readme pipeline", work, check)


def _check_readme_root(argv: list[str], workdir: Path) -> None:
    """The root output file expands to the series root of its input."""
    source = parse_circuit((workdir / _option(argv, "-i")).read_text(encoding="utf-8"))
    result = parse_circuit((workdir / _option(argv, "-o")).read_text(encoding="utf-8"))
    m = int(_option(argv, "--m"))
    y = source.num_variables
    coefficients: dict[int, dict] = {}
    for key, c in ref.expand(source).items():
        exps = dict(key)
        i = exps.pop(y, 0)
        coefficients.setdefault(i, {})[tuple(sorted(exps.items()))] = c
    r = max(coefficients)
    series = ref.series_root(
        [coefficients.get(i, {}) for i in range(r + 1)], Fraction(_option(argv, "--y0")), m
    )
    require(ref.expand(result) == series, "root output is not the series root")


def stagger_wide(rng: random.Random, root: Path) -> list[Instance]:
    # Layer sizes (w, w, w/8): the layer-2 to layer-3 transition carries w
    # edges on w vertices, where staggering cost grows fastest with width.
    # Groups run cheapest first, so the median lands on the middle of the
    # sixteen width-32 circuits and the 90th percentile on the middle of the
    # five width-128 ones.  Each of those two groups keeps one ring and one
    # mode, because rationals cost about 1.5x what F_p does and the two
    # modes differ by up to 40% at width 128; the other groups alternate.
    # The width-32 group is large because single width-32 circuits of one
    # seed differ in cost by about 20%; the median of sixteen moves less
    # from seed to seed.
    comm, noncomm = "commutative", "noncommutative"
    plan = (
        [(8, RATIONALS, comm), (8, RATIONALS, noncomm)]
        + [(16, RATIONALS, noncomm), (16, RATIONALS, comm)]
        + [(32, BIG, comm)] * 16
        + [(64, RATIONALS, noncomm)]
        + [(128, BIG, noncomm)] * 5
    )
    instances = []
    for w, ring, mode in plan:
        c = gen.layered_circuit(rng, ring, mode, [w, w, w // 8], name=f"w{w}")
        instances.append(_stagger_instance(c, *_stagger_points(rng, c)))
    workdir = root / "perfbench" / ".work" / f"readme-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    instances.append(_readme_instance(readme_commands(root / "README.md"), workdir))
    return instances


# ---------------------------------------------------------------------------
# transform_series


def _poly_counts(polys) -> dict:
    return {
        "polynomials.peak_terms": max(len(poly.terms) for poly in polys),
        "polynomials.peak_degree": max(
            (mono.degree for poly in polys for mono in poly.terms), default=0
        ),
    }


def _homog_instance(prog, m: int, j: int) -> Instance:
    k = prog.register_count
    y = prog.num_variables

    def work(call):
        f = call("circuits.expand", expand, prog)
        parts = call("transforms.homogeneous_components", homogeneous_components, prog, m)
        slices = [call("circuits.expand", expand, part) for part in parts]
        deriv = call("transforms.partial_derivative_y", partial_derivative_y, prog, j, m)
        dpoly = call("circuits.expand", expand, deriv)
        return f, parts, slices, deriv, dpoly

    def check(out):
        f, parts, slices, deriv, dpoly = out
        want = ref.expand(prog)
        require(ref.from_library(f) == want, "expand(input) differs from the reference")
        total: dict = {}
        for i, piece in enumerate(slices):
            terms = ref.from_library(piece)
            require(all(ref.degree(key) == i for key in terms), f"slice {i} has other degrees")
            total = ref.poly_add(total, terms)
        require(total == want, "homogeneous slices do not sum to the input")
        require(ref.from_library(dpoly) == ref.derivative(want, y, j), "derivative differs")
        programs = list(parts) + [deriv]
        require(all(q.register_count <= k + 2 for q in programs), "transform used > k+2 registers")
        steps = sum(q.step_count for q in programs)
        return {
            "emitted_steps": steps,
            "emitted_registers": sum(q.register_count for q in programs),
            "transforms.steps_out": steps,
            **_poly_counts([f, dpoly, *slices]),
        }

    return Instance("homog+deriv", work, check)


def _root_instance(prog, planted: dict, y0: int, r: int, m: int) -> Instance:
    want = {key: c for key, c in planted.items() if ref.degree(key) <= m}

    def work(call):
        problem = call("rootfind.RootProblem", RootProblem, prog, r, m, y0)
        out = call("rootfind.root_circuit", root_circuit, problem)
        poly = call("circuits.expand", expand, out)
        newton = call("rootfind.newton_series_root", newton_series_root, problem)
        return problem, out, poly, newton

    def check(out):
        problem, program, poly, newton = out
        require(ref.from_library(poly) == want, "root program misses the planted root")
        require(ref.from_library(newton) == want, "Newton series misses the planted root")
        require(
            program.register_count <= prog.register_count + r + 3,
            f"root used {program.register_count} registers",
        )
        return {
            "emitted_steps": program.step_count,
            "emitted_registers": program.register_count,
            "rootfind.steps_out": program.step_count,
            "rootfind.index_set_size": len(problem.index_set()),
            **_poly_counts([poly, newton]),
        }

    return Instance(f"root n={prog.num_variables - 1} r={r} m={m}", work, check)


def _balanced_instance(n: int) -> Instance:
    want = ref.balanced_words(n)

    def work(call):
        prog = call("families.build_E_width2", build_E_width2, BenOrParams(n), RATIONALS)
        left = call("circuits.expand", expand, prog)
        abp = call("families.build_E_abp", build_E_abp, n)
        right = call("circuits.expand", expand, abp)
        return prog, left, abp, right

    def check(out):
        prog, left, abp, right = out
        require(ref.from_library(left) == want, "width-2 program misses balanced words")
        require(ref.from_library(right) == want, "branching program misses balanced words")
        require(len(want) == math.comb(2 * n, n), "reference word count")
        require(prog.register_count == 2, "balanced-words program is not width 2")
        require(abp.size <= 4 * n * n, "branching program too large")
        return {
            "emitted_steps": prog.step_count,
            "emitted_registers": prog.register_count,
            **_poly_counts([left, right]),
        }

    return Instance(f"balanced n={n}", work, check)


def transform_series(rng: random.Random, root: Path) -> list[Instance]:
    # Cheapest first: r = 1 roots and n = 1 words; five (1, 2, 2) roots,
    # whose middle is the median; programs through the slicing and
    # derivative transforms and n = 2 words; four (3, 3, 2) roots, whose
    # second is the 90th percentile.  Root costs depend on (n, r, m) alone
    # to within a few percent, which keeps both percentiles steady from
    # seed to seed.  Words stop at n = 2: n = 3 is one 1.6 s expansion that
    # would be 60% of a round and would swamp throughput with its noise.
    m = 6
    instances = []
    roots = [(n, 1, mm) for n in (1, 2, 3) for mm in (1, 2, 3)]
    roots += [(1, 2, 2)] * 5
    for n, r, mm in roots:
        prog, planted, y0 = gen.planted_root_program(rng, RATIONALS, n, r)
        instances.append(_root_instance(prog, planted[0], y0, r, mm))
    for i in range(4):
        prog = gen.random_slp(
            rng, RATIONALS, register_count=2 + i % 3, step_count=10 + 3 * (i % 4), degree_budget=m
        )
        instances.append(_homog_instance(prog, m, j=i % 4))
    for _ in range(4):
        prog, planted, y0 = gen.planted_root_program(rng, RATIONALS, 3, 3)
        instances.append(_root_instance(prog, planted[0], y0, 3, 2))
    instances += [_balanced_instance(n) for n in (1, 2, 2)]
    return instances


# ---------------------------------------------------------------------------
# identity_grid


def _emitted(circuits) -> dict:
    programs = [circuit_to_slp(c) for c in circuits]
    return {
        "emitted_steps": sum(q.step_count for q in programs),
        "emitted_registers": sum(q.register_count for q in programs),
    }


def _witness(verdict) -> list[int] | None:
    return None if verdict.witness is None else [s.value for s in verdict.witness]


def _expect_zero(verdict) -> None:
    require(verdict.is_zero and verdict.witness is None, "nonzero verdict on a zero input")


def _sz_instance(
    formula, trials: int, seed: int, zero: bool, sample_size: int | None = None
) -> Instance:
    n = formula.num_variables
    side = sample_size or max(1, 2 * ref.formula_degree(formula.root))

    def work(call):
        c = call("transforms.depth_to_width", depth_to_width, formula)
        return c, call("pit.schwartz_zippel", schwartz_zippel, c, trials, None, seed, sample_size)

    def check(out):
        c, verdict = out
        if zero:
            _expect_zero(verdict)
            return _emitted([c])
        points = ((pt, pt) for pt in ref.sz_points(n, trials, seed, side))
        hit = ref.first_nonzero(lambda pt: ref.formula_value(formula.root, pt, SMALL_P), points)
        require(_witness(verdict) == hit, f"witness {_witness(verdict)} != first hit {hit}")
        require(verdict.is_zero == (hit is None), "verdict disagrees with the witness")
        return _emitted([c])

    late = " late" if sample_size else ""
    return Instance(f"sz {'zero' if zero else 'nonzero'}{late}", work, check)


def _nw_instance(formula, m: int, sample_size: int | None, zero: bool) -> Instance:
    n = formula.num_variables
    grid_side = sample_size or ref.formula_degree(formula.root) * m + 1
    family = HARD_FAMILIES["desk-rule"]

    def work(call):
        c = call("transforms.depth_to_width", depth_to_width, formula)
        return c, call("pit.nw_pit", nw_pit, c, family, m, sample_size)

    def check(out):
        c, verdict = out
        if zero:
            _expect_zero(verdict)
            return _emitted([c])
        points = ref.nw_points(n, m, grid_side, SMALL_P)
        hit = ref.first_nonzero(lambda pt: ref.formula_value(formula.root, pt, SMALL_P), points)
        require(_witness(verdict) == (None if hit is None else list(hit)), "grid witness differs")
        require(verdict.is_zero == (hit is None), "grid verdict disagrees with the reference")
        return _emitted([c])

    late = " late" if sample_size and not zero else ""
    return Instance(f"nw m={m} {'zero' if zero else 'nonzero'}{late}", work, check)


def _perm_instance(poly, candidate, backend: str, seed: int, sample_size: int) -> Instance:
    """Verify the compiled permanent (candidate None, must accept) or a corrupted one."""
    n = 3
    trials, m = 20, 2

    def work(call):
        c = candidate
        if c is None:
            prog = call("transforms.sparse_to_width2", sparse_to_width2, poly)
            c = call("circuits.slp_to_circuit", slp_to_circuit, prog)
        verdict = call(
            "pit.verify_permanent_circuit",
            verify_permanent_circuit, c, backend, seed, trials, m, sample_size,
        )
        return c, verdict

    def check(out):
        c, verdict = out
        identities = perm_check_instance(c).identities
        if candidate is None:
            require(verdict.accepted, "rejected a correct permanent candidate")
        else:
            hit = None
            for k, identity in enumerate(identities, start=1):
                if backend == "schwartz_zippel":
                    side = max(1, 2 * ref.syntactic_degree(identity))
                    pts = ((pt, pt) for pt in ref.sz_points(n * n, trials, seed + k, side))
                else:
                    pts = ref.nw_points(n * n, m, sample_size, SMALL_P)
                found = ref.first_nonzero(
                    lambda x, k=k: ref.laplace_identity(c, n, k, x, SMALL_P), pts
                )
                if found is not None:
                    hit = (k, list(found))
                    break
            got = None if verdict.accepted else (verdict.failing_index, _witness(verdict))
            require(got == hit, f"verdict {got} != reference first hit {hit}")
        # A corrupted candidate's identities vary in size with the corrupted
        # gate, so only the correct candidate's programs are counted.
        return _emitted([c, *identities]) if candidate is None else {}

    return Instance(f"perm {'ok' if candidate is None else 'bad'} {backend}", work, check)


def identity_grid(rng: random.Random, root: Path) -> list[Instance]:
    def formula(depth: int, n: int, fanin: int, degree: int):
        return gen.random_formula(rng, SMALL, depth, n, fanin, degree)

    # Many points on one circuit: the grids.  Few points on many circuits:
    # the randomized tester, which stops at the first nonzero point.  A
    # random nonzero formula is nonzero at almost every point, so one
    # nonzero input per tester is built to stay zero for the first half of
    # its points; a tester that stops early fails on it.
    instances = []
    for i in range(10):
        f = gen.zero_formula(formula(3, 3 + i % 4, 3, 3))
        instances.append(_sz_instance(f, 100, rng.randrange(1 << 30), True))
    for i in range(4):
        f = formula(3, 3 + i % 4, 3, 3)
        instances.append(_sz_instance(f, 100, rng.randrange(1 << 30), False))
    f, seed = gen.late_sz_formula(rng, SMALL, 5, 100)
    instances.append(_sz_instance(f, 100, seed, False, sample_size=2))
    for i in range(3):
        instances.append(_nw_instance(gen.zero_formula(formula(2, 2 + i, 3, 3)), 2, None, True))
    instances.append(_nw_instance(gen.zero_formula(formula(2, 3, 2, 2)), 3, 2, True))
    instances.append(_nw_instance(formula(2, 2, 3, 3), 2, None, False))
    instances.append(_nw_instance(gen.late_grid_formula(rng, SMALL, 3), 3, 2, False))

    # The accepting grid check (side 4, 4^4 points per identity) is the one
    # instance slower than the three zero grids, so the 90th percentile
    # lands on the middle zero grid.
    poly = build_permanent_sparse(3, SMALL)
    good = slp_to_circuit(sparse_to_width2(poly))
    for backend in ("schwartz_zippel", "nw_pit"):
        instances.append(_perm_instance(poly, None, backend, rng.randrange(1 << 30), 4))
        bad = _corrupted(rng, good)
        instances.append(_perm_instance(poly, bad, backend, rng.randrange(1 << 30), 3))
    return instances


def _corrupted(rng: random.Random, good: LayeredCircuit) -> LayeredCircuit:
    """A corrupted candidate that differs from the permanent at a random point."""
    while True:
        bad = gen.corrupt_circuit(rng, good)
        for _ in range(4):
            x = [rng.randrange(SMALL_P) for _ in range(good.num_variables)]
            if ref.evaluate(bad, x, SMALL_P) != ref.evaluate(good, x, SMALL_P):
                return bad


WORKLOADS = {
    "stagger_wide": stagger_wide,
    "transform_series": transform_series,
    "identity_grid": identity_grid,
}
