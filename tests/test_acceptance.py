"""Acceptance gate: one test per criterion, each printing a PASS line.

Every test is self-timed against its stated budget and checks exact
equalities (no tolerances anywhere).  Run with -s to see the PASS lines;
under plain pytest the per-test PASSED/FAILED status carries the same
information.
"""

import itertools
import math
import random
import time

from genutil import (
    corrupt_circuit,
    formal_derivative,
    formula_expand,
    planted_root_program,
    random_formula,
    random_layered_circuit,
    random_slp,
)

from slpforge.circuits import CircuitBuilder, expand, slp_to_circuit, validate
from slpforge.families import (
    BenOrParams,
    FamilyParams,
    build_E_abp,
    build_E_width2,
    build_P,
    build_palindrome,
    build_permanent_sparse,
    family_monomial_set,
)
from slpforge.formulas import FConst, FOp, Formula, FVar
from slpforge.monotone import mon_set
from slpforge.pit import HARD_FAMILIES, nw_design, nw_pit, schwartz_zippel, verify_permanent_circuit
from slpforge.polynomials import COMMUTATIVE, MODES, Monomial, NONCOMMUTATIVE, SparsePolynomial
from slpforge.rings import PrimeField, RATIONALS
from slpforge.rootfind import RootProblem, root_circuit
from slpforge.stagger import LayerMultigraph, MultiEdge, census_bound, order_edges, staggerize
from slpforge.transforms import (
    depth_to_width,
    homogeneous_components,
    partial_derivative_y,
    sparse_to_width2,
)

BIG = PrimeField((1 << 61) - 1)


def _report(number: int, elapsed: float, budget: float, detail: str) -> None:
    assert elapsed <= budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"
    print(f"criterion {number:02d}: PASS in {elapsed:.1f}s (budget {budget:.0f}s); {detail}")


# ---------------------------------------------------------------------------
# 1. Staggering


def _canonical_multigraphs(max_vertices: int, max_edges: int):
    """All layer multigraphs up to relabeling, vertices in first-use order."""
    yield LayerMultigraph(frozenset(), (), ())
    for v in range(1, max_vertices + 1):
        pairs = [(a, b) for a in range(1, v + 1) for b in range(a, v + 1)]
        for e in range(1, max_edges + 1):
            for combo in itertools.combinations_with_replacement(pairs, e):
                seen: list[int] = []
                for a, b in combo:
                    for x in (a, b):
                        if x not in seen:
                            seen.append(x)
                if seen != list(range(1, v + 1)):
                    continue
                edges = tuple(
                    MultiEdge(a, b, gate=100 + i) for i, (a, b) in enumerate(combo)
                )
                yield LayerMultigraph(frozenset(range(1, v + 1)), edges, ())


def test_criterion_01_staggering():
    start = time.monotonic()
    rng = random.Random(20240819)

    for trial in range(200):
        width = rng.randrange(2, 6)
        mode = rng.choice(sorted(MODES))
        c = random_layered_circuit(
            rng,
            RATIONALS,
            mode,
            width,
            num_variables=rng.randrange(2, 5),
            internal_layers=rng.randrange(1, 6),
        )
        assert c.size <= 120
        w = c.width
        slp = staggerize(c)
        assert slp.register_count <= w + 1, f"trial {trial}"
        staggered = slp_to_circuit(slp)
        report = validate(staggered)
        assert report.staggered
        assert report.size <= 4 * w * c.size, f"trial {trial}"
        assert expand(slp) == expand(c), f"trial {trial}"

    graphs = 0
    for graph in _canonical_multigraphs(6, 6):
        bound = census_bound(graph)
        result = order_edges(graph)
        assert all(peak <= bound for peak in result.census), graph
        assert sorted(e.gate for e in result.order) == sorted(
            e.gate for e in graph.edges
        )
        graphs += 1

    _report(1, time.monotonic() - start, 30, f"200 circuits, {graphs} census graphs")


# ---------------------------------------------------------------------------
# 2. Family monomial counts


def test_criterion_02_family_counts():
    start = time.monotonic()
    # ell^((ell^k - 1)/(ell - 1)): the (3,2) instance genuinely has 81.
    table = [(2, 1, 2), (3, 1, 3), (2, 2, 8), (3, 2, 81), (2, 3, 128)]
    for ell, k, count in table:
        params = FamilyParams(ell, k)
        assert params.monomial_count == count
        poly = formula_expand(build_P(params))
        assert len(poly.terms) == count
        assert params.num_variables == ell ** (2 * k)
        degree = ell ** k
        assert all(m.degree == degree for m in poly.terms)
        assert all(coeff == RATIONALS.one() for coeff in poly.terms.values())
    _report(2, time.monotonic() - start, 5, "counts 2, 3, 8, 81, 128")


# ---------------------------------------------------------------------------
# 3. Width-2k circuit form


def test_criterion_03_width_2k_circuits():
    start = time.monotonic()
    sizes = []
    for ell in (2, 3):
        params = FamilyParams(ell, 2)
        c = build_P(params, form="circuit")
        report = validate(c)
        assert report.width <= 4
        assert report.size <= 8 * ell ** 4
        assert mon_set(c).members == family_monomial_set(params)
        sizes.append(report.size)
    _report(3, time.monotonic() - start, 5, f"sizes {sizes} within 8*l^2k")


# ---------------------------------------------------------------------------
# 4. Palindromes


def test_criterion_04_palindromes():
    start = time.monotonic()
    for n in range(1, 9):
        c = build_palindrome(n)
        report = validate(c)
        assert report.width == 2
        assert report.size <= 12 * n
        oracle_terms = {}
        for word in itertools.product((1, 2), repeat=n):
            mono = Monomial.word(word + word[::-1])
            oracle_terms[mono] = RATIONALS.one()
        oracle = SparsePolynomial(RATIONALS, NONCOMMUTATIVE, 2, oracle_terms)
        assert expand(c) == oracle
    _report(4, time.monotonic() - start, 10, "n up to 8, 256 words exact")


# ---------------------------------------------------------------------------
# 5. Balanced-words cross-validation


def test_criterion_05_balanced_words():
    start = time.monotonic()
    for n in range(1, 5):
        prog = build_E_width2(BenOrParams(n), RATIONALS)
        assert prog.register_count == 2
        left = expand(prog)
        abp = build_E_abp(n)
        right = expand(abp)
        assert left == right
        assert all(coeff == RATIONALS.one() for coeff in left.terms.values())
        assert len(left.terms) == math.comb(2 * n, n)
        assert abp.size <= 4 * n * n
    _report(5, time.monotonic() - start, 60, "n 1..4 equal with unit coefficients")


# ---------------------------------------------------------------------------
# 6. Homogeneous components and derivatives


def test_criterion_06_homog_and_deriv():
    start = time.monotonic()
    rng = random.Random(606)
    m = 6
    for trial in range(100):
        registers = rng.randrange(2, 5)
        prog = random_slp(
            rng,
            RATIONALS,
            COMMUTATIVE,
            register_count=registers,
            num_variables=3,
            step_count=rng.randrange(5, 21),
            degree_budget=m,
        )
        f = expand(prog)

        parts = homogeneous_components(prog, m)
        total = SparsePolynomial(RATIONALS, COMMUTATIVE, prog.num_variables, {})
        for i, part in enumerate(parts):
            slice_i = expand(part)
            assert all(mono.degree == i for mono in slice_i.terms), f"trial {trial}"
            assert validate(slp_to_circuit(part)).width <= registers + 3
            total = total.add(slice_i)
        assert total == f, f"trial {trial}"

        j = rng.randrange(0, 4)
        derivative = partial_derivative_y(prog, j, m)
        assert validate(slp_to_circuit(derivative)).width <= registers + 4
        oracle = formal_derivative(f, prog.num_variables, j) if j else f
        assert expand(derivative) == oracle, f"trial {trial}"
    _report(6, time.monotonic() - start, 60, "100 programs, sum and slices exact")


# ---------------------------------------------------------------------------
# 7. Root circuits


def _check_root_instance(rng, n, r, m, check_index_bound):
    prog, planted, y0 = planted_root_program(rng, RATIONALS, n, r)
    problem = RootProblem(prog, r, m, y0)
    if check_index_bound:
        # The simplex count C(m+r+1, r+1) stays below (m+r)^r for r >= 2
        # in this box; at r = 1 the power bound is smaller than even the
        # minimal Taylor support of the root, so it is not asserted there.
        assert len(problem.index_set()) <= (m + r) ** r, (n, r, m)
    out = root_circuit(problem)
    assert expand(out) == planted[0].truncate(m), (n, r, m)
    assert validate(slp_to_circuit(out)).width <= prog.register_count + 6


def test_criterion_07_root_circuits():
    start = time.monotonic()
    rng = random.Random(707)
    for trial in range(25):
        n = rng.randrange(1, 4)
        r = rng.randrange(2, 4)
        m = rng.randrange(1, 5)
        _check_root_instance(rng, n, r, m, check_index_bound=True)
    for trial in range(10):
        _check_root_instance(
            rng, rng.randrange(1, 4), 1, rng.randrange(1, 5), check_index_bound=False
        )
    _report(7, time.monotonic() - start, 120, "25 + 10 planted roots recovered exactly")


# ---------------------------------------------------------------------------
# 8. NW designs


def test_criterion_08_nw_designs():
    start = time.monotonic()
    checked = 0
    for n in range(1, 65):
        limit = (n - 1).bit_length()  # ceil(log2 n)
        for m in range(1, 9):
            design = nw_design(n, m)
            sets = [frozenset(s) for s in design.sets]
            assert len(sets) == n
            assert all(len(s) == m for s in sets)
            for i in range(n):
                for j in range(i + 1, n):
                    assert len(sets[i] & sets[j]) <= limit, (n, m, i, j)
            checked += 1
    _report(8, time.monotonic() - start, 10, f"{checked} designs exhaustively verified")


# ---------------------------------------------------------------------------
# 9. Identity testing


def _copy_formula_node(node):
    if isinstance(node, FOp):
        return FOp(node.op, [_copy_formula_node(child) for child in node.children])
    return node


def _zero_circuits(rng, count):
    """Circuits computing f - f for random formulas f."""
    out = []
    for _ in range(count):
        f = random_formula(
            rng,
            RATIONALS,
            COMMUTATIVE,
            depth=rng.randrange(1, 4),
            num_variables=rng.randrange(1, 5),
        )
        negated = FOp("mul", [FConst(RATIONALS.scalar(-1)), _copy_formula_node(f.root)])
        zero = Formula(
            RATIONALS, COMMUTATIVE, f.num_variables, FOp("add", [f.root, negated])
        )
        out.append(depth_to_width(zero, name="zero"))
    return out


def test_criterion_09_identity_testing():
    start = time.monotonic()
    rng = random.Random(909)

    circuits = _zero_circuits(rng, 100)
    for trial, c in enumerate(circuits):
        verdict = schwartz_zippel(c, trials=3, seed=trial)
        assert verdict.is_zero, f"false nonzero on circuit {trial}"

    # Single-variable product over the first d of S grid points makes the
    # per-trial zero probability exactly d/S.
    d, s = 6, 30
    roots = BIG.sample_points(s)[:d]
    poly = SparsePolynomial.constant(BIG, COMMUTATIVE, 1, 1)
    x = SparsePolynomial.variable(BIG, COMMUTATIVE, 1, 1)
    for root in roots:
        poly = poly.mul(x.add(SparsePolynomial.constant(BIG, COMMUTATIVE, 1, -root)))
    prog = sparse_to_width2(poly, name="rate")
    runs = 10_000
    zeros = sum(
        schwartz_zippel(prog, trials=1, degree_bound=d, seed=seed, sample_size=s).is_zero
        for seed in range(runs)
    )
    expected = d / s
    sigma = math.sqrt(expected * (1 - expected) / runs)
    observed = zeros / runs
    assert abs(observed - expected) <= 3 * sigma, f"rate {observed} vs {expected}"

    for c in circuits[:20]:
        for family in HARD_FAMILIES.values():
            assert nw_pit(c, family, 2).is_zero

    _report(
        9,
        time.monotonic() - start,
        120,
        f"0 false nonzero; rate {observed:.4f} vs {expected:.4f} (sigma {sigma:.4f})",
    )


# ---------------------------------------------------------------------------
# 10. Permanent verifier


def _permanent_candidate(n):
    if n == 1:
        cb = CircuitBuilder(RATIONALS, COMMUTATIVE, 1, name="perm1")
        cb.set_output(cb.var_leaf(1))
        return cb.build()
    poly = build_permanent_sparse(n)
    return slp_to_circuit(sparse_to_width2(poly, name=f"perm{n}"))


def test_criterion_10_permanent_verifier():
    start = time.monotonic()
    for n in (1, 2, 3):
        verdict = verify_permanent_circuit(_permanent_candidate(n), seed=10 + n)
        assert verdict.accepted, f"rejected the correct order-{n} candidate"

    rng = random.Random(1010)
    rejected = 0
    total = 0
    for n in (2, 3):
        candidate = _permanent_candidate(n)
        truth = expand(candidate)
        remaining = 50
        while remaining:
            bad = corrupt_circuit(rng, candidate)
            if expand(bad) == truth:
                continue
            remaining -= 1
            total += 1
            verdict = verify_permanent_circuit(bad, seed=17 + total)
            rejected += not verdict.accepted
    assert rejected == total == 100
    _report(10, time.monotonic() - start, 60, "accepts n 1..3; rejects 100/100")
