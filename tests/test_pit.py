"""Identity testers, design construction, and the permanent verifier."""

import itertools
import math
import random

import numpy as np
import pytest

from genutil import (
    corrupt_circuit,
    evaluate_sparse,
    random_formula,
    random_layered_circuit,
    random_slp,
    reference_nw_pit,
    reference_perm_check_instance,
    reference_schwartz_zippel,
    replace_leaves,
)
from slpforge import circuits, pit
from slpforge.circuits import (
    CircuitBuilder,
    ConstLeaf,
    SlpBuilder,
    VarLeaf,
    evaluate,
    evaluate_batch,
    expand,
    slp_to_circuit,
    validate,
)
from slpforge.errors import (
    BadOperandLayer,
    DanglingOutput,
    FieldTooSmall,
    GridTooLarge,
    ModeMismatch,
    ParamError,
    RingMismatch,
    SlpforgeError,
)
from slpforge.families import build_permanent_sparse, permanent_var_index
from slpforge.formulas import Formula, fadd, fconst, fmul, fvar
from slpforge.pit import (
    HARD_FAMILIES,
    nw_design,
    nw_pit,
    perm_check_instance,
    schwartz_zippel,
    verify_permanent_circuit,
)
from slpforge.polynomials import COMMUTATIVE, NONCOMMUTATIVE
from slpforge.rings import DEFAULT_PRIME, RATIONALS, PrimeField
from slpforge.stagger import staggerize
from slpforge.textio import parse_circuit, parse_polynomial, serialize_circuit
from slpforge.transforms import _BodyEmitter, depth_to_width, sparse_to_width2

BIG = PrimeField((1 << 61) - 1)


def _zero_circuit(ring=RATIONALS):
    # x1 + (-1)*x1, zero by cancellation
    cb = CircuitBuilder(ring, COMMUTATIVE, 2)
    x1 = cb.var_leaf(1)
    neg = cb.gate(2, "mul", x1, cb.const_leaf(-1))
    cb.set_output(cb.gate(3, "add", x1, neg))
    return cb.build()


def _product_circuit(ring=BIG):
    cb = CircuitBuilder(ring, COMMUTATIVE, 2)
    cb.set_output(cb.gate(2, "mul", cb.var_leaf(1), cb.var_leaf(2)))
    return cb.build()


# ---------------------------------------------------------------------------
# Randomized tester

def test_sz_zero_circuit_always_zero():
    verdict = schwartz_zippel(_zero_circuit(), trials=50, seed=1)
    assert verdict.is_zero
    assert verdict.witness is None


def test_sz_nonzero_eventually_with_witness():
    c = _product_circuit()
    verdict = schwartz_zippel(c, trials=20, seed=7)
    assert verdict.status == "nonzero"
    x, y = verdict.witness
    assert not (x * y).is_zero


def test_sz_deterministic_per_seed():
    c = _product_circuit()
    a = schwartz_zippel(c, trials=5, seed=123)
    b = schwartz_zippel(c, trials=5, seed=123)
    assert a == b


def test_sz_parameter_errors():
    with pytest.raises(ParamError):
        schwartz_zippel(_product_circuit(), trials=0)
    cb = CircuitBuilder(RATIONALS, NONCOMMUTATIVE, 2)
    cb.set_output(cb.gate(2, "mul", cb.var_leaf(1), cb.var_leaf(2)))
    with pytest.raises(ModeMismatch):
        schwartz_zippel(cb.build(), trials=1)
    with pytest.raises(FieldTooSmall):
        schwartz_zippel(_product_circuit(PrimeField(3)), trials=1, degree_bound=5)


# ---------------------------------------------------------------------------
# Designs

def test_design_single_set():
    d = nw_design(1, 3)
    assert len(d.sets) == 1
    assert len(d.sets[0]) == 3


def test_design_four_sets_over_f2():
    d = nw_design(4, 2)
    assert (d.q, d.degree_bound) == (2, 2)
    assert [sorted(s) for s in d.sets] == [[0, 2], [1, 3], [0, 3], [1, 2]]


def test_design_nine_sets_over_f3():
    d = nw_design(9, 3)
    assert (d.q, d.degree_bound) == (3, 2)
    for i in range(9):
        for j in range(i + 1, 9):
            assert len(d.sets[i] & d.sets[j]) <= 1


def test_design_restricts_to_m_points():
    d = nw_design(3, 4)  # q = 5 > m, graphs restricted to first 4 points
    assert d.q == 5
    assert all(len(s) == 4 for s in d.sets)
    assert all(max(s) < d.universe_size for s in d.sets)


def test_design_invariants_small_sweep():
    for n in range(1, 21):
        for m in range(1, 6):
            d = nw_design(n, m)
            assert all(len(s) == m for s in d.sets)
            assert len(d.sets) == n
            log_bound = math.ceil(math.log2(n)) if n > 1 else 0
            assert d.degree_bound - 1 <= max(log_bound, 0) or n == 1
            for i in range(n):
                for j in range(i + 1, n):
                    assert len(d.sets[i] & d.sets[j]) <= d.degree_bound - 1


# ---------------------------------------------------------------------------
# Hard families and the grid tester

def test_hard_families_are_deterministic_full_support():
    for fam in HARD_FAMILIES.values():
        poly = fam.polynomial(3, BIG)
        again = fam.polynomial(3, BIG)
        assert poly == again
        assert len(poly.terms) == 8
        assert all(c.value in (1, 2) for c in poly.terms.values())


def test_parity_rule_values():
    fam = HARD_FAMILIES["parity-rule"]
    assert fam.coefficient_rule(3, frozenset()) == 1
    assert fam.coefficient_rule(3, frozenset((0,))) == 2
    assert fam.coefficient_rule(3, frozenset((0, 2))) == 1


def test_hard_family_evaluate_matches_expansion():
    rng = random.Random(40)
    ring = PrimeField(1009)
    for fam in HARD_FAMILIES.values():
        for m in (1, 2, 4):
            poly = fam.polynomial(m, ring)
            for _ in range(4):
                point = [ring.scalar(rng.randrange(1009)) for _ in range(m)]
                assert fam.evaluate(m, ring, point) == evaluate_sparse(poly, point)


def test_hard_family_evaluate_keeps_its_errors():
    fam, ring = HARD_FAMILIES["desk-rule"], PrimeField(101)
    with pytest.raises(ParamError):
        fam.evaluate(2, ring, [ring.one()])
    with pytest.raises(ParamError):
        fam.evaluate_raw(2, ring, np.zeros((3, 4), dtype=np.int64))
    with pytest.raises(RingMismatch):
        fam.evaluate(2, ring, [ring.one(), PrimeField(103).one()])
    with pytest.raises(RingMismatch):
        fam.evaluate(1, RATIONALS, [ring.one()])


# Q, and F_p from p = 2 to int64 and object columns above 2^31.
TABLE_RINGS = (
    RATIONALS, PrimeField(2), PrimeField(3), PrimeField(101),
    PrimeField((1 << 31) - 1), PrimeField(DEFAULT_PRIME),
)


def _check_family_table(fam, ring, m, side):
    """The batched S^m table of P_m equals the expansion at each key, in product order."""
    points = ring.sample_points(side)
    keys = list(itertools.product(range(side), repeat=m))
    columns = []

    def values(key_columns):
        columns.append(key_columns)
        return fam.evaluate_raw(m, ring, key_columns)

    table = pit._family_table(ring, m, points, values)
    assert len(columns) == 1
    assert columns[0].tolist() == [[points[k[i]].value for k in keys] for i in range(m)]
    assert table.dtype == circuits.batch_dtype(ring)
    assert table.shape == (side**m,)
    poly = fam.polynomial(m, ring)
    expected = [evaluate_sparse(poly, [points[t] for t in key]).value for key in keys]
    assert table.tolist() == expected
    assert [type(v) for v in table.tolist()] == [type(v) for v in expected]


@pytest.mark.parametrize("ring", TABLE_RINGS, ids=str)
@pytest.mark.parametrize("fam", HARD_FAMILIES.values(), ids=lambda f: f.name)
def test_family_table_equals_the_expansion_at_every_key(fam, ring):
    for m in range(1, 5):
        for side in range(1, min(7, ring.size or 7) + 1):
            _check_family_table(fam, ring, m, side)


def test_family_table_on_random_shapes():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.sampled_from(sorted(HARD_FAMILIES)),
        st.one_of(
            st.just(RATIONALS),
            st.sampled_from([2, 3, 5, 7, 101, 65537, (1 << 31) - 1, DEFAULT_PRIME]).map(PrimeField),
        ),
        st.integers(1, 5),
        st.integers(1, 9),
    )
    def check(name, ring, m, side):
        hypothesis.assume(side**m <= 2000 and side <= (ring.size or side))
        _check_family_table(HARD_FAMILIES[name], ring, m, side)

    check()


def test_nw_pit_completeness_both_families():
    zc = _zero_circuit()
    for fam in HARD_FAMILIES.values():
        assert nw_pit(zc, fam, 2).is_zero


def test_nw_pit_commutative_cancellation():
    cb = CircuitBuilder(RATIONALS, COMMUTATIVE, 2)
    x1, x2 = cb.var_leaf(1), cb.var_leaf(2)
    ab = cb.gate(2, "mul", x1, x2)
    ba = cb.gate(2, "mul", x2, x1)
    neg = cb.gate(3, "mul", ba, cb.const_leaf(-1))
    cb.set_output(cb.gate(4, "add", cb.copy(3, ab), neg))
    c = cb.build()
    assert expand(c).is_zero
    assert nw_pit(c, HARD_FAMILIES["desk-rule"], 2).is_zero


def test_nw_pit_single_variable_nonzero():
    cb = CircuitBuilder(BIG, COMMUTATIVE, 1)
    cb.set_output(cb.var_leaf(1))
    verdict = nw_pit(cb.build(), HARD_FAMILIES["desk-rule"], 2)
    assert verdict.status == "nonzero"


def test_nw_zero_verdict_shows_only_that_the_composition_vanishes():
    # m = 1 is below the design's degree bound, so set 2 repeats set 0:
    # x1 and x3 read the same input, and x1 - x3 composes to zero.
    design = nw_design(3, 1)
    assert design.m < design.degree_bound
    assert design.sets[0] == design.sets[2]
    cb = CircuitBuilder(PrimeField(101), COMMUTATIVE, 3)
    minus_x3 = cb.gate(2, "mul", cb.var_leaf(3), cb.const_leaf(-1))
    cb.set_output(cb.gate(3, "add", cb.var_leaf(1), minus_x3))
    c = cb.build()
    for hf in HARD_FAMILIES.values():
        assert nw_pit(c, hf, 1).status == "zero"
    assert schwartz_zippel(c, 20).status == "nonzero"


def test_nw_pit_grid_budget():
    with pytest.raises(GridTooLarge):
        nw_pit(_zero_circuit(), HARD_FAMILIES["desk-rule"], 2, grid_budget=10)


def test_a_sample_size_below_one_is_a_param_error():
    # An empty sample set would leave nothing to test: the grid tester
    # would say "zero" on 1 + x1, and the permanent check accept x11*x22.
    ring = PrimeField(101)
    c = _one_plus_x1(ring)
    x11, x22 = (fvar(permanent_var_index(2, i, i)) for i in (1, 2))
    wrong = _formula_circuit(ring, 4, fmul(x11, x22))
    assert verify_permanent_circuit(wrong, "nw_pit").failing_index == 2
    for size in (0, -1):
        with pytest.raises(ParamError):
            nw_pit(c, HARD_FAMILIES["desk-rule"], 2, sample_size=size)
        with pytest.raises(ParamError):
            schwartz_zippel(c, 5, sample_size=size)
        with pytest.raises(ParamError):
            verify_permanent_circuit(wrong, "nw_pit", sample_size=size)
    assert not nw_pit(c, HARD_FAMILIES["desk-rule"], 2, sample_size=1).is_zero
    assert not schwartz_zippel(c, 5, sample_size=1).is_zero


def test_nw_pit_mode_mismatch():
    cb = CircuitBuilder(RATIONALS, NONCOMMUTATIVE, 1)
    cb.set_output(cb.gate(2, "mul", cb.var_leaf(1), cb.var_leaf(1)))
    with pytest.raises(ModeMismatch):
        nw_pit(cb.build(), HARD_FAMILIES["desk-rule"], 2)


# ---------------------------------------------------------------------------
# Permanent verification

def _perm_candidate(n: int):
    return slp_to_circuit(sparse_to_width2(build_permanent_sparse(n)))


def test_perm_accepts_trivial_candidate():
    cb = CircuitBuilder(RATIONALS, COMMUTATIVE, 1)
    cb.set_output(cb.var_leaf(1))
    assert verify_permanent_circuit(cb.build(), seed=5).accepted


def test_perm_accepts_correct_candidates():
    for n in (2, 3):
        verdict = verify_permanent_circuit(_perm_candidate(n), seed=11)
        assert verdict.accepted, n


def test_perm_accepts_with_grid_backend():
    verdict = verify_permanent_circuit(_perm_candidate(2), backend="nw_pit")
    assert verdict.accepted


@pytest.mark.parametrize("ring", [RATIONALS, PrimeField(101)], ids=str)
def test_grid_backend_accepts_a_wrong_permanent(ring):
    # A known blind spot, pinned so that any change to it shows: the 2x2
    # candidate x11*x22 + x12*x21 - x11*x12 + x21*x22 is not the
    # permanent.  Its first identity is identically zero, and its second,
    # x21*x22 - x11*x12, is one the grid test (desk-rule at m = 2) cannot
    # tell from zero, so the grid backend accepts it.  Schwartz-Zippel
    # rejects it at the second identity.  (x11, x12, x21, x22 are x1..x4.)
    _, poly = parse_polynomial(
        f"polynomial bad\nring {ring.descriptor()}\nmode commutative\nvars 4\n"
        "term 1 x1*x4\nterm 1 x2*x3\nterm -1 x1*x2\nterm 1 x3*x4\n"
    )
    assert poly != build_permanent_sparse(2, ring)
    candidate = slp_to_circuit(sparse_to_width2(poly))
    first, second = (expand(p) for p in perm_check_instance(candidate).programs)
    assert first.is_zero and not second.is_zero
    assert verify_permanent_circuit(candidate, "nw_pit") == pit.PermVerdict("accept")
    verdict = verify_permanent_circuit(candidate)
    assert (verdict.status, verdict.failing_index) == ("reject", 2)
    assert verdict.witness == tuple(map(ring.scalar, (3, 2, 3, 3)))


def test_perm_identities_expand_to_zero_and_stay_narrow():
    cand = _perm_candidate(3)
    w = validate(cand).width
    instance = perm_check_instance(cand)
    assert instance.n == 3
    for identity in instance.identities:
        assert expand(identity).is_zero
        assert validate(identity).width <= w + 2


def test_perm_rejects_corruptions():
    rng = random.Random(77)
    cand = _perm_candidate(2)
    truth = expand(cand)
    rejected = 0
    for _ in range(10):
        bad = corrupt_circuit(rng, cand)
        if expand(bad) == truth:
            continue
        verdict = verify_permanent_circuit(bad, seed=rng.randrange(1 << 30))
        assert verdict.status == "reject"
        assert verdict.failing_index is not None
        rejected += 1
    assert rejected >= 5


def test_perm_rejects_wrong_polynomial_with_witness():
    # candidate computes x11*x22 only, missing the second permanent term
    cb = CircuitBuilder(RATIONALS, COMMUTATIVE, 4)
    cb.set_output(
        cb.gate(2, "mul", cb.var_leaf(permanent_var_index(2, 1, 1)),
                cb.var_leaf(permanent_var_index(2, 2, 2)))
    )
    verdict = verify_permanent_circuit(cb.build(), seed=3)
    assert verdict.status == "reject"
    assert verdict.witness is not None


# ---------------------------------------------------------------------------
# The one tester loop against the scalar loops it replaces, on every ring

SMALL_PRIMES = (PrimeField(101), PrimeField((1 << 31) - 1))
# int64 batches below 2^31, object batches of exact numbers above and over Q.
RINGS = SMALL_PRIMES + (RATIONALS, PrimeField(DEFAULT_PRIME))
DESK = HARD_FAMILIES["desk-rule"]


def _formula_circuit(ring, n, root):
    return depth_to_width(Formula(ring, COMMUTATIVE, n, root))


def _zero_formula_circuit(seed, ring, n):
    # f - f, with f drawn twice because formula nodes are not shared.
    f, g = (
        random_formula(random.Random(seed), ring, COMMUTATIVE, 2, num_variables=n)
        for _ in range(2)
    )
    return _formula_circuit(ring, n, fadd(f.root, fmul(fconst(ring, -1), g.root)))


def _product_of_variables(ring, n):
    return _formula_circuit(ring, n, fmul(*(fvar(i) for i in range(1, n + 1))))


def _late_grid_circuit(ring, side):
    """Zero on the first side^3 points of the m = 2 desk-rule grid.

    With one variable, x1 = P_2(y0, y2) and y0 is the slowest coordinate,
    so C = prod_k (x1 - P_2(0, k)) vanishes while y0 = 0; it is nonzero
    at most points with y0 = 1.
    """
    assert [sorted(s) for s in nw_design(1, 2).sets] == [[0, 2]]
    sb = SlpBuilder(ring, COMMUTATIVE, 1, register_count=2)
    sb.load(0, sb.const(1))
    for k in range(side):
        value = DESK.evaluate(2, ring, [ring.zero(), ring.scalar(k)])
        sb.apply(1, "add", sb.var(1), sb.const(-value))
        sb.apply(0, "mul", sb.reg(0), sb.reg(1))
    return slp_to_circuit(sb.finish(0))


def _zero_at_grid_origin(rng, ring, n):
    """f - f(1, ..., 1): every hard family is 1 at the grid origin."""
    f = random_formula(rng, ring, COMMUTATIVE, 3, num_variables=n)
    at_origin = evaluate(depth_to_width(f), [1] * n)
    return _formula_circuit(ring, n, fadd(f.root, fconst(ring, -at_origin)))


def _tester_inputs(seed, ring):
    """Zero, nonzero and late-hit inputs: (circuit, sz sample size, nw sample size)."""
    rng = random.Random(seed)
    yield _zero_formula_circuit(seed, ring, 3), None, 3
    yield random_layered_circuit(rng, ring, COMMUTATIVE, width=3, num_variables=3), None, 3
    yield _zero_at_grid_origin(rng, ring, 4), None, 3
    # x1*x2*x3*x4 on {0, 1} is nonzero at 1 point in 16.
    yield _product_of_variables(ring, 4), 2, 2
    yield _late_grid_circuit(ring, 3), None, 3


@pytest.mark.parametrize(
    "ring", RINGS, ids=lambda r: str(r.p) if isinstance(r, PrimeField) else "Q"
)
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("batch_points", [None, 3])
def test_batched_testers_equal_the_scalar_loops(seed, ring, batch_points, monkeypatch):
    if batch_points is not None:
        # Tiny batches put hits past the first batch on ordinary inputs.
        monkeypatch.setattr(pit, "_BATCH_POINTS", batch_points)
    for c, sz_side, nw_side in _tester_inputs(seed, ring):
        for trials in (1, 7, 40):
            args = (c, trials, None, 100 + seed, sz_side)
            assert schwartz_zippel(*args) == reference_schwartz_zippel(*args)
        for m in (1, 2):
            for fam in HARD_FAMILIES.values():
                args = (c, fam, m, nw_side)
                assert nw_pit(*args) == reference_nw_pit(*args)


def _one_plus_x1(ring):
    cb = CircuitBuilder(ring, COMMUTATIVE, 1)
    cb.set_output(cb.gate(2, "add", cb.var_leaf(1), cb.const_leaf(1)))
    return cb.build()


def _counting_batches(monkeypatch):
    """The column count of every batch the testers evaluate, in order."""
    columns = []

    def batched(obj, cols):
        columns.append(cols.shape[1])
        return evaluate_batch(obj, cols)

    monkeypatch.setattr(pit, "evaluate_batch", batched)
    return columns


def test_a_hit_at_the_first_point_evaluates_one_column(monkeypatch):
    # 1 + x1 is nonzero at every sample point, so the first point hits.
    # An object batch starts at one column; an int64 batch is full from
    # the first point, so each tester evaluates one batch of min(points,
    # cap) columns: the 100 trials, and the 3^4 grid of side 1*2 + 1.
    columns = _counting_batches(monkeypatch)
    for ring in (PrimeField((1 << 31) - 1), RATIONALS):
        c = _one_plus_x1(ring)
        assert not schwartz_zippel(c, trials=100, seed=3).is_zero
        assert not nw_pit(c, DESK, 2).is_zero
        if ring == RATIONALS:
            assert columns == [1, 1]
        else:
            cap = pit._batch_points(pit._cells(c))
            grid = 3 ** nw_design(1, 2).universe_size
            assert columns == [min(100, cap), min(grid, cap)]
        columns.clear()


def test_a_zero_input_that_fits_one_int64_batch_costs_one_fold(monkeypatch):
    # Every trial or grid point fits in the first batch, so a zero input
    # is settled by one evaluate_batch call per test.
    columns = _counting_batches(monkeypatch)
    ring = PrimeField((1 << 31) - 1)
    c = _zero_circuit(ring)
    assert schwartz_zippel(c, trials=100).is_zero
    assert columns == [100]
    columns.clear()
    grid = 3 ** nw_design(2, 2).universe_size  # side 1*2 + 1
    assert nw_pit(c, DESK, 2).is_zero
    assert columns == [grid] and grid <= pit._batch_points(pit._cells(c))
    columns.clear()
    # The permanent check evaluates its candidate once per identity, on
    # k+1 blocks of the 20 trials for B_k (B_1's minor is the constant 1).
    good = slp_to_circuit(sparse_to_width2(build_permanent_sparse(3, ring)))
    assert verify_permanent_circuit(good, trials=20).accepted
    assert columns == [20, 3 * 20, 4 * 20]


def test_object_batches_grow_so_a_hit_at_point_t_costs_under_4t_plus_1(monkeypatch):
    # x1*...*x6 on {0, 1} over Q is nonzero at all ones only, one draw in 64.
    columns = _counting_batches(monkeypatch)
    c = _product_of_variables(RATIONALS, 6)
    hits = set()
    for seed in range(40):
        rng = np.random.Generator(np.random.Philox(seed))
        t = next(t for t in range(1, 4097) if rng.integers(0, 2, size=6).all())
        columns.clear()
        verdict = schwartz_zippel(c, 4096, None, seed, 2)
        assert verdict.witness == (RATIONALS.one(),) * 6
        assert columns == [4**k for k in range(len(columns))]
        assert sum(columns) < 4 * t + 1
        hits.add(t)
    assert max(hits) > 21  # some hit lies past the third batch


def test_object_batches_stop_growing_at_a_sixteenth_of_the_cells(monkeypatch):
    # (128*x1 - 128) * x2, built with one add per step: a few hundred
    # explicit gates, so both caps are below _BATCH_POINTS.
    columns = _counting_batches(monkeypatch)
    for ring, trials in ((PrimeField((1 << 31) - 1), 5000), (RATIONALS, 700)):
        sb = SlpBuilder(ring, COMMUTATIVE, 2, register_count=2)
        sb.load(1, sb.var(1))
        for _ in range(128):
            sb.apply(0, "add", sb.reg(0), sb.reg(1))
            sb.apply(0, "add", sb.reg(0), sb.const(-1))
        sb.apply(0, "mul", sb.reg(0), sb.var(2))
        c = slp_to_circuit(sb.finish(0))
        explicit = len(c.gates.explicit)
        assert explicit > 256
        columns.clear()
        assert schwartz_zippel(c, trials, None, 0, 1).is_zero  # the zero point alone
        assert sum(columns) == trials
        if ring == RATIONALS:
            cap = pit._BATCH_CELLS // 16 // explicit
            assert columns[:6] == [1, 4, 16, 64, cap, cap]
        else:
            cap = pit._BATCH_CELLS // explicit
            assert columns == [cap, trials - cap]
        assert max(columns) == cap < pit._BATCH_POINTS


def test_one_draw_per_batch_is_the_per_trial_stream():
    for seed in (0, 7, 123):
        for n in (0, 1, 5, 13):
            for side in (1, 2, 3, 69, 10**12):
                rng = np.random.Generator(np.random.Philox(seed))
                per_trial = np.array([rng.integers(0, side, size=n) for _ in range(40)])
                rng = np.random.Generator(np.random.Philox(seed))
                blocks = [rng.integers(0, side, size=(b, n)) for b in (1, 3, 3, 8, 25)]
                assert np.array_equal(np.concatenate(blocks), per_trial.reshape(40, n))


def test_batched_sz_first_hit_in_a_later_batch():
    ring = PrimeField((1 << 31) - 1)
    c = _product_of_variables(ring, 12)
    seed, trials = 7, 6000
    # Trial index of the first all-ones draw on {0, 1}: past the first batch.
    rng = np.random.Generator(np.random.Philox(seed))
    first = next(t for t in range(trials) if rng.integers(0, 2, size=12).all())
    assert first >= pit._batch_points(pit._cells(c))
    verdict = schwartz_zippel(c, trials, None, seed, 2)
    assert verdict == reference_schwartz_zippel(c, trials, None, seed, 2)
    assert verdict.witness == (ring.one(),) * 12


def test_batched_nw_first_hit_in_a_later_batch():
    ring, side = PrimeField((1 << 31) - 1), 17
    c = _late_grid_circuit(ring, side)
    verdict = nw_pit(c, DESK, 2, side)
    assert verdict == reference_nw_pit(c, DESK, 2, side)
    assert verdict.witness[0] == ring.one()  # grid index >= 17^3
    assert side**3 >= pit._batch_points(pit._cells(c))


def test_batches_count_the_gate_values_fold_stores():
    # Each register is written once, then all are multiplied into r0:
    # the staggered circuit carries every live register as a copy, which
    # shares its source's value in fold.  Over 256 explicit gates make a
    # batch smaller than _BATCH_POINTS.
    ring = PrimeField((1 << 31) - 1)
    n, registers = 4, 150
    sb = SlpBuilder(ring, COMMUTATIVE, n, register_count=registers)
    for r in range(registers):
        sb.apply(r, "mul", sb.var(r % n + 1), sb.const(2))
    for r in range(1, registers):
        sb.apply(0, "mul", sb.reg(0), sb.reg(r))
    c = slp_to_circuit(sb.finish(0))
    explicit = len(c.gates.explicit)
    assert explicit > 256
    assert c.size > 50 * explicit
    assert pit._batch_points(pit._cells(c)) == pit._BATCH_CELLS // explicit < pit._BATCH_POINTS
    # 2^150 times the product of x_i^37 or x_i^38 is nonzero on {0, 1}^4
    # at all ones only.
    for seed in range(3):
        args = (c, 200, None, seed, 2)
        verdict = schwartz_zippel(*args)
        assert verdict == reference_schwartz_zippel(*args)
        assert verdict.witness == (ring.one(),) * n


def _program_grid(program, m, sample_size, grid_budget):
    """The grid shape nw_pit gives an identity program."""
    return pit._grid_shape(
        program.num_variables, circuits.syntactic_degree(program), m, sample_size, grid_budget
    )


def _perm_by_programs(
    c, backend, seed=0, trials=20, m=2, sample_size=None, grid_budget=pit._GRID_BUDGET,
    sz=schwartz_zippel, nw=nw_pit,
):
    """The permanent check as its identity programs test: one tester call per B_k.

    sz ignores sample_size, and every grid is sized before any runs.
    """
    programs = perm_check_instance(c).programs
    if backend == "nw_pit":
        for program in programs:
            _program_grid(program, m, sample_size, grid_budget)
    for k, program in enumerate(programs, start=1):
        if backend == "schwartz_zippel":
            verdict = sz(program, trials, None, seed + k)
        else:
            verdict = nw(program, DESK, m, sample_size, grid_budget)
        if not verdict.is_zero:
            return pit.PermVerdict("reject", k, verdict.witness)
    return pit.PermVerdict("accept")


def test_perm_verdicts_equal_the_scalar_loops():
    ring = PrimeField((1 << 31) - 1)
    good = slp_to_circuit(sparse_to_width2(build_permanent_sparse(2, ring)))
    rng = random.Random(12)
    candidates = [good] + [corrupt_circuit(rng, good) for _ in range(4)]
    batched = [
        verify_permanent_circuit(c, backend, seed=5, sample_size=3)
        for c in candidates
        for backend in ("schwartz_zippel", "nw_pit")
    ]
    scalar = [
        _perm_by_programs(
            c, backend, seed=5, sample_size=3, sz=reference_schwartz_zippel, nw=reference_nw_pit
        )
        for c in candidates
        for backend in ("schwartz_zippel", "nw_pit")
    ]
    assert batched == scalar
    assert batched[0].accepted and not all(v.accepted for v in batched)


def _perm_candidates(rng, ring, n):
    """Two correct candidates of order n, two corruptions of each, and x11 + 1.

    One is the compiled permanent; the other is the permanent's formula
    plus f - f for a random formula f drawn twice, made narrow.  x11 + 1
    has the same degree in every corner, so B_k's degree is that of its
    minor term, 1 + d_(k-1), for k >= 2.
    """
    compiled = slp_to_circuit(sparse_to_width2(build_permanent_sparse(n, ring)))
    perm = fadd(*(
        fmul(*(fvar(permanent_var_index(n, i, col)) for i, col in enumerate(cols, start=1)))
        for cols in itertools.permutations(range(1, n + 1))
    ))
    seed = rng.randrange(1 << 30)
    f, g = (
        random_formula(random.Random(seed), ring, COMMUTATIVE, 2, num_variables=n * n)
        for _ in range(2)
    )
    hidden = _formula_circuit(ring, n * n, fadd(perm, f.root, fmul(fconst(ring, -1), g.root)))
    good = [compiled, hidden]
    wrong = _formula_circuit(ring, n * n, fadd(fvar(1), fconst(ring, 1)))
    return good + [corrupt_circuit(rng, c) for c in good for _ in range(2)] + [wrong]


def _outcome(check, *args, **kwargs):
    """check's verdict, or the type of the library error it raises."""
    try:
        return check(*args, **kwargs)
    except SlpforgeError as exc:
        return type(exc)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize(
    "ring", [PrimeField(101), PrimeField((1 << 31) - 1), RATIONALS], ids=str
)
def test_perm_check_equals_testing_its_programs(ring, n):
    # The evaluated identities give the verdict, failing index and
    # witness of perm_check_instance's programs, each tested on its own
    # with the same seed or the same grid.  A budget of 20 000 points
    # keeps the object grids small; a grid past it raises GridTooLarge
    # on both paths.
    rng = random.Random(1000 * n + ring.characteristic % 1000)
    candidates = _perm_candidates(rng, ring, n)
    assert verify_permanent_circuit(candidates[0]).accepted
    outcomes = set()
    for c in candidates:
        programs = perm_check_instance(c).programs
        degrees = [circuits.syntactic_degree(program) for program in programs]
        assert pit._laplace_degrees(c, n) == degrees
        for k in range(1, n + 1):
            blocks = k + 1 if k > 1 else 1
            assert pit._laplace_identity(c, n, k)[1] == blocks * len(c.gates.explicit)
        seed = rng.randrange(1 << 30)
        for backend in ("schwartz_zippel", "nw_pit"):
            for sample_size in (None, 3):
                args = (c, backend, seed, 20, 2, sample_size, 20_000)
                got = _outcome(verify_permanent_circuit, *args)
                assert got == _outcome(_perm_by_programs, *args), (backend, sample_size)
                outcomes.add(got if isinstance(got, type) else got.status)
    assert "accept" in outcomes and "reject" in outcomes


def test_perm_check_errors_are_those_of_its_programs():
    # A malformed candidate raises its typed validation error before any
    # degree fold; the order checks, the grid checks and the budget check
    # raise what building and testing the programs raises.  A candidate
    # that was never validated stays so.
    ring = PrimeField(101)
    gates = {
        1: VarLeaf(1), 2: VarLeaf(4), 3: circuits.BinGate("mul", 1, 2),
        4: circuits.BinGate("add", 3, 3), 5: circuits.BinGate("add", 3, 1),
    }
    skips = circuits.LayeredCircuit("skips", ring, COMMUTATIVE, 4, [[1, 2], [3], [4], [5]], gates, 5)
    dangling = circuits.LayeredCircuit(
        "dangling", ring, COMMUTATIVE, 4, [[1, 2], [3]], {g: gates[g] for g in (1, 2, 3)}, 9
    )
    noncommutative = _perm_candidate(2)
    noncommutative = circuits.LayeredCircuit(
        "nc", RATIONALS, NONCOMMUTATIVE, 4, noncommutative.layers,
        noncommutative.gates, noncommutative.output_id,
    )
    cb = CircuitBuilder(ring, COMMUTATIVE, 3)
    cb.set_output(cb.var_leaf(1))
    good = replace_leaves(slp_to_circuit(sparse_to_width2(build_permanent_sparse(3, ring))), {})
    cases = [
        (skips, {}, BadOperandLayer),
        (dangling, {}, DanglingOutput),
        (noncommutative, {}, ModeMismatch),
        (cb.build(), {}, ParamError),
        (good, {"sample_size": 0}, ParamError),
        (good, {"m": 0}, ParamError),
        (good, {"grid_budget": 10}, GridTooLarge),
        (good, {"sample_size": 102, "grid_budget": 10**9}, FieldTooSmall),
    ]
    for c, options, error in cases:
        args = (c, "nw_pit", 0, 20, options.get("m", 2), options.get("sample_size"),
                options.get("grid_budget", pit._GRID_BUDGET))
        assert _outcome(verify_permanent_circuit, *args) is error, (c.name, options)
        assert _outcome(_perm_by_programs, *args) is error, (c.name, options)
    for c, error in ((skips, BadOperandLayer), (good, ParamError)):
        assert _outcome(verify_permanent_circuit, c, trials=0) is error
        assert _outcome(_perm_by_programs, c, "schwartz_zippel", trials=0) is error
    assert good._report is None and skips._report is None


def test_the_perm_check_builds_no_program(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the permanent check built a program")

    ring = PrimeField((1 << 31) - 1)
    good = slp_to_circuit(sparse_to_width2(build_permanent_sparse(3, ring)))
    bad = slp_to_circuit(sparse_to_width2(build_permanent_sparse(3, ring).scale(2)))
    for name in ("perm_check_instance", "staggerize", "SlpBuilder"):
        monkeypatch.setattr(pit, name, refuse)
    for backend in ("schwartz_zippel", "nw_pit"):
        assert verify_permanent_circuit(good, backend).accepted
        assert not verify_permanent_circuit(bad, backend).accepted


def test_each_perm_backend_reads_its_own_options():
    # schwartz_zippel samples from 2 * deg B_k points and ignores m,
    # sample_size and grid_budget, so even sample_size=0 is accepted;
    # nw_pit ignores trials and seed.
    ring = PrimeField(101)
    good = slp_to_circuit(sparse_to_width2(build_permanent_sparse(2, ring)))
    bad = corrupt_circuit(random.Random(3), good)
    for c in (good, bad):
        sz = verify_permanent_circuit(c, "schwartz_zippel", seed=4, trials=9)
        for ignored in ({"sample_size": 0}, {"sample_size": 50}, {"m": 5, "grid_budget": 1}):
            assert verify_permanent_circuit(c, "schwartz_zippel", seed=4, trials=9, **ignored) == sz
        nw = verify_permanent_circuit(c, "nw_pit", sample_size=3)
        for ignored in ({"trials": 0}, {"seed": 17, "trials": 1}):
            assert verify_permanent_circuit(c, "nw_pit", sample_size=3, **ignored) == nw
    assert verify_permanent_circuit(good, "schwartz_zippel", sample_size=0).accepted
    with pytest.raises(ParamError):
        verify_permanent_circuit(good, "nw_pit", sample_size=0)
    with pytest.raises(ParamError):
        verify_permanent_circuit(good, "schwartz_zippel", trials=0)


def test_grid_perm_check_builds_one_family_table_per_sample_size(monkeypatch):
    # The identities share ring and m, so the S^m table of desk-rule is
    # built once per distinct sample size, in one raw evaluation over
    # its S^m keys; the verdicts, witnesses and failing indices are
    # those of one nw_pit per identity.
    ring = PrimeField((1 << 31) - 1)
    desk = pit.HARD_FAMILIES["desk-rule"]
    good = slp_to_circuit(sparse_to_width2(build_permanent_sparse(3, ring)))
    rng = random.Random(19)
    candidates = [good] + [corrupt_circuit(rng, good) for _ in range(4)]
    evaluations = []
    family_evaluate_raw = pit.HardFamily.evaluate_raw

    def counting(self, m, ring, values):
        evaluations.append(len(values[0]))
        return family_evaluate_raw(self, m, ring, values)

    monkeypatch.setattr(pit.HardFamily, "evaluate_raw", counting)
    for c in candidates:
        programs = pit.perm_check_instance(c).programs
        for sample_size in (None, 3):
            expected = pit.PermVerdict("accept")
            for k, program in enumerate(programs, start=1):
                verdict = nw_pit(program, desk, 2, sample_size)
                if not verdict.is_zero:
                    expected = pit.PermVerdict("reject", k, verdict.witness)
                    break
            evaluations.clear()
            got = verify_permanent_circuit(c, "nw_pit", m=2, sample_size=sample_size)
            assert got == expected
            tested = programs[: got.failing_index or len(programs)]
            sizes = {_program_grid(b, 2, sample_size, 10**6)[1] for b in tested}
            assert sorted(evaluations) == sorted(size**2 for size in sizes)
    assert not all(verify_permanent_circuit(c, "nw_pit").accepted for c in candidates)


def test_grid_perm_check_sizes_every_grid_before_running_one(monkeypatch):
    # Every identity's grid is checked against the budget first: with a
    # budget between the smallest and the largest grid, the check raises
    # GridTooLarge and runs no grid, even for a candidate that an
    # identity whose grid fits would reject (declared: it used to reject).
    ring = PrimeField((1 << 31) - 1)
    good = slp_to_circuit(sparse_to_width2(build_permanent_sparse(3, ring)))
    rng = random.Random(19)
    candidates = [good] + [corrupt_circuit(rng, good) for _ in range(4)]
    rejected = [c for c in candidates if not verify_permanent_circuit(c, "nw_pit").accepted]
    assert rejected
    ran = []

    def grid_test(*args):
        ran.append(args)
        return pit.Verdict("zero")

    monkeypatch.setattr(pit, "_grid_test", grid_test)
    for c in rejected:
        grids = []
        for program in pit.perm_check_instance(c).programs:
            design, size = _program_grid(program, 2, None, 10**12)
            grids.append(size**design.universe_size)
        assert min(grids) < max(grids)
        with pytest.raises(GridTooLarge):
            verify_permanent_circuit(c, "nw_pit", grid_budget=min(grids))
        assert ran == []


@pytest.mark.parametrize(
    "ring", [PrimeField((1 << 31) - 1), PrimeField(DEFAULT_PRIME), RATIONALS], ids=str
)
def test_perm_identities_equal_one_staggering_per_part(ring):
    rng = random.Random(31)
    for n in (1, 2, 3):
        good = slp_to_circuit(sparse_to_width2(build_permanent_sparse(n, ring)))
        for c in [good] + [corrupt_circuit(rng, good) for _ in range(3)]:
            ours = perm_check_instance(c).identities
            first = reference_perm_check_instance(c).identities
            assert [serialize_circuit(b) for b in ours] == [serialize_circuit(b) for b in first]


def test_perm_check_leaves_the_candidate_unvalidated():
    c = slp_to_circuit(sparse_to_width2(build_permanent_sparse(2)))
    c = replace_leaves(c, {})  # a fresh circuit, not yet validated
    perm_check_instance(c)
    assert c._report is None


def test_perm_check_walks_a_validated_candidate_no_more(monkeypatch):
    # The CLI's verify-perm validates the candidate when it loads the
    # file; the staggered copy shares that report.
    walked = []
    real_validate = circuits._validate

    def counting_validate(c):
        walked.append(c)
        return real_validate(c)

    monkeypatch.setattr(circuits, "_validate", counting_validate)
    built = [slp_to_circuit(sparse_to_width2(build_permanent_sparse(n))) for n in (2, 3)]
    for candidate in (built[1], parse_circuit(serialize_circuit(built[0]))):
        report = validate(candidate)
        walked.clear()
        assert verify_permanent_circuit(candidate).accepted
        assert walked == []
        assert candidate._report is report


def test_staggering_commutes_with_leaf_maps():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    ring = PrimeField(101)

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.integers(0, 2**32),
        st.integers(1, 6),
        st.sampled_from([COMMUTATIVE, NONCOMMUTATIVE]),
        st.booleans(),
        st.dictionaries(
            st.integers(1, 4),
            st.one_of(
                st.integers(-3, 3).map(lambda v: ConstLeaf(ring.scalar(v))),
                st.integers(1, 4).map(VarLeaf),
            ),
        ),
    )
    def check(seed, width, mode, with_copies, leaves):
        rng = random.Random(seed)
        if with_copies:
            # A staggered circuit: its copies are implicit, and mapping a
            # leaf to 1 makes explicit copies u*1 of some of its gates.
            slp = random_slp(rng, ring, mode, width, num_variables=4, step_count=rng.randrange(16))
            c = slp_to_circuit(slp)
        else:
            c = random_layered_circuit(rng, ring, mode, width)
        program = staggerize(c)
        sb = SlpBuilder(ring, mode, c.num_variables, program.register_count)
        out = _BodyEmitter(sb, program, None).run(leaves=leaves)
        expected = staggerize(replace_leaves(c, leaves))
        assert sb.finish(out).steps == expected.steps
        assert out == expected.output_register

    check()


@pytest.mark.parametrize("ring", [PrimeField((1 << 31) - 1), RATIONALS], ids=str)
def test_perm_check_tests_programs_without_converting(ring, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return slp_to_circuit(*args, **kwargs)

    good = slp_to_circuit(sparse_to_width2(build_permanent_sparse(3, ring)))
    bad = corrupt_circuit(random.Random(5), good)
    monkeypatch.setattr(pit, "slp_to_circuit", counting)
    for c in (good, bad):
        for backend in ("schwartz_zippel", "nw_pit"):
            verify_permanent_circuit(c, backend, seed=3, sample_size=3)
    assert calls == []
    # The identities are still circuits, converted when read.
    assert len(perm_check_instance(good).identities) == 3
    assert len(calls) == 3


def test_perm_requires_square_grid():
    cb = CircuitBuilder(RATIONALS, COMMUTATIVE, 3)
    cb.set_output(cb.var_leaf(1))
    with pytest.raises(ParamError):
        verify_permanent_circuit(cb.build())
    with pytest.raises(ParamError):
        verify_permanent_circuit(_perm_candidate(2), backend="montecarlo")
