import dataclasses
import random
from collections import Counter
from fractions import Fraction
from functools import partial
from math import lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mubasis import arith, grobner
from mubasis.arith import (
    VARS_ST,
    VARS_STU,
    Poly,
    PolyMatrix,
    gcd_many,
    homogenize,
    monomials_of_degree,
)
from mubasis.errors import InternalError
from mubasis.grobner import (
    Vec,
    _buchberger_ext,
    _GradedSpan,
    _is_injective,
    _minimal_syzygies,
    _normalize_items,
    _nullspace,
    _piece_dimensions,
    _schreyer_degree_bound,
    _schreyer_sigmas,
    buchberger,
    free_resolution,
    graded_degree,
    graded_syzygy_space,
    hilbert_function,
    hilbert_quotient,
    ideal_quotient,
    integer_normalize,
    krull_dimension,
    lift_coefficients,
    minimal_generators,
    modules_equal,
    reduce_with_certificate,
    resolution_invariants,
    syzygy_generators,
)
from helpers import (
    COEFF,
    benchmark_corpus,
    injective_by_minors,
    schreyer_degree_bound_by_triples,
    random_form,
    brute_force_syzygies,
    count_conversions,
    draw_form,
    grevlex_key,
    hilbert_by_linear_algebra,
    minimal_resolution,
    minimal_row,
    mono_divides,
    mono_mul,
    nullspace,
    plain_reduce_int,
    random_poly,
    rows_with_redundant_component,
)


S2 = Poly.variable(VARS_ST, "s")
T2 = Poly.variable(VARS_ST, "t")
S = Poly.variable(VARS_STU, "s")
T = Poly.variable(VARS_STU, "t")
U = Poly.variable(VARS_STU, "u")
ONE3 = Poly.const(VARS_STU, 1)
ZERO3 = Poly.zero(VARS_STU)


def homogenized_reference_generators():
    """Degree-2 generators of the homogenized reference surface ideal."""
    return [S**2, T**2, S**2 - U**2, S**2 + U**2]


def reference_presentation_columns():
    """Known syzygy generators of the reference ideal (columns of its 4x4 map)."""
    return [
        (Poly.const(VARS_STU, -2), ZERO3, ONE3, ONE3),
        (-(T**2), U**2, T**2, ZERO3),
        (-(T**2), S**2, ZERO3, ZERO3),
        (U**2 - S**2, ZERO3, S**2, ZERO3),
    ]


class TestBuchberger:
    def test_monomial_generators(self):
        gb = buchberger([S2, T2])
        assert set(gb.generators) == {S2, T2}

    def test_one_reduction_step(self):
        gb = buchberger([S2**2 + T2**2, T2**2])
        assert set(gb.generators) == {S2**2, T2**2}

    def test_single_generator(self):
        gb = buchberger([S2])
        assert gb.generators == [S2]

    def test_mixed_rings_rejected(self):
        with pytest.raises(ValueError, match="mixed rings"):
            buchberger([S2, S])

    def test_reference_ideal_reduces_to_powers(self):
        gb = buchberger(homogenized_reference_generators())
        assert set(gb.generators) == {S**2, T**2, U**2}

    def test_reduced_basis_properties(self):
        rng = random.Random(53)
        for _ in range(6):
            gens = [random_poly(rng, VARS_ST, 3, coeff_bound=4, force_nonzero=True)
                    for _ in range(3)]
            gb = buchberger(gens)
            leads = [max(g.terms, key=grevlex_key) for g in gb.generators]
            for i, g in enumerate(gb.generators):
                assert g.num[max(g.num)] == g.den
                for mono in g.terms:
                    for j, lm in enumerate(leads):
                        if j != i:
                            assert not mono_divides(lm, mono)

    def test_module_basis_directly(self):
        one = Poly.const(VARS_ST, 1)
        zero = Poly.zero(VARS_ST)
        vecs = [(S2, T2), (T2, S2), (zero, S2**2 - T2**2)]
        gb = buchberger(vecs)
        assert gb.contains((S2 + T2, S2 + T2))
        assert not gb.contains((one, zero))


class TestNormalForm:
    def test_multiple_of_lead(self):
        gb = buchberger([S2**2, T2**2])
        assert gb.normal_form(S2**2 * T2).is_zero()

    def test_partial_reduction(self):
        gb = buchberger([S2])
        assert gb.normal_form(S2 + T2) == T2

    def test_irreducible(self):
        gb = buchberger([S**2, T**2, U**2])
        assert gb.normal_form(S * T * U) == S * T * U

    def test_membership_matches_graded_linear_algebra(self):
        rng = random.Random(23)
        for _ in range(8):
            gens = [random_form(rng, VARS_STU, rng.randint(1, 2), coeff_bound=3)
                    for _ in range(3)]
            gb = buchberger(gens)
            for k in range(5):
                assert hilbert_function(gb, k) == hilbert_by_linear_algebra(gens, k)

    def test_membership_iff_normal_form_zero(self):
        # cross-check against exhaustive linear algebra on graded pieces
        rng = random.Random(47)
        for _ in range(6):
            gens = [random_form(rng, VARS_STU, rng.randint(1, 2), coeff_bound=3)
                    for _ in range(2)]
            gb = buchberger(gens)
            for _ in range(6):
                f = random_form(rng, VARS_STU, rng.randint(1, 3), coeff_bound=3)
                in_by_nf = gb.normal_form(f).is_zero()
                k = int(f.degree)
                base = hilbert_by_linear_algebra(gens, k)
                with_f = hilbert_by_linear_algebra(gens + [f], k)
                assert in_by_nf == (with_f == base)

    def test_lift_coefficients(self):
        gens = [S2**2, T2]
        target = S2**2 * T2 + 3 * T2
        coeffs = lift_coefficients(target, gens)
        assert coeffs is not None
        acc = Poly.zero(VARS_ST)
        for c, g in zip(coeffs, gens):
            acc = acc + c * g
        assert acc == target
        assert lift_coefficients(S2, [T2]) is None

    def test_lift_over_zero_generators_is_none(self):
        # no generator to combine, so even the zero target has no lift
        zero, one = Poly.zero(VARS_ST), Poly.const(VARS_ST, 1)
        assert lift_coefficients(zero, [zero, zero]) is None
        assert lift_coefficients(S2, [zero]) is None
        assert lift_coefficients((zero, zero), [(zero, zero)]) is None
        # a zero generator among nonzero ones gets a zero coefficient
        assert lift_coefficients(zero, [zero, T2]) == [zero, zero]
        assert lift_coefficients(S2 * T2, [zero, T2]) == [zero, S2]
        assert lift_coefficients((T2, zero), [(zero, zero), (one, zero)]) == [zero, T2]
        with pytest.raises(ValueError, match="empty"):
            lift_coefficients(S2, [])


class SchreyerOrder:
    """Order induced by the leading terms of a Groebner basis.

    (m, e_i) exceeds (m', e_j) when m * lt(g_i) exceeds m' * lt(g_j) in the
    basis's order (grevlex, ties broken by the leads' module positions),
    remaining ties broken by i.
    """

    name = "schreyer"

    def __init__(self, leads):
        self.leads = list(leads)  # (position, monomial) of each leading term

    def key(self, pm):
        i, mono = pm
        pos, lead = self.leads[i]
        return (grevlex_key(mono_mul(mono, lead)), -pos, -i)


def lead_positions(gb):
    """(position, exponent tuple) of every leading term of a GroebnerBasis."""
    pk = arith.packing(len(gb.vars))
    return [(pk.position(k), pk.unpack(k)) for k, _ in gb.lead_terms]


def schreyer_syzygy_basis(gens):
    """(gb, sigmas, order): Syz(gb.generators) generators that form a Groebner
    basis under the Schreyer order induced by gb's leading terms."""
    vecs, rank, vars, scalar = _normalize_items(gens)
    nonzero = [v for v in vecs if not v.is_zero()]
    gb = _buchberger_ext(nonzero, track_reps=False)
    gb.scalar = scalar
    return gb, _schreyer_sigmas(gb), SchreyerOrder(lead_positions(gb))


def _tuple_terms(vec):
    """{(position, monomial): Fraction} of a tuple of Polys."""
    return {(pos, m): c for pos, p in enumerate(vec) for m, c in p.terms.items()}


def reference_remainder(vec, divisors, order):
    """Remainder of the full division of vec by divisors over Q under order,
    a key on (position, monomial) pairs such as SchreyerOrder.

    Each step takes the greatest term and the first divisor whose leading
    term divides it, on tuple-keyed terms: the division the library ran
    before its terms were packed, kept as a reference for orders other
    than the library's one term order.
    """
    work = _tuple_terms(vec)
    divs = []
    for d in divisors:
        terms = _tuple_terms(d)
        if terms:
            divs.append((max(terms, key=order.key), terms))
    rem = {}
    while work:
        pm = max(work, key=order.key)
        pos, mono = pm
        for (lpos, lmono), terms in divs:
            if lpos == pos and mono_divides(lmono, mono):
                break
        else:
            rem[pm] = work.pop(pm)
            continue
        q = tuple(e - f for e, f in zip(mono, lmono))
        f = work[pm] / terms[lpos, lmono]
        for (bpos, bm), bc in terms.items():
            term = (bpos, mono_mul(bm, q))
            val = work.get(term, 0) - bc * f
            if val:
                work[term] = val
            else:
                work.pop(term, None)
    return rem


class TestSyzygies:
    def test_koszul_relation(self):
        syz = syzygy_generators([S2, T2])
        koszul = (T2, -S2)
        assert modules_equal(syz, [koszul])

    def test_unit_entry(self):
        f = S2**2 + 1
        syz = syzygy_generators([Poly.const(VARS_ST, 1), f])
        assert modules_equal(syz, [(f, Poly.const(VARS_ST, -1))])

    def test_reference_ideal_syzygies_match_known_columns(self):
        syz = syzygy_generators(homogenized_reference_generators())
        assert modules_equal(syz, reference_presentation_columns())

    def test_zero_member_gives_unit_syzygy(self):
        syz = syzygy_generators([S2, Poly.zero(VARS_ST), T2])
        gb = buchberger(syz)
        e2 = (Poly.zero(VARS_ST), Poly.const(VARS_ST, 1), Poly.zero(VARS_ST))
        assert gb.contains(e2)

    def test_every_generator_is_a_syzygy_randomized(self):
        rng = random.Random(31)
        for _ in range(10):
            fam = [random_poly(rng, VARS_ST, 3, coeff_bound=3, force_nonzero=True)
                   for _ in range(3)]
            syz = syzygy_generators(fam)
            for w in syz:
                acc = Poly.zero(VARS_ST)
                for wi, fi in zip(w, fam):
                    acc = acc + wi * fi
                assert acc.is_zero()

    def test_double_inclusion_against_brute_force(self):
        rng = random.Random(37)
        for _ in range(5):
            fam = [random_poly(rng, VARS_ST, 2, coeff_bound=3, force_nonzero=True)
                   for _ in range(3)]
            d = max(int(f.degree) for f in fam)
            syz = syzygy_generators(fam)
            gb = buchberger(syz)
            brute = brute_force_syzygies(fam, 2 * max(d, 1))
            for w in brute:
                assert gb.contains(w)

    def test_schreyer_generators_form_groebner_basis(self):
        gens = [S2**2 + T2, S2 * T2, T2**3]
        gb, sigmas, order = schreyer_syzygy_basis(gens)
        # every brute-force syzygy of the basis reduces to zero against the
        # Schreyer generators using their induced order, with no completion
        brute = brute_force_syzygies(list(gb.generators), 4)
        for w in brute:
            assert not reference_remainder(w, sigmas, order)


class TestFreeResolution:
    def test_koszul_two_linear(self):
        res = free_resolution([S, T])
        assert res.ranks == (2, 1, 0)
        assert sorted(res.shifts0) == [1, 1]
        assert list(res.q) == [2]

    def test_reference_fixed_first_map(self):
        gens = homogenized_reference_generators()
        res = free_resolution(gens)
        assert res.ranks == (4, 4, 1)
        assert sorted(res.q) == [2, 4, 4, 4]
        assert list(res.p) == [6]
        # column spans agree with the published presentation
        assert modules_equal(res.d1.columns(), reference_presentation_columns())

    def test_koszul_complete_intersection(self):
        res = free_resolution([S**2, T**2, U**2])
        assert res.ranks == (3, 3, 1)
        assert sorted(res.shifts0) == [2, 2, 2]
        assert sorted(res.q) == [4, 4, 4]
        assert list(res.p) == [6]

    @pytest.mark.parametrize("as_given", [True, False])
    def test_first_basis_is_the_reduced_basis_of_the_ideal(self, as_given):
        for row in (homogenized_reference_generators(), recipe_row(1, 3),
                    [S**2, T**2, ZERO3, S * T + U**2]):
            res = free_resolution(row) if as_given else minimal_resolution(row)
            nonzero = [g for g in row if not g.is_zero()]
            assert res.first_basis.generators == buchberger(nonzero).generators

    def test_non_homogeneous_rejected(self):
        with pytest.raises(ValueError, match="homogeneous"):
            free_resolution([S + ONE3])

    def test_invariants_koszul_linear(self):
        res = free_resolution([S, T, U])
        table, inv = resolution_invariants(res)
        assert table.totals == {0: 3, 1: 3, 2: 1}
        assert res.betti.regularity == 1
        assert inv["a"] == 1 and inv["gamma1"] == 1 and inv["gamma2"] == 1

    def test_invariants_koszul_quadrics(self):
        res = free_resolution([S**2, T**2, U**2])
        # oracle: max(2-0, 4-1, 6-2) over the Koszul shifts
        assert res.betti.regularity == 4

    def test_invariants_reference(self):
        res = free_resolution(homogenized_reference_generators())
        table, inv = resolution_invariants(res)
        assert inv == {"a": 1, "gamma1": 2, "gamma2": 2}
        assert table.regularity is None

    def test_fixed_first_map_bounds_randomized(self):
        rng = random.Random(41)
        checked = 0
        while checked < 6:
            d = rng.randint(1, 2)
            fam = [random_poly(rng, VARS_ST, d, coeff_bound=3, force_nonzero=True)
                   for _ in range(4)]
            from mubasis.arith import gcd_many, homogenize

            if not gcd_many(fam).is_constant():
                continue
            dd = max(int(f.degree) for f in fam)
            if dd < 1:
                continue
            hom = [homogenize(f, dd) for f in fam]
            res = free_resolution(hom)
            minres = minimal_resolution(hom)
            assert max(res.q) <= 3 * dd - 1
            assert not res.p or max(res.p) <= 3 * dd
            assert res.ranks[2] == minres.ranks[2]  # a = beta_2
            for pp in set(res.p):
                count = sum(1 for x in res.p if x == pp)
                bound = hilbert_function(hom, pp - 2) - hilbert_function(hom, pp - 3)
                assert count <= bound
            checked += 1


class TestHilbert:
    def test_linear_forms(self):
        assert hilbert_function([S, T, U], 1) == 3

    def test_reference_degree_two(self):
        assert hilbert_function(homogenized_reference_generators(), 2) == 3

    def test_squares_degree_three(self):
        # oracle: among the ten degree-3 monomials only s*t*u avoids the ideal
        assert hilbert_function([S**2, T**2, U**2], 3) == 9

    def test_matches_linear_algebra_up_to_3d(self):
        gens = homogenized_reference_generators()
        for k in range(0, 7):
            assert hilbert_function(gens, k) == hilbert_by_linear_algebra(gens, k)

    def test_quotient_complement(self):
        gens = [S**2, T**2, U**2]
        for k in range(6):
            total = len([1 for _ in range(1)]) and (k + 2) * (k + 1) // 2
            assert hilbert_function(gens, k) + hilbert_quotient(gens, k) == total

    def test_leading_monomials_are_read_once_per_basis(self):
        gens = homogenized_reference_generators()
        gb = buchberger(gens)
        got = [(hilbert_function(gb, 0), hilbert_quotient(gb, 0))]
        # the lead keys are cached on the basis: a zero generator has no lead,
        # so a later call that read the generators again would raise
        gb.generators = [ZERO3]
        got += [(hilbert_function(gb, k), hilbert_quotient(gb, k)) for k in range(1, 7)]
        assert got == [(hilbert_function(gens, k), hilbert_quotient(gens, k)) for k in range(7)]
        assert [h for h, _ in got] == [hilbert_by_linear_algebra(gens, k) for k in range(7)]


class TestKrullDimension:
    def test_irrelevant_ideal(self):
        assert krull_dimension([S, T, U]) == 0

    def test_hypersurface(self):
        assert krull_dimension([S]) == 2

    def test_reference_ideal_is_artinian(self):
        # u^2 = ((s^2+u^2) - (s^2-u^2))/2 lies in the ideal, so all cubes die
        assert krull_dimension(homogenized_reference_generators()) == 0

    def test_zero_ideal(self):
        assert krull_dimension([ZERO3]) == 3


class TestIdealQuotient:
    def test_principal(self):
        out = ideal_quotient([S2**2], S2)
        assert modules_equal(out.generators, [S2])

    def test_monomials(self):
        out = ideal_quotient([S2 * T2], T2)
        assert modules_equal(out.generators, [S2])

    def test_linear_by_irrelevant(self):
        out = ideal_quotient([S, T], U)
        assert modules_equal(out.generators, [S, T])

    def test_zero_divisor_ideal(self):
        out = ideal_quotient([S2], Poly.zero(VARS_ST))
        assert list(out.generators) == [Poly.const(VARS_ST, 1)]

    def test_containment_gives_unit(self):
        out = ideal_quotient([S2, T2], S2)
        assert out.contains_constant()


class TestMinimalGenerators:
    def test_redundant_generator_dropped(self):
        kept, degs = minimal_generators([(S,), (T,), (S + T,)], [0])
        assert len(kept) == 2
        assert degs == [1, 1]

    def test_graded_degree_with_shifts(self):
        assert graded_degree((S**2, ZERO3, ONE3), [2, 4, 4]) == 4
        with pytest.raises(ValueError):
            graded_degree((S, ONE3), [0, 0])


# ---------------------------------------------------------------------------
# Minimal generators by graded linear algebra, against per-candidate Groebner
# bases as the reference
# ---------------------------------------------------------------------------


def _graded_items(vectors, shifts):
    items = [(graded_degree(tuple(v), shifts), tuple(v)) for v in vectors
             if any(not p.is_zero() for p in v)]
    return sorted(items, key=lambda t: t[0])


def reference_minimal_generators(vectors, shifts):
    """Keep a candidate unless the Groebner basis of the kept ones contains it.

    Returns (kept, degrees, decisions), one keep/skip decision per nonzero
    candidate in the order they are visited.
    """
    kept, degs, decisions = [], [], []
    for deg, tup in _graded_items(vectors, shifts):
        keep = not kept or not buchberger(kept).contains(tup)
        decisions.append(keep)
        if keep:
            kept.append(integer_normalize(tup))
            degs.append(deg)
    return kept, degs, decisions


def reference_minimal_syzygies(vectors, degrees, row_shifts, target_degrees):
    """Pick minimal syzygies from graded pieces by per-candidate Groebner
    membership, stopping each degree once it has as many as target_degrees."""
    kept, degs = [], []
    for k in sorted(set(target_degrees)):
        want, found = list(target_degrees).count(k), 0
        _, free, vector = graded_syzygy_space(vectors, degrees, row_shifts, k)
        for v in map(vector, range(len(free))):
            if found == want:
                break
            if kept and buchberger(kept).contains(v):
                continue
            kept.append(v)
            degs.append(k)
            found += 1
    return kept, degs


def assert_graded_agrees(vectors, shifts):
    kept, degs, decisions = reference_minimal_generators(vectors, shifts)
    span = _GradedSpan()
    assert [span.add(Vec.from_polys(t), deg)
            for deg, t in _graded_items(vectors, shifts)] == decisions
    assert minimal_generators(vectors, shifts) == (kept, degs)


def assert_same_module(gens_a, gens_b):
    """Double inclusion, each side through one Groebner basis."""
    gb_a, gb_b = buchberger(gens_a), buchberger(gens_b)
    assert all(gb_b.contains(v) for v in gens_a)
    assert all(gb_a.contains(v) for v in gens_b)


def assert_level_agrees(vectors, degrees, row_shifts, cols, col_degrees):
    """One map of a resolution against the Buchberger/Schreyer route.

    The oracle is minimal_generators(syzygy_generators(vectors)): the same
    degree multiset, the same module, and the same picks as per-candidate
    Groebner membership on graded pieces.  The scan up to the Schreyer
    bound of a Groebner basis of the vectors, with piece dimensions taken
    from the nullspaces themselves, makes the resolution's picks, and the
    bound covers every kept degree.
    """
    basis = buchberger(vectors)
    bound = _schreyer_degree_bound(basis, degrees, row_shifts)
    assert bound == schreyer_degree_bound_by_triples(basis, degrees, row_shifts)
    picked = _minimal_syzygies(vectors, degrees, row_shifts,
                               lambda k: graded_syzygy_space(vectors, degrees, row_shifts, k)[0],
                               bound)
    assert picked == (list(cols), list(col_degrees))
    oracle, oracle_degs = minimal_generators(syzygy_generators(vectors), degrees)
    assert sorted(col_degrees) == sorted(oracle_degs)
    if not oracle:
        return
    assert_same_module(oracle, list(cols))
    assert picked == reference_minimal_syzygies(vectors, degrees, row_shifts, oracle_degs)
    assert bound >= max(col_degrees)


def assert_resolution_selections_agree(row):
    """Every selection free_resolution(row) makes."""
    nonzero = [g for g in row if not g.is_zero()]
    assert_graded_agrees([(g,) for g in nonzero], [0])
    res = free_resolution(row)
    assert_graded_agrees(syzygy_generators(list(res.gens)), res.shifts0)
    cols1 = [tuple(c) for c in res.d1.columns()] if res.d1 is not None else []
    assert_level_agrees([(g,) for g in res.gens], res.shifts0, [0], cols1, res.q)
    if not cols1:
        return res
    assert_graded_agrees(syzygy_generators(cols1), res.q)
    cols2 = [tuple(c) for c in res.d2.columns()] if res.d2 is not None else []
    assert_level_agrees(cols1, res.q, res.shifts0, cols2, res.p)
    if cols2:
        assert _is_injective(res.d2)
        assert all(x.is_zero() for w in syzygy_generators(cols2) for x in w)
    return res


def overstate_nullspaces(monkeypatch):
    """Make graded_syzygy_space report one dimension more than its basis has.
    The real space is built without the known dimension, so that no row is
    left over to certify and a scan sees the overstated dimension."""
    real = grobner.graded_syzygy_space

    def overstated(vectors, degrees, row_shifts, k, dim=None):
        built, free, vector = real(vectors, degrees, row_shifts, k)
        return built + 1, free, vector

    monkeypatch.setattr(grobner, "graded_syzygy_space", overstated)


def count_minor_expansions(monkeypatch):
    """Log each PolyMatrix.maximal_minors call from here on."""
    calls, real = [], PolyMatrix.maximal_minors
    monkeypatch.setattr(PolyMatrix, "maximal_minors", lambda m: calls.append(1) or real(m))
    return calls


def recipe_row(seed, d):
    """Homogenized ROADMAP baseline tuple: Random(seed), every component of
    exact degree d, redrawn until the components are coprime."""
    rng = random.Random(seed)
    while True:
        polys = [random_poly(rng, VARS_ST, d, coeff_bound=3, density=0.5) for _ in range(4)]
        if all(p.degree == d for p in polys) and gcd_many(polys).is_constant():
            return [homogenize(p, d) for p in polys]


def criterion_4_rows(count):
    """The first rows of the acceptance suite's criterion-4 stream."""
    rng = random.Random(20240 + 1)
    rows = []
    while len(rows) < count:
        polys = [random_poly(rng, VARS_ST, rng.randint(0, 3), coeff_bound=3,
                             density=0.5) for _ in range(4)]
        nz = [p for p in polys if not p.is_zero()]
        if not nz or not gcd_many(nz).is_constant():
            continue
        d = max(int(p.degree) for p in nz)
        if d >= 1:
            rows.append([homogenize(p, d) for p in polys])
    return rows


class TestGradedMinimalGenerators:
    def test_reference_row_drops_its_redundant_generator(self):
        row = homogenized_reference_generators()
        kept, _, decisions = reference_minimal_generators([(g,) for g in row], [0])
        assert decisions == [True, True, True, False]
        assert_resolution_selections_agree(row)

    @pytest.mark.parametrize("seed,d", [(1, 2), (2, 2), (3, 2), (1, 3)])
    def test_recipe_rows(self, seed, d):
        assert_resolution_selections_agree(recipe_row(seed, d))

    @pytest.mark.parametrize("index", range(4))
    def test_criterion_4_rows(self, index):
        assert_resolution_selections_agree(criterion_4_rows(4)[index])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_recipe_d3_rows_whose_bound_is_tight(self, seed):
        # the Schreyer bound of each map is its top degree (6, then 7), so a
        # scan to a bound that stopped one degree early would miss generators
        row = recipe_row(seed, 3)
        res = assert_resolution_selections_agree(row)
        assert _schreyer_degree_bound(res.first_basis, res.shifts0, [0]) == max(res.q) == 6
        assert schreyer_degree_bound_by_triples(res.first_basis, res.shifts0, [0]) == 6
        basis = buchberger([tuple(c) for c in res.d1.columns()])
        assert _schreyer_degree_bound(basis, res.q, res.shifts0) == max(res.p) == 7
        assert schreyer_degree_bound_by_triples(basis, res.q, res.shifts0) == 7

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_recipe_d3_scan_stops_at_the_top_degrees(self, seed, monkeypatch):
        # the first map scans degrees 3..6 (its Schreyer bound) and the
        # second 5..7, where it stops at its rank; only the pieces that keep
        # a generator are built, degrees 5, 6 for the first and 7 for the second
        calls = []
        real = grobner.graded_syzygy_space

        def counting(*args, **kwargs):
            calls.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(grobner, "graded_syzygy_space", counting)
        free_resolution(recipe_row(seed, 3))
        assert calls == [5, 6, 7]

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_recipe_d3_pieces_are_eliminated_up_to_their_rank(self, seed, monkeypatch):
        # each first-map piece has full row rank, so all its rows go in; the
        # second map's degree-7 piece has rank 24, and its elimination stops
        # once 24 rows have gone in, before its rows run out
        pieces, counts, inside = [], [], []
        real_nullspace, real_add = grobner._nullspace, grobner._echelon_add

        def counting_add(rows, vec):
            added = real_add(rows, vec)
            if inside:  # not the _GradedSpan calls
                counts[-1][added] += 1
            return added

        def recording(rows, ncols, rank=None):
            counts.append(Counter())
            pieces.append((sum(1 for r in rows if any(r.values())), rank))
            inside.append(1)
            try:
                return real_nullspace(rows, ncols, rank)
            finally:
                inside.pop()

        monkeypatch.setattr(grobner, "_echelon_add", counting_add)
        monkeypatch.setattr(grobner, "_nullspace", recording)
        free_resolution(recipe_row(seed, 3))
        (rows5, rank5), (rows6, rank6), (rows7, rank7) = pieces
        assert (rows5, rank5, rows6, rank6) == (21, 21, 28, 28)
        assert counts[:2] == [Counter({True: 21}), Counter({True: 28})]
        assert rank7 == counts[2][True] == 24
        assert 24 + counts[2][False] < rows7 and rows7 >= 58

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_recipe_d3_picks_in_free_coordinates(self, seed, monkeypatch):
        # picks never go through a full-width membership test, and the
        # first map's degree-6 piece (12 dimensions, 9 products of the three
        # degree-5 syzygies) is built without a rank test; the rank tests
        # left, first map at 3, 4 and second map at 5, 6, have nothing kept
        ranks, adds = [], []
        real_rank = _GradedSpan.rank

        def recording(span, deg):
            ranks.append((deg, len(span.kept)))
            return real_rank(span, deg)

        monkeypatch.setattr(_GradedSpan, "rank", recording)
        monkeypatch.setattr(_GradedSpan, "add", lambda *args: adds.append(args))
        free_resolution(recipe_row(seed, 3))
        assert adds == []
        assert ranks == [(3, 0), (4, 0), (5, 0), (6, 0)]

    def test_spanned_piece_is_skipped_unbuilt(self, monkeypatch):
        # the first map of mixed/13 keeps two degree-2 syzygies, whose six
        # products span its 6-dimensional degree-3 piece: the rank test runs
        # and no nullspace is built there
        ranks, built = [], []
        real_rank, real_space = _GradedSpan.rank, grobner.graded_syzygy_space

        def recording(span, deg):
            ranks.append((deg, len(span.kept), real_rank(span, deg)))
            return ranks[-1][2]

        def space(vectors, degrees, row_shifts, k, dim=None):
            built.append((k, row_shifts))
            return real_space(vectors, degrees, row_shifts, k, dim)

        monkeypatch.setattr(_GradedSpan, "rank", recording)
        monkeypatch.setattr(grobner, "graded_syzygy_space", space)
        free_resolution(criterion_4_rows(14)[13])
        assert (3, 2, 6) in ranks
        assert [k for k, sh in built if sh == [0]] == [2, 4]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_basis_vectors_are_units_at_the_free_columns(self, seed):
        row = recipe_row(seed, 3)
        for k in (5, 6):
            built, free, vector = graded_syzygy_space([(g,) for g in row], [3] * 4, [0], k)
            assert built == len(free) == len(set(free))
            for j in range(built):
                v = vector(j)
                at_free = [v[i].num.get(mono, 0) for i, mono in free]
                assert at_free[j] and not any(x for n, x in enumerate(at_free) if n != j)

    @pytest.mark.parametrize("row", [
        [S * T, S * U, T * U],  # pairwise lcms all equal s*t*u
        [S * T, S * U, T * U, S * T * U],
    ])
    @pytest.mark.parametrize("as_given", [True, False])
    def test_rows_with_equal_pairwise_lcms(self, row, as_given):
        # no lead prunes a pair whose lcm it shares, so the degree 3 pairs count
        assert_resolution_selections_agree(row if as_given else minimal_row(row))

    def test_row_with_zero_component(self):
        row = [S**2, T**2, ZERO3, S * T + U**2]
        assert_resolution_selections_agree(row)
        vectors = [(S, ZERO3), (ZERO3, ZERO3), (T * S, ZERO3), (ZERO3, U), (S, U)]
        assert_graded_agrees(vectors, [0, 0])

    @pytest.mark.parametrize("row", [
        [S**2 - T * U, T**2, U**2, ZERO3],
        [S**2, T**2, S * T, S**2 + 2 * T**2],  # fourth generator is redundant
        [S, T**2, S * T, U],  # s*t is generated by s
    ])
    @pytest.mark.parametrize("as_given", [True, False])
    def test_zero_or_redundant_generator(self, row, as_given):
        assert_resolution_selections_agree(row if as_given else minimal_row(row))

    @pytest.mark.parametrize("index", [0, 2])
    def test_minimal_first_map(self, index):
        assert_resolution_selections_agree(minimal_row(criterion_4_rows(4)[index]))

    def test_no_groebner_basis_per_candidate(self, monkeypatch):
        calls = []
        real = grobner.buchberger

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(grobner, "buchberger", counting)
        for row in (homogenized_reference_generators(), recipe_row(1, 3)):
            minimal_generators(syzygy_generators(row), [int(g.degree) for g in row])
            assert calls == []
            for r in (row, minimal_row(row)):
                free_resolution(r)
                # one basis of the ideal; the second map stops at its rank
                assert len(calls) == 1
                calls.clear()

    def test_no_syzygy_generators_or_module_equality(self, monkeypatch):
        calls = []
        for name in ("syzygy_generators", "modules_equal"):
            monkeypatch.setattr(grobner, name, lambda *a, name=name, **k: calls.append(name))
        for row in (homogenized_reference_generators(), recipe_row(1, 3),
                    [S**2, T**2, ZERO3, S * T + U**2]):
            for r in (row, minimal_row(row)):
                free_resolution(r)
        assert calls == []

    def test_second_map_with_dependent_columns_is_rejected(self, monkeypatch):
        real = grobner._minimal_syzygies

        def dependent(vectors, degrees, row_shifts, *args, **kwargs):
            cols, degs = real(vectors, degrees, row_shifts, *args, **kwargs)
            if row_shifts != [0]:  # the second map: make its last column dependent
                cols[-1] = tuple(2 * x for x in cols[0])
            return cols, degs

        row = recipe_row(2, 3)
        res = free_resolution(row)
        assert _is_injective(res.d2)
        monkeypatch.setattr(grobner, "_minimal_syzygies", dependent)
        with pytest.raises(InternalError, match="length two"):
            free_resolution(row)

    @pytest.mark.parametrize("row", [[S * T, S * U, T * U], [S, T, ZERO3]])
    def test_pd1_row_scans_no_piece_for_its_second_map(self, row, monkeypatch):
        # ker d1 is free of rank r1 - r0 + 1 = 0, so its scan ends before a piece
        shifts = []
        real = grobner.graded_syzygy_space

        def recording(*args, **kwargs):
            shifts.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(grobner, "graded_syzygy_space", recording)
        res = free_resolution(row)
        assert res.ranks[1] == len(row) - 1 and res.ranks[2] == 0
        assert shifts and all(sh == [0] for sh in shifts)  # first-map pieces only

    def test_second_map_short_of_its_rank_is_an_internal_error(self):
        res = free_resolution([S**2, T**2, U**2])
        cols1 = [tuple(c) for c in res.d1.columns()]
        cap = 3 * max(int(g.degree) for g in res.first_basis)
        _, second = _piece_dimensions(res.first_basis, res.shifts0)
        dims = partial(second, res.q)
        assert _minimal_syzygies(cols1, res.q, res.shifts0, dims, cap, count=1) == \
            ([tuple(c) for c in res.d2.columns()], [6])
        with pytest.raises(InternalError, match="rank 2"):
            _minimal_syzygies(cols1, res.q, res.shifts0, dims, cap, count=2)

    def test_nullspace_off_the_hilbert_function_is_an_internal_error(self, monkeypatch):
        overstate_nullspaces(monkeypatch)
        with pytest.raises(InternalError, match="not 1 as the Hilbert function gives"):
            free_resolution([S, T])

    def test_unspanned_graded_piece_is_an_internal_error(self, monkeypatch):
        # a Hilbert-function dimension overstated like the nullspace's passes
        # the dimension check, and the kept syzygies then fall short of it
        row = [(S,), (T,)]
        first, _ = _piece_dimensions(buchberger([S, T]), [1, 1])
        overstate_nullspaces(monkeypatch)
        with pytest.raises(InternalError, match="do not span"):
            _minimal_syzygies(row, [1, 1], [0], lambda k: first(k) + 1, 2)

    @pytest.mark.parametrize("excess,match", [
        (1, "a row left over at rank 14 does not vanish on the nullspace"),
        (-1, "degree-4 syzygies have dimension 3, not 2 as the Hilbert function gives"),
    ])
    def test_hilbert_dimension_off_by_one_is_an_internal_error(self, excess, match):
        # the degree-4 piece of (s^2, t^2, u^2) has 18 columns, rank 15 and
        # the 3 Koszul syzygies; an overstated dimension stops elimination
        # short of the rank, and an understated one is never reached
        row = [S**2, T**2, U**2]
        first, _ = _piece_dimensions(buchberger(row), [2, 2, 2])
        dims = lambda k: first(k) + excess * (k == 4)
        with pytest.raises(InternalError, match=match):
            _minimal_syzygies([(g,) for g in row], [2, 2, 2], [0], dims, 4)

    def test_injectivity_by_maximal_minors(self):
        assert _is_injective(PolyMatrix.from_columns([(S, T, U), (T, U, S)]))
        assert not _is_injective(PolyMatrix.from_columns([(S, T, U), (S * T, T**2, T * U)]))
        assert not _is_injective(PolyMatrix.from_columns([(S,), (T,)]))

    def test_injective_matrix_whose_minors_vanish_at_the_point(self, monkeypatch):
        # every maximal minor has the factor 3s - 2t, zero at (s, t) = (2, 3):
        # the evaluated rank is 1, and only an expanded minor proves the rank 2
        h = 3 * S - 2 * T
        m = PolyMatrix.from_columns([(h * S, h * T, h * U), (T, U, S)])
        calls = count_minor_expansions(monkeypatch)
        assert _is_injective(m)
        assert calls == [1]
        assert injective_by_minors(m)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_injectivity_at_the_point_expands_no_minor(self, seed, monkeypatch):
        res = free_resolution(recipe_row(seed, 3))
        calls = count_minor_expansions(monkeypatch)
        assert res.d2.cols == 3 and _is_injective(res.d2)
        assert calls == []


def edited(m: PolyMatrix, i, j, entry) -> PolyMatrix:
    """m with entry (i, j) replaced."""
    rows = [list(r) for r in m.entries]
    rows[i][j] = entry
    return PolyMatrix(rows)


class TestResolutionValidation:
    """FreeResolution.validate on a resolution of the reference row with one
    defect put in: d1 = [c0 | c1 | c2 | c3] with c0 = (2, 0, -1, -1) of
    degree 2 and c1 = (t^2, -s^2, 0, 0) of degree 4, and d2 = (0, u^2, -s^2,
    t^2) of degree 6."""

    @pytest.fixture
    def res(self):
        res = free_resolution(homogenized_reference_generators())
        assert res.q == (2, 4, 4, 4) and res.p == (6,)
        res.validate()
        return res

    def test_changed_first_map_entry(self, res):
        res = dataclasses.replace(res, d1=edited(res.d1, 0, 1, 2 * T**2))
        with pytest.raises(InternalError, match="not syzygies"):
            res.validate()

    def test_changed_second_map_entry(self, res):
        res = dataclasses.replace(res, d2=edited(res.d2, 1, 0, 2 * U**2))
        with pytest.raises(InternalError, match="composition of consecutive maps is nonzero"):
            res.validate()

    def test_unit_entry_in_the_second_map(self, res):
        # c0 twice in d1 and their difference, with entries 1 and -1, in d2
        c0 = res.d1.column(0)
        d1 = PolyMatrix.from_columns(res.d1.columns() + [c0])
        d2 = PolyMatrix.from_columns([res.d2.column(0) + [ZERO3],
                                      [ONE3, ZERO3, ZERO3, ZERO3, -ONE3]])
        res = dataclasses.replace(res, d1=d1, q=res.q + (2,), d2=d2, p=res.p + (2,))
        assert all(x.is_zero() for row in (d1 * d2).entries for x in row)
        with pytest.raises(InternalError, match="second map has a unit entry"):
            res.validate()

    @pytest.mark.parametrize("level", ["d1", "d2"])
    def test_entry_of_the_wrong_degree(self, res, level):
        # a column times s stays in the kernel with entries one degree too high
        m = getattr(res, level)
        m = PolyMatrix.from_columns([[S * x for x in c] if j == 0 else c
                                     for j, c in enumerate(m.columns())])
        res = dataclasses.replace(res, **{level: m})
        with pytest.raises(InternalError, match="degree does not match the grading"):
            res.validate()


class TestRepresentations:
    """Only lifting and syzygy callers track representations."""

    def test_buchberger_builds_none(self, monkeypatch):
        calls = []
        real = grobner._add_combination
        monkeypatch.setattr(grobner, "_add_combination",
                            lambda *a: calls.append(1) or real(*a))
        row = recipe_row(1, 3)
        assert buchberger(row).reps is None
        free_resolution(row)
        assert calls == []
        lift_coefficients(row[0], row)
        assert calls

    def test_lifts_and_syzygies_stay_exact(self):
        rng = random.Random(59)
        for _ in range(5):
            gens = [random_form(rng, VARS_STU, 2, coeff_bound=3) for _ in range(3)]
            gens = [g for g in gens if not g.is_zero()]
            for _ in range(3):
                cofs = [random_form(rng, VARS_STU, 1, coeff_bound=3) for _ in gens]
                target = sum((c * g for c, g in zip(cofs, gens)), ZERO3)
                coeffs = lift_coefficients(target, gens)
                assert coeffs is not None
                assert sum((c * g for c, g in zip(coeffs, gens)), ZERO3) == target
            syz = syzygy_generators(gens)
            for w in syz:
                assert sum((a * g for a, g in zip(w, gens)), ZERO3).is_zero()
            syz_gb = buchberger(syz) if syz else None
            for w in brute_force_syzygies(gens, 2):
                assert syz_gb.contains(w)


@st.composite
def graded_candidates(draw):
    """Homogeneous vectors of rank <= 3 over Q[s,t,u], some of them
    combinations of others, in a drawn order; returns (vectors, shifts)."""
    rank = draw(st.integers(1, 3))
    shifts = draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank))
    base = []
    for _ in range(draw(st.integers(1, 3))):
        deg = max(shifts) + draw(st.integers(0, 1))
        base.append((deg, tuple(draw_form(draw, deg - sh) for sh in shifts)))
    derived = []
    for _ in range(draw(st.integers(0, 3))):
        (di, gi), (dj, gj) = draw(st.sampled_from(base)), draw(st.sampled_from(base))
        deg = max(di, dj) + draw(st.integers(0, 1))
        mi = Poly(VARS_STU, {draw(st.sampled_from(monomials_of_degree(3, deg - di))): 1})
        mj = Poly(VARS_STU, {draw(st.sampled_from(monomials_of_degree(3, deg - dj))): 1})
        c = draw(COEFF)
        derived.append(tuple(mi * a + mj * b * c for a, b in zip(gi, gj)))
    vectors = draw(st.permutations([g for _, g in base] + derived))
    return vectors, shifts


@settings(max_examples=40, deadline=5000)
@given(graded_candidates())
def test_graded_selection_matches_groebner_membership(case):
    assert_graded_agrees(*case)


def integer_rows(rows):
    """Each rational row scaled by the lcm of its denominators, as sparse
    {column: nonzero int} rows: the same nullspace."""
    out = []
    for r in rows:
        den = lcm(*(x.denominator for x in r))
        out.append({c: int(x * den) for c, x in enumerate(r) if x})
    return out


RATIONAL_MATRICES = st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3), min_size=n, max_size=n),
    min_size=0, max_size=5).map(lambda rows: (rows, n)))


@settings(max_examples=60, deadline=2000)
@given(RATIONAL_MATRICES, st.randoms(use_true_random=False))
def test_fraction_nullspace_matches_dense_elimination(case, rng):
    rows, ncols = case
    sparse = integer_rows(rows)
    dim, basis = _nullspace(sparse, ncols)
    expected = nullspace(rows, ncols)
    got = list(basis)
    assert dim == len(expected) == len(got)
    for v, want in zip(got, expected):
        assert all(type(x) is int for x in v)
        free = max(j for j, x in enumerate(v) if x)  # the free column comes last
        assert [Fraction(x, v[free]) for x in v] == want
    rng.shuffle(sparse)  # the reduced echelon form, hence the basis, is unique
    assert list(_nullspace(sparse, ncols)[1]) == got


@settings(max_examples=60, deadline=2000)
@given(RATIONAL_MATRICES, st.randoms(use_true_random=False), st.data())
def test_fraction_nullspace_with_a_known_rank(case, rng, data):
    rows, ncols = case
    sparse = integer_rows(rows)
    dim, basis = _nullspace(sparse, ncols)
    rank = ncols - dim
    for _ in range(2):  # as given, then shuffled
        assert _nullspace(sparse, ncols, rank) == (dim, basis)
        rng.shuffle(sparse)
    if rank:  # stopped short of the rank, a row left over fails its check
        low = data.draw(st.integers(0, rank - 1))
        with pytest.raises(InternalError, match=f"left over at rank {low} does not vanish"):
            _nullspace(sparse, ncols, low)
    # a rank above the true one is never reached: full elimination, whose
    # dimension exceeds the one the caller expects
    high = data.draw(st.integers(rank + 1, ncols + 1))
    assert _nullspace(sparse, ncols, high) == (dim, basis)
    assert dim > ncols - high


@st.composite
def homogeneous_matrices(draw):
    """An m x n matrix over Q[s,t,u], 1 <= n <= 3, homogeneous for drawn
    row shifts and column degrees, entries of degree 0 to 2; with a drawn
    flag its last column is a form times an earlier one, so it is
    rank-deficient."""
    n = draw(st.integers(1, 3))
    shifts = draw(st.lists(st.integers(0, 1), min_size=1, max_size=4))
    cols = []
    for _ in range(n):
        deg = draw(st.integers(1, 2))
        cols.append([draw_form(draw, deg - sh) for sh in shifts])
    if n > 1 and draw(st.booleans()):
        f = draw_form(draw, draw(st.integers(0, 1)))
        cols[-1] = [f * x for x in cols[draw(st.integers(0, n - 2))]]
    return PolyMatrix.from_columns(cols)


@settings(max_examples=200, deadline=None)
@given(homogeneous_matrices())
def test_injectivity_matches_the_maximal_minors(m):
    assert _is_injective(m) == injective_by_minors(m)


@pytest.mark.parametrize("workload", ["full_d2", "mixed", "bounds_d3"])
def test_schreyer_bound_matches_the_triple_loop_on_the_benchmark_corpus(workload):
    from mubasis.cli import parse_parametrization
    from mubasis.pipeline import resolve, validate

    for item in benchmark_corpus().build(workload, 1):
        res = resolve(validate(parse_parametrization(item.text).polys))
        assert _schreyer_degree_bound(res.first_basis, res.shifts0, [0]) == \
            schreyer_degree_bound_by_triples(res.first_basis, res.shifts0, [0]), item.key


@st.composite
def homogeneous_rows(draw):
    """One to four forms in s, t, u of degrees 0 to 2, some of them zero
    and some combinations of the others, in a drawn order."""
    row = [draw_form(draw, draw(st.sampled_from([0, 1, 2, 2])))
           for _ in range(draw(st.integers(1, 4)))]
    nonzero = [g for g in row if not g.is_zero()]
    if nonzero and draw(st.booleans()):
        a, b = draw(st.sampled_from(nonzero)), draw(st.sampled_from(nonzero))
        deg = max(int(a.degree), int(b.degree)) + draw(st.integers(0, 1))
        ma = draw_form(draw, deg - int(a.degree))
        mb = draw_form(draw, deg - int(b.degree))
        row.append(ma * a + mb * b)
    row = draw(st.permutations(row))
    assume(any(not g.is_zero() for g in row))
    return row


@settings(max_examples=200, deadline=None)
@given(homogeneous_rows())
def test_piece_dimensions_match_the_nullspaces(row):
    # for both maps and every degree up to its Schreyer bound
    res = free_resolution(row)
    first, second = _piece_dimensions(res.first_basis, res.shifts0)
    vectors = [(g,) for g in res.gens]
    top = _schreyer_degree_bound(res.first_basis, res.shifts0, [0])
    assert top == schreyer_degree_bound_by_triples(res.first_basis, res.shifts0, [0])
    for k in range(top + 1):
        assert first(k) == graded_syzygy_space(vectors, res.shifts0, [0], k)[0]
    if res.d1 is None:
        return
    cols1 = [tuple(c) for c in res.d1.columns()]
    basis = buchberger(cols1)
    top = _schreyer_degree_bound(basis, res.q, res.shifts0)
    assert top == schreyer_degree_bound_by_triples(basis, res.q, res.shifts0)
    for k in range(top + 1):
        assert second(res.q, k) == graded_syzygy_space(cols1, res.q, res.shifts0, k)[0]


def test_nullspace_of_integer_rows_constructs_no_fraction(monkeypatch):
    rng = random.Random(5)
    rows = [{c: rng.randint(-9, 9) for c in range(7) if rng.random() < 0.7} for _ in range(4)]
    rows = [{c: x for c, x in r.items() if x} for r in rows]  # nonzero entries only
    calls = []
    real = grobner.Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(grobner.Fraction, "__new__", counting)
    dim, basis = _nullspace(rows, 7)
    got = list(basis)
    assert calls == []
    monkeypatch.undo()
    assert dim == len(got) >= 3
    for v in got:
        assert all(sum(c * v[j] for j, c in r.items()) == 0 for r in rows)


def assert_minimal_betti_matches_oracle(row):
    """The table read off the resolution of the row equals the shifts of a
    separately built resolution of its minimal generators."""
    table = free_resolution(row).betti
    minres = minimal_resolution(row)
    oracle, _ = resolution_invariants(minres)
    assert table.entries == oracle.entries
    assert table.totals == oracle.totals
    regularity = max(sh - i for i, sh in oracle.entries)
    assert table.regularity == regularity == minres.betti.regularity
    return table


class TestMinimalBettiTable:
    def test_reference_row_prunes_its_dependent_generator(self):
        row = homogenized_reference_generators()
        table = assert_minimal_betti_matches_oracle(row)
        assert table.totals == {0: 3, 1: 3, 2: 1} and table.regularity == 4
        fixed, _ = resolution_invariants(free_resolution(row))
        assert fixed.totals == {0: 4, 1: 4, 2: 1} and fixed.regularity is None

    def test_scalar_multiple_component(self):
        row = [S * T + 2 * U**2, -(T**2) + 2 * U**2, -(S * T), -2 * S * T]
        assert assert_minimal_betti_matches_oracle(row).totals[0] == 3

    @pytest.mark.parametrize("row", [
        [S**2, T**2, ZERO3, S * T + U**2],
        [S**2 - T * U, T**2, U**2, ZERO3],
        [S, T**2, S * T, U],  # s*t = t*s: generated, not a scalar combination
    ])
    def test_zero_or_generated_component(self, row):
        assert assert_minimal_betti_matches_oracle(row).totals[0] == 3

    @pytest.mark.parametrize("seed,d", [(1, 2), (2, 2), (3, 2), (8, 2), (1, 3)])
    def test_recipe_rows(self, seed, d):
        assert_minimal_betti_matches_oracle(recipe_row(seed, d))

    def test_already_minimal_resolution_is_unchanged(self):
        minres = free_resolution([S**2, T**2, U**2])
        table, _ = resolution_invariants(minres)
        minimal = minres.betti
        assert (minimal.entries, minimal.totals) == (table.entries, table.totals)
        assert minimal.regularity == 4

    @pytest.mark.parametrize("row", [
        [S, 2 * S, 3 * S, T],  # rank 2 in degree 1
        [S, 2 * S, -S, T, U],
        [S, 2 * S, T**2, -(T**2), U],  # dependent in degrees 1 and 2
        [S, ZERO3, S * T, 3 * S * T + U**2, -S, T**2],
        [S + T, S - T, 2 * S, U**2, S * U, T * U - U**2],
    ])
    def test_dependent_generators_in_one_or_two_degrees(self, row):
        assert_minimal_betti_matches_oracle(row)

    def test_dependent_constant_block_counts_its_rank(self):
        # (t, -s, 0) + (u, 0, -1) and (u, 0, -1) also resolve (s, t, su),
        # with two constant entries in degree 2 but a block of rank 1
        row = [S, T, S * U]
        res = dataclasses.replace(free_resolution(row), d1=PolyMatrix.from_columns(
            [(T + U, -S, -ONE3), (U, ZERO3, -ONE3)]))
        res.validate()
        oracle, _ = resolution_invariants(minimal_resolution(row))
        assert (res.betti.entries, res.betti.totals) == (oracle.entries, oracle.totals)

    def test_missing_trivial_summand_is_an_internal_error(self):
        # shape guard: d1 keeps its trivial column while q loses its degree
        res = free_resolution(homogenized_reference_generators())
        res.q = tuple(x for x in res.q if x != 2)
        with pytest.raises(InternalError, match="d1 has 4 columns but q has 3 degrees"):
            res.betti


@settings(max_examples=60, deadline=20000)
@given(rows_with_redundant_component())
def test_minimal_betti_table_matches_minimal_resolution(row):
    assume(any(not g.is_zero() for g in row))
    assert_minimal_betti_matches_oracle(row)


@settings(max_examples=40, deadline=30000)
@given(rows_with_redundant_component(), st.booleans())
def test_resolution_matches_buchberger_schreyer_route(row, as_given):
    assume(any(not g.is_zero() for g in row))
    assert_resolution_selections_agree(row if as_given else minimal_row(row))


@st.composite
def monomial_or_binomial_rows(draw):
    """Two to four entries in s, t, u, each zero, a monomial or a binomial
    of degree 1 to 3: rows whose leading terms share many lcms."""
    row = []
    for _ in range(draw(st.integers(2, 4))):
        monos = monomials_of_degree(3, draw(st.integers(1, 3)))
        n = draw(st.integers(0, 2))
        picked = draw(st.lists(st.sampled_from(monos), min_size=n, max_size=n, unique=True))
        row.append(Poly(VARS_STU, {m: draw(st.sampled_from([1, -1, 2, -3])) for m in picked}))
    return row


@settings(max_examples=40, deadline=30000)
@given(monomial_or_binomial_rows(), st.booleans())
def test_resolution_of_monomial_and_binomial_rows(row, as_given):
    assume(any(not g.is_zero() for g in row))
    assert_resolution_selections_agree(row if as_given else minimal_row(row))


# ---------------------------------------------------------------------------
# The fraction-free engine: sympy's reduced Groebner bases, certificate
# invariants of module reduction, and integer coefficients inside the loop.
# ---------------------------------------------------------------------------

_RATIONALS = st.builds(Fraction,
                       st.one_of(st.integers(-9, 9), st.integers(-10**6, 10**6)),
                       st.sampled_from([1, 1, 2, 3, 7, 1000]))


def _draw_poly(draw, vars, max_deg, max_terms, coeffs=_RATIONALS):
    monos = [m for k in range(max_deg + 1) for m in monomials_of_degree(len(vars), k)]
    chosen = draw(st.lists(st.sampled_from(monos), max_size=max_terms, unique=True))
    return Poly(vars, {m: draw(coeffs) for m in chosen})


@st.composite
def rational_ideals(draw):
    """1-3 nonzero, generally non-monic generators in Q[s,t] (degree <= 3)
    or Q[s,t,u] (degree <= 2), coefficients up to about 10^6."""
    vars = draw(st.sampled_from([VARS_ST, VARS_STU]))
    max_deg = 3 if vars == VARS_ST else 2
    gens = [_draw_poly(draw, vars, max_deg, 4) for _ in range(draw(st.integers(1, 3)))]
    gens = [g for g in gens if not g.is_zero()]
    assume(gens)
    return vars, gens


def _monic_term_set(terms):
    """The polynomial {monomial: Fraction} scaled monic in grevlex, as a set."""
    lc = terms[max(terms, key=grevlex_key)]
    return frozenset((m, c / lc) for m, c in terms.items())


@settings(max_examples=60, deadline=None)
@given(rational_ideals())
def test_buchberger_matches_sympy_groebner(case):
    sp = pytest.importorskip("sympy")
    vars, gens = case
    syms = sp.symbols(vars)
    exprs = [sum(sp.Rational(c.numerator, c.denominator)
                 * sp.Mul(*[x**e for x, e in zip(syms, m)]) for m, c in g.terms.items())
             for g in gens]
    theirs = sp.groebner(exprs, *syms, order="grevlex", domain="QQ")
    want = {_monic_term_set({m: Fraction(int(c.numerator), int(c.denominator))
                             for m, c in sp.Poly(e, *syms, domain="QQ").terms()})
            for e in theirs.exprs}
    ours = buchberger(gens).generators
    assert all(g.num[max(g.num)] == g.den for g in ours)
    assert {frozenset(g.terms.items()) for g in ours} == want


@st.composite
def rational_modules(draw):
    """2-3 nonzero generator vectors of rank 2-4 with rational, non-monic
    entries, in Q[s,t] (degree <= 2) or Q[s,t,u] (degree <= 1), a target
    vector and cofactors for a member of the module."""
    vars = draw(st.sampled_from([VARS_ST, VARS_STU]))
    max_deg = 2 if vars == VARS_ST else 1
    rank = draw(st.integers(2, 4))
    coeffs = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 5]))

    def vector(terms):
        return tuple(_draw_poly(draw, vars, max_deg, terms, coeffs) for _ in range(rank))

    gens = [vector(2) for _ in range(draw(st.integers(2, 3)))]
    assume(all(any(not p.is_zero() for p in g) for g in gens))
    cofactors = [_draw_poly(draw, vars, 1, 2, coeffs) for _ in gens]
    return vars, rank, gens, vector(3), cofactors


def _combination(coeffs, gens, vars, rank):
    out = [Poly.zero(vars)] * rank
    for c, g in zip(coeffs, gens):
        out = [a + c * b for a, b in zip(out, g)]
    return tuple(out)


@settings(max_examples=40, deadline=None)
@given(rational_modules())
@example((VARS_ST, 2, [(Poly.zero(VARS_ST), S2 + T2), (S2**2 + 1, Poly.zero(VARS_ST)),
                       (S2 * T2, T2**2)], (S2, T2), [Poly.const(VARS_ST, 1), S2, T2]))
def test_module_reduction_certificates(case):
    vars, rank, gens, target, cofactors = case
    # an exact certificate target = sum c_i g_i + rem
    rem, coeffs = reduce_with_certificate(target, gens)
    assert tuple(a + b for a, b in zip(_combination(coeffs, gens, vars, rank), rem)) == target
    # rem is fully reduced: no term is divisible by a lead of the reduced basis
    gb = buchberger(gens)
    leads = lead_positions(gb)
    for pos, p in enumerate(rem):
        for m in p.terms:
            assert not any(lp == pos and all(x <= y for x, y in zip(lm, m))
                           for lp, lm in leads)
    assert gb.normal_form(target) == rem
    # members lift back to themselves
    member = _combination(cofactors, gens, vars, rank)
    lifted = lift_coefficients(member, gens)
    assert lifted is not None and _combination(lifted, gens, vars, rank) == member
    # Schreyer: every syzygy of the basis reduces to zero against the
    # Schreyer generators under the induced order
    gb, sigmas, order = schreyer_syzygy_basis(gens)
    for w in brute_force_syzygies(list(gb.generators), 2 if vars == VARS_ST else 1):
        assert not reference_remainder(w, sigmas, order)


def test_inner_reduction_sees_only_ints(monkeypatch):
    syz = syzygy_generators(homogenized_reference_generators())
    calls = []
    real = grobner._reduce_int

    def checked(work, basis, leads, want_quotients):
        coefficients = [*work.values(), *(lc for _, lc in leads),
                        *(c for g in basis for c in g.terms.values())]
        assert all(type(c) is int for c in coefficients)
        calls.append(len(work))
        K, rem, quots = real(work, basis, leads, want_quotients)
        assert type(K) is int and all(type(c) is int for c in rem.values())
        assert all(type(c) is int for q in quots or () for c in q.values())
        return K, rem, quots

    monkeypatch.setattr(grobner, "_reduce_int", checked)
    gb = buchberger(syz)
    assert calls and gb.contains(syz[0])


def test_reduction_loop_builds_no_tuple_monomials(monkeypatch):
    """Buchberger and _reduce_int order, divide and multiply terms on the
    keys they are given: no call inside them packs or unpacks a monomial,
    representations over the generators included."""
    syz = syzygy_generators(homogenized_reference_generators())
    calls = count_conversions(monkeypatch, [(grobner, "_buchberger_ext"),
                                            (grobner, "_reduce_int"), (Poly, "__str__")])
    gb = buchberger(syz)
    assert gb.contains(syz[0]) and lift_coefficients(syz[0], syz) is not None
    assert calls == []
    str(syz[0][0])  # the spy sees the unpacking of the boundary view
    assert calls and set(calls) == {"unpack"}


# ---------------------------------------------------------------------------
# Work done once: the least-lead cutoff of _reduce_int, the one-sweep finish
# of _buchberger_ext, and generators built on demand.
# ---------------------------------------------------------------------------


@st.composite
def integer_reductions(draw):
    """(work, basis, leads) as _reduce_int takes them: integer vectors of rank
    1-3 in 2 or 3 variables (degree <= 3), 0-4 basis vectors with positive
    leading coefficients, and leads their _lead."""
    vars = draw(st.sampled_from([VARS_ST, VARS_STU]))
    rank = draw(st.integers(1, 3))
    pk = arith.packing(len(vars))
    keys = [pk.pack(m, pos) for pos in range(rank) for k in range(4)
            for m in monomials_of_degree(len(vars), k)]
    coeffs = st.integers(-30, 30).filter(bool)

    def terms(min_size, max_size):
        chosen = draw(st.lists(st.sampled_from(keys), min_size=min_size,
                               max_size=max_size, unique=True))
        return {key: draw(coeffs) for key in chosen}

    basis = []
    for _ in range(draw(st.integers(0, 4))):
        g = terms(1, 4)
        g[max(g)] = abs(g[max(g)])
        basis.append(Vec(vars, rank, g))
    return terms(0, 8), basis, [grobner._lead(g) for g in basis]


@settings(max_examples=300, deadline=None)
@given(integer_reductions())
@example(({3: 2, 1: 5}, [], []))
def test_reduce_int_matches_a_plain_scan(case):
    """The cutoff at the least lead changes no step: K, rem and the
    quotients equal those of a scan that tests every term against every
    lead."""
    work, basis, leads = case
    for want_quotients in (False, True):
        assert (grobner._reduce_int(dict(work), basis, leads, want_quotients)
                == plain_reduce_int(work, basis, leads, want_quotients))


def _ext_with_call_counts(gens, track_reps):
    """(_buchberger_ext of the nonzero vectors of gens, those vectors as
    tuples of Polys, the number of _reduce_int calls of its finish).  Each
    S-vector the main loop forms is reduced by one call, so the finish
    makes the calls beyond the _spair calls."""
    vecs, _, _, _ = _normalize_items(gens)
    vecs = [v for v in vecs if not v.is_zero()]
    calls = {"_reduce_int": 0, "_spair": 0}
    with pytest.MonkeyPatch.context() as patched:
        for name in calls:
            def counted(*args, _real=getattr(grobner, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            patched.setattr(grobner, name, counted)
        ext = _buchberger_ext(vecs, track_reps)
    return ext, [v.to_polys() for v in vecs], calls["_reduce_int"] - calls["_spair"]


def assert_reduced_in_one_sweep(gens):
    for track_reps in (False, True):
        ext, vectors, finish_calls = _ext_with_call_counts(gens, track_reps)
        leads = lead_positions(ext)
        keys = [key for key, _ in ext.lead_terms]
        assert keys == sorted(set(keys))  # strictly ascending
        for i, v in enumerate(ext.vecs):
            for pos, p in enumerate(v.to_polys()):
                for m in p.terms:
                    assert not any(j != i and lp == pos and mono_divides(lm, m)
                                   for j, (lp, lm) in enumerate(leads))
        assert finish_calls == len(ext.ints) - 1
        if track_reps:
            for v, rep in zip(ext.vecs, ext.reps):
                assert _combination(rep, vectors, ext.vars, ext.rank) == v.to_polys()
        else:
            assert ext.reps is None


@settings(max_examples=60, deadline=None)
@given(rational_ideals())
def test_one_sweep_finish_reduces_ideal_bases(case):
    _, gens = case
    assert_reduced_in_one_sweep(gens)


@settings(max_examples=40, deadline=None)
@given(rational_modules())
def test_one_sweep_finish_reduces_module_bases(case):
    _, _, gens, _, _ = case
    assert_reduced_in_one_sweep(gens)


class TestGeneratorsOnDemand:
    """contains and normal_form reduce on the engine's vectors; the Poly
    generators are built only when read."""

    @pytest.mark.parametrize("module", [False, True], ids=["ideal", "module"])
    def test_membership_builds_no_generators(self, module, monkeypatch):
        gens = homogenized_reference_generators()
        if module:
            gens = syzygy_generators(gens)
            member, outside = tuple(p * S for p in gens[1]), (S,) + (ZERO3,) * (len(gens[0]) - 1)
        else:
            member, outside = gens[1] * T, S * T * U
        calls = []
        real = Vec.to_polys
        monkeypatch.setattr(Vec, "to_polys", lambda self: calls.append(1) or real(self))
        gb = buchberger(gens)
        assert calls == []
        assert gb.contains(member) and not gb.contains(outside)
        assert calls == []
        nf = gb.normal_form(outside)
        assert len(calls) == 1
        assert gb.contains(tuple(a - b for a, b in zip(outside, nf)) if module else outside - nf)
        assert len(calls) == 1 and "generators" not in gb.__dict__
        assert len(gb) == len(gb.ints)
        assert len(gb.generators) == len(gb) and len(calls) == 1 + len(gb)
        assert gb.generators is gb.generators and len(calls) == 1 + len(gb)

    def test_first_basis_generators_and_leading_keys(self):
        row = homogenized_reference_generators()
        first_basis = free_resolution(row).first_basis
        assert first_basis.generators == buchberger(row).generators
        pk = arith.packing(3)
        assert [pk.unpack(k) for k in first_basis.leading_keys] == [
            max(g.terms, key=grevlex_key) for g in first_basis.generators]
        assert list(first_basis.leading_keys) == sorted(first_basis.leading_keys)
