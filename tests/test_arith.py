import random
import re
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mubasis import arith
from mubasis.arith import (
    MAX_PACKED_DEGREE,
    NEG_INF,
    VARS_ST,
    VARS_STU,
    Poly,
    PolyMatrix,
    _as_univar,
    _from_univar,
    dehomogenize,
    exact_div,
    gcd_many,
    homogenize,
    mat_inverse,
    packing,
)
from mubasis.errors import InternalError, ResourceLimitError
from mubasis.grobner import Vec, buchberger, lift_coefficients
from mubasis.parser import parse_polynomial
from helpers import (count_conversions, grevlex_key, mono_divides, mono_lcm, mono_mul,
                     random_poly, stu, substitute)


S = Poly.variable(VARS_ST, "s")
T = Poly.variable(VARS_ST, "t")
ONE = Poly.const(VARS_ST, 1)


class TestGcd:
    def test_common_monomial_factor(self):
        assert gcd_many([S * T, S * S]) == S

    def test_reference_surface_has_coprime_components(self):
        ps = [S**2, T**2, S**2 - 1, S**2 + 1]
        assert gcd_many(ps) == ONE

    def test_difference_of_squares_vs_perfect_square(self):
        # oracle: s^2 - t^2 = (s-t)(s+t) and s^2 + 2st + t^2 = (s+t)^2
        f = S**2 - T**2
        g = S**2 + 2 * S * T + T**2
        assert f == (S - T) * (S + T)
        assert g == (S + T) ** 2
        assert gcd_many([f, g]) == S + T

    def test_gcd_with_zero_member(self):
        assert gcd_many([Poly.zero(VARS_ST), S * T]) == S * T

    def test_all_zero_errors(self):
        with pytest.raises(ValueError, match="zero family"):
            gcd_many([Poly.zero(VARS_ST), Poly.zero(VARS_ST)])

    def test_three_variables(self):
        u = Poly.variable(VARS_STU, "u")
        s3 = Poly.variable(VARS_STU, "s")
        assert gcd_many([s3 * u, s3 * s3]) == s3

    def test_divides_each_input_and_cofactors_coprime(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_poly(rng, VARS_ST, 2, coeff_bound=4, force_nonzero=True)
            fams = [g * random_poly(rng, VARS_ST, 2, coeff_bound=4, force_nonzero=True)
                    for _ in range(3)]
            d = gcd_many(fams)
            cofs = []
            for f in fams:
                q = exact_div(f, d)
                assert q is not None
                cofs.append(q)
            assert gcd_many(cofs).is_constant()


class TestHomogenize:
    def test_reference_generator(self):
        assert homogenize(S**2 - 1, 2) == stu({(2, 0, 0): 1, (0, 0, 2): -1})

    def test_already_homogeneous(self):
        assert homogenize(S**2, 2) == stu({(2, 0, 0): 1})

    def test_padding_with_u(self):
        assert homogenize(S + 1, 3) == stu({(1, 0, 2): 1, (0, 0, 3): 1})

    def test_degree_overflow_errors(self):
        with pytest.raises(ValueError):
            homogenize(S**3, 2)

    def test_dehomogenize_examples(self):
        assert dehomogenize(stu({(2, 0, 0): 1, (0, 0, 2): -1})) == S**2 - 1
        assert dehomogenize(stu({(0, 0, 3): 1})) == ONE
        assert dehomogenize(stu({(1, 1, 1): 1})) == S * T

    def test_roundtrips(self):
        rng = random.Random(3)
        for _ in range(30):
            p = random_poly(rng, VARS_ST, 3, coeff_bound=5)
            d = 3 if p.is_zero() else int(p.degree)
            assert dehomogenize(homogenize(p, d + 1)) == p
        for _ in range(30):
            d = rng.randint(0, 4)
            terms = {}
            for m in [(d, 0, 0), (0, d, 0), (0, 0, d)]:
                terms[m] = rng.randint(-3, 3)
            h = stu(terms)
            if h.is_zero():
                continue
            assert homogenize(dehomogenize(h), d) == h


    def test_dehomogenize_reads_packed_keys_without_conversions(self, monkeypatch):
        # u := 1 maps each packed key to its s and t exponents, and summed
        # collisions may cancel (s u - s) or share content with the
        # denominator; the reference substitutes u = 1 on exponent tuples
        rng = random.Random(5)
        hs = [random_poly(rng, VARS_STU, 4, coeff_bound=9) * Fraction(rng.randint(1, 9), k)
              for k in range(1, 41)]
        hs += [stu({(1, 0, 1): 1, (1, 0, 0): -1, (0, 0, 2): 3}),
               stu({(0, 1, 2): Fraction(1, 4), (0, 1, 0): Fraction(1, 4)}), stu({})]
        calls = count_conversions(monkeypatch, [(arith, "dehomogenize")])
        got = [arith.dehomogenize(h) for h in hs]
        assert calls == []
        monkeypatch.undo()
        for h, p in zip(hs, got):
            assert_canonical(p, VARS_ST)
            one = substitute(h, {"u": Poly.const(VARS_STU, 1)})
            assert p == Poly(VARS_ST, {m[:2]: c for m, c in one.terms.items()})
        assert got[-3:] == [Poly.const(VARS_ST, 3), T * Fraction(1, 2), Poly.zero(VARS_ST)]

class TestRingAxioms:
    def test_random_axioms(self):
        rng = random.Random(11)
        for _ in range(40):
            p = random_poly(rng, VARS_ST, 4, coeff_bound=10)
            q = random_poly(rng, VARS_ST, 4, coeff_bound=10)
            r = random_poly(rng, VARS_ST, 4, coeff_bound=10)
            assert (p + q) + r == p + (q + r)
            assert p * (q + r) == p * q + p * r

    def test_degree_multiplicativity(self):
        rng = random.Random(13)
        for _ in range(40):
            p = random_poly(rng, VARS_ST, 3, force_nonzero=True)
            q = random_poly(rng, VARS_ST, 3, force_nonzero=True)
            assert (p * q).degree == p.degree + q.degree

    def test_zero_degree_sentinel(self):
        z = Poly.zero(VARS_ST)
        assert z.degree == NEG_INF
        assert max([p.degree for p in [z, S] if not p.is_zero()]) == 1

    def test_mixed_rings_rejected(self):
        with pytest.raises(ValueError, match="mixed rings"):
            S + Poly.variable(VARS_STU, "s")

    def test_pow_and_scalar_ops(self):
        assert (S + 1) ** 2 == S**2 + 2 * S + 1
        assert 2 * S == S + S
        assert S - S == Poly.zero(VARS_ST)
        assert (S * Fraction(1, 2)) * 2 == S

    def test_canonical_string(self):
        assert str(S**2 - 1) == "s^2 - 1"
        assert str(Poly.zero(VARS_ST)) == "0"
        assert str(-S * T + Fraction(1, 2) * T**2) == "-s*t + 1/2*t^2"


class TestExactDivision:
    def test_exact(self):
        f = (S + T) * (S - T)
        assert exact_div(f, S + T) == S - T

    def test_inexact(self):
        assert exact_div(S**2 + 1, S) is None

    def test_inexact_by_a_coefficient(self):
        # each lead divides, but the first two quotients are not integral over
        # the primitive 2s + 1
        assert exact_div(S + 1, 2 * S + 1) is None
        assert exact_div(3 * S * T + T, 2 * S + 1) is None
        assert exact_div(4 * S * T + 2 * T, 2 * S + 1) == 2 * T


def reference_completion_matrix():
    """The invertible 4x4 matrix completing the column (0, s^2, -1, -t^2)."""
    z = Poly.zero(VARS_ST)
    one = Poly.const(VARS_ST, 1)
    return PolyMatrix([
        [z, z, one, z],
        [S**2, one, z, z],
        [-one, z, z, z],
        [-(T**2), z, z, one],
    ])


class TestMatrixInverse:
    def test_reference_completion_matrix(self):
        n = reference_completion_matrix()
        inv, det = mat_inverse(n)
        assert det == 1
        assert n * inv == PolyMatrix.identity(4, VARS_ST)

    def test_identity(self):
        ident = PolyMatrix.identity(3, VARS_ST)
        inv, det = mat_inverse(ident)
        assert inv == ident and det == 1

    def test_elementary(self):
        z = Poly.zero(VARS_ST)
        one = ONE
        m = PolyMatrix([[one, S], [z, one]])
        inv, det = mat_inverse(m)
        assert det == 1
        assert inv == PolyMatrix([[one, -S], [z, one]])

    def test_not_invertible(self):
        with pytest.raises(ValueError, match="not invertible"):
            mat_inverse(PolyMatrix([[S]]))

    @pytest.mark.parametrize("entries", [
        [[ONE, S], [S, ONE]],                                  # det 1 - s^2
        [[S, T], [S, T]],                                      # det 0
        [[ONE, S, T], [Poly.zero(VARS_ST), T, ONE], [S, ONE, ONE]],
    ])
    def test_non_constant_determinant(self, entries):
        with pytest.raises(ValueError, match="not invertible"):
            mat_inverse(PolyMatrix(entries))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="non-square"):
            mat_inverse(PolyMatrix([[S, ONE]]))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_determinant_minus_one(self, n):
        # det = (-1)^n c_0 with c_0 the last characteristic coefficient, so
        # det -1 needs c_0 = 1 for odd n and c_0 = -1 for even n
        z = Poly.zero(VARS_ST)
        m = {1: [[-ONE]],
             2: [[S, ONE], [ONE, z]],
             3: [[T, ONE, z], [ONE, z, z], [S * T, S, ONE]]}[n]
        m = PolyMatrix(m)
        inv, det = mat_inverse(m)
        assert det == -1 and m.det() == Poly.const(VARS_ST, -1)
        assert inv * m == PolyMatrix.identity(n, VARS_ST)
        if n == 2:
            assert inv == PolyMatrix([[z, ONE], [ONE, -S]])

    def test_checks_the_product(self, monkeypatch):
        # a corrupted inverse is caught by the exact m * inverse = I check
        real = PolyMatrix.map_entries
        monkeypatch.setattr(PolyMatrix, "map_entries",
                            lambda self, fn: real(real(self, fn), lambda p: p * 2))
        with pytest.raises(InternalError, match="inverse verification"):
            mat_inverse(PolyMatrix([[ONE, S], [Poly.zero(VARS_ST), ONE]]))

    def test_random_products_of_elementaries(self):
        rng = random.Random(5)
        for _ in range(10):
            n = rng.randint(2, 4)
            m = PolyMatrix.identity(n, VARS_ST)
            for _ in range(6):
                i, j = rng.sample(range(n), 2)
                h = random_poly(rng, VARS_ST, 2, coeff_bound=3)
                e = PolyMatrix.identity(n, VARS_ST)
                e.entries[i][j] = h
                m = m * e
            inv, det = mat_inverse(m)
            assert det == 1
            assert m * inv == PolyMatrix.identity(n, VARS_ST)


class TestMatrixBasics:
    def test_degree_and_transpose(self):
        m = PolyMatrix([[S**2, T], [ONE, Poly.zero(VARS_ST)]])
        assert m.degree == 2
        assert m.transpose()[1, 0] == T
        assert PolyMatrix([[Poly.zero(VARS_ST)] * 2] * 2).degree == NEG_INF

    def test_from_columns(self):
        m = PolyMatrix.from_columns([[S, T], [ONE, ONE]])
        assert m.rows == 2 and m.cols == 2
        assert m.column(0) == [S, T]

    def test_outer_product_minors_share_their_two_by_two_minors(self, monkeypatch):
        # 4 minors of order 1, 6 of order 2 and 4 of order 3 on a dense 4 x 3
        # matrix: 4 + 6 * 2 + 4 * 3 = 28 products, against 4 * 12 = 48 when
        # each 3 x 3 minor is expanded on its own
        calls = []
        mul = Poly.__mul__
        monkeypatch.setattr(Poly, "__mul__", lambda p, q: calls.append(1) or mul(p, q))
        rng = random.Random(5)
        m = PolyMatrix([[S + rng.randint(1, 9) * T + rng.randint(1, 9) for _ in range(3)]
                        for _ in range(4)])
        minors = list(m.maximal_minors())
        assert len(calls) == 28
        monkeypatch.setattr(Poly, "__mul__", mul)
        assert minors == [(rows, PolyMatrix([m.entries[i] for i in rows]).det())
                          for rows in combinations(range(4), 3)]

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_sparse_product_matches_the_entrywise_sum(self, data):
        # the product skips zero entries: most entries here are zero, so
        # zero rows, zero columns and single nonzero pairs all occur
        vars = data.draw(rings)
        m, k, n = (data.draw(st.integers(1, 4)) for _ in range(3))
        zero = Poly.zero(vars)
        sparse = st.one_of(st.just(zero), st.just(zero), polys(vars))
        a, b = data.draw(matrices(vars, m, k, sparse)), data.draw(matrices(vars, k, n, sparse))
        got = a * b
        for i in range(m):
            for j in range(n):
                assert_valid(got[i, j], vars)
                assert got[i, j] == sum((a[i, l] * b[l, j] for l in range(k)), zero)
        assert a * PolyMatrix.identity(k, vars) == a == PolyMatrix.identity(m, vars) * a

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_maximal_minors_match_each_submatrix_determinant(self, data):
        vars = data.draw(rings)
        n = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(n, 6))
        a = data.draw(matrices(vars, m, n))
        got = list(a.maximal_minors())
        assert [rows for rows, _ in got] == list(combinations(range(m), n))
        for rows, minor in got:
            assert_valid(minor, vars)
            assert minor == PolyMatrix([a.entries[i] for i in rows]).det()


def _univariate(rng, vi, max_deg):
    """Random nonzero polynomial of Q[s,t] in variable vi only."""
    cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, max_deg) + 1)]
    cs[-1] = cs[-1] or Fraction(1)
    return Poly(VARS_ST, {tuple(k if i == vi else 0 for i in range(2)): c
                          for k, c in enumerate(cs) if c})


class TestEuclidAgainstSympy:
    """gcd_many and the univariate Bezout cofactors of the PID phase against
    sympy (test-only oracle; skipped when sympy is not installed)."""

    @pytest.fixture
    def sp(self):
        return pytest.importorskip("sympy")

    @staticmethod
    def to_sympy(sp, p):
        return sp.sympify(str(p).replace("^", "**"))

    def test_gcd_many_matches_sympy_gcd(self, sp):
        rng = random.Random(2024)
        s_, t_ = sp.symbols("s t")
        for trial in range(60):
            if trial % 3 == 2:
                common = random_poly(rng, VARS_ST, 2, coeff_bound=3, force_nonzero=True)
                fs = [common * random_poly(rng, VARS_ST, 2, coeff_bound=3, force_nonzero=True)
                      for _ in range(3)]
            else:  # univariate inputs take the Euclidean route
                vi = trial % 3
                common = _univariate(rng, vi, 3)
                fs = [common * _univariate(rng, vi, 3) for _ in range(3)]
            ours = gcd_many(fs)
            theirs = sp.gcd_list([self.to_sympy(sp, f) for f in fs])
            assert sp.Poly(self.to_sympy(sp, ours), s_, t_).monic() == \
                sp.Poly(theirs, s_, t_).monic()
            assert ours.num[max(ours.num)] == ours.den


# ---------------------------------------------------------------------------
# The trusted arithmetic path against references that rebuild every result
# through the validating constructor Poly(vars, terms).
# ---------------------------------------------------------------------------


def ref_add(p, q):
    terms = dict(p.terms)
    for m, c in q.terms.items():
        terms[m] = terms.get(m, 0) + c
    return Poly(p.vars, terms)


def ref_neg(p):
    return Poly(p.vars, {m: -c for m, c in p.terms.items()})


def ref_mul(p, q):
    out = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, 0) + c1 * c2
    return Poly(p.vars, out)


def ref_dot(row, col):
    acc = Poly(row[0].vars, {})
    for a, b in zip(row, col):
        acc = ref_add(acc, ref_mul(a, b))
    return acc


def assert_valid(p, vars):
    assert type(p) is Poly and type(p.vars) is tuple and p.vars == vars
    for m, c in p.terms.items():
        assert type(m) is tuple and len(m) == len(vars)
        assert all(type(e) is int and e >= 0 for e in m)
        assert type(c) is Fraction and c != 0


# Large coprime denominators make every integer-scaled product nontrivial.
coefficients = st.builds(Fraction, st.integers(-30, 30),
                         st.sampled_from([1, 2, 3, 7, 10**9 + 7, 2**61 - 1, 998244353]))
rings = st.sampled_from([VARS_ST, VARS_STU])


def polys(vars):
    monos = st.tuples(*[st.integers(0, 3)] * len(vars))
    return st.one_of(
        st.just(Poly.zero(vars)),
        st.builds(lambda c: Poly.const(vars, c), coefficients),
        st.dictionaries(monos, coefficients, max_size=6).map(lambda t: Poly(vars, t)))


def matrices(vars, rows, cols, entries=None):
    entries = polys(vars) if entries is None else entries
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(PolyMatrix)


@st.composite
def ring_operands(draw):
    vars = draw(rings)
    p, q = draw(polys(vars)), draw(polys(vars))
    return vars, p, q, draw(coefficients)


@st.composite
def matrix_operands(draw):
    vars = draw(rings)
    r, n, c = (draw(st.integers(1, 3)) for _ in range(3))
    return vars, draw(matrices(vars, r, n)), draw(matrices(vars, n, c))


class TestTrustedArithmetic:
    @settings(max_examples=80, deadline=2000)
    @given(ring_operands())
    def test_poly_operations_match_validating_reference(self, operands):
        vars, p, q, c = operands
        cases = [
            (p + q, ref_add(p, q)),
            (p - q, ref_add(p, ref_neg(q))),
            (-p, ref_neg(p)),
            (p * q, ref_mul(p, q)),
            (p * c, Poly(vars, {m: v * c for m, v in p.terms.items()})),
            (c * p, Poly(vars, {m: v * c for m, v in p.terms.items()})),
            (p + (-p), Poly(vars, {})),
            (p * q - q * p, Poly(vars, {})),
            # the cross terms p*q and q*p cancel inside one accumulation
            ((p + q) * (p - q), ref_add(ref_mul(p, p), ref_neg(ref_mul(q, q)))),
        ]
        for got, want in cases:
            assert_valid(got, vars)
            assert got == want and got.terms == want.terms

    @settings(max_examples=60, deadline=5000)
    @given(matrix_operands())
    def test_matrix_products_match_validating_reference(self, operands):
        vars, a, b = operands
        prod = a * b
        assert (prod.rows, prod.cols) == (a.rows, b.cols)
        for i in range(a.rows):
            for j in range(b.cols):
                assert_valid(prod[i, j], vars)
                assert prod[i, j] == ref_dot(a.entries[i], b.column(j))
        # u*v - v*u cancels inside one integer accumulation
        u, v = a[0, 0], b[0, 0]
        got = (PolyMatrix([[u, v]]) * PolyMatrix([[v], [-u]]))[0, 0]
        assert_valid(got, vars)
        assert got.is_zero()

    @settings(max_examples=60, deadline=5000)
    @given(st.data())
    def test_powers_match_repeated_products(self, data):
        vars = data.draw(rings)
        p = data.draw(polys(vars))
        power = Poly.const(vars, 1)
        for e in range(6):
            assert_valid(p ** e, vars)
            assert p ** e == power
            power = ref_mul(power, p)

    @pytest.mark.parametrize("vars, terms", [
        (VARS_ST, {(1,): 1}),
        (VARS_ST, {(1, 0, 0): 1}),
        (VARS_STU, {(0, -1, 2): Fraction(1, 2)}),
    ])
    def test_validating_constructor_rejects_bad_terms(self, vars, terms):
        with pytest.raises(ValueError):
            Poly(vars, terms)

    def test_fast_path_makes_no_validating_construction(self, monkeypatch):
        rng = random.Random(3)
        p, q = (random_poly(rng, VARS_STU, 3, force_nonzero=True) for _ in range(2))
        a = PolyMatrix([[random_poly(rng, VARS_STU, 2) * Fraction(1, 7) for _ in range(3)]
                        for _ in range(3)])
        calls = []
        real = Poly.__init__

        def counting(self, *args, **kwargs):
            calls.append(1)
            real(self, *args, **kwargs)

        monkeypatch.setattr(Poly, "__init__", counting)
        a * a
        p + q
        p * q
        assert calls == []
        Poly(VARS_STU, {(1, 0, 0): 1})  # the boundary still validates
        assert calls == [1]


# ---------------------------------------------------------------------------
# The representation: integer numerators over one denominator.
# ---------------------------------------------------------------------------


def assert_canonical(p, vars):
    """num maps packed monomial keys (position field zero) to nonzero ints,
    den > 0 is coprime to their content (so zero has den 1), and terms is
    the matching Fraction view on int exponent tuples of ring length."""
    assert type(p) is Poly and p.vars == vars
    assert type(p.den) is int and p.den > 0
    pk = packing(len(vars))
    for m, c in p.num.items():
        assert type(m) is int and 0 <= m < pk.limit and not m & pk.pos_mask
        assert type(c) is int and c != 0
    assert gcd(p.den, *p.num.values()) == 1
    for m in p.terms:
        assert type(m) is tuple and len(m) == len(vars)
        assert all(type(e) is int and e >= 0 for e in m)
    assert p.terms == {pk.unpack(m): Fraction(c, p.den) for m, c in p.num.items()}


@st.composite
def canonical_cases(draw):
    """(vars, [(route name, result)]) over every operation and constructor;
    EQUAL_ROUTES names the routes that must give equal values."""
    vars = draw(rings)
    p, q = draw(polys(vars)), draw(polys(vars))
    c = draw(coefficients)
    k = draw(st.integers(2, 10**6))
    name = draw(st.sampled_from(vars))
    zero_mono = (0,) * len(vars)
    out = [
        ("validated", Poly(vars, p.terms)),
        ("reduced", Poly._reduced(vars, {m: n * k for m, n in p.num.items()}, p.den * k)),
        ("term sum", sum((Poly(vars, {m: t}) for m, t in p.terms.items()), Poly.zero(vars))),
        ("zero", Poly.zero(vars)),
        ("const", Poly.const(vars, c)),
        ("variable", Poly.variable(vars, name)),
        ("p+q", p + q), ("q+p", q + p), ("p-q", p - q), ("p+(-q)", p + (-q)),
        ("p*q", p * q), ("q*p", q * p), ("p*c", p * c), ("c*p", c * p),
        ("p+c", p + c), ("c-p", c - p),
        ("p*(1/c)", p * (1 / c) if c else p), ("p/c", exact_div(p, Poly.const(vars, c)) if c else p),
        ("monic", p.monic()), ("p**3", p**3), ("p*p*p", p * p * p),
        ("matrix", (PolyMatrix([[p, q]]) * PolyMatrix([[q], [c * p]]))[0, 0]),
        ("dot", p * q + q * (c * p)),
        ("det", PolyMatrix([[p, q], [-q, p]]).det()), ("p*p+q*q", p * p + q * q),
        ("from_univar", _from_univar(_as_univar(p, 0), 0, vars)),
        ("vec", Vec.from_polys([p, q]).to_polys()[0]),
        ("constant", Poly.const(vars, p.constant_value())),
        ("constant term", Poly(vars, {zero_mono: p.constant_value()})),
    ]
    if not q.is_zero():
        out += [("exact_div", exact_div(p * q, q)), ("gcd", gcd_many([p * q, q]))]
        out += [("gcd via monic", q.monic())]
    if vars == VARS_ST and (p.is_zero() or p.degree <= 6):
        out.append(("homogenize", dehomogenize(homogenize(p, 6))))
    return vars, out


EQUAL_ROUTES = [("validated", "reduced"), ("validated", "term sum"), ("p+q", "q+p"),
                ("p-q", "p+(-q)"), ("p*q", "q*p"), ("p*c", "c*p"),
                ("p*(1/c)", "p/c"), ("p**3", "p*p*p"), ("matrix", "dot"), ("det", "p*p+q*q"),
                ("validated", "from_univar"), ("validated", "vec"), ("constant", "constant term"),
                ("validated", "exact_div"), ("gcd", "gcd via monic"), ("validated", "homogenize")]


class TestCanonicalForm:
    @settings(max_examples=100, deadline=None)
    @given(canonical_cases())
    def test_every_result_is_canonical_and_equality_matches_hash(self, case):
        vars, results = case
        for route, r in results:
            assert_canonical(r, vars)
        named = dict(results)
        for a, b in EQUAL_ROUTES:
            if a in named and b in named:
                assert named[a] == named[b], (a, b)
        for _, a in results:
            for _, b in results:
                if a == b:
                    assert hash(a) == hash(b)

    def test_poly_operands_construct_no_fraction(self, monkeypatch):
        rng = random.Random(11)
        ps = [random_poly(rng, VARS_STU, 2, force_nonzero=True) * Fraction(rng.randint(1, 9), 7 * k)
              for k in range(1, 10)]
        a, b = PolyMatrix([ps[:3], ps[3:6], ps[6:]]), PolyMatrix([ps[6:], ps[:3], ps[3:6]])
        calls = []
        real = arith.Fraction.__new__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(arith.Fraction, "__new__", counting)
        results = {}
        for name, op in [("Poly.__mul__", lambda: [p * q for p, q in zip(ps, ps[1:])]),
                         ("Poly.__add__", lambda: [p + q for p, q in zip(ps, ps[1:])]),
                         ("Poly.__sub__", lambda: [p - q for p, q in zip(ps, ps[2:])]),
                         ("PolyMatrix.__mul__", lambda: a * b),
                         ("PolyMatrix.det", a.det)]:
            results[name] = op()
            assert calls == [], name
        monkeypatch.undo()
        assert results["Poly.__mul__"][0] == ref_mul(ps[0], ps[1])
        assert results["Poly.__add__"][0] == ref_add(ps[0], ps[1])
        assert results["PolyMatrix.__mul__"][1, 2] == ref_dot(a.entries[1], b.column(2))
        assert not results["PolyMatrix.det"].is_zero()

    def test_products_quotients_and_vectors_convert_no_monomial(self, monkeypatch):
        """Products, exact quotients and module vectors take the keys of
        Poly.num as they are: none packs or unpacks a monomial."""
        rng = random.Random(13)
        ps = [random_poly(rng, VARS_STU, 2, force_nonzero=True) * Fraction(rng.randint(1, 9), 7 * k)
              for k in range(1, 10)]
        a, b = PolyMatrix([ps[:3], ps[3:6], ps[6:]]), PolyMatrix([ps[6:], ps[:3], ps[3:6]])
        calls = count_conversions(monkeypatch, [(Poly, "__mul__"), (PolyMatrix, "__mul__"),
                                                (arith, "exact_div"), (Vec, "from_polys")])
        products = [p * q for p, q in zip(ps, ps[1:])]
        quotients = [arith.exact_div(pq, q) for pq, q in zip(products, ps[1:])]
        inexact = arith.exact_div(ps[0] + 1, ps[1]) if ps[1].degree > 0 else None
        prod = a * b
        vecs = [Vec.from_polys(ps[i:i + 3]) for i in range(0, 9, 3)]
        assert calls == []
        monkeypatch.undo()
        assert products[0] == ref_mul(ps[0], ps[1]) and quotients == ps[:-1]
        assert inexact is None
        assert prod[1, 2] == ref_dot(a.entries[1], b.column(2))
        assert [v.to_polys() for v in vecs] == [tuple(ps[i:i + 3]) for i in range(0, 9, 3)]

    def test_univariate_gcd_constructs_no_fraction(self, monkeypatch):
        rng = random.Random(12)
        cases = []
        for vi in (0, 1):
            x = Poly.variable(VARS_ST, "st"[vi])
            for _ in range(5):
                common = _univariate(rng, vi, 3) * rng.randint(1, 9)
                cases.append((common, [common * (x**2 + 1), common * (x**3 - 2)]))
        calls = []
        real = arith.Fraction.__new__

        def counting(cls, *args, **kwargs):
            calls.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(arith.Fraction, "__new__", counting)
        got = [gcd_many(ps) for _, ps in cases]
        assert calls == []
        monkeypatch.undo()
        assert got == [common.monic() for common, _ in cases]


# ---------------------------------------------------------------------------
# Big coefficients against sympy (test-only oracle).
# ---------------------------------------------------------------------------


big_coefficients = st.builds(Fraction, st.integers(-2**200, 2**200), st.integers(1, 2**64))


def sympy_expr(sp, syms, f):
    """f as a sympy expression in the symbols syms, built from its terms."""
    return sp.Add(*[sp.Rational(c.numerator, c.denominator)
                    * sp.Mul(*[x**e for x, e in zip(syms, mono)])
                    for mono, c in f.terms.items()])


def big_polys(vars, max_terms=4, max_degree=3):
    monos = st.tuples(*[st.integers(0, max_degree)] * len(vars))
    return st.dictionaries(monos, big_coefficients, max_size=max_terms).map(lambda t: Poly(vars, t))


@st.composite
def big_cases(draw):
    vars = draw(rings)
    p = draw(big_polys(vars))
    q = draw(big_polys(vars).filter(lambda q: not q.is_constant()))
    entries = [[draw(big_polys(vars, 3, 1)) for _ in range(3)] for _ in range(3)]
    return vars, p, q, PolyMatrix(entries)


class TestDecimalConversion:
    """decimal_str and decimal_int agree with str and int below the digit
    limit and invert each other past it."""

    @pytest.mark.parametrize("x", [0, 7, -12, Fraction(-3, 4), -(10**4299)],
                             ids=["0", "7", "-12", "-3/4", "4300 digits"])
    def test_plain_below_the_limit(self, x):
        assert arith.decimal_str(x) == str(x)
        assert arith.decimal_int(str(abs(x.numerator))) == abs(x.numerator)

    @pytest.mark.parametrize("n, digits", [(10**4300, 4301), (-(7 * 10**5000 + 123), 5001),
                                           (10**600 * (10**4000 + 1), 4601)],
                             ids=["power", "negative", "zero-pieces"])
    def test_round_trip_past_the_limit(self, n, digits):
        def signed(text):
            return -arith.decimal_int(text[1:]) if text[0] == "-" else arith.decimal_int(text)

        text = arith.decimal_str(n)
        assert len(text.lstrip("-")) == digits and text.lstrip("-")[0] != "0"
        assert signed(text) == n
        q = Fraction(n, 3 * 10**4400 + 1)
        num, den = arith.decimal_str(q).split("/")
        assert Fraction(signed(num), signed(den)) == q


class TestBigCoefficientsAgainstSympy:
    @settings(max_examples=60, deadline=None)
    @given(big_cases())
    def test_operations_match_sympy(self, case):
        sp = pytest.importorskip("sympy")
        vars, p, q, m = case
        syms = sp.symbols(" ".join(vars))

        def expr(f):
            return sympy_expr(sp, syms, f)

        def poly(f):
            return sp.Poly(expr(f), *syms, domain="QQ")

        P, Q = poly(p), poly(q)
        for ours, theirs in [(p * q, P * Q), (p + q, P + Q), (p - q, P - Q)]:
            assert_canonical(ours, vars)
            assert poly(ours) == theirs
        quotient = exact_div(p * q, q)
        assert quotient == p and poly(quotient) == sp.exquo(P * Q, Q)
        assert exact_div(p * q + 1, q) is None and sp.rem(P * Q + 1, Q) != 0
        want, rem = sp.div(P * Q, Q + 1)  # q + 1 divides p * q only by chance
        got = exact_div(p * q, q + 1)
        assert (got is None) == (rem != 0) and (got is None or poly(got) == want)
        det = m.det()
        assert_canonical(det, vars)
        want = sp.Matrix(3, 3, [expr(m[i, j]) for i in range(3) for j in range(3)]).det(
            method="berkowitz")
        assert poly(det) == sp.Poly(sp.expand(want), *syms, domain="QQ")


# ---------------------------------------------------------------------------
# Packed-key polynomials against sympy: degrees up to 6, rationals up to 2^64
# (test-only oracle).
# ---------------------------------------------------------------------------


rationals_64 = st.builds(Fraction, st.integers(-2**64, 2**64), st.integers(1, 2**64))


def polys_up_to(vars, max_degree, max_terms=5):
    monos = st.sampled_from([m for k in range(max_degree + 1)
                             for m in arith.monomials_of_degree(len(vars), k)])
    return st.dictionaries(monos, rationals_64, max_size=max_terms).map(lambda t: Poly(vars, t))


@st.composite
def sympy_cases(draw):
    vars = draw(rings)
    p, q = draw(polys_up_to(vars, 6)), draw(polys_up_to(vars, 6))
    g = draw(polys_up_to(vars, 2, 3).filter(lambda g: not g.is_zero()))
    return vars, p, q, g, draw(rationals_64)


def printed_monomials(text, vars):
    """Exponent tuples of the terms of a canonical string, in printed order."""
    out = []
    for body in re.split(r" [+-] ", text.removeprefix("-")):
        exps = dict.fromkeys(vars, 0)
        for v, e in re.findall(r"([a-z])(?:\^(\d+))?", body):
            exps[v] = int(e or 1)
        out.append(tuple(exps[v] for v in vars))
    return out


class TestPackedKeysAgainstSympy:
    @settings(max_examples=60, deadline=None)
    @given(sympy_cases())
    def test_operations_match_sympy(self, case):
        sp = pytest.importorskip("sympy")
        vars, p, q, g, c = case
        syms = sp.symbols(" ".join(vars))

        def expr(f):
            return sympy_expr(sp, syms, f)

        def poly(f):
            return sp.Poly(expr(f), *syms, domain="QQ")

        P, Q, G = poly(p), poly(q), poly(g)
        for ours, theirs in [(p + q, P + Q), (p - q, P - Q), (p * q, P * Q), (q**2, Q**2),
                             (p * c, P * sp.Rational(c.numerator, c.denominator))]:
            assert_canonical(ours, vars)
            assert poly(ours) == theirs
        assert exact_div(p * g, g) == p
        want, rem = sp.div(P, G)
        got = exact_div(p, g)
        assert (got is None) == (not rem.is_zero) and (got is None or poly(got) == want)
        if not q.is_zero():
            ours = gcd_many([p * g, q * g])
            theirs = sp.gcd(poly(p * g), poly(q * g))
            assert poly(ours).monic() == theirs.monic() and ours.num[max(ours.num)] == ours.den
        if vars == VARS_ST:
            u = sp.Symbol("u")
            h = homogenize(p, 6)
            assert_canonical(h, VARS_STU)
            want = sp.expand(u**6 * expr(p).subs({syms[0]: syms[0] / u, syms[1]: syms[1] / u},
                                                 simultaneous=True))
            assert sympy_expr(sp, (*syms, u), h) == want and dehomogenize(h) == p
            assert parse_polynomial(str(p)) == p
        else:
            d = dehomogenize(p)
            assert_canonical(d, VARS_ST)
            assert sympy_expr(sp, syms[:2], d) == sp.expand(expr(p).subs(syms[2], 1))
        text = str(p)
        assert sp.sympify(text.replace("^", "**"), locals=dict(zip(vars, syms))) == expr(p)
        if not p.is_zero():
            assert printed_monomials(text, vars) == sorted(p.terms, key=grevlex_key, reverse=True)


# ---------------------------------------------------------------------------
# Univariate gcd and Bezout cofactors with coefficients up to 2^2000.
# ---------------------------------------------------------------------------


def big_univariate(vi, max_degree=3):
    """A nonzero polynomial of Q[s,t] in variable vi only, over one
    denominator."""
    coeffs = st.lists(st.integers(-2**2000, 2**2000), min_size=1, max_size=max_degree + 1)
    return st.builds(
        lambda cs, den: Poly(VARS_ST, {tuple(k if j == vi else 0 for j in range(2)): Fraction(c, den)
                                       for k, c in enumerate(cs) if c}),
        coeffs.filter(any), st.integers(1, 2**64))


@st.composite
def planted_pairs(draw):
    """(vi, a, b): a common factor planted in both, or one operand dividing
    the other, or a constant operand."""
    vi = draw(st.sampled_from([0, 1]))
    common = draw(big_univariate(vi, 2))
    a = draw(big_univariate(vi))
    kind = draw(st.sampled_from(["planted", "divides", "constant"]))
    if kind == "planted":
        a, b = common * a, common * draw(big_univariate(vi))
    elif kind == "divides":
        b = a * common
    else:
        b = Poly.const(VARS_ST, draw(st.integers(1, 2**2000)))
    return (vi, a, b) if draw(st.booleans()) else (vi, b, a)


class TestBigUnivariateAgainstSympy:
    """ROADMAP item 2's oracle: the integer gcd, and certified Groebner lifts
    of the gcd over the pair and of 1 over squares, univariate in s and in
    t."""

    @staticmethod
    def expr(sp, p, x, vi):
        return sp.Add(*[sp.Rational(c.numerator, c.denominator) * x**m[vi]
                        for m, c in p.terms.items()])

    @settings(max_examples=60, deadline=None)
    @given(planted_pairs())
    def test_gcd_and_cofactors_match_sympy(self, case):
        sp = pytest.importorskip("sympy")
        vi, a, b = case
        x = sp.symbols("st"[vi])
        A, B = (self.expr(sp, p, x, vi) for p in (a, b))
        g = gcd_many([a, b])
        assert g.num[max(g.num)] == g.den
        assert sp.Poly(self.expr(sp, g, x, vi), x, domain="QQ") == \
            sp.Poly(sp.gcd(A, B), x, domain="QQ").monic()
        u, v = lift_coefficients(g, [a, b])
        assert u * a + v * b == g

    def test_prime_dividing_both_leading_coefficients_is_skipped(self):
        # modulo the first prime, p*x + 1 becomes 1 and the images of a and b
        # are coprime, although a and b share the factor p*x + 1
        sp = pytest.importorskip("sympy")
        p = arith._GCD_PRIMES[0]
        for vi, x in enumerate((S, T)):
            a, b = (x * p + 1) * (x + 2), (x * p + 1) * (x + 3)
            assert gcd_many([a, b]) == x + Fraction(1, p)
            y = sp.symbols("st"[vi])
            assert sp.gcd(self.expr(sp, a, y, vi), self.expr(sp, b, y, vi)) == p * y + 1

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_bezout_weights_of_squares(self, data):
        sp = pytest.importorskip("sympy")
        vi = data.draw(st.sampled_from([0, 1]))
        dens = data.draw(st.lists(big_univariate(vi, 2), min_size=2, max_size=4))
        x = sp.symbols("st"[vi])
        assume(sp.gcd_list([self.expr(sp, d, x, vi) for d in dens]) == 1)
        weights = lift_coefficients(ONE, [d * d for d in dens])
        assert sum((w * d * d for w, d in zip(weights, dens)), Poly.zero(VARS_ST)) == ONE


# ---------------------------------------------------------------------------
# Packed monomials: one int per (position, monomial) term.
# ---------------------------------------------------------------------------


@st.composite
def packed_cases(draw):
    """(packing, rank, terms, monomial): terms at positions below rank, and
    exponents small enough that every product stays inside the packing."""
    n = draw(st.sampled_from([2, 3]))
    rank = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, MAX_PACKED_DEGREE // (2 * n))] * n)
    terms = draw(st.lists(st.tuples(st.integers(0, rank - 1), exps), min_size=2, max_size=6))
    return packing(n), rank, terms, draw(exps)


class TestPacking:
    @settings(max_examples=200, deadline=None)
    @given(packed_cases())
    def test_keys_realize_the_order_and_the_monomial_operations(self, case):
        pk, rank, terms, q = case
        keys = [pk.pack(m, pos) for pos, m in terms]
        for (pos, m), key in zip(terms, keys):
            assert pk.unpack(key) == m and pk.position(key) == pos
            assert pk.degree(key) == sum(m)
            assert key + pk.pack(q) == pk.pack(mono_mul(m, q), pos)
            for (pos2, m2), key2 in zip(terms, keys):
                assert (key < key2) == ((grevlex_key(m), -pos) < (grevlex_key(m2), -pos2))
                assert pk.divides(key, key2) == (pos == pos2 and mono_divides(m, m2))
                if pos == pos2:
                    assert pk.lcm(key, key2) == pk.pack(mono_lcm(m, m2), pos)
                if pk.divides(key, key2):
                    assert key + (key2 - key) == key2
                    assert pk.unpack(key2 - key) == tuple(b - a for a, b in zip(m, m2))

    def test_degree_past_the_field_width_raises(self):
        top = MAX_PACKED_DEGREE
        for vars in (VARS_ST, VARS_STU):
            pk = packing(len(vars))
            edge = (top,) + (0,) * (len(vars) - 1)
            assert pk.unpack(pk.pack(edge, 3)) == edge
            with pytest.raises(ResourceLimitError):
                pk.pack((top + 1,) + (0,) * (len(vars) - 1))
            with pytest.raises(ResourceLimitError):
                pk.pack((top // 2 + 1,) * 2 + (0,) * (len(vars) - 2))
        s, t = (Poly.variable(VARS_ST, v) for v in VARS_ST)
        # at the packing boundary
        with pytest.raises(ResourceLimitError):
            buchberger([s**(top + 1)])
        # at the S-pair lcm, from leads each inside the packing
        with pytest.raises(ResourceLimitError):
            buchberger([s**(top - 1) * t, s * t**(top - 1)])
        # in a matrix product on keys
        big = PolyMatrix([[s**top]])
        with pytest.raises(ResourceLimitError):
            big * big
        # Poly products share the packing's limit
        assert (s**top).degree == top
        with pytest.raises(ResourceLimitError):
            s**top * s
        with pytest.raises(ResourceLimitError):
            Poly(VARS_ST, {(top // 2 + 1, top // 2 + 1): 1})
