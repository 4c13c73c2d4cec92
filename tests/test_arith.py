import random
from fractions import Fraction

import pytest

from mubasis.arith import (
    NEG_INF,
    VARS_ST,
    VARS_STU,
    Poly,
    PolyMatrix,
    _uni_xgcd,
    dehomogenize,
    divides,
    exact_div,
    gcd_many,
    homogenize,
    mat_inverse,
)
from helpers import random_poly, stu


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

    def test_substitute_and_set_var(self):
        p = S**2 + T
        assert p.set_var("t", 0) == S**2
        assert p.substitute({"s": S + T}) == (S + T) ** 2 + T

    def test_canonical_string(self):
        assert str(S**2 - 1) == "s^2 - 1"
        assert str(Poly.zero(VARS_ST)) == "0"
        assert str(-S * T + Fraction(1, 2) * T**2) == "-s*t + 1/2*t^2"


class TestExactDivision:
    def test_exact(self):
        f = (S + T) * (S - T)
        assert exact_div(f, S + T) == S - T
        assert divides(S + T, f)

    def test_inexact(self):
        assert exact_div(S**2 + 1, S) is None


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
        assert PolyMatrix.zero(2, 2, VARS_ST).degree == NEG_INF

    def test_from_columns(self):
        m = PolyMatrix.from_columns([[S, T], [ONE, ONE]])
        assert m.rows == 2 and m.cols == 2
        assert m.column(0) == [S, T]


def _univariate(rng, vi, max_deg):
    """Random nonzero polynomial of Q[s,t] in variable vi only."""
    cs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(0, max_deg) + 1)]
    cs[-1] = cs[-1] or Fraction(1)
    return Poly(VARS_ST, {tuple(k if i == vi else 0 for i in range(2)): c
                          for k, c in enumerate(cs) if c})


class TestEuclidAgainstSympy:
    """gcd_many and the univariate extended Euclid against sympy (test-only
    oracle; skipped when sympy is not installed)."""

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
            assert ours.leading_coefficient() == 1

    @pytest.mark.parametrize("vi", [0, 1])
    def test_uni_xgcd_matches_sympy_gcdex(self, sp, vi):
        rng = random.Random(7 + vi)
        x = sp.symbols("st"[vi])
        for _ in range(40):
            common = _univariate(rng, vi, 2)
            a = common * _univariate(rng, vi, 4)
            b = common * _univariate(rng, vi, 4)
            g, u, v = _uni_xgcd(a, b, vi)
            assert u * a + v * b == g
            su, sv, sg = sp.gcdex(self.to_sympy(sp, a), self.to_sympy(sp, b), x)
            assert [self.to_sympy(sp, p) for p in (g, u, v)] == \
                [sp.expand(e) for e in (sg, su, sv)]
