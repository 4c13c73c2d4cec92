import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubasis import grobner, pipeline
from mubasis.arith import VARS_ST, Poly, PolyMatrix, gcd_many
from mubasis.errors import InternalError, ValidationError, VerificationError
from mubasis.grobner import modules_equal
from mubasis.parser import parse_tuple
from mubasis.pipeline import (
    compute_mu_basis,
    extract_basis,
    homogenize_ideal,
    outer_product,
    validate,
    verify_mu_basis,
)
from helpers import greedy_prune, random_poly, random_unimodular_matrix

S = Poly.variable(VARS_ST, "s")
T = Poly.variable(VARS_ST, "t")
ONE = Poly.const(VARS_ST, 1)
ZERO = Poly.zero(VARS_ST)


def reference_input():
    return [S**2, T**2, S**2 - 1, S**2 + 1]


def reference_basis():
    """The published basis for the reference surface; alpha = -1 was frozen
    from a by-hand expansion of the four signed 3x3 determinants."""
    return (
        (-(T**2), ONE, T**2, ZERO),
        (Poly.const(VARS_ST, -2), ZERO, ONE, ONE),
        (ONE - S**2, ZERO, S**2, ZERO),
    )


class TestValidate:
    def test_reference(self):
        par = validate(reference_input())
        assert par.d == 2 and par.warnings == ()

    def test_common_factor(self):
        with pytest.raises(ValidationError, match="common factor s"):
            validate([S, S, S, S])

    def test_degenerate_unit(self):
        par = validate([ONE, ZERO, ZERO, ZERO])
        assert par.d == 0
        assert len(par.warnings) == 2

    def test_all_zero(self):
        with pytest.raises(ValidationError, match="zero"):
            validate([ZERO, ZERO, ZERO, ZERO])


class TestHomogenizeIdeal:
    def test_reference(self):
        par = validate(reference_input())
        b = homogenize_ideal(par)
        assert par.d == 2
        from mubasis.arith import VARS_STU

        s3 = Poly.variable(VARS_STU, "s")
        t3 = Poly.variable(VARS_STU, "t")
        u3 = Poly.variable(VARS_STU, "u")
        assert b == (s3**2, t3**2, s3**2 - u3**2, s3**2 + u3**2)

    def test_equal_degree_homogeneous_fixed_point(self):
        par = validate([S**2, S * T, T**2, S**2 + T**2])
        b = homogenize_ideal(par)
        assert all(bi.is_homogeneous() and int(bi.degree) == 2 for bi in b)

    def test_linear_with_constants(self):
        par = validate([S, T, ONE, ONE])
        b = homogenize_ideal(par)
        assert par.d == 1
        from mubasis.arith import VARS_STU

        u3 = Poly.variable(VARS_STU, "u")
        assert b[2] == u3 and b[3] == u3

    def test_common_factor_u_is_an_internal_error(self):
        # built without validate, at a degree above every a_i: u divides
        # every b_i, and no gcd is taken to find it
        par = pipeline.Parametrization(a=(S, T, ONE, ONE), d=2)
        with pytest.raises(InternalError, match="acquired a common factor"):
            homogenize_ideal(par)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_homogenized_generators_are_coprime(self, seed):
        # the guard stands in for a gcd of the b_i; over validated inputs
        # that gcd is a constant
        rng = random.Random(seed)
        polys = [random_poly(rng, VARS_ST, 2, coeff_bound=3) for _ in range(4)]
        try:
            par = validate(polys)
        except ValidationError:
            return
        b = homogenize_ideal(par)
        assert gcd_many([x for x in b if not x.is_zero()]).is_constant()


class TestOuterProduct:
    def test_unit_vectors(self):
        e = [tuple(ONE if i == j else ZERO for j in range(4)) for i in range(4)]
        out = outer_product(e[0], e[1], e[2])
        assert out == (ZERO, ZERO, ZERO, -ONE)

    def test_repeated_row_vanishes(self):
        p = (S, T, ONE, ZERO)
        r = (T, S, ZERO, ONE)
        assert all(c.is_zero() for c in outer_product(p, p, r))

    def test_reference_basis_gives_minus_input(self):
        p, q, r = reference_basis()
        out = outer_product(p, q, r)
        a = reference_input()
        assert list(out) == [-x for x in a]

    def test_multilinearity_in_first_slot(self):
        rng = random.Random(3)
        p = tuple(random_poly(rng, VARS_ST, 1) for _ in range(4))
        q = tuple(random_poly(rng, VARS_ST, 1) for _ in range(4))
        r = tuple(random_poly(rng, VARS_ST, 1) for _ in range(4))
        doubled = outer_product(tuple(2 * x for x in p), q, r)
        single = outer_product(p, q, r)
        assert list(doubled) == [2 * c for c in single]


class TestVerify:
    def test_reference_basis_alpha(self):
        par = validate(reference_input())
        alpha = verify_mu_basis(reference_basis(), par)
        assert alpha == Fraction(-1)

    def test_scaled_basis(self):
        par = validate(reference_input())
        p, q, r = reference_basis()
        scaled = (tuple(2 * x for x in p), q, r)
        assert verify_mu_basis(scaled, par) == Fraction(-2)

    def test_degenerate_triple(self):
        par = validate(reference_input())
        p, q, r = reference_basis()
        with pytest.raises(VerificationError, match="degenerate triple"):
            verify_mu_basis((p, p, r), par)

    def test_not_a_syzygy(self):
        par = validate(reference_input())
        p, q, r = reference_basis()
        bad = ((ONE, ZERO, ZERO, ZERO), q, r)
        with pytest.raises(VerificationError, match="not a syzygy"):
            verify_mu_basis(bad, par)

    def test_not_generating(self):
        # (s, t, 1, 1): the triple below consists of honest syzygies whose
        # outer product is proportional, but they span a proper submodule
        par = validate([S, T, ONE, ONE])
        p = (ONE, ZERO, -S, ZERO)
        q = (ZERO, ONE, -T, ZERO)
        r = (ZERO, ZERO, ONE, -ONE)
        scaled = (tuple(S * x for x in p), q, r)
        with pytest.raises(VerificationError):
            verify_mu_basis(scaled, par)

    def test_a_generator_outside_the_basis_span_is_refused(self, monkeypatch):
        # stage 3 writes each generator of Syz(a) in the basis; (0, 1, 0, 0)
        # is no syzygy, and its Cramer coefficients are not polynomials
        par = validate(reference_input())
        real = pipeline.syzygy_generators
        monkeypatch.setattr(pipeline, "syzygy_generators",
                            lambda a: real(a) + [(ZERO, ONE, ZERO, ZERO)])
        with pytest.raises(VerificationError, match="does not generate Syz"):
            verify_mu_basis(reference_basis(), par)

    def test_row_l_of_each_generator_is_checked(self, monkeypatch):
        # a_0 != 0, so l = 0: off row 0, (1, 0, 0, 0) has Cramer
        # coefficients 0, and only its row-0 entry tells it from the basis
        par = validate(reference_input())
        real = pipeline.syzygy_generators
        monkeypatch.setattr(pipeline, "syzygy_generators",
                            lambda a: real(a) + [(ONE, ZERO, ZERO, ZERO)])
        with pytest.raises(VerificationError, match="does not generate Syz"):
            verify_mu_basis(reference_basis(), par)

    @pytest.mark.parametrize("text, l", [
        ("(s^2, t^2, s^2 - 1, s^2 + 1)", 0), ("(0, s, t^2, s*t + 1)", 1),
        ("(0, 0, s, t^2 + 1)", 2), ("(0, 0, 0, 1)", 3)])
    def test_cramer_denominator_on_each_row(self, text, l):
        # the first nonzero a_l sets the row left out and the sign
        # (-1)^l of det B_l = (-1)^l alpha a_l
        par = validate(list(parse_tuple(text)))
        mb, _ = compute_mu_basis(par)
        det_l = par.a[l] * ((-1) ** l * mb.alpha)
        assert (-1) ** l * outer_product(*mb.vectors)[l] == det_l
        assert pipeline._cramer_certificate(par.syzygies, mb.vectors, l, det_l)
        assert not pipeline._cramer_certificate(par.syzygies, mb.vectors, l, S * det_l)
        assert modules_equal(par.syzygies, mb.vectors)

    def test_verification_builds_no_groebner_basis(self, monkeypatch):
        # every Groebner basis goes through _buchberger_ext; the syzygy
        # generators are built by compute, before the count starts
        par = validate(list(parse_tuple(FULL_D2_1)))
        mb, _ = compute_mu_basis(par)
        calls = []
        for module, name in ((grobner, "_buchberger_ext"), (grobner, "buchberger"),
                             (pipeline, "buchberger"), (grobner, "modules_equal")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, name=name, real=real, **kw:
                                calls.append(name) or real(*args, **kw))
        assert verify_mu_basis(mb.vectors, par) == mb.alpha and calls == []


class TestExtractBasis:
    def test_reference_matrices_give_published_basis(self):
        par = validate(reference_input())
        g = PolyMatrix([
            [Poly.const(VARS_ST, -2), -(T**2), -(T**2), ONE - S**2],
            [ZERO, ONE, S**2, ZERO],
            [ONE, T**2, ZERO, S**2],
            [ONE, ZERO, ZERO, ZERO],
        ])
        # completed matrix: first column is the unimodular relation column
        n = PolyMatrix([
            [ZERO, ZERO, ONE, ZERO],
            [S**2, ONE, ZERO, ZERO],
            [-ONE, ZERO, ZERO, ZERO],
            [-(T**2), ZERO, ZERO, ONE],
        ])
        basis = extract_basis(g, n)
        assert basis == reference_basis()

    def test_identity_with_n_zero(self):
        g = PolyMatrix([
            [S, T, ONE],
            [ZERO, S, T],
            [ONE, ZERO, S],
            [T, ONE, ZERO],
        ])
        basis = extract_basis(g, PolyMatrix.identity(3, VARS_ST))
        assert basis == tuple(tuple(g.column(j)) for j in range(3))

    def test_kernel_column_check(self):
        g = PolyMatrix([
            [ONE, ZERO, ZERO, ZERO],
            [ZERO, ONE, ZERO, ZERO],
            [ZERO, ZERO, ONE, ZERO],
            [ZERO, ZERO, ZERO, ONE],
        ])
        with pytest.raises(ValueError, match="kernel columns"):
            extract_basis(g, PolyMatrix.identity(4, VARS_ST))

    def test_fewer_than_three_columns(self):
        g = PolyMatrix([[ONE, ZERO], [ZERO, ONE], [S, T], [T, S]])
        with pytest.raises(ValueError, match="m >= 3"):
            extract_basis(g, PolyMatrix.identity(2, VARS_ST))


class TestComputeMuBasis:
    def test_reference_end_to_end(self):
        par = validate(reference_input())
        mb, report = compute_mu_basis(par)
        assert report.branch == "pd2"
        assert mb.alpha != 0
        assert report.resolution.ranks[2] == 1
        assert report.resolution.gammas == (2, 2)
        assert modules_equal(list(mb.vectors), list(reference_basis()))

    def test_bilinear_patch(self):
        par = validate([ONE, S, T, S * T])
        mb, report = compute_mu_basis(par)
        assert max(mb.degrees) <= 1
        expected = [
            (-S, ONE, ZERO, ZERO),
            (-T, ZERO, ONE, ZERO),
            (ZERO, -T, ZERO, ONE),
        ]
        assert modules_equal(list(mb.vectors), expected)

    def test_unit_component(self):
        par = validate([ONE, ZERO, ZERO, ZERO])
        mb, report = compute_mu_basis(par)
        assert report.branch == "pd1"
        assert abs(mb.alpha) == 1
        e = [tuple(ONE if i == j else ZERO for j in range(4)) for i in range(4)]
        assert modules_equal(list(mb.vectors), e[1:])

    def test_free_branch_monomial_curve_style(self):
        # four coprime binary cubics: the homogenized ideal is perfect of
        # height 2, so its syzygy module is free and mu degrees sum to d
        par = validate([S**3, S**2 * T, S * T**2, T**3])
        mb, report = compute_mu_basis(par)
        assert report.branch == "pd1"
        assert report.mu is not None and sum(report.mu) == 3
        assert max(mb.degrees) <= 3

    def test_scaling_invariance_of_alpha(self):
        par = validate(reference_input())
        mb, _ = compute_mu_basis(par)
        scaled = (tuple(3 * x for x in mb.p), mb.q, mb.r)
        assert verify_mu_basis(scaled, par) == 3 * mb.alpha

    def test_random_small_inputs_verified(self):
        rng = random.Random(61)
        done = 0
        while done < 6:
            polys = [random_poly(rng, VARS_ST, rng.randint(1, 2), coeff_bound=3)
                     for _ in range(4)]
            nz = [p for p in polys if not p.is_zero()]
            if not nz or not gcd_many(nz).is_constant():
                continue
            if max(int(p.degree) for p in nz) < 1:
                continue
            par = validate(polys)
            mb, report = compute_mu_basis(par)
            assert len(mb.vectors) == 3
            assert mb.alpha != 0
            if report.branch == "pd1":
                assert max(mb.degrees) <= par.d
            done += 1


# criterion-4 draw 19: no three of its five syzygy generators are a basis,
# so it keeps the graded completion of (d1, d2), with two relations
GRADED_INPUT = "(-3*s^2*t - 3*s^2, 3*s*t + t^2 + 2*s + 1, 0, " \
    "-2*s^3 - s^2*t + s*t^2 - t^3 + s^2 + 2*s*t - 2*s - t)"
# full_d2/1 of the benchmark corpus, seed 1: three of its four syzygy
# generators are a basis
FULL_D2_1 = "(-2*s*t - t^2, -3*s*t + 2*t^2 + s + 2, -2*s*t + 2*s + 2, t^2 + 3*s + 2*t + 1)"


def _criterion_4_draw(rng):
    """The acceptance suite's criterion 4 recipe: one coprime, not all
    constant draw of degree at most 3."""
    while True:
        polys = [random_poly(rng, VARS_ST, rng.randint(0, 3), coeff_bound=3, density=0.5)
                 for _ in range(4)]
        nz = [p for p in polys if not p.is_zero()]
        if nz and gcd_many(nz).is_constant() and max(int(p.degree) for p in nz) >= 1:
            return polys


ENTRIES = st.sampled_from([ZERO, ONE, -ONE, 2 * ONE, S, T, S + ONE, T * T])


@st.composite
def changes_of_basis(draw):
    """A random 3 x 3 matrix, or elementary operations on a diagonal of
    constants, so that both singular and unimodular T are drawn."""
    if draw(st.booleans()):
        return PolyMatrix([[draw(ENTRIES) for _ in range(3)] for _ in range(3)])
    diag = [draw(st.sampled_from([0, 1, -1, 2, Fraction(1, 3)])) for _ in range(3)]
    t_mat = PolyMatrix([[Poly.const(VARS_ST, diag[i] if i == j else 0) for j in range(3)]
                        for i in range(3)])
    for _ in range(draw(st.integers(0, 3))):
        i, j = draw(st.permutations(range(3)))[:2]
        t_mat = t_mat * PolyMatrix([[draw(ENTRIES) if (r, c) == (i, j) else ONE if r == c else ZERO
                                     for c in range(3)] for r in range(3)])
    return t_mat


class TestOneRoute:
    # the free branch and a basis triple of syzygy generators are N = I with
    # n = 0, the graded route N = M^-1 with n = beta2: each branch reads the
    # basis off G N once, and the report keeps the one resolution built
    @pytest.mark.parametrize("polys, branch, n", [
        pytest.param([S**3, S**2 * T, S * T**2, T**3], "pd1", 0, id="polys0-pd1"),
        pytest.param(reference_input(), "pd2", 0, id="polys1-pd2"),
        pytest.param(list(parse_tuple(GRADED_INPUT)), "pd2", 2, id="polys2-pd2"),
    ])
    def test_each_branch_extracts_the_basis_once(self, polys, branch, n, monkeypatch):
        calls = []
        real = pipeline.extract_basis

        def counting(g_mat, n_mat):
            calls.append((g_mat.cols, n_mat.rows))
            return real(g_mat, n_mat)

        monkeypatch.setattr(pipeline, "extract_basis", counting)
        _, report = compute_mu_basis(validate(polys))
        assert report.branch == branch and calls == [(n + 3, n + 3)]
        assert (report.completion is None) == (n == 0)

    def test_three_generators_need_no_completion(self, monkeypatch):
        calls = []
        real = pipeline.complete_columns
        monkeypatch.setattr(pipeline, "complete_columns",
                            lambda f: calls.append(f) or real(f))
        mb, report = compute_mu_basis(validate(reference_input()))
        assert report.branch == "pd2" and report.completion is None and calls == []
        assert modules_equal(mb.vectors, reference_basis())

    def test_pruned_basis_may_exceed_the_input_degree(self):
        # the degree-d check holds on the free branch only: this d = 2 pd2
        # input's basis triple includes a generator of degree above d
        par = validate(parse_tuple(FULL_D2_1))
        mb, report = compute_mu_basis(par)
        assert report.branch == "pd2" and report.completion is None
        assert max(mb.degrees) > par.d

    def test_no_basis_triple_keeps_the_graded_completion(self):
        par = validate(list(parse_tuple(GRADED_INPUT)))
        assert pipeline._basis_triple(par.syzygies, par.a) is None
        _, report = compute_mu_basis(par)
        assert report.completion is not None

    def test_basis_triple_passes_bases_rejects_non_constant_outer_products(self):
        a = reference_input()
        b = reference_basis()
        scaled = (tuple(Fraction(3, 7) * x for x in b[0]),) + b[1:]
        assert pipeline._basis_triple(scaled, a) == list(scaled)
        # (s + 1) p, q, r: outer product (s + 1) alpha a, not constant
        assert pipeline._basis_triple((tuple((S + 1) * x for x in b[0]),) + b[1:], a) is None
        assert pipeline._basis_triple((b[0], b[1], tuple(2 * x for x in b[1])), a) is None
        # the two triples tried first hold both b[1] and s b[1]
        assert pipeline._basis_triple(b + (tuple(S * x for x in b[1]),), a) == list(b)

    def test_proportionality_reads_every_component(self):
        # three syzygies have outer product h a, so one component settles h;
        # stage 2 still checks all four
        a = reference_input()

        def proportionality(outer):
            return pipeline._proportionality(tuple(outer).__getitem__, a)

        assert proportionality(Fraction(-2, 3) * x for x in a) == Fraction(-2, 3)
        assert proportionality(tuple(a[:3]) + (2 * a[3],)) is None
        assert proportionality((ZERO,) * 4) is None

    def test_basis_triple_generates_the_syzygy_module(self):
        for polys in (reference_input(), list(parse_tuple(FULL_D2_1))):
            par = validate(polys)
            tri = pipeline._basis_triple(par.syzygies, par.a)
            assert set(tri) <= set(par.syzygies) and modules_equal(tri, par.syzygies)

    def test_basis_triple_builds_no_groebner_basis(self, monkeypatch):
        par = validate(list(parse_tuple(FULL_D2_1)))
        assert len(par.syzygies) == 4
        calls = []
        real = pipeline.buchberger
        monkeypatch.setattr(pipeline, "buchberger", lambda g: calls.append(g) or real(g))
        assert pipeline._basis_triple(par.syzygies, par.a) is not None and calls == []

    def test_basis_triple_builds_one_component_of_a_failing_triple(self, monkeypatch):
        # component j = 0 is read first; all four only for the triple that
        # passes it, the third tried on full_d2/1, whose memoized expansion
        # gives component 0 again
        asked = []
        real = pipeline._outer_components

        def recording(*tri):
            component = real(*tri)
            asked.append([])
            return lambda k: asked[-1].append(k) or component(k)

        monkeypatch.setattr(pipeline, "_outer_components", recording)
        for text, tried in ((GRADED_INPUT, [[0]] * 10), (FULL_D2_1, [[0], [0], [0, 0, 1, 2, 3]])):
            par = validate(list(parse_tuple(text)))
            asked.clear()
            pipeline._basis_triple(par.syzygies, par.a)
            assert asked == tried

    def test_basis_triple_is_the_greedy_prune_where_it_keeps_three(self):
        # the pd2 documents are pinned on the triple the membership prune
        # kept; draws 18 and 19 have five raw generators and keep more
        rng = random.Random(20240 + 1)
        raw = []
        for _ in range(50):
            par = validate(_criterion_4_draw(rng))
            if pipeline.resolve(par).ranks[2] == 0:
                continue
            kept = greedy_prune(par.syzygies)
            assert pipeline._basis_triple(par.syzygies, par.a) == (kept if len(kept) == 3 else None)
            raw.append(len(par.syzygies))
        assert len(raw) == 37 and raw.count(5) == 2

    @settings(max_examples=60, deadline=None)
    @given(changes_of_basis())
    def test_proportional_exactly_when_the_change_of_basis_is_unimodular(self, t_mat):
        # the outer product of B T is det(T) times that of B, here -a
        b_mat = PolyMatrix.from_columns(reference_basis())
        outer = outer_product(*(b_mat * t_mat).columns())
        det = t_mat.det()
        alpha = pipeline._proportionality(outer.__getitem__, reference_input())
        if det.is_constant() and not det.is_zero():
            assert alpha == -det.constant_value()
        else:
            assert alpha is None

    @pytest.mark.parametrize("polys", [[S**3, S**2 * T, S * T**2, T**3], reference_input()],
                             ids=["pd1", "pd2"])
    def test_one_syzygy_generating_set_per_parametrization(self, polys, monkeypatch):
        # compute builds Syz(a)'s generators once, and a later verification
        # of the same parametrization reads them again
        calls = []
        real = pipeline.syzygy_generators
        monkeypatch.setattr(pipeline, "syzygy_generators", lambda a: calls.append(a) or real(a))
        par = validate(polys)
        mb, _ = compute_mu_basis(par)
        assert len(calls) == 1
        verify_mu_basis(mb.vectors, par)
        assert len(calls) == 1

    def test_report_holds_the_resolution_the_bounds_read(self, monkeypatch):
        seen = []
        real = pipeline.report_for_resolution

        def recording(res):
            seen.append(res)
            return real(res)

        monkeypatch.setattr(pipeline, "report_for_resolution", recording)
        _, report = compute_mu_basis(validate(reference_input()))
        assert len(seen) == 1 and seen[0] is report.resolution


class TestInterreduce:
    def test_builds_each_pair_basis_once(self, monkeypatch):
        # the third vector drops to degree 0 in the first round, so the
        # second round meets the pair (e1, e2) again
        e1, e2 = (ONE, ZERO, ZERO, ZERO), (ZERO, ONE, ZERO, ZERO)
        v = (S**2, T**2, ONE, ZERO)
        seen = []
        real = pipeline.buchberger

        def counting(gens):
            seen.append(tuple(gens))
            return real(gens)

        monkeypatch.setattr(pipeline, "buchberger", counting)
        assert pipeline._interreduce((e1, e2, v), 0) == (e1, e2, (ZERO, ZERO, ONE, ZERO))
        assert (e1, e2) in seen and len(seen) == len(set(seen))

    def test_basis_of_degree_sum_d_is_not_reduced(self, monkeypatch):
        # a pd1 basis has degree sum d, so no vector of it can drop: no pair
        # basis is built, and the document is the one full interreduction gives
        from mubasis.cli import parse_parametrization, run

        spec = parse_parametrization("(s^3, s^2*t, s*t^2, t^3)")
        real_interreduce, real_buchberger = pipeline._interreduce, pipeline.buchberger
        calls = []
        monkeypatch.setattr(pipeline, "buchberger",
                            lambda gens: calls.append(gens) or real_buchberger(gens))
        doc, code, _ = run("compute", spec)
        assert (code, doc["branch"], doc["degree_sum"], calls) == (0, "pd1", 3, [])
        monkeypatch.setattr(pipeline, "_interreduce", lambda basis, d: real_interreduce(basis, -1))
        assert run("compute", spec)[0] == doc and len(calls) == 3


# verified bases whose first nonzero a_l has l = 0 (the reference tuple and
# full_d2/1, a basis triple) or l = 1
VERIFIED_INPUTS = ["(s^2, t^2, s^2 - 1, s^2 + 1)", FULL_D2_1, "(0, s, t^2, s*t + 1)"]


@functools.lru_cache(maxsize=None)
def _verified(text):
    par = validate(list(parse_tuple(text)))
    mb, _ = compute_mu_basis(par)
    return par, mb.vectors, mb.alpha


class TestCramerCertificate:
    # modules_equal, two Groebner bases and a double inclusion, is the oracle

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(VERIFIED_INPUTS), st.integers(0, 2**32))
    def test_unimodular_changes_of_a_basis_pass_with_the_oracle(self, text, seed):
        # row operations on I give det T = 1, so alpha is kept
        par, basis, alpha = _verified(text)
        t_mat = random_unimodular_matrix(random.Random(seed), 3, 3, max_entry_deg=2)
        moved = (PolyMatrix.from_columns(basis) * t_mat).columns()
        assert verify_mu_basis(moved, par) == alpha
        assert modules_equal(par.syzygies, moved)

    @settings(max_examples=25, deadline=None)
    @given(st.sampled_from(VERIFIED_INPUTS), st.integers(0, 2), st.integers(0, 2**32))
    def test_a_vector_times_a_non_constant_fails_with_the_oracle(self, text, i, seed):
        # stage 2 refuses f b_i already, so the certificate is called with
        # the determinant of the scaled B_l, f times that of B_l
        par, basis, _ = _verified(text)
        rng = random.Random(seed)
        f = ONE
        while f.is_constant():
            f = random_poly(rng, VARS_ST, 2, coeff_bound=2)
        scaled = list(basis)
        scaled[i] = tuple(f * x for x in basis[i])
        l = next(j for j, ai in enumerate(par.a) if not ai.is_zero())
        det_l = (-1) ** l * outer_product(*scaled)[l]
        assert not pipeline._cramer_certificate(par.syzygies, scaled, l, det_l)
        assert not modules_equal(par.syzygies, scaled)
