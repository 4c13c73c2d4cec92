import random

import pytest
from hypothesis import assume, given, settings

from mubasis.arith import VARS_ST, VARS_STU, Poly, gcd_many
from mubasis import bounds, grobner
from mubasis.bounds import (
    basis_degree_bound,
    beta2_bound_equal_degree,
    beta2_bound_total,
    case_degree_bound,
    check_resolution_bounds,
    classify_surface_case,
    coprime_sequence,
    evaluate_bounds,
    expected_general_aci_shape,
    general_aci_shape_check,
    lazard_bound,
    regularity_bound,
    report_for_resolution,
    socle_check,
)
from mubasis.errors import ValidationError
from mubasis.grobner import free_resolution, krull_dimension, resolution_invariants
from helpers import (
    artinian_from_betti,
    minimal_resolution,
    random_form,
    rows_with_redundant_component,
)

S = Poly.variable(VARS_STU, "s")
T = Poly.variable(VARS_STU, "t")
U = Poly.variable(VARS_STU, "u")
S2 = Poly.variable(VARS_ST, "s")
T2 = Poly.variable(VARS_ST, "t")


class TestFormulas:
    def test_case_iv_is_input_degree(self):
        assert case_degree_bound("pd1", 7) == 7

    def test_closed_formula_reference_values(self):
        # oracle: big-integer evaluation with completion bound 881664 at D = 3
        assert basis_degree_bound(2, 1, 2) == 2 * 3 * 881664 == 5289984

    def test_regularity_bound_degree_one(self):
        assert regularity_bound(1) == 1

    def test_auxiliary_formulas(self):
        assert beta2_bound_total(2) == 15
        assert beta2_bound_equal_degree(2, 4) == 24
        assert lazard_bound(1) == 1
        assert lazard_bound(3) == 4

    def test_case_values_monotone_in_d(self):
        for case in ("general", "height3", "general_aci"):
            vals = [case_degree_bound(case, d) for d in range(1, 6)]
            assert vals == sorted(vals)
            assert all(v > 0 for v in vals)
        assert [case_degree_bound("pd1", d) for d in range(6)] == list(range(6))

    def test_evaluate_bounds_populates_report(self):
        rep = evaluate_bounds(2, 4, "height3", beta2=1, gamma1=2, gamma2=2)
        values = rep.values
        assert values["reg_bound"] == 4
        assert values["beta2_bound"] == 15
        assert values["beta2_bound_equal"] == 24
        assert values["beta1_bound"] == 4
        assert values["height3_beta1_bound"] == 6 and values["height3_beta2_bound"] == 3
        assert values["D"] == 3 and values["qs_bound"] == 881664
        assert values["basis_bound"] == 5289984
        assert rep.case_value == case_degree_bound("height3", 2)


def reference_resolution():
    gens = [S**2, T**2, S**2 - U**2, S**2 + U**2]
    return free_resolution(gens)


class TestResolutionVerdicts:
    def test_reference_surface(self):
        res = reference_resolution()
        verdicts = check_resolution_bounds(res)
        by_name = {v.name: v for v in verdicts}
        reg = by_name["reg(ideal) <= 3d-2"]
        assert reg.passed and reg.observed == 4 and reg.bound == 4  # tight
        b2 = by_name["beta2 <= C(3d,2)"]
        assert b2.passed and b2.observed == 1 and b2.bound == 15
        assert all(v.passed for v in verdicts if v.applicable)

    def test_linear_generators(self):
        t3 = Poly.variable(VARS_STU, "t")
        gens = [S, t3, U, U]
        res = free_resolution(gens)
        verdicts = check_resolution_bounds(res)
        by_name = {v.name: v for v in verdicts}
        qv = by_name["max q_i <= 3d-1"]
        assert qv.passed and qv.bound == 2
        assert all(v.passed for v in verdicts if v.applicable)

    def test_classification(self):
        res = reference_resolution()
        # Artinian equal-degree but not the generic shape (Koszul on 3 gens)
        assert classify_surface_case(res) == "height3"

    def test_report_for_resolution(self):
        res = reference_resolution()
        rep = report_for_resolution(res)
        assert rep.case == "height3"
        assert rep.all_passed()
        assert rep.observed["beta2"] == 1
        assert rep.observed["regularity"] == 4

    def test_report_builds_no_resolution_and_no_groebner_basis(self, monkeypatch):
        calls = {"free_resolution": 0, "buchberger": 0}
        for module in (grobner, bounds):
            for name in calls:
                def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
                    calls[_name] += 1
                    return _real(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)
        for gens in ([S**2, T**2, S**2 - U**2, S**2 + U**2],
                     [S**2 - T * U, T**2, U**2, Poly.zero(VARS_STU)]):
            res = free_resolution(gens)
            calls.update(free_resolution=0, buchberger=0)
            rep = report_for_resolution(res)
            assert rep.case == "height3" and rep.all_passed()
            # the graded beta2 caps read the basis the resolution built
            assert calls == {"free_resolution": 0, "buchberger": 0}

    @pytest.mark.parametrize("gens", [
        [S**2, T**2, S**2 - U**2, S**2 + U**2],
        [S**2, S * T, T**2, S * U],
        [S, T, Poly.zero(VARS_STU), Poly.zero(VARS_STU)],
        [S * U, T * U, U**2, S * T],
        [Poly.const(VARS_STU, 1), S, T, U],
    ] + [[random_form(rng, VARS_STU, 2, coeff_bound=3, density=0.4) for _ in range(4)]
         for rng in map(random.Random, range(4))])
    def test_height_from_betti_table_matches_krull_dimension(self, gens):
        res = free_resolution(gens)
        nonzero = [g for g in gens if not g.is_zero()]
        height3 = krull_dimension(nonzero) == 0
        assert artinian_from_betti(res.betti, 3) == height3
        assert (krull_dimension(res.first_basis) == 0) == height3


@settings(max_examples=60, deadline=20000)
@given(rows_with_redundant_component())
def test_height3_regime_matches_the_betti_moment_oracle(row):
    """The regime and the height-3 verdicts, decided from first_basis, agree
    with the Hilbert-series moments of the row's own (non-minimal) table."""
    assume(any(not g.is_zero() for g in row))
    res = free_resolution(row)
    d = max(int(g.degree) for g in row if not g.is_zero())
    equal_degree = all(int(g.degree) == d for g in row if not g.is_zero())
    expected = equal_degree and artinian_from_betti(resolution_invariants(res)[0], 3)
    assert (classify_surface_case(res) == "height3") == expected
    verdicts = {v.name: v for v in check_resolution_bounds(res)}
    for name in ("beta1 <= 2d+2 (height 3, equal degrees)",
                 "beta2 <= 2d-1 (height 3, equal degrees)"):
        assert verdicts[name].applicable == expected


class TestCoprimeSequence:
    def test_two_variables(self):
        out = coprime_sequence([S2, T2], 3)
        assert len(out) == 3
        for i in range(3):
            for j in range(i):
                assert gcd_many([out[i], out[j]]).is_constant()

    def test_unit_ideal(self):
        out = coprime_sequence([S2, Poly.const(VARS_ST, 1)], 5)
        assert len(out) == 5

    def test_proof_start_matches_last_member(self):
        f = [S2**2, S2 * T2 + 1]
        out = coprime_sequence(f, 2)
        assert out[0] == S2 * T2 + 1
        for i in range(2):
            for j in range(i):
                assert gcd_many([out[i], out[j]]).is_constant()

    def test_gcd_not_one_rejected(self):
        with pytest.raises(ValidationError, match="gcd"):
            coprime_sequence([S2 * T2, S2**2], 3)

    def test_randomized_families(self):
        rng = random.Random(71)
        from mubasis.grobner import buchberger
        from helpers import random_poly

        done = 0
        while done < 4:
            m = rng.randint(2, 4)
            fam = [random_poly(rng, VARS_ST, 2, coeff_bound=3, force_nonzero=True)
                   for _ in range(m)]
            if not gcd_many(fam).is_constant():
                continue
            out = coprime_sequence(fam, 6)
            gb = buchberger(fam)
            for h in out:
                assert gb.normal_form(h).is_zero()
            done += 1


def random_height3_instance(rng, d):
    """Four equal-degree-d forms generating a height-3, minimally
    4-generated ideal."""
    from mubasis.grobner import minimal_generators

    while True:
        gens = [random_form(rng, VARS_STU, d, coeff_bound=4) for _ in range(4)]
        if krull_dimension(gens) != 0:
            continue
        kept, _ = minimal_generators([(g,) for g in gens], [0])
        if len(kept) == 4:
            return gens


class TestSocleCheck:
    def test_degree_two_random(self):
        rng = random.Random(5)
        gens = random_height3_instance(rng, 2)
        rep = socle_check(gens, seed=1)
        assert rep.applicable
        assert rep.expected_socle_degree == 1
        assert rep.all_passed(), rep

    def test_degree_three_random(self):
        rng = random.Random(9)
        gens = random_height3_instance(rng, 3)
        rep = socle_check(gens, seed=2)
        assert rep.applicable
        assert rep.expected_socle_degree == 3
        assert rep.all_passed(), rep

    @pytest.mark.parametrize("d, rng_seed, seed", [(2, 5, 1), (3, 9, 2)])
    def test_builds_each_groebner_basis_once(self, d, rng_seed, seed, monkeypatch):
        # one basis each for the height of (g1..g4), the height of each
        # attempt's (h1, h2, h3) and the test of h4, the colon's syzygies,
        # the colon, and (h1..h4); modules_equal's two are its own check
        gens = random_height3_instance(random.Random(rng_seed), d)
        calls = []
        real = grobner._buchberger_ext
        monkeypatch.setattr(grobner, "_buchberger_ext",
                            lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
        rep = socle_check(gens, seed=seed)
        assert rep.all_passed()
        assert len(calls) == 6 + rep.attempts

    def test_not_applicable_wrong_height(self):
        rep = socle_check([S**2, S * T, T**2, S * U], seed=0)
        assert not rep.applicable

    def test_not_applicable_unequal_degrees(self):
        rep = socle_check([S, T**2, U**2, S**2], seed=0)
        assert not rep.applicable


class TestGeneralAciShape:
    def test_expected_shape_degree_one(self):
        first, middle, last = expected_general_aci_shape(1)
        assert first == [1, 1, 1, 1]
        assert middle == [1, 2, 2, 2]
        assert last == [3]

    def test_generic_quadrics(self):
        rng = random.Random(13)
        found = False
        for _ in range(5):
            gens = [random_form(rng, VARS_STU, 2, coeff_bound=5, density=1.0)
                    for _ in range(4)]
            try:
                res = free_resolution(gens)
            except Exception:
                continue
            if general_aci_shape_check(res, 2):
                found = True
                break
        assert found

    def test_reference_ideal_is_not_generic(self):
        gens = [S**2, T**2, S**2 - U**2, S**2 + U**2]
        res = minimal_resolution(gens)
        assert not general_aci_shape_check(res, 2)

    def test_reads_the_minimal_table_of_any_resolution(self):
        # the reference row has a redundant fourth generator
        assert not general_aci_shape_check(reference_resolution(), 2)
        rng = random.Random(13)
        gens = [random_form(rng, VARS_STU, 2, coeff_bound=5, density=1.0) for _ in range(4)]
        assert general_aci_shape_check(free_resolution(gens), 2)
