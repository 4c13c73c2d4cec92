"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the whole suite is part of the default pytest run.
"""

import json
import random
import time
from mubasis.arith import VARS_ST, VARS_STU, Poly, PolyMatrix, gcd_many
from mubasis.bounds import (
    case_degree_bound,
    coprime_sequence,
    general_aci_shape_check,
    socle_check,
)
from mubasis.cli import main
from mubasis.grobner import (
    buchberger,
    free_resolution,
    krull_dimension,
    minimal_generators,
    modules_equal,
)
from mubasis.pipeline import compute_mu_basis, validate
from mubasis.quillen_suslin import complete_columns, qs_degree_bound
from helpers import (
    random_form,
    random_poly,
    random_unimodular_column,
    random_unimodular_matrix,
)

S2 = Poly.variable(VARS_ST, "s")
T2 = Poly.variable(VARS_ST, "t")
ONE2 = Poly.const(VARS_ST, 1)
ZERO2 = Poly.zero(VARS_ST)

REFERENCE = "(s^2, t^2, s^2-1, s^2+1)"
REFERENCE_BASIS_TEXT = "(-t^2, 1, t^2, 0) (-2, 0, 1, 1) (1-s^2, 0, s^2, 0)"


def reference_basis_vectors():
    return [
        (-(T2**2), ONE2, T2**2, ZERO2),
        (Poly.const(VARS_ST, -2), ZERO2, ONE2, ONE2),
        (ONE2 - S2**2, ZERO2, S2**2, ZERO2),
    ]


def _announce(num, name, ok):
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_golden_end_to_end(capsys):
    start = time.perf_counter()
    code = main(["compute", REFERENCE, "--json"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    assert doc["branch"] == "pd2"
    assert doc["invariants"]["a"] == 1 and doc["invariants"]["beta2"] == 1
    assert doc["invariants"]["gamma1"] == 2 and doc["invariants"]["gamma2"] == 2
    assert doc["alpha"] != "0"
    assert max(-x for x in doc["resolution"]["shifts"]["middle"]) <= 5
    assert max(-x for x in doc["resolution"]["shifts"]["last"]) <= 6
    # module equality with the published basis (bases are non-unique)
    from mubasis.parser import parse_polynomial

    computed = [tuple(parse_polynomial(c) for c in vec) for vec in doc["basis"]]
    assert modules_equal(computed, reference_basis_vectors())
    with capsys.disabled():
        _announce(1, "golden end-to-end", True)


def test_criterion_2_published_basis_verification(capsys):
    code = main(["verify", REFERENCE, "--basis", REFERENCE_BASIS_TEXT, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["alpha"] == "-1"  # value frozen from the determinant expansion
    assert doc["checks"] == {
        "moving_planes": True,
        "outer_product_proportional": True,
        "generates_syzygy_module": True,
    }
    with capsys.disabled():
        _announce(2, "published-basis verification", True)


def test_criterion_3_koszul_regressions(capsys):
    s, t, u = (Poly.variable(VARS_STU, v) for v in "stu")
    res1 = free_resolution([s, t, u])
    assert sorted(res1.shifts0) == [1, 1, 1]
    assert sorted(res1.q) == [2, 2, 2]
    assert list(res1.p) == [3]
    assert res1.betti.regularity == 1

    res2 = free_resolution([s**2, t**2, u**2])
    assert sorted(res2.shifts0) == [2, 2, 2]
    assert sorted(res2.q) == [4, 4, 4]
    assert list(res2.p) == [6]
    reg = res2.betti.regularity
    assert reg == 4
    assert reg == 3 * 2 - 2  # meets the regularity bound with equality
    with capsys.disabled():
        _announce(3, "Koszul regressions", True)


def _random_parametrization(rng):
    while True:
        polys = [random_poly(rng, VARS_ST, rng.randint(0, 3), coeff_bound=3,
                             density=0.5) for _ in range(4)]
        nz = [p for p in polys if not p.is_zero()]
        if not nz or not gcd_many(nz).is_constant():
            continue
        if max(int(p.degree) for p in nz) < 1:
            continue  # all-constant inputs are degenerate geometry
        return polys


def test_criterion_4_randomized_theorem_suite(capsys):
    rng = random.Random(20240 + 1)
    start = time.perf_counter()
    runs = 50
    branch_counts = {}
    for k in range(runs):
        par = validate(_random_parametrization(rng))
        mb, report = compute_mu_basis(par)
        assert len(mb.vectors) == 3
        assert mb.alpha != 0
        failed = [v for v in report.bounds.verdicts if v.applicable and not v.passed]
        assert not failed, f"run {k}: {[v.name for v in failed]}"
        if report.branch == "pd2":
            d = par.d
            gamma1, gamma2 = report.resolution.gammas
            assert gamma1 <= 2 * d - 1 and gamma2 <= 2 * d
        case_value = case_degree_bound(report.bounds.case, par.d)
        assert max(mb.degrees) <= case_value
        branch_counts[report.branch] = branch_counts.get(report.branch, 0) + 1
    elapsed = time.perf_counter() - start
    assert elapsed < 900, f"suite took {elapsed:.1f}s"
    assert branch_counts.get("pd2", 0) > 0
    with capsys.disabled():
        _announce(4, f"randomized theorem suite ({runs} runs, "
                     f"{elapsed:.1f}s, branches {branch_counts})", True)


def test_criterion_5_completion_certificates(capsys):
    assert qs_degree_bound(1, 0) == 192
    assert qs_degree_bound(1, 1) == 27540
    assert qs_degree_bound(3, 0) == 881664
    rng = random.Random(77)
    verified = 0
    for k in range(30):
        if k % 3 == 2:
            n = rng.randint(1, 2)
            f = random_unimodular_matrix(rng, n + rng.randint(1, 2), n)
        else:
            f = random_unimodular_column(rng, rng.randint(2, 5))
        n = f.cols
        cert = complete_columns(f)
        ident = PolyMatrix.identity(f.rows, VARS_ST)
        target = PolyMatrix([[ONE2 if i == j else ZERO2 for j in range(n)]
                             for i in range(f.rows)])
        assert cert.M * f == target
        assert cert.M * cert.M_inv == ident
        assert cert.det != 0
        verified += 1
    assert verified == 30
    with capsys.disabled():
        _announce(5, "completion certificates (30/30 verified)", True)


def _random_height3_equal_degree(rng, d):
    while True:
        gens = [random_form(rng, VARS_STU, d, coeff_bound=4) for _ in range(4)]
        if krull_dimension(gens) != 0:
            continue
        kept, _ = minimal_generators([(g,) for g in gens], [0])
        if len(kept) == 4:
            return gens


def test_criterion_6_liaison_checks(capsys):
    rng = random.Random(4242)
    passed = 0
    for d in (2, 3):
        for _ in range(5):
            gens = _random_height3_equal_degree(rng, d)
            rep = socle_check(gens, seed=passed)
            assert rep.applicable, rep.reason
            assert rep.expected_socle_degree == 2 * d - 3
            assert rep.all_passed(), rep
            passed += 1
    assert passed >= 10
    for d in (2, 3):
        found = False
        for _ in range(8):
            gens = [random_form(rng, VARS_STU, d, coeff_bound=5, density=1.0)
                    for _ in range(4)]
            try:
                res = free_resolution(gens)
            except Exception:
                continue
            if general_aci_shape_check(res, d):
                found = True
                break
        assert found, f"no generic shape found for d={d}"
    with capsys.disabled():
        _announce(6, f"liaison checks ({passed} socle instances)", True)


def test_criterion_7_coprime_sequences(capsys):
    rng = random.Random(99)
    done = 0
    while done < 10:
        m = 2 + done % 3
        fam = [random_poly(rng, VARS_ST, rng.randint(1, 2), coeff_bound=3,
                           force_nonzero=True) for _ in range(m)]
        if not gcd_many(fam).is_constant():
            continue
        out = coprime_sequence(fam, 10)
        assert len(out) == 10
        gb = buchberger(fam)
        for i, h in enumerate(out):
            assert gb.normal_form(h).is_zero()
            for j in range(i):
                assert gcd_many([out[i], out[j]]).is_constant()
        done += 1
    with capsys.disabled():
        _announce(7, "coprime sequences (10 families, N=10)", True)
