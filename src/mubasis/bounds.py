"""Evaluation and empirical validation of the degree and Betti-number bounds.

Every formula is evaluated in exact integer arithmetic.  Violations of any
proved inequality are reported as failed verdicts; the test suite treats a
failed verdict on valid input as a library bug.

Observed regularity, Betti numbers and generic-ACI shape are the Tor
dimensions ``FreeResolution.betti`` reads off the resolution of the given
row; height 3 is read off the leads of its ``first_basis``, and d and m off
the row itself, so the report takes the resolution alone.  No second
resolution and no Groebner basis is built.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from math import comb

from .arith import Poly, exact_div, gcd_many
from .errors import InternalError, ValidationError
from .grobner import (
    FreeResolution,
    _betti_table,
    buchberger,
    hilbert_function,
    hilbert_quotient,
    ideal_quotient,
    krull_dimension,
    minimal_generators,
    modules_equal,
)
from .grobner import free_resolution  # noqa: F401  perfbench/tracing.py wraps this binding
from .quillen_suslin import degree_bound_for_D

#: The four bound regimes for the basis-degree theorem, tightest last.
CASES = ("general", "height3", "general_aci", "pd1")


def regularity_bound(d: int) -> int:
    return 3 * d - 2


def beta2_bound_total(d: int) -> int:
    return comb(3 * d, 2)


def beta2_bound_equal_degree(d: int, m: int) -> int:
    return m * comb(2 * d, 2)


def lazard_bound(d: int) -> int:
    return 2 * d - min(2, d)


def basis_degree_bound(gamma1: int, beta2: int, gamma2: int) -> int:
    """Closed-form degree bound for the extracted basis: gamma1 (beta2+2)
    times the completion bound at D = beta2 (1 + gamma2)."""
    D = beta2 * (1 + gamma2)
    return gamma1 * (beta2 + 2) * degree_bound_for_D(D)


def case_degree_bound(case: str, d: int) -> int:
    """Exact basis-degree bound for each regime of the main theorem.

    The non-trivial cases substitute the regime's Betti and entry-degree
    caps into the closed formula; the free-syzygy case is just d.
    """
    if case == "pd1":
        return d
    if d < 1:
        raise ValueError("non-trivial cases need d >= 1")
    if case == "general":
        return basis_degree_bound(2 * d - 1, beta2_bound_total(d), 2 * d)
    if case == "height3":
        return basis_degree_bound(2 * d - 1, 2 * d - 1, 2 * d)
    if case == "general_aci":
        return basis_degree_bound(d, d, 2)
    raise ValueError(f"unknown case {case!r}")


@dataclass
class Verdict:
    """One checked inequality with its evidence."""

    name: str
    bound: int | None
    observed: int | None
    passed: bool
    applicable: bool = True


@dataclass
class BoundsReport:
    """All evaluated bound formulas together with observations and verdicts.

    ``values`` maps each formula's name to its value, None where it does
    not apply, in the order ``evaluate_bounds`` builds, which the human
    output keeps."""

    case: str
    values: dict
    case_values: dict
    case_value: int
    observed: dict = field(default_factory=dict)
    verdicts: list = field(default_factory=list)

    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts if v.applicable)


def evaluate_bounds(d: int, m: int, case: str, beta2: int | None = None,
                    gamma1: int | None = None, gamma2: int | None = None) -> BoundsReport:
    """Evaluate every bound formula for the given invariants (exact integers)."""
    if case not in CASES:
        raise ValueError(f"unknown case {case!r}")
    case_values = {"pd1": d}
    if d >= 1:
        for c in ("general", "height3", "general_aci"):
            case_values[c] = case_degree_bound(c, d)
    D = qs = basis = None
    if beta2 is not None and gamma2 is not None and beta2 > 0:
        D = beta2 * (1 + gamma2)
        qs = degree_bound_for_D(D)
        if gamma1 is not None:
            basis = basis_degree_bound(gamma1, beta2, gamma2)
    values = {
        "reg_bound": regularity_bound(d),
        "beta2_bound": beta2_bound_total(d),
        "beta2_bound_equal": beta2_bound_equal_degree(d, m) if d >= 1 else None,
        "beta1_bound": None if beta2 is None else beta2 + m - 1,
        "height3_beta1_bound": 2 * d + 2,
        "height3_beta2_bound": 2 * d - 1,
        "lazard": lazard_bound(d),
        "D": D,
        "qs_bound": qs,
        "basis_bound": basis,
    }
    return BoundsReport(case=case, values=values, case_values=case_values,
                        case_value=case_values[case])


def check_resolution_bounds(res: FreeResolution) -> list[Verdict]:
    """Evaluate every proved inequality against a resolution of the ideal.

    The true (minimal) Betti numbers and the regularity are read off the
    resolution (``FreeResolution.betti``), and d and m off its row: the
    largest shift, which is the largest degree, and the number of entries.
    Failures are verdicts, not exceptions.
    """
    d, m = max(res.shifts0), len(res.gens)
    if d < 1:
        return [Verdict("degenerate input (d = 0): bound theorems not applicable",
                        None, None, True, applicable=False)]
    betti = res.betti
    gens = [g for g in res.gens if not g.is_zero()]
    reg = betti.regularity
    beta1, beta2 = betti.totals[1], betti.totals[2]
    out = [
        Verdict("reg(ideal) <= 3d-2", regularity_bound(d), reg,
                reg <= regularity_bound(d)),
        Verdict("beta2 <= C(3d,2)", beta2_bound_total(d), beta2,
                beta2 <= beta2_bound_total(d)),
        Verdict("beta1 <= beta2 + m - 1", beta2 + m - 1, beta1,
                beta1 <= beta2 + m - 1),
    ]
    equal_degree = all(int(g.degree) == d for g in gens)
    eq_bound = beta2_bound_equal_degree(d, len(gens))
    out.append(Verdict("beta2 <= m*C(2d,2) (equal degrees)", eq_bound, beta2,
                       beta2 <= eq_bound, applicable=equal_degree))
    graded = sorted((p, n) for (i, p), n in betti.entries.items() if i == 2)
    gb = res.first_basis
    for p, count in graded:
        cap = hilbert_function(gb, p - 2) - hilbert_function(gb, p - 3)
        out.append(Verdict(f"graded beta2 in degree {p} <= H({p-2})-H({p-3})",
                           cap, count, count <= cap))
    if res.q:
        out.append(Verdict("max q_i <= 3d-1", 3 * d - 1, max(res.q),
                           max(res.q) <= 3 * d - 1))
    if res.p:
        out.append(Verdict("max p_i <= 3d", 3 * d, max(res.p),
                           max(res.p) <= 3 * d))
    out.append(Verdict("last rank of fixed resolution = beta2", beta2,
                       res.ranks[2], res.ranks[2] == beta2))
    applicable = equal_degree and krull_dimension(gb) == 0
    out.append(Verdict("beta1 <= 2d+2 (height 3, equal degrees)", 2 * d + 2,
                       beta1, beta1 <= 2 * d + 2, applicable=applicable))
    out.append(Verdict("beta2 <= 2d-1 (height 3, equal degrees)", 2 * d - 1,
                       beta2, beta2 <= 2 * d - 1, applicable=applicable))
    return out


def classify_surface_case(res: FreeResolution) -> str:
    """Tightest applicable regime for the basis-degree theorem, read off a
    resolution of the ideal; height 3 means R/I is Artinian, which the
    leads of ``first_basis`` decide (``krull_dimension``)."""
    if res.ranks[2] == 0:
        return "pd1"
    d = max(res.shifts0)
    if general_aci_shape_check(res, d):
        return "general_aci"
    gens = [g for g in res.gens if not g.is_zero()]
    if all(int(g.degree) == d for g in gens) and krull_dimension(res.first_basis) == 0:
        return "height3"
    return "general"


# ---------------------------------------------------------------------------
# Pairwise-coprime sequences inside an ideal
# ---------------------------------------------------------------------------


def _unit_ideal_stream(vars):
    yield Poly.const(vars, 1)
    x = Poly.variable(vars, vars[0])
    c = 0
    while True:
        yield x + c
        c += 1


def _coprime_stream(f_list):
    """Infinite pairwise-coprime sequence inside (f_1, ..., f_m), gcd = 1.

    The skeleton is the constructive recursion: split off the gcd g of the
    first m-1 members, take a coprime sequence h' for the quotient family,
    start from h_1 = f_m, and extend with h_{k+1} = h_1...h_k + g h'_j,
    retrying j until the new member is coprime to the running product.

    Before falling back to that product step (whose degrees double at every
    extension), each round first searches the bounded-degree candidates
    f_m + g h'_j; a candidate is accepted only when it is coprime to every
    member so far *and* to the running cofactor g_k, which keeps the
    invariants of the product construction intact for the fallback.
    """
    vars = f_list[0].vars
    m = len(f_list)
    if m == 1:
        yield from _unit_ideal_stream(vars)
        return
    g = gcd_many(f_list[:-1])
    fprime = []
    for f in f_list[:-1]:
        q = exact_div(f, g)
        if q is None:
            raise InternalError("gcd does not divide its family")
        fprime.append(q)
    base = [Poly.const(vars, 1)] if all(p.is_constant() for p in fprime) else fprime
    sub = _coprime_stream(base)
    f_m = f_list[-1]
    members = [f_m]
    yield f_m
    h_prod = f_m
    g_k = g
    search = _coprime_stream(base)
    while True:
        new_h = None
        for _ in range(25):
            h_j = next(search)
            cand = f_m + g * h_j
            if cand.is_zero():
                continue
            if not gcd_many([cand, g_k]).is_constant():
                continue
            if all(gcd_many([cand, h]).is_constant() for h in members):
                new_h = cand
                break
        if new_h is None:
            for _ in range(500):
                h_j = next(sub)
                cand = g_k * h_j
                if gcd_many([h_prod, cand]).is_constant():
                    new_h = h_prod + cand
                    g_k = cand
                    break
            else:
                raise InternalError("coprime sequence construction stalled")
        members.append(new_h)
        h_prod = h_prod * new_h
        yield new_h


def coprime_sequence(f_list, n: int) -> list[Poly]:
    """n pairwise-coprime members of the ideal (f_1, ..., f_m).

    Requires gcd(f_list) = 1.  The output is verified: pairwise gcds are
    constant and every member reduces to zero against the ideal.
    """
    f_list = [f for f in f_list if not f.is_zero()]
    if len(f_list) < 1:
        raise ValidationError("empty family")
    if not gcd_many(f_list).is_constant():
        raise ValidationError("family gcd is not 1")
    stream = _coprime_stream(f_list)
    out = [next(stream) for _ in range(n)]
    gb = buchberger(f_list)
    for i, h in enumerate(out):
        if not gb.normal_form(h).is_zero():
            raise InternalError("coprime sequence member left the ideal")
        for j in range(i):
            if not gcd_many([out[j], h]).is_constant():
                raise InternalError("coprime sequence members share a factor")
    return out


# ---------------------------------------------------------------------------
# Liaison / socle-degree check
# ---------------------------------------------------------------------------


@dataclass
class SocleReport:
    """Outcome of the linkage check for a height-3 equal-degree ideal."""

    applicable: bool
    reason: str = ""
    d: int | None = None
    expected_socle_degree: int | None = None
    observed_socle_degree: int | None = None
    artinian: bool = False
    socle_degree_ok: bool = False
    hilbert_identity_ok: bool = False
    symmetry_ok: bool = False
    attempts: int = 0
    hilbert_g: tuple = ()

    def all_passed(self) -> bool:
        return (self.applicable and self.artinian and self.socle_degree_ok
                and self.hilbert_identity_ok and self.symmetry_ok)


def socle_check(gens, seed: int = 0) -> SocleReport:
    """Link J = (g_1..g_4) through a complete intersection and check the
    socle degree 2d-3, the Hilbert-function identity, and symmetry.

    A random upper-triangular scalar change produces the complete
    intersection; seeds are retried until its height is 3.  Its one
    Groebner basis gives both that height and the test of h_4, and the
    colon's reduced basis is read as ``ideal_quotient`` returns it;
    ``modules_equal`` keeps its own two bases as the independent check.
    """
    gens = list(gens)
    if len(gens) != 4 or any(g.is_zero() for g in gens):
        return SocleReport(False, reason="needs four nonzero generators")
    degs = {int(g.degree) for g in gens}
    if len(degs) != 1:
        return SocleReport(False, reason="generators are not of equal degree")
    d = degs.pop()
    if d < 2:
        return SocleReport(False, reason="needs degree at least 2")
    if krull_dimension(gens) != 0:
        return SocleReport(False, reason="ideal does not have height 3")
    kept, _ = minimal_generators([(g,) for g in gens], [0])
    if len(kept) != 4:
        return SocleReport(False, reason="ideal is not minimally 4-generated")

    rng = random.Random(seed)
    attempts = 0
    h = None
    for attempts in range(1, 21):
        def scalar():
            c = 0
            while c == 0:
                c = rng.randint(-10, 10)
            return c

        g1, g2, g3, g4 = gens
        cand = [
            g1 + scalar() * g2 + scalar() * g3 + scalar() * g4,
            g2 + scalar() * g3 + scalar() * g4,
            g3 + scalar() * g4,
            g4,
        ]
        gb_k = buchberger(cand[:3])
        if krull_dimension(gb_k) == 0:
            h = cand
            break
    if h is None:
        return SocleReport(False, reason="no complete intersection found in 20 tries",
                           attempts=attempts)
    if not modules_equal(gens, h):
        raise InternalError("triangular transformation changed the ideal")
    if gb_k.normal_form(h[3]).is_zero():
        return SocleReport(False, reason="fourth generator lies in the complete intersection",
                           attempts=attempts)

    gb_g = ideal_quotient(h[:3], h[3])
    top = 3 * d - 3
    gb_j = buchberger(h)
    hilb_g = tuple(hilbert_quotient(gb_g, k) for k in range(top + 2))
    artinian = krull_dimension(gb_g) == 0
    observed = max((k for k, v in enumerate(hilb_g) if v != 0), default=None)
    expected = 2 * d - 3
    identity_ok = True
    for t in range(top + 1):
        lhs = hilb_g[t]
        rhs = hilbert_quotient(gb_k, top - t) - hilbert_quotient(gb_j, top - t)
        if lhs != rhs:
            identity_ok = False
            break
    symmetry_ok = all(hilb_g[t] == hilb_g[expected - t] for t in range(expected + 1)) \
        if expected >= 0 else False
    return SocleReport(
        applicable=True,
        d=d,
        expected_socle_degree=expected,
        observed_socle_degree=observed,
        artinian=artinian,
        socle_degree_ok=observed == expected,
        hilbert_identity_ok=identity_ok,
        symmetry_ok=symmetry_ok,
        attempts=attempts,
        hilbert_g=hilb_g,
    )


# ---------------------------------------------------------------------------
# Generic almost-complete-intersection resolution shape
# ---------------------------------------------------------------------------


def expected_general_aci_shape(d: int):
    """(first, middle, last) internal-degree multisets of the generic
    resolution of four equal-degree-d forms: S(-d)^4 <- S(-2d)^3 + S(-2d+1)^d
    <- S(-2d-1)^d."""
    first = sorted([d] * 4)
    middle = sorted([2 * d] * 3 + [2 * d - 1] * d)
    last = sorted([2 * d + 1] * d)
    return first, middle, last


def general_aci_shape_check(res: FreeResolution, d: int) -> bool:
    """True when the ideal's minimal resolution (``FreeResolution.betti``)
    has the generic shape for four degree-d forms."""
    return res.betti.entries == _betti_table(expected_general_aci_shape(d), False).entries


def report_for_resolution(res: FreeResolution) -> BoundsReport:
    """Assemble a BoundsReport (formulas + verdicts + observations) for a
    resolution of the homogenized ideal over its given generator row; d and
    m are read off that row."""
    d, m = max(res.shifts0), len(res.gens)
    verdicts = check_resolution_bounds(res)
    case = classify_surface_case(res) if d >= 1 else "pd1"
    gamma1, gamma2 = res.gammas
    beta2 = res.ranks[2]
    report = evaluate_bounds(d, m, case, beta2=beta2 or None,
                             gamma1=gamma1, gamma2=gamma2)
    report.verdicts = verdicts
    report.observed = {
        "ranks": res.ranks,
        "gamma1": gamma1,
        "gamma2": gamma2,
        "beta2_fixed": beta2,
        "max_q": max(res.q) if res.q else None,
        "max_p": max(res.p) if res.p else None,
    }
    if d >= 1:
        report.observed.update(beta1=res.betti.totals[1], beta2=res.betti.totals[2],
                               regularity=res.betti.regularity)
    return report
