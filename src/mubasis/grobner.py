"""Groebner bases for ideals and submodules of free modules over Q[s,t(,u)].

Groebner bases run through one engine on sparse module vectors, an ideal
being the rank-1 case.  A vector maps packed int keys (arith.Packing), one
per (position, monomial), to coefficients; the one term order, grevlex with
ties broken by position, is int comparison, and products, divisibility and
quotients are int arithmetic.  For the callers that need them, Buchberger
tracks representations over the input generators, which power Schreyer
syzygies, membership lifting and ideal quotients.

The engine is fraction-free.  Buchberger keeps its basis as primitive
integer vectors with positive leading coefficients, forms S-vectors with
integer multipliers and reduces on ints with one running multiplier
(_reduce_int); every vector is a rational multiple of the one division over
Q would give, so the reduction path is that of the rational algorithm.
Rational values appear only at the boundary (``Poly.num``/``Poly.den``,
whose monomial keys a vector takes over with a position added): the input
vectors, the monic reduced basis with its representations, and the
remainders and quotients of _reduce_full.

Free resolutions are built by exact linear algebra on one graded piece at a
time (graded Nakayama), with one echelon routine that yields both the
graded syzygy spaces and the minimal generators.  One Groebner basis, of
the ideal, ends both scans: the first map's at the degree of the Schreyer
syzygies left by the strict chain criterion, the second's once it has kept
the rank of the free module ker d1, under a cap read off the leads.  Its
Hilbert function gives the dimension of every graded piece of both maps
beforehand, so a piece the kept syzygies already span is skipped unbuilt,
and a built piece must have exactly that dimension.  The Buchberger and
Schreyer route of ``syzygy_generators`` stays independent of it and serves
verification.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, partial
from math import gcd, lcm
from typing import Sequence

from .arith import (
    Poly,
    PolyMatrix,
    _content,
    _integer_scaled,
    monomial_keys,
    monomials_of_degree,
    packing,
    primitive_scale,
)
from .errors import InternalError

# ---------------------------------------------------------------------------
# Sparse module vectors
# ---------------------------------------------------------------------------


class Vec:
    """Element of a free module R^rank: terms / den, with terms {key: nonzero
    int} over keys packing (position, monomial) as in arith.Packing and
    den > 0 (not kept coprime to the content; to_polys reduces each one).
    A key is the monomial key of its Poly entry plus packing.shift(pos)."""

    __slots__ = ("vars", "rank", "terms", "den")

    def __init__(self, vars, rank, terms, den=1):
        self.vars = vars
        self.rank = rank
        self.terms = terms
        self.den = den

    @classmethod
    def from_polys(cls, polys: Sequence[Poly], rank=None) -> "Vec":
        rank = len(polys) if rank is None else rank
        den, nums = _integer_scaled(polys)
        shift = packing(len(polys[0].vars)).shift
        terms = {k + sh: c for pos, num in enumerate(nums) for sh in (shift(pos),)
                 for k, c in num.items()}
        return cls(polys[0].vars, rank, terms, den)

    def to_polys(self) -> tuple[Poly, ...]:
        pk = packing(len(self.vars))
        mono = ~pk.pos_mask  # clears the position field
        buckets: list[dict] = [dict() for _ in range(self.rank)]
        for key, c in self.terms.items():
            buckets[pk.position(key)][key & mono] = c
        return tuple(Poly._reduced(self.vars, b, self.den) for b in buckets)

    def is_zero(self) -> bool:
        return not self.terms


def _lead(g: Vec):
    """(key, coefficient) of the leading term of g."""
    key = max(g.terms)
    return key, g.terms[key]


def _primitive(terms: dict, vars, rank, den=1):
    """(c, v, lead): v = c * terms / den as a Vec of coprime integers with
    a positive leading coefficient (c rational), and lead = _lead(v)."""
    g, ints = _integral(terms)
    key = max(ints)
    if ints[key] < 0:
        g, ints = -g, {k: -x for k, x in ints.items()}
    return Fraction(den, g), Vec(vars, rank, ints), (key, ints[key])


def _spair(gi: Vec, lead_i, gj: Vec, lead_j):
    """S-vector (lc_j/h) x^qi gi - (lc_i/h) x^qj gj of two integer vectors
    whose leads share a position, h = gcd(lc_i, lc_j), x^qi and x^qj the
    cofactors of the leads in their lcm.  Returns (terms, qi, fi, qj, fj)
    with fi = lc_j/h and fj = lc_i/h, qi and qj as monomial keys."""
    (ki, ci), (kj, cj) = lead_i, lead_j
    u = packing(len(gi.vars)).lcm(ki, kj)
    qi, qj = u - ki, u - kj
    h = gcd(ci, cj)
    fi, fj = cj // h, ci // h
    terms = {k + qi: fi * c for k, c in gi.terms.items()}
    for k, c in gj.terms.items():
        k += qj
        val = terms.get(k, 0) - fj * c
        if val:
            terms[k] = val
        else:
            del terms[k]
    return terms, qi, fi, qj, fj


def _reduce_int(work: dict, basis: Sequence[Vec], leads, want_quotients: bool):
    """Full reduction of an integer vector against integer vectors, on ints.

    work ({key: int}) is consumed, and every lead in leads (_lead of each
    basis element) is positive.  A step takes the greatest term c x^t
    (max(work)), the first lead l x^n dividing it (the guard-bit test of
    arith.Packing) and g = gcd(c, l), and sets work to (l/g) work -
    (c/g) x^(t-n) basis_i: the terms and reducers of division over Q.
    Returns (K, rem, quots), K the product of the factors l/g, with
    K * work = sum_i quots[i] * basis[i] + rem; rem has no term divisible
    by a lead, and quots[i] is {monomial key: int} (None unless
    want_quotients).
    """
    pk = packing(len(basis[0].vars)) if basis else None
    guard, mask = (pk.guard, pk.div_mask) if pk else (0, 0)
    rem: dict = {}  # rem and quots hold (coefficient, K at its step), scaled at the end
    quots = [dict() for _ in basis] if want_quotients else None
    K = 1
    while work:
        t = max(work)
        c = work[t]
        tg = t + guard
        for hit, (lead, glc) in enumerate(leads):
            if (tg - lead) & mask == guard:
                break
        else:
            rem[t] = (c, K)
            del work[t]
            continue
        q = t - lead
        g = gcd(c, glc)
        mult, f = glc // g, c // g
        if mult != 1:
            K *= mult
            for term in work:
                work[term] *= mult
        if want_quotients:
            quots[hit][q] = (f, K)
        for b, bc in basis[hit].terms.items():
            term = b + q
            val = work.get(term, 0) - bc * f
            if val:
                work[term] = val
            else:
                work.pop(term, None)
    rem = {t: c * (K // k) for t, (c, k) in rem.items()}
    if want_quotients:
        quots = [{q: c * (K // k) for q, (c, k) in qs.items()} for qs in quots]
    return K, rem, quots


def _rational_quotients(quots, scales, d, vars) -> list[Poly]:
    """The Poly quots[i] * scales[i] / d over Q for each {monomial key: int}
    dict (d a nonzero int, scales[i] nonzero rationals): quotients over
    rational basis vectors b_i whose integer forms are scales[i] * b_i."""
    out = []
    for q, s in zip(quots, scales):
        a, b = s.numerator, s.denominator * d
        if b < 0:
            a, b = -a, -b
        out.append(Poly._reduced(vars, {m: c * a for m, c in q.items()}, b))
    return out


def _reduce_full(vec: Vec, basis: Sequence[Vec], want_quotients=False, forms=None):
    """Full normal form of vec against basis over Q; optionally with quotients.

    Returns (remainder, quotients) where quotients[i] is the Poly q_i with
    vec = sum q_i basis_i + remainder (None unless want_quotients).  The
    reduction runs on integers (_reduce_int), against the integer forms
    (scales, ints, leads) of the basis, ints[i] = scales[i] * basis[i] as
    made by _primitive; forms passes them in when cached.  Only the results
    are divided out over Q.
    """
    if forms is None:
        forms = list(zip(*[_primitive(g.terms, g.vars, g.rank, g.den) for g in basis]))
    scales, ints, leads = forms or ((), (), ())
    K, rem, quots = _reduce_int(dict(vec.terms), ints, leads, want_quotients)
    d = K * vec.den  # K * den * vec = sum quots_i * ints_i + rem
    remainder = Vec(vec.vars, vec.rank, rem, d)
    if not want_quotients:
        return remainder, None
    return remainder, _rational_quotients(quots, scales, d, vec.vars)


@dataclass
class _ExtGB:
    """Reduced Groebner basis, with representations over the input generators
    when they were tracked (reps is None otherwise).

    ints holds the elements as primitive integer vectors with positive
    leading coefficients and lead_terms their _lead; vecs holds the monic
    elements over Q, and reps[i] expresses vecs[i] over the generators.
    """

    vars: tuple
    rank: int
    ngens: int
    ints: list
    reps: list | None   # reps[i]: list of Poly, vecs[i] = sum reps[i][j] * gen_j
    lead_terms: list = field(init=False)
    vecs: list = field(init=False)

    def __post_init__(self):
        self.lead_terms = [_lead(g) for g in self.ints]
        self.vecs = [Vec(self.vars, self.rank, g.terms, lc)
                     for g, (_, lc) in zip(self.ints, self.lead_terms)]
        self._forms = ([lc for _, lc in self.lead_terms], self.ints, self.lead_terms)

    def reduce(self, vec: Vec, want_quotients=False):
        return _reduce_full(vec, self.vecs, want_quotients, self._forms)

    def reduce_certified(self, vec: Vec):
        """(remainder, coeffs) with vec = sum coeffs_i gen_i + remainder."""
        rem, quots = self.reduce(vec, want_quotients=True)
        zero = Poly.zero(self.vars)
        coeffs = [zero] * self.ngens
        for q, rep in zip(quots, self.reps):
            if q.is_zero():
                continue
            coeffs = [c + q * r for c, r in zip(coeffs, rep)]
        return rem, coeffs

    def lift(self, vec: Vec):
        """Coefficients over the original generators, or None if not a member."""
        rem, coeffs = self.reduce_certified(vec)
        if not rem.is_zero():
            return None
        return coeffs


def _add_combination(base, coeffs, vectors):
    """base + sum_g coeffs[g] * vectors[g], entry by entry (lists of Poly)."""
    out = list(base)
    for c, v in zip(coeffs, vectors):
        if c.is_zero():
            continue
        for l, vl in enumerate(v):
            if not vl.is_zero():
                out[l] = out[l] + c * vl
    return out


def _buchberger_ext(gens: Sequence[Vec], track_reps: bool) -> _ExtGB:
    """Buchberger with sugar selection and both classical criteria; finishes
    with interreduction to the reduced basis.  With track_reps every basis
    element carries its representation over gens, which only lifting and
    syzygy callers read.

    The engine is fraction-free.  Every basis element is kept as a primitive
    integer vector with a positive leading coefficient (_primitive), the
    S-vector of a pair is formed with integer multipliers (_spair) and
    reduced on integers (_reduce_int), and each remainder is made primitive
    again.  Every vector is a nonzero rational multiple of the one division
    over Q would give, so the terms, reducers, pairs and sugars are those of
    the rational algorithm; representations are scaled by the same factors.
    Only the reduced basis becomes monic over Q, in _ExtGB.
    """
    vars, rank, k = gens[0].vars, gens[0].rank, len(gens)
    zero = Poly.zero(vars)
    pk = packing(len(vars))
    degree, divides = pk.degree, pk.divides

    G: list[Vec] = []
    LT: list = []  # _lead of every element of G
    reps: list = []
    sugars: list[int] = []
    for idx, g in enumerate(gens):
        if g.is_zero():
            continue
        c, v, lead = _primitive(g.terms, vars, rank, g.den)
        G.append(v)
        LT.append(lead)
        reps.append([Poly.const(vars, c) if j == idx else zero for j in range(k)]
                    if track_reps else None)
        sugars.append(degree(lead[0]))

    def negated(quots):
        return _rational_quotients(quots, [1] * len(quots), -1, vars)

    pending: set[tuple[int, int]] = set()
    heap: list[tuple[int, int, int, int, int]] = []  # (sugar, deg lcm, i, j, lcm)

    def push_pairs(new_idx: int):
        kn = LT[new_idx][0]
        for i in range(new_idx):
            ki = LT[i][0]
            if pk.position(ki) != pk.position(kn):
                continue
            u = pk.lcm(ki, kn)
            du = degree(u)
            sugar = max(sugars[i] + du - degree(ki), sugars[new_idx] + du - degree(kn))
            pending.add((i, new_idx))
            heapq.heappush(heap, (sugar, du, i, new_idx, u))

    for i in range(len(G)):
        push_pairs(i)

    while heap:
        pair_sugar, du, i, j, u = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        # product criterion (ideals only): coprime leads
        if rank == 1 and du == degree(LT[i][0]) + degree(LT[j][0]):
            continue
        # chain criterion: a third lead divides the lcm, and both its pairs are done
        if any(l != i and l != j and divides(LT[l][0], u) and (min(i, l), max(i, l))
               not in pending and (min(j, l), max(j, l)) not in pending for l in range(len(G))):
            continue
        s_terms, qi, fi, qj, fj = _spair(G[i], LT[i], G[j], LT[j])
        K, rem, quots = _reduce_int(s_terms, G, LT, want_quotients=True)
        if not rem:
            continue
        c, new, lead = _primitive(rem, vars, rank)
        rep = None
        if track_reps:
            # rem = K * s - sum quots_l * G_l, and new = c * rem
            rep = _add_combination(
                [a._times(K * fi, 1, qi) - b._times(K * fj, 1, qj)
                 for a, b in zip(reps[i], reps[j])], negated(quots), reps)
            rep = [r * c for r in rep]
        G.append(new)
        LT.append(lead)
        reps.append(rep)
        sugar = pair_sugar
        for q, s in zip(quots, sugars):
            if q:
                sugar = max(sugar, s + degree(max(q)))
        sugars.append(sugar)
        push_pairs(len(G) - 1)

    # interreduce: drop redundant leading terms, then tail-reduce, then scale monic
    kept: list[int] = []
    for i in sorted(range(len(G)), key=lambda i: LT[i][0]):
        if not any(divides(LT[l][0], LT[i][0]) for l in kept):
            kept.append(i)
    G2 = [G[i] for i in kept]
    L2 = [LT[i] for i in kept]
    R2 = [reps[i] for i in kept]
    changed = True
    while changed:
        changed = False
        for i in range(len(G2)):
            K, rem, quots = _reduce_int(dict(G2[i].terms), G2[:i] + G2[i + 1:],
                                        L2[:i] + L2[i + 1:], track_reps)
            if rem == G2[i].terms:
                continue
            changed = True
            c, G2[i], L2[i] = _primitive(rem, vars, rank)
            if track_reps:
                # rem = K * G2[i] - sum quots_l * (the others), and the new G2[i] = c * rem
                R2[i] = [r * c for r in _add_combination(
                    [r * K for r in R2[i]], negated(quots), R2[:i] + R2[i + 1:])]
    pairs = sorted(range(len(G2)), key=lambda i: L2[i][0])
    reps_out = None
    if track_reps:
        reps_out = [[r * Fraction(1, L2[i][1]) for r in R2[i]] for i in pairs]
    return _ExtGB(vars=vars, rank=rank, ngens=k, ints=[G2[i] for i in pairs], reps=reps_out)


# ---------------------------------------------------------------------------
# Public Groebner interface
# ---------------------------------------------------------------------------


def _normalize_items(items):
    """Accept Polys or sequences of Polys; return (vecs, rank, vars)."""
    items = list(items)
    if not items:
        raise ValueError("empty generator list")
    first = items[0]
    if isinstance(first, Poly):
        vars = first.vars
        for p in items:
            if not isinstance(p, Poly) or p.vars != vars:
                raise ValueError("mixed rings")
        return [Vec.from_polys([p]) for p in items], 1, vars, True
    rank = len(first)
    vars = first[0].vars
    vecs = []
    for tup in items:
        tup = tuple(tup)
        if len(tup) != rank:
            raise ValueError("vectors of different ranks")
        for p in tup:
            if p.vars != vars:
                raise ValueError("mixed rings")
        vecs.append(Vec.from_polys(tup, rank))
    return vecs, rank, vars, False


class GroebnerBasis:
    """A reduced Groebner basis of an ideal or submodule."""

    def __init__(self, ext: _ExtGB, scalar: bool):
        self._ext = ext
        self._scalar = scalar
        self.reduced = True
        if scalar:
            self.generators = [g.to_polys()[0] for g in ext.vecs]
        else:
            self.generators = [g.to_polys() for g in ext.vecs]

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def _to_vec(self, x) -> Vec:
        if self._scalar:
            if not isinstance(x, Poly):
                raise ValueError("expected a polynomial")
            return Vec.from_polys([x])
        tup = tuple(x)
        if len(tup) != self._ext.rank:
            raise ValueError("rank mismatch")
        return Vec.from_polys(tup, self._ext.rank)

    def normal_form(self, x):
        rem, _ = self._ext.reduce(self._to_vec(x))
        polys = rem.to_polys()
        return polys[0] if self._scalar else polys

    def contains(self, x) -> bool:
        rem, _ = self._ext.reduce(self._to_vec(x))
        return rem.is_zero()

    @cached_property
    def leading_keys(self) -> tuple[int, ...]:
        """Keys of the leading monomials of the generators (rank-1 only), built once."""
        return tuple(max(g.num) for g in self.generators)

    def contains_constant(self) -> bool:
        """True when the ideal is the unit ideal (rank-1 only)."""
        return self._scalar and len(self.generators) == 1 and \
            self.generators[0].is_constant() and not self.generators[0].is_zero()


def buchberger(gens) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal/submodule generated by gens."""
    vecs, rank, vars, scalar = _normalize_items(gens)
    nonzero = [v for v in vecs if not v.is_zero()]
    if not nonzero:
        raise ValueError("all generators are zero")
    return GroebnerBasis(_buchberger_ext(nonzero, track_reps=False), scalar)


def normal_form(x, gb: GroebnerBasis):
    return gb.normal_form(x)


def make_lifter(gens):
    """Callable expressing targets over gens (None when not a member)."""
    vecs, rank, vars, scalar = _normalize_items(gens)
    nonzero = [(i, v) for i, v in enumerate(vecs) if not v.is_zero()]
    if not nonzero:
        return lambda target: None
    ext = _buchberger_ext([v for _, v in nonzero], track_reps=True)
    zero = Poly.zero(vars)

    def lift(target):
        tvec = Vec.from_polys([target]) if scalar else Vec.from_polys(tuple(target), rank)
        coeffs = ext.lift(tvec)
        if coeffs is None:
            return None
        out = [zero] * len(vecs)
        for (orig, _), c in zip(nonzero, coeffs):
            out[orig] = c
        return out

    return lift


def lift_coefficients(target, gens):
    """Express target as a combination of gens, or None if not a member."""
    return make_lifter(gens)(target)


def reduce_with_certificate(target, gens):
    """Full normal form with an exact certificate over the given generators.

    Returns (remainder, coeffs) with target = sum coeffs_i gens_i + remainder.
    """
    vecs, rank, vars, scalar = _normalize_items(gens)
    zero = Poly.zero(vars)
    nonzero = [(i, v) for i, v in enumerate(vecs) if not v.is_zero()]
    if not nonzero:
        return target, [zero] * len(vecs)
    ext = _buchberger_ext([v for _, v in nonzero], track_reps=True)
    tvec = Vec.from_polys([target]) if scalar else Vec.from_polys(tuple(target), rank)
    rem, coeffs = ext.reduce_certified(tvec)
    out = [zero] * len(vecs)
    for (orig, _), c in zip(nonzero, coeffs):
        out[orig] = c
    polys = rem.to_polys()
    return (polys[0] if scalar else polys), out


# ---------------------------------------------------------------------------
# Syzygies (Schreyer construction)
# ---------------------------------------------------------------------------


def _schreyer_sigmas(ext: _ExtGB) -> list[tuple[Poly, ...]]:
    """Generators of Syz(gb) from every same-position pair (no criteria)."""
    G, L = ext.ints, ext.lead_terms
    pk = packing(len(ext.vars))
    scales = [lc for _, lc in L]
    sigmas = []
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            if pk.position(L[i][0]) != pk.position(L[j][0]):
                continue
            s_terms, qi, fi, qj, _ = _spair(G[i], L[i], G[j], L[j])
            K, rem, quots = _reduce_int(s_terms, G, L, want_quotients=True)
            if rem:
                raise InternalError("S-vector of a Groebner basis did not reduce to zero")
            # the S-vector is fi * lc_i * (x^qi vecs_i - x^qj vecs_j), and G_l = lc_l * vecs_l
            sigma = _rational_quotients(quots, scales, -K * fi * L[i][1], ext.vars)
            sigma[i] = sigma[i] + Poly._new(ext.vars, {qi: 1})
            sigma[j] = sigma[j] - Poly._new(ext.vars, {qj: 1})
            sigmas.append(tuple(sigma))
    return sigmas


def syzygy_generators(items) -> list[tuple[Poly, ...]]:
    """A generating set of Syz(v_1, ..., v_k) = {w : sum w_i v_i = 0}.

    Accepts polynomials or vectors; homogeneous input yields homogeneous
    output.  Every returned vector is verified against the inputs exactly.
    """
    vecs, rank, vars, _ = _normalize_items(items)
    k = len(vecs)
    one = Poly.const(vars, 1)
    zero = Poly.zero(vars)
    zero_idx = [i for i, v in enumerate(vecs) if v.is_zero()]
    nz = [(i, v) for i, v in enumerate(vecs) if not v.is_zero()]

    out: list[tuple[Poly, ...]] = []
    for zi in zero_idx:
        out.append(tuple(one if j == zi else zero for j in range(k)))
    if nz:
        ext = _buchberger_ext([v for _, v in nz], track_reps=True)
        A = ext.reps  # gb[g] = sum A[g][l] * nz[l]
        nnz = len(nz)
        # syzygies of the gb, pushed down to the nonzero inputs
        for sigma in _schreyer_sigmas(ext):
            out.append(_expand(_add_combination([zero] * nnz, sigma, A), nz, k, zero))
        # completion rows: v_l - sum_g B[l][g] gb_g = 0
        for l, (orig, v) in enumerate(nz):
            quotsB = ext.lift(v)
            if quotsB is None:
                raise InternalError("generator does not reduce to zero against its own basis")
            w = [-q for q in quotsB]
            w[l] = w[l] + one
            out.append(_expand(w, nz, k, zero))
    result = []
    seen = set()
    for w in out:
        if all(p.is_zero() for p in w):
            continue
        if w in seen:
            continue
        seen.add(w)
        result.append(w)
    # exactness check: every generator really is a syzygy
    originals = [v.to_polys() for v in vecs]
    for w in result:
        if any(not a.is_zero() for a in _add_combination([zero] * rank, w, originals)):
            raise InternalError("computed vector is not a syzygy")
    return result


def _expand(w, nz, k, zero):
    full = [zero] * k
    for (orig, _), val in zip(nz, w):
        full[orig] = val
    return tuple(full)


def integer_normalize(vec):
    """Scale a vector by a constant so coefficients are coprime integers
    with a positive leading coefficient (keeps spans and syzygies intact)."""
    scale = primitive_scale(vec)
    lead = next((p for p in vec if p.num), None)
    if lead is not None and lead.num[max(lead.num)] < 0:
        scale = -scale
    return tuple(p * scale for p in vec)


def modules_equal(gens_a, gens_b) -> bool:
    """Double-inclusion equality of two submodules given by generators."""
    return all(all(map(buchberger(b).contains, a))
               for a, b in ((gens_a, gens_b), (gens_b, gens_a)))


# ---------------------------------------------------------------------------
# Graded machinery: minimal generators, free resolutions, Betti data
# ---------------------------------------------------------------------------


def graded_degree(vec: Sequence[Poly], shifts: Sequence[int]) -> int:
    """Degree of a homogeneous vector of a shifted free module ⊕R(-shift_i)."""
    degs = set()
    for comp, sh in zip(vec, shifts):
        if comp.is_zero():
            continue
        if not comp.is_homogeneous():
            raise ValueError("component is not homogeneous")
        degs.add(int(comp.degree) + sh)
    if not degs:
        raise ValueError("zero vector has no graded degree")
    if len(degs) > 1:
        raise ValueError(f"vector is not homogeneous for shifts {tuple(shifts)}")
    return degs.pop()


def minimal_generators(vectors, shifts):
    """Minimal homogeneous generating subset of a graded submodule.

    Processes candidates in increasing degree and keeps those not generated
    by the ones already kept (graded Nakayama), each decided by exact linear
    algebra in its graded piece.  Returns (kept, degrees).
    """
    items = []
    for v in vectors:
        tup = tuple(v) if not isinstance(v, Poly) else (v,)
        if all(p.is_zero() for p in tup):
            continue
        items.append((graded_degree(tup, shifts), tup))
    items.sort(key=lambda t: t[0])
    span = _GradedSpan()
    kept: list[tuple[Poly, ...]] = []
    degs: list[int] = []
    for deg, tup in items:
        if not span.add(Vec.from_polys(tup), deg):
            continue
        kept.append(integer_normalize(tup))
        degs.append(deg)
    return kept, degs


def _integral(vec: dict) -> tuple[int, dict]:
    """(g, vec / g) for a nonzero {key: int} vector, g > 0 the gcd of its
    entries; the returned dict is new."""
    g = _content(vec)
    return g, {c: x // g for c, x in vec.items()}


def _eliminate(target: dict, c, row: dict) -> dict:
    """row[c] * target - target[c] * row, divided by its content: a multiple
    of target with column c cleared, computed fraction-free."""
    a, b = row[c], target[c]
    out = {col: a * x for col, x in target.items()}
    for col, x in row.items():
        val = out.get(col, 0) - b * x
        if val:
            out[col] = val
        else:
            del out[col]
    g = gcd(*out.values())
    return {col: x // g for col, x in out.items()} if g > 1 else out


def _echelon_add(rows: dict, vec: dict) -> bool:
    """Insert a nonzero {column: int} vector into an echelon form; False when
    the rows already span it.

    rows maps each pivot column to a {column: int} row with coprime entries,
    kept up to a scalar so that elimination is fraction-free.  Each row is
    nonzero in its pivot column and every other row is zero there, so a
    vector reduces to zero exactly when it lies in the row span.  A new
    pivot is the least column of its reduced row, which makes the rows,
    scaled to 1 at their pivots, the unique reduced echelon form.
    """
    _, row = _integral(vec)
    for c in [c for c in row if c in rows]:
        row = _eliminate(row, c, rows[c])
    if not row:
        return False
    pivot = min(row)
    for p, other in rows.items():
        if pivot in other:
            rows[p] = _eliminate(other, pivot, row)
    rows[pivot] = row
    return True


class _GradedSpan:
    """The submodule generated by kept homogeneous vectors, one graded
    piece at a time.

    Vectors come in nondecreasing degree.  One of degree k lies in the
    submodule exactly when it lies in the Q-span of the products m * g with
    g kept and m a monomial of degree k - deg g.  Those products are held in
    one echelon form, extended when a vector is kept in degree k and rebuilt
    when the degree rises.
    """

    def __init__(self):
        self.kept: list[tuple[int, Vec]] = []
        self.degree = None
        self.piece: dict = {}  # echelon form of the current degree

    def rank(self, deg: int) -> int:
        """Dimension of the degree-deg piece of the submodule."""
        if deg != self.degree:
            self.degree, self.piece = deg, {}
            for gdeg, g in self.kept:
                pk, top = packing(len(g.vars)), max(g.terms)
                for q in monomial_keys(len(g.vars), deg - gdeg):
                    pk.check(top + q)  # checks the greatest product
                    _echelon_add(self.piece, {k + q: c for k, c in g.terms.items()})
        return len(self.piece)

    def add(self, vec: Vec, deg: int) -> bool:
        """Keep vec unless the kept vectors generate it; True when kept."""
        self.rank(deg)
        if not _echelon_add(self.piece, vec.terms):
            return False
        self.kept.append((deg, vec))
        return True


def _fraction_nullspace(rows, ncols):
    """(dimension, basis) of the right nullspace of an exact rational matrix
    given by sparse rows ({column: int or Fraction}); the basis is read off
    its reduced row echelon form one integer vector at a time, as it is
    consumed: for each free column fc, L times the rational basis vector
    that is 1 at fc, with L the lcm of the pivots of the rows that meet fc.

    The integer rows go in by descending least column, ties to fewer
    entries.  Every row held has no column left of its pivot, and every
    pivot is at least the least column of its row, so a row whose least
    column is not yet a pivot keeps it as its pivot, and no held row meets
    it: no back-substitution.  The reduced echelon form is unique, so the
    order leaves the basis unchanged.
    """
    ints = []
    for r in rows:
        den = lcm(*(x.denominator for x in r.values()))
        row = {c: x.numerator * (den // x.denominator) for c, x in r.items() if x}
        if row:
            ints.append(row)
    ech: dict = {}
    for row in sorted(ints, key=lambda r: (-min(r), len(r))):
        _echelon_add(ech, row)

    def basis():
        for fc in range(ncols):
            if fc in ech:
                continue
            meets = [(pc, row) for pc, row in ech.items() if row.get(fc)]
            mult = lcm(*(row[pc] for pc, row in meets))
            v = [0] * ncols
            v[fc] = mult
            for pc, row in meets:
                v[pc] = -row[fc] * (mult // row[pc])
            yield v

    return ncols - len(ech), basis()


def graded_syzygy_space(vectors, degrees, row_shifts, k):
    """All degree-k syzygies of homogeneous vectors, by exact linear algebra.

    vectors[i] lives in ⊕_j S(-row_shifts[j]) and is homogeneous of degree
    degrees[i]; zero vectors are admitted (their coefficients are free, so
    unit syzygies appear naturally).  Returns (dimension, basis), the basis
    built lazily as integer-normalized tuples.
    """
    vars = next(p.vars for v in vectors for p in v)

    def graded(shifts):  # (index, monomial key of degree k - shift) pairs
        return [(i, m) for i, sh in enumerate(shifts) if sh <= k
                for m in monomial_keys(len(vars), k - sh)]

    cols = graded(degrees)  # (vector index, coefficient monomial key)
    eq_index = {jm: n for n, jm in enumerate(graded(row_shifts))}
    rows = [dict() for _ in range(len(eq_index))]
    den = lcm(*(p.den for v in vectors for p in v))  # scales every equation alike
    for ci, (i, mono) in enumerate(cols):
        for j, comp in enumerate(vectors[i]):
            f = den // comp.den
            for pm, c in comp.num.items():
                row = rows[eq_index[(j, pm + mono)]]
                row[ci] = row.get(ci, 0) + c * f
    dim, solutions = _fraction_nullspace(rows, len(cols))

    def basis():
        for sol in solutions:
            w = [dict() for _ in vectors]
            for ci, (i, mono) in enumerate(cols):
                if sol[ci]:
                    w[i][mono] = sol[ci]
            yield integer_normalize(tuple(Poly._new(vars, t) for t in w))

    return dim, basis()


def _schreyer_degree_bound(basis: GroebnerBasis, degrees, row_shifts) -> int:
    """A degree D such that Syz(vectors) is generated in degrees <= D, for
    homogeneous vectors of the given degrees that generate the module of
    which basis is the reduced Groebner basis.

    Let g be that basis, with leading monomials m_a.  A same-position pair
    gives the syzygy sigma_ab = (L/m_a) e_a - (L/m_b) e_b of the leading
    terms, L = lcm(m_a, m_b), of degree |L| + row_shifts[pos].  The pair
    counts unless a third lead m_c in that position divides L with
    lcm(m_a, m_c) != L and lcm(m_b, m_c) != L: the chain criterion in its
    strict form (Gebauer and Moeller, J. Symbolic Comput. 6, 1988).  A
    pruned sigma_ab is (L/L_ac) sigma_ac - (L/L_bc) sigma_bc with L_ac and
    L_bc proper divisors of L, so by induction on L under divisibility the
    counted sigma generate Syz(lt g) in degrees up to their maximum.  Their
    lifts generate Syz(g) in the same degrees (Schreyer; Eisenbud,
    Commutative Algebra, Thm 15.10 and its proof), and pushed down to the
    vectors, with the rows v_l - sum B_la g_a of degree deg v_l, they
    generate Syz(vectors).

    The test must stay strict: with equal lcms (s*t, s*u, t*u) a non-strict
    one prunes the pairs in a cycle and loses the degree of every one.  The
    product criterion does not apply: it says an S-polynomial reduces to
    zero, not that the Koszul syzygy of coprime leads is redundant (the
    syzygy of s and t is one).  Only degrees are needed, not
    representations.
    """
    bound = max(degrees)
    pk = packing(len(basis._ext.vars))
    leads = [k for k, _ in basis._ext.lead_terms]
    for a, ka in enumerate(leads):
        for kb in leads[a + 1:]:
            if pk.position(ka) != pk.position(kb):
                continue
            u = pk.lcm(ka, kb)
            if not any(pk.divides(kc, u) and pk.lcm(ka, kc) != u and pk.lcm(kb, kc) != u
                       for kc in leads):
                bound = max(bound, pk.degree(u) + row_shifts[pk.position(ka)])
    return bound


def _minimal_syzygies(vectors, degrees, row_shifts, dims, top: int, count: int | None = None):
    """Minimal generators of Syz(vectors) with small integer coefficients,
    and their degrees (vectors and degrees as in graded_syzygy_space).

    dims(k) is the dimension of the degree-k piece of Syz(vectors), known
    beforehand (``_piece_dimensions``).  Graded pieces are scanned in
    increasing degree up to top, a degree up to which Syz(vectors) is
    generated.  A piece that the kept vectors already span, by dimension,
    is skipped unbuilt.  Any other is built, its exact nullspace dimension
    must equal dims(k), and its basis vectors are kept in order unless the
    kept ones generate them, until the kept ones span the piece.  By graded
    Nakayama the kept vectors are minimal generators of every piece up to
    top, and past it no new generator is needed.

    count, when given, is the number of minimal generators, known when
    Syz(vectors) is free of that rank: the scan ends once it has kept count
    vectors, which are then all of them, and top is only a cap.  Reaching
    the cap short of count is an InternalError.
    """
    span = _GradedSpan()
    kept: list = []
    degs: list[int] = []
    for k in range(min(degrees), top + 1):
        if count is not None and len(kept) >= count:
            break
        dim = dims(k)
        if span.rank(k) == dim:
            continue
        built, space = graded_syzygy_space(vectors, degrees, row_shifts, k)
        if built != dim:
            raise InternalError(f"degree-{k} syzygies have dimension {built}, "
                                f"not {dim} as the Hilbert function gives")
        for v in space:
            if span.rank(k) == dim:
                break
            if span.add(Vec.from_polys(v), k):
                kept.append(v)
                degs.append(k)
        if span.rank(k) != dim:
            raise InternalError("kept syzygies do not span a graded piece")
    if count is not None and len(kept) != count:
        raise InternalError(f"kept {len(kept)} syzygies by degree {top}, "
                            f"not the rank {count} of a free module")
    return kept, degs


def _piece_dimensions(first_basis: GroebnerBasis, shifts0):
    """Dimensions of the graded pieces of both syzygy modules of a row of
    shifts0 generating the ideal with reduced Groebner basis first_basis.

    Returns (first, second).  The row maps ⊕S(-shifts0_i) onto the ideal I,
    so first(k) = dim Syz(row)_k = sum_i dim S_{k-shifts0_i} - dim I_k, and
    dim I_k is the number of degree-k monomials in in(I) (Macaulay's basis
    theorem; Eisenbud, Commutative Algebra, Thm 15.3).  The columns of d1,
    of degrees q, generate Syz(row), so second(q, k) = dim (ker d1)_k =
    sum_l dim S_{k-q_l} - first(k).  dim I_k is computed once per degree
    for both.
    """
    nvars = len(first_basis.generators[0].vars)
    ideal = cache(partial(hilbert_function, first_basis))

    def free(shifts, k):
        return sum(len(monomials_of_degree(nvars, k - sh)) for sh in shifts if sh <= k)

    def first(k):
        return free(shifts0, k) - ideal(k)

    def second(q, k):
        return free(q, k) - first(k)

    return first, second


def _is_injective(m: PolyMatrix) -> bool:
    """True when m has full column rank over the polynomial domain: at least
    as many rows as columns and a nonzero maximal minor, the minors computed
    only up to the first nonzero one."""
    return m.rows >= m.cols and any(not d.is_zero() for _, d in m.maximal_minors())


@dataclass
class FreeResolution:
    """Graded free resolution 0 -> F2 -> F1 -> F0 -> ideal -> 0 (F2 may vanish).

    shifts0/q/p hold the internal degrees of the generators of F0/F1/F2, so
    the modules are ⊕S(-shifts0_i), ⊕S(-q_i), ⊕S(-p_i).  d1 and d2 are the
    matrices of the maps F1 -> F0 and F2 -> F1 (columns are images).
    """

    vars: tuple
    gens: tuple
    shifts0: tuple
    d1: PolyMatrix | None
    q: tuple
    d2: PolyMatrix | None
    p: tuple
    #: reduced Groebner basis of the ideal, which ends the scans of both maps
    first_basis: GroebnerBasis = field(compare=False, repr=False)

    @property
    def ranks(self) -> tuple[int, int, int]:
        return (len(self.shifts0), len(self.q), len(self.p))

    def validate(self):
        r0, r1, r2 = self.ranks
        if r0 - r1 + r2 != 1:
            raise InternalError(f"rank alternating sum {r0}-{r1}+{r2} != 1")
        if self.d1 is not None:
            for j, col in enumerate(self.d1.columns()):
                acc = Poly.zero(self.vars)
                for g, c in zip(self.gens, col):
                    if not c.is_zero() and not g.is_zero():
                        acc = acc + g * c
                if not acc.is_zero():
                    raise InternalError("columns of the presentation are not syzygies")
                _check_entry_degrees(col, self.shifts0, self.q[j])
        if self.d2 is not None:
            prod = self.d1 * self.d2
            if any(not p.is_zero() for row in prod.entries for p in row):
                raise InternalError("composition of consecutive maps is nonzero")
            for j, col in enumerate(self.d2.columns()):
                _check_entry_degrees(col, self.q, self.p[j])
                for c, sh in zip(col, self.q):
                    if not c.is_zero() and self.p[j] == sh:
                        raise InternalError("second map has a unit entry")


def _check_entry_degrees(col, row_shifts, col_degree):
    for entry, sh in zip(col, row_shifts):
        if entry.is_zero():
            continue
        if not entry.is_homogeneous() or int(entry.degree) != col_degree - sh:
            raise InternalError("matrix entry degree does not match the grading")


def free_resolution(gens) -> FreeResolution:
    """Graded free resolution of the ideal generated by homogeneous gens,
    over the row as given (possibly non-minimal, zero entries included).

    d1 and d2 are minimal syzygies read off graded pieces
    (``_minimal_syzygies``), and one reduced Groebner basis of the ideal,
    first_basis, ends both scans.  Its Hilbert function gives the dimension
    of each piece of both maps (``_piece_dimensions``), so only the pieces
    that keep a generator are built.  The scan of d1 ends at its Schreyer
    bound (``_schreyer_degree_bound``).  Over Q[s,t,u] the ideal has
    projective dimension at most 2 (Hilbert's syzygy theorem), so ker d1 is
    free, and the ranks along the resolution make its rank r1 - r0 + 1
    (Schanuel's lemma; Eisenbud, Commutative Algebra, Ch. 19).  The scan of
    d2 ends once it has kept that many columns, so a row with free
    syzygies scans nothing.  It is capped at 3 times the largest degree in
    first_basis: beta_2j(I) <= beta_2j(in I) (Herzog and Hibi, Monomial
    Ideals, Thm 3.3.4), and the Taylor resolution of in(I) puts every second
    syzygy at the degree of an lcm of three leads.  A nonzero maximal minor
    of d2 proves it injective, so the resolution stops at F2.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("empty generator list")
    vars = gens[0].vars
    for g in gens:
        if g.vars != vars:
            raise ValueError("mixed rings")
        if not g.is_homogeneous():
            raise ValueError("non-homogeneous generator")
    nonzero = [g for g in gens if not g.is_zero()]
    if not nonzero:
        raise ValueError("zero ideal has no finite free resolution of an ideal")
    d = max(int(g.degree) for g in nonzero)
    row = tuple(gens)
    shifts0 = tuple(int(g.degree) if not g.is_zero() else d for g in gens)

    first_basis = buchberger(nonzero)
    first, second = _piece_dimensions(first_basis, shifts0)
    cols1, q = _minimal_syzygies([(g,) for g in row], shifts0, [0], first,
                                 _schreyer_degree_bound(first_basis, shifts0, [0]))
    d1 = PolyMatrix.from_columns(cols1) if cols1 else None
    cap = 3 * max(int(g.degree) for g in first_basis)
    cols2, p = _minimal_syzygies(cols1, q, shifts0, partial(second, q), cap,
                                 count=len(cols1) - len(row) + 1) if cols1 else ([], [])
    d2 = PolyMatrix.from_columns(cols2) if cols2 else None
    if d2 is not None and not _is_injective(d2):
        raise InternalError("resolution did not terminate at length two")

    res = FreeResolution(vars=vars, gens=row, shifts0=shifts0, d1=d1, q=tuple(q),
                         d2=d2, p=tuple(p), first_basis=first_basis)
    res.validate()
    return res


@dataclass
class BettiTable:
    """Graded Betti numbers read from resolution shifts."""

    entries: dict
    totals: dict
    regularity: int | None


def regularity_from_resolution(res: FreeResolution) -> int:
    """Castelnuovo-Mumford regularity of the ideal (``minimal_betti_table``)."""
    return minimal_betti_table(res).regularity


def _betti_table(levels, minimal: bool) -> BettiTable:
    entries = Counter((i, sh) for i, level in enumerate(levels) for sh in level)
    reg = max(sh - i for i, sh in entries) if minimal else None
    return BettiTable(entries=dict(entries),
                      totals={i: len(level) for i, level in enumerate(levels)},
                      regularity=reg)


def resolution_invariants(res: FreeResolution):
    """BettiTable plus the presentation data {a, gamma1, gamma2}.

    a is the rank of the last module; gamma_i are the entry-degree maxima of
    the two maps.  The Betti table counts the shifts of this resolution and
    carries no regularity; ``minimal_betti_table`` gives the minimal one.
    """
    table = _betti_table((res.shifts0, res.q, res.p), False)
    inv = {
        "a": res.ranks[2],
        "gamma1": int(res.d1.degree) if res.d1 is not None else None,
        "gamma2": int(res.d2.degree) if res.d2 is not None else None,
    }
    return table, inv


def minimal_betti_table(res: FreeResolution) -> BettiTable:
    """Minimal graded Betti numbers (with regularity) of the ideal, read off
    a resolution of any generator row without building the minimal one.

    beta_ij = dim Tor_i(I, Q)_j can be computed from any graded free
    resolution, and every graded free resolution is the minimal one plus
    trivial complexes R(-j) -> R(-j) (Eisenbud, The Geometry of Syzygies,
    ch. 1).  Here d2 has no unit entries (``FreeResolution.validate``) and
    the resolution stops at F2, so every trivial summand sits in
    homological degrees 0 and 1, one for each generator that
    ``minimal_generators`` drops (zero, or generated by the others).
    Removing their degrees from shifts0 and from q leaves the minimal
    table; p is already minimal.  On a minimal row nothing is removed.
    """
    nonzero = [(g,) for g in res.gens if not g.is_zero()]
    _, first = minimal_generators(nonzero, [0])
    trivial = Counter(res.shifts0) - Counter(first)
    middle = Counter(res.q)
    if trivial - middle:
        raise InternalError("first syzygies lack a trivial summand of the generators")
    return _betti_table((first, list((middle - trivial).elements()), res.p), True)


# ---------------------------------------------------------------------------
# Hilbert functions, dimension, ideal quotients
# ---------------------------------------------------------------------------


def _leading_keys(gens) -> tuple[Sequence[int], int]:
    """(lead keys of the ideal's reduced Groebner basis, number of variables)."""
    if isinstance(gens, GroebnerBasis):
        gb = gens
    else:
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            return [], 0
        gb = buchberger(gens)
    return gb.leading_keys, len(gb._ext.vars)


def hilbert_function(gens, k: int) -> int:
    """Dimension of the degree-k graded piece of the ideal."""
    if k < 0:
        return 0
    leads, nvars = _leading_keys(gens)
    if not leads:
        return 0
    divides = packing(nvars).divides
    return sum(1 for m in monomial_keys(nvars, k) if any(divides(lm, m) for lm in leads))


def hilbert_quotient(gens, k: int) -> int:
    """Hilbert function of the quotient ring in degree k."""
    if k < 0:
        return 0
    gens = gens if isinstance(gens, GroebnerBasis) else list(gens)
    return len(monomials_of_degree(len(next(iter(gens)).vars), k)) - hilbert_function(gens, k)


def krull_dimension(gens) -> int:
    """Krull dimension of the quotient by the ideal, from the leading-term ideal.

    The zero ideal gives the ambient dimension; the unit ideal gives -1.
    """
    if isinstance(gens, GroebnerBasis):
        leads, nvars = _leading_keys(gens)
    else:
        gens = list(gens)
        nvars = len(gens[0].vars)
        leads, _ = _leading_keys(gens)
    if not leads:
        return nvars
    exponent = packing(nvars).exponent
    supports = [frozenset(i for i in range(nvars) if exponent(m, i)) for m in leads]
    best = -1
    for mask in range(1 << nvars):
        subset = frozenset(i for i in range(nvars) if mask >> i & 1)
        if any(sup <= subset for sup in supports):
            continue
        best = max(best, len(subset))
    return best


def _first_coordinates(syzygies) -> list[Poly]:
    return [w[0] for w in syzygies if not w[0].is_zero()]


def _intersect_ideals(a_gens, b_gens, vars) -> list[Poly]:
    if not a_gens or not b_gens:
        return []
    one = Poly.const(vars, 1)
    zero = Poly.zero(vars)
    items = [(one, one)]
    items += [(g, zero) for g in a_gens]
    items += [(zero, g) for g in b_gens]
    firsts = _first_coordinates(syzygy_generators(items))
    if not firsts:
        return []
    return list(buchberger(firsts).generators)


def ideal_quotient(k_gens, j_gens) -> list[Poly]:
    """Generators of (K : J) = {f : f*J ⊆ K}.

    The quotient by the zero ideal is the unit ideal.  Returns a reduced
    Groebner basis of the result ([] encodes the zero ideal).
    """
    k_gens = list(k_gens)
    vars = k_gens[0].vars if k_gens else list(j_gens)[0].vars
    k_nz = [g for g in k_gens if not g.is_zero()]
    j_nz = [g for g in j_gens if not g.is_zero()]
    if not j_nz:
        return [Poly.const(vars, 1)]
    if not k_nz:
        return []
    k_gb = buchberger(k_nz)
    result: list[Poly] | None = None
    for f in j_nz:
        if k_gb.contains(f):
            continue  # (K : f) = (1); intersecting with it changes nothing
        syz = syzygy_generators([f] + k_nz)
        colon = _first_coordinates(syz)
        colon = list(buchberger(colon).generators) if colon else []
        result = colon if result is None else _intersect_ideals(result, colon, vars)
    if result is None:
        return [Poly.const(vars, 1)]
    return result
