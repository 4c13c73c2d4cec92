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
remainders and quotients of ``GroebnerBasis.reduce``.  No reduction is done
twice, and a GroebnerBasis builds its Polys only when its generators are
read; its ring, leads and Hilbert function are read off the engine's keys.

Free resolutions are built by exact linear algebra on one graded piece at a
time (graded Nakayama), with one echelon routine that yields the graded
syzygy spaces, the minimal generators and the rank of each constant block
of d1, from which ``FreeResolution.betti`` reads the minimal Betti numbers
as Tor.  One Groebner basis, of the ideal, ends both scans: the first map's
at the degree of the Schreyer syzygies left by the strict chain criterion,
the second's once it has kept the rank of the free module ker d1, under a
cap read off the leads, which also decide the height (``krull_dimension``).
Its Hilbert function gives the dimension of every graded piece of both maps
beforehand.  A piece the kept syzygies already span is skipped unbuilt,
the span tested only when their products are at least that many.  A built
piece is eliminated only up to the rank that gives, its other rows
certified by dot products, and must have exactly that dimension; its new
generators are picked in the free coordinates of its nullspace, where the
products are read off the kept syzygies' coefficients, with no full-width
vector formed.  The Buchberger and Schreyer route of ``syzygy_generators``
stays independent of it and serves verification.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import combinations
from math import gcd, lcm, prod
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
    (c/g) x^(t-n) basis_i: the terms and reducers of division over Q.  A
    lead dividing x^t is at most t, so below the least lead work is rem.
    Returns (K, rem, quots), K the product of the factors l/g, with
    K * work = sum_i quots[i] * basis[i] + rem; rem has no term divisible
    by a lead, and quots[i] is {monomial key: int} (None unless
    want_quotients).
    """
    pk = packing(len(basis[0].vars)) if basis else None
    guard, mask = (pk.guard, pk.div_mask) if pk else (0, 0)
    least = min((lead for lead, _ in leads), default=float("inf"))
    rem: dict = {}  # rem and quots hold (coefficient, K at its step), scaled at the end
    quots = [dict() for _ in basis] if want_quotients else None
    K = 1
    while work:
        t = max(work)
        if t < least:
            rem.update((term, (c, K)) for term, c in work.items())
            break
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


def _buchberger_ext(gens: Sequence[Vec], track_reps: bool) -> GroebnerBasis:
    """Buchberger with sugar selection and both classical criteria; finishes
    with interreduction to the reduced basis in one sweep in increasing lead
    order, each element reduced only against the smaller leads: a larger
    lead divides none of its terms (Becker-Weispfenning 1993, 5.2).  With
    track_reps every basis element carries its representation over gens,
    which only lifting and syzygy callers read.

    The engine is fraction-free.  Every basis element is kept as a primitive
    integer vector with a positive leading coefficient (_primitive), the
    S-vector of a pair is formed with integer multipliers (_spair) and
    reduced on integers (_reduce_int), and each remainder is made primitive
    again.  Every vector is a nonzero rational multiple of the one division
    over Q would give, so the terms, reducers, pairs and sugars are those of
    the rational algorithm; representations are scaled by the same factors.
    Only the reduced basis becomes monic over Q, in the GroebnerBasis.
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
    for i in range(1, len(G2)):
        K, rem, quots = _reduce_int(dict(G2[i].terms), G2[:i], L2[:i], track_reps)
        if rem == G2[i].terms:
            continue
        c, G2[i], L2[i] = _primitive(rem, vars, rank)
        if track_reps:
            # rem = K * G2[i] - sum quots_l * G2[l] (l < i), and the new G2[i] = c * rem
            R2[i] = [r * c for r in _add_combination(
                [r * K for r in R2[i]], negated(quots), R2[:i])]
    reps_out = None
    if track_reps:
        reps_out = [[r * Fraction(1, lc) for r in rep] for rep, (_, lc) in zip(R2, L2)]
    return GroebnerBasis(vars, rank, k, G2, reps_out)


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
    """A reduced Groebner basis of an ideal (scalar) or a submodule.

    ints holds the elements as primitive integer vectors with positive
    leading coefficients and lead_terms their _lead; vecs holds the monic
    elements over Q, and reps[i] expresses vecs[i] over the ngens input
    generators when they were tracked (reps is None otherwise).  The Poly
    generators are built on first read: no reduction and no reader of the
    ring or the leads needs them."""

    def __init__(self, vars, rank, ngens, ints, reps, scalar=False):
        self.vars, self.rank, self.ngens, self.ints, self.reps = vars, rank, ngens, ints, reps
        self.scalar = scalar
        self.lead_terms = [_lead(g) for g in ints]
        self.vecs = [Vec(vars, rank, g.terms, lc) for g, (_, lc) in zip(ints, self.lead_terms)]
        self._scales = [lc for _, lc in self.lead_terms]  # ints[i] = _scales[i] * vecs[i]

    @cached_property
    def generators(self) -> list:
        return [self._from_vec(g) for g in self.vecs]

    def __len__(self):
        return len(self.vecs)

    def __iter__(self):
        return iter(self.generators)

    def _to_vec(self, x) -> Vec:
        if self.scalar:
            if not isinstance(x, Poly):
                raise ValueError("expected a polynomial")
            return Vec.from_polys([x])
        tup = tuple(x)
        if len(tup) != self.rank:
            raise ValueError("rank mismatch")
        return Vec.from_polys(tup, self.rank)

    def _from_vec(self, v: Vec):
        polys = v.to_polys()
        return polys[0] if self.scalar else polys

    def reduce(self, vec: Vec, want_quotients=False):
        """(remainder, quotients): the full normal form of vec over Q, with
        vec = sum quotients_i vecs_i + remainder (quotients None unless
        want_quotients).  It runs on ints; only the results are over Q."""
        K, rem, quots = _reduce_int(dict(vec.terms), self.ints, self.lead_terms, want_quotients)
        d = K * vec.den  # K * den * vec = sum quots_i * ints_i + rem
        remainder = Vec(vec.vars, vec.rank, rem, d)
        if not want_quotients:
            return remainder, None
        return remainder, _rational_quotients(quots, self._scales, d, vec.vars)

    def reduce_certified(self, vec: Vec):
        """(remainder, coeffs) with vec = sum coeffs_i gen_i + remainder."""
        rem, quots = self.reduce(vec, want_quotients=True)
        return rem, _add_combination([Poly.zero(self.vars)] * self.ngens, quots, self.reps)

    def normal_form(self, x):
        rem, _ = self.reduce(self._to_vec(x))
        return self._from_vec(rem)

    def contains(self, x) -> bool:
        rem, _ = self.reduce(self._to_vec(x))
        return rem.is_zero()

    @cached_property
    def leading_keys(self) -> tuple[int, ...]:
        """Monomial keys of the leading terms (rank-1 only), in increasing order."""
        mono = ~packing(len(self.vars)).pos_mask  # clears the position field
        return tuple(k & mono for k, _ in self.lead_terms)

    def contains_constant(self) -> bool:
        """True when the ideal is the unit ideal (rank-1 only)."""
        return self.scalar and self.leading_keys == (0,)


def buchberger(gens) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal/submodule generated by gens."""
    vecs, rank, vars, scalar = _normalize_items(gens)
    nonzero = [v for v in vecs if not v.is_zero()]
    if not nonzero:
        raise ValueError("all generators are zero")
    gb = _buchberger_ext(nonzero, track_reps=False)
    gb.scalar = scalar
    return gb


def reduce_with_certificate(target, gens):
    """Full normal form with an exact certificate over the given generators.

    Returns (remainder, coeffs) with target = sum coeffs_i gens_i + remainder.
    """
    vecs, rank, vars, scalar = _normalize_items(gens)
    zero = Poly.zero(vars)
    nonzero = [(i, v) for i, v in enumerate(vecs) if not v.is_zero()]
    if not nonzero:
        return target, [zero] * len(vecs)
    gb = _buchberger_ext([v for _, v in nonzero], track_reps=True)
    gb.scalar = scalar
    rem, coeffs = gb.reduce_certified(gb._to_vec(target))
    out = [zero] * len(vecs)
    for (orig, _), c in zip(nonzero, coeffs):
        out[orig] = c
    return gb._from_vec(rem), out


def _is_zero(x) -> bool:
    """True for the zero Poly and for a vector of zero Polys."""
    return x.is_zero() if isinstance(x, Poly) else all(p.is_zero() for p in x)


def lift_coefficients(target, gens):
    """Express target as a combination of gens: reduce_with_certificate with
    a zero remainder.  None when target is not a member, and when every
    generator is zero."""
    gens = list(gens)
    rem, coeffs = reduce_with_certificate(target, gens)
    if not _is_zero(rem) or all(map(_is_zero, gens)):
        return None
    return coeffs


# ---------------------------------------------------------------------------
# Syzygies (Schreyer construction)
# ---------------------------------------------------------------------------


def _schreyer_sigmas(gb: GroebnerBasis) -> list[tuple[Poly, ...]]:
    """Generators of Syz(gb) from every same-position pair (no criteria)."""
    G, L = gb.ints, gb.lead_terms
    pk = packing(len(gb.vars))
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
            sigma = _rational_quotients(quots, gb._scales, -K * fi * L[i][1], gb.vars)
            sigma[i] = sigma[i] + Poly._new(gb.vars, {qi: 1})
            sigma[j] = sigma[j] - Poly._new(gb.vars, {qj: 1})
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
        gb = _buchberger_ext([v for _, v in nz], track_reps=True)
        A = gb.reps  # gb[g] = sum A[g][l] * nz[l]
        nnz = len(nz)
        # syzygies of the gb, pushed down to the nonzero inputs
        for sigma in _schreyer_sigmas(gb):
            out.append(_expand(_add_combination([zero] * nnz, sigma, A), nz, k, zero))
        # completion rows: v_l - sum_g B[l][g] gb_g = 0
        for l, (orig, v) in enumerate(nz):
            rem, quotsB = gb.reduce_certified(v)
            if not rem.is_zero():
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
    """Double-inclusion equality of two submodules given by generators.

    It serves ``bounds.socle_check`` and, as an oracle, the tests;
    ``verify_mu_basis`` proves module equality by Cramer coefficients."""
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
    of target with column c cleared, computed fraction-free with both
    multipliers first divided by their gcd."""
    g = gcd(row[c], target[c])
    a, b = row[c] // g, target[c] // g
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
    when the degree rises.  ``minimal_generators`` tests each candidate
    here; ``_minimal_syzygies`` asks only for the rank, when the products
    can reach the dimension of a piece, and picks its vectors in the free
    coordinates of a nullspace.
    """

    def __init__(self, kept=()):
        self.kept: list[tuple[int, Vec]] = list(kept)  # (degree, vector) pairs
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


def _nullspace(rows, ncols, rank=None):
    """(dimension, basis) of the right nullspace of an integer matrix given
    by sparse rows ({column: nonzero int}; empty rows are skipped); the
    basis, a list of integer vectors, is read off its reduced row echelon
    form: for each free column fc, L times the rational basis vector that is
    1 at fc, with L the lcm of the pivots of the rows that meet fc.

    rank, when given, is the rank known beforehand: elimination stops once
    the echelon form holds rank rows, and every row left over must vanish
    on every basis vector (exact integer dot products), or InternalError is
    raised.  So the basis is the one of full elimination; a rank above the
    true one is never reached.  Rows go in fewest entries first, ties to
    the greater least column, the order measured fastest to the rank; the
    reduced echelon form is unique, so the order leaves the basis unchanged.
    """
    ech: dict = {}
    pending = iter(sorted(filter(None, rows), key=lambda r: (len(r), -min(r))))
    while len(ech) != rank and (row := next(pending, None)) is not None:
        _echelon_add(ech, row)
    basis = []
    for fc in range(ncols):
        if fc in ech:
            continue
        meets = [(pc, row) for pc, row in ech.items() if row.get(fc)]
        mult = lcm(*(row[pc] for pc, row in meets))
        v = [0] * ncols
        v[fc] = mult
        for pc, row in meets:
            v[pc] = -row[fc] * (mult // row[pc])
        basis.append(v)
    if any(sum(x * v[c] for c, x in row.items()) for row in pending for v in basis):
        raise InternalError(f"a row left over at rank {rank} does not vanish on the nullspace")
    return ncols - len(ech), basis


def graded_syzygy_space(vectors, degrees, row_shifts, k, dim=None):
    """All degree-k syzygies of homogeneous vectors, by exact linear algebra.

    vectors[i] lives in ⊕_j S(-row_shifts[j]) and is homogeneous of degree
    degrees[i]; zero vectors are admitted (their coefficients are free, so
    unit syzygies appear naturally).  Returns (dimension, free, vector).
    free lists the free columns of the elimination, each a (vector index,
    monomial key) pair, and vector(j) builds the basis vector of free[j] as
    an integer-normalized tuple: zero at every other free column, so a
    degree-k syzygy is fixed by its entries at free.  dim, when given, is
    the dimension known beforehand: the equations are eliminated only up to
    the rank it implies, and the rest certified (``_nullspace``).
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
    built, solutions = _nullspace(rows, len(cols), None if dim is None else len(cols) - dim)
    # the free column of a basis vector is its last nonzero entry
    free = [cols[next(c for c in reversed(range(len(sol))) if sol[c])] for sol in solutions]

    def vector(j):
        w = [dict() for _ in vectors]
        for (i, mono), x in zip(cols, solutions[j]):
            if x:
                w[i][mono] = x
        return integer_normalize(tuple(Poly._new(vars, t) for t in w))

    return built, free, vector


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
    representations: each same-position lcm is computed once, into a table
    per position, and a pair no higher than the bound so far is not tested.
    """
    bound = max(degrees)
    pk = packing(len(basis.vars))
    by_position: dict[int, list[int]] = {}
    for k, _ in basis.lead_terms:
        by_position.setdefault(pk.position(k), []).append(k)
    for pos, leads in by_position.items():
        lcms = [[0] * len(leads) for _ in leads]  # each same-position lcm, once
        for a, b in combinations(range(len(leads)), 2):
            lcms[a][b] = lcms[b][a] = pk.lcm(leads[a], leads[b])
        for a, b in combinations(range(len(leads)), 2):
            u = lcms[a][b]
            if pk.degree(u) + row_shifts[pos] > bound and not any(
                    pk.divides(kc, u) and lcms[a][c] != u and lcms[b][c] != u
                    for c, kc in enumerate(leads)):
                bound = pk.degree(u) + row_shifts[pos]
    return bound


def _minimal_syzygies(vectors, degrees, row_shifts, dims, top: int, count: int | None = None):
    """Minimal generators of Syz(vectors) with small integer coefficients,
    and their degrees (vectors and degrees as in graded_syzygy_space).

    dims(k) is the dimension of the degree-k piece of Syz(vectors), known
    beforehand (``_piece_dimensions``).  Graded pieces are scanned in
    increasing degree up to top, a degree up to which Syz(vectors) is
    generated.  The products m * g of the kept vectors g by monomials m span
    a subspace of each piece.  When they number at least dims(k), a piece
    they span, by dimension (``_GradedSpan.rank``), is skipped unbuilt;
    fewer cannot span it.  Any other piece is built, eliminated only up to
    the rank dims(k) gives with the rows left over certified to vanish on
    its basis, and its nullspace dimension must equal dims(k).

    Its syzygies are then picked in the nullspace's free coordinates: a
    syzygy of the piece is fixed by its entries at the free columns, and
    there the basis vector of free column j is the unit vector e_j.  Taken
    in order, a basis vector is kept unless the products and the ones kept
    before it generate it, that is unless e_j lies in W + <e_i : i < j>,
    with W the products read at the free columns; equivalently, unless the
    projection of W onto the columns j, j+1, ... holds e_j.  In an echelon
    form of W whose pivots are the last nonzero columns of its rows, that
    happens exactly when some row has its pivot at j.  So the products,
    read at the free columns only, go into one such echelon form (the
    columns numbered backwards, as ``_echelon_add`` pivots on the least),
    and the basis vectors of the other free columns are kept.  By graded
    Nakayama the kept vectors are minimal generators of every piece up to
    top, and past it no new generator is needed.

    count, when given, is the number of minimal generators, known when
    Syz(vectors) is free of that rank: the scan ends once it has kept count
    vectors, which are then all of them, and top is only a cap.  Reaching
    the cap short of count is an InternalError.
    """
    nvars = len(next(p.vars for v in vectors for p in v))
    divides = packing(nvars).divides
    kept: list = []
    degs: list[int] = []
    for k in range(min(degrees), top + 1):
        if count is not None and len(kept) >= count:
            break
        dim = dims(k)
        products = sum(len(monomial_keys(nvars, k - e)) for e in degs)
        if products >= dim and _GradedSpan(
                [(e, Vec.from_polys(g)) for g, e in zip(kept, degs)]).rank(k) == dim:
            continue
        built, free, vector = graded_syzygy_space(vectors, degrees, row_shifts, k, dim)
        if built != dim:
            raise InternalError(f"degree-{k} syzygies have dimension {built}, "
                                f"not {dim} as the Hilbert function gives")
        last = len(free) - 1  # free column j is echelon column last - j
        ech: dict = {}
        for g, e in zip(kept, degs):
            _, nums = _integer_scaled(g)
            for m in monomial_keys(nvars, k - e):
                row = {last - j: c for j, (i, mono) in enumerate(free)
                       if divides(m, mono) and (c := nums[i].get(mono - m))}
                if row:
                    _echelon_add(ech, row)
        picks = [vector(j) for j in range(len(free)) if last - j not in ech]
        if len(ech) + len(picks) != dim:
            raise InternalError("kept syzygies do not span a graded piece")
        kept += picks
        degs += [k] * len(picks)
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
    nvars = len(first_basis.vars)
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
    as many rows as columns and a nonzero maximal minor.  With one column
    the minors are the entries.  Otherwise the rows, scaled to integers, are
    evaluated at (s, t, u) = (2, 3, 5) and put in echelon form: n
    independent rows there give an n x n minor with a nonzero value, so a
    nonzero polynomial.  Only below rank n are the symbolic minors computed,
    up to the first nonzero one."""
    if m.rows < m.cols:
        return False
    if m.cols == 1:
        return any(not p.is_zero() for p in m.column(0))
    unpack, ech = packing(len(m.vars)).unpack, {}
    for row in m.entries:
        _, nums = _integer_scaled(row)
        vals = (sum(c * prod(map(pow, (2, 3, 5), unpack(k))) for k, c in num.items())
                for num in nums)
        vec = {j: v for j, v in enumerate(vals) if v}
        if vec and _echelon_add(ech, vec) and len(ech) == m.cols:
            return True
    return any(not d.is_zero() for _, d in m.maximal_minors())


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

    @property
    def gammas(self) -> tuple[int | None, int | None]:
        """(gamma1, gamma2): the entry-degree maxima of d1 and d2, None for
        a map that vanishes."""
        return tuple(None if m is None else int(m.degree) for m in (self.d1, self.d2))

    @cached_property
    def betti(self) -> BettiTable:
        """Minimal graded Betti numbers beta_ij = dim Tor_i(I, Q)_j, with the
        regularity, read off this resolution of any row (Eisenbud, The
        Geometry of Syzygies, ch. 1).  Tensored with Q, d2 vanishes, as
        ``validate`` forbids unit entries, and d1 keeps its constant block,
        the entries with q[c] == shifts0[i]; beta_0 and beta_1 in degree k
        each drop by its rank there, and beta_2 is p."""
        cols = self.d1.columns() if self.d1 is not None else []
        if len(cols) != len(self.q):
            raise InternalError(f"d1 has {len(cols)} columns but q has {len(self.q)} degrees")
        blocks: dict[int, dict] = {}  # degree k -> echelon form of its block
        for col, k in zip(cols, self.q):
            _, nums = _integer_scaled([c for c, sh in zip(col, self.shifts0) if sh == k])
            vec = {i: x for i, num in enumerate(nums) for x in num.values()}
            if vec:
                _echelon_add(blocks.setdefault(k, {}), vec)
        units = Counter({k: len(rows) for k, rows in blocks.items()})
        return _betti_table([list((Counter(level) - units).elements())
                             for level in (self.shifts0, self.q)] + [self.p], True)

    def validate(self):
        """Raise InternalError unless this is a graded complex as claimed:
        ranks with alternating sum 1, the columns of d1 syzygies of gens
        (one row-by-matrix product), d1 d2 = 0, every entry of the degree
        the shifts give and no unit entry in d2."""
        r0, r1, r2 = self.ranks
        if r0 - r1 + r2 != 1:
            raise InternalError(f"rank alternating sum {r0}-{r1}+{r2} != 1")
        if self.d1 is not None:
            if any(not p.is_zero() for p in (PolyMatrix([list(self.gens)]) * self.d1).entries[0]):
                raise InternalError("columns of the presentation are not syzygies")
            for j, col in enumerate(self.d1.columns()):
                _check_entry_degrees(col, self.shifts0, self.q[j])
        if self.d2 is not None:
            composite = self.d1 * self.d2
            if any(not p.is_zero() for row in composite.entries for p in row):
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
    cap = 3 * max(map(packing(len(vars)).degree, first_basis.leading_keys))
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
    carries no regularity; ``FreeResolution.betti`` gives the minimal one.
    """
    table = _betti_table((res.shifts0, res.q, res.p), False)
    gamma1, gamma2 = res.gammas
    return table, {"a": res.ranks[2], "gamma1": gamma1, "gamma2": gamma2}


# ---------------------------------------------------------------------------
# Hilbert functions, dimension, ideal quotients
# ---------------------------------------------------------------------------


def _leading_keys(gens) -> tuple[Sequence[int], int]:
    """(lead keys, number of variables) of a reduced basis or of Polys' ideal."""
    if not isinstance(gens, GroebnerBasis):
        gens = list(gens)
        nonzero = [g for g in gens if not g.is_zero()]
        if not nonzero:
            return [], len(gens[0].vars) if gens else 0
        gens = buchberger(nonzero)
    return gens.leading_keys, len(gens.vars)


def _divisible_count(leads, nvars: int, k: int) -> int:
    """Number of degree-k monomials divisible by a lead: dim I_k (Macaulay)."""
    if not leads:
        return 0
    divides = packing(nvars).divides
    return sum(1 for m in monomial_keys(nvars, k) if any(divides(lm, m) for lm in leads))


def hilbert_function(gens, k: int) -> int:
    """Dimension of the degree-k graded piece of the ideal."""
    return _divisible_count(*_leading_keys(gens), k) if k >= 0 else 0


def hilbert_quotient(gens, k: int) -> int:
    """Hilbert function of the quotient ring in degree k."""
    if k < 0:
        return 0
    leads, nvars = _leading_keys(gens)
    return len(monomials_of_degree(nvars, k)) - _divisible_count(leads, nvars, k)


def krull_dimension(gens) -> int:
    """Krull dimension of the quotient by the ideal, from the leading-term ideal.

    The zero ideal gives the ambient dimension; the unit ideal gives -1.
    """
    leads, nvars = _leading_keys(gens)
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


def ideal_quotient(k_gens, f) -> GroebnerBasis:
    """Reduced Groebner basis of the colon (K : f) = {g : g f in K}, the
    first coordinates of Syz(f, k_1, ..., k_r).

    The colon by f = 0 is the unit ideal.  For f != 0, K must not be the
    zero ideal: (0 : f) is zero, which ``buchberger`` refuses (ValueError).
    """
    return buchberger([w[0] for w in syzygy_generators([f, *k_gens])])
