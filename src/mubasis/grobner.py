"""Groebner bases for ideals and submodules of free modules over Q[s,t(,u)].

Groebner bases run through one engine operating on sparse module vectors
({(position, monomial): coefficient} dictionaries); an ideal is the rank-1
case.  Buchberger's algorithm tracks representations of basis elements in
terms of the input generators, which powers syzygy computation (Schreyer's
construction), membership lifting and ideal quotients.

Minimal generators of graded modules are selected by exact linear algebra
on one graded piece at a time (graded Nakayama), with one echelon routine
that also yields the graded syzygy spaces; Buchberger remains the
independent cross-check of the resulting resolutions (``modules_equal``).
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .arith import (
    Monomial,
    Poly,
    PolyMatrix,
    grevlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
    mono_mul,
    monomials_of_degree,
)
from .errors import InternalError

# ---------------------------------------------------------------------------
# Orders
# ---------------------------------------------------------------------------


class TermOverPosition:
    """Grevlex on monomials, ties broken by position (e_1 > e_2 > ...).

    For rank-1 vectors this is plain grevlex on the ring.
    """

    name = "grevlex"

    def key(self, pm):
        pos, mono = pm
        return (grevlex_key(mono), -pos)


class SchreyerOrder:
    """Order induced by the leading monomials of a Groebner basis.

    (m, e_i) exceeds (m', e_j) when m * lm(g_i) exceeds m' * lm(g_j) in
    grevlex, ties broken by position.
    """

    name = "schreyer"

    def __init__(self, lead_monomials: Sequence[Monomial]):
        self.leads = list(lead_monomials)

    def key(self, pm):
        pos, mono = pm
        return (grevlex_key(mono_mul(mono, self.leads[pos])), -pos)


GREVLEX = TermOverPosition()


# ---------------------------------------------------------------------------
# Sparse module vectors
# ---------------------------------------------------------------------------


class Vec:
    """Element of a free module R^rank, sparse over (position, monomial)."""

    __slots__ = ("vars", "rank", "terms")

    def __init__(self, vars, rank, terms):
        self.vars = vars
        self.rank = rank
        self.terms = {pm: c for pm, c in terms.items() if c != 0}

    @classmethod
    def from_polys(cls, polys: Sequence[Poly], rank=None) -> "Vec":
        rank = len(polys) if rank is None else rank
        vars = polys[0].vars
        terms = {}
        for pos, p in enumerate(polys):
            for m, c in p.terms.items():
                terms[(pos, m)] = c
        return cls(vars, rank, terms)

    def to_polys(self) -> tuple[Poly, ...]:
        buckets: list[dict] = [dict() for _ in range(self.rank)]
        for (pos, m), c in self.terms.items():
            buckets[pos][m] = c
        return tuple(Poly(self.vars, b) for b in buckets)

    def is_zero(self) -> bool:
        return not self.terms

    def copy(self) -> "Vec":
        return Vec(self.vars, self.rank, dict(self.terms))

    def leading(self, order):
        return max(self.terms, key=order.key)

    def scale(self, c: Fraction) -> "Vec":
        if c == 0:
            return Vec(self.vars, self.rank, {})
        return Vec(self.vars, self.rank, {pm: v * c for pm, v in self.terms.items()})

    def term_mul(self, mono: Monomial, c: Fraction) -> "Vec":
        if c == 0:
            return Vec(self.vars, self.rank, {})
        return Vec(self.vars, self.rank,
                   {(pos, mono_mul(m, mono)): v * c for (pos, m), v in self.terms.items()})

    def __sub__(self, other: "Vec") -> "Vec":
        terms = dict(self.terms)
        for pm, c in other.terms.items():
            val = terms.get(pm, Fraction(0)) - c
            if val:
                terms[pm] = val
            else:
                terms.pop(pm, None)
        return Vec(self.vars, self.rank, terms)

    def __eq__(self, other):
        return isinstance(other, Vec) and self.rank == other.rank and self.terms == other.terms


def _reduce_full(vec: Vec, basis: Sequence[Vec], order, leads=None, want_quotients=False):
    """Full normal form of vec against basis; optionally track quotients.

    Returns (remainder, quotients) where quotients[i] is the Poly q_i with
    vec = sum q_i basis_i + remainder.
    """
    if leads is None:
        leads = [(g.leading(order), g.terms[g.leading(order)]) for g in basis]
    vars = vec.vars
    quots = [dict() for _ in basis] if want_quotients else None
    work = dict(vec.terms)
    rem: dict = {}
    while work:
        pm = max(work, key=order.key)
        pos, mono = pm
        c = work[pm]
        hit = -1
        for gi, ((gpos, gmono), glc) in enumerate(leads):
            if gpos == pos and mono_divides(gmono, mono):
                hit = gi
                break
        if hit < 0:
            rem[pm] = c
            del work[pm]
            continue
        qmono = mono_div(mono, leads[hit][0][1])
        factor = c / leads[hit][1]
        if want_quotients:
            quots[hit][qmono] = quots[hit].get(qmono, Fraction(0)) + factor
        for (bpos, bm), bc in basis[hit].terms.items():
            key = (bpos, mono_mul(bm, qmono))
            val = work.get(key, Fraction(0)) - bc * factor
            if val:
                work[key] = val
            else:
                work.pop(key, None)
    remainder = Vec(vec.vars, vec.rank, rem)
    if want_quotients:
        return remainder, [Poly(vars, q) for q in quots]
    return remainder, None


@dataclass
class _ExtGB:
    """Reduced Groebner basis with representations over the input generators."""

    vars: tuple
    rank: int
    ngens: int
    order: object
    vecs: list          # reduced GB elements
    reps: list          # reps[i]: list of Poly, vecs[i] = sum reps[i][j] * gen_j
    leads: list = field(default_factory=list)

    def __post_init__(self):
        if not self.leads:
            self.leads = [(g.leading(self.order), g.terms[g.leading(self.order)])
                          for g in self.vecs]

    def reduce(self, vec: Vec, want_quotients=False):
        return _reduce_full(vec, self.vecs, self.order, self.leads, want_quotients)

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


def _spair_data(gi: Vec, gj: Vec, order):
    (pi, mi) = gi.leading(order)
    (pj, mj) = gj.leading(order)
    if pi != pj:
        return None
    u = mono_lcm(mi, mj)
    ci = gi.terms[(pi, mi)]
    cj = gj.terms[(pj, mj)]
    return u, mono_div(u, mi), Fraction(1) / ci, mono_div(u, mj), Fraction(1) / cj


def _buchberger_ext(gens: Sequence[Vec], order) -> _ExtGB:
    """Buchberger with sugar selection, both classical criteria, and
    representation tracking; finishes with interreduction to the reduced basis."""
    vars = gens[0].vars
    rank = gens[0].rank
    k = len(gens)
    one = Poly.const(vars, 1)
    zero = Poly.zero(vars)

    G: list[Vec] = []
    reps: list[list[Poly]] = []
    sugars: list[int] = []
    for idx, g in enumerate(gens):
        if g.is_zero():
            continue
        G.append(g.copy())
        reps.append([one if j == idx else zero for j in range(k)])
        sugars.append(max(sum(m) for _, m in g.terms))

    pending: set[tuple[int, int]] = set()
    heap: list[tuple[int, int, int, int]] = []

    def push_pairs(new_idx: int):
        gn = G[new_idx]
        pn, mn = gn.leading(order)
        for i in range(new_idx):
            pi, mi = G[i].leading(order)
            if pi != pn:
                continue
            u = mono_lcm(mi, mn)
            sugar = max(sugars[i] + sum(u) - sum(mi),
                        sugars[new_idx] + sum(u) - sum(mn))
            pair = (i, new_idx)
            pending.add(pair)
            heapq.heappush(heap, (sugar, sum(u), pair[0], pair[1]))

    for i in range(len(G)):
        push_pairs(i)

    while heap:
        pair_sugar, _, i, j = heapq.heappop(heap)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        data = _spair_data(G[i], G[j], order)
        if data is None:
            continue
        u, qi, ci_inv, qj, cj_inv = data
        (pi, mi) = G[i].leading(order)
        (pj, mj) = G[j].leading(order)
        # product criterion (ideals only)
        if rank == 1 and mono_mul(mi, mj) == u:
            continue
        # chain criterion
        skip = False
        for l in range(len(G)):
            if l in (i, j):
                continue
            (pl, ml) = G[l].leading(order)
            if pl != pi or not mono_divides(ml, u):
                continue
            a = (min(i, l), max(i, l))
            b = (min(j, l), max(j, l))
            if a not in pending and b not in pending:
                skip = True
                break
        if skip:
            continue
        s_vec = G[i].term_mul(qi, ci_inv) - G[j].term_mul(qj, cj_inv)
        rem, quots = _reduce_full(s_vec, G, order, want_quotients=True)
        if rem.is_zero():
            continue
        rep = [zero] * k
        for l in range(k):
            acc = reps[i][l].term_mul(qi, ci_inv) - reps[j][l].term_mul(qj, cj_inv)
            for q, r in zip(quots, reps):
                if not q.is_zero() and not r[l].is_zero():
                    acc = acc - q * r[l]
            rep[l] = acc
        G.append(rem)
        reps.append(rep)
        sugar = pair_sugar
        for q, s in zip(quots, sugars):
            if not q.is_zero():
                sugar = max(sugar, s + int(q.degree))
        sugars.append(sugar)
        push_pairs(len(G) - 1)

    # interreduce: drop redundant leading terms, then tail-reduce, then scale monic
    order_keys = [order.key(g.leading(order)) for g in G]
    idx_sorted = sorted(range(len(G)), key=lambda i: order_keys[i])
    kept: list[int] = []
    for i in idx_sorted:
        (pi, mi) = G[i].leading(order)
        if any(G[l].leading(order)[0] == pi and mono_divides(G[l].leading(order)[1], mi)
               for l in kept):
            continue
        kept.append(i)
    G2 = [G[i] for i in kept]
    R2 = [reps[i] for i in kept]
    changed = True
    while changed:
        changed = False
        for i in range(len(G2)):
            others = G2[:i] + G2[i + 1:]
            rem, quots = _reduce_full(G2[i], others, order, want_quotients=True)
            if rem == G2[i]:
                continue
            changed = True
            rep = list(R2[i])
            other_reps = R2[:i] + R2[i + 1:]
            for l in range(k):
                acc = rep[l]
                for q, r in zip(quots, other_reps):
                    if not q.is_zero() and not r[l].is_zero():
                        acc = acc - q * r[l]
                rep[l] = acc
            G2[i] = rem
            R2[i] = rep
    for i in range(len(G2)):
        lc = G2[i].terms[G2[i].leading(order)]
        inv = Fraction(1) / lc
        G2[i] = G2[i].scale(inv)
        R2[i] = [r * inv for r in R2[i]]
    pairs = sorted(range(len(G2)), key=lambda i: order.key(G2[i].leading(order)))
    G2 = [G2[i] for i in pairs]
    R2 = [R2[i] for i in pairs]
    return _ExtGB(vars=vars, rank=rank, ngens=k, order=order, vecs=G2, reps=R2)


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
        self.order = ext.order
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

    def contains_constant(self) -> bool:
        """True when the ideal is the unit ideal (rank-1 only)."""
        return self._scalar and len(self.generators) == 1 and \
            self.generators[0].is_constant() and not self.generators[0].is_zero()


def buchberger(gens, order=None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal/submodule generated by gens."""
    vecs, rank, vars, scalar = _normalize_items(gens)
    nonzero = [v for v in vecs if not v.is_zero()]
    if not nonzero:
        raise ValueError("all generators are zero")
    return GroebnerBasis(_buchberger_ext(nonzero, order or GREVLEX), scalar)


def normal_form(x, gb: GroebnerBasis):
    return gb.normal_form(x)


def make_lifter(gens):
    """Callable expressing targets over gens (None when not a member)."""
    vecs, rank, vars, scalar = _normalize_items(gens)
    nonzero = [(i, v) for i, v in enumerate(vecs) if not v.is_zero()]
    if not nonzero:
        return lambda target: None
    ext = _buchberger_ext([v for _, v in nonzero], GREVLEX)
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
    ext = _buchberger_ext([v for _, v in nonzero], GREVLEX)
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
    G = ext.vecs
    vars = ext.vars
    zero = Poly.zero(vars)
    sigmas = []
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            data = _spair_data(G[i], G[j], ext.order)
            if data is None:
                continue
            u, qi, ci_inv, qj, cj_inv = data
            s_vec = G[i].term_mul(qi, ci_inv) - G[j].term_mul(qj, cj_inv)
            rem, quots = ext.reduce(s_vec, want_quotients=True)
            if not rem.is_zero():
                raise InternalError("S-vector of a Groebner basis did not reduce to zero")
            sigma = [zero] * len(G)
            sigma[i] = sigma[i] + Poly(vars, {qi: ci_inv})
            sigma[j] = sigma[j] - Poly(vars, {qj: cj_inv})
            for l, q in enumerate(quots):
                if not q.is_zero():
                    sigma[l] = sigma[l] - q
            sigmas.append(tuple(sigma))
    return sigmas


def schreyer_syzygy_basis(gens):
    """(gb, sigmas, order): Syz(gb.generators) generators that form a Groebner
    basis under the Schreyer order induced by gb's leading terms."""
    vecs, rank, vars, scalar = _normalize_items(gens)
    nonzero = [v for v in vecs if not v.is_zero()]
    ext = _buchberger_ext(nonzero, GREVLEX)
    sigmas = _schreyer_sigmas(ext)
    order = SchreyerOrder([g.leading(ext.order)[1] for g in ext.vecs])
    return GroebnerBasis(ext, scalar), sigmas, order


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
        ext = _buchberger_ext([v for _, v in nz], GREVLEX)
        A = ext.reps  # gb[g] = sum A[g][l] * nz[l]
        nnz = len(nz)
        # syzygies of the gb, pushed down to the nonzero inputs
        for sigma in _schreyer_sigmas(ext):
            w = [zero] * nnz
            for g, coeff in enumerate(sigma):
                if coeff.is_zero():
                    continue
                for l in range(nnz):
                    if not A[g][l].is_zero():
                        w[l] = w[l] + coeff * A[g][l]
            out.append(_expand(w, nz, k, zero))
        # completion rows: v_l - sum_g B[l][g] gb_g = 0
        for l, (orig, v) in enumerate(nz):
            quotsB = ext.lift(v)
            if quotsB is None:
                raise InternalError("generator does not reduce to zero against its own basis")
            w = [zero] * nnz
            w[l] = one
            for ll in range(nnz):
                w[ll] = w[ll] - quotsB[ll]
            out.append(_expand(w, nz, k, zero))
    result = []
    seen = set()
    for w in out:
        if all(p.is_zero() for p in w):
            continue
        key = tuple(frozenset(p.terms.items()) for p in w)
        if key in seen:
            continue
        seen.add(key)
        result.append(w)
    # exactness check: every generator really is a syzygy
    originals = [v.to_polys() for v in vecs]
    for w in result:
        acc = [zero] * rank
        for wi, v in zip(w, originals):
            if wi.is_zero():
                continue
            for pos in range(rank):
                if not v[pos].is_zero():
                    acc[pos] = acc[pos] + wi * v[pos]
        if any(not a.is_zero() for a in acc):
            raise InternalError("computed vector is not a syzygy")
    return result


def _expand(w, nz, k, zero):
    full = [zero] * k
    for (orig, _), val in zip(nz, w):
        full[orig] = val
    return tuple(full)


def primitive_scale(coeffs) -> Fraction:
    """Constant c > 0 making c times the given rationals coprime integers."""
    coeffs = list(coeffs)
    den = lcm(*(c.denominator for c in coeffs))
    return Fraction(den, gcd(*(c.numerator for c in coeffs)) or 1)


def integer_normalize(vec):
    """Scale a vector by a constant so coefficients are coprime integers
    with a positive leading coefficient (keeps spans and syzygies intact)."""
    scale = primitive_scale(c for p in vec for c in p.terms.values())
    lead = None
    for p in vec:
        if not p.is_zero():
            lead = p.leading_coefficient()
            break
    if lead is not None and lead * scale < 0:
        scale = -scale
    return tuple(p * scale for p in vec)


def module_membership_all(candidates, gens) -> bool:
    """True when every candidate vector lies in the module generated by gens."""
    gb = buchberger(gens)
    return all(gb.contains(c) for c in candidates)


def modules_equal(gens_a, gens_b) -> bool:
    """Double-inclusion equality of two submodules given by generators."""
    return module_membership_all(gens_a, gens_b) and module_membership_all(gens_b, gens_a)


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


def _integral(vec: dict) -> dict:
    """Integer multiple of a {column: Fraction} vector with coprime entries."""
    scale = primitive_scale(vec.values())
    return {c: x.numerator * (scale.numerator // x.denominator) // scale.denominator
            for c, x in vec.items()}


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
    """Insert a {column: Fraction} vector into an echelon form; False when
    the rows already span it.

    rows maps each pivot column to a {column: int} row with coprime entries,
    kept up to a scalar so that elimination is fraction-free.  Each row is
    nonzero in its pivot column and every other row is zero there, so a
    vector reduces to zero exactly when it lies in the row span.  A new
    pivot is the least column of its reduced row, which makes the rows,
    scaled to 1 at their pivots, the unique reduced echelon form.
    """
    row = _integral(vec)
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

    def add(self, vec: Vec, deg: int) -> bool:
        """Keep vec unless the kept vectors generate it; True when kept."""
        if deg != self.degree:
            self.degree, self.piece = deg, {}
            for gdeg, g in self.kept:
                for m in monomials_of_degree(len(g.vars), deg - gdeg):
                    _echelon_add(self.piece, g.term_mul(m, Fraction(1)).terms)
        if not _echelon_add(self.piece, vec.terms):
            return False
        self.kept.append((deg, vec))
        return True


def _fraction_nullspace(rows, ncols):
    """Right-nullspace basis of an exact rational matrix, given by sparse rows
    ({column: value}), read off its reduced row echelon form."""
    ech: dict = {}
    for r in rows:
        _echelon_add(ech, {c: x for c, x in r.items() if x})
    basis = []
    for fc in range(ncols):
        if fc in ech:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for pc, row in ech.items():
            v[pc] = Fraction(-row.get(fc, 0), row[pc])
        basis.append(v)
    return basis


def graded_syzygy_space(vectors, degrees, row_shifts, k):
    """All degree-k syzygies of homogeneous vectors, by exact linear algebra.

    vectors[i] lives in ⊕_j S(-row_shifts[j]) and is homogeneous of degree
    degrees[i]; zero vectors are admitted (their coefficients are free, so
    unit syzygies appear naturally).  Returns integer-normalized tuples.
    """
    vars = None
    for v in vectors:
        for p in v:
            vars = p.vars
            break
        break
    nvars = len(vars)
    cols = []  # (vector index, coefficient monomial)
    for i, deg in enumerate(degrees):
        cd = k - deg
        if cd < 0:
            continue
        cols.extend((i, m) for m in monomials_of_degree(nvars, cd))
    if not cols:
        return []
    eq_index = {}
    for j, rho in enumerate(row_shifts):
        for m in monomials_of_degree(nvars, k - rho) if k - rho >= 0 else []:
            eq_index[(j, m)] = len(eq_index)
    rows = [dict() for _ in range(len(eq_index))]
    for ci, (i, mono) in enumerate(cols):
        for j, comp in enumerate(vectors[i]):
            for pm, c in comp.terms.items():
                row = rows[eq_index[(j, mono_mul(pm, mono))]]
                row[ci] = row.get(ci, 0) + c
    out = []
    zero = Poly.zero(vars)
    for sol in _fraction_nullspace(rows, len(cols)):
        w = [dict() for _ in vectors]
        for ci, (i, mono) in enumerate(cols):
            if sol[ci]:
                w[i][mono] = sol[ci]
        out.append(integer_normalize(tuple(Poly(vars, t) if t else zero for t in w)))
    return out


def _small_minimal_generators(vectors, degrees, row_shifts, target_degrees):
    """Minimal generators with small integer coefficients.

    Re-picks representatives degree by degree from exact nullspaces; the
    multiset of degrees must reproduce target_degrees (graded Nakayama makes
    it intrinsic), otherwise the caller's data was inconsistent.
    """
    span = _GradedSpan()
    kept: list = []
    degs: list[int] = []
    for k in sorted(set(target_degrees)):
        want = sum(1 for d in target_degrees if d == k)
        space = graded_syzygy_space(vectors, degrees, row_shifts, k)
        found = 0
        for v in space:
            if found == want:
                break
            if not span.add(Vec.from_polys(v), k):
                continue
            kept.append(v)
            degs.append(k)
            found += 1
        if found != want:
            raise InternalError("graded piece is short of minimal generators")
    return kept, degs


@dataclass
class FreeResolution:
    """Graded free resolution 0 -> F2 -> F1 -> F0 -> ideal -> 0 (F2 may vanish).

    shifts0/q/p hold the internal degrees of the generators of F0/F1/F2, so
    the modules are ⊕S(-shifts0_i), ⊕S(-q_i), ⊕S(-p_i).  d1 and d2 are the
    matrices of the maps F1 -> F0 and F2 -> F1 (columns are images).
    """

    vars: tuple
    target_degree: int
    gens: tuple
    shifts0: tuple
    d1: PolyMatrix | None
    q: tuple
    d2: PolyMatrix | None
    p: tuple
    fixed_first_map: bool

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


def free_resolution(gens, fixed_first_map: bool) -> FreeResolution:
    """Graded free resolution of the ideal generated by homogeneous gens.

    With fixed_first_map the first map is the given generator row (possibly
    non-minimal); later maps are always chosen minimally.  Without it the
    entire resolution is minimal.
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

    if fixed_first_map:
        row = tuple(gens)
        shifts0 = tuple(int(g.degree) if not g.is_zero() else d for g in gens)
    else:
        kept, degs = minimal_generators([(g,) for g in nonzero], [0])
        row = tuple(t[0] for t in kept)
        shifts0 = tuple(degs)

    syz1 = syzygy_generators(list(row))
    cols1, q = minimal_generators(syz1, shifts0)
    if cols1:
        # keep the module but choose small-coefficient representatives
        deg0 = [int(g.degree) if not g.is_zero() else sh
                for g, sh in zip(row, shifts0)]
        nice1, q2 = _small_minimal_generators([(g,) for g in row], deg0, [0], q)
        nice1 = [tuple(t) for t in nice1]
        if sorted(q2) != sorted(q) or not modules_equal(nice1, cols1):
            raise InternalError("small-representative syzygies disagree")
        cols1, q = nice1, q2
    d1 = PolyMatrix.from_columns(cols1) if cols1 else None

    cols2: list = []
    p: list[int] = []
    if cols1:
        syz2 = syzygy_generators(cols1)
        cols2, p = minimal_generators(syz2, q)
        if cols2:
            nice2, p2 = _small_minimal_generators(cols1, q, shifts0, p)
            if sorted(p2) != sorted(p) or not modules_equal(nice2, cols2):
                raise InternalError("small-representative syzygies disagree")
            cols2, p = nice2, p2
    d2 = PolyMatrix.from_columns(cols2) if cols2 else None
    if cols2:
        syz3 = [w for w in syzygy_generators(cols2) if any(not x.is_zero() for x in w)]
        if syz3:
            raise InternalError("resolution did not terminate at length two")

    res = FreeResolution(vars=vars, target_degree=d, gens=row, shifts0=shifts0,
                         d1=d1, q=tuple(q), d2=d2, p=tuple(p),
                         fixed_first_map=fixed_first_map)
    res.validate()
    return res


@dataclass
class BettiTable:
    """Graded Betti numbers read from resolution shifts."""

    entries: dict
    totals: dict
    regularity: int | None


def regularity_from_resolution(res: FreeResolution) -> int:
    """Castelnuovo-Mumford regularity of the ideal, from a minimal resolution."""
    return _betti_table((res.shifts0, res.q, res.p), True).regularity


def _betti_table(levels, minimal: bool) -> BettiTable:
    entries = Counter((i, sh) for i, level in enumerate(levels) for sh in level)
    reg = max(sh - i for i, sh in entries) if minimal else None
    return BettiTable(entries=dict(entries),
                      totals={i: len(level) for i, level in enumerate(levels)},
                      regularity=reg)


def resolution_invariants(res: FreeResolution):
    """BettiTable plus the presentation data {a, gamma1, gamma2}.

    a is the rank of the last module; gamma_i are the entry-degree maxima of
    the two maps.  The Betti table carries a regularity value only when the
    resolution is minimal.
    """
    table = _betti_table((res.shifts0, res.q, res.p), not res.fixed_first_map)
    inv = {
        "a": res.ranks[2],
        "gamma1": int(res.d1.degree) if res.d1 is not None else None,
        "gamma2": int(res.d2.degree) if res.d2 is not None else None,
    }
    return table, inv


def minimal_betti_table(res: FreeResolution) -> BettiTable:
    """Minimal graded Betti numbers (with regularity) of the ideal, read off
    a fixed-first-map resolution without building the minimal one.

    beta_ij = dim Tor_i(I, Q)_j can be computed from any graded free
    resolution, and every graded free resolution is the minimal one plus
    trivial complexes R(-j) -> R(-j) (Eisenbud, The Geometry of Syzygies,
    ch. 1).  Here d2 has no unit entries (``FreeResolution.validate``) and
    the resolution stops at F2, so every trivial summand sits in
    homological degrees 0 and 1, one for each generator that
    ``minimal_generators`` drops (zero, or generated by the others).
    Removing their degrees from shifts0 and from q leaves the minimal
    table; p is already minimal.
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


def _leading_monomials(gens) -> tuple[list[Monomial], int]:
    if isinstance(gens, GroebnerBasis):
        gb = gens
    else:
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            return [], 0
        gb = buchberger(gens)
    nvars = len(gb.generators[0].vars)
    return [g.leading_monomial() for g in gb.generators], nvars


def hilbert_function(gens, k: int) -> int:
    """Dimension of the degree-k graded piece of the ideal."""
    if k < 0:
        return 0
    leads, nvars = _leading_monomials(gens)
    if not leads:
        return 0
    return sum(1 for m in monomials_of_degree(nvars, k)
               if any(mono_divides(lm, m) for lm in leads))


def hilbert_quotient(gens, k: int) -> int:
    """Hilbert function of the quotient ring in degree k."""
    if k < 0:
        return 0
    leads, nvars = _leading_monomials(gens)
    if not leads:
        gens = list(gens)
        nvars = len(gens[0].vars)
        return len(monomials_of_degree(nvars, k))
    return sum(1 for m in monomials_of_degree(nvars, k)
               if not any(mono_divides(lm, m) for lm in leads))


def krull_dimension(gens) -> int:
    """Krull dimension of the quotient by the ideal, from the leading-term ideal.

    The zero ideal gives the ambient dimension; the unit ideal gives -1.
    """
    if isinstance(gens, GroebnerBasis):
        leads, nvars = _leading_monomials(gens)
    else:
        gens = list(gens)
        nvars = len(gens[0].vars)
        leads, _ = _leading_monomials(gens)
    if not leads:
        return nvars
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in leads]
    best = -1
    for mask in range(1 << nvars):
        subset = frozenset(i for i in range(nvars) if mask >> i & 1)
        if any(sup <= subset for sup in supports):
            continue
        best = max(best, len(subset))
    return best


def _first_coordinates(syzygies, vars) -> list[Poly]:
    out = []
    for w in syzygies:
        if not w[0].is_zero():
            out.append(w[0])
    return out


def _intersect_ideals(a_gens, b_gens, vars) -> list[Poly]:
    if not a_gens or not b_gens:
        return []
    one = Poly.const(vars, 1)
    zero = Poly.zero(vars)
    items = [(one, one)]
    items += [(g, zero) for g in a_gens]
    items += [(zero, g) for g in b_gens]
    firsts = _first_coordinates(syzygy_generators(items), vars)
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
        colon = _first_coordinates(syz, vars)
        colon = list(buchberger(colon).generators) if colon else []
        result = colon if result is None else _intersect_ideals(result, colon, vars)
    if result is None:
        return [Poly.const(vars, 1)]
    return result
