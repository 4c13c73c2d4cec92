"""Shared test utilities: polynomial builders and independent oracles.

The oracles here deliberately avoid the library's Groebner machinery and its
packed monomials: monomials are exponent tuples, and ranks and syzygies are
found by dense linear algebra over Fraction on graded or degree-truncated
coefficient spaces.  minimal_row and minimal_resolution
are conveniences built on the library, not oracles.
"""

from __future__ import annotations

import random
from fractions import Fraction

from mubasis.arith import (
    VARS_ST,
    VARS_STU,
    Packing,
    Poly,
    monomials_of_degree,
)
from mubasis.grobner import free_resolution, minimal_generators


# Exponent-tuple monomial operations: an oracle for the packed keys of
# arith.Packing, which the library uses for every monomial.


def grevlex_key(mono):
    """Sort key realizing graded reverse lexicographic order (s > t > u)."""
    return (sum(mono), tuple(-e for e in reversed(mono)))


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b):
    """True when a divides b."""
    return all(x <= y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def count_conversions(monkeypatch, targets):
    """Patch the Packing conversions (pack_terms, unpack_terms, unpack) to
    log their names while one of targets, (owner, attribute) pairs naming
    functions, runs; returns the log, which fills as the test goes on."""
    depth, calls = [0], []
    for owner, name in targets:
        def entered(*args, _real=getattr(owner, name), **kwargs):
            depth[0] += 1
            try:
                return _real(*args, **kwargs)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(owner, name, entered)
    for name in ("pack_terms", "unpack_terms", "unpack"):
        def counted(self, *args, _real=getattr(Packing, name), _name=name):
            if depth[0]:
                calls.append(_name)
            return _real(self, *args)
        monkeypatch.setattr(Packing, name, counted)
    return calls


def P(vars, text_terms):
    """Build a Poly from {exponent tuple: coefficient}."""
    return Poly(vars, {tuple(m): Fraction(c) for m, c in text_terms.items()})


def st(terms):
    return P(VARS_ST, terms)


def stu(terms):
    return P(VARS_STU, terms)


def s_():
    return Poly.variable(VARS_ST, "s")


def t_():
    return Poly.variable(VARS_ST, "t")


def random_poly(rng: random.Random, vars, max_deg, coeff_bound=10, density=0.6,
                force_nonzero=False):
    terms = {}
    for k in range(max_deg + 1):
        for m in monomials_of_degree(len(vars), k):
            if rng.random() < density:
                c = rng.randint(-coeff_bound, coeff_bound)
                if c:
                    terms[m] = Fraction(c)
    p = Poly(vars, terms)
    if force_nonzero and p.is_zero():
        return Poly.const(vars, rng.randint(1, coeff_bound))
    return p


def random_form(rng: random.Random, vars, deg, coeff_bound=5, density=0.7):
    """Random homogeneous polynomial of exact degree deg (nonzero)."""
    while True:
        terms = {}
        for m in monomials_of_degree(len(vars), deg):
            if rng.random() < density:
                c = rng.randint(-coeff_bound, coeff_bound)
                if c:
                    terms[m] = Fraction(c)
        p = Poly(vars, terms)
        if not p.is_zero():
            return p


def monomials_up_to(nvars, max_deg):
    out = []
    for k in range(max_deg + 1):
        out.extend(monomials_of_degree(nvars, k))
    return out


def nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right nullspace of an exact rational matrix."""
    m = [list(r) for r in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            v[pc] = -m[ri][fc]
        basis.append(v)
    return basis


def matrix_rank(rows: list[list[Fraction]]) -> int:
    if not rows:
        return 0
    m = [list(r) for r in rows]
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def hilbert_by_linear_algebra(gens, k: int) -> int:
    """dim of the degree-k piece of the ideal, via the span of monomial multiples."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return 0
    nvars = len(gens[0].vars)
    kmonos = monomials_of_degree(nvars, k)
    index = {m: i for i, m in enumerate(kmonos)}
    rows = []
    for g in gens:
        d = int(g.degree)
        if d > k:
            continue
        for m in monomials_of_degree(nvars, k - d):
            prod = g.term_mul(m, Fraction(1))
            row = [Fraction(0)] * len(kmonos)
            for mono, c in prod.terms.items():
                row[index[mono]] = c
            rows.append(row)
    return matrix_rank(rows)


def random_unimodular_column(rng: random.Random, m: int, max_entry_deg=3):
    """Random unimodular m x 1 column, built from row operations on e1."""
    from mubasis.arith import PolyMatrix

    while True:
        one = Poly.const(VARS_ST, 1)
        zero = Poly.zero(VARS_ST)
        col = [one] + [zero] * (m - 1)
        for _ in range(rng.randint(2, 4)):
            i, j = rng.sample(range(m), 2)
            h = random_poly(rng, VARS_ST, 1, coeff_bound=2)
            col[i] = col[i] + h * col[j]
            if rng.random() < 0.3:
                a, b = rng.sample(range(m), 2)
                col[a], col[b] = col[b], col[a]
        mat = PolyMatrix([[p] for p in col])
        if mat.degree != float("-inf") and mat.degree <= max_entry_deg:
            return mat


def random_unimodular_matrix(rng: random.Random, m: int, n: int, max_entry_deg=3):
    """Random unimodular m x n matrix (m > n) from operations on [I; 0]."""
    from mubasis.arith import PolyMatrix

    while True:
        one = Poly.const(VARS_ST, 1)
        zero = Poly.zero(VARS_ST)
        ent = [[one if i == j else zero for j in range(n)] for i in range(m)]
        for _ in range(rng.randint(2, 4)):
            i, j = rng.sample(range(m), 2)
            h = random_poly(rng, VARS_ST, 1, coeff_bound=2)
            for c in range(n):
                ent[i][c] = ent[i][c] + h * ent[j][c]
        mat = PolyMatrix(ent)
        if mat.degree <= max_entry_deg:
            return mat


def brute_force_syzygies(vecs, bound: int):
    """All syzygies w (entries of degree <= bound) of a family of vectors.

    vecs: list of tuples of Poly (a family in a free module) or plain Polys.
    Returns a basis of the solution space as tuples of Poly.
    """
    if not isinstance(vecs[0], (tuple, list)):
        vecs = [(v,) for v in vecs]
    vars = vecs[0][0].vars
    nvars = len(vars)
    rank = len(vecs[0])
    cmonos = monomials_up_to(nvars, bound)
    ncols = len(vecs) * len(cmonos)
    max_out = bound + max(max((int(p.degree) for p in v if not p.is_zero()), default=0)
                          for v in vecs)
    out_monos = monomials_up_to(nvars, max_out)
    out_index = {(pos, m): i for pos in range(rank)
                 for i, m in enumerate(out_monos, start=pos * len(out_monos))}

    def col_of(vi, mi):
        return vi * len(cmonos) + mi

    eq_rows = [[Fraction(0)] * ncols for _ in range(rank * len(out_monos))]
    for vi, v in enumerate(vecs):
        for mi, m in enumerate(cmonos):
            for pos in range(rank):
                comp = v[pos]
                if comp.is_zero():
                    continue
                prod = comp.term_mul(m, Fraction(1))
                for mono, c in prod.terms.items():
                    eq_rows[out_index[(pos, mono)]][col_of(vi, mi)] += c
    sols = nullspace(eq_rows, ncols)
    out = []
    for sol in sols:
        w = []
        for vi in range(len(vecs)):
            terms = {}
            for mi, m in enumerate(cmonos):
                c = sol[col_of(vi, mi)]
                if c:
                    terms[m] = c
            w.append(Poly(vars, terms))
        out.append(tuple(w))
    return out


def minimal_row(gens):
    """The minimal generators of the nonzero entries of a homogeneous row,
    as minimal_generators picks them."""
    kept, _ = minimal_generators([(g,) for g in gens if not g.is_zero()], [0])
    return [t[0] for t in kept]


def minimal_resolution(gens):
    """The minimal graded free resolution of the ideal gens generate: the
    resolution of its minimal generators."""
    return free_resolution(minimal_row(gens))
