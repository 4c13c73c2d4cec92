"""Shared test utilities: polynomial builders and independent oracles.

The oracles here deliberately avoid the library's Groebner machinery and its
packed monomials: monomials are exponent tuples, and ranks and syzygies are
found by dense linear algebra over Fraction on graded or degree-truncated
coefficient spaces, or, for the height of an ideal, by the moments of a
Betti table.  Two oracles keep a definition the library now certifies more
cheaply: injective_by_minors expands the maximal minors with the library's
PolyMatrix, and schreyer_degree_bound_by_triples reads the leads of a
library GroebnerBasis.  minimal_row, minimal_resolution, greedy_prune,
benchmark_corpus and the hypothesis strategies are conveniences, not oracles.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

from hypothesis import strategies

from mubasis.arith import (
    VARS_ST,
    VARS_STU,
    Packing,
    Poly,
    monomials_of_degree,
)
from mubasis.grobner import buchberger, free_resolution, minimal_generators
from mubasis.pipeline import _vector_degree


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


def plain_reduce_int(work, basis, leads, want_quotients):
    """grobner._reduce_int by a plain scan: an oracle for its cutoff.

    Every term of work, down to the last, is tested against every lead on
    exponent tuples, products are packed from tuples, and rem and the
    quotients are rescaled at each step rather than once at the end.
    Returns (K, rem, quots) in the library's packed keys."""
    pk = Packing(len(basis[0].vars)) if basis else None

    def divides(lead, t):
        return pk.position(lead) == pk.position(t) and mono_divides(pk.unpack(lead),
                                                                    pk.unpack(t))

    work, rem, K = dict(work), {}, 1
    quots = [dict() for _ in basis] if want_quotients else None
    while work:
        t = max(work)
        hit = next((i for i, (lead, _) in enumerate(leads) if divides(lead, t)), None)
        if hit is None:
            rem[t] = work.pop(t)
            continue
        lead, lc = leads[hit]
        g = gcd(work[t], lc)
        mult, f = lc // g, work[t] // g
        K *= mult
        for terms in (work, rem, *(quots or ())):
            for key in terms:
                terms[key] *= mult
        q = tuple(a - b for a, b in zip(pk.unpack(t), pk.unpack(lead)))
        if want_quotients:
            quots[hit][pk.pack(q)] = f
        for b, bc in basis[hit].terms.items():
            term = pk.pack(mono_mul(pk.unpack(b), q), pk.position(b))
            val = work.get(term, 0) - bc * f
            if val:
                work[term] = val
            else:
                del work[term]
    return K, rem, quots


def injective_by_minors(m):
    """True when some maximal minor of m is a nonzero polynomial, every
    minor expanded symbolically: an oracle for grobner._is_injective."""
    return m.rows >= m.cols and any(not d.is_zero() for _, d in m.maximal_minors())


def schreyer_degree_bound_by_triples(basis, degrees, row_shifts):
    """grobner._schreyer_degree_bound by a plain triple loop on exponent
    tuples, each lcm taken afresh: an oracle for its lcm table.  A
    same-position pair of leads counts unless a third lead of that position
    divides their lcm L with both of its own lcms with the pair unequal to L."""
    pk = Packing(len(basis.vars))
    leads = [(pk.position(k), pk.unpack(k)) for k, _ in basis.lead_terms]
    bound = max(degrees)
    for a, (pos, ma) in enumerate(leads):
        for pos_b, mb in leads[a + 1:]:
            if pos_b != pos:
                continue
            u = mono_lcm(ma, mb)
            if not any(pos_c == pos and mono_divides(mc, u) and mono_lcm(ma, mc) != u
                       and mono_lcm(mb, mc) != u for pos_c, mc in leads):
                bound = max(bound, sum(u) + row_shifts[pos])
    return bound


def benchmark_corpus():
    """perfbench/corpus.py, loaded by path under a private module name."""
    name = "_benchmark_corpus"
    if name not in sys.modules:
        path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
        spec = importlib.util.spec_from_file_location(name, path)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[name]


def substitute(p, mapping):
    """p with mapping's polynomials (of p's ring) put in for its variables,
    expanded term by term from the exponent tuples."""
    values = [mapping.get(v, Poly.variable(p.vars, v)) for v in p.vars]
    out = Poly.zero(p.vars)
    for mono, c in p.terms.items():
        term = Poly.const(p.vars, c)
        for value, e in zip(values, mono):
            term = term * value**e
        out = out + term
    return out


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
            prod = g * Poly(g.vars, {m: 1})
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


def random_unimodular_matrix(rng: random.Random, m: int, n: int, max_entry_deg=3, ops=None):
    """Random unimodular m x n matrix (m > n) from ``ops`` (by default 2 to
    4) row operations on [I; 0]."""
    from mubasis.arith import PolyMatrix

    while True:
        one = Poly.const(VARS_ST, 1)
        zero = Poly.zero(VARS_ST)
        ent = [[one if i == j else zero for j in range(n)] for i in range(m)]
        for _ in range(ops or rng.randint(2, 4)):
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
                prod = comp * Poly(comp.vars, {m: 1})
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


def greedy_prune(gens):
    """Drop each generator, highest degree first with ties by index, that
    the others generate, while at least three others remain; each drop is a
    Groebner membership test.  The kept generators, in index order."""
    kept = list(range(len(gens)))
    for i in sorted(kept, key=lambda i: -_vector_degree(gens[i])):
        if len(kept) == 3:
            break
        others = [j for j in kept if j != i]
        if buchberger([gens[j] for j in others]).contains(gens[i]):
            kept = others
    return [gens[j] for j in kept]


def artinian_from_betti(table, nvars: int) -> bool:
    """True when R/I has Krull dimension 0, read off the Betti table of any
    graded free resolution of I, minimal or not.  The Hilbert series of R/I
    is K(t)/(1-t)^nvars with K(t) = 1 - sum_ij (-1)^i beta_ij t^j, a
    polynomial exactly when the moments sum_j K_j j^k vanish for k < nvars;
    K = 0 is the unit ideal."""
    K = Counter({0: 1})
    for (i, j), n in table.entries.items():
        K[j] += (-1) ** (i + 1) * n
    return any(K.values()) and not any(
        sum(c * j**k for j, c in K.items()) for k in range(nvars))


COEFF = strategies.sampled_from([0, 0, 0, 1, -1, 2, -3])


def draw_form(draw, deg):
    """A form of degree deg in s, t, u with coefficients drawn from COEFF;
    zero for a negative degree."""
    if deg < 0:
        return Poly.zero(VARS_STU)
    terms = {m: draw(COEFF) for m in monomials_of_degree(3, deg)}
    return Poly(VARS_STU, terms)


@strategies.composite
def rows_with_redundant_component(draw):
    """Three random forms of degree 1 or 2 and, at a drawn position, a fourth
    that is zero or a Q-combination of forms of its degree."""
    degs = draw(strategies.lists(strategies.integers(1, 2), min_size=3, max_size=3))
    base = [draw_form(draw, k) for k in degs]
    if draw(strategies.booleans()):
        extra = Poly.zero(VARS_STU)
    else:
        i = draw(strategies.integers(0, 2))
        j = draw(strategies.sampled_from([j for j in range(3) if degs[j] == degs[i]]))
        extra = draw(COEFF) * base[i] + draw(COEFF) * base[j]
    row = list(base)
    row.insert(draw(strategies.integers(0, 3)), extra)
    return row
