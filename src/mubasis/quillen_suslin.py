"""Unimodularity testing and certified unimodular completion over Q[s,t].

complete_columns finds, for a unimodular m x n matrix F (m > n), a square
unimodular M with M F = [I_n; 0], and returns it with its exact inverse as a
certificate that is re-verified before being handed out.

The strategy is layered.  A constant maximal minor gives M at once;
otherwise each row of F^T is made primitive and reduced (Bezout for a last
pair) until a constant pivot appears.  When reduction stalls, the general
route runs: make an entry monic in t by a linear change of variables,
trivialize the row locally (a constructive Horrocks loop whose "units" are
tracked by gcds against a squarefree modulus, splitting the modulus
instead of factoring), patch the local solutions into a polynomial matrix
along a Bezout partition of t, and finish over the principal ideal domain
Q[s].  No step is randomized.

Every step is an elementary operation with a known inverse, so M^-1 is
built alongside M rather than recovered from an adjugate: column operations
on M are mirrored by the inverse row operations on M^-1, each block factor
comes with its explicit inverse, and each patch factor E(b') E(b)^-1 is
inverted as E(b) E^-1(b').  The certificate is checked by multiplication
alone: M F = [I_n; 0] and M M^-1 = I (see CompletionCertificate).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .arith import (
    NEG_INF,
    VARS_ST,
    Poly,
    PolyMatrix,
    _as_univar,
    _uni_coeffs,
    _uni_from_coeffs,
    _uni_xgcd,
    exact_div,
    gcd_many,
    primitive_scale,
)
from .errors import CompletionError, InternalError
from .grobner import (
    buchberger,
    lift_coefficients,
    make_lifter,
    reduce_with_certificate,
)

# ---------------------------------------------------------------------------
# Degree bound
# ---------------------------------------------------------------------------


def degree_bound_for_D(D: int) -> int:
    """2D(1+2D)(1+D^4)(1+D)^4 for D >= 1, exactly."""
    D = int(D)
    if D < 1:
        raise ValueError("D must be at least 1")
    return 2 * D * (1 + 2 * D) * (1 + D**4) * (1 + D) ** 4


def qs_degree_bound(n_or_m: int, deg_f: int) -> int:
    """Published degree bound for completing a unimodular matrix over two
    variables, with D = n_or_m * (1 + deg_f)."""
    if n_or_m < 1 or deg_f < 0:
        raise ValueError("need n_or_m >= 1 and deg_f >= 0")
    return degree_bound_for_D(n_or_m * (1 + deg_f))


# ---------------------------------------------------------------------------
# Unimodularity and left inverses
# ---------------------------------------------------------------------------


def _maximal_minors(f: PolyMatrix) -> list[tuple[tuple[int, ...], Poly]]:
    """(rows, minor) for every nonzero maximal minor of f (m x n, m >= n),
    with the row subsets in lexicographic order."""
    m, n = f.rows, f.cols
    if m < n:
        raise ValueError("expected at least as many rows as columns")
    out = []
    for rows in combinations(range(m), n):
        d = f.submatrix(rows, range(n)).det()
        if not d.is_zero():
            out.append((rows, d))
    return out


def _minors_generate_unit_ideal(minors) -> bool:
    """True when the given nonzero minors generate (1); a constant minor
    settles this without a Groebner basis."""
    if any(d.is_constant() for _, d in minors):
        return True
    return bool(minors) and buchberger([d for _, d in minors]).contains_constant()


def is_unimodular(f: PolyMatrix) -> bool:
    """True when the ideal of maximal minors of f (m x n, m >= n) is (1)."""
    return _minors_generate_unit_ideal(_maximal_minors(f))


def left_inverse(f: PolyMatrix) -> PolyMatrix:
    """An n x m matrix H with H f = I_n, for unimodular f."""
    if not is_unimodular(f):
        raise ValueError("matrix is not unimodular")
    m, n = f.rows, f.cols
    rows = [tuple(f.row(i)) for i in range(m)]
    lifter = make_lifter(rows)
    zero = Poly.zero(f.vars)
    one = Poly.const(f.vars, 1)
    h_rows = []
    for i in range(n):
        target = tuple(one if j == i else zero for j in range(n))
        coeffs = lifter(target)
        if coeffs is None:
            raise InternalError("unimodular matrix rows failed to generate a unit vector")
        h_rows.append(coeffs)
    h = PolyMatrix(h_rows)
    if h * f != PolyMatrix.identity(n, f.vars):
        raise InternalError("left inverse verification failed")
    return h


# ---------------------------------------------------------------------------
# Univariate helpers over Q[s] (elements are VARS_ST polys free of the
# other variable)
# ---------------------------------------------------------------------------


def _uses_var(p: Poly, vi: int) -> bool:
    return any(m[vi] for m in p.num)


def _squarefree_part(g: Poly, vi: int) -> Poly:
    """g / gcd(g, g'), monic; g univariate in x_vi."""
    cs = _uni_coeffs(g, vi)
    if len(cs) <= 1:
        return Poly.const(g.vars, 1)
    deriv = _uni_from_coeffs([c * k for k, c in enumerate(cs)][1:], vi, g.vars)
    common = gcd_many([g, deriv])
    out = exact_div(g, common)
    return out.monic()


# ---------------------------------------------------------------------------
# Fractions: elements of Q(s)[t]
# ---------------------------------------------------------------------------

_S = 0  # variable indices into VARS_ST
_T = 1
_ONE = Poly.const(VARS_ST, 1)


class _Frac:
    """num/den in Q(s)[t]: num in Q[s,t]; den monic in Q[s] and coprime to
    the t-coefficients of num.  All arithmetic is Poly arithmetic, and each
    result is normalized once, by one gcd when den is not constant."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = _ONE):
        if den.is_zero():
            raise ZeroDivisionError("fraction with zero denominator")
        if num.is_zero():
            den = _ONE
        elif not den.is_constant():
            g = gcd_many([den, *_as_univar(num, _T).values()])
            if not g.is_constant():
                num, den = exact_div(num, g), exact_div(den, g)
        lc = den.leading_coefficient()
        if lc != 1:
            num, den = num * (1 / lc), den * (1 / lc)
        self.num, self.den = num, den

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num == self.den

    @property
    def deg(self):
        """Degree in t; -1 for zero."""
        return max((b for _, b in self.num.num), default=-1)

    def coeff(self, e: int) -> "_Frac":
        return _Frac(_as_univar(self.num, _T).get(e, Poly.zero(VARS_ST)), self.den)

    def __add__(self, o):
        return _Frac(self.num * o.den + o.num * self.den, self.den * o.den)

    def __sub__(self, o):
        return _Frac(self.num * o.den - o.num * self.den, self.den * o.den)

    def __mul__(self, o):
        return _Frac(self.num * o.num, self.den * o.den)

    def __neg__(self):
        return _Frac(-self.num, self.den)

    def inv(self):
        """1/self for self free of t."""
        if _uses_var(self.num, _T):
            raise ValueError("only an element of Q(s) is inverted")
        return _Frac(self.den, self.num)

    def shift(self, k: int):
        return _Frac(self.num.term_mul((0, k), 1), self.den)

    def divmod_monic(self, g: "_Frac"):
        """(q, r) with self = q g + r, deg r < deg g; g has lead coeff 1."""
        q = _Frac(Poly.zero(VARS_ST))
        r = self
        while not r.is_zero() and r.deg >= g.deg:
            term = r.coeff(r.deg).shift(r.deg - g.deg)
            q = q + term
            r = r - term * g
        return q, r


def _at_t(a: PolyMatrix, b: Poly) -> PolyMatrix:
    return a.map_entries(lambda p: p.substitute({"t": b}))


def _exact_quotient(a: PolyMatrix, d: Poly) -> PolyMatrix | None:
    """a / d entrywise, or None when d does not divide some entry."""
    rows = [[exact_div(p, d) for p in row] for row in a.entries]
    return None if any(None in row for row in rows) else PolyMatrix(rows)


def _over_common_den(a) -> tuple[PolyMatrix, Poly]:
    """(N, d) with a = N / d for a matrix a of fractions, d their lcm."""
    d = _ONE
    for x in (x for row in a for x in row):
        if exact_div(d, x.den) is None:
            d = d * exact_div(x.den, gcd_many([d, x.den]))
    return PolyMatrix([[x.num * exact_div(d, x.den) for x in row] for row in a]), d


# ---------------------------------------------------------------------------
# Local Horrocks loop
# ---------------------------------------------------------------------------


def _horrocks_local(row_polys: list[Poly], gamma: Poly | None):
    """Trivialize a unimodular row over a chart of Spec Q[s].

    row_polys: length >= 3, entry 0 monic in t with constant lead coefficient.
    gamma: squarefree monic modulus describing the chart V(gamma), or None
    for the dense chart where any nonzero element counts as a unit.

    Returns (E, E_inv, denom, spawned, gamma_final): E, with row * E = e1,
    and its inverse as lists of rows of _Frac entries whose denominators are
    units on the chart, the accumulated denominator, split-off moduli that
    still need their own charts, and the possibly shrunken modulus.
    """
    m = len(row_polys)
    if m < 3:
        raise InternalError("local trivialization needs at least three entries")
    h = [_Frac(p) for p in row_polys]
    E = [[_Frac(_ONE if i == j else Poly.zero(VARS_ST)) for j in range(m)] for i in range(m)]
    Einv = [row[:] for row in E]
    denom = Poly.const(VARS_ST, 1)
    spawned: list[Poly] = []

    # each column operation on E is undone by the inverse row operation,
    # applied on the left of Einv
    def colop(i, j, factor: _Frac):
        h[i] = h[i] + factor * h[j]
        for r in range(m):
            E[r][i] = E[r][i] + factor * E[r][j]
        Einv[j] = [x - factor * y for x, y in zip(Einv[j], Einv[i])]

    def colscale(i, c: _Frac):
        h[i] = h[i] * c
        for r in range(m):
            E[r][i] = E[r][i] * c
        cinv = c.inv()
        Einv[i] = [x * cinv for x in Einv[i]]

    def colswap(i, j):
        h[i], h[j] = h[j], h[i]
        for r in range(m):
            E[r][i], E[r][j] = E[r][j], E[r][i]
        Einv[i], Einv[j] = Einv[j], Einv[i]

    def residue_class(x: _Frac) -> str:
        """'unit', 'zero', or 'split' relative to the current chart."""
        nonlocal gamma
        if x.is_zero():
            return "zero"
        if gamma is None:
            return "unit"
        g = gcd_many([x.num, gamma])
        if g.is_constant():
            return "unit"
        if exact_div(gamma, g).is_constant():
            return "zero"
        spawned.append(g)
        gamma = exact_div(gamma, g).monic()
        return "unit"

    guard = 0
    while True:
        guard += 1
        if guard > 200:
            raise InternalError("local trivialization did not terminate")
        lc = h[0].coeff(h[0].deg)
        if residue_class(lc) != "unit":
            raise InternalError("pivot column lost its unit lead coefficient")
        if not lc.is_one():
            colscale(0, lc.inv())
            denom = (denom * lc.num).monic()
        D = h[0].deg
        if D == 0:
            for i in range(1, m):
                if not h[i].is_zero():
                    colop(i, 0, -h[i])
            break
        for i in range(1, m):
            if h[i].is_zero() or h[i].deg < D:
                continue
            q, r = h[i].divmod_monic(h[0])
            colop(i, 0, -q)
        # pick a coefficient that is a unit on (a shrunken piece of) the chart
        pick = None
        for i in range(1, m):
            if h[i].is_zero():
                continue
            for e in range(h[i].deg, -1, -1):
                c = h[i].coeff(e)
                if c.is_zero():
                    continue
                if residue_class(c) == "unit":
                    pick = (i, e)
                    break
            if pick:
                break
        if pick is None:
            raise CompletionError("completion failed (row is not unimodular on a chart)")
        i0, ebar = pick
        shift = D - 1 - ebar
        w = h[i0].shift(shift)
        qw, w_red = w.divmod_monic(h[0])
        lead = w_red.coeff(D - 1)
        if residue_class(lead) != "unit":
            raise InternalError("reduced pivot candidate lost its unit coefficient")
        target = next(j for j in range(1, m) if j != i0)
        limit = 3 if gamma is None else max(mo[0] for mo in gamma.num) + 2
        chosen = None
        for cval in range(1, limit + 2):
            cand = h[target].coeff(D - 1) + _Frac(Poly.const(VARS_ST, cval)) * lead
            if cand.is_zero():
                continue
            if gamma is None or gcd_many([cand.num, gamma]).is_constant():
                chosen = cval
                break
        if chosen is None:
            raise InternalError("no scalar kept the new lead coefficient invertible")
        cpoly = _Frac(Poly.const(VARS_ST, chosen))
        colop(target, i0, cpoly.shift(shift))
        if not qw.is_zero():
            colop(target, 0, -(qw * cpoly))
        if h[target].deg != D - 1:
            raise InternalError("pivot construction produced the wrong degree")
        colswap(0, target)
    return E, Einv, denom, spawned, gamma


def _eliminate_t_monic(row_polys: list[Poly]) -> tuple[PolyMatrix, PolyMatrix]:
    """For a unimodular row whose first entry is monic in t (constant lead
    coefficient), build a polynomial M with row * M = row(t := 0), together
    with M^-1."""
    m = len(row_polys)
    charts = []  # (denominator, E, E^-1) with row(t) * E(t) = e1 over Q[s]_den[t]
    worklist: list[Poly | None] = [None]
    seen_guard = 0
    while worklist:
        seen_guard += 1
        if seen_guard > 60:
            raise CompletionError("completion failed (chart splitting did not stop)")
        gamma = worklist.pop()
        if gamma is not None and gamma.is_constant():
            continue
        E, Einv, denom, spawned, _ = _horrocks_local(row_polys, gamma)
        worklist.extend(spawned)
        if gamma is None and not denom.is_constant():
            # the dense chart misses V(denom); cover it with its own charts
            worklist.append(_squarefree_part(denom, _S))
        charts.append((denom, E, Einv))
    dens = [c for c, _, _ in charts]
    if not gcd_many(dens).is_constant():
        raise CompletionError("completion failed (charts do not cover the line)")

    t_var = Poly.variable(VARS_ST, "t")
    mats = [(den, _over_common_den(E), _over_common_den(Einv)) for den, E, Einv in charts]
    for e in (1, 2, 4, 8, 16, 32):
        weights = _bezout_powers(dens, e)
        if weights is None:
            continue
        factors = []
        b_prev = Poly.zero(VARS_ST)
        for (den, (emat, d_e), (einv, d_inv)), w in zip(mats, weights):
            # row(x) E(x) = e1 for every substitution x, so the patch
            # E(b_next) E(b_prev)^-1 carries row(b_next) to row(b_prev);
            # its inverse is E(b_prev) E^-1(b_next); over the common
            # denominators d_e and d_inv, each is a product of numerators
            # divided by d_e d_inv, and a failed division means that a
            # denominator survives
            b_next = b_prev + t_var * w * den**e
            d = d_e * d_inv
            patch = _exact_quotient(_at_t(emat, b_next) * _at_t(einv, b_prev), d)
            patch_inv = _exact_quotient(_at_t(emat, b_prev) * _at_t(einv, b_next), d)
            if patch is None or patch_inv is None:
                break
            factors.append((patch, patch_inv))
            b_prev = b_next
        else:
            total, total_inv = factors[-1]
            for f, f_inv in reversed(factors[:-1]):
                total = total * f
                total_inv = f_inv * total_inv
            expected = [p.set_var("t", 0) for p in row_polys]
            got = [Poly.zero(VARS_ST)] * m
            for j in range(m):
                acc = Poly.zero(VARS_ST)
                for i in range(m):
                    acc = acc + row_polys[i] * total[i, j]
                got[j] = acc
            if got == expected:
                return total, total_inv
            raise InternalError("patched elimination matrix failed verification")
    raise CompletionError("completion failed (no denominator exponent cleared the patch)")


def _bezout_powers(dens: list[Poly], e: int):
    """Weights w_k with sum w_k den_k^e = 1, or None when gcd is not 1."""
    powers = [d**e for d in dens]
    g = powers[0]
    coeffs = [Poly.const(VARS_ST, 1)]
    for nxt in powers[1:]:
        gg, u, v = _uni_xgcd(g, nxt, _S)
        coeffs = [c * u for c in coeffs] + [v]
        g = gg
    if not g.is_constant() or g.is_zero():
        return None
    inv = Fraction(1) / g.constant_value()
    return [c * inv for c in coeffs]


# ---------------------------------------------------------------------------
# Row completion
# ---------------------------------------------------------------------------


class _RowCompleter:
    """Builds E with row * E = e1 for a unimodular row over Q[s,t], and
    E^-1 alongside it."""

    def __init__(self, row):
        self.vars = VARS_ST
        self.work = [p for p in row]
        self.m = len(row)
        self.E = PolyMatrix.identity(self.m, VARS_ST).entries
        self.Einv = PolyMatrix.identity(self.m, VARS_ST).entries

    # column operations applied simultaneously to the working row and E;
    # each is undone by the inverse row operation on the left of Einv

    def colop(self, i, j, factor: Poly):
        if factor.is_zero():
            return
        self.work[i] = self.work[i] + factor * self.work[j]
        for r in range(self.m):
            self.E[r][i] = self.E[r][i] + factor * self.E[r][j]
        self.Einv[j] = [x - factor * y for x, y in zip(self.Einv[j], self.Einv[i])]

    def colscale(self, i, c: Fraction):
        self.work[i] = self.work[i] * c
        for r in range(self.m):
            self.E[r][i] = self.E[r][i] * c
        cinv = Fraction(1) / c
        self.Einv[i] = [x * cinv for x in self.Einv[i]]

    def colswap(self, i, j):
        if i == j:
            return
        self.work[i], self.work[j] = self.work[j], self.work[i]
        for r in range(self.m):
            self.E[r][i], self.E[r][j] = self.E[r][j], self.E[r][i]
        self.Einv[i], self.Einv[j] = self.Einv[j], self.Einv[i]

    def apply_matrix(self, b: PolyMatrix, b_inv: PolyMatrix):
        """work <- work * b, E <- E * b, Einv <- b_inv * Einv."""
        self.work = [sum((self.work[k] * b[k, j] for k in range(self.m)),
                         Poly.zero(self.vars)) for j in range(self.m)]
        self.E = (PolyMatrix(self.E) * b).entries
        self.Einv = (b_inv * PolyMatrix(self.Einv)).entries

    def _block(self, a: int, b: int, block) -> PolyMatrix:
        """The identity with the 2 x 2 block ((aa, ab), (ba, bb)) on rows and
        columns a, b."""
        out = PolyMatrix.identity(self.m, self.vars)
        (out.entries[a][a], out.entries[a][b]), (out.entries[b][a], out.entries[b][b]) = block
        return out

    def constant_index(self):
        for j, p in enumerate(self.work):
            if not p.is_zero() and p.is_constant():
                return j
        return None

    def finish_with_pivot(self, j):
        c = self.work[j].constant_value()
        for i in range(self.m):
            if i != j and not self.work[i].is_zero():
                self.colop(i, j, self.work[i] * (Fraction(-1) / c))
        self.colscale(j, Fraction(1) / c)
        self.colswap(0, j)

    def run(self) -> tuple[PolyMatrix, PolyMatrix]:
        if self.m == 1:
            p = self.work[0]
            if p.is_zero() or not p.is_constant():
                raise CompletionError("completion failed (length-one row is not a unit)")
            self.colscale(0, Fraction(1) / p.constant_value())
            return PolyMatrix(self.E), PolyMatrix(self.Einv)
        self._normalize_columns()
        self._reduction_rounds()
        j = self.constant_index()
        if j is None:
            self._general_phase()
            j = self.constant_index()
            if j is None:
                raise CompletionError("completion failed")
        self.finish_with_pivot(j)
        if self.work != [Poly.const(self.vars, 1)] + [Poly.zero(self.vars)] * (self.m - 1):
            raise InternalError("row completion did not reach a unit vector")
        return PolyMatrix(self.E), PolyMatrix(self.Einv)

    # heuristic layer ---------------------------------------------------

    def _normalize_columns(self):
        for j, p in enumerate(self.work):
            if p.is_zero():
                continue
            scale = primitive_scale([p])
            if scale != 1:
                self.colscale(j, scale)

    def _reduction_rounds(self):
        for _ in range(40):
            if self.constant_index() is not None:
                return
            nz = [i for i, p in enumerate(self.work) if not p.is_zero()]
            if len(nz) <= 1:
                return  # single non-constant entry cannot be unimodular
            if len(nz) == 2:
                if self._bezout_pair(*nz):
                    continue
                return
            if not self._mutual_reduction_pass(nz):
                return

    def _bezout_pair(self, a, b) -> bool:
        one = Poly.const(self.vars, 1)
        wa, wb = self.work[a], self.work[b]
        coeffs = lift_coefficients(one, [wa, wb])
        if coeffs is None:
            return False
        u, v = coeffs
        # det [[u, -wb], [v, wa]] = u wa + v wb = 1
        self.apply_matrix(self._block(a, b, ((u, -wb), (v, wa))),
                          self._block(a, b, ((wa, wb), (-v, u))))
        return True

    def _mutual_reduction_pass(self, nz) -> bool:
        changed = False
        for i in nz:
            others = [j for j in nz if j != i and not self.work[j].is_zero()]
            if not others or self.work[i].is_zero():
                continue
            rem, coeffs = reduce_with_certificate(self.work[i],
                                                  [self.work[j] for j in others])
            if rem == self.work[i]:
                continue
            for j, c in zip(others, coeffs):
                if not c.is_zero():
                    self.colop(i, j, -c)
            if self.work[i] != rem:
                raise InternalError("mutual reduction bookkeeping drifted")
            changed = True
        return changed

    # general layer -----------------------------------------------------

    def _general_phase(self):
        nz = [i for i, p in enumerate(self.work) if not p.is_zero()]
        if len(nz) == 2:
            if not self._bezout_pair(*nz):
                raise CompletionError("completion failed (pair is not unimodular)")
            return
        if len(nz) < 2:
            raise CompletionError("completion failed (row is not unimodular)")
        uses_s = any(_uses_var(p, _S) for p in self.work)
        uses_t = any(_uses_var(p, _T) for p in self.work)
        if not (uses_s and uses_t):
            vi = _S if uses_s else _T
            self._pid_phase(vi)
            return
        lam = self._monicize()
        self.apply_matrix(*_eliminate_t_monic(self.work))
        self._pid_phase(_S)
        self._unsubstitute(lam)

    def _monicize(self) -> Fraction:
        """Apply s -> s + lam*t so some entry gets a constant t-lead coefficient,
        and move that entry to position 0.  Returns lam."""
        s = Poly.variable(self.vars, "s")
        t = Poly.variable(self.vars, "t")
        pool = [0]
        for k in range(1, 40):
            pool.extend([k, -k])
        for lam in pool:
            for idx, p in enumerate(self.work):
                if p.is_zero() or p.is_constant():
                    continue
                d = int(p.degree)
                top = Poly._reduced(self.vars, {m: c for m, c in p.num.items() if sum(m) == d},
                                    p.den)
                val = top.set_var("s", lam).set_var("t", 1)
                if not val.is_zero():
                    if lam:
                        self._substitute({"s": s + t * Fraction(lam)})
                    self.colswap(0, idx)
                    return Fraction(lam)
        raise CompletionError("completion failed (no change of variables made a monic entry)")

    def _unsubstitute(self, lam: Fraction):
        if lam == 0:
            return
        s = Poly.variable(self.vars, "s")
        t = Poly.variable(self.vars, "t")
        self._substitute({"s": s - t * lam})

    def _substitute(self, sub):
        """Apply a ring automorphism to the working row, E and Einv."""
        self.work = [w.substitute(sub) for w in self.work]
        self.E = [[x.substitute(sub) for x in row] for row in self.E]
        self.Einv = [[x.substitute(sub) for x in row] for row in self.Einv]

    def _pid_phase(self, vi: int):
        """Completion of a univariate unimodular row by a Bezout chain."""
        nz = [i for i, p in enumerate(self.work) if not p.is_zero()]
        if not nz:
            raise CompletionError("completion failed (zero row)")
        lead = nz[0]
        if lead != 0:
            self.colswap(0, lead)
        for i in range(1, self.m):
            if self.work[i].is_zero():
                continue
            a, b = self.work[0], self.work[i]
            g, u, v = _uni_xgcd(a, b, vi)
            qa = exact_div(a, g)
            qb = exact_div(b, g)
            # det [[u, -qb], [v, qa]] = (u a + v b) / g = 1
            self.apply_matrix(self._block(0, i, ((u, -qb), (v, qa))),
                              self._block(0, i, ((qa, qb), (-v, u))))
        if not self.work[0].is_constant() or self.work[0].is_zero():
            raise CompletionError("completion failed (univariate row has a common factor)")


def _complete_rows(f: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix]:
    """(M, M^-1) with M (cols x cols, unimodular) and f M = [I_n, 0] for
    row-unimodular f."""
    n, m = f.rows, f.cols
    if n > m:
        raise ValueError("expected at least as many columns as rows")
    e1, e1_inv = _RowCompleter(f.row(0)).run()
    if n == 1:
        return e1, e1_inv
    fe = f * e1
    # rescale the untouched columns to primitive integer content; the scales
    # are units, so e1 stays unimodular and row 0 of fe stays (1, 0, ..., 0)
    for j in range(1, m):
        scale = primitive_scale(fe[i, j] for i in range(n))
        if scale != 1:
            for i in range(n):
                fe.entries[i][j] = fe.entries[i][j] * scale
            for i in range(m):
                e1.entries[i][j] = e1.entries[i][j] * scale
            e1_inv.entries[j] = [x * (1 / scale) for x in e1_inv.entries[j]]
    sub = fe.submatrix(range(1, n), range(1, m))
    mp, mp_inv = _complete_rows(sub)
    zero = Poly.zero(f.vars)
    one = Poly.const(f.vars, 1)

    def diag(block):
        return PolyMatrix([[one if (i == 0 and j == 0) else
                            (block[i - 1, j - 1] if i > 0 and j > 0 else zero)
                            for j in range(m)] for i in range(m)])

    # Y carries the row-clearing matrix L = [[1,0],[-c,I]] in its leading
    # block; its inverse is [[1,0],[c,I]]
    y = PolyMatrix.identity(m, f.vars)
    y_inv = PolyMatrix.identity(m, f.vars)
    for i in range(1, n):
        y.entries[i][0] = -fe[i, 0]
        y_inv.entries[i][0] = fe[i, 0]
    total = e1 * diag(mp) * y
    check = f * total
    expected = PolyMatrix([[one if i == j else zero for j in range(m)] for i in range(n)])
    if check != expected:
        raise InternalError("row completion product check failed")
    return total, y_inv * diag(mp_inv) * e1_inv


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


@dataclass
class CompletionCertificate:
    """Verified completion data: M unimodular, M * f = [I_n; 0].

    M_inv is built alongside M, step by step, and M M_inv = I is checked
    exactly.  That alone proves M_inv M = I: over a commutative ring it gives
    det M det M_inv = 1, so M is invertible and M_inv is its inverse.  It
    also makes det M a nonzero constant, so det is read off the
    constant-term matrix M(0, 0).
    """

    M: PolyMatrix
    M_inv: PolyMatrix
    det: Fraction
    deg_M: int
    bound: int
    within_bound: bool


def _target_block(n: int, m: int, vars) -> PolyMatrix:
    one, zero = Poly.const(vars, 1), Poly.zero(vars)
    return PolyMatrix([[one if i == j else zero for j in range(n)] for i in range(m)])


def _leverrier_inverse(a: PolyMatrix) -> PolyMatrix:
    """Inverse of a square matrix whose determinant is a nonzero constant.

    Faddeev-LeVerrier: with M_1 = I, c_(n-k) = -tr(A M_k) / k and
    M_(k+1) = A M_k + c_(n-k) I, Cayley-Hamilton gives A M_n = -c_0 I, so
    A^-1 = -M_n / c_0.  Only n products and divisions by integers are
    needed, no cofactors.
    """
    n = a.rows
    mk = PolyMatrix.identity(n, a.vars)
    for k in range(1, n + 1):
        amk = a * mk
        c = sum((amk[i, i] for i in range(n)), Poly.zero(a.vars)) * Fraction(-1, k)
        if k < n:
            for i in range(n):
                amk.entries[i][i] = amk.entries[i][i] + c
            mk = amk
    if c.is_zero() or not c.is_constant():
        raise ValueError("not invertible over the polynomial ring")
    scale = Fraction(-1) / c.constant_value()
    return mk.map_entries(lambda p: p * scale)


def _constant_minor_completion(f: PolyMatrix, rows) -> tuple[PolyMatrix, PolyMatrix]:
    """Fast path for a maximal minor of f on ``rows`` that is a nonzero
    constant: N = [f | unit columns on the complementary rows] is invertible,
    M = N^-1 is a completion and M^-1 = N.

    Only the block A = f[rows, :] is inverted.  The columns of M indexed by
    ``rows`` are ([I_n; 0] - sum_i e_slot(i) f[i, :]) A^-1 over the
    complementary rows i, and column i of M is e_slot(i).
    """
    m, n = f.rows, f.cols
    zero = Poly.zero(f.vars)
    one = Poly.const(f.vars, 1)
    complement = [i for i in range(m) if i not in rows]
    # place each unit column at its own index when that slot is free,
    # so e.g. completing a lone unit column yields a plain transposition
    slots = list(range(n, m))
    placement = {}
    for i in complement:
        if i in slots:
            placement[i] = i
            slots.remove(i)
    for i in complement:
        if i not in placement:
            placement[i] = slots.pop(0)
    ncols = [f.column(j) for j in range(n)] + [None] * (m - n)
    for i, slot in placement.items():
        ncols[slot] = [one if r == i else zero for r in range(m)]
    m_inv = PolyMatrix.from_columns(ncols)
    # every slot is a row below n, where [I_n; 0] vanishes
    lead = _target_block(n, m, f.vars)
    for i, slot in placement.items():
        lead.entries[slot] = [-x for x in f.row(i)]
    c = lead * _leverrier_inverse(f.submatrix(rows, range(n)))
    big = PolyMatrix.zero(m, m, f.vars)
    for k, r in enumerate(rows):
        for i in range(m):
            big.entries[i][r] = c[i, k]
    for i, slot in placement.items():
        big.entries[slot][i] = one
    return big, m_inv


def complete_columns(f: PolyMatrix) -> CompletionCertificate:
    """Complete a unimodular m x n matrix (m > n) to M with M f = [I_n; 0].

    A constant maximal minor gives M directly; otherwise each row of f^T is
    reduced to a constant pivot, or completed by the general route when
    reduction stalls.  M f = [I_n; 0] and
    M M^-1 = I are checked exactly before returning; failure raises
    CompletionError rather than ever producing an unverified answer.
    """
    m, n = f.rows, f.cols
    if m <= n:
        raise ValueError("expected strictly more rows than columns")
    minors = _maximal_minors(f)
    if not _minors_generate_unit_ideal(minors):
        raise ValueError("matrix is not unimodular")
    const_rows = next((rows for rows, d in minors if d.is_constant()), None)
    if const_rows is not None:
        big, inv = _constant_minor_completion(f, const_rows)
    else:
        mt, mt_inv = _complete_rows(f.transpose())
        big, inv = mt.transpose(), mt_inv.transpose()
    if big * f != _target_block(n, m, f.vars):
        raise CompletionError("completion failed (certificate product check)")
    ident = PolyMatrix.identity(m, f.vars)
    if big * inv != ident:
        raise InternalError("completion inverse verification failed")
    # M M^-1 = I makes det M a nonzero constant, so det M = det M(0, 0)
    det = big.map_entries(lambda p: Poly.const(f.vars, p.constant_value())).det()
    deg_f = 0 if f.degree == NEG_INF else int(f.degree)
    bound = qs_degree_bound(n, deg_f)
    deg_m = 0 if big.degree == NEG_INF else int(big.degree)
    return CompletionCertificate(M=big, M_inv=inv, det=det.constant_value(), deg_M=deg_m,
                                 bound=bound, within_bound=deg_m <= bound)


def variable_elimination_step(f: PolyMatrix, var: str) -> PolyMatrix:
    """For row-unimodular f (n x m, n <= m): unimodular M with f M = f|_{var:=0}."""
    if var not in f.vars:
        raise ValueError(f"unknown variable {var!r}")
    if not is_unimodular(f.transpose()):
        raise ValueError("matrix is not unimodular")
    n, m = f.rows, f.cols
    specialized = f.map_entries(lambda p: p.set_var(var, 0))
    if specialized == f:
        return PolyMatrix.identity(m, f.vars)
    if n == 1:
        row = f.row(0)
        const_j = next((j for j, p in enumerate(row)
                        if not p.is_zero() and p.is_constant()), None)
        if const_j is not None:
            # I + e_j x with x_j = 0 is undone by I - e_j x
            c = row[const_j].constant_value()
            out = PolyMatrix.identity(m, f.vars)
            out_inv = PolyMatrix.identity(m, f.vars)
            for i in range(m):
                if i == const_j:
                    continue
                diff = row[i].set_var(var, 0) - row[i]
                if not diff.is_zero():
                    out.entries[const_j][i] = diff * (Fraction(1) / c)
                    out_inv.entries[const_j][i] = -out.entries[const_j][i]
            _check_elimination(f, out, out_inv, specialized)
            return out
    m1, m1_inv = _complete_rows(f)
    m2, m2_inv = _complete_rows(specialized)
    out = m1 * m2_inv
    _check_elimination(f, out, m2 * m1_inv, specialized)
    return out


def _check_elimination(f, m, m_inv, specialized):
    if f * m != specialized:
        raise InternalError("variable elimination product check failed")
    ident = PolyMatrix.identity(m.rows, m.vars)
    if m * m_inv != ident:
        raise InternalError("variable elimination inverse check failed")
