"""Unimodularity testing and certified unimodular completion over Q[s,t].

complete_columns finds, for a unimodular m x n matrix F (m > n), a square
unimodular M with M F = [I_n; 0], and returns it with its exact inverse as a
certificate that is re-verified before being handed out.

The strategy is layered.  A constant maximal minor gives M at once;
otherwise each row of F^T is made primitive and reduced (Bezout for a last
pair) until a constant pivot appears.  When reduction stalls, the general
route runs: make an entry monic in t by a linear change of variables,
trivialize the row over Q[s]_a[t] for a few divisors a of resultants
Res_t(v1, w) that generate Q[s] (Suslin's lemma), patch these charts into
a polynomial matrix along a Bezout partition of t, and finish over the
principal ideal domain Q[s].  Every Bezout identity on the way (a last pair,
the partition of t, the steps over Q[s]) comes from a certified Groebner
lift.  No step is randomized.

Every step is an elementary operation with a known inverse, so M^-1 is
built alongside M rather than recovered from an adjugate: column operations
on M are mirrored by the inverse row operations on M^-1, each block factor
comes with its explicit inverse, and each patch factor E(b') E(b)^-1 is
inverted as E(b) E^-1(b').  The certificate is checked by multiplication
alone: M F = [I_n; 0] and M M^-1 = I (see CompletionCertificate).  The
recursion over the rows of F^T multiplies only blocks: diag(1, mp) and the
clearing of column 0 are applied to e1 as a block product and column
operations, and to e1^-1 as a block product and row operations.

Unimodularity of F is decided by the completion itself wherever it
succeeds: a constant minor proves it, and so does a checked certificate,
since M F = [I_n; 0] gives F a left inverse.  The Groebner basis of the
maximal minors is built only when the row route fails, to tell a matrix
that is not unimodular (ValueError) from a failed completion.  The general
route assumes a unimodular row and checks it with a basis of the row's
entries before it runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import (
    NEG_INF,
    VARS_ST,
    Poly,
    PolyMatrix,
    _as_univar,
    exact_div,
    gcd_many,
    primitive_scale,
)
from .errors import CompletionError, InternalError
from .grobner import (
    buchberger,
    lift_coefficients,
    make_lifter,
    normal_form,
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


def _nonzero_minors(f: PolyMatrix) -> list[tuple[tuple[int, ...], Poly]]:
    """(rows, minor) for every nonzero maximal minor of f (m x n, m >= n),
    with the row subsets in lexicographic order."""
    return [(rows, d) for rows, d in f.maximal_minors() if not d.is_zero()]


def _minors_generate_unit_ideal(minors) -> bool:
    """True when the given nonzero minors generate (1); a constant minor
    settles this without a Groebner basis."""
    if any(d.is_constant() for _, d in minors):
        return True
    return bool(minors) and buchberger([d for _, d in minors]).contains_constant()


def is_unimodular(f: PolyMatrix) -> bool:
    """True when the ideal of maximal minors of f (m x n, m >= n) is (1)."""
    return _minors_generate_unit_ideal(_nonzero_minors(f))


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
# Resultant charts over Q[s] (elements of Q[s] are VARS_ST polys free of t)
# ---------------------------------------------------------------------------

_S = 0  # variable indices into VARS_ST
_T = 1
_ONE = Poly.const(VARS_ST, 1)
_ZERO = Poly.zero(VARS_ST)


def _uses_var(p: Poly, vi: int) -> bool:
    return any(m[vi] for m in p.num)


def _t_degree(p: Poly) -> int:
    return max((m[_T] for m in p.num), default=-1)


def _resultant_bezout(v1: Poly, w: Poly) -> tuple[Poly, Poly, Poly]:
    """(a, p, q) with p v1 + q w = a, where a in Q[s] divides Res_t(v1, w)
    and is 0 exactly when that resultant is; v1 has a constant t-lead
    coefficient and t-degree d >= 1.

    Column j of the d x d matrix A of multiplication by w on Q[s][t]/(v1)
    is t^j w mod v1 in the basis 1, t, ..., t^(d-1), and det A is the
    resultant up to a constant.  The first column of adj A, the cofactors of
    row 0, gives q with q w = det A mod v1; dividing q by the gcd of its
    coefficients divides det A alike, and v1 divides a - q w exactly."""
    d = _t_degree(v1)
    monic = v1 * (1 / _as_univar(v1, _T)[d].constant_value())

    def reduce(r):
        while (e := _t_degree(r)) >= d:
            r = r - monic * _as_univar(r, _T)[e].term_mul((0, e - d), 1)
        return r

    cols = [reduce(w)]
    for _ in range(1, d):
        cols.append(reduce(cols[-1].term_mul((0, 1), 1)))
    a_mat = [[_as_univar(c, _T).get(i, _ZERO) for c in cols] for i in range(d)]
    if d == 1:
        cof = [_ONE]
    else:
        cof = [PolyMatrix([r[:j] + r[j + 1:] for r in a_mat[1:]]).det() * (-1) ** j
               for j in range(d)]
    if all(c.is_zero() for c in cof):
        return _ZERO, _ZERO, _ZERO
    g = gcd_many(cof)
    cof = [exact_div(c, g) for c in cof]
    a = sum((x * c for x, c in zip(a_mat[0], cof)), _ZERO)
    q = sum((c.term_mul((0, j), 1) for j, c in enumerate(cof)), _ZERO)
    p = exact_div(a - q * w, v1)
    if p is None:
        raise InternalError("resultant Bezout identity failed")
    return a, p, q


def _scaled_identity(m: int, diag: Poly, entries: dict, sign: int = 1) -> PolyMatrix:
    """diag * I_m with sign * value put in at each (i, j) of entries."""
    out = PolyMatrix([[diag if i == j else _ZERO for j in range(m)] for i in range(m)])
    for (i, j), x in entries.items():
        out.entries[i][j] = x if sign > 0 else -x
    return out


def _resultant_charts(row: list[Poly]) -> list[tuple[Poly, PolyMatrix, PolyMatrix]]:
    """Charts (a, N, N') with row N = a e1 and N N' = a^2 I, whose a generate
    Q[s]; row is unimodular, m >= 3 entries, row[0] with a constant t-lead
    coefficient and t-degree d >= 1.

    Each weight vector y (y_0 = 0, y_j = 1) gives w = sum y_i row_i and
    a = p row_0 + q w from _resultant_bezout.  Over Q[s]_a[t], E = N / a is:
    add sum y_i col_i to column j; add (1 - row_k) (p col_0 + q col_j) / a to
    a third column k, which makes it 1; clear every other column with it;
    swap columns 0 and k.  Only the middle factor divides by a.

    The single entries are tried first, then the Kronecker points
    y = (0, 1, k, k^b, k^(b^2), ...), b = d + 1, k = 1 .. b^(m-2).
    Res_t(row_0, sum y_i row_i) is a form of degree d in y whose
    coefficients generate Q[s] (Suslin's lemma); at these points it is a
    polynomial in k of degree < b^(m-2) with those same coefficients, so
    its values there generate Q[s] too.  A chart is kept only when its a
    lowers the gcd of the kept ones, and the search stops at gcd 1.
    """
    m = len(row)
    b = _t_degree(row[0]) + 1
    points = [[int(i == j) for i in range(m)] for j in range(1, m)]
    points += [[0, 1] + [k ** (b ** i) for i in range(m - 2)]
               for k in range(1, b ** (m - 2) + 1)]
    charts = []
    common = None
    for y in points:
        j = y.index(1)
        w = sum((row[i] * y[i] for i in range(m) if y[i]), _ZERO)
        a, p, q = _resultant_bezout(row[0], w)
        if a.is_zero():
            continue
        lowered = a if common is None else gcd_many([common, a])
        if common is not None and lowered.degree == common.degree:
            continue
        common = lowered
        k = next(i for i in range(1, m) if i != j)
        shear = {(i, j): Poly.const(VARS_ST, y[i]) for i in range(m) if i != j and y[i]}
        c = _ONE - row[k]
        bezout = {(0, k): c * p, (j, k): c * q}
        clear = {(k, i): (w if i == j else row[i]) for i in range(m) if i != k}
        swap = _scaled_identity(m, _ONE, {(0, 0): _ZERO, (k, k): _ZERO,
                                          (0, k): _ONE, (k, 0): _ONE})
        n = (_scaled_identity(m, _ONE, shear) * _scaled_identity(m, a, bezout)
             * _scaled_identity(m, _ONE, clear, -1) * swap)
        n_inv = (swap * _scaled_identity(m, _ONE, clear) * _scaled_identity(m, a, bezout, -1)
                 * _scaled_identity(m, _ONE, shear, -1))
        charts.append((a, n, n_inv))
        if common.is_constant():
            return charts
    raise CompletionError("completion failed (resultants of the row share a root)")


def _at_t(a: PolyMatrix, b: Poly) -> PolyMatrix:
    return a.map_entries(lambda p: p.substitute({"t": b}))


def _exact_quotient(a: PolyMatrix, d: Poly) -> PolyMatrix | None:
    """a / d entrywise, or None when d does not divide some entry."""
    rows = [[exact_div(p, d) for p in row] for row in a.entries]
    return None if any(None in row for row in rows) else PolyMatrix(rows)


def _eliminate_t_monic(row_polys: list[Poly]) -> tuple[PolyMatrix, PolyMatrix]:
    """For a unimodular row whose first entry has a constant t-lead
    coefficient, build a polynomial M with row * M = row(t := 0), together
    with M^-1.

    The resultant charts (a_k, N_k, N'_k) trivialize the row over
    Q[s]_(a_k)[t] with E_k = N_k / a_k.  Weights with sum w_k a_k^2 = 1 split
    t into b_k = b_(k-1) + t w_k a_k^2 from b_0 = 0 to b_K = t.  Since
    row(x) E_k(x) = e1 for every x, the patch E_k(b_k) E_k(b_(k-1))^-1
    carries row(b_k) to row(b_(k-1)), and E_k(b_(k-1)) E_k^-1(b_k) undoes
    it.  Each is a product of N_k and N'_k at two points over a_k^2, a
    polynomial because N_k(b + y) - N_k(b) is a multiple of y and
    N_k N'_k = a_k^2 I; the product of the patches is M.
    """
    m = len(row_polys)
    charts = _resultant_charts(row_polys)
    weights = _bezout_powers([a for a, _, _ in charts])
    t_var = Poly.variable(VARS_ST, "t")
    total = total_inv = PolyMatrix.identity(m, VARS_ST)
    b_prev = _ZERO
    for (a, n, n_inv), w in zip(charts, weights):
        square = a * a
        b_next = b_prev + t_var * w * square
        patch = _exact_quotient(_at_t(n, b_next) * _at_t(n_inv, b_prev), square)
        patch_inv = _exact_quotient(_at_t(n, b_prev) * _at_t(n_inv, b_next), square)
        if patch is None or patch_inv is None:
            raise InternalError("a patch is not divisible by its squared resultant")
        total, total_inv = patch * total, total_inv * patch_inv
        b_prev = b_next
    got = [sum((row_polys[i] * total[i, j] for i in range(m)), _ZERO) for j in range(m)]
    if got != [p.set_var("t", 0) for p in row_polys]:
        raise InternalError("patched elimination matrix failed verification")
    return total, total_inv


def _bezout_powers(dens: list[Poly]) -> list[Poly]:
    """Weights w_k with sum w_k den_k^2 = 1 for dens that generate Q[s],
    by one certified Groebner lift of 1 over the squares."""
    weights = lift_coefficients(_ONE, [d * d for d in dens])
    if weights is None:
        raise InternalError("the resultants of the charts do not generate Q[s]")
    return weights


def _xgcd(a: Poly, b: Poly) -> tuple[Poly, Poly, Poly]:
    """(g, u, v) with u a + v b = g = gcd(a, b) monic, for nonzero a, b
    univariate in one variable: the pair of the extended Euclidean
    algorithm.  The Groebner lift of g over (a, b) gives some u; reducing
    it modulo b/g gives the unique u of degree < deg(b/g) (0 when b/g is a
    constant), and then v = (g - u a)/b."""
    g = gcd_many([a, b])
    u = lift_coefficients(g, [a, b])[0]
    u = normal_form(u, buchberger([exact_div(b, g)]))
    return g, u, exact_div(g - u * a, b)


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
        for row in self.E:
            if not row[j].is_zero():
                row[i] = row[i] + factor * row[j]
        self.Einv[j] = [x if y.is_zero() else x - factor * y
                        for x, y in zip(self.Einv[j], self.Einv[i])]

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
            self._pid_phase()
            return
        # the charts assume a unimodular row, and a matrix that is not
        # unimodular reaches here with one; a basis of the row rules it out
        if not buchberger([self.work[i] for i in nz]).contains_constant():
            raise CompletionError("completion failed (row is not unimodular)")
        lam = self._monicize()
        self.apply_matrix(*_eliminate_t_monic(self.work))
        self._pid_phase()
        self._unsubstitute(lam)

    def _monicize(self) -> Fraction:
        """Apply s -> s + lam*t so some entry gets a constant t-lead coefficient,
        and move that entry to position 0.  Returns lam.

        lam runs through 0, 1, -1, 2, -2, ...  The top form of an entry of
        least degree d, at (lam, 1), is a nonzero polynomial in lam of degree
        at most d, so one of the first d + 1 values works."""
        s = Poly.variable(self.vars, "s")
        t = Poly.variable(self.vars, "t")
        d_min = min(int(p.degree) for p in self.work if not p.is_constant())
        for i in range(d_min + 1):
            lam = (i + 1) // 2 * (1 if i % 2 else -1)
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
        raise InternalError("no change of variables made a monic entry")

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

    def _pid_phase(self):
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
            g, u, v = _xgcd(a, b)
            qa = exact_div(a, g)
            qb = exact_div(b, g)
            # det [[u, -qb], [v, qa]] = (u a + v b) / g = 1
            self.apply_matrix(self._block(0, i, ((u, -qb), (v, qa))),
                              self._block(0, i, ((qa, qb), (-v, u))))
        if not self.work[0].is_constant() or self.work[0].is_zero():
            raise CompletionError("completion failed (univariate row has a common factor)")


def _complete_rows(f: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix]:
    """(M, M^-1) with M (cols x cols, unimodular) and f M = [I_n, 0] for
    row-unimodular f.

    Row 0 is completed to e1 with f[0] e1 = (1, 0, ..., 0), the rest of
    f e1 is completed to mp recursively, and M = e1 diag(1, mp) Y, where Y
    clears column 0 below row 0 with the column operations
    col_0 -= (f e1)[i, 0] col_i.  Only e1[:, 1:] mp and its inverse's
    counterpart are matrix products; Y and Y^-1 are applied as column and
    row operations.  f M = [I_n, 0] is checked exactly at every level.
    Nothing here decides unimodularity: a row that is not unimodular ends
    in CompletionError, and complete_columns tells the two causes apart."""
    n, m = f.rows, f.cols
    if n > m:
        raise ValueError("expected at least as many columns as rows")
    e1, e1_inv = _RowCompleter(f.row(0)).run()
    if n == 1:
        return e1, e1_inv
    # rows 1 .. n-1 of f e1; row 0 is (1, 0, ..., 0) by construction
    fe = PolyMatrix(f.entries[1:]) * e1
    # rescale the untouched columns to primitive integer content; the scales
    # are units, so e1 stays unimodular
    for j in range(1, m):
        scale = primitive_scale(fe[i, j] for i in range(n - 1))
        if scale != 1:
            for i in range(n - 1):
                fe.entries[i][j] = fe.entries[i][j] * scale
            for i in range(m):
                e1.entries[i][j] = e1.entries[i][j] * scale
            e1_inv.entries[j] = [x * (1 / scale) for x in e1_inv.entries[j]]
    mp, mp_inv = _complete_rows(fe.submatrix(range(n - 1), range(1, m)))
    # the nonzero (f e1)[i, 0], i > 0, that Y clears
    clear = [(i, fe[i - 1, 0]) for i in range(1, n) if not fe[i - 1, 0].is_zero()]
    # e1 diag(1, mp) = [e1[:, 0] | e1[:, 1:] mp], then Y's column operations
    block = PolyMatrix([row[1:] for row in e1.entries]) * mp
    total = [[row[0]] + brow for row, brow in zip(e1.entries, block.entries)]
    for row in total:
        for i, c in clear:
            if not row[i].is_zero():
                row[0] = row[0] - c * row[i]
    total = PolyMatrix(total)
    if f * total != _target_block(m, n, f.vars):
        raise InternalError("row completion product check failed")
    # diag(1, mp^-1) e1^-1 = [e1^-1[0, :]; mp^-1 e1^-1[1:, :]], then the
    # row operations row_i += (f e1)[i, 0] row_0 of Y^-1
    head = e1_inv.entries[0]
    inv = [head] + (mp_inv * PolyMatrix(e1_inv.entries[1:])).entries
    for i, c in clear:
        inv[i] = [x if y.is_zero() else x + c * y for x, y in zip(inv[i], head)]
    return total, PolyMatrix(inv)


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

    Unimodularity is decided where it is needed.  A constant minor proves
    it, and so does a completed row route, whose checked f^T M^T = [I_n, 0]
    gives f a left inverse.  Only when the row route fails is the Groebner
    basis of the minors built: f that is not unimodular raises ValueError,
    and any other failure is raised as it came.
    """
    m, n = f.rows, f.cols
    if m <= n:
        raise ValueError("expected strictly more rows than columns")
    minors = _nonzero_minors(f)
    const_rows = next((rows for rows, d in minors if d.is_constant()), None)
    if const_rows is not None:
        big, inv = _constant_minor_completion(f, const_rows)
    else:
        try:
            mt, mt_inv = _complete_rows(f.transpose())
        except (CompletionError, InternalError):
            if not _minors_generate_unit_ideal(minors):
                raise ValueError("matrix is not unimodular") from None
            raise
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
