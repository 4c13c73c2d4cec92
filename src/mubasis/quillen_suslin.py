"""Unimodularity testing and certified unimodular completion over Q[s,t].

complete_columns finds, for a unimodular m x n matrix F (m > n), a square
unimodular M with M F = [I_n; 0], and returns it with its exact inverse as a
certificate that is re-verified before being handed out.

There is one route: F^T is completed row by row.  Each row is made
primitive and reduced (Bezout for a last pair) until a constant pivot
appears.  When reduction stalls, one stable-range step finishes the row:
Q[s,t] has stable range at most 3, so constant column operations shorten a
unimodular row of length >= 4 to three entries that are still unimodular,
and one certified Groebner lift of 1 over them puts a 1 into a fourth slot
(see _RowCompleter._stable_range_step).  The route is therefore complete for
m >= n + 3, where every row it completes has length >= 4; the pipeline's F
is (n + 3) x n.  A shorter row that stalls raises CompletionError.  No step
is randomized.

No matrix is inverted.  Every step is an elementary operation with a known
inverse, so M^-1 is built alongside M: column operations on M are mirrored
by the inverse row operations on M^-1, and each block factor comes with its
explicit inverse.  The certificate is checked by multiplication alone:
M F = [I_n; 0], once, and M M^-1 = I (see CompletionCertificate).  The
recursion over the rows of F^T multiplies only blocks: diag(1, mp) and the
clearing of column 0 are applied to e1 as a block product and column
operations, and to e1^-1 as a block product and row operations.

Unimodularity of F is decided by the completion itself wherever it
succeeds: a checked certificate proves it, since M F = [I_n; 0] gives F a
left inverse, so a completion that succeeds computes no maximal minor.  Only
when the row route fails does is_unimodular build the maximal minors and
their Groebner basis, to tell a matrix that is not unimodular (ValueError)
from a failed completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import NEG_INF, VARS_ST, Poly, PolyMatrix, primitive_scale
from .errors import CompletionError, InternalError
from .grobner import buchberger, lift_coefficients, reduce_with_certificate

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
# Unimodularity
# ---------------------------------------------------------------------------


def is_unimodular(f: PolyMatrix) -> bool:
    """True when the ideal of maximal minors of f (m x n, m >= n) is (1); a
    constant minor settles this without a Groebner basis."""
    minors = [d for _, d in f.maximal_minors() if not d.is_zero()]
    if any(d.is_constant() for d in minors):
        return True
    return bool(minors) and buchberger(minors).contains_constant()


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
            j = self._stable_range_step()
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

    # stable-range layer ------------------------------------------------

    def _stable_range_step(self) -> int:
        """Put a 1 into a row on which reduction stalled; returns its slot.

        Q[s,t] has stable range at most 3 (H. Bass, Publ. IHES 22, 1964;
        L. N. Vaserstein, Funct. Anal. Appl. 5, 1971): a unimodular row v of
        length m >= 4 has three slots A = (a0, a1, a2) and constants c with
        w_i = v_i + sum_j c_ij v_j, j over the r = m - 3 other slots B, still
        unimodular.  One certified lift sum u_i w_i = 1 then makes a fourth
        slot k equal to v_k + (1 - v_k) sum u_i w_i = 1.  Every step is a
        column operation.

        a0, a1, a2 are the first nonzero slots and k the slot of B of least
        degree.  c_a0 = 0, and c_a1 and c_a2 run through the points
        (x, x^2, ..., x^r), x in 0..r d for a1 and in 0..r d^2 for a2, d the
        largest degree in v, by increasing sum of the two x from c = 0.  This
        finite list holds a good c for every unimodular v; over the algebraic
        closure:
        - w_a1 vanishes on a component G of the curve v_a0 = 0 (at most d of
          them) only for c_a1 on an affine hyperplane a + b.c = 0 with b != 0,
          or for every c_a1 when v_a1 and v_B vanish on G; then v_a2 has no
          zero on G, since v has none.  Such a hyperplane holds at most r of
          the points, so some x of the r d + 1 leaves in the zeros of
          (w_a0, w_a1) only components of the second kind and at most d^2
          isolated points (Bezout);
        - at each of those points, w_a2 = 0 is again a hyperplane in c_a2, or
          v_B vanishes there and w_a2 = v_a2 does not, so some x of the
          r d^2 + 1 misses them all.
        When every point fails, v is not unimodular, and the step raises
        CompletionError, as it does for a row shorter than 4.
        """
        if self.m < 4:
            raise CompletionError("completion failed (stalled row shorter than 4)")
        v, zero, one = list(self.work), Poly.zero(self.vars), Poly.const(self.vars, 1)
        slots = sorted(range(self.m), key=lambda i: v[i].is_zero())
        a, rest = slots[:3], slots[3:]
        k = min(rest, key=lambda j: v[j].degree)
        r = len(rest)
        d = max((int(p.degree) for p in v if not p.is_zero()), default=0)
        grid = sorted(((x, y) for x in range(r * d + 1) for y in range(r * d * d + 1)), key=sum)
        for point in grid:
            weights = {i: [x**e for e in range(1, r + 1)] for i, x in zip(a[1:], point)}
            w = [v[a[0]]] + [v[i] + sum((v[j] * c for j, c in zip(rest, weights[i]) if c), zero)
                             for i in a[1:]]
            u = lift_coefficients(one, w)
            if u is not None:
                break
        else:
            raise CompletionError("completion failed (no weights give a unimodular triple)")
        for i in a[1:]:
            for j, c in zip(rest, weights[i]):
                if c:
                    self.colop(i, j, Poly.const(self.vars, c))
        factor = one - v[k]
        for i, ui in zip(a, u):
            self.colop(k, i, factor * ui)
        if self.work[k] != one:
            raise InternalError("stable-range lift failed verification")
        return k


def _complete_rows(f: PolyMatrix) -> tuple[PolyMatrix, PolyMatrix]:
    """(M, M^-1) with M (cols x cols, unimodular) and f M = [I_n, 0] for
    row-unimodular f.

    Row 0 is completed to e1 with f[0] e1 = (1, 0, ..., 0), the rest of
    f e1 is completed to mp recursively, and M = e1 diag(1, mp) Y, where Y
    clears column 0 below row 0 with the column operations
    col_0 -= (f e1)[i, 0] col_i.  Only e1[:, 1:] mp and its inverse's
    counterpart are matrix products; Y and Y^-1 are applied as column and
    row operations.  f M = [I_n, 0] is checked exactly at every level, the
    last included; at the top it is complete_columns' check of M F.
    Nothing here decides unimodularity: a row that is not unimodular ends
    in CompletionError, and complete_columns tells the two causes apart."""
    n, m = f.rows, f.cols
    if n > m:
        raise ValueError("expected at least as many columns as rows")
    e1, e1_inv = _RowCompleter(f.row(0)).run()
    if n == 1:
        if f * e1 != _target_block(m, n, f.vars):
            raise InternalError("row completion product check failed")
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

    M * f = [I_n; 0] is checked exactly once, as f^T M^T = (M f)^T at the
    top level of the row route.  M_inv is built alongside M, step by step,
    and M M_inv = I is checked exactly.  That alone proves M_inv M = I: over
    a commutative ring it gives det M det M_inv = 1, so M is invertible and
    M_inv is its inverse.  It also makes det M a nonzero constant, so det is
    read off the constant-term matrix M(0, 0).
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


def complete_columns(f: PolyMatrix) -> CompletionCertificate:
    """Complete a unimodular m x n matrix (m > n) to M with M f = [I_n; 0].

    Each row of f^T is reduced to a constant pivot, or finished by the
    stable-range step when reduction stalls.  That step needs a row of
    length >= 4, so the route is complete for m >= n + 3, which keeps every
    level there; a shorter row that stalls raises CompletionError.
    M f = [I_n; 0] (as its transpose) and M M^-1 = I are checked exactly,
    once each, before returning; failure raises rather than ever producing
    an unverified answer.

    Unimodularity is decided only when it is needed.  A completed row route
    proves it, since its checked f^T M^T = [I_n, 0] gives f a left inverse,
    so a completion that succeeds computes no maximal minor.  Only when the
    row route fails does is_unimodular decide: f that is not unimodular
    raises ValueError, and any other failure is raised as it came.
    """
    m, n = f.rows, f.cols
    if m <= n:
        raise ValueError("expected strictly more rows than columns")
    try:
        mt, mt_inv = _complete_rows(f.transpose())
    except (CompletionError, InternalError):
        if not is_unimodular(f):
            raise ValueError("matrix is not unimodular") from None
        raise
    big, inv = mt.transpose(), mt_inv.transpose()
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
