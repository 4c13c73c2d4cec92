"""End-to-end computation of a mu-basis for P(s,t) = (a1, a2, a3, a4).

The pipeline resolves the homogenized ideal over its four given generators
(``resolve``) and reads the basis off the last three columns of G N
(``extract_basis``, which reads n = m - 3 off the m columns of G; the
first n span ker G).  When the syzygy module is free (n = beta2 = 0), G is
the dehomogenized d1 and N the identity.  Otherwise three syzygies are a
basis of Syz(a) exactly when their outer product is a nonzero constant
multiple c a (Chen-Cox-Liu); the outer product of B T is det(T) c a for a
basis B, so the test picks out the unimodular T.  When three of the affine
generators of Syz(a) pass it, they are G with N the identity and n = 0.
Otherwise G = d1 and the n relations d2 are dehomogenized, and N is the
inverse of a certified unimodular completion of the relations.  Every
result is verified (moving-plane identities, outer-product
proportionality, and explicit Cramer coefficients that write each
generator of the full syzygy module in the basis) before being returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .arith import (
    NEG_INF,
    VARS_ST,
    Poly,
    PolyMatrix,
    dehomogenize,
    exact_div,
    gcd_many,
    homogenize,
    packing,
)
from .bounds import BoundsReport, report_for_resolution
from .errors import InternalError, ValidationError, VerificationError
from .grobner import FreeResolution, buchberger, free_resolution, syzygy_generators
from .quillen_suslin import complete_columns


@dataclass(frozen=True)
class Parametrization:
    """Validated input data: four polynomials in (s,t) with trivial gcd."""

    a: tuple
    d: int
    warnings: tuple = ()

    @cached_property
    def syzygies(self) -> tuple:
        """syzygy_generators(a), built once: the pd2 basis triple and stage
        3 of verify_mu_basis, which writes each of them in the basis, both
        read it."""
        return tuple(syzygy_generators(list(self.a)))


@dataclass
class MuBasis:
    """Three moving planes forming a basis of the syzygy module."""

    p: tuple
    q: tuple
    r: tuple
    alpha: Fraction
    degrees: tuple
    degree_sum: int

    @property
    def vectors(self):
        return (self.p, self.q, self.r)


@dataclass
class PipelineReport:
    """The run's one resolution (beta2 = ranks[2], its gammas and shifts),
    the free branch's mu and the pd2 completion summary (each None when
    absent: a pd2 run whose basis is three of its syzygy generators has no
    completion)."""

    branch: str
    resolution: FreeResolution
    mu: tuple | None
    completion: dict | None
    bounds: BoundsReport
    timings: dict


def validate(polys) -> Parametrization:
    """Check the defining conditions; degenerate geometry warns, bad gcd fails."""
    polys = list(polys)
    if len(polys) != 4:
        raise ValidationError("a parametrization needs exactly four polynomials")
    for p in polys:
        if not isinstance(p, Poly) or p.vars != VARS_ST:
            raise ValidationError("parametrization components must live in Q[s,t]")
    nonzero = [p for p in polys if not p.is_zero()]
    if not nonzero:
        raise ValidationError("all four polynomials are zero")
    g = gcd_many(nonzero)
    if not g.is_constant():
        raise ValidationError(f"components share the common factor {g}")
    warnings = []
    if len(nonzero) < 4:
        warnings.append("some components are zero (degenerate geometry)")
    d = max(int(p.degree) for p in nonzero)
    if d == 0:
        warnings.append("all components are constant (degenerate geometry)")
    return Parametrization(a=tuple(polys), d=d, warnings=tuple(warnings))


def homogenize_ideal(par: Parametrization) -> tuple:
    """Homogenized generators (b1..b4) of degree d = par.d with trivial gcd,
    for a par whose a_i are coprime, as ``validate`` proves.  A common
    factor h of the b_i dehomogenizes to one of the a_i, so h = c u^k; and
    u divides no b_i whose a_i has degree d, which is checked: some b_i has
    a term free of u."""
    b = tuple(homogenize(p, par.d) for p in par.a)
    exponent = packing(3).exponent
    if all(exponent(m, 2) for x in b for m in x.num):
        raise InternalError("homogenized generators acquired a common factor")
    return b


def resolve(par: Parametrization) -> FreeResolution:
    """Graded free resolution of the homogenized ideal over its four
    generators, the row as given."""
    return free_resolution(list(homogenize_ideal(par)))


def outer_product(p, q, r):
    """Signed 3x3-determinant 4-vector of three 4-vectors (signs +,-,+,-)."""
    return tuple(map(_outer_components(p, q, r), range(4)))


def _outer_components(p, q, r):
    """k -> component k of the outer product of p, q, r: the minor without
    row k times (-1)^k, computed when asked from one shared memoized expansion."""
    cols = [tuple(p), tuple(q), tuple(r)]
    if any(len(v) != 4 for v in cols):
        raise ValueError("outer product needs three 4-vectors")
    minor = PolyMatrix.from_columns(cols)._minor_expansion()
    return lambda k: (-1) ** k * minor(tuple(i for i in range(4) if i != k))


def _proportionality(outer, a):
    """The nonzero constant alpha with outer(k) = alpha a_k for every k, or
    None.  alpha is read off the first component j with a_j nonzero, and the
    other components are asked for only when it is found."""
    j = next((j for j, ai in enumerate(a) if not ai.is_zero()), None)
    quot = None if j is None else exact_div(outer(j), a[j])
    if quot is None or not quot.is_constant() or quot.is_zero():
        return None
    alpha = quot.constant_value()
    return alpha if all(outer(k) == ai * alpha for k, ai in enumerate(a)) else None


def _cramer_certificate(gens, basis, l, det_l) -> bool:
    """Whether every g in gens is c_1 b_1 + c_2 b_2 + c_3 b_3 with
    polynomial c_i, where det_l != 0 is the determinant of B_l, the 3 x 3
    matrix of the basis columns b_i without row l.  Cramer gives the c_i
    off the other rows as adj(B_l) g_l / det_l, one exact division each;
    the adjugate is nine 2 x 2 minors, built once, and row l is checked
    against sum c_i b_i[l], so the identity holds outright."""
    rows = [r for r in range(4) if r != l]
    b = [[v[r] for v in basis] for r in rows]

    def cofactor(r, i):  # of entry (r, i) of B_l; cyclic indices carry the sign
        r1, r2, i1, i2 = (r + 1) % 3, (r + 2) % 3, (i + 1) % 3, (i + 2) % 3
        return b[r1][i1] * b[r2][i2] - b[r1][i2] * b[r2][i1]

    adj = PolyMatrix([[cofactor(r, i) for r in range(3)] for i in range(3)])
    nums = adj * PolyMatrix([[g[r] for g in gens] for r in rows])
    coeffs = [[exact_div(p, det_l) for p in row] for row in nums.entries]
    if any(c is None for row in coeffs for c in row):
        return False
    return (PolyMatrix([[v[l] for v in basis]]) * PolyMatrix(coeffs)
            == PolyMatrix([[g[l] for g in gens]]))


def verify_mu_basis(basis, par: Parametrization) -> Fraction:
    """Three-stage verification; returns the proportionality constant alpha.

    (1) each vector is a moving plane, a B = 0 in one row-by-matrix
    product, so the basis spans a submodule of Syz(a); (2) the outer
    product is a nonzero constant multiple alpha of the parametrization;
    (3) the vectors generate the full syzygy module: each generator of
    Syz(a) in ``par.syzygies`` is written in the basis with explicit
    Cramer coefficients (``_cramer_certificate``).  Stage 3 divides by det B_l = (-1)^l alpha a_l for the first l with a_l nonzero,
    which stage 2 has checked exactly, so no determinant is recomputed.
    """
    basis = [tuple(v) for v in basis]
    if len(basis) != 3 or any(len(v) != 4 for v in basis):
        raise VerificationError("a candidate basis must consist of three 4-vectors")
    products = PolyMatrix([list(par.a)]) * PolyMatrix.from_columns(basis)
    if any(not x.is_zero() for x in products.entries[0]):
        raise VerificationError("not a syzygy")
    outer = outer_product(*basis)
    if all(c.is_zero() for c in outer):
        raise VerificationError("alpha = 0 (degenerate triple)")
    alpha = _proportionality(outer.__getitem__, par.a)
    if alpha is None:
        raise VerificationError("outer product not proportional")
    l = next(j for j, ai in enumerate(par.a) if not ai.is_zero())
    if not _cramer_certificate(par.syzygies, basis, l, par.a[l] * ((-1) ** l * alpha)):
        raise VerificationError("does not generate Syz")
    return alpha


def extract_basis(g_mat: PolyMatrix, n_mat: PolyMatrix):
    """The last three columns of G N, for G of shape 4 x m and N m x m.

    Requires the first n = m - 3 columns of G N to vanish (they span ker G).
    """
    n = g_mat.cols - 3
    if g_mat.rows != 4 or n < 0 or n_mat.rows != n_mat.cols or g_mat.cols != n_mat.rows:
        raise ValueError("expected G (4 x m), m >= 3, and square N (m x m)")
    gn = g_mat * n_mat
    for j in range(n):
        if any(not gn[i, j].is_zero() for i in range(4)):
            raise ValueError("kernel columns of G*N are not zero")
    return tuple(tuple(gn.column(j)) for j in range(n, n + 3))


def _vector_degree(vec) -> int:
    degs = [int(p.degree) for p in vec if not p.is_zero()]
    return max(degs) if degs else 0


def _interreduce(basis, d: int):
    """Best-effort degree lowering: reduce each vector modulo the other two.

    Elementary operations only, so the span and the outer product (hence
    alpha) are unchanged; a vector is replaced only when its degree drops.
    A basis of a row of degree d whose degrees sum to d is returned as it
    is: its outer product stays alpha * a with alpha != 0, of degree d, and
    each component of it, a 3 x 3 minor, has degree at most the sum of the
    vector degrees, so that sum cannot fall below d and no vector can drop.
    Every pd1 basis is such a basis.
    """
    vecs = [tuple(v) for v in basis]
    if sum(map(_vector_degree, vecs)) == d:
        return tuple(vecs)
    bases = {}
    for _ in range(4):
        changed = False
        for i in range(3):
            others = tuple(vecs[j] for j in range(3) if j != i)
            if others not in bases:
                bases[others] = buchberger(others)
            nf = tuple(bases[others].normal_form(vecs[i]))
            if all(p.is_zero() for p in nf):
                continue
            if _vector_degree(nf) < _vector_degree(vecs[i]):
                vecs[i] = nf
                changed = True
        if not changed:
            break
    return tuple(vecs)


def _basis_triple(gens, a):
    """The first three of gens whose outer product passes stage 2 of
    verify_mu_basis, so a basis of Syz(a), or None.  The generators left
    out are tried highest degree first, ties by index.  Of a triple that
    fails at the component ``_proportionality`` reads first, only that
    component of the outer product is built."""
    order = sorted(range(len(gens)), key=lambda i: -_vector_degree(gens[i]))
    for left_out in combinations(order, len(gens) - 3):
        tri = [g for i, g in enumerate(gens) if i not in left_out]
        if _proportionality(_outer_components(*tri), a) is not None:
            return tri
    return None


def compute_mu_basis(par: Parametrization):
    """Run the full pipeline; returns (MuBasis, PipelineReport).

    pd1 reads the basis off the dehomogenized d1.  pd2 returns three
    syzygy generators of the input that are a basis (``_basis_triple``)
    with no completion when there are such (``completion`` is None);
    otherwise it completes the graded relations d2.  The returned basis
    always passes verify_mu_basis; a verification failure downstream of a
    successful completion is an internal error.
    """
    timings = {}
    t0 = time.perf_counter()
    d = par.d
    res = resolve(par)
    timings["resolution"] = time.perf_counter() - t0

    beta2 = res.ranks[2]
    if beta2 == 0 and res.ranks[1] != 3:
        raise InternalError("free syzygy module does not have rank 3")
    completion = mu = None
    n_mat = PolyMatrix.identity(3, VARS_ST)  # M^-1 on the completion route
    if beta2 == 0:
        branch = "pd1"
        mu = tuple(qi - d for qi in res.q)
        if sum(mu) != d:
            raise InternalError("free-branch shifts do not sum to the input degree")
        g_mat = res.d1.map_entries(dehomogenize)
    else:
        branch = "pd2"
        t1 = time.perf_counter()
        tri = _basis_triple(par.syzygies, par.a)
        if tri is not None:
            g_mat = PolyMatrix.from_columns(tri)
        else:
            g_mat = res.d1.map_entries(dehomogenize)
            f_mat = res.d2.map_entries(dehomogenize)
            if g_mat.degree != NEG_INF and g_mat.degree > 2 * d - 1:
                raise InternalError("presentation entries exceed the 2d-1 degree bound")
            if f_mat.degree != NEG_INF and f_mat.degree > 2 * d:
                raise InternalError("relation entries exceed the 2d degree bound")
            cert = complete_columns(f_mat)
            n_mat = cert.M_inv
            completion = {k: getattr(cert, k) for k in ("deg_M", "bound", "within_bound", "det")}
        timings["completion"] = time.perf_counter() - t1
    basis = extract_basis(g_mat, n_mat)
    if branch == "pd1" and any(_vector_degree(v) > d for v in basis):
        raise InternalError("free-branch basis exceeds the degree-d bound")
    t2 = time.perf_counter()
    basis = _interreduce(basis, d)
    try:
        alpha = verify_mu_basis(basis, par)
    except VerificationError as exc:
        raise InternalError(f"pipeline produced an invalid basis: {exc}") from exc
    timings["verification"] = time.perf_counter() - t2

    t3 = time.perf_counter()
    bounds_report = report_for_resolution(res)
    timings["bounds"] = time.perf_counter() - t3
    timings["total"] = time.perf_counter() - t0

    degrees = tuple(_vector_degree(v) for v in basis)
    mb = MuBasis(p=basis[0], q=basis[1], r=basis[2], alpha=alpha,
                 degrees=degrees, degree_sum=sum(degrees))
    bounds_report.observed["basis_degrees"] = degrees
    bounds_report.observed["basis_degree_max"] = max(degrees)
    report = PipelineReport(
        branch=branch,
        resolution=res,
        mu=mu,
        completion=completion,
        bounds=bounds_report,
        timings=timings,
    )
    return mb, report
