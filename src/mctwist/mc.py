"""Maurer-Cartan elements, twistings and (homotopy) gauge equivalence.

A degree-1 element x of a dg algebra is Maurer-Cartan when d(x) + x^2 = 0.
Twisting by an MC element deforms differentials:

* module twisting  A^[x]:   d(a) + x a          (right A-module),
* algebra twisting A^x:     d(a) + [x, a]       (dg algebra),
* hom twisting     A^[x,y]: d(a) + y a - (-1)^{|a|} a x,

and A^[x,y] is the complex of right-module maps A^[x] -> A^[y], an element
acting by left multiplication.  Invertible degree-0 elements act by gauge
transformations g . x = g x g^{-1} - d(g) g^{-1}; the weaker notion of
homotopy gauge equivalence asks for degree-0 elements g, h with

  (1) dg + yg - gx = 0,           (2) dh + xh - hy = 0,
  (3) hg - 1 = d^x(wx),           (4) gh - 1 = d^y(wy),

for some degree -1 witnesses wx, wy.  Each is a value of one differential,
D_{x,y}(w) = dw + yw - (-1)^{|w|} wx of A^[x,y] (:func:`hom_twist_d`):
(1) D_{x,y}(g) = 0, (2) D_{y,x}(h) = 0, (3) hg - 1 = D_{x,x}(wx) and
(4) gh - 1 = D_{y,y}(wy), so d^x(w) = d(w) + [x, w] is D_{x,x}(w), and
(1, 1, 0, 0) certifies x against itself.  :func:`verify_homotopy_gauge`
checks the degrees of the witnesses and exactly these four conditions;
:func:`search_homotopy_gauge` is a certificate-producing decision layer
that never claims equivalence without a verified certificate and never
claims distinction without a computed invariant that differs.

Twisted modules V (x) A = Hom(k, V) (x) A and two-sided Hom(V, W) (x) A share one
differential D f = (1 (x) d) f + y f - (-1)^{|f|} f x (:func:`_hom_diff`); a twisting
x is checked MC as D_{0,x}(x) = 0.
End(V) (x) A as a dg algebra (:func:`~mctwist.dgcore.endomorphism_dga`, the
tensor product of End(V) with A) is for ``check_dga``, :func:`gauge_act`
and library users.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property

from .dgcore import (
    DgAlgebra,
    DgError,
    DgModule,
    Element,
    GradedModule,
    complex_of,
    format_coeffs,
    ground_module,
    vec_apply,
)
from .exactlinalg import (
    CohomologyReport,
    ExactLinalgError,
    ExactMatrix,
    InputError,
    cohomology,
    rref,
    solve_columns,
    solve_equations,
)


class MCError(InputError):
    pass


def mc_residual(a: DgAlgebra, x: Element) -> Element:
    return x.d() + x * x


def is_mc(a: DgAlgebra, x) -> tuple:
    """(is MC, residual d(x) + x^2).  Rejects inhomogeneous input."""
    x = a.as_element(x)
    if not x.is_homogeneous(1):
        raise MCError("an MC candidate must be homogeneous of degree 1")
    r = mc_residual(a, x)
    return r.is_zero(), r


@dataclass
class MCElement:
    """A degree-1 solution of d(x) + x^2 = 0, verified once, on construction.

    ``left_mult`` {l: x l} and ``right_mult`` {l: l x} are the rows of x in
    a DgAlgebra's ``mult``, built on first use and kept, like its index.
    """

    algebra: DgAlgebra
    value: Element

    def __init__(self, algebra: DgAlgebra, value):
        self.algebra = algebra
        self.value = algebra.as_element(value)
        ok, res = is_mc(algebra, self.value)
        if not ok:
            raise MCError("not Maurer-Cartan; residual %r" % (res,))

    @cached_property
    def left_mult(self) -> dict:
        return self.algebra.left_mult(self.value.coeffs)

    @cached_property
    def right_mult(self) -> dict:
        return self.algebra.right_mult(self.value.coeffs)


def zero_mc(a: DgAlgebra) -> MCElement:
    return MCElement(a, a.zero())


# ---------------------------------------------------------------------------
# twistings
# ---------------------------------------------------------------------------


def _twisted_diff(a: DgAlgebra, y_l: dict, l_x: dict, labels) -> dict:
    """{l: d(l) + y l - (-1)^{|l|} l x}, the differential of A^[x,y], on labels.

    y_l = {l: y l} and l_x = {l: l x} are rows of mult (``y.left_mult`` and
    ``x.right_mult``); A^[x] is A^[0,x] and A^x is A^[x,x].  Labels whose
    image is zero are left out.
    """
    ring = a.ring
    diff = {}
    for l in labels:
        out = ring.axpy(ring.axpy(dict(a.diff.get(l, {})), 1, y_l.get(l, {})),
                        -ring.sign(a.gm.degree[l]), l_x.get(l, {}))
        if out:
            diff[l] = out
    return diff


def _square_zero(a: DgAlgebra, diff: dict, what: str) -> dict:
    """diff, once checked to square to zero on every label."""
    for out in diff.values():
        if vec_apply(a.ring, diff, out):
            raise MCError("%s differential does not square to zero" % what)
    return diff


def twist_module(a: DgAlgebra, x: MCElement, name: str = "") -> DgModule:
    """A^[x]: A as a right module with differential d + (left mult by x)."""
    _require_mc(a, x)
    diff = _square_zero(a, _twisted_diff(a, x.left_mult, {}, a.gm.labels), "twisted module")
    return DgModule(a.gm, a, dict(a.mult), diff, name=name or "A^[x]")


def twist_algebra(a: DgAlgebra, x: MCElement, name: str = "") -> DgAlgebra:
    """A^x: the same graded algebra with differential d + [x, -]."""
    _require_mc(a, x)
    diff = _square_zero(a, _twisted_diff(a, x.left_mult, x.right_mult, a.gm.labels),
                        "twisted algebra")
    return DgAlgebra(a.gm, dict(a.unit), dict(a.mult), diff, name=name or "%s^x" % a.name)


def hom_twist(a: DgAlgebra, x: MCElement, y: MCElement, name: str = "") -> DgModule:
    """A^[x,y]: Hom(A^[x], A^[y]) with d(a) + y a - (-1)^{|a|} a x.

    Returned as a complex (a dg module over the ground ring); the
    composition pairing A^[y,z] (x) A^[x,y] -> A^[x,z] is ordinary
    multiplication in A, g (x) f -> g * f.
    """
    _require_mc(a, x)
    _require_mc(a, y)
    diff = _square_zero(a, _twisted_diff(a, y.left_mult, x.right_mult, a.gm.labels),
                        "hom twist")
    return ground_module(a.gm, diff, name or "A^[x,y]")


def hom_twist_d(a, x: MCElement, y: MCElement, w) -> Element:
    """D_{x,y}(w) = d(w) + y w - (-1)^{|w|} w x, the differential of A^[x,y] at w.

    Each term l of w takes its own sign (-1)^{|l|}.  The coefficient dicts
    come from ``d_dict``, ``mul_dicts`` and ``Ring.axpy``, which the lazy
    free dg algebras have too.
    """
    ring, deg, w = a.ring, a.gm.degree, a.as_element(w).coeffs
    out = ring.axpy(a.d_dict(w), 1, a.mul_dicts(y.value.coeffs, w))
    signed = {l: ring.neg(c) if deg[l] % 2 else c for l, c in w.items()}
    return Element(a, ring.axpy(out, -1, a.mul_dicts(signed, x.value.coeffs)))


def _require_mc(a: DgAlgebra, x: MCElement):
    # an MCElement was verified when it was made; it must be one of a's
    if not isinstance(x, MCElement):
        raise MCError("expected an MCElement")
    a.as_element(x.value)


# ---------------------------------------------------------------------------
# gauge action
# ---------------------------------------------------------------------------


def algebra_inverse(a: DgAlgebra, g) -> Element | None:
    """Two-sided inverse of a degree-0 element, by exact linear solve."""
    g = a.as_element(g)
    if not g.is_homogeneous(0):
        return None
    ring = a.ring
    deg0 = a.gm.labels_of_degree(0)
    # solve g * h = 1 with h supported in degree 0, where g * l lies
    g_l = a.left_mult(g.coeffs)
    (h,), _ = solve_columns(ring, {l: g_l.get(l, {}) for l in deg0}, deg0, [a.unit])
    if h is None:
        return None
    # g h and h g, summed over the terms of h from the products g l and l g
    if vec_apply(ring, g_l, h) == a.unit == vec_apply(ring, a.right_mult(g.coeffs), h):
        return Element(a, h)
    return None


def gauge_act(a: DgAlgebra, g, x: MCElement) -> MCElement:
    """g . x = g x g^{-1} - d(g) g^{-1}; the result is again MC."""
    g = a.as_element(g)
    ginv = algebra_inverse(a, g)
    if ginv is None:
        raise MCError("gauge element is not invertible")
    out = g * x.value * ginv - g.d() * ginv
    return MCElement(a, out)


def is_gauge_pair(a: DgAlgebra, g, x: MCElement, y: MCElement) -> bool:
    """True iff dg + yg - gx = 0 exactly and g is invertible."""
    if algebra_inverse(a, g) is None:
        return False
    return hom_twist_d(a, x, y, g).is_zero()


# ---------------------------------------------------------------------------
# homotopy gauge certificates
# ---------------------------------------------------------------------------


@dataclass
class HomotopyGaugeCertificate:
    """Witnesses (g, h, wx, wy) for the four conditions of homotopy gauge
    equivalence; wx cobounds hg - 1 in A^x and wy cobounds gh - 1 in A^y."""

    g: Element
    h: Element
    wx: Element
    wy: Element


def verify_homotopy_gauge(a: DgAlgebra, x: MCElement, y: MCElement,
                          cert: HomotopyGaugeCertificate):
    """(ok, failed condition names) for the four conditions, checked exactly.

    A witness off its degree (g, h in A^0; wx, wy in A^-1) is a failure of
    its own, and the conditions are then not evaluated.
    """
    g, h, wx, wy = (a.as_element(e) for e in (cert.g, cert.h, cert.wx, cert.wy))
    failures = ["%s is not in A^%d" % (name, deg) for name, w, deg in
                (("g", g, 0), ("h", h, 0), ("wx", wx, -1), ("wy", wy, -1))
                if not w.is_homogeneous(deg)]
    if not failures:
        failures = [name for name, ok in (
            ("(1) dg + yg - gx = 0", hom_twist_d(a, x, y, g).is_zero()),
            ("(2) dh + xh - hy = 0", hom_twist_d(a, y, x, h).is_zero()),
            ("(3) hg - 1 = d^x(wx)", h * g - a.one() == hom_twist_d(a, x, x, wx)),
            ("(4) gh - 1 = d^y(wy)", g * h - a.one() == hom_twist_d(a, y, y, wy)))
            if not ok]
    return not failures, failures


# ---------------------------------------------------------------------------
# convolution operators and twisted modules V (x) A
# ---------------------------------------------------------------------------


class ConvOp:
    """A map V_src (x) A -> V_dst (x) A: sum E_{src -> dst} (x) a, stored as
    {(src label, dst label, algebra label): c}.  Composition carries the
    Koszul sign (-1)^{|a| |psi|}, psi the matrix part of the right factor:
    the product of End(V) (x) A, the tensor product
    :func:`~mctwist.dgcore.endomorphism_dga` tabulates, evaluated on demand.
    """

    def __init__(self, algebra: DgAlgebra, src: GradedModule, dst: GradedModule,
                 coeffs: dict = None):
        coeffs = coeffs or {}
        sdeg, ddeg, adeg = src.degree, dst.degree, algebra.gm.degree
        bad = [("E",) + k for k in coeffs
               if k[0] not in sdeg or k[1] not in ddeg or k[2] not in adeg]
        if bad:
            raise DgError("unknown basis labels %r" % (bad,))
        self.algebra, self.ring, self.src, self.dst = algebra, algebra.ring, src, dst
        self.coeffs = {k: c for k, v in coeffs.items() if (c := self.ring.coerce(v)) != 0}

    def _like(self, coeffs: dict, src=None) -> "ConvOp":
        # an operator into self.dst from canonical nonzero coefficients on known labels
        op = object.__new__(ConvOp)
        op.algebra, op.ring, op.src, op.dst = self.algebra, self.ring, src or self.src, self.dst
        op.coeffs = coeffs
        return op

    @staticmethod
    def identity(algebra: DgAlgebra, v: GradedModule) -> "ConvOp":
        return ConvOp.from_matrix(algebra, v, v, {(u, u): 1 for u in v.labels})

    @staticmethod
    def from_matrix(algebra: DgAlgebra, src: GradedModule, dst: GradedModule,
                    entries: dict) -> "ConvOp":
        """Weight-0 operator from {(src label, dst label): scalar} (x) unit."""
        out = {}
        for (u, w), c in entries.items():
            for al, cu in algebra.unit.items():
                out[(u, w, al)] = algebra.ring.mul(algebra.ring.coerce(c), cu)
        return ConvOp(algebra, src, dst, out)

    @staticmethod
    def from_mc(x: MCElement, algebra: DgAlgebra, v: GradedModule) -> "ConvOp":
        """The operator of an element of End(V) (x) A (labels ("E", u, w, a))."""
        return ConvOp(algebra, v, v,
                      {(u, w, al): c for (_, u, w, al), c in x.value.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "ConvOp") -> "ConvOp":
        return self._like(self.ring.axpy(dict(self.coeffs), 1, other.coeffs))

    def __sub__(self, other: "ConvOp") -> "ConvOp":
        return self._like(self.ring.axpy(dict(self.coeffs), -1, other.coeffs))

    def scale(self, c) -> "ConvOp":
        return self._like(self.ring.axpy({}, self.ring.coerce(c), self.coeffs))

    def compose(self, other: "ConvOp") -> "ConvOp":
        """self o other, other acting first."""
        if other.dst is not self.src and other.dst.labels != self.src.labels:
            raise DgError("composition endpoints do not match")
        ring = self.ring
        out = {}
        by_w0 = {}
        for (u0, w0, a0), c0 in other.coeffs.items():
            by_w0.setdefault(w0, []).append((u0, a0, c0))
        for (u1, w1, a1), c1 in self.coeffs.items():
            da1 = self.algebra.gm.degree[a1]
            for (u0, a0, c0) in by_w0.get(u1, ()):
                psi = other.dst.degree[u1] - other.src.degree[u0]
                sign = ring.sign(da1 * psi)
                prod = self.algebra.mul_labels(a1, a0)
                if prod:
                    ring.axpy(out, ring.mul(ring.mul(c1, c0), sign),
                              {(u0, w1, r): cr for r, cr in prod.items()})
        return self._like(out, other.src)

    def hom_d(self, x_src: "ConvOp", x_dst: "ConvOp") -> "ConvOp":
        """D(self) in Hom(V_src, V_dst) (x) A twisted by x_src and x_dst (:func:`_hom_diff`)."""
        if x_dst.src.labels != self.dst.labels or x_src.dst.labels != self.src.labels:
            raise DgError("composition endpoints do not match")
        return self._like(vec_apply(self.ring, _hom_diff(x_src, x_dst, self.coeffs), self.coeffs))

    def mc_residual(self) -> "ConvOp":
        """(1 (x) d)(x) + x o x = D_{0,x}(x): zero exactly when x is Maurer-Cartan."""
        return self.hom_d(self._like({}), self)

    def weight_split(self) -> dict:
        """Components by algebra degree (the filtration weight)."""
        parts = {}
        for key, c in self.coeffs.items():
            w = self.algebra.gm.degree[key[2]]
            parts.setdefault(w, {})[key] = c
        return {w: self._like(d) for w, d in parts.items()}

    def min_weight(self):
        return min((self.algebra.gm.degree[k[2]] for k in self.coeffs), default=None)

    def __eq__(self, other):
        return isinstance(other, ConvOp) and self.coeffs == other.coeffs

    def __repr__(self):
        return "ConvOp(%d terms)" % len(self.coeffs)


def _hom_diff(x_src: ConvOp, x_dst: ConvOp, keys) -> dict:
    """{(u, w, al): D(E_{u -> w} (x) al)} on keys, zero images left out, for the differential
    D f = (1 (x) d) f + x_dst o f - (-1)^{|f|} f o x_src of Hom(V, W) (x) A.  Products are
    signed as :meth:`ConvOp.compose` signs them: (-1)^{|cl| (|w| - |u|)} on a term (w, w1, cl)
    of x_dst, -(-1)^{|f| + |al| (|u| - |u0|)} on a term (u0, u, a0) of x_src."""
    a, ring = x_dst.algebra, x_dst.ring
    sdeg, ddeg, adeg, mult = x_src.src.degree, x_dst.dst.degree, a.gm.degree, a.mult
    after, before = {}, {}  # x_dst's terms by source (c at even, odd psi), x_src's by target
    for (w, w1, cl), c in x_dst.coeffs.items():
        after.setdefault(w, []).append((w1, cl, (c, ring.mul(ring.sign(adeg[cl]), c))))
    for (u0, u, a0), c in x_src.coeffs.items():
        before.setdefault(u, []).append((u0, a0, c, sdeg[u0]))
    out = {}
    for u, w, al in keys:
        psi = (ddeg[w] - sdeg[u]) % 2
        d = {(u, w, r): ring.neg(c) if psi else c for r, c in a.diff.get(al, {}).items()}
        for w1, cl, cs in after.get(w, ()):
            prod = mult.get((cl, al))
            if prod:
                ring.axpy(d, cs[psi], {(u, w1, r): cr for r, cr in prod.items()})
        for u0, a0, c, du0 in before.get(u, ()):
            prod = mult.get((al, a0))
            if prod:  # |f| + |al| (|u| - |u0|) = |w| - |u| + |al| (1 + |u| - |u0|)
                ring.axpy(d, ring.mul(ring.sign(psi + adeg[al] * (1 + sdeg[u] - du0) + 1), c),
                          {(u0, w, r): cr for r, cr in prod.items()})
        if d:
            out[(u, w, al)] = d
    return out


class TwistedModule:
    """(V (x) A, 1 (x) d + x) for a Maurer-Cartan twisting x, a ConvOp on V (x) A.

    x is checked once, as D_{0,x}(x) = 0 (:meth:`ConvOp.mc_residual`); a refusal reads
    as :class:`MCElement`'s for x in End(V) (x) A, on the labels ("E", u, w, a).
    """

    def __init__(self, v: GradedModule, algebra: DgAlgebra, x: ConvOp, name: str = ""):
        if v.ring != algebra.ring:
            raise DgError("module and algebra rings differ")
        if x.algebra is not algebra or x.src is not v or x.dst is not v:
            raise MCError("the twisting is not an operator on V (x) A")
        deg, adeg = v.degree, algebra.gm.degree
        if any(deg[w] - deg[u] + adeg[al] != 1 for u, w, al in x.coeffs):
            raise MCError("an MC candidate must be homogeneous of degree 1")
        res = x.mc_residual().coeffs
        if res:
            raise MCError("not Maurer-Cartan; residual %s"
                          % format_coeffs({("E",) + k: c for k, c in res.items()}))
        self.v = v
        self.algebra = algebra
        self.x = x
        self.name = name or "V(x)%s" % algebra.name

    def _differential(self) -> tuple:
        """(graded module, D = 1 (x) d + x): Hom(k, V) (x) A, untwisted at k, on the
        labels ("k", v, a), which :meth:`module` relabels (v, a) and cohomology never reads."""
        a, v = self.algebra, self.v
        k = GradedModule(a.ring, [("k", 0)])
        gm = GradedModule(a.ring, [(("k", vl, al), v.degree[vl] + a.gm.degree[al])
                                   for vl in v.labels for al in a.gm.labels])
        return gm, _hom_diff(ConvOp(a, k, k), self.x, gm.labels)

    def module(self) -> DgModule:
        """The dg module on basis (v, a) with D = 1 (x) d + x."""
        gm, diff = self._differential()
        a = self.algebra
        action = {}
        for (al, bl), prod in a.mult.items():
            for vl in self.v.labels:
                action[((vl, al), bl)] = {(vl, rl): c for rl, c in prod.items()}
        return DgModule(GradedModule(a.ring, [(l[1:], d) for l, d in gm.basis()]), a, action,
                        {l[1:]: {t[1:]: c for t, c in out.items()} for l, out in diff.items()},
                        name=self.name)

    def cohomology(self) -> CohomologyReport:
        gm, diff = self._differential()
        return cohomology(complex_of(gm.ring, gm, diff))

# ---------------------------------------------------------------------------
# degreewise matrices of hom twists, H^0 and the search layer
# ---------------------------------------------------------------------------


def _degree_matrix(m: DgModule, deg: int) -> tuple:
    """d: M^deg -> M^{deg+1} as (its columns {label: d(label)}, target labels)."""
    columns = {l: m.diff.get(l, {}) for l in m.gm.labels_of_degree(deg)}
    return columns, m.gm.labels_of_degree(deg + 1)


def closed_degree_zero(a: DgAlgebra, x: MCElement, y: MCElement):
    """Basis (as coefficient dicts) of {g in A^0 : dg + yg - gx = 0}, and
    the degree-0 labels."""
    columns, dst = _degree_matrix(hom_twist(a, x, y), 0)
    return solve_columns(a.ring, columns, dst)[1], list(columns)


@dataclass
class SearchResult:
    kind: str                      # "equivalent" | "distinguished" | "unknown"
    certificate: HomotopyGaugeCertificate | None = None
    gauge: Element | None = None   # invertible gauge when one was found
    invariants: dict = field(default_factory=dict)
    report: dict = field(default_factory=dict)


def twist_invariants(a: DgAlgebra, x: MCElement) -> dict:
    """Homotopy-gauge invariants of x: H of A^[x] and of A^x.

    The complexes are built from the twisted differentials alone; d^2 = 0 is
    checked once, by :func:`cohomology` (an input error naming the degree).
    """
    _require_mc(a, x)
    out = {}
    for key, right in (("module_twist", {}), ("algebra_twist", x.right_mult)):
        diff = _twisted_diff(a, x.left_mult, right, a.gm.labels)
        out[key] = cohomology(complex_of(a.ring, a.gm, diff))
    return out


def search_homotopy_gauge(a: DgAlgebra, x: MCElement, y: MCElement,
                          budget: int = 40, seed: int = 0) -> SearchResult:
    """Decide homotopy gauge equivalence where possible.

    Stage 1 compares computable invariants (cohomology of the module and
    algebra twists, with torsion over Z); a difference is a proof of
    distinction.  Stage 2 solves the linear condition (1) for g and hunts
    for an invertible solution (gauge equivalence); stage 3 samples closed
    g and solves the linear system for (h, wx, wy).  Equivalence is only
    ever reported with a certificate that re-verifies; exhausted budgets
    return Unknown, never a false claim.
    """
    rng = random.Random(seed)
    inv_x = twist_invariants(a, x)
    inv_y = twist_invariants(a, y)
    invariants = {"x": inv_x, "y": inv_y}
    for key in ("module_twist", "algebra_twist"):
        if inv_x[key] != inv_y[key]:
            return SearchResult("distinguished", invariants=invariants,
                                report={"differs": key})

    candidates, deg0 = closed_degree_zero(a, x, y)
    report = {"closed_degree0_dim": len(candidates), "samples": 0,
              "sample_bound": 1}
    if not candidates:
        return SearchResult("unknown", invariants=invariants, report=report)

    # basis candidates first, then random combinations whose bound doubles
    # after every len(candidates) + 1 trials; each is drawn when stage 2
    # reaches it, and the bound reported is the one the last trial leaves
    period = len(candidates) + 1
    n = len(candidates) + max(budget, 0)
    report["sample_bound"] = 2 ** (n // period)

    def draw():
        yield from (Element(a, cand) for cand in candidates)
        for k in range(period, n + 1):  # the k-th trial, counted from 1
            bound, out = 2 ** ((k - 1) // period), {}
            for cand in candidates:
                c = rng.randint(-bound, bound)
                if c:
                    a.ring.axpy(out, c, cand)
            yield Element(a, out)

    # stage 2: invertible solutions of condition (1) give gauge equivalence
    trials = []  # kept for stage 3
    for g in draw():
        trials.append(g)
        if g.is_zero():
            continue
        report["samples"] += 1
        ginv = algebra_inverse(a, g)
        if ginv is None:
            continue
        cert = HomotopyGaugeCertificate(g, ginv, a.zero(), a.zero())
        ok, _ = verify_homotopy_gauge(a, x, y, cert)
        if ok:
            return SearchResult("equivalent", certificate=cert, gauge=g,
                                invariants=invariants, report=report)

    # stage 3: homotopy gauge via a linear solve for (h, wx, wy) given g.
    # With A^-1 = 0, wx = wy = 0 and (3), (4) read hg = 1 = gh: g must be a
    # unit, and stage 2 has already tried every trial with algebra_inverse,
    # which finds a two-sided inverse whenever one exists
    if a.gm.labels_of_degree(-1):
        solve = _homotopy_solver(a, x, y)
        for g in trials:
            if g.is_zero():
                continue
            cert = solve(g)
            if cert is not None:
                ok, _ = verify_homotopy_gauge(a, x, y, cert)
                if ok:
                    return SearchResult("equivalent", certificate=cert,
                                        invariants=invariants, report=report)
    if a.ring.is_field:
        space = 2 * report["sample_bound"] + 1
        report["schwartz_zippel"] = {
            "det_degree_bound": len(deg0),
            "sample_space": space,
            "failure_probability_bound": "%d/%d" % (len(deg0), space),
        }
    return SearchResult("unknown", invariants=invariants, report=report)


def _homotopy_solver(a: DgAlgebra, x: MCElement, y: MCElement):
    """g -> a certificate solving conditions (2)-(4) for (h, wx, wy)
    linearly, or None; the blocks that do not hold g are built once, here."""
    ring = a.ring
    deg0 = list(a.gm.labels_of_degree(0))
    degm1 = list(a.gm.labels_of_degree(-1))
    unknowns = [("h", l) for l in deg0] + [("wx", l) for l in degm1] + \
        [("wy", l) for l in degm1]
    if not unknowns:
        return lambda g: None

    def place(columns, eq, unknown, block, f=lambda c: c):
        # the columns {l: {r: c}} of one block of unknowns, keyed as
        # (unknown, l) and (eq, r); no two blocks share an entry, so each is set
        for l, col in block.items():
            columns[(unknown, l)].update(((eq, r), f(c)) for r, c in col.items())

    fixed = {u: {} for u in unknowns}  # {(unknown, l): {(equation, r): c}}, the blocks without g
    # (2) dh + xh - hy = 0, coefficients per degree-1 label: A^[y,x] on A^0
    place(fixed, "c2", "h", _twisted_diff(a, x.left_mult, y.right_mult, deg0))
    # (3) hg - d^x(wx) = 1 and (4) gh - d^y(wy) = 1, d^x of A^[x,x] on A^-1
    place(fixed, "c3", "wx", _twisted_diff(a, x.left_mult, x.right_mult, degm1), ring.neg)
    place(fixed, "c4", "wy", _twisted_diff(a, y.left_mult, y.right_mult, degm1), ring.neg)
    rhs = {(eq, r): c for eq in ("c3", "c4") for r, c in a.unit.items()}

    def solve(g: Element):
        columns = {u: dict(col) for u, col in fixed.items()}
        l_g, g_l = a.right_mult(g.coeffs), a.left_mult(g.coeffs)  # {l: l g}, {l: g l}
        place(columns, "c3", "h", {l: l_g.get(l, {}) for l in deg0})
        place(columns, "c4", "h", {l: g_l.get(l, {}) for l in deg0})
        vals = solve_equations(ring, columns, rhs)
        if vals is None:
            return None
        h, wx, wy = (Element(a, {l: c for (t, l), c in vals.items() if t == tag})
                     for tag in ("h", "wx", "wy"))
        return HomotopyGaugeCertificate(g, h, wx, wy)
    return solve


# ---------------------------------------------------------------------------
# the homotopy category on a finite set of MC elements
# ---------------------------------------------------------------------------


class H0Category:
    """H^0 of the hom twists between a finite list of MC elements.

    For each pair (i, j) a basis of H^0(A^[x_i, x_j]) is computed over a
    field; classes compose through multiplication in A and the table
    records the structure constants.  ``isomorphic`` lists the pairs (both
    orders) that :func:`search_homotopy_gauge` certifies equivalent, run with
    ``seed``; a pair left off the list is distinguished or unknown.
    """

    def __init__(self, a: DgAlgebra, xs, seed: int = 0):
        if not a.ring.is_field:
            raise MCError("H^0 tables are computed over field coefficients")
        self.a = a
        self.xs = list(xs)
        self.ring = a.ring
        self.reps = {}       # (i, j) -> list of coefficient dicts
        self._exact = {}     # (i, j) -> coefficient dicts spanning the exact part
        n = len(self.xs)
        found = set()
        for i in range(n):
            for j in range(n):
                self._compute(i, j)
                if i != j and (i, j) not in found and search_homotopy_gauge(
                        a, self.xs[i], self.xs[j], seed=seed).kind == "equivalent":
                    found.update(((i, j), (j, i)))
        self.isomorphic = sorted(found)

    def _compute(self, i, j):
        hm = hom_twist(self.a, self.xs[i], self.xs[j])
        closed = solve_columns(self.ring, *_degree_matrix(hm, 0))[1]
        columns, src = _degree_matrix(hm, -1)
        exact = list(columns.values())
        # representatives: closed vectors independent modulo the exact span,
        # the pivot columns of rref([exact | closed]) among the closed ones
        _, pivots = rref(ExactMatrix.from_columns(self.ring, exact + closed, src))
        self.reps[(i, j)] = [closed[c - len(exact)] for c in pivots if c >= len(exact)]
        self._exact[(i, j)] = exact

    def h0_dim(self, i, j) -> int:
        return len(self.reps[(i, j)])

    def class_coordinates(self, i, j, element: Element):
        """Coordinates of a closed degree-0 element in the H^0 basis."""
        reps = self.reps[(i, j)]
        columns = {("rep", k): r for k, r in enumerate(reps)}
        columns.update((("exact", k), e) for k, e in enumerate(self._exact[(i, j)]))
        try:
            (sol,), _ = solve_columns(self.ring, columns, self.a.gm.labels_of_degree(0),
                                      [element.coeffs])
        except ExactLinalgError:  # a term off degree 0
            sol = None
        if sol is None:
            raise MCError("element is not closed of degree 0 in this hom twist")
        return [sol.get(("rep", k), 0) for k in range(len(reps))]

    def compose_classes(self, i, j, k, cj: int, ci: int):
        """[rep_{cj} of H^0(j,k)] o [rep_{ci} of H^0(i,j)] in H^0(i,k)."""
        g = Element(self.a, self.reps[(j, k)][cj])
        f = Element(self.a, self.reps[(i, j)][ci])
        return self.class_coordinates(i, k, g * f)

    def table(self):
        """All composition structure constants: (i, j, k, cj, ci) -> coords."""
        n = len(self.xs)
        out = {}
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for cj in range(self.h0_dim(j, k)):
                        for ci in range(self.h0_dim(i, j)):
                            out[(i, j, k, cj, ci)] = self.compose_classes(i, j, k, cj, ci)
        return out


def mc_category_h0(a: DgAlgebra, xs, seed: int = 0) -> H0Category:
    return H0Category(a, xs, seed=seed)
