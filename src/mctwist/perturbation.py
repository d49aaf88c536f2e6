"""Reduced and minimal twisted modules, perturbation and resolution lifts.

A twisted module (V (x) A, 1 (x) d + x) is *reduced* when the A^0-part of
the twisting is d0 (x) 1 for a differential d0 on V, and *minimal* when
d0 = 0.  Over a field, an abstract Hodge decomposition (s, t) of (V, d0)
feeds the homological perturbation lemma: the weight-raising part d' of
the twisting transfers to the harmonic part H(V) with twisting

    t d' (1 + s d')^{-1} t,

and the geometric series terminates because d' raises the (bounded)
algebra-degree filtration.  All outputs -- the minimal twisting, the two
comparison maps and the homotopy -- are verified equationally and exactly.

Twistings and the operators between twisted modules are
:class:`~mctwist.mc.ConvOp` convolution matrices: sparse dicts
{(src label, dst label, algebra label): coefficient} meaning
sum E_{src -> dst} (x) a, composed with the Koszul sign
(-1)^{|a| |psi|} where psi is the matrix part of the right factor.  Every
module built here is a :class:`~mctwist.mc.TwistedModule` on such a
twisting, checked once as D_{0,x}(x) = 0 by :meth:`~mctwist.mc.ConvOp.hom_d`, the
one differential of every twisted Hom complex; no End(V) (x) A is built.  The
stage solves of a free resolution lift read their columns from it too.
"""

from __future__ import annotations

from .dgcore import DgAlgebra, GradedModule, ground_dga
from .exactlinalg import (ExactLinalgError, ExactMatrix, InputError, Ring, rref, solve_columns,
                          solve_equations)
from .mc import ConvOp, TwistedModule, _hom_diff


class PerturbationError(InputError):
    pass


def geometric_inverse(one: ConvOp, n: ConvOp, bound: int) -> ConvOp:
    """(1 + n)^{-1} = sum (-n)^k for a weight-raising nilpotent n."""
    mw = n.min_weight()
    if not n.is_zero() and (mw is None or mw < 1):
        raise PerturbationError("series term does not raise the filtration")
    acc = one
    power = one
    for _ in range(bound + 1):
        power = power.compose(n).scale(-1)
        if power.is_zero():
            break
        acc = acc + power
    else:
        if not power.is_zero():
            raise PerturbationError("geometric series failed to terminate")
    return acc


# ---------------------------------------------------------------------------
# reduced and minimal twisted modules
# ---------------------------------------------------------------------------


class ReducedTwistedModule:
    """A twisted module whose A^0 twisting component is d0 (x) unit."""

    def __init__(self, tw: TwistedModule, d0_entries: dict):
        self.tw = tw
        self.algebra = tw.algebra
        self.v = tw.v
        self.ring = tw.algebra.ring
        self.d0 = dict(d0_entries)
        want = ConvOp.from_matrix(tw.algebra, tw.v, tw.v, self.d0)
        if tw.x.weight_split().get(0, ConvOp(tw.algebra, tw.v, tw.v)) != want:
            raise PerturbationError("A^0 component of the twisting is not d0 (x) 1")
        if not want.compose(want).is_zero():
            raise PerturbationError("d0 does not square to zero")

    @property
    def d_prime(self) -> ConvOp:
        """The weight-raising part of the twisting."""
        deg = self.algebra.gm.degree
        return ConvOp(self.algebra, self.v, self.v,
                      {k: c for k, c in self.tw.x.coeffs.items() if deg[k[2]] >= 1})


def reduced_component(tw: TwistedModule):
    """Extract d0 entries when the weight-0 twisting is induced from V.

    Returns the entry dict or None when the module is not reduced.
    """
    ring = tw.algebra.ring
    zero_part = tw.x.weight_split().get(0)
    if zero_part is None:
        return {}
    unit = tw.algebra.unit
    if not unit:  # a zero unit: c (x) 1 is zero for every c
        return None
    entries = {}
    # the weight-0 part must equal sum_{(u,w)} c_{uw} E_{u->w} (x) unit
    al0, cu0 = next(iter(sorted(unit.items(), key=str)))
    seen_pairs = {(u, w) for (u, w, al) in zero_part.coeffs}
    for (u, w) in seen_pairs:
        c = zero_part.coeffs.get((u, w, al0), ring.zero())
        if cu0 != ring.one():
            try:
                c = ring.div(c, cu0)
            except ExactLinalgError:  # cu0 does not divide c over Z
                return None
        if c != 0:
            entries[(u, w)] = c
    return entries if ConvOp.from_matrix(tw.algebra, tw.v, tw.v, entries) == zero_part else None


def is_reduced(tw: TwistedModule) -> bool:
    return reduced_component(tw) is not None


def is_minimal(tw: TwistedModule) -> bool:
    return tw.x.weight_split().get(0) is None


# ---------------------------------------------------------------------------
# abstract Hodge decompositions
# ---------------------------------------------------------------------------


class HodgeData:
    """Operators (s, t) with d0 s + s d0 = 1 - t, t^2 = t, st = ts = 0, s^2 = 0,
    and the projection p onto the harmonic basis, with t = i p."""

    def __init__(self, s_entries: dict, t_entries: dict, harmonic_basis: list,
                 p_entries: dict):
        self.s = dict(s_entries)
        self.t = dict(t_entries)
        self.harmonic_basis = harmonic_basis  # list of (("h", degree, k), {V label: c})
        self.p = dict(p_entries)             # {(V label, harmonic label): c}


def _by_source(ring: Ring, entries: dict) -> dict:
    # operator entries {(u, w): c} as columns {u: {w: c}}, coerced
    out = {}
    for (u, w), c in entries.items():
        out.setdefault(u, {})[w] = ring.coerce(c)
    return out


def hodge_data(v: GradedModule, d0_entries: dict) -> HodgeData:
    """Split (V, d0) over a field into harmonic, exact and coexact parts.

    Working degree by degree, ker d0 = H (+) im d0 and a complement U with
    d0: U ~ im d0 are read off one rref of the columns

        [d0 from the degree below | kernel of d0 | identity]:

    its pivot columns in the three blocks are the image vectors, the
    harmonic vectors H and the unit vectors spanning U, each chosen greedily
    left to right.  Together they are a basis, so the identity block of the
    rref holds the coordinates of each unit vector in it.  s inverts d0 on
    the image and kills H (+) U, p reads the harmonic coordinates and t is
    the projection onto H.
    """
    ring = v.ring
    if not ring.is_field:
        raise PerturbationError("Hodge decompositions need field coefficients")
    d0 = _by_source(ring, d0_entries)

    def columns(deg):
        # d0 on the labels of degree deg, its terms in degree deg + 1 only
        return {u: {w: c for w, c in d0.get(u, {}).items() if v.degree[w] == deg + 1}
                for u in v.labels_of_degree(deg)}

    s_mat = {}
    t_mat = {}
    p_mat = {}
    harmonic_basis = []
    for deg in v.degrees():
        src = v.labels_of_degree(deg)
        ker = solve_columns(ring, columns(deg), v.labels_of_degree(deg + 1))[1]
        psrc, image = v.labels_of_degree(deg - 1), list(columns(deg - 1).values())
        p, nk = len(image), len(ker)
        r, pivots = rref(ExactMatrix.from_columns(
            ring, image + ker + [{l: ring.one()} for l in src], src))
        pre = [psrc[c] for c in pivots if c < p]
        harmonic = [ker[c - p] for c in pivots if p <= c < p + nk]
        ni, nh = len(pre), len(harmonic)
        for j, l in enumerate(src):
            # rows 0..ni-1 of r are image coordinates, the next nh harmonic
            coords = [r.get(i, p + nk + j) for i in range(ni + nh)]
            for k, (c, vec) in enumerate(zip(coords[ni:], harmonic)):
                if c:
                    ring.axpy(t_mat, c, {(l, w): e for w, e in vec.items()})
                    p_mat[(l, ("h", deg, k))] = c
            # the keys (l, pre[k]) are new to s_mat: its entries are set once
            s_mat.update(((l, pre[k]), c) for k, c in enumerate(coords[:ni]) if c != 0)
        harmonic_basis += [(("h", deg, k), vec) for k, vec in enumerate(harmonic)]
    return HodgeData(s_mat, t_mat, harmonic_basis, p_mat)


def check_hodge(v: GradedModule, d0_entries: dict, h: HodgeData) -> bool:
    a = ground_dga(v.ring)
    gm = v
    d0 = ConvOp.from_matrix(a, gm, gm, d0_entries)
    s = ConvOp.from_matrix(a, gm, gm, h.s)
    t = ConvOp.from_matrix(a, gm, gm, h.t)
    one = ConvOp.identity(a, gm)
    return (d0.compose(s) + s.compose(d0) == one - t
            and t.compose(t) == t
            and s.compose(t).is_zero() and t.compose(s).is_zero()
            and s.compose(s).is_zero())


# ---------------------------------------------------------------------------
# the perturbation lemma
# ---------------------------------------------------------------------------


class MinimalModel:
    def __init__(self, minimal: TwistedModule, include: ConvOp, project: ConvOp,
                 homotopy: ConvOp, hodge: HodgeData):
        self.minimal = minimal
        self.include = include
        self.project = project
        self.homotopy = homotopy
        self.hodge = hodge


def minimal_model(rtm: ReducedTwistedModule) -> MinimalModel:
    """Transfer a reduced twisted module to a minimal one over a field.

    Every postcondition is verified exactly before returning: the output
    twisting is MC with no weight-0 part, the comparison maps are closed,
    p o i = 1, and 1 - i o p is the Hom-differential of the homotopy.
    """
    a = rtm.algebra
    ring = a.ring
    if not ring.is_field:
        raise PerturbationError("minimal models are computed over fields")
    v = rtm.v
    h = hodge_data(v, rtm.d0)
    if not check_hodge(v, rtm.d0, h):
        raise PerturbationError("Hodge data fails its identities")
    hg = GradedModule(ring, [(lbl, lbl[1]) for lbl, _ in h.harmonic_basis])
    # inclusion/projection between H(V) and V as weight-0 operators
    i_h = ConvOp.from_matrix(a, hg, v, {(lbl, w): c for lbl, vec in h.harmonic_basis
                                        for w, c in vec.items()})
    p_h = ConvOp.from_matrix(a, v, hg, h.p)

    s_op = ConvOp.from_matrix(a, v, v, h.s)
    t_op = ConvOp.from_matrix(a, v, v, h.t)
    one_v = ConvOp.identity(a, v)
    one_h = ConvOp.identity(a, hg)
    d_prime = rtm.d_prime
    bound = len(a.gm.degrees()) + 2

    p_series = geometric_inverse(one_v, s_op.compose(d_prime), bound)   # (1 + s d')^{-1}
    q_series = geometric_inverse(one_v, d_prime.compose(s_op), bound)   # (1 + d' s)^{-1}

    sigma = d_prime.compose(p_series)              # d'(1 + s d')^{-1}
    x2 = p_h.compose(t_op.compose(sigma).compose(t_op)).compose(i_h)
    include = p_series.compose(t_op).compose(i_h)
    project = p_h.compose(t_op).compose(q_series)
    homotopy = p_series.compose(s_op)

    minimal = TwistedModule(hg, a, x2, name="minimal model")

    x_op = rtm.tw.x
    checks = {
        "minimal": is_minimal(minimal),
        "include_closed": include.hom_d(x2, x_op).is_zero(),
        "project_closed": project.hom_d(x_op, x2).is_zero(),
        "p_i_identity": project.compose(include) == one_h,
        "homotopy": (one_v - include.compose(project)
                     - homotopy.hom_d(x_op, x_op)).is_zero(),
    }
    if not all(checks.values()):
        raise PerturbationError("perturbation output failed verification: %r"
                                % ({k: v for k, v in checks.items() if not v},))
    return MinimalModel(minimal, include, project, homotopy, h)


# ---------------------------------------------------------------------------
# rigidity: invertibility of closed maps between minimal modules
# ---------------------------------------------------------------------------


def minimal_iso_check(f: ConvOp, src: TwistedModule, dst: TwistedModule):
    """Decide strict invertibility of a closed degree-0 map of minimal modules.

    By minimality the weight filtration is exhaustive: f is invertible iff
    its weight-0 block is, and then the inverse is the terminating series
    (1 + n)^{-1} g0 with n = g0 (f - f0) of positive weight.  Returns
    (True, inverse) or (False, None); the inverse is verified two-sided.
    """
    if not (is_minimal(src) and is_minimal(dst)):
        raise PerturbationError("rigidity check needs minimal modules")
    a = src.algebra
    bad = [f.dst.degree[w] - f.src.degree[u] + a.gm.degree[al] for u, w, al in f.coeffs]
    if any(bad):
        raise PerturbationError("map has a term of degree %d, not 0" % next(filter(None, bad)))
    if not f.hom_d(src.x, dst.x).is_zero():
        raise PerturbationError("map is not closed of degree 0")
    f0 = f.weight_split().get(0, ConvOp(a, src.v, dst.v))
    g0 = _invert_weight_zero(a, f0, src.v, dst.v)
    if g0 is None:
        return False, None
    one_src = ConvOp.identity(a, src.v)
    n = g0.compose(f - f0)
    bound = len(a.gm.degrees()) + 2
    series = geometric_inverse(one_src, n, bound)
    inv = series.compose(g0)
    if inv.compose(f) == one_src and f.compose(inv) == ConvOp.identity(a, dst.v):
        return True, inv
    return False, None


def _invert_weight_zero(a: DgAlgebra, f0: ConvOp, vsrc: GradedModule, vdst: GradedModule):
    """The inverse g of a weight-0 operator, by linear solve over A^0, or None.

    It solves f0 o g = 1 alone: a one-sided inverse of a square matrix over
    the finite-rank A^0 (over Z, inside A^0 (x) Q) is two-sided, so the
    solution is unique and is the two-sided inverse.
    """
    ring = a.ring
    deg0 = list(a.gm.labels_of_degree(0))
    if len(vsrc.labels) != len(vdst.labels):
        return None
    # the column of an unknown g-entry is its composite f0 o g, linear in g
    columns = {key: f0.compose(ConvOp(a, vdst, vsrc, {key: ring.one()})).coeffs
               for key in ((u, w, al) for u in vdst.labels for w in vsrc.labels for al in deg0)}
    sol = solve_equations(ring, columns, ConvOp.identity(a, vdst).coeffs)
    return None if sol is None else ConvOp(a, vdst, vsrc, sol)


# ---------------------------------------------------------------------------
# free resolution lifts over Z
# ---------------------------------------------------------------------------


def lift_to_free_resolution(a: DgAlgebra, w_gm: GradedModule, d_w_entries: dict,
                            w1: ConvOp) -> TwistedModule:
    """Extend d_W + w1 to a square-zero twisting of W (x) A over Z.

    ``w1`` must be a weight-1 chain map ([d_W, w1] = 0) lifting the local
    system's edge action.  The higher corrections w_k solve

        [d_W, w_k] = -((1 (x) d)(w_{k-1}) + sum_{i+j=k, i,j>=1} w_i w_j)

    degreewise by exact linear solve; an unsolvable stage k (a nonzero
    obstruction class in H^{2-k} End(W) (x) A^k, where H^{2-k} End(W) =
    Ext^{2-k}(V, V)) is reported.  The result is verified MC exactly.
    """
    d_w = ConvOp.from_matrix(a, w_gm, w_gm, d_w_entries)
    if not d_w.compose(d_w).is_zero():
        raise PerturbationError("d_W does not square to zero")
    # graded commutator [d_W (x) 1, w1] for w1 of total degree 1 is the
    # anticommutator in convolution; the Koszul sign inside compose already
    # accounts for the tensor factors, so this is the chain-map condition.
    comm = d_w.compose(w1) + w1.compose(d_w)
    if not comm.is_zero():
        raise PerturbationError("w1 is not a chain map over d_W")
    ring, wdeg, adeg = a.ring, w_gm.degree, a.gm.degree
    ws, zero = {0: d_w, 1: w1}, ConvOp(a, w_gm, w_gm)
    top = max(a.gm.degrees())
    for k in range(2, top + 1 + 1):
        rest = ws[k - 1].hom_d(zero, zero)  # (1 (x) d)(w_{k-1})
        for i in range(1, k):
            rest = rest + ws[i].compose(ws[k - i])
        if rest.is_zero():
            ws[k] = zero
            continue
        # a column per unknown E_{u -> w} (x) al of weight k and degree 1, in the
        # (u, w, al) order that fixes the solution picked over Z; for such an f,
        # [d_W, f] = d_W f + f d_W = D_{d_W,d_W}(f) - (1 (x) d)(f)
        keys = [(u, w, al) for u in w_gm.labels for w in w_gm.labels for al in a.gm.labels
                if adeg[al] == k and wdeg[w] - wdeg[u] + k == 1]
        twisted, plain = _hom_diff(d_w, d_w, keys), _hom_diff(zero, zero, keys)
        sol = solve_equations(ring, {key: ring.axpy(twisted.get(key, {}), -1, plain.get(key, {}))
                                     for key in keys}, rest.scale(-1).coeffs)
        if sol is None:
            raise PerturbationError("obstruction class nonzero at stage %d" % k)
        ws[k] = ConvOp(a, w_gm, w_gm, sol)
    x_total = zero
    for k, op in ws.items():
        x_total = x_total + op
    return TwistedModule(w_gm, a, x_total, name="resolution lift")


# ---------------------------------------------------------------------------
# canonical truncation
# ---------------------------------------------------------------------------


def truncate_twisted(rtm: ReducedTwistedModule, i: int):
    """tau_{<= i}: kernel truncation of (V, d0), with the inclusion map.

    Over the exact rings here (fields and the PID Z) the kernel is a free
    summand-basis, so the truncated twisted module exists directly; the
    restricted twisting is expressed in the kernel basis by exact solves
    off one factorization of that basis.
    Returns (TwistedModule, inclusion ConvOp).
    """
    a = rtm.algebra
    ring = a.ring
    v = rtm.v
    d0 = _by_source(ring, rtm.d0)
    new_vectors = []  # (label, degree, vector over V as {label: c})
    for deg in v.degrees():
        if deg < i:
            for l in v.labels_of_degree(deg):
                new_vectors.append((("t", l), deg, {l: ring.one()}))
        elif deg == i:
            kernel = solve_columns(ring, {c: d0.get(c, {}) for c in v.labels_of_degree(deg)},
                                   v.labels)[1]
            new_vectors += [(("ker", i, k), deg, kv) for k, kv in enumerate(kernel)]
    if not new_vectors:
        vgm = GradedModule(ring, [])
        return TwistedModule(vgm, a, ConvOp(a, vgm, vgm),
                             name="tau_<=%d (zero)" % i), ConvOp(a, vgm, v)
    vgm = GradedModule(ring, [(lbl, deg) for lbl, deg, _ in new_vectors])
    inc = ConvOp.from_matrix(a, vgm, v, {(lbl, w): c for lbl, _, vec in new_vectors
                                         for w, c in vec.items()})
    # restricted twisting: solve x o inc = inc o x' for x'
    x = rtm.tw.x
    ximg = x.compose(inc)
    # group image terms by (source new label, algebra label); one factorization
    # of the new basis gives every group's coordinates, unique by its full column rank
    grouped = {}
    for (u, w, al), c in ximg.coeffs.items():
        grouped.setdefault((u, al), {})[w] = c
    sols, _ = solve_columns(ring, {lbl: vec for lbl, _, vec in new_vectors}, v.labels,
                            list(grouped.values()))
    if None in sols:
        raise PerturbationError("twisting does not preserve the truncation")
    xprime = {(u, lbl, al): c for (u, al), sol in zip(grouped, sols) for lbl, c in sol.items()}
    out = TwistedModule(vgm, a, ConvOp(a, vgm, vgm, xprime), name="tau_<=%d" % i)
    if not inc.hom_d(out.x, x).is_zero():
        raise PerturbationError("internal: truncation inclusion is not closed")
    return out, inc


def truncate_above(rtm: ReducedTwistedModule, i: int):
    """tau_{>= i}: the cone of the inclusion tau_{<= i-1} M -> M.

    Returned as a twisted module on V'[1] (+) V whose twisting carries the
    inclusion in the off-diagonal block; verified MC at construction.
    """
    a = rtm.algebra
    ring = a.ring
    low, inc = truncate_twisted(rtm, i - 1)
    basis = [(("C", l), d - 1) for l, d in low.v.basis()]
    basis += [(("M", l), d) for l, d in rtm.v.basis()]
    gm = GradedModule(ring, basis)
    coeffs = {}
    for (u, w, al), c in low.x.coeffs.items():
        coeffs[(("C", u), ("C", w), al)] = ring.neg(c)
    for (u, w, al), c in rtm.tw.x.coeffs.items():
        coeffs[(("M", u), ("M", w), al)] = c
    for (u, w, al), c in inc.coeffs.items():
        coeffs[(("C", u), ("M", w), al)] = c
    return TwistedModule(gm, a, ConvOp(a, gm, gm, coeffs), name="tau_>=%d" % i)
