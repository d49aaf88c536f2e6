"""Finite simplicial sets, normalized cochain algebras and local systems.

Simplicial sets are stored as a semisimplicial core with degeneracy
tracking: only nondegenerate simplices are materialized, and every face is
recorded as a pair (nondegenerate target, monotone surjection).  By the
Eilenberg-Zilber lemma any simplex has a unique normal form s*(tau) with
tau nondegenerate and s a monotone surjection, so this data determines the
full simplicial set, and it is all the normalized theory ever consults.

The cochain differential convention is (d phi)(sigma) = phi(boundary sigma)
with no extra sign; degenerate faces contribute zero.  The cup product is
Alexander-Whitney: (phi . psi)(sigma) = phi(front) psi(back), with
degenerate front or back faces evaluating to zero.  Under these choices
the Leibniz rule is a verified property of every constructed algebra, not
an assumption.
"""

from __future__ import annotations

import itertools

from .dgcore import DgAlgebra, DgModule, GradedModule, ground_dga
from .exactlinalg import ExactMatrix, Ring


class SimplicialError(ValueError):
    pass


# ---------------------------------------------------------------------------
# monotone maps as value tuples: f: [n] -> [m] is (f(0), ..., f(n))
# ---------------------------------------------------------------------------


def identity_map(n: int) -> tuple:
    return tuple(range(n + 1))


def delta(i: int, n: int) -> tuple:
    """The injection [n-1] -> [n] skipping i."""
    return tuple(v if v < i else v + 1 for v in range(n))


def compose_maps(outer: tuple, inner: tuple) -> tuple:
    """(outer o inner)(i) = outer[inner[i]]."""
    return tuple(outer[v] for v in inner)


def is_surjection(f: tuple, m: int) -> bool:
    return set(f) == set(range(m + 1))


class FiniteSimplicialSet:
    """Nondegenerate simplices per dimension plus degeneracy-tracking faces."""

    def __init__(self, name: str = ""):
        self.name = name
        self.simplices = {}   # dim -> list of labels
        self.dim_of = {}      # label -> dim
        self.faces = {}       # (label, i) -> (label', surjection tuple)

    def add_simplex(self, label, dim: int, faces=None):
        if label in self.dim_of:
            raise SimplicialError("duplicate simplex label %r" % (label,))
        self.dim_of[label] = dim
        self.simplices.setdefault(dim, []).append(label)
        if dim > 0:
            if faces is None or len(faces) != dim + 1:
                raise SimplicialError("need %d faces for %r" % (dim + 1, label))
            for i, fc in enumerate(faces):
                if isinstance(fc, tuple) and len(fc) == 2 and fc[0] in self.dim_of \
                        and isinstance(fc[1], tuple):
                    target, surj = fc
                else:
                    target, surj = fc, identity_map(dim - 1)
                if target not in self.dim_of:
                    raise SimplicialError("face %r of %r not yet added" % (target, label))
                if len(surj) != dim or not is_surjection(surj, self.dim_of[target]):
                    raise SimplicialError("bad degeneracy word on face %d of %r" % (i, label))
                self.faces[(label, i)] = (target, surj)

    @property
    def dimension(self) -> int:
        return max((d for d, ls in self.simplices.items() if ls), default=-1)

    def nondegenerate(self, dim=None):
        if dim is None:
            return [l for d in sorted(self.simplices) for l in self.simplices[d]]
        return list(self.simplices.get(dim, []))

    def f_vector(self):
        return tuple(len(self.simplices.get(d, [])) for d in range(self.dimension + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(ls) for d, ls in self.simplices.items())

    # -- normal forms -----------------------------------------------------------

    def pullback(self, label, mono: tuple):
        """Normal form of sigma o mono for nondegenerate sigma and monotone mono.

        Returns (tau, surj) with tau nondegenerate and surj a monotone
        surjection such that sigma o mono = surj*(tau).
        """
        n = self.dim_of[label]
        if any(mono[i] > mono[i + 1] for i in range(len(mono) - 1)) or \
                (mono and (mono[0] < 0 or mono[-1] > n)):
            raise SimplicialError("map %r is not monotone into [%d]" % (mono, n))
        image = sorted(set(mono))
        if len(image) == n + 1:
            return label, mono
        missing = max(v for v in range(n + 1) if v not in set(mono))
        target, s1 = self.faces[(label, missing)]
        reduced = tuple(v if v < missing else v - 1 for v in mono)
        return self.pullback(target, compose_maps(s1, reduced))

    def face(self, state, i: int):
        """Face of a (label, surjection) state, normalized."""
        label, surj = state
        n = len(surj) - 1
        return self.pullback_state(state, delta(i, n))

    def pullback_state(self, state, mono: tuple):
        label, surj = state
        return self.pullback(label, compose_maps(surj, mono))

    def nondegenerate_face(self, label, i: int):
        """The i-th face of a nondegenerate simplex, or None if degenerate."""
        target, surj = self.faces[(label, i)]
        if surj == identity_map(self.dim_of[target]):
            return target
        return None

    def check_simplicial_identities(self):
        """d_i d_j = d_{j-1} d_i for i < j, on normalized representatives."""
        bad = []
        for label, n in self.dim_of.items():
            if n < 2:
                continue
            state = (label, identity_map(n))
            for j in range(n + 1):
                for i in range(j):
                    a = self.face(self.face(state, j), i)
                    b = self.face(self.face(state, i), j - 1)
                    if a != b:
                        bad.append((label, i, j, a, b))
        return bad

    def __repr__(self):
        return "FiniteSimplicialSet(%s, f=%r)" % (self.name or "?", self.f_vector())


def from_ordered_complex(vertices, simplices, name: str = "") -> FiniteSimplicialSet:
    """Simplicial set of a vertex-ordered abstract simplicial complex.

    Every simplex is an ascending vertex tuple; all faces are nondegenerate
    and lower-dimensional faces are generated automatically.

    >>> s = from_ordered_complex([0, 1, 2], [(0, 1, 2)])
    >>> s.f_vector()
    (3, 3, 1)
    """
    order = {v: i for i, v in enumerate(vertices)}
    if len(order) != len(vertices):
        raise SimplicialError("duplicate vertices")
    closure = set()
    for s in simplices:
        s = tuple(s)
        if len(set(s)) != len(s):
            raise SimplicialError("simplex %r has repeated vertices" % (s,))
        if any(order[s[i]] >= order[s[i + 1]] for i in range(len(s) - 1)):
            raise SimplicialError("simplex %r is not ascending" % (s,))
        for k in range(1, len(s) + 1):
            for sub in itertools.combinations(s, k):
                closure.add(sub)
    for v in vertices:
        closure.add((v,))
    sset = FiniteSimplicialSet(name)
    for s in sorted(closure, key=lambda t: (len(t), tuple(order[v] for v in t))):
        dim = len(s) - 1
        faces = [s[:i] + s[i + 1:] for i in range(len(s))] if dim > 0 else None
        sset.add_simplex(s, dim, faces)
    return sset


def simplex(n: int) -> FiniteSimplicialSet:
    """The standard n-simplex as an ordered complex."""
    return from_ordered_complex(list(range(n + 1)), [tuple(range(n + 1))],
                                name="Delta^%d" % n)


def boundary_simplex(n: int) -> FiniteSimplicialSet:
    faces = [tuple(v for v in range(n + 1) if v != i) for i in range(n + 1)]
    return from_ordered_complex(list(range(n + 1)), faces, name="dDelta^%d" % n)


def circle(k: int) -> FiniteSimplicialSet:
    """A k-vertex triangulated circle (k >= 3), edges ascending plus a closing edge."""
    if k < 3:
        raise SimplicialError("need at least 3 vertices")
    edges = [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)]
    return from_ordered_complex(list(range(k)), edges, name="circle%d" % k)


def torus7() -> FiniteSimplicialSet:
    """The 7-vertex (Csaszar) torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7."""
    tris = []
    for i in range(7):
        tris.append(tuple(sorted(((i) % 7, (i + 1) % 7, (i + 3) % 7))))
        tris.append(tuple(sorted(((i) % 7, (i + 2) % 7, (i + 3) % 7))))
    return from_ordered_complex(list(range(7)), sorted(set(tris)), name="torus7")


def point() -> FiniteSimplicialSet:
    return from_ordered_complex(["*"], [], name="point")


# ---------------------------------------------------------------------------
# nerves of finite categories
# ---------------------------------------------------------------------------


class FiniteCategory:
    """A finite category with a complete composition table.

    ``arrows`` maps name -> (source object, target object); ``identities``
    maps object -> its identity arrow name; ``comp`` maps (g, f) with
    f: a -> b, g: b -> c to the name of g o f.  Pairs involving identities
    may be omitted from the table.
    """

    def __init__(self, objects, arrows, identities, comp):
        self.objects = list(objects)
        self.arrows = dict(arrows)
        self.identities = dict(identities)
        self.comp = dict(comp)
        for o, i in identities.items():
            if self.arrows[i] != (o, o):
                raise SimplicialError("identity of %r has wrong endpoints" % (o,))

    def source(self, f):
        return self.arrows[f][0]

    def target(self, f):
        return self.arrows[f][1]

    def is_identity(self, f):
        return self.identities.get(self.arrows[f][0]) == f and \
            self.arrows[f][0] == self.arrows[f][1]

    def compose(self, g, f):
        """g o f, requiring target(f) = source(g)."""
        if self.target(f) != self.source(g):
            raise SimplicialError("arrows %r, %r not composable" % (g, f))
        if self.is_identity(f):
            return g
        if self.is_identity(g):
            return f
        out = self.comp.get((g, f))
        if out is None:
            raise SimplicialError("composition table incomplete at (%r, %r)" % (g, f))
        return out


def interval_groupoid() -> FiniteCategory:
    """Two objects with mutually inverse arrows u and ui between them."""
    return FiniteCategory(
        objects=["O1", "O2"],
        arrows={"id1": ("O1", "O1"), "id2": ("O2", "O2"),
                "u": ("O1", "O2"), "ui": ("O2", "O1")},
        identities={"O1": "id1", "O2": "id2"},
        comp={("ui", "u"): "id1", ("u", "ui"): "id2"},
    )


def one_arrow_category() -> FiniteCategory:
    return FiniteCategory(
        objects=["O1", "O2"],
        arrows={"id1": ("O1", "O1"), "id2": ("O2", "O2"), "u": ("O1", "O2")},
        identities={"O1": "id1", "O2": "id2"},
        comp={},
    )


def trivial_category() -> FiniteCategory:
    return FiniteCategory(["O"], {"id": ("O", "O")}, {"O": "id"}, {})


def nerve(cat: FiniteCategory, cap: int, name: str = "") -> FiniteSimplicialSet:
    """The nerve, with nondegenerate simplices enumerated up to dimension cap.

    An n-simplex is a composable string (f_n, ..., f_1), f_1 first; it is
    nondegenerate exactly when no f_i is an identity.  Inner faces compose
    adjacent arrows through the category's table; a composite that is an
    identity folds the face into a degeneracy of a lower simplex.
    """
    sset = FiniteSimplicialSet(name or "nerve")
    for o in cat.objects:
        sset.add_simplex(("@", o), 0)

    def normal_form(string):
        # strip identity arrows, recording the monotone surjection on vertices
        n = len(string)
        kept = [f for f in string if not cat.is_identity(f)]
        surj = [0]
        for f in reversed(string):  # vertex walk: v_0 .. v_n follows f_1 .. f_n
            step = 0 if cat.is_identity(f) else 1
            surj.append(surj[-1] + step)
        label = ("@", cat.source(string[-1])) if not kept else ("#",) + tuple(kept)
        return label, tuple(surj)

    nondeg = {0: [("@", o) for o in cat.objects]}
    strings = {1: [("#", f) for f in cat.arrows if not cat.is_identity(f)]}
    for f in strings.get(1, []):
        src = ("@", cat.source(f[1]))
        dst = ("@", cat.target(f[1]))
        sset.add_simplex(f, 1, [dst, src])
    for n in range(2, cap + 1):
        new = []
        for prev in strings.get(n - 1, []):
            chain = prev[1:]
            first = chain[-1]
            for f in cat.arrows:
                if cat.is_identity(f):
                    continue
                if cat.target(f) == cat.source(first):
                    new.append(("#",) + chain + (f,))
        strings[n] = new
        for s in new:
            chain = s[1:]  # (f_n, ..., f_1)
            faces = []
            for i in range(n + 1):
                if i == 0:
                    raw = chain[:-1]
                elif i == n:
                    raw = chain[1:]
                else:
                    k = n - i  # compose f_{i+1} o f_i at slot k in the tuple
                    comp = cat.compose(chain[k - 1], chain[k])
                    raw = chain[:k - 1] + (comp,) + chain[k + 1:]
                faces.append(normal_form(raw))
            sset.add_simplex(s, n, faces)
    return sset


# ---------------------------------------------------------------------------
# normalized cochain algebras
# ---------------------------------------------------------------------------


def cochain_algebra(sset: FiniteSimplicialSet, ring: Ring, max_degree=None,
                    name: str = "") -> DgAlgebra:
    """Normalized cochains with the Alexander-Whitney product.

    Truncating at ``max_degree`` returns the cochain algebra of the
    max_degree-skeleton, which is a genuine dg algebra; by default the full
    (finite) dimension is used.
    """
    top = sset.dimension if max_degree is None else min(max_degree, sset.dimension)
    labels = [l for d in range(top + 1) for l in sset.nondegenerate(d)]
    gm = GradedModule(ring, [(l, sset.dim_of[l]) for l in labels])
    unit = {l: 1 for l in sset.nondegenerate(0)}
    diff = {}
    for d in range(1, top + 1):
        for tau in sset.nondegenerate(d):
            for i in range(d + 1):
                src = sset.nondegenerate_face(tau, i)
                if src is None:
                    continue
                row = diff.setdefault(src, {})
                row[tau] = row.get(tau, 0) + (-1) ** i
    mult = {}
    for rho in labels:
        n = sset.dim_of[rho]
        for p in range(n + 1):
            front, fs = sset.pullback(rho, tuple(range(p + 1)))
            if fs != identity_map(p):
                continue
            back, bs = sset.pullback(rho, tuple(range(p, n + 1)))
            if bs != identity_map(n - p):
                continue
            row = mult.setdefault((front, back), {})
            row[rho] = row.get(rho, 0) + 1
    filtration = {l: sset.dim_of[l] for l in labels}
    return DgAlgebra(gm, unit, mult, diff, filtration=filtration,
                     name=name or "C*(%s)" % (sset.name or "?"))


def is_dga_map(f: dict, a: DgAlgebra, b: DgAlgebra) -> bool:
    """Check that a basis-indexed linear map is a map of dg algebras."""
    ring = b.ring

    def image(d):
        out = {}
        for l, c in d.items():
            for r, c2 in f.get(l, {}).items():
                s = ring.add(out.get(r, ring.zero()), ring.mul(ring.coerce(c), ring.coerce(c2)))
                if s == 0:
                    out.pop(r, None)
                else:
                    out[r] = s
        return out

    if image(a.unit) != b.unit:
        return False
    for l in a.gm.labels:
        if image(a.diff.get(l, {})) != b.d_dict(image({l: 1})):
            return False
    for x in a.gm.labels:
        for y in a.gm.labels:
            lhs = image(a.mul_labels(x, y))
            rhs = b.mul_dicts(image({x: 1}), image({y: 1}))
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# products and the Eilenberg-Zilber algebra map
# ---------------------------------------------------------------------------


def _lattice_paths(p: int, q: int):
    """Monotone jointly injective surjection pairs ([n]->>[p], [n]->>[q]).

    These are lattice paths from (0,0) to (p,q) with steps (1,0), (0,1)
    and (1,1); paths without diagonal steps are the (p,q)-shuffles.
    """
    def go(a, b, alpha, beta):
        if a == p and b == q:
            yield tuple(alpha), tuple(beta)
            return
        if a < p:
            yield from go(a + 1, b, alpha + [a + 1], beta + [b])
        if b < q:
            yield from go(a, b + 1, alpha + [a], beta + [b + 1])
        if a < p and b < q:
            yield from go(a + 1, b + 1, alpha + [a + 1], beta + [b + 1])
    yield from go(0, 0, [0], [0])


def product(x: FiniteSimplicialSet, y: FiniteSimplicialSet, cap=None,
            name: str = "") -> FiniteSimplicialSet:
    """The product simplicial set, nondegenerates enumerated up to ``cap``.

    Nondegenerate n-simplices are pairs (alpha* sigma, beta* tau) with
    (alpha, beta) a jointly injective pair of monotone surjections; faces
    are computed factorwise and the common degeneracy is refactored out.
    """
    if cap is None:
        cap = x.dimension + y.dimension
    out = FiniteSimplicialSet(name or "%sx%s" % (x.name, y.name))

    def joint_normal(sx, sy):
        # sx = (labelx, mapx), sy = (labely, mapy); strip common repeats
        (lx, mx), (ly, my) = sx, sy
        n = len(mx) - 1
        kept = [0]
        for i in range(1, n + 1):
            if (mx[i], my[i]) != (mx[i - 1], my[i - 1]):
                kept.append(i)
        z = []
        c = -1
        for i in range(n + 1):
            if i in kept:
                c += 1
            z.append(c)
        alpha = tuple(mx[i] for i in kept)
        beta = tuple(my[i] for i in kept)
        return (lx, alpha, ly, beta), tuple(z)

    by_dim = {}
    for px in range(x.dimension + 1):
        for lx in x.nondegenerate(px):
            for py in range(y.dimension + 1):
                for ly in y.nondegenerate(py):
                    if max(px, py) > cap:
                        continue
                    for alpha, beta in _lattice_paths(px, py):
                        n = len(alpha) - 1
                        if n <= cap:
                            by_dim.setdefault(n, []).append((lx, alpha, ly, beta))
    for n in sorted(by_dim):
        for label in by_dim[n]:
            lx, alpha, ly, beta = label
            if n == 0:
                out.add_simplex(label, 0)
                continue
            faces = []
            for i in range(n + 1):
                dmap = delta(i, n)
                fx = x.pullback(lx, compose_maps(alpha, dmap))
                fy = y.pullback(ly, compose_maps(beta, dmap))
                faces.append(joint_normal(fx, fy))
            out.add_simplex(label, n, faces)
    return out


def _shuffle_sign(alpha: tuple, beta: tuple) -> int:
    # parity of pairs (i < j) with step i vertical (beta moves) and step j
    # horizontal (alpha moves)
    steps = []
    for i in range(1, len(alpha)):
        steps.append("h" if alpha[i] > alpha[i - 1] else "v")
    inv = 0
    for i in range(len(steps)):
        for j in range(i + 1, len(steps)):
            if steps[i] == "v" and steps[j] == "h":
                inv += 1
    return -1 if inv % 2 else 1


def ez_algebra_map(x: FiniteSimplicialSet, y: FiniteSimplicialSet,
                   cx: DgAlgebra, cy: DgAlgebra, cxy: DgAlgebra) -> dict:
    """The dual shuffle map C*(X x Y) -> C*(X) (x) C*(Y), a dg algebra map.

    ``cxy`` must be the cochain algebra of :func:`product`(x, y) truncated
    compatibly; the result maps its basis labels to coefficient dicts over
    the tensor algebra's labels (pairs).  EZ*(rho*) picks out the shuffle
    terms of rho with their shuffle signs.
    """
    out = {}
    for rho in cxy.gm.labels:
        lx, alpha, ly, beta = rho
        p = alpha[-1]
        q = beta[-1]
        n = len(alpha) - 1
        if n != p + q:
            continue  # a diagonal step appears in no shuffle term
        if any(alpha[i + 1] - alpha[i] + beta[i + 1] - beta[i] != 1 for i in range(n)):
            continue
        sign = _shuffle_sign(alpha, beta)
        out[rho] = {(lx, ly): sign}
    return out


# ---------------------------------------------------------------------------
# local systems
# ---------------------------------------------------------------------------


class LocalSystem:
    """Invertible edge monodromies satisfying the 2-simplex cocycle condition.

    The monodromy transports from vertex 1 to vertex 0 of an edge: a closed
    0-cochain f satisfies f(sigma_0) = M(sigma) f(sigma_1).  The functor
    condition M(tau_01) M(tau_12) = M(tau_02) is checked on every
    nondegenerate 2-simplex; edges degenerate in the base carry the
    identity implicitly.
    """

    def __init__(self, base: FiniteSimplicialSet, v: GradedModule, monodromy: dict):
        self.base = base
        self.v = v
        self.ring = v.ring
        self.monodromy = {}
        n = v.dim
        for e in base.nondegenerate(1):
            m = monodromy.get(e)
            if m is None:
                m = ExactMatrix.identity(self.ring, n)
            if m.rows != n or m.cols != n:
                raise SimplicialError("monodromy on %r has wrong size" % (e,))
            if solve_invertibility(m) is None:
                raise SimplicialError("monodromy on %r is not invertible" % (e,))
            self.monodromy[e] = m

    def edge_matrix(self, state) -> ExactMatrix:
        label, surj = state
        if surj != identity_map(self.base.dim_of[label]):
            return ExactMatrix.identity(self.ring, self.v.dim)
        return self.monodromy[label]

    def functor_condition_failures(self):
        bad = []
        for tau in self.base.nondegenerate(2):
            st = (tau, identity_map(2))
            m01 = self.edge_matrix(self.base.pullback_state(st, (0, 1)))
            m12 = self.edge_matrix(self.base.pullback_state(st, (1, 2)))
            m02 = self.edge_matrix(self.base.pullback_state(st, (0, 2)))
            if m01 * m12 != m02:
                bad.append(tau)
        return bad


def solve_invertibility(m: ExactMatrix):
    """Two-sided inverse of a square exact matrix, or None."""
    if m.rows != m.cols:
        return None
    from .exactlinalg import solve_linear
    n = m.rows
    cols = []
    for j in range(n):
        e = [m.ring.one() if i == j else m.ring.zero() for i in range(n)]
        sol = solve_linear(m, e)
        if sol is None:
            return None
        cols.append(sol[0])
    inv = ExactMatrix(m.ring, n, n, [[cols[j][i] for j in range(n)] for i in range(n)])
    if inv * m != ExactMatrix.identity(m.ring, n) or m * inv != ExactMatrix.identity(m.ring, n):
        return None
    return inv


# ---------------------------------------------------------------------------
# the dictionary between local systems and edge-supported MC elements
# ---------------------------------------------------------------------------


def rep_to_mc(ls: LocalSystem, end_dga: DgAlgebra = None):
    """Psi: monodromy F |-> the MC cochain sigma |-> F(sigma) - 1.

    Returns an MCElement of End(V) (x) C*(base); the MC condition on a
    2-simplex tau is exactly the cocycle identity
    (1 + f(tau_01))(1 + f(tau_12)) = 1 + f(tau_02).
    """
    from .dgcore import endomorphism_dga
    from .mc import MCElement

    bad = ls.functor_condition_failures()
    if bad:
        raise SimplicialError("functor condition fails on 2-simplices %r" % (bad,))
    ring = ls.ring
    ca = cochain_algebra(ls.base, ring)
    end = end_dga if end_dga is not None else endomorphism_dga(ca, ls.v)
    coeffs = {}
    n = ls.v.dim
    labels = ls.v.labels
    for e, m in ls.monodromy.items():
        for ui, u in enumerate(labels):
            for wi, w in enumerate(labels):
                c = m.get(wi, ui)
                if u == w:
                    c = ring.sub(c, ring.one())
                if c != 0:
                    coeffs[("E", u, w, e)] = c
    return MCElement(end, end.element(coeffs))


def mc_to_rep(x, base: FiniteSimplicialSet, v: GradedModule) -> LocalSystem:
    """Phi: an edge-supported MC element |-> the local system 1 + f.

    Raises when some 1 + f(edge) is not invertible; such an MC element
    still defines a twisted module but not a local system.
    """
    ring = v.ring
    labels = list(v.labels)
    ix = {l: i for i, l in enumerate(labels)}
    per_edge = {}
    for (tag, u, w, al), c in x.value.coeffs.items():
        if base.dim_of[al] != 1:
            raise SimplicialError("MC element is not concentrated on edges")
        m = per_edge.setdefault(al, ExactMatrix.identity(ring, v.dim))
        m.set_entry(ix[w], ix[u], ring.add(m.get(ix[w], ix[u]), c))
    for e in base.nondegenerate(1):
        m = per_edge.setdefault(e, ExactMatrix.identity(ring, v.dim))
        if solve_invertibility(m) is None:
            raise SimplicialError("1 + f is not invertible on edge %r" % (e,))
    return LocalSystem(base, v, per_edge)


def twisted_system(ls: LocalSystem):
    """The TwistedModule V (x) C*(X) of a local system."""
    from .dgcore import endomorphism_dga
    from .mc import TwistedModule

    ca = cochain_algebra(ls.base, ls.ring)
    end = endomorphism_dga(ca, ls.v)
    x = rep_to_mc(ls, end_dga=end)
    return TwistedModule(ls.v, ca, x, end_dga=end,
                         name="local system on %s" % ls.base.name)


def twisted_cochains(ls_or_triple):
    """The twisted cochain complex of a local system or a (v, algebra, mc) triple."""
    from .mc import TwistedModule

    if isinstance(ls_or_triple, LocalSystem):
        return twisted_system(ls_or_triple).module()
    v, ca, x = ls_or_triple
    return TwistedModule(v, ca, x, end_dga=x.algebra).module()


def local_system_cohomology(ls: LocalSystem):
    """Cohomology (with torsion over Z) of the twisted cochain complex."""
    return twisted_system(ls).cohomology()


def pullback_local_system(ls: LocalSystem, vertex_map: dict,
                          source: FiniteSimplicialSet) -> LocalSystem:
    """Transport a local system along a simplicial map of ordered complexes.

    ``vertex_map`` sends source vertices to target vertices; an edge whose
    image collapses gets the identity monodromy (the pullback cochain
    vanishes on simplices with degenerate image).
    """
    monodromy = {}
    for e in source.nondegenerate(1):
        a, b = e
        ia, ib = vertex_map[a], vertex_map[b]
        if ia == ib:
            continue
        image = tuple(sorted((ia, ib), key=lambda v: v))
        m = ls.monodromy.get(image)
        if m is None:
            raise SimplicialError("image edge %r missing in target" % (image,))
        if (ia, ib) != image:
            m = solve_invertibility(m)
        monodromy[e] = m
    return LocalSystem(source, ls.v, monodromy)


# ---------------------------------------------------------------------------
# two-sided twisted complexes
# ---------------------------------------------------------------------------


def two_sided_twisted(base: FiniteSimplicialSet, vleft: GradedModule,
                      vright: GradedModule, y, x, ring: Ring = None) -> DgModule:
    """The two-sided twisted complex (Hom(V_right, V_left) (x) C*(X), D).

    x and y are MC elements of End(V_right) (x) C*(X) and
    End(V_left) (x) C*(X); the differential is
    D(f) = d f + y f - (-1)^{|f|} f x,
    which on cochains expands to the two-sided local-coefficient formula
    Y(sigma_01) f(d_0 sigma) + sum_i (-1)^i f(d_i sigma)
  + (-1)^n f(d_n sigma) X(sigma_{n-1,n}) with X = x + 1, Y = y + 1.
    Setting y = 0 recovers the one-sided twist of the right structure.
    """
    ring = ring or vleft.ring
    ca = cochain_algebra(base, ring)
    basis = []
    for ur in vright.labels:
        for ul in vleft.labels:
            for al in ca.gm.labels:
                deg = vleft.degree[ul] - vright.degree[ur] + ca.gm.degree[al]
                basis.append((("m", ur, ul, al), deg))
    gm = GradedModule(ring, basis)
    ground = ground_dga(ring)
    action = {(l, "1"): {l: ring.one()} for l, _ in basis}
    diff = {}
    ycoeffs = y.value.coeffs if hasattr(y, "value") else {}
    xcoeffs = x.value.coeffs if hasattr(x, "value") else {}
    for (_, ur, ul, al), fdeg in basis:
        out = {}
        sign_d = ring.coerce((-1) ** (vleft.degree[ul] - vright.degree[ur]))
        for rl, c in ca.diff.get(al, {}).items():
            key = ("m", ur, ul, rl)
            out[key] = ring.add(out.get(key, ring.zero()), ring.mul(sign_d, c))
        for (tag, u2, w2, cl), ce in ycoeffs.items():
            if u2 != ul:
                continue
            sgn = ring.coerce((-1) ** (ca.gm.degree[cl] *
                                       (vleft.degree[ul] - vright.degree[ur])))
            for rl, c in ca.mul_labels(cl, al).items():
                key = ("m", ur, w2, rl)
                out[key] = ring.add(out.get(key, ring.zero()),
                                    ring.mul(ring.mul(sgn, ce), c))
        for (tag, u2, w2, cl), ce in xcoeffs.items():
            if w2 != ur:
                continue
            psi_deg = vright.degree[w2] - vright.degree[u2]
            sgn = ring.coerce(-((-1) ** (fdeg + ca.gm.degree[al] * psi_deg)))
            for rl, c in ca.mul_labels(al, cl).items():
                key = ("m", u2, ul, rl)
                out[key] = ring.add(out.get(key, ring.zero()),
                                    ring.mul(ring.mul(sgn, ce), c))
        out = {k: v for k, v in out.items() if v != 0}
        if out:
            diff[("m", ur, ul, al)] = out
    m = DgModule(gm, ground, action, diff, name="two-sided twist")
    for l in gm.labels:
        if m.d_dict(m.diff.get(l, {})):
            raise SimplicialError("two-sided differential does not square to zero")
    return m
