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

A local system gives every edge without a matrix one shared identity, so
its functor check and its MC element F - 1 cost what the edges that carry
monodromy cost.
"""

from __future__ import annotations

import functools
import itertools

from .dgcore import DgAlgebra, DgModule, GradedModule, ground_module, vec_apply
from .exactlinalg import ExactMatrix, InputError, Ring, is_invertible, solve_many


class SimplicialError(InputError):
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
    """f is a monotone map onto [m]."""
    return set(f) == set(range(m + 1)) and all(a <= b for a, b in zip(f, f[1:]))


class FiniteSimplicialSet:
    """Nondegenerate simplices per dimension plus degeneracy-tracking faces."""

    def __init__(self, name: str = ""):
        self.name = name
        self.simplices = {}   # dim -> list of labels
        self.dim_of = {}      # label -> dim
        self.faces = {}       # (label, i) -> (label', surjection tuple)

    def add_simplex(self, label, dim: int, faces=None):
        # every check comes before the first entry, so a refused add changes nothing
        if label in self.dim_of:
            raise SimplicialError("duplicate simplex label %r" % (label,))
        checked = []
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
                checked.append((target, surj))
        self._enter(label, dim, checked)

    def _enter(self, label, dim: int, faces):
        # the one writer of dim_of, simplices and faces; faces are
        # (target, surjection) pairs that the caller has checked
        self.dim_of[label] = dim
        self.simplices.setdefault(dim, []).append(label)
        for i, face in enumerate(faces):
            self.faces[(label, i)] = face

    @property
    def dimension(self) -> int:
        return max((d for d, ls in self.simplices.items() if ls), default=-1)

    def nondegenerate(self, dim=None):
        if dim is None:
            return [l for d in sorted(self.simplices) for l in self.simplices[d]]
        return list(self.simplices.get(dim, []))

    def f_vector(self):
        return tuple(len(self.simplices.get(d, [])) for d in range(self.dimension + 1))

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
        return self.pullback(label, compose_maps(surj, delta(i, len(surj) - 1)))

    def __repr__(self):
        return "FiniteSimplicialSet(%s, f=%r)" % (self.name or "?", self.f_vector())


def from_ordered_complex(vertices, simplices, name: str = "") -> FiniteSimplicialSet:
    """Simplicial set of a vertex-ordered abstract simplicial complex.

    Every simplex is an ascending vertex tuple; all faces are nondegenerate
    and lower-dimensional faces are generated automatically.  The faces are
    entered without :meth:`FiniteSimplicialSet.add_simplex`'s checks, none
    of which can fail here: the closure holds every face of each of its
    tuples, shorter tuples are entered first, and every face's degeneracy
    word is the identity.

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
    ids = [identity_map(d) for d in range(max(map(len, closure), default=0))]
    for s in sorted(closure, key=lambda t: (len(t), tuple(map(order.__getitem__, t)))):
        dim = len(s) - 1
        sset._enter(s, dim, [(s[:i] + s[i + 1:], ids[dim - 1]) for i in range(dim + 1)]
                    if dim else ())
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


def nerve(cat: FiniteCategory, cap: int, name: str = "") -> FiniteSimplicialSet:
    """The nerve, with nondegenerate simplices enumerated up to dimension cap.

    An n-simplex is a composable string (f_n, ..., f_1), f_1 first; it is
    nondegenerate exactly when no f_i is an identity.  Inner faces compose
    adjacent arrows through the category's table; a composite that is an
    identity folds the face into a degeneracy of a lower simplex.  Faces are
    normal forms of earlier simplices, entered without ``add_simplex``'s checks.
    """
    sset = FiniteSimplicialSet(name or "nerve")
    for o in cat.objects:
        sset._enter(("@", o), 0, ())

    def normal_form(string):
        # strip identity arrows, recording the monotone surjection on vertices
        kept = [f for f in string if not cat.is_identity(f)]
        surj = [0]
        for f in reversed(string):  # vertex walk: v_0 .. v_n follows f_1 .. f_n
            step = 0 if cat.is_identity(f) else 1
            surj.append(surj[-1] + step)
        label = ("@", cat.source(string[-1])) if not kept else ("#",) + tuple(kept)
        return label, tuple(surj)

    strings = {1: [("#", f) for f in cat.arrows if not cat.is_identity(f)]}
    for f in strings.get(1, []):  # faces d_0 = target, d_1 = source
        sset._enter(f, 1, [(("@", cat.target(f[1])), (0,)), (("@", cat.source(f[1])), (0,))])
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
            sset._enter(s, n, faces)
    return sset


# ---------------------------------------------------------------------------
# normalized cochain algebras
# ---------------------------------------------------------------------------


def cochain_algebra(sset: FiniteSimplicialSet, ring: Ring, max_degree=None,
                    name: str = "") -> DgAlgebra:
    """Normalized cochains with the Alexander-Whitney product.

    The front and back faces of each simplex are read from per-simplex
    tables built from its last and first face.  Truncating at
    ``max_degree`` returns the cochain algebra of the max_degree-skeleton,
    which is a genuine dg algebra; by default the full (finite) dimension
    is used.
    """
    top = sset.dimension if max_degree is None else min(max_degree, sset.dimension)
    labels = [l for d in range(top + 1) for l in sset.nondegenerate(d)]
    gm = GradedModule(ring, [(l, sset.dim_of[l]) for l in labels])
    unit = {l: 1 for l in sset.nondegenerate(0)}
    ids = [identity_map(d) for d in range(top + 1)]
    # incidence numbers, written as Ring.Z().axpy would and coerced into
    # ``ring`` by DgAlgebra: a face that cancels leaves no key
    diff = {}
    for d in range(1, top + 1):
        for tau in sset.nondegenerate(d):
            for i in range(d + 1):
                src, surj = sset.faces[(tau, i)]
                if surj == ids[d - 1]:
                    row = diff.setdefault(src, {})
                    c = row.get(tau, 0) + (-1 if i % 2 else 1)
                    if c:
                        row[tau] = c
                    else:
                        del row[tau]
    # front[rho][p], back[rho][q]: normal forms of rho|[0..p], rho|[n-q..n].
    # For p, q < n a nondegenerate last face d_n rho (first face d_0 rho)
    # lends its table; a degenerate s*(tau) is pulled back along s, cut to fit.
    front, back, mult = {}, {}, {}
    for rho in labels:
        n = sset.dim_of[rho]
        fr = bk = [(rho, ids[n])]
        if n:
            tau, s = sset.faces[(rho, n)]
            fr = (front[tau] if s == ids[n - 1] else
                  [sset.pullback(tau, s[:p + 1]) for p in range(n)]) + fr
            tau, s = sset.faces[(rho, 0)]
            bk = (back[tau] if s == ids[n - 1] else
                  [sset.pullback(tau, s[n - 1 - q:]) for q in range(n)]) + bk
        front[rho], back[rho] = fr, bk
        for p in range(n + 1):
            (f, fs), (b, bs) = fr[p], bk[n - p]
            if fs == ids[p] and bs == ids[n - p]:
                row = mult.setdefault((f, b), {})
                row[rho] = row.get(rho, 0) + 1
    return DgAlgebra(gm, unit, mult, diff, name=name or "C*(%s)" % (sset.name or "?"))


def is_dga_map(f: dict, a: DgAlgebra, b: DgAlgebra) -> bool:
    """Check that a basis-indexed linear map is a map of dg algebras.

    Multiplicativity f(xy) = f(x) f(y) is checked only at the pairs (x, y)
    in ``a.mult`` and at those whose images hold labels p and q with (p, q)
    in ``b.mult``: at every other pair both sides are zero.
    """
    ring = b.ring
    f = {l: {r: ring.coerce(c) for r, c in img.items()} for l, img in f.items()}
    image = functools.partial(vec_apply, ring, f)
    if image(a.unit) != b.unit:
        return False
    for l in a.gm.labels:
        if image(a.diff.get(l, {})) != b.d_dict(image({l: 1})):
            return False
    preimages = {}
    for x in a.gm.labels:
        for p in f.get(x, {}):
            preimages.setdefault(p, []).append(x)
    pairs = set(a.mult)
    for p, q in b.mult:
        pairs.update((x, y) for x in preimages.get(p, ()) for y in preimages.get(q, ()))
    for x, y in pairs:
        if image(a.mul_labels(x, y)) != b.mul_dicts(image({x: 1}), image({y: 1})):
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
    are computed factorwise and the common degeneracy is refactored out:
    normal forms of earlier simplices, entered without ``add_simplex``'s checks.
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
                out._enter(label, 0, ())
                continue
            faces = []
            for i in range(n + 1):
                dmap = delta(i, n)
                fx = x.pullback(lx, compose_maps(alpha, dmap))
                fy = y.pullback(ly, compose_maps(beta, dmap))
                faces.append(joint_normal(fx, fy))
            out._enter(label, n, faces)
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
    nondegenerate 2-simplex.  An edge without a matrix, or degenerate in
    the base, carries ``identity``, one matrix shared by all of them, so
    that the work of a system follows the edges that carry monodromy (no
    code mutates an ExactMatrix); a key that is no edge is refused.
    """

    def __init__(self, base: FiniteSimplicialSet, v: GradedModule, monodromy: dict):
        self.base = base
        self.v = v
        self.ring = v.ring
        self.monodromy = {}
        n = v.dim
        self.identity = ExactMatrix.identity(self.ring, n)
        for e in monodromy:
            if base.dim_of.get(e) != 1:
                raise SimplicialError("monodromy on %r: not an edge of the base" % (e,))
        for e in base.nondegenerate(1):
            m = monodromy.get(e)
            if m is None:  # the identity, invertible without a check
                m = self.identity
            elif m.rows != n or m.cols != n:
                raise SimplicialError("monodromy on %r has wrong size" % (e,))
            elif not is_invertible(m):
                raise SimplicialError("monodromy on %r is not invertible" % (e,))
            self.monodromy[e] = m

    def edge_matrix(self, state) -> ExactMatrix:
        label, surj = state
        if surj != identity_map(self.base.dim_of[label]):
            return self.identity
        return self.monodromy[label]

    def functor_condition_failures(self):
        # the faces d_2, d_0 and d_1 of a 2-simplex are its edges 01, 12 and
        # 02, each stored in normal form; a product with the shared identity
        # is its other factor
        bad, faces, one = [], self.base.faces, self.identity
        for tau in self.base.nondegenerate(2):
            m01, m12, m02 = (self.edge_matrix(faces[(tau, i)]) for i in (2, 0, 1))
            prod = m12 if m01 is one else m01 if m12 is one else m01 * m12
            if prod is not m02 and prod != m02:
                bad.append(tau)
        return bad


def solve_invertibility(m: ExactMatrix):
    """Two-sided inverse of a square exact matrix, or None.

    One :func:`solve_many` decides and inverts: m is invertible exactly
    when m x = e_j is solvable for every unit vector e_j and the kernel is
    zero, and then the solutions are the columns of m^-1 (over Z the
    solves are in integers).  The inverse is re-checked on both sides.
    """
    if m.rows != m.cols:
        return None
    ring, n = m.ring, m.rows
    eye = ExactMatrix.identity(ring, n)
    sols, kernel = solve_many(m, [eye.row_list(j) for j in range(n)])
    if kernel or None in sols:
        return None
    inv = ExactMatrix.from_columns(ring, [dict(enumerate(x)) for x in sols], range(n))
    if inv * m != eye or m * inv != eye:
        return None
    return inv


# ---------------------------------------------------------------------------
# the dictionary between local systems and edge-supported MC elements
# ---------------------------------------------------------------------------


def _minus_identity(ring: Ring, labels, e, m: ExactMatrix):
    """The nonzero entries ((u, w, e), c) of m - 1, c = m[w][u] - [u == w],
    in the order of u and then w: the one reader of an edge's F(e) - 1."""
    for i, u in enumerate(labels):
        for j, w in enumerate(labels):
            c = m.get(j, i)
            if u == w:
                c = ring.sub(c, ring.one())
            if c:
                yield (u, w, e), c


def _edge_twisting(ls: LocalSystem) -> dict:
    """{(u, w, edge): c}, the nonzero entries of F(edge) - 1, once the
    functor condition holds on every 2-simplex; an edge that carries the
    shared identity has none."""
    bad = ls.functor_condition_failures()
    if bad:
        raise SimplicialError("functor condition fails on 2-simplices: %r" % (bad,))
    return dict(entry for e, m in ls.monodromy.items() if m is not ls.identity
                for entry in _minus_identity(ls.ring, ls.v.labels, e, m))


def rep_to_mc(ls: LocalSystem, end_dga: DgAlgebra = None):
    """Psi: monodromy F |-> the MC cochain sigma |-> F(sigma) - 1.

    Returns an MCElement of End(V) (x) C*(base); the MC condition on a
    2-simplex tau is exactly the cocycle identity
    (1 + f(tau_01))(1 + f(tau_12)) = 1 + f(tau_02).
    """
    from .dgcore import endomorphism_dga
    from .mc import MCElement

    coeffs = _edge_twisting(ls)
    end = end_dga if end_dga is not None else endomorphism_dga(
        cochain_algebra(ls.base, ls.ring), ls.v)
    return MCElement(end, end.element({("E",) + k: c for k, c in coeffs.items()}))


def mc_to_rep(x, base: FiniteSimplicialSet, v: GradedModule) -> LocalSystem:
    """Phi: an edge-supported MC element |-> the local system 1 + f.

    Raises when some 1 + f(edge) is not invertible; such an MC element
    still defines a twisted module but not a local system.
    """
    ring = v.ring
    cols_of = {}  # edge carrying an f -> the columns {u: (1 + f)(u)}
    for (tag, u, w, al), c in x.value.coeffs.items():
        if base.dim_of[al] != 1:
            raise SimplicialError("MC element is not concentrated on edges")
        cols = cols_of.setdefault(al, {l: {l: ring.one()} for l in v.labels})
        ring.axpy(cols[u], c, {w: 1})
    # LocalSystem puts the identity on the other edges and inverts these once
    return LocalSystem(base, v, {e: ExactMatrix.from_columns(ring, list(cols.values()), v.labels)
                                 for e, cols in cols_of.items()})


def twisted_system(ls: LocalSystem):
    """The TwistedModule V (x) C*(X) of a local system, twisted by F - 1."""
    from .mc import ConvOp, TwistedModule

    ca = cochain_algebra(ls.base, ls.ring)
    x = ConvOp(ca, ls.v, ls.v, _edge_twisting(ls))
    return TwistedModule(ls.v, ca, x, name="local system on %s" % ls.base.name)


def local_system_cohomology(ls: LocalSystem):
    """Cohomology (with torsion over Z) of the twisted cochain complex."""
    return twisted_system(ls).cohomology()


def pullback_local_system(ls: LocalSystem, vertex_map: dict,
                          source: FiniteSimplicialSet) -> LocalSystem:
    """Transport a local system along a simplicial map of ordered complexes.

    ``vertex_map`` sends source vertices to target vertices; an edge whose
    image collapses (the pullback cochain vanishes on simplices with
    degenerate image), or whose image carries the target's shared identity,
    is left out and so carries the new system's identity.
    """
    position = {l[0]: i for i, l in enumerate(ls.base.nondegenerate(0))}  # l = (vertex,)
    monodromy = {}
    for e in source.nondegenerate(1):
        a, b = e
        ia, ib = vertex_map[a], vertex_map[b]
        if ia == ib:
            continue
        image = tuple(sorted((ia, ib), key=lambda v: position.get(v, -1)))
        m = ls.monodromy.get(image)
        if m is None:
            raise SimplicialError("image edge %r missing in target" % (image,))
        if m is ls.identity:
            continue
        if (ia, ib) != image:
            m = solve_invertibility(m)
        monodromy[e] = m
    return LocalSystem(source, ls.v, monodromy)


# ---------------------------------------------------------------------------
# two-sided twisted complexes
# ---------------------------------------------------------------------------


def two_sided_twisted(base: FiniteSimplicialSet, vleft: GradedModule,
                      vright: GradedModule, y, x) -> DgModule:
    """The two-sided twisted complex (Hom(V_right, V_left) (x) C*(X), D).

    x and y are MC elements of End(V_right) (x) C*(X) and
    End(V_left) (x) C*(X); the differential is
    D(f) = d f + y f - (-1)^{|f|} f x,
    which on cochains expands to the two-sided local-coefficient formula
    Y(sigma_01) f(d_0 sigma) + sum_i (-1)^i f(d_i sigma)
  + (-1)^n f(d_n sigma) X(sigma_{n-1,n}) with X = x + 1, Y = y + 1.
    Setting y = 0 recovers the one-sided twist of the right structure.
    D is :func:`mctwist.mc._hom_diff` on the basis E_{ur -> ul} (x) a,
    labelled ("m", ur, ul, a), and checked once to square to zero.
    """
    from .mc import ConvOp, _hom_diff, _square_zero

    ca = cochain_algebra(base, vleft.ring)
    x_op, y_op = ConvOp.from_mc(x, ca, vright), ConvOp.from_mc(y, ca, vleft)
    basis = [(("m", ur, ul, al), vleft.degree[ul] - vright.degree[ur] + ca.gm.degree[al])
             for ur in vright.labels for ul in vleft.labels for al in ca.gm.labels]
    diff = {("m",) + key: {("m",) + k: c for k, c in out.items()} for key, out in
            _hom_diff(x_op, y_op, (l[1:] for l, _ in basis)).items()}
    return ground_module(GradedModule(ca.ring, basis), _square_zero(ca, diff, "two-sided"),
                         "two-sided twist")
