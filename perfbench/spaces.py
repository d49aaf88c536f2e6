"""Ordered simplicial complexes with seam cocycles, built without mctwist.

Every space is cut from a fundamental square (or a segment, for circles)
whose boundary points are identified.  A seam is a line inside the square;
an edge that crosses it picks up the monodromy matrix once per crossing,
with the sign of the crossing direction, so the exponents form an integer
1-cocycle and any matrix power along them satisfies the functor condition.

The vertex order is a seeded permutation, so two instances of the same
space give different ordered complexes, different coboundary matrices and
the same cohomology.  The vertex labels written out are seeded too
(increasing, so the order is kept): even two instances with the same
permutation, which small circles cannot avoid, never share an input file.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import gcd


@dataclass
class Space:
    kind: str                  # circle | path | torus | rp2 | klein
    size: tuple
    vertices: list             # vertex indices 0..n-1, in their order
    simplices: list            # maximal simplices, ascending vertex tuples
    phi: dict = field(default_factory=dict)   # edge (u, v), u < v -> crossings u -> v
    euler: int = 0
    labels: list = field(default_factory=list)  # vertex i is written as labels[i]

    def closure(self):
        """All faces, grouped by dimension."""
        cells = {}
        for s in self.simplices:
            for k in range(1, len(s) + 1):
                for sub in itertools.combinations(s, k):
                    cells.setdefault(k - 1, set()).add(sub)
        return {d: sorted(c) for d, c in cells.items()}

    def edge_label(self, edge) -> list:
        return [self.labels[v] for v in edge]

    def to_json(self) -> dict:
        return {"vertices": list(self.labels),
                "simplices": [self.edge_label(s) for s in self.simplices]}


def vertex_labels(n: int, rnd) -> list:
    """n distinct increasing labels drawn from a large range."""
    return sorted(rnd.sample(range(10 ** 6), n))


def _crossings(p, q, seams) -> int:
    out = 0
    for axis, delta in seams:
        a, b = (p[0], q[0]) if axis == "x" else (p[1], q[1])
        if a < delta < b:
            out += 1
        elif b < delta < a:
            out -= 1
    return out


def _build(kind, size, triangles, canon, seams, order_rnd, euler, modulus=0) -> Space:
    """Quotient a list of geometric simplices and order its vertices.

    With ``modulus`` 2 the crossings are counted mod 2 (a Z/2 cocycle, for
    monodromies of order two on non-orientable surfaces)."""
    classes = sorted({canon(p) for tri in triangles for p in tri})
    perm = list(range(len(classes)))
    order_rnd.shuffle(perm)
    label = {c: perm[i] for i, c in enumerate(classes)}
    simplices = set()
    phi = {}
    for tri in triangles:
        verts = [label[canon(p)] for p in tri]
        if len(set(verts)) != len(verts):
            raise ValueError("%s %r: degenerate simplex" % (kind, size))
        simplices.add(tuple(sorted(verts)))
        for p, q in itertools.combinations(tri, 2):
            u, v = label[canon(p)], label[canon(q)]
            c = _crossings(p, q, seams)
            if u > v:
                u, v, c = v, u, -c
            if modulus:
                c %= modulus
            if phi.setdefault((u, v), c) != c:
                raise ValueError("%s %r: seam is not a cocycle" % (kind, size))
    if len(simplices) != len(triangles):
        raise ValueError("%s %r: two simplices share their vertices" % (kind, size))
    space = Space(kind, size, list(range(len(classes))), sorted(simplices),
                  {e: c for e, c in phi.items() if c}, euler,
                  vertex_labels(len(classes), order_rnd))
    cells = space.closure()
    chi = sum((-1) ** d * len(c) for d, c in cells.items())
    if chi != euler:
        raise ValueError("%s %r: Euler characteristic %d, want %d" % (kind, size, chi, euler))
    return space


def circle(k: int, rnd) -> Space:
    """k vertices, seam between vertex 0 and vertex 1 of the segment."""
    edges = [((i, 0), (i + 1, 0)) for i in range(k)]
    return _build("circle", (k,), edges, lambda p: p[0] % k, [("x", 0.5)], rnd, 0)


def path(k: int, rnd) -> Space:
    """k vertices in a row: a contractible base."""
    edges = [((i, 0), (i + 1, 0)) for i in range(k - 1)]
    return _build("path", (k,), edges, lambda p: p[0], [], rnd, 1)


def torus(n: int, m: int, rnd) -> Space:
    """The n x m grid torus, two triangles per square (6nm cells)."""
    tris = []
    for i in range(n):
        for j in range(m):
            tris.append(((i, j), (i + 1, j), (i + 1, j + 1)))
            tris.append(((i, j), (i, j + 1), (i + 1, j + 1)))
    return _build("torus", (n, m), tris, lambda p: (p[0] % n, p[1] % m),
                  [("x", 0.5)], rnd, 0)


def _union_find_canon(points, pairs):
    parent = {p: p for p in points}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return lambda p: find(p) if p in parent else p


def _centred_square(kind, n, m, pairs, seams, rnd, euler) -> Space:
    """n x m squares, each cut into four triangles around its centre; the
    seams carry a Z/2 cocycle."""
    corners = [(i, j) for i in range(n + 1) for j in range(m + 1)]
    canon = _union_find_canon(corners, pairs)
    tris = []
    for i in range(n):
        for j in range(m):
            z = (i + 0.5, j + 0.5)
            a, b, c, d = (i, j), (i + 1, j), (i + 1, j + 1), (i, j + 1)
            tris += [(a, b, z), (b, c, z), (c, d, z), (d, a, z)]
    return _build(kind, (n, m), tris, canon, seams, rnd, euler, modulus=2)


def klein(n: int, m: int, rnd) -> Space:
    """(0, y) ~ (n, y) and (x, 0) ~ (n - x, m); the seam y = 1/4 carries
    the orientation character."""
    pairs = [((0, y), (n, y)) for y in range(m + 1)] + \
        [((x, 0), (n - x, m)) for x in range(n + 1)]
    return _centred_square("klein", n, m, pairs, [("y", 0.25)], rnd, 0)


def rp2(n: int, m: int, rnd) -> Space:
    """(0, y) ~ (n, m - y) and (x, 0) ~ (n - x, m): the square with antipodal
    boundary points identified.  Its one nonzero class in H^1(RP^2; Z/2)
    is found by elimination mod 2, since every straight one-sided curve
    through the centre of this square meets a vertex."""
    pairs = [((0, y), (n, m - y)) for y in range(m + 1)] + \
        [((x, 0), (n - x, m)) for x in range(n + 1)]
    space = _centred_square("rp2", n, m, pairs, [], rnd, 1)
    space.phi = _nontrivial_z2_class(space)
    return space


def _reduce(vec, basis):
    """Reduce a bitmask by an echelon basis {leading bit: row}."""
    while vec:
        top = vec.bit_length() - 1
        if top not in basis:
            return vec
        vec ^= basis[top]
    return 0


def _echelon(rows):
    basis = {}
    for row in rows:
        row = _reduce(row, basis)
        if row:
            basis[row.bit_length() - 1] = row
    return basis


def _nontrivial_z2_class(space) -> dict:
    """A Z/2 1-cocycle that is not a coboundary, as {edge: 1}."""
    cells = space.closure()
    edges = cells[1]
    bit = {e: 1 << i for i, e in enumerate(edges)}
    # solve for cocycles: reduce the triangle constraints to echelon form
    constraints = _echelon(bit[(a, b)] | bit[(b, c)] | bit[(a, c)] for a, b, c in cells[2])
    pivots = set(constraints)
    coboundaries = _echelon(sum(b for e, b in bit.items() if v in e) for (v,) in cells[0])
    for free in range(len(edges)):
        if free in pivots:
            continue
        # the cocycle with this free edge set and the other free edges zero
        vec = 1 << free
        for lead in sorted(pivots):
            row = constraints[lead]
            if bin(row & vec).count("1") % 2:
                vec |= 1 << lead
        if _reduce(vec, coboundaries):
            return {e: 1 for e in edges if vec & bit[e]}
    raise ValueError("no nontrivial Z/2 class")


# -- integer matrices of rank <= 2 -------------------------------------------------


def mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def mat_inv_unimodular(a):
    if len(a) == 1:
        return [[a[0][0]]]          # entries are +-1
    (p, q), (r, s) = a
    det = p * s - q * r
    return [[s * det, -q * det], [-r * det, p * det]]   # det = +-1


def mat_pow(a, e: int):
    r = len(a)
    out = [[int(i == j) for j in range(r)] for i in range(r)]
    base = a if e >= 0 else mat_inv_unimodular(a)
    for _ in range(abs(e)):
        out = mat_mul(out, base)
    return out


def invariant_factors_small(m) -> list:
    """Nonzero invariant factors of an integer matrix of size at most 2x2."""
    entries = [abs(x) for row in m for x in row]
    g = 0
    for x in entries:
        g = gcd(g, x)
    if g == 0:
        return []
    if len(m) == 1 or len(m[0]) == 1:
        return [g]
    det = abs(m[0][0] * m[1][1] - m[0][1] * m[1][0])
    return [g, det // g] if det else [g]


def normalize_torsion(orders) -> list:
    """Invariant factors (a divisibility chain) of a sum of cyclic groups."""
    powers = {}
    for t in orders:
        p = 2
        while t > 1:
            k = 0
            while t % p == 0:
                t //= p
                k += 1
            if k:
                powers.setdefault(p, []).append(p ** k)
            p += 1
    for v in powers.values():
        v.sort(reverse=True)
    width = max((len(v) for v in powers.values()), default=0)
    out = []
    for i in range(width):
        f = 1
        for v in powers.values():
            if i < len(v):
                f *= v[i]
        out.append(f)
    return sorted(out)


_RANK1_TABLE = {
    # kind -> (trivial, sign): per degree (rank, torsion)
    "rp2": ([(1, []), (0, []), (0, [2])], [(0, []), (0, [2]), (1, [])]),
    "klein": ([(1, []), (1, []), (0, [2])], [(0, []), (1, [2]), (1, [])]),
}


def expected_cohomology(kind: str, base) -> list:
    """Known H^*(X; L) as [(rank, torsion)] per degree, for the local system
    with matrix ``base`` along the seam.

    Circle: H^0 = ker(B - 1), H^1 = coker(B - 1).  Torus (the other loop
    trivial, Kunneth with a free factor): H^0 = K, H^1 = K + C, H^2 = C.
    RP^2 and the Klein bottle take a diagonal +-1 matrix: a sum of the
    trivial and the sign system, read from the table.
    """
    r = len(base)
    if kind in _RANK1_TABLE:
        degs = [[0, []] for _ in range(3)]
        for i in range(r):
            if any(base[i][j] for j in range(r) if j != i) or abs(base[i][i]) != 1:
                raise ValueError("%s takes a diagonal +-1 monodromy" % kind)
            rows = _RANK1_TABLE[kind][0 if base[i][i] == 1 else 1]
            for d, (rk, tor) in enumerate(rows):
                degs[d][0] += rk
                degs[d][1] += tor
        return [(rk, normalize_torsion(tor)) for rk, tor in degs]
    diff = [[base[i][j] - int(i == j) for j in range(r)] for i in range(r)]
    facs = invariant_factors_small(diff)
    nullity = r - len(facs)
    tors = [f for f in facs if f != 1]
    if kind == "circle":
        return [(nullity, []), (nullity, tors)]
    if kind == "torus":
        return [(nullity, []), (2 * nullity, tors), (nullity, tors)]
    raise ValueError("no table for %s" % kind)


def coboundaries(space: Space, base) -> tuple:
    """Twisted coboundary matrices of the local system, as integer row dicts.

    C^k = V^(k-simplices); (delta f)(tau) = M(tau_01) f(d_0 tau)
    + sum_{i >= 1} (-1)^i f(d_i tau), with M(u, v) = base^phi(u, v).
    Returns (dims, maps) with maps[k] a list of {column: value} rows.
    """
    r = len(base)
    cells = space.closure()
    top = max(cells)
    index = {d: {s: i for i, s in enumerate(cells[d])} for d in cells}
    powers = {}

    def mono(u, v):
        e = space.phi.get((u, v), 0)
        if e not in powers:
            powers[e] = mat_pow(base, e)
        return powers[e]

    dims = {d: r * len(cells[d]) for d in cells}
    maps = {}
    for d in range(top):
        rows = []
        for tau in cells[d + 1]:
            block = [dict() for _ in range(r)]
            for i in range(len(tau)):
                face = index[d][tau[:i] + tau[i + 1:]]
                if i == 0:
                    m = mono(tau[0], tau[1])
                    for a in range(r):
                        for b in range(r):
                            if m[a][b]:
                                col = face * r + b
                                block[a][col] = block[a][col] + m[a][b] if col in block[a] \
                                    else m[a][b]
                else:
                    s = -1 if i % 2 else 1
                    for a in range(r):
                        col = face * r + a
                        block[a][col] = block[a].get(col, 0) + s
            rows += [{c: v for c, v in row.items() if v} for row in block]
        maps[d] = rows
    return dims, maps
