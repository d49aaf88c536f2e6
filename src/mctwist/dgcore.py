"""Finite-basis dg algebras and dg modules with mechanically verified axioms.

A dg algebra is stored by structure constants: a finite graded basis, a
sparse multiplication table, a differential matrix and a unit vector.  The
four algebra axioms (d^2 = 0, Leibniz, associativity, unit laws) are never
assumed: :func:`check_dga` verifies them exactly and reports a witness for
every violation.  Constructors elsewhere in the package are tested against
this checker, so "is a dg algebra" is always a theorem about the data, not
an assumption.

Sign conventions are Koszul throughout: ``d(ab) = d(a) b + (-1)^{|a|} a d(b)``
and ``(a (x) u)(b (x) v) = (-1)^{|u||b|} ab (x) uv`` in tensor products.
Degrees are arbitrary integers with explicit finite support; there is no
implicit truncation anywhere.
"""

from __future__ import annotations

from .exactlinalg import (
    ChainComplexSpec,
    ExactMatrix,
    InputError,
    Ring,
    cohomology,
    solve_columns,
)


class DgError(InputError):
    """Precondition failure in a dg-core operation."""


# ---------------------------------------------------------------------------
# coefficient dictionaries
#
# Elements of modules and algebras are sparse dicts {label: scalar} with no
# zero values; every linear combination of them is built by Ring.axpy, which
# keeps them so.
# ---------------------------------------------------------------------------


def vec_apply(ring: Ring, columns: dict, x: dict) -> dict:
    """The linear map sending each label to the dict ``columns[label]``, at x."""
    out = {}
    for a, ca in x.items():
        ring.axpy(out, ca, columns.get(a, {}))
    return out


_INT = {int}
_NONE = frozenset()


def _normalized(ring: Ring, table: dict, degree: dict, want) -> dict:
    # a table {key: {label: scalar}} with its scalars coerced into the ring
    # and its zero scalars and empty entries dropped.  Nonzero ints, in
    # range(1, p) over F_p, are canonical already: one test of the whole
    # table's values, run in C, copies a generated table's non-empty rows;
    # any other table goes row by row, a row passing the same test copied.
    # A row that drops a zero still names basis labels only: want(key), the
    # degree its terms lie in, and degree[label] raise KeyError otherwise
    p = ring.p

    def canonical(vals) -> bool:
        return set(map(type, vals)) == _INT and (0 < min(vals) and max(vals) < p if p
                                                 else 0 not in vals)
    if canonical([c for vec in table.values() for c in vec.values()]):
        return {key: dict(vec) for key, vec in table.items() if vec}
    out = {}
    for key, vec in table.items():
        if canonical(vec.values()):
            out[key] = dict(vec)
            continue
        kept = {k: c for k, v in vec.items() if (c := ring.coerce(v)) != 0}
        if len(kept) < len(vec):
            want(key)
            for label in vec:
                degree[label]
        if kept:
            out[key] = kept
    return out


def _index(table: dict) -> tuple:
    """A table keyed by pairs (a, b), by first and by second entry:
    ({a: [(b, out), ...]}, {b: [(a, out), ...]}), each row in table order."""
    by_first, by_second = {}, {}
    for (a, b), out in table.items():
        by_first.setdefault(a, []).append((b, out))
        by_second.setdefault(b, []).append((a, out))
    return by_first, by_second


def _times_rows(ring: Ring, y: dict, rows: dict) -> dict:
    """{l: sum c * out over the terms c r of y and the (l, out) in rows[r]},
    its zero entries dropped; each sum accumulates in y's order.

    The rows hold nonzero canonical scalars, so a sum that starts with a
    coefficient 1 starts as a copy of its row; no row of ``rows`` is
    returned or changed.
    """
    axpy = ring.axpy
    out = {}
    for r, c in y.items():
        one = type(c) is int and c == 1
        for l, v in rows.get(r, ()):
            acc = out.get(l)
            if acc is not None:
                axpy(acc, c, v)
            else:
                out[l] = dict(v) if one else axpy({}, c, v)
    return {l: v for l, v in out.items() if v}


def check_degrees(degree: dict, *checks):
    # each check (table, want, what): the labels of table[key] lie in degree want(key)
    of_degree = {}
    for label, d in degree.items():
        of_degree.setdefault(d, set()).add(label)
    for table, want, what in checks:
        for key, out in table.items():
            d = want(key)
            if out.keys() <= of_degree.get(d, _NONE):
                continue
            for r in out:  # name the first term in another degree
                if degree.get(r) != d:
                    raise DgError("%s %r: term %r is not in degree %d" % (what, key, r, d))


class GradedModule:
    """A finitely supported graded free module: labelled basis with degrees."""

    def __init__(self, ring: Ring, basis):
        self.ring = ring
        self.labels = tuple(l for l, _ in basis)
        if len(set(self.labels)) != len(self.labels):
            raise DgError("duplicate basis labels")
        self.degree = {l: int(d) for l, d in basis}
        self._by_degree = {}
        for l, d in self.degree.items():
            self._by_degree.setdefault(d, []).append(l)

    @property
    def dim(self) -> int:
        return len(self.labels)

    def degrees(self):
        return sorted(self._by_degree)

    def labels_of_degree(self, d: int):
        return tuple(self._by_degree.get(d, ()))

    def basis(self):
        return [(l, self.degree[l]) for l in self.labels]

    def shifted(self, k: int) -> "GradedModule":
        """V[k] with V[k]^i = V^{i+k}: every degree drops by k."""
        return GradedModule(self.ring, [(l, d - k) for l, d in self.basis()])

    def __repr__(self):
        return "GradedModule(%s, dim %d)" % (self.ring.name, self.dim)


class Element:
    """A sparse algebra element supporting +, -, * and d()."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: "DgAlgebra", coeffs: dict):
        self.algebra = algebra
        self.coeffs = {k: v for k, v in coeffs.items() if v != 0}

    def __add__(self, other):
        other = self.algebra.as_element(other)
        return Element(self.algebra, self.algebra.ring.axpy(dict(self.coeffs), 1, other.coeffs))

    def __radd__(self, other):
        return self.__add__(other)

    def __sub__(self, other):
        other = self.algebra.as_element(other)
        ring = self.algebra.ring
        return Element(self.algebra, ring.axpy(dict(self.coeffs), -1, other.coeffs))

    def __rsub__(self, other):
        return self.algebra.as_element(other).__sub__(self)

    def __neg__(self):
        return Element(self.algebra, self.algebra.ring.axpy({}, -1, self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Element):
            if other.algebra is not self.algebra:
                raise DgError("elements of different algebras")
            return Element(self.algebra,
                           self.algebra.mul_dicts(self.coeffs, other.coeffs))
        ring = self.algebra.ring
        return Element(self.algebra, ring.axpy({}, ring.coerce(other), self.coeffs))

    __rmul__ = __mul__  # scalar * element

    def __eq__(self, other):
        if isinstance(other, Element):
            return self.algebra is other.algebra and self.coeffs == other.coeffs
        try:
            other = self.algebra.as_element(other)
        except InputError:  # neither a scalar nor a coefficient dict: not ours to answer
            return NotImplemented
        return self.coeffs == other.coeffs

    def d(self) -> "Element":
        return Element(self.algebra, self.algebra.d_dict(self.coeffs))

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_homogeneous(self, degree=None):
        degs = {self.algebra.gm.degree[l] for l in self.coeffs}
        if degree is not None:
            return degs <= {degree}
        return len(degs) <= 1

    def __repr__(self):
        return format_coeffs(self.coeffs)


def format_coeffs(coeffs: dict) -> str:
    """A coefficient dict as "c*label + ...", its labels sorted by str; "0" if empty."""
    if not coeffs:
        return "0"
    return " + ".join("%s*%r" % (v, l) for l, v in sorted(coeffs.items(),
                                                          key=lambda kv: str(kv[0])))


class DgAlgebra:
    """A dg algebra given by structure constants over an exact ring.

    ``mult`` maps (left label, right label) to a coefficient dict; missing
    keys are zero products.  ``diff`` maps a label to the coefficient dict
    of its differential.  Zero coefficients are dropped on construction, so
    the keys of both tables are exactly the nonzero structure constants;
    :meth:`left_mult` and :meth:`right_mult` visit only those.
    """

    def __init__(self, gm: GradedModule, unit: dict, mult: dict, diff: dict,
                 name: str = ""):
        self.gm = gm
        self.ring = gm.ring
        self.name = name
        deg = gm.degree
        product, differential = lambda ab: deg[ab[0]] + deg[ab[1]], lambda a: deg[a] + 1
        self.unit = _normalized(self.ring, {(): unit}, deg, lambda _: 0).get((), {})
        self.mult = _normalized(self.ring, mult, deg, product)
        self.diff = _normalized(self.ring, diff, deg, differential)
        self._rows = None  # mult by left and by right label, built on first use
        check_degrees(deg, ({(): self.unit}, lambda _: 0, "unit"),
                       (self.mult, product, "product"),
                       (self.diff, differential, "differential of"))

    # -- elements ------------------------------------------------------------

    def element(self, coeffs) -> Element:
        if isinstance(coeffs, Element):
            return self.as_element(coeffs)
        if isinstance(coeffs, dict):
            bad = [l for l in coeffs if l not in self.gm.degree]
            if bad:
                raise DgError("unknown basis labels %r" % (bad,))
            return Element(self, {l: self.ring.coerce(v) for l, v in coeffs.items()})
        # a bare label
        if coeffs not in self.gm.degree:
            raise DgError("unknown basis label %r" % (coeffs,))
        return Element(self, {coeffs: self.ring.one()})

    def as_element(self, x) -> Element:
        if isinstance(x, Element):
            if x.algebra is not self:
                raise DgError("element of a different algebra")
            return x
        if isinstance(x, dict):
            return self.element(x)
        # scalar -> multiple of the unit
        c = self.ring.coerce(x)
        return Element(self, self.ring.axpy({}, c, self.unit))

    def one(self) -> Element:
        return Element(self, dict(self.unit))

    def zero(self) -> Element:
        return Element(self, {})

    # -- structure-constant arithmetic ----------------------------------------

    def mul_labels(self, a, b) -> dict:
        return self.mult.get((a, b), {})

    def mul_dicts(self, x: dict, y: dict) -> dict:
        ring = self.ring
        out = {}
        for a, ca in x.items():
            for b, cb in y.items():
                prod = self.mult.get((a, b))
                if prod:
                    ring.axpy(out, ring.mul(ca, cb), prod)
        return out

    def _mult_rows(self) -> tuple:
        """``mult`` by left and by right label (see :func:`_index`)."""
        if self._rows is None:
            self._rows = _index(self.mult)
        return self._rows

    def left_mult(self, y: dict) -> dict:
        """{l: y l} over the labels l with y l nonzero.

        Each y l equals ``mul_dicts(y, {l: 1})``, key order included; only
        the structure constants (r, l) with r a term of y are visited.
        """
        return _times_rows(self.ring, y, self._mult_rows()[0])

    def right_mult(self, x: dict) -> dict:
        """{l: l x} over the labels l with l x nonzero; each equals
        ``mul_dicts({l: 1}, x)``, key order included."""
        return _times_rows(self.ring, x, self._mult_rows()[1])

    def d_dict(self, x: dict) -> dict:
        return vec_apply(self.ring, self.diff, x)

    # -- complexes -------------------------------------------------------------

    def complex(self) -> ChainComplexSpec:
        """The underlying cochain complex (A, d) as matrices."""
        return complex_of(self.ring, self.gm, self.diff)

    def cohomology(self):
        return cohomology(self.complex())

    def change_ring(self, ring: Ring) -> "DgAlgebra":
        # the constructor coerces every scalar into ring and drops the zeros
        return DgAlgebra(GradedModule(ring, self.gm.basis()), self.unit, self.mult, self.diff,
                         name=self.name)

    def __repr__(self):
        return "DgAlgebra(%s, %s, dim %d)" % (self.name or "?", self.ring.name, self.gm.dim)


def complex_of(ring: Ring, gm: GradedModule, diff: dict) -> ChainComplexSpec:
    """Assemble the per-degree matrices of a normalised differential table."""
    degrees = gm.degrees()
    dims = {d: len(gm.labels_of_degree(d)) for d in degrees}
    maps = {}
    for d in degrees:
        dst = gm.labels_of_degree(d + 1)
        if dst:
            maps[d] = ExactMatrix.from_columns(
                ring, [diff.get(l, {}) for l in gm.labels_of_degree(d)], dst)
    return ChainComplexSpec(ring, dims, maps)


# ---------------------------------------------------------------------------
# axiom checking
# ---------------------------------------------------------------------------


def _law_failures(gm: GradedModule, diff: dict, rows: tuple, alg: DgAlgebra) -> list:
    """Where a right dg module over ``alg`` breaks Leibniz or associativity.

    ``gm`` and ``diff`` are the module's, ``rows`` its action table by
    module and by algebra label.  Returns sorted witnesses as basis
    positions: (m, a, -1) where D(m a) != D(m) a + (-1)^{|m|} m d(a) and
    (m, a, b) where (m a) b != m (ab).  Each law is one signed sum, left
    side minus right side, of raw products c * v in one dict keyed by
    (witness, output label): + D(m a) and + (m a) b from the rows m a of the
    action, - D(m) a, - (-1)^{|m|} m d(a) and - m (ab) from the rows of
    D(m), d(a) and ab.  Each sum is reduced once, at the end (mod p over
    F_p): a witness fails where some entry is nonzero.
    """
    deg, p = gm.degree, gm.ring.p
    by_module, by_algebra = rows
    mpos = {l: i for i, l in enumerate(gm.labels)}
    apos = {l: i for i, l in enumerate(alg.gm.labels)}
    acc = {}
    get = acc.get
    for m, row in by_module.items():
        i = mpos[m]
        for al, out in row:
            j = apos[al]
            for r, c in out.items():
                for s, v in diff.get(r, {}).items():
                    key = i, j, -1, s
                    acc[key] = get(key, 0) + c * v
                for bl, rb in by_module.get(r, ()):
                    k = apos[bl]
                    for s, v in rb.items():
                        key = i, j, k, s
                        acc[key] = get(key, 0) + c * v
    for m, dm in diff.items():
        i = mpos[m]
        for r, c in dm.items():
            for al, out in by_module.get(r, ()):
                j = apos[al]
                for s, v in out.items():
                    key = i, j, -1, s
                    acc[key] = get(key, 0) - c * v
    for al, da in alg.diff.items():
        j = apos[al]
        for r, c in da.items():
            for m, out in by_algebra.get(r, ()):
                i, c_m = mpos[m], c if deg[m] % 2 else -c
                for s, v in out.items():
                    key = i, j, -1, s
                    acc[key] = get(key, 0) + c_m * v
    for (al, bl), ab in alg.mult.items():
        j, k = apos[al], apos[bl]
        for r, c in ab.items():
            for m, out in by_algebra.get(r, ()):
                i = mpos[m]
                for s, v in out.items():
                    key = i, j, k, s
                    acc[key] = get(key, 0) - c * v
    return sorted({key[:3] for key, v in acc.items() if (v % p if p else v)})


def check_dga(a: DgAlgebra, max_failures: int = 10) -> dict:
    """Verify d^2 = 0, Leibniz, associativity and the unit laws exactly.

    Returns {"ok": bool, "failures": [...]}: each failure names the axiom
    and a witness tuple of basis labels, axioms in the order unit, d^2,
    Leibniz, associativity, witnesses in basis order; the first
    ``max_failures`` are listed, and "ok" counts them all.  The unit laws
    are read from ``left_mult(1)`` and ``right_mult(1)``; Leibniz and
    associativity are the laws of A as a right module over itself, one
    signed sum per witness and output label, reduced once at the end
    (:func:`_law_failures`).  The list, truncation included, is the one a
    loop over all n^2 pairs and n^3 triples of labels gives, in its order.
    """
    one = a.ring.one()
    failures = []

    def record(axiom, witness, detail=""):
        failures.append({"axiom": axiom, "witness": witness, "detail": detail})

    labels = a.gm.labels
    unit_l, l_unit = a.left_mult(a.unit), a.right_mult(a.unit)
    for l in labels:
        e = {l: one}
        if unit_l.get(l) != e:
            record("unit-left", (l,))
        if l_unit.get(l) != e:
            record("unit-right", (l,))

    for l in labels:
        dd = a.d_dict(a.diff.get(l, {}))
        if dd:
            record("d-squared", (l,), "d^2(%r) = %r" % (l, dd))

    bad = _law_failures(a.gm, a.diff, a._mult_rows(), a)
    for i, j, k in bad:
        if k < 0:
            record("leibniz", (labels[i], labels[j]))
    for i, j, k in bad:
        if k >= 0:
            record("associativity", (labels[i], labels[j], labels[k]))
    return {"ok": not failures, "failures": failures[:max_failures]}


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def _tensor(a: DgAlgebra, b: DgAlgebra, label, name: str) -> DgAlgebra:
    """A (x) B on the basis label(la, lb), la-major, with the Koszul product
    (la (x) lb)(la2 (x) lb2) = (-1)^{|lb||la2|} la la2 (x) lb lb2 and the
    differential d(la (x) lb) = d(la) (x) lb + (-1)^{|la|} la (x) d(lb)."""
    ring, mul, adeg, bdeg = a.ring, a.ring.mul, a.gm.degree, b.gm.degree
    names = {la: {lb: label(la, lb) for lb in b.gm.labels} for la in a.gm.labels}
    gm = GradedModule(ring, [(l, adeg[la] + bdeg[lb])
                             for la, row in names.items() for lb, l in row.items()])
    unit = {names[la][lb]: mul(ca, cb) for la, ca in a.unit.items() for lb, cb in b.unit.items()}
    mult = {}
    for (la, la2), pa in a.mult.items():
        left, right = names[la], names[la2]
        for (lb, lb2), pb in b.mult.items():
            sign = ring.sign(bdeg[lb] * adeg[la2])
            out = mult[left[lb], right[lb2]] = {}
            for ra, ca in pa.items():
                row, c = names[ra], mul(sign, ca)
                for rb, cb in pb.items():
                    out[row[rb]] = mul(c, cb)
    diff = {}
    for la, row in names.items():
        sgn, da = ring.sign(adeg[la]), a.diff.get(la, {})
        for lb, l in row.items():
            diff[l] = ring.axpy({names[ra][lb]: c for ra, c in da.items()},
                                sgn, {row[rb]: c for rb, c in b.diff.get(lb, {}).items()})
    return DgAlgebra(gm, unit, mult, diff, name=name)


def tensor_dga(a: DgAlgebra, b: DgAlgebra, name: str = "") -> DgAlgebra:
    """A (x) B with the Koszul product and differential d(x)1 + 1(x)d."""
    if a.ring != b.ring:
        raise DgError("tensor factors over different rings")
    return _tensor(a, b, lambda la, lb: (la, lb), name or "%s(x)%s" % (a.name, b.name))


def ground_dga(ring: Ring, name: str = "k") -> DgAlgebra:
    """The ground ring as a dg algebra on one degree-0 generator."""
    gm = GradedModule(ring, [("1", 0)])
    return DgAlgebra(gm, {"1": 1}, {(("1"), ("1")): {"1": 1}}, {}, name=name)


def endomorphism_dga(a: DgAlgebra, v: GradedModule, name: str = "") -> DgAlgebra:
    """End(V) (x) A, the tensor product of the graded matrix algebra End(V)
    (zero differential) with A.

    Basis labels are ("E", src, dst, alabel) for the map sending basis
    element ``src`` to ``dst`` tensored with the algebra label; its degree
    is deg(dst) - deg(src) + deg(alabel).  Composition pairs dst of the
    right factor against src of the left factor, with the Koszul sign
    (-1)^{|a| |psi|} for (phi (x) a)(psi (x) b), and d(phi (x) a) =
    (-1)^{|phi|} phi (x) d(a).
    """
    if v.ring != a.ring:
        raise DgError("module and algebra rings differ")
    us, deg = v.labels, v.degree
    # E_{u->w} E_{u2->u} = E_{u2->w}, with unit the sum of the E_{u->u}
    end = DgAlgebra(GradedModule(v.ring, [((u, w), deg[w] - deg[u]) for u in us for w in us]),
                    {(u, u): 1 for u in us},
                    {((u, w), (u2, u)): {(u2, w): 1} for u in us for w in us for u2 in us}, {})
    return _tensor(end, a, lambda uw, al: ("E",) + uw + (al,),
                   name or "End(V)(x)%s" % a.name)


# ---------------------------------------------------------------------------
# dg modules
# ---------------------------------------------------------------------------


class DgModule:
    """A right dg module with finite basis, action constants and differential.

    ``action`` maps (module label, algebra label) to a coefficient dict over
    module labels; ``diff`` maps a module label to its differential.
    """

    def __init__(self, gm: GradedModule, algebra: DgAlgebra, action: dict, diff: dict,
                 name: str = ""):
        self.gm = gm
        self.algebra = algebra
        self.ring = gm.ring
        self.name = name
        deg, adeg = gm.degree, algebra.gm.degree
        action_of, differential = lambda ma: deg[ma[0]] + adeg[ma[1]], lambda m: deg[m] + 1
        self.action = _normalized(self.ring, action, deg, action_of)
        self.diff = _normalized(self.ring, diff, deg, differential)
        check_degrees(deg, (self.action, action_of, "action"),
                       (self.diff, differential, "differential of"))

    def d_dict(self, x: dict) -> dict:
        return vec_apply(self.ring, self.diff, x)

    def complex(self) -> ChainComplexSpec:
        return complex_of(self.ring, self.gm, self.diff)

    def cohomology(self):
        return cohomology(self.complex())

    def check(self, max_failures: int = 10) -> dict:
        """Verify D^2 = 0, unitality, associativity and module Leibniz.

        As in :func:`check_dga`, Leibniz and associativity are one signed
        sum per witness and output label over the rows of ``action``,
        reduced once at the end (:func:`_law_failures`); the witnesses,
        truncation included, are those of loops over all m, a and b.
        """
        one = self.ring.one()
        failures = []

        def record(axiom, witness):
            failures.append({"axiom": axiom, "witness": witness})

        rows = _index(self.action)
        unit_act = _times_rows(self.ring, self.algebra.unit, rows[1])
        for m in self.gm.labels:
            if self.d_dict(self.diff.get(m, {})):
                record("D-squared", (m,))
            if unit_act.get(m) != {m: one}:
                record("unit", (m,))
        mlabels, alabels = self.gm.labels, self.algebra.gm.labels
        for i, j, k in _law_failures(self.gm, self.diff, rows, self.algebra):
            if k < 0:
                record("module-leibniz", (mlabels[i], alabels[j]))
            else:
                record("module-associativity", (mlabels[i], alabels[j], alabels[k]))
        return {"ok": not failures, "failures": failures[:max_failures]}

    def shifted(self, k: int) -> "DgModule":
        """M[k]: degrees relabelled by -k, differential scaled by (-1)^k."""
        sign = self.ring.sign(k)
        diff = {m: self.ring.axpy({}, sign, out) for m, out in self.diff.items()}
        return DgModule(self.gm.shifted(k), self.algebra, self.action, diff,
                        name="%s[%d]" % (self.name, k))

    def __repr__(self):
        return "DgModule(%s, dim %d over %s)" % (self.name or "?", self.gm.dim,
                                                 self.algebra.name or "?")


def ground_module(gm: GradedModule, diff: dict, name: str) -> DgModule:
    """The complex (gm, diff) over k as a dg module over :func:`ground_dga`."""
    one = gm.ring.one()
    return DgModule(gm, ground_dga(gm.ring), {(l, "1"): {l: one} for l in gm.labels}, diff,
                    name=name)


def module_map_is_closed(f: dict, m: DgModule, n: DgModule) -> bool:
    """f: M -> N (degree 0, by label dict) commutes with the differentials."""
    return all(n.d_dict(f.get(l, {})) == vec_apply(m.ring, f, m.diff.get(l, {}))
               for l in m.gm.labels)


def module_map_is_linear(f: dict, m: DgModule, n: DgModule) -> bool:
    """f(l a) = f(l) a for every basis label l of M and a of A, read from
    the rows of M's and N's action tables."""
    ring = m.ring
    return all(vec_apply(ring, f, m.action.get((l, al), {}))
               == vec_apply(ring, {s: n.action.get((s, al), {}) for s in f.get(l, {})},
                            f.get(l, {}))
               for l in m.gm.labels for al in m.algebra.gm.labels)


def cone(f: dict, m: DgModule, n: DgModule, name: str = "") -> DgModule:
    """The cone on a closed degree-0 map f: M -> N of dg modules.

    Underlying module M[1] (+) N; the differential is upper triangular,
    (x, y) |-> (-d_M x, f(x) + d_N y).  For f = 0 this is the direct sum
    M[1] (+) N with block-diagonal differential, and cone(id) is acyclic.
    """
    if m.algebra is not n.algebra:
        raise DgError("cone over different algebras")
    ring = m.ring
    for l in m.gm.labels:
        for r in f.get(l, {}):
            if n.gm.degree[r] != m.gm.degree[l]:
                raise DgError("cone input is not of degree 0")
    if not module_map_is_closed(f, m, n):
        raise DgError("cone input is not closed")
    if not module_map_is_linear(f, m, n):
        raise DgError("cone input is not a module map")
    basis = [(("M", l), m.gm.degree[l] - 1) for l in m.gm.labels]
    basis += [(("N", l), n.gm.degree[l]) for l in n.gm.labels]
    gm = GradedModule(ring, basis)
    action = {}
    for (l, al), out in m.action.items():
        action[(("M", l), al)] = {("M", r): c for r, c in out.items()}
    for (l, al), out in n.action.items():
        action[(("N", l), al)] = {("N", r): c for r, c in out.items()}
    diff = {}
    for l in m.gm.labels:
        minus_dm = {("M", r): ring.neg(c) for r, c in m.diff.get(l, {}).items()}
        diff[("M", l)] = ring.axpy(minus_dm, 1, {("N", r): c for r, c in f.get(l, {}).items()})
    for l in n.gm.labels:
        if l in n.diff:
            diff[("N", l)] = {("N", r): c for r, c in n.diff[l].items()}
    return DgModule(gm, m.algebra, action, diff, name=name or "cone")


# ---------------------------------------------------------------------------
# Hom complexes
# ---------------------------------------------------------------------------


class HomComplex:
    """The complex of right-module homomorphisms Hom_A(M, N) over k.

    Basis maps are found by solving the A-linearity constraints degreewise;
    the differential is d(f) = d_N o f - (-1)^{|f|} f o d_M, and
    :meth:`compose` is the chain-level pairing.
    """

    def __init__(self, m: DgModule, n: DgModule):
        if m.algebra is not n.algebra:
            raise DgError("Hom of modules over different algebras")
        self.m = m
        self.n = n
        self.ring = m.ring
        self._basis = {}  # degree -> list of maps (dict mlabel -> dict nlabel -> c)
        self._compute_bases()

    def _pairs(self, k):
        # the pairs (ml, nl) with |nl| - |ml| = k, ml-major, each in basis order
        of_degree, mdeg = self.n.gm.labels_of_degree, self.m.gm.degree
        return [(ml, nl) for ml in self.m.gm.labels for nl in of_degree(mdeg[ml] + k)]

    def _compute_bases(self):
        ring = self.ring
        of_degree, mdeg = self.n.gm.labels_of_degree, self.m.gm.degree
        adeg = self.m.algebra.gm.degree
        act_m, act_n = self.m.action, self.n.action  # m . a for basis labels m, a
        for k in sorted({dn - dm for dm in self.m.gm.degrees() for dn in self.n.gm.degrees()}):
            # the system has one column per pair and one row per equation,
            # numbered as emitted
            columns = {p: {} for p in self._pairs(k)}
            # linearity f(m . a) = f(m) . a: for each (ml, al) and target t,
            # sum_r act_M[ml,al][r] f[r,t] - sum_s f[ml,s] act_N[s,al][t] = 0,
            # read from the nonzero constants: r, s and t lie in the degrees
            # |ml| + |al|, |ml| + k and |ml| + |al| + k
            # a row is kept when a term enters it, also when the terms cancel
            neqs = 0
            for ml in self.m.gm.labels:
                sources = of_degree(mdeg[ml] + k)
                for al in self.m.algebra.gm.labels:
                    lhs = act_m.get((ml, al), {})
                    rhs = {}  # t -> {(ml, s): act_N[s,al][t]}
                    for s in sources:
                        for t, c in act_n.get((s, al), {}).items():
                            rhs.setdefault(t, {})[(ml, s)] = c
                    for t in of_degree(mdeg[ml] + adeg[al] + k):
                        if lhs or t in rhs:
                            row = {(r, t): c for r, c in lhs.items()}
                            for p, c in ring.axpy(row, -1, rhs.get(t, {})).items():
                                columns[p][neqs] = c
                            neqs += 1
            basis = []
            for vec in solve_columns(ring, columns, range(neqs))[1]:
                f = {}
                for (ml, nl), c in vec.items():
                    f.setdefault(ml, {})[nl] = c
                basis.append(f)
            if basis:
                self._basis[k] = basis

    def basis(self, degree: int):
        return list(self._basis.get(degree, []))

    def degrees(self):
        return sorted(self._basis)

    def apply_d(self, f: dict, degree: int) -> dict:
        """d(f) = d_N o f - (-1)^{|f|} f o d_M as a raw map."""
        ring = self.ring
        out = {ml: self.n.d_dict(img) for ml, img in f.items()}
        sign = ring.neg(ring.sign(degree))
        for ml in self.m.gm.labels:
            acc = out.setdefault(ml, {})
            for r, c in self.m.diff.get(ml, {}).items():
                ring.axpy(acc, ring.mul(sign, c), f.get(r, {}))
        return {k: v for k, v in out.items() if v}

    def compose(self, g: dict, f: dict) -> dict:
        """(g o f)(m) = g(f(m)); a chain-level pairing Hom(N,P) x Hom(M,N)."""
        out = {}
        for ml, img in f.items():
            acc = vec_apply(self.ring, g, img)
            if acc:
                out[ml] = acc
        return out

    def as_dgmodule(self, name: str = "") -> DgModule:
        """Package the Hom complex as a dg module over the ground ring."""
        def vector(g):  # a raw map as a vector over the pairs (ml, nl)
            return {(ml, nl): c for ml, img in g.items() for nl, c in img.items()}

        ring = self.ring
        basis = []
        for k in self.degrees():
            for i, _ in enumerate(self._basis[k]):
                basis.append((("hom", k, i), k))
        gm = GradedModule(ring, basis)
        diff = {}
        for k in self.degrees():
            targets = self._basis.get(k + 1, [])
            if not targets:
                continue
            # the coordinates of every d(f) in the degree k + 1 basis, off one
            # factorization
            columns = {("hom", k + 1, j): vector(g) for j, g in enumerate(targets)}
            sols, _ = solve_columns(ring, columns, self._pairs(k + 1),
                                    [vector(self.apply_d(f, k)) for f in self._basis[k]])
            if None in sols:
                raise DgError("map does not lie in the computed Hom space")
            diff.update((("hom", k, i), out) for i, out in enumerate(sols) if out)
        return ground_module(gm, diff, name or "Hom complex")


# ---------------------------------------------------------------------------
# free hull G(L)
# ---------------------------------------------------------------------------


def free_hull(a: DgAlgebra, generators, name: str = "") -> DgModule:
    """The free hull G(L) of the free graded A^#-module L on ``generators``.

    G(L) consists of formal symbols x + dy for x, y in L, with action
    (x + dy) a = x a + d(y a) - (-1)^{|y|} y da and differential
    d(x + dy) = dx.  Its underlying graded module is L (+) L[-1]; the unit
    map L -> G(L) is the inclusion of the x-part.
    """
    ring = a.ring
    gens = list(generators)
    basis = []
    for g, gd in gens:
        for al in a.gm.labels:
            d = gd + a.gm.degree[al]
            basis.append((("x", g, al), d))
            basis.append((("dx", g, al), d + 1))
    gm = GradedModule(ring, basis)
    action = {}
    times_db = {bl: a.right_mult(a.diff.get(bl, {})) for bl in a.gm.labels}  # {al: al db}
    for g, gd in gens:
        for al in a.gm.labels:
            ydeg = gd + a.gm.degree[al]
            for bl in a.gm.labels:
                prod = a.mul_labels(al, bl)
                out_x = {("x", g, r): c for r, c in prod.items()}
                if out_x:
                    action[(("x", g, al), bl)] = out_x
                # (d y) b = d(y b) - (-1)^{|y|} y db
                dyb = times_db[bl].get(al, {})
                action[(("dx", g, al), bl)] = ring.axpy(
                    {("dx", g, r): c for r, c in prod.items()},
                    ring.sign(ydeg + 1), {("x", g, r): c for r, c in dyb.items()})
    diff = {("x", g, al): {("dx", g, al): ring.one()}
            for g, _ in gens for al in a.gm.labels}
    return DgModule(gm, a, action, diff, name=name or "G(L)")
