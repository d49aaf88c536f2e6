"""The interval algebra family K_0*, K_1*, ... and its homotopy dictionaries.

K_n (n >= 1) is the nerve of the two-object groupoid with mutually inverse
arrows, truncated at dimension n; K_0 is the nerve of the one-arrow
category.  The algebras K_n* are the normalized cochain algebras of these
simplicial sets: they are *derived* from the simplicial model, never typed
in from a printed presentation, and the presentation (idempotents e, f,
degree-1 generators s, t, alternating words) is then a verified property.

Pinned labelling, recorded once here and asserted in tests:

* e  = dual of the vertex at the target of the arrow u ("O2"),
* f  = dual of the other vertex ("O1"),
* s  = dual of the edge u, t = dual of the edge ui,
* ev0 = evaluation at the e-vertex, ev1 = at the f-vertex,
* the alternating word with first letter s and length m is the dual of the
  simplex string whose i-th arrow alternates u, ui, ... starting with u.

A homotopy between MC elements x0, x1 of a dg algebra A is an MC element
of A (x) K_n*; it is stored sparsely as a dict {K_n* basis label: element
of A}, which also works for the lazily represented free dg algebras.
:func:`homotopy_to_functor` reads its endpoints x = X_e, x' = X_f and its
coefficients; the constant homotopy x (x) (e + f) is
``functor_to_homotopy(a, k, {"x": x, "x'": x, "u": [], "v": []})[0]``.
"""

from __future__ import annotations

from .dgcore import DgError, Element
from .exactlinalg import Ring
from .simplicial import (
    cochain_algebra,
    interval_groupoid,
    nerve,
    one_arrow_category,
)

N_MAX_DEFAULT = 8


class IntervalAlgebra:
    """K_n* together with its distinguished labels."""

    def __init__(self, n: int, ring: Ring):
        if n < 0:
            raise DgError("level must be nonnegative")
        self.n = n
        self.ring = ring
        if n == 0:
            self.sset = nerve(one_arrow_category(), cap=1, name="K_0")
        else:
            self.sset = nerve(interval_groupoid(), cap=n, name="K_%d" % n)
        self.dga = cochain_algebra(self.sset, ring, name="K_%d*" % n)
        self.e = ("@", "O2")
        self.f = ("@", "O1")
        self.s = ("#", "u")
        self.t = ("#", "ui") if n >= 1 and ("#", "ui") in self.dga.gm.degree else None

    def word_label(self, first: str, length: int):
        """The basis label dual to the alternating word s t s ... or t s t ...

        The i-th letter of the word evaluates on the i-th edge of a simplex
        string, so the word corresponds to the string whose arrows alternate
        starting with u (for first = "s") or ui (for first = "t").
        """
        if length < 1:
            raise DgError("word length must be positive")
        start = "u" if first == "s" else "ui"
        arrows = [start if i % 2 == 0 else ("ui" if start == "u" else "u")
                  for i in range(length)]
        label = ("#",) + tuple(reversed(arrows))
        if label not in self.dga.gm.degree:
            raise DgError("word %r absent from K_%d*" % (label, self.n))
        return label

    def ranks(self):
        top = self.sset.dimension
        return tuple(len(self.dga.gm.labels_of_degree(d)) for d in range(top + 1))

    def presentation(self) -> dict:
        """Derived basis, products and differential, machine readable."""
        dga = self.dga
        return {
            "level": self.n,
            "ring": self.ring.name,
            "basis": [[_label_str(l), dga.gm.degree[l]] for l in dga.gm.labels],
            "unit": [[_label_str(l), str(c)] for l, c in sorted(dga.unit.items())],
            "diff": sorted(
                [[_label_str(l), _label_str(r), str(c)]
                 for l, out in dga.diff.items() for r, c in out.items()]),
            "mult": sorted(
                [[_label_str(a), _label_str(b), _label_str(r), str(c)]
                 for (a, b), out in dga.mult.items() for r, c in out.items()]),
            "labels": {"e": _label_str(self.e), "f": _label_str(self.f),
                       "s": _label_str(self.s),
                       "t": _label_str(self.t) if self.t else None},
        }


def _label_str(label) -> str:
    if isinstance(label, tuple):
        return "/".join(str(p) for p in label)
    return str(label)


def build_interval_algebra(n: int, ring: Ring) -> IntervalAlgebra:
    if n > N_MAX_DEFAULT:
        raise DgError("level %d exceeds the configured bound %d" % (n, N_MAX_DEFAULT))
    return IntervalAlgebra(n, ring)


# ---------------------------------------------------------------------------
# sparse homotopies: elements of A (x) K_n*
# ---------------------------------------------------------------------------


def tensor_mc_residual(a, k: IntervalAlgebra, x_dict: dict) -> dict:
    """d(X) + X^2 in A (x) K_n* for X = sum_xi x_xi (x) xi, as a sparse dict.

    Koszul rules: d(p (x) xi) = d(p) (x) xi + (-1)^{|p|} p (x) d(xi) and
    (p (x) xi)(q (x) eta) = (-1)^{|xi| |q|} pq (x) (xi eta), where each
    term of p and q is signed by its own degree.  The sums are coefficient
    dicts built by ``d_dict``, ``mul_dicts`` and ``Ring.axpy``, so any
    algebra with those and ``gm.degree`` serves, lazy free dg algebras
    included; the result is {label: Element}, zero labels left out.
    """
    ring, kd, deg = a.ring, k.dga, a.gm.degree
    # each coefficient p as a dict, and as p with every term l times (-1)^{|l|}
    coeffs = {xi: a.as_element(p).coeffs for xi, p in x_dict.items()}
    signed = {xi: {l: ring.neg(c) if deg[l] % 2 else c for l, c in p.items()}
              for xi, p in coeffs.items()}
    out = {}
    for xi, p in coeffs.items():
        ring.axpy(out.setdefault(xi, {}), 1, a.d_dict(p))
        for eta, c in kd.diff.get(xi, {}).items():
            ring.axpy(out.setdefault(eta, {}), c, signed[xi])
        odd = kd.gm.degree[xi] % 2
        for eta, q in coeffs.items():
            prod = kd.mul_labels(xi, eta)
            if prod:
                pq = a.mul_dicts(p, signed[eta] if odd else q)
                for rho, c in prod.items():
                    ring.axpy(out.setdefault(rho, {}), c, pq)
    return {l: Element(a, v) for l, v in out.items() if v}


def tensor_is_mc(a, k: IntervalAlgebra, x_dict: dict) -> tuple:
    res = tensor_mc_residual(a, k, x_dict)
    return not res, res


# ---------------------------------------------------------------------------
# the K_2 dictionary (homotopies of MC elements <-> certificates)
# ---------------------------------------------------------------------------


def certificate_from_k2_homotopy(a, k2: IntervalAlgebra, x_dict: dict):
    """Extract endpoints and a homotopy gauge certificate from a K_2 homotopy.

    This is the level-2 functor dictionary: for the functor data (x, x',
    u_0, u_1, v_0, v_1) of X, the MC equation of X says exactly that
    g = 1 + u_0 and h = 1 + v_0 are closed maps A^[x] -> A^[x'] and back,
    with witnesses wx = -v_1 and wy = -u_1.  The returned certificate
    always re-verifies.
    """
    from .mc import HomotopyGaugeCertificate, MCElement, MCError, verify_homotopy_gauge
    if k2.n < 2:
        raise DgError("need the level-2 interval algebra")
    ok, res = tensor_is_mc(a, k2, x_dict)
    if not ok:
        raise MCError("the homotopy is not Maurer-Cartan; residual at %r"
                      % (sorted(res, key=str)[0],))
    data = _functor_data(a, k2, x_dict)
    x, x1 = MCElement(a, data["x"]), MCElement(a, data["x'"])
    (u0, u1), (v0, v1) = data["u"][:2], data["v"][:2]
    cert = HomotopyGaugeCertificate(u0 + a.one(), v0 + a.one(), -v1, -u1)
    okc, fails = verify_homotopy_gauge(a, x, x1, cert)
    if not okc:
        raise MCError("internal: extracted certificate fails %r" % (fails,))
    return x, x1, cert


def k2_homotopy_from_certificate(a, k2: IntervalAlgebra, x: MCElement, x1: MCElement,
                                 cert: HomotopyGaugeCertificate) -> dict:
    """The converse direction: assemble an exactly-MC element of A (x) K_2*."""
    from .mc import MCError, verify_homotopy_gauge
    okc, fails = verify_homotopy_gauge(a, x, x1, cert)
    if not okc:
        raise MCError("certificate fails %r" % (fails,))
    g, h, wx, wy = (a.as_element(e) for e in (cert.g, cert.h, cert.wx, cert.wy))
    x_dict = _homotopy(a, k2, {"x": x.value, "x'": x1.value,
                               "u": [g - a.one(), -wy], "v": [h - a.one(), -wx]})
    ok, res = tensor_is_mc(a, k2, x_dict)
    if not ok:
        raise MCError("internal: reassembled homotopy is not MC at %r"
                      % (sorted(res, key=str),))
    return x_dict


# ---------------------------------------------------------------------------
# the truncated resolution category K_infinity
# ---------------------------------------------------------------------------


class KInftyCategoryTrunc:
    """Differential table of the two-object resolution category, derived.

    ``diff_u`` maps the internal coefficient generators ("u", n) / ("v", n)
    to free-algebra elements over letters x, x', ("u", m), ("v", m); it is
    obtained mechanically by expanding the MC equation of a generic element
    of A (x) K_N*.  ``presentation`` carries the same data in the category
    variables x_n, y_n after the pinned relabelling (a sign per degree and a
    word-writing order) that matches the printed degree-1 anchors; the
    relabelling is recorded in ``relabel``.
    """

    def __init__(self, n_trunc: int, ring: Ring, free: FreeDgAlgebra,
                 diff_u: dict, presentation: dict, relabel: dict):
        self.n_trunc = n_trunc
        self.ring = ring
        self.free = free
        self.diff_u = diff_u
        self.presentation = presentation
        self.relabel = relabel

def k_infty_category(n_trunc: int, ring: Ring = None) -> KInftyCategoryTrunc:
    """Derive the truncated resolution category from the simplicial model.

    A generic homotopy X = x e + x' f + sum u_m (s-word of length m+1)
    + sum v_m (t-word) is expanded in the free dg algebra on formal letters;
    the MC coefficient equation at each word *defines* d(u_m), d(v_m).
    d^2 = 0 on every generator is then verified by expansion; failure is a
    hard error.
    """
    from .fixtures import FreeDgAlgebra
    ring = ring or Ring.Q()
    if n_trunc < 1 or n_trunc > N_MAX_DEFAULT:
        raise DgError("truncation level out of range")
    k = build_interval_algebra(n_trunc, ring)
    gens = {"x": 1, "x'": 1}
    for m in range(n_trunc):
        gens[("u", m)] = -m
        gens[("v", m)] = -m
    free = FreeDgAlgebra(ring, gens, name="K_infinity coefficients")
    xe = free.gen("x")
    xf = free.gen("x'")
    free.set_differential("x", -(xe * xe))
    free.set_differential("x'", -(xf * xf))
    x_dict = _homotopy(free, k, {"x": xe, "x'": xf,
                                 "u": [free.element({(("u", m),): 1}) for m in range(n_trunc)],
                                 "v": [free.element({(("v", m),): 1}) for m in range(n_trunc)]})

    # With d still unset on the u, v letters, the residual at each word is
    # exactly the defining equation d(u_m) + (rest) = 0 minus its d-term.
    rest = tensor_mc_residual(free, k, x_dict)
    diff_u = {}
    for m in range(n_trunc):
        for fam, first in (("u", "s"), ("v", "t")):
            label = k.word_label(first, m + 1)
            expr = -rest.get(label, free.zero())
            diff_u[(fam, m)] = expr
            free.set_differential((fam, m), expr)
    # consistency: full residual vanishes and d^2 = 0 on every generator
    ok, res = tensor_is_mc(free, k, x_dict)
    if not ok:
        raise DgError("internal: generic homotopy residual nonzero at %r"
                      % (sorted(res, key=str),))
    for g in list(gens):
        dd = free.d_dict(free.d_dict({(g,): ring.one()}))
        if dd:
            raise DgError("no consistent differential: d^2(%r) != 0: %r" % (g, dd))
    presentation, relabel = _category_presentation(free, diff_u, n_trunc, ring)
    return KInftyCategoryTrunc(n_trunc, ring, free, diff_u, presentation, relabel)


def _category_presentation(free: FreeDgAlgebra, diff_u: dict, n_trunc: int, ring: Ring):
    """Translate the u/v table into category variables x_n, y_n.

    The ambient sandwich terms (words containing the letters x, x') are the
    twisted part of the Hom differential and are dropped; u_0, v_0 shift by
    the identity (x_0 = u_0 + 1).  A per-degree sign and a word order are
    then chosen so the degree-1 anchors match d(x_1) = y_0 x_0 - 1 and
    d(y_1) = x_0 y_0 - 1.
    """
    def translate(expr: Element, signs, reverse: bool):
        terms = {}
        for word, c in expr.coeffs.items():
            if any(g in ("x", "x'") for g in word):
                continue  # ambient sandwich terms: the twisted part of d_Hom
            new = tuple(("x" if fam == "u" else "y", m) for fam, m in word)
            if reverse:
                new = tuple(reversed(new))
            ring.axpy(terms, ring.mul(c, _sub_sign(word, signs)), _expand_affine(new))
        return terms

    def _sub_sign(word, signs):
        s = ring.one()
        for fam, m in word:
            s = ring.mul(s, signs[m])
        return s

    def _expand_affine(word):
        # the table is stated in u-variables where x_0 = u_0 + 1, so each
        # degree-0 letter expands as u_0 = x_0 - 1 into signed subwords
        out = {(): ring.one()}
        for gname in word:
            new = {w + (gname,): c for w, c in out.items()}
            out = ring.axpy(new, -1, out) if gname[1] == 0 else new
        return out

    anchors = {("x", 1): {(("y", 0), ("x", 0)): ring.one(), (): ring.coerce(-1)},
               ("y", 1): {(("x", 0), ("y", 0)): ring.one(), (): ring.coerce(-1)}}
    for reverse, sign1 in ((False, 1), (False, -1), (True, 1), (True, -1)):
        signs = {m: ring.coerce(sign1 if m % 2 else 1) for m in range(n_trunc)}
        table = {}
        for (fam, m), expr in diff_u.items():
            tr = translate(expr, signs, reverse)
            table[("x" if fam == "u" else "y", m)] = {w: ring.mul(c, signs[m])
                                                       for w, c in tr.items()}
        if n_trunc < 2 or all(table.get(name) == want for name, want in anchors.items()):
            break
    else:
        raise DgError("no sign assignment matches the degree-1 anchors")
    relabel = {
        "word_order": "diagrammatic" if reverse else "function",
        "odd_degree_sign": sign1,
        "note": "x_n maps to the coefficient of the s-word of length n+1; "
                "x_0 shifts by the identity",
    }
    pres = {"generators": [], "differential": {}}
    for m in range(n_trunc):
        pres["generators"].append({"name": "x_%d" % m, "degree": m})
        pres["generators"].append({"name": "y_%d" % m, "degree": m})
    for name, tr in sorted(table.items(), key=str):
        disp = "x_%d" % name[1] if name[0] == "x" else "y_%d" % name[1]
        pres["differential"][disp] = _format_poly(tr, ring)
    return pres, relabel


def _format_poly(tr: dict, ring: Ring) -> str:
    if not tr:
        return "0"
    bits = []
    for w, c in sorted(tr.items(), key=str):
        word = "".join(("x_%d" % m if f == "x" else "y_%d" % m) for f, m in w) or "1"
        cs = str(c)
        if cs == "1" and w:
            bits.append(word)
        elif cs == "-1" and w:
            bits.append("-" + word)
        else:
            bits.append("%s*%s" % (cs, word) if w else cs)
    return " + ".join(bits).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# level-N dictionaries (functor data <-> homotopies)
# ---------------------------------------------------------------------------


def _homotopy(a, k: IntervalAlgebra, data: dict) -> dict:
    """X = x e + x' f + sum_m u_m (s-word of length m+1) + v_m (t-word of length
    m+1) in A (x) K_n*, as a sparse dict: zero terms are left out."""
    terms = [(k.e, data["x"]), (k.f, data["x'"])]
    terms += [(k.word_label(first, m + 1), val) for first, fam in (("s", "u"), ("t", "v"))
              for m, val in enumerate(data[fam])]
    return {l: v for l, val in terms if not (v := a.as_element(val)).is_zero()}


def _functor_data(a, k: IntervalAlgebra, x_dict: dict) -> dict:
    """The endpoints x, x' and the coefficients u_m, v_m (m < n) of a homotopy."""
    get = lambda l: a.as_element(x_dict.get(l, a.zero()))
    return {"x": get(k.e), "x'": get(k.f),
            "u": [get(k.word_label("s", m + 1)) for m in range(k.n)],
            "v": [get(k.word_label("t", m + 1)) for m in range(k.n)]}


def homotopy_to_functor(a, k: IntervalAlgebra, x_dict: dict) -> dict:
    """Extract endpoints and the coefficient family u_m, v_m of a homotopy.

    The input must be exactly MC over A (x) K_N*; the MC coefficient
    equations at word length m+1 are precisely the dg-functor equations for
    the generators of degree m <= N-1, so they hold by construction.  The
    report includes the next-level obstruction: the residual that appears
    at word length N+1 when the homotopy is extended to K_{N+1}* by zero.
    """
    from .mc import MCError
    ok, res = tensor_is_mc(a, k, x_dict)
    if not ok:
        raise MCError("homotopy is not MC at %r" % (sorted(res, key=str),))
    data = _functor_data(a, k, x_dict)
    data["obstruction"] = _next_level_obstruction(a, k, data)
    return data


def functor_to_homotopy(a, k: IntervalAlgebra, data: dict) -> tuple:
    """Assemble the homotopy from functor data; returns (x_dict, report).

    The dg-functor equations up to degree N-1 are equivalent to the MC
    equation over A (x) K_N*, which is verified exactly; the degree-N
    component of the residual over K_{N+1}* may be nonzero and is reported.
    """
    from .mc import MCError
    x_dict = _homotopy(a, k, data)
    ok, res = tensor_is_mc(a, k, x_dict)
    if not ok:
        raise MCError("functor equations fail at %r" % (sorted(res, key=str),))
    report = {"mc_below_truncation": True,
              "next_level_obstruction": _next_level_obstruction(a, k, data)}
    return x_dict, report


def _next_level_obstruction(a, k: IntervalAlgebra, data: dict) -> dict:
    if k.n + 1 > N_MAX_DEFAULT:
        return {"checked": False}
    k_up = build_interval_algebra(k.n + 1, k.ring)
    res = tensor_mc_residual(a, k_up, _homotopy(a, k_up, data))
    top = {l: e for l, e in res.items() if len(l) - 1 == k.n + 1}
    return {"checked": True, "vanishes": not top,
            "support": sorted(_label_str(l) for l in top)}
