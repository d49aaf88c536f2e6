"""JSON (de)serialization for algebras, complexes, MC data and reports.

Basis labels are JSON-encoded structurally: tuples become arrays and are
restored as tuples on load, so the nerve/product label schemes survive a
round trip.  Scalars are encoded as integers or "a/b" strings.
"""

from __future__ import annotations

import contextlib
import json
import marshal

from .dgcore import DgAlgebra, GradedModule
from .exactlinalg import ChainComplexSpec, CohomologyReport, ExactMatrix, InputError, Ring


# the largest count, and the largest |degree|, that a file may declare where
# no data it carries bounds it; also the largest gauge-search budget
CEILING = 1024

# every integer a file declares is read by the rule coefficients follow
_integer = Ring.Z().coerce


def bounded(x, what: str, low: int = 0) -> int:
    """The integer x, refused with InputError outside low..CEILING."""
    n = _integer(x)
    if not low <= n <= CEILING:
        raise InputError("%s %d is outside %d..%d" % (what, n, low, CEILING))
    return n


def _degree(x) -> int:
    return bounded(x, "degree", -CEILING)


@contextlib.contextmanager
def _reading(kind: str):
    # the one conversion: what reading a file's parts raises is bad input (a
    # RecursionError comes from decoding a label nested too deep)
    try:
        yield
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise InputError("bad %s JSON: %s" % (kind, exc)) from exc


def encode_label(label):
    if isinstance(label, tuple):
        return [encode_label(p) for p in label]
    return label


def decode_label(obj):
    if isinstance(obj, list):  # a leaf is kept without a call
        return tuple([decode_label(p) if isinstance(p, list) else p for p in obj])
    return obj


def encode_scalar(c) -> str:
    return str(c)


def dga_to_json(a: DgAlgebra) -> dict:
    return {
        "ring": a.ring.name,
        "basis": [[encode_label(l), d] for l, d in a.gm.basis()],
        "unit": [[encode_label(l), encode_scalar(c)] for l, c in sorted(
            a.unit.items(), key=lambda kv: str(kv[0]))],
        "diff": sorted([[encode_label(l), encode_label(r), encode_scalar(c)]
                        for l, out in a.diff.items() for r, c in out.items()],
                       key=str),
        "mult": sorted([[encode_label(x), encode_label(y), encode_label(r),
                         encode_scalar(c)]
                        for (x, y), out in a.mult.items() for r, c in out.items()],
                       key=str),
    }


def _decoders(ring: Ring) -> tuple:
    """(label, scalar): decode_label and ring.coerce, each computed once per
    encoded label and per coefficient string.  A label is keyed by its
    marshal bytes, which tell [1], [true], [1.0] and ["1"] apart; version 2
    writes no back-references, so equal labels give equal bytes."""
    labels, scalars = {}, {}

    def label(obj):
        if not isinstance(obj, list):
            return obj
        key = marshal.dumps(obj, 2)
        out = labels.get(key)
        if out is None:
            out = labels[key] = decode_label(obj)
        return out

    def scalar(c):
        if type(c) is not str:
            return ring.coerce(c)
        out = scalars.get(c)
        if out is None:
            out = scalars[c] = ring.coerce(c)
        return out

    return label, scalar


def dga_from_json(obj: dict) -> DgAlgebra:
    with _reading("dg algebra"):
        ring = Ring.parse(obj["ring"])
        label, scalar = _decoders(ring)
        gm = GradedModule(ring, [(label(l), _degree(d)) for l, d in obj["basis"]])
        unit_obj = obj["unit"]
        if isinstance(unit_obj, (str, int)) or (
                isinstance(unit_obj, list) and unit_obj and
                not isinstance(unit_obj[0], list)):
            unit = {label(unit_obj): ring.one()}
        else:
            unit = {label(l): scalar(c) for l, c in unit_obj}
        diff = {}
        for l, r, c in obj.get("diff", []):
            diff.setdefault(label(l), {})[label(r)] = scalar(c)
        mult = {}
        for x, y, r, c in obj.get("mult", []):
            mult.setdefault((label(x), label(y)), {})[label(r)] = scalar(c)
        return DgAlgebra(gm, unit, mult, diff)


def element_to_json(coeffs: dict) -> list:
    return sorted([[encode_label(l), encode_scalar(c)] for l, c in coeffs.items()],
                  key=str)


def element_from_json(a, obj) -> dict:
    label, scalar = _decoders(a.ring)
    with _reading("element"):
        return {label(l): scalar(c) for l, c in obj}


def matrix_from_json(obj, ring: Ring) -> ExactMatrix:
    """A matrix over ``ring``: a list of rows, or {rows, cols, entries}."""
    with _reading("matrix"):
        if isinstance(obj, list):
            return ExactMatrix.from_rows(ring, obj)
        # a list of entries, so that its length bounds "rows"
        return ExactMatrix(ring, _integer(obj["rows"]), _integer(obj["cols"]),
                           list(obj["entries"]))


def chain_complex_from_json(obj) -> ChainComplexSpec:
    """{ring, dims: {degree: dimension}, maps: {degree: matrix}} as a complex."""
    with _reading("complex"):
        ring = Ring.parse(obj["ring"])
        if not (isinstance(obj["dims"], dict) and isinstance(obj["maps"], dict)):
            raise TypeError('"dims" and "maps" must be JSON objects')
        dims = {_degree(k): _integer(n) for k, n in obj["dims"].items()}
        maps = {_degree(k): matrix_from_json(m, ring) for k, m in obj["maps"].items()}
        # a dimension is the length of a list of matrix entries, or at most CEILING
        carried = {d for k, m in maps.items() if m.rows for d in (k, k + 1)}
        for d, n in dims.items():
            if d not in carried:
                bounded(n, "dimension")
        return ChainComplexSpec(ring, dims, maps)


def report_to_json(rep: CohomologyReport) -> list:
    """One entry per degree, from the lowest to the highest nonzero one and 0."""
    degs = [0] + rep.degrees()
    out = []
    for d in range(min(degs), max(degs) + 1):
        out.append({"degree": d, "rank": rep.rank(d)})
        if rep.torsion(d):
            out[-1]["torsion"] = list(rep.torsion(d))
    return out


def complex_to_json(sset) -> dict:
    """Ordered simplicial complex JSON (vertex tuples only)."""
    top = []
    for d in range(sset.dimension, -1, -1):
        for s in sset.nondegenerate(d):
            if not isinstance(s, tuple):
                raise InputError("only ordered complexes serialize this way")
            if not any(set(s) < set(t) for t in top):
                top.append(s)
    verts = [s[0] for s in sset.nondegenerate(0)]
    return {"vertices": list(verts), "simplices": [list(s) for s in sorted(top)]}


def complex_from_json(obj):
    from .simplicial import from_ordered_complex
    with _reading("simplicial complex"):
        return from_ordered_complex(obj["vertices"], [tuple(s) for s in obj["simplices"]])


def _edges(pairs, label, what: str):
    # each [edge, matrix] as (edge, matrix JSON); a repeated edge is refused, not merged
    given = set()
    for edge, mat in pairs:
        e = label(edge)
        if e in given:
            raise ValueError("%s on %r: the edge is given twice" % (what, e))
        given.add(e)
        yield e, mat


def local_system_from_json(obj, complex_obj=None):
    """A local system; its rank is its monodromy's size, or at most CEILING."""
    from .simplicial import LocalSystem
    with _reading("local system"):
        ring = Ring.parse(obj["ring"])
        rank = _integer(obj["rank"])
        base = complex_from_json(complex_obj if complex_obj is not None else obj["complex"])
        monodromy = {e: matrix_from_json(mat, ring)
                     for e, mat in _edges(obj.get("monodromy", []), decode_label, "monodromy")}
        if any((m.rows, m.cols) != (rank, rank) for m in monodromy.values()):
            raise ValueError("rank %d is not the size of the monodromy matrices" % rank)
        if not monodromy:
            bounded(rank, "rank")
        v = GradedModule(ring, [(("v", i), 0) for i in range(rank)])
        return LocalSystem(base, v, monodromy)


def _algebra(obj) -> DgAlgebra:
    # the dg algebra a file holds inline under "algebra", or names by path (a
    # string: open(0) would read standard input)
    alg = obj["algebra"]
    return dga_from_json(load_json_file(alg) if isinstance(alg, str) else alg)


def mc_element_from_json(obj, a: DgAlgebra = None) -> tuple:
    """(A, {label: c}) of {algebra: <inline or path>, value: [[label, c]...]};
    given the algebra A, the file needs no "algebra"."""
    with _reading("MC element"):
        a = _algebra(obj) if a is None else a
        return a, element_from_json(a, obj["value"])


def module_from_json(obj) -> tuple:
    """(A, V, {(u, w, a): c}) of {algebra: <inline or path>, v, mc}."""
    with _reading("module"):
        a = _algebra(obj)
        label, scalar = _decoders(a.ring)
        v = GradedModule(a.ring, [(label(l), _degree(d)) for l, d in obj["v"]])
        coeffs = {(label(u), label(w), label(al)): scalar(c) for (u, w, al), c in obj["mc"]}
        return a, v, coeffs


def resolution_from_json(obj) -> tuple:
    """(complex, W, d_W, {(u, w, edge): c}) of a resolve file; the last is each
    edge's action minus the identity, which must preserve degree."""
    from .simplicial import _minus_identity
    with _reading("resolution"):
        ring = Ring.parse(obj.get("ring", "Z"))
        label, scalar = _decoders(ring)
        base = complex_from_json(obj["complex"])
        res = obj["resolution"]
        w_gm = GradedModule(ring, [(label(l), _degree(d)) for l, d in res["basis"]])
        d_w = {(label(u), label(w)): scalar(c) for u, w, c in res["d"]}
        labels, n = w_gm.labels, w_gm.dim
        w1_coeffs = {}
        for e, mat in _edges(obj["edge_action"], label, "edge_action"):
            if base.dim_of.get(e) != 1:
                raise ValueError("edge_action on %r: not an edge of the complex" % (e,))
            m = matrix_from_json(mat, ring)
            if (m.rows, m.cols) != (n, n):
                raise ValueError("an edge action is %dx%d, not %dx%d" % (m.rows, m.cols, n, n))
            for (u, w, _), c in _minus_identity(ring, labels, e, m):
                if w_gm.degree[u] != w_gm.degree[w]:
                    raise ValueError("edge %r maps %r (degree %d) to %r (degree %d)"
                                     % (e, u, w_gm.degree[u], w, w_gm.degree[w]))
                w1_coeffs[(u, w, e)] = c
        return base, w_gm, d_w, w1_coeffs


def k2_homotopy_from_json(a, obj, words) -> dict:
    """{words[word]: element of A} of {homotopy: [[word, element]...]}."""
    with _reading("K_2 homotopy"):
        out = {}
        for name, coeffs in obj["homotopy"]:
            if name not in words:
                raise ValueError("unknown K_2 word %r" % (name,))
            out[words[name]] = a.element(element_from_json(a, coeffs))
        return out


def certificate_to_json(cert) -> dict:
    return {k: element_to_json(e.coeffs) for k, e in vars(cert).items()}


def certificate_from_json(a, obj) -> tuple:
    """The elements x, x1 and [g, h, wx, wy] of A of {x, x1, certificate}."""
    with _reading("certificate"):
        x, x1 = (a.element(element_from_json(a, obj[k])) for k in ("x", "x1"))
        cert = obj["certificate"]
        return x, x1, [a.element(element_from_json(a, cert[k])) for k in ("g", "h", "wx", "wy")]


def dumps(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, newline at end."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _refuse_constant(token: str):
    raise ValueError("%s is not a JSON number" % token)


def load_json_file(path: str):
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_refuse_constant)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: bad JSON, NaN or +-Infinity, or a number of too many
        # digits; RecursionError: deep nesting
        raise InputError("cannot read %s: %s" % (path, exc)) from exc


def load_json_object(path) -> dict:
    """A JSON file whose top level is an object."""
    obj = load_json_file(path)
    if not isinstance(obj, dict):
        raise InputError("%s: the top level must be a JSON object, not %s"
                         % (path, type(obj).__name__))
    return obj
