"""JSON (de)serialization for algebras, complexes, MC data and reports.

Basis labels are JSON-encoded structurally: tuples become arrays and are
restored as tuples on load, so the nerve/product label schemes survive a
round trip.  Scalars are encoded as integers or "a/b" strings.
"""

from __future__ import annotations

import json

from .dgcore import DgAlgebra, GradedModule
from .exactlinalg import CohomologyReport, ExactMatrix, Ring


class InputError(ValueError):
    """Invalid input file or schema violation (CLI exit code 1)."""


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


def dga_from_json(obj: dict) -> DgAlgebra:
    try:
        ring = Ring.parse(obj["ring"])
        gm = GradedModule(ring, [(decode_label(l), int(d)) for l, d in obj["basis"]])
        unit_obj = obj["unit"]
        if isinstance(unit_obj, (str, int)) or (
                isinstance(unit_obj, list) and unit_obj and
                not isinstance(unit_obj[0], list)):
            unit = {decode_label(unit_obj): ring.one()}
        else:
            unit = {decode_label(l): ring.coerce(c) for l, c in unit_obj}
        diff = {}
        for l, r, c in obj.get("diff", []):
            diff.setdefault(decode_label(l), {})[decode_label(r)] = ring.coerce(c)
        mult = {}
        for x, y, r, c in obj.get("mult", []):
            mult.setdefault((decode_label(x), decode_label(y)), {})[
                decode_label(r)] = ring.coerce(c)
        return DgAlgebra(gm, unit, mult, diff)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad dg algebra JSON: %s" % exc) from exc


def element_to_json(coeffs: dict) -> list:
    return sorted([[encode_label(l), encode_scalar(c)] for l, c in coeffs.items()],
                  key=str)


def element_from_json(a, obj) -> dict:
    try:
        return {decode_label(l): a.ring.coerce(c) for l, c in obj}
    except (TypeError, ValueError) as exc:
        raise InputError("bad element JSON: %s" % exc) from exc


def matrix_from_json(obj, ring: Ring = None) -> ExactMatrix:
    try:
        if isinstance(obj, list):
            if ring is None:
                raise InputError("matrix rows need an explicit ring")
            return ExactMatrix.from_rows(ring, obj)
        ring = Ring.parse(obj["ring"]) if ring is None else ring
        return ExactMatrix(ring, int(obj["rows"]), int(obj["cols"]), obj["entries"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad matrix JSON: %s" % exc) from exc


def report_to_json(rep: CohomologyReport, as_list: bool = True):
    if not as_list:
        return rep.to_json()
    degs = rep.degrees()
    top = max([0] + degs)
    low = min([0] + degs)
    out = []
    for d in range(low, top + 1):
        entry = {"degree": d, "rank": rep.rank(d)}
        if rep.torsion(d):
            entry["torsion"] = list(rep.torsion(d))
        out.append(entry)
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
    try:
        return from_ordered_complex(obj["vertices"],
                                    [tuple(s) for s in obj["simplices"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad simplicial complex JSON: %s" % exc) from exc


# the largest rank of a local system given without monodromy matrices; with
# them, the rank is their size
MAX_RANK = 1024


def local_system_from_json(obj, complex_obj=None):
    from .simplicial import LocalSystem
    try:
        ring = Ring.parse(obj["ring"])
        rank = int(obj["rank"])
        base = complex_from_json(complex_obj if complex_obj is not None
                                 else obj["complex"])
        monodromy = {}
        for edge, mat in obj.get("monodromy", []):
            monodromy[decode_label(edge)] = matrix_from_json(mat, ring)
        if any((m.rows, m.cols) != (rank, rank) for m in monodromy.values()):
            raise ValueError("rank %d is not the size of the monodromy matrices" % rank)
        if not monodromy and not 0 <= rank <= MAX_RANK:
            raise ValueError("rank %d is outside 0..%d" % (rank, MAX_RANK))
        v = GradedModule(ring, [(("v", i), 0) for i in range(rank)])
        return LocalSystem(base, v, monodromy)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError("bad local system JSON: %s" % exc) from exc


def dumps(obj) -> str:
    """Deterministic JSON: sorted keys, fixed separators, newline at end."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_json_file(path):
    if not isinstance(path, str):  # open(0) would read standard input
        raise InputError("a file path must be a string, not %.40r" % (path,))
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc)) from exc


def load_json_object(path, *keys) -> dict:
    """A JSON file whose top level is an object holding every key of ``keys``."""
    obj = load_json_file(path)
    if not isinstance(obj, dict):
        raise InputError("%s: the top level must be a JSON object, not %s"
                         % (path, type(obj).__name__))
    missing = [k for k in keys if k not in obj]
    if missing:
        raise InputError("%s: missing key %r" % (path, missing[0]))
    return obj
