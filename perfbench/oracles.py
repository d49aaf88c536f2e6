"""Answer checks that share no code with mctwist.

Each check returns None when the answer is accepted, or a one-line reason
when it is rejected; a rejected answer counts as a failed job.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


# -- cohomology_z -----------------------------------------------------------------


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p of a sparse integer matrix given as {column: value} rows."""
    pivots = {}                     # pivot column -> normalized row
    rank = 0
    for row in rows:
        row = {c: v % p for c, v in row.items() if v % p}
        while row:
            col = min(row)
            piv = pivots.get(col)
            if piv is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {c: v * inv % p for c, v in row.items()}
                rank += 1
                break
            f = row[col]
            for c, v in piv.items():
                nv = (row.get(c, 0) - f * v) % p
                if nv:
                    row[c] = nv
                else:
                    row.pop(c, None)
    return rank


def _report_entries(payload) -> list:
    """[(rank, torsion)] per degree from a local-system or cohomology answer."""
    return [(e["rank"], list(e.get("torsion", []))) for e in payload["H"]]


def _pad(entries, n):
    return list(entries) + [(0, [])] * (n - len(entries))


def check_cohomology(payload, expected, euler, mod_p_dims) -> str | None:
    """Known-answer table, Euler characteristic and the mod-p universal
    coefficient identity dim H^k(C; F_p) = rank_k + t_k(p) + t_{k+1}(p)."""
    got = _report_entries(payload)
    n = max(len(got), len(expected))
    got, want = _pad(got, n), _pad([(rk, list(t)) for rk, t in expected], n)
    if got != want:
        return "H = %r, table says %r" % (got, want)
    chi = sum((-1) ** k * rk for k, (rk, _) in enumerate(got))
    if chi != euler:
        return "Euler characteristic %d, want %d" % (chi, euler)
    for p, dims in mod_p_dims.items():
        padded = _pad(got, max(n, len(dims)) + 1)
        for k, dim_p in enumerate(dims):
            tk = sum(1 for t in padded[k][1] if t % p == 0)
            tk1 = sum(1 for t in padded[k + 1][1] if t % p == 0)
            if padded[k][0] + tk + tk1 != dim_p:
                return "mod %d: dim H^%d = %d, the Z answer implies %d" % (
                    p, k, dim_p, padded[k][0] + tk + tk1)
    return None


def mod_p_dims(dims, maps, p) -> list:
    """dim H^k over F_p from the coboundary row dicts."""
    ranks = {k: rank_mod_p(rows, p) for k, rows in maps.items()}
    top = max(dims)
    return [dims[k] - ranks.get(k, 0) - ranks.get(k - 1, 0) for k in range(top + 1)]


# -- axioms -----------------------------------------------------------------------


def check_axioms(payload, mutated: bool) -> str | None:
    if payload["ok"] == mutated:
        return "verdict ok=%s on a %s algebra" % (payload["ok"],
                                                  "mutated" if mutated else "valid")
    if bool(payload["failures"]) != mutated:
        return "failure witnesses do not match the verdict"
    return None


def check_kn(payload, n: int) -> str | None:
    """K_n* has rank 2 in degree 0 and in each degree 1..n; K_0* is C*(edge)."""
    ranks = {}
    for _, d in payload["basis"]:
        ranks[d] = ranks.get(d, 0) + 1
    want = {0: 2, 1: 1} if n == 0 else {d: 2 for d in range(n + 1)}
    if ranks != want:
        return "K_%d ranks %r, want %r" % (n, ranks, want)
    return None


# -- gauge: structure constants multiplied out from the input JSON ----------------


def _key(label):
    return tuple(_key(x) for x in label) if isinstance(label, list) else label


class JsonAlgebra:
    """A dg algebra read straight from its JSON file."""

    def __init__(self, obj: dict):
        ring = obj["ring"]
        self.p = int(ring[1:]) if ring.startswith("F") else None
        self.degree = {_key(l): d for l, d in obj["basis"]}
        self.unit = {_key(l): self.scalar(c) for l, c in obj["unit"]}
        self.diff = {}
        for l, r, c in obj["diff"]:
            self.diff.setdefault(_key(l), {})[_key(r)] = self.scalar(c)
        self.mult = {}
        for x, y, r, c in obj["mult"]:
            self.mult.setdefault((_key(x), _key(y)), {})[_key(r)] = self.scalar(c)

    def scalar(self, c):
        v = Fraction(c)
        if self.p is not None:
            return v.numerator * pow(v.denominator, -1, self.p) % self.p
        return v

    def clean(self, vec):
        if self.p is not None:
            return {k: v % self.p for k, v in vec.items() if v % self.p}
        return {k: v for k, v in vec.items() if v}

    def element(self, pairs):
        return self.clean({_key(l): self.scalar(c) for l, c in pairs})

    def add(self, *vecs, signs=None):
        out = {}
        for i, v in enumerate(vecs):
            s = 1 if signs is None else signs[i]
            for k, c in v.items():
                out[k] = out.get(k, 0) + s * c
        return self.clean(out)

    def mul(self, x, y):
        out = {}
        for a, ca in x.items():
            for b, cb in y.items():
                for r, cr in self.mult.get((a, b), {}).items():
                    out[r] = out.get(r, 0) + ca * cb * cr
        return self.clean(out)

    def d(self, x):
        out = {}
        for a, ca in x.items():
            for r, cr in self.diff.get(a, {}).items():
                out[r] = out.get(r, 0) + ca * cr
        return self.clean(out)

    def twisted_d(self, x, w):
        """d^x(w) = d(w) + x w - (-1)^|w| w x, degree by degree."""
        out = self.add(self.d(w), self.mul(x, w))
        for deg in {self.degree[l] for l in w}:
            comp = {l: c for l, c in w.items() if self.degree[l] == deg}
            out = self.add(out, self.mul(comp, x), signs=[1, -((-1) ** deg)])
        return out


def verify_certificate(alg: JsonAlgebra, x, y, cert) -> str | None:
    """The four homotopy gauge conditions, multiplied out exactly."""
    g, h = alg.element(cert["g"]), alg.element(cert["h"])
    wx, wy = alg.element(cert["wx"]), alg.element(cert["wy"])
    one = alg.clean(dict(alg.unit))
    checks = [
        ("dg + yg - gx", alg.add(alg.d(g), alg.mul(y, g), alg.mul(g, x), signs=[1, 1, -1])),
        ("dh + xh - hy", alg.add(alg.d(h), alg.mul(x, h), alg.mul(h, y), signs=[1, 1, -1])),
        ("hg - 1 - d^x wx", alg.add(alg.mul(h, g), one, alg.twisted_d(x, wx),
                                    signs=[1, -1, -1])),
        ("gh - 1 - d^y wy", alg.add(alg.mul(g, h), one, alg.twisted_d(y, wy),
                                    signs=[1, -1, -1])),
    ]
    for name, residual in checks:
        if residual:
            return "certificate fails %s" % name
    return None


def check_gauge(payload, built_as: str, alg: JsonAlgebra, x, y) -> str | None:
    """Verdicts must agree with how the pair was built; every certificate
    must re-verify against the input structure constants."""
    kind = payload["result"]
    if kind not in ("equivalent", "distinguished", "unknown"):
        return "unknown verdict %r" % kind
    if built_as == "distinguished" and kind == "equivalent":
        return "equivalent verdict on a distinguished pair"
    if built_as in ("equivalent", "unknown") and kind == "distinguished":
        return "distinguished verdict on a pair built as %s" % built_as
    if kind == "distinguished" and "differs" not in payload["report"]:
        return "distinguished without a differing invariant"
    if kind == "equivalent":
        if "certificate" not in payload:
            return "equivalent without a certificate"
        return verify_certificate(alg, x, y, payload["certificate"])
    return None


def check_minimal_model(payload, dims_v, rank_d0, betti) -> str | None:
    """Rank dim V - 2 rank d0, and H(V, d0) (x) H(X) by Kunneth over a field."""
    n0, n1 = dims_v
    if payload["minimal_rank"] != n0 + n1 - 2 * rank_d0 or not payload["is_minimal"]:
        return "minimal rank %r, want %d" % (payload["minimal_rank"], n0 + n1 - 2 * rank_d0)
    hv = [n0 - rank_d0, n1 - rank_d0]
    want = [sum(hv[i] * betti[k - i] for i in range(2) if 0 <= k - i < len(betti))
            for k in range(len(betti) + 1)]
    got = [0] * len(want)
    for e in payload["H"]:
        if e.get("torsion") or not 0 <= e["degree"] < len(want):
            return "unexpected cohomology entry %r" % (e,)
        got[e["degree"]] = e["rank"]
    if got != want:
        return "H ranks %r, want %r" % (got, want)
    return None


def check_truncate(payload, dims_v, rank_d0, i, euler_x) -> str | None:
    """Kernel truncation keeps V^{<i} and ker(d0) in degree i."""
    n0, n1 = dims_v
    keep = {0: n0 - rank_d0, 1: n1}
    want = sum(n for d, n in ((0, n0), (1, n1)) if d < i) + keep.get(i, 0)
    if payload["rank"] != want or len(payload["basis"]) != want:
        return "truncation rank %r, want %d" % (payload["rank"], want)
    chi_v = sum((-1) ** d for _, d in payload["basis"])
    chi = sum((-1) ** e["degree"] * e["rank"] for e in payload["H"])
    if chi != chi_v * euler_x:
        return "Euler characteristic %d, want %d" % (chi, chi_v * euler_x)
    return None


# -- transport --------------------------------------------------------------------


def check_pexp(payload, expected, tol=1e-8) -> str | None:
    got = np.array(payload["result"], dtype=float)
    err = float(np.max(np.abs(got - np.array(expected))))
    if not err <= tol:
        return "holonomy off by %.3g (tolerance %g)" % (err, tol)
    return None


def check_backward(payload, tol, condition_number, rel_tol=1e-4) -> str | None:
    """The recovered gauge is exp(B) at every grid point: its printed
    condition number must be that of exp(B), which the generator knows."""
    if not payload["endpoint_error"] <= tol:
        return "endpoint error %g above %g" % (payload["endpoint_error"], tol)
    got = payload["condition_number"]
    if not abs(got - condition_number) <= rel_tol * condition_number:
        return "condition number %.9g, exp(B) has %.9g" % (got, condition_number)
    return None
