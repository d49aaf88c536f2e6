"""The four workloads: job classes, their seeded inputs and their checks.

A workload is a list of job classes.  Each class owns a finite universe of
instances (instance ``k`` is generated from the string seed
``workload/class/k`` alone).  A run draws ``count`` instances of every class
from the run's ``--seed`` into one job list, which it runs ``ROUNDS`` times,
each time in a fresh process.  So every input a run can contain has a
recorded reference hash, every run has the same mix of classes and
options, and no two jobs of one list share an input.

Inputs that only the library can build (algebra JSON, g . x, sampled
homotopies) are built here, during untimed set-up; the program under test
receives nothing but the files.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np
from mctwist import (GradedModule, Ring, cochain_algebra, endomorphism_dga,
                     from_ordered_complex, mc, tensor_dga)
from mctwist import io as mio
from mctwist.exactlinalg import ExactMatrix
from mctwist.holonomy import CircleForm, homotopy_from_gauge_path
from mctwist.interval import build_interval_algebra
from mctwist.simplicial import LocalSystem, rep_to_mc, simplex, torus7

import oracles
import spaces

ROT = [[0, -1], [1, 0]]          # order 4: its powers give Z/2 torsion
ROUNDS = 3                       # fresh worker processes per run, one job list


@dataclass
class Job:
    id: str
    argv: list
    files: list
    check: Callable          # parsed stdout -> None or a reason (a partial of an oracle)


@dataclass
class JobClass:
    name: str
    count: int               # jobs per run at the default run length
    universe: int            # instances that exist, at least count
    build: Callable          # (Instance) -> Job


class Instance:
    """Seeded randomness and a private output directory for one input.

    ``pick`` chooses among a class's options by the instance key, so any run
    of consecutive keys holds each option equally often.  Every count in
    this module but those of the single large ``cohomology_z`` jobs is a
    multiple of its class's number of options, so every run holds the same
    options as often, whatever its seed."""

    def __init__(self, workload, cls, key, workdir):
        self.key = key
        self.id = "%s/%03d" % (cls, key)
        self.rnd = random.Random("%s/%s" % (workload, self.id))
        self.workdir = workdir
        os.makedirs(os.path.join(workdir, self.id), exist_ok=True)

    def pick(self, options):
        return options[self.key % len(options)]

    def write(self, name, payload) -> str:
        rel = os.path.join(self.id, name)
        with open(os.path.join(self.workdir, rel), "w") as fh:
            fh.write(payload if isinstance(payload, str) else
                     json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")
        return rel


def _mat_json(m, ring="Z"):
    return {"ring": ring, "rows": len(m), "cols": len(m[0]),
            "entries": [[str(v) for v in row] for row in m]}


# -- cohomology_z -----------------------------------------------------------------

def _space(kind, size, rnd):
    if kind == "circle":
        return spaces.circle(size[0], rnd)
    return getattr(spaces, kind)(size[0], size[1], rnd)


def _local_system_job(shapes, bases, subcommand="local-system"):
    """``shapes`` lists (kind, size); ``bases`` the matrices along the seam."""
    options = [(kind, size, base) for kind, size in shapes for base in bases]

    def build(inst: Instance) -> Job:
        kind, size, base = inst.pick(options)
        space = _space(kind, size, inst.rnd)
        r = len(base)
        dims, maps = spaces.coboundaries(space, base)
        if subcommand == "cohomology":
            # a seeded sign on every basis cochain: the same cohomology, and
            # no two instances share a matrix
            signs = {d: [inst.rnd.choice((1, -1)) for _ in range(n)] for d, n in dims.items()}
            maps = {k: [{c: signs[k + 1][i] * v * signs[k][c] for c, v in row.items()}
                        for i, row in enumerate(rows)] for k, rows in maps.items()}
        expected = spaces.expected_cohomology(kind, base)
        mod_p = {p: oracles.mod_p_dims(dims, maps, p) for p in (2, 3)}
        euler = r * space.euler
        if subcommand == "cohomology":
            spec = {"ring": "Z", "dims": {str(k): v for k, v in dims.items()},
                    "maps": {}}
            for k, rows in maps.items():
                dense = [[0] * dims[k] for _ in rows]
                for i, row in enumerate(rows):
                    for c, v in row.items():
                        dense[i][c] = v
                spec["maps"][str(k)] = _mat_json(dense)
            files = [inst.write("complex.json", spec)]
            argv = ["cohomology"] + files
        else:
            mono = []
            for edge, e in sorted(space.phi.items()):
                m = spaces.mat_pow(base, e)
                if m != spaces.mat_pow(base, 0):
                    mono.append([space.edge_label(edge), _mat_json(m)])
            files = [inst.write("complex.json", space.to_json()),
                     inst.write("system.json", {"ring": "Z", "rank": r, "monodromy": mono})]
            argv = ["local-system"] + files
        return Job(inst.id, argv, files,
                   partial(oracles.check_cohomology, expected=expected, euler=euler,
                           mod_p_dims=mod_p))
    return build


def _shapes(kind, *sizes):
    return [(kind, s) for s in sizes]


_ROT_POWERS = [spaces.mat_pow(ROT, e) for e in range(4)]
_SIGNS = [[[1]], [[-1]]]

# The 6x6 torus carries most of the time.  The circles with R set job_s.p50,
# the 3x4 tori job_s.p90 (the 96th and 97th of 107 jobs); the one-off jobs
# above them cost about the same whichever option the seed draws.
COHOMOLOGY_Z = [
    JobClass("circle-r1", 28, 112, _local_system_job(
        _shapes("circle", *[(k,) for k in range(3, 10)]), _SIGNS)),
    JobClass("circle-r2", 56, 120, _local_system_job(
        _shapes("circle", (6,), (7,)), _ROT_POWERS)),
    JobClass("cochains-z", 10, 60, _local_system_job(
        _shapes("circle", *[(k,) for k in range(4, 9)]),
        [[[-1]], ROT], subcommand="cohomology")),
    JobClass("torus3-r1", 8, 36, _local_system_job(
        _shapes("torus", (3, 4), (4, 3)), _SIGNS)),
    JobClass("torus3-r2", 1, 12, _local_system_job(_shapes("torus", (3, 3)), _ROT_POWERS[1:])),
    JobClass("rp2", 1, 16, _local_system_job(_shapes("rp2", (3, 3)), _SIGNS)),
    JobClass("klein", 1, 16, _local_system_job(_shapes("klein", (3, 3)), _SIGNS)),
    JobClass("torus4-r1", 1, 12, _local_system_job(_shapes("torus", (4, 4)), [[[-1]]])),
    # a universe of three: every run holds one of the same three 6x6 tori
    JobClass("torus6-r1", 1, 3, _local_system_job(_shapes("torus", (6, 6)), [[[-1]]])),
]


# -- axioms -----------------------------------------------------------------------

def _sset(space):
    obj = space.to_json()
    return from_ordered_complex(obj["vertices"], [tuple(t) for t in obj["simplices"]])


def _cochains(space, ring):
    return cochain_algebra(_sset(space), ring)


_DGA_RINGS = [("Q", None), ("F5", None), ("Q", "F3")]


def _check_dga_job(make, sizes, rings=_DGA_RINGS):
    """``make(size, rnd, ring)`` returns an algebra; a seeded third is mutated.

    Size and ring set the cost, so they are the options; a mutation costs
    nothing extra, since the axiom loops run in full either way."""
    options = [(size, ring, flag) for size in sizes for ring, flag in rings]

    def build(inst: Instance) -> Job:
        size, file_ring, flag = inst.pick(options)
        rnd = inst.rnd
        obj = mio.dga_to_json(make(size, rnd, Ring.parse(file_ring)))
        mutated = rnd.random() < 1 / 3
        if mutated:
            # bump one product with a unit component on the left: the unit
            # law then fails whatever the ring
            units = {json.dumps(l) for l, _ in obj["unit"]}
            cands = [i for i, e in enumerate(obj["mult"]) if json.dumps(e[0]) in units]
            i = rnd.choice(cands)
            obj["mult"][i][3] = str(Fraction(obj["mult"][i][3]) + 1)
        files = [inst.write("algebra.json", obj)]
        argv = ["check-dga"] + files + (["--ring", flag] if flag else [])
        return Job(inst.id, argv, files, partial(oracles.check_axioms, mutated=mutated))
    return build


def _torus_cochains(size, rnd, ring):
    return _cochains(spaces.torus(size[0], size[1], rnd), ring)


def _circle_product(size, rnd, ring):
    return tensor_dga(_cochains(spaces.circle(size[0], rnd), ring),
                      _cochains(spaces.circle(size[1], rnd), ring))


def _end_circle(size, rnd, ring):
    k, r = size
    v = GradedModule(ring, [(("v", i), int(i == r - 1)) for i in range(r)])
    return endomorphism_dga(_cochains(spaces.circle(k, rnd), ring), v)


def _small_cochains(size, rnd, ring):
    return _cochains(spaces.circle(size, rnd), ring)


def _kn_job(inst: Instance) -> Job:
    n, ring = inst.key % 7, ["Q", "Z", "F3", "F5", "F7"][inst.key // 7]
    argv = ["kn", "--n", str(n), "--ring", ring]
    return Job(inst.id, argv, [], partial(oracles.check_kn, n=n))


# The 63 small algebras and kn jobs set job_s.p50; end-small, of one option
# and so of one cost, sets job_s.p90 (the 93rd and 94th of 104 jobs); the
# three costly classes, of about equal cost, carry most of wall_s.
AXIOMS = [
    JobClass("small-cochains", 42, 126, _check_dga_job(_small_cochains, range(3, 10))),
    JobClass("kn", 21, 35, _kn_job),
    JobClass("end-small", 32, 60, _check_dga_job(_end_circle, [(4, 2)], [("Q", None)])),
    JobClass("torus-cochains", 3, 27, _check_dga_job(_torus_cochains, [(4, 5)])),
    JobClass("circle-products", 3, 27, _check_dga_job(_circle_product, [(5, 6)])),
    JobClass("end-circle", 3, 18, _check_dga_job(_end_circle, [(5, 3)])),
]


# -- gauge ------------------------------------------------------------------------

def _unimodular(rnd, r):
    """A random integer matrix of determinant +-1 (a few elementary steps)."""
    m = [[int(i == j) * rnd.choice([1, -1]) for j in range(r)] for i in range(r)]
    for _ in range(2 * r):
        i, j = rnd.sample(range(r), 2) if r > 1 else (0, 0)
        if i != j:
            c = rnd.randint(-2, 2)
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def _vertex_gauge(end, base_sset, r, rnd):
    """g = sum over vertices G_v (x) v, with G_v unimodular."""
    coeffs = {}
    for vert in base_sset.nondegenerate(0):
        g = _unimodular(rnd, r)
        for i in range(r):
            for j in range(r):
                if g[j][i]:
                    coeffs[("E", ("v", i), ("v", j), vert)] = g[j][i]
    return end.element(coeffs)


def _torus7_sign(sset):
    """Sign on the edges {i, i+1} and {i, i+2} (mod 7): a Z/2 cocycle that
    is not a coboundary, since the 7-cycle of step-1 edges has odd sum.  Being
    a Z/2 cocycle, it carries rank-1 sign monodromy only."""
    return [e for e in sset.nondegenerate(1) if (e[1] - e[0]) % 7 in (1, 2, 5, 6)]


def _gauge_pair_job(spaces_rings):
    def build(inst: Instance) -> Job:
        rnd = inst.rnd
        space_kind, k, ring_name, r, built_as = inst.pick(spaces_rings)
        ring = Ring.parse(ring_name)
        if space_kind == "circle":
            sp = spaces.circle(k, rnd)
            sset = _sset(sp)
            seam = [tuple(sp.edge_label(e)) for e in sp.phi]
        else:                      # the library's complex, its vertices relabelled
            base_sset = simplex(2) if space_kind == "simplex" else torus7()
            labels = spaces.vertex_labels(len(base_sset.nondegenerate(0)), rnd)
            sset = from_ordered_complex(
                labels, [tuple(labels[i] for i in s)
                         for s in base_sset.nondegenerate(base_sset.dimension)])
            seam = [tuple(labels[i] for i in e) for e in
                    (_torus7_sign(base_sset) if space_kind == "torus7" else [])]
        ca = cochain_algebra(sset, ring)
        v = GradedModule(ring, [(("v", i), 0) for i in range(r)])
        end = endomorphism_dga(ca, v)
        base = [[-1]] if r == 1 else ROT
        mono = {e: ExactMatrix.from_rows(ring, base) for e in seam}
        x = rep_to_mc(LocalSystem(sset, v, mono), end_dga=end)
        g = _vertex_gauge(end, sset, r, rnd)
        if built_as == "equivalent":
            y = mc.gauge_act(end, g, x)
        else:                      # the trivial system, gauge transformed
            y = mc.gauge_act(end, g, mc.zero_mc(end))
        alg_obj = mio.dga_to_json(end)
        x_pairs = mio.element_to_json(x.value.coeffs)
        y_pairs = mio.element_to_json(y.value.coeffs)
        return _gauge_files(inst, alg_obj, x_pairs, y_pairs, built_as)
    return build


def _gauge_files(inst, alg_obj, x_pairs, y_pairs, built_as) -> Job:
    files = [inst.write("algebra.json", alg_obj),
             inst.write("x.json", {"value": x_pairs}),
             inst.write("y.json", {"value": y_pairs})]
    argv = ["gauge-search"] + files + ["--seed", str(inst.rnd.randint(0, 999)),
                                       "--budget", "10"]
    alg = oracles.JsonAlgebra(json.loads(json.dumps(alg_obj)))
    x, y = alg.element(x_pairs), alg.element(y_pairs)
    return Job(inst.id, argv, files,
               partial(oracles.check_gauge, built_as=built_as, alg=alg, x=x, y=y))


def _k1_unknown(inst: Instance) -> Job:
    """K_1*'s (s + 3t, 3s + t) over Z, the basis listed in an order of its
    own: the key picks one of the 4! orders and which element comes first."""
    k1 = build_interval_algebra(1, Ring.Z())
    s, t = k1.word_label("s", 1), k1.word_label("t", 1)
    obj = mio.dga_to_json(k1.dga)
    orders = list(itertools.permutations(obj["basis"]))
    obj["basis"] = list(orders[inst.key // 2 % len(orders)])
    x = [[mio.encode_label(s), "1"], [mio.encode_label(t), "3"]]
    y = [[mio.encode_label(s), "3"], [mio.encode_label(t), "1"]]
    if inst.key % 2:
        x, y = y, x
    return _gauge_files(inst, obj, x, y, "unknown")


def _reduced_module(inst: Instance, rings, subcommand):
    """A gauge transform of d0 (x) 1 on V = V^0 + V^1 over C*(X): X = S^1_k
    for minimal models, a k-vertex path (Euler characteristic 1) for
    truncations."""
    rnd = inst.rnd
    ring_name, (n0, n1, rank_d0) = inst.pick(
        [(ring, dims) for dims in [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2)]
         for ring in rings])
    ring = Ring.parse(ring_name)
    k = rnd.randint(3, 5)
    sp = spaces.circle(k, rnd) if subcommand == "minimal-model" else spaces.path(k, rnd)
    ca = _cochains(sp, ring)
    us = [("u", i) for i in range(n0)]
    ws = [("w", i) for i in range(n1)]
    v = GradedModule(ring, [(u, 0) for u in us] + [(w, 1) for w in ws])
    end = endomorphism_dga(ca, v)
    base = end.element({("E", us[i], ws[i], al): c
                        for i in range(rank_d0) for al, c in ca.unit.items()})
    coeffs = {}
    for block in (us, ws):
        g = _unimodular(rnd, len(block))
        for i, a in enumerate(block):
            for j, b in enumerate(block):
                for al, c in ca.unit.items():
                    if g[j][i]:
                        coeffs[("E", a, b, al)] = g[j][i] * c
    for e in ca.gm.labels_of_degree(1):
        for u in us:
            if rnd.random() < 0.5:
                coeffs[("E", ws[0], u, e)] = rnd.randint(1, 3)
    y = mc.gauge_act(end, end.element(coeffs), mc.MCElement(end, base))
    payload = {"algebra": mio.dga_to_json(ca),
               "v": [[mio.encode_label(l), d] for l, d in v.basis()],
               "mc": [[[mio.encode_label(u), mio.encode_label(w), mio.encode_label(al)],
                       mio.encode_scalar(c)] for (_, u, w, al), c in
                      sorted(y.value.coeffs.items(), key=str)]}
    files = [inst.write("module.json", payload)]
    if subcommand == "minimal-model":
        return Job(inst.id, ["minimal-model"] + files, files,
                   partial(oracles.check_minimal_model, dims_v=(n0, n1),
                           rank_d0=rank_d0, betti=[1, 1]))
    i = rnd.choice([-1, 0, 1, 2])
    return Job(inst.id, ["truncate"] + files + ["--i", str(i)], files,
               partial(oracles.check_truncate, dims_v=(n0, n1), rank_d0=rank_d0,
                       i=i, euler_x=sp.euler))


GAUGE = [
    JobClass("search-circle", 64, 256, _gauge_pair_job(
        [("circle", k, ring, r, kind) for k in range(3, 7) for ring in ("Z", "Q")
         for r in (1, 2) for kind in ("equivalent", "distinguished")])),
    JobClass("search-simplex", 16, 48, _gauge_pair_job(
        [("simplex", 0, ring, r, "equivalent") for ring in ("Z", "Q") for r in (1, 2)])),
    JobClass("search-torus7", 4, 16, _gauge_pair_job(
        [("torus7", 0, "Q", 1, kind) for kind in ("equivalent", "distinguished")])),
    JobClass("unknown-k1", 8, 24, _k1_unknown),
    JobClass("minimal-model", 20, 80,
             lambda inst: _reduced_module(inst, ["F3", "F5", "F7", "Q"], "minimal-model")),
    JobClass("truncate", 30, 90,
             lambda inst: _reduced_module(inst, ["Z", "Q", "F5"], "truncate")),
]


# -- transport --------------------------------------------------------------------

def _csv(rows) -> str:
    return "".join(",".join("%.12g" % v for v in row) + "\n" for row in rows)


def _conjugator(rnd, n):
    p = np.eye(n) + np.array([[rnd.uniform(-0.5, 0.5) for _ in range(n)] for _ in range(n)])
    return p, np.linalg.inv(p)


def _pexp_job(varying: bool):
    # n x n matrices at m + 1 samples, m log-spaced over 10^3..10^4; the top
    # size comes twice, so that job_s.p90 falls inside one group of sizes.
    # m, which sets the cost, cycles fastest: six consecutive keys hold each m.
    options = [(n, m) for n in (2, 3, 4) for m in (1000, 1600, 2500, 4000, 10000, 10000)]

    def build(inst: Instance) -> Job:
        rnd = inst.rnd
        n, m = inst.pick(options)
        lam0 = np.array([rnd.uniform(-1, 1) for _ in range(n)])
        lam1 = np.array([rnd.uniform(-1, 1) for _ in range(n)]) if varying else np.zeros(n)
        p, pinv = _conjugator(rnd, n)
        ts = np.linspace(0.0, 1.0, m + 1)
        samples = np.einsum("ij,tj,jk->tik", p, lam0[None, :] + ts[:, None] * lam1[None, :],
                            pinv)
        expected = (p * np.exp(lam0 + lam1 / 2)[None, :]) @ pinv
        files = [inst.write("path.csv", _csv(samples.reshape(m + 1, n * n)))]
        return Job(inst.id, ["holonomy", "--mode", "pexp"] + files, files,
                   partial(oracles.check_pexp, expected=expected))
    return build


def _backward_job(inst: Instance) -> Job:
    rnd = inst.rnd
    n, p = inst.pick([(n, p) for p in (16, 24, 32) for n in (2, 3)])
    mz = rnd.choice(range(60, 122, 2))
    a = np.array([[rnd.uniform(-0.4, 0.4) for _ in range(n)] for _ in range(n)])
    b = np.array([[rnd.uniform(-0.2, 0.2) for _ in range(n)] for _ in range(n)])
    w, vecs = np.linalg.eig(b)
    zs = np.linspace(0.0, 1.0, mz + 1)
    gpath = np.stack([np.repeat(np.real((vecs * np.exp(z * w)) @ np.linalg.inv(vecs))[None],
                                p, axis=0) for z in zs])
    xs, ys, _ = homotopy_from_gauge_path(CircleForm.constant(a, p), gpath)
    files = [inst.write("xs.csv", _csv(xs.reshape(-1, n * n))),
             inst.write("ys.csv", _csv(ys.reshape(-1, n * n)))]
    argv = ["holonomy", "--mode", "backward"] + files + ["--grid", str(p)]
    # g(1) = exp(B) at every grid point
    return Job(inst.id, argv, files,
               partial(oracles.check_backward, tol=1e-5,
                       condition_number=float(np.linalg.cond(gpath[-1][0]))))


TRANSPORT = [
    JobClass("pexp-constant", 18, 180, _pexp_job(False)),
    JobClass("pexp-commuting", 18, 180, _pexp_job(True)),
    JobClass("backward", 66, 96, _backward_job),
]


WORKLOADS = {
    "cohomology_z": COHOMOLOGY_Z,
    "axioms": AXIOMS,
    "gauge": GAUGE,
    "transport": TRANSPORT,
}


def instances(workload: str, seed: int, scale: float):
    """The job list of one run, as (class, key) pairs.

    Per class, the run takes ``count`` consecutive keys (mod the universe)
    from a seeded start.  So each option of a class appears equally often,
    and no key comes twice."""
    picks = []
    for cls in WORKLOADS[workload]:
        count = min(cls.universe, max(1, round(cls.count * scale)))
        start = random.Random("%s/%s/%d" % (workload, cls.name, seed)).randrange(cls.universe)
        picks += [(cls, (start + i) % cls.universe) for i in range(count)]
    return picks


def round_order(workload: str, seed: int, r: int, n: int) -> list:
    """The seeded order in which round ``r`` runs the ``n`` jobs of the list,
    different in every round, so that a job's rounds meet the host at
    different moments."""
    order = list(range(n))
    random.Random("%s/order/%d/%d" % (workload, seed, r)).shuffle(order)
    return order


def build_jobs(workload: str, picks, workdir: str) -> list:
    return [cls.build(Instance(workload, cls.name, key, workdir)) for cls, key in picks]
