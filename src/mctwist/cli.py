"""Command line interface: one subcommand per computation, JSON on stdout.

Exit codes: 0 = computed, 1 = invalid input (schema or precondition),
2 = internal invariant violation (always a bug).  All randomized
subcommands take an explicit --seed, so byte-identical inputs and seeds
give byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys

# io loads dgcore and exactlinalg, which every subcommand uses; each cmd_*
# imports any other module it runs, so a process loads only its own
from . import io
from .dgcore import DgError, check_dga
from .exactlinalg import ExactLinalgError, Ring, cohomology
from .io import InputError, dumps


class InternalError(RuntimeError):
    pass


def _out(payload: dict) -> int:
    sys.stdout.write(dumps(payload))
    return 0


def cmd_check_dga(args) -> int:
    a = io.dga_from_json(io.load_json_file(args.algebra))
    if args.ring:
        a = a.change_ring(Ring.parse(args.ring))
    rep = check_dga(a)
    return _out({"ok": rep["ok"],
                 "failures": [{"axiom": f["axiom"],
                               "witness": [io.encode_label(w) for w in f["witness"]]}
                              for f in rep["failures"]],
                 "checks": ["unit", "d-squared", "leibniz", "associativity"]})


def cmd_cohomology(args) -> int:
    rep = cohomology(io.chain_complex_from_json(io.load_json_file(args.complex)))
    return _out({"H": io.report_to_json(rep), "checks": ["d-squared", "im-in-ker"]})


def cmd_local_system(args) -> int:
    from .simplicial import local_system_cohomology
    complex_obj = io.load_json_file(args.complex)
    system_obj = io.load_json_object(args.system)
    if args.ring:
        system_obj["ring"] = args.ring
    # the functor condition is checked once, by twisted_system
    rep = local_system_cohomology(io.local_system_from_json(system_obj, complex_obj))
    out = [{k: v for k, v in e.items() if k != "degree"} for e in io.report_to_json(rep)]
    return _out({"H": out, "checks": ["invertible-monodromy", "functor-condition",
                                      "mc", "d-squared"]})


def cmd_mc_check(args) -> int:
    from . import mc
    a, value = io.mc_element_from_json(io.load_json_object(args.element))
    ok, res = mc.is_mc(a, a.element(value))
    payload = {"mc": bool(ok), "checks": ["degree", "mc-residual"]}
    if not ok:
        payload["residual"] = io.element_to_json(res.coeffs)
    return _out(payload)


def cmd_gauge_search(args) -> int:
    from . import mc
    io.bounded(args.budget, "--budget")
    a = io.dga_from_json(io.load_json_file(args.algebra))
    x, y = (mc.MCElement(a, a.element(io.mc_element_from_json(io.load_json_object(path), a)[1]))
            for path in (args.x, args.y))
    res = mc.search_homotopy_gauge(a, x, y, budget=args.budget, seed=args.seed)
    payload = {"result": res.kind, "report": res.report,
               "invariants": {
                   side: {key: io.report_to_json(rep)
                          for key, rep in inv.items()}
                   for side, inv in res.invariants.items()},
               "checks": ["invariants", "certificate-verification"]}
    if res.certificate is not None:
        payload["certificate"] = io.certificate_to_json(res.certificate)
    return _out(payload)


def cmd_k2_dict(args) -> int:
    from . import interval, mc
    a = io.dga_from_json(io.load_json_file(args.algebra))
    k2 = interval.build_interval_algebra(2, a.ring)
    name_to_label = {"e": k2.e, "f": k2.f, "s": k2.word_label("s", 1),
                     "t": k2.word_label("t", 1), "st": k2.word_label("s", 2),
                     "ts": k2.word_label("t", 2)}
    obj = io.load_json_object(args.input)
    if args.direction == "to-certificate":
        x_dict = io.k2_homotopy_from_json(a, obj, name_to_label)
        x, x1, cert = interval.certificate_from_k2_homotopy(a, k2, x_dict)
        return _out({"x": io.element_to_json(x.value.coeffs),
                     "x1": io.element_to_json(x1.value.coeffs),
                     "certificate": io.certificate_to_json(cert),
                     "checks": ["mc", "certificate-verification"]})
    x, x1, parts = io.certificate_from_json(a, obj)
    x, x1 = mc.MCElement(a, x), mc.MCElement(a, x1)
    x_dict = interval.k2_homotopy_from_certificate(a, k2, x, x1,
                                                   mc.HomotopyGaugeCertificate(*parts))
    label_to_name = {v: k for k, v in name_to_label.items()}
    return _out({"homotopy": sorted(
        [[label_to_name[l], io.element_to_json(a.as_element(v).coeffs)]
         for l, v in x_dict.items()]),
        "checks": ["certificate-verification", "mc"]})


def cmd_kinfty(args) -> int:
    from . import interval
    kc = interval.k_infty_category(args.n)
    return _out({"truncation": args.n, "presentation": kc.presentation,
                 "relabel": kc.relabel,
                 "checks": ["d-squared-on-generators", "anchor-match"]})


def cmd_kn(args) -> int:
    from . import interval
    k = interval.build_interval_algebra(args.n, Ring.parse(args.ring))
    pres = k.presentation()
    rep = check_dga(k.dga)
    if not rep["ok"]:
        raise InternalError("derived interval algebra fails its axioms")
    table = ["K_%d* over %s: ranks %r" % (args.n, args.ring, list(k.ranks()))]
    for l, deg in sorted(k.dga.gm.basis(), key=str):
        table.append("  basis %-18s degree %d" % (interval._label_str(l), deg))
    pres["table"] = table
    pres["checks"] = ["check-dga"]
    return _out(pres)


def _reduced_module(path):
    """The reduced twisted module of a module JSON file (minimal-model, truncate)."""
    from . import mc, perturbation
    a, v, coeffs = io.module_from_json(io.load_json_file(path))
    tw = mc.TwistedModule(v, a, mc.ConvOp(a, v, v, coeffs))
    comp = perturbation.reduced_component(tw)
    if comp is None:
        raise InputError("module is not reduced")
    return perturbation.ReducedTwistedModule(tw, comp)


def cmd_minimal_model(args) -> int:
    from . import perturbation
    mm = perturbation.minimal_model(_reduced_module(args.module))
    return _out({
        "minimal_rank": mm.minimal.v.dim,
        "minimal_basis": [[io.encode_label(l), d] for l, d in mm.minimal.v.basis()],
        "is_minimal": perturbation.is_minimal(mm.minimal),
        "H": io.report_to_json(mm.minimal.cohomology()),
        "checks": ["mc", "reduced", "hodge", "chain-maps", "p-i-identity",
                   "homotopy-identity", "cohomology-equality"],
    })


def cmd_resolve(args) -> int:
    from . import mc, perturbation
    from .simplicial import cochain_algebra
    base, w_gm, d_w, w1_coeffs = io.resolution_from_json(io.load_json_object(args.input))
    a = cochain_algebra(base, w_gm.ring)
    tw = perturbation.lift_to_free_resolution(a, w_gm, d_w,
                                              mc.ConvOp(a, w_gm, w_gm, w1_coeffs))
    return _out({"H": io.report_to_json(tw.cohomology()),
                 "checks": ["d-squared", "chain-map", "obstruction-stages", "mc"]})


def cmd_truncate(args) -> int:
    from . import perturbation
    out, _ = perturbation.truncate_twisted(_reduced_module(args.module), args.i)
    return _out({"rank": out.v.dim,
                 "basis": [[io.encode_label(l), d] for l, d in out.v.basis()],
                 "H": io.report_to_json(out.cohomology()),
                 "checks": ["reduced", "kernel-truncation", "inclusion-closed", "mc"]})


def cmd_holonomy(args) -> int:
    from . import holonomy  # the one numpy module, imported only here
    if args.mode == "pexp":
        if len(args.path) != 1:
            raise InputError("pexp mode needs one CSV path")
        samples = holonomy.read_csv_matrices(args.path[0])
        sp = holonomy.SampledMatrixPath(samples)
        # order estimate by step halving on the coarsened grid, when that
        # grid still has the 2 RK4 steps transport needs
        coarse = holonomy.SampledMatrixPath(samples[::2]) \
            if (len(samples) - 1) % 4 == 0 and len(samples) > 5 else None
        path, report = holonomy.solve_transport(sp, coarse=coarse)
        order = None
        if coarse is not None:
            order = {"halving_difference": holonomy.halving_difference(path, report)}
        payload = {"result": [[round(v, 12) for v in row] for row in
                              path.values[-1].tolist()],
                   "residuals": {"interior": report["interior_residual"],
                                 "condition_number": report["endpoint_condition_number"]},
                   "checks": ["finite", "residual"]}
        if order:
            payload["order_estimate"] = order
        return _out(payload)
    if args.mode == "backward":
        if len(args.path) != 2:
            raise InputError("backward mode needs two CSV paths (x samples, y samples)")
        p = args.grid
        if p < 8:
            raise InputError("--grid must be at least 8, got %d" % p)
        xs = holonomy.read_csv_matrices(args.path[0])
        ys = holonomy.read_csv_matrices(args.path[1])
        if xs.shape[0] % p != 0 or ys.shape != xs.shape:
            raise InputError("sample counts do not match the --grid size")
        mz = xs.shape[0] // p - 1
        if mz < 2:
            raise InputError("need at least 3 z-samples per grid point, got %d" % (mz + 1))
        xs = xs.reshape(mz + 1, p, xs.shape[1], xs.shape[2])
        ys = ys.reshape(mz + 1, p, ys.shape[1], ys.shape[2])
        g, report = holonomy.gauge_from_homotopy(xs, ys, endpoint_tol=args.tolerance)
        if not report["consistent"]:
            raise InputError("inputs do not satisfy the homotopy system: "
                             "endpoint error %g" % report["endpoint_error"])
        return _out({"endpoint_error": report["endpoint_error"],
                     "condition_number": report["gauge_condition_number"],
                     "checks": ["endpoint-identity"]})
    raise InputError("unknown holonomy mode %r" % (args.mode,))


def cmd_emit_fixtures(args) -> int:
    from . import fixtures, interval
    from .simplicial import circle, cochain_algebra, torus7
    os.makedirs(args.dir, exist_ok=True)
    written = []

    def write(name, payload):
        path = os.path.join(args.dir, name)
        with open(path, "w") as fh:
            fh.write(dumps(payload))
        written.append(name)

    kx = fixtures.universal_mc_dga(Ring.Z(), 4)
    write("kx-fixture.json", {"algebra": io.dga_to_json(kx),
                              "value": io.element_to_json({("x", 1): 1})})
    write("circle3-algebra.json", io.dga_to_json(cochain_algebra(circle(3), Ring.Z())))
    write("torus7-algebra.json", io.dga_to_json(cochain_algebra(torus7(), Ring.Z())))
    for n in range(0, 4):
        k = interval.build_interval_algebra(n, Ring.Z())
        write("kn-%d.json" % n, k.presentation())
    write("circle3.json", io.complex_to_json(circle(3)))
    write("circle4.json", io.complex_to_json(circle(4)))
    write("torus7.json", io.complex_to_json(torus7()))
    write("sign.json", {"ring": "Z", "rank": 1,
                        "complex": io.complex_to_json(circle(3)),
                        "monodromy": [[[0, 1], {"ring": "Z", "rows": 1, "cols": 1,
                                                "entries": [["-1"]]}]]})
    ua = fixtures.homotopy_gauge_universal_dga(Ring.Q())
    write("example23.json", {
        "generators": [[g, d] for g, d in sorted(ua.generator_degrees.items())],
        "differential": {g: sorted([["".join(w), io.encode_scalar(c)]
                                    for w, c in expr.items()])
                         for g, expr in sorted(ua.diff_table.items())},
        "note": "universal homotopy gauge pair; no finite-dimensional dg "
                "quotient exists, so elements are computed lazily",
    })
    write("example51-convention.json", fixtures_example51())
    return _out({"written": sorted(written), "dir": args.dir})


def fixtures_example51() -> dict:
    """The pinned twisting convention reproducing H^1 = Z/2 on K_0*."""
    from . import interval, mc
    k0 = interval.build_interval_algebra(0, Ring.Z())
    a = k0.dga
    s = mc.MCElement(a, a.element(k0.word_label("s", 1)))
    twists = {"module_left": mc.twist_module(a, s),
              "module_right": mc.hom_twist(a, s, mc.zero_mc(a)),
              "algebra": mc.twist_algebra(a, s), "two_sided": mc.hom_twist(a, s, s)}
    outcomes = {k: io.report_to_json(cohomology(t.complex())) for k, t in twists.items()}
    return {"conventions": outcomes, "pinned": "algebra",
            "reason": "the algebra twisting (= the two-sided twist by s on "
                      "both sides) reproduces H^1 = Z/2 over Z; both "
                      "one-sided module twistings give torsion-free H"}


def _arg(*flags, **kwargs):
    return flags, kwargs


# name -> (handler, help, arguments): the one table of subcommands
COMMANDS = {
    "check-dga": (cmd_check_dga, "verify dg algebra axioms",
                  [_arg("algebra"), _arg("--ring", default=None)]),
    "cohomology": (cmd_cohomology, "cohomology of a finite complex", [_arg("complex")]),
    "local-system": (cmd_local_system, "twisted cohomology of a local system",
                     [_arg("complex"), _arg("system"), _arg("--ring", default=None)]),
    "mc-check": (cmd_mc_check, "verify the Maurer-Cartan equation", [_arg("element")]),
    "gauge-search": (cmd_gauge_search, "decide (homotopy) gauge equivalence",
                     [_arg("algebra"), _arg("x"), _arg("y"),
                      _arg("--seed", type=int, required=True),
                      _arg("--budget", type=int, default=40)]),
    "k2-dict": (cmd_k2_dict, "K_2 homotopy <-> certificate dictionary",
                [_arg("algebra"), _arg("input"),
                 _arg("--direction", choices=["to-certificate", "to-homotopy"],
                      required=True)]),
    "kinfty": (cmd_kinfty, "derived resolution-category table",
               [_arg("--n", type=int, default=4)]),
    "kn": (cmd_kn, "derived presentation of K_n*",
           [_arg("--n", type=int, required=True), _arg("--ring", required=True)]),
    "minimal-model": (cmd_minimal_model, "perturbation to a minimal module",
                      [_arg("module")]),
    "resolve": (cmd_resolve, "free resolution lift over Z", [_arg("input")]),
    "truncate": (cmd_truncate, "canonical truncation of a twisted module",
                 [_arg("module"), _arg("--i", type=int, required=True)]),
    "holonomy": (cmd_holonomy, "numerical parallel transport",
                 [_arg("--mode", choices=["pexp", "backward"], required=True),
                  _arg("path", nargs="+"), _arg("--grid", type=int, default=64),
                  _arg("--tolerance", type=float, default=1e-5)]),
    "emit-fixtures": (cmd_emit_fixtures, "write the built-in paper fixtures",
                      [_arg("--dir", required=True)]),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    func, _, arguments = COMMANDS[name]
    for flags, kwargs in arguments:
        parser.add_argument(*flags, **kwargs)
    parser.set_defaults(func=func)
    return parser


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The mctwist parser.  When argv starts with a subcommand name only that
    subparser is built; otherwise (no argv, --help, an unknown command) all are.
    """
    p = argparse.ArgumentParser(prog="mctwist",
                                description="exact Maurer-Cartan computations")
    sub = p.add_subparsers(dest="command", required=True)
    names = argv[:1] if argv and argv[0] in COMMANDS else COMMANDS
    for name in names:
        _add_arguments(sub.add_parser(name, help=COMMANDS[name][1]), name)
    return p


def _input_errors() -> tuple:
    """The classes of invalid input: a module not loaded raised none of its own."""
    lazy = [getattr(sys.modules.get(__package__ + "." + module), name, None)
            for module, name in (("simplicial", "SimplicialError"), ("mc", "MCError"),
                                 ("perturbation", "PerturbationError"))]
    return (InputError, ExactLinalgError, DgError, *filter(None, lazy))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = extra = None
    if argv and argv[0] in COMMANDS:  # the subparser alone, as "mctwist <cmd>"
        one = _add_arguments(argparse.ArgumentParser(prog="mctwist " + argv[0]), argv[0])
        args, extra = one.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if args is None or extra:  # the full parser answers, and reports what is left over
        args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except _input_errors() as exc:  # evaluated once an exception is raised
        sys.stderr.write("input error: %s\n" % exc)
        return 1
    except InternalError as exc:
        sys.stderr.write("internal invariant violation: %s\n" % exc)
        return 2
    except Exception as exc:  # noqa: BLE001 - any surprise is a bug, exit 2
        sys.stderr.write("internal error: %s: %s\n" % (type(exc).__name__, exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
