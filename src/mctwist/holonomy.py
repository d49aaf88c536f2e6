"""Numerical parallel transport: path-ordered exponentials on [0, 1] and the
gauge/homotopy correspondence on a discretized circle.

This is the only floating-point module in the package and the only one to
import numpy, which the CLI loads for the holonomy subcommand alone.  A
homotopy between two MC 1-forms x0, x1 on the circle is a pair (x(z), y(z)) satisfying

    (4.1)  d x(z) + x(z)^2 = 0        (automatic for circle 1-forms)
    (4.2)  dx(z)/dz = -d y(z) + [y(z), x(z)]

and the correspondence with gauge equivalence runs through the transport
equation dg/dz = y(z) g(z), g(0) = 1, whose solution is the path-ordered
exponential.  Forward: a gauge path g(z) with g(0) = 1 yields a homotopy
x(z) = g x0 g^{-1} - (dg) g^{-1}, y = (dg/dz) g^{-1}.  Backward: solving
the transport ODE pointwise on the circle recovers g with
x(1) = g . x0 up to a reported tolerance.  Both directions measure (4.2)
at the interior z-samples in one batched check, and backward transport
also bounds it (:func:`gauge_from_homotopy`).  One check, ``_samples``,
reads every sample stack: its shape, its length, every value finite.

Spatial derivatives on the circle use central differences on the periodic
grid (second order); the z-integration is classical RK4, so halving an
integration step reduces its error by about 16x on smooth inputs.
The endpoint identity tolerance defaults to 1e-5; the transport's interior
residual is reported, not bounded.

Transport first gathers y at every RK4 node (a sampled path by index
lookup, a callable by evaluation) and then runs one step loop, ``_rk4``,
over the stacked nodes; the interior residual is one batched product.
Backward transport on the circle runs the same loop over the z-samples.
Each step rounds exactly as a step that looks up its own nodes and
multiplies with ``@``, so the printed floats do not depend on this layout.
A step is four ``ndarray.dot`` products and thirteen elementwise operations,
all written into buffers made once per solve.
The step-halving order estimate solves the coarsened path in the same
loop: until the coarse one ends, both advance as one block-diagonal system
[[fine, 0], [0, coarse]] on the (2n, n) value [g; g], one ``ndarray.dot``
per product.  The zero blocks add only +-0 terms to each entry's sum,
which can change g only where it holds -0.0.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .io import InputError

ENDPOINT_TOL = 1e-5


class HolonomyError(InputError):
    """Invalid or untrustworthy numerical input (CLI exit code 1)."""


def read_csv_matrices(path) -> np.ndarray:
    """The rows of a CSV file as square matrices, shape (rows, n, n)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # an empty file only warns
            rows = np.loadtxt(path, delimiter=",", ndmin=2, comments=None)
    except (OSError, ValueError, UserWarning) as exc:
        raise HolonomyError("cannot parse CSV %s: %s" % (path, exc)) from exc
    n = math.isqrt(rows.shape[1])
    if n * n != rows.shape[1]:
        raise HolonomyError("rows of %s are not square matrices" % path)
    return rows.reshape(-1, n, n)


def _samples(values, shape: str, least: int, noun: str) -> np.ndarray:
    """values as a finite float stack of square matrices of the given shape,
    such as "(p, n, n)" or "(mz+1, p, n, n)", at least ``least`` along its first axis."""
    try:  # np.iscomplexobj converts a list too, so either call may refuse it
        complex_samples = np.iscomplexobj(values)
        if not complex_samples:
            values = np.asarray(values, dtype=float)
    except (TypeError, ValueError) as exc:  # ragged, or not numbers
        raise HolonomyError("%s must be a numeric %s array: %s" % (noun, shape, exc)) from exc
    if complex_samples:  # float conversion would drop the imaginary part
        raise HolonomyError("complex samples: transport is real")
    if values.ndim != shape.count(",") + 1 or values.shape[-1] != values.shape[-2]:
        raise HolonomyError("expected shape %s" % shape)
    if values.shape[0] < least:
        raise HolonomyError("need at least %d %s" % (least, noun))
    if not np.isfinite(values).all():
        raise HolonomyError("non-finite samples")
    return values


class SampledMatrixPath:
    """n x n matrices at m+1 uniform grid points on [0, 1]."""

    def __init__(self, values):
        self.values = _samples(values, "(m+1, n, n)", 3, "samples")

    @property
    def steps(self) -> int:
        return self.values.shape[0] - 1


class CircleForm:
    """Matrix-valued 1-form coefficient A(theta) d theta on S^1, periodic grid.

    theta_j = j / p for j = 0..p-1 (the point theta = 1 is identified with 0).
    """

    def __init__(self, values):
        self.values = _samples(values, "(p, n, n)", 8, "circle samples")

    @staticmethod
    def constant(matrix, p: int = 64):
        m = np.asarray(matrix, dtype=float)
        return CircleForm(np.repeat(m[None, :, :], p, axis=0))

def circle_derivative(values: np.ndarray) -> np.ndarray:
    """Central differences on the periodic theta grid (axis -3), O(h^2)."""
    p = values.shape[-3]
    h = 1.0 / p
    return (np.roll(values, -1, axis=-3) - np.roll(values, 1, axis=-3)) / (2.0 * h)


# ---------------------------------------------------------------------------
# transport on [0, 1]
# ---------------------------------------------------------------------------


def _nodes(y, steps, z0: float, z1: float):
    """y at the RK4 nodes of [z0, z1]: returns (h, y0, ymid, y1), where y0,
    ymid and y1 stack y(t_k), y(t_k + h/2) and y(t_k + h) for
    t_k = z0 + k h, k < m, h = (z1 - z0) / m.

    A callable is evaluated at exactly those t.  A SampledMatrixPath with m'
    (even) steps is read at index round(t m') clamped to [0, m'] and takes
    m = m' / 2 steps unless ``steps`` says otherwise.
    """
    if isinstance(y, SampledMatrixPath):
        ms = y.steps
        if ms % 2 == 1:
            raise HolonomyError("sampled paths need an even number of steps for RK4")
        m = ms // 2 if steps is None else steps
    elif callable(y):
        m = steps or 0
    else:
        raise HolonomyError("y must be callable or a SampledMatrixPath")
    if m < 2:
        raise HolonomyError("need at least 2 steps")
    h = (z1 - z0) / m
    if callable(y):
        ts = [z0 + k * h for k in range(m)]
        return (h, np.stack([np.asarray(y(t), dtype=float) for t in ts]),
                np.stack([np.asarray(y(t + h / 2), dtype=float) for t in ts]),
                np.stack([np.asarray(y(t + h), dtype=float) for t in ts]))
    t = z0 + np.arange(m) * h
    return (h,) + tuple(y.values[np.clip(np.rint(s * ms), 0, ms).astype(np.intp)]
                        for s in (t, t + h / 2, t + h))


def _rk4(h, y0, ymid, y1, g, dot):
    """The RK4 values g_0 = g, ..., g_m of dg/dz = y g on the stacked nodes.

    ``dot(y, g, out)`` writes the product into ``out``: ``np.ndarray.dot``,
    rounding as ``@`` does, for one n x n matrix and for the halving pair, a
    block-diagonal (2n, 2n) system on a (2n, n) value with h a (2n, 1)
    column, and the ``"pij,pjl->pil"`` einsum for a stack over the circle
    grid (``np.matmul`` rounds it otherwise).  Each step writes into buffers
    made once per call and its new g straight into its row of the result, in
    the operations and order of ``g + h/6 * (k1 + (k2 + k2) + (k3 + k3) + k4)``,
    so every value keeps its bits; ``k + k`` is ``2 * k`` exactly.  Neither g
    nor the nodes are written.
    """
    add, mul = np.add, np.multiply
    out = np.empty((len(y0) + 1,) + g.shape)
    out[0] = g
    # h as arrays of g's shape: array times array dispatches faster than float times array
    k1, k2, k3, k4, t, hh, h2, h6 = np.empty((8,) + g.shape)
    hh[...], h2[...], h6[...] = h, h / 2, h / 6
    for o, a, b, c in zip(out[1:], y0, ymid, y1):
        dot(a, g, k1)
        dot(b, add(g, mul(h2, k1, t), t), k2)
        dot(b, add(g, mul(h2, k2, t), t), k3)
        dot(c, add(g, mul(hh, k3, t), t), k4)
        add(add(add(k1, add(k2, k2, k2), k1), add(k3, k3, k3), k1), k4, k1)
        g = add(g, mul(h6, k1, k1), o)
    return out


def solve_transport(y, g0=None, steps: int = None, z0: float = 0.0, z1: float = 1.0,
                    coarse=None):
    """RK4 solution of dg/dz = y(z) g(z) on [z0, z1]; returns (path, report).

    The report carries the interior central-difference residual
    max | g' - y g | and a condition-number estimate of the endpoint value
    (invertibility holds for true transport; a huge condition number flags
    an untrustworthy grid).  A ``coarse`` path (its own default steps, at
    most as many as y takes) is solved from the same g0 alongside the first
    steps of y, and its endpoint is reported as ``coarse_endpoint``.
    """
    h, y0, ymid, y1 = _nodes(y, steps, z0, z1)
    n = y0.shape[1]
    try:  # a non-finite g0 is refused below, as the first transport value
        if np.iscomplexobj(g0):  # float conversion would drop the imaginary part
            raise TypeError("it has complex entries")
        g = np.eye(n) if g0 is None else np.asarray(g0, dtype=float)
    except (TypeError, ValueError) as exc:
        raise HolonomyError("g0 must be a numeric (%d, %d) array: %s" % (n, n, exc)) from exc
    if g.shape != (n, n):
        raise HolonomyError("g0 has shape %r, expected (%d, %d)" % (g.shape, n, n))
    coarse_end = {}
    with np.errstate(all="ignore"):  # an overflow is refused below, not warned about
        if coarse is None:
            values = _rk4(h, y0, ymid, y1, g, np.ndarray.dot)
        else:
            hc, *nodes = _nodes(coarse, None, z0, z1)
            mc = len(nodes[0])
            if mc > len(y0) or nodes[0].shape[1] != n:
                raise HolonomyError("the coarse path needs at most %d steps of "
                                    "%d x %d matrices" % (len(y0), n, n))
            # one system [[fine, 0], [0, coarse]] on the value [g; g], h a column
            blocks = np.zeros((3, mc, 2 * n, 2 * n))
            for b, f, c in zip(blocks, (y0, ymid, y1), nodes):
                b[:, :n, :n], b[:, n:, n:] = f[:mc], c
            del nodes
            pair = _rk4(np.repeat([[h], [hc]], n, axis=0), *blocks, np.concatenate((g, g)),
                        np.ndarray.dot)
            del blocks
            rest = _rk4(h, y0[mc:], ymid[mc:], y1[mc:], pair[-1, :n], np.ndarray.dot)
            values = np.concatenate((pair[:, :n], rest[1:]))
            coarse_end["coarse_endpoint"] = pair[-1, n:]
    if not all(np.isfinite(v).all() for v in (values, *coarse_end.values())):
        raise HolonomyError("non-finite transport values")
    dg = (values[2:] - values[:-2]) / (2 * h)
    resid = float(np.max(np.abs(dg - y0[1:] @ values[1:-1])))
    cond = float(np.linalg.cond(values[-1]))
    if not math.isfinite(cond):
        raise HolonomyError("non-finite endpoint condition number")
    report = {
        "interior_residual": resid,
        "endpoint_condition_number": cond,
        "steps": len(y0),
        **coarse_end,
    }
    return SampledMatrixPath(values), report


def halving_difference(path: SampledMatrixPath, report: dict) -> float:
    """max |g(1) - g_coarse(1)| of a transport solved with a ``coarse`` path."""
    return float(np.max(np.abs(path.values[-1] - report["coarse_endpoint"])))


def pexp(y, z: float = 1.0, steps: int = 10000):
    """The path-ordered exponential P exp int_0^z y(t) dt, by RK4.

    For constant (or commuting-family) y this agrees with exp(int y) to
    RK4 accuracy; the result is invertible for exact transport and its
    condition number is reported by :func:`solve_transport`.
    """
    if not (0.0 <= z <= 1.0):
        raise HolonomyError("z must lie in [0, 1]")
    if z == 0.0:
        # two zero-width steps: the same checks on y, and n off a node
        return np.eye(_nodes(y, 2, 0.0, 0.0)[1].shape[1])
    return solve_transport(y, steps=steps, z0=0.0, z1=z)[0].values[-1]


# ---------------------------------------------------------------------------
# the circle correspondence
# ---------------------------------------------------------------------------


def _inverse(g_values: np.ndarray) -> np.ndarray:
    """The pointwise inverse of a stack of gauge values."""
    try:
        return np.linalg.inv(g_values)
    except np.linalg.LinAlgError as exc:  # exactly singular; a near-singular one overflows
        raise HolonomyError("singular gauge value") from exc


def _gauge_transform(g: np.ndarray, ginv: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """g x0 g^{-1} - (d_theta g) g^{-1} for a (..., p, n, n) stack g, its
    inverse ginv and x0's (p, n, n) values, each grid of the stack alike."""
    if x0.shape != g.shape[-3:]:
        raise HolonomyError("x0 has shape %r, not the gauge grid's %r" % (x0.shape, g.shape[-3:]))
    return np.einsum("...pij,pjk,...pkl->...pil", g, x0, ginv) - \
        np.einsum("...pij,...pjk->...pik", circle_derivative(g), ginv)


def gauge_transform_circle(g_values: np.ndarray, x0: CircleForm) -> np.ndarray:
    """g . x0 = g x0 g^{-1} - (d_theta g) g^{-1} pointwise on the grid."""
    return _gauge_transform(g_values, _inverse(g_values), x0.values)


def _system_residual(xs: np.ndarray, ys: np.ndarray) -> float:
    """max |dx/dz + d_theta y - [y, x]| of (4.2) over the interior z-samples
    k = 1..mz-1 of (mz+1, p, n, n) stacks, dx/dz by central differences."""
    x, y = xs[1:-1], ys[1:-1]
    dxdz = (xs[2:] - xs[:-2]) / (2 * (1.0 / (len(xs) - 1)))
    return float(np.max(np.abs(dxdz + circle_derivative(y) - (y @ x - x @ y))))


def homotopy_from_gauge_path(x0: CircleForm, gpath: np.ndarray):
    """Build the homotopy (x(z), y(z)) of a gauge path with g(0) = 1.

    gpath has shape (mz+1, p, n, n) and must be pointwise invertible with
    gpath[0] = 1 (the path component of the identity).  Returns
    (xs, ys, report) where xs[k] = g(z_k) . x0 and ys[k] = (dg/dz) g^{-1};
    the report carries the measured residual of the homotopy system (4.2)
    on the interior grid.
    """
    gpath = _samples(gpath, "(mz+1, p, n, n)", 3, "z-samples")
    mz, p, n = gpath.shape[0] - 1, gpath.shape[1], gpath.shape[2]
    if not np.allclose(gpath[0], np.eye(n)[None, :, :].repeat(p, axis=0)):
        raise HolonomyError("gauge path must start at the identity")
    ginv = _inverse(gpath)
    if not np.isfinite(ginv).all():
        raise HolonomyError("singular gauge value")
    hz = 1.0 / mz
    xs = _gauge_transform(gpath, ginv, x0.values)
    dgdz = np.empty_like(gpath)
    dgdz[1:-1] = (gpath[2:] - gpath[:-2]) / (2 * hz)
    dgdz[0] = (gpath[1] - gpath[0]) / hz
    dgdz[-1] = (gpath[-1] - gpath[-2]) / hz
    ys = np.einsum("kpij,kpjl->kpil", dgdz, ginv)
    report = {"system_residual": _system_residual(xs, ys), "z_steps": mz, "grid": p}
    return xs, ys, report


def gauge_from_homotopy(xs: np.ndarray, ys: np.ndarray, endpoint_tol: float = ENDPOINT_TOL):
    """Integrate the transport ODE pointwise on the circle and check the
    endpoint identity x(1) = g . x(0) and (4.2) at the interior z-samples.

    Returns (g_values at z = 1, report), ``consistent`` only when the
    endpoint error is at most ``endpoint_tol`` (finite, >= 0) and the
    residual of (4.2), ``system_residual``, is at most ``residual_bound`` =
    (h_z^2 + h_theta^2) max(1, max|y| + max(|x(0)|, |x(1)|))^3, h_z = 1/mz,
    h_theta = 1/p: central differences err by h^2 times third derivatives,
    which grow like the cube of the forms.  The bound reads x only at the
    ends, which the endpoint identity checks, so a bad interior sample cannot
    raise it; past the largest float it is inf.  An inconsistent pair is
    reported, not silently accepted.
    """
    if not 0 <= endpoint_tol < math.inf:
        raise HolonomyError("the endpoint tolerance must be finite and >= 0, not %r"
                            % (endpoint_tol,))
    xs, ys = (_samples(v, "(mz+1, p, n, n)", 3, "z-samples") for v in (xs, ys))
    if xs.shape != ys.shape:
        raise HolonomyError("xs and ys differ in shape: %r vs %r" % (xs.shape, ys.shape))
    mz = ys.shape[0] - 1
    if mz % 2 == 1:
        raise HolonomyError("need an even number of z-steps")
    p, n = ys.shape[1], ys.shape[2]
    g = np.repeat(np.eye(n)[None, :, :], p, axis=0)
    with np.errstate(all="ignore"):  # an overflow is refused below or bounds nothing
        g = _rk4(2 * (1.0 / mz), ys[:-1:2], ys[1::2], ys[2::2], g,
                 lambda a, b, out: np.einsum("pij,pjl->pil", a, b, out=out))[-1]
        resid = _system_residual(xs, ys)
        scale = np.maximum(1.0, np.abs(ys).max() + np.abs(xs[[0, -1]]).max())
        bound = float(((1.0 / mz) ** 2 + (1.0 / p) ** 2) * scale ** 3)
    if not np.isfinite(g).all():
        raise HolonomyError("non-finite transport values")
    cond = float(np.max(np.linalg.cond(g)))  # inf, not an error, at a singular g
    if not math.isfinite(cond):
        raise HolonomyError("non-finite gauge condition number")
    err = float(np.max(np.abs(xs[-1] - gauge_transform_circle(g, CircleForm(xs[0])))))
    report = {
        "endpoint_error": err,
        "system_residual": resid,
        "residual_bound": bound,
        "consistent": bool(err <= endpoint_tol and resid <= bound),
        "gauge_condition_number": cond,
    }
    return g, report
