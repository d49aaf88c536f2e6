import re
import warnings

import numpy as np
import pytest

from mctwist.holonomy import (
    CircleForm,
    HolonomyError,
    SampledMatrixPath,
    _grid_product,
    circle_derivative,
    gauge_from_homotopy,
    gauge_transform_circle,
    homotopy_from_gauge_path,
    pexp,
    solve_transport,
)


def _sampled(f, n: int, samples: int):
    """The path f sampled at samples + 1 uniform points of [0, 1]."""
    ts = np.linspace(0.0, 1.0, samples + 1)
    vals = np.stack([np.asarray(f(t), dtype=float).reshape(n, n) for t in ts])
    return SampledMatrixPath(vals)


def mexp(m):
    # the Taylor series of exp, of one matrix or of a stack of them at once
    out = term = np.eye(m.shape[-1])
    for k in range(1, 60):
        term = term @ m / k
        out = out + term
    return out


def test_pexp_of_zero_is_identity():
    g = pexp(lambda t: np.zeros((2, 2)), 1.0, steps=100)
    assert np.allclose(g, np.eye(2), atol=1e-14)


def test_pexp_constant_matches_matrix_exponential():
    b = np.array([[0.0, 1.0], [-0.5, 0.3]])
    g = pexp(lambda t: b, 1.0, steps=10000)
    rel = np.max(np.abs(g - mexp(b))) / np.max(np.abs(mexp(b)))
    assert rel <= 1e-8


def test_pexp_commuting_family():
    b = np.array([[0.2, 0.7], [0.0, 0.2]])
    y = lambda t: np.cos(t) * b
    g = pexp(y, 1.0, steps=10000)
    exact = mexp(np.sin(1.0) * b)
    assert np.max(np.abs(g - exact)) / np.max(np.abs(exact)) <= 1e-8


def test_pexp_nilpotent_truncates():
    g = pexp(lambda t: np.array([[0.0, t], [0.0, 0.0]]), 1.0, steps=2000)
    assert np.allclose(g, [[1.0, 0.5], [0.0, 1.0]], atol=1e-10)


def test_pexp_composition_law():
    y = lambda t: np.array([[0.0, np.cos(t)], [0.1 * t, 0.0]])
    full = pexp(y, 1.0, steps=4000)
    half = pexp(y, 0.5, steps=2000)
    upper, _ = solve_transport(y, steps=2000, z0=0.5, z1=1.0)
    assert np.max(np.abs(full - upper.values[-1] @ half)) <= 1e-7


def test_transport_on_samples_and_residual_report():
    samples = _sampled(lambda t: np.array([[np.sin(t)]]), 1, 400)
    path, report = solve_transport(samples)
    exact = np.exp(1 - np.cos(1.0))
    assert abs(path.values[-1][0, 0] - exact) <= 1e-9
    assert report["interior_residual"] <= 1e-3
    with pytest.raises(HolonomyError, match="even"):
        solve_transport(_sampled(lambda t: np.array([[t]]), 1, 401))


def test_step_halving_is_fourth_order():
    y = lambda t: np.array([[np.sin(t)]])
    exact = np.exp(1 - np.cos(1.0))
    e1 = abs(pexp(y, 1.0, steps=100)[0, 0] - exact)
    e2 = abs(pexp(y, 1.0, steps=200)[0, 0] - exact)
    assert e1 / e2 >= 8.0


def test_constant_gauge_path_gives_constant_homotopy():
    p, mz = 16, 64
    a = np.array([[0.0, 0.3], [-0.3, 0.0]])
    x0 = CircleForm.constant(a, p)
    gpath = np.repeat(np.eye(2)[None, None], mz + 1, axis=0).repeat(p, axis=1)
    xs, ys, report = homotopy_from_gauge_path(x0, gpath)
    assert report["system_residual"] <= 1e-12
    assert np.max(np.abs(xs[-1] - xs[0])) == 0.0
    assert np.max(np.abs(ys)) == 0.0


def test_forward_residual_commuting_case():
    p, mz = 64, 1000
    a = np.array([[0.0, 0.4], [-0.4, 0.0]])
    b = np.array([[0.2, 0.0], [0.0, -0.1]])
    x0 = CircleForm.constant(a, p)
    zs = np.linspace(0, 1, mz + 1)
    gpath = np.stack([np.repeat(mexp(z * b)[None], p, axis=0) for z in zs])
    xs, ys, report = homotopy_from_gauge_path(x0, gpath)
    assert report["system_residual"] <= 1e-6


def test_roundtrip_recovers_gauge_endpoint():
    p, mz = 32, 500
    a = np.array([[0.0, 0.4], [-0.4, 0.0]])
    b = np.array([[0.2, 0.1], [0.0, -0.1]])
    x0 = CircleForm.constant(a, p)
    zs = np.linspace(0, 1, mz + 1)
    gpath = np.stack([np.repeat(mexp(z * b)[None], p, axis=0) for z in zs])
    xs, ys, _ = homotopy_from_gauge_path(x0, gpath)
    g, report = gauge_from_homotopy(xs, ys)
    assert report["consistent"]
    assert report["endpoint_error"] <= 1e-5
    assert np.max(np.abs(g - mexp(b)[None])) <= 1e-4


def test_spatially_varying_gauge_convergence_order():
    # grid refinement: the system residual of an exactly constructed
    # homotopy falls like h^2 (central differences on S^1 and in z)
    a0 = np.array([[0.0, 0.5], [-0.5, 0.0]])

    def run(p, mz):
        thetas = np.arange(p) / p
        x0 = CircleForm(np.stack([a0 * (1 + 0.3 * np.sin(2 * np.pi * th))
                                  for th in thetas]))
        zs = np.linspace(0, 1, mz + 1)
        b = np.zeros((p, 2, 2)) + [[0.1, 0.0], [-0.2, -0.1]]
        b[:, 0, 1] = np.cos(2 * np.pi * thetas)
        gpath = mexp(np.sin(zs)[:, None, None, None] * b)
        _, _, report = homotopy_from_gauge_path(x0, gpath)
        return report["system_residual"]

    r1 = run(32, 64)
    r2 = run(64, 128)
    assert r1 / r2 >= 3.0  # O(h^2) would give ~4


def test_inconsistent_interpolation_is_detected():
    p, mz = 32, 200
    a1 = np.zeros((2, 2))
    a2 = np.array([[1.0, 0.0], [0.0, -1.0]])
    # non-conjugate monodromies: exp(a1) = 1, exp(a2) has eigenvalues e, 1/e
    m1 = np.sort(np.linalg.eigvals(mexp(a1)).real)
    m2 = np.sort(np.linalg.eigvals(mexp(a2)).real)
    assert np.max(np.abs(m1 - m2)) > 0.5
    zs = np.linspace(0, 1, mz + 1)
    xs = np.stack([CircleForm.constant((1 - z) * a1 + z * a2, p).values for z in zs])
    ys = np.zeros((mz + 1, p, 2, 2))
    _, report = gauge_from_homotopy(xs, ys)
    assert not report["consistent"]


def test_gauge_path_must_start_at_identity():
    p, mz = 16, 10
    x0 = CircleForm.constant(np.zeros((2, 2)), p)
    gpath = np.repeat(2 * np.eye(2)[None, None], mz + 1, axis=0).repeat(p, axis=1)
    with pytest.raises(HolonomyError, match="identity"):
        homotopy_from_gauge_path(x0, gpath)


def _identity_gauge_path(samples, p=8, n=2):
    return np.repeat(np.eye(n)[None, None], samples, axis=0).repeat(p, axis=1)


@pytest.mark.parametrize("shape", [(9, 2, 2), (9, 8, 2, 2, 1), (9,)])
def test_circle_correspondence_refuses_arrays_that_are_not_4d(shape):
    x0 = CircleForm.constant(np.zeros((2, 2)), 8)
    bad, good = np.zeros(shape), np.zeros((9, 8, 2, 2))
    with pytest.raises(HolonomyError, match=r"expected shape \(mz\+1, p, n, n\)"):
        homotopy_from_gauge_path(x0, bad)
    for xs, ys in ((bad, good), (good, bad)):
        with pytest.raises(HolonomyError, match=r"expected shape \(mz\+1, p, n, n\)"):
            gauge_from_homotopy(xs, ys)


def test_gauge_with_an_infinite_condition_number_is_refused(recwarn):
    # a nilpotent y: the gauge [[1, c], [0, 1]] is finite, its condition
    # number is not, and it used to be reported as inf
    xs = np.zeros((5, 8, 2, 2))
    for c in (1.4e154, 1e200):
        ys = np.tile([[0.0, c], [0.0, 0.0]], (5, 8, 1, 1))
        with pytest.raises(HolonomyError, match="non-finite gauge condition number"):
            gauge_from_homotopy(xs, ys)
    ys = np.tile([[0.0, 1e150], [0.0, 0.0]], (5, 8, 1, 1))
    _, report = gauge_from_homotopy(xs, ys)
    assert np.isfinite(report["gauge_condition_number"])
    # the residual bound passes the largest float: it is inf, without a warning
    assert report["residual_bound"] == np.inf and report["consistent"]
    assert len(recwarn) == 0


@pytest.mark.parametrize("samples", [0, 1, 2])
def test_circle_correspondence_needs_three_z_samples(samples):
    # one z-sample used to divide by mz = 0 (ZeroDivisionError)
    x0 = CircleForm.constant(np.zeros((2, 2)), 8)
    with pytest.raises(HolonomyError, match="at least 3 z-samples"):
        homotopy_from_gauge_path(x0, _identity_gauge_path(samples))
    zeros = np.zeros((samples, 8, 2, 2))
    with pytest.raises(HolonomyError, match="at least 3 z-samples"):
        gauge_from_homotopy(zeros, zeros)
    xs, ys, _ = homotopy_from_gauge_path(x0, _identity_gauge_path(3))
    assert gauge_from_homotopy(xs, ys)[1]["consistent"]


@pytest.mark.parametrize("xs_shape, ys_shape", [
    ((3, 8, 2, 2), (5, 8, 2, 2)),
    ((5, 8, 2, 2), (3, 8, 2, 2)),
    ((5, 16, 2, 2), (5, 8, 2, 2)),
    ((5, 8, 3, 3), (5, 8, 2, 2)),
])
def test_gauge_from_homotopy_refuses_mismatched_shapes(xs_shape, ys_shape):
    # 3 z-samples of x against 5 of y used to be reported consistent
    with pytest.raises(HolonomyError, match="differ in shape"):
        gauge_from_homotopy(np.zeros(xs_shape), np.zeros(ys_shape))


def test_input_validation():
    with pytest.raises(HolonomyError):
        SampledMatrixPath(np.zeros((2, 2)))
    with pytest.raises(HolonomyError):
        CircleForm(np.zeros((4, 2, 2)))
    with pytest.raises(HolonomyError):
        pexp(lambda t: np.eye(2), 1.5)


def test_transport_matches_independent_product_integral():
    # two implementations of the same ODE: RK4 against the midpoint product
    # integral prod exp(y(t_mid) h), compared at every grid point
    y = lambda t: np.array([[0.1 * np.sin(3 * t), np.cos(t)],
                            [0.2 * t, -0.1]])
    steps = 2000
    path, _ = solve_transport(y, steps=steps)
    h = 1.0 / steps
    g = np.eye(2)
    max_err = 0.0
    for k in range(steps):
        g = mexp(h * y((k + 0.5) * h)) @ g
        max_err = max(max_err, float(np.max(np.abs(g - path.values[k + 1]))))
    assert max_err <= 1e-6


def test_scalar_transport_is_the_exponential():
    g = pexp(lambda t: np.array([[1.0]]), 1.0, steps=10000)
    assert abs(g[0, 0] - np.e) <= 1e-8
    half = pexp(lambda t: np.array([[1.0]]), 0.5, steps=5000)
    assert abs(half[0, 0] - np.exp(0.5)) <= 1e-8


def test_transport_of_zero_field_is_constant_identity():
    path, report = solve_transport(lambda t: np.zeros((3, 3)), steps=50)
    assert np.allclose(path.values, np.eye(3)[None], atol=1e-14)
    assert report["interior_residual"] <= 1e-14


# ---------------------------------------------------------------------------
# bit identity against the per-node transport loop
# ---------------------------------------------------------------------------


def _oracle_sampler(y, steps):
    if callable(y):
        return (lambda t: np.asarray(y(t), dtype=float)), steps
    m = y.steps
    if m % 2 == 1:
        raise HolonomyError("sampled paths need an even number of steps for RK4")
    vals = y.values

    def at(t):
        idx = int(round(t * m))
        idx = min(max(idx, 0), m)
        return vals[idx]
    return at, m // 2


def _oracle_rk4_step(y_at, t, h, g):
    k1 = y_at(t) @ g
    k2 = y_at(t + h / 2) @ (g + h / 2 * k1)
    k3 = y_at(t + h / 2) @ (g + h / 2 * k2)
    k4 = y_at(t + h) @ (g + h * k3)
    return g + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


def _oracle_transport(y, g0=None, steps=None, z0=0.0, z1=1.0):
    """The transport loop one node lookup at a time, residual per step."""
    at, default_steps = _oracle_sampler(y, steps or 0)
    m = steps if steps is not None else default_steps
    h = (z1 - z0) / m
    n = np.asarray(at(z0)).shape[0]
    g = np.eye(n) if g0 is None else np.asarray(g0, dtype=float)
    out = [g]
    for k in range(m):
        g = _oracle_rk4_step(at, z0 + k * h, h, g)
        out.append(g)
    values = np.stack(out)
    resid = 0.0
    for k in range(1, m):
        dg = (values[k + 1] - values[k - 1]) / (2 * h)
        resid = max(resid, float(np.max(np.abs(dg - at(z0 + k * h) @ values[k]))))
    report = {
        "interior_residual": resid,
        "endpoint_condition_number": float(np.linalg.cond(values[-1])),
        "steps": m,
    }
    return values, report


def _seeded_path(seed, n, m):
    rnd = np.random.default_rng(seed)
    ts = np.linspace(0.0, 1.0, m + 1)[:, None, None]
    a, b = rnd.uniform(-1, 1, (2, n, n))
    return SampledMatrixPath(a + ts * b + 0.3 * np.sin(7 * ts) * (a @ b))


def _assert_same_transport(y, **kwargs):
    path, report = solve_transport(y, **kwargs)
    values, expected = _oracle_transport(y, **kwargs)
    # the bit patterns, so that -0.0 and 0.0, which print differently, differ
    assert np.array_equal(path.values.view(np.uint64), values.view(np.uint64))
    assert report == expected


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m", [4, 10, 1000])
def test_sampled_transport_is_bit_identical_to_the_per_node_loop(n, m):
    sp = _seeded_path(100 * n + m, n, m)
    _assert_same_transport(sp)
    _assert_same_transport(sp, g0=np.random.default_rng(m).uniform(-1, 1, (n, n)))
    # explicit step counts read the samples at rounded, clamped indices
    for steps in (2, 3, 7, 2 * m + 1):
        _assert_same_transport(sp, steps=steps)
        _assert_same_transport(sp, steps=steps, z0=0.15, z1=0.85)
    assert np.array_equal(pexp(sp, 0.7, steps=333),
                          _oracle_transport(sp, steps=333, z1=0.7)[0][-1])


@pytest.mark.parametrize("z0, z1", [(0.3, 1.7), (-0.25, 0.4), (1.0, 0.0), (0.1, 0.1 + 1e-3)])
def test_callable_transport_is_bit_identical_to_the_per_node_loop(z0, z1):
    y = lambda t: np.array([[0.1 * np.sin(3 * t), np.cos(t), 0.0],
                            [0.2 * t, -0.1, t * t],
                            [np.exp(-t), 0.5, np.sin(t)]])
    for steps in (2, 37, 1000):
        _assert_same_transport(y, steps=steps, z0=z0, z1=z1)
    _assert_same_transport(y, steps=101, z0=z0, z1=z1, g0=np.diag([2.0, -1.0, 0.5]))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [8, 12, 1000, 1600, 2500, 10000])
def test_paired_coarse_solve_is_bit_identical_to_a_separate_solve(n, m):
    sp = _seeded_path(7 * n + m, n, m)
    coarse = SampledMatrixPath(sp.values[::2])
    g0 = np.random.default_rng(m + n).uniform(-1, 1, (n, n))
    for kwargs in ({}, {"g0": g0}):
        path, report = solve_transport(sp, coarse=coarse, **kwargs)
        alone, expected = solve_transport(sp, **kwargs)
        end = solve_transport(coarse, **kwargs)[0].values[-1]
        assert np.array_equal(report.pop("coarse_endpoint").view(np.uint64),
                              end.view(np.uint64))
        assert np.array_equal(path.values.view(np.uint64), alone.values.view(np.uint64))
        assert report == expected


@pytest.mark.parametrize("g0, message", [
    (np.eye(3), r"g0 has shape \(3, 3\), expected \(2, 2\)"),
    ([[1, 0], [0, "x"]], r"g0 must be a numeric \(2, 2\) array: could not convert"),
    (np.ones(2), r"g0 has shape \(2,\), expected \(2, 2\)"),
    ([[np.nan, 0.0], [0.0, 1.0]], "non-finite transport values"),
])
def test_a_bad_g0_is_refused_naming_the_expected_shape(g0, message):
    sp = _seeded_path(4, 2, 8)
    for coarse in (None, SampledMatrixPath(sp.values[::2])):
        with pytest.raises(HolonomyError, match=message):
            solve_transport(sp, g0=g0, coarse=coarse)


def test_coarse_path_must_not_outstep_the_fine_one():
    sp = _seeded_path(3, 2, 8)
    with pytest.raises(HolonomyError, match="coarse"):
        solve_transport(sp, coarse=_seeded_path(3, 2, 10))
    with pytest.raises(HolonomyError, match="coarse"):
        solve_transport(sp, coarse=_seeded_path(3, 3, 4))
    # as many steps as y is allowed
    _, report = solve_transport(sp, coarse=sp)
    assert np.array_equal(report["coarse_endpoint"], solve_transport(sp)[0].values[-1])


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("layout", ["fortran", "transposed", "reversed-rows",
                                    "reversed-columns", "reversed-both", "strided"])
def test_transport_from_any_memory_layout_of_g0(n, layout):
    base = np.random.default_rng(n).uniform(-1, 1, (2 * n, 2 * n))
    g0 = {"fortran": np.asfortranarray(base[:n, :n]),
          "transposed": base[:n, :n].T,
          "reversed-rows": base[:n, :n][::-1],
          "reversed-columns": base[:n, :n][:, ::-1],
          "reversed-both": base[:n, :n][::-1, ::-1],
          "strided": base[::2, ::2]}[layout]
    sp = _seeded_path(n, n, 40)
    _assert_same_transport(sp, g0=g0)
    _assert_same_transport(sp, g0=g0, steps=7, z0=0.2, z1=0.9)


def _loop_rk4(h, y0, ymid, y1, g, dot):
    # _rk4 as it was before it wrote into buffers, a new array for every
    # operation, with dot(y, g) returning the product; kept as its reference
    h2, h6 = h / 2, h / 6
    out = np.empty((len(y0) + 1,) + g.shape)
    out[0] = g
    for o, a, b, c in zip(out[1:], y0, ymid, y1):
        k1 = dot(a, g)
        k2 = dot(b, g + h2 * k1)
        k3 = dot(b, g + h2 * k2)
        k4 = dot(c, g + h * k3)
        g = g + h6 * (k1 + (k2 + k2) + (k3 + k3) + k4)
        o[...] = g
    return out


def _matmul_pair_transport(y, coarse, g0=None, z0=0.0, z1=1.0):
    # solve_transport(y, g0, z0=z0, z1=z1, coarse=coarse) as it was when the
    # halving pair advanced as a (2, n, n) stack, one np.matmul per product;
    # kept as its reference
    from mctwist.holonomy import _nodes
    (h, *fine), (hc, *nodes) = _nodes(y, None, z0, z1), _nodes(coarse, None, z0, z1)
    n, mc = fine[0].shape[1], len(nodes[0])
    g = np.eye(n) if g0 is None else np.asarray(g0, dtype=float)
    with np.errstate(all="ignore"):
        pair = _loop_rk4(np.array([h, hc]).reshape(2, 1, 1),
                         *(np.stack((f[:mc], c), axis=1) for f, c in zip(fine, nodes)),
                         np.stack((g, g)), np.matmul)
        rest = _loop_rk4(h, *(f[mc:] for f in fine), pair[-1, 0], np.ndarray.dot)
    values, end = np.concatenate((pair[:, 0], rest[1:])), pair[-1, 1]
    if not (np.isfinite(values).all() and np.isfinite(end).all()):
        raise HolonomyError("non-finite transport values")
    dg = (values[2:] - values[:-2]) / (2 * h)
    cond = float(np.linalg.cond(values[-1]))
    if not np.isfinite(cond):
        raise HolonomyError("non-finite endpoint condition number")
    return SampledMatrixPath(values), {
        "interior_residual": float(np.max(np.abs(dg - fine[0][1:] @ values[1:-1]))),
        "endpoint_condition_number": cond,
        "steps": len(fine[0]),
        "coarse_endpoint": end,
    }


def _outcome(solve, *args, **kwargs):
    # the bytes of the values and coarse endpoint, so that -0.0 and 0.0
    # differ, the rest of the report, or the refusal message
    try:
        path, report = solve(*args, **kwargs)
    except HolonomyError as exc:
        return str(exc)
    return path.values.tobytes(), report.pop("coarse_endpoint").tobytes(), report


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("case", ["seeded", "zeros", "subnormal", "overflow"])
def test_the_block_diagonal_pair_is_bit_identical_to_the_matmul_stack(n, case):
    rnd = np.random.default_rng([n, len(case)])
    outcomes = []
    for _ in range(6):
        m = 8 * int(rnd.integers(1, 8))
        ys = rnd.uniform(-1, 1, (m + 1, n, n))
        if case == "zeros":  # exact zeros of both signs among the samples
            ys[rnd.random(ys.shape) < 0.6] = 0.0
            ys[rnd.random(ys.shape) < 0.3] = -0.0
        elif case == "subnormal":  # subnormal samples, and products that underflow
            ys[rnd.random(ys.shape) < 0.5] *= 1e-310
        elif case == "overflow":
            ys[rnd.random(ys.shape) < 0.5] = 1e200
        y = SampledMatrixPath(ys)
        # -0.0 off the diagonal of an invertible g0
        g0 = np.where(np.eye(n, dtype=bool), rnd.uniform(0.5, 2.0, (n, n)), -0.0)
        for coarse in (SampledMatrixPath(ys[::2]), y):
            for z0, z1 in ((0.0, 1.0), (1.0, 0.0)):
                for start in (None, g0):
                    kwargs = {"g0": start, "z0": z0, "z1": z1}
                    got = _outcome(solve_transport, y, coarse=coarse, **kwargs)
                    assert got == _outcome(_matmul_pair_transport, y, coarse, **kwargs)
                    outcomes.append(got)
    refused = [o for o in outcomes if isinstance(o, str)]
    if case == "overflow":
        assert set(refused) == {"non-finite transport values"}
    else:
        assert len(refused) < len(outcomes)


def _grid_layout(ys, g):
    # (..., p, n, n) stacks in backward transport's layout, the grid innermost:
    # nodes [..., j, i, l, p] = ys[..., p, i, j], expanded along l, and g[..., i, l, p]
    nodes = np.moveaxis(ys, -3, -1).swapaxes(-3, -2)[..., None, :]
    return np.repeat(nodes, ys.shape[-1], axis=-2), np.ascontiguousarray(np.moveaxis(g, -3, -1))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("case", ["seeded", "negative-zero", "subnormal", "overflow"])
def test_the_grid_product_has_the_bits_of_the_circle_einsum(n, case):
    rnd = np.random.default_rng([n, len(case)])
    seen = set()
    for p in (8, 9, 16, 17, 31, 32):
        a, b = rnd.uniform(-1, 1, (2, p, n, n))
        if case == "negative-zero":  # every term -0.0: einsum's sum from +0.0 is +0.0
            a, b = np.full_like(a, -0.0), np.abs(b)
        elif case == "subnormal":  # products that are subnormal or underflow to zero
            a, b = a * 1e-160, b * rnd.choice([1e-148, 1e-160, 1e-170], b.shape)
        elif case == "overflow":  # products past the largest float, and inf - inf
            a[rnd.random(a.shape) < 0.5] = 1e200
            b = np.where(rnd.random(b.shape) < 0.5, rnd.choice([-1e200, 1e200], b.shape), b)
        expected = np.einsum("pij,pjl->pil", a, b)
        got = np.empty((n, n, p))
        with np.errstate(all="ignore"):
            assert _grid_product(*_grid_layout(a, b), got) is got
        # the bit patterns, so that -0.0 and 0.0 differ
        got = np.ascontiguousarray(np.moveaxis(got, -1, -3))
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), p
        seen.update({"zero": (got == 0).any(), "negative": np.signbit(got).any(),
                     "inf": np.isinf(got).any(), "nan": np.isnan(got).any()}.items())
    if case == "negative-zero":
        assert ("zero", True) in seen and ("negative", True) not in seen
    elif case == "subnormal":
        assert ("zero", True) in seen
    elif case == "overflow":  # one term has no inf - inf
        assert ("inf", True) in seen and (("nan", True) in seen) == (n > 1)


def _block_pair(ys, g0):
    # a (..., 2, n, n) fine/coarse stack in the halving pair's layout: nodes
    # [[fine, 0], [0, coarse]] of shape (2n, 2n) and a (2n, n) value
    n = ys.shape[-1]
    blocks = np.zeros(ys.shape[:-3] + (2 * n, 2 * n))
    blocks[..., :n, :n], blocks[..., n:, n:] = ys[..., 0, :, :], ys[..., 1, :, :]
    return blocks, g0.reshape(2 * n, n)


def _grid_dot(a, g, out=None):
    # _grid_product, also into a new array, as _loop_rk4 calls it
    return _grid_product(a, g, np.empty_like(g) if out is None else out)


# the three products _rk4 is given: (h for 20 steps, leading axes of the drawn g,
# product); a pair's (2, n, n) draws are laid out block-diagonally, and the
# circle grid's (p, n, n) draws with the grid innermost
_RK4_PRODUCTS = {
    **{("dot", n): (0.05, (), np.ndarray.dot) for n in (1, 2, 3, 4)},
    **{("pair", n): (np.repeat([[0.05], [0.1]], n, axis=0), (2,), np.ndarray.dot)
       for n in (1, 2, 3, 4)},
    **{("grid", p): (0.05, (p,), _grid_dot) for p in (8, 16, 32)},
}


@pytest.mark.parametrize("product", sorted(_RK4_PRODUCTS))
@pytest.mark.parametrize("case", ["seeded", "zero", "overflow"])
def test_rk4_in_buffers_is_bit_identical_to_the_loop_of_new_arrays(product, case):
    from mctwist.holonomy import _rk4
    h, lead, dot = _RK4_PRODUCTS[product]
    n = 2 if product[0] == "grid" else product[1]
    rnd = np.random.default_rng([len(product[0]), product[1], len(case)])
    ys = rnd.uniform(-1, 1, (41,) + lead + (n, n))
    g0 = rnd.uniform(-1, 1, lead + (n, n))
    if case == "zero":  # signed zeros, which print differently
        ys, g0 = np.zeros_like(ys), -0.0 * np.broadcast_to(np.eye(n), g0.shape)
    elif case == "overflow":
        ys = 1e200 * ys
    if product[0] == "pair":
        ys, g0 = _block_pair(ys, g0)
    elif product[0] == "grid":
        ys, g0 = _grid_layout(ys, g0)
    kept, signs = (ys.copy(), g0.copy()), set()
    for sign in (1, -1):
        nodes = ys[:-1:2], ys[1::2], ys[2::2]
        with np.errstate(all="ignore"):
            got = _rk4(sign * h, *nodes, g0, dot)
            ref = _loop_rk4(sign * h, *nodes, g0, dot)
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), sign
        # neither the caller's g0 nor the node stacks are written
        for arr, before in zip((ys, g0), kept):
            assert np.array_equal(arr.view(np.uint64), before.view(np.uint64))
        if case == "overflow":
            assert not np.isfinite(got[-1]).any()
        if case == "zero":
            assert not got.any()
            signs.update(np.signbit(got[1:]).ravel().tolist())
    # h times a zero takes h's sign, so -0.0 is stepped in one direction or the other
    assert (True in signs) == (case == "zero")


def test_pexp_at_zero_still_checks_its_input():
    assert np.array_equal(pexp(lambda t: np.ones((3, 3)), 0.0), np.eye(3))
    assert np.array_equal(pexp(_seeded_path(1, 2, 10), 0.0), np.eye(2))
    with pytest.raises(HolonomyError, match="even"):
        pexp(_seeded_path(1, 2, 9), 0.0)
    with pytest.raises(HolonomyError, match="callable"):
        pexp(np.eye(2), 0.0)
    with pytest.raises(HolonomyError, match="2 steps"):
        solve_transport(lambda t: np.eye(2))


def test_csv_reader_parses_like_float_bit_for_bit(tmp_path):
    from mctwist.holonomy import read_csv_matrices as _read_csv_matrices
    rnd = np.random.default_rng(20261017)
    count = 20000
    mantissa = rnd.uniform(1.0, 10.0, count) * rnd.choice([-1.0, 1.0], count)
    values = mantissa * 10.0 ** rnd.integers(-307, 308, count).astype(float)
    values[:2000] = rnd.uniform(0.0, 2.2250738585072014e-308, 2000)  # subnormals
    values[2000:2100] = rnd.integers(-5, 6, 100) * 5e-324
    values[2100:2200] = -0.0
    values[2200:2300] = 1e308
    values[2300:2400] = -1.7976931348623157e308
    values[2400:3000] = rnd.uniform(-1, 1, 600)
    rnd.shuffle(values)
    tokens = ["%.17g" % v for v in values]
    path = tmp_path / "tokens.csv"
    path.write_text("".join(",".join(tokens[i:i + 16]) + "\n"
                            for i in range(0, count, 16)))
    parsed = _read_csv_matrices(str(path))
    assert parsed.shape == (count // 16, 4, 4)
    expected = np.array([float(tok) for tok in tokens])
    # the bit patterns, so -0.0 must keep its sign bit
    assert np.array_equal(parsed.reshape(-1).view(np.uint64), expected.view(np.uint64))


def test_overflowing_transport_is_refused_without_warnings(recwarn):
    big = SampledMatrixPath(np.tile([[1e200, -1e200], [1e200, 1e200]], (9, 1, 1)))
    for kwargs in ({}, {"coarse": SampledMatrixPath(big.values[::2])}):
        with pytest.raises(HolonomyError, match="non-finite transport values"):
            solve_transport(big, **kwargs)
    # RK4 on y = -2500 decays at h = 1e-3 and blows up at the coarse h = 2e-3
    stiff = SampledMatrixPath(np.full((2001, 1, 1), -2500.0))
    assert 0.0 < solve_transport(stiff)[0].values[-1][0, 0] < 1e-180
    with pytest.raises(HolonomyError, match="non-finite transport values"):
        solve_transport(stiff, coarse=SampledMatrixPath(stiff.values[::2]))
    ys = np.tile([[1e200, -1e200], [1e200, 1e200]], (5, 8, 1, 1))
    with pytest.raises(HolonomyError, match="non-finite transport values"):
        gauge_from_homotopy(np.zeros_like(ys), ys)
    assert len(recwarn) == 0


def test_one_pexp_job_is_one_transport_solve(tmp_path, capsys, monkeypatch):
    from mctwist import cli, holonomy
    calls = []
    solve = holonomy.solve_transport
    monkeypatch.setattr(holonomy, "solve_transport",
                        lambda *a, **k: calls.append(k) or solve(*a, **k))
    path = tmp_path / "y.csv"
    np.savetxt(path, _seeded_path(5, 3, 400).values.reshape(401, 9), delimiter=",")
    assert cli.main(["holonomy", "--mode", "pexp", str(path)]) == 0
    assert "halving_difference" in capsys.readouterr().out
    assert len(calls) == 1 and calls[0]["coarse"] is not None


def test_transport_past_the_square_of_the_largest_float():
    # transport values past about 1.34e154, whose square is no float, are
    # still reported
    big = SampledMatrixPath(np.tile(4e12 * np.eye(2), (9, 1, 1)))
    path, report = solve_transport(big)
    assert 1e186 < path.values[-1][0, 0] < np.inf
    assert report["endpoint_condition_number"] == 1.0
    # a nilpotent y: the transport [[1, c], [0, 1]] is finite, its condition
    # number is not, and a non-finite condition number is refused
    for c in (1.4e154, 1e200):
        nil = SampledMatrixPath(np.tile([[0.0, c], [0.0, 0.0]], (9, 1, 1)))
        with pytest.raises(HolonomyError, match="non-finite endpoint condition number"):
            solve_transport(nil)
    path, report = solve_transport(SampledMatrixPath(np.tile([[0.0, 1.34e154], [0.0, 0.0]],
                                                             (9, 1, 1))))
    assert np.isfinite(report["endpoint_condition_number"])


def test_holonomy_errors_are_input_errors():
    from mctwist.io import InputError
    assert issubclass(HolonomyError, InputError) and issubclass(HolonomyError, ValueError)
    with pytest.raises(InputError, match="need at least 3 samples"):
        SampledMatrixPath(np.zeros((2, 2, 2)))


def _loop_system_residual(xs, ys):
    # the residual of (4.2) as homotopy_from_gauge_path measured it, one
    # z-sample at a time, before both directions shared one batched check
    mz = xs.shape[0] - 1
    hz = 1.0 / mz
    resid = 0.0
    for k in range(1, mz):
        dxdz = (xs[k + 1] - xs[k - 1]) / (2 * hz)
        dtheta_y = circle_derivative(ys[k])
        bracket = np.einsum("pij,pjl->pil", ys[k], xs[k]) - \
            np.einsum("pij,pjl->pil", xs[k], ys[k])
        resid = max(resid, float(np.max(np.abs(dxdz + dtheta_y - bracket))))
    return resid


def _loop_gauge_from_homotopy(xs, ys, endpoint_tol=1e-5):
    # gauge_from_homotopy with its own RK4 loop, before it ran _rk4, and the
    # per-z residual loop; kept as its reference
    mz = ys.shape[0] - 1
    p, n = ys.shape[1], ys.shape[2]
    hz = 1.0 / mz
    g = np.repeat(np.eye(n)[None, :, :], p, axis=0)
    with np.errstate(all="ignore"):
        for k in range(0, mz, 2):
            y0, ymid, y1 = ys[k], ys[k + 1], ys[k + 2]
            h2 = 2 * hz
            k1 = np.einsum("pij,pjl->pil", y0, g)
            k2 = np.einsum("pij,pjl->pil", ymid, g + h2 / 2 * k1)
            k3 = np.einsum("pij,pjl->pil", ymid, g + h2 / 2 * k2)
            k4 = np.einsum("pij,pjl->pil", y1, g + h2 * k3)
            g = g + h2 / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        resid = _loop_system_residual(xs, ys)
        scale = np.maximum(1.0, np.abs(ys).max() + max(np.abs(xs[0]).max(),
                                                        np.abs(xs[-1]).max()))
        bound = float((hz ** 2 + (1.0 / p) ** 2) * scale ** 3)
    if not np.isfinite(g).all():
        raise HolonomyError("non-finite transport values")
    err = float(np.max(np.abs(xs[-1] - gauge_transform_circle(g, CircleForm(xs[0])))))
    cond = float(np.max(np.linalg.cond(g)))
    if not np.isfinite(cond):
        raise HolonomyError("non-finite gauge condition number")
    return g, {"endpoint_error": err, "system_residual": resid, "residual_bound": bound,
               "consistent": bool(err <= endpoint_tol and resid <= bound),
               "gauge_condition_number": cond}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [8, 16, 32])
def test_backward_transport_is_bit_identical_to_its_own_loop(n, p):
    rnd = np.random.default_rng(10 * n + p)
    pairs = []
    for mz in (2, 4, 6, 10, 24, 58, 120):
        xs, ys = rnd.uniform(-1, 1, (2, mz + 1, p, n, n))
        pairs.append((xs, ys * rnd.uniform(0.1, 3)))
    # exact zeros of both signs among the samples, and a y of -0.0 alone
    xs, ys = rnd.uniform(-1, 1, (2, 25, p, n, n))
    ys[rnd.random(ys.shape) < 0.6] = 0.0
    ys[rnd.random(ys.shape) < 0.3] = -0.0
    pairs += [(xs, ys), (xs, np.full_like(ys, -0.0))]
    for xs, ys in pairs:
        g, report = gauge_from_homotopy(xs, ys)
        ref, expected = _loop_gauge_from_homotopy(xs, ys)
        # the bit patterns, so that -0.0 and 0.0, which print differently, differ
        assert np.array_equal(g.view(np.uint64), ref.view(np.uint64)), (n, p, len(ys))
        # the batched residual multiplies with @, which rounds unlike einsum
        assert report.pop("system_residual") == pytest.approx(
            expected.pop("system_residual"), rel=1e-12, abs=1e-300)
        assert report == expected
    ys = np.tile(1e200 * np.array([[1.0, -1.0], [1.0, 1.0]])[:n, :n], (5, p, 1, 1))
    for run in (gauge_from_homotopy, _loop_gauge_from_homotopy):
        with pytest.raises(HolonomyError, match="non-finite transport values"):
            run(np.zeros_like(ys), ys)


@pytest.mark.parametrize("mz", [3, 60])
def test_the_forward_system_residual_is_the_per_z_loop(mz):
    xs, ys, report = homotopy_from_gauge_path(*_workload_like_pair(mz=mz))
    assert report["system_residual"] == pytest.approx(_loop_system_residual(xs, ys), rel=1e-12)


def _loop_gauge_transforms(x0, gpath):
    # x(z_k) = g(z_k) . x0 one z-level at a time, each level inverted again,
    # as homotopy_from_gauge_path computed it before it transformed the whole
    # stack with the inverse it already has; kept as its reference
    xs = []
    for g in gpath:
        ginv = np.linalg.inv(g)
        xs.append(np.einsum("pij,pjk,pkl->pil", g, x0.values, ginv) -
                  np.einsum("pij,pjk->pik", circle_derivative(g), ginv))
    return np.stack(xs)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_gauge_path_transform_is_bit_identical_to_the_per_z_loop(n):
    rnd = np.random.default_rng(n)
    for p in (8, 16, 24, 32):
        for mz in (2, 7, 39):
            gpath = np.eye(n) + 0.3 * rnd.standard_normal((mz + 1, p, n, n))
            gpath[0] = np.eye(n)
            x0 = CircleForm(rnd.standard_normal((p, n, n)))
            ref = _loop_gauge_transforms(x0, gpath)
            xs, _, _ = homotopy_from_gauge_path(x0, gpath)
            # the bit patterns, so that -0.0 and 0.0, which print differently, differ
            assert np.array_equal(xs.view(np.uint64), ref.view(np.uint64)), (p, mz)
            one = gauge_transform_circle(gpath[-1], x0)
            assert np.array_equal(one.view(np.uint64), ref[-1].view(np.uint64)), (p, mz)
    x0, gpath = _workload_like_pair(n=n)
    xs, _, _ = homotopy_from_gauge_path(x0, gpath)
    assert np.array_equal(xs.view(np.uint64), _loop_gauge_transforms(x0, gpath).view(np.uint64))


def _workload_like_pair(p=16, mz=60, n=2, seed=5):
    # as a backward transport job builds its input: x0 = a constant, and the
    # gauge path exp(z b) at every grid point
    rnd = np.random.default_rng(seed)
    a, b = rnd.uniform(-0.4, 0.4, (n, n)), rnd.uniform(-0.2, 0.2, (n, n))
    zs = np.linspace(0.0, 1.0, mz + 1)
    gpath = np.repeat(mexp(zs[:, None, None] * b)[:, None], p, axis=1)
    return CircleForm.constant(a, p), gpath


def test_an_interior_sample_off_the_homotopy_system_is_inconsistent():
    xs, ys, _ = homotopy_from_gauge_path(*_workload_like_pair())
    g, report = gauge_from_homotopy(xs, ys)
    assert report["consistent"]
    assert report["system_residual"] <= 1e-3 * report["residual_bound"]
    # the endpoints, and so the bound, stay as they are: only (4.2) sees it
    xs[30, 5, 0, 1] += 1e-3
    g_off, off = gauge_from_homotopy(xs, ys)
    assert np.array_equal(g_off, g) and off["endpoint_error"] == report["endpoint_error"]
    assert off["residual_bound"] == report["residual_bound"]
    assert not off["consistent"] and off["system_residual"] > 5 * off["residual_bound"]


def test_non_finite_samples_are_refused_in_either_direction():
    x0, gpath = _workload_like_pair(p=8, mz=4)
    xs, ys, _ = homotopy_from_gauge_path(x0, gpath)
    for k in (0, 2, 4):
        for arr in (xs, ys, gpath):
            bad = arr.copy()
            bad[k, 3, 1, 0] = np.nan
            with pytest.raises(HolonomyError, match="non-finite samples"):
                if arr is gpath:
                    homotopy_from_gauge_path(x0, bad)
                else:
                    gauge_from_homotopy(*((bad, ys) if arr is xs else (xs, bad)))


def _complexified(values):
    # the same values with one imaginary entry added, as an array and as a list
    out = np.asarray(values, dtype=complex)
    out.flat[1] += 5j
    return [out, out.tolist()]


def _refuses_complex(call, values, message="complex samples"):
    # refused before numpy's float conversion could drop the imaginary part
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in _complexified(values):
            with pytest.raises(HolonomyError, match=message):
                call(bad)


def test_a_complex_sampled_path_is_refused():
    _refuses_complex(SampledMatrixPath, _seeded_path(1, 2, 8).values)


def test_a_complex_circle_form_is_refused():
    _refuses_complex(CircleForm, CircleForm.constant(np.eye(2), 8).values)


def test_a_complex_gauge_path_is_refused():
    x0, gpath = _workload_like_pair(p=8, mz=4)
    _refuses_complex(lambda bad: homotopy_from_gauge_path(x0, bad), gpath)
    _refuses_complex(lambda bad: homotopy_from_gauge_path(CircleForm(bad), gpath), x0.values)


def test_a_complex_homotopy_is_refused_on_either_side():
    xs, ys, _ = homotopy_from_gauge_path(*_workload_like_pair(p=8, mz=4))
    _refuses_complex(lambda bad: gauge_from_homotopy(bad, ys), xs)
    _refuses_complex(lambda bad: gauge_from_homotopy(xs, bad), ys)


def test_a_complex_g0_is_refused():
    # a complex g0 such as [[1, 0], [0, 1+5j]] used to transport from its real part
    sp = _seeded_path(4, 2, 8)
    for coarse in (None, SampledMatrixPath(sp.values[::2])):
        _refuses_complex(lambda bad: solve_transport(sp, g0=bad, coarse=coarse), np.eye(2),
                         r"g0 must be a numeric \(2, 2\) array: it has complex entries")


def _refuses_malformed(call, values, shape):
    # a ragged list and one with a string entry: numpy's own ValueError used
    # to escape from the float conversion
    ragged = np.asarray(values).tolist()
    ragged[-1] = ragged[-1][:-1]
    wordy = np.asarray(values).tolist()
    row = wordy[1]
    while isinstance(row[0], list):
        row = row[0]
    row[0] = "x"
    message = r"must be a numeric %s array: " % re.escape(shape)
    for bad, why in ((ragged, "inhomogeneous shape"), (wordy, "could not convert string")):
        with pytest.raises(HolonomyError, match=message + ".*" + why):
            call(bad)


def test_a_ragged_or_non_numeric_sampled_path_is_refused():
    _refuses_malformed(SampledMatrixPath, _seeded_path(1, 2, 8).values, "(m+1, n, n)")


def test_a_ragged_or_non_numeric_circle_form_is_refused():
    _refuses_malformed(CircleForm, CircleForm.constant(np.eye(2), 8).values, "(p, n, n)")


def test_a_ragged_or_non_numeric_gauge_path_is_refused():
    x0, gpath = _workload_like_pair(p=8, mz=4)
    _refuses_malformed(lambda bad: homotopy_from_gauge_path(x0, bad), gpath, "(mz+1, p, n, n)")


def test_a_ragged_or_non_numeric_homotopy_is_refused_on_either_side():
    xs, ys, _ = homotopy_from_gauge_path(*_workload_like_pair(p=8, mz=4))
    _refuses_malformed(lambda bad: gauge_from_homotopy(bad, ys), xs, "(mz+1, p, n, n)")
    _refuses_malformed(lambda bad: gauge_from_homotopy(xs, bad), ys, "(mz+1, p, n, n)")


def test_an_exactly_singular_gauge_is_an_input_error():
    # np.linalg.inv raises LinAlgError here, where an inverse that overflows
    # only reads non-finite
    x0, gpath = _workload_like_pair(p=8, mz=4)
    gpath[2, 3] = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(HolonomyError, match="singular gauge value"):
        homotopy_from_gauge_path(x0, gpath)
    with pytest.raises(HolonomyError, match="singular gauge value"):
        gauge_transform_circle(gpath[2], x0)
    # backward: mz = 2, so RK4 takes one step of h = 1, whose matrix
    # 1 + y(1)/6 is 0, diag(0, 1), or [[1, 2], [2, 4]] with a finite condition number
    for row, message in (([[-6, 0], [0, -6]], "non-finite gauge condition number"),
                         ([[-6, 0], [0, 0]], "non-finite gauge condition number"),
                         ([[0, 12], [12, 18]], "singular gauge value")):
        ys = np.zeros((3, 8, 2, 2))
        ys[2] = row
        with pytest.raises(HolonomyError, match=message):
            gauge_from_homotopy(np.zeros_like(ys), ys)


@pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-300, float("inf"), float("-inf")])
def test_the_endpoint_tolerance_must_be_finite_and_not_negative(tol):
    xs = ys = np.zeros((3, 8, 2, 2))
    with pytest.raises(HolonomyError, match="endpoint tolerance .* not %s" % tol):
        gauge_from_homotopy(xs, ys, endpoint_tol=tol)
    assert gauge_from_homotopy(xs, ys, endpoint_tol=0.0)[1]["consistent"]
    # zero asks for exact equality
    off = np.concatenate((xs[:2], xs[2:] + 1e-300))
    assert not gauge_from_homotopy(off, ys, endpoint_tol=0.0)[1]["consistent"]


@pytest.mark.parametrize("x0_shape", [(8, 2, 2), (16, 3, 3)])
def test_an_x0_off_the_gauge_grid_is_refused_naming_both_shapes(x0_shape):
    # numpy's broadcasting ValueError used to escape from the einsum
    x0, gpath = CircleForm(np.zeros(x0_shape)), _workload_like_pair(p=16, mz=4)[1]
    message = r"x0 has shape %s, not the gauge grid's \(16, 2, 2\)" % re.escape(repr(x0_shape))
    with pytest.raises(HolonomyError, match=message):
        homotopy_from_gauge_path(x0, gpath)
    with pytest.raises(HolonomyError, match=message):
        gauge_transform_circle(gpath[-1], x0)
