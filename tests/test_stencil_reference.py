"""The component-major stencil core against a node-major np.roll/einsum
kernel, kept here as the reference.

The reference forms the defect as the step does, F = P_u(G) with G the
weighted 5-point difference sum (1 / h^2) sum_k W_k (u_k - u),
h = min(hx, hy), whose per-node weights fold in the coupling, so v, F and
|grad u|^2 must be equal bit for bit.  The Laplacian is the same sum with the
weights of f = 1, and the tension P_u(lap u).  Only full-grid sums over a
component-major array accumulate in another order; those are held to a
relative bound fixed beforehand from the float64 epsilon (2.2e-16) and the
grid size.

Two more oracles keep the defect as written before the weights: with the
Laplacian, F = P_u(f lap u + grad f . grad u), the same G summed in another
order, and with the tension, F = P_u(f tau(u) + grad f . grad u),
tau = P_u(lap u + |grad u|^2 u).  On unit-norm input each differs from the
weighted sum only by rounding (in the tension's case also in the normal term
f |grad u|^2 u that the projection removes); off the sphere P_u is no
projection and the tension form differs by more.
"""

import numpy as np
import pytest

import spinflow as sf
from spinflow.domain import _grad_arrays
from spinflow.operators import _laplacian, _rhs_arrays, _Workspace
from spinflow.relax import DEFAULT_SAFETY

from conftest import blob_field, cosine_coupling

#: relative bound on a reordered full-grid float64 sum of positive terms
SUM_RTOL = 1e-12

#: bound on |F - F_old|, relative to max |F|, on unit-norm input, for either
#: earlier formula (Laplacian or tension)
FORMULA_RTOL = 1e-13


# ---------------------------------------------------------------------------
# Reference kernel: node-major (nx, ny, 3) arrays, four periodic rolls,
# einsum dot products


def ref_neighbours(a):
    """The x+1, x-1, y+1 and y-1 neighbours of every node."""
    return (np.roll(a, -1, axis=0), np.roll(a, 1, axis=0),
            np.roll(a, -1, axis=1), np.roll(a, 1, axis=1))


def ref_stencil(a, hx, hy):
    xp, xm, yp, ym = ref_neighbours(a)
    ax = (xp - xm) * (0.5 / hx)
    ay = (yp - ym) * (0.5 / hy)
    lap = (xp + xm - 2.0 * a) * (1.0 / (hx * hx)) + (yp + ym - 2.0 * a) * (1.0 / (hy * hy))
    return ax, ay, lap


def ref_dot(a, b):
    return np.einsum("ijk,ijk->ij", a, b)


def ref_project(w, u):
    return w - ref_dot(w, u)[..., None] * u


def ref_cross(a, b):
    out = np.empty_like(a)
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def ref_weights(f, f_x, f_y, hx, hy):
    """The per-node weights of the x+1, x-1, y+1 and y-1 neighbours, in
    units of h^2, h = min(hx, hy): (h/hx)^2 f +- (h^2/(2 hx)) f_x and
    (h/hy)^2 f +- (h^2/(2 hy)) f_y."""
    h = min(hx, hy)
    fx, wx = f * (h / hx) ** 2, f_x * (0.5 * h * (h / hx))
    fy, wy = f * (h / hy) ** 2, f_y * (0.5 * h * h / hy)
    return fx + wx, fx - wx, fy + wy, fy - wy


def ref_weighted_sum(a, W, hx, hy):
    """((((xp - a) W0 + (xm - a) W1) + (yp - a) W2) + (ym - a) W3) (1 / h^2)."""
    h = min(hx, hy)
    xp, xm, yp, ym = ref_neighbours(a)
    return ((((xp - a) * W[0] + (xm - a) * W[1]) + (yp - a) * W[2]) + (ym - a) * W[3]) \
        * (1.0 / (h * h))


def ref_laplacian(a, hx, hy):
    """The weighted sum with the weights of f = 1."""
    return ref_weighted_sum(a, ref_weights(1.0, 0.0, 0.0, hx, hy), hx, hy)


def ref_rhs_arrays(u, hx, hy, coupling, kind, formula="weighted"):
    """(v, F, |grad u|^2) with F = P_u(G): with formula "weighted" G is the
    weighted sum with the coupling's weights, with "laplacian"
    f lap u + grad f . grad u and with "tension" f tau(u) + grad f . grad u,
    lap the textbook 5-point Laplacian."""
    ux, uy, lap = ref_stencil(u, hx, hy)
    gsq = ref_dot(ux, ux) + ref_dot(uy, uy)
    if formula == "weighted":
        W = ref_weights(coupling.values, coupling.grad_x, coupling.grad_y, hx, hy)
        F = ref_weighted_sum(u, [w[..., None] for w in W], hx, hy)
    else:
        if formula == "tension":
            lap = ref_project(lap + gsq[..., None] * u, u)
        F = coupling.values[..., None] * lap \
            + coupling.grad_x[..., None] * ux + coupling.grad_y[..., None] * uy
    F = ref_project(F, u)
    v = F if kind == "gradient" else F + ref_cross(u, F)
    return v, F, gsq


def ref_euler(u, coupling, dt, kind, nsteps):
    """Node-major Euler loop with einsum renormalisation; returns the final
    state and the einsum sums int |v|^2 and |F|_{L2} of every visited state."""
    g = coupling.grid
    v_sq, ps = [], []
    for n in range(nsteps + 1):
        v, F, _ = ref_rhs_arrays(u, g.hx, g.hy, coupling, kind)
        v_sq.append(float(np.einsum("ijk,ijk->", v, v) * g.cell_area))
        ps.append(float(np.sqrt(np.einsum("ijk,ijk->", F, F) * g.cell_area)))
        if n < nsteps:
            w = u + dt * v
            u = w / np.sqrt(ref_dot(w, w))[..., None]
    return u, v_sq, ps


def node_major(values):
    """The reference kernel's input: a contiguous (nx, ny, 3) copy."""
    return np.ascontiguousarray(values.transpose(1, 2, 0))


def component_major(values):
    return np.ascontiguousarray(values.transpose(2, 0, 1))


GRIDS = [(24, 20, 1.3, 0.7), (64, 64, 1.0, 1.0), (128, 128, 1.0, 1.0)]


@pytest.fixture(params=GRIDS, ids=lambda p: f"{p[0]}x{p[1]}")
def setup(request):
    g = sf.make_grid(*request.param)
    return g, cosine_coupling(g), sf.perturb(blob_field(g), 0.3, 5)


class TestReferenceKernel:
    @pytest.mark.parametrize("kind", ["gradient", "landau_lifshitz"])
    def test_rhs_bit_identical(self, setup, kind):
        g, c, u = setup
        ref = ref_rhs_arrays(node_major(u.values), g.hx, g.hy, c, kind)
        ws = _Workspace(g, c, kind)
        v, F, gsq = _rhs_arrays(u.values, ws)
        assert gsq is None
        assert np.array_equal(v, component_major(ref[0]))
        assert np.array_equal(F, component_major(ref[1]))
        # the row variant writes the same v and F, and |grad u|^2
        v, F, gsq = _rhs_arrays(u.values, ws, True)
        assert np.array_equal(v, component_major(ref[0]))
        assert np.array_equal(F, component_major(ref[1]))
        assert np.array_equal(gsq, ref[2])

    @pytest.mark.parametrize("formula", ["laplacian", "tension"])
    @pytest.mark.parametrize("kind", ["gradient", "landau_lifshitz"])
    def test_rhs_matches_the_earlier_formulas_on_the_sphere(self, setup, kind, formula):
        g, c, u = setup
        assert u.max_norm_deviation <= 1e-15
        old = ref_rhs_arrays(node_major(u.values), g.hx, g.hy, c, kind, formula)
        v, F, _ = _rhs_arrays(u.values, _Workspace(g, c, kind))
        for got, want in ((v, old[0]), (F, old[1])):
            want = component_major(want)
            assert not np.array_equal(got, want)    # the formulas round differently
            assert np.abs(got - want).max() <= FORMULA_RTOL * np.abs(want).max()

    @pytest.mark.parametrize("kind", ["gradient", "landau_lifshitz"])
    def test_rhs_bit_identical_off_the_sphere(self, setup, kind):
        # _rhs_arrays accepts input off the sphere: here a half Euler step
        # u + dt/2 k1 before its projection
        g, c, u = setup
        dt = 0.5 * sf.cfl_dt(g, c, 0.5)
        k1 = ref_rhs_arrays(node_major(u.values), g.hx, g.hy, c, kind)[0]
        stage = node_major(u.values) + dt * k1
        assert np.abs(np.linalg.norm(stage, axis=-1) - 1.0).max() > 1e-8
        ref = ref_rhs_arrays(stage, g.hx, g.hy, c, kind)
        v, F, gsq = _rhs_arrays(component_major(stage), _Workspace(g, c, kind), True)
        assert np.array_equal(v, component_major(ref[0]))
        assert np.array_equal(F, component_major(ref[1]))
        assert np.array_equal(gsq, ref[2])

    def test_public_operators_bit_identical(self, setup):
        g, c, u = setup
        ref_u = node_major(u.values)
        ux, uy, _ = ref_stencil(ref_u, g.hx, g.hy)
        new_ux, new_uy = sf.grad(u)
        assert np.array_equal(new_ux, component_major(ux))
        assert np.array_equal(new_uy, component_major(uy))
        lap = ref_laplacian(ref_u, g.hx, g.hy)
        assert np.array_equal(sf.laplacian(u), component_major(lap))
        assert np.array_equal(sf.grad_squared(u), ref_dot(ux, ux) + ref_dot(uy, uy))
        tau = ref_project(lap, ref_u)
        assert np.array_equal(sf.tension(u).values, component_major(tau))
        F = ref_rhs_arrays(ref_u, g.hx, g.hy, c, "gradient")[1]
        assert np.array_equal(sf.ps_residual(u, c).values, component_major(F))
        v = ref_rhs_arrays(ref_u, g.hx, g.hy, c, "landau_lifshitz")[0]
        assert np.array_equal(sf.ll_velocity(u, c).values, component_major(v))

    def test_laplacian_matches_the_textbook_formula(self, setup):
        g, _, u = setup
        want = component_major(ref_stencil(node_major(u.values), g.hx, g.hy)[2])
        got = sf.laplacian(u)
        assert np.abs(got - want).max() <= FORMULA_RTOL * np.abs(want).max()

    def test_complex_scalar_keeps_its_dtype(self):
        # the Hopf field psi is a complex (nx, ny) array
        g = sf.make_grid(24, 20, 1.3, 0.7)
        psi = sf.hopf(sf.perturb(blob_field(g), 0.3, 5))
        assert psi.dtype == np.complex128 and np.abs(psi.imag).max() > 0
        ref = ref_stencil(psi, g.hx, g.hy)[:2] + (ref_laplacian(psi, g.hx, g.hy),)
        for got, want in zip(_grad_arrays(psi, g.hx, g.hy) + (_laplacian(psi, g.hx, g.hy),), ref):
            assert got.dtype == np.complex128
            assert np.array_equal(got, want)


class TestReorderedSums:
    @pytest.mark.parametrize("kind", ["gradient", "landau_lifshitz"])
    @pytest.mark.parametrize("spec,nsteps", [((24, 20, 1.3, 0.7), 30),
                                             ((128, 128, 1.0, 1.0), 5)],
                             ids=["24x20", "128x128"])
    def test_ledger_sums_and_states(self, kind, spec, nsteps):
        g = sf.make_grid(*spec)
        c = cosine_coupling(g)
        u0 = sf.perturb(blob_field(g), 0.3, 5)
        dt = sf.cfl_dt(g, c, 0.5)
        cfg = sf.FlowConfig(flow_kind=kind, dt_policy="fixed", dt=dt,
                            t_end=(nsteps - 0.5) * dt, stationarity_tol=0.0)
        out = sf.evolve(u0, c, cfg)
        assert out.state.step == nsteps
        u_ref, v_sq, ps = ref_euler(node_major(u0.values), c, dt, kind, nsteps)
        assert np.array_equal(out.state.field.values, component_major(u_ref))
        rows = out.ledger.rows
        assert len(rows) == nsteps + 1
        for row, want_v, want_ps in zip(rows, v_sq, ps):
            assert row.v_norm_sq == pytest.approx(want_v, rel=SUM_RTOL, abs=0.0)
            assert row.ps_norm == pytest.approx(want_ps, rel=SUM_RTOL, abs=0.0)

    def test_relax_history_and_result(self):
        g = sf.make_grid(24, 20, 1.3, 0.7)
        c = cosine_coupling(g)
        u0 = sf.perturb(blob_field(g), 0.3, 5)
        res = sf.relax(u0, c, tol=1e-30, max_steps=40)
        assert res.steps == 40 and not res.converged
        dt = sf.cfl_dt(g, c, DEFAULT_SAFETY)
        _, _, ps = ref_euler(node_major(u0.values), c, dt, "gradient", 40)
        assert len(res.history) == len(ps)
        for got, want in zip(res.history, ps):
            assert got == pytest.approx(want, rel=SUM_RTOL, abs=0.0)
        # the returned best iterate is one of the reference states
        best = int(np.argmin(ps))
        u_best = ref_euler(node_major(u0.values), c, dt, "gradient", best)[0]
        assert np.array_equal(res.field.values, component_major(u_best))
