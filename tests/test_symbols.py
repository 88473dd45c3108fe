"""Homogeneous symbols, duals, the canonical map and the structure set."""

import numpy as np
import pytest

from slab import grid as gr
from slab import quantize as qu
from slab import symbols as sy
from slab.errors import SlabError


EUCLID = sy.make_pair("euclidean")
ELLIPSE = sy.closed_form_dual(sy.quadratic_form(np.diag([1.0, 0.5])))
OBLIQUE = sy.closed_form_dual(sy.quadratic_form(
    [[0.96, 0.196], [-0.28, 0.672]]))

# reference difference steps, relative to |xi|: the library's derivatives
# are closed forms, checked against these quotients
FD_STEP = 1e-5          # of the difference Hessian
JACOBIAN_STEP = 1e-6    # and of the difference psi'


def _central_jacobian(fn, xi, step):
    """Jacobian of fn at the points xi by central differences with relative
    step ``step * |xi|``: rows index the output component, columns the
    differentiation direction."""
    h = step * np.linalg.norm(xi, axis=-1, keepdims=True)
    return np.stack([(fn(xi + h * e) - fn(xi - h * e)) / (2.0 * h)
                     for e in np.eye(2)], axis=-1)


def difference_hessian(grad):
    """The symmetrized central-difference Jacobian of grad at FD_STEP."""
    def hess(xi):
        J = _central_jacobian(grad, xi, FD_STEP)
        return 0.5 * (J + np.swapaxes(J, -1, -2))
    return hess


def sample_xi(count, seed=0):
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=(count, 2))
    xi = xi[np.linalg.norm(xi, axis=-1) > 1e-3]
    scales = np.exp(rng.uniform(-1.0, 1.0, size=xi.shape[0]))
    return xi * scales[:, None]


def all_symbols():
    return [sy.euclidean(), sy.quadratic_form(np.diag([1.0, 0.5])),
            sy.perturbed(0.05)]


@pytest.mark.parametrize("sym", all_symbols(), ids=lambda s: s.label)
def test_homogeneity_euler_radial_kernel(sym):
    xi = sample_xi(1000, seed=1)
    p = sym(xi)
    assert np.all(p > 0)
    for lam in (0.5, 2.0, 10.0):
        assert np.max(np.abs(sym(lam * xi) - lam * p) / (lam * p)) <= 1e-8
    g = sym.gradient(xi)
    euler = np.abs(np.sum(xi * g, axis=-1) - p) / p
    assert np.max(euler) <= 1e-8
    H = sym.hessian(xi)
    radial = np.linalg.norm(np.einsum("...i,...ij->...j", xi, H), axis=-1)
    scale = np.linalg.norm(H, axis=(-2, -1))
    assert np.max(radial / scale) <= 1e-5


@pytest.mark.parametrize("sym", all_symbols(), ids=lambda s: s.label)
def test_hessian_rank_deficiency_is_exactly_one(sym):
    xi = sample_xi(200, seed=2)
    H = sym.hessian(xi)
    svals = np.linalg.svd(H, compute_uv=False)
    # n=2: one positive direction, one kernel direction (radial)
    assert np.max(svals[:, 1] / svals[:, 0]) <= 1e-5
    assert np.min(svals[:, 0]) > 1e-4


def test_curvature_audit_circle():
    kmin, _, ok = sy.curvature_audit(sy.euclidean())
    assert ok
    assert kmin == pytest.approx(1.0, abs=1e-8)


def test_curvature_audit_ellipse():
    # level set of |xi A| with A=diag(1,1/2) is the ellipse with semi-axes
    # 1 and 2; minimum curvature a/b^2 = 1/4 sits at (+-1, 0)
    kmin, worst, ok = sy.curvature_audit(
        sy.quadratic_form(np.diag([1.0, 0.5])))
    assert ok
    assert kmin == pytest.approx(0.25, rel=1e-3)
    assert abs(worst[0]) == pytest.approx(1.0, abs=1e-2)
    assert abs(worst[1]) == pytest.approx(0.0, abs=0.15)


def test_curvature_audit_rejects_quartic():
    def value(xi):
        return (xi[..., 0]**4 + xi[..., 1]**4) ** 0.25

    def grad(xi):
        return xi**3 / value(xi)[..., None] ** 3

    quartic = sy.HomogeneousSymbol("quartic", value, grad,
                                   difference_hessian(grad))
    kmin, _, ok = sy.curvature_audit(quartic)
    assert not ok
    assert kmin < 1e-2


def test_curvature_audit_rejects_a_level_set_that_is_not_convex():
    # amp = 0.9 bends the level set inward near xi_1 < 0: the curvature
    # changes sign between samples, so min |K| alone would pass it
    sym = sy.perturbed(0.9)
    kmin, _, ok = sy.curvature_audit(sym)
    assert not ok
    assert kmin == pytest.approx(-0.8, abs=1e-3)
    assert np.min(np.abs(sy.gaussian_curvature(
        sym, sy.level_set_samples(sym)))) > sy.KAPPA_MIN
    with pytest.raises(SlabError, match="min K = -8.000e-01"):
        sy.make_dual(sym)


def test_closed_form_dual_matches_inverse_matrix():
    # the dual of |xi A| is |x A^{-T}|; |x A^{-1}| agrees with it only
    # for a normal A, such as a diagonal one, and not for criterion 04's
    # rotated form
    xi = sample_xi(1000, seed=3)
    rot = np.array([[0.96, 0.28], [-0.28, 0.96]])
    for A in (np.diag([1.0, 0.5]), rot @ np.diag([1.0, 0.7])):
        pair = sy.closed_form_dual(sy.quadratic_form(A))
        ref = np.linalg.norm(xi @ np.linalg.inv(A).T, axis=-1)
        assert np.max(np.abs(pair.dual(xi) - ref) / ref) <= 1e-12
        # p*(grad p) = 1: the primal's gradients lie on the dual unit set
        g = pair.primal.gradient(xi)
        assert np.max(np.abs(pair.dual(g) - 1.0)) <= 1e-12
        # the support-function solve, which knows nothing of A
        sup = sy.make_dual(pair.primal)
        assert np.max(np.abs(sup.dual(xi) - ref) / ref) <= 1e-12
    assert sy.closed_form_dual(sy.quadratic_form(np.diag([1.0, 0.5]))).dual(
        np.array([0.0, 1.0])) == pytest.approx(2.0)


def test_support_function_dual_matches_inverse_matrix():
    # optimizer-built dual against the closed form, the module's main oracle
    A = np.diag([1.0, 0.5])
    pair = sy.make_pair("quadratic-form:A=[[1.0,0.0],[0.0,0.5]]",
                        construction="support-function")
    assert pair.construction != "closed-form"
    xi = sample_xi(1000, seed=4)
    ref = sy.quadratic_form(np.linalg.inv(A))
    rel = np.abs(pair.dual(xi) - ref(xi)) / ref(xi)
    assert np.max(rel) <= 1e-6


@pytest.mark.parametrize("a", [0.5, 0.05])
def test_support_solve_matches_closed_form(a):
    # a = 0.05 crowds most maximizers near the sharp ends of the level
    # set, where f(theta) turns fastest
    A = np.diag([1.0, a])
    pair = sy.make_dual(sy.quadratic_form(A))
    assert pair.dual.metadata["construction"] == "support-function"
    ref = sy.quadratic_form(np.linalg.inv(A))
    x = sample_xi(1000, seed=17)
    assert np.max(np.abs(pair.dual(x) - ref(x)) / ref(x)) <= 1e-12
    err = np.linalg.norm(pair.dual.gradient(x) - ref.gradient(x), axis=-1)
    assert np.max(err) <= 1e-10


def test_support_solve_raises_instead_of_returning_bad_points(monkeypatch):
    x = sample_xi(50, seed=18)
    pair = sy.make_dual(sy.perturbed(0.05))
    # no Newton sweeps: the coarse seed's residual is far above the gate
    monkeypatch.setattr(sy, "_SUPPORT_ITERS", 0)
    with pytest.raises(SlabError, match="stationarity residual .* after the "
                                        "bracketed Newton solve"):
        pair.dual(x)
    monkeypatch.undo()
    # a non-finite gradient gives a non-finite residual
    pair.primal.grad = lambda xi: np.full(xi.shape, np.nan)
    with pytest.raises(SlabError, match="stationarity residual .* after the "
                                        "bracketed Newton solve"):
        pair.dual.gradient(x)


def test_support_dual_shares_one_solve_per_point_set(monkeypatch):
    pair = sy.make_dual(sy.perturbed(0.05))
    solve = sy._support_maximizer
    calls = []

    def counted(sym, x):
        calls.append(len(x))
        return solve(sym, x)

    monkeypatch.setattr(sy, "_support_maximizer", counted)
    x = sample_xi(40, seed=3)
    val, grad = pair.dual(x), pair.dual.gradient(x.copy())
    assert len(calls) == 1
    # both are read-only: a caller cannot change the kept solve
    with pytest.raises(ValueError):
        val[0] = 0.0
    with pytest.raises(ValueError):
        grad[0] = 0.0
    # other points, or the same bytes in another shape, solve again; the
    # memo keeps one entry
    assert np.array_equal(pair.dual.gradient(x[::-1].copy()), grad[::-1])
    assert pair.dual(x[:1]).shape == (1,) and pair.dual(x[0]).shape == ()
    assert np.array_equal(pair.dual(x), val)
    assert calls == [40, 40, 1, 1, 40]
    # geometry-audit's identities: p*(grad p) and grad p*(grad p) share
    # a solve, the psi round trip takes the other
    calls.clear()
    sy.geometry_identities(pair, sample_xi(30))
    assert len(calls) == 2


@pytest.mark.parametrize("amp", [0.05, -0.3])
def test_perturbed_hessian_matches_central_differences(amp):
    sym = sy.perturbed(amp)
    for xi in (sample_xi(200, seed=5), sy.level_set_samples(sym)):
        H = sym.hessian(xi)
        J = _central_jacobian(sym.grad, xi, FD_STEP)
        scale = np.linalg.norm(J, axis=(-2, -1))[:, None, None]
        assert np.max(np.abs(H - J) / scale) <= 1e-8


def test_support_dual_rejects_the_origin():
    # p*(x) = max x.sigma has no maximizer at x = 0, alone or in a batch
    pair = sy.make_dual(sy.perturbed(0.05))
    with pytest.raises(SlabError, match="no maximizer at x = 0"):
        pair.dual(np.zeros(2))
    with pytest.raises(SlabError, match="no maximizer at x = 0"):
        pair.dual.gradient(np.array([[1.0, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("pair", [EUCLID, ELLIPSE],
                         ids=["euclid", "ellipse"])
def test_dual_pair_invariants(pair):
    xi = sample_xi(1000, seed=5)
    p = pair.primal(xi)
    g = pair.primal.gradient(xi)
    assert np.max(np.abs(pair.dual(g) - 1.0)) <= 1e-6
    gd = pair.dual.gradient(g)
    assert np.max(np.linalg.norm(gd - xi / p[:, None], axis=-1)) <= 1e-5
    # dual of dual reproduces the primal
    back = sy.closed_form_dual(pair.dual).dual if \
        pair.construction == "closed-form" else None
    if back is not None:
        assert np.max(np.abs(back(xi) - p) / p) <= 1e-10


@pytest.mark.parametrize("pair", [EUCLID, ELLIPSE],
                         ids=["euclid", "ellipse"])
def test_psi_roundtrip_and_norms(pair):
    xi = sample_xi(500, seed=6)
    fwd = sy.psi(pair, xi)
    assert np.max(np.abs(np.linalg.norm(fwd, axis=-1) - pair.primal(xi))
                  / pair.primal(xi)) <= 1e-8
    inv = sy.psi_inv(pair, xi)
    assert np.max(np.abs(pair.primal(inv) - np.linalg.norm(xi, axis=-1))
                  / np.linalg.norm(xi, axis=-1)) <= 1e-8
    rt = sy.psi_inv(pair, fwd)
    rel = np.linalg.norm(rt - xi, axis=-1) / np.linalg.norm(xi, axis=-1)
    assert np.max(rel) <= 1e-8
    rt2 = sy.psi(pair, inv)
    rel2 = np.linalg.norm(rt2 - xi, axis=-1) / np.linalg.norm(xi, axis=-1)
    assert np.max(rel2) <= 1e-8


def test_psi_euclid_identity_and_ellipse_example():
    assert np.allclose(sy.psi(EUCLID, np.array([1.0, 2.0])), [1.0, 2.0])
    assert np.allclose(sy.psi(ELLIPSE, np.array([0.0, 1.0])), [0.0, 0.5],
                       atol=1e-12)
    assert np.allclose(sy.psi_inv(ELLIPSE, np.array([0.0, 0.5])),
                       [0.0, 1.0], atol=1e-10)
    with pytest.raises(SlabError, match="below the degeneracy floor"):
        sy.psi(EUCLID, np.zeros(2))


# every registry primal: euclidean, a diagonal and an oblique quadratic
# form (closed-form duals) and the perturbed p at +-amp (support duals)
PRIMAL_PAIRS = [EUCLID, ELLIPSE, OBLIQUE, sy.make_pair("perturbed:amp=0.05"),
                sy.make_pair("perturbed:amp=-0.05")]


def _label(pair):
    return pair.primal.label


def richardson_jacobian(fn, xi, step):
    """Fourth-order Richardson extrapolation of the central-difference
    Jacobians of fn at relative steps step and step / 2."""
    coarse = _central_jacobian(fn, xi, step)
    fine = _central_jacobian(fn, xi, 0.5 * step)
    return (4.0 * fine - coarse) / 3.0


@pytest.mark.parametrize("pair", PRIMAL_PAIRS, ids=_label)
def test_psi_jacobian_matches_richardson_differences(pair):
    def warp(eta):
        return sy.psi(pair, eta)

    for xi in (sample_xi(500, seed=19), sy.level_set_samples(pair.primal)):
        J = sy.psi_jacobian(pair, xi)
        ref = richardson_jacobian(warp, xi, 1e-3)
        size = np.linalg.norm(ref, axis=(-2, -1))
        assert np.max(np.linalg.norm(J - ref, axis=(-2, -1)) / size) <= 1e-10
        # the plain central difference at JACOBIAN_STEP carries its
        # truncation and roundoff error, about 3e-10 relative
        old = _central_jacobian(warp, xi, JACOBIAN_STEP)
        assert np.max(np.linalg.norm(J - old, axis=(-2, -1)) / size) <= 1e-8


def omega_through_the_dual(pair, x, xi):
    """Omega as x Hess p*(grad p) ^ p grad p, with the radial part of x
    projected out: the form that reads the dual's Hessian."""
    p = pair.primal(xi)
    g = pair.primal.gradient(xi)
    ghat = g / np.linalg.norm(g, axis=-1, keepdims=True)
    xperp = x - np.sum(x * ghat, axis=-1, keepdims=True) * ghat
    v = np.einsum("...i,...ij->...j", xperp, pair.dual.hessian(g))
    return p * (v[..., 0] * g[..., 1] - v[..., 1] * g[..., 0])


@pytest.mark.parametrize("pair", [EUCLID, ELLIPSE, OBLIQUE], ids=_label)
def test_omega_matches_the_dual_hessian_form(pair):
    xi = sample_xi(1000, seed=20)
    x = np.random.default_rng(20).normal(size=xi.shape) * 3.0
    err = np.abs(sy.omega(pair, x, xi) - omega_through_the_dual(pair, x, xi))
    scale = np.linalg.norm(x, axis=-1) * np.linalg.norm(xi, axis=-1)
    assert np.max(err / scale) <= 1e-13


@pytest.mark.parametrize("pair", PRIMAL_PAIRS, ids=_label)
def test_omega_phase_symbol_coefficients_are_omega_at_unit_x(pair):
    xi = sample_xi(300, seed=21)
    coeffs = sy.omega_phase_symbol(pair).xi_factors
    for coeff, e in zip(coeffs(xi), np.eye(2)):
        assert np.array_equal(coeff, sy.omega(pair, e, xi))
    assert np.array_equal(coeffs(np.zeros((1, 2))), np.zeros((2, 1)))


def test_omega_plan_and_commutator_run_no_support_solve(monkeypatch):
    # Omega reads p's curvature only, so a support dual is never solved
    pair = sy.make_pair("perturbed:amp=0.05")
    solve = sy._support_maximizer
    calls = []

    def counted(sym, x):
        calls.append(len(x))
        return solve(sym, x)

    monkeypatch.setattr(sy, "_support_maximizer", counted)
    g = gr.make_grid(32, 8.0)
    qu.SeparablePlan(sy.omega_phase_symbol(pair), g)
    f = gr.spectral_packets(g, (3.0, 0.0), 1.0)
    qu.commutator_residual(pair, lambda t: np.exp(-(t / 4.0) ** 2), f)
    assert calls == []


def test_omega_euclid_reduces_to_wedge():
    x = np.array([1.0, 0.0])
    xi = np.array([0.0, 1.0])
    assert sy.omega(EUCLID, x, xi) == pytest.approx(1.0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.normal(size=2)
        xi = rng.normal(size=2) * 3
        want = x[0] * xi[1] - x[1] * xi[0]
        assert sy.omega(EUCLID, x, xi) == pytest.approx(want, abs=1e-10)


@pytest.mark.parametrize("pair", [EUCLID, ELLIPSE],
                         ids=["euclid", "ellipse"])
def test_omega_vanishes_on_orbit(pair):
    rng = np.random.default_rng(8)
    for _ in range(50):
        xi = rng.normal(size=2) * 2
        lam = rng.uniform(-3, 3)
        x = lam * pair.primal.gradient(xi)
        assert np.max(np.abs(sy.omega(pair, x, xi))) <= 1e-10
    assert np.max(np.abs(sy.omega(pair, np.zeros(2),
                                  np.array([1.0, 1.0])))) == 0.0


def test_omega_linear_in_x_homogeneous_in_xi():
    rng = np.random.default_rng(9)
    x = rng.normal(size=2)
    xi = rng.normal(size=2)
    base = sy.omega(ELLIPSE, x, xi)
    assert np.allclose(sy.omega(ELLIPSE, 3.0 * x, xi), 3.0 * base)
    assert np.allclose(sy.omega(ELLIPSE, x, 2.0 * xi), 2.0 * base)


def test_structure_set_contrast():
    # on-orbit samples vanish to 1e-10, generic samples exceed 1e-3
    rng = np.random.default_rng(10)
    for pair in (EUCLID, ELLIPSE):
        on = off = 0.0
        for _ in range(1000):
            xi = rng.normal(size=2) * np.exp(rng.uniform(-1, 1))
            lam = rng.uniform(0.2, 3.0)
            x_on = lam * pair.primal.gradient(xi)
            res, member = sy.gamma_p_membership(pair, x_on, xi)
            assert member
            on = max(on, float(res))
            x_off = rng.normal(size=2)
            res_off, _ = sy.gamma_p_membership(pair, x_off, xi)
            off = min(off, float(res_off)) if off else float(res_off)
        assert on <= 1e-10
    # generic pairs are far from the orbit set on average; spot check one
    res, member = sy.gamma_p_membership(EUCLID, np.array([1.0, 0.0]),
                                        np.array([0.0, 1.0]))
    assert res == pytest.approx(1.0)
    assert not member


def test_membership_x_zero_convention():
    res, member = sy.gamma_p_membership(EUCLID, np.zeros(2),
                                        np.array([1.0, 0.0]))
    assert res == 0.0 and member


def test_basicrel_equivalence_both_directions():
    # Omega = 0 iff x is parallel to grad p, checked both ways
    rng = np.random.default_rng(11)
    for pair in (EUCLID, ELLIPSE):
        for _ in range(200):
            xi = rng.normal(size=2) * 2
            x = rng.normal(size=2)
            res, member = sy.gamma_p_membership(pair, x, xi)
            g = pair.primal.gradient(xi)
            sine = abs(x[0] * g[1] - x[1] * g[0]) / (
                np.linalg.norm(x) * np.linalg.norm(g))
            assert member == (sine <= 1e-7)


def test_tau_examples():
    tau = sy.tau_phase_symbol(EUCLID)
    assert tau(np.array([1.0, 0.0]),
               np.array([0.0, 1.0])) == pytest.approx(1.0)
    rng = np.random.default_rng(12)
    for pair in (EUCLID, ELLIPSE):
        xi = rng.normal(size=2)
        x = 1.7 * pair.primal.gradient(xi)
        assert abs(sy.tau_phase_symbol(pair)(x, xi)) <= 1e-12
    x = np.array([0.3, -1.2])
    xi = np.array([2.0, 0.7])
    assert tau(2 * x, 3 * xi) == pytest.approx(4 * 9 * tau(x, xi),
                                               rel=1e-10)


def test_structured_sigma_values_and_orders():
    sig = sy.structured_sigma(EUCLID)
    assert sig.orders == (-0.5, 0.5)
    x = np.array([1.0, 0.0])
    xi = np.array([0.0, 2.0])
    assert sig(x, xi) == pytest.approx(np.sqrt(2.0))
    assert sig(4 * x, xi) == pytest.approx(np.sqrt(2.0) / 2.0)
    # vanishes on the orbit set
    rng = np.random.default_rng(13)
    for _ in range(100):
        xi = rng.normal(size=2)
        x = rng.uniform(0.5, 2.0) * EUCLID.primal.gradient(xi)
        assert abs(sig(x, xi)) <= 1e-10


def test_structured_sigma_vanishing_normalized_samples():
    rng = np.random.default_rng(14)
    for pair in (EUCLID, ELLIPSE):
        sig = sy.structured_sigma(pair)
        tau = sy.tau_phase_symbol(pair)
        for _ in range(1000):
            xi = rng.normal(size=2)
            xi /= np.linalg.norm(xi)
            x = pair.primal.gradient(xi)
            x /= np.linalg.norm(x)
            assert abs(sig(x, xi)) <= 1e-10
            assert abs(tau(x, xi)) <= 1e-10


def test_tau_plan_halves_support_solves(monkeypatch):
    pair = sy.make_pair("perturbed:amp=0.05")
    solve = sy._support_maximizer
    calls = []

    def counted(sym, x):
        calls.append(len(x))
        return solve(sym, x)

    monkeypatch.setattr(sy, "_support_maximizer", counted)
    g = gr.make_grid(32, 8.0)
    plan = qu.SeparablePlan(sy.tau_phase_symbol(pair), g)
    # the three x-factors ask b at the same points: one solve
    assert len(calls) == 1
    # the x-factors against b = p*(x) grad p*(x) / |grad p*(x)| from the
    # dual's value and gradient
    X = g.coord_stack()
    gs = pair.dual.gradient(X)
    b = (pair.dual(X) / np.linalg.norm(gs, axis=-1))[..., None] * gs
    ref = [b[..., 0] ** 2, -2.0 * b[..., 0] * b[..., 1], b[..., 1] ** 2]
    for fx, r in zip(plan.x[..., :g.N], ref):
        assert np.max(np.abs(fx - r)) <= 1e-12 * np.max(np.abs(r))


def test_omega_phase_symbol_separable_terms_consistent():
    rng = np.random.default_rng(16)
    for pair in (EUCLID, ELLIPSE):
        om = sy.omega_phase_symbol(pair)
        x = rng.normal(size=(8, 2))
        xi = rng.normal(size=(8, 2)) * 2
        # the pointwise form against the factor stacks
        assert np.max(np.abs(sy.omega(pair, x, xi) - om(x, xi))) <= 1e-12
        # gradient direction contracts to zero against the coefficients
        g = pair.primal.gradient(xi)
        contr = sum(g[..., l] * om.xi_factors(xi)[l] for l in range(2))
        assert np.max(np.abs(contr)) <= 1e-12


def test_parse_symbol_registry():
    assert sy.parse_symbol("euclidean").label == "euclidean"
    q = sy.parse_symbol("quadratic-form:A=[[1.0,0.0],[0.0,0.5]]")
    assert q(np.array([0.0, 1.0])) == pytest.approx(0.5)
    pert = sy.parse_symbol("perturbed:amp=0.05")
    assert pert(np.array([1.0, 0.0])) > 0
    # p = |xi| (1 + amp cos^3) > 0 off the origin needs |amp| < 1
    for amp in ("1", "-1", "1e300", "nan", "inf"):
        with pytest.raises(ValueError, match="perturbed amp"):
            sy.parse_symbol(f"perturbed:amp={amp}")
    with pytest.raises(ValueError):
        sy.parse_symbol("no-such-symbol")
    with pytest.raises(ValueError):
        sy.parse_symbol("quadratic-form:A=[[1,2]]")
    # singular, or A A^T or the dual's A^{-T} A^{-1} is not finite
    for A in ("[[1,2],[2,4]]", "[[1,0],[0,0]]", "[[1,0],[0,1e-200]]",
              "[[1,0],[0,1e200]]", "[[1e300,0],[0,1]]"):
        with pytest.raises(ValueError, match="quadratic-form matrix"):
            sy.parse_symbol(f"quadratic-form:A={A}")


def test_parse_sigma_registry():
    assert sy.parse_sigma("structured", EUCLID).orders == (-0.5, 0.5)
    uns = sy.parse_sigma("unstructured-critical", EUCLID)
    assert uns.orders == (-0.5, 0.5)
    x = np.array([4.0, 0.0])
    xi = np.array([3.0, 0.0])
    # no angular factor: strictly positive off the axes too
    assert uns(x, xi) == pytest.approx(0.5 * np.sqrt(3.0))
    w = sy.parse_sigma("weighted:s=0.6", EUCLID)
    assert w(x, xi) > 0
    with pytest.raises(ValueError):
        sy.parse_sigma("bogus", EUCLID)

