"""Homogeneous symbols, duals, the canonical map and the structure set."""

import numpy as np
import pytest

from slab import grid as gr
from slab import quantize as qu
from slab import symbols as sy
from slab.errors import OptimizerStall, ZeroFrequency, ZeroPosition


EUCLID = sy.make_pair("euclidean")
ELLIPSE = sy.closed_form_dual(sy.quadratic_form(np.diag([1.0, 0.5])))


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

    quartic = sy.HomogeneousSymbol(
        "quartic", value, lambda xi: xi**3 / value(xi)[..., None] ** 3)
    kmin, _, ok = sy.curvature_audit(quartic)
    assert not ok
    assert kmin < 1e-2


def test_closed_form_dual_matches_inverse_matrix():
    xi = sample_xi(1000, seed=3)
    A = np.diag([1.0, 0.5])
    pair = sy.closed_form_dual(sy.quadratic_form(A))
    ref = sy.quadratic_form(np.linalg.inv(A))
    assert np.max(np.abs(pair.dual(xi) - ref(xi)) / ref(xi)) <= 1e-12
    assert pair.dual(np.array([0.0, 1.0])) == pytest.approx(2.0)


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
    with pytest.raises(OptimizerStall):
        pair.dual(x)
    monkeypatch.undo()
    # a non-finite gradient gives a non-finite residual
    pair.primal.grad = lambda xi: np.full(xi.shape, np.nan)
    with pytest.raises(OptimizerStall):
        pair.dual.gradient(x)


def test_support_dual_rejects_the_origin():
    # p*(x) = max x.sigma has no maximizer at x = 0, alone or in a batch
    pair = sy.make_dual(sy.perturbed(0.05))
    with pytest.raises(ZeroPosition):
        pair.dual(np.zeros(2))
    with pytest.raises(ZeroPosition):
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
    with pytest.raises(ZeroFrequency):
        sy.psi(EUCLID, np.zeros(2))


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
    assert len(calls) <= 4
    # the x-factors against b = p*(x) grad p*(x) / |grad p*(x)| from two
    # separate solves for the value and the gradient
    X = g.coord_stack()
    gs = pair.dual.gradient(X)
    b = (pair.dual(X) / np.linalg.norm(gs, axis=-1))[..., None] * gs
    ref = [b[..., 0] ** 2, -2.0 * b[..., 0] * b[..., 1], b[..., 1] ** 2]
    for fx, r in zip(plan.x, ref):
        assert np.max(np.abs(fx - r)) <= 1e-12 * np.max(np.abs(r))


def test_omega_phase_symbol_separable_terms_consistent():
    rng = np.random.default_rng(16)
    for pair in (EUCLID, ELLIPSE):
        om = sy.omega_phase_symbol(pair)
        x = rng.normal(size=(8, 2))
        xi = rng.normal(size=(8, 2)) * 2
        direct = om(x, xi)
        from_terms = sum(fx(x) * fxi(xi) for fx, fxi in om.terms)
        assert np.max(np.abs(direct - from_terms)) <= 1e-12
        # gradient direction contracts to zero against the coefficients
        g = pair.primal.gradient(xi)
        contr = sum(g[..., l] * om.terms[l][1](xi) for l in range(2))
        assert np.max(np.abs(contr)) <= 1e-12


def test_parse_symbol_registry():
    assert sy.parse_symbol("euclidean").label == "euclidean"
    q = sy.parse_symbol("quadratic-form:A=[[1.0,0.0],[0.0,0.5]]")
    assert q(np.array([0.0, 1.0])) == pytest.approx(0.5)
    pert = sy.parse_symbol("perturbed:amp=0.05")
    assert pert(np.array([1.0, 0.0])) > 0
    with pytest.raises(ValueError):
        sy.parse_symbol("no-such-symbol")
    with pytest.raises(ValueError):
        sy.parse_symbol("quadratic-form:A=[[1,2]]")


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

