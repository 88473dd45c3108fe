"""Operator quantization: multipliers, pseudo-differential application,
canonical transforms, amplitude classes and boundedness ratios."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slab import grid as gr
from slab import quantize as qu
from slab import symbols as sy
from slab.errors import (CutoffLeakage, NonFiniteMultiplier, NonFiniteSymbol,
                         StructureViolation)


EUCLID = sy.make_pair("euclidean")
ELLIPSE = sy.closed_form_dual(sy.quadratic_form(np.diag([1.0, 0.5])))


def packet(g, center, spread, carrier=None):
    x = g.coord_stack()
    c = np.asarray(center, dtype=float)
    vals = np.exp(-np.sum((x - c)**2, axis=-1) / (2 * spread**2)) + 0j
    if carrier is not None:
        vals = vals * np.exp(1j * x @ np.asarray(carrier, dtype=float))
    f = gr.Field(g, vals, "x")
    return gr.Field(g, f.values / f.norm(), "x")


def random_field(g, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    return gr.Field(g, vals, "x")


def test_multiplier_identity_and_unitarity():
    g = gr.make_grid(2, 32, 8.0)
    f = random_field(g, 1)
    out = qu.apply_multiplier(f, lambda xi: np.ones(xi.shape[:-1]))
    assert np.max(np.abs(out.values - f.values)) <= 1e-12
    phase = qu.apply_multiplier(
        f, lambda xi: np.exp(1j * np.sum(xi**2, axis=-1)))
    assert phase.norm() == pytest.approx(f.norm(), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 2), log_N=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_multiplier_adjointness_property(n, log_N, seed):
    # <M f, g> = <f, conj(M) g> for a random real symbol on the lattice
    g = gr.make_grid(n, 2**log_N, 4.0)
    m = np.random.default_rng(seed).normal(size=g.shape)
    f, h = random_field(g, seed), random_field(g, seed + 1)
    q = g.h ** g.n
    lhs = q * np.vdot(h.values, qu.apply_multiplier(f, m).values)
    rhs = q * np.vdot(qu.apply_multiplier(h, np.conj(m)).values, f.values)
    assert abs(lhs - rhs) <= 1e-12 * np.max(np.abs(m)) * f.norm() * h.norm()


def test_multiplier_free_schrodinger_gaussian():
    # closed form: e^{-it|D|^2} e^{-|x|^2/2} = (1+2it)^{-n/2}
    #              exp(-|x|^2/(2(1+4t^2)) (1 - 2it))
    g = gr.make_grid(2, 128, 16.0)
    f = packet_plain = gr.Field(
        g, np.exp(-np.sum(g.coord_stack()**2, axis=-1) / 2.0) + 0j, "x")
    t = 0.35
    out = qu.apply_multiplier(
        f, lambda xi: np.exp(-1j * t * np.sum(xi**2, axis=-1)))
    r2 = np.sum(g.coord_stack()**2, axis=-1)
    a = 1.0 + 2j * t
    ref = (1.0 / a) * np.exp(-r2 / (2.0 * a))
    assert np.max(np.abs(out.values - ref)) <= 1e-8


def test_multiplier_rejects_non_finite():
    g = gr.make_grid(2, 16, 4.0)
    f = random_field(g, 2)
    def bad(xi):
        with np.errstate(divide="ignore"):
            return 1.0 / np.sum(xi, axis=-1)

    with pytest.raises(NonFiniteMultiplier):
        qu.apply_multiplier(f, bad)


def test_pseudo_matches_multiplier_for_x_independent_symbol():
    g = gr.make_grid(2, 32, 8.0)
    f = random_field(g, 3)
    sig = sy.PhaseSpaceSymbol(
        "m", (0.0, 2.0), lambda x, xi: np.sum(xi**2, axis=-1) + 0.0 * x[..., 0],
        terms=[(lambda x: np.ones(x.shape[:-1]),
                lambda xi: np.sum(xi**2, axis=-1))])
    out = qu.apply_pseudo(f, sig)
    ref = qu.apply_multiplier(f, lambda xi: np.sum(xi**2, axis=-1))
    assert np.max(np.abs(out.values - ref.values)) <= 1e-12 * ref.norm()


def test_pseudo_factorized_oracle_x1_xi1():
    g = gr.make_grid(2, 64, 8.0)
    f = packet(g, (0.5, -0.3), 1.0, carrier=(2.0, 1.0))
    sig = sy.PhaseSpaceSymbol(
        "x1xi1", (1.0, 1.0), lambda x, xi: x[..., 0] * xi[..., 0],
        terms=[(lambda x: x[..., 0], lambda xi: xi[..., 0])])
    out = qu.apply_pseudo(f, sig)
    d1 = qu.apply_multiplier(f, lambda xi: xi[..., 0])
    ref = g.coord_stack()[..., 0] * d1.values
    assert np.max(np.abs(out.values - ref)) <= 1e-10


def test_pseudo_direct_method_agrees_with_separable():
    g = gr.make_grid(2, 16, 4.0)
    f = random_field(g, 4)
    sig = sy.PhaseSpaceSymbol(
        "x1xi1", (1.0, 1.0), lambda x, xi: x[..., 0] * xi[..., 0],
        terms=[(lambda x: x[..., 0], lambda xi: xi[..., 0])])
    sep = qu.apply_pseudo(f, sig, method="separable")
    direct = qu.apply_pseudo(f, sig, method="direct")
    assert np.max(np.abs(sep.values - direct.values)) <= 1e-10 * sep.norm()


def test_rotation_generator_annihilates_radial_fields():
    g = gr.make_grid(2, 64, 8.0)
    r2 = np.sum(g.coord_stack()**2, axis=-1)
    f = gr.Field(g, np.exp(-r2 / 2.0) + 0j, "x")
    om = sy.omega_phase_symbol(EUCLID, 0, 1)
    out = qu.apply_pseudo(f, om, low_freq=False)
    assert out.norm() <= 1e-8 * f.norm()


def test_rotation_generator_eigenrelation():
    # (x1 D2 - x2 D1) on a radial profile times e^{i k theta} returns
    # k times the field, up to box truncation
    g = gr.make_grid(2, 128, 12.0)
    x = g.coord_stack()
    r2 = np.sum(x**2, axis=-1)
    k = 3
    f = gr.Field(g, (x[..., 0] + 1j * x[..., 1])**k * np.exp(-r2 / 2.0),
                 "x")
    om = sy.omega_phase_symbol(EUCLID, 0, 1)
    out = qu.apply_pseudo(f, om, low_freq=False)
    assert np.max(np.abs(out.values - k * f.values)) <= 1e-6 * f.norm()


def test_adjoint_consistency():
    g = gr.make_grid(2, 32, 8.0)
    u = random_field(g, 5)
    v = random_field(g, 6)
    sig = sy.PhaseSpaceSymbol(
        "a", (1.0, 0.0), lambda x, xi: x[..., 1] * np.cos(xi[..., 0]),
        terms=[(lambda x: x[..., 1], lambda xi: np.cos(xi[..., 0]))])
    au = qu.apply_pseudo(u, sig)
    asv = qu.apply_pseudo_adjoint(v, sig)
    q = g.h ** g.n
    lhs = q * np.vdot(v.values, au.values)
    rhs = q * np.vdot(asv.values, u.values)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


SIGMAS = ["structured", "unstructured-critical", "weighted:s=0.75"]


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(SIGMAS), seed=st.integers(0, 2**32 - 1))
def test_plan_adjoint_pairing(name, seed):
    # <v, sigma u> = <sigma^* v, u> on random fields
    g = gr.make_grid(2, 16, 4.0)
    plan = qu.SeparablePlan(sy.parse_sigma(name, EUCLID), g)
    u, v = random_field(g, seed), random_field(g, seed + 1)
    su = plan.apply(gr.transform(u))
    sv = gr.inverse_transform(plan.adjoint(v))
    q = g.h ** g.n
    lhs = q * np.vdot(v.values, su.values)
    rhs = q * np.vdot(sv.values, u.values)
    assert abs(lhs - rhs) <= 1e-10 * v.norm() * su.norm()


@pytest.mark.parametrize("name", SIGMAS)
def test_plan_matches_direct_quadrature(name):
    g = gr.make_grid(2, 16, 4.0)
    sig = sy.parse_sigma(name, EUCLID)
    f = random_field(g, 7)
    plan = qu.SeparablePlan(sig, g).apply(gr.transform(f))
    direct = qu.apply_pseudo(f, sig, method="direct")
    assert np.max(np.abs(plan.values - direct.values)) <= 1e-10 * plan.norm()


def test_guard_rejects_non_finite_multiplier_off_origin():
    # the guard may only absorb non-finite values where it vanishes
    g = gr.make_grid(2, 32, 8.0)

    def ring_nan(xi):
        r = np.linalg.norm(xi, axis=-1)
        return np.where((r > 1.0) & (r < 1.3), np.nan, np.sqrt(r))

    sig = sy.PhaseSpaceSymbol(
        "ring-nan", (0.0, 0.5), lambda x, xi: ring_nan(xi),
        terms=[(lambda x: np.ones(x.shape[:-1]), ring_nan)])
    with pytest.raises(NonFiniteMultiplier):
        qu.apply_pseudo(random_field(g, 8), sig)
    with pytest.raises(NonFiniteMultiplier):
        qu.apply_pseudo_adjoint(random_field(g, 8), sig)
    with pytest.raises(NonFiniteSymbol):
        qu.apply_pseudo(random_field(g, 8), sig, method="direct")


def test_canonical_identity_for_euclid():
    g = gr.make_grid(2, 64, 16.0)
    # spectrum must sit where the cutoff is identically one
    f = packet(g, (0.0, 0.0), 2.5, carrier=(3.5, 0.0))
    plan = qu.CanonicalTransformPlan(EUCLID, gr.annular(0.5, 1.0, 6.0, 7.0))
    out = qu.apply_canonical(plan, f)
    assert np.max(np.abs(out.values - f.values)) <= 1e-10


def test_canonical_leakage_warning():
    g = gr.make_grid(2, 64, 16.0)
    # carrier sits on the cutoff transition band
    f = packet(g, (0.0, 0.0), 1.0, carrier=(6.5, 0.0))
    plan = qu.CanonicalTransformPlan(EUCLID, gr.annular(0.5, 1.0, 6.0, 7.0))
    with pytest.warns(CutoffLeakage):
        qu.apply_canonical(plan, f)


def test_change_of_vars_identity_and_rotation():
    g = gr.make_grid(2, 64, 8.0)
    f = packet(g, (2.0, 0.0), 0.7)
    gam = gr.radial_bump(5.0, 7.0)
    out = qu.apply_change_of_vars("identity", gam, f)
    ref = gam.on_coords(g) * f.values
    assert np.max(np.abs(out.values - ref)) <= 1e-10

    rot = qu.apply_change_of_vars("rotation:theta=1.5707963267948966",
                                  None, f)
    # rotation by pi/2 relocates the bump and preserves the norm
    assert rot.norm() == pytest.approx(f.norm(), rel=1e-8)
    x = g.coord_stack()
    peak = x.reshape(-1, 2)[np.argmax(np.abs(rot.values))]
    assert np.linalg.norm(np.abs(peak) - np.array([0.0, 2.0])) <= 2 * g.h


def test_class_audit_examples():
    def a_plain(x, y, xi):
        return (1.0 + np.sum(np.atleast_1d(x)**2, axis=-1)) ** 0.25

    ok, worst = qu.class_audit(a_plain, qu.AmplitudeClassSpec("A", m=0.5))
    assert ok

    def a_osc(x, y, xi):
        xn = np.sqrt(np.sum(np.atleast_1d(x)**2, axis=-1))
        return (1.0 + xn**2) ** 0.25 * np.sin(xn)

    # oscillation destroys the x-derivative gain: fails A and B, passes R
    ok_a, _ = qu.class_audit(a_osc, qu.AmplitudeClassSpec("A", m=0.5))
    ok_b, _ = qu.class_audit(a_osc, qu.AmplitudeClassSpec("B", m=0.5))
    ok_r, _ = qu.class_audit(a_osc, qu.AmplitudeClassSpec("R", m=0.5))
    assert not ok_a
    assert not ok_b
    assert ok_r


def test_class_audit_inclusion_ordering():
    # a passing A-audit implies passing B and R audits
    def a(x, y, xi):
        return (1.0 + np.sum(np.atleast_1d(x)**2, axis=-1)) ** 0.25 / \
            (1.0 + np.sum(np.atleast_1d(xi)**2, axis=-1)) ** 0.5

    spec = dict(m=0.5, k=-1.0)
    for fam in ("A", "B", "R"):
        ok, _ = qu.class_audit(a, qu.AmplitudeClassSpec(fam, **spec))
        assert ok


def test_separable_amplitude_identity_normalization():
    g = gr.make_grid(2, 32, 8.0)
    f = random_field(g, 7)
    one = qu.SeparableAmplitude("one", [(
        lambda x: np.ones(x.shape[:-1]),
        lambda y: np.ones(y.shape[:-1]),
        lambda xi: np.ones(xi.shape[:-1]))], m=0.0)
    out = qu.apply_amplitude(f, one)
    ref = (2 * np.pi) ** 2 * f.values
    assert np.max(np.abs(out.values - ref)) <= 1e-10 * np.max(np.abs(ref))


def test_fio_bound_ratio_flat_for_declared_order():
    g = gr.make_grid(2, 64, 16.0)
    f = packet(g, (0.0, 0.0), 1.2)
    amp = qu.SeparableAmplitude("xw", [(
        lambda x: np.sqrt(1.0 + np.sum(x**2, axis=-1)),
        lambda y: np.ones(y.shape[:-1]),
        lambda xi: 1.0 / (1.0 + np.sum(xi**2, axis=-1)))], m=1.0)
    ratios = qu.fio_bound_ratio(amp, f, carrier=(3.0, 0.0))
    assert max(ratios) / min(ratios) <= 3.0
    bad = qu.SeparableAmplitude("xw0", amp.terms, m=0.0)
    ratios_bad = qu.fio_bound_ratio(bad, f, carrier=(3.0, 0.0))
    assert max(ratios_bad) / min(ratios_bad) > 3.0


def test_basiclem_rejects_unstructured_symbol():
    g = gr.make_grid(2, 32, 8.0)
    f = packet(g, (0.5, 0.5), 1.0, carrier=(2.0, 0.0))
    uns = sy.unstructured_critical(2)
    with pytest.raises(StructureViolation):
        qu.basiclem_ratio(EUCLID, uns, 1.0, f)


def test_commutator_residual_small_and_control_large():
    g = gr.make_grid(2, 64, 16.0)
    f = packet(g, (0.5, -0.3), 1.8, carrier=(3.0, 0.0))
    h = lambda t: np.exp(-t**2 / 8.0)
    res = qu.commutator_residual(EUCLID, 0, 1, h, f)
    assert res <= 1e-7
    ctrl = qu.commutator_residual(
        EUCLID, 0, 1, h, f, multiplier=lambda xs: h(xs[..., 0]))
    assert ctrl >= 1e-2


def test_dilate_preserves_mass_normalization():
    g = gr.make_grid(2, 64, 16.0)
    f = packet(g, (0.0, 0.0), 1.0)
    d = qu.dilate(f, 2.0)
    # envelope widens; norm scales like lambda^{n/2} on the grid
    assert d.norm() == pytest.approx(2.0 * f.norm(), rel=1e-2)


def test_low_freq_guard_kills_origin():
    g = gr.make_grid(2, 32, 8.0)
    guard = qu.low_freq_guard(g)
    r = g.freq_radius()
    assert np.all(guard[r < g.dxi] == 0.0)
    assert np.allclose(guard[r > 4 * g.dxi], 1.0)


def _egorov_dual_case(N, value=None):
    # the egorov CLI run at its defaults: x-growth symbol of order 1,
    # fixed envelope recentred along (1.4, 0) on the carrier (4, 0)
    g = gr.make_grid(2, N, 16.0)
    gx = lambda xi: 1.0 / np.sqrt(1.0 + np.sum(xi * xi, axis=-1))
    xf = lambda x: np.sqrt(1.0 + np.sum(x * x, axis=-1))
    a = sy.PhaseSpaceSymbol("x-growth", (1.0, 0.0),
                            value=value or (lambda x, xi: xf(x) * gx(xi)),
                            terms=[(xf, gx)])
    plan = qu.CanonicalTransformPlan(ELLIPSE,
                                     gr.annular(0.4, 1.0, 9.0, 11.0))
    env = gr.spectral_packet(g, (0.0, 0.0), 0.8)
    return qu.egorov_residual(a, plan, 1.0, env, carrier=(4.0, 0.0),
                              center=(1.4, 0.0), spread=False)


def test_egorov_residual_matches_reference_ratios():
    # the egorov-dual reference ratios (perfbench/references.json, seed 0)
    ref = [0.5379865076266316, 0.5133250264144144, 0.508843552395739,
           0.5545560167326035]
    with pytest.warns(CutoffLeakage):
        ratios = _egorov_dual_case(32)
    assert np.allclose(ratios, ref, rtol=1e-10, atol=0.0)


def test_egorov_residual_rejects_non_finite_warped_symbol():
    def value(x, xi):
        return np.where(x[..., 0] > 3.0, np.nan, 1.0) * np.ones(xi.shape[:-1])

    with pytest.raises(NonFiniteSymbol):
        _egorov_dual_case(16, value)
