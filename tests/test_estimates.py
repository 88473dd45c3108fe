"""Smoothing quotients, operator-norm sweeps, surface restriction, the
duality identity, and the weighted-convolution oracle."""

import os
import subprocess
import sys

import numpy as np
import pytest

from slab import estimates as es
from slab import evolve as ev
from slab import grid as gr
from slab import quantize as qu
from slab import symbols as sy
from slab.errors import (BandExceeded, ExponentViolation, InvalidRatio,
                         MassEscape, SlabError, ZeroRung)


EUCLID = sy.make_pair("euclidean")
ELLIPSE = sy.closed_form_dual(sy.quadratic_form(np.diag([1.0, 0.5])))


def zero_symbol():
    return sy.PhaseSpaceSymbol(
        "zero", (0.0, 0.0), lambda x, xi: np.zeros(x.shape[:-1]),
        terms=[(lambda x: np.zeros(x.shape[:-1]),
                lambda xi: np.zeros(xi.shape[:-1]))])


def annulus_multiplier_symbol(lo, lo1, hi1, hi):
    cut = gr.annular(lo, lo1, hi1, hi)
    return sy.PhaseSpaceSymbol(
        "annulus", (0.0, 0.0), lambda x, xi: cut(xi),
        terms=[(lambda x: np.ones(x.shape[:-1]), cut)])


def test_smoothing_ratio_zero_symbol():
    g = gr.make_grid(32, 8.0)
    rng = np.random.default_rng(0)
    phi = es.make_packet(g, rng)
    spec = ev.EvolutionSpec(EUCLID, order=2)
    rep = es.smoothing_ratio(zero_symbol(), spec, phi, T=1.0, dt=0.5,
                             monitor_radius=g.L, mass_tol=0.999)
    assert rep.ratio == 0.0


def test_smoothing_ratio_unimodular_annulus():
    # a pure frequency cutoff makes the integrand constant in t, so the
    # quotient is 2T times the spectral mass fraction under the cutoff
    g = gr.make_grid(64, 16.0)
    rng = np.random.default_rng(1)
    phi = es.make_packet(g, rng, freq_mag=0.9, spread=0.15)
    spec = ev.EvolutionSpec(EUCLID, order=2)
    sig = annulus_multiplier_symbol(0.3, 0.5, 1.3, 1.5)
    T = 2.0
    rep = es.smoothing_ratio(sig, spec, phi, T=T, dt=0.5,
                             monitor_radius=np.sqrt(2.0) * g.L,
                             mass_tol=0.999)
    cut = gr.annular(0.3, 0.5, 1.3, 1.5)
    phih = gr.transform(phi)
    frac = np.sum(np.abs(cut.on_freqs(g) * phih.values) ** 2) / \
        np.sum(np.abs(phih.values) ** 2)
    assert rep.ratio == pytest.approx(2.0 * T * frac, rel=1e-10)
    assert rep.tail == pytest.approx(1.0, rel=1e-10)


def test_smoothing_ratio_structured_monotone_window():
    g = gr.make_grid(128, 16.0)
    rng = np.random.default_rng(2)
    phi = es.make_packet(g, rng, freq_mag=0.9, spread=0.15)
    spec = ev.EvolutionSpec(EUCLID, order=1)
    sig = sy.structured_sigma(EUCLID)
    reps = [es.smoothing_ratio(sig, spec, phi, T=T, dt=0.5,
                               monitor_radius=np.sqrt(2.0) * g.L,
                               mass_tol=0.999)
            for T in (2.0, 8.0)]
    assert 0.0 < reps[0].ratio <= reps[1].ratio
    # dispersive data: window tail indicator decreases as T grows
    assert reps[1].tail < reps[0].tail


def test_smoothing_ratio_mass_escape():
    g = gr.make_grid(32, 4.0)
    rng = np.random.default_rng(3)
    phi = es.make_packet(g, rng, freq_mag=2.0, spread=0.3)
    spec = ev.EvolutionSpec(EUCLID, order=2)
    with pytest.raises(MassEscape):
        es.smoothing_ratio(zero_symbol(), spec, phi, T=8.0, dt=1.0,
                           monitor_radius=2.0, mass_tol=0.999)


def test_full_box_monitor_still_gates_mass_escape():
    # a monitor over the whole box holds fraction 1 exactly; a mass_tol
    # above 1 still trips the gate, with the same message
    g = gr.make_grid(16, 4.0)
    phi = es.make_packet(g, np.random.default_rng(0))
    spec = ev.EvolutionSpec(EUCLID, order=2)
    with pytest.raises(MassEscape, match=r"^containment 1\.00000 < 1\.5 at "
                                         r"t = -1\.000$"):
        es.smoothing_ratio(zero_symbol(), spec, phi, T=1.0, dt=0.5,
                           monitor_radius=np.sqrt(2.0) * g.L, mass_tol=1.5)


def _check_against_reference_loop(spec, sigma, phi, T, dt, radius):
    """smoothing_ratio against one propagation and one one-shot
    apply_pseudo per sample of the whole window [-T, T]; returns how many
    time samples smoothing_ratio propagated."""
    vals, mass, inscribed = [], [], []
    for t in -T + dt * np.arange(int(round(2.0 * T / dt)) + 1):
        u = ev.schrodinger_propagate(spec, phi, t)
        mass.append(gr.mass_fraction(u, radius))
        inscribed.append(gr.mass_fraction(u, phi.grid.L))
        vals.append(qu.apply_pseudo(u, sigma).norm() ** 2)
    ratio = (sum(vals) - 0.5 * (vals[0] + vals[-1])) * dt / phi.norm() ** 2
    samples, call = [], ev.PropagatorPhase.__call__

    def counted(self, times):
        samples.append(len(times))
        return call(self, times)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ev.PropagatorPhase, "__call__", counted)
        rep = es.smoothing_ratio(sigma, spec, phi, T, dt,
                                 monitor_radius=radius, mass_tol=0.0)
    assert rep.ratio == pytest.approx(ratio, rel=1e-12)
    assert rep.tail == pytest.approx(max(vals[0], vals[-1]) / max(vals),
                                     rel=1e-12)
    assert rep.mass_min == pytest.approx(min(mass), rel=1e-12)
    assert rep.mass_min_inscribed == pytest.approx(min(inscribed), rel=1e-12)
    return sum(samples)


@pytest.mark.parametrize("sigma,order", [
    (sy.structured_sigma(EUCLID), 1), (sy.unstructured_critical(), 2)])
def test_smoothing_ratio_matches_reference_loop(sigma, order):
    g = gr.make_grid(32, 8.0)
    phi = es.make_packet(g, np.random.default_rng(4), spread=0.3)
    spec = ev.EvolutionSpec(EUCLID, order=order)
    _check_against_reference_loop(spec, sigma, phi, 2.0, 0.25,
                                  np.sqrt(2.0) * g.L)


@pytest.mark.parametrize("p", ["euclidean",
                               "quadratic-form:A=[[1,0.3],[0.3,0.5]]",
                               "perturbed:amp=0.05"])
@pytest.mark.parametrize("name", ["structured", "unstructured-critical",
                                  "weighted:s=0.75", "tau"])
def test_folded_smoothing_window_matches_the_full_reference_loop(name, p):
    # make_packet's packets are their own conjugate reflections, so the
    # window runs t <= 0 only: 9 of the 17 samples, whether or not p is
    # even.  tau's x-factors come from the dual symbol, which is not even
    # for the perturbed p, so that case takes the full window.  A
    # monitor radius inside the box makes the mask part of the check.
    pair = sy.make_pair(p)
    g = gr.make_grid(32, 8.0)
    phi = es.make_packet(g, np.random.default_rng(7), spread=0.3)
    spec = ev.EvolutionSpec(pair, order=2)
    samples = _check_against_reference_loop(
        spec, sy.parse_sigma(name, pair), phi, 2.0, 0.25, 0.75 * g.L)
    assert samples == (17 if (name, p) == ("tau", "perturbed:amp=0.05")
                       else 9)


@pytest.mark.parametrize("shift,T,samples", [
    ((0, 0), 1.25, 3),      # 6 samples, none at t = 0: 3 run
    ((3, -2), 2.0, 9),      # a translated packet is not its reflection:
                            # all 9 samples run
])
def test_smoothing_window_fold_edges(shift, T, samples):
    g = gr.make_grid(32, 8.0)
    phi = es.make_packet(g, np.random.default_rng(8), spread=0.3)
    phi = gr.Field(g, np.roll(phi.values, shift, axis=(0, 1)), "x")
    spec = ev.EvolutionSpec(EUCLID, order=2)
    assert _check_against_reference_loop(
        spec, sy.structured_sigma(EUCLID), phi, T, 0.5, 0.75 * g.L) == samples


def test_smoothing_ratio_rejects_a_step_that_does_not_divide_2T():
    g = gr.make_grid(16, 4.0)
    phi = es.make_packet(g, np.random.default_rng(0))
    spec = ev.EvolutionSpec(EUCLID, order=2)
    with pytest.raises(ValueError, match="does not divide"):
        es.smoothing_ratio(zero_symbol(), spec, phi, T=1.0, dt=0.3,
                           monitor_radius=g.L, mass_tol=0.999)


@pytest.mark.parametrize("stack_bytes", [1, 2 * 16 * 32 * 32, 1 << 30])
def test_smoothing_chunks_match_one_stack(monkeypatch, stack_bytes):
    # chunks of one field, of two fields (a time sample's three trials
    # split across chunks) and of all of a sample's trials give the same
    # bits
    ladder = [(32, 8.0, 2.0), (32, 16.0, 4.0)]
    kw = dict(trials=3, seed=5, dt=0.5, order=1, freq_mag=0.9, spread=0.3,
              monitor_scale=np.sqrt(2.0), mass_tol=0.0)
    sig = sy.structured_sigma(EUCLID)
    monkeypatch.setattr(es, "_STACK_BYTES", 1 << 40)
    ref = es.smoothing_sweep(sig, EUCLID, ladder, **kw)
    monkeypatch.setattr(es, "_STACK_BYTES", stack_bytes)
    res = es.smoothing_sweep(sig, EUCLID, ladder, **kw)
    assert res.rows == ref.rows


def test_smoothing_sweep_matches_per_packet_ratios():
    # a rung's stack gives each packet's one-packet smoothing_ratio
    g = gr.make_grid(32, 8.0)
    sig = sy.unstructured_critical()
    res = es.smoothing_sweep(sig, EUCLID, [(32, 8.0, 2.0), (32, 8.0, 3.0)],
                             trials=3, seed=2, dt=0.5, order=2,
                             freq_mag=0.9, spread=0.3, monitor_scale=1.0,
                             mass_tol=0.0)
    rung = np.random.SeedSequence(2).spawn(2)[0]
    spec = ev.EvolutionSpec(EUCLID, order=2, T=2.0, dt=0.5)
    best = max(es.smoothing_ratio(
        sig, spec, es.make_packet(g, np.random.default_rng(cs), 0.9, 0.3),
        2.0, 0.5, monitor_radius=g.L, mass_tol=0.0).ratio
        for cs in rung.spawn(3))
    assert res.ratios()[0] == best


def test_smoothing_reports_match_across_chunks_for_an_oblique_symbol():
    # the gathered phase stack gives the same bits one field at a time and
    # in default chunks, on a lattice without the axis-swap symmetry
    pair = sy.make_pair("quadratic-form:A=[[1,0.3],[0.3,0.5]]")
    g = gr.make_grid(32, 8.0)
    spec = ev.EvolutionSpec(pair, order=2, T=2.0, dt=0.25)
    rng = np.random.default_rng(4)
    phis = np.array([es.make_packet(g, rng, 0.9, 0.3).values
                     for _ in range(3)])
    plan = qu.SeparablePlan(sy.structured_sigma(pair), g)
    runs = []
    for stack_bytes in (16 * g.N ** 2, es._STACK_BYTES):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(es, "_STACK_BYTES", stack_bytes)
            runs.append(es._smoothing_reports(plan, spec, phis,
                                              monitor_radius=g.L,
                                              mass_tol=0.0))
    assert runs[0] == runs[1]


_BLAS_PROBE = """
import numpy as np
from slab import estimates as es, evolve as ev, grid as gr, symbols as sy
E = sy.make_pair("euclidean")
sm = es.smoothing_sweep(sy.structured_sigma(E), E,
                        [(128, 16.0, 1.0), (128, 32.0, 2.0)], trials=2,
                        seed=0, dt=0.5, order=1, freq_mag=0.9, spread=0.15,
                        monitor_scale=np.sqrt(2.0), mass_tol=0.999)
lap = es.lap_sweep(sy.structured_sigma(E), E, gr.make_grid(128, 32.0),
                   d=1.0, eps_list=[1.0, 0.25], trials=1, seed=0, order=2,
                   check_structure=True, iters=3, cell_quad=2)
print(repr(sm.ratios() + lap.ratios()))
"""


def test_sweep_bits_do_not_depend_on_blas_threads():
    src = os.path.dirname(os.path.dirname(os.path.abspath(es.__file__)))
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        res = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env,
                             capture_output=True, text=True, timeout=300)
        assert res.returncode == 0, res.stderr
        out.append(res.stdout)
    assert out[0] == out[1]


def _power_norm_reference(ops, grid, iters, starts, seed):
    # operator_norm as one power iteration per start on Field-to-Field maps
    B, B_star = ops
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(starts):
        v = gr.Field(grid, rng.normal(size=grid.shape)
                     + 1j * rng.normal(size=grid.shape), "x")
        for _ in range(iters):
            nv = v.norm()
            w = B(v)
            est = w.norm() / nv
            z = B_star(w)
            v = gr.Field(grid, z.values / z.norm(), "x")
        best = max(best, est)
    return best


def test_lap_sweep_matches_reference_loop():
    g = gr.make_grid(32, 8.0)
    sig = sy.structured_sigma(EUCLID)
    eps_list = [1.0, 0.25, 0.0625]
    res = es.lap_sweep(sig, EUCLID, g, d=1.0, eps_list=eps_list, trials=2,
                       seed=3, order=2, check_structure=True, iters=8,
                       cell_quad=1)
    chi = gr.annular(2.0 * g.dxi, 4.0 * g.dxi, 0.6 * g.nyquist,
                     0.8 * g.nyquist)
    spec = ev.EvolutionSpec(EUCLID, order=2)

    def sandwich(m):
        return lambda u: qu.apply_pseudo(
            qu.apply_multiplier(qu.apply_pseudo_adjoint(u, sig), m), sig)

    for k, eps in enumerate(eps_list):
        mult = next(ev.ResolventGeometry(spec, g).ladder(1.0, [eps], chi))
        ref = _power_norm_reference((sandwich(mult), sandwich(np.conj(mult))),
                                    g, iters=8, starts=2, seed=3 + k)
        assert res.ratios()[k] == pytest.approx(ref, rel=1e-12)


def test_lap_sweep_zero_rung_names_eps():
    g = gr.make_grid(16, 4.0)
    with pytest.raises(ZeroRung, match="eps = 0.5"):
        es.lap_sweep(zero_symbol(), EUCLID, g, d=1.0, eps_list=[0.5, 0.25],
                     trials=1, seed=0, order=2, check_structure=True,
                     iters=2, cell_quad=1)


def test_lap_sweep_rejects_a_non_positive_eps():
    g = gr.make_grid(16, 4.0)
    with pytest.raises(ValueError, match="eps must be positive"):
        es.lap_sweep(sy.structured_sigma(EUCLID), EUCLID, g, d=1.0,
                     eps_list=[0.5, 0.0], trials=1, seed=0, order=2,
                     check_structure=True, iters=2, cell_quad=1)


def test_verdict_rules():
    assert es.verdict([1.0, 1.04, 1.05]) == "bounded"
    assert es.verdict([1.0, 1.3, 1.7]) == "growing"
    assert es.verdict([1.0, 1.18, 1.35]) == "inconclusive"


def test_operator_norm_on_known_multiplier():
    g = gr.make_grid(32, 8.0)
    mvals = np.exp(-g.freq_radius() ** 2 / 4.0)
    B = lambda vs: np.array([qu.apply_multiplier(gr.Field(g, v, "x"),
                                                 mvals).values for v in vs])
    est = es.operator_norm((B, B), g, iters=30, starts=4, seed=0)
    assert est == pytest.approx(np.max(mvals), rel=1e-3)


def test_surface_norm_reference_quadrature():
    # Gaussian transform restricted to the circle of radius rho; compare
    # the low-discrepancy surface rule against a dense reference
    g = gr.make_grid(128, 16.0)
    r2 = np.sum(g.coord_stack() ** 2, axis=-1)
    f = gr.Field(g, np.exp(-r2 / 2.0) + 0j, "x")
    rho = 1.5
    val = es.surface_norm(lambda pts: gr.eval_offgrid(f, pts), EUCLID, rho)
    # closed form: fhat = 2 pi e^{-|xi|^2/2}; with measure rho dtheta the
    # squared norm is rho * 2 pi * (2 pi e^{-rho^2/2})^2
    ref = np.sqrt(rho * 2 * np.pi) * 2 * np.pi * np.exp(-rho**2 / 2.0)
    assert val == pytest.approx(ref, rel=1e-4)


def test_surface_norm_band_guard():
    g = gr.make_grid(32, 8.0)
    f = gr.Field(g, np.ones(g.shape, complex), "x")
    with pytest.raises(BandExceeded):
        es.restriction_norm(qu.SeparablePlan(
            annulus_multiplier_symbol(0.3, 0.5, 1.3, 1.5), g), EUCLID, f,
            rho=100.0)


def test_restriction_disjoint_support_floor():
    g = gr.make_grid(64, 16.0)
    rng = np.random.default_rng(4)
    # spectrum near |xi| = 0.5, surface at rho = 4; both the packet and the
    # frequency window are Gaussian so the filtered field stays spatially
    # contained and the only leakage is the interpolation floor
    phi = es.make_packet(g, rng, freq_mag=0.5, spread=0.7)

    def window(xi):
        d2 = np.sum((np.asarray(xi) - np.array([0.5, 0.0]))**2, axis=-1)
        return np.exp(-d2 / (2 * 0.7**2))

    sig = sy.PhaseSpaceSymbol(
        "window", (0.0, 0.0), lambda x, xi: window(xi),
        terms=[(lambda x: np.ones(x.shape[:-1]), window)])
    val = es.restriction_norm(qu.SeparablePlan(sig, g), EUCLID, phi, rho=4.0)
    assert val <= 1e-8


# the resolvent / surface identity: reference code, reached by no CLI kind

_IDENTITY_ANGLES = 256


def _unit_nodes(pair, n_angles):
    """omega / p(omega), the angular weights and p(omega) at n_angles
    equally spaced angles: es.surface_nodes at rho = 1, any angle count."""
    theta = 2.0 * np.pi * np.arange(n_angles) / n_angles
    omega = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    p_om = pair.primal(omega)
    w = np.full(n_angles, 2.0 * np.pi / n_angles)
    return omega / p_om[:, None], w, p_om


def resolvent_im_identity(pair, f, rho, eps, n_angles=_IDENTITY_ANGLES):
    """Im((L_p - rho^2 - i eps)^{-1} f, f) by Lorentzian-adapted polar
    quadrature, 129 radial nodes per angle, with trigonometric
    interpolation of fhat, L_p = p(D)^2.

    Substituting v = r^2 p(omega)^2 - rho^2 and w = arctan(v / eps) turns
    the Lorentzian factor into the flat measure dw, so the radial rule
    stays accurate uniformly as eps drops below the lattice spacing.
    """
    unit, w, p_om = _unit_nodes(pair, n_angles)
    # v runs from -rho^2 at r = 0 to its value at r = 0.95 nyquist
    w_lo = np.arctan(-rho**2 / eps)
    w_hi = np.arctan(((0.95 * f.grid.nyquist * p_om) ** 2 - rho**2) / eps)
    wgrid = np.linspace(np.full(n_angles, w_lo), w_hi, 129, axis=-1)
    v = eps * np.tan(wgrid)
    # roundoff in tan(arctan .) can push rho^2 + v barely negative
    pts = np.sqrt(np.maximum(rho**2 + v, 0.0))[..., None] * unit[:, None]
    vals = np.abs(gr.eval_offgrid(f, pts.reshape(-1, 2))) ** 2
    vals = vals.reshape(v.shape)
    dw = wgrid[:, 1] - wgrid[:, 0]
    integrand = vals / (2.0 * p_om[:, None] ** 2)
    per_angle = (np.sum(integrand, axis=1)
                 - 0.5 * (integrand[:, 0] + integrand[:, -1])) * dw * w
    return np.sum(per_angle) / (2.0 * np.pi) ** 2


def surface_identity_gap(pair, f, rho, eps):
    """Relative gap between the surface norm of fhat on rho Sigma_p and
    8 pi rho Im((L_p - rho^2 - i eps)^{-1} f, f).
    """
    im = resolvent_im_identity(pair, f, rho, eps)
    # es.surface_norm squared, at _IDENTITY_ANGLES angles
    unit, w, p_om = _unit_nodes(pair, _IDENTITY_ANGLES)
    vals = gr.eval_offgrid(f, rho * unit)
    lhs = rho * np.sum(w * np.abs(vals) ** 2 / p_om**2)
    rhs = 4.0 * (2.0 * np.pi) * rho * im
    return abs(lhs - rhs) / lhs


def test_resolvent_im_identity_converges():
    # the imaginary-part surface identity: the gap is O(eps) until the
    # radial quadrature floor takes over near 3e-3
    g = gr.make_grid(128, 16.0)
    rng = np.random.default_rng(5)
    phi = es.make_packet(g, rng, freq_mag=1.0, spread=0.2)
    gaps = [surface_identity_gap(EUCLID, phi, rho=1.0, eps=e)
            for e in (1e-1, 1e-2, 1e-3)]
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] < 1e-2


def _resolvent_im_per_angle(pair, f, rho, eps, n_angles, n_radial=129):
    # one eval_offgrid call per angle: the reference for the batched sweep
    g = f.grid
    theta = 2.0 * np.pi * np.arange(n_angles) / n_angles
    omega = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    p_om = pair.primal(omega)
    r_max = 0.95 * g.nyquist
    total = 0.0
    for a in range(n_angles):
        v_lo = -rho**2
        v_hi = (r_max * p_om[a]) ** 2 - rho**2
        w_lo, w_hi = np.arctan(v_lo / eps), np.arctan(v_hi / eps)
        wgrid = np.linspace(w_lo, w_hi, n_radial)
        v = eps * np.tan(wgrid)
        r = np.sqrt(np.maximum(rho**2 + v, 0.0)) / p_om[a]
        pts = r[:, None] * omega[a]
        vals = np.abs(gr.eval_offgrid(f, pts)) ** 2
        dw = wgrid[1] - wgrid[0]
        integrand = vals / (2.0 * p_om[a] ** 2)
        total += (np.sum(integrand) - 0.5 * (integrand[0] + integrand[-1])) \
            * dw * (2.0 * np.pi / n_angles)
    return total / (2.0 * np.pi) ** 2


@pytest.mark.parametrize("n_angles", [256, 75])
@pytest.mark.parametrize("eps", [1e-1, 1e-3])
def test_resolvent_im_identity_matches_per_angle_loop(eps, n_angles):
    g = gr.make_grid(64, 16.0)
    phi = es.make_packet(g, np.random.default_rng(5), freq_mag=1.0,
                         spread=0.2)
    ref = _resolvent_im_per_angle(ELLIPSE, phi, 1.0, eps, n_angles)
    val = resolvent_im_identity(ELLIPSE, phi, 1.0, eps, n_angles=n_angles)
    assert val == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_duality_check_small_defect():
    g = gr.make_grid(64, 8.0)
    sig = sy.structured_sigma(EUCLID)
    defect = es.duality_check(sig, EUCLID, g, T=4.0, n_times=33, trials=2,
                              seed=0, order=2)
    assert defect <= 1e-8


def test_duality_check_trivial_symbol():
    g = gr.make_grid(32, 8.0)
    one = sy.PhaseSpaceSymbol(
        "one", (0.0, 0.0), lambda x, xi: np.ones(x.shape[:-1]),
        terms=[(lambda x: np.ones(x.shape[:-1]),
                lambda xi: np.ones(xi.shape[:-1]))])
    defect = es.duality_check(one, EUCLID, g, T=2.0, n_times=33, trials=2,
                              seed=1, order=2)
    assert defect <= 1e-10


def test_hardy_littlewood_oracle():
    box = lambda y: np.where(np.abs(y) < 2.0, 1.0, 0.0)
    zero = lambda y: np.zeros_like(y)
    grid = dict(N=512, L=8.0)
    # no positive sample: the quotient is 0/0, not a passing 0
    with pytest.raises(InvalidRatio, match="0/0"):
        es.hardy_littlewood_oracle(0.25, 0.25, 0.5, zero, **grid)
    ratio = es.hardy_littlewood_oracle(0.25, 0.25, 0.5, box, **grid)
    # recorded fixture for the box bump at N=512, L=8
    assert ratio == pytest.approx(7.9694, abs=5e-3)
    with pytest.raises(ExponentViolation):
        es.hardy_littlewood_oracle(0.5, 0.25, 0.25, box, **grid)
    # admissible exponents in the plane, but the oracle is on the line
    with pytest.raises(ExponentViolation):
        es.hardy_littlewood_oracle(0.5, 0.5, 1.0, box, **grid)


def test_sweep_result_csv_layout():
    res = es.SweepResult("structured", "euclidean")
    res.add(64, 8.0, 4.0, None, 1.25, True, 7)
    res.add(128, 16.0, 8.0, 0.5, 2.5, False, 7)
    csv = res.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "symbol,p,N,L,T,eps,ratio,mass_ok,seed"
    assert lines[1].startswith("structured,euclidean,64,")
    assert len(lines) == 3
    # byte-stable float formatting
    assert res.to_csv() == csv


@pytest.mark.parametrize("ratio", [float("nan"), float("inf"),
                                   float("-inf"), -1.0])
def test_sweep_result_rejects_a_ratio_that_is_not_finite_and_non_negative(
        ratio):
    res = es.SweepResult("structured", "euclidean")
    with pytest.raises(InvalidRatio, match="finite and non-negative"):
        res.add(64, 8.0, 4.0, None, ratio, True, 7)
    assert issubclass(InvalidRatio, SlabError)
    assert res.rows == []


def test_make_packet_deterministic():
    g = gr.make_grid(32, 8.0)
    a = es.make_packet(g, np.random.default_rng(42))
    b = es.make_packet(g, np.random.default_rng(42))
    assert np.array_equal(a.values, b.values)
    assert a.norm() == pytest.approx(1.0, rel=1e-12)


def test_make_packet_is_its_own_conjugate_reflection():
    g = gr.make_grid(32, 8.0)
    for seed in range(3):
        phi = es.make_packet(g, np.random.default_rng(seed), 1.1, 0.3).values
        assert np.array_equal(phi, np.conj(g.reflect(phi)))
        theta = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
        ref = gr.spectral_packet(g, 1.1 * np.array([np.cos(theta),
                                                    np.sin(theta)]), 0.3)
        assert np.max(np.abs(phi - ref.values)) <= 1e-14 * np.max(
            np.abs(ref.values))


def test_smoothing_scaling_covariance():
    # parabolic rescaling x -> lambda x, t -> lambda^2 t leaves the
    # quotient invariant for exact orders (-1/2, 1/2) at m = 2
    sig = sy.structured_sigma(EUCLID)
    rng = np.random.default_rng(6)
    g1 = gr.make_grid(128, 16.0)
    phi1 = es.make_packet(g1, rng, freq_mag=1.0, spread=0.2)
    spec = ev.EvolutionSpec(EUCLID, order=2)
    rep1 = es.smoothing_ratio(sig, spec, phi1, T=4.0, dt=0.25,
                              monitor_radius=np.sqrt(2.0) * g1.L,
                              mass_tol=0.999)
    lam = 2.0
    g2 = gr.make_grid(128, lam * 16.0)
    phi2 = gr.Field(g2, gr.eval_field_offgrid(
        phi1, (g2.coord_stack() / lam).reshape(-1, 2)).reshape(g2.shape),
        "x")
    rep2 = es.smoothing_ratio(sig, spec, phi2, T=lam**2 * 4.0,
                              dt=lam**2 * 0.25,
                              monitor_radius=np.sqrt(2.0) * g2.L,
                              mass_tol=0.999)
    assert rep2.ratio == pytest.approx(rep1.ratio, rel=0.05)
