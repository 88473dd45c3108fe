"""Propagators and the regularized resolvent."""

import numpy as np
import pytest

from slab import evolve as ev
from slab import grid as gr
from slab import quantize as qu
from slab import symbols as sy
from slab.errors import LowFrequencyMass


EUCLID = sy.make_pair("euclidean")
ELLIPSE = sy.closed_form_dual(sy.quadratic_form(np.diag([1.0, 0.5])))


def random_field(g, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    return gr.Field(g, vals, "x")


def band_field(g, seed=0, lo=1.0, hi=4.0):
    f = random_field(g, seed)
    fh = gr.transform(f)
    r = g.freq_radius()
    fh = gr.Field(g, np.where((r > lo) & (r < hi), fh.values, 0.0), "xi")
    return gr.inverse_transform(fh)


def test_schrodinger_identity_at_t0():
    g = gr.make_grid(32, 8.0)
    f = random_field(g, 1)
    spec = ev.EvolutionSpec(EUCLID, order=2)
    out = ev.schrodinger_propagate(spec, f, 0.0)
    assert np.max(np.abs(out.values - f.values)) <= 1e-14 * f.norm()


@pytest.mark.parametrize("pair,order", [(EUCLID, 2), (ELLIPSE, 1),
                                        (ELLIPSE, 3)],
                         ids=["euclid-m2", "ellipse-m1", "ellipse-m3"])
def test_schrodinger_unitarity(pair, order):
    g = gr.make_grid(64, 8.0)
    f = random_field(g, 2)
    spec = ev.EvolutionSpec(pair, order=order)
    for t in (0.3, 1.7, -2.4):
        out = ev.schrodinger_propagate(spec, f, t)
        assert abs(out.norm() - f.norm()) <= 1e-12 * f.norm()


def test_schrodinger_gaussian_closed_form():
    g = gr.make_grid(128, 16.0)
    r2 = np.sum(g.coord_stack()**2, axis=-1)
    f = gr.Field(g, np.exp(-r2 / 2.0) + 0j, "x")
    spec = ev.EvolutionSpec(EUCLID, order=2)
    t = 0.4
    out = ev.schrodinger_propagate(spec, f, t)
    a = 1.0 + 2j * t
    ref = (1.0 / a) * np.exp(-r2 / (2.0 * a))
    assert np.max(np.abs(out.values - ref)) <= 1e-8


@pytest.mark.parametrize("pair,order", [(EUCLID, 2), (ELLIPSE, 2)],
                         ids=["euclid", "ellipse"])
def test_schrodinger_group_law(pair, order):
    g = gr.make_grid(64, 8.0)
    f = random_field(g, 3)
    spec = ev.EvolutionSpec(pair, order=order)
    one = ev.schrodinger_propagate(
        spec, ev.schrodinger_propagate(spec, f, 0.7), 1.1)
    two = ev.schrodinger_propagate(spec, f, 1.8)
    assert np.max(np.abs(one.values - two.values)) <= 1e-12 * f.norm()


def test_propagator_commutes_with_functions_of_p():
    g = gr.make_grid(64, 8.0)
    f = random_field(g, 4)
    spec = ev.EvolutionSpec(ELLIPSE, order=2)
    h_of_p = np.exp(-ev.symbol_lattice(ELLIPSE, g) ** 2 / 4.0)
    a = qu.apply_multiplier(ev.schrodinger_propagate(spec, f, 0.9), h_of_p)
    b = ev.schrodinger_propagate(spec, qu.apply_multiplier(f, h_of_p), 0.9)
    assert np.max(np.abs(a.values - b.values)) <= 1e-13 * f.norm()


def test_wave_initial_data_and_energy():
    g = gr.make_grid(64, 8.0)
    phi = band_field(g, 5)
    psi_v = band_field(g, 6)
    state = ev.WaveState(phi, psi_v)
    spec = ev.EvolutionSpec(EUCLID, order=1)
    w0 = ev.wave_state_at(spec, state, 0.0)[0]
    assert np.max(np.abs(w0.values - phi.values)) <= 1e-12 * phi.norm()
    e0 = ev.wave_energy(spec, state, 0.0)
    for t in (0.5, 2.0, 7.5):
        assert abs(ev.wave_energy(spec, state, t) - e0) <= 1e-10 * e0


def test_wave_second_difference_solves_equation():
    g = gr.make_grid(64, 8.0)
    state = ev.WaveState(band_field(g, 7), band_field(g, 8))
    spec = ev.EvolutionSpec(EUCLID, order=1)
    dt = 1e-3
    wm, w0, wp = (ev.wave_state_at(spec, state, t)[0]
                  for t in (1.0 - dt, 1.0, 1.0 + dt))
    acc = (wp.values - 2 * w0.values + wm.values) / dt**2
    lap = qu.apply_multiplier(
        w0, ev.symbol_lattice(EUCLID, g, power=2)).values
    resid = np.max(np.abs(acc + lap))
    assert resid <= 10.0 * dt**2 * np.max(np.abs(lap))


def test_wave_plane_mode_frequency():
    g = gr.make_grid(32, 8.0)
    k = np.array([3 * g.dxi, 4 * g.dxi])
    x = g.coord_stack()
    phi = gr.Field(g, np.exp(1j * x @ k), "x")
    zero = gr.Field(g, np.zeros(g.shape, complex), "x")
    state = ev.WaveState(phi, zero)
    spec = ev.EvolutionSpec(EUCLID, order=1)
    t = 0.77
    w = ev.wave_state_at(spec, state, t)[0]
    ref = np.cos(t * np.linalg.norm(k)) * phi.values
    assert np.max(np.abs(w.values - ref)) <= 1e-12


def test_wave_rejects_low_frequency_velocity():
    g = gr.make_grid(32, 8.0)
    phi = band_field(g, 9)
    dc = gr.Field(g, np.ones(g.shape, complex), "x")
    with pytest.raises(LowFrequencyMass):
        ev.WaveState(phi, dc)


def test_resolvent_negative_d_pointwise_formula():
    g = gr.make_grid(32, 8.0)
    chi = gr.annular(1.0, 1.5, 3.0, 3.5)
    spec = ev.EvolutionSpec(EUCLID, order=2)
    vals = next(ev.ResolventGeometry(spec, g).ladder(-2.0, [1.0], chi))
    pm = ev.symbol_lattice(EUCLID, g, 2)
    ref = chi.on_freqs(g) / (pm + 2.0 - 1j)
    assert np.max(np.abs(vals - ref)) <= 1e-14
    assert np.max(np.abs(vals)) <= 1.0 / 2.0


def test_resolvent_sign_flip_conjugates():
    # the + i eps side, which the LAP sweep's adjoint multiplies by, is the
    # conjugate of the - i eps rung
    g = gr.make_grid(32, 8.0)
    spec = ev.EvolutionSpec(EUCLID, order=2)
    chi = gr.annular(0.5, 1.0, 3.0, 3.5)
    minus = next(ev.ResolventGeometry(spec, g).ladder(1.0, [0.1], chi))
    pm = ev.symbol_lattice(EUCLID, g, 2)
    plus = chi.on_freqs(g) / (pm - 1.0 + 0.1j)
    assert np.max(np.abs(plus - np.conj(minus))) <= 1e-14


def test_resolvent_off_characteristic_limit():
    # chi supported away from {p^2 = d}: the eps -> 0 limit is the eps = 0
    # multiplier
    g = gr.make_grid(64, 8.0)
    spec = ev.EvolutionSpec(EUCLID, order=2)
    chi = gr.annular(2.0, 2.2, 2.8, 3.0)   # p in [2, 3], p^2 in [4, 9]
    d = 1.0
    pm = ev.symbol_lattice(EUCLID, g, 2)
    bare = chi.on_freqs(g) / (pm - d)
    vals = next(ev.ResolventGeometry(spec, g).ladder(d, [1e-10], chi))
    assert np.max(np.abs(vals - bare)) <= 1e-10


def test_cell_averaged_resolvent_matches_pointwise_off_resonance():
    # with eps well above the lattice spacing the cell average is a small
    # correction, not a different operator
    g = gr.make_grid(64, 8.0)
    spec = ev.EvolutionSpec(EUCLID, order=2)
    chi = gr.annular(0.5, 0.8, 2.5, 2.8)
    v1 = next(ev.ResolventGeometry(spec, g).ladder(1.0, [1.0], chi))
    v8 = next(ev.ResolventGeometry(spec, g, 8).ladder(1.0, [1.0], chi))
    denom = np.max(np.abs(v1))
    assert np.max(np.abs(v1 - v8)) <= 0.1 * denom


@pytest.mark.parametrize("eps", [0.0, -0.25, float("nan")])
def test_resolvent_ladder_rejects_a_non_positive_eps(eps):
    g = gr.make_grid(16, 4.0)
    spec = ev.EvolutionSpec(EUCLID, order=2)
    geometry = ev.ResolventGeometry(spec, g)
    with pytest.raises(ValueError, match="eps must be positive"):
        next(geometry.ladder(1.0, [0.5, eps]))
    with pytest.raises(ValueError, match="eps must be positive"):
        ev.resolvent_multiplier(spec, g, d=1.0, eps=eps)


def _cell_averaged_reference(spec, grid, d, eps, s, q):
    # the per-rung formula that builds the geometry inside every call
    nodes, weights = np.polynomial.legendre.leggauss(q)
    nodes = 0.5 * grid.dxi * nodes
    weights = 0.5 * weights
    h = grid.dxi
    m = spec.order
    p = spec.pair.primal
    xi = grid.freq_stack()
    r = np.linalg.norm(xi, axis=-1)
    safe = np.where((r > 0)[..., None], xi, 1.0)
    axis = np.argmax(np.abs(p.gradient(safe)), axis=-1)
    z0 = -d + 1j * s * eps
    acc = np.zeros(grid.shape, dtype=complex)
    for j in (0, 1):
        mask = axis == j
        if not np.any(mask):
            continue
        pts = xi[mask]
        cell = np.zeros(pts.shape[0], dtype=complex)
        for node, w in zip(nodes, weights):
            shift = np.zeros(2)
            shift[1 - j] = node
            line = pts + shift
            lr = np.linalg.norm(line, axis=-1)
            lsafe = np.where((lr > 0)[..., None], line, 1.0)
            pv = np.where(lr > 0, p(lsafe), 1.0)
            b = m * pv ** (m - 1) * p.gradient(lsafe)[..., j]
            p0 = np.where(lr > 0, pv ** m, 0.0) + z0
            bh = 0.5 * b * h
            flat = np.abs(bh) < 1e-12 * np.abs(p0)
            num = np.where(flat, 1.0, p0 + bh)
            den = np.where(flat, 1.0, p0 - bh)
            with np.errstate(divide="ignore", invalid="ignore"):
                seg = np.where(flat, 1.0 / p0, np.log(num / den) / (b * h))
            cell += w * seg
        acc[mask] = cell
    return acc


def _resolvent_reference(spec, grid, d, eps, sign, chi, cell_quad):
    s = -1.0 if sign == "-" else 1.0
    if cell_quad > 1:
        vals = _cell_averaged_reference(spec, grid, d, eps, s, cell_quad)
    else:
        pm = ev.symbol_lattice(spec.pair, grid, spec.order)
        vals = 1.0 / (pm - d + 1j * s * eps)
    return vals * chi.on_freqs(grid)


@pytest.mark.parametrize("cell_quad", [1, 8])
@pytest.mark.parametrize("sign", ["-", "+"])
def test_resolvent_geometry_is_bit_identical_per_rung(cell_quad, sign):
    # one eps-independent geometry serves every rung of a ladder and gives
    # each rung the bits of the formula evaluated for that eps alone; the
    # + i eps side is the rung's conjugate, value for value
    g = gr.make_grid(32, 8.0)
    spec = ev.EvolutionSpec(ELLIPSE, order=2)
    chi = gr.annular(2.0 * g.dxi, 4.0 * g.dxi, 0.6 * g.nyquist,
                     0.8 * g.nyquist)
    geometry = ev.ResolventGeometry(spec, g, cell_quad)
    eps_list = [1.0, 2.0 ** -6, 2.0 ** -12]
    refs = [_resolvent_reference(spec, g, 1.0, eps, sign, chi, cell_quad)
            for eps in eps_list]
    side = np.conj if sign == "+" else np.asarray
    ladder = [side(rung) for rung in geometry.ladder(1.0, eps_list, chi)]
    assert len(ladder) == len(eps_list)
    for rung, ref in zip(ladder, refs):
        assert np.array_equal(rung, ref)
    if cell_quad == 1:
        for eps, ref in zip(eps_list, refs):
            assert np.array_equal(side(ev.resolvent_multiplier(
                spec, g, 1.0, eps)) * chi.on_freqs(g), ref)


@pytest.mark.parametrize("sign", ["-", "+"])
def test_cell_averaged_ladder_on_the_euclidean_lattice_is_bit_identical(
        sign):
    # the euclidean lattice repeats its (p^m, b h / 2) pairs, so this is
    # where evaluating the formula once per distinct pair merges points;
    # the + i eps side is the rung's conjugate, value for value
    g = gr.make_grid(64, 16.0)
    spec = ev.EvolutionSpec(EUCLID, order=2)
    chi = gr.annular(2.0 * g.dxi, 4.0 * g.dxi, 0.6 * g.nyquist,
                     0.8 * g.nyquist)
    geometry = ev.ResolventGeometry(spec, g, 8)
    assert geometry.pm.size < 8 * g.N ** 2
    eps_list = [1.0, 2.0 ** -6, 2.0 ** -12]
    for eps, rung in zip(eps_list, geometry.ladder(1.0, eps_list, chi)):
        ref = _resolvent_reference(spec, g, 1.0, eps, sign, chi, 8)
        if sign == "-":
            assert rung.tobytes() == ref.tobytes()
        else:
            assert np.array_equal(np.conj(rung), ref)


@pytest.mark.parametrize("label", ["euclidean",
                                   "quadratic-form:A=[[1,0],[0,0.5]]",
                                   "perturbed:amp=0.05"])
@pytest.mark.parametrize("N", [32, 64])
@pytest.mark.parametrize("sign", ["-", "+"])
def test_propagator_phase_is_the_lattice_exponential_bit_for_bit(label, N,
                                                                 sign):
    # e^{-itP} bit for bit; e^{+itP}, which the duality check runs as the
    # phase at -t, value for value (a zero may change sign)
    pair = sy.make_pair(label)
    g = gr.make_grid(N, 8.0)
    spec = ev.EvolutionSpec(pair, order=2)
    P = ev.symbol_lattice(pair, g, 2)
    s = -1.0 if sign == "-" else 1.0
    times = np.array([-3.0, -0.25, 0.0, 0.7, 2.5])
    stack = ev.PropagatorPhase(spec, g)(times if sign == "-" else -times)
    assert stack.shape == (len(times), N, N)
    assert stack.flags.c_contiguous
    for t, e in zip(times, stack):
        ref = np.exp(t * 1j * s * P)
        if sign == "-":
            assert e.tobytes() == ref.tobytes()
        else:
            assert np.array_equal(e, ref)


def test_times_reject_a_step_that_does_not_divide_2T():
    # round(2T/dt) steps would silently move the window's end: T = 1,
    # dt = 0.3 would integrate up to t = 1.1
    with pytest.raises(ValueError, match="does not divide"):
        ev.EvolutionSpec(EUCLID, T=1.0, dt=0.3).times()
    times = ev.EvolutionSpec(EUCLID, T=1.0, dt=0.2).times()
    assert len(times) == 11 and times[-1] == pytest.approx(1.0, abs=1e-15)


def test_epsilon_ladder_and_stabilization():
    lad = ev.epsilon_ladder(12)
    assert lad[0] == 1.0 and lad[-1] == 2.0**-12 and len(lad) == 13
    assert ev.stabilization_index([5, 3, 2, 1, 1, 1, 1], rel=0.01) == 3
    assert ev.stabilization_index([5, 4, 3, 2, 1], rel=0.01) is None

