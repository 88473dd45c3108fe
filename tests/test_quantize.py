"""Operator quantization: multipliers, pseudo-differential application,
canonical transforms and boundedness ratios."""

import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slab import grid as gr
from slab import quantize as qu
from slab import symbols as sy
from slab.errors import CutoffLeakage, SlabError


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
    g = gr.make_grid(32, 8.0)
    f = random_field(g, 1)
    out = qu.apply_multiplier(f, lambda xi: np.ones(xi.shape[:-1]))
    assert np.max(np.abs(out.values - f.values)) <= 1e-12
    phase = qu.apply_multiplier(
        f, lambda xi: np.exp(1j * np.sum(xi**2, axis=-1)))
    assert phase.norm() == pytest.approx(f.norm(), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(log_N=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_multiplier_adjointness_property(log_N, seed):
    # <M f, g> = <f, conj(M) g> for a random real symbol on the lattice
    g = gr.make_grid(2**log_N, 4.0)
    m = np.random.default_rng(seed).normal(size=g.shape)
    f, h = random_field(g, seed), random_field(g, seed + 1)
    q = g.h ** 2
    lhs = q * np.vdot(h.values, qu.apply_multiplier(f, m).values)
    rhs = q * np.vdot(qu.apply_multiplier(h, np.conj(m)).values, f.values)
    assert abs(lhs - rhs) <= 1e-12 * np.max(np.abs(m)) * f.norm() * h.norm()


def test_multiplier_free_schrodinger_gaussian():
    # closed form: e^{-it|D|^2} e^{-|x|^2/2} = (1+2it)^{-n/2}
    #              exp(-|x|^2/(2(1+4t^2)) (1 - 2it))
    g = gr.make_grid(128, 16.0)
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
    g = gr.make_grid(16, 4.0)
    f = random_field(g, 2)
    def bad(xi):
        with np.errstate(divide="ignore"):
            return 1.0 / np.sum(xi, axis=-1)

    with pytest.raises(SlabError, match="multiplier non-finite on the "
                                        "lattice"):
        qu.apply_multiplier(f, bad)


def test_pseudo_matches_multiplier_for_x_independent_symbol():
    g = gr.make_grid(32, 8.0)
    f = random_field(g, 3)
    sig = sy.PhaseSpaceSymbol(
        "m", (0.0, 2.0), [(lambda x: np.ones(x.shape[:-1]),
                           lambda xi: np.sum(xi**2, axis=-1))])
    out = qu.apply_pseudo(f, sig)
    ref = qu.apply_multiplier(f, lambda xi: np.sum(xi**2, axis=-1))
    assert np.max(np.abs(out.values - ref.values)) <= 1e-12 * ref.norm()


def test_pseudo_factorized_oracle_x1_xi1():
    g = gr.make_grid(64, 8.0)
    f = packet(g, (0.5, -0.3), 1.0, carrier=(2.0, 1.0))
    sig = sy.PhaseSpaceSymbol(
        "x1xi1", (1.0, 1.0), [(lambda x: x[..., 0], lambda xi: xi[..., 0])])
    out = qu.apply_pseudo(f, sig)
    d1 = qu.apply_multiplier(f, lambda xi: xi[..., 0])
    ref = g.coord_stack()[..., 0] * d1.values
    assert np.max(np.abs(out.values - ref)) <= 1e-10


def test_pseudo_direct_method_agrees_with_separable():
    g = gr.make_grid(16, 4.0)
    f = random_field(g, 4)
    sig = sy.PhaseSpaceSymbol(
        "x1xi1", (1.0, 1.0), [(lambda x: x[..., 0], lambda xi: xi[..., 0])])
    sep = qu.apply_pseudo(f, sig, method="separable")
    direct = qu.apply_pseudo(f, sig, method="direct")
    assert np.max(np.abs(sep.values - direct.values)) <= 1e-10 * sep.norm()


@pytest.mark.parametrize("guard", [False, True])
@pytest.mark.parametrize("N", [8, 16])
def test_direct_quadrature_matches_literal_double_sum(N, guard):
    # sum_k e^{i x.xi_k} a(x, xi_k) u_hat_k with the phase exponentiated
    # per (x, xi) pair, over all modes, the guard applied to u_hat; a
    # fractional xi-order declares the symbol xi-singular, which is what
    # puts the guard on
    g = gr.make_grid(N, 4.0)
    f = random_field(g, 9)

    def value(x, xi):
        r = np.linalg.norm(xi, axis=-1)
        return (np.cos(x[..., 0]) * xi[..., -1] + np.sqrt(r)
                * np.exp(-np.sum(x * x, axis=-1) / 8.0))

    sig = sy.PhaseSpaceSymbol("mixed", (0.0, 0.5 if guard else 0.0), [
        (lambda x: np.cos(x[..., 0]), lambda xi: xi[..., -1]),
        (lambda x: np.exp(-np.sum(x * x, axis=-1) / 8.0),
         lambda xi: np.sqrt(np.linalg.norm(xi, axis=-1)))])
    out = qu.apply_pseudo(f, sig, method="direct")
    x = g.coord_stack().reshape(-1, 2)
    xi = g.freq_stack().reshape(-1, 2)
    uh = gr.transform(f).values.ravel()
    if guard:
        uh = uh * qu.low_freq_guard(g).ravel()
    kern = np.exp(1j * x @ xi.T) * value(x[:, None, :], xi[None, :, :])
    ref = kern @ uh * (g.dxi / (2.0 * np.pi)) ** 2
    assert np.linalg.norm(out.values.ravel() - ref) \
        <= 1e-13 * np.linalg.norm(ref)


def test_rotation_generator_annihilates_radial_fields():
    g = gr.make_grid(64, 8.0)
    r2 = np.sum(g.coord_stack()**2, axis=-1)
    f = gr.Field(g, np.exp(-r2 / 2.0) + 0j, "x")
    om = sy.omega_phase_symbol(EUCLID)
    out = qu.apply_pseudo(f, om)
    assert out.norm() <= 1e-8 * f.norm()


def test_rotation_generator_eigenrelation():
    # (x1 D2 - x2 D1) on a radial profile times e^{i k theta} returns
    # k times the field, up to box truncation
    g = gr.make_grid(128, 12.0)
    x = g.coord_stack()
    r2 = np.sum(x**2, axis=-1)
    k = 3
    f = gr.Field(g, (x[..., 0] + 1j * x[..., 1])**k * np.exp(-r2 / 2.0),
                 "x")
    om = sy.omega_phase_symbol(EUCLID)
    out = qu.apply_pseudo(f, om)
    assert np.max(np.abs(out.values - k * f.values)) <= 1e-6 * f.norm()


def test_adjoint_consistency():
    g = gr.make_grid(32, 8.0)
    u = random_field(g, 5)
    v = random_field(g, 6)
    sig = sy.PhaseSpaceSymbol(
        "a", (1.0, 0.0),
        [(lambda x: x[..., 1], lambda xi: np.cos(xi[..., 0]))])
    au = qu.apply_pseudo(u, sig)
    asv = qu.apply_pseudo_adjoint(v, sig)
    q = g.h ** 2
    lhs = q * np.vdot(v.values, au.values)
    rhs = q * np.vdot(asv.values, u.values)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)


SIGMAS = ["structured", "unstructured-critical", "weighted:s=0.75"]


@settings(max_examples=25, deadline=None)
@given(name=st.sampled_from(SIGMAS), seed=st.integers(0, 2**32 - 1))
def test_plan_adjoint_pairing(name, seed):
    # <v, sigma u> = <sigma^* v, u> on random fields, through the plan's
    # pitched stacks
    g = gr.make_grid(16, 4.0)
    plan = qu.SeparablePlan(sy.parse_sigma(name, EUCLID), g)
    u, v = random_field(g, seed), random_field(g, seed + 1)
    su = gr.Field(g, plan.apply(gr.pitch(np.fft.fftn(u.values)))[:, :g.N],
                  "x")
    sv = np.fft.ifftn(plan.adjoint(gr.pitch(v.values))[:, :g.N])
    q = g.h ** 2
    lhs = q * np.vdot(v.values, su.values)
    rhs = q * np.vdot(sv, u.values)
    assert abs(lhs - rhs) <= 1e-10 * v.norm() * su.norm()


@pytest.mark.parametrize("name", SIGMAS)
def test_plan_matches_direct_quadrature(name):
    g = gr.make_grid(16, 4.0)
    sig = sy.parse_sigma(name, EUCLID)
    f = random_field(g, 7)
    vh = gr.pitch(np.fft.fftn(f.values))
    plan = gr.Field(g, qu.SeparablePlan(sig, g).apply(vh)[:, :g.N], "x")
    direct = qu.apply_pseudo(f, sig, method="direct")
    assert np.max(np.abs(plan.values - direct.values)) <= 1e-10 * plan.norm()


@pytest.mark.parametrize("p", ["euclidean", "perturbed:amp=0.05"])
def test_structured_plan_builds_without_warnings(p):
    # the xi-factors take their limit 0 at xi = 0 rather than evaluating
    # the gradient there; the origin stays 0 under the guard
    pair = sy.make_pair(p)
    g = gr.make_grid(32, 8.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        plan = qu.SeparablePlan(sy.structured_sigma(pair), g)
    assert np.all(plan.m[:, 0, 0] == 0)


@pytest.mark.parametrize("name", SIGMAS)
def test_plan_stack_matches_per_slice_calls(name):
    # any leading batch axes: each slice of the pitched stack is the
    # one-field call
    g = gr.make_grid(16, 4.0)
    plan = qu.SeparablePlan(sy.parse_sigma(name, EUCLID), g)
    vs = gr.pitch(np.array([random_field(g, seed).values
                            for seed in range(3)]))
    vh = gr.pitch(np.fft.fftn(vs[..., :g.N], axes=(-2, -1)))
    applied, adjoint = plan.apply(vh), plan.adjoint(vs)
    assert applied.shape == adjoint.shape == vs.shape == (3, g.N, g.N + 1)
    for k in range(len(vs)):
        assert np.array_equal(applied[k], plan.apply(vh[k]))
        assert np.array_equal(adjoint[k], plan.adjoint(vs[k]))
    nested = plan.apply(vh[None])
    assert np.array_equal(nested[0], applied)


@pytest.mark.parametrize("shape", [(1, 1, 32, 33), (2, 2, 16, 17),
                                   (4, 3, 64, 65), (1, 8, 32, 33),
                                   (8, 3, 128, 129)])
def test_term_sum_has_the_bits_of_np_sum(shape):
    # the in-place sum over the term axis adds the terms in np.sum's order
    rng = np.random.default_rng(len(shape) + shape[-1])
    w = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    ref = np.sum(w, axis=-3)
    head = qu.SeparablePlan.term_sum(w)
    assert np.array_equal(head, ref)
    assert np.shares_memory(head, w)


def test_guard_rejects_non_finite_multiplier_off_origin():
    # the guard may only absorb non-finite values where it vanishes
    g = gr.make_grid(32, 8.0)

    def ring_nan(xi):
        r = np.linalg.norm(xi, axis=-1)
        return np.where((r > 1.0) & (r < 1.3), np.nan, np.sqrt(r))

    sig = sy.PhaseSpaceSymbol(
        "ring-nan", (0.0, 0.5), [(lambda x: np.ones(x.shape[:-1]), ring_nan)])
    with pytest.raises(SlabError, match="multiplier non-finite on the "
                                        "lattice"):
        qu.apply_pseudo(random_field(g, 8), sig)
    with pytest.raises(SlabError, match="multiplier non-finite on the "
                                        "lattice"):
        qu.apply_pseudo_adjoint(random_field(g, 8), sig)
    with pytest.raises(SlabError, match="symbol non-finite on the "
                                        "sampling set"):
        qu.apply_pseudo(random_field(g, 8), sig, method="direct")


def test_canonical_identity_for_euclid():
    g = gr.make_grid(64, 16.0)
    # spectrum must sit where the cutoff is identically one
    f = packet(g, (0.0, 0.0), 2.5, carrier=(3.5, 0.0))
    plan = qu.CanonicalTransformPlan(EUCLID, gr.annular(0.5, 1.0, 6.0, 7.0))
    out = qu.apply_canonical(plan, f)
    assert np.max(np.abs(out.values - f.values)) <= 1e-10


def test_canonical_leakage_warning():
    g = gr.make_grid(64, 16.0)
    # carrier sits on the cutoff transition band
    f = packet(g, (0.0, 0.0), 1.0, carrier=(6.5, 0.0))
    plan = qu.CanonicalTransformPlan(EUCLID, gr.annular(0.5, 1.0, 6.0, 7.0))
    with pytest.warns(CutoffLeakage):
        qu.apply_canonical(plan, f)


def test_stacked_canonical_equals_per_field():
    # one stacked call per list of fields: the same bits, and the same
    # CutoffLeakage warnings, as one call per field
    g = gr.make_grid(32, 16.0)
    plan = qu.CanonicalTransformPlan(ELLIPSE, gr.annular(0.4, 1.0, 9.0, 11.0))
    fields = [packet(g, (1.0, 0.0), 1.5, carrier=(4.0, 0.0)),
              packet(g, (0.0, 0.0), 0.5, carrier=(0.5, 0.5)),
              random_field(g, 2),
              gr.transform(packet(g, (0.0, -2.0), 1.0, carrier=(0.0, 3.0)))]
    with warnings.catch_warnings(record=True) as single:
        warnings.simplefilter("always")
        ref = [qu.apply_canonical(plan, f) for f in fields]
    with warnings.catch_warnings(record=True) as stacked:
        warnings.simplefilter("always")
        out = qu.apply_canonical(plan, fields)
    assert len(single) > 0
    assert [str(w.message) for w in stacked] == [str(w.message)
                                                 for w in single]
    assert all(w.category is CutoffLeakage for w in stacked)
    assert [o.space for o in out] == ["x"] * len(fields)
    for o, r in zip(out, ref):
        assert np.array_equal(o.values, r.values)


def _kn_case():
    g = gr.make_grid(8, 3.0)
    rng = np.random.default_rng(2)
    kept = np.sort(rng.choice(g.N ** 2, size=g.N ** 2 // 2 + 1,
                              replace=False))
    xi = g.freq_stack().reshape(-1, 2)[kept]
    uh = rng.normal(size=(len(kept), 3)) + 1j * rng.normal(size=(len(kept), 3))
    return g, kept, xi, uh


# the smallest byte budget that holds ``points`` (K,) complex kernel rows
def _budget(points, K):
    return 16 * K * points + 1


def _even_kn_case(g, kept, xi):
    """A complex symbol even in xi and its xi-inputs, which agree bit for
    bit at -xi; the pairs, their partners and the unpaired modes."""
    def sym(x, k):
        return (np.cos(x @ np.array([1.0, 2.0]))
                + 1j * k[..., 0] * k[..., 1]) / (1.0 + np.sum(k * k, -1))

    first, second = qu._mode_pairs(g, kept, [xi * xi, xi[:, 0] * xi[:, 1]])
    return sym, first, second


# one point per block, 7 points (splitting the lattice's 8-point leading
# rows), the whole lattice at once
@pytest.mark.parametrize("points", [1, 7, 1 << 20])
def test_kn_sum_matches_literal_double_sum(monkeypatch, points):
    g, kept, xi, uh = _kn_case()
    monkeypatch.setattr(qu, "_KN_BYTES", _budget(points, len(kept)))

    def sym(x, k):
        return (np.cos(x @ np.array([1.0, 2.0])) + 1j * np.sum(k, -1)) \
            / (1.0 + np.sum(k * k, -1))

    even, first, second = _even_kn_case(g, kept, xi)
    nyquist = np.any(np.abs(xi[first[len(second):]]) == g.nyquist, axis=-1)
    # paired modes, unpaired modes off and on the Nyquist rows
    assert len(second) and np.any(nyquist) and not np.all(nyquist)
    cases = [(sym, np.arange(len(kept)), second[:0]), (even, first, second)]
    for sym, first, second in cases:
        out = qu._kn_sum(g, lambda xb: sym(xb[:, None], xi[first][None]),
                         kept[first], uh[first], uh[second])
        ref = np.zeros((g.N ** 2, 3), dtype=complex)
        for j, x in enumerate(g.coord_stack().reshape(-1, 2)):
            for k, kx in enumerate(xi):
                ref[j] += np.exp(1j * x @ kx) * sym(x, kx) * uh[k]
        ref *= (g.dxi / (2.0 * np.pi)) ** 2
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_kn_sum_blocks_fit_the_byte_budget(monkeypatch):
    # every block's (points, K) complex kernel is under the budget unless
    # it is a single point; the blocks tile the lattice in flat order.  K
    # is the symbol's columns: one per pair, and one per unpaired mode
    g, kept, xi, uh = _kn_case()
    _, first, second = _even_kn_case(g, kept, xi)
    for budget in (1, 100, 16 * len(kept) * 3, _budget(3, len(kept)),
                   1 << 13, 1 << 17, 1 << 40):
        monkeypatch.setattr(qu, "_KN_BYTES", budget)
        for first, second in [(np.arange(len(kept)), second[:0]),
                              (first, second)]:
            K = len(first)
            seen = []

            def block(xb):
                seen.append(xb.copy())
                return np.ones((len(xb), K))

            qu._kn_sum(g, block, kept[first], uh[first], uh[second])
            sizes = [len(xb) for xb in seen]
            assert min(sizes) >= 1, budget
            assert all(p == 1 or 16 * K * p < budget for p in sizes), budget
            # as many points as fit: only the last block may be short
            assert len(set(sizes[:-1])) <= 1 and sizes[-1] <= sizes[0], \
                budget
            assert np.array_equal(np.concatenate(seen),
                                  g.coord_stack().reshape(-1, 2))


def test_mode_pairs_need_a_kept_mirror_and_bit_equal_inputs():
    g = gr.make_grid(8, 3.0)
    kept = np.arange(g.N ** 2)
    xi = g.freq_stack().reshape(-1, 2)
    sq = xi * xi
    first, second = qu._mode_pairs(g, kept, [sq])
    # every mode off the zero mode and the Nyquist rows pairs: 49 - 1
    # modes, 24 pairs
    assert len(second) == 24 and len(first) == 64 - 24
    pairs = first[:len(second)]
    assert np.array_equal(xi[second], -xi[pairs])
    assert np.all(pairs < second)
    assert np.array_equal(np.sort(np.concatenate([first, second])), kept)
    # a NaN in one member unpairs it; -0.0 is not 0.0; a dropped mirror
    # leaves its mode unpaired
    k = pairs[0]
    sq[k, 0] = np.nan
    tagged = np.zeros(len(kept))
    tagged[second[1]] = -0.0
    assert len(qu._mode_pairs(g, kept, [sq, tagged])[1]) == 22
    assert len(qu._mode_pairs(g, np.delete(kept, second[0]),
                              [np.delete(xi * xi, second[0], 0)])[1]) == 23
    # an odd input pairs nothing
    assert len(qu._mode_pairs(g, kept, [xi])[1]) == 0


def test_change_of_vars_identity_and_rotation():
    g = gr.make_grid(64, 8.0)
    f = packet(g, (2.0, 0.0), 0.7)
    gam = gr.radial_bump(5.0, 7.0)
    out = qu.apply_change_of_vars(0.0, gam, f)
    ref = gam.on_coords(g) * f.values
    assert np.max(np.abs(out.values - ref)) <= 1e-10

    # the cutoff is 1.0 at every sample of the box
    rot = qu.apply_change_of_vars(np.pi / 2, gr.radial_bump(12.0, 13.0), f)
    # rotation by pi/2 relocates the bump and preserves the norm
    assert rot.norm() == pytest.approx(f.norm(), rel=1e-8)
    x = g.coord_stack()
    peak = x.reshape(-1, 2)[np.argmax(np.abs(rot.values))]
    assert np.linalg.norm(np.abs(peak) - np.array([0.0, 2.0])) <= 2 * g.h


def test_fio_bound_ratio_flat_for_declared_order():
    g = gr.make_grid(64, 16.0)
    f = packet(g, (0.0, 0.0), 1.2)
    a = sy.PhaseSpaceSymbol("xw", (1.0, 0.0), [(
        lambda x: np.sqrt(1.0 + np.sum(x**2, axis=-1)),
        lambda xi: 1.0 / (1.0 + np.sum(xi**2, axis=-1)))])
    ratios = qu.fio_bound_ratio(a, 1.0, f)
    assert max(ratios) / min(ratios) <= 3.0
    ratios_bad = qu.fio_bound_ratio(a, 0.0, f)
    assert max(ratios_bad) / min(ratios_bad) > 3.0


def test_basiclem_rejects_unstructured_symbol():
    g = gr.make_grid(32, 8.0)
    f = packet(g, (0.5, 0.5), 1.0, carrier=(2.0, 0.0))
    uns = sy.unstructured_critical()
    with pytest.raises(SlabError, match="does not vanish on the orbit set"):
        qu.basiclem_ratio(EUCLID, uns, 1.0, f)


def test_commutator_residual_small_and_control_large():
    g = gr.make_grid(64, 16.0)
    f = packet(g, (0.5, -0.3), 1.8, carrier=(3.0, 0.0))
    h = lambda t: np.exp(-t**2 / 8.0)
    res = qu.commutator_residual(EUCLID, h, f)
    assert res <= 1e-7
    ctrl = qu.commutator_residual(
        EUCLID, h, f, multiplier=lambda xs: h(xs[..., 0]))
    assert ctrl >= 1e-2


def test_dilate_preserves_mass_normalization():
    g = gr.make_grid(64, 16.0)
    f = packet(g, (0.0, 0.0), 1.0)
    d = qu.dilate(f, 2.0)
    # envelope widens; norm scales like lambda^{n/2} on the grid
    assert d.norm() == pytest.approx(2.0 * f.norm(), rel=1e-2)


def test_low_freq_guard_kills_origin():
    g = gr.make_grid(32, 8.0)
    guard = qu.low_freq_guard(g)
    r = g.freq_radius()
    assert np.all(guard[r < g.dxi] == 0.0)
    assert np.allclose(guard[r > 4 * g.dxi], 1.0)


def _egorov_dual_case(N, xf=None, m=1.0, gx=None, pair=ELLIPSE):
    # the egorov CLI run at its defaults: x-growth symbol of order 1,
    # fixed envelope recentred along (1.4, 0) on the carrier (4, 0)
    g = gr.make_grid(N, 16.0)
    gx = gx or (lambda xi: 1.0 / np.sqrt(1.0 + np.sum(xi * xi, axis=-1)))
    xf = xf or (lambda x: np.sqrt(1.0 + np.sum(x * x, axis=-1)))
    a = sy.PhaseSpaceSymbol("x-growth", (1.0, 0.0), [(xf, gx)])
    plan = qu.CanonicalTransformPlan(pair, gr.annular(0.4, 1.0, 9.0, 11.0))
    env = gr.spectral_packet(g, (0.0, 0.0), 0.8)
    return qu.egorov_residual(a, plan, m, env, carrier=(4.0, 0.0),
                              center=(1.4, 0.0))


def test_egorov_residual_matches_reference_ratios():
    # the egorov-dual reference ratios (perfbench/references.json, seed 0)
    ref = [0.5379865076266316, 0.5133250264144144, 0.508843552395739,
           0.5545560167326035]
    with pytest.warns(CutoffLeakage):
        ratios = _egorov_dual_case(32)
    assert np.allclose(ratios, ref, rtol=1e-10, atol=0.0)


def test_egorov_residual_matches_criterion_06_ratios():
    # criterion 06's conjugation pair (N = 64, declared and misdeclared
    # order) against the ratios of the per-pair exponential kernel, both
    # with the closed-form psi'
    ref = [0.031142427853330722, 0.028227479555864462, 0.02519391201058331,
           0.023068473986711854, 0.054422454160574694, 0.07834744613451951,
           0.13988790144482696, 0.25779311705239955]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffLeakage)
        ratios = _egorov_dual_case(64) + _egorov_dual_case(64, m=0.0)
    assert np.allclose(ratios, ref, rtol=1e-12, atol=0.0)


def test_egorov_residual_matches_per_warp_ratios_to_roundoff():
    # ratios of the path with one apply_canonical call per warp and the
    # closed-form psi', at full precision; the stacked warps must stay
    # within roundoff of them
    ref32 = [0.5379865076212866, 0.513325026411838, 0.5088435524118504,
             0.5545560167185559, 0.9418746771161508, 1.4252261875779455,
             2.8253291241520393, 6.197232950345878]
    ref64 = [0.031142427853330733, 0.028227479555864448,
             0.02519391201058338, 0.023068473986711528]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffLeakage)
        r32 = _egorov_dual_case(32) + _egorov_dual_case(32, m=0.0)
        r64 = _egorov_dual_case(64)
    assert np.allclose(r32, ref32, rtol=1e-14, atol=0.0)
    assert np.allclose(r64, ref64, rtol=1e-14, atol=0.0)


def test_egorov_residual_ratios_agree_across_kn_budgets(monkeypatch):
    # the block height only regroups zgemm's sums: roundoff, no more
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffLeakage)
        ref = _egorov_dual_case(32)
        for budget in (1, 1 << 15, 1 << 40):
            monkeypatch.setattr(qu, "_KN_BYTES", budget)
            ratios = _egorov_dual_case(32)
            assert np.allclose(ratios, ref, rtol=1e-13, atol=0.0), budget


def _openblas():
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return "openblas" in str(blas.get("name", "")).lower()


# CPU ticks of every thread but the main one, the BLAS workers, while the
# calls in sys.argv[2] run in this module's namespace
_WORKER_TICKS = """
import os, sys, warnings
sys.path.insert(0, sys.argv[1])
import test_quantize

def worker_ticks():
    total = 0
    for tid in os.listdir("/proc/self/task"):
        if int(tid) != os.getpid():
            with open(f"/proc/self/task/{tid}/stat") as fh:
                stat = fh.read().rsplit(")", 1)[1].split()
            total += int(stat[11]) + int(stat[12])     # utime, stime
    return total

warnings.simplefilter("ignore")
before = worker_ticks()
exec(sys.argv[2], vars(test_quantize))
print(worker_ticks() - before)
"""


def _worker_ticks(calls):
    """_WORKER_TICKS of ``calls`` in a process with two BLAS threads."""
    src = str(pathlib.Path(gr.__file__).parents[1])
    tests = str(pathlib.Path(__file__).parent)
    res = subprocess.run(
        [sys.executable, "-c", _WORKER_TICKS, tests, calls],
        capture_output=True, text=True, timeout=300, check=True,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="2"))
    return int(res.stdout)


_ON_OPENBLAS = pytest.mark.skipif(
    not (sys.platform.startswith("linux") and _openblas()),
    reason="reads Linux thread stats of an OpenBLAS build")


@_ON_OPENBLAS
def test_egorov_residual_leaves_blas_workers_idle():
    # a threaded complex product leaves OpenBLAS's worker spinning on a
    # second core after it returns; the egorov check's products stay under
    # grid.ONE_THREAD_MACS, so the worker never wakes
    assert _worker_ticks("for _ in range(3):\n"
                         "    _egorov_dual_case(32)\n") <= 2


def test_egorov_residual_rejects_non_finite_warped_symbol():
    # a NaN in the x-factor, and a NaN in the xi-factor at the upper
    # members of 8 +-xi pairs and at no other mode (N = 16): the pairing
    # compares the factor's bits, so it unpairs them and the check sees it
    def gx(eta):
        nan = (np.abs(eta[..., 0] + 0.6) < 0.3) & (np.abs(eta[..., 1]) < 1.0)
        return np.where(nan, np.nan,
                        1.0 / np.sqrt(1.0 + np.sum(eta * eta, axis=-1)))

    for case in ({"xf": lambda x: np.where(x[..., 0] > 3.0, np.nan, 1.0)},
                 {"gx": gx}):
        with pytest.raises(SlabError, match="symbol non-finite on the "
                                            "sampling set"):
            _egorov_dual_case(16, **case)



def test_egorov_residual_pairs_the_mirror_modes_of_an_even_p(monkeypatch):
    # the bench config keeps 1011 modes: 474 pairs and 63 unpaired, so the
    # symbol has 537 columns; the perturbed p is even only on the line
    # xi_0 = 0, where 2 kept modes have warp rows and symbol inputs that
    # agree bit for bit with those of their mirrors
    seen = []

    def spy(grid, block, modes, v, w):
        seen.append((len(modes), len(w)))
        return kn_sum(grid, block, modes, v, w)

    kn_sum = qu._kn_sum
    monkeypatch.setattr(qu, "_kn_sum", spy)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffLeakage)
        _egorov_dual_case(32)
        _egorov_dual_case(32, pair=sy.make_pair("perturbed:amp=0.05"))
    assert seen == [(537, 474), (1009, 2)]
