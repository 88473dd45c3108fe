"""Lattice, transform, quadrature and cutoff behavior."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from slab import grid as gr
from slab.errors import SlabError


def random_field(g, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape)
    return gr.Field(g, vals, "x")


def test_grid_basic_arithmetic():
    g = gr.make_grid(8, 4.0)
    assert g.h == pytest.approx(1.0)
    assert g.h * g.N == pytest.approx(2 * g.L)
    assert g.dxi == pytest.approx(np.pi / g.L)
    assert g.nyquist == pytest.approx(np.pi * g.N / (2 * g.L))
    # the half-cell lattice never samples x = 0
    assert np.min(g.radius()) > 0


def test_grid_frequency_spacing():
    g = gr.make_grid(128, 32 * np.pi)
    assert g.dxi == pytest.approx(1.0 / 32.0)


def test_grid_rejects_non_power_of_two():
    with pytest.raises(SlabError, match=r"^N=7 is not a power of two >= 2$"):
        gr.make_grid(7, 1.0)


@pytest.mark.parametrize("N", [32, 64, 128])
def test_transform_roundtrip_and_plancherel(N):
    g = gr.make_grid(N, 8.0)
    f = random_field(g, seed=N)
    fh = gr.transform(f)
    back = gr.inverse_transform(fh)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(
        np.abs(f.values))
    # discrete Plancherel: both norms carry their quadrature weights
    assert fh.norm() == pytest.approx(f.norm(), rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(log_N=st.integers(1, 4), L=st.floats(0.5, 50.0),
       seed=st.integers(0, 2**32 - 1))
def test_transform_roundtrip_property(log_N, L, seed):
    g = gr.make_grid(2**log_N, L)
    f = random_field(g, seed)
    fh = gr.transform(f)
    back = gr.inverse_transform(fh)
    assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(
        np.abs(f.values))
    assert fh.norm() == pytest.approx(f.norm(), rel=1e-12)


def test_transform_gaussian_pair():
    g = gr.make_grid(128, 12.0)
    x = g.coord_stack()
    f = gr.Field(g, np.exp(-np.sum(x**2, axis=-1) / 2.0) + 0j, "x")
    fh = gr.transform(f)
    xi = g.freq_stack()
    ref = 2 * np.pi * np.exp(-np.sum(xi**2, axis=-1) / 2.0)
    assert np.max(np.abs(fh.values - ref)) <= 1e-8


def test_plane_wave_is_lattice_delta():
    g = gr.make_grid(32, 8.0)
    k = np.array([g.dxi * 3, -g.dxi * 5])
    x = g.coord_stack()
    f = gr.Field(g, np.exp(1j * x @ k), "x")
    fh = gr.transform(f)
    mag = np.abs(fh.values)
    idx = np.unravel_index(np.argmax(mag), mag.shape)
    xi_peak = g.freq_stack()[idx]
    assert np.allclose(xi_peak, k)
    rest = mag.copy()
    rest[idx] = 0.0
    assert np.max(rest) <= 1e-10 * mag[idx]


@pytest.mark.parametrize("k", [(0, 0), (3, -5), (-16, 7), (15, -1)],
                         ids=lambda k: f"{k[0]},{k[1]}")
def test_lattice_is_in_fft_order(k):
    # the frequency lattice indexes modes the way np.fft.fftn does, so a
    # raw spectrum and every lattice array line up without a shift
    g = gr.make_grid(32, 8.0)
    xi_k = g.dxi * np.array(k, dtype=float)
    x = g.coord_stack()
    u = np.exp(1j * x @ xi_k)
    xi = g.freq_stack()
    raw = np.fft.fftn(u)
    assert np.array_equal(xi.reshape(-1, 2)[np.argmax(np.abs(raw))], xi_k)
    # transform = fftn times the phase of the box corner x_0, times h^n
    x0 = g.axis_points()[0]
    ref = (raw * np.exp(-1j * x0 * xi[..., 0])
           * np.exp(-1j * x0 * xi[..., 1]) * g.h ** 2)
    got = gr.transform(gr.Field(g, u, "x")).values
    assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("shape", [(64, 64), (3, 64, 64), (1, 3, 64, 64),
                                   (3, 4, 64, 64), (8, 128, 128), (2, 16, 32)])
@pytest.mark.parametrize("inverse", [False, True])
def test_fft2_is_fftn_byte_for_byte(shape, inverse):
    # the two 1-D passes are the ones fftn makes over the last two axes,
    # out of place, in place, and on a view whose leading stride skips
    rng = np.random.default_rng(len(shape))
    a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    fftn = np.fft.ifftn if inverse else np.fft.fftn
    ref = fftn(a, axes=(-2, -1)).tobytes()
    assert gr.fft2(a, inverse).tobytes() == ref
    w = a.copy()
    assert gr.fft2(w, inverse, out=w) is w
    assert w.tobytes() == ref
    if len(shape) > 2:
        # a view that skips a field between its fields, as a term sum's
        # head does
        big = np.zeros((shape[0], 2, *shape[1:]), dtype=complex)
        view = big[:, 0]
        view[...] = a
        gr.fft2(view, inverse, out=view)
        assert np.ascontiguousarray(view).tobytes() == ref


@pytest.mark.parametrize("N", [16, 32, 64, 128])
@pytest.mark.parametrize("fields", [1, 3, 12])
@pytest.mark.parametrize("inverse", [False, True])
def test_fft2_on_a_pitched_view_is_fftn_byte_for_byte(N, fields, inverse):
    # in place on the lattice view of a pitched stack, whose pad it leaves 0
    rng = np.random.default_rng(N + fields)
    a = rng.normal(size=(fields, N, N)) + 1j * rng.normal(size=(fields, N, N))
    fftn = np.fft.ifftn if inverse else np.fft.fftn
    w = gr.pitch(a)
    view = w[..., :N]
    assert view.strides[-2] == (N + 1) * view.itemsize
    assert gr.fft2(view, inverse, out=view) is view
    assert (np.ascontiguousarray(view).tobytes()
            == fftn(a, axes=(-2, -1)).tobytes())
    assert not np.any(w[..., N:])


@pytest.mark.parametrize("dtype", [complex, float, np.int32])
def test_pitch_round_trip(dtype):
    a = np.arange(2 * 8 * 8).reshape(2, 8, 8).astype(dtype) + 1
    p = gr.pitch(a)
    assert p.shape == (2, 8, 9) and p.dtype == a.dtype
    assert p.flags.c_contiguous
    assert p[..., :8].tobytes() == a.tobytes()
    assert not np.any(p[..., 8:])


def test_weighted_norm_m0_is_quadrature_l2():
    g = gr.make_grid(32, 8.0)
    f = random_field(g, seed=3)
    direct = np.sqrt(g.h**2) * np.linalg.norm(f.values)
    assert gr.weighted_norm(f, 0.0) == pytest.approx(direct, rel=1e-14)


def test_weighted_norm_against_reference_quadrature():
    # separable Gaussian with weight <x>^{-3/2}; reference via dense 1D
    # tensor quadrature far off the lattice
    g = gr.make_grid(128, 16.0)
    x = g.coord_stack()
    f = gr.Field(g, np.exp(-np.sum(x**2, axis=-1) / 2.0) + 0j, "x")
    val = gr.weighted_norm(f, -1.5)

    t = np.linspace(-16.0, 16.0, 4001)
    dt = t[1] - t[0]
    X, Y = np.meshgrid(t, t, indexing="ij")
    w = (1.0 + X**2 + Y**2) ** (-1.5 / 2.0)
    ref = np.sqrt(np.sum((w * np.exp(-(X**2 + Y**2) / 2.0))**2) * dt * dt)
    assert val == pytest.approx(ref, abs=1e-6)


def test_weighted_norm_refinement_stable():
    vals = []
    for N in (128, 256):
        g = gr.make_grid(N, 16.0)
        x = g.coord_stack()
        f = gr.Field(g, np.exp(-np.sum(x**2, axis=-1) / 2.0) + 0j, "x")
        vals.append(gr.weighted_norm(f, 1.0))
    assert abs(vals[1] - vals[0]) < 1e-6


def test_mass_fraction_monotone():
    g = gr.make_grid(64, 8.0)
    x = g.coord_stack()
    f = gr.Field(g, np.exp(-np.sum(x**2, axis=-1)) + 0j, "x")
    fr = [gr.mass_fraction(f, r) for r in (1.0, 2.0, 4.0)]
    assert fr[0] < fr[1] < fr[2] <= 1.0
    assert fr[2] > 0.999


def test_mass_fraction_acts_per_field():
    # a stack with an identically zero field: each fraction has the bits
    # of its own one-field call, and the zero field's is 1
    g = gr.make_grid(32, 8.0)
    x = g.coord_stack()
    f = np.exp(-np.sum(x**2, axis=-1)) + 0j
    stack = gr.Field(g, np.stack([f, np.zeros_like(f), f * np.exp(
        -np.sum((x - 3.0)**2, axis=-1))]), "x")
    fr = gr.mass_fraction(stack, 2.0)
    assert fr.shape == (3,) and fr[1] == 1.0
    for one, vals in zip(fr, stack.values):
        assert one.tobytes() == np.float64(
            gr.mass_fraction(gr.Field(g, vals, "x"), 2.0)).tobytes()


@pytest.mark.parametrize("N,L", [(8, 4.0), (32, 16.0), (64, 8.0),
                                 (128, 64.0), (256, 64.0), (64, 1e150),
                                 (16, 1e-150)])
def test_radii_have_the_bytes_of_the_sqrt_of_squares(N, L):
    # the norms over the coordinate stacks against the sum of the squared
    # broadcast axes, as radius and freq_radius were computed before
    g = gr.make_grid(N, L)
    for axis, radius in ((g.axis_points(), g.radius()),
                         (g.axis_freqs(), g.freq_radius())):
        ref = np.sqrt(sum(c**2 for c in np.meshgrid(axis, axis, indexing="ij",
                                                    sparse=True)))
        assert radius.tobytes() == ref.tobytes()


def test_cutoff_ranges_and_plateaus():
    ann = gr.annular(1.0, 2.0, 5.0, 6.0)
    g = gr.make_grid(64, 8.0)
    vals = ann.on_freqs(g)
    assert np.min(vals) >= 0.0 and np.max(vals) <= 1.0
    r = g.freq_radius()
    core = (r >= 2.0) & (r <= 5.0)
    assert np.allclose(vals[core], 1.0)
    outside = (r <= 1.0) | (r >= 6.0)
    assert np.allclose(vals[outside], 0.0)

    bump = gr.radial_bump(1.0, 2.0)
    bvals = bump.on_coords(g)
    assert np.allclose(bvals[g.radius() <= 1.0], 1.0)
    assert np.allclose(bvals[g.radius() >= 2.0], 0.0)


def test_scalar_profile_and_analytic_kinds():
    prof = gr.Cutoff(gr._band(1.0, 2.0, 3.0, 4.0))
    t = np.linspace(0.0, 5.0, 101)
    v = prof(t)
    assert np.all((v >= 0.0) & (v <= 1.0))
    assert np.allclose(v[(t >= 2.0) & (t <= 3.0)], 1.0)

    ap = gr.analytic_profile(3.0, 1.0)
    assert ap(np.array(3.0)) == pytest.approx(1.0)
    assert ap(np.array(6.0)) < 1e-200 or ap(np.array(6.0)) < 1e-6


def test_cutoffs_compose_a_profile_with_a_map():
    # the radial cutoffs are their scalar profiles of |xi|, bit for bit,
    # on the lattice and at the origin
    g = gr.make_grid(32, 8.0)
    pts = np.concatenate([g.freq_stack().reshape(-1, 2),
                          g.coord_stack().reshape(-1, 2)])
    assert np.any(np.all(pts == 0.0, axis=-1))
    for radial, profile in (
            (gr.annular(1.0, 2.0, 5.0, 6.0),
             gr._band(1.0, 2.0, 5.0, 6.0)),
            (gr.analytic_ring(3.5, 2.6), gr.analytic_profile(3.5, 2.6))):
        composed = gr.Cutoff(lambda xi: profile(np.linalg.norm(xi, axis=-1)))
        assert radial(pts).tobytes() == composed(pts).tobytes()
        assert radial.on_freqs(g).tobytes() == composed.on_freqs(g).tobytes()


def test_offgrid_evaluation_matches_lattice():
    g = gr.make_grid(64, 8.0)
    x = g.coord_stack()
    f = gr.Field(g, np.exp(-np.sum(x**2, axis=-1) / 2.0) + 0j, "x")
    fh = gr.transform(f)
    targets = g.freq_stack().reshape(-1, 2)[[10, 100, 1000]]
    vals = gr.eval_offgrid(f, targets)
    assert np.max(np.abs(vals - fh.values.reshape(-1)[[10, 100, 1000]])) \
        <= 1e-10
    pts = x.reshape(-1, 2)[[7, 77, 777]]
    fv = gr.eval_field_offgrid(f, pts)
    assert np.max(np.abs(fv - f.values.reshape(-1)[[7, 77, 777]])) <= 1e-10


def test_field_holds_a_stack_and_eval_offgrid_acts_per_field():
    # a Field checks the last two axes only; eval_offgrid of a stack is
    # one call per field, bit for bit, and so are its norms
    g = gr.make_grid(32, 8.0)
    stack = gr.Field(g, np.array([random_field(g, s).values
                                  for s in range(3)]), "x")
    assert stack.values.shape == (3, 32, 32)
    with pytest.raises(ValueError, match="field shape does not match"):
        gr.Field(g, np.zeros((32, 33), complex), "x")
    targets = np.random.default_rng(1).uniform(-g.nyquist, g.nyquist,
                                               size=(301, 2))
    out = gr.eval_offgrid(stack, targets)
    assert out.shape == (3, 301)
    for row, vals in zip(out, stack.values):
        one = gr.Field(g, vals, "x")
        assert np.array_equal(row, gr.eval_offgrid(one, targets))
    assert np.array_equal(stack.norm(), [gr.Field(g, v, "x").norm()
                                         for v in stack.values])


# (S, N) in the plane where the row bound re-cuts 601 targets: byte-sized
# blocks of 1024, 256, 512 and 64 targets become blocks of 128, 128, 32
# and 32
@pytest.mark.parametrize("S, N", [(1, 16), (4, 16), (1, 32), (8, 32)])
def test_phase_sum_keeps_its_bits_whatever_the_blocking(monkeypatch, S, N):
    # the one-thread row bound only re-cuts the targets into blocks, and
    # each target's row is summed alone: bit for bit the byte-sized blocks
    rng = np.random.default_rng(N + S)
    g = gr.make_grid(N, 4.0)
    values = (rng.normal(size=(S,) + g.shape)
              + 1j * rng.normal(size=(S,) + g.shape))
    pts = rng.uniform(-g.nyquist, g.nyquist, size=(601, 2))
    out = gr._phase_sum(values, g.axis_freqs(), pts, 1)
    monkeypatch.setattr(gr, "ONE_THREAD_MACS", 0)
    assert np.array_equal(out, gr._phase_sum(values, g.axis_freqs(), pts, 1))


def test_spectral_packet_unit_norm_and_centered():
    g = gr.make_grid(32, 8.0)
    f = gr.spectral_packets(g, (1.5, -0.5), 0.6)
    assert f.space == "x"
    assert f.norm() == pytest.approx(1.0, rel=1e-12)
    fh = gr.transform(f)
    peak = np.unravel_index(np.argmax(np.abs(fh.values)), g.shape)
    assert np.allclose(g.freq_stack()[peak], (1.5, -0.5), atol=g.dxi)


def test_reflect_maps_each_sample_to_minus_x():
    # dyadic L keeps every coordinate exact
    g = gr.make_grid(16, 4.0)
    X = np.moveaxis(g.coord_stack(), -1, 0)
    R = g.reflect(X)
    assert np.array_equal(R, -X)
    assert np.array_equal(g.reflect(R), X)
