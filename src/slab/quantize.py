"""Quantization layer: Fourier multipliers, pseudodifferential operators,
canonical transforms, rotations of the plane and the
exact-commutation / boundedness checks built on them.

Quantization is Kohn-Nirenberg throughout:

    a(X, D) u(x) = (2 pi)^{-2} int e^{i x.xi} a(x, xi) u_hat(xi) d xi,

discretized with the grid's spectral weights.  A symbol singular at
xi = 0 (a negative or fractional xi-order) gets the low-frequency guard,
and no other symbol does.  Symbols that come with a separable expansion
a = sum_r f_r(x) m_r(xi) are applied by a ``SeparablePlan``, one FFT
call for all R terms on a stack of spectra; anything else falls back to
the direct O(N^4) quadrature, whose one kernel ``_kn_sum`` also
serves the Egorov check.  It takes e^{i x.xi} from per-axis tables of
e^{i x_d xi_d}, never pair by pair, over blocks of lattice points sized
in bytes: each block's (points, K) kernel stays under glibc's 128 KiB
mmap threshold, so its temporaries reuse heap memory instead of faulting
in fresh pages on every block.  The canonical transform I_gamma runs on
a list of fields as one stacked off-grid contraction (a single field is
the one-column case): cutoff, warp and phase tables are built once.  Its
cutoff is a ``grid.Cutoff``, a profile composed with a map included.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from . import grid as gr
from . import symbols as sy
from .errors import (CutoffLeakage, NonFiniteMultiplier, NonFiniteSymbol,
                     StructureViolation)


def low_freq_guard(grid):
    """Smooth annular mask killing |xi| < xi_min, identically 1 above
    2 xi_min, where xi_min is two frequency-lattice spacings.
    """
    xi_min = 2.0 * grid.dxi
    r = grid.freq_radius()
    return gr._smoothstep((r - xi_min) / xi_min)


def multiplier_values(grid, m, guard=None):
    """Multiplier (callable or lattice array) on the frequency lattice,
    times ``guard``; non-finite values are zeroed only where it vanishes.
    """
    vals = np.array(m(grid.freq_stack()) if callable(m) else m, dtype=complex)
    if vals.shape != grid.shape:
        vals = np.broadcast_to(vals, grid.shape).copy()
    if guard is not None:
        vals = np.where(np.isfinite(vals) | (guard != 0), vals, 0.0) * guard
    if not np.all(np.isfinite(vals)):
        raise NonFiniteMultiplier("multiplier non-finite on the lattice")
    return vals


def apply_multiplier(f, m):
    """m(D) u for a multiplier given as a callable on (..., 2) frequency
    stacks or as a precomputed lattice array.
    """
    g = f.grid
    fh = gr.transform(f) if f.space == "x" else f
    vals = multiplier_values(g, m)
    return gr.inverse_transform(gr.Field(g, fh.values * vals, "xi"))


def _guard_for(sigma, g):
    """The low-frequency guard if sigma is singular at xi = 0, else None."""
    return low_freq_guard(g) if sigma.xi_singular else None


class SeparablePlan:
    """sigma(X, D) = sum_r f_r(X) m_r(D) on one grid, built once.

    The x-factors f_r and guarded multipliers m_r are checked and kept
    read-only as (R, *grid.shape) stacks.  ``apply`` and ``adjoint`` take
    arrays with any leading batch axes and raw spectra vh = np.fft.fftn(u)
    over the last two axes (the corner phase and h^2 of ``grid.transform``
    cancel between the ends): a pass is one FFT call over all R terms plus
    one multiply.  Symbols singular at xi = 0 get the low-frequency guard.
    """

    def __init__(self, sigma, grid):
        guard = _guard_for(sigma, grid)
        if not getattr(sigma, "terms", None):
            raise ValueError("symbol carries no separable terms")
        self.grid = grid
        self.axes = (-2, -1)
        X, xi = grid.coord_stack(), grid.freq_stack()
        self.x = np.array([np.broadcast_to(fx(X), grid.shape)
                           for fx, _ in sigma.terms], dtype=complex)
        if not np.all(np.isfinite(self.x)):
            raise NonFiniteSymbol("x-factor non-finite on the grid")
        self.m = np.array([multiplier_values(grid, fxi(xi), guard)
                           for _, fxi in sigma.terms])
        self.x.flags.writeable = self.m.flags.writeable = False

    def _pass(self, w, fft, then):
        """Sum over the term axis of then * fft(w), for w the products of a
        factor stack with the input; w is transformed in place."""
        fft(w, axes=self.axes, out=w)   # numpy's fftn is ~2x faster with out=
        return np.sum(np.multiply(w, then, out=w), axis=-3)

    def apply(self, vh):
        """x-samples of sigma(X, D) u from vh = fftn(u)."""
        w = self.m * np.expand_dims(vh, -3)     # the term axis
        return self._pass(w, np.fft.ifftn, self.x)

    def adjoint(self, v):
        """fftn(sigma(X, D)^* v) from x-samples v."""
        w = np.conj(self.x) * np.expand_dims(v, -3)
        return self._pass(w, np.fft.fftn, np.conj(self.m))  # conj(x) freed


def _apply_plan(plan, f):
    """sigma(X, D) u for the SeparablePlan of sigma on f's grid."""
    return gr.Field(f.grid, plan.apply(np.fft.fftn(f.values)), "x")


def apply_pseudo(f, sigma, method="auto"):
    """sigma(X, D) u on the grid.

    method "separable" uses the symbol's term expansion (a one-shot
    SeparablePlan); "direct" does the full O(N^4) quadrature; "auto"
    prefers separable when terms exist.  Symbols singular at xi = 0 get
    the low-frequency annular guard.
    """
    if method == "auto":
        method = "separable" if getattr(sigma, "terms", None) else "direct"
    if method == "separable":
        return _apply_plan(SeparablePlan(sigma, f.grid), f)
    if method == "direct":
        return _apply_direct(f, sigma, _guard_for(sigma, f.grid))
    raise ValueError(f"unknown method {method!r}")


# glibc's default mmap threshold: _kn_sum keeps each block's (points, K)
# complex kernel, and so the block's temporaries, under it
_KN_BYTES = 1 << 17


def _kn_sum(grid, block, kept, uh):
    """Direct Kohn-Nirenberg quadrature of a (K, S) stack of spectra uh:

        out[x, s] = (dxi / 2 pi)^2 sum_k e^{i x.xi_k} a(x, xi_k) uh[k, s]

    on the x-lattice, over the K lattice modes with flat indices ``kept``;
    block(xb) is the symbol on the (points, K) set.  A block is the next
    lattice points in flat order, as many as keep its (points, K) complex
    kernel under _KN_BYTES and one at least.  Below that mmap threshold
    the block's temporaries (the symbol and its intermediates, the
    gathered phase rows) are heap memory the next block reuses; above it
    each would be fresh pages, faulted in again on every block.  As
    e^{i x.xi} = e^{i x_0 xi_0} e^{i x_1 xi_1}, the two per-axis tables
    e^{i x_d xi_{k,d}} (N x K, gathered at the kept modes once) give each
    block's phase as two gathered rows: the symbol, checked finite, is
    multiplied by them into one kernel buffer that every block reuses, and
    the block then meets all S columns in one product.
    """
    K = len(kept)
    table = np.exp(1j * np.outer(grid.axis_points(), grid.axis_freqs()))
    # np.take is row-major; table[:, k] is column-major, a row's entries
    # N * 16 bytes apart, which makes every gathered row a strided read
    col0, col1 = (np.take(table, k, axis=1)
                  for k in np.unravel_index(kept, grid.shape))
    # per-axis point indices
    ax0, ax1 = np.indices(grid.shape).reshape(2, -1)
    x_flat = grid.coord_stack().reshape(-1, 2)
    P = len(x_flat)
    step = min(P, max(1, (_KN_BYTES - 1) // (16 * K)))
    w = (grid.dxi / (2.0 * np.pi)) ** 2
    buf = np.empty((step, K), dtype=complex)
    out = np.empty((P, uh.shape[1]), dtype=complex)
    for i in range(0, P, step):
        b = slice(i, i + step)
        xb = x_flat[b]
        kern = buf[:len(xb)]
        sym = np.broadcast_to(block(xb), kern.shape)
        if not np.all(np.isfinite(sym)):
            raise NonFiniteSymbol("symbol non-finite on the sampling set")
        np.multiply(sym, col0[ax0[b]], out=kern)
        del sym     # not alive while the next block's symbol is evaluated
        kern *= col1[ax1[b]]
        out[b] = (kern @ uh) * w
    return out


def _apply_direct(f, sigma, guard):
    """sigma(X, D) u by direct quadrature over the modes the guard keeps."""
    g = f.grid
    guard = np.ones(g.shape) if guard is None else guard
    kept = np.flatnonzero(guard != 0)
    xi = g.freq_stack().reshape(-1, 2)[kept]
    uh = (gr.transform(f).values * guard).ravel()[kept, None]
    out = _kn_sum(g, lambda xb: sigma(xb[:, None], xi[None]), kept, uh)
    return gr.Field(g, out.reshape(g.shape), "x")


def apply_pseudo_adjoint(f, sigma):
    """sigma(X, D)^* v = conj-sigma(Y, D) v, the discrete conjugate
    transpose: multiply by conj f_r in x, then apply conj m_r (D).
    """
    plan = SeparablePlan(sigma, f.grid)
    return gr.Field(f.grid, np.fft.ifftn(plan.adjoint(f.values)), "x")


# ---------------------------------------------------------------------------
# canonical transform


@dataclass
class CanonicalTransformPlan:
    """Frequency-warp plan for I_gamma (forward) or its inverse.

    ``cutoff`` must vanish near xi = 0 by a declared margin; the warp is
    psi for the forward direction and psi^{-1} for the inverse.
    """

    pair: sy.DualPair
    cutoff: gr.Cutoff
    direction: str = "forward"

    def warp(self, xi):
        if self.direction == "forward":
            return sy.psi(self.pair, xi)
        if self.direction == "inverse":
            return sy.psi_inv(self.pair, xi)
        raise ValueError(f"unknown direction {self.direction!r}")


def _leakage_check(fh, gamma_vals):
    total = np.sum(np.abs(fh.values) ** 2)
    if total == 0:
        return
    trans = (gamma_vals > 1e-3) & (gamma_vals < 1.0 - 1e-3)
    frac = np.sum(np.abs(fh.values[trans]) ** 2) / total
    if frac > 0.01:
        warnings.warn(
            f"{100 * frac:.1f}% of spectral mass sits on the cutoff "
            "transition region", CutoffLeakage)


def apply_canonical(plan, f):
    """I_gamma u = F^{-1}[gamma(xi) u_hat(psi(xi))] for a Field u, or for
    every Field of a list on one grid (the results come back as a list).

    The warped spectrum is evaluated by exact trigonometric interpolation
    (direct DFT sum at off-lattice frequencies), only where gamma is
    supported.  The cutoff, the warp and the phase tables are built once,
    and all fields meet them in one stacked contraction; CutoffLeakage is
    checked field by field.
    """
    fields = [f] if isinstance(f, gr.Field) else list(f)
    g = fields[0].grid
    if any(v.grid != g for v in fields):
        raise ValueError("apply_canonical needs fields on one grid")
    gamma_vals = plan.cutoff.on_freqs(g)
    for v in fields:
        _leakage_check(gr.transform(v) if v.space == "x" else v, gamma_vals)
    u = np.array([v.values if v.space == "x" else
                  gr.inverse_transform(v).values for v in fields])
    xi_flat = g.freq_stack().reshape(-1, 2)
    gam_flat = gamma_vals.ravel()
    # the zero mode is never warped: the map is undefined at xi = 0 and
    # every admissible cutoff is negligible there
    live = (gam_flat > 1e-14) & (np.linalg.norm(xi_flat, axis=-1) > 0)
    out = np.zeros((len(u), xi_flat.shape[0]), dtype=complex)
    if np.any(live):
        # eval_offgrid of every field at once
        out[:, live] = gam_flat[live] * (gr._phase_sum(
            u, g.axis_points(), plan.warp(xi_flat[live]), -1) * g.h ** 2)
    out = [gr.inverse_transform(gr.Field(g, v.reshape(g.shape), "xi"))
           for v in out]
    return out[0] if isinstance(f, gr.Field) else out


# ---------------------------------------------------------------------------
# change of variables


def apply_change_of_vars(kappa_spec, gamma, f):
    """J_gamma u = (gamma u) o kappa, by spectral interpolation, for the
    rotation kappa(x) = R_theta x of the plane, kappa_spec
    "rotation:theta=..", and the cutoff gamma, a ``grid.Cutoff``.
    """
    g = f.grid
    if not kappa_spec.startswith("rotation:theta="):
        raise ValueError(f"unknown change-of-variables spec {kappa_spec!r}")
    th = float(kappa_spec.split("=", 1)[1])
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    target = gr.Field(g, gamma.on_coords(g) * f.values, "x")
    src = g.coord_stack().reshape(-1, 2) @ R.T
    return gr.Field(g, gr.eval_field_offgrid(target, src).reshape(g.shape),
                    "x")


# ---------------------------------------------------------------------------
# exact commutation


def commutator_residual(pair, h, f, multiplier=None):
    """Relative norm of [Omega(X, D), m(D)] u.

    Default m = h(p(xi)), a scalar profile of the symbol; any function of
    p commutes with the quantized Omega up to discretization because
    Omega is linear in x and grad_x Omega . grad p = 0.  Passing an
    explicit ``multiplier`` (e.g. h(xi_1)) gives the non-commuting control.
    """
    g = f.grid
    if multiplier is None:
        def multiplier(xs):
            r = np.linalg.norm(xs, axis=-1)
            vals = np.zeros_like(r)
            pos = r > 0
            vals[pos] = h(pair.primal(xs[pos]))
            return vals
    # Omega has orders (1, 1): its plan puts no low-frequency guard on it
    om = SeparablePlan(sy.omega_phase_symbol(pair), g)
    a_then_m = apply_multiplier(_apply_plan(om, f), multiplier)
    m_then_a = _apply_plan(om, apply_multiplier(f, multiplier))
    diff = gr.Field(g, a_then_m.values - m_then_a.values, "x")
    return diff.norm() / f.norm()


# ---------------------------------------------------------------------------
# amplitude operators and boundedness ratios


@dataclass
class SeparableAmplitude:
    """a(x, y, xi) = sum_r f_r(x) g_r(y) m_r(xi), with declared x-order m.

    T_a u = (2 pi)^2 sum_r f_r . m_r(D)(g_r u) under the discrete
    normalization (a == 1 gives T_a = (2 pi)^2 identity).
    """

    label: str
    terms: list
    m: float = 0.0

    def __call__(self, x, y, xi):
        return sum(fx(x) * fy(y) * fxi(xi) for fx, fy, fxi in self.terms)


def apply_amplitude(f, amp):
    """T_a u for a separable amplitude."""
    g = f.grid
    X = g.coord_stack()
    out = np.zeros(g.shape, dtype=complex)
    for fx, fy, fxi in amp.terms:
        src = gr.Field(g, np.asarray(fy(X), dtype=complex) * f.values, "x")
        piece = apply_multiplier(src, lambda xs, fxi=fxi: fxi(xs))
        out += np.asarray(fx(X), dtype=complex) * piece.values
    return gr.Field(g, (2.0 * np.pi) ** 2 * out, "x")


def dilate(f, lam):
    """u_lambda(x) = u(x / lambda), by spectral interpolation."""
    g = f.grid
    pts = g.coord_stack().reshape(-1, 2) / lam
    vals = gr.eval_field_offgrid(f, pts).reshape(g.shape)
    return gr.Field(g, vals, "x")


def _dilation_family_member(f, lam, carrier=None, center=None, spread=True):
    """Family member at parameter lam: the envelope dilated by lam (or kept
    fixed when spread=False), recentred at lam*center, and remodulated onto
    a fixed carrier.  Fixed carrier keeps the frequency content constant so
    the family probes spatial growth declarations only; the translated
    variant walks the weight region without outgrowing the box.
    """
    g = f.grid
    if spread and lam != 1.0:
        ul = dilate(f, lam)
    else:
        ul = f
    if center is not None:
        shift = lam * np.asarray(center, dtype=float)
        ul = apply_multiplier(ul, lambda xi: np.exp(
            -1j * np.tensordot(xi, shift, axes=([-1], [0]))))
    if carrier is None:
        return ul
    phase = np.exp(1j * np.tensordot(g.coord_stack(), np.asarray(carrier),
                                     axes=([-1], [0])))
    return gr.Field(g, phase * ul.values, "x")


# the dilation parameters lam of the family u_lam in the boundedness checks
DILATIONS = (1.0, 2.0, 4.0, 8.0)


def fio_bound_ratio(amp, f):
    """Ratios ||T_a u_lam||_{L^2} / ||u_lam||_{L^2_m} over the dilation
    family remodulated onto the carrier (3, 0); bounded iff max/min <=
    slack (caller judges).
    """
    ratios = []
    for lam in DILATIONS:
        ul = _dilation_family_member(f, lam, (3.0, 0.0))
        tu = apply_amplitude(ul, amp)
        ratios.append(gr.weighted_norm(tu, 0.0) / gr.weighted_norm(ul, amp.m))
    return ratios


def structure_spot_check(pair, a):
    """Verify a(x, xi) vanishes on the orbit set at 64 points drawn with
    seed 0: StructureViolation where it exceeds 1e-6 times its size at a
    rotated off-orbit companion point.
    """
    rng = np.random.default_rng(0)
    k = rng.normal(size=(64, 2))
    lam = np.exp(rng.uniform(-1.0, 1.0, 64))
    gp = pair.primal.gradient(k)
    x_on = lam[:, None] * gp
    perp = np.stack([-gp[:, 1], gp[:, 0]], axis=-1)
    x_off = lam[:, None] * perp
    on = np.abs(a(x_on, k))
    off = np.abs(a(x_off, k))
    scale = np.maximum(off, 1e-300)
    if np.max(on / scale) > 1e-6:
        raise StructureViolation(
            f"symbol does not vanish on the orbit set "
            f"(relative size {np.max(on / scale):.2e})")


def basiclem_ratio(pair, a, m, f):
    """LHS/RHS of the structure inequality

        ||a(X,D)u|| <= C (||Omega(X,D)u||_{L^2_{m-1}} + ||u||_{L^2_{m-1}})

    over the dilation family remodulated onto the carrier (3, 0).  The
    symbol must vanish on the orbit set (StructureViolation otherwise);
    a and Omega are one SeparablePlan each for the whole family.
    """
    structure_spot_check(pair, a)
    g = f.grid
    a_plan = SeparablePlan(a, g)
    om = SeparablePlan(sy.omega_phase_symbol(pair), g)
    ratios = []
    for lam in DILATIONS:
        ul = _dilation_family_member(f, lam, (3.0, 0.0))
        lhs = _apply_plan(a_plan, ul).norm()
        rhs = gr.weighted_norm(ul, m - 1.0)
        rhs += gr.weighted_norm(_apply_plan(om, ul), m - 1.0)
        ratios.append(lhs / rhs)
    return ratios


def egorov_residual(a, plan, m, f, lams=DILATIONS, carrier=None,
                    center=None):
    """Weighted residual ratios of the conjugation identity

        a(X,D) I_gamma = I_gamma a~(X,D) + R,
        a~(x, xi) = a0(x psi'(psi^{-1}(xi)), psi^{-1}(xi)),

    i.e. max over the family of ||(a(X,D) I_g - I_g a~(X,D)) u_lam|| /
    ||u_lam||_{L^2_{m-1}}.  Bounded ratios (not smallness) are the claim.
    The family keeps f's envelope: u_lam is f recentred at lam*center and
    remodulated onto carrier.
    a~(X,D) acts on the whole family in one direct quadrature; a(X,D)
    needs separable terms and is one plan for the whole family.  All
    2 len(lams) canonical warps, of the family and of a~(X,D) applied to
    it, are one stacked apply_canonical call, which still checks each
    field for CutoffLeakage.
    """
    g = f.grid
    kept = np.flatnonzero(plan.cutoff.on_freqs(g) > 1e-14)
    eta = sy.psi_inv(plan.pair, g.freq_stack().reshape(-1, 2)[kept])
    # psi'(psi^{-1}(xi_k)) side by side: x psi' for all kept k is one product
    J_cat = sy.psi_jacobian(plan.pair, eta).transpose(1, 0, 2).reshape(2, -1)

    def a_tilde(xb):
        return a((xb @ J_cat).reshape(len(xb), -1, 2), eta[None])

    family = [_dilation_family_member(f, lam, carrier, center, False)
              for lam in lams]
    uh = np.stack([gr.transform(ul).values.ravel()[kept] for ul in family],
                  axis=1)
    tilde = _kn_sum(g, a_tilde, kept, uh)
    # I_gamma u_lam and I_gamma a~(X,D) u_lam for the whole family at once
    warped = np.array([w.values for w in apply_canonical(plan, family + [
        gr.Field(g, col.reshape(g.shape), "x") for col in tilde.T])])
    a_plan = SeparablePlan(a, g)
    left = a_plan.apply(np.fft.fftn(warped[:len(family)], axes=a_plan.axes))
    ratios = []
    for ul, lw, rw in zip(family, left, warped[len(family):]):
        diff = gr.Field(g, lw - rw, "x")
        ratios.append(diff.norm() / gr.weighted_norm(ul, m - 1.0))
    return ratios
