"""Quantization layer: Fourier multipliers, pseudodifferential operators,
canonical transforms, rotations of the plane and the
exact-commutation / boundedness checks built on them.

Quantization is Kohn-Nirenberg throughout:

    a(X, D) u(x) = (2 pi)^{-2} int e^{i x.xi} a(x, xi) u_hat(xi) d xi,

discretized with the grid's spectral weights.  A symbol singular at
xi = 0 (a negative or fractional xi-order) gets the low-frequency guard,
and no other symbol does.  A symbol is its separable expansion
a = sum_r f_r(x) m_r(xi), applied by a ``SeparablePlan``: one FFT call
for all R terms on a stack of spectra.  The direct O(N^4) quadrature
``_kn_sum`` serves ``apply_pseudo(method="direct")`` and the Egorov
check's warped symbol, which is not separable.  It takes e^{i x.xi} from
per-axis tables of e^{i x_d xi_d}, never pair by pair, over blocks of
lattice points sized in bytes: each block's (points, K) kernel stays
under glibc's 128 KiB mmap threshold, so its temporaries reuse heap
memory instead of faulting in fresh pages on every block.  The Egorov
check pairs each kept mode xi with the kept mode -xi when every
xi-input of the warped symbol agrees bit for bit at the two (an even p;
never a Nyquist-row mode, whose -xi is off the lattice), and the
quadrature evaluates the symbol once per pair, summing
a [cos(x.xi) (v + w) + i sin(x.xi) (v - w)] over the spectra v and w at
xi and -xi.  The canonical transform I_gamma takes one x-space Field,
a single field or a stack, and runs it as one off-grid contraction:
cutoff, warp and phase tables are built once.  Its cutoff is a
``grid.Cutoff``, a profile composed with a map included.  The Egorov
family and the dilation families of the boundedness checks are stacks,
so each operator meets a whole family in one call.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import grid as gr
from . import symbols as sy
from .errors import CutoffLeakage, SlabError


def low_freq_guard(grid):
    """Smooth annular mask killing |xi| < xi_min, identically 1 above
    2 xi_min, where xi_min is two frequency-lattice spacings.
    """
    xi_min = 2.0 * grid.dxi
    r = grid.freq_radius()
    return gr._smoothstep((r - xi_min) / xi_min)


def multiplier_values(grid, m, guard=None, out=None):
    """Multiplier (callable or lattice array) on the frequency lattice,
    times ``guard``; non-finite values are zeroed only where it vanishes.
    The values may be a stack of multipliers, (..., N, N).  Written into
    ``out`` when given: a complex view whose last two axes are the
    lattice; else into an array shaped like the values.
    """
    vals = m(grid.freq_stack()) if callable(m) else m
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(vals), grid.shape),
                       dtype=complex)
    out[...] = vals
    if guard is not None:
        out[~np.isfinite(out) & (guard == 0)] = 0.0
        out *= guard
    if not np.all(np.isfinite(out)):
        raise SlabError("multiplier non-finite on the lattice")
    return out


def apply_multiplier(f, m):
    """m(D) u for a multiplier given as a callable on (..., 2) frequency
    stacks or as a precomputed lattice array; a stack of multipliers, or
    of fields, gives the stack of products.
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
    read-only as pitched (R, N, N + 1) stacks (``grid.pitch``: the
    [..., :N] view is the lattice, the pad column is 0), and so are
    their conjugates from the first ``adjoint`` on.  ``apply`` and
    ``adjoint`` take pitched (..., N, N + 1) stacks with any leading
    batch axes, raw spectra vh = grid.fft2(u) on the lattice view (the
    corner phase and h^2 of ``grid.transform`` cancel between the ends),
    and return pitched stacks: a pass is one multiply over the whole
    (..., R, N, N + 1) work stack, one fft2 call on its lattice view for
    all R terms and one more multiply, in place, and the pad stays 0.
    The term sum is formed in the stack's first term and returned as a
    view of it.  A caller that passes the stack as ``out`` allocates
    nothing per pass, and the view lives until the stack is written
    again; without ``out`` the stack is allocated.  Symbols singular at
    xi = 0 get the low-frequency guard.
    """

    def __init__(self, sigma, grid):
        self.grid, N = grid, grid.N
        # each factor stack goes straight into its pitched lattice view
        fx = sigma.x_factors(grid.coord_stack())
        self.x = np.zeros((len(fx), N, N + 1), dtype=complex)
        self.x[..., :N] = fx
        del fx
        if not np.all(np.isfinite(self.x)):
            raise SlabError("x-factor non-finite on the grid")
        self.m = np.zeros_like(self.x)
        multiplier_values(grid, sigma.xi_factors, _guard_for(sigma, grid),
                          out=self.m[..., :N])
        self.x.flags.writeable = self.m.flags.writeable = False

    @staticmethod
    def term_sum(w):
        """Sum over the term axis of the (..., R, N, N + 1) stack w, formed
        in place in its first term, which is returned: the bits of np.sum
        over that axis, which adds the terms in order."""
        head = w[..., 0, :, :]
        for r in range(1, w.shape[-3]):
            np.add(head, w[..., r, :, :], out=head)
        return head

    def _pass(self, w, inverse, then):
        """Sum over the term axis of then * fft2(w, inverse), for w the
        pitched products of a factor stack with the input; w is
        transformed in place on its lattice view, and the sum is formed
        in its first term."""
        lattice = w[..., :self.grid.N]
        gr.fft2(lattice, inverse, out=lattice)
        np.multiply(w, then, out=w)
        return self.term_sum(w)

    @functools.cached_property
    def _conj(self):
        """conj(x) and conj(m), built by the first adjoint and kept."""
        stacks = np.conj(self.x), np.conj(self.m)
        for stack in stacks:
            stack.flags.writeable = False
        return stacks

    def apply(self, vh, out=None):
        """Pitched x-samples of sigma(X, D) u from the pitched vh =
        fftn(u); out is the work stack, allocated when None."""
        w = np.multiply(self.m, vh[..., None, :, :], out=out)  # the term axis
        return self._pass(w, True, self.x)

    def adjoint(self, v, out=None):
        """Pitched fftn(sigma(X, D)^* v) from pitched x-samples v; out as
        for apply."""
        x_conj, m_conj = self._conj
        w = np.multiply(x_conj, v[..., None, :, :], out=out)
        return self._pass(w, False, m_conj)


def _apply_plan(plan, f):
    """sigma(X, D) u for the SeparablePlan of sigma on f's grid."""
    out = plan.apply(gr.pitch(gr.fft2(f.values)))
    return gr.Field(f.grid, out[..., :f.grid.N], "x")


def _adjoint_plan(plan, f):
    """sigma(X, D)^* f for the SeparablePlan of sigma on f's grid."""
    vh = plan.adjoint(gr.pitch(f.values))[..., :f.grid.N]
    return gr.Field(f.grid, gr.fft2(vh, inverse=True), "x")


def apply_pseudo(f, sigma, method="auto"):
    """sigma(X, D) u on the grid.

    method "separable" (or "auto") applies the symbol's factor stacks
    through a one-shot SeparablePlan; "direct" does the full O(N^4)
    quadrature.  Symbols singular at xi = 0 get the low-frequency annular
    guard.
    """
    if method in ("auto", "separable"):
        return _apply_plan(SeparablePlan(sigma, f.grid), f)
    if method == "direct":
        return _apply_direct(f, sigma, _guard_for(sigma, f.grid))
    raise ValueError(f"unknown method {method!r}")


# glibc's default mmap threshold: _kn_sum keeps each block's (points, K)
# complex kernel, and so the block's temporaries, under it
_KN_BYTES = 1 << 17


def _kn_sum(grid, block, modes, v, w):
    """Direct Kohn-Nirenberg quadrature of (K, S) stacks of spectra v, w:

        out[x, s] = (dxi / 2 pi)^2 sum_k a(x, xi_k)
                    (e^{i x.xi_k} v[k, s] + e^{-i x.xi_k} w[k, s])

    on the x-lattice, over the K lattice modes with flat indices ``modes``;
    block(xb) is the symbol on the (points, K) set, or an array that
    broadcasts to it with K entries on its last axis.  A mode k < len(w) is
    one of a pair: w[k] is the spectrum at -xi_k, where the symbol takes
    its value at xi_k, so the pair's symbol is evaluated, and checked
    finite, once.  A mode past len(w) has w = 0.  With c + i s =
    e^{i x.xi_k} the term is a [c (v + w) + i s (v - w)], which is a e v
    for w = 0: the (points, K) kernel holds a c for a pair and a e for
    the rest and meets [v + w, v] in one product, and a (points, len(w))
    kernel holds a s and meets i (v - w) in another.

    A block is the next lattice points in flat order, as many as keep its
    (points, K) complex kernel under _KN_BYTES and one at least.  Below
    that mmap threshold the block's temporaries (the symbol and its
    intermediates, the gathered phase rows) are heap memory the next block
    reuses; above it each would be fresh pages, faulted in again on every
    block.  As e^{i x.xi} = e^{i x_0 xi_0} e^{i x_1 xi_1}, the two
    per-axis tables e^{i x_d xi_{k,d}} (N x K, gathered at the modes once)
    give each block's phase as two gathered rows, multiplied into the
    kernel buffer that every block reuses.
    """
    K, n = len(modes), len(w)
    table = np.exp(1j * np.outer(grid.axis_points(), grid.axis_freqs()))
    # np.take is row-major; table[:, k] is column-major, a row's entries
    # N * 16 bytes apart, which makes every gathered row a strided read
    col0, col1 = (np.take(table, k, axis=1)
                  for k in np.unravel_index(modes, grid.shape))
    # per-axis point indices
    ax0, ax1 = np.indices(grid.shape).reshape(2, -1)
    x_flat = grid.coord_stack().reshape(-1, 2)
    P = len(x_flat)
    step = min(P, max(1, (_KN_BYTES - 1) // (16 * K)))
    weight = (grid.dxi / (2.0 * np.pi)) ** 2
    rhs = np.concatenate([v[:n] + w, v[n:]]) * weight
    rhs_s = 1j * (v[:n] - w) * weight
    buf = np.empty((step, K), dtype=complex)
    buf_s = np.empty((step, n), dtype=complex)
    out = np.empty((P, v.shape[1]), dtype=complex)
    for i in range(0, P, step):
        b = slice(i, i + step)
        xb = x_flat[b]
        kern, kern_s = buf[:len(xb)], buf_s[:len(xb)]
        np.multiply(col0[ax0[b]], col1[ax1[b]], out=kern)
        sym = block(xb)
        if not np.isfinite(sym).all():
            raise SlabError("symbol non-finite on the sampling set")
        np.multiply(sym[..., :n], kern[:, :n].imag, out=kern_s)
        kern[:, :n] = kern[:, :n].real
        kern *= sym
        del sym     # not alive while the next block's symbol is evaluated
        np.matmul(kern, rhs, out=out[b])
        out[b] += kern_s @ rhs_s
    return out


def _mode_pairs(grid, kept, inputs):
    """Pair each of the modes with ascending flat indices ``kept`` with the
    kept mode at exactly -xi when every row of the (K, ...) arrays
    ``inputs``, the symbol's xi-inputs, agrees bit for bit at the two.
    The zero mode is its own mirror and a Nyquist-row mode's -xi is off
    the lattice, so neither pairs.  Returns indices into ``kept``:
    ``first``, the pairs' lower members and then every unpaired mode, and
    ``second``, the partners of the leading len(second) entries of
    ``first``.
    """
    K, N = len(kept), grid.N
    idx = np.unravel_index(kept, grid.shape)
    mirror = np.ravel_multi_index(tuple((-i) % N for i in idx), grid.shape)
    at = np.minimum(np.searchsorted(kept, mirror), K - 1)
    lower = (kept[at] == mirror) & (at > np.arange(K))
    for i in idx:
        lower &= i != N // 2
    for a in inputs:
        bits = np.ascontiguousarray(a).reshape(K, -1).view(np.uint8)
        lower &= np.all(bits == bits[at], axis=1)
    paired = np.flatnonzero(lower)
    second = at[paired]
    rest = np.ones(K, dtype=bool)
    rest[paired] = rest[second] = False
    return np.concatenate([paired, np.flatnonzero(rest)]), second


def _apply_direct(f, sigma, guard):
    """sigma(X, D) u by direct quadrature over the modes the guard keeps."""
    g = f.grid
    guard = np.ones(g.shape) if guard is None else guard
    kept = np.flatnonzero(guard != 0)
    xi = g.freq_stack().reshape(-1, 2)[kept]
    uh = (gr.transform(f).values * guard).ravel()[kept, None]

    def block(xb):
        return np.broadcast_to(sigma(xb[:, None], xi[None]),
                               (len(xb), len(kept)))

    out = _kn_sum(g, block, kept, uh, uh[:0])
    return gr.Field(g, out.reshape(g.shape), "x")


def apply_pseudo_adjoint(f, sigma):
    """sigma(X, D)^* v = conj-sigma(Y, D) v, the discrete conjugate
    transpose: multiply by conj f_r in x, then apply conj m_r (D).
    """
    return _adjoint_plan(SeparablePlan(sigma, f.grid), f)


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


def _leakage_check(spectra, gamma_vals):
    """CutoffLeakage for each field of the (..., N, N) stack of spectra
    with more than 1 % of its spectral mass on the cutoff's transition
    band, in stack order."""
    power = np.abs(spectra) ** 2
    total = np.sum(power, axis=(-2, -1))
    trans = (gamma_vals > 1e-3) & (gamma_vals < 1.0 - 1e-3)
    part = np.sum(power[..., trans], axis=-1)
    for frac in np.ravel(part / np.where(total > 0, total, 1.0)):
        if frac > 0.01:
            warnings.warn(
                f"{100 * frac:.1f}% of spectral mass sits on the cutoff "
                "transition region", CutoffLeakage)


def apply_canonical(plan, f):
    """I_gamma u = F^{-1}[gamma(xi) u_hat(psi(xi))] for an x-space Field
    u, one field or a stack.

    The warped spectrum is evaluated by exact trigonometric interpolation
    (``grid.eval_offgrid`` at off-lattice frequencies), only where gamma
    is supported.  The cutoff, the warp and the phase tables are built
    once for the whole stack; CutoffLeakage is checked field by field.
    """
    g = f.grid
    gamma_vals = plan.cutoff.on_freqs(g)
    _leakage_check(gr.transform(f).values, gamma_vals)
    xi_flat = g.freq_stack().reshape(-1, 2)
    gam_flat = gamma_vals.ravel()
    # the zero mode is never warped: the map is undefined at xi = 0 and
    # every admissible cutoff is negligible there
    live = (gam_flat > 1e-14) & (np.linalg.norm(xi_flat, axis=-1) > 0)
    out = np.zeros((*f.values.shape[:-2], xi_flat.shape[0]), dtype=complex)
    if np.any(live):
        out[..., live] = gam_flat[live] * gr.eval_offgrid(
            f, plan.warp(xi_flat[live]))
    return gr.inverse_transform(gr.Field(g, out.reshape(f.values.shape),
                                         "xi"))


# ---------------------------------------------------------------------------
# change of variables


def apply_change_of_vars(theta, gamma, f):
    """J_gamma u = (gamma u) o kappa, by spectral interpolation, for the
    rotation kappa(x) = R_theta x of the plane by the angle theta and the
    cutoff gamma, a ``grid.Cutoff``.
    """
    g = f.grid
    R = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
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
    SlabError when m(D) u vanishes identically: the residual would
    then be 0 whatever Omega does.
    """
    g = f.grid
    if multiplier is None:
        def multiplier(xs):
            r = np.linalg.norm(xs, axis=-1)
            vals = np.zeros_like(r)
            pos = r > 0
            vals[pos] = h(pair.primal(xs[pos]))
            return vals
    mu = apply_multiplier(f, multiplier)
    if not np.any(mu.values):
        raise SlabError("m(D) u vanishes on the lattice, so the "
                        "commutator residual would be 0 whatever Omega "
                        "does")
    # Omega has orders (1, 1): its plan puts no low-frequency guard on it
    om = SeparablePlan(sy.omega_phase_symbol(pair), g)
    a_then_m = apply_multiplier(_apply_plan(om, f), multiplier)
    m_then_a = _apply_plan(om, mu)
    diff = gr.Field(g, a_then_m.values - m_then_a.values, "x")
    return diff.norm() / f.norm()


# ---------------------------------------------------------------------------
# boundedness ratios


# the dilation parameters lam of the family u_lam in the boundedness checks
DILATIONS = (1.0, 2.0, 4.0, 8.0)


def _dilation_family(f):
    """The stack of u_lam = f dilated by each lam of DILATIONS, remodulated
    onto the fixed carrier (3, 0), which keeps the frequency content
    constant so the family probes spatial growth declarations only."""
    g = f.grid
    x = g.coord_stack()
    # u_lam(x) = f(x / lam) by spectral interpolation, every lam but
    # DILATIONS[0] = 1 from one transform of f
    dilated = gr.eval_field_offgrid(f, np.concatenate(
        [x.reshape(-1, 2) / lam for lam in DILATIONS[1:]]))
    members = np.concatenate([f.values[None],
                              dilated.reshape(-1, *g.shape)])
    phase = np.exp(1j * np.tensordot(x, np.array([3.0, 0.0]),
                                     axes=([-1], [0])))
    return gr.Field(g, phase * members, "x")


def fio_bound_ratio(a, m, f):
    """Ratios ||a(X,D) u_lam||_{L^2} / ||u_lam||_{L^2_m} for a symbol a
    of declared x-order m, over the dilation family; bounded iff max/min
    <= slack (caller judges).  a is one SeparablePlan applied once to the
    whole family.
    """
    family = _dilation_family(f)
    au = _apply_plan(SeparablePlan(a, f.grid), family)
    return (au.norm() / gr.weighted_norm(family, m)).tolist()


def structure_spot_check(pair, a):
    """Verify a(x, xi) vanishes on the orbit set at 64 points drawn with
    seed 0: SlabError where it exceeds 1e-6 times its size at a
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
        raise SlabError(
            f"symbol does not vanish on the orbit set "
            f"(relative size {np.max(on / scale):.2e})")


def basiclem_ratio(pair, a, m, f):
    """LHS/RHS of the structure inequality

        ||a(X,D)u|| <= C (||Omega(X,D)u||_{L^2_{m-1}} + ||u||_{L^2_{m-1}})

    over the dilation family.  The symbol must vanish on the orbit set
    (SlabError otherwise); a and Omega are one SeparablePlan each,
    applied once to the whole family.
    """
    structure_spot_check(pair, a)
    g = f.grid
    family = _dilation_family(f)
    lhs = _apply_plan(SeparablePlan(a, g), family).norm()
    rhs = gr.weighted_norm(family, m - 1.0)
    rhs += gr.weighted_norm(
        _apply_plan(SeparablePlan(sy.omega_phase_symbol(pair), g), family),
        m - 1.0)
    return (lhs / rhs).tolist()


def egorov_residual(a, plan, m, f, *, carrier, center, lams=DILATIONS):
    """Weighted residual ratios of the conjugation identity

        a(X,D) I_gamma = I_gamma a~(X,D) + R,
        a~(x, xi) = a0(x psi'(psi^{-1}(xi)), psi^{-1}(xi)),

    i.e. max over the family of ||(a(X,D) I_g - I_g a~(X,D)) u_lam|| /
    ||u_lam||_{L^2_{m-1}}.  Bounded ratios (not smallness) are the claim.
    The family keeps f's envelope: u_lam is f recentred at lam*center and
    remodulated onto carrier, one stack built from one transform of f.
    a~(X,D) acts on the whole family in one direct quadrature, with a's
    xi-factors evaluated once at the warped frequencies (SlabError when
    the cutoff keeps no lattice mode); a(X,D) is one plan for the whole
    family.  A kept mode pairs with the kept mode at exactly -xi when the
    rows of psi'(psi^{-1}(xi)) and a's xi-factors at psi^{-1}(xi) agree
    bit for bit at the two, as they do for an even p: a~ is then the same
    at xi and -xi, and the quadrature evaluates it once per pair.  All
    2 len(lams) canonical warps, of the family and of a~(X,D) applied to
    it, are one apply_canonical call on their stack, which still checks
    each field for CutoffLeakage.
    """
    g = f.grid
    kept = np.flatnonzero(plan.cutoff.on_freqs(g) > 1e-14)
    if not len(kept):
        raise SlabError(f"the cutoff band keeps no lattice mode at N = {g.N}, "
                        f"L = {g.L}: it lies past the Nyquist frequency "
                        f"{g.nyquist:.4g} or between modes {g.dxi:.4g} apart")
    xi = g.freq_stack().reshape(-1, 2)
    eta = sy.psi_inv(plan.pair, xi[kept])
    J = sy.psi_jacobian(plan.pair, eta)
    # a's (R, K) stack of xi-factors at eta, evaluated once for every block
    factors = a.xi_factors(eta)
    first, second = _mode_pairs(g, kept, [J, *factors])
    # psi'(psi^{-1}(xi_k)) side by side: x psi' for all evaluated k is one
    # product
    J_cat = J[first].transpose(1, 0, 2).reshape(2, -1)
    factors = factors[:, first]

    def a_tilde(xb):
        x = (xb @ J_cat).reshape(len(xb), -1, 2)
        return sum(f * mr for f, mr in zip(a.x_factors(x), factors))

    S = len(lams)
    # e^{-i xi.(lam center)} for every lam: one vector-matrix product per
    # member, which has the bits of the product with its shift alone
    shifts = np.multiply.outer(lams, np.asarray(center, dtype=float))
    recentre = np.exp(-1j * (shifts[:, None] @ xi.T)).reshape(S, *g.shape)
    carry = np.exp(1j * np.tensordot(g.coord_stack(), np.asarray(carrier),
                                     axes=([-1], [0])))
    family = gr.Field(g, carry * apply_multiplier(f, recentre).values, "x")
    uh = gr.transform(family).values.reshape(S, -1)[:, kept].T
    tilde = _kn_sum(g, a_tilde, kept[first], uh[first], uh[second])
    # I_gamma u_lam and I_gamma a~(X,D) u_lam for the whole family at once
    warped = apply_canonical(plan, gr.Field(g, np.concatenate(
        [family.values, tilde.T.reshape(S, *g.shape)]), "x")).values
    left = SeparablePlan(a, g).apply(gr.pitch(gr.fft2(warped[:S])))
    diff = gr.Field(g, left[..., :g.N] - warped[S:], "x")
    return (diff.norm() / gr.weighted_norm(family, m - 1.0)).tolist()
