"""Periodic sampling lattice of the plane, complex fields, DFT contract,
weighted norms and smooth cutoffs.

The box is [-L, L)^2 with N samples per axis (N a power of two).  The
forward transform carries the quadrature weight h^2 and the inverse
carries (pi/L)^2 / (2 pi)^2, so the discrete pair matches the continuum
conventions

    Fu(xi)   = int e^{-i x.xi} u(x) dx,
    F^{-1}u  = (2 pi)^{-2} int e^{i x.xi} u(xi) dxi

and the discrete Plancherel identity is exact.  Every FFT in slab is
``fft2``, numpy's fftn over the last two axes bit for bit.  The hot
spectral stacks are pitched (``pitch``): each N-sample row is followed
by one zero, so the stack is (..., N, N + 1) and its [..., :N] view is
the lattice.  Smooth cutoffs are one ``Cutoff`` type, built from a
smoothstep band or a super-Gaussian profile.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SlabError


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-L, L)^2.

    Samples sit at half-cell centers, so no sample hits x = 0 exactly, as
    singular weights |x|^s, s < 0, need.
    """

    N: int
    L: float

    @property
    def h(self):
        return 2.0 * self.L / self.N

    @property
    def dxi(self):
        return np.pi / self.L

    @property
    def nyquist(self):
        return np.pi * self.N / (2.0 * self.L)

    @property
    def shape(self):
        return (self.N, self.N)

    def axis_points(self):
        """Sample coordinates along one axis, ascending."""
        return -self.L + 0.5 * self.h + self.h * np.arange(self.N)

    def axis_freqs(self):
        """Frequency lattice along one axis in FFT order: k dxi for
        k = 0, 1, ..., N/2 - 1, -N/2, ..., -1, the order numpy.fft puts
        its modes in.  Every xi-space array in slab (transform output,
        multipliers, symbol lattices, cutoffs) is laid out this way, so a
        raw np.fft.fftn spectrum meets them index for index."""
        return self.dxi * np.fft.fftfreq(self.N, 1.0 / self.N)

    def radius(self):
        return np.linalg.norm(self.coord_stack(), axis=-1)

    def freq_radius(self):
        return np.linalg.norm(self.freq_stack(), axis=-1)

    def coord_stack(self):
        """Spatial coordinates as an array of shape (N, N, 2)."""
        x = self.axis_points()
        return np.stack(np.meshgrid(x, x, indexing="ij"), axis=-1)

    def freq_stack(self):
        xi = self.axis_freqs()
        return np.stack(np.meshgrid(xi, xi, indexing="ij"), axis=-1)

    def reflect(self, a):
        """a(-x) for x-samples a over the last two axes: on the half-cell
        lattice -x_j = x_{N-1-j}, a flip."""
        return np.flip(a, axis=(-2, -1))


def make_grid(N, L):
    """Build a Grid, validating the lattice parameters."""
    if N < 2 or (N & (N - 1)) != 0:
        raise SlabError(f"N={N} is not a power of two >= 2")
    if L <= 0:
        raise SlabError(f"L={L} must be positive")
    h = 2.0 * L / N
    # a Python float's ** raises OverflowError where * gives inf
    if not np.isfinite(h * h):
        raise SlabError(f"L={L}: the cell area (2L/N)^2 at N={N} is not "
                        "finite")
    return Grid(N=N, L=float(L))


@dataclass(frozen=True)
class Field:
    """Complex samples on a Grid, either in x-space or xi-space: one
    field, or a stack of fields with values of shape (..., N, N).  Norms
    and transforms act field by field, over the last two axes."""

    grid: Grid
    values: np.ndarray
    space: str = "x"  # "x" or "xi"

    def __post_init__(self):
        if self.values.shape[-2:] != self.grid.shape:
            raise ValueError("field shape does not match grid")

    def norm(self):
        """L^2 norm under the grid quadrature weight, per field."""
        g = self.grid
        w = g.h ** 2 if self.space == "x" else (g.dxi / (2.0 * np.pi)) ** 2
        return np.sqrt(w) * np.sqrt(sq_sum(self.values))


def sq_sum(values):
    """sum |values|^2 over the last two axes as a plain reduction, not a
    BLAS dot, so the bits do not depend on the BLAS thread count."""
    return np.sum(values.real ** 2 + values.imag ** 2, axis=(-2, -1))


def _corner_phase(g, v, sign):
    """v times e^{sign i x_0 xi_d} along both axes d, x_0 the first
    sample: the phase between the DFT's index origin and the box corner."""
    phase = np.exp(sign * 1j * g.axis_points()[0] * g.axis_freqs())
    return v * phase[:, None] * phase


def pitch(a):
    """The pitched copy of the (..., N, N) stack a: a (..., N, N + 1)
    array of zeros whose [..., :N] view is a.

    A row of N = 64 complex samples is 1 KiB, so the N entries of a
    lattice column land in 4 of a 32 KiB, 8-way L1's 64 sets, and
    fft2's column pass evicts its own lines; with a row pitch of N + 1
    they spread over all of them.  fft2 runs on the lattice view of a
    pitched stack, while elementwise products and einsums run over the
    whole contiguous array (a ufunc over the strided view is the slow
    path): the pad column stays 0 through every product with a pitched
    factor and adds nothing to a sum."""
    out = np.zeros((*a.shape[:-1], a.shape[-1] + 1), dtype=a.dtype)
    out[..., :-1] = a
    return out


def fft2(a, inverse=False, out=None):
    """np.fft.fftn of a over its last two axes (ifftn when inverse), as the
    two 1-D passes fftn makes: np.fft.fft along axis -1, then along axis
    -2 in place.  The same pocketfft calls in the same order give fftn's
    bits (tobytes-equal), without its n-D argument handling, which costs
    about 14 us a call on a (1, 3, 64, 64) stack.  out, which may be a
    itself, takes the result; else the first pass allocates it.  a and
    out may be lattice views of pitched stacks (``pitch``): the same
    bits, and a column pass about 27 % (N = 64) to 32 % (N = 128) faster
    than on contiguous (..., N, N) stacks."""
    fft = np.fft.ifft if inverse else np.fft.fft
    a = fft(a, axis=-1, out=out)
    return fft(a, axis=-2, out=a)


def transform(f):
    """Forward transform, x-space field -> xi-space field."""
    g = f.grid
    spec = _corner_phase(g, fft2(f.values), -1) * g.h**2
    return Field(g, spec, space="xi")


def _x_samples(g, spectra):
    """inverse_transform's values for the (..., N, N) stack spectra."""
    out = _corner_phase(g, spectra, 1)
    return fft2(out, inverse=True, out=out) / g.h**2


def inverse_transform(f):
    """Inverse transform, xi-space field -> x-space field."""
    return Field(f.grid, _x_samples(f.grid, f.values), space="x")


# bytes of one _phase_sum block's partial sums; it bounds the
# contraction's temporaries whatever the number of targets and columns
_PHASE_BYTES = 1 << 18

# multiply-adds m k n of a complex matrix product that OpenBLAS runs on
# one thread: 0.3.31 runs (63 x 32) @ (32 x 32) on one and (64 x 32) @
# (32 x 32) on two, and this bound keeps a factor of two below that.  A
# threaded product leaves its worker spinning on a core after it returns.
ONE_THREAD_MACS = 1 << 15


def _phase_sum(values, axis, pts, sign):
    """sum_k e^{sign i pts_t . k} values[..., k] over the lattice axis^2,
    for each field of the (..., N, N) stack ``values`` and each row t of
    ``pts`` (M, 2); returns (..., M).

    The targets go in blocks whose partial sums stay under _PHASE_BYTES.
    A block builds its two per-axis tables e^{sign i pts_td k_d} once for
    all S fields and contracts one axis at a time: O(M S N^2) work, and
    each field gets the same bits whatever S is.  Where a block of
    ONE_THREAD_MACS // N^2 targets still has 32 rows (N <= 32), blocks
    hold at most that many, so each field's first-axis product,
    (targets x N) @ (N x N), runs on one BLAS thread; on larger lattices
    a shared product pays for the second thread.
    """
    N, lead = axis.size, values.shape[:-2]
    values = values.reshape(-1, N, N)
    S = len(values)
    step = max(1, _PHASE_BYTES // (values[0].nbytes // N * S))
    rows = ONE_THREAD_MACS // N ** 2
    if rows >= 32:
        step = min(step, rows)
    out = np.empty((S, len(pts)), dtype=complex)
    for b in range(0, len(pts), step):
        p = pts[b:b + step]
        # axis 0 by one product per field, then axis 1 by einsum
        part = np.exp(sign * 1j * np.outer(p[:, 0], axis)) @ values
        out[:, b:b + step] = np.einsum(
            "tk,stk->st", np.exp(sign * 1j * np.outer(p[:, 1], axis)), part)
    return out.reshape(*lead, len(pts))


def spectral_packets(grid, centers, spread):
    """slab's packet builder: unit-norm packets with Gaussian spectra of
    width spread, one at each center of centers (..., 2), as an x-space
    Field of shape (..., N, N) built in one pass; a (2,) center gives one
    packet, an (S, 2) stack S of them, each with the bits of its own
    one-packet build.  The spectrum is real, so phi(x) = conj(phi(-x))
    up to roundoff; each packet is averaged with its conjugate
    reflection to make that exact (a move of ~1e-15 per sample), which
    lets the smoothing loop fold its time window.  SlabError with the
    norm of the first packet whose norm on the grid is not a positive
    finite number (it underflows to 0 on a huge box, or to 0 for a
    vanishing spread, and overflows on a tiny box)."""
    xi = grid.freq_stack()
    centers = np.asarray(centers, dtype=float)
    # the check below reports whatever over- or underflows here
    with np.errstate(all="ignore"):
        d2 = np.sum((xi - centers.reshape(-1, 1, 1, 2)) ** 2, axis=-1)
        spec = np.exp(-d2 / (2.0 * spread * spread)).astype(complex)
        vals = _x_samples(grid, spec)
        # Field.norm, packet by packet
        norm = np.sqrt(grid.h ** 2) * np.sqrt(sq_sum(vals))
    bad = np.flatnonzero(~(np.isfinite(norm) & (norm > 0)))
    if len(bad):
        raise SlabError(f"packet norm {float(norm[bad[0]])!r} at N = "
                        f"{grid.N}, L = {grid.L} is not a positive finite "
                        "number")
    phis = vals / norm[:, None, None]
    phis = 0.5 * (phis + np.conj(grid.reflect(phis)))
    return Field(grid, phis.reshape(*centers.shape[:-1], *grid.shape), "x")


def eval_offgrid(f, targets):
    """Trigonometric interpolation of the transform of ``f``, one field or
    a stack, at arbitrary frequencies: (..., M) for the M rows of
    ``targets`` (M, 2).

    Evaluates the DFT quadrature sum h^2 sum_j e^{-i x_j . eta} u_j at each
    target.  This is exact for the periodized field; the only error
    against the continuum transform is the spatial mass outside the box.
    """
    g = f.grid
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    return _phase_sum(f.values, g.axis_points(), targets, -1) * g.h**2


def eval_field_offgrid(f, points):
    """Trigonometric interpolation of an x-space field at arbitrary points.

    Uses the spectral representation u(x) = (2 pi)^{-2} dxi^2
    sum_k e^{i x.xi_k} u_hat(xi_k), which interpolates the grid samples
    exactly.
    """
    g = f.grid
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return (_phase_sum(transform(f).values, g.axis_freqs(), points, 1)
            * (g.dxi / (2.0 * np.pi)) ** 2)


def weighted_norm(f, m):
    """L^2_m norm with weight <x>^m (or <xi>^m for spectral fields), per
    field."""
    g = f.grid
    r2 = g.radius() ** 2 if f.space == "x" else g.freq_radius() ** 2
    return Field(g, (1.0 + r2) ** (m / 2.0) * f.values, f.space).norm()


def mass_fraction(f, radius):
    """Fraction of each field's L^2 mass inside |x| <= radius; 1 for a
    field that is identically 0."""
    total = sq_sum(f.values)
    inside = sq_sum(f.values * (f.grid.radius() <= radius))
    zero = total == 0
    # [()] makes one field's 0-d array a scalar
    return np.where(zero, 1.0, inside / np.where(zero, 1.0, total))[()]


# ---------------------------------------------------------------------------
# smooth cutoffs


def _smoothstep(t):
    """C-infinity step: 0 for t<=0, 1 for t>=1, built from exp(-1/t)."""
    t = np.asarray(t, dtype=float)
    a = np.zeros_like(t)
    pos = t > 0
    a[pos] = np.exp(-1.0 / t[pos])
    b = np.zeros_like(t)
    neg = t < 1
    b[neg] = np.exp(-1.0 / (1.0 - t[neg]))
    return a / (a + b)


@dataclass(frozen=True)
class Cutoff:
    """Smooth cutoff with values in [0, 1]: ``fn`` of points of shape
    (..., 2), or of scalars for a profile.  A profile composed with a map
    is Cutoff(lambda xi: profile(p(xi)))."""

    fn: object

    def __call__(self, pts):
        return self.fn(np.asarray(pts, dtype=float))

    def on_freqs(self, grid):
        return self(grid.freq_stack())

    def on_coords(self, grid):
        return self(grid.coord_stack())


def _band(lo, lo1, hi1, hi):
    """Profile of t: 0 below lo, 1 on [lo1, hi1], 0 above hi."""
    def band(t):
        up = _smoothstep((t - lo) / (lo1 - lo))
        down = 1.0 - _smoothstep((t - hi1) / (hi - hi1))
        return up * down
    return band


def _super_gaussian(center, width):
    """Profile exp(-((t - center) / width)^8): an entire function of t, so
    its transform decays faster than any Gevrey tail of the band profiles
    (needed by the 1e-8 composition checks)."""
    return lambda t: np.exp(-((t - center) / width) ** 8)


def _radial(profile):
    """The cutoff profile(|pts|)."""
    return Cutoff(lambda pts: profile(np.linalg.norm(pts, axis=-1)))


def radial_bump(core, support):
    """1 within core of the origin, 0 beyond support."""
    return _radial(lambda r: 1.0 - _smoothstep((r - core) / (support - core)))


def annular(lo, lo1, hi1, hi):
    """Annular cutoff: 0 below lo, 1 on [lo1, hi1], 0 above hi."""
    return _radial(_band(lo, lo1, hi1, hi))


def analytic_profile(center, width):
    """Super-Gaussian scalar profile exp(-((t-center)/width)^8)."""
    return Cutoff(_super_gaussian(center, width))


def analytic_ring(center, width):
    """Super-Gaussian ring exp(-((|xi|-center)/width)^8); analytic
    stand-in for an annulus."""
    return _radial(_super_gaussian(center, width))

