"""Periodic sampling lattice of the plane, complex fields, DFT contract,
weighted norms and smooth cutoffs.

The box is [-L, L)^2 with N samples per axis (N a power of two).  The
forward transform carries the quadrature weight h^2 and the inverse
carries (pi/L)^2 / (2 pi)^2, so the discrete pair matches the continuum
conventions

    Fu(xi)   = int e^{-i x.xi} u(x) dx,
    F^{-1}u  = (2 pi)^{-2} int e^{i x.xi} u(xi) dxi

and the discrete Plancherel identity is exact.  Smooth cutoffs are one
``Cutoff`` type, built from a smoothstep band or a super-Gaussian profile.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSize


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

    def coords(self):
        """Spatial coordinate arrays, broadcastable to ``shape``."""
        x = self.axis_points()
        return np.meshgrid(x, x, indexing="ij", sparse=True)

    def freqs(self):
        """Frequency coordinate arrays, broadcastable to ``shape``."""
        xi = self.axis_freqs()
        return np.meshgrid(xi, xi, indexing="ij", sparse=True)

    def radius(self):
        return np.sqrt(sum(c**2 for c in self.coords()))

    def freq_radius(self):
        return np.sqrt(sum(c**2 for c in self.freqs()))

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
        raise InvalidSize(f"N={N} is not a power of two >= 2")
    if L <= 0:
        raise InvalidSize(f"L={L} must be positive")
    return Grid(N=N, L=float(L))


@dataclass(frozen=True)
class Field:
    """Complex samples on a Grid, either in x-space or xi-space."""

    grid: Grid
    values: np.ndarray
    space: str = "x"  # "x" or "xi"

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError("field shape does not match grid")

    def norm(self):
        """L^2 norm under the grid quadrature weight."""
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


def transform(f):
    """Forward transform, x-space field -> xi-space field."""
    g = f.grid
    spec = _corner_phase(g, np.fft.fftn(f.values), -1) * g.h**2
    return Field(g, spec, space="xi")


def inverse_transform(f):
    """Inverse transform, xi-space field -> x-space field."""
    g = f.grid
    out = np.fft.ifftn(_corner_phase(g, f.values, 1)) / g.h**2
    return Field(g, out, space="x")


# bytes of one _phase_sum block's partial sums; it bounds the
# contraction's temporaries whatever the number of targets and columns
_PHASE_BYTES = 1 << 18

# multiply-adds m k n of a complex matrix product that OpenBLAS runs on
# one thread: 0.3.31 runs (63 x 32) @ (32 x 32) on one and (64 x 32) @
# (32 x 32) on two, and this bound keeps a factor of two below that.  A
# threaded product leaves its worker spinning on a core after it returns.
ONE_THREAD_MACS = 1 << 15


def _phase_sum(values, axis, pts, sign):
    """sum_k e^{sign i pts_t . k} values[s, k] over the lattice axis^2, for
    each column s of the (S, N, N) stack ``values`` and each row t of
    ``pts`` (M, 2); returns (S, M).

    The targets go in blocks whose partial sums stay under _PHASE_BYTES.
    A block builds its two per-axis tables e^{sign i pts_td k_d} once for
    all S columns and contracts one axis at a time: O(M S N^2) work, and
    column s gets the same bits whatever S is.  Where a block of
    ONE_THREAD_MACS // N^2 targets still has 32 rows (N <= 32), blocks
    hold at most that many, so each column's first-axis product,
    (targets x N) @ (N x N), runs on one BLAS thread; on larger lattices
    a shared product pays for the second thread.
    """
    S, N = len(values), axis.size
    step = max(1, _PHASE_BYTES // (values[0].nbytes // N * S))
    rows = ONE_THREAD_MACS // N ** 2
    if rows >= 32:
        step = min(step, rows)
    out = np.empty((S, len(pts)), dtype=complex)
    for b in range(0, len(pts), step):
        p = pts[b:b + step]
        # axis 0 by one product per column, then axis 1 by einsum
        part = np.exp(sign * 1j * np.outer(p[:, 0], axis)) @ values
        out[:, b:b + step] = np.einsum(
            "tk,stk->st", np.exp(sign * 1j * np.outer(p[:, 1], axis)), part)
    return out


def spectral_packet(grid, center, spread):
    """Unit-norm packet with a Gaussian spectrum of width spread at center."""
    xi = grid.freq_stack()
    d2 = np.sum((xi - np.asarray(center, dtype=float)) ** 2, axis=-1)
    spec = np.exp(-d2 / (2.0 * spread * spread)).astype(complex)
    f = inverse_transform(Field(grid, spec, "xi"))
    return Field(grid, f.values / f.norm(), "x")


def eval_offgrid(f, targets):
    """Trigonometric interpolation of the transform of ``f`` at arbitrary
    frequencies.

    Evaluates the DFT quadrature sum h^2 sum_j e^{-i x_j . eta} u_j at each
    row of ``targets`` (shape (M, 2)).  This is exact for the periodized
    field; the only error against the continuum transform is the spatial
    mass outside the box.
    """
    g = f.grid
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    return (_phase_sum(f.values[None], g.axis_points(), targets, -1)[0]
            * g.h**2)


def eval_field_offgrid(f, points):
    """Trigonometric interpolation of an x-space field at arbitrary points.

    Uses the spectral representation u(x) = (2 pi)^{-2} dxi^2
    sum_k e^{i x.xi_k} u_hat(xi_k), which interpolates the grid samples
    exactly.
    """
    g = f.grid
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return (_phase_sum(transform(f).values[None], g.axis_freqs(), points,
                       1)[0] * (g.dxi / (2.0 * np.pi)) ** 2)


def weighted_norm(f, m):
    """L^2_m norm with weight <x>^m (or <xi>^m for spectral fields)."""
    g = f.grid
    r2 = g.radius() ** 2 if f.space == "x" else g.freq_radius() ** 2
    return Field(g, (1.0 + r2) ** (m / 2.0) * f.values, f.space).norm()


def mass_fraction(f, radius):
    """Fraction of the field's L^2 mass inside |x| <= radius."""
    total = sq_sum(f.values)
    if total == 0:
        return 1.0
    return float(sq_sum(f.values * (f.grid.radius() <= radius)) / total)


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

