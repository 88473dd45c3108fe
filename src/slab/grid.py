"""Periodic sampling lattice, complex fields, DFT contract, weighted norms
and smooth cutoffs.

The box is [-L, L)^n with N samples per axis (N a power of two).  The
forward transform carries the quadrature weight h^n and the inverse
carries (pi/L)^n / (2 pi)^n, so the discrete pair matches the continuum
conventions

    Fu(xi)   = int e^{-i x.xi} u(x) dx,
    F^{-1}u  = (2 pi)^{-n} int e^{i x.xi} u(xi) dxi

and the discrete Plancherel identity is exact.  Smooth cutoffs are one
``Cutoff`` type, built from a smoothstep band or a super-Gaussian profile.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSize, SingularAtOrigin


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-L, L)^n.

    With ``offset`` set, samples sit at half-cell centers so no sample
    hits x = 0 exactly; this is required for singular weights |x|^s, s<0.
    """

    n: int
    N: int
    L: float
    offset: bool = True

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
        return (self.N,) * self.n

    def axis_points(self):
        """Sample coordinates along one axis, ascending."""
        shift = 0.5 * self.h if self.offset else 0.0
        return -self.L + shift + self.h * np.arange(self.N)

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
        return np.meshgrid(*([x] * self.n), indexing="ij", sparse=True)

    def freqs(self):
        """Frequency coordinate arrays, broadcastable to ``shape``."""
        xi = self.axis_freqs()
        return np.meshgrid(*([xi] * self.n), indexing="ij", sparse=True)

    def radius(self):
        return np.sqrt(sum(c**2 for c in self.coords()))

    def freq_radius(self):
        return np.sqrt(sum(c**2 for c in self.freqs()))

    def coord_stack(self):
        """Spatial coordinates as an array of shape (N, ..., N, n)."""
        return np.stack(np.meshgrid(*([self.axis_points()] * self.n),
                                    indexing="ij"), axis=-1)

    def freq_stack(self):
        return np.stack(np.meshgrid(*([self.axis_freqs()] * self.n),
                                    indexing="ij"), axis=-1)

    def reflect(self, a):
        """a(-x) for x-samples a over the last n axes.  On the offset
        lattice -x_j = x_{N-1-j}, a flip; without the offset -x_j =
        x_{-j mod N}, a flip and then a roll by one."""
        axes = tuple(range(-self.n, 0))
        out = np.flip(a, axis=axes)
        return out if self.offset else np.roll(out, 1, axis=axes)


def make_grid(n, N, L, offset=True):
    """Build a Grid, validating the lattice parameters."""
    if N < 2 or (N & (N - 1)) != 0:
        raise InvalidSize(f"N={N} is not a power of two >= 2")
    if L <= 0:
        raise InvalidSize(f"L={L} must be positive")
    if n < 1:
        raise InvalidSize(f"n={n} must be at least 1")
    return Grid(n=n, N=N, L=float(L), offset=bool(offset))


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
        w = g.h ** g.n if self.space == "x" else (g.dxi / (2.0 * np.pi)) ** g.n
        return np.sqrt(w) * np.sqrt(sq_sum(self.values, g.n))


def sq_sum(values, n):
    """sum |values|^2 over the last n axes as a plain reduction, not a BLAS
    dot, so the bits do not depend on the BLAS thread count."""
    return np.sum(values.real ** 2 + values.imag ** 2,
                  axis=tuple(range(-n, 0)))


def _corner_phase(g, v, sign):
    """v times e^{sign i x_0 xi_d} along every axis d, x_0 the first
    sample: the phase between the DFT's index origin and the box corner."""
    phase = np.exp(sign * 1j * g.axis_points()[0] * g.axis_freqs())
    for ax in range(g.n):
        shape = [1] * g.n
        shape[ax] = g.N
        v = v * phase.reshape(shape)
    return v


def transform(f):
    """Forward transform, x-space field -> xi-space field."""
    g = f.grid
    spec = _corner_phase(g, np.fft.fftn(f.values), -1) * g.h**g.n
    return Field(g, spec, space="xi")


def inverse_transform(f):
    """Inverse transform, xi-space field -> x-space field."""
    g = f.grid
    out = np.fft.ifftn(_corner_phase(g, f.values, 1)) / g.h**g.n
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
    """sum_k e^{sign i pts_t . k} values[s, k] over the lattice axis^n, for
    each column s of the (S, N, ..., N) stack ``values`` and each row t of
    ``pts`` (M, n); returns (S, M).

    The targets go in blocks whose partial sums stay under _PHASE_BYTES.
    A block builds its n per-axis tables e^{sign i pts_td k_d} once for
    all S columns and contracts one axis at a time: O(M S N^n) work in any
    dimension, and column s gets the same bits whatever S is.  In the
    plane and above, where a block of ONE_THREAD_MACS // N^n targets
    still has 32 rows (N <= 32 in the plane), blocks hold at most that
    many, so each column's first-axis product, (targets x N) @ (N x
    N^(n-1)), runs on one BLAS thread.  On larger lattices a shared
    product pays for the second thread, and on a line the product is a
    matrix-vector one that the bound does not keep on one thread; there
    the blocks keep their byte size.
    """
    S, N, n = len(values), axis.size, pts.shape[1]
    v = values.reshape(S, N, -1)
    step = max(1, _PHASE_BYTES // (v[0].nbytes // N * S))
    rows = ONE_THREAD_MACS // N ** n
    if n > 1 and rows >= 32:
        step = min(step, rows)
    out = np.empty((S, len(pts)), dtype=complex)
    for b in range(0, len(pts), step):
        p = pts[b:b + step]
        # axis 0 by one product per column, then the last axis each time
        part = np.exp(sign * 1j * np.outer(p[:, 0], axis)) @ v
        for d in range(n - 1, 0, -1):
            part = np.einsum("tk,strk->str",
                             np.exp(sign * 1j * np.outer(p[:, d], axis)),
                             part.reshape(S, len(p), -1, N))
        out[:, b:b + step] = part[..., 0]
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

    Evaluates the DFT quadrature sum h^n sum_j e^{-i x_j . eta} u_j at each
    row of ``targets`` (shape (M, n)).  This is exact for the periodized
    field; the only error against the continuum transform is the spatial
    mass outside the box.
    """
    g = f.grid
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    return (_phase_sum(f.values[None], g.axis_points(), targets, -1)[0]
            * g.h**g.n)


def eval_field_offgrid(f, points):
    """Trigonometric interpolation of an x-space field at arbitrary points.

    Uses the spectral representation u(x) = (2 pi)^{-n} dxi^n
    sum_k e^{i x.xi_k} u_hat(xi_k), which interpolates the grid samples
    exactly.
    """
    g = f.grid
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return (_phase_sum(transform(f).values[None], g.axis_freqs(), points,
                       1)[0] * (g.dxi / (2.0 * np.pi)) ** g.n)


def weighted_norm(f, m):
    """L^2_m norm with weight <x>^m (or <xi>^m for spectral fields)."""
    g = f.grid
    r2 = g.radius() ** 2 if f.space == "x" else g.freq_radius() ** 2
    return Field(g, (1.0 + r2) ** (m / 2.0) * f.values, f.space).norm()


def sample_singular(grid, s):
    """Field of pointwise |x|^s weights on the lattice."""
    if s < 0 and not grid.offset:
        raise SingularAtOrigin(
            "|x|^s with s<0 needs an offset grid (no x=0 sample)")
    r = grid.radius()
    vals = np.asarray(r, dtype=complex) ** s
    return Field(grid, np.broadcast_to(vals, grid.shape).copy())


def mass_fraction(f, radius):
    """Fraction of the field's L^2 mass inside |x| <= radius."""
    total = sq_sum(f.values, f.grid.n)
    if total == 0:
        return 1.0
    return float(sq_sum(f.values * (f.grid.radius() <= radius), f.grid.n)
                 / total)


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
    (..., n), or of scalars for a profile.  A profile composed with a map
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


def _super_gaussian(center, width, power):
    """Profile exp(-((t - center) / width)^power) for an even power: an
    entire function of t, so its transform decays faster than any Gevrey
    tail of the band profiles (needed by the 1e-8 composition checks)."""
    if power % 2:
        raise ValueError("power must be even")
    return lambda t: np.exp(-((t - center) / width) ** power)


def _radial(profile, center=0.0):
    """The cutoff profile(|pts - center|)."""
    center = np.asarray(center)
    return Cutoff(lambda pts: profile(np.linalg.norm(pts - center, axis=-1)))


def radial_bump(core, support, center=0.0):
    """1 within core of ``center``, 0 beyond support."""
    return _radial(lambda r: 1.0 - _smoothstep((r - core) / (support - core)),
                   center)


def annular(lo, lo1, hi1, hi):
    """Annular cutoff: 0 below lo, 1 on [lo1, hi1], 0 above hi."""
    return _radial(_band(lo, lo1, hi1, hi))


def conic(axis, cos_core, cos_support):
    """1 where the cosine of the angle to ``axis`` is at least cos_core,
    0 where it is at most cos_support, and 0 at the origin."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)

    def cone(pts):
        r = np.linalg.norm(pts, axis=-1)
        with np.errstate(invalid="ignore", divide="ignore"):
            c = (pts @ axis) / np.where(r > 0, r, 1.0)
        ang = 1.0 - _smoothstep((cos_core - c) / (cos_core - cos_support))
        return np.where(r > 0, ang, 0.0)
    return Cutoff(cone)


def scalar_profile(lo, lo1, hi1, hi):
    """1D profile h in C_0^inf((lo, hi)), equal to 1 on [lo1, hi1]."""
    return Cutoff(_band(lo, lo1, hi1, hi))


def analytic_profile(center, width, power=8):
    """Super-Gaussian scalar profile exp(-((t-center)/width)^power)."""
    return Cutoff(_super_gaussian(center, width, power))


def analytic_ring(center, width):
    """Super-Gaussian ring exp(-((|xi|-center)/width)^8); analytic
    stand-in for an annulus."""
    return _radial(_super_gaussian(center, width, 8))


# ---------------------------------------------------------------------------
# serialization: flat little-endian complex64 binary with a JSON sidecar


def save_field(f, path):
    """Write row-major little-endian complex64 binary plus JSON sidecar."""
    path = str(path)
    f.values.astype("<c8").tofile(path)
    sidecar = {"n": f.grid.n, "N": f.grid.N, "L": f.grid.L,
               "offset": f.grid.offset}
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh)


def load_field(path):
    path = str(path)
    with open(path + ".json") as fh:
        meta = json.load(fh)
    g = make_grid(meta["n"], meta["N"], meta["L"], meta["offset"])
    vals = np.fromfile(path, dtype="<c8").astype(complex).reshape(g.shape)
    return Field(g, vals)


def export_slice_csv(f, path):
    """Dump the 1D slice along the first axis through index N/2 of every
    other axis as CSV rows (coordinate, real, imag)."""
    g = f.grid
    sl = [slice(None)] + [g.N // 2] * (g.n - 1)
    line = f.values[tuple(sl)]
    x = g.axis_points()
    with open(path, "w") as fh:
        fh.write("coord,re,im\n")
        for xi, v in zip(x, line):
            fh.write(f"{xi!r},{v.real!r},{v.imag!r}\n")
