"""Spectral propagators for i d_t u = p(D)^m u, the second-order equation
d_t^2 w + p(D)^{2m} w = 0, and the epsilon-regularized resolvent of
L_p = p(D)^m.

Everything is an exact multiplier per time sample; there is no
time-stepping error anywhere in this module.
"""

from dataclasses import dataclass

import numpy as np

from . import grid as gr
from . import quantize as qu
from .errors import SlabError


@dataclass(frozen=True)
class EvolutionSpec:
    """Dispersive model: generator p(D)^m, propagated as e^{-i t p(D)^m},
    which solves (i d_t - p(D)^m) u = 0; the conjugate propagator is the
    one at -t.
    """

    pair: object
    order: int = 2
    T: float = 1.0
    dt: float = 0.1

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order m must be a positive integer")
        if self.dt <= 0:
            raise ValueError("dt must be positive")

    def times(self):
        """Uniform samples of [-T, T] including both endpoints; ValueError
        unless dt divides 2T (to 1e-9 steps)."""
        n = int(round(2.0 * self.T / self.dt))
        if abs(2.0 * self.T / self.dt - n) > 1e-9:
            raise ValueError(f"dt = {self.dt!r} does not divide "
                             f"2T = {2.0 * self.T!r}")
        return -self.T + self.dt * np.arange(n + 1)


def symbol_lattice(pair, grid, power=1):
    """p(xi)^power on the frequency lattice, origin patched to 0 by the
    homogeneous limit.
    """
    xi = grid.freq_stack()
    r = np.linalg.norm(xi, axis=-1)
    safe = np.where((r > 0)[..., None], xi, 1.0)
    vals = pair.primal(safe) ** power
    return np.where(r > 0, vals, 0.0)


def _distinct_rows(key):
    """Distinct rows of the contiguous (P, c) float array key, compared bit
    for bit, and each row's index into them: key == rows[index] exactly.
    One lexsort of the rows' bits puts equal rows side by side (for c = 1
    it is the argsort of the bits)."""
    order = np.lexsort(key.view(np.uint64).T)
    bits = key.view(np.uint64)[order]
    new = np.empty(len(bits), dtype=bool)
    new[0] = True
    np.any(bits[1:] != bits[:-1], axis=1, out=new[1:])
    rows = bits[new].view(float)
    del bits
    index = np.empty(len(order), dtype=np.int32)
    index[order] = np.cumsum(new, dtype=np.int32)
    index -= 1
    return rows, index


# past 2^52 a double keeps no fractional digit
_FRACTION_LIMIT = 2.0 ** 52


class PropagatorPhase:
    """e^{-i t p(D)^m} on the lattice for an array of times, as pitched
    stacks (``grid.pitch``): the [..., :N] view is the lattice and the
    pad column is 0.

    The lattice takes few distinct values of p^m (489 of 4096 modes for
    the euclidean symbol at N = 64), so each call evaluates the complex
    exponential once per distinct value and time, then gathers: bit for
    bit the exponential over the whole lattice.  The pad column's index
    points at a zero appended to the table, so the gather writes the
    pitched stack in one pass.  SlabError when max |t| max p^m reaches
    2^52: the phase then keeps no fractional digit, and e^{-i t p^m} is
    noise.
    """

    def __init__(self, spec, grid):
        self.grid, self.order = grid, spec.order
        pm, index = _distinct_rows(
            symbol_lattice(spec.pair, grid, spec.order).reshape(-1, 1))
        self.pm = pm[:, 0]
        self.top = float(np.max(np.abs(self.pm)))
        # the pad column reads the table's last entry, a zero
        self.index = gr.pitch(index.reshape(grid.shape))
        self.index[:, -1] = len(self.pm)

    def __call__(self, times):
        """C-contiguous pitched (k, N, N + 1) stack, one phase per time."""
        times = np.reshape(times, (-1, 1))
        t = float(np.max(np.abs(times)))
        if t * self.top >= _FRACTION_LIMIT:
            g = self.grid
            raise SlabError(
                f"|t| = {t:.3g} gives a propagator phase t p(xi)^"
                f"{self.order} of up to {t * self.top:.3g} at N = {g.N}, "
                f"L = {g.L}: past 2^52 it keeps no fractional digit")
        e = np.zeros((len(times), len(self.pm) + 1), dtype=complex)
        e[:, :-1] = np.exp(-times * 1j * self.pm)
        # np.take keeps C order: a strided gather would send the next
        # complex multiply down another loop, which moves its bits
        return np.take(e, self.index, axis=1)


def schrodinger_propagate(spec, phi, t):
    """u(t) = e^{-i t p(D)^m} phi, exact per lattice mode."""
    e = PropagatorPhase(spec, phi.grid)([t])[0]
    return qu.apply_multiplier(phi, e[:, :phi.grid.N])


@dataclass(frozen=True)
class WaveState:
    """Displacement and velocity data for the second-order equation; more
    than 0.1 % of the velocity's spectral mass in |xi| < 2 dxi raises
    SlabError."""

    displacement: gr.Field
    velocity: gr.Field

    def __post_init__(self):
        g = self.velocity.grid
        vh = gr.transform(self.velocity)
        r = g.freq_radius()
        total = np.sum(np.abs(vh.values) ** 2)
        if total > 0:
            low = np.sum(np.abs(vh.values[r < 2.0 * g.dxi]) ** 2)
            if low / total > 1e-3:
                raise SlabError(
                    f"{100 * low / total:.2f}% of velocity spectral mass "
                    "in the excluded low-frequency band")


def wave_state_at(spec, state, t):
    """(w(t), d_t w(t)) solving d_t^2 w + q(D)^2 w = 0, q = p^order:

        w(t) = cos(t q(D)) phi + q(D)^{-1} sin(t q(D)) psi_v.

    The sine term is computed as t sinc(t q), finite at q = 0.
    """
    g = state.displacement.grid
    q = symbol_lattice(spec.pair, g, spec.order)
    c = np.cos(t * q)
    s = t * np.sinc(t * q / np.pi)      # sin(t q)/q, finite at q = 0
    ph = gr.transform(state.displacement).values
    vh = gr.transform(state.velocity).values
    w = gr.inverse_transform(gr.Field(g, c * ph + s * vh, "xi"))
    wt = gr.inverse_transform(gr.Field(g, -q * np.sin(t * q) * ph + c * vh,
                                       "xi"))
    return w, wt


def wave_energy(spec, state, t=0.0):
    """Conserved energy ||q(D) w||^2 + ||d_t w||^2 at time t."""
    w, wt = wave_state_at(spec, state, t)
    q = symbol_lattice(spec.pair, w.grid, spec.order)
    qw = qu.apply_multiplier(w, q)
    return qw.norm() ** 2 + wt.norm() ** 2


# ---------------------------------------------------------------------------
# resolvent


class ResolventGeometry:
    """The eps-independent part of the resolvent (L_p - d - i eps)^{-1},
    built once per (spec, grid, cell_quad) and shared by a ladder's rungs.

    cell_quad > 1 averages each dual cell: once eps drops below the
    lattice spacing, pointwise sampling gives a mode near the
    characteristic set a 1/gap pole the continuum operator lacks.  The
    average is in closed form along the axis best aligned with grad p^m
    (log antiderivative of the linearized symbol, finite uniformly in
    eps) and Gauss-Legendre across it, from p^m and its slope b per line.
    The lines' points take few distinct (p^m, b h / 2) pairs (8448 of
    32768 for the euclidean symbol at N = 64, cell_quad = 8), found by one
    _distinct_rows pass over every node's lines, so each rung evaluates
    its real-arithmetic log (_line_means) once per distinct lattice value
    and gathers, bit for bit the per-line result.
    """

    def __init__(self, spec, grid, cell_quad=1):
        self.grid, self.cell_quad = grid, cell_quad
        if cell_quad <= 1:
            self.pm = symbol_lattice(spec.pair, grid, spec.order)
            return
        nodes, weights = np.polynomial.legendre.leggauss(cell_quad)
        h, m, p = grid.dxi, spec.order, spec.pair.primal
        xi = grid.freq_stack()
        r = np.linalg.norm(xi, axis=-1)
        gc = p.gradient(np.where((r > 0)[..., None], xi, 1.0))
        axis = np.argmax(np.abs(gc), axis=-1)
        # every node's lines (one per lattice point), nodes first, are
        # deduped in one pass
        key = np.empty((len(nodes), *grid.shape, 2))
        for node, rows in zip(nodes, key):
            for j in (0, 1):
                mask = axis == j
                if not np.any(mask):
                    continue
                # the line runs along axis j, offset by the node across it
                shift = np.zeros(2)
                shift[1 - j] = 0.5 * h * node
                line = xi[mask] + shift
                lr = np.linalg.norm(line, axis=-1)
                lsafe = np.where((lr > 0)[..., None], line, 1.0)
                pv = np.where(lr > 0, p(lsafe), 1.0)
                b = m * pv ** (m - 1) * p.gradient(lsafe)[..., j]
                rows[mask] = np.stack([np.where(lr > 0, pv ** m, 0.0),
                                       0.5 * b * h], axis=-1)
        pairs, index = _distinct_rows(key.reshape(-1, 2))
        self.pm, self.bh = (np.ascontiguousarray(c) for c in pairs.T)
        self.lines = [(0.5 * weight, idx) for weight, idx in
                      zip(weights, index.reshape(len(nodes), -1))]

    def ladder(self, d, eps_list, chi=None):
        """Yield (L_p - d - i eps)^{-1} chi(D), the + i0 side limit, for
        each rung eps of eps_list, chi evaluated once; its conjugate is
        the + i eps side.  ValueError unless every eps is positive.

        Each rung runs the formula once on the distinct points (or the
        lattice) and meets each cell-quadrature line once."""
        eps_list = np.array(eps_list, dtype=float)
        if not np.all(eps_list > 0):
            raise ValueError("eps must be positive")
        chi_vals = None if chi is None else chi.on_freqs(self.grid)
        for eps in eps_list:
            vals = self._rung(d, eps)
            if chi_vals is not None:
                vals *= chi_vals
            yield vals

    def _rung(self, d, eps):
        """(L_p - d - i eps)^{-1}, cell-averaged, for one eps > 0."""
        if self.cell_quad <= 1:
            return 1.0 / (self.pm - d - 1j * eps)
        seg = self._line_means(d, eps)
        # every point adds its lines in node order, as one sum per line did
        vals = np.zeros(self.grid.N ** 2, dtype=complex)
        for w, idx in self.lines:
            vals += w * seg[idx]
        return vals.reshape(self.grid.shape)

    def _line_means(self, d, eps):
        """The resolvent's mean over each distinct (p^m, b h / 2) line:
        with a = p^m - d and p0 = a - i eps, log((p0 + bh) / (p0 - bh))
        / (2 bh) in real arithmetic, about a quarter of a complex log's
        time and within 2e-14 of it per value.  The log's real part is
        half the log of ((a + bh)^2 + eps^2) / ((a - bh)^2 + eps^2) (the
        ratio's log, not a log1p, stays accurate where a + bh nears 0),
        its imaginary part atan2(2 eps bh, (a + bh)(a - bh) + eps^2), the
        argument of (p0 + bh) conj(p0 - bh).  A line with |bh| below
        1e-12 |p0| takes 1 / p0.  log and atan2 run in place on contiguous
        work arrays, one loop whatever the dedupe leaves: the rungs run
        while lap_sweep's work stacks live, so temporaries would set its
        peak RSS."""
        a, bh, e2 = self.pm - d, self.bh, eps * eps
        flat = np.abs(bh) < 1e-12 * np.hypot(a, eps)
        seg = np.empty(a.shape, dtype=complex)
        # x / (2 bh) is (x / bh) / 2 exactly, and (2 eps) bh is eps (b h)
        plus, minus = a + bh, np.subtract(a, bh, out=a)
        with np.errstate(divide="ignore", invalid="ignore"):
            arg = np.multiply(plus, minus)
            arg += e2
            np.arctan2(np.multiply(bh, 2.0 * eps), arg, out=arg)
            np.divide(arg, bh, out=arg)
            arg *= 0.5
            seg.imag = arg
            for part in (plus, minus):
                np.square(part, out=part)
                part += e2
            mod = np.log(np.divide(plus, minus, out=plus), out=plus)
            np.divide(mod, bh, out=mod)
            mod *= 0.25
            seg.real = mod
        seg[flat] = 1.0 / (self.pm[flat] - d - 1j * eps)
        return seg


def resolvent_multiplier(spec, grid, d, eps):
    """(L_p - d - i eps)^{-1} on the lattice for one eps, with
    L_p = p(D)^order (see ResolventGeometry.ladder)."""
    return next(ResolventGeometry(spec, grid).ladder(d, [eps]))


def epsilon_ladder(k_max=12):
    """Dyadic regularization ladder 2^0 .. 2^{-k_max}."""
    return [2.0 ** -k for k in range(k_max + 1)]


def stabilization_index(values, rel=0.01):
    """First index at which the sequence has settled: relative change
    below ``rel`` over three consecutive steps.  Returns None if it never
    stabilizes.
    """
    vals = np.asarray(values, dtype=float)
    for i in range(len(vals) - 3):
        seg = vals[i:i + 4]
        ref = np.abs(seg[0]) if seg[0] != 0 else 1.0
        if np.all(np.abs(np.diff(seg)) <= rel * ref):
            return i
    return None

