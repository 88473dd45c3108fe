"""Spectral propagators for i d_t u = p(D)^m u, the second-order equation
d_t^2 w + p(D)^{2m} w = 0, and the epsilon-regularized resolvent of
L_p = p(D)^m.

Everything is an exact multiplier per time sample; there is no
time-stepping error anywhere in this module.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from . import grid as gr
from . import quantize as qu
from .errors import LowFrequencyMass


@dataclass(frozen=True)
class EvolutionSpec:
    """Dispersive model: generator p(D)^m with the given sign convention.

    sign "-" propagates e^{-i t p(D)^m} (the default, solving
    (i d_t - p(D)^m) u = 0); "+" the conjugate.
    """

    pair: object
    order: int = 2
    sign: str = "-"
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


def schrodinger_propagate(spec, phi, t):
    """u(t) = e^{-/+ i t p(D)^m} phi, exact per lattice mode."""
    pm = symbol_lattice(spec.pair, phi.grid, spec.order)
    s = -1.0 if spec.sign == "-" else 1.0
    return qu.apply_multiplier(phi, np.exp(1j * s * t * pm))


@dataclass(frozen=True)
class WaveState:
    """Displacement and velocity data for the second-order equation."""

    displacement: gr.Field
    velocity: gr.Field
    low_freq_tol: float = 1e-3

    def __post_init__(self):
        g = self.velocity.grid
        vh = gr.transform(self.velocity)
        r = g.freq_radius()
        total = np.sum(np.abs(vh.values) ** 2)
        if total > 0:
            low = np.sum(np.abs(vh.values[r < 2.0 * g.dxi]) ** 2)
            if low / total > self.low_freq_tol:
                raise LowFrequencyMass(
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


def wave_propagate(spec, state, t):
    """Displacement w(t) of the second-order evolution."""
    return wave_state_at(spec, state, t)[0]


def wave_energy(spec, state, t=0.0):
    """Conserved energy ||q(D) w||^2 + ||d_t w||^2 at time t."""
    w, wt = wave_state_at(spec, state, t)
    q = symbol_lattice(spec.pair, w.grid, spec.order)
    qw = qu.apply_multiplier(w, q)
    return qw.norm() ** 2 + wt.norm() ** 2


# ---------------------------------------------------------------------------
# resolvent


# bytes of the multipliers one ResolventGeometry.ladder pass evaluates
# (one rung at least); with its per-line temporaries it sets the pass's
# memory
_LADDER_BYTES = 1 << 17


@dataclass(frozen=True)
class ResolventQuery:
    """(L_p - d -/+ i eps)^{-1} chi(D) with L_p = p(D)^order.

    sign "-" gives -i eps (the + i0 side limit), "+" gives +i eps.
    """

    d: float
    eps: float
    sign: str = "-"
    chi: object = None
    cell_quad: int = 1

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")


class ResolventGeometry:
    """The eps-independent part of resolvent_multiplier, built once per
    (spec, grid, cell_quad) and shared by a ladder's rungs.

    cell_quad > 1 averages each dual cell: once eps drops below the
    lattice spacing, pointwise sampling gives a mode near the
    characteristic set a 1/gap pole the continuum operator lacks.  The
    average is in closed form along the axis best aligned with grad p^m
    (log antiderivative of the linearized symbol, finite uniformly in
    eps) and Gauss-Legendre across it, from p^m and its slope b per line.
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
        self.lines = []
        for j in range(grid.n):
            mask = axis == j
            if not np.any(mask):
                continue
            others = [k for k in range(grid.n) if k != j]
            for offs in np.ndindex(*(cell_quad,) * (grid.n - 1)):
                shift = np.zeros(grid.n)
                shift[others] = 0.5 * h * nodes[list(offs)]
                line = xi[mask] + shift
                lr = np.linalg.norm(line, axis=-1)
                lsafe = np.where((lr > 0)[..., None], line, 1.0)
                pv = np.where(lr > 0, p(lsafe), 1.0)
                b = m * pv ** (m - 1) * p.gradient(lsafe)[..., j]
                self.lines.append((mask, np.prod(0.5 * weights[list(offs)]),
                                   np.where(lr > 0, pv ** m, 0.0),
                                   0.5 * b * h))

    def ladder(self, d, eps_list, sign="-", chi=None):
        """Yield the multiplier of each rung eps of eps_list, chi evaluated
        once.  The rungs go in passes of as many as fit in _LADDER_BYTES; a
        pass meets each cell-quadrature line once, with a (k, 1) complex
        shift and a (k, *shape) accumulator."""
        shifts = -d + 1j * (-1.0 if sign == "-" else 1.0) * np.array(eps_list)
        chi_vals = None if chi is None else chi.on_freqs(self.grid)
        step = max(1, _LADDER_BYTES // (16 * self.grid.N ** self.grid.n))
        for i in range(0, len(shifts), step):
            vals = self._rungs(shifts[i:i + step])
            if chi_vals is not None:
                vals *= chi_vals
            yield from vals

    def _rungs(self, shift):
        """(L_p + shift_k)^{-1}, cell-averaged, for a (k,) shift array."""
        if self.cell_quad <= 1:
            return 1.0 / (self.pm + shift.reshape(-1, *(1,) * self.grid.n))
        shift = shift[:, None]
        vals = np.zeros((len(shift), *self.grid.shape), dtype=complex)
        for mask, w, pm, bh in self.lines:
            p0 = pm + shift
            flat = np.abs(bh) < 1e-12 * np.abs(p0)
            num, den = (np.where(flat, 1.0, p0 + c) for c in (bh, -bh))
            with np.errstate(divide="ignore", invalid="ignore"):
                # 2 bh is b h exactly
                seg = np.where(flat, 1.0 / p0, np.log(num / den) / (2.0 * bh))
            vals[:, mask] += w * seg
        return vals


def resolvent_multiplier(query, spec, grid):
    """(L_p - d -/+ i eps)^{-1} chi on the lattice for one query."""
    return next(ResolventGeometry(spec, grid, query.cell_quad).ladder(
        query.d, [query.eps], query.sign, query.chi))


def epsilon_ladder(k_max=12):
    """Dyadic regularization ladder 2^0 .. 2^{-k_max}."""
    return [2.0 ** -k for k in range(k_max + 1)]


def stabilization_index(values, rel=0.01, window=3):
    """First index at which the sequence has settled: relative change
    below ``rel`` over ``window`` consecutive steps.  Returns None if it
    never stabilizes.
    """
    vals = np.asarray(values, dtype=float)
    for i in range(len(vals) - window):
        seg = vals[i:i + window + 1]
        ref = np.abs(seg[0]) if seg[0] != 0 else 1.0
        if np.all(np.abs(np.diff(seg)) <= rel * ref):
            return i
    return None


# ---------------------------------------------------------------------------
# trajectory dumps


def dump_trajectory(spec, phi, times, directory, prefix="state"):
    """Write each time sample as a field binary plus a JSON manifest."""
    os.makedirs(directory, exist_ok=True)
    names = []
    for k, t in enumerate(times):
        u = schrodinger_propagate(spec, phi, t)
        name = f"{prefix}_{k:04d}.bin"
        gr.save_field(u, os.path.join(directory, name))
        names.append(name)
    manifest = {
        "symbol": spec.pair.primal.label,
        "order": spec.order,
        "sign": spec.sign,
        "times": [float(t) for t in times],
        "files": names,
    }
    with open(os.path.join(directory, f"{prefix}_manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest
