"""Experiment layer: smoothing-norm functionals and sweeps, limiting
absorption norm ladders, the surface restriction estimate, the duality
identity and the weighted-convolution oracle.

All randomness flows through seeded generators recorded in the results;
sweeps are reproducible bit for bit at any BLAS thread count (norms are
plain reductions).  Smoothing and LAP loops run as stacks of spectra.
The sweeps, smoothing_ratio and operator_norm take their experiment
parameters by keyword, without defaults: the one copy of the defaults is
the CLI registry (``slab.cli.KINDS``).
"""

import io
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import evolve as ev
from . import grid as gr
from . import quantize as qu
from .errors import (BandExceeded, ExponentViolation, InvalidRatio,
                     MassEscape, ZeroRung)

CSV_HEADER = "symbol,p,N,L,T,eps,ratio,mass_ok,seed"
BOUNDED_STEP = 0.10
GROWTH_STEP = 0.25


@dataclass
class SweepResult:
    """Rows of a refinement or regularization sweep plus metadata."""

    symbol: str
    p: str
    rows: list = dc_field(default_factory=list, init=False)
    metadata: dict = dc_field(default_factory=dict)

    def add(self, N, L, T, eps, ratio, mass_ok, seed):
        if not (np.isfinite(ratio) and ratio >= 0):
            raise InvalidRatio(f"ratio {float(ratio)!r} at N = {N}, T = {T}, "
                               f"eps = {eps}; sweep ratios are finite and "
                               "non-negative")
        self.rows.append({"N": N, "L": L, "T": T, "eps": eps,
                          "ratio": float(ratio), "mass_ok": bool(mass_ok),
                          "seed": int(seed)})

    def ratios(self):
        return [row["ratio"] for row in self.rows]

    def to_csv(self):
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for row in self.rows:
            eps = "" if row["eps"] is None else repr(float(row["eps"]))
            buf.write(",".join([
                self.symbol, self.p, str(row["N"]), repr(float(row["L"])),
                repr(float(row["T"])), eps, repr(row["ratio"]),
                str(int(row["mass_ok"])), str(row["seed"]),
            ]) + "\n")
        return buf.getvalue()


def verdict(ratios):
    """"bounded" if the last two rungs grew by <= BOUNDED_STEP (relative),
    "growing" if every rung grew by >= GROWTH_STEP, else "inconclusive".
    """
    r = np.asarray(ratios, dtype=float)
    if len(r) < 2:
        return "inconclusive"
    steps = np.diff(r) / r[:-1]
    if steps[-1] <= BOUNDED_STEP:
        return "bounded"
    if np.all(steps >= GROWTH_STEP):
        return "growing"
    return "inconclusive"


def make_packet(grid, rng, freq_mag=0.9, spread=0.4):
    """Unit-norm wave packet: spectral Gaussian at a random direction on
    the circle of radius freq_mag, centered at x = 0.

    The spectrum is real, so phi(x) = conj(phi(-x)) up to roundoff; the
    packet is averaged with its conjugate reflection to make that exact
    (a move of ~1e-15 per sample), which lets _smoothing_reports fold
    its time window.
    """
    theta = rng.uniform(0.0, 2.0 * np.pi)
    center = freq_mag * np.array([np.cos(theta), np.sin(theta)])
    phi = gr.spectral_packet(grid, center, spread).values
    return gr.Field(grid, 0.5 * (phi + np.conj(grid.reflect(phi))), "x")


# ---------------------------------------------------------------------------
# smoothing norms


@dataclass
class SmoothingReport:
    ratio: float
    tail: float
    mass_min: float
    # containment measured against the inscribed radius L, reported even
    # when the escape gate uses the full-box radius
    mass_min_inscribed: float = 1.0


# bytes per smoothing stack chunk (one field at least); it sets peak RSS
_STACK_BYTES = 1 << 18


def smoothing_ratio(sigma, spec, phi, T, dt, *, monitor_radius, mass_tol):
    """Space-time smoothing quotient

        int_{-T}^{T} ||sigma(X, D) u(t)||^2 dt / ||phi||^2

    by trapezoidal quadrature over the exact trajectory, kept in xi-space
    (sigma needs separable terms).  The tail indicator (endpoint / peak
    integrand) flags window truncation; the mass monitor, wrap-around.
    """
    return _smoothing_reports(qu.SeparablePlan(sigma, phi.grid), replace(
        spec, T=T, dt=dt), phi.values[None], monitor_radius, mass_tol)[0]


def _time_reversible(plan, phis, masks):
    """Whether u(-t) = conj(u(t)(-x)) makes the smoothing integrand and
    both mass fractions even in t, by exact comparisons: every packet is
    its own conjugate reflection, the x-factors are real and even in x,
    the multipliers are real and each monitor mask is even in x.

    Then conj(e^{-itP} a) = e^{itP} conj(a) for the real lattice values
    of P, and on the lattice reflect(conj(ifftn(a))) is an inverse FFT of
    conj(a) mode by mode (a phase e^{2 pi i k / N} on the half-cell lattice),
    so neither P nor the multipliers need to be even in xi.
    """
    g = plan.grid
    return (not np.any(plan.x.imag) and not np.any(plan.m.imag)
            and np.array_equal(plan.x, g.reflect(plan.x))
            and np.array_equal(phis, np.conj(g.reflect(phis)))
            and all(mask is None or np.array_equal(mask, g.reflect(mask))
                    for mask in masks))


def _smoothing_reports(plan, spec, phis, monitor_radius, mass_tol):
    """smoothing_ratio's report for each x-space packet of the stack phis.
    The loop steps through the time samples one at a time; a sample's
    trials run as FFT-native stacks of at most _STACK_BYTES (one field at
    least).  MassEscape is raised at the first time sample (lowest trial
    first) whose mass inside monitor_radius falls below mass_tol.

    When _time_reversible holds (make_packet's packets with every registry
    weight but tau over a symbol that is not even) the window is folded:
    only the samples t <= 0 run, in natural order, and each t > 0 takes
    its mirror's values, which halves the work.  A mirror's mass equals
    its own, so MassEscape still fires at the same first sample.
    Otherwise the same loop runs the full window.
    """
    g, S = plan.grid, len(phis)
    phase = ev.PropagatorPhase(spec, g)
    window = spec.times()
    vh = np.fft.fftn(phis, axes=plan.axes)
    # a mask over the whole box (the CLI's default monitor radius, the
    # half-diagonal) holds fraction 1 exactly: None skips its sum
    masks = [g.radius() <= rad for rad in (monitor_radius, g.L)]
    masks = [None if np.all(inside) else inside for inside in masks]
    times = (window[:(len(window) + 1) // 2]
             if _time_reversible(plan, phis, masks) else window)
    cols = max(1, _STACK_BYTES // vh[0].nbytes)
    # integrand, mass fraction in the monitor radius, in the box; (t, trial)
    out = np.empty((3, len(times), S))
    for j, t in enumerate(times):
        e = phase([t])[0]
        for s in range(0, S, cols):
            wh = e * vh[s:s + cols]
            blk = out[:, j, s:s + cols]     # a view: writes land in out
            mass = np.fft.ifftn(wh, axes=plan.axes, out=np.empty_like(wh))
            mass = mass.real ** 2 + mass.imag ** 2
            total = np.sum(mass, axis=plan.axes)
            for k, inside in enumerate(masks, 1):
                blk[k] = 1.0 if inside is None else np.sum(
                    mass * inside, axis=plan.axes) / total
            low = np.flatnonzero(blk[1] < mass_tol)
            if len(low):
                raise MassEscape(f"containment {blk[1][low[0]]:.5f} < "
                                 f"{mass_tol} at t = {t:+.3f}")
            blk[0] = g.h ** 2 * gr.sq_sum(plan.apply(wh))
    # the samples t > 0 a folded window skipped are their mirrors' values
    out = np.concatenate(
        [out, out[:, :len(window) - len(times)][:, ::-1]], axis=1)
    weights = np.ones(len(window))
    weights[0] = weights[-1] = 0.5
    norm2 = g.h ** 2 * gr.sq_sum(phis)
    mass_min = np.minimum(1.0, out[1:].min(axis=1))
    return [SmoothingReport(
        float(np.sum(weights * f) * spec.dt / norm2[s]),
        float(max(f[0], f[-1]) / f.max()) if f.max() > 0 else 0.0,
        float(mass_min[0, s]), float(mass_min[1, s]))
        for s, f in enumerate(out[0].T)]


def smoothing_sweep(sigma, spec_pair, ladder, *, trials, seed, dt, order,
                    freq_mag, spread, monitor_scale, mass_tol,
                    sigma_label=None):
    """Max smoothing quotient per refinement rung over random packets.

    ladder: iterable of (N, L, T), one grid and window per rung; the
    lattice spacing h = 2L/N is whatever the rung gives (the bench and
    crit 08 ladders fix N and double L with T, so h doubles too).  The
    packets' spectra sit at freq_mag with width spread on every rung.  A
    rung's packets run as one stack.
    """
    label = sigma_label or getattr(sigma, "label", "sigma")
    result = SweepResult(label, spec_pair.primal.label,
                         metadata={"trials": trials, "kind": "smoothing"})
    ladder = list(ladder)
    root = np.random.SeedSequence(seed)
    for (N, L, T), ss in zip(ladder, root.spawn(len(ladder))):
        g = gr.make_grid(N, float(L))
        spec = ev.EvolutionSpec(spec_pair, order=order, T=float(T), dt=dt)
        phis = np.array([
            make_packet(g, np.random.default_rng(cs), freq_mag, spread).values
            for cs in ss.spawn(trials)])
        reports = _smoothing_reports(qu.SeparablePlan(sigma, g), spec, phis,
                                     monitor_scale * float(L), mass_tol)
        best = max(reports, key=lambda rep: rep.ratio)
        # mass_ok records containment against the inscribed radius L even
        # when the escape gate runs at a larger monitor radius
        result.add(N, L, T, None, best.ratio,
                   all(rep.mass_min_inscribed >= mass_tol for rep in reports),
                   seed)
    result.metadata["verdict"] = verdict(result.ratios())
    return result


# ---------------------------------------------------------------------------
# limiting absorption


def operator_norm(ops, grid, *, iters, starts, seed):
    """Randomized power iteration on B*B, all random starts as one stack:
    ops is the pair (B, B_star) of maps on (starts, *grid.shape) stacks of
    x-samples.  Returns the largest singular-value estimate."""
    B, B_star = ops
    rng = np.random.default_rng(seed)
    shape = grid.shape
    v = np.array([rng.normal(size=shape) + 1j * rng.normal(size=shape)
                  for _ in range(starts)])
    est = np.zeros(starts)
    for k in range(iters):
        # a start whose vector vanished keeps its last estimate
        nv = np.sqrt(gr.sq_sum(v))
        w = B(v)
        est = np.where(nv > 0, np.sqrt(gr.sq_sum(w))
                       / np.where(nv > 0, nv, 1.0), est)
        if k == iters - 1:
            break     # the next start vector would go unread
        z = B_star(w)
        nz = np.sqrt(gr.sq_sum(z))
        v = z / np.where(nz > 0, nz, 1.0).reshape(-1, 1, 1)
    return float(est.max())


def lap_sweep(sigma, spec_pair, grid, *, d, eps_list, trials, seed, order,
              check_structure, iters, cell_quad, chi=None, sigma_label=None):
    """Operator-norm ladder of sigma(X,D) (L_p - d - i eps)^{-1} chi(D)
    sigma(X,D)^* over the dyadic regularization ladder (ValueError unless
    every eps is positive).
    """
    if check_structure:
        qu.structure_spot_check(spec_pair, sigma)
    if chi is None:
        chi = gr.annular(2.0 * grid.dxi, 4.0 * grid.dxi,
                         0.6 * grid.nyquist, 0.8 * grid.nyquist)
    label = sigma_label or getattr(sigma, "label", "sigma")
    result = SweepResult(label, spec_pair.primal.label,
                         metadata={"trials": trials, "kind": "lap", "d": d})
    plan = qu.SeparablePlan(sigma, grid)
    geometry = ev.ResolventGeometry(ev.EvolutionSpec(spec_pair, order=order),
                                    grid, cell_quad)

    def sandwich(mult):
        return lambda v: plan.apply(mult * plan.adjoint(v))

    ladder = geometry.ladder(d, eps_list, chi=chi)
    for k, (eps, rung) in enumerate(zip(eps_list, ladder)):
        mult = qu.multiplier_values(grid, rung)
        nrm = operator_norm((sandwich(mult), sandwich(np.conj(mult))), grid,
                            iters=iters, starts=trials, seed=seed + k)
        if nrm == 0:
            raise ZeroRung(f"operator norm estimate is 0 at eps = {eps!r}")
        result.add(grid.N, grid.L, 0.0, eps, nrm, True, seed)
    ratios = result.ratios()
    result.metadata["max_over_min"] = float(max(ratios) / min(ratios))
    result.metadata["verdict"] = ("bounded"
                                  if max(ratios) / min(ratios) <= 2.0
                                  else "growing")
    result.metadata["stabilized_at"] = ev.stabilization_index(ratios)
    return result


# ---------------------------------------------------------------------------
# surface restriction


# quadrature nodes on a surface rho Sigma_p
_SURFACE_ANGLES = 512


def surface_nodes(pair, rho):
    """_SURFACE_ANGLES quadrature nodes on the dilated level set
    rho Sigma_p, equally spaced in angle.

    Returns (points, angular weights, p(omega) values).  The norm uses
    the measure rho d_theta / p(omega)^2, which by the coarea formula
    equals the surface element ds / |grad p| on the curve.
    """
    theta = 2.0 * np.pi * np.arange(_SURFACE_ANGLES) / _SURFACE_ANGLES
    omega = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    p_om = pair.primal(omega)
    pts = rho * omega / p_om[:, None]
    w = np.full(_SURFACE_ANGLES, 2.0 * np.pi / _SURFACE_ANGLES)
    return pts, w, p_om


def surface_norm(fhat_eval, pair, rho, band_limit=None):
    """sqrt of int |fhat|^2 rho dmu over rho Sigma_p."""
    pts, w, p_om = surface_nodes(pair, rho)
    if band_limit is not None and np.max(np.linalg.norm(pts, axis=-1)) \
            > band_limit:
        raise BandExceeded(
            f"surface at rho = {rho} leaves the usable frequency band")
    vals = fhat_eval(pts)
    return float(np.sqrt(rho * np.sum(w * np.abs(vals) ** 2 / p_om**2)))


def restriction_norm(plan, pair, f, rho):
    """Surface norm of the transform of sigma(X,D)^* f, over ||f||, for
    the SeparablePlan of sigma on f's grid."""
    g = gr.Field(f.grid, np.fft.ifftn(plan.adjoint(f.values)), "x")
    return surface_norm(lambda pts: gr.eval_offgrid(g, pts), pair, rho,
                        band_limit=0.95 * f.grid.nyquist) / f.norm()


def restriction_scaling(sigma, pair, grid, *, rhos, trials, seed):
    """Max restriction ratio per dyadic rho over a dilated trial family.

    Each trial draws a random packet with spectrum in the band (0.8, 1.3)
    and pairs rho with the parabolic dilation f_rho(x) = rho f(rho x),
    so the homogeneous orders of sigma are probed exactly.
    """
    rng = np.random.default_rng(seed)
    plan = qu.SeparablePlan(sigma, grid)
    lo, hi = 0.8, 1.3
    mid, spread = 0.5 * (lo + hi), 0.25 * (hi - lo)
    out = []
    for rho in rhos:
        best = 0.0
        for _ in range(trials):
            f = make_packet(grid, rng, rho * mid, rho * spread)
            best = max(best, restriction_norm(plan, pair, f, rho))
        out.append(best)
    return out


# ---------------------------------------------------------------------------
# duality


def duality_check(sigma, spec_pair, grid, *, T, n_times, trials, seed,
                  order):
    """Max adjoint defect of the space-time pairing

        <sigma(X,D) e^{-i t L} phi, v>_{t,x}
            = <phi, sum_j w_j dt e^{+i t_j L} sigma(X,D)^* v_j>_x,

    the discrete version of the transform-side T* formula (the adjoint
    evaluates the space-time transform of v on the characteristic
    surface tau = -p(xi)^order).
    """
    spec = ev.EvolutionSpec(spec_pair, order=order, T=T,
                            dt=2.0 * T / (n_times - 1))
    times = spec.times()
    w = np.full(len(times), spec.dt)    # trapezoid weights times dt
    w[0] = w[-1] = 0.5 * spec.dt
    rng = np.random.default_rng(seed)
    hq = grid.h ** 2
    plan = qu.SeparablePlan(sigma, grid)
    phase = ev.PropagatorPhase(spec, grid)     # e^{-i t L}
    worst = 0.0
    for _ in range(trials):
        phi = make_packet(grid, rng)
        phi_hat = np.fft.fftn(phi.values)
        vs = np.array([rng.normal(size=grid.shape)
                       + 1j * rng.normal(size=grid.shape) for _ in times])
        lhs = 0.0 + 0.0j
        acc = np.zeros(grid.shape, dtype=complex)
        for j, t in enumerate(times):
            su = plan.apply(phase([t])[0] * phi_hat)
            lhs += w[j] * np.sum(np.conj(vs[j]) * su) * hq
            acc += w[j] * phase([-t])[0] * plan.adjoint(vs[j])
        # raw spectra: sum_k conj(fftn a) fftn b = N^2 sum_x conj(a) b
        rhs = np.sum(np.conj(acc) * phi_hat) * hq / grid.N ** 2
        vnorm = np.sqrt(hq * np.sum(w * gr.sq_sum(vs)))
        worst = max(worst, abs(lhs - rhs) / (phi.norm() * vnorm))
    return float(worst)


# ---------------------------------------------------------------------------
# weighted convolution oracle


def hardy_littlewood_oracle(gamma, delta, m_exp, f, *, N, L):
    """LHS/RHS quotient of the weighted convolution inequality on the line

        || int f(y) / (|x|^gamma |x-y|^m |y|^delta) dy ||_{L^2}
            <= C ||f||_{L^2},

    valid for gamma < 1/2, delta < 1/2, m < 1, gamma + delta + m = 1:
    slab's one computation off the plane.  Direct double-sum quadrature
    on staggered grids of [-L, L); the stagger keeps x != y and both off
    the origin.  InvalidRatio when no sample of f is positive, as the
    quotient is then 0/0.
    """
    if not (gamma < 0.5 and delta < 0.5 and m_exp < 1):
        raise ExponentViolation("need gamma, delta < 1/2 and m < 1")
    if abs(gamma + delta + m_exp - 1) > 1e-12:
        raise ExponentViolation("exponents must sum to 1")
    h = 2.0 * L / N
    x = -L + (np.arange(N) + 0.5) * h
    y = x + h / 3.0
    fy = f(y) if callable(f) else np.asarray(f, dtype=float)
    if np.any(fy < 0):
        raise ValueError("oracle expects non-negative samples")
    kern = 1.0 / (np.abs(x)[:, None] ** gamma
                  * np.abs(x[:, None] - y[None, :]) ** m_exp
                  * np.abs(y)[None, :] ** delta)
    g = kern @ fy * h
    lhs = np.sqrt(np.sum(g**2) * h)
    rhs = np.sqrt(np.sum(fy**2) * h)
    if not rhs > 0:
        raise InvalidRatio(f"no sample of f is positive on [-{L}, {L}) at "
                           f"N = {N}: the quotient is 0/0")
    return float(lhs / rhs)
