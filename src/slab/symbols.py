"""Homogeneous symbols, duals, the canonical map and structure symbols.

The central objects are a degree-1 positively homogeneous p(xi) > 0 with
positive level-set curvature, its dual p* (support function of the
unit level set), the frequency warp psi conjugating p(D) to |D|, and the
wedge symbol Omega(x, xi) that vanishes exactly on the classical orbit
set Gamma_p = {(lambda grad p(xi), xi)}.

Everything lives in the plane.  Every derivative is a closed form in
the gradient and Hessian of the primal p: psi' and Omega read p's
curvature and never the dual.  Duals without a closed form are built
by a curvature audit first, then one batched solve of
p*(x) = max {x.sigma : p(sigma) = 1} over all points, a coarse argmax
over angles followed by bracketed Newton steps on the angle.  By the
envelope rule the maximizer is grad p*(x).
"""

import json
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import SlabError

XI_MIN = 1e-12
TOL_ORBIT = 1e-8
KAPPA_MIN = 1e-4
GRAD_TOL = 1e-10


def __getattr__(name):
    # perfbench's tracer counts calls to ``slab.symbols.minimize``; nothing
    # here calls it, and resolving it lazily keeps scipy.optimize out of
    # untraced imports
    if name == "minimize":
        from scipy.optimize import minimize
        return minimize
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass
class HomogeneousSymbol:
    """Degree-1 positively homogeneous function on the plane with
    derivative evaluators.

    ``value`` maps points of shape (..., 2) to positive reals, ``grad``
    to their gradients and ``hess`` to their Hessians (a support dual
    has none, see ``make_dual``).
    """

    dim = 2     # the plane: a class constant the benchmark tracer reads

    label: str
    value: callable
    grad: callable
    hess: callable = None
    metadata: dict = dc_field(default_factory=dict)

    def __call__(self, xi):
        return self.value(np.asarray(xi, dtype=float))

    def gradient(self, xi):
        return self.grad(np.asarray(xi, dtype=float))

    def hessian(self, xi):
        return self.hess(np.asarray(xi, dtype=float))


# ---------------------------------------------------------------------------
# built-in symbols


def euclidean():
    def value(xi):
        return np.linalg.norm(xi, axis=-1)

    def grad(xi):
        with np.errstate(invalid="ignore", divide="ignore"):
            return xi / np.linalg.norm(xi, axis=-1, keepdims=True)

    def hess(xi):
        r = np.linalg.norm(xi, axis=-1)
        u = xi / r[..., None]
        return (np.eye(2) - u[..., :, None] * u[..., None, :]) \
            / r[..., None, None]

    return HomogeneousSymbol("euclidean", value, grad, hess)


def quadratic_form(A):
    """p(xi) = |xi A| for an invertible matrix A; the value is
    sqrt(xi A A^T xi), so A need not be symmetric."""
    A = np.asarray(A, dtype=float)
    M = A @ A.T

    def value(xi):
        return np.sqrt(np.einsum("...i,ij,...j->...", xi, M, xi))

    def grad(xi):
        # xi = 0 yields nan; callers mask the origin mode
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.einsum("...i,ij->...j", xi, M) / value(xi)[..., None]

    def hess(xi):
        p = value(xi)
        g = np.einsum("...i,ij->...j", xi, M)
        return (M / p[..., None, None]
                - g[..., :, None] * g[..., None, :] / p[..., None, None] ** 3)

    label = "quadratic-form:A=" + json.dumps(A.tolist())
    return HomogeneousSymbol(label, value, grad, hess,
                             metadata={"matrix": A})


def perturbed(amp=0.05):
    """p(xi) = |xi| (1 + amp (xi_1/|xi|)^3), a smooth asymmetric bump.

    p > 0 needs |amp| < 1; the level set is convex only for small amp.
    """

    def value(xi):
        r = np.linalg.norm(xi, axis=-1)
        return r + amp * xi[..., 0] ** 3 / r**2

    def grad(xi):
        r = np.linalg.norm(xi, axis=-1)
        g = xi / r[..., None]
        g = g.copy()
        corr = -2.0 * amp * (xi[..., 0] ** 3 / r**4)[..., None] * xi
        corr[..., 0] += 3.0 * amp * xi[..., 0] ** 2 / r**2
        return g + corr

    def hess(xi):
        r2 = np.sum(xi * xi, axis=-1)[..., None, None]
        x0 = xi[..., 0, None, None]
        outer = xi[..., :, None] * xi[..., None, :]
        # e0 xi^T + xi e0^T
        axis = np.zeros_like(outer)
        axis[..., 0, :] += xi
        axis[..., :, 0] += xi
        # the Hessian of the bump x0^3 / r^2
        bump = (6.0 * x0 * np.diag([1.0, 0.0]) - 6.0 * x0**2 * axis / r2
                - 2.0 * x0**3 * np.eye(2) / r2
                + 8.0 * x0**3 * outer / r2**2) / r2
        return (np.eye(2) - outer / r2) / np.sqrt(r2) + amp * bump

    return HomogeneousSymbol(f"perturbed:amp={amp}", value, grad, hess)


# ---------------------------------------------------------------------------
# sampling and the curvature audit


# samples of Sigma_p that the curvature audit checks
_LEVEL_SET_SAMPLES = 512


def level_set_samples(sym):
    """_LEVEL_SET_SAMPLES points on Sigma_p: golden-angle unit directions,
    projected radially."""
    theta = (2.0 * np.pi * np.arange(_LEVEL_SET_SAMPLES)
             / ((1.0 + np.sqrt(5.0)) / 2.0))
    u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    return u / sym(u)[..., None]


def gaussian_curvature(sym, pts):
    """Gaussian curvature of {p = 1} at points, via the bordered Hessian."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    g = np.atleast_2d(sym.gradient(pts))
    H = sym.hessian(pts)
    if H.ndim == 2:
        H = H[None]
    gn = np.linalg.norm(g, axis=-1)
    if np.any(gn < GRAD_TOL):
        raise SlabError("vanishing gradient on Sigma_p sample")
    B = np.zeros(pts.shape[:-1] + (3, 3))
    B[..., :2, :2] = H
    B[..., :2, 2] = g
    B[..., 2, :2] = g
    return -np.linalg.det(B) / gn ** 3


def curvature_audit(sym):
    """Minimum Gaussian curvature over the level_set_samples of Sigma_p;
    passes iff above KAPPA_MIN, so the level set is convex (a curvature
    that changes sign between samples fails on its negative side).

    Returns (min_curvature, worst_point, passed).
    """
    pts = level_set_samples(sym)
    K = gaussian_curvature(sym, pts)
    i = np.argmin(K)    # the first NaN, if any, which then fails
    return float(K[i]), pts[i], bool(K[i] > KAPPA_MIN)


# ---------------------------------------------------------------------------
# dual construction

# Coarse angles that seed every support solve; the best one's two
# neighbours bracket the maximizer.
_SUPPORT_ANGLES = 64
# Sweep budget and the angle step that ends a row's solve; bisection
# alone needs about 44 sweeps to shrink a seed bracket that far.
_SUPPORT_ITERS = 100
_SUPPORT_XTOL = 1e-14


def _support_slopes(sym, x, theta):
    """sigma = u / p(u) at u = (cos theta, sin theta), with f'(theta) and
    f''(theta) of f = x.u / p(u), row by row.

    f' is the tangential part of the stationarity gradient
    x/p - (x.u) grad p / p^2, whose radial part vanishes by Euler.
    """
    u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    t = np.stack([-u[:, 1], u[:, 0]], axis=-1)
    p, g = sym(u), sym.gradient(u)
    s, xt, gt = (np.sum(x * u, axis=-1), np.sum(x * t, axis=-1),
                 np.sum(g * t, axis=-1))
    d1 = xt / p - s * gt / p**2
    tht = np.einsum("mi,mij,mj->m", t, sym.hessian(u), t)
    d2 = (2.0 * s * gt**2 / p - 2.0 * xt * gt - s * tht) / p**2
    return u / p[:, None], d1, d2


def _support_maximizer(sym, x):
    """Maximize x . sigma over {p(sigma) = 1} for every row of x (m, 2).

    With sigma = u / p(u), f(theta) = x.u / p(u) is unimodal on the
    circle because the level set is strictly convex.  Each row starts at
    the best of _SUPPORT_ANGLES coarse angles, bracketed by its
    neighbours; then all rows take Newton steps on f' together, bisecting
    wherever a step would leave the bracket or fail to halve the previous
    step.  Returns the maximizers and the values x . sigma.
    """
    if np.any(np.all(x == 0.0, axis=-1)):
        raise SlabError("the support function has no maximizer at x = 0")
    coarse = 2.0 * np.pi * np.arange(_SUPPORT_ANGLES) / _SUPPORT_ANGLES
    ring = np.stack([np.cos(coarse), np.sin(coarse)], axis=-1)
    theta = coarse[np.argmax(x @ (ring / sym(ring)[:, None]).T, axis=-1)]
    width = 2.0 * np.pi / _SUPPORT_ANGLES
    lo, hi = theta - width, theta + width
    last = np.full(theta.shape, 2.0 * width)
    live = np.arange(theta.size)
    for _ in range(_SUPPORT_ITERS):
        if live.size == 0:
            break
        th = theta[live]
        _, d1, d2 = _support_slopes(sym, x[live], th)
        lo[live] = np.where(d1 > 0, th, lo[live])
        hi[live] = np.where(d1 < 0, th, hi[live])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = th - d1 / d2
        take = ((d2 < 0) & (newton >= lo[live]) & (newton <= hi[live])
                & (np.abs(newton - th) <= 0.5 * last[live]))
        nxt = np.where(take, newton, 0.5 * (lo[live] + hi[live]))
        theta[live], last[live] = nxt, np.abs(nxt - th)
        live = live[last[live] > _SUPPORT_XTOL]
    sigma, d1, _ = _support_slopes(sym, x, theta)
    tol = 1e-7 * np.maximum(1.0, np.linalg.norm(x, axis=-1))
    if not np.all(np.abs(d1) <= tol):
        raise SlabError(f"stationarity residual {np.max(np.abs(d1)):.2e}"
                        " after the bracketed Newton solve")
    return sigma, np.sum(x * sigma, axis=-1)


@dataclass
class DualPair:
    """Primal symbol p with its dual p* and a construction tag."""

    primal: HomogeneousSymbol
    dual: HomogeneousSymbol
    construction: str = "support-function"


def make_dual(sym):
    """Build the dual symbol p*(x) = max {x.sigma : p(sigma) = 1}.

    Positive curvature of the compact level set makes it convex, so
    the maximization is well posed; the dual gradient is the maximizer
    itself (envelope rule).  The last solve is kept, so a value and a
    gradient asked at the same points share it; both come back
    read-only.  The dual has no Hessian: psi' and Omega take theirs from
    the primal's, so no path asks a dual for its curvature.
    """
    kmin, worst, ok = curvature_audit(sym)
    if not ok:
        raise SlabError(
            f"curvature audit failed: min K = {kmin:.3e} at {worst}")

    memo = {}

    def solve(x):
        # the value and the gradient at the same points share one solve
        x = np.asarray(x, dtype=float)
        key = (x.shape, x.tobytes())
        if key not in memo:
            sigma, val = _support_maximizer(sym, x.reshape(-1, 2))
            sigma, val = sigma.reshape(x.shape), val.reshape(x.shape[:-1])
            sigma.flags.writeable = val.flags.writeable = False
            memo.clear()
            memo[key] = sigma, val
        return memo[key]

    dual = HomogeneousSymbol(sym.label + "*", lambda x: solve(x)[1],
                             lambda x: solve(x)[0],
                             metadata={"construction": "support-function"})
    return DualPair(sym, dual, construction="support-function")


def closed_form_dual(sym):
    """Known duals: euclidean is self-dual, |xi A| pairs with |x A^{-T}|
    (the maximum of x.sigma over |sigma A| = 1, with eta = sigma A)."""
    if sym.label == "euclidean":
        return DualPair(sym, euclidean(), construction="closed-form")
    if "matrix" in sym.metadata:
        Ainv = np.linalg.inv(sym.metadata["matrix"])
        return DualPair(sym, quadratic_form(Ainv.T),
                        construction="closed-form")
    raise ValueError(f"no closed-form dual registered for {sym.label!r}")


# ---------------------------------------------------------------------------
# canonical map, orbits, structure symbols


def _check_freq(xi):
    xi = np.asarray(xi, dtype=float)
    if np.any(np.linalg.norm(xi, axis=-1) < XI_MIN):
        raise SlabError(f"|xi| below the degeneracy floor {XI_MIN}")
    return xi


def psi(pair, xi):
    """Frequency warp psi(xi) = p(xi) grad p(xi) / |grad p(xi)|."""
    xi = _check_freq(xi)
    p = pair.primal(xi)
    g = pair.primal.gradient(xi)
    return p[..., None] * g / np.linalg.norm(g, axis=-1, keepdims=True)


def psi_inv(pair, xi):
    """Inverse warp psi^{-1}(xi) = |xi| grad p*(xi)."""
    xi = _check_freq(xi)
    r = np.linalg.norm(xi, axis=-1, keepdims=True)
    return r * pair.dual.gradient(xi)


def psi_jacobian(pair, xi):
    """Jacobian psi'(xi) = ghat grad p^T + (p / |grad p|) (I - ghat ghat^T)
    Hess p, with ghat = grad p / |grad p|: rows index the output
    component, columns the differentiation direction."""
    xi = _check_freq(xi)
    p = pair.primal(xi)
    g = pair.primal.gradient(xi)
    H = pair.primal.hessian(xi)
    gn = np.linalg.norm(g, axis=-1, keepdims=True)
    ghat = g / gn
    # (I - ghat ghat^T) H = H - ghat (ghat^T H)
    proj = H - ghat[..., :, None] * (ghat[..., None, :] @ H)
    return ghat[..., :, None] * g[..., None, :] \
        + (p[..., None] / gn)[..., None] * proj


def geometry_identities(pair, xi):
    """The worst residual of each identity of the pair over the nonzero
    frequencies xi (m, 2), as (name, residual) in order: "euler"
    |xi . grad p - p| / p, "dual-unit" |p*(grad p) - 1|, "grad-dual"
    |grad p*(grad p) - xi / p| and "psi-roundtrip"
    |psi^{-1}(psi(xi)) - xi| / |xi|."""
    p = pair.primal(xi)
    g = pair.primal.gradient(xi)
    return [
        ("euler", np.max(np.abs(np.sum(xi * g, axis=-1) - p) / p)),
        ("dual-unit", np.max(np.abs(pair.dual(g) - 1.0))),
        ("grad-dual", np.max(np.linalg.norm(
            pair.dual.gradient(g) - xi / p[:, None], axis=-1))),
        ("psi-roundtrip", np.max(
            np.linalg.norm(psi_inv(pair, psi(pair, xi)) - xi, axis=-1)
            / np.linalg.norm(xi, axis=-1))),
    ]


def _omega_coeffs(sym, xi):
    """C(xi) with Omega(x, xi) = x . C(xi), for nonzero xi:
    C = -|g| t / (t^T Hess p(xi) t) = (g_1, -g_0) / (t^T Hess p(xi) t),
    with g = grad p(xi) and t = g / |g| turned by +90 degrees.

    At g, grad p*(g) = xi / p and Hess p is homogeneous of degree -1, so
    Hess p*(g) = t t^T / (p t^T Hess p(xi) t), and x Hess p*(g) ^ p g
    is -(x . t) |g| / (t^T Hess p(xi) t).  On the orbit x is parallel
    to g, so x . t = 0.
    """
    g = sym.gradient(xi)
    H = sym.hessian(xi)
    gn = np.linalg.norm(g, axis=-1)
    t0, t1 = -g[..., 1] / gn, g[..., 0] / gn
    tht = (t0 * t0 * H[..., 0, 0] + t0 * t1 * (H[..., 0, 1] + H[..., 1, 0])
           + t1 * t1 * H[..., 1, 1])
    return np.stack([g[..., 1] / tht, -g[..., 0] / tht], axis=-1)


def omega(pair, x, xi):
    """Structure symbol Omega(x, xi) = x psi'(xi)^{-1} ^ psi(xi), from the
    curvature of p alone (``_omega_coeffs``); it vanishes on the orbit
    set."""
    C = _omega_coeffs(pair.primal, _check_freq(xi))
    x = np.asarray(x, dtype=float)
    return x[..., 0] * C[..., 0] + x[..., 1] * C[..., 1]


def gamma_p_membership(pair, x, xi):
    """Normalized orbit residual |Omega| / (|x| |xi|) and membership flag."""
    xi = _check_freq(xi)
    x = np.asarray(x, dtype=float)
    rx = np.linalg.norm(x, axis=-1)
    rxi = np.linalg.norm(xi, axis=-1)
    om = omega(pair, x, xi)
    denom = np.where(rx > 0, rx, 1.0) * rxi
    res = np.abs(om) / denom
    res = np.where(rx > 0, res, 0.0)
    return res, res <= TOL_ORBIT


# ---------------------------------------------------------------------------
# phase-space symbols


@dataclass
class PhaseSpaceSymbol:
    """Symbol sigma(x, xi) = sum_r f_x,r(x) f_xi,r(xi), given by its
    separable ``terms`` (f_x, f_xi): homogeneous of order ``orders[0]`` in
    x and ``orders[1]`` in xi, smooth away from x = 0 and xi = 0.  The
    terms are the whole definition: quantization applies them and a point
    value is their sum, taken in order.
    """

    label: str
    orders: tuple
    terms: list

    def __call__(self, x, xi):
        x, xi = np.asarray(x, float), np.asarray(xi, float)
        return sum(fx(x) * fxi(xi) for fx, fxi in self.terms)

    @property
    def xi_singular(self):
        return self.orders[1] < 0 or self.orders[1] != int(self.orders[1])


def _safe_unit(x):
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.where(r > 0, r, 1.0)


def _inv_sqrt_radius(x):
    """|x|^{-1/2}, with the value 0 at x = 0."""
    r = np.linalg.norm(x, axis=-1)
    return np.where(r > 0, r, np.inf) ** -0.5


def _sqrt_radius(xi):
    return np.sqrt(np.linalg.norm(xi, axis=-1))


def structured_sigma(pair):
    """The structured critical symbol

        sigma(x, xi) = |x|^{-1/2} |(x/|x|) ^ grad p(xi)|^2 |xi|^{1/2},

    non-negative, orders (-1/2, +1/2), vanishing exactly on the orbit set
    away from x = 0.  The wedge squared expands into three terms,
    xhat_0^2 g_1^2 - 2 xhat_0 xhat_1 g_0 g_1 + xhat_1^2 g_0^2.
    """
    grad = pair.primal.gradient

    def fx(i, j, c):
        def factor(x):
            xhat = _safe_unit(x)
            return c * _inv_sqrt_radius(x) * xhat[..., i] * xhat[..., j]
        return factor

    def fxi(i, j):
        # grad p is degree-0 homogeneous, so the factor has the limit 0 at
        # xi = 0; the gradient is evaluated only away from it
        def factor(xi):
            r = np.linalg.norm(xi, axis=-1)
            g = grad(np.where((r > 0)[..., None], xi, 1.0))
            return np.where(r > 0, np.sqrt(r) * g[..., i] * g[..., j], 0.0)
        return factor

    terms = [(fx(0, 0, 1.0), fxi(1, 1)), (fx(0, 1, -2.0), fxi(0, 1)),
             (fx(1, 1, 1.0), fxi(0, 0))]
    return PhaseSpaceSymbol(f"structured[{pair.primal.label}]",
                            (-0.5, 0.5), terms)


def tau_phase_symbol(pair):
    """tau(x, xi) = (b(x) ^ xi)^2 with b = p*(x) grad p*(x) / |grad p*(x)|,
    orders (2, 2), as three separable terms."""

    def bvec(x):
        gs = pair.dual.gradient(x)
        ps = np.sum(x * gs, axis=-1)    # p*(x) = x . grad p*(x), degree 1
        return (ps / np.linalg.norm(gs, axis=-1))[..., None] * gs

    def cross(x):
        b = bvec(x)
        return -2.0 * b[..., 0] * b[..., 1]

    terms = [
        (lambda x: bvec(x)[..., 0] ** 2, lambda xi: xi[..., 1] ** 2),
        (cross, lambda xi: xi[..., 0] * xi[..., 1]),
        (lambda x: bvec(x)[..., 1] ** 2, lambda xi: xi[..., 0] ** 2),
    ]
    return PhaseSpaceSymbol(f"tau[{pair.primal.label}]", (2.0, 2.0), terms)


def unstructured_critical():
    """|x|^{-1/2} |xi|^{1/2}: the critical weight with no structure."""
    return PhaseSpaceSymbol("unstructured-critical", (-0.5, 0.5),
                            [(_inv_sqrt_radius, _sqrt_radius)])


def weighted_subcritical(s):
    """<x>^{-s} |xi|^{1/2}: bounded smoothing regime for s > 1/2."""

    def fx(x):
        return (1.0 + np.sum(x ** 2, axis=-1)) ** (-s / 2.0)

    return PhaseSpaceSymbol(f"weighted:s={s}", (0.0, 0.5),
                            [(fx, _sqrt_radius)])


def omega_phase_symbol(pair):
    """Omega as a PhaseSpaceSymbol, linear in x (separable, rank 2):
    Omega = sum_l x_l C_l(xi), the coefficients ``omega`` evaluates."""

    def coeff(xi, l):
        # C_l is degree-1 homogeneous, hence 0 at xi = 0 by continuity
        r = np.linalg.norm(xi, axis=-1)
        safe = np.where((r > 0)[..., None], xi, 1.0)
        return np.where(r > 0, _omega_coeffs(pair.primal, safe)[..., l], 0.0)

    terms = [(lambda x, l=l: x[..., l], lambda xi, l=l: coeff(xi, l))
             for l in range(2)]
    return PhaseSpaceSymbol(f"Omega[{pair.primal.label}]", (1.0, 1.0), terms)


# ---------------------------------------------------------------------------
# registry


def parse_symbol(spec):
    """Parse a registry name into a HomogeneousSymbol.

    Formats: "euclidean", "quadratic-form:A=[[...]]", "perturbed:amp=0.05".
    """
    if spec == "euclidean":
        return euclidean()
    if spec.startswith("quadratic-form:A="):
        A = np.asarray(json.loads(spec.split("=", 1)[1]), dtype=float)
        if A.shape != (2, 2):
            raise ValueError("quadratic-form matrix must be 2x2, "
                             f"got shape {A.shape}")
        # the form squares A and its closed-form dual squares A^{-T}:
        # both Gram matrices must be finite
        try:
            with np.errstate(all="ignore"):
                B = np.linalg.inv(A).T
                finite = np.isfinite(A @ A.T).all() and \
                    np.isfinite(B @ B.T).all()
        except np.linalg.LinAlgError:
            finite = False
        if not finite:
            raise ValueError(f"quadratic-form matrix {A.tolist()} is "
                             "singular, or A A^T or its inverse is not "
                             "finite")
        return quadratic_form(A)
    if spec.startswith("perturbed:amp="):
        amp = float(spec.split("=", 1)[1])
        if not abs(amp) < 1.0:
            raise ValueError(f"perturbed amp {amp} is not in (-1, 1), "
                             "where p > 0 off the origin")
        return perturbed(amp)
    raise ValueError(f"unknown symbol spec {spec!r}")


def make_pair(spec, construction="auto"):
    """Symbol plus dual, preferring closed forms when registered."""
    sym = parse_symbol(spec)
    if construction in ("auto", "closed-form"):
        try:
            return closed_form_dual(sym)
        except ValueError:
            if construction == "closed-form":
                raise
    return make_dual(sym)


# the registry weights that vanish on the orbit set Gamma_p: the only
# ones the LAP sweep's structure spot check can pass
ORBIT_VANISHING = ("structured", "tau")


def parse_sigma(spec, pair):
    """Parse a phase-space symbol name against a dual pair."""
    if spec == "structured":
        return structured_sigma(pair)
    if spec == "unstructured-critical":
        return unstructured_critical()
    if spec.startswith("weighted:s="):
        return weighted_subcritical(float(spec.split("=", 1)[1]))
    if spec == "tau":
        return tau_phase_symbol(pair)
    raise ValueError(f"unknown sigma spec {spec!r}")
