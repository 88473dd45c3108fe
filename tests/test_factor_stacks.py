"""Factor stacks of the phase-space symbols against per-term reference
closures.

A PhaseSpaceSymbol is two stack functions, x_factors and xi_factors, and
each weight evaluates the geometry its terms share once.  The reference
below writes every term as its own (f_r, m_r) closure pair, each
recomputing that geometry, and the stacks must give the same bits.
"""

import numpy as np
import pytest

from slab import cli
from slab import grid as gr
from slab import quantize as qu
from slab import symbols as sy


SPECS = ("euclidean", "quadratic-form:A=[[1,0.3],[0.3,0.5]]",
         "perturbed:amp=0.05")


def _safe_unit(x):
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.where(r > 0, r, 1.0)


def _inv_sqrt_radius(x):
    r = np.linalg.norm(x, axis=-1)
    return np.where(r > 0, r, np.inf) ** -0.5


def _sqrt_radius(xi):
    return np.sqrt(np.linalg.norm(xi, axis=-1))


def structured_terms(pair):
    grad = pair.primal.gradient

    def fx(i, j, c):
        def factor(x):
            xhat = _safe_unit(x)
            return c * _inv_sqrt_radius(x) * xhat[..., i] * xhat[..., j]
        return factor

    def fxi(i, j):
        def factor(xi):
            r = np.linalg.norm(xi, axis=-1)
            g = grad(np.where((r > 0)[..., None], xi, 1.0))
            return np.where(r > 0, np.sqrt(r) * g[..., i] * g[..., j], 0.0)
        return factor

    return [(fx(0, 0, 1.0), fxi(1, 1)), (fx(0, 1, -2.0), fxi(0, 1)),
            (fx(1, 1, 1.0), fxi(0, 0))]


def tau_terms(pair):
    def bvec(x):
        gs = pair.dual.gradient(x)
        ps = np.sum(x * gs, axis=-1)
        return (ps / np.linalg.norm(gs, axis=-1))[..., None] * gs

    def cross(x):
        b = bvec(x)
        return -2.0 * b[..., 0] * b[..., 1]

    return [(lambda x: bvec(x)[..., 0] ** 2, lambda xi: xi[..., 1] ** 2),
            (cross, lambda xi: xi[..., 0] * xi[..., 1]),
            (lambda x: bvec(x)[..., 1] ** 2, lambda xi: xi[..., 0] ** 2)]


def unstructured_terms(pair):
    return [(_inv_sqrt_radius, _sqrt_radius)]


def weighted_terms(pair, s=1.0):
    return [(lambda x: (1.0 + np.sum(x ** 2, axis=-1)) ** (-s / 2.0),
             _sqrt_radius)]


def omega_terms(pair):
    def coeff(xi, l):
        r = np.linalg.norm(xi, axis=-1)
        safe = np.where((r > 0)[..., None], xi, 1.0)
        return np.where(r > 0, sy._omega_coeffs(pair.primal, safe)[..., l],
                        0.0)

    return [(lambda x, l=l: x[..., l], lambda xi, l=l: coeff(xi, l))
            for l in range(2)]


def growth_terms(pair, growth=1.0):
    def sq(v):
        return v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1]

    return [(lambda x: (1.0 + sq(x)) ** (growth / 2.0),
             lambda xi: 1.0 / np.sqrt(1.0 + sq(xi)))]


WEIGHTS = {
    "structured": (sy.structured_sigma, structured_terms),
    "tau": (sy.tau_phase_symbol, tau_terms),
    "unstructured-critical": (lambda pair: sy.unstructured_critical(),
                              unstructured_terms),
    "weighted:s=1.0": (lambda pair: sy.weighted_subcritical(1.0),
                       weighted_terms),
    "Omega": (sy.omega_phase_symbol, omega_terms),
    "x-growth": (lambda pair: cli._growth_symbol(1.0), growth_terms),
}


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


@pytest.mark.parametrize("spec", SPECS)
@pytest.mark.parametrize("name", WEIGHTS)
def test_factor_stacks_have_the_bits_of_the_per_term_closures(name, spec):
    pair = sy.make_pair(spec)
    build, reference = WEIGHTS[name]
    sigma, terms = build(pair), reference(pair)
    g = gr.make_grid(32, 8.0)
    X, XI = g.coord_stack(), g.freq_stack()
    assert _bits(sigma.x_factors(X)) == _bits(
        np.stack([fx(X) for fx, _ in terms]))
    assert _bits(sigma.xi_factors(XI)) == _bits(
        np.stack([fxi(XI) for _, fxi in terms]))
    # the plan's pitched stacks, as the per-term plan wrote them
    plan = qu.SeparablePlan(sigma, g)
    guard = qu._guard_for(sigma, g)
    for r, (fx, fxi) in enumerate(terms):
        assert _bits(plan.x[r, :, :g.N]) == _bits(fx(X).astype(complex))
        assert _bits(plan.m[r, :, :g.N]) == _bits(
            qu.multiplier_values(g, fxi(XI), guard))
    assert not np.any(plan.x[..., g.N]) and not np.any(plan.m[..., g.N])
    # a point value is the sum of the term products, in term order
    rng = np.random.default_rng(3)
    x, xi = rng.normal(size=(50, 2)) * 3.0, rng.normal(size=(50, 2)) * 2.0
    assert _bits(sigma(x, xi)) == _bits(
        sum(fx(x) * fxi(xi) for fx, fxi in terms))


def _counting(calls, fn):
    def counted(*args):
        calls.append(1)
        return fn(*args)
    return counted


def test_each_weight_evaluates_its_shared_geometry_once(monkeypatch):
    g = gr.make_grid(32, 8.0)
    X, XI = g.coord_stack(), g.freq_stack()
    # structured: one gradient of p per xi-stack
    pair = sy.make_pair("perturbed:amp=0.05")
    grads = []
    monkeypatch.setattr(pair.primal, "grad",
                        _counting(grads, pair.primal.grad))
    sy.structured_sigma(pair).xi_factors(XI)
    assert len(grads) == 1
    # Omega: one coefficient evaluation per plan build
    coeffs = []
    monkeypatch.setattr(sy, "_omega_coeffs",
                        _counting(coeffs, sy._omega_coeffs))
    qu.SeparablePlan(sy.omega_phase_symbol(pair), g)
    assert len(coeffs) == 1
    # tau on a support dual: one dual gradient, so one solve, per x-stack
    solves, dual_grads = [], []
    monkeypatch.setattr(sy, "_support_maximizer",
                        _counting(solves, sy._support_maximizer))
    monkeypatch.setattr(pair.dual, "grad",
                        _counting(dual_grads, pair.dual.grad))
    sy.tau_phase_symbol(pair).x_factors(X)
    assert len(solves) == 1 and len(dual_grads) == 1
