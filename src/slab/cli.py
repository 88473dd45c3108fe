"""Batch experiment runner.

Each subcommand reads a JSON config, runs one sweep kind from the
library, and writes CSV results plus a JSON run manifest and a
human-readable verdict file into the output directory.

Exit codes: 0 = ran and passed, 2 = ran but the verdict check failed,
1 = configuration or runtime error.
"""

import functools
import hashlib
import json
import os
import sys
import time

import click
import jsonschema
import numpy as np

from . import __version__
from . import estimates as es
from . import evolve as ev
from . import grid as gr
from . import quantize as qu
from . import symbols as sy
from .errors import ConfigInvalid, SlabError

_COMMON = {
    "kind": {"type": "string"},
    "seed": {"type": "integer", "minimum": 0},
    "p": {"type": "string"},
    "out": {"type": "string"},
}

_GRID = {
    "N": {"type": "integer", "minimum": 4},
    "L": {"type": "number", "exclusiveMinimum": 0},
}

_SCHEMAS = {
    "geometry-audit": {
        "type": "object",
        "additionalProperties": False,
        "required": ["p"],
        "properties": dict(_COMMON, **{
            "samples": {"type": "integer", "minimum": 1},
            "construction": {"enum": ["auto", "closed-form", "optimizer"]},
            "tol_euler": {"type": "number"},
            "tol_dual": {"type": "number"},
            "tol_grad": {"type": "number"},
            "tol_roundtrip": {"type": "number"},
        }),
    },
    "egorov": {
        "type": "object",
        "additionalProperties": False,
        "required": ["p", "N", "L"],
        "properties": dict(_COMMON, **_GRID, **{
            "amp_growth": {"type": "number"},
            "declared_order": {"type": "number"},
            "lams": {"type": "array", "items": {"type": "number"},
                     "minItems": 2},
            "carrier": {"type": "array", "items": {"type": "number"}},
            "center": {"type": "array", "items": {"type": "number"}},
            "band": {"type": "array", "items": {"type": "number"},
                     "minItems": 4, "maxItems": 4},
            "packet_spread": {"type": "number"},
            "slack": {"type": "number"},
        }),
    },
    "commutator": {
        "type": "object",
        "additionalProperties": False,
        "required": ["p", "N", "L"],
        "properties": dict(_COMMON, **_GRID, **{
            "pair_indices": {"type": "array", "items": {"type": "integer"},
                             "minItems": 2, "maxItems": 2},
            "profile_scale": {"type": "number", "exclusiveMinimum": 0},
            "packet_center": {"type": "array", "items": {"type": "number"}},
            "packet_spread": {"type": "number"},
            "tol": {"type": "number"},
            "control": {"type": "boolean"},
            "control_floor": {"type": "number"},
        }),
    },
    "smoothing": {
        "type": "object",
        "additionalProperties": False,
        "required": ["p", "sigma", "ladder"],
        "properties": dict(_COMMON, **{
            "sigma": {"type": "string"},
            "ladder": {"type": "array", "minItems": 2, "items": {
                "type": "array", "minItems": 3, "maxItems": 3,
                "items": {"type": "number"}}},
            "trials": {"type": "integer", "minimum": 1},
            "dt": {"type": "number", "exclusiveMinimum": 0},
            "order": {"type": "integer", "minimum": 1},
            "freq_mag": {"type": "number"},
            "spread": {"type": "number"},
            "monitor_scale": {"type": "number"},
            "mass_tol": {"type": "number"},
            "expect": {"enum": ["bounded", "growing"]},
        }),
    },
    "lap": {
        "type": "object",
        "additionalProperties": False,
        "required": ["p", "sigma", "N", "L"],
        "properties": dict(_COMMON, **_GRID, **{
            "sigma": {"type": "string"},
            "d": {"type": "number", "exclusiveMinimum": 0},
            "eps_ladder_k": {"type": "integer", "minimum": 0},
            "trials": {"type": "integer", "minimum": 1},
            "iters": {"type": "integer", "minimum": 1},
            "order": {"type": "integer", "minimum": 1},
            "cell_quad": {"type": "integer", "minimum": 1},
            "check_structure": {"type": "boolean"},
            "expect": {"enum": ["bounded", "growing"]},
        }),
    },
    "restriction": {
        "type": "object",
        "additionalProperties": False,
        "required": ["p", "sigma", "N", "L"],
        "properties": dict(_COMMON, **_GRID, **{
            "sigma": {"type": "string"},
            "rhos": {"type": "array", "items": {"type": "number"},
                     "minItems": 2},
            "trials": {"type": "integer", "minimum": 1},
            "window": {"type": "array", "items": {"type": "number"},
                       "minItems": 2, "maxItems": 2},
        }),
    },
    "duality": {
        "type": "object",
        "additionalProperties": False,
        "required": ["p", "sigma", "N", "L"],
        "properties": dict(_COMMON, **_GRID, **{
            "sigma": {"type": "string"},
            "T": {"type": "number", "exclusiveMinimum": 0},
            "n_times": {"type": "integer", "minimum": 3},
            "trials": {"type": "integer", "minimum": 1},
            "order": {"type": "integer", "minimum": 1},
            "tol": {"type": "number"},
        }),
    },
    "hl-oracle": {
        "type": "object",
        "additionalProperties": False,
        "required": ["gamma", "delta", "m_exp"],
        "properties": dict(_COMMON, **{
            "gamma": {"type": "number"},
            "delta": {"type": "number"},
            "m_exp": {"type": "number"},
            "n": {"type": "integer", "minimum": 1},
            "N": {"type": "integer", "minimum": 4},
            "L": {"type": "number", "exclusiveMinimum": 0},
            "bound": {"type": "number"},
        }),
    },
}


@functools.cache
def _validator(kind):
    """The kind's schema validator, built on first use.  The schemas are
    fixed, so their metaschema check lives in the tests, not in each run."""
    schema = _SCHEMAS[kind]
    return jsonschema.validators.validator_for(schema)(schema)


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


def _load_config(path, overrides, kind):
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigInvalid(f"cannot read config: {exc}")
    for item in overrides:
        if "=" not in item:
            raise ConfigInvalid(f"override {item!r} is not KEY=VALUE")
        key, _, raw = item.partition("=")
        try:
            cfg[key] = json.loads(raw)
        except json.JSONDecodeError:
            cfg[key] = raw
    if cfg.get("kind", kind) != kind:
        raise ConfigInvalid(
            f"config kind {cfg.get('kind')!r} does not match subcommand "
            f"{kind!r}")
    error = jsonschema.exceptions.best_match(_validator(kind).iter_errors(cfg))
    if error is not None:
        raise ConfigInvalid(f"config does not validate: {error.message}")
    for n in _config_grid_sizes(cfg):
        if not _is_power_of_two(n):
            raise ConfigInvalid(f"N = {n} is not a power of two")
    if "SLAB_SEED" in os.environ:
        raw = os.environ["SLAB_SEED"].strip()
        if not raw.isdecimal():
            raise ConfigInvalid("SLAB_SEED must be a non-negative integer")
        cfg["seed"] = int(raw)
    cfg.setdefault("seed", 0)
    return cfg


def _config_grid_sizes(cfg):
    if "N" in cfg:
        yield int(cfg["N"])
    for rung in cfg.get("ladder", []):
        yield int(rung[0])


def _write_artifacts(out_dir, cfg, results, verdict_lines, passed, t0):
    os.makedirs(out_dir, exist_ok=True)
    csv_files = []
    for name, result in results:
        path = os.path.join(out_dir, name + ".csv")
        with open(path, "w") as fh:
            fh.write(result.to_csv())
        csv_files.append(os.path.basename(path))
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()
    manifest = {
        "config_sha256": digest,
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 3),
        "kind": cfg.get("kind"),
        "seed": cfg.get("seed"),
        "csv": csv_files,
        "passed": bool(passed),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(out_dir, "verdict.txt"), "w") as fh:
        for line in verdict_lines:
            fh.write(line + "\n")
    for line in verdict_lines:
        click.echo(line)


def _resolve(key, parse, spec, *args, **kwargs):
    """parse(spec, ...); a bad registry name is a config error."""
    try:
        return parse(spec, *args, **kwargs)
    except ValueError as exc:
        raise ConfigInvalid(f"{key} = {spec!r}: {exc}")


def _pair_from_config(cfg, construction="auto"):
    return _resolve("p", sy.make_pair, cfg["p"], construction=construction)


def _scalar_result(kind, label, p_label, entries, seed):
    """Pack scalar check values into the common sweep-row shape."""
    res = es.SweepResult(label, p_label, metadata={"kind": kind})
    for (N, L, T, eps, value, ok) in entries:
        res.add(N, L, T, eps, value, ok, seed)
    return res


# ---------------------------------------------------------------------------
# experiment bodies (return (results, verdict_lines, passed))


def _run_geometry_audit(cfg):
    seed = cfg["seed"]
    n_samples = cfg.get("samples", 1000)
    construction = cfg.get("construction", "auto")
    pair = _pair_from_config(cfg, construction)
    closed = pair.construction == "closed-form"
    tol_euler = cfg.get("tol_euler", 1e-8)
    tol_dual = cfg.get("tol_dual", 1e-6 if closed else 1e-5)
    tol_grad = cfg.get("tol_grad", 1e-5)
    tol_rt = cfg.get("tol_roundtrip", 1e-8)
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=(n_samples, pair.primal.dim))
    xi = xi[np.linalg.norm(xi, axis=-1) > 1e-3]
    scale = np.exp(rng.uniform(-1.0, 1.0, xi.shape[0]))
    xi = xi * scale[:, None]

    p = pair.primal(xi)
    g = pair.primal.gradient(xi)
    euler = np.max(np.abs(np.sum(xi * g, axis=-1) - p) / p)
    dual_unit = np.max(np.abs(pair.dual(g) - 1.0))
    grad_dual = np.max(np.linalg.norm(
        pair.dual.gradient(g) - xi / p[:, None], axis=-1))
    rt = np.max(np.linalg.norm(sy.psi_inv(pair, sy.psi(pair, xi)) - xi,
                               axis=-1)
                / np.linalg.norm(xi, axis=-1))
    checks = [
        ("euler", euler, tol_euler),
        ("dual-unit", dual_unit, tol_dual),
        ("grad-dual", grad_dual, tol_grad),
        ("psi-roundtrip", rt, tol_rt),
    ]
    entries = [(0, 0.0, 0.0, None, val, val <= tol)
               for (_, val, tol) in checks]
    result = _scalar_result("geometry-audit", "geometry",
                            pair.primal.label, entries, seed)
    passed = all(val <= tol for (_, val, tol) in checks)
    lines = [f"geometry-audit {name}: {val:.3e} (tol {tol:.1e}) "
             f"{'pass' if val <= tol else 'FAIL'}"
             for (name, val, tol) in checks]
    lines.append(f"geometry-audit: {'pass' if passed else 'FAIL'}")
    return [("geometry", result)], lines, passed


def _run_egorov(cfg):
    seed = cfg["seed"]
    pair = _pair_from_config(cfg)
    g = gr.make_grid(pair.primal.dim, cfg["N"], float(cfg["L"]))
    growth = cfg.get("amp_growth", 1.0)
    declared = cfg.get("declared_order", growth)
    lams = tuple(cfg.get("lams", (1.0, 2.0, 4.0, 8.0)))
    carrier = tuple(cfg.get("carrier", (4.0, 0.0)))
    center = tuple(cfg.get("center", (1.4, 0.0)))
    band = cfg.get("band", (0.4, 1.0, 9.0, 11.0))
    spread = cfg.get("packet_spread", 0.8)
    slack = cfg.get("slack", 3.0)

    def gfac(xi):
        return 1.0 / np.sqrt(1.0 + np.sum(xi * xi, axis=-1))

    def xfac(x):
        return (1.0 + np.sum(x * x, axis=-1)) ** (growth / 2.0)

    a = sy.PhaseSpaceSymbol("x-growth", (growth, 0.0),
                            value=lambda x, xi: xfac(x) * gfac(xi),
                            terms=[(xfac, gfac)])
    plan = qu.CanonicalTransformPlan(pair, gr.annular(*band))
    env = gr.spectral_packet(g, np.zeros(pair.primal.dim), spread)
    ratios = qu.egorov_residual(a, plan, declared, env, lams=lams,
                                carrier=carrier, center=center, spread=False)
    spreadr = max(ratios) / min(ratios)
    entries = [(cfg["N"], float(cfg["L"]), 0.0, None, r, spreadr <= slack)
               for r in ratios]
    result = _scalar_result("egorov", "conjugation-residual",
                            pair.primal.label, entries, seed)
    passed = spreadr <= slack
    lines = [f"egorov residual family max/min = {spreadr:.3f} "
             f"(slack {slack}) {'pass' if passed else 'FAIL'}"]
    return [("egorov", result)], lines, passed


def _run_commutator(cfg):
    seed = cfg["seed"]
    pair = _pair_from_config(cfg)
    n = pair.primal.dim
    g = gr.make_grid(n, cfg["N"], float(cfg["L"]))
    i, j = cfg.get("pair_indices", (0, 1))
    scale = cfg.get("profile_scale", 4.0)
    center = cfg.get("packet_center", (3.0, 0.0))
    spread = cfg.get("packet_spread", 1.8)
    tol = cfg.get("tol", 1e-7)
    control = cfg.get("control", False)
    floor = cfg.get("control_floor", 1e-2)
    f = gr.spectral_packet(g, center, spread)

    def h(t):
        return np.exp(-(t / scale) ** 2)

    if control:
        # multiplier depending on xi_1 only; not a function of p, so the
        # exact-commutation mechanism must fail
        mult = h(g.freq_stack()[..., 0])
        res = qu.commutator_residual(pair, i, j, h, f, multiplier=mult)
        passed = res >= floor
        line = (f"commutator control residual {res:.3e} "
                f"(floor {floor:.1e}) {'pass' if passed else 'FAIL'}")
    else:
        res = qu.commutator_residual(pair, i, j, h, f)
        passed = res <= tol
        line = (f"commutator residual {res:.3e} (tol {tol:.1e}) "
                f"{'pass' if passed else 'FAIL'}")
    entries = [(cfg["N"], float(cfg["L"]), 0.0, None, res, passed)]
    result = _scalar_result("commutator", "commutator-residual",
                            pair.primal.label, entries, seed)
    return [("commutator", result)], [line], passed


def _run_smoothing(cfg):
    seed = cfg["seed"]
    pair = _pair_from_config(cfg)
    sigma = _resolve("sigma", sy.parse_sigma, cfg["sigma"], pair)
    ladder = [(int(N), float(L), float(T)) for (N, L, T) in cfg["ladder"]]
    dt = cfg.get("dt", 0.25)
    for (_, _, T) in ladder:
        _resolve("T", lambda T: ev.EvolutionSpec(pair, T=T, dt=dt).times(), T)
    result = es.smoothing_sweep(
        sigma, pair, ladder,
        trials=cfg.get("trials", 8), seed=seed, dt=dt,
        order=cfg.get("order", 1),
        freq_mag=cfg.get("freq_mag", 0.9), spread=cfg.get("spread", 0.15),
        monitor_scale=cfg.get("monitor_scale", np.sqrt(2.0)),
        mass_tol=cfg.get("mass_tol", 0.999), sigma_label=cfg["sigma"])
    verdict = result.metadata["verdict"]
    expect = cfg.get("expect")
    passed = expect is None or verdict == expect
    lines = [f"smoothing verdict: {verdict}"
             + (f" (expected {expect}) {'pass' if passed else 'FAIL'}"
                if expect else "")]
    return [("smoothing", result)], lines, passed


def _run_lap(cfg):
    seed = cfg["seed"]
    pair = _pair_from_config(cfg)
    sigma = _resolve("sigma", sy.parse_sigma, cfg["sigma"], pair)
    g = gr.make_grid(pair.primal.dim, cfg["N"], float(cfg["L"]))
    ladder = ev.epsilon_ladder(cfg.get("eps_ladder_k", 12))
    result = es.lap_sweep(
        sigma, pair, g, d=cfg.get("d", 1.0), eps_list=ladder,
        trials=cfg.get("trials", 3), seed=seed,
        order=cfg.get("order", 2), iters=cfg.get("iters", 20),
        check_structure=cfg.get("check_structure", True),
        cell_quad=cfg.get("cell_quad", 8), sigma_label=cfg["sigma"])
    verdict = result.metadata["verdict"]
    expect = cfg.get("expect")
    passed = expect is None or verdict == expect
    lines = [f"lap max/min = {result.metadata['max_over_min']:.3f}, "
             f"verdict: {verdict}"
             + (f" (expected {expect}) {'pass' if passed else 'FAIL'}"
                if expect else "")]
    return [("lap", result)], lines, passed


def _run_restriction(cfg):
    seed = cfg["seed"]
    pair = _pair_from_config(cfg)
    sigma = _resolve("sigma", sy.parse_sigma, cfg["sigma"], pair)
    g = gr.make_grid(pair.primal.dim, cfg["N"], float(cfg["L"]))
    rhos = tuple(cfg.get("rhos", (1.0, 2.0, 4.0)))
    lo, hi = cfg.get("window", (1.19, 1.61))
    norms = es.restriction_scaling(sigma, pair, g, rhos=rhos,
                                   trials=cfg.get("trials", 4), seed=seed)
    doublings = [norms[k + 1] / norms[k] for k in range(len(norms) - 1)]
    passed = all(lo <= r <= hi for r in doublings)
    entries = [(cfg["N"], float(cfg["L"]), 0.0, float(rho), norm,
                passed) for rho, norm in zip(rhos, norms)]
    result = _scalar_result("restriction", cfg["sigma"],
                            pair.primal.label, entries, seed)
    lines = [f"restriction doubling ratios: "
             + ", ".join(f"{r:.3f}" for r in doublings)
             + f" (window [{lo}, {hi}]) {'pass' if passed else 'FAIL'}"]
    return [("restriction", result)], lines, passed


def _run_duality(cfg):
    seed = cfg["seed"]
    pair = _pair_from_config(cfg)
    sigma = _resolve("sigma", sy.parse_sigma, cfg["sigma"], pair)
    g = gr.make_grid(pair.primal.dim, cfg["N"], float(cfg["L"]))
    tol = cfg.get("tol", 1e-8)
    defect = es.duality_check(sigma, pair, g, T=cfg.get("T", 4.0),
                              n_times=cfg.get("n_times", 33),
                              trials=cfg.get("trials", 4), seed=seed,
                              order=cfg.get("order", 2))
    passed = defect <= tol
    entries = [(cfg["N"], float(cfg["L"]), cfg.get("T", 4.0), None,
                defect, passed)]
    result = _scalar_result("duality", "adjoint-defect",
                            pair.primal.label, entries, seed)
    lines = [f"duality defect {defect:.3e} (tol {tol:.1e}) "
             f"{'pass' if passed else 'FAIL'}"]
    return [("duality", result)], lines, passed


def _run_hl_oracle(cfg):
    seed = cfg["seed"]
    n = cfg.get("n", 1)
    N = cfg.get("N", 512)
    L = cfg.get("L", 8.0)
    box = lambda y: np.where(np.abs(y) < 2.0, 1.0, 0.0)
    ratio = es.hardy_littlewood_oracle(cfg["gamma"], cfg["delta"],
                                       cfg["m_exp"], box, n=n, N=N, L=L)
    bound = cfg.get("bound", 10.0)
    passed = ratio <= bound
    entries = [(N, L, 0.0, None, ratio, passed)]
    result = _scalar_result("hl-oracle", "hardy-littlewood", "none",
                            entries, seed)
    lines = [f"hl-oracle ratio {ratio:.4f} (bound {bound}) "
             f"{'pass' if passed else 'FAIL'}"]
    return [("hl_oracle", result)], lines, passed


_RUNNERS = {
    "geometry-audit": _run_geometry_audit, "egorov": _run_egorov,
    "commutator": _run_commutator, "smoothing": _run_smoothing,
    "lap": _run_lap, "restriction": _run_restriction,
    "duality": _run_duality, "hl-oracle": _run_hl_oracle,
}


# ---------------------------------------------------------------------------
# command plumbing


def _execute(kind, config, override, out):
    t0 = time.time()
    try:
        cfg = _load_config(config, override, kind)
        cfg["kind"] = kind
        out_dir = out or cfg.get("out", ".")
        results, lines, passed = _RUNNERS[kind](cfg)
        _write_artifacts(out_dir, cfg, results, lines, passed, t0)
    except ConfigInvalid as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(1)
    except SlabError as exc:
        click.echo(f"{kind} failed: {exc}", err=True)
        sys.exit(1)
    sys.exit(0 if passed else 2)


def _subcommand(kind):
    @click.command(name=kind)
    @click.option("--config", required=True,
                  type=click.Path(exists=False, dir_okay=False))
    @click.option("--override", multiple=True, metavar="K=V")
    @click.option("--out", type=click.Path(file_okay=False), default=None)
    def cmd(config, override, out):
        _execute(kind, config, override, out)
    cmd.help = f"Run the {kind} experiment from a JSON config."
    return cmd


@click.group()
def main():
    """Numerical experiments for dispersive smoothing estimates."""


for _kind in _SCHEMAS:
    main.add_command(_subcommand(_kind))


if __name__ == "__main__":
    main()
