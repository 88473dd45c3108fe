"""Batch experiment runner.

Each subcommand reads a JSON config, runs one sweep kind from the
library, and writes CSV results plus a JSON run manifest and a
human-readable verdict file into the output directory.

``KINDS`` is the experiment registry: one ``Kind`` per subcommand holds
its required keys, the schemas of its inputs and its runner, which keeps
the bound its verdict checks as a constant.  An optional key's default
is the JSON-Schema ``default`` of its own property; it is filled in
after validation, so a runner reads every key as ``cfg[key]``.
``schema_error`` checks a config against its schema with the JSON Schema
(Draft 2020-12) semantics of the few keywords the schemas use.

Exit codes: 0 = ran and passed, 2 = ran but the verdict check failed,
1 = configuration or runtime error.
"""

import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass

import click
import numpy as np

from . import __version__
from . import estimates as es
from . import evolve as ev
from . import grid as gr
from . import quantize as qu
from . import symbols as sy
from .errors import ConfigInvalid, SlabError

# the schemas of the inputs that several kinds require: the symbol and
# weight registry names and the grid
_SHARED = {
    "p": {"type": "string"},
    "sigma": {"type": "string"},
    "N": {"type": "integer", "minimum": 4},
    "L": {"type": "number", "exclusiveMinimum": 0},
}


def _num(default, **rules):
    return {"type": "number", "default": default, **rules}


def _int(default, minimum=1):
    return {"type": "integer", "minimum": minimum, "default": default}


def _vec(default, **rules):
    return {"type": "array", "items": {"type": "number"}, "default": default,
            **rules}


# a verdict the run must reach; null checks nothing
_EXPECT = {"enum": ["bounded", "growing", None], "default": None}


@dataclass(frozen=True)
class Kind:
    """One experiment: required keys, property schemas (an optional key
    carries its ``default``) and the runner cfg -> (results, verdict
    lines, passed)."""

    required: tuple
    properties: dict
    run: object

    @functools.cached_property
    def schema(self):
        return {"type": "object", "additionalProperties": False,
                "required": list(self.required),
                "properties": {"seed": _int(0, minimum=0), **self.properties}}


KINDS = {}


def _kind(name, *required, **properties):
    """Register the decorated runner as experiment ``name``; a required
    key of ``_SHARED`` takes its schema from there."""
    def register(run):
        shared = {key: _SHARED[key] for key in required if key in _SHARED}
        KINDS[name] = Kind(required, dict(shared, **properties), run)
        return run
    return register


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# a bool is neither a number nor an integer; an integral float is an integer
_TYPES = {
    "object": lambda value: isinstance(value, dict),
    "array": lambda value: isinstance(value, list),
    "string": lambda value: isinstance(value, str),
    "boolean": lambda value: isinstance(value, bool),
    "number": _is_number,
    "integer": lambda value: _is_number(value) and (
        isinstance(value, int) or value.is_integer()),
}


def _errors(schema, value, path=()):
    """(path, message) of each way ``value`` breaks ``schema``, in the
    order jsonschema yields them: schema keys in turn, depth first."""
    for key, rule in schema.items():
        if key == "type":
            if not _TYPES[rule](value):
                yield path, f"{value!r} is not of type {rule!r}"
        elif key == "enum":
            if value not in rule:
                yield path, f"{value!r} is not one of {rule!r}"
        elif key == "minimum":
            if _is_number(value) and value < rule:
                yield path, f"{value!r} is less than the minimum of {rule!r}"
        elif key == "exclusiveMinimum":
            if _is_number(value) and value <= rule:
                yield path, (f"{value!r} is less than or equal to the "
                             f"minimum of {rule!r}")
        elif key == "maximum":
            if _is_number(value) and value > rule:
                yield path, (f"{value!r} is greater than the maximum of "
                             f"{rule!r}")
        elif isinstance(value, list):
            if key == "minItems" and len(value) < rule:
                yield path, f"{value!r} is too short"
            elif key == "maxItems" and len(value) > rule:
                yield path, f"{value!r} is too long"
            elif key == "items":
                for index, item in enumerate(value):
                    yield from _errors(rule, item, path + (index,))
        elif isinstance(value, dict):
            if key == "required":
                for name in rule:
                    if name not in value:
                        yield path, f"{name!r} is a required property"
            elif key == "additionalProperties":
                extra = sorted(set(value) - set(schema["properties"]))
                if extra:
                    yield path, ("Additional properties are not allowed ("
                                 + ", ".join(map(repr, extra))
                                 + (" was" if len(extra) == 1 else " were")
                                 + " unexpected)")
            elif key == "properties":
                for name, sub in rule.items():
                    if name in value:
                        yield from _errors(sub, value[name], path + (name,))


def schema_error(schema, value):
    """The message of the error ``jsonschema.exceptions.best_match`` picks
    for ``value`` under ``schema``, or None when ``value`` validates.

    The keywords are those of the registry schemas: ``type`` (one name),
    ``enum`` (strings and null), ``minimum``, ``exclusiveMinimum``,
    ``maximum``, ``minItems`` (at least 2), ``maxItems`` (at least 1),
    ``items`` (one schema), ``required``, ``additionalProperties: false``
    and ``properties``.  best_match takes the first error with the shortest,
    then the greatest, path.  Its last tie-break, whether ``value``
    matches the type of the schema that failed, never decides here: every
    error at one path comes from the one subschema there.
    """
    best = max(_errors(schema, value), key=lambda e: (-len(e[0]), e[0]),
               default=None)
    return None if best is None else best[1]


def _typed(schema, value):
    """A valid ``value`` with each integral float that ``schema`` types as
    an integer made an int, so ``8.0`` runs and hashes like ``8``."""
    if schema.get("type") == "integer":
        return int(value)
    if "items" in schema:
        return [_typed(schema["items"], item) for item in value]
    if "properties" in schema:
        return {key: _typed(schema["properties"][key], item)
                for key, item in value.items()}
    return value


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


def _reject_constant(name):
    # Python's json reads NaN, Infinity and -Infinity, which are not JSON;
    # a NaN input would compare false with everything
    raise ConfigInvalid(f"{name} is not a JSON number")


def _load_config(path, overrides, kind):
    try:
        with open(path) as fh:
            cfg = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:
        # a JSONDecodeError, or an integer past Python's digit limit
        raise ConfigInvalid(f"cannot read config: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigInvalid("config is not a JSON object")
    for item in overrides:
        if "=" not in item:
            raise ConfigInvalid(f"override {item!r} is not KEY=VALUE")
        key, _, raw = item.partition("=")
        try:
            cfg[key] = json.loads(raw, parse_constant=_reject_constant)
        except ValueError:
            cfg[key] = raw
    entry = KINDS[kind]
    error = schema_error(entry.schema, cfg)
    if error is not None:
        raise ConfigInvalid(f"config does not validate: {error}")
    cfg = _typed(entry.schema, cfg)
    for n in _config_grid_sizes(cfg):
        # a ladder row's N is only typed as a number
        if not _TYPES["integer"](n):
            raise ConfigInvalid(f"N = {n} is not an integer")
        if not _is_power_of_two(int(n)):
            raise ConfigInvalid(f"N = {int(n)} is not a power of two")
    for key, prop in entry.schema["properties"].items():
        if "default" in prop:
            cfg.setdefault(key, prop["default"])
    cfg["kind"] = kind
    return cfg


def _config_grid_sizes(cfg):
    if "N" in cfg:
        yield cfg["N"]
    for rung in cfg["ladder"] if "ladder" in cfg else ():
        yield rung[0]


def _write_artifacts(out_dir, cfg, results, verdict_lines, passed, t0):
    os.makedirs(out_dir, exist_ok=True)
    csv_files = []
    for name, result in results:
        path = os.path.join(out_dir, name + ".csv")
        with open(path, "w") as fh:
            fh.write(result.to_csv())
        csv_files.append(os.path.basename(path))
    # the effective config: a default hashes the same stated or omitted
    digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode()).hexdigest()
    manifest = {
        "config_sha256": digest,
        "version": __version__,
        "wall_time_s": round(time.time() - t0, 3),
        "kind": cfg["kind"],
        "seed": cfg["seed"],
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


def _sigma_from_config(cfg, pair):
    return _resolve("sigma", sy.parse_sigma, cfg["sigma"], pair)


def _grid_from_config(cfg):
    return gr.make_grid(cfg["N"], float(cfg["L"]))


def _args(cfg, *keys):
    """The config keys that a library call takes under the same name."""
    return {key: cfg[key] for key in keys}


def _scalar_result(kind, label, p_label, entries, seed):
    """Pack scalar check values into the common sweep-row shape."""
    res = es.SweepResult(label, p_label, metadata={"kind": kind})
    for (N, L, T, eps, value, ok) in entries:
        res.add(N, L, T, eps, value, ok, seed)
    return res


def _verdict_lines(head, verdict, expect):
    """The verdict line, and whether the verdict meets ``expect``."""
    passed = expect is None or verdict == expect
    if expect is not None:
        head += f" (expected {expect}) {'pass' if passed else 'FAIL'}"
    return [head], passed


# ---------------------------------------------------------------------------
# the experiments: each runner returns (results, verdict_lines, passed)


@_kind("geometry-audit", "p",
       samples=_int(1000),
       construction={"enum": ["auto", "closed-form", "optimizer"],
                     "default": "auto"})
def _run_geometry_audit(cfg):
    seed = cfg["seed"]
    pair = _pair_from_config(cfg, cfg["construction"])
    # criterion 01's bounds; a closed-form dual is exact to roundoff
    closed = pair.construction == "closed-form"
    tols = (1e-8, 1e-6 if closed else 1e-5, 1e-5, 1e-8)
    rng = np.random.default_rng(seed)
    xi = rng.normal(size=(cfg["samples"], 2))
    xi = xi[np.linalg.norm(xi, axis=-1) > 1e-3]
    scale = np.exp(rng.uniform(-1.0, 1.0, xi.shape[0]))
    xi = xi * scale[:, None]
    checks = [(name, val, tol) for (name, val), tol
              in zip(sy.geometry_identities(pair, xi), tols)]
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


def _squared_norm(v):
    """|v|^2 of planar vectors as a sum of component products: einsum's
    value bit for bit in about half its time."""
    return v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1]


def _growth_symbol(growth):
    """The egorov check's one-term symbol <x>^growth <xi>^{-1}."""
    return sy.PhaseSpaceSymbol(
        "x-growth", (growth, 0.0),
        lambda x: ((1.0 + _squared_norm(x)) ** (growth / 2.0))[None],
        lambda xi: (1.0 / np.sqrt(1.0 + _squared_norm(xi)))[None])


def _phase_top(axis, v, scale):
    """scale * max |z.v| over the lattice axis^2.  The maximum and the
    minimum of z.v are sums over the axes, and the product of finite
    numbers is never NaN, so a phase past the float range reads inf."""
    with np.errstate(over="ignore"):
        t = np.multiply.outer(v, axis)
        return scale * max(np.sum(np.max(t, axis=1)),
                           -np.sum(np.min(t, axis=1)))


@_kind("egorov", "p", "N", "L",
       amp_growth=_num(1.0),
       declared_order={"type": "number"},    # amp_growth
       lams=_vec([1.0, 2.0, 4.0, 8.0], minItems=2,
                 items={"type": "number", "exclusiveMinimum": 0}),
       # points of the plane
       carrier=_vec([4.0, 0.0], minItems=2, maxItems=2),
       center=_vec([1.4, 0.0], minItems=2, maxItems=2),
       band=_vec([0.4, 1.0, 9.0, 11.0], minItems=4, maxItems=4),
       packet_spread=_num(0.8, exclusiveMinimum=0))
def _run_egorov(cfg):
    lo, lo1, hi1, hi = cfg["band"]
    if not lo < lo1 <= hi1 < hi:
        raise ConfigInvalid(f"band {cfg['band']} is not ordered "
                            "lo < lo1 <= hi1 < hi")
    seed = cfg["seed"]
    pair = _pair_from_config(cfg)
    g = _grid_from_config(cfg)
    growth = cfg["amp_growth"]
    declared = cfg.get("declared_order", growth)
    slack = 3.0    # criterion 06's bound on max/min
    a = _growth_symbol(growth)
    plan = qu.CanonicalTransformPlan(pair, gr.annular(lo, lo1, hi1, hi))
    env = gr.spectral_packets(g, np.zeros(2), cfg["packet_spread"])
    # the carrier's phase x.carrier over the box, and the recentring's
    # xi.(lam center) over the lattice, must keep a fractional digit; the
    # packet's own check names a degenerate box first
    for key, axis, scale in (("carrier", g.axis_points(), 1.0),
                             ("center", g.axis_freqs(), max(cfg["lams"]))):
        top = _phase_top(axis, np.asarray(cfg[key]), scale)
        if top >= 2.0 ** 52:
            raise ConfigInvalid(
                f"{key} {cfg[key]} gives a phase of {top:.3g} at N = "
                f"{cfg['N']}, L = {cfg['L']}: past 2^52 it keeps no "
                "fractional digit")
    ratios = qu.egorov_residual(a, plan, declared, env,
                                lams=tuple(cfg["lams"]),
                                carrier=tuple(cfg["carrier"]),
                                center=tuple(cfg["center"]))
    spreadr = max(ratios) / min(ratios)
    entries = [(cfg["N"], float(cfg["L"]), 0.0, None, r, spreadr <= slack)
               for r in ratios]
    result = _scalar_result("egorov", "conjugation-residual",
                            pair.primal.label, entries, seed)
    passed = spreadr <= slack
    lines = [f"egorov residual family max/min = {spreadr:.3f} "
             f"(slack {slack}) {'pass' if passed else 'FAIL'}"]
    return [("egorov", result)], lines, passed


@_kind("commutator", "p", "N", "L",
       profile_scale=_num(4.0, exclusiveMinimum=0),
       packet_center=_vec([3.0, 0.0], minItems=2, maxItems=2),
       packet_spread=_num(1.8, exclusiveMinimum=0),
       control={"type": "boolean", "default": False})
def _run_commutator(cfg):
    seed = cfg["seed"]
    pair = _pair_from_config(cfg)
    g = _grid_from_config(cfg)
    scale = cfg["profile_scale"]
    tol, floor = 1e-7, 1e-2    # criterion 04's bounds
    f = gr.spectral_packets(g, cfg["packet_center"], cfg["packet_spread"])

    def h(t):
        # a tiny scale overflows (t / scale)^2; exp(-inf) is h's limit 0
        with np.errstate(over="ignore"):
            return np.exp(-(t / scale) ** 2)

    if cfg["control"]:
        # multiplier depending on xi_1 only; not a function of p, so the
        # exact-commutation mechanism must fail
        mult = h(g.freq_stack()[..., 0])
        res = qu.commutator_residual(pair, h, f, multiplier=mult)
        passed = res >= floor
        line = (f"commutator control residual {res:.3e} "
                f"(floor {floor:.1e}) {'pass' if passed else 'FAIL'}")
    else:
        res = qu.commutator_residual(pair, h, f)
        passed = res <= tol
        line = (f"commutator residual {res:.3e} (tol {tol:.1e}) "
                f"{'pass' if passed else 'FAIL'}")
    entries = [(cfg["N"], float(cfg["L"]), 0.0, None, res, passed)]
    result = _scalar_result("commutator", "commutator-residual",
                            pair.primal.label, entries, seed)
    return [("commutator", result)], [line], passed


@_kind("smoothing", "p", "sigma", "ladder",
       # rungs (N, L, T)
       ladder={"type": "array", "minItems": 2, "items": {
           "type": "array", "minItems": 3, "maxItems": 3,
           "items": {"type": "number", "exclusiveMinimum": 0}}},
       trials=_int(8),
       dt=_num(0.25, exclusiveMinimum=0),
       order=_int(1),
       freq_mag=_num(0.9),
       spread=_num(0.15, exclusiveMinimum=0),
       # the half-diagonal of the box
       monitor_scale=_num(float(np.sqrt(2.0))),
       mass_tol=_num(0.999),
       expect=_EXPECT)
def _run_smoothing(cfg):
    pair = _pair_from_config(cfg)
    sigma = _sigma_from_config(cfg, pair)
    ladder = [(int(N), float(L), float(T)) for (N, L, T) in cfg["ladder"]]
    for (_, _, T) in ladder:
        _resolve("T", lambda T: ev.EvolutionSpec(
            pair, T=T, dt=cfg["dt"]).times(), T)
    result = es.smoothing_sweep(
        sigma, pair, ladder, sigma_label=cfg["sigma"],
        **_args(cfg, "trials", "seed", "dt", "order", "freq_mag", "spread",
                "monitor_scale", "mass_tol"))
    verdict = result.metadata["verdict"]
    lines, passed = _verdict_lines(f"smoothing verdict: {verdict}", verdict,
                                   cfg["expect"])
    return [("smoothing", result)], lines, passed


@_kind("lap", "p", "sigma", "N", "L",
       d=_num(1.0, exclusiveMinimum=0),
       # 2^-1074 is the least positive double
       eps_ladder_k=dict(_int(12), maximum=1074),
       trials=_int(3),
       iters=_int(20),
       order=_int(2),
       cell_quad=_int(8),
       expect=_EXPECT)
def _run_lap(cfg):
    pair = _pair_from_config(cfg)
    sigma = _sigma_from_config(cfg, pair)
    result = es.lap_sweep(
        sigma, pair, _grid_from_config(cfg),
        eps_list=ev.epsilon_ladder(cfg["eps_ladder_k"]),
        sigma_label=cfg["sigma"],
        # only a weight that vanishes on the orbit set can pass the check
        check_structure=cfg["sigma"] in sy.ORBIT_VANISHING,
        **_args(cfg, "d", "trials", "seed", "order", "iters", "cell_quad"))
    verdict = result.metadata["verdict"]
    lines, passed = _verdict_lines(
        f"lap max/min = {result.metadata['max_over_min']:.3f}, "
        f"verdict: {verdict}", verdict, cfg["expect"])
    return [("lap", result)], lines, passed


@_kind("restriction", "p", "sigma", "N", "L",
       rhos=_vec([1.0, 2.0, 4.0], minItems=2,
                 items={"type": "number", "exclusiveMinimum": 0}),
       trials=_int(4))
def _run_restriction(cfg):
    lo, hi = 1.19, 1.61    # criterion 10's window for each doubling ratio
    seed = cfg["seed"]
    pair = _pair_from_config(cfg)
    sigma = _sigma_from_config(cfg, pair)
    rhos = tuple(cfg["rhos"])
    norms = es.restriction_scaling(sigma, pair, _grid_from_config(cfg),
                                   rhos=rhos, **_args(cfg, "trials", "seed"))
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


@_kind("duality", "p", "sigma", "N", "L",
       T=_num(4.0, exclusiveMinimum=0),
       n_times=_int(33, minimum=3),
       trials=_int(4),
       order=_int(2))
def _run_duality(cfg):
    seed = cfg["seed"]
    pair = _pair_from_config(cfg)
    sigma = _sigma_from_config(cfg, pair)
    tol = 1e-8    # criterion 11's bound
    defect = es.duality_check(sigma, pair, _grid_from_config(cfg),
                              **_args(cfg, "T", "n_times", "trials", "seed",
                                      "order"))
    passed = defect <= tol
    entries = [(cfg["N"], float(cfg["L"]), cfg["T"], None, defect, passed)]
    result = _scalar_result("duality", "adjoint-defect",
                            pair.primal.label, entries, seed)
    lines = [f"duality defect {defect:.3e} (tol {tol:.1e}) "
             f"{'pass' if passed else 'FAIL'}"]
    return [("duality", result)], lines, passed


@_kind("hl-oracle", "gamma", "delta", "m_exp",
       gamma={"type": "number"},
       delta={"type": "number"},
       m_exp={"type": "number"},
       N=_int(512, minimum=4),
       L=_num(8.0, exclusiveMinimum=0))
def _run_hl_oracle(cfg):
    N, L = cfg["N"], cfg["L"]
    bound = 10.0    # no criterion covers the oracle
    box = lambda y: np.where(np.abs(y) < 2.0, 1.0, 0.0)
    ratio = es.hardy_littlewood_oracle(cfg["gamma"], cfg["delta"],
                                       cfg["m_exp"], box,
                                       **_args(cfg, "N", "L"))
    passed = ratio <= bound
    entries = [(N, L, 0.0, None, ratio, passed)]
    result = _scalar_result("hl-oracle", "hardy-littlewood", "none",
                            entries, cfg["seed"])
    lines = [f"hl-oracle ratio {ratio:.4f} (bound {bound}) "
             f"{'pass' if passed else 'FAIL'}"]
    return [("hl_oracle", result)], lines, passed


# ---------------------------------------------------------------------------
# command plumbing


def _execute(kind, config, override, out):
    t0 = time.time()
    try:
        cfg = _load_config(config, override, kind)
        results, lines, passed = KINDS[kind].run(cfg)
        _write_artifacts(out, cfg, results, lines, passed, t0)
    except ConfigInvalid as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(1)
    except SlabError as exc:
        click.echo(f"{kind} failed: {exc}", err=True)
        sys.exit(1)
    except MemoryError as exc:
        # numpy names the array it could not allocate
        click.echo(f"{kind} failed: {str(exc) or 'out of memory'}", err=True)
        sys.exit(1)
    sys.exit(0 if passed else 2)


def _subcommand(kind):
    @click.command(name=kind)
    @click.option("--config", required=True,
                  type=click.Path(exists=False, dir_okay=False))
    @click.option("--override", multiple=True, metavar="K=V")
    @click.option("--out", type=click.Path(file_okay=False), default=".")
    def cmd(config, override, out):
        _execute(kind, config, override, out)
    cmd.help = f"Run the {kind} experiment from a JSON config."
    return cmd


@click.group()
def main():
    """Numerical experiments for dispersive smoothing estimates."""


for _name in KINDS:
    main.add_command(_subcommand(_name))


if __name__ == "__main__":
    main()
