"""Command line runner: config validation, artifacts, exit codes."""

import inspect
import json
import os
import subprocess
import sys
import time

import jsonschema
import numpy as np
import pytest
from click.testing import CliRunner

import slab
from slab import estimates as es
from slab import evolve as ev
from slab import grid as gr
from slab import symbols as sy
from slab.cli import KINDS, main


@pytest.fixture
def runner():
    return CliRunner()


def write_config(path, cfg):
    path.write_text(json.dumps(cfg))
    return str(path)


def test_geometry_audit_pass_and_artifacts(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       {"p": "euclidean", "samples": 200})
    out = tmp_path / "out"
    res = runner.invoke(main, ["geometry-audit", "--config", cfg,
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["kind"] == "geometry-audit"
    assert manifest["passed"] is True
    assert manifest["seed"] == 0
    assert manifest["version"]
    assert len(manifest["config_sha256"]) == 64
    assert manifest["csv"] == ["geometry.csv"]
    csv = (out / "geometry.csv").read_text()
    assert csv.splitlines()[0] == "symbol,p,N,L,T,eps,ratio,mass_ok,seed"
    verdict = (out / "verdict.txt").read_text()
    assert "pass" in verdict
    assert "geometry-audit" in res.output


def test_rejects_non_power_of_two_grid(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       {"p": "euclidean", "N": 100, "L": 16.0})
    res = runner.invoke(main, ["commutator", "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    assert "not a power of two" in res.output


def test_rejects_non_integral_ladder_grid(runner, tmp_path):
    # a ladder row is typed as numbers only; N = 16.5 must not run as 16
    cfg = write_config(tmp_path / "cfg.json", {
        "p": "euclidean", "sigma": "structured",
        "ladder": [[16.5, 4.0, 1.0], [16, 8.0, 2.0]]})
    res = runner.invoke(main, ["smoothing", "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    assert res.output == "config error: N = 16.5 is not an integer\n"
    assert not (tmp_path / "out").exists()


_SMOOTHING = {"p": "euclidean", "sigma": "structured",
              "ladder": [[16, 4.0, 1.0], [16, 8.0, 2.0]]}


# each integer key reaches a call that rejects a float: make_grid's
# N & (N - 1), SeedSequence.spawn(trials), default_rng(seed)
@pytest.mark.parametrize("kind,cfg,key,value,override", [
    ("commutator", {"p": "euclidean", "L": 4.0}, "N", 16, False),
    ("smoothing", _SMOOTHING, "trials", 2, False),
    ("geometry-audit", {"p": "euclidean", "samples": 20}, "seed", 1, False),
    ("smoothing", _SMOOTHING, "trials", 2, True),
], ids=["N-make_grid", "trials-spawn", "seed-default_rng",
        "override-trials"])
def test_integral_float_runs_like_its_int(runner, tmp_path, kind, cfg, key,
                                          value, override):
    outputs = []
    for spelled in (value, float(value)):
        out = tmp_path / repr(spelled)
        path = write_config(tmp_path / "cfg.json",
                            cfg if override else dict(cfg, **{key: spelled}))
        extra = ["--override", f"{key}={spelled!r}"] if override else []
        res = runner.invoke(main, [kind, "--config", path, "--out", str(out),
                                   *extra])
        assert res.exit_code in (0, 2), res.output
        manifest = json.loads((out / "manifest.json").read_text())
        artifacts = {p.name: p.read_bytes() for p in out.iterdir()
                     if p.name != "manifest.json"}
        outputs.append((res.exit_code, manifest["config_sha256"],
                        artifacts))
    assert outputs[0] == outputs[1]


def test_integer_past_the_digit_limit_is_a_config_error(runner, tmp_path):
    huge = "1" * 5000
    path = tmp_path / "huge.json"
    path.write_text('{"p": "euclidean", "samples": %s}' % huge)
    plain = write_config(tmp_path / "cfg.json", {"p": "euclidean"})
    for args in (["--config", str(path)],
                 ["--config", plain, "--override", f"samples={huge}"]):
        res = runner.invoke(main, ["geometry-audit", *args,
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 1
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error:"), \
            res.output


def test_rejects_unknown_key(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       {"p": "euclidean", "smaples": 10})
    res = runner.invoke(main, ["geometry-audit", "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    assert "config" in res.output


def test_rejects_kind_mismatch(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       {"kind": "duality", "p": "euclidean", "samples": 10})
    res = runner.invoke(main, ["geometry-audit", "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    assert "does not match" in res.output


def test_rejects_malformed_override(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json", {"p": "euclidean"})
    res = runner.invoke(main, ["geometry-audit", "--config", cfg,
                               "--override", "samples",
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    assert "KEY=VALUE" in res.output


def test_missing_config_file(runner, tmp_path):
    res = runner.invoke(main, ["geometry-audit", "--config",
                               str(tmp_path / "absent.json"),
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    assert "cannot read config" in res.output


def test_seed_env_override(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       {"p": "euclidean", "samples": 100, "seed": 3})
    out = tmp_path / "out"
    res = runner.invoke(main, ["geometry-audit", "--config", cfg,
                               "--out", str(out), "--override", "seed=11"])
    assert res.exit_code == 0, res.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11


def test_verdict_failure_exits_two(runner, tmp_path):
    # an unreachable tolerance makes the check fail while the run itself
    # completes, so the exit code distinguishes the two outcomes
    cfg = write_config(tmp_path / "cfg.json",
                       {"p": "euclidean", "N": 32, "L": 8.0})
    out = tmp_path / "out"
    res = runner.invoke(main, ["commutator", "--config", cfg,
                               "--override", "tol=1e-30",
                               "--out", str(out)])
    assert res.exit_code == 2, res.output
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["passed"] is False
    assert "FAIL" in (out / "verdict.txt").read_text()


def test_commutator_pass(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       {"p": "euclidean", "N": 128, "L": 16.0})
    res = runner.invoke(main, ["commutator", "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output


def test_hl_oracle_runs(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       {"gamma": 0.25, "delta": 0.25, "m_exp": 0.5,
                        "N": 256, "L": 8.0})
    out = tmp_path / "out"
    res = runner.invoke(main, ["hl-oracle", "--config", cfg,
                               "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert (out / "hl_oracle.csv").exists()


def test_csv_bytes_reproducible(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       {"p": "quadratic-form:A=[[1.0,0.0],[0.0,0.5]]",
                        "samples": 300, "seed": 5})
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        res = runner.invoke(main, ["geometry-audit", "--config", cfg,
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        blobs.append((out / "geometry.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_perturbed_tau_duality_on_a_grid(runner, tmp_path):
    # every x-factor of tau evaluates the support-built dual on the grid
    cfg = write_config(tmp_path / "cfg.json",
                       {"p": "perturbed:amp=0.05", "sigma": "tau", "N": 32,
                        "L": 16.0, "n_times": 3, "tol": 1e-8})
    t0 = time.monotonic()
    res = runner.invoke(main, ["duality", "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert time.monotonic() - t0 < 10.0
    assert res.exit_code == 0, res.output
    assert "duality defect" in res.output


def test_optimizer_geometry_audit_roundtrip_at_roundoff(runner, tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       {"p": "perturbed:amp=0.05", "construction": "optimizer",
                        "tol_roundtrip": 1e-12})
    res = runner.invoke(main, ["geometry-audit", "--config", cfg,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 0, res.output
    assert "psi-roundtrip" in res.output


def test_module_entry_point_runs(tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       {"gamma": 0.25, "delta": 0.25, "m_exp": 0.5})
    src = os.path.dirname(os.path.dirname(os.path.abspath(slab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, "-m", "slab", "hl-oracle", "--config", cfg,
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "hl-oracle ratio" in res.stdout
    assert (tmp_path / "out" / "hl_oracle.csv").is_file()


@pytest.mark.parametrize("kind,cfg,args", [
    ("geometry-audit", {"p": "bogus"}, []),
    ("geometry-audit", {"p": "quadratic-form:A=x"}, []),
    ("geometry-audit", {"p": "perturbed:amp=x"}, []),
    ("geometry-audit", {"p": "perturbed:amp=0.05",
                        "construction": "closed-form"}, []),
    ("geometry-audit", {"p": "euclidean", "samples": 10},
     ["--override", "seed=-3"]),
    ("restriction", {"p": "euclidean", "sigma": "nope", "N": 8, "L": 4.0},
     []),
    ("restriction", {"p": "euclidean", "sigma": "weighted:s=x", "N": 8,
                     "L": 4.0}, []),
    ("geometry-audit", {"p": "quadratic-form:A=[[1,2]]"}, []),
    ("smoothing", {"p": "euclidean", "sigma": "structured", "dt": 0.3,
                   "ladder": [[16, 4.0, 1.0], [16, 8.0, 2.0]]}, []),
    # the plane has one index pair and no pair_indices key: each of
    # these is an unknown key
    ("commutator", {"p": "euclidean", "N": 16, "L": 4.0,
                    "pair_indices": [0, 5]}, []),
    ("commutator", {"p": "euclidean", "N": 16, "L": 4.0,
                    "pair_indices": [1, 0]}, []),
    ("commutator", {"p": "euclidean", "N": 16, "L": 4.0,
                    "pair_indices": [0, 0]}, []),
    ("hl-oracle", [0.5, 0.5, 1.0], []),
    ("egorov", {"p": "euclidean", "N": 8, "L": 4.0, "carrier": []}, []),
    ("egorov", {"p": "euclidean", "N": 8, "L": 4.0,
                "carrier": [1.0, 2.0, 3.0]}, []),
    ("egorov", {"p": "euclidean", "N": 8, "L": 4.0, "center": [1.0]}, []),
    ("commutator", {"p": "euclidean", "N": 16, "L": 4.0,
                    "packet_center": [1.0, 2.0, 3.0]}, []),
    ("commutator", {"p": "euclidean", "N": 16, "L": 4.0,
                    "packet_center": [1.0]}, []),
    ("egorov", {"p": "euclidean", "N": 8, "L": 4.0, "packet_spread": 0},
     []),
    ("commutator", {"p": "euclidean", "N": 16, "L": 4.0,
                    "packet_spread": 0}, []),
    ("smoothing", dict(_SMOOTHING, spread=0), []),
    ("smoothing", dict(_SMOOTHING, spread=-0.1), []),
    ("restriction", {"p": "euclidean", "sigma": "structured", "N": 8,
                     "L": 4.0, "rhos": [0, 1]}, []),
    ("egorov", {"p": "euclidean", "N": 8, "L": 4.0, "lams": [-1, 1]}, []),
    ("egorov", {"p": "euclidean", "N": 8, "L": 4.0, "lams": [0, 1]}, []),
    # 2^-1075 rounds to 0.0, which no resolvent rung takes
    ("lap", {"p": "euclidean", "sigma": "structured", "N": 8, "L": 4.0,
             "eps_ladder_k": 1075}, []),
], ids=["p-unknown", "p-matrix", "p-amp", "p-closed-form", "seed-negative",
        "sigma-unknown", "sigma-weight", "p-nonsquare", "smoothing-dt",
        "pair-out-of-range", "pair-reversed", "pair-diagonal",
        "config-not-object", "carrier-empty", "carrier-3d", "center-1d",
        "packet_center-3d", "packet_center-1d", "egorov-spread-zero",
        "commutator-spread-zero", "smoothing-spread-zero",
        "smoothing-spread-negative", "rhos-zero", "lams-negative",
        "lams-zero", "eps_ladder_k-underflow"])
def test_bad_names_and_seed_are_config_errors(runner, tmp_path, kind, cfg,
                                              args):
    path = write_config(tmp_path / "cfg.json", cfg)
    res = runner.invoke(main, [kind, "--config", path,
                               "--out", str(tmp_path / "out"), *args])
    assert res.exit_code == 1
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), \
        res.output
    assert "Traceback" not in res.output


def test_unordered_egorov_band_is_a_config_error(runner, tmp_path):
    # lo = lo1 made the annular cutoff divide by zero and run a step
    path = write_config(tmp_path / "cfg.json",
                        {"p": "euclidean", "N": 8, "L": 4.0,
                         "band": [1, 1, 9, 11]})
    res = runner.invoke(main, ["egorov", "--config", path,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    assert res.output == ("config error: band [1, 1, 9, 11] is not ordered "
                          "lo < lo1 <= hi1 < hi\n")
    assert not (tmp_path / "out").exists()


def test_unordered_restriction_window_is_a_config_error(runner, tmp_path):
    # a reversed window ran the whole sweep and then failed every ratio
    path = write_config(tmp_path / "cfg.json",
                        {"p": "euclidean", "sigma": "structured", "N": 8,
                         "L": 4.0, "window": [1.61, 1.19]})
    res = runner.invoke(main, ["restriction", "--config", path,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    assert res.output == ("config error: window [1.61, 1.19] is not "
                          "ordered lo <= hi\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("override", [False, True])
def test_non_finite_json_literals_are_config_errors(runner, tmp_path,
                                                    literal, override):
    # Python's json reads them; a NaN tolerance would compare false with
    # every residual, and an infinite L fails deep in the plan
    cfg = {"p": "euclidean", "N": 16, "L": 4.0}
    path = tmp_path / "cfg.json"
    if override:
        write_config(path, cfg)
        extra = ["--override", f"tol={literal}"]
    else:
        path.write_text('{"p": "euclidean", "N": 16, "L": %s}' % literal)
        extra = []
    res = runner.invoke(main, ["commutator", "--config", str(path),
                               "--out", str(tmp_path / "out"), *extra])
    assert res.exit_code == 1
    assert res.output == f"config error: {literal} is not a JSON number\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind,cfg", [
    ("egorov", {"p": "euclidean", "N": 8, "L": 4.0, "lams": []}),
    ("restriction", {"p": "euclidean", "sigma": "structured", "N": 8,
                     "L": 4.0, "rhos": []}),
    ("smoothing", {"p": "euclidean", "sigma": "structured",
                   "ladder": [[8, 4.0, 2.0]]}),
    # k = 0 is a one-rung epsilon ladder
    ("lap", {"p": "euclidean", "sigma": "structured", "N": 16, "L": 4.0,
             "eps_ladder_k": 0}),
], ids=["egorov-lams", "restriction-rhos", "smoothing-ladder",
        "lap-eps_ladder_k"])
def test_rejects_sweeps_shorter_than_two(runner, tmp_path, kind, cfg):
    # a family ratio, or a verdict's growth step, needs at least two members
    path = write_config(tmp_path / "cfg.json", cfg)
    res = runner.invoke(main, [kind, "--config", path,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    assert "config does not validate" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_schema_is_valid_against_its_metaschema(kind):
    # runs validate configs with a cached validator and skip this check
    schema = KINDS[kind].schema
    jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("kind,cfg", [
    ("egorov", {"p": "euclidean", "N": 8, "L": 4.0, "lams": []}),
    ("egorov", {"p": "euclidean", "N": "8", "L": -1.0, "bogus": 1}),
    ("smoothing", {"p": "euclidean", "sigma": 3, "ladder": [[8, 4.0]]}),
    ("lap", {"sigma": "structured", "N": 2}),
    ("smoothing", {"p": "euclidean", "sigma": "structured",
                   "ladder": [[16, 4.0, -1.0], [16, 8.0, 2.0]]}),
    ("lap", {"p": "euclidean", "sigma": "structured", "N": 16, "L": 4.0,
             "eps_ladder_k": 0}),
    ("lap", {"p": "euclidean", "sigma": "structured", "N": 16, "L": 4.0,
             "eps_ladder_k": 2000}),
])
def test_validation_message_matches_jsonschema_validate(runner, tmp_path,
                                                         kind, cfg):
    with pytest.raises(jsonschema.ValidationError) as exc:
        jsonschema.validate(cfg, KINDS[kind].schema)
    path = write_config(tmp_path / "cfg.json", cfg)
    res = runner.invoke(main, [kind, "--config", path,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    assert res.output == ("config error: config does not validate: "
                          f"{exc.value.message}\n")


def test_hl_oracle_other_dimension_is_a_one_line_error(runner, tmp_path):
    # the oracle runs on the line: a stated dimension is an unknown key,
    # and exponents admissible in the plane break the line's bounds
    for cfg, start in (
            ({"gamma": 0.25, "delta": 0.25, "m_exp": 0.5, "n": 2},
             "config error: config does not validate: Additional "
             "properties are not allowed ('n' was unexpected)"),
            ({"gamma": 0.5, "delta": 0.5, "m_exp": 1.0},
             "hl-oracle failed: need gamma, delta < 1/2 and m < 1")):
        path = write_config(tmp_path / "cfg.json", cfg)
        res = runner.invoke(main, ["hl-oracle", "--config", path,
                                   "--out", str(tmp_path / "out")])
        assert res.exit_code == 1
        assert res.output == start + "\n"
        assert not (tmp_path / "out").exists()


def test_hl_oracle_without_a_positive_sample_fails(runner, tmp_path):
    # with L = 1e300 no sample falls in the box |y| < 2; the quotient is
    # 0/0, which once read as a passing ratio of 0
    path = write_config(tmp_path / "cfg.json",
                        {"gamma": 0.25, "delta": 0.25, "m_exp": 0.5,
                         "L": 1e300})
    res = runner.invoke(main, ["hl-oracle", "--config", path,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("hl-oracle failed:"), \
        res.output
    assert "0/0" in lines[0]
    assert not (tmp_path / "out").exists()


def registry_defaults(kind):
    return {key: prop["default"]
            for key, prop in KINDS[kind].schema["properties"].items()
            if "default" in prop}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_schema_defaults_satisfy_their_own_property(kind):
    defaults = registry_defaults(kind)
    assert {"seed", "out"} <= set(defaults)
    for key, value in defaults.items():
        jsonschema.validate(value, KINDS[kind].schema["properties"][key])


def test_config_hash_covers_the_effective_config(runner, tmp_path):
    base = {"p": "euclidean", "samples": 50}
    stated = dict(registry_defaults("geometry-audit"), kind="geometry-audit",
                  **base)
    digests = []
    for tag, cfg in (("omitted", base), ("stated", stated),
                     ("changed", dict(base, tol_grad=2e-5))):
        path = write_config(tmp_path / f"{tag}.json", cfg)
        out = tmp_path / tag
        res = runner.invoke(main, ["geometry-audit", "--config", path,
                                   "--out", str(out)])
        assert res.exit_code == 0, res.output
        manifest = json.loads((out / "manifest.json").read_text())
        digests.append(manifest["config_sha256"])
    assert digests[0] == digests[1] != digests[2]


def _box(y):
    return np.where(np.abs(y) < 2.0, 1.0, 0.0)


# each kind's library call, every parameter taken from the effective config
_LIBRARY_CALLS = {
    "smoothing": (
        {"p": "euclidean", "sigma": "structured",
         "ladder": [[32, 8.0, 2.0], [32, 16.0, 4.0]]},
        lambda c, pair, sigma: es.smoothing_sweep(
            sigma, pair, [(int(N), float(L), float(T))
                          for N, L, T in c["ladder"]],
            trials=c["trials"], seed=c["seed"], dt=c["dt"],
            order=c["order"], freq_mag=c["freq_mag"], spread=c["spread"],
            monitor_scale=c["monitor_scale"],
            mass_tol=c["mass_tol"]).ratios()),
    "lap": (
        {"p": "euclidean", "sigma": "structured", "N": 16, "L": 4.0},
        lambda c, pair, sigma: es.lap_sweep(
            sigma, pair, gr.make_grid(c["N"], c["L"]), d=c["d"],
            eps_list=ev.epsilon_ladder(c["eps_ladder_k"]),
            trials=c["trials"], seed=c["seed"], order=c["order"],
            check_structure=c["check_structure"], iters=c["iters"],
            cell_quad=c["cell_quad"]).ratios()),
    "restriction": (
        {"p": "euclidean", "sigma": "structured", "N": 32, "L": 8.0},
        lambda c, pair, sigma: es.restriction_scaling(
            sigma, pair, gr.make_grid(c["N"], c["L"]),
            rhos=tuple(c["rhos"]), trials=c["trials"], seed=c["seed"])),
    "duality": (
        {"p": "euclidean", "sigma": "structured", "N": 16, "L": 4.0},
        lambda c, pair, sigma: [es.duality_check(
            sigma, pair, gr.make_grid(c["N"], c["L"]), T=c["T"],
            n_times=c["n_times"], trials=c["trials"], seed=c["seed"],
            order=c["order"])]),
    "hl-oracle": (
        {"gamma": 0.25, "delta": 0.25, "m_exp": 0.5},
        lambda c, pair, sigma: [es.hardy_littlewood_oracle(
            c["gamma"], c["delta"], c["m_exp"], _box, N=c["N"],
            L=c["L"])]),
}


@pytest.mark.parametrize("kind", sorted(_LIBRARY_CALLS))
def test_library_with_registry_defaults_matches_cli(runner, tmp_path, kind):
    cfg, call = _LIBRARY_CALLS[kind]
    path = write_config(tmp_path / "cfg.json", cfg)
    out = tmp_path / "out"
    res = runner.invoke(main, [kind, "--config", path, "--out", str(out)])
    assert res.exit_code in (0, 2), res.output
    csv = (out / f"{kind.replace('-', '_')}.csv").read_text()
    # ratio is the third column from the end of each row
    cli_ratios = [float(row.split(",")[-3]) for row in csv.splitlines()[1:]]
    c = dict(registry_defaults(kind), **cfg)
    pair = sy.make_pair(c["p"]) if "sigma" in c else None
    sigma = sy.parse_sigma(c["sigma"], pair) if pair else None
    assert call(c, pair, sigma) == cli_ratios


# library functions that take a registry value under another name: the
# smoothing monitor radius is monitor_scale * L, the lap starts are trials
_RENAMED_PARAMETERS = {
    "smoothing_ratio": (es.smoothing_ratio, {"monitor_radius", "mass_tol"}),
    "operator_norm": (es.operator_norm, {"iters", "starts", "seed"}),
}


@pytest.mark.parametrize("kind", sorted(_LIBRARY_CALLS)
                         + sorted(_RENAMED_PARAMETERS))
def test_library_has_no_default_that_the_registry_sets(kind):
    if kind in _RENAMED_PARAMETERS:
        fn, shared = _RENAMED_PARAMETERS[kind]
        params = inspect.signature(fn).parameters
    else:
        fn = {"smoothing": es.smoothing_sweep, "lap": es.lap_sweep,
              "restriction": es.restriction_scaling,
              "duality": es.duality_check,
              "hl-oracle": es.hardy_littlewood_oracle}[kind]
        params = inspect.signature(fn).parameters
        # lap's eps_ladder_k sets the library's eps_list
        set_by_registry = set(registry_defaults(kind)) | {"eps_list"}
        shared = set_by_registry & set(params)
        # the oracle shares only its grid, N and L
        assert "seed" in shared or kind == "hl-oracle"
        assert len(shared) >= (2 if kind == "hl-oracle" else 3)
    for name in shared:
        assert params[name].kind is inspect.Parameter.KEYWORD_ONLY, name
        assert params[name].default is inspect.Parameter.empty, name
