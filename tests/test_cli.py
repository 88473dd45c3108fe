"""Command line runner: config validation, artifacts, exit codes."""

import json
import os
import subprocess
import sys
import time

import jsonschema
import pytest
from click.testing import CliRunner

import slab
from slab.cli import _SCHEMAS, main


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
                               "--out", str(out)],
                        env={"SLAB_SEED": "11"})
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


@pytest.mark.parametrize("kind,cfg,env", [
    ("geometry-audit", {"p": "bogus"}, {}),
    ("geometry-audit", {"p": "quadratic-form:A=x"}, {}),
    ("geometry-audit", {"p": "perturbed:amp=x"}, {}),
    ("geometry-audit", {"p": "perturbed:amp=0.05",
                        "construction": "closed-form"}, {}),
    ("geometry-audit", {"p": "euclidean", "samples": 10},
     {"SLAB_SEED": "-3"}),
    ("restriction", {"p": "euclidean", "sigma": "nope", "N": 8, "L": 4.0},
     {}),
    ("restriction", {"p": "euclidean", "sigma": "weighted:s=x", "N": 8,
                     "L": 4.0}, {}),
    ("geometry-audit", {"p": "quadratic-form:A=[[1,2]]"}, {}),
    ("smoothing", {"p": "euclidean", "sigma": "structured", "dt": 0.3,
                   "ladder": [[16, 4.0, 1.0], [16, 8.0, 2.0]]}, {}),
], ids=["p-unknown", "p-matrix", "p-amp", "p-closed-form", "seed-negative",
        "sigma-unknown", "sigma-weight", "p-nonsquare", "smoothing-dt"])
def test_bad_names_and_seed_are_config_errors(runner, tmp_path, kind, cfg,
                                              env):
    path = write_config(tmp_path / "cfg.json", cfg)
    res = runner.invoke(main, [kind, "--config", path,
                               "--out", str(tmp_path / "out")], env=env)
    assert res.exit_code == 1
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:"), \
        res.output
    assert "Traceback" not in res.output


@pytest.mark.parametrize("kind,cfg", [
    ("egorov", {"p": "euclidean", "N": 8, "L": 4.0, "lams": []}),
    ("restriction", {"p": "euclidean", "sigma": "structured", "N": 8,
                     "L": 4.0, "rhos": []}),
    ("smoothing", {"p": "euclidean", "sigma": "structured",
                   "ladder": [[8, 4.0, 2.0]]}),
], ids=["egorov-lams", "restriction-rhos", "smoothing-ladder"])
def test_rejects_sweeps_shorter_than_two(runner, tmp_path, kind, cfg):
    # a family ratio, or a verdict's growth step, needs at least two members
    path = write_config(tmp_path / "cfg.json", cfg)
    res = runner.invoke(main, [kind, "--config", path,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    assert "config does not validate" in res.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", sorted(_SCHEMAS))
def test_schema_is_valid_against_its_metaschema(kind):
    # runs validate configs with a cached validator and skip this check
    schema = _SCHEMAS[kind]
    jsonschema.validators.validator_for(schema).check_schema(schema)


@pytest.mark.parametrize("kind,cfg", [
    ("egorov", {"p": "euclidean", "N": 8, "L": 4.0, "lams": []}),
    ("egorov", {"p": "euclidean", "N": "8", "L": -1.0, "bogus": 1}),
    ("smoothing", {"p": "euclidean", "sigma": 3, "ladder": [[8, 4.0]]}),
    ("lap", {"sigma": "structured", "N": 2}),
])
def test_validation_message_matches_jsonschema_validate(runner, tmp_path,
                                                         kind, cfg):
    with pytest.raises(jsonschema.ValidationError) as exc:
        jsonschema.validate(cfg, _SCHEMAS[kind])
    path = write_config(tmp_path / "cfg.json", cfg)
    res = runner.invoke(main, [kind, "--config", path,
                               "--out", str(tmp_path / "out")])
    assert res.exit_code == 1
    assert res.output == ("config error: config does not validate: "
                          f"{exc.value.message}\n")
