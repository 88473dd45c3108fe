#!/usr/bin/env python3
"""Benchmark of the slab CLI, driven in-process through ``slab.cli.main``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record

Run from the root of a source tree: the package is imported from
``src/``.  One process runs one workload (see ``workloads.py``) as many
times as fit in ``--seconds``; the first sample is an untimed warm-up.
Every CLI run is checked: exit code and verdict at every seed, and at the
default seed also the stored references (``references.json``).  Every
sample must also reproduce the first sample's artifacts byte for byte.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
traced and untraced samples and reports per-layer calls, self times and
computed work counters (``tracing.py``).  Metric names and units come
from ``BENCHMARK.json``.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
``--record`` rewrites ``references.json`` from one run of every workload
at the default seed.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

from workloads import DEFAULT_SEED, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
REFERENCES = BENCH / "references.json"

# Relative tolerance on CSV ratios at the default seed (the roadmap's
# 1e-10 gate).
RATIO_RTOL = 1e-10
# Fresh-interpreter imports of slab.cli per run; their median is setup_s.
SETUP_REPEATS = 5
# Timed samples taken even when they outlast --seconds.
MIN_SAMPLES = 3


class Failure(Exception):
    """A CLI run whose outputs do not pass the benchmark's checks."""


def _cap_threads():
    # Must run before numpy is imported: BLAS reads these once at load.
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ[var] = nproc


def _import_slab():
    if not (SRC / "slab" / "cli.py").is_file():
        raise SystemExit(f"no slab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import slab
    if Path(slab.__file__).resolve().parent != SRC / "slab":
        raise SystemExit(f"slab imported from {slab.__file__}, not {SRC}")
    from slab import cli, errors, estimates, evolve, grid, quantize, symbols
    modules = {"grid": grid, "symbols": symbols, "quantize": quantize,
               "evolve": evolve, "estimates": estimates}
    return cli, errors, modules


def _environment():
    import numpy as np
    import scipy
    deps = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "loadavg": os.getloadavg(),
    }


def measure_setup():
    """Median seconds for a fresh interpreter to import slab.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import slab.cli"]
    times = []
    # the first import may compile bytecode, which users pay once
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times[1:])


# ---------------------------------------------------------------------------
# CLI runs and their checks


def _compare_csv(name, text, ref):
    rows, ref_rows = text.splitlines(), ref.splitlines()
    if rows[:1] != ref_rows[:1] or len(rows) != len(ref_rows):
        raise Failure(f"{name}: header or row count differs")
    if not ref_rows[0].endswith(",ratio,mass_ok,seed"):
        raise Failure(f"{name}: unexpected header {ref_rows[0]!r}")
    for row, ref_row in zip(rows[1:], ref_rows[1:]):
        # labels may contain commas, so split from the right
        head, ratio, *tail = row.rsplit(",", 3)
        ref_head, ref_ratio, *ref_tail = ref_row.rsplit(",", 3)
        if head != ref_head or tail != ref_tail:
            raise Failure(f"{name}: row {row!r} != {ref_row!r}")
        value, expected = float(ratio), float(ref_ratio)
        if not abs(value - expected) <= RATIO_RTOL * abs(expected):
            raise Failure(f"{name}: ratio {value!r} != {expected!r}")


class Runner:
    """Runs one workload's CLI invocations and checks their outputs."""

    def __init__(self, cli, workload, seed, references):
        self.cli = cli
        self.name = workload
        self.runs = WORKLOADS[workload]
        self.seed = seed
        self.references = references
        self.first = None
        self.dir = WORK / workload
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.configs = {}
        for run in self.runs:
            path = self.dir / f"{run.name}.json"
            path.write_text(json.dumps(dict(run.config, seed=seed)))
            self.configs[run.name] = path

    def invoke(self, run, tracer=None):
        """Run the CLI once; returns (exit code, wall s, cpu s, outputs)."""
        out = self.dir / run.name
        shutil.rmtree(out, ignore_errors=True)
        args = [run.kind, "--config", str(self.configs[run.name]),
                "--out", str(out)]
        code = None
        t0 = time.perf_counter()
        c0 = time.process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    self.cli.main(args=args, standalone_mode=False)
                else:
                    tracer.call("cli.main", self.cli.main, args=args,
                                standalone_mode=False)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception:  # a crash is a failed run, not the benchmark's
            print(f"{self.name}/{run.name}:", file=sys.stderr)
            traceback.print_exc()
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        return code, wall, cpu, self._outputs(out)

    @staticmethod
    def _outputs(out):
        outputs = {}
        try:
            manifest = json.loads((out / "manifest.json").read_text())
            outputs["verdict.txt"] = (out / "verdict.txt").read_text()
            for name in manifest["csv"]:
                outputs[name] = (out / name).read_text()
        except (OSError, ValueError, KeyError):
            pass
        return outputs

    def check(self, run, code, outputs):
        """Raise Failure unless a run's outputs pass every check."""
        if code != 0:
            raise Failure(f"exit code {code}")
        verdict = outputs.get("verdict.txt", "")
        if not re.search(run.verdict, verdict, re.M):
            raise Failure(f"unexpected verdict {verdict!r}")
        if self.first is not None and outputs != self.first[run.name]:
            raise Failure("artifacts differ from the first sample's")
        if self.seed != DEFAULT_SEED or not run.compare_reference:
            return
        ref = self.references[f"{self.name}/{run.name}"]
        if sorted(outputs) != sorted(ref):
            raise Failure(f"artifacts {sorted(outputs)}")
        for name, text in outputs.items():
            if name == "verdict.txt":
                if text != ref[name]:
                    raise Failure(f"verdict {text!r}")
            else:
                _compare_csv(name, text, ref[name])

    def sample(self, tracer=None):
        """Every CLI run of the workload once: (wall s, cpu s, failed)."""
        wall = cpu = 0.0
        failed = 0
        outputs = {}
        for run in self.runs:
            code, w, c, out = self.invoke(run, tracer)
            wall += w
            cpu += c
            outputs[run.name] = out
            try:
                self.check(run, code, out)
            except Failure as exc:
                failed += 1
                print(f"{self.name}/{run.name}: {exc}", file=sys.stderr)
        if self.first is None:
            self.first = outputs
        return wall, cpu, failed


# ---------------------------------------------------------------------------
# measured runs


def _spread(values):
    q = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q[0], "median": q[1], "q3": q[2],
            "min": min(values), "max": max(values)}


def timed_run(runner, seconds):
    """End-to-end metrics with tracing off."""
    setup = measure_setup()
    deadline = time.perf_counter() + seconds
    attempted = failed = 0
    walls, cpus = [], []
    warm = True
    while True:
        t0 = time.perf_counter()
        wall, cpu, bad = runner.sample()
        took = time.perf_counter() - t0
        attempted += len(runner.runs)
        failed += bad
        if not warm:
            walls.append(wall)
            cpus.append(cpu)
        warm = False
        if len(walls) >= MIN_SAMPLES and time.perf_counter() + took > deadline:
            break
    print("samples: " + json.dumps({"wall_s": _spread(walls),
                                    "cpu_s": _spread(cpus),
                                    "loadavg": os.getloadavg()}))
    # ru_maxrss is in KiB on Linux
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": setup,
        "peak_rss_mb": rss,
        "success_rate": (attempted - failed) / attempted,
    }
    return attempted, failed, metrics


def traced_run(runner, seconds, modules, errors):
    """Per-layer metrics: traced samples alternate with untraced ones."""
    # imports numpy, so only after _cap_threads
    from tracing import COUNTERS, Tracer, span_names

    tracer = Tracer()
    deadline = time.perf_counter() + seconds
    attempted = failed = 0
    plain, traced, selfs = [], [], []
    counts = None

    def untraced():
        nonlocal attempted, failed
        wall, _, bad = runner.sample()
        attempted += len(runner.runs)
        failed += bad
        return wall

    untraced()  # warm-up; its artifacts are what traced runs must match
    while True:
        t0 = time.perf_counter()
        tracer.reset()
        tracer.install(modules)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                wall, _, bad = runner.sample(tracer)
        finally:
            tracer.uninstall()
        tracer.counters["quantize.cutoff_leakage.warnings"] += sum(
            issubclass(w.category, errors.CutoffLeakage) for w in caught)
        attempted += len(runner.runs)
        failed += bad
        traced.append(wall)
        times = tracer.self_times()
        selfs.append(times)
        sample_counts = {name: calls for name, (calls, _) in times.items()}
        sample_counts.update(tracer.counters)
        if counts is None:
            counts = sample_counts
        elif sample_counts != counts:
            failed += len(runner.runs)
            print(f"{runner.name}: counts differ between traced samples",
                  file=sys.stderr)
        plain.append(untraced())
        took = time.perf_counter() - t0
        if len(traced) >= 2 and time.perf_counter() + took > deadline:
            break
    tracer.write_spans(runner.dir / "spans.jsonl")

    def self_s(name):
        return statistics.median(t.get(name, (0, 0.0))[1] for t in selfs)

    metrics = {}
    for name in span_names():
        metrics[f"{name}.calls"] = counts.get(name, 0)
        metrics[f"{name}.self_s"] = self_s(name)
    for name in COUNTERS:
        metrics[name] = counts.get(name, 0)
    for group in ("symbols.closed", "symbols.support"):
        metrics[f"{group}.points"] = counts.get(f"{group}.points", 0)
    points = metrics["symbols.support.points"]
    metrics["symbols.support.starts_per_point"] = (
        metrics["symbols.minimize.calls"] / points if points else 0.0)
    metrics["cli.main.self_s"] = self_s("cli.main")
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    print("samples: " + json.dumps({"traced_wall_s": _spread(traced),
                                    "untraced_wall_s": _spread(plain),
                                    "spans": len(tracer.spans),
                                    "loadavg": os.getloadavg()}))
    return attempted, failed, metrics


def record(cli):
    """Write references.json from one run of each workload at the
    default seed."""
    runs = {}
    for workload in WORKLOADS:
        runner = Runner(cli, workload, DEFAULT_SEED, None)
        for run in runner.runs:
            code, _, _, outputs = runner.invoke(run)
            if code != 0 or not re.search(
                    run.verdict, outputs.get("verdict.txt", ""), re.M):
                raise SystemExit(f"{workload}/{run.name}: exit {code}, "
                                 f"{outputs.get('verdict.txt')!r}")
            runs[f"{workload}/{run.name}"] = outputs
    REFERENCES.write_text(json.dumps({"seed": DEFAULT_SEED, "runs": runs},
                                     indent=1, sort_keys=True) + "\n")


def _report(spec, values):
    """Pair each metric of ``spec`` with its value and unit."""
    names = [m["name"] for m in spec]
    if sorted(names) != sorted(values):
        raise SystemExit(f"metrics {sorted(values)} do not match {names}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite references.json and exit")
    args = parser.parse_args(argv)
    if args.workload is None and not args.record:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    _cap_threads()
    cli, errors, modules = _import_slab()
    print("env: " + json.dumps(_environment()), flush=True)
    if args.record:
        record(cli)
        return 0
    references = json.loads(REFERENCES.read_text())["runs"]
    runner = Runner(cli, args.workload, args.seed, references)
    if args.trace:
        attempted, failed, values = traced_run(runner, seconds,
                                               modules, errors)
        metrics = _report(spec["per_layer"], values)
    else:
        attempted, failed, values = timed_run(runner, seconds)
        metrics = _report(spec["end_to_end"], values)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
