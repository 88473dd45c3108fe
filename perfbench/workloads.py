"""Benchmark workloads: each is a short list of slab CLI runs.

Sizes are scaled so that one sample (every run of a workload, once)
takes a few seconds, which leaves several samples per measured run.
Each CLI run keeps the layer profile it was chosen for; README.md holds
the prediction table of which layer each one stresses.
"""

from dataclasses import dataclass

# The seed at which the stored references apply; other seeds skip them.
DEFAULT_SEED = 0


@dataclass(frozen=True)
class CliRun:
    """One ``slab <kind> --config ...`` invocation and its expected outcome.

    ``verdict`` is a regular expression that ``verdict.txt`` must match
    (multi-line mode) at every seed.  ``compare_reference`` selects the
    stricter check at the default seed: verdict lines and CSV rows equal
    to the references, ratios within ``RATIO_RTOL`` of ``run.py``.
    """

    name: str
    kind: str
    config: dict
    verdict: str
    compare_reference: bool = True


_SMOOTHING_LADDER = [[64, 16.0, 8.0], [64, 32.0, 16.0], [64, 64.0, 32.0]]

# Two workloads, each a few CLI runs, so that each measured run can be
# long: on a shared machine a run must span several slow phases to be
# steady.  Every run stresses different functions; the traced run tells
# them apart.
WORKLOADS = {
    # Grid-wide spectral work: FFTs, separable application, propagation
    # and resolvents.  No direct Kohn-Nirenberg sum, no support solves.
    "smoothing-lap": [
        # The paper's headline contrast: the structured weight stays
        # bounded while the critical unstructured weight grows.  Time goes
        # to propagation, separable apply_pseudo and FFTs.  The bounded
        # verdict allows 10 % growth on the last rung.  Over seeds 0..59
        # the structured run's last step grew at most 7.9 % with three
        # trials per rung (standard deviation 3.5 %); with two, the
        # deviation was 4.6 %.
        CliRun("smoothing-structured", "smoothing",
               {"p": "euclidean", "sigma": "structured",
                "ladder": _SMOOTHING_LADDER, "trials": 3, "dt": 0.5,
                "expect": "bounded"},
               r"^smoothing verdict: bounded \(expected bounded\) pass$"),
        CliRun("smoothing-unstructured", "smoothing",
               {"p": "euclidean", "sigma": "unstructured-critical",
                "ladder": _SMOOTHING_LADDER, "trials": 3, "dt": 0.5,
                "expect": "growing"},
               r"^smoothing verdict: growing \(expected growing\) pass$"),
        # The separable layer used as a sigma M sigma* sandwich inside
        # power iteration, plus cell-averaged resolvents; no propagation.
        CliRun("lap", "lap",
               {"p": "euclidean", "sigma": "structured", "N": 64,
                "L": 16.0, "eps_ladder_k": 12, "trials": 1, "iters": 10,
                "cell_quad": 8, "expect": "bounded"},
               r"verdict: bounded \(expected bounded\) pass$"),
    ],
    # Pointwise kernels: little FFT or separable work.
    "egorov-dual": [
        # The O(N^4) direct Kohn-Nirenberg sum in egorov_residual, with
        # the canonical warp and off-grid evaluation.
        CliRun("egorov", "egorov",
               {"p": "quadratic-form:A=[[1,0],[0,0.5]]", "N": 32,
                "L": 16.0},
               r"^egorov residual family .* pass$"),
        # Support-function duals by multi-start BFGS; no grid work.  The
        # checked quantities sit at roundoff, so the gate is the audit's
        # own tolerances, not the stored CSV values.
        CliRun("dual-audit", "geometry-audit",
               {"p": "perturbed:amp=0.05", "construction": "optimizer",
                "samples": 30},
               r"\A(.* pass\n)*geometry-audit: pass\n\Z",
               compare_reference=False),
    ],
}
