"""Per-layer tracing of slab from outside the program.

``Tracer.install`` replaces public functions of the slab library modules
with wrappers that record a span (name, start, end, parent) per call and
bump work counters computed from the call's arguments; ``uninstall``
puts the originals back.  ``Tracer.call`` spans any other call, such as
the CLI entry point.  Spans stay in memory; self times are derived
afterwards as each span's duration minus the durations of its children.
Nothing under ``src/`` changes.
"""

import functools
import inspect
import json
import time
from collections import Counter

import numpy as np

# Spanned functions, by layer.  Each yields ``<module>.<fn>.calls`` and
# ``<module>.<fn>.self_s``.
SPANNED = {
    "grid": ["transform", "inverse_transform", "eval_offgrid",
             "eval_field_offgrid", "Field.norm", "mass_fraction",
             "weighted_norm"],
    "symbols": ["psi", "psi_inv", "psi_jacobian"],
    "quantize": ["apply_pseudo", "apply_pseudo_adjoint", "apply_multiplier",
                 "apply_canonical", "egorov_residual",
                 "structure_spot_check"],
    "evolve": ["schrodinger_propagate", "symbol_lattice",
               "resolvent_multiplier"],
    "estimates": ["smoothing_sweep", "smoothing_ratio", "lap_sweep",
                  "operator_norm", "make_packet"],
}

# HomogeneousSymbol evaluations, split by how the symbol is constructed.
SYMBOL_GROUPS = ("symbols.closed", "symbols.support")
SYMBOL_METHODS = ("__call__", "gradient", "hessian")

# Counters derived from arguments: work the call was asked to do, not a
# measurement of what it did.
COUNTERS = ("grid.fft.bytes_computed", "grid.eval_offgrid.targets",
            "symbols.minimize.calls", "quantize.apply_pseudo.term_passes",
            "quantize.apply_pseudo_adjoint.term_passes",
            "quantize.kn_pairs_computed", "quantize.cutoff_leakage.warnings")

# complex128 samples, read once and written once per transform
_FFT_BYTES_PER_POINT = 2 * 16
# apply_canonical and egorov_residual treat modes with a cutoff above
# this value as live
_LIVE_CUTOFF = 1e-14


def _fft_work(counters, args):
    counters["grid.fft.bytes_computed"] += (
        _FFT_BYTES_PER_POINT * args["f"].values.size)


def _offgrid_work(counters, args):
    counters["grid.eval_offgrid.targets"] += (
        np.atleast_2d(np.asarray(args["targets"])).shape[0])


def _pseudo_work(counters, args):
    terms = getattr(args["sigma"], "terms", None)
    method = args["method"]
    if method == "auto":
        method = "separable" if terms else "direct"
    if method == "separable":
        counters["quantize.apply_pseudo.term_passes"] += len(terms or ())
    elif method == "direct":
        size = args["f"].values.size
        counters["quantize.kn_pairs_computed"] += size * size


def _adjoint_work(counters, args):
    terms = getattr(args["sigma"], "terms", None)
    counters["quantize.apply_pseudo_adjoint.term_passes"] += len(terms or ())


def _egorov_work(counters, args):
    f = args["f"]
    gamma = args["plan"].cutoff.on_freqs(f.grid)
    live = int(np.count_nonzero(np.ravel(gamma) > _LIVE_CUTOFF))
    counters["quantize.kn_pairs_computed"] += (
        f.values.size * live * len(args["lams"]))


_WORK = {
    "grid.transform": _fft_work,
    "grid.inverse_transform": _fft_work,
    "grid.eval_offgrid": _offgrid_work,
    "quantize.apply_pseudo": _pseudo_work,
    "quantize.apply_pseudo_adjoint": _adjoint_work,
    "quantize.egorov_residual": _egorov_work,
}


def span_names():
    """Every span name the tracer can record, in reporting order."""
    names = [f"{mod}.{fn}" for mod, fns in SPANNED.items() for fn in fns]
    return names + list(SYMBOL_GROUPS)


class Tracer:
    """Spans and counters, recorded while the wrappers are installed."""

    def __init__(self):
        self.active = False
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = []        # [name, start, end, parent index or -1]
        self.counters = Counter()
        self._stack = []
        self._support_depth = 0

    # -- recording ---------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0):
        t1 = time.perf_counter()
        self._stack.pop()
        span = self.spans[idx]
        span[1] = t0
        span[2] = t1

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        idx = self._open(name)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, t0)

    def _work(self, count, signature, args, kwargs):
        # argument-derived counters may evaluate cutoffs or symbols;
        # those evaluations are bookkeeping, not spans of the run
        self.active = False
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            count(self.counters, bound.arguments)
        finally:
            self.active = True

    def _spanned(self, name, orig):
        count = _WORK.get(name)
        signature = inspect.signature(orig) if count else None
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return orig(*args, **kwargs)
            if count is not None:
                tracer._work(count, signature, args, kwargs)
            return tracer.call(name, orig, *args, **kwargs)
        return wrapper

    def _symbol_method(self, orig):
        tracer = self

        @functools.wraps(orig)
        def wrapper(sym, xi, *args, **kwargs):
            if not tracer.active:
                return orig(sym, xi, *args, **kwargs)
            support = sym.metadata.get("construction") == "support-function"
            if not support and tracer._support_depth:
                # primal evaluations made by a support solve are part of
                # that solve
                return orig(sym, xi, *args, **kwargs)
            group = SYMBOL_GROUPS[1] if support else SYMBOL_GROUPS[0]
            tracer.counters[group + ".points"] += (
                np.asarray(xi).size // sym.dim)
            tracer._support_depth += support
            try:
                return tracer.call(group, orig, sym, xi, *args, **kwargs)
            finally:
                tracer._support_depth -= support
        return wrapper

    def _counted(self, name, orig):
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counters[name] += 1
            return orig(*args, **kwargs)
        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, modules):
        """Wrap the traced functions of ``modules`` (name -> module)."""
        for mod, fns in SPANNED.items():
            for fn in fns:
                owner = modules[mod]
                attr = fn
                if "." in fn:
                    cls, attr = fn.split(".")
                    owner = getattr(owner, cls)
                self._patch(owner, attr,
                            self._spanned(f"{mod}.{fn}", getattr(owner, attr)))
        sym_cls = modules["symbols"].HomogeneousSymbol
        for attr in SYMBOL_METHODS:
            self._patch(sym_cls, attr,
                        self._symbol_method(getattr(sym_cls, attr)))
        # scipy's minimize as bound in slab.symbols: one call per BFGS start
        self._patch(modules["symbols"], "minimize",
                    self._counted("symbols.minimize.calls",
                                  modules["symbols"].minimize))
        self.active = True

    def uninstall(self):
        self.active = False
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, self time in s)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start - inner))
        return out

    def write_spans(self, path):
        """Write the recorded spans as JSON lines, times relative to the
        first span's start."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent])
                         + "\n")
