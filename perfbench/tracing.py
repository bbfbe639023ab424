"""Layer spans for the traced benchmark run, recorded from outside l2rom.

The seven modules of ``l2rom`` are the layers.  ``Tracer.install`` wraps the
public functions listed in ``WRAPPED`` and puts the wrapper in place of every
module attribute that holds the original, so a caller that imported a
function by name (``from .core import batch_states``) or looks it up at call
time (``from .core import check_conjugation_closure`` inside a function)
reaches the wrapper too.  Nothing under ``src/`` changes.

A span is (name, parent, start, end, info); spans stay in memory as parallel
lists and are written out as JSON lines when the run ends.  Wrappers record
only while the tracer is active, so set-up and output checks stay untraced.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = ("models", "core", "spectral", "optimize", "certify", "io", "cli")
ROOT_SPAN = "pipeline"


def _sample_info(args, kwargs, result):
    return {"points": len(result)}


def _batch_info(args, kwargs, result):
    # Complex stacks that batch_states builds or returns: A(p) and its
    # conjugate transpose, B(p), C(p) and its conjugate transpose, x, x_d, y.
    x, x_d, _ = result
    n, r, n_i = x.shape
    n_o = x_d.shape[2]
    entries = n * (2 * r * r + 2 * r * n_i + 3 * r * n_o + n_o * n_i)
    return {"points": n, "bytes": 16 * entries}


def _fit_info(args, kwargs, result):
    return {"iterations": result.iterations, "converged": int(result.converged)}


def _write_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


# layer -> function -> optional extractor of counts from (args, kwargs, result)
WRAPPED = {
    "models": {
        "make_penzl": None,
        "make_poisson": None,
        "make_random_stable": None,
        "make_kron_parametric": None,
        "sample_frequency_response": _sample_info,
        "sample_stationary": _sample_info,
        "sample_h2l2": _sample_info,
    },
    "core": {
        "batch_states": _batch_info,
        "check_conjugation_closure": None,
    },
    "spectral": {
        "pole_residue_lti": None,
        "pole_residue_affine_singular": None,
        "kron_pole_residue": None,
        "pole_residue_eval": None,
    },
    "optimize": {
        "fit": _fit_info,
        "irka_init": None,
        "greedy_rb_init": None,
        "l2_objective": None,
        "l2_gradients": None,
        "l2_gradients_kron": None,
    },
    "certify": {
        "ls_residuals": None,
        "stationary_residuals": None,
        "h2l2_residuals": None,
    },
    "io": {
        "read_payload": None,
        "write_payload": _write_info,
    },
    "cli": {
        "main": None,
        "cmd_generate": None,
        "cmd_sample": None,
        "cmd_fit": None,
        "cmd_certify": None,
    },
}

SPECTRAL_CONVERSIONS = ("pole_residue_lti", "pole_residue_affine_singular", "kron_pole_residue")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.active = False
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.infos = []
        self._stack = []
        self._patches = []  # (module, attribute, original)

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(time.perf_counter())
        self.ends.append(None)
        self.infos.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, info=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if info is not None:
                self.infos[idx] = info(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Patch every l2rom module attribute that holds a wrapped function."""
        import l2rom.cli  # noqa: F401  (loads every layer module)

        modules = [mod for key, mod in sorted(sys.modules.items()) if key == "l2rom" or key.startswith("l2rom.")]
        for layer, functions in WRAPPED.items():
            home = sys.modules[f"l2rom.{layer}"]
            for fn_name, info in functions.items():
                original = getattr(home, fn_name)  # AttributeError if l2rom renamed it
                wrapper = self.wrap(f"{layer}.{fn_name}", original, info)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patches.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    @contextmanager
    def pipeline(self):
        """Record one pipeline under a root span; yields the root's index."""
        self.active = True
        idx = self._open(ROOT_SPAN)
        try:
            yield idx
        finally:
            self._close(idx)
            self.active = False

    def write(self, path):
        with open(path, "w") as handle:
            for idx, name in enumerate(self.names):
                record = {
                    "id": idx,
                    "parent": self.parents[idx],
                    "name": name,
                    "start": self.starts[idx],
                    "end": self.ends[idx],
                }
                if self.infos[idx]:
                    record["info"] = self.infos[idx]
                handle.write(json.dumps(record) + "\n")

    def layer_metrics(self, root):
        """Per-layer metrics of the pipeline whose root span is ``root``."""
        stop = len(self.names)
        span_ids = range(root, stop)
        dur = {i: self.ends[i] - self.starts[i] for i in span_ids}
        covered = defaultdict(float)
        for i in span_ids:
            if i != root:
                covered[self.parents[i]] += dur[i]

        calls = defaultdict(int)
        seconds = defaultdict(float)
        info = defaultdict(float)
        self_s = dict.fromkeys(LAYERS + ("unattributed",), 0.0)
        irka_iters = 0
        for i in span_ids:
            name = self.names[i]
            layer, _, fn = name.partition(".")
            calls[fn] += 1
            seconds[fn] += dur[i]
            for key, value in (self.infos[i] or {}).items():
                info[f"{fn}.{key}"] += value
            self_s[layer if layer in LAYERS else "unattributed"] += dur[i] - covered[i]
            parent = self.parents[i]
            if fn == "pole_residue_lti" and parent >= 0 and self.names[parent] == "optimize.irka_init":
                irka_iters += 1

        def total(kind, fns):
            return sum(kind[f] for f in fns)

        sample_fns = ("sample_frequency_response", "sample_stationary", "sample_h2l2")
        sample_s = total(seconds, sample_fns)
        sample_points = sum(info[f"{f}.points"] for f in sample_fns)
        gradient_fns = ("l2_gradients", "l2_gradients_kron")
        certify_fns = tuple(WRAPPED["certify"])
        fits = calls["fit"]
        objective_calls = calls["l2_objective"]
        fit_iters = info["fit.iterations"]
        metrics = {
            "models.sample_s": sample_s,
            "models.sample_points_per_s": sample_points / sample_s if sample_s else 0.0,
            "optimize.init_s": total(seconds, ("irka_init", "greedy_rb_init")),
            "optimize.irka_iters": irka_iters,
            "optimize.fit_s": seconds["fit"],
            "optimize.fit_iters": fit_iters,
            "optimize.objective_calls": objective_calls,
            "optimize.objective_s": seconds["l2_objective"],
            "optimize.gradient_calls": total(calls, gradient_fns),
            "optimize.gradient_s": total(seconds, gradient_fns),
            "optimize.linesearch_accept_ratio": fit_iters / objective_calls if objective_calls else 0.0,
            "optimize.fit_converged_ratio": info["fit.converged"] / fits if fits else 0.0,
            "core.batch_states_calls": calls["batch_states"],
            "core.batch_states_s": seconds["batch_states"],
            "core.batch_points_per_s": (
                info["batch_states.points"] / seconds["batch_states"] if seconds["batch_states"] else 0.0
            ),
            "core.batch_bytes_computed": info["batch_states.bytes"],
            "core.closure_check_calls": calls["check_conjugation_closure"],
            "core.closure_check_s": seconds["check_conjugation_closure"],
            "spectral.pole_residue_calls": total(calls, SPECTRAL_CONVERSIONS),
            "spectral.pole_residue_s": total(seconds, SPECTRAL_CONVERSIONS),
            "certify.s": total(seconds, certify_fns),
            "io.read_s": seconds["read_payload"],
            "io.write_s": seconds["write_payload"],
            "io.bytes_written": info["write_payload.bytes"],
            "cli.generate_s": seconds["cmd_generate"],
            "cli.sample_s": seconds["cmd_sample"],
            "cli.fit_s": seconds["cmd_fit"],
            "cli.certify_s": seconds["cmd_certify"],
            "trace.time_to_cert_s": dur[root],
            "trace.spans": stop - root,
        }
        for layer, value in self_s.items():
            metrics[f"self.{layer}_s"] = value
        return metrics
