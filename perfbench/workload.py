"""One benchmark workload in a fresh process: set-up, timed pipelines, checks.

run.py starts this file with the BLAS thread count fixed in the environment
and ``src`` on PYTHONPATH.  With ``--probe`` it only times the set-up (import
l2rom and build the full-order model) and exits.  Otherwise it runs
pipelines, each from the built model to a certificate, as many as fit in
``--seconds`` (at least one), times a set-up in a fresh probe process after
each round, checks every pipeline's output outside the timed region, and
prints one JSON line.  With ``--trace 1`` untraced and traced pipelines
alternate; the traced ones give the per-layer metrics.

Sizes, seed handling and reference values live in spec.json.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from io import StringIO
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"


def load_spec():
    with open(HERE / "spec.json") as handle:
        return json.load(handle)


def _build(model):
    from l2rom import models

    return getattr(models, model["make"])(**model["params"])


def _monotone(objectives):
    return all(b <= a for a, b in zip(objectives, objectives[1:]))


def _objective_failures(traces, final, reference, rtol):
    failures = [f"objective trace {k} is not monotone" for k, t in enumerate(traces) if not _monotone(t.objectives)]
    if not final <= reference * (1.0 + rtol):
        failures.append(f"final objective {final:.12e} is worse than the reference {reference:.12e}")
    return failures


def _certificate_failures(cert, tolerance):
    failures = []
    if cert.tolerance > tolerance:
        failures.append(f"certificate tolerance {cert.tolerance:g} is looser than {tolerance:g}")
    if not cert.passed:
        failures.append(f"{cert.family} certificate fails: max residual {cert.max_residual:.3e}")
    return failures


class Workload:
    """Pipeline of one workload; ``run`` is timed, ``check`` is not."""

    imports = ("l2rom", "l2rom.models")  # imported inside the timed set-up

    def reset(self):
        """Prepare for the next pipeline (outside the timed region)."""

    def close(self):
        """Release what the workload holds outside the process."""


class PenzlCli(Workload):
    """README quick start run in-process through l2rom.cli.main."""

    imports = ("l2rom.cli",)

    def __init__(self, size, seed, spec):
        self.size = size
        _build(size["model"])  # set-up cost only: every cli step rebuilds the model from its file
        self.workdir = OUT_DIR / f"work-{os.getpid()}"
        self.paths = {k: str(self.workdir / f"{k}.json") for k in ("model", "samples", "rom", "cert")}

    def reset(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def run(self):
        from l2rom import cli

        s, p = self.size, self.paths
        steps = [
            ["generate", *s["generate"], "-o", p["model"]],
            ["sample", p["model"], "--scheme", s["scheme"], "-o", p["samples"]],
            ["fit", p["samples"], *s["fit"], "--model", p["model"], "-o", p["rom"]],
            ["certify", p["rom"], *s["certify"], "--samples", p["samples"], "-o", p["cert"]],
        ]
        with redirect_stdout(StringIO()):  # the CLI reports on stdout
            return [cli.main(argv) for argv in steps]

    def check(self, exit_codes):
        from l2rom import cli, io

        failures = [f"cli step {k} exited with {code}" for k, code in enumerate(exit_codes) if code != 0]
        cert = io.certificate_from_payload(io.read_payload(self.paths["cert"], expect_kind="certificate"))
        failures += _certificate_failures(cert, self.size["tolerance"])
        rom = io.rom_from_payload(io.read_payload(self.paths["rom"], expect_kind="rom"))
        poles = [complex(z) for z in cli.rom_pole_residue(rom).poles]
        reference = [complex(re, im) for re, im in self.size["poles"]]
        rtol = self.size["pole_rtol"]
        if len(poles) != len(reference) or any(min(abs(z - ref) for z in poles) > rtol * abs(ref) for ref in reference):
            failures.append(f"poles {poles} are not within {rtol:.0%} of {reference}")
        summary = {"max_residual": cert.max_residual, "poles": [[z.real, z.imag] for z in poles]}
        return failures, summary


class PoissonStationary(Workload):
    """Greedy reduced-basis init, fit and stationary certificate on Poisson."""

    def __init__(self, size, seed, spec):
        self.size = size
        self.rtol = spec["objective_rtol"]
        self.fom = _build(size["model"])

    def run(self):
        import numpy as np
        from l2rom import certify, models, optimize, spectral

        s, fom = self.size, self.fom
        data = models.sample_stationary(fom, s["nodes"])
        a, b = fom.interval
        candidates = np.logspace(np.log10(a), np.log10(b), s["candidates"])
        init = optimize.greedy_rb_init(fom, s["order"], candidates)
        trace = optimize.fit(init, data, optimize.FitOptions(max_iters=s["max_iters"]))
        rom = trace.rom
        rom_pr = spectral.pole_residue_affine_singular(
            rom.A_terms[0][1], rom.A_terms[1][1], rom.B_terms[0][1], rom.C_terms[0][1]
        )
        fom_pr = spectral.pole_residue_affine_singular(fom.A1, fom.A2, fom.B, fom.C)
        cert = certify.stationary_residuals(fom_pr, rom_pr, certify.Interval(a, b), tolerance=s["tolerance"])
        return trace, cert

    def check(self, outcome):
        trace, cert = outcome
        final = trace.objectives[-1]
        failures = _certificate_failures(cert, self.size["tolerance"])
        failures += _objective_failures([trace], final, self.size["objective"], self.rtol)
        return failures, {"max_residual": cert.max_residual, "final_objective": final}


class KronH2L2(Workload):
    """Random restarts on a coarse H2xL2 grid, then a fixed-budget fine refine.

    The seed picks one of the recorded instances (seed modulo their count);
    the instance seeds both the full-order map and the restart inits.
    """

    def __init__(self, size, seed, spec):
        import numpy as np
        from l2rom import core

        self.size = size
        self.rtol = spec["objective_rtol"]
        self.instance = seed % len(size["objectives"])
        self.fom = _build({"make": size["model"]["make"], "params": dict(size["model"]["params"], seed=self.instance)})
        rng = np.random.default_rng((self.instance, 1))
        r_s, r_xi = size["order"]
        self.inits = []
        for _ in range(size["restarts"]):
            a = rng.standard_normal((r_s, r_s))
            a = -(a @ a.T) / 2 - 0.5 * np.eye(r_s)
            a_xi = rng.standard_normal((r_xi, r_xi))
            a_xi = a_xi @ a_xi.T / 2 + 1.5 * np.eye(r_xi)
            b = rng.standard_normal((r_s * r_xi, self.fom.n_i))
            c = rng.standard_normal((self.fom.n_o, r_s * r_xi))
            self.inits.append(core.kron_rom(np.eye(r_s), a, np.eye(r_xi), a_xi, b, c))

    def run(self):
        from l2rom import certify, models, optimize, spectral

        s, fom = self.size, self.fom
        coarse = models.sample_h2l2(fom, *s["restart_grid"])
        restart_opts = optimize.FitOptions(max_iters=s["restart_iters"])
        traces = [optimize.fit(init, coarse, restart_opts) for init in self.inits]
        best = min(traces, key=lambda t: t.objectives[-1])
        fine = models.sample_h2l2(fom, *s["refine_grid"])
        refined = optimize.fit(best.rom, fine, optimize.FitOptions(max_iters=s["refine_iters"]))
        rom = refined.rom
        ks = rom.kron
        pr = spectral.kron_pole_residue(ks.E, ks.A, ks.E_xi, ks.A_xi, rom.B_terms[0][1], rom.C_terms[0][1])
        cert = certify.h2l2_residuals(fom.evaluator(), pr, tolerance=s["tolerance"])
        return traces + [refined], cert

    def check(self, outcome):
        # The H2xL2 residual is reported, not gated: spec.json says why.
        traces, cert = outcome
        final = traces[-1].objectives[-1]
        failures = _objective_failures(traces, final, self.size["objectives"][self.instance], self.rtol)
        summary = {"instance": self.instance, "max_residual": cert.max_residual, "final_objective": final}
        return failures, summary


WORKLOADS = {"penzl-cli": PenzlCli, "poisson-stationary": PoissonStationary, "kron-h2l2": KronH2L2}


def _one_pipeline(workload, tracer, log):
    """Run and check one pipeline; returns (seconds, failures, summary, root span)."""
    workload.reset()
    failures, summary = [], {}
    t0 = time.perf_counter()
    try:
        with tracer.pipeline() if tracer is not None else nullcontext() as root:
            outcome = workload.run()
    except Exception as exc:  # a raising pipeline is a failed pipeline
        failures.append(f"raised {type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - t0
    if not failures:
        try:
            failures, summary = workload.check(outcome)
        except Exception as exc:  # an unreadable output fails the check
            failures.append(f"output check raised {type(exc).__name__}: {exc}")
    for failure in failures:
        print(f"pipeline failed: {failure}", file=log)
    return elapsed, failures, summary, root


def probe_setup(args):
    """Time one set-up in a fresh process, as ``--probe`` does."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--probe"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pipelines(workload, seconds, tracer=None, log=sys.stderr, probe=None):
    """Run rounds for ``seconds``: an untraced pipeline, then a traced one if tracing.

    A round starts only if, at the median round time so far, it ends within
    ``seconds``; the first round always runs.  The count follows the clock,
    so a run lasts about ``seconds`` whatever the machine's momentary speed,
    and the reported medians do not hinge on one pipeline more or less.
    ``probe()``, if given, times a set-up after every round, outside the
    pipeline times; its results are returned under "probes".
    """
    result = {"untraced_s": [], "traced_s": [], "failed": 0, "layers": [], "summary": {}, "probes": []}
    modes = (None, tracer) if tracer is not None else (None,)
    rounds_s = []
    start = time.perf_counter()
    while not rounds_s or time.perf_counter() - start + statistics.median(rounds_s) <= seconds:
        t0 = time.perf_counter()
        for mode in modes:
            elapsed, failures, summary, root = _one_pipeline(workload, mode, log)
            result["traced_s" if mode else "untraced_s"].append(elapsed)
            result["failed"] += bool(failures)
            result["summary"] = summary
            if mode is not None and root is not None:
                layers = tracer.layer_metrics(root)
                layers["certify.max_residual"] = summary.get("max_residual", float("nan"))
                result["layers"].append(layers)
        if probe is not None:
            result["probes"].append(probe())
        rounds_s.append(time.perf_counter() - t0)
    result["attempted"] = len(result["untraced_s"]) + len(result["traced_s"])
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--probe", action="store_true", help="time the set-up only")
    args = parser.parse_args(argv)

    spec = load_spec()
    cls = WORKLOADS[args.workload]
    size = spec["workloads"][args.workload]["sizes"][args.size]

    t0 = time.perf_counter()
    for name in cls.imports:
        importlib.import_module(name)
    t1 = time.perf_counter()
    workload = cls(size, args.seed, spec)
    t2 = time.perf_counter()
    out = {"import_s": t1 - t0, "build_s": t2 - t1}
    if not args.probe:
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install()
        try:
            # Set-ups timed between rounds sample the machine's speed across the
            # whole run, not only in the seconds before it.
            result = run_pipelines(workload, args.seconds, tracer, probe=lambda: probe_setup(args))
        finally:
            workload.close()
        if tracer is not None:
            tracer.uninstall()
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(spans_path)
            layers = result.pop("layers")
            result["layers"] = {key: statistics.median(m[key] for m in layers) for key in layers[0]} if layers else {}
            result["spans_file"] = str(spans_path.relative_to(ROOT))
        out.update(result)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
