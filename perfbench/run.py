"""l2rom benchmark: time from a full-order model to a checked certificate.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload poisson-stationary --seed 1 --seconds 55 --trace 0

Each invocation runs one workload (see spec.json) in a fresh child process
whose BLAS thread count is fixed through the environment; set-ups are timed
in separate probe processes, a few before the child and one after each of
its pipeline rounds.  It prints a readable report, then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  It exits with a non-zero code, printing no result, when the
checkout has no l2rom sources or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 170.0  # the whole invocation must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "L2ROM_THREADS")


class BenchmarkError(Exception):
    pass


def child_env(threads):
    """Environment of every child: l2rom from this checkout, fixed thread count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def run_child(args, env, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("time budget spent before the workload finished")
    cmd = [sys.executable, str(HERE / "workload.py"), *args]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, timeout=remaining, text=True)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise BenchmarkError(f"workload child exceeded the time budget: {' '.join(cmd)}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"workload child exited with {proc.returncode}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def main(argv=None):
    with open(HERE / "spec.json") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "l2rom" / "__init__.py").is_file():
        print(f"no l2rom sources under {ROOT / 'src'}; run from the root of an l2rom checkout", file=sys.stderr)
        return 2

    threads = spec["workloads"][args.workload]["threads"]
    env = child_env(threads)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    try:
        probes = [run_child([*common, "--probe"], env, deadline) for _ in range(spec["setup_probes"])]
        result = run_child([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)], env, deadline)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    probes += result["probes"] + [result]
    setups = [p["import_s"] + p["build_s"] for p in probes]
    untraced = result["untraced_s"]
    attempted, failed = result["attempted"], result["failed"]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "time_to_cert_s": statistics.median(untraced),
        "peak_rss_mb": result["peak_rss_mb"],
    }

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  threads {threads}")
    print(f"  setup_s          {end_to_end['setup_s']:.4f} s    (median of {len(setups)} set-ups)")
    print(f"  time_to_cert_s   {end_to_end['time_to_cert_s']:.4f} s    (median of {len(untraced)} untraced pipelines)")
    print(f"  peak_rss_mb      {end_to_end['peak_rss_mb']:.1f} MiB")
    print(f"  cert_fail_ratio  {failed / attempted:.4f}      ({failed} of {attempted} pipelines failed)")
    print(f"  pipelines        {' '.join(f'{t:.4f}' for t in untraced)} s untraced, "
          f"{' '.join(f'{t:.4f}' for t in result['traced_s']) or '-'} s traced")
    print(f"  last pipeline    {json.dumps(result['summary'])}")

    values = end_to_end
    if args.trace:
        layers = dict(result["layers"])
        layers["models.build_s"] = statistics.median(p["build_s"] for p in probes)
        layers["trace.untraced_time_to_cert_s"] = end_to_end["time_to_cert_s"]
        layers["trace.overhead_s"] = layers["trace.time_to_cert_s"] - end_to_end["time_to_cert_s"]
        self_sum = sum(v for k, v in layers.items() if k.startswith("self."))
        print(f"  traced pipeline  {layers['trace.time_to_cert_s']:.4f} s = layer self times {self_sum:.4f} s "
              f"(tracing overhead {layers['trace.overhead_s']:+.4f} s); spans in {result['spans_file']}")
        values = layers

    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
