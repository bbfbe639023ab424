import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


# kron_parametric.py is left out: it takes ~13 s, and test_h2l2_conditions
# runs the same pipeline.
@pytest.mark.parametrize("demo", ["h2_irka.py", "penzl_ls_fit.py", "poisson_stationary.py"])
def test_demo_runs_and_certifies(demo):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )
    assert proc.returncode == 0, proc.stderr
    certificates = [line for line in proc.stdout.splitlines() if "max residual" in line]
    assert certificates, proc.stdout
    assert all(line.endswith("PASS") for line in certificates), proc.stdout


def test_benchmark_traced_functions_exist():
    # A traced benchmark run wraps these by name and stops at a missing one.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    wanted = {(layer, name) for layer, names in tracing.WRAPPED.items() for name in names}
    # The workload reads names of l2rom modules, e.g. optimize.FitOptions; a
    # missing one would only show as a failed benchmark run.
    tree = ast.parse((ROOT / "perfbench" / "workload.py").read_text())
    modules = {
        alias.asname or alias.name: alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "l2rom"
        for alias in node.names
    }
    read = {
        (modules[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
    }
    assert {("optimize", "FitOptions"), ("cli", "rom_pole_residue")} <= read
    missing = [
        f"l2rom.{layer}.{name}"
        for layer, name in sorted(wanted | read)
        if not hasattr(importlib.import_module(f"l2rom.{layer}"), name)
    ]
    assert not missing, missing


def test_benchmark_cli_steps_parse(monkeypatch):
    # The penzl-cli workload passes argv lists from perfbench/spec.json to
    # cli.main; a choice renamed or removed there would only show as a failed
    # benchmark run.  Each size's four steps, built by the workload itself,
    # must parse.
    from l2rom import cli

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # the workload imports its tracing module
    spec = importlib.util.spec_from_file_location("perfbench_workload", ROOT / "perfbench" / "workload.py")
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    parser, _ = cli.build_parser()
    parsed, unparsed = [], []

    def parse(argv):
        try:
            parsed.append(parser.parse_args(argv).command)
        except SystemExit:
            unparsed.append(argv)
        return 0

    monkeypatch.setattr(cli, "main", parse)
    bench = workload.load_spec()
    steps = ("generate", "scheme", "fit", "certify")
    for name, entry in bench["workloads"].items():
        for size in entry["sizes"].values():
            if all(step in size for step in steps):
                workload.WORKLOADS[name](size, 0, bench).run()
    assert not unparsed, unparsed
    assert parsed and len(parsed) % 4 == 0 and set(parsed) == {"generate", "sample", "fit", "certify"}


def test_benchmark_library_pipelines_pass_their_checks(monkeypatch):
    # poisson-stationary and kron-h2l2 call l2rom's library directly, with
    # names (fom.A1, fom.evaluator, ...) that only a benchmark run would
    # otherwise read.  Each runs at its smoke size and must pass its checks.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # the workload imports its tracing module
    spec = importlib.util.spec_from_file_location("perfbench_workload", ROOT / "perfbench" / "workload.py")
    workload = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workload)
    bench = workload.load_spec()
    for name in ("poisson-stationary", "kron-h2l2"):
        pipeline = workload.WORKLOADS[name](bench["workloads"][name]["sizes"]["smoke"], 0, bench)
        failures, _ = pipeline.check(pipeline.run())
        assert not failures, (name, failures)
