import json
import os
import stat

import numpy as np
import pytest

from l2rom import cli, io, spectral
from l2rom.certify import Certificate, CertificateRow
from l2rom.core import SampleSet, kron_rom, lti_rom, stationary_rom
from l2rom.models import make_random_stable, sample_frequency_response
from l2rom.optimize import FitTrace, irka_init

rng = np.random.default_rng(23)


def test_complex_encoding_round_trip():
    arr = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    decoded = io._decode_complex_array(io._encode_complex_array(arr))
    assert np.array_equal(decoded, arr)


def test_written_files_follow_the_umask(tmp_path):
    path = tmp_path / "x.json"
    old = os.umask(0o022)
    try:
        io.write_payload(path, {"kind": "trace", "objectives": [1.0]})
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644
        os.umask(0o077)
        io.write_payload(path, {"kind": "trace", "objectives": [2.0]})
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
    finally:
        os.umask(old)
    assert io.read_payload(path)["objectives"] == [2.0]
    assert os.listdir(tmp_path) == ["x.json"]


def test_write_read_payload(tmp_path):
    path = tmp_path / "x.json"
    io.write_payload(path, {"kind": "trace", "objectives": [1.0]})
    payload = io.read_payload(path)
    assert payload["version"] == io.FORMAT_VERSION
    assert payload["objectives"] == [1.0]
    with pytest.raises(ValueError):
        io.write_payload(path, {"kind": "bogus"})
    with pytest.raises(ValueError):
        io.read_payload(path, expect_kind="rom")


def test_samples_round_trip(tmp_path):
    fom = make_random_stable(5, 2, 2, seed=60)
    data = sample_frequency_response(fom, np.logspace(-1, 1, 4))
    path = tmp_path / "samples.json"
    io.write_payload(path, io.samples_to_payload(data))
    back = io.samples_from_payload(io.read_payload(path, expect_kind="samples"))
    assert np.array_equal(back.points, data.points)
    assert np.array_equal(back.values, data.values)
    assert np.array_equal(back.weights, data.weights)


def roms_equal(a, b):
    if len(a.A_terms) != len(b.A_terms):
        return False
    for (fa, ma), (fb, mb) in zip(
        a.A_terms + a.B_terms + a.C_terms, b.A_terms + b.B_terms + b.C_terms
    ):
        if fa.terms != fb.terms or not np.array_equal(ma, mb):
            return False
    return True


def test_rom_round_trip(tmp_path):
    for rom in (
        lti_rom(np.eye(2), -np.eye(2) + 0.1 * rng.standard_normal((2, 2)),
                rng.standard_normal((2, 1)), rng.standard_normal((1, 2))),
        stationary_rom(np.eye(3), np.eye(3) + 0.1 * rng.standard_normal((3, 3)),
                       rng.standard_normal((3, 2)), rng.standard_normal((2, 3))),
        kron_rom(np.eye(2), -np.eye(2), np.eye(2), 2 * np.eye(2),
                 rng.standard_normal((4, 1)), rng.standard_normal((1, 4))),
    ):
        path = tmp_path / "rom.json"
        io.write_payload(path, io.rom_to_payload(rom))
        back = io.rom_from_payload(io.read_payload(path, expect_kind="rom"))
        assert roms_equal(rom, back)
        assert (rom.kron is None) == (back.kron is None)
        if rom.kron is not None:
            assert np.array_equal(back.kron.A_xi, rom.kron.A_xi)


def test_certificate_round_trip(tmp_path):
    cert = Certificate(
        family="H2_CT",
        rows=(CertificateRow(label="k=0", residuals=(("right", 1e-9), ("hermite", 3e-8))),),
        tolerance=1e-6,
    )
    path = tmp_path / "cert.json"
    io.write_payload(path, io.certificate_to_payload(cert))
    back = io.certificate_from_payload(io.read_payload(path, expect_kind="certificate"))
    assert back.family == cert.family
    assert back.max_residual == cert.max_residual
    assert back.passed


def test_model_payload_regenerates(tmp_path):
    payload = io.model_to_payload("random-lti", {"n": 6, "seed": 4})
    fom = io.model_from_payload(payload)
    again = io.model_from_payload(payload)
    assert np.array_equal(fom.A, again.A)
    with pytest.raises(ValueError):
        io.model_to_payload("nonsense", {})


def test_trace_payload():
    trace = FitTrace(objectives=[2.0, 1.0], grad_norms=[1.0, 0.1],
                     step_lengths=[1.0], converged=True, iterations=1, message="ok",
                     objective_calls=3, gradient_calls=2, backtracks=1)
    payload = io.trace_to_payload(trace)
    assert payload["kind"] == "trace"
    assert payload["objectives"] == [2.0, 1.0]
    assert payload["converged"] is True
    assert (payload["objective_calls"], payload["gradient_calls"], payload["backtracks"]) == (3, 2, 1)


def test_kron_rom_file_must_match_its_factors(tmp_path, capsys):
    rom = kron_rom(np.eye(2), -np.eye(2) + 0.1 * rng.standard_normal((2, 2)), np.eye(2), 2 * np.eye(2),
                   rng.standard_normal((4, 1)), rng.standard_normal((1, 4)))
    payload = io.rom_to_payload(rom)
    assert roms_equal(io.rom_from_payload(json.loads(json.dumps(payload))), rom)
    payload["A_terms"][1]["matrix"] = (5.0 * np.asarray(payload["A_terms"][1]["matrix"])).tolist()
    with pytest.raises(ValueError, match="Kronecker products"):
        io.rom_from_payload(payload)
    path = tmp_path / "rom.json"
    io.write_payload(path, payload)
    argv = ["certify", str(path), "--family", "h2xl2", "--model", str(tmp_path / "m.json")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: invalid rom file")


def test_cli_fit_init_file_must_match_structure(tmp_path, capsys):
    model = str(tmp_path / "m.json")
    samples = str(tmp_path / "s.json")
    init = str(tmp_path / "init.json")
    cli.main(["generate", "random-lti", "--n", "6", "-o", model])
    cli.main(["sample", model, "--scheme", "logspace 0.1 1 4", "-o", samples])
    rom = lti_rom(np.eye(2), -np.eye(2), np.ones((2, 1)), np.ones((1, 2)))
    io.write_payload(init, io.rom_to_payload(rom))
    argv = ["fit", samples, "--init", "file", "--init-file", init, "--max-iters", "2",
            "-o", str(tmp_path / "r.json")]
    assert cli.main([*argv, "--structure", "stationary"]) == 2
    assert cli.main([*argv, "--structure", "kron"]) == 2
    assert cli.main([*argv, "--structure", "lti"]) == 0
    # a rom of other dimensions than the samples is a usage error, not a broadcast fit
    io.write_payload(init, io.rom_to_payload(lti_rom(np.eye(2), -np.eye(2), np.ones((2, 2)), np.ones((1, 2)))))
    capsys.readouterr()
    assert cli.main([*argv, "--structure", "lti"]) == 2
    assert "(outputs, inputs) (1, 2) differ from the samples' (1, 1)" in capsys.readouterr().err


def test_cli_certify_rejects_a_rom_with_a_second_input_term(tmp_path, capsys):
    model, samples, rom = (str(tmp_path / f"{name}.json") for name in ("m", "s", "rom"))
    cli.main(["generate", "random-lti", "--n", "6", "-o", model])
    cli.main(["sample", model, "--scheme", "logspace 0.1 1 4", "-o", samples])
    payload = io.rom_to_payload(lti_rom(np.eye(2), -np.diag([1.0, 2.0]), np.ones((2, 1)), np.ones((1, 2))))
    payload["B_terms"].append(payload["B_terms"][0])
    io.write_payload(rom, payload)
    capsys.readouterr()
    assert cli.main(["certify", rom, "--family", "discrete-ls", "--samples", samples]) == 2
    assert "certificate family discrete-ls requires a lti rom, found unknown" in capsys.readouterr().err


def test_cli_rejects_a_rom_file_with_misshapen_terms(tmp_path, capsys):
    model = str(tmp_path / "m.json")
    samples = str(tmp_path / "s.json")
    rom = str(tmp_path / "rom.json")
    cli.main(["generate", "random-lti", "--n", "6", "-o", model])
    cli.main(["sample", model, "--scheme", "logspace 0.1 1 4", "-o", samples])
    payload = io.rom_to_payload(lti_rom(np.eye(2), -np.diag([1.0, 2.0]), np.ones((2, 1)), np.ones((1, 2))))
    payload["B_terms"][0]["matrix"] = np.ones((3, 1)).tolist()
    io.write_payload(rom, payload)
    capsys.readouterr()
    for argv in (["certify", rom, "--family", "discrete-ls", "--samples", samples],
                 ["fit", samples, "--structure", "lti", "--init", "file", "--init-file", rom,
                  "-o", str(tmp_path / "r.json")]):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid rom file {rom}") and "B-term 0 has shape (3, 1)" in err


def test_cli_fit_takes_its_dimensions_from_the_samples(tmp_path):
    model = str(tmp_path / "m.json")
    samples = str(tmp_path / "s.json")
    out = str(tmp_path / "r.json")
    cli.main(["generate", "random-lti", "--n", "6", "--inputs", "2", "--outputs", "3", "-o", model])
    cli.main(["sample", model, "--scheme", "logspace 0.1 1 4", "-o", samples])
    # a random start has the samples' input and output counts
    assert cli.main(["fit", samples, "--structure", "lti", "--max-iters", "2", "-o", out]) == 0
    rom = io.rom_from_payload(io.read_payload(out, expect_kind="rom"))
    assert (rom.n_o, rom.n_i) == (3, 2)
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", samples, "--structure", "lti", "--inputs", "2", "-o", out])
    assert exc.value.code == 2


def test_cli_irka_takes_the_time_domain_from_the_model(tmp_path):
    model = str(tmp_path / "m.json")
    samples = str(tmp_path / "s.json")
    rom = str(tmp_path / "r.json")
    cert = str(tmp_path / "c.json")
    cli.main(["generate", "random-lti", "--dt", "--n", "20", "--seed", "2", "-o", model])
    cli.main(["sample", model, "--scheme", "circle 64", "-o", samples])
    # no fit iterations: the rom is the irka start, H2-optimal in discrete time
    argv = ["fit", samples, "--structure", "lti", "--init", "irka", "--model", model, "-r", "2",
            "--max-iters", "0", "-o", rom]
    assert cli.main(argv) == 0
    fom = io.model_from_payload(io.read_payload(model, expect_kind="model"))
    assert roms_equal(io.rom_from_payload(io.read_payload(rom, expect_kind="rom")), irka_init(fom, 2))
    # the h2 family takes the time domain from the model too (the continuous-time conditions read 260)
    assert cli.main(["certify", rom, "--family", "h2", "--model", model, "-o", cert]) == 0
    payload = io.read_payload(cert, expect_kind="certificate")
    assert (payload["family"], payload["tolerance"]) == ("H2_DT", 1e-4)
    assert payload["passed"] is True


def test_cli_fit_reports_stability_in_the_model_time_domain(tmp_path, capsys):
    # poles 0.5 and -0.3 are stable in discrete time and unstable in
    # continuous time.  An unstable result is reported and warned about, not
    # refused: it can be a genuine optimum of the discrete problem
    rom_path, samples, out = (str(tmp_path / f"{name}.json") for name in ("init", "s", "r"))
    io.write_payload(rom_path, io.rom_to_payload(lti_rom(np.eye(2), np.diag([0.5, -0.3]), np.ones((2, 1)),
                                                         np.ones((1, 2)))))
    model = str(tmp_path / "m.json")
    for dt, is_stable in ((["--dt"], True), ([], False)):
        cli.main(["generate", "random-lti", "--n", "6", *dt, "-o", model])
        cli.main(["sample", model, "--scheme", "logspace 0.1 1 4", "-o", samples])
        capsys.readouterr()
        assert cli.main(["fit", samples, "--structure", "lti", "--init", "file", "--init-file", rom_path,
                         "--model", model, "--max-iters", "0", "-o", out]) == 0
        stdout, stderr = capsys.readouterr()
        assert f"stable: {is_stable}" in stdout.splitlines()
        assert ("the fitted model is unstable in time domain" in stderr) != is_stable


def test_cli_fit_rejects_restarts_it_would_ignore(tmp_path, capsys):
    model, samples, rom = (str(tmp_path / f"{name}.json") for name in ("m", "s", "r"))
    cli.main(["generate", "random-lti", "--n", "6", "-o", model])
    cli.main(["sample", model, "--scheme", "logspace 0.1 1 4", "-o", samples])
    argv = ["fit", samples, "--structure", "lti", "--model", model, "-o", rom]
    for extra in (["--restarts", "0"], ["--restarts", "-1"], ["--restarts", "7", "--init", "irka"],
                  ["--restarts", "2", "--init", "file", "--init-file", rom]):
        capsys.readouterr()
        assert cli.main([*argv, *extra]) == 2, extra
        assert "--restarts" in capsys.readouterr().err
    assert cli.main(["fit", samples, "--structure", "stationary", "--init", "rb", "--restarts", "3",
                     "-o", rom]) == 2
    assert "--restarts" in capsys.readouterr().err
    assert cli.main([*argv, "--restarts", "2", "--max-iters", "3"]) == 0


def test_cli_pipeline_lti(tmp_path, capsys):
    model = str(tmp_path / "model.json")
    samples = str(tmp_path / "samples.json")
    rom = str(tmp_path / "rom.json")
    cert = str(tmp_path / "cert.json")
    assert cli.main(["generate", "random-lti", "--n", "12", "--seed", "2", "-o", model]) == 0
    assert cli.main(["sample", model, "--scheme", "logspace 0.1 10 12", "-o", samples]) == 0
    assert (
        cli.main([
            "fit", samples, "--structure", "lti", "--init", "irka", "--model", model,
            "-r", "4", "-o", rom,
        ])
        == 0
    )
    # trace file written next to the rom by default; the fit reports why it
    # stopped next to its convergence flag
    trace = io.read_payload(rom + ".trace", expect_kind="trace")
    assert f"converged: {trace['converged']} ({trace['message']})" in capsys.readouterr().out
    # the rom solves the sampled least-squares problem, so its ls certificate passes
    assert cli.main(["certify", rom, "--family", "discrete-ls", "--samples", samples,
                     "-o", cert]) == 0
    payload = io.read_payload(cert, expect_kind="certificate")
    assert payload["passed"] is True
    # the report draws T on the real axis: it refuses this rom's complex poles and takes a real one
    report = str(tmp_path / "report.txt")
    assert cli.main(["report", rom, "--samples", samples, "-o", report]) == 2
    assert cli.main(["fit", samples, "--structure", "lti", "--init", "irka", "--model", model,
                     "-r", "1", "-o", rom]) == 0
    assert cli.main(["report", rom, "--samples", samples, "-o", report]) == 0
    with open(report) as handle:
        text = handle.read()
    assert text.startswith("# columns: z T(z) That(z) T(z)-That(z)\n")
    assert "# conj-pole" in text


def test_cli_discrete_time_pipeline_certifies(tmp_path):
    # circle samples of a discrete-time model: the fitted optimum certifies
    model = str(tmp_path / "model.json")
    samples = str(tmp_path / "samples.json")
    rom = str(tmp_path / "rom.json")
    assert cli.main(["generate", "random-lti", "--n", "20", "--seed", "73", "--dt", "-o", model]) == 0
    assert cli.main(["sample", model, "--scheme", "circle 64", "-o", samples]) == 0
    assert cli.main(["fit", samples, "--structure", "lti", "-o", rom]) == 0
    assert cli.main(["certify", rom, "--family", "discrete-ls", "--samples", samples]) == 0


def test_cli_family_structure_mismatch(tmp_path):
    rom = stationary_rom(np.eye(2), np.eye(2) * 2, np.ones((2, 1)), np.ones((1, 2)))
    path = str(tmp_path / "rom.json")
    io.write_payload(path, io.rom_to_payload(rom))
    assert cli.main(["certify", path, "--family", "h2", "--model", "missing.json"]) == 2


def test_cli_missing_file_is_io_error(tmp_path):
    assert cli.main(["sample", str(tmp_path / "nope.json"), "--scheme", "gauss 10",
                     "-o", str(tmp_path / "out.json")]) == 3


def test_cli_bad_usage(tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit"])  # missing required arguments
    assert exc.value.code == 2
    samples = str(tmp_path / "s.json")
    model = str(tmp_path / "m.json")
    cli.main(["generate", "random-lti", "--n", "6", "-o", model])
    cli.main(["sample", model, "--scheme", "logspace 0.1 1 3", "-o", samples])
    # nonpositive order -> usage error, not a crash
    assert cli.main(["fit", samples, "--structure", "lti", "-r", "0",
                     "-o", str(tmp_path / "r.json")]) == 2
    # negative iteration cap -> usage error, not the initial model
    assert cli.main(["fit", samples, "--structure", "lti", "--max-iters", "-5",
                     "-o", str(tmp_path / "r.json")]) == 2
    # unknown scheme
    assert cli.main(["sample", model, "--scheme", "chebyshev 5",
                     "-o", str(tmp_path / "x.json")]) == 2


def test_cli_blank_or_unknown_scheme_names_the_schemes(tmp_path, capsys):
    # checked before the model is read: a missing model file is not reached
    model = str(tmp_path / "m.json")
    cli.main(["generate", "random-lti", "--n", "6", "-o", model])
    for path in (model, str(tmp_path / "nope.json")):
        for scheme in ("", "   ", "bogus 3"):
            capsys.readouterr()
            assert cli.main(["sample", path, "--scheme", scheme, "-o", str(tmp_path / "x.json")]) == 2
            err = capsys.readouterr().err
            assert f"unknown sampling scheme {scheme!r}" in err
            assert all(name in err for name in ("logspace", "gauss", "circle", "h2l2"))
    assert not (tmp_path / "x.json").exists()


def test_cli_config_fills_defaults(tmp_path, capsys):
    model = str(tmp_path / "m.json")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": 7, "seed": 5}))
    assert cli.main(["--config", str(cfg), "generate", "random-lti", "-o", model]) == 0
    payload = io.read_payload(model, expect_kind="model")
    assert payload["params"]["n"] == 7
    assert payload["params"]["seed"] == 5
    # explicit flags beat the config
    assert cli.main(["--config", str(cfg), "generate", "random-lti", "--n", "9",
                     "-o", model]) == 0
    assert io.read_payload(model)["params"]["n"] == 9
    # also when the flag repeats the parser default
    assert cli.main(["--config", str(cfg), "generate", "random-lti", "--n", "30",
                     "-o", model]) == 0
    assert io.read_payload(model)["params"]["n"] == 30
    # a key that names no flag of the subcommand is a usage error that names it
    for bad, key in (({"func": "x", "n": 8}, "func"), ({"sed": 5}, "sed"), ({"max-iters": 3}, "max-iters")):
        cfg.write_text(json.dumps(bad))
        capsys.readouterr()
        assert cli.main(["--config", str(cfg), "generate", "random-lti", "-o", model]) == 2
        assert key in capsys.readouterr().err
    # valid JSON that is not an object is an invalid config
    cfg.write_text(json.dumps([1, 2]))
    assert cli.main(["--config", str(cfg), "generate", "random-lti", "-o", model]) == 2
    assert "invalid config" in capsys.readouterr().err
    assert io.read_payload(model)["params"]["n"] == 30


def test_cli_generate_records_state_dimension(tmp_path):
    path = str(tmp_path / "m.json")
    cases = ((["penzl"], 1006), (["poisson", "--cells", "8"], 49), (["random-lti", "--n", "7"], 7),
             (["kron-parametric"], None))
    for argv, n in cases:
        assert cli.main(["generate", *argv, "-o", path]) == 0
        assert io.read_payload(path, expect_kind="model").get("meta", {}).get("n") == n


def test_cli_report_evaluates_rom_once(tmp_path, monkeypatch):
    model = str(tmp_path / "m.json")
    samples = str(tmp_path / "s.json")
    rom = str(tmp_path / "r.json")
    report = str(tmp_path / "report.txt")
    cli.main(["generate", "random-lti", "--n", "6", "-o", model])
    cli.main(["sample", model, "--scheme", "logspace 0.1 1 4", "-o", samples])
    cli.main(["fit", samples, "--structure", "lti", "-r", "1", "--max-iters", "5", "-o", rom])
    calls = []
    evaluate = spectral.pole_residue_eval

    def counting(pr, points, *args, **kwargs):
        calls.append(len(points))
        return evaluate(pr, points, *args, **kwargs)

    monkeypatch.setattr(spectral, "pole_residue_eval", counting)
    argv = ["report", rom, "--samples", samples, "--points", "50", "-o", report]
    assert cli.main(argv) == 0
    assert calls == [4]  # the rom at the 4 sample points, once
    with open(report) as handle:
        assert sum(not line.startswith("#") for line in handle) == 50


_SAMPLES = {"kind": "samples", "version": 1, "points": [[[1.0, 0.0]], [[2.0, 0.0]]],
            "values": [[[[1.0, 0.0]]], [[[0.5, 0.0]]]], "weights": [1.0, 1.0]}


@pytest.mark.parametrize(
    "kind, payload, message",
    [
        ("samples", [1, 2], "JSON object"),
        ("samples", {key: val for key, val in _SAMPLES.items() if key != "values"}, "values"),
        ("samples", dict(_SAMPLES, weights=[1.0, float("nan")]), "must be finite"),
        ("samples", dict(_SAMPLES, values=[[[1.0, 0.0], [2.0, 0.0]], [[0.5, 0.0], [1.0, 0.0]]]),
         "values have shape (2, 2); expected (N,) or (N, n_o, n_i)"),
        ("rom", {"kind": "rom", "version": 1, "n_p": 1, "A_terms": [], "C_terms": []}, "B_terms"),
    ],
    ids=["not-an-object", "no-values", "nan-weight", "values-2d", "rom-no-B_terms"],
)
def test_cli_malformed_file_is_usage_error(tmp_path, capsys, kind, payload, message):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(payload))
    if kind == "samples":
        argv = ["fit", str(path), "--structure", "lti", "-o", str(tmp_path / "rom.json")]
    else:
        argv = ["certify", str(path), "--family", "h2", "--model", str(tmp_path / "m.json")]
    assert cli.main(argv) == 2  # not 1, which means "certificate fail"
    err = capsys.readouterr().err
    assert err.startswith(f"error: invalid {kind} file") and message in err


def test_cli_certificate_carries_family_default_tolerance(tmp_path):
    from inspect import signature

    from l2rom import certify

    def default(function):
        return signature(function).parameters["tolerance"].default

    def write(name, payload):
        path = str(tmp_path / name)
        io.write_payload(path, payload)
        return path

    ones = np.ones((2, 1))
    lti = write("lti.json", io.rom_to_payload(lti_rom(np.eye(2), np.diag([-1.0, -2.0]), ones, ones.T)))
    lti_dt = write("lti_dt.json", io.rom_to_payload(lti_rom(np.eye(2), np.diag([0.3, -0.5]), ones, ones.T)))
    four = np.ones((4, 1))
    kron = write("kron.json", io.rom_to_payload(
        kron_rom(np.eye(2), np.diag([-1.0, -2.0]), np.eye(2), np.diag([2.0, 3.0]), four, four.T)
    ))
    stat = write("stat.json", io.rom_to_payload(stationary_rom(np.eye(2), np.diag([1.0, 2.0]), ones, ones.T)))
    model = {}
    for name, argv in (("ct", ["random-lti", "--n", "6"]), ("dt", ["random-lti", "--n", "6", "--dt"]),
                       ("kron", ["kron-parametric", "--s-terms", "3", "--xi-terms", "2"]),
                       ("poisson", ["poisson", "--cells", "8"])):
        model[name] = str(tmp_path / f"model_{name}.json")
        assert cli.main(["generate", *argv, "-o", model[name]]) == 0
    samples = str(tmp_path / "samples.json")
    assert cli.main(["sample", model["ct"], "--scheme", "logspace 0.1 10 6", "-o", samples]) == 0
    h2 = certify.H2_FAMILIES  # the model's time domain picks the family and its default tolerance
    cases = (
        ("h2", lti, ["--model", model["ct"]], *h2["ct"][:2]),
        ("h2", lti_dt, ["--model", model["dt"]], *h2["dt"][:2]),
        ("h2xl2", kron, ["--model", model["kron"]], "H2xL2", default(certify.h2l2_residuals)),
        ("discrete-ls", lti, ["--samples", samples], "DISCRETE_LS", default(certify.ls_residuals)),
        ("stationary", stat, ["--model", model["poisson"]], "STATIONARY", default(certify.stationary_residuals)),
    )
    for k, (flag, rom, extra, family, tolerance) in enumerate(cases):
        out = str(tmp_path / f"{k}.cert.json")
        assert cli.main(["certify", rom, "--family", flag, *extra, "-o", out]) in (0, 1)
        payload = io.read_payload(out, expect_kind="certificate")
        assert (payload["family"], payload["tolerance"]) == (family, tolerance), flag
    out = str(tmp_path / "explicit.cert.json")
    cli.main(["certify", lti, "--family", "h2", "--model", model["ct"], "--tol", "0.25", "-o", out])
    assert io.read_payload(out)["tolerance"] == 0.25


def test_cli_stationary_certificate_factors_only_the_rom(tmp_path, monkeypatch):
    model = str(tmp_path / "m.json")
    samples = str(tmp_path / "s.json")
    rom = str(tmp_path / "r.json")
    report = str(tmp_path / "report.txt")
    assert cli.main(["generate", "poisson", "--cells", "8", "-o", model]) == 0
    assert cli.main(["sample", model, "--scheme", "gauss 60", "-o", samples]) == 0
    assert cli.main(["fit", samples, "--structure", "stationary", "--init", "rb", "--model", model,
                     "-r", "2", "-o", rom]) == 0
    shapes = []
    affine = spectral.pole_residue_affine_singular

    def recording(A1, *args, **kwargs):
        shapes.append(np.shape(A1))
        return affine(A1, *args, **kwargs)

    monkeypatch.setattr(spectral, "pole_residue_affine_singular", recording)
    monkeypatch.setattr(cli, "pole_residue_affine_singular", recording, raising=False)
    assert cli.main(["certify", rom, "--family", "stationary", "--model", model]) == 0
    assert shapes == [(2, 2)]  # the reduced model's form; the full model only through evaluate
    shapes.clear()
    assert cli.main(["report", rom, "--model", model, "--points", "30", "-o", report]) == 0
    assert shapes == [(2, 2)]
    rows = np.loadtxt(report)  # columns p, Y, Yhat, Y - Yhat
    assert rows.shape == (30, 4)
    assert np.max(np.abs(rows[:, 3])) <= 1e-3 * np.max(np.abs(rows[:, 1]))


def test_cli_stationary_report_grid_stays_outside_the_interval(tmp_path):
    # poles 12 and 15 lie beyond b = 10: the grid around them crosses [a, b]
    model = str(tmp_path / "m.json")
    rom = str(tmp_path / "r.json")
    report = str(tmp_path / "report.txt")
    assert cli.main(["generate", "poisson", "--cells", "8", "-o", model]) == 0
    io.write_payload(rom, io.rom_to_payload(
        stationary_rom(np.eye(2), np.diag([-1 / 12, -1 / 15]), np.ones((2, 1)), np.ones((1, 2)))
    ))
    assert cli.main(["certify", rom, "--family", "stationary", "--model", model]) == 1
    assert cli.main(["report", rom, "--model", model, "-o", report]) == 0
    grid = np.loadtxt(report)[:, 0]
    a, b = io.model_from_payload(io.read_payload(model, expect_kind="model")).interval
    assert len(grid) > 0 and np.all((grid < a) | (grid > b))
    assert grid.min() <= 12.0 and grid.max() >= 15.0
    # poles 1 and 5 inside [a, b]: the whole grid would lie on the interval
    io.write_payload(rom, io.rom_to_payload(
        stationary_rom(np.eye(2), np.diag([-1.0, -1 / 5]), np.ones((2, 1)), np.ones((1, 2)))
    ))
    assert cli.main(["report", rom, "--model", model, "-o", report]) == 2


def test_cli_report_rejects_non_real_poles(tmp_path, capsys):
    # poles -1 +- 2j: the interpolation points conj(lambda_k) are off the real grid of the report
    model = str(tmp_path / "m.json")
    samples = str(tmp_path / "s.json")
    rom = str(tmp_path / "r.json")
    cli.main(["generate", "random-lti", "--n", "6", "-o", model])
    cli.main(["sample", model, "--scheme", "logspace 0.1 1 4", "-o", samples])
    io.write_payload(rom, io.rom_to_payload(lti_rom(np.eye(2), np.array([[-1.0, 2.0], [-2.0, -1.0]]),
                                                     np.ones((2, 1)), np.ones((1, 2)))))
    capsys.readouterr()
    assert cli.main(["report", rom, "--samples", samples, "-o", str(tmp_path / "report.txt")]) == 2
    err = capsys.readouterr().err
    assert "real reduced poles" in err and "-1.-2.j" in err and "-1.+2.j" in err
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize("argv", [
    *(["fit", "s.json", "--structure", f"lti-{time_domain}", "-o", "r.json"] for time_domain in ("ct", "dt")),
    *(["certify", "r.json", "--family", f"h2-{time_domain}", "--model", "m.json"] for time_domain in ("ct", "dt")),
    ["report", "r.json", "--family", "discrete-ls", "--samples", "s.json"],
], ids=["fit-structure-ct", "fit-structure-dt", "certify-family-ct", "certify-family-dt", "report-family"])
def test_cli_time_domain_and_report_family_are_not_options(argv, capsys):
    # the model's time domain and the rom's structure decide them
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert ("unrecognized arguments: --family" if argv[0] == "report" else "invalid choice") in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (["random-lti", "--inputs", "0"], "n_i"),
    (["random-lti", "--n", "0"], "n"),
    (["kron-parametric", "--s-terms", "0"], "r_s_terms"),
])
def test_cli_generate_rejects_empty_dimensions(tmp_path, capsys, argv, name):
    # the library's checks (test_degenerate_inputs_raise_value_errors_that_name_the_argument) reach the exit code
    path = tmp_path / "m.json"
    assert cli.main(["generate", *argv, "-o", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {name} must be at least 1")
    assert not path.exists()


def test_cli_model_of_the_wrong_kind_is_usage_error(tmp_path, capsys):
    # each command names the model kind it reads instead of failing on a missing attribute
    def path(name):
        return str(tmp_path / name)

    cli.main(["generate", "random-lti", "--n", "6", "-o", path("lti.json")])
    cli.main(["generate", "poisson", "--cells", "4", "-o", path("stationary.json")])
    cli.main(["generate", "kron-parametric", "--s-terms", "2", "--xi-terms", "2", "-o", path("kron.json")])
    cli.main(["sample", path("lti.json"), "--scheme", "logspace 0.1 1 4", "-o", path("ls.json")])
    cli.main(["sample", path("stationary.json"), "--scheme", "gauss 4", "-o", path("gauss.json")])
    # a frequency scheme samples any one-parameter model
    assert cli.main(["sample", path("stationary.json"), "--scheme", "logspace 0.1 1 4", "-o", path("sls.json")]) == 0
    rom = path("rom.json")
    io.write_payload(rom, io.rom_to_payload(stationary_rom(np.eye(2), np.diag([0.5, 2.0]), np.ones((2, 1)),
                                                           np.ones((1, 2)))))
    out = path("out.json")
    cases = [
        (["fit", path("gauss.json"), "--structure", "stationary", "--init", "rb", "--model", path("lti.json"),
          "-o", out], "stationary", "lti"),
        (["fit", path("ls.json"), "--structure", "lti", "--init", "irka", "--model", path("stationary.json"),
          "-o", out], "lti", "stationary"),
        (["certify", rom, "--family", "stationary", "--model", path("lti.json")], "stationary", "lti"),
        (["report", rom, "--model", path("lti.json")], "stationary", "lti"),
        (["sample", path("lti.json"), "--scheme", "gauss 20", "-o", out], "stationary", "lti"),
        (["sample", path("kron.json"), "--scheme", "gauss 20", "-o", out], "stationary", "kron"),
        (["sample", path("lti.json"), "--scheme", "h2l2 4 4", "-o", out], "kron", "lti"),
        (["sample", path("kron.json"), "--scheme", "logspace 0.1 1 4", "-o", out], "lti or stationary", "kron"),
        (["sample", path("kron.json"), "--scheme", "circle 8", "-o", out], "lti or stationary", "kron"),
    ]
    capsys.readouterr()
    for argv, wanted, found in cases:
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"requires a model of kind {wanted}, " in err and err.rstrip().endswith(f"holds one of kind {found}")
    assert not (tmp_path / "out.json").exists()


def test_cli_kron_and_stationary_random_starts(tmp_path, capsys):
    model, samples, rom, cert = (str(tmp_path / f"{name}.json") for name in ("m", "s", "r", "c"))
    assert cli.main(["generate", "kron-parametric", "--s-terms", "3", "--xi-terms", "2", "--inputs", "2",
                     "--outputs", "2", "-o", model]) == 0
    assert cli.main(["sample", model, "--scheme", "h2l2 16 8", "-o", samples]) == 0
    capsys.readouterr()
    assert cli.main(["fit", samples, "--structure", "kron", "--order-s", "2", "--order-xi", "2",
                     "--max-iters", "50", "-o", rom]) == 0
    out = capsys.readouterr().out
    assert "s-poles:" in out and "xi-poles:" in out
    assert cli.main(["certify", rom, "--family", "h2xl2", "--model", model, "-o", cert]) in (0, 1)
    assert io.read_payload(cert, expect_kind="certificate")["family"] == "H2xL2"
    # the h2l2 scheme needs both grid sizes
    assert cli.main(["sample", model, "--scheme", "h2l2 16", "-o", samples]) == 2
    assert "bad sampling scheme 'h2l2 16'" in capsys.readouterr().err
    # a random stationary start needs no model
    assert cli.main(["generate", "poisson", "--cells", "4", "-o", model]) == 0
    assert cli.main(["sample", model, "--scheme", "gauss 20", "-o", samples]) == 0
    assert cli.main(["fit", samples, "--structure", "stationary", "--init", "random", "-o", rom]) == 0
    assert spectral.rom_structure(io.rom_from_payload(io.read_payload(rom, expect_kind="rom"))) == "stationary"
