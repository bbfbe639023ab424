"""Command-line front end.

Subcommands: generate (build a full-order model file), sample (evaluate it
into a weighted sample set), fit (optimize a structured reduced model),
certify (evaluate interpolatory optimality residuals), report (emit
plot-ready columnar text).

Exit codes: 0 success / certificate pass, 1 certificate fail, 2 usage or
validation error, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import io, models
from .certify import (
    Interval,
    _is_real,
    h2_residuals,
    h2l2_residuals,
    ls_residuals,
    modified_ls_tf_eval,
    modified_output_eval,
    stationary_residuals,
)
from .core import kron_rom, lti_rom, stationary_rom
from .optimize import FitOptions, fit, greedy_rb_init, irka_init
from .spectral import pole_residue, rom_structure, stable

EXIT_OK = 0
EXIT_CERT_FAIL = 1
EXIT_USAGE = 2
EXIT_IO = 3

# The stationary report draws no point this close to [a, b] (see
# _report_grid): the interval rules resolve Y only about 1 % away.
STATIONARY_REPORT_GAP = 0.02

# certify --family: the rom structure each family's conditions apply to, which
# is also the kind of model it reads (MODEL_KIND); the model's time domain
# picks H2_CT or H2_DT for h2
FAMILY_STRUCTURE = {"h2": "lti", "h2xl2": "kron", "discrete-ls": "lti", "stationary": "stationary"}
MODEL_KIND = {models.AffineLtiFom: "lti", models.AffineStationaryFom: "stationary", models.KronParametricFom: "kron"}
# sample --scheme: the model kinds each scheme samples.  The gauss rule lies on
# the stationary model's interval; logspace and circle need one parameter,
# h2l2 two
SCHEME_KINDS = {"logspace": ("lti", "stationary"), "circle": ("lti", "stationary"), "gauss": ("stationary",),
                "h2l2": ("kron",)}
# generate: the flag that sets each parameter of a model's maker (io.MODEL_MAKERS);
# --dt sets random-lti's time_domain to "dt", its absence to "ct"
MAKER_FLAGS = {
    "penzl": {},
    "poisson": {"cells_per_side": "cells"},
    "random-lti": {"n": "n", "n_i": "inputs", "n_o": "outputs", "seed": "seed", "time_domain": "dt"},
    "kron-parametric": {"r_s_terms": "s_terms", "r_xi_terms": "xi_terms", "n_i": "inputs", "n_o": "outputs",
                        "seed": "seed"},
}


class UsageError(Exception):
    pass


# The dispatcher lives in spectral; this name stays for existing callers.
rom_pole_residue = pole_residue


def _load(path, kind, decode):
    """Read a ``kind`` file and decode its payload; a malformed file is a usage error."""
    try:
        return decode(io.read_payload(path, expect_kind=kind))
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise UsageError(f"invalid {kind} file {path}: {exc}") from exc


def _load_model(path, purpose, *kinds):
    """Read a model file; a usage error unless it holds a model of one of ``kinds`` (see MODEL_KIND)."""
    fom = _load(path, "model", io.model_from_payload)
    found = MODEL_KIND[type(fom)]
    if found not in kinds:
        raise UsageError(f"{purpose} requires a model of kind {' or '.join(kinds)}, {path} holds one of kind {found}")
    return fom


def cmd_generate(args):
    params = {param: getattr(args, flag) for param, flag in MAKER_FLAGS[args.model].items()}
    if "time_domain" in params:
        params["time_domain"] = "dt" if params["time_domain"] else "ct"
    fom = io.model_from_payload(io.model_to_payload(args.model, params))
    n = getattr(fom, "n", None)  # the kron-parametric map has no state dimension
    payload = io.model_to_payload(args.model, params, meta={} if n is None else {"n": int(n)})
    io.write_payload(args.out, payload)
    print(f"wrote {args.model} model to {args.out}" + (f" (n = {n})" if n else ""))
    return EXIT_OK


def cmd_sample(args):
    parts = args.scheme.split()
    if not parts or parts[0] not in SCHEME_KINDS:
        raise UsageError(f"unknown sampling scheme {args.scheme!r}; the schemes are {', '.join(SCHEME_KINDS)}")
    fom = _load_model(args.model, f"the {parts[0]} scheme", *SCHEME_KINDS[parts[0]])
    try:
        if parts[0] == "logspace":
            lo, hi, num = float(parts[1]), float(parts[2]), int(parts[3])
            freqs = np.logspace(np.log10(lo), np.log10(hi), num)
            data = models.sample_frequency_response(fom, freqs)
        elif parts[0] == "gauss":
            data = models.sample_stationary(fom, int(parts[1]))
        elif parts[0] == "circle":
            data = models.sample_unit_circle(fom, int(parts[1]))
        else:
            data = models.sample_h2l2(fom, n_s=int(parts[1]), n_xi=int(parts[2]))
    except (IndexError, ValueError) as exc:
        raise UsageError(f"bad sampling scheme {args.scheme!r}: {exc}") from exc
    io.write_payload(args.out, io.samples_to_payload(data))
    print(f"wrote {len(data)} samples to {args.out}")
    return EXIT_OK


def _random_rom(structure, args, data, rng):
    r, n_i, n_o = args.order, data.n_i, data.n_o
    if structure == "lti":
        # poles in [-0.5, 0): stable in both time domains
        a = rng.standard_normal((r, r))
        a = -(a @ a.T) / 2 - 0.5 * np.eye(r)
        a = 0.5 * a / max(np.max(np.abs(np.linalg.eigvals(a))), 1.0)
        return lti_rom(np.eye(r), a, rng.standard_normal((r, n_i)), rng.standard_normal((n_o, r)))
    if structure == "stationary":
        a2 = rng.standard_normal((r, r))
        a2 = a2 @ a2.T / 2 + 0.5 * np.eye(r)
        return stationary_rom(np.eye(r), a2, rng.standard_normal((r, n_i)), rng.standard_normal((n_o, r)))
    rs, rx = args.order_s, args.order_xi
    a = rng.standard_normal((rs, rs))
    a = -(a @ a.T) / 2 - 0.5 * np.eye(rs)
    ax = rng.standard_normal((rx, rx))
    ax = ax @ ax.T / 2 + 1.5 * np.eye(rx)
    return kron_rom(
        np.eye(rs), a, np.eye(rx), ax,
        rng.standard_normal((rs * rx, n_i)), rng.standard_normal((n_o, rs * rx)),
    )


def cmd_fit(args):
    if args.structure != "kron" and args.order <= 0:
        raise UsageError("reduced order must be positive")
    if args.structure == "kron" and (args.order_s <= 0 or args.order_xi <= 0):
        raise UsageError("reduced orders must be positive")
    if args.restarts < 1 or (args.restarts > 1 and args.init != "random"):
        raise UsageError(f"--restarts counts random starts: at least 1, and above 1 only with --init random; "
                         f"got {args.restarts} with --init {args.init}")
    opts = FitOptions(max_iters=args.max_iters, grad_tol=args.tol)
    data = _load(args.samples, "samples", io.samples_from_payload)

    rng = np.random.default_rng(args.seed)
    fom = None
    if args.init == "file":
        if not args.init_file:
            raise UsageError("--init file requires --init-file")
        init = _load(args.init_file, "rom", io.rom_from_payload)
        found = rom_structure(init)
        if found != args.structure:
            raise UsageError(f"--structure {args.structure} requires a {args.structure} rom, "
                             f"{args.init_file} holds a {found} rom")
        inits = [init]
    elif args.init == "random":
        inits = [_random_rom(args.structure, args, data, rng) for _ in range(args.restarts)]
    else:
        if not args.model:
            raise UsageError(f"--init {args.init} requires --model")
        structure = {"irka": "lti", "rb": "stationary"}[args.init]
        if args.structure != structure:
            raise UsageError(f"{args.init} initialization applies to the {structure} structure")
        fom = _load_model(args.model, f"--init {args.init}", structure)
        if args.init == "irka":
            inits = [irka_init(fom, args.order)]
        else:
            a, b = fom.interval
            inits = [greedy_rb_init(fom, args.order, np.logspace(np.log10(a), np.log10(b), 20))]
    if fom is None and args.model and args.structure == "lti":  # for the stability report
        fom = _load_model(args.model, "the stability report of an lti fit", "lti")

    best = None
    for init in inits:
        trace = fit(init, data, opts)
        if best is None or trace.objectives[-1] < best.objectives[-1]:
            best = trace
    rom = best.rom
    io.write_payload(args.out, io.rom_to_payload(rom))
    trace_path = args.trace or args.out + ".trace"
    io.write_payload(trace_path, io.trace_to_payload(best))
    print(f"final objective {best.objectives[-1]:.6e}, gradient norm {best.grad_norms[-1]:.3e}, "
          f"converged: {best.converged} ({best.message})")
    try:
        pr = pole_residue(rom)
        if hasattr(pr, "poles"):
            print("poles:", np.array2string(np.sort_complex(pr.poles), precision=6))
            if hasattr(fom, "time_domain"):  # an lti model
                is_stable = bool(np.all(stable(pr.poles, fom.time_domain)))
                print(f"stable: {is_stable}")
                if not is_stable:
                    print(f"warning: the fitted model is unstable in time domain {fom.time_domain}", file=sys.stderr)
        else:
            print("s-poles:", np.array2string(np.sort_complex(pr.s_poles), precision=6))
            print("xi-poles:", np.array2string(np.sort_complex(pr.xi_poles), precision=6))
    except Exception as exc:  # pole extraction is informational only
        print(f"pole extraction failed: {exc}")
    print(f"wrote rom to {args.out} and trace to {trace_path}")
    return EXIT_OK


def cmd_certify(args):
    rom = _load(args.rom, "rom", io.rom_from_payload)
    structure, wanted = rom_structure(rom), FAMILY_STRUCTURE[args.family]
    if structure != wanted:
        raise UsageError(f"certificate family {args.family} requires a {wanted} rom, found {structure}")
    pr = pole_residue(rom)
    tol = {} if args.tol is None else {"tolerance": args.tol}  # else each family's own default
    if args.family == "discrete-ls":
        if not args.samples:
            raise UsageError("discrete-ls certification requires --samples")
        data = _load(args.samples, "samples", io.samples_from_payload)
        cert = ls_residuals(data, pr, **tol)
    else:
        if not args.model:
            raise UsageError(f"{args.family} certification requires --model")
        fom = _load_model(args.model, f"certificate family {args.family}", wanted)
        if args.family == "h2":
            cert = h2_residuals(fom, pr, **tol)
        elif args.family == "h2xl2":
            cert = h2l2_residuals(fom, pr, **tol)
        else:
            cert = stationary_residuals(fom, pr, Interval(*fom.interval), **tol)
    if args.out:
        io.write_payload(args.out, io.certificate_to_payload(cert))
    print(f"{cert.family}: max residual {cert.max_residual:.3e} "
          f"(tolerance {cert.tolerance:.1e}) -> {'PASS' if cert.passed else 'FAIL'}")
    return EXIT_OK if cert.passed else EXIT_CERT_FAIL


def _report_grid(conj_poles, points, interval=None):
    """A linear grid of real points z around the (real) conjugate poles.

    The grid reaches half a pole's distance from 0 beyond the outermost
    poles.  With an ``interval`` (the stationary family), points within
    STATIONARY_REPORT_GAP of [a, b], in the variable of the interval rule
    (ln t when 0 < a, t / (b - a) otherwise), are dropped: the quadrature
    cannot resolve T there.
    """
    lo, hi = conj_poles.min(), conj_poles.max()
    grid = np.linspace(lo - 0.5 * abs(lo), hi + 0.5 * abs(hi), points)
    if interval is None:
        return grid
    a, b, gap = interval.a, interval.b, STATIONARY_REPORT_GAP
    if a > 0:
        lo, hi = a * np.exp(-gap), b * np.exp(gap)
    else:
        lo, hi = a - gap * (b - a), b + gap * (b - a)
    grid = grid[(grid < lo) | (grid > hi)]
    if len(grid) == 0:
        raise UsageError(f"no report point around the reduced poles lies clear of the interval [{a:g}, {b:g}]")
    return grid


def cmd_report(args):
    rom = _load(args.rom, "rom", io.rom_from_payload)
    structure = rom_structure(rom)
    if structure not in ("lti", "stationary"):
        raise UsageError(f"reports exist for lti (discrete-ls) and stationary roms, found {structure}")
    pr = pole_residue(rom)
    # the grid is real, so it holds the interpolation points conj(lambda_k) only of real poles
    if not _is_real(pr.poles):
        raise UsageError("the report draws T on the real axis and needs real reduced poles, found "
                         + np.array2string(np.sort_complex(pr.poles), precision=6))
    conj_poles = np.sort(pr.poles.real)
    if structure == "lti":
        if not args.samples:
            raise UsageError("the discrete-ls report of an lti rom requires --samples")
        data = _load(args.samples, "samples", io.samples_from_payload)
        grid = _report_grid(conj_poles, args.points)
        t, t_hat = (modified_ls_tf_eval(data, model, grid) for model in (None, pr))
    else:
        if not args.model:
            raise UsageError("the stationary report requires --model")
        fom = _load_model(args.model, "the stationary report", "stationary")
        interval = Interval(*fom.interval)
        grid = _report_grid(conj_poles, args.points, interval)
        t, t_hat = (modified_output_eval(model, interval, grid) for model in (fom, pr))
    lines = ["# columns: z T(z) That(z) T(z)-That(z)"]
    lines += [f"# conj-pole {z:.17g}" for z in conj_poles]
    for z, t_z, t_hat_z in zip(grid, t[:, 0, 0].real, t_hat[:, 0, 0].real):
        lines.append(f"{z:.17g} {t_z:.17g} {t_hat_z:.17g} {t_z - t_hat_z:.17g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote report to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="l2rom", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a full-order model file")
    gen.add_argument("model", choices=io.MODEL_NAMES)
    gen.add_argument("--out", "-o", required=True)
    gen.add_argument("--n", type=int, default=30)
    gen.add_argument("--inputs", type=int, default=1)
    gen.add_argument("--outputs", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--dt", action="store_true", help="discrete-time random model")
    gen.add_argument("--cells", type=int, default=32, help="mesh cells per side (poisson)")
    gen.add_argument("--s-terms", type=int, default=6)
    gen.add_argument("--xi-terms", type=int, default=5)
    gen.set_defaults(func=cmd_generate)

    smp = sub.add_parser("sample", help="evaluate a model into a sample set")
    smp.add_argument("model")
    smp.add_argument("--scheme", required=True,
                     help='"logspace LO HI N" | "gauss N" | "circle N" | "h2l2 NS NXI"')
    smp.add_argument("--out", "-o", required=True)
    smp.set_defaults(func=cmd_sample)

    fitp = sub.add_parser("fit", help="fit a structured reduced model to samples")
    fitp.add_argument("samples")
    fitp.add_argument("--structure", required=True, choices=("lti", "kron", "stationary"))
    fitp.add_argument("--init", default="random", choices=("irka", "rb", "random", "file"))
    fitp.add_argument("--model", help="model file (for irka/rb initialization and an lti fit's stability report)")
    fitp.add_argument("--init-file", help="rom file (for file initialization)")
    fitp.add_argument("--order", "-r", type=int, default=2)
    fitp.add_argument("--order-s", type=int, default=2)
    fitp.add_argument("--order-xi", type=int, default=2)
    fitp.add_argument("--restarts", type=int, default=1, help="random starts (for random initialization)")
    fitp.add_argument("--max-iters", type=int, default=FitOptions.max_iters)
    fitp.add_argument("--tol", type=float, default=FitOptions.grad_tol, help="relative gradient tolerance")
    fitp.add_argument("--seed", type=int, default=0)
    fitp.add_argument("--out", "-o", required=True)
    fitp.add_argument("--trace", help="trace output path (default: OUT.trace)")
    fitp.set_defaults(func=cmd_fit)

    cert = sub.add_parser("certify", help="evaluate optimality-condition residuals")
    cert.add_argument("rom")
    cert.add_argument("--family", required=True, choices=sorted(FAMILY_STRUCTURE))
    cert.add_argument("--model")
    cert.add_argument("--samples")
    cert.add_argument("--tol", type=float)
    cert.add_argument("--out", "-o")
    cert.set_defaults(func=cmd_certify)

    rep = sub.add_parser("report", help="emit plot-ready columnar text")
    rep.add_argument("rom")
    rep.add_argument("--model")
    rep.add_argument("--samples")
    rep.add_argument("--points", type=int, default=200)
    rep.add_argument("--out", "-o")
    rep.set_defaults(func=cmd_report)

    sub_map = {"generate": gen, "sample": smp, "fit": fitp, "certify": cert, "report": rep}
    return parser, sub_map


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # --config supplies defaults for any later flag
    if "--config" in argv:
        idx = argv.index("--config")
        try:
            cfg_path = argv[idx + 1]
        except IndexError:
            print("--config requires a path", file=sys.stderr)
            return EXIT_USAGE
        del argv[idx : idx + 2]
        try:
            with open(cfg_path) as handle:
                config = json.load(handle)
        except OSError as exc:
            print(f"cannot read config: {exc}", file=sys.stderr)
            return EXIT_IO
        except json.JSONDecodeError as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not isinstance(config, dict):
            print(f"invalid config: {cfg_path} does not hold a JSON object", file=sys.stderr)
            return EXIT_USAGE
    else:
        config = {}

    parser, sub_map = build_parser()
    args = parser.parse_args(argv)
    if config:
        # the config replaces the defaults of the subcommand's flags, so explicit flags win
        defaults = {key.replace("-", "_"): value for key, value in config.items()}
        flags = set(vars(args)) - {"func", "command"}
        unknown = [key for key in config if key.replace("-", "_") not in flags]
        if unknown:
            print(f"error: config keys name no flag of {args.command}: {', '.join(unknown)}", file=sys.stderr)
            return EXIT_USAGE
        sub_map[args.command].set_defaults(**defaults)
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
