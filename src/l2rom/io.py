"""File formats: a JSON container for models, samples, roms, certificates
and fit traces.

All files share the envelope {"kind": ..., "version": 1, ...}.  Complex
numbers are stored as two-element [re, im] arrays and matrices as row-major
nested lists (dense only).  Writes are atomic (temp file + rename) so an
interrupted run never leaves a partial file.
"""

from __future__ import annotations

import json
import os

import numpy as np

from . import models
from .certify import Certificate, CertificateRow
from .core import SampleSet, ScalarFamily, StructuredRom, kron_rom

__all__ = [
    "FORMAT_VERSION",
    "write_payload",
    "read_payload",
    "samples_to_payload",
    "samples_from_payload",
    "rom_to_payload",
    "rom_from_payload",
    "certificate_to_payload",
    "certificate_from_payload",
    "trace_to_payload",
]

FORMAT_VERSION = 1
KINDS = ("model", "samples", "rom", "certificate", "trace")
# model files: the name of each model and its maker
MODEL_MAKERS = {
    "penzl": models.make_penzl,
    "poisson": models.make_poisson,
    "random-lti": models.make_random_stable,
    "kron-parametric": models.make_kron_parametric,
}
MODEL_NAMES = tuple(MODEL_MAKERS)
# Largest difference between the stored A-terms of a kron rom file and the
# Kronecker products of its factors, relative to the largest stored entry.
KRON_TERMS_RTOL = 1e-12


def _encode_complex_array(arr):
    arr = np.asarray(arr, dtype=complex)
    stacked = np.stack([arr.real, arr.imag], axis=-1)
    return stacked.tolist()


def _decode_complex_array(nested):
    arr = np.asarray(nested, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def _encode_real_array(arr):
    return np.asarray(arr, dtype=float).tolist()


def write_payload(path, payload):
    """Atomically write a JSON payload; the envelope is validated first.

    The text is strict JSON (RFC 8259): a NaN or infinite number raises
    ValueError.  Certificates write theirs as null (``certificate_to_payload``).

    The temporary file is created with mode 0o666 under the process umask,
    as open(path, "w") would create it, and renamed over ``path``.
    """
    if payload.get("kind") not in KINDS:
        raise ValueError(f"payload kind must be one of {KINDS}")
    text = json.dumps(dict(payload, version=FORMAT_VERSION), allow_nan=False) + "\n"
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_payload(path, expect_kind=None):
    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError("file does not hold a JSON object")
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported file version {payload.get('version')!r}")
    if payload.get("kind") not in KINDS:
        raise ValueError(f"unknown file kind {payload.get('kind')!r}")
    if expect_kind is not None and payload["kind"] != expect_kind:
        raise ValueError(f"expected a {expect_kind} file, found {payload['kind']!r}")
    return payload


def samples_to_payload(samples):
    return {
        "kind": "samples",
        "points": _encode_complex_array(samples.points),
        "values": _encode_complex_array(samples.values),
        "weights": _encode_real_array(samples.weights),
    }


def samples_from_payload(payload):
    return SampleSet(
        points=_decode_complex_array(payload["points"]),
        values=_decode_complex_array(payload["values"]),
        weights=np.asarray(payload["weights"], dtype=float),
    )


def _family_to_list(family):
    return [[coeff, list(exps)] for coeff, exps in family.terms]


def _family_from_list(terms, n_p):
    return ScalarFamily(tuple((float(c), tuple(int(e) for e in exps)) for c, exps in terms), n_p)


def _terms_to_list(terms):
    return [
        {"family": _family_to_list(fam), "matrix": _encode_real_array(mat)} for fam, mat in terms
    ]


def _terms_from_list(items, n_p):
    return tuple(
        (_family_from_list(item["family"], n_p), np.asarray(item["matrix"], dtype=float))
        for item in items
    )


def rom_to_payload(rom):
    payload = {
        "kind": "rom",
        "n_p": rom.n_p,
        "A_terms": _terms_to_list(rom.A_terms),
        "B_terms": _terms_to_list(rom.B_terms),
        "C_terms": _terms_to_list(rom.C_terms),
    }
    if rom.kron is not None:
        ks = rom.kron
        payload["kron"] = {
            name: _encode_real_array(mat)
            for name, mat in (("E", ks.E), ("A", ks.A), ("E_xi", ks.E_xi), ("A_xi", ks.A_xi))
        }
    return payload


def _families(rom):
    return [fam for fam, _ in rom.A_terms + rom.B_terms + rom.C_terms]


def rom_from_payload(payload):
    """Decode a rom file.

    A kron rom is rebuilt from its factors (``kron_rom``); its stored terms
    must carry the scalar families of the Kronecker operator and its stored
    A-terms must equal the Kronecker products of the factors to within
    KRON_TERMS_RTOL, relative to the largest stored entry, or ValueError
    is raised.
    """
    n_p = int(payload["n_p"])
    stored = StructuredRom(
        A_terms=_terms_from_list(payload["A_terms"], n_p),
        B_terms=_terms_from_list(payload["B_terms"], n_p),
        C_terms=_terms_from_list(payload["C_terms"], n_p),
    )
    if payload.get("kron") is None:
        return stored
    factors = (np.asarray(payload["kron"][name], dtype=float) for name in ("E", "A", "E_xi", "A_xi"))
    rom = kron_rom(*factors, stored.B_terms[0][1], stored.C_terms[0][1])
    if rom.r != stored.r or _families(rom) != _families(stored):
        raise ValueError("kron rom terms do not match the structure of its factors")
    pairs = [(mat, built) for (_, mat), (_, built) in zip(stored.A_terms, rom.A_terms)]
    scale = max(max(np.max(np.abs(mat)) for mat, _ in pairs), 1e-300)
    gap = max(np.max(np.abs(mat - built)) for mat, built in pairs) / scale
    if gap > KRON_TERMS_RTOL:
        raise ValueError(
            f"kron rom A-terms differ from the Kronecker products of its factors ({gap:.2e} relative)"
        )
    return rom


def _finite_or_null(value):
    return float(value) if np.isfinite(value) else None


def certificate_to_payload(cert):
    """The certificate file; a non-finite residual, and so ``max_residual``, is written as null."""
    return {
        "kind": "certificate",
        "family": cert.family,
        "tolerance": cert.tolerance,
        "passed": cert.passed,
        "max_residual": _finite_or_null(cert.max_residual),
        "rows": [
            {"label": row.label, "residuals": [[name, _finite_or_null(val)] for name, val in row.residuals]}
            for row in cert.rows
        ],
    }


def certificate_from_payload(payload):
    """Decode a certificate file; a null residual reads back as NaN, which fails the certificate."""
    rows = tuple(
        CertificateRow(
            label=row["label"],
            residuals=tuple((name, np.nan if val is None else float(val)) for name, val in row["residuals"]),
        )
        for row in payload["rows"]
    )
    return Certificate(family=payload["family"], rows=rows, tolerance=float(payload["tolerance"]))


def model_to_payload(name, params, meta=None):
    """Model files store the generator name and parameters.

    The generators are deterministic (seeded), so regenerating on load gives
    bit-identical matrices without shipping megabytes of dense data.
    """
    if name not in MODEL_NAMES:
        raise ValueError(f"unknown model {name!r}, expected one of {MODEL_NAMES}")
    payload = {"kind": "model", "name": name, "params": dict(params)}
    if meta:
        payload["meta"] = dict(meta)
    return payload


def model_from_payload(payload):
    """Reconstruct the full-order model object described by a model file."""
    name = payload["name"]
    if name not in MODEL_MAKERS:
        raise ValueError(f"unknown model {name!r}")
    return MODEL_MAKERS[name](**payload.get("params", {}))


def trace_to_payload(trace):
    return {
        "kind": "trace",
        "objectives": [float(v) for v in trace.objectives],
        "grad_norms": [float(v) for v in trace.grad_norms],
        "step_lengths": [float(v) for v in trace.step_lengths],
        "converged": bool(trace.converged),
        "iterations": int(trace.iterations),
        "message": trace.message,
        "objective_calls": int(trace.objective_calls),
        "gradient_calls": int(trace.gradient_calls),
        "backtracks": int(trace.backtracks),
    }
