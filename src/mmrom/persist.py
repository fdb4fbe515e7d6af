"""Textual coefficient files: `#`-prefixed header, one coefficient per line.

Coefficients are written block-major (all of c_1, then c_2, ...) in the
graded-lex basis ordering, using repr() so that read/write round-trips are
bit-exact.
"""
from __future__ import annotations

import hashlib

import numpy as np

from .basis import basis_count
from .quadrature import BoxDomain

FORMAT_VERSION = 1


def problem_fingerprint(name: str, params: dict) -> str:
    payload = name + "|" + ",".join(f"{k}={params[k]!r}" for k in sorted(params))
    return name + ":" + hashlib.sha256(payload.encode()).hexdigest()[:12]


def write_coefficients(path, c: np.ndarray, *, n: int, d: int, M: int,
                       domain: BoxDomain, fingerprint: str) -> None:
    c = np.asarray(c, dtype=float).ravel()
    N = basis_count(d, M)
    if c.shape[0] != n * N:
        raise ValueError(f"coefficient vector has length {c.shape[0]}, expected {n * N}")
    lines = [
        f"# format: {FORMAT_VERSION}",
        f"# problem: {fingerprint}",
        f"# n: {n}",
        f"# d: {d}",
        f"# M: {M}",
        f"# N: {N}",
        "# domain_lo: " + " ".join(repr(float(v)) for v in domain.lo),
        "# domain_hi: " + " ".join(repr(float(v)) for v in domain.hi),
        "# ordering: graded-lex",
    ]
    lines.extend(repr(float(v)) for v in c)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_coefficients(path) -> dict:
    header: dict[str, str] = {}
    values: list[float] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, val = line[1:].partition(":")
                header[key.strip()] = val.strip()
            else:
                values.append(float(line))
    fmt = int(header.get("format", "1"))
    if fmt > FORMAT_VERSION:
        raise ValueError(f"file format {fmt} is newer than the supported {FORMAT_VERSION}")
    missing = [key for key in ("n", "d", "M", "N", "domain_lo", "domain_hi") if key not in header]
    if missing:
        raise ValueError(f"missing header field {', '.join(missing)}")
    n, d, M, N = (int(header[key]) for key in ("n", "d", "M", "N"))
    if N != basis_count(d, M):
        raise ValueError(f"header N={N} inconsistent with d={d}, M={M}")
    if len(values) != n * N:
        raise ValueError(f"file holds {len(values)} coefficients, expected {n * N}")
    if header.get("ordering") != "graded-lex":
        raise ValueError(f"unsupported basis ordering {header.get('ordering')!r}")
    lo, hi = ([float(v) for v in header[key].split()] for key in ("domain_lo", "domain_hi"))
    if len(lo) != d or len(hi) != d:
        raise ValueError(f"domain_lo and domain_hi hold {len(lo)} and {len(hi)} entries, "
                         f"expected d = {d}")
    domain = BoxDomain(lo=np.array(lo), hi=np.array(hi))
    return {
        "c": np.array(values),
        "n": n,
        "d": d,
        "M": M,
        "domain": domain,
        "fingerprint": header.get("problem", ""),
    }
