"""Small shared helpers: seed derivation, hashing, line counting."""

from __future__ import annotations

import hashlib

import numpy as np

# Tolerance for treating two objective values as equal.
OBJECTIVE_EPS = 1e-9
# Slack allowed when validating cached objectives against recomputation.
CACHE_TOL = 1e-6


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def derive_seed(master: int, *parts) -> int:
    """Derive a 63-bit child seed from a master seed and a label path.

    Splittable: adding new label paths never changes existing derivations,
    so e.g. appending training instances keeps earlier seeds stable.
    """
    h = hashlib.sha256()
    h.update(str(int(master)).encode())
    for part in parts:
        h.update(b"/")
        h.update(str(part).encode())
    return int.from_bytes(h.digest()[:8], "big") >> 1


def make_rng(seed: int) -> np.random.Generator:
    """The package-wide RNG construction (PCG64, fixed algorithm)."""
    return np.random.Generator(np.random.PCG64(int(seed)))


def plain_ints(seq) -> bool:
    """Whether ``seq`` is a list of exact ``int``s: no ``bool``, float,
    string or numpy scalar, which ``int()`` would convert first."""
    return type(seq) is list and set(map(type, seq)) <= {int}


def count_lines(source: str) -> int:
    """Number of non-empty lines after trimming trailing whitespace."""
    return sum(1 for line in source.splitlines() if line.rstrip())
