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


def int64_array(seq) -> np.ndarray | None:
    """``seq``, a list, as a 1-D int64 array in one conversion; None for
    anything else, or when the conversion fails or is not 1-D.

    numpy converts each element as ``int()`` does (floats truncate, numeric
    strings parse, an int subclass's ``__int__`` is called) and raises where
    the value does not fit in int64, so the values equal ``int()``'s. The
    exception is an element that is itself a 0-d array, which numpy casts as
    an array: a uint64 above 2**63 wraps, a NaN or out-of-range float becomes
    the lowest int64 and a complex loses its imaginary part.
    """
    if type(seq) is not list:
        return None
    try:
        arr = np.array(seq, dtype=np.int64)
    except Exception:  # the caller's own loop decides what to do with it
        return None
    return arr if arr.ndim == 1 else None


def count_lines(source: str) -> int:
    """Number of non-empty lines after trimming trailing whitespace."""
    return sum(1 for line in source.splitlines() if line.rstrip())
