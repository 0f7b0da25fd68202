"""Built-in removal and ordering operators plus the operator-pair contract.

Operators are stateless: all randomness comes from the rng argument, and
they never mutate the solution they are given. Removal operators return
customer ids to detach; ordering operators return a permutation of the ids
they receive.

The two removal operators run as one compiled call each on the C backend
(``_kernels.removal``), when the rng is a ``numpy.random.Generator`` and
every draw's span is one that the compiled draw takes. The compiled walk
and pick make numpy's draws in the order of the Python bodies here
(``_string_walk``, ``_uniform_pick``), which run otherwise and which the
load-time check compares them with: the same ids and the same generator
state after.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import _kernels
from .errors import ConfigError
from .model import Instance, Solution
from .util import int64_array, plain_ints


@dataclass(frozen=True)
class OperatorPair:
    remove: Callable
    order: Callable
    label: str
    origin: str = "builtin"  # or "external-candidate"


# (lowest count, number of counts) of seed_random_remove's draw of k
_UNIFORM_ARGS = (10, 11)


def seed_random_remove(instance: Instance, solution: Solution, rng) -> list[int]:
    """Uniform random selection of 10..20 assigned customers (clamped)."""
    if _kernels._compiled is not None and type(rng) is np.random.Generator:
        return _kernels.removal(_kernels._compiled.uniform_remove, instance, solution, rng,
                                *_UNIFORM_ARGS)
    return _uniform_pick(instance, solution, rng)


def _uniform_pick(instance: Instance, solution: Solution, rng) -> list[int]:
    """``seed_random_remove`` in numpy: the interpreted backend and the
    compiled pick's reference."""
    assigned = solution.assigned_ids()
    if assigned.size == 0:
        return []
    lo, span = _UNIFORM_ARGS
    k = min(_kernels.integers(rng, lo, lo + span), assigned.size)
    # the draws, values and dtype of rng.choice(assigned, size=k, replace=False)
    return assigned[rng.choice(assigned.size, size=k, replace=False)].tolist()


def seed_random_order(instance: Instance, ids, solution: Solution, rng) -> list[int]:
    """Uniform random permutation of the removed ids."""
    out = [int(c) for c in ids]
    rng.shuffle(out)
    return out


# nodes of the first block of string removal's walk, the seed included
_FIRST_BLOCK = 16


@dataclass(frozen=True)
class StringRemovalParams:
    """Bounds for the string-removal baseline; values chosen to match the
    seed operator's 10..20 removal scale."""

    max_string_len: int = 10
    avg_removed: int = 10
    max_strings: int = 4


def string_remove(
    instance: Instance,
    solution: Solution,
    rng,
    params: StringRemovalParams = StringRemovalParams(),
) -> list[int]:
    """Spatially correlated removal of contiguous tour strings.

    Picks a random seed customer, walks its distance-sorted adjacency, and
    removes one contiguous string from each tour encountered until the
    string budget or the removal target is exhausted.
    """
    args = _walk_args(params)
    if (args is not None and _kernels._compiled is not None
            and type(rng) is np.random.Generator):
        return _kernels.removal(_kernels._compiled.string_remove, instance, solution, rng, *args)
    return _string_walk(instance, solution, rng, params)


def _walk_args(params: StringRemovalParams):
    """(target's low end, target's span, max_string_len, max_strings) for
    the compiled walk, or None when it cannot make the walk's draws: a
    parameter that is not an int, a target span outside 1..2**32 - 1 (the
    compiled draw's), a string length below 1 (the walk raises at its
    first tour), a string count below 1 (it returns after its first two
    draws), or either past int64."""
    max_len, avg, max_strings = params.max_string_len, params.avg_removed, params.max_strings
    if not (type(max_len) is type(avg) is type(max_strings) is int
            and 0 < max_len < 1 << 63 and 0 < max_strings < 1 << 63):
        return None
    lo = max(1, avg // 2)
    span = avg * 2 - lo
    return (lo, span, max_len, max_strings) if 0 < span <= 0xFFFFFFFF else None


def _string_walk(instance: Instance, solution: Solution, rng,
                 params: StringRemovalParams) -> list[int]:
    """``string_remove`` in Python: the interpreted backend and the
    compiled walk's reference."""
    assigned = solution.assigned_ids()
    if assigned.size == 0:
        return []
    # _kernels.integers(rng, lo, hi) is int(rng.integers(lo, hi)), bit for bit
    target = _kernels.integers(rng, max(1, params.avg_removed // 2), params.avg_removed * 2)
    seed = int(assigned[_kernels.integers(rng, 0, assigned.size)])

    removed: list[int] = []
    hit_tours: set[int] = set()
    if params.max_strings < 1:  # the walk stops before the seed
        return removed
    # the seed, then its neighbours nearest first; unassigned ones (the
    # depot too) never start a string, so the walk passes over them in one step.
    # Most walks stop within a few nodes, so a short first block is read
    # before the rest, which comes at once (a late PCVRP walk reads it all).
    neighbours = instance.adjacency[seed]
    blocks = (np.concatenate(([seed], neighbours[: _FIRST_BLOCK - 1])),
              neighbours[_FIRST_BLOCK - 1 :])
    for walk in blocks:
        tours = solution._tour_of[walk]
        served = tours >= 0
        for c, t in zip(walk[served].tolist(), tours[served].tolist()):
            if t in hit_tours:
                continue
            tour = solution.tour_customers(t)
            length = _kernels.integers(rng, 1, min(params.max_string_len, len(tour)) + 1)
            pos = tour.index(c)
            lo = max(0, min(pos - _kernels.integers(rng, 0, length), len(tour) - length))
            removed.extend(tour[lo : lo + length])
            hit_tours.add(t)
            # only a new string changes what stops the walk
            if len(hit_tours) >= params.max_strings or len(removed) >= target:
                return removed
    return removed


_SORT_KEYS = ("demand_desc", "depot_distance_desc", "random")


def sort_by_key(instance: Instance, ids, solution: Solution, rng, key: str) -> list[int]:
    """Stable sort of ids by the named key; ties fall back to ascending id."""
    if key == "random":
        out = list(ids) if plain_ints(ids) else [int(c) for c in ids]
        rng.shuffle(out)
        return out
    arr = int64_array(ids)
    if arr is None:
        arr = np.array([int(c) for c in ids], dtype=np.int64)
    if key == "demand_desc":
        values = instance.demand
    elif key == "depot_distance_desc":
        values = instance.dist[0]
    else:
        raise ConfigError(f"unknown sort key: {key!r}")
    return arr[np.lexsort((arr, -values[arr]))].tolist()


_REMOVE_BUILTINS: dict[str, Callable] = {
    "seed_random": seed_random_remove,
    "string": string_remove,
}

_ORDER_BUILTINS: dict[str, Callable] = {
    "random": seed_random_order,
    "demand_desc": lambda inst, ids, sol, rng: sort_by_key(inst, ids, sol, rng, "demand_desc"),
    "depot_distance_desc": lambda inst, ids, sol, rng: sort_by_key(
        inst, ids, sol, rng, "depot_distance_desc"
    ),
}


def remove_labels() -> list[str]:
    return sorted(_REMOVE_BUILTINS)


def order_labels() -> list[str]:
    return sorted(_ORDER_BUILTINS)


def builtin_pair(remove_label: str = "seed_random", order_label: str = "random") -> OperatorPair:
    """Resolve removal/ordering labels to a builtin operator pair."""
    try:
        remove = _REMOVE_BUILTINS[remove_label]
    except KeyError:
        raise ConfigError(
            f"unknown removal operator {remove_label!r}; available: {remove_labels()}"
        ) from None
    try:
        order = _ORDER_BUILTINS[order_label]
    except KeyError:
        raise ConfigError(
            f"unknown ordering operator {order_label!r}; available: {order_labels()}"
        ) from None
    return OperatorPair(remove=remove, order=order, label=f"{remove_label}/{order_label}")
