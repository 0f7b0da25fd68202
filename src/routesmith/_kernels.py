"""Hot loops over the array-backed solution state.

All functions operate on the raw arrays owned by ``model.Solution``:
``nodes`` (padded 2D customer ids per tour row), ``lens``, ``tdem``,
``tcost``, the VRPTW timing rows ``estart``/``lstart``, the customer-to-tour
index and the unassigned mask. Problem codes: 0 = CVRP, 1 = VRPTW,
2 = PCVRP.

Two backends run the detach (``remove_ids``) and greedy reinsertion
(``greedy_insert``) kernels. The C backend is ``_kernels.c``, compiled by
the system C compiler without contraction or fast-math into a per-user
cache (``$XDG_CACHE_HOME`` or ``~/.cache``, under ``routesmith/``) and
loaded with ``ctypes``. Its detach kernel ports ``remove_ids_scalar`` with
the same float expressions in the same order. Its reinsertion kernel makes
the decisions of ``greedy_insert_scalar``, pricing each slot it scans with
the same expressions, but prunes the scan: it skips a PCVRP tour that a
bound from ``coords`` shows cannot win, and stops a VRPTW tour's scan at
the first late arrival. ``greedy_insert_scalar`` stays the unpruned
reference. Both kernels refuse an order that is not a permutation of the
unassigned set (``is_order``, no sort): they write nothing and return a
tour count of -1. The library also draws ``numpy.random.Generator.integers``
for spans below 2**32 (``integers``), and runs the two built-in removal
operators, string removal and uniform removal, as one call each
(``removal``, dispatched from ``operators``). All three draw with one
helper, numpy's Lemire rule on the generator's own bits, so they return
numpy's numbers and leave the generator where numpy leaves it.
``load_compiled`` selects the C backend when the library loads, agrees bit
for bit with the Python kernels on a detach and reinsertion per variant,
returns the ids of the Python removal operators and leaves their generator
state (``_removals``), and draws numpy's numbers on ranges that reject
often (``_DRAW_CHECKS``); any mismatch selects the interpreted backend,
where the scalar Python kernels and operators run and numpy draws.
``BACKEND`` and ``BACKEND_REASON`` say which one runs and why. C trusts
its arguments, so the wrappers check every array's dtype, contiguity and
shape, and that the arrays C writes are writable, before C sees it. Each
kernel and removal operator takes one argument block (``_Args``), passed
by address, which also holds the kernels' scratch memory and a removal's
output buffer. The block belongs to the solution whose arrays it
addresses (``Solution._block``): callers pass the solution, and a call
passing the same array objects as the block's, still writable where
written, sets only the tour count, the ids, k, the commits and the codes
in it; any other call checks every array (``_block_for``).

Each piece of the greedy insertion rule has one Python home here, used by
``greedy_insert_scalar`` and by ``model.insertion_delta``/
``insert_customer``: the price of insertion slots (``cheapest_slot``, which
also prices a new tour as an empty one) and the commit (``commit``, which
retimes VRPTW rows with ``retime``). ``_kernels.c`` is the only other copy.
"""

from __future__ import annotations

import collections
import ctypes
import functools
import hashlib
import os
import shutil
import tempfile
from pathlib import Path

import numpy as np

from .errors import InputError

CVRP = 0
VRPTW = 1
PCVRP = 2


def retime(nodes, lens, estart, lstart, t, dist, service, tws, twe):
    """Recompute the VRPTW timing rows of tour row t.

    ``estart`` gets the earliest service starts (waiting allowed),
    ``lstart`` the latest feasible ones. The return leg to the depot is
    unconstrained, so the last customer's latest start is its window end.
    """
    L = lens[t]
    depart = 0.0
    prev = 0
    for k in range(L):
        c = nodes[t, k]
        arrive = depart + dist[prev, c]
        start = arrive if arrive > tws[c] else tws[c]
        estart[t, k] = start
        depart = start + service[c]
        prev = c
    nxt_latest = np.inf
    nxt = 0
    for k in range(L - 1, -1, -1):
        c = nodes[t, k]
        if k == L - 1:
            latest = twe[c]
        else:
            bound = nxt_latest - service[c] - dist[c, nxt]
            latest = twe[c] if twe[c] < bound else bound
        lstart[t, k] = latest
        nxt_latest = latest
        nxt = c


def row_cost(nodes, length, t, dist):
    if length == 0:
        return 0.0
    total = 0.0
    prev = 0
    for k in range(length):
        c = nodes[t, k]
        total += dist[prev, c]
        prev = c
    total += dist[prev, 0]
    return total


def remove_ids_scalar(
    nodes,
    lens,
    tdem,
    tcost,
    estart,
    lstart,
    tour_of,
    unassigned,
    n_tours,
    ids,
    dist,
    demand,
    service,
    tws,
    twe,
    has_tw,
    solution=None,
):
    """Detach customers from their tours; empty tours are swap-deleted.

    Returns (new tour count, travel-cost delta). An id that is unassigned
    at its turn (a repeat included) is skipped. The caller adds the
    detached customers' prizes to the prize penalty. ``solution`` is not
    read (only the C backend keeps a block on it), so this kernel can stand
    in for ``remove_ids``.
    """
    cost_delta = 0.0
    nt = n_tours
    for i in range(ids.shape[0]):
        c = ids[i]
        t = tour_of[c]
        if t < 0:
            continue
        L = lens[t]
        p = -1
        for k in range(L):
            if nodes[t, k] == c:
                p = k
                break
        if p < 0:
            continue
        prev = nodes[t, p - 1] if p > 0 else 0
        nxt = nodes[t, p + 1] if p < L - 1 else 0
        delta = dist[prev, nxt] - dist[prev, c] - dist[c, nxt]
        tcost[t] += delta
        cost_delta += delta
        for k in range(p, L - 1):
            nodes[t, k] = nodes[t, k + 1]
        lens[t] = L - 1
        tdem[t] -= demand[c]
        tour_of[c] = -1
        unassigned[c] = True
        if lens[t] == 0:
            last = nt - 1
            if t != last:
                Ll = lens[last]
                for k in range(Ll):
                    moved = nodes[last, k]
                    nodes[t, k] = moved
                    tour_of[moved] = t
                lens[t] = Ll
                tdem[t] = tdem[last]
                tcost[t] = tcost[last]
                if has_tw:
                    for k in range(Ll):
                        estart[t, k] = estart[last, k]
                        lstart[t, k] = lstart[last, k]
            lens[last] = 0
            tdem[last] = 0
            tcost[last] = 0.0
            nt = last
        elif has_tw:
            retime(nodes, lens, estart, lstart, t, dist, service, tws, twe)
    return nt, cost_delta


def commit(nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned, n_tours,
           c, t, p, raw, dist, demand, service, tws, twe, has_tw):
    """Splice unassigned customer c into tour row t at position p.

    ``t == n_tours`` opens a new tour (p is then 0). ``raw`` is the
    travel-cost delta of the insertion, which an existing tour's cost
    absorbs; a new tour's cost is its two depot legs. Returns the new tour
    count.
    """
    nt = n_tours
    if t == nt:
        nodes[t, 0] = c
        lens[t] = 1
        tdem[t] = demand[c]
        tcost[t] = dist[0, c] + dist[c, 0]
        nt += 1
    else:
        L = lens[t]
        nodes[t, p + 1 : L + 1] = nodes[t, p:L]
        nodes[t, p] = c
        lens[t] = L + 1
        tdem[t] += demand[c]
        tcost[t] += raw
    tour_of[c] = t
    unassigned[c] = False
    if has_tw:
        retime(nodes, lens, estart, lstart, t, dist, service, tws, twe)
    return nt


def cheapest_slot(nodes, estart, lstart, t, L, load, lo, hi, c, dc, prz, dist, capacity,
                  service, tws, twe, has_tw):
    """(delta, position) of the cheapest feasible insertion of customer c,
    of demand ``dc`` and prize ``prz``, at positions lo..hi of tour row t,
    which holds L customers of total demand ``load``; (inf, -1) when no
    such slot is feasible.

    This is the greedy insertion rule's price of a slot, written once for
    ``greedy_insert_scalar`` and ``model.insertion_delta``. A tour over
    capacity or at the width bound takes no customer. On VRPTW the
    customer must start by its window end and, unless the next stop is
    the depot, early enough for the next customer's latest start. The
    delta is ``dist[prev, c] + dist[c, next] - dist[prev, next] - prz``.
    Positions run ascending and only a strictly smaller delta wins, so
    ties go to the first. An empty tour (L = 0, load 0) prices a new one.
    """
    best = np.inf
    best_p = -1
    if load + dc > capacity or L >= nodes.shape[1]:
        return best, best_p
    prevnode = nodes[t, lo - 1] if lo > 0 else 0
    if has_tw:
        depart_prev = estart[t, lo - 1] + service[prevnode] if lo > 0 else 0.0
        for p in range(lo, hi + 1):
            nxt = nodes[t, p] if p < L else 0
            arrive = depart_prev + dist[prevnode, c]
            start = arrive if arrive > tws[c] else tws[c]
            ok = start <= twe[c]
            if ok and p < L:
                if start + service[c] + dist[c, nxt] > lstart[t, p]:
                    ok = False
            if ok:
                cand = dist[prevnode, c] + dist[c, nxt] - dist[prevnode, nxt] - prz
                if cand < best:
                    best = cand
                    best_p = p
            if p < L:
                depart_prev = estart[t, p] + service[nxt]
                prevnode = nxt
    else:
        for p in range(lo, hi + 1):
            nxt = nodes[t, p] if p < L else 0
            cand = dist[prevnode, c] + dist[c, nxt] - dist[prevnode, nxt] - prz
            if cand < best:
                best = cand
                best_p = p
            prevnode = nxt
    return best, best_p


def greedy_insert_scalar(
    nodes,
    lens,
    tdem,
    tcost,
    estart,
    lstart,
    tour_of,
    unassigned,
    n_tours,
    order,
    dist,
    demand,
    capacity,
    service,
    tws,
    twe,
    prize,
    problem,
    commits,
    coords,
    solution=None,
):
    """Insert customers one by one at their cheapest feasible position.

    ``order`` must list every unassigned customer exactly once; any other
    order is refused: nothing is written and the tour count returned is -1.
    Scan order is fixed: existing tours ascending, positions ascending,
    then the open-new-tour option; only a strictly smaller delta wins, so
    ties resolve to the lexicographically first (tour, position). Each
    tour, and the new one, is priced by ``cheapest_slot``. For PCVRP a
    customer is committed only when its prize-adjusted delta is strictly
    negative. ``commits[i]`` receives the chosen (tour, position) or
    (-1, -1).

    This loop prices every slot: it is the reference that the compiled
    kernel's pruned scan is checked against. ``coords`` (the instance's
    coordinates, of which ``dist`` is the Euclidean distance matrix) is
    read only by that pruning. ``solution`` is not read, as in
    ``remove_ids_scalar``.

    Returns (new tour count, travel-cost delta, recouped prize total).
    """
    if not is_order(order, unassigned):
        return -1, 0.0, 0.0
    nt = n_tours
    cost_delta = 0.0
    prize_delta = 0.0
    has_tw = problem == 1
    pcvrp = problem == 2
    for oi in range(order.shape[0]):
        c = order[oi]
        commits[oi, 0] = -1
        commits[oi, 1] = -1
        if not unassigned[c]:
            continue
        dc = demand[c]
        prz = prize[c]
        best = np.inf
        best_t = -1
        best_p = -1
        for t in range(nt):
            L = lens[t]
            cand, p = cheapest_slot(nodes, estart, lstart, t, L, tdem[t], 0, L, c, dc, prz,
                                    dist, capacity, service, tws, twe, has_tw)
            if cand < best:
                best = cand
                best_t = t
                best_p = p
        if nt < nodes.shape[0]:
            cand, p = cheapest_slot(nodes, estart, lstart, nt, 0, 0, 0, 0, c, dc, prz,
                                    dist, capacity, service, tws, twe, has_tw)
            if cand < best:
                best = cand
                best_t = nt
                best_p = p
        if best_t < 0:
            continue
        if pcvrp and best >= 0.0:
            continue
        raw = best + prz
        nt = commit(nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned, nt,
                    c, best_t, best_p, raw, dist, demand, service, tws, twe, has_tw)
        cost_delta += raw
        prize_delta += prz
        commits[oi, 0] = best_t
        commits[oi, 1] = best_p
    return nt, cost_delta, prize_delta


def is_order(order, unassigned):
    """Whether the int64 ``order`` lists every index set in ``unassigned``
    exactly once (no sort)."""
    m = unassigned.shape[0]
    if order.size and not (0 <= order.min() and order.max() < m):
        return False
    return bool((np.bincount(order, minlength=m) == unassigned).all())


def greedy_insert(nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned,
                  n_tours, order, dist, demand, capacity, service, tws, twe,
                  prize, problem, commits, coords, solution=None):
    """``greedy_insert_scalar`` on the selected backend (same contract).

    On the C backend it is the compiled kernel, which makes the same
    decisions with a pruned scan; interpreted, it is the scalar loop
    itself. Both agree bit for bit. ``solution``, the ``model.Solution``
    whose arrays these are, lets the C backend reuse the argument block it
    keeps (``_block_for``).
    """
    if _compiled is not None:
        return _greedy_insert_c(_compiled.greedy_insert, nodes, lens, tdem, tcost, estart, lstart,
                                tour_of, unassigned, n_tours, order, dist, demand, capacity,
                                service, tws, twe, prize, problem, commits, coords, solution)
    return greedy_insert_scalar(nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned,
                                n_tours, order, dist, demand, capacity, service, tws, twe,
                                prize, problem, commits, coords)


def remove_ids(nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned, n_tours,
               ids, dist, demand, service, tws, twe, has_tw, solution=None):
    """``remove_ids_scalar`` on the selected backend (same contract);
    ``solution`` as for ``greedy_insert``."""
    if _compiled is not None:
        return _remove_ids_c(_compiled.remove_ids, nodes, lens, tdem, tcost, estart, lstart,
                             tour_of, unassigned, n_tours, ids, dist, demand, service,
                             tws, twe, has_tw, solution)
    return remove_ids_scalar(nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned,
                             n_tours, ids, dist, demand, service, tws, twe, has_tw)


def integers(rng, lo, hi):
    """``int(rng.integers(lo, hi))``: the same value, and the same state of
    ``rng`` after.

    On the C backend the draw is compiled when ``rng`` is a
    ``numpy.random.Generator`` and ``lo`` and ``hi`` are ints with
    ``lo < hi <= lo + 2**32 - 1`` inside int64; anything else goes to numpy,
    with numpy's exceptions. The compiled draw holds the bit generator's
    lock, as numpy's does.
    """
    if (type(lo) is int and type(hi) is int and 0 < hi - lo <= 0xFFFFFFFF
            and _INT64_MIN <= lo and hi <= _INT64_END and _compiled is not None
            and type(rng) is np.random.Generator):
        bits = rng.bit_generator
        with bits.lock:
            return _compiled.integers(bits.ctypes.bit_generator, lo, hi - lo)
    return int(rng.integers(lo, hi))


# -- the C backend ------------------------------------------------------------

# numba is no longer used; perfbench's environment stamp still reads this flag.
HAVE_NUMBA = False

COMPILER = "cc"
CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")
_SOURCE = Path(__file__).with_name("_kernels.c")

# "c" or "interpreted", and why; set by ``load_compiled``.
BACKEND = "interpreted"
BACKEND_REASON = "compiled kernels not loaded (lns.warm_kernels was not called)"
# the functions of the C library while the C backend is selected, else None
_Library = collections.namedtuple(
    "_Library", "greedy_insert remove_ids string_remove uniform_remove integers")
_compiled = None

_INT64_MIN = -(1 << 63)
_INT64_END = 1 << 63  # one past the largest int64

_I32 = np.dtype(np.int32)
_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)
_BOOL = np.dtype(np.bool_)


def _address(name, a, dtype, shape, writes):
    """Address of the data of ``a``, which C reads (and, if ``writes``,
    writes) as a C-contiguous ``dtype`` array of ``shape`` (None: any
    shape); anything else raises instead of reaching C."""
    if not (isinstance(a, np.ndarray) and a.dtype == dtype and a.flags.c_contiguous
            and (shape is None or a.shape == shape)):
        got = f"{a.dtype} {a.shape}" if isinstance(a, np.ndarray) else type(a).__name__
        raise InputError(f"{name}: need a C-contiguous {dtype} array of shape {shape}, got {got}")
    if a.flags.writeable:
        # borrowing the buffer costs a quarter of ``a.ctypes.data``
        return ctypes.addressof(ctypes.c_char.from_buffer(a)) if a.size else None
    if writes:
        raise InputError(f"{name}: the array is read-only")
    return a.ctypes.data


# (name, dtype) of the arrays a block addresses: a solution's eight state
# arrays, which C writes, then an instance's arrays, which it only reads
_ARRAYS = (("nodes", _I32), ("lens", _I32), ("tdem", _I64), ("tcost", _F64),
           ("estart", _F64), ("lstart", _F64), ("tour_of", _I32), ("unassigned", _BOOL),
           ("dist", _F64), ("demand", _I64), ("service", _F64), ("tws", _F64), ("twe", _F64),
           ("prize", _F64), ("coords", _F64), ("adjacency", _I32))


class _Args(ctypes.Structure):
    """``rs_args`` of ``_kernels.c``: the argument block of a solution's calls,
    passed to C by its ``address``."""

    _fields_ = [(name, ctypes.c_void_p) for name, _ in _ARRAYS] + [
        (name, ctypes.c_int64) for name in (
            "rows", "width", "m", "capacity", "problem", "has_tw", "n_tours")] + [
        ("ids", ctypes.c_void_p), ("k", ctypes.c_int64), ("commits", ctypes.c_void_p),
        ("cost", ctypes.c_double), ("recouped", ctypes.c_double), ("scratch", ctypes.c_void_p)]


def _block_for(solution, has_tw, n_tours, name, ids, nodes, lens, tdem, tcost, estart, lstart,
               tour_of, unassigned, dist, demand, service, tws, twe, prize=None, coords=None,
               adjacency=None):
    """The argument block of a solution's eight state arrays and an
    instance's arrays (``prize`` and ``coords`` are None on detach,
    ``adjacency`` on detach and reinsertion), with the tour count and the
    int64 ``ids`` (called ``name``) set. ``ids`` None is a removal
    operator's call, which only reads the arrays and writes into the
    block's own buffer ``out`` of m ids.

    ``solution._block`` is reused when it holds these very arrays, with
    full-size timing rows where VRPTW reads them and, on a call that
    writes, writable state arrays. Otherwise every array is checked into a
    new block, raising on anything C cannot read or write, and
    ``solution`` keeps it when none of the arrays owns its data: numpy
    cannot resize such an array and C never reads a view's current shape,
    so the addresses hold while the block holds the arrays. The block does
    not refer to the solution, so it dies with it.
    """
    writes = ids is not None
    blk = None if solution is None else solution._block
    if blk is not None:
        # named arrays in one ``is`` chain: a tuple compared with
        # ``all(map(operator.is_, ...))`` makes this step a fifth slower
        held = blk.arrays
        if not (held[0] is nodes and held[1] is lens and held[2] is tdem and held[3] is tcost
                and held[4] is estart and held[5] is lstart and held[6] is tour_of
                and held[7] is unassigned and held[8] is dist and held[9] is demand
                and held[10] is service and held[11] is tws and held[12] is twe
                and (prize is None or held[13] is prize)
                and (coords is None or held[14] is coords)
                and (adjacency is None or held[15] is adjacency)
                and (blk.full_timing or not has_tw)
                and (not writes or nodes.flags.writeable and lens.flags.writeable
                     and tdem.flags.writeable and tcost.flags.writeable
                     and estart.flags.writeable and lstart.flags.writeable
                     and tour_of.flags.writeable and unassigned.flags.writeable)):
            blk = None
    if blk is None:
        if not isinstance(nodes, np.ndarray) or nodes.ndim != 2:
            raise InputError("nodes: need a 2-D array")
        if not isinstance(dist, np.ndarray) or dist.ndim != 2:
            raise InputError("dist: need a 2-D array")
        rows, width = nodes.shape
        m = dist.shape[0]
        times = (rows, width) if has_tw else None  # the timing rows are used only on VRPTW
        shapes = ((rows, width), (rows,), (rows,), (rows,), times, times, (m,), (m,),
                  (m, m), (m,), (m,), (m,), (m,), (m,), (m, 2), (m, m - 1))
        arrays = (nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned, dist, demand,
                  service, tws, twe, prize, coords, adjacency)
        blk = _Args(*(None if a is None else _address(what, a, dtype, shape, writes and i < 8)
                      for i, (a, (what, dtype), shape) in enumerate(zip(arrays, _ARRAYS, shapes))),
                    rows=rows, width=width, m=m)
        blk.arrays = arrays
        blk.full_timing = estart.shape == lstart.shape == (rows, width)
        # passing the address costs less than ctypes' conversion of the block
        blk.address = ctypes.addressof(blk)
        blk.out = np.empty(m, dtype=np.int64)
        blk.out_address = blk.out.ctypes.data
        # the kernels' own memory (rs_args.scratch), allocated once a block
        blk.memory = np.empty(40 * rows + 5 * m, dtype=np.uint8)
        blk.scratch = blk.memory.ctypes.data
        if solution is not None and all(a.base is not None for a in arrays if a is not None):
            solution._block = blk
    if not 0 <= n_tours <= blk.rows:
        raise InputError(f"n_tours out of range: {n_tours}")
    blk.n_tours = n_tours
    if writes:
        k = ids.shape[0]
        blk.ids = _address(name, ids, _I64, (k,), False)
        blk.k = k
    else:
        blk.ids = blk.out_address
        blk.k = blk.m
    return blk


def _greedy_insert_c(kernel, nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned,
                     n_tours, order, dist, demand, capacity, service, tws, twe, prize,
                     problem, commits, coords, solution=None):
    if problem not in (CVRP, VRPTW, PCVRP):
        raise InputError(f"unknown problem code: {problem}")
    blk = _block_for(solution, problem == VRPTW, n_tours, "order", order, nodes, lens, tdem,
                     tcost, estart, lstart, tour_of, unassigned, dist, demand, service, tws,
                     twe, prize, coords)
    blk.commits = _address("commits", commits, _I64, (blk.k, 2), True)
    blk.capacity = capacity
    blk.problem = problem
    return kernel(blk.address), blk.cost, blk.recouped


def _remove_ids_c(kernel, nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned,
                  n_tours, ids, dist, demand, service, tws, twe, has_tw, solution=None):
    blk = _block_for(solution, has_tw, n_tours, "ids", ids, nodes, lens, tdem, tcost, estart,
                     lstart, tour_of, unassigned, dist, demand, service, tws, twe)
    blk.has_tw = bool(has_tw)
    return kernel(blk.address), blk.cost


def removal(kernel, instance, solution, rng, *params):
    """Run the compiled removal operator ``kernel`` (``rs_string_remove`` or
    ``rs_uniform_remove``, with its ``params`` after the block and the bit
    generator) on ``solution`` and ``instance``'s arrays, drawing from
    ``rng``, a ``numpy.random.Generator``, under its bit generator's lock.
    Returns the removed ids as a list of int."""
    s, inst = solution, instance
    blk = _block_for(s, False, s.n_tours, "out", None, s._nodes, s._lens, s._tdem, s._tcost,
                     s._estart, s._lstart, s._tour_of, s._unassigned, inst.dist, inst.demand,
                     inst.service, inst.tw_start, inst.tw_end, inst.prize, inst.coords,
                     inst.adjacency)
    bits = rng.bit_generator
    with bits.lock:
        k = kernel(blk.address, bits.ctypes.bit_generator, *params)
    if k < 0:
        raise InputError("the solution's tour rows disagree with its customer-to-tour map")
    return blk.out[:k].tolist()


class _Unavailable(Exception):
    """Why the C backend cannot be used."""


def _cache_dirs():
    """The per-user cache directory for compiled kernels, then a private
    directory under the temp dir for when that one is not writable (found
    only when asked for: ``tempfile.gettempdir`` writes a probe file)."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    yield Path(base) / "routesmith"
    yield Path(tempfile.gettempdir()) / f"routesmith-{os.getuid()}"


def _private(directory):
    """Refuse a cache directory that another user could write into."""
    st = os.stat(directory)
    if st.st_uid != os.getuid() or st.st_mode & 0o022:
        raise _Unavailable(f"{directory} is writable by other users")


def _library_key():
    """(compiler path, key): the key digests the source, the flags, the
    compiler path and its size and mtime, so a change to any of them
    builds a new library."""
    cc = shutil.which(COMPILER)
    if cc is None:
        raise _Unavailable(f"no C compiler: {COMPILER!r} not found")
    try:
        st = os.stat(cc)
        key = hashlib.sha256(_SOURCE.read_bytes())
    except OSError as exc:
        raise _Unavailable(f"cannot read the compiler or the kernel source: {exc}") from None
    key.update(repr((CFLAGS, cc, st.st_size, st.st_mtime_ns)).encode())
    return cc, key.hexdigest()[:20]


def _cached(key):
    """Cached libraries for ``key`` whose bytes match the digest in their
    name, in cache order. A truncated library can crash the process that
    loads it, so a file that fails the check is never loaded."""
    for directory in _cache_dirs():
        prefix = f"_kernels-{key}-"
        try:
            names = sorted(f for f in os.listdir(directory)
                           if f.startswith(prefix) and f.endswith(".so"))
            if names:
                _private(directory)
        except (OSError, _Unavailable):
            continue
        for name in names:
            path = directory / name
            try:
                data = path.read_bytes()
            except OSError:
                continue
            if hashlib.sha256(data).hexdigest()[:16] == name[len(prefix):-3]:
                yield path


def _build(cc, key):
    """Compile the source into the first usable cache directory and
    publish it under a name that carries the digest of its bytes."""
    import subprocess  # only here: loading a cached library spawns nothing

    for directory in _cache_dirs():
        try:
            directory.mkdir(mode=0o700, parents=True, exist_ok=True)
            _private(directory)
            break
        except (OSError, _Unavailable):
            continue
    else:
        raise _Unavailable("no writable cache directory for the compiled kernels")
    # concurrent builds each write their own file; os.replace publishes atomically
    tmp = directory / f"_kernels-{key}.{os.getpid()}.tmp"
    try:
        done = subprocess.run([cc, *CFLAGS, "-o", str(tmp), str(_SOURCE)],
                              capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            raise _Unavailable(f"{cc} exited with {done.returncode}: {done.stderr.strip()[-500:]}")
        path = directory / f"_kernels-{key}-{hashlib.sha256(tmp.read_bytes()).hexdigest()[:16]}.so"
        os.replace(tmp, path)
    except (OSError, subprocess.SubprocessError) as exc:
        raise _Unavailable(f"cannot build the compiled kernels: {exc}") from None
    finally:
        tmp.unlink(missing_ok=True)
    return path


def _open(path, cases):
    """The functions of the library at ``path`` (a ``_Library``), once its
    kernels agree with the Python kernels on every case, its operators with
    the Python operators and its draw with numpy."""
    try:
        lib = ctypes.CDLL(str(path))
        # called with the GIL held: a draw or a removal is short, and it
        # runs under the bit generator's lock
        pylib = ctypes.PyDLL(str(path))
        funcs = _Library(lib.rs_greedy_insert, lib.rs_remove_ids, pylib.rs_string_remove,
                         pylib.rs_uniform_remove, pylib.rs_integers)
    except (OSError, AttributeError) as exc:
        raise _Unavailable(f"cannot load {path}: {exc}") from None
    # each kernel takes the address of a block, then a removal operator the
    # bit generator and its parameters; the draw takes the bit generator
    for func, argtypes in zip(funcs, (
            [ctypes.c_void_p], [ctypes.c_void_p],
            [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint32, ctypes.c_int64,
             ctypes.c_int64],
            [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint32],
            [ctypes.c_void_p, ctypes.c_int64, ctypes.c_uint32])):
        func.argtypes = argtypes
        func.restype = ctypes.c_int64
    for sol, ids in cases:
        if _detach_and_reinsert(funcs, sol, ids) != _detach_and_reinsert(None, sol, ids):
            raise _Unavailable(f"{path} disagrees with the Python kernels")
    if _removals(funcs, cases) != _removals(None, cases):
        raise _Unavailable(f"{path} removes other ids than the Python operators")
    if _draws(funcs.integers) != _draws(None):
        raise _Unavailable(f"{path} draws other numbers than numpy")
    return funcs


_STATE = ("_nodes", "_lens", "_tdem", "_tcost", "_estart", "_lstart", "_tour_of", "_unassigned")


def _detach_and_reinsert(funcs, sol, ids):
    """Every array and value written by detaching ``ids`` from a copy of
    solution ``sol``'s arrays and reinserting them ascending, as bytes; the
    kernels of ``funcs`` (a ``_Library``) when it is given, the Python ones
    otherwise."""
    remove, insert = remove_ids_scalar, greedy_insert_scalar
    if funcs is not None:
        insert = functools.partial(_greedy_insert_c, funcs.greedy_insert)
        remove = functools.partial(_remove_ids_c, funcs.remove_ids)
    arrays = [getattr(sol, name).copy() for name in _STATE]
    inst = sol.instance
    problem = inst.problem.code
    ids = np.asarray(ids, dtype=np.int64)
    commits = np.empty((ids.size, 2), dtype=np.int64)
    nt, cost = remove(*arrays, sol.n_tours, ids, inst.dist, inst.demand, inst.service,
                      inst.tw_start, inst.tw_end, problem == VRPTW)
    out = insert(*arrays, nt, np.sort(ids), inst.dist, inst.demand, inst.capacity,
                 inst.service, inst.tw_start, inst.tw_end, inst.prize, problem, commits,
                 inst.coords)
    values = (nt, cost, *out)
    return [a.tobytes() for a in (*arrays, commits)] + [np.float64(v).tobytes() for v in values]


# the load-time check's removals from each case's solution, drawn from a
# generator seeded with _REMOVAL_SEED: string removal with the case's
# (max_string_len, avg_removed, max_strings) below (a walk through every
# node, one that ends on its removal target, one that ends on its string
# count), then uniform removal, which meets an index drawn twice. With this
# seed a walk whose first two draws trade places also returns other ids.
_REMOVAL_SEED = 12
_WALK_CHECKS = ((10, 10, 4), (3, 1, 4), (2, 10, 1))


def _removals(funcs, cases):
    """The ids of the check's removals from each case's solution and the
    generator's state after: by the compiled operators of ``funcs`` when it
    is given, by the Python operators otherwise."""
    from . import operators  # it imports this module, so only once both are loaded

    out = []
    for i, (sol, _) in enumerate(cases):
        inst = sol.instance
        rng = np.random.Generator(np.random.PCG64(_REMOVAL_SEED))
        params = operators.StringRemovalParams(*_WALK_CHECKS[i % len(_WALK_CHECKS)])
        out.append(removal(funcs.string_remove, inst, sol, rng, *operators._walk_args(params))
                   if funcs else operators._string_walk(inst, sol, rng, params))
        out.append(removal(funcs.uniform_remove, inst, sol, rng, *operators._UNIFORM_ARGS)
                   if funcs else operators._uniform_pick(inst, sol, rng))
        out.append(rng.bit_generator.state)
    return out


# (lo, hi) of the draws the load-time check compares with numpy: one value,
# small ranges, ranges where about half of the 32-bit draws are rejected
# (2**31 + 1 and 3 * 2**30 values), the widest compiled range and the ends
# of int64
_DRAW_CHECKS = ((3, 4), (0, 5), (10, 21), (1, (1 << 31) + 2), (0, 3 << 30),
                (-7, 0xFFFFFFFF - 7), (-(1 << 63), 5 - (1 << 63)), ((1 << 63) - 9, 1 << 63))


def _draws(draw):
    """Each range of ``_DRAW_CHECKS`` drawn 64 times from a fixed generator,
    with a ``random`` after each range, and the generator's state after:
    ranges drawn by ``draw`` (rs_integers) when it is given, by numpy
    otherwise."""
    rng = np.random.Generator(np.random.PCG64(20240601))
    bits = rng.bit_generator.ctypes.bit_generator
    out = []
    for lo, hi in _DRAW_CHECKS:
        for _ in range(64):
            out.append(draw(bits, lo, hi - lo) if draw else int(rng.integers(lo, hi)))
        out.append(rng.random())
    return out, rng.bit_generator.state


def load_compiled(build, cases):
    """Select the backend and record it in ``BACKEND``/``BACKEND_REASON``.

    The C backend is the library built from ``_kernels.c`` for this
    source, compiler and flags, kept in the per-user cache. It is used
    when it loads, when on each of ``cases`` ((``model.Solution``, ids to
    detach) pairs) it detaches the ids and reinserts them with exactly the
    bits of the Python kernels, when its removal operators return the ids
    of the Python operators and leave their generators in the same state
    (``_removals``), and when its draws equal numpy's on ``_DRAW_CHECKS``.
    With ``build`` a missing or unusable library is compiled first;
    without it (evaluation children, which run under a memory limit)
    nothing is ever compiled. Otherwise the interpreted kernels run.
    """
    global BACKEND, BACKEND_REASON, _compiled
    try:
        cc, key = _library_key()
        why = "no compiled kernels in the cache"
        for path in _cached(key):
            try:
                _compiled = _open(path, cases)
                BACKEND, BACKEND_REASON = "c", f"loaded {path}"
                return
            except _Unavailable as exc:
                why = str(exc)
        if not build:
            raise _Unavailable(f"{why}; this process does not compile")
        path = _build(cc, key)
        _compiled = _open(path, cases)
        BACKEND, BACKEND_REASON = "c", f"built {path}"
    except _Unavailable as exc:
        _compiled = None
        BACKEND, BACKEND_REASON = "interpreted", str(exc)
