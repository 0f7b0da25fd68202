"""Hot loops over the array-backed solution state.

All functions operate on the raw arrays owned by ``model.Solution``:
``nodes`` (padded 2D customer ids per tour row), ``lens``, ``tdem``,
``tcost``, the VRPTW timing rows ``estart``/``lstart``, the customer-to-tour
index and the unassigned mask. Problem codes: 0 = CVRP, 1 = VRPTW,
2 = PCVRP.

Two backends run the detach (``remove_ids``) and greedy reinsertion
(``greedy_insert``) kernels. The C backend is ``_kernels.c``, a port of
``remove_ids_scalar`` and ``greedy_insert_scalar`` with the same float
expressions in the same order, compiled by the system C compiler without
contraction or fast-math into a per-user cache (``$XDG_CACHE_HOME`` or
``~/.cache``, under ``routesmith/``) and loaded with ``ctypes``;
``load_compiled`` selects it when it loads and agrees bit for bit with the
Python kernels. Otherwise the interpreted backend runs the Python kernels.
``BACKEND`` and ``BACKEND_REASON`` say which one runs and why.

Each piece of the greedy insertion rule has one home here, used by both
interpreted reinsertion paths and by ``model.insertion_delta``/
``insert_customer``: the slot delta (``_slot_table`` lists the insertion
slots of tours, ``_slot_deltas`` prices customers at them and
``_new_tour_costs`` prices a new tour; the scalar kernel evaluates the
same float expressions in the same order) and the commit (``commit``,
which retimes VRPTW rows with ``retime``). The two interpreted paths,
``greedy_insert_scalar`` and ``greedy_insert_numpy``, which scans one slot
table per call and splices it in place at each commit, make bit-identical
decisions; ``greedy_insert`` picks the C kernel or one of them.
"""

from __future__ import annotations

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
):
    """Detach customers from their tours; empty tours are swap-deleted.

    Returns (new tour count, travel-cost delta); the caller adds the
    detached customers' prizes to the prize penalty, so ``ids`` must be
    deduplicated and currently assigned.
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
):
    """Insert customers one by one at their cheapest feasible position.

    Scan order is fixed: existing tours ascending, positions ascending,
    then the open-new-tour option; only a strictly smaller delta wins, so
    ties resolve to the lexicographically first (tour, position). For
    PCVRP a customer is committed only when its prize-adjusted delta is
    strictly negative. ``commits[i]`` receives the chosen (tour, position)
    or (-1, -1).

    Returns (new tour count, travel-cost delta, recouped prize total).
    """
    nt = n_tours
    cost_delta = 0.0
    prize_delta = 0.0
    width = nodes.shape[1]
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
            if tdem[t] + dc > capacity or lens[t] >= width:
                continue
            L = lens[t]
            if has_tw:
                depart_prev = 0.0
                prevnode = 0
                for p in range(L + 1):
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
                            best_t = t
                            best_p = p
                    if p < L:
                        depart_prev = estart[t, p] + service[nxt]
                        prevnode = nxt
            else:
                prevnode = 0
                for p in range(L + 1):
                    nxt = nodes[t, p] if p < L else 0
                    cand = dist[prevnode, c] + dist[c, nxt] - dist[prevnode, nxt] - prz
                    if cand < best:
                        best = cand
                        best_t = t
                        best_p = p
                    prevnode = nxt
        new_ok = nt < nodes.shape[0]
        if new_ok and has_tw:
            arrive = dist[0, c]
            start = arrive if arrive > tws[c] else tws[c]
            new_ok = start <= twe[c]
        if new_ok:
            cand = dist[0, c] + dist[c, 0] - dist[0, 0] - prz
            if cand < best:
                best = cand
                best_t = nt
                best_p = 0
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


# Elements of one (customers, slots) temporary in the PCVRP block scan;
# customers go in blocks so that peak memory stays flat.
_BUILD_CHUNK = 1 << 14

# On the interpreted backend, greedy_insert sends a batch to the numpy
# path when its work, customers offered x insertion options (assigned
# customers + tours + 1), reaches the bound for its problem code; smaller
# batches go to the scalar loop, whose lower per-call overhead wins there.
# PCVRP batches mostly skip customers, which the numpy path passes over in
# one step, so it wins at every size. Set from timing both paths on LNS
# repair batches; lower CVRP and VRPTW bounds that time better there gave
# discover-n50 no measurable gain (CHANGES.md).
NUMPY_MIN_WORK = (1024, 400, 0)  # CVRP, VRPTW, PCVRP


def _slot_table(nodes, lens, tdem, estart, lstart, lo, hi, spare, dist, service,
                capacity, has_tw):
    """Insertion slots of tour rows lo..hi-1: (ints, flts, slot count).

    Columns run in (tour, position) order, the scalar scan's; position p
    lies between a tour's node p-1 and node p, the depot closing both
    ends. Integer rows: prev node, tour row, and the tour's spare capacity
    (-1 at the width bound). A slot's next node is the prev node of the
    column after it, since consecutive tours meet at the depot and a
    closing column of node 0 follows the last slot. Float rows: the
    prev-next edge length and, for VRPTW, the departure from the prev node
    and the latest start at the next one (inf on the return leg). The
    ``spare`` columns left for splicing hold node 0, departure 0 and
    latest start inf, as a new tour's ends do.
    """
    L = lens[lo:hi]
    S = int(L.sum()) + hi - lo
    ints = np.zeros((3, S + 1 + spare), dtype=np.int64)
    flts = np.zeros((3 if has_tw else 1, S + 1 + spare))
    cust = nodes[lo:hi][np.arange(nodes.shape[1]) < L[:, None]]
    # the q-th customer listed is the prev node of column q + 1 + its tour's index
    at = np.arange(1, cust.size + 1) + np.arange(hi - lo).repeat(L)
    seq = ints[0]
    seq[at] = cust
    ints[1, :S] = np.arange(lo, hi).repeat(L + 1)
    ints[2, :S] = np.where(L < nodes.shape[1], capacity - tdem[lo:hi], -1).repeat(L + 1)
    flts[0, :S] = dist[seq[:S], seq[1 : S + 1]]
    if has_tw:
        filled = np.arange(estart.shape[1]) < L[:, None]
        flts[1, at] = estart[lo:hi][filled] + service[cust]
        flts[2] = np.inf
        flts[2, at - 1] = lstart[lo:hi][filled]
    return ints, flts, S


def _slot_deltas(dist, cs, ints, flts, S, dem, prz, tws, twe, svc):
    """Insertion deltas of customers ``cs`` at the first S slots of a table.

    ``cs`` is one customer, with demand, prize, window and service time as
    scalars, or an array, with those as (customers, 1) columns; ``prz``
    None subtracts no prize. Returns shape (S,) or (customers, S), inf
    where capacity, the width bound or a time window fails, each float
    expression evaluated as in ``greedy_insert_scalar``. ``model.Instance``
    builds ``dist`` exactly symmetric, so dist[prev, c] is read as
    dist[c, prev]: from the customer rows, or from the slot rows when the
    customers outnumber the slots.
    """
    seq = ints[0, : S + 1]
    if not isinstance(cs, np.ndarray):
        near = dist[cs].take(seq)
    elif cs.size <= S:
        near = dist.take(cs, axis=0).take(seq, axis=1)
    else:
        near = dist.take(seq, axis=0).take(cs, axis=1).T
    into = near[..., :-1]
    out = near[..., 1:]
    cand = into + out
    cand -= flts[0, :S]
    if prz is not None:
        cand -= prz
    bad = ints[2, :S] < dem
    if flts.shape[0] > 1:
        arrive = flts[1, :S] + into
        # the scalar's ``arrive if arrive > tws else tws`` up to the sign
        # of a zero, which no comparison below sees
        start = np.maximum(arrive, tws)
        late = start + svc
        late += out
        bad |= late > flts[2, :S]
        bad |= start > twe
    cand[bad] = np.inf
    return cand


def _new_tour_costs(cs, prz, tws, twe, dist, has_tw):
    """Delta of opening a new tour for each customer of ``cs`` (inf if late)."""
    cost = dist[0, cs] + dist[cs, 0] - dist[0, 0] - prz
    if has_tw:
        arrive = dist[0, cs]
        start = np.where(arrive > tws, arrive, tws)
        cost[start > twe] = np.inf
    return cost


def greedy_insert_numpy(nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned,
                        n_tours, order, dist, demand, capacity, service, tws, twe,
                        prize, problem, commits):
    """``greedy_insert_scalar`` over a flat slot table, in numpy.

    Same parameters, effects and return values, bit for bit. Each
    decision is one delta row over the ``_slot_table`` of the open tours;
    its row-major argmin keeps the first minimum in (tour, position)
    order, as the scalar scan does, and a new tour wins only on a strictly
    smaller delta. A commit splices the table in place (the split slot
    and the columns after it move up one, or a new tour appends two
    slots), then refreshes the tour's spare capacity and VRPTW times.
    CVRP and VRPTW scan one customer per step; PCVRP scans the remaining
    ones in blocks and jumps to the first whose best delta is negative.
    """
    nt = n_tours
    cost_delta = prize_delta = 0.0
    rows, width = nodes.shape
    has_tw = problem == 1
    pcvrp = problem == 2
    k = order.shape[0]
    commits[:] = -1
    # each commit adds at most two slots
    ints, flts, S = _slot_table(nodes, lens, tdem, estart, lstart, 0, nt, 2 * k, dist,
                                service, capacity, has_tw)
    seq, tid, slack = ints
    edge = flts[0]
    new_cost = _new_tour_costs(order, prize[order], tws[order], twe[order], dist, has_tw)
    dem_o = demand[order][:, None]
    prz_o = prize[order][:, None]

    i = 0
    while i < k:
        row = None
        if pcvrp:
            b = min(k, i + max(1, _BUILD_CHUNK // max(S, 1)))
            best_rows = new_cost[i:b] if nt < rows else np.full(b - i, np.inf)
            if S:
                block = _slot_deltas(dist, order[i:b], ints, flts, S, dem_o[i:b], prz_o[i:b],
                                     None, None, None)
                best_rows = np.minimum(block.min(axis=1), best_rows)
            hits = np.flatnonzero((best_rows < 0.0) & unassigned[order[i:b]])
            if hits.size == 0:
                i = b
                continue
            r = int(hits[0])
            i += r
            row = block[r] if S else None
        elif not unassigned[order[i]]:
            i += 1
            continue
        elif S:
            c = order.item(i)
            # subtracting a zero prize changes no bit
            row = _slot_deltas(dist, c, ints, flts, S, demand.item(c), prize.item(c) or None,
                               tws.item(c), twe.item(c), service.item(c))
        best, t = np.inf, -1
        if row is not None:
            j = int(row.argmin())
            if row.item(j) < best:
                best, t = row.item(j), tid.item(j)
        if nt < rows and new_cost.item(i) < best:
            best, t = new_cost.item(i), nt
        if t < 0:  # on PCVRP the scan above only stops where best < 0
            i += 1
            continue
        c = order.item(i)
        prz = prize[c]
        raw = best + prz
        if t == nt:  # two slots for the new tour, after the last one
            f0 = j = S
            tid[S : S + 2] = t
            S += 2
        else:  # slot j becomes slots j and j + 1
            f0 = int(tid[:S].searchsorted(t))
            ints[:, j + 1 : S + 1] = ints[:, j:S]
            flts[:, j + 1 : S + 1] = flts[:, j:S]
            S += 1
        p = j - f0
        seq[j + 1] = c
        edge[j] = dist[seq[j], c]
        edge[j + 1] = dist[c, seq[j + 2]]
        nt = commit(nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned, nt,
                    c, t, p, raw, dist, demand, service, tws, twe, has_tw)
        L = lens[t]
        slack[f0 : f0 + L + 1] = capacity - tdem[t] if L < width else -1
        if has_tw:
            flts[1, f0 + 1 : f0 + L + 1] = estart[t, :L] + service[nodes[t, :L]]
            flts[2, f0 : f0 + L] = lstart[t, :L]
        cost_delta += raw
        prize_delta += prz
        commits[i] = t, p
        i += 1
    return nt, cost_delta, prize_delta


def greedy_insert(nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned,
                  n_tours, order, dist, demand, capacity, service, tws, twe,
                  prize, problem, commits):
    """Greedy reinsertion on the fastest exact path of the selected backend.

    Same parameters and contract as ``greedy_insert_scalar``; every path
    agrees with it bit for bit, so the choice only affects speed. On the C
    backend it is the compiled kernel; interpreted, a batch goes to the
    numpy path when its work reaches ``NUMPY_MIN_WORK[problem]`` and to
    the scalar loop otherwise.
    """
    if _compiled is not None:
        return _greedy_insert_c(_compiled[0], nodes, lens, tdem, tcost, estart, lstart,
                                tour_of, unassigned, n_tours, order, dist, demand, capacity,
                                service, tws, twe, prize, problem, commits)
    kernel = greedy_insert_scalar
    work = order.shape[0] * (int(lens[:n_tours].sum()) + n_tours + 1)
    if work >= NUMPY_MIN_WORK[problem]:
        kernel = greedy_insert_numpy
    return kernel(nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned,
                  n_tours, order, dist, demand, capacity, service, tws, twe,
                  prize, problem, commits)


def remove_ids(nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned, n_tours,
               ids, dist, demand, service, tws, twe, has_tw):
    """``remove_ids_scalar`` on the selected backend (same contract)."""
    if _compiled is not None:
        return _remove_ids_c(_compiled[1], nodes, lens, tdem, tcost, estart, lstart,
                             tour_of, unassigned, n_tours, ids, dist, demand, service,
                             tws, twe, has_tw)
    return remove_ids_scalar(nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned,
                             n_tours, ids, dist, demand, service, tws, twe, has_tw)


# -- the C backend ------------------------------------------------------------

# numba is no longer used; perfbench's environment stamp still reads this flag.
HAVE_NUMBA = False

COMPILER = "cc"
CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math", "-shared", "-fPIC")
_SOURCE = Path(__file__).with_name("_kernels.c")

# "c" or "interpreted", and why; set by ``load_compiled``.
BACKEND = "interpreted"
BACKEND_REASON = "compiled kernels not loaded (lns.warm_kernels was not called)"
# (rs_greedy_insert, rs_remove_ids) while the C backend is selected
_compiled = None

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
    known = _readonly_addresses.get(id(a))
    if known is None:
        if len(_readonly_addresses) >= 64:
            _readonly_addresses.clear()
        known = _readonly_addresses[id(a)] = a, a.ctypes.data
    return known[1]


# Addresses of read-only inputs (an instance's arrays), which ctypes cannot
# borrow as writable buffers; the held reference keeps each address valid.
_readonly_addresses = {}


def _state_addresses(nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned, n_tours,
                     dist, has_tw):
    """Checked addresses of a solution's arrays and of ``dist``, plus
    (rows, width, m)."""
    if not isinstance(nodes, np.ndarray) or nodes.ndim != 2:
        raise InputError("nodes: need a 2-D array")
    rows, width = nodes.shape
    if not isinstance(dist, np.ndarray) or dist.ndim != 2:
        raise InputError("dist: need a 2-D array")
    m = dist.shape[0]
    if not 0 <= n_tours <= rows:
        raise InputError(f"n_tours out of range: {n_tours}")
    # the timing rows are used only on VRPTW
    times = (rows, width) if has_tw else None
    return (
        _address("nodes", nodes, _I32, (rows, width), True),
        _address("lens", lens, _I32, (rows,), True),
        _address("tdem", tdem, _I64, (rows,), True),
        _address("tcost", tcost, _F64, (rows,), True),
        _address("estart", estart, _F64, times, True),
        _address("lstart", lstart, _F64, times, True),
        _address("tour_of", tour_of, _I32, (m,), True),
        _address("unassigned", unassigned, _BOOL, (m,), True),
        _address("dist", dist, _F64, (m, m), False),
    ), (rows, width, m)


def _greedy_insert_c(kernel, nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned,
                     n_tours, order, dist, demand, capacity, service, tws, twe, prize,
                     problem, commits):
    if problem not in (CVRP, VRPTW, PCVRP):
        raise InputError(f"unknown problem code: {problem}")
    state, (rows, width, m) = _state_addresses(nodes, lens, tdem, tcost, estart, lstart,
                                               tour_of, unassigned, n_tours, dist,
                                               problem == VRPTW)
    k = order.shape[0]
    sums = (ctypes.c_double * 2)()
    nt = kernel(
        *state[:8], n_tours, rows, width, _address("order", order, _I64, (k,), False), k,
        state[8], m, _address("demand", demand, _I64, (m,), False), capacity,
        _address("service", service, _F64, (m,), False),
        _address("tws", tws, _F64, (m,), False), _address("twe", twe, _F64, (m,), False),
        _address("prize", prize, _F64, (m,), False), problem,
        _address("commits", commits, _I64, (k, 2), True), sums,
    )
    return nt, sums[0], sums[1]


def _remove_ids_c(kernel, nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned,
                  n_tours, ids, dist, demand, service, tws, twe, has_tw):
    state, (rows, width, m) = _state_addresses(nodes, lens, tdem, tcost, estart, lstart,
                                               tour_of, unassigned, n_tours, dist, has_tw)
    k = ids.shape[0]
    cost = ctypes.c_double()
    nt = kernel(
        *state[:8], n_tours, width, _address("ids", ids, _I64, (k,), False), k, state[8], m,
        _address("demand", demand, _I64, (m,), False),
        _address("service", service, _F64, (m,), False),
        _address("tws", tws, _F64, (m,), False), _address("twe", twe, _F64, (m,), False),
        bool(has_tw), ctypes.byref(cost),
    )
    return nt, cost.value


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
    """The two C kernels of the library at ``path``, once they agree with
    the Python kernels on every case."""
    try:
        lib = ctypes.CDLL(str(path))
        kernels = (lib.rs_greedy_insert, lib.rs_remove_ids)
    except (OSError, AttributeError) as exc:
        raise _Unavailable(f"cannot load {path}: {exc}") from None
    ptr, i64, out = ctypes.c_void_p, ctypes.c_int64, ctypes.POINTER(ctypes.c_double)
    kernels[0].argtypes = [ptr] * 8 + [i64] * 3 + [ptr, i64, ptr, i64, ptr, i64] + [ptr] * 4 \
        + [i64, ptr, out]
    kernels[1].argtypes = [ptr] * 8 + [i64, i64, ptr, i64, ptr, i64] + [ptr] * 4 + [i64, out]
    for kernel in kernels:
        kernel.restype = i64
    for state, ids, inst in cases:
        if _detach_and_reinsert(kernels, state, ids, inst) != _detach_and_reinsert(
                None, state, ids, inst):
            raise _Unavailable(f"{path} disagrees with the Python kernels")
    return kernels


def _detach_and_reinsert(kernels, state, ids, inst):
    """Every array and value written by detaching ``ids`` from a copy of
    ``state`` and reinserting them ascending, as bytes; C kernels when
    ``kernels`` is given, the Python ones otherwise."""
    remove, insert = remove_ids_scalar, greedy_insert_scalar
    if kernels is not None:
        insert = functools.partial(_greedy_insert_c, kernels[0])
        remove = functools.partial(_remove_ids_c, kernels[1])
    arrays = [a.copy() for a in state[:8]]
    dist, demand, capacity, service, tws, twe, prize, problem = inst
    ids = np.asarray(ids, dtype=np.int64)
    commits = np.empty((ids.size, 2), dtype=np.int64)
    nt, cost = remove(*arrays, state[8], ids, dist, demand, service, tws, twe, problem == VRPTW)
    out = insert(*arrays, nt, np.sort(ids), dist, demand, capacity, service, tws, twe, prize,
                 problem, commits)
    values = (nt, cost, *out)
    return [a.tobytes() for a in (*arrays, commits)] + [np.float64(v).tobytes() for v in values]


def load_compiled(build, cases):
    """Select the backend and record it in ``BACKEND``/``BACKEND_REASON``.

    The C backend is the library built from ``_kernels.c`` for this
    source, compiler and flags, kept in the per-user cache. It is used
    when it loads and, on each of ``cases`` ((solution arrays and tour
    count, ids to detach, (dist, demand, capacity, service, tws, twe,
    prize, problem)) tuples), detaches the ids and reinserts them with
    exactly the bits of the Python kernels. With ``build`` a missing or
    unusable library is compiled first; without it (evaluation children,
    which run under a memory limit) nothing is ever compiled. Otherwise
    the interpreted kernels run.
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
