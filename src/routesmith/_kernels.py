"""Hot loops over the array-backed solution state.

All functions operate on the raw arrays owned by ``model.Solution``:
``nodes`` (padded 2D customer ids per tour row), ``lens``, ``tdem``,
``tcost``, the VRPTW timing rows ``estart``/``lstart``, the customer-to-tour
index and the unassigned mask. Problem codes: 0 = CVRP, 1 = VRPTW,
2 = PCVRP.

The scalar loops are compiled by numba when it is installed (the optional
``numba`` extra) and run as plain Python otherwise.

Each piece of the greedy insertion rule has one home here, used by both
reinsertion paths and by ``model.insertion_delta``/``insert_customer``:
the slot delta (``_slot_table`` lists the insertion slots of tours,
``_slot_deltas`` prices customers at them and ``_new_tour_costs`` prices
a new tour; the scalar kernel evaluates the same float expressions in the
same order) and the commit (``commit``, which retimes VRPTW rows with
``retime``). The two exact reinsertion paths, ``greedy_insert_scalar``
and ``greedy_insert_numpy``, which scans one slot table per call and
splices it in place at each commit, make bit-identical decisions;
``greedy_insert`` is the backend switch between them.
"""

from __future__ import annotations

import numpy as np

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # numba is optional: the loops then run interpreted
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(func):
            return func

        if args and callable(args[0]):
            return args[0]
        return wrap


CVRP = 0
VRPTW = 1
PCVRP = 2


@njit(cache=True)
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


@njit(cache=True)
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


@njit(cache=True)
def remove_ids(
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


@njit(cache=True)
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
        for k in range(L, p, -1):
            nodes[t, k] = nodes[t, k - 1]
        nodes[t, p] = c
        lens[t] = L + 1
        tdem[t] += demand[c]
        tcost[t] += raw
    tour_of[c] = t
    unassigned[c] = False
    if has_tw:
        retime(nodes, lens, estart, lstart, t, dist, service, tws, twe)
    return nt


@njit(cache=True)
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

# Without numba, greedy_insert sends a batch to the numpy path when its
# work, customers offered x insertion options (assigned customers + tours
# + 1), reaches the bound for its problem code; smaller batches go to the
# scalar loop, whose lower per-call overhead wins there. PCVRP batches
# mostly skip customers, which the numpy path passes over in one step, so
# it wins at every size. Set from timing both paths on LNS repair batches;
# lower CVRP and VRPTW bounds that time better there gave discover-n50 no
# measurable gain (CHANGES.md).
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
    """Greedy reinsertion on the fastest exact path for this backend.

    Same parameters and contract as ``greedy_insert_scalar``; the paths
    agree bit for bit, so the choice only affects speed. Under numba it is
    always the compiled scalar kernel; interpreted, a batch goes to the
    numpy path when its work reaches ``NUMPY_MIN_WORK[problem]``.
    """
    kernel = greedy_insert_scalar
    if not HAVE_NUMBA:
        work = order.shape[0] * (int(lens[:n_tours].sum()) + n_tours + 1)
        if work >= NUMPY_MIN_WORK[problem]:
            kernel = greedy_insert_numpy
    return kernel(nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned,
                  n_tours, order, dist, demand, capacity, service, tws, twe,
                  prize, problem, commits)
