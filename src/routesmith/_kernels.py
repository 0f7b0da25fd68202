"""Hot loops over the array-backed solution state.

All functions operate on the raw arrays owned by ``model.Solution``:
``nodes`` (padded 2D customer ids per tour row), ``lens``, ``tdem``,
``tcost``, the VRPTW timing rows ``estart``/``lstart``, the customer-to-tour
index and the unassigned mask. Problem codes: 0 = CVRP, 1 = VRPTW,
2 = PCVRP.

The scalar loops are compiled by numba when it is installed (the optional
``numba`` extra) and run as plain Python otherwise. Greedy reinsertion has
two exact implementations: the scalar ``greedy_insert_scalar`` and
``greedy_insert_numpy``, which caches insertion costs per call and
vectorizes the scan. ``greedy_insert`` is the compiled scalar kernel under
numba; without numba it picks the numpy path for batches of at least
``NUMPY_MIN_WORK[problem]`` (customers offered x insertion options) and
the scalar loop below that. Both make bit-identical decisions.

Float expressions here are mirrored verbatim by the pure-Python
``model.insertion_delta``, so it agrees with both paths bit for bit. Keep
them in sync.
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
def retime_forward(nodes, lens, estart, t, dist, service, tws):
    """Recompute earliest service starts for tour row t (waiting allowed)."""
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


@njit(cache=True)
def retime_backward(nodes, lens, lstart, t, dist, service, twe):
    """Recompute latest feasible service starts for tour row t.

    The return leg to the depot is unconstrained, so the last customer's
    bound is its own window end.
    """
    L = lens[t]
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
            retime_forward(nodes, lens, estart, t, dist, service, tws)
            retime_backward(nodes, lens, lstart, t, dist, service, twe)
    return nt, cost_delta


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
        if best_t == nt:
            t = nt
            nodes[t, 0] = c
            lens[t] = 1
            tdem[t] = dc
            tcost[t] = dist[0, c] + dist[c, 0]
            nt += 1
        else:
            t = best_t
            L = lens[t]
            for k in range(L, best_p, -1):
                nodes[t, k] = nodes[t, k - 1]
            nodes[t, best_p] = c
            lens[t] = L + 1
            tdem[t] += dc
            tcost[t] += raw
        tour_of[c] = t
        unassigned[c] = False
        cost_delta += raw
        prize_delta += prz
        if has_tw:
            retime_forward(nodes, lens, estart, t, dist, service, tws)
            retime_backward(nodes, lens, lstart, t, dist, service, twe)
        commits[oi, 0] = t
        commits[oi, 1] = best_p
    return nt, cost_delta, prize_delta


# Elements of one (customers, tours, positions) temporary in the cache
# build; customers go in chunks so that peak memory stays flat.
_BUILD_CHUNK = 1 << 14

# Without numba, greedy_insert sends a batch to the numpy path when its
# work, customers offered x insertion options (assigned customers + tours
# + 1), reaches the bound for its problem code; smaller batches go to the
# scalar loop, whose lower per-call overhead wins there. PCVRP batches
# mostly skip customers, which the numpy path passes over in one step, so
# it wins at every size. Set from timing both paths on LNS repair batches
# (CHANGES.md).
NUMPY_MIN_WORK = (1024, 400, 0)  # CVRP, VRPTW, PCVRP


def _slots(nodes, lens, estart, lstart, lo, hi, dist, service, has_tw):
    """Insertion slots of tour rows lo..hi-1, one column per position.

    ``seq`` holds each row as depot, customers, depot (zero-padded), so
    position p lies between ``seq[:, p]`` and ``seq[:, p + 1]`` and removes
    ``edge[:, p]``. Columns past a row's end get edge -inf, so every
    insertion cost computed there reads +inf. For VRPTW, ``dep`` is the
    departure time from the node before the slot and ``lat`` the latest
    start at the node after it (inf on the return leg).
    """
    L = lens[lo:hi]
    P = int(L.max() if hi - lo > 1 else L[0]) + 1
    seq = np.zeros((hi - lo, P + 1), dtype=np.int64)
    seq[:, 1:P] = nodes[lo:hi, : P - 1]
    past = None
    if hi - lo > 1:  # a single row has no padding
        past = np.arange(P) >= L[:, None]
        seq[:, 1:][past] = 0
    edge = dist[seq[:, :-1], seq[:, 1:]]
    if past is not None:
        edge[:, 1:][past[:, :-1]] = -np.inf
    if not has_tw:
        return seq, edge, None, None
    dep = np.zeros(edge.shape)
    dep[:, 1:] = estart[lo:hi, : P - 1] + service[seq[:, 1:P]]
    lat = np.full(edge.shape, np.inf)
    lat[:, :-1] = lstart[lo:hi, : P - 1]
    if past is not None:
        lat[past] = np.inf
    return seq, edge, dep, lat


def _slot_costs(cs, prz, tws, twe, svc, slots, dist):
    """Cheapest insertion of each customer of ``cs`` into each slot row.

    ``prz``, ``tws``, ``twe`` and ``svc`` hold the customers' prize, window
    and service time. Returns (cost, position), shaped (customers, rows):
    cost is inf where no position is time-feasible, position the first
    argmin. Each float expression is evaluated as in
    ``greedy_insert_scalar``. ``model.Instance`` builds ``dist`` from
    coordinate differences, so it is exactly symmetric and one gather
    serves both ``dist[prev, c]`` and ``dist[c, nxt]``. No cost is NaN or
    -0.0, so the row minimum is bit for bit the cost at the first argmin.
    """
    seq, edge, dep, lat = slots
    near = dist[cs[:, None, None], seq]
    into = near[:, :, :-1]
    out = near[:, :, 1:]
    cand = into + out
    cand -= edge
    cand -= prz[:, None, None]
    if dep is not None:
        t0 = tws[:, None, None]
        arrive = dep + into
        start = np.where(arrive > t0, arrive, t0)
        late = start + svc[:, None, None]
        late += out
        cand[(start > twe[:, None, None]) | (late > lat)] = np.inf
    return np.minimum.reduce(cand, axis=2), cand.argmin(axis=2)


def greedy_insert_numpy(
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
    """``greedy_insert_scalar`` with an insertion-cost cache, in numpy.

    Same parameters, effects and return values, bit for bit. The call
    first caches, for each customer of ``order`` and each tour, the
    cheapest position and its delta (inf where capacity, the width bound
    or a time window fails). A commit changes one tour, so only that
    tour's column is recomputed, for the customers still to come. PCVRP
    skips straight to the next customer whose best delta is negative.
    """
    nt = n_tours
    cost_delta = 0.0
    prize_delta = 0.0
    rows, width = nodes.shape
    has_tw = problem == 1
    pcvrp = problem == 2
    k = order.shape[0]
    commits[:] = -1
    dem_o = demand[order]
    prz_o = prize[order]
    tws_o = tws[order]
    twe_o = twe[order]
    svc_o = service[order]
    # at most k tours open during the call
    cost = np.full((k, min(rows, nt + k)), np.inf)
    pos = np.zeros(cost.shape, dtype=np.int64)

    def refresh(lo, first, last):
        """Recompute tours first..last-1 in the cache of order[lo:]."""
        slots = _slots(nodes, lens, estart, lstart, first, last, dist, service, has_tw)
        open_row = lens[first:last] < width
        step = max(1, _BUILD_CHUNK // slots[1].size)
        for a in range(lo, k, step):
            b = a + step
            c_cost, c_pos = _slot_costs(
                order[a:b], prz_o[a:b], tws_o[a:b], twe_o[a:b], svc_o[a:b], slots, dist
            )
            fits = (tdem[first:last] + dem_o[a:b, None] <= capacity) & open_row
            cost[a:b, first:last] = np.where(fits, c_cost, np.inf)
            pos[a:b, first:last] = c_pos

    if nt:
        refresh(0, 0, nt)
    new_cost = dist[0, order] + dist[order, 0] - dist[0, 0] - prz_o
    if has_tw:
        arrive = dist[0, order]
        start = np.where(arrive > tws_o, arrive, tws_o)
        new_cost[start > twe_o] = np.inf
    # Python floats hold the same doubles and compare faster
    new_list = new_cost.tolist()

    i = 0
    while i < k:
        if pcvrp:
            best_rest = new_cost[i:] if nt < rows else np.full(k - i, np.inf)
            if nt:
                best_rest = np.minimum(np.minimum.reduce(cost[i:, :nt], axis=1), best_rest)
            hits = np.flatnonzero((best_rest < 0.0) & unassigned[order[i:]])
            if hits.size == 0:
                break
            i += int(hits[0])
        c = order[i]
        if not unassigned[c]:
            i += 1
            continue
        best = np.inf
        best_t = -1
        best_p = -1
        if nt:
            j = int(cost[i, :nt].argmin())
            if cost.item(i, j) < best:
                best = cost.item(i, j)
                best_t = j
                best_p = pos.item(i, j)
        if nt < rows and new_list[i] < best:
            best = new_list[i]
            best_t = nt
            best_p = 0
        if best_t < 0:  # on PCVRP the jump above only stops where best < 0
            i += 1
            continue
        dc = demand[c]
        prz = prize[c]
        raw = best + prz
        t = best_t
        if t == nt:
            nodes[t, 0] = c
            lens[t] = 1
            tdem[t] = dc
            tcost[t] = dist[0, c] + dist[c, 0]
            nt += 1
        else:
            L = lens[t]
            nodes[t, best_p + 1 : L + 1] = nodes[t, best_p:L]
            nodes[t, best_p] = c
            lens[t] = L + 1
            tdem[t] += dc
            tcost[t] += raw
        tour_of[c] = t
        unassigned[c] = False
        cost_delta += raw
        prize_delta += prz
        if has_tw:
            retime_forward(nodes, lens, estart, t, dist, service, tws)
            retime_backward(nodes, lens, lstart, t, dist, service, twe)
        commits[i, 0] = t
        commits[i, 1] = best_p
        i += 1
        if i < k:
            refresh(i, t, t + 1)
    return nt, cost_delta, prize_delta


if HAVE_NUMBA:
    greedy_insert = greedy_insert_scalar
else:

    def greedy_insert(nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned,
                      n_tours, order, dist, demand, capacity, service, tws, twe,
                      prize, problem, commits):
        """Greedy reinsertion on whichever interpreted path is faster.

        Same parameters and contract as ``greedy_insert_scalar``; the two
        paths agree bit for bit, so the choice only affects speed.
        """
        work = order.shape[0] * (int(lens[:n_tours].sum()) + n_tours + 1)
        fast = work >= NUMPY_MIN_WORK[problem]
        kernel = greedy_insert_numpy if fast else greedy_insert_scalar
        return kernel(nodes, lens, tdem, tcost, estart, lstart, tour_of, unassigned,
                      n_tours, order, dist, demand, capacity, service, tws, twe,
                      prize, problem, commits)
