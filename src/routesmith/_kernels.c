/* Compiled greedy reinsertion and detach kernels, the two built-in removal
 * operators, and numpy's bounded draw.
 *
 * ``rs_remove_ids`` is a straight port of ``remove_ids_scalar`` in
 * ``_kernels.py``, and ``rs_greedy_insert`` makes the decisions of
 * ``greedy_insert_scalar`` (with ``commit`` and ``retime``) with a pruned
 * slot scan: every slot it prices is priced with the same float expressions
 * in the same order, so that built without contraction or fast-math every
 * result is bit-identical to the Python kernels, and it skips only slots
 * that a bound shows cannot win:
 *
 *  - PCVRP: a customer is committed only when its delta is below 0, so the
 *    scan starts from that threshold. Every node of a tour, the depot
 *    included, lies in the tour's coordinate bounding box, so the delta of
 *    any slot (p, n) of the tour is at least 2 r - e - prize, where r is the
 *    larger of the customer's gaps to the box along x and along y (a lower
 *    bound of its distance to the box) and e is the tour's longest edge,
 *    which d(p, n) cannot exceed. A tour whose bound, less a rounding
 *    margin, is at or above the best delta so far is skipped. The boxes are
 *    computed once per call and again for a tour after each commit into it.
 *  - VRPTW: arrivals only grow along a tour (service times are nonnegative
 *    and dist satisfies the triangle inequality), so the scan of a tour
 *    stops at the first slot whose arrival, less a rounding margin, is past
 *    the customer's window end.
 *
 * Both margins are relative to the magnitudes compared, far above the
 * rounding of the sums they bound. ``_kernels.py`` builds this file and
 * compares the library with the Python kernels before using it.
 *
 * Each kernel takes one argument block (``rs_args``, mirrored by
 * ``_kernels._Args``). ``_kernels.py`` checks each array's dtype,
 * contiguity and shape when it builds a block. A solution keeps the block
 * of its arena views and its instance's read-only views, and later calls
 * on that solution that pass the same arrays (still writable where
 * written) only set the tour count, the ids, k and the commits. The block
 * also carries the kernels' own scratch memory, allocated with it, so no
 * call allocates.
 *
 * Arrays are C-contiguous: nodes (rows x width, int32), lens (int32),
 * tdem (int64), tcost (float64), estart/lstart (rows x width float64, read
 * only for VRPTW), tour_of (int32), unassigned (bool), dist (m x m
 * float64), demand (int64), service/tws/twe/prize (float64), coords (m x 2
 * float64), adjacency (m x m-1 int32), ids (int64), commits (k x 2 int64).
 *
 * dist must be the Euclidean distance matrix of coords, exactly symmetric,
 * as ``model.Instance`` builds it (sqrt(dx*dx + dy*dy) of coordinate
 * differences, whose squares do not depend on the sign): the slot scan
 * reads d(prev, c) as d(c, prev) from c's own row instead of a strided
 * column, which the Python kernels read.
 *
 * Every draw is numpy's Lemire rejection on 32-bit draws (``lemire``),
 * made through the generator's own ``bitgen_t``; no function takes a lock,
 * the caller holds the bit generator's. ``rs_integers`` is
 * ``numpy.random.Generator.integers(lo, hi)`` for hi - lo <= 2**32 - 1.
 * ``rs_string_remove`` and ``rs_uniform_remove`` are the walk of
 * ``operators.string_remove`` and the pick of ``seed_random_remove``,
 * making their draws in their order: they return the same ids and leave
 * the generator in the same state. The pick reproduces numpy's
 * ``Generator.choice(pop, k, replace=False)`` (Floyd's algorithm, then a
 * Fisher-Yates shuffle). Both only read the solution, and write their ids
 * into the block's output buffer.
 */

#include <math.h>
#include <stdint.h>
#include <string.h>

/* numpy/random/bitgen.h */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

typedef struct {
    int32_t *nodes;
    int32_t *lens;
    int64_t *tdem;
    double *tcost;
    double *estart;
    double *lstart;
    int32_t *tour_of;
    uint8_t *unassigned;
    const double *dist;
    const int64_t *demand;
    const double *service;
    const double *tws;
    const double *twe;
    const double *prize; /* NULL in a block built by a detach */
    const double *coords; /* NULL in a block built by a detach */
    const int32_t *adjacency; /* (m x m-1); NULL unless a removal operator built the block */
    int64_t rows, width, m;
    int64_t capacity, problem, has_tw;
    int64_t n_tours;
    int64_t *ids; /* the ids to detach, the reinsertion order, or a removal's output */
    int64_t k;
    int64_t *commits;
    double cost, recouped; /* out: travel-cost delta, recouped prize total */
    /* the kernels' own memory, kept with the block: 40 rows + 4 m bytes
     * (the PCVRP boxes, the tours a string walk hit or the assigned ids),
     * then m bytes (the ids an order has met) */
    uint8_t *scratch;
} rs_args;

static void retime(const int32_t *nodes, const int32_t *lens, double *estart, double *lstart,
                   int64_t t, int64_t width, const double *dist, int64_t m,
                   const double *service, const double *tws, const double *twe)
{
    const int32_t *row = nodes + t * width;
    double *es = estart + t * width;
    double *ls = lstart + t * width;
    int64_t L = lens[t];
    double depart = 0.0;
    int64_t prev = 0;
    for (int64_t k = 0; k < L; k++) {
        int64_t c = row[k];
        double arrive = depart + dist[prev * m + c];
        double start = arrive > tws[c] ? arrive : tws[c];
        es[k] = start;
        depart = start + service[c];
        prev = c;
    }
    double nxt_latest = INFINITY;
    int64_t nxt = 0;
    for (int64_t k = L - 1; k >= 0; k--) {
        int64_t c = row[k];
        double latest;
        if (k == L - 1) {
            latest = twe[c];
        } else {
            double bound = nxt_latest - service[c] - dist[c * m + nxt];
            latest = twe[c] < bound ? twe[c] : bound;
        }
        ls[k] = latest;
        nxt_latest = latest;
        nxt = c;
    }
}

int64_t rs_remove_ids(rs_args *a)
{
    int32_t *nodes = a->nodes, *lens = a->lens, *tour_of = a->tour_of;
    int64_t *tdem = a->tdem;
    double *tcost = a->tcost, *estart = a->estart, *lstart = a->lstart;
    uint8_t *unassigned = a->unassigned;
    const double *dist = a->dist, *service = a->service, *tws = a->tws, *twe = a->twe;
    const int64_t *demand = a->demand, *ids = a->ids;
    int64_t width = a->width, m = a->m, k = a->k, has_tw = a->has_tw;
    double cost_delta = 0.0;
    int64_t nt = a->n_tours;
    for (int64_t i = 0; i < k; i++) {
        int64_t c = ids[i];
        int64_t t = tour_of[c];
        if (t < 0)
            continue;
        int32_t *row = nodes + t * width;
        int64_t L = lens[t];
        int64_t p = -1;
        for (int64_t j = 0; j < L; j++) {
            if (row[j] == c) {
                p = j;
                break;
            }
        }
        if (p < 0)
            continue;
        int64_t prev = p > 0 ? row[p - 1] : 0;
        int64_t nxt = p < L - 1 ? row[p + 1] : 0;
        double delta = dist[prev * m + nxt] - dist[prev * m + c] - dist[c * m + nxt];
        tcost[t] += delta;
        cost_delta += delta;
        for (int64_t j = p; j < L - 1; j++)
            row[j] = row[j + 1];
        lens[t] = (int32_t)(L - 1);
        tdem[t] -= demand[c];
        tour_of[c] = -1;
        unassigned[c] = 1;
        if (lens[t] == 0) {
            int64_t last = nt - 1;
            if (t != last) {
                const int32_t *src = nodes + last * width;
                int64_t Ll = lens[last];
                for (int64_t j = 0; j < Ll; j++) {
                    row[j] = src[j];
                    tour_of[src[j]] = (int32_t)t;
                }
                lens[t] = (int32_t)Ll;
                tdem[t] = tdem[last];
                tcost[t] = tcost[last];
                if (has_tw) {
                    for (int64_t j = 0; j < Ll; j++) {
                        estart[t * width + j] = estart[last * width + j];
                        lstart[t * width + j] = lstart[last * width + j];
                    }
                }
            }
            lens[last] = 0;
            tdem[last] = 0;
            tcost[last] = 0.0;
            nt = last;
        } else if (has_tw) {
            retime(nodes, lens, estart, lstart, t, width, dist, m, service, tws, twe);
        }
    }
    a->cost = cost_delta;
    return nt;
}

/* Whether order[0..k) lists every index set in unassigned[0..m) exactly
 * once; seen (m bytes, zeroed) marks the ids met. */
static int is_order(const int64_t *order, int64_t k, const uint8_t *unassigned, int64_t m,
                    uint8_t *seen)
{
    for (int64_t i = 0; i < k; i++) {
        int64_t c = order[i];
        if (c < 0 || c >= m || !unassigned[c] || seen[c])
            return 0;
        seen[c] = 1;
    }
    int64_t count = 0;
    for (int64_t c = 0; c < m; c++)
        count += unassigned[c] != 0;
    return count == k;
}

/* The PCVRP bound's data of tour row t: box = (x lo, x hi, y lo, y hi) of
 * the depot's and the customers' coordinates, then the longest edge (the
 * depot legs included) with its share of the rounding margin. */
static void tour_box(const int32_t *row, int64_t L, const double *coords, const double *dist,
                     int64_t m, double *box)
{
    double xlo = coords[0], xhi = coords[0], ylo = coords[1], yhi = coords[1];
    double longest = 0.0;
    int64_t prev = 0;
    for (int64_t k = 0; k <= L; k++) {
        int64_t c = k < L ? row[k] : 0;
        double x = coords[2 * c], y = coords[2 * c + 1];
        double edge = dist[prev * m + c];
        xlo = x < xlo ? x : xlo;
        xhi = x > xhi ? x : xhi;
        ylo = y < ylo ? y : ylo;
        yhi = y > yhi ? y : yhi;
        longest = edge > longest ? edge : longest;
        prev = c;
    }
    box[0] = xlo;
    box[1] = xhi;
    box[2] = ylo;
    box[3] = yhi;
    box[4] = (1.0 + 1e-12) * longest;
}

/* Returns the new tour count; -1 (writing nothing) when the order is not a
 * permutation of the unassigned set. */
int64_t rs_greedy_insert(rs_args *a)
{
    int32_t *nodes = a->nodes, *lens = a->lens, *tour_of = a->tour_of;
    int64_t *tdem = a->tdem, *commits = a->commits;
    double *tcost = a->tcost, *estart = a->estart, *lstart = a->lstart;
    uint8_t *unassigned = a->unassigned;
    const double *dist = a->dist, *service = a->service, *tws = a->tws, *twe = a->twe;
    const double *prize = a->prize, *coords = a->coords;
    const int64_t *demand = a->demand, *order = a->ids;
    int64_t rows = a->rows, width = a->width, m = a->m, k = a->k, capacity = a->capacity;
    int64_t problem = a->problem;
    int64_t nt = a->n_tours;
    double cost_delta = 0.0;
    double prize_delta = 0.0;
    int has_tw = problem == 1;
    int pcvrp = problem == 2;
    a->cost = 0.0;
    a->recouped = 0.0;

    /* (PCVRP) five doubles per tour row, and the ids met */
    double *boxes = (double *)a->scratch;
    uint8_t *seen = a->scratch + 40 * rows + 4 * m;
    memset(seen, 0, (size_t)m);
    if (!is_order(order, k, unassigned, m, seen))
        return -1;
    if (pcvrp) {
        for (int64_t t = 0; t < nt; t++)
            tour_box(nodes + t * width, lens[t], coords, dist, m, boxes + 5 * t);
    }

    for (int64_t oi = 0; oi < k; oi++) {
        int64_t c = order[oi];
        commits[2 * oi] = -1;
        commits[2 * oi + 1] = -1;
        if (!unassigned[c])
            continue;
        int64_t dc = demand[c];
        double prz = prize[c];
        const double *dc_row = dist + c * m;
        double cx = pcvrp ? coords[2 * c] : 0.0, cy = pcvrp ? coords[2 * c + 1] : 0.0;
        double twe_c = twe[c];
        /* PCVRP commits only a delta below 0: the scan starts from there */
        double best = pcvrp ? 0.0 : INFINITY;
        int64_t best_t = -1;
        int64_t best_p = -1;
        /* the bound's prize and best delta, with their rounding margin */
        double rest = prz + 1e-12 * fabs(prz);
        for (int64_t t = 0; t < nt; t++) {
            if (tdem[t] + dc > capacity || lens[t] >= width)
                continue;
            if (pcvrp) {
                /* r: the larger gap between c and the box along an axis */
                const double *box = boxes + 5 * t;
                double gx = box[0] - cx, ex = cx - box[1];
                double gy = box[2] - cy, ey = cy - box[3];
                gx = gx > ex ? gx : ex;
                gy = gy > ey ? gy : ey;
                double r = gx > gy ? gx : gy;
                if (2.0 * (1.0 - 1e-12) * r >= box[4] + rest)
                    continue;
            }
            const int32_t *row = nodes + t * width;
            int64_t L = lens[t];
            int64_t prevnode = 0;
            if (has_tw) {
                double depart_prev = 0.0;
                for (int64_t p = 0; p <= L; p++) {
                    int64_t nxt = p < L ? row[p] : 0;
                    double arrive = depart_prev + dc_row[prevnode];
                    /* late here, so at every later slot of the tour */
                    if (arrive * (1.0 - 1e-9) > twe_c)
                        break;
                    double start = arrive > tws[c] ? arrive : tws[c];
                    int ok = start <= twe_c;
                    if (ok && p < L) {
                        if (start + service[c] + dc_row[nxt] > lstart[t * width + p])
                            ok = 0;
                    }
                    if (ok) {
                        double cand = dc_row[prevnode] + dc_row[nxt]
                                      - dist[prevnode * m + nxt] - prz;
                        if (cand < best) {
                            best = cand;
                            best_t = t;
                            best_p = p;
                        }
                    }
                    if (p < L) {
                        depart_prev = estart[t * width + p] + service[nxt];
                        prevnode = nxt;
                    }
                }
            } else {
                for (int64_t p = 0; p <= L; p++) {
                    int64_t nxt = p < L ? row[p] : 0;
                    double cand = dc_row[prevnode] + dc_row[nxt]
                                  - dist[prevnode * m + nxt] - prz;
                    if (cand < best) {
                        best = cand;
                        best_t = t;
                        best_p = p;
                        if (pcvrp)
                            rest = prz + best + 1e-12 * (fabs(prz) + fabs(best));
                    }
                    prevnode = nxt;
                }
            }
        }
        int new_ok = nt < rows;
        if (new_ok && has_tw) {
            double arrive = dist[c];
            double start = arrive > tws[c] ? arrive : tws[c];
            new_ok = start <= twe_c;
        }
        if (new_ok) {
            double cand = dist[c] + dc_row[0] - dist[0] - prz;
            if (cand < best) {
                best = cand;
                best_t = nt;
                best_p = 0;
            }
        }
        if (best_t < 0)
            continue;
        double raw = best + prz;

        /* commit: open a new tour or splice into tour best_t at best_p */
        int64_t t = best_t;
        int32_t *row = nodes + t * width;
        if (t == nt) {
            row[0] = (int32_t)c;
            lens[t] = 1;
            tdem[t] = dc;
            tcost[t] = dist[c] + dc_row[0];
            nt += 1;
        } else {
            int64_t L = lens[t];
            for (int64_t j = L; j > best_p; j--)
                row[j] = row[j - 1];
            row[best_p] = (int32_t)c;
            lens[t] = (int32_t)(L + 1);
            tdem[t] += dc;
            tcost[t] += raw;
        }
        tour_of[c] = (int32_t)t;
        unassigned[c] = 0;
        if (has_tw)
            retime(nodes, lens, estart, lstart, t, width, dist, m, service, tws, twe);
        if (pcvrp)
            tour_box(row, lens[t], coords, dist, m, boxes + 5 * t);

        cost_delta += raw;
        prize_delta += prz;
        commits[2 * oi] = best_t;
        commits[2 * oi + 1] = best_p;
    }
    a->cost = cost_delta;
    a->recouped = prize_delta;
    return nt;
}

/* numpy's buffered_bounded_lemire_uint32 on [0, span), with no buffer: the
 * draw of random_bounded_uint64_fill and of random_bounded_uint64 for
 * 0 < span - 1 < 0xFFFFFFFF; span 1 draws nothing. */
static uint32_t lemire(bitgen_t *bg, uint32_t span)
{
    uint32_t rng = span - 1;
    if (rng == 0)
        return 0;
    uint64_t m = (uint64_t)bg->next_uint32(bg->state) * span;
    uint32_t leftover = (uint32_t)m;
    if (leftover < span) {
        uint32_t threshold = (UINT32_MAX - rng) % span;
        while (leftover < threshold) {
            m = (uint64_t)bg->next_uint32(bg->state) * span;
            leftover = (uint32_t)m;
        }
    }
    return (uint32_t)(m >> 32);
}

int64_t rs_integers(bitgen_t *bg, int64_t lo, uint32_t span)
{
    return (int64_t)((uint64_t)lo + lemire(bg, span));
}

/* The number of assigned ids (tour_of >= 0; the depot's entry is -1). */
static int64_t count_assigned(const int32_t *tour_of, int64_t m)
{
    int64_t pop = 0;
    for (int64_t c = 0; c < m; c++)
        pop += tour_of[c] >= 0;
    return pop;
}

/* ``operators.string_remove``'s walk. Writes at most a->k ids to a->ids
 * and returns their number; -1 when the walk meets a row that disagrees
 * with tour_of, or more ids than that. */
int64_t rs_string_remove(rs_args *a, bitgen_t *bg, int64_t target_lo, uint32_t target_span,
                         int64_t max_len, int64_t max_strings)
{
    const int32_t *nodes = a->nodes, *lens = a->lens, *tour_of = a->tour_of;
    int64_t width = a->width, m = a->m, nt = a->n_tours;
    int64_t *out = a->ids;
    int64_t pop = count_assigned(tour_of, m);
    if (pop == 0)
        return 0;
    int64_t target = target_lo + lemire(bg, target_span);
    int64_t index = lemire(bg, (uint32_t)pop);
    int64_t seed = 0;
    while (tour_of[seed] < 0 || index-- > 0)
        seed++;
    /* the seed, then its neighbours nearest first */
    const int32_t *near = a->adjacency + seed * (m - 1);
    uint8_t *hit = a->scratch;
    memset(hit, 0, (size_t)nt);
    int64_t k = 0, strings = 0;
    for (int64_t i = -1; i < m - 1; i++) {
        int64_t c = i < 0 ? seed : near[i];
        int64_t t = tour_of[c];
        if (t < 0 || (t < nt && hit[t]))
            continue;
        int64_t L = t < nt ? lens[t] : 0;
        const int32_t *row = nodes + t * width;
        int64_t pos = 0;
        while (pos < L && row[pos] != c)
            pos++;
        if (pos == L || k + L > a->k)
            return -1;
        int64_t length = 1 + lemire(bg, (uint32_t)(max_len < L ? max_len : L));
        int64_t lo = pos - lemire(bg, (uint32_t)length);
        lo = lo < L - length ? lo : L - length;
        lo = lo > 0 ? lo : 0;
        for (int64_t j = lo; j < lo + length; j++)
            out[k++] = row[j];
        hit[t] = 1;
        if (++strings >= max_strings || k >= target)
            break;
    }
    return k;
}

/* ``operators.seed_random_remove``: k = k_lo + a draw below k_span, at
 * most the number pop of assigned ids, then the ids at the indices of
 * numpy's ``choice(pop, k, replace=False)``. For k <= 200 numpy takes
 * Floyd's algorithm (it does unless pop > 10000 and k > pop // 50), then
 * shuffles the k results. pop < m, and an m x m dist bounds m far below
 * 2**32, so every span is one draw's. Returns the number of ids written to
 * a->ids. */
int64_t rs_uniform_remove(rs_args *a, bitgen_t *bg, int64_t k_lo, uint32_t k_span)
{
    const int32_t *tour_of = a->tour_of;
    int64_t m = a->m;
    int64_t *out = a->ids;
    int64_t pop = count_assigned(tour_of, m);
    if (pop == 0)
        return 0;
    int64_t k = k_lo + lemire(bg, k_span);
    k = k < pop ? k : pop;
    int32_t *assigned = (int32_t *)a->scratch;
    for (int64_t c = 0, i = 0; c < m; c++) {
        if (tour_of[c] >= 0)
            assigned[i++] = (int32_t)c;
    }
    /* Floyd: each j draws from [0, j] and takes j when the draw is taken */
    for (int64_t j = pop - k; j < pop; j++) {
        int64_t i = j - (pop - k);
        int64_t v = lemire(bg, (uint32_t)(j + 1));
        for (int64_t q = 0; q < i; q++) {
            if (out[q] == v) {
                v = j;
                break;
            }
        }
        out[i] = v;
    }
    /* Fisher-Yates over the k indices */
    for (int64_t i = k - 1; i > 0; i--) {
        int64_t j = lemire(bg, (uint32_t)(i + 1));
        int64_t swap = out[i];
        out[i] = out[j];
        out[j] = swap;
    }
    for (int64_t i = 0; i < k; i++)
        out[i] = assigned[out[i]];
    return k;
}
