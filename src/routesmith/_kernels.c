/* Compiled greedy reinsertion and detach kernels.
 *
 * A straight port of ``greedy_insert_scalar`` (with ``commit`` and
 * ``retime``) and of ``remove_ids_scalar`` in ``_kernels.py``: the same
 * loops, the same float expressions in the same order, so that built
 * without contraction or fast-math every result is bit-identical to the
 * Python kernels. ``_kernels.py`` builds this file, checks the arrays
 * before every call (dtype, contiguity, shapes) and compares the library
 * with the Python kernels before using it.
 *
 * Arrays are C-contiguous: nodes (rows x width, int32), lens (int32),
 * tdem (int64), tcost (float64), estart/lstart (rows x width float64, read
 * only for VRPTW), tour_of (int32), unassigned (bool), dist (m x m
 * float64), demand (int64), service/tws/twe/prize (float64), ids/order
 * (int64), commits (k x 2 int64).
 */

#include <math.h>
#include <stdint.h>

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

int64_t rs_remove_ids(int32_t *nodes, int32_t *lens, int64_t *tdem, double *tcost,
                      double *estart, double *lstart, int32_t *tour_of, uint8_t *unassigned,
                      int64_t n_tours, int64_t width, const int64_t *ids, int64_t k,
                      const double *dist, int64_t m, const int64_t *demand,
                      const double *service, const double *tws, const double *twe,
                      int64_t has_tw, double *cost_out)
{
    double cost_delta = 0.0;
    int64_t nt = n_tours;
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
    *cost_out = cost_delta;
    return nt;
}

int64_t rs_greedy_insert(int32_t *nodes, int32_t *lens, int64_t *tdem, double *tcost,
                         double *estart, double *lstart, int32_t *tour_of, uint8_t *unassigned,
                         int64_t n_tours, int64_t rows, int64_t width, const int64_t *order,
                         int64_t k, const double *dist, int64_t m, const int64_t *demand,
                         int64_t capacity, const double *service, const double *tws,
                         const double *twe, const double *prize, int64_t problem,
                         int64_t *commits, double *sums_out)
{
    int64_t nt = n_tours;
    double cost_delta = 0.0;
    double prize_delta = 0.0;
    int has_tw = problem == 1;
    int pcvrp = problem == 2;
    for (int64_t oi = 0; oi < k; oi++) {
        int64_t c = order[oi];
        commits[2 * oi] = -1;
        commits[2 * oi + 1] = -1;
        if (!unassigned[c])
            continue;
        int64_t dc = demand[c];
        double prz = prize[c];
        const double *dc_row = dist + c * m;
        double best = INFINITY;
        int64_t best_t = -1;
        int64_t best_p = -1;
        for (int64_t t = 0; t < nt; t++) {
            if (tdem[t] + dc > capacity || lens[t] >= width)
                continue;
            const int32_t *row = nodes + t * width;
            int64_t L = lens[t];
            int64_t prevnode = 0;
            if (has_tw) {
                double depart_prev = 0.0;
                for (int64_t p = 0; p <= L; p++) {
                    int64_t nxt = p < L ? row[p] : 0;
                    double arrive = depart_prev + dist[prevnode * m + c];
                    double start = arrive > tws[c] ? arrive : tws[c];
                    int ok = start <= twe[c];
                    if (ok && p < L) {
                        if (start + service[c] + dc_row[nxt] > lstart[t * width + p])
                            ok = 0;
                    }
                    if (ok) {
                        double cand = dist[prevnode * m + c] + dc_row[nxt]
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
                    double cand = dist[prevnode * m + c] + dc_row[nxt]
                                  - dist[prevnode * m + nxt] - prz;
                    if (cand < best) {
                        best = cand;
                        best_t = t;
                        best_p = p;
                    }
                    prevnode = nxt;
                }
            }
        }
        int new_ok = nt < rows;
        if (new_ok && has_tw) {
            double arrive = dist[c];
            double start = arrive > tws[c] ? arrive : tws[c];
            new_ok = start <= twe[c];
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
        if (pcvrp && best >= 0.0)
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

        cost_delta += raw;
        prize_delta += prz;
        commits[2 * oi] = best_t;
        commits[2 * oi + 1] = best_p;
    }
    sums_out[0] = cost_delta;
    sums_out[1] = prize_delta;
    return nt;
}
