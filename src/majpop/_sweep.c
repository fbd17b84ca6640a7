/* Compiled row sweep for the peak-shaving and valley-filling solvers.
 *
 * One call runs every row: per row, one three-way quickselect finds the
 * threshold value, one pass takes every strictly better column and stages
 * the tied ones, and the tie policy picks among the staged columns.  The
 * total is O(m*n).  Tie handling, the load-order keys and the splitmix64
 * stream match solvers._pick_ties bit for bit.
 *
 * With column caps, a column is open in a row while it has been taken fewer
 * times than its cap; the row selects among its open columns alone, in
 * index order, as solvers._split_selection does over ``allowed``.  A row
 * that needs more columns than are open strands the sweep: the function
 * reports the row and its open count and returns 1.
 *
 * Built, loaded and called only by _speedups.sweep, which allocates the
 * buffers itself and checks every value its caller supplies before the
 * call: 0 <= row_counts[i] <= n, 0 <= caps[j], delta is +1 or -1, the
 * policy code is one below, and no value can leave the int64 range.
 */

#include <stdint.h>
#include <stdlib.h>

#define POLICY_LOWEST 0
#define POLICY_HIGHEST 1
#define POLICY_LOAD_ORDER 2
#define POLICY_RANDOM 3

static uint64_t splitmix64(uint64_t *state)
{
    uint64_t z;
    *state += UINT64_C(0x9E3779B97F4A7C15);
    z = *state;
    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    return z ^ (z >> 31);
}

/* Take column j into the current row: step its value by delta, set its bit
 * and count the placement. */
static void take(int64_t *values, uint8_t *row, int64_t *placed, int64_t j, int64_t delta)
{
    values[j] += delta;
    row[j] = 1;
    placed[j]++;
}

/* Iterative three-way quickselect with median-of-three pivots; reorders buf
 * and returns the value of rank target (0-based) among buf[0..n). */
static int64_t kth_smallest(int64_t *buf, int64_t n, int64_t target)
{
    int64_t lo = 0, hi = n - 1;
    for (;;) {
        int64_t a, b, c, s, pivot, i, j, p;
        if (lo == hi)
            return buf[lo];
        a = buf[lo];
        b = buf[(lo + hi) / 2];
        c = buf[hi];
        if (a > b) { s = a; a = b; b = s; }
        if (b > c) { s = b; b = c; c = s; }
        if (a > b) { s = a; a = b; b = s; }
        pivot = b;
        i = lo;
        j = lo;
        p = hi;
        while (j <= p) {
            int64_t v = buf[j];
            if (v < pivot) {
                buf[j] = buf[i];
                buf[i] = v;
                i++;
                j++;
            } else if (v > pivot) {
                buf[j] = buf[p];
                buf[p] = v;
                p--;
            } else {
                j++;
            }
        }
        if (target < i)
            hi = i - 1;
        else if (target > p)
            lo = p + 1;
        else
            return pivot;
    }
}

#if defined(__GNUC__)
#define SPECIALISED static inline __attribute__((always_inline))
#else
#define SPECIALISED static inline
#endif

/* The sweep itself.  capped is a constant at both calls in
 * majpop_solve_rounds, so each call compiles to its own loop and the
 * uncapped one carries no cap test. */
SPECIALISED int run_rows(int64_t *values, int64_t n, const int64_t *row_counts,
                         int64_t m, uint8_t *matrix, int take_largest,
                         int64_t delta, int policy, uint64_t seed,
                         const int64_t *caps, int64_t *stranded, const int capped)
{
    int64_t *work, *scratch, *ties, *keys, *keybuf, *placed, *open_cols;
    int64_t span = n + 1;
    uint64_t state = seed;
    int64_t i;
    int status = 0;

    if (n <= 0)
        return 0;
    work = calloc((size_t)n * 6, sizeof *work);
    if (work == NULL)
        return -1;
    scratch = work;
    ties = work + n;
    keys = work + 2 * n;
    keybuf = work + 3 * n;
    placed = work + 4 * n;
    open_cols = work + 5 * n;

    for (i = 0; i < m; i++) {
        int64_t need = row_counts[i];
        uint8_t *row = matrix + i * n;
        int64_t width = n, thr, taken = 0, t = 0, k, j, u;
        if (need == 0)
            continue;
        if (capped) {
            /* Gather the open columns, in index order, and their values. */
            width = 0;
            for (j = 0; j < n; j++) {
                if (placed[j] < caps[j]) {
                    open_cols[width] = j;
                    scratch[width++] = values[j];
                }
            }
            if (need > width) {
                stranded[0] = i;
                stranded[1] = width;
                status = 1;
                break;
            }
        } else {
            for (j = 0; j < n; j++)
                scratch[j] = values[j];
        }
        thr = take_largest ? kth_smallest(scratch, width, width - need)
                           : kth_smallest(scratch, width, need - 1);
        /* First pass: take every strictly better column, stage the ties.
         * Which columns pass is data-dependent and mispredicts as a
         * branch, so every column is written: those not taken get their
         * own values back and a 0 bit, and the stage slot is overwritten. */
        for (u = 0; u < width; u++) {
            int64_t v, better;
            j = capped ? open_cols[u] : u;
            v = values[j];
            better = take_largest ? v > thr : v < thr;
            values[j] = v + better * delta;
            row[j] = (uint8_t)better;
            placed[j] += better;
            taken += better;
            ties[t] = j;
            t += v == thr;
        }
        k = need - taken;
        if (k <= 0)
            continue;
        if (k > t)
            k = t;
        if (k == t || policy == POLICY_LOWEST || policy == POLICY_HIGHEST) {
            /* A contiguous run of the staged ties: all of them when k == t
             * (no draw, as in _pick_ties), else the first or the last k.
             * Clamping k above, not testing k < t here, keeps this branch
             * as fast as separate loops (valley fills, gcc 12 -O2). */
            int64_t first = policy == POLICY_HIGHEST ? t - k : 0;
            for (u = first; u < first + k; u++)
                take(values, row, placed, ties[u], delta);
        } else if (policy == POLICY_LOAD_ORDER) {
            /* Prefer columns already loaded the most; break remaining ties
             * by low index when shaving peaks and high index when filling
             * valleys.  The index term makes every key distinct. */
            int64_t kth;
            for (u = 0; u < t; u++) {
                j = ties[u];
                keys[u] = placed[j] * span + (take_largest ? n - 1 - j : j);
                keybuf[u] = keys[u];
            }
            kth = kth_smallest(keybuf, t, t - k);
            for (u = 0; u < t; u++)
                if (keys[u] >= kth)
                    take(values, row, placed, ties[u], delta);
        } else {
            /* Partial Fisher-Yates over the staged ties; one draw per pick. */
            for (u = 0; u < k; u++) {
                uint64_t z = splitmix64(&state);
                int64_t w = u + (int64_t)(z % (uint64_t)(t - u));
                j = ties[w];
                ties[w] = ties[u];
                ties[u] = j;
                take(values, row, placed, j, delta);
            }
        }
    }
    free(work);
    return status;
}

/* Run all rows in place; returns 0 on success, 1 when a row is stranded
 * below the caps, -1 when scratch memory cannot be allocated.
 *
 * values: int64[n] running profile, modified in place.
 * row_counts: int64[m] units to place per row.
 * matrix: uint8[m, n] output, zero-initialized by the caller.
 * take_largest: select columns holding the largest values (else smallest).
 * delta: +1 or -1 applied to each selected column.
 * policy: POLICY_* code; seed feeds the splitmix64 stream for POLICY_RANDOM.
 * caps: int64[n] most units each column may take over the sweep, or NULL
 *     for no caps.
 * stranded: int64[2] out; on status 1, the stranded row's index and how
 *     many columns were still open in it.  Rows before it are written to
 *     values and matrix; it and the rows after it are not.
 */
int majpop_solve_rounds(int64_t *values, int64_t n, const int64_t *row_counts,
                        int64_t m, uint8_t *matrix, int take_largest,
                        int64_t delta, int policy, uint64_t seed,
                        const int64_t *caps, int64_t *stranded)
{
    if (caps == NULL)
        return run_rows(values, n, row_counts, m, matrix, take_largest, delta,
                        policy, seed, NULL, stranded, 0);
    return run_rows(values, n, row_counts, m, matrix, take_largest, delta,
                    policy, seed, caps, stranded, 1);
}
