/* Compiled row sweep for the peak-shaving and valley-filling solvers.
 *
 * The columns are sorted once, better value first and then by index, and
 * the sweep keeps that order from row to row.  Row i reads its threshold at
 * position r_i - 1, takes every column before the threshold block, and picks
 * among the block, whose slots are already in index order.  A row moves
 * every column it takes by one unit, so only the blocks at the threshold and
 * one unit either side of it can fall out of order, and the row restores
 * the order by merging those alone.  The total is O(n log n + sum_i (r_i +
 * t_i)), with t_i the columns in the blocks row i touches.  Tie handling,
 * the load-order keys and the splitmix64 stream match the test suite's
 * reference sweep (tests/helpers.py, reference_sweep) bit for bit.
 *
 * With column caps, the order holds the open columns alone: a column that
 * reaches its cap leaves it, so each row selects among its open columns, in
 * index order, as solvers._split_selection does over ``allowed``.  A row
 * that needs more columns than are open strands the sweep: the function
 * reports the row and its open count and returns 1.
 *
 * The one entry point is majpop_solve_rounds, which takes the sizes, the
 * side, the step and the policy code in one int64 frame and writes a
 * stranded row back into it.  Its one caller is _sweepmodule.c, the
 * CPython binding built with this file into the extension module that
 * _speedups loads; this file includes no Python header.  The binding
 * converts the Python vectors into the int64 buffers and allocates the
 * matrix; _speedups.sweep checks that delta is +1 or -1 and the policy
 * code is one below.  The row counts, caps and values are checked here,
 * in one pass each before anything is written: 0 <= row_counts[i] <= n,
 * 0 <= caps[j], and no value can leave the int64 range over m rows.  The
 * Python callers make no such pass of their own; only when this code
 * refuses an input do they rerun their checks, to name the cause.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define POLICY_LOWEST 0
#define POLICY_HIGHEST 1
#define POLICY_LOAD_ORDER 2
#define POLICY_RANDOM 3

#define STATUS_BAD_ROW_COUNT 2
#define STATUS_NEGATIVE_CAP 3
#define STATUS_VALUE_RANGE 4

/* The slots of majpop_solve_rounds' frame: read on the way in, and the
 * last two written on the way out when a row is stranded. */
#define FRAME_N 0
#define FRAME_M 1
#define FRAME_TAKE_LARGEST 2
#define FRAME_DELTA 3
#define FRAME_POLICY 4
#define FRAME_STRANDED_ROW 5
#define FRAME_STRANDED_OPEN 6

/* Inlined into each caller: the per-row helpers, and the sweep into its
 * two specialised copies. */
#if defined(__GNUC__)
#define INLINE static inline __attribute__((always_inline))
#else
#define INLINE static inline
#endif

static uint64_t splitmix64(uint64_t *state)
{
    uint64_t z;
    *state += UINT64_C(0x9E3779B97F4A7C15);
    z = *state;
    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    return z ^ (z >> 31);
}

/* Take column j into the current row: set its bit and, where placements
 * are counted, count this one.  Its value moves in the caller's level
 * array. */
static void take(uint8_t *row, int64_t *placed, int64_t j)
{
    row[j] = 1;
    if (placed != NULL)
        placed[j]++;
}

/* level[from..to) = value */
static void fill(int64_t *level, int64_t from, int64_t to, int64_t value)
{
    for (; from < to; from++)
        level[from] = value;
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

/* Merge the ascending column lists x[0..nx) and y[0..ny) into dst, from
 * both ends at once: the two halves do not wait on each other, so their
 * reads overlap.  Each list has a sentinel on either side: x[-1] and y[-1]
 * hold -1, and x[nx] and y[ny] a number above every column. */
INLINE void merge(int64_t *dst, const int64_t *x, int64_t nx, const int64_t *y, int64_t ny)
{
    const int64_t *x_back = x + nx - 1, *y_back = y + ny - 1;
    int64_t *dst_back = dst + nx + ny - 1, c;
    for (c = (nx + ny) / 2; c > 0; c--) {
        int64_t front_x = *x, front_y = *y, back_x = *x_back, back_y = *y_back;
        int64_t front_from_y = front_y < front_x, back_from_y = back_y > back_x;
        *dst++ = front_from_y ? front_y : front_x;
        x += !front_from_y;
        y += front_from_y;
        *dst_back-- = back_from_y ? back_y : back_x;
        x_back -= !back_from_y;
        y_back -= back_from_y;
    }
    if ((nx + ny) % 2)
        *dst = *x < *y ? *x : *y;
}

/* Put the sentinels merge reads around list[0..count), n being above every
 * column. */
static void bracket(int64_t *list, int64_t count, int64_t n)
{
    list[-1] = -1;
    list[count] = n;
}

/* dst[0..count) = src[0..count), where dst lies before src or the two do
 * not overlap: short lists by a loop, which costs less than a call. */
INLINE void move_down(int64_t *dst, const int64_t *src, int64_t count)
{
    if (count > 32) {
        memmove(dst, src, (size_t)count * sizeof *dst);
    } else {
        int64_t u;
        for (u = 0; u < count; u++)
            dst[u] = src[u];
    }
}

/* Merge the ascending column lists x[0..nx), in scratch, and y[0..ny),
 * which lies in order no earlier than dst, into dst[0..nx+ny).  When one
 * list ends before the other starts, the lists are moved whole; only lists
 * that interleave are merged, y then first copied to spare.  x and spare
 * have a free slot either side for merge's sentinels; n is above every
 * column. */
INLINE void merge_into(int64_t *dst, int64_t *x, int64_t nx, int64_t *y, int64_t ny,
                       int64_t *spare, int64_t n)
{
    if (nx == 0) {
        if (dst != y)
            move_down(dst, y, ny);
    } else if (ny == 0) {
        move_down(dst, x, nx);
    } else if (y[ny - 1] < x[0]) {
        move_down(dst, y, ny);
        move_down(dst + ny, x, nx);
    } else if (x[nx - 1] < y[0]) {
        if (dst + nx != y)
            memmove(dst + nx, y, (size_t)ny * sizeof *dst);
        move_down(dst, x, nx);
    } else {
        memcpy(spare, y, (size_t)ny * sizeof *spare);
        bracket(x, nx, n);
        bracket(spare, ny, n);
        merge(dst, x, nx, spare, ny);
    }
}

/* Sort cols[0..count) by key[col], larger first, keeping the order of
 * equal keys: nothing to do when they already are in order, else insertion
 * sort on runs of 16, then merge passes that go back and forth between cols
 * and tmp. */
static void sort_by_key(int64_t *cols, int64_t count, int64_t *tmp, const int64_t *key)
{
    int64_t *src = cols, *dst = tmp, *swap, width, lo;
    for (lo = 1; lo < count && key[cols[lo - 1]] >= key[cols[lo]]; lo++)
        ;
    if (lo >= count)
        return;
    for (lo = 0; lo < count; lo += 16) {
        int64_t hi = lo + 16 < count ? lo + 16 : count, x, y;
        for (x = lo + 1; x < hi; x++) {
            int64_t c = cols[x];
            for (y = x; y > lo && key[cols[y - 1]] < key[c]; y--)
                cols[y] = cols[y - 1];
            cols[y] = c;
        }
    }
    for (width = 16; width < count; width *= 2) {
        for (lo = 0; lo < count; lo += 2 * width) {
            int64_t mid = lo + width < count ? lo + width : count;
            int64_t hi = lo + 2 * width < count ? lo + 2 * width : count;
            int64_t x = lo, y = mid, d = lo;
            while (x < mid && y < hi)
                dst[d++] = key[src[y]] > key[src[x]] ? src[y++] : src[x++];
            while (x < mid)
                dst[d++] = src[x++];
            while (y < hi)
                dst[d++] = src[y++];
        }
        swap = src;
        src = dst;
        dst = swap;
    }
    if (src != cols)
        memcpy(cols, src, (size_t)count * sizeof *cols);
}

/* A value's sort key, and back: the value itself when the sweep takes the
 * largest values, else its bitwise complement, which reverses the order
 * and, unlike negation, cannot overflow. */
static int64_t key_of(int64_t value, int take_largest)
{
    return take_largest ? value : ~value;
}

/* Pick k of the block order[s..e) by the tie policy and take them.  The
 * picks go to picks[0..k) and the rest to order[s+k..e), each in index
 * order; picks[-1] is a scratch slot. */
INLINE void pick(int64_t *order, int64_t s, int64_t t, int64_t k, int policy,
                 int take_largest, int64_t n, uint8_t *row, int64_t *placed,
                 uint64_t *state, int64_t *picks, int64_t *a, int64_t *b)
{
    int64_t u, j, *picks_end, *rest_end;
    if (k == t || policy == POLICY_LOWEST) {
        for (u = 0; u < k; u++) {
            j = order[s + u];
            picks[u] = j;
            take(row, placed, j);
        }
        return;
    }
    if (policy == POLICY_HIGHEST) {
        for (u = 0; u < k; u++) {
            j = order[s + t - k + u];
            picks[u] = j;
            take(row, placed, j);
        }
        memmove(order + s + k, order + s, (size_t)(t - k) * sizeof *order);
        return;
    }
    if (policy == POLICY_LOAD_ORDER) {
        /* Prefer columns already loaded the most; break remaining ties by
         * low index when shaving peaks and high index when filling
         * valleys.  The index term makes every key distinct. */
        int64_t kth;
        for (u = 0; u < t; u++) {
            j = order[s + u];
            a[u] = placed[j] * (n + 1) + (take_largest ? n - 1 - j : j);
            b[u] = a[u];
        }
        kth = kth_smallest(b, t, t - k);
        for (u = 0; u < t; u++) {
            /* take() without a branch: the block's row bits are all 0. */
            int64_t picked = a[u] >= kth;
            j = order[s + u];
            row[j] = (uint8_t)picked;
            placed[j] += picked;
        }
    } else {
        /* Partial Fisher-Yates over a copy of the block; one draw per
         * pick. */
        memcpy(a, order + s, (size_t)t * sizeof *a);
        for (u = 0; u < k; u++) {
            uint64_t z = splitmix64(state);
            int64_t w = u + (int64_t)(z % (uint64_t)(t - u));
            j = a[w];
            a[w] = a[u];
            a[u] = j;
            take(row, placed, j);
        }
    }
    /* The picks have their row bits set: a stable partition, from the back
     * and without a branch.  Each column is written to both lists and only
     * its own list's cursor moves on.  Once the picks are all placed, their
     * writes land in picks[-1]; once the rest are, theirs land in the
     * block's front, which holds only columns already read. */
    picks_end = picks + k;
    rest_end = order + s + t;
    for (u = s + t - 1; u >= s; u--) {
        int64_t picked;
        j = order[u];
        picked = row[j];
        picks_end[-1] = j;
        rest_end[-1] = j;
        picks_end -= picked;
        rest_end -= !picked;
    }
}

/* The sweep itself.  capped is a constant at both calls in
 * majpop_solve_rounds, so each call compiles to its own loop and the
 * uncapped one carries no cap test.
 *
 * order[lo..n) holds the open columns, larger key first, equal keys by
 * index, and level[u] is the current key of column order[u] (key_of its
 * value); values[j] is written when column j closes and, for the columns
 * still open, at the end.  A taken column's key moves by step: down when
 * shaving peaks and filling valleys, up for general_max.  placed counts
 * each column's placements where the caps or the load-order keys read
 * them, and is NULL elsewhere.  Scratch: the counts, order, level, and two
 * regions a and b of n + 4 slots for the column lists a row merges. */
INLINE int run_rows(int64_t *values, int64_t n, const int64_t *row_counts,
                    int64_t m, uint8_t *matrix, int take_largest,
                    int64_t delta, int policy, uint64_t seed,
                    const int64_t *caps, int64_t *stranded, const int capped)
{
    int64_t *work, *placed, *order, *level, *a, *b;
    int64_t step = take_largest ? delta : -delta, lo, i, j, u;
    uint64_t state = seed;
    int status = 0;

    if (n <= 0 || m <= 0)
        return 0;
    work = calloc((size_t)n * 5 + 8, sizeof *work);
    if (work == NULL)
        return -1;
    placed = capped || policy == POLICY_LOAD_ORDER ? work : NULL;
    order = work + n;
    level = work + 2 * n;
    a = work + 3 * n;
    b = a + n + 4;

    /* Sort the open columns once, into the tail of order; b holds each
     * column's key meanwhile. */
    lo = n;
    for (j = n - 1; j >= 0; j--) {
        b[j] = key_of(values[j], take_largest);
        order[lo - 1] = j;
        lo -= !capped || caps[j] > 0;
    }
    sort_by_key(order + lo, n - lo, a, b);
    for (u = lo; u < n; u++)
        level[u] = b[order[u]];

    for (i = 0; i < m; i++) {
        int64_t need = row_counts[i];
        uint8_t *row = matrix + i * n;
        int64_t pos, thr, s, e, t, k, p, f, ahead, behind, nb, rest, end;
        int64_t *picks = b + 1;
        if (need == 0)
            continue;
        if (need > n - lo) {
            stranded[0] = i;
            stranded[1] = n - lo;
            status = 1;
            break;
        }
        /* The threshold block order[s..e), where level reads thr, and k,
         * the picks it owes. */
        pos = lo + need - 1;
        thr = level[pos];
        if (step < 0) {
            /* One scan each way from pos: level reads thr, then thr + 1
             * before it and thr - 1 after it. */
            for (p = pos, ahead = 1; p > lo && level[p - 1] <= thr + 1; p--)
                ahead += level[p - 1] == thr;
            for (f = pos + 1, behind = 0; f < n && level[f] >= thr - 1; f++)
                behind += level[f] == thr;
            s = pos + 1 - ahead;
            e = pos + 1 + behind;
        } else {
            for (s = pos; s > lo && level[s - 1] == thr; s--)
                ;
            for (e = pos + 1; e < n && level[e] == thr; e++)
                ;
        }
        t = e - s;
        k = pos - s + 1;

        if (step < 0) {
            /* Shaving and filling move the taken columns one key down.  The
             * block order[p..s) at thr + 1 lands on thr and merges with the
             * ties left in order[s+k..e), and the picks land on thr - 1 and
             * merge with the block order[e..f).  The block order[p..s) and
             * the picks go to lists in a and b first, with room to copy the
             * other two next to them. */
            int64_t *above = a + 1;
            int64_t na = 0, closed;
            pick(order, s, t, k, policy, take_largest, n, row, placed, &state, picks, a, b);
            nb = k;
            if (capped) {
                /* Picks that reached their caps leave the order. */
                nb = 0;
                for (u = 0; u < k; u++) {
                    j = picks[u];
                    values[j] = key_of(thr - 1, take_largest);
                    picks[nb] = j;
                    nb += placed[j] < caps[j];
                }
            }
            for (u = p; u < s; u++) {
                j = order[u];
                take(row, placed, j);
                above[na] = j;
                if (capped) {
                    values[j] = key_of(thr, take_largest);
                    na += placed[j] < caps[j];
                } else {
                    level[u] = thr;
                    na++;
                }
            }
            closed = (s - p - na) + (k - nb);
            merge_into(order + p + closed, above, na, order + s + k, t - k, above + na + 2, n);
            merge_into(order + e - nb, picks, nb, order + e, f - e, picks + nb + 2, n);
            /* Without caps order[p..e-k) already reads thr in level. */
            if (capped)
                fill(level, p + closed, e - nb, thr);
            fill(level, e - nb, e, thr - 1);
            end = p + closed;
            rest = p;
        } else if (!capped && (k == t || policy == POLICY_LOWEST)) {
            /* general_max with the picks first in the block: they move one
             * key up and already stand where they belong, just after the
             * prefix. */
            for (u = s; u < s + k; u++)
                take(row, placed, order[u]);
            fill(level, s, s + k, thr + 1);
            end = s;
            rest = s;
        } else {
            /* general_max: the picks move one key up and go just before
             * the ties left in order[s+k..e). */
            pick(order, s, t, k, policy, take_largest, n, row, placed, &state, picks, a, b);
            nb = k;
            if (capped) {
                nb = 0;
                for (u = 0; u < k; u++) {
                    j = picks[u];
                    values[j] = key_of(thr + 1, take_largest);
                    picks[nb] = j;
                    nb += placed[j] < caps[j];
                }
            }
            memcpy(order + s + k - nb, picks, (size_t)nb * sizeof *order);
            fill(level, s + k - nb, s + k, thr + 1);
            end = s + k - nb;
            rest = s;
        }
        /* Take every column in order[lo..rest): its keys all move by step,
         * so it stays sorted.  With caps, its open columns close up to end
         * on order[end - 1]. */
        if (capped) {
            for (u = rest - 1; u >= lo; u--) {
                int64_t key = level[u] + step;
                j = order[u];
                take(row, placed, j);
                values[j] = key_of(key, take_largest);
                order[end - 1] = j;
                level[end - 1] = key;
                end -= placed[j] < caps[j];
            }
            lo = end;
        } else {
            for (u = lo; u < rest; u++) {
                take(row, placed, order[u]);
                level[u] += step;
            }
        }
    }
    for (u = lo; u < n; u++)
        values[order[u]] = key_of(level[u], take_largest);
    free(work);
    return status;
}

/* Run all rows in place; returns 0 on success, 1 when a row is stranded
 * below the caps, -1 when scratch memory cannot be allocated, and, with
 * nothing written, STATUS_BAD_ROW_COUNT when a row count lies outside
 * [0, n], STATUS_NEGATIVE_CAP when a cap is negative, and
 * STATUS_VALUE_RANGE when a value lies within m of an int64 limit, where m
 * unit steps could take it out of range.
 *
 * values: int64[n] running profile, modified in place.
 * row_counts: int64[m] units to place per row.
 * matrix: uint8[m, n] output, zero-initialized by the caller.
 * caps: int64[n] most units each column may take over the sweep, or NULL
 *     for no caps.
 * frame: int64[7], the FRAME_* slots.  In: n, m, take_largest (select
 *     columns holding the largest values, else the smallest), delta (+1 or
 *     -1, applied to each selected column) and the POLICY_* code.  Out, on
 *     status 1: the stranded row's index and how many columns were still
 *     open in it.  Rows before it are written to values and matrix; it and
 *     the rows after it are not.
 * seed: feeds the splitmix64 stream for POLICY_RANDOM.
 */
int majpop_solve_rounds(int64_t *values, const int64_t *row_counts, uint8_t *matrix,
                        const int64_t *caps, int64_t *frame, uint64_t seed)
{
    int64_t n = frame[FRAME_N], m = frame[FRAME_M], delta = frame[FRAME_DELTA], i;
    int take_largest = frame[FRAME_TAKE_LARGEST] != 0, policy = (int)frame[FRAME_POLICY];
    int64_t *stranded = frame + FRAME_STRANDED_ROW;
    /* Read as unsigned, a negative count exceeds every n. */
    for (i = 0; i < m; i++)
        if ((uint64_t)row_counts[i] > (uint64_t)n)
            return STATUS_BAD_ROW_COUNT;
    if (caps != NULL)
        for (i = 0; i < n; i++)
            if (caps[i] < 0)
                return STATUS_NEGATIVE_CAP;
    for (i = 0; i < n; i++)
        if (values[i] < INT64_MIN + m || values[i] > INT64_MAX - m)
            return STATUS_VALUE_RANGE;
    if (caps == NULL)
        return run_rows(values, n, row_counts, m, matrix, take_largest, delta,
                        policy, seed, NULL, stranded, 0);
    return run_rows(values, n, row_counts, m, matrix, take_largest, delta,
                    policy, seed, caps, stranded, 1);
}
