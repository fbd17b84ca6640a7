/* The compiled row sweep of the peak-shaving and valley-filling solvers,
 * the tie search that enumerates their optima, the canonical profile they
 * share, the JSON text of a 0/1 matrix, and their CPython binding: the
 * extension module majpop._sweep, which _speedups builds from this file
 * alone, and whose four functions are _speedups.sweep,
 * _speedups.search_ties, _speedups.profile and _speedups.write_matrix.
 *
 * The columns are sorted once, better value first and then by index, and
 * the sweep keeps that order from row to row.  Row i reads its threshold at
 * position r_i - 1, takes every column before the threshold block, and picks
 * among the block, whose slots are already in index order.  A row moves
 * every column it takes by one unit, so only the blocks at the threshold and
 * one unit either side of it can fall out of order, and the row restores
 * the order by merging those alone.  The total is O(n log n + sum_i (r_i +
 * t_i)), with t_i the columns in the blocks row i touches.  Tie handling
 * and the splitmix64 stream match the test suite's reference sweep
 * (tests/helpers.py, reference_sweep) bit for bit.
 *
 * load_order needs no keys of its own.  Within a tie block every column
 * holds the same value v = start_j + delta * placed_j, so its placements
 * so far, (v - start_j) / delta, rank the block as the start profile
 * does, in every row alike.  The load-order ranking is therefore one
 * fixed order of the columns: start descending when delta is -1 and
 * ascending when it is +1, then index ascending when the sweep takes the
 * largest values and descending when it takes the smallest.
 * run_load_order labels the columns in that order once, runs the
 * lowest-index sweep on the labels, and writes the cells, the values and
 * the ranking back through them, so it costs what lowest_index costs.
 *
 * With column caps, the order holds the open columns alone: a column that
 * reaches its cap leaves it, so each row selects among its open columns, in
 * index order, as the reference's _split_selection does over ``allowed``.
 * A row that needs more columns than are open strands the sweep.
 *
 * The order also gives the final profile sorted: the open columns stand in
 * it by final value, and a capped sweep's closed columns, which left it,
 * are sorted apart and merged in (rank_columns), in O(n + c log c) for c
 * closed columns.
 *
 * run_rows is the sweep, search_rows, after it, the tie search, and
 * hull_profile the profile; all three take plain C arguments.  The
 * binding, at the end of this file, converts the Python vectors into int64
 * buffers and checks them in one pass each before anything is written:
 * 0 <= row_counts[i] <= n, 0 <= caps[j], and no value can leave the int64
 * range over m rows (a profile's values are uint64 instead, which it sums
 * in 128 bits).  It runs the sweep, the search or the profile with the
 * interpreter lock released, and raises every error itself, with the
 * text the Python callers show.  They make no pass of their own; only
 * when this code refuses an input do they rerun their checks, to name the
 * cause.  A sweep returns the finished
 * majpop._cells.SolveResult, its Cells and both objective tuples built
 * here (finished), so no Python code runs between the solver's call and
 * its result.  write_matrix, last, streams a matrix's text to a Python
 * write callable, one 64 KiB chunk at a time.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
/* PyMemberDef, whose offsets locate the slots of Cells. */
#include <structmember.h>

#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The tie policies, numbered as their names stand in _speedups.POLICIES. */
#define POLICY_LOWEST 0
#define POLICY_HIGHEST 1
#define POLICY_LOAD_ORDER 2
#define POLICY_RANDOM 3

/* Inlined into each caller: the per-row helpers, and the sweep into its
 * four specialised copies.  Kept out of line: the relabelled sweep. */
#if defined(__GNUC__)
#define INLINE static inline __attribute__((always_inline))
#define NOINLINE __attribute__((noinline))
#else
#define INLINE static inline
#define NOINLINE
#endif

/* The matrix text's functions go into a section of their own, which the
 * linker puts after the one holding every other function, so adding them
 * moved no function of the sweep, the search or the profile: a timing
 * that follows an edit here may otherwise be the layout's (see
 * _speedups._COMPILE). */
#if defined(__GNUC__) && defined(__ELF__)
#define APART __attribute__((section(".text.apart")))
#else
#define APART
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

/* Column j's cell in the current row: cell label[j] when the sweep runs
 * on relabelled columns (run_load_order), else cell j. */
INLINE uint8_t *cell(uint8_t *row, const int64_t *label, int64_t j)
{
    return row + (label == NULL ? j : label[j]);
}

/* Take column j into the current row: set its bit and, where placements
 * are counted, count this one.  Its value moves in the caller's level
 * array. */
INLINE void take(uint8_t *row, const int64_t *label, int64_t *placed, int64_t j)
{
    *cell(row, label, j) = 1;
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

/* Pick k of the block order[s..e) by the tie policy (any but load_order,
 * which run_load_order turns into lowest_index) and take them.  The picks
 * go to picks[0..k) and the rest to order[s+k..e), each in index order;
 * picks[-1] is a scratch slot. */
INLINE void pick(int64_t *order, int64_t s, int64_t t, int64_t k, int policy, uint8_t *row,
                 const int64_t *label, int64_t *placed, uint64_t *state, int64_t *picks, int64_t *a)
{
    int64_t u, j, *picks_end, *rest_end;
    if (k == t || policy == POLICY_LOWEST) {
        for (u = 0; u < k; u++) {
            j = order[s + u];
            picks[u] = j;
            take(row, label, placed, j);
        }
        return;
    }
    if (policy == POLICY_HIGHEST) {
        for (u = 0; u < k; u++) {
            j = order[s + t - k + u];
            picks[u] = j;
            take(row, label, placed, j);
        }
        memmove(order + s + k, order + s, (size_t)(t - k) * sizeof *order);
        return;
    }
    /* Partial Fisher-Yates over a copy of the block; one draw per pick. */
    memcpy(a, order + s, (size_t)t * sizeof *a);
    for (u = 0; u < k; u++) {
        uint64_t z = splitmix64(state);
        int64_t w = u + (int64_t)(z % (uint64_t)(t - u));
        j = a[w];
        a[w] = a[u];
        a[u] = j;
        take(row, label, placed, j);
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
        picked = *cell(row, label, j);
        picks_end[-1] = j;
        rest_end[-1] = j;
        picks_end -= picked;
        rest_end -= !picked;
    }
}

/* The columns by final value, largest first, into ranked[0..n), once the
 * sweep has run: the open columns, order[lo..n) with their keys in
 * level[lo..n), already stand in key order; the closed ones, those at
 * their caps (caps may be NULL only when lo is 0), are sorted by key into
 * order[0..lo) and merged in.  A larger key is a larger value when the
 * sweep takes the largest values, else a smaller one, so that order is
 * written from the back.  key and tmp are scratch of n slots. */
static void rank_columns(int64_t *ranked, const int64_t *values, int64_t n, int64_t *order,
                         int64_t *level, int64_t lo, const int64_t *placed, const int64_t *caps,
                         int take_largest, int64_t *key, int64_t *tmp)
{
    int64_t j, u, x = 0, y = lo, c = 0;
    for (j = 0; j < n && c < lo; j++)
        if (placed[j] >= caps[j]) {
            order[c++] = j;
            key[j] = key_of(values[j], take_largest);
        }
    sort_by_key(order, lo, tmp, key);
    for (u = 0; u < lo; u++)
        level[u] = key[order[u]];
    for (u = 0; u < n; u++) {
        j = y == n || (x < lo && level[x] >= level[y]) ? order[x++] : order[y++];
        ranked[take_largest ? u : n - 1 - u] = j;
    }
}

/* Run all rows on inputs check_inputs passed; returns 0, 1 when a row is
 * stranded below the caps, or -1 when there is no scratch memory.
 *
 * values: int64[n] running profile, modified in place.
 * row_counts: int64[m] units to place per row.
 * matrix: uint8[m, n] output, zero-initialized by the caller.
 * take_largest: select the columns holding the largest values, else the
 *     smallest; delta (+1 or -1) is applied to each selected column.
 * policy: a POLICY_* code other than POLICY_LOAD_ORDER, which
 *     run_load_order runs; seed feeds the splitmix64 stream for
 *     POLICY_RANDOM.
 * caps: int64[n] most units each column may take over the sweep, or NULL.
 * stranded: on return 1, the stranded row's need and how many columns
 *     were still open in it.  Rows before it are written to values and
 *     matrix; it and the rows after it are not.
 * label: NULL, or, from run_load_order, the column of matrix each of the
 *     n columns here stands for; the sweep writes column j's cells to
 *     column label[j], and values, caps and ranked stay in its own order.
 * capped: whether caps is given.  It and label are constants at every
 *     call, so each call compiles to its own loop: the uncapped ones carry
 *     no cap test, and the binding's own ones no relabelling.
 *
 * order[lo..n) holds the open columns, larger key first, equal keys by
 * index, and level[u] is the current key of column order[u] (key_of its
 * value); values[j] is written when column j closes and, for the columns
 * still open, at the end.  A taken column's key moves by step: down when
 * shaving peaks and filling valleys, up for general_max.  placed counts
 * each column's placements where the caps read them, and is NULL
 * elsewhere.  Scratch: the counts, order, level, and two
 * regions a and b of n + 4 slots for the column lists a row merges. */
INLINE int run_rows(int64_t *values, int64_t n, const int64_t *row_counts,
                    int64_t m, uint8_t *matrix, int take_largest,
                    int64_t delta, int policy, uint64_t seed,
                    const int64_t *caps, int64_t *stranded, int64_t *ranked,
                    const int64_t *label, const int capped)
{
    int64_t *work, *placed, *order, *level, *a, *b;
    int64_t step = take_largest ? delta : -delta, lo, i, j, u;
    uint64_t state = seed;
    int status = 0;

    if (n <= 0)
        return 0;
    work = calloc((size_t)n * 5 + 8, sizeof *work);
    if (work == NULL)
        return -1;
    placed = capped ? work : NULL;
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
            stranded[0] = need;
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
            pick(order, s, t, k, policy, row, label, placed, &state, picks, a);
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
                take(row, label, placed, j);
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
                take(row, label, placed, order[u]);
            fill(level, s, s + k, thr + 1);
            end = s;
            rest = s;
        } else {
            /* general_max: the picks move one key up and go just before
             * the ties left in order[s+k..e). */
            pick(order, s, t, k, policy, row, label, placed, &state, picks, a);
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
                take(row, label, placed, j);
                values[j] = key_of(key, take_largest);
                order[end - 1] = j;
                level[end - 1] = key;
                end -= placed[j] < caps[j];
            }
            lo = end;
        } else {
            for (u = lo; u < rest; u++) {
                take(row, label, placed, order[u]);
                level[u] += step;
            }
        }
    }
    for (u = lo; u < n; u++)
        values[order[u]] = key_of(level[u], take_largest);
    if (status == 0)
        rank_columns(ranked, values, n, order, level, lo, placed, caps, take_largest, b, a);
    free(work);
    return status;
}

/* A load_order sweep, on run_rows' arguments but the policy: lowest_index
 * on the columns labelled in the load-order ranking (see the top of this
 * file), which picks the lowest labels of each block, the very columns
 * load_order picks.  Nothing else in a sweep reads an index, so the
 * cells, written through label, the values and the ranking, mapped back,
 * and a stranded row are the load_order sweep's own.  (general_max's
 * blocks never mix starts at all: a column below another open one is
 * taken only with it, so the gap between them never closes.)
 *
 * Scratch: 3n slots on top of run_rows' own, for label (label to column),
 * and the start profile and caps in label order.  Not inlined, so the
 * binding's sweep, where the other policies run, keeps its layout. */
static NOINLINE int run_load_order(int64_t *values, int64_t n, const int64_t *row_counts,
                                   int64_t m, uint8_t *matrix, int take_largest, int64_t delta,
                                   const int64_t *caps, int64_t *stranded, int64_t *ranked)
{
    int64_t *work, *label, *start, *own_caps, u;
    int status;

    if (n <= 0)
        return 0;
    work = malloc((size_t)n * 3 * sizeof *work);
    if (work == NULL)
        return -1;
    label = work;
    start = work + n;        /* the sort keys, by column, until the sort ends */
    own_caps = work + 2 * n; /* the sort's scratch until then */
    /* Start descending when delta is -1, else ascending; stable, so equal
     * starts keep the index order set here. */
    for (u = 0; u < n; u++) {
        label[u] = take_largest ? u : n - 1 - u;
        start[u] = key_of(values[u], delta < 0);
    }
    sort_by_key(label, n, own_caps, start);
    for (u = 0; u < n; u++) {
        start[u] = values[label[u]];
        if (caps != NULL)
            own_caps[u] = caps[label[u]];
    }
    if (caps == NULL)
        status = run_rows(start, n, row_counts, m, matrix, take_largest, delta, POLICY_LOWEST, 0,
                          NULL, stranded, ranked, label, 0);
    else
        status = run_rows(start, n, row_counts, m, matrix, take_largest, delta, POLICY_LOWEST, 0,
                          own_caps, stranded, ranked, label, 1);
    if (status == 0)
        for (u = 0; u < n; u++) {
            values[label[u]] = start[u];
            ranked[u] = label[ranked[u]];
        }
    free(work);
    return status;
}

/* ---- Tie enumeration ----
 *
 * search_rows resolves every row's ties in every way, breadth first
 * over the rows.  Each level holds the distinct running profiles (the
 * keys) in the order they were first reached, with an open-addressing
 * table over the level's keys; a state keeps the first path that reached
 * it, as its parent's index in the level before and the row's picks.
 * A key's hash is a sum of one term per column, so a child's hash follows
 * from its parent's at the columns it moves. */

/* One column's term in a key's hash. */
static uint64_t cell_hash(int64_t j, int64_t value)
{
    uint64_t z = (uint64_t)value * UINT64_C(0x9E3779B97F4A7C15)
                 + (uint64_t)j * UINT64_C(0xC2B2AE3D27D4EB4F);
    z = (z ^ (z >> 30)) * UINT64_C(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)) * UINT64_C(0x94D049BB133111EB);
    return z ^ (z >> 31);
}

/* p resized to count items of size bytes, or NULL, with p still valid,
 * when the size overflows or the memory is not there. */
static void *resized(void *p, int64_t count, size_t size)
{
    if (count <= 0)
        count = 1;
    if ((uint64_t)count > SIZE_MAX / size)
        return NULL;
    return realloc(p, (size_t)count * size);
}

/* An empty table of at least twice want slots, a power of two; -1 marks
 * an empty slot.  Returns the new mask, or -1 when there is no memory. */
static int64_t clear_table(int64_t **table, int64_t *room, int64_t want)
{
    int64_t size = 64;
    while (size < 2 * want)
        size *= 2;
    if (size > *room) {
        int64_t *grown = resized(*table, size, sizeof *grown);
        if (grown == NULL)
            return -1;
        *table = grown;
        *room = size;
    }
    memset(*table, 0xff, (size_t)size * sizeof **table);
    return size - 1;
}

/* Resolve every row's ties in every way, on inputs check_inputs passed;
 * returns 0, 1 when the distinct states (the start profile and each
 * level's profiles) pass the budget, or -1 when memory runs out.
 *
 * start: int64[n] starting profile.
 * row_counts: int64[m] units to place per row.
 * caps: int64[n] most units each column may take over the rows, or NULL.
 * take_largest and delta: as for run_rows.
 * draws: on return 1, the children drawn, every one a row's tie
 *     resolution, new or not.
 * count, keys, cells: on return 0, the number of final profiles, and
 *     malloc'd buffers the caller frees: the profiles, count * n, in the
 *     order first reached, and one witness matrix per profile,
 *     count * m * n bytes, row-major.
 *
 * Each state selects as the sweep does, among its open columns (those
 * below their caps): the need-th best value is the threshold, every open
 * column better than it is taken, and the columns at it are the ties.  A
 * state with fewer open columns than its row needs has no children.  Its
 * children leave out each combination of the ties it does not need, in
 * lexicographic order of the left-out columns (itertools.combinations
 * order), which fixes the key order and each key's witness. */
static int search_rows(const int64_t *start, int64_t n, const int64_t *row_counts, int64_t m,
                       const int64_t *caps, int take_largest, int64_t delta, int64_t budget,
                       int64_t *draws_out, int64_t *count_out, int64_t **keys, uint8_t **cells)
{
    /* Two levels of keys and their hashes, the table over the next one,
     * and for every state since the start, numbered in the order reached:
     * its parent's number and its row's picks, as n bytes of 0 and 1.
     * The current level's states are numbered from base on. */
    int64_t *cur = NULL, *next = NULL, *table = NULL, *parent = NULL;
    uint64_t *cur_hash = NULL, *next_hash = NULL;
    uint8_t *picks = NULL, *out = NULL;
    int64_t *work = NULL, *open_values, *forced, *ties, *taken, *combo;
    uint64_t *moved_back;
    int64_t count = 1, cur_room = 1, next_room = 0, table_room = 0, history_room = 1;
    int64_t base = 0, states = 1, draws = 0;
    int64_t i, j, u;
    int status;

    *draws_out = 0;
    if (states > budget)
        return 1;
    /* The open columns' values, forced, ties, taken and combo, and each
     * tie's hash change. */
    work = resized(NULL, 6 * n, sizeof *work);
    cur = resized(NULL, n, sizeof *cur);
    cur_hash = resized(NULL, 1, sizeof *cur_hash);
    parent = resized(NULL, 1, sizeof *parent);
    picks = resized(NULL, n, 1);
    status = -1;
    if (!work || !cur || !cur_hash || !parent || !picks)
        goto done;
    open_values = work;
    forced = work + n;
    ties = work + 2 * n;
    taken = work + 3 * n;
    combo = work + 4 * n;
    moved_back = (uint64_t *)(work + 5 * n);
    cur_hash[0] = 0;
    for (j = 0; j < n; j++) {
        cur[j] = start[j];
        cur_hash[0] += cell_hash(j, start[j]);
    }
    parent[0] = -1;
    memset(picks, 0, (size_t)n);

    for (i = 0; i < m; i++) {
        int64_t need = row_counts[i], next_count = 0, s, mask, room, *swap;
        uint64_t *swap_hash;
        mask = clear_table(&table, &table_room, count);
        if (mask < 0)
            goto done;
        for (s = 0; s < count; s++) {
            const int64_t *values = cur + s * n;
            uint64_t hash = cur_hash[s];
            int64_t n_open = 0, nf = 0, nt = 0, k = 0, q, x;
            for (j = 0; j < n; j++)
                if (caps == NULL || (values[j] - start[j]) * delta < caps[j])
                    open_values[n_open++] = values[j];
            if (need > n_open)
                continue; /* this branch strands the row */
            if (need > 0) {
                int64_t thr = take_largest ? kth_smallest(open_values, n_open, n_open - need)
                                           : kth_smallest(open_values, n_open, need - 1);
                for (j = 0; j < n; j++) {
                    int64_t v = values[j];
                    if (caps != NULL && (v - start[j]) * delta >= caps[j])
                        continue;
                    if (v == thr)
                        ties[nt++] = j;
                    else if (take_largest ? v > thr : v < thr)
                        forced[nf++] = j;
                }
                k = need - nf;
            }
            /* Take the forced columns and every tie, then give back, child
             * by child, the q ties it leaves out. */
            memcpy(taken, values, (size_t)n * sizeof *taken);
            for (u = 0; u < nf + nt; u++) {
                uint64_t moved;
                j = u < nf ? forced[u] : ties[u - nf];
                moved = cell_hash(j, taken[j] + delta) - cell_hash(j, taken[j]);
                hash += moved;
                taken[j] += delta;
                if (u >= nf)
                    moved_back[u - nf] = -moved;
            }
            q = nt - k;
            for (x = 0; x < q; x++)
                combo[x] = x;
            for (;;) {
                int64_t *child, slot, found = 0;
                uint64_t child_hash = hash;
                draws++;
                if (next_count >= next_room) {
                    int64_t *grown;
                    uint64_t *grown_hash;
                    room = 2 * next_room > 64 ? 2 * next_room : 64;
                    grown = resized(next, room * n, sizeof *grown);
                    if (grown == NULL)
                        goto done;
                    next = grown;
                    grown_hash = resized(next_hash, room, sizeof *grown_hash);
                    if (grown_hash == NULL)
                        goto done;
                    next_hash = grown_hash;
                    next_room = room;
                }
                child = next + next_count * n;
                memcpy(child, taken, (size_t)n * sizeof *child);
                for (x = 0; x < q; x++) {
                    child[ties[combo[x]]] -= delta;
                    child_hash += moved_back[combo[x]];
                }
                for (slot = (int64_t)(child_hash & (uint64_t)mask); table[slot] >= 0;
                     slot = (slot + 1) & mask) {
                    int64_t seen = table[slot];
                    if (next_hash[seen] == child_hash &&
                        memcmp(next + seen * n, child, (size_t)n * sizeof *child) == 0) {
                        found = 1;
                        break;
                    }
                }
                if (!found) {
                    int64_t id = states;
                    uint8_t *row;
                    if (id >= history_room) {
                        int64_t *grown;
                        uint8_t *grown_picks;
                        room = 2 * history_room;
                        grown = resized(parent, room, sizeof *grown);
                        if (grown == NULL)
                            goto done;
                        parent = grown;
                        grown_picks = resized(picks, room * n, 1);
                        if (grown_picks == NULL)
                            goto done;
                        picks = grown_picks;
                        history_room = room;
                    }
                    table[slot] = next_count;
                    next_hash[next_count] = child_hash;
                    parent[id] = base + s;
                    row = picks + id * n;
                    memset(row, 0, (size_t)n);
                    for (u = 0; u < nf; u++)
                        row[forced[u]] = 1;
                    for (u = 0; u < nt; u++)
                        row[ties[u]] = 1;
                    for (x = 0; x < q; x++)
                        row[ties[combo[x]]] = 0;
                    next_count++;
                    if (++states > budget) {
                        *draws_out = draws;
                        status = 1;
                        goto done;
                    }
                    if (2 * next_count > mask + 1) {
                        /* Rehash into a table twice the size. */
                        mask = clear_table(&table, &table_room, next_count);
                        if (mask < 0)
                            goto done;
                        for (u = 0; u < next_count; u++) {
                            for (slot = (int64_t)(next_hash[u] & (uint64_t)mask); table[slot] >= 0;
                                 slot = (slot + 1) & mask)
                                ;
                            table[slot] = u;
                        }
                    }
                }
                /* The next combination of q of the nt ties, if any. */
                for (x = q - 1; x >= 0 && combo[x] == nt - q + x; x--)
                    ;
                if (x < 0)
                    break;
                combo[x]++;
                for (x++; x < q; x++)
                    combo[x] = combo[x - 1] + 1;
            }
        }
        swap = cur;
        cur = next;
        next = swap;
        swap_hash = cur_hash;
        cur_hash = next_hash;
        next_hash = swap_hash;
        room = cur_room;
        cur_room = next_room;
        next_room = room;
        base += count;
        count = next_count;
    }

    /* Each final profile's witness: walk its path back, row by row. */
    if (m > 0 && n > 0 && count > INT64_MAX / m / n)
        goto done;
    out = resized(NULL, count * m * n, 1);
    if (out == NULL)
        goto done;
    for (u = 0; u < count; u++) {
        int64_t id = base + u;
        for (i = m - 1; i >= 0; i--) {
            memcpy(out + (u * m + i) * n, picks + id * n, (size_t)n);
            id = parent[id];
        }
    }
    *count_out = count;
    *keys = cur;
    *cells = out;
    cur = NULL;
    status = 0;

done:
    free(cur);
    free(next);
    free(cur_hash);
    free(next_hash);
    free(table);
    free(parent);
    free(picks);
    free(work);
    return status;
}

/* ---- Canonical profiles ----
 *
 * hull_profile gives the nonincreasing form of an uncapped sweep's final
 * profile, shared by every tie resolution, without running the sweep.
 * With T_k = sum_i min(r_i, k), the prefix sums of the conjugate of the
 * row counts, the k columns with the largest values lose at most T_k
 * units over the rows, so the k largest entries of any shaved profile sum
 * to at least L_k = C_k - T_k, C_k the sum of the k largest values.  A
 * nonincreasing integer vector has concave prefix sums, so they lie on or
 * above the least concave majorant of the points (k, L_k), and the sweep's
 * profile meets it: each hull segment of length d and rise S holds S mod d
 * entries of ceil(S / d) and the rest floor(S / d).  Adjacent segments
 * with the same floor interleave, so runs of them are emitted together,
 * their ceilings first.  Filling is shaving the negated profile: the
 * result is the negation of that shave, reversed.  O(m + n log n). */

#ifndef __SIZEOF_INT128__
#error "the profile's arithmetic needs a compiler with __int128"
#endif
/* __extension__: ISO C has no 128-bit type, and -pedantic says so. */
__extension__ typedef __int128 wide;

/* Profiles take fewer columns than this, so the hull's cross products
 * stay inside wide: each step of L moves by less than 2**65, and the two
 * segment lengths multiplied are at most n*n/4, so |S1 * d2| < n*n * 2**63. */
#define PROFILE_MAX_COLUMNS (INT64_C(1) << 32)

/* floor(num / den), with den > 0, and its remainder in [0, den). */
static wide floor_div(wide num, int64_t den, int64_t *rem)
{
    wide q = num / den, r = num % den;
    if (r < 0) {
        q--;
        r += den;
    }
    *rem = (int64_t)r;
    return q;
}

/* The canonical profile of the uncapped sweep of values[0..n) by
 * row_counts[0..m), nonincreasing, into out[0..n), on inputs the binding
 * passed: every row count in [0, n] and n below PROFILE_MAX_COLUMNS.
 * take_largest shaves (each row takes one unit off its largest values),
 * else each row adds one unit to its smallest.  Returns 0, 1 or 2 when a
 * shave's feasibility tests disagree (below), or -1 when there is no
 * scratch memory.
 *
 * A shave is feasible when its smallest entry is not negative, which is
 * the test completion.feasible_min_remaining,
 * completion.gale_ryser_feasible, completion.construct_matrix and
 * solvers.feasible read, all through completion._absorbs.  As a check on
 * the hull, that sign test is compared (status 1) with the prefix test on
 * the same sorted values: every suffix sum of the values at least that of
 * the conjugate, that is L_n at least every L_k.  That test is compared in
 * turn (status 2) with the other side of Gale-Ryser, the row counts weakly
 * submajorized by the conjugate of the values clamped at m: for k = 1..m,
 * the k largest row counts sum to at most sum_j min(values_j, k), whose
 * steps #{j : values_j >= k} and the row counts in nonincreasing order are
 * both read off sorted arrays by a cursor, in O(m + n). */
static int hull_profile(const uint64_t *values, int64_t n, const int64_t *row_counts, int64_t m,
                        int take_largest, wide *out)
{
    /* The columns by value, their sort keys and the merge scratch; the
     * conjugate, conj[k] = #{i : r_i >= k}; and the hull, its points'
     * abscissas at[] and ordinates ys[]. */
    int64_t *work, *cols, *key, *tmp, *conj, *at, top, j, k, pos, kth_row, at_least;
    wide *ys, level = 0, highest = 0, sign = take_largest ? 1 : -1, row_sum = 0, column_sum = 0;
    int status = 0;

    if (n <= 0)
        return 0;
    /* The wide ordinates first, where malloc's alignment holds for them. */
    ys = malloc((size_t)(n + 1) * sizeof *ys + (size_t)(5 * n + 2) * sizeof *work);
    if (ys == NULL)
        return -1;
    work = (int64_t *)(ys + n + 1);
    cols = work;
    key = work + n;
    tmp = work + 2 * n;
    conj = work + 3 * n;
    at = conj + n + 1;

    /* Larger keys first: the values, largest first when shaving and
     * smallest first when filling, by their bits mapped onto int64. */
    for (j = 0; j < n; j++) {
        int64_t ordered = (int64_t)(values[j] ^ (UINT64_C(1) << 63));
        cols[j] = j;
        key[j] = take_largest ? ordered : ~ordered;
    }
    sort_by_key(cols, n, tmp, key);
    memset(conj, 0, (size_t)(n + 1) * sizeof *conj);
    for (j = 0; j < m; j++)
        conj[row_counts[j]]++;
    for (k = n - 1; k >= 1; k--)
        conj[k] += conj[k + 1];

    /* The upper hull of (k, L_k), k = 0..n, L_k = sign * (sum of the k
     * first sorted values) - T_k: a point leaves the stack when it lies on
     * or below the line from the point before it to the next one. */
    at[0] = 0;
    ys[0] = 0;
    top = 0;
    for (k = 1; k <= n; k++) {
        level += sign * (wide)values[cols[k - 1]] - conj[k];
        if (level > highest)
            highest = level;
        while (top > 0 &&
               (ys[top] - ys[top - 1]) * (k - at[top]) <= (level - ys[top]) * (at[top] - at[top - 1]))
            top--;
        top++;
        at[top] = k;
        ys[top] = level;
    }

    /* Each segment's entries, ceilings first; a run of segments with one
     * floor is emitted as one, so the output stays nonincreasing. */
    for (pos = 0, j = 1; j <= top;) {
        int64_t ceilings = 0, floors = 0, rem, u;
        wide q = floor_div(ys[j] - ys[j - 1], at[j] - at[j - 1], &rem);
        do {
            ceilings += rem;
            floors += at[j] - at[j - 1] - rem;
            j++;
        } while (j <= top && floor_div(ys[j] - ys[j - 1], at[j] - at[j - 1], &rem) == q);
        for (u = 0; u < ceilings + floors; u++, pos++) {
            wide v = sign * (u < ceilings ? q + 1 : q);
            out[take_largest ? pos : n - 1 - pos] = v;
        }
    }
    if (take_largest) {
        /* kth_row: the k-th largest row count, max{l : conj[l] >= k};
         * at_least: #{j : values_j >= k}. */
        kth_row = at_least = n;
        for (k = 1; k <= m && row_sum <= column_sum; k++) {
            while (kth_row > 0 && conj[kth_row] < k)
                kth_row--;
            while (at_least > 0 && values[cols[at_least - 1]] < (uint64_t)k)
                at_least--;
            row_sum += kth_row;
            column_sum += at_least;
        }
        if ((out[n - 1] >= 0) != (level >= highest))
            status = 1;
        else if ((row_sum <= column_sum) != (level >= highest))
            status = 2;
    }
    free(ys);
    return status;
}

/* ---- The CPython binding ----
 *
 * sweep(values, row_counts, take_largest, delta, policy, seed[, caps])
 * and search_ties(values, row_counts, take_largest, delta, caps, budget)
 * take the profile, the row counts and the caps (or None) as lists or
 * tuples of ints.  Each checks delta (and sweep the policy name), converts
 * the vectors to int64, checks them with check_inputs, and runs run_rows
 * or search_rows with the interpreter lock released.  sweep returns a
 * SolveResult, built by finished; search_ties, the final profiles and
 * their witnesses.  profile(values, row_counts, take_largest) converts
 * the profile to uint64 and the row counts to int64, checks the counts
 * alone, and returns hull_profile's result as a tuple of ints.
 *
 * The entries are converted in order (the profile, the row counts, the
 * caps' length, the caps) and the first refusal raises, so the error
 * names the first cause.  A cap above the int64 range never binds, and
 * becomes m; a budget above it becomes the largest int64, and one below
 * it 0.  An entry that is not an int raises TypeError.  The seed is taken
 * mod 2**64. */

/* From majpop.errors, majpop._cells and majpop._speedups, set at import:
 * the three errors, the Cells and SolveResult classes, and the policy names.
 * Also set there: the offsets of Cells' three slots, and SolveResult's
 * field names in its __init__'s order, interned. */
static PyObject *infeasible_error, *budget_error, *internal_error, *cells_type, *result_type,
    *policy_names;
static Py_ssize_t data_slot, shape_slot, array_slot;
static PyObject *field_names[4];

/* Convert the first n entries of the list or tuple seq into out.  Returns
 * 0, or -1 with an exception set: ValueError(refusal) for an entry outside
 * the int64 range.  With clamp >= 0, an entry above the range becomes
 * clamp instead.  An entry that is not an exact int runs its own
 * __index__, which may change a list, so each entry is looked up afresh
 * and held while it converts. */
static int convert(PyObject *seq, int64_t *out, Py_ssize_t n, int64_t clamp, const char *refusal)
{
    Py_ssize_t i;
    for (i = 0; i < n; i++) {
        PyObject *item;
        long long v;
        int overflow;
        if (i >= PySequence_Fast_GET_SIZE(seq)) {
            PyErr_SetString(PyExc_RuntimeError, "sequence changed size during conversion");
            return -1;
        }
        item = PySequence_Fast_GET_ITEM(seq, i);
        Py_INCREF(item);
        v = PyLong_AsLongLongAndOverflow(item, &overflow);
        Py_DECREF(item);
        if (overflow > 0 && clamp >= 0) {
            v = clamp;
        } else if (overflow) {
            PyErr_SetString(PyExc_ValueError, refusal);
            return -1;
        } else if (v == -1 && PyErr_Occurred()) {
            return -1;
        }
        out[i] = v;
    }
    return 0;
}

/* ValueError unless every row count lies in [0, n].  Returns 0 or -1. */
static int check_row_counts(const int64_t *row_counts, int64_t n, int64_t m)
{
    int64_t i;
    /* Read as unsigned, a negative count exceeds every n. */
    for (i = 0; i < m; i++)
        if ((uint64_t)row_counts[i] > (uint64_t)n) {
            PyErr_Format(PyExc_ValueError, "row counts must lie in [0, %lld]", (long long)n);
            return -1;
        }
    return 0;
}

/* The checks made before anything is written, in one pass each, with
 * ValueError for the first refused: a row count outside [0, n], a negative
 * cap (caps may be NULL), or a value within m of an int64 limit, where m
 * unit steps could take it out of range.  Returns 0 or -1. */
static int check_inputs(const int64_t *values, const int64_t *row_counts,
                        const int64_t *caps, int64_t n, int64_t m)
{
    int64_t i;
    if (check_row_counts(row_counts, n, m) < 0)
        return -1;
    if (caps != NULL)
        for (i = 0; i < n; i++)
            if (caps[i] < 0) {
                PyErr_SetString(PyExc_ValueError, "caps must be nonnegative");
                return -1;
            }
    for (i = 0; i < n; i++)
        if (values[i] < INT64_MIN + m || values[i] > INT64_MAX - m) {
            PyErr_SetString(PyExc_ValueError,
                            "values too close to the int64 limits for this many rows");
            return -1;
        }
    return 0;
}

/* The profile, row counts and caps of one call, as sequences and as int64
 * buffers: values[n], rows[m], and caps[n] or NULL; and, for a sweep,
 * ranked[n], its columns by final value. */
struct inputs {
    PyObject *values_seq, *rows_seq, *caps_seq;
    int64_t *buffer, *values, *rows, *caps, *ranked;
    Py_ssize_t n, m;
};

/* Convert and check the profile, the row counts and the caps (or None)
 * into in, with room for ranked when with_ranked is set.  Returns 0, or
 * -1 with an exception set; release(in) either way. */
static int load(PyObject *values, PyObject *rows, PyObject *caps, int with_ranked, struct inputs *in)
{
    in->values_seq = PySequence_Fast(values, "the profile must be a sequence");
    if (in->values_seq == NULL)
        return -1;
    in->rows_seq = PySequence_Fast(rows, "the row counts must be a sequence");
    if (in->rows_seq == NULL)
        return -1;
    if (caps != Py_None) {
        in->caps_seq = PySequence_Fast(caps, "the caps must be a sequence");
        if (in->caps_seq == NULL)
            return -1;
    }
    in->n = PySequence_Fast_GET_SIZE(in->values_seq);
    in->m = PySequence_Fast_GET_SIZE(in->rows_seq);
    in->buffer = PyMem_New(int64_t, (size_t)in->n * (1 + (in->caps_seq != NULL) + (with_ranked != 0)) +
                                        (size_t)in->m);
    if (in->buffer == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    in->values = in->buffer;
    in->rows = in->buffer + in->n;
    in->ranked = in->rows + in->m + (in->caps_seq == NULL ? 0 : in->n);

    if (convert(in->values_seq, in->values, in->n, -1, "values must lie within the int64 range") < 0 ||
        convert(in->rows_seq, in->rows, in->m, -1, "row counts must lie within the int64 range") < 0)
        return -1;
    if (in->caps_seq != NULL) {
        in->caps = in->rows + in->m;
        if (PySequence_Fast_GET_SIZE(in->caps_seq) != in->n) {
            PyErr_Format(PyExc_ValueError, "caps must have %zd entries, not %zd", in->n,
                         PySequence_Fast_GET_SIZE(in->caps_seq));
            return -1;
        }
        if (convert(in->caps_seq, in->caps, in->n, in->m, "caps must lie within the int64 range") < 0)
            return -1;
    }
    return check_inputs(in->values, in->rows, in->caps, in->n, in->m);
}

static void release(struct inputs *in)
{
    Py_XDECREF(in->values_seq);
    Py_XDECREF(in->rows_seq);
    Py_XDECREF(in->caps_seq);
    PyMem_Free(in->buffer);
}

/* delta as +1 or -1, or 0 with an exception set. */
static int64_t step_of(PyObject *delta)
{
    if (PyIndex_Check(delta)) {
        int overflow;
        long long d = PyLong_AsLongLongAndOverflow(delta, &overflow);
        if (d == -1 && PyErr_Occurred())
            return 0;
        if (!overflow && (d == 1 || d == -1))
            return d;
    }
    PyErr_Format(PyExc_ValueError, "delta must be +1 or -1, not %R", delta);
    return 0;
}

/* The POLICY_* code of a policy name, its index in policy_names, or -1
 * with an exception set. */
static int policy_code(PyObject *policy)
{
    Py_ssize_t code;
    for (code = 0; code < PyTuple_GET_SIZE(policy_names); code++) {
        int same = PyObject_RichCompareBool(PyTuple_GET_ITEM(policy_names, code), policy, Py_EQ);
        if (same != 0)
            return same < 0 ? -1 : (int)code;
    }
    PyErr_Format(PyExc_ValueError, "unknown tie policy %R", policy);
    return -1;
}

/* values[0..n) as a tuple of ints, or NULL with an exception set. */
static PyObject *int_tuple(const int64_t *values, Py_ssize_t n)
{
    PyObject *tuple = PyTuple_New(n);
    Py_ssize_t j;
    if (tuple == NULL)
        return NULL;
    for (j = 0; j < n; j++) {
        PyObject *v = PyLong_FromLongLong(values[j]);
        if (v == NULL) {
            Py_DECREF(tuple);
            return NULL;
        }
        PyTuple_SET_ITEM(tuple, j, v);
    }
    return tuple;
}

/* The SolveResult of a finished sweep, built as SolveResult.__init__
 * would build it, but with no Python code run: the matrix, m rows of n
 * cells in a bytes, as Cells, allocated with its three slots set here;
 * the final profile values[0..n) as the objective; the same ints in the
 * order ranked[0..n) as the canonical objective; and feasible, delta > 0
 * or no value below 0.  The record's __dict__ gets the fields in
 * __init__'s order.  NULL with an exception set when memory runs out. */
static PyObject *finished(PyObject *matrix, Py_ssize_t m, Py_ssize_t n, const int64_t *values,
                          const int64_t *ranked, int64_t delta)
{
    PyTypeObject *cells_class = (PyTypeObject *)cells_type, *result_class = (PyTypeObject *)result_type;
    PyObject *fields[4] = {NULL, NULL, NULL, NULL}, *shape, *result = NULL, *dict = NULL;
    Py_ssize_t j;
    int u;

    fields[1] = int_tuple(values, n);
    if (fields[1] == NULL)
        goto done;
    fields[2] = PyTuple_New(n);
    if (fields[2] == NULL)
        goto done;
    for (j = 0; j < n; j++)
        PyTuple_SET_ITEM(fields[2], j, Py_NewRef(PyTuple_GET_ITEM(fields[1], ranked[j])));
    fields[3] = PyBool_FromLong(delta > 0 || n == 0 || values[ranked[n - 1]] >= 0);

    shape = Py_BuildValue("(nn)", m, n);
    if (shape == NULL)
        goto done;
    fields[0] = cells_class->tp_alloc(cells_class, 0);
    if (fields[0] == NULL) {
        Py_DECREF(shape);
        goto done;
    }
    *(PyObject **)((char *)fields[0] + data_slot) = Py_NewRef(matrix);
    *(PyObject **)((char *)fields[0] + shape_slot) = shape;
    *(PyObject **)((char *)fields[0] + array_slot) = Py_NewRef(Py_None);

    result = result_class->tp_alloc(result_class, 0);
    if (result == NULL)
        goto done;
    dict = PyObject_GenericGetDict(result, NULL);
    if (dict == NULL)
        goto fail;
    for (u = 0; u < 4; u++)
        if (PyDict_SetItem(dict, field_names[u], fields[u]) < 0)
            goto fail;
    goto done;
fail:
    Py_CLEAR(result);
done:
    Py_XDECREF(dict);
    for (u = 0; u < 4; u++)
        Py_XDECREF(fields[u]);
    return result;
}

static PyObject *sweep(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    struct inputs in = {0};
    PyObject *matrix = NULL, *result = NULL;
    int64_t stranded[2], delta;
    uint8_t *bytes;
    Py_ssize_t n, m;
    uint64_t seed;
    int take_largest, policy, status;

    (void)module;
    if (nargs != 6 && nargs != 7) {
        PyErr_Format(PyExc_TypeError, "sweep takes 6 or 7 arguments, not %zd", nargs);
        return NULL;
    }
    delta = step_of(args[3]);
    if (delta == 0)
        return NULL;
    policy = policy_code(args[4]);
    if (policy < 0)
        return NULL;
    take_largest = PyObject_IsTrue(args[2]);
    if (take_largest < 0)
        return NULL;
    seed = PyLong_AsUnsignedLongLongMask(args[5]);
    if (seed == (uint64_t)-1 && PyErr_Occurred())
        return NULL;
    if (load(args[0], args[1], nargs == 7 ? args[6] : Py_None, 1, &in) < 0)
        goto done;
    n = in.n;
    m = in.m;

    if (n > 0 && m > PY_SSIZE_T_MAX / n) {
        PyErr_NoMemory();
        goto done;
    }
    /* A bytes filled before anything else sees it: a failed allocation
     * leaves no object behind to deallocate. */
    matrix = PyBytes_FromStringAndSize(NULL, m * n);
    if (matrix == NULL)
        goto done;
    bytes = (uint8_t *)PyBytes_AS_STRING(matrix);
    memset(bytes, 0, (size_t)(m * n));
    Py_BEGIN_ALLOW_THREADS
    /* load_order last: tested first, its branch moved the other policies'
     * loops in this function, and lowest_index sweeps of wide tie blocks
     * read 4% slower in an in-process A/B. */
    if (policy != POLICY_LOAD_ORDER && in.caps == NULL)
        status = run_rows(in.values, n, in.rows, m, bytes, take_largest, delta, policy, seed,
                          NULL, stranded, in.ranked, NULL, 0);
    else if (policy != POLICY_LOAD_ORDER)
        status = run_rows(in.values, n, in.rows, m, bytes, take_largest, delta, policy, seed,
                          in.caps, stranded, in.ranked, NULL, 1);
    else
        status = run_load_order(in.values, n, in.rows, m, bytes, take_largest, delta, in.caps,
                                stranded, in.ranked);
    Py_END_ALLOW_THREADS
    if (status > 0) {
        PyErr_Format(infeasible_error, "a row needs %lld columns but only %lld remain below their caps",
                     (long long)stranded[0], (long long)stranded[1]);
        goto done;
    }
    if (status < 0) {
        PyErr_Format(PyExc_MemoryError, "no memory for the sweep's scratch buffers (%lld int64)",
                     (long long)(5 * n + 8 + (policy == POLICY_LOAD_ORDER ? 3 * n : 0)));
        goto done;
    }
    result = finished(matrix, m, n, in.values, in.ranked, delta);

done:
    Py_XDECREF(matrix);
    release(&in);
    return result;
}

/* keys[count * n] as a tuple of count tuples of n ints. */
static PyObject *key_tuples(const int64_t *keys, int64_t count, Py_ssize_t n)
{
    PyObject *all = PyTuple_New((Py_ssize_t)count);
    Py_ssize_t s;
    if (all == NULL)
        return NULL;
    for (s = 0; s < count; s++) {
        PyObject *key = int_tuple(keys + s * n, n);
        if (key == NULL) {
            Py_DECREF(all);
            return NULL;
        }
        PyTuple_SET_ITEM(all, s, key);
    }
    return all;
}

/* Raise BudgetExceededError for a search past budget, the caller's int,
 * with the children it drew as the error's draws. */
static void over_budget(PyObject *budget, int64_t draws)
{
    PyObject *text, *error, *drawn;
    text = PyUnicode_FromFormat("tie enumeration passed %S distinct states", budget);
    if (text == NULL)
        return;
    error = PyObject_CallOneArg(budget_error, text);
    Py_DECREF(text);
    if (error == NULL)
        return;
    drawn = PyLong_FromLongLong(draws);
    if (drawn != NULL && PyObject_SetAttrString(error, "draws", drawn) == 0)
        PyErr_SetObject(budget_error, error);
    Py_XDECREF(drawn);
    Py_DECREF(error);
}

static PyObject *search_ties(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    struct inputs in = {0};
    PyObject *keys = NULL, *cells = NULL, *result = NULL;
    int64_t *found = NULL, delta, draws, count = 0;
    uint8_t *witnesses = NULL;
    long long budget;
    int take_largest, status, overflow;

    (void)module;
    if (nargs != 6) {
        PyErr_Format(PyExc_TypeError, "search_ties takes 6 arguments, not %zd", nargs);
        return NULL;
    }
    delta = step_of(args[3]);
    if (delta == 0)
        return NULL;
    take_largest = PyObject_IsTrue(args[2]);
    if (take_largest < 0)
        return NULL;
    budget = PyLong_AsLongLongAndOverflow(args[5], &overflow);
    if (budget == -1 && PyErr_Occurred())
        return NULL;
    if (overflow)
        budget = overflow > 0 ? LLONG_MAX : 0;
    if (load(args[0], args[1], args[4], 0, &in) < 0)
        goto done;
    Py_BEGIN_ALLOW_THREADS
    status = search_rows(in.values, in.n, in.rows, in.m, in.caps, take_largest, delta, budget,
                         &draws, &count, &found, &witnesses);
    Py_END_ALLOW_THREADS
    if (status > 0) {
        over_budget(args[5], draws);
        goto done;
    }
    if (status < 0) {
        PyErr_SetString(PyExc_MemoryError, "no memory for the tie search");
        goto done;
    }
    keys = key_tuples(found, count, in.n);
    if (keys == NULL)
        goto done;
    cells = PyBytes_FromStringAndSize((const char *)witnesses, (Py_ssize_t)(count * in.m * in.n));
    if (cells != NULL)
        result = PyTuple_Pack(2, keys, cells);

done:
    Py_XDECREF(keys);
    Py_XDECREF(cells);
    free(found);
    free(witnesses);
    release(&in);
    return result;
}

/* Convert the first n entries of the list or tuple seq into out, as
 * convert does, with ValueError(refusal) for an entry outside [0, 2**64). */
static int convert_unsigned(PyObject *seq, uint64_t *out, Py_ssize_t n, const char *refusal)
{
    Py_ssize_t i;
    for (i = 0; i < n; i++) {
        PyObject *item, *index;
        unsigned long long v;
        if (i >= PySequence_Fast_GET_SIZE(seq)) {
            PyErr_SetString(PyExc_RuntimeError, "sequence changed size during conversion");
            return -1;
        }
        item = PySequence_Fast_GET_ITEM(seq, i);
        Py_INCREF(item);
        index = PyNumber_Index(item);
        Py_DECREF(item);
        if (index == NULL)
            return -1;
        v = PyLong_AsUnsignedLongLong(index);
        Py_DECREF(index);
        if (v == (unsigned long long)-1 && PyErr_Occurred()) {
            if (PyErr_ExceptionMatches(PyExc_OverflowError))
                PyErr_SetString(PyExc_ValueError, refusal);
            return -1;
        }
        out[i] = v;
    }
    return 0;
}

/* v as a Python int, or NULL with an exception set; past the int64 range
 * it is joined from its high and low words. */
static PyObject *wide_int(wide v)
{
    PyObject *high, *low, *shift, *shifted, *joined;
    if (v >= INT64_MIN && v <= INT64_MAX)
        return PyLong_FromLongLong((long long)v);
    high = PyLong_FromLongLong((long long)(v >> 64));
    low = PyLong_FromUnsignedLongLong((unsigned long long)(uint64_t)v);
    shift = PyLong_FromLong(64);
    shifted = high && shift ? PyNumber_Lshift(high, shift) : NULL;
    joined = shifted && low ? PyNumber_Add(shifted, low) : NULL;
    Py_XDECREF(high);
    Py_XDECREF(low);
    Py_XDECREF(shift);
    Py_XDECREF(shifted);
    return joined;
}

static PyObject *profile(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *values_seq = NULL, *rows_seq = NULL, *result = NULL;
    uint64_t *values;
    int64_t *rows;
    wide *out = NULL;
    Py_ssize_t n, m, j;
    int take_largest, status;

    (void)module;
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "profile takes 3 arguments, not %zd", nargs);
        return NULL;
    }
    take_largest = PyObject_IsTrue(args[2]);
    if (take_largest < 0)
        return NULL;
    values_seq = PySequence_Fast(args[0], "the profile must be a sequence");
    if (values_seq == NULL)
        goto done;
    rows_seq = PySequence_Fast(args[1], "the row counts must be a sequence");
    if (rows_seq == NULL)
        goto done;
    n = PySequence_Fast_GET_SIZE(values_seq);
    m = PySequence_Fast_GET_SIZE(rows_seq);
    if (n >= PROFILE_MAX_COLUMNS) {
        PyErr_SetString(PyExc_ValueError, "profiles take fewer than 2**32 columns");
        goto done;
    }
    /* The wide output first, where the allocator's alignment holds for it. */
    out = PyMem_Malloc((size_t)n * sizeof *out + (size_t)(n + m) * sizeof *values);
    if (out == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    values = (uint64_t *)(out + n);
    rows = (int64_t *)(values + n);
    if (convert_unsigned(values_seq, values, n, "values must lie in [0, 2**64)") < 0 ||
        convert(rows_seq, rows, m, -1, "row counts must lie within the int64 range") < 0 ||
        check_row_counts(rows, n, m) < 0)
        goto done;
    Py_BEGIN_ALLOW_THREADS
    status = hull_profile(values, n, rows, m, take_largest, out);
    Py_END_ALLOW_THREADS
    if (status > 0) {
        PyErr_SetString(internal_error, status == 1 ? "the sign test and the prefix test disagree on a shave's feasibility"
                                                    : "the prefix test and the clamped submajorization test disagree "
                                                      "on a shave's feasibility");
        goto done;
    }
    if (status < 0) {
        PyErr_Format(PyExc_MemoryError, "no memory for the profile's scratch buffers (%lld columns)",
                     (long long)n);
        goto done;
    }
    result = PyTuple_New(n);
    if (result == NULL)
        goto done;
    /* Equal entries, side by side, share one int. */
    for (j = 0; j < n; j++) {
        PyObject *v = j > 0 && out[j] == out[j - 1] ? Py_NewRef(PyTuple_GET_ITEM(result, j - 1))
                                                    : wide_int(out[j]);
        if (v == NULL) {
            Py_CLEAR(result);
            goto done;
        }
        PyTuple_SET_ITEM(result, j, v);
    }

done:
    Py_XDECREF(values_seq);
    Py_XDECREF(rows_seq);
    PyMem_Free(out);
    return result;
}

/* ---- A 0/1 matrix's JSON text ----
 *
 * write_matrix(cells, m, n, write) takes the cells of an m x n matrix as
 * m * n one-byte items, row-major with unit stride: a buffer of shape
 * (m * n) or (m, n), such as Cells.data or a C-order uint8 array.
 * With write None it only checks that every cell is 0 or 1.  Otherwise it
 * turns the rows into the compact JSON text of the nested lists,
 * "[[0,1],[1,0]]", in one buffer of TEXT_CHUNK bytes, or of one row and its
 * brackets if that is longer, and passes the buffer to write as a fresh
 * bytes object each time it fills.  A write that takes fewer bytes gets
 * the rest, and one that returns None raises BlockingIOError, as
 * cli._write_all does.  Each row is checked as it is turned into text, so a
 * cell other than 0 or 1 stops the stream before the chunk that holds it;
 * InternalInvariantError names the shape. */

#define TEXT_CHUNK ((Py_ssize_t)1 << 16)
#define BAD_CELL "the (%lld, %lld) matrix has an entry other than 0 or 1"

/* The OR of the n bytes at row, folded to one byte, read eight at a time. */
INLINE unsigned row_bits(const uint8_t *row, Py_ssize_t n)
{
    uint64_t seen = 0, word;
    Py_ssize_t j = 0;
    for (; j + 8 <= n; j += 8) {
        memcpy(&word, row + j, 8);
        seen |= word;
    }
    for (; j < n; j++)
        seen |= row[j];
    seen |= seen >> 32;
    seen |= seen >> 16;
    return (unsigned)((seen | seen >> 8) & 0xff);
}

/* Write the n bytes at row as "c," each into out[0..2n), and return their
 * OR. */
INLINE unsigned row_text(const uint8_t *row, Py_ssize_t n, char *out)
{
    unsigned seen = 0;
    Py_ssize_t j;
    for (j = 0; j < n; j++) {
        uint8_t c = row[j];
        seen |= c;
        out[2 * j] = (char)('0' + c);
        out[2 * j + 1] = ',';
    }
    return seen;
}

/* Pass text[0..len) to write until it has taken every byte.  Returns 0, or
 * -1 with an exception set. */
APART static int write_text(PyObject *write, const char *text, Py_ssize_t len)
{
    while (len > 0) {
        PyObject *chunk = PyBytes_FromStringAndSize(text, len), *taken;
        long long count;
        int overflow;
        if (chunk == NULL)
            return -1;
        taken = PyObject_CallOneArg(write, chunk);
        Py_DECREF(chunk);
        if (taken == NULL)
            return -1;
        if (taken == Py_None) {
            Py_DECREF(taken);
            PyErr_SetString(PyExc_BlockingIOError, "stdout would block");
            return -1;
        }
        count = PyLong_AsLongLongAndOverflow(taken, &overflow);
        if (!(count == -1 && PyErr_Occurred()) && (overflow || count < 0 || count > len))
            PyErr_Format(PyExc_RuntimeError, "write returned %R for %zd bytes", taken, len);
        Py_DECREF(taken);
        if (count < 0 || overflow || count > len)
            return -1;
        text += count;
        len -= (Py_ssize_t)count;
    }
    return 0;
}

APART static PyObject *write_matrix(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *view_object, *write, *result = NULL;
    const Py_buffer *view;
    long long m, n;
    Py_ssize_t piece, size, used = 0, i;
    const uint8_t *cells;
    char *text = NULL;
    unsigned seen = 0;
    int m_overflow, n_overflow, refused;

    (void)module;
    if (nargs != 4) {
        PyErr_Format(PyExc_TypeError, "write_matrix takes 4 arguments, not %zd", nargs);
        return NULL;
    }
    m = PyLong_AsLongLongAndOverflow(args[1], &m_overflow);
    if (m == -1 && PyErr_Occurred())
        return NULL;
    n = PyLong_AsLongLongAndOverflow(args[2], &n_overflow);
    if (n == -1 && PyErr_Occurred())
        return NULL;
    write = args[3];
    /* A memoryview holds the buffer until it is released. */
    view_object = PyMemoryView_FromObject(args[0]);
    if (view_object == NULL)
        return NULL;
    view = PyMemoryView_GET_BUFFER(view_object);
    cells = view->buf;
    if (m_overflow || n_overflow || m < 0 || n < 0 || m > PY_SSIZE_T_MAX || n > PY_SSIZE_T_MAX / 2 - 2 ||
        view->itemsize != 1) {
        PyErr_SetString(PyExc_ValueError, "write_matrix takes one-byte cells and a nonnegative shape");
        goto done;
    }
    /* The strides of an empty matrix, or of a dimension of length 1, are
     * never followed. */
    if (view->ndim == 2)
        refused = view->shape[0] != m || view->shape[1] != n || (m > 1 && n && view->strides[0] != n) ||
                  (n > 1 && m && view->strides[1] != 1);
    else
        refused = view->ndim != 1 ||
                  (n == 0 ? view->shape[0] != 0 : m > PY_SSIZE_T_MAX / n || view->shape[0] != m * n) ||
                  (view->shape[0] > 1 && view->strides[0] != 1);
    if (refused) {
        PyErr_Format(PyExc_ValueError, "the cells are not a row-major (%lld, %lld) matrix with unit stride", m, n);
        goto done;
    }

    if (write == Py_None) {
        for (i = 0; i < m && seen <= 1; i++)
            seen |= row_bits(cells + i * n, n);
        if (seen > 1)
            PyErr_Format(internal_error, BAD_CELL, m, n);
        else
            result = Py_NewRef(Py_None);
        goto done;
    }

    /* A row's text, "[c,...,c]" or "[]", with the "[" or "," before it; and
     * the buffer, which holds at least one such piece and the closing "]". */
    piece = n ? 2 * (Py_ssize_t)n + 2 : 3;
    size = piece + 1 > TEXT_CHUNK ? piece + 1 : TEXT_CHUNK;
    text = PyMem_Malloc((size_t)size);
    if (text == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (i = 0; i < m; i++) {
        if (used + piece > size) {
            if (write_text(write, text, used) < 0)
                goto done;
            used = 0;
        }
        text[used++] = i ? ',' : '[';
        text[used++] = '[';
        if (n) {
            seen |= row_text(cells + i * n, n, text + used);
            used += 2 * (Py_ssize_t)n;
            text[used - 1] = ']';
        } else {
            text[used++] = ']';
        }
        if (seen > 1) {
            PyErr_Format(internal_error, BAD_CELL, m, n);
            goto done;
        }
    }
    if (m == 0)
        text[used++] = '[';
    if (used == size) {
        if (write_text(write, text, used) < 0)
            goto done;
        used = 0;
    }
    text[used++] = ']';
    if (write_text(write, text, used) == 0)
        result = Py_NewRef(Py_None);

done:
    PyMem_Free(text);
    Py_DECREF(view_object);
    return result;
}

static PyMethodDef methods[] = {
    {"sweep", (PyCFunction)(void (*)(void))sweep, METH_FASTCALL,
     "sweep(start, row_counts, take_largest, delta, policy, seed, caps=None)\n"
     "--\n\n"
     "Run every row; returns the finished majpop.solvers.SolveResult: the\n"
     "final profile as the objective, its nonincreasing form, feasible, and\n"
     "the matrix as majpop._cells.Cells."},
    {"search_ties", (PyCFunction)(void (*)(void))search_ties, METH_FASTCALL,
     "search_ties(start, row_counts, take_largest, delta, caps, budget)\n"
     "--\n\n"
     "Resolve every row's ties in every way; returns the final profiles, a\n"
     "tuple of tuples in the order first reached, and their witness\n"
     "matrices, row-major, as one bytes."},
    {"profile", (PyCFunction)(void (*)(void))profile, METH_FASTCALL,
     "profile(start, row_counts, take_largest)\n"
     "--\n\n"
     "The nonincreasing final profile every uncapped sweep of start reaches,\n"
     "computed without a sweep or a matrix, as a tuple of ints."},
    {"write_matrix", (PyCFunction)(void (*)(void))write_matrix, METH_FASTCALL,
     "write_matrix(cells, m, n, write)\n"
     "--\n\n"
     "Check that every cell of the m x n 0/1 matrix, m * n row-major bytes\n"
     "with unit stride, is 0 or 1; unless write is None, pass its compact\n"
     "JSON text to write in chunks of 64 KiB, or of one row where a row is\n"
     "longer, each a fresh bytes."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef sweep_module = {
    PyModuleDef_HEAD_INIT, "majpop._sweep", "The compiled row sweep, tie search, profiles and matrix text.", -1,
    methods, NULL, NULL, NULL, NULL,
};

/* *out = module.name, a new reference.  Returns 0, or -1 with an
 * exception set. */
static int imported(const char *module, const char *name, PyObject **out)
{
    PyObject *from = PyImport_ImportModule(module);
    if (from == NULL)
        return -1;
    *out = PyObject_GetAttrString(from, name);
    Py_DECREF(from);
    return *out == NULL ? -1 : 0;
}

/* The offset of the slot name in instances of cells_type, read from the
 * class's own member descriptor, or -1 with an exception set. */
static Py_ssize_t slot_offset(const char *name)
{
    PyObject *descr = PyObject_GetAttrString(cells_type, name);
    Py_ssize_t offset = -1;
    if (descr == NULL)
        return -1;
    if (Py_IS_TYPE(descr, &PyMemberDescr_Type) &&
        PyDescr_TYPE(descr) == (PyTypeObject *)cells_type)
        offset = ((PyMemberDescrObject *)descr)->d_member->offset;
    else
        PyErr_Format(PyExc_TypeError, "_cells.Cells.%s must be a slot of its own", name);
    Py_DECREF(descr);
    return offset;
}

PyMODINIT_FUNC PyInit__sweep(void)
{
    static const char *names[4] = {"matrix", "objective", "canonical_objective", "feasible"};
    int u;
    if (imported("majpop.errors", "InfeasibleError", &infeasible_error) < 0 ||
        imported("majpop.errors", "BudgetExceededError", &budget_error) < 0 ||
        imported("majpop.errors", "InternalInvariantError", &internal_error) < 0 ||
        imported("majpop._cells", "Cells", &cells_type) < 0 ||
        imported("majpop._cells", "SolveResult", &result_type) < 0 ||
        imported("majpop._speedups", "POLICIES", &policy_names) < 0)
        return NULL;
    if (!PyTuple_Check(policy_names) || PyTuple_GET_SIZE(policy_names) != 4) {
        PyErr_SetString(PyExc_TypeError, "_speedups.POLICIES must be a tuple of 4 names");
        return NULL;
    }
    if (!PyType_Check(cells_type) || !PyType_Check(result_type) ||
        ((PyTypeObject *)result_type)->tp_dictoffset == 0) {
        PyErr_SetString(PyExc_TypeError, "_cells.Cells and _cells.SolveResult must be classes, "
                                         "and SolveResult's instances must have a __dict__");
        return NULL;
    }
    if ((data_slot = slot_offset("data")) < 0 || (shape_slot = slot_offset("shape")) < 0 ||
        (array_slot = slot_offset("_array")) < 0)
        return NULL;
    for (u = 0; u < 4; u++) {
        field_names[u] = PyUnicode_InternFromString(names[u]);
        if (field_names[u] == NULL)
            return NULL;
    }
    return PyModule_Create(&sweep_module);
}
