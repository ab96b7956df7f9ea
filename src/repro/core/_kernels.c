/* Scalar hot-path kernels for the incremental Costas evaluation engine.
 *
 * Compiled on demand by repro/core/_ckernels.py (plain `cc -O3 -shared
 * -fPIC`, no Python headers) and driven through ctypes; every function
 * mirrors, bit for bit, a NumPy implementation in repro/models/costas.py
 * that remains the fallback when no C toolchain is available.  The
 * equivalence test-suite exercises both paths against the full-recompute
 * reference model.
 *
 * Shared data layout (all arrays are C-contiguous int64, see DESIGN.md):
 *   p[n]            current permutation
 *   rows[(D+1)*n]   difference triangle, rows[d*n + k] = p[k+d] - p[k] + off
 *                   for k < n-d; off-triangle cells hold a sentinel
 *   cnt[(D+1)*Wx]   occurrence counts per distance d and shifted value v
 *   wd[D]           ERR(d) weights for d = 1..D
 *
 * The swap-scoring kernels apply each swap to cnt and revert it (below): they
 * write into cnt and return it exactly as they found it.
 */

#include <stdint.h>

typedef int64_t i64;

/* Swap scoring by apply-and-revert on the count tables.
 *
 * Per distance d a swap of columns i and j rewrites at most four triangle
 * cells: i-d, i, j-d, j (when |i-j| == d one cell spans both columns and
 * counts once).  Row d contributes ERR(d) * sum_v max(cnt[v] - 1, 0) to the
 * cost, a function of the counts alone, so a swap's delta is the cost after
 * all its events minus the cost before, whatever order the events run in.
 * That lets the culprit's cells (i-d, i) leave the tables once per scoring
 * call (costas_lift); each partner j then removes its own cells, adds every
 * new value, reads the delta and undoes both (costas_partner), and
 * costas_drop puts the culprit's cells back. */

/* Remove the culprit's cells from cnt; returns the cost change. */
static i64 costas_lift(const i64 *rows, i64 *cnt, i64 n, i64 D, i64 Wx,
                       const i64 *wd, i64 i)
{
    i64 delta = 0;
    for (i64 d = 1; d <= D; d++) {
        i64 *cn = cnt + d * Wx;
        const i64 *rw = rows + d * n;
        i64 w = wd[d - 1];
        if (i - d >= 0) {
            i64 u = rw[i - d];
            if (cn[u] >= 2) delta -= w;
            cn[u]--;
        }
        if (i + d < n) {
            i64 u = rw[i];
            if (cn[u] >= 2) delta -= w;
            cn[u]--;
        }
    }
    return delta;
}

/* Undo costas_lift. */
static void costas_drop(const i64 *rows, i64 *cnt, i64 n, i64 D, i64 Wx,
                        i64 i)
{
    for (i64 d = 1; d <= D; d++) {
        i64 *cn = cnt + d * Wx;
        const i64 *rw = rows + d * n;
        if (i - d >= 0) cn[rw[i - d]]++;
        if (i + d < n) cn[rw[i]]++;
    }
}

/* Cost change of swapping i with j beyond the lifted culprit cells: remove
 * j's own cells, add the swap's new values, then restore cnt. */
static i64 costas_partner(const i64 *p, const i64 *rows, i64 *cnt,
                          i64 n, i64 D, i64 Wx, i64 off, const i64 *wd,
                          i64 i, i64 j)
{
    i64 delta = 0;
    i64 db = p[j] - p[i];
    for (i64 d = 1; d <= D; d++) {
        i64 *cn = cnt + d * Wx;
        const i64 *rw = rows + d * n;
        i64 w = wd[d - 1];
        i64 add[4];
        int na = 0;
        /* j's cells, unless one of them is a lifted culprit cell. */
        int lo = j - d >= 0 && j - d != i, hi = j + d < n && j + d != i;
        if (lo) {
            i64 u = rw[j - d];
            if (cn[u] >= 2) delta -= w;
            cn[u]--;
            add[na++] = u - db;
        }
        if (hi) {
            i64 u = rw[j];
            if (cn[u] >= 2) delta -= w;
            cn[u]--;
            add[na++] = u + db;
        }
        /* The culprit's cells; a cell spanning both columns is negated. */
        if (i - d >= 0) add[na++] = (i - d == j) ? off + db : rw[i - d] + db;
        if (i + d < n) add[na++] = (i + d == j) ? off - db : rw[i] - db;
        for (int t = 0; t < na; t++) {
            if (cn[add[t]] >= 1) delta += w;
            cn[add[t]]++;
        }
        for (int t = 0; t < na; t++) cn[add[t]]--;
        if (lo) cn[rw[j - d]]++;
        if (hi) cn[rw[j]]++;
    }
    return delta;
}

/* deltas[j] = cost delta of swapping i with j (deltas[i] is left 0; the
 * caller installs its sentinel).  Mutates cnt while it runs and restores
 * it before returning, so one table set must not be scored from two threads
 * at once. */
void costas_swap_deltas(const i64 *p, const i64 *rows, i64 *cnt,
                        i64 n, i64 D, i64 Wx, i64 off, const i64 *wd,
                        i64 i, i64 *deltas)
{
    i64 base = costas_lift(rows, cnt, n, D, Wx, wd, i);
    for (i64 j = 0; j < n; j++)
        deltas[j] = (j == i) ? 0
            : base + costas_partner(p, rows, cnt, n, D, Wx, off, wd, i, j);
    costas_drop(rows, cnt, n, D, Wx, i);
}

/* Cost delta of swapping i with j; restores cnt like costas_swap_deltas. */
i64 costas_swap_delta(const i64 *p, const i64 *rows, i64 *cnt,
                      i64 n, i64 D, i64 Wx, i64 off, const i64 *wd,
                      i64 i, i64 j)
{
    if (i == j) return 0;
    i64 delta = costas_lift(rows, cnt, n, D, Wx, wd, i)
              + costas_partner(p, rows, cnt, n, D, Wx, off, wd, i, j);
    costas_drop(rows, cnt, n, D, Wx, i);
    return delta;
}

/* Apply the swap: update p, rows and cnt in place, return the cost delta. */
i64 costas_apply(i64 *p, i64 *rows, i64 *cnt,
                 i64 n, i64 D, i64 Wx, i64 off, const i64 *wd,
                 i64 i, i64 j)
{
    i64 delta = 0;
    i64 a = p[i], b = p[j];
    for (i64 d = 1; d <= D; d++) {
        i64 *cn = cnt + d * Wx;
        i64 *rw = rows + d * n;
        i64 w = wd[d - 1];
        i64 cells[4];
        int nc = 0;
        i64 k = i - d;
        if (k >= 0 && k != j) cells[nc++] = k;
        k = j - d;
        if (k >= 0 && k != i) cells[nc++] = k;
        if (i + d < n) cells[nc++] = i;
        if (j + d < n) cells[nc++] = j;
        for (int c = 0; c < nc; c++) {
            i64 kk = cells[c];
            i64 u = rw[kk];
            i64 x0 = p[kk], x1 = p[kk + d];
            if (kk == i) x0 = b; else if (kk == j) x0 = a;
            if (kk + d == i) x1 = b; else if (kk + d == j) x1 = a;
            i64 v = x1 - x0 + off;
            if (u == v) continue;
            if (cn[u] >= 2) delta -= w;
            cn[u] -= 1;
            if (cn[v] >= 1) delta += w;
            cn[v] += 1;
            rw[kk] = v;
        }
    }
    p[i] = b;
    p[j] = a;
    return delta;
}

/* Rebuild rows/cnt from the permutation; returns the full cost.  cnt rows
 * 0..D are zeroed, rows cells are filled (sentinel L off-triangle). */
i64 costas_rebuild(const i64 *p, i64 *rows, i64 *cnt,
                   i64 n, i64 D, i64 Wx, i64 off, i64 L, const i64 *wd)
{
    for (i64 t = 0; t < (D + 1) * Wx; t++) cnt[t] = 0;
    for (i64 t = 0; t < (D + 1) * n; t++) rows[t] = L;
    i64 cost = 0;
    for (i64 d = 1; d <= D; d++) {
        i64 *rw = rows + d * n;
        i64 *cn = cnt + d * Wx;
        i64 w = wd[d - 1];
        for (i64 k = 0; k + d < n; k++) {
            i64 v = p[k + d] - p[k] + off;
            rw[k] = v;
            if (cn[v] >= 1) cost += w; /* every extra occupant costs ERR(d) */
            cn[v] += 1;
        }
    }
    return cost;
}

/* Per-column errors: scanning each row left to right, every cell whose value
 * was already seen adds ERR(d) to both its columns.  `stamp` is a caller-owned
 * scratch of W entries; `base` is a strictly increasing epoch so the scratch
 * never needs clearing (stamp values from earlier calls can never equal
 * base + d). */
void costas_errors(const i64 *rows, i64 n, i64 D, const i64 *wd,
                   i64 *stamp, i64 base, i64 *errs)
{
    for (i64 c = 0; c < n; c++) errs[c] = 0;
    for (i64 d = 1; d <= D; d++) {
        const i64 *rw = rows + d * n;
        i64 w = wd[d - 1];
        i64 tag = base + d;
        for (i64 k = 0; k + d < n; k++) {
            i64 v = rw[k];
            if (stamp[v] == tag) {
                errs[k] += w;
                errs[k + d] += w;
            } else {
                stamp[v] = tag;
            }
        }
    }
}

/* Weighted duplicate count of one candidate permutation: per distance,
 * every occurrence of a value beyond its first costs ERR(d).  Same
 * epoch-stamped scratch as costas_errors, one fresh tag per distance.
 * Stops after the first distance whose partial cost exceeds `limit` and
 * returns that partial cost, so a result above `limit` only says "more
 * than limit".  The row scan is branch-free: a hit is rare and random, so
 * counting it beats predicting it. */
static i64 costas_cand_cost(const i64 *c, i64 n, i64 D, i64 off,
                            const i64 *wd, i64 *stamp, i64 *epoch, i64 limit)
{
    i64 cost = 0;
    for (i64 d = 1; d <= D; d++) {
        i64 tag = ++(*epoch);
        i64 dups = 0;
        for (i64 k = 0; k + d < n; k++) {
            i64 v = c[k + d] - c[k] + off;
            dups += stamp[v] == tag;
            stamp[v] = tag;
        }
        cost += wd[d - 1] * dups;
        if (cost > limit) return cost;
    }
    return cost;
}

/* Exact cost of m candidate permutations (the dedicated-reset scoring of
 * the NumPy engine); uses tags base+1 .. base+m*D of the stamp scratch. */
void costas_batch_costs(const i64 *cands, i64 m, i64 n, i64 D, i64 off,
                        const i64 *wd, i64 *stamp, i64 base, i64 *out)
{
    for (i64 r = 0; r < m; r++)
        out[r] = costas_cand_cost(cands + r * n, n, D, off, wd, stamp, &base,
                                  INT64_MAX);
}

/* ====================================================================== *
 * Compiled walk engine: the full Adaptive Search inner loop.
 *
 * One `as_walk_run` call advances up to `steps` iterations of W independent
 * walks (culprit selection with tabu masking and the all-tabu edge case,
 * min-conflict swap scoring, plateau/local-minimum/escape decisions, tabu
 * marking, generic and dedicated resets, restarts) and returns to Python
 * only at check-period boundaries.  All randomness comes from an embedded
 * xoshiro256** stream seeded through splitmix64; repro/core/cwalk_mirror.py
 * holds a line-for-line Python mirror, and the trajectory test-suite asserts
 * bit-exact equality between the two.
 *
 * Families (pi[WK_FAMILY]): 0 = Costas (tbl1 = difference-triangle rows,
 * tbl2 = occurrence counts, reusing the kernels above), 1 = N-Queens
 * (tbl1/tbl2 = up/down diagonal counts), 2 = All-Interval (tbl1 = interval
 * counts).  Per-walk arrays are batched (W, .) and C-contiguous; per-walk
 * scalar state lives in WS_NSLOTS int64 slots (the RNG words are the u64
 * bit patterns reinterpreted).
 * ====================================================================== */

typedef uint64_t u64;

/* ------------------------------------------------------------------ RNG */
static u64 wk_splitmix64(u64 *x)
{
    u64 z = (*x += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

typedef struct { u64 s[4]; } wk_rng;

static void wk_seed(wk_rng *r, u64 seed)
{
    u64 x = seed;
    for (int t = 0; t < 4; t++) r->s[t] = wk_splitmix64(&x);
}

static u64 wk_rotl(u64 x, int k) { return (x << k) | (x >> (64 - k)); }

static u64 wk_next(wk_rng *r)
{
    u64 *s = r->s;
    u64 result = wk_rotl(s[1] * 5, 7) * 9;
    u64 t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = wk_rotl(s[3], 45);
    return result;
}

/* Uniform integer in [0, k); k >= 1.  Plain modulo on purpose: the mirror
 * reproduces it exactly, and the modulo bias (< 2^-50 for any k here) is
 * irrelevant to a local search. */
static i64 wk_below(wk_rng *r, i64 k) { return (i64)(wk_next(r) % (u64)k); }

/* Uniform double in [0, 1): the top 53 bits of one draw. */
static double wk_double(wk_rng *r)
{
    return (double)(wk_next(r) >> 11) * (1.0 / 9007199254740992.0);
}

/* Backward Fisher-Yates shuffle of arr[0..m-1] (the permutation primitive:
 * fill with identity first). */
static void wk_shuffle(wk_rng *r, i64 *arr, i64 m)
{
    for (i64 t = m - 1; t >= 1; t--) {
        i64 q = wk_below(r, t + 1);
        i64 tmp = arr[t];
        arr[t] = arr[q];
        arr[q] = tmp;
    }
}

/* Test probe: the raw u64 stream (as int64 bit patterns) for a seed. */
void walk_rng_stream(i64 seed, i64 count, i64 *out)
{
    wk_rng r;
    wk_seed(&r, (u64)seed);
    for (i64 t = 0; t < count; t++) out[t] = (i64)wk_next(&r);
}

/* Test probe: interleaved randbelow(k) and double draws, mirroring the
 * derived-draw arithmetic. */
void walk_rng_draws(i64 seed, i64 k, i64 count, i64 *out_below, double *out_double)
{
    wk_rng r;
    wk_seed(&r, (u64)seed);
    for (i64 t = 0; t < count; t++) {
        out_below[t] = wk_below(&r, k);
        out_double[t] = wk_double(&r);
    }
}

/* ------------------------------------------------- parameter/state slots */
enum {
    WK_N = 0,          /* problem size */
    WK_FAMILY,         /* 0 costas, 1 queens, 2 all-interval */
    WK_TARGET,         /* target cost */
    WK_MAXITER,        /* iteration budget, -1 = unbounded */
    WK_TENURE,         /* tabu tenure */
    WK_RESET_LIMIT,    /* marks since reset that trigger a reset (RL) */
    WK_RESET_K,        /* variables the generic reset re-randomises */
    WK_RESTART_LIMIT,  /* iterations before restart, -1 = disabled */
    WK_MAX_RESTARTS,
    WK_CLEAR_TABU,     /* clear tabu marks on reset (0/1) */
    WK_DEDICATED,      /* costas dedicated reset enabled (0/1) */
    WK_D,              /* costas max distance */
    WK_WX,             /* costas count-table row width */
    WK_OFF,            /* costas value shift */
    WK_L,              /* costas rows sentinel */
    WK_NCONSTS,        /* costas reset constants count */
    WK_NPARAMS
};

enum { WD_PLATEAU = 0, WD_LOCALMIN, WD_NPARAMS };

enum {
    WS_RNG0 = 0, WS_RNG1, WS_RNG2, WS_RNG3, /* xoshiro words (u64 bits) */
    WS_COST,      /* current cost */
    WS_ITER,      /* StrategyRun iteration counter */
    WS_SWAPS, WS_PLATEAU, WS_LOCALMIN, WS_RESETS, WS_RESTARTS,
    WS_MARKED,    /* marks since last reset */
    WS_ISR,       /* iterations since last restart */
    WS_ERRVALID,  /* cached error vector valid (0/1) */
    WS_BEST,      /* best cost seen */
    WS_STATUS,    /* 0 running, 1 solved, 2 max_iterations */
    WS_NSLOTS
};

/* ------------------------------------------------------- queens family */
static i64 queens_rebuild(const i64 *p, i64 n, i64 *up, i64 *down)
{
    i64 m = 2 * n - 1;
    for (i64 t = 0; t < m; t++) { up[t] = 0; down[t] = 0; }
    for (i64 t = 0; t < n; t++) {
        up[t + p[t]]++;
        down[t - p[t] + n - 1]++;
    }
    i64 cost = 0;
    for (i64 t = 0; t < m; t++) {
        if (up[t] > 1) cost += up[t] - 1;
        if (down[t] > 1) cost += down[t] - 1;
    }
    return cost;
}

static void queens_errs(const i64 *p, i64 n, const i64 *up, const i64 *down,
                        i64 *errs)
{
    for (i64 t = 0; t < n; t++)
        errs[t] = up[t + p[t]] - 1 + down[t - p[t] + n - 1] - 1;
}

/* Duplicate-count delta of two removals then two additions on one count
 * table, with a local adjustment list so colliding keys within the swap see
 * each other (the scalar twin of grouped_dup_delta's 4-event case). */
static i64 wk_dup4(const i64 *cnt, i64 r0, i64 r1, i64 a0, i64 a1)
{
    i64 keys[4], lv[4], la[4];
    i64 delta = 0;
    int nl = 0;
    keys[0] = r0; keys[1] = r1; keys[2] = a0; keys[3] = a1;
    for (int e = 0; e < 4; e++) {
        i64 u = keys[e];
        i64 sign = (e < 2) ? -1 : 1;
        i64 adj = 0;
        int found = -1;
        for (int t = 0; t < nl; t++)
            if (lv[t] == u) { adj = la[t]; found = t; break; }
        if (sign < 0) { if (cnt[u] + adj >= 2) delta--; }
        else          { if (cnt[u] + adj >= 1) delta++; }
        if (found >= 0) la[found] += sign;
        else { lv[nl] = u; la[nl] = sign; nl++; }
    }
    return delta;
}

static i64 queens_delta(const i64 *p, const i64 *up, const i64 *down,
                        i64 n, i64 i, i64 j)
{
    i64 a = p[i], b = p[j], off = n - 1;
    return wk_dup4(up, i + a, j + b, i + b, j + a)
         + wk_dup4(down, i - a + off, j - b + off, i - b + off, j - a + off);
}

static i64 queens_apply(i64 *p, i64 *up, i64 *down, i64 n, i64 cost,
                        i64 i, i64 j)
{
    i64 off = n - 1;
    i64 cols[2];
    cols[0] = i; cols[1] = j;
    for (int t = 0; t < 2; t++) { /* remove both queens */
        i64 c = cols[t];
        i64 u = c + p[c], d = c - p[c] + off;
        if (up[u] >= 2) cost--;
        up[u]--;
        if (down[d] >= 2) cost--;
        down[d]--;
    }
    i64 tmp = p[i]; p[i] = p[j]; p[j] = tmp;
    for (int t = 0; t < 2; t++) { /* re-add on the crossed diagonals */
        i64 c = cols[t];
        i64 u = c + p[c], d = c - p[c] + off;
        if (up[u] >= 1) cost++;
        up[u]++;
        if (down[d] >= 1) cost++;
        down[d]++;
    }
    return cost;
}

/* -------------------------------------------------- all-interval family */
static i64 ai_rebuild(const i64 *p, i64 n, i64 *counts)
{
    for (i64 t = 0; t < n; t++) counts[t] = 0;
    i64 cost = 0;
    for (i64 k = 0; k + 1 < n; k++) {
        i64 d = p[k + 1] - p[k];
        i64 v = d < 0 ? -d : d;
        if (counts[v] >= 1) cost++;
        counts[v]++;
    }
    return cost;
}

static void ai_errs(const i64 *p, i64 n, i64 *stamp, i64 tag, i64 *errs)
{
    for (i64 t = 0; t < n; t++) errs[t] = 0;
    for (i64 k = 0; k + 1 < n; k++) {
        i64 d = p[k + 1] - p[k];
        i64 v = d < 0 ? -d : d;
        if (stamp[v] == tag) { /* repeated interval: both endpoints err */
            errs[k]++;
            errs[k + 1]++;
        } else {
            stamp[v] = tag;
        }
    }
}

/* The (sorted, deduplicated) difference slots a swap of i and j touches. */
static int ai_slots(i64 n, i64 i, i64 j, i64 *slots)
{
    i64 cand[4];
    int ns = 0;
    cand[0] = i - 1; cand[1] = i; cand[2] = j - 1; cand[3] = j;
    for (int t = 0; t < 4; t++) {
        i64 k = cand[t];
        if (k < 0 || k > n - 2) continue;
        int dup = 0;
        for (int u = 0; u < ns; u++)
            if (slots[u] == k) dup = 1;
        if (!dup) slots[ns++] = k;
    }
    for (int t = 1; t < ns; t++) { /* insertion sort, ns <= 4 */
        i64 v = slots[t];
        int u = t - 1;
        while (u >= 0 && slots[u] > v) { slots[u + 1] = slots[u]; u--; }
        slots[u + 1] = v;
    }
    return ns;
}

static i64 ai_delta(const i64 *p, const i64 *counts, i64 n, i64 i, i64 j)
{
    i64 slots[4], lv[8], la[8];
    int ns = ai_slots(n, i, j, slots);
    i64 delta = 0;
    int nl = 0;
    for (int pass = 0; pass < 2; pass++) { /* removals, then additions */
        for (int t = 0; t < ns; t++) {
            i64 k = slots[t];
            i64 x0 = p[k], x1 = p[k + 1];
            if (pass == 1) { /* values after the swap */
                if (k == i) x0 = p[j]; else if (k == j) x0 = p[i];
                if (k + 1 == i) x1 = p[j]; else if (k + 1 == j) x1 = p[i];
            }
            i64 d = x1 - x0;
            i64 v = d < 0 ? -d : d;
            i64 adj = 0;
            int found = -1;
            for (int u = 0; u < nl; u++)
                if (lv[u] == v) { adj = la[u]; found = u; break; }
            if (pass == 0) { if (counts[v] + adj >= 2) delta--; }
            else           { if (counts[v] + adj >= 1) delta++; }
            i64 sign = pass == 0 ? -1 : 1;
            if (found >= 0) la[found] += sign;
            else { lv[nl] = v; la[nl] = sign; nl++; }
        }
    }
    return delta;
}

static i64 ai_apply(i64 *p, i64 *counts, i64 n, i64 cost, i64 i, i64 j)
{
    i64 slots[4];
    int ns = ai_slots(n, i, j, slots);
    for (int t = 0; t < ns; t++) {
        i64 k = slots[t];
        i64 d = p[k + 1] - p[k];
        i64 v = d < 0 ? -d : d;
        if (counts[v] >= 2) cost--;
        counts[v]--;
    }
    i64 tmp = p[i]; p[i] = p[j]; p[j] = tmp;
    for (int t = 0; t < ns; t++) {
        i64 k = slots[t];
        i64 d = p[k + 1] - p[k];
        i64 v = d < 0 ? -d : d;
        if (counts[v] >= 1) cost++;
        counts[v]++;
    }
    return cost;
}

/* ------------------------------------------------------ family dispatch */
static void wk_strides(const i64 *pi, i64 *s1, i64 *s2)
{
    i64 n = pi[WK_N];
    switch (pi[WK_FAMILY]) {
    case 0:
        *s1 = (pi[WK_D] + 1) * n;
        *s2 = (pi[WK_D] + 1) * pi[WK_WX];
        break;
    case 1:
        *s1 = 2 * n - 1;
        *s2 = 2 * n - 1;
        break;
    default:
        *s1 = n;
        *s2 = 0;
        break;
    }
}

static i64 wk_rebuild(const i64 *pi, const i64 *wd, i64 *p, i64 *t1, i64 *t2)
{
    i64 n = pi[WK_N];
    switch (pi[WK_FAMILY]) {
    case 0:
        return costas_rebuild(p, t1, t2, n, pi[WK_D], pi[WK_WX], pi[WK_OFF],
                              pi[WK_L], wd);
    case 1:
        return queens_rebuild(p, n, t1, t2);
    default:
        return ai_rebuild(p, n, t1);
    }
}

static void wk_errors(const i64 *pi, const i64 *wd, const i64 *p,
                      const i64 *t1, const i64 *t2, i64 *stamp, i64 *epoch,
                      i64 *errs)
{
    i64 n = pi[WK_N];
    switch (pi[WK_FAMILY]) {
    case 0:
        costas_errors(t1, n, pi[WK_D], wd, stamp, *epoch, errs);
        *epoch += pi[WK_D];
        break;
    case 1:
        queens_errs(p, n, t1, t2, errs);
        break;
    default:
        *epoch += 1;
        ai_errs(p, n, stamp, *epoch, errs);
        break;
    }
}

static void wk_deltas(const i64 *pi, const i64 *wd, const i64 *p,
                      const i64 *t1, i64 *t2, i64 i, i64 *deltas)
{
    i64 n = pi[WK_N];
    switch (pi[WK_FAMILY]) {
    case 0:
        costas_swap_deltas(p, t1, t2, n, pi[WK_D], pi[WK_WX], pi[WK_OFF],
                           wd, i, deltas);
        break;
    case 1:
        for (i64 j = 0; j < n; j++)
            deltas[j] = (j == i) ? 0 : queens_delta(p, t1, t2, n, i, j);
        break;
    default:
        for (i64 j = 0; j < n; j++)
            deltas[j] = (j == i) ? 0 : ai_delta(p, t1, n, i, j);
        break;
    }
    deltas[i] = INT64_MAX;
}

static i64 wk_apply(const i64 *pi, const i64 *wd, i64 *p, i64 *t1, i64 *t2,
                    i64 cost, i64 i, i64 j)
{
    i64 n = pi[WK_N];
    switch (pi[WK_FAMILY]) {
    case 0:
        return cost + costas_apply(p, t1, t2, n, pi[WK_D], pi[WK_WX],
                                   pi[WK_OFF], wd, i, j);
    case 1:
        return queens_apply(p, t1, t2, n, cost, i, j);
    default:
        return ai_apply(p, t1, n, cost, i, j);
    }
}

/* ------------------------------------------------------------- resets */
/* Re-randomise k variables: a partial Fisher-Yates picks the positions,
 * a full shuffle redistributes their values (caller rebuilds tables). */
static void wk_generic_reset(wk_rng *r, i64 *p, i64 n, i64 k,
                             i64 *idx, i64 *vals)
{
    for (i64 t = 0; t < n; t++) idx[t] = t;
    for (i64 t = 0; t < k; t++) {
        i64 q = t + wk_below(r, n - t);
        i64 tmp = idx[t];
        idx[t] = idx[q];
        idx[q] = tmp;
    }
    for (i64 t = 0; t < k; t++) vals[t] = p[idx[t]];
    wk_shuffle(r, vals, k);
    for (i64 t = 0; t < k; t++) p[idx[t]] = vals[t];
}

/* The paper's dedicated Costas reset (Section IV-B): three candidate
 * families anchored on the most erroneous column, examined in random order;
 * the first strict improvement wins, else a uniformly random minimum-cost
 * candidate.  Same candidates and selection policy as
 * CostasProblem.custom_reset, driven by the walk's own RNG stream. */
static i64 costas_dedicated_reset(wk_rng *r, i64 *p, i64 *rows, i64 *cnt,
                                  const i64 *pi, const i64 *wd,
                                  const i64 *consts, const i64 *errs,
                                  i64 entry_cost, i64 *stamp, i64 *epoch,
                                  i64 *errk, i64 *cand, i64 *ccost,
                                  i64 *corder)
{
    i64 n = pi[WK_N], D = pi[WK_D], off = pi[WK_OFF];
    i64 n_consts = pi[WK_NCONSTS];

    /* Anchor: uniformly among the most erroneous columns. */
    i64 worst = errs[0];
    for (i64 k = 1; k < n; k++)
        if (errs[k] > worst) worst = errs[k];
    i64 wcnt = 0;
    for (i64 k = 0; k < n; k++)
        if (errs[k] == worst) wcnt++;
    i64 rp = wk_below(r, wcnt);
    i64 vm = 0;
    for (i64 k = 0; k < n; k++)
        if (errs[k] == worst && rp-- == 0) { vm = k; break; }

    i64 m = 0;
    /* Family 1: each sub-array ending or starting at vm, shifted circularly
     * left then right. */
    for (i64 t = 0; t < n - 1; t++) {
        i64 lo = (t < vm) ? t : vm;
        i64 hi = (t < vm) ? vm : t + 1;
        i64 *cl = cand + (m++) * n;
        i64 *cr = cand + (m++) * n;
        for (i64 k = 0; k < n; k++) { cl[k] = p[k]; cr[k] = p[k]; }
        for (i64 k = lo; k < hi; k++) cl[k] = p[k + 1];
        cl[hi] = p[lo];
        for (i64 k = lo + 1; k <= hi; k++) cr[k] = p[k - 1];
        cr[lo] = p[hi];
    }
    /* Family 2: add a constant modulo n. */
    for (i64 t = 0; t < n_consts; t++) {
        i64 *c = cand + (m++) * n;
        for (i64 k = 0; k < n; k++) c[k] = (p[k] + consts[t]) % n;
    }
    /* Family 3: left-shift the prefix ending at up to three random
     * erroneous columns != vm. */
    i64 ne = 0;
    for (i64 k = 0; k < n; k++)
        if (errs[k] > 0 && k != vm) errk[ne++] = k;
    if (ne > 0) {
        wk_shuffle(r, errk, ne);
        i64 take = ne < 3 ? ne : 3;
        for (i64 t = 0; t < take; t++) {
            i64 e = errk[t];
            if (e < 1) continue;
            i64 *c = cand + (m++) * n;
            for (i64 k = 0; k < n; k++) c[k] = p[k];
            for (i64 k = 0; k < e; k++) c[k] = p[k + 1];
            c[e] = p[0];
        }
    }

    /* Random examination order; first strict improvement wins.  The
     * shuffle's draws do not depend on costs, so candidates are scored
     * lazily in examination order, and each one only until it can neither
     * improve on entry_cost nor tie the cheapest so far (ccost[t] is then
     * some value above both, which the tie pass below never selects). */
    for (i64 t = 0; t < m; t++) corder[t] = t;
    wk_shuffle(r, corder, m);
    i64 chosen = -1;
    i64 bestc = INT64_MAX;
    for (i64 t = 0; t < m; t++) {
        i64 limit = bestc > entry_cost - 1 ? bestc : entry_cost - 1;
        i64 c = costas_cand_cost(cand + corder[t] * n, n, D, off, wd, stamp,
                                 epoch, limit);
        ccost[t] = c;
        if (c < entry_cost) { chosen = corder[t]; break; }
        if (c < bestc) bestc = c;
    }
    if (chosen < 0) { /* none improves: uniform among the minimum-cost ones */
        i64 tcnt = 0;
        for (i64 t = 0; t < m; t++)
            if (ccost[t] == bestc) tcnt++;
        i64 tp = wk_below(r, tcnt);
        for (i64 t = 0; t < m; t++)
            if (ccost[t] == bestc && tp-- == 0) { chosen = corder[t]; break; }
    }
    const i64 *sel = cand + chosen * n;
    for (i64 k = 0; k < n; k++) p[k] = sel[k];
    return costas_rebuild(p, rows, cnt, n, D, pi[WK_WX], off, pi[WK_L], wd);
}

/* ------------------------------------------------------------ walk API */
/* Initialise W walks: seed each RNG, draw (or keep) the start permutation,
 * rebuild the family tables, zero counters and tabu marks. */
void as_walk_init(const i64 *pi, const i64 *wd, i64 W, const i64 *seeds,
                  i64 use_given, i64 *state, i64 *perm, i64 *tabu,
                  i64 *best, i64 *tbl1, i64 *tbl2)
{
    i64 n = pi[WK_N];
    i64 s1, s2;
    wk_strides(pi, &s1, &s2);
    for (i64 w = 0; w < W; w++) {
        i64 *st = state + w * WS_NSLOTS;
        i64 *p = perm + w * n;
        wk_rng r;
        wk_seed(&r, (u64)seeds[w]);
        if (!use_given) {
            for (i64 t = 0; t < n; t++) p[t] = t;
            wk_shuffle(&r, p, n);
        }
        i64 cost = wk_rebuild(pi, wd, p, tbl1 + w * s1, tbl2 + w * s2);
        for (i64 t = 0; t < n; t++) {
            tabu[w * n + t] = 0;
            best[w * n + t] = p[t];
        }
        for (i64 t = 0; t < 4; t++) st[WS_RNG0 + t] = (i64)r.s[t];
        st[WS_COST] = cost;
        st[WS_ITER] = 0;
        st[WS_SWAPS] = 0;
        st[WS_PLATEAU] = 0;
        st[WS_LOCALMIN] = 0;
        st[WS_RESETS] = 0;
        st[WS_RESTARTS] = 0;
        st[WS_MARKED] = 0;
        st[WS_ISR] = 0;
        st[WS_ERRVALID] = 0;
        st[WS_BEST] = cost;
        st[WS_STATUS] = 0;
    }
}

/* Advance every still-running walk by up to `steps` iterations; returns the
 * number of walks still running afterwards.  `scratch` is the shared
 * workspace laid out as deltas[n] idx[n] vals[n] stamp[2n-1] errk[n]
 * cand[M*n] ccost[M] corder[M] with M = 2(n-1) + n_consts + 3. */
i64 as_walk_run(const i64 *pi, const double *pd, const i64 *wd,
                const i64 *consts, i64 W, i64 steps, i64 *state, i64 *perm,
                i64 *tabu, i64 *errs, i64 *best, i64 *tbl1, i64 *tbl2,
                i64 *scratch)
{
    i64 n = pi[WK_N];
    i64 target = pi[WK_TARGET], max_iter = pi[WK_MAXITER];
    i64 tenure = pi[WK_TENURE], reset_limit = pi[WK_RESET_LIMIT];
    i64 reset_k = pi[WK_RESET_K], restart_limit = pi[WK_RESTART_LIMIT];
    i64 max_restarts = pi[WK_MAX_RESTARTS];
    i64 clear_tabu = pi[WK_CLEAR_TABU];
    i64 dedicated = (pi[WK_FAMILY] == 0) && pi[WK_DEDICATED];
    double plateau_p = pd[WD_PLATEAU], localmin_p = pd[WD_LOCALMIN];
    i64 s1, s2;
    wk_strides(pi, &s1, &s2);

    i64 M = 2 * (n - 1) + pi[WK_NCONSTS] + 3;
    i64 *deltas = scratch;
    i64 *idx = deltas + n;
    i64 *vals = idx + n;
    i64 *stamp = vals + n;
    i64 stampn = 2 * n - 1;
    i64 *errk = stamp + stampn;
    i64 *cand = errk + n;
    i64 *ccost = cand + M * n;
    i64 *corder = ccost + M;
    for (i64 t = 0; t < stampn; t++) stamp[t] = 0;
    i64 epoch = 0;

    i64 running = 0;
    for (i64 w = 0; w < W; w++) {
        i64 *st = state + w * WS_NSLOTS;
        if (st[WS_STATUS] != 0) continue;
        i64 *p = perm + w * n;
        i64 *tb = tabu + w * n;
        i64 *er = errs + w * n;
        i64 *bc = best + w * n;
        i64 *t1 = tbl1 + w * s1;
        i64 *t2 = tbl2 + w * s2;
        wk_rng r;
        for (i64 t = 0; t < 4; t++) r.s[t] = (u64)st[WS_RNG0 + t];
        i64 cost = st[WS_COST], iter = st[WS_ITER];
        i64 swaps = st[WS_SWAPS], plateau = st[WS_PLATEAU];
        i64 localmin = st[WS_LOCALMIN], resets = st[WS_RESETS];
        i64 restarts = st[WS_RESTARTS], markedc = st[WS_MARKED];
        i64 isr = st[WS_ISR], errvalid = st[WS_ERRVALID];
        i64 bestcost = st[WS_BEST];
        i64 status = 0, executed = 0;

        while (1) {
            /* Loop head, exactly StrategyRun.running(): target first, then
             * the iteration budget, then the check-period boundary (handled
             * by the Python driver between calls). */
            if (cost <= target) { status = 1; break; }
            if (max_iter >= 0 && iter >= max_iter) { status = 2; break; }
            if (executed >= steps) break;
            iter++;
            executed++;
            isr++;

            if (!errvalid) {
                wk_errors(pi, wd, p, t1, t2, stamp, &epoch, er);
                errvalid = 1;
            }

            /* Culprit: most erroneous variable, tabu masked unless every
             * variable is tabu (the all-tabu edge case), uniform tie-break. */
            i64 any = 0, all = 1;
            for (i64 k = 0; k < n; k++) {
                if (tb[k] >= iter) any = 1;
                else all = 0;
            }
            int masked = any && !all;
            i64 maxv = INT64_MIN;
            i64 cnt = 0;
            for (i64 k = 0; k < n; k++) {
                i64 e = (masked && tb[k] >= iter) ? -1 : er[k];
                if (e > maxv) { maxv = e; cnt = 1; }
                else if (e == maxv) cnt++;
            }
            i64 rp = wk_below(&r, cnt);
            i64 culprit = 0;
            for (i64 k = 0; k < n; k++) {
                i64 e = (masked && tb[k] >= iter) ? -1 : er[k];
                if (e == maxv && rp-- == 0) { culprit = k; break; }
            }

            /* Min-conflict: score every swap of the culprit. */
            wk_deltas(pi, wd, p, t1, t2, culprit, deltas);
            i64 bd = deltas[0];
            for (i64 k = 1; k < n; k++)
                if (deltas[k] < bd) bd = deltas[k];
            int take = 0, marked = 0;
            if (bd < 0) {
                take = 1;
            } else if (bd == 0) {
                if (wk_double(&r) < plateau_p) { take = 1; plateau++; }
                else marked = 1;
            } else {
                localmin++;
                if (wk_double(&r) < localmin_p) take = 1; /* uphill escape */
                else marked = 1;
            }
            if (take) {
                i64 tc = 0;
                for (i64 k = 0; k < n; k++)
                    if (deltas[k] == bd) tc++;
                i64 tp = wk_below(&r, tc);
                i64 partner = 0;
                for (i64 k = 0; k < n; k++)
                    if (deltas[k] == bd && tp-- == 0) { partner = k; break; }
                cost = wk_apply(pi, wd, p, t1, t2, cost, culprit, partner);
                swaps++;
                errvalid = 0;
            }
            if (marked) {
                tb[culprit] = iter + tenure;
                markedc++;
                if (markedc >= reset_limit) {
                    resets++;
                    if (dedicated) {
                        /* er is valid here: a marking iteration never
                         * changed the configuration. */
                        cost = costas_dedicated_reset(
                            &r, p, t1, t2, pi, wd, consts, er, cost, stamp,
                            &epoch, errk, cand, ccost, corder);
                    } else {
                        wk_generic_reset(&r, p, n, reset_k, idx, vals);
                        cost = wk_rebuild(pi, wd, p, t1, t2);
                    }
                    errvalid = 0;
                    markedc = 0;
                    if (clear_tabu)
                        for (i64 k = 0; k < n; k++) tb[k] = 0;
                }
            }
            if (restart_limit >= 0 && isr >= restart_limit
                && restarts < max_restarts) {
                restarts++;
                for (i64 k = 0; k < n; k++) p[k] = k;
                wk_shuffle(&r, p, n);
                cost = wk_rebuild(pi, wd, p, t1, t2);
                errvalid = 0;
                for (i64 k = 0; k < n; k++) tb[k] = 0;
                markedc = 0;
                isr = 0;
            }
            if (cost < bestcost) {
                bestcost = cost;
                for (i64 k = 0; k < n; k++) bc[k] = p[k];
            }
        }

        for (i64 t = 0; t < 4; t++) st[WS_RNG0 + t] = (i64)r.s[t];
        st[WS_COST] = cost;
        st[WS_ITER] = iter;
        st[WS_SWAPS] = swaps;
        st[WS_PLATEAU] = plateau;
        st[WS_LOCALMIN] = localmin;
        st[WS_RESETS] = resets;
        st[WS_RESTARTS] = restarts;
        st[WS_MARKED] = markedc;
        st[WS_ISR] = isr;
        st[WS_ERRVALID] = errvalid;
        st[WS_BEST] = bestcost;
        st[WS_STATUS] = status;
        if (status == 0) running++;
    }
    return running;
}
