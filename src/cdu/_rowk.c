/* Native c-DDT rows for cdu.ddt: one call histograms every row a of one c.
 *
 * Row a counts bins[b] = #{x : key[x + a] + trans[x] = b} over the n points
 * of one field, in its digitwise addition: XOR for p = 2, carry-free wide
 * codes for odd p (see cdu_rows_add).  One pass over x fills a block of up
 * to ROWS rows at once, each into its own row of the ROWS x n bins that the
 * caller owns (as it owns twp), so the rows share their loads and their
 * increments form independent store chains.  Nothing here is static state,
 * so threads may run calls side by side.
 *
 * Bins are uint16_t, or uint32_t for n >= 2^16, where one entry can reach
 * 2^16.  The body below is compiled once per width: this file includes
 * itself with BIN set, which gives cdu_rows_xor16 and cdu_rows_add16, and
 * cdu_rows_xor32 and cdu_rows_add32.
 *
 * Each finished row is reduced by row_done: one branch-free pass over its
 * bins takes the row mass (in 32 bits) and maximum and counts the entries
 * below SMALL in BIN-wide lane counters, which the compiler
 * vectorizes, 16 lanes to an AVX2 op for 16-bit bins.  Only a row whose
 * maximum reaches SMALL takes a scalar pass adding its larger entries to
 * spec[v], and only a row whose maximum beats the best so far, or ties it at
 * a smaller a (rows may come in any order), is scanned for its first witness
 * b.  Rows a < start are skipped, and a block whose rows all lie below start
 * is not histogrammed.  Returns 0, or -1 when a row's mass is not n, before
 * that row touches spec.  Callers check every key and trans value lies in
 * [0, n); nothing here is bounds-checked.
 */

#ifndef BIN

#include <stdint.h>
#include <string.h>

#define SMALL 8  /* counted in registers: most c-DDT entries are this small */
#define ROWS 4   /* rows filled by one pass over x */

const int cdu_block_rows = ROWS;  /* read by cdu.ddt to size the bins */

#define CAT_(f, w) f##w
#define CAT(f, w) CAT_(f, w)
#define NAME(f) CAT(f, W)

#define BIN uint16_t
#define W 16
#include "_rowk.c"
#undef BIN
#undef W

#define BIN uint32_t
#define W 32
#include "_rowk.c"

#else  /* the body, for bins of type BIN; every name ends in W */

/* On x86-64 an AVX2 clone is chosen when the library loads (through an
 * ifunc, hence glibc), so the cached .so needs no -march and still runs on
 * any x86-64. */
#if defined(__x86_64__) && defined(__GNUC__) && defined(__GLIBC__)
__attribute__((target_clones("avx2", "default")))
#endif
static int NAME(row_done)(int n, int a, BIN *bins, long long *spec,
                          long long *best)
{
    /* The mass is exact: bins start at zero and take at most the n * n
     * <= 2^32 increments of one call (n <= 2^16), so no row wraps to
     * n + 2^32.  A count of bins never passes n, which BIN holds, so cnt
     * is exact. */
    uint32_t mass = 0;
    BIN top = 0, cnt[SMALL] = {0};
    for (int b = 0; b < n; b++) {
        BIN v = bins[b];
        mass += v;
        top = v > top ? v : top;
        for (int j = 0; j < SMALL; j++) cnt[j] += v == (BIN)j;
    }
    if (mass != (uint32_t)n) return -1;
    for (int j = 0; j < SMALL && j <= n; j++)  /* spec has n + 1 entries */
        spec[j] += cnt[j];
    if (top >= SMALL)
        for (int b = 0; b < n; b++)
            if (bins[b] >= SMALL) spec[bins[b]]++;
    if (top > best[0] || (top == best[0] && a < best[1])) {
        int b = 0;
        while (bins[b] != top) b++;
        best[0] = top; best[1] = a; best[2] = b;
    }
    memset(bins, 0, n * sizeof *bins);
    return 0;
}

/* Reduce the r rows a0, a0 + step, ... of one block; rows below start are
 * only cleared. */
static int NAME(block_done)(int n, int r, int a0, int step, int start,
                            BIN *bins, long long *spec, long long *best)
{
    for (int i = 0; i < r; i++, bins += n) {
        int a = a0 + i * step;
        if (a < start)
            memset(bins, 0, n * sizeof *bins);
        else if (NAME(row_done)(n, a, bins, spec, best))
            return -1;
    }
    return 0;
}

/* p = 2, rows a0 .. a0 + r - 1, with r a power of 2 dividing n and a0: row
 * a0 ^ i at point x ^ s reads key[(x ^ a0) ^ (s ^ i)], so each step of r
 * points loads r keys and r trans values for r * r increments. */
static inline __attribute__((always_inline))
void NAME(xor_block)(int n, int r, const int *key, const int *trans, int a0,
                     BIN *bins)
{
    for (int x = 0; x < n; x += r) {
        const int *k = key + (x ^ a0), *t = trans + x;
        for (int s = 0; s < r; s++)
            for (int i = 0; i < r; i++)
                bins[i * n + (k[s ^ i] ^ t[s])]++;
    }
}

/* p = 2: point and key addition are both XOR.  n is a power of 2, so the
 * blocks are ROWS rows, or n rows when n < ROWS. */
int NAME(cdu_rows_xor)(int n, const int *key, const int *trans, int start,
                       BIN *bins, long long *spec, long long *best)
{
    int r = n < ROWS ? n : ROWS;
    for (int a0 = start - start % r; a0 < n; a0 += r) {
        if (r == ROWS)  /* a constant row count unrolls the block */
            NAME(xor_block)(n, ROWS, key, trans, a0, bins);
        else
            NAME(xor_block)(n, r, key, trans, a0, bins);
        if (NAME(block_done)(n, r, a0, 1, start, bins, spec, best)) return -1;
    }
    return 0;
}

/* Odd p, the r rows whose wide codes are wa[0..r) in one a_lo group: each
 * row reads its own block of kw and all of them read twp in order. */
static inline __attribute__((always_inline))
void NAME(add_block)(int n, int lo, int r, const int *wide, const int *r_hi,
                     const int *r_lo, const int *kw, const int *twp,
                     const int *wa, BIN *bins)
{
    BIN *b[ROWS];
    for (int i = 0; i < r; i++) b[i] = bins + i * n;
    for (int x = 0; x < n; x += lo) {
        const int *ky[ROWS], *tp = twp + x;
        for (int i = 0; i < r; i++) ky[i] = kw + r_hi[(wide[x] + wa[i]) >> 16];
        for (int yl = 0; yl < lo; yl++) {
            unsigned t = tp[yl];  /* unsigned: no sign extension */
            for (int i = 0; i < r; i++) {
                unsigned v = ky[i][yl] + t;
                b[i][(unsigned)r_hi[v >> 16] + (unsigned)r_lo[v & 0xffff]]++;
            }
        }
    }
}

/* Odd p: indices add as gf.FieldCtx's carry-free wide codes.  wide[x] packs
 * the base-(2p-1) codes of x's hi and lo digit halves as hi << 16 | lo, a sum
 * of two codes never carries, and r_hi[s >> 16] + r_lo[s & 0xffff] is the
 * index of the sum s (r_hi is scaled by lo).  kw = wide[key] and
 * tw = wide[trans].  Write x = xh * lo + xl.  In row a, block xh maps onto
 * one block of y = x + a, with yl = xl + a_lo; so rows go in groups of one
 * a_lo (lo <= sqrt(n) <= 256), each group first permutes tw into
 * twp[xh * lo + yl] = tw[x], and then every point reads kw and twp in order.
 * A group's hi = n / lo rows a_lo + j * lo run ROWS at a time, and the last
 * hi % ROWS of them as one smaller block. */
int NAME(cdu_rows_add)(int n, int lo, const int *wide, const int *r_hi,
                       const int *r_lo, const int *kw, const int *tw, int *twp,
                       int start, BIN *bins, long long *spec, long long *best)
{
    int xl_of[256], hi = n / lo;
    for (int al = 0; al < lo; al++) {
        for (int xl = 0; xl < lo; xl++)
            xl_of[r_lo[(wide[xl] + wide[al]) & 0xffff]] = xl;
        for (int x = 0; x < n; x++)
            twp[x] = tw[x - x % lo + xl_of[x % lo]];
        for (int j = 0; j < hi; j += ROWS) {
            int r = hi - j < ROWS ? hi - j : ROWS, a0 = al + j * lo, wa[ROWS];
            if (a0 + (r - 1) * lo < start) continue;
            for (int i = 0; i < r; i++) wa[i] = wide[a0 + i * lo];
            if (r == ROWS)  /* as in cdu_rows_xor */
                NAME(add_block)(n, lo, ROWS, wide, r_hi, r_lo, kw, twp, wa, bins);
            else
                NAME(add_block)(n, lo, r, wide, r_hi, r_lo, kw, twp, wa, bins);
            if (NAME(block_done)(n, r, a0, lo, start, bins, spec, best))
                return -1;
        }
    }
    return 0;
}

#endif
