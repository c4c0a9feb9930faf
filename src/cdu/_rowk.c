/* Native c-DDT rows for cdu.ddt: one call histograms every row a of one c.
 *
 * Row a counts bins[b] = #{x : key[x + a] + trans[x] = b} over the n points
 * of one field, in its digitwise addition: XOR for p = 2, carry-free wide
 * codes for odd p (see cdu_rows_add).
 * Each finished row is reduced by row_done: one branch-free pass over its
 * bins takes the row mass and maximum and counts the entries below SMALL in
 * register counters, which the compiler vectorizes.  Only a row whose
 * maximum reaches SMALL takes a scalar pass adding its larger entries to
 * spec[v], and only a row whose maximum beats the best so far, or ties it at
 * a smaller a (rows may come in any order), is scanned for its first witness
 * b.  Rows a < start are skipped.  Returns 0, or -1 when a row's mass is not
 * n, before that row touches spec.  Callers check every key and trans value
 * lies in [0, n); nothing here is bounds-checked.
 */

#include <string.h>

#define SMALL 8  /* counted in registers: most c-DDT entries are this small */

/* On x86-64 an AVX2 clone is chosen when the library loads (through an
 * ifunc, hence glibc), so the cached .so needs no -march and still runs on
 * any x86-64. */
#if defined(__x86_64__) && defined(__GNUC__) && defined(__GLIBC__)
__attribute__((target_clones("avx2", "default")))
#endif
static int row_done(int n, int a, int *bins, long long *spec, long long *best)
{
    int mass = 0, top = 0, cnt[SMALL] = {0};
    for (int b = 0; b < n; b++) {
        int v = bins[b];
        mass += v;
        top = v > top ? v : top;
        for (int j = 0; j < SMALL; j++) cnt[j] += v == j;
    }
    if (mass != n) return -1;
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

/* p = 2: point and key addition are both XOR. */
int cdu_rows_xor(int n, const int *key, const int *trans, int start,
                 int *bins, long long *spec, long long *best)
{
    for (int a = start; a < n; a++) {
        for (int x = 0; x < n; x++) bins[key[x ^ a] ^ trans[x]]++;
        if (row_done(n, a, bins, spec, best)) return -1;
    }
    return 0;
}

/* Odd p: indices add as gf.FieldCtx's carry-free wide codes.  wide[x] packs
 * the base-(2p-1) codes of x's hi and lo digit halves as hi << 16 | lo, a sum
 * of two codes never carries, and r_hi[s >> 16] + r_lo[s & 0xffff] is the
 * index of the sum s (r_hi is scaled by lo).  kw = wide[key] and
 * tw = wide[trans].  Write x = xh * lo + xl.  In row a, block xh maps onto
 * one block of y = x + a, with yl = xl + a_lo; so rows go in groups of one
 * a_lo (lo <= sqrt(n) <= 256), each group first permutes tw into
 * twp[xh * lo + yl] = tw[x], and then every point reads kw and twp in order. */
int cdu_rows_add(int n, int lo, const int *wide, const int *r_hi,
                 const int *r_lo, const int *kw, const int *tw, int *twp,
                 int start, int *bins, long long *spec, long long *best)
{
    int xl_of[256];
    for (int al = 0; al < lo; al++) {
        for (int xl = 0; xl < lo; xl++)
            xl_of[r_lo[(wide[xl] + wide[al]) & 0xffff]] = xl;
        for (int x = 0; x < n; x++)
            twp[x] = tw[x - x % lo + xl_of[x % lo]];
        for (int a = al; a < n; a += lo) {
            if (a < start) continue;
            for (int x = 0, wa = wide[a]; x < n; x += lo) {
                const int *ky = kw + r_hi[(wide[x] + wa) >> 16], *tp = twp + x;
                for (int yl = 0; yl < lo; yl++) {
                    int v = ky[yl] + tp[yl];
                    bins[r_hi[v >> 16] + r_lo[v & 0xffff]]++;
                }
            }
            if (row_done(n, a, bins, spec, best)) return -1;
        }
    }
    return 0;
}
