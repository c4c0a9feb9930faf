/* Native c-DDT rows for cdu.ddt: one call histograms every row a of one c.
 *
 * Row a counts bins[b] = #{x : key[x + a] + trans[x] = b} over the n points
 * of one field, in its digitwise addition as gf.FieldCtx splits it (lo, hi
 * and the hi x hi add_table; see cdu_rows_add).
 * Each finished row is reduced by row_done: one branch-free pass over its
 * bins takes the row mass and maximum and counts the entries below SMALL in
 * register counters, which the compiler vectorizes.  Only a row whose
 * maximum reaches SMALL takes a scalar pass adding its larger entries to
 * spec[v], and only a row whose maximum beats the best so far is scanned for
 * its first witness b.  Rows a < start are skipped.  Returns 0, or -1 when a
 * row's mass is not n, before that row touches spec.  Callers check every
 * key and trans value lies in [0, n); nothing here is bounds-checked.
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
    if (top > best[0]) {
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

/* Odd p: an index is hi_digits * lo_n + lo_digits, and both halves add in
 * the hi x hi table add.  k_hi = key / lo_n * hi and k_lo = key % lo_n * hi
 * are row offsets into add; t_hi = trans / lo_n and t_lo = trans % lo_n. */
int cdu_rows_add(int n, int lo_n, int hi, const int *add,
                 const int *k_hi, const int *k_lo, const int *t_hi,
                 const int *t_lo, int start, int *bins, long long *spec,
                 long long *best)
{
    for (int a = start; a < n; a++) {
        const int *a_hi = add + a / lo_n * hi, *a_lo = add + a % lo_n * hi;
        for (int x = 0, xh = 0; xh < hi; xh++) {
            int y_hi = a_hi[xh] * lo_n;
            for (int xl = 0; xl < lo_n; xl++, x++) {
                int y = y_hi + a_lo[xl];
                bins[add[k_hi[y] + t_hi[x]] * lo_n + add[k_lo[y] + t_lo[x]]]++;
            }
        }
        if (row_done(n, a, bins, spec, best)) return -1;
    }
    return 0;
}
