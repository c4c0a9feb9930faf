/* Native c-DDT rows for cdu.ddt: one call histograms every row a of one c.
 *
 * Row a counts bins[b] = #{x : key[x + a] + trans[x] = b} over the n points,
 * in the digitwise addition of the index encoding that ddt._row_blocks uses.
 * Each finished row is reduced in one pass over its bins: mass check, row
 * maximum and first witness, spectrum, and zeroing for the next row.  The
 * spectrum is counted in 8 interleaved lanes spec[b & 7][v], so runs of
 * equal v do not serialize on one counter.  Rows a < start are skipped.
 * Returns 0, or -1 when a row's mass is not n.  Callers check every key and
 * trans value lies in [0, n); nothing here is bounds-checked.
 */

static int row_done(int n, int a, int *bins, long long *spec, long long *best)
{
    int mass = 0, top = -1, arg = 0;
    for (int b = 0; b < n; b++) {
        int v = bins[b];
        mass += v;
        if (v > top) { top = v; arg = b; }
        spec[(b & 7) * (n + 1) + v]++;
        bins[b] = 0;
    }
    if (mass != n) return -1;
    if (top > best[0]) { best[0] = top; best[1] = a; best[2] = arg; }
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
