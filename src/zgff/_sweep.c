/* Heat-bath sweep of zgff.mcmc over a batch of padded grids.
 *
 * The Python side (zgff.mcmc) owns every buffer and passes two int64 arrays
 * of pointers and sizes: a kernel descriptor (the CDF rows of one (p, beta)
 * and their key lookup, slots K_*) and a sweep context (B padded
 * (L + 2)^2 grids laid back to back, the scan's colour count and the bounds,
 * slots C_*). A bound is absent, one scalar, or a (B, L, L) array in [x, y]
 * layout. The sweep walks grid by grid (rep), colour by colour (col), row x
 * by row and y along the row: checkerboard has two colours, row x of colour
 * col holding y = (x + col) % 2, + 2, ...; raster has one colour, every y of
 * the row, which is row-major order. Site (x, y) of every grid reads the
 * uniform u[y L + x]. A site with neighbour heights a, b, c, d finds its row
 * by a key, draws base + start[row] + #{i : cdf[row][i] <= u} by a binary
 * search over the row's power-of-two width, and clamps the draw to its floor
 * and ceiling.
 *
 * A key without a row stops the sweep: zgff_sweep writes the key to the
 * kernel's miss buffer and returns the site's position
 * ((rep colours + col) L + x) L + y, and the caller adds the row and calls
 * again from that position. A finished sweep returns -1.
 *
 * Build with -O2 and without -ffast-math: the draw relies on the IEEE
 * compare cdf[i] <= u.
 */

#include <stdint.h>

enum { K_P2, K_R, K_LOOKUP, K_MASK, K_START, K_CDF, K_WIDTH, K_MISS };
enum { C_KERNEL, C_GRID, C_L, C_B, C_COLOURS,
       C_LO_KIND, C_LO, C_HI_KIND, C_HI };
enum { NO_BOUND, SCALAR_BOUND, ARRAY_BOUND };

#define KEY_LEN 5
#define ENTRY_LEN (KEY_LEN + 1)
#define ABSENT INT64_MIN   /* the offset of a missing floor or ceiling */

/* The slot of key in an open-addressing table of ENTRY_LEN-int64 entries
 * (the key, then its row; row -1 marks an empty slot) with mask + 1 slots,
 * a power of two: the key's slot if present, else the empty slot where it
 * goes. The table is kept at most half full, so the probe ends. */
int64_t zgff_probe(const int64_t *table, int64_t mask, const int64_t *key)
{
    uint64_t h = 0x9e3779b97f4a7c15u;
    for (int j = 0; j < KEY_LEN; j++) {
        h = (h ^ (uint64_t)key[j]) * 0xff51afd7ed558ccdu;
        h ^= h >> 32;
    }
    for (int64_t s = (int64_t)(h & (uint64_t)mask);; s = (s + 1) & mask) {
        const int64_t *e = table + ENTRY_LEN * s;
        if (e[KEY_LEN] < 0)
            return s;
        int j = 0;
        while (j < KEY_LEN && e[j] == key[j])
            j++;
        if (j == KEY_LEN)
            return s;
    }
}

static inline int64_t clip(int64_t v, int64_t r)
{
    return v < -r ? -r : v > r ? r : v;
}

static inline void order(int64_t *x, int64_t *y)
{
    if (*y < *x) {
        int64_t t = *x;
        *x = *y;
        *y = t;
    }
}

int64_t zgff_sweep(const int64_t *ctx, const double *u, int64_t pos)
{
    const int64_t *k = (const int64_t *)(intptr_t)ctx[C_KERNEL];
    int64_t *grid = (int64_t *)(intptr_t)ctx[C_GRID];
    const int64_t L = ctx[C_L], B = ctx[C_B], colours = ctx[C_COLOURS];
    const int64_t W = L + 2, odd = colours - 1;
    const int has_lo = ctx[C_LO_KIND] != NO_BOUND;
    const int has_hi = ctx[C_HI_KIND] != NO_BOUND;
    /* an array bound is read at each site, a scalar one is its slot */
    const int64_t *lo_at = ctx[C_LO_KIND] == ARRAY_BOUND
        ? (const int64_t *)(intptr_t)ctx[C_LO] : 0;
    const int64_t *hi_at = ctx[C_HI_KIND] == ARRAY_BOUND
        ? (const int64_t *)(intptr_t)ctx[C_HI] : 0;
    const int64_t lo_slot = ctx[C_LO], hi_slot = ctx[C_HI];

    const int p2 = (int)k[K_P2];
    const int64_t R = k[K_R], w = 2 * R + 1;
    const int64_t *lookup = (const int64_t *)(intptr_t)k[K_LOOKUP];
    const int64_t mask = k[K_MASK];
    const int64_t *start = (const int64_t *)(intptr_t)k[K_START];
    const double *cdf = (const double *)(intptr_t)k[K_CDF];
    const int64_t width = k[K_WIDTH];
    int64_t *miss = (int64_t *)(intptr_t)k[K_MISS];

    /* the scan is a nest of four loops over (rep, col, x, y), entered at
     * pos's site; every later row, colour and grid starts at its first
     * site, y = (x + col) & odd: (x + col) % 2 for checkerboard, 0 for
     * raster */
    int64_t y = pos % L, x = pos / L % L;
    int64_t col = pos / (L * L) % colours, rep = pos / (L * L * colours);
    for (; rep < B; rep++, col = 0)
    for (; col < colours; col++, x = 0, y = col & odd)
    for (; x < L; x++, y = (x + col) & odd) {
        int64_t *g = grid + (rep * W + x + 1) * W + 1;
        const int64_t at = (rep * L + x) * L;
        for (; y < L; y += colours) {
            int64_t a = g[y - W], b = g[y + W], c = g[y - 1], d = g[y + 1];
            const int64_t lo = lo_at ? lo_at[at + y] : lo_slot;
            const int64_t hi = hi_at ? hi_at[at + y] : hi_slot;
            int64_t base, row;
            if (p2) {
                /* the law of k - floor(S / 4) depends on S mod 4 and the
                 * bound offsets alone; the floor division is written out so
                 * it does not rest on how the compiler shifts a negative S */
                const int64_t s = a + b + c + d;
                base = s >= 0 ? s / 4 : -((3 - s) / 4);
                const int64_t key = (s - 4 * base) * w * w
                    + (has_lo ? clip(lo - base, R) + R : 0) * w
                    + (has_hi ? clip(hi - base, R) + R : 2 * R);
                row = lookup[key];
                if (row < 0) {
                    miss[0] = key;
                    return ((rep * colours + col) * L + x) * L + y;
                }
            } else {
                /* sorting network: a <= b <= c <= d */
                order(&a, &b);
                order(&c, &d);
                order(&a, &c);
                order(&b, &d);
                order(&b, &c);
                base = a;
                const int64_t key[KEY_LEN] = {
                    b - a, c - a, d - a,
                    has_lo ? lo - a : ABSENT, has_hi ? hi - a : ABSENT};
                row = lookup[ENTRY_LEN * zgff_probe(lookup, mask, key) + KEY_LEN];
                if (row < 0) {
                    for (int j = 0; j < KEY_LEN; j++)
                        miss[j] = key[j];
                    return ((rep * colours + col) * L + x) * L + y;
                }
            }
            const double *r = cdf + row * width;
            const double v_u = u[y * L + x];
            int64_t j = 0;
            for (int64_t step = width >> 1; step; step >>= 1)
                if (r[j + step - 1] <= v_u)
                    j += step;
            int64_t v = base + start[row] + j;
            if (has_lo && v < lo)
                v = lo;
            if (has_hi && v > hi)
                v = hi;
            g[y] = v;
        }
    }
    return -1;
}
