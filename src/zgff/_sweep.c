/* Compiled loops of zgff: the heat-bath sweep of zgff.mcmc over a batch of
 * padded grids, and both bridge samplers of zgff.rw.
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
 * The bridge samplers (zgff.rw) also run on buffers that Python owns.
 * zgff_bridge_draw takes one column step of the transfer sampler for every
 * path. zgff_bridge_mcmc runs the whole single-column Metropolis chain on
 * the caller's numpy bit generator, called through its ctypes interface: its
 * 32-bit words and 53-bit doubles are numpy's own, and the bounded integers
 * are drawn from the 32-bit words by Lemire's method as Generator.integers
 * draws them, so it reproduces the samples of the numpy loop it replaced bit
 * for bit.
 *
 * Build with -O2 and without -ffast-math: the draws rely on the IEEE
 * compares cdf[i] <= u, u > cdf[i] and u < ratio.
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


/* numpy's bit generator as its BitGenerator.ctypes interface gives it: the
 * state address and the 32-bit and double draws on that state. */
typedef uint32_t (*next_uint32_fn)(void *);
typedef double (*next_double_fn)(void *);

/* Generator.integers(0, n) for 1 <= n < 2^32: Lemire's multiply-and-reject
 * draw on 32-bit words, with numpy's rejection threshold; n = 1 draws no
 * word. numpy exports no bounded draw through ctypes, so it is kept here. */
static inline int64_t draw_below(void *state, next_uint32_fn next_uint32,
                                 uint32_t n)
{
    if (n == 1)
        return 0;
    uint64_t m = (uint64_t)next_uint32(state) * n;
    uint32_t left = (uint32_t)m;
    if (left < n) {
        const uint32_t threshold = (UINT32_MAX - (n - 1)) % n;
        while (left < threshold) {
            m = (uint64_t)next_uint32(state) * n;
            left = (uint32_t)m;
        }
    }
    return (int64_t)(m >> 32);
}

/* One column step of the transfer sampler for count paths: the path whose
 * height index is h = path[p stride] takes step j = #{i : u[p] > cdf[h][i]}
 * of the n_steps in each cdf row, and path[p stride + 1] = h + dys[j].
 * Returns -1, or the first path whose row has no step above its uniform (a
 * zero-mass row), before that path is written. */
int64_t zgff_bridge_draw(const double *cdf, int64_t n_steps, const int64_t *dys,
                         const double *u, int64_t *path, int64_t count,
                         int64_t stride)
{
    for (int64_t p = 0; p < count; p++) {
        int64_t *at = path + p * stride;
        const double *row = cdf + at[0] * n_steps;
        int64_t j = 0;
        for (int64_t i = 0; i < n_steps; i++)
            j += u[p] > row[i];
        if (j == n_steps)
            return p;
        at[1] = at[0] + dys[j];
    }
    return -1;
}

enum { M_PATH, M_W, M_FLOOR, M_CEILING, M_RATIO, M_DMIN, M_SPAN, M_SAMPLES,
       M_COUNT, M_BURN_IN, M_THIN, M_COLS, M_SIGNS, M_UNIFORMS, M_TALLY };

/* The single-column Metropolis chain of rw._sample_mcmc on the path
 * y[0..W] (slots M_*), drawing from numpy's bit generator through its state
 * and its next_uint32 and next_double functions, which the caller keeps
 * alive for the call. Each of its burn_in + count thin sweeps draws, like
 *   cols = integers(1, W, W - 1); signs = integers(0, 2, W - 1);
 *   us = random(W - 1)
 * into the caller's three buffers of W - 1 entries (a sign draw 0 moves
 * down, 1 up), then moves column cols[i] a step by the sign for each i in
 * turn. A move that keeps the floor and ceiling, and whose ratio
 * r = ratio[(dl - dmin) span + dr - dmin][up] is not negative, with dl and
 * dr the column's left and right steps, is a proposal, accepted if
 * us[i] < r (a negative r marks a move that leaves the law's support).
 * After the burn-in, every thin-th sweep copies the path to the next row of
 * samples. tally receives (accepts, proposals). W - 1 must be below 2^32. */
void zgff_bridge_mcmc(const int64_t *d, void *state,
                      next_uint32_fn next_uint32, next_double_fn next_double)
{
    int64_t *y = (int64_t *)(intptr_t)d[M_PATH];
    const int64_t W = d[M_W], floor = d[M_FLOOR], ceiling = d[M_CEILING];
    const double *ratio = (const double *)(intptr_t)d[M_RATIO];
    const int64_t dmin = d[M_DMIN], span = d[M_SPAN];
    int64_t *samples = (int64_t *)(intptr_t)d[M_SAMPLES];
    const int64_t burn_in = d[M_BURN_IN], thin = d[M_THIN];
    const int64_t sweeps = burn_in + d[M_COUNT] * thin;
    int64_t *cols = (int64_t *)(intptr_t)d[M_COLS];
    int64_t *signs = (int64_t *)(intptr_t)d[M_SIGNS];
    double *us = (double *)(intptr_t)d[M_UNIFORMS];
    int64_t *tally = (int64_t *)(intptr_t)d[M_TALLY];
    const int64_t n = W - 1;
    int64_t accepts = 0, proposals = 0;
    for (int64_t s = 0; s < sweeps; s++) {
        for (int64_t i = 0; i < n; i++)
            cols[i] = 1 + draw_below(state, next_uint32, (uint32_t)n);
        for (int64_t i = 0; i < n; i++)
            signs[i] = draw_below(state, next_uint32, 2);
        for (int64_t i = 0; i < n; i++)
            us[i] = next_double(state);
        for (int64_t i = 0; i < n; i++) {
            const int64_t c = cols[i], yc = y[c], ynew = yc + 2 * signs[i] - 1;
            if (ynew < floor || ynew > ceiling)
                continue;
            const double r = ratio[((yc - y[c - 1] - dmin) * span
                                    + y[c + 1] - yc - dmin) * 2 + signs[i]];
            if (r < 0)
                continue;
            proposals++;
            if (us[i] < r) {
                y[c] = ynew;
                accepts++;
            }
        }
        if (s >= burn_in && (s - burn_in) % thin == 0) {
            int64_t *row = samples + (s - burn_in) / thin * (W + 1);
            for (int64_t i = 0; i <= W; i++)
                row[i] = y[i];
        }
    }
    tally[0] = accepts;
    tally[1] = proposals;
}
