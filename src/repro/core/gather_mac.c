/* Native gather-MAC: the structured GEMM of every term of a compressed
 * TASD series, in one call.
 *
 *     out[r, :] = Σ_t (0 + Σ_k vals_t[r, k] * b[rows_t[r, k], :])
 *
 * accumulated over the terms t in order, starting from zeros.  It gives the
 * bits of the einsum spelling it replaces (repro.core.native.einsum_gather:
 * np.einsum("rk,rkn->rn") per term, summed with `out += term`), because it
 * makes the same roundings in the same order:
 *
 * - N >= 2: each output element sums its products in slot order from 0.
 * - N == 1: einsum's two-lane dot product.  Slots go in chunks of 8; lane
 *   j in {0, 1} adds the products of slots 6+j, 4+j, 2+j and then 0+j of
 *   each chunk; the tail goes 2 slots at a time, zero-filled; the dot
 *   product is lane0 + lane1.
 *
 * Build with -ffp-contract=off and without fast-math, so every product and
 * sum is rounded as written.  A NaN's sign and payload are outside the
 * contract: IEEE 754 leaves them open, and the compiler may commute an
 * addition.  Interleaving rows and splitting the columns into blocks that
 * keep their running sums in registers only give the CPU independent add
 * chains; neither moves an addition.  The loader probes the built kernel
 * against the einsum spelling before anything uses it.
 */
#include <stdint.h>
#include <string.h>

#define RB 4  /* most output rows interleaved per pass */
#define W 16  /* most output columns per pass at N >= 2 */

/* N == 1: `nr` rows of one term.  Every `nr`, and each `w` below, is a
 * constant after inlining wherever it can be, so the sums live in registers. */
static inline __attribute__((always_inline)) void
dot_rows(int nr, const double *restrict v, const int64_t *restrict ix, int64_t s,
         const double *restrict b, double *restrict out)
{
    double a0[RB], a1[RB];
    for (int i = 0; i < nr; i++)
        a0[i] = a1[i] = 0.0;
    int64_t k = 0;
    for (; k + 8 <= s; k += 8)
        for (int i = 0; i < nr; i++) {
            const double *vi = v + i * s + k;
            const int64_t *xi = ix + i * s + k;
            for (int d = 6; d >= 0; d -= 2) {
                a0[i] = a0[i] + vi[d] * b[xi[d]];
                a1[i] = a1[i] + vi[d + 1] * b[xi[d + 1]];
            }
        }
    for (; k < s; k += 2)
        for (int i = 0; i < nr; i++) {
            a0[i] = a0[i] + v[i * s + k] * b[ix[i * s + k]];
            a1[i] = a1[i] + (k + 1 < s ? v[i * s + k + 1] * b[ix[i * s + k + 1]] : 0.0);
        }
    for (int i = 0; i < nr; i++)
        out[i] = out[i] + (0.0 + (a0[i] + a1[i]));
}

/* N >= 2: `nr` rows by `w` <= W columns of one term; b and out rows are n apart. */
static inline __attribute__((always_inline)) void
axpy_rows(int nr, int64_t w, const double *restrict v, const int64_t *restrict ix, int64_t s,
          const double *restrict b, int64_t n, double *restrict out)
{
    double t[RB * W];
    for (int64_t j = 0; j < nr * w; j++)
        t[j] = 0.0;
    for (int64_t k = 0; k < s; k++)
        for (int i = 0; i < nr; i++) {
            const double vk = v[i * s + k];
            const double *restrict bk = b + ix[i * s + k] * n;
            for (int64_t j = 0; j < w; j++)
                t[i * w + j] = t[i * w + j] + vk * bk[j];
        }
    for (int i = 0; i < nr; i++)
        for (int64_t j = 0; j < w; j++)
            out[i * n + j] = out[i * n + j] + t[i * w + j];
}

/* One term over all rows, `rb` rows a pass and the rest one by one. */
static inline __attribute__((always_inline)) void
term_rows(int rb, int64_t w, const double *v, const int64_t *ix, int64_t s, int64_t n_rows,
          const double *b, int64_t n, double *out)
{
    int64_t r = 0;
    if (n == 1) {
        for (; r + rb <= n_rows; r += rb)
            dot_rows(rb, v + r * s, ix + r * s, s, b, out + r);
        for (; r < n_rows; r++)
            dot_rows(1, v + r * s, ix + r * s, s, b, out + r);
    } else {
        for (; r + rb <= n_rows; r += rb)
            axpy_rows(rb, w, v + r * s, ix + r * s, s, b, n, out + r * n);
        for (; r < n_rows; r++)
            axpy_rows(1, w, v + r * s, ix + r * s, s, b, n, out + r * n);
    }
}

void gather_mac(int64_t n_terms, const double *const *vals, const int64_t *const *rows,
                const int64_t *slots, int64_t n_rows, const double *b, int64_t n,
                double *out)
{
    memset(out, 0, (size_t)n_rows * (size_t)n * sizeof(double));
    for (int64_t t = 0; t < n_terms; t++) {
        const double *v = vals[t];
        const int64_t *ix = rows[t];
        const int64_t s = slots[t];
        switch (n) {
        case 0: break;
        case 1: term_rows(RB, 1, v, ix, s, n_rows, b, 1, out); break;
        case 4: term_rows(RB, 4, v, ix, s, n_rows, b, 4, out); break;
        default: { /* blocks of W columns, then the rest */
            int64_t c = 0;
            for (; c + W <= n; c += W)
                term_rows(1, W, v, ix, s, n_rows, b + c, n, out + c);
            if (c < n)
                term_rows(1, n - c, v, ix, s, n_rows, b + c, n, out + c);
        }
        }
    }
}
