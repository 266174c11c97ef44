/* The forward/backward sweep of msdd._sweep, with the numpy loop's float
 * operations in the same order, so both fill R with the same bits.
 *
 * E is the (N, B, S) log evidence and P the (N, B, 2) log priors; R is
 * the (N+1, 2, B, S) buffer whose row 0 the caller has filled.  R[i, 0]
 * is alpha_i and the first S/2 columns of R[i, 1] hold beta_{N-i}; the
 * other S/2 columns are never read here.  All arrays are C-contiguous.
 *
 * Only IEEE add, subtract and compare and libm exp/log1p are used, and the
 * flags the caller compiles with (-ffp-contract=off, no vectorization)
 * keep the compiler from fusing or reordering them.
 */
#include <math.h>

/* npy_logaddexp's branches, in its order */
static double logaddexp(double x, double y)
{
    if (x == y)
        return x + 0.693147180559945309417232121458176568;
    double d = x - y;
    if (d > 0)
        return x + log1p(exp(-d));
    if (d <= 0)
        return y + log1p(exp(d));
    return d;
}

/* subtract the row max, taken under np.maximum's rule */
static void normalize(double *x, long n)
{
    double m = x[0];
    for (long s = 1; s < n; s++)
        m = (m >= x[s] || isnan(m)) ? m : x[s];
    for (long s = 0; s < n; s++)
        x[s] -= m;
}

void sweep(const double *E, const double *P, double *R, long N, long B,
           long S)
{
    long half = S >> 1, row = 2 * B * S;
    for (long i = 0; i < N; i++) {
        for (long j = 0; j < B; j++) {
            const double *a = R + i * row + j * S;
            double *an = R + (i + 1) * row + j * S;
            const double *e = E + (i * B + j) * S, *lp = P + (i * B + j) * 2;
            for (long k = 0; k < half; k++) {
                double t = logaddexp(a[k], a[k + half]);
                an[2 * k] = (t + lp[0]) + e[2 * k];
                an[2 * k + 1] = (t + lp[1]) + e[2 * k + 1];
            }
            normalize(an, S);

            const double *b = a + B * S;
            double *bn = an + B * S;
            const double *eb = E + ((N - 1 - i) * B + j) * S;
            const double *lpb = P + ((N - 1 - i) * B + j) * 2;
            for (long k = 0; k < half; k++) {
                long s = 2 * k;
                double x = (b[s % half] + eb[s]) + lpb[0];
                double y = (b[(s + 1) % half] + eb[s + 1]) + lpb[1];
                bn[k] = logaddexp(x, y);
            }
            normalize(bn, half);
        }
    }
}
