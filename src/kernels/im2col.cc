#include "kernels/im2col.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"

namespace procrustes {
namespace kernels {

ConvGeom
makeConvGeom(int64_t c, int64_t h, int64_t w, int64_t k, int64_t r,
             int64_t s, int64_t stride, int64_t pad)
{
    PROCRUSTES_ASSERT(c > 0 && h > 0 && w > 0 && k > 0 && r > 0 && s > 0,
                      "conv geometry extents must be positive");
    PROCRUSTES_ASSERT(stride > 0 && pad >= 0, "bad stride/pad");
    // Guard before the division: a negative numerator truncates toward
    // zero in C++, which would turn an empty output into a bogus 1.
    PROCRUSTES_ASSERT(h + 2 * pad >= r && w + 2 * pad >= s,
                      "kernel larger than padded input");
    ConvGeom g;
    g.c = c;
    g.h = h;
    g.w = w;
    g.k = k;
    g.r = r;
    g.s = s;
    g.stride = stride;
    g.pad = pad;
    g.p = (h + 2 * pad - r) / stride + 1;
    g.q = (w + 2 * pad - s) / stride + 1;
    PROCRUSTES_ASSERT(g.p > 0 && g.q > 0, "conv output would be empty");
    return g;
}

void
im2col(const float *x, const ConvGeom &g, float *col)
{
    const int64_t pq = g.p * g.q;
    for (int64_t ic = 0; ic < g.c; ++ic) {
        for (int64_t ir = 0; ir < g.r; ++ir) {
            int64_t p_lo, p_hi;
            validOutRange(g.p, g.h, ir, g.stride, g.pad, &p_lo, &p_hi);
            for (int64_t is = 0; is < g.s; ++is) {
                int64_t q_lo, q_hi;
                validOutRange(g.q, g.w, is, g.stride, g.pad, &q_lo, &q_hi);
                float *dst = col + ((ic * g.r + ir) * g.s + is) * pq;
                if (p_lo > 0) {
                    std::memset(dst, 0,
                                static_cast<size_t>(p_lo * g.q) *
                                    sizeof(float));
                }
                for (int64_t op = p_lo; op < p_hi; ++op) {
                    const int64_t ih = op * g.stride + ir - g.pad;
                    const float *src = x + (ic * g.h + ih) * g.w;
                    float *row = dst + op * g.q;
                    if (q_lo > 0) {
                        std::memset(row, 0,
                                    static_cast<size_t>(q_lo) *
                                        sizeof(float));
                    }
                    if (g.stride == 1) {
                        if (q_hi > q_lo) {
                            std::memcpy(row + q_lo,
                                        src + q_lo + is - g.pad,
                                        static_cast<size_t>(q_hi - q_lo) *
                                            sizeof(float));
                        }
                    } else {
                        for (int64_t oq = q_lo; oq < q_hi; ++oq)
                            row[oq] =
                                src[oq * g.stride + is - g.pad];
                    }
                    if (q_hi < g.q) {
                        std::memset(row + q_hi, 0,
                                    static_cast<size_t>(g.q - q_hi) *
                                        sizeof(float));
                    }
                }
                if (p_hi < g.p) {
                    std::memset(dst + p_hi * g.q, 0,
                                static_cast<size_t>((g.p - p_hi) * g.q) *
                                    sizeof(float));
                }
            }
        }
    }
}

void
col2im(const float *col, const ConvGeom &g, float *x)
{
    const int64_t pq = g.p * g.q;
    for (int64_t ic = 0; ic < g.c; ++ic) {
        for (int64_t ir = 0; ir < g.r; ++ir) {
            int64_t p_lo, p_hi;
            validOutRange(g.p, g.h, ir, g.stride, g.pad, &p_lo, &p_hi);
            for (int64_t is = 0; is < g.s; ++is) {
                int64_t q_lo, q_hi;
                validOutRange(g.q, g.w, is, g.stride, g.pad, &q_lo, &q_hi);
                const float *src =
                    col + ((ic * g.r + ir) * g.s + is) * pq;
                // Base includes q_lo so it never points before the
                // image row (is < pad would otherwise underflow it).
                const int64_t iw0 = q_lo * g.stride + is - g.pad;
                for (int64_t op = p_lo; op < p_hi; ++op) {
                    const int64_t ih = op * g.stride + ir - g.pad;
                    float *dst = x + (ic * g.h + ih) * g.w + iw0;
                    const float *row = src + op * g.q + q_lo;
                    // Each dx element gets one add here either way; the
                    // unit-stride loop vectorizes.
                    if (g.stride == 1) {
                        for (int64_t oq = 0; oq < q_hi - q_lo; ++oq)
                            dst[oq] += row[oq];
                    } else {
                        for (int64_t oq = 0; oq < q_hi - q_lo; ++oq)
                            dst[oq * g.stride] += row[oq];
                    }
                }
            }
        }
    }
}

} // namespace kernels
} // namespace procrustes
