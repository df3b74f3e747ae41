/**
 * @file
 * The tests' one brute-force oracle for the executed-MAC tallies of the
 * three sparse training convolutions.
 */

#ifndef PROCRUSTES_TESTS_BRUTE_FORCE_MACS_H_
#define PROCRUSTES_TESTS_BRUTE_FORCE_MACS_H_

#include <cstdint>

#include "tensor/tensor.h"

namespace procrustes {

/** Executed MACs per phase of one conv training step. */
struct PhaseMacs
{
    int64_t forward = 0;
    int64_t backwardData = 0;
    int64_t backwardWeight = 0;
};

/**
 * Count every (n, k, c, r, s, p, q) tuple with a non-zero weight whose
 * input position (p * stride + r - pad, q * stride + s - pad) is in
 * bounds. The forward executor skips zero weights only, so each tuple
 * is a forward MAC; backward-data also skips zero dy, backward-weight
 * zero x.
 *
 * @param w dense filters [K, C, R, S]; zeros are the pruned weights.
 * @param x forward input activations [N, C, H, W].
 * @param dy output-side gradient [N, K, P, Q].
 */
inline PhaseMacs
bruteForceConvMacs(const Tensor &w, const Tensor &x, const Tensor &dy,
                   int64_t stride, int64_t pad)
{
    const Shape &ws = w.shape();
    const Shape &xs = x.shape();
    const int64_t n = xs[0];
    const int64_t k = ws[0], c = ws[1], r_ext = ws[2], s_ext = ws[3];
    const int64_t h = xs[2], width = xs[3];
    const int64_t p_ext = (h + 2 * pad - r_ext) / stride + 1;
    const int64_t q_ext = (width + 2 * pad - s_ext) / stride + 1;
    PhaseMacs counts;
    for (int64_t in = 0; in < n; ++in) {
        for (int64_t ok = 0; ok < k; ++ok) {
            for (int64_t ic = 0; ic < c; ++ic) {
                for (int64_t r = 0; r < r_ext; ++r) {
                    for (int64_t s = 0; s < s_ext; ++s) {
                        if (w(ok, ic, r, s) == 0.0f)
                            continue;
                        for (int64_t p = 0; p < p_ext; ++p) {
                            const int64_t ih = p * stride + r - pad;
                            if (ih < 0 || ih >= h)
                                continue;
                            for (int64_t q = 0; q < q_ext; ++q) {
                                const int64_t iw = q * stride + s - pad;
                                if (iw < 0 || iw >= width)
                                    continue;
                                ++counts.forward;
                                if (dy(in, ok, p, q) != 0.0f)
                                    ++counts.backwardData;
                                if (x(in, ic, ih, iw) != 0.0f)
                                    ++counts.backwardWeight;
                            }
                        }
                    }
                }
            }
        }
    }
    return counts;
}

} // namespace procrustes

#endif // PROCRUSTES_TESTS_BRUTE_FORCE_MACS_H_
