#include "nn/layer.h"

namespace procrustes {
namespace nn {

void
measureInputDensities(const Tensor &x, LayerStepReport *out)
{
    const Shape &xs = x.shape();
    PROCRUSTES_ASSERT(xs.rank() >= 2, "density scan wants [N, C, ...]");
    const int64_t n = xs[0];
    const int64_t c = xs[1];
    int64_t plane = 1;
    for (int i = 2; i < xs.rank(); ++i)
        plane *= xs[i];

    // One pass over the batch: per-(sample, channel) non-zero counts,
    // from which every aggregate the cost model consumes derives.
    // Rank-4 inputs additionally accumulate the spatial marginals the
    // P,Q tile pairings consume (per input row / column).
    const bool spatial = xs.rank() == 4;
    const int64_t h_ext = spatial ? xs[2] : 1;
    const int64_t w_ext = spatial ? xs[3] : 1;
    std::vector<int64_t> row_cnt(static_cast<size_t>(h_ext), 0);
    std::vector<int64_t> col_cnt(static_cast<size_t>(w_ext), 0);
    std::vector<int64_t> nnz(static_cast<size_t>(n * c), 0);
    const float *px = x.data();
    for (int64_t in = 0; in < n; ++in) {
        for (int64_t ic = 0; ic < c; ++ic) {
            const float *row = px + (in * c + ic) * plane;
            int64_t cnt = 0;
            for (int64_t i = 0; i < plane; ++i) {
                if (row[i] != 0.0f) {
                    ++cnt;
                    if (spatial) {
                        ++row_cnt[static_cast<size_t>(i / w_ext)];
                        ++col_cnt[static_cast<size_t>(i % w_ext)];
                    }
                }
            }
            nnz[static_cast<size_t>(in * c + ic)] = cnt;
        }
    }
    if (spatial) {
        out->inputRowDensity.assign(static_cast<size_t>(h_ext), 0.0);
        out->inputColDensity.assign(static_cast<size_t>(w_ext), 0.0);
        for (int64_t r = 0; r < h_ext; ++r)
            out->inputRowDensity[static_cast<size_t>(r)] =
                static_cast<double>(row_cnt[static_cast<size_t>(r)]) /
                static_cast<double>(n * c * w_ext);
        for (int64_t col = 0; col < w_ext; ++col)
            out->inputColDensity[static_cast<size_t>(col)] =
                static_cast<double>(col_cnt[static_cast<size_t>(col)]) /
                static_cast<double>(n * c * h_ext);
    } else {
        out->inputRowDensity.clear();
        out->inputColDensity.clear();
    }

    const int64_t c_split = c / 2;
    const double sample_elems = static_cast<double>(c * plane);
    out->inputChannelDensity.assign(static_cast<size_t>(c), 0.0);
    out->inputSampleDensity.assign(static_cast<size_t>(n), 0.0);
    out->inputSampleHalfDensity.assign(static_cast<size_t>(n) * 2, 0.0);
    int64_t total = 0;
    for (int64_t in = 0; in < n; ++in) {
        int64_t s = 0;
        int64_t half0 = 0;
        for (int64_t ic = 0; ic < c; ++ic) {
            const int64_t cnt = nnz[static_cast<size_t>(in * c + ic)];
            s += cnt;
            if (ic < c_split)
                half0 += cnt;
            out->inputChannelDensity[static_cast<size_t>(ic)] +=
                static_cast<double>(cnt);
        }
        total += s;
        out->inputSampleDensity[static_cast<size_t>(in)] =
            static_cast<double>(s) / sample_elems;
        // Halves are normalized to the whole sample so they sum to the
        // sample density: the wave plan reads each half as a share of
        // the sample's work (arch::MeasuredIactStats::perSampleHalf).
        out->inputSampleHalfDensity[static_cast<size_t>(in * 2)] =
            static_cast<double>(half0) / sample_elems;
        out->inputSampleHalfDensity[static_cast<size_t>(in * 2 + 1)] =
            static_cast<double>(s - half0) / sample_elems;
    }
    for (int64_t ic = 0; ic < c; ++ic) {
        out->inputChannelDensity[static_cast<size_t>(ic)] /=
            static_cast<double>(n * plane);
    }
    out->inputDensity = static_cast<double>(total) /
                        static_cast<double>(x.numel());
}

} // namespace nn
} // namespace procrustes
