#include "arch/wave_plan.h"

#include <algorithm>
#include <utility>

#include "arch/workload_trace.h"
#include "common/logging.h"
#include "common/math_utils.h"

namespace procrustes {
namespace arch {

int64_t
weightTileChunk(const ArrayConfig &cfg, const LayerShape &layer,
                int64_t ext, int64_t array_dim)
{
    const int64_t rf_weight_words = (cfg.rfBytesPerPe / 4) * 3 / 4;
    const int64_t by_rf =
        std::max<int64_t>(1, rf_weight_words / (layer.R * layer.S));
    const int64_t by_need = ceilDiv(ext, array_dim);
    return std::min(by_rf, by_need);
}

double
WavePlan::work(const PlannedWave &w, int64_t i, int64_t j) const
{
    switch (shape) {
      case WaveShape::Uniform:
        return w.tiles[0].total();
      case WaveShape::Line:
        return w.tiles[static_cast<size_t>(lineAxis == 0 ? i : j)].total();
      case WaveShape::Chunked:
      case WaveShape::Pair:
        return w.tiles[static_cast<size_t>(i * w.n1 + j)].total();
    }
    PANIC("unknown wave shape");
}

int64_t
WavePlan::chunkCount(const PlannedWave &w, int64_t j) const
{
    return std::min(chunk, ext1 - (w.base1 + j * chunk));
}

namespace {

/** A tile whose halves split its work evenly. */
TileHalves
even(double work)
{
    return TileHalves{work / 2.0, work / 2.0};
}

/** Measured mean density with an index wrapped into a vector, or the
    scalar mean when no vector was measured (ragged epochs drop them). */
double
wrapped(const std::vector<double> &v, int64_t idx, double fallback)
{
    if (v.empty())
        return fallback;
    return v[static_cast<size_t>(idx) % v.size()];
}

/** Densities from a traced layer's epoch-final mask and activation
    vectors. */
struct TraceSource
{
    const LayerTrace &l;

    double
    uniform(Operand sp) const
    {
        return sp == Operand::Weights ? l.weightDensity() : l.iacts.mean;
    }

    double
    kernelPositions() const
    {
        return static_cast<double>(std::max<int64_t>(1, l.mask.R) *
                                   std::max<int64_t>(1, l.mask.S));
    }

    TileHalves
    slice(Operand sp, Dim d, int64_t idx) const
    {
        const sparse::SparsityMask &mask = l.mask;
        if (sp == Operand::Weights) {
            // Live positions of one slice over its dense positions,
            // halved along the other weight dim — the axis the
            // half-tile balancer cuts (Figure 9).
            if (d != Dim::K && d != Dim::C)
                PANIC("weights sliced along a non-weight dim");
            const bool along_k = d == Dim::K;
            const int64_t across = along_k ? mask.C : mask.K;
            const double vol =
                static_cast<double>(std::max<int64_t>(1, across)) *
                kernelPositions();
            const auto nnz = [&](int64_t lo, int64_t hi) {
                return static_cast<double>(
                    along_k ? mask.tileNnz(idx, idx + 1, lo, hi)
                            : mask.tileNnz(lo, hi, idx, idx + 1));
            };
            if (across <= 1) {
                const double w = nnz(0, across);
                return {w / 2.0 / vol, w / 2.0 / vol};
            }
            const int64_t split = across / 2;
            return {nnz(0, split) / vol, nnz(split, across) / vol};
        }
        if (d == Dim::N) {
            // Measured per-sample halves (already split along C by the
            // telemetry scan); fall back to an even split of the sample
            // density, then to the scalar mean.
            const double sample =
                wrapped(l.iacts.perSample, idx, l.iacts.mean);
            if (l.iacts.perSampleHalf.empty())
                return even(sample);
            return {wrapped(l.iacts.perSampleHalf, idx * 2, sample / 2.0),
                    wrapped(l.iacts.perSampleHalf, idx * 2 + 1,
                            sample / 2.0)};
        }
        if (d == Dim::C)
            return even(wrapped(l.iacts.perChannel, idx, l.iacts.mean));
        PANIC("iacts sliced along an unsupported dim");
    }

    double
    kernel(int64_t k, int64_t c) const
    {
        return static_cast<double>(l.mask.blockNnz(k, c)) /
               kernelPositions();
    }

    double
    pair(Dim d0, int64_t i0, Dim d1, int64_t i1) const
    {
        // Ratio-combine the measured marginals. C and N index their
        // per-slot vectors directly; P and Q map the output location
        // onto the measured *input-space* spatial marginals through the
        // layer stride (clamped to the measured extent).
        double work = 1.0;
        bool any = false;
        for (const auto &di :
             {std::make_pair(d0, i0), std::make_pair(d1, i1)}) {
            if (di.first == Dim::N) {
                work *= wrapped(l.iacts.perSample, di.second, l.iacts.mean);
                any = true;
            } else if (di.first == Dim::C) {
                work *=
                    wrapped(l.iacts.perChannel, di.second, l.iacts.mean);
                any = true;
            } else if (di.first == Dim::P || di.first == Dim::Q) {
                const std::vector<double> &m = di.first == Dim::P
                                                   ? l.iacts.perRow
                                                   : l.iacts.perCol;
                if (!m.empty()) {
                    const int64_t last = static_cast<int64_t>(m.size()) - 1;
                    const int64_t at =
                        std::min(di.second * l.shape.stride, last);
                    work *= m[static_cast<size_t>(at)];
                    any = true;
                }
            }
        }
        if (!any)
            return l.iacts.mean;
        return clampd(work / std::max(l.iacts.mean, 1e-9), 0.0, 1.0);
    }
};

} // namespace

WavePlan
planWaves(const LayerTrace &traced, Phase phase, MappingKind mapping,
          int64_t batch, const ArrayConfig &cfg)
{
    // The tile walk: block both spatial dims by the array, in issue
    // order, and read every active PE's work from the traced layer.
    const LayerShape &layer = traced.shape;
    const TraceSource src{traced};
    WavePlan plan;
    plan.dims = spatialDims(mapping);
    const Dim d0 = plan.dims[0];
    const Dim d1 = plan.dims[1];
    const int64_t a0 = cfg.rows;
    const int64_t a1 = cfg.cols;
    plan.ext0 = dimExtent(layer, d0, batch);
    plan.ext1 = dimExtent(layer, d1, batch);
    const double dense_macs =
        static_cast<double>(batch) *
        static_cast<double>(layer.macsPerSample());
    plan.perIndex = dense_macs / static_cast<double>(plan.ext0 * plan.ext1);

    const Operand sp = sparseOperand(phase);
    const bool dep0 = dependsOn(sp, d0);
    const bool dep1 = dependsOn(sp, d1);
    if (dep0 != dep1)
        plan.shape = WaveShape::Line;
    else if (!dep0)
        plan.shape = WaveShape::Uniform;
    else if (sp == Operand::Weights)
        plan.shape = WaveShape::Chunked;
    else
        plan.shape = WaveShape::Pair;
    plan.lineAxis = dep0 ? 0 : 1;
    if (plan.shape == WaveShape::Chunked)
        plan.chunk = weightTileChunk(cfg, layer, plan.ext1, a1);
    const int64_t g = plan.chunk;
    const bool k_first = d0 == Dim::K;
    const double uniform =
        plan.shape == WaveShape::Uniform ? src.uniform(sp) : 0.0;

    plan.waves.reserve(static_cast<size_t>(ceilDiv(plan.ext0, a0) *
                                           ceilDiv(plan.ext1, a1 * g)));
    for (int64_t b0 = 0; b0 < plan.ext0; b0 += a0) {
        for (int64_t b1 = 0; b1 < plan.ext1; b1 += a1 * g) {
            PlannedWave w;
            w.base1 = b1;
            w.n0 = std::min(a0, plan.ext0 - b0);
            w.n1 = std::min(a1, ceilDiv(plan.ext1 - b1, g));
            switch (plan.shape) {
              case WaveShape::Uniform:
                w.tiles.push_back(even(uniform));
                break;
              case WaveShape::Line: {
                const int64_t base = dep0 ? b0 : b1;
                const int64_t count = dep0 ? w.n0 : w.n1;
                w.tiles.reserve(static_cast<size_t>(count));
                for (int64_t i = 0; i < count; ++i)
                    w.tiles.push_back(
                        src.slice(sp, plan.dims[plan.lineAxis], base + i));
                break;
              }
              case WaveShape::Chunked:
                w.tiles.reserve(static_cast<size_t>(w.n0 * w.n1));
                for (int64_t i = 0; i < w.n0; ++i) {
                    for (int64_t j = 0; j < w.n1; ++j) {
                        const int64_t first = b1 + j * g;
                        double sum = 0.0;
                        for (int64_t s = 0; s < plan.chunkCount(w, j); ++s)
                            sum += k_first ? src.kernel(b0 + i, first + s)
                                           : src.kernel(first + s, b0 + i);
                        w.tiles.push_back(even(sum));
                    }
                }
                break;
              case WaveShape::Pair:
                w.tiles.reserve(static_cast<size_t>(w.n0 * w.n1));
                for (int64_t i = 0; i < w.n0; ++i) {
                    for (int64_t j = 0; j < w.n1; ++j)
                        w.tiles.push_back(
                            even(src.pair(d0, b0 + i, d1, b1 + j)));
                }
                break;
            }
            plan.waves.push_back(std::move(w));
        }
    }
    return plan;
}

} // namespace arch
} // namespace procrustes
