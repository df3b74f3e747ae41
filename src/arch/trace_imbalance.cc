#include "arch/trace_imbalance.h"

#include <algorithm>

#include "arch/dataflow.h"
#include "arch/wave_plan.h"
#include "common/logging.h"

namespace procrustes {
namespace arch {

namespace {

/** Invoke `fn` on every wave's tile set of an epoch in one phase. */
template <typename Fn>
void
forEachMeasuredWave(const EpochTrace &epoch, Phase phase,
                    MappingKind mapping, const ArrayConfig &cfg, Fn &&fn)
{
    PROCRUSTES_ASSERT(epoch.batchSize > 0, "epoch has no batch size");
    for (const LayerTrace &l : epoch.layers) {
        const WavePlan plan =
            planWaves(l, phase, mapping, epoch.batchSize, cfg);
        for (const PlannedWave &w : plan.waves)
            fn(w.tiles);
    }
}

} // namespace

double
ImbalanceHistogram::fractionAbove(double threshold) const
{
    double total = 0.0;
    for (size_t i = 0; i < fraction.size(); ++i) {
        const double bin_lo = static_cast<double>(i) * binWidth;
        if (bin_lo >= threshold)
            total += fraction[i];
    }
    return total;
}

double
waveOverhead(const std::vector<TileHalves> &tiles, BalanceMode balance,
             bool cheap_ok)
{
    if (tiles.empty())
        return 0.0;
    return reduceWave(tiles, balance, cheap_ok).overhead();
}

ImbalanceHistogram
buildHistogram(const std::vector<double> &overheads, int bins,
               double bin_width)
{
    PROCRUSTES_ASSERT(bins > 0 && bin_width > 0.0, "bad histogram spec");
    ImbalanceHistogram h;
    h.binWidth = bin_width;
    h.fraction.assign(static_cast<size_t>(bins), 0.0);
    if (overheads.empty())
        return h;

    double sum = 0.0;
    for (double o : overheads) {
        sum += o;
        h.maxOverhead = std::max(h.maxOverhead, o);
        auto bin = static_cast<size_t>(o / bin_width);
        bin = std::min(bin, static_cast<size_t>(bins - 1));
        h.fraction[bin] += 1.0;
    }
    for (double &f : h.fraction)
        f /= static_cast<double>(overheads.size());
    h.meanOverhead = sum / static_cast<double>(overheads.size());
    return h;
}

std::vector<double>
collectMeasuredOverheads(const EpochTrace &epoch, Phase phase,
                         MappingKind mapping, const ArrayConfig &cfg,
                         BalanceMode balance)
{
    const bool cheap_ok = supportsCheapBalancing(phase, mapping);
    std::vector<double> overheads;
    forEachMeasuredWave(epoch, phase, mapping, cfg,
                        [&](const std::vector<TileHalves> &tiles) {
                            overheads.push_back(
                                waveOverhead(tiles, balance, cheap_ok));
                        });
    return overheads;
}

EpochImbalance
measuredEpochImbalance(const EpochTrace &epoch, MappingKind mapping,
                       const ArrayConfig &cfg, BalanceMode balance,
                       int bins, double bin_width)
{
    std::vector<double> balanced;
    std::vector<double> unbalanced;
    // Forward and Backward tile identically (both are sparse in
    // Operand::Weights — sparseOperand — so waves and the cheap-
    // balancing gate match), so the mask is tiled once and each
    // overhead counted twice to keep the pooled phase weighting.
    for (Phase phase : {Phase::Forward, Phase::WeightUpdate}) {
        const bool cheap_ok = supportsCheapBalancing(phase, mapping);
        const int copies = phase == Phase::Forward ? 2 : 1;
        forEachMeasuredWave(
            epoch, phase, mapping, cfg,
            [&](const std::vector<TileHalves> &tiles) {
                const double b = waveOverhead(tiles, balance, cheap_ok);
                const double u =
                    waveOverhead(tiles, BalanceMode::None, cheap_ok);
                for (int r = 0; r < copies; ++r) {
                    balanced.push_back(b);
                    unbalanced.push_back(u);
                }
            });
    }
    EpochImbalance out;
    out.balanced = buildHistogram(balanced, bins, bin_width);
    out.unbalanced = buildHistogram(unbalanced, bins, bin_width);
    return out;
}

} // namespace arch
} // namespace procrustes
