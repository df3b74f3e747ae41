#include "arch/imbalance.h"

#include <algorithm>

#include "common/logging.h"

namespace procrustes {
namespace arch {

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

std::vector<double>
collectOverheads(const NetworkModel &model,
                 const std::vector<LayerSparsityProfile> &profiles,
                 Phase phase, MappingKind mapping, int64_t batch,
                 const ArrayConfig &cfg, BalanceMode balance)
{
    PROCRUSTES_ASSERT(profiles.size() == model.layers.size(),
                      "profile count mismatch");
    CostOptions opts;
    opts.sparse = true;
    opts.balance = balance;
    const CostModel cm(cfg, opts);

    std::vector<double> overheads;
    for (size_t i = 0; i < model.layers.size(); ++i) {
        const auto waves = cm.waveStats(model.layers[i], phase, mapping,
                                        profiles[i], batch);
        for (const WaveStats &ws : waves)
            overheads.push_back(ws.overhead());
    }
    return overheads;
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

} // namespace arch
} // namespace procrustes
