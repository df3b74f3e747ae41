#include "arch/cost_model.h"

#include <algorithm>
#include <cmath>

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

std::vector<std::vector<ChunkTileRef>>
weightChunkWaves(const ArrayConfig &cfg, const LayerShape &layer,
                 int64_t ext0, int64_t ext1)
{
    const int64_t a0 = cfg.rows;
    const int64_t a1 = cfg.cols;
    const int64_t g = weightTileChunk(cfg, layer, ext1, a1);
    const int64_t stride1 = a1 * g;

    std::vector<std::vector<ChunkTileRef>> waves;
    for (int64_t b0 = 0; b0 < ext0; b0 += a0) {
        const int64_t n0 = std::min(a0, ext0 - b0);
        for (int64_t b1 = 0; b1 < ext1; b1 += stride1) {
            std::vector<ChunkTileRef> tiles;
            for (int64_t i = 0; i < n0; ++i) {
                for (int64_t j = 0; j < a1; ++j) {
                    const int64_t base = b1 + j * g;
                    if (base >= ext1)
                        break;
                    tiles.push_back(ChunkTileRef{
                        b0 + i, base, std::min(g, ext1 - base)});
                }
            }
            if (!tiles.empty())
                waves.push_back(std::move(tiles));
        }
    }
    return waves;
}

PhaseCost &
PhaseCost::operator+=(const PhaseCost &o)
{
    cycles += o.cycles;
    computeCycles += o.computeCycles;
    dramCycles += o.dramCycles;
    interconnectCycles += o.interconnectCycles;
    macs += o.macs;
    macEnergyJ += o.macEnergyJ;
    rfEnergyJ += o.rfEnergyJ;
    glbEnergyJ += o.glbEnergyJ;
    dramEnergyJ += o.dramEnergyJ;
    return *this;
}

double
CostModel::effectiveDensity(Phase phase,
                            const LayerSparsityProfile &profile) const
{
    if (!opts_.sparse)
        return 1.0;
    return sparseOperand(phase) == Operand::Weights
               ? profile.weightDensity()
               : profile.iactDensity();
}

double
CostModel::sliceDensity(const LayerSparsityProfile &profile, Operand op,
                        Dim d, int64_t idx) const
{
    if (op == Operand::Weights) {
        if (d == Dim::K)
            return profile.kDensity(idx);
        if (d == Dim::C)
            return profile.cDensity(idx);
        PANIC("weights sliced along a non-weight dim");
    }
    if (d == Dim::N)
        return profile.iactSampleDensity(idx);
    if (d == Dim::C)
        return profile.iactChannelDensity(idx);
    PANIC("iacts sliced along an unsupported dim");
}

TileHalves
CostModel::sliceHalves(const LayerSparsityProfile &profile, Operand op,
                       Dim d, int64_t idx) const
{
    TileHalves h;
    if (op == Operand::Weights) {
        if (d == Dim::K) {
            h.first = profile.kHalfDensity(idx, 0);
            h.second = profile.kHalfDensity(idx, 1);
        } else if (d == Dim::C) {
            h.first = profile.cHalfDensity(idx, 0);
            h.second = profile.cHalfDensity(idx, 1);
        } else {
            PANIC("weights sliced along a non-weight dim");
        }
        return h;
    }
    if (d == Dim::N) {
        h.first = profile.iactSampleHalfDensity(idx, 0);
        h.second = profile.iactSampleHalfDensity(idx, 1);
    } else if (d == Dim::C) {
        h.first = profile.iactChannelHalfDensity(idx, 0);
        h.second = profile.iactChannelHalfDensity(idx, 1);
    } else {
        PANIC("iacts sliced along an unsupported dim");
    }
    return h;
}

double
CostModel::pairDensity(const LayerSparsityProfile &profile, Operand op,
                       Dim d0, int64_t i0, Dim d1, int64_t i1) const
{
    if (op == Operand::Weights) {
        // Only the C,K pairing can index weights in both dims.
        const int64_t k = d0 == Dim::K ? i0 : i1;
        const int64_t c = d0 == Dim::K ? i1 : i0;
        return profile.kernelDensity(k, c);
    }
    if ((d0 == Dim::P && d1 == Dim::Q) || (d0 == Dim::Q && d1 == Dim::P)) {
        // Keep (p, q) order: the measured spatial marginals are not
        // symmetric under index swap.
        const int64_t p = d0 == Dim::P ? i0 : i1;
        const int64_t q = d0 == Dim::P ? i1 : i0;
        return profile.iactSpatialDensity(p, q);
    }
    // C,N pairing: ratio-combine the marginal densities so the mean
    // stays near the layer's mean activation density.
    const double dens0 = sliceDensity(profile, op, d0, i0);
    const double dens1 = sliceDensity(profile, op, d1, i1);
    const double mean_density = profile.iactDensity();
    return clampd(dens0 * dens1 / std::max(mean_density, 1e-9), 0.01,
                  1.0);
}

std::vector<WaveStats>
CostModel::waveStats(const LayerShape &layer, Phase phase,
                     MappingKind mapping,
                     const LayerSparsityProfile &profile,
                     int64_t batch) const
{
    const auto dims = spatialDims(mapping);
    const int64_t a0 = cfg_.rows;
    const int64_t a1 = cfg_.cols;
    const int64_t ext0 = dimExtent(layer, dims[0], batch);
    const int64_t ext1 = dimExtent(layer, dims[1], batch);
    const double dense_macs =
        static_cast<double>(batch) *
        static_cast<double>(layer.macsPerSample());
    const double per_index =
        dense_macs / static_cast<double>(ext0 * ext1);

    const Operand sp = sparseOperand(phase);
    const bool dep0 = dependsOn(sp, dims[0]);
    const bool dep1 = dependsOn(sp, dims[1]);
    const double global_density = effectiveDensity(phase, profile);
    const bool model_structure = opts_.sparse && !opts_.ideal;
    const bool cheap_ok = supportsCheapBalancing(phase, mapping);

    if (model_structure && dep0 && dep1 && sp == Operand::Weights)
        return chunkedWeightWaves(layer, phase, mapping, profile, batch);

    std::vector<WaveStats> waves;
    waves.reserve(static_cast<size_t>(ceilDiv(ext0, a0) *
                                      ceilDiv(ext1, a1)));

    for (int64_t b0 = 0; b0 < ext0; b0 += a0) {
        const int64_t n0 = std::min(a0, ext0 - b0);
        for (int64_t b1 = 0; b1 < ext1; b1 += a1) {
            const int64_t n1 = std::min(a1, ext1 - b1);
            WaveStats ws;

            if (!model_structure || (!dep0 && !dep1)) {
                // Dense, ideal, or a broadcast sparse operand: every
                // active PE carries the same work.
                ws.maxWork = per_index * global_density;
                ws.meanWork = ws.maxWork;
            } else if (dep0 != dep1) {
                // Sparse along exactly one axis: one tile per index on
                // that axis, replicated across the other axis.
                const Dim d = dep0 ? dims[0] : dims[1];
                const int64_t base = dep0 ? b0 : b1;
                const int64_t count = dep0 ? n0 : n1;
                std::vector<TileHalves> tiles;
                tiles.reserve(static_cast<size_t>(count));
                double sum = 0.0;
                for (int64_t i = 0; i < count; ++i) {
                    TileHalves h =
                        sliceHalves(profile, sp, d, base + i);
                    h.first *= per_index;
                    h.second *= per_index;
                    sum += h.total();
                    tiles.push_back(h);
                }
                ws.meanWork = sum / static_cast<double>(count);
                if (opts_.balance == BalanceMode::FullChip) {
                    ws.maxWork = ws.meanWork;
                } else if (opts_.balance == BalanceMode::HalfTile &&
                           cheap_ok) {
                    ws.maxWork = rebalancedMax(tiles);
                } else {
                    ws.maxWork = unbalancedMax(tiles);
                }
            } else {
                // Sparse along both axes (e.g. weight-sparse C,K):
                // per-PE work follows the kernel densities; half-tile
                // pairing cannot run on the simple interconnect here
                // (Figure 10), so only chip-wide balancing helps.
                double worst = 0.0;
                double sum = 0.0;
                for (int64_t i = 0; i < n0; ++i) {
                    for (int64_t j = 0; j < n1; ++j) {
                        const double dens = pairDensity(
                            profile, sp, dims[0], b0 + i, dims[1],
                            b1 + j);
                        const double work = per_index * dens;
                        worst = std::max(worst, work);
                        sum += work;
                    }
                }
                ws.meanWork = sum / static_cast<double>(n0 * n1);
                ws.maxWork = opts_.balance == BalanceMode::FullChip
                                 ? ws.meanWork
                                 : worst;
            }
            waves.push_back(ws);
        }
    }
    return waves;
}

std::vector<WaveStats>
CostModel::chunkedWeightWaves(const LayerShape &layer, Phase phase,
                              MappingKind mapping,
                              const LayerSparsityProfile &profile,
                              int64_t batch) const
{
    // Weight-stationary tiling (C,K-style mappings): each PE holds a
    // chunk of kernels along the second spatial dim, bounded by its
    // register file, and streams activations over it. Per-PE work is
    // the summed density of its chunk — coarser granularity than a
    // single kernel, which is what keeps the Figure 5 overheads in
    // the tens of percent rather than multiples.
    (void)phase;   // all phases tile weights identically here
    const auto dims = spatialDims(mapping);
    const int64_t ext0 = dimExtent(layer, dims[0], batch);
    const int64_t ext1 = dimExtent(layer, dims[1], batch);
    const double dense_macs =
        static_cast<double>(batch) *
        static_cast<double>(layer.macsPerSample());
    const double per_index =
        dense_macs / static_cast<double>(ext0 * ext1);

    std::vector<WaveStats> waves;
    for (const auto &tiles : weightChunkWaves(cfg_, layer, ext0, ext1)) {
        WaveStats ws;
        double worst = 0.0;
        double sum = 0.0;
        for (const ChunkTileRef &t : tiles) {
            double work = 0.0;
            for (int64_t s = 0; s < t.chunkCount; ++s) {
                work += per_index *
                        pairDensity(profile, Operand::Weights, dims[0],
                                    t.index0, dims[1], t.chunkBase + s);
            }
            worst = std::max(worst, work);
            sum += work;
        }
        ws.meanWork = sum / static_cast<double>(tiles.size());
        ws.maxWork = opts_.balance == BalanceMode::FullChip ? ws.meanWork
                                                            : worst;
        waves.push_back(ws);
    }
    return waves;
}

double
CostModel::computeLatency(const LayerShape &layer, Phase phase,
                          MappingKind mapping,
                          const LayerSparsityProfile &profile,
                          int64_t batch) const
{
    if (opts_.ideal) {
        // Figure 1 idealization: every PE always busy, all sparsity
        // converted to time.
        const double dense_macs =
            static_cast<double>(batch) *
            static_cast<double>(layer.macsPerSample());
        return dense_macs * effectiveDensity(phase, profile) /
               static_cast<double>(cfg_.pes());
    }
    double cycles = 0.0;
    for (const WaveStats &ws :
         waveStats(layer, phase, mapping, profile, batch))
        cycles += ws.maxWork;
    return cycles;
}

double
CostModel::measuredWeightWords(const MeasuredLayerStats &measured) const
{
    if (!opts_.sparse)
        return measured.denseWeightBytes >= 0.0
                   ? measured.denseWeightBytes / 4.0
                   : -1.0;
    // Ideal mode assumes a zero-overhead format; the measured bytes
    // include the real CSB mask/pointer overheads, so the modelled
    // (overhead-free) estimate stands.
    if (opts_.ideal)
        return -1.0;
    return measured.csbWeightBytes >= 0.0
               ? measured.csbWeightBytes / 4.0
               : -1.0;
}

double
CostModel::storedWords(const LayerShape &layer, Phase phase, Operand op,
                       const LayerSparsityProfile &profile, int64_t batch,
                       const MeasuredLayerStats &measured) const
{
    const double vol = static_cast<double>(
        operandVolume(layer, op, batch));
    const bool compressed =
        opts_.sparse && op == sparseOperand(phase) &&
        op != outputOperand(phase);
    if (op == Operand::Weights) {
        // Measured weight image (trace-driven mode): the byte count
        // the trainer actually encoded replaces the density-derived
        // estimate, compressed or dense as this configuration streams
        // it (measuredWeightWords declines in ideal mode).
        const double words = measuredWeightWords(measured);
        if (words >= 0.0)
            return words;
    }
    if (!compressed)
        return vol;
    const double density = op == Operand::Weights
                               ? profile.weightDensity()
                               : profile.iactDensity();
    double words = vol * density;
    if (!opts_.ideal) {
        // CSB overheads: one mask bit per dense element plus one
        // 32-bit pointer per block (kernels for weights, 64-element
        // regions for activations).
        words += vol / 32.0;
        const double blocks =
            op == Operand::Weights
                ? static_cast<double>(layer.K * layer.effectiveC())
                : vol / 64.0;
        words += blocks;
    }
    return words;
}

double
CostModel::glbAccesses(const LayerShape &layer, Phase phase,
                       MappingKind mapping,
                       const LayerSparsityProfile &profile, int64_t batch,
                       const MeasuredLayerStats &measured) const
{
    const auto dims = spatialDims(mapping);
    const Operand out = outputOperand(phase);
    double spatial_traffic = 0.0;
    double once_traffic = 0.0;     // resident-operand blocking bound
    double smallest_input = 1e300;

    for (Operand op : kAllOperands) {
        // Refetch: once per wave-block along every spatial dim the
        // operand does not depend on. Sharing within a wave (multicast
        // or in-network reduction) is counted once — the spatial-reuse
        // benefit of the single-dimension flows.
        double refetch = 1.0;
        for (int axis = 0; axis < 2; ++axis) {
            if (!dependsOn(op, dims[axis])) {
                const int64_t ext =
                    dimExtent(layer, dims[axis], batch);
                const int64_t a =
                    axis == 0 ? cfg_.rows : cfg_.cols;
                refetch *= static_cast<double>(ceilDiv(ext, a));
            }
        }
        if (op == out) {
            // Outputs are written per visit and re-read for
            // accumulation on every visit after the first. Partial
            // sums are dense regardless of operand sparsity.
            const double vol = static_cast<double>(
                operandVolume(layer, op, batch));
            spatial_traffic += vol * (2.0 * refetch - 1.0);
            once_traffic += vol;
        } else {
            const double words =
                storedWords(layer, phase, op, profile, batch, measured);
            spatial_traffic += words * refetch;
            once_traffic += words;
            smallest_input = std::min(smallest_input, words);
        }
    }

    // GLB-level temporal blocking: when the smaller input operand
    // (e.g. the compressed weights of a 1x1 layer) fits in half the
    // GLB, the schedule can hold it resident and stream everything
    // else exactly once — the optimization Timeloop's mapping search
    // would find. Use whichever schedule moves less data.
    if (smallest_input * 4.0 <=
        static_cast<double>(cfg_.glbBytes) / 2.0) {
        return std::min(spatial_traffic, once_traffic);
    }
    return spatial_traffic;
}

double
CostModel::dramWords(const LayerShape &layer, Phase phase,
                     const LayerSparsityProfile &profile, int64_t batch,
                     const MeasuredLayerStats &measured) const
{
    const double w_dense = static_cast<double>(
        operandVolume(layer, Operand::Weights, batch));
    const double x_dense = static_cast<double>(
        operandVolume(layer, Operand::Iacts, batch));
    const double y_dense = static_cast<double>(
        operandVolume(layer, Operand::Oacts, batch));

    // Compressed views (CSB) when sparsity is exploited. The measured
    // weight image — the byte count of the trainer's real encode —
    // overrides the density-derived estimate when the trace supplies
    // it (trace-driven mode).
    const double mask_over = opts_.ideal ? 0.0 : 1.0 / 32.0;
    const double w_measured = measuredWeightWords(measured);
    const double w_stored =
        w_measured >= 0.0
            ? w_measured
            : (opts_.sparse ? w_dense * profile.weightDensity() +
                                  w_dense * mask_over
                            : w_dense);
    const double x_comp =
        x_dense * profile.iactDensity() + x_dense * mask_over;

    switch (phase) {
      case Phase::Forward:
        // Read weights and dense inputs; write dense outputs for the
        // next layer plus (sparse training) the compressed copy of
        // this layer's inputs kept for the weight-update phase
        // (Section IV-A, Gist-style dual representation).
        return w_stored + x_dense + y_dense +
               (opts_.sparse ? x_comp : 0.0);
      case Phase::Backward:
        // Read weights and the dense incoming gradient; write the
        // dense outgoing gradient.
        return w_stored + y_dense + x_dense;
      case Phase::WeightUpdate:
        // Read the stored inputs and the dense gradient; write weight
        // gradients — with sparse training the QE unit discards all
        // but the tracked set on the way to DRAM (Section V).
        return (opts_.sparse ? x_comp : x_dense) + y_dense + w_stored;
    }
    PANIC("unknown phase");
}

PhaseCost
CostModel::evaluatePhase(const LayerShape &layer, Phase phase,
                         MappingKind mapping,
                         const LayerSparsityProfile &profile,
                         int64_t batch,
                         const MeasuredLayerStats &measured) const
{
    PROCRUSTES_ASSERT(batch > 0, "batch must be positive");
    PhaseCost cost;

    const double dense_macs =
        static_cast<double>(batch) *
        static_cast<double>(layer.macsPerSample());
    cost.macs = measured.macs >= 0.0
                    ? measured.macs
                    : dense_macs * effectiveDensity(phase, profile);

    cost.computeCycles =
        computeLatency(layer, phase, mapping, profile, batch);
    const double dwords =
        dramWords(layer, phase, profile, batch, measured);
    cost.dramCycles = dwords / cfg_.dramWordsPerCycle();
    // Refill mirror of the cycle simulator's DRAM front end: the same
    // words at an explicit bandwidth, double-buffered against compute
    // so only the excess extends the phase.
    cost.cycles = opts_.dramRefillWordsPerCycle > 0.0
                      ? std::max(cost.computeCycles,
                                 dwords / opts_.dramRefillWordsPerCycle)
                      : cost.computeCycles;
    // Shard-interconnect bound: the allreduce of this layer's measured
    // gradient-exchange bytes streams at interconnectWordsPerCycle,
    // overlapped with the weight-update compute window (the exchange
    // pipelines behind dW production); only the excess extends the
    // phase. Words are 32-bit, matching the DRAM interface accounting.
    if (phase == Phase::WeightUpdate &&
        opts_.interconnectWordsPerCycle > 0.0 &&
        measured.exchangeBytes >= 0.0) {
        cost.interconnectCycles = (measured.exchangeBytes / 4.0) /
                                  opts_.interconnectWordsPerCycle;
        cost.cycles = std::max(cost.cycles, cost.interconnectCycles);
    }

    cost.macEnergyJ = cost.macs * cfg_.macPj * 1e-12;
    cost.rfEnergyJ =
        cost.macs * cfg_.rfAccessesPerMac * cfg_.rfAccessPj * 1e-12;
    cost.glbEnergyJ =
        glbAccesses(layer, phase, mapping, profile, batch, measured) *
        cfg_.glbAccessPj * 1e-12;
    cost.dramEnergyJ = dwords * cfg_.dramAccessPj * 1e-12;
    return cost;
}

} // namespace arch
} // namespace procrustes
