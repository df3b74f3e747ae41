#include "arch/cost_model.h"

#include <algorithm>
#include <cmath>

#include "arch/workload_trace.h"
#include "common/logging.h"
#include "common/math_utils.h"

namespace procrustes {
namespace arch {

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
CostModel::effectiveDensity(Phase phase, const Densities &d) const
{
    if (!opts_.sparse)
        return 1.0;
    return sparseOperand(phase) == Operand::Weights ? d.weight : d.iact;
}

WaveStats
reduceWave(const std::vector<TileHalves> &tiles, BalanceMode balance,
           bool cheap_ok)
{
    WaveStats ws;
    ws.meanWork = meanWork(tiles);
    if (balance == BalanceMode::FullChip)
        ws.maxWork = ws.meanWork;
    else if (balance == BalanceMode::HalfTile && cheap_ok)
        ws.maxWork = rebalancedMax(tiles);
    else
        ws.maxWork = unbalancedMax(tiles);
    return ws;
}

std::vector<WaveStats>
CostModel::reduceWaves(const LayerShape &layer, Phase phase,
                       MappingKind mapping, int64_t batch, double density,
                       const WavePlan &plan) const
{
    if (!planned()) {
        // Dense or ideal: every active PE of every wave carries the
        // same work.
        const auto dims = spatialDims(mapping);
        const int64_t ext0 = dimExtent(layer, dims[0], batch);
        const int64_t ext1 = dimExtent(layer, dims[1], batch);
        const double dense_macs =
            static_cast<double>(batch) *
            static_cast<double>(layer.macsPerSample());
        const double work =
            dense_macs / static_cast<double>(ext0 * ext1) * density;
        return std::vector<WaveStats>(
            static_cast<size_t>(ceilDiv(ext0, cfg_.rows) *
                                ceilDiv(ext1, cfg_.cols)),
            WaveStats{work, work});
    }
    const bool cheap_ok = supportsCheapBalancing(phase, mapping);
    std::vector<WaveStats> waves;
    waves.reserve(plan.waves.size());
    std::vector<TileHalves> tiles;
    for (const PlannedWave &w : plan.waves) {
        tiles.clear();
        for (const TileHalves &t : w.tiles)
            tiles.push_back(TileHalves{t.first * plan.perIndex,
                                       t.second * plan.perIndex});
        waves.push_back(reduceWave(tiles, opts_.balance, cheap_ok));
    }
    return waves;
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
                       const Densities &d, int64_t batch,
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
    double words = vol * (op == Operand::Weights ? d.weight : d.iact);
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
                       MappingKind mapping, const Densities &d,
                       int64_t batch,
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
                storedWords(layer, phase, op, d, batch, measured);
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
compressedWeightWords(double dense_words, double density, double csb_bytes)
{
    if (csb_bytes >= 0.0)
        return csb_bytes / 4.0;
    return dense_words * density + dense_words * (1.0 / 32.0);
}

double
phaseDramWords(const LayerShape &layer, Phase phase, int64_t batch,
               const CostOptions &opts, double weight_words,
               double iact_density)
{
    const double x_dense = static_cast<double>(
        operandVolume(layer, Operand::Iacts, batch));
    const double y_dense = static_cast<double>(
        operandVolume(layer, Operand::Oacts, batch));
    const double mask_over = opts.ideal ? 0.0 : 1.0 / 32.0;
    const double x_comp = x_dense * iact_density + x_dense * mask_over;

    switch (phase) {
      case Phase::Forward:
        // Read weights and dense inputs; write dense outputs for the
        // next layer plus (sparse training) the compressed copy of
        // this layer's inputs kept for the weight-update phase
        // (Section IV-A, Gist-style dual representation).
        return weight_words + x_dense + y_dense +
               (opts.sparse ? x_comp : 0.0);
      case Phase::Backward:
        // Read weights and the dense incoming gradient; write the
        // dense outgoing gradient.
        return weight_words + y_dense + x_dense;
      case Phase::WeightUpdate:
        // Read the stored inputs and the dense gradient; write weight
        // gradients — with sparse training the QE unit discards all
        // but the tracked set on the way to DRAM (Section V).
        return (opts.sparse ? x_comp : x_dense) + y_dense + weight_words;
    }
    PANIC("unknown phase");
}

double
CostModel::dramWords(const LayerShape &layer, Phase phase,
                     const Densities &d, int64_t batch,
                     const MeasuredLayerStats &measured) const
{
    // The stored weight image: dense for the baseline, the bare values
    // in the overhead-free ideal format (measured bytes include the
    // overhead it assumes away), else compressed (CSB). A measured
    // image — the byte count of the trainer's real encode — overrides
    // the dense and compressed estimates (trace-driven mode).
    const double w_dense = static_cast<double>(
        operandVolume(layer, Operand::Weights, batch));
    double w_stored = w_dense;
    if (!opts_.sparse) {
        if (measured.denseWeightBytes >= 0.0)
            w_stored = measured.denseWeightBytes / 4.0;
    } else if (opts_.ideal) {
        w_stored = w_dense * d.weight;
    } else {
        w_stored = compressedWeightWords(w_dense, d.weight,
                                         measured.csbWeightBytes);
    }
    return phaseDramWords(layer, phase, batch, opts_, w_stored, d.iact);
}

PhaseCost
CostModel::evaluatePhase(const LayerTrace &traced, double weight_density,
                         Phase phase, MappingKind mapping, int64_t batch,
                         const MeasuredLayerStats &measured) const
{
    PROCRUSTES_ASSERT(batch > 0, "batch must be positive");
    const LayerShape &layer = traced.shape;
    const Densities d{weight_density, traced.iacts.mean};
    const WavePlan plan =
        planned() ? planWaves(traced, phase, mapping, batch, cfg_)
                  : WavePlan{};
    PhaseCost cost;
    const double density = effectiveDensity(phase, d);
    const double dense_macs =
        static_cast<double>(batch) *
        static_cast<double>(layer.macsPerSample());
    cost.macs = measured.macs >= 0.0 ? measured.macs : dense_macs * density;

    if (opts_.ideal) {
        // Figure 1 idealization: every PE always busy, all sparsity
        // converted to time.
        cost.computeCycles =
            dense_macs * density / static_cast<double>(cfg_.pes());
    } else {
        // Compute-side latency: the sum of wave maxima.
        for (const WaveStats &ws :
             reduceWaves(layer, phase, mapping, batch, density, plan))
            cost.computeCycles += ws.maxWork;
    }
    const double dwords = dramWords(layer, phase, d, batch, measured);
    cost.dramCycles = dwords / cfg_.dramWordsPerCycle();
    // DRAM->GLB refill at an explicit bandwidth, double-buffered
    // against compute so only the excess extends the phase.
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
        glbAccesses(layer, phase, mapping, d, batch, measured) *
        cfg_.glbAccessPj * 1e-12;
    cost.dramEnergyJ = dwords * cfg_.dramAccessPj * 1e-12;
    return cost;
}

} // namespace arch
} // namespace procrustes
