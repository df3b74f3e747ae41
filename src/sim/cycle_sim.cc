#include "sim/cycle_sim.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_utils.h"
#include "common/thread_pool.h"
#include "arch/load_balancer.h"
#include "arch/wave_plan.h"

namespace procrustes {
namespace sim {

using arch::FlowClass;
using arch::LayerShape;
using arch::LayerTrace;
using arch::MappingKind;
using arch::Operand;
using arch::Phase;

Channel
channelFor(FlowClass flow)
{
    switch (flow) {
      case FlowClass::MulticastRows:
      case FlowClass::ReduceRows:
        return Channel::RowBus;
      case FlowClass::MulticastCols:
      case FlowClass::ReduceCols:
        return Channel::ColBus;
      case FlowClass::Broadcast:
      case FlowClass::ReduceAll:
        return Channel::Broadcast;
      case FlowClass::Unicast:
        return Channel::UnicastNet;
    }
    PANIC("unknown flow class");
}

void
SimResult::accumulate(const SimResult &o)
{
    cycles += o.cycles;
    computeCycles += o.computeCycles;
    stallCycles += o.stallCycles;
    macsRetired += o.macsRetired;
    drainCycles += o.drainCycles;
    overlappedDrainCycles += o.overlappedDrainCycles;
    glbConflictCycles += o.glbConflictCycles;
    glbConflicts += o.glbConflicts;
    fifoBackpressureCycles += o.fifoBackpressureCycles;
    dramRefillCycles += o.dramRefillCycles;
    dramStallCycles += o.dramStallCycles;
    if (glbBankReads.size() < o.glbBankReads.size())
        glbBankReads.resize(o.glbBankReads.size(), 0);
    for (size_t i = 0; i < o.glbBankReads.size(); ++i)
        glbBankReads[i] += o.glbBankReads[i];
    if (glbBankWrites.size() < o.glbBankWrites.size())
        glbBankWrites.resize(o.glbBankWrites.size(), 0);
    for (size_t i = 0; i < o.glbBankWrites.size(); ++i)
        glbBankWrites[i] += o.glbBankWrites[i];
}

int64_t
SimResult::totalGlbReads() const
{
    int64_t t = 0;
    for (int64_t r : glbBankReads)
        t += r;
    return t;
}

int64_t
SimResult::totalGlbWrites() const
{
    int64_t t = 0;
    for (int64_t w : glbBankWrites)
        t += w;
    return t;
}

void
validateSimConfig(const SimConfig &cfg)
{
    if (cfg.unicastWordsPerCycle <= 0)
        FATAL("SimConfig::unicastWordsPerCycle must be positive (got " +
              std::to_string(cfg.unicastWordsPerCycle) + ")");
    if (cfg.glbBanks <= 0)
        FATAL("SimConfig::glbBanks must be positive (got " +
              std::to_string(cfg.glbBanks) + ")");
    if (cfg.glbBankPortsPerCycle <= 0)
        FATAL("SimConfig::glbBankPortsPerCycle must be positive (got " +
              std::to_string(cfg.glbBankPortsPerCycle) + ")");
    if (cfg.maxCycles <= 0)
        FATAL("SimConfig::maxCycles must be positive (got " +
              std::to_string(cfg.maxCycles) + ")");
}

size_t
unicastRoundRobin(const std::vector<int64_t> &cap,
                  std::vector<int64_t> &recv, int &budget, size_t cursor)
{
    const size_t n = cap.size();
    if (n == 0)
        return 0;
    size_t idx = cursor < n ? cursor : cursor % n;
    size_t next = idx;
    for (size_t step = 0; step < n && budget > 0; ++step) {
        if (recv[idx] < cap[idx]) {
            ++recv[idx];
            --budget;
            next = idx + 1 < n ? idx + 1 : 0;
        }
        if (++idx == n)
            idx = 0;
    }
    return next;
}

namespace {

/**
 * Per-wave facts the double-buffered drain accounting needs beyond
 * SimResult: how much spare GLB write bandwidth the compute window
 * left (reads have priority), and what the wave's own drain costs in
 * serial mode (drain cycles plus the bank-conflict replay cycles the
 * drain's writes caused).
 */
struct WaveSideband
{
    int64_t computeCycles = 0;
    int64_t computeReads = 0;        //!< GLB reads during compute
    int64_t drainWords = 0;          //!< psum words written
    int64_t drainSerialCycles = 0;   //!< drainCycles + drain conflicts
};

/**
 * One operand of a live PE. Word w unlocks MACs up to
 * w * macs / words; `q` and `r` keep done * words = q * macs + r,
 * stepping by words = stepQ * macs + stepR per retired MAC, so the
 * unlock test and the FIFO cap need no division.
 */
struct LiveOperand
{
    int64_t words = 0;
    int64_t q = 0;
    int64_t r = 0;
    int64_t stepQ = 0;
    int64_t stepR = 0;
};

/** A PE with a MAC left to retire or a word left to receive. */
struct LivePe
{
    int64_t done = 0;
    int64_t macs = 0;
    LiveOperand op[2];
};

// Cache-line aligned: a simulation spends nearly all its time in the
// per-cycle loops inside, whose speed otherwise shifts by several
// percent with where unrelated code happens to place this function.
__attribute__((aligned(64))) SimResult
simulateWaveImpl(const WaveSpec &wave, const SimConfig &cfg,
                 WaveSideband *sb);

} // namespace

SimResult
simulateWave(const WaveSpec &wave, const SimConfig &cfg)
{
    validateSimConfig(cfg);
    return simulateWaveImpl(wave, cfg, nullptr);
}

namespace {

SimResult
simulateWaveImpl(const WaveSpec &wave, const SimConfig &cfg,
                 WaveSideband *sb)
{
    PROCRUSTES_ASSERT(
        wave.tiles.size() ==
            static_cast<size_t>(wave.rows) * static_cast<size_t>(wave.cols),
        "tile count mismatch");
    SimResult res;
    const int64_t banks = cfg.glbBanks;
    const int64_t bank_bw = banks * cfg.glbBankPortsPerCycle;
    res.glbBankReads.assign(static_cast<size_t>(banks), 0);
    res.glbBankWrites.assign(static_cast<size_t>(banks), 0);

    // `times` cycles each issue `words` GLB accesses; the surplus beyond
    // the aggregate bank bandwidth replays in appended stall cycles.
    auto replayConflicts = [&](int64_t words, int64_t times) {
        if (words > bank_bw) {
            res.glbConflicts += (words - bank_bw) * times;
            res.glbConflictCycles += (ceilDiv(words, bank_bw) - 1) * times;
        }
    };
    // Charge the next `words` addresses of the wave's rolling word
    // address, interleaved on the banks: each bank gets words / banks,
    // and the remainder rotates on from where the last charge stopped.
    int64_t glb_bank = 0;
    auto chargeBanks = [&](int64_t words, std::vector<int64_t> &per_bank) {
        for (int64_t &b : per_bank)
            b += words / banks;
        for (int64_t w = words % banks; w > 0; --w) {
            ++per_bank[static_cast<size_t>(glb_bank)];
            if (++glb_bank == banks)
                glb_bank = 0;
        }
    };

    // The live list in PE index order. Each operand's received words
    // and FIFO cap sit in their own arrays, which the unicast
    // round-robin walks directly, next to the bus line (row, column,
    // or the one broadcast line) the operand listens on.
    const Channel channel[2] = {wave.channelA, wave.channelB};
    const bool bounded = cfg.peFifoDepth > 0;
    std::vector<LivePe> live;
    std::vector<int64_t> recv[2];
    std::vector<int64_t> cap[2];
    std::vector<int> line[2];
    int64_t remaining = 0;
    for (int r = 0; r < wave.rows; ++r) {
        for (int c = 0; c < wave.cols; ++c) {
            const TileDemand &d =
                wave.tiles[static_cast<size_t>(r * wave.cols + c)];
            remaining += d.macs;
            if (d.macs <= 0 && d.wordsA <= 0 && d.wordsB <= 0)
                continue;
            LivePe pe;
            pe.macs = d.macs;
            for (int k = 0; k < 2; ++k) {
                LiveOperand &o = pe.op[k];
                o.words = k == 0 ? d.wordsA : d.wordsB;
                if (d.macs > 0) {
                    o.stepQ = o.words / d.macs;
                    o.stepR = o.words % d.macs;
                }
                recv[k].push_back(0);
                cap[k].push_back(bounded && d.macs > 0
                                     ? std::min<int64_t>(o.words,
                                                         cfg.peFifoDepth)
                                     : o.words);
                line[k].push_back(channel[k] == Channel::RowBus   ? r
                                  : channel[k] == Channel::ColBus ? c
                                                                  : 0);
            }
            live.push_back(pe);
        }
    }
    std::vector<int64_t> fired[2];   // cycle each line last fired in
    for (std::vector<int64_t> &f : fired)
        f.assign(static_cast<size_t>(std::max({wave.rows, wave.cols, 1})),
                 -1);

    size_t uni_cursor = 0;   // a position in the live list
    int64_t compute_reads = 0;
    while (remaining > 0) {
        PROCRUSTES_ASSERT(res.computeCycles < cfg.maxCycles,
                          "wave exceeded cycle limit");
        // Delivery happens first; a word arriving this cycle can feed
        // a MAC this cycle (single-cycle forwarding). A bus line fires
        // (one GLB read) when any PE on it is below its cap, and every
        // such PE takes the word. One unicast budget serves both
        // operands.
        int uni_budget = cfg.unicastWordsPerCycle;
        int64_t words = 0;
        for (int k = 0; k < 2; ++k) {
            if (channel[k] == Channel::UnicastNet) {
                const int before = uni_budget;
                uni_cursor = unicastRoundRobin(cap[k], recv[k], uni_budget,
                                               uni_cursor);
                words += before - uni_budget;
                continue;
            }
            for (size_t p = 0; p < live.size(); ++p) {
                if (recv[k][p] < cap[k][p]) {
                    ++recv[k][p];
                    int64_t &last = fired[k][static_cast<size_t>(line[k][p])];
                    if (last != res.computeCycles) {
                        last = res.computeCycles;
                        ++words;
                    }
                }
            }
        }
        replayConflicts(words, 1);
        compute_reads += words;

        // Issue, then drop the PEs left with nothing to do. The caps
        // this leaves are the next cycle's, so its backpressure (a
        // hungry PE at its cap has a word withheld) is counted here;
        // after the last MAC every cap is the full demand, so none is
        // counted for a cycle that never comes.
        int64_t backpressure = 0;
        size_t kept = 0;
        size_t dropped_before_cursor = 0;
        for (size_t p = 0; p < live.size(); ++p) {
            LivePe &pe = live[p];
            if (pe.done < pe.macs) {
                // Blocked while done * words >= recv * macs: recv <= q.
                if ((pe.op[0].words <= 0 || recv[0][p] > pe.op[0].q) &&
                    (pe.op[1].words <= 0 || recv[1][p] > pe.op[1].q)) {
                    ++pe.done;
                    ++res.macsRetired;
                    --remaining;
                    for (int k = 0; k < 2; ++k) {
                        LiveOperand &o = pe.op[k];
                        o.q += o.stepQ;
                        o.r += o.stepR;
                        if (o.r >= pe.macs) {
                            o.r -= pe.macs;
                            ++o.q;
                        }
                        // The queue holds `depth` words past the
                        // ceil(done * words / macs) its MACs consumed.
                        if (bounded)
                            cap[k][p] = std::min(o.words,
                                                 o.q + (o.r > 0) +
                                                     cfg.peFifoDepth);
                    }
                } else {
                    ++res.stallCycles;
                }
            }
            bool busy = pe.done < pe.macs;
            for (int k = 0; k < 2; ++k) {
                if (recv[k][p] < pe.op[k].words) {
                    busy = true;
                    if (recv[k][p] >= cap[k][p])
                        ++backpressure;
                }
            }
            if (!busy) {
                if (p < uni_cursor)
                    ++dropped_before_cursor;
                continue;
            }
            if (kept != p) {
                live[kept] = pe;
                for (int k = 0; k < 2; ++k) {
                    recv[k][kept] = recv[k][p];
                    cap[k][kept] = cap[k][p];
                    line[k][kept] = line[k][p];
                }
            }
            ++kept;
        }
        live.resize(kept);
        for (int k = 0; k < 2; ++k) {
            recv[k].resize(kept);
            cap[k].resize(kept);
            line[k].resize(kept);
        }
        uni_cursor -= dropped_before_cursor;
        ++res.computeCycles;
        res.fifoBackpressureCycles += backpressure;
    }
    chargeBanks(compute_reads, res.glbBankReads);

    // Drain partial sums through the output channel, one bandwidth-
    // limited batch of GLB writes per cycle: full batches, then the
    // remainder. The writes are charged to banks here regardless of
    // drain mode, so the per-bank traffic image is identical in both
    // modes: with double-buffered outputs the sequence layer re-times
    // this drain (hiding it in the next wave's spare GLB write
    // bandwidth) but never re-routes it — see simulateWaveSequence.
    int64_t psum_words = 0;
    for (const TileDemand &d : wave.tiles)
        psum_words += d.psumWords;
    const int64_t pre_drain_conflicts = res.glbConflictCycles;
    int64_t drain_bw = 1;
    switch (wave.channelOut) {
      case Channel::RowBus:
        drain_bw = wave.rows;
        break;
      case Channel::ColBus:
        drain_bw = wave.cols;
        break;
      case Channel::Broadcast:
        drain_bw = 1;
        break;
      case Channel::UnicastNet:
        drain_bw = cfg.unicastWordsPerCycle;
        break;
    }
    drain_bw = std::max<int64_t>(1, drain_bw);
    const int64_t full_batches = psum_words / drain_bw;
    const int64_t last_batch = psum_words % drain_bw;
    res.drainCycles = full_batches + (last_batch > 0);
    replayConflicts(drain_bw, full_batches);
    replayConflicts(last_batch, 1);
    chargeBanks(psum_words, res.glbBankWrites);

    res.cycles = res.computeCycles + res.drainCycles + res.glbConflictCycles;
    if (sb != nullptr) {
        sb->computeCycles = res.computeCycles;
        sb->computeReads = compute_reads;
        sb->drainWords = psum_words;
        sb->drainSerialCycles =
            res.drainCycles +
            (res.glbConflictCycles - pre_drain_conflicts);
    }
    return res;
}

} // namespace

namespace {

/**
 * What a clocked piece exposes so callers can continue the
 * double-buffered drain chain across piece boundaries
 * (simulateEpochPlan): the spare GLB write capacity of the FIRST
 * wave's compute window (unused inside the piece — the first wave has
 * no in-piece predecessor to drain), and the LAST wave's staged psum
 * words together with the bank-bandwidth flush cycles for them that
 * the piece's own cycle count already includes. A boundary can then
 * hide some of those tail words under the next piece's head spare and
 * refund the difference in flush cycles.
 */
struct PieceLink
{
    int64_t headSpareWords = 0;
    int64_t tailWords = 0;
    int64_t tailFlushCycles = 0;
    bool hasWaves = false;
};

/**
 * Clock a wave sequence, chaining the two-psum-buffer drain overlap
 * when cfg.doubleBufferOutputs. At each wave boundary the finished
 * wave's psums swap into the spare buffer and stream to the GLB
 * through the write bandwidth the next wave's compute window leaves
 * spare (operand reads have priority: spare = banks x ports x C_next
 * minus the window's reads); words still pending when the window
 * closes flush at the full aggregate bank bandwidth before the next
 * swap. The cycles this saves versus the serial drain (drain cycles
 * plus the drain's own conflict-replay cycles) are removed from
 * `cycles` and reported in overlappedDrainCycles; per-bank traffic is
 * untouched, so reads/writes match serial mode exactly. The saving is
 * provably non-negative, so double-buffered never clocks slower than
 * serial on the same waves.
 */
SimResult
simulateSequencePiece(const std::vector<WaveSpec> &waves,
                      const SimConfig &cfg, PieceLink *link)
{
    SimResult total;
    total.glbBankReads.assign(static_cast<size_t>(cfg.glbBanks), 0);
    total.glbBankWrites.assign(static_cast<size_t>(cfg.glbBanks), 0);
    const int64_t bank_bw =
        static_cast<int64_t>(cfg.glbBanks) * cfg.glbBankPortsPerCycle;
    int64_t pending_words = 0;   // staged psums of the previous wave
    int64_t pending_serial = 0;  // their serial-mode drain cycles
    bool first = true;
    for (const WaveSpec &wave : waves) {
        WaveSideband sb;
        const SimResult r = simulateWaveImpl(wave, cfg, &sb);
        total.accumulate(r);
        if (cfg.doubleBufferOutputs) {
            const int64_t spare = std::max<int64_t>(
                0, bank_bw * sb.computeCycles - sb.computeReads);
            if (first && link != nullptr)
                link->headSpareWords = spare;
            if (!first) {
                const int64_t hidden = std::min(pending_words, spare);
                const int64_t flush =
                    ceilDiv(pending_words - hidden, bank_bw);
                const int64_t saved = pending_serial - flush;
                total.cycles -= saved;
                total.overlappedDrainCycles += saved;
            }
            pending_words = sb.drainWords;
            pending_serial = sb.drainSerialCycles;
        }
        first = false;
    }
    if (cfg.doubleBufferOutputs && !first) {
        // Last wave: the array is idle, so the staging buffer flushes
        // at the full bank bandwidth. The flush stays exposed here;
        // piece-chaining callers may refund part of it at the boundary.
        const int64_t flush = ceilDiv(pending_words, bank_bw);
        const int64_t saved = pending_serial - flush;
        total.cycles -= saved;
        total.overlappedDrainCycles += saved;
        if (link != nullptr) {
            link->tailWords = pending_words;
            link->tailFlushCycles = flush;
        }
    }
    if (link != nullptr)
        link->hasWaves = !first;
    return total;
}

/**
 * Clock one (layer, phase) piece: the wave sequence plus its DRAM->GLB
 * refill. Refill is double-buffered against the piece's whole
 * array-busy window (compute + drain + conflict replay, net of
 * internal overlap): only the excess demand surfaces as dramStallCycles
 * and extends `cycles`.
 */
SimResult
simulatePhasePiece(const std::vector<WaveSpec> &waves, double refill_words,
                   const SimConfig &cfg, PieceLink *link)
{
    SimResult res = simulateSequencePiece(waves, cfg, link);
    if (cfg.dramWordsPerCycle > 0.0 && refill_words > 0.0) {
        const int64_t refill = static_cast<int64_t>(
            std::ceil(refill_words / cfg.dramWordsPerCycle));
        res.dramRefillCycles += refill;
        const int64_t stall = std::max<int64_t>(0, refill - res.cycles);
        res.dramStallCycles += stall;
        res.cycles += stall;
    }
    return res;
}

/**
 * Turn a wave plan into the WaveSpecs the simulator clocks: each
 * active PE's planned work becomes its MACs and operand words, with
 * the half-tile balancer applied to Line waves under HalfTile. Slots
 * with zero work are idle: zero demand, no phantom MAC or psum word,
 * excluded from stalls. Waves whose every slot is idle are dropped
 * (they would simulate to zero cycles). Nothing here depends on
 * SimConfig, which is what lets sweep drivers build once and re-clock
 * per configuration.
 */
std::vector<WaveSpec>
buildWaves(const arch::WavePlan &plan, const LayerShape &layer,
           Phase phase, MappingKind mapping, int64_t batch,
           const arch::ArrayConfig &acfg, arch::BalanceMode balance)
{
    const Operand sp = arch::sparseOperand(phase);
    const Operand out = arch::outputOperand(phase);
    const Operand other = [&] {
        for (Operand op : arch::kAllOperands) {
            if (op != sp && op != out)
                return op;
        }
        PANIC("operand set degenerate");
    }();

    // Per-(d0,d1)-index unique word counts of each operand.
    auto f_idx = [&](Operand op) {
        double f = static_cast<double>(
            arch::operandVolume(layer, op, batch));
        if (arch::dependsOn(op, plan.dims[0]))
            f /= static_cast<double>(plan.ext0);
        if (arch::dependsOn(op, plan.dims[1]))
            f /= static_cast<double>(plan.ext1);
        return f;
    };
    const double fa = f_idx(sp);
    const double fb = f_idx(other);
    const double fo = f_idx(out);
    const bool other_dep1 = arch::dependsOn(other, plan.dims[1]);
    const bool out_dep1 = arch::dependsOn(out, plan.dims[1]);
    const bool balance_line = balance == arch::BalanceMode::HalfTile &&
                              plan.shape == arch::WaveShape::Line;

    WaveSpec wave_template;
    wave_template.rows = acfg.rows;
    wave_template.cols = acfg.cols;
    wave_template.channelA =
        channelFor(arch::classifyFlow(phase, sp, mapping));
    wave_template.channelB =
        channelFor(arch::classifyFlow(phase, other, mapping));
    wave_template.channelOut =
        channelFor(arch::classifyFlow(phase, out, mapping));

    std::vector<WaveSpec> waves;
    for (const arch::PlannedWave &pw : plan.waves) {
        WaveSpec wave = wave_template;
        wave.tiles.assign(static_cast<size_t>(acfg.rows) * acfg.cols, {});
        const std::vector<double> balanced =
            balance_line ? arch::rebalanceHalfTiles(pw.tiles)
                         : std::vector<double>{};
        bool any_work = false;
        for (int64_t i = 0; i < pw.n0; ++i) {
            for (int64_t j = 0; j < pw.n1; ++j) {
                const double dens =
                    balance_line
                        ? balanced[static_cast<size_t>(
                              plan.lineAxis == 0 ? i : j)]
                        : plan.work(pw, i, j);
                // A zero-density slot is a fully pruned slice or chunk:
                // it holds no weights, retires no MACs, and drains no
                // psums — idle, not a phantom one-MAC tile.
                if (dens <= 0.0)
                    continue;
                const int64_t count = plan.chunkCount(pw, j);
                TileDemand d;
                d.macs = std::max<int64_t>(
                    1, std::llround(plan.perIndex * dens));
                d.wordsA =
                    std::max<int64_t>(1, std::llround(fa * dens));
                d.wordsB = std::max<int64_t>(
                    1, std::llround(fb * (other_dep1 ? count : 1)));
                d.psumWords = std::max<int64_t>(
                    1, std::llround(fo * (out_dep1 ? count : 1)));
                wave.tiles[static_cast<size_t>(i * acfg.cols + j)] = d;
                any_work = true;
            }
        }
        if (any_work)
            waves.push_back(std::move(wave));
    }
    return waves;
}

/**
 * DRAM->GLB refill demand of one traced (layer, phase) in 32-bit
 * words: the measured compressed weight image
 * (LayerTrace::csbWeightBytes — the mask-density estimate when a trace
 * predates byte telemetry) and the activation volumes at the measured
 * input density, summed per phase by arch::phaseDramWords for the
 * sparse machine.
 */
double
traceRefillWords(const LayerTrace &layer, Phase phase, int64_t batch)
{
    const double w_dense = static_cast<double>(
        arch::operandVolume(layer.shape, Operand::Weights, batch));
    const double w_stored = arch::compressedWeightWords(
        w_dense, layer.weightDensity(),
        layer.csbWeightBytes > 0
            ? static_cast<double>(layer.csbWeightBytes)
            : -1.0);
    return arch::phaseDramWords(layer.shape, phase, batch,
                                arch::CostOptions{}, w_stored,
                                layer.iacts.mean);
}

/** The WaveSpecs of one traced (layer, phase). */
std::vector<WaveSpec>
traceWaves(const LayerTrace &layer, Phase phase, MappingKind mapping,
           int64_t batch, const arch::ArrayConfig &acfg,
           arch::BalanceMode balance)
{
    return buildWaves(
        arch::planWaves(layer, phase, mapping, batch, acfg), layer.shape,
        phase, mapping, batch, acfg, balance);
}

} // namespace

SimResult
simulateWaveSequence(const std::vector<WaveSpec> &waves,
                     const SimConfig &cfg)
{
    validateSimConfig(cfg);
    return simulateSequencePiece(waves, cfg, nullptr);
}

SimResult
simulateTraceLayerPhase(const LayerTrace &layer, Phase phase,
                        MappingKind mapping, int64_t batch,
                        const arch::ArrayConfig &acfg,
                        const SimConfig &scfg, arch::BalanceMode balance)
{
    validateSimConfig(scfg);
    return simulatePhasePiece(
        traceWaves(layer, phase, mapping, batch, acfg, balance),
        traceRefillWords(layer, phase, batch), scfg, nullptr);
}

EpochWavePlan
buildEpochWavePlan(const arch::EpochTrace &epoch, MappingKind mapping,
                   const arch::ArrayConfig &acfg,
                   arch::BalanceMode balance)
{
    PROCRUSTES_ASSERT(epoch.batchSize > 0, "epoch has no batch size");
    EpochWavePlan plan;
    plan.batchSize = epoch.batchSize;

    // Execution order of one training iteration: forward through the
    // layers, then backward-data and weight-update per layer walking
    // back — the order the cross-phase drain-overlap chain follows.
    const size_t nl = epoch.layers.size();
    for (size_t l = 0; l < nl; ++l)
        plan.order.push_back({l, Phase::Forward, {}, 0.0});
    for (size_t i = 0; i < nl; ++i) {
        const size_t l = nl - 1 - i;
        plan.order.push_back({l, Phase::Backward, {}, 0.0});
        plan.order.push_back({l, Phase::WeightUpdate, {}, 0.0});
    }

    // Each entry's geometry is a pure function of the epoch's measured
    // facts — build them in parallel; indices fix the order.
    ThreadPool::global().parallelFor(
        0, static_cast<int64_t>(plan.order.size()),
        [&](int64_t begin, int64_t end) {
            for (int64_t i = begin; i < end; ++i) {
                PhaseWavePlan &e = plan.order[static_cast<size_t>(i)];
                const LayerTrace &layer = epoch.layers[e.layerIndex];
                e.waves = traceWaves(layer, e.phase, mapping,
                                     epoch.batchSize, acfg, balance);
                e.refillWords =
                    traceRefillWords(layer, e.phase, epoch.batchSize);
            }
        });
    return plan;
}

TraceSimResult
simulateEpochPlan(const EpochWavePlan &plan, const SimConfig &scfg)
{
    validateSimConfig(scfg);
    const size_t n = plan.order.size();
    const int64_t bank_bw =
        static_cast<int64_t>(scfg.glbBanks) * scfg.glbBankPortsPerCycle;
    std::vector<SimResult> piece(n);
    std::vector<PieceLink> link(n);

    // Each (layer, phase) piece is an independent pure function of
    // (plan, scfg): simulate them in parallel, stitch in fixed order.
    ThreadPool::global().parallelFor(
        0, static_cast<int64_t>(n), [&](int64_t begin, int64_t end) {
            for (int64_t i = begin; i < end; ++i) {
                const auto idx = static_cast<size_t>(i);
                piece[idx] = simulatePhasePiece(
                    plan.order[idx].waves, plan.order[idx].refillWords,
                    scfg, &link[idx]);
            }
        });

    TraceSimResult out;
    int64_t tail_words = 0;   // previous piece's staged tail psums
    int64_t tail_flush = 0;   // their flush cycles, already counted
    for (size_t i = 0; i < n; ++i) {
        const PhaseWavePlan &e = plan.order[i];
        SimResult &bucket = e.phase == Phase::Forward
                                ? out.fw
                                : e.phase == Phase::Backward ? out.bw
                                                             : out.wu;
        bucket.accumulate(piece[i]);
        out.total.accumulate(piece[i]);
        if (scfg.doubleBufferOutputs && link[i].hasWaves) {
            // Boundary overlap: the previous piece's tail words hide
            // under this piece's first compute window (its spare GLB
            // write bandwidth, unused inside the piece); the refunded
            // flush cycles are attributed to `total` only — inside a
            // phase bucket the pieces are not adjacent in time.
            const int64_t hidden =
                std::min(tail_words, link[i].headSpareWords);
            const int64_t new_flush =
                ceilDiv(tail_words - hidden, bank_bw);
            const int64_t credit = tail_flush - new_flush;
            out.total.cycles -= credit;
            out.total.overlappedDrainCycles += credit;
            tail_words = link[i].tailWords;
            tail_flush = link[i].tailFlushCycles;
        }
    }
    return out;
}

TraceSimResult
simulateTraceEpoch(const arch::EpochTrace &epoch, MappingKind mapping,
                   const arch::ArrayConfig &acfg, const SimConfig &scfg,
                   arch::BalanceMode balance)
{
    return simulateEpochPlan(
        buildEpochWavePlan(epoch, mapping, acfg, balance), scfg);
}

} // namespace sim
} // namespace procrustes
