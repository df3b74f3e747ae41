/**
 * @file
 * Cycle-level PE-array simulator.
 *
 * The analytic cost model (arch/cost_model.h) assumes each wave runs
 * for exactly its slowest tile's MAC count. This simulator checks that
 * assumption by actually clocking the array: per cycle, the three
 * interconnects of Figure 14 (a horizontal bus per row, a vertical bus
 * per column, and a unicast network) deliver operand words, and each PE
 * retires one MAC when both of its operands have arrived. Stalls from
 * interconnect bandwidth, multicast sharing, GLB bank conflicts,
 * operand-queue backpressure, and drain time become visible, bounding
 * the analytic model's error (asserted in integration tests).
 *
 * Memory-side effects modelled on top of the interconnects:
 *
 *  Banked GLB.  Every operand word the interconnects move in a cycle
 *  is a GLB read, and every drained partial sum a GLB write. Accesses
 *  interleave over `SimConfig::glbBanks` banks word-round-robin (one
 *  rolling address counter per wave, reads first, then the drain's
 *  writes), each bank serving `glbBankPortsPerCycle` words per cycle.
 *  When a cycle's accesses oversubscribe the banks, the surplus
 *  replays in stall cycles appended to the wave
 *  (`SimResult::glbConflictCycles`); each deferred access also counts
 *  in `glbConflicts`, and per-bank read/write totals land in
 *  `glbBankReads` / `glbBankWrites`.
 *
 *  PE operand FIFOs.  Each PE buffers at most `peFifoDepth` words per
 *  operand ahead of consumption (consumption is proportional: word w
 *  of an operand unlocks MACs up to w * macs / words). Deliveries to a
 *  full queue are withheld — the bus does not fire for a line whose
 *  every hungry PE is full — and the withheld PE-operand-cycles are
 *  counted in `fifoBackpressureCycles`.
 *
 *  Double-buffered psum drain (`SimConfig::doubleBufferOutputs`).
 *  With a single psum buffer the array sits idle while a wave's
 *  partial sums stream out over the output channel — drain is
 *  density-independent, so it dominates at high sparsity. With a
 *  second buffer, wave N's psums swap into a staging buffer at wave
 *  end and stream into the GLB while wave N+1 fills and computes. The
 *  staged writes go through the GLB's own write machinery, so the
 *  drain stops being output-channel-bound and becomes bank-bound: in
 *  each compute window the staged words consume the write bandwidth
 *  the window leaves spare (banks x ports x cycles minus the window's
 *  operand reads — reads have priority, so the overlap never slows
 *  the fill), and words still pending when the window closes flush at
 *  the full aggregate bank bandwidth before the next swap. The cycles
 *  saved versus serial drain land in
 *  `SimResult::overlappedDrainCycles`. The second buffer's GLB write
 *  traffic still flows through the banked-GLB conflict accounting —
 *  writes are charged to banks exactly as in serial mode, so the
 *  per-bank traffic image is identical in both modes and only the
 *  timing differs. A narrow GLB therefore throttles the overlap
 *  twice: little spare bandwidth during compute, and a slow flush.
 *
 *  DRAM->GLB refill (`SimConfig::dramWordsPerCycle`).  When positive,
 *  a refill front end charges the cycles needed to stream each traced
 *  (layer, phase)'s working set from DRAM into the GLB at this rate —
 *  from the *measured* byte counts (compressed weight image
 *  `LayerTrace::csbWeightBytes`, activation volumes scaled by the
 *  measured densities), so TraceSimResult prices end-to-end traffic,
 *  not just bank contention. A synthetic layer has no measured image
 *  and is charged the density-derived CSB estimate. The demand is the
 *  analytic model's own DRAM traffic on the sparse machine
 *  (arch::phaseDramWords with CostOptions{}). Refill is
 *  double-buffered against compute: only the demand exceeding the
 *  phase's array-busy window is exposed (`dramStallCycles`); the full
 *  demand is reported in `dramRefillCycles`. The explicit-wave entry
 *  points (simulateWave, simulateWaveSequence) model no refill.
 *
 * How a wave is clocked. The cost of a cycle grows with the PEs that
 * still have work, not with the array: the loop keeps a live list, in
 * PE index order, of the PEs with a MAC left to retire or an operand
 * word left to receive. Idle PEs never enter it and finished PEs leave
 * it, so they are never visited again. A cycle is two delivery passes
 * (operand A, then B) and one issue pass over that list:
 *  - a bus operand fires each row, column or broadcast line on which
 *    some live PE is below its FIFO cap, found from the PE's
 *    precomputed line index; the unicast operand is served by
 *    unicastRoundRobin walking the list with a wrapping index;
 *  - the issue pass retires MACs, moves each retiring PE's FIFO caps,
 *    drops the PEs left with nothing to do, and counts the next
 *    cycle's backpressure from the caps it leaves.
 * Nothing per cycle divides: each PE carries done * words as a
 * quotient and remainder over its MACs, stepped by a precomputed
 * words / macs per retired MAC, which gives both the unlock test and
 * the cap min(words, ceil(done * words / macs) + depth). Bank traffic
 * is charged once per wave in closed form: n consecutive addresses
 * give every bank n / banks accesses, and the remainder rotates on
 * from the rolling address; the drain's conflicts follow from its
 * full and final batches. Only a cycle that oversubscribes the banks
 * divides, to count its replay cycles. The counts are bit-exact with
 * clocking every PE every cycle (CycleSimGolden in the tests).
 *
 * Cycle accounting contract: for every result,
 *
 *   cycles = computeCycles + drainCycles + glbConflictCycles
 *            - overlappedDrainCycles + dramStallCycles.
 *
 * In serial mode with refill off (the defaults) the last two terms
 * are zero and the decomposition is the historical additive identity
 * `cycles = compute + drain + glb_conflict`. With double buffering
 * the identity over the first three terms becomes an inequality
 * (cycles <= compute + drain + glb_conflict): the slack is exactly
 * `overlappedDrainCycles`. With refill on, cycles additionally grow
 * by the exposed (non-overlapped) refill stall.
 *
 * Entry points: simulateWave clocks one explicit WaveSpec;
 * simulateWaveSequence chains a sequence (with drain overlap when
 * enabled). The others clock the wave plan (arch/wave_plan.h) — the
 * same waves, in the same order, with the same per-PE work the
 * analytic model reduces — turning each PE's planned work into its
 * MACs and operand words: simulateTraceLayerPhase clocks one traced
 * layer, simulateTraceEpoch a whole EpochTrace, recorded from a
 * training run or drawn by the model zoo (syntheticEpoch).
 * buildEpochWavePlan / simulateEpochPlan
 * split the epoch replay into its SimConfig-independent geometry and
 * the per-config clocking, so knob sweeps over one measured epoch
 * (bench_dataflow) build the waves once.
 */

#ifndef PROCRUSTES_SIM_CYCLE_SIM_H_
#define PROCRUSTES_SIM_CYCLE_SIM_H_

#include <cstdint>
#include <vector>

#include "arch/arch_config.h"
#include "arch/cost_model.h"
#include "arch/dataflow.h"
#include "arch/workload_trace.h"

namespace procrustes {
namespace sim {

/** Delivery channel an operand rides on (from its FlowClass). */
enum class Channel
{
    RowBus,      //!< one word/cycle per row, received by the whole row
    ColBus,      //!< one word/cycle per column
    Broadcast,   //!< one word/cycle to the entire array
    UnicastNet,  //!< configurable aggregate words/cycle, per-PE data
};

/** Map a flow class onto a delivery channel. */
Channel channelFor(arch::FlowClass flow);

/** Per-PE demand for one wave. */
struct TileDemand
{
    int64_t macs = 0;        //!< MACs this PE must retire
    int64_t wordsA = 0;      //!< operand-A words it must receive
    int64_t wordsB = 0;      //!< operand-B words it must receive
    int64_t psumWords = 0;   //!< output words drained at wave end
};

/** One wave: demands for every PE slot (row-major, rows x cols). */
struct WaveSpec
{
    int rows = 0;
    int cols = 0;
    Channel channelA = Channel::RowBus;
    Channel channelB = Channel::UnicastNet;
    Channel channelOut = Channel::UnicastNet;
    std::vector<TileDemand> tiles;   //!< size rows*cols; idle PEs zeroed
};

/**
 * Result of simulating one wave (or a sequence/epoch). See the file
 * header for the cycle accounting contract: cycles = compute + drain
 * + glb_conflict - overlapped_drain + dram_stall, which collapses to
 * the additive compute + drain + glb_conflict identity in serial
 * mode with refill off.
 */
struct SimResult
{
    int64_t cycles = 0;        //!< total cycles including drain + stalls
    int64_t computeCycles = 0; //!< cycles until the last MAC retired
    int64_t stallCycles = 0;   //!< PE-cycles stalled waiting on operands
    int64_t macsRetired = 0;

    /** Baseline drain cycles (psum words over the output channel). */
    int64_t drainCycles = 0;

    /**
     * Cycles the second psum buffer saves versus serial drain
     * (doubleBufferOutputs): staged words hidden in the next compute
     * window's spare GLB write bandwidth, plus the speedup of flushing
     * leftovers at aggregate bank bandwidth instead of the output
     * channel. Zero in serial mode; never exceeds drainCycles +
     * glbConflictCycles, and never negative (double-buffered never
     * clocks slower than serial on the same waves).
     */
    int64_t overlappedDrainCycles = 0;

    /** Whole-array stall cycles replaying oversubscribed GLB banks. */
    int64_t glbConflictCycles = 0;

    /** GLB accesses deferred past their issue cycle (bank conflicts). */
    int64_t glbConflicts = 0;

    /** PE-operand-cycles with a delivery withheld by a full queue. */
    int64_t fifoBackpressureCycles = 0;

    /**
     * Total DRAM->GLB refill demand in cycles (measured bytes over
     * SimConfig::dramWordsPerCycle); zero when refill is off.
     */
    int64_t dramRefillCycles = 0;

    /**
     * Refill cycles not hidden under the array-busy window (the
     * double-buffered GLB exposes only the excess); included in
     * `cycles`. Never exceeds dramRefillCycles.
     */
    int64_t dramStallCycles = 0;

    /** Per-bank GLB access totals (size SimConfig::glbBanks). */
    std::vector<int64_t> glbBankReads;
    std::vector<int64_t> glbBankWrites;

    /** Accumulate another result (bank vectors resized as needed). */
    void accumulate(const SimResult &o);

    /** Sum over glbBankReads / glbBankWrites. */
    int64_t totalGlbReads() const;
    int64_t totalGlbWrites() const;
};

/** Simulator configuration. */
struct SimConfig
{
    /** Aggregate unicast-network bandwidth (words/cycle), shared
        between both operands when both ride the unicast network. */
    int unicastWordsPerCycle = 16;

    /**
     * GLB banks; word addresses interleave round-robin across them.
     * The default (64) covers the peak per-cycle word demand of the
     * baseline 16x16 array (16 row + 16 col + 16 unicast words), so
     * conflicts appear only for scaled arrays or narrower GLBs.
     */
    int glbBanks = 64;

    /** Words one bank serves per cycle. */
    int glbBankPortsPerCycle = 1;

    /**
     * Per-PE, per-operand queue depth in words (<= 0: unbounded).
     * Deliveries beyond `consumed + depth` words are withheld.
     */
    int peFifoDepth = 8;

    /**
     * Double-buffered partial-sum outputs: wave N's psums stage into a
     * second buffer and stream to the GLB through the spare banked
     * write bandwidth of wave N+1's fill/compute window (see file
     * header). Off by default: drain is serial over the output
     * channel, preserving the additive decomposition.
     */
    bool doubleBufferOutputs = false;

    /**
     * DRAM->GLB refill bandwidth in words/cycle for the trace-driven
     * entry points; <= 0 (default) disables the refill front end. The
     * paper's 64-bit interface at one transfer per cycle is 2.0
     * 32-bit words/cycle (ArrayConfig::dramWordsPerCycle()).
     */
    double dramWordsPerCycle = 0.0;

    /** Safety limit on simulated cycles per wave. */
    int64_t maxCycles = 200'000'000;
};

/**
 * Validate a SimConfig at an entry point: rejects non-positive
 * `unicastWordsPerCycle` / `glbBanks` / `glbBankPortsPerCycle` /
 * `maxCycles` (silent div-by-zero or a spin otherwise) with a clear
 * FATAL error. `peFifoDepth <= 0` (unbounded) and
 * `dramWordsPerCycle <= 0` (refill off) are valid by design.
 */
void validateSimConfig(const SimConfig &cfg);

/**
 * Share `budget` unicast words round-robin across the slots, starting
 * at `cursor`: each slot with recv[i] < cap[i] receives at most one
 * word per cycle, `budget` is decremented per delivered word, and the
 * returned cursor points one past the LAST slot served — service
 * resumes where it stopped, so under contention every hungry slot is
 * reached before any slot is served twice. (The seed advanced the
 * cursor by one per cycle, systematically re-favouring low indices.)
 * Exposed as the unicast network's scheduling primitive so fairness is
 * directly testable. The simulator passes the live list's arrays, so a
 * slot is a live PE and the cursor a position in the list.
 */
size_t unicastRoundRobin(const std::vector<int64_t> &cap,
                         std::vector<int64_t> &recv, int &budget,
                         size_t cursor);

/** Clock one wave to completion (serial drain: a single wave has no
    successor to overlap with). */
SimResult simulateWave(const WaveSpec &wave, const SimConfig &cfg);

/**
 * Clock a sequence of waves in order. With
 * `cfg.doubleBufferOutputs`, each wave's drain overlaps the next
 * wave's fill/compute (two-psum-buffer pipeline; the hidden cycles
 * land in overlappedDrainCycles); otherwise the waves run serially
 * and results simply accumulate.
 */
SimResult simulateWaveSequence(const std::vector<WaveSpec> &waves,
                               const SimConfig &cfg);

/**
 * Build the wave sequence of one traced (layer, phase, mapping) from
 * its wave plan — the plan the analytic model reduces: exact
 * epoch-final mask slice counts (SparsityMask::tileNnz / blockNnz) for
 * weight-sparse phases, the per-sample / per-channel / spatial
 * activation vectors for the weight-update phase — then simulate every
 * wave (drain-overlapped when cfg.doubleBufferOutputs). Operand
 * channels follow classifyFlow(). Slots whose sparse-operand density
 * is zero (fully pruned slices/chunks) carry zero demand: they retire
 * no phantom MACs, drain no phantom psums, and are excluded from stall
 * accounting. BalanceMode::FullChip clocks unbalanced: the simulated
 * array has no chip-wide exchange network (Figure 10), so only None
 * and HalfTile have a cycle-level counterpart. When
 * cfg.dramWordsPerCycle > 0 the phase is also charged its DRAM->GLB
 * refill from the layer's bytes (compressed weight image plus
 * activation volumes at the mean input density), the words
 * arch::phaseDramWords gives the sparse machine.
 */
SimResult simulateTraceLayerPhase(const arch::LayerTrace &layer,
                                  arch::Phase phase,
                                  arch::MappingKind mapping, int64_t batch,
                                  const arch::ArrayConfig &acfg,
                                  const SimConfig &scfg,
                                  arch::BalanceMode balance =
                                      arch::BalanceMode::HalfTile);

/**
 * SimConfig-independent wave geometry of one traced (layer, phase):
 * the exact WaveSpec sequence simulateTraceLayerPhase would clock,
 * plus the phase's DRAM refill word demand. Building this is the
 * expensive part of a trace replay (mask slice queries, balancing);
 * it depends only on the epoch's measured facts, the mapping, the
 * array geometry, and the balance mode — never on SimConfig — so
 * knob sweeps build it once and re-clock it per configuration.
 */
struct PhaseWavePlan
{
    size_t layerIndex = 0;
    arch::Phase phase = arch::Phase::Forward;
    std::vector<WaveSpec> waves;
    double refillWords = 0.0;   //!< DRAM->GLB demand (32-bit words)
};

/** Wave geometry of a whole traced epoch, in execution order:
    forward through the layers, then backward-data and weight-update
    per layer in reverse — the order the drain-overlap chain follows. */
struct EpochWavePlan
{
    int64_t batchSize = 0;
    std::vector<PhaseWavePlan> order;
};

/** Build the epoch's wave geometry once (parallel over (layer, phase)
    via the shared ThreadPool; bitwise thread-count-invariant). */
EpochWavePlan buildEpochWavePlan(const arch::EpochTrace &epoch,
                                 arch::MappingKind mapping,
                                 const arch::ArrayConfig &acfg,
                                 arch::BalanceMode balance =
                                     arch::BalanceMode::HalfTile);

/** Cycle-level account of one traced epoch (one training iteration). */
struct TraceSimResult
{
    SimResult total;   //!< all layers, all three phases
    SimResult fw;      //!< forward
    SimResult bw;      //!< backward (data gradients)
    SimResult wu;      //!< weight update

    /**
     * Analytic compute latency of the same epoch
     * (NetworkCost::total().computeCycles) — filled by
     * Accelerator::evaluateTrace when it co-runs both models,
     * negative when simulated stand-alone.
     */
    double analyticComputeCycles = -1.0;

    /**
     * Analytic reference the simulated total is compared against:
     * equal to analyticComputeCycles when the co-run's SimConfig
     * models no refill, otherwise the per-(layer, phase) overlap-aware
     * refill bound max(compute, dram_words / dramWordsPerCycle) summed
     * over the epoch (CostOptions::dramRefillWordsPerCycle semantics),
     * so the ratio stays meaningful when the simulator prices
     * end-to-end traffic.
     */
    double analyticRefCycles = -1.0;

    /** total.cycles / analyticRefCycles (negative stand-alone). */
    double analyticCycleRatio = -1.0;
};

/**
 * Simulate every layer of a traced epoch across all three training
 * phases at the trace's own batch size — one training iteration, the
 * same unit the analytic evaluateTrace reports. Equivalent to
 * buildEpochWavePlan + simulateEpochPlan. Deterministic: depends only
 * on the epoch's measured facts, never on thread count (the
 * (layer, phase) pieces simulate in parallel on the shared ThreadPool
 * and accumulate in fixed execution order).
 */
TraceSimResult simulateTraceEpoch(const arch::EpochTrace &epoch,
                                  arch::MappingKind mapping,
                                  const arch::ArrayConfig &acfg,
                                  const SimConfig &scfg,
                                  arch::BalanceMode balance =
                                      arch::BalanceMode::HalfTile);

/**
 * Clock a prebuilt epoch plan under one SimConfig. With
 * doubleBufferOutputs the drain-overlap chain runs across the whole
 * execution order — wave N's drain hides under wave N+1's
 * fill/compute even across layer and phase boundaries (the pipelined
 * dataflow the paper's Figures 18-19 assume); cross-boundary hidden
 * cycles are attributed to `total` only, so with overlap on
 * total.cycles <= fw.cycles + bw.cycles + wu.cycles (equality holds
 * in serial mode).
 */
TraceSimResult simulateEpochPlan(const EpochWavePlan &plan,
                                 const SimConfig &scfg);

} // namespace sim
} // namespace procrustes

#endif // PROCRUSTES_SIM_CYCLE_SIM_H_
