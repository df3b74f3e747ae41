/**
 * @file
 * Tests for the cycle-level PE-array simulator, including agreement
 * with the analytic cost model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "arch/accelerator.h"
#include "arch/cost_model.h"
#include "arch/model_zoo.h"
#include "arch/wave_plan.h"
#include "arch/workload_trace.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "kernels/backend.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/data.h"
#include "nn/linear.h"
#include "nn/network.h"
#include "nn/pooling.h"
#include "nn/trainer.h"
#include "sim/cycle_sim.h"
#include "sparse/gradual_pruning.h"
#include "sparse/mask.h"

namespace procrustes {
namespace sim {
namespace {

using arch::ArrayConfig;
using arch::BalanceMode;
using arch::LayerShape;
using arch::LayerTrace;
using arch::MappingKind;
using arch::Phase;

WaveSpec
uniformWave(int rows, int cols, int64_t macs, int64_t words_a,
            int64_t words_b)
{
    WaveSpec w;
    w.rows = rows;
    w.cols = cols;
    w.channelA = Channel::RowBus;
    w.channelB = Channel::ColBus;
    w.channelOut = Channel::UnicastNet;
    TileDemand d;
    d.macs = macs;
    d.wordsA = words_a;
    d.wordsB = words_b;
    d.psumWords = 1;
    w.tiles.assign(static_cast<size_t>(rows) * cols, d);
    return w;
}

TEST(CycleSim, ComputeBoundWaveRunsAtOneMacPerCycle)
{
    // Few operand words, heavy reuse: compute-bound.
    const WaveSpec w = uniformWave(4, 4, 1000, 10, 10);
    const SimResult r = simulateWave(w, SimConfig{});
    EXPECT_EQ(r.macsRetired, 16 * 1000);
    // All PEs retire one MAC per cycle once words flow; slack only in
    // the first cycles.
    EXPECT_NEAR(static_cast<double>(r.computeCycles), 1000.0, 15.0);
}

TEST(CycleSim, BandwidthStarvedWaveStalls)
{
    // Every MAC needs a fresh unicast word; aggregate unicast
    // bandwidth of 16 words/cycle feeds 16 PEs at 1/PE — but 64 PEs
    // need 4x that, so the wave runs ~4x longer.
    WaveSpec w = uniformWave(8, 8, 100, 1, 100);
    w.channelB = Channel::UnicastNet;
    SimConfig cfg;
    cfg.unicastWordsPerCycle = 16;
    const SimResult r = simulateWave(w, cfg);
    EXPECT_GT(r.computeCycles, 350);
    EXPECT_GT(r.stallCycles, 0);
}

TEST(CycleSim, SkewedWaveMatchesMaxTileWork)
{
    WaveSpec w = uniformWave(2, 2, 100, 5, 5);
    w.tiles[0].macs = 1000;   // one heavy PE
    const SimResult r = simulateWave(w, SimConfig{});
    EXPECT_NEAR(static_cast<double>(r.computeCycles), 1000.0, 20.0);
}

TEST(CycleSim, BroadcastChannelFeedsAllPes)
{
    WaveSpec w = uniformWave(4, 4, 64, 64, 1);
    w.channelA = Channel::Broadcast;
    const SimResult r = simulateWave(w, SimConfig{});
    // One word per cycle broadcast, each word enables 1 MAC: the wave
    // takes ~64 cycles with all PEs in lockstep.
    EXPECT_NEAR(static_cast<double>(r.computeCycles), 64.0, 5.0);
}

TEST(CycleSim, DrainAddedAfterCompute)
{
    WaveSpec w = uniformWave(2, 2, 10, 1, 1);
    for (auto &t : w.tiles)
        t.psumWords = 50;
    w.channelOut = Channel::UnicastNet;
    SimConfig cfg;
    cfg.unicastWordsPerCycle = 4;
    const SimResult r = simulateWave(w, cfg);
    EXPECT_EQ(r.cycles - r.computeCycles, (4 * 50) / 4);
}

TEST(CycleSimDeathTest, RejectsNonPositiveUnicastBandwidth)
{
    const WaveSpec w = uniformWave(1, 1, 1, 1, 1);
    SimConfig bad;
    bad.unicastWordsPerCycle = 0;
    EXPECT_DEATH(simulateWave(w, bad), "unicastWordsPerCycle");
}

TEST(CycleSimDeathTest, RejectsNonPositiveGlbBanks)
{
    const WaveSpec w = uniformWave(1, 1, 1, 1, 1);
    SimConfig bad;
    bad.glbBanks = -4;
    EXPECT_DEATH(simulateWave(w, bad), "glbBanks must be positive");
}

TEST(CycleSimDeathTest, RejectsNonPositiveGlbBankPorts)
{
    const WaveSpec w = uniformWave(1, 1, 1, 1, 1);
    SimConfig bad;
    bad.glbBankPortsPerCycle = 0;
    EXPECT_DEATH(simulateWave(w, bad), "glbBankPortsPerCycle");
}

TEST(CycleSimDeathTest, RejectsNonPositiveMaxCycles)
{
    const WaveSpec w = uniformWave(1, 1, 1, 1, 1);
    SimConfig bad;
    bad.maxCycles = 0;
    EXPECT_DEATH(simulateWave(w, bad), "maxCycles");
}

TEST(CycleSim, UnboundedFifoAndRefillOffAreValidConfigs)
{
    // peFifoDepth <= 0 (unbounded queues) and dramWordsPerCycle <= 0
    // (refill front end off) are meaningful settings, not errors.
    const WaveSpec w = uniformWave(1, 1, 1, 1, 1);
    SimConfig cfg;
    cfg.peFifoDepth = 0;
    cfg.dramWordsPerCycle = 0.0;
    const SimResult r = simulateWave(w, cfg);
    EXPECT_EQ(r.macsRetired, 1);
}

TEST(CycleSim, ChannelMapping)
{
    EXPECT_EQ(channelFor(arch::FlowClass::MulticastRows),
              Channel::RowBus);
    EXPECT_EQ(channelFor(arch::FlowClass::ReduceCols), Channel::ColBus);
    EXPECT_EQ(channelFor(arch::FlowClass::Broadcast),
              Channel::Broadcast);
    EXPECT_EQ(channelFor(arch::FlowClass::Unicast), Channel::UnicastNet);
}

/**
 * Cross-validation: cycle-level simulation of small layers must agree
 * with the analytic model's compute latency within 25% (the analytic
 * model ignores fill/drain and interconnect contention).
 */
struct AgreementCase
{
    const char *name;
    MappingKind mapping;
    Phase phase;
};

class AnalyticAgreement : public ::testing::TestWithParam<AgreementCase>
{
};

TEST_P(AnalyticAgreement, CycleSimWithinBand)
{
    const AgreementCase &ac = GetParam();
    const LayerShape layer = arch::convLayer("c", 32, 32, 3, 8);
    sparse::SyntheticMaskConfig mc;
    mc.targetDensity = 0.25;
    mc.kernelSigma = 1.0;
    mc.seed = 5;
    const LayerTrace traced = arch::syntheticLayer(
        layer,
        sparse::makeSyntheticMask(layer.K, layer.effectiveC(), layer.R,
                                  layer.S, mc),
        0.5, 16);

    const ArrayConfig acfg = ArrayConfig::baseline16();
    arch::CostOptions opts;
    opts.sparse = true;
    opts.balance = BalanceMode::HalfTile;
    const arch::CostModel analytic(acfg, opts);
    const double expected =
        analytic
            .evaluatePhase(traced, traced.weightDensity(), ac.phase,
                           ac.mapping, 16)
            .computeCycles;

    SimConfig scfg;
    scfg.unicastWordsPerCycle = 16;
    const SimResult sim = simulateTraceLayerPhase(
        traced, ac.phase, ac.mapping, 16, acfg, scfg,
        BalanceMode::HalfTile);

    EXPECT_GT(static_cast<double>(sim.computeCycles),
              0.75 * expected)
        << ac.name;
    EXPECT_LT(static_cast<double>(sim.computeCycles), 1.6 * expected)
        << ac.name;
}

/** Uncontended delivery (unlimited unicast and GLB banks, unbounded
    FIFOs) and a serial drain: a simulated wave lasts exactly its
    slowest PE's MAC count. */
SimConfig
uncontendedConfig()
{
    SimConfig scfg;
    scfg.unicastWordsPerCycle = 1 << 20;
    scfg.glbBanks = 4096;
    scfg.peFifoDepth = 0;
    scfg.doubleBufferOutputs = false;
    return scfg;
}

/**
 * Exact agreement: under uncontendedConfig() a simulated wave's
 * compute is the analytic wave latency rounded to whole MACs — so the
 * two compute latencies differ by at most one cycle per wave, in every
 * phase and mapping.
 */
TEST_P(AnalyticAgreement, UncontendedComputeMatchesAnalyticPerWave)
{
    const AgreementCase &ac = GetParam();
    const ArrayConfig acfg = ArrayConfig::baseline16();
    const SimConfig scfg = uncontendedConfig();
    for (const LayerShape &layer : {arch::convLayer("c32", 32, 32, 3, 8),
                                    arch::convLayer("c24", 24, 40, 3, 12)}) {
        sparse::SyntheticMaskConfig mc;
        mc.targetDensity = 0.25;
        mc.kernelSigma = 1.0;
        mc.seed = 5;
        const LayerTrace traced = arch::syntheticLayer(
            layer,
            sparse::makeSyntheticMask(layer.K, layer.effectiveC(), layer.R,
                                      layer.S, mc),
            0.5, 16);
        for (BalanceMode balance :
             {BalanceMode::None, BalanceMode::HalfTile}) {
            arch::CostOptions opts;
            opts.sparse = true;
            opts.balance = balance;
            const arch::CostModel analytic(acfg, opts);
            const double expected =
                analytic
                    .evaluatePhase(traced, traced.weightDensity(), ac.phase,
                                   ac.mapping, 16)
                    .computeCycles;
            const size_t waves =
                arch::planWaves(traced, ac.phase, ac.mapping, 16, acfg)
                    .waves.size();
            const SimResult sim = simulateTraceLayerPhase(
                traced, ac.phase, ac.mapping, 16, acfg, scfg, balance);
            EXPECT_LE(std::abs(static_cast<double>(sim.computeCycles) -
                               expected),
                      static_cast<double>(waves))
                << ac.name << " " << layer.name << " "
                << (balance == BalanceMode::None ? "None" : "HalfTile")
                << ": simulated " << sim.computeCycles << ", analytic "
                << expected;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AnalyticAgreement,
    ::testing::Values(
        AgreementCase{"kn_fw", MappingKind::KN, Phase::Forward},
        AgreementCase{"kn_bw", MappingKind::KN, Phase::Backward},
        AgreementCase{"kn_wu", MappingKind::KN, Phase::WeightUpdate},
        AgreementCase{"cn_fw", MappingKind::CN, Phase::Forward},
        AgreementCase{"ck_fw", MappingKind::CK, Phase::Forward}),
    [](const ::testing::TestParamInfo<AgreementCase> &info) {
        return info.param.name;
    });

// The mapping x phase cases the band suite above leaves out, so the
// exact per-wave agreement covers all twelve.
INSTANTIATE_TEST_SUITE_P(
    RemainingPhases, AnalyticAgreement,
    ::testing::Values(
        AgreementCase{"cn_bw", MappingKind::CN, Phase::Backward},
        AgreementCase{"cn_wu", MappingKind::CN, Phase::WeightUpdate},
        AgreementCase{"ck_bw", MappingKind::CK, Phase::Backward},
        AgreementCase{"ck_wu", MappingKind::CK, Phase::WeightUpdate},
        AgreementCase{"pq_fw", MappingKind::PQ, Phase::Forward},
        AgreementCase{"pq_bw", MappingKind::PQ, Phase::Backward},
        AgreementCase{"pq_wu", MappingKind::PQ, Phase::WeightUpdate}),
    [](const ::testing::TestParamInfo<AgreementCase> &info) {
        return info.param.name;
    });

TEST(CycleSim, UnicastBudgetSharedAcrossOperands)
{
    // Both operands ride the unicast network: its aggregate bandwidth
    // is one budget per cycle, not one per operand. 64 PEs x 200
    // words at 16 words/cycle needs >= 800 delivery cycles;
    // double-counting the budget per channel would finish in ~400.
    WaveSpec w = uniformWave(8, 8, 100, 100, 100);
    w.channelA = Channel::UnicastNet;
    w.channelB = Channel::UnicastNet;
    SimConfig cfg;
    cfg.unicastWordsPerCycle = 16;
    const SimResult r = simulateWave(w, cfg);
    EXPECT_GE(r.computeCycles, 800);
    EXPECT_EQ(r.macsRetired, 64 * 100);
}

TEST(CycleSim, RoundRobinCursorResumesAtLastServed)
{
    // Budget 2 over four equally hungry slots: the cursor must resume
    // one past the last slot served, so two calls reach all four
    // exactly once. (The seed advanced the cursor by one per cycle,
    // re-serving slot 1 while slot 3 starved: recv [1,2,1,0].)
    const std::vector<int64_t> cap(4, 100);
    std::vector<int64_t> recv(4, 0);
    int budget = 2;
    size_t cursor = unicastRoundRobin(cap, recv, budget, 0);
    EXPECT_EQ(budget, 0);
    EXPECT_EQ(cursor, 2u);
    budget = 2;
    cursor = unicastRoundRobin(cap, recv, budget, cursor);
    EXPECT_EQ(budget, 0);
    EXPECT_EQ(cursor, 0u);
    EXPECT_EQ(recv, (std::vector<int64_t>{1, 1, 1, 1}));
}

TEST(CycleSim, RoundRobinSkipsFullSlotsAndKeepsLeftoverBudget)
{
    const std::vector<int64_t> cap = {1, 0, 3};
    std::vector<int64_t> recv = {1, 0, 1};
    int budget = 4;
    const size_t cursor = unicastRoundRobin(cap, recv, budget, 0);
    // Only slot 2 is hungry; it gets one word this cycle, the rest of
    // the budget is left over, and service resumes after it.
    EXPECT_EQ(recv, (std::vector<int64_t>{1, 0, 2}));
    EXPECT_EQ(budget, 3);
    EXPECT_EQ(cursor, 0u);
}

TEST(CycleSim, SaturatedRowBusDeliversOneLinePerCycle)
{
    // More operand-A words than MACs on the row bus: the wave is
    // word-bound at one multicast line per row per cycle.
    WaveSpec w = uniformWave(4, 4, 100, 200, 10);
    const SimResult r = simulateWave(w, SimConfig{});
    EXPECT_NEAR(static_cast<double>(r.computeCycles), 200.0, 15.0);
    EXPECT_GT(r.stallCycles, 0);
}

TEST(CycleSim, SaturatedColBusDeliversOneLinePerCycle)
{
    WaveSpec w = uniformWave(4, 4, 100, 10, 200);
    const SimResult r = simulateWave(w, SimConfig{});
    EXPECT_NEAR(static_cast<double>(r.computeCycles), 200.0, 15.0);
    EXPECT_GT(r.stallCycles, 0);
}

TEST(CycleSim, DrainOnlyWaveTakesBandwidthBoundCycles)
{
    // No MACs, no operand words — just partial sums to drain. The
    // wave must not spin on compute: 4 PEs x 25 psums over a 4-wide
    // unicast output channel is exactly 25 drain cycles.
    WaveSpec w = uniformWave(2, 2, 0, 0, 0);
    for (auto &t : w.tiles)
        t.psumWords = 25;
    SimConfig cfg;
    cfg.unicastWordsPerCycle = 4;
    const SimResult r = simulateWave(w, cfg);
    EXPECT_EQ(r.macsRetired, 0);
    EXPECT_EQ(r.computeCycles, 0);
    EXPECT_EQ(r.drainCycles, 25);
    EXPECT_EQ(r.cycles, 25);
}

TEST(CycleSim, GlbBankConflictsStallAndAreCounted)
{
    // 16 unicast words/cycle against 4 single-ported banks: every
    // delivery cycle oversubscribes the GLB 4x and must replay.
    WaveSpec w = uniformWave(8, 8, 100, 1, 100);
    w.channelB = Channel::UnicastNet;
    SimConfig cfg;
    cfg.unicastWordsPerCycle = 16;
    cfg.glbBanks = 4;
    cfg.glbBankPortsPerCycle = 1;
    const SimResult r = simulateWave(w, cfg);
    EXPECT_GT(r.glbConflicts, 0);
    EXPECT_GT(r.glbConflictCycles, 0);
    EXPECT_EQ(r.cycles,
              r.computeCycles + r.drainCycles + r.glbConflictCycles);
    // Unicast words read once per PE; the single operand-A word is a
    // multicast line per row (one GLB read fans out to 8 PEs). Every
    // psum written once.
    EXPECT_EQ(r.totalGlbReads(), 64 * 100 + 8);
    EXPECT_EQ(r.totalGlbWrites(), 64 * 1);

    // The default GLB (64 banks) covers the full per-cycle demand of
    // the baseline array: same wave, no conflicts.
    const SimResult wide = simulateWave(w, SimConfig{});
    EXPECT_EQ(wide.glbConflicts, 0);
    EXPECT_EQ(wide.glbConflictCycles, 0);
}

TEST(CycleSim, FifoBackpressureThrottlesDeliveryWithoutSlowdown)
{
    // Row bus can feed one word per cycle but each word covers two
    // MACs: a shallow operand queue fills and withholds deliveries.
    // Backpressure must be counted, and — since words still arrive
    // ahead of consumption — must not change the makespan.
    WaveSpec w = uniformWave(4, 4, 200, 100, 1);
    SimConfig shallow;
    shallow.peFifoDepth = 2;
    const SimResult r_shallow = simulateWave(w, shallow);
    SimConfig unbounded;
    unbounded.peFifoDepth = 0;
    const SimResult r_unbounded = simulateWave(w, unbounded);
    EXPECT_GT(r_shallow.fifoBackpressureCycles, 0);
    EXPECT_EQ(r_unbounded.fifoBackpressureCycles, 0);
    EXPECT_EQ(r_shallow.computeCycles, r_unbounded.computeCycles);
    EXPECT_EQ(r_shallow.macsRetired, r_unbounded.macsRetired);
}

/** Serial-mode accounting identity (no overlap, no refill). */
void
expectSerialIdentity(const SimResult &r)
{
    EXPECT_EQ(r.overlappedDrainCycles, 0);
    EXPECT_EQ(r.dramStallCycles, 0);
    EXPECT_EQ(r.cycles,
              r.computeCycles + r.drainCycles + r.glbConflictCycles);
}

/** Full accounting contract (holds in every mode). */
void
expectCycleContract(const SimResult &r)
{
    EXPECT_EQ(r.cycles, r.computeCycles + r.drainCycles +
                            r.glbConflictCycles -
                            r.overlappedDrainCycles + r.dramStallCycles);
    EXPECT_GE(r.overlappedDrainCycles, 0);
    EXPECT_LE(r.overlappedDrainCycles,
              r.drainCycles + r.glbConflictCycles);
    EXPECT_GE(r.dramStallCycles, 0);
    EXPECT_LE(r.dramStallCycles, r.dramRefillCycles);
}

TEST(CycleSim, DoubleBufferTwoWaveOverlapHandComputed)
{
    // One 1x1-PE wave: 2 broadcast operand words unlock 10 MACs (10
    // compute cycles, 2 GLB reads), then 20 psums drain over the
    // 1-word/cycle broadcast output channel (20 drain cycles). Two of
    // them serially: 2 x (10 + 20) = 60 cycles.
    WaveSpec w = uniformWave(1, 1, 10, 1, 1);
    w.channelA = Channel::Broadcast;
    w.channelB = Channel::Broadcast;
    w.channelOut = Channel::Broadcast;
    w.tiles[0].psumWords = 20;
    const std::vector<WaveSpec> seq = {w, w};

    SimConfig cfg;   // 64 banks x 1 port: bank bandwidth 64 words/cycle
    const SimResult serial = simulateWaveSequence(seq, cfg);
    EXPECT_EQ(serial.computeCycles, 20);
    EXPECT_EQ(serial.drainCycles, 40);
    EXPECT_EQ(serial.cycles, 60);
    expectSerialIdentity(serial);

    // Double-buffered: wave 1's 20 staged words vanish into wave 2's
    // spare GLB write bandwidth (64 x 10 - 2 = 638 words spare), saving
    // all 20 serial drain cycles; wave 2's 20 words flush at the full
    // 64-words/cycle bank bandwidth in ceil(20/64) = 1 cycle, saving
    // 19 of 20. Total: 20 compute + 1 flush = 21 cycles, 39 overlapped.
    cfg.doubleBufferOutputs = true;
    const SimResult db = simulateWaveSequence(seq, cfg);
    EXPECT_EQ(db.cycles, 21);
    EXPECT_EQ(db.overlappedDrainCycles, 39);
    EXPECT_EQ(db.drainCycles, serial.drainCycles);
    expectCycleContract(db);
}

TEST(CycleSim, DoubleBufferNeverSlowerAndTrafficInvariant)
{
    // On every wave sequence and every (even oversubscribed) GLB
    // geometry: double-buffered total cycles <= serial, the accounting
    // contract holds, and the per-bank read/write traffic is bitwise
    // identical — the second buffer re-times the drain, it never
    // re-routes it.
    WaveSpec heavy_drain = uniformWave(8, 8, 10, 1, 1);
    for (auto &t : heavy_drain.tiles)
        t.psumWords = 40;
    WaveSpec unicast_out = uniformWave(4, 4, 50, 5, 50);
    unicast_out.channelB = Channel::UnicastNet;
    WaveSpec compute_heavy = uniformWave(8, 8, 500, 10, 10);
    const std::vector<std::vector<WaveSpec>> sequences = {
        {heavy_drain, heavy_drain, heavy_drain},
        {compute_heavy, heavy_drain},
        {heavy_drain, compute_heavy, unicast_out, heavy_drain},
        {unicast_out},
        {},
    };

    std::vector<SimConfig> cfgs(3);
    cfgs[1].glbBanks = 4;   // bank bandwidth below every output channel
    cfgs[2].glbBanks = 16;
    cfgs[2].unicastWordsPerCycle = 32;
    for (size_t c = 0; c < cfgs.size(); ++c) {
        SimConfig serial_cfg = cfgs[c];
        SimConfig db_cfg = cfgs[c];
        db_cfg.doubleBufferOutputs = true;
        for (size_t s = 0; s < sequences.size(); ++s) {
            const SimResult a =
                simulateWaveSequence(sequences[s], serial_cfg);
            const SimResult b =
                simulateWaveSequence(sequences[s], db_cfg);
            expectSerialIdentity(a);
            expectCycleContract(b);
            EXPECT_LE(b.cycles, a.cycles) << "cfg " << c << " seq " << s;
            EXPECT_EQ(a.glbBankReads, b.glbBankReads)
                << "cfg " << c << " seq " << s;
            EXPECT_EQ(a.glbBankWrites, b.glbBankWrites)
                << "cfg " << c << " seq " << s;
            EXPECT_EQ(a.computeCycles, b.computeCycles);
            EXPECT_EQ(a.drainCycles, b.drainCycles);
            EXPECT_EQ(a.macsRetired, b.macsRetired);
        }
    }
}

TEST(CycleSim, DoubleBufferEqualsSerialWhenDrainIsFree)
{
    // With nothing to drain the second buffer has nothing to hide:
    // both modes must clock identically.
    WaveSpec w = uniformWave(4, 4, 100, 10, 10);
    for (auto &t : w.tiles)
        t.psumWords = 0;
    const std::vector<WaveSpec> seq = {w, w, w};
    SimConfig db_cfg;
    db_cfg.doubleBufferOutputs = true;
    const SimResult serial = simulateWaveSequence(seq, SimConfig{});
    const SimResult db = simulateWaveSequence(seq, db_cfg);
    EXPECT_EQ(serial.cycles, db.cycles);
    EXPECT_EQ(db.overlappedDrainCycles, 0);
    EXPECT_EQ(serial.drainCycles, 0);
}

/** SimResult fields in digest order, for failure messages. */
constexpr size_t kNumSimFields = 13;
const char *const kSimFields[kNumSimFields] = {
    "cycles", "computeCycles", "stallCycles", "macsRetired",
    "drainCycles", "overlappedDrainCycles", "glbConflictCycles",
    "glbConflicts", "fifoBackpressureCycles", "dramRefillCycles",
    "dramStallCycles", "glbBankReads", "glbBankWrites"};

/**
 * One FNV-1a hash per SimResult field over a run of results (the bank
 * vectors hashed element by element), so a golden mismatch names the
 * field that moved.
 */
struct SimDigest
{
    std::array<uint64_t, kNumSimFields> h;

    SimDigest() { h.fill(14695981039346656037ull); }

    void mix(size_t field, int64_t v)
    {
        for (int byte = 0; byte < 8; ++byte) {
            h[field] ^= (static_cast<uint64_t>(v) >> (8 * byte)) & 0xff;
            h[field] *= 1099511628211ull;
        }
    }

    void mixBanks(size_t field, const std::vector<int64_t> &banks)
    {
        mix(field, static_cast<int64_t>(banks.size()));
        for (int64_t v : banks)
            mix(field, v);
    }

    void add(const SimResult &r)
    {
        const int64_t scalars[] = {
            r.cycles, r.computeCycles, r.stallCycles, r.macsRetired,
            r.drainCycles, r.overlappedDrainCycles, r.glbConflictCycles,
            r.glbConflicts, r.fifoBackpressureCycles, r.dramRefillCycles,
            r.dramStallCycles};
        for (size_t f = 0; f < std::size(scalars); ++f)
            mix(f, scalars[f]);
        mixBanks(11, r.glbBankReads);
        mixBanks(12, r.glbBankWrites);
    }
};

void
expectDigest(const SimDigest &got,
             const std::array<uint64_t, kNumSimFields> &want,
             const char *entry)
{
    for (size_t f = 0; f < kNumSimFields; ++f)
        EXPECT_EQ(got.h[f], want[f]) << entry << " " << kSimFields[f];
}

/** splitmix64: the golden waves depend on no library generator. */
uint64_t
nextRandom(uint64_t &state)
{
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

/**
 * A wave with ragged demands: about one PE in five idle, one in five
 * receiving words but retiring no MACs, one in five with a zero-word
 * operand B, and operand A ranging from zero words to about twice the
 * MACs.
 */
WaveSpec
raggedWave(int rows, int cols, uint64_t seed)
{
    WaveSpec w;
    w.rows = rows;
    w.cols = cols;
    for (int i = 0; i < rows * cols; ++i) {
        TileDemand d;
        const uint64_t kind = nextRandom(seed) % 5;
        if (kind != 0) {
            d.macs = kind == 1
                         ? 0
                         : static_cast<int64_t>(nextRandom(seed) % 24) + 1;
            d.wordsA = static_cast<int64_t>(nextRandom(seed) %
                                            static_cast<uint64_t>(
                                                2 * d.macs + 4));
            d.wordsB = kind == 2
                           ? 0
                           : static_cast<int64_t>(
                                 nextRandom(seed) %
                                 static_cast<uint64_t>(d.macs + 6));
            d.psumWords = static_cast<int64_t>(nextRandom(seed) % 7);
        }
        w.tiles.push_back(d);
    }
    return w;
}

TEST(CycleSimGolden, EveryFieldOverChannelsAndKnobs)
{
    // Every SimResult field of simulateWave, simulateWaveSequence and
    // simulateEpochPlan over all operand-channel pairs, FIFO depths
    // {0, 1, 8}, GLB banks {3, 64} x ports {1, 2}, unicast {1, 16},
    // serial and double-buffered drain, and refill off and on, on
    // ragged waves. The digests were recorded from the loop that
    // visits every PE every cycle; any faster loop must reproduce them
    // bit for bit.
    const Channel channels[] = {Channel::RowBus, Channel::ColBus,
                                Channel::Broadcast, Channel::UnicastNet};
    std::vector<WaveSpec> waves = {raggedWave(3, 5, 1), raggedWave(4, 4, 2),
                                   raggedWave(2, 6, 3)};
    SimDigest wave_digest;
    SimDigest seq_digest;
    SimDigest plan_digest;
    SimResult seen;
    for (size_t a = 0; a < 4; ++a) {
        for (size_t b = 0; b < 4; ++b) {
            for (size_t i = 0; i < waves.size(); ++i) {
                waves[i].channelA = channels[a];
                waves[i].channelB = channels[b];
                waves[i].channelOut = channels[(a + b + i) % 4];
            }
            // An empty piece in the middle exercises the drain chain
            // across a piece with no waves.
            EpochWavePlan plan;
            plan.batchSize = 4;
            plan.order = {
                {0, Phase::Forward, {waves[0], waves[1]}, 40.0},
                {1, Phase::Forward, {}, 25.0},
                {1, Phase::Backward, {waves[2]}, 900.0},
                {0, Phase::WeightUpdate, {waves[1], waves[2], waves[0]},
                 0.0}};
            for (int fifo : {0, 1, 8}) {
                for (int banks : {3, 64}) {
                    for (int ports : {1, 2}) {
                        for (int uni : {1, 16}) {
                            SimConfig cfg;
                            cfg.peFifoDepth = fifo;
                            cfg.glbBanks = banks;
                            cfg.glbBankPortsPerCycle = ports;
                            cfg.unicastWordsPerCycle = uni;
                            for (const WaveSpec &w : waves)
                                wave_digest.add(simulateWave(w, cfg));
                            for (bool db : {false, true}) {
                                cfg.doubleBufferOutputs = db;
                                cfg.dramWordsPerCycle = 0.0;
                                const SimResult s =
                                    simulateWaveSequence(waves, cfg);
                                seq_digest.add(s);
                                seen.accumulate(s);
                                for (double dram : {0.0, 2.0}) {
                                    cfg.dramWordsPerCycle = dram;
                                    const TraceSimResult t =
                                        simulateEpochPlan(plan, cfg);
                                    plan_digest.add(t.total);
                                    plan_digest.add(t.fw);
                                    plan_digest.add(t.bw);
                                    plan_digest.add(t.wu);
                                    seen.accumulate(t.total);
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    // The corpus reaches every counter, so no digest is vacuous.
    EXPECT_GT(seen.stallCycles, 0);
    EXPECT_GT(seen.glbConflicts, 0);
    EXPECT_GT(seen.fifoBackpressureCycles, 0);
    EXPECT_GT(seen.overlappedDrainCycles, 0);
    EXPECT_GT(seen.dramStallCycles, 0);
    expectDigest(wave_digest,
                 {0x0c392eb33bef5ef8ull, 0x9cf53195c028ac3dull,
                  0x9438eacf53c8474dull, 0x519229786c1b9b25ull,
                  0x7d7215b1c2d0c125ull, 0xf3fb6a6deb5af325ull,
                  0x2013e7bfd9d0c27aull, 0x3a594d87c848ccffull,
                  0x4e9c49404694a575ull, 0xf3fb6a6deb5af325ull,
                  0xf3fb6a6deb5af325ull, 0x9fb2a13a4d466965ull,
                  0x13a6be28b7292ba5ull},
                 "simulateWave");
    expectDigest(seq_digest,
                 {0x60fef787b5a60dacull, 0xd67f6f63f84c5a55ull,
                  0xfae3e6dd70e91b55ull, 0x02562d76131aeb25ull,
                  0x7c4abbbf4b57bb25ull, 0xc3b163cb5815f896ull,
                  0xe42697356c8c0045ull, 0xf8f21b4696b70a91ull,
                  0xa347a08e163a1cd5ull, 0x6df0de0551480325ull,
                  0x6df0de0551480325ull, 0x82ae8cdd469f2da5ull,
                  0xe8ce050ea071aba5ull},
                 "simulateWaveSequence");
    expectDigest(plan_digest,
                 {0x327140c80b8290a0ull, 0x11de80c517c80865ull,
                  0x6a4173502683e845ull, 0x3b8e2add188a6725ull,
                  0x61aff18b9f5c1325ull, 0xa49dfe14d48e25e5ull,
                  0x46fbb86052b20bedull, 0xb35d0885572d729dull,
                  0x7245bf6e5d368805ull, 0x960bf058260eab25ull,
                  0xed69174f0ebfc49dull, 0x9a2f56df8e56ba15ull,
                  0x7bac883fc327c925ull},
                 "simulateEpochPlan");
}

TEST(CycleSim, ZeroDensitySlotsStayIdle)
{
    // A fully pruned layer maps to zero-demand slots everywhere: no
    // phantom MACs or psum drain from per-slot floors. (The seed
    // clamped every slot to at least one MAC and one word, so an
    // all-zero mask still "computed".)
    const LayerShape layer = arch::convLayer("z", 32, 32, 3, 8);
    sparse::SparsityMask mask = sparse::SparsityMask::dense(
        layer.K, layer.effectiveC(), layer.R, layer.S);
    std::fill(mask.bits.begin(), mask.bits.end(),
              static_cast<uint8_t>(0));
    const LayerTrace traced =
        arch::syntheticLayer(layer, std::move(mask), 0.5, 8);
    const ArrayConfig acfg = ArrayConfig::baseline16();
    for (Phase phase : {Phase::Forward, Phase::Backward}) {
        const SimResult r =
            simulateTraceLayerPhase(traced, phase, MappingKind::KN, 8, acfg,
                                    SimConfig{});
        EXPECT_EQ(r.macsRetired, 0) << static_cast<int>(phase);
        EXPECT_EQ(r.cycles, 0) << static_cast<int>(phase);
        EXPECT_EQ(r.stallCycles, 0) << static_cast<int>(phase);
    }
}

/** Small sparse-backend conv/bn/relu/fc net (trace-driven tests). */
void
buildTraceNet(nn::Network &net, uint64_t seed)
{
    nn::Conv2dConfig c1;
    c1.inChannels = 3;
    c1.outChannels = 8;
    c1.kernel = 3;
    c1.pad = 1;
    c1.bias = false;
    nn::Conv2d *conv1 = net.add<nn::Conv2d>(c1, "conv1");
    conv1->setBackend(kernels::KernelBackend::kSparse);
    net.add<nn::BatchNorm2d>(8, "bn1");
    net.add<nn::ReLU>("relu1");
    net.add<nn::MaxPool2d>(2, "pool1");
    net.add<nn::GlobalAvgPool>("gap");
    nn::Linear *fc = net.add<nn::Linear>(8, 4, "fc");
    fc->setBackend(kernels::KernelBackend::kSparse);
    Xorshift128Plus rng(seed);
    nn::kaimingInit(net, rng);
    // Prune a third of every trainable layer up front so the traced
    // masks are genuinely sparse from epoch 0.
    for (size_t i = 0; i < net.size(); ++i) {
        auto *wl = dynamic_cast<nn::WeightLayer *>(net.layer(i));
        if (!wl)
            continue;
        Tensor &w = wl->weight().value;
        for (int64_t j = 0; j < w.numel(); j += 3)
            w.at(j) = 0.0f;
    }
}

/** The non-default co-run config the trace tests exercise: drain
    double-buffering plus the DRAM refill front end at the paper's
    2 words/cycle. */
SimConfig
dbRefillConfig()
{
    SimConfig cfg;
    cfg.doubleBufferOutputs = true;
    cfg.dramWordsPerCycle = 2.0;
    return cfg;
}

/** Train 2 epochs and return the trace plus each epoch's co-runs
    (default serial config and the db+refill config). */
struct TracePipeline
{
    arch::WorkloadTrace trace;
    std::vector<TraceSimResult> sims;
    std::vector<TraceSimResult> dbSims;
};

TracePipeline
runTraceSimPipeline()
{
    nn::Network net;
    buildTraceNet(net, 41);
    nn::BlobImageConfig dcfg;
    dcfg.numClasses = 4;
    dcfg.samplesPerClass = 12;
    const nn::Dataset train = nn::makeBlobImages(dcfg);
    dcfg.sampleSeed = 77;
    const nn::Dataset val = nn::makeBlobImages(dcfg);
    nn::TrainConfig tc;
    tc.epochs = 2;
    tc.batchSize = 8;
    // Gradual magnitude pruning with an interval shorter than an
    // epoch, so the two epoch-final masks genuinely differ.
    sparse::GradualPruningConfig pcfg;
    pcfg.targetSparsity = 4.0;
    pcfg.lr = 0.05f;
    pcfg.pruneInterval = 3;
    pcfg.pruneFraction = 0.3;
    pcfg.warmupIterations = 2;
    sparse::GradualMagnitudePruningOptimizer opt(pcfg);
    TracePipeline out;
    trainNetwork(net, opt, train, val, tc, out.trace.observer());
    const arch::Accelerator acc = arch::Accelerator::procrustes();
    for (size_t e = 0; e < out.trace.epochCount(); ++e) {
        TraceSimResult csim;
        acc.evaluateTrace(out.trace, e, nullptr, &csim);
        out.sims.push_back(csim);
        TraceSimResult dbsim;
        acc.evaluateTrace(out.trace, e, nullptr, &dbsim,
                          dbRefillConfig());
        out.dbSims.push_back(dbsim);
    }
    return out;
}

/** One trained pipeline shared by the single-configuration trace
    tests (the thread sweep re-trains under each pool size on
    purpose). */
const TracePipeline &
sharedPipeline()
{
    static const TracePipeline p = runTraceSimPipeline();
    return p;
}

TEST(TraceSim, EpochCoRunAgreesWithAnalyticModel)
{
    // Integration: the cycle-level simulator replays every traced
    // epoch from the measured masks/activations, and its total cycles
    // must stay within a bounded band of the analytic compute latency
    // (the simulator adds drain, fill, and contention on top — the
    // band is the fidelity bound BENCH_cosim.json v5 records).
    const TracePipeline &p = sharedPipeline();
    ASSERT_EQ(p.trace.epochCount(), 2u);
    for (size_t e = 0; e < p.sims.size(); ++e) {
        const TraceSimResult &cs = p.sims[e];
        EXPECT_GT(cs.total.macsRetired, 0) << e;
        EXPECT_GT(cs.analyticComputeCycles, 0.0) << e;
        // With refill off the ratio reference is the compute latency.
        EXPECT_EQ(cs.analyticRefCycles, cs.analyticComputeCycles) << e;
        EXPECT_GT(cs.analyticCycleRatio, 0.6) << e;
        EXPECT_LT(cs.analyticCycleRatio, 3.6) << e;
        // In serial mode with refill off the historical additive
        // cycle decomposition holds exactly for the accumulated
        // epoch, and phases sum to the total.
        EXPECT_EQ(cs.total.cycles,
                  cs.total.computeCycles + cs.total.drainCycles +
                      cs.total.glbConflictCycles)
            << e;
        EXPECT_EQ(cs.total.cycles,
                  cs.fw.cycles + cs.bw.cycles + cs.wu.cycles)
            << e;
        EXPECT_EQ(cs.total.macsRetired,
                  cs.fw.macsRetired + cs.bw.macsRetired +
                      cs.wu.macsRetired)
            << e;
        // The default 64-bank GLB covers the baseline array's peak
        // per-cycle demand: no conflicts on the default config.
        EXPECT_EQ(cs.total.glbConflicts, 0) << e;
        EXPECT_EQ(cs.total.glbConflictCycles, 0) << e;
        // Reads/writes happened and landed in the bank counters.
        EXPECT_GT(cs.total.totalGlbReads(), 0) << e;
        EXPECT_GT(cs.total.totalGlbWrites(), 0) << e;
    }
    // Pruning progresses between epochs, so the epochs are genuinely
    // different workloads (guards against comparing a constant).
    EXPECT_NE(p.sims[0].total.macsRetired, p.sims[1].total.macsRetired);
}

TEST(TraceSim, DoubleBufferAndRefillEpochInvariants)
{
    // The db+refill co-run of every traced epoch obeys the full
    // accounting contract, is never slower than the serial co-run on
    // compute+drain terms, keeps the per-bank traffic image identical,
    // and charges a genuinely positive refill demand from the measured
    // bytes. The refill-aware analytic reference also grows, keeping
    // the ratio meaningful.
    const TracePipeline &p = sharedPipeline();
    ASSERT_EQ(p.sims.size(), p.dbSims.size());
    for (size_t e = 0; e < p.sims.size(); ++e) {
        const TraceSimResult &serial = p.sims[e];
        const TraceSimResult &db = p.dbSims[e];
        expectCycleContract(db.total);
        EXPECT_GT(db.total.overlappedDrainCycles, 0) << e;
        EXPECT_GT(db.total.dramRefillCycles, 0) << e;
        // Same waves, same compute and drain demand, same traffic —
        // only the clocking differs.
        EXPECT_EQ(db.total.computeCycles, serial.total.computeCycles)
            << e;
        EXPECT_EQ(db.total.drainCycles, serial.total.drainCycles) << e;
        EXPECT_EQ(db.total.macsRetired, serial.total.macsRetired) << e;
        EXPECT_EQ(db.total.glbBankReads, serial.total.glbBankReads)
            << e;
        EXPECT_EQ(db.total.glbBankWrites, serial.total.glbBankWrites)
            << e;
        // Net of the refill stall, double-buffering never loses to
        // serial drain.
        EXPECT_LE(db.total.cycles - db.total.dramStallCycles,
                  serial.total.cycles)
            << e;
        // With overlap on, cross-boundary hidden cycles are
        // attributed to the total only: phases bound it from above.
        EXPECT_LE(db.total.cycles - db.total.dramStallCycles,
                  db.fw.cycles + db.bw.cycles + db.wu.cycles)
            << e;
        // Refill makes the analytic reference a max(compute, refill)
        // bound: at least the compute-only reference.
        EXPECT_GE(db.analyticRefCycles, db.analyticComputeCycles) << e;
        EXPECT_GT(db.analyticCycleRatio, 0.0) << e;
    }
}

TEST(TraceSim, PrebuiltPlanMatchesDirectEpochSimulation)
{
    // buildEpochWavePlan + simulateEpochPlan is the sweep-facing split
    // of simulateTraceEpoch: under any config (here db+refill) the two
    // paths must agree bitwise, or cached-geometry sweeps would drift
    // from the co-run they claim to re-clock.
    const TracePipeline &p = sharedPipeline();
    const arch::Accelerator acc = arch::Accelerator::procrustes();
    const arch::EpochTrace &et = p.trace.epoch(0);
    const EpochWavePlan plan = buildEpochWavePlan(
        et, acc.mapping(), acc.costModel().config(),
        acc.costModel().options().balance);
    EXPECT_EQ(plan.order.size(), 3 * et.layers.size());
    for (const SimConfig &cfg :
         {SimConfig{}, dbRefillConfig()}) {
        const TraceSimResult direct = simulateTraceEpoch(
            et, acc.mapping(), acc.costModel().config(), cfg,
            acc.costModel().options().balance);
        const TraceSimResult replay = simulateEpochPlan(plan, cfg);
        EXPECT_EQ(direct.total.cycles, replay.total.cycles);
        EXPECT_EQ(direct.total.overlappedDrainCycles,
                  replay.total.overlappedDrainCycles);
        EXPECT_EQ(direct.total.dramStallCycles,
                  replay.total.dramStallCycles);
        EXPECT_EQ(direct.fw.cycles, replay.fw.cycles);
        EXPECT_EQ(direct.bw.cycles, replay.bw.cycles);
        EXPECT_EQ(direct.wu.cycles, replay.wu.cycles);
        EXPECT_EQ(direct.total.glbBankReads, replay.total.glbBankReads);
        EXPECT_EQ(direct.total.glbBankWrites,
                  replay.total.glbBankWrites);
    }
}

TEST(TraceSim, UncontendedConvLayersMatchAnalyticPerWave)
{
    // The analytic model evaluates a traced layer from the same wave
    // plan the simulator clocks, so the profile path's exact per-wave
    // agreement holds on the trace path too, in every phase of both
    // epochs. The fc head is left out: its 8 -> 4 forward wave is so
    // short that operand delivery, not MACs, sets its length (even
    // uncontended, 7 simulated cycles against 4 analytic in epoch 0,
    // 5 against 2 in epoch 1), which the analytic model does not
    // claim to price.
    const TracePipeline &p = sharedPipeline();
    const arch::Accelerator acc = arch::Accelerator::procrustes();
    const arch::CostModel &model = acc.costModel();
    const SimConfig scfg = uncontendedConfig();
    int checked = 0;
    for (size_t e = 0; e < p.trace.epochCount(); ++e) {
        const arch::EpochTrace &et = p.trace.epoch(e);
        for (const arch::LayerTrace &l : et.layers) {
            if (l.shape.type != arch::LayerType::Conv)
                continue;
            for (Phase phase : {Phase::Forward, Phase::Backward,
                                Phase::WeightUpdate}) {
                const double analytic =
                    model
                        .evaluatePhase(l, l.weightDensity(), phase,
                                       acc.mapping(), et.batchSize)
                        .computeCycles;
                const size_t waves =
                    arch::planWaves(l, phase, acc.mapping(),
                                    et.batchSize, model.config())
                        .waves.size();
                const SimResult sim = simulateTraceLayerPhase(
                    l, phase, acc.mapping(), et.batchSize,
                    model.config(), scfg, model.options().balance);
                EXPECT_LE(std::abs(static_cast<double>(sim.computeCycles) -
                                   analytic),
                          static_cast<double>(waves))
                    << "epoch " << e << " " << l.name << " phase "
                    << static_cast<int>(phase) << ": simulated "
                    << sim.computeCycles << ", analytic " << analytic;
                ++checked;
            }
        }
    }
    EXPECT_EQ(checked, 6);   // conv1, three phases, two epochs
}

TEST(TraceSim, DeadSamplesCostNothingInBothModels)
{
    // Three of four samples enter the layer all zero. The analytic
    // weight update must see them as the simulator does: idle slots
    // with no floor density, so both charge the one live sample's
    // work and nothing else.
    nn::StepTelemetry t;
    t.epoch = 0;
    t.step = 0;
    t.batchSize = 4;
    nn::LayerStepReport r;
    r.layerName = "conv";
    r.kind = nn::LayerStepReport::Kind::Conv;
    r.batch = 4;
    r.K = 20;
    r.C = 6;
    r.R = 3;
    r.S = 3;
    r.P = 10;
    r.Q = 10;
    r.hasMacs = true;
    r.sparseExecuted = true;
    r.hasMask = true;
    r.mask = sparse::SparsityMask::dense(20, 6, 3, 3);
    r.inputDensity = 0.9 / 4.0;
    r.inputSampleDensity = {0.0, 0.0, 0.0, 0.9};
    r.inputSampleHalfDensity = {0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.45, 0.45};
    t.reports.push_back(std::move(r));
    arch::WorkloadTrace trace;
    trace.observe(t);

    const arch::Accelerator acc = arch::Accelerator::procrustes();
    const arch::NetworkCost cost = acc.evaluateTrace(trace, 0);
    const SimResult sim = simulateTraceLayerPhase(
        trace.epoch(0).layers[0], Phase::WeightUpdate, acc.mapping(), 4,
        acc.costModel().config(), uncontendedConfig(),
        acc.costModel().options().balance);
    EXPECT_GT(sim.computeCycles, 0);
    EXPECT_EQ(cost.wu.computeCycles, static_cast<double>(sim.computeCycles));
}

/** Restores the process-wide pool to its env-resolved size on exit. */
struct GlobalPoolGuard
{
    ~GlobalPoolGuard() { ThreadPool::resetGlobal(0); }
};

void
expectSimResultsIdentical(const SimResult &a, const SimResult &b,
                          int threads)
{
    EXPECT_EQ(a.cycles, b.cycles) << threads;
    EXPECT_EQ(a.computeCycles, b.computeCycles) << threads;
    EXPECT_EQ(a.stallCycles, b.stallCycles) << threads;
    EXPECT_EQ(a.macsRetired, b.macsRetired) << threads;
    EXPECT_EQ(a.drainCycles, b.drainCycles) << threads;
    EXPECT_EQ(a.overlappedDrainCycles, b.overlappedDrainCycles)
        << threads;
    EXPECT_EQ(a.glbConflictCycles, b.glbConflictCycles) << threads;
    EXPECT_EQ(a.glbConflicts, b.glbConflicts) << threads;
    EXPECT_EQ(a.fifoBackpressureCycles, b.fifoBackpressureCycles)
        << threads;
    EXPECT_EQ(a.dramRefillCycles, b.dramRefillCycles) << threads;
    EXPECT_EQ(a.dramStallCycles, b.dramStallCycles) << threads;
    EXPECT_EQ(a.glbBankReads, b.glbBankReads) << threads;
    EXPECT_EQ(a.glbBankWrites, b.glbBankWrites) << threads;
}

TEST(TraceSim, ThreadSweepBitwiseIdenticalAcrossThreadCounts)
{
    // The whole trace-driven co-simulation — training on the CSB
    // executors, telemetry aggregation, and the cycle-level replay —
    // must be bitwise invariant to the thread-pool size.
    GlobalPoolGuard guard;
    ThreadPool::resetGlobal(1);
    const TracePipeline ref = runTraceSimPipeline();
    ASSERT_EQ(ref.sims.size(), 2u);

    for (int threads : {2, 3, 8}) {
        ThreadPool::resetGlobal(threads);
        ASSERT_EQ(ThreadPool::global().numThreads(), threads);
        const TracePipeline got = runTraceSimPipeline();
        ASSERT_EQ(got.sims.size(), ref.sims.size());
        ASSERT_EQ(got.dbSims.size(), ref.dbSims.size());
        for (size_t e = 0; e < ref.sims.size(); ++e) {
            expectSimResultsIdentical(got.sims[e].total,
                                      ref.sims[e].total, threads);
            expectSimResultsIdentical(got.sims[e].fw, ref.sims[e].fw,
                                      threads);
            expectSimResultsIdentical(got.sims[e].bw, ref.sims[e].bw,
                                      threads);
            expectSimResultsIdentical(got.sims[e].wu, ref.sims[e].wu,
                                      threads);
            // The overlap chain and refill accounting must be just as
            // thread-count-invariant as the serial path.
            expectSimResultsIdentical(got.dbSims[e].total,
                                      ref.dbSims[e].total, threads);
            EXPECT_EQ(got.sims[e].analyticComputeCycles,
                      ref.sims[e].analyticComputeCycles)
                << threads;
            EXPECT_EQ(got.sims[e].analyticCycleRatio,
                      ref.sims[e].analyticCycleRatio)
                << threads;
            EXPECT_EQ(got.dbSims[e].analyticRefCycles,
                      ref.dbSims[e].analyticRefCycles)
                << threads;
            EXPECT_EQ(got.dbSims[e].analyticCycleRatio,
                      ref.dbSims[e].analyticCycleRatio)
                << threads;
        }
    }
}

} // namespace
} // namespace sim
} // namespace procrustes
