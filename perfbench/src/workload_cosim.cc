/**
 * @file
 * cosim_sweep: replay a measured training trace through the analytic
 * accelerator model and the cycle-level simulator.
 *
 * Set-up trains the train_sparse net (CSB backend, gradual magnitude
 * pruning) for four epochs whose epoch-final weight density falls
 * 1.0 -> 0.5 -> 0.25 -> 0.2, recording an arch::WorkloadTrace. The
 * inputs are 16x16 rather than 32x32: simulated work per sample scales
 * with the output plane, and at 32x32 one sweep point costs ~0.65 s of
 * host time, too coarse for a ten-second run. The timed part has two
 * phases:
 *
 *  - analytic (a quarter of the time): Accelerator::evaluateTrace plus
 *    arch::measuredEpochImbalance for procrustes() and denseBaseline()
 *    on every epoch, the evaluations of a pass fanned out over the
 *    pool. The op is one such model evaluation.
 *  - cycle-level (the rest): per epoch, sim::buildEpochWavePlan once,
 *    then sim::simulateEpochPlan under four SimConfigs (serial vs
 *    double-buffered drain x DRAM refill off / on), cycling over the
 *    epochs. Throughput is simulated cycles per host second.
 *
 * Every revisit of an (epoch, machine) or (epoch, SimConfig) point must
 * reproduce the first visit's counts exactly.
 */

#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <utility>

#include "arch/accelerator.h"
#include "arch/trace_imbalance.h"
#include "arch/workload_trace.h"
#include "bench.h"
#include "common/thread_pool.h"
#include "sim/cycle_sim.h"
#include "sparse/gradual_pruning.h"

namespace perfbench {

namespace arch = procrustes::arch;
namespace nn = procrustes::nn;
namespace sim = procrustes::sim;
namespace sparse = procrustes::sparse;

namespace {

constexpr int64_t kTraceBatch = 8;
constexpr int64_t kTraceSide = 16;

std::unique_ptr<arch::WorkloadTrace>
captureTrace(const Options &o)
{
    auto data = blobData(o.seed, kTraceSide, o.smoke ? 2 : 8, 4);
    nn::Network net;
    buildCnn(net, mainNet(/*sparse=*/true), o.seed, nullptr);
    // One pruning event early in every epoch after the first.
    const int64_t steps_per_epoch = data.first.size() / kTraceBatch;
    sparse::GradualPruningConfig pc;
    pc.targetSparsity = 5.0;
    pc.lr = 0.2f;
    pc.pruneFraction = 0.5;
    pc.warmupIterations = steps_per_epoch + 1;
    pc.pruneInterval = steps_per_epoch;
    sparse::GradualMagnitudePruningOptimizer opt(pc);
    nn::TrainConfig tc;
    tc.epochs = o.smoke ? 2 : 4;
    tc.batchSize = kTraceBatch;
    tc.shuffleSeed = o.seed;
    auto trace = std::make_unique<arch::WorkloadTrace>();
    nn::trainNetwork(net, opt, data.first, data.second, tc,
                     trace->observer());
    return trace;
}

/** What an analytic evaluation produced (must repeat bitwise). */
struct EvalFacts
{
    double cycles = 0.0;
    double computeCycles = 0.0;
    double energy = 0.0;
    double unbalanced = 0.0;
    double balanced = 0.0;

    bool
    operator==(const EvalFacts &o) const
    {
        return sameBits(cycles, o.cycles) &&
               sameBits(computeCycles, o.computeCycles) &&
               sameBits(energy, o.energy) &&
               sameBits(unbalanced, o.unbalanced) &&
               sameBits(balanced, o.balanced);
    }
};

/** What a sweep point produced (must repeat exactly). */
struct PointFacts
{
    int64_t cycles = 0, macs = 0, glbConflicts = 0, overlapped = 0;
    int64_t waves = 0;

    bool
    operator==(const PointFacts &o) const
    {
        return cycles == o.cycles && macs == o.macs &&
               glbConflicts == o.glbConflicts &&
               overlapped == o.overlapped && waves == o.waves;
    }
};

/** The sweep's machines and SimConfigs. */
struct Sweep
{
    arch::Accelerator machines[2] = {arch::Accelerator::procrustes(),
                                     arch::Accelerator::denseBaseline()};
    std::vector<sim::SimConfig> configs;

    Sweep()
    {
        const double dram =
            machines[0].costModel().config().dramWordsPerCycle();
        for (bool db : {false, true}) {
            for (double rate : {0.0, dram}) {
                sim::SimConfig c;
                c.doubleBufferOutputs = db;
                c.dramWordsPerCycle = rate;
                configs.push_back(c);
            }
        }
    }
};

/** Host time and first-visit facts of one measured phase pair. */
struct CosimLog
{
    std::vector<double> evalMs;     //!< one per model evaluation
    std::vector<double> evalCpuMs;  //!< the same, thread CPU time
    std::vector<double> analyticPassCpuMs;   //!< process CPU per pass
    double evaluateMs = 0.0;        //!< evaluateTrace share of evalMs
    double imbalanceMs = 0.0;       //!< measuredEpochImbalance share
    std::vector<double> pointMs;    //!< one per sweep point
    double planMs = 0.0;
    int64_t plans = 0;
    std::vector<double> passCycles; //!< simulated cycles per sweep pass
    std::vector<double> passCpuMs;  //!< process CPU ms per pass
};

/** First-visit facts, shared by the untraced and traced phases. */
struct Reference
{
    std::map<std::pair<size_t, int>, EvalFacts> evals;
    std::map<std::pair<size_t, size_t>, PointFacts> points;
};

/** One model evaluation as a pool task saw it. */
struct EvalSlot
{
    EvalFacts facts;
    double t0 = 0.0, t1 = 0.0, t2 = 0.0;   //!< tracer-clock ms
    double cpuMs = 0.0;                    //!< thread CPU time
};

/**
 * One analytic pass: every (epoch, machine) evaluation of the trace,
 * fanned out as independent tasks over the shared pool the way a
 * design-space sweep would run them. Each task times its own
 * evaluation, so the op samples land on every pool thread in every
 * run; the tracer (single-threaded) records them afterwards.
 */
void
analyticPass(const arch::WorkloadTrace &trace, const Sweep &sw,
             Tracer *tracer, Reference *ref, CosimLog *log, RunResult *res)
{
    const Tracer local;   // timestamps for untraced passes
    const Tracer &clock = tracer ? *tracer : local;
    const int64_t n = static_cast<int64_t>(trace.epochCount()) * 2;
    std::vector<EvalSlot> slots(static_cast<size_t>(n));
    const int pass =
        tracer && tracer->active() ? tracer->open("arch.pass") : -1;
    const double c0 = processCpuMs();
    procrustes::ThreadPool::global().parallelFor(
        0, n, [&](int64_t begin, int64_t end) {
            for (int64_t i = begin; i < end; ++i) {
                EvalSlot &s = slots[static_cast<size_t>(i)];
                const auto e = static_cast<size_t>(i / 2);
                const arch::Accelerator &acc = sw.machines[i % 2];
                const double cpu0 = threadCpuMs();
                s.t0 = clock.nowMs();
                const arch::NetworkCost cost = acc.evaluateTrace(trace, e);
                s.t1 = clock.nowMs();
                const arch::EpochImbalance imb =
                    arch::measuredEpochImbalance(
                        trace.epoch(e), acc.mapping(),
                        acc.costModel().config(),
                        acc.costModel().options().balance);
                s.t2 = clock.nowMs();
                s.cpuMs = threadCpuMs() - cpu0;
                s.facts = {cost.totalCycles(), cost.total().computeCycles,
                           cost.totalEnergyJ(), imb.unbalanced.meanOverhead,
                           imb.balanced.meanOverhead};
            }
        });
    log->analyticPassCpuMs.push_back(processCpuMs() - c0);

    for (int64_t i = 0; i < n; ++i) {
        const EvalSlot &s = slots[static_cast<size_t>(i)];
        if (pass >= 0) {
            tracer->add("arch.evaluate", s.t0, s.t1, pass);
            tracer->add("arch.imbalance", s.t1, s.t2, pass);
        }
        log->evaluateMs += s.t1 - s.t0;
        log->imbalanceMs += s.t2 - s.t1;
        log->evalMs.push_back(s.t2 - s.t0);
        log->evalCpuMs.push_back(s.cpuMs);
        res->attempted += 1;
        const EvalFacts &f = s.facts;
        res->check(std::isfinite(f.cycles) && f.cycles > 0.0 &&
                       f.balanced <= f.unbalanced,
                   1, "model evaluation out of range");
        const auto key = std::make_pair(static_cast<size_t>(i / 2),
                                        static_cast<int>(i % 2));
        const auto it = ref->evals.find(key);
        if (it == ref->evals.end())
            ref->evals.emplace(key, f);
        else
            res->check(it->second == f, 1,
                       "model evaluation did not repeat exactly");
    }
    if (pass >= 0)
        tracer->close(pass);
}

/** Clock epoch `e`'s plan under SimConfig `c` and check the counts. */
void
simPoint(const sim::EpochWavePlan &plan, const Sweep &sw, size_t e,
         size_t c, int64_t waves, Tracer *tracer, Reference *ref,
         CosimLog *log, RunResult *res)
{
    const Clock::time_point t0 = Clock::now();
    sim::TraceSimResult r;
    {
        ScopedSpan s(tracer, "sim.clock");
        r = sim::simulateEpochPlan(plan, sw.configs[c]);
    }
    log->pointMs.push_back(msBetween(t0, Clock::now()));
    res->attempted += 1;

    const sim::SimResult &t = r.total;
    res->check(t.cycles == t.computeCycles + t.drainCycles +
                               t.glbConflictCycles -
                               t.overlappedDrainCycles + t.dramStallCycles,
               1, "sweep point breaks the cycle identity");
    log->passCycles.back() += static_cast<double>(t.cycles);
    const PointFacts f{t.cycles, t.macsRetired, t.glbConflicts,
                       t.overlappedDrainCycles, waves};
    const auto it = ref->points.find({e, c});
    if (it == ref->points.end())
        ref->points.emplace(std::make_pair(e, c), f);
    else
        res->check(it->second == f, 1,
                   tracer ? "traced simulated counts differ from the "
                            "untraced run"
                          : "sweep point did not repeat exactly");
}

/** One sweep pass: per epoch, build the wave plan once, then clock it
    under every SimConfig. */
void
simPass(const arch::WorkloadTrace &trace, const Sweep &sw, Tracer *tracer,
        Reference *ref, CosimLog *log, RunResult *res)
{
    const arch::Accelerator &proc = sw.machines[0];
    log->passCycles.push_back(0.0);
    const double c0 = processCpuMs();
    for (size_t e = 0; e < trace.epochCount(); ++e) {
        const Clock::time_point p0 = Clock::now();
        sim::EpochWavePlan plan;
        {
            ScopedSpan s(tracer, "sim.plan");
            plan = sim::buildEpochWavePlan(
                trace.epoch(e), proc.mapping(), proc.costModel().config(),
                proc.costModel().options().balance);
        }
        log->planMs += msBetween(p0, Clock::now());
        ++log->plans;
        int64_t waves = 0;
        for (const sim::PhaseWavePlan &p : plan.order)
            waves += static_cast<int64_t>(p.waves.size());
        for (size_t c = 0; c < sw.configs.size(); ++c)
            simPoint(plan, sw, e, c, waves, tracer, ref, log, res);
    }
    log->passCpuMs.push_back(processCpuMs() - c0);
}

/**
 * Measure for `seconds`: a quarter in analytic passes, the rest in
 * whole sweep passes, so every run weighs the points alike. With a
 * tracer, every plain pass is followed by the same pass traced into
 * `tr`, so each traced sample has an untraced neighbour from the same
 * moment.
 */
void
measure(const arch::WorkloadTrace &trace, const Sweep &sw, double seconds,
        int64_t floor, Tracer *tracer, Reference *ref, CosimLog *base,
        CosimLog *tr, RunResult *res)
{
    Budget analytic(0.25 * seconds, floor);
    while (analytic.more(static_cast<int64_t>(base->evalMs.size()))) {
        analyticPass(trace, sw, nullptr, ref, base, res);
        if (!tracer)
            continue;
        tracer->setActive(true);
        analyticPass(trace, sw, tracer, ref, tr, res);
        tracer->setActive(false);
    }
    Budget sweep(0.75 * seconds, 1);
    while (sweep.more(static_cast<int64_t>(base->passCpuMs.size()))) {
        simPass(trace, sw, nullptr, ref, base, res);
        if (!tracer)
            continue;
        tracer->setActive(true);
        simPass(trace, sw, tracer, ref, tr, res);
        tracer->setActive(false);
    }
}

} // namespace

void
runCosim(const Options &o, RunResult *res)
{
    const int reps = o.smoke ? 1 : kSetupReps;
    std::unique_ptr<arch::WorkloadTrace> trace;
    for (int r = 0; r < reps; ++r) {
        const double c0 = processCpuMs();
        auto tr = captureTrace(o);
        res->setupS.push_back((processCpuMs() - c0) / 1000.0);
        if (r == 0) {
            trace = std::move(tr);
            continue;
        }
        const arch::EpochTrace &a = trace->lastEpoch();
        const arch::EpochTrace &b = tr->lastEpoch();
        res->check(sameBits(a.meanLoss, b.meanLoss) &&
                       a.totalCsbWeightBytes() == b.totalCsbWeightBytes(),
                   1, "set-up repetitions diverged");
    }
    // Quality guard: mean training loss over the captured epochs.
    for (size_t e = 0; e < trace->epochCount(); ++e)
        res->finalLoss += trace->epoch(e).meanLoss /
                          static_cast<double>(trace->epochCount());
    for (size_t e = 0; e < trace->epochCount(); ++e)
        std::fprintf(stderr, "trace epoch %zu: weight density %.4f, "
                             "loss %.4f\n",
                     e, trace->epoch(e).meanWeightDensity(),
                     trace->epoch(e).meanLoss);

    const Sweep sw;
    Reference ref;
    Tracer tracer;
    CosimLog base, tr;
    measure(*trace, sw, o.seconds, o.smoke || o.trace ? 1 : kMinOps,
            o.trace ? &tracer : nullptr, &ref, &base, &tr, res);
    res->opMs = base.evalCpuMs;
    // Simulated cycles per host CPU second at the median sweep pass.
    std::vector<double> pass_rate;
    for (size_t i = 0; i < base.passCpuMs.size(); ++i)
        pass_rate.push_back(base.passCycles[i] /
                            (base.passCpuMs[i] / 1000.0));
    res->workPerS = median(pass_rate);
    // Model evaluations per CPU second at the median fanned pass.
    res->auxPerS = static_cast<double>(base.evalMs.size()) /
                   static_cast<double>(base.analyticPassCpuMs.size()) /
                   (median(base.analyticPassCpuMs) / 1000.0);
    std::fprintf(stderr,
                 "cosim_sweep: %zu evaluations (p50 %.3f ms wall / %.3f "
                 "ms CPU), %zu sweep points (p50 %.1f ms), %.4g sim "
                 "cycles per CPU s\n",
                 base.evalMs.size(), median(base.evalMs),
                 median(base.evalCpuMs),
                 base.pointMs.size(), median(base.pointMs),
                 res->workPerS);
    if (!o.trace)
        return;

    // Per-piece host time: every (layer, phase) of the final epoch
    // simulated on its own under the default SimConfig. Serial drain
    // without refill makes the epoch total the plain sum of the pieces.
    const arch::Accelerator &proc = sw.machines[0];
    const size_t last = trace->epochCount() - 1;
    const arch::EpochTrace &et = trace->epoch(last);
    const char *tags[3] = {"fw", "bw", "wu"};
    const arch::Phase phases[3] = {arch::Phase::Forward,
                                   arch::Phase::Backward,
                                   arch::Phase::WeightUpdate};
    double piece_sum = 0.0, piece_max = 0.0;
    int64_t piece_cycles = 0;
    tracer.setActive(true);
    for (const arch::LayerTrace &layer : et.layers) {
        for (int p = 0; p < 3; ++p) {
            const Clock::time_point t0 = Clock::now();
            sim::SimResult r;
            {
                ScopedSpan s(&tracer, "sim.piece");
                r = sim::simulateTraceLayerPhase(
                    layer, phases[p], proc.mapping(), et.batchSize,
                    proc.costModel().config(), sim::SimConfig{},
                    proc.costModel().options().balance);
            }
            const double ms = msBetween(t0, Clock::now());
            res->layer("sim.piece." + layer.name + "." + tags[p] + "_ms",
                       ms, "ms");
            piece_sum += ms;
            piece_max = std::max(piece_max, ms);
            piece_cycles += r.cycles;
        }
    }
    tracer.setActive(false);
    const auto serial = ref.points.find({last, 0});
    if (serial != ref.points.end())
        res->check(piece_cycles == serial->second.cycles, 1,
                   "per-piece replay disagrees with the epoch plan");

    const double n_eval =
        std::max<double>(1.0, static_cast<double>(tr.evalMs.size()));
    res->layer("arch.evaluate_ms", tr.evaluateMs / n_eval, "ms");
    res->layer("arch.imbalance_ms", tr.imbalanceMs / n_eval, "ms");
    const auto p_eval = ref.evals.find({last, 0});
    const auto d_eval = ref.evals.find({last, 1});
    if (p_eval != ref.evals.end() && d_eval != ref.evals.end()) {
        res->layer("arch.speedup_vs_dense",
                   d_eval->second.cycles / p_eval->second.cycles, "x");
        res->layer("arch.energy_ratio",
                   d_eval->second.energy / p_eval->second.energy, "x");
        res->layer("arch.procrustes_cycles", p_eval->second.cycles, "count");
        if (serial != ref.points.end())
            res->layer("sim.analytic_cycle_ratio",
                       static_cast<double>(serial->second.cycles) /
                           p_eval->second.computeCycles,
                       "x");
    }

    // Simulated counts of one full pass over the sweep (first visits).
    PointFacts pass;
    for (const auto &kv : ref.points) {
        pass.cycles += kv.second.cycles;
        pass.macs += kv.second.macs;
        pass.glbConflicts += kv.second.glbConflicts;
        pass.overlapped += kv.second.overlapped;
        if (kv.first.second == 0)
            pass.waves += kv.second.waves;
    }
    res->layer("sim.cycles", static_cast<double>(pass.cycles), "count");
    res->layer("sim.waves", static_cast<double>(pass.waves), "count");
    res->layer("sim.macs_retired", static_cast<double>(pass.macs), "count");
    res->layer("sim.glb_conflicts", static_cast<double>(pass.glbConflicts),
               "count");
    res->layer("sim.overlapped_drain_cycles",
               static_cast<double>(pass.overlapped), "count");
    res->layer("sim.plan_ms", tr.planMs / std::max<int64_t>(tr.plans, 1),
               "ms");
    res->layer("sim.clock_ms",
               sum(tr.pointMs) /
                   std::max<double>(1.0,
                                    static_cast<double>(tr.pointMs.size())),
               "ms");
    res->layer("sim.piece_max_share",
               piece_sum > 0.0 ? piece_max / piece_sum : 0.0, "ratio");
    res->layer("trace_overhead", median(tr.pointMs) / median(base.pointMs),
               "x");

    finishTrace(tracer, o);
}

} // namespace perfbench
