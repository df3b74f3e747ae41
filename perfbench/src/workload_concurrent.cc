/**
 * @file
 * concurrent: the nn / kernels code under job-level parallelism, with
 * writes (checkpoints) beside reads.
 *
 * Four serve::TrainingJob tenants — a small sparse CNN on 16x16 blob
 * images, two gradual-pruning schedules and two momentum settings —
 * run fair-share epoch rounds under serve::JobScheduler for most of
 * the time. After every round each tenant is checkpointed and restored
 * into its shadow job, one round trip after the other (the op is one
 * round trip), and one shadow restored the round before replays the
 * round and must match its tenant bit for bit. The rest of the time
 * repeats one 4-shard scaleout::trainSharded run, which must reproduce
 * its first run's weights exactly.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "scaleout/shard_engine.h"
#include "serve/job_scheduler.h"
#include "serve/training_job.h"
#include "sparse/gradual_pruning.h"

namespace perfbench {

namespace nn = procrustes::nn;
namespace scaleout = procrustes::scaleout;
namespace serve = procrustes::serve;
namespace sparse = procrustes::sparse;

namespace {

constexpr int kTenants = 4;
constexpr int64_t kBatch = 32;

CnnSpec
tenantNet()
{
    CnnSpec s;
    s.convs = {{8, 1}, {16, 2}};
    s.sparse = true;
    return s;
}

serve::OptimizerFactory
tenantOptimizer(int j)
{
    switch (j) {
    case 0:
        return [] {
            sparse::GradualPruningConfig pc;
            pc.targetSparsity = 4.0;
            pc.lr = 0.08f;
            pc.warmupIterations = 10;
            pc.pruneInterval = 5;
            pc.pruneFraction = 0.25;
            return std::make_unique<
                sparse::GradualMagnitudePruningOptimizer>(pc);
        };
    case 1:
        return [] {
            sparse::GradualPruningConfig pc;
            pc.targetSparsity = 6.0;
            pc.lr = 0.08f;
            pc.warmupIterations = 6;
            pc.pruneInterval = 3;
            pc.pruneFraction = 0.4;
            return std::make_unique<
                sparse::GradualMagnitudePruningOptimizer>(pc);
        };
    case 2:
        return [] { return std::make_unique<nn::Sgd>(0.05f, 0.9f); };
    default:
        return [] { return std::make_unique<nn::Sgd>(0.05f, 0.5f); };
    }
}

/** One independently set-up service instance. */
struct ServiceRig
{
    nn::Dataset train;
    nn::Dataset val;
    serve::JobScheduler sched;
    serve::TrainingJob *tenants[kTenants] = {};
    std::unique_ptr<serve::TrainingJob> shadows[kTenants];
};

std::unique_ptr<serve::TrainingJob>
makeJob(const Options &o, int j, const ServiceRig &rig)
{
    serve::JobConfig jc;
    jc.name = "tenant" + std::to_string(j);
    jc.epochs = int64_t{1} << 40;   // never finishes inside a run
    jc.batchSize = kBatch;
    jc.shuffleSeed = o.seed * 16 + 8 + static_cast<uint64_t>(j);
    const uint64_t net_seed = o.seed * 16 + static_cast<uint64_t>(j);
    return std::make_unique<serve::TrainingJob>(
        jc,
        [net_seed](nn::Network &net) {
            buildCnn(net, tenantNet(), net_seed, nullptr);
        },
        tenantOptimizer(j), &rig.train, &rig.val);
}

/** Build tenants and shadows, run three warm-up rounds and one warm-up
    checkpoint round trip per tenant (first calls are the slow ones). */
std::unique_ptr<ServiceRig>
setUp(const Options &o)
{
    auto rig = std::make_unique<ServiceRig>();
    auto data = blobData(o.seed, 16, o.smoke ? 4 : 16, o.smoke ? 2 : 8);
    rig->train = std::move(data.first);
    rig->val = std::move(data.second);
    for (int j = 0; j < kTenants; ++j) {
        rig->tenants[j] = rig->sched.addJob(makeJob(o, j, *rig));
        rig->shadows[j] = makeJob(o, j, *rig);
    }
    for (int r = 0; r < 3; ++r)
        rig->sched.runRound();
    for (int j = 0; j < kTenants; ++j)
        rig->shadows[j]->restore(rig->tenants[j]->checkpoint());
    return rig;
}

scaleout::ShardTrainResult
runSharded(const Options &o, const ServiceRig &rig)
{
    scaleout::ShardTrainConfig cfg;
    cfg.shards = 4;
    cfg.epochs = 2;
    cfg.batchSize = kBatch;
    cfg.sliceSamples = 8;
    cfg.shuffleSeed = o.seed;
    const uint64_t net_seed = o.seed * 16 + 15;
    return scaleout::trainSharded(
        [net_seed](nn::Network &net) {
            buildCnn(net, tenantNet(), net_seed, nullptr);
        },
        [] {
            sparse::GradualPruningConfig pc;
            pc.targetSparsity = 4.0;
            pc.lr = 0.08f;
            pc.warmupIterations = 2;
            pc.pruneInterval = 2;
            pc.pruneFraction = 0.5;
            return std::make_unique<
                sparse::GradualMagnitudePruningOptimizer>(pc);
        },
        rig.train, rig.val, cfg);
}

/** What the measured rounds and sharded runs of one rig recorded. */
struct ServiceLog
{
    std::vector<double> roundMs;
    std::vector<double> roundCpuMs;
    std::vector<double> checkpointMs;
    std::vector<double> restoreMs;
    std::vector<double> roundTripMs;
    std::vector<double> roundTripCpuMs;
    std::vector<double> tenantLoss;   //!< per round, per tenant
    int64_t tenantSamples = 0;
    int64_t maxSpread = 0;
    double checkpointBytes = 0.0;
    std::vector<double> shardedMs;
    std::vector<double> shardedCpuMs;
    int64_t shardedSamples = 0;
    scaleout::ShardTrainResult firstSharded;
};

/**
 * One scheduler round on `rig`, the replay of the shadow restored
 * before it, then a checkpoint round trip into every shadow.
 */
void
serviceRound(ServiceRig &rig, Tracer *tracer, ServiceLog *log,
             RunResult *res)
{
    const size_t r = log->roundMs.size();
    const double cpu0 = processCpuMs();
    const Clock::time_point t0 = Clock::now();
    {
        ScopedSpan s(tracer, "serve.round");
        rig.sched.runRound();
    }
    log->roundMs.push_back(msBetween(t0, Clock::now()));
    log->roundCpuMs.push_back(processCpuMs() - cpu0);
    res->attempted += 1;
    int64_t lo = rig.tenants[0]->epochsCompleted(), hi = lo;
    for (serve::TrainingJob *job : rig.tenants) {
        lo = std::min(lo, job->epochsCompleted());
        hi = std::max(hi, job->epochsCompleted());
        log->tenantLoss.push_back(job->history().back().trainLoss);
        res->check(std::isfinite(job->history().back().trainLoss), 1,
                   "non-finite tenant loss");
    }
    log->tenantSamples += kTenants * rig.train.size();
    log->maxSpread = std::max(log->maxSpread, hi - lo);
    res->check(hi - lo <= 1, 1, "tenant epoch spread exceeds one");

    // The shadows were all restored after the previous round; one of
    // them, in turn, replays this round.
    if (r > 0) {
        const size_t j = (r - 1) % kTenants;
        serve::TrainingJob &shadow = *rig.shadows[j];
        serve::TrainingJob &orig = *rig.tenants[j];
        {
            ScopedSpan s(tracer, "serve.shadow_epoch");
            shadow.runEpoch();
        }
        res->check(sameParams(shadow.network(), orig.network()) &&
                       sameBits(shadow.history().back().trainLoss,
                                orig.history().back().trainLoss),
                   1, "restored shadow tenant diverged from its original");
    }
    // Snapshot every tenant into its shadow, one round trip after the
    // other on this thread, so none of them competes with another for
    // caches or memory bandwidth.
    ScopedSpan trips(tracer, "serve.round_trips");
    for (int j = 0; j < kTenants; ++j) {
        const double cpu0 = threadCpuMs();
        const Clock::time_point t0 = Clock::now();
        std::vector<uint8_t> blob;
        {
            ScopedSpan s(tracer, "serve.checkpoint");
            blob = rig.tenants[j]->checkpoint();
        }
        const Clock::time_point t1 = Clock::now();
        {
            ScopedSpan s(tracer, "serve.restore");
            rig.shadows[j]->restore(blob);
        }
        const Clock::time_point t2 = Clock::now();
        log->roundTripCpuMs.push_back(threadCpuMs() - cpu0);
        log->checkpointMs.push_back(msBetween(t0, t1));
        log->restoreMs.push_back(msBetween(t1, t2));
        log->roundTripMs.push_back(msBetween(t0, t2));
        log->checkpointBytes = static_cast<double>(blob.size());
        res->attempted += 1;
    }
}

/** One 4-shard run; every repeat must reproduce the first's weights. */
void
shardedRun(const Options &o, const ServiceRig &rig, Tracer *tracer,
           ServiceLog *log, RunResult *res)
{
    const double cpu0 = processCpuMs();
    const Clock::time_point t0 = Clock::now();
    scaleout::ShardTrainResult out;
    {
        ScopedSpan s(tracer, "scaleout.train_sharded");
        out = runSharded(o, rig);
    }
    log->shardedMs.push_back(msBetween(t0, Clock::now()));
    log->shardedCpuMs.push_back(processCpuMs() - cpu0);
    log->shardedSamples +=
        static_cast<int64_t>(out.history.size()) * rig.train.size();
    res->attempted += 1;
    if (log->shardedMs.size() == 1)
        log->firstSharded = std::move(out);
    else
        res->check(sameTensors(out.finalWeights,
                               log->firstSharded.finalWeights),
                   1, "sharded run did not repeat exactly");
}

/**
 * Measure for `seconds`: 70% in rounds, the rest in sharded runs. With
 * a traced rig, every plain round or run is followed by the same one
 * traced into `tr`, so each traced sample has an untraced neighbour
 * from the same moment.
 */
void
measure(const Options &o, ServiceRig &plain, ServiceRig *traced,
        double seconds, int64_t floor, Tracer *tracer, ServiceLog *base,
        ServiceLog *tr, RunResult *res)
{
    Budget tenants(0.7 * seconds, floor);
    while (tenants.more(static_cast<int64_t>(base->roundTripMs.size()))) {
        serviceRound(plain, nullptr, base, res);
        if (!traced)
            continue;
        tracer->setActive(true);
        serviceRound(*traced, tracer, tr, res);
        tracer->setActive(false);
    }
    Budget shards(0.3 * seconds, 1);
    while (shards.more(static_cast<int64_t>(base->shardedMs.size()))) {
        shardedRun(o, plain, nullptr, base, res);
        if (!traced)
            continue;
        tracer->setActive(true);
        shardedRun(o, *traced, tracer, tr, res);
        tracer->setActive(false);
    }
}

} // namespace

void
runConcurrent(const Options &o, RunResult *res)
{
    const int reps = o.smoke ? (o.trace ? 2 : 1) : kSetupReps;
    std::unique_ptr<ServiceRig> plain, traced;
    for (int r = 0; r < reps; ++r) {
        const double c0 = processCpuMs();
        auto rig = setUp(o);
        res->setupS.push_back((processCpuMs() - c0) / 1000.0);
        if (r == 0) {
            plain = std::move(rig);
            continue;
        }
        bool same = true;
        for (int j = 0; j < kTenants; ++j)
            same = same && sameParams(plain->tenants[j]->network(),
                                      rig->tenants[j]->network());
        res->check(same, 1, "set-up repetitions diverged");
        if (r == 1 && o.trace)
            traced = std::move(rig);
    }

    Tracer tracer;
    ServiceLog base, tr;
    measure(o, *plain, traced.get(), o.seconds,
            o.smoke || o.trace ? 1 : kMinOps, &tracer, &base, &tr, res);
    // Throughputs per CPU second at the median round / sharded run:
    // every round trains one epoch per tenant, every sharded run the
    // same two epochs.
    res->opMs = base.roundTripCpuMs;
    res->workPerS = static_cast<double>(base.tenantSamples) /
                    static_cast<double>(base.roundCpuMs.size()) /
                    (median(base.roundCpuMs) / 1000.0);
    res->auxPerS = static_cast<double>(base.shardedSamples) /
                   static_cast<double>(base.shardedCpuMs.size()) /
                   (median(base.shardedCpuMs) / 1000.0);
    // Quality guard: tenant losses over the first rounds (fixed work).
    const size_t guard = std::min<size_t>(base.tenantLoss.size(),
                                          3 * kTenants);
    double loss = 0.0;
    for (size_t i = 0; i < guard; ++i)
        loss += base.tenantLoss[i];
    res->finalLoss = loss / static_cast<double>(guard);
    std::fprintf(stderr,
                 "concurrent: %zu rounds (p50 %.2f ms), %zu checkpoint "
                 "round trips (p50 %.4f ms), %zu sharded runs (p50 %.1f "
                 "ms), %.1f tenant / %.1f sharded samples per CPU s\n",
                 base.roundMs.size(), median(base.roundMs),
                 base.roundTripMs.size(), median(base.roundTripMs),
                 base.shardedMs.size(), median(base.shardedMs),
                 res->workPerS, res->auxPerS);
    if (!o.trace)
        return;

    for (size_t i = 0; i < tr.tenantLoss.size(); ++i)
        res->check(sameBits(base.tenantLoss[i], tr.tenantLoss[i]), 1,
                   "traced tenant trajectory differs from the untraced one");
    res->check(sameTensors(base.firstSharded.finalWeights,
                           tr.firstSharded.finalWeights),
               1, "traced sharded run differs from the untraced one");

    res->layer("serve.round_ms", median(tr.roundMs), "ms");
    res->layer("serve.checkpoint_ms", median(tr.checkpointMs), "ms");
    res->layer("serve.restore_ms", median(tr.restoreMs), "ms");
    res->layer("serve.checkpoint_bytes", tr.checkpointBytes, "B");
    res->layer("serve.max_epoch_spread", static_cast<double>(tr.maxSpread),
               "count");
    double compressed = 0.0, dense = 0.0;
    for (const scaleout::ShardEpochStats &e : tr.firstSharded.history) {
        compressed += static_cast<double>(e.exchange.compressedBytes);
        dense += static_cast<double>(e.exchange.denseBytes);
    }
    res->layer("scaleout.exchange_compressed_bytes", compressed, "B");
    res->layer("scaleout.exchange_dense_bytes", dense, "B");
    res->layer("scaleout.exchange_ratio", dense > 0 ? compressed / dense : 0,
               "ratio");
    res->layer("scaleout.sharded_ms", median(tr.shardedMs), "ms");
    res->layer("trace_overhead",
               median(tr.roundTripMs) / median(base.roundTripMs), "x");
    finishTrace(tracer, o);
}

} // namespace perfbench
