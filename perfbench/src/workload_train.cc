/**
 * @file
 * train_sparse / train_dense: steady-state nn::trainNetwork steps of
 * the five-conv blob-image CNN.
 *
 * train_sparse runs conv and fc layers on the CSB sparse backend under
 * GradualMagnitudePruningOptimizer, pruned to weight density 0.2
 * during set-up; train_dense runs the same net, data and seed on the
 * gemm backend with momentum SGD. The timed loop calls trainNetwork
 * one epoch at a time (a fresh shuffle seed per epoch), so every
 * step's latency and every epoch's validation tail are separable. The
 * op is one training step.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>

#include "bench.h"
#include "nn/trainer.h"
#include "sparse/gradual_pruning.h"

namespace perfbench {

namespace nn = procrustes::nn;
namespace sparse = procrustes::sparse;

namespace {

constexpr int64_t kBatch = 32;

/** One independently set-up training instance. */
struct TrainRig
{
    nn::Dataset train;
    nn::Dataset val;
    nn::Network net;
    std::unique_ptr<nn::Optimizer> opt;
    sparse::GradualMagnitudePruningOptimizer *pruner = nullptr;
    std::unique_ptr<StepClock> clock;
};

/** Build, initialize and train the set-up epoch (prunes to 0.2). */
std::unique_ptr<TrainRig>
setUp(const Options &o, bool use_sparse, Tracer *tracer)
{
    auto rig = std::make_unique<TrainRig>();
    auto data = blobData(o.seed, 32, o.smoke ? 8 : 32, o.smoke ? 4 : 16);
    rig->train = std::move(data.first);
    rig->val = std::move(data.second);
    buildCnn(rig->net, mainNet(use_sparse), o.seed, tracer);
    if (use_sparse) {
        // Three pruning events in the first ten steps: 1.0 -> 0.5 ->
        // 0.25 -> 0.2 (the target clamps the last one).
        sparse::GradualPruningConfig pc;
        pc.targetSparsity = 5.0;
        pc.lr = 0.2f;
        pc.warmupIterations = o.smoke ? 1 : 4;
        pc.pruneInterval = o.smoke ? 1 : 2;
        pc.pruneFraction = 0.5;
        auto pruner =
            std::make_unique<sparse::GradualMagnitudePruningOptimizer>(pc);
        rig->pruner = pruner.get();
        rig->opt = std::move(pruner);
    } else {
        rig->opt = std::make_unique<nn::Sgd>(0.05f, 0.9f);
    }
    rig->clock = std::make_unique<StepClock>(*rig->opt, tracer);
    nn::TrainConfig tc;
    tc.epochs = 1;
    tc.batchSize = kBatch;
    tc.shuffleSeed = o.seed;
    nn::trainNetwork(rig->net, *rig->opt, rig->train, rig->val, tc);
    return rig;
}

/** What the measured epochs of one rig recorded. */
struct PhaseLog
{
    std::vector<double> stepMs;
    std::vector<double> stepCpuMs;
    std::vector<double> validateMs;
    std::vector<double> validateCpuMs;
    std::vector<nn::EpochStats> epochs;
    std::vector<int64_t> epochSteps;
    std::vector<double> epochMs;   //!< whole trainNetwork call
    std::vector<double> epochCpuMs;
    double maxTilingGapMs = 0.0;   //!< worst epoch's untiled time
};

/** Expected live fraction once the pruner has reached its target. */
double
targetDensity(TrainRig &rig)
{
    if (!rig.pruner)
        return 1.0;
    const double total =
        static_cast<double>(rig.net.prunableParamCount());
    return std::ceil(total / rig.pruner->config().targetSparsity) / total;
}

/** Untiled time allowed in an epoch of `epoch_ms`: clock reads and
    span bookkeeping between steps take microseconds, but a thread
    descheduled inside one of those windows loses milliseconds. A step
    missing from the tiling costs a whole step (tens of ms). */
double
tilingToleranceMs(double epoch_ms)
{
    return 0.2 + 0.01 * epoch_ms;
}

/**
 * Timed epoch `k` of `rig`: one trainNetwork call with a fresh shuffle
 * seed per epoch, so every rig sees the same epoch sequence. Checks
 * the loss and the density, and that the steps, the validation tail
 * and the telemetry callbacks tile the call as an outer clock saw it.
 */
void
runEpoch(TrainRig &rig, const Options &o, int64_t k, PhaseLog *log,
         RunResult *res)
{
    nn::TrainConfig tc;
    tc.epochs = 1;
    tc.batchSize = kBatch;
    tc.shuffleSeed = o.seed * 1000003u + static_cast<uint64_t>(k) + 1;
    const double c0 = processCpuMs();
    const Clock::time_point t0 = Clock::now();
    rig.clock->beginEpoch();
    const auto hist =
        nn::trainNetwork(rig.net, *rig.clock, rig.train, rig.val, tc);
    const double tail = rig.clock->endEpoch();
    const double epoch_ms = msBetween(t0, Clock::now());
    log->epochCpuMs.push_back(processCpuMs() - c0);
    log->validateMs.push_back(tail);
    log->validateCpuMs.push_back(rig.clock->tailCpuMs());
    log->epochMs.push_back(epoch_ms);

    const auto &steps = rig.clock->stepMs();
    const auto n = static_cast<int64_t>(steps.size());
    log->stepMs.insert(log->stepMs.end(), steps.begin(), steps.end());
    log->stepCpuMs.insert(log->stepCpuMs.end(), rig.clock->stepCpuMs().begin(),
                          rig.clock->stepCpuMs().end());
    log->epochSteps.push_back(n);
    log->epochs.push_back(hist.back());
    res->attempted += n;

    const double gap = epoch_ms - tail - sum(steps) - rig.clock->callbackMs();
    log->maxTilingGapMs = std::max(log->maxTilingGapMs, gap);
    char msg[128];
    std::snprintf(msg, sizeof(msg),
                  "steps tile the epoch only to within %.4f ms", gap);
    res->check(gap > -1e-3 && gap < tilingToleranceMs(epoch_ms), n, msg);

    const nn::EpochStats &st = hist.back();
    res->check(std::isfinite(st.trainLoss), n, "non-finite loss");
    const double want = targetDensity(rig);
    const double live = 1.0 - st.weightSparsity;
    const bool on_target =
        rig.pruner ? rig.pruner->currentDensity() == want &&
                         std::fabs(live - want) < 1e-3
                   : live > 0.999;
    std::snprintf(msg, sizeof(msg),
                  "weight density %.6f is not the target %.6f", live, want);
    res->check(on_target, n, msg);
}

/** Executed MACs and storage of one step, from the layer reports. */
struct StepFacts
{
    double fwMacs = 0, bwDataMacs = 0, bwWeightMacs = 0;
    double convMacs = 0;
    double csbBytes = 0;
    int samples = 0;
};

void
sampleReports(nn::Network &net, StepFacts *f)
{
    for (size_t i = 0; i < net.size(); ++i) {
        nn::LayerStepReport r;
        if (!net.layer(i)->stepReport(&r) || !r.hasMacs)
            continue;
        f->fwMacs += static_cast<double>(r.fwMacs);
        f->bwDataMacs += static_cast<double>(r.bwDataMacs);
        f->bwWeightMacs += static_cast<double>(r.bwWeightMacs);
        if (r.kind == nn::LayerStepReport::Kind::Conv)
            f->convMacs += static_cast<double>(r.fwMacs + r.bwDataMacs +
                                               r.bwWeightMacs);
        if (r.hasWeightBytes)
            f->csbBytes += static_cast<double>(r.csbWeightBytes);
    }
    ++f->samples;
}

bool
endsWith(const std::string &s, const char *suffix)
{
    const size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

/**
 * Derive the per-layer metrics of a traced phase from its spans. The
 * two intervals inside trainNetwork that no public call brackets are
 * recorded as measured gaps between timed calls: `nn.batch` (step
 * start to the first layer's forward: batch assembly and zeroGrad) and
 * `nn.loss` (last forward to first backward: the loss forward and
 * backward).
 *
 * Per step, the timed calls plus the unaccounted self time equal the
 * step span by construction (self time is the step minus its
 * children, which never overlap). What is checked is that the spans,
 * summed over every traced step, agree with the step clock's own
 * readings.
 */
void
traceMetrics(Tracer &tracer, const std::vector<int> &steps,
             const std::vector<double> &clock_ms, RunResult *res)
{
    std::map<std::string, double> total;
    double self_total = 0.0;
    double span_total = 0.0;
    for (size_t si = 0; si < steps.size(); ++si) {
        const int s = steps[si];
        const Span step = tracer.spans()[static_cast<size_t>(s)];
        const std::vector<int> kids = tracer.children(s);
        res->check(!kids.empty(), 1, "traced step recorded no layer calls");
        if (kids.empty())
            continue;
        tracer.add("nn.batch", step.startMs,
                   tracer.spans()[static_cast<size_t>(kids.front())].startMs,
                   s);
        int last_fw = -1, first_bw = -1;
        for (int k : kids) {
            const std::string &n = tracer.spans()[static_cast<size_t>(k)].name;
            if (endsWith(n, ".fw") && first_bw < 0)
                last_fw = k;
            if (endsWith(n, ".bw") && first_bw < 0)
                first_bw = k;
        }
        if (last_fw >= 0 && first_bw >= 0) {
            tracer.add("nn.loss",
                       tracer.spans()[static_cast<size_t>(last_fw)].endMs,
                       tracer.spans()[static_cast<size_t>(first_bw)].startMs,
                       s);
        }
        for (int k : tracer.children(s)) {
            const Span &c = tracer.spans()[static_cast<size_t>(k)];
            span_total += c.durationMs();
            total[c.name] += c.durationMs();
        }
        const double self = tracer.selfMs(s);
        self_total += self;
        span_total += self;
    }
    const double clock_total = sum(clock_ms);
    const double drift = std::fabs(span_total - clock_total);
    std::fprintf(stderr,
                 "traced steps: spans %.3f ms vs step clock %.3f ms\n",
                 span_total, clock_total);
    // The two readings of a step are microseconds apart unless the
    // thread was descheduled between them; a lost step is tens of ms.
    res->check(drift < 0.05 + 0.001 * clock_total,
               static_cast<int64_t>(steps.size()),
               "traced step spans disagree with the step clock");

    const double n = steps.empty() ? 1.0 : static_cast<double>(steps.size());
    double conv_fw = 0.0, conv_bw = 0.0;
    for (const auto &kv : total) {
        res->layer(kv.first + "_ms", kv.second / n, "ms");
        if (kv.first.rfind("nn.conv.", 0) == 0)
            (endsWith(kv.first, ".fw") ? conv_fw : conv_bw) += kv.second / n;
    }
    res->layer("nn.conv.fw_ms", conv_fw, "ms");
    res->layer("nn.conv.bw_ms", conv_bw, "ms");
    res->layer("nn.step_unaccounted_ms", self_total / n, "ms");
    res->layer("nn.step_ms", clock_total / n, "ms");
}

} // namespace

void
runTrain(const Options &o, bool use_sparse, RunResult *res)
{
    Tracer tracer;
    // Set-up repetitions: the first rig is measured untraced; in a
    // traced run the second (identical, tracer-bound) rig is measured
    // traced. Every repetition must land on bitwise-identical weights.
    const int reps = o.smoke ? (o.trace ? 2 : 1) : kSetupReps;
    std::unique_ptr<TrainRig> plain, traced;
    for (int r = 0; r < reps; ++r) {
        const double c0 = processCpuMs();
        auto rig = setUp(o, use_sparse, r == 1 && o.trace ? &tracer : nullptr);
        res->setupS.push_back((processCpuMs() - c0) / 1000.0);
        if (r == 0) {
            plain = std::move(rig);
        } else {
            res->check(sameParams(plain->net, rig->net), 1,
                       "set-up repetitions diverged");
            if (r == 1 && o.trace)
                traced = std::move(rig);
        }
    }

    // A traced run follows every plain epoch with the same epoch on the
    // tracer-bound twin, so each traced sample has an untraced
    // neighbour from the same moment. Layer telemetry is sampled once
    // per traced epoch, right after its first update and outside every
    // step's interval.
    PhaseLog base, tr;
    StepFacts facts;
    Budget budget(o.seconds, o.smoke || o.trace ? 1 : kMinOps);
    for (int64_t k = 0;
         budget.more(static_cast<int64_t>(base.stepMs.size())); ++k) {
        runEpoch(*plain, o, k, &base, res);
        if (!traced)
            continue;
        traced->clock->afterNextStep(
            [&] { sampleReports(traced->net, &facts); });
        tracer.setActive(true);
        runEpoch(*traced, o, k, &tr, res);
        tracer.setActive(false);
    }
    res->opMs = base.stepCpuMs;
    // Throughputs per CPU second at the median epoch (steps plus its
    // validation tail) and the median validation pass.
    res->workPerS = static_cast<double>(plain->train.size()) /
                    (median(base.epochCpuMs) / 1000.0);
    res->auxPerS = static_cast<double>(plain->val.size()) /
                   (median(base.validateCpuMs) / 1000.0);
    // Quality guard: mean training loss of the first timed epochs, a
    // fixed amount of work every run completes.
    const size_t guard = std::min<size_t>(base.epochs.size(), 3);
    for (size_t e = 0; e < guard; ++e)
        res->finalLoss += base.epochs[e].trainLoss / static_cast<double>(guard);
    std::fprintf(stderr,
                 "%s: %zu steps in %zu epochs, step p50 %.3f ms wall / "
                 "%.3f ms CPU, %.1f samples per CPU s, guard loss %.6f, "
                 "worst epoch tiling gap %.4f ms\n",
                 use_sparse ? "train_sparse" : "train_dense",
                 base.stepMs.size(), base.epochs.size(),
                 median(base.stepMs), median(base.stepCpuMs), res->workPerS,
                 res->finalLoss,
                 std::max(base.maxTilingGapMs, tr.maxTilingGapMs));
    if (!o.trace)
        return;

    // The traced run must follow the untraced trajectory bit for bit.
    for (size_t e = 0; e < tr.epochs.size(); ++e) {
        const bool same =
            sameBits(base.epochs[e].trainLoss, tr.epochs[e].trainLoss) &&
            sameBits(base.epochs[e].valAccuracy, tr.epochs[e].valAccuracy);
        res->check(same, tr.epochSteps[e],
                   "traced loss trajectory differs from the untraced one");
    }

    std::vector<int> step_spans;
    for (size_t i = 0; i < tracer.spans().size(); ++i) {
        if (tracer.spans()[i].name == "nn.step")
            step_spans.push_back(static_cast<int>(i));
    }
    res->check(step_spans.size() == tr.stepMs.size(), 1,
               "traced step count does not match the step clock");
    if (step_spans.size() == tr.stepMs.size())
        traceMetrics(tracer, step_spans, tr.stepMs, res);

    double val_total = 0.0;
    int64_t val_count = 0;
    for (const Span &s : tracer.spans()) {
        if (s.name == "nn.validate") {
            val_total += s.durationMs();
            ++val_count;
        }
    }
    res->layer("nn.validate_ms", val_count ? val_total / val_count : 0.0,
               "ms");
    res->layer("trace_overhead", median(tr.stepMs) / median(base.stepMs),
               "x");

    const double k = facts.samples ? facts.samples : 1;
    res->layer("kernels.fw_macs", facts.fwMacs / k, "count");
    res->layer("kernels.bw_data_macs", facts.bwDataMacs / k, "count");
    res->layer("kernels.bw_weight_macs", facts.bwWeightMacs / k, "count");
    const double conv_ms = res->layers["nn.conv.fw_ms"].first +
                           res->layers["nn.conv.bw_ms"].first;
    res->layer("kernels.conv_gmacs_per_s",
               conv_ms > 0 ? facts.convMacs / k / (conv_ms * 1e6) : 0.0,
               "GMAC/s");
    res->layer("sparse.weight_density",
               1.0 - nn::weightSparsity(traced->net), "ratio");
    res->layer("sparse.csb_weight_bytes", facts.csbBytes / k, "B");

    finishTrace(tracer, o);
}

} // namespace perfbench
