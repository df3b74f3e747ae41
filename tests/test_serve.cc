/**
 * @file
 * Multi-tenant training service: TrainingJob == trainNetwork bitwise
 * equivalence, the mid-epoch checkpoint/resume sweep (checkpoint step
 * x thread count, all bitwise), fair-share scheduling, and the
 * concurrent == solo determinism guarantee.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "expect_telemetry.h"
#include "common/thread_pool.h"
#include "nn/activations.h"
#include "nn/data.h"
#include "nn/linear.h"
#include "nn/network.h"
#include "nn/pooling.h"
#include "nn/sgd.h"
#include "nn/trainer.h"
#include "serve/job_scheduler.h"
#include "serve/training_job.h"
#include "sparse/gradual_pruning.h"

namespace procrustes {
namespace {

using nn::Dataset;
using nn::Network;
using serve::JobConfig;
using serve::JobScheduler;
using serve::SchedulerConfig;
using serve::TrainingJob;

/** Restore the default global pool when a sweep test exits. */
struct GlobalPoolGuard
{
    ~GlobalPoolGuard() { ThreadPool::resetGlobal(0); }
};

/** CSB-backend MLP: the sparse job the sweep checkpoints. */
void
buildSparseMlp(Network &net, uint64_t seed)
{
    net.add<nn::Flatten>("fl");
    net.add<nn::Linear>(2, 24, "fc1");
    net.add<nn::ReLU>("r1");
    net.add<nn::Linear>(24, 24, "fc2");
    net.add<nn::ReLU>("r2");
    net.add<nn::Linear>(24, 3, "fc3");
    Xorshift128Plus rng(seed);
    nn::kaimingInit(net, rng);
    for (size_t i = 0; i < net.size(); ++i) {
        if (auto *fc = dynamic_cast<nn::Linear *>(net.layer(i)))
            fc->setBackend(kernels::KernelBackend::kSparse);
    }
}

std::pair<Dataset, Dataset>
serveSpirals()
{
    nn::SpiralConfig cfg;
    cfg.samplesPerClass = 20;   // 60 samples: batch 16 leaves a
    cfg.seed = 5;               // ragged 12-sample tail, 4 steps/epoch
    const Dataset train = nn::makeSpirals(cfg);
    cfg.seed = 55;
    const Dataset val = nn::makeSpirals(cfg);
    return {train, val};
}

sparse::GradualPruningConfig
servePruning()
{
    sparse::GradualPruningConfig pc;
    pc.targetSparsity = 4.0;
    pc.lr = 0.08f;
    pc.warmupIterations = 4;
    pc.pruneInterval = 3;
    pc.pruneFraction = 0.25;
    return pc;
}

JobConfig
sweepJobConfig()
{
    JobConfig jc;
    jc.name = "sweep";
    jc.epochs = 3;
    jc.batchSize = 16;
    jc.shuffleSeed = 7;
    return jc;
}

std::unique_ptr<TrainingJob>
makeSweepJob(const Dataset &train, const Dataset &val)
{
    return std::make_unique<TrainingJob>(
        sweepJobConfig(), [](Network &n) { buildSparseMlp(n, 11); },
        [] {
            return std::make_unique<
                sparse::GradualMagnitudePruningOptimizer>(
                servePruning());
        },
        &train, &val);
}

std::vector<Tensor>
copyWeights(Network &net)
{
    std::vector<Tensor> out;
    // COW value semantics: the copy keeps these bits even if the net
    // keeps training.
    for (nn::Param *p : net.params())
        out.push_back(p->value);
    return out;
}

void
expectWeightsEqual(const std::vector<Tensor> &a,
                   const std::vector<Tensor> &b,
                   const std::string &what)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t pi = 0; pi < a.size(); ++pi) {
        ASSERT_EQ(a[pi].numel(), b[pi].numel());
        const float *av = a[pi].data();
        const float *bv = b[pi].data();
        for (int64_t i = 0; i < a[pi].numel(); ++i)
            ASSERT_EQ(av[i], bv[i])
                << what << " param " << pi << " elem " << i;
    }
}

void
expectHistoryEqual(const std::vector<nn::EpochStats> &a,
                   const std::vector<nn::EpochStats> &b,
                   const std::string &what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (size_t e = 0; e < a.size(); ++e) {
        EXPECT_EQ(a[e].epoch, b[e].epoch) << what;
        EXPECT_EQ(a[e].trainLoss, b[e].trainLoss) << what;
        EXPECT_EQ(a[e].trainAccuracy, b[e].trainAccuracy) << what;
        EXPECT_EQ(a[e].valAccuracy, b[e].valAccuracy) << what;
        EXPECT_EQ(a[e].weightSparsity, b[e].weightSparsity) << what;
    }
}

// ---------------------------------------------------------------------
// TrainingJob == trainNetwork
// ---------------------------------------------------------------------

TEST(TrainingJob, MatchesPlainTrainerBitwise)
{
    const auto splits = serveSpirals();

    Network ref;
    buildSparseMlp(ref, 11);
    sparse::GradualMagnitudePruningOptimizer ref_opt(servePruning());
    nn::TrainConfig tc;
    tc.epochs = 3;
    tc.batchSize = 16;
    std::vector<double> ref_losses;
    std::vector<nn::StepTelemetry> ref_telemetry;
    const auto ref_hist = nn::trainNetwork(
        ref, ref_opt, splits.first, splits.second, tc,
        [&](const nn::StepTelemetry &t) {
            ref_losses.push_back(t.batchLoss);
            ref_telemetry.push_back(t);
        });

    auto job = makeSweepJob(splits.first, splits.second);
    std::vector<double> job_losses;
    std::vector<int64_t> job_steps;
    std::vector<nn::StepTelemetry> job_telemetry;
    job->setObserver([&](const nn::StepTelemetry &t) {
        job_losses.push_back(t.batchLoss);
        job_steps.push_back(t.step);
        job_telemetry.push_back(t);
    });
    job->run();

    ASSERT_TRUE(job->finished());
    ASSERT_EQ(job_losses.size(), ref_losses.size());
    for (size_t i = 0; i < ref_losses.size(); ++i) {
        ASSERT_EQ(job_losses[i], ref_losses[i]) << "step " << i;
        ASSERT_EQ(job_steps[i], static_cast<int64_t>(i));
    }
    expectHistoryEqual(job->history(), ref_hist, "job-vs-trainer");
    expectTelemetryEqual(job_telemetry, ref_telemetry, "job-vs-trainer");

    const auto ref_params = ref.params();
    const auto jw = copyWeights(job->network());
    ASSERT_EQ(jw.size(), ref_params.size());
    for (size_t pi = 0; pi < ref_params.size(); ++pi) {
        const float *av = ref_params[pi]->value.data();
        const float *bv = jw[pi].data();
        for (int64_t i = 0; i < ref_params[pi]->value.numel(); ++i)
            ASSERT_EQ(av[i], bv[i]);
    }
}

// ---------------------------------------------------------------------
// Mid-epoch checkpoint / resume sweep (checkpoint step x threads)
// ---------------------------------------------------------------------

TEST(TrainingJob, CheckpointResumeSweepIsBitwise)
{
    GlobalPoolGuard guard;
    const auto splits = serveSpirals();

    // Uninterrupted reference at one thread: per-step losses, epoch
    // history, final weights.
    ThreadPool::resetGlobal(1);
    auto ref = makeSweepJob(splits.first, splits.second);
    std::vector<double> ref_losses;
    ref->setObserver([&](const nn::StepTelemetry &t) {
        ref_losses.push_back(t.batchLoss);
    });
    ref->run();
    const auto ref_weights = copyWeights(ref->network());
    const auto ref_history = ref->history();
    const int64_t total_steps = ref->globalStep();
    ASSERT_EQ(total_steps, 12);   // 3 epochs x 4 steps

    // Checkpoint at: a fresh job, after one step, mid-epoch (step 6 =
    // epoch 1 step 2), and at an epoch boundary (step 8 = epoch 2
    // step 0) — the pruning schedule (warmup 4, interval 3) has fired
    // by the later points.
    for (const int64_t ckpt_at : {0, 1, 6, 8}) {
        std::vector<uint8_t> blob;
        {
            ThreadPool::resetGlobal(1);
            auto first = makeSweepJob(splits.first, splits.second);
            for (int64_t s = 0; s < ckpt_at; ++s)
                first->step();
            blob = first->checkpoint();
        }

        for (const int threads : {1, 2, 3, 8}) {
            ThreadPool::resetGlobal(threads);
            auto resumed = makeSweepJob(splits.first, splits.second);
            resumed->restore(blob);
            ASSERT_EQ(resumed->globalStep(), ckpt_at);

            std::vector<double> res_losses;
            resumed->setObserver([&](const nn::StepTelemetry &t) {
                res_losses.push_back(t.batchLoss);
            });
            resumed->run();

            const std::string what = "ckpt@" +
                                     std::to_string(ckpt_at) +
                                     " threads=" +
                                     std::to_string(threads);
            // Post-resume steps match the reference tail exactly.
            ASSERT_EQ(res_losses.size(),
                      static_cast<size_t>(total_steps - ckpt_at))
                << what;
            for (size_t i = 0; i < res_losses.size(); ++i)
                ASSERT_EQ(res_losses[i],
                          ref_losses[static_cast<size_t>(ckpt_at) + i])
                    << what << " resumed step " << i;

            // Epochs closed after the restore point match, including
            // the epoch the checkpoint interrupted mid-stream (its
            // accumulators travelled in the cursor).
            const size_t first_epoch =
                resumed->history().empty()
                    ? ref_history.size()
                    : static_cast<size_t>(
                          resumed->history().front().epoch);
            ASSERT_EQ(resumed->history().size() + first_epoch,
                      ref_history.size())
                << what;
            for (size_t e = 0; e < resumed->history().size(); ++e) {
                const auto &a = resumed->history()[e];
                const auto &b = ref_history[first_epoch + e];
                ASSERT_EQ(a.epoch, b.epoch) << what;
                ASSERT_EQ(a.trainLoss, b.trainLoss) << what;
                ASSERT_EQ(a.trainAccuracy, b.trainAccuracy) << what;
                ASSERT_EQ(a.valAccuracy, b.valAccuracy) << what;
                ASSERT_EQ(a.weightSparsity, b.weightSparsity) << what;
            }

            expectWeightsEqual(copyWeights(resumed->network()),
                               ref_weights, what);
        }
    }
    // The sweep exercised a genuinely sparse trajectory.
    EXPECT_GT(ref_history.back().weightSparsity, 0.1);
}

// ---------------------------------------------------------------------
// Scheduler: concurrent == solo, fairness, stats
// ---------------------------------------------------------------------

/** Four tenants with distinct models, optimizers, and seeds. */
std::vector<std::unique_ptr<TrainingJob>>
makeTenantJobs(const Dataset &train, const Dataset &val,
               int64_t epochs = 2)
{
    std::vector<std::unique_ptr<TrainingJob>> jobs;
    const char *names[4] = {"prune-a", "prune-b", "momentum", "plain"};
    for (int j = 0; j < 4; ++j) {
        JobConfig jc;
        jc.name = names[j];
        jc.epochs = epochs;
        jc.batchSize = 16;
        jc.shuffleSeed = 7 + static_cast<uint64_t>(j);
        const uint64_t seed = 11 + static_cast<uint64_t>(j);
        serve::OptimizerFactory make_opt;
        switch (j) {
        case 0:
            make_opt = [] {
                return std::make_unique<
                    sparse::GradualMagnitudePruningOptimizer>(
                    servePruning());
            };
            break;
        case 1:
            make_opt = [] {
                auto pc = servePruning();
                pc.targetSparsity = 6.0;
                pc.pruneFraction = 0.4;
                return std::make_unique<
                    sparse::GradualMagnitudePruningOptimizer>(pc);
            };
            break;
        case 2:
            make_opt = [] {
                return std::make_unique<nn::Sgd>(0.05f, 0.9f);
            };
            break;
        default:
            make_opt = [] {
                return std::make_unique<nn::Sgd>(0.05f);
            };
            break;
        }
        jobs.push_back(std::make_unique<TrainingJob>(
            jc, [seed](Network &n) { buildSparseMlp(n, seed); },
            make_opt, &train, &val));
    }
    return jobs;
}

TEST(JobScheduler, ConcurrentJobsMatchSoloBitwise)
{
    GlobalPoolGuard guard;
    const auto splits = serveSpirals();

    // Solo references, one thread.
    ThreadPool::resetGlobal(1);
    std::vector<std::vector<Tensor>> solo_weights;
    std::vector<std::vector<nn::EpochStats>> solo_history;
    {
        auto jobs = makeTenantJobs(splits.first, splits.second);
        for (auto &j : jobs) {
            j->run();
            solo_weights.push_back(copyWeights(j->network()));
            solo_history.push_back(j->history());
        }
    }

    for (const int threads : {2, 8}) {
        ThreadPool::resetGlobal(threads);
        JobScheduler sched;
        std::vector<TrainingJob *> handles;
        for (auto &j : makeTenantJobs(splits.first, splits.second))
            handles.push_back(sched.addJob(std::move(j)));
        sched.runAll();
        ASSERT_TRUE(sched.allFinished());

        for (size_t j = 0; j < handles.size(); ++j) {
            const std::string what =
                handles[j]->config().name + " threads=" +
                std::to_string(threads);
            expectHistoryEqual(handles[j]->history(),
                               solo_history[j], what);
            expectWeightsEqual(copyWeights(handles[j]->network()),
                               solo_weights[j], what);
        }
    }
}

TEST(JobScheduler, FairShareBoundsEpochSpread)
{
    const auto splits = serveSpirals();

    // Mixed job lengths and a concurrency cap below the job count.
    SchedulerConfig sc;
    sc.maxConcurrent = 2;
    JobScheduler sched(sc);
    std::vector<TrainingJob *> handles;
    const int64_t lengths[4] = {2, 2, 4, 4};
    for (int j = 0; j < 4; ++j) {
        JobConfig jc;
        jc.name = "t" + std::to_string(j);
        jc.epochs = lengths[j];
        jc.batchSize = 16;
        const uint64_t seed = 21 + static_cast<uint64_t>(j);
        handles.push_back(sched.addJob(std::make_unique<TrainingJob>(
            jc, [seed](Network &n) { buildSparseMlp(n, seed); },
            [] { return std::make_unique<nn::Sgd>(0.05f); },
            &splits.first, &splits.second)));
    }

    while (sched.runRound() > 0) {
        // Fairness invariant: among unfinished jobs, epoch spread <= 1.
        int64_t lo = INT64_MAX;
        int64_t hi = INT64_MIN;
        for (TrainingJob *j : handles) {
            if (j->finished())
                continue;
            lo = std::min(lo, j->epochsCompleted());
            hi = std::max(hi, j->epochsCompleted());
        }
        if (lo <= hi)
            EXPECT_LE(hi - lo, 1);
    }
    for (int j = 0; j < 4; ++j)
        EXPECT_EQ(handles[j]->epochsCompleted(), lengths[j]);
    // 12 epochs of work at 2 per round.
    EXPECT_EQ(sched.roundsExecuted(), 6);
}

TEST(StatsWriter, StreamsStepAndEpochLines)
{
    const auto splits = serveSpirals();
    const std::string path =
        ::testing::TempDir() + "serve_stats_test.jsonl";

    {
        serve::StatsWriter stats(path);
        auto job = makeSweepJob(splits.first, splits.second);
        job->setStatsWriter(&stats);
        job->runEpoch();
        job->runEpoch();
        // 2 epochs x 4 steps + 2 epoch summaries.
        EXPECT_EQ(stats.linesWritten(), 10);
        job->setStatsWriter(nullptr);
        job->runEpoch();
        EXPECT_EQ(stats.linesWritten(), 10);
    }

    FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char line[512];
    int steps = 0;
    int epochs = 0;
    int lines = 0;
    while (std::fgets(line, sizeof(line), f)) {
        ++lines;
        const std::string s(line);
        EXPECT_EQ(s.front(), '{');
        EXPECT_NE(s.find("\"job\": \"sweep\""), std::string::npos);
        if (s.find("\"kind\": \"step\"") != std::string::npos) {
            ++steps;
            EXPECT_NE(s.find("\"loss\": "), std::string::npos);
        } else {
            EXPECT_NE(s.find("\"kind\": \"epoch\""),
                      std::string::npos);
            ++epochs;
            EXPECT_NE(s.find("\"val_accuracy\": "),
                      std::string::npos);
        }
    }
    std::fclose(f);
    EXPECT_EQ(lines, 10);
    EXPECT_EQ(steps, 8);
    EXPECT_EQ(epochs, 2);
    std::remove(path.c_str());
}

TEST(StatsWriter, EscapesTheJobNameInsideItsJsonString)
{
    const std::string path =
        ::testing::TempDir() + "serve_stats_escape_test.jsonl";
    const std::string name = "a\"b\\c\td";
    {
        serve::StatsWriter stats(path);
        nn::StepTelemetry t;
        t.epoch = 1;
        t.step = 2;
        t.batchSize = 3;
        t.batchLoss = 0.5;
        stats.writeStep(name, t);
        nn::EpochStats st;
        st.epoch = 1;
        stats.writeEpoch(name, st);
    }

    FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char line[512];
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
    EXPECT_EQ(std::string(line),
              R"({"kind": "step", "job": "a\"b\\c\u0009d", "epoch": 1, )"
              R"("step": 2, "batch": 3, "loss": 0.5})"
              "\n");
    ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
    EXPECT_EQ(std::string(line),
              R"({"kind": "epoch", "job": "a\"b\\c\u0009d", "epoch": 1, )"
              R"("train_loss": 0, "train_accuracy": 0, "val_accuracy": 0, )"
              R"("weight_sparsity": 0})"
              "\n");
    EXPECT_EQ(std::fgets(line, sizeof(line), f), nullptr);
    std::fclose(f);
    std::remove(path.c_str());
}

} // namespace
} // namespace procrustes
