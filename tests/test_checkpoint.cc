/**
 * @file
 * Bitwise training-state snapshots: serialization primitives, the
 * layer/optimizer state contracts, and the corrupt-snapshot guards.
 * Holds the regression tests for the two hidden-state bugs that broke
 * resume before this PR: batch-norm running statistics unreachable
 * through params(), and the gradual-pruning optimizer lazily
 * re-capturing its masks (marking everything alive) when restored
 * weights were fed to a fresh optimizer.
 */

#include <gtest/gtest.h>

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <fstream>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/data.h"
#include "nn/linear.h"
#include "nn/network.h"
#include "nn/pooling.h"
#include "nn/sgd.h"
#include "nn/trainer.h"
#include "serve/checkpoint.h"
#include "sparse/gradual_pruning.h"

namespace procrustes {
namespace {

using nn::Dataset;
using nn::Network;
using serve::TrainCursor;

// ---------------------------------------------------------------------
// Serialization primitives
// ---------------------------------------------------------------------

TEST(Serialize, ScalarAndStringRoundTripIsBitwise)
{
    ByteWriter w;
    w.writeU8(0xA5);
    w.writeU32(0xDEADBEEFu);
    w.writeU64(~0ull);
    w.writeI64(-42);
    w.writeF64(0.1);              // not exactly representable
    w.writeF32(-0.0f);            // sign of zero must survive
    w.writeF32(1e-41f);           // denormal
    w.writeF64(std::nan(""));     // NaN payload travels as bits
    w.writeString("conv1.weight");
    w.writeString("");

    ByteReader r(w.bytes());
    EXPECT_EQ(r.readU8(), 0xA5);
    EXPECT_EQ(r.readU32(), 0xDEADBEEFu);
    EXPECT_EQ(r.readU64(), ~0ull);
    EXPECT_EQ(r.readI64(), -42);
    EXPECT_EQ(r.readF64(), 0.1);
    const float nz = r.readF32();
    EXPECT_EQ(nz, 0.0f);
    EXPECT_TRUE(std::signbit(nz));
    EXPECT_EQ(r.readF32(), 1e-41f);
    EXPECT_TRUE(std::isnan(r.readF64()));
    EXPECT_EQ(r.readString(), "conv1.weight");
    EXPECT_EQ(r.readString(), "");
    EXPECT_TRUE(r.atEnd());
}

TEST(Serialize, TensorRoundTripPreservesShapeAndBits)
{
    Tensor t(Shape{2, 3, 1, 2});
    float *v = t.data();
    for (int64_t i = 0; i < t.numel(); ++i)
        v[i] = 0.3f * static_cast<float>(i) - 1.7f;
    v[0] = -0.0f;
    v[1] = 1e-41f;

    ByteWriter w;
    w.writeTensor(t);
    ByteReader r(w.bytes());
    const Tensor back = r.readTensor();
    ASSERT_TRUE(back.shape() == t.shape());
    const float *b = back.data();
    for (int64_t i = 0; i < t.numel(); ++i)
        EXPECT_EQ(b[i], v[i]);
    EXPECT_TRUE(std::signbit(b[0]));
    EXPECT_TRUE(r.atEnd());
}

/**
 * Cap this process's address space at 1 GiB above what it maps now, so
 * that an allocation of gigabytes fails at once; called inside a death
 * test, it caps only the child. The sanitizers map terabytes of shadow
 * memory, so under them the cap is skipped.
 */
void
capAddressSpace()
{
#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
    std::ifstream statm("/proc/self/statm");
    uint64_t pages = 0;
    statm >> pages;
    const rlim_t cap = static_cast<rlim_t>(
        pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE)) +
        (uint64_t{1} << 30));
    const struct rlimit lim = {cap, cap};
    setrlimit(RLIMIT_AS, &lim);
#endif
}

TEST(Serialize, ReadPastEndIsFatal)
{
    ByteWriter w;
    w.writeU32(7);
    ByteReader r(w.bytes());
    r.readU32();
    EXPECT_DEATH(r.readU64(), "truncated");

    // A corrupt length prefix fails before anything of its size is
    // allocated: a string claiming 0xfffffff0 bytes with 8 left, and a
    // tensor whose first extent had its high byte flipped (2 + 2^56).
    ByteWriter s;
    s.writeU32(0xfffffff0u);
    s.writeU64(0);
    ByteReader rs(s.bytes());
    EXPECT_DEATH(
        {
            capAddressSpace();
            rs.readString();
        },
        "truncated");
    ByteWriter t;
    t.writeTensor(Tensor(Shape{2, 3}));
    std::vector<uint8_t> bytes = t.bytes();
    bytes[sizeof(uint32_t) + 7] ^= 1;   // rank, then extent 0's high byte
    ByteReader rt(bytes);
    EXPECT_DEATH(
        {
            capAddressSpace();
            rt.readTensor();
        },
        "checkpoint corrupt");
}

// ---------------------------------------------------------------------
// Fixtures
// ---------------------------------------------------------------------

/** Tiny conv+BN net: the batch-norm running-stat regression target. */
void
buildBnNet(Network &net, uint64_t seed)
{
    nn::Conv2dConfig c1;
    c1.inChannels = 1;
    c1.outChannels = 4;
    c1.kernel = 3;
    c1.pad = 1;
    c1.bias = false;
    net.add<nn::Conv2d>(c1, "conv1");
    net.add<nn::BatchNorm2d>(4, "bn1");
    net.add<nn::ReLU>("r1");
    net.add<nn::GlobalAvgPool>("gap");
    net.add<nn::Linear>(4, 3, "fc");
    Xorshift128Plus rng(seed);
    nn::kaimingInit(net, rng);
}

/** Dense MLP for the pruning-optimizer regression. */
void
buildDenseMlp(Network &net, uint64_t seed)
{
    net.add<nn::Flatten>("fl");
    net.add<nn::Linear>(2, 16, "fc1");
    net.add<nn::ReLU>("r1");
    net.add<nn::Linear>(16, 3, "fc2");
    Xorshift128Plus rng(seed);
    nn::kaimingInit(net, rng);
}

Dataset
tinyImages(uint64_t seed)
{
    nn::BlobImageConfig cfg;
    cfg.numClasses = 3;
    cfg.samplesPerClass = 8;
    cfg.channels = 1;
    cfg.height = 6;
    cfg.width = 6;
    cfg.sampleSeed = seed;
    return nn::makeBlobImages(cfg);
}

Dataset
tinySpirals(uint64_t seed)
{
    nn::SpiralConfig cfg;
    cfg.samplesPerClass = 12;
    cfg.seed = seed;
    return nn::makeSpirals(cfg);
}

/**
 * Run `steps` optimizer steps, mirroring the trainNetwork expression
 * sequence from a given cursor position (whole-epoch shuffles, batch
 * 8), and return the per-step losses.
 */
std::vector<double>
runSteps(Network &net, nn::Optimizer &opt, const Dataset &ds,
         int64_t steps, int64_t start_epoch = 0,
         int64_t start_step_in_epoch = 0)
{
    nn::SoftmaxCrossEntropy loss;
    const auto params = net.params();
    const int64_t batch = 8;
    std::vector<double> losses;
    int64_t epoch = start_epoch;
    int64_t step_in_epoch = start_step_in_epoch;
    for (int64_t s = 0; s < steps; ++s) {
        const auto order = nn::epochOrder(ds.size(), 7, epoch);
        const int64_t start = step_in_epoch * batch;
        const int64_t end = std::min(start + batch, ds.size());
        std::vector<int64_t> idx(order.begin() + start,
                                 order.begin() + end);
        const Tensor x = ds.batch(idx);
        const auto y = ds.batchLabels(idx);
        net.zeroGrad();
        const Tensor logits = net.forward(x, /*training=*/true);
        losses.push_back(loss.forward(logits, y));
        net.backward(loss.backward());
        opt.step(params);
        if (end >= ds.size()) {
            ++epoch;
            step_in_epoch = 0;
        } else {
            ++step_in_epoch;
        }
    }
    return losses;
}

void
expectNetsBitwiseEqual(Network &a, Network &b)
{
    const auto pa = a.params();
    const auto pb = b.params();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t pi = 0; pi < pa.size(); ++pi) {
        ASSERT_EQ(pa[pi]->value.numel(), pb[pi]->value.numel());
        const float *av = pa[pi]->value.data();
        const float *bv = pb[pi]->value.data();
        for (int64_t i = 0; i < pa[pi]->value.numel(); ++i)
            ASSERT_EQ(av[i], bv[i])
                << pa[pi]->name << " elem " << i;
    }
}

// ---------------------------------------------------------------------
// Satellite regression: batch-norm running stats (fails pre-fix)
// ---------------------------------------------------------------------

TEST(Checkpoint, BatchNormRunningStatsSurviveRestore)
{
    const Dataset ds = tinyImages(3);

    Network net;
    buildBnNet(net, 21);
    nn::Sgd opt(0.05f);
    runSteps(net, opt, ds, 5);

    auto *bn = dynamic_cast<nn::BatchNorm2d *>(net.layer(1));
    ASSERT_NE(bn, nullptr);
    // Training moved the running stats off their (0, 1) init — the
    // restore check below is not vacuous.
    bool moved = false;
    for (int64_t c = 0; c < 4; ++c) {
        if (bn->runningMean().data()[c] != 0.0f ||
            bn->runningVar().data()[c] != 1.0f)
            moved = true;
    }
    ASSERT_TRUE(moved);

    const auto blob = serve::snapshotTrainingState(net, opt, {});

    // Restore into a fresh twin. Pre-fix, running stats were not part
    // of any snapshot (unreachable through params()), so the restored
    // net evaluated with fresh (0, 1) statistics and these
    // comparisons failed.
    Network fresh;
    buildBnNet(fresh, 21);
    nn::Sgd fresh_opt(0.05f);
    serve::restoreTrainingState(blob, fresh, fresh_opt);

    auto *fbn = dynamic_cast<nn::BatchNorm2d *>(fresh.layer(1));
    ASSERT_NE(fbn, nullptr);
    for (int64_t c = 0; c < 4; ++c) {
        ASSERT_EQ(fbn->runningMean().data()[c],
                  bn->runningMean().data()[c]);
        ASSERT_EQ(fbn->runningVar().data()[c],
                  bn->runningVar().data()[c]);
    }

    // Inference (training=false) uses the running stats: the restored
    // net must produce bitwise-identical logits.
    std::vector<int64_t> idx = {0, 5, 11};
    const Tensor x = ds.batch(idx);
    const Tensor ya = net.forward(x, /*training=*/false);
    const Tensor yb = fresh.forward(x, /*training=*/false);
    ASSERT_EQ(ya.numel(), yb.numel());
    for (int64_t i = 0; i < ya.numel(); ++i)
        ASSERT_EQ(ya.data()[i], yb.data()[i]);
    EXPECT_EQ(nn::evaluateAccuracy(net, ds),
              nn::evaluateAccuracy(fresh, ds));
}

// ---------------------------------------------------------------------
// Satellite regression: pruning masks (fails pre-fix)
// ---------------------------------------------------------------------

sparse::GradualPruningConfig
quickPruning()
{
    sparse::GradualPruningConfig pc;
    pc.targetSparsity = 4.0;
    pc.lr = 0.05f;
    pc.warmupIterations = 2;
    pc.pruneInterval = 2;
    pc.pruneFraction = 0.3;
    return pc;
}

TEST(Checkpoint, PruningOptimizerResumeDoesNotReanimate)
{
    const Dataset ds = tinySpirals(9);

    // Train with pruning past several prune events. Dense backend:
    // pruned positions still receive non-zero gradients, so pre-fix
    // the re-captured (all-alive) masks let the update move them off
    // zero and the trajectories diverged.
    Network net;
    buildDenseMlp(net, 33);
    sparse::GradualMagnitudePruningOptimizer opt(quickPruning());
    runSteps(net, opt, ds, 8);   // 36 samples, batch 8: epoch = 5 steps
    ASSERT_GT(opt.pruneEvents(), 0);
    ASSERT_LT(opt.currentDensity(), 1.0);

    const auto blob = serve::snapshotTrainingState(net, opt, {});

    // Fresh engine, restore, continue; reference continues in place.
    Network resumed;
    buildDenseMlp(resumed, 33);
    sparse::GradualMagnitudePruningOptimizer ropt(quickPruning());
    serve::restoreTrainingState(blob, resumed, ropt);

    // The optimizer's schedule state came back exactly.
    EXPECT_EQ(ropt.iteration(), opt.iteration());
    EXPECT_EQ(ropt.pruneEvents(), opt.pruneEvents());
    EXPECT_EQ(ropt.currentDensity(), opt.currentDensity());
    EXPECT_EQ(ropt.averageDensity(), opt.averageDensity());

    // 8 steps in, cursor is (epoch 1, step 3 of 5).
    const auto ref_losses = runSteps(net, opt, ds, 7, 1, 3);
    const auto res_losses = runSteps(resumed, ropt, ds, 7, 1, 3);
    ASSERT_EQ(ref_losses.size(), res_losses.size());
    for (size_t i = 0; i < ref_losses.size(); ++i)
        ASSERT_EQ(ref_losses[i], res_losses[i]) << "step " << i;
    expectNetsBitwiseEqual(net, resumed);
    EXPECT_EQ(ropt.currentDensity(), opt.currentDensity());

    // Pruned positions stayed exactly zero through the resumed run
    // (the re-animation symptom pre-fix).
    EXPECT_EQ(nn::weightSparsity(resumed), nn::weightSparsity(net));
    EXPECT_GT(nn::weightSparsity(resumed), 0.0);
}

// ---------------------------------------------------------------------
// Momentum velocity
// ---------------------------------------------------------------------

TEST(Checkpoint, SgdMomentumVelocitySurvivesRestore)
{
    const Dataset ds = tinySpirals(4);

    Network net;
    buildDenseMlp(net, 8);
    nn::Sgd opt(0.05f, 0.9f);
    runSteps(net, opt, ds, 6);

    const auto blob = serve::snapshotTrainingState(net, opt, {});

    Network resumed;
    buildDenseMlp(resumed, 8);
    nn::Sgd ropt(0.05f, 0.9f);
    serve::restoreTrainingState(blob, resumed, ropt);
    EXPECT_EQ(ropt.iteration(), opt.iteration());

    // Without the velocity buffer the first resumed step already
    // diverges (momentum restarts from zero).
    const auto ref = runSteps(net, opt, ds, 5, 1, 1);
    const auto res = runSteps(resumed, ropt, ds, 5, 1, 1);
    for (size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(ref[i], res[i]) << "step " << i;
    expectNetsBitwiseEqual(net, resumed);
}

TEST(Checkpoint, FreshOptimizerSnapshotPreservesLazyVelocity)
{
    // Checkpointing before any step must restore the pre-lazy-init
    // state, which then initializes identically on the first step.
    Network net;
    buildDenseMlp(net, 2);
    nn::Sgd opt(0.1f, 0.9f);
    const auto blob = serve::snapshotTrainingState(net, opt, {});

    Network resumed;
    buildDenseMlp(resumed, 2);
    nn::Sgd ropt(0.1f, 0.9f);
    const TrainCursor cur =
        serve::restoreTrainingState(blob, resumed, ropt);
    EXPECT_EQ(cur.epoch, 0);
    EXPECT_EQ(ropt.iteration(), 0);

    const Dataset ds = tinySpirals(4);
    const auto ref = runSteps(net, opt, ds, 3);
    const auto res = runSteps(resumed, ropt, ds, 3);
    for (size_t i = 0; i < ref.size(); ++i)
        ASSERT_EQ(ref[i], res[i]);
    expectNetsBitwiseEqual(net, resumed);
}

// ---------------------------------------------------------------------
// Cursor round trip and corrupt-snapshot guards
// ---------------------------------------------------------------------

TEST(Checkpoint, CursorRoundTripsExactly)
{
    Network net;
    buildDenseMlp(net, 5);
    nn::Sgd opt(0.1f);
    TrainCursor c;
    c.epoch = 3;
    c.stepInEpoch = 2;
    c.globalStep = 17;
    c.lossSum = 1.0 / 3.0;
    c.accSum = 2.0 / 7.0;
    c.samples = 44;
    const auto blob = serve::snapshotTrainingState(net, opt, c);

    Network other;
    buildDenseMlp(other, 5);
    nn::Sgd oopt(0.1f);
    const TrainCursor back =
        serve::restoreTrainingState(blob, other, oopt);
    EXPECT_EQ(back.epoch, c.epoch);
    EXPECT_EQ(back.stepInEpoch, c.stepInEpoch);
    EXPECT_EQ(back.globalStep, c.globalStep);
    EXPECT_EQ(back.lossSum, c.lossSum);
    EXPECT_EQ(back.accSum, c.accSum);
    EXPECT_EQ(back.samples, c.samples);
}

TEST(CheckpointDeath, BadMagicVersionTruncationAndMismatch)
{
    Network net;
    buildDenseMlp(net, 5);
    nn::Sgd opt(0.1f);
    const auto blob = serve::snapshotTrainingState(net, opt, {});

    {
        auto bad = blob;
        bad[0] ^= 0xFF;
        Network n2;
        buildDenseMlp(n2, 5);
        nn::Sgd o2(0.1f);
        EXPECT_DEATH(serve::restoreTrainingState(bad, n2, o2),
                     "bad magic");
    }
    {
        auto bad = blob;
        bad[4] = 99;   // version field
        Network n2;
        buildDenseMlp(n2, 5);
        nn::Sgd o2(0.1f);
        EXPECT_DEATH(serve::restoreTrainingState(bad, n2, o2),
                     "unsupported checkpoint version");
    }
    {
        auto bad = blob;
        bad.resize(bad.size() / 2);
        Network n2;
        buildDenseMlp(n2, 5);
        nn::Sgd o2(0.1f);
        EXPECT_DEATH(serve::restoreTrainingState(bad, n2, o2),
                     "truncated");
    }
    {
        // Different architecture: parameter names disagree.
        Network n2;
        buildBnNet(n2, 5);
        nn::Sgd o2(0.1f);
        EXPECT_DEATH(serve::restoreTrainingState(blob, n2, o2),
                     "mismatch");
    }
    {
        // Different optimizer kind for the same network.
        Network n2;
        buildDenseMlp(n2, 5);
        sparse::GradualMagnitudePruningOptimizer o2(quickPruning());
        EXPECT_DEATH(serve::restoreTrainingState(blob, n2, o2),
                     "checkpoint/optimizer mismatch");
    }
}

// ---------------------------------------------------------------------
// Satellite regression: Dataset::batch rank guard (fails pre-fix)
// ---------------------------------------------------------------------

TEST(DatasetDeath, BatchRejectsNonRank4Images)
{
    // A dataset whose images lost their [N, C, H, W] shape (e.g. a
    // caller handed over flattened features). Pre-fix batch() read
    // s[1]..s[3] of a rank-2 shape unchecked.
    Dataset ds = tinySpirals(4);
    const int64_t n = ds.images.shape()[0];
    Tensor flat(Shape{n, 2});
    float *dst = flat.data();
    const float *src = ds.images.data();
    for (int64_t i = 0; i < flat.numel(); ++i)
        dst[i] = src[i];
    ds.images = flat;
    EXPECT_DEATH(ds.batch({0, 1}), "rank-4");
}

} // namespace
} // namespace procrustes
