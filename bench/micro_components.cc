/**
 * @file
 * Micro-benchmarks (google-benchmark) for the core components: the
 * quantile estimator, the CSB codec, the half-tile balancer, the WR
 * unit, direct convolution, and the analytic cost model.
 *
 * Not a paper figure — engineering benches that track the cost of the
 * machinery itself (e.g. that quantile estimation really is cheap
 * compared to sorting, the paper's Section III-B argument).
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "arch/cost_model.h"
#include "arch/load_balancer.h"
#include "arch/model_zoo.h"
#include "common/rng.h"
#include "nn/conv2d.h"
#include "sparse/csb.h"
#include "sparse/quantile.h"
#include "sparse/weight_recompute.h"

using namespace procrustes;

namespace {

std::vector<float>
randomMagnitudes(size_t n, uint64_t seed)
{
    Xorshift128Plus rng(seed);
    std::vector<float> xs(n);
    for (auto &x : xs)
        x = std::fabs(static_cast<float>(rng.nextGaussian()));
    return xs;
}

void
BM_QuantileEstimatorUpdate(benchmark::State &state)
{
    const auto xs = randomMagnitudes(1 << 16, 1);
    sparse::QuantileEstimator qe(0.9);
    for (auto _ : state) {
        for (float x : xs)
            qe.update(x);
        benchmark::DoNotOptimize(qe.estimate());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(xs.size()));
}
BENCHMARK(BM_QuantileEstimatorUpdate);

void
BM_ExactSortThreshold(benchmark::State &state)
{
    // The alternative the paper replaces: selection via nth_element
    // over the full candidate set.
    const auto xs = randomMagnitudes(1 << 16, 2);
    for (auto _ : state) {
        auto copy = xs;
        std::nth_element(copy.begin(),
                         copy.begin() + (copy.size() * 9) / 10,
                         copy.end());
        benchmark::DoNotOptimize(copy[(copy.size() * 9) / 10]);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(xs.size()));
}
BENCHMARK(BM_ExactSortThreshold);

void
BM_ParallelQuantile(benchmark::State &state)
{
    const auto xs = randomMagnitudes(1 << 16, 3);
    sparse::ParallelQuantileEstimator qe(
        0.9, static_cast<int>(state.range(0)));
    for (auto _ : state) {
        for (float x : xs)
            qe.update(x);
        qe.flush();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(xs.size()));
}
BENCHMARK(BM_ParallelQuantile)->Arg(1)->Arg(4)->Arg(8);

Tensor
sparseWeights(int64_t k, int64_t c, double density)
{
    Xorshift128Plus rng(7);
    Tensor w(Shape{k, c, 3, 3});
    for (int64_t i = 0; i < w.numel(); ++i) {
        if (rng.nextDouble() < density)
            w.at(i) = static_cast<float>(rng.nextGaussian());
    }
    return w;
}

void
BM_CsbEncode(benchmark::State &state)
{
    const Tensor w = sparseWeights(64, 64, 0.2);
    for (auto _ : state) {
        auto csb = sparse::CsbTensor::encodeConvFilters(w);
        benchmark::DoNotOptimize(csb.nnz());
    }
    state.SetItemsProcessed(state.iterations() * w.numel());
}
BENCHMARK(BM_CsbEncode);

void
BM_CsbDecodeRotated(benchmark::State &state)
{
    const Tensor w = sparseWeights(64, 64, 0.2);
    const auto csb = sparse::CsbTensor::encodeConvFilters(w);
    for (auto _ : state) {
        Tensor out = csb.decodeRotated180();
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * w.numel());
}
BENCHMARK(BM_CsbDecodeRotated);

void
BM_HalfTileRebalance(benchmark::State &state)
{
    Xorshift128Plus rng(9);
    std::vector<arch::TileHalves> tiles(16);
    for (auto &t : tiles) {
        t.first = rng.nextDouble();
        t.second = rng.nextDouble();
    }
    for (auto _ : state) {
        auto out = arch::rebalanceHalfTiles(tiles);
        benchmark::DoNotOptimize(out.data());
    }
}
BENCHMARK(BM_HalfTileRebalance);

void
BM_WeightRecompute(benchmark::State &state)
{
    const sparse::WeightRecomputeUnit wr(42);
    uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(wr.initialWeight(i++, 0.05f, 0.9f));
    }
}
BENCHMARK(BM_WeightRecompute);

void
BM_ConvForward(benchmark::State &state)
{
    nn::Conv2dConfig cfg;
    cfg.inChannels = 16;
    cfg.outChannels = 32;
    cfg.kernel = 3;
    cfg.pad = 1;
    nn::Conv2d conv(cfg, "bench");
    Xorshift128Plus rng(11);
    Tensor x(Shape{4, 16, 16, 16});
    x.fillGaussian(rng, 1.0f);
    for (auto _ : state) {
        Tensor y = conv.forward(x, true);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_ConvForward);

void
BM_CostModelLayer(benchmark::State &state)
{
    const arch::LayerShape layer =
        arch::convLayer("bench", 256, 256, 3, 14);
    sparse::SyntheticMaskConfig mc;
    mc.targetDensity = 0.2;
    const auto mask = sparse::makeSyntheticMask(256, 256, 3, 3, mc);
    const arch::LayerTrace traced =
        arch::syntheticLayer(layer, mask, 0.5, 16);
    const double density = traced.weightDensity();
    arch::CostOptions opts;
    const arch::CostModel cm(arch::ArrayConfig::baseline16(), opts);
    for (auto _ : state) {
        auto cost = cm.evaluatePhase(traced, density, arch::Phase::Forward,
                                     arch::MappingKind::KN, 16);
        benchmark::DoNotOptimize(cost.cycles);
    }
}
BENCHMARK(BM_CostModelLayer);

} // namespace

BENCHMARK_MAIN();
