/**
 * @file
 * Compute-backend benchmark: naive loop-nest conv vs the im2col + tiled
 * GEMM backend (and the CSB sparse executor) across ResNet18 / VGG-S
 * layer shapes from the model zoo. Emits a machine-readable
 * BENCH_kernels.json next to the human-readable table so EXPERIMENTS.md
 * can track the speedups (schema documented there).
 *
 * Usage: bench_kernels [--smoke] [--out PATH] [--batch N]
 *   --smoke   tiny shapes / single rep (CI wiring check, not a perf run)
 *   --out     output JSON path (default BENCH_kernels.json)
 *   --batch   minibatch size of the model-zoo layers (default 2; the
 *             train_sparse rows keep their training batch of 32)
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "arch/model_zoo.h"
#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "kernels/backend.h"
#include "kernels/gemm.h"
#include "kernels/sparse_microkernels.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "sparse/csb.h"
#include "sparse/mask.h"
#include "sparse/sparse_conv.h"

using namespace procrustes;

namespace {

/** Wall and process-CPU milliseconds of one call (medians over calls). */
struct Timing
{
    double ms = 0.0;
    double cpuMs = 0.0;
};

struct BenchLayer
{
    std::string net;
    std::string name;
    int64_t c, k, kernel, stride, pad, in_hw;
    int64_t batch;
};

/** Sparse-executor timings at one weight density. */
struct SweepPoint
{
    double density = 0.0;
    Timing sparse_fwd;
    Timing sparse_bwd_data;
    Timing sparse_bwd_weight;
    double fwd_vs_gemm = 0.0;   //!< gemm_fwd_ms / sparse_fwd_ms
};

struct Row
{
    BenchLayer layer;
    int64_t batch = 0;
    Timing naive_fwd;
    Timing gemm_fwd;
    Timing naive_bwd;
    Timing gemm_bwd;
    Timing gemm_fwd_1t;   //!< gemm forward on a 1-thread pool
    Timing gemm_bwd_1t;
    Timing sparse_fwd;
    Timing sparse_bwd_data;
    Timing sparse_bwd_weight;
    Timing sparse_fwd_1t;   //!< headline sparse cells on a 1-thread pool
    Timing sparse_bwd_data_1t;
    Timing sparse_bwd_weight_1t;
    double sparse_density = 0.0;
    std::vector<SweepPoint> sweep;   //!< density sweep, dense-first
    double crossover_density = 0.0;  //!< max swept density where the
                                     //!< sparse forward beats gemm
    double crossover_density_bwd = 0.0;  //!< same for sparse bw-data +
                                         //!< bw-weight vs gemm backward
    double macs = 0.0;   //!< dense forward MACs for GMAC/s rates

    double fwdSpeedup() const { return naive_fwd.ms / gemm_fwd.ms; }
    double bwdSpeedup() const { return naive_bwd.ms / gemm_bwd.ms; }

    /** 1-thread vs N-thread scaling (the batch-parallel win). */
    double threadFwdSpeedup() const { return gemm_fwd_1t.ms / gemm_fwd.ms; }
    double threadBwdSpeedup() const { return gemm_bwd_1t.ms / gemm_bwd.ms; }
};

/**
 * One fc layer's timings: gemm backend vs the CSB executors, which run
 * fc as a 1x1 conv over the batch plane (as nn::Linear does).
 */
struct FcRow
{
    std::string net;
    std::string name;
    int64_t in_f = 0, out_f = 0, batch = 0;
    Timing gemm_fwd;
    Timing gemm_bwd;
    Timing sparse_fc_fwd;
    Timing sparse_fc_bwd_data;
    Timing sparse_fc_bwd_weight;
    double sparse_density = 0.0;
    /** Executed / dense MAC ratios per phase, from the executors'
        measured tallies on this input (weight mask in every phase,
        dy zeros in bw-data, activation zeros in bw-weight). */
    double fw_mac_ratio = 0.0;
    double bw_data_mac_ratio = 0.0;
    double bw_weight_mac_ratio = 0.0;
};

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** CPU time of the whole process (every pool thread) in ms. */
double
cpuNowMs()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
}

double
median(std::vector<double> reps)
{
    std::sort(reps.begin(), reps.end());
    const size_t mid = reps.size() / 2;
    return reps.size() % 2 ? reps[mid] : 0.5 * (reps[mid - 1] + reps[mid]);
}

/**
 * Time fn() adaptively: after a warm-up, repeat until ~min_ms elapsed
 * and at least 5 reps ran (at most 50), and return the median wall and
 * the median process-CPU time of a rep in ms, so a slow episode of a
 * shared host does not carry its whole weight into the cell. CPU time
 * does not count the time the host's other tenants took the cores.
 */
template <typename Fn>
Timing
timeMs(Fn &&fn, double min_ms)
{
    fn();   // warm-up
    std::vector<double> wall;
    std::vector<double> cpu;
    const double start = nowMs();
    do {
        const double t0 = nowMs();
        const double c0 = cpuNowMs();
        fn();
        cpu.push_back(cpuNowMs() - c0);
        wall.push_back(nowMs() - t0);
    } while ((nowMs() - start < min_ms || wall.size() < 5) &&
             wall.size() < 50);
    return {median(wall), median(cpu)};
}

/**
 * One timed cell as JSON, the wall field with its CPU twin:
 * "<name>_ms<suffix>": wall, "<name>_cpu_ms<suffix>": cpu.
 */
std::string
timingJson(const char *name, const Timing &t, const char *suffix = "")
{
    char buf[192];
    std::snprintf(buf, sizeof(buf), "\"%s_ms%s\": %.3f, \"%s_cpu_ms%s\": %.3f",
                  name, suffix, t.ms, name, suffix, t.cpuMs);
    return buf;
}

/**
 * Conv layer shapes worth timing, pulled from the zoo models: 3x3
 * layers, deduplicated by geometry, trimmed of the very large
 * early-ImageNet spatial extents so a full run stays in minutes. They
 * run at `batch`. The five convs of the repository benchmark's
 * training net (perfbench `train_sparse`: 32x32 input, pad 1) follow
 * at its batch of 32.
 */
std::vector<BenchLayer>
selectLayers(bool smoke, int64_t batch)
{
    std::vector<BenchLayer> out;
    if (smoke) {
        out.push_back({"smoke", "conv_small", 8, 8, 3, 1, 1, 10, batch});
        out.push_back(
            {"smoke", "conv_stride2", 8, 16, 3, 2, 1, 10, batch});
        return out;
    }
    auto harvest = [&out, batch](const arch::NetworkModel &m, size_t cap) {
        size_t taken = 0;
        for (const arch::LayerShape &l : m.layers) {
            if (l.type != arch::LayerType::Conv || l.R != 3)
                continue;
            if (l.P > 56 || l.C < 32)   // keep runtime bounded
                continue;
            // LayerShape::inH() inverts the conv map ignoring padding;
            // subtract the 'same'-style halo to get the real extent
            // (e.g. ResNet18 conv2 is 56x56, not 58x58).
            const int64_t pad = l.R / 2;
            const BenchLayer cand{m.name, l.name,   l.C,
                                  l.K,    l.R,      l.stride,
                                  pad,    l.inH() - 2 * pad, batch};
            const bool dup = std::any_of(
                out.begin(), out.end(), [&](const BenchLayer &b) {
                    return b.c == cand.c && b.k == cand.k &&
                           b.in_hw == cand.in_hw &&
                           b.stride == cand.stride;
                });
            if (dup)
                continue;
            out.push_back(cand);
            if (++taken >= cap)
                break;
        }
    };
    harvest(arch::buildResNet18(), 4);
    harvest(arch::buildVggS(), 3);
    out.push_back({"train_sparse", "conv1", 3, 16, 3, 1, 1, 32, 32});
    out.push_back({"train_sparse", "conv2", 16, 32, 3, 2, 1, 32, 32});
    out.push_back({"train_sparse", "conv3", 32, 32, 3, 1, 1, 16, 32});
    out.push_back({"train_sparse", "conv4", 32, 64, 3, 2, 1, 16, 32});
    out.push_back({"train_sparse", "conv5", 64, 64, 3, 1, 1, 8, 32});
    return out;
}

Row
benchOne(const BenchLayer &bl, bool smoke)
{
    Row row;
    row.layer = bl;
    const int64_t batch = bl.batch;
    row.batch = batch;

    nn::Conv2dConfig cfg;
    cfg.inChannels = bl.c;
    cfg.outChannels = bl.k;
    cfg.kernel = bl.kernel;
    cfg.stride = bl.stride;
    cfg.pad = bl.pad;
    nn::Conv2d naive(cfg, "naive");
    nn::Conv2d gemm(cfg, "gemm");
    naive.setBackend(kernels::KernelBackend::kNaive);
    gemm.setBackend(kernels::KernelBackend::kGemm);

    Xorshift128Plus rng(1234);
    naive.weight().value.fillGaussian(rng, 0.1f);
    gemm.weight().value = naive.weight().value;
    naive.bias().value.fillGaussian(rng, 0.1f);
    gemm.bias().value = naive.bias().value;

    Tensor x(Shape{batch, bl.c, bl.in_hw, bl.in_hw});
    x.fillGaussian(rng, 1.0f);

    const int64_t p = naive.outExtent(bl.in_hw);
    row.macs = static_cast<double>(batch) * bl.k * bl.c * bl.kernel *
               bl.kernel * p * p;

    Tensor dy(Shape{batch, bl.k, p, p});
    dy.fillGaussian(rng, 1.0f);

    const double min_ms = smoke ? 1.0 : 200.0;
    row.naive_fwd = timeMs([&] { naive.forward(x, true); }, min_ms);
    row.gemm_fwd = timeMs([&] { gemm.forward(x, true); }, min_ms);
    row.naive_bwd = timeMs([&] { naive.backward(dy); }, min_ms);
    row.gemm_bwd = timeMs([&] { gemm.backward(dy); }, min_ms);

    // 1-vs-N thread scaling of the batch-parallel gemm path. On a
    // 1-thread pool this is a no-op re-measurement, recorded anyway so
    // the JSON schema is uniform.
    if (ThreadPool::global().numThreads() > 1) {
        ThreadPool::resetGlobal(1);
        row.gemm_fwd_1t = timeMs([&] { gemm.forward(x, true); }, min_ms);
        row.gemm_bwd_1t = timeMs([&] { gemm.backward(dy); }, min_ms);
        ThreadPool::resetGlobal(0);   // back to env / hardware size
    } else {
        row.gemm_fwd_1t = row.gemm_fwd;
        row.gemm_bwd_1t = row.gemm_bwd;
    }

    // CSB sparse executors swept over paper-like weight densities. The
    // packed tap geometry is pre-built once per mask — exactly what the
    // layers cache across optimizer steps while the mask epoch holds —
    // so the timings measure the executor kernels proper.
    const double sweep_densities[] = {0.5, 0.2, 0.1};
    Tensor dw(naive.weight().value.shape());
    for (const double density : sweep_densities) {
        Tensor wsp = naive.weight().value;
        sparse::SyntheticMaskConfig mcfg;
        mcfg.targetDensity = density;
        mcfg.seed = 99;
        const sparse::SparsityMask mask = sparse::makeSyntheticMask(
            bl.k, bl.c, bl.kernel, bl.kernel, mcfg);
        for (int64_t i = 0; i < wsp.numel(); ++i) {
            if (!mask.bits[static_cast<size_t>(i)])
                wsp.at(i) = 0.0f;
        }
        const sparse::CsbTensor csb =
            sparse::CsbTensor::encodeConvFilters(wsp);
        const sparse::ConvTapPack pack = sparse::packConvTaps(
            csb, bl.in_hw, bl.in_hw, bl.stride, bl.pad);
        SweepPoint pt;
        pt.density = density;
        const auto time_phases = [&](SweepPoint *out) {
            out->sparse_fwd = timeMs(
                [&] {
                    sparse::sparseConvForward(x, csb, bl.stride, bl.pad,
                                              nullptr, &pack);
                },
                min_ms);
            out->sparse_bwd_data = timeMs(
                [&] {
                    sparse::sparseConvBackwardData(dy, csb, x.shape(),
                                                   bl.stride, bl.pad,
                                                   nullptr, &pack);
                },
                min_ms);
            out->sparse_bwd_weight = timeMs(
                [&] {
                    sparse::sparseConvBackwardWeights(
                        x, dy, csb, bl.stride, bl.pad, &dw, nullptr, &pack);
                },
                min_ms);
        };
        time_phases(&pt);
        pt.fwd_vs_gemm = row.gemm_fwd.ms / pt.sparse_fwd.ms;
        if (pt.sparse_fwd.ms < row.gemm_fwd.ms)
            row.crossover_density =
                std::max(row.crossover_density, density);
        if (pt.sparse_bwd_data.ms + pt.sparse_bwd_weight.ms <
            row.gemm_bwd.ms)
            row.crossover_density_bwd =
                std::max(row.crossover_density_bwd, density);
        if (density == 0.2) {
            // Headline columns keep the historical 80%-sparse point.
            row.sparse_density = density;
            row.sparse_fwd = pt.sparse_fwd;
            row.sparse_bwd_data = pt.sparse_bwd_data;
            row.sparse_bwd_weight = pt.sparse_bwd_weight;
            // The same cells on a 1-thread pool: process CPU at N
            // threads over these is what the pool costs each phase.
            SweepPoint one = pt;
            if (ThreadPool::global().numThreads() > 1) {
                ThreadPool::resetGlobal(1);
                time_phases(&one);
                ThreadPool::resetGlobal(0);
            }
            row.sparse_fwd_1t = one.sparse_fwd;
            row.sparse_bwd_data_1t = one.sparse_bwd_data;
            row.sparse_bwd_weight_1t = one.sparse_bwd_weight;
        }
        row.sweep.push_back(pt);
    }
    return row;
}

/** fc shapes worth timing (the model-zoo classifier heads). */
std::vector<FcRow>
selectFcLayers(bool smoke, int64_t batch)
{
    std::vector<FcRow> out;
    auto push = [&out, batch](const char *net, const char *name,
                              int64_t in_f, int64_t out_f) {
        FcRow r;
        r.net = net;
        r.name = name;
        r.in_f = in_f;
        r.out_f = out_f;
        r.batch = batch;
        out.push_back(r);
    };
    if (smoke) {
        push("smoke", "fc_small", 64, 32);
        return out;
    }
    push("VGG-S", "fc1", 512, 512);
    push("VGG-S", "fc2", 512, 10);
    push("MobileNet", "fc", 1280, 1000);
    return out;
}

FcRow
benchOneFc(FcRow row, bool smoke)
{
    nn::Linear gemm(row.in_f, row.out_f, "gemm");
    gemm.setBackend(kernels::KernelBackend::kGemm);
    Xorshift128Plus rng(4321);
    gemm.weight().value.fillGaussian(rng, 0.1f);
    gemm.bias().value.fillGaussian(rng, 0.1f);

    Tensor x(Shape{row.batch, row.in_f});
    x.fillGaussian(rng, 1.0f);
    // ReLU-like input zeros: the fc head sits behind rectified
    // features, which is what the bw-weight executor skips.
    for (int64_t i = 0; i < x.numel(); ++i) {
        if (x.at(i) < 0.0f)
            x.at(i) = 0.0f;
    }
    Tensor dy(Shape{row.batch, row.out_f});
    dy.fillGaussian(rng, 1.0f);

    const double min_ms = smoke ? 1.0 : 100.0;
    row.gemm_fwd = timeMs([&] { gemm.forward(x, true); }, min_ms);
    row.gemm_bwd = timeMs([&] { gemm.backward(dy); }, min_ms);

    // CSB executors at a paper-like 80% weight sparsity, on the 1x1
    // conv nn::Linear runs: [O, I, 1, 1] filters over the batch plane
    // [1, I, 1, N].
    row.sparse_density = 0.2;
    Tensor wsp = gemm.weight().value;
    sparse::SyntheticMaskConfig mcfg;
    mcfg.targetDensity = row.sparse_density;
    mcfg.seed = 77;
    const sparse::SparsityMask mask = sparse::makeSyntheticMask(
        row.out_f, row.in_f, 1, 1, mcfg);
    for (int64_t i = 0; i < wsp.numel(); ++i) {
        if (!mask.bits[static_cast<size_t>(i)])
            wsp.at(i) = 0.0f;
    }
    wsp.reshape(Shape{row.out_f, row.in_f, 1, 1});
    const sparse::CsbTensor csb = sparse::CsbTensor::encodeConvFilters(wsp);
    // A pre-built tap pack, as Linear caches it across steps: the
    // timings below are the executors plus the layout transposes each
    // phase pays, not the once-per-step encode.
    const sparse::ConvTapPack pack =
        sparse::packConvTaps(csb, 1, row.batch, 1, 0);
    Tensor xp(Shape{1, row.in_f, 1, row.batch});
    Tensor dyp(Shape{1, row.out_f, 1, row.batch});
    kernels::transpose(x.data(), row.batch, row.in_f, xp.data());
    kernels::transpose(dy.data(), row.batch, row.out_f, dyp.data());
    Tensor y(Shape{row.batch, row.out_f});
    Tensor dx(Shape{row.batch, row.in_f});
    Tensor dw(wsp.shape());
    // Every timed call tallies its executed MACs; the ratios below read
    // the last tally of each phase.
    int64_t fw_macs = 0, bw_data_macs = 0, bw_weight_macs = 0;
    row.sparse_fc_fwd = timeMs(
        [&] {
            kernels::transpose(x.data(), row.batch, row.in_f, xp.data());
            const Tensor yp =
                sparse::sparseConvForward(xp, csb, 1, 0, &fw_macs, &pack);
            kernels::transpose(yp.data(), row.out_f, row.batch, y.data());
        },
        min_ms);
    row.sparse_fc_bwd_data = timeMs(
        [&] {
            kernels::transpose(dy.data(), row.batch, row.out_f,
                               dyp.data());
            const Tensor dxp = sparse::sparseConvBackwardData(
                dyp, csb, xp.shape(), 1, 0, &bw_data_macs, &pack);
            kernels::transpose(dxp.data(), row.in_f, row.batch,
                               dx.data());
        },
        min_ms);
    row.sparse_fc_bwd_weight = timeMs(
        [&] {
            sparse::sparseConvBackwardWeights(xp, dyp, csb, 1, 0, &dw,
                                              &bw_weight_macs, &pack);
        },
        min_ms);

    const double dense =
        static_cast<double>(row.batch) * row.out_f * row.in_f;
    row.fw_mac_ratio = static_cast<double>(fw_macs) / dense;
    row.bw_data_mac_ratio = static_cast<double>(bw_data_macs) / dense;
    row.bw_weight_mac_ratio = static_cast<double>(bw_weight_macs) / dense;
    return row;
}

bool
emitJson(const std::vector<Row> &rows, const std::vector<FcRow> &fc_rows,
         const std::string &path, bool smoke)
{
    if (rows.empty()) {
        std::fprintf(stderr,
                     "no layers selected; refusing to write %s\n",
                     path.c_str());
        return false;
    }
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        return false;
    }
    double min_fwd = 1e30, geo_fwd = 0.0, geo_bwd = 0.0;
    double geo_tfwd = 0.0, geo_tbwd = 0.0;
    for (const Row &r : rows) {
        min_fwd = std::min(min_fwd, r.fwdSpeedup());
        geo_fwd += std::log(r.fwdSpeedup());
        geo_bwd += std::log(r.bwdSpeedup());
        geo_tfwd += std::log(r.threadFwdSpeedup());
        geo_tbwd += std::log(r.threadBwdSpeedup());
    }
    geo_fwd = std::exp(geo_fwd / static_cast<double>(rows.size()));
    geo_bwd = std::exp(geo_bwd / static_cast<double>(rows.size()));
    geo_tfwd = std::exp(geo_tfwd / static_cast<double>(rows.size()));
    geo_tbwd = std::exp(geo_tbwd / static_cast<double>(rows.size()));

    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"version\": 8,\n");
    std::fprintf(f, "  \"mode\": \"%s\",\n", smoke ? "smoke" : "full");
    std::fprintf(f, "  \"threads\": %d,\n",
                 ThreadPool::global().numThreads());
    std::fprintf(f, "  \"simd\": \"%s\",\n",
                 kernels::simdLevelName(kernels::activeSimdLevel()));
    bench::emitHostJson(f);
    std::fprintf(f, "  \"layers\": [\n");
    for (size_t i = 0; i < rows.size(); ++i) {
        const Row &r = rows[i];
        std::fprintf(
            f,
            "    {\"net\": \"%s\", \"layer\": \"%s\", \"N\": %lld, "
            "\"C\": %lld, \"K\": %lld, \"kernel\": %lld, "
            "\"stride\": %lld, \"pad\": %lld, \"in_hw\": %lld,\n"
            "     \"macs\": %.0f,\n"
            "     %s, %s, \"fwd_speedup\": %.2f,\n"
            "     %s, %s, \"bwd_speedup\": %.2f,\n"
            "     %s, %s,\n"
            "     \"thread_fwd_speedup\": %.2f, "
            "\"thread_bwd_speedup\": %.2f,\n"
            "     %s,\n     %s,\n     %s, \"sparse_density\": %.2f,\n"
            "     %s,\n     %s,\n     %s,\n"
            "     \"crossover_density\": %.2f, "
            "\"crossover_density_bwd\": %.2f,\n"
            "     \"sparse_sweep\": [",
            r.layer.net.c_str(), r.layer.name.c_str(),
            static_cast<long long>(r.batch),
            static_cast<long long>(r.layer.c),
            static_cast<long long>(r.layer.k),
            static_cast<long long>(r.layer.kernel),
            static_cast<long long>(r.layer.stride),
            static_cast<long long>(r.layer.pad),
            static_cast<long long>(r.layer.in_hw), r.macs,
            timingJson("naive_fwd", r.naive_fwd).c_str(),
            timingJson("gemm_fwd", r.gemm_fwd).c_str(), r.fwdSpeedup(),
            timingJson("naive_bwd", r.naive_bwd).c_str(),
            timingJson("gemm_bwd", r.gemm_bwd).c_str(), r.bwdSpeedup(),
            timingJson("gemm_fwd", r.gemm_fwd_1t, "_1t").c_str(),
            timingJson("gemm_bwd", r.gemm_bwd_1t, "_1t").c_str(),
            r.threadFwdSpeedup(), r.threadBwdSpeedup(),
            timingJson("sparse_fwd", r.sparse_fwd).c_str(),
            timingJson("sparse_bwd_data", r.sparse_bwd_data).c_str(),
            timingJson("sparse_bwd_weight", r.sparse_bwd_weight).c_str(),
            r.sparse_density,
            timingJson("sparse_fwd", r.sparse_fwd_1t, "_1t").c_str(),
            timingJson("sparse_bwd_data", r.sparse_bwd_data_1t, "_1t")
                .c_str(),
            timingJson("sparse_bwd_weight", r.sparse_bwd_weight_1t, "_1t")
                .c_str(),
            r.crossover_density, r.crossover_density_bwd);
        for (size_t j = 0; j < r.sweep.size(); ++j) {
            const SweepPoint &pt = r.sweep[j];
            std::fprintf(
                f,
                "\n       {\"density\": %.2f, %s,\n        %s,\n"
                "        %s, \"fwd_vs_gemm\": %.3f}%s",
                pt.density, timingJson("sparse_fwd", pt.sparse_fwd).c_str(),
                timingJson("sparse_bwd_data", pt.sparse_bwd_data).c_str(),
                timingJson("sparse_bwd_weight", pt.sparse_bwd_weight).c_str(),
                pt.fwd_vs_gemm,
                j + 1 < r.sweep.size() ? "," : "");
        }
        std::fprintf(f, "]}%s\n", i + 1 < rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"fc_layers\": [\n");
    for (size_t i = 0; i < fc_rows.size(); ++i) {
        const FcRow &r = fc_rows[i];
        std::fprintf(
            f,
            "    {\"net\": \"%s\", \"layer\": \"%s\", \"N\": %lld, "
            "\"in_features\": %lld, \"out_features\": %lld,\n"
            "     %s,\n     %s,\n     %s,\n     %s,\n     %s,\n"
            "     \"sparse_density\": %.2f,\n"
            "     \"fw_mac_ratio\": %.4f, \"bw_data_mac_ratio\": %.4f, "
            "\"bw_weight_mac_ratio\": %.4f}%s\n",
            r.net.c_str(), r.name.c_str(),
            static_cast<long long>(r.batch),
            static_cast<long long>(r.in_f),
            static_cast<long long>(r.out_f),
            timingJson("gemm_fwd", r.gemm_fwd).c_str(),
            timingJson("gemm_bwd", r.gemm_bwd).c_str(),
            timingJson("sparse_fc_fwd", r.sparse_fc_fwd).c_str(),
            timingJson("sparse_fc_bwd_data", r.sparse_fc_bwd_data).c_str(),
            timingJson("sparse_fc_bwd_weight", r.sparse_fc_bwd_weight)
                .c_str(),
            r.sparse_density, r.fw_mac_ratio,
            r.bw_data_mac_ratio, r.bw_weight_mac_ratio,
            i + 1 < fc_rows.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"summary\": {\"geomean_fwd_speedup\": %.2f, "
                    "\"geomean_bwd_speedup\": %.2f, "
                    "\"min_fwd_speedup\": %.2f,\n"
                    "              \"geomean_thread_fwd_speedup\": %.2f, "
                    "\"geomean_thread_bwd_speedup\": %.2f}\n",
                 geo_fwd, geo_bwd, min_fwd, geo_tfwd, geo_tbwd);
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string out = "BENCH_kernels.json";
    int64_t batch = 2;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out = argv[++i];
        } else if (std::strcmp(argv[i], "--batch") == 0 && i + 1 < argc) {
            batch = std::atoll(argv[++i]);
            if (batch <= 0) {
                std::fprintf(stderr, "--batch wants a positive integer, "
                                     "got '%s'\n", argv[i]);
                return 1;
            }
        } else {
            std::fprintf(stderr,
                         "usage: %s [--smoke] [--out PATH] [--batch N]\n",
                         argv[0]);
            return 1;
        }
    }
    if (smoke)
        batch = 1;

    std::printf("kernel backend bench: %d threads, batch %lld%s\n",
                ThreadPool::global().numThreads(),
                static_cast<long long>(batch), smoke ? " (smoke)" : "");
    std::printf("%-12s %-12s %19s | %10s %10s %7s | %10s %10s %7s | "
                "%10s | %7s\n",
                "net", "layer", "shape", "naive-fw", "gemm-fw", "spd",
                "naive-bw", "gemm-bw", "spd", "sparse-fw", "t-spd");

    std::vector<Row> rows;
    for (const BenchLayer &bl : selectLayers(smoke, batch)) {
        const Row r = benchOne(bl, smoke);
        char shape[32];
        std::snprintf(shape, sizeof(shape), "%lldx%lldx%lld s%lld",
                      static_cast<long long>(r.layer.c),
                      static_cast<long long>(r.layer.k),
                      static_cast<long long>(r.layer.in_hw),
                      static_cast<long long>(r.layer.stride));
        std::printf(
            "%-12s %-12s %19s | %8.1fms %8.1fms %6.1fx | %8.1fms "
            "%8.1fms %6.1fx | %8.1fms | %6.2fx\n",
            r.layer.net.c_str(), r.layer.name.c_str(), shape,
            r.naive_fwd.ms, r.gemm_fwd.ms, r.fwdSpeedup(),
            r.naive_bwd.ms, r.gemm_bwd.ms, r.bwdSpeedup(),
            r.sparse_fwd.ms, r.threadFwdSpeedup());
        rows.push_back(r);
    }

    std::printf("\nfc backend bench (CSB executors at density 0.2)\n");
    std::printf("%-10s %-10s %13s | %9s %9s | %9s %9s %9s | %17s\n",
                "net", "layer", "shape", "gemm-fw", "gemm-bw",
                "csb-fw", "csb-bwd", "csb-bww", "mac ratios");
    std::vector<FcRow> fc_rows;
    for (const FcRow &shape : selectFcLayers(smoke, smoke ? 8 : 32)) {
        const FcRow r = benchOneFc(shape, smoke);
        char fshape[32];
        std::snprintf(fshape, sizeof(fshape), "%lldx%lld b%lld",
                      static_cast<long long>(r.in_f),
                      static_cast<long long>(r.out_f),
                      static_cast<long long>(r.batch));
        std::printf("%-10s %-10s %13s | %7.2fms %7.2fms | %7.2fms "
                    "%7.2fms %7.2fms | %.2f/%.2f/%.2f\n",
                    r.net.c_str(), r.name.c_str(), fshape,
                    r.gemm_fwd.ms, r.gemm_bwd.ms, r.sparse_fc_fwd.ms,
                    r.sparse_fc_bwd_data.ms, r.sparse_fc_bwd_weight.ms,
                    r.fw_mac_ratio, r.bw_data_mac_ratio,
                    r.bw_weight_mac_ratio);
        fc_rows.push_back(r);
    }
    return emitJson(rows, fc_rows, out, smoke) ? 0 : 1;
}
