#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "common/rng.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/pooling.h"

namespace perfbench {

namespace nn = procrustes::nn;
using procrustes::kernels::KernelBackend;

void
RunResult::check(bool ok, int64_t ops, const std::string &what)
{
    if (ok)
        return;
    failed += std::max<int64_t>(ops, 1);
    if (failures.size() < 16)
        failures.push_back(what);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

bool
sameTensors(const std::vector<procrustes::Tensor> &a,
            const std::vector<procrustes::Tensor> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        const int64_t n = a[i].numel();
        if (n != b[i].numel() ||
            std::memcmp(a[i].data(), b[i].data(),
                        static_cast<size_t>(n) * sizeof(float)) != 0)
            return false;
    }
    return true;
}

bool
sameParams(nn::Network &a, nn::Network &b)
{
    // Tensors share storage, so the value lists are cheap views.
    const auto values = [](nn::Network &net) {
        std::vector<procrustes::Tensor> v;
        for (nn::Param *p : net.params())
            v.push_back(p->value);
        return v;
    };
    return sameTensors(values(a), values(b));
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

std::pair<nn::Dataset, nn::Dataset>
blobData(uint64_t seed, int64_t side, int64_t train_per_class,
         int64_t val_per_class)
{
    nn::BlobImageConfig cfg;
    cfg.numClasses = 10;
    cfg.channels = 3;
    cfg.height = side;
    cfg.width = side;
    cfg.noiseStd = 1.0f;
    cfg.seed = seed;
    cfg.samplesPerClass = train_per_class;
    cfg.sampleSeed = 2 * seed + 1;
    nn::Dataset train = nn::makeBlobImages(cfg);
    cfg.samplesPerClass = val_per_class;
    cfg.sampleSeed = 2 * seed + 2;
    return {std::move(train), nn::makeBlobImages(cfg)};
}

CnnSpec
mainNet(bool sparse)
{
    CnnSpec s;
    s.convs = {{16, 1}, {32, 2}, {32, 1}, {64, 2}, {64, 1}};
    s.sparse = sparse;
    return s;
}

void
buildCnn(nn::Network &net, const CnnSpec &spec, uint64_t seed,
         Tracer *tracer)
{
    const KernelBackend backend =
        spec.sparse ? KernelBackend::kSparse : KernelBackend::kGemm;
    int64_t in = 3;
    for (size_t i = 0; i < spec.convs.size(); ++i) {
        const std::string id = std::to_string(i + 1);
        nn::Conv2dConfig c;
        c.inChannels = in;
        c.outChannels = spec.convs[i].out;
        c.kernel = 3;
        c.stride = spec.convs[i].stride;
        c.pad = 1;
        c.bias = false;
        auto conv = std::make_unique<nn::Conv2d>(c, "conv" + id);
        conv->setBackend(backend);
        net.add<TracedLayer>(std::move(conv), "nn.conv.conv" + id, tracer);
        net.add<TracedLayer>(
            std::make_unique<nn::BatchNorm2d>(c.outChannels, "bn" + id),
            "nn.batchnorm", tracer);
        net.add<TracedLayer>(std::make_unique<nn::ReLU>("relu" + id),
                             "nn.relu", tracer);
        in = c.outChannels;
    }
    net.add<TracedLayer>(std::make_unique<nn::GlobalAvgPool>("gap"),
                         "nn.pool", tracer);
    auto fc = std::make_unique<nn::Linear>(in, spec.classes, "fc");
    fc->setBackend(backend);
    net.add<TracedLayer>(std::move(fc), "nn.linear", tracer);
    procrustes::Xorshift128Plus rng(seed);
    nn::kaimingInit(net, rng);
}

void
finishTrace(const Tracer &tracer, const Options &opt)
{
    for (const auto &kv : tracer.selfMsByModule())
        std::fprintf(stderr, "self time %-9s %10.3f ms\n", kv.first.c_str(),
                     kv.second);
    if (opt.spansPath.empty())
        return;
    const std::string header = "{\"workload\": \"" + opt.workload +
                               "\", \"seed\": " + std::to_string(opt.seed) +
                               "}";
    if (!tracer.writeJson(opt.spansPath, header))
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     opt.spansPath.c_str());
}

double
peakRssMb()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof(ru));
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;   // KiB on Linux
}

} // namespace perfbench
