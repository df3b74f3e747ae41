#include "arch/workload_trace.h"

#include "common/logging.h"

namespace procrustes {
namespace arch {

namespace {

/** Map a trainable layer's report onto a cost-model LayerShape. */
LayerShape
shapeFromReport(const nn::LayerStepReport &r)
{
    LayerShape s;
    s.name = r.layerName;
    s.type = r.kind == nn::LayerStepReport::Kind::Linear
                 ? LayerType::FullyConnected
                 : LayerType::Conv;
    s.K = r.K;
    s.C = r.C;
    s.R = r.R;
    s.S = r.S;
    s.P = r.P;
    s.Q = r.Q;
    s.stride = r.stride;
    return s;
}

/** Running scalar mean. */
double
meanInto(double acc, double v, int64_t count)
{
    const double n = static_cast<double>(count);
    return acc * ((n - 1.0) / n) + v / n;
}

} // namespace

double
LayerTrace::fwMacsPerStep() const
{
    return steps ? static_cast<double>(fwMacs) /
                       static_cast<double>(steps)
                 : 0.0;
}

double
LayerTrace::bwDataMacsPerStep() const
{
    return steps ? static_cast<double>(bwDataMacs) /
                       static_cast<double>(steps)
                 : 0.0;
}

double
LayerTrace::bwWeightMacsPerStep() const
{
    return steps ? static_cast<double>(bwWeightMacs) /
                       static_cast<double>(steps)
                 : 0.0;
}

double
EpochTrace::totalMacsPerStep() const
{
    double total = 0.0;
    for (const LayerTrace &l : layers) {
        total += l.fwMacsPerStep() + l.bwDataMacsPerStep() +
                 l.bwWeightMacsPerStep();
    }
    return total;
}

double
EpochTrace::meanIactDensity() const
{
    double weighted = 0.0;
    double weight = 0.0;
    for (const LayerTrace &l : layers) {
        const double w = static_cast<double>(l.shape.macsPerSample());
        weighted += l.iacts.mean * w;
        weight += w;
    }
    return weight > 0.0 ? weighted / weight : 1.0;
}

int64_t
EpochTrace::totalCsbWeightBytes() const
{
    int64_t total = 0;
    for (const LayerTrace &l : layers)
        total += l.csbWeightBytes;
    return total;
}

int64_t
EpochTrace::totalDenseWeightBytes() const
{
    int64_t total = 0;
    for (const LayerTrace &l : layers)
        total += l.denseWeightBytes;
    return total;
}

int64_t
EpochTrace::totalExchangeCompressedBytes() const
{
    int64_t total = 0;
    for (const LayerTrace &l : layers)
        total += l.exchangeCompressedBytes;
    return total;
}

int64_t
EpochTrace::totalExchangeDenseBytes() const
{
    int64_t total = 0;
    for (const LayerTrace &l : layers)
        total += l.exchangeDenseBytes;
    return total;
}

double
EpochTrace::meanWeightDensity() const
{
    int64_t nnz = 0;
    int64_t total = 0;
    for (const LayerTrace &l : layers) {
        nnz += l.mask.nnz();
        total += l.mask.numel();
    }
    return total ? static_cast<double>(nnz) / static_cast<double>(total)
                 : 1.0;
}

void
WorkloadTrace::accumulateMean(std::vector<double> *acc,
                              const std::vector<double> &v, int64_t count)
{
    if (count == 1) {
        *acc = v;
        return;
    }
    if (acc->size() != v.size()) {
        // Ragged step (e.g. a caller that does not drop short final
        // batches): slot i no longer means the same thing across
        // steps, so per-slot means are unrecoverable — drop them for
        // the rest of the epoch (stays empty: future sizes cannot
        // match either) and let the wave plan fall back to the scalar
        // mean.
        acc->clear();
        return;
    }
    const double n = static_cast<double>(count);
    for (size_t i = 0; i < v.size(); ++i)
        (*acc)[i] = (*acc)[i] * ((n - 1.0) / n) + v[i] / n;
}

void
WorkloadTrace::observe(const nn::StepTelemetry &t)
{
    if (epochs_.empty() ||
        epochs_.back().epoch != t.epoch) {
        PROCRUSTES_ASSERT(epochs_.empty() ||
                              t.epoch > epochs_.back().epoch,
                          "telemetry epochs must arrive in order");
        EpochTrace e;
        e.epoch = t.epoch;
        e.batchSize = t.batchSize;
        epochs_.push_back(std::move(e));
    }
    EpochTrace &e = epochs_.back();
    ++e.steps;
    e.meanLoss = meanInto(e.meanLoss, t.batchLoss, e.steps);

    // Only trainable layers with MAC telemetry become trace rows;
    // activation layers already show up as their consumer's measured
    // input density.
    size_t row = 0;
    for (const nn::LayerStepReport &r : t.reports) {
        if (!r.hasMacs || !r.hasMask)
            continue;
        if (row >= e.layers.size()) {
            PROCRUSTES_ASSERT(e.steps == 1,
                              "layer set changed mid-epoch");
            LayerTrace l;
            l.name = r.layerName;
            e.layers.push_back(std::move(l));
        }
        LayerTrace &l = e.layers[row];
        ++row;
        PROCRUSTES_ASSERT(l.name.empty() || l.name == r.layerName,
                          "layer order changed mid-epoch");
        l.shape = shapeFromReport(r);
        l.mask = r.mask;   // last writer wins: epoch-final mask
        if (r.hasWeightBytes) {
            // Same last-writer-wins convention as the mask: the bytes
            // describe the epoch-final compressed weight image.
            l.csbWeightBytes = r.csbWeightBytes;
            l.denseWeightBytes = r.denseWeightBytes;
        }
        if (r.hasExchange) {
            // Wire traffic sums over the epoch (unlike the footprint
            // fields above, which are snapshots): each step's
            // allreduce actually moved these bytes.
            l.exchangeCompressedBytes += r.exchangeCompressedBytes;
            l.exchangeDenseBytes += r.exchangeDenseBytes;
        }
        // A single dense-executed step poisons the epoch's counts for
        // sparse-accelerator purposes, so AND across steps.
        l.sparseExecuted =
            (l.steps == 0 || l.sparseExecuted) && r.sparseExecuted;
        ++l.steps;
        l.iacts.mean = meanInto(l.iacts.mean, r.inputDensity, l.steps);
        l.oactDensity = meanInto(l.oactDensity, r.outputDensity, l.steps);
        accumulateMean(&l.iacts.perSample, r.inputSampleDensity, l.steps);
        accumulateMean(&l.iacts.perSampleHalf, r.inputSampleHalfDensity,
                       l.steps);
        accumulateMean(&l.iacts.perChannel, r.inputChannelDensity,
                       l.steps);
        accumulateMean(&l.iacts.perRow, r.inputRowDensity, l.steps);
        accumulateMean(&l.iacts.perCol, r.inputColDensity, l.steps);
        l.fwMacs += r.fwMacs;
        l.bwDataMacs += r.bwDataMacs;
        l.bwWeightMacs += r.bwWeightMacs;
    }
    PROCRUSTES_ASSERT(row == e.layers.size(),
                      "trainable layer count changed mid-epoch");
}

const EpochTrace &
WorkloadTrace::epoch(size_t i) const
{
    PROCRUSTES_ASSERT(i < epochs_.size(), "epoch index out of range");
    return epochs_[i];
}

const EpochTrace &
WorkloadTrace::lastEpoch() const
{
    PROCRUSTES_ASSERT(!epochs_.empty(), "no epochs observed");
    return epochs_.back();
}

} // namespace arch
} // namespace procrustes
