#include "tracer.h"

#include <time.h>

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace perfbench {

using procrustes::Tensor;
namespace nn = procrustes::nn;

namespace {

double
cpuClockMs(clockid_t id)
{
    timespec ts;
    PROCRUSTES_ASSERT(clock_gettime(id, &ts) == 0, "CPU clock unavailable");
    return static_cast<double>(ts.tv_sec) * 1e3 +
           static_cast<double>(ts.tv_nsec) * 1e-6;
}

} // namespace

double
processCpuMs()
{
    return cpuClockMs(CLOCK_PROCESS_CPUTIME_ID);
}

double
threadCpuMs()
{
    return cpuClockMs(CLOCK_THREAD_CPUTIME_ID);
}

int
Tracer::open(const std::string &name)
{
    const double now = nowMs();
    const int idx = add(name, now, now, stack_.empty() ? -1 : stack_.back());
    stack_.push_back(idx);
    return idx;
}

void
Tracer::close(int idx)
{
    PROCRUSTES_ASSERT(!stack_.empty() && stack_.back() == idx,
                      "spans must close innermost first");
    spans_[static_cast<size_t>(idx)].endMs = nowMs();
    stack_.pop_back();
}

void
Tracer::rename(int idx, const std::string &name)
{
    spans_.at(static_cast<size_t>(idx)).name = name;
}

int
Tracer::add(const std::string &name, double start_ms, double end_ms,
            int parent)
{
    const int idx = static_cast<int>(spans_.size());
    spans_.push_back({name, start_ms, end_ms, parent});
    kids_.emplace_back();
    if (parent >= 0)
        kids_[static_cast<size_t>(parent)].push_back(idx);
    return idx;
}

std::vector<int>
Tracer::children(int idx) const
{
    std::vector<int> kids = kids_.at(static_cast<size_t>(idx));
    std::sort(kids.begin(), kids.end(), [this](int a, int b) {
        return spans_[static_cast<size_t>(a)].startMs <
               spans_[static_cast<size_t>(b)].startMs;
    });
    return kids;
}

namespace {

/** Length of the union of `kids` intervals clipped to [lo, hi]. */
double
coveredMs(const std::vector<Span> &spans, const std::vector<int> &kids,
          double lo, double hi)
{
    double covered = 0.0;
    double reach = lo;
    for (int k : kids) {
        const Span &c = spans[static_cast<size_t>(k)];
        const double s = std::max(c.startMs, reach);
        const double e = std::min(c.endMs, hi);
        if (e > s) {
            covered += e - s;
            reach = e;
        }
    }
    return covered;
}

} // namespace

double
Tracer::selfMs(int idx) const
{
    const Span &s = spans_.at(static_cast<size_t>(idx));
    return s.durationMs() -
           coveredMs(spans_, children(idx), s.startMs, s.endMs);
}

std::map<std::string, double>
Tracer::selfMsByModule() const
{
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        const std::string &name = spans_[i].name;
        out[name.substr(0, name.find('.'))] += selfMs(static_cast<int>(i));
    }
    return out;
}

bool
Tracer::writeJson(const std::string &path,
                  const std::string &header_json) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"header\": %s,\n \"self_ms_by_module\": {",
                 header_json.c_str());
    bool first = true;
    for (const auto &kv : selfMsByModule()) {
        std::fprintf(f, "%s\"%s\": %.6f", first ? "" : ", ",
                     kv.first.c_str(), kv.second);
        first = false;
    }
    std::fprintf(f, "},\n \"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, "
                     "\"end_ms\": %.6f, \"parent\": %d}%s\n",
                     i, s.name.c_str(), s.startMs, s.endMs, s.parent,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, " ]}\n");
    return std::fclose(f) == 0;
}

TracedLayer::TracedLayer(std::unique_ptr<nn::Layer> inner,
                         const std::string &span, Tracer *tracer)
    : inner_(std::move(inner)), fwSpan_(span + ".fw"),
      bwSpan_(span + ".bw"), tracer_(tracer)
{}

Tensor
TracedLayer::forward(const Tensor &x, bool training)
{
    ScopedSpan s(training ? tracer_ : nullptr, fwSpan_.c_str());
    return inner_->forward(x, training);
}

Tensor
TracedLayer::backward(const Tensor &dy)
{
    ScopedSpan s(tracer_, bwSpan_.c_str());
    return inner_->backward(dy);
}

std::vector<nn::Param *>
TracedLayer::params()
{
    return inner_->params();
}

bool
TracedLayer::stepReport(nn::LayerStepReport *out) const
{
    return inner_->stepReport(out);
}

void
TracedLayer::serializeState(procrustes::ByteWriter &w) const
{
    inner_->serializeState(w);
}

void
TracedLayer::restoreState(procrustes::ByteReader &r)
{
    inner_->restoreState(r);
}

StepClock::StepClock(nn::Optimizer &inner, Tracer *tracer)
    : inner_(inner), tracer_(tracer)
{}

void
StepClock::beginEpoch()
{
    stepMs_.clear();
    stepCpuMs_.clear();
    callbackMs_ = 0.0;
    stepStart_ = Clock::now();
    stepCpuStart_ = processCpuMs();
    openSpan_ = tracer_ && tracer_->active() ? tracer_->open("nn.step")
                                              : -1;
}

void
StepClock::step(const std::vector<nn::Param *> &params)
{
    {
        ScopedSpan s(tracer_, "nn.opt_step");
        inner_.step(params);
    }
    stepMs_.push_back(msBetween(stepStart_, Clock::now()));
    stepCpuMs_.push_back(processCpuMs() - stepCpuStart_);
    if (openSpan_ >= 0)
        tracer_->close(openSpan_);
    if (after_) {
        const Clock::time_point t0 = Clock::now();
        after_();
        after_ = nullptr;
        callbackMs_ += msBetween(t0, Clock::now());
    }
    stepStart_ = Clock::now();
    stepCpuStart_ = processCpuMs();
    if (openSpan_ >= 0)
        openSpan_ = tracer_->open("nn.step");
}

double
StepClock::endEpoch()
{
    tailCpuMs_ = processCpuMs() - stepCpuStart_;
    const double tail = msBetween(stepStart_, Clock::now());
    if (openSpan_ >= 0) {
        tracer_->rename(openSpan_, "nn.validate");
        tracer_->close(openSpan_);
        openSpan_ = -1;
    }
    return tail;
}

} // namespace perfbench
