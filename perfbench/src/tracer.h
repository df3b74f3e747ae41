/**
 * @file
 * In-memory span tracer for the benchmark's traced runs.
 *
 * Spans are recorded from the benchmark's own code around calls into
 * the library's public functions: a span has a name, a start, an end
 * and the span that was open when it began (its parent). Nothing is
 * written until the run ends. A layer's self time is its duration
 * minus the part of it that its child spans cover.
 *
 * The tracer is single-threaded by design: every span is opened and
 * closed on the thread that drives the benchmark loop. Work the
 * library fans out onto its thread pool is covered by the caller's
 * span.
 */

#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "nn/layer.h"
#include "nn/sgd.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds from a to b. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/**
 * CPU time used so far by every thread of this process, ms. Time a
 * thread spends waiting (for a CPU, a lock, or a vCPU the hypervisor
 * has taken away — the kernel subtracts steal from task time) is not
 * counted, so differences measure the work done, not the host's load.
 */
double processCpuMs();

/** CPU time used so far by the calling thread, ms (same rules). */
double threadCpuMs();

/** One recorded interval; times are ms since the tracer's origin. */
struct Span
{
    std::string name;
    double startMs = 0.0;
    double endMs = 0.0;
    int parent = -1;   //!< index of the enclosing span, -1 for roots

    double durationMs() const { return endMs - startMs; }
};

/** Records spans while active; inactive tracers cost one branch. */
class Tracer
{
  public:
    Tracer() : origin_(Clock::now()) {}

    bool active() const { return active_; }
    void setActive(bool on) { active_ = on; }

    /** Open a span now, child of the innermost open span. */
    int open(const std::string &name);

    /** Close the innermost open span (must be `idx`). */
    void close(int idx);

    /** Rename a recorded span (e.g. a step that turned out to be the
        epoch's validation tail). */
    void rename(int idx, const std::string &name);

    /** Add a closed span with explicit times under `parent`. */
    int add(const std::string &name, double start_ms, double end_ms,
            int parent);

    double nowMs() const { return msBetween(origin_, Clock::now()); }

    const std::vector<Span> &spans() const { return spans_; }

    /** Indices of the direct children of span `idx`, in start order. */
    std::vector<int> children(int idx) const;

    /**
     * Self time of span `idx`: its duration minus the union of its
     * children's intervals clipped to it.
     */
    double selfMs(int idx) const;

    /** Self time (selfMs) summed per module: the name's first dot
        segment. */
    std::map<std::string, double> selfMsByModule() const;

    /** Write every span as a JSON document; false on I/O failure. */
    bool writeJson(const std::string &path,
                   const std::string &header_json) const;

  private:
    Clock::time_point origin_;
    bool active_ = false;
    std::vector<Span> spans_;
    std::vector<std::vector<int>> kids_;   //!< direct children per span
    std::vector<int> stack_;
};

/** RAII span; a null or inactive tracer records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const char *name)
        : tracer_(tracer && tracer->active() ? tracer : nullptr),
          idx_(tracer_ ? tracer_->open(name) : -1)
    {}
    ~ScopedSpan()
    {
        if (tracer_)
            tracer_->close(idx_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    Tracer *tracer_;
    int idx_;
};

/**
 * Forwarding decorator around one network layer. Training-mode
 * forward/backward calls record spans `<span>.fw` / `<span>.bw` when
 * the tracer is active; inference calls (validation) are covered by
 * the caller's validation span instead. Every other Layer call passes
 * straight through, so a wrapped network trains, reports and
 * checkpoints exactly like the bare one.
 */
class TracedLayer : public procrustes::nn::Layer
{
  public:
    TracedLayer(std::unique_ptr<procrustes::nn::Layer> inner,
                const std::string &span, Tracer *tracer);

    procrustes::Tensor forward(const procrustes::Tensor &x,
                               bool training) override;
    procrustes::Tensor backward(const procrustes::Tensor &dy) override;
    std::vector<procrustes::nn::Param *> params() override;
    std::string name() const override { return inner_->name(); }
    bool stepReport(procrustes::nn::LayerStepReport *out) const override;
    void serializeState(procrustes::ByteWriter &w) const override;
    void restoreState(procrustes::ByteReader &r) override;

  private:
    std::unique_ptr<procrustes::nn::Layer> inner_;
    std::string fwSpan_;
    std::string bwSpan_;
    Tracer *tracer_;
};

/**
 * Optimizer decorator that marks training-step boundaries inside
 * nn::trainNetwork: a step runs from the previous step's optimizer
 * update (or the epoch's start) to the end of its own update. Untraced
 * it only reads the clock; traced it also records `nn.step` spans
 * (parents of the layer spans) and an `nn.opt_step` span per update.
 */
class StepClock : public procrustes::nn::Optimizer
{
  public:
    StepClock(procrustes::nn::Optimizer &inner, Tracer *tracer);

    /** Call right before trainNetwork; opens the first step. */
    void beginEpoch();

    /**
     * Call right after trainNetwork returns: the interval since the
     * last update is the epoch's validation tail. Returns its ms.
     */
    double endEpoch();

    void step(const std::vector<procrustes::nn::Param *> &params) override;

    /** Durations of the steps closed since the last beginEpoch(). */
    const std::vector<double> &stepMs() const { return stepMs_; }

    /** The same steps' process CPU time (processCpuMs). */
    const std::vector<double> &stepCpuMs() const { return stepCpuMs_; }

    /** Process CPU time of the last endEpoch()'s validation tail. */
    double tailCpuMs() const { return tailCpuMs_; }

    /**
     * Run `fn` right after the next optimizer update, outside every
     * step's interval (used to sample layer telemetry without charging
     * it to a step).
     */
    void afterNextStep(std::function<void()> fn) { after_ = std::move(fn); }

    /** Time spent in afterNextStep callbacks since beginEpoch(). */
    double callbackMs() const { return callbackMs_; }

  private:
    procrustes::nn::Optimizer &inner_;
    Tracer *tracer_;
    Clock::time_point stepStart_;
    double stepCpuStart_ = 0.0;
    int openSpan_ = -1;
    std::vector<double> stepMs_;
    std::vector<double> stepCpuMs_;
    double tailCpuMs_ = 0.0;
    std::function<void()> after_;
    double callbackMs_ = 0.0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H_
