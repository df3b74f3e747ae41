/**
 * @file
 * Optimizer interface and the plain-SGD baseline.
 *
 * The dense-SGD optimizer is the paper's accuracy baseline (the
 * "baseline (SGD)" curves in Figures 15 and 16); the Dropback family in
 * src/sparse/ implements the same interface.
 */

#ifndef PROCRUSTES_NN_SGD_H_
#define PROCRUSTES_NN_SGD_H_

#include <vector>

#include "nn/layer.h"

namespace procrustes {
namespace nn {

/** Base class for weight-update rules. */
class Optimizer
{
  public:
    virtual ~Optimizer() = default;

    /** Apply one update step using the gradients in params. */
    virtual void step(const std::vector<Param *> &params) = 0;

    /** Steps taken so far. */
    int64_t iteration() const { return iteration_; }

    /**
     * @name Optimizer-state checkpoint contract.
     *
     * An optimizer carries trajectory state beyond the weights it
     * updates (step counter, momentum velocity, pruning masks). The
     * job-service checkpoint captures it here as raw bit images so a
     * restored optimizer continues bitwise-identically. stateKind()
     * tags the payload so a snapshot taken with one update rule cannot
     * be silently fed to another; checkpointComplete() lets the
     * checkpoint layer WARN when an optimizer has not opted into the
     * contract (its payload would restore the step counter only).
     */
    /**@{*/
    virtual const char *stateKind() const { return "optimizer_base"; }

    virtual bool checkpointComplete() const { return false; }

    virtual void
    serializeState(ByteWriter &w) const
    {
        w.writeI64(iteration_);
    }

    virtual void
    restoreState(ByteReader &r)
    {
        iteration_ = r.readI64();
    }
    /**@}*/

  protected:
    int64_t iteration_ = 0;
};

/** Classic SGD with optional momentum. */
class Sgd : public Optimizer
{
  public:
    /** lr: learning rate; momentum: 0 disables the velocity buffer. */
    explicit Sgd(float lr, float momentum = 0.0f);

    void step(const std::vector<Param *> &params) override;

    const char *stateKind() const override { return "sgd"; }
    bool checkpointComplete() const override { return true; }
    void serializeState(ByteWriter &w) const override;
    void restoreState(ByteReader &r) override;

  private:
    float lr_;
    float momentum_;
    std::vector<Tensor> velocity_;   //!< lazily sized to params
};

} // namespace nn
} // namespace procrustes

#endif // PROCRUSTES_NN_SGD_H_
