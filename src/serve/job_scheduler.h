/**
 * @file
 * Fair-share scheduler multiplexing training jobs over the shared pool.
 *
 * The service grants each tenant epoch-granularity time slices: every
 * round, the unfinished jobs that have completed the fewest epochs run
 * one epoch each (ties broken by submission order), concurrently as
 * tasks on ThreadPool::global(). Nested parallelFor calls run inline
 * on the pool (common/thread_pool.h), so each job's kernels execute
 * single-threaded inside its task — job-level parallelism replaces
 * kernel-level parallelism, exactly the shard-engine trade. When a
 * round selects a single job it runs inline on the caller, keeping
 * kernel parallelism for the solo case.
 *
 * Fairness invariant: the epoch spread among unfinished jobs never
 * exceeds one, regardless of maxConcurrent or mixed job lengths.
 *
 * Determinism: jobs share no mutable state (datasets are read-only,
 * one network/optimizer per job, one StatsWriter per job), so each
 * job's trajectory is bitwise identical to running it alone at any
 * thread count.
 */

#ifndef PROCRUSTES_SERVE_JOB_SCHEDULER_H_
#define PROCRUSTES_SERVE_JOB_SCHEDULER_H_

#include <memory>
#include <vector>

#include "serve/training_job.h"

namespace procrustes {
namespace serve {

/** Scheduler configuration. */
struct SchedulerConfig
{
    /** Jobs run per round; 0 = every unfinished job. */
    int maxConcurrent = 0;
};

/** Round-based fair-share multiplexer for TrainingJobs. */
class JobScheduler
{
  public:
    explicit JobScheduler(const SchedulerConfig &cfg = {});

    /** Take ownership of a job; returns a stable handle to it. */
    TrainingJob *addJob(std::unique_ptr<TrainingJob> job);

    /**
     * Run one scheduling round: the least-advanced unfinished jobs
     * (at most maxConcurrent) each advance by one epoch. Returns the
     * number of jobs that ran (0 when all jobs are finished).
     */
    int runRound();

    /** Run rounds until every job is finished. */
    void runAll();

    bool allFinished() const;
    int64_t roundsExecuted() const { return rounds_; }
    TrainingJob *job(size_t i) { return jobs_.at(i).get(); }

  private:
    SchedulerConfig cfg_;
    std::vector<std::unique_ptr<TrainingJob>> jobs_;
    int64_t rounds_ = 0;
};

} // namespace serve
} // namespace procrustes

#endif // PROCRUSTES_SERVE_JOB_SCHEDULER_H_
