#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

/**
 * @file
 * The benchmark's three workloads. Each one is a closed loop driven
 * from this process: `workers` threads each take the next job when
 * their current one completes. The spec list of every round is a pure
 * function of (workload, seed, round). The timed phase runs whole
 * rounds until --seconds have been measured; set-up, output checks and
 * store clean-up between rounds run outside the timed windows.
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "lab/jobspec.hpp"
#include "lab/store.hpp"

namespace perfbench
{

struct Options {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string fault;      ///< Injected fault ("" = none).
    bool tiny = false;      ///< Test-sized specs (not a measured workload).
    int workers = 1;
    std::string workDir;    ///< Private working directory of this run.
};

/** One job the timed phase attempted. */
struct Job {
    vepro::lab::JobSpec spec;
    vepro::lab::JobResult result;
    size_t round = 0;
};

/** Orchestrator counters summed over the timed rounds. */
struct LabCounts {
    size_t requested = 0;
    size_t cacheHits = 0;
    size_t encoderRuns = 0;
    size_t traceCaptures = 0;
    size_t traceReplays = 0;
};

/** Output-check failures (each one counts as a failed operation). */
struct Checks {
    std::vector<std::string> failures;
    void fail(const std::string &what) { failures.push_back(what); }
};

/** Counts gathered by the traced pass beside its spans. */
struct TracedCounts {
    uint64_t splitInstructions = 0;  ///< Σ instructions of split encodes.
    uint64_t recordedOps = 0;        ///< Ops the counting sink received.
    uint64_t droppedOps = 0;
    uint64_t captureBytes = 0;       ///< Trace bytes written (timed).
    uint64_t captureOps = 0;
    uint64_t replayedOps = 0;
    uint64_t simInstructions = 0;    ///< Σ CoreStats.instructions.

    TracedCounts &
    operator+=(const TracedCounts &o)
    {
        splitInstructions += o.splitInstructions;
        recordedOps += o.recordedOps;
        droppedOps += o.droppedOps;
        captureBytes += o.captureBytes;
        captureOps += o.captureOps;
        replayedOps += o.replayedOps;
        simInstructions += o.simInstructions;
        return *this;
    }
};

class Workload
{
  public:
    explicit Workload(Options opts) : opts_(std::move(opts)) {}
    virtual ~Workload() = default;

    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** The specs of timed round @p round, in dispatch order. */
    virtual std::vector<vepro::lab::JobSpec> roundSpecs(size_t round) const = 0;
    /** How many times set-up runs (setup_s is their median). */
    virtual int setupReps() const { return 9; }
    /** One complete, fresh set-up (each call discards the previous). */
    virtual void setup() = 0;
    /** Untimed preparation of a round (fresh stores, requests). */
    virtual void prepareRound(size_t round) { (void)round; }
    /** The timed work of one round. */
    virtual std::vector<Job> runRound(size_t round) = 0;
    /** Untimed output checks of one round. */
    virtual void checkRound(const std::vector<Job> &jobs, Checks &checks) = 0;
    /** Set-up again with spans (Phase::Setup). */
    virtual void tracedSetup() = 0;
    /** Redo one round's @p jobs with spans around every layer call;
     *  job ids in the spans start at @p first_id. */
    virtual void tracedJobs(const std::vector<Job> &jobs, size_t first_id,
                            TracedCounts &counts) = 0;
    /** Re-run every splitStride()-th job's encode with op collection
     *  off and into a counting sink (Phase::Split). */
    void splitEncodes(const std::vector<Job> &jobs, TracedCounts &counts);
    /** 1 = split every job, k = every k-th, 0 = none (no encodes). */
    virtual size_t splitStride() const { return 1; }

    const LabCounts &labCounts() const { return lab_; }
    const Options &options() const { return opts_; }
    /** FNV-1a over the set-up's input clips ("" when none). */
    const std::string &inputsDigest() const { return inputs_digest_; }

  protected:
    Options opts_;
    LabCounts lab_;
    std::string inputs_digest_;
};

/** @throws std::invalid_argument for an unknown workload or fault. */
std::unique_ptr<Workload> makeWorkload(const Options &opts);

/** Exact text of a result's simulated and encode numbers; host times
 *  (wall seconds) only when @p host_times. */
std::string resultText(const vepro::lab::JobResult &result, bool host_times);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
