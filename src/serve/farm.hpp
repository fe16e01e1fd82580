#ifndef VEPRO_SERVE_FARM_HPP
#define VEPRO_SERVE_FARM_HPP

/**
 * @file
 * Discrete-event encode-farm simulator and its SLA metrics layer.
 *
 * The farm models a pool of multi-core servers, one or more groups of
 * machines sharing a backend profile, behind one earliest-deadline-
 * first queue with admission control. Arrivals come from
 * serve::generateTraffic; per-job service times and energy come from a
 * CostOracle (serve::CostModel in production — real encoder-model
 * numbers, cache-first through the ResultStore) for the backend of the
 * server that runs the job; the preset each job runs at is chosen by a
 * serve::Policy at dispatch time, for that same server.
 *
 * The simulation itself is single-threaded and pure: the outcome is a
 * function of (arrivals, config, policy, oracle) only — never of the
 * host's --jobs value, which parallelises only the cost resolution.
 * That is what makes the SLA table byte-identical across worker counts
 * (pinned in tests/test_serve.cpp).
 *
 * SLA definitions:
 *  - queue latency   = dispatch - arrival (seconds waiting, excluding
 *    service); reported as p50/p99 over completed jobs;
 *  - deadline miss   = completion > arrival + latencyTargetSec;
 *    missRate = misses / completed;
 *  - throughput      = completed jobs per simulated minute, over the
 *    horizon max(window end, last completion);
 *  - preset switches = dispatches whose chosen preset differs from the
 *    previous dispatch's (0 for any static policy by construction);
 *  - rejected        = arrivals turned away by admission control
 *    (queue already at admissionLimit); rejected jobs never enter the
 *    latency population.
 */

#include <cstddef>
#include <string>
#include <vector>

#include "core/report.hpp"
#include "serve/policy.hpp"
#include "serve/traffic.hpp"

namespace vepro::serve
{

/** Farm shape and SLA contract. */
struct FarmConfig {
    /** Servers per pool: runScenario's one group, and every fleet mix
     *  (>= 1). simulateFarm itself takes its servers from the pool. */
    int servers = 4;
    /** Max jobs waiting (not yet started) before arrivals are
     *  rejected. 0 = unbounded. */
    size_t admissionLimit = 0;
    /** SLA: a job should complete within this many seconds of its
     *  arrival. Also the deadline EDF orders by. */
    double latencyTargetSec = 60.0;
};

/** One slice of the server pool: @p servers machines of the named
 *  backend profile ("" = default). */
struct ServerGroup {
    std::string backend;
    int servers = 1;
};

/** Per-job outcome, in dispatch order (rejected jobs in arrival order
 *  at the point of rejection). Exposed for tests and tooling. */
struct JobOutcome {
    size_t id = 0;
    double arrivalSec = 0.0;
    bool rejected = false;
    int preset = 0;          ///< Chosen by the policy (0 if rejected).
    double startSec = 0.0;   ///< Dispatch time.
    double endSec = 0.0;     ///< Completion time.
    bool missedDeadline = false;
    /** Profile of the server that ran the job (empty if rejected). */
    std::string backend;
};

/** The SLA metrics layer: one row of the per-policy table. */
struct SlaReport {
    std::string policy;
    size_t offered = 0;    ///< Arrivals presented to the farm.
    size_t completed = 0;
    size_t rejected = 0;
    double p50QueueSec = 0.0;
    double p99QueueSec = 0.0;
    double throughputPerMin = 0.0;
    double deadlineMissRate = 0.0;  ///< misses / completed, in [0, 1].
    size_t deadlineMisses = 0;
    size_t presetSwitches = 0;
    double meanServiceSec = 0.0;
};

struct FarmResult {
    SlaReport sla;
    std::vector<JobOutcome> outcomes;
    /** Modelled energy over all completed jobs. */
    double energyJoules = 0.0;
    /** max(last completion, last arrival): the window fleet economics
     *  charge server-hours over. */
    double horizonSec = 0.0;
};

/**
 * Run the farm over @p arrivals (must be sorted by arrivalSec — the
 * generateTraffic contract) under @p policy. The pool is the
 * concatenation of @p pool's groups (config.servers is not read); each
 * server carries its group's backend, and service times, energy and
 * the policy's cost queries are all for the backend of the server
 * dispatching the job, so adaptive switching sees the machine that
 * will actually run it. Ties between simultaneously free servers break
 * toward the lowest server index (earlier groups first). Pure and
 * deterministic. @throws std::invalid_argument for an empty pool.
 */
FarmResult simulateFarm(const std::vector<UploadJob> &arrivals,
                        const FarmConfig &config, const Policy &policy,
                        const CostOracle &cost,
                        const std::vector<ServerGroup> &pool);

/**
 * Render per-policy reports as the SLA table (markdown/CSV/JSON via
 * core::Table). Deterministic: same reports, same bytes — the
 * serve-smoke CI leg diffs two runs' toJson() output.
 */
core::Table slaTable(const std::vector<SlaReport> &reports);

} // namespace vepro::serve

#endif // VEPRO_SERVE_FARM_HPP
