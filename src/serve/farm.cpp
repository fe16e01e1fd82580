#include "serve/farm.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

namespace vepro::serve
{

namespace
{

/** One waiting job: EDF order is (deadline, arrival index). */
struct Waiting {
    double deadline = 0.0;
    size_t job = 0;     ///< Arrival index: deterministic tie-break.
};

struct WaitingLater {
    bool
    operator()(const Waiting &a, const Waiting &b) const
    {
        if (a.deadline != b.deadline) {
            return a.deadline > b.deadline;
        }
        return a.job > b.job;
    }
};

double
percentile(std::vector<double> sorted, double q)
{
    if (sorted.empty()) {
        return 0.0;
    }
    const double pos = q * static_cast<double>(sorted.size());
    size_t idx = static_cast<size_t>(std::ceil(pos));
    idx = idx > 0 ? idx - 1 : 0;
    idx = std::min(idx, sorted.size() - 1);
    return sorted[idx];
}

} // namespace

FarmResult
simulateFarm(const std::vector<UploadJob> &arrivals,
             const FarmConfig &config, const Policy &policy,
             const CostOracle &cost, const std::vector<ServerGroup> &pool)
{
    // Flatten the groups into one backend string per server; group
    // order fixes server indices, and indices break free-time ties.
    std::vector<std::string> server_backend;
    for (const ServerGroup &group : pool) {
        for (int i = 0; i < group.servers; ++i) {
            server_backend.push_back(group.backend);
        }
    }
    if (server_backend.empty()) {
        throw std::invalid_argument("serve: farm needs >= 1 server");
    }

    FarmResult out;
    out.sla.policy = policy.name();
    out.sla.offered = arrivals.size();
    out.outcomes.reserve(arrivals.size());

    // Server pool: min-heap of (free time, server index).
    using Slot = std::pair<double, size_t>;
    std::priority_queue<Slot, std::vector<Slot>, std::greater<Slot>>
        servers;
    for (size_t i = 0; i < server_backend.size(); ++i) {
        servers.emplace(0.0, i);
    }
    std::priority_queue<Waiting, std::vector<Waiting>, WaitingLater> queue;

    std::vector<double> queue_waits;
    double service_sum = 0.0;
    double horizon = 0.0;
    int prev_preset = -1;
    size_t next_arrival = 0;

    const auto admit = [&](size_t job_index) {
        const UploadJob &job = arrivals[job_index];
        if (config.admissionLimit != 0 &&
            queue.size() >= config.admissionLimit) {
            JobOutcome reject;
            reject.id = job.id;
            reject.arrivalSec = job.arrivalSec;
            reject.rejected = true;
            out.outcomes.push_back(reject);
            ++out.sla.rejected;
            return;
        }
        queue.push({job.arrivalSec + config.latencyTargetSec, job_index});
    };

    while (next_arrival < arrivals.size() || !queue.empty()) {
        if (queue.empty()) {
            admit(next_arrival++);
            continue;
        }
        // The next dispatch happens when the earliest server frees (or
        // immediately, for jobs that arrived while it was idle). Admit
        // everything that arrives up to that instant first, so EDF and
        // admission control see the true queue contents.
        const auto [t_free, server] = servers.top();
        if (next_arrival < arrivals.size() &&
            arrivals[next_arrival].arrivalSec <= t_free) {
            admit(next_arrival++);
            continue;
        }

        const auto [deadline, job_index] = queue.top();
        queue.pop();
        const UploadJob &job = arrivals[job_index];
        const std::string &backend = server_backend[server];
        const double start = std::max(t_free, job.arrivalSec);
        const int preset =
            policy.choosePreset(job, start, deadline, backend, cost);
        const double service =
            cost.serviceSeconds(backend, job.clip, job.crf, preset);
        const double end = start + service;
        servers.pop();
        servers.emplace(end, server);

        JobOutcome done;
        done.id = job.id;
        done.arrivalSec = job.arrivalSec;
        done.preset = preset;
        done.startSec = start;
        done.endSec = end;
        done.missedDeadline = end > deadline;
        done.backend = backend;
        out.outcomes.push_back(done);

        ++out.sla.completed;
        if (done.missedDeadline) {
            ++out.sla.deadlineMisses;
        }
        if (prev_preset >= 0 && preset != prev_preset) {
            ++out.sla.presetSwitches;
        }
        prev_preset = preset;
        queue_waits.push_back(start - job.arrivalSec);
        service_sum += service;
        out.energyJoules +=
            cost.energyJoules(backend, job.clip, job.crf, preset);
        horizon = std::max(horizon, end);
    }

    std::sort(queue_waits.begin(), queue_waits.end());
    out.sla.p50QueueSec = percentile(queue_waits, 0.50);
    out.sla.p99QueueSec = percentile(queue_waits, 0.99);
    if (out.sla.completed > 0) {
        out.sla.deadlineMissRate =
            static_cast<double>(out.sla.deadlineMisses) /
            static_cast<double>(out.sla.completed);
        out.sla.meanServiceSec =
            service_sum / static_cast<double>(out.sla.completed);
    }
    if (!arrivals.empty()) {
        horizon = std::max(horizon, arrivals.back().arrivalSec);
    }
    if (horizon > 0.0) {
        out.sla.throughputPerMin =
            static_cast<double>(out.sla.completed) / (horizon / 60.0);
    }
    out.horizonSec = horizon;
    return out;
}

core::Table
slaTable(const std::vector<SlaReport> &reports)
{
    core::Table table({"policy", "offered", "completed", "rejected",
                       "p50 queue (s)", "p99 queue (s)", "throughput/min",
                       "miss rate", "preset switches", "mean service (s)"});
    for (const SlaReport &r : reports) {
        table.addRow({r.policy, std::to_string(r.offered),
                      std::to_string(r.completed),
                      std::to_string(r.rejected), core::fmt(r.p50QueueSec),
                      core::fmt(r.p99QueueSec),
                      core::fmt(r.throughputPerMin),
                      core::fmt(r.deadlineMissRate, 4),
                      std::to_string(r.presetSwitches),
                      core::fmt(r.meanServiceSec)});
    }
    return table;
}

} // namespace vepro::serve
