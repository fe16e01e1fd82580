#ifndef VEPRO_SERVE_POLICY_HPP
#define VEPRO_SERVE_POLICY_HPP

/**
 * @file
 * Pluggable scheduling policies for the encode farm: given a job about
 * to start and the time left until its deadline, choose the encoder
 * preset it runs at.
 *
 * Two families ship:
 *  - StaticPolicy: every job runs the same preset — the baselines the
 *    paper-style characterization implies (fixed quality, whatever the
 *    latency outcome);
 *  - AdaptivePolicy: speed-adaptive preset switching (after
 *    Eichermüller et al., PAPERS.md) — pick the SLOWEST (best-quality)
 *    preset whose predicted completion still meets the job's latency
 *    deadline, falling back to the fastest rung when nothing fits.
 *    Under load the farm automatically trades quality for latency, and
 *    trades back when the queue drains.
 *
 * Policies are consulted at dispatch time (not at arrival), so the
 * decision sees the queueing delay the job has already absorbed and
 * the costs of the server that will run it.
 */

#include <memory>
#include <string>
#include <vector>

#include "serve/traffic.hpp"

namespace vepro::serve
{

/**
 * Encode costs per machine profile (backend registry, src/backend):
 * predicted service seconds and energy per (backend, clip, crf,
 * preset), and the preset ladder a policy may choose from. The farm
 * asks it for the backend of the server dispatching each job.
 * Implemented by serve::CostModel for real model-derived costs and by
 * test fakes for policy-logic pins.
 */
class CostOracle
{
  public:
    virtual ~CostOracle() = default;

    /** Predicted wall seconds to encode @p clip at (@p crf, @p preset)
     *  on one server of @p backend. */
    virtual double serviceSeconds(const std::string &backend,
                                  const std::string &clip, int crf,
                                  int preset) const = 0;

    /**
     * Modelled energy in joules one such encode costs on @p backend:
     * dynamic event energy plus static burn over the service time (see
     * CostModel docs for the exact evaluation order).
     */
    virtual double energyJoules(const std::string &backend,
                                const std::string &clip, int crf,
                                int preset) const = 0;

    /** Presets a policy may choose, ordered slowest (best quality)
     *  first. Never empty. */
    virtual const std::vector<int> &presetLadder() const = 0;
};

/** Scheduling policy: preset selection at dispatch time. */
class Policy
{
  public:
    virtual ~Policy() = default;

    /** Row label in the SLA table ("static-p2", "adaptive", ...). */
    virtual std::string name() const = 0;

    /**
     * Choose the preset @p job runs at.
     *
     * @param job      The upload being dispatched.
     * @param now      Dispatch time (>= job.arrivalSec).
     * @param deadline Absolute SLA deadline (arrival + latency target).
     * @param backend  Profile of the server the job is dispatched to.
     * @param cost     Cost oracle for predicted service times.
     */
    virtual int choosePreset(const UploadJob &job, double now,
                             double deadline, const std::string &backend,
                             const CostOracle &cost) const = 0;
};

/** Baseline: every job runs @p preset, load notwithstanding. */
class StaticPolicy final : public Policy
{
  public:
    explicit StaticPolicy(int preset);
    std::string name() const override;
    int choosePreset(const UploadJob &job, double now, double deadline,
                     const std::string &backend,
                     const CostOracle &cost) const override;

  private:
    int preset_;
};

/** Speed-adaptive preset switching (see file docs). */
class AdaptivePolicy final : public Policy
{
  public:
    std::string name() const override;
    int choosePreset(const UploadJob &job, double now, double deadline,
                     const std::string &backend,
                     const CostOracle &cost) const override;
};

} // namespace vepro::serve

#endif // VEPRO_SERVE_POLICY_HPP
