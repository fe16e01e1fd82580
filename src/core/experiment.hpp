#ifndef VEPRO_CORE_EXPERIMENT_HPP
#define VEPRO_CORE_EXPERIMENT_HPP

/**
 * @file
 * Shared experiment plumbing for the bench binaries: standard sweep
 * points, quick/full scaling, the fused encode+simulate pipeline used by
 * every microarchitectural figure, and the thread-pool driver that runs
 * independent sweep points concurrently.
 */

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "encoders/encoder_model.hpp"
#include "trace/sink.hpp"
#include "uarch/core.hpp"
#include "video/suite.hpp"

namespace vepro::core
{

/** Run-scale options shared by all benches. */
struct RunScale {
    /** Suite geometry; --full halves the divisor and doubles frames. */
    video::SuiteScale suite{};
    /** Videos to run; empty = the whole vbench-mini suite. */
    std::vector<std::string> videos;
    /**
     * Cap on retained ops for core-model traces. 0 = uncapped and
     * unsampled: the fused streaming pipeline simulates every dynamic
     * op, which stays O(1) in memory but costs proportionally more time.
     */
    size_t maxTraceOps = 1'200'000;
    /** Worker threads for independent sweep points (--jobs=N;
     *  0 = auto-detect, resolved to a concrete count at parse time). */
    int jobs = 1;
    /**
     * Pipeline-parallel simulation inside one sweep point
     * (--sim-jobs=N): with N > 1 the point's sinks run on worker
     * threads behind a trace::PipelineMux, overlapping the encode with
     * the simulation. 0 = auto-detect; 1 = classic sequential fused
     * path. Never changes the measured statistics (bit-identical by
     * construction), so it is not part of a point's cache identity.
     */
    int simJobs = 1;
    /**
     * Segment-parallel core simulation (--segments=N): the point's
     * trace is split into N block-aligned segments simulated
     * concurrently by uarch::SegmentSim. 0 = auto-detect; 1 = off.
     * Segment mode changes the measured numbers (bounded warmup error,
     * see DESIGN.md §13), so segments/segmentWarmup ARE cache-identity
     * fields when segments > 1.
     */
    int segments = 1;
    /** Warmup prefix per segment, in 4096-op trace blocks
     *  (--segment-warmup=K); counters of the prefix are discarded. */
    int segmentWarmup = 8;
    /**
     * Named machine profile the point simulates on (--backend=NAME):
     * "" = the default xeon-bdw geometry, i.e. exactly the config every
     * pre-backend run used, so the default changes nothing. Must name a
     * core-model profile — fixed-function backends (hw-enc) have no
     * trace to simulate and are priced analytically by serve's cost
     * model instead. Changes the measured numbers, so it is a cache
     * identity field (see lab::JobSpec::canonicalKey).
     */
    std::string backend;
    /** Bypass the lab result cache: recompute (and refresh) every point. */
    bool noCache = false;
    /** Directory of the persistent lab result store. */
    std::string storeDir = ".vepro-lab";

    /**
     * Parse --quick / --full / --videos=a,b,c / --jobs=N / --sim-jobs=N
     * / --segments=N / --segment-warmup=K / --uncapped / --no-cache /
     * --store=DIR / --backend=NAME. Numeric flags are strict: trailing garbage
     * ("--jobs=4abc") is rejected, not silently truncated. All three
     * parallelism flags accept 0 = auto-detect via
     * std::thread::hardware_concurrency() (floor 1).
     */
    static RunScale fromArgs(int argc, char **argv);
};

/**
 * Strict decimal parse of an entire string: the value must consume all
 * of @p text and fit in an int. @throws std::invalid_argument otherwise
 * (with @p flag naming the offender).
 */
int parseIntStrict(const std::string &text, const std::string &flag);

/** The CRF sweep points used throughout the paper's Section 4. */
const std::vector<int> &crfSweepAv1();   ///< {10, 20, 30, 40, 50, 60}
const std::vector<int> &crfSweepX26x();  ///< Scaled onto the 0-51 range.

/** Map a 0-63 family CRF onto an equivalent 0-51 family CRF. */
int mapCrfToX26x(int crf_av1);

/** Encode + microarchitectural simulation of one sweep point. */
struct SweepPoint {
    encoders::EncodeResult encode;
    uarch::CoreStats core;
};

/**
 * The probe configuration runPoint uses for a given scale — the sampled
 * capped window, or full fidelity when scale.maxTraceOps is 0.
 */
trace::ProbeConfig tracingConfig(const RunScale &scale);

/**
 * A trace producer for simulate(): delivers one op stream — an
 * instrumented encode, a trace-file replay, an in-memory trace — to the
 * sink it is handed. simulate() flushes that sink once the feed
 * returns; a feed that flushes it too (encode() does) is harmless.
 */
using Feed = std::function<void(trace::TraceSink &)>;

/**
 * The Feed of one sweep point's encode: @p encoder on @p clip at
 * (@p crf, @p preset), traced with tracingConfig(@p scale). The
 * encode-side numbers land in @p out, which must outlive the feed.
 */
Feed encodeFeed(const encoders::EncoderModel &encoder,
                const video::Video &clip, int crf, int preset,
                const RunScale &scale, encoders::EncodeResult &out);

/**
 * The core geometry a point simulates on: the paper's Xeon
 * (default-constructed CoreConfig) for an empty @p backend, else the
 * named profile's core. @throws std::invalid_argument for an unknown or
 * fixed-function profile.
 */
uarch::CoreConfig coreConfigFor(const std::string &backend);

/**
 * Simulate one op stream on each of @p configs, returning their
 * CoreStats in config order — the one simulate path behind every
 * microarchitectural figure, trace replay and lab job.
 *
 * The feed runs once however many configs there are. With one config
 * and scale.simJobs <= 1 it feeds a uarch::StreamCore directly; with
 * several configs, or simJobs > 1, a trace::PipelineMux fans the stream
 * out (simJobs = its worker count; 1 runs every core inline). Each
 * config's stats are bit-identical either way. With scale.segments > 1
 * a uarch::SegmentSim is fed instead; that mode is per-config state, so
 * @throws std::invalid_argument unless there is exactly one config.
 * scale.backend is ignored — the configs are explicit. No configs, no
 * feed: returns empty.
 */
std::vector<uarch::CoreStats>
simulate(const Feed &feed, const std::vector<uarch::CoreConfig> &configs,
         const RunScale &scale);

/**
 * Run one encode with op tracing and simulate it on scale.backend's
 * core: simulate(encodeFeed(...), {coreConfigFor(scale.backend)},
 * scale). The encode streams its ops straight into the core model, so
 * no trace is materialised.
 */
SweepPoint runPoint(const encoders::EncoderModel &encoder,
                    const video::Video &clip, int crf, int preset,
                    const RunScale &scale);

/**
 * Run fn(0..n-1) on a pool of @p jobs worker threads (inline when jobs
 * <= 1 or n <= 1). Each index is claimed atomically, so items need not
 * take uniform time. Exceptions propagate: the first one thrown is
 * rethrown on the caller's thread after all workers join.
 *
 * Sweep points are independent — each worker's encode owns its probe
 * and sinks — which makes this the driver for every bench sweep.
 */
void parallelFor(size_t n, int jobs, const std::function<void(size_t)> &fn);

/** The suite entries selected by @p scale (all 15 when unfiltered). */
std::vector<video::SuiteEntry> selectedVideos(const RunScale &scale);

} // namespace vepro::core

#endif // VEPRO_CORE_EXPERIMENT_HPP
