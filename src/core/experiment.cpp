#include "core/experiment.hpp"

#include <charconv>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <stdexcept>

#include "backend/profile.hpp"
#include "trace/parallel.hpp"
#include "uarch/segment.hpp"

namespace vepro::core
{

RunScale
RunScale::fromArgs(int argc, char **argv)
{
    RunScale scale;
    scale.suite.divisor = 8;
    scale.suite.frames = 6;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--quick") {
            scale.suite.divisor = 8;
            scale.suite.frames = 6;
        } else if (arg == "--full") {
            scale.suite.divisor = 4;
            scale.suite.frames = 12;
            scale.maxTraceOps = 4'000'000;
        } else if (arg == "--uncapped") {
            scale.maxTraceOps = 0;
        } else if (arg.rfind("--jobs=", 0) == 0) {
            int jobs = parseIntStrict(arg.substr(7), "--jobs");
            if (jobs < 0) {
                throw std::invalid_argument("--jobs must be >= 0");
            }
            scale.jobs = trace::resolveJobs(jobs);  // 0 = auto-detect
        } else if (arg.rfind("--segments=", 0) == 0) {
            int segments = parseIntStrict(arg.substr(11), "--segments");
            if (segments < 0) {
                throw std::invalid_argument("--segments must be >= 0");
            }
            scale.segments = trace::resolveJobs(segments);  // 0 = auto
        } else if (arg.rfind("--segment-warmup=", 0) == 0) {
            scale.segmentWarmup =
                parseIntStrict(arg.substr(17), "--segment-warmup");
            if (scale.segmentWarmup < 0) {
                throw std::invalid_argument(
                    "--segment-warmup must be >= 0");
            }
        } else if (arg.rfind("--backend=", 0) == 0) {
            scale.backend = arg.substr(10);
            if (scale.backend.empty()) {
                throw std::invalid_argument("--backend expects a name");
            }
            // Validate at parse time so typos fail before any encode;
            // fixed-function profiles have no core to simulate on.
            const backend::MachineProfile &profile =
                backend::resolveProfile(scale.backend);
            if (profile.kind != backend::Kind::Core) {
                throw std::invalid_argument(
                    "--backend=" + scale.backend +
                    " is a fixed-function profile; sweep points need a "
                    "core-model backend");
            }
        } else if (arg == "--no-cache") {
            scale.noCache = true;
        } else if (arg.rfind("--store=", 0) == 0) {
            scale.storeDir = arg.substr(8);
            if (scale.storeDir.empty()) {
                throw std::invalid_argument("--store expects a directory");
            }
        } else if (arg.rfind("--videos=", 0) == 0) {
            std::string list = arg.substr(9);
            size_t pos = 0;
            while (pos < list.size()) {
                size_t comma = list.find(',', pos);
                if (comma == std::string::npos) {
                    comma = list.size();
                }
                scale.videos.push_back(list.substr(pos, comma - pos));
                pos = comma + 1;
            }
        } else if (arg.rfind("--benchmark", 0) == 0) {
            // Google-benchmark flags pass through untouched.
        } else {
            throw std::invalid_argument("unknown argument: " + arg);
        }
    }
    return scale;
}

int
parseIntStrict(const std::string &text, const std::string &flag)
{
    int value = 0;
    const char *first = text.data();
    const char *last = first + text.size();
    auto [ptr, ec] = std::from_chars(first, last, value);
    // Partial consumption ("4abc") is as wrong as no digits at all:
    // std::stoi would silently accept it.
    if (ec != std::errc() || ptr != last || text.empty()) {
        throw std::invalid_argument(flag + " expects an integer, got '" +
                                    text + "'");
    }
    return value;
}

uint64_t
parseU64Strict(const std::string &text, const std::string &flag)
{
    uint64_t value = 0;
    const char *first = text.data();
    const char *last = first + text.size();
    auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last || text.empty()) {
        throw std::invalid_argument(
            flag + " expects an unsigned integer, got '" + text + "'");
    }
    return value;
}

double
parseDoubleStrict(const std::string &text, const std::string &flag)
{
    double value = 0.0;
    const char *first = text.data();
    const char *last = first + text.size();
    auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last || text.empty() ||
        !std::isfinite(value)) {
        throw std::invalid_argument(flag + " expects a number, got '" +
                                    text + "'");
    }
    return value;
}

const std::vector<int> &
crfSweepAv1()
{
    static const std::vector<int> sweep = {10, 20, 30, 40, 50, 60};
    return sweep;
}

const std::vector<int> &
crfSweepX26x()
{
    static const std::vector<int> sweep = [] {
        std::vector<int> v;
        for (int crf : crfSweepAv1()) {
            v.push_back(mapCrfToX26x(crf));
        }
        return v;
    }();
    return sweep;
}

int
mapCrfToX26x(int crf_av1)
{
    return crf_av1 * 51 / 63;
}

trace::ProbeConfig
tracingConfig(const RunScale &scale)
{
    trace::ProbeConfig pc;
    pc.collectOps = true;
    if (scale.maxTraceOps == 0) {
        pc.maxOps = std::numeric_limits<size_t>::max();
        pc.opWindow = 1;
        pc.opInterval = 1;  // opWindow >= opInterval: record everything.
    } else {
        pc.maxOps = scale.maxTraceOps;
        pc.opWindow = 150'000;
        pc.opInterval = 600'000;
    }
    return pc;
}

Feed
encodeFeed(const encoders::EncoderModel &encoder, const video::Video &clip,
           int crf, int preset, const RunScale &scale,
           encoders::EncodeResult &out)
{
    encoders::EncodeParams params;
    params.crf = crf;
    params.preset = preset;
    return [&encoder, &clip, params, probe = tracingConfig(scale),
            &out](trace::TraceSink &sink) {
        out = encoder.encode(clip, params, probe, false, &sink);
    };
}

uarch::CoreConfig
coreConfigFor(const std::string &backend)
{
    // Default-constructed when no backend is named, so pre-backend
    // callers and cache entries see the exact geometry they always did.
    if (backend.empty()) {
        return {};
    }
    const backend::MachineProfile &profile = backend::resolveProfile(backend);
    if (profile.kind != backend::Kind::Core) {
        throw std::invalid_argument(
            "backend '" + backend +
            "' is fixed-function and cannot run the core model");
    }
    return profile.core;
}

namespace
{

/**
 * The K > 1 config fan-out of simulate(): buffers the stream in
 * batches of whole blocks and replays each batch into every core on
 * trace::parallelFor, one core per task, while the feed fills the next
 * batch. Each core still consumes the whole stream in program order on
 * one thread at a time, so its stats are bit-identical to a lone
 * StreamCore fed directly.
 */
class FanOut final : public trace::BlockSink
{
  public:
    /** Blocks per batch. One batch replays while the next fills, which
     *  bounds the buffered trace at 2 x 64 blocks x 4096 ops x 24 B per
     *  TraceOp ~ 12 MB, plus each block's events. */
    static constexpr size_t kBatchBlocks = 64;

    explicit FanOut(std::vector<uarch::StreamCore> &cores)
        : cores_(cores), workers_(trace::resolveJobs(0))
    {
        filling_.reserve(kBatchBlocks);
    }

    FanOut(const FanOut &) = delete;  // the replay task holds `this`
    FanOut &operator=(const FanOut &) = delete;

    /** Replays the tail batch and flushes every core. */
    void
    flush() override
    {
        flushStage();
        launch();
        wait();
        for (uarch::StreamCore &core : cores_) {
            core.flush();
        }
    }

  private:
    void
    takeBlock(trace::TraceBlock &&block) override
    {
        filling_.push_back(std::move(block));
        if (filling_.size() == kBatchBlocks) {
            launch();
        }
    }

    /** Wait for the batch in flight, then start replaying the filled
     *  one in the background. */
    void
    launch()
    {
        wait();
        if (filling_.empty()) {
            return;
        }
        replaying_ = std::move(filling_);
        filling_.clear();
        filling_.reserve(kBatchBlocks);
        pending_ = std::async(std::launch::async, [this] {
            // parallelFor clamps the workers to the core count.
            trace::parallelFor(cores_.size(), workers_, [this](size_t i) {
                // One span per block, as StreamCore::onBlock takes it:
                // the block's events carry nothing the core reads.
                for (const trace::TraceBlock &block : replaying_) {
                    cores_[i].onOps(block.ops.data(), block.ops.size());
                }
            });
        });
    }

    /** Join the batch in flight, rethrowing its failure. */
    void
    wait()
    {
        if (pending_.valid()) {
            pending_.get();
        }
    }

    std::vector<uarch::StreamCore> &cores_;
    int workers_;
    std::vector<trace::TraceBlock> filling_;
    std::vector<trace::TraceBlock> replaying_;
    /** Declared last: destroyed first, so an abandoned fan-out (the
     *  feed threw) joins its replay before the batches go. */
    std::future<void> pending_;
};

} // namespace

std::vector<uarch::CoreStats>
simulate(const Feed &feed, const std::vector<uarch::CoreConfig> &configs,
         const RunScale &scale)
{
    if (configs.empty()) {
        return {};
    }
    if (scale.segments > 1) {
        if (configs.size() != 1) {
            throw std::invalid_argument(
                "simulate: segment-parallel simulation is per-config "
                "state and takes exactly one config");
        }
        // Whole blocks go straight to SegmentSim, which simulates N
        // contiguous segments concurrently and stitches them in order.
        uarch::SegmentSimConfig cfg;
        cfg.core = configs.front();
        cfg.segments = scale.segments;
        cfg.warmupBlocks = scale.segmentWarmup;
        cfg.jobs = 0;  // auto; SegmentSim clamps to the segment count
        uarch::SegmentSim sim(cfg);
        feed(sim);
        sim.flush();
        return {sim.stats()};
    }

    std::vector<uarch::StreamCore> cores(configs.begin(), configs.end());
    if (cores.size() == 1) {
        feed(cores.front());
        cores.front().flush();
    } else {
        FanOut fan(cores);
        feed(fan);
        fan.flush();
    }

    std::vector<uarch::CoreStats> stats;
    stats.reserve(cores.size());
    for (const uarch::StreamCore &core : cores) {
        stats.push_back(core.stats());
    }
    return stats;
}

SweepPoint
runPoint(const encoders::EncoderModel &encoder, const video::Video &clip,
         int crf, int preset, const RunScale &scale)
{
    SweepPoint point;
    point.core = simulate(encodeFeed(encoder, clip, crf, preset, scale,
                                     point.encode),
                          {coreConfigFor(scale.backend)}, scale)
                     .front();
    return point;
}

std::vector<video::SuiteEntry>
selectedVideos(const RunScale &scale)
{
    if (scale.videos.empty()) {
        return video::vbenchMini();
    }
    std::vector<video::SuiteEntry> out;
    for (const std::string &name : scale.videos) {
        out.push_back(video::suiteEntry(name));
    }
    return out;
}

} // namespace vepro::core
