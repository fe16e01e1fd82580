#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "backend/profile.hpp"
#include "core/experiment.hpp"
#include "core/rng.hpp"
#include "encoders/registry.hpp"
#include "lab/json.hpp"
#include "lab/orchestrator.hpp"
#include "lab/tracecache.hpp"
#include "spans.hpp"
#include "trace/trace_io.hpp"
#include "uarch/core.hpp"
#include "video/suite.hpp"

namespace perfbench
{

namespace fs = std::filesystem;
using vepro::lab::JobResult;
using vepro::lab::JobSpec;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Seed of the independent stream for (workload, seed, round). */
uint64_t
streamSeed(const std::string &workload, uint64_t seed, size_t round)
{
    return vepro::lab::fnv1a64(workload + "|" + std::to_string(seed) + "|" +
                               std::to_string(round));
}

JobSpec
makeSpec(const std::string &encoder, const std::string &video, int crf,
         int preset, bool tiny, uint64_t max_trace_ops)
{
    JobSpec spec;
    spec.encoder = encoder;
    spec.video = video;
    spec.crf = crf;
    spec.preset = preset;
    spec.divisor = tiny ? 16 : 8;  // 8 x 6 frames = the --quick scale
    spec.frames = tiny ? 3 : 6;
    spec.maxTraceOps = max_trace_ops;
    return spec;
}

void
freshDir(const std::string &dir)
{
    fs::remove_all(dir);
    fs::create_directories(dir);
}

/** Remove the result records of a store, keeping its traces/ cache. */
void
removeRecords(const std::string &store)
{
    if (!fs::exists(store)) {
        return;
    }
    for (const auto &entry : fs::directory_iterator(store)) {
        if (entry.is_regular_file()) {
            fs::remove(entry.path());
        }
    }
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

vepro::uarch::CoreConfig
coreConfigFor(const JobSpec &spec)
{
    if (spec.backend.empty()) {
        return {};
    }
    return vepro::backend::resolveProfile(spec.backend).core;
}

vepro::lab::OrchestratorOptions
orchestratorOptions(const Options &opts, const std::string &store)
{
    vepro::lab::OrchestratorOptions o;
    o.jobs = opts.workers;
    o.storeDir = store;
    o.progress = nullptr;
    o.verbose = false;
    return o;
}

uint64_t
hashVideo(const vepro::video::Video &clip, uint64_t h)
{
    for (int i = 0; i < clip.frameCount(); ++i) {
        const vepro::video::Frame &f = clip.frame(i);
        for (const vepro::video::Plane *plane : {&f.y(), &f.u(), &f.v()}) {
            const uint8_t *px = plane->data();
            for (size_t k = 0; k < plane->sizeBytes(); ++k) {
                h = (h ^ px[k]) * 0x100000001b3ULL;
            }
        }
    }
    return h;
}

std::string
hex64(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/** Shared encoder models, looked up by registry name. */
class Encoders
{
  public:
    std::shared_ptr<const vepro::encoders::EncoderModel>
    get(const std::string &name)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto &slot = models_[name];
        if (!slot) {
            slot = vepro::encoders::encoderByName(name);
        }
        return slot;
    }

  private:
    std::mutex mutex_;
    std::map<std::string,
             std::shared_ptr<const vepro::encoders::EncoderModel>>
        models_;
};

/** Clips synthesised once per (name, geometry), with a video span. */
class Clips
{
  public:
    std::shared_ptr<const vepro::video::Video>
    get(const JobSpec &spec)
    {
        std::shared_ptr<Slot> slot;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto &s = slots_[key(spec)];
            if (!s) {
                s = std::make_shared<Slot>();
            }
            slot = s;
        }
        std::lock_guard<std::mutex> lock(slot->mutex);
        if (!slot->clip) {
            Scope scope("video", "loadSuiteVideo");
            slot->clip = std::make_shared<const vepro::video::Video>(
                vepro::video::loadSuiteVideo(spec.video,
                                             spec.toRunScale().suite));
        }
        return slot->clip;
    }

    /** FNV-1a over every loaded clip's pixels, in key order. */
    std::string
    digest()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        uint64_t h = 14695981039346656037ULL;
        for (auto &[k, slot] : slots_) {
            if (slot->clip) {
                h = hashVideo(*slot->clip, h);
            }
        }
        return hex64(h);
    }

  private:
    struct Slot {
        std::mutex mutex;
        std::shared_ptr<const vepro::video::Video> clip;
    };

    static std::string
    key(const JobSpec &spec)
    {
        return spec.video + "/" + std::to_string(spec.divisor) + "x" +
               std::to_string(spec.frames);
    }

    std::mutex mutex_;
    std::map<std::string, std::shared_ptr<Slot>> slots_;
};

vepro::encoders::EncodeParams
paramsOf(const JobSpec &spec)
{
    vepro::encoders::EncodeParams params;
    params.crf = spec.crf;
    params.preset = spec.preset;
    return params;
}

void
fillEncode(JobResult &result, const vepro::encoders::EncodeResult &enc)
{
    result.encode.wallSeconds = enc.wallSeconds;
    result.encode.instructions = enc.instructions;
    result.encode.bitrateKbps = enc.bitrateKbps;
    result.encode.psnrDb = enc.psnrDb;
    result.encode.droppedOps = enc.droppedOps;
}

/** Collect an orchestrator's results for @p handles into jobs. */
std::vector<Job>
collect(const vepro::lab::Orchestrator &orch, const std::vector<JobSpec> &specs,
        const std::vector<size_t> &handles, size_t round)
{
    std::vector<Job> jobs;
    for (size_t i = 0; i < specs.size(); ++i) {
        Job job;
        job.spec = specs[i];
        job.round = round;
        if (orch.failed(handles[i])) {
            job.result.failed = true;
            job.result.error = orch.error(handles[i]);
        } else {
            job.result = orch.result(handles[i]);
        }
        jobs.push_back(std::move(job));
    }
    return jobs;
}

void
addCounts(LabCounts &lab, const vepro::lab::Orchestrator &orch)
{
    lab.requested += orch.requested();
    lab.cacheHits += orch.cacheHits();
    lab.encoderRuns += orch.encoderRuns();
    lab.traceCaptures += orch.traceCaptures();
    lab.traceReplays += orch.traceReplays();
}

/**
 * The capture job with spans: loadSuiteVideo, encode into a mux of
 * FileSink and StreamCore, seal, ResultStore save and load — the
 * layer calls Orchestrator::captureTrace and run() make for one miss.
 */
JobResult
tracedCapture(const JobSpec &spec, Encoders &encoders, Clips &clips,
              const std::string &trace_path,
              const vepro::lab::ResultStore &store, TracedCounts *counts)
{
    Scope job("core", "job");
    {
        Scope load("lab", "ResultStore::load");
        (void)store.load(spec);  // the cold miss
    }
    auto encoder = encoders.get(spec.encoder);
    auto clip = clips.get(spec);
    vepro::uarch::StreamCore sim(coreConfigFor(spec));
    vepro::trace::FileSink file(trace_path);
    file.deferSeal(true);
    SpanSink capture(file, "trace", "FileSink.block", "FileSink.flush",
                     SpanSink::Mode::Replay);
    SpanSink core(sim, "uarch", "StreamCore.block", "StreamCore.flush",
                  SpanSink::Mode::Replay);
    SpanMux mux({&capture, &core});
    vepro::encoders::EncodeResult enc;
    {
        Scope encode("encoders", "EncoderModel::encode");
        enc = encoder->encode(*clip, paramsOf(spec),
                              vepro::core::tracingConfig(spec.toRunScale()),
                              false, &mux);
    }
    {
        Scope seal("trace", "FileSink.seal");
        vepro::lab::JsonValue meta = vepro::lab::JsonValue::object();
        meta.set("traceKey", vepro::lab::JsonValue::str(spec.traceKey()))
            .set("wallSeconds", vepro::lab::JsonValue::number(enc.wallSeconds))
            .set("instructions",
                 vepro::lab::JsonValue::number(enc.instructions))
            .set("bitrateKbps", vepro::lab::JsonValue::number(enc.bitrateKbps))
            .set("psnrDb", vepro::lab::JsonValue::number(enc.psnrDb))
            .set("droppedOps", vepro::lab::JsonValue::number(enc.droppedOps));
        file.setMetadata(meta.dump());
        file.seal();
    }
    JobResult result;
    fillEncode(result, enc);
    result.core = sim.stats();
    {
        Scope save("lab", "ResultStore::save");
        store.save(spec, result);
    }
    if (counts != nullptr) {
        counts->captureBytes += file.bytesWritten();
        counts->captureOps += file.opCount();
        counts->simInstructions += result.core.instructions;
    }
    return result;
}

/**
 * Forwards a stream to a sink; with @p drop_one (the uncapped-lossy
 * injected fault) the first ops of the stream never arrive.
 */
class LossySink final : public vepro::trace::TraceSink
{
  public:
    LossySink(vepro::trace::TraceSink &inner, bool drop_one)
        : inner_(inner), drop_(drop_one)
    {
    }

    void onOp(const vepro::trace::TraceOp &op) override { onOps(&op, 1); }
    void
    onOps(const vepro::trace::TraceOp *ops, size_t n) override
    {
        if (drop_ && n > 0) {
            drop_ = false;
            ++ops;
            --n;
        }
        inner_.onOps(ops, n);
    }
    void
    onBranch(const vepro::trace::BranchRecord &branch) override
    {
        inner_.onBranch(branch);
    }
    void onKernel(uint64_t site) override { inner_.onKernel(site); }
    void flush() override { inner_.flush(); }

  private:
    vepro::trace::TraceSink &inner_;
    bool drop_;
};

// ---- cold-sweep -----------------------------------------------------

/**
 * A user's first `vepro-lab --figures=4 --quick`, twice over: SVT-AV1
 * preset 4 on the five quick clips x six CRF strata, two distinct
 * seeded CRFs per stratum (base and a neighbour within +-1), resolved
 * by one Orchestrator::run() into a fresh store. Dispatch is
 * longest-first — CRF ascending, then the costlier clip first — so
 * the cheap high-CRF jobs form the tail.
 */
class ColdSweep final : public Workload
{
  public:
    using Workload::Workload;

    std::vector<JobSpec>
    roundSpecs(size_t round) const override
    {
        vepro::core::SplitMix64 rng(streamSeed("cold-sweep", opts_.seed, round));
        // Costliest clip first (quick-scale pixels x content entropy).
        static const std::vector<const char *> kClips = {
            "hall", "game1", "funny", "cat", "desktop"};
        static const std::vector<const char *> kTinyClips = {"cat", "desktop"};
        std::vector<JobSpec> specs;
        for (int k = opts_.tiny ? 5 : 0; k < 6; ++k) {
            const int base = 10 + 10 * k;
            for (const char *clip : opts_.tiny ? kTinyClips : kClips) {
                std::vector<int> crfs;
                for (int crf = std::max(10, base - 1);
                     crf <= std::min(60, base + 1); ++crf) {
                    crfs.push_back(crf);
                }
                for (size_t d = 0; d < (opts_.tiny ? 1u : 2u); ++d) {
                    std::swap(crfs[d], crfs[d + rng.below(crfs.size() - d)]);
                    specs.push_back(makeSpec("SVT-AV1", clip, crfs[d], 4,
                                             opts_.tiny, 1'200'000));
                }
            }
        }
        if (opts_.fault == "cold-fail" && round == 0) {
            JobSpec bad = specs.back();
            bad.threads = 2;  // the orchestrator refuses threaded points
            specs.push_back(bad);
        }
        return specs;
    }

    void
    setup() override
    {
        startRound(0);
        // The seeded inputs: synthesise each clip once and digest it.
        Clips clips;
        for (const JobSpec &spec : specs_) {
            clips.get(spec);
        }
        inputs_digest_ = clips.digest();
    }

    void
    prepareRound(size_t round) override
    {
        if (round > 0) {
            startRound(round);
        }
    }

    std::vector<Job>
    runRound(size_t round) override
    {
        orch_->run();
        return collect(*orch_, specs_, handles_, round);
    }

    void
    checkRound(const std::vector<Job> &jobs, Checks &checks) override
    {
        addCounts(lab_, *orch_);
        for (const Job &job : jobs) {
            if (job.result.failed) {
                checks.fail("job failed: " + job.spec.label() + ": " +
                            job.result.error);
            }
        }
        // Warm resolve: a second orchestrator on the same store must
        // compute nothing and return the cold records unchanged.
        vepro::lab::ResultStore store(store_, nullptr);
        std::map<std::string, std::string> before;
        for (const Job &job : jobs) {
            if (!job.result.failed) {
                before[store.pathFor(job.spec)] =
                    readFile(store.pathFor(job.spec));
            }
        }
        if (opts_.fault == "cold-record" && !before.empty()) {
            tamperRecord(before.begin()->first);
            before.begin()->second = readFile(before.begin()->first);
        }
        vepro::lab::Orchestrator warm(orchestratorOptions(opts_, store_));
        std::vector<std::pair<const Job *, size_t>> handles;
        for (const Job &job : jobs) {
            if (!job.result.failed) {
                handles.emplace_back(&job, warm.request(job.spec));
            }
        }
        warm.run();
        if (warm.computed() != 0) {
            checks.fail("warm resolve recomputed " +
                        std::to_string(warm.computed()) + " jobs");
        }
        for (auto [job, handle] : handles) {
            if (warm.failed(handle) ||
                resultText(warm.result(handle), true) !=
                    resultText(job->result, true)) {
                checks.fail("warm record differs: " + job->spec.label());
            }
        }
        for (const auto &[path, bytes] : before) {
            if (readFile(path) != bytes) {
                checks.fail("warm resolve rewrote " + path);
            }
        }
    }

    void
    tracedSetup() override
    {
        Clips clips;
        for (const JobSpec &spec : roundSpecs(0)) {
            clips.get(spec);
        }
    }

    void
    tracedJobs(const std::vector<Job> &jobs, size_t first_id,
               TracedCounts &counts) override
    {
        // A fresh store per round, and clips shared across the round's
        // jobs as the orchestrator's refcounted slots share them.
        const std::string dir = opts_.workDir + "/traced";
        freshDir(dir);
        vepro::lab::ResultStore store(dir, nullptr);
        Encoders encoders;
        Clips clips;
        std::mutex merge;
        vepro::core::parallelFor(jobs.size(), opts_.workers, [&](size_t i) {
            const Job &job = jobs[i];
            if (job.result.failed) {
                return;
            }
            JobTag tag(static_cast<int64_t>(first_id + i));
            TracedCounts local;
            tracedCapture(job.spec, encoders, clips,
                          dir + "/" + std::to_string(i) + ".vetf", store,
                          &local);
            std::lock_guard<std::mutex> lock(merge);
            counts += local;
        });
    }

    /**
     * The two CRF draws of a clip x stratum sit side by side and cost
     * alike; splitting the first of each keeps a traced run of a
     * 60-job round inside the benchmark's time limit.
     */
    size_t splitStride() const override { return 2; }

  private:
    void
    startRound(size_t round)
    {
        store_ = opts_.workDir + "/store";
        orch_.reset();
        freshDir(store_);
        orch_ = std::make_unique<vepro::lab::Orchestrator>(
            orchestratorOptions(opts_, store_));
        specs_ = roundSpecs(round);
        handles_.clear();
        for (const JobSpec &spec : specs_) {
            handles_.push_back(orch_->request(spec));
        }
    }

    /** Injected fault: bump the first record's simulated cycle count. */
    static void
    tamperRecord(const std::string &path)
    {
        std::string bytes = readFile(path);
        const std::string field = "\"cycles\": ";
        size_t at = bytes.find(field);
        if (at == std::string::npos) {
            return;
        }
        at += field.size();
        size_t end = bytes.find_first_not_of("0123456789", at);
        uint64_t cycles = std::stoull(bytes.substr(at, end - at));
        bytes.replace(at, end - at, std::to_string(cycles + 1));
        writeFile(path, bytes);
    }

    std::string store_;
    std::unique_ptr<vepro::lab::Orchestrator> orch_;
    std::vector<JobSpec> specs_;
    std::vector<size_t> handles_;
};

// ---- replay-sweep ---------------------------------------------------

/** A fixed encode point of a workload; the seed moves its CRF. */
struct Point {
    const char *encoder;
    const char *video;
    int preset;
    int crf;      ///< Centre CRF; the seed adds -2..+2.
    int estMops;  ///< Rough dynamic ops at quick scale (dispatch order).
};

/**
 * One spec per point, CRFs drawn from @p rng, sorted longest-first.
 * Every round holds every point once, so seeds change the specs but
 * hardly the amount of work.
 */
std::vector<JobSpec>
drawPoints(const std::vector<Point> &points, vepro::core::SplitMix64 &rng,
           bool tiny, uint64_t max_trace_ops)
{
    std::vector<std::pair<int, JobSpec>> drawn;
    for (const Point &p : points) {
        int crf = p.crf + static_cast<int>(rng.below(5)) - 2;
        drawn.emplace_back(p.estMops, makeSpec(p.encoder, p.video, crf,
                                               p.preset, tiny, max_trace_ops));
    }
    std::stable_sort(drawn.begin(), drawn.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    std::vector<JobSpec> specs;
    for (auto &d : drawn) {
        specs.push_back(std::move(d.second));
    }
    return specs;
}

/**
 * The cross-backend replay command: capture the traces of a seeded
 * draw of cheap specs across all five encoders once (set-up), then
 * resolve every spec on xeon-bdw and graviton-like through an
 * orchestrator whose result store starts empty and whose trace cache
 * is warm — 2N replays, zero encodes, per round.
 */
class ReplaySweep final : public Workload
{
  public:
    using Workload::Workload;

    int setupReps() const override { return 3; }

    std::vector<JobSpec>
    roundSpecs(size_t round) const override
    {
        (void)round;  // every round replays the set-up's captures
        std::vector<JobSpec> specs;
        for (const char *backend : {"xeon-bdw", "graviton-like"}) {
            for (JobSpec spec : captureSpecs()) {
                spec.backend = backend;
                specs.push_back(spec);
            }
        }
        if (opts_.fault == "replay-config") {
            specs.front().backend = "graviton-like";
        }
        return specs;
    }

    void
    setup() override
    {
        store_ = opts_.workDir + "/store";
        freshDir(store_);
        vepro::lab::Orchestrator capture(orchestratorOptions(opts_, store_));
        std::vector<JobSpec> specs = captureSpecs();
        std::vector<size_t> handles;
        for (const JobSpec &spec : specs) {
            handles.push_back(capture.request(spec));
        }
        capture.run();
        captured_.clear();
        for (size_t i = 0; i < specs.size(); ++i) {
            if (capture.failed(handles[i])) {
                throw std::runtime_error("replay-sweep: capture failed: " +
                                         specs[i].label() + ": " +
                                         capture.error(handles[i]));
            }
            captured_[specs[i].traceKey()] =
                resultText(capture.result(handles[i]), false);
        }
        removeRecords(store_);
        if (opts_.fault == "replay-trace") {
            vepro::lab::TraceCache cache(store_ + "/traces", nullptr);
            fs::remove(cache.pathFor(specs.front()));
        }
    }

    void
    prepareRound(size_t round) override
    {
        removeRecords(store_);
        orch_ = std::make_unique<vepro::lab::Orchestrator>(
            orchestratorOptions(opts_, store_));
        specs_ = roundSpecs(round);
        handles_.clear();
        for (const JobSpec &spec : specs_) {
            handles_.push_back(orch_->request(spec));
        }
    }

    std::vector<Job>
    runRound(size_t round) override
    {
        orch_->run();
        return collect(*orch_, specs_, handles_, round);
    }

    void
    checkRound(const std::vector<Job> &jobs, Checks &checks) override
    {
        addCounts(lab_, *orch_);
        if (orch_->encoderRuns() != 0) {
            checks.fail("replay round ran the encoder " +
                        std::to_string(orch_->encoderRuns()) + " times");
        }
        const size_t n = captureSpecs().size();
        for (size_t i = 0; i < jobs.size(); ++i) {
            const Job &job = jobs[i];
            if (job.result.failed) {
                checks.fail("job failed: " + job.spec.label() + ": " +
                            job.result.error);
            } else if (i < n && resultText(job.result, false) !=
                                    captured_.at(job.spec.traceKey())) {
                checks.fail("xeon-bdw replay differs from its capture: " +
                            job.spec.label());
            }
        }
    }

    void
    tracedSetup() override
    {
        const std::string dir = opts_.workDir + "/traced-setup";
        freshDir(dir);
        vepro::lab::ResultStore store(dir, nullptr);
        Encoders encoders;
        Clips clips;
        std::vector<JobSpec> specs = captureSpecs();
        vepro::core::parallelFor(specs.size(), opts_.workers, [&](size_t i) {
            JobTag tag(static_cast<int64_t>(i));
            tracedCapture(specs[i], encoders, clips,
                          dir + "/" + std::to_string(i) + ".vetf", store,
                          nullptr);
        });
        fs::remove_all(dir);
    }

    void
    tracedJobs(const std::vector<Job> &jobs, size_t first_id,
               TracedCounts &counts) override
    {
        // A fresh result store per round, like the timed phase.
        const std::string dir = opts_.workDir + "/traced";
        freshDir(dir);
        vepro::lab::ResultStore store(dir, nullptr);
        vepro::lab::TraceCache cache(store_ + "/traces", nullptr);
        std::mutex merge;
        vepro::core::parallelFor(jobs.size(), opts_.workers, [&](size_t i) {
            const JobSpec &spec = jobs[i].spec;
            JobTag tag(static_cast<int64_t>(first_id + i));
            Scope job("core", "job");
            {
                Scope load("lab", "ResultStore::load");
                (void)store.load(spec);
            }
            vepro::uarch::StreamCore sim(coreConfigFor(spec));
            SpanSink core(sim, "uarch", "StreamCore.block",
                          "StreamCore.flush", SpanSink::Mode::Block);
            vepro::trace::TraceFileInfo info;
            {
                Scope replay("trace", "FileSource::replay");
                info = vepro::trace::FileSource(cache.pathFor(spec))
                           .replay(core);
            }
            core.flush();
            JobResult result;
            {
                Scope parse("lab", "trace metadata");
                vepro::lab::JsonValue meta =
                    vepro::lab::JsonValue::parse(info.metadata);
                result.encode.instructions = meta.at("instructions").asU64();
            }
            result.core = sim.stats();
            {
                Scope save("lab", "ResultStore::save");
                store.save(spec, result);
            }
            TracedCounts local;
            local.replayedOps = info.opCount;
            local.simInstructions = result.core.instructions;
            std::lock_guard<std::mutex> lock(merge);
            counts += local;
        });
        fs::remove_all(dir);
    }

    /** No encodes in the timed phase: nothing to split. */
    size_t splitStride() const override { return 0; }

  private:
    /**
     * The N capture specs: three cheap points per encoder, each past the
     * 4.8 M dynamic ops after which a capped sampled trace holds its
     * full 1.2 M ops. Captured longest-first.
     */
    std::vector<JobSpec>
    captureSpecs() const
    {
        static const std::vector<Point> kPoints = {
            {"SVT-AV1", "desktop", 6, 32, 35},
            {"SVT-AV1", "cat", 6, 40, 60},
            {"SVT-AV1", "presentation", 6, 40, 60},
            {"Libaom", "desktop", 6, 32, 22},
            {"Libaom", "cat", 6, 40, 36},
            {"Libaom", "presentation", 6, 40, 45},
            {"Libvpx-vp9", "cat", 2, 35, 25},
            {"Libvpx-vp9", "presentation", 2, 32, 14},
            {"Libvpx-vp9", "cat", 4, 32, 15},
            {"x265", "cat", 5, 30, 26},
            {"x265", "presentation", 5, 24, 30},
            {"x265", "cat", 7, 30, 38},
            {"x264", "cat", 7, 30, 21},
            {"x264", "presentation", 7, 30, 12},
            {"x264", "funny", 5, 24, 24},
        };
        static const std::vector<Point> kTiny(kPoints.begin(),
                                              kPoints.begin() + 2);
        vepro::core::SplitMix64 rng(streamSeed("replay-sweep", opts_.seed, 0));
        return drawPoints(opts_.tiny ? kTiny : kPoints, rng, opts_.tiny,
                          1'200'000);
    }

    std::string store_;
    std::map<std::string, std::string> captured_;  ///< traceKey -> stats
    std::unique_ptr<vepro::lab::Orchestrator> orch_;
    std::vector<JobSpec> specs_;
    std::vector<size_t> handles_;
};

// ---- uncapped-fused -------------------------------------------------

/**
 * Full-fidelity fused runs: one direct core::runPoint per spec with
 * maxTraceOps=0 (every op recorded and simulated), simJobs=1 and
 * segments=1, over core::parallelFor. Results go to a ResultStore, as
 * a user keeping them would. The orchestrator is bypassed on purpose:
 * it would also write each uncapped trace to disk.
 */
class UncappedFused final : public Workload
{
  public:
    using Workload::Workload;

    std::vector<JobSpec>
    roundSpecs(size_t round) const override
    {
        // Low-cost points, 20-40 M dynamic ops each, all five encoders.
        static const std::vector<Point> kPoints = {
            {"Libaom", "presentation", 6, 50, 38},
            {"Libaom", "cat", 6, 40, 36},
            {"Libvpx-vp9", "cat", 2, 30, 33},
            {"SVT-AV1", "desktop", 6, 40, 30},
            {"x265", "presentation", 5, 24, 30},
            {"x265", "cat", 5, 32, 26},
            {"Libaom", "desktop", 6, 30, 24},
            {"x264", "cat", 7, 24, 21},
        };
        static const std::vector<Point> kTiny = {
            {"x264", "desktop", 7, 30, 2},
            {"x264", "desktop", 7, 40, 2},
        };
        vepro::core::SplitMix64 rng(
            streamSeed("uncapped-fused", opts_.seed, round));
        std::vector<JobSpec> specs =
            drawPoints(opts_.tiny ? kTiny : kPoints, rng, opts_.tiny, 0);
        if (round == 0 && opts_.fault == "uncapped-cap") {
            specs.front().maxTraceOps = 100'000;  // capped: drops ops
        }
        return specs;
    }

    void
    setup() override
    {
        store_ = opts_.workDir + "/store";
        freshDir(store_);
        clips_ = std::make_unique<Clips>();
        for (const JobSpec &spec : roundSpecs(0)) {
            clips_->get(spec);
        }
        inputs_digest_ = clips_->digest();
    }

    std::vector<Job>
    runRound(size_t round) override
    {
        std::vector<JobSpec> specs = roundSpecs(round);
        std::vector<Job> jobs(specs.size());
        vepro::lab::ResultStore store(store_, nullptr);
        vepro::core::parallelFor(specs.size(), opts_.workers, [&](size_t i) {
            Job &job = jobs[i];
            job.spec = specs[i];
            job.round = round;
            auto t0 = Clock::now();
            try {
                vepro::core::SweepPoint point = vepro::core::runPoint(
                    *encoders_.get(job.spec.encoder), *clips_->get(job.spec),
                    job.spec.crf, job.spec.preset, job.spec.toRunScale());
                fillEncode(job.result, point.encode);
                job.result.core = point.core;
                job.result.jobSeconds = secondsSince(t0);
                store.save(job.spec, job.result);
            } catch (const std::exception &e) {
                job.result.failed = true;
                job.result.error = e.what();
            }
        });
        return jobs;
    }

    void
    checkRound(const std::vector<Job> &jobs, Checks &checks) override
    {
        // Delivery check on round 0: the same pipeline again with a
        // counting sink beside the core, so both see one encode's stream.
        // runPoint keeps its core private, and encodes that read
        // uninitialised memory need not repeat op for op, so the timed
        // job's own counts cannot be compared with a second encode.
        std::vector<std::pair<uint64_t, uint64_t>> delivery(jobs.size());
        vepro::core::parallelFor(jobs.size(), opts_.workers, [&](size_t i) {
            const JobSpec &spec = jobs[i].spec;
            if (jobs[i].round != 0 || jobs[i].result.failed) {
                return;
            }
            CountingSink counted;
            vepro::uarch::StreamCore sim(coreConfigFor(spec));
            LossySink lossy(sim, opts_.fault == "uncapped-lossy" && i == 0);
            vepro::trace::MuxSink mux{&counted, &lossy};
            encoders_.get(spec.encoder)
                ->encode(*clips_->get(spec), paramsOf(spec),
                         vepro::core::tracingConfig(spec.toRunScale()), false,
                         &mux);
            delivery[i] = {counted.ops(), sim.stats().instructions};
        });
        vepro::lab::ResultStore store(store_, nullptr);
        for (size_t i = 0; i < jobs.size(); ++i) {
            const Job &job = jobs[i];
            const JobResult &r = job.result;
            const std::string label = job.spec.label();
            if (r.failed) {
                checks.fail("job failed: " + label + ": " + r.error);
                continue;
            }
            if (r.encode.droppedOps != 0) {
                checks.fail("uncapped run dropped " +
                            std::to_string(r.encode.droppedOps) +
                            " ops: " + label);
            }
            auto [delivered, retired] = delivery[i];
            if (retired != delivered) {
                checks.fail("core retired " + std::to_string(retired) +
                            " of " + std::to_string(delivered) +
                            " delivered ops: " + label);
            }
            std::optional<JobResult> back = store.load(job.spec);
            if (!back || resultText(*back, true) != resultText(r, true)) {
                checks.fail("stored record differs: " + label);
            }
        }
        removeRecords(store_);
    }

    void
    tracedSetup() override
    {
        clips_ = std::make_unique<Clips>();
        for (const JobSpec &spec : roundSpecs(0)) {
            clips_->get(spec);
        }
    }

    void
    tracedJobs(const std::vector<Job> &jobs, size_t first_id,
               TracedCounts &counts) override
    {
        const std::string dir = opts_.workDir + "/traced";
        freshDir(dir);
        vepro::lab::ResultStore store(dir, nullptr);
        std::mutex merge;
        vepro::core::parallelFor(jobs.size(), opts_.workers, [&](size_t i) {
            const JobSpec &spec = jobs[i].spec;
            if (jobs[i].result.failed) {
                return;
            }
            JobTag tag(static_cast<int64_t>(first_id + i));
            Scope job("core", "job");
            auto clip = clips_->get(spec);
            vepro::uarch::StreamCore sim(coreConfigFor(spec));
            SpanSink core(sim, "uarch", "StreamCore.block", "StreamCore.flush",
                          SpanSink::Mode::Block);
            JobResult result;
            {
                Scope encode("encoders", "EncoderModel::encode");
                fillEncode(result,
                           encoders_.get(spec.encoder)
                               ->encode(*clip, paramsOf(spec),
                                        vepro::core::tracingConfig(
                                            spec.toRunScale()),
                                        false, &core));
            }
            result.core = sim.stats();
            {
                Scope save("lab", "ResultStore::save");
                store.save(spec, result);
            }
            {
                Scope load("lab", "ResultStore::load");
                (void)store.load(spec);
            }
            TracedCounts local;
            local.simInstructions = result.core.instructions;
            std::lock_guard<std::mutex> lock(merge);
            counts += local;
        });
        fs::remove_all(dir);
    }

  private:
    std::string store_;
    std::unique_ptr<Clips> clips_;
    Encoders encoders_;
};

} // namespace

void
Workload::splitEncodes(const std::vector<Job> &jobs, TracedCounts &counts)
{
    const size_t stride = splitStride();
    if (stride == 0) {
        return;
    }
    Encoders encoders;
    Clips clips;
    std::mutex merge;
    const size_t n = (jobs.size() + stride - 1) / stride;
    vepro::core::parallelFor(n, opts_.workers, [&](size_t k) {
        const size_t i = k * stride;
        const JobSpec &spec = jobs[i].spec;
        if (jobs[i].result.failed) {
            return;
        }
        JobTag tag(static_cast<int64_t>(i));
        auto encoder = encoders.get(spec.encoder);
        std::shared_ptr<const vepro::video::Video> clip;
        {
            Scope job("core", "split");
            clip = clips.get(spec);
        }
        const vepro::trace::ProbeConfig probe =
            vepro::core::tracingConfig(spec.toRunScale());
        TracedCounts local;
        {
            Scope off("encoders", "encode.nocollect");
            vepro::trace::ProbeConfig quiet = probe;
            quiet.collectOps = false;
            local.splitInstructions =
                encoder->encode(*clip, paramsOf(spec), quiet, false, nullptr)
                    .instructions;
        }
        {
            Scope on("trace", "encode.counting");
            CountingSink sink;
            vepro::encoders::EncodeResult enc =
                encoder->encode(*clip, paramsOf(spec), probe, false, &sink);
            local.recordedOps = sink.ops();
            local.droppedOps = enc.droppedOps;
        }
        std::lock_guard<std::mutex> lock(merge);
        counts += local;
    });
}

std::unique_ptr<Workload>
makeWorkload(const Options &opts)
{
    static const std::map<std::string, std::set<std::string>> kFaults = {
        {"cold-sweep", {"cold-fail", "cold-record"}},
        {"replay-sweep", {"replay-trace", "replay-config"}},
        {"uncapped-fused", {"uncapped-cap", "uncapped-lossy"}},
    };
    auto it = kFaults.find(opts.workload);
    if (it == kFaults.end()) {
        throw std::invalid_argument("unknown workload '" + opts.workload +
                                    "'");
    }
    if (!opts.fault.empty() && !it->second.count(opts.fault)) {
        std::string known;
        for (const std::string &f : it->second) {
            known += (known.empty() ? "" : ", ") + f;
        }
        throw std::invalid_argument("fault '" + opts.fault +
                                    "' does not apply to " + opts.workload +
                                    " (known: " + known + ")");
    }
    if (opts.workload == "cold-sweep") {
        return std::make_unique<ColdSweep>(opts);
    }
    if (opts.workload == "replay-sweep") {
        return std::make_unique<ReplaySweep>(opts);
    }
    return std::make_unique<UncappedFused>(opts);
}

std::string
resultText(const JobResult &r, bool host_times)
{
    const vepro::uarch::CoreStats &c = r.core;
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "inst=%" PRIu64 " kbps=%.17g psnr=%.17g dropped=%" PRIu64
        " cycles=%" PRIu64 " instructions=%" PRIu64 " slots=%" PRIu64
        ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
        " stalls=%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
        " br=%" PRIu64 ",%" PRIu64 " mem=%" PRIu64 ",%" PRIu64 ",%" PRIu64
        ",%" PRIu64 ",%" PRIu64 ",%" PRIu64,
        r.encode.instructions, r.encode.bitrateKbps, r.encode.psnrDb,
        r.encode.droppedOps, c.cycles, c.instructions, c.slots.retiring,
        c.slots.badSpec, c.slots.frontend, c.slots.backend,
        c.slots.backendMemory, c.slots.backendCore, c.stalls.rs,
        c.stalls.rob, c.stalls.loadBuf, c.stalls.storeBuf, c.condBranches,
        c.mispredicts, c.l1iMisses, c.l1dAccesses, c.l1dMisses, c.l2Misses,
        c.llcMisses, c.invalidations);
    std::string text = buf;
    if (host_times) {
        std::snprintf(buf, sizeof buf, " wall=%.17g", r.encode.wallSeconds);
        text += buf;
    }
    return text;
}

} // namespace perfbench
