/**
 * @file
 * perfbench: runs one workload through vepro's public entry points and
 * prints its end-to-end metrics (--trace 0) or its per-layer metrics
 * from a separate traced pass (--trace 1). The last stdout line is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}. Exit code
 * 0 = every output check passed, 1 = a check failed, 2 = usage or
 * set-up error (no result line).
 *
 *   perfbench --workload cold-sweep --seed 1 --seconds 15 --trace 0
 *
 * See perfbench/README.md for the workloads and metric definitions.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "codec/kernels.hpp"
#include "lab/jobspec.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace perfbench;

namespace
{

using Clock = std::chrono::steady_clock;

struct Args {
    Options opts;
    bool listSpecs = false;
    std::string traceOut;
    std::string commit = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1\n"
                 "       [--fault NAME] [--tiny] [--list-specs]\n"
                 "       [--work-dir DIR] [--trace-out FILE] [--commit C]\n"
                 "       [--source-digest D]\n",
                 error.c_str());
    std::exit(2);
}

long long
parseInt(const std::string &text, const std::string &flag)
{
    try {
        size_t used = 0;
        long long v = std::stoll(text, &used);
        if (used == text.size()) {
            return v;
        }
    } catch (const std::exception &) {
    }
    usage(flag + " expects an integer, got '" + text + "'");
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    args.opts.workers =
        static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
    bool have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage(flag + " expects a value");
            }
            return argv[++i];
        };
        if (flag == "--workload") {
            args.opts.workload = value();
        } else if (flag == "--seed") {
            args.opts.seed = static_cast<uint64_t>(parseInt(value(), flag));
        } else if (flag == "--seconds") {
            args.opts.seconds = static_cast<double>(parseInt(value(), flag));
            have_seconds = true;
        } else if (flag == "--trace") {
            long long t = parseInt(value(), flag);
            if (t != 0 && t != 1) {
                usage("--trace expects 0 or 1");
            }
            args.opts.trace = t == 1;
        } else if (flag == "--fault") {
            args.opts.fault = value();
        } else if (flag == "--tiny") {
            args.opts.tiny = true;
        } else if (flag == "--list-specs") {
            args.listSpecs = true;
        } else if (flag == "--work-dir") {
            args.opts.workDir = value();
        } else if (flag == "--trace-out") {
            args.traceOut = value();
        } else if (flag == "--commit") {
            args.commit = value();
        } else if (flag == "--source-digest") {
            args.sourceDigest = value();
        } else {
            usage("unknown argument " + flag);
        }
    }
    if (args.opts.workload.empty()) {
        usage("--workload is required");
    }
    if (!args.listSpecs && !have_seconds) {
        usage("--seconds is required");
    }
    if (args.opts.seconds < 0) {
        usage("--seconds must be >= 0");
    }
    const std::string tag = args.opts.workload + "-seed" +
                            std::to_string(args.opts.seed);
    if (args.opts.workDir.empty()) {
        args.opts.workDir = ".perfbench/work/" + tag + "-" +
                            std::to_string(static_cast<long>(::getpid()));
    }
    if (args.traceOut.empty()) {
        args.traceOut = ".perfbench/traces/" + tag + ".trace.json";
    }
    return args;
}

double
median(std::vector<double> v)
{
    if (v.empty()) {
        return 0.0;
    }
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
        }
    }
    return 0.0;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        out += (i ? ", " : "") + jsonString(metrics[i].name) +
               ": {\"value\": " + jsonNumber(metrics[i].value) +
               ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    return out + "}";
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

std::string
hostJson(const Args &args)
{
    std::string isa = vepro::codec::kernelIsaName();
    const char *forced = std::getenv("VEPRO_FORCE_SCALAR");
    if (forced != nullptr && std::string(forced) == "1") {
        isa = "forced-scalar";
    }
    return "{\"nproc\": " +
           std::to_string(std::thread::hardware_concurrency()) +
           ", \"workers\": " + std::to_string(args.opts.workers) +
           ", \"compiler\": " + jsonString(compilerName()) +
           ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
           ", \"commit\": " + jsonString(args.commit) +
           ", \"source_digest\": " + jsonString(args.sourceDigest) +
           ", \"kernels\": " + jsonString(isa) + "}";
}

/** FNV-1a over round 0's specs and results: a pure function of
 *  (workload, seed) whatever the host speed. */
std::string
resultsDigest(const std::vector<Job> &jobs, size_t *count)
{
    std::string text;
    *count = 0;
    for (const Job &job : jobs) {
        if (job.round != 0) {
            continue;
        }
        ++*count;
        text += job.spec.canonicalKey() + "|" +
                (job.result.failed ? std::string("FAILED")
                                   : resultText(job.result, false)) +
                "\n";
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64,
                  vepro::lab::fnv1a64(text));
    return buf;
}

/** Per-layer sums over the recorder's spans. */
struct SpanTotals {
    std::map<std::string, double> selfByLayer;  ///< Timed phase.
    double capture = 0.0, decode = 0.0, core = 0.0, clip = 0.0;
    double save = 0.0, load = 0.0;
    size_t saves = 0, loads = 0;
    double encodeOff = 0.0, encodeCounting = 0.0;  ///< Split phase.
};

SpanTotals
sumSpans(const Recorder &rec)
{
    SpanTotals t;
    const std::vector<Span> &spans = rec.spans();
    std::vector<double> self = rec.selfTimes();
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const std::string layer = s.layer;
        const std::string name = s.name;
        const double dur = s.end - s.start;
        if (s.phase == Phase::Split) {
            if (name == "encode.nocollect") {
                t.encodeOff += dur;
            } else if (name == "encode.counting") {
                t.encodeCounting += dur;
            }
            continue;
        }
        if (s.phase != Phase::Timed) {
            continue;
        }
        t.selfByLayer[layer] += self[i];
        if (name.rfind("FileSink", 0) == 0) {
            t.capture += self[i];
        } else if (name == "FileSource::replay") {
            t.decode += self[i];
        } else if (name == "ResultStore::save") {
            t.save += dur;
            ++t.saves;
        } else if (name == "ResultStore::load") {
            t.load += dur;
            ++t.loads;
        }
        if (layer == "uarch") {
            t.core += self[i];
        } else if (layer == "video") {
            t.clip += self[i];
        }
    }
    return t;
}

struct RunResult {
    std::vector<Job> jobs;
    double wall = 0.0;  ///< Σ timed round walls.
    Checks checks;
};

RunResult
runTimed(Workload &w, double seconds)
{
    RunResult run;
    size_t round = 0;
    do {
        w.prepareRound(round);
        auto t0 = Clock::now();
        std::vector<Job> jobs = w.runRound(round);
        run.wall += std::chrono::duration<double>(Clock::now() - t0).count();
        w.checkRound(jobs, run.checks);
        run.jobs.insert(run.jobs.end(), jobs.begin(), jobs.end());
        ++round;
    } while (run.wall < seconds);
    return run;
}

std::vector<Metric>
endToEnd(const RunResult &run, const std::vector<double> &setups,
         std::vector<std::string> &notes)
{
    std::vector<double> secs;
    double inst = 0.0, sim = 0.0;
    for (const Job &job : run.jobs) {
        if (job.result.failed) {
            continue;
        }
        secs.push_back(job.result.jobSeconds);
        inst += static_cast<double>(job.result.encode.instructions);
        sim += static_cast<double>(job.result.core.instructions);
    }
    std::sort(secs.begin(), secs.end());
    const size_t n = secs.size();
    // The highest percentile with >= 10 jobs beyond it (the median
    // when fewer than 20 jobs ran).
    size_t idx = 0;
    if (n > 0) {
        idx = std::max(n >= 11 ? n - 11 : 0, (n - 1) / 2);
    }
    const double tail = n ? secs[idx] : 0.0;
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "job_s_tail is p%.1f of %zu jobs (%zu beyond it)",
                  n ? 100.0 * static_cast<double>(idx + 1) /
                          static_cast<double>(n)
                    : 0.0,
                  n, n ? n - idx - 1 : 0);
    notes.push_back(buf);
    std::snprintf(buf, sizeof buf,
                  "setup_s is the median of %zu set-ups; %zu jobs in %.3f s "
                  "timed",
                  setups.size(), n, run.wall);
    notes.push_back(buf);
    return {
        {"setup_s", median(setups), "s"},
        {"jobs_per_s", ratio(static_cast<double>(n), run.wall), "jobs/s"},
        {"job_s_p50", median(secs), "s"},
        {"job_s_tail", tail, "s"},
        {"encode_minst_per_s", ratio(inst, run.wall) / 1e6, "Minst/s"},
        {"sim_mops_per_s", ratio(sim, run.wall) / 1e6, "Mops/s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
}

std::vector<Metric>
perLayer(Workload &w, const RunResult &run, const Args &args,
         std::vector<std::string> &notes)
{
    Recorder rec;
    installRecorder(&rec);
    rec.setPhase(Phase::Setup);
    w.tracedSetup();
    rec.setPhase(Phase::Timed);
    // Round by round, as the timed phase ran them, so the traced and
    // untraced walls cover the same work with the same parallelism.
    TracedCounts counts;
    double traced = 0.0;
    for (size_t start = 0, end = 0; start < run.jobs.size(); start = end) {
        while (end < run.jobs.size() &&
               run.jobs[end].round == run.jobs[start].round) {
            ++end;
        }
        std::vector<Job> round(run.jobs.begin() + start,
                               run.jobs.begin() + end);
        auto t0 = Clock::now();
        w.tracedJobs(round, start, counts);
        traced += std::chrono::duration<double>(Clock::now() - t0).count();
    }
    rec.setPhase(Phase::Split);
    w.splitEncodes(run.jobs, counts);
    installRecorder(nullptr);

    fs::create_directories(fs::path(args.traceOut).parent_path());
    {
        std::ofstream out(args.traceOut, std::ios::binary | std::ios::trunc);
        out << rec.chromeJson();
        if (!out) {
            throw std::runtime_error("cannot write " + args.traceOut);
        }
    }
    notes.push_back("spans: " + std::to_string(rec.spans().size()) +
                    " written to " + args.traceOut);

    SpanTotals t = sumSpans(rec);
    double busy = 0.0, cycles = 0.0, sim = 0.0;
    for (const Job &job : run.jobs) {
        if (!job.result.failed) {
            busy += job.result.jobSeconds;
            cycles += static_cast<double>(job.result.core.cycles);
            sim += static_cast<double>(job.result.core.instructions);
        }
    }
    const LabCounts &lab = w.labCounts();
    const double probe = t.encodeCounting - t.encodeOff;
    const double recorded = static_cast<double>(counts.recordedOps);
    const double written = static_cast<double>(counts.captureBytes);
    auto self = [&](const char *layer) {
        auto it = t.selfByLayer.find(layer);
        return it == t.selfByLayer.end() ? 0.0 : it->second;
    };
    return {
        {"video.clip_s", t.clip, "s"},
        {"encoders.encode_s", t.encodeOff, "s"},
        {"encoders.minst_per_s",
         ratio(static_cast<double>(counts.splitInstructions), t.encodeOff) /
             1e6,
         "Minst/s"},
        {"trace.probe_s", probe, "s"},
        {"trace.record_mops_per_s", ratio(recorded, probe) / 1e6, "Mops/s"},
        {"trace.recorded_ops", recorded, "count"},
        {"trace.dropped_ops", static_cast<double>(counts.droppedOps), "count"},
        {"trace.record_frac",
         ratio(recorded, static_cast<double>(counts.splitInstructions)),
         "ratio"},
        {"trace.capture_s", t.capture, "s"},
        {"trace.bytes_per_op",
         ratio(written, static_cast<double>(counts.captureOps)), "B/op"},
        {"lab.trace_mb", written / 1e6, "MB"},
        {"trace.decode_s", t.decode, "s"},
        {"trace.decode_mops_per_s",
         ratio(static_cast<double>(counts.replayedOps), t.decode) / 1e6,
         "Mops/s"},
        {"uarch.core_s", t.core, "s"},
        {"uarch.core_mops_per_s",
         ratio(static_cast<double>(counts.simInstructions), t.core) / 1e6,
         "Mops/s"},
        {"uarch.sim_cycles", cycles, "count"},
        {"uarch.sim_ipc", ratio(sim, cycles), "ratio"},
        {"lab.store_save_ms", 1e3 * ratio(t.save, t.saves), "ms"},
        {"lab.store_load_ms", 1e3 * ratio(t.load, t.loads), "ms"},
        {"lab.encoder_runs", static_cast<double>(lab.encoderRuns), "count"},
        {"lab.trace_captures", static_cast<double>(lab.traceCaptures),
         "count"},
        {"lab.trace_replays", static_cast<double>(lab.traceReplays), "count"},
        {"lab.cache_hit_frac",
         ratio(static_cast<double>(lab.cacheHits),
               static_cast<double>(lab.requested)),
         "ratio"},
        {"core.busy_frac",
         ratio(busy, run.wall * static_cast<double>(w.options().workers)),
         "ratio"},
        {"video.self_s", self("video"), "s"},
        {"encoders.self_s", self("encoders"), "s"},
        {"trace.self_s", self("trace"), "s"},
        {"uarch.self_s", self("uarch"), "s"},
        {"lab.self_s", self("lab"), "s"},
        {"core.self_s", self("core"), "s"},
        {"tracing.untraced_s", run.wall, "s"},
        {"tracing.traced_s", traced, "s"},
        {"tracing.overhead_s", traced - run.wall, "s"},
    };
}

/** Removes the run's private work directory on every exit path. */
class WorkDir
{
  public:
    explicit WorkDir(std::string path) : path_(std::move(path))
    {
        fs::remove_all(path_);
        fs::create_directories(path_);
    }
    ~WorkDir()
    {
        std::error_code ec;
        fs::remove_all(path_, ec);
    }

    WorkDir(const WorkDir &) = delete;
    WorkDir &operator=(const WorkDir &) = delete;

  private:
    std::string path_;
};

int
run(const Args &args)
{
    std::unique_ptr<Workload> w = makeWorkload(args.opts);
    if (args.listSpecs) {
        for (size_t round = 0; round < 3; ++round) {
            for (const vepro::lab::JobSpec &spec : w->roundSpecs(round)) {
                std::printf("%zu %s\n", round, spec.canonicalKey().c_str());
            }
        }
        return 0;
    }

    WorkDir work(args.opts.workDir);
    std::printf("perfbench: workload=%s seed=%" PRIu64 " seconds=%g "
                "trace=%d workers=%d%s%s\n",
                args.opts.workload.c_str(), args.opts.seed,
                args.opts.seconds, args.opts.trace ? 1 : 0,
                args.opts.workers, args.opts.tiny ? " tiny" : "",
                args.opts.fault.empty()
                    ? ""
                    : (" fault=" + args.opts.fault).c_str());
    std::fflush(stdout);

    std::vector<double> setups;
    const int reps = args.opts.trace || args.opts.tiny ? 1 : w->setupReps();
    for (int i = 0; i < reps; ++i) {
        auto t0 = Clock::now();
        w->setup();
        setups.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
    }
    RunResult result = runTimed(*w, args.opts.seconds);

    std::vector<std::string> notes;
    std::vector<Metric> metrics = args.opts.trace
                                      ? perLayer(*w, result, args, notes)
                                      : endToEnd(result, setups, notes);

    // Failed jobs are check failures too ("job failed: ...").
    const size_t attempted = result.jobs.size();
    const size_t failed = std::min(attempted, result.checks.failures.size());
    size_t digest_jobs = 0;
    const std::string digest = resultsDigest(result.jobs, &digest_jobs);

    for (const Metric &m : metrics) {
        std::printf("%-26s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("%-26s %.6g ratio (%zu of %zu failed)\n", "failed_frac",
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                failed, attempted);
    for (const std::string &note : notes) {
        std::printf("note: %s\n", note.c_str());
    }
    for (const std::string &f : result.checks.failures) {
        std::printf("CHECK FAILED: %s\n", f.c_str());
    }
    std::printf("digest: %s over %zu round-0 jobs (inputs %s)\n",
                digest.c_str(), digest_jobs,
                w->inputsDigest().empty() ? "-" : w->inputsDigest().c_str());

    std::string failures = "[";
    for (size_t i = 0; i < result.checks.failures.size(); ++i) {
        failures += (i ? ", " : "") + jsonString(result.checks.failures[i]);
    }
    failures += "]";
    std::printf("record: {\"workload\": %s, \"seed\": %" PRIu64
                ", \"seconds\": %s, \"trace\": %d, \"tiny\": %s, "
                "\"fault\": %s, \"digest\": %s, \"digest_jobs\": %zu, "
                "\"inputs_digest\": %s, \"host\": %s, \"check_failures\": %s, "
                "\"metrics\": %s}\n",
                jsonString(args.opts.workload).c_str(), args.opts.seed,
                jsonNumber(args.opts.seconds).c_str(), args.opts.trace ? 1 : 0,
                args.opts.tiny ? "true" : "false",
                jsonString(args.opts.fault).c_str(),
                jsonString(digest).c_str(), digest_jobs,
                jsonString(w->inputsDigest()).c_str(), hostJson(args).c_str(),
                failures.c_str(), metricsJson(metrics).c_str());
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false", attempted, failed,
                metricsJson(metrics).c_str());
    std::fflush(stdout);
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parseArgs(argc, argv);
    try {
        return run(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 2;
    }
}
