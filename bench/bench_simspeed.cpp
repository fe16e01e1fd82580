/**
 * @file
 * Simulator-throughput benchmark: how many simulated ops per second the
 * trace→simulation hot path sustains, per component and end to end.
 *
 * Replays the deterministic synthetic workload of trace/synth.hpp
 * through each stage of the pipeline in isolation and then fused:
 *
 *   probe_emit  — the delivery layer alone: kernel-facing emission API
 *                 (PC synthesis, sampling accounting, block flushing)
 *                 into a counting null sink.
 *   cache       — CacheSink: hierarchy-only replay of the op trace.
 *   core        — StreamCore: the full out-of-order model.
 *   bpred       — StreamRunner + TAGE on the synthetic branch trace
 *                 (reported in M branches/s).
 *   end_to_end  — probe emission fused into MuxSink{StreamCore,
 *                 CacheSink, StreamRunner}: the shape every vepro-lab
 *                 sweep point runs.
 *   capture     — probe emission into a trace::FileSink: the encode-side
 *                 cost of a trace-cache miss over plain executeDirect
 *                 (also logs the on-disk bytes/op of the codec).
 *   replay      — trace::FileSource decode into a counting sink: the
 *                 fixed per-run cost of a trace-cache hit before any
 *                 simulation work happens.
 *   e2e_multi4  — probe emission fanned through one inline MuxSink into
 *                 FOUR full StreamCore+CacheSink+StreamRunner stacks
 *                 with distinct configs: one emission pass, four
 *                 simulations. Reported in config-ops/s (4 simulated
 *                 configs per emitted op), so its ratio vs end_to_end
 *                 is the saving of emitting once instead of four times.
 *   core_seg    — uarch::SegmentSim over the same trace (--segments /
 *                 --segment-warmup; segment parallelism, bounded
 *                 warmup error).
 *   e2e_seg     — probe emission fused into SegmentSim, the shape
 *                 runPoint(--segments=N) executes.
 *
 * Writes BENCH_simspeed.json (see --out) so the repository carries a
 * perf trajectory; --baseline compares against a committed file and
 * exits non-zero on a >tolerance regression (the CI perf-smoke gate).
 *
 * --golden prints the exact golden-stats counters pinned by
 * tests/test_core.cpp, for regeneration after an intentional
 * behaviour change.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bpred/runner.hpp"
#include "core/experiment.hpp"
#include "lab/json.hpp"
#include "trace/parallel.hpp"
#include "trace/probe.hpp"
#include "trace/synth.hpp"
#include "trace/trace_io.hpp"
#include "uarch/core.hpp"
#include "uarch/segment.hpp"

namespace
{

using namespace vepro;

using Clock = std::chrono::steady_clock;

/** Null sink that only counts deliveries (measures the probe side). */
class CountSink final : public trace::TraceSink
{
  public:
    void onOp(const trace::TraceOp &) override { ++ops_; }
    void onOps(const trace::TraceOp *, size_t n) override { ops_ += n; }
    void onBranch(const trace::BranchRecord &) override { ++branches_; }

    uint64_t ops() const { return ops_; }

  private:
    uint64_t ops_ = 0;
    uint64_t branches_ = 0;
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Best-of-@p reps throughput of @p run, in M records/s. */
template <typename Fn>
double
bestMops(int reps, Fn run)
{
    double best = 0.0;
    for (int r = 0; r < reps; ++r) {
        Clock::time_point t0 = Clock::now();
        uint64_t records = run();
        double s = secondsSince(t0);
        double mops = s > 0.0 ? static_cast<double>(records) / s / 1e6 : 0.0;
        best = std::max(best, mops);
    }
    return best;
}

std::string
fmt3(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return buf;
}

/** The fixed configuration pinned by the golden-stats tests. */
constexpr uint64_t kGoldenOps = 400'000;
constexpr uint64_t kGoldenBranches = 200'000;

void
printGolden()
{
    trace::SynthConfig cfg;
    cfg.ops = kGoldenOps;
    std::vector<trace::TraceOp> t = trace::synthTrace(cfg);

    uarch::StreamCore core;
    core.onOps(t.data(), t.size());
    core.flush();
    const uarch::CoreStats &s = core.stats();
    std::printf("// StreamCore(synthTrace{ops=%llu}), default CoreConfig\n",
                static_cast<unsigned long long>(kGoldenOps));
    std::printf("cycles=%llu instructions=%llu\n",
                (unsigned long long)s.cycles,
                (unsigned long long)s.instructions);
    std::printf("slots: retiring=%llu badSpec=%llu frontend=%llu "
                "backend=%llu backendMemory=%llu backendCore=%llu\n",
                (unsigned long long)s.slots.retiring,
                (unsigned long long)s.slots.badSpec,
                (unsigned long long)s.slots.frontend,
                (unsigned long long)s.slots.backend,
                (unsigned long long)s.slots.backendMemory,
                (unsigned long long)s.slots.backendCore);
    std::printf("stalls: rs=%llu rob=%llu loadBuf=%llu storeBuf=%llu\n",
                (unsigned long long)s.stalls.rs,
                (unsigned long long)s.stalls.rob,
                (unsigned long long)s.stalls.loadBuf,
                (unsigned long long)s.stalls.storeBuf);
    std::printf("branches: cond=%llu mispredicts=%llu\n",
                (unsigned long long)s.condBranches,
                (unsigned long long)s.mispredicts);
    std::printf("mem: l1iMisses=%llu l1dAccesses=%llu l1dMisses=%llu "
                "l2Misses=%llu llcMisses=%llu invalidations=%llu\n",
                (unsigned long long)s.l1iMisses,
                (unsigned long long)s.l1dAccesses,
                (unsigned long long)s.l1dMisses,
                (unsigned long long)s.l2Misses,
                (unsigned long long)s.llcMisses,
                (unsigned long long)s.invalidations);

    uarch::CacheSink sink;
    sink.onOps(t.data(), t.size());
    sink.flush();
    const uarch::Hierarchy &m = sink.hierarchy();
    std::printf("// CacheSink over the same trace\n");
    std::printf("cachesink: instructions=%llu l1i=%llu/%llu l1d=%llu/%llu "
                "l2=%llu/%llu llc=%llu/%llu inval=%llu\n",
                (unsigned long long)sink.instructions(),
                (unsigned long long)m.l1i().accesses(),
                (unsigned long long)m.l1i().misses(),
                (unsigned long long)m.l1d().accesses(),
                (unsigned long long)m.l1d().misses(),
                (unsigned long long)m.l2().accesses(),
                (unsigned long long)m.l2().misses(),
                (unsigned long long)m.llc().accesses(),
                (unsigned long long)m.llc().misses(),
                (unsigned long long)(m.l1d().invalidations() +
                                     m.l2().invalidations()));

    std::vector<trace::BranchRecord> b =
        trace::synthBranches(kGoldenBranches);
    auto pred = bpred::makePredictor("tage-64KB");
    bpred::RunResult r = bpred::runTrace(*pred, b, kGoldenBranches * 5);
    std::printf("// tage-64KB on synthBranches(%llu)\n",
                (unsigned long long)kGoldenBranches);
    std::printf("bpred: branches=%llu misses=%llu\n",
                (unsigned long long)r.branches,
                (unsigned long long)r.misses);
}

struct Options {
    uint64_t ops = 6'000'000;
    int reps = 3;
    std::string mode = "default";
    std::string out = "BENCH_simspeed.json";
    std::string baseline;
    double tolerance = 0.30;
    bool golden = false;
    int segments = 0;   ///< Segment count; 0 = auto-detect.
    int warmup = 8;     ///< Segment warmup blocks.
};

/** A strict non-negative decimal for --tolerance: "abc", "0.3x",
 *  "nan" and negatives are errors, not silent zeros or aborts. */
double
parseTolerance(const std::string &text)
{
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size() ||
        !std::isfinite(value) || value < 0.0) {
        throw std::invalid_argument(
            "--tolerance expects a non-negative number, got '" + text + "'");
    }
    return value;
}

/** parseIntStrict plus a lower bound. */
int
parseIntAtLeast(const std::string &text, const std::string &flag, int min)
{
    const int value = core::parseIntStrict(text, flag);
    if (value < min) {
        throw std::invalid_argument(flag + " must be >= " +
                                    std::to_string(min));
    }
    return value;
}

void
printUsage(std::FILE *out)
{
    std::fprintf(out,
                 "usage: bench_simspeed [--quick|--full] [--reps=N] "
                 "[--out=FILE] [--baseline=FILE] [--tolerance=F] "
                 "[--golden] [--segments=N] "
                 "[--segment-warmup=K]  (0 = auto-detect)\n");
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        try {
            if (a == "--quick") {
                o.ops = 1'500'000;
                o.mode = "quick";
            } else if (a == "--full") {
                o.ops = 24'000'000;
                o.mode = "full";
            } else if (a == "--golden") {
                o.golden = true;
            } else if (a.rfind("--reps=", 0) == 0) {
                o.reps = parseIntAtLeast(a.substr(7), "--reps", 1);
            } else if (a.rfind("--out=", 0) == 0) {
                o.out = a.substr(6);
            } else if (a.rfind("--baseline=", 0) == 0) {
                o.baseline = a.substr(11);
            } else if (a.rfind("--tolerance=", 0) == 0) {
                o.tolerance = parseTolerance(a.substr(12));
            } else if (a.rfind("--segments=", 0) == 0) {
                o.segments = parseIntAtLeast(a.substr(11), "--segments", 0);
            } else if (a.rfind("--segment-warmup=", 0) == 0) {
                o.warmup =
                    parseIntAtLeast(a.substr(17), "--segment-warmup", 0);
            } else if (a == "--help") {
                printUsage(stdout);
                std::exit(0);
            } else {
                throw std::invalid_argument("unknown argument " + a);
            }
        } catch (const std::invalid_argument &err) {
            std::fprintf(stderr, "bench_simspeed: %s\n", err.what());
            printUsage(stderr);
            std::exit(1);
        }
    }
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parseArgs(argc, argv);
    if (opt.golden) {
        printGolden();
        return 0;
    }

    const uint64_t n_branches = opt.ops / 4;
    std::printf("bench_simspeed: %llu ops, %llu branches, best of %d reps\n",
                (unsigned long long)opt.ops,
                (unsigned long long)n_branches, opt.reps);

    trace::SynthConfig cfg;
    cfg.ops = opt.ops;
    std::vector<trace::TraceOp> t = trace::synthTrace(cfg);
    std::vector<trace::BranchRecord> b = trace::synthBranches(n_branches);

    lab::JsonValue mops = lab::JsonValue::object();

    double probe_emit = bestMops(opt.reps, [&] {
        CountSink count;
        trace::Probe probe{trace::ProbeConfig::streaming(true)};
        probe.setSink(&count);
        trace::synthProbeWorkload(probe, opt.ops);
        probe.flushToSink();
        count.flush();
        return probe.recordedOps();
    });
    std::printf("  %-11s %8.2f Mops/s\n", "probe_emit", probe_emit);
    mops.set("probe_emit", lab::JsonValue::numberToken(fmt3(probe_emit)));

    double cache = bestMops(opt.reps, [&] {
        uarch::CacheSink sink;
        for (size_t i = 0; i < t.size(); i += 4096) {
            sink.onOps(t.data() + i, std::min<size_t>(4096, t.size() - i));
        }
        sink.flush();
        return t.size();
    });
    std::printf("  %-11s %8.2f Mops/s\n", "cache", cache);
    mops.set("cache", lab::JsonValue::numberToken(fmt3(cache)));

    double core = bestMops(opt.reps, [&] {
        uarch::StreamCore sim;
        for (size_t i = 0; i < t.size(); i += 4096) {
            sim.onOps(t.data() + i, std::min<size_t>(4096, t.size() - i));
        }
        sim.flush();
        return t.size();
    });
    std::printf("  %-11s %8.2f Mops/s\n", "core", core);
    mops.set("core", lab::JsonValue::numberToken(fmt3(core)));

    double bpred_tput = bestMops(opt.reps, [&] {
        auto pred = bpred::makePredictor("tage-64KB");
        bpred::StreamRunner runner(*pred);
        for (const trace::BranchRecord &r : b) {
            runner.onBranch(r);
        }
        runner.flush();
        return b.size();
    });
    std::printf("  %-11s %8.2f Mbr/s\n", "bpred", bpred_tput);
    mops.set("bpred", lab::JsonValue::numberToken(fmt3(bpred_tput)));

    if (std::getenv("VEPRO_BREAKDOWN") != nullptr) {
        double e2e_core = bestMops(opt.reps, [&] {
            uarch::StreamCore sim;
            trace::Probe probe{trace::ProbeConfig::streaming(true)};
            probe.setSink(&sim);
            trace::synthProbeWorkload(probe, opt.ops);
            probe.flushToSink();
            sim.flush();
            return probe.recordedOps();
        });
        std::printf("  %-11s %8.2f Mops/s\n", "e2e_core", e2e_core);
        double e2e_cache = bestMops(opt.reps, [&] {
            uarch::CacheSink sink;
            trace::Probe probe{trace::ProbeConfig::streaming(true)};
            probe.setSink(&sink);
            trace::synthProbeWorkload(probe, opt.ops);
            probe.flushToSink();
            sink.flush();
            return probe.recordedOps();
        });
        std::printf("  %-11s %8.2f Mops/s\n", "e2e_cache", e2e_cache);
        double e2e_bpred = bestMops(opt.reps, [&] {
            auto pred = bpred::makePredictor("tage-64KB");
            bpred::StreamRunner runner(*pred);
            trace::Probe probe{trace::ProbeConfig::streaming(true)};
            probe.setSink(&runner);
            trace::synthProbeWorkload(probe, opt.ops);
            probe.flushToSink();
            runner.flush();
            return probe.recordedOps();
        });
        std::printf("  %-11s %8.2f Mops/s\n", "e2e_bpred", e2e_bpred);
    }

    double end_to_end = bestMops(opt.reps, [&] {
        uarch::StreamCore sim;
        uarch::CacheSink sink;
        auto pred = bpred::makePredictor("tage-64KB");
        bpred::StreamRunner runner(*pred);
        trace::MuxSink mux{&sim, &sink, &runner};
        trace::Probe probe{trace::ProbeConfig::streaming(true)};
        probe.setSink(&mux);
        trace::synthProbeWorkload(probe, opt.ops);
        probe.flushToSink();
        mux.flush();
        return probe.recordedOps();
    });
    std::printf("  %-11s %8.2f Mops/s\n", "end_to_end", end_to_end);
    mops.set("end_to_end", lab::JsonValue::numberToken(fmt3(end_to_end)));

    // TraceFile capture/replay: the two halves of the lab trace cache.
    const std::filesystem::path trace_path =
        std::filesystem::temp_directory_path() / "bench_simspeed.vetf";
    double bytes_per_op = 0.0;
    double capture = bestMops(opt.reps, [&] {
        trace::FileSink file(trace_path.string());
        trace::Probe probe{trace::ProbeConfig::streaming(true)};
        probe.setSink(&file);
        trace::synthProbeWorkload(probe, opt.ops);
        probe.flushToSink();
        file.flush();
        bytes_per_op = file.opCount() > 0
                           ? static_cast<double>(file.bytesWritten()) /
                                 static_cast<double>(file.opCount())
                           : 0.0;
        return probe.recordedOps();
    });
    std::printf("  %-11s %8.2f Mops/s  (%.2f bytes/op on disk)\n", "capture",
                capture, bytes_per_op);
    mops.set("capture", lab::JsonValue::numberToken(fmt3(capture)));

    double replay = bestMops(opt.reps, [&] {
        CountSink count;
        trace::FileSource source(trace_path.string());
        trace::TraceFileInfo info = source.replay(count);
        count.flush();
        return info.opCount;
    });
    std::printf("  %-11s %8.2f Mops/s\n", "replay", replay);
    mops.set("replay", lab::JsonValue::numberToken(fmt3(replay)));
    std::filesystem::remove(trace_path);

    // One emission pass, four independent full sweep stacks, all inline
    // on this thread. Counting each op once per config makes the
    // e2e_multi4/end_to_end ratio the saving over emitting four times.
    constexpr int kMultiConfigs = 4;
    double e2e_multi4 = bestMops(opt.reps, [&] {
        const int robs[kMultiConfigs] = {64, 128, 256, 384};
        std::vector<std::unique_ptr<uarch::StreamCore>> cores;
        std::vector<std::unique_ptr<uarch::CacheSink>> caches;
        std::vector<std::unique_ptr<bpred::BranchPredictor>> preds;
        std::vector<std::unique_ptr<bpred::StreamRunner>> runners;
        std::vector<std::unique_ptr<trace::MuxSink>> stacks;
        trace::MuxSink fanout;
        for (int rob : robs) {
            uarch::CoreConfig ccfg;
            ccfg.robSize = rob;
            cores.push_back(std::make_unique<uarch::StreamCore>(ccfg));
            caches.push_back(std::make_unique<uarch::CacheSink>());
            preds.push_back(bpred::makePredictor("tage-64KB"));
            runners.push_back(
                std::make_unique<bpred::StreamRunner>(*preds.back()));
            auto stack = std::make_unique<trace::MuxSink>();
            stack->add(cores.back().get());
            stack->add(caches.back().get());
            stack->add(runners.back().get());
            fanout.add(stack.get());
            stacks.push_back(std::move(stack));
        }
        trace::Probe probe{trace::ProbeConfig::streaming(true)};
        probe.setSink(&fanout);
        trace::synthProbeWorkload(probe, opt.ops);
        probe.flushToSink();
        fanout.flush();
        return probe.recordedOps() * kMultiConfigs;
    });
    std::printf("  %-11s %8.2f Mops/s  (%d configs, %.2fx end_to_end)\n",
                "e2e_multi4", e2e_multi4, kMultiConfigs,
                end_to_end > 0.0 ? e2e_multi4 / end_to_end : 0.0);
    mops.set("e2e_multi4", lab::JsonValue::numberToken(fmt3(e2e_multi4)));

    // Segment mode slices one trace across cores (core_seg, e2e_seg);
    // its segment count resolves 0 = auto-detect.
    const int segments = trace::resolveJobs(opt.segments);
    double core_seg = bestMops(opt.reps, [&] {
        uarch::SegmentSimConfig scfg;
        scfg.segments = segments;
        scfg.warmupBlocks = opt.warmup;
        uarch::SegmentSim sim(scfg);
        for (size_t i = 0; i < t.size(); i += 4096) {
            sim.onOps(t.data() + i, std::min<size_t>(4096, t.size() - i));
        }
        sim.flush();
        return t.size();
    });
    std::printf("  %-11s %8.2f Mops/s  (segments=%d, warmup=%d, "
                "%.2fx core)\n",
                "core_seg", core_seg, segments, opt.warmup,
                core > 0.0 ? core_seg / core : 0.0);
    mops.set("core_seg", lab::JsonValue::numberToken(fmt3(core_seg)));

    // The fused segment-mode shape runPoint(--segments=N) executes:
    // probe emission captures blocks, then N cores simulate slices.
    double e2e_seg = bestMops(opt.reps, [&] {
        uarch::SegmentSimConfig scfg;
        scfg.segments = segments;
        scfg.warmupBlocks = opt.warmup;
        uarch::SegmentSim sim(scfg);
        trace::Probe probe{trace::ProbeConfig::streaming(true)};
        probe.setSink(&sim);
        trace::synthProbeWorkload(probe, opt.ops);
        probe.flushToSink();
        sim.flush();
        return probe.recordedOps();
    });
    std::printf("  %-11s %8.2f Mops/s  (segments=%d, %.2fx end_to_end)\n",
                "e2e_seg", e2e_seg, segments,
                end_to_end > 0.0 ? e2e_seg / end_to_end : 0.0);
    mops.set("e2e_seg", lab::JsonValue::numberToken(fmt3(e2e_seg)));

    lab::JsonValue doc = lab::JsonValue::object();
    doc.set("schema", lab::JsonValue::number(1));
    doc.set("mode", lab::JsonValue::str(opt.mode));
    doc.set("ops", lab::JsonValue::number(opt.ops));
    doc.set("branches", lab::JsonValue::number(n_branches));
    doc.set("mops", std::move(mops));
    {
        std::ofstream f(opt.out);
        f << doc.dump(2) << "\n";
    }
    std::printf("wrote %s\n", opt.out.c_str());

    if (opt.baseline.empty()) {
        return 0;
    }

    std::ifstream f(opt.baseline);
    if (!f) {
        std::fprintf(stderr,
                     "bench_simspeed: baseline file '%s' is missing or "
                     "unreadable.\n"
                     "The perf gate cannot run without it. Regenerate with\n"
                     "  ./bench_simspeed --out=BENCH_simspeed.json\n"
                     "at the repo root and commit the file.\n",
                     opt.baseline.c_str());
        return 1;
    }
    std::stringstream ss;
    ss << f.rdbuf();
    lab::JsonValue base = lab::JsonValue::parse(ss.str());
    const lab::JsonValue &base_mops = base.at("mops");
    const lab::JsonValue &new_mops = doc.at("mops");
    bool regressed = false;
    std::printf("vs baseline %s (tolerance %.0f%%):\n", opt.baseline.c_str(),
                opt.tolerance * 100.0);
    // Keys absent from an older baseline are skipped, so adding new
    // measurements never breaks an existing gate.
    for (const char *key : {"probe_emit", "cache", "core", "bpred",
                            "end_to_end", "capture", "replay", "e2e_multi4",
                            "core_seg", "e2e_seg"}) {
        const lab::JsonValue *old_v = base_mops.find(key);
        if (old_v == nullptr) {
            continue;
        }
        double old_mops = old_v->asDouble();
        double new_val = new_mops.at(key).asDouble();
        double ratio = old_mops > 0.0 ? new_val / old_mops : 1.0;
        bool bad = ratio < 1.0 - opt.tolerance;
        std::printf("  %-11s %8.2f -> %8.2f  (%+5.1f%%)%s\n", key, old_mops,
                    new_val, (ratio - 1.0) * 100.0,
                    bad ? "  REGRESSION" : "");
        regressed = regressed || bad;
    }
    if (regressed) {
        std::fprintf(stderr,
                     "bench_simspeed: throughput regressed more than %.0f%% "
                     "against %s\n",
                     opt.tolerance * 100.0, opt.baseline.c_str());
        return 2;
    }
    return 0;
}
