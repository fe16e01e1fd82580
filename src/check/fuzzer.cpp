#include "check/fuzzer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <sstream>

#include "bpred/runner.hpp"
#include "codec/kernels.hpp"
#include "codec/mc.hpp"
#include "codec/sad.hpp"
#include "codec/transform.hpp"
#include "core/experiment.hpp"
#include "core/rng.hpp"
#include "lab/json.hpp"
#include "lab/store.hpp"
#include "ladder/ladder.hpp"
#include "trace/synth.hpp"
#include "trace/trace_io.hpp"
#include "uarch/cache.hpp"
#include "uarch/core.hpp"
#include "uarch/segment.hpp"
#include "video/scale.hpp"

namespace fs = std::filesystem;

namespace vepro::check
{

using core::SplitMix64;
using trace::TraceOp;

const std::vector<Target> &
allTargets()
{
    static const std::vector<Target> kAll = {
        Target::Core,  Target::Cache,    Target::Bpred,  Target::Kernels,
        Target::Store, Target::Parallel, Target::Energy, Target::TraceFile,
        Target::Ladder, Target::Probe};
    return kAll;
}

const char *
targetName(Target target)
{
    switch (target) {
      case Target::Core: return "core";
      case Target::Cache: return "cache";
      case Target::Bpred: return "bpred";
      case Target::Kernels: return "kernels";
      case Target::Store: return "store";
      case Target::Parallel: return "parallel";
      case Target::Energy: return "energy";
      case Target::TraceFile: return "tracefile";
      case Target::Ladder: return "ladder";
      case Target::Probe: return "probe";
    }
    return "?";
}

bool
parseTarget(const std::string &name, Target &out)
{
    for (Target t : allTargets()) {
        if (name == targetName(t)) {
            out = t;
            return true;
        }
    }
    return false;
}

std::string
Fuzzer::reproCommand(Target target, uint64_t seed, Fault inject, bool quick)
{
    std::ostringstream cmd;
    cmd << "vepro-check --target=" << targetName(target)
        << " --seed=" << seed;
    if (quick) {
        cmd << " --quick";
    }
    if (inject != Fault::None) {
        cmd << " --inject=" << faultName(inject);
    }
    return cmd.str();
}

bool
loadCorpusCase(const std::string &path, CorpusCase &out, std::string &err)
{
    std::ifstream in(path);
    if (!in) {
        err = "cannot open " + path;
        return false;
    }
    bool have_target = false, have_seed = false;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty() && line.back() == '\r') {
            line.pop_back();
        }
        const size_t first = line.find_first_not_of(" \t");
        if (first == std::string::npos || line[first] == '#') {
            continue;
        }
        const size_t eq = line.find('=');
        if (eq == std::string::npos) {
            err = path + ": expected key=value, got '" + line + "'";
            return false;
        }
        const std::string key = line.substr(first, eq - first);
        const std::string value = line.substr(eq + 1);
        if (key == "target") {
            if (!parseTarget(value, out.target)) {
                err = path + ": unknown target '" + value + "'";
                return false;
            }
            have_target = true;
        } else if (key == "seed") {
            try {
                out.seed = std::stoull(value);
            } catch (const std::exception &) {
                err = path + ": bad seed '" + value + "'";
                return false;
            }
            have_seed = true;
        } else {
            err = path + ": unknown key '" + key + "'";
            return false;
        }
    }
    if (!have_target || !have_seed) {
        err = path + ": needs both target= and seed= lines";
        return false;
    }
    return true;
}

std::vector<std::string>
listCorpus(const std::string &dir)
{
    std::vector<std::string> paths;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_regular_file() && entry.path().extension() == ".case") {
            paths.push_back(entry.path().string());
        }
    }
    std::sort(paths.begin(), paths.end());
    return paths;
}

namespace
{

// ---------------------------------------------------------------------
// Shrinking: ddmin-lite. Repeatedly delete chunks (halving the chunk
// size when stuck) while the predicate keeps failing. Bounded by a
// predicate-evaluation budget so shrinking a slow reproduction cannot
// stall the harness.

template <typename T, typename Pred>
std::vector<T>
ddminShrink(std::vector<T> input, const Pred &still_fails, int max_evals)
{
    std::vector<T> cur = std::move(input);
    int evals = 0;
    size_t chunk = cur.size() / 2;
    while (chunk >= 1 && evals < max_evals) {
        bool removed = false;
        for (size_t start = 0; start + chunk <= cur.size() &&
                               evals < max_evals;) {
            std::vector<T> candidate;
            candidate.reserve(cur.size() - chunk);
            candidate.insert(candidate.end(), cur.begin(),
                             cur.begin() + static_cast<ptrdiff_t>(start));
            candidate.insert(candidate.end(),
                             cur.begin() +
                                 static_cast<ptrdiff_t>(start + chunk),
                             cur.end());
            ++evals;
            if (still_fails(candidate)) {
                cur = std::move(candidate);
                removed = true;
            } else {
                start += chunk;
            }
        }
        if (!removed) {
            if (chunk == 1) {
                break;
            }
        }
        chunk = std::max<size_t>(1, chunk / 2);
        if (chunk > cur.size()) {
            chunk = std::max<size_t>(1, cur.size() / 2);
        }
    }
    return cur;
}

// ---------------------------------------------------------------------
// Core target

uarch::CoreConfig
randomCoreConfig(SplitMix64 &rng)
{
    // 1-in-4 cases run a REGISTRY profile's exact geometry instead of a
    // random draw, so the differential keeps covering the machines the
    // fleet sweep actually buys (backend/profile.cpp) as the registry
    // grows.
    if (rng.chance(1, 4)) {
        const auto &names = backend::profileNames();
        const backend::MachineProfile &prof =
            backend::profile(names[rng.below(names.size())]);
        if (prof.kind == backend::Kind::Core) {
            return prof.core;
        }
    }
    uarch::CoreConfig cfg;
    cfg.width = static_cast<int>(rng.range(1, 6));
    cfg.robSize = std::max(
        cfg.width, static_cast<int>(rng.range(8, 224)));
    // The fast core's wakeup bitmask covers 256 RS entries.
    cfg.rsSize = static_cast<int>(rng.range(4, 256));
    cfg.loadBufSize = static_cast<int>(rng.range(2, 80));
    cfg.storeBufSize = static_cast<int>(rng.range(2, 48));
    cfg.aluPorts = static_cast<int>(rng.range(1, 4));
    cfg.simdPorts = static_cast<int>(rng.range(1, 3));
    cfg.mulPorts = static_cast<int>(rng.range(1, 2));
    cfg.loadPorts = static_cast<int>(rng.range(1, 3));
    cfg.storePorts = static_cast<int>(rng.range(1, 2));
    cfg.branchPorts = static_cast<int>(rng.range(1, 2));
    cfg.mispredictPenalty = static_cast<int>(rng.range(5, 20));
    cfg.takenBranchBubble = static_cast<int>(rng.range(0, 2));

    static const char *const kSpecs[] = {
        "tage-8KB",      "tage-64KB",     "gshare-32KB", "bimodal-4KB",
        "perceptron-8KB", "tournament-16KB"};
    cfg.predictorSpec = kSpecs[rng.below(6)];

    // 650 pushes load completions past the fast core's 512-entry
    // calendar ring, forcing the wrap/re-file path.
    static const int kMemLat[] = {60, 180, 650};
    cfg.mem.memoryLatency = kMemLat[rng.below(3)];
    cfg.mem.prefetch.enabled = rng.chance(1, 3);
    if (rng.chance(1, 2)) {
        // Shrink the hierarchy so the trace actually misses.
        cfg.mem.l1d.sizeBytes = size_t{4096} << rng.below(3);
        cfg.mem.l1d.ways = 1 << rng.below(4);
        cfg.mem.l2.sizeBytes = size_t{32 * 1024} << rng.below(3);
        cfg.mem.llc.sizeBytes = size_t{256 * 1024} << rng.below(3);
        cfg.mem.llc.ways = static_cast<int>(rng.range(2, 20));
    }
    return cfg;
}

/** All CoreStats counters as (name, value), for field-wise diffing. */
std::vector<std::pair<const char *, uint64_t>>
statFields(const uarch::CoreStats &s)
{
    return {
        {"cycles", s.cycles},
        {"instructions", s.instructions},
        {"slots.retiring", s.slots.retiring},
        {"slots.badSpec", s.slots.badSpec},
        {"slots.frontend", s.slots.frontend},
        {"slots.backend", s.slots.backend},
        {"slots.backendMemory", s.slots.backendMemory},
        {"slots.backendCore", s.slots.backendCore},
        {"stalls.rs", s.stalls.rs},
        {"stalls.rob", s.stalls.rob},
        {"stalls.loadBuf", s.stalls.loadBuf},
        {"stalls.storeBuf", s.stalls.storeBuf},
        {"condBranches", s.condBranches},
        {"mispredicts", s.mispredicts},
        {"l1iMisses", s.l1iMisses},
        {"l1dAccesses", s.l1dAccesses},
        {"l1dMisses", s.l1dMisses},
        {"l2Misses", s.l2Misses},
        {"llcMisses", s.llcMisses},
        {"invalidations", s.invalidations},
    };
}

/** Diff two stats; empty string when bit-identical. */
std::string
diffStats(const uarch::CoreStats &ref, const uarch::CoreStats &fast)
{
    const auto rf = statFields(ref);
    const auto ff = statFields(fast);
    std::ostringstream out;
    for (size_t i = 0; i < rf.size(); ++i) {
        if (rf[i].second != ff[i].second) {
            if (out.tellp() > 0) {
                out << ", ";
            }
            out << rf[i].first << " ref=" << rf[i].second
                << " fast=" << ff[i].second;
        }
    }
    return out.str();
}

/** Run the optimized core over the whole trace in one delivery, with the
 *  core-swap fault injected when @p swap_fault is set. */
uarch::CoreStats
batchCoreRun(const uarch::CoreConfig &cfg, const std::vector<TraceOp> &trace,
             bool swap_fault)
{
    uarch::StreamCore sim(cfg);
    sim.injectSwapFault(swap_fault);
    sim.onOps(trace.data(), trace.size());
    sim.flush();
    return sim.stats();
}

/**
 * Run the optimized core. Chunked delivery exercises the streaming
 * backlog path; chunk boundaries come from the seed, so batch and
 * streamed runs are both covered across cases.
 */
uarch::CoreStats
fastCoreRun(const uarch::CoreConfig &cfg, const std::vector<TraceOp> &trace,
            SplitMix64 &rng, bool swap_fault)
{
    if (rng.chance(1, 2)) {
        return batchCoreRun(cfg, trace, swap_fault);
    }
    uarch::StreamCore sim(cfg);
    sim.injectSwapFault(swap_fault);
    size_t pos = 0;
    while (pos < trace.size()) {
        size_t n = std::min<size_t>(trace.size() - pos,
                                    rng.range(1, 8192));
        sim.onOps(trace.data() + pos, n);
        pos += n;
    }
    sim.flush();
    return sim.stats();
}

// ---------------------------------------------------------------------
// Cache target

struct CacheEvent {
    enum Kind : uint8_t { DataLoad, DataStore, Instr, Remote };
    Kind kind = DataLoad;
    uint64_t addr = 0;
};

uarch::Hierarchy::Config
randomHierarchyConfig(SplitMix64 &rng)
{
    uarch::Hierarchy::Config cfg;
    // The fast cache indexes with shifts: lineBytes must be a power of
    // two. Non-power-of-two way counts and set counts are fair game and
    // exercise the sets-round-down normalisation.
    const int line = 32 << rng.below(3);
    auto level = [&](uarch::CacheConfig &c, uint64_t min_sets,
                     uint64_t max_sets, int max_ways) {
        c.lineBytes = line;
        c.ways = static_cast<int>(rng.range(1, static_cast<uint64_t>(max_ways)));
        uint64_t sets = rng.range(min_sets, max_sets);
        c.sizeBytes = static_cast<size_t>(sets) *
                      static_cast<size_t>(c.ways) *
                      static_cast<size_t>(line);
    };
    level(cfg.l1i, 1, 64, 8);
    level(cfg.l1d, 1, 64, 8);
    level(cfg.l2, 4, 512, 12);
    level(cfg.llc, 16, 4096, 20);
    cfg.l1d.hitLatency = static_cast<int>(rng.range(1, 5));
    cfg.l2.hitLatency = static_cast<int>(rng.range(6, 20));
    cfg.llc.hitLatency = static_cast<int>(rng.range(21, 60));
    cfg.memoryLatency = static_cast<int>(rng.range(61, 400));
    cfg.prefetch.enabled = rng.chance(1, 2);
    cfg.prefetch.streams = static_cast<int>(rng.range(1, 16));
    cfg.prefetch.degree = static_cast<int>(rng.range(1, 4));
    return cfg;
}

std::vector<CacheEvent>
randomCacheEvents(SplitMix64 &rng, uint64_t n)
{
    std::vector<CacheEvent> events;
    events.reserve(n);
    // A small pool of hot lines plus strided walkers; segments switch
    // between reuse, streaming, set-conflict, and random modes.
    std::vector<uint64_t> hot;
    for (int i = 0; i < 16; ++i) {
        hot.push_back(rng.next() & 0xffff'ffffull);
    }
    while (events.size() < n) {
        const uint64_t seg = rng.range(8, 256);
        const uint64_t mode = rng.below(4);
        uint64_t base = rng.next() & 0xffff'ffffull;
        const uint64_t stride =
            (mode == 2) ? 4096 : (uint64_t{16} << rng.below(8));
        for (uint64_t i = 0; i < seg && events.size() < n; ++i) {
            CacheEvent e;
            const uint64_t k = rng.below(16);
            e.kind = k < 7    ? CacheEvent::DataLoad
                     : k < 11 ? CacheEvent::DataStore
                     : k < 14 ? CacheEvent::Instr
                              : CacheEvent::Remote;
            switch (mode) {
              case 0:  // hot-set reuse
                e.addr = hot[rng.below(hot.size())] + rng.below(64);
                break;
              case 1:  // streaming / strided (trains the prefetcher)
              case 2:  // 4 KiB stride: classic set-conflict ladder
                e.addr = base;
                base += stride;
                break;
              default:  // scattered
                e.addr = rng.next() & 0x3f'ffff'ffffull;
                break;
            }
            events.push_back(e);
        }
    }
    return events;
}

/**
 * Replay @p events on both hierarchies; returns the index of the first
 * latency mismatch (or SIZE_MAX), with the mismatching latencies.
 */
size_t
replayCacheEvents(const std::vector<CacheEvent> &events,
                  uarch::Hierarchy &fast, RefHierarchy &ref, int &lat_ref,
                  int &lat_fast)
{
    for (size_t i = 0; i < events.size(); ++i) {
        const CacheEvent &e = events[i];
        int lr = 0, lf = 0;
        switch (e.kind) {
          case CacheEvent::DataLoad:
            lr = ref.dataAccess(e.addr, false);
            lf = fast.dataAccess(e.addr, false);
            break;
          case CacheEvent::DataStore:
            lr = ref.dataAccess(e.addr, true);
            lf = fast.dataAccess(e.addr, true);
            break;
          case CacheEvent::Instr:
            lr = ref.instrAccess(e.addr);
            lf = fast.instrAccess(e.addr);
            break;
          case CacheEvent::Remote:
            ref.remoteStore(e.addr);
            fast.remoteStore(e.addr);
            break;
        }
        if (lr != lf) {
            lat_ref = lr;
            lat_fast = lf;
            return i;
        }
    }
    return SIZE_MAX;
}

std::string
diffCacheCounters(const RefHierarchy &ref, const uarch::Hierarchy &fast)
{
    struct Row {
        const char *name;
        uint64_t ref_v, fast_v;
    };
    const Row rows[] = {
        {"l1i.accesses", ref.l1i().accesses(), fast.l1i().accesses()},
        {"l1i.misses", ref.l1i().misses(), fast.l1i().misses()},
        {"l1d.accesses", ref.l1d().accesses(), fast.l1d().accesses()},
        {"l1d.misses", ref.l1d().misses(), fast.l1d().misses()},
        {"l1d.invalidations", ref.l1d().invalidations(),
         fast.l1d().invalidations()},
        {"l2.accesses", ref.l2().accesses(), fast.l2().accesses()},
        {"l2.misses", ref.l2().misses(), fast.l2().misses()},
        {"l2.invalidations", ref.l2().invalidations(),
         fast.l2().invalidations()},
        {"llc.accesses", ref.llc().accesses(), fast.llc().accesses()},
        {"llc.misses", ref.llc().misses(), fast.llc().misses()},
    };
    std::ostringstream out;
    for (const Row &r : rows) {
        if (r.ref_v != r.fast_v) {
            if (out.tellp() > 0) {
                out << ", ";
            }
            out << r.name << " ref=" << r.ref_v << " fast=" << r.fast_v;
        }
    }
    return out.str();
}

// ---------------------------------------------------------------------
// Store target helpers

uint64_t
bitsOf(double d)
{
    uint64_t u;
    std::memcpy(&u, &d, sizeof u);
    return u;
}

double
adversarialDouble(SplitMix64 &rng)
{
    switch (rng.below(10)) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2: return std::numeric_limits<double>::denorm_min();
      case 3: return -std::numeric_limits<double>::denorm_min();
      case 4: return std::numeric_limits<double>::max();
      case 5: return std::numeric_limits<double>::min();
      case 6: return 1.0 / 3.0;
      case 7: return -1.7976931348623157e308;
      case 8: return std::nextafter(1.0, 2.0);
      default: {
        // Random finite bit pattern.
        for (;;) {
            uint64_t u = rng.next();
            double d;
            std::memcpy(&d, &u, sizeof d);
            if (std::isfinite(d)) {
                return d;
            }
        }
      }
    }
}

std::string
randomString(SplitMix64 &rng)
{
    static const char kChars[] =
        "abcXYZ019 _-./\\\"';=\t\n{}[]<>%$#@!\xc3\xa9";  // incl. UTF-8 é
    const uint64_t len = rng.below(25);  // 0 = empty string
    std::string s;
    for (uint64_t i = 0; i < len; ++i) {
        s += kChars[rng.below(sizeof kChars - 1)];
    }
    return s;
}

lab::JobSpec
randomJobSpec(SplitMix64 &rng)
{
    lab::JobSpec spec;
    spec.encoder = randomString(rng);
    spec.video = randomString(rng);
    spec.crf = static_cast<int>(rng.next());
    spec.preset = static_cast<int>(rng.next());
    spec.threads = static_cast<int>(rng.range(1, 64));
    spec.divisor = static_cast<int>(rng.range(1, 16));
    spec.frames = static_cast<int>(rng.range(1, 600));
    spec.maxTraceOps = rng.chance(1, 4) ? rng.next() : rng.below(1u << 24);
    return spec;
}

lab::JobResult
randomJobResult(SplitMix64 &rng)
{
    lab::JobResult r;
    r.encode.wallSeconds = adversarialDouble(rng);
    r.encode.instructions = rng.chance(1, 8)
                                ? std::numeric_limits<uint64_t>::max()
                                : rng.next() >> rng.below(40);
    r.encode.bitrateKbps = adversarialDouble(rng);
    r.encode.psnrDb = adversarialDouble(rng);
    r.encode.droppedOps = rng.below(1u << 30);
    r.jobSeconds = adversarialDouble(rng);
    r.core.cycles = rng.next() >> rng.below(40);
    r.core.instructions = rng.next() >> rng.below(40);
    r.core.slots.retiring = rng.next() >> 20;
    r.core.slots.badSpec = rng.next() >> 30;
    r.core.slots.frontend = rng.next() >> 30;
    r.core.slots.backend = rng.next() >> 30;
    r.core.slots.backendMemory = rng.next() >> 32;
    r.core.slots.backendCore = rng.next() >> 32;
    r.core.stalls.rs = rng.next() >> 32;
    r.core.stalls.rob = rng.next() >> 32;
    r.core.stalls.loadBuf = rng.next() >> 32;
    r.core.stalls.storeBuf = rng.next() >> 32;
    r.core.condBranches = rng.next() >> 24;
    r.core.mispredicts = rng.next() >> 32;
    r.core.l1iMisses = rng.next() >> 32;
    r.core.l1dAccesses = rng.next() >> 24;
    r.core.l1dMisses = rng.next() >> 28;
    r.core.l2Misses = rng.next() >> 30;
    r.core.llcMisses = rng.next() >> 32;
    r.core.invalidations = rng.next() >> 32;
    return r;
}

/** Field-wise comparison, doubles by bit pattern; empty = identical. */
std::string
diffJobResult(const lab::JobResult &want, const lab::JobResult &got)
{
    std::ostringstream out;
    auto chk_u64 = [&](const char *name, uint64_t w, uint64_t g) {
        if (w != g) {
            if (out.tellp() > 0) {
                out << ", ";
            }
            out << name << " want=" << w << " got=" << g;
        }
    };
    auto chk_dbl = [&](const char *name, double w, double g) {
        if (bitsOf(w) != bitsOf(g)) {
            if (out.tellp() > 0) {
                out << ", ";
            }
            char wb[32], gb[32];
            std::snprintf(wb, sizeof wb, "%.17g", w);
            std::snprintf(gb, sizeof gb, "%.17g", g);
            out << name << " want=" << wb << " (0x" << std::hex
                << bitsOf(w) << ") got=" << gb << " (0x" << bitsOf(g)
                << std::dec << ")";
        }
    };
    chk_dbl("encode.wallSeconds", want.encode.wallSeconds,
            got.encode.wallSeconds);
    chk_u64("encode.instructions", want.encode.instructions,
            got.encode.instructions);
    chk_dbl("encode.bitrateKbps", want.encode.bitrateKbps,
            got.encode.bitrateKbps);
    chk_dbl("encode.psnrDb", want.encode.psnrDb, got.encode.psnrDb);
    chk_u64("encode.droppedOps", want.encode.droppedOps,
            got.encode.droppedOps);
    chk_dbl("jobSeconds", want.jobSeconds, got.jobSeconds);
    const auto wf = statFields(want.core);
    const auto gf = statFields(got.core);
    for (size_t i = 0; i < wf.size(); ++i) {
        chk_u64(wf[i].first, wf[i].second, gf[i].second);
    }
    return out.str();
}

// ---------------------------------------------------------------------
// Parallel target helpers

/** Ops in one batch of core::simulate's multi-config fan-out: 64
 *  standard blocks. */
constexpr size_t kFanOutBatchOps = 64 * trace::TraceBlock::kOps;

/**
 * Deterministically interleaved op/branch/kernel stream: the same
 * @p chunk_seed produces the identical record sequence (including chunk
 * boundaries) on every call, so the sequential reference and the
 * parallel runs under test consume exactly the same stream. The
 * ParallelDrop fault withholds the final op, which both the fan-out
 * and the segments=1 differentials must flag as a stats mismatch.
 */
void
replayInterleaved(trace::TraceSink &sink, uint64_t chunk_seed,
                  const std::vector<TraceOp> &ops,
                  const std::vector<trace::BranchRecord> &branches,
                  bool drop_last_op)
{
    SplitMix64 rng(chunk_seed);
    const size_t op_end =
        ops.size() - (drop_last_op && !ops.empty() ? 1 : 0);
    const size_t br_end = branches.size();
    size_t op_pos = 0, br_pos = 0;
    while (op_pos < op_end || br_pos < br_end) {
        const bool do_ops =
            op_pos < op_end && (br_pos >= br_end || !rng.chance(1, 3));
        if (do_ops) {
            const size_t n = std::min<size_t>(op_end - op_pos,
                                              rng.range(1, 6000));
            sink.onOps(ops.data() + op_pos, n);
            op_pos += n;
        } else {
            const size_t n = std::min<size_t>(br_end - br_pos,
                                              rng.range(1, 512));
            for (size_t i = 0; i < n; ++i) {
                sink.onBranch(branches[br_pos + i]);
            }
            br_pos += n;
        }
        if (rng.chance(1, 16)) {
            sink.onKernel(0x4000 + rng.below(8) * 0x100);
        }
    }
    sink.flush();
}

/** Diff two cache-sink views (instructions + hierarchy counters). */
std::string
diffCacheSinks(const uarch::CacheSink &ref, const uarch::CacheSink &par)
{
    struct Row {
        const char *name;
        uint64_t ref_v, par_v;
    };
    const uarch::Hierarchy &r = ref.hierarchy();
    const uarch::Hierarchy &p = par.hierarchy();
    const Row rows[] = {
        {"instructions", ref.instructions(), par.instructions()},
        {"l1i.accesses", r.l1i().accesses(), p.l1i().accesses()},
        {"l1i.misses", r.l1i().misses(), p.l1i().misses()},
        {"l1d.accesses", r.l1d().accesses(), p.l1d().accesses()},
        {"l1d.misses", r.l1d().misses(), p.l1d().misses()},
        {"l2.misses", r.l2().misses(), p.l2().misses()},
        {"llc.misses", r.llc().misses(), p.llc().misses()},
    };
    std::ostringstream out;
    for (const Row &row : rows) {
        if (row.ref_v != row.par_v) {
            if (out.tellp() > 0) {
                out << ", ";
            }
            out << row.name << " seq=" << row.ref_v
                << " got=" << row.par_v;
        }
    }
    return out.str();
}

// ---------------------------------------------------------------------
// TraceFile target helpers

/**
 * Restages a record stream into blocks of seeded, irregular sizes (up
 * to four standard blocks, so one block can hold more distinct op
 * descriptors and event values than the encoder's in-place tables) and
 * hands each whole to @p dest through onBlock: the FileSink intake that
 * record-at-a-time capture never reaches. flush() hands over the tail
 * block and flushes @p dest.
 */
class IrregularBlocks final : public trace::TraceSink
{
  public:
    IrregularBlocks(trace::TraceSink &dest, uint64_t seed)
        : dest_(dest), rng_(seed), limit_(drawLimit())
    {
    }

    void onOp(const TraceOp &op) override { onOps(&op, 1); }

    void
    onOps(const TraceOp *ops, size_t n) override
    {
        while (n > 0) {
            const size_t take = std::min(n, limit_ - block_.ops.size());
            block_.ops.insert(block_.ops.end(), ops, ops + take);
            ops += take;
            n -= take;
            if (block_.ops.size() == limit_) {
                cut();
            }
        }
    }

    void
    onBranch(const trace::BranchRecord &branch) override
    {
        event(trace::TraceBlock::Event::Branch, branch.taken, branch.pc);
    }

    void
    onKernel(uint64_t site) override
    {
        event(trace::TraceBlock::Event::Kernel, false, site);
    }

    void
    flush() override
    {
        cut();
        dest_.flush();
    }

  private:
    size_t
    drawLimit()
    {
        return rng_.range(1, 4 * trace::TraceBlock::kOps);
    }

    void
    event(trace::TraceBlock::Event::Kind kind, bool taken, uint64_t value)
    {
        trace::TraceBlock::Event e;
        e.pos = static_cast<uint32_t>(block_.ops.size());
        e.kind = kind;
        e.taken = taken;
        e.value = value;
        block_.events.push_back(e);
        if (block_.events.size() >= limit_) {
            cut();
        }
    }

    void
    cut()
    {
        if (!block_.empty()) {
            dest_.onBlock(std::move(block_));
            block_.clear();
        }
        limit_ = drawLimit();
    }

    trace::TraceSink &dest_;
    SplitMix64 rng_;
    size_t limit_;
    trace::TraceBlock block_;
};

/**
 * Byte offsets, in a TraceFile image, of the flags byte of each block's
 * first op. Found by walking the block framing and the two count
 * varints only: a block's first op is always a literal descriptor
 * (code 0, then flags), because the dictionaries reset per block.
 */
std::vector<size_t>
firstOpFlagOffsets(const std::vector<char> &file)
{
    std::vector<size_t> out;
    size_t at = 8;  // "VETF" + version
    while (at + 4 <= file.size()) {
        uint32_t len = 0;
        std::memcpy(&len, file.data() + at, sizeof len);
        if (len == 0 || at + 4 + len > file.size()) {
            break;
        }
        size_t p = at + 4;
        uint64_t counts[2] = {0, 0};
        for (uint64_t &c : counts) {
            for (int shift = 0; shift < 64 && p < file.size(); shift += 7) {
                const auto byte = static_cast<uint8_t>(file[p++]);
                c |= static_cast<uint64_t>(byte & 0x7f) << shift;
                if ((byte & 0x80) == 0) {
                    break;
                }
            }
        }
        if (counts[0] > 0) {
            out.push_back(p + 1);
        }
        at += 4 + len;
    }
    return out;
}

// ---------------------------------------------------------------------
// Probe target helpers

/** Flattens a probe's delivered stream into ProbeRecords. */
class RecordSink final : public trace::TraceSink
{
  public:
    void
    onOp(const TraceOp &op) override
    {
        ProbeRecord r;
        r.op = op;
        records.push_back(r);
    }

    void
    onBranch(const trace::BranchRecord &branch) override
    {
        ProbeRecord r;
        r.kind = ProbeRecord::Branch;
        r.value = branch.pc;
        r.taken = branch.taken;
        records.push_back(r);
    }

    void
    onKernel(uint64_t site) override
    {
        ProbeRecord r;
        r.kind = ProbeRecord::Kernel;
        r.value = site;
        records.push_back(r);
    }

    std::vector<ProbeRecord> records;
};

/** A sampling configuration small enough that every regime — gaps,
 *  windows, a full cap, the dropping tail, branch warmup — shows up
 *  within a few thousand emission calls. */
trace::ProbeConfig
randomProbeConfig(SplitMix64 &rng)
{
    trace::ProbeConfig c;
    c.collectOps = !rng.chance(1, 8);
    c.opInterval = rng.range(1, 400);
    // Windows at or past the interval switch sampling off.
    c.opWindow = rng.chance(1, 6) ? c.opInterval + rng.below(3)
                                  : rng.below(c.opInterval);
    c.maxOps = rng.chance(1, 4) ? std::numeric_limits<size_t>::max()
                                : rng.below(3000);
    c.profileSites = rng.chance(1, 5);
    c.collectBranches = rng.chance(1, 2);
    c.maxBranches = rng.chance(1, 4) ? std::numeric_limits<size_t>::max()
                                     : rng.below(600);
    c.branchWarmupOps = rng.chance(1, 2) ? 0 : rng.below(4000);
    if (rng.chance(1, 10)) {
        c = trace::ProbeConfig::streaming(rng.chance(1, 2));
    }
    return c;
}

std::string
describeProbeConfig(const trace::ProbeConfig &c)
{
    std::ostringstream out;
    out << "collectOps=" << c.collectOps << " window=" << c.opWindow
        << " interval=" << c.opInterval << " maxOps=" << c.maxOps
        << " profileSites=" << c.profileSites
        << " collectBranches=" << c.collectBranches
        << " maxBranches=" << c.maxBranches
        << " warmup=" << c.branchWarmupOps;
    return out.str();
}

/** First differing counter of two probes, or "" when they agree. */
template <class A, class B>
std::string
diffProbeCounters(const A &want, const B &got)
{
    struct Row {
        const char *name;
        uint64_t want, got;
    };
    const Row rows[] = {
        {"totalOps", want.totalOps(), got.totalOps()},
        {"recordedOps", want.recordedOps(), got.recordedOps()},
        {"droppedOps", want.droppedOps(), got.droppedOps()},
        {"recordedBranches", want.recordedBranches(),
         got.recordedBranches()},
        {"droppedBranches", want.droppedBranches(), got.droppedBranches()},
        {"branchTraceOpSpan", want.branchTraceOpSpan(),
         got.branchTraceOpSpan()},
    };
    for (const Row &r : rows) {
        if (r.want != r.got) {
            return std::string(r.name) + " want=" + std::to_string(r.want) +
                   " got=" + std::to_string(r.got);
        }
    }
    return "";
}

std::string
diffMix(const std::array<uint64_t, trace::kNumOpClasses> &want,
        const std::array<uint64_t, trace::kNumOpClasses> &got)
{
    for (int i = 0; i < trace::kNumOpClasses; ++i) {
        if (want[i] != got[i]) {
            return "mix[" +
                   std::string(trace::opClassName(
                       static_cast<trace::OpClass>(i))) +
                   "] want=" + std::to_string(want[i]) +
                   " got=" + std::to_string(got[i]);
        }
    }
    return "";
}

std::string
diffRecords(const std::vector<ProbeRecord> &want,
            const std::vector<ProbeRecord> &got)
{
    const size_t n = std::min(want.size(), got.size());
    for (size_t i = 0; i < n; ++i) {
        if (!(want[i] == got[i])) {
            return "record " + std::to_string(i) + " differs (kind want=" +
                   std::to_string(want[i].kind) +
                   " got=" + std::to_string(got[i].kind) + ")";
        }
    }
    if (want.size() != got.size()) {
        return "record count want=" + std::to_string(want.size()) +
               " got=" + std::to_string(got.size());
    }
    return "";
}

} // namespace

// ---------------------------------------------------------------------
// Per-target cases

bool
Fuzzer::runCoreCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);
    const uarch::CoreConfig cfg = randomCoreConfig(rng);
    uint64_t max_ops = options_.quick ? rng.range(2'000, 12'000)
                                      : rng.range(2'000, 60'000);
    if (rng.chance(1, 8)) {
        max_ops = rng.below(81);  // tiny traces: boundary behaviour
    }
    const std::vector<TraceOp> trace = trace::synthFuzzTrace(rng.fork(),
                                                             max_ops);

    const bool swap_fault = options_.inject == Fault::CoreSwap;
    const uarch::CoreStats ref = refCoreRun(cfg, trace, options_.inject);
    const uarch::CoreStats fast = fastCoreRun(cfg, trace, rng, swap_fault);
    std::string diff = diffStats(ref, fast);
    if (diff.empty()) {
        return false;
    }

    out.target = Target::Core;
    out.seed = seed;
    out.repro = reproCommand(Target::Core, seed, options_.inject, options_.quick);
    out.shrunkOps = trace.size();
    if (options_.shrink && trace.size() <= 150'000) {
        const Fault inject = options_.inject;
        auto still_fails = [&cfg, inject,
                            swap_fault](const std::vector<TraceOp> &t) {
            return !diffStats(refCoreRun(cfg, t, inject),
                              batchCoreRun(cfg, t, swap_fault))
                        .empty();
        };
        // The shrunk predicate uses the batch fast path; re-check the
        // original input under it before trusting shrink results.
        if (still_fails(trace)) {
            const std::vector<TraceOp> small =
                ddminShrink(trace, still_fails, 200);
            out.shrunkOps = small.size();
            diff = diffStats(refCoreRun(cfg, small, inject),
                             batchCoreRun(cfg, small, swap_fault));
        }
    }
    out.detail = "CoreStats mismatch (" + std::to_string(trace.size()) +
                 " ops, shrunk to " + std::to_string(out.shrunkOps) +
                 "): " + diff;
    return true;
}

bool
Fuzzer::runCacheCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);
    const uarch::Hierarchy::Config cfg = randomHierarchyConfig(rng);
    const uint64_t n = options_.quick ? rng.range(5'000, 40'000)
                                      : rng.range(5'000, 120'000);
    const std::vector<CacheEvent> events = randomCacheEvents(rng, n);

    auto diverges = [&cfg, this](const std::vector<CacheEvent> &ev,
                                 std::string &detail) {
        uarch::Hierarchy fast(cfg);
        RefHierarchy ref(cfg, options_.inject);
        int lr = 0, lf = 0;
        const size_t idx = replayCacheEvents(ev, fast, ref, lr, lf);
        if (idx != SIZE_MAX) {
            std::ostringstream d;
            d << "latency mismatch at event " << idx << "/" << ev.size()
              << " (addr 0x" << std::hex << ev[idx].addr << std::dec
              << "): ref=" << lr << " fast=" << lf;
            detail = d.str();
            return true;
        }
        detail = diffCacheCounters(ref, fast);
        return !detail.empty();
    };

    std::string detail;
    if (!diverges(events, detail)) {
        return false;
    }
    out.target = Target::Cache;
    out.seed = seed;
    out.repro = reproCommand(Target::Cache, seed, options_.inject, options_.quick);
    out.shrunkOps = events.size();
    if (options_.shrink) {
        std::string scratch;
        auto still_fails = [&](const std::vector<CacheEvent> &ev) {
            return diverges(ev, scratch);
        };
        const std::vector<CacheEvent> small =
            ddminShrink(events, still_fails, 200);
        out.shrunkOps = small.size();
        diverges(small, detail);
    }
    out.detail = "cache divergence (" + std::to_string(events.size()) +
                 " events, shrunk to " + std::to_string(out.shrunkOps) +
                 "): " + detail;
    return true;
}

bool
Fuzzer::runBpredCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);
    static const size_t kBudgets[] = {8 * 1024, 64 * 1024, 192 * 1024};
    const size_t budget = kBudgets[rng.below(3)];
    const uint64_t n = options_.quick ? rng.range(5'000, 50'000)
                                      : rng.range(5'000, 200'000);
    const std::vector<trace::BranchRecord> branches =
        trace::synthFuzzBranches(rng.fork(), n);

    auto diverges = [&, this](const std::vector<trace::BranchRecord> &brs,
                              std::string &detail) {
        auto fast = bpred::makePredictor(
            "tage-" + std::to_string(budget / 1024) + "KB");
        RefTage ref(budget, options_.inject);
        for (size_t i = 0; i < brs.size(); ++i) {
            const bool pf = fast->predict(brs[i].pc);
            const bool pr = ref.predict(brs[i].pc);
            if (pf != pr) {
                std::ostringstream d;
                d << "prediction mismatch at branch " << i << "/"
                  << brs.size() << " (pc 0x" << std::hex << brs[i].pc
                  << std::dec << "): ref=" << pr << " fast=" << pf;
                detail = d.str();
                return true;
            }
            fast->update(brs[i].pc, brs[i].taken, pf);
            ref.update(brs[i].pc, brs[i].taken, pr);
        }
        return false;
    };

    std::string detail;
    if (!diverges(branches, detail)) {
        return false;
    }
    out.target = Target::Bpred;
    out.seed = seed;
    out.repro = reproCommand(Target::Bpred, seed, options_.inject, options_.quick);
    out.shrunkOps = branches.size();
    if (options_.shrink) {
        std::string scratch;
        auto still_fails = [&](const std::vector<trace::BranchRecord> &b) {
            return diverges(b, scratch);
        };
        const std::vector<trace::BranchRecord> small =
            ddminShrink(branches, still_fails, 200);
        out.shrunkOps = small.size();
        diverges(small, detail);
    }
    out.detail = "predictor divergence (" + std::to_string(branches.size()) +
                 " branches, shrunk to " + std::to_string(out.shrunkOps) +
                 "): " + detail;
    return true;
}

bool
Fuzzer::runKernelsCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);
    const codec::KernelTable &scalar = codec::scalarKernels();
    const codec::KernelTable &fast = codec::kernels();
    std::ostringstream detail;

    auto fail = [&](const std::string &what) {
        out.target = Target::Kernels;
        out.seed = seed;
        out.repro = reproCommand(Target::Kernels, seed, options_.inject, options_.quick);
        out.detail = "kernel divergence from the oracle (isa=" +
                     std::string(fast.isa) + "): " + what;
        return true;
    };

    // Pixel kernels over a randomized geometry.
    static const int kDims[] = {4, 5, 7, 8, 12, 16, 24, 31, 32, 48, 64};
    const int w = kDims[rng.below(11)];
    const int h = kDims[rng.below(11)];
    const int a_stride = w + static_cast<int>(rng.below(25));
    const int b_stride = w + static_cast<int>(rng.below(25));
    std::vector<uint8_t> a(static_cast<size_t>(a_stride) * h);
    std::vector<uint8_t> b(static_cast<size_t>(b_stride) * h);
    for (uint8_t &x : a) {
        x = static_cast<uint8_t>(rng.next());
    }
    for (uint8_t &x : b) {
        x = static_cast<uint8_t>(rng.next());
    }

    uint64_t sad_want = scalar.sad(a.data(), a_stride, b.data(), b_stride,
                                   w, h);
    if (options_.inject == Fault::KernelsSad && w * h >= 64) {
        ++sad_want;  // deliberately wrong oracle; harness must notice
    }
    const uint64_t sad_got = fast.sad(a.data(), a_stride, b.data(),
                                      b_stride, w, h);
    if (sad_want != sad_got) {
        return fail("sad(" + std::to_string(w) + "x" + std::to_string(h) +
                    ") oracle=" + std::to_string(sad_want) +
                    " fast=" + std::to_string(sad_got));
    }
    if (scalar.sse(a.data(), a_stride, b.data(), b_stride, w, h) !=
        fast.sse(a.data(), a_stride, b.data(), b_stride, w, h)) {
        return fail("sse(" + std::to_string(w) + "x" + std::to_string(h) +
                    ")");
    }
    if (w >= 4 && h >= 4 &&
        scalar.satd4(a.data(), a_stride, b.data(), b_stride) !=
            fast.satd4(a.data(), a_stride, b.data(), b_stride)) {
        return fail("satd4");
    }
    if (w >= 8 && h >= 8 &&
        scalar.satd8(a.data(), a_stride, b.data(), b_stride) !=
            fast.satd8(a.data(), a_stride, b.data(), b_stride)) {
        return fail("satd8");
    }

    const size_t wh = static_cast<size_t>(w) * h;
    std::vector<int16_t> res_s(wh), res_f(wh);
    scalar.residual(a.data(), a_stride, b.data(), b_stride, w, h,
                    res_s.data());
    fast.residual(a.data(), a_stride, b.data(), b_stride, w, h,
                  res_f.data());
    if (res_s != res_f) {
        return fail("residual");
    }
    std::vector<uint8_t> rec_s(a.size(), 0), rec_f(a.size(), 0);
    scalar.reconstruct(a.data(), a_stride, res_s.data(), w, h, rec_s.data(),
                       a_stride);
    fast.reconstruct(a.data(), a_stride, res_s.data(), w, h, rec_f.data(),
                     a_stride);
    if (rec_s != rec_f) {
        return fail("reconstruct");
    }

    // Transform + quantiser round at a randomized size / q-point.
    static const int kTx[] = {4, 8, 16, 32};
    const int n = kTx[rng.below(4)];
    const int32_t *basis = codec::dctBasis(n);
    const size_t count = static_cast<size_t>(n) * n;
    std::vector<int16_t> src(count);
    for (int16_t &x : src) {
        x = static_cast<int16_t>(rng.next());
    }
    // Both tables' butterflies against the plain matrix product, on
    // full-range residuals and on coefficients past the usual range.
    std::vector<int32_t> tx_want(count), tx_got(count);
    refFdct(src.data(), tx_want.data(), n, basis, options_.inject);
    std::vector<int32_t> coeff(count);
    for (int32_t &x : coeff) {
        x = static_cast<int32_t>(rng.next() % (1u << 23)) - (1 << 22);
    }
    for (const codec::KernelTable *t : {&scalar, &fast}) {
        t->fdct(src.data(), tx_got.data(), n, basis);
        if (tx_got != tx_want) {
            return fail(std::string(t->isa) + " fdct(n=" + std::to_string(n) +
                        ") differs from the matrix product");
        }
        for (const std::vector<int32_t> *in : {&tx_want, &coeff}) {
            std::vector<int16_t> px_want(count), px_got(count);
            refIdct(in->data(), px_want.data(), n, basis, options_.inject);
            t->idct(in->data(), px_got.data(), n, basis);
            if (px_got != px_want) {
                return fail(std::string(t->isa) + " idct(n=" +
                            std::to_string(n) +
                            ") differs from the matrix product");
            }
        }
    }
    const double t = static_cast<double>(rng.below(64)) / 63.0;
    const double step = 0.6 * std::pow(2.0, t * 8.1);
    std::vector<int32_t> lv_s(count), lv_f(count);
    const int nz_s = scalar.quant(coeff.data(), lv_s.data(),
                                  static_cast<int>(count), step * 0.4,
                                  1.0 / step);
    const int nz_f = fast.quant(coeff.data(), lv_f.data(),
                                static_cast<int>(count), step * 0.4,
                                1.0 / step);
    if (nz_s != nz_f || lv_s != lv_f) {
        return fail("quant(n=" + std::to_string(n) + ")");
    }
    std::vector<int32_t> dq_s(count), dq_f(count);
    scalar.dequant(lv_s.data(), dq_s.data(), static_cast<int>(count), step);
    fast.dequant(lv_s.data(), dq_f.data(), static_cast<int>(count), step);
    if (dq_s != dq_f) {
        return fail("dequant(n=" + std::to_string(n) + ")");
    }

    // Half-pel planes of a random plane size, both filters: every
    // phase-plane sample (so every edge position) against the per-pel
    // clamped reference, then compensated blocks pinned to each edge
    // with vectors pointing past it.
    const int pw = 4 + static_cast<int>(rng.below(61));
    const int ph = 4 + static_cast<int>(rng.below(61));
    const int p_stride = pw + static_cast<int>(rng.below(9));
    std::vector<uint8_t> pel(static_cast<size_t>(p_stride) * ph);
    for (uint8_t &x : pel) {
        // Extreme pels drive the sharp filter's clamp from both sides.
        const uint64_t r = rng.next();
        x = static_cast<uint8_t>((r & 3) == 0 ? 0 : (r & 3) == 1 ? 255 : r >> 8);
    }
    const codec::PelView view{pel.data(), p_stride, 0};
    for (bool sharp : {false, true}) {
        const std::string filter = sharp ? "sharp" : "bilinear";
        codec::HalfPelPlanes planes;
        planes.injectEdgeFault(options_.inject == Fault::HpelEdge);
        planes.build(view, pw, ph, sharp);
        for (int phase = 1; phase < 4; ++phase) {
            const int hx = phase & 1;
            const int hy = phase >> 1;
            const uint8_t *got = planes.phase(hx, hy);
            for (int y = 0; y < ph; ++y) {
                for (int x = 0; x < pw; ++x) {
                    const uint8_t want = refHalfPel(pel.data(), p_stride, pw,
                                                    ph, x, y, hx, hy, sharp);
                    if (got[y * pw + x] != want) {
                        return fail(
                            filter + " half-pel plane " + std::to_string(pw) +
                            "x" + std::to_string(ph) + " half=" +
                            std::to_string(hx) + std::to_string(hy) +
                            " pel (" + std::to_string(x) + "," +
                            std::to_string(y) + ") plane=" +
                            std::to_string(got[y * pw + x]) +
                            " ref=" + std::to_string(want));
                    }
                }
            }
        }
        static const int kBlock[] = {4, 8, 16};
        for (int b = 0; b < 8; ++b) {
            const int bs = std::min({kBlock[rng.below(3)], pw, ph});
            // Pin the block to one edge (or none) on each axis.
            auto pick = [&](int extent) {
                const uint64_t r = rng.below(3);
                return r == 0 ? 0
                              : r == 1 ? extent - bs
                                       : static_cast<int>(
                                             rng.below(extent - bs + 1));
            };
            const int bx = pick(pw);
            const int by = pick(ph);
            const codec::MotionVector mv{
                static_cast<int>(rng.below(41)) - 20,
                static_cast<int>(rng.below(41)) - 20};
            const codec::MotionVector c =
                codec::clampMv(mv, bx, by, bs, bs, pw, ph);
            const int fx = bx + (c.x >> 1), fy = by + (c.y >> 1);
            const int hx = c.x & 1, hy = c.y & 1;
            std::vector<uint8_t> block(static_cast<size_t>(bs) * bs);
            codec::motionCompensate(view, planes, bx, by, bs, bs, mv,
                                    {block.data(), bs, 0});
            for (int y = 0; y < bs; ++y) {
                for (int x = 0; x < bs; ++x) {
                    const int px = fx + x, py = fy + y;
                    const uint8_t want =
                        hx || hy ? refHalfPel(pel.data(), p_stride, pw, ph,
                                              px, py, hx, hy, sharp)
                                 : pel[static_cast<size_t>(py) * p_stride + px];
                    if (block[y * bs + x] != want) {
                        return fail(filter + " motionCompensate(" +
                                    std::to_string(bs) + "x" +
                                    std::to_string(bs) + " at " +
                                    std::to_string(bx) + "," +
                                    std::to_string(by) + " mv " +
                                    std::to_string(mv.x) + "," +
                                    std::to_string(mv.y) + ") pel (" +
                                    std::to_string(x) + "," +
                                    std::to_string(y) + ")");
                    }
                }
            }
        }
    }
    return false;
}

bool
Fuzzer::runStoreCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);
    const fs::path base = options_.tempDir.empty()
                              ? fs::temp_directory_path()
                              : fs::path(options_.tempDir);
    char sub[64];
    std::snprintf(sub, sizeof sub, "vepro-check-store-%016llx",
                  static_cast<unsigned long long>(seed));
    const fs::path dir = base / sub;

    auto fail = [&](const std::string &what) {
        out.target = Target::Store;
        out.seed = seed;
        out.repro = reproCommand(Target::Store, seed, options_.inject, options_.quick);
        out.detail = "store round-trip: " + what;
        std::error_code ec;
        fs::remove_all(dir, ec);
        return true;
    };

    lab::ResultStore store(dir.string(), nullptr);
    const lab::JobSpec spec = randomJobSpec(rng);
    lab::JobResult result = randomJobResult(rng);

    if (rng.chance(1, 4)) {
        // Non-finite doubles must be rejected with JsonError before any
        // file is written — never persisted as "nan"/"inf" tokens.
        static const double kBad[] = {
            std::numeric_limits<double>::quiet_NaN(),
            std::numeric_limits<double>::infinity(),
            -std::numeric_limits<double>::infinity()};
        result.encode.psnrDb = kBad[rng.below(3)];
        bool threw = false;
        try {
            store.save(spec, result);
        } catch (const lab::JsonError &) {
            threw = true;
        }
        if (!threw) {
            return fail("save() accepted a non-finite double");
        }
        std::error_code ec;
        if (fs::exists(store.pathFor(spec), ec)) {
            return fail("non-finite save left a record behind");
        }
        if (store.load(spec)) {
            return fail("load() found a record after a failed save");
        }
        fs::remove_all(dir, ec);
        return false;
    }

    try {
        store.save(spec, result);
    } catch (const std::exception &e) {
        return fail(std::string("save() threw: ") + e.what());
    }
    const std::optional<lab::JobResult> loaded = store.load(spec);
    if (!loaded) {
        return fail("load() missed a just-saved record");
    }
    lab::JobResult want = result;
    if (options_.inject == Fault::StoreBit) {
        // Flip the low mantissa bit of one double on the expectation
        // side: the bit-exact comparison must flag it.
        uint64_t bits = bitsOf(want.encode.wallSeconds) ^ 1u;
        std::memcpy(&want.encode.wallSeconds, &bits, sizeof bits);
    }
    const std::string diff = diffJobResult(want, *loaded);
    if (!diff.empty()) {
        return fail(diff);
    }

    // A different spec must not alias onto this record.
    lab::JobSpec other = spec;
    other.crf = spec.crf ^ 1;
    if (store.load(other)) {
        return fail("load() of a different spec hit this record");
    }

    std::error_code ec;
    fs::remove_all(dir, ec);
    return false;
}

/**
 * The parallel-simulation differential (ISSUE 6 layer 4). One seeded
 * case asserts, on the same interleaved op/branch/kernel stream:
 *
 *  1. fan-out bit-identity — core::simulate over K random configs
 *     (batched blocks replayed on worker threads) produces the exact
 *     CoreStats of K StreamCores fed the stream sequentially;
 *  2. segment exactness — SegmentSim's stitched event counters
 *     (instructions, retiring slots, conditional branches, L1D
 *     accesses) are bit-equal to the sequential core at every segment
 *     count and warmup depth, because warmup counters are discarded;
 *  3. segment convergence — segments=1 is bit-identical, and growing
 *     the warmup prefix does not move the timing counters away from
 *     the sequential answer beyond a small stitching bound (a leak of
 *     warmup cycles into the stats blows far past the bound).
 */
bool
Fuzzer::runParallelCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);
    const uarch::CoreConfig cfg = randomCoreConfig(rng);
    const uint64_t max_ops = options_.quick ? rng.range(16'000, 40'000)
                                            : rng.range(16'000, 120'000);
    const uint64_t max_brs = options_.quick ? rng.range(1'000, 8'000)
                                            : rng.range(1'000, 24'000);
    std::vector<TraceOp> ops = trace::synthFuzzTrace(rng.fork(), max_ops);
    const std::vector<trace::BranchRecord> branches =
        trace::synthFuzzBranches(rng.fork(), max_brs);
    const uint64_t chunk_seed = rng.next();
    const bool drop = options_.inject == Fault::ParallelDrop;
    // One case in three runs past three of the fan-out's batches, so a
    // batch replaying on the workers overlaps the fill of the next.
    if (rng.chance(1, 3)) {
        while (ops.size() <= 3 * kFanOutBatchOps) {
            const std::vector<TraceOp> more =
                trace::synthFuzzTrace(rng.fork(), max_ops);
            ops.insert(ops.end(), more.begin(), more.end());
        }
    }

    auto fail = [&](const std::string &what) {
        out.target = Target::Parallel;
        out.seed = seed;
        out.repro = reproCommand(Target::Parallel, seed, options_.inject,
                                 options_.quick);
        out.shrunkOps = 0;  // two interleaved streams: not ddmin-shaped
        out.detail = "parallel divergence (" + std::to_string(ops.size()) +
                     " ops, " + std::to_string(branches.size()) +
                     " branches): " + what;
        return true;
    };

    // Sequential reference: K StreamCores (the case's config first)
    // behind one MuxSink on this thread. The injected ParallelDrop
    // fault breaks only this side.
    std::vector<uarch::CoreConfig> configs = {cfg};
    const uint64_t extra = rng.range(1, 3);
    for (uint64_t i = 0; i < extra; ++i) {
        configs.push_back(randomCoreConfig(rng));
    }
    std::vector<uarch::StreamCore> seq_cores(configs.begin(),
                                             configs.end());
    trace::MuxSink seq_mux;
    for (uarch::StreamCore &core : seq_cores) {
        seq_mux.add(&core);
    }
    replayInterleaved(seq_mux, chunk_seed, ops, branches, drop);
    const uarch::CoreStats ref = seq_cores.front().stats();

    // 1. The multi-config fan-out: bit-identical per-config stats.
    const std::vector<uarch::CoreStats> fanned = core::simulate(
        [&](trace::TraceSink &sink) {
            replayInterleaved(sink, chunk_seed, ops, branches, false);
        },
        configs, core::RunScale{});
    for (size_t i = 0; i < configs.size(); ++i) {
        const std::string diff = diffStats(seq_cores[i].stats(), fanned[i]);
        if (!diff.empty()) {
            return fail("fan-out config " + std::to_string(i) + " of " +
                        std::to_string(configs.size()) + ": " + diff);
        }
    }

    // Shared replay into a SegmentSim at the given geometry.
    auto segmentStats = [&](int segments, int warmup,
                            int jobs) -> uarch::CoreStats {
        uarch::SegmentSimConfig scfg;
        scfg.core = cfg;
        scfg.segments = segments;
        scfg.warmupBlocks = warmup;
        scfg.jobs = jobs;
        uarch::SegmentSim sim(scfg);
        replayInterleaved(sim, chunk_seed, ops, branches, false);
        return sim.stats();
    };

    // 2. segments=1 must be bit-identical (every field).
    const std::string one_diff = diffStats(ref, segmentStats(1, 8, 1));
    if (!one_diff.empty()) {
        return fail("segments=1: " + one_diff);
    }

    // 3. Real segmenting: exact counters bit-equal at two warmup depths;
    //    timing error must not grow as the warmup prefix deepens.
    const int segments = static_cast<int>(rng.range(2, 5));
    const int jobs = static_cast<int>(rng.range(1, 3));
    const uarch::CoreStats cold = segmentStats(segments, 0, jobs);
    const uarch::CoreStats warm = segmentStats(segments, 16, jobs);
    for (const uarch::CoreStats *s : {&cold, &warm}) {
        std::ostringstream diff;
        auto exact = [&](const char *name, uint64_t want, uint64_t got) {
            if (want != got) {
                if (diff.tellp() > 0) {
                    diff << ", ";
                }
                diff << name << " seq=" << want << " seg=" << got;
            }
        };
        exact("instructions", ref.instructions, s->instructions);
        exact("slots.retiring", ref.slots.retiring, s->slots.retiring);
        exact("condBranches", ref.condBranches, s->condBranches);
        exact("l1dAccesses", ref.l1dAccesses, s->l1dAccesses);
        if (diff.tellp() > 0) {
            return fail("segment exact counters (segments=" +
                        std::to_string(segments) + ", warmup=" +
                        std::to_string(s == &warm ? 16 : 0) +
                        "): " + diff.str());
        }
    }
    auto err = [&](const uarch::CoreStats &s) {
        return s.cycles > ref.cycles ? s.cycles - ref.cycles
                                     : ref.cycles - s.cycles;
    };
    // Generous stitching slack: a warmup-counter leak adds whole
    // blocks' worth of cycles per segment and lands far outside it.
    const uint64_t slack =
        ref.cycles / 32 + 1024 * static_cast<uint64_t>(segments);
    if (err(warm) > err(cold) + slack) {
        return fail("segment warmup diverges: |cycles-ref| grew from " +
                    std::to_string(err(cold)) + " (warmup=0) to " +
                    std::to_string(err(warm)) + " (warmup=16), ref=" +
                    std::to_string(ref.cycles) + ", segments=" +
                    std::to_string(segments));
    }
    return false;
}

/**
 * The trace capture/replay differential (tentpole of the TraceFile PR).
 * One seeded case streams the same deterministically interleaved
 * op/branch/kernel stream (a) live into a MuxSink{StreamCore,
 * CacheSink, StreamRunner} stack and (b) through a FileSink capture to
 * disk, then replays the file through FileSource into an identical
 * stack. Every counter — CoreStats fields, hierarchy counters, and
 * predictor branch/miss totals — must be bit-identical, proving the
 * codec (varint + delta + dictionary, per-class address chains,
 * positioned events) is lossless for everything the simulators consume.
 * A second capture hands the same stream to FileSink as whole irregular
 * blocks (IrregularBlocks) and must replay the identical record stream.
 * Last, a seeded byte flip that still decodes must make replay throw.
 * The injected tracefile-delta fault skews every decoded pc delta by
 * one; the drifting PCs must surface here as a stats mismatch. The
 * injected tracefile-sum fault leaves half of each payload out of the
 * checksum on both sides; only the corruption leg can catch it.
 */
bool
Fuzzer::runTraceFileCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);
    const uarch::CoreConfig cfg = randomCoreConfig(rng);
    const uint64_t max_ops = options_.quick ? rng.range(16'000, 40'000)
                                            : rng.range(16'000, 120'000);
    const uint64_t max_brs = options_.quick ? rng.range(1'000, 8'000)
                                            : rng.range(1'000, 24'000);
    const std::vector<TraceOp> ops = trace::synthFuzzTrace(rng.fork(),
                                                           max_ops);
    const std::vector<trace::BranchRecord> branches =
        trace::synthFuzzBranches(rng.fork(), max_brs);
    const uint64_t chunk_seed = rng.next();

    const fs::path base = options_.tempDir.empty()
                              ? fs::temp_directory_path()
                              : fs::path(options_.tempDir);
    char name[64];
    std::snprintf(name, sizeof name, "vepro-check-trace-%016llx.vetf",
                  static_cast<unsigned long long>(seed));
    const fs::path file = base / name;
    const fs::path block_file = base / (std::string(name) + ".blocks");

    auto fail = [&](const std::string &what) {
        out.target = Target::TraceFile;
        out.seed = seed;
        out.repro = reproCommand(Target::TraceFile, seed, options_.inject,
                                 options_.quick);
        out.shrunkOps = 0;  // interleaved stream + a file: not ddmin-shaped
        out.detail = "tracefile divergence (" + std::to_string(ops.size()) +
                     " ops, " + std::to_string(branches.size()) +
                     " branches): " + what;
        std::error_code ec;
        fs::remove(file, ec);
        fs::remove(block_file, ec);
        return true;
    };

    static const char *const kPredSpec = "tage-8KB";

    // Live reference: the fused stack fed record-at-a-time.
    uarch::StreamCore live_core(cfg);
    uarch::CacheSink live_cache(cfg.mem);
    auto live_pred = bpred::makePredictor(kPredSpec);
    bpred::StreamRunner live_runner(*live_pred);
    trace::MuxSink live_mux{&live_core, &live_cache, &live_runner};
    replayInterleaved(live_mux, chunk_seed, ops, branches, false);

    // Capture the identical stream to disk twice, once through each
    // FileSink intake (flush() seals the files): record-at-a-time, which
    // the sink restages into standard blocks, and whole irregular blocks
    // through onBlock.
    const bool sum_fault = options_.inject == Fault::TraceFileSum;
    const uint64_t block_seed = rng.next();
    try {
        trace::FileSink sink(file.string());
        sink.injectSumFault(sum_fault);
        replayInterleaved(sink, chunk_seed, ops, branches, false);
        if (sink.opCount() != ops.size()) {
            return fail("capture op count " +
                        std::to_string(sink.opCount()) + " != stream's " +
                        std::to_string(ops.size()));
        }
        trace::FileSink block_sink(block_file.string());
        block_sink.injectSumFault(sum_fault);
        IrregularBlocks blocks(block_sink, block_seed);
        replayInterleaved(blocks, chunk_seed, ops, branches, false);
    } catch (const std::exception &e) {
        return fail(std::string("capture threw: ") + e.what());
    }

    // Replay into a fresh, identically configured stack.
    uarch::StreamCore rep_core(cfg);
    uarch::CacheSink rep_cache(cfg.mem);
    auto rep_pred = bpred::makePredictor(kPredSpec);
    bpred::StreamRunner rep_runner(*rep_pred);
    RecordSink rep_records;
    trace::MuxSink rep_mux{&rep_core, &rep_cache, &rep_runner,
                           &rep_records};
    trace::FileSource source(file.string());
    source.injectDeltaFault(options_.inject == Fault::TraceFileDelta);
    source.injectSumFault(sum_fault);
    try {
        const trace::TraceFileInfo info = source.replay(rep_mux);
        rep_mux.flush();
        if (info.opCount != ops.size()) {
            return fail("footer op count " + std::to_string(info.opCount) +
                        " != stream's " + std::to_string(ops.size()));
        }
    } catch (const std::exception &e) {
        return fail(std::string("replay threw: ") + e.what());
    }

    const std::string core_diff = diffStats(live_core.stats(),
                                            rep_core.stats());
    if (!core_diff.empty()) {
        return fail("replayed core: " + core_diff);
    }
    const std::string cache_diff = diffCacheSinks(live_cache, rep_cache);
    if (!cache_diff.empty()) {
        return fail("replayed cache: " + cache_diff);
    }
    const bpred::RunResult lr = live_runner.result();
    const bpred::RunResult rr = rep_runner.result();
    if (lr.branches != rr.branches || lr.misses != rr.misses) {
        return fail("replayed bpred: live " + std::to_string(lr.branches) +
                    " branches/" + std::to_string(lr.misses) +
                    " misses, replay " + std::to_string(rr.branches) + "/" +
                    std::to_string(rr.misses));
    }

    // The whole-block capture must replay the identical record stream.
    RecordSink block_records;
    try {
        trace::FileSource block_source(block_file.string());
        block_source.injectDeltaFault(options_.inject ==
                                      Fault::TraceFileDelta);
        block_source.injectSumFault(sum_fault);
        block_source.replay(block_records);
    } catch (const std::exception &e) {
        return fail(std::string("whole-block replay threw: ") + e.what());
    }
    const std::string block_diff =
        diffRecords(rep_records.records, block_records.records);
    if (!block_diff.empty()) {
        return fail("whole-block capture vs record-at-a-time: " +
                    block_diff);
    }

    // Corruption: flip the taken or foreign bit of one seeded block's
    // first op. The flip still decodes (the flags keep their class, addr
    // and deps bits) and moves no footer count, so only the checksum
    // can catch it, and replay must throw.
    std::vector<char> bytes;
    {
        std::ifstream in(file, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    const std::vector<size_t> flags_at = firstOpFlagOffsets(bytes);
    if (flags_at.empty()) {
        return fail("no block with ops in the capture");
    }
    const size_t at = flags_at[rng.below(flags_at.size())];
    const char bit = rng.chance(1, 2) ? 0x10 : 0x20;
    bytes[at] = static_cast<char>(bytes[at] ^ bit);
    {  // over the whole-block capture, which is done with
        std::ofstream out(block_file, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }
    trace::FileSource corrupt(block_file.string());
    corrupt.injectSumFault(sum_fault);
    RecordSink discard;
    bool threw = false;
    try {
        corrupt.replay(discard);
    } catch (const std::runtime_error &) {
        threw = true;
    }
    if (!threw) {
        return fail(std::string("flipping the ") +
                    (bit == 0x10 ? "taken" : "foreign") +
                    " bit of the first op's flags at byte " +
                    std::to_string(at) +
                    " replayed without error: the checksum missed it");
    }

    std::error_code ec;
    fs::remove(file, ec);
    fs::remove(block_file, ec);
    return false;
}

// ---------------------------------------------------------------------
// Ladder target

/**
 * Probe differential. Part one drives trace::Probe and check::RefProbe
 * with the same random emission sequence — every call shape, mid-run
 * reset()s, several sampling regimes — and compares the counters after
 * every call (droppedOps() included, so reads inside a dropping stretch
 * are checked) and the full mix, site profile and delivered stream at
 * each reset and at the end. Part two runs the real instrumented kernel
 * wrappers, whose emitters charge whole quiet kernels at once, against
 * the same wrappers on a probe with site profiling on, which takes the
 * per-call path for every op.
 */
bool
Fuzzer::runProbeCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);
    const trace::ProbeConfig config = randomProbeConfig(rng);
    const bool has_sink = !rng.chance(1, 10);
    const bool fault = options_.inject == Fault::ProbeQuiet;

    auto fail = [&](const std::string &what) {
        out.target = Target::Probe;
        out.seed = seed;
        out.repro = reproCommand(Target::Probe, seed, options_.inject,
                                 options_.quick);
        out.detail = "probe divergence (" + describeProbeConfig(config) +
                     " sink=" + std::to_string(has_sink) + "): " + what;
        return true;
    };

    // ---- Part one: call-level differential against the reference.
    trace::Probe probe(config);
    probe.injectQuietFault(fault);
    RecordSink sink;
    if (has_sink) {
        probe.setSink(&sink);
    }
    RefProbe ref(config, has_sink);
    static const uint64_t kSites[] = {
        trace::sitePc("check.probe.a"), trace::sitePc("check.probe.b"),
        trace::sitePc("check.probe.c")};
    auto full_diff = [&]() -> std::string {
        std::string d = diffMix(ref.mix(), probe.mix().byClass);
        if (!d.empty()) {
            return d;
        }
        const std::map<uint64_t, uint64_t> sites(probe.siteOps().begin(),
                                                 probe.siteOps().end());
        if (sites != ref.siteOps()) {
            return "siteOps differ";
        }
        if (has_sink) {
            probe.flushToSink();
            return diffRecords(ref.records(), sink.records);
        }
        return "";
    };

    const int calls = options_.quick ? static_cast<int>(rng.range(200, 2500))
                                     : static_cast<int>(rng.range(200, 8000));
    for (int i = 0; i < calls; ++i) {
        const auto cls =
            static_cast<trace::OpClass>(rng.below(trace::kNumOpClasses));
        const uint8_t dep1 = static_cast<uint8_t>(rng.below(4));
        const uint8_t dep2 = static_cast<uint8_t>(rng.below(4));
        // Mostly short calls, some long enough to span windows.
        const uint64_t n = rng.chance(1, 12) ? rng.below(1200) : rng.below(24);
        const uint64_t addr = 0x10000000ULL + rng.below(1 << 20);
        const uint64_t site = kSites[rng.below(3)];
        const bool taken = rng.chance(1, 2);
        std::string call;
        switch (rng.below(9)) {
          case 0: {
            const int body = static_cast<int>(rng.below(40)) - 1;
            probe.enterKernel(site, body);
            ref.enterKernel(site, body);
            call = "enterKernel";
            break;
          }
          case 1:
          case 2:
            probe.ops(cls, n, dep1, dep2);
            ref.ops(cls, n, dep1, dep2);
            call = "ops(" + std::to_string(n) + ")";
            break;
          case 3:
          case 4:
            probe.mem(cls, addr, dep1);
            ref.mem(cls, addr, dep1);
            call = "mem";
            break;
          case 5: {
            const int stride = static_cast<int>(rng.below(129)) - 64;
            probe.memRun(cls, addr, static_cast<int>(n), stride, dep1);
            ref.memRun(cls, addr, static_cast<int>(n), stride, dep1);
            call = "memRun(" + std::to_string(n) + ")";
            break;
          }
          case 6:
            probe.decision(site, taken);
            ref.decision(site, taken);
            call = "decision";
            break;
          case 7:
            probe.loopBranches(n);
            ref.loopBranches(n);
            call = "loopBranches(" + std::to_string(n) + ")";
            break;
          default:
            if (rng.chance(1, 20)) {
                if (std::string d = full_diff(); !d.empty()) {
                    return fail("before reset at call " + std::to_string(i) +
                                ": " + d);
                }
                probe.reset();
                ref.reset();
                sink.records.clear();
                call = "reset";
            } else {
                probe.ops(cls, n, dep1, dep2);
                ref.ops(cls, n, dep1, dep2);
                call = "ops(" + std::to_string(n) + ")";
            }
            break;
        }
        // The probe derives its op counters from the quiet budget left,
        // so read them (and, at random points, the whole mix) inside
        // quiet stretches as well as at their ends.
        if (std::string d = diffProbeCounters(ref, probe); !d.empty()) {
            return fail("after call " + std::to_string(i) + " " + call +
                        ": " + d);
        }
        if (rng.chance(1, 8)) {
            if (std::string d = diffMix(ref.mix(), probe.mix().byClass);
                !d.empty()) {
                return fail("after call " + std::to_string(i) + " " + call +
                            ": " + d);
            }
        }
    }
    if (std::string d = full_diff(); !d.empty()) {
        return fail("at end: " + d);
    }

    // ---- Part two: kernel-granular bulk charges against per-call
    // emission of the same kernels.
    trace::ProbeConfig per_call = config;
    per_call.profileSites = true;
    trace::Probe bulk(config);
    bulk.injectQuietFault(fault);
    trace::Probe slow(per_call);
    RecordSink bulk_sink, slow_sink;
    if (has_sink) {
        bulk.setSink(&bulk_sink);
        slow.setSink(&slow_sink);
    }
    constexpr int kPlane = 96;
    std::vector<uint8_t> plane(kPlane * kPlane), pred(64 * 64);
    for (uint8_t &p : plane) {
        p = static_cast<uint8_t>(rng.next());
    }
    std::vector<int16_t> res(64 * 64);
    std::vector<int32_t> coeff(32 * 32);
    const codec::PelView ref_view{plane.data(), kPlane, 0x20000000ULL};
    codec::HalfPelPlanes hpel[2];
    hpel[0].build(ref_view, kPlane, kPlane, false);
    hpel[1].build(ref_view, kPlane, kPlane, true);
    static const int kDims[] = {4, 8, 16, 32, 64};
    const int kernels = options_.quick ? 40 : 160;
    const uint64_t kernel_seed = rng.fork();
    auto run_kernels = [&](trace::Probe &p) {
        trace::ProbeScope scope(&p);
        SplitMix64 krng(kernel_seed);
        for (int k = 0; k < kernels; ++k) {
            const int w = kDims[krng.below(5)];
            const int h = kDims[krng.below(5)];
            const int x = static_cast<int>(krng.below(kPlane - w + 1));
            const int y = static_cast<int>(krng.below(kPlane - h + 1));
            codec::PelViewMut out{pred.data(), 64, 0x30000000ULL};
            const codec::PelView a = ref_view.sub(x, y);
            switch (krng.below(7)) {
              case 0: codec::sad(a, ref_view, w, h); break;
              case 1: codec::sse(a, ref_view, w, h); break;
              case 2: codec::satd(a, ref_view, w, h); break;
              case 3: {
                const int n = 4 << krng.below(4);
                codec::forwardDct(res.data(), coeff.data(), n, 0x40000000ULL,
                                  0x50000000ULL);
                codec::inverseDct(coeff.data(), res.data(), n, 0x50000000ULL,
                                  0x40000000ULL);
                break;
              }
              case 4:
              case 5: {
                const codec::MotionVector mv{
                    static_cast<int>(krng.below(33)) - 16,
                    static_cast<int>(krng.below(33)) - 16};
                codec::motionCompensate(ref_view, hpel[krng.chance(1, 2)], x,
                                        y, w, h, mv, out);
                break;
              }
              default:
                trace::emitControl(p, kSites[krng.below(3)],
                                   static_cast<int>(krng.below(40)),
                                   0x60000000ULL, 0x70000000ULL,
                                   krng.below(64));
                break;
            }
            // Interleave primitive calls so kernels start at every
            // offset relative to the window.
            p.ops(trace::OpClass::Alu, krng.below(300), 1);
        }
        p.flushToSink();
    };
    run_kernels(bulk);
    run_kernels(slow);
    if (std::string d = diffProbeCounters(slow, bulk); !d.empty()) {
        return fail("kernel emitters: " + d);
    }
    if (std::string d = diffMix(slow.mix().byClass, bulk.mix().byClass);
        !d.empty()) {
        return fail("kernel emitters: " + d);
    }
    if (std::string d = diffRecords(slow_sink.records, bulk_sink.records);
        !d.empty()) {
        return fail("kernel emitters: " + d);
    }
    return false;
}

bool
Fuzzer::runLadderCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);

    auto fail = [&](const std::string &what) {
        out.target = Target::Ladder;
        out.seed = seed;
        out.repro = reproCommand(Target::Ladder, seed, options_.inject,
                                 options_.quick);
        out.detail = "ladder divergence vs naive oracle: " + what;
        return true;
    };

    // Hull differential on an integer-grid RD point set. Small integer
    // coordinates keep every cross product exact in doubles, so the
    // monotone chain and the O(n^2) oracle must agree bit for bit. A
    // forced collinear triple per case keeps the harness sensitive to
    // the strict-cross fault; random extras add ties, duplicates and
    // dominated points around it.
    std::vector<video::RdPoint> pts;
    const double r0 = 1.0 + static_cast<double>(rng.below(20));
    const double q0 = 1.0 + static_cast<double>(rng.below(20));
    const double dr = 1.0 + static_cast<double>(rng.below(4));
    const double dq = 1.0 + static_cast<double>(rng.below(4));
    for (int t = 0; t < 3; ++t) {
        pts.push_back({r0 + t * dr, q0 + t * dq});
    }
    const size_t extras = 2 + rng.below(7);
    for (size_t i = 0; i < extras; ++i) {
        pts.push_back({1.0 + static_cast<double>(rng.below(40)),
                       1.0 + static_cast<double>(rng.below(40))});
    }
    if (rng.below(2) == 0) {
        pts.push_back(pts[rng.below(pts.size())]);  // exact duplicate
    }
    const std::vector<size_t> want =
        refConvexHull(pts, options_.inject);
    const std::vector<size_t> got = ladder::convexHull(pts);
    if (want != got) {
        auto render = [&](const std::vector<size_t> &hull) {
            std::string s = "{";
            for (size_t i : hull) {
                s += (s.size() > 1 ? "," : "") + std::to_string(i);
            }
            return s + "}";
        };
        return fail("convexHull over " + std::to_string(pts.size()) +
                    " points: oracle=" + render(want) +
                    " fast=" + render(got));
    }

    // Scaler differential: the kernel-table scaling path against naive
    // per-pixel references, bit for bit.
    static const int kPlaneDims[] = {1, 2, 3, 5, 8, 15, 16, 17, 31, 40, 64};
    const int w = kPlaneDims[rng.below(11)];
    const int h = kPlaneDims[rng.below(11)];
    const int factor = 1 + static_cast<int>(rng.below(4));
    video::Plane src(w, h);
    for (int y = 0; y < h; ++y) {
        uint8_t *row = src.row(y);
        for (int x = 0; x < w; ++x) {
            row[x] = static_cast<uint8_t>(rng.next());
        }
    }
    const video::Plane down_want = refDownscalePlane(src, factor);
    const video::Plane down_got = video::downscalePlane(src, factor);
    auto planesEqual = [](const video::Plane &a, const video::Plane &b,
                          std::string &where) {
        if (a.width() != b.width() || a.height() != b.height()) {
            where = "dims";
            return false;
        }
        for (int y = 0; y < a.height(); ++y) {
            for (int x = 0; x < a.width(); ++x) {
                if (a.at(x, y) != b.at(x, y)) {
                    where = "(" + std::to_string(x) + "," +
                            std::to_string(y) + ") oracle=" +
                            std::to_string(a.at(x, y)) + " fast=" +
                            std::to_string(b.at(x, y));
                    return false;
                }
            }
        }
        return true;
    };
    std::string where;
    if (!planesEqual(down_want, down_got, where)) {
        return fail("downscalePlane(" + std::to_string(w) + "x" +
                    std::to_string(h) + ", /" + std::to_string(factor) +
                    ") at " + where);
    }
    const int uw = 1 + static_cast<int>(rng.below(80));
    const int uh = 1 + static_cast<int>(rng.below(80));
    const video::Plane up_want = refUpscalePlane(down_want, uw, uh);
    const video::Plane up_got = video::upscalePlane(down_got, uw, uh);
    if (!planesEqual(up_want, up_got, where)) {
        return fail("upscalePlane(-> " + std::to_string(uw) + "x" +
                    std::to_string(uh) + ") at " + where);
    }
    return false;
}

// ---------------------------------------------------------------------
// Energy target

namespace
{

/** %a (hex-float) rendering: divergence reports must show the exact
 *  bits, not a rounded decimal that can print identically for two
 *  different doubles. */
std::string
hexDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

} // namespace

bool
Fuzzer::runEnergyCase(uint64_t seed, Divergence &out)
{
    SplitMix64 rng(seed);
    const auto &names = backend::profileNames();
    const backend::MachineProfile &prof =
        backend::profile(names[rng.below(names.size())]);

    auto fail = [&](const std::string &what) {
        out.target = Target::Energy;
        out.seed = seed;
        out.repro = reproCommand(Target::Energy, seed, options_.inject,
                                 options_.quick);
        out.detail =
            "energy divergence (profile " + prof.name + "): " + what;
        return true;
    };

    if (prof.kind == backend::Kind::Fixed) {
        const uint64_t blocks = rng.range(1, 5'000'000);
        const double fast_s = backend::fixedServiceSeconds(prof, blocks);
        const double ref_s =
            refFixedServiceSeconds(prof, blocks, options_.inject);
        if (fast_s != ref_s) {
            return fail("service seconds ref=" + hexDouble(ref_s) +
                        " fast=" + hexDouble(fast_s) + " at blocks=" +
                        std::to_string(blocks));
        }
        const double fast_j = backend::fixedEnergyJoules(prof, blocks);
        const double ref_j =
            refFixedEnergyJoules(prof, blocks, options_.inject);
        if (fast_j != ref_j) {
            return fail("joules ref=" + hexDouble(ref_j) +
                        " fast=" + hexDouble(fast_j) + " at blocks=" +
                        std::to_string(blocks));
        }
        return false;
    }

    // Random-but-plausible counters. The hierarchy invariant l2Misses
    // >= llcMisses is drawn with a STRICT gap, so the injected
    // weight-swap fault always moves the dynamic term.
    uarch::CoreStats s;
    s.instructions = rng.range(1, 50'000'000);
    s.cycles = s.instructions / rng.range(1, 4) + rng.range(1, 1'000'000);
    s.mispredicts = rng.range(0, 500'000);
    s.l1iMisses = rng.range(0, 1'000'000);
    s.l1dMisses = rng.range(0, 2'000'000);
    s.llcMisses = rng.range(0, 200'000);
    s.l2Misses = s.llcMisses + rng.range(1, 500'000);

    const double fast = backend::energyJoules(prof, s);
    const double ref = refEnergyJoules(prof, s, options_.inject);
    if (fast != ref) {
        return fail("joules ref=" + hexDouble(ref) +
                    " fast=" + hexDouble(fast) + " at instructions=" +
                    std::to_string(s.instructions));
    }

    // Cheap properties the formula must keep regardless of weights:
    // more retired instructions can never cost less energy, and energy
    // is non-negative.
    if (fast < 0.0) {
        return fail("negative joules " + hexDouble(fast));
    }
    uarch::CoreStats more = s;
    more.instructions += rng.range(1, 1'000'000);
    const double bigger = backend::energyJoules(prof, more);
    if (bigger <= fast) {
        return fail("energy not monotone in instructions: " +
                    hexDouble(fast) + " -> " + hexDouble(bigger));
    }
    return false;
}

// ---------------------------------------------------------------------
// Harness

bool
Fuzzer::runCase(Target target, uint64_t seed, Divergence &out)
{
    switch (target) {
      case Target::Core: return runCoreCase(seed, out);
      case Target::Cache: return runCacheCase(seed, out);
      case Target::Bpred: return runBpredCase(seed, out);
      case Target::Kernels: return runKernelsCase(seed, out);
      case Target::Store: return runStoreCase(seed, out);
      case Target::Parallel: return runParallelCase(seed, out);
      case Target::Energy: return runEnergyCase(seed, out);
      case Target::TraceFile: return runTraceFileCase(seed, out);
      case Target::Ladder: return runLadderCase(seed, out);
      case Target::Probe: return runProbeCase(seed, out);
    }
    return false;
}

int
Fuzzer::itersFor(Target target) const
{
    if (options_.iters > 0) {
        return options_.iters;
    }
    switch (target) {
      case Target::Core: return options_.quick ? 12 : 60;
      case Target::Cache: return options_.quick ? 20 : 100;
      case Target::Bpred: return options_.quick ? 12 : 60;
      case Target::Kernels: return options_.quick ? 40 : 300;
      case Target::Store: return options_.quick ? 40 : 200;
      // Parallel cases run the trace through up to eleven cores: K = 2-4
      // sequential references, their K-config fan-out, and three
      // segment variants.
      case Target::Parallel: return options_.quick ? 6 : 30;
      // Pure arithmetic over the profile registry: cheap, so plenty.
      case Target::Energy: return options_.quick ? 50 : 400;
      // Each case runs two live stacks plus a disk round-trip.
      case Target::TraceFile: return options_.quick ? 6 : 30;
      // Hull arithmetic plus two small-plane scaler round trips: cheap.
      case Target::Ladder: return options_.quick ? 40 : 300;
      // A few thousand emission calls per case against two probes.
      case Target::Probe: return options_.quick ? 150 : 1000;
    }
    return 1;
}

FuzzReport
Fuzzer::run(Target target)
{
    FuzzReport report;
    const int iters = itersFor(target);
    for (int i = 0; i < iters; ++i) {
        ++report.cases;
        Divergence d;
        if (runCase(target, options_.baseSeed + static_cast<uint64_t>(i),
                    d)) {
            report.divergences.push_back(std::move(d));
        }
    }
    return report;
}

FuzzReport
Fuzzer::runAll()
{
    FuzzReport report;
    for (Target t : allTargets()) {
        FuzzReport r = run(t);
        report.cases += r.cases;
        for (Divergence &d : r.divergences) {
            report.divergences.push_back(std::move(d));
        }
    }
    return report;
}

FuzzReport
Fuzzer::runCorpus(const std::string &dir)
{
    FuzzReport report;
    for (const std::string &path : listCorpus(dir)) {
        CorpusCase c;
        std::string err;
        if (!loadCorpusCase(path, c, err)) {
            Divergence d;
            d.seed = 0;
            d.detail = "corpus: " + err;
            d.repro = "(fix " + path + ")";
            report.divergences.push_back(std::move(d));
            continue;
        }
        ++report.cases;
        Divergence d;
        if (runCase(c.target, c.seed, d)) {
            d.detail = "[" + path + "] " + d.detail;
            report.divergences.push_back(std::move(d));
        }
    }
    return report;
}

} // namespace vepro::check
