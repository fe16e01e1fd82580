/**
 * @file
 * Tests for the parallel simulation paths: the TraceBlock
 * handoff contract, the shared worker-count resolution, and
 * SegmentSim's segment-parallel trace execution. The multi-config
 * fan-out inside core::simulate is pinned bit for bit in
 * tests/test_core.cpp (Simulate.*).
 *
 * Segment mode is DETERMINISTIC and exact in its event counters
 * (instructions, retiring slots, branches, L1D accesses) but
 * approximate in timing: each segment starts from a re-executed warmup
 * prefix instead of full history, so cycles may drift within a small
 * bound that shrinks as --segment-warmup grows. The stitched result is
 * a pure function of (trace, segments, warmup) — never of the worker
 * count.
 */

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "trace/parallel.hpp"
#include "trace/sink.hpp"
#include "trace/synth.hpp"
#include "uarch/core.hpp"
#include "uarch/segment.hpp"

namespace vepro
{
namespace
{

using trace::BranchRecord;
using trace::TraceBlock;
using trace::TraceOp;

// ---- Shared fixtures -------------------------------------------------

/** Records the exact record sequence it receives, for order checks. */
class OrderSink final : public trace::TraceSink
{
  public:
    void
    onOp(const TraceOp &op) override
    {
        log.push_back("op:" + std::to_string(op.pc));
    }
    void
    onBranch(const BranchRecord &br) override
    {
        log.push_back("br:" + std::to_string(br.pc) +
                      (br.taken ? ":T" : ":N"));
    }
    void
    onKernel(uint64_t site) override
    {
        log.push_back("k:" + std::to_string(site));
    }

    std::vector<std::string> log;
};

/** A deterministic interleaved op/branch/kernel stream. */
struct Stream {
    std::vector<TraceOp> ops;
    std::vector<BranchRecord> branches;
};

Stream
makeStream(uint64_t op_count, uint64_t branch_count)
{
    Stream s;
    trace::SynthConfig cfg;
    cfg.ops = op_count;
    s.ops = trace::synthTrace(cfg);
    s.branches = trace::synthBranches(branch_count);
    return s;
}

/** Replay @p s into @p sink with fixed chunking: op spans of 3000 with
 *  a branch burst and a kernel marker between spans. Identical on every
 *  call, so sequential and parallel consumers see the same stream. */
void
replayStream(const Stream &s, trace::TraceSink &sink)
{
    size_t op_pos = 0, br_pos = 0;
    while (op_pos < s.ops.size() || br_pos < s.branches.size()) {
        const size_t n = std::min<size_t>(s.ops.size() - op_pos, 3000);
        if (n > 0) {
            sink.onOps(s.ops.data() + op_pos, n);
            op_pos += n;
        }
        const size_t b = std::min<size_t>(s.branches.size() - br_pos, 200);
        for (size_t i = 0; i < b; ++i) {
            sink.onBranch(s.branches[br_pos + i]);
        }
        br_pos += b;
        sink.onKernel(0x4100);
    }
    sink.flush();
}

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

void
expectStatsEqual(const uarch::CoreStats &want, const uarch::CoreStats &got,
                 const std::string &what)
{
    const auto wf = statFields(want);
    const auto gf = statFields(got);
    for (size_t i = 0; i < wf.size(); ++i) {
        EXPECT_EQ(wf[i].second, gf[i].second)
            << what << ": field " << wf[i].first;
    }
}

// ---- resolveJobs -----------------------------------------------------

TEST(ResolveJobs, PassesExplicitCountsThrough)
{
    EXPECT_EQ(trace::resolveJobs(1), 1);
    EXPECT_EQ(trace::resolveJobs(3), 3);
    EXPECT_EQ(trace::resolveJobs(17), 17);
}

TEST(ResolveJobs, AutoDetectsAtLeastOneThread)
{
    EXPECT_GE(trace::resolveJobs(0), 1);
    EXPECT_GE(trace::resolveJobs(-4), 1);
    // Auto-detection is stable within a process.
    EXPECT_EQ(trace::resolveJobs(0), trace::resolveJobs(0));
}

// ---- TraceBlock / replayBlock ----------------------------------------

TEST(TraceBlockReplay, ReconstructsExactProgramOrder)
{
    TraceBlock block;
    for (uint64_t pc = 1; pc <= 5; ++pc) {
        TraceOp op;
        op.pc = pc;
        block.ops.push_back(op);
    }
    // Events at the front, between ops, back-to-back, and at the end.
    block.events.push_back({0, TraceBlock::Event::Kernel, false, 0x900});
    block.events.push_back({2, TraceBlock::Event::Branch, true, 0x10});
    block.events.push_back({2, TraceBlock::Event::Branch, false, 0x11});
    block.events.push_back({5, TraceBlock::Event::Branch, true, 0x12});

    OrderSink sink;
    trace::replayBlock(block, sink);
    const std::vector<std::string> want = {
        "k:2304", "op:1", "op:2", "br:16:T", "br:17:N",
        "op:3",   "op:4", "op:5", "br:18:T"};
    EXPECT_EQ(sink.log, want);
}

TEST(TraceBlockReplay, DefaultOnBlockLeavesBlockReusable)
{
    TraceBlock block;
    TraceOp op;
    op.pc = 7;
    block.ops.push_back(op);

    // OrderSink does not override onBlock: the default replays without
    // taking ownership, so the caller keeps the contents.
    OrderSink sink;
    sink.onBlock(std::move(block));
    EXPECT_EQ(sink.log.size(), 1u);
    EXPECT_EQ(block.ops.size(), 1u);  // NOLINT: reuse-after-move is the API
}

// ---- StreamCore::resetStats ------------------------------------------

TEST(StreamCoreResetStats, CountsOnlyPostResetWork)
{
    const Stream s = makeStream(30'000, 0);
    const size_t cut = 10'000;

    // Reference: the tail only, on a cold core.
    uarch::StreamCore tail_only;
    tail_only.onOps(s.ops.data() + cut, s.ops.size() - cut);
    tail_only.flush();

    // Warmed: full stream, counters reset at the cut.
    uarch::StreamCore warmed;
    warmed.onOps(s.ops.data(), cut);
    warmed.resetStats();
    warmed.onOps(s.ops.data() + cut, s.ops.size() - cut);
    warmed.flush();

    // Event counters must match the tail exactly; timing may differ
    // (warm caches/predictor), but never by more than the cold run.
    EXPECT_EQ(warmed.stats().instructions, tail_only.stats().instructions);
    EXPECT_EQ(warmed.stats().condBranches, tail_only.stats().condBranches);
    EXPECT_EQ(warmed.stats().l1dAccesses, tail_only.stats().l1dAccesses);
    EXPECT_GT(warmed.stats().cycles, 0u);
    EXPECT_LE(warmed.stats().l1dMisses, tail_only.stats().l1dMisses);
}

TEST(StreamCoreResetStats, ThrowsAfterFlush)
{
    uarch::StreamCore core;
    core.flush();
    EXPECT_THROW(core.resetStats(), std::logic_error);
}

// ---- SegmentSim ------------------------------------------------------

TEST(SegmentSim, OneSegmentIsBitIdentical)
{
    const Stream s = makeStream(50'000, 1'000);

    uarch::StreamCore seq;
    trace::MuxSink mux{&seq};
    replayStream(s, mux);

    uarch::SegmentSimConfig cfg;
    cfg.segments = 1;
    uarch::SegmentSim sim(cfg);
    replayStream(s, sim);

    EXPECT_EQ(sim.segmentsUsed(), 1);
    EXPECT_EQ(sim.warmupOps(), 0u);
    expectStatsEqual(seq.stats(), sim.stats(), "segments=1");
}

/** The satellite (c) matrix: the stitched result is identical across
 *  repeated runs and worker counts for every segment count, and its
 *  event counters match the sequential core bit for bit. */
TEST(SegmentSim, DeterministicAcrossSegmentsJobsAndRuns)
{
    const Stream s = makeStream(50'000, 1'000);

    uarch::StreamCore seq;
    trace::MuxSink mux{&seq};
    replayStream(s, mux);
    const uarch::CoreStats ref = seq.stats();

    for (int segments : {1, 2, 3, 8}) {
        uarch::CoreStats first{};
        bool have_first = false;
        for (int jobs : {1, 2, 4}) {
            for (int run = 0; run < 2; ++run) {
                uarch::SegmentSimConfig cfg;
                cfg.segments = segments;
                cfg.jobs = jobs;
                uarch::SegmentSim sim(cfg);
                replayStream(s, sim);
                const uarch::CoreStats got = sim.stats();

                EXPECT_EQ(got.instructions, ref.instructions)
                    << "segments=" << segments;
                EXPECT_EQ(got.condBranches, ref.condBranches)
                    << "segments=" << segments;
                EXPECT_EQ(got.l1dAccesses, ref.l1dAccesses)
                    << "segments=" << segments;
                EXPECT_EQ(got.slots.retiring, ref.slots.retiring)
                    << "segments=" << segments;

                if (!have_first) {
                    first = got;
                    have_first = true;
                } else {
                    expectStatsEqual(first, got,
                                     "segments=" + std::to_string(segments) +
                                         " jobs=" + std::to_string(jobs) +
                                         " run=" + std::to_string(run));
                }
            }
        }
    }
}

TEST(SegmentSim, WarmupTightensTheTimingError)
{
    const Stream s = makeStream(80'000, 2'000);

    uarch::StreamCore seq;
    trace::MuxSink mux{&seq};
    replayStream(s, mux);
    const uint64_t ref_cycles = seq.stats().cycles;

    auto run = [&](int warmup) {
        uarch::SegmentSimConfig cfg;
        cfg.segments = 4;
        cfg.warmupBlocks = warmup;
        uarch::SegmentSim sim(cfg);
        replayStream(s, sim);
        const uint64_t c = sim.stats().cycles;
        return c > ref_cycles ? c - ref_cycles : ref_cycles - c;
    };

    const uint64_t err_cold = run(0);
    const uint64_t err_warm = run(16);
    // Weak monotonicity with stitching slack: deeper warmup must not
    // push the timing counters away from the sequential answer. A
    // warmup-counter leak would add whole blocks of cycles and fail.
    EXPECT_LE(err_warm, err_cold + ref_cycles / 32 + 4 * 1024);
}

TEST(SegmentSim, AutoSegmentsClampToBlockCount)
{
    // A sub-block trace cannot be split: whatever segments/jobs ask
    // for, the run degenerates to one exact segment.
    const Stream s = makeStream(2'000, 100);

    uarch::StreamCore seq;
    trace::MuxSink mux{&seq};
    replayStream(s, mux);

    uarch::SegmentSimConfig cfg;
    cfg.segments = 8;
    cfg.jobs = 4;
    uarch::SegmentSim sim(cfg);
    replayStream(s, sim);

    EXPECT_EQ(sim.segmentsUsed(), 1);
    expectStatsEqual(seq.stats(), sim.stats(), "clamped");
}

} // namespace
} // namespace vepro
