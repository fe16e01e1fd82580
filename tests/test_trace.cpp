/**
 * @file
 * Unit tests for the instrumentation layer: op classification, probes,
 * sampling, site PCs, control emission, and trace (de)serialisation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <vector>

#include "trace/opclass.hpp"
#include "trace/probe.hpp"
#include "trace/profile.hpp"
#include "trace/trace_io.hpp"

namespace vepro::trace
{
namespace
{

TEST(OpClass, CategoryMapping)
{
    EXPECT_EQ(categoryOf(OpClass::BranchCond), MixCategory::Branch);
    EXPECT_EQ(categoryOf(OpClass::BranchUncond), MixCategory::Branch);
    EXPECT_EQ(categoryOf(OpClass::Load), MixCategory::Load);
    EXPECT_EQ(categoryOf(OpClass::Store), MixCategory::Store);
    EXPECT_EQ(categoryOf(OpClass::SimdAlu), MixCategory::Avx);
    EXPECT_EQ(categoryOf(OpClass::SimdLoad), MixCategory::Avx);
    EXPECT_EQ(categoryOf(OpClass::SseAlu), MixCategory::Sse);
    EXPECT_EQ(categoryOf(OpClass::Alu), MixCategory::Other);
    EXPECT_EQ(categoryOf(OpClass::Div), MixCategory::Other);
}

TEST(OpClass, Predicates)
{
    EXPECT_TRUE(isBranch(OpClass::BranchCond));
    EXPECT_TRUE(isBranch(OpClass::BranchUncond));
    EXPECT_FALSE(isBranch(OpClass::Alu));
    EXPECT_TRUE(isMemory(OpClass::Load));
    EXPECT_TRUE(isMemory(OpClass::SimdStore));
    EXPECT_FALSE(isMemory(OpClass::Mul));
    EXPECT_TRUE(isLoad(OpClass::SimdLoad));
    EXPECT_FALSE(isLoad(OpClass::Store));
    EXPECT_TRUE(isStore(OpClass::SimdStore));
    EXPECT_FALSE(isStore(OpClass::Load));
}

TEST(OpClass, NamesAreDistinct)
{
    for (int i = 0; i < kNumOpClasses; ++i) {
        EXPECT_NE(opClassName(static_cast<OpClass>(i)), "?");
    }
    EXPECT_EQ(mixCategoryName(MixCategory::Avx), "AVX");
}

TEST(SitePc, StableAndDistinct)
{
    EXPECT_EQ(sitePc("codec.sad"), sitePc("codec.sad"));
    EXPECT_NE(sitePc("codec.sad"), sitePc("codec.sse"));
    EXPECT_EQ(sitePc("anything") % 1024, 0u) << "1 KiB aligned";
}

TEST(MixCounters, TotalsAndPercents)
{
    MixCounters mix;
    mix.byClass[static_cast<int>(OpClass::Load)] = 25;
    mix.byClass[static_cast<int>(OpClass::SimdAlu)] = 50;
    mix.byClass[static_cast<int>(OpClass::Alu)] = 25;
    EXPECT_EQ(mix.total(), 100u);
    EXPECT_DOUBLE_EQ(mix.categoryPercent(MixCategory::Load), 25.0);
    EXPECT_DOUBLE_EQ(mix.categoryPercent(MixCategory::Avx), 50.0);
    double sum = 0;
    for (int c = 0; c < kNumMixCategories; ++c) {
        sum += mix.categoryPercent(static_cast<MixCategory>(c));
    }
    EXPECT_NEAR(sum, 100.0, 1e-9);
}

TEST(MixCounters, EmptyIsZero)
{
    MixCounters mix;
    EXPECT_EQ(mix.total(), 0u);
    EXPECT_DOUBLE_EQ(mix.categoryPercent(MixCategory::Load), 0.0);
}

TEST(MixCounters, Accumulate)
{
    MixCounters a, b;
    a.byClass[0] = 3;
    b.byClass[0] = 4;
    a += b;
    EXPECT_EQ(a.byClass[0], 7u);
}

/** A probe streaming into a VectorSink: the way to collect a trace. */
struct Collected {
    VectorSink sink;
    Probe probe;

    explicit Collected(const ProbeConfig &config) : probe(config)
    {
        probe.setSink(&sink);
    }

    const std::vector<TraceOp> &
    ops()
    {
        probe.flushToSink();
        return sink.ops();
    }

    const std::vector<BranchRecord> &
    branches()
    {
        probe.flushToSink();
        return sink.branches();
    }
};

TEST(Probe, CountsAllEmissionKinds)
{
    Probe p;
    p.enterKernel(sitePc("t"), 8);
    p.ops(OpClass::SimdAlu, 10);
    p.mem(OpClass::Load, 0x1000);
    p.memRun(OpClass::SimdLoad, 0x2000, 4, 32);
    p.decision(sitePc("t.d"), true);
    p.loopBranches(5);
    EXPECT_EQ(p.mix().byClass[static_cast<int>(OpClass::SimdAlu)], 10u);
    EXPECT_EQ(p.mix().byClass[static_cast<int>(OpClass::Load)], 1u);
    EXPECT_EQ(p.mix().byClass[static_cast<int>(OpClass::SimdLoad)], 4u);
    EXPECT_EQ(p.mix().byClass[static_cast<int>(OpClass::BranchCond)], 6u);
    EXPECT_EQ(p.totalOps(), p.mix().total());
}

TEST(Probe, BranchTraceCollection)
{
    ProbeConfig cfg;
    cfg.collectBranches = true;
    cfg.maxBranches = 4;
    Collected c(cfg);
    c.probe.decision(sitePc("a"), true);
    c.probe.decision(sitePc("b"), false);
    c.probe.loopBranches(10);  // capped at 2 more
    ASSERT_EQ(c.branches().size(), 4u);
    EXPECT_TRUE(c.branches()[0].taken);
    EXPECT_FALSE(c.branches()[1].taken);
    EXPECT_EQ(c.branches()[0].pc, sitePc("a"));
}

TEST(Probe, BranchWarmupSkipsEarlyBranches)
{
    ProbeConfig cfg;
    cfg.collectBranches = true;
    cfg.branchWarmupOps = 100;
    Collected c(cfg);
    c.probe.decision(sitePc("early"), true);
    EXPECT_TRUE(c.branches().empty());
    c.probe.ops(OpClass::Alu, 200);
    c.probe.decision(sitePc("late"), true);
    ASSERT_EQ(c.branches().size(), 1u);
    EXPECT_EQ(c.branches()[0].pc, sitePc("late"));
}

TEST(Probe, OpTraceSamplingWindows)
{
    ProbeConfig cfg;
    cfg.collectOps = true;
    cfg.opWindow = 10;
    cfg.opInterval = 100;
    cfg.maxOps = 1000;
    Collected c(cfg);
    for (int i = 0; i < 300; ++i) {
        c.probe.ops(OpClass::Alu, 1);
    }
    // Three windows of ~10 ops each should be recorded.
    EXPECT_GE(c.ops().size(), 20u);
    EXPECT_LE(c.ops().size(), 40u);
}

TEST(Probe, OpTraceCap)
{
    ProbeConfig cfg;
    cfg.collectOps = true;
    cfg.opWindow = 1000;
    cfg.opInterval = 1000;
    cfg.maxOps = 50;
    Collected c(cfg);
    c.probe.ops(OpClass::Alu, 500);
    EXPECT_EQ(c.ops().size(), 50u);
}

TEST(Probe, DisabledCollectionIsFree)
{
    Collected c(ProbeConfig{});
    c.probe.ops(OpClass::Alu, 100);
    c.probe.decision(sitePc("x"), true);
    EXPECT_TRUE(c.ops().empty());
    EXPECT_TRUE(c.branches().empty());
    EXPECT_EQ(c.probe.totalOps(), 101u);
}

TEST(Probe, MemRecordsAddresses)
{
    ProbeConfig cfg;
    cfg.collectOps = true;
    Collected c(cfg);
    c.probe.mem(OpClass::Store, 0xdeadbeef);
    ASSERT_EQ(c.ops().size(), 1u);
    EXPECT_EQ(c.ops()[0].addr, 0xdeadbeefu);
    EXPECT_EQ(c.ops()[0].cls, OpClass::Store);
    EXPECT_FALSE(c.ops()[0].foreign);
}

TEST(Probe, MemRunStridesAddresses)
{
    ProbeConfig cfg;
    cfg.collectOps = true;
    Collected c(cfg);
    c.probe.memRun(OpClass::SimdLoad, 0x1000, 3, 64);
    ASSERT_EQ(c.ops().size(), 3u);
    EXPECT_EQ(c.ops()[1].addr, 0x1040u);
    EXPECT_EQ(c.ops()[2].addr, 0x1080u);
}

TEST(Probe, LoopBranchesLastFallsThrough)
{
    ProbeConfig cfg;
    cfg.collectBranches = true;
    Collected c(cfg);
    c.probe.loopBranches(4);
    ASSERT_EQ(c.branches().size(), 4u);
    EXPECT_TRUE(c.branches()[0].taken);
    EXPECT_TRUE(c.branches()[2].taken);
    EXPECT_FALSE(c.branches()[3].taken);
}

TEST(Probe, AllocRegionsDisjointAndAligned)
{
    Probe p;
    uint64_t a = p.allocRegion(1000);
    uint64_t b = p.allocRegion(5000);
    EXPECT_EQ(a % 4096, 0u);
    EXPECT_EQ(b % 4096, 0u);
    EXPECT_GE(b, a + 1000);
}

TEST(Probe, ResetClearsEverything)
{
    ProbeConfig cfg;
    cfg.collectOps = true;
    cfg.collectBranches = true;
    Collected c(cfg);
    c.probe.ops(OpClass::Alu, 5);
    c.probe.decision(sitePc("x"), true);
    c.probe.reset();  // discards the staged, undelivered records
    EXPECT_EQ(c.probe.totalOps(), 0u);
    EXPECT_EQ(c.probe.recordedOps(), 0u);
    EXPECT_TRUE(c.ops().empty());
    EXPECT_TRUE(c.branches().empty());
}

TEST(Probe, ZeroOpIntervalIsRejected)
{
    ProbeConfig cfg;
    cfg.collectOps = true;
    cfg.opInterval = 0;
    EXPECT_THROW(Probe{cfg}, std::invalid_argument);
    cfg.collectOps = false;  // the interval position is kept regardless
    EXPECT_THROW(Probe{cfg}, std::invalid_argument);
}

/** A sampled run that leaves a used probe mid-kernel, with its cap full
 *  and inside a dropping stretch. */
void
dirtyProbe(Probe &p)
{
    p.enterKernel(sitePc("test.reset.dirty"), 7);
    for (int i = 0; i < 40; ++i) {
        p.ops(OpClass::SimdAlu, 9, 1);
        p.mem(OpClass::Load, 0x1000 + 8 * i);
    }
    p.decision(sitePc("test.reset.dirty.branch"), true);
}

/** The emission script both probes replay after the reset. */
void
replayScript(Probe &p)
{
    p.ops(OpClass::Alu, 3);  // before any kernel: the default site's PCs
    p.mem(OpClass::Store, 0x2000);
    for (int i = 0; i < 30; ++i) {
        p.enterKernel(sitePc("test.reset.kernel"), 5 + i % 3);
        p.memRun(OpClass::SimdLoad, 0x3000 + 64 * i, 4, 32);
        p.ops(OpClass::SimdMul, 6, 1, 2);
        p.loopBranches(3);
        p.decision(sitePc("test.reset.branch"), (i & 1) != 0);
    }
}

TEST(Probe, ResetProbeRecordsLikeANewOne)
{
    ProbeConfig cfg;
    cfg.collectOps = true;
    cfg.opWindow = 40;
    cfg.opInterval = 130;
    cfg.maxOps = 60;
    cfg.collectBranches = true;
    cfg.maxBranches = 20;

    Collected used(cfg);
    dirtyProbe(used.probe);
    ASSERT_GT(used.probe.droppedOps(), 0u);
    used.probe.reset();
    Collected fresh(cfg);
    // Only what the probes deliver from here on is compared.
    used.probe.flushToSink();
    const size_t ops_before = used.sink.ops().size();
    const size_t branches_before = used.sink.branches().size();

    replayScript(used.probe);
    replayScript(fresh.probe);
    const std::vector<TraceOp> used_ops(used.ops().begin() + ops_before,
                                        used.ops().end());
    const std::vector<TraceOp> &fresh_ops = fresh.ops();
    ASSERT_EQ(used_ops.size(), fresh_ops.size());
    ASSERT_FALSE(fresh_ops.empty());
    for (size_t i = 0; i < fresh_ops.size(); ++i) {
        EXPECT_EQ(used_ops[i].pc, fresh_ops[i].pc) << "op " << i;
        EXPECT_EQ(used_ops[i].addr, fresh_ops[i].addr) << "op " << i;
        EXPECT_EQ(used_ops[i].cls, fresh_ops[i].cls) << "op " << i;
    }
    EXPECT_EQ(used.branches().size() - branches_before,
              fresh.branches().size());
    EXPECT_EQ(used.probe.totalOps(), fresh.probe.totalOps());
    EXPECT_EQ(used.probe.recordedOps(), fresh.probe.recordedOps());
    EXPECT_EQ(used.probe.droppedOps(), fresh.probe.droppedOps());
    EXPECT_EQ(used.probe.droppedBranches(), fresh.probe.droppedBranches());
    EXPECT_EQ(used.probe.branchTraceOpSpan(),
              fresh.probe.branchTraceOpSpan());
    EXPECT_EQ(used.probe.allocRegion(64), fresh.probe.allocRegion(64));
}

TEST(Probe, DroppedOpsCountsAnOpenDroppingStretch)
{
    ProbeConfig cfg;
    cfg.collectOps = true;
    cfg.opWindow = 100;
    cfg.opInterval = 1000;
    cfg.maxOps = 10;
    Collected c(cfg);
    c.probe.ops(OpClass::Alu, 10);  // fills the cap
    c.probe.ops(OpClass::Alu, 5);   // dropped: the window has 85 ops left
    EXPECT_EQ(c.probe.droppedOps(), 5u);
    for (int i = 0; i < 4; ++i) {
        c.probe.ops(OpClass::Alu, 20);
        EXPECT_EQ(c.probe.droppedOps(), 5u + 20u * (i + 1));
    }
    c.probe.ops(OpClass::Alu, 30);  // 5 more in the window, 25 past it
    EXPECT_EQ(c.probe.droppedOps(), 90u);
    c.probe.ops(OpClass::Alu, 800);  // the gap: nothing dropped
    EXPECT_EQ(c.probe.droppedOps(), 90u);
    EXPECT_EQ(c.probe.recordedOps(), 10u);
    EXPECT_EQ(c.probe.totalOps(), 925u);
}

TEST(Probe, CountersReadInsideAQuietStretch)
{
    // The quiet path moves only the mix and the budget; totalOps(),
    // droppedOps() and mix() derive the rest. Read them after every step
    // of a stretch that mixes per-call and whole-kernel charges.
    ProbeConfig cfg;
    cfg.collectOps = true;
    cfg.opWindow = 100;
    cfg.opInterval = 1000;
    cfg.maxOps = 10;
    Collected c(cfg);
    auto mix = [&](OpClass cls) {
        return c.probe.mix().byClass[static_cast<int>(cls)];
    };
    c.probe.ops(OpClass::Alu, 10);  // fills the cap
    c.probe.ops(OpClass::Load, 5);  // opens a dropping stretch at op 15
    EXPECT_EQ(c.probe.droppedOps(), 5u);
    for (int i = 1; i <= 3; ++i) {
        c.probe.mem(OpClass::Store, 0x1000);
        EXPECT_EQ(c.probe.totalOps(), 15u + i);
        EXPECT_EQ(c.probe.droppedOps(), 5u + i);
        EXPECT_EQ(mix(OpClass::Store), static_cast<uint64_t>(i));
    }
    c.probe.enterKernel(sitePc("test.quiet.kernel"), 8);
    EXPECT_EQ(c.probe.totalOps(), 22u);
    EXPECT_EQ(c.probe.droppedOps(), 12u);
    EXPECT_EQ(mix(OpClass::BranchUncond), 2u);
    EXPECT_EQ(mix(OpClass::Other), 2u);

    KernelCharge body;
    body.add(OpClass::SimdLoad, 20)
        .add(OpClass::SimdAlu, 30)
        .add(OpClass::BranchCond, 5);
    ASSERT_TRUE(c.probe.quietKernel(sitePc("test.quiet.bulk"), 8, body));
    EXPECT_EQ(c.probe.totalOps(), 81u);
    EXPECT_EQ(c.probe.droppedOps(), 71u);
    EXPECT_EQ(mix(OpClass::BranchUncond), 4u);
    EXPECT_EQ(mix(OpClass::Other), 4u);
    EXPECT_EQ(mix(OpClass::SimdLoad), 20u);
    EXPECT_EQ(mix(OpClass::SimdAlu), 30u);
    EXPECT_EQ(mix(OpClass::BranchCond), 5u);

    c.probe.ops(OpClass::Alu, 18);  // the last op before the window ends
    EXPECT_EQ(c.probe.totalOps(), 99u);
    EXPECT_EQ(c.probe.droppedOps(), 89u);
    c.probe.ops(OpClass::Alu, 1);  // slow path: closes the stretch
    EXPECT_EQ(c.probe.totalOps(), 100u);
    EXPECT_EQ(c.probe.droppedOps(), 90u);
    c.probe.ops(OpClass::Alu, 500);  // quiet gap: nothing dropped
    EXPECT_EQ(c.probe.totalOps(), 600u);
    EXPECT_EQ(c.probe.droppedOps(), 90u);
    EXPECT_EQ(mix(OpClass::Alu), 529u);
    EXPECT_EQ(c.probe.mix().total(), 600u);

    // A kernel that would run past the gap charges nothing.
    KernelCharge big;
    big.add(OpClass::SimdAlu, 400);
    EXPECT_FALSE(c.probe.quietKernel(sitePc("test.quiet.bulk"), 8, big));
    EXPECT_EQ(c.probe.totalOps(), 600u);
    EXPECT_EQ(c.probe.recordedOps(), 10u);
}

TEST(Probe, SamplingQuirksArePinned)
{
    // Two long-standing rules of the sampled accounting that decide which
    // ops a trace holds; the inline fast path must keep both.
    ProbeConfig cfg;
    cfg.collectOps = true;
    cfg.opWindow = 10;
    cfg.opInterval = 20;
    {
        // A call that starts in the gap records nothing, even the ops
        // that run into the next window.
        Collected c(cfg);
        c.probe.ops(OpClass::Alu, 10);  // the first window
        c.probe.ops(OpClass::Alu, 15);  // gap 10..19, then 20..24
        EXPECT_EQ(c.probe.recordedOps(), 10u);
        c.probe.ops(OpClass::Alu, 1);   // op 25, inside the window
        EXPECT_EQ(c.probe.recordedOps(), 11u);
    }
    {
        // enterKernel records only its two-op pair when three of its
        // four ops fall in the window.
        Collected c(cfg);
        c.probe.ops(OpClass::Alu, 7);
        c.probe.enterKernel(sitePc("test.quirk"), 4);
        EXPECT_EQ(c.probe.recordedOps(), 9u);
        EXPECT_EQ(c.probe.droppedOps(), 0u);
    }
}

TEST(ProbeScope, InstallsAndRestores)
{
    EXPECT_EQ(currentProbe(), nullptr);
    Probe outer;
    {
        ProbeScope s1(&outer);
        EXPECT_EQ(currentProbe(), &outer);
        Probe inner;
        {
            ProbeScope s2(&inner);
            EXPECT_EQ(currentProbe(), &inner);
        }
        EXPECT_EQ(currentProbe(), &outer);
    }
    EXPECT_EQ(currentProbe(), nullptr);
}

TEST(EmitControl, EmitsScalarMixture)
{
    Probe p;
    emitControl(p, sitePc("ctl"), 20, 0x1000, 0x2000, 16);
    const MixCounters &mix = p.mix();
    EXPECT_EQ(mix.byClass[static_cast<int>(OpClass::Load)], 80u);  // 4/unit
    EXPECT_GE(mix.byClass[static_cast<int>(OpClass::Store)], 30u);
    EXPECT_EQ(mix.byCategory(MixCategory::Avx), 0u);
}

TEST(Profile, AttributesOpsToSites)
{
    ProbeConfig cfg;
    cfg.profileSites = true;
    Probe p(cfg);
    p.enterKernel(sitePc("profile.hot"), 8);
    p.ops(OpClass::SimdAlu, 900);
    p.enterKernel(sitePc("profile.cold"), 8);
    p.ops(OpClass::Alu, 100);
    auto report = profileReport(p, 0.0);
    ASSERT_GE(report.size(), 2u);
    EXPECT_EQ(report[0].name, "profile.hot");
    EXPECT_GT(report[0].ops, 900u - 10u);
    EXPECT_NEAR(report[0].percent + report[1].percent, 100.0, 2.0);
    EXPECT_GT(report[0].percent, report[1].percent);
}

TEST(Profile, MinShareFiltersRows)
{
    ProbeConfig cfg;
    cfg.profileSites = true;
    Probe p(cfg);
    p.enterKernel(sitePc("profile.big"), 8);
    p.ops(OpClass::Alu, 9990);
    p.enterKernel(sitePc("profile.tiny"), 8);
    p.ops(OpClass::Alu, 4);
    EXPECT_EQ(profileReport(p, 1.0).size(), 1u);
    EXPECT_GE(profileReport(p, 0.0).size(), 2u);
}

TEST(Profile, DisabledCollectsNothing)
{
    Probe p;
    p.enterKernel(sitePc("profile.off"), 8);
    p.ops(OpClass::Alu, 100);
    EXPECT_TRUE(p.siteOps().empty());
    EXPECT_TRUE(profileReport(p).empty());
}

TEST(Profile, FormatContainsNames)
{
    ProbeConfig cfg;
    cfg.profileSites = true;
    Probe p(cfg);
    p.enterKernel(sitePc("profile.fmt"), 8);
    p.ops(OpClass::Alu, 10);
    std::string text = formatProfile(profileReport(p, 0.0));
    EXPECT_NE(text.find("profile.fmt"), std::string::npos);
    EXPECT_NE(text.find("100.0"), std::string::npos);
}

TEST(Profile, SiteNameLookup)
{
    uint64_t pc = sitePc("profile.lookup");
    EXPECT_EQ(siteName(pc), "profile.lookup");
    EXPECT_EQ(siteName(0xdeadULL), "?");
}

// ---- Shared stream helpers (sink + TraceFile suites) ----------------

/** A deterministic emission workload exercising every probe API. */
void
emitWorkload(Probe &p)
{
    for (int round = 0; round < 40; ++round) {
        p.enterKernel(sitePc("sink.kernel.a"), 16);
        p.ops(OpClass::Alu, 30, 1);
        p.mem(OpClass::Load, 0x20000 + static_cast<uint64_t>(round) * 64);
        p.memRun(OpClass::SimdLoad, 0x40000, 8, 32, 2);
        p.decision(sitePc("sink.dec"), round % 3 != 0);
        p.loopBranches(9);
        p.enterKernel(sitePc("sink.kernel.b"), 8);
        p.ops(OpClass::SimdAlu, 50, 0, 3);
        p.mem(OpClass::Store, 0x60000 + static_cast<uint64_t>(round) * 8);
        p.decision(sitePc("sink.dec2"), round % 7 < 3);
    }
}

void
expectSameStreams(const std::vector<TraceOp> &a,
                  const std::vector<TraceOp> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].pc, b[i].pc) << "op " << i;
        EXPECT_EQ(a[i].addr, b[i].addr) << "op " << i;
        EXPECT_EQ(a[i].cls, b[i].cls) << "op " << i;
        EXPECT_EQ(a[i].taken, b[i].taken) << "op " << i;
        EXPECT_EQ(a[i].dep1, b[i].dep1) << "op " << i;
        EXPECT_EQ(a[i].dep2, b[i].dep2) << "op " << i;
        EXPECT_EQ(a[i].foreign, b[i].foreign) << "op " << i;
    }
}

// ---- TraceFile: on-disk capture / replay ---------------------------

/** Expect @p fn to throw a "trace:"-prefixed error naming @p path. */
template <typename Fn>
std::string
expectTraceError(Fn &&fn, const std::string &path)
{
    try {
        fn();
    } catch (const std::runtime_error &e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind("trace:", 0), 0u) << what;
        EXPECT_NE(what.find(path), std::string::npos) << what;
        return what;
    }
    ADD_FAILURE() << "no trace error thrown for " << path;
    return {};
}

TEST(TraceFile, OpRoundTripPreservesEveryField)
{
    const std::string path = "/tmp/vepro_test_tracefile_ops.vetf";
    TraceOp a{0x400000, 0xfeed, OpClass::SimdLoad, false, 3, 7, false};
    TraceOp b{0x400004, 0xbeef, OpClass::Store, false, 0, 0, true};
    TraceOp c{0x400008, 0, OpClass::BranchCond, true, 1, 0, false};
    {
        FileSink sink(path);
        sink.onOp(a);
        sink.onOp(b);
        sink.onOp(c);
        sink.onBranch({0x400008, true});
        sink.flush();
        EXPECT_EQ(sink.opCount(), 3u);
        EXPECT_EQ(sink.branchCount(), 1u);
    }
    VectorSink back;
    TraceFileInfo info = FileSource(path).replay(back);
    expectSameStreams({a, b, c}, back.ops());
    ASSERT_EQ(back.branches().size(), 1u);
    EXPECT_EQ(back.branches()[0].pc, 0x400008u);
    EXPECT_TRUE(back.branches()[0].taken);
    EXPECT_EQ(info.opCount, 3u);
    EXPECT_EQ(info.branchCount, 1u);
    EXPECT_EQ(info.blockCount, 1u);
    EXPECT_EQ(info.fileBytes, std::filesystem::file_size(path));
    std::filesystem::remove(path);
}

/** Capture a probe workload to disk, replay it, and demand the exact
 *  record stream a live-fed sink sees — including across the 4096-op
 *  block boundary and for branch and kernel events. */
TEST(TraceFile, ReplayEqualsLiveStream)
{
    const ProbeConfig pc = ProbeConfig::streaming(true);
    Probe direct(pc);
    VectorSink live;
    SiteProfileSink live_profile;
    MuxSink live_mux{&live, &live_profile};
    direct.setSink(&live_mux);
    emitWorkload(direct);
    direct.flushToSink();

    const std::string path = "/tmp/vepro_test_tracefile_stream.vetf";
    {
        FileSink sink(path);
        Probe fed(pc);
        fed.setSink(&sink);
        emitWorkload(fed);
        fed.flushToSink();
        sink.flush();
        EXPECT_EQ(sink.opCount(), direct.recordedOps());
        EXPECT_EQ(sink.branchCount(), direct.recordedBranches());
    }

    VectorSink replayed;
    SiteProfileSink replayed_profile;
    MuxSink replay_mux{&replayed, &replayed_profile};
    TraceFileInfo info = FileSource(path).replay(replay_mux);
    replay_mux.flush();

    expectSameStreams(live.ops(), replayed.ops());
    ASSERT_EQ(live.branches().size(), replayed.branches().size());
    for (size_t i = 0; i < live.branches().size(); ++i) {
        EXPECT_EQ(live.branches()[i].pc, replayed.branches()[i].pc);
        EXPECT_EQ(live.branches()[i].taken, replayed.branches()[i].taken);
    }
    // Kernel events survive: the replayed profiler attributes the same
    // per-site op counts as the live one.
    ASSERT_EQ(live_profile.siteOps().size(),
              replayed_profile.siteOps().size());
    for (const auto &[site, n] : live_profile.siteOps()) {
        auto it = replayed_profile.siteOps().find(site);
        ASSERT_NE(it, replayed_profile.siteOps().end()) << siteName(site);
        EXPECT_EQ(it->second, n) << siteName(site);
    }
    EXPECT_EQ(info.opCount, direct.recordedOps());
    EXPECT_EQ(info.branchCount, direct.recordedBranches());
    EXPECT_GT(info.blockCount, 1u) << "workload must cross a block";
    // The varint/delta codec target: well under 6 bytes/op on a dense
    // probe stream (the old fixed-width records took 21).
    EXPECT_LE(info.bytesPerOp(), 6.0);
    std::filesystem::remove(path);
}

TEST(TraceFile, BlockBoundaryRoundTrip)
{
    for (uint64_t n : {4095u, 4096u, 4097u}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        auto emit = [n](Probe &p) {
            p.enterKernel(sitePc("tracefile.boundary"), 16);
            p.ops(OpClass::SimdAlu, n, 0, 2);
            p.decision(sitePc("tracefile.boundary.dec"), n % 2 == 0);
            p.memRun(OpClass::SimdLoad, 0x9000, 4, 32, 1);
        };
        Collected live(ProbeConfig::streaming(true));
        emit(live.probe);

        const std::string path = "/tmp/vepro_test_tracefile_boundary.vetf";
        {
            FileSink sink(path);
            Probe fed(ProbeConfig::streaming(true));
            fed.setSink(&sink);
            emit(fed);
            fed.flushToSink();
            sink.flush();
        }
        VectorSink back;
        FileSource(path).replay(back);
        expectSameStreams(live.ops(), back.ops());
        ASSERT_EQ(live.branches().size(), back.branches().size());
        std::filesystem::remove(path);
    }
}

/** Record-at-a-time feeding (no probe): the sink stages standard 4096-op
 *  blocks itself, preserving op/branch/kernel interleaving. */
TEST(TraceFile, RecordAtATimeStagingPreservesOrder)
{
    const std::string path = "/tmp/vepro_test_tracefile_records.vetf";
    std::vector<TraceOp> ops(10'000);
    for (size_t i = 0; i < ops.size(); ++i) {
        ops[i].pc = 0x1000 + (i % 37) * 4;
        ops[i].cls = i % 5 == 0 ? OpClass::Load : OpClass::Alu;
        ops[i].addr = i % 5 == 0 ? 0x20000 + i * 8 : 0;
    }
    {
        FileSink sink(path);
        sink.onOps(ops.data(), 3000);
        sink.onBranch({0x5000, true});
        sink.onKernel(sitePc("tracefile.records"));
        sink.onOps(ops.data() + 3000, 7000);  // crosses two boundaries
        sink.onBranch({0x5004, false});
        sink.flush();
        EXPECT_EQ(sink.opCount(), ops.size());
        EXPECT_EQ(sink.branchCount(), 2u);
    }
    VectorSink back;
    TraceFileInfo info = FileSource(path).replay(back);
    expectSameStreams(ops, back.ops());
    ASSERT_EQ(back.branches().size(), 2u);
    EXPECT_EQ(back.branches()[0].pc, 0x5000u);
    EXPECT_FALSE(back.branches()[1].taken);
    EXPECT_EQ(info.blockCount, 3u) << "10000 ops = 2 full blocks + tail";
    std::filesystem::remove(path);
}

TEST(TraceFile, MetadataRoundTripAndInspect)
{
    const std::string path = "/tmp/vepro_test_tracefile_meta.vetf";
    {
        FileSink sink(path);
        sink.deferSeal(true);
        sink.onOp({0x1000, 0, OpClass::Alu, false, 0, 0, false});
        sink.flush();  // deferred: must NOT seal yet
        sink.setMetadata("{\"wallSeconds\":1.5}");
        sink.seal();
    }
    TraceFileInfo inspected = FileSource::inspect(path);
    EXPECT_EQ(inspected.metadata, "{\"wallSeconds\":1.5}");
    EXPECT_EQ(inspected.opCount, 1u);
    EXPECT_EQ(inspected.fileBytes, std::filesystem::file_size(path));

    VectorSink back;
    TraceFileInfo replayed = FileSource(path).replay(back);
    EXPECT_EQ(replayed.metadata, inspected.metadata);
    EXPECT_EQ(back.ops().size(), 1u);
    std::filesystem::remove(path);
}

TEST(TraceFile, RecordAfterSealThrows)
{
    const std::string path = "/tmp/vepro_test_tracefile_sealed.vetf";
    FileSink sink(path);
    sink.flush();
    TraceOp op{};
    EXPECT_THROW(sink.onOp(op), std::logic_error);
    EXPECT_THROW(sink.onBranch({0x1, true}), std::logic_error);
    std::filesystem::remove(path);
}

TEST(TraceFile, RejectsMissingFile)
{
    VectorSink sink;
    expectTraceError(
        [&] { FileSource("/tmp/does_not_exist_vepro.vetf").replay(sink); },
        "/tmp/does_not_exist_vepro.vetf");
    expectTraceError(
        [&] { FileSource::inspect("/tmp/does_not_exist_vepro.vetf"); },
        "/tmp/does_not_exist_vepro.vetf");
}

TEST(TraceFile, RejectsBadMagic)
{
    const std::string path = "/tmp/vepro_test_tracefile_bad.vetf";
    FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("NOPE....garbage", f);
    std::fclose(f);
    VectorSink sink;
    std::string what =
        expectTraceError([&] { FileSource(path).replay(sink); }, path);
    EXPECT_NE(what.find("bad magic"), std::string::npos) << what;
    std::filesystem::remove(path);
}

/** The retired fixed-width formats are named, not mistaken for rot. */
TEST(TraceFile, RejectsLegacyFormatsWithVersionedError)
{
    for (const char *magic : {"VEPB", "VEPO"}) {
        SCOPED_TRACE(magic);
        const std::string path = "/tmp/vepro_test_tracefile_legacy.vetf";
        FILE *f = std::fopen(path.c_str(), "wb");
        std::fputs(magic, f);
        const uint32_t version = 1;
        std::fwrite(&version, sizeof version, 1, f);
        std::fclose(f);
        VectorSink sink;
        std::string what =
            expectTraceError([&] { FileSource(path).replay(sink); }, path);
        EXPECT_NE(what.find("legacy"), std::string::npos) << what;
        EXPECT_NE(what.find(magic), std::string::npos) << what;
        EXPECT_NE(what.find("recapture"), std::string::npos) << what;
        std::filesystem::remove(path);
    }
}

TEST(TraceFile, RejectsWrongVersion)
{
    const std::string path = "/tmp/vepro_test_tracefile_version.vetf";
    FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("VETF", f);
    const uint32_t version = 99;
    std::fwrite(&version, sizeof version, 1, f);
    std::fclose(f);
    VectorSink sink;
    std::string what =
        expectTraceError([&] { FileSource(path).replay(sink); }, path);
    EXPECT_NE(what.find("unsupported version 99"), std::string::npos)
        << what;
    std::filesystem::remove(path);
}

namespace
{

/** Write a small but representative capture and return its path. */
std::string
writeCorruptionFixture()
{
    const std::string path = "/tmp/vepro_test_tracefile_corrupt.vetf";
    FileSink sink(path);
    Probe fed(ProbeConfig::streaming(true));
    fed.setSink(&sink);
    fed.enterKernel(sitePc("tracefile.corrupt"), 8);
    fed.ops(OpClass::Alu, 600, 1);
    fed.mem(OpClass::Load, 0x30000);
    fed.decision(sitePc("tracefile.corrupt.dec"), true);
    fed.flushToSink();
    sink.setMetadata("fixture-metadata-0123456789");
    sink.flush();
    return path;
}

std::vector<char>
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<char>(std::istreambuf_iterator<char>(in),
                             std::istreambuf_iterator<char>());
}

void
writeAll(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

} // namespace

/** EVERY single-byte corruption of a capture must be detected: header
 *  checks, per-block decode validation, footer counts, or the payload
 *  checksum — nothing decodes silently wrong. */
TEST(TraceFile, EverySingleByteFlipIsDetected)
{
    const std::string path = writeCorruptionFixture();
    const std::vector<char> good = readAll(path);
    ASSERT_GT(good.size(), 60u);
    const std::string flipped = path + ".flip";
    for (size_t i = 0; i < good.size(); ++i) {
        std::vector<char> bad = good;
        bad[i] = static_cast<char>(bad[i] ^ 0x01);
        writeAll(flipped, bad);
        VectorSink sink;
        try {
            FileSource(flipped).replay(sink);
            ADD_FAILURE() << "flip at byte " << i << " went undetected";
        } catch (const std::runtime_error &e) {
            EXPECT_EQ(std::string(e.what()).rfind("trace:", 0), 0u)
                << "byte " << i << ": " << e.what();
        }
    }
    std::filesystem::remove(flipped);
    std::filesystem::remove(path);
}

/** Every proper prefix of a capture must fail as truncated. */
TEST(TraceFile, TruncationIsDetectedAtAnyLength)
{
    const std::string path = writeCorruptionFixture();
    const std::vector<char> good = readAll(path);
    const std::string cut = path + ".cut";
    // Every length up to the header, then a spread of longer prefixes.
    std::vector<size_t> lengths;
    for (size_t n = 0; n < 12 && n < good.size(); ++n) {
        lengths.push_back(n);
    }
    for (size_t n = 12; n < good.size(); n += 7) {
        lengths.push_back(n);
    }
    lengths.push_back(good.size() - 1);
    for (size_t n : lengths) {
        std::vector<char> bad(good.begin(),
                              good.begin() + static_cast<ptrdiff_t>(n));
        writeAll(cut, bad);
        VectorSink sink;
        std::string what =
            expectTraceError([&] { FileSource(cut).replay(sink); }, cut);
        EXPECT_NE(what.find("offset"), std::string::npos)
            << "truncated at " << n << ": " << what;
    }
    std::filesystem::remove(cut);
    std::filesystem::remove(path);
}

/** A flip in the (never-decoded) metadata is exactly what the checksum
 *  exists for. */
TEST(TraceFile, MetadataBitFlipFailsChecksum)
{
    const std::string path = writeCorruptionFixture();
    std::vector<char> bytes = readAll(path);
    // The metadata sits 36 footer bytes + its own length from the end.
    const size_t meta_at = bytes.size() - 36 - 10;
    bytes[meta_at] = static_cast<char>(bytes[meta_at] ^ 0x40);
    writeAll(path, bytes);
    VectorSink sink;
    std::string what =
        expectTraceError([&] { FileSource(path).replay(sink); }, path);
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
    std::filesystem::remove(path);
}

// ---- Streaming sink architecture -----------------------------------

/** Sampling, caps, mix and MPKI denominators are decided by the probe
 *  alone: a probe with no sink counts exactly what a sink-fed one
 *  records and delivers. */
TEST(Sink, CountersIndependentOfSink)
{
    ProbeConfig pc;
    pc.collectOps = true;
    pc.maxOps = 3000;
    pc.opWindow = 700;
    pc.opInterval = 1500;
    pc.collectBranches = true;
    pc.maxBranches = 100;
    pc.branchWarmupOps = 500;

    Probe bare(pc);
    emitWorkload(bare);

    Collected fed(pc);
    emitWorkload(fed.probe);

    EXPECT_EQ(fed.ops().size(), fed.probe.recordedOps());
    EXPECT_EQ(fed.branches().size(), fed.probe.recordedBranches());
    EXPECT_EQ(bare.recordedOps(), fed.probe.recordedOps());
    EXPECT_EQ(bare.recordedBranches(), fed.probe.recordedBranches());
    EXPECT_EQ(bare.droppedOps(), fed.probe.droppedOps());
    EXPECT_EQ(bare.droppedBranches(), fed.probe.droppedBranches());
    EXPECT_EQ(bare.branchTraceOpSpan(), fed.probe.branchTraceOpSpan());
    for (int i = 0; i < kNumOpClasses; ++i) {
        EXPECT_EQ(bare.mix().byClass[static_cast<size_t>(i)],
                  fed.probe.mix().byClass[static_cast<size_t>(i)]);
    }
}

TEST(Sink, DropCountersAccountForCaps)
{
    ProbeConfig pc;
    pc.collectOps = true;
    pc.maxOps = 100;
    pc.opWindow = 1000;
    pc.opInterval = 1000;
    pc.collectBranches = true;
    pc.maxBranches = 5;
    Collected c(pc);
    emitWorkload(c.probe);
    EXPECT_EQ(c.probe.recordedOps(), 100u);
    EXPECT_EQ(c.ops().size(), 100u);
    EXPECT_GT(c.probe.droppedOps(), 0u);
    EXPECT_EQ(c.probe.recordedBranches(), 5u);
    EXPECT_EQ(c.branches().size(), 5u);
    EXPECT_GT(c.probe.droppedBranches(), 0u);
}

TEST(Sink, MuxFansOutToAllSinks)
{
    VectorSink first, second;
    SiteProfileSink profile;
    MuxSink mux{&first, &second};
    mux.add(&profile);

    Probe p(ProbeConfig::streaming(true));
    p.setSink(&mux);
    emitWorkload(p);
    p.flushToSink();
    mux.flush();

    expectSameStreams(first.ops(), second.ops());
    EXPECT_EQ(first.ops().size(), p.recordedOps());
    EXPECT_EQ(first.branches().size(), second.branches().size());
    uint64_t attributed = 0;
    for (const auto &[site, n] : profile.siteOps()) {
        attributed += n;
    }
    EXPECT_EQ(attributed, p.recordedOps());
}

TEST(Sink, StreamingConfigRecordsEverything)
{
    Probe p(ProbeConfig::streaming(true));
    VectorSink all;
    p.setSink(&all);
    emitWorkload(p);
    p.flushToSink();
    EXPECT_EQ(all.ops().size(), p.recordedOps());
    EXPECT_EQ(p.droppedOps(), 0u);
    EXPECT_EQ(p.droppedBranches(), 0u);
    // Only the un-emitted half of each kernel-entry call pair (2 of the
    // 4 booked call-overhead ops) separates the stream from totalOps:
    // 80 enterKernel calls in the workload.
    EXPECT_EQ(p.recordedOps() + 80 * 2, p.totalOps());
}

/** The streaming profiler must agree with the probe's own site map up
 *  to the un-emitted half of each kernel-entry call pair (the probe
 *  books 4 call-overhead ops per enterKernel but streams 2). */
TEST(Sink, SiteProfileMatchesProbeProfiling)
{
    ProbeConfig pc = ProbeConfig::streaming();
    pc.profileSites = true;
    SiteProfileSink sink;
    Probe p(pc);
    p.setSink(&sink);
    emitWorkload(p);
    p.flushToSink();
    EXPECT_EQ(sink.siteOps().size(), p.siteOps().size());
    for (const auto &[site, n] : p.siteOps()) {
        auto it = sink.siteOps().find(site);
        ASSERT_NE(it, sink.siteOps().end());
        // 40 entries per kernel site in the workload, 2 un-streamed
        // bookkeeping ops each.
        EXPECT_EQ(it->second + 40 * 2, n) << siteName(site);
    }
    // Both orderings of the flat profile must agree on the hot set.
    auto a = profileReport(p, 0.0);
    auto b = profileReport(sink, 0.0);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
    }
}

// ---- Emission-block boundaries (kBlockOps = 4096) -------------------

/** Records the exact delivery sequence: op batches (sizes + contents),
 *  branch records, and kernel markers, in arrival order. */
class EventRecordingSink final : public TraceSink
{
  public:
    enum class Kind { OpBatch, Branch, Kernel };
    struct Event {
        Kind kind;
        size_t batchSize = 0;   ///< OpBatch only.
        BranchRecord branch{};  ///< Branch only.
        uint64_t site = 0;      ///< Kernel only.
    };

    void onOp(const TraceOp &op) override { onOps(&op, 1); }

    void
    onOps(const TraceOp *batch, size_t n) override
    {
        events.push_back({Kind::OpBatch, n, {}, 0});
        ops.insert(ops.end(), batch, batch + n);
    }

    void
    onBranch(const BranchRecord &branch) override
    {
        events.push_back({Kind::Branch, 0, branch, 0});
    }

    void
    onKernel(uint64_t site) override
    {
        events.push_back({Kind::Kernel, 0, {}, site});
    }

    std::vector<Event> events;
    std::vector<TraceOp> ops;
};

/**
 * Ops staged around the 4096-op emission-block boundary must arrive in
 * batches of at most kBlockOps, and a branch record must flush every
 * staged op first so the sink sees strict program order. 4095 / 4096 /
 * 4097 hit the stage-exactly-full, flush-then-stage, and
 * flush-mid-batch paths respectively.
 */
TEST(Sink, BlockBoundaryPreservesProgramOrder)
{
    const uint64_t site_dec = sitePc("sink.boundary.dec");
    const uint64_t site_k = sitePc("sink.boundary.kernel");
    for (uint64_t n : {4095u, 4096u, 4097u}) {
        SCOPED_TRACE("n=" + std::to_string(n));
        Probe p(ProbeConfig::streaming(true));
        EventRecordingSink sink;
        p.setSink(&sink);

        p.ops(OpClass::Alu, n, 1);
        p.decision(site_dec, true);  // flushes the staged block
        p.enterKernel(site_k, 8);    // marker, then 2 bookkeeping ops
        p.flushToSink();

        // Every op that precedes the branch in program order (the n ALU
        // ops plus the BranchCond op itself) must arrive before the
        // branch record; the kernel marker and its call-pair ops follow.
        size_t ops_before_branch = 0;
        size_t branch_at = sink.events.size();
        for (size_t i = 0; i < sink.events.size(); ++i) {
            const auto &ev = sink.events[i];
            if (ev.kind == EventRecordingSink::Kind::Branch) {
                branch_at = i;
                break;
            }
            ASSERT_EQ(ev.kind, EventRecordingSink::Kind::OpBatch);
            ASSERT_LE(ev.batchSize, 4096u);  // kBlockOps
            ops_before_branch += ev.batchSize;
        }
        ASSERT_LT(branch_at, sink.events.size());
        EXPECT_EQ(ops_before_branch, n + 1);
        EXPECT_EQ(sink.events[branch_at].branch.pc, site_dec);
        EXPECT_TRUE(sink.events[branch_at].branch.taken);

        // The kernel marker comes after the branch and before its own
        // call-pair batch.
        ASSERT_EQ(sink.events[branch_at + 1].kind,
                  EventRecordingSink::Kind::Kernel);
        EXPECT_EQ(sink.events[branch_at + 1].site, site_k);
        ASSERT_EQ(sink.events[branch_at + 2].kind,
                  EventRecordingSink::Kind::OpBatch);
        EXPECT_EQ(sink.events[branch_at + 2].batchSize, 2u);

        // Concatenated batches are the exact program-order stream.
        ASSERT_EQ(sink.ops.size(), n + 3);
        for (uint64_t i = 0; i < n; ++i) {
            ASSERT_EQ(sink.ops[i].cls, OpClass::Alu) << "op " << i;
        }
        EXPECT_EQ(sink.ops[n].cls, OpClass::BranchCond);
        EXPECT_EQ(sink.ops[n].pc, site_dec);
        EXPECT_TRUE(sink.ops[n].taken);
        EXPECT_EQ(sink.ops[n + 1].cls, OpClass::BranchUncond);
        EXPECT_EQ(sink.ops[n + 2].cls, OpClass::Other);
        EXPECT_EQ(p.recordedOps(), n + 3);
        EXPECT_EQ(p.totalOps(), n + 1 + 4);
    }
}

} // namespace
} // namespace vepro::trace
