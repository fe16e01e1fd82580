/**
 * @file
 * Unit tests for the experiment harness: report formatting, run scaling,
 * sweep helpers, the thread-study machinery — and the golden-stats
 * regression suite that pins the simulator's exact counters so hot-path
 * refactors can be checked against byte-identical numbers.
 */

#include <gtest/gtest.h>

#include <array>
#include <filesystem>

#include "backend/profile.hpp"
#include "bpred/runner.hpp"
#include "core/experiment.hpp"
#include "core/report.hpp"
#include "core/threadstudy.hpp"
#include "encoders/registry.hpp"
#include "trace/synth.hpp"
#include "trace/trace_io.hpp"
#include "uarch/core.hpp"
#include "video/generator.hpp"
#include "video/suite.hpp"

namespace vepro::core
{
namespace
{

TEST(Report, MarkdownShape)
{
    Table t({"a", "b"});
    t.addRow({"1", "22"});
    t.addRow({"333", "4"});
    std::string md = t.toMarkdown();
    EXPECT_NE(md.find("| a "), std::string::npos);
    EXPECT_NE(md.find("| 333 |"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(Report, CsvShape)
{
    Table t({"x", "y"});
    t.addRow({"1", "2"});
    EXPECT_EQ(t.toCsv(), "x,y\n1,2\n");
}

TEST(Report, CsvQuotesCellsPerRfc4180)
{
    Table t({"Video", "Instructions", "Note"});
    t.addRow({"game1", fmtCount(12345678), "plain"});
    t.addRow({"say \"hi\"", "1", "two\nlines"});
    EXPECT_EQ(t.toCsv(), "Video,Instructions,Note\n"
                         "game1,\"12,345,678\",plain\n"
                         "\"say \"\"hi\"\"\",1,\"two\nlines\"\n");
}

TEST(Report, JsonRowsKeyedByHeader)
{
    Table t({"Video", "IPC"});
    t.addRow({"game1", "1.98"});
    t.addRow({"cat \"pet\"", "2.01"});
    EXPECT_EQ(t.toJson(), "[\n"
                          "  {\"Video\": \"game1\", \"IPC\": \"1.98\"},\n"
                          "  {\"Video\": \"cat \\\"pet\\\"\", "
                          "\"IPC\": \"2.01\"}\n"
                          "]");
    // Deterministic: the artifact byte-compare in CI depends on it.
    EXPECT_EQ(t.toJson(), t.toJson());
    EXPECT_EQ(Table({"a"}).toJson(), "[]");
}

TEST(Report, RowWidthValidated)
{
    Table t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
    EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Report, Formatters)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(2.0, 0), "2");
    EXPECT_EQ(fmtCount(1234567), "1,234,567");
    EXPECT_EQ(fmtCount(12), "12");
    EXPECT_EQ(fmtSci(1.7e11), "1.7E+11");
    EXPECT_EQ(fmtSci(9.5e10), "9.5E+10");
    EXPECT_EQ(fmtSci(0.0), "0");
}

TEST(RunScale, ParsesFlags)
{
    const char *argv1[] = {"bench", "--quick"};
    RunScale quick = RunScale::fromArgs(2, const_cast<char **>(argv1));
    EXPECT_EQ(quick.suite.divisor, 8);

    const char *argv2[] = {"bench", "--full"};
    RunScale full = RunScale::fromArgs(2, const_cast<char **>(argv2));
    EXPECT_EQ(full.suite.divisor, 4);
    EXPECT_GT(full.maxTraceOps, quick.maxTraceOps);

    const char *argv3[] = {"bench", "--videos=game1,cat"};
    RunScale filt = RunScale::fromArgs(2, const_cast<char **>(argv3));
    ASSERT_EQ(filt.videos.size(), 2u);
    EXPECT_EQ(filt.videos[0], "game1");
    EXPECT_EQ(filt.videos[1], "cat");
    EXPECT_EQ(selectedVideos(filt).size(), 2u);

    // A removed flag is an unknown argument like any other.
    for (const char *flag : {"--bogus", "--sim-jobs=2"}) {
        const char *argv[] = {"bench", flag};
        try {
            RunScale::fromArgs(2, const_cast<char **>(argv));
            ADD_FAILURE() << flag << " was accepted";
        } catch (const std::invalid_argument &err) {
            EXPECT_NE(std::string(err.what()).find("unknown argument"),
                      std::string::npos)
                << err.what();
        }
    }
}

TEST(RunScale, JobsParsingIsStrict)
{
    const char *ok[] = {"bench", "--jobs=4"};
    EXPECT_EQ(RunScale::fromArgs(2, const_cast<char **>(ok)).jobs, 4);

    // 0 = auto-detect hardware threads, resolved at parse time so every
    // consumer sees a concrete count (floor 1).
    const char *zero[] = {"bench", "--jobs=0"};
    EXPECT_GE(RunScale::fromArgs(2, const_cast<char **>(zero)).jobs, 1);

    // std::stoi would have accepted all of these silently.
    for (const char *bad :
         {"--jobs=4abc", "--jobs=", "--jobs=1e3", "--jobs= 2",
          "--jobs=-1", "--jobs=4.5"}) {
        const char *argv[] = {"bench", bad};
        EXPECT_THROW(RunScale::fromArgs(2, const_cast<char **>(argv)),
                     std::invalid_argument)
            << bad;
    }
}

TEST(RunScale, CacheFlags)
{
    const char *argv1[] = {"bench", "--no-cache", "--store=/tmp/altstore"};
    RunScale scale = RunScale::fromArgs(3, const_cast<char **>(argv1));
    EXPECT_TRUE(scale.noCache);
    EXPECT_EQ(scale.storeDir, "/tmp/altstore");

    RunScale defaults;
    EXPECT_FALSE(defaults.noCache);
    EXPECT_EQ(defaults.storeDir, ".vepro-lab");

    const char *argv2[] = {"bench", "--store="};
    EXPECT_THROW(RunScale::fromArgs(2, const_cast<char **>(argv2)),
                 std::invalid_argument);
}

TEST(ParseIntStrict, AcceptsWholeIntegersOnly)
{
    EXPECT_EQ(parseIntStrict("17", "--n"), 17);
    EXPECT_EQ(parseIntStrict("-3", "--n"), -3);
    for (const char *bad : {"", "abc", "4abc", "1.5", "1e3", " 2", "2 "}) {
        EXPECT_THROW(parseIntStrict(bad, "--n"), std::invalid_argument)
            << "'" << bad << "'";
    }
}

TEST(ParseStrict, U64AndDoubleTakeWholeValuesOnly)
{
    EXPECT_EQ(parseU64Strict("0", "--n"), 0u);
    EXPECT_EQ(parseU64Strict("18446744073709551615", "--n"),
              18446744073709551615ULL);
    for (const char *bad :
         {"", "-1", "+1", "4abc", "1.5", " 2", "18446744073709551616"}) {
        EXPECT_THROW(parseU64Strict(bad, "--n"), std::invalid_argument)
            << "'" << bad << "'";
    }
    EXPECT_DOUBLE_EQ(parseDoubleStrict("600", "--x"), 600.0);
    EXPECT_DOUBLE_EQ(parseDoubleStrict("-0.25", "--x"), -0.25);
    EXPECT_DOUBLE_EQ(parseDoubleStrict("1e3", "--x"), 1000.0);
    for (const char *bad :
         {"", "600abc", "90s", " 5", "5 ", "inf", "nan", "1e999", "0x10"}) {
        EXPECT_THROW(parseDoubleStrict(bad, "--x"), std::invalid_argument)
            << "'" << bad << "'";
    }
}

TEST(RunScale, DefaultSelectsWholeSuite)
{
    RunScale scale;
    EXPECT_EQ(selectedVideos(scale).size(), 15u);
}

TEST(Sweeps, CrfPointsAndMapping)
{
    EXPECT_EQ(crfSweepAv1().size(), 6u);
    EXPECT_EQ(crfSweepAv1().front(), 10);
    EXPECT_EQ(crfSweepAv1().back(), 60);
    EXPECT_EQ(crfSweepX26x().size(), 6u);
    EXPECT_EQ(mapCrfToX26x(63), 51);
    EXPECT_EQ(mapCrfToX26x(0), 0);
    for (size_t i = 0; i < crfSweepX26x().size(); ++i) {
        EXPECT_LE(crfSweepX26x()[i], 51);
    }
}

TEST(RunPoint, ProducesLinkedEncodeAndSimulation)
{
    video::GeneratorParams p;
    p.width = 64;
    p.height = 48;
    p.frames = 2;
    p.entropy = 4;
    p.seed = 3;
    video::Video clip = video::generate("rp", p);
    RunScale scale;
    scale.maxTraceOps = 200'000;
    auto enc = encoders::encoderByName("Libvpx-vp9");
    SweepPoint point = runPoint(*enc, clip, 45, 7, scale);
    EXPECT_GT(point.encode.instructions, 0u);
    EXPECT_GT(point.core.instructions, 0u);
    EXPECT_GT(point.core.ipc(), 0.3);
    EXPECT_LT(point.core.ipc(), 4.0);
    EXPECT_EQ(point.core.slots.total(), point.core.cycles * 4);
}

encoders::EncodeResult
taskedEncode(const char *name, trace::VectorSink *ops = nullptr)
{
    video::GeneratorParams p;
    p.width = 256;
    p.height = 128;
    p.frames = 6;
    p.entropy = 4;
    p.seed = 5;
    video::Video clip = video::generate("ts", p);
    auto enc = encoders::encoderByName(name);
    encoders::EncodeParams ep;
    ep.crf = enc->crfRange() * 5 / 8;
    ep.preset = enc->presetInverted() ? 2 : 6;
    trace::ProbeConfig pc;
    pc.collectOps = ops != nullptr;
    pc.maxOps = 300'000;
    pc.opWindow = 300'000;
    pc.opInterval = 300'000;
    return enc->encode(clip, ep, pc, true, ops);
}

TEST(ThreadStudy, CurveStartsAtOneAndNeverRegresses)
{
    auto r = taskedEncode("SVT-AV1");
    auto curve = scalabilityCurve(r, 8);
    ASSERT_EQ(curve.size(), 8u);
    EXPECT_NEAR(curve[0].speedup, 1.0, 1e-9);
    for (size_t i = 1; i < curve.size(); ++i) {
        EXPECT_GE(curve[i].speedup, curve[i - 1].speedup - 1e-9);
        EXPECT_LE(curve[i].speedup, static_cast<double>(i + 1) + 1e-9);
    }
}

TEST(ThreadStudy, SerialSpineScalesWorstWavefrontBest)
{
    auto svt = scalabilityCurve(taskedEncode("SVT-AV1"), 8);
    auto x265 = scalabilityCurve(taskedEncode("x265"), 8);
    EXPECT_GT(svt.back().speedup, x265.back().speedup * 1.2);
    EXPECT_LT(x265.back().speedup, 1.9);
}

TEST(ThreadStudy, RequiresTaskGraph)
{
    encoders::EncodeResult empty;
    EXPECT_THROW(scalabilityCurve(empty, 4), std::invalid_argument);
}

TEST(SystemTrace, SingleThreadHasNoSpins)
{
    trace::VectorSink ops;
    auto r = taskedEncode("x265", &ops);
    auto trace = buildSystemTrace(ops.ops(), r.taskGraph, 1);
    for (const auto &op : trace) {
        EXPECT_FALSE(op.foreign);
    }
    EXPECT_FALSE(trace.empty());
}

TEST(SystemTrace, IdleCoresSpinOnTheQueueLine)
{
    trace::VectorSink ops;
    auto r = taskedEncode("x265", &ops);
    auto trace = buildSystemTrace(ops.ops(), r.taskGraph, 8);
    size_t foreign = 0, spins = 0;
    for (const auto &op : trace) {
        foreign += op.foreign;
        spins += !op.foreign && op.cls == trace::OpClass::Load &&
                 op.addr == 0x7f000000ULL;
    }
    EXPECT_GT(foreign, 100u) << "x265's idle helpers must generate "
                                "coherence traffic";
    EXPECT_GT(spins, 100u);
}

TEST(SystemTrace, RespectsOpCap)
{
    trace::VectorSink ops;
    auto r = taskedEncode("SVT-AV1", &ops);
    SystemTraceConfig cfg;
    cfg.maxOps = 5'000;
    auto trace = buildSystemTrace(ops.ops(), r.taskGraph, 4, cfg);
    EXPECT_LE(trace.size(), 5'000u);
}

// ---- Golden-stats regression suite ---------------------------------
//
// Every number below was produced by `bench_simspeed --golden` and is
// the contract every hot-path refactor must preserve BIT-IDENTICALLY:
// the streaming pipeline, the core's scheduling structures, and the
// cache model may be rebuilt freely, but these counters must not move.
// If a change is *meant* to alter simulated behaviour, regenerate with
// `bench_simspeed --golden` and justify the new numbers in the commit.

TEST(GoldenStats, CoreCountersOnSynthTrace)
{
    trace::SynthConfig cfg;
    cfg.ops = 400'000;
    std::vector<trace::TraceOp> t = trace::synthTrace(cfg);
    uarch::StreamCore core;
    core.onOps(t.data(), t.size());
    core.flush();
    const uarch::CoreStats &s = core.stats();

    EXPECT_EQ(s.cycles, 1049439u);
    EXPECT_EQ(s.instructions, 399744u);
    EXPECT_EQ(s.slots.retiring, 399744u);
    EXPECT_EQ(s.slots.badSpec, 2191255u);
    EXPECT_EQ(s.slots.frontend, 85298u);
    EXPECT_EQ(s.slots.backend, 1521459u);
    EXPECT_EQ(s.slots.backendMemory, 1521459u);
    EXPECT_EQ(s.slots.backendCore, 0u);
    EXPECT_EQ(s.stalls.rs, 394113u);
    EXPECT_EQ(s.stalls.rob, 0u);
    EXPECT_EQ(s.stalls.loadBuf, 0u);
    EXPECT_EQ(s.stalls.storeBuf, 0u);
    EXPECT_EQ(s.condBranches, 52886u);
    EXPECT_EQ(s.mispredicts, 3076u);
    EXPECT_EQ(s.l1iMisses, 48u);
    EXPECT_EQ(s.l1dAccesses, 188042u);
    EXPECT_EQ(s.l1dMisses, 141494u);
    EXPECT_EQ(s.l2Misses, 93742u);
    EXPECT_EQ(s.llcMisses, 81221u);
    EXPECT_EQ(s.invalidations, 5u);
}

TEST(GoldenStats, StreamingBlockDeliveryIsBitIdentical)
{
    // The same trace streamed through the sink interface in awkward
    // batch sizes must reproduce the batch-replay numbers above.
    trace::SynthConfig cfg;
    cfg.ops = 400'000;
    std::vector<trace::TraceOp> t = trace::synthTrace(cfg);
    uarch::StreamCore sim;
    size_t pos = 0, chunk = 1;
    while (pos < t.size()) {
        size_t n = std::min(chunk, t.size() - pos);
        sim.onOps(t.data() + pos, n);
        pos += n;
        chunk = chunk % 4099 + 7;
    }
    sim.flush();
    EXPECT_EQ(sim.stats().cycles, 1049439u);
    EXPECT_EQ(sim.stats().mispredicts, 3076u);
    EXPECT_EQ(sim.stats().l1dMisses, 141494u);
    EXPECT_EQ(sim.stats().llcMisses, 81221u);
}

TEST(GoldenStats, CacheSinkCountersOnSynthTrace)
{
    trace::SynthConfig cfg;
    cfg.ops = 400'000;
    std::vector<trace::TraceOp> t = trace::synthTrace(cfg);
    uarch::CacheSink sink;
    sink.onOps(t.data(), t.size());
    sink.flush();
    const uarch::Hierarchy &m = sink.hierarchy();

    EXPECT_EQ(sink.instructions(), 399744u);
    EXPECT_EQ(m.l1i().accesses(), 117423u);
    EXPECT_EQ(m.l1i().misses(), 48u);
    EXPECT_EQ(m.l1d().accesses(), 188042u);
    EXPECT_EQ(m.l1d().misses(), 141507u);
    EXPECT_EQ(m.l2().accesses(), 141555u);
    EXPECT_EQ(m.l2().misses(), 93740u);
    EXPECT_EQ(m.llc().accesses(), 93996u);
    EXPECT_EQ(m.llc().misses(), 81221u);
    EXPECT_EQ(m.l1d().invalidations() + m.l2().invalidations(), 5u);
}

/** FNV-1a over every CoreStats counter, in declaration order. */
uint64_t
coreStatsDigest(const uarch::CoreStats &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint64_t v :
         {s.cycles, s.instructions, s.slots.retiring, s.slots.badSpec,
          s.slots.frontend, s.slots.backend, s.slots.backendMemory,
          s.slots.backendCore, s.stalls.rs, s.stalls.rob, s.stalls.loadBuf,
          s.stalls.storeBuf, s.condBranches, s.mispredicts, s.l1iMisses,
          s.l1dAccesses, s.l1dMisses, s.l2Misses, s.llcMisses,
          s.invalidations}) {
        for (int i = 0; i < 8; ++i) {
            h = (h ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
        }
    }
    return h;
}

/** Digests of @p ops simulated on xeon-bdw and on graviton-like. */
std::array<uint64_t, 2>
profileDigests(const std::vector<trace::TraceOp> &ops)
{
    std::array<uint64_t, 2> out{};
    const uarch::CoreConfig configs[] = {uarch::xeonBdwConfig(),
                                         uarch::gravitonLikeConfig()};
    for (size_t i = 0; i < 2; ++i) {
        uarch::StreamCore core(configs[i]);
        core.onOps(ops.data(), ops.size());
        core.flush();
        out[i] = coreStatsDigest(core.stats());
    }
    return out;
}

TEST(GoldenStats, CoreDigestsOnCappedEncoderTraces)
{
    // Real encoder op streams, captured the way a quick sweep point
    // captures them (quick suite scale, default capped sampling), pinned
    // on both core profiles a cross-backend replay resolves.
    struct Capture {
        const char *encoder;
        const char *video;
        int preset;
        int crf;
        std::array<uint64_t, 2> want;
    };
    const Capture captures[] = {
        {"SVT-AV1",
         "cat",
         6,
         40,
         {12676967985007171273ULL, 8611232328502729762ULL}},
        {"x265",
         "cat",
         5,
         30,
         {13590495283447617088ULL, 7195856478936289100ULL}},
    };
    video::SuiteScale suite;
    suite.divisor = 8;
    suite.frames = 6;
    for (const Capture &c : captures) {
        auto enc = encoders::encoderByName(c.encoder);
        encoders::EncodeParams p;
        p.crf = c.crf;
        p.preset = c.preset;
        trace::VectorSink sink;
        enc->encode(video::loadSuiteVideo(c.video, suite), p,
                    tracingConfig(RunScale{}), false, &sink);
        ASSERT_EQ(sink.ops().size(), RunScale{}.maxTraceOps) << c.encoder;
        const std::array<uint64_t, 2> got = profileDigests(sink.ops());
        EXPECT_EQ(got[0], c.want[0]) << c.encoder << " on xeon-bdw";
        EXPECT_EQ(got[1], c.want[1]) << c.encoder << " on graviton-like";
    }
}

/**
 * A scheduler kept full. The trace alternates two 2048-op phases. In
 * the first, nearly every op is an ALU op with no producer, so
 * allocation outruns the ALU ports and dozens of ready entries sit
 * port-starved each cycle until the ROB fills behind a starved head. In
 * the second, a chain of divides (20 cycles each, one multiply port)
 * holds three dependants per link while independent ALU ops keep the
 * ALU ports contended, so the station itself fills. Loads and stores
 * over an L1-sized footprint, SIMD ops and one loop branch per 256 ops
 * run through both.
 */
std::vector<trace::TraceOp>
portStarvedTrace(size_t n)
{
    std::vector<trace::TraceOp> ops;
    ops.reserve(n);
    uint64_t x = 0x9e3779b97f4a7c15ULL;
    auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (size_t i = 0; i < n; ++i) {
        trace::TraceOp op;
        op.pc = 0x400000 + (i % 256) * 4;
        const uint64_t r = next();
        if (i % 256 == 255) {
            op.cls = trace::OpClass::BranchCond;  // the loop branch
            op.taken = (r >> 8) % 5 != 0;
        } else if ((i / 2048) % 2 == 1 && i % 8 < 4) {
            // Divide-chain phase: a divide on the previous link, then
            // three ALU ops that consume it.
            if (i % 8 == 0) {
                op.cls = trace::OpClass::Div;
                op.dep1 = 8;
            } else {
                op.dep1 = static_cast<uint8_t>(i % 8);
            }
        } else {
            switch (r % 64) {
              case 0:
                op.cls = trace::OpClass::Mul;
                op.dep1 = static_cast<uint8_t>(1 + (r >> 8) % 6);
                break;
              case 1:
                op.cls = trace::OpClass::SimdAlu;
                break;
              case 2:
                op.cls = trace::OpClass::Load;
                op.addr = 0x10000000 + ((r >> 8) % 256) * 64;
                break;
              case 3:
                op.cls = trace::OpClass::Store;
                op.addr = 0x10000000 + ((r >> 8) % 128) * 64;
                op.dep1 = 1;
                break;
              default:
                break;  // an ALU op with no producer
            }
        }
        ops.push_back(op);
    }
    return ops;
}

TEST(GoldenStats, CoreDigestsOnPortStarvedStation)
{
    const std::vector<trace::TraceOp> ops = portStarvedTrace(200'000);
    const std::array<uint64_t, 2> got = profileDigests(ops);
    EXPECT_EQ(got[0], 5209743935037665011ULL);
    EXPECT_EQ(got[1], 9070889926220398206ULL);
    // The trace must keep the scheduler full, or it pins nothing.
    uarch::StreamCore core;
    core.onOps(ops.data(), ops.size());
    core.flush();
    EXPECT_GT(core.stats().stalls.rs, core.stats().cycles / 2);
    EXPECT_GT(core.stats().stalls.rob, 0u);
}

TEST(GoldenStats, PredictorMissesOnSynthBranches)
{
    std::vector<trace::BranchRecord> b = trace::synthBranches(200'000);
    auto pred = bpred::makePredictor("tage-64KB");
    bpred::RunResult r = bpred::runTrace(*pred, b, 1'000'000);
    EXPECT_EQ(r.branches, 200'000u);
    EXPECT_EQ(r.misses, 20934u);
}

// ---------------------------------------------------------------------------
// One-pass multi-config simulate(): the determinism contract is
// BIT-IDENTITY with sequential runPoint, not "close enough" — the
// fan-out feeds every core the whole stream in program order.

video::Video
multiClip()
{
    video::GeneratorParams p;
    p.width = 96;
    p.height = 64;
    p.frames = 2;
    p.entropy = 5;
    p.seed = 11;
    return video::generate("multi", p);
}

void
expectSameStats(const uarch::CoreStats &a, const uarch::CoreStats &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.slots.retiring, b.slots.retiring);
    EXPECT_EQ(a.slots.badSpec, b.slots.badSpec);
    EXPECT_EQ(a.slots.frontend, b.slots.frontend);
    EXPECT_EQ(a.slots.backend, b.slots.backend);
    EXPECT_EQ(a.slots.backendMemory, b.slots.backendMemory);
    EXPECT_EQ(a.stalls.rs, b.stalls.rs);
    EXPECT_EQ(a.stalls.rob, b.stalls.rob);
    EXPECT_EQ(a.condBranches, b.condBranches);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.l1iMisses, b.l1iMisses);
    EXPECT_EQ(a.l1dAccesses, b.l1dAccesses);
    EXPECT_EQ(a.l1dMisses, b.l1dMisses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.llcMisses, b.llcMisses);
    EXPECT_DOUBLE_EQ(a.l1dMpki(), b.l1dMpki());
    EXPECT_DOUBLE_EQ(a.llcMpki(), b.llcMpki());
}

TEST(Simulate, MultiConfigBitIdenticalToSequentialRunPoint)
{
    video::Video clip = multiClip();
    auto enc = encoders::encoderByName("SVT-AV1");
    RunScale scale;
    scale.maxTraceOps = 150'000;

    // Sequential baselines: one full encode per config.
    SweepPoint seq_default = runPoint(*enc, clip, 40, 6, scale);
    RunScale grav_scale = scale;
    grav_scale.backend = "graviton-like";
    SweepPoint seq_grav = runPoint(*enc, clip, 40, 6, grav_scale);

    // One pass through both configs, fanned out on worker threads.
    std::vector<uarch::CoreConfig> configs = {
        uarch::CoreConfig{},
        backend::resolveProfile("graviton-like").core};
    encoders::EncodeResult encoded;
    std::vector<uarch::CoreStats> multi = simulate(
        encodeFeed(*enc, clip, 40, 6, scale, encoded), configs, scale);
    ASSERT_EQ(multi.size(), 2u);
    expectSameStats(multi[0], seq_default.core);
    expectSameStats(multi[1], seq_grav.core);

    // The single encode is the one every sequential point ran.
    EXPECT_EQ(encoded.instructions, seq_default.encode.instructions);
    EXPECT_EQ(encoded.instructions, seq_grav.encode.instructions);
    // Different machine geometries really did diverge (no sink aliasing).
    EXPECT_NE(multi[0].cycles, multi[1].cycles);
}

/**
 * A synthetic op stream with branch and kernel records between the ops,
 * long enough to fill more than three of simulate()'s 64-block batches
 * (and end in a partial one). Every simulate() test above fits in one.
 */
struct FanOutStream {
    std::vector<trace::TraceOp> ops;
    std::vector<trace::BranchRecord> branches;
};

FanOutStream
fanOutStream()
{
    trace::SynthConfig cfg;
    cfg.ops = 3 * 64 * trace::TraceBlock::kOps + 123'457;
    return {trace::synthTrace(cfg), trace::synthBranches(40'000)};
}

/** Delivers @p s as whole 4096-op blocks, moved into the sink. */
Feed
blockFeed(const FanOutStream &s)
{
    return [&s](trace::TraceSink &sink) {
        size_t br = 0;
        for (size_t pos = 0; pos < s.ops.size();
             pos += trace::TraceBlock::kOps) {
            trace::TraceBlock block;
            const size_t end =
                std::min(pos + trace::TraceBlock::kOps, s.ops.size());
            block.ops.assign(s.ops.begin() + static_cast<long>(pos),
                             s.ops.begin() + static_cast<long>(end));
            block.events.push_back(
                {0, trace::TraceBlock::Event::Kernel, false, 0x4100});
            for (uint32_t at = 512; at < block.ops.size() &&
                                    br < s.branches.size();
                 at += 512, ++br) {
                block.events.push_back({at, trace::TraceBlock::Event::Branch,
                                        s.branches[br].taken,
                                        s.branches[br].pc});
            }
            sink.onBlock(std::move(block));
        }
    };
}

/** Delivers @p s record at a time: odd-length onOps spans with branch
 *  and kernel records between them, so every block is staged. */
Feed
spanFeed(const FanOutStream &s)
{
    return [&s](trace::TraceSink &sink) {
        size_t pos = 0, br = 0, span = 1;
        while (pos < s.ops.size()) {
            const size_t n = std::min(span, s.ops.size() - pos);
            sink.onOps(s.ops.data() + pos, n);
            pos += n;
            span = span % 4099 + 7;  // odd lengths, 1..4105
            if (br < s.branches.size()) {
                sink.onBranch(s.branches[br++]);
            }
            if (span % 5 == 0) {
                sink.onKernel(0x4200);
            }
        }
    };
}

TEST(Simulate, FanOutEqualsOneConfigRuns)
{
    const FanOutStream stream = fanOutStream();
    std::vector<uarch::CoreConfig> configs;
    for (int rob : {64, 192, 384}) {
        uarch::CoreConfig cfg;
        cfg.robSize = rob;
        configs.push_back(cfg);
    }
    for (const auto &[name, feed] :
         {std::pair{"whole blocks", blockFeed(stream)},
          std::pair{"odd onOps spans", spanFeed(stream)}}) {
        SCOPED_TRACE(name);
        const std::vector<uarch::CoreStats> fanned =
            simulate(feed, configs, {});
        ASSERT_EQ(fanned.size(), configs.size());
        for (size_t i = 0; i < configs.size(); ++i) {
            const std::vector<uarch::CoreStats> one =
                simulate(feed, {configs[i]}, {});
            ASSERT_EQ(one.size(), 1u);
            expectSameStats(fanned[i], one.front());
        }
        // The geometries genuinely simulate apart (no sink aliasing),
        // and the smallest ROB is the clear loser.
        EXPECT_NE(fanned[0].cycles, fanned[1].cycles);
        EXPECT_GT(fanned[0].cycles, fanned.back().cycles);
    }
}

TEST(Simulate, SegmentModeTakesOneConfigAndEmptyConfigsSkipTheFeed)
{
    int feeds = 0;
    const Feed counted = [&feeds](trace::TraceSink &) { ++feeds; };
    RunScale scale;
    EXPECT_TRUE(simulate(counted, {}, scale).empty());
    EXPECT_EQ(feeds, 0);
    scale.segments = 4;
    EXPECT_THROW(
        simulate(counted, {uarch::CoreConfig{}, uarch::CoreConfig{}}, scale),
        std::invalid_argument);
    EXPECT_EQ(feeds, 0);
    EXPECT_EQ(simulate(counted, {uarch::CoreConfig{}}, scale).size(), 1u);
    EXPECT_EQ(feeds, 1);
}

TEST(Simulate, DiskReplayMatchesLiveFanOut)
{
    video::Video clip = multiClip();
    auto enc = encoders::encoderByName("SVT-AV1");
    RunScale scale;
    scale.maxTraceOps = 150'000;
    std::vector<uarch::CoreConfig> configs = {
        uarch::CoreConfig{},
        backend::resolveProfile("graviton-like").core};

    // Capture the very trace a live run would stream.
    const std::string path = "/tmp/vepro_test_simulate_replay.vetf";
    {
        encoders::EncodeParams params;
        params.crf = 40;
        params.preset = 6;
        trace::FileSink sink(path);
        enc->encode(clip, params, tracingConfig(scale), false, &sink);
    }

    encoders::EncodeResult encoded;
    std::vector<uarch::CoreStats> live = simulate(
        encodeFeed(*enc, clip, 40, 6, scale, encoded), configs, scale);
    trace::FileSource source(path);
    const Feed replay = [&source](trace::TraceSink &sink) {
        source.replay(sink);
    };
    std::vector<uarch::CoreStats> replayed = simulate(replay, configs, {});
    ASSERT_EQ(replayed.size(), live.size());
    for (size_t i = 0; i < configs.size(); ++i) {
        expectSameStats(replayed[i], live[i]);
    }
    // One config, no mux: the direct StreamCore path agrees too.
    expectSameStats(simulate(replay, {configs[0]}, {}).front(), live[0]);
    std::filesystem::remove(path);
}

} // namespace
} // namespace vepro::core
