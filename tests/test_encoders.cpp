/**
 * @file
 * Unit tests for the five encoder models: registry, parameter envelopes,
 * monotonic preset/CRF behaviour, instrumented encode results, and task
 * graph construction for every threading model.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "encoders/registry.hpp"
#include "video/generator.hpp"
#include "video/metrics.hpp"

namespace vepro::encoders
{
namespace
{

video::Video
tinyClip(int frames = 2, double entropy = 4.0)
{
    video::GeneratorParams p;
    p.width = 64;
    p.height = 48;
    p.frames = frames;
    p.entropy = entropy;
    p.seed = 17;
    return video::generate("tiny", p);
}

TEST(Registry, FiveEncodersInPaperOrder)
{
    auto all = allEncoders();
    ASSERT_EQ(all.size(), 5u);
    std::set<std::string> names;
    for (const auto &e : all) {
        names.insert(e->name());
    }
    EXPECT_TRUE(names.count("SVT-AV1"));
    EXPECT_TRUE(names.count("Libaom"));
    EXPECT_TRUE(names.count("Libvpx-vp9"));
    EXPECT_TRUE(names.count("x264"));
    EXPECT_TRUE(names.count("x265"));
}

TEST(Registry, LookupAndErrors)
{
    EXPECT_EQ(encoderByName("SVT-AV1")->name(), "SVT-AV1");
    EXPECT_THROW(encoderByName("av2"), std::out_of_range);
}

TEST(Registry, ParameterRangesMatchThePaper)
{
    // AV1/VP9 family: CRF 0-63, preset 0-8 (0 slowest). x264/x265:
    // CRF 0-51, preset 0-9 measured in the opposite direction.
    for (const char *name : {"SVT-AV1", "Libaom", "Libvpx-vp9"}) {
        auto e = encoderByName(name);
        EXPECT_EQ(e->crfRange(), 63) << name;
        EXPECT_EQ(e->presetRange(), 8) << name;
        EXPECT_FALSE(e->presetInverted()) << name;
    }
    for (const char *name : {"x264", "x265"}) {
        auto e = encoderByName(name);
        EXPECT_EQ(e->crfRange(), 51) << name;
        EXPECT_EQ(e->presetRange(), 9) << name;
        EXPECT_TRUE(e->presetInverted()) << name;
    }
}

TEST(Registry, ThreadModelsMatchDesign)
{
    EXPECT_EQ(encoderByName("SVT-AV1")->threadModel(),
              ThreadModel::Wavefront);
    EXPECT_EQ(encoderByName("x264")->threadModel(),
              ThreadModel::FrameParallel);
    EXPECT_EQ(encoderByName("Libaom")->threadModel(),
              ThreadModel::TileParallel);
    EXPECT_EQ(encoderByName("x265")->threadModel(),
              ThreadModel::SerialSpine);
}

TEST(ToolConfigs, Av1ModelUsesTheFullPartitionSet)
{
    auto svt = encoderByName("SVT-AV1");
    auto vp9 = encoderByName("Libvpx-vp9");
    EncodeParams p;
    p.preset = 4;
    p.crf = 30;
    EXPECT_EQ(svt->toolConfig(p).partitionMask, codec::kPartitionsAv1);
    EXPECT_EQ(vp9->toolConfig(p).partitionMask, codec::kPartitionsRect);
    EXPECT_GT(svt->toolConfig(p).intraModes, vp9->toolConfig(p).intraModes);
}

TEST(ToolConfigs, X264UsesMacroblocks)
{
    EncodeParams p;
    p.preset = 5;
    p.crf = 23;
    EXPECT_EQ(encoderByName("x264")->toolConfig(p).superblockSize, 16);
    EXPECT_EQ(encoderByName("x265")->toolConfig(p).superblockSize, 64);
}

/** Slower presets must never reduce any search-effort knob. */
class PresetMonotonicity : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PresetMonotonicity, SlowerPresetsSearchHarder)
{
    auto enc = encoderByName(GetParam());
    int slowest = enc->presetInverted() ? enc->presetRange() : 0;
    int fastest = enc->presetInverted() ? 0 : enc->presetRange();
    EncodeParams p;
    p.crf = enc->crfRange() / 2;
    p.preset = slowest;
    codec::ToolConfig slow = enc->toolConfig(p);
    p.preset = fastest;
    codec::ToolConfig fast = enc->toolConfig(p);

    EXPECT_GE(slow.intraModes, fast.intraModes);
    EXPECT_GE(slow.me.range, fast.me.range);
    EXPECT_GE(slow.modePatience, fast.modePatience);
    EXPECT_LE(slow.earlyExitScale, fast.earlyExitScale);
    EXPECT_GE(slow.txSizeCandidates, fast.txSizeCandidates);
    EXPECT_GE(static_cast<int>(slow.fullRd), static_cast<int>(fast.fullRd));
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, PresetMonotonicity,
                         ::testing::Values("SVT-AV1", "Libaom", "Libvpx-vp9",
                                           "x264", "x265"));

TEST(Encode, PopulatesEveryResultField)
{
    auto enc = encoderByName("SVT-AV1");
    EncodeParams p;
    p.crf = 40;
    p.preset = 7;
    EncodeResult r = enc->encode(tinyClip(), p);
    EXPECT_EQ(r.encoder, "SVT-AV1");
    EXPECT_GT(r.instructions, 10000u);
    EXPECT_GT(r.stats.bits, 0u);
    EXPECT_GT(r.bitrateKbps, 0.0);
    EXPECT_GT(r.psnrDb, 20.0);
    EXPECT_LT(r.psnrDb, 60.0);
    EXPECT_GT(r.wallSeconds, 0.0);
    EXPECT_EQ(r.mix.total(), r.instructions);
}

TEST(Encode, RejectsEmptyVideo)
{
    video::Video empty("e", 30);
    auto enc = encoderByName("x264");
    EXPECT_THROW(enc->encode(empty, {}), std::invalid_argument);
}

TEST(Encode, CrfControlsTheRateQualityTradeoff)
{
    auto enc = encoderByName("Libvpx-vp9");
    EncodeParams fine;
    fine.crf = 10;
    fine.preset = 7;
    EncodeParams coarse;
    coarse.crf = 55;
    coarse.preset = 7;
    video::Video clip = tinyClip();
    EncodeResult rf = enc->encode(clip, fine);
    EncodeResult rc = enc->encode(clip, coarse);
    EXPECT_GT(rf.bitrateKbps, rc.bitrateKbps * 1.5);
    EXPECT_GT(rf.psnrDb, rc.psnrDb + 2.0);
    EXPECT_GT(rf.instructions, rc.instructions)
        << "finer quality must do more work";
}

TEST(Encode, Deterministic)
{
    auto enc = encoderByName("x265");
    EncodeParams p;
    p.crf = 30;
    p.preset = 3;
    video::Video clip = tinyClip();
    EncodeResult a = enc->encode(clip, p);
    EncodeResult b = enc->encode(clip, p);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.stats.bits, b.stats.bits);
    EXPECT_DOUBLE_EQ(a.psnrDb, b.psnrDb);
}

TEST(Encode, Av1ModelExecutesMoreInstructions)
{
    // The paper's headline: AV1-class encoders need far more instructions
    // for the same content at comparable quality/speed settings.
    video::GeneratorParams gp;
    gp.width = 160;
    gp.height = 96;
    gp.frames = 3;
    gp.entropy = 4.5;
    gp.seed = 23;
    video::Video clip = video::generate("cmp", gp);
    EncodeParams av1;
    av1.crf = 35;
    av1.preset = 4;
    EncodeParams avc;
    avc.crf = 28;   // comparable quality point on the 0-51 scale
    avc.preset = 5; // mid preset (inverted scale)
    uint64_t svt =
        encoderByName("SVT-AV1")->encode(clip, av1).instructions;
    uint64_t x264 = encoderByName("x264")->encode(clip, avc).instructions;
    EXPECT_GT(svt, x264 * 3) << "SVT-AV1 must be several times x264's work";
}

TEST(Encode, BranchTraceCollection)
{
    auto enc = encoderByName("SVT-AV1");
    EncodeParams p;
    p.crf = 50;
    p.preset = 8;
    trace::ProbeConfig pc;
    pc.collectBranches = true;
    pc.maxBranches = 50'000;
    trace::VectorSink sink;
    enc->encode(tinyClip(), p, pc, false, &sink);
    EXPECT_FALSE(sink.branches().empty());
    EXPECT_LE(sink.branches().size(), 50'000u);
    // Both directions must appear.
    bool taken = false, not_taken = false;
    for (const auto &b : sink.branches()) {
        taken |= b.taken;
        not_taken |= !b.taken;
    }
    EXPECT_TRUE(taken);
    EXPECT_TRUE(not_taken);
}

TEST(Encode, OpTraceRespectsCaps)
{
    auto enc = encoderByName("Libaom");
    EncodeParams p;
    p.crf = 50;
    p.preset = 8;
    trace::ProbeConfig pc;
    pc.collectOps = true;
    pc.maxOps = 10'000;
    pc.opWindow = 1'000;
    pc.opInterval = 5'000;
    trace::VectorSink sink;
    enc->encode(tinyClip(), p, pc, false, &sink);
    EXPECT_FALSE(sink.ops().empty());
    EXPECT_LE(sink.ops().size(), 10'000u);
}

TEST(Encode, CollectingWithoutSinkThrows)
{
    auto enc = encoderByName("x264");
    EncodeParams p;
    trace::ProbeConfig ops;
    ops.collectOps = true;
    EXPECT_THROW(enc->encode(tinyClip(), p, ops), std::invalid_argument);
    trace::ProbeConfig branches;
    branches.collectBranches = true;
    EXPECT_THROW(enc->encode(tinyClip(), p, branches), std::invalid_argument);
    // Mix counters alone need no sink.
    EXPECT_GT(enc->encode(tinyClip(), p).instructions, 0u);
}

class TaskGraphShape : public ::testing::TestWithParam<std::string>
{
};

TEST_P(TaskGraphShape, GraphIsValidAndLinked)
{
    auto enc = encoderByName(GetParam());
    EncodeParams p;
    p.crf = enc->crfRange() * 5 / 8;
    p.preset = enc->presetInverted() ? 2 : 6;
    trace::ProbeConfig pc;
    pc.collectOps = true;
    pc.maxOps = 200'000;
    pc.opWindow = 50'000;
    pc.opInterval = 100'000;
    trace::VectorSink sink;
    EncodeResult r = enc->encode(tinyClip(3), p, pc, true, &sink);

    ASSERT_FALSE(r.taskGraph.empty());
    r.taskGraph.validate();
    uint64_t weight = r.taskGraph.totalWeight();
    EXPECT_GT(weight, r.instructions / 2)
        << "tasks should cover most of the encode's work";
    EXPECT_LE(weight, r.instructions);
    for (const sched::Task &t : r.taskGraph.tasks()) {
        EXPECT_LE(t.opBegin, t.opEnd);
        EXPECT_LE(t.opEnd, sink.ops().size());
        EXPECT_GE(t.weight, 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, TaskGraphShape,
                         ::testing::Values("SVT-AV1", "Libaom", "Libvpx-vp9",
                                           "x264", "x265"));

TEST(TaskGraphKinds, ReflectThreadingModels)
{
    auto encode_with_tasks = [&](const char *name) {
        auto enc = encoderByName(name);
        EncodeParams p;
        p.crf = enc->crfRange() * 3 / 4;
        p.preset = enc->presetInverted() ? 1 : 7;
        return enc->encode(tinyClip(3), p, {}, true);
    };

    auto kinds = [](const EncodeResult &r) {
        std::set<sched::TaskKind> s;
        for (const auto &t : r.taskGraph.tasks()) {
            s.insert(t.kind);
        }
        return s;
    };

    auto svt = kinds(encode_with_tasks("SVT-AV1"));
    EXPECT_TRUE(svt.count(sched::TaskKind::Superblock));
    EXPECT_TRUE(svt.count(sched::TaskKind::Filter));
    EXPECT_FALSE(svt.count(sched::TaskKind::Serial));

    auto x265 = kinds(encode_with_tasks("x265"));
    EXPECT_TRUE(x265.count(sched::TaskKind::Serial));
    EXPECT_TRUE(x265.count(sched::TaskKind::Lookahead));
    EXPECT_FALSE(x265.count(sched::TaskKind::Superblock));

    auto x264 = kinds(encode_with_tasks("x264"));
    EXPECT_TRUE(x264.count(sched::TaskKind::Superblock));
    EXPECT_TRUE(x264.count(sched::TaskKind::Lookahead));
}

TEST(Lookahead, EmitsWorkThroughProbe)
{
    video::Video clip = tinyClip(2);
    trace::Probe probe;
    {
        trace::ProbeScope scope(&probe);
        lookaheadPass(clip.frame(1), clip.frame(0), 0x1000000, 0x2000000);
    }
    uint64_t basic = probe.totalOps();
    EXPECT_GT(basic, 1000u);

    trace::Probe probe2;
    {
        trace::ProbeScope scope(&probe2);
        lookaheadPass(clip.frame(1), clip.frame(0), 0x1000000, 0x2000000,
                      true);
    }
    EXPECT_GT(probe2.totalOps(), basic * 2)
        << "the thorough (x265) lookahead does much more work";
}

/**
 * FNV-1a digest of everything an encode reports through its probe: the
 * instruction mix, the instruction and drop counters, and every recorded
 * op, branch and kernel entry in stream order. Any change to the probe's
 * accounting or to the ops an instrumented kernel emits moves it.
 */
class DigestSink final : public trace::TraceSink
{
  public:
    void
    onOp(const trace::TraceOp &op) override
    {
        mix(0x4f);
        mix(op.pc);
        mix(op.addr);
        mix(static_cast<uint64_t>(op.cls));
        mix(op.taken);
        mix(op.dep1);
        mix(op.dep2);
        mix(op.foreign);
    }

    void
    onBranch(const trace::BranchRecord &branch) override
    {
        mix(0x42);
        mix(branch.pc);
        mix(branch.taken);
    }

    void
    onKernel(uint64_t site) override
    {
        mix(0x4b);
        mix(site);
    }

    void
    mix(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ = (h_ ^ ((v >> (8 * i)) & 0xff)) * 0x100000001b3ULL;
        }
    }

    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/** The three probe regimes the op-stream golden pins per encoder. */
std::vector<trace::ProbeConfig>
opStreamConfigs()
{
    // Sampled: windows, gaps and (after the cap fills) a dropping tail.
    // Branch collection stays off so whole kernels can be charged at once.
    trace::ProbeConfig sampled;
    sampled.collectOps = true;
    sampled.maxOps = 30'000;
    sampled.opWindow = 700;
    sampled.opInterval = 2'900;
    // Mix counters plus a warmed-up, capped branch trace.
    trace::ProbeConfig branches;
    branches.collectBranches = true;
    branches.maxBranches = 40'000;
    branches.branchWarmupOps = 150'000;
    return {sampled, trace::ProbeConfig::streaming(true), branches};
}

uint64_t
opStreamDigest(const std::string &encoder, const trace::ProbeConfig &pc)
{
    auto enc = encoderByName(encoder);
    EncodeParams p;
    p.crf = enc->crfRange() * 5 / 8;
    p.preset = enc->presetInverted() ? 3 : 5;
    DigestSink sink;
    EncodeResult r = enc->encode(tinyClip(3), p, pc, false, &sink);
    for (uint64_t v : r.mix.byClass) {
        sink.mix(v);
    }
    sink.mix(r.instructions);
    sink.mix(r.droppedOps);
    sink.mix(r.droppedBranches);
    return sink.value();
}

TEST(OpStreamGolden, EveryEncoderAndProbeRegime)
{
    // Pinned bit for bit: the probe's fast paths and the SIMD kernels
    // behind the instrumented wrappers must not move a single op.
    const std::vector<std::pair<std::string, std::array<uint64_t, 3>>>
        golden = {
            {"SVT-AV1",
             {14826302393560712283ULL, 6984151547388111713ULL,
              6293238953385624413ULL}},
            {"Libaom",
             {5199587341678136610ULL, 7459511547631393796ULL,
              4407092325262503245ULL}},
            {"Libvpx-vp9",
             {17905292904736126630ULL, 2489947521710888357ULL,
              11366093741906647635ULL}},
            {"x264",
             {624556290366293700ULL, 14412267115686315511ULL,
              5475791773207650196ULL}},
            {"x265",
             {755538599497701008ULL, 10665282208320962490ULL,
              6709927186785088134ULL}},
        };
    const auto configs = opStreamConfigs();
    for (const auto &[name, want] : golden) {
        for (size_t i = 0; i < configs.size(); ++i) {
            EXPECT_EQ(opStreamDigest(name, configs[i]), want[i])
                << name << " probe config " << i;
        }
    }
}

TEST(OpStreamGolden, SampledConfigHitsEveryRegime)
{
    // The sampled config must exercise gaps, windows and the cap.
    for (const char *name :
         {"SVT-AV1", "Libaom", "Libvpx-vp9", "x264", "x265"}) {
        auto enc = encoderByName(name);
        EncodeParams p;
        p.crf = enc->crfRange() * 5 / 8;
        p.preset = enc->presetInverted() ? 3 : 5;
        trace::VectorSink sink;
        EncodeResult r =
            enc->encode(tinyClip(3), p, opStreamConfigs()[0], false, &sink);
        EXPECT_EQ(sink.ops().size(), 30'000u) << name;
        EXPECT_GT(r.droppedOps, 0u) << name;
    }
}

TEST(Slowness, PresetEndpointsMapCorrectly)
{
    // Verified through the tool configs: preset 0 is the slowest for the
    // AV1 family, preset 9 the slowest for x264/x265.
    auto svt = encoderByName("SVT-AV1");
    EncodeParams p;
    p.crf = 30;
    p.preset = 0;
    int modes_slow = svt->toolConfig(p).intraModes;
    p.preset = 8;
    int modes_fast = svt->toolConfig(p).intraModes;
    EXPECT_GT(modes_slow, modes_fast);

    auto x264 = encoderByName("x264");
    p.crf = 23;
    p.preset = 9;
    int x_slow = x264->toolConfig(p).me.range;
    p.preset = 0;
    int x_fast = x264->toolConfig(p).me.range;
    EXPECT_GT(x_slow, x_fast);
}

} // namespace
} // namespace vepro::encoders
