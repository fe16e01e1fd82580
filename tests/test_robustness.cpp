/**
 * @file
 * Robustness and boundary tests: corrupted bitstreams must never crash
 * the decoder, encoders must behave at the extremes of their parameter
 * envelopes, and the simulators must stay numerically sane on degenerate
 * inputs.
 */

#include <gtest/gtest.h>

#include <random>

#include "codec/decoder.hpp"
#include "codec/rdo.hpp"
#include "encoders/registry.hpp"
#include "uarch/core.hpp"
#include "video/generator.hpp"
#include "video/metrics.hpp"

namespace vepro
{
namespace
{

video::Video
clip(int w = 64, int h = 48, int frames = 2)
{
    video::GeneratorParams p;
    p.width = w;
    p.height = h;
    p.frames = frames;
    p.entropy = 4.5;
    p.seed = 321;
    return video::generate("rob", p);
}

codec::ToolConfig
decConfig()
{
    codec::ToolConfig cfg;
    cfg.superblockSize = 32;
    cfg.partitionMask = codec::kPartitionsRect;
    cfg.intraModes = 6;
    cfg.me.range = 6;
    codec::applyQuality(cfg, 30, 63);
    return cfg;
}

/** Mutating any byte of a valid payload must not crash the decoder. */
class DecoderFuzz : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(DecoderFuzz, SingleByteCorruptionNeverCrashes)
{
    codec::ToolConfig cfg = decConfig();
    video::Video v = clip();
    codec::FrameCodec enc(cfg, v.width(), v.height(), nullptr);
    enc.encodeFrame(v.frame(0), true);
    std::vector<uint8_t> payload = enc.lastFrameBytes();
    ASSERT_GT(payload.size(), 16u);

    std::mt19937 rng(GetParam());
    for (int trial = 0; trial < 40; ++trial) {
        std::vector<uint8_t> corrupt = payload;
        size_t pos = rng() % corrupt.size();
        corrupt[pos] ^= static_cast<uint8_t>(1u << (rng() % 8));
        codec::FrameDecoder dec(cfg, v.width(), v.height());
        try {
            dec.decodeFrame(corrupt, true);
            // A silent mis-decode is acceptable; a crash is not.
        } catch (const std::runtime_error &) {
            // Clean rejection is the preferred outcome.
        }
    }
    SUCCEED();
}

TEST_P(DecoderFuzz, TruncationNeverCrashes)
{
    codec::ToolConfig cfg = decConfig();
    video::Video v = clip();
    codec::FrameCodec enc(cfg, v.width(), v.height(), nullptr);
    enc.encodeFrame(v.frame(0), true);
    std::vector<uint8_t> payload = enc.lastFrameBytes();

    std::mt19937 rng(GetParam() + 500);
    for (int trial = 0; trial < 20; ++trial) {
        size_t keep = rng() % payload.size();
        std::vector<uint8_t> truncated(payload.begin(),
                                       payload.begin() +
                                           static_cast<ptrdiff_t>(keep));
        codec::FrameDecoder dec(cfg, v.width(), v.height());
        try {
            dec.decodeFrame(truncated, true);
        } catch (const std::runtime_error &) {
        }
    }
    SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz, ::testing::Values(1u, 2u, 3u));

/** Extreme parameter corners for every encoder model. */
class EncoderExtremes : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EncoderExtremes, ParameterCornersEncodeSanely)
{
    auto enc = encoders::encoderByName(GetParam());
    video::Video v = clip();
    for (int crf : {0, enc->crfRange()}) {
        for (int preset : {0, enc->presetRange()}) {
            // The slowest preset at CRF 0 explodes combinatorially; keep
            // the extreme-quality corner on the fast preset.
            bool slowest = enc->presetInverted() ? preset == enc->presetRange()
                                                 : preset == 0;
            if (crf == 0 && slowest) {
                continue;
            }
            encoders::EncodeParams p;
            p.crf = crf;
            p.preset = preset;
            encoders::EncodeResult r = enc->encode(v, p);
            EXPECT_GT(r.stats.bits, 0u)
                << GetParam() << " crf=" << crf << " preset=" << preset;
            EXPECT_GT(r.psnrDb, 15.0);
            EXPECT_LE(r.psnrDb, 99.0);
            EXPECT_GT(r.instructions, 1000u);
        }
    }
}

TEST_P(EncoderExtremes, OutOfRangeParametersAreClamped)
{
    auto enc = encoders::encoderByName(GetParam());
    video::Video v = clip();
    encoders::EncodeParams wild;
    wild.crf = 9999;
    wild.preset = -5;
    encoders::EncodeResult r = enc->encode(v, wild);
    EXPECT_GT(r.stats.bits, 0u) << "clamping must keep the encode valid";
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, EncoderExtremes,
                         ::testing::Values("SVT-AV1", "Libaom", "Libvpx-vp9",
                                           "x264", "x265"));

/** Simulate a whole trace on a fresh core. */
uarch::CoreStats
runTrace(const std::vector<trace::TraceOp> &trace,
         const uarch::CoreConfig &cfg = {})
{
    uarch::StreamCore core(cfg);
    core.onOps(trace.data(), trace.size());
    core.flush();
    return core.stats();
}

TEST(CoreRobustness, ForeignOnlyTraceTerminates)
{
    std::vector<trace::TraceOp> trace(
        500, trace::TraceOp{0x400000, 0x1000, trace::OpClass::Store, false,
                            0, 0, true});
    uarch::CoreStats s = runTrace(trace);
    EXPECT_EQ(s.instructions, 0u);
}

TEST(CoreRobustness, DepDistancesBeyondWindowAreSafe)
{
    std::vector<trace::TraceOp> trace;
    for (int i = 0; i < 5000; ++i) {
        trace.push_back({0x400000, 0, trace::OpClass::Alu, false, 255, 255,
                         false});
    }
    uarch::CoreStats s = runTrace(trace);
    EXPECT_EQ(s.instructions, 5000u);
    EXPECT_GT(s.ipc(), 0.1);
}

TEST(CoreRobustness, SingleInstructionTrace)
{
    std::vector<trace::TraceOp> trace = {
        {0x400000, 0x2000, trace::OpClass::Load, false, 0, 0, false}};
    uarch::CoreStats s = runTrace(trace);
    EXPECT_EQ(s.instructions, 1u);
    EXPECT_GT(s.cycles, 0u);
}

TEST(CoreRobustness, TinyCoreConfigStillRetiresEverything)
{
    uarch::CoreConfig cfg;
    cfg.width = 1;
    cfg.robSize = 4;
    cfg.rsSize = 2;
    cfg.loadBufSize = 2;
    cfg.storeBufSize = 1;
    cfg.aluPorts = 1;
    cfg.simdPorts = 1;
    cfg.loadPorts = 1;
    cfg.storePorts = 1;
    cfg.branchPorts = 1;
    cfg.mulPorts = 1;
    std::vector<trace::TraceOp> trace;
    video::Rng rng(3);
    for (int i = 0; i < 3000; ++i) {
        auto cls = static_cast<trace::OpClass>(rng.nextBelow(
            static_cast<uint32_t>(trace::OpClass::Count)));
        trace.push_back({0x400000 + (i % 64) * 4ull,
                         trace::isMemory(cls) ? 0x9000 + i * 8ull : 0, cls,
                         (rng.next() & 1) != 0, 0, 0, false});
    }
    uarch::CoreStats s = runTrace(trace, cfg);
    EXPECT_EQ(s.instructions, 3000u);
    EXPECT_EQ(s.slots.total(), s.cycles * 1);
}

TEST(GeneratorRobustness, ExtremeEntropyValuesClamp)
{
    video::GeneratorParams p;
    p.width = 32;
    p.height = 32;
    p.frames = 1;
    p.entropy = -5.0;
    EXPECT_EQ(video::generate("lo", p).frameCount(), 1);
    p.entropy = 100.0;
    EXPECT_EQ(video::generate("hi", p).frameCount(), 1);
}

TEST(FrameBytesRobustness, PayloadsConcatenateToTheStream)
{
    codec::ToolConfig cfg = decConfig();
    video::Video v = clip(64, 48, 3);
    codec::FrameCodec enc(cfg, v.width(), v.height(), nullptr);
    size_t total = 0;
    for (int f = 0; f < v.frameCount(); ++f) {
        enc.encodeFrame(v.frame(f), f == 0);
        total += enc.lastFrameBytes().size();
    }
    EXPECT_EQ(total, enc.streamBytes())
        << "per-frame payloads must tile the whole stream";
}

} // namespace
} // namespace vepro
