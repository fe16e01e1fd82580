/**
 * @file
 * Property-based sweeps across modules: invariants that must hold for
 * whole parameter families (sizes, seeds, encoders), exercised via
 * parameterised gtest suites.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <set>

#include "codec/mc.hpp"
#include "codec/quant.hpp"
#include "codec/rangecoder.hpp"
#include "codec/transform.hpp"
#include "encoders/registry.hpp"
#include "sched/scheduler.hpp"
#include "video/generator.hpp"
#include "video/metrics.hpp"

namespace vepro
{
namespace
{

// ---------------------------------------------------------------- zigzag

class ZigzagProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(ZigzagProperty, IsAPermutationStartingAtDc)
{
    const int n = GetParam();
    const auto &scan = codec::zigzagScan(n);
    ASSERT_EQ(scan.size(), static_cast<size_t>(n) * n);
    EXPECT_EQ(scan[0], 0) << "scan starts at DC";
    std::set<int> seen(scan.begin(), scan.end());
    EXPECT_EQ(seen.size(), scan.size()) << "every index exactly once";
    EXPECT_EQ(*seen.begin(), 0);
    EXPECT_EQ(*seen.rbegin(), n * n - 1);
}

TEST_P(ZigzagProperty, VisitsAntiDiagonalsInOrder)
{
    const int n = GetParam();
    const auto &scan = codec::zigzagScan(n);
    int prev_diag = 0;
    for (int idx : scan) {
        int diag = idx / n + idx % n;
        EXPECT_GE(diag, prev_diag - 0) << "diagonal index never decreases";
        EXPECT_LE(diag - prev_diag, 1) << "and advances one at a time";
        prev_diag = std::max(prev_diag, diag);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ZigzagProperty,
                         ::testing::Values(4, 8, 16, 32));

// ----------------------------------------------------------- range coder

class RangeCoderProperty : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(RangeCoderProperty, MixedStreamRoundTrips)
{
    std::mt19937 rng(GetParam());
    codec::Bitstream stream;
    codec::RangeEncoder enc(stream);
    std::vector<codec::BinContext> ctx(8);

    struct Event {
        int kind;       // 0 = ctx bit, 1 = bypass, 2 = golomb
        uint32_t value;
        int ctx_index;
    };
    std::vector<Event> events;
    for (int i = 0; i < 3000; ++i) {
        Event e;
        e.kind = static_cast<int>(rng() % 3);
        e.ctx_index = static_cast<int>(rng() % 8);
        switch (e.kind) {
          case 0:
            e.value = (rng() % 100) < 30;
            enc.encodeBit(ctx[static_cast<size_t>(e.ctx_index)],
                          e.value != 0,
                          static_cast<uint32_t>(e.ctx_index));
            break;
          case 1:
            e.value = rng() & 1;
            enc.encodeBypass(e.value != 0);
            break;
          default:
            e.value = rng() % 2000;
            enc.encodeUeGolomb(e.value);
            break;
        }
        events.push_back(e);
    }
    enc.finish();

    std::vector<codec::BinContext> dctx(8);
    codec::RangeDecoder dec(stream.bytes());
    for (const Event &e : events) {
        switch (e.kind) {
          case 0:
            ASSERT_EQ(dec.decodeBit(dctx[static_cast<size_t>(e.ctx_index)]),
                      e.value != 0);
            break;
          case 1:
            ASSERT_EQ(dec.decodeBypass(), e.value != 0);
            break;
          default:
            ASSERT_EQ(dec.decodeUeGolomb(), e.value);
            break;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RangeCoderProperty,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

// -------------------------------------------------------------- transform

class TransformProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(TransformProperty, ImpulseRoundTrips)
{
    const int n = GetParam();
    for (int pos : {0, 1, n - 1, n, n * n - 1}) {
        std::vector<int16_t> src(static_cast<size_t>(n) * n, 0), back(src);
        std::vector<int32_t> coeff(static_cast<size_t>(n) * n);
        src[static_cast<size_t>(pos)] = 200;
        codec::forwardDct(src.data(), coeff.data(), n, 0, 0);
        codec::inverseDct(coeff.data(), back.data(), n, 0, 0);
        for (int i = 0; i < n * n; ++i) {
            EXPECT_NEAR(src[i], back[i], 2) << "impulse at " << pos;
        }
    }
}

TEST_P(TransformProperty, ApproximatelyLinear)
{
    const int n = GetParam();
    std::mt19937 rng(static_cast<uint32_t>(n));
    std::uniform_int_distribution<int> dist(-120, 120);
    std::vector<int16_t> a(static_cast<size_t>(n) * n),
        b(static_cast<size_t>(n) * n), sum(static_cast<size_t>(n) * n);
    for (int i = 0; i < n * n; ++i) {
        a[static_cast<size_t>(i)] = static_cast<int16_t>(dist(rng));
        b[static_cast<size_t>(i)] = static_cast<int16_t>(dist(rng));
        sum[static_cast<size_t>(i)] =
            static_cast<int16_t>(a[static_cast<size_t>(i)] +
                                 b[static_cast<size_t>(i)]);
    }
    std::vector<int32_t> fa(static_cast<size_t>(n) * n),
        fb(static_cast<size_t>(n) * n), fs(static_cast<size_t>(n) * n);
    codec::forwardDct(a.data(), fa.data(), n, 0, 0);
    codec::forwardDct(b.data(), fb.data(), n, 0, 0);
    codec::forwardDct(sum.data(), fs.data(), n, 0, 0);
    for (int i = 0; i < n * n; ++i) {
        EXPECT_NEAR(fs[static_cast<size_t>(i)],
                    fa[static_cast<size_t>(i)] + fb[static_cast<size_t>(i)],
                    3);
    }
}

TEST_P(TransformProperty, PreservesEnergyApproximately)
{
    // The orthonormal DCT must keep total energy (Parseval) up to
    // fixed-point rounding.
    const int n = GetParam();
    std::mt19937 rng(static_cast<uint32_t>(n) + 7);
    std::uniform_int_distribution<int> dist(-200, 200);
    std::vector<int16_t> src(static_cast<size_t>(n) * n);
    for (auto &v : src) {
        v = static_cast<int16_t>(dist(rng));
    }
    std::vector<int32_t> coeff(static_cast<size_t>(n) * n);
    codec::forwardDct(src.data(), coeff.data(), n, 0, 0);
    double e_src = 0, e_coef = 0;
    for (int i = 0; i < n * n; ++i) {
        e_src += static_cast<double>(src[static_cast<size_t>(i)]) *
                 src[static_cast<size_t>(i)];
        e_coef += static_cast<double>(coeff[static_cast<size_t>(i)]) *
                  coeff[static_cast<size_t>(i)];
    }
    EXPECT_NEAR(e_coef / e_src, 1.0, 0.02);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TransformProperty,
                         ::testing::Values(4, 8, 16, 32));

// -------------------------------------------------------------- quantiser

class QuantizerProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(QuantizerProperty, MonotoneAndSignPreserving)
{
    codec::Quantizer quant(GetParam(), 63);
    int32_t prev_level = std::numeric_limits<int32_t>::min();
    for (int c = -2000; c <= 2000; c += 37) {
        int32_t level = quant.quantize(c);
        EXPECT_GE(level, prev_level) << "quantisation must be monotone";
        prev_level = level;
        if (level != 0) {
            EXPECT_EQ(level > 0, c > 0) << "sign preserved";
        }
        EXPECT_EQ(quant.dequantize(0), 0);
    }
}

TEST_P(QuantizerProperty, DeadZoneIsSymmetric)
{
    codec::Quantizer quant(GetParam(), 63);
    for (int c = 0; c <= 3000; c += 11) {
        EXPECT_EQ(quant.quantize(c), -quant.quantize(-c));
    }
}

INSTANTIATE_TEST_SUITE_P(QIndices, QuantizerProperty,
                         ::testing::Values(5, 20, 35, 50, 63));

// ------------------------------------------------------ motion estimation

class McProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(McProperty, ClampIsIdempotentAndInBounds)
{
    std::mt19937 rng(static_cast<uint32_t>(GetParam()));
    for (int trial = 0; trial < 200; ++trial) {
        int bx = static_cast<int>(rng() % 48);
        int by = static_cast<int>(rng() % 48);
        codec::MotionVector mv{static_cast<int>(rng() % 400) - 200,
                               static_cast<int>(rng() % 400) - 200};
        auto c = codec::clampMv(mv, bx, by, 16, 16, 64, 64);
        auto cc = codec::clampMv(c, bx, by, 16, 16, 64, 64);
        EXPECT_EQ(c, cc) << "clamping twice changes nothing";
        EXPECT_GE(bx + (c.x >> 1), 0);
        EXPECT_GE(by + (c.y >> 1), 0);
        EXPECT_LE(bx + (c.x >> 1) + 17, 64);
        EXPECT_LE(by + (c.y >> 1) + 17, 64);
    }
}

TEST_P(McProperty, SharpAndBilinearAgreeAtFullPel)
{
    video::Plane ref(64, 64);
    video::Rng rng(static_cast<uint64_t>(GetParam()));
    for (int y = 0; y < 64; ++y) {
        for (int x = 0; x < 64; ++x) {
            ref.set(x, y, static_cast<uint8_t>(rng.nextBelow(256)));
        }
    }
    video::Plane a(16, 16), b(16, 16);
    codec::MotionVector mv{6, -4};  // full-pel (even half-pel units)
    codec::HalfPelPlanes bilinear, sharp;
    bilinear.build(codec::viewOf(ref, 0), 64, 64, false);
    sharp.build(codec::viewOf(ref, 0), 64, 64, true);
    codec::motionCompensate(codec::viewOf(ref, 0), bilinear, 24, 24, 16, 16,
                            mv, codec::viewOf(a, 0));
    codec::motionCompensate(codec::viewOf(ref, 0), sharp, 24, 24, 16, 16,
                            mv, codec::viewOf(b, 0));
    EXPECT_DOUBLE_EQ(video::mse(a, b), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, McProperty, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------- encoder

class EncoderProperty : public ::testing::TestWithParam<std::string>
{
  protected:
    static video::Video
    clip()
    {
        video::GeneratorParams p;
        p.width = 64;
        p.height = 48;
        p.frames = 2;
        p.entropy = 4.0;
        p.seed = 99;
        return video::generate("prop", p);
    }
};

TEST_P(EncoderProperty, DeterministicAcrossRuns)
{
    auto enc = encoders::encoderByName(GetParam());
    encoders::EncodeParams p;
    p.crf = enc->crfRange() / 2;
    p.preset = enc->presetInverted() ? 3 : 5;
    video::Video v = clip();
    auto a = enc->encode(v, p);
    auto b = enc->encode(v, p);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.stats.bits, b.stats.bits);
    EXPECT_DOUBLE_EQ(a.psnrDb, b.psnrDb);
    EXPECT_DOUBLE_EQ(a.bitrateKbps, b.bitrateKbps);
}

TEST_P(EncoderProperty, BitsFallAsCrfRises)
{
    auto enc = encoders::encoderByName(GetParam());
    video::Video v = clip();
    uint64_t prev_bits = std::numeric_limits<uint64_t>::max();
    for (int frac : {1, 3, 5}) {  // CRF at 1/8, 3/8, 5/8 of the range
        encoders::EncodeParams p;
        p.crf = enc->crfRange() * frac / 8;
        p.preset = enc->presetInverted() ? 3 : 5;
        auto r = enc->encode(v, p);
        EXPECT_LT(r.stats.bits, prev_bits)
            << GetParam() << " at CRF " << p.crf;
        prev_bits = r.stats.bits;
    }
}

TEST_P(EncoderProperty, SlowestPresetOutworksFastest)
{
    auto enc = encoders::encoderByName(GetParam());
    video::Video v = clip();
    encoders::EncodeParams slow;
    slow.crf = enc->crfRange() / 2;
    slow.preset = enc->presetInverted() ? enc->presetRange() : 0;
    encoders::EncodeParams fast = slow;
    fast.preset = enc->presetInverted() ? 0 : enc->presetRange();
    auto rs = enc->encode(v, slow);
    auto rf = enc->encode(v, fast);
    EXPECT_GT(rs.instructions, rf.instructions * 2)
        << GetParam() << ": the slowest preset must work much harder";
    EXPECT_GE(rs.psnrDb + 0.75, rf.psnrDb)
        << "and should not be clearly worse in quality";
}

INSTANTIATE_TEST_SUITE_P(AllEncoders, EncoderProperty,
                         ::testing::Values("SVT-AV1", "Libaom", "Libvpx-vp9",
                                           "x264", "x265"));

// -------------------------------------------------------------- scheduler

class SchedulerProperty : public ::testing::TestWithParam<uint32_t>
{
  protected:
    static sched::TaskGraph
    randomGraph(uint32_t seed)
    {
        std::mt19937 rng(seed);
        sched::TaskGraph g;
        for (int i = 0; i < 120; ++i) {
            sched::Task t;
            t.weight = 1 + rng() % 50;
            int deps = static_cast<int>(rng() % 3);
            for (int d = 0; d < deps && i > 0; ++d) {
                t.deps.push_back(static_cast<int>(rng() % i));
            }
            std::sort(t.deps.begin(), t.deps.end());
            t.deps.erase(std::unique(t.deps.begin(), t.deps.end()),
                         t.deps.end());
            g.addTask(std::move(t));
        }
        return g;
    }
};

TEST_P(SchedulerProperty, MakespanBoundsAndMonotonicity)
{
    sched::TaskGraph g = randomGraph(GetParam());
    uint64_t total = g.totalWeight();
    uint64_t cp = g.criticalPath();
    uint64_t prev = std::numeric_limits<uint64_t>::max();
    for (int n = 1; n <= 12; ++n) {
        sched::ScheduleResult r = sched::schedule(g, n);
        EXPECT_GE(r.makespan, cp) << "never beats the critical path";
        EXPECT_GE(r.makespan, (total + n - 1) / n) << "never beats work/n";
        EXPECT_LE(r.makespan, total) << "never worse than serial";
        EXPECT_LE(r.makespan, prev) << "more cores never hurt";
        EXPECT_LE(r.occupancy, 1.0 + 1e-9);
        prev = r.makespan;
    }
    EXPECT_EQ(sched::schedule(g, 1).makespan, total);
}

TEST_P(SchedulerProperty, GreedyIsWithinTwiceOptimal)
{
    // Graham's bound: list scheduling <= 2 - 1/m of optimal, and optimal
    // >= max(cp, total/m).
    sched::TaskGraph g = randomGraph(GetParam() + 1000);
    for (int n : {2, 4, 8}) {
        sched::ScheduleResult r = sched::schedule(g, n);
        uint64_t lower = std::max(g.criticalPath(),
                                  (g.totalWeight() + n - 1) /
                                      static_cast<uint64_t>(n));
        EXPECT_LE(r.makespan, 2 * lower)
            << "list scheduling must stay within Graham's bound";
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

// ----------------------------------------------------------------- BD-rate

TEST(BdRateProperty, AntisymmetricForScaledCurves)
{
    std::vector<video::RdPoint> base = {
        {800, 31}, {1600, 35}, {3200, 39}, {6400, 43}};
    for (double factor : {0.6, 0.8, 1.25, 1.6}) {
        std::vector<video::RdPoint> scaled;
        for (auto p : base) {
            scaled.push_back({p.bitrateKbps * factor, p.psnrDb});
        }
        double forward = video::bdRate(base, scaled);
        EXPECT_NEAR(forward, (factor - 1.0) * 100.0, 1.0);
        double ratio_back = video::bdRate(scaled, base);
        EXPECT_NEAR((1.0 + forward / 100.0) * (1.0 + ratio_back / 100.0),
                    1.0, 0.02)
            << "bd(a,b) and bd(b,a) must be reciprocal";
    }
}

} // namespace
} // namespace vepro
