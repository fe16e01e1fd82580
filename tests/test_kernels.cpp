/**
 * @file
 * Bit-equivalence property suite for the runtime-dispatched SIMD kernel
 * tables (codec/kernels.hpp).
 *
 * Every vector table the build provides (the dispatched table plus the
 * explicit AVX2/NEON tables when compiled in and supported by the host)
 * must produce output bit-identical to the scalar reference for every
 * kernel, across randomised blocks of many widths/heights/strides and
 * full-range transform/quantiser inputs. Any divergence would silently
 * change RD decisions and every reproduced figure, so these tests treat
 * a single differing bit as failure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "codec/kernels.hpp"
#include "codec/mc.hpp"
#include "codec/quant.hpp"
#include "codec/transform.hpp"

namespace vepro::codec
{
namespace
{

/** All non-reference tables available in this build/host. */
std::vector<const KernelTable *>
tablesUnderTest()
{
    std::vector<const KernelTable *> tables{&kernels()};
    if (const KernelTable *t = avx2Kernels()) {
        tables.push_back(t);
    }
    if (const KernelTable *t = neonKernels()) {
        tables.push_back(t);
    }
    return tables;
}

struct Block {
    std::vector<uint8_t> buf;
    int stride = 0;
};

/** Random pixels with a randomised padded stride. */
Block
randomBlock(int w, int h, std::mt19937 &rng)
{
    std::uniform_int_distribution<int> pad(0, 24);
    std::uniform_int_distribution<int> pix(0, 255);
    Block b;
    b.stride = w + pad(rng);
    b.buf.resize(static_cast<size_t>(b.stride) * h);
    for (uint8_t &x : b.buf) {
        x = static_cast<uint8_t>(pix(rng));
    }
    return b;
}

using Geometry = std::tuple<int, int, uint64_t>;  // width, height, seed

class PixelKernels : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(PixelKernels, BitIdenticalToScalar)
{
    auto [w, h, seed] = GetParam();
    std::mt19937 rng(seed * 7919 + w * 64 + h);
    Block a = randomBlock(w, h, rng);
    Block b = randomBlock(w, h, rng);
    std::vector<int16_t> res(static_cast<size_t>(w) * h);
    std::uniform_int_distribution<int> r16(-32768, 32767);
    for (int16_t &x : res) {
        x = static_cast<int16_t>(r16(rng));
    }

    const KernelTable &s = scalarKernels();
    for (const KernelTable *v : tablesUnderTest()) {
        SCOPED_TRACE(std::string("isa=") + v->isa);

        EXPECT_EQ(s.sad(a.buf.data(), a.stride, b.buf.data(), b.stride, w, h),
                  v->sad(a.buf.data(), a.stride, b.buf.data(), b.stride, w, h));
        EXPECT_EQ(s.sse(a.buf.data(), a.stride, b.buf.data(), b.stride, w, h),
                  v->sse(a.buf.data(), a.stride, b.buf.data(), b.stride, w, h));
        if (w >= 4 && h >= 4) {
            EXPECT_EQ(s.satd4(a.buf.data(), a.stride, b.buf.data(), b.stride),
                      v->satd4(a.buf.data(), a.stride, b.buf.data(), b.stride));
        }
        if (w >= 8 && h >= 8) {
            EXPECT_EQ(s.satd8(a.buf.data(), a.stride, b.buf.data(), b.stride),
                      v->satd8(a.buf.data(), a.stride, b.buf.data(), b.stride));
        }

        std::vector<int16_t> res_s(res.size()), res_v(res.size());
        s.residual(a.buf.data(), a.stride, b.buf.data(), b.stride, w, h,
                   res_s.data());
        v->residual(a.buf.data(), a.stride, b.buf.data(), b.stride, w, h,
                    res_v.data());
        EXPECT_EQ(0, std::memcmp(res_s.data(), res_v.data(),
                                 res_s.size() * sizeof(int16_t)));

        std::vector<uint8_t> dst_s(a.buf.size(), 0), dst_v(a.buf.size(), 0);
        s.reconstruct(a.buf.data(), a.stride, res.data(), w, h, dst_s.data(),
                      a.stride);
        v->reconstruct(a.buf.data(), a.stride, res.data(), w, h, dst_v.data(),
                       a.stride);
        EXPECT_EQ(dst_s, dst_v);

        // Scaling kernels (ABR ladder rungs). boxdown: every factor
        // whose boxes fit fully inside the block (partial edge boxes
        // are scalar caller code by contract).
        for (int factor : {1, 2, 3, 4}) {
            if (w < factor || h < factor) {
                continue;
            }
            const int dw = w / factor;
            std::vector<uint8_t> down_s(dw, 0), down_v(dw, 0);
            s.boxdown(a.buf.data(), a.stride, factor, down_s.data(), dw);
            v->boxdown(a.buf.data(), a.stride, factor, down_v.data(), dw);
            EXPECT_EQ(down_s, down_v) << "factor=" << factor;
        }

        // lerpblend: the full 6-bit weight range including both exact
        // endpoints (w6 == 0 must reproduce `a` bit-for-bit).
        for (int w6 : {0, 1, 21, 32, 63, 64}) {
            std::vector<uint8_t> mix_s(w), mix_v(w);
            s.lerpblend(a.buf.data(), b.buf.data(), w6, mix_s.data(), w);
            v->lerpblend(a.buf.data(), b.buf.data(), w6, mix_v.data(), w);
            EXPECT_EQ(mix_s, mix_v) << "w6=" << w6;
            if (w6 == 0) {
                EXPECT_EQ(0, std::memcmp(mix_s.data(), a.buf.data(),
                                         static_cast<size_t>(w)));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PixelKernels,
    ::testing::Combine(::testing::Values(4, 5, 8, 12, 16, 24, 31, 32, 48, 64),
                       ::testing::Values(4, 7, 8, 12, 16, 24, 32, 48, 64),
                       ::testing::Values(1u, 2u, 3u)));

using TxCase = std::tuple<int, uint64_t>;  // transform size, seed

class TransformKernels : public ::testing::TestWithParam<TxCase>
{
};

TEST_P(TransformKernels, FdctIdctBitIdenticalToScalar)
{
    auto [n, seed] = GetParam();
    std::mt19937 rng(seed * 104729 + n);
    const int32_t *basis = dctBasis(n);
    const size_t count = static_cast<size_t>(n) * n;

    std::vector<int16_t> src(count);
    std::uniform_int_distribution<int> r16(-32768, 32767);
    for (int16_t &x : src) {
        x = static_cast<int16_t>(r16(rng));
    }

    const KernelTable &s = scalarKernels();
    for (const KernelTable *v : tablesUnderTest()) {
        SCOPED_TRACE(std::string("isa=") + v->isa);

        std::vector<int32_t> out_s(count), out_v(count);
        s.fdct(src.data(), out_s.data(), n, basis);
        v->fdct(src.data(), out_v.data(), n, basis);
        EXPECT_EQ(out_s, out_v);

        // Inverse on real forward output and on independent random
        // coefficients well past the usual coefficient range.
        std::vector<int32_t> coeff(count);
        std::uniform_int_distribution<int32_t> r22(-(1 << 22), 1 << 22);
        for (int32_t &x : coeff) {
            x = r22(rng);
        }
        for (const std::vector<int32_t> &in : {out_s, coeff}) {
            std::vector<int16_t> pix_s(count), pix_v(count);
            s.idct(in.data(), pix_s.data(), n, basis);
            v->idct(in.data(), pix_v.data(), n, basis);
            EXPECT_EQ(pix_s, pix_v);
        }
    }
}

TEST_P(TransformKernels, QuantDequantBitIdenticalToScalar)
{
    auto [n, seed] = GetParam();
    std::mt19937 rng(seed * 15485863 + n);
    const size_t count = static_cast<size_t>(n) * n;

    std::vector<int32_t> coeff(count);
    std::uniform_int_distribution<int32_t> rc(-(1 << 22), 1 << 22);
    for (int32_t &x : coeff) {
        x = rc(rng);
    }
    // Sprinkle exact zeros: the dead-zone sign select must treat them
    // identically in both paths.
    for (size_t i = 0; i < count; i += 5) {
        coeff[i] = 0;
    }

    const KernelTable &s = scalarKernels();
    for (int q_index : {0, 17, 30, 51, 63}) {
        // Same step curve the Quantizer uses.
        double t = static_cast<double>(q_index) / 63.0;
        double step = 0.6 * std::pow(2.0, t * 8.1);
        double inv_step = 1.0 / step;
        double dead_zone = step * 0.4;

        for (const KernelTable *v : tablesUnderTest()) {
            SCOPED_TRACE(std::string("isa=") + v->isa + " q=" +
                         std::to_string(q_index));

            std::vector<int32_t> lv_s(count), lv_v(count);
            int nz_s = s.quant(coeff.data(), lv_s.data(),
                               static_cast<int>(count), dead_zone, inv_step);
            int nz_v = v->quant(coeff.data(), lv_v.data(),
                                static_cast<int>(count), dead_zone, inv_step);
            EXPECT_EQ(nz_s, nz_v);
            EXPECT_EQ(lv_s, lv_v);

            std::vector<int32_t> dq_s(count), dq_v(count);
            s.dequant(lv_s.data(), dq_s.data(), static_cast<int>(count), step);
            v->dequant(lv_s.data(), dq_v.data(), static_cast<int>(count),
                       step);
            EXPECT_EQ(dq_s, dq_v);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, TransformKernels,
                         ::testing::Combine(::testing::Values(4, 8, 16, 32),
                                            ::testing::Values(1u, 2u, 3u)));

using McCase = std::tuple<int, int, uint64_t>;  // width, height, seed

class McKernels : public ::testing::TestWithParam<McCase>
{
};

TEST_P(McKernels, BitIdenticalToScalarAtEveryPhase)
{
    // Both filters, all three half-pel phases, against the scalar table. The
    // source carries the filter margin (one pel before, two after, on
    // both axes) and a padded stride; extreme pels drive the sharp
    // filter's clamp from both sides.
    auto [w, h, seed] = GetParam();
    std::mt19937 rng(seed * 104729 + w * 64 + h);
    std::uniform_int_distribution<int> pix(0, 255);
    std::uniform_int_distribution<int> coin(0, 3);
    const int stride = w + 3 + static_cast<int>(rng() % 13);
    std::vector<uint8_t> src(static_cast<size_t>(stride) * (h + 3));
    for (uint8_t &x : src) {
        const int c = coin(rng);
        x = static_cast<uint8_t>(c == 0 ? 0 : c == 1 ? 255 : pix(rng));
    }
    const uint8_t *origin = src.data() + stride + 1;
    const int dst_stride = w + 5;
    const size_t dst_size = static_cast<size_t>(dst_stride) * h;
    const KernelTable &scalar = scalarKernels();
    for (const KernelTable *t : tablesUnderTest()) {
        SCOPED_TRACE(std::string("isa=") + t->isa);
        for (int phase = 1; phase < 4; ++phase) {
            const int hx = phase & 1;
            const int hy = phase >> 1;
            SCOPED_TRACE("half_x=" + std::to_string(hx) +
                         " half_y=" + std::to_string(hy));
            for (auto fn : {&KernelTable::mcBilinear, &KernelTable::mcSharp}) {
                // Guard bytes beyond each row must survive untouched.
                std::vector<uint8_t> want(dst_size, 0xA5), got(dst_size, 0xA5);
                (scalar.*fn)(origin, stride, w, h, hx, hy, want.data(),
                             dst_stride);
                (t->*fn)(origin, stride, w, h, hx, hy, got.data(),
                         dst_stride);
                EXPECT_EQ(want, got)
                    << (fn == &KernelTable::mcSharp ? "sharp" : "bilinear");
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    BlockSizes, McKernels,
    ::testing::Combine(::testing::Values(4, 5, 8, 12, 16, 24, 31, 32, 48, 64),
                       ::testing::Values(4, 7, 8, 16, 32, 64),
                       ::testing::Values(1u, 2u)));

/** Per-pel 4-tap filter with every tap clamped into the plane. */
uint8_t
clampedTap(const video::Plane &p, int x0, int y0, int dx, int dy)
{
    auto at = [&](int x, int y) {
        return static_cast<int>(p.at(std::clamp(x, 0, p.width() - 1),
                                     std::clamp(y, 0, p.height() - 1)));
    };
    int v = (-at(x0 - dx, y0 - dy) + 5 * at(x0, y0) + 5 * at(x0 + dx, y0 + dy) -
             at(x0 + 2 * dx, y0 + 2 * dy) + 4) >>
            3;
    return static_cast<uint8_t>(std::clamp(v, 0, 255));
}

TEST(McEdges, MotionCompensateMatchesTheClampedReference)
{
    // Every block position of a small plane, vectors pointing past all
    // four borders: interior blocks take the kernel table, edge blocks
    // the clamped fallback, and both must equal the per-pel reference.
    constexpr int kW = 40, kH = 36;
    video::Plane ref(kW, kH, 7);
    std::mt19937 rng(5);
    for (int y = 0; y < kH; ++y) {
        for (int x = 0; x < kW; ++x) {
            ref.row(y)[x] = static_cast<uint8_t>(rng());
        }
    }
    const PelView view = viewOf(ref, 0);
    int edge_blocks = 0;
    for (int bs : {4, 8, 16}) {
        for (int by = 0; by + bs <= kH; by += 4) {
            for (int bx = 0; bx + bs <= kW; bx += 4) {
                for (MotionVector mv : {MotionVector{-9, -7}, {1, 0}, {0, 1},
                                        {1, 1}, {7, 9}, {-1, 3}, {5, -1}}) {
                    MotionVector c = clampMv(mv, bx, by, bs, bs, kW, kH);
                    const int fx = bx + (c.x >> 1), fy = by + (c.y >> 1);
                    const bool hx = c.x & 1, hy = c.y & 1;
                    edge_blocks += fx < 1 || fy < 1 || fx + bs + 2 > kW ||
                                   fy + bs + 2 > kH;
                    for (bool sharp : {false, true}) {
                        uint8_t out[16 * 16];
                        motionCompensate(view, kW, kH, bx, by, bs, bs, mv,
                                         {out, bs, 0}, sharp);
                        for (int y = 0; y < bs; ++y) {
                            for (int x = 0; x < bs; ++x) {
                                const int px = fx + x, py = fy + y;
                                int want;
                                if (!hx && !hy) {
                                    want = ref.at(px, py);
                                } else if (!sharp) {
                                    want = (ref.at(px, py) +
                                            ref.at(px + hx, py) +
                                            ref.at(px, py + hy) +
                                            ref.at(px + hx, py + hy) + 2) >>
                                           2;
                                } else if (hx && hy) {
                                    want = (clampedTap(ref, px, py, 1, 0) +
                                            clampedTap(ref, px, py + 1, 1, 0) +
                                            1) >>
                                           1;
                                } else {
                                    want = clampedTap(ref, px, py, hx, hy);
                                }
                                ASSERT_EQ(out[y * bs + x], want)
                                    << "block " << bs << " at (" << bx << ","
                                    << by << ") mv (" << mv.x << "," << mv.y
                                    << ") sharp=" << sharp << " pel (" << x
                                    << "," << y << ")";
                            }
                        }
                    }
                }
            }
        }
    }
    EXPECT_GT(edge_blocks, 100) << "the sweep must reach the plane edges";
}

TEST(KernelDispatch, ResolvesToKnownIsa)
{
    std::string isa = kernelIsaName();
    EXPECT_TRUE(isa == "scalar" || isa == "avx2" || isa == "neon") << isa;
    // When the override is active (e.g. the forced-scalar CI leg runs
    // this binary with VEPRO_FORCE_SCALAR=1), dispatch must honour it.
    if (const char *force = std::getenv("VEPRO_FORCE_SCALAR");
        force != nullptr && force[0] == '1') {
        EXPECT_EQ(isa, "scalar");
    }
}

TEST(KernelDispatch, AllEntriesPopulated)
{
    for (const KernelTable *t : tablesUnderTest()) {
        SCOPED_TRACE(std::string("isa=") + t->isa);
        EXPECT_NE(t->sad, nullptr);
        EXPECT_NE(t->sse, nullptr);
        EXPECT_NE(t->satd4, nullptr);
        EXPECT_NE(t->satd8, nullptr);
        EXPECT_NE(t->residual, nullptr);
        EXPECT_NE(t->reconstruct, nullptr);
        EXPECT_NE(t->fdct, nullptr);
        EXPECT_NE(t->idct, nullptr);
        EXPECT_NE(t->quant, nullptr);
        EXPECT_NE(t->dequant, nullptr);
        EXPECT_NE(t->boxdown, nullptr);
        EXPECT_NE(t->lerpblend, nullptr);
        EXPECT_NE(t->mcBilinear, nullptr);
        EXPECT_NE(t->mcSharp, nullptr);
    }
}

} // namespace
} // namespace vepro::codec
