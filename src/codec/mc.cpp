#include "codec/mc.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <stdexcept>
#include <vector>

#include "codec/sad.hpp"
#include "trace/probe.hpp"

namespace vepro::codec
{

using trace::OpClass;
using trace::Probe;
using trace::currentProbe;
using trace::sitePc;

MotionVector
clampMv(MotionVector mv, int bx, int by, int w, int h, int ref_w, int ref_h)
{
    // Keep the full-pel footprint (plus one pixel for half-pel taps)
    // inside the plane.
    int min_x = -bx * 2;
    int max_x = (ref_w - w - 1 - bx) * 2;
    int min_y = -by * 2;
    int max_y = (ref_h - h - 1 - by) * 2;
    mv.x = std::clamp(mv.x, min_x, std::max(min_x, max_x));
    mv.y = std::clamp(mv.y, min_y, std::max(min_y, max_y));
    return mv;
}

namespace
{

/** 4-tap (-1,5,5,-1)/8 interpolation, rounded and clamped to a pel. */
inline uint8_t
tap4(int a, int b, int c, int d)
{
    int v = (-a + 5 * b + 5 * c - d + 4) >> 3;
    return static_cast<uint8_t>(std::clamp(v, 0, 255));
}

/** The modeled AVX2 op stream of one compensated block (codec.mc). */
void
probeMc(Probe *p, const PelView &src, PelViewMut dst, int w, int h,
        bool interp, bool sharp_subpel)
{
    static const uint64_t site = sitePc("codec.mc");
    int chunks = std::max(1, w / 32);
    if (h >= 0) {
        const uint64_t n = static_cast<uint64_t>(h) * chunks;
        const bool sharp = interp && sharp_subpel;
        trace::KernelCharge body;
        body.add(OpClass::SimdLoad,
                 n * (1 + (interp ? 1 : 0) + (sharp ? 1 : 0)))
            .add(OpClass::SimdAlu, n * ((interp ? 4 : 0) + (sharp ? 3 : 0)))
            .add(OpClass::SimdMul, n * (sharp ? 2 : 0))
            .add(OpClass::SimdStore, n)
            .add(OpClass::Alu, 2 * static_cast<uint64_t>(h))
            .add(OpClass::BranchCond, static_cast<uint64_t>(h));
        if (p->quietKernel(site, 10, body)) {
            return;
        }
    }
    p->enterKernel(site, 10);
    for (int y = 0; y < h; ++y) {
        for (int c = 0; c < chunks; ++c) {
            p->mem(OpClass::SimdLoad,
                   src.vaddr + static_cast<uint64_t>(y) * src.stride + c * 32);
            if (interp) {
                p->mem(OpClass::SimdLoad,
                       src.vaddr + static_cast<uint64_t>(y + 1) * src.stride + c * 32);
                p->ops(OpClass::SimdAlu, 4, 1, 2);  // avg taps
                if (sharp_subpel) {
                    // Extra tap loads + multiply-accumulate chain.
                    p->mem(OpClass::SimdLoad,
                           src.vaddr + static_cast<uint64_t>(y + 2) * src.stride + c * 32);
                    p->ops(OpClass::SimdMul, 2, 1, 2);
                    p->ops(OpClass::SimdAlu, 3, 1);
                }
            }
            p->mem(OpClass::SimdStore,
                   dst.vaddr + static_cast<uint64_t>(y) * dst.stride + c * 32, 1);
        }
        p->ops(OpClass::Alu, 2, 1);
    }
    p->loopBranches(h);
}

} // namespace

void
HalfPelPlanes::build(const PelView &ref, int width, int height, bool sharp)
{
    if (width <= 0 || height <= 0) {
        throw std::invalid_argument("HalfPelPlanes: empty plane");
    }
    width_ = width;
    height_ = height;
    sharp_ = sharp;

    // An edge-replicated copy with one pel of margin before and two
    // after on each axis holds every tap of every sample.
    const int pw = width + 3;
    std::vector<uint8_t> pad(static_cast<size_t>(pw) * (height + 3));
    for (int y = -1; y < height + 2; ++y) {
        const bool inside_y = y >= 0 && y < height;
        const uint8_t *src = ref.row(std::clamp(y, 0, height - 1));
        uint8_t *out = pad.data() + static_cast<ptrdiff_t>(y + 1) * pw + 1;
        for (int x = -1; x < width + 2; ++x) {
            const bool inside = inside_y && x >= 0 && x < width;
            out[x] = edge_fault_ && !inside
                         ? 0
                         : src[std::clamp(x, 0, width - 1)];
        }
    }

    const size_t size = static_cast<size_t>(width) * height;
    planes_.resize(3 * size);
    for (int y = 0; y < height; ++y) {
        // r points at pel (0, y); taps reach r[-1 .. w+1] and the rows
        // one above and two below.
        const uint8_t *r = pad.data() + static_cast<ptrdiff_t>(y + 1) * pw + 1;
        const uint8_t *r1 = r + pw;
        uint8_t *hp = planes_.data() + static_cast<size_t>(y) * width;
        uint8_t *vp = hp + size;
        uint8_t *hvp = vp + size;
        if (sharp) {
            const uint8_t *r_up = r - pw;
            const uint8_t *r2 = r1 + pw;
            for (int x = 0; x < width; ++x) {
                const uint8_t h0 = tap4(r[x - 1], r[x], r[x + 1], r[x + 2]);
                const uint8_t h1 =
                    tap4(r1[x - 1], r1[x], r1[x + 1], r1[x + 2]);
                hp[x] = h0;
                vp[x] = tap4(r_up[x], r[x], r1[x], r2[x]);
                hvp[x] = static_cast<uint8_t>((h0 + h1 + 1) >> 1);
            }
        } else {
            // One phase: (2a + 2b + 2) >> 2 == (a + b + 1) >> 1.
            for (int x = 0; x < width; ++x) {
                hp[x] = static_cast<uint8_t>((r[x] + r[x + 1] + 1) >> 1);
                vp[x] = static_cast<uint8_t>((r[x] + r1[x] + 1) >> 1);
                hvp[x] = static_cast<uint8_t>(
                    (r[x] + r[x + 1] + r1[x] + r1[x + 1] + 2) >> 2);
            }
        }
    }
}

const uint8_t *
HalfPelPlanes::phase(bool half_x, bool half_y) const
{
    if (planes_.empty()) {
        throw std::logic_error("HalfPelPlanes: phase planes not built");
    }
    const size_t index = half_x ? (half_y ? 2 : 0) : 1;
    return planes_.data() + index * static_cast<size_t>(width_) * height_;
}

void
RefFramePlanes::build(const video::Frame &ref, int width, int height,
                      bool sharp)
{
    plane[0].build(viewOf(ref.y(), 0), width, height, sharp);
    plane[1].build(viewOf(ref.u(), 0), width / 2, height / 2, sharp);
    plane[2].build(viewOf(ref.v(), 0), width / 2, height / 2, sharp);
}

void
motionCompensate(const PelView &ref, const HalfPelPlanes &planes, int bx,
                 int by, int w, int h, MotionVector mv, PelViewMut dst)
{
    mv = clampMv(mv, bx, by, w, h, planes.width(), planes.height());
    int fx = bx + (mv.x >> 1);
    int fy = by + (mv.y >> 1);
    bool half_x = mv.x & 1;
    bool half_y = mv.y & 1;
    PelView src = ref.sub(fx, fy);

    // clampMv keeps the block inside the plane, so the copy reads the
    // phase plane at the same (fx, fy) origin.
    PelView from = src;
    if (half_x || half_y) {
        from = PelView{planes.phase(half_x, half_y), planes.width(), 0}.sub(
            fx, fy);
    }
    for (int y = 0; y < h; ++y) {
        std::copy(from.row(y), from.row(y) + w, dst.row(y));
    }

    if (Probe *p = currentProbe()) {
        probeMc(p, src, dst, w, h, half_x || half_y, planes.sharp());
    }
}

namespace
{

/** SAD of the block against the reference displaced by full-pel (dx,dy). */
uint64_t
candidateSad(const PelView &src_blk, const PelView &ref, int bx, int by,
             int w, int h, int dx, int dy)
{
    return sad(src_blk, ref.sub(bx + dx, by + dy), w, h);
}

} // namespace

MeResult
motionSearch(const PelView &src_plane, const PelView &ref,
             const HalfPelPlanes &planes, int bx, int by, int w, int h,
             MotionVector pred, const MeConfig &config)
{
    const int ref_w = planes.width();
    const int ref_h = planes.height();
    static const uint64_t cmp_site = sitePc("codec.me.better");
    static const uint64_t exit_site = sitePc("codec.me.early_exit");
    Probe *p = currentProbe();

    PelView src_blk = src_plane.sub(bx, by);
    MeResult result;
    result.mv = clampMv(pred, bx, by, w, h, ref_w, ref_h);

    auto in_window = [&](int dx, int dy) {
        return bx + dx >= 0 && by + dy >= 0 && bx + dx + w + 1 < ref_w &&
               by + dy + h + 1 < ref_h;
    };

    int cx = result.mv.x >> 1;
    int cy = result.mv.y >> 1;
    uint64_t best = candidateSad(src_blk, ref, bx, by, w, h, cx, cy);
    result.candidates = 1;

    const uint64_t early_exit_sad = static_cast<uint64_t>(
        config.earlyExitPerPel * w * h);

    static const uint64_t ctl_site = sitePc("codec.me.ctl");
    auto try_candidate = [&](int dx, int dy) -> bool {
        if (!in_window(dx, dy)) {
            return false;
        }
        uint64_t s = candidateSad(src_blk, ref, bx, by, w, h, dx, dy);
        ++result.candidates;
        bool better = s < best;
        if (p) {
            // MV candidate management: clip, mv-cost table lookup,
            // best-so-far bookkeeping.
            p->mem(OpClass::Load, ctl_site + 0x400 +
                   (static_cast<uint64_t>(std::abs(dx) + std::abs(dy)) * 8) % 1024);
            p->mem(OpClass::Load, ctl_site + 0x900);
            p->ops(OpClass::Alu, 3, 1);
            p->ops(OpClass::Other, 1, 1);
            p->mem(OpClass::Store, ctl_site + 0x900, 1);
            p->decision(cmp_site, better);
        }
        if (better) {
            best = s;
            cx = dx;
            cy = dy;
        }
        return better;
    };

    bool early = false;
    if (config.exhaustive) {
        const int origin_x = cx, origin_y = cy;
        for (int dy = -config.range; dy <= config.range && !early; ++dy) {
            for (int dx = -config.range; dx <= config.range; ++dx) {
                try_candidate(origin_x + dx, origin_y + dy);
            }
            if (p) {
                p->loopBranches(static_cast<uint64_t>(2 * config.range + 1));
            }
            if (early_exit_sad && best < early_exit_sad) {
                early = true;
                if (p) {
                    p->decision(exit_site, true);
                }
            }
        }
    } else {
        // Large-diamond refinement until the centre stays best, then a
        // small diamond, bounded by the search range.
        static constexpr std::array<std::pair<int, int>, 8> large = {{
            {0, -2}, {2, 0}, {0, 2}, {-2, 0}, {1, -1}, {1, 1}, {-1, 1}, {-1, -1},
        }};
        static constexpr std::array<std::pair<int, int>, 4> small = {{
            {0, -1}, {1, 0}, {0, 1}, {-1, 0},
        }};
        int origin_x = cx, origin_y = cy;
        for (int iter = 0; iter < 2 * config.range; ++iter) {
            bool improved = false;
            for (auto [dx, dy] : large) {
                int nx = cx + dx, ny = cy + dy;
                if (std::abs(nx - origin_x) > config.range ||
                    std::abs(ny - origin_y) > config.range) {
                    continue;
                }
                improved |= try_candidate(nx, ny);
            }
            if (p) {
                p->loopBranches(large.size());
            }
            if (early_exit_sad && best < early_exit_sad) {
                early = true;
                if (p) {
                    p->decision(exit_site, true);
                }
                break;
            }
            if (!improved) {
                break;
            }
        }
        if (!early) {
            for (auto [dx, dy] : small) {
                try_candidate(cx + dx, cy + dy);
            }
            if (p) {
                p->loopBranches(small.size());
            }
        }
    }

    result.mv = {cx * 2, cy * 2};
    result.sad = best;

    // Half-pel refinement around the best full-pel vector.
    if (config.subpel && !early) {
        MotionVector best_mv = result.mv;
        for (int dy = -1; dy <= 1; ++dy) {
            for (int dx = -1; dx <= 1; ++dx) {
                if (dx == 0 && dy == 0) {
                    continue;
                }
                MotionVector mv{result.mv.x + dx, result.mv.y + dy};
                mv = clampMv(mv, bx, by, w, h, ref_w, ref_h);
                // Interpolate into a scratch block and measure.
                uint8_t scratch[64 * 64];
                PelViewMut scratch_view{scratch, w,
                                        ref.vaddr + 0x8000000ULL};
                motionCompensate(ref, planes, bx, by, w, h, mv,
                                 scratch_view);
                uint64_t s = sad(src_blk, scratch_view, w, h);
                ++result.candidates;
                bool better = s < result.sad;
                if (p) {
                    p->decision(cmp_site, better);
                }
                if (better) {
                    result.sad = s;
                    best_mv = mv;
                }
            }
        }
        if (p) {
            p->loopBranches(8);
        }
        result.mv = best_mv;
    }
    return result;
}

} // namespace vepro::codec
