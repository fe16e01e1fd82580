#include "codec/sad.hpp"

#include <cstddef>

#include <algorithm>
#include <cstdlib>

#include "codec/kernels.hpp"
#include "trace/probe.hpp"

namespace vepro::codec
{

using trace::OpClass;
using trace::Probe;
using trace::currentProbe;
using trace::sitePc;

namespace
{

/**
 * Report the op stream of a two-operand row-wise vector kernel: per
 * vector-row chunk two loads, @p alu_per_chunk vector ALU ops, and a
 * scalar loop counter update; then the loop back-edges and a short
 * horizontal-reduction tail.
 */
void
probeRowKernel(Probe *p, uint64_t site, const PelView &a, const PelView &b,
               int w, int h, int alu_per_chunk)
{
    // A 256-bit lane covers 32 pixels; narrow blocks still issue one
    // (masked) vector load per operand per row. Row loops are unrolled
    // four deep, as the real AVX2 kernels are.
    int chunks_per_row = std::max(1, w / 32);
    if (h >= 0 && alu_per_chunk >= 0) {
        const uint64_t chunks = static_cast<uint64_t>(h) * chunks_per_row;
        trace::KernelCharge body;
        body.add(OpClass::SimdLoad, 2 * chunks)
            .add(OpClass::SimdAlu,
                 chunks * static_cast<uint64_t>(alu_per_chunk))
            .add(OpClass::Alu, 2 * static_cast<uint64_t>(h / 4) + 2)
            .add(OpClass::BranchCond, static_cast<uint64_t>((h + 7) / 8))
            .add(OpClass::SseAlu, 2);
        if (p->quietKernel(site, 8, body)) {
            return;
        }
    }
    p->enterKernel(site, 8);
    for (int y = 0; y < h; ++y) {
        for (int c = 0; c < chunks_per_row; ++c) {
            p->mem(OpClass::SimdLoad, a.vaddr + static_cast<uint64_t>(y) * a.stride + c * 32);
            p->mem(OpClass::SimdLoad, b.vaddr + static_cast<uint64_t>(y) * b.stride + c * 32);
            p->ops(OpClass::SimdAlu, alu_per_chunk, 1, 2);
        }
        if ((y & 3) == 3) {
            p->ops(OpClass::Alu, 2, 1);  // pointer bumps (unrolled x4)
        }
    }
    p->loopBranches(static_cast<uint64_t>((h + 7) / 8));
    p->ops(OpClass::SseAlu, 2, 1);   // 128-bit horizontal reduction tail
    p->ops(OpClass::Alu, 2, 1);      // extract + move to scalar
}

} // namespace

uint64_t
sad(const PelView &a, const PelView &b, int w, int h)
{
    uint64_t sum = kernels().sad(a.pel, a.stride, b.pel, b.stride, w, h);
    if (Probe *p = currentProbe()) {
        static const uint64_t site = sitePc("codec.sad");
        probeRowKernel(p, site, a, b, w, h, 2);  // psadbw + accumulate
    }
    return sum;
}

uint64_t
sse(const PelView &a, const PelView &b, int w, int h)
{
    uint64_t sum = kernels().sse(a.pel, a.stride, b.pel, b.stride, w, h);
    if (Probe *p = currentProbe()) {
        static const uint64_t site = sitePc("codec.sse");
        probeRowKernel(p, site, a, b, w, h, 4);  // unpack, sub, madd, add
    }
    return sum;
}

uint64_t
satd(const PelView &a, const PelView &b, int w, int h)
{
    int tile = (w >= 8 && h >= 8) ? 8 : 4;
    int tiles_x = w / tile;
    int tiles_y = h / tile;
    if (tiles_x == 0 || tiles_y == 0) {
        // Degenerate blocks (w or h below the smallest tile) have no
        // Hadamard content; fall back to SAD so the returned cost and
        // the charged probe work agree instead of charging phantom
        // tiles against a zero result.
        return sad(a, b, w, h);
    }

    const KernelTable &k = kernels();
    auto tile_fn = tile == 8 ? k.satd8 : k.satd4;
    uint64_t sum = 0;
    for (int ty = 0; ty < tiles_y; ++ty) {
        for (int tx = 0; tx < tiles_x; ++tx) {
            PelView ta = a.sub(tx * tile, ty * tile);
            PelView tb = b.sub(tx * tile, ty * tile);
            uint64_t raw = tile_fn(ta.pel, ta.stride, tb.pel, tb.stride);
            // Normalise roughly to SAD scale.
            sum += (raw + (tile >> 1)) / static_cast<uint64_t>(tile);
        }
    }
    if (Probe *p = currentProbe()) {
        static const uint64_t site = sitePc("codec.satd");
        p->enterKernel(site, 16);
        for (int ty = 0; ty < tiles_y; ++ty) {
            for (int tx = 0; tx < tiles_x; ++tx) {
                // Each tile's rows start at its real 2-D base address;
                // the walk is strided, not a dense linear stream.
                uint64_t off = static_cast<uint64_t>(ty) * tile * a.stride +
                               static_cast<uint64_t>(tx) * tile;
                uint64_t boff = static_cast<uint64_t>(ty) * tile * b.stride +
                                static_cast<uint64_t>(tx) * tile;
                // Load both tiles, difference, two butterfly passes, abs-sum.
                p->memRun(OpClass::SimdLoad, a.vaddr + off, tile, a.stride);
                p->memRun(OpClass::SimdLoad, b.vaddr + boff, tile, b.stride);
                p->ops(OpClass::SimdAlu, static_cast<uint64_t>(tile) * 4, 1, 2);
                p->ops(OpClass::SimdAlu, static_cast<uint64_t>(tile), 1);
                p->ops(OpClass::Alu, 3, 1);
            }
        }
        int tiles = tiles_x * tiles_y;
        p->loopBranches((tiles + 1) / 2);
        p->ops(OpClass::SseAlu, 3, 1);
        p->ops(OpClass::Alu, 2, 1);
    }
    return sum;
}

void
residual(const PelView &a, const PelView &b, int w, int h, int16_t *dst,
         uint64_t dst_vaddr)
{
    kernels().residual(a.pel, a.stride, b.pel, b.stride, w, h, dst);
    if (Probe *p = currentProbe()) {
        static const uint64_t site = sitePc("codec.residual");
        p->enterKernel(site, 8);
        int chunks = std::max(1, w / 16);  // 16 pixels -> one 256-bit i16 store
        for (int y = 0; y < h; ++y) {
            for (int c = 0; c < chunks; ++c) {
                p->mem(OpClass::SimdLoad, a.vaddr + static_cast<uint64_t>(y) * a.stride + c * 16);
                p->mem(OpClass::SimdLoad, b.vaddr + static_cast<uint64_t>(y) * b.stride + c * 16);
                p->ops(OpClass::SimdAlu, 2, 1, 2);  // unpack + sub
                p->mem(OpClass::SimdStore, dst_vaddr + (static_cast<uint64_t>(y) * w + c * 16) * 2, 1);
            }
        }
        p->loopBranches(static_cast<uint64_t>((h + 3) / 4));
    }
}

void
reconstruct(const PelView &pred, const int16_t *res, uint64_t res_vaddr,
            int w, int h, PelViewMut dst)
{
    kernels().reconstruct(pred.pel, pred.stride, res, w, h, dst.pel,
                          dst.stride);
    if (Probe *p = currentProbe()) {
        static const uint64_t site = sitePc("codec.reconstruct");
        p->enterKernel(site, 8);
        int chunks = std::max(1, w / 16);
        for (int y = 0; y < h; ++y) {
            for (int c = 0; c < chunks; ++c) {
                p->mem(OpClass::SimdLoad, pred.vaddr + static_cast<uint64_t>(y) * pred.stride + c * 16);
                p->mem(OpClass::SimdLoad, res_vaddr + (static_cast<uint64_t>(y) * w + c * 16) * 2);
                p->ops(OpClass::SimdAlu, 3, 1, 2);  // widen + add + pack/clamp
                p->mem(OpClass::SimdStore, dst.vaddr + static_cast<uint64_t>(y) * dst.stride + c * 16, 1);
            }
        }
        p->loopBranches(static_cast<uint64_t>((h + 3) / 4));
    }
}

} // namespace vepro::codec
