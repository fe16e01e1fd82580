#include "codec/transform.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>
#include <vector>

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

constexpr int kFracBits = 10;  // basis scale = 1024

/** Fixed-point DCT-II basis for one size, plus its transpose. */
struct Basis {
    std::vector<int32_t> fwd;  // [k][n], row-major
    int n = 0;
};

const Basis &
basisFor(int n)
{
    static const auto make = [](int size) {
        Basis b;
        b.n = size;
        b.fwd.resize(static_cast<size_t>(size) * size);
        for (int k = 0; k < size; ++k) {
            double ck = k == 0 ? std::sqrt(1.0 / size) : std::sqrt(2.0 / size);
            for (int i = 0; i < size; ++i) {
                double v = ck * std::cos((2 * i + 1) * k * M_PI / (2.0 * size));
                b.fwd[static_cast<size_t>(k) * size + i] =
                    static_cast<int32_t>(std::lround(v * (1 << kFracBits)));
            }
        }
        return b;
    };
    static const Basis b4 = make(4);
    static const Basis b8 = make(8);
    static const Basis b16 = make(16);
    static const Basis b32 = make(32);
    switch (n) {
      case 4: return b4;
      case 8: return b8;
      case 16: return b16;
      case 32: return b32;
      default: throw std::invalid_argument("transform: unsupported size");
    }
}

/**
 * Report the op stream of an n x n integer transform as the real SIMD
 * implementations execute it: a butterfly network of log2(n) stages per
 * row (not the O(n) inner product the portable C reference uses), so a
 * 2-D pass costs O(n^2 log n) vector ops.
 */
void
probeTransform(Probe *p, uint64_t site, int n, uint64_t src_vaddr,
               uint64_t dst_vaddr, int elem_size_src, int elem_size_dst)
{
    int vec_per_row = std::max(1, n / 8);  // 8 int32 lanes per 256-bit vector
    int stages = 2;
    for (int s = n; s > 2; s >>= 1) {
        ++stages;
    }
    if (n >= 0) {
        const uint64_t rows = 2 * static_cast<uint64_t>(n);  // both passes
        const uint64_t vecs = static_cast<uint64_t>(vec_per_row);
        trace::KernelCharge body;
        body.add(OpClass::SimdLoad, rows * vecs)
            .add(OpClass::SimdStore, rows * vecs)
            .add(OpClass::SimdMul, rows * stages * vecs)
            .add(OpClass::SimdAlu, rows * (stages * 2 * vecs + 2))
            .add(OpClass::Alu, 2 * 2 * static_cast<uint64_t>(n / 4))
            .add(OpClass::BranchCond, 2 * static_cast<uint64_t>((n + 3) / 4));
        if (p->quietKernel(site, 24, body)) {
            return;
        }
    }
    p->enterKernel(site, 24);
    // Two passes (rows then columns).
    for (int pass = 0; pass < 2; ++pass) {
        for (int r = 0; r < n; ++r) {
            p->memRun(OpClass::SimdLoad,
                      src_vaddr + static_cast<uint64_t>(r) * n * elem_size_src,
                      vec_per_row, 32);
            uint8_t lane_dist = static_cast<uint8_t>(
                std::min(3 * vec_per_row, 250));
            for (int s = 0; s < stages; ++s) {
                // Twiddle constants live in registers; each lane depends
                // on the same lane one butterfly stage earlier, so the
                // stage ops of different lanes overlap.
                p->ops(OpClass::SimdMul, vec_per_row, lane_dist, 0);
                p->ops(OpClass::SimdAlu, 2 * vec_per_row, lane_dist, 0);
            }
            p->ops(OpClass::SimdAlu, 2, 1);  // round + shift
            p->memRun(OpClass::SimdStore,
                      dst_vaddr + static_cast<uint64_t>(r) * n * elem_size_dst,
                      vec_per_row, 32, 1);
            if ((r & 3) == 3) {
                p->ops(OpClass::Alu, 2, 1);
            }
        }
        p->loopBranches(static_cast<uint64_t>((n + 3) / 4));
    }
}

} // namespace

bool
isValidTxSize(int n)
{
    return n == 4 || n == 8 || n == 16 || n == 32;
}

void
forwardDct(const int16_t *src, int32_t *dst, int n, uint64_t src_vaddr,
           uint64_t dst_vaddr)
{
    const Basis &b = basisFor(n);
    kernels().fdct(src, dst, n, b.fwd.data());

    if (Probe *p = currentProbe()) {
        static const uint64_t site = sitePc("codec.fdct");
        probeTransform(p, site, n, src_vaddr, dst_vaddr, 2, 4);
    }
}

void
inverseDct(const int32_t *src, int16_t *dst, int n, uint64_t src_vaddr,
           uint64_t dst_vaddr)
{
    const Basis &b = basisFor(n);
    kernels().idct(src, dst, n, b.fwd.data());

    if (Probe *p = currentProbe()) {
        static const uint64_t site = sitePc("codec.idct");
        probeTransform(p, site, n, src_vaddr, dst_vaddr, 4, 2);
    }
}

const int32_t *
dctBasis(int n)
{
    return basisFor(n).fwd.data();
}

} // namespace vepro::codec
