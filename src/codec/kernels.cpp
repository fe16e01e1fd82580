#include "codec/kernels.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdlib>

#include "codec/transform.hpp"

#if defined(__aarch64__) && defined(__linux__)
#include <sys/auxv.h>
#ifndef HWCAP_ASIMD
#define HWCAP_ASIMD (1 << 1)
#endif
#endif

namespace vepro::codec
{

namespace
{

// ---------------------------------------------------------------------
// Scalar reference kernels. These are the semantics every vector table
// must reproduce bit for bit; keep them boring and obviously correct.
// ---------------------------------------------------------------------

uint64_t
sadScalar(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
          int w, int h)
{
    uint64_t sum = 0;
    for (int y = 0; y < h; ++y) {
        const uint8_t *ra = a + static_cast<ptrdiff_t>(y) * a_stride;
        const uint8_t *rb = b + static_cast<ptrdiff_t>(y) * b_stride;
        for (int x = 0; x < w; ++x) {
            sum += static_cast<uint64_t>(std::abs(static_cast<int>(ra[x]) -
                                                  static_cast<int>(rb[x])));
        }
    }
    return sum;
}

uint64_t
sseScalar(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
          int w, int h)
{
    uint64_t sum = 0;
    for (int y = 0; y < h; ++y) {
        const uint8_t *ra = a + static_cast<ptrdiff_t>(y) * a_stride;
        const uint8_t *rb = b + static_cast<ptrdiff_t>(y) * b_stride;
        for (int x = 0; x < w; ++x) {
            int d = static_cast<int>(ra[x]) - static_cast<int>(rb[x]);
            sum += static_cast<uint64_t>(d) * static_cast<uint64_t>(d);
        }
    }
    return sum;
}

/** In-place length-n Hadamard butterfly on int32 data. */
void
hadamard1d(int32_t *v, int n, int stride)
{
    for (int len = 1; len < n; len <<= 1) {
        for (int i = 0; i < n; i += len << 1) {
            for (int j = i; j < i + len; ++j) {
                int32_t x = v[j * stride];
                int32_t y = v[(j + len) * stride];
                v[j * stride] = x + y;
                v[(j + len) * stride] = x - y;
            }
        }
    }
}

/** Raw (unnormalised) Hadamard abs-sum of one n x n tile. */
template <int N>
uint64_t
satdTileScalar(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride)
{
    int32_t buf[N * N];
    for (int y = 0; y < N; ++y) {
        const uint8_t *ra = a + static_cast<ptrdiff_t>(y) * a_stride;
        const uint8_t *rb = b + static_cast<ptrdiff_t>(y) * b_stride;
        for (int x = 0; x < N; ++x) {
            buf[y * N + x] = static_cast<int32_t>(ra[x]) - rb[x];
        }
    }
    for (int y = 0; y < N; ++y) {
        hadamard1d(buf + y * N, N, 1);
    }
    for (int x = 0; x < N; ++x) {
        hadamard1d(buf + x, N, N);
    }
    uint64_t sum = 0;
    for (int i = 0; i < N * N; ++i) {
        sum += static_cast<uint64_t>(std::abs(buf[i]));
    }
    return sum;
}

void
residualScalar(const uint8_t *a, int a_stride, const uint8_t *b, int b_stride,
               int w, int h, int16_t *dst)
{
    for (int y = 0; y < h; ++y) {
        const uint8_t *ra = a + static_cast<ptrdiff_t>(y) * a_stride;
        const uint8_t *rb = b + static_cast<ptrdiff_t>(y) * b_stride;
        int16_t *rd = dst + static_cast<ptrdiff_t>(y) * w;
        for (int x = 0; x < w; ++x) {
            rd[x] = static_cast<int16_t>(static_cast<int>(ra[x]) -
                                         static_cast<int>(rb[x]));
        }
    }
}

void
reconstructScalar(const uint8_t *pred, int pred_stride, const int16_t *res,
                  int w, int h, uint8_t *dst, int dst_stride)
{
    for (int y = 0; y < h; ++y) {
        const uint8_t *rp = pred + static_cast<ptrdiff_t>(y) * pred_stride;
        const int16_t *rr = res + static_cast<ptrdiff_t>(y) * w;
        uint8_t *rd = dst + static_cast<ptrdiff_t>(y) * dst_stride;
        for (int x = 0; x < w; ++x) {
            int v = static_cast<int>(rp[x]) + rr[x];
            rd[x] = static_cast<uint8_t>(std::clamp(v, 0, 255));
        }
    }
}

constexpr int kFracBits = 10;  // must match the basis scale in transform.cpp

void
fdctScalar(const int16_t *src, int32_t *dst, int n, const int32_t *basis)
{
    int64_t tmp[kMaxTxSize * kMaxTxSize];

    // Rows: tmp[r][k] = sum_i src[r][i] * T[k][i]
    for (int r = 0; r < n; ++r) {
        for (int k = 0; k < n; ++k) {
            int64_t acc = 0;
            const int32_t *basis_row = basis + static_cast<ptrdiff_t>(k) * n;
            const int16_t *src_row = src + static_cast<ptrdiff_t>(r) * n;
            for (int i = 0; i < n; ++i) {
                acc += static_cast<int64_t>(src_row[i]) * basis_row[i];
            }
            tmp[static_cast<size_t>(r) * n + k] = acc;
        }
    }
    // Columns: dst[k][c] = sum_r T[k][r] * tmp[r][c], with scale removal.
    const int64_t round = 1LL << (2 * kFracBits - 1);
    for (int k = 0; k < n; ++k) {
        const int32_t *basis_row = basis + static_cast<ptrdiff_t>(k) * n;
        for (int c = 0; c < n; ++c) {
            int64_t acc = 0;
            for (int r = 0; r < n; ++r) {
                acc += basis_row[r] * tmp[static_cast<size_t>(r) * n + c];
            }
            dst[static_cast<size_t>(k) * n + c] =
                static_cast<int32_t>((acc + round) >> (2 * kFracBits));
        }
    }
}

void
idctScalar(const int32_t *src, int16_t *dst, int n, const int32_t *basis)
{
    int64_t tmp[kMaxTxSize * kMaxTxSize];

    // Columns: tmp[r][c] = sum_k T[k][r] * src[k][c]
    for (int r = 0; r < n; ++r) {
        for (int c = 0; c < n; ++c) {
            int64_t acc = 0;
            for (int k = 0; k < n; ++k) {
                acc += static_cast<int64_t>(
                           basis[static_cast<size_t>(k) * n + r]) *
                       src[static_cast<size_t>(k) * n + c];
            }
            tmp[static_cast<size_t>(r) * n + c] = acc;
        }
    }
    // Rows: dst[r][i] = sum_k tmp[r][k] * T[k][i]
    const int64_t round = 1LL << (2 * kFracBits - 1);
    for (int r = 0; r < n; ++r) {
        for (int i = 0; i < n; ++i) {
            int64_t acc = 0;
            for (int k = 0; k < n; ++k) {
                acc += tmp[static_cast<size_t>(r) * n + k] *
                       basis[static_cast<size_t>(k) * n + i];
            }
            int64_t v = (acc + round) >> (2 * kFracBits);
            if (v > 32767) {
                v = 32767;
            } else if (v < -32768) {
                v = -32768;
            }
            dst[static_cast<size_t>(r) * n + i] = static_cast<int16_t>(v);
        }
    }
}

int
quantScalar(const int32_t *coeff, int32_t *levels, int count, double dead_zone,
            double inv_step)
{
    int nonzero = 0;
    for (int i = 0; i < count; ++i) {
        double v = coeff[i] >= 0 ? (coeff[i] + dead_zone) * inv_step
                                 : (coeff[i] - dead_zone) * inv_step;
        levels[i] = static_cast<int32_t>(v);
        nonzero += levels[i] != 0;
    }
    return nonzero;
}

void
dequantScalar(const int32_t *levels, int32_t *coeff, int count, double step)
{
    for (int i = 0; i < count; ++i) {
        coeff[i] = static_cast<int32_t>(levels[i] * step);
    }
}

void
boxdownScalar(const uint8_t *src, int src_stride, int factor, uint8_t *dst,
              int dw)
{
    const uint32_t cnt = static_cast<uint32_t>(factor) * factor;
    const uint32_t half = cnt / 2;
    for (int i = 0; i < dw; ++i) {
        const uint8_t *box = src + static_cast<ptrdiff_t>(i) * factor;
        uint32_t sum = 0;
        for (int y = 0; y < factor; ++y) {
            const uint8_t *r = box + static_cast<ptrdiff_t>(y) * src_stride;
            for (int x = 0; x < factor; ++x) {
                sum += r[x];
            }
        }
        dst[i] = static_cast<uint8_t>((sum + half) / cnt);
    }
}

void
lerpblendScalar(const uint8_t *a, const uint8_t *b, int w6, uint8_t *dst,
                int n)
{
    for (int i = 0; i < n; ++i) {
        dst[i] = static_cast<uint8_t>(
            (a[i] * (64 - w6) + b[i] * w6 + 32) >> 6);
    }
}

void
mcBilinearScalar(const uint8_t *src, int src_stride, int w, int h,
                 int half_x, int half_y, uint8_t *dst, int dst_stride)
{
    for (int y = 0; y < h; ++y) {
        const uint8_t *r0 = src + static_cast<ptrdiff_t>(y) * src_stride;
        const uint8_t *r1 = r0 + (half_y ? src_stride : 0);
        uint8_t *out = dst + static_cast<ptrdiff_t>(y) * dst_stride;
        for (int x = 0; x < w; ++x) {
            int x1 = x + (half_x ? 1 : 0);
            int v = r0[x] + r0[x1] + r1[x] + r1[x1] + 2;
            out[x] = static_cast<uint8_t>(v >> 2);
        }
    }
}

/** (-a + 5b + 5c - d + 4) >> 3, clamped to a pel. */
inline uint8_t
tap4(int a, int b, int c, int d)
{
    int v = (-a + 5 * b + 5 * c - d + 4) >> 3;
    return static_cast<uint8_t>(std::clamp(v, 0, 255));
}

void
mcSharpScalar(const uint8_t *src, int src_stride, int w, int h, int half_x,
              int half_y, uint8_t *dst, int dst_stride)
{
    const ptrdiff_t s = src_stride;
    for (int y = 0; y < h; ++y) {
        const uint8_t *r = src + static_cast<ptrdiff_t>(y) * s;
        uint8_t *out = dst + static_cast<ptrdiff_t>(y) * dst_stride;
        for (int x = 0; x < w; ++x) {
            const uint8_t *p = r + x;
            if (half_x && half_y) {
                uint8_t h0 = tap4(p[-1], p[0], p[1], p[2]);
                uint8_t h1 = tap4(p[s - 1], p[s], p[s + 1], p[s + 2]);
                out[x] = static_cast<uint8_t>((h0 + h1 + 1) >> 1);
            } else if (half_x) {
                out[x] = tap4(p[-1], p[0], p[1], p[2]);
            } else {
                out[x] = tap4(p[-s], p[0], p[s], p[2 * s]);
            }
        }
    }
}

const KernelTable &
resolveTable()
{
    if (const char *force = std::getenv("VEPRO_FORCE_SCALAR");
        force != nullptr && force[0] == '1') {
        return scalarKernels();
    }
#if defined(__x86_64__) || defined(_M_X64)
    if (__builtin_cpu_supports("avx2")) {
        if (const KernelTable *t = avx2Kernels()) {
            return *t;
        }
    }
#elif defined(__aarch64__)
#if defined(__linux__)
    if (getauxval(AT_HWCAP) & HWCAP_ASIMD) {
        if (const KernelTable *t = neonKernels()) {
            return *t;
        }
    }
#else
    // AdvSIMD is architecturally mandatory on aarch64.
    if (const KernelTable *t = neonKernels()) {
        return *t;
    }
#endif
#endif
    return scalarKernels();
}

} // namespace

const KernelTable &
scalarKernels()
{
    static const KernelTable table = [] {
        KernelTable t;
        t.isa = "scalar";
        t.sad = sadScalar;
        t.sse = sseScalar;
        t.satd4 = satdTileScalar<4>;
        t.satd8 = satdTileScalar<8>;
        t.residual = residualScalar;
        t.reconstruct = reconstructScalar;
        t.fdct = fdctScalar;
        t.idct = idctScalar;
        t.quant = quantScalar;
        t.dequant = dequantScalar;
        t.boxdown = boxdownScalar;
        t.lerpblend = lerpblendScalar;
        t.mcBilinear = mcBilinearScalar;
        t.mcSharp = mcSharpScalar;
        return t;
    }();
    return table;
}

const KernelTable *
avx2Kernels()
{
#if defined(VEPRO_HAVE_AVX2)
    return detail::avx2KernelsImpl();
#else
    return nullptr;
#endif
}

const KernelTable *
neonKernels()
{
#if defined(VEPRO_HAVE_NEON)
    return detail::neonKernelsImpl();
#else
    return nullptr;
#endif
}

const KernelTable &
kernels()
{
    static const KernelTable &table = resolveTable();
    return table;
}

const char *
kernelIsaName()
{
    return kernels().isa;
}

} // namespace vepro::codec
