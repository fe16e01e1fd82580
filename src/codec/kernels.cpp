#include "codec/kernels.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdlib>

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

// The integer DCT-II basis keeps the sign symmetry of the real one,
// T[k][n-1-i] = (-1)^k T[k][i], because lround rounds halves away from
// zero (lround(-x) == -lround(x)). The partial butterflies below use it
// to fold each length-m stage into its even half (recursed on) and odd
// half (dot products of length m/2). They regroup the exact int64 sums
// of the matrix product, so every output is the same integer.

/**
 * One forward butterfly stage with step S = N/M: v holds M pre-summed
 * inputs, and y[S*j] = sum_{i<M} T[S*j][i] * v[i] for j < M. The odd
 * outputs take the difference half; the even ones recurse on the sum
 * half. v is consumed.
 */
template <int N, int M>
void
fdctStage(int64_t *v, int64_t *y, const int32_t *basis)
{
    if constexpr (M == 1) {
        y[0] = basis[0] * v[0];
    } else {
        constexpr int S = N / M, H = M / 2;
        int64_t odd[H];
        for (int i = 0; i < H; ++i) {
            odd[i] = v[i] - v[M - 1 - i];
            v[i] += v[M - 1 - i];
        }
        for (int j = 1; j < M; j += 2) {
            const int32_t *row = basis + S * j * N;
            int64_t acc = 0;
            for (int i = 0; i < H; ++i) {
                acc += row[i] * odd[i];
            }
            y[S * j] = acc;
        }
        fdctStage<N, H>(v, y, basis);
    }
}

/**
 * One inverse butterfly stage with step S = N/M: y[i] = sum_{j<M}
 * T[S*j][i] * x[S*j] for i < M, from the even half's recursion plus
 * (first half) or minus (mirrored half) the odd inputs' sums.
 */
template <int N, int M>
void
idctStage(const int64_t *x, int64_t *y, const int32_t *basis)
{
    if constexpr (M == 1) {
        y[0] = basis[0] * x[0];
    } else {
        constexpr int S = N / M, H = M / 2;
        idctStage<N, H>(x, y, basis);
        int64_t odd[H] = {};
        for (int j = 1; j < M; j += 2) {
            const int32_t *row = basis + S * j * N;
            const int64_t xj = x[S * j];
            for (int i = 0; i < H; ++i) {
                odd[i] += row[i] * xj;
            }
        }
        for (int i = 0; i < H; ++i) {
            const int64_t even = y[i];
            y[i] = even + odd[i];
            y[M - 1 - i] = even - odd[i];
        }
    }
}

template <int N>
void
fdctN(const int16_t *src, int32_t *dst, const int32_t *basis)
{
    int64_t tmp[N * N];
    int64_t line[N], out[N];

    // Rows: tmp[r][k] = sum_i src[r][i] * T[k][i]
    for (int r = 0; r < N; ++r) {
        std::copy(src + r * N, src + (r + 1) * N, line);
        fdctStage<N, N>(line, tmp + r * N, basis);
    }
    // Columns: dst[k][c] = sum_r T[k][r] * tmp[r][c], with scale removal.
    const int64_t round = 1LL << (2 * kFracBits - 1);
    for (int c = 0; c < N; ++c) {
        for (int r = 0; r < N; ++r) {
            line[r] = tmp[r * N + c];
        }
        fdctStage<N, N>(line, out, basis);
        for (int k = 0; k < N; ++k) {
            dst[k * N + c] =
                static_cast<int32_t>((out[k] + round) >> (2 * kFracBits));
        }
    }
}

template <int N>
void
idctN(const int32_t *src, int16_t *dst, const int32_t *basis)
{
    int64_t tmp[N * N];
    int64_t line[N], out[N];

    // Columns: tmp[r][c] = sum_k T[k][r] * src[k][c]
    for (int c = 0; c < N; ++c) {
        for (int k = 0; k < N; ++k) {
            line[k] = src[k * N + c];
        }
        idctStage<N, N>(line, out, basis);
        for (int r = 0; r < N; ++r) {
            tmp[r * N + c] = out[r];
        }
    }
    // Rows: dst[r][i] = sum_k tmp[r][k] * T[k][i]
    const int64_t round = 1LL << (2 * kFracBits - 1);
    for (int r = 0; r < N; ++r) {
        idctStage<N, N>(tmp + r * N, out, basis);
        for (int i = 0; i < N; ++i) {
            const int64_t v = (out[i] + round) >> (2 * kFracBits);
            dst[r * N + i] =
                static_cast<int16_t>(std::clamp<int64_t>(v, -32768, 32767));
        }
    }
}

void
fdctScalar(const int16_t *src, int32_t *dst, int n, const int32_t *basis)
{
    switch (n) {
      case 4: fdctN<4>(src, dst, basis); break;
      case 8: fdctN<8>(src, dst, basis); break;
      case 16: fdctN<16>(src, dst, basis); break;
      default: fdctN<32>(src, dst, basis); break;
    }
}

void
idctScalar(const int32_t *src, int16_t *dst, int n, const int32_t *basis)
{
    switch (n) {
      case 4: idctN<4>(src, dst, basis); break;
      case 8: idctN<8>(src, dst, basis); break;
      case 16: idctN<16>(src, dst, basis); break;
      default: idctN<32>(src, dst, basis); break;
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
