#ifndef VEPRO_CODEC_KERNELS_HPP
#define VEPRO_CODEC_KERNELS_HPP

/**
 * @file
 * Runtime-dispatched SIMD kernel table for the codec hot loops.
 *
 * The pixel kernels (SAD/SSE/SATD, residual/reconstruct, the integer
 * DCT passes, the quantiser inner loop) dominate every sweep, so they
 * are provided in three flavours: portable scalar C++, AVX2
 * (x86-64), and NEON (aarch64). A one-time CPU-feature probe picks the
 * widest table the host supports; `VEPRO_FORCE_SCALAR=1` in the
 * environment forces the scalar table for debugging and A/B timing.
 *
 * Hard contract: every vector implementation is **bit-identical** to
 * the scalar reference for all inputs. These kernels feed RD decisions,
 * the reconstruction loop, and the probe-derived traces, so any
 * numerical divergence would change every reproduced figure. The
 * contract is enforced by the property suite in tests/test_kernels.cpp,
 * which compares each table against the scalar one over randomised
 * blocks of every supported geometry.
 *
 * Kernels operate on raw pointer/stride arguments (no PelView, no
 * probe): instrumentation stays in the wrappers (sad.cpp, transform.cpp,
 * quant.cpp), which report the modeled op stream independently of which
 * host ISA actually ran.
 */

#include <cstdint>

namespace vepro::codec
{

/**
 * Function-pointer table of the hot pixel kernels for one ISA.
 *
 * Strides are in bytes. `residual` writes a dense row-major w x h
 * int16 block (stride w); `reconstruct` reads the same layout.
 * `satd4`/`satd8` return the raw Hadamard abs-sum of one tile (the
 * caller applies the SAD-scale normalisation). `fdct`/`idct` take the
 * fixed-point basis row-major [k][i] (see transform.cpp); `quant`
 * returns the number of nonzero levels.
 */
struct KernelTable {
    const char *isa = "scalar";

    uint64_t (*sad)(const uint8_t *a, int a_stride, const uint8_t *b,
                    int b_stride, int w, int h) = nullptr;
    uint64_t (*sse)(const uint8_t *a, int a_stride, const uint8_t *b,
                    int b_stride, int w, int h) = nullptr;
    uint64_t (*satd4)(const uint8_t *a, int a_stride, const uint8_t *b,
                      int b_stride) = nullptr;
    uint64_t (*satd8)(const uint8_t *a, int a_stride, const uint8_t *b,
                      int b_stride) = nullptr;
    void (*residual)(const uint8_t *a, int a_stride, const uint8_t *b,
                     int b_stride, int w, int h, int16_t *dst) = nullptr;
    void (*reconstruct)(const uint8_t *pred, int pred_stride,
                        const int16_t *res, int w, int h, uint8_t *dst,
                        int dst_stride) = nullptr;
    void (*fdct)(const int16_t *src, int32_t *dst, int n,
                 const int32_t *basis) = nullptr;
    void (*idct)(const int32_t *src, int16_t *dst, int n,
                 const int32_t *basis) = nullptr;
    int (*quant)(const int32_t *coeff, int32_t *levels, int count,
                 double dead_zone, double inv_step) = nullptr;
    void (*dequant)(const int32_t *levels, int32_t *coeff, int count,
                    double step) = nullptr;
    /**
     * One output row of exact box downscaling: dst[i] is the rounded
     * mean of the factor x factor pixel box whose top-left corner is
     * src + i*factor, i.e. (sum + cnt/2) / cnt with cnt = factor^2.
     * All dw boxes must be fully inside the source; partial edge boxes
     * are the caller's job (video::downscalePlane).
     */
    void (*boxdown)(const uint8_t *src, int src_stride, int factor,
                    uint8_t *dst, int dw) = nullptr;
    /**
     * Fixed-point row blend for the bilinear upscaler:
     * dst[i] = (a[i]*(64-w6) + b[i]*w6 + 32) >> 6 for a 6-bit weight
     * w6 in [0, 64]. w6 == 0 reproduces a exactly.
     */
    void (*lerpblend)(const uint8_t *a, const uint8_t *b, int w6,
                      uint8_t *dst, int n) = nullptr;
};

/**
 * The dispatched table: resolved once (thread-safe) from CPUID/HWCAP,
 * honouring VEPRO_FORCE_SCALAR=1.
 */
const KernelTable &kernels();

/** The portable scalar reference table (always available). */
const KernelTable &scalarKernels();

/**
 * The AVX2 table, or nullptr when not compiled in or not supported by
 * the host CPU. Exposed so tests and benches can exercise it directly
 * regardless of what kernels() resolved to.
 */
const KernelTable *avx2Kernels();

/** The NEON table, or nullptr (see avx2Kernels()). */
const KernelTable *neonKernels();

/** ISA name of the dispatched table ("scalar", "avx2", "neon"). */
const char *kernelIsaName();

namespace detail
{
/* Defined only in the per-ISA translation units; never call directly. */
const KernelTable *avx2KernelsImpl();
const KernelTable *neonKernelsImpl();
} // namespace detail

} // namespace vepro::codec

#endif // VEPRO_CODEC_KERNELS_HPP
