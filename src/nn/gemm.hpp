#pragma once

// Single-precision GEMM for the im2col convolution path:
// C[m×n] += A[m×k]·B[k×n], all row-major.
//
// Determinism contract: every C element's accumulation chain starts from the
// value already in C and adds the k products in strictly increasing k order,
// one multiply-add per k, regardless of tiling or thread count. Tiles
// partition C disjointly, so the result is bitwise identical across
// DUO_THREADS counts — and matches any scalar loop that accumulates the same
// chain in the same order (the Conv3d reference loops' order, by
// construction of the im2col row layout). The one freedom left is which
// payload a NaN result carries when two NaN operands meet in one
// multiply-add: x86 picks by instruction operand position, which register
// allocation decides.
//
// Callers seed C with the additive term (bias rows, an existing gradient to
// accumulate into, or zeros) before the call.
//
// Kernel: parallel_for over 16×128 blocks of C; inside a block, a microkernel
// keeps a kGemmMr × kGemmNr tile of C in vector registers for the whole k
// loop, loading each B-row segment once per k and multiplying it by kGemmMr
// broadcast A values. Blocks whose edges do not fill whole register tiles (m
// or n not a multiple of the tile, e.g. the weight-grad GEMMs with n = Cout)
// run the same microkernel on a zero-padded copy of the block, with B fed
// through a zero-padded stack panel; nothing is heap-allocated. Compiled
// with the default RelWithDebInfo flags (-O2 -march=native), the inner loop
// is packed FMAs; with o = build/src/nn/CMakeFiles/duo_nn.dir/gemm.cpp.o,
//   objdump -d $o | grep -c 'vfmadd...ps.*zmm'
// prints 16 on AVX-512 (kGemmMr rows × 2 vectors; ymm registers on AVX2).

#include <cstdint>

namespace duo::nn {

// Register tile of the microkernel: two vectors of C per row.
#if defined(__AVX512F__)
inline constexpr std::int64_t kGemmMr = 8;
inline constexpr std::int64_t kGemmNr = 32;
#elif defined(__AVX__)
inline constexpr std::int64_t kGemmMr = 4;
inline constexpr std::int64_t kGemmNr = 16;
#else
inline constexpr std::int64_t kGemmMr = 4;
inline constexpr std::int64_t kGemmNr = 8;
#endif

// C += A·B with the per-element ordering contract above, parallelized over
// blocks of C on the compute pool.
void gemm_accumulate(std::int64_t m, std::int64_t k, std::int64_t n,
                     const float* a, const float* b, float* c);

}  // namespace duo::nn
