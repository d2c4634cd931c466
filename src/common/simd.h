#pragma once

/// @file
/// Vector ISA levels, the GCC/Clang `vector_size` types the hot kernels
/// are written over, and the once-per-process choice between them.
///
/// A vectorized kernel is one template over these types. Each ISA level
/// instantiates it inside a function that carries that level's
/// `target(...)` attribute, and the instantiations are listed widest
/// first in a `Variant` table owned by the kernel's module. The process
/// runs the first entry the CPU supports (`widest_supported`, decided
/// by `__builtin_cpu_supports`); tests iterate the whole table. A table
/// lists only the levels its kernel has code for: kAvx512Gfni appears
/// only in the Anda KV unpack's (format/kv_format.cpp), whose bit-plane
/// transpose it does with byte permutes and GF(2) affine transforms;
/// every other kernel runs its kAvx512f code on such hosts.
///
/// Every instantiation is bit-identical to the scalar oracle it
/// replaces: it performs the same IEEE operations in the same order,
/// only on more lanes at a time. The build passes `-ffp-contract=off`
/// so a wider target cannot fuse a*b+c into one FMA rounding; every FMA
/// a kernel performs is written explicitly, with an intrinsic, where the
/// oracle has one. `kAvx2` therefore means AVX2 plus FMA (the condition
/// under which glibc itself picks its FMA builds of libm functions).
///
/// The one oracle with FMAs is libm's `expf`: the attention softmax and
/// the SwiGLU gate run glibc's `__expf_fma` algorithm in double lanes
/// (llm/ops.cpp), so on a glibc x86-64 build their exp is bit-identical
/// to the `std::exp(float)` the baseline variant calls, wherever it
/// runs. Other builds call `std::exp` in every variant.
///
/// Vectors never cross a call boundary by value. Helpers shared by the
/// instantiations take and return them through references and are
/// always inlined, because a 256/512-bit vector argument changes the
/// calling convention between code compiled for different ISAs.

#include <cstdint>
#include <span>

#if defined(__x86_64__) || defined(__i386__)
#define ANDA_SIMD_X86 1
#define ANDA_TARGET_AVX2 __attribute__((target("avx2,fma")))
#define ANDA_TARGET_AVX512F __attribute__((target("avx512f")))
#define ANDA_TARGET_AVX512_GFNI \
    __attribute__((target("avx512f,avx512bw,avx512vbmi,gfni")))
#else
#define ANDA_SIMD_X86 0
#endif

namespace anda::simd {

/// ISA levels a kernel is instantiated for. kBaseline is the build's
/// own target (SSE2 on x86-64) and runs everywhere; kAvx2 is AVX2 with
/// FMA; kAvx512Gfni is AVX-512 F + BW + VBMI with GFNI (byte permutes
/// and the GF(2) affine byte transform, which transposes an 8x8 bit
/// matrix in one instruction).
enum class Isa { kBaseline, kAvx2, kAvx512f, kAvx512Gfni };

/// Short lowercase name ("baseline", "avx2", "avx512f", "avx512gfni").
const char *isa_name(Isa isa);

/// True when the host CPU (and OS) can execute code built for `isa`.
bool isa_supported(Isa isa);

using f32x4 = float __attribute__((vector_size(16)));
using f32x8 = float __attribute__((vector_size(32)));
using f32x16 = float __attribute__((vector_size(64)));
using u32x4 = std::uint32_t __attribute__((vector_size(16)));
using u32x8 = std::uint32_t __attribute__((vector_size(32)));
using u32x16 = std::uint32_t __attribute__((vector_size(64)));
using i32x4 = std::int32_t __attribute__((vector_size(16)));
using i32x8 = std::int32_t __attribute__((vector_size(32)));
using i32x16 = std::int32_t __attribute__((vector_size(64)));
using f64x4 = double __attribute__((vector_size(32)));
using f64x8 = double __attribute__((vector_size(64)));
using u64x2 = std::uint64_t __attribute__((vector_size(16)));
using u64x4 = std::uint64_t __attribute__((vector_size(32)));
using u64x8 = std::uint64_t __attribute__((vector_size(64)));

/// One ISA instantiation of a kernel with signature Fn.
template <class Fn>
struct Variant {
    Isa isa;
    Fn *run;
};

/// The first entry of a widest-first variant table that the host can
/// run; the table's last entry must be the baseline.
template <class Fn>
Fn *
widest_supported(std::span<const Variant<Fn>> table)
{
    for (const Variant<Fn> &v : table) {
        if (isa_supported(v.isa)) {
            return v.run;
        }
    }
    return table.back().run;
}

}  // namespace anda::simd
