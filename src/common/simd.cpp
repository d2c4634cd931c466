#include "common/simd.h"

namespace anda::simd {

const char *
isa_name(Isa isa)
{
    switch (isa) {
    case Isa::kBaseline:
        return "baseline";
    case Isa::kAvx2:
        return "avx2";
    case Isa::kAvx512f:
        return "avx512f";
    case Isa::kAvx512Gfni:
        return "avx512gfni";
    }
    return "unknown";
}

bool
isa_supported(Isa isa)
{
#if ANDA_SIMD_X86
    // Idempotent; required if the first call comes from a static
    // initializer.
    __builtin_cpu_init();
    switch (isa) {
    case Isa::kBaseline:
        return true;
    case Isa::kAvx2:
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
    case Isa::kAvx512f:
        return __builtin_cpu_supports("avx512f");
    case Isa::kAvx512Gfni:
        return __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512bw") &&
               __builtin_cpu_supports("avx512vbmi") &&
               __builtin_cpu_supports("gfni");
    }
    return false;
#else
    return isa == Isa::kBaseline;
#endif
}

}  // namespace anda::simd
