#ifndef DFLOW_SIMD_KERNELS_H_
#define DFLOW_SIMD_KERNELS_H_

// Internal: per-tier kernel installers. Each translation unit is compiled
// with its own ISA flags (and both with -ffp-contract=off, so the compiler
// can never fuse the mul/add sequences the bit-identity contract pins).
// FillScalar installs every kernel; FillAvx2 overwrites the entries it
// accelerates, so any it leaves stay the scalar reference.

#include "simd/simd.h"

namespace dflow::simd::detail {

void FillScalar(KernelTable* table);
void FillAvx2(KernelTable* table);  // No-op off x86.

}  // namespace dflow::simd::detail

#endif  // DFLOW_SIMD_KERNELS_H_
