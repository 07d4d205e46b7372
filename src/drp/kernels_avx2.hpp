// Internal declaration of the one AVX2 kernel arm (kernels_avx2.cpp,
// compiled with -mavx2 -ffp-contract=off when AGTRAM_SIMD is ON and the
// target is x86-64).  Only kernels.cpp includes this header; everything else
// goes through the dispatching entry point in kernels.hpp.
//
// A raw-pointer signature keeps the hot call boundary trivial; the arm
// handles its own (scalar) tail with the identical op sequence as the
// portable loop, so callers never split ranges.
#pragma once

#include <cstddef>

#include "drp/kernels.hpp"

namespace agtram::drp::kernels::avx2 {

void best_add_read_pass(double ro, net::Cost current, const net::Cost* a_row,
                        std::size_t first, std::size_t last,
                        double* benefit) noexcept;

}  // namespace agtram::drp::kernels::avx2
