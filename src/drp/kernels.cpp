// The kernels plus the runtime dispatch glue of best_add_read_pass's AVX2
// arm (kernels.hpp).
//
// This TU compiles with -ffp-contract=off (src/drp/CMakeLists.txt): the
// scalar loops below ARE the floating-point contract, op for op, and letting
// the compiler fuse a mul+add into an FMA would change the low bits relative
// to the historical AoS loops and to the AVX2 arm (which uses separate
// mul/add intrinsics).
#include "drp/kernels.hpp"

#include <atomic>
#include <cstdlib>

#include "obs/obs.hpp"

#if defined(AGTRAM_SIMD_AVX2)
#include "drp/kernels_avx2.hpp"
#endif

namespace agtram::drp::kernels {
namespace {

struct SimdState {
  bool compiled = false;
  bool supported = false;
  std::atomic<bool> enabled{false};
};

SimdState& state() noexcept {
  static SimdState s;
  static const bool initialized = [] {
#if defined(AGTRAM_SIMD_AVX2)
    s.compiled = true;
#endif
#if defined(__x86_64__) || defined(_M_X64)
    s.supported = __builtin_cpu_supports("avx2");
#endif
    bool on = s.compiled && s.supported;
    if (const char* env = std::getenv("AGTRAM_SIMD")) {
      if (env[0] == '0' && env[1] == '\0') on = false;
    }
    s.enabled.store(on, std::memory_order_relaxed);
    return true;
  }();
  (void)initialized;
  return s;
}

inline bool use_simd() noexcept {
  return state().enabled.load(std::memory_order_relaxed);
}

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch state

bool simd_compiled() noexcept { return state().compiled; }
bool simd_supported() noexcept { return state().supported; }
bool simd_active() noexcept { return use_simd(); }

void set_simd_enabled(bool on) noexcept {
  SimdState& s = state();
  s.enabled.store(on && s.compiled && s.supported, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Membership mask

void member_mask(std::span<const ServerId> servers,
                 std::span<const ServerId> reps, std::uint8_t* mask) noexcept {
  const std::size_t n = servers.size();
  std::size_t r = 0;
  const std::size_t nr = reps.size();
  for (std::size_t s = 0; s < n; ++s) {
    const ServerId id = servers[s];
    while (r < nr && reps[r] < id) ++r;
    mask[s] = (r < nr && reps[r] == id) ? 1 : 0;
  }
}

// ---------------------------------------------------------------------------
// Kernel entry points.  The loops are verbatim transcriptions of the AoS
// loops they replaced (cost_model.cpp / delta_evaluator.cpp before the
// kernel engine) with the field loads renamed onto the SoA streams; every
// add happens in the same order with the same operand grouping.

CostAccum object_cost_accumulate(std::span<const ServerId> servers,
                                 std::span<const double> reads,
                                 std::span<const double> writes,
                                 std::span<const net::Cost> nn,
                                 std::span<const net::Cost> primary_row,
                                 const std::uint8_t* member, double o,
                                 double w_total) noexcept {
  CostAccum acc;
  const std::size_t n = servers.size();
  for (std::size_t s = 0; s < n; ++s) {
    const double cp = static_cast<double>(primary_row[servers[s]]);
    acc.cost += writes[s] * o * cp;
    if (member[s]) {
      acc.cost += (w_total - writes[s]) * o * cp;
    } else {
      acc.cost += reads[s] * o * static_cast<double>(nn[s]);
      if (reads[s] != 0.0) {
        acc.saving += reads[s] * o * static_cast<double>(nn[s]);
      }
    }
  }
  return acc;
}

net::Cost nn_min(std::span<const net::Cost> row,
                 std::span<const ServerId> reps) noexcept {
  net::Cost best = net::kUnreachable;
  for (const ServerId r : reps) {
    best = std::min(best, row[r]);
  }
  return best;
}

net::Cost nn_min_excluding(std::span<const net::Cost> row,
                           std::span<const ServerId> reps,
                           ServerId excluded) noexcept {
  net::Cost best = net::kUnreachable;
  for (const ServerId r : reps) {
    if (r == excluded) continue;
    best = std::min(best, row[r]);
  }
  return best;
}

void min_with_row(std::span<const net::Cost> nn,
                  std::span<const ServerId> servers,
                  std::span<const net::Cost> row, net::Cost* out) noexcept {
  const std::size_t n = nn.size();
  for (std::size_t s = 0; s < n; ++s) {
    out[s] = std::min(nn[s], row[servers[s]]);
  }
}

double read_savings_accumulate(std::span<const ServerId> servers,
                               std::span<const double> reads,
                               std::span<const net::Cost> nn,
                               std::span<const net::Cost> i_row,
                               const std::uint8_t* member,
                               double o) noexcept {
  double benefit = 0.0;
  const std::size_t n = servers.size();
  for (std::size_t s = 0; s < n; ++s) {
    if (reads[s] == 0.0 || member[s]) continue;
    const net::Cost current = nn[s];
    const net::Cost with_i = std::min(current, i_row[servers[s]]);
    benefit += reads[s] * o *
               (static_cast<double>(current) - static_cast<double>(with_i));
  }
  return benefit;
}

void best_add_read_pass(double ro, net::Cost current,
                        std::span<const net::Cost> a_row, std::size_t first,
                        std::size_t last, double* benefit) noexcept {
  const std::size_t n = last > first ? last - first : 0;
#if defined(AGTRAM_SIMD_AVX2)
  if (n >= kMinSimdServers && use_simd()) {
    // The arm runs 8-server blocks in lanes and the rest in a scalar tail.
    AGTRAM_OBS_COUNT("kernels.best_add.simd_servers", n - n % 8);
    AGTRAM_OBS_COUNT("kernels.best_add.tail_servers", n % 8);
    avx2::best_add_read_pass(ro, current, a_row.data(), first, last, benefit);
    return;
  }
#endif
  AGTRAM_OBS_COUNT("kernels.best_add.scalar_servers",
                   static_cast<std::uint64_t>(n));
  for (std::size_t i = first; i < last; ++i) {
    const net::Cost with_i = std::min(current, a_row[i]);
    benefit[i] += ro * (static_cast<double>(current) -
                        static_cast<double>(with_i));
  }
}

void broadcast_price_pass(double w_total, double o,
                          std::span<const double> w_dense,
                          std::span<const net::Cost> primary_row,
                          std::size_t first, std::size_t last,
                          double* benefit) noexcept {
  for (std::size_t i = first; i < last; ++i) {
    benefit[i] -=
        (w_total - w_dense[i]) * o * static_cast<double>(primary_row[i]);
  }
}

// ---------------------------------------------------------------------------
// Scratch

Scratch& tls_scratch() noexcept {
  thread_local Scratch scratch;
  return scratch;
}

}  // namespace agtram::drp::kernels
