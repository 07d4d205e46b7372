// Portable kernel paths plus the runtime dispatch glue (kernels.hpp).
//
// This TU compiles with -ffp-contract=off (src/drp/CMakeLists.txt): the
// scalar loops below ARE the floating-point contract, op for op, and letting
// the compiler fuse a mul+add into an FMA would change the low bits relative
// to the historical AoS loops and to the AVX2 paths (which use separate
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

// Below these sizes the vector path's gather/mask setup costs more than the
// scalar walk; route short rows straight to the portable loops.  Chosen by
// timing both arms per kernel on the dev box; correctness never depends
// on them (both arms are bit-identical).  The double-accumulate kernels
// (4 lanes + gathers + a serial fold) need four full blocks to amortise
// their setup; the pure u32 min/row kernels break even at one 8-lane block.
constexpr std::size_t kMinSimdAccumSlots = 16;
constexpr std::size_t kMinSimdSlots = 8;
constexpr std::size_t kMinSimdReps = 16;
constexpr std::size_t kMinSimdServers = 16;

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

// Obs accounting for which arm ran: `simd` / `tail` count iterations the
// vector path handled in lanes vs in its scalar tail; `scalar` counts
// iterations that took the portable loop (dispatch off, or below the size
// cutoff).  AGTRAM_OBS_COUNT caches its counter per call site, so the names
// must be literals — hence a macro, not a helper function.
#define AGTRAM_KERNEL_COUNT_VEC(simd_name, tail_name, n, lanes)          \
  do {                                                                   \
    const std::size_t agtram_kv_tail_ = (n) % (lanes);                   \
    AGTRAM_OBS_COUNT(simd_name,                                          \
                     static_cast<std::uint64_t>((n) - agtram_kv_tail_)); \
    AGTRAM_OBS_COUNT(tail_name,                                          \
                     static_cast<std::uint64_t>(agtram_kv_tail_));       \
  } while (0)

// -------------------------------------------------------------------------
// Portable reference loops.  These are verbatim transcriptions of the AoS
// loops they replaced (cost_model.cpp / delta_evaluator.cpp as of PR 4) with
// the field loads renamed onto the SoA streams; every add happens in the
// same order with the same operand grouping.

CostAccum object_cost_accumulate_portable(
    std::span<const ServerId> servers, std::span<const double> reads,
    std::span<const double> writes, std::span<const net::Cost> nn,
    std::span<const net::Cost> primary_row, const std::uint8_t* member,
    double o, double w_total) noexcept {
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

net::Cost nn_min_portable(std::span<const net::Cost> row,
                          std::span<const ServerId> reps) noexcept {
  net::Cost best = net::kUnreachable;
  for (const ServerId r : reps) {
    best = std::min(best, row[r]);
  }
  return best;
}

void min_with_row_portable(std::span<const net::Cost> nn,
                           std::span<const ServerId> servers,
                           std::span<const net::Cost> row,
                           net::Cost* out) noexcept {
  const std::size_t n = nn.size();
  for (std::size_t s = 0; s < n; ++s) {
    out[s] = std::min(nn[s], row[servers[s]]);
  }
}

double read_savings_accumulate_portable(std::span<const ServerId> servers,
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

void best_add_read_pass_portable(double ro, net::Cost current,
                                 std::span<const net::Cost> a_row,
                                 std::size_t first, std::size_t last,
                                 double* benefit) noexcept {
  for (std::size_t i = first; i < last; ++i) {
    const net::Cost with_i = std::min(current, a_row[i]);
    benefit[i] += ro * (static_cast<double>(current) -
                        static_cast<double>(with_i));
  }
}

void broadcast_price_pass_portable(double w_total, double o,
                                   std::span<const double> w_dense,
                                   std::span<const net::Cost> primary_row,
                                   std::size_t first, std::size_t last,
                                   double* benefit) noexcept {
  for (std::size_t i = first; i < last; ++i) {
    benefit[i] -=
        (w_total - w_dense[i]) * o * static_cast<double>(primary_row[i]);
  }
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
// Kernel entry points

CostAccum object_cost_accumulate(std::span<const ServerId> servers,
                                 std::span<const double> reads,
                                 std::span<const double> writes,
                                 std::span<const net::Cost> nn,
                                 std::span<const net::Cost> primary_row,
                                 const std::uint8_t* member, double o,
                                 double w_total) noexcept {
#if defined(AGTRAM_SIMD_AVX2)
  if (servers.size() >= kMinSimdAccumSlots && use_simd()) {
    AGTRAM_KERNEL_COUNT_VEC("kernels.object_cost.simd_slots",
                            "kernels.object_cost.tail_slots",
                            servers.size(), 4);
    return avx2::object_cost_accumulate(servers.data(), reads.data(),
                                        writes.data(), nn.data(),
                                        primary_row.data(), member, o,
                                        w_total, servers.size());
  }
#endif
  AGTRAM_OBS_COUNT("kernels.object_cost.scalar_slots",
                   static_cast<std::uint64_t>(servers.size()));
  return object_cost_accumulate_portable(servers, reads, writes, nn,
                                         primary_row, member, o, w_total);
}

net::Cost nn_min(std::span<const net::Cost> row,
                 std::span<const ServerId> reps) noexcept {
#if defined(AGTRAM_SIMD_AVX2)
  if (reps.size() >= kMinSimdReps && use_simd()) {
    AGTRAM_KERNEL_COUNT_VEC("kernels.nn_min.simd_reps",
                            "kernels.nn_min.tail_reps", reps.size(), 8);
    return avx2::nn_min(row.data(), reps.data(), reps.size());
  }
#endif
  AGTRAM_OBS_COUNT("kernels.nn_min.scalar_reps",
                   static_cast<std::uint64_t>(reps.size()));
  return nn_min_portable(row, reps);
}

net::Cost nn_min_excluding(std::span<const net::Cost> row,
                           std::span<const ServerId> reps,
                           ServerId excluded) noexcept {
  // Always scalar: every call site walks a drop/swap replica set, which the
  // mechanism keeps small (paper-scale runs average < 8 replicas/object); a
  // gather would lose before it starts.  Integer min is order-free, so this
  // is trivially bit-identical across builds.
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
#if defined(AGTRAM_SIMD_AVX2)
  if (nn.size() >= kMinSimdSlots && use_simd()) {
    AGTRAM_KERNEL_COUNT_VEC("kernels.min_with_row.simd_slots",
                            "kernels.min_with_row.tail_slots", nn.size(), 8);
    avx2::min_with_row(nn.data(), servers.data(), row.data(), out, nn.size());
    return;
  }
#endif
  AGTRAM_OBS_COUNT("kernels.min_with_row.scalar_slots",
                   static_cast<std::uint64_t>(nn.size()));
  min_with_row_portable(nn, servers, row, out);
}

double read_savings_accumulate(std::span<const ServerId> servers,
                               std::span<const double> reads,
                               std::span<const net::Cost> nn,
                               std::span<const net::Cost> i_row,
                               const std::uint8_t* member,
                               double o) noexcept {
#if defined(AGTRAM_SIMD_AVX2)
  if (servers.size() >= kMinSimdAccumSlots && use_simd()) {
    AGTRAM_KERNEL_COUNT_VEC("kernels.read_savings.simd_slots",
                            "kernels.read_savings.tail_slots",
                            servers.size(), 4);
    return avx2::read_savings_accumulate(servers.data(), reads.data(),
                                         nn.data(), i_row.data(), member, o,
                                         servers.size());
  }
#endif
  AGTRAM_OBS_COUNT("kernels.read_savings.scalar_slots",
                   static_cast<std::uint64_t>(servers.size()));
  return read_savings_accumulate_portable(servers, reads, nn, i_row, member,
                                          o);
}

void best_add_read_pass(double ro, net::Cost current,
                        std::span<const net::Cost> a_row, std::size_t first,
                        std::size_t last, double* benefit) noexcept {
  const std::size_t n = last > first ? last - first : 0;
#if defined(AGTRAM_SIMD_AVX2)
  if (n >= kMinSimdServers && use_simd()) {
    AGTRAM_KERNEL_COUNT_VEC("kernels.best_add.simd_servers",
                            "kernels.best_add.tail_servers", n, 8);
    avx2::best_add_read_pass(ro, current, a_row.data(), first, last, benefit);
    return;
  }
#endif
  AGTRAM_OBS_COUNT("kernels.best_add.scalar_servers",
                   static_cast<std::uint64_t>(n));
  best_add_read_pass_portable(ro, current, a_row, first, last, benefit);
}

void broadcast_price_pass(double w_total, double o,
                          std::span<const double> w_dense,
                          std::span<const net::Cost> primary_row,
                          std::size_t first, std::size_t last,
                          double* benefit) noexcept {
  const std::size_t n = last > first ? last - first : 0;
#if defined(AGTRAM_SIMD_AVX2)
  if (n >= kMinSimdServers && use_simd()) {
    AGTRAM_KERNEL_COUNT_VEC("kernels.broadcast.simd_servers",
                            "kernels.broadcast.tail_servers", n, 4);
    avx2::broadcast_price_pass(w_total, o, w_dense.data(), primary_row.data(),
                               first, last, benefit);
    return;
  }
#endif
  AGTRAM_OBS_COUNT("kernels.broadcast.scalar_servers",
                   static_cast<std::uint64_t>(n));
  broadcast_price_pass_portable(w_total, o, w_dense, primary_row, first,
                                last, benefit);
}

// ---------------------------------------------------------------------------
// Scratch

Scratch& tls_scratch() noexcept {
  thread_local Scratch scratch;
  return scratch;
}

}  // namespace agtram::drp::kernels
