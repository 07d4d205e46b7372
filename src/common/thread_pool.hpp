// A small work-stealing-free thread pool with a blocking parallel_for.
//
// This is the shared-memory stand-in for the PARFOR in the paper's Figure 2
// pseudo-code: AGT-RAM builds every agent, pricing its candidate list L_i,
// in one parallel_for per run; the rounds then run on the centre's thread.
// The pool also runs the tiled regional engine's shard solves, the metric
// closure's Dijkstras, the serving engine's batch routing, the online
// engine's re-price, the delta evaluator's scans, and the baselines.
//
// parallel_for uses a lock-lean design tuned for short, frequent calls such
// as a batch re-price: one stack-allocated job descriptor per call, chunks
// claimed with a single atomic fetch_add, completion signalled through a
// C++20 atomic wait (no per-call mutex+condition_variable pair, no
// per-chunk std::function heap allocation).  The calling thread claims
// chunks alongside the workers, so small ranges finish without a single
// context switch.  Nested or concurrent parallel_for calls degrade to
// inline execution of the whole range — correct, just not parallel.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace agtram::common {

class ThreadPool {
 public:
  /// Spawns `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t thread_count() const noexcept { return workers_.size(); }

  /// Evenly split [begin, end) into chunks and run `body(first, last)` on
  /// the pool (caller included), blocking until all chunks complete.  Chunk
  /// count defaults to 4x threads for load balance.  Falls back to inline
  /// execution for tiny ranges, for nested/concurrent calls, and on
  /// single-worker pools (where forking can never overlap with the caller),
  /// so it is safe (and cheap) to call unconditionally.  If a chunk throws,
  /// on any thread, the chunks not yet started are skipped and the first
  /// exception is rethrown on the caller once no worker holds the job.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& body,
                    std::size_t min_grain = 64);

  /// Process-wide shared pool (lazily constructed, sized to the machine).
  static ThreadPool& shared();

 private:
  /// One parallel_for invocation.  Lives on the caller's stack; workers
  /// hold it only between an entrants increment (taken under mutex_ while
  /// the job is still published) and the matching decrement, which the
  /// caller drains before returning.
  struct ParallelJob {
    const std::function<void(std::size_t, std::size_t)>* body;
    std::size_t begin;
    std::size_t end;
    std::size_t step;
    std::size_t chunk_count;
    std::atomic<std::size_t> next_chunk{0};   ///< chunk claim ticket
    std::atomic<std::size_t> chunks_done{0};  ///< completion latch
    std::atomic<std::size_t> entrants{0};     ///< workers touching the job
    /// Set by the first chunk that throws; later claims skip their body.
    /// `error` is written once, before that chunk's chunks_done increment,
    /// so the caller's acquire of the full count makes it visible.
    std::atomic<bool> failed{false};
    std::exception_ptr error;
  };

  void worker_loop();
  static void run_chunks(ParallelJob& job);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable job_available_;
  bool stopping_ = false;

  /// Serialises parallel_for callers (one active job at a time; losers run
  /// inline).  Distinct from mutex_ so job publication stays cheap.
  std::mutex job_owner_mutex_;
  std::atomic<ParallelJob*> job_{nullptr};  ///< published under mutex_
  std::uint64_t job_generation_ = 0;        ///< guarded by mutex_
};

}  // namespace agtram::common
