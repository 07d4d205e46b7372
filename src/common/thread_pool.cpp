#include "common/thread_pool.hpp"

#include <algorithm>

#include "obs/obs.hpp"

namespace agtram::common {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  job_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::run_chunks(ParallelJob& job) {
  for (;;) {
    const std::size_t c = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= job.chunk_count) return;
    AGTRAM_OBS_COUNT("pool.chunks_claimed", 1);
    const std::size_t first = job.begin + c * job.step;
    const std::size_t last = std::min(job.end, first + job.step);
    if (first < last && !job.failed.load(std::memory_order_relaxed)) {
      try {
        (*job.body)(first, last);
      } catch (...) {
        if (!job.failed.exchange(true, std::memory_order_relaxed)) {
          job.error = std::current_exception();
        }
      }
    }
    if (job.chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.chunk_count) {
      job.chunks_done.notify_one();  // wake the owning caller, if parked
    }
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body,
    std::size_t min_grain) {
  if (begin >= end) return;
  AGTRAM_OBS_COUNT("pool.parallel_for_calls", 1);
  const std::size_t n = end - begin;
  // A single-worker pool can never overlap chunks with the caller, so the
  // fork/join handshake (publish, wake, claim, drain) is pure overhead —
  // run the whole range inline.
  if (thread_count() <= 1) {
    AGTRAM_OBS_COUNT("pool.inline_single_worker", 1);
    body(begin, end);
    return;
  }
  const std::size_t max_chunks = std::max<std::size_t>(1, n / min_grain);
  const std::size_t chunks =
      std::min(max_chunks, std::max<std::size_t>(1, thread_count() * 4));
  if (chunks <= 1) {
    AGTRAM_OBS_COUNT("pool.inline_small_range", 1);
    body(begin, end);
    return;
  }

  // One job at a time: a nested call (a chunk body calling parallel_for) or
  // a concurrent caller must not block on the active job — the active job
  // may be waiting on *this* thread's chunk — so losers run inline.
  std::unique_lock owner(job_owner_mutex_, std::try_to_lock);
  if (!owner.owns_lock()) {
    AGTRAM_OBS_COUNT("pool.inline_nested", 1);
    body(begin, end);
    return;
  }
  AGTRAM_OBS_COUNT("pool.forked_jobs", 1);

  ParallelJob job;
  job.body = &body;
  job.begin = begin;
  job.end = end;
  job.step = (n + chunks - 1) / chunks;
  job.chunk_count = chunks;

  {
    std::lock_guard lock(mutex_);
    job_.store(&job, std::memory_order_release);
    ++job_generation_;
  }
  job_available_.notify_all();

  // The caller claims chunks too; by the time it runs dry, at most
  // thread_count() chunks remain in flight on the workers.
  run_chunks(job);

  std::size_t done = job.chunks_done.load(std::memory_order_acquire);
  while (done < chunks) {
    AGTRAM_OBS_COUNT("pool.idle_waits", 1);
    job.chunks_done.wait(done, std::memory_order_acquire);
    done = job.chunks_done.load(std::memory_order_acquire);
  }

  // Unpublish, then drain the workers still holding a reference so the
  // stack-allocated job cannot be touched after we return.  A worker either
  // incremented entrants before this store (we wait for its decrement) or
  // observes job_ == nullptr and never touches the job — both transitions
  // happen under mutex_.
  {
    std::lock_guard lock(mutex_);
    job_.store(nullptr, std::memory_order_release);
  }
  std::size_t entrants = job.entrants.load(std::memory_order_acquire);
  while (entrants != 0) {
    job.entrants.wait(entrants, std::memory_order_acquire);
    entrants = job.entrants.load(std::memory_order_acquire);
  }
  if (job.error) std::rethrow_exception(job.error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    ParallelJob* job = nullptr;
    {
      std::unique_lock lock(mutex_);
      job_available_.wait(lock, [&] {
        return stopping_ || (job_.load(std::memory_order_relaxed) != nullptr &&
                             job_generation_ != seen_generation);
      });
      job = job_.load(std::memory_order_relaxed);
      if (job == nullptr || job_generation_ == seen_generation) {
        return;  // stopping, with no job left to join
      }
      // Joining the published job: the entrants increment shares mutex_
      // with the owner's unpublish, which is what makes the owner's
      // entrants drain race-free.
      seen_generation = job_generation_;
      job->entrants.fetch_add(1, std::memory_order_relaxed);
    }
    run_chunks(*job);
    if (job->entrants.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      job->entrants.notify_one();
    }
  }
}

}  // namespace agtram::common
