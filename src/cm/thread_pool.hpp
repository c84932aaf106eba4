// A small fixed-size thread pool with a chunked parallel_for.  This is the
// threaded data-parallel runtime that stands in for the CM-2's physical
// processor array: elementwise (per-VP) host work inside one simulated SIMD
// instruction is split into chunks and executed by the workers.
//
// Design notes (following the structured-parallelism idiom of the OpenMP
// examples and the C++ Core Guidelines CP rules):
//   * parallel_for is a fork-join region: it returns only when every chunk
//     has finished, so callers never see torn state;
//   * worker threads are joined in the destructor (RAII, no detached
//     threads);
//   * with thread_count <= 1 the loop runs inline, which keeps the pool
//     usable on single-core machines with zero overhead;
//   * exceptions thrown by chunk bodies are captured and rethrown on the
//     calling thread; when several chunks throw, the one covering the
//     lowest range wins, so the reported error is deterministic for any
//     chunk completion order;
//   * nested use is safe: a region body that issues pool work runs the
//     inner region inline on its own worker — the pool holds one job at a
//     time, and an inner posting would otherwise clobber it and deadlock
//     the outer join.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace uc::cm {

class ThreadPool {
 public:
  // thread_count == 0 means "one per hardware thread"; when the platform
  // cannot report its concurrency (hardware_concurrency() == 0 is a legal
  // return) the pool falls back to a single thread explicitly.
  explicit ThreadPool(unsigned thread_count = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned thread_count() const { return static_cast<unsigned>(workers_.size()) + 1; }

  // Jobs at or below this many elements run inline on the calling thread:
  // posting a job takes a mutex round-trip plus a condition-variable
  // broadcast (microseconds), which dwarfs the body work for tiny VP sets
  // and dominated per-statement cost on small-geometry programs.  The
  // cutoff applies on top of the caller's min_grain (whichever is larger).
  static constexpr std::int64_t kInlineCutoff = 256;

  // Calls fn(begin, end) on subranges covering [begin, end).  Blocks until
  // all subranges complete.  The caller's thread participates.
  void parallel_for(std::int64_t begin, std::int64_t end,
                    const std::function<void(std::int64_t, std::int64_t)>& fn,
                    std::int64_t min_grain = 1024);

  // Like parallel_for, but fn also receives a stable worker id in
  // [0, thread_count()): 0 is the calling thread, 1.. are pool workers.  At
  // most one chunk runs per worker id at a time, so callers can index
  // per-worker scratch state (arenas) without synchronisation.
  void parallel_for_indexed(
      std::int64_t begin, std::int64_t end,
      const std::function<void(unsigned, std::int64_t, std::int64_t)>& fn,
      std::int64_t min_grain = 1024);

  // ---- Utilization counters (host-side observability, docs/PROFILING.md).
  // Counters only ever grow; they do not affect scheduling, results, or
  // modeled cycles.  Read them between parallel regions (the pool is
  // quiescent then, so no synchronisation is needed on the reader side).
  // Nested (inline) regions are not counted: their chunks already execute
  // inside an outer counted region, and the counters are written by the
  // top-level issuing thread only.

  // Number of parallel_for / parallel_for_indexed regions
  // executed, including ones that ran inline on the calling thread.
  std::uint64_t jobs_executed() const { return jobs_executed_; }
  // Of jobs_executed(): regions that ran inline without posting to the
  // workers (single-threaded pool, or at most max(min_grain, kInlineCutoff)
  // elements).
  std::uint64_t inline_jobs() const { return inline_jobs_; }
  // Chunks executed by each worker id (0 = calling thread).  Imbalance
  // between entries is host-scheduling skew, invisible in modeled cycles.
  const std::vector<std::uint64_t>& chunks_per_worker() const {
    return chunks_per_worker_;
  }
  // Sum of chunks_per_worker() — cheap enough to snapshot per profile scope.
  std::uint64_t total_chunks() const {
    std::uint64_t sum = 0;
    for (auto c : chunks_per_worker_) sum += c;
    return sum;
  }

 private:
  struct Job {
    const std::function<void(unsigned, std::int64_t, std::int64_t)>* fn =
        nullptr;
    std::int64_t end = 0;
    std::int64_t grain = 1;
    std::int64_t next = 0;        // next unclaimed chunk start
    std::int64_t outstanding = 0; // chunks claimed but not finished
    std::uint64_t epoch = 0;
    std::exception_ptr error;
    std::int64_t error_begin = 0; // chunk_begin of the captured error
  };

  void worker_loop(unsigned worker_id);
  // Claims and runs chunks of the current job until none remain.
  void run_chunks(std::unique_lock<std::mutex>& lock, unsigned worker_id);

  std::mutex mu_;
  std::condition_variable work_cv_;  // signalled when a job is posted / quit
  std::condition_variable done_cv_;  // signalled when a job fully drains
  Job job_;
  bool quit_ = false;
  std::vector<std::thread> workers_;
  std::uint64_t jobs_executed_ = 0;  // issuing thread only
  std::uint64_t inline_jobs_ = 0;    // issuing thread only
  std::vector<std::uint64_t> chunks_per_worker_;  // slot per worker id
};

}  // namespace uc::cm
