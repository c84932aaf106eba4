#include "cm/thread_pool.hpp"

#include <algorithm>

namespace uc::cm {

namespace {

// Per-thread region state.  tls_in_region marks "this thread is currently
// executing a chunk body"; tls_worker_id is the id that body runs under.
// Nested regions consult both: they execute inline on the current thread
// and keep reporting the outer worker id, so per-worker scratch (kernel
// arenas) stays exclusive to one thread even across nesting.
thread_local bool tls_in_region = false;
thread_local unsigned tls_worker_id = 0;

class RegionGuard {
 public:
  explicit RegionGuard(unsigned worker_id)
      : prev_in_(tls_in_region), prev_id_(tls_worker_id) {
    tls_in_region = true;
    tls_worker_id = worker_id;
  }
  ~RegionGuard() {
    tls_in_region = prev_in_;
    tls_worker_id = prev_id_;
  }
  RegionGuard(const RegionGuard&) = delete;
  RegionGuard& operator=(const RegionGuard&) = delete;

 private:
  bool prev_in_;
  unsigned prev_id_;
};

}  // namespace

ThreadPool::ThreadPool(unsigned thread_count) {
  if (thread_count == 0) {
    thread_count = std::thread::hardware_concurrency();
    if (thread_count == 0) {
      // hardware_concurrency() may legally return 0 ("not computable");
      // fall back to a single-threaded pool rather than spawning a
      // 0-worker pool with an empty counter table.
      thread_count = 1;
    }
  }
  // The calling thread participates in parallel_for (as worker 0), so
  // spawn one fewer; pool workers take ids 1..thread_count-1.
  chunks_per_worker_.assign(thread_count, 0);
  for (unsigned i = 1; i < thread_count; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    quit_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::parallel_for(
    std::int64_t begin, std::int64_t end,
    const std::function<void(std::int64_t, std::int64_t)>& fn,
    std::int64_t min_grain) {
  parallel_for_indexed(
      begin, end,
      [&fn](unsigned, std::int64_t b, std::int64_t e) { fn(b, e); },
      min_grain);
}

void ThreadPool::parallel_for_indexed(
    std::int64_t begin, std::int64_t end,
    const std::function<void(unsigned, std::int64_t, std::int64_t)>& fn,
    std::int64_t min_grain) {
  if (begin >= end) return;
  if (tls_in_region) {
    // Nested region: the pool holds one job at a time, so posting from
    // inside a chunk body would clobber the outer job and deadlock its
    // join.  Run inline under the current worker id; counters are owned
    // by the top-level issuing thread and are left alone.
    fn(tls_worker_id, begin, end);
    return;
  }
  ++jobs_executed_;
  const std::int64_t n = end - begin;
  // Small-job fast path: below the cutoff the fork-join handshake costs
  // more than the body, so run the whole range inline as worker 0.
  if (workers_.empty() || n <= std::max(min_grain, kInlineCutoff)) {
    ++inline_jobs_;
    ++chunks_per_worker_[0];
    RegionGuard guard(0);
    fn(0, begin, end);
    return;
  }
  // Aim for a few chunks per worker so stragglers re-balance.
  const auto nthreads = static_cast<std::int64_t>(workers_.size()) + 1;
  const std::int64_t grain =
      std::max<std::int64_t>(min_grain, n / (nthreads * 4));

  std::unique_lock<std::mutex> lock(mu_);
  job_.fn = &fn;
  job_.end = end;
  job_.grain = grain;
  job_.next = begin;
  job_.outstanding = 0;
  job_.error = nullptr;
  job_.error_begin = 0;
  ++job_.epoch;
  lock.unlock();
  work_cv_.notify_all();

  lock.lock();
  run_chunks(lock, /*worker_id=*/0);
  done_cv_.wait(lock, [this] {
    return job_.next >= job_.end && job_.outstanding == 0;
  });
  job_.fn = nullptr;
  auto error = job_.error;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

void ThreadPool::run_chunks(std::unique_lock<std::mutex>& lock,
                            unsigned worker_id) {
  while (job_.fn != nullptr && job_.next < job_.end) {
    const std::int64_t chunk_begin = job_.next;
    const std::int64_t chunk_end =
        std::min(job_.end, chunk_begin + job_.grain);
    job_.next = chunk_end;
    ++job_.outstanding;
    const auto* fn = job_.fn;
    lock.unlock();
    std::exception_ptr error;
    try {
      RegionGuard guard(worker_id);
      (*fn)(worker_id, chunk_begin, chunk_end);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    ++chunks_per_worker_[worker_id];
    // Keep the error from the lowest-indexed failing chunk, not the first
    // to finish: chunk completion order is scheduling-dependent, and the
    // rethrown error should be the same on every run (it is also what a
    // serial left-to-right execution would have hit first).
    if (error && (!job_.error || chunk_begin < job_.error_begin)) {
      job_.error = error;
      job_.error_begin = chunk_begin;
    }
    --job_.outstanding;
    if (job_.next >= job_.end && job_.outstanding == 0) {
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::worker_loop(unsigned worker_id) {
  std::unique_lock<std::mutex> lock(mu_);
  std::uint64_t seen_epoch = 0;
  for (;;) {
    work_cv_.wait(lock, [&] {
      return quit_ || (job_.fn != nullptr && job_.next < job_.end &&
                       job_.epoch != seen_epoch);
    });
    if (quit_) return;
    seen_epoch = job_.epoch;
    run_chunks(lock, worker_id);
  }
}

}  // namespace uc::cm
