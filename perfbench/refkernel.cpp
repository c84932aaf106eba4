// ucref — the benchmark's fixed reference kernel.
//
//   ucref <threads>
//
// Does the same fixed work on each of <threads> threads and prints a
// checksum.  run.py times one ucref process before every timed `ucc run`
// and reports each run's wall time as a multiple of the ucref time next to
// it, which takes out the minute-to-minute speed of a shared host.  The work
// resembles a `ucc run`: fresh pages from the kernel (faults and zeroing),
// gather/min lane loops like a native router round, and a switch-dispatched
// float loop like the bytecode engine.  It depends on nothing in src/, so a
// change to the program under test never changes the reference.
#include <sys/mman.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

namespace {

constexpr std::size_t kLanes = 36864;
constexpr int kRounds = 100;
constexpr std::size_t kPageBytes = 3u << 20;

std::uint64_t lane_rounds(std::uint32_t seed) {
  std::vector<std::uint32_t> idx(kLanes);
  for (auto& v : idx) {
    seed = seed * 1664525u + 1013904223u;
    v = seed % kLanes;
  }
  std::uint64_t acc = 0;
  for (int r = 0; r < kRounds; ++r) {
    void* m = mmap(nullptr, kPageBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (m == MAP_FAILED) std::abort();
    auto* p = static_cast<std::int64_t*>(m);
    const std::size_t n = kPageBytes / sizeof(std::int64_t);
    for (std::size_t i = 0; i < n; i += 512) p[i] = static_cast<std::int64_t>(i) + r;
    for (int k = 0; k < 6; ++k)
      for (std::size_t i = 0; i < kLanes; ++i) {
        const std::int64_t a = p[(idx[i] * 8) % n], b = p[i * 4 % n];
        p[i * 2 % n] = (a < b ? a : b) + k;
      }
    acc += static_cast<std::uint64_t>(p[r % n]);
    munmap(m, kPageBytes);
  }
  return acc;
}

// A tiny register machine over float lanes: one 5-point-stencil-like
// sweep per round, dispatched op by op.
std::uint64_t bytecode_rounds() {
  enum Op : std::uint8_t { kLoadL, kLoadR, kAdd, kScale, kStore };
  static const Op prog[] = {kLoadL, kLoadR, kAdd, kScale, kStore};
  std::vector<float> u(kLanes / 2), v(kLanes / 2);
  for (std::size_t i = 0; i < u.size(); ++i) u[i] = static_cast<float>(i % 97);
  for (int r = 0; r < kRounds / 2; ++r) {
    for (std::size_t i = 1; i + 1 < u.size(); ++i) {
      float a = 0, b = 0;
      for (Op op : prog) {
        switch (op) {
          case kLoadL: a = u[i - 1]; break;
          case kLoadR: b = u[i + 1]; break;
          case kAdd: a += b; break;
          case kScale: a *= 0.5f; break;
          case kStore: v[i] = a; break;
        }
      }
    }
    u.swap(v);
  }
  double sum = 0;
  for (float x : u) sum += x;
  return static_cast<std::uint64_t>(sum);
}

}  // namespace

int main(int argc, char** argv) {
  const int threads = argc > 1 ? std::atoi(argv[1]) : 1;
  if (threads < 1 || threads > 64) {
    std::fprintf(stderr, "usage: ucref <threads 1..64>\n");
    return 2;
  }
  std::vector<std::uint64_t> sums(threads);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&sums, t] {
      sums[t] = lane_rounds(12345u + t) + bytecode_rounds();
    });
  for (auto& th : pool) th.join();
  std::uint64_t total = 0;
  for (auto s : sums) total += s;
  std::printf("%llu\n", static_cast<unsigned long long>(total));
  return 0;
}
