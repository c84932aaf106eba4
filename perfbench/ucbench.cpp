// ucbench — the benchmark's helper, driven by run.py.
//
//   ucbench gen   <workload> <seed> <out.uc>
//       Writes the workload's generated UC program and prints its
//       configuration and oracle checksum as one JSON line.
//   ucbench probe <workload> <seed> <native-cache-dir>
//       Runs the program once in-process on the native engine and prints
//       how many chunk dispatches went native (0 = the workload cannot be
//       measured as native on this host).
//   ucbench trace <workload> <seed> <seconds> <work-dir> <trace.json>
//       The traced run: repeats the workload through the public uc:: API
//       for about <seconds>, timing each layer's entry point as a span.
//       Writes the spans as Chrome trace JSON, prints the per-layer
//       self-time table, then one JSON line of per-layer metrics.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "cm/fault.hpp"
#include "cm/thread_pool.hpp"
#include "spans.hpp"
#include "uc/uc.hpp"
#include "uclang/frontend.hpp"
#include "workloads.hpp"

namespace {

namespace fs = std::filesystem;
using perfbench::Workload;

std::string json_string_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t k = 0; k < items.size(); ++k) {
    if (k != 0) out += ", ";
    out += "\"" + items[k] + "\"";
  }
  return out + "]";
}

uc::cm::MachineOptions machine_options(const Workload& w, bool faults = true) {
  uc::cm::MachineOptions m;
  m.host_threads = w.threads;
  if (faults && !w.faults.empty()) m.faults = uc::cm::parse_fault_spec(w.faults);
  return m;
}

uc::vm::ExecOptions exec_options(const Workload& w,
                                 const std::string& cache_dir) {
  uc::vm::ExecOptions e;
  e.engine = w.native ? uc::vm::ExecEngine::kNative
                      : uc::vm::ExecEngine::kBytecode;
  e.native_cache_dir = cache_dir;
  e.checkpoint_every = w.checkpoint_every;
  return e;
}

bool checksum_ok(const Workload& w, const uc::vm::RunResult& r) {
  std::int64_t got = 0;
  return perfbench::parse_checksum(r.output(), got) &&
         got == w.expected_checksum;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 != 0 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// A fresh, empty directory `base/name`.
std::string fresh_dir(const fs::path& base, const std::string& name) {
  const fs::path p = base / name;
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

// Size of the newest snapshot generation (highest ckpt-N.uck) in `dir`.
std::uint64_t newest_snapshot_bytes(const std::string& dir) {
  std::string newest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() == ".uck" && name > newest) newest = name;
  }
  return newest.empty() ? 0 : fs::file_size(fs::path(dir) / newest);
}

int cmd_gen(const std::string& name, std::uint64_t seed, const std::string& out) {
  const Workload w = perfbench::make_workload(name, seed);
  std::ofstream f(out, std::ios::binary);
  f << w.source;
  if (!f) {
    std::fprintf(stderr, "ucbench: cannot write '%s'\n", out.c_str());
    return 2;
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %llu, \"checksum\": %lld, "
      "\"native\": %s, \"threads\": %u, \"flags\": %s}\n",
      w.name.c_str(), static_cast<unsigned long long>(seed),
      static_cast<long long>(w.expected_checksum),
      w.native ? "true" : "false", w.threads,
      json_string_list(perfbench::ucc_flags(w)).c_str());
  return 0;
}

int cmd_probe(const std::string& name, std::uint64_t seed,
              const std::string& cache_dir) {
  const Workload w = perfbench::make_workload(name, seed);
  const auto program = uc::Program::compile(name + ".uc", w.source);
  uc::cm::Machine machine(machine_options(w, /*faults=*/false));
  const auto r = program.run_on(machine, exec_options(w, cache_dir));
  std::printf("{\"dispatches\": %llu}\n",
              static_cast<unsigned long long>(r.native_dispatches()));
  return 0;
}

// Cost of one pool region at the workload's thread count: a trivial
// one-store-per-lane body over the workload's lane count, chunked like a
// native kernel dispatch, averaged over many regions.
double forkjoin_us(unsigned threads, std::int64_t lanes) {
  constexpr int kRegions = 400;
  uc::cm::ThreadPool pool(threads);
  std::vector<std::int32_t> lane(static_cast<std::size_t>(lanes));
  const auto body = [&](std::int64_t b, std::int64_t e) {
    for (std::int64_t k = b; k < e; ++k) {
      lane[static_cast<std::size_t>(k)] = static_cast<std::int32_t>(k);
    }
  };
  pool.parallel_for(0, lanes, body, 1024);  // start the workers once
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < kRegions; ++r) pool.parallel_for(0, lanes, body, 1024);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(t1 - t0).count() / kRegions;
}

int cmd_trace(const std::string& name, std::uint64_t seed, double seconds,
              const fs::path& work, const std::string& trace_path) {
  const Workload w = perfbench::make_workload(name, seed);
  const std::string file = name + ".uc";
  perfbench::SpanRecorder rec;
  std::map<std::string, std::vector<double>> times;  // per-iteration samples
  std::map<std::string, double> counts;              // this iteration's
  std::map<std::string, double> first_counts;        // the first iteration's
  std::uint64_t iterations = 0, failed = 0, first_cycles = 0;
  const std::string warm_cache = fresh_dir(work, "cache-warm");

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  do {
    const std::uint64_t run = iterations++;
    bool ok = true;
    perfbench::SpanScope root(rec, "workload.run", run);

    {
      perfbench::SpanScope s(rec, "uclang.compile", run);
      const auto unit = uc::lang::compile(file, w.source);
      times["uclang.compile_ms"].push_back(s.close());
      ok = ok && unit->ok();
    }
    uc::Program program = [&] {
      perfbench::SpanScope s(rec, "uc.compile", run);
      auto p = uc::Program::compile(file, w.source);
      times["uc.compile_ms"].push_back(s.close());
      return p;
    }();

    // Cold: an empty kernel cache, so every kernel goes through the
    // toolchain.  Warm: the same cache, now full.
    double cold_ms = 0.0;
    std::string cache = warm_cache;
    if (w.native) {
      cache = fresh_dir(work, "cache-cold");
      uc::cm::Machine machine(machine_options(w));
      perfbench::SpanScope s(rec, "native.cold_run_on", run);
      const auto r = program.run_on(machine, exec_options(w, cache));
      cold_ms = s.close();
      counts["native.kernels_compiled"] =
          static_cast<double>(r.native_kernels_compiled());
      ok = ok && checksum_ok(w, r);
    }

    uc::cm::Machine machine(machine_options(w));
    perfbench::SpanScope warm_span(rec, "ucvm.run_on", run);
    const auto r = program.run_on(machine, exec_options(w, cache));
    const double warm_ms = warm_span.close();
    times["ucvm.run_ms"].push_back(warm_ms);
    if (w.native) times["native.build_s"].push_back((cold_ms - warm_ms) / 1e3);
    ok = ok && checksum_ok(w, r);
    if (first_cycles == 0) first_cycles = r.stats().cycles;
    ok = ok && r.stats().cycles == first_cycles;

    const auto& st = r.stats();
    counts["native.cache_hits"] = static_cast<double>(r.native_cache_hits());
    counts["native.dispatches"] = static_cast<double>(r.native_dispatches());
    counts["native.fallbacks"] = static_cast<double>(r.native_fallbacks());
    counts["cm.vector_ops"] = static_cast<double>(st.vector_ops);
    counts["cm.news_ops"] = static_cast<double>(st.news_ops);
    counts["cm.router_ops"] = static_cast<double>(st.router_ops);
    counts["cm.router_messages"] = static_cast<double>(st.router_messages);
    counts["cm.reductions"] = static_cast<double>(st.reductions);
    counts["cm.global_ors"] = static_cast<double>(st.global_ors);
    counts["cm.faults"] = static_cast<double>(st.faults);
    counts["cm.retries"] = static_cast<double>(st.retries);
    counts["cm.plan_hits"] = static_cast<double>(st.plan_hits);
    counts["ckpt.captures"] = static_cast<double>(st.checkpoints);
    counts["ckpt.rollbacks"] = static_cast<double>(st.rollbacks);

    // Per-site attribution, under the same configuration as the warm run.
    {
      uc::ProfileOptions popts;
      popts.machine = machine_options(w);
      popts.exec = exec_options(w, cache);
      popts.join_static = false;  // time the attribution, not the analysis
      perfbench::SpanScope s(rec, "prof.profile", run);
      const auto prof = program.profile(popts);
      const double prof_ms = s.close();
      times["trace.overhead_ratio"].push_back(ratio(prof_ms, warm_ms));
      ok = ok && !prof.aborted && prof.run.output() == r.output();

      double stmts = 0, bytecode = 0, fused = 0, walk = 0;
      std::uint64_t hot_ns = 0, total_ns = 0;
      for (const auto& site : prof.sites) {
        if (site.kind == "stmt") stmts += static_cast<double>(site.entries);
        bytecode += static_cast<double>(site.bytecode_stmts);
        fused += static_cast<double>(site.fused_stmts);
        walk += static_cast<double>(site.walk_stmts);
        hot_ns = std::max(hot_ns, site.self_wall_ns);
        total_ns += site.self_wall_ns;
      }
      counts["ucvm.stmts"] = stmts;
      counts["kernel.bytecode_stmts"] = bytecode;
      counts["kernel.fused_stmts"] = fused;
      counts["kernel.walk_stmts"] = walk;
      counts["kernel.fused_ratio"] = ratio(fused, bytecode);
      counts["cm.plan_hit_ratio"] = ratio(counts["cm.plan_hits"], stmts);
      times["ucvm.hot_site_ms"].push_back(static_cast<double>(hot_ns) / 1e6);
      times["ucvm.hot_site_share"].push_back(
          ratio(static_cast<double>(hot_ns), static_cast<double>(total_ns)));
      std::uint64_t chunks = 0;
      for (auto c : prof.pool.chunks) chunks += c;
      counts["pool.regions"] = static_cast<double>(prof.pool.jobs);
      counts["pool.chunks"] = static_cast<double>(chunks);
    }

    // Checkpoint layer costs, faults off: no captures vs in-memory captures
    // vs captures also persisted to a fresh directory (the durable write
    // path, kept out of the end-to-end runs because fsync latency on a
    // shared disk swamps everything else in them).
    if (w.checkpoint_every != 0) {
      double ms[3] = {0, 0, 0};
      const char* names[3] = {"ckpt.off", "ckpt.memory", "ckpt.durable"};
      for (int k = 0; k < 3; ++k) {
        uc::cm::Machine m(machine_options(w, /*faults=*/false));
        auto e = exec_options(w, cache);
        if (k == 0) e.checkpoint_every = 0;
        if (k == 2) e.checkpoint_dir = fresh_dir(work, "ckpt");
        perfbench::SpanScope s(rec, names[k], run);
        const auto rk = program.run_on(m, e);
        ms[k] = s.close();
        ok = ok && checksum_ok(w, rk);
        if (k == 2) {
          counts["ckpt.durable_writes"] =
              static_cast<double>(rk.stats().durable_checkpoints);
          counts["ckpt.snapshot_bytes"] =
              static_cast<double>(newest_snapshot_bytes(e.checkpoint_dir));
        }
      }
      times["ckpt.capture_ms"].push_back(ms[1] - ms[0]);
      times["ckpt.durable_ms"].push_back(ms[2] - ms[1]);
    }

    {
      perfbench::SpanScope s(rec, "pool.forkjoin", run);
      times["pool.forkjoin_us"].push_back(forkjoin_us(w.threads, w.lanes));
    }
    // Every count is deterministic for a seed: each iteration repeats the
    // first exactly.
    if (run == 0) first_counts = counts;
    ok = ok && counts == first_counts;
    if (!ok) ++failed;
  } while (std::chrono::steady_clock::now() < deadline);

  std::map<std::string, double> metrics = counts;
  for (const auto& [key, samples] : times) metrics[key] = median(samples);
  metrics["native.dispatch_ratio"] =
      ratio(metrics["native.dispatches"],
            metrics["native.dispatches"] + metrics["native.fallbacks"]);
  for (const char* key :
       {"native.build_s", "native.kernels_compiled", "ckpt.capture_ms",
        "ckpt.durable_ms", "ckpt.durable_writes", "ckpt.snapshot_bytes"}) {
    metrics.try_emplace(key, 0.0);  // layers this workload leaves idle
  }

  std::ofstream(trace_path, std::ios::binary) << rec.chrome_json();
  const auto self = rec.self_ms();
  double total = 0;
  for (const auto& [span, ms] : self) total += ms;
  std::printf("per-layer self time (ms per traced run), %s seed %llu, "
              "%llu runs:\n",
              name.c_str(), static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(iterations));
  for (const auto& [span, ms] : self) {
    std::printf("  %-22s %12.3f ms  %5.1f%%\n", span.c_str(),
                ms / static_cast<double>(iterations), 100.0 * ratio(ms, total));
  }
  std::string line = "{\"iterations\": " + std::to_string(iterations) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"cycles\": " + std::to_string(first_cycles) +
                     ", \"metrics\": {";
  bool first = true;
  for (const auto& [key, value] : metrics) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s\"%s\": %.17g", first ? "" : ", ",
                  key.c_str(), value);
    line += buf;
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: ucbench gen <workload> <seed> <out.uc>\n"
               "       ucbench probe <workload> <seed> <native-cache-dir>\n"
               "       ucbench trace <workload> <seed> <seconds> <work-dir> "
               "<trace.json>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string cmd = argv[1];
  const std::string name = argv[2];
  const std::uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  try {
    if (cmd == "gen" && argc == 5) return cmd_gen(name, seed, argv[4]);
    if (cmd == "probe" && argc == 5) return cmd_probe(name, seed, argv[4]);
    if (cmd == "trace" && argc == 7) {
      return cmd_trace(name, seed, std::strtod(argv[4], nullptr), argv[5],
                       argv[6]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ucbench: %s\n", e.what());
    return 1;
  }
  return usage();
}
