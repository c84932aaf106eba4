// Native-tier backend: emit -> hash -> on-disk .so cache -> out-of-process
// compile -> dlopen (docs/VM.md "Native tier").
//
// The cache key is the hash of the emitted source text combined with the
// compiler command line and the ABI version, so a change to any of the
// three produces a different file name; stale entries are additionally
// caught by validating the uc_native_info symbol after dlopen.  Compiles
// write to a temp path and rename into place, so concurrent processes
// sharing a cache directory race benignly (last rename wins, both files
// are identical).  The cache misses of one prepare call compile
// concurrently, so a cold run waits for its slowest kernel, not their sum.
#include "ucvm/native/native.hpp"

#include <dlfcn.h>
#include <sched.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>

#include "support/hash.hpp"

namespace uc::vm::detail::native {

namespace fs = std::filesystem;

namespace {

// Lines of a failed compile's stderr quoted in the toolchain notice.
constexpr int kErrorLines = 4;

std::string default_cache_dir() {
  if (const char* env = std::getenv("UC_NATIVE_CACHE_DIR");
      env != nullptr && *env != '\0') {
    return env;
  }
  std::error_code ec;
  fs::path base = fs::temp_directory_path(ec);
  if (ec) base = "/tmp";
  return (base / ("uc-native-cache-" + std::to_string(::getuid()))).string();
}

std::string default_cc() {
  if (const char* env = std::getenv("UC_NATIVE_CC");
      env != nullptr && *env != '\0') {
    return env;
  }
  return "c++";
}

std::string shell_quote(const std::string& s) {
  std::string q = "'";
  for (char c : s) {
    if (c == '\'') {
      q += "'\\''";
    } else {
      q += c;
    }
  }
  q += "'";
  return q;
}

}  // namespace

Backend::Backend(BackendOptions opts)
    : cache_dir_(opts.cache_dir.empty() ? default_cache_dir()
                                        : opts.cache_dir),
      cc_(opts.cc.empty() ? default_cc() : opts.cc),
      log_(std::move(opts.log)) {
  // -ffp-contract=off matters: the default (fast) lets the compiler fuse
  // a*b+c into fma, which changes float results by one rounding step and
  // would break bit-identity with the bytecode tier.
  extra_flags_ =
      "-std=c++17 -O3 -fPIC -shared -fvisibility=hidden -ffp-contract=off";
  std::error_code ec;
  fs::create_directories(cache_dir_, ec);
  cache_dir_ok_ = !ec && fs::is_directory(cache_dir_, ec);
  if (!cache_dir_ok_) {
    note("native: cache directory '" + cache_dir_ +
         "' is unusable; native tier disabled");
    toolchain_ok_ = false;
  }
}

Backend::~Backend() {
  cache_.clear();
  for (void* h : handles_) {
    if (h != nullptr) ::dlclose(h);
  }
}

void Backend::note(const std::string& msg) const {
  if (log_) {
    log_(msg);
  } else {
    std::fprintf(stderr, "ucvm: %s\n", msg.c_str());
  }
}

const Prepared* Backend::prepare(const kernel::Kernel& k) {
  auto it = cache_.find(&k);
  if (it == cache_.end()) {
    prepare(std::vector<const kernel::Kernel*>{&k});
    it = cache_.find(&k);
  }
  return it->second.get();
}

void Backend::prepare(const std::vector<const kernel::Kernel*>& ks) {
  // Emit and key every kernel not seen yet.  Kernels wait in `pending`
  // until their object is loaded; `misses` holds one compile per object
  // that is neither loaded already nor valid on disk.
  std::vector<std::pair<const kernel::Kernel*, std::unique_ptr<Prepared>>>
      pending;
  std::vector<Compile> misses;
  for (const kernel::Kernel* k : ks) {
    auto [slot, fresh] = cache_.try_emplace(k);  // nullptr = negative entry
    if (!fresh || !toolchain_ok_) continue;
    auto prep = std::make_unique<Prepared>();
    std::string source = emit_source(*k, *prep);
    if (source.empty()) {
      ++emit_declined_;
      continue;
    }
    // Key: source text x compiler command line x ABI version.
    std::uint64_t hash = support::fnv1a(source);
    hash = support::fnv1a(cc_, hash);
    hash = support::fnv1a(extra_flags_, hash);
    hash = support::fnv1a_u64(kAbiVersion, hash);
    prep->source_hash = hash;
    pending.emplace_back(k, std::move(prep));
    const auto same = [hash](const Compile& c) { return c.hash == hash; };
    if (objects_.count(hash) != 0 || std::ranges::any_of(misses, same)) {
      continue;
    }

    char name[32];
    std::snprintf(name, sizeof name, "uc_%016llx",
                  static_cast<unsigned long long>(hash));
    const std::string so_path = cache_dir_ + "/" + name + ".so";
    std::error_code ec;
    if (fs::exists(so_path, ec)) {
      if (auto entry = load(so_path, hash, /*expect_valid=*/true)) {
        objects_[hash] = entry;
        ++cache_hits_;
        continue;
      }
      fs::remove(so_path, ec);  // corrupt/stale: rebuild below
    }
    const std::string pid = std::to_string(::getpid());
    Compile job;
    job.hash = hash;
    job.source = std::move(source);
    job.so_path = so_path;
    job.src_path = cache_dir_ + "/" + name + "." + pid + ".cpp";
    job.tmp_path = so_path + "." + pid + ".tmp";
    job.err_path = cache_dir_ + "/" + name + "." + pid + ".err";
    misses.push_back(std::move(job));
  }

  // Write every miss's source, then build them all.
  for (Compile& job : misses) {
    if (!toolchain_ok_) break;
    std::ofstream out(job.src_path, std::ios::binary | std::ios::trunc);
    out << job.source;
    if (!out) {
      note("native: cannot write '" + job.src_path +
           "'; native tier disabled");
      toolchain_ok_ = false;
    }
  }
  if (toolchain_ok_ && !misses.empty()) compile_all(misses);
  for (Compile& job : misses) {
    std::error_code ec;
    fs::remove(job.src_path, ec);
    if (!job.ok) continue;
    fs::rename(job.tmp_path, job.so_path, ec);
    if (ec) {
      fs::remove(job.tmp_path, ec);
      note("native: cannot move compiled object into '" + job.so_path + "'");
      continue;
    }
    if (auto entry = load(job.so_path, job.hash, /*expect_valid=*/false)) {
      objects_[job.hash] = entry;
      ++kernels_compiled_;
      continue;
    }
    note("native: freshly compiled object '" + job.so_path +
         "' failed to load; native tier disabled");
    toolchain_ok_ = false;
  }

  for (auto& [k, prep] : pending) {
    auto obj = objects_.find(prep->source_hash);
    if (obj == objects_.end()) continue;
    prep->entry = obj->second;
    cache_[k] = std::move(prep);
  }
}

Prepared::EntryFn Backend::load(const std::string& so_path,
                                std::uint64_t hash, bool expect_valid) {
  void* handle = ::dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) return nullptr;
  const auto* info =
      static_cast<const NativeInfo*>(::dlsym(handle, "uc_native_info"));
  void* entry = ::dlsym(handle, "uc_native_entry");
  if (info == nullptr || entry == nullptr ||
      info->abi_version != kAbiVersion ||
      info->sizeof_args != sizeof(NativeArgs) || info->source_hash != hash) {
    if (expect_valid) {
      note("native: cached object '" + so_path +
           "' is stale or corrupt; recompiling");
    }
    ::dlclose(handle);
    return nullptr;
  }
  handles_.push_back(handle);
  return reinterpret_cast<Prepared::EntryFn>(entry);
}

void Backend::compile_all(std::vector<Compile>& jobs) {
  ++compile_batches_;
  // One toolchain process per job, at most one per CPU this process may
  // run on; the calling thread works through the queue too.
  std::size_t cpus = 1;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof set, &set) == 0) {
    cpus = static_cast<std::size_t>(std::max(CPU_COUNT(&set), 1));
  }
  std::atomic<std::size_t> next{0};
  const auto work = [&] {
    for (std::size_t j; (j = next.fetch_add(1)) < jobs.size();) {
      try {
        run_compile(jobs[j]);
      } catch (const std::exception& e) {
        jobs[j].ok = false;
        jobs[j].errors = e.what();
      }
    }
  };
  std::vector<std::thread> helpers;
  try {
    while (helpers.size() + 1 < std::min(cpus, jobs.size())) {
      helpers.emplace_back(work);
    }
  } catch (const std::system_error&) {
    // No more threads: the ones running and this one share the queue.
  }
  work();
  for (std::thread& t : helpers) t.join();

  for (Compile& job : jobs) {
    if (job.ok) continue;
    toolchain_ok_ = false;
    if (warned_toolchain_) continue;
    warned_toolchain_ = true;
    std::string msg = "native: host toolchain '" + cc_ +
                      "' cannot build lane kernels; falling back to the "
                      "bytecode engine (set --native-cc or $UC_NATIVE_CC)\n"
                      "  command: " + job.command;
    // The first lines of the compiler's complaint.
    std::istringstream lines(job.errors);
    std::string line;
    for (int n = 0; n < kErrorLines && std::getline(lines, line); ++n) {
      msg += "\n  " + line;
    }
    note(msg);
  }
}

// Runs on a compile_all worker: touches nothing but `job`.
void Backend::run_compile(Compile& job) const {
  // The emitted code needs its own hash for uc_native_info; it goes in as
  // a macro so the text itself stays hash-stable.
  char hash_def[64];
  std::snprintf(hash_def, sizeof hash_def, "-DUC_SOURCE_HASH=0x%016llxull",
                static_cast<unsigned long long>(job.hash));
  auto run = [&](bool march_native) {
    std::ostringstream cmd;
    cmd << cc_ << ' ' << extra_flags_;
    if (march_native) cmd << " -march=native";
    cmd << ' ' << hash_def << ' ' << shell_quote(job.src_path) << " -o "
        << shell_quote(job.tmp_path);
    job.command = cmd.str();
    cmd << " 2>" << shell_quote(job.err_path);
    return std::system(cmd.str().c_str()) == 0;
  };
  // -march=native unlocks the wide vector units; some toolchains reject it
  // (cross compilers, old assemblers), so retry portably before declaring
  // the toolchain broken.
  job.ok = run(/*march_native=*/true) || run(/*march_native=*/false);
  std::error_code ec;
  if (!job.ok) {
    std::ifstream err(job.err_path, std::ios::binary);
    std::ostringstream text;
    text << err.rdbuf();
    job.errors = text.str();
    fs::remove(job.tmp_path, ec);
  }
  fs::remove(job.err_path, ec);
}

}  // namespace uc::vm::detail::native
