// The native lane-kernel tier (docs/VM.md "Native tier"): lowers bytecode
// Kernels to C++ source, compiles them out-of-process with the host
// toolchain into shared objects, and dlopens the result.  The Backend
// owns the emit -> cache -> compile -> load pipeline and the per-Kernel
// prepared-program cache; dispatch (building NativeArgs from the link
// tables and running chunks on the thread pool) stays in kernel::Engine,
// which is the only code that can see the linked operand state.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ucvm/kernel/bytecode.hpp"
#include "ucvm/native/abi.hpp"

namespace uc::vm::detail::native {

// A kernel lowered, compiled and loaded: the entry point plus the
// kernel-static metadata the host needs to dispatch.
struct Prepared {
  using EntryFn = void (*)(NativeArgs*);
  EntryFn entry = nullptr;
  std::uint64_t source_hash = 0;
  // Inst::where pointers in emission order (indexed by the constants the
  // emitted code passes back); pointers are process-local, so they travel
  // via NativeArgs rather than being baked into the cached .so.
  std::vector<const lang::Expr*> wheres;
  std::uint32_t num_members = 1;
};

struct BackendOptions {
  std::string cache_dir;  // empty: $UC_NATIVE_CACHE_DIR or a /tmp default
  std::string cc;         // empty: $UC_NATIVE_CC or "c++"
  std::function<void(const std::string&)> log;  // may be null
};

class Backend {
 public:
  explicit Backend(BackendOptions opts);
  ~Backend();
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  // Emits, loads or compiles every kernel of `ks` not prepared yet, cached
  // per Kernel pointer (kernels are owned by the VM's lane plan, so the
  // pointer is stable).  The cache misses compile together: one toolchain
  // process per distinct object, at most as many at once as the process
  // has CPUs, and kernels whose sources hash the same share one object.
  // A kernel the emitter declines, or one left unbuilt by a missing or
  // broken toolchain, gets a negative entry.
  void prepare(const std::vector<const kernel::Kernel*>& ks);
  // The prepared entry of `k`, prepared alone (a batch of one) when no
  // batch covered it; nullptr when the caller must run the kernel on the
  // bytecode tier.
  const Prepared* prepare(const kernel::Kernel& k);

  bool toolchain_ok() const { return toolchain_ok_; }
  const std::string& cache_dir() const { return cache_dir_; }

  // Counters for tests, bench/vm_engine and RunResult introspection.
  // kernels_compiled and cache_hits count objects: kernels that share an
  // object count once.
  std::uint64_t kernels_compiled() const { return kernels_compiled_; }
  std::uint64_t cache_hits() const { return cache_hits_; }
  std::uint64_t emit_declined() const { return emit_declined_; }
  std::uint64_t dispatches() const { return dispatches_; }
  // Batches that started at least one toolchain process.
  std::uint64_t compile_batches() const { return compile_batches_; }
  void note_dispatch() { ++dispatches_; }

 private:
  // One toolchain run: the sh -c command line and what became of it.
  struct Compile {
    std::uint64_t hash = 0;
    std::string source;
    std::string so_path;
    std::string src_path;
    std::string tmp_path;
    std::string err_path;
    std::string command;  // the last command run
    std::string errors;   // its stderr, when it failed
    bool ok = false;
  };
  Prepared::EntryFn load(const std::string& so_path, std::uint64_t hash,
                         bool expect_valid);
  void compile_all(std::vector<Compile>& jobs);
  void run_compile(Compile& job) const;
  void note(const std::string& msg) const;

  std::string cache_dir_;
  std::string cc_;
  std::string extra_flags_;
  std::function<void(const std::string&)> log_;
  bool cache_dir_ok_ = false;
  bool toolchain_ok_ = true;       // until a compile fails structurally
  bool warned_toolchain_ = false;  // loud notice printed once
  std::unordered_map<const kernel::Kernel*, std::unique_ptr<Prepared>> cache_;
  // Entry points of the objects loaded so far, by source hash.
  std::unordered_map<std::uint64_t, Prepared::EntryFn> objects_;
  std::vector<void*> handles_;  // dlclosed on destruction
  std::uint64_t kernels_compiled_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t emit_declined_ = 0;
  std::uint64_t dispatches_ = 0;
  std::uint64_t compile_batches_ = 0;
};

// Lowers `k` to a self-contained C++ translation unit implementing
// uc_native_entry/uc_native_info, filling the kernel-static metadata in
// `out`.  Returns an empty string when the kernel is past the emitter's
// size limits or has a store inside a reduction's tuple loop — the caller
// falls back to bytecode.  The source text is a pure function of the
// kernel, so its hash keys the .so cache.
std::string emit_source(const kernel::Kernel& k, Prepared& out);

}  // namespace uc::vm::detail::native
