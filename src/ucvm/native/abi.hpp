// ABI between the VM host and natively compiled lane kernels
// (docs/VM.md "Native tier").  A kernel compiled into a shared object
// exports two fixed symbols:
//
//   extern "C" void uc_native_entry(NativeArgs*);
//   extern "C" const NativeInfo uc_native_info;
//
// NativeArgs carries everything link-dependent — field pointers, coord
// tables, scalar snapshots, the chunk's [k_begin, k_end) slice of the
// active-lane list — so the emitted code bakes in only kernel-static
// facts (instruction sequence, register types, pool constants, operand
// table indices).  The same .so therefore stays valid across executions,
// processes and mappings, which is what makes the on-disk cache sound.
//
// The emitted source defines byte-identical mirrors of Value, Write and
// cm::AccessStats and static_asserts their sizes/offsets against numbers the
// emitter measured in the host process; a layout drift fails the emitted
// compile instead of corrupting memory.  NativeInfo carries the ABI
// version and the source hash so a stale or foreign cache entry is
// detected before the first call.
#pragma once

#include <cstdint>

namespace uc::vm::detail::native {

// Bump whenever NativeArgs / the mirrored host structs change shape.
inline constexpr std::uint32_t kAbiVersion = 3;

// Mirror of kernel::Engine's LinkedElem (resolved per execution).
struct NElem {
  const std::int64_t* vals = nullptr;
  std::int64_t k = 0;
  std::int64_t width = 0;
  std::int32_t depth = 0;
};

// Mirror of LinkedScalar: globals/frame scalars are snapshotted by value
// (writes are buffered, so the slot is stable for the whole statement);
// lane-locals pass their backing store (a host Value array) plus the
// space translation depth.
struct NScalar {
  std::int64_t i = 0;               // snapshot, int representation
  double f = 0.0;                   // snapshot, float representation
  const void* store = nullptr;      // lane-local: Value* backing store
  void* owner = nullptr;            // lane-local: owning LaneSpace*
  std::int64_t slot = 0;
  std::int32_t depth = 0;
  std::uint8_t home = 0;            // 0 global / 1 frame / 2 lane-local
};

// Mirror of LinkedArray's hot-loop caches.
struct NArray {
  const std::uint64_t* data = nullptr;
  const std::int64_t* owners = nullptr;     // cm::VpIndex
  const std::int64_t* vp_coords = nullptr;  // geom_matches: coord table
  const std::int64_t* adims = nullptr;
  const std::int64_t* astrides = nullptr;
  void* obj = nullptr;  // ArrayObj*, for WriteTarget records
  std::int64_t rank = 0;
  std::uint8_t mode = 0;  // 0 frontend / 1 local-replicated / 2 remote
  std::uint8_t geom_matches = 0;
  std::uint8_t slice = 0;
  std::uint8_t replicated = 0;
  std::uint8_t identity = 0;  // default layout: owners[e] == e
};

// Mirror of LinkedReduce (value pointers + sizes are link-dependent; the
// set count, fold operator and float-ness are kernel-static and baked
// into the emitted code).
struct NReduce {
  const std::int64_t* values[4] = {};
  std::int64_t sizes[4] = {};
  std::int64_t prod = 1;
  std::int64_t base_dims = 0;
  std::uint8_t suppress = 0;  // partition_optimized, set per statement
};

struct NativeArgs {
  // Chunk: positions [k_begin, k_end) of the active-lane list.
  std::int64_t k_begin = 0;
  std::int64_t k_end = 0;
  const std::int64_t* active = nullptr;

  // Statement space.
  const std::int64_t* vps = nullptr;
  const std::int64_t* coords = nullptr;  // lane-major, n_dims per lane
  std::int64_t n_dims = 0;
  const std::int64_t* const* parent_lanes = nullptr;  // [depth d] -> array
  std::int32_t max_depth = 0;

  // Linked operand tables (indexed by the kernel's operand slots).
  const NElem* elems = nullptr;
  const NScalar* scalars = nullptr;
  const NArray* arrays = nullptr;
  const NReduce* reduces = nullptr;

  // Outputs.  results is the host's Value array indexed by position kk, or
  // null when the host discards the statement's values;
  // writes points into the worker arena's write log, past the chunks the
  // worker already ran, with room for the kernel's writes_per_lane *
  // (k_end - k_begin) records that the kernel fills in place.
  void* results = nullptr;
  void* writes = nullptr;
  std::int64_t writes_count = 0;  // out: records actually appended
  void* stats = nullptr;          // cm::AccessStats[num_members]
  std::int64_t enabled = 0;       // out: lanes past kSelect

  // Error-site table: Inst::where pointers, indexed by emit-time constant.
  const void* const* wheres = nullptr;
  void* frame = nullptr;  // for kFrame write targets

  std::uint64_t stmt_id = 0;
  std::uint64_t base_seed = 0;
  std::uint64_t news_op = 0;
  std::uint64_t router_op = 0;

  // Out: nonzero when the kernel hit a condition it cannot report itself
  // (bounds error, division by zero, ...).  The host then discards the
  // buffered state and re-runs the statement on the bytecode engine,
  // which raises the identical error (errors are deterministic).
  std::int64_t error = 0;
};

struct NativeInfo {
  std::uint32_t abi_version = 0;
  std::uint32_t sizeof_args = 0;
  std::uint64_t source_hash = 0;
};

}  // namespace uc::vm::detail::native
