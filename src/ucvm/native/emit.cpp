// Kernel -> C++ lowering for the native tier (docs/VM.md "Native tier").
//
// The bytecode Kernel is the IR: every instruction is emitted as the
// statically-typed C++ equivalent of the executor's switch arm in
// kernel/exec.cpp, so the two tiers cannot drift apart semantically.
// Registers become int64/double locals using the kernel's register types
// (kernel/typing.cpp, shared with the block executor).
//
// Emitted loops index lanes contiguously over the chunk, keep `st`
// guards as branches the host compiler converts to selects where
// profitable, and never bake process-local pointers into the text: all
// link-dependent state arrives through NativeArgs, which is what lets
// the compiled .so be cached on disk across processes.  A prologue copies
// every descriptor the kernel uses into const locals before the lane loop,
// and the access counters live in one local NStats per member that is
// added into the host's stats once per chunk, so no store in the loop can
// make the host compiler reload a descriptor field (docs/VM.md "Native
// tier").
#include <algorithm>
#include <cstdarg>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "ucvm/interp_detail.hpp"
#include "ucvm/native/native.hpp"

namespace uc::vm::detail::native {

namespace {

using kernel::Inst;
using kernel::Kernel;
using kernel::kFloat;
using kernel::kInt;
using kernel::kUnset;
using kernel::Op;
using kernel::RegType;
using lang::BinaryOp;
using lang::ReduceKind;
using lang::ScalarKind;
using lang::UnaryOp;

// Emission limits: beyond these the host compiler's time outweighs the
// dispatch win and the bytecode tier is the better choice.
constexpr std::size_t kMaxInsts = 4096;
constexpr std::size_t kMaxRegs = 2048;

struct ReduceMeta {
  std::size_t n_sets = 0;
  ReduceKind op = ReduceKind::kAdd;
  RegType acc = kInt;
  bool unrolled = false;
  std::int64_t sizes[kernel::kMaxReduceSets] = {};  // unrolled: set sizes
  std::int64_t prod = 1;                            // unrolled: tuple count
};

void appendf(std::string& s, const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  s += buf;
}

std::uint64_t dbl_bits(double d) {
  std::uint64_t b;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

class Emitter {
 public:
  Emitter(const Kernel& k, Prepared& out) : k_(k), out_(out) {}

  std::string run() {
    if (k_.code.size() > kMaxInsts || k_.num_regs > kMaxRegs) return {};
    if (!analyze()) return {};
    emit_prelude();
    emit_entry();
    return ok_ ? std::move(src_) : std::string{};
  }

 private:
  // --- static analysis: register types, reduce accumulators, limits ---

  bool analyze() {
    // Register types come from the kernel's shared typing pass.
    const kernel::KernelTypes& types = k_.types;
    rt_ = types.regs;
    rmeta_.resize(k_.reduces.size());
    for (std::size_t i = 0; i < k_.reduces.size(); ++i) {
      const auto* e = k_.reduces[i].expr;
      ReduceMeta& m = rmeta_[i];
      m.n_sets = e->index_set_syms.size();
      m.op = e->op;
      m.acc = types.acc[i];
      if (m.n_sets > kernel::kMaxReduceSets) return false;
      for (std::size_t s = 0; s < m.n_sets; ++s) {
        m.sizes[s] = static_cast<std::int64_t>(
            e->index_set_syms[s]->index_set->values.size());
        m.prod *= m.sizes[s];
      }
    }

    // Structural limits of the emitted loop: a lane's writes must be
    // bounded (no store inside a reduce loop), and reductions do not nest.
    if (k_.writes_per_lane < 0) return false;
    int cur_reduce = -1;
    for (const Inst& I : k_.code) {
      switch (I.op) {
        case Op::kReduceBegin:
          if (cur_reduce >= 0) return false;
          cur_reduce = static_cast<int>(I.a);
          rmeta_[I.a].unrolled = I.arg == 1;
          break;
        case Op::kReduceFold:
        case Op::kReduceSkipOthers:
        case Op::kReduceNext:
        case Op::kReduceTuple:
          if (cur_reduce < 0) return false;
          break;
        case Op::kReduceEnd:
          if (cur_reduce < 0) return false;
          cur_reduce = -1;
          break;
        case Op::kMemberBoundary:
          if (cur_reduce >= 0) return false;
          break;
        default:
          break;
      }
    }
    // Divisors that cannot overflow: registers whose one definition is an
    // int constant other than -1.
    std::vector<std::uint32_t> writes(k_.num_regs, 0);
    safe_divisor_.assign(k_.num_regs, false);
    for (const Inst& I : k_.code) {
      if (!kernel::writes_dst(I.op)) continue;
      ++writes[I.dst];
      safe_divisor_[I.dst] = writes[I.dst] == 1 && I.op == Op::kConst &&
                             !k_.pool[I.a].is_float && k_.pool[I.a].i != -1;
    }
    // Map each instruction to its live reduce (for classify call sites and
    // fold emission), collect jump-target labels, and note the operand
    // slots the prologue loads and the subscripts each array takes.
    inst_reduce_.assign(k_.code.size(), -1);
    labels_.assign(k_.code.size(), false);
    used_elems_.assign(k_.elems.size(), false);
    used_scalars_.assign(k_.scalars.size(), false);
    array_subs_.assign(k_.arrays.size(), -1);
    cur_reduce = -1;
    for (std::size_t ip = 0; ip < k_.code.size(); ++ip) {
      const Inst& I = k_.code[ip];
      if (I.op == Op::kReduceBegin) cur_reduce = static_cast<int>(I.a);
      inst_reduce_[ip] = cur_reduce;
      if (I.op == Op::kReduceEnd) cur_reduce = -1;
      if (I.jump >= 0) labels_[static_cast<std::size_t>(I.jump)] = true;
      switch (I.op) {
        case Op::kLoadElem:
          used_elems_[I.a] = true;
          break;
        case Op::kLoadScalar:
        case Op::kStoreScalar:
          used_scalars_[I.a] = true;
          break;
        case Op::kArrIndex:
        case Op::kArrGet:
          array_subs_[I.a] = std::max<int>(array_subs_[I.a], I.c);
          break;
        case Op::kArrLoad:
        case Op::kClassify:
        case Op::kBroadcastCheck:
        case Op::kArrStore:
        case Op::kArrPut:
          array_subs_[I.a] = std::max(array_subs_[I.a], 0);
          break;
        default:
          break;
      }
    }
    return true;
  }

  // --- text helpers ---
  // Built with append: GCC 12's -Wrestrict misfires on `"r" + string`.

  std::string R(std::uint16_t r) const {
    return std::string("r").append(std::to_string(r));
  }
  // Register as double (as_float) / as int64 (as_int).
  std::string F(std::uint16_t r) const {
    return rt_[r] == kFloat ? R(r) : std::string("(double)").append(R(r));
  }
  std::string I64(std::uint16_t r) const {
    return rt_[r] == kInt ? R(r) : "(i64)" + R(r);
  }
  std::string truthy(std::uint16_t r) const {
    return R(r) + (rt_[r] == kFloat ? " != 0.0" : " != 0");
  }
  std::size_t where_index(const lang::Expr* w) {
    out_.wheres.push_back(w);
    return out_.wheres.size() - 1;
  }
  std::string A(std::uint16_t site) const {
    return std::string("a").append(std::to_string(site));
  }
  std::string ST() const { return "st" + std::to_string(member_); }
  // Classification of an access to element `flat` of arrays[site]
  // (docs/VM.md "Read classification"): uc_classify, whose default-layout
  // case off the lane geometry is one compare against the lane's VP.  A
  // read at a plain site whose array also matches the lane geometry
  // compares its subscripts r[base .. base+n) with the lane's coordinates
  // inline instead.  A flat-only site (a write or compound read) passes
  // n = 0.  Reduce sites take uc_classify only: their expanded geometry
  // rarely matches an array, and each unrolled copy would repeat the
  // inline form.
  void classify(std::uint16_t site, const std::string& flat,
                std::uint16_t base = 0, std::uint16_t n = 0) {
    const std::int32_t red = k_.arrays[site].reduce;
    const std::string a = A(site);
    const std::string st = ST();
    const std::string call =
        "uc_classify(" + a + ", " + flat + ", " +
        (red >= 0 ? "rs_vp, rs_coords" : "lane_vp, lane_coords") +
        ", news_op, router_op, " + st + ");\n";
    if (red >= 0) {
      // Inside a partition-optimised reduction the send-with-combine
      // charge already paid for the access.
      appendf(src_, "      if (!R%d.suppress) %s", red, call.c_str());
      return;
    }
    if (n == 0) {
      src_ += "      " + call;
      return;
    }
    appendf(src_,
            "      if (%s.mode == 2 && %s.identity && %s.geom_matches) {\n"
            "        int diff = 0; i64 hops = 0;\n",
            a.c_str(), a.c_str(), a.c_str());
    for (std::uint16_t j = 0; j < n; ++j) {
      appendf(src_, "        uc_axis(%s, lane_coords[%u], diff, hops);\n",
              I64(base + j).c_str(), j);
    }
    appendf(src_,
            "        uc_tally(diff, hops, news_op, router_op, %s);\n"
            "      } else {\n"
            "        %s"
            "      }\n",
            st.c_str(), call.c_str());
  }
  void emit_value_store(const char* dst, std::uint16_t reg) {
    if (rt_[reg] == kFloat) {
      appendf(src_, "      %s.flt = true; %s.i = 0; %s.f = %s;\n", dst, dst,
              dst, R(reg).c_str());
    } else {
      appendf(src_, "      %s.flt = false; %s.i = %s; %s.f = 0.0;\n", dst,
              dst, R(reg).c_str(), dst);
    }
  }
  // flat = the element at subscripts r[base .. base+n) of arrays[site];
  // a rank mismatch or a subscript out of range raises.
  void emit_bounds(std::uint16_t site, std::uint16_t base, std::uint16_t n) {
    const std::string a = A(site);
    appendf(src_,
            "      if (%s.rank != %u) goto uc_error;\n"
            "      i64 flat = 0;\n",
            a.c_str(), static_cast<unsigned>(n));
    for (std::uint16_t j = 0; j < n; ++j) {
      appendf(src_,
              "      { const i64 ix = %s;\n"
              "        if ((u64)ix >= (u64)%s_dim%u) goto uc_error;\n"
              "        flat += ix * %s_stride%u; }\n",
              I64(base + j).c_str(), a.c_str(), j, a.c_str(), j);
    }
  }

  // --- prelude: mirrored host structs + helpers ---

  void emit_prelude() {
    src_ +=
        "// Generated lane kernel (uc native tier).  Do not edit: the\n"
        "// file name is a content hash and the VM regenerates it.\n"
        "typedef long long i64;\n"
        "typedef unsigned long long u64;\n"
        "static_assert(sizeof(i64) == 8 && sizeof(double) == 8 && "
        "sizeof(void*) == 8, \"uc native: unsupported host ABI\");\n"
        "struct NVal { bool flt; i64 i; double f; };\n"
        "struct NTarget { unsigned char kind; void* obj; i64 index; i64 lane;"
        " };\n"
        "struct NWrite { NTarget target; NVal value; const void* where; };\n"
        "struct NStats { u64 local, news, news_max_hops, router, frontend,"
        " broadcast; };\n";
    // Layout proofs against the host process that emitted this file.
    appendf(src_,
            "static_assert(sizeof(NVal) == %zu && "
            "__builtin_offsetof(NVal, i) == %zu && "
            "__builtin_offsetof(NVal, f) == %zu, \"Value layout\");\n",
            sizeof(Value), offsetof(Value, i), offsetof(Value, f));
    appendf(src_,
            "static_assert(sizeof(NWrite) == %zu && "
            "__builtin_offsetof(NWrite, value) == %zu && "
            "__builtin_offsetof(NWrite, where) == %zu, \"Write layout\");\n",
            sizeof(Write), offsetof(Write, value), offsetof(Write, where));
    appendf(src_,
            "static_assert(__builtin_offsetof(NTarget, obj) == %zu && "
            "__builtin_offsetof(NTarget, index) == %zu && "
            "__builtin_offsetof(NTarget, lane) == %zu, \"target layout\");\n",
            offsetof(WriteTarget, obj), offsetof(WriteTarget, index),
            offsetof(WriteTarget, lane));
    appendf(src_, "static_assert(sizeof(NStats) == %zu, \"stats layout\");\n",
            sizeof(cm::AccessStats));
    src_ +=
        "struct NElem { const i64* vals; i64 k; i64 width; int depth; };\n"
        "struct NScalar { i64 i; double f; const void* store; void* owner;\n"
        "  i64 slot; int depth; unsigned char home; };\n"
        "struct NArray { const u64* data; const i64* owners;\n"
        "  const i64* vp_coords; const i64* adims; const i64* astrides;\n"
        "  void* obj; i64 rank; unsigned char mode; unsigned char "
        "geom_matches;\n"
        "  unsigned char slice; unsigned char replicated;\n"
        "  unsigned char identity; };\n"
        "struct NReduce { const i64* values[4]; i64 sizes[4]; i64 prod;\n"
        "  i64 base_dims; unsigned char suppress; };\n"
        "struct NArgs {\n"
        "  i64 k_begin, k_end; const i64* active;\n"
        "  const i64* vps; const i64* coords; i64 n_dims;\n"
        "  const i64* const* parent_lanes; int max_depth;\n"
        "  const NElem* elems; const NScalar* scalars;\n"
        "  const NArray* arrays; const NReduce* reduces;\n"
        "  void* results; void* writes; i64 writes_count; void* stats;\n"
        "  i64 enabled;\n"
        "  const void* const* wheres; void* frame;\n"
        "  u64 stmt_id, base_seed, news_op, router_op;\n"
        "  i64 error;\n"
        "};\n";
    appendf(src_,
            "static_assert(sizeof(NElem) == %zu && sizeof(NScalar) == %zu && "
            "sizeof(NArray) == %zu && sizeof(NReduce) == %zu && "
            "sizeof(NArgs) == %zu, \"NativeArgs layout\");\n",
            sizeof(NElem), sizeof(NScalar), sizeof(NArray), sizeof(NReduce),
            sizeof(NativeArgs));
    src_ +=
        "static inline double uc_bits_f(u64 b) "
        "{ double d; __builtin_memcpy(&d, &b, 8); return d; }\n"
        "static inline i64 uc_bits_i(u64 b) "
        "{ i64 v; __builtin_memcpy(&v, &b, 8); return v; }\n"
        "static inline u64 uc_sm64(u64& s) {\n"
        "  u64 z = (s += 0x9e3779b97f4a7c15ull);\n"
        "  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;\n"
        "  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;\n"
        "  return z ^ (z >> 31);\n"
        "}\n"
        // Mirror of kernel::Engine's classification, decision for
        // decision: the one rule of cm/access.hpp written again as C text,
        // since a kernel .so includes no host header and its text is
        // pinned byte for byte (the on-disk cache keys on it).  The
        // owner-table walk is out of line: arrays under the default layout
        // never take it, and every access site would otherwise repeat it.
        "__attribute__((noinline)) static void uc_walk(const NArray& a,\n"
        "    i64 flat, i64 vp, const i64* coords, u64 news_op, u64 router_op,\n"
        "    NStats& st) {\n"
        "  const i64 owner = a.identity ? flat : a.owners[flat];\n"
        "  if (owner == vp) { ++st.local; return; }\n"
        "  if (a.slice) { ++st.router; return; }\n"
        "  if (a.geom_matches) {\n"
        "    const i64* oc = a.vp_coords + (u64)owner * (u64)a.rank;\n"
        "    int diff = 0; i64 hops = 0;\n"
        "    for (i64 d = 0; d < a.rank; ++d) {\n"
        "      if (oc[d] != coords[d]) { ++diff;\n"
        "        hops = oc[d] < coords[d] ? coords[d] - oc[d] : oc[d] - "
        "coords[d]; }\n"
        "    }\n"
        "    if (diff == 1 && (u64)hops * news_op <= router_op) {\n"
        "      ++st.news;\n"
        "      if ((u64)hops > st.news_max_hops) st.news_max_hops = "
        "(u64)hops;\n"
        "      return;\n"
        "    }\n"
        "  }\n"
        "  ++st.router;\n"
        "}\n"
        // Default layout off the lane geometry: element e lives on VP e
        // and NEWS is impossible, so one compare decides.
        "static inline void uc_classify(const NArray& a, i64 flat, i64 vp,\n"
        "    const i64* coords, u64 news_op, u64 router_op, NStats& st) {\n"
        "  if (a.mode == 0) { ++st.frontend; return; }\n"
        "  if (a.mode == 1) { ++st.local; return; }\n"
        "  if (a.identity && !a.geom_matches) {\n"
        "    if (flat == vp) ++st.local; else ++st.router;\n"
        "    return;\n"
        "  }\n"
        "  uc_walk(a, flat, vp, coords, news_op, router_op, st);\n"
        "}\n"
        // The closed form kArrGet inlines under the default layout: one
        // subscript against the lane's coordinate per axis, then the same
        // local / NEWS / router decision from the differing axes.
        "static inline void uc_axis(i64 x, i64 c, int& diff, i64& hops) {\n"
        "  if (x != c) { ++diff; hops = x < c ? c - x : x - c; }\n"
        "}\n"
        "static inline void uc_tally(int diff, i64 hops, u64 news_op,\n"
        "    u64 router_op, NStats& st) {\n"
        "  if (diff == 0) { ++st.local; return; }\n"
        "  if (diff == 1 && (u64)hops * news_op <= router_op) {\n"
        "    ++st.news;\n"
        "    if ((u64)hops > st.news_max_hops) st.news_max_hops = "
        "(u64)hops;\n"
        "    return;\n"
        "  }\n"
        "  ++st.router;\n"
        "}\n"
        // cm::AccessStats::merge: a chunk's local counters into the host's.
        "static inline void uc_merge(NStats* d, const NStats& s) {\n"
        "  d->local += s.local; d->news += s.news; d->router += s.router;\n"
        "  d->frontend += s.frontend; d->broadcast += s.broadcast;\n"
        "  if (s.news_max_hops > d->news_max_hops) "
        "d->news_max_hops = s.news_max_hops;\n"
        "}\n";
  }

  // --- the entry function ---

  void emit_entry() {
    src_ +=
        "#define UC_EXPORT __attribute__((visibility(\"default\")))\n"
        "extern \"C\" UC_EXPORT void uc_native_entry(NArgs* A) {\n";
    emit_prologue();
    src_ +=
        "  i64 wn = 0, en = 0;\n"
        "  for (i64 kk = k_begin; kk < k_end; ++kk) {\n"
        "    const i64 lane = active[kk];\n"
        "    i64 L[32]; L[0] = lane;\n"
        "    for (int d = 1; d <= max_depth; ++d)\n"
        "      L[d] = parent_lanes[d - 1][L[d - 1]];\n"
        "    const i64 lane_vp = vps[lane];\n"
        "    const i64* lane_coords =\n"
        "        n_dims ? coords + (u64)lane * (u64)n_dims : (const i64*)0;\n";
    if (k_.uses_rand) {
      src_ +=
          "    u64 rng = base_seed ^ (stmt_id * 0x9e3779b97f4a7c15ull) ^ "
          "((u64)lane_vp + 0x5851f42d4c957f2dull);\n";
    }
    if (!k_.reduces.empty()) {
      src_ += "    i64 rs_coords[8] = {}; i64 rs_vp = 0;\n"
              "    bool rs_any = false, rs_enabled_any = false;\n";
      bool loop = false;
      for (const ReduceMeta& m : rmeta_) loop |= !m.unrolled;
      if (loop) {
        src_ +=
            "    u64 rs_pos[4] = {}; i64 rs_elem[4] = {}; i64 rs_tuple = 0;\n";
      }
      for (std::size_t i = 0; i < rmeta_.size(); ++i) {
        appendf(src_, "    %s acc%zu = 0;\n",
                rmeta_[i].acc == kFloat ? "double" : "i64", i);
      }
    }
    for (std::uint32_t r = 0; r < k_.num_regs; ++r) {
      if (rt_[r] == kUnset) continue;
      appendf(src_, "    %s r%u = 0;\n", rt_[r] == kFloat ? "double" : "i64",
              r);
    }
    member_ = 0;
    for (std::size_t ip = 0; ip < k_.code.size(); ++ip) emit_inst(ip);
    src_ += "  uc_lane_done:;\n  }\n";
    emit_flush();
    src_ += "  return;\nuc_error:\n  A->error = 1;\n";
    emit_flush();
    src_ += "}\n";
    appendf(src_,
            "extern \"C\" { struct NInfo { unsigned abi_version; "
            "unsigned sizeof_args; u64 source_hash; };\n"
            "UC_EXPORT extern const NInfo uc_native_info = {%uu, %zuu, "
            "UC_SOURCE_HASH}; }\n",
            kAbiVersion, sizeof(NativeArgs));
  }

  // Every NativeArgs field and operand descriptor the kernel reads, as
  // const locals: the lane loop then loads nothing it could have to reload.
  void emit_prologue() {
    src_ +=
        "  const i64 k_begin = A->k_begin, k_end = A->k_end;\n"
        "  const i64* const active = A->active;\n"
        "  const i64* const vps = A->vps;\n"
        "  const i64* const coords = A->coords;\n"
        "  const i64 n_dims = A->n_dims;\n"
        "  const i64* const* const parent_lanes = A->parent_lanes;\n"
        "  const int max_depth = A->max_depth;\n"
        "  const u64 news_op = A->news_op, router_op = A->router_op;\n"
        "  const void* const* const wheres = A->wheres;\n"
        "  void* const frame = A->frame;\n"
        "  NVal* const results = (NVal*)A->results;\n"
        "  NWrite* const WQ = (NWrite*)A->writes;\n";
    if (k_.uses_rand) {
      src_ += "  const u64 stmt_id = A->stmt_id, base_seed = A->base_seed;\n";
    }
    for (std::size_t i = 0; i < used_elems_.size(); ++i) {
      if (used_elems_[i]) {
        appendf(src_, "  const NElem e%zu = A->elems[%zu];\n", i, i);
      }
    }
    for (std::size_t i = 0; i < used_scalars_.size(); ++i) {
      if (used_scalars_[i]) {
        appendf(src_, "  const NScalar s%zu = A->scalars[%zu];\n", i, i);
      }
    }
    for (std::size_t i = 0; i < array_subs_.size(); ++i) {
      if (array_subs_[i] < 0) continue;
      appendf(src_, "  const NArray a%zu = A->arrays[%zu];\n", i, i);
      for (int j = 0; j < array_subs_[i]; ++j) {
        appendf(src_,
                "  const i64 a%zu_dim%d = "
                "a%zu.rank > %d ? a%zu.adims[%d] : 0;\n"
                "  const i64 a%zu_stride%d = "
                "a%zu.rank > %d ? a%zu.astrides[%d] : 0;\n",
                i, j, i, j, i, j, i, j, i, j, i, j);
      }
    }
    for (std::size_t i = 0; i < rmeta_.size(); ++i) {
      appendf(src_, "  const NReduce R%zu = A->reduces[%zu];\n", i, i);
    }
    for (std::uint32_t m = 0; m < k_.num_members; ++m) {
      appendf(src_, "  NStats st%u = {};\n", m);
    }
  }

  // Adds each member's local counters into the host's stats slot.
  void emit_flush() {
    for (std::uint32_t m = 0; m < k_.num_members; ++m) {
      appendf(src_, "  uc_merge((NStats*)A->stats + %u, st%u);\n", m, m);
    }
    src_ += "  A->writes_count = wn;\n  A->enabled = en;\n";
  }

  void emit_inst(std::size_t ip) {
    const Inst& I = k_.code[ip];
    if (labels_[ip]) appendf(src_, "  L%zu:;\n", ip);
    src_ += "    {\n";
    switch (I.op) {
      case Op::kConst: {
        const Value& v = k_.pool[I.a];
        if (v.is_float) {
          appendf(src_, "      %s = uc_bits_f(0x%llxull);\n",
                  R(I.dst).c_str(),
                  static_cast<unsigned long long>(dbl_bits(v.f)));
        } else {
          appendf(src_, "      %s = (i64)0x%llxull;\n", R(I.dst).c_str(),
                  static_cast<unsigned long long>(v.i));
        }
        break;
      }
      case Op::kMove:
        appendf(src_, "      %s = %s;\n", R(I.dst).c_str(), R(I.a).c_str());
        break;
      case Op::kBool:
        appendf(src_, "      %s = (%s) ? 1 : 0;\n", R(I.dst).c_str(),
                truthy(I.a).c_str());
        break;
      case Op::kLoadElem:
        appendf(src_,
                "      %s = e%u.vals[(u64)L[e%u.depth] * (u64)e%u.width + "
                "(u64)e%u.k];\n",
                R(I.dst).c_str(), I.a, I.a, I.a, I.a);
        break;
      case Op::kLoadReduceElem:
        appendf(src_, "      %s = rs_elem[%u];\n", R(I.dst).c_str(), I.b);
        break;
      case Op::kLoadScalar: {
        const char* f = rt_[I.dst] == kFloat ? "f" : "i";
        appendf(src_,
                "      %s = s%u.home == 2 ? ((const NVal*)s%u.store)"
                "[L[s%u.depth]].%s : s%u.%s;\n",
                R(I.dst).c_str(), I.a, I.a, I.a, f, I.a, f);
        break;
      }
      case Op::kStoreScalar: {
        const std::size_t widx = where_index(I.where);
        appendf(src_,
                "      const NScalar& ls = s%u;\n"
                "      NWrite& w = WQ[wn++];\n"
                "      w.target.kind = (unsigned char)(ls.home + 1);\n"
                "      w.target.obj = ls.home == 0 ? (void*)0\n"
                "          : (ls.home == 1 ? frame : ls.owner);\n"
                "      w.target.index = ls.slot;\n"
                "      w.target.lane = ls.home == 2 ? L[ls.depth] : 0;\n",
                I.a);
        emit_value_store("w.value", I.b);
        appendf(src_, "      w.where = wheres[%zu];\n", widx);
        break;
      }
      case Op::kArrIndex:
        emit_bounds(I.a, I.b, I.c);
        appendf(src_, "      %s = flat;\n", R(I.dst).c_str());
        break;
      case Op::kArrLoad:
        appendf(src_, "      %s = %s(a%u.data[%s]);\n", R(I.dst).c_str(),
                rt_[I.dst] == kFloat ? "uc_bits_f" : "uc_bits_i", I.a,
                R(I.b).c_str());
        break;
      case Op::kArrGet:
        emit_bounds(I.a, I.b, I.c);
        classify(I.a, "flat", I.b, I.c);
        appendf(src_, "      %s = %s(a%u.data[flat]);\n", R(I.dst).c_str(),
                rt_[I.dst] == kFloat ? "uc_bits_f" : "uc_bits_i", I.a);
        break;
      case Op::kClassify:
        classify(I.a, R(I.b));
        break;
      case Op::kBroadcastCheck:
        appendf(src_, "      if (a%u.replicated) ++%s.broadcast;\n", I.a,
                ST().c_str());
        break;
      case Op::kArrStore: {
        const std::size_t widx = where_index(I.where);
        appendf(src_,
                "      NWrite& w = WQ[wn++];\n"
                "      w.target.kind = 0; w.target.obj = a%u.obj;\n"
                "      w.target.index = %s; w.target.lane = 0;\n",
                I.a, R(I.b).c_str());
        emit_value_store("w.value", I.c);
        appendf(src_, "      w.where = wheres[%zu];\n", widx);
        break;
      }
      case Op::kArrPut: {
        const std::size_t widx = where_index(I.where);
        classify(I.a, R(I.b));
        if ((I.arg & 1) != 0) {
          appendf(src_, "      if (a%u.replicated) ++%s.broadcast;\n", I.a,
                  ST().c_str());
        }
        appendf(src_,
                "      NWrite& w = WQ[wn++];\n"
                "      w.target.kind = 0; w.target.obj = a%u.obj;\n"
                "      w.target.index = %s; w.target.lane = 0;\n",
                I.a, R(I.b).c_str());
        emit_value_store("w.value", I.c);
        appendf(src_, "      w.where = wheres[%zu];\n", widx);
        break;
      }
      case Op::kUnary:
        switch (static_cast<UnaryOp>(I.arg)) {
          case UnaryOp::kNeg:
            if (rt_[I.a] == kFloat) {
              appendf(src_, "      %s = -%s;\n", R(I.dst).c_str(),
                      R(I.a).c_str());
            } else {
              appendf(src_, "      %s = (i64)(0ull - (u64)%s);\n",
                      R(I.dst).c_str(), R(I.a).c_str());
            }
            break;
          case UnaryOp::kNot:
            appendf(src_, "      %s = (%s) ? 0 : 1;\n", R(I.dst).c_str(),
                    truthy(I.a).c_str());
            break;
          case UnaryOp::kBitNot:
            appendf(src_, "      %s = ~%s;\n", R(I.dst).c_str(),
                    I64(I.a).c_str());
            break;
          case UnaryOp::kPlus:
            appendf(src_, "      %s = %s;\n", R(I.dst).c_str(),
                    R(I.a).c_str());
            break;
        }
        break;
      case Op::kBinary:
        emit_binary(I);
        break;
      case Op::kIncDec:
        if (rt_[I.a] == kFloat) {
          appendf(src_, "      %s = %s %s 1;\n", R(I.dst).c_str(),
                  R(I.a).c_str(), (I.arg & 1) != 0 ? "+" : "-");
        } else {
          appendf(src_, "      %s = (i64)((u64)%s %s 1ull);\n",
                  R(I.dst).c_str(), R(I.a).c_str(),
                  (I.arg & 1) != 0 ? "+" : "-");
        }
        break;
      case Op::kCoerce:
        if (static_cast<ScalarKind>(I.arg) == ScalarKind::kFloat) {
          appendf(src_, "      %s = %s;\n", R(I.dst).c_str(),
                  F(I.a).c_str());
        } else {
          appendf(src_, "      %s = %s;\n", R(I.dst).c_str(),
                  I64(I.a).c_str());
        }
        break;
      case Op::kJump:
        appendf(src_, "      goto L%d;\n", I.jump);
        break;
      case Op::kJumpIfFalse:
        appendf(src_, "      if (!(%s)) goto L%d;\n", truthy(I.a).c_str(),
                I.jump);
        break;
      case Op::kJumpIfTrue:
        appendf(src_, "      if (%s) goto L%d;\n", truthy(I.a).c_str(),
                I.jump);
        break;
      case Op::kAbs:
        if (rt_[I.a] == kFloat) {
          appendf(src_, "      %s = __builtin_fabs(%s);\n", R(I.dst).c_str(),
                  R(I.a).c_str());
        } else {
          // arith::Abs: abs(INT64_MIN) wraps to INT64_MIN.
          appendf(src_, "      %s = %s < 0 ? (i64)(0ull - (u64)%s) : %s;\n",
                  R(I.dst).c_str(), R(I.a).c_str(), R(I.a).c_str(),
                  R(I.a).c_str());
        }
        break;
      case Op::kMinMax: {
        // Exactly std::min(a, b) / std::max(a, b): the comparison picks b
        // only when strictly ordered, so NaN/-0.0 behaviour matches.
        const bool flt = rt_[I.dst] == kFloat;
        const std::string a = flt ? F(I.a) : R(I.a);
        const std::string b = flt ? F(I.b) : R(I.b);
        if ((I.arg & 1) != 0) {
          appendf(src_, "      %s = (%s < %s) ? %s : %s;\n",
                  R(I.dst).c_str(), b.c_str(), a.c_str(), b.c_str(),
                  a.c_str());
        } else {
          appendf(src_, "      %s = (%s < %s) ? %s : %s;\n",
                  R(I.dst).c_str(), a.c_str(), b.c_str(), b.c_str(),
                  a.c_str());
        }
        break;
      }
      case Op::kPower2:
        appendf(src_,
                "      const i64 kv = %s;\n"
                "      if (kv < 0 || kv > 62) goto uc_error;\n"
                "      %s = (i64)1 << kv;\n",
                I64(I.a).c_str(), R(I.dst).c_str());
        break;
      case Op::kRand:
        appendf(src_, "      %s = (i64)(uc_sm64(rng) >> 33);\n",
                R(I.dst).c_str());
        break;
      case Op::kReduceBegin: {
        const std::size_t ri = I.a;
        const ReduceMeta& m = rmeta_[ri];
        appendf(src_,
                "      rs_any = false; rs_enabled_any = false;\n"
                "      acc%zu = %s;\n",
                ri, identity_text(m).c_str());
        if (!m.unrolled) {
          appendf(src_,
                  "      rs_tuple = 0;\n"
                  "      if (R%zu.prod == 0) goto L%d;\n",
                  ri, I.jump);
          for (std::size_t s = 0; s < m.n_sets; ++s) {
            appendf(src_,
                    "      rs_pos[%zu] = 0; rs_elem[%zu] = "
                    "R%zu.values[%zu][0];\n",
                    s, s, ri, s);
          }
        }
        appendf(src_,
                "      for (i64 d = 0; d < R%zu.base_dims; ++d) rs_coords[d] = "
                "lane_coords[d];\n",
                ri);
        for (std::size_t s = 0; s < m.n_sets; ++s) {
          appendf(src_, "      rs_coords[R%zu.base_dims + %zu] = 0;\n", ri, s);
        }
        if (m.unrolled) {
          appendf(src_, "      rs_vp = lane_vp * %lld;\n",
                  static_cast<long long>(m.prod));
        } else {
          appendf(src_, "      rs_vp = lane_vp * R%zu.prod;\n", ri);
        }
        break;
      }
      case Op::kReduceFold:
        emit_fold(ip, I);
        break;
      case Op::kReduceSkipOthers:
        appendf(src_, "      if (rs_enabled_any) goto L%d;\n", I.jump);
        break;
      case Op::kReduceNext: {
        const auto ri = static_cast<std::size_t>(inst_reduce_[ip]);
        const ReduceMeta& m = rmeta_[ri];
        appendf(src_,
                "      rs_enabled_any = false;\n"
                "      if (++rs_tuple < R%zu.prod) {\n"
                "        do {\n",
                ri);
        for (std::size_t s = m.n_sets; s-- > 0;) {
          appendf(src_,
                  "          if (++rs_pos[%zu] < (u64)R%zu.sizes[%zu]) break;\n"
                  "          rs_pos[%zu] = 0;\n",
                  s, ri, s, s);
        }
        src_ +=
            "        } while (0);\n"
            "        i64 tf = 0;\n";
        for (std::size_t s = 0; s < m.n_sets; ++s) {
          appendf(src_,
                  "        rs_elem[%zu] = R%zu.values[%zu][rs_pos[%zu]];\n"
                  "        rs_coords[R%zu.base_dims + %zu] = "
                  "(i64)rs_pos[%zu];\n"
                  "        tf = tf * R%zu.sizes[%zu] + (i64)rs_pos[%zu];\n",
                  s, ri, s, s, ri, s, s, ri, s, s);
        }
        appendf(src_,
                "        rs_vp = lane_vp * R%zu.prod + tf;\n"
                "        goto L%d;\n"
                "      }\n",
                ri, I.jump);
        break;
      }
      case Op::kReduceTuple: {
        // The tuple of an unrolled copy is fixed at lowering, and so are
        // its expanded-geometry coordinates.
        const auto ri = static_cast<std::size_t>(inst_reduce_[ip]);
        const ReduceMeta& m = rmeta_[ri];
        src_ += "      rs_enabled_any = false;\n";
        std::int64_t t = I.b;
        for (std::size_t s = m.n_sets; s-- > 0;) {
          appendf(src_, "      rs_coords[R%zu.base_dims + %zu] = %lld;\n", ri,
                  s, static_cast<long long>(t % m.sizes[s]));
          t /= m.sizes[s];
        }
        appendf(src_, "      rs_vp = lane_vp * %lld + %u;\n",
                static_cast<long long>(m.prod), I.b);
        break;
      }
      case Op::kReduceEnd: {
        const auto ri =
            static_cast<std::size_t>(inst_reduce_[ip]);
        // The result has the accumulator's type (typing).
        appendf(src_, "      %s = acc%zu;\n", R(I.dst).c_str(), ri);
        break;
      }
      case Op::kSelect:
        appendf(src_, "      if (!(%s)) goto L%d;\n      ++en;\n",
                truthy(I.a).c_str(), I.jump);
        break;
      case Op::kMemberBoundary:
        member_ = I.a;
        if (k_.uses_rand) {
          appendf(src_,
                  "      rng = base_seed ^ ((stmt_id + %uull) * "
                  "0x9e3779b97f4a7c15ull) ^ ((u64)lane_vp + "
                  "0x5851f42d4c957f2dull);\n",
                  I.a);
        }
        break;
      case Op::kRet: {
        // A null results array means the host discards the values.
        if (rt_[I.a] == kFloat) {
          appendf(src_,
                  "      if (results) { results[kk].flt = true; "
                  "results[kk].i = 0; results[kk].f = %s; }\n",
                  R(I.a).c_str());
        } else {
          appendf(src_,
                  "      if (results) { results[kk].flt = false; "
                  "results[kk].i = %s; results[kk].f = 0.0; }\n",
                  R(I.a).c_str());
        }
        src_ += "      goto uc_lane_done;\n";
        break;
      }
    }
    src_ += "    }\n";
  }

  void emit_binary(const Inst& I) {
    const auto op = static_cast<BinaryOp>(I.arg);
    const bool flt = rt_[I.a] == kFloat || rt_[I.b] == kFloat;
    const std::string a = flt ? F(I.a) : R(I.a);
    const std::string b = flt ? F(I.b) : R(I.b);
    const char* d = nullptr;
    switch (op) {
      case BinaryOp::kAdd: d = "+"; break;
      case BinaryOp::kSub: d = "-"; break;
      case BinaryOp::kMul: d = "*"; break;
      case BinaryOp::kDiv:
        if (flt) {
          appendf(src_, "      %s = %s / %s;\n", R(I.dst).c_str(), a.c_str(),
                  b.c_str());
        } else if (safe_divisor_[I.b]) {
          appendf(src_,
                  "      if (%s == 0) goto uc_error;\n"
                  "      %s = %s / %s;\n",
                  R(I.b).c_str(), R(I.dst).c_str(), a.c_str(), b.c_str());
        } else {
          // arith::Div: INT64_MIN / -1 wraps to INT64_MIN.
          appendf(src_,
                  "      if (%s == 0) goto uc_error;\n"
                  "      %s = %s == -1 ? (i64)(0ull - (u64)%s) : %s / %s;\n",
                  R(I.b).c_str(), R(I.dst).c_str(), b.c_str(), a.c_str(),
                  a.c_str(), b.c_str());
        }
        return;
      case BinaryOp::kMod:
        // arith::Mod: any value % -1 is 0.
        appendf(src_,
                "      const i64 bb = %s;\n"
                "      if (bb == 0) goto uc_error;\n"
                "      %s = %s%s %% bb;\n",
                I64(I.b).c_str(), R(I.dst).c_str(),
                safe_divisor_[I.b] ? "" : "bb == -1 ? 0 : ",
                I64(I.a).c_str());
        return;
      case BinaryOp::kEq: d = "=="; break;
      case BinaryOp::kNe: d = "!="; break;
      case BinaryOp::kLt: d = "<"; break;
      case BinaryOp::kGt: d = ">"; break;
      case BinaryOp::kLe: d = "<="; break;
      case BinaryOp::kGe: d = ">="; break;
      case BinaryOp::kBitAnd:
        appendf(src_, "      %s = %s & %s;\n", R(I.dst).c_str(),
                I64(I.a).c_str(), I64(I.b).c_str());
        return;
      case BinaryOp::kBitOr:
        appendf(src_, "      %s = %s | %s;\n", R(I.dst).c_str(),
                I64(I.a).c_str(), I64(I.b).c_str());
        return;
      case BinaryOp::kBitXor:
        appendf(src_, "      %s = %s ^ %s;\n", R(I.dst).c_str(),
                I64(I.a).c_str(), I64(I.b).c_str());
        return;
      case BinaryOp::kShl:
        // arith::Shl: shift the bits, so a negative value is defined.
        appendf(src_, "      %s = (i64)((u64)%s << (%s & 63));\n",
                R(I.dst).c_str(), I64(I.a).c_str(), I64(I.b).c_str());
        return;
      case BinaryOp::kShr:
        appendf(src_, "      %s = %s >> (%s & 63);\n", R(I.dst).c_str(),
                I64(I.a).c_str(), I64(I.b).c_str());
        return;
      case BinaryOp::kLogAnd:
      case BinaryOp::kLogOr:
        // A branch-free && or ||: both operands are already evaluated.
        appendf(src_, "      %s = (%s %s %s) ? 1 : 0;\n", R(I.dst).c_str(),
                truthy(I.a).c_str(), op == BinaryOp::kLogAnd ? "&&" : "||",
                truthy(I.b).c_str());
        return;
    }
    const bool cmp = op >= BinaryOp::kEq && op <= BinaryOp::kGe;
    if (cmp) {
      appendf(src_, "      %s = (%s %s %s) ? 1 : 0;\n", R(I.dst).c_str(),
              a.c_str(), d, b.c_str());
    } else if (!flt) {
      // Two's-complement wrap, as arith::Add/Sub/Mul.
      appendf(src_, "      %s = (i64)((u64)%s %s (u64)%s);\n",
              R(I.dst).c_str(), a.c_str(), d, b.c_str());
    } else {
      appendf(src_, "      %s = %s %s %s;\n", R(I.dst).c_str(), a.c_str(), d,
              b.c_str());
    }
  }

  void emit_fold(std::size_t ip, const Inst& I) {
    const auto ri = static_cast<std::size_t>(inst_reduce_[ip]);
    const ReduceMeta& m = rmeta_[ri];
    const std::string acc = "acc" + std::to_string(ri);
    const std::string v = m.acc == kFloat ? F(I.a) : I64(I.a);
    switch (m.op) {
      case ReduceKind::kAdd:
      case ReduceKind::kMul: {
        const char* op = m.op == ReduceKind::kAdd ? "+" : "*";
        if (m.acc == kFloat) {
          appendf(src_, "      %s %s= %s;\n", acc.c_str(), op, v.c_str());
        } else {
          appendf(src_, "      %s = (i64)((u64)%s %s (u64)%s);\n",
                  acc.c_str(), acc.c_str(), op, v.c_str());
        }
        break;
      }
      case ReduceKind::kAnd:
        appendf(src_, "      %s = (%s != 0 && %s) ? 1 : 0;\n", acc.c_str(),
                acc.c_str(), truthy(I.a).c_str());
        break;
      case ReduceKind::kOr:
        appendf(src_, "      %s = (%s != 0 || %s) ? 1 : 0;\n", acc.c_str(),
                acc.c_str(), truthy(I.a).c_str());
        break;
      case ReduceKind::kXor:
        appendf(src_, "      %s ^= %s;\n", acc.c_str(), I64(I.a).c_str());
        break;
      case ReduceKind::kMax:
        // std::max(acc, v): pick v only when acc < v.
        appendf(src_, "      %s = (%s < %s) ? %s : %s;\n", acc.c_str(),
                acc.c_str(), v.c_str(), v.c_str(), acc.c_str());
        break;
      case ReduceKind::kMin:
        // std::min(acc, v): pick v only when v < acc.
        appendf(src_, "      %s = (%s < %s) ? %s : %s;\n", acc.c_str(),
                v.c_str(), acc.c_str(), v.c_str(), acc.c_str());
        break;
      case ReduceKind::kArb:
        appendf(src_, "      if (!rs_any) %s = %s;\n", acc.c_str(),
                v.c_str());
        break;
    }
    src_ += "      rs_any = true; rs_enabled_any = true;\n";
  }

  static std::string identity_text(const ReduceMeta& m) {
    const bool f = m.acc == kFloat;
    switch (m.op) {
      case ReduceKind::kAdd: return f ? "0.0" : "0";
      case ReduceKind::kMul: return f ? "1.0" : "1";
      case ReduceKind::kAnd: return "1";
      case ReduceKind::kOr: return "0";
      case ReduceKind::kXor: return "0";
      case ReduceKind::kMax:
        return f ? "-(double)(1ll << 40)" : "-(1ll << 40)";
      case ReduceKind::kMin:
        return f ? "(double)(1ll << 40)" : "((i64)1 << 40)";
      case ReduceKind::kArb: return f ? "0.0" : "0";
    }
    return "0";
  }

  const Kernel& k_;
  Prepared& out_;
  std::string src_;
  bool ok_ = true;
  std::vector<RegType> rt_;
  std::vector<ReduceMeta> rmeta_;
  std::vector<int> inst_reduce_;
  std::vector<bool> safe_divisor_;
  std::vector<bool> labels_;
  // Operand slots the kernel uses, for the prologue; array_subs_ is the
  // most subscripts an access of the array takes, -1 when unused.
  std::vector<bool> used_elems_;
  std::vector<bool> used_scalars_;
  std::vector<int> array_subs_;
  std::uint32_t member_ = 0;  // the member being emitted
};

}  // namespace

std::string emit_source(const Kernel& k, Prepared& out) {
  out.num_members = k.num_members;
  Emitter e(k, out);
  return e.run();
}

}  // namespace uc::vm::detail::native
