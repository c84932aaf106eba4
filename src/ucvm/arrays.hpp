// Runtime array objects: a UC array is a CM field plus a data mapping
// (element -> owning VP).  The mapping starts as the compiler default
// (element e on VP e, the paper's "corresponding elements on a common
// processor") and may be rewritten by map sections (permute/fold/copy).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "cm/machine.hpp"
#include "ucvm/value.hpp"

namespace uc::vm {

class ArrayObj;
using ArrayPtr = std::shared_ptr<ArrayObj>;

namespace detail {
struct Write;
}

// Per-element conflict marks of the lane-ordered commit (docs/VM.md
// "Linking and execution").  Element e was written by the commit in
// progress iff marks[e].stamp == stamp, and marks[e].first is that
// commit's first write to it.  A root array's column is allocated by the
// first commit that writes the array and reused by every later one.
struct WriteMarks {
  struct Mark {
    const detail::Write* first = nullptr;
    std::uint32_t stamp = 0;
  };
  std::vector<Mark> marks;
  std::uint32_t stamp = 0;
  // The commit that last opened this column, and the column's entry in
  // that commit's table of written arrays.
  std::uint64_t commit = 0;
  std::uint32_t slot = 0;
};

class ArrayObj {
 public:
  ArrayObj(cm::Machine& machine, std::string name, lang::ScalarKind scalar,
           std::vector<std::int64_t> dims);
  ~ArrayObj();

  ArrayObj(const ArrayObj&) = delete;
  ArrayObj& operator=(const ArrayObj&) = delete;

  // An array slice (paper §3: "pointers may be used only to pass an array
  // (or an array slice) as an argument"): a view of the trailing
  // dimensions of `parent` at a fixed prefix offset.  Shares the parent's
  // CM field and data mapping; keeps the parent alive.
  static ArrayPtr make_slice(const ArrayPtr& parent, std::int64_t offset,
                             std::vector<std::int64_t> dims);

  bool is_slice() const { return parent_ != nullptr; }

  // The owning array (this one unless a slice) and this view's flat
  // offset into it.
  ArrayObj& root() { return parent_ ? *parent_ : *this; }
  std::int64_t root_offset() const { return offset_; }

  // The root array's commit conflict marks.
  WriteMarks& write_marks() { return root().write_marks_; }

  // Declared in a function called from a parallel lane: the array is
  // private to that call, so writes to it apply immediately instead of
  // waiting for the statement's commit.
  bool call_local() const {
    return parent_ ? parent_->call_local_ : call_local_;
  }
  void set_call_local() { root().call_local_ = true; }

  const std::string& name() const { return name_; }
  lang::ScalarKind scalar() const { return scalar_; }
  bool is_float() const { return scalar_ == lang::ScalarKind::kFloat; }
  const std::vector<std::int64_t>& dims() const { return dims_; }
  std::int64_t size() const { return size_; }

  // Row-major flattening with bounds reporting: returns -1 when any index
  // is out of range (callers turn that into a UcRuntimeError or skip,
  // depending on context).
  std::int64_t flatten(const std::int64_t* indices, std::size_t count) const;

  // Row-major strides matching dims() (strides()[rank-1] == 1).
  const std::vector<std::int64_t>& strides() const { return strides_; }

  // Element coordinates of a flat index (row-major).
  void unflatten(std::int64_t flat, std::int64_t* out) const;

  Value load(std::int64_t flat) const;
  void store(std::int64_t flat, Value v);

  bool is_defined(std::int64_t flat) const;
  void clear_defined();
  void clear_defined_at(std::int64_t flat);

  // Data mapping (slices delegate to their parent, shifted by the slice
  // offset).
  cm::VpIndex owner(std::int64_t flat) const {
    if (parent_) return parent_->owner(offset_ + flat);
    return owner_[static_cast<std::size_t>(flat)];
  }
  void set_owner(std::int64_t flat, cm::VpIndex vp) {
    if (parent_) {
      parent_->set_owner(offset_ + flat, vp);
      return;
    }
    owner_[static_cast<std::size_t>(flat)] = vp;
    if (vp != flat) identity_owners_ = false;
  }
  // True while the owner table is still the default layout, owner(e) == e
  // for every element: the engines then classify an access from its flat
  // index or subscripts instead of loading the table (docs/VM.md "Read
  // classification").  Cleared for good by the first element a map
  // section moves; always false for a slice view, whose element e lives
  // on the root's VP offset + e.
  bool identity_owners() const {
    return parent_ == nullptr && identity_owners_;
  }
  bool replicated() const {
    return parent_ ? parent_->replicated() : replicated_;
  }
  void set_replicated(std::int64_t copies) {
    replicated_ = true;
    replica_count_ = copies;
  }
  std::int64_t replica_count() const { return replica_count_; }

  cm::Machine& machine() const { return machine_; }
  cm::Field& field() const {
    return parent_ ? parent_->field() : machine_.field(field_);
  }

  // Hot-loop accessors for the bytecode engine: contiguous element storage
  // and owner table with the slice offset already applied, so element e of
  // this view is raw_data()[e] / owner_data()[e].  Read-only — stores go
  // through store(), or the commit, which also set the field's defined
  // flags.
  const cm::Bits* raw_data() const { return field().raw().data() + offset_; }
  const cm::VpIndex* owner_data() const {
    return parent_ ? parent_->owner_data() + offset_ : owner_.data();
  }

  // Lazily-built row-major coordinate table: coord_table()[v * rank + d]
  // is coordinate d of flat index v.  Pure geometry (never invalidated);
  // NEWS classification reads an owner's coordinates from it in place of
  // per-access division.  Safe to call from the walk's pool workers: the
  // first call builds it once.
  const std::int64_t* coord_table() const;
  const cm::Geometry& geometry() const {
    return parent_ ? parent_->geometry() : machine_.geometry(geom_);
  }

 private:
  cm::Machine& machine_;
  std::string name_;
  lang::ScalarKind scalar_;
  std::vector<std::int64_t> dims_;
  std::vector<std::int64_t> strides_;
  std::int64_t size_ = 1;
  cm::GeomId geom_;
  cm::FieldId field_;
  std::vector<cm::VpIndex> owner_;
  bool identity_owners_ = true;
  mutable std::vector<std::int64_t> coord_table_;
  mutable std::once_flag coord_table_once_;
  bool replicated_ = false;
  std::int64_t replica_count_ = 1;
  bool call_local_ = false;
  WriteMarks write_marks_;

  // Slice view state (null/0 for owning arrays).  parent_ always points
  // at the owning root array (nested slices collapse), and offset_ is the
  // root-relative flat offset.
  ArrayPtr parent_;
  std::int64_t offset_ = 0;

  explicit ArrayObj(cm::Machine& machine) : machine_(machine) {}
};

}  // namespace uc::vm
