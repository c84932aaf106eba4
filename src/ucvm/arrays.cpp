#include "ucvm/arrays.hpp"

namespace uc::vm {

ArrayObj::ArrayObj(cm::Machine& machine, std::string name,
                   lang::ScalarKind scalar, std::vector<std::int64_t> dims)
    : machine_(machine),
      name_(std::move(name)),
      scalar_(scalar),
      dims_(std::move(dims)) {
  if (dims_.empty()) {
    throw support::ApiError("ArrayObj requires at least one dimension");
  }
  strides_.assign(dims_.size(), 1);
  for (std::size_t k = dims_.size(); k-- > 0;) {
    if (k + 1 < dims_.size()) strides_[k] = strides_[k + 1] * dims_[k + 1];
  }
  size_ = strides_[0] * dims_[0];
  geom_ = machine_.create_geometry(dims_);
  field_ = machine_.allocate_field(
      geom_, name_,
      is_float() ? cm::ElemType::kFloat : cm::ElemType::kInt);
  owner_.resize(static_cast<std::size_t>(size_));
  for (std::int64_t e = 0; e < size_; ++e) {
    owner_[static_cast<std::size_t>(e)] = e;  // compiler default mapping
  }
}

ArrayObj::~ArrayObj() {
  if (parent_) return;  // slices do not own the field
  try {
    machine_.free_field(field_);
  } catch (...) {
    // Machine outlived by array during teardown races are benign here.
  }
}

ArrayPtr ArrayObj::make_slice(const ArrayPtr& parent, std::int64_t offset,
                              std::vector<std::int64_t> dims) {
  if (parent == nullptr || dims.empty()) {
    throw support::ApiError("make_slice: bad arguments");
  }
  // shared_ptr with private ctor access via new.
  ArrayPtr slice(new ArrayObj(parent->machine_));
  slice->name_ = parent->name_ + "[slice]";
  slice->scalar_ = parent->scalar_;
  slice->dims_ = std::move(dims);
  slice->strides_.assign(slice->dims_.size(), 1);
  for (std::size_t k = slice->dims_.size(); k-- > 0;) {
    if (k + 1 < slice->dims_.size()) {
      slice->strides_[k] = slice->strides_[k + 1] * slice->dims_[k + 1];
    }
  }
  slice->size_ = slice->strides_[0] * slice->dims_[0];
  if (offset < 0 || offset + slice->size_ > parent->size()) {
    throw support::ApiError("make_slice: slice exceeds the parent array");
  }
  // Collapse nested slices: parent_ always names the owning root.
  slice->parent_ = parent->parent_ ? parent->parent_ : parent;
  slice->offset_ = parent->offset_ + offset;
  return slice;
}

std::int64_t ArrayObj::flatten(const std::int64_t* indices,
                               std::size_t count) const {
  if (count != dims_.size()) return -1;
  std::int64_t flat = 0;
  for (std::size_t k = 0; k < count; ++k) {
    if (indices[k] < 0 || indices[k] >= dims_[k]) return -1;
    flat += indices[k] * strides_[k];
  }
  return flat;
}

void ArrayObj::unflatten(std::int64_t flat, std::int64_t* out) const {
  for (std::size_t k = 0; k < dims_.size(); ++k) {
    out[k] = flat / strides_[k];
    flat %= strides_[k];
  }
}

const std::int64_t* ArrayObj::coord_table() const {
  std::call_once(coord_table_once_, [this] {
    const std::size_t rank = dims_.size();
    coord_table_.resize(static_cast<std::size_t>(size_) * rank);
    std::vector<std::int64_t> cur(rank, 0);
    for (std::int64_t e = 0; e < size_; ++e) {
      for (std::size_t r = 0; r < rank; ++r) {
        coord_table_[static_cast<std::size_t>(e) * rank + r] = cur[r];
      }
      for (std::size_t r = rank; r-- > 0;) {
        if (++cur[r] < dims_[r]) break;
        cur[r] = 0;
      }
    }
  });
  return coord_table_.data();
}

Value ArrayObj::load(std::int64_t flat) const {
  return Value::from_bits(field().get(offset_ + flat), is_float());
}

void ArrayObj::store(std::int64_t flat, Value v) {
  field().set(offset_ + flat, v.coerce(scalar_).to_bits());
}

bool ArrayObj::is_defined(std::int64_t flat) const {
  return field().is_defined(offset_ + flat);
}

void ArrayObj::clear_defined() {
  if (parent_) {
    for (std::int64_t e = 0; e < size_; ++e) clear_defined_at(e);
    return;
  }
  field().clear_defined();
}

void ArrayObj::clear_defined_at(std::int64_t flat) {
  field().clear_defined_at(offset_ + flat);
}

}  // namespace uc::vm
