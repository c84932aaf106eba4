// A stack-ordered free list of heap objects whose storage is worth keeping.
//
// A caller leases an object for a scope and the lease hands it back on
// exit, however that exit happens.  The next lease pops the most recently
// returned object, so a loop that leases once per iteration gets the same
// object back every time, with all the capacity its vectors grew to.
// Nested scopes return their leases in reverse order, so each nesting level
// keeps getting the object it had before.  Objects come back as they were
// left: the caller resets whatever it reads.
#pragma once

#include <memory>
#include <new>
#include <vector>

namespace uc::support {

template <typename T>
class FreeList {
 public:
  class Lease {
   public:
    explicit Lease(FreeList& list) : list_(&list), item_(list.take()) {}
    Lease(Lease&&) noexcept = default;
    Lease& operator=(Lease&&) = delete;
    ~Lease() {
      if (item_ == nullptr) return;
      try {
        list_->items_.push_back(std::move(item_));
      } catch (const std::bad_alloc&) {
        // Not recycled: item_ still owns the object and frees it.
      }
    }

    T& operator*() const { return *item_; }
    T* operator->() const { return item_.get(); }

   private:
    FreeList* list_;
    std::unique_ptr<T> item_;
  };

  // Frees every object not currently leased.
  void clear() { items_.clear(); }

 private:
  std::unique_ptr<T> take() {
    if (items_.empty()) return std::make_unique<T>();
    std::unique_ptr<T> item = std::move(items_.back());
    items_.pop_back();
    return item;
  }

  std::vector<std::unique_ptr<T>> items_;
};

}  // namespace uc::support
