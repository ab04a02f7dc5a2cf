// Vectors whose resize() does not zero-fill.
//
// std::vector<T>::resize(n) value-initializes every new element, so a
// buffer that a kernel is about to write in full is written twice: once
// with zeros, once with its values.  UninitVector<T> default-initializes
// instead -- for the trivial element types the ranking and its PRS carry,
// that leaves new elements indeterminate until written.  Every other way
// of filling a vector (assign(n, v), copies, range inserts) gives the same
// values as for std::vector, though copies and range fills construct
// element by element (bulk_copy below is the fast copy).  A caller that
// resizes one must write every element it later reads.
#pragma once

#include <algorithm>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

namespace pup::support {

template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  using value_type = T;
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };

  DefaultInitAllocator() noexcept = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  /// Value-initialization (what resize() asks for) becomes
  /// default-initialization.
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T, typename U>
bool operator==(const DefaultInitAllocator<T>&,
                const DefaultInitAllocator<U>&) noexcept {
  return true;
}

template <typename T>
using UninitVector = std::vector<T, DefaultInitAllocator<T>>;

/// A copy of `src` made with one bulk copy.  UninitVector's own copy
/// constructor and assign(first, last) construct element by element
/// (libstdc++ keeps its memmove for std::allocator alone), which measured
/// 13-19x slower for a 32 KiB byte mask (4-vCPU x86-64 VM, GCC 12).
template <typename T>
UninitVector<T> bulk_copy(std::span<const T> src) {
  UninitVector<T> out;
  out.resize(src.size());
  std::copy(src.begin(), src.end(), out.begin());
  return out;
}

}  // namespace pup::support
