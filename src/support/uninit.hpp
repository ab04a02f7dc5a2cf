// Vectors whose resize() does not zero-fill.
//
// std::vector<T>::resize(n) value-initializes every new element, so a
// buffer that a kernel is about to write in full is written twice: once
// with zeros, once with its values.  UninitVector<T> default-initializes
// instead -- for the trivial element types the ranking and its PRS carry,
// that leaves new elements indeterminate until written.  Every other way
// of filling a vector (assign(n, v), copies, range inserts) behaves
// exactly as for std::vector.  A caller that resizes one must write every
// element it later reads.
#pragma once

#include <memory>
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

}  // namespace pup::support
