// Byte-stream composition/decomposition for wire formats.
//
// The compact message scheme interleaves 64-bit headers with element data in
// one payload; these helpers keep the (de)serialization explicit and bounds
// checked.  All values are memcpy'd, so only trivially-copyable types are
// allowed (alignment in the stream is irrelevant).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "support/arena.hpp"
#include "support/check.hpp"

namespace pup {

class ByteWriter {
 public:
  ByteWriter() = default;

  /// Arena-backed writer: the first write acquires a recycled buffer from
  /// `arena` instead of growing a fresh vector, so per-round message
  /// composition stops allocating in the steady state.  A writer that
  /// never writes never touches the arena (most (rank, dest) pairs are
  /// empty in sparse traffic).
  explicit ByteWriter(support::PayloadArena* arena) : arena_(arena) {}

  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    ensure_backing();
    const std::size_t off = bytes_.size();
    bytes_.resize(off + sizeof(T));
    std::memcpy(bytes_.data() + off, &v, sizeof(T));
  }

  /// Appends v as a `width`-byte unsigned integer, width 1, 2, 4 or 8 (a
  /// wire index field: its low bytes, in host byte order).  v must fit.
  void put_uint(std::uint64_t v, std::size_t width) {
    PUP_DCHECK(width == 8 || (v >> (8 * width)) == 0,
               v << " does not fit " << width << " bytes");
    switch (width) {
      case 1: return put(static_cast<std::uint8_t>(v));
      case 2: return put(static_cast<std::uint16_t>(v));
      case 4: return put(static_cast<std::uint32_t>(v));
      default: return put(v);
    }
  }

  /// Appends the elements' bytes in one range insert (no zero-fill of the
  /// new tail before the copy).
  template <typename T>
  void put_span(std::span<const T> vs) {
    static_assert(std::is_trivially_copyable_v<T>);
    ensure_backing();
    const auto* first = reinterpret_cast<const std::byte*>(vs.data());
    bytes_.insert(bytes_.end(), first, first + vs.size_bytes());
  }

  /// Extends the stream by `nbytes` and returns the new tail for the
  /// caller to fill in place: the bulk counterpart of put(), for composers
  /// that know a message's size before producing its elements.
  std::span<std::byte> grow(std::size_t nbytes) {
    ensure_backing();
    const std::size_t off = bytes_.size();
    bytes_.resize(off + nbytes);
    return std::span<std::byte>(bytes_).subspan(off);
  }

  std::size_t size() const { return bytes_.size(); }
  std::vector<std::byte> take() { return std::move(bytes_); }

 private:
  void ensure_backing() {
    if (arena_ != nullptr) {
      bytes_ = arena_->acquire();
      arena_ = nullptr;
    }
  }

  std::vector<std::byte> bytes_;
  support::PayloadArena* arena_ = nullptr;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> bytes) : bytes_(bytes) {}

  template <typename T>
  T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    PUP_REQUIRE(pos_ + sizeof(T) <= bytes_.size(), "byte stream underflow");
    T v;
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  /// Reads a `width`-byte unsigned integer written by put_uint.
  std::uint64_t get_uint(std::size_t width) {
    switch (width) {
      case 1: return get<std::uint8_t>();
      case 2: return get<std::uint16_t>();
      case 4: return get<std::uint32_t>();
      default: return get<std::uint64_t>();
    }
  }

  template <typename T>
  void get_into(std::span<T> out) {
    static_assert(std::is_trivially_copyable_v<T>);
    PUP_REQUIRE(pos_ + out.size_bytes() <= bytes_.size(),
                "byte stream underflow");
    if (!out.empty()) std::memcpy(out.data(), bytes_.data() + pos_, out.size_bytes());
    pos_ += out.size_bytes();
  }

  /// Bounds-checks and consumes `nbytes`, returning a view of them in
  /// place.  This is the zero-copy read: run decoders hand the span to a
  /// bulk kernel (core/kernels/) instead of re-checking bounds per element.
  std::span<const std::byte> get_raw(std::size_t nbytes) {
    PUP_REQUIRE(pos_ + nbytes <= bytes_.size(), "byte stream underflow");
    const auto s = bytes_.subspan(pos_, nbytes);
    pos_ += nbytes;
    return s;
  }

  bool done() const { return pos_ == bytes_.size(); }
  std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  std::span<const std::byte> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace pup
