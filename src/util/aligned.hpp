// 64-byte-aligned, default-initializing allocator for the SoA kernel
// columns.
//
// Two properties matter for the vector sweep path, and std::allocator
// provides neither:
//
//   * Alignment. A 64-byte allocation boundary means every cache line a
//     column load touches belongs to that column, and vector loads never
//     straddle an allocation edge. (The kernels still use unaligned load
//     instructions — chunk boundaries land anywhere — but the *storage*
//     being cache-line aligned keeps split-line loads off the hot path.)
//
//   * Default-initialization on resize. std::vector<double>::resize()
//     value-initializes, i.e. memsets the new tail — which faults every
//     page in on the CALLING thread and, on a NUMA machine, first-touch
//     places the whole buffer on that thread's node. The allocator's
//     zero-argument construct() default-initializes instead (a no-op for
//     trivial types), so a resize() leaves the pages untouched and the
//     first real writer decides their placement.
//
// AlignedVector<T> is the vector type the CompiledModel columns and the
// kernel scratch buffers use. It interoperates with std::vector<T> only by
// element copy (different allocator => different type), which is exactly
// the boundary where solver results cross back into the public API.
#pragma once

#include <cstddef>
#include <new>
#include <utility>
#include <vector>

namespace bvc::util {

template <typename T, std::size_t Alignment = 64>
struct AlignedAllocator {
  static_assert((Alignment & (Alignment - 1)) == 0,
                "Alignment must be a power of two");
  static_assert(Alignment >= alignof(T),
                "Alignment must satisfy the element type");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{Alignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{Alignment});
  }

  /// Zero-argument construct default-initializes (no memset for trivial
  /// T) — see the file comment. The variadic overload keeps every other
  /// construction (fill, copy, emplace) standard.
  template <typename U>
  void construct(U* p) noexcept(noexcept(::new (static_cast<void*>(p)) U)) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return false;
  }
};

template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, 64>>;

/// The alignment AlignedVector guarantees, exposed for summaries/tests.
inline constexpr std::size_t kColumnAlignment = 64;

/// `size` rounded up to a whole number of alignment units — the resident
/// footprint of one aligned column allocation.
[[nodiscard]] constexpr std::size_t aligned_footprint(
    std::size_t bytes, std::size_t alignment = kColumnAlignment) noexcept {
  return (bytes + alignment - 1) / alignment * alignment;
}

}  // namespace bvc::util
