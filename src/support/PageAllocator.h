//===- support/PageAllocator.h - Page-backed big buffers ---------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A std::allocator replacement for large buffers that grow and die in
/// bulk (the n-gram count table, its training scratch, a sampler's
/// memo). Blocks of at least PageAllocation::MinBytes are mapped
/// straight from the kernel and unmapped on release; smaller ones use
/// operator new. So a big buffer's pages count towards the resident
/// set exactly while it lives:
///
///  - freeing one never leaves its pages parked in a malloc arena, where
///    a worker thread's arena would keep them until some later thread
///    happened to reuse it;
///  - it never moves malloc's dynamic mmap/trim thresholds, which glibc
///    raises to the size of each large block freed, process-wide, so
///    that every later allocation below that size stays in the arenas.
///
/// Both effects make a process's peak resident set depend on thread
/// scheduling; with the big buffers out of malloc it depends on the
/// work done.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_SUPPORT_PAGEALLOCATOR_H
#define CLGEN_SUPPORT_PAGEALLOCATOR_H

#include <cstddef>
#include <vector>

namespace clgen {

struct PageAllocation {
  /// Blocks below this come from operator new.
  static constexpr size_t MinBytes = size_t(64) << 10;

  /// Maps \p Bytes of zeroed memory; throws std::bad_alloc on failure.
  static void *allocate(size_t Bytes);
  /// Releases a block from allocate() of the same size.
  static void release(void *P, size_t Bytes) noexcept;
};

template <typename T> class PageAllocator {
public:
  using value_type = T;

  PageAllocator() = default;
  template <typename U> PageAllocator(const PageAllocator<U> &) noexcept {}

  T *allocate(size_t N) {
    return static_cast<T *>(PageAllocation::allocate(N * sizeof(T)));
  }
  void deallocate(T *P, size_t N) noexcept {
    PageAllocation::release(P, N * sizeof(T));
  }

  template <typename U> bool operator==(const PageAllocator<U> &) const {
    return true;
  }
};

template <typename T> using PageVector = std::vector<T, PageAllocator<T>>;

} // namespace clgen

#endif // CLGEN_SUPPORT_PAGEALLOCATOR_H
