//===- support/PageAllocator.cpp - Page-backed big buffers -----------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/PageAllocator.h"

#include <new>

#include <sys/mman.h>

using namespace clgen;

void *PageAllocation::allocate(size_t Bytes) {
  if (Bytes < MinBytes)
    return ::operator new(Bytes);
  void *P = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  return P;
}

void PageAllocation::release(void *P, size_t Bytes) noexcept {
  if (Bytes < MinBytes)
    ::operator delete(P);
  else
    ::munmap(P, Bytes);
}
