//===- tests/support/PageAllocatorTest.cpp - page-backed buffer tests ---------===//
//
// PageAllocator hands big blocks straight to and from the kernel: they
// arrive zeroed and page-aligned, and their pages leave the resident
// set on release instead of staying parked in a malloc arena. Small
// blocks take the operator new path. PageVector behaves as a vector.
//
//===----------------------------------------------------------------------===//

#include "support/PageAllocator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>

using namespace clgen;

namespace {

/// VmRSS of this process in KiB, or -1 when /proc is unavailable.
long residentKiB() {
  std::ifstream F("/proc/self/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmRSS:", 0) == 0)
      return std::stol(Line.substr(6));
  return -1;
}

} // namespace

TEST(PageAllocatorTest, BigBlocksAreZeroedPages) {
  size_t Bytes = PageAllocation::MinBytes + 123;
  auto *P = static_cast<unsigned char *>(PageAllocation::allocate(Bytes));
  ASSERT_NE(P, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % 4096, 0u);
  for (size_t I = 0; I < Bytes; ++I)
    ASSERT_EQ(P[I], 0) << "byte " << I;
  std::memset(P, 0xAB, Bytes);
  PageAllocation::release(P, Bytes);
}

TEST(PageAllocatorTest, ReleasedPagesLeaveTheResidentSet) {
  long Before = residentKiB();
  if (Before < 0)
    GTEST_SKIP() << "no /proc/self/status";
  constexpr size_t Bytes = size_t(32) << 20;
  void *P = PageAllocation::allocate(Bytes);
  std::memset(P, 1, Bytes);
  long Touched = residentKiB();
  PageAllocation::release(P, Bytes);
  long After = residentKiB();
  EXPECT_GE(Touched - Before, 30L << 10);
  EXPECT_GE(Touched - After, 30L << 10);
}

TEST(PageAllocatorTest, PageVectorGrowsAndKeepsItsContents) {
  PageVector<uint32_t> V;
  for (uint32_t I = 0; I < 100000; ++I)
    V.push_back(I * 7);
  ASSERT_EQ(V.size(), 100000u);
  for (uint32_t I = 0; I < V.size(); ++I)
    ASSERT_EQ(V[I], I * 7);
  PageVector<uint32_t> Copy = V;
  V.clear();
  V.shrink_to_fit();
  EXPECT_EQ(Copy[99999], 99999u * 7);
}
