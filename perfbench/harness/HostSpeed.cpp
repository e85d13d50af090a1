//===- perfbench/harness/HostSpeed.cpp - Host speed calibration -----------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "HostSpeed.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>

namespace perfbench {

namespace {

/// The core part walks a table that stays in a core's private cache,
/// the memory part one that only the shared last-level cache can hold.
constexpr uint32_t CoreEntries = 64u << 10;    // 256 KiB of uint32_t.
constexpr uint32_t MemoryEntries = 4u << 20;   // 16 MiB of uint32_t.
constexpr uint32_t CoreSteps = 65000;
constexpr uint32_t MemorySteps = 6000;
constexpr int HashRounds = 8;
constexpr int MaxBlocksPerCall = 8;

/// One cycle through all \p Entries (Sattolo's algorithm), from a
/// fixed seed: the walk's order, and so its cost, never changes.
std::vector<uint32_t> makeCycle(uint32_t Entries) {
  std::vector<uint32_t> T(Entries);
  for (uint32_t I = 0; I < Entries; ++I)
    T[I] = I;
  uint64_t S = 0x9E3779B97F4A7C15ull;
  for (uint32_t I = Entries - 1; I > 0; --I) {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    uint32_t J = static_cast<uint32_t>(S % I);
    std::swap(T[I], T[J]);
  }
  return T;
}

const std::vector<uint32_t> &coreTable() {
  static const std::vector<uint32_t> Table = makeCycle(CoreEntries);
  return Table;
}

const std::vector<uint32_t> &memoryTable() {
  static const std::vector<uint32_t> Table = makeCycle(MemoryEntries);
  return Table;
}

std::atomic<uint64_t> Sink{0};

/// \p Steps dependent loads along \p Table, each followed by
/// \p Rounds rounds of an integer hash.
uint64_t walk(const std::vector<uint32_t> &Table, uint32_t Start,
              uint32_t Steps, int Rounds, uint64_t H) {
  uint32_t At = Start % Table.size();
  for (uint32_t Step = 0; Step < Steps; ++Step) {
    At = Table[At];
    H ^= At;
    for (int R = 0; R < Rounds; ++R) {
      H *= 0xFF51AFD7ED558CCDull;
      H ^= H >> 33;
    }
  }
  return H;
}

/// The fixed work of one calibration block.
void block(uint32_t Start) {
  const std::vector<uint32_t> &Core = coreTable();
  // Touch the whole core table first, so its walk never starts from a
  // cache the operation before it evicted.
  uint64_t H = Start;
  for (uint32_t Entry : Core)
    H += Entry;
  H = walk(Core, Start, CoreSteps, HashRounds, H);
  H = walk(memoryTable(), Start, MemorySteps, 0, H);
  Sink.fetch_add(H, std::memory_order_relaxed);
}

} // namespace

HostSpeed::HostSpeed() : Last(Clock::now()) {
  coreTable();
  memoryTable();
}

void HostSpeed::sample() {
  uint32_t Start = static_cast<uint32_t>(BlockMs.size()) * 7919u;
  Clock::time_point T0 = Clock::now();
  block(Start);
  BlockMs.push_back(msSince(T0));
  Last = Clock::now();
}

void HostSpeed::maybeSample() {
  // One block per IntervalMs since the last, so long operations are
  // matched by as much calibration as short ones.
  int Due = static_cast<int>(msSince(Last) / IntervalMs);
  for (int I = 0; I < std::min(Due, MaxBlocksPerCall); ++I)
    sample();
}

double HostSpeed::factor() const {
  double M = medianBlockMs();
  return M > 0.0 ? NominalMs / M : 1.0;
}

double calibrationTablesMiB() {
  return static_cast<double>(CoreEntries + MemoryEntries) *
         sizeof(uint32_t) / (1024.0 * 1024.0);
}

void addScaled(Report &R, const HostSpeed &H, const std::string &Name,
               const std::string &Unit, double Raw, size_t Samples,
               bool IsRate, const std::string &Note) {
  double F = H.factor();
  R.add(Name, Unit, IsRate ? Raw / F : Raw * F, Samples, true,
        Note + ", at nominal host speed");
  R.add("raw." + Name, Unit, Raw, Samples, false, "as timed");
}

void addHostSpeed(Report &R, const HostSpeed &H) {
  char Note[64];
  std::snprintf(Note, sizeof(Note), "median calibration block (nominal %g ms)",
                HostSpeed::NominalMs);
  R.add("host.calibration_ms", "ms", H.medianBlockMs(), H.samples(), false,
        Note);
  R.add("host.factor", "ratio", H.factor(), H.samples(), false,
        "nominal over median calibration block");
}

} // namespace perfbench
