//===- tests/store/FailureLedgerTest.cpp - failure-ledger tests ---------------===//
//
// The persistent failure ledger (store/FailureLedger.h): record/lookup
// round-trips, the deterministic-kinds-only admission policy, corrupt
// entries degrading to misses, the byte-stable CLI listing, and the
// measurement-engine integration (core::measureKernels) — a second run
// over known-bad kernels must skip measurement and replay the recorded
// diagnostics byte-identically.
//
//===----------------------------------------------------------------------===//

#include "store/FailureLedger.h"

#include "clgen/Pipeline.h"
#include "store/ResultCache.h"
#include "support/Trap.h"
#include "vm/Compiler.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

using namespace clgen;
using namespace clgen::store;

namespace {

/// Fresh per-test scratch directory, removed on destruction.
class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name)
      : Path(std::filesystem::temp_directory_path() /
             ("clgen_ledger_test_" + Name)) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  std::string str() const { return Path.string(); }
  std::filesystem::path path() const { return Path; }

private:
  std::filesystem::path Path;
};

FailureRecord record(TrapKind Kind, const std::string &Detail,
                     uint32_t Attempts = 1) {
  FailureRecord R;
  R.Kind = Kind;
  R.Detail = Detail;
  R.Attempts = Attempts;
  return R;
}

TEST(FailureLedgerTest, RecordLookupRoundTrip) {
  ScratchDir Dir("roundtrip");
  FailureLedger Ledger(Dir.str());
  ASSERT_TRUE(Ledger.directoryOk());

  EXPECT_FALSE(Ledger.lookup(42).has_value());
  ASSERT_TRUE(Ledger
                  .record(42, record(TrapKind::OutOfBounds,
                                     "global OOB at index 9", 1))
                  .ok());
  auto Found = Ledger.lookup(42);
  ASSERT_TRUE(Found.has_value());
  EXPECT_EQ(Found->Kind, TrapKind::OutOfBounds);
  EXPECT_EQ(Found->Detail, "global OOB at index 9");
  EXPECT_EQ(Found->Attempts, 1u);

  // A second ledger over the same directory sees the record: the disk
  // is the only state.
  FailureLedger Reopened(Dir.str());
  auto Again = Reopened.lookup(42);
  ASSERT_TRUE(Again.has_value());
  EXPECT_EQ(Again->Detail, Found->Detail);

  auto Stats = Ledger.stats();
  EXPECT_EQ(Stats.Lookups, 2u);
  EXPECT_EQ(Stats.NegativeHits, 1u);
  EXPECT_EQ(Stats.Records, 1u);
}

TEST(FailureLedgerTest, RefusesNonDeterministicKinds) {
  ScratchDir Dir("policy");
  FailureLedger Ledger(Dir.str());
  // Transient and environment-dependent classes must never be persisted:
  // they would wrongly poison future runs.
  for (TrapKind K : {TrapKind::Injected, TrapKind::IoError,
                     TrapKind::WatchdogTimeout, TrapKind::Unknown,
                     TrapKind::None}) {
    EXPECT_TRUE(Ledger.record(7, record(K, "transient")).ok());
    EXPECT_FALSE(Ledger.lookup(7).has_value())
        << "kind " << trapKindName(K) << " must not be recorded";
  }
  EXPECT_EQ(Ledger.stats().Rejected, 5u);
  EXPECT_EQ(Ledger.stats().Records, 0u);

  // Every deterministic class IS admitted.
  uint64_t Key = 100;
  for (TrapKind K :
       {TrapKind::OutOfBounds, TrapKind::BarrierDivergence,
        TrapKind::InstructionBudget, TrapKind::DivByZero,
        TrapKind::CompileError, TrapKind::BadLaunch, TrapKind::CheckNoOutput,
        TrapKind::CheckInputInsensitive, TrapKind::CheckNonDeterministic}) {
    ASSERT_TRUE(Ledger.record(Key, record(K, "deterministic")).ok());
    auto Found = Ledger.lookup(Key);
    ASSERT_TRUE(Found.has_value());
    EXPECT_EQ(Found->Kind, K);
    ++Key;
  }
}

TEST(FailureLedgerTest, CorruptEntryDegradesToMiss) {
  ScratchDir Dir("corrupt");
  FailureLedger Ledger(Dir.str());
  ASSERT_TRUE(
      Ledger.record(9, record(TrapKind::DivByZero, "div by zero")).ok());
  ASSERT_TRUE(Ledger.lookup(9).has_value());

  // Truncate the entry file: the checksum no longer validates, so the
  // lookup is an honest miss (counted as a bad entry), never a crash
  // or a half-read record.
  std::string Entry;
  for (const auto &E : std::filesystem::directory_iterator(Dir.path()))
    if (E.path().extension() == ".clgs")
      Entry = E.path().string();
  ASSERT_FALSE(Entry.empty());
  std::filesystem::resize_file(Entry,
                               std::filesystem::file_size(Entry) / 2);
  EXPECT_FALSE(Ledger.lookup(9).has_value());
  EXPECT_GE(Ledger.stats().BadEntries, 1u);

  // Re-recording overwrites the corpse and the lookup works again.
  ASSERT_TRUE(
      Ledger.record(9, record(TrapKind::DivByZero, "div by zero")).ok());
  EXPECT_TRUE(Ledger.lookup(9).has_value());
}

TEST(FailureLedgerTest, UncreatableDirectoryDegrades) {
  ScratchDir Dir("nodir");
  // A regular file where the directory should be: directoryOk false,
  // lookups miss, records fail visibly — no crash, no silent success.
  std::string FilePath = Dir.str() + "/blocked";
  std::ofstream(FilePath) << "not a directory";
  FailureLedger Ledger(FilePath);
  EXPECT_FALSE(Ledger.directoryOk());
  EXPECT_FALSE(Ledger.lookup(1).has_value());
  EXPECT_FALSE(Ledger.record(1, record(TrapKind::OutOfBounds, "x")).ok());
  EXPECT_EQ(Ledger.stats().WriteFailures, 1u);
}

TEST(FailureLedgerTest, ListAndFormatAreByteStable) {
  ScratchDir Dir("listing");
  FailureLedger Ledger(Dir.str());
  ASSERT_TRUE(
      Ledger.record(2, record(TrapKind::DivByZero, "lane 3 divides by 0", 1))
          .ok());
  ASSERT_TRUE(Ledger
                  .record(1, record(TrapKind::OutOfBounds,
                                    "write past buffer end", 2))
                  .ok());

  auto Records = listFailures(Dir.str());
  ASSERT_EQ(Records.size(), 2u);
  // Sorted by key regardless of directory iteration order.
  EXPECT_EQ(Records[0].first, 1u);
  EXPECT_EQ(Records[1].first, 2u);

  std::string Listing = formatFailures(Records);
  EXPECT_EQ(Listing, formatFailures(listFailures(Dir.str())));
  EXPECT_NE(Listing.find("out-of-bounds"), std::string::npos);
  EXPECT_NE(Listing.find("div-by-zero"), std::string::npos);
  EXPECT_NE(Listing.find("write past buffer end"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Measurement-engine integration
//===----------------------------------------------------------------------===//

vm::CompiledKernel compile(const std::string &Source) {
  auto K = vm::compileFirstKernel(Source);
  EXPECT_TRUE(K.ok()) << K.errorMessage();
  return K.take();
}

TEST(FailureLedgerTest, BatchRecordsAndReplaysFailures) {
  ScratchDir Dir("batch");
  // One good kernel, one that always traps out-of-bounds.
  core::SynthesisResult Kernels;
  Kernels.Kernels.push_back(
      {"", compile("__kernel void ok(__global float* a, const int n) {\n"
                   "  int i = get_global_id(0);\n"
                   "  if (i < n) { a[i] = a[i] * 2.0f; }\n"
                   "}\n")});
  Kernels.Kernels.push_back(
      {"", compile("__kernel void oob(__global float* a, const int n) {\n"
                   "  a[get_global_id(0) + n] = 1.0f;\n"
                   "}\n")});

  core::StreamingOptions Opts;
  Opts.Driver.GlobalSize = 512;
  runtime::Platform P = runtime::amdPlatform();
  // One run of the engine over the store in Dir: fresh cache and
  // ledger objects each time, so every hit comes from disk.
  size_t NegativeHits = 0; // The last run's ledger-side tally.
  auto Measure = [&](runtime::BatchCacheStats &Stats, bool WithLedger) {
    ResultCache Cache(Dir.str() + "/results");
    FailureLedger Ledger(Dir.str() + "/failures");
    Opts.Cache = &Cache;
    Opts.Ledger = WithLedger ? &Ledger : nullptr;
    core::StreamingResult Out = core::measureKernels(Kernels, P, Opts);
    Stats = Out.CacheStats;
    NegativeHits = Ledger.stats().NegativeHits;
    return std::move(Out.Measurements);
  };

  // Run 1: cold — the failure is measured and recorded.
  runtime::BatchCacheStats Stats1;
  auto Run1 = Measure(Stats1, true);
  ASSERT_EQ(Run1.size(), 2u);
  EXPECT_TRUE(Run1[0].ok());
  ASSERT_FALSE(Run1[1].ok());
  EXPECT_EQ(Run1[1].trap(), TrapKind::OutOfBounds);
  EXPECT_EQ(Stats1.Misses, 2u);
  EXPECT_EQ(Stats1.LedgerHits, 0u);
  EXPECT_EQ(Stats1.LedgerRecords, 1u);

  // Run 2: fresh cache+ledger objects over the same directories — the
  // success is a cache hit, the failure a ledger negative hit, and the
  // replayed diagnostic is byte-identical. Nothing is measured.
  runtime::BatchCacheStats Stats2;
  auto Run2 = Measure(Stats2, true);
  ASSERT_EQ(Run2.size(), 2u);
  EXPECT_TRUE(Run2[0].ok());
  ASSERT_FALSE(Run2[1].ok());
  EXPECT_EQ(Run2[1].errorMessage(), Run1[1].errorMessage());
  EXPECT_EQ(Run2[1].trap(), Run1[1].trap());
  EXPECT_EQ(Stats2.Hits, 1u);
  EXPECT_EQ(Stats2.LedgerHits, 1u);
  EXPECT_EQ(Stats2.Misses, 0u);
  EXPECT_EQ(Stats2.LedgerRecords, 0u);
  EXPECT_EQ(NegativeHits, 1u);

  // Without a ledger the failure is simply re-measured (same result).
  runtime::BatchCacheStats Stats3;
  auto Run3 = Measure(Stats3, false);
  ASSERT_FALSE(Run3[1].ok());
  EXPECT_EQ(Run3[1].errorMessage(), Run1[1].errorMessage());
  EXPECT_EQ(Stats3.Misses, 1u);
  EXPECT_EQ(Stats3.LedgerHits, 0u);
}

} // namespace
