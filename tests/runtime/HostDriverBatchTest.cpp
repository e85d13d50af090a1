//===- tests/runtime/HostDriverBatchTest.cpp - batched driver tests ----------===//
//
// The uncached runBenchmarkBatch (the phased reference), and the cached
// measurement of a fixed kernel set (core::measureKernels) against it.
//
//===----------------------------------------------------------------------===//

#include "runtime/HostDriver.h"

#include "clgen/Pipeline.h"
#include "store/ResultCache.h"
#include "vm/Compiler.h"

#include <gtest/gtest.h>

#include <filesystem>

using namespace clgen;
using namespace clgen::runtime;

namespace {

std::vector<vm::CompiledKernel> sampleBatch() {
  const char *Sources[] = {
      "__kernel void a(__global float* x, const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  if (i < n) { x[i] = x[i] * 2.0f + 1.0f; }\n"
      "}\n",
      "__kernel void b(__global float* x, const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  if (i < n) { x[i] = x[i] + 3.0f; }\n"
      "}\n",
      "__kernel void c(__global float* x, const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  if (i < n) { x[i] = x[i] * x[i]; }\n"
      "}\n",
  };
  std::vector<vm::CompiledKernel> Kernels;
  for (const char *S : Sources)
    Kernels.push_back(vm::compileFirstKernel(S).take());
  return Kernels;
}

} // namespace

TEST(HostDriverBatchTest, MeasuresEveryKernel) {
  auto Kernels = sampleBatch();
  DriverOptions Opts;
  Opts.GlobalSize = 1024;
  auto Results = runBenchmarkBatch(Kernels, amdPlatform(), Opts, 2);
  ASSERT_EQ(Results.size(), Kernels.size());
  for (const auto &R : Results) {
    ASSERT_TRUE(R.ok()) << R.errorMessage();
    EXPECT_GT(R.get().Counters.Instructions, 0u);
    EXPECT_GT(R.get().CpuTime, 0.0);
  }
}

TEST(HostDriverBatchTest, DeterministicAcrossWorkerCounts) {
  auto Kernels = sampleBatch();
  DriverOptions Opts;
  Opts.GlobalSize = 512;
  auto Serial = runBenchmarkBatch(Kernels, amdPlatform(), Opts, 1);
  auto Parallel = runBenchmarkBatch(Kernels, amdPlatform(), Opts, 4);
  ASSERT_EQ(Serial.size(), Parallel.size());
  for (size_t I = 0; I < Serial.size(); ++I) {
    ASSERT_TRUE(Serial[I].ok());
    ASSERT_TRUE(Parallel[I].ok());
    EXPECT_EQ(Serial[I].get().Counters.Instructions,
              Parallel[I].get().Counters.Instructions);
    EXPECT_DOUBLE_EQ(Serial[I].get().CpuTime, Parallel[I].get().CpuTime);
    EXPECT_DOUBLE_EQ(Serial[I].get().GpuTime, Parallel[I].get().GpuTime);
  }
}

TEST(HostDriverBatchTest, CachedBatchMatchesUncachedAndHitsOnRerun) {
  std::string Dir = (std::filesystem::temp_directory_path() /
                     "clgen_batch_cache_test")
                        .string();
  std::filesystem::remove_all(Dir);

  auto Kernels = sampleBatch();
  DriverOptions Opts;
  Opts.GlobalSize = 1024;
  auto P = amdPlatform();
  auto Uncached = runBenchmarkBatch(Kernels, P, Opts, 2);

  core::SynthesisResult Set;
  for (const vm::CompiledKernel &K : Kernels)
    Set.Kernels.push_back({"", K});
  core::StreamingOptions SOpts;
  SOpts.Driver = Opts;
  SOpts.MeasureWorkers = 2;
  store::ResultCache Cache(Dir);
  SOpts.Cache = &Cache;
  auto First = core::measureKernels(Set, P, SOpts);
  EXPECT_EQ(First.CacheStats.Hits, 0u);
  EXPECT_EQ(First.CacheStats.Misses, Kernels.size());
  // Warm rerun across worker counts and a fresh cache instance (disk
  // path): everything hits and nothing re-executes.
  store::ResultCache Reopened(Dir);
  SOpts.Cache = &Reopened;
  SOpts.MeasureWorkers = 4;
  auto Second = core::measureKernels(Set, P, SOpts);
  EXPECT_EQ(Second.CacheStats.Hits, Kernels.size());
  EXPECT_EQ(Second.CacheStats.Misses, 0u);

  ASSERT_EQ(First.Measurements.size(), Uncached.size());
  ASSERT_EQ(Second.Measurements.size(), Uncached.size());
  for (size_t I = 0; I < Uncached.size(); ++I) {
    const auto &Cold = First.Measurements[I];
    const auto &Warm = Second.Measurements[I];
    ASSERT_TRUE(Uncached[I].ok());
    ASSERT_TRUE(Cold.ok());
    ASSERT_TRUE(Warm.ok());
    EXPECT_EQ(Cold.get().Counters.Instructions,
              Uncached[I].get().Counters.Instructions);
    EXPECT_EQ(Cold.get().CpuTime, Uncached[I].get().CpuTime);
    EXPECT_EQ(Warm.get().CpuTime, Uncached[I].get().CpuTime);
    EXPECT_EQ(Warm.get().GpuTime, Uncached[I].get().GpuTime);
    EXPECT_EQ(Warm.get().Counters.Instructions,
              Uncached[I].get().Counters.Instructions);
  }
  std::filesystem::remove_all(Dir);
}
