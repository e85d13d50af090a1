//===- tests/clgen/PipelineDispatchTest.cpp - dispatch byte-identity ----------===//
//
// Pipeline-level face of the VM's trap-parity contract: the measurement
// pipeline must produce BYTE-identical measurements whichever dispatch
// strategy (DriverOptions::Dispatch: switch, threaded or auto) the VM
// runs, at every measurement worker count, cold-cache and warm-cache. That identity is
// what licenses excluding DispatchMode from the measurement cache key:
// results cached under one mode are served under any other, which the
// warm-cache test pins by demanding 100% hits across a mode change.
//
//===----------------------------------------------------------------------===//

#include "clgen/Pipeline.h"

#include "githubsim/GithubSim.h"
#include "store/ResultCache.h"
#include "store/Serialization.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

#include <filesystem>

using namespace clgen;
using namespace clgen::core;

namespace {

/// Fresh per-test scratch directory, removed on destruction.
class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name)
      : Path(std::filesystem::temp_directory_path() /
             ("clgen_dispatch_test_" + Name)) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  std::string str() const { return Path.string(); }

private:
  std::filesystem::path Path;
};

/// Canonical byte image of a measurement batch; two batches are "the
/// same result" iff these bytes are equal.
std::vector<uint8_t>
measurementBytes(const std::vector<Result<runtime::Measurement>> &Ms) {
  store::ArchiveWriter W(store::ArchiveKind::Synthesis);
  W.writeU64(Ms.size());
  for (const auto &M : Ms) {
    W.writeBool(M.ok());
    if (M.ok())
      store::serializeMeasurement(W, M.get());
    else
      W.writeString(M.errorMessage());
  }
  return W.finalize();
}

struct Workload {
  /// The synthesized set, for the cached engine (measureKernels), and
  /// its bytecode alone, for the uncached runBenchmarkBatch.
  SynthesisResult Set;
  std::vector<vm::CompiledKernel> Kernels;
  runtime::DriverOptions Driver;
  runtime::Platform P = runtime::amdPlatform();
};

Workload makeWorkload() {
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = 60;
  auto Files = githubsim::mineGithub(GOpts);
  PipelineOptions POpts;
  POpts.NGram.Order = 8;
  ClgenPipeline Pipeline = ClgenPipeline::train(Files, POpts);
  SynthesisOptions SOpts;
  SOpts.TargetKernels = 4;
  SOpts.MaxAttempts = 6000;
  Workload W;
  W.Set = Pipeline.synthesize(SOpts);
  for (auto &K : W.Set.Kernels)
    W.Kernels.push_back(K.Kernel);
  EXPECT_GT(W.Kernels.size(), 0u);
  W.Driver.GlobalSize = 2048;
  return W;
}

} // namespace

TEST(PipelineDispatchTest, ByteIdenticalAcrossModesAndWorkerCounts) {
  Workload W = makeWorkload();
  // Reference: the portable switch loop, serial.
  W.Driver.Dispatch = vm::DispatchMode::Switch;
  auto RefBytes =
      measurementBytes(runtime::runBenchmarkBatch(W.Kernels, W.P, W.Driver, 1));

  for (vm::DispatchMode Mode :
       {vm::DispatchMode::Threaded, vm::DispatchMode::Auto,
        vm::DispatchMode::Switch}) {
    for (unsigned Workers : {1u, 2u}) {
      SCOPED_TRACE(std::string("dispatch ") + vm::dispatchModeName(Mode) +
                   ", workers " + std::to_string(Workers));
      W.Driver.Dispatch = Mode;
      auto Out = runtime::runBenchmarkBatch(W.Kernels, W.P, W.Driver, Workers);
      EXPECT_EQ(measurementBytes(Out), RefBytes)
          << "measurements diverged from the switch reference";
    }
  }
}

TEST(PipelineDispatchTest, DispatchExcludedFromCacheKey) {
  Workload W = makeWorkload();
  ScratchDir Dir("cache_key");

  // Cold cache under switch dispatch: everything misses and the store
  // comes out populated.
  StreamingOptions Opts;
  Opts.Driver = W.Driver;
  Opts.Driver.Dispatch = vm::DispatchMode::Switch;
  store::ResultCache Cold(Dir.str());
  Opts.Cache = &Cold;
  StreamingResult ColdOut = measureKernels(W.Set, W.P, Opts);
  auto RefBytes = measurementBytes(ColdOut.Measurements);
  EXPECT_EQ(ColdOut.CacheStats.Hits, 0u);
  size_t Successes = 0;
  for (const auto &M : ColdOut.Measurements)
    Successes += M.ok() ? 1 : 0;
  EXPECT_GT(Successes, 0u);

  // Warm cache under THREADED dispatch (fresh instance, so hits come off
  // disk): the mode is excluded from the key recipe, so every
  // measurement cached under switch must be served verbatim — and the
  // output must still be byte-identical, which is only sound because
  // the modes measure identically in the first place.
  Opts.Driver.Dispatch = vm::DispatchMode::Threaded;
  Opts.MeasureWorkers = 2;
  store::ResultCache Warm(Dir.str());
  Opts.Cache = &Warm;
  StreamingResult WarmOut = measureKernels(W.Set, W.P, Opts);
  EXPECT_EQ(WarmOut.CacheStats.Hits, Successes)
      << "a dispatch-mode change must not invalidate cached measurements";
  EXPECT_EQ(measurementBytes(WarmOut.Measurements), RefBytes);
}

TEST(PipelineDispatchTest, StreamingPipelineHonorsDispatch) {
  // The streaming engine threads DriverOptions::Dispatch through to its
  // measurement workers; threaded streaming output must equal the phased
  // switch-dispatch reference byte for byte.
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = 60;
  auto Files = githubsim::mineGithub(GOpts);
  PipelineOptions POpts;
  POpts.NGram.Order = 8;
  ClgenPipeline Pipeline = ClgenPipeline::train(Files, POpts);

  SynthesisOptions SOpts;
  SOpts.TargetKernels = 3;
  SOpts.MaxAttempts = 6000;
  runtime::DriverOptions Driver;
  Driver.GlobalSize = 2048;
  runtime::Platform P = runtime::amdPlatform();

  SynthesisResult SR = Pipeline.synthesize(SOpts);
  std::vector<vm::CompiledKernel> Kernels;
  for (auto &K : SR.Kernels)
    Kernels.push_back(K.Kernel);
  Driver.Dispatch = vm::DispatchMode::Switch;
  auto RefBytes =
      measurementBytes(runtime::runBenchmarkBatch(Kernels, P, Driver, 1));

  StreamingOptions Opts;
  Opts.Synthesis = SOpts;
  Opts.Driver = Driver;
  Opts.Driver.Dispatch = vm::DispatchMode::Threaded;
  Opts.MeasureWorkers = 2;
  StreamingResult Out = Pipeline.synthesizeAndMeasure(P, Opts);
  EXPECT_EQ(measurementBytes(Out.Measurements), RefBytes);
}
