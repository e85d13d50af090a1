//===- tests/stress/StoreStampedeTest.cpp - store concurrency stress ----------===//
//
// Concurrency stress for the store lifecycle engine, in the stress
// binary (ctest label "stress", the intended TSan workload — see
// ChannelSoakTest.cpp for the invocations):
//
//   - cold-start stampedes on one fingerprint/configuration — threads
//     AND fork()ed processes — must do the expensive work exactly once
//     (store/Lock.h advisory locking, double-checked under the lock);
//   - concurrent `store::sweep` against live ResultCache readers and
//     writers: readers either hit with a complete, correct entry or
//     miss — never a torn or mixed-up measurement, and the sweep/read
//     race is TSan-clean.
//
//===----------------------------------------------------------------------===//

#include "store/Lifecycle.h"

#include "clgen/Pipeline.h"
#include "githubsim/GithubSim.h"
#include "store/FailureLedger.h"
#include "store/Lock.h"
#include "store/ResultCache.h"
#include "store/Serialization.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

using namespace clgen;
using namespace clgen::store;

namespace fs = std::filesystem;

namespace {

class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name)
      : Path(fs::temp_directory_path() /
             ("clgen_stampede_test_" + Name)) {
    fs::remove_all(Path);
    fs::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code Ec;
    fs::remove_all(Path, Ec);
  }
  std::string file(const std::string &Name) const {
    return (Path / Name).string();
  }
  std::string str() const { return Path.string(); }

private:
  fs::path Path;
};

/// Small, fast training workload shared by every stampede test; the
/// point is contention, not model quality.
std::vector<corpus::ContentFile> smallWorkload() {
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = 40;
  return githubsim::mineGithub(GOpts);
}

core::PipelineOptions smallPipelineOptions() {
  core::PipelineOptions Opts;
  Opts.NGram.Order = 6;
  Opts.Corpus.Workers = 1; // Keep each racer single-threaded inside.
  return Opts;
}

/// Start barrier: racers block until every thread is staged, so the
/// cold fast-path probes genuinely overlap.
class StartGate {
public:
  void waitAt(size_t Expected) {
    std::unique_lock<std::mutex> Lock(M);
    if (++Arrived >= Expected) {
      Open = true;
      Cv.notify_all();
      return;
    }
    Cv.wait(Lock, [this] { return Open; });
  }

private:
  std::mutex M;
  std::condition_variable Cv;
  size_t Arrived = 0;
  bool Open = false;
};

/// Canonical byte image of a streaming outcome (kernel sources and
/// bytecode, then measurements); equal bytes mean the same result.
std::vector<uint8_t> resultBytes(const core::StreamingResult &Out) {
  ArchiveWriter W(ArchiveKind::Synthesis);
  W.writeU64(Out.Kernels.size());
  for (const core::SynthesizedKernel &K : Out.Kernels) {
    W.writeString(K.Source);
    serializeCompiledKernel(W, K.Kernel);
  }
  W.writeU64(Out.Measurements.size());
  for (const auto &M : Out.Measurements) {
    W.writeBool(M.ok());
    if (M.ok())
      serializeMeasurement(W, M.get());
    else
      W.writeString(M.errorMessage());
  }
  return W.finalize();
}

} // namespace

//===----------------------------------------------------------------------===//
// Thread-level stampedes
//===----------------------------------------------------------------------===//

TEST(StoreStampedeTest, ThreadColdStampedeTrainsExactlyOnce) {
  ScratchDir Dir("train_threads");
  auto Files = smallWorkload();
  auto Opts = smallPipelineOptions();
  constexpr size_t Racers = 4;

  StartGate Gate;
  std::atomic<size_t> Trained{0}, Loaded{0}, Failed{0};
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < Racers; ++T)
    Threads.emplace_back([&] {
      Gate.waitAt(Racers);
      core::TrainOrLoadInfo Info;
      auto P = core::ClgenPipeline::trainOrLoad(Dir.str(), Files, Opts,
                                                &Info);
      if (!P.ok()) {
        Failed.fetch_add(1);
        return;
      }
      (Info.LoadedModel ? Loaded : Trained).fetch_add(1);
    });
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(Failed.load(), 0u);
  EXPECT_EQ(Trained.load(), 1u)
      << "stampede control must dedupe concurrent cold training";
  EXPECT_EQ(Loaded.load(), Racers - 1);

  // And everyone must have ended up with the same artifact: one more
  // warm start matches the store bytes written by the single trainer.
  core::TrainOrLoadInfo Info;
  auto Warm =
      core::ClgenPipeline::trainOrLoad(Dir.str(), Files, Opts, &Info);
  ASSERT_TRUE(Warm.ok());
  EXPECT_TRUE(Info.LoadedModel);
}

TEST(StoreStampedeTest, ThreadColdStampedeSynthesizesExactlyOnce) {
  ScratchDir Dir("synth_threads");
  auto Files = smallWorkload();
  auto Opts = smallPipelineOptions();
  constexpr size_t Racers = 4;

  // Each racer owns an identically-trained pipeline (deterministic
  // training ⇒ identical models ⇒ identical synthesis cache keys).
  std::vector<core::ClgenPipeline> Pipelines;
  for (size_t T = 0; T < Racers; ++T)
    Pipelines.push_back(core::ClgenPipeline::train(Files, Opts));

  core::SynthesisOptions SOpts;
  SOpts.TargetKernels = 4;
  SOpts.Workers = 1;

  StartGate Gate;
  std::atomic<size_t> Synthesized{0}, LoadedCount{0};
  std::vector<std::string> Sources(Racers);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < Racers; ++T)
    Threads.emplace_back([&, T] {
      Gate.waitAt(Racers);
      bool Loaded = false;
      auto Out = Pipelines[T].synthesizeOrLoad(Dir.str(), SOpts, &Loaded);
      (Loaded ? LoadedCount : Synthesized).fetch_add(1);
      for (const auto &K : Out.Kernels)
        Sources[T] += K.Source;
    });
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(Synthesized.load(), 1u)
      << "exactly one racer may pay the sampling cost";
  EXPECT_EQ(LoadedCount.load(), Racers - 1);
  for (size_t T = 1; T < Racers; ++T)
    EXPECT_EQ(Sources[T], Sources[0])
        << "loaded kernel sets must be byte-identical to the sampled one";
}

TEST(StoreStampedeTest, ThreadColdStampedeStreamingMeasuresEachKernelOnce) {
  ScratchDir Dir("stream_threads");
  auto Files = smallWorkload();
  auto Opts = smallPipelineOptions();
  constexpr size_t Racers = 4;

  // One identically-trained pipeline per racer, plus one for the solo
  // reference (identical models give identical kernel-set keys).
  std::vector<core::ClgenPipeline> Pipelines;
  for (size_t T = 0; T <= Racers; ++T)
    Pipelines.push_back(core::ClgenPipeline::train(Files, Opts));

  core::StreamingOptions SOpts;
  SOpts.Synthesis.TargetKernels = 6;
  SOpts.Synthesis.MaxAttempts = 6000;
  SOpts.Synthesis.Workers = 1;
  SOpts.Driver.GlobalSize = 4096;
  auto Platform = runtime::amdPlatform();

  // Reference: a solo run with no store at all.
  core::StreamingResult Reference =
      Pipelines[Racers].synthesizeAndMeasure(Platform, SOpts);
  const size_t Accepted = Reference.Kernels.size();
  ASSERT_EQ(Accepted, SOpts.Synthesis.TargetKernels);
  size_t Failures = 0;
  for (const auto &M : Reference.Measurements)
    Failures += M.ok() ? 0 : 1;
  // Both serving paths must be exercised: result-cache hits for the
  // successes, ledger hits for the failures.
  ASSERT_GT(Failures, 0u);
  ASSERT_LT(Failures, Accepted);
  const std::vector<uint8_t> RefBytes = resultBytes(Reference);

  StartGate Gate;
  std::atomic<size_t> TotalMisses{0}, TotalServed{0}, Mismatches{0},
      Sampled{0};
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < Racers; ++T)
    Threads.emplace_back([&, T] {
      // Each racer gets its own cache and ledger INSTANCES over the
      // shared store — the in-memory fronts are independent, exactly
      // like separate processes sharing one store.
      store::ResultCache Cache(Dir.str() + "/results");
      store::FailureLedger Ledger(Dir.str() + "/failures");
      core::StreamingOptions Mine = SOpts;
      Mine.Cache = &Cache;
      Mine.Ledger = &Ledger;
      Gate.waitAt(Racers);
      core::StreamingWarmInfo Info;
      core::StreamingResult Out = Pipelines[T].synthesizeAndMeasureOrLoad(
          Dir.str(), Platform, Mine, &Info);
      Sampled.fetch_add(Info.Warm ? 0 : 1);
      TotalMisses.fetch_add(Out.CacheStats.Misses);
      TotalServed.fetch_add(Out.CacheStats.Hits + Out.CacheStats.LedgerHits);
      if (resultBytes(Out) != RefBytes)
        Mismatches.fetch_add(1);
    });
  for (auto &T : Threads)
    T.join();

  // The winner holds the "synthesis" lock through its cold sample +
  // measure, the ledger sweep and the kernel-set save; every racer that
  // waited re-probes, loads the set and is served from the result
  // cache (successes) or the ledger (deterministic failures).
  EXPECT_EQ(Mismatches.load(), 0u)
      << "every racer must return the solo reference's bytes";
  EXPECT_EQ(Sampled.load(), 1u) << "exactly one racer may sample";
  EXPECT_EQ(TotalMisses.load(), Accepted)
      << "each kernel must be measured exactly once across all racers";
  EXPECT_EQ(TotalServed.load(), Accepted * (Racers - 1));
}

//===----------------------------------------------------------------------===//
// Process-level stampede (fork)
//===----------------------------------------------------------------------===//

#ifndef _WIN32
TEST(StoreStampedeTest, ForkedColdStampedeTrainsExactlyOnce) {
  ScratchDir Dir("train_forks");
  auto Files = smallWorkload();
  auto Opts = smallPipelineOptions();
  Opts.Train.Workers = 1;
  constexpr int Racers = 4;
  std::string GoFile = Dir.file("go");

  std::vector<pid_t> Children;
  for (int C = 0; C < Racers; ++C) {
    pid_t Pid = fork();
    ASSERT_GE(Pid, 0) << "fork failed";
    if (Pid == 0) {
      // Child: spin until the parent releases every racer at once,
      // run the cold-start path, record the verdict, and _exit so no
      // gtest/atexit machinery runs twice.
      for (int Spin = 0; Spin < 5000 && !fs::exists(GoFile); ++Spin)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      core::TrainOrLoadInfo Info;
      auto P = core::ClgenPipeline::trainOrLoad(Dir.str(), Files, Opts,
                                                &Info);
      char Verdict = !P.ok() ? 'F' : (Info.LoadedModel ? 'L' : 'T');
      std::ofstream Out(Dir.file("verdict-" + std::to_string(C)));
      Out << Verdict;
      Out.close();
      _exit(0);
    }
    Children.push_back(Pid);
  }
  { std::ofstream Go(GoFile); }

  for (pid_t Pid : Children) {
    int Status = 0;
    ASSERT_EQ(waitpid(Pid, &Status, 0), Pid);
    EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
  }

  int Trained = 0, Loaded = 0, Failed = 0;
  for (int C = 0; C < Racers; ++C) {
    std::ifstream In(Dir.file("verdict-" + std::to_string(C)));
    char Verdict = 0;
    In >> Verdict;
    Trained += Verdict == 'T';
    Loaded += Verdict == 'L';
    Failed += Verdict != 'T' && Verdict != 'L';
  }
  EXPECT_EQ(Failed, 0);
  EXPECT_EQ(Trained, 1)
      << "cross-process stampede control must dedupe cold training";
  EXPECT_EQ(Loaded, Racers - 1);
}
#endif // !_WIN32

//===----------------------------------------------------------------------===//
// Concurrent GC vs. live cache traffic
//===----------------------------------------------------------------------===//

TEST(StoreStampedeTest, ConcurrentGcVsCacheReadsNeverServesTornEntries) {
  // One thread continuously sweeps the store down to a budget that
  // evicts most entries while reader threads hammer lookups and a
  // writer re-stores what the sweeps evict. Readers must only ever see
  // (a) a miss or (b) the exact measurement stored for that key —
  // never a torn, truncated or mixed-up entry. Under TSan this is also
  // the data-race certification for sweep vs. ResultCache.
  ScratchDir Dir("gc_vs_reads");
  constexpr size_t KeyCount = 12;
  constexpr size_t Readers = 3;
  constexpr auto Duration = std::chrono::milliseconds(1500);

  auto MeasurementFor = [](size_t I) {
    runtime::Measurement M;
    M.CpuTime = 1.0 + static_cast<double>(I);
    M.GpuTime = 100.0 + static_cast<double>(I);
    M.Counters.Instructions = 1000 + I;
    M.GlobalSize = 64 * (I + 1);
    return M;
  };
  std::vector<uint64_t> Keys(KeyCount);
  {
    ResultCache Seeder(Dir.str());
    for (size_t I = 0; I < KeyCount; ++I) {
      Keys[I] = 0xFEED0000ull + I;
      ASSERT_TRUE(Seeder.store(Keys[I], MeasurementFor(I)).ok());
    }
  }

  std::atomic<bool> Stop{false};
  std::atomic<size_t> TornEntries{0}, Hits{0}, Misses{0}, Sweeps{0};

  std::thread Sweeper([&] {
    SweepPolicy P;
    P.MaxBytes = 300; // Keeps only a couple of 216-byte entries.
    while (!Stop.load(std::memory_order_relaxed)) {
      auto R = sweep(Dir.str(), P);
      EXPECT_TRUE(R.ok()) << R.errorMessage();
      Sweeps.fetch_add(1);
    }
  });
  std::thread Writer([&] {
    ResultCache Cache(Dir.str());
    size_t I = 0;
    while (!Stop.load(std::memory_order_relaxed)) {
      Cache.store(Keys[I % KeyCount], MeasurementFor(I % KeyCount));
      ++I;
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::vector<std::thread> ReaderThreads;
  for (size_t T = 0; T < Readers; ++T)
    ReaderThreads.emplace_back([&, T] {
      // A fresh instance per reader: every hit exercises the disk/
      // revalidation path against the sweeper, like a cold process.
      ResultCache Cache(Dir.str());
      size_t I = T;
      while (!Stop.load(std::memory_order_relaxed)) {
        size_t K = I++ % KeyCount;
        auto M = Cache.lookup(Keys[K]);
        if (!M) {
          Misses.fetch_add(1);
          continue;
        }
        Hits.fetch_add(1);
        runtime::Measurement Want = MeasurementFor(K);
        if (M->CpuTime != Want.CpuTime || M->GpuTime != Want.GpuTime ||
            M->Counters.Instructions != Want.Counters.Instructions ||
            M->GlobalSize != Want.GlobalSize)
          TornEntries.fetch_add(1);
      }
    });

  std::this_thread::sleep_for(Duration);
  Stop.store(true);
  Sweeper.join();
  Writer.join();
  for (auto &T : ReaderThreads)
    T.join();

  EXPECT_EQ(TornEntries.load(), 0u)
      << "a reader saw a half-evicted or mixed-up entry";
  EXPECT_GT(Sweeps.load(), 0u);
  EXPECT_GT(Hits.load() + Misses.load(), 0u);

  // The store itself must come out of the torture readable.
  auto Entries = scanStore(Dir.str());
  ASSERT_TRUE(Entries.ok());
  for (const EntryInfo &E : Entries.get())
    EXPECT_TRUE(E.Valid) << E.RelPath << ": " << E.Problem;
}
