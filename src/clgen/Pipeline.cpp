//===- clgen/Pipeline.cpp - End-to-end CLgen pipeline -------------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "clgen/Pipeline.h"

#include "store/Archive.h"
#include "store/FailureLedger.h"
#include "store/Lock.h"
#include "store/ResultCache.h"
#include "store/Serialization.h"
#include "support/Channel.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Trace.h"

#include <chrono>
#include <deque>
#include <filesystem>
#include <functional>
#include <optional>
#include <thread>

using namespace clgen;
using namespace clgen::core;

ClgenPipeline
ClgenPipeline::train(const std::vector<corpus::ContentFile> &Files,
                     const PipelineOptions &Opts) {
  ClgenPipeline P;
  P.TrainingCorpus = corpus::buildCorpus(Files, Opts.Corpus);
  switch (Opts.Backend) {
  case ModelBackend::NGram: {
    auto M = std::make_unique<model::NGramModel>(Opts.NGram);
    M->train(P.TrainingCorpus.Entries);
    P.Model = std::move(M);
    break;
  }
  case ModelBackend::Lstm: {
    auto M = std::make_unique<model::LstmModel>(Opts.Lstm);
    M->train(P.TrainingCorpus.Entries, Opts.Train);
    P.Model = std::move(M);
    break;
  }
  }
  return P;
}

SynthesisResult ClgenPipeline::synthesize(const SynthesisOptions &Opts) {
  return synthesizeKernels(*Model, Opts);
}

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// Feeds kernels, in accept order, into the sink it is given.
using Producer = std::function<void(const AcceptSink &)>;

/// The cached measurement engine behind synthesizeAndMeasure and
/// measureKernels. A producer hands kernels to the enqueue sink, which
/// resolves cache and ledger hits in place and pushes misses onto a
/// bounded channel drained by the consumer pool; after the join, fresh
/// deterministic failures are swept into the ledger. The two entry
/// points differ only in the producer: the synthesis engine, or a loop
/// over a fixed kernel set.
class MeasureStream {
public:
  MeasureStream(const runtime::Platform &P, const StreamingOptions &Opts)
      : P(P), Opts(Opts), Base(Opts.Driver.Seed),
        NeedKeys(Opts.Cache != nullptr || Opts.Ledger != nullptr),
        Workers(ThreadPool::resolveWorkerCount(Opts.MeasureWorkers)),
        Capacity(Opts.QueueCapacity > 0 ? Opts.QueueCapacity
                                        : std::max<size_t>(Workers * 2, 8)) {}

  /// One producer/consumer round: a fresh channel and consumer pool
  /// measure every kernel \p Produce hands over, then this round's new
  /// slots are swept into the ledger. The classic pipeline and the
  /// fixed-set path are one round; refill runs more.
  void round(const Producer &Produce) {
    support::Channel<runtime::MeasureJob> Jobs(Capacity);
    std::vector<std::thread> Consumers;
    Consumers.reserve(Workers);
    for (size_t W = 0; W < Workers; ++W)
      Consumers.emplace_back([this, &Jobs] {
        runtime::runMeasurementLoop(Jobs, P, Opts.Cache);
      });

    // Close-and-join must run even when the producer throws (sampling,
    // the rejection filter or a cache probe can raise): otherwise the
    // consumers block in pop() forever and unwinding the joinable
    // threads would terminate the process. Idempotent, so the success
    // path below can invoke it early to timestamp the drain.
    auto CloseAndJoin = [&Jobs, &Consumers] {
      Jobs.close();
      for (std::thread &T : Consumers)
        if (T.joinable())
          T.join();
    };
    struct Guard {
      std::function<void()> &Fn;
      ~Guard() { Fn(); }
    };
    std::function<void()> CloseFn = CloseAndJoin;
    Guard JoinGuard{CloseFn};

    Clock::time_point RoundStart = Clock::now();
    Produce([&](size_t Index, const SynthesizedKernel &SK) {
      enqueue(Jobs, Index, SK);
    });
    Clock::time_point ProduceDone = Clock::now();
    CloseAndJoin();
    DrainMs += msBetween(ProduceDone, Clock::now());
    ProduceMs += msBetween(RoundStart, ProduceDone);
    sweepLedger();
  }

  /// One result slot per kernel, appended in accept order: a deque
  /// keeps element addresses stable while it grows, so the producer can
  /// mint new slots while consumers write through pointers to earlier
  /// ones, and memory stays proportional to actual output, not the
  /// requested target. Keys and the ledger-hit flags are index-aligned
  /// side tables, kept only when a cache or ledger is configured.
  std::deque<Result<runtime::Measurement>> Slots;
  std::deque<uint64_t> Keys;
  std::deque<bool> FromLedger;
  runtime::BatchCacheStats CacheStats;
  double ProduceMs = 0.0, DrainMs = 0.0;

  bool keyed() const { return NeedKeys; }

  /// Moves every slot out, in accept order.
  std::vector<Result<runtime::Measurement>> takeMeasurements() {
    std::vector<Result<runtime::Measurement>> Out;
    Out.reserve(Slots.size());
    for (Result<runtime::Measurement> &S : Slots)
      Out.push_back(std::move(S));
    return Out;
  }

  /// Fills the measurement-side fields every entry point reports.
  void report(StreamingResult &Out) const {
    Out.CacheStats = CacheStats;
    Out.SynthesisWallMs = ProduceMs;
    Out.DrainWallMs = DrainMs;
  }

private:
  /// The enqueue sink: kernel \p Index is measured under
  /// batchDriverOptions(Driver, Base, Index), the derivation the
  /// uncached runBenchmarkBatch uses too, so results (and cache keys)
  /// are those of the phased path.
  void enqueue(support::Channel<runtime::MeasureJob> &Jobs, size_t Index,
               const SynthesizedKernel &SK) {
    CLGS_TRACE_SPAN_IDX("enqueue", Index);
    Slots.push_back(Result<runtime::Measurement>::error("not measured"));
    runtime::MeasureJob J;
    J.Slot = &Slots.back();
    J.Index = Index;
    J.Opts = runtime::batchDriverOptions(Opts.Driver, Base, Index);
    if (NeedKeys) {
      Keys.push_back(store::measurementKey(SK.Kernel, J.Opts, P));
      FromLedger.push_back(false);
    }
    // Injected producer-side fault, keyed by the accept index: the
    // kernel's slot records an injected failure without a job ever
    // entering the channel — the refill pass treats it like any other
    // failed measurement.
    if (CLGS_FAILPOINT_KEYED("pipeline.enqueue", Index)) {
      *J.Slot = Result<runtime::Measurement>::error(
          "injected fault at pipeline.enqueue", TrapKind::Injected);
      return;
    }
    if (Opts.Cache) {
      J.CacheKey = Keys.back();
      if (auto Hit = Opts.Cache->lookup(J.CacheKey)) {
        // Enqueue-time probe: a hit is resolved right here and never
        // occupies a measurement slot.
        *J.Slot = *Hit;
        ++CacheStats.Hits;
        CLGS_COUNT("clgen.measure.cache_hits");
        return;
      }
      J.WriteBack = true;
    }
    if (Opts.Ledger) {
      if (auto Known = Opts.Ledger->lookup(Keys.back())) {
        // Negative hit: the recorded failure is replayed verbatim; the
        // kernel is never (re-)measured.
        *J.Slot = Result<runtime::Measurement>::error(Known->Detail,
                                                      Known->Kind);
        FromLedger.back() = true;
        ++CacheStats.LedgerHits;
        CLGS_COUNT("clgen.measure.ledger_hits");
        return;
      }
    }
    if (Opts.Cache) {
      ++CacheStats.Misses; // Counts kernels actually measured.
      CLGS_COUNT("clgen.measure.misses");
    }
    J.Kernel = SK.Kernel;
    Jobs.push(std::move(J)); // Blocks when measurement is behind.
  }

  /// Records the fresh deterministic failures among the slots added
  /// since the last sweep (record() refuses transient/injected kinds on
  /// its own, but the isDeterministicTrap guard keeps the tally exact).
  /// Producer-side, after the join: consumers never touch the ledger.
  void sweepLedger() {
    if (Opts.Ledger) {
      for (size_t I = Swept; I < Slots.size(); ++I) {
        if (Slots[I].ok() || FromLedger[I] ||
            !isDeterministicTrap(Slots[I].trap()))
          continue;
        store::FailureRecord Rec;
        Rec.Kind = Slots[I].trap();
        Rec.Detail = Slots[I].errorMessage();
        Rec.Attempts = 1; // Deterministic traps fail on attempt one.
        if (Opts.Ledger->record(Keys[I], Rec).ok()) {
          ++CacheStats.LedgerRecords;
          CLGS_COUNT("clgen.measure.ledger_records");
        }
      }
    }
    Swept = Slots.size();
  }

  const runtime::Platform &P;
  const StreamingOptions &Opts;
  const Rng Base;
  const bool NeedKeys;
  const size_t Workers, Capacity;
  size_t Swept = 0; // Slots already swept for ledger recording.
};

} // namespace

StreamingResult core::synthesizeAndMeasure(model::LanguageModel &Model,
                                           const runtime::Platform &P,
                                           const StreamingOptions &Opts) {
  Clock::time_point Start = Clock::now();
  MeasureStream Stream(P, Opts);
  SynthesisEngine Eng(Model, Opts.Synthesis);
  auto RunRound = [&](size_t CumTarget) {
    Stream.round(
        [&](const AcceptSink &Sink) { Eng.extendTo(CumTarget, Sink); });
  };

  const size_t Target = Opts.Synthesis.TargetKernels;
  RunRound(Target);

  std::deque<Result<runtime::Measurement>> &Slots = Stream.Slots;
  if (Opts.RefillFailures) {
    // Refill rounds: every failed slot is a shortfall; the engine's
    // sampling cursor resumes where it stopped, so replacement kernels
    // are exactly those a larger fault-free run would have produced
    // next. Terminates when TargetKernels measurements succeeded, the
    // attempt budget ran dry, or a round made no synthesis progress.
    auto CountOk = [&] {
      size_t N = 0;
      for (const Result<runtime::Measurement> &S : Slots)
        if (S.ok())
          ++N;
      return N;
    };
    size_t Ok = CountOk();
    while (Ok < Target && !Eng.exhausted()) {
      size_t Before = Slots.size();
      RunRound(Slots.size() + (Target - Ok));
      if (Slots.size() == Before)
        break;
      Ok = CountOk();
    }
  }
  Clock::time_point End = Clock::now();

  StreamingResult Out;
  std::vector<SynthesizedKernel> AllKernels = Eng.takeKernels();
  Out.Stats = Eng.stats();
  if (Opts.RefillFailures) {
    // Excision: survivors keep their accept-order positions relative
    // to each other; failures move to Excised with their classified
    // cause. Accepted == survivors + excised, exactly once.
    for (size_t I = 0; I < AllKernels.size(); ++I) {
      if (Slots[I].ok()) {
        Out.Kernels.push_back(std::move(AllKernels[I]));
        Out.Measurements.push_back(std::move(Slots[I]));
      } else {
        ExcisedKernel E;
        E.AcceptIndex = I;
        E.Source = std::move(AllKernels[I].Source);
        E.Key = Stream.keyed() ? Stream.Keys[I] : 0;
        E.Kind = Slots[I].trap();
        E.Error = Slots[I].errorMessage();
        E.FromLedger =
            Stream.keyed() ? static_cast<bool>(Stream.FromLedger[I]) : false;
        Out.Excised.push_back(std::move(E));
      }
    }
  } else {
    Out.Kernels = std::move(AllKernels);
    Out.Measurements = Stream.takeMeasurements();
  }
  Stream.report(Out);
  Out.TotalWallMs = msBetween(Start, End);
  return Out;
}

StreamingResult core::measureKernels(SynthesisResult Kernels,
                                     const runtime::Platform &P,
                                     const StreamingOptions &Opts) {
  Clock::time_point Start = Clock::now();
  MeasureStream Stream(P, Opts);
  Stream.round([&](const AcceptSink &Sink) {
    for (size_t I = 0; I < Kernels.Kernels.size(); ++I)
      Sink(I, Kernels.Kernels[I]);
  });

  StreamingResult Out;
  Out.Kernels = std::move(Kernels.Kernels);
  Out.Stats = Kernels.Stats; // Replayed archive stats: byte-parity with cold.
  Out.Measurements = Stream.takeMeasurements();
  Stream.report(Out);
  Out.TotalWallMs = msBetween(Start, Clock::now());
  return Out;
}

namespace {

/// Deserializes a persisted kernel-set artifact (stats + verified
/// kernels). nullopt on any corruption — callers re-synthesize and
/// overwrite. Shared by synthesizeOrLoad and the streaming warm start.
std::optional<SynthesisResult> loadSynthesisArtifact(const std::string &Path) {
  auto Opened = store::ArchiveReader::open(Path,
                                           store::ArchiveKind::Synthesis);
  if (!Opened.ok())
    return std::nullopt;
  store::ArchiveReader R = Opened.take();
  SynthesisResult Out;
  Out.Stats.Attempts = R.readU64();
  Out.Stats.IncompleteSamples = R.readU64();
  Out.Stats.RejectedByFilter = R.readU64();
  Out.Stats.Duplicates = R.readU64();
  Out.Stats.Accepted = R.readU64();
  uint64_t KernelCount = R.readU64();
  for (uint64_t I = 0; I < KernelCount && R.ok(); ++I) {
    SynthesizedKernel K;
    K.Source = R.readString();
    K.Kernel = store::deserializeCompiledKernel(R);
    // The checksum authenticates bytes, not semantics: reject any
    // archive whose bytecode would not pass the compiler's own
    // invariants before it can reach the interpreter.
    if (R.ok() && !vm::verifyKernel(K.Kernel).empty())
      R.fail("stored kernel fails bytecode verification: " +
             vm::verifyKernel(K.Kernel));
    Out.Kernels.push_back(std::move(K));
  }
  if (!R.finish().ok())
    return std::nullopt; // Corrupt: re-synthesize and overwrite.
  return Out;
}

/// Persists a kernel-set artifact. Best-effort: a failed write just
/// stays cold.
void saveSynthesisArtifact(const std::string &Path,
                           const SynthesisResult &Out) {
  store::ArchiveWriter W(store::ArchiveKind::Synthesis);
  W.writeU64(Out.Stats.Attempts);
  W.writeU64(Out.Stats.IncompleteSamples);
  W.writeU64(Out.Stats.RejectedByFilter);
  W.writeU64(Out.Stats.Duplicates);
  W.writeU64(Out.Stats.Accepted);
  W.writeU64(Out.Kernels.size());
  for (const SynthesizedKernel &K : Out.Kernels) {
    W.writeString(K.Source);
    store::serializeCompiledKernel(W, K.Kernel);
  }
  (void)W.saveTo(Path);
}

} // namespace

std::optional<uint64_t>
ClgenPipeline::synthesisKeyDigest(const SynthesisOptions &Opts) const {
  // Key: model identity + every option that can change the output.
  // Workers and WaveSize are deliberately absent — the synthesis engine
  // guarantees bit-identical kernels for any value of either.
  store::ArchiveWriter Key(store::ArchiveKind::Synthesis);
  if (ArtifactFingerprint != 0) {
    Key.writeU8('F');
    Key.writeU64(ArtifactFingerprint);
  } else if (Model->backendName() == std::string_view("ngram")) {
    Key.writeU8('M');
    static_cast<const model::NGramModel &>(*Model).serialize(Key);
  } else if (Model->backendName() == std::string_view("lstm")) {
    Key.writeU8('M');
    static_cast<const model::LstmModel &>(*Model).serialize(Key);
  } else {
    return std::nullopt; // Unserializable model: nothing to key on.
  }
  Key.writeU64(Opts.TargetKernels);
  Key.writeU64(Opts.MaxAttempts);
  Key.writeBool(Opts.Spec.has_value());
  if (Opts.Spec) {
    Key.writeU64(Opts.Spec->ArgTypes.size());
    for (const std::string &T : Opts.Spec->ArgTypes)
      Key.writeString(T);
  }
  Key.writeU64(Opts.Sampling.MaxLength);
  Key.writeF64(Opts.Sampling.Temperature);
  Key.writeU64(Opts.Seed);
  return Key.payloadDigest();
}

SynthesisResult
ClgenPipeline::synthesizeOrLoad(const std::string &CacheDir,
                                const SynthesisOptions &Opts,
                                bool *Loaded) {
  if (Loaded)
    *Loaded = false;

  std::optional<uint64_t> KeyDigest = synthesisKeyDigest(Opts);
  if (!KeyDigest)
    return synthesize(Opts); // Unserializable model: nothing to key on.

  std::error_code Ec;
  std::filesystem::create_directories(CacheDir, Ec);
  std::string Path =
      CacheDir + "/synthesis-" + store::hexDigest(*KeyDigest) + ".clgs";

  // Lock-free fast path: warm stores never touch a lock file.
  if (auto Hit = loadSynthesisArtifact(Path)) {
    if (Loaded)
      *Loaded = true;
    return *Hit;
  }

  // Cold miss: serialize concurrent cold runs of this configuration so
  // the sampling work happens once. tryAcquire first — uncontended
  // misses skip the poll loop; actual racers wait, then every holder
  // re-probes (double-checked locking) before working. A lock failure
  // or timeout degrades to duplicated work, never an error: every
  // writer publishes via atomic rename.
  store::ScopedLock Lock = store::ScopedLock::acquireForMiss(
      store::lockFilePath(CacheDir, "synthesis", *KeyDigest));
  if (Lock.held()) {
    // Re-probe under the lock even when it was uncontended (a racer
    // may have published and released since the fast-path probe);
    // holders publish before releasing, so this makes exactly-once
    // strict rather than probabilistic.
    if (auto Hit = loadSynthesisArtifact(Path)) {
      if (Loaded)
        *Loaded = true;
      return *Hit;
    }
  }

  SynthesisResult Out = synthesize(Opts);
  saveSynthesisArtifact(Path, Out);
  return Out;
}

StreamingResult ClgenPipeline::synthesizeAndMeasureOrLoad(
    const std::string &CacheDir, const runtime::Platform &P,
    const StreamingOptions &Opts, StreamingWarmInfo *Info) {
  StreamingWarmInfo Local;
  StreamingWarmInfo &I = Info ? *Info : Local;
  I = StreamingWarmInfo();

  // Refill couples the delivered kernel set to measurement outcomes, so
  // it is not a pure function of the synthesis options the key digests:
  // refill requests always sample and never load or persist.
  if (Opts.RefillFailures)
    return synthesizeAndMeasure(P, Opts);

  std::optional<uint64_t> KeyDigest = synthesisKeyDigest(Opts.Synthesis);
  if (!KeyDigest)
    return synthesizeAndMeasure(P, Opts);
  I.KeyDigest = *KeyDigest;

  std::error_code Ec;
  std::filesystem::create_directories(CacheDir, Ec);
  I.ArtifactPath =
      CacheDir + "/synthesis-" + store::hexDigest(*KeyDigest) + ".clgs";

  // Lock-free fast path, then the same double-checked "synthesis" lock
  // as synthesizeOrLoad — one advisory key covers both entry points, so
  // a streaming request and a plain synthesizeOrLoad of the same
  // configuration cold-sample exactly once between them.
  auto MeasureWarm = [&](SynthesisResult Loaded) {
    I.Warm = true;
    I.LoadedKernels = Loaded.Kernels.size();
    CLGS_COUNT("clgen.stream.warm_starts");
    return measureKernels(std::move(Loaded), P, Opts);
  };
  if (auto Hit = loadSynthesisArtifact(I.ArtifactPath))
    return MeasureWarm(std::move(*Hit));

  store::ScopedLock Lock = store::ScopedLock::acquireForMiss(
      store::lockFilePath(CacheDir, "synthesis", *KeyDigest));
  if (Lock.held()) {
    if (auto Hit = loadSynthesisArtifact(I.ArtifactPath))
      return MeasureWarm(std::move(*Hit));
  }

  StreamingResult Out = synthesizeAndMeasure(P, Opts);
  SynthesisResult Artifact;
  Artifact.Stats = Out.Stats;
  Artifact.Kernels = Out.Kernels;
  saveSynthesisArtifact(I.ArtifactPath, Artifact);
  I.Persisted = true;
  return Out;
}

uint64_t
ClgenPipeline::fingerprint(const std::vector<corpus::ContentFile> &Files,
                           const PipelineOptions &Opts) {
  // Canonical byte recipe over everything training is a pure function
  // of. Any field added to the options structs must be appended here,
  // or stale artifacts would be served for the new configuration.
  // Scheduling knobs (CorpusOptions::Workers/ShardSize, and the whole
  // of PipelineOptions::Train) are excluded: sharded ingest and the
  // data-parallel training engine are bit-identical across them by
  // contract. LstmOptions::BatchLanes is NOT a scheduling knob — it
  // changes the training trajectory — so it is fingerprinted.
  store::ArchiveWriter W(store::ArchiveKind::Model);
  W.writeU64(Files.size());
  for (const corpus::ContentFile &F : Files) {
    W.writeString(F.Path);
    W.writeString(F.Text);
  }
  W.writeBool(Opts.Corpus.Filter.UseShim);
  W.writeU64(Opts.Corpus.Filter.MinInstructions);
  switch (Opts.Backend) {
  case ModelBackend::NGram:
    W.writeString("ngram");
    W.writeI32(Opts.NGram.Order);
    W.writeF64(Opts.NGram.BackoffAlpha);
    W.writeF64(Opts.NGram.UnigramSmoothing);
    break;
  case ModelBackend::Lstm:
    W.writeString("lstm");
    W.writeI32(Opts.Lstm.Layers);
    W.writeI32(Opts.Lstm.HiddenSize);
    W.writeI32(Opts.Lstm.Epochs);
    W.writeI32(Opts.Lstm.SequenceLength);
    W.writeF32(Opts.Lstm.LearningRate);
    W.writeF32(Opts.Lstm.LearningRateDecay);
    W.writeI32(Opts.Lstm.DecayEveryEpochs);
    W.writeF32(Opts.Lstm.GradClip);
    W.writeU64(Opts.Lstm.Seed);
    W.writeI32(Opts.Lstm.BatchLanes);
    break;
  }
  return W.payloadDigest();
}

Result<ClgenPipeline>
ClgenPipeline::trainOrLoad(const std::string &CacheDir,
                           const std::vector<corpus::ContentFile> &Files,
                           const PipelineOptions &Opts,
                           TrainOrLoadInfo *Info) {
  std::error_code Ec;
  std::filesystem::create_directories(CacheDir, Ec);
  if (Ec || !std::filesystem::is_directory(CacheDir, Ec))
    return Result<ClgenPipeline>::error(
        "cannot create artifact cache directory: " + CacheDir);

  TrainOrLoadInfo Local;
  TrainOrLoadInfo &I = Info ? *Info : Local;
  I = TrainOrLoadInfo();
  I.Fingerprint = fingerprint(Files, Opts);
  std::string Hex = store::hexDigest(I.Fingerprint);
  I.ModelPath = CacheDir + "/model-" + Hex + ".clgs";
  I.CorpusPath = CacheDir + "/corpus-" + Hex + ".clgs";

  // A fingerprint hit requires both artifacts to load cleanly; a
  // corrupt or missing file just falls back to retraining (which then
  // overwrites it atomically). This probe is the LOCK-FREE fast path:
  // warm starts never touch a lock file.
  auto TryLoad = [&]() -> std::optional<ClgenPipeline> {
    auto StoredModel = store::loadModel(I.ModelPath);
    auto StoredCorpus = store::loadCorpus(I.CorpusPath);
    if (!StoredModel.ok() || !StoredCorpus.ok())
      return std::nullopt;
    ClgenPipeline P;
    P.TrainingCorpus = StoredCorpus.take();
    P.Model = StoredModel.take();
    P.ArtifactFingerprint = I.Fingerprint;
    I.LoadedModel = I.LoadedCorpus = true;
    return P;
  };
  if (auto Hit = TryLoad())
    return std::move(*Hit);

  // Cold miss: stampede control. Concurrent cold runs of one
  // fingerprint serialize on an advisory lock so training happens
  // once — the losers wake up, re-probe (double-checked locking) and
  // load the winner's artifacts. Uncontended misses take tryAcquire
  // and proceed without waiting; a timed-out or failed lock degrades
  // to duplicated training (publication stays atomic either way).
  store::ScopedLock Lock = store::ScopedLock::acquireForMiss(
      store::lockFilePath(CacheDir, "train", I.Fingerprint));
  if (Lock.held()) {
    // Re-probe under the lock even when it was uncontended: a racer
    // may have trained, published and released between our fast-path
    // probe and this acquisition. Holders publish before releasing,
    // so a hit here is complete — this second probe is what makes
    // "K concurrent cold runs train exactly once" strict.
    if (auto Hit = TryLoad())
      return std::move(*Hit);
  }

  ClgenPipeline P = train(Files, Opts);
  P.ArtifactFingerprint = I.Fingerprint;
  Status SaveModel = store::saveModel(I.ModelPath, *P.Model);
  Status SaveCorpus = store::saveCorpus(I.CorpusPath, P.TrainingCorpus);
  if (!SaveModel.ok())
    return Result<ClgenPipeline>::error("cannot persist trained model: " +
                                        SaveModel.errorMessage());
  if (!SaveCorpus.ok())
    return Result<ClgenPipeline>::error("cannot persist corpus snapshot: " +
                                        SaveCorpus.errorMessage());
  return P;
}
