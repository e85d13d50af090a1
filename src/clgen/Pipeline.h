//===- clgen/Pipeline.h - End-to-end CLgen pipeline --------------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The end-to-end CLgen pipeline of Figure 4: content files -> rejection
/// filter -> code rewriter -> language corpus -> language model ->
/// synthesizer -> synthesized benchmarks. This is the public facade most
/// examples and experiments use.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_CLGEN_PIPELINE_H
#define CLGEN_CLGEN_PIPELINE_H

#include "clgen/Synthesizer.h"
#include "corpus/Corpus.h"
#include "model/LstmModel.h"
#include "model/NGramModel.h"
#include "runtime/HostDriver.h"
#include "support/Result.h"

#include <memory>
#include <optional>
#include <string>

namespace clgen {
namespace store {
class FailureLedger;
} // namespace store
namespace core {

enum class ModelBackend {
  /// Interpolated character n-gram: trains in seconds; used by the
  /// large-scale experiments (see DESIGN.md substitution notes).
  NGram,
  /// The paper's LSTM architecture, at laptop-scale defaults.
  Lstm,
};

struct PipelineOptions {
  corpus::CorpusOptions Corpus;
  ModelBackend Backend = ModelBackend::NGram;
  model::NGramOptions NGram;
  model::LstmOptions Lstm;
  /// Scheduling knobs for model training (LSTM backend: the data-parallel
  /// gradient engine's worker count). Excluded from fingerprint() — like
  /// CorpusOptions::Workers, nothing here can change the trained
  /// artifact; weights are bit-identical for any worker count.
  model::TrainOptions Train;
};

/// What trainOrLoad did and where its artifacts live.
struct TrainOrLoadInfo {
  /// True when the model / corpus came from the artifact store instead
  /// of being rebuilt.
  bool LoadedModel = false;
  bool LoadedCorpus = false;
  /// Content fingerprint of (files, corpus options, backend, model
  /// options) — the cache address of this training configuration.
  uint64_t Fingerprint = 0;
  std::string ModelPath;
  std::string CorpusPath;
};

/// Configuration of the streaming synthesis→measurement pipeline.
struct StreamingOptions {
  SynthesisOptions Synthesis;
  runtime::DriverOptions Driver;
  /// Measurement consumer threads pulling from the channel (1 = one
  /// consumer, 0 = hardware concurrency). Purely a scheduling knob:
  /// results are bit-identical for every value.
  unsigned MeasureWorkers = 1;
  /// Bounded capacity of the kernel channel (0 = auto: twice the
  /// measurement workers, at least 8). Bounds how far synthesis can run
  /// ahead of measurement.
  size_t QueueCapacity = 0;
  /// Optional result cache, probed AT ENQUEUE TIME by the producer:
  /// hits are resolved in place and never occupy a measurement slot;
  /// misses are measured by the consumers and written back.
  store::ResultCache *Cache = nullptr;
  /// Optional persistent failure ledger (store/FailureLedger.h), probed
  /// at enqueue time after a cache miss: a known-bad kernel resolves as
  /// a negative hit (its recorded diagnostic replayed byte-identically)
  /// without occupying a measurement slot, and fresh deterministic
  /// failures are recorded after each measurement round. Counted in
  /// CacheStats.LedgerHits / LedgerRecords.
  store::FailureLedger *Ledger = nullptr;
  /// Excise kernels whose measurement failed and refill the batch: the
  /// synthesis engine resumes its (deterministic) sampling cursor to
  /// draw replacements until TargetKernels measurements SUCCEED or the
  /// attempt budget runs dry. Excised kernels are reported in
  /// StreamingResult::Excised; surviving (kernel, measurement) pairs
  /// are byte-identical to what a fault-free run produces for the same
  /// accept indices. Off by default: the classic contract delivers
  /// TargetKernels accepted kernels, failures included in-place.
  bool RefillFailures = false;
};

/// One kernel dropped by the refill pass (StreamingOptions::
/// RefillFailures), with everything needed to audit the excision.
struct ExcisedKernel {
  /// The kernel's accept index in the synthesis stream (its measurement
  /// seed derivation), disjoint from surviving kernels' indices.
  size_t AcceptIndex = 0;
  /// Normalised source of the excised kernel.
  std::string Source;
  /// Measurement/ledger key (0 when neither cache nor ledger was
  /// configured).
  uint64_t Key = 0;
  /// Classified cause and the full diagnostic.
  TrapKind Kind = TrapKind::Unknown;
  std::string Error;
  /// True when the failure was served from the ledger (the kernel was
  /// never measured this run).
  bool FromLedger = false;
};

/// Everything the streaming pipeline produced. Measurements are
/// index-aligned with Kernels (accept order), exactly as if the phased
/// path had run synthesizeKernels and then runBenchmarkBatch.
struct StreamingResult {
  std::vector<SynthesizedKernel> Kernels;
  std::vector<Result<runtime::Measurement>> Measurements;
  SynthesisStats Stats;
  runtime::BatchCacheStats CacheStats;
  /// Kernels dropped by the refill pass (empty unless RefillFailures).
  /// Exactly-once accounting: Stats.Accepted == Kernels.size() +
  /// Excised.size() — every accepted kernel either survives with a
  /// measurement or appears here with its classified failure.
  std::vector<ExcisedKernel> Excised;
  /// Overlap diagnostics: wall time of the synthesis producer (which
  /// includes any time it spent blocked on the full channel), and the
  /// drain tail — how long measurement kept running after the last
  /// kernel was accepted. A small tail means measurement genuinely
  /// overlapped synthesis instead of queueing behind it.
  double SynthesisWallMs = 0.0;
  double DrainWallMs = 0.0;
  double TotalWallMs = 0.0;
};

/// What synthesizeAndMeasureOrLoad did: whether the kernel set came
/// from the store (the sampling-free warm path) and where it lives.
struct StreamingWarmInfo {
  /// True when the kernel set was loaded from the persisted synthesis
  /// artifact instead of sampled: the channel producer was an archive
  /// reader and the request performed ZERO sampling (no synthesis
  /// engine was even constructed — clgen.synthesis.* counters do not
  /// move).
  bool Warm = false;
  /// True when this (cold) run persisted the kernel-set artifact for
  /// the next caller.
  bool Persisted = false;
  /// Kernels deserialized on the warm path (0 when cold).
  size_t LoadedKernels = 0;
  /// The synthesis cache key digest (0 when the model is unserializable
  /// and no keying was possible).
  uint64_t KeyDigest = 0;
  /// Path of the kernel-set artifact (the same file synthesizeOrLoad
  /// reads and writes — the two entry points interoperate).
  std::string ArtifactPath;
};

/// The streaming entry point: runs synthesis and driver-side measurement
/// as a bounded producer/consumer pipeline instead of two phase-barried
/// batches. Accepted kernels flow through a support::Channel from the
/// (accept-order) synthesis stage straight into measurement workers.
///
/// Determinism contract: results are keyed by accept index — kernel i
/// is measured under runtime::batchDriverOptions(Driver, Rng(Driver.
/// Seed), i), the same derivation as runBenchmarkBatch — and the result
/// vector is index-ordered on return, so the output is bit-identical to
/// the phased path (synthesizeKernels + runBenchmarkBatch) for any
/// MeasureWorkers, QueueCapacity, synthesis worker count or wave size,
/// with or without a (pre-warmed) cache.
StreamingResult synthesizeAndMeasure(model::LanguageModel &Model,
                                     const runtime::Platform &P,
                                     const StreamingOptions &Opts);

/// Measures a given kernel set on the same engine as
/// synthesizeAndMeasure, with a loop over \p Kernels as the producer in
/// place of the sampler. No synthesis engine is constructed, so the
/// call samples nothing. Kernel i is keyed and measured exactly as if
/// it had been accepted i-th: enqueue-time probes of Opts.Cache and
/// Opts.Ledger, misses measured by Opts.MeasureWorkers consumers and
/// written back, fresh deterministic failures recorded in the ledger.
/// So the measurements equal the uncached runtime::runBenchmarkBatch
/// over the same kernels, and CacheStats tallies what THIS call
/// measured (Misses) and served (Hits, LedgerHits). Stats is copied
/// from \p Kernels; Opts.Synthesis and Opts.RefillFailures are ignored
/// (failures stay in place). This is the warm path of
/// ClgenPipeline::synthesizeAndMeasureOrLoad.
StreamingResult measureKernels(SynthesisResult Kernels,
                               const runtime::Platform &P,
                               const StreamingOptions &Opts);

/// A trained CLgen instance: the corpus it learned from plus the model.
class ClgenPipeline {
public:
  /// Builds the corpus from \p Files and trains the model.
  static ClgenPipeline train(const std::vector<corpus::ContentFile> &Files,
                             const PipelineOptions &Opts = PipelineOptions());

  /// Warm-start variant: fingerprints the content files + options and,
  /// when \p CacheDir holds a model (and corpus snapshot) stored under
  /// that fingerprint, loads it instead of retraining — synthesis from
  /// a loaded model is bit-identical to synthesis from a fresh one.
  /// Misses (or corrupt artifacts, which are ignored and overwritten)
  /// train as usual and persist both artifacts atomically for the next
  /// run. Fails only when \p CacheDir cannot be created/written.
  ///
  /// Stampede control: the hit path is lock-free, but a cold miss
  /// takes an advisory per-fingerprint file lock (store/Lock.h) and
  /// re-probes under it, so K concurrent cold runs of one
  /// configuration — threads or processes — train exactly once and the
  /// losers warm-start off the winner's artifacts. Lock timeouts
  /// degrade to duplicated (byte-identical) training, never an error.
  static Result<ClgenPipeline>
  trainOrLoad(const std::string &CacheDir,
              const std::vector<corpus::ContentFile> &Files,
              const PipelineOptions &Opts = PipelineOptions(),
              TrainOrLoadInfo *Info = nullptr);

  /// The fingerprint trainOrLoad addresses its artifacts by (exposed
  /// for tests and cache-inspection tooling).
  static uint64_t
  fingerprint(const std::vector<corpus::ContentFile> &Files,
              const PipelineOptions &Opts);

  /// Synthesizes benchmarks with the trained model. Set
  /// SynthesisOptions::Workers to fan candidate sampling out across a
  /// thread pool; results are bit-identical for every worker count.
  SynthesisResult synthesize(const SynthesisOptions &Opts);

  /// Memoizing variant: the synthesized kernel set is itself a durable
  /// artifact ("living benchmark suite"), stored in \p CacheDir under a
  /// digest of (this pipeline's model, the output-relevant synthesis
  /// options). A hit deserializes the kernels instead of re-sampling —
  /// valid because synthesize() is a pure function of those inputs;
  /// Workers/WaveSize are excluded from the key, matching the engine's
  /// bit-identical-across-workers contract. For pipelines built by
  /// trainOrLoad the model is identified by the training fingerprint;
  /// otherwise the key digests the serialized model content itself.
  /// Corrupt or missing entries re-synthesize and overwrite; cache I/O
  /// failures degrade to plain synthesis (never an error). Like
  /// trainOrLoad, a cold miss serializes concurrent racers on an
  /// advisory per-key lock (hit path lock-free; sampling happens once,
  /// losers load the winner's kernel set — \p Loaded reports true for
  /// them).
  SynthesisResult synthesizeOrLoad(const std::string &CacheDir,
                                   const SynthesisOptions &Opts,
                                   bool *Loaded = nullptr);

  /// Streaming synthesis→measurement over this pipeline's model; see
  /// the free core::synthesizeAndMeasure for the full contract.
  StreamingResult synthesizeAndMeasure(const runtime::Platform &P,
                                       const StreamingOptions &Opts) {
    return core::synthesizeAndMeasure(*Model, P, Opts);
  }

  /// Warm-start streaming: the fix for the gap where streaming requests
  /// always re-sampled even when the persisted kernel-set artifact was
  /// warm. Probes \p CacheDir under the SAME key and artifact file as
  /// synthesizeOrLoad; on a hit the channel producer becomes an archive
  /// reader — the loaded kernels flow straight into the measurement
  /// workers (enqueue-time cache/ledger probes and the accept-index
  /// seed derivation unchanged) and the request performs zero sampling.
  /// A cold miss runs the full streaming pipeline and persists the
  /// kernel set for the next caller, serialized on the same advisory
  /// "synthesis" lock as synthesizeOrLoad (exactly-once cold sampling
  /// across threads, processes, and both entry points).
  ///
  /// Warm results are byte-identical to cold ones: kernels come from
  /// the artifact, measurements re-derive per-kernel seeds by accept
  /// index, and Stats replays the archived synthesis statistics. The
  /// work provenance (did THIS call sample?) is reported via \p Info,
  /// not the result.
  ///
  /// RefillFailures is incompatible with the kernel-set artifact (the
  /// delivered set then depends on measurement outcomes, not synthesis
  /// options alone), so refill requests always sample and never load or
  /// persist; unserializable models likewise fall back to plain
  /// streaming.
  StreamingResult
  synthesizeAndMeasureOrLoad(const std::string &CacheDir,
                             const runtime::Platform &P,
                             const StreamingOptions &Opts,
                             StreamingWarmInfo *Info = nullptr);

  const corpus::Corpus &corpus() const { return TrainingCorpus; }
  model::LanguageModel &languageModel() { return *Model; }

  /// Artifact-store fingerprint this pipeline was trained/loaded under
  /// (0 when built by plain train()).
  uint64_t artifactFingerprint() const { return ArtifactFingerprint; }

private:
  /// Digest of (model identity, output-relevant synthesis options) —
  /// the shared cache key of synthesizeOrLoad and
  /// synthesizeAndMeasureOrLoad. nullopt when the model cannot be
  /// serialized (nothing to key on).
  std::optional<uint64_t>
  synthesisKeyDigest(const SynthesisOptions &Opts) const;

  corpus::Corpus TrainingCorpus;
  std::unique_ptr<model::LanguageModel> Model;
  uint64_t ArtifactFingerprint = 0;
};

} // namespace core
} // namespace clgen

#endif // CLGEN_CLGEN_PIPELINE_H
