//===- perfbench/harness/Replay.h - Traced serial replays -------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced runs' serial replays. Each replays, one public call at a
/// time, work the timed path does through a single library entry point,
/// with a span around every call into a layer:
///
///  - setup: githubsim::mineGithub -> corpus::buildCorpus ->
///    NGramModel::train (what ClgenPipeline::train does);
///  - synthesis: per attempt i, core::sampleKernel on Rng(Seed).split(i)
///    -> corpus::filterContentFile (shim off) -> renameIdentifiers +
///    printProgram -> dedupe -> measurement under
///    runtime::batchDriverOptions of the accept index (what
///    core::synthesizeAndMeasure does, including excise-and-refill).
///
/// Measurement mirrors runtime::runBenchmark step by step (dynamic
/// check, payload, VM launch, perf model) so the checker and the VM get
/// spans of their own. The replays' outputs are compared with the real
/// path's, so a mirror that drifted from the library fails the run
/// instead of describing different work.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include "Harness.h"

#include "corpus/Corpus.h"
#include "model/NGramModel.h"

#include <memory>

namespace perfbench {

struct SetupReplay {
  std::vector<clgen::corpus::ContentFile> Files;
  std::unique_ptr<clgen::model::NGramModel> Model;
};

SetupReplay replaySetup(Tracer &T, size_t CorpusFiles, int NGramOrder);

/// Everything a synthesis replay produced and counted.
struct SynthesisReplay {
  /// Synthesis stats, survivors (every accepted kernel unless
  /// Opts.RefillFailures) and their measurements, as StreamingResult
  /// reports them.
  clgen::core::StreamingResult Result;
  /// Filter rejections by corpus::RejectionReason.
  size_t Rejections[7] = {0};
  /// Characters drawn from the model (one per next-token distribution).
  uint64_t SampledChars = 0;
  /// Failed measurements (excised ones included).
  size_t KernelFails = 0;
  /// Simulated instructions the VM executed (Instructions scaled by
  /// ItemsExecuted / ItemsTotal) over successful launches, and the host
  /// time of those launches.
  double ExecutedInstructions = 0.0;
  double OkLaunchMs = 0.0;
};

SynthesisReplay replaySynthesis(Tracer &T, clgen::model::LanguageModel &Model,
                                const clgen::runtime::Platform &P,
                                const clgen::core::StreamingOptions &Opts);

/// Per-call time of the spans named \p Name, scaled by \p Scale (1 for
/// ms, 1e3 for us): self time, or the whole span when \p Inclusive.
/// 0 when no such span ran.
double perCall(const std::map<std::string, Tracer::Totals> &Totals,
               const char *Name, double Scale, bool Inclusive = false);
size_t calls(const std::map<std::string, Tracer::Totals> &Totals,
             const char *Name);

/// Adds the per-layer rows every traced run reports: setup layers,
/// synthesis replay layers, the reference op's producer/drain split,
/// and other_ms — the part of the traced sections no layer span covers.
/// \p ReplayMs and \p TimedMs are the replayed operation's wall time
/// traced and untraced.
void addLayerMetrics(Report &R, const Tracer &T, const SynthesisReplay &S,
                     const clgen::core::StreamingResult &Reference,
                     double ReplayMs, double TimedMs);

/// Prints the layer self-time table and checks that the rows plus
/// other_ms add up to the traced sections' wall time.
void printLayerTable(const Tracer &T);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
