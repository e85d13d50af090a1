//===- perfbench/harness/References.cpp - Pinned output references --------===//
//
// Part of the CLgen reproduction. MIT license.
//
// Writes perfbench/references.txt: for each seed of the synthesis seed
// pool, the digest and synthesis statistics of one synth-stream batch
// and the digest of one serve-mix request. The benchmark checks every
// operation against these; they change only when the library's output
// for a seed changes.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "githubsim/GithubSim.h"

#include <cinttypes>
#include <cstdio>

using namespace clgen;

namespace perfbench {

int regenerateReferences(const RunConfig &Cfg, size_t PoolSize,
                         const std::string &Path) {
  githubsim::GithubSimOptions G;
  G.FileCount = SynthCorpusFiles;
  core::ClgenPipeline Pipeline =
      core::ClgenPipeline::train(githubsim::mineGithub(G),
                                 synthPipelineOptions());
  const runtime::Platform P = runtime::amdPlatform();
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    return 1;
  }
  std::fprintf(F,
               "# perfbench output references, one line per pool seed:\n"
               "# index seed batch_digest attempts incomplete rejected "
               "duplicates accepted serve_digest\n"
               "# Regenerate from the repository root with\n"
               "#   .bench_build/perfbench_harness --regenerate-references "
               "%zu\n",
               PoolSize);
  for (size_t K = 0; K < PoolSize; ++K) {
    uint64_t Seed = poolSeed(K);
    core::StreamingResult Batch =
        Pipeline.synthesizeAndMeasure(P, synthStreamingOptions(Seed, Cfg));
    core::StreamingResult Serve =
        Pipeline.synthesizeAndMeasure(P, serveStreamingOptions(Seed));
    const core::SynthesisStats &S = Batch.Stats;
    std::fprintf(F,
                 "%zu %" PRIu64 " %016" PRIx64 " %zu %zu %zu %zu %zu "
                 "%016" PRIx64 "\n",
                 K, Seed, digestStreaming(Batch), S.Attempts,
                 S.IncompleteSamples, S.RejectedByFilter, S.Duplicates,
                 S.Accepted, digestStreaming(Serve));
    if ((K + 1) % 16 == 0)
      std::fprintf(stderr, "perfbench: %zu / %zu references\n", K + 1,
                   PoolSize);
  }
  return std::fclose(F) == 0 ? 0 : 1;
}

} // namespace perfbench
