//===- tests/clgen/ClgenTest.cpp - sampler / synthesizer / pipeline -----------===//

#include "clgen/Pipeline.h"

#include "clgen/Sampler.h"
#include "clgen/Synthesizer.h"
#include "githubsim/GithubSim.h"
#include "support/Metrics.h"

#include <gtest/gtest.h>

using namespace clgen;
using namespace clgen::core;

namespace {

/// A tiny deterministic language model for sampler unit tests: emits a
/// fixed string then end-of-text.
class ScriptedModel : public model::LanguageModel {
public:
  explicit ScriptedModel(std::string Script) : Script(std::move(Script)) {
    Vocab = model::Vocabulary::fromText(this->Script +
                                        "_abcdefghijklmnopqrstuvwxyz"
                                        "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                                        "0123456789*(){}[];=+-<. \n");
  }
  const model::Vocabulary &vocabulary() const override { return Vocab; }
  void reset() override { Cursor = 0; }
  void observe(int) override {}
  std::vector<double> nextDistribution() override {
    std::vector<double> Dist(Vocab.size(), 0.0);
    if (Cursor < Script.size())
      Dist[Vocab.idOf(Script[Cursor++])] = 1.0;
    else
      Dist[model::Vocabulary::EndOfText] = 1.0;
    return Dist;
  }

private:
  model::Vocabulary Vocab;
  std::string Script;
  size_t Cursor = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// ArgSpec / seeds
//===----------------------------------------------------------------------===//

TEST(ArgSpecTest, Figure6SeedText) {
  EXPECT_EQ(ArgSpec::figure6().seedText(),
            "__kernel void A(__global float* a, __global float* b, "
            "__global float* c, const int d) {");
}

TEST(ArgSpecTest, CustomSpec) {
  ArgSpec Spec;
  Spec.ArgTypes = {"__global int*", "float"};
  EXPECT_EQ(Spec.seedText(),
            "__kernel void A(__global int* a, float b) {");
}

//===----------------------------------------------------------------------===//
// Sampler (Algorithm 1)
//===----------------------------------------------------------------------===//

TEST(SamplerTest, StopsWhenBlockDepthReachesZero) {
  // Script closes the seed's '{' after one statement; anything after the
  // closing brace must not be consumed.
  ScriptedModel M(" a[0] = 1.0f; } trailing garbage");
  Rng R(1);
  SampleOptions Opts;
  auto S = sampleKernel(M, "__kernel void A(__global float* a) {", Opts, R);
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->back(), '}');
  EXPECT_EQ(S->find("garbage"), std::string::npos);
}

TEST(SamplerTest, TracksNestedBlocks) {
  ScriptedModel M(" if (1) { a[0] = 1.0f; } a[1] = 2.0f; } extra");
  Rng R(1);
  auto S = sampleKernel(M, "__kernel void A(__global float* a) {",
                        SampleOptions(), R);
  ASSERT_TRUE(S.has_value());
  // Both the inner and outer '}' are present; sampling stopped at outer.
  EXPECT_NE(S->find("if (1) {"), std::string::npos);
  EXPECT_EQ(S->find("extra"), std::string::npos);
}

TEST(SamplerTest, LengthCapReturnsNullopt) {
  ScriptedModel M(std::string(5000, 'x')); // Never closes the block.
  Rng R(1);
  SampleOptions Opts;
  Opts.MaxLength = 128;
  EXPECT_FALSE(
      sampleKernel(M, "__kernel void A() {", Opts, R).has_value());
}

TEST(SamplerTest, PrematureEndOfTextReturnsNullopt) {
  ScriptedModel M(" a[0] = 1.0f; "); // EOT before '}'.
  Rng R(1);
  EXPECT_FALSE(sampleKernel(M, "__kernel void A(__global float* a) {",
                            SampleOptions(), R)
                   .has_value());
}

TEST(SamplerTest, StrayCloseBraceBeforeOpenIsRejected) {
  // Free-mode seed has depth 0; a '}' before any '{' must reject the
  // sample instead of driving the depth negative and letting a later
  // {...} pair pose as the function body.
  ScriptedModel M("int x); } garbage { a[0] = 1; }");
  Rng R(1);
  auto S = sampleKernel(M, "__kernel void A(", SampleOptions(), R);
  EXPECT_FALSE(S.has_value());
}

TEST(SamplerTest, MalformedSeedIsRejected) {
  ScriptedModel M(" a[0] = 1.0f; }");
  Rng R(1);
  EXPECT_FALSE(sampleKernel(M, "} broken seed {", SampleOptions(), R)
                   .has_value());
}

//===----------------------------------------------------------------------===//
// drawToken edge cases
//===----------------------------------------------------------------------===//

TEST(DrawTokenTest, EmptyDistributionYieldsEndOfText) {
  Rng R(1);
  std::vector<double> Empty;
  EXPECT_EQ(model::drawToken(Empty, 0.85, R), model::Vocabulary::EndOfText);
}

TEST(DrawTokenTest, AllZeroDistributionYieldsEndOfText) {
  Rng R(1);
  std::vector<double> Zeros(16, 0.0);
  EXPECT_EQ(model::drawToken(Zeros, 0.85, R), model::Vocabulary::EndOfText);
}

TEST(DrawTokenTest, ZeroProbabilityTokensAreNeverDrawn) {
  Rng R(9);
  std::vector<double> Dist = {0.0, 0.5, 0.0, 0.5, 0.0};
  for (int I = 0; I < 500; ++I) {
    int T = model::drawToken(Dist, 0.7, R);
    EXPECT_TRUE(T == 1 || T == 3) << "drew zero-probability token " << T;
  }
}

TEST(DrawTokenTest, TemperatureSharpensDistribution) {
  Rng R(5);
  std::vector<double> Dist = {0.25, 0.75};
  int HotMajority = 0, ColdMajority = 0;
  const int N = 4000;
  for (int I = 0; I < N; ++I) {
    HotMajority += model::drawToken(Dist, 1.0, R) == 1;
    ColdMajority += model::drawToken(Dist, 0.25, R) == 1;
  }
  // At T=1 the majority token wins ~75%; at T=0.25 the p-ratio is cubed
  // to 81:1 so it should win nearly always.
  EXPECT_NEAR(HotMajority / static_cast<double>(N), 0.75, 0.05);
  EXPECT_GT(ColdMajority / static_cast<double>(N), 0.95);
}

TEST(DrawTokenTest, DeterministicForEqualRngState) {
  std::vector<double> Dist = {0.1, 0.2, 0.3, 0.4};
  Rng A(77), B(77);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(model::drawToken(Dist, 0.6, A), model::drawToken(Dist, 0.6, B));
}

//===----------------------------------------------------------------------===//
// Synthesizer + pipeline (integration)
//===----------------------------------------------------------------------===//

namespace {

ClgenPipeline &sharedPipeline() {
  static ClgenPipeline P = [] {
    githubsim::GithubSimOptions GOpts;
    GOpts.FileCount = 400;
    PipelineOptions POpts;
    POpts.NGram.Order = 14;
    return ClgenPipeline::train(githubsim::mineGithub(GOpts), POpts);
  }();
  return P;
}

} // namespace

TEST(SynthesizerTest, ProducesCompilableUniqueKernels) {
  SynthesisOptions Opts;
  Opts.TargetKernels = 10;
  Opts.MaxAttempts = 4000;
  Opts.Sampling.Temperature = 0.5;
  auto R = sharedPipeline().synthesize(Opts);
  EXPECT_GT(R.Kernels.size(), 0u);
  std::set<std::string> Unique;
  for (const auto &SK : R.Kernels) {
    EXPECT_GE(SK.Kernel.staticInstructionCount(), 3u);
    EXPECT_TRUE(Unique.insert(SK.Source).second) << "duplicate emitted";
    // Argument specification respected: Figure 6 signature.
    EXPECT_NE(SK.Source.find("__kernel void A(__global float* a, "
                             "__global float* b, __global float* c, "
                             "const int d)"),
              std::string::npos)
        << SK.Source;
  }
  // Bookkeeping adds up.
  EXPECT_EQ(R.Stats.Accepted + R.Stats.IncompleteSamples +
                R.Stats.RejectedByFilter + R.Stats.Duplicates,
            R.Stats.Attempts);
}

TEST(SynthesizerTest, FreeModeInventsSignatures) {
  SynthesisOptions Opts;
  Opts.TargetKernels = 5;
  Opts.MaxAttempts = 4000;
  Opts.Spec = std::nullopt;
  Opts.Sampling.Temperature = 0.5;
  auto R = sharedPipeline().synthesize(Opts);
  EXPECT_GT(R.Kernels.size(), 0u);
  for (const auto &SK : R.Kernels)
    EXPECT_NE(SK.Source.find("__kernel void A("), std::string::npos);
}

TEST(SynthesizerTest, DeterministicForSeed) {
  SynthesisOptions Opts;
  Opts.TargetKernels = 3;
  Opts.MaxAttempts = 2000;
  Opts.Seed = 99;
  auto A = sharedPipeline().synthesize(Opts);
  auto B = sharedPipeline().synthesize(Opts);
  ASSERT_EQ(A.Kernels.size(), B.Kernels.size());
  for (size_t I = 0; I < A.Kernels.size(); ++I)
    EXPECT_EQ(A.Kernels[I].Source, B.Kernels[I].Source);
}

TEST(SynthesizerTest, BitIdenticalAcrossWorkerCounts) {
  // The parallel engine's core contract: for a fixed seed the output
  // stream (sources, order, and stats) does not depend on how many
  // workers sampled it.
  SynthesisOptions Opts;
  Opts.TargetKernels = 6;
  Opts.MaxAttempts = 3000;
  Opts.Sampling.Temperature = 0.5;
  Opts.Seed = 0xD17E;

  Opts.Workers = 1;
  auto Serial = sharedPipeline().synthesize(Opts);
  ASSERT_GT(Serial.Kernels.size(), 0u);

  for (unsigned Workers : {2u, 8u}) {
    Opts.Workers = Workers;
    auto Parallel = sharedPipeline().synthesize(Opts);
    ASSERT_EQ(Parallel.Kernels.size(), Serial.Kernels.size())
        << "workers=" << Workers;
    for (size_t I = 0; I < Serial.Kernels.size(); ++I)
      EXPECT_EQ(Parallel.Kernels[I].Source, Serial.Kernels[I].Source)
          << "workers=" << Workers << " kernel " << I;
    EXPECT_EQ(Parallel.Stats.Attempts, Serial.Stats.Attempts);
    EXPECT_EQ(Parallel.Stats.Accepted, Serial.Stats.Accepted);
    EXPECT_EQ(Parallel.Stats.IncompleteSamples,
              Serial.Stats.IncompleteSamples);
    EXPECT_EQ(Parallel.Stats.RejectedByFilter,
              Serial.Stats.RejectedByFilter);
    EXPECT_EQ(Parallel.Stats.Duplicates, Serial.Stats.Duplicates);
  }
}

TEST(SynthesizerTest, RejectionsAreCountedByReasonInAcceptOrder) {
  // Counted in the accept stage, so speculative wave surplus never
  // reaches the counters: per-reason counts match across worker counts
  // and sum to the stats' rejection total.
  const char *const Names[] = {
      "clgen.synthesis.rejected.preprocessor",
      "clgen.synthesis.rejected.syntax",
      "clgen.synthesis.rejected.semantic",
      "clgen.synthesis.rejected.lowering",
      "clgen.synthesis.rejected.no_kernel",
      "clgen.synthesis.rejected.too_few_instructions"};
  SynthesisOptions Opts;
  Opts.TargetKernels = 6;
  Opts.MaxAttempts = 3000;
  Opts.Sampling.Temperature = 0.5;
  Opts.Seed = 0xD17E;
  Opts.WaveSize = 64;
  std::vector<uint64_t> ByWorkers[2];
  for (size_t Run = 0; Run < 2; ++Run) {
    Opts.Workers = Run == 0 ? 1 : 3;
    support::MetricsRegistry::reset();
    SynthesisResult R = sharedPipeline().synthesize(Opts);
    ASSERT_GT(R.Stats.RejectedByFilter, 0u);
    uint64_t Sum = 0;
    for (const char *Name : Names) {
      const support::Counter *C = support::MetricsRegistry::findCounter(Name);
      ByWorkers[Run].push_back(C ? C->value() : 0);
      Sum += ByWorkers[Run].back();
    }
    if (support::telemetryCompiledIn()) {
      EXPECT_EQ(Sum, R.Stats.RejectedByFilter) << "workers " << Opts.Workers;
    }
  }
  EXPECT_EQ(ByWorkers[0], ByWorkers[1]);
}

TEST(SynthesizerTest, ZeroTargetSynthesizesNothing) {
  SynthesisOptions Opts;
  Opts.TargetKernels = 0;
  Opts.MaxAttempts = 100;
  for (unsigned Workers : {1u, 4u}) {
    Opts.Workers = Workers;
    auto R = sharedPipeline().synthesize(Opts);
    EXPECT_EQ(R.Kernels.size(), 0u) << "workers=" << Workers;
    EXPECT_EQ(R.Stats.Attempts, 0u) << "workers=" << Workers;
  }
}

TEST(SynthesizerTest, WaveSizeDoesNotChangeOutput) {
  SynthesisOptions Opts;
  Opts.TargetKernels = 4;
  Opts.MaxAttempts = 2000;
  Opts.Sampling.Temperature = 0.5;
  Opts.Seed = 0xBEEF;
  Opts.Workers = 2;
  Opts.WaveSize = 4;
  auto Small = sharedPipeline().synthesize(Opts);
  Opts.WaveSize = 64;
  auto Large = sharedPipeline().synthesize(Opts);
  ASSERT_EQ(Small.Kernels.size(), Large.Kernels.size());
  for (size_t I = 0; I < Small.Kernels.size(); ++I)
    EXPECT_EQ(Small.Kernels[I].Source, Large.Kernels[I].Source);
  EXPECT_EQ(Small.Stats.Attempts, Large.Stats.Attempts);
}

TEST(PipelineTest, TrainsOnCorpusAndReportsStats) {
  const auto &Corpus = sharedPipeline().corpus();
  EXPECT_GT(Corpus.Entries.size(), 20u);
  EXPECT_GT(Corpus.Stats.KernelCount, Corpus.Entries.size() / 2);
  EXPECT_NEAR(Corpus.Stats.discardRate(), 0.32, 0.08);
}

TEST(PipelineTest, LstmBackendEndToEnd) {
  // Laptop-scale LSTM through the same pipeline interface. Tiny corpus
  // and model: the goal is end-to-end wiring, not sample quality.
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = 30;
  PipelineOptions POpts;
  POpts.Backend = ModelBackend::Lstm;
  POpts.Lstm.Layers = 1;
  POpts.Lstm.HiddenSize = 24;
  POpts.Lstm.Epochs = 1;
  auto P = ClgenPipeline::train(githubsim::mineGithub(GOpts), POpts);
  SynthesisOptions SOpts;
  SOpts.TargetKernels = 1;
  SOpts.MaxAttempts = 40; // A barely-trained LSTM rarely compiles.
  auto R = P.synthesize(SOpts);
  EXPECT_EQ(R.Stats.Attempts,
            R.Stats.Accepted + R.Stats.IncompleteSamples +
                R.Stats.RejectedByFilter + R.Stats.Duplicates);
}
