//===- tests/model/ModelTest.cpp - vocabulary / n-gram / LSTM tests -----------===//

#include "clgen/Sampler.h"
#include "corpus/Corpus.h"
#include "githubsim/GithubSim.h"
#include "model/LstmModel.h"
#include "model/NGramModel.h"
#include "model/Vocabulary.h"
#include "store/Archive.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <limits>

using namespace clgen;
using namespace clgen::model;

//===----------------------------------------------------------------------===//
// Vocabulary
//===----------------------------------------------------------------------===//

TEST(VocabularyTest, RoundTrip) {
  Vocabulary V = Vocabulary::fromText("abc{}");
  EXPECT_EQ(V.size(), 6u); // Sentinel + 5 chars.
  std::string Text = "cab{}";
  EXPECT_EQ(V.decode(V.encode(Text)), Text);
}

TEST(VocabularyTest, SentinelIsZeroAndTerminatesDecode) {
  Vocabulary V = Vocabulary::fromText("xy");
  std::vector<int> Ids = {V.idOf('x'), Vocabulary::EndOfText, V.idOf('y')};
  EXPECT_EQ(V.decode(Ids), "x");
}

TEST(VocabularyTest, UnseenCharsMapToSentinel) {
  Vocabulary V = Vocabulary::fromText("ab");
  EXPECT_EQ(V.idOf('z'), Vocabulary::EndOfText);
}

//===----------------------------------------------------------------------===//
// NGramModel
//===----------------------------------------------------------------------===//

TEST(NGramModelTest, DistributionSumsToOne) {
  NGramModel M;
  M.train({"abcabcabc"});
  M.reset();
  double Sum = 0.0;
  for (double P : M.nextDistribution())
    Sum += P;
  EXPECT_NEAR(Sum, 1.0, 1e-9);
}

TEST(NGramModelTest, LearnsDeterministicSequence) {
  NGramModel M;
  M.train({"abababababababab"});
  M.reset();
  M.observeText("ab");
  auto Dist = M.nextDistribution();
  // After "ab", 'a' must dominate.
  int IdA = M.vocabulary().idOf('a');
  int IdB = M.vocabulary().idOf('b');
  EXPECT_GT(Dist[IdA], 0.8);
  EXPECT_GT(Dist[IdA], 10.0 * Dist[IdB]);
}

TEST(NGramModelTest, BacksOffForUnseenContext) {
  NGramOptions Opts;
  Opts.Order = 5;
  NGramModel M(Opts);
  M.train({"aaab"});
  M.reset();
  M.observeText("zzzz"); // Unseen context: falls back to unigram-ish.
  auto Dist = M.nextDistribution();
  int IdA = M.vocabulary().idOf('a');
  EXPECT_GT(Dist[IdA], 0.1); // 'a' dominates the unigram counts.
}

TEST(NGramModelTest, ContextWindowIsBounded) {
  NGramOptions Opts;
  Opts.Order = 3;
  NGramModel M(Opts);
  M.train({"xyxyxy"});
  M.reset();
  // Feeding a long prefix must not grow the rolling context unboundedly
  // (would throw off lookups); behaviourally: prediction after a long
  // prefix equals prediction after just the last Order-1 chars.
  M.observeText("xyxyxyxyxyxyxyxyxy");
  auto DistLong = M.nextDistribution();
  M.reset();
  M.observeText("xy");
  auto DistShort = M.nextDistribution();
  for (size_t I = 0; I < DistLong.size(); ++I)
    EXPECT_NEAR(DistLong[I], DistShort[I], 1e-12);
}

TEST(NGramModelTest, EndOfTextLearnedAtKernelBoundaries) {
  NGramModel M;
  std::vector<std::string> Entries(8, "k{}");
  M.train(Entries);
  M.reset();
  M.observeText("k{}");
  auto Dist = M.nextDistribution();
  EXPECT_GT(Dist[Vocabulary::EndOfText], 0.5);
}

TEST(NGramModelTest, CloneIsIndependentAndEquivalent) {
  NGramModel M;
  M.train({"abcabcabcabc"});
  auto C = M.clone();
  ASSERT_NE(C, nullptr);
  // Same predictions from the same state...
  M.reset();
  C->reset();
  M.observeText("ab");
  C->observeText("ab");
  EXPECT_EQ(M.nextDistribution(), C->nextDistribution());
  // ...and advancing the clone leaves the original untouched.
  auto Before = M.nextDistribution();
  C->observeText("cabcab");
  EXPECT_EQ(M.nextDistribution(), Before);
}

TEST(NGramModelTest, NextDistributionIntoMatchesNextDistribution) {
  NGramModel M;
  M.train({"xyzzyxyzzy"});
  M.reset();
  M.observeText("xy");
  std::vector<double> Into;
  M.nextDistributionInto(Into);
  EXPECT_EQ(Into, M.nextDistribution());
}

TEST(NGramModelTest, BitsPerCharLowerForInDistributionText) {
  NGramModel M;
  M.train({"__kernel void A(__global float* a) {\n  a[0] = 1.0f;\n}\n"});
  double InDist =
      M.bitsPerChar("__kernel void A(__global float* a) {\n");
  double OffDist = M.bitsPerChar("qqqq zzzz wwww!!!");
  EXPECT_LT(InDist, OffDist);
}

//===----------------------------------------------------------------------===//
// Memoized n-gram sampling vs the dense reference
//===----------------------------------------------------------------------===//

namespace {

/// The normalised kernels a small pipeline trains on.
const std::vector<std::string> &kernelCorpus() {
  static const std::vector<std::string> Entries = [] {
    githubsim::GithubSimOptions G;
    G.FileCount = 60;
    return corpus::buildCorpus(githubsim::mineGithub(G),
                               corpus::CorpusOptions())
        .Entries;
  }();
  return Entries;
}

NGramModel storeRoundTrip(const NGramModel &M) {
  store::ArchiveWriter W(store::ArchiveKind::Model);
  M.serialize(W);
  auto R = store::ArchiveReader::fromBytes(W.finalize(),
                                           store::ArchiveKind::Model);
  EXPECT_TRUE(R.ok()) << R.errorMessage();
  NGramModel Loaded = NGramModel::deserialize(R.get());
  EXPECT_TRUE(R.get().ok()) << R.get().errorMessage();
  return Loaded;
}

/// Forwards to another sampler, counting draws.
class CountingSampler : public TokenSampler {
public:
  explicit CountingSampler(TokenSampler &Inner) : Inner(Inner) {}
  const Vocabulary &vocabulary() const override { return Inner.vocabulary(); }
  void reset() override { Inner.reset(); }
  void observe(int TokenId) override { Inner.observe(TokenId); }
  int draw(double Temperature, Rng &R) override {
    ++Draws;
    return Inner.draw(Temperature, R);
  }
  size_t Draws = 0;

private:
  TokenSampler &Inner;
};

/// Samples \p Attempts kernels through one persistent memo sampler and
/// through the dense reference (sampleKernel on the model itself), from
/// the same RNG streams: the bytes and the RNG advance must agree, and
/// the memo sampler must draw exactly one uniform per emitted token.
void expectMemoMatchesDense(NGramModel &M, const std::string &Seed,
                            double Temperature, int Attempts) {
  std::unique_ptr<TokenSampler> Memo = M.sampler();
  ASSERT_NE(Memo, nullptr);
  CountingSampler Counted(*Memo);
  core::SampleOptions Opts;
  Opts.Temperature = Temperature;
  Rng Base(0x5A117);
  for (int I = 0; I < Attempts; ++I) {
    Rng Dense = Base.split(I), Memoized = Base.split(I), Ref = Base.split(I);
    Counted.Draws = 0;
    auto Expected = core::sampleKernel(M, Seed, Opts, Dense);
    auto Got = core::sampleKernel(Counted, Seed, Opts, Memoized);
    ASSERT_EQ(Expected, Got) << "attempt " << I;
    ASSERT_GT(Counted.Draws, 0u);
    for (size_t D = 0; D < Counted.Draws; ++D)
      Ref.uniform();
    uint64_t RefNext = Ref.next();
    ASSERT_EQ(Memoized.next(), RefNext)
        << "attempt " << I << ": not one uniform per draw";
    ASSERT_EQ(Dense.next(), RefNext) << "attempt " << I;
  }
}

/// Observes \p Tokens on the model itself and on one of its samplers,
/// twice over (the second pass walks memoized nodes and edges), and
/// compares the dense draw with the sampler's before every step.
void expectStepwiseMatch(NGramModel &M, const std::vector<int> &Tokens,
                         double Temperature) {
  std::unique_ptr<TokenSampler> S = M.sampler();
  for (int Pass = 0; Pass < 2; ++Pass) {
    M.reset();
    S->reset();
    for (size_t I = 0; I <= Tokens.size(); ++I) {
      Rng Dense(I), Memoized(I);
      ASSERT_EQ(drawToken(M.nextDistribution(), Temperature, Dense),
                S->draw(Temperature, Memoized))
          << "pass " << Pass << " after " << I << " tokens";
      ASSERT_EQ(Dense.next(), Memoized.next());
      if (I < Tokens.size()) {
        M.observe(Tokens[I]);
        S->observe(Tokens[I]);
      }
    }
  }
}

/// A checksum-valid order-3 model archive over "ab" with the given
/// (context, number of count entries) list.
std::vector<uint8_t>
handMadeModelArchive(const std::vector<std::pair<std::string, int>> &Rows) {
  store::ArchiveWriter W(store::ArchiveKind::Model);
  W.writeI32(3);
  W.writeF64(0.4);
  W.writeF64(0.1);
  Vocabulary::fromText("ab").serialize(W);
  W.writeU64(Rows.size());
  for (const auto &[Ctx, Entries] : Rows) {
    W.writeString(Ctx);
    W.writeU32(static_cast<uint32_t>(Entries));
    for (int Id = 1; Id <= Entries; ++Id) {
      W.writeI32(Id);
      W.writeU32(2);
    }
  }
  return W.finalize();
}

} // namespace

TEST(NGramSamplerTest, MemoizedDrawsMatchDenseReference) {
  // The short seeds leave the window below Order - 1 characters, where
  // the backoff depth depends on the window length.
  const std::string Seeds[] = {core::freeModeSeed(),
                               core::ArgSpec::figure6().seedText(), "_",
                               ""};
  for (int Order : {1, 2, 3, 14, 16}) {
    for (double Smoothing : {0.1, 0.0}) {
      NGramOptions Opts;
      Opts.Order = Order;
      Opts.UnigramSmoothing = Smoothing;
      NGramModel Trained(Opts);
      Trained.train(kernelCorpus());
      NGramModel Loaded = storeRoundTrip(Trained);
      for (NGramModel *M : {&Trained, &Loaded})
        for (double T : {0.1, 0.5, 0.85, 2.0})
          for (const std::string &Seed : Seeds) {
            SCOPED_TRACE(testing::Message()
                         << "order " << Order << " smoothing " << Smoothing
                         << (M == &Loaded ? " round-tripped" : " trained")
                         << " T " << T << " seed \"" << Seed << "\"");
            expectMemoMatchesDense(*M, Seed, T, 12);
          }
    }
  }
}

TEST(NGramSamplerTest, EndOfTextMidStreamMatchesDense) {
  // After the sentinel no trained context matches the window's tail,
  // so the match drops to the empty context at full backoff depth.
  for (int Order : {1, 3, 14}) {
    NGramOptions Opts;
    Opts.Order = Order;
    NGramModel M(Opts);
    M.train(kernelCorpus());
    const Vocabulary &V = M.vocabulary();
    std::vector<int> Tokens = {Vocabulary::EndOfText};
    for (const char *Part : {"__kernel void A(__global float* a) {", "a[0]",
                             "", "} "}) {
      for (int Id : V.encode(Part))
        Tokens.push_back(Id);
      Tokens.push_back(Vocabulary::EndOfText);
    }
    for (double T : {0.5, 2.0}) {
      SCOPED_TRACE(testing::Message() << "order " << Order << " T " << T);
      expectStepwiseMatch(M, Tokens, T);
    }
  }
}

TEST(NGramSamplerTest, ArchiveContextsMustBePrefixClosed) {
  struct Case {
    std::vector<std::pair<std::string, int>> Rows;
    bool Valid;
  };
  const Case Cases[] = {
      {{{"", 2}, {"a", 1}, {"ab", 2}}, true},
      {{{"", 2}, {"b", 1}, {"ab", 2}}, false}, // "a" is missing.
      {{{"", 2}, {"a", 0}, {"ab", 2}}, false}, // "a" has no counts.
      {{{"a", 1}}, false},                     // "" is missing.
      {{{"", 1}, {"a", 0}, {"ba", 0}}, true},  // Empty rows need none.
  };
  for (size_t I = 0; I < std::size(Cases); ++I) {
    auto R = store::ArchiveReader::fromBytes(
        handMadeModelArchive(Cases[I].Rows), store::ArchiveKind::Model);
    ASSERT_TRUE(R.ok()) << R.errorMessage();
    NGramModel M = NGramModel::deserialize(R.get());
    EXPECT_EQ(R.get().ok(), Cases[I].Valid) << "case " << I;
    if (!Cases[I].Valid) {
      EXPECT_NE(R.get().errorMessage().find("prefix-closed"),
                std::string::npos)
          << R.get().errorMessage();
    }
  }
}

TEST(NGramSamplerTest, SamplingNeverWritesTheModel) {
  NGramModel M;
  M.train(kernelCorpus());
  M.reset();
  M.observeText("__kernel void A(");
  std::vector<double> Before = M.nextDistribution();
  std::unique_ptr<TokenSampler> A = M.sampler(), B = M.sampler();
  core::SampleOptions Opts;
  Rng RA(1), RB(2);
  core::sampleKernel(*A, core::freeModeSeed(), Opts, RA);
  core::sampleKernel(*B, "}", Opts, RB);
  EXPECT_EQ(M.nextDistribution(), Before);
}

TEST(NGramSamplerTest, TemperatureChangeRebuildsTheMemo) {
  NGramModel M;
  M.train(kernelCorpus());
  std::unique_ptr<TokenSampler> Memo = M.sampler();
  std::string Seed = core::ArgSpec::figure6().seedText();
  for (double T : {0.5, 2.0, 0.5}) {
    core::SampleOptions Opts;
    Opts.Temperature = T;
    for (uint64_t I = 0; I < 4; ++I) {
      Rng Dense(I), Memoized(I);
      EXPECT_EQ(core::sampleKernel(M, Seed, Opts, Dense),
                core::sampleKernel(*Memo, Seed, Opts, Memoized))
          << "T " << T << " attempt " << I;
    }
  }
}

TEST(CumulativeTableTest, MatchesDrawTokenOnEdgeDistributions) {
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Inf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<double>> Dists = {
      {},
      {0.0, 0.0},
      {0.25, 0.0, 0.75},
      {0.0, 0.5, 0.0, 0.5, 0.0}, // Trailing zero: last-nonzero fallback.
      {0.5, NaN, 0.0, 0.5},      // Pass two turns NaN: last entry wins.
      {0.5, NaN, 0.5, NaN},      // ...even when it is NaN itself.
      {NaN, NaN},
      {0.3, -0.2, 0.7},
      {1.0, Inf},
      {1e-300, 1e-300, 1.0},
      {0.1, 0.2, 0.3, 0.4},
  };
  for (size_t D = 0; D < Dists.size(); ++D)
    for (double T : {-1.0, 0.1, 0.5, 1.0, 2.0}) {
      PageVector<double> Sums;
      PageVector<uint8_t> Ids;
      Sums.push_back(42.0); // Tables share arenas: offsets must hold.
      Ids.push_back(7);
      CumulativeTable Table =
          appendCumulativeTable(Dists[D], T, Sums, Ids);
      for (uint64_t Seed = 0; Seed < 64; ++Seed) {
        Rng A(Seed), B(Seed);
        ASSERT_EQ(drawToken(Dists[D], T, A),
                  drawFromTable(Table, Sums.data(), Ids.data(), B))
            << "dist " << D << " T " << T << " seed " << Seed;
        ASSERT_EQ(A.next(), B.next());
      }
    }
}

TEST(CumulativeTableTest, TargetEqualToARunningSumIsNotACrossing) {
  // drawToken returns the first entry with Target < Running, so a
  // running sum equal to the target is passed over.
  Rng Peek(3);
  double U = Peek.uniform();
  CumulativeTable Table;
  Table.Sum = 1.0;
  Table.Last = 9;
  Table.Size = 3;
  const std::vector<double> Sums = {U, U, 1.0};
  const std::vector<uint8_t> Ids = {4, 5, 6};
  Rng R(3);
  EXPECT_EQ(drawFromTable(Table, Sums.data(), Ids.data(), R), 6);
}

TEST(CumulativeTableTest, RecordsTheWidestSlot) {
  struct Case {
    std::vector<double> Dist;
    int WidestId;
  };
  const Case Cases[] = {
      {{0.1, 0.6, 0.3}, 1},
      {{0.5, 0.5}, 0},           // The first of equals.
      {{0.0, 0.2, 0.0, 0.7}, 3}, // Zeros own no slot.
      {{0.9}, 0},
  };
  for (const Case &C : Cases) {
    PageVector<double> Sums(1, 42.0);
    PageVector<uint8_t> Ids(1, 7);
    CumulativeTable T = appendCumulativeTable(C.Dist, 0.5, Sums, Ids);
    ASSERT_LT(T.Widest, T.Size);
    EXPECT_EQ(Ids[T.Offset + T.Widest], C.WidestId);
  }
}

TEST(CumulativeTableTest, TargetOnTheWidestSlotsBoundsIsUpperBound) {
  // Target = U exactly (Sum 1). A target equal to the widest slot's
  // upper running sum is not in that slot; one equal to its lower sum
  // is; one below it is in an earlier slot.
  Rng Peek(3);
  const double U = Peek.uniform();
  struct Case {
    std::vector<double> Sums;
    uint32_t Widest;
    int Expected;
  };
  const Case Cases[] = {
      {{U}, 0, 9},                       // Single entry, upper: the tail.
      {{U, 1.5 * U}, 0, 5},              // Widest first, upper: the next.
      {{U / 2, U, U + 1.0}, 2, 6},       // Lower bound: the widest itself.
      {{2 * U, 2 * U + 5.0}, 1, 4},      // Below the widest: an earlier one.
      {{U / 4, U, U + 1.0, U + 1.5}, 2, 6}, // Lower bound, not the last.
  };
  const std::vector<uint8_t> Ids = {4, 5, 6, 7};
  for (size_t I = 0; I < std::size(Cases); ++I) {
    CumulativeTable Table;
    Table.Sum = 1.0;
    Table.Last = 9;
    Table.Size = static_cast<uint32_t>(Cases[I].Sums.size());
    Table.Widest = Cases[I].Widest;
    Rng R(3);
    EXPECT_EQ(drawFromTable(Table, Cases[I].Sums.data(), Ids.data(), R),
              Cases[I].Expected)
        << "case " << I;
  }
}

TEST(LanguageModelTest, DefaultSamplerDrawsOnAPrivateClone) {
  LstmOptions Opts;
  Opts.Epochs = 1;
  Opts.HiddenSize = 12;
  LstmModel M(Opts);
  M.train({"__kernel void A(__global float* a) { a[0] = 1.0f; }"});
  std::unique_ptr<TokenSampler> S = M.sampler();
  ASSERT_NE(S, nullptr);
  core::SampleOptions SOpts;
  SOpts.MaxLength = 96;
  for (uint64_t I = 0; I < 4; ++I) {
    Rng Dense(I), Private(I);
    EXPECT_EQ(core::sampleKernel(M, "__kernel void A(", SOpts, Dense),
              core::sampleKernel(*S, "__kernel void A(", SOpts, Private));
  }
}

//===----------------------------------------------------------------------===//
// LstmModel
//===----------------------------------------------------------------------===//

TEST(LstmModelTest, ParameterCountMatchesArchitecture) {
  LstmOptions Opts;
  Opts.Layers = 2;
  Opts.HiddenSize = 16;
  Opts.Epochs = 0;
  LstmModel M(Opts);
  M.train({"abc"});
  size_t V = M.vocabulary().size();
  size_t H = 16;
  size_t Expected = (4 * H * (V + H) + 4 * H) + // Layer 0.
                    (4 * H * (H + H) + 4 * H) + // Layer 1.
                    (V * H + V);                // Output.
  EXPECT_EQ(M.parameterCount(), Expected);
}

TEST(LstmModelTest, DistributionSumsToOne) {
  LstmOptions Opts;
  Opts.Epochs = 1;
  Opts.HiddenSize = 16;
  LstmModel M(Opts);
  M.train({"abcabc"});
  M.reset();
  M.observe(1);
  double Sum = 0.0;
  for (double P : M.nextDistribution())
    Sum += P;
  EXPECT_NEAR(Sum, 1.0, 1e-5);
}

TEST(LstmModelTest, TrainingReducesLoss) {
  LstmOptions Opts;
  Opts.Layers = 1;
  Opts.HiddenSize = 24;
  Opts.Epochs = 12;
  Opts.SequenceLength = 16;
  Opts.LearningRate = 0.1f;
  LstmModel M(Opts);
  std::vector<double> Losses;
  M.train({"abababababababababababababababab"},
          [&](int, double Loss) { Losses.push_back(Loss); });
  ASSERT_GE(Losses.size(), 2u);
  EXPECT_LT(Losses.back(), Losses.front() * 0.8);
}

TEST(LstmModelTest, LearnsAlternatingSequence) {
  LstmOptions Opts;
  Opts.Layers = 1;
  Opts.HiddenSize = 24;
  Opts.Epochs = 80;
  Opts.SequenceLength = 16;
  Opts.LearningRate = 0.1f;
  Opts.DecayEveryEpochs = 50;
  LstmModel M(Opts);
  std::string Text;
  for (int I = 0; I < 64; ++I)
    Text += "ab";
  M.train({Text});
  M.reset();
  M.observeText("abab");
  auto Dist = M.nextDistribution();
  int IdA = M.vocabulary().idOf('a');
  EXPECT_GT(Dist[IdA], 0.8);
}

TEST(LstmModelTest, GradientsMatchFiniteDifferences) {
  LstmOptions Opts;
  Opts.Layers = 2;
  Opts.HiddenSize = 6;
  Opts.Epochs = 0;
  Opts.SequenceLength = 8;
  LstmModel M(Opts);
  M.train({"abcbacbbca"});
  std::vector<int> Seq;
  for (char C : std::string("abcba"))
    Seq.push_back(M.vocabulary().idOf(C));
  double MaxRelError = M.gradientCheck(Seq, 32);
  EXPECT_LT(MaxRelError, 0.05) << "BPTT gradient mismatch";
}

TEST(LstmModelTest, CloneMatchesOriginal) {
  LstmOptions Opts;
  Opts.Epochs = 1;
  Opts.HiddenSize = 12;
  LstmModel M(Opts);
  M.train({"abcabcabc"});
  auto C = M.clone();
  ASSERT_NE(C, nullptr);
  M.reset();
  C->reset();
  M.observeText("ab");
  C->observeText("ab");
  EXPECT_EQ(M.nextDistribution(), C->nextDistribution());
}

TEST(LstmModelTest, StatefulGenerationIsDeterministic) {
  LstmOptions Opts;
  Opts.Epochs = 2;
  Opts.HiddenSize = 16;
  LstmModel M(Opts);
  M.train({"xyzxyzxyz"});
  M.reset();
  M.observeText("xy");
  auto D1 = M.nextDistribution();
  M.reset();
  M.observeText("xy");
  auto D2 = M.nextDistribution();
  EXPECT_EQ(D1, D2);
}
