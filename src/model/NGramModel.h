//===- model/NGramModel.h - Backoff n-gram language model --------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Character-level n-gram language model with stupid-backoff smoothing.
///
/// Role in the reproduction: the paper trains a 3-layer x 2048-unit LSTM
/// for three weeks on a GTX Titan (section 4.2). That compute budget is
/// unavailable here, so the large-scale experiments (Figures 7-9), which
/// need thousands of accepted synthetic kernels, sample this model
/// instead: it trains in seconds on the full corpus and captures the
/// same "how humans write OpenCL" statistics at the character level. The
/// LSTM (model/LstmModel.h) implements the paper's architecture
/// faithfully and is exercised end-to-end at laptop scale.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_MODEL_NGRAMMODEL_H
#define CLGEN_MODEL_NGRAMMODEL_H

#include "model/LanguageModel.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace clgen {
namespace model {

struct NGramOptions {
  /// Model order: context length = Order - 1 characters.
  int Order = 10;
  /// Backoff multiplier per level (Brants et al. "stupid backoff").
  double BackoffAlpha = 0.4;
  /// Additive smoothing at the unigram level.
  double UnigramSmoothing = 0.1;
};

class NGramModel : public LanguageModel {
public:
  explicit NGramModel(NGramOptions Opts = NGramOptions()) : Opts(Opts) {}

  /// Trains on corpus entries (each a normalised kernel). Entries are
  /// separated by the end-of-text sentinel so the model learns kernel
  /// boundaries. Counts are gathered straight into the flat table, so
  /// training never holds a second copy of them.
  void train(const std::vector<std::string> &Entries);

  // LanguageModel:
  const Vocabulary &vocabulary() const override { return Vocab; }
  void reset() override;
  void observe(int TokenId) override;
  std::vector<double> nextDistribution() override;
  void nextDistributionInto(std::vector<double> &Dist) override;
  std::unique_ptr<LanguageModel> clone() const override;
  /// A sampler that walks a memoized automaton over (matched context,
  /// window length) nodes: a cached step is one comparison, and a
  /// cached draw is one R.uniform() and, almost always, one interval
  /// test against the node's memoized cumulative table. It picks the
  /// same token as the dense nextDistributionInto + drawToken path from
  /// the same state. A new node's match tests only the suffixes of
  /// (matched context + token), which is sound because trained count
  /// tables are prefix-closed (deserialize() rejects any that is not).
  std::unique_ptr<TokenSampler> sampler() const override;
  const char *backendName() const override { return "ngram"; }

  /// Number of distinct contexts stored (all orders).
  size_t contextCount() const;

  /// Appends options, vocabulary and the full count table to an archive
  /// payload. Contexts and their count entries are emitted in sorted
  /// order, so equal trained models serialize to byte-identical
  /// archives (content-addressing relies on this).
  void serialize(store::ArchiveWriter &W) const;

  /// Rebuilds a trained model from an archive. On schema violations,
  /// including contexts that are not prefix-closed (a context with
  /// counts whose one-shorter prefix has none), the reader's error
  /// state is tripped; callers must check it before using the returned
  /// model.
  static NGramModel deserialize(store::ArchiveReader &R);

private:
  class CountTable;
  class CountBuilder;
  class AutomatonSampler;

  NGramOptions Opts;
  Vocabulary Vocab;
  /// Context -> interned (id, count) row. Immutable once trained and
  /// shared between clones and samplers, so a model copy costs O(1) and
  /// sampling never writes it.
  std::shared_ptr<const CountTable> Counts;
  /// Rolling context of the last windowLength() token ids (as chars).
  std::string Context;
  /// Suffix-hash scratch for context lookups.
  std::vector<uint64_t> Hashes;

  /// Order - 1: the longest context the model conditions on.
  size_t windowLength() const;
  /// The backoff match for \p Window: (context, levels skipped), or
  /// (no context, 0) when no suffix has counts.
  std::pair<uint32_t, size_t> match(std::string_view Window,
                                    std::vector<uint64_t> &Scratch) const;
  /// The row of a matched context, or no row.
  uint32_t rowOf(uint32_t Context) const;
  /// The dense next distribution for a matched row after \p Skip
  /// backoff levels (or for no match at all).
  void fillDistribution(uint32_t Row, size_t Skip,
                        std::vector<double> &Dist) const;
};

} // namespace model
} // namespace clgen

#endif // CLGEN_MODEL_NGRAMMODEL_H
