//===- model/LanguageModel.h - Generative LM interface -----------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contract shared by the project's two character-level language
/// models (LSTM and interpolated n-gram): a stateful generator that is
/// advanced one token at a time and queried for the distribution over the
/// next token, plus the per-caller TokenSampler that Algorithm 1 draws
/// through. A trained model hands out any number of samplers; each owns
/// its generation state, so concurrent samplers never write the model.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_MODEL_LANGUAGEMODEL_H
#define CLGEN_MODEL_LANGUAGEMODEL_H

#include "model/Vocabulary.h"
#include "support/PageAllocator.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace clgen {
class Rng;
namespace model {

class TokenSampler;

/// Temperature-adjusted draw from a probability distribution:
/// inverse-CDF sampling over the log-space reweighted values
/// w_i = exp(log(p_i)/T), computed in two memoized passes with no
/// intermediate weight vector and no per-token pow() (smoothed
/// distributions repeat one floor probability, so almost every entry
/// hits the memo). Entries <= 0 are skipped. Exactly one uniform is drawn
/// from \p R per call, keeping the stream advance independent of the
/// distribution's content. An empty or all-zero distribution yields
/// Vocabulary::EndOfText (the sampler then treats the sample as
/// complete or rejects it) rather than silently picking token 0.
int drawToken(const std::vector<double> &Dist, double Temperature, Rng &R);

/// drawToken over one (distribution, temperature), split into a table
/// that can be memoized and a draw from it. The table keeps drawToken's
/// pass-one sum and its pass-two running sums, in drawToken's index and
/// summation order, with the token each sum ends at; the sums live in
/// caller-owned arenas so many tables share two page-backed vectors.
struct CumulativeTable {
  double Sum = 0.0;
  /// drawToken's tail fallback: the last entry pass two does not skip.
  int Last = Vocabulary::EndOfText;
  /// Slice of the arenas: the running sums up to the first NaN one,
  /// which is nondecreasing, so drawToken's first crossing
  /// (Target < Running) is std::upper_bound over the slice.
  uint32_t Offset = 0;
  uint32_t Size = 0;
  /// The slot (within the slice) whose interval between running sums is
  /// widest, the first of equals: the likeliest crossing, which
  /// drawFromTable tests before it searches.
  uint32_t Widest = 0;
};

/// Builds \p Dist's table at \p Temperature, appending its sums to
/// \p Sums and their token ids to \p Ids.
CumulativeTable appendCumulativeTable(const std::vector<double> &Dist,
                                      double Temperature,
                                      PageVector<double> &Sums,
                                      PageVector<uint8_t> &Ids);

/// Draws from a table: the token drawToken picks, with the same single
/// R.uniform() advance. A target inside the widest slot's interval,
/// Sums[Widest - 1] <= Target < Sums[Widest], is that slot without a
/// search: the sums are nondecreasing, so it is upper_bound's answer.
int drawFromTable(const CumulativeTable &T, const double *Sums,
                  const uint8_t *Ids, Rng &R);

class LanguageModel {
public:
  virtual ~LanguageModel();

  /// The vocabulary this model emits over.
  virtual const Vocabulary &vocabulary() const = 0;

  /// Clears generation state (fresh sequence).
  virtual void reset() = 0;

  /// Advances the generation state with an observed token.
  virtual void observe(int TokenId) = 0;

  /// Probability distribution over the next token given the state; sums
  /// to 1 and has vocabulary().size() entries.
  virtual std::vector<double> nextDistribution() = 0;

  /// Allocation-free variant for sampling hot loops: writes the next
  /// distribution into \p Dist (resized to vocabulary().size()).
  /// Subclasses override this to avoid building a fresh vector per
  /// token; the default delegates to nextDistribution().
  virtual void nextDistributionInto(std::vector<double> &Dist);

  /// Returns an independent deep copy carrying the trained parameters
  /// (generation state need not be preserved), or nullptr when the model
  /// is not cloneable. The default sampler() draws on a private clone.
  virtual std::unique_ptr<LanguageModel> clone() const { return nullptr; }

  /// Returns generation state private to one caller, so any number of
  /// samplers can draw from this model concurrently without writing it.
  /// A sampler reads the model's trained parameters and must not
  /// outlive it. The default is a DenseSampler over a private clone();
  /// it returns nullptr when the model has no clone(), and callers then
  /// sample on the model itself (DenseSampler(*this)), one at a time.
  virtual std::unique_ptr<TokenSampler> sampler() const;

  /// Stable identifier of the concrete backend ("ngram", "lstm"), used
  /// as the dispatch tag by the artifact store's polymorphic model
  /// serialization (store/Serialization.h) and in pipeline cache
  /// fingerprints. Backends without serialization support keep the
  /// default and are rejected by store::saveModel.
  virtual const char *backendName() const { return "unknown"; }

  /// Convenience: feed a whole string.
  void observeText(const std::string &Text);

  /// Average per-character negative log2 likelihood of \p Text under
  /// this model starting from a fresh state. Lower = more "natural" to
  /// the model; the Turing-test judge thresholds on this.
  double bitsPerChar(const std::string &Text);
};

/// One caller's generation state over a trained model: the interface
/// Algorithm 1 samples through.
class TokenSampler {
public:
  TokenSampler() = default;
  TokenSampler(const TokenSampler &) = delete;
  TokenSampler &operator=(const TokenSampler &) = delete;
  virtual ~TokenSampler();

  /// The vocabulary tokens are drawn from.
  virtual const Vocabulary &vocabulary() const = 0;

  /// Clears generation state (fresh sequence).
  virtual void reset() = 0;

  /// Advances the generation state with an observed token.
  virtual void observe(int TokenId) = 0;

  /// Draws the next token at \p Temperature: the token, and the single
  /// R.uniform() advance, of drawToken over the model's next
  /// distribution from the same state.
  virtual int draw(double Temperature, Rng &R) = 0;
};

/// The reference sampler: nextDistributionInto + drawToken, one dense
/// distribution per draw.
class DenseSampler final : public TokenSampler {
public:
  /// Samples on \p Model itself, writing its generation state.
  explicit DenseSampler(LanguageModel &Model) : Model(Model) {}
  /// Samples on a model it owns.
  explicit DenseSampler(std::unique_ptr<LanguageModel> Owned)
      : Owned(std::move(Owned)), Model(*this->Owned) {}

  const Vocabulary &vocabulary() const override {
    return Model.vocabulary();
  }
  void reset() override { Model.reset(); }
  void observe(int TokenId) override { Model.observe(TokenId); }
  int draw(double Temperature, Rng &R) override;

private:
  std::unique_ptr<LanguageModel> Owned;
  LanguageModel &Model;
  std::vector<double> Dist; // Reused across draws: no per-token allocs.
};

} // namespace model
} // namespace clgen

#endif // CLGEN_MODEL_LANGUAGEMODEL_H
