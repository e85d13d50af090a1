//===- model/LanguageModel.cpp - Generative LM interface ----------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "model/LanguageModel.h"

#include "support/Rng.h"

#include <algorithm>
#include <cmath>

using namespace clgen;
using namespace clgen::model;

namespace {

/// Memoizing log-space temperature reweighting: w = exp(log(p)/T).
/// Smoothed distributions repeat one floor probability across most of
/// the vocabulary (bit-identically), so a single-entry memo collapses
/// nearly every exp/log pair; the few "real" probabilities each pay one.
struct TemperedWeight {
  double InvT;
  double LastP = -1.0;
  double LastW = 0.0;

  double operator()(double P) {
    if (P != LastP) {
      LastP = P;
      LastW = std::exp(std::log(P) * InvT);
    }
    return LastW;
  }
};

} // namespace

int model::drawToken(const std::vector<double> &Dist, double Temperature,
                     Rng &R) {
  if (Temperature <= 0.0)
    Temperature = 1e-3;
  // Cumulative (inverse-CDF) sampling from the p^(1/T) distribution in
  // two memoized passes — no pow() storm and no intermediate weight
  // vector. Exactly one uniform draw per emitted token keeps the RNG
  // stream advance independent of the distribution's content.
  TemperedWeight Weight{1.0 / Temperature};
  double Sum = 0.0;
  for (double P : Dist)
    if (P > 0.0)
      Sum += Weight(P);
  double Target = R.uniform() * Sum;
  if (Dist.empty() || Sum <= 0.0 || !std::isfinite(Sum))
    return Vocabulary::EndOfText;
  double Running = 0.0;
  int Last = Vocabulary::EndOfText;
  for (size_t I = 0; I < Dist.size(); ++I) {
    double P = Dist[I];
    if (P <= 0.0)
      continue;
    Running += Weight(P);
    Last = static_cast<int>(I);
    if (Target < Running)
      return Last;
  }
  // Floating-point shortfall at the tail: return the last nonzero entry.
  return Last;
}

CumulativeTable model::appendCumulativeTable(const std::vector<double> &Dist,
                                             double Temperature,
                                             PageVector<double> &Sums,
                                             PageVector<uint8_t> &Ids) {
  // drawToken's two passes, kept separate because they differ on NaN
  // entries: pass one skips them, pass two adds them (and its running
  // sum stays NaN, so no later entry can be the crossing).
  if (Temperature <= 0.0)
    Temperature = 1e-3;
  TemperedWeight Weight{1.0 / Temperature};
  CumulativeTable T;
  for (double P : Dist)
    if (P > 0.0)
      T.Sum += Weight(P);
  T.Offset = static_cast<uint32_t>(Sums.size());
  if (Dist.empty() || T.Sum <= 0.0 || !std::isfinite(T.Sum))
    return T;
  double Running = 0.0;
  double Widest = -1.0;
  for (size_t I = 0; I < Dist.size(); ++I) {
    double P = Dist[I];
    if (P <= 0.0)
      continue;
    double Before = Running;
    Running += Weight(P);
    T.Last = static_cast<int>(I);
    if (std::isnan(Running))
      continue;
    if (Running - Before > Widest) {
      Widest = Running - Before;
      T.Widest = static_cast<uint32_t>(Sums.size() - T.Offset);
    }
    Sums.push_back(Running);
    Ids.push_back(static_cast<uint8_t>(I));
  }
  T.Size = static_cast<uint32_t>(Sums.size() - T.Offset);
  return T;
}

int model::drawFromTable(const CumulativeTable &T, const double *Sums,
                         const uint8_t *Ids, Rng &R) {
  double Target = R.uniform() * T.Sum;
  if (T.Sum <= 0.0 || !std::isfinite(T.Sum))
    return Vocabulary::EndOfText; // Also covers drawToken's empty Dist.
  const double *Begin = Sums + T.Offset;
  const double *End = Begin + T.Size;
  uint32_t W = T.Widest;
  if (W < T.Size && Target < Begin[W] && (W == 0 || Begin[W - 1] <= Target))
    return Ids[T.Offset + W];
  const double *It = std::upper_bound(Begin, End, Target);
  return It == End ? T.Last : Ids[T.Offset + (It - Begin)];
}

LanguageModel::~LanguageModel() = default;

std::unique_ptr<TokenSampler> LanguageModel::sampler() const {
  std::unique_ptr<LanguageModel> Private = clone();
  if (!Private)
    return nullptr;
  return std::make_unique<DenseSampler>(std::move(Private));
}

void LanguageModel::nextDistributionInto(std::vector<double> &Dist) {
  Dist = nextDistribution();
}

void LanguageModel::observeText(const std::string &Text) {
  const Vocabulary &V = vocabulary();
  for (char C : Text)
    observe(V.idOf(C));
}

double LanguageModel::bitsPerChar(const std::string &Text) {
  if (Text.empty())
    return 0.0;
  const Vocabulary &V = vocabulary();
  reset();
  double TotalBits = 0.0;
  for (char C : Text) {
    std::vector<double> Dist = nextDistribution();
    int Id = V.idOf(C);
    double P = Id >= 0 && static_cast<size_t>(Id) < Dist.size()
                   ? Dist[Id]
                   : 1e-12;
    TotalBits += -std::log2(P > 1e-12 ? P : 1e-12);
    observe(Id);
  }
  return TotalBits / static_cast<double>(Text.size());
}

TokenSampler::~TokenSampler() = default;

int DenseSampler::draw(double Temperature, Rng &R) {
  Model.nextDistributionInto(Dist);
  return drawToken(Dist, Temperature, R);
}
