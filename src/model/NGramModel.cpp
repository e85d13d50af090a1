//===- model/NGramModel.cpp - Backoff n-gram language model -------------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// The counts live in one flat, immutable CountTable: contexts back to
// back in a character arena, found through an open-addressing index of
// right-to-left suffix hashes, each pointing at an interned (id, count)
// row. Training and deserialization fill it through a CountBuilder, so
// the counts exist in one compact copy only. The dense path
// (nextDistributionInto) and the memoizing sampler share one context
// match and one distribution fill, so they cannot drift apart. Every
// buffer that grows with the corpus or the memo is a PageVector, so
// the process's peak resident set does not depend on which thread
// freed what first.
//
//===----------------------------------------------------------------------===//

#include "model/NGramModel.h"

#include "store/Archive.h"
#include "support/PageAllocator.h"

#include <algorithm>
#include <numeric>
#include <string_view>

using namespace clgen;
using namespace clgen::model;

namespace {

constexpr uint64_t HashSeed = 0x84222325CBF29CE4ull;
constexpr uint64_t HashMul = 0x9E3779B97F4A7C15ull;

/// Hash of C + S given the hash of S: contexts are hashed right to left,
/// so one pass over a context yields the hash of every suffix.
uint64_t extendLeft(uint64_t H, char C) {
  return (H ^ static_cast<unsigned char>(C)) * HashMul;
}

/// Open-addressing index from 64-bit hashes to entry numbers; the
/// caller owns the entries and decides equality. A slot packs the top
/// 32 hash bits, which also pick the home slot, with entry + 1, so the
/// index grows without consulting the entries.
class HashIndex {
public:
  static constexpr uint32_t None = ~0u;

  template <typename EqFn> uint32_t find(uint64_t Hash, EqFn Eq) const {
    if (Slots.empty())
      return None;
    uint32_t Tag = static_cast<uint32_t>(Hash >> 32);
    for (size_t I = Tag >> Shift;; I = (I + 1) & (Slots.size() - 1)) {
      uint64_t S = Slots[I];
      if (S == 0)
        return None;
      uint32_t Entry = static_cast<uint32_t>(S) - 1;
      if (static_cast<uint32_t>(S >> 32) == Tag && Eq(Entry))
        return Entry;
    }
  }

  /// Records \p Entry, which the caller checked is absent.
  void insert(uint64_t Hash, uint32_t Entry) {
    if ((Count + 1) * 2 > Slots.size())
      grow();
    place((Hash & ~0xFFFFFFFFull) | (static_cast<uint64_t>(Entry) + 1));
    ++Count;
  }

private:
  PageVector<uint64_t> Slots;
  unsigned Shift = 32;
  size_t Count = 0;

  void place(uint64_t S) {
    size_t I = static_cast<uint32_t>(S >> 32) >> Shift;
    while (Slots[I] != 0)
      I = (I + 1) & (Slots.size() - 1);
    Slots[I] = S;
  }

  void grow() {
    PageVector<uint64_t> Old;
    Old.swap(Slots);
    Slots.assign(Old.empty() ? 64 : Old.size() * 2, 0);
    Shift = 32 - static_cast<unsigned>(__builtin_ctzll(Slots.size()));
    for (uint64_t S : Old)
      if (S != 0)
        place(S);
  }
};

struct CountEntry {
  int32_t Id;
  uint32_t Count;
  bool operator==(const CountEntry &O) const {
    return Id == O.Id && Count == O.Count;
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// CountTable
//===----------------------------------------------------------------------===//

class NGramModel::CountTable {
public:
  static constexpr uint32_t NoRow = ~0u;

  size_t size() const { return Contexts.size(); }

  std::string_view context(uint32_t C) const {
    uint32_t End = C + 1 < Contexts.size() ? Contexts[C + 1].Start
                                           : static_cast<uint32_t>(
                                                 Chars.size());
    return std::string_view(Chars.data() + Contexts[C].Start,
                            End - Contexts[C].Start);
  }

  uint32_t find(std::string_view Ctx, uint64_t Hash) const {
    return Index.find(Hash, [&](uint32_t C) { return context(C) == Ctx; });
  }

  /// The longest suffix of \p Full with a non-empty row, as (row,
  /// levels skipped before it); (NoRow, 0) when there is none. This is
  /// the backoff walk: longest context first, every suffix hashed in
  /// one right-to-left pass over \p Full into \p Hashes.
  std::pair<uint32_t, size_t> match(std::string_view Full,
                                    std::vector<uint64_t> &Hashes) const {
    size_t N = Full.size();
    Hashes.resize(N + 1);
    Hashes[0] = HashSeed;
    for (size_t L = 1; L <= N; ++L)
      Hashes[L] = extendLeft(Hashes[L - 1], Full[N - L]);
    for (size_t Skip = 0; Skip <= N; ++Skip) {
      uint32_t C = find(Full.substr(Skip), Hashes[N - Skip]);
      if (C != HashIndex::None && Contexts[C].Row != NoRow)
        return {Contexts[C].Row, Skip};
    }
    return {NoRow, 0};
  }

  const CountEntry *rowBegin(uint32_t Row) const {
    return Entries.data() + RowStart[Row];
  }
  const CountEntry *rowEnd(uint32_t Row) const {
    return Entries.data() + RowStart[Row + 1];
  }
  double rowTotal(uint32_t Row) const { return RowTotal[Row]; }

  struct ContextSlot {
    uint32_t Start; // Offset into Chars; the next context's is the end.
    uint32_t Row;
  };
  PageVector<char> Chars;
  PageVector<ContextSlot> Contexts;
  HashIndex Index;
  /// Interned rows: the distinct non-empty (id, count) lists, sorted by
  /// id, with their totals summed as the dense path sums them.
  PageVector<uint32_t> RowStart = PageVector<uint32_t>(1, 0);
  PageVector<CountEntry> Entries;
  PageVector<double> RowTotal;
};

/// Gathers counts into a CountTable's context arena plus a (context,
/// id) -> count side table, then freezes them into interned rows.
class NGramModel::CountBuilder {
public:
  /// Context number of \p Ctx (hash \p Hash), added when new.
  uint32_t context(std::string_view Ctx, uint64_t Hash) {
    uint32_t C = T->find(Ctx, Hash);
    if (C != HashIndex::None)
      return C;
    C = static_cast<uint32_t>(T->Contexts.size());
    T->Contexts.push_back({static_cast<uint32_t>(T->Chars.size()),
                           CountTable::NoRow});
    T->Chars.insert(T->Chars.end(), Ctx.begin(), Ctx.end());
    T->Index.insert(Hash, C);
    return C;
  }

  /// The count of \p Id after context \p C, added as 0 when new.
  uint32_t &count(uint32_t C, int Id) {
    uint64_t Key = (static_cast<uint64_t>(C) << 8) | static_cast<uint8_t>(Id);
    uint64_t Hash = Key * HashMul;
    uint32_t P =
        Pairs.find(Hash, [&](uint32_t E) { return PairKeys[E] == Key; });
    if (P == HashIndex::None) {
      P = static_cast<uint32_t>(PairKeys.size());
      PairKeys.push_back(Key);
      PairCounts.push_back(0);
      Pairs.insert(Hash, P);
    }
    return PairCounts[P];
  }

  std::shared_ptr<const CountTable> finish() {
    Pairs = HashIndex();
    // Group the pairs by context (counting sort), ids ascending.
    size_t NumContexts = T->Contexts.size();
    PageVector<uint32_t> Begin(NumContexts + 1, 0);
    for (uint64_t Key : PairKeys)
      ++Begin[(Key >> 8) + 1];
    std::partial_sum(Begin.begin(), Begin.end(), Begin.begin());
    PageVector<CountEntry> Grouped(PairKeys.size());
    PageVector<uint32_t> Fill(Begin.begin(), Begin.end() - 1);
    for (size_t P = 0; P < PairKeys.size(); ++P)
      Grouped[Fill[PairKeys[P] >> 8]++] = {
          static_cast<int32_t>(PairKeys[P] & 0xFF), PairCounts[P]};
    PageVector<uint64_t>().swap(PairKeys);
    PageVector<uint32_t>().swap(PairCounts);

    // Intern each context's row by content.
    HashIndex Rows;
    for (size_t C = 0; C < NumContexts; ++C) {
      CountEntry *B = Grouped.data() + Begin[C];
      CountEntry *E = Grouped.data() + Begin[C + 1];
      if (B == E)
        continue; // No entries: the backoff walk skips this context.
      std::sort(B, E, [](const CountEntry &X, const CountEntry &Y) {
        return X.Id < Y.Id;
      });
      uint64_t Hash = HashSeed;
      for (const CountEntry *I = B; I != E; ++I)
        Hash = (Hash ^ (static_cast<uint64_t>(I->Id) << 32 | I->Count)) *
               HashMul;
      uint32_t Row = Rows.find(Hash, [&](uint32_t R) {
        return std::equal(B, E, T->rowBegin(R), T->rowEnd(R));
      });
      if (Row == HashIndex::None) {
        Row = static_cast<uint32_t>(T->RowTotal.size());
        double Total = 0.0;
        for (const CountEntry *I = B; I != E; ++I)
          Total += I->Count;
        T->Entries.insert(T->Entries.end(), B, E);
        T->RowStart.push_back(static_cast<uint32_t>(T->Entries.size()));
        T->RowTotal.push_back(Total);
        Rows.insert(Hash, Row);
      }
      T->Contexts[C].Row = Row;
    }
    T->Chars.shrink_to_fit();
    T->Contexts.shrink_to_fit();
    return std::move(T);
  }

private:
  std::shared_ptr<CountTable> T = std::make_shared<CountTable>();
  HashIndex Pairs;
  PageVector<uint64_t> PairKeys; // Context << 8 | token id.
  PageVector<uint32_t> PairCounts;
};

//===----------------------------------------------------------------------===//
// NGramModel
//===----------------------------------------------------------------------===//

void NGramModel::train(const std::vector<std::string> &Entries) {
  std::string All;
  for (const std::string &E : Entries)
    All += E;
  Vocab = Vocabulary::fromText(All);

  // Token stream per entry: its characters followed by the sentinel
  // ('\0', which cannot occur inside entries). Every context suffix
  // ending just before position I is counted, its hash extended one
  // character to the left per order, so ingest does O(1) work per
  // (position, order) and copies a context only when first seen.
  CountBuilder Builder;
  size_t ContextLen = static_cast<size_t>(std::max(Opts.Order - 1, 0));
  std::string Stream;
  for (const std::string &Entry : Entries) {
    Stream = Entry;
    Stream.push_back('\0');
    for (size_t I = 0; I < Stream.size(); ++I) {
      int NextId = Stream[I] == '\0' ? Vocabulary::EndOfText
                                     : Vocab.idOf(Stream[I]);
      size_t MaxLen = std::min(ContextLen, I);
      uint64_t Hash = HashSeed;
      for (size_t L = 0;; ++L) {
        std::string_view Ctx(Stream.data() + (I - L), L);
        ++Builder.count(Builder.context(Ctx, Hash), NextId);
        if (L == MaxLen)
          break;
        Hash = extendLeft(Hash, Stream[I - L - 1]);
      }
    }
  }
  Counts = Builder.finish();
  reset();
}

size_t NGramModel::contextCount() const {
  return Counts ? Counts->size() : 0;
}

void NGramModel::reset() { Context.clear(); }

void NGramModel::pushContext(std::string &Ctx, int TokenId) const {
  Ctx.push_back(TokenId == Vocabulary::EndOfText ? '\0'
                                                 : Vocab.charOf(TokenId));
  size_t MaxLen = static_cast<size_t>(Opts.Order - 1);
  if (Ctx.size() > MaxLen)
    Ctx.erase(0, Ctx.size() - MaxLen);
}

void NGramModel::observe(int TokenId) { pushContext(Context, TokenId); }

std::vector<double> NGramModel::nextDistribution() {
  std::vector<double> Dist;
  nextDistributionInto(Dist);
  return Dist;
}

void NGramModel::nextDistributionInto(std::vector<double> &Dist) {
  auto [Row, Skip] = match(Context, Hashes);
  fillDistribution(Row, Skip, Dist);
}

std::pair<uint32_t, size_t>
NGramModel::match(const std::string &Ctx,
                  std::vector<uint64_t> &Scratch) const {
  if (!Counts)
    return {CountTable::NoRow, 0};
  return Counts->match(Ctx, Scratch);
}

void NGramModel::fillDistribution(uint32_t Row, size_t Skip,
                                  std::vector<double> &Dist) const {
  size_t V = Vocab.size();
  Dist.assign(V, 0.0);

  // The matched context is discounted by BackoffAlpha per skipped
  // level; no match places no context mass at all.
  double ContextMass = 0.0;
  if (Row != CountTable::NoRow) {
    double Scale = 1.0;
    for (size_t L = 0; L < Skip; ++L)
      Scale *= Opts.BackoffAlpha;
    double Total = Counts->rowTotal(Row);
    for (const CountEntry *E = Counts->rowBegin(Row); E != Counts->rowEnd(Row);
         ++E)
      Dist[E->Id] += Scale * static_cast<double>(E->Count) / Total;
    ContextMass = Scale;
  }

  // Unigram smoothing floor so every token has nonzero probability. The
  // pre-normalisation sum is known analytically (matched backoff mass
  // plus total smoothing mass), so flooring and normalising fuse into
  // one pass.
  double Floor = Opts.UnigramSmoothing / static_cast<double>(V);
  double InvSum = 1.0 / (ContextMass + Opts.UnigramSmoothing);
  for (double &P : Dist)
    P = (P + Floor) * InvSum;
}

std::unique_ptr<LanguageModel> NGramModel::clone() const {
  return std::make_unique<NGramModel>(*this);
}

//===----------------------------------------------------------------------===//
// MemoSampler
//===----------------------------------------------------------------------===//

/// Holds the rolling context and, per (row, backoff depth), the
/// cumulative table drawToken would walk at the current temperature.
/// The table is a pure function of (row, depth, temperature) over an
/// immutable model, so building it once and drawing from it many times
/// picks exactly the tokens the dense path picks.
class NGramModel::MemoSampler final : public TokenSampler {
public:
  explicit MemoSampler(const NGramModel &M) : M(M) {}

  const Vocabulary &vocabulary() const override { return M.Vocab; }
  void reset() override { Context.clear(); }
  void observe(int TokenId) override { M.pushContext(Context, TokenId); }

  int draw(double Temperature, Rng &R) override {
    if (!(Temperature == MemoTemperature)) {
      Memo = MemoTables();
      MemoTemperature = Temperature;
    }
    auto [Row, Skip] = M.match(Context, Hashes);
    uint64_t Key = static_cast<uint64_t>(Row) << 32 | Skip;
    uint64_t Hash = Key * HashMul;
    uint32_t T =
        Memo.Index.find(Hash, [&](uint32_t E) { return Memo.Keys[E] == Key; });
    if (T == HashIndex::None) {
      M.fillDistribution(Row, Skip, Dist);
      T = static_cast<uint32_t>(Memo.Tables.size());
      Memo.Tables.push_back(
          appendCumulativeTable(Dist, Temperature, Memo.Sums, Memo.Ids));
      Memo.Keys.push_back(Key);
      Memo.Index.insert(Hash, T);
    }
    return drawFromTable(Memo.Tables[T], Memo.Sums.data(), Memo.Ids.data(),
                         R);
  }

private:
  struct MemoTables {
    HashIndex Index;
    PageVector<uint64_t> Keys; // Row << 32 | depth, per table.
    PageVector<CumulativeTable> Tables;
    PageVector<double> Sums;
    PageVector<uint8_t> Ids;
  };

  const NGramModel &M;
  std::string Context;
  std::vector<uint64_t> Hashes;
  std::vector<double> Dist;
  double MemoTemperature = 0.0;
  MemoTables Memo;
};

std::unique_ptr<TokenSampler> NGramModel::sampler() const {
  return std::make_unique<MemoSampler>(*this);
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

void NGramModel::serialize(store::ArchiveWriter &W) const {
  W.writeI32(Opts.Order);
  W.writeF64(Opts.BackoffAlpha);
  W.writeF64(Opts.UnigramSmoothing);
  Vocab.serialize(W);

  PageVector<uint32_t> Sorted(contextCount());
  std::iota(Sorted.begin(), Sorted.end(), 0u);
  std::sort(Sorted.begin(), Sorted.end(), [&](uint32_t A, uint32_t B) {
    return Counts->context(A) < Counts->context(B);
  });
  W.writeU64(Sorted.size());
  for (uint32_t C : Sorted) {
    W.writeString(Counts->context(C));
    uint32_t Row = Counts->Contexts[C].Row;
    if (Row == CountTable::NoRow) {
      W.writeU32(0);
      continue;
    }
    W.writeU32(static_cast<uint32_t>(Counts->rowEnd(Row) -
                                     Counts->rowBegin(Row)));
    for (const CountEntry *E = Counts->rowBegin(Row); E != Counts->rowEnd(Row);
         ++E) {
      W.writeI32(E->Id);
      W.writeU32(E->Count);
    }
  }
}

NGramModel NGramModel::deserialize(store::ArchiveReader &R) {
  NGramOptions Opts;
  Opts.Order = R.readI32();
  Opts.BackoffAlpha = R.readF64();
  Opts.UnigramSmoothing = R.readF64();
  if (R.ok() && (Opts.Order < 1 || Opts.Order > 256))
    R.fail("n-gram order out of range");

  NGramModel M(Opts);
  M.Vocab = Vocabulary::deserialize(R);
  int VocabSize = static_cast<int>(M.Vocab.size());

  // A repeated context or id merges into one entry, the last count
  // winning. The R.ok() guards stop at the first underrun, so a corrupt
  // count cannot force a huge loop.
  uint64_t ContextCount = R.readU64();
  CountBuilder Builder;
  for (uint64_t I = 0; I < ContextCount && R.ok(); ++I) {
    std::string Ctx = R.readString();
    uint32_t EntryCount = R.readU32();
    uint64_t Hash = HashSeed;
    for (size_t L = Ctx.size(); L > 0; --L)
      Hash = extendLeft(Hash, Ctx[L - 1]);
    uint32_t C = Builder.context(Ctx, Hash);
    for (uint32_t J = 0; J < EntryCount && R.ok(); ++J) {
      int Id = R.readI32();
      uint32_t Count = R.readU32();
      if (Id < 0 || Id >= VocabSize) {
        R.fail("n-gram count entry references a token outside the "
               "vocabulary");
        break;
      }
      Builder.count(C, Id) = Count;
    }
  }
  if (!R.ok())
    return NGramModel();
  M.Counts = Builder.finish();
  M.reset();
  return M;
}
