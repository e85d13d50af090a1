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
// (nextDistributionInto) and the automaton sampler share one context
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

/// The hash of a whole context, as CountTable::match computes it.
uint64_t hashContext(std::string_view Ctx) {
  uint64_t H = HashSeed;
  for (size_t L = Ctx.size(); L > 0; --L)
    H = extendLeft(H, Ctx[L - 1]);
  return H;
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
  static constexpr uint32_t NoContext = HashIndex::None;

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

  /// The longest suffix of \p Full with a non-empty row, as (context,
  /// levels skipped before it); (NoContext, 0) when there is none. This
  /// is the backoff walk: longest context first, every suffix hashed in
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
      if (C != NoContext && Contexts[C].Row != NoRow)
        return {C, Skip};
    }
    return {NoContext, 0};
  }

  /// Whether every context with a row has its one-shorter prefix with a
  /// row too. Then the longest suffix with a row grows by at most one
  /// character per token, which the sampler's automaton relies on.
  bool prefixClosed() const {
    for (uint32_t C = 0; C < Contexts.size(); ++C) {
      std::string_view Ctx = context(C);
      if (Ctx.empty() || Contexts[C].Row == NoRow)
        continue;
      std::string_view Prefix = Ctx.substr(0, Ctx.size() - 1);
      uint32_t P = find(Prefix, hashContext(Prefix));
      if (P == NoContext || Contexts[P].Row == NoRow)
        return false;
    }
    return true;
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

void NGramModel::observe(int TokenId) {
  Context.push_back(Vocab.charOf(TokenId));
  if (Context.size() > windowLength())
    Context.erase(0, Context.size() - windowLength());
}

std::vector<double> NGramModel::nextDistribution() {
  std::vector<double> Dist;
  nextDistributionInto(Dist);
  return Dist;
}

void NGramModel::nextDistributionInto(std::vector<double> &Dist) {
  auto [C, Skip] = match(Context, Hashes);
  fillDistribution(rowOf(C), Skip, Dist);
}

size_t NGramModel::windowLength() const {
  return static_cast<size_t>(Opts.Order - 1);
}

std::pair<uint32_t, size_t>
NGramModel::match(std::string_view Window,
                  std::vector<uint64_t> &Scratch) const {
  if (!Counts)
    return {CountTable::NoContext, 0};
  return Counts->match(Window, Scratch);
}

uint32_t NGramModel::rowOf(uint32_t C) const {
  return C == CountTable::NoContext ? CountTable::NoRow
                                    : Counts->Contexts[C].Row;
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
// AutomatonSampler
//===----------------------------------------------------------------------===//

/// Samples through a lazily built automaton over (matched context,
/// window length) nodes. The dense path depends on the window only
/// through them: the backoff match is the matched context, and the
/// backoff depth is the window length minus its length. Because the
/// count table is prefix-closed, the match grows by at most one
/// character per token, so the next node's match is the longest suffix
/// of (matched context + token) that fits the window and has a row.
/// Each node memoizes the cumulative table drawToken would walk,
/// interned per (row, depth) at the current temperature, and its
/// successor for the token of the table's widest slot; every other
/// successor sits in a (node, character) map. Everything memoized is a
/// pure function of (node, temperature) over the immutable model, so
/// the sampler picks exactly the tokens the dense path picks.
class NGramModel::AutomatonSampler final : public TokenSampler {
public:
  explicit AutomatonSampler(const NGramModel &M) : M(M) { restart(0.0); }

  const Vocabulary &vocabulary() const override { return M.Vocab; }
  void reset() override { Cur = Start; }

  void observe(int TokenId) override {
    Node &N = Memo.Nodes[Cur];
    if (TokenId != N.WidestToken) {
      Cur = edge(Cur, M.Vocab.charOf(TokenId));
      return;
    }
    if (N.WidestNext == None) {
      uint32_t Next = step(Cur, M.Vocab.charOf(TokenId));
      Memo.Nodes[Cur].WidestNext = Next;
    }
    Cur = Memo.Nodes[Cur].WidestNext;
  }

  int draw(double Temperature, Rng &R) override {
    if (!(Temperature == MemoTemperature))
      restart(Temperature);
    uint32_t T = Memo.Nodes[Cur].Table;
    if (T == None)
      T = table(Cur);
    return drawFromTable(Memo.Tables[T], Memo.Sums.data(), Memo.Ids.data(),
                         R);
  }

private:
  static constexpr uint32_t None = HashIndex::None;

  /// Numbers distinct 64-bit keys 0, 1, 2, ... in insertion order.
  class KeyIndex {
  public:
    uint32_t find(uint64_t Key) const {
      return Index.find(Key * HashMul,
                        [&](uint32_t E) { return Keys[E] == Key; });
    }
    /// Numbers \p Key, which the caller checked is absent.
    uint32_t add(uint64_t Key) {
      uint32_t E = static_cast<uint32_t>(Keys.size());
      Keys.push_back(Key);
      Index.insert(Key * HashMul, E);
      return E;
    }

  private:
    HashIndex Index;
    PageVector<uint64_t> Keys;
  };

  struct Node {
    uint32_t Context; // Longest window suffix with a row, or NoContext.
    uint32_t Length;  // Window length.
    uint32_t Table = None;
    int WidestToken = -1; // Token of Table's widest slot, once drawn.
    uint32_t WidestNext = None;
  };

  struct MemoState {
    KeyIndex NodeKeys; // Context << 32 | window length, per node.
    PageVector<Node> Nodes;
    KeyIndex EdgeKeys; // Node << 8 | character, per edge.
    PageVector<uint32_t> EdgeTargets;
    KeyIndex TableKeys; // Row << 32 | depth, per table.
    PageVector<CumulativeTable> Tables;
    PageVector<double> Sums;
    PageVector<uint8_t> Ids;
  };

  const NGramModel &M;
  double MemoTemperature = 0.0;
  MemoState Memo;
  uint32_t Start = None;
  uint32_t Cur = None;
  std::string Window;
  std::vector<uint64_t> Hashes;
  std::vector<double> Dist;

  /// Starts a fresh memo for \p Temperature, keeping the current state.
  void restart(double Temperature) {
    uint32_t Context = CountTable::NoContext;
    size_t Length = 0;
    if (Cur != None) {
      Context = Memo.Nodes[Cur].Context;
      Length = Memo.Nodes[Cur].Length;
    }
    Memo = MemoState();
    MemoTemperature = Temperature;
    Start = node(M.match(std::string_view(), Hashes).first, 0);
    Cur = Cur == None ? Start : node(Context, Length);
  }

  uint32_t node(uint32_t Context, size_t Length) {
    uint64_t Key = static_cast<uint64_t>(Context) << 32 | Length;
    uint32_t N = Memo.NodeKeys.find(Key);
    if (N == None) {
      N = Memo.NodeKeys.add(Key);
      Memo.Nodes.push_back({Context, static_cast<uint32_t>(Length)});
    }
    return N;
  }

  /// The successor of \p From on \p Ch: its match is found among the
  /// suffixes of (matched context + Ch) only.
  uint32_t step(uint32_t From, char Ch) {
    const Node &N = Memo.Nodes[From];
    size_t Length = std::min<size_t>(N.Length + 1, M.windowLength());
    Window.clear();
    if (N.Context != CountTable::NoContext)
      Window = M.Counts->context(N.Context);
    Window.push_back(Ch);
    std::string_view Tail(Window);
    Tail.remove_prefix(Tail.size() - std::min(Tail.size(), Length));
    return node(M.match(Tail, Hashes).first, Length);
  }

  uint32_t edge(uint32_t From, char Ch) {
    uint64_t Key = static_cast<uint64_t>(From) << 8 |
                   static_cast<unsigned char>(Ch);
    uint32_t E = Memo.EdgeKeys.find(Key);
    if (E != None)
      return Memo.EdgeTargets[E];
    uint32_t Next = step(From, Ch);
    Memo.EdgeKeys.add(Key);
    Memo.EdgeTargets.push_back(Next);
    return Next;
  }

  /// Memoizes node \p N's table, building it on first use.
  uint32_t table(uint32_t N) {
    uint32_t Context = Memo.Nodes[N].Context;
    uint32_t Row = M.rowOf(Context);
    size_t Skip = Row == CountTable::NoRow
                      ? 0
                      : Memo.Nodes[N].Length -
                            M.Counts->context(Context).size();
    uint64_t Key = static_cast<uint64_t>(Row) << 32 | Skip;
    uint32_t T = Memo.TableKeys.find(Key);
    if (T == None) {
      M.fillDistribution(Row, Skip, Dist);
      T = Memo.TableKeys.add(Key);
      Memo.Tables.push_back(
          appendCumulativeTable(Dist, MemoTemperature, Memo.Sums, Memo.Ids));
    }
    const CumulativeTable &Table = Memo.Tables[T];
    Node &Nd = Memo.Nodes[N];
    Nd.Table = T;
    if (Table.Size != 0)
      Nd.WidestToken = Memo.Ids[Table.Offset + Table.Widest];
    return T;
  }
};

std::unique_ptr<TokenSampler> NGramModel::sampler() const {
  return std::make_unique<AutomatonSampler>(*this);
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
    uint32_t C = Builder.context(Ctx, hashContext(Ctx));
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
  // train() yields prefix-closed tables by construction; a hand-made
  // archive that is not would make the sampler's automaton diverge
  // from the dense path.
  if (!M.Counts->prefixClosed()) {
    R.fail("n-gram contexts are not prefix-closed");
    return NGramModel();
  }
  M.reset();
  return M;
}
