//===- tests/store/StoreTest.cpp - persistent artifact store tests ------------===//
//
// Round-trip, corruption and integration coverage for src/store/: the
// archive container, model/corpus serialization, the content-addressed
// result cache and the pipeline warm-start path.
//
//===----------------------------------------------------------------------===//

#include "store/Archive.h"
#include "store/ResultCache.h"
#include "store/Serialization.h"

#include "clgen/Pipeline.h"
#include "githubsim/GithubSim.h"
#include "model/LstmModel.h"
#include "model/NGramModel.h"
#include "runtime/HostDriver.h"
#include "support/Rng.h"
#include "vm/Compiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <thread>

#ifndef _WIN32
#include <utime.h>
#endif

using namespace clgen;
using namespace clgen::store;

namespace {

/// Fresh per-test scratch directory, removed on destruction.
class ScratchDir {
public:
  explicit ScratchDir(const std::string &Name)
      : Path(std::filesystem::temp_directory_path() /
             ("clgen_store_test_" + Name)) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~ScratchDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  std::string file(const std::string &Name) const {
    return (Path / Name).string();
  }
  std::string str() const { return Path.string(); }

private:
  std::filesystem::path Path;
};

std::vector<uint8_t> loadBytes(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  EXPECT_TRUE(readFileBytes(Path, Bytes));
  return Bytes;
}

void storeBytes(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

/// Random printable training text so round-trip tests cover fresh model
/// shapes on every seed.
std::string randomText(Rng &R, size_t Length) {
  static const char Alphabet[] =
      "abcdefghijklmnop {}();=*+-<>[]_\n0123456789";
  std::string S;
  S.reserve(Length);
  for (size_t I = 0; I < Length; ++I)
    S.push_back(Alphabet[R.bounded(sizeof(Alphabet) - 1)]);
  return S;
}

/// Drives both models over the same random observe sequence and demands
/// bit-identical next-token distributions at every step.
void expectIdenticalGeneration(model::LanguageModel &A,
                               model::LanguageModel &B, uint64_t Seed) {
  ASSERT_EQ(A.vocabulary().size(), B.vocabulary().size());
  Rng R(Seed);
  A.reset();
  B.reset();
  std::vector<double> DA, DB;
  for (int Step = 0; Step < 64; ++Step) {
    A.nextDistributionInto(DA);
    B.nextDistributionInto(DB);
    ASSERT_EQ(DA, DB) << "distributions diverged at step " << Step;
    int Next = static_cast<int>(R.bounded(A.vocabulary().size()));
    A.observe(Next);
    B.observe(Next);
  }
}

vm::CompiledKernel compileSample(const char *Body) {
  std::string Src = "__kernel void k(__global float* a, const int n) {\n"
                    "  int i = get_global_id(0);\n"
                    "  if (i < n) { " +
                    std::string(Body) +
                    " }\n"
                    "}\n";
  auto K = vm::compileFirstKernel(Src);
  EXPECT_TRUE(K.ok()) << K.errorMessage();
  return K.take();
}

} // namespace

//===----------------------------------------------------------------------===//
// Archive container
//===----------------------------------------------------------------------===//

TEST(ArchiveTest, PrimitiveRoundTrip) {
  ArchiveWriter W(ArchiveKind::Corpus);
  W.writeU8(0xAB);
  W.writeU32(0xDEADBEEF);
  W.writeU64(0x0123456789ABCDEFull);
  W.writeI32(-42);
  W.writeI64(-1234567890123ll);
  W.writeBool(true);
  W.writeF32(3.14159f);
  W.writeF64(-2.718281828459045);
  const std::string Embedded("hello \0 world", 13); // Embedded NUL.
  W.writeString(Embedded);
  W.writeF32Vector({1.0f, -0.0f, 1e-30f});
  W.writeF64Vector({});

  auto Opened = ArchiveReader::fromBytes(W.finalize(), ArchiveKind::Corpus);
  ASSERT_TRUE(Opened.ok()) << Opened.errorMessage();
  ArchiveReader R = Opened.take();
  EXPECT_EQ(R.readU8(), 0xAB);
  EXPECT_EQ(R.readU32(), 0xDEADBEEFu);
  EXPECT_EQ(R.readU64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(R.readI32(), -42);
  EXPECT_EQ(R.readI64(), -1234567890123ll);
  EXPECT_TRUE(R.readBool());
  EXPECT_EQ(R.readF32(), 3.14159f);
  EXPECT_EQ(R.readF64(), -2.718281828459045);
  EXPECT_EQ(R.readString(), Embedded);
  EXPECT_EQ(R.readF32Vector(), (std::vector<float>{1.0f, -0.0f, 1e-30f}));
  EXPECT_TRUE(R.readF64Vector().empty());
  EXPECT_TRUE(R.finish().ok()) << R.finish().errorMessage();
}

TEST(ArchiveTest, WriterIsDeterministic) {
  auto Build = [] {
    ArchiveWriter W(ArchiveKind::Model);
    W.writeString("abc");
    W.writeF64(1.5);
    return W;
  };
  EXPECT_EQ(Build().finalize(), Build().finalize());
  EXPECT_EQ(Build().payloadDigest(), Build().payloadDigest());
}

TEST(ArchiveTest, RejectsWrongMagic) {
  ArchiveWriter W(ArchiveKind::Model);
  W.writeU32(7);
  auto Bytes = W.finalize();
  Bytes[0] ^= 0xFF;
  auto R = ArchiveReader::fromBytes(Bytes, ArchiveKind::Model);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.errorMessage().find("magic"), std::string::npos);
}

TEST(ArchiveTest, RejectsWrongVersion) {
  ArchiveWriter W(ArchiveKind::Model);
  W.writeU32(7);
  auto Bytes = W.finalize();
  Bytes[4] += 1; // Version field.
  auto R = ArchiveReader::fromBytes(Bytes, ArchiveKind::Model);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.errorMessage().find("version"), std::string::npos);
}

TEST(ArchiveTest, RejectsKindMismatch) {
  ArchiveWriter W(ArchiveKind::Model);
  W.writeU32(7);
  auto R = ArchiveReader::fromBytes(W.finalize(), ArchiveKind::Corpus);
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.errorMessage().find("kind"), std::string::npos);
}

TEST(ArchiveTest, RejectsTruncation) {
  ArchiveWriter W(ArchiveKind::Model);
  W.writeString("some payload long enough to truncate");
  auto Bytes = W.finalize();
  // Every possible truncation point must be rejected cleanly.
  for (size_t Keep = 0; Keep < Bytes.size(); ++Keep) {
    std::vector<uint8_t> Cut(Bytes.begin(), Bytes.begin() + Keep);
    auto R = ArchiveReader::fromBytes(Cut, ArchiveKind::Model);
    EXPECT_FALSE(R.ok()) << "truncation to " << Keep << " bytes accepted";
  }
}

TEST(ArchiveTest, RejectsEveryCorruptedPayloadByte) {
  ArchiveWriter W(ArchiveKind::Model);
  W.writeString("checksummed payload");
  auto Bytes = W.finalize();
  for (size_t I = 20; I + 8 < Bytes.size(); ++I) { // Payload bytes only.
    auto Bad = Bytes;
    Bad[I] ^= 0x01;
    auto R = ArchiveReader::fromBytes(Bad, ArchiveKind::Model);
    EXPECT_FALSE(R.ok()) << "corruption at byte " << I << " accepted";
  }
}

TEST(ArchiveTest, ReaderUnderrunFailsLoudly) {
  ArchiveWriter W(ArchiveKind::Model);
  W.writeU32(1);
  auto Opened = ArchiveReader::fromBytes(W.finalize(), ArchiveKind::Model);
  ASSERT_TRUE(Opened.ok());
  ArchiveReader R = Opened.take();
  EXPECT_EQ(R.readU32(), 1u);
  EXPECT_EQ(R.readU64(), 0u); // Past the end: zero + sticky error.
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.finish().ok());
}

TEST(ArchiveTest, CorruptLengthFieldDoesNotAllocate) {
  ArchiveWriter W(ArchiveKind::Model);
  W.writeU64(0x7FFFFFFFFFFFFFFFull); // Absurd vector length, no data.
  auto Opened = ArchiveReader::fromBytes(W.finalize(), ArchiveKind::Model);
  ASSERT_TRUE(Opened.ok());
  ArchiveReader R = Opened.take();
  EXPECT_TRUE(R.readF32Vector().empty());
  EXPECT_FALSE(R.ok());
}

TEST(ArchiveTest, SaveToIsAtomicAndLeavesNoTempFiles) {
  ScratchDir Dir("archive_atomic");
  ArchiveWriter W(ArchiveKind::Corpus);
  W.writeString("payload");
  ASSERT_TRUE(W.saveTo(Dir.file("a.clgs")).ok());
  // Overwrite through the same path: must succeed and stay readable.
  ASSERT_TRUE(W.saveTo(Dir.file("a.clgs")).ok());
  size_t FileCount = 0;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir.str())) {
    (void)Entry;
    ++FileCount;
  }
  EXPECT_EQ(FileCount, 1u) << "temp files left behind";
  auto R = ArchiveReader::open(Dir.file("a.clgs"), ArchiveKind::Corpus);
  EXPECT_TRUE(R.ok()) << R.errorMessage();
}

TEST(ArchiveTest, OpenMissingFileFails) {
  auto R = ArchiveReader::open("/nonexistent/path/x.clgs",
                               ArchiveKind::Model);
  ASSERT_FALSE(R.ok());
}

//===----------------------------------------------------------------------===//
// Model serialization round-trips
//===----------------------------------------------------------------------===//

TEST(SerializationTest, NGramRandomizedRoundTripBitIdentical) {
  Rng Seeds(0xA5C3);
  for (int Round = 0; Round < 4; ++Round) {
    model::NGramOptions Opts;
    Opts.Order = 3 + static_cast<int>(Seeds.bounded(10));
    model::NGramModel M(Opts);
    Rng R(Seeds.next());
    M.train({randomText(R, 400), randomText(R, 200), randomText(R, 50)});

    ScratchDir Dir("ngram_rt_" + std::to_string(Round));
    ASSERT_TRUE(saveModel(Dir.file("m.clgs"), M).ok());
    auto Loaded = loadModel(Dir.file("m.clgs"));
    ASSERT_TRUE(Loaded.ok()) << Loaded.errorMessage();
    EXPECT_STREQ(Loaded.get()->backendName(), "ngram");
    expectIdenticalGeneration(M, *Loaded.get(), Seeds.next());
    EXPECT_EQ(static_cast<model::NGramModel &>(*Loaded.get()).contextCount(),
              M.contextCount());
  }
}

TEST(SerializationTest, LstmRandomizedRoundTripBitIdentical) {
  Rng Seeds(0xB7D1);
  for (int Round = 0; Round < 2; ++Round) {
    model::LstmOptions Opts;
    Opts.Layers = 1 + static_cast<int>(Seeds.bounded(2));
    Opts.HiddenSize = 8 + static_cast<int>(Seeds.bounded(9));
    Opts.Epochs = 1;
    Opts.Seed = Seeds.next();
    model::LstmModel M(Opts);
    Rng R(Seeds.next());
    M.train({randomText(R, 300)});

    ScratchDir Dir("lstm_rt_" + std::to_string(Round));
    ASSERT_TRUE(saveModel(Dir.file("m.clgs"), M).ok());
    auto Loaded = loadModel(Dir.file("m.clgs"));
    ASSERT_TRUE(Loaded.ok()) << Loaded.errorMessage();
    EXPECT_STREQ(Loaded.get()->backendName(), "lstm");
    EXPECT_EQ(static_cast<model::LstmModel &>(*Loaded.get()).parameterCount(),
              M.parameterCount());
    expectIdenticalGeneration(M, *Loaded.get(), Seeds.next());
  }
}

TEST(SerializationTest, EqualNGramModelsSerializeByteIdentically) {
  auto Train = [] {
    model::NGramModel M;
    M.train({"__kernel void f() { int x = 0; }", "float g;"});
    return M;
  };
  ArchiveWriter WA(ArchiveKind::Model), WB(ArchiveKind::Model);
  Train().serialize(WA);
  Train().serialize(WB);
  EXPECT_EQ(WA.finalize(), WB.finalize());
}

TEST(SerializationTest, ModelArchiveCorruptionFailsLoudly) {
  model::NGramModel M;
  M.train({"abcabcabc"});
  ScratchDir Dir("model_corrupt");
  ASSERT_TRUE(saveModel(Dir.file("m.clgs"), M).ok());

  auto Bytes = loadBytes(Dir.file("m.clgs"));
  // Truncate mid-payload.
  std::vector<uint8_t> Cut(Bytes.begin(),
                           Bytes.begin() + Bytes.size() / 2);
  storeBytes(Dir.file("cut.clgs"), Cut);
  EXPECT_FALSE(loadModel(Dir.file("cut.clgs")).ok());

  // Flip one payload byte (caught by the checksum).
  auto Bad = Bytes;
  Bad[24] ^= 0x40;
  storeBytes(Dir.file("bad.clgs"), Bad);
  EXPECT_FALSE(loadModel(Dir.file("bad.clgs")).ok());
}

TEST(SerializationTest, ModelArchiveRejectsUnknownBackendTag) {
  ArchiveWriter W(ArchiveKind::Model);
  W.writeString("transformer");
  ScratchDir Dir("model_tag");
  ASSERT_TRUE(W.saveTo(Dir.file("m.clgs")).ok());
  auto R = loadModel(Dir.file("m.clgs"));
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.errorMessage().find("backend"), std::string::npos);
}

TEST(SerializationTest, CorpusSnapshotRoundTrip) {
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = 30;
  corpus::Corpus C = corpus::buildCorpus(githubsim::mineGithub(GOpts));
  ASSERT_FALSE(C.Entries.empty());

  ScratchDir Dir("corpus_rt");
  ASSERT_TRUE(saveCorpus(Dir.file("c.clgs"), C).ok());
  auto Loaded = loadCorpus(Dir.file("c.clgs"));
  ASSERT_TRUE(Loaded.ok()) << Loaded.errorMessage();
  EXPECT_EQ(Loaded.get().Entries, C.Entries);
  EXPECT_EQ(Loaded.get().Stats.FilesIn, C.Stats.FilesIn);
  EXPECT_EQ(Loaded.get().Stats.KernelCount, C.Stats.KernelCount);
  EXPECT_EQ(Loaded.get().Stats.VocabularyAfter, C.Stats.VocabularyAfter);
  EXPECT_EQ(Loaded.get().allText(), C.allText());
}

TEST(SerializationTest, CompiledKernelRoundTripIsExact) {
  // A kernel exercising vectors, local memory, branches and barriers so
  // every serialized table is non-trivial.
  const char *Src =
      "__kernel void rt(__global float4* a, __local float* tmp,\n"
      "                 const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  int l = get_local_id(0);\n"
      "  tmp[l] = a[i].x + a[i].w;\n"
      "  barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  if (i < n) { a[i] = a[i] * (float4)(tmp[l], 1.0f, 2.0f, 3.0f); }\n"
      "}\n";
  auto Compiled = vm::compileFirstKernel(Src);
  ASSERT_TRUE(Compiled.ok()) << Compiled.errorMessage();
  const vm::CompiledKernel &K = Compiled.get();

  ArchiveWriter W(ArchiveKind::Synthesis);
  serializeCompiledKernel(W, K);
  auto Opened = ArchiveReader::fromBytes(W.finalize(),
                                         ArchiveKind::Synthesis);
  ASSERT_TRUE(Opened.ok());
  ArchiveReader R = Opened.take();
  vm::CompiledKernel Back = deserializeCompiledKernel(R);
  ASSERT_TRUE(R.finish().ok()) << R.finish().errorMessage();

  EXPECT_TRUE(vm::verifyKernel(Back).empty()) << vm::verifyKernel(Back);
  // Disassembly covers code/consts/params/tables; compare the rest
  // field-wise.
  EXPECT_EQ(vm::disassemble(Back), vm::disassemble(K));
  EXPECT_EQ(Back.RegisterCount, K.RegisterCount);
  EXPECT_EQ(Back.BranchSites, K.BranchSites);
  EXPECT_EQ(Back.HasBarrier, K.HasBarrier);
  EXPECT_EQ(Back.AccessSites.size(), K.AccessSites.size());
  EXPECT_EQ(Back.LocalBuffers.size(), K.LocalBuffers.size());

  // And the round-tripped kernel must measure identically.
  runtime::DriverOptions Opts;
  Opts.GlobalSize = 256;
  auto P = runtime::amdPlatform();
  auto MA = runtime::runBenchmark(K, P, Opts);
  auto MB = runtime::runBenchmark(Back, P, Opts);
  ASSERT_TRUE(MA.ok()) << MA.errorMessage();
  ASSERT_TRUE(MB.ok()) << MB.errorMessage();
  EXPECT_EQ(MA.get().Counters.Instructions, MB.get().Counters.Instructions);
  EXPECT_EQ(MA.get().CpuTime, MB.get().CpuTime);
  EXPECT_EQ(store::measurementKey(K, Opts, P),
            store::measurementKey(Back, Opts, P));
}

TEST(SynthesizeOrLoadTest, WarmSynthesisIsBitIdentical) {
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = 40;
  auto Files = githubsim::mineGithub(GOpts);
  core::PipelineOptions POpts;
  POpts.NGram.Order = 8;
  auto Pipeline = core::ClgenPipeline::train(Files, POpts);

  core::SynthesisOptions SOpts;
  SOpts.TargetKernels = 4;
  SOpts.MaxAttempts = 2000;

  ScratchDir Dir("synth_cache");
  bool ColdLoaded = true, WarmLoaded = false;
  auto Cold = Pipeline.synthesizeOrLoad(Dir.str(), SOpts, &ColdLoaded);
  EXPECT_FALSE(ColdLoaded);
  auto Warm = Pipeline.synthesizeOrLoad(Dir.str(), SOpts, &WarmLoaded);
  EXPECT_TRUE(WarmLoaded);
  auto Plain = Pipeline.synthesize(SOpts);

  ASSERT_EQ(Warm.Kernels.size(), Plain.Kernels.size());
  ASSERT_EQ(Cold.Kernels.size(), Plain.Kernels.size());
  EXPECT_EQ(Warm.Stats.Attempts, Plain.Stats.Attempts);
  EXPECT_EQ(Warm.Stats.Accepted, Plain.Stats.Accepted);
  for (size_t I = 0; I < Plain.Kernels.size(); ++I) {
    EXPECT_EQ(Warm.Kernels[I].Source, Plain.Kernels[I].Source);
    EXPECT_EQ(vm::disassemble(Warm.Kernels[I].Kernel),
              vm::disassemble(Plain.Kernels[I].Kernel));
  }

  // A different seed must key separately (no false hit).
  core::SynthesisOptions Other = SOpts;
  Other.Seed += 1;
  bool OtherLoaded = true;
  (void)Pipeline.synthesizeOrLoad(Dir.str(), Other, &OtherLoaded);
  EXPECT_FALSE(OtherLoaded);

  // Worker count is not part of the key: the engine's bit-identical
  // contract makes a serial run and a 4-worker run the same artifact.
  core::SynthesisOptions Parallel = SOpts;
  Parallel.Workers = 4;
  bool ParallelLoaded = false;
  (void)Pipeline.synthesizeOrLoad(Dir.str(), Parallel, &ParallelLoaded);
  EXPECT_TRUE(ParallelLoaded);
}

//===----------------------------------------------------------------------===//
// ResultCache
//===----------------------------------------------------------------------===//

TEST(ResultCacheTest, KeySensitivity) {
  auto K1 = compileSample("a[i] = a[i] * 2.0f;");
  auto K2 = compileSample("a[i] = a[i] + 2.0f;");
  runtime::DriverOptions Opts;
  auto P = runtime::amdPlatform();

  uint64_t Base = measurementKey(K1, Opts, P);
  EXPECT_EQ(Base, measurementKey(K1, Opts, P)) << "key not deterministic";
  EXPECT_NE(Base, measurementKey(K2, Opts, P)) << "kernel not in key";

  runtime::DriverOptions Opts2 = Opts;
  Opts2.GlobalSize *= 2;
  EXPECT_NE(Base, measurementKey(K1, Opts2, P)) << "payload size not in key";
  runtime::DriverOptions Opts3 = Opts;
  Opts3.Seed += 1;
  EXPECT_NE(Base, measurementKey(K1, Opts3, P)) << "seed not in key";
  EXPECT_NE(Base, measurementKey(K1, Opts, runtime::nvidiaPlatform()))
      << "device config not in key";

  // Source-keyed and bytecode-keyed spaces never collide structurally.
  EXPECT_NE(measurementKey(std::string("src"), Opts, P),
            measurementKey(compileSample("a[i] = 1.0f;"), Opts, P));
}

TEST(ResultCacheTest, StoreLookupRoundTripAcrossInstances) {
  ScratchDir Dir("cache_rt");
  auto K = compileSample("a[i] = a[i] * 3.0f;");
  runtime::DriverOptions Opts;
  Opts.GlobalSize = 512;
  auto P = runtime::amdPlatform();
  auto Fresh = runtime::runBenchmark(K, P, Opts);
  ASSERT_TRUE(Fresh.ok());
  uint64_t Key = measurementKey(K, Opts, P);

  {
    ResultCache Cache(Dir.str());
    EXPECT_FALSE(Cache.lookup(Key).has_value());
    ASSERT_TRUE(Cache.store(Key, Fresh.get()).ok());
    auto Hit = Cache.lookup(Key);
    ASSERT_TRUE(Hit.has_value());
    EXPECT_EQ(Hit->CpuTime, Fresh.get().CpuTime);
    auto S = Cache.stats();
    EXPECT_EQ(S.Hits, 1u);
    EXPECT_EQ(S.Misses, 1u);
    EXPECT_EQ(S.Writes, 1u);
  }

  // A new instance over the same directory reads the persisted entry:
  // the cache is durable, not just process-local.
  ResultCache Reopened(Dir.str());
  auto Hit = Reopened.lookup(Key);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->CpuTime, Fresh.get().CpuTime);
  EXPECT_EQ(Hit->GpuTime, Fresh.get().GpuTime);
  EXPECT_EQ(Hit->Counters.Instructions, Fresh.get().Counters.Instructions);
  EXPECT_EQ(Hit->Transfer.BytesIn, Fresh.get().Transfer.BytesIn);
  EXPECT_EQ(Reopened.stats().MemoryHits, 0u);
}

TEST(ResultCacheTest, CorruptEntryIsAMissNotACrash) {
  ScratchDir Dir("cache_corrupt");
  ResultCache Cache(Dir.str());
  auto K = compileSample("a[i] = -a[i];");
  runtime::DriverOptions Opts;
  auto P = runtime::amdPlatform();
  auto Fresh = runtime::runBenchmark(K, P, Opts);
  ASSERT_TRUE(Fresh.ok());
  uint64_t Key = measurementKey(K, Opts, P);
  ASSERT_TRUE(Cache.store(Key, Fresh.get()).ok());

  // Corrupt the entry on disk; a fresh instance must treat it as a miss.
  std::string Entry = Dir.str() + "/" + hexDigest(Key) + ".clgs";
  auto Bytes = loadBytes(Entry);
  Bytes[Bytes.size() / 2] ^= 0xFF;
  storeBytes(Entry, Bytes);
  ResultCache Reopened(Dir.str());
  EXPECT_FALSE(Reopened.lookup(Key).has_value());
  EXPECT_EQ(Reopened.stats().BadEntries, 1u);
}

#ifndef _WIN32
TEST(ResultCacheTest, CoarseMtimeRewriteIsCaughtByTrailerChecksum) {
  // Regression: on a filesystem with 1 s mtime granularity, a same-size
  // rewrite of an entry within the same second is invisible to the
  // (mtime, size) revalidation probe, and a long-lived process would
  // serve the pre-rewrite measurement forever. The fix records the
  // archive's trailer checksum whenever the backing mtime is
  // whole-second and re-reads those 8 bytes on every memory hit.
  ScratchDir Dir("cache_coarse");
  const uint64_t Key = 0xC0A53E;
  runtime::Measurement M1;
  M1.CpuTime = 1.5;
  M1.GpuTime = 0.5;
  runtime::Measurement M2 = M1;
  M2.CpuTime = 99.0; // Different bytes, identical serialized size
                     // (the measurement payload is fixed-width).

  std::string Entry;
  {
    ResultCache Writer(Dir.str());
    ASSERT_TRUE(Writer.store(Key, M1).ok());
    Entry = Dir.str() + "/" + hexDigest(Key) + ".clgs";
  }
  // Pin a whole-second mtime — exactly what a coarse filesystem
  // produces — so the victim's resident entry takes the hardened path.
  struct utimbuf Stamp;
  Stamp.actime = Stamp.modtime = 1700000000;
  ASSERT_EQ(::utime(Entry.c_str(), &Stamp), 0);

  ResultCache Victim(Dir.str());
  auto First = Victim.lookup(Key); // Disk probe installs the resident.
  ASSERT_TRUE(First.has_value());
  EXPECT_EQ(First->CpuTime, M1.CpuTime);
  auto Second = Victim.lookup(Key); // Memory hit, checksum verified.
  ASSERT_TRUE(Second.has_value());
  EXPECT_EQ(Victim.stats().MemoryHits, 1u);
  EXPECT_EQ(Victim.stats().StaleMemoryEntries, 0u);

  // The hostile rewrite: another process replaces the entry with a
  // different measurement of the SAME size, and the mtime lands on the
  // SAME second. (The stat probe alone cannot see this.)
  {
    ResultCache Rewriter(Dir.str());
    ASSERT_TRUE(Rewriter.store(Key, M2).ok());
  }
  uint64_t SizeAfter = std::filesystem::file_size(Entry);
  ASSERT_EQ(::utime(Entry.c_str(), &Stamp), 0);

  auto Third = Victim.lookup(Key);
  ASSERT_TRUE(Third.has_value());
  EXPECT_EQ(Third->CpuTime, M2.CpuTime)
      << "stale pre-rewrite measurement served (size "
      << SizeAfter << ")";
  EXPECT_EQ(Victim.stats().StaleMemoryEntries, 1u)
      << "the rewrite was not detected as staleness";

  // And the freshly installed resident serves memory hits again.
  auto Fourth = Victim.lookup(Key);
  ASSERT_TRUE(Fourth.has_value());
  EXPECT_EQ(Fourth->CpuTime, M2.CpuTime);
}
#endif // !_WIN32

TEST(ResultCacheTest, ConcurrentHitsAreConsistentAndAllCounted) {
  // The in-process map is probed concurrently by the enqueue-time
  // probes of streaming runs that share one cache (the daemon's
  // concurrent flights) while their consumers write back; under the
  // shared_mutex guard every concurrent hit must see a
  // complete entry and every lookup must be tallied. Run against a
  // fresh instance too, so first-touch disk loads (map inserts) race
  // with resident-entry reads.
  ScratchDir Dir("cache_concurrent");
  constexpr size_t KeyCount = 16;
  constexpr size_t ThreadCount = 8;
  constexpr size_t Rounds = 50;

  std::vector<uint64_t> Keys(KeyCount);
  {
    ResultCache Writer(Dir.str());
    for (size_t I = 0; I < KeyCount; ++I) {
      runtime::Measurement M;
      // Distinctive payload per key: a torn or mixed-up entry cannot
      // pass the checks below.
      M.CpuTime = 1.0 + static_cast<double>(I);
      M.GpuTime = 100.0 + static_cast<double>(I);
      M.Counters.Instructions = 1000 + I;
      Keys[I] = 0x1234560000ull + I;
      ASSERT_TRUE(Writer.store(Keys[I], M).ok());
    }
  }

  ResultCache Cache(Dir.str()); // Cold map: loads race with hits.
  std::atomic<size_t> Mismatches{0};
  std::vector<std::thread> Threads;
  for (size_t T = 0; T < ThreadCount; ++T)
    Threads.emplace_back([&, T] {
      for (size_t Round = 0; Round < Rounds; ++Round)
        for (size_t I = 0; I < KeyCount; ++I) {
          size_t K = (I + T) % KeyCount; // Spread first touches around.
          auto M = Cache.lookup(Keys[K]);
          if (!M || M->CpuTime != 1.0 + static_cast<double>(K) ||
              M->Counters.Instructions != 1000 + K)
            Mismatches.fetch_add(1);
        }
    });
  for (auto &T : Threads)
    T.join();

  EXPECT_EQ(Mismatches.load(), 0u);
  auto Stats = Cache.stats();
  EXPECT_EQ(Stats.Hits, ThreadCount * Rounds * KeyCount)
      << "every concurrent lookup must be counted as a hit";
  EXPECT_EQ(Stats.Misses, 0u);
  EXPECT_GE(Stats.MemoryHits, Stats.Hits - ThreadCount * KeyCount)
      << "after first touch, hits must be served from memory";
}

TEST(ResultCacheTest, MeasurementPayloadRoundTripsBitExactly) {
  runtime::Measurement M;
  M.CpuTime = 1.25e-3;
  M.GpuTime = 7.5e-4;
  M.Counters.Instructions = 123456789;
  M.Counters.Divergence = 0.375;
  M.Transfer.BytesIn = 4096;
  M.Transfer.BytesOut = 64;
  M.GlobalSize = 65536;
  M.LocalSize = 64;
  ArchiveWriter W(ArchiveKind::Measurement);
  serializeMeasurement(W, M);
  auto Opened = ArchiveReader::fromBytes(W.finalize(),
                                         ArchiveKind::Measurement);
  ASSERT_TRUE(Opened.ok());
  ArchiveReader R = Opened.take();
  runtime::Measurement Back = deserializeMeasurement(R);
  ASSERT_TRUE(R.finish().ok());
  EXPECT_EQ(Back.CpuTime, M.CpuTime);
  EXPECT_EQ(Back.GpuTime, M.GpuTime);
  EXPECT_EQ(Back.Counters.Instructions, M.Counters.Instructions);
  EXPECT_EQ(Back.Counters.Divergence, M.Counters.Divergence);
  EXPECT_EQ(Back.Transfer.BytesIn, M.Transfer.BytesIn);
  EXPECT_EQ(Back.GlobalSize, M.GlobalSize);
  EXPECT_EQ(Back.LocalSize, M.LocalSize);
}

//===----------------------------------------------------------------------===//
// Pipeline warm start
//===----------------------------------------------------------------------===//

TEST(TrainOrLoadTest, WarmStartIsBitIdenticalToColdTraining) {
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = 40;
  auto Files = githubsim::mineGithub(GOpts);
  core::PipelineOptions POpts;
  POpts.NGram.Order = 8;

  ScratchDir Dir("warm_start");
  core::TrainOrLoadInfo Cold, Warm;
  auto First = core::ClgenPipeline::trainOrLoad(Dir.str(), Files, POpts,
                                                &Cold);
  ASSERT_TRUE(First.ok()) << First.errorMessage();
  EXPECT_FALSE(Cold.LoadedModel);
  auto Second = core::ClgenPipeline::trainOrLoad(Dir.str(), Files, POpts,
                                                 &Warm);
  ASSERT_TRUE(Second.ok()) << Second.errorMessage();
  EXPECT_TRUE(Warm.LoadedModel);
  EXPECT_TRUE(Warm.LoadedCorpus);
  EXPECT_EQ(Warm.Fingerprint, Cold.Fingerprint);

  EXPECT_EQ(Second.get().corpus().Entries, First.get().corpus().Entries);

  core::SynthesisOptions SOpts;
  SOpts.TargetKernels = 4;
  SOpts.MaxAttempts = 2000;
  auto FromCold = First.get().synthesize(SOpts);
  auto FromWarm = Second.get().synthesize(SOpts);
  ASSERT_EQ(FromCold.Kernels.size(), FromWarm.Kernels.size());
  for (size_t I = 0; I < FromCold.Kernels.size(); ++I)
    EXPECT_EQ(FromCold.Kernels[I].Source, FromWarm.Kernels[I].Source);
  EXPECT_EQ(FromCold.Stats.Attempts, FromWarm.Stats.Attempts);
}

TEST(TrainOrLoadTest, FingerprintSeparatesConfigurations) {
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = 10;
  auto Files = githubsim::mineGithub(GOpts);
  core::PipelineOptions A, B, C;
  B.NGram.Order = A.NGram.Order + 1;
  C.Backend = core::ModelBackend::Lstm;
  EXPECT_NE(core::ClgenPipeline::fingerprint(Files, A),
            core::ClgenPipeline::fingerprint(Files, B));
  EXPECT_NE(core::ClgenPipeline::fingerprint(Files, A),
            core::ClgenPipeline::fingerprint(Files, C));
  auto Fewer = Files;
  Fewer.pop_back();
  EXPECT_NE(core::ClgenPipeline::fingerprint(Files, A),
            core::ClgenPipeline::fingerprint(Fewer, A));
}

TEST(TrainOrLoadTest, CorruptStoredModelRetrainsInsteadOfFailing) {
  githubsim::GithubSimOptions GOpts;
  GOpts.FileCount = 15;
  auto Files = githubsim::mineGithub(GOpts);
  core::PipelineOptions POpts;

  ScratchDir Dir("warm_corrupt");
  core::TrainOrLoadInfo Info;
  ASSERT_TRUE(core::ClgenPipeline::trainOrLoad(Dir.str(), Files, POpts,
                                               &Info)
                  .ok());
  auto Bytes = loadBytes(Info.ModelPath);
  Bytes.back() ^= 0xFF;
  storeBytes(Info.ModelPath, Bytes);

  auto Again = core::ClgenPipeline::trainOrLoad(Dir.str(), Files, POpts,
                                                &Info);
  ASSERT_TRUE(Again.ok()) << Again.errorMessage();
  EXPECT_FALSE(Info.LoadedModel) << "corrupt artifact was trusted";
  // The retrain must have healed the stored artifact.
  core::TrainOrLoadInfo Healed;
  ASSERT_TRUE(core::ClgenPipeline::trainOrLoad(Dir.str(), Files, POpts,
                                               &Healed)
                  .ok());
  EXPECT_TRUE(Healed.LoadedModel);
}
