//===- perfbench/harness/Harness.cpp - Benchmark harness plumbing ---------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/Rng.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

#include <sched.h>
#include <sys/resource.h>

using namespace clgen;

namespace perfbench {

void Report::add(std::string Name, std::string Unit, double Value,
                 size_t Samples, bool Contract, std::string Note) {
  Metrics.push_back({std::move(Name), std::move(Unit), Value, Samples,
                     Contract, std::move(Note)});
}

void Report::fail(const std::string &Why) {
  ++Failed;
  std::fprintf(stderr, "perfbench: FAILED operation: %s\n", Why.c_str());
}

double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

double sum(const std::vector<double> &V) {
  double S = 0.0;
  for (double X : V)
    S += X;
  return S;
}

void addTail(Report &R, const std::string &Name,
             const std::vector<double> &Ms) {
  if (Ms.size() < 11)
    return;
  size_t N = Ms.size();
  size_t Pct = (N - 10) * 100 / N;
  char Note[64];
  std::snprintf(Note, sizeof(Note), "p%zu, at least 10 samples beyond it",
                Pct);
  R.add(Name, "ms", percentile(Ms, static_cast<double>(Pct) / 100.0), N,
        false, Note);
}

double processCpuMs() {
  timespec T;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &T);
  return static_cast<double>(T.tv_sec) * 1e3 +
         static_cast<double>(T.tv_nsec) / 1e6;
}

double cpuSeconds(const struct rusage &U) {
  auto Seconds = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) +
           static_cast<double>(T.tv_usec) / 1e6;
  };
  return Seconds(U.ru_utime) + Seconds(U.ru_stime);
}

double selfPeakRssMb() {
  struct rusage U;
  std::memset(&U, 0, sizeof(U));
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

unsigned availableCpus() {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof(Set), &Set) != 0)
    return 1;
  int N = CPU_COUNT(&Set);
  return N > 0 ? static_cast<unsigned>(N) : 1;
}

core::PipelineOptions synthPipelineOptions() {
  core::PipelineOptions P;
  P.NGram.Order = SynthNGramOrder;
  return P;
}

core::StreamingOptions synthStreamingOptions(uint64_t BatchSeed,
                                             const RunConfig &Cfg) {
  core::StreamingOptions S;
  S.Synthesis.TargetKernels = SynthBatchKernels;
  S.Synthesis.Sampling.Temperature = 0.5;
  S.Synthesis.Seed = BatchSeed;
  S.Synthesis.Workers = Cfg.SynthWorkers;
  S.Driver.GlobalSize = 16384;
  S.MeasureWorkers = Cfg.MeasureWorkers;
  return S;
}

core::StreamingOptions serveStreamingOptions(uint64_t RequestSeed) {
  // Mirrors Server::runFlight: serial synthesis, default driver seed.
  core::StreamingOptions S;
  S.Synthesis.TargetKernels = ServeRequestKernels;
  S.Synthesis.Sampling.Temperature = 0.5;
  S.Synthesis.Seed = RequestSeed;
  S.Synthesis.Workers = 1;
  S.Driver.GlobalSize = 16384;
  S.MeasureWorkers = 1;
  return S;
}

void OutputDigest::addKernel(const std::string &Source, bool Ok,
                             double CpuTime, double GpuTime,
                             const std::string &Error) {
  auto Bytes = [this](const void *Data, size_t Size) {
    H = store::fnv1a64(Data, Size, H);
  };
  uint64_t Len = Source.size();
  Bytes(&Len, sizeof(Len));
  Bytes(Source.data(), Source.size());
  unsigned char Verdict = Ok ? 1 : 0;
  Bytes(&Verdict, 1);
  if (Ok) {
    Bytes(&CpuTime, sizeof(CpuTime));
    Bytes(&GpuTime, sizeof(GpuTime));
  } else {
    Len = Error.size();
    Bytes(&Len, sizeof(Len));
    Bytes(Error.data(), Error.size());
  }
}

uint64_t digestStreaming(const core::StreamingResult &R) {
  OutputDigest D;
  for (size_t I = 0; I < R.Kernels.size(); ++I) {
    const Result<runtime::Measurement> &M = R.Measurements[I];
    D.addKernel(R.Kernels[I].Source, M.ok(), M.ok() ? M.get().CpuTime : 0.0,
                M.ok() ? M.get().GpuTime : 0.0,
                M.ok() ? std::string() : M.errorMessage());
  }
  return D.value();
}

uint64_t poolSeed(size_t K) { return 0xC17E9ull + K; }

std::vector<SeedReference> loadReferences(const std::string &Path) {
  std::vector<SeedReference> Out;
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "perfbench: cannot read references %s\n",
                 Path.c_str());
    return Out;
  }
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream L(Line);
    size_t Index = 0;
    SeedReference R;
    std::string Batch, Serve;
    core::SynthesisStats &S = R.BatchStats;
    if (!(L >> Index >> R.Seed >> Batch >> S.Attempts >> S.IncompleteSamples >>
          S.RejectedByFilter >> S.Duplicates >> S.Accepted >> Serve) ||
        Index != Out.size() || R.Seed != poolSeed(Index)) {
      std::fprintf(stderr, "perfbench: malformed reference line: %s\n",
                   Line.c_str());
      return {};
    }
    R.BatchDigest = std::strtoull(Batch.c_str(), nullptr, 16);
    R.ServeDigest = std::strtoull(Serve.c_str(), nullptr, 16);
    Out.push_back(R);
  }
  return Out;
}

std::vector<size_t> poolOrder(uint64_t RunSeed, size_t PoolSize) {
  std::vector<size_t> Order(PoolSize);
  for (size_t I = 0; I < PoolSize; ++I)
    Order[I] = I;
  Rng R(RunSeed ^ 0xBE7C4A11ull);
  R.shuffle(Order);
  return Order;
}

bool sameStats(const core::SynthesisStats &A, const core::SynthesisStats &B) {
  return A.Attempts == B.Attempts &&
         A.IncompleteSamples == B.IncompleteSamples &&
         A.RejectedByFilter == B.RejectedByFilter &&
         A.Duplicates == B.Duplicates && A.Accepted == B.Accepted;
}

std::string formatStats(const core::SynthesisStats &S) {
  char Buf[160];
  std::snprintf(Buf, sizeof(Buf),
                "attempts %zu incomplete %zu rejected %zu duplicates %zu "
                "accepted %zu",
                S.Attempts, S.IncompleteSamples, S.RejectedByFilter,
                S.Duplicates, S.Accepted);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Tracer
//===----------------------------------------------------------------------===//

Tracer::Scope::Scope(Tracer &T, const char *Name) : T(T), Id(T.open(Name)) {}
Tracer::Scope::~Scope() { T.close(Id); }

int Tracer::open(const char *Name) {
  Span S;
  S.Name = Name;
  S.StartMs = msSince(Origin);
  S.Parent = Stack.empty() ? -1 : Stack.back();
  S.Request = Request;
  Spans.push_back(std::move(S));
  int Id = static_cast<int>(Spans.size() - 1);
  Stack.push_back(Id);
  return Id;
}

void Tracer::close(int Id) {
  Spans[Id].EndMs = msSince(Origin);
  Stack.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> ChildMs(Spans.size(), 0.0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildMs[S.Parent] += S.EndMs - S.StartMs;
  std::map<std::string, Totals> Out;
  for (size_t I = 0; I < Spans.size(); ++I) {
    Totals &T = Out[Spans[I].Name];
    double Dur = Spans[I].EndMs - Spans[I].StartMs;
    T.TotalMs += Dur;
    T.SelfMs += Dur - ChildMs[I];
    ++T.Calls;
  }
  return Out;
}

bool Tracer::writeJson(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "[\n");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F,
                 "  {\"id\": %zu, \"name\": \"%s\", \"start_ms\": %.6f, "
                 "\"end_ms\": %.6f, \"parent\": %d, \"request\": %" PRIu64
                 "}%s\n",
                 I, S.Name.c_str(), S.StartMs, S.EndMs, S.Parent, S.Request,
                 I + 1 < Spans.size() ? "," : "");
  }
  std::fprintf(F, "]\n");
  return std::fclose(F) == 0;
}

} // namespace perfbench
