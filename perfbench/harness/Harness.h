//===- perfbench/harness/Harness.h - Benchmark harness plumbing -*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing of the repository benchmark: the run configuration,
/// the metric report every workload fills in, the pinned output
/// references, the output digest, and the in-memory span tracer the
/// traced runs record around calls into the library's layers.
///
/// The harness calls only the public functions of libclgen_core (and
/// drives the shipped clgen-serve daemon over its socket); nothing here
/// reaches into the library's internals.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include "clgen/Pipeline.h"
#include "runtime/Device.h"
#include "store/Archive.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point A) {
  return std::chrono::duration<double, std::milli>(Clock::now() - A).count();
}

/// What one invocation was asked to do.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10.0;
  bool Trace = false;
  /// Synthesis + measurement threads of synth-stream (sum <= nproc).
  unsigned SynthWorkers = 3;
  unsigned MeasureWorkers = 1;
  /// Scratch directory for stores, sockets and the daemon log (inside
  /// the checkout's build directory; removed at exit).
  std::string WorkDir;
  /// Where traced runs write their spans (kept after the run).
  std::string TraceDir;
  /// Path of this harness binary (experiment-cold re-executes it to
  /// time process set-up).
  std::string SelfPath;
};

/// One reported number. Contract metrics are the ones BENCHMARK.json
/// lists (end_to_end for timed runs, per_layer for traced runs) and go
/// into the final JSON line; every metric is printed on its own line.
struct Metric {
  std::string Name;
  std::string Unit;
  double Value = 0.0;
  size_t Samples = 0;
  bool Contract = false;
  std::string Note;
};

/// What a workload hands back to main.
struct Report {
  size_t Attempted = 0;
  /// Operations that errored or whose output mismatched its reference
  /// (including a traced replay that diverged from the work it
  /// describes). The run is correct only when this stays 0.
  size_t Failed = 0;
  std::vector<Metric> Metrics;

  void add(std::string Name, std::string Unit, double Value, size_t Samples,
           bool Contract, std::string Note = "");
  /// Records one failed operation with its reason (printed to stderr).
  void fail(const std::string &Why);
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Linear-interpolated percentile (Q in [0, 1]) of \p V.
double percentile(std::vector<double> V, double Q);
inline double median(const std::vector<double> &V) {
  return percentile(V, 0.5);
}
double sum(const std::vector<double> &V);

/// Adds the human-readable tail line of a timing: the highest whole
/// percentile with at least ten samples beyond it (none for fewer than
/// eleven samples).
void addTail(Report &R, const std::string &Name,
             const std::vector<double> &Ms);

/// CPU time this process has used, in ms (all threads).
double processCpuMs();
/// User + system CPU time in \p U, in seconds.
double cpuSeconds(const struct rusage &U);

/// Peak resident set of this process in MiB (getrusage).
double selfPeakRssMb();

/// CPUs this process may run on (what `nproc` prints).
unsigned availableCpus();

//===----------------------------------------------------------------------===//
// Workload configuration (the fixed parts; seeds come from the run)
//===----------------------------------------------------------------------===//

/// The githubsim snapshot size and n-gram order of synth-stream and of
/// the daemon's model (the runner's 40-kernel config).
constexpr size_t SynthCorpusFiles = 400;
constexpr int SynthNGramOrder = 14;
constexpr size_t SynthBatchKernels = 40;
/// Kernels per serve-mix request.
constexpr size_t ServeRequestKernels = 8;

clgen::core::PipelineOptions synthPipelineOptions();
/// synth-stream's streaming config for one batch seed.
clgen::core::StreamingOptions synthStreamingOptions(uint64_t BatchSeed,
                                             const RunConfig &Cfg);
/// What Server::runFlight runs for one request (serial synthesis, no
/// store): the serve-mix reference and replay config.
clgen::core::StreamingOptions serveStreamingOptions(uint64_t RequestSeed);

//===----------------------------------------------------------------------===//
// Output checks
//===----------------------------------------------------------------------===//

/// Digest over kernel sources plus measurement verdicts in accept
/// order: per kernel its source, then either the two estimated device
/// times (bit patterns) or the failure diagnostic. By the determinism
/// contracts (docs/ARCHITECTURE.md) it is a pure function of the model,
/// the synthesis seed and the driver options.
class OutputDigest {
public:
  void addKernel(const std::string &Source, bool Ok, double CpuTime,
                 double GpuTime, const std::string &Error);
  uint64_t value() const { return H; }

private:
  uint64_t H = clgen::store::fnv1a64(nullptr, 0);
};

uint64_t digestStreaming(const clgen::core::StreamingResult &R);

/// Pinned references for the synthesis seed pool (references.txt).
struct SeedReference {
  uint64_t Seed = 0;
  /// synth-stream: one 40-kernel batch.
  uint64_t BatchDigest = 0;
  clgen::core::SynthesisStats BatchStats;
  /// serve-mix: one 8-kernel request.
  uint64_t ServeDigest = 0;
};

/// Seed k of the pool; k = 0 is the runner's default synthesis seed.
uint64_t poolSeed(size_t K);

/// Loads references.txt; empty (after printing why) when unreadable.
std::vector<SeedReference> loadReferences(const std::string &Path);

/// The order in which a run visits the pool: a permutation seeded by
/// the run seed, so every seed gives different (but repeatable) work.
std::vector<size_t> poolOrder(uint64_t RunSeed, size_t PoolSize);

bool sameStats(const clgen::core::SynthesisStats &A,
               const clgen::core::SynthesisStats &B);
std::string formatStats(const clgen::core::SynthesisStats &S);

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

/// In-memory span recorder for the traced runs. Spans nest on one
/// thread (the replays are serial); each carries a name, start, end,
/// its parent and a request id. Written out as JSON when the run ends.
class Tracer {
public:
  struct Span {
    std::string Name;
    double StartMs = 0.0;
    double EndMs = 0.0;
    int Parent = -1;
    uint64_t Request = 0;
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int Id;
  };

  /// Spans opened from now on carry \p Id.
  void setRequest(uint64_t Id) { Request = Id; }

  /// Per span name: total self time (duration minus the part its child
  /// spans cover) and number of calls.
  struct Totals {
    double SelfMs = 0.0;
    double TotalMs = 0.0;
    size_t Calls = 0;
  };
  std::map<std::string, Totals> totals() const;

  /// Writes every span as a JSON array.
  bool writeJson(const std::string &Path) const;

private:
  int open(const char *Name);
  void close(int Id);

  Clock::time_point Origin = Clock::now();
  std::vector<Span> Spans;
  std::vector<int> Stack;
  uint64_t Request = 0;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
