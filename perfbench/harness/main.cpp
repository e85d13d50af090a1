//===- perfbench/harness/main.cpp - Repository benchmark harness ----------===//
//
// Part of the CLgen reproduction. MIT license.
//
// Runs one workload of the repository benchmark and prints, one per
// line, every metric with its unit and sample count, then the output
// check result, then one JSON object as the last line:
//
//   perfbench_harness --workload synth-stream|serve-mix|experiment-cold
//                     --seed N --seconds S --trace 0|1
//
// --trace 0 is the timed run (end-to-end metrics, no tracing); --trace 1
// is the traced run (per-layer metrics from serial replays). Run it
// from the repository root; perfbench/run.py builds it and does so.
//
//   perfbench_harness --regenerate-references N
//
// recomputes perfbench/references.txt for the first N pool seeds.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"
#include "Workloads.h"

#include <cinttypes>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include <unistd.h>

using namespace perfbench;

namespace {

const char *const ReferencesPath = "perfbench/references.txt";

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness --workload NAME --seed N "
               "--seconds S --trace 0|1\n"
               "       perfbench_harness --regenerate-references N\n"
               "workloads: synth-stream, serve-mix, experiment-cold\n");
  return 2;
}

bool parseUnsigned(const char *Text, uint64_t &Out) {
  if (!*Text || std::strspn(Text, "0123456789") != std::strlen(Text))
    return false;
  Out = std::strtoull(Text, nullptr, 10);
  return true;
}

void printMetric(const Metric &M) {
  std::printf("  %-28s = %-14.6g %-6s (n=%zu)%s%s\n", M.Name.c_str(), M.Value,
              M.Unit.c_str(), M.Samples, M.Note.empty() ? "" : "  ",
              M.Note.c_str());
}

void printJson(const Report &R) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              R.Failed == 0 ? "true" : "false", R.Attempted,
              R.Failed);
  bool First = true;
  for (const Metric &M : R.Metrics) {
    if (!M.Contract)
      continue;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                First ? "" : ", ", M.Name.c_str(), M.Value, M.Unit.c_str());
    First = false;
  }
  std::printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  RunConfig Cfg;
  bool TraceSet = false;
  uint64_t Regenerate = 0;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    uint64_t N = 0;
    if (Arg == "--process-setup-probe" && Argc == 2)
      return experimentProcessSetup() ? 0 : 1;
    if (I + 1 >= Argc)
      return usage();
    const char *Value = Argv[++I];
    if (Arg == "--workload") {
      Cfg.Workload = Value;
    } else if (Arg == "--seed" && parseUnsigned(Value, N)) {
      Cfg.Seed = N;
    } else if (Arg == "--seconds" && parseUnsigned(Value, N) && N > 0) {
      Cfg.Seconds = static_cast<double>(N);
    } else if (Arg == "--trace" && parseUnsigned(Value, N) && N <= 1) {
      Cfg.Trace = N == 1;
      TraceSet = true;
    } else if (Arg == "--regenerate-references" && parseUnsigned(Value, N) &&
               N > 0) {
      Regenerate = N;
    } else {
      return usage();
    }
  }

  // Run hygiene: how this result was produced, recorded with it.
  unsigned Cpus = availableCpus();
  Cfg.MeasureWorkers = 1;
  Cfg.SynthWorkers = Cpus > 1 ? std::min(3u, Cpus - 1) : 1;
  std::printf("build: %s, %s, CLGS_SANITIZE=%s, CLGS_FAILPOINTS=%s, "
              "CLGS_TELEMETRY=%s\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
              *PERFBENCH_SANITIZE ? PERFBENCH_SANITIZE : "(none)",
              PERFBENCH_FAILPOINTS, PERFBENCH_TELEMETRY);
  std::printf("host: nproc %u; synth-stream workers: %u synthesis + %u "
              "measurement\n",
              Cpus, Cfg.SynthWorkers, Cfg.MeasureWorkers);
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0 ||
      *PERFBENCH_SANITIZE) {
    std::fprintf(stderr, "perfbench: refusing to report from a %s%s build; "
                         "configure with -DCMAKE_BUILD_TYPE=Release and no "
                         "CLGS_SANITIZE\n",
                 PERFBENCH_BUILD_TYPE, *PERFBENCH_SANITIZE ? " sanitizer" : "");
    return 2;
  }
  if (Cfg.SynthWorkers + Cfg.MeasureWorkers > Cpus) {
    std::fprintf(stderr,
                 "perfbench: %u synthesis + %u measurement workers exceed "
                 "nproc %u; the benchmark needs at least 2 CPUs\n",
                 Cfg.SynthWorkers, Cfg.MeasureWorkers, Cpus);
    return 2;
  }

  if (Regenerate)
    return regenerateReferences(Cfg, Regenerate, ReferencesPath);
  if (Cfg.Workload.empty() || !TraceSet)
    return usage();

  std::vector<SeedReference> Refs = loadReferences(ReferencesPath);
  if (Refs.size() < 2)
    return 1;

  Cfg.SelfPath = Argv[0];
  Cfg.WorkDir = ".bench_build/run-" + std::to_string(getpid());
  Cfg.TraceDir = ".bench_build/traces";
  std::error_code Ec;
  for (const std::string &Dir : {Cfg.WorkDir, Cfg.TraceDir}) {
    std::filesystem::create_directories(Dir, Ec);
    if (Ec) {
      std::fprintf(stderr, "perfbench: cannot create %s: %s\n", Dir.c_str(),
                   Ec.message().c_str());
      return 1;
    }
  }

  std::printf("workload %s, seed %" PRIu64 ", %g s, %s run\n",
              Cfg.Workload.c_str(), Cfg.Seed, Cfg.Seconds,
              Cfg.Trace ? "traced" : "timed");
  std::fflush(stdout);
  // A daemon that dies mid-request must fail that request, not kill the
  // harness.
  std::signal(SIGPIPE, SIG_IGN);
  Report R;
  if (Cfg.Workload == "synth-stream")
    R = runSynthStream(Cfg, Refs);
  else if (Cfg.Workload == "serve-mix")
    R = runServeMix(Cfg, Refs);
  else if (Cfg.Workload == "experiment-cold")
    R = runExperimentCold(Cfg);
  else
    return usage();
  std::filesystem::remove_all(Cfg.WorkDir, Ec);

  for (Metric &M : R.Metrics)
    if (!std::isfinite(M.Value)) {
      R.fail("metric " + M.Name + " is not a finite number");
      M.Value = 0.0;
    }
  std::printf("%s metrics:\n", Cfg.Trace ? "per-layer" : "end-to-end");
  for (const Metric &M : R.Metrics)
    printMetric(M);
  std::printf("  %-28s = %-14.6g %-6s (n=%zu)\n", "failed_share",
              R.Attempted ? static_cast<double>(R.Failed) /
                                static_cast<double>(R.Attempted)
                          : 1.0,
              "ratio", R.Attempted);
  std::printf("output check: %s (%zu of %zu operations failed)\n",
              R.Failed == 0 ? "PASS" : "FAIL", R.Failed,
              R.Attempted);
  if (R.Attempted == 0)
    return 1;
  printJson(R);
  return 0;
}
