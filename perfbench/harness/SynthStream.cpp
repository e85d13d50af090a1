//===- perfbench/harness/SynthStream.cpp - synth-stream workload ----------===//
//
// Part of the CLgen reproduction. MIT license.
//
// The paper's product: synthetic benchmarks per second. The model is
// trained once in set-up, then 40-kernel ClgenPipeline::
// synthesizeAndMeasure batches run back to back (closed loop, no
// store), in whole passes over a fixed working set of pool seeds.
//
//===----------------------------------------------------------------------===//

#include "HostSpeed.h"
#include "Replay.h"
#include "Workloads.h"

#include "githubsim/GithubSim.h"
#include "support/Rng.h"

#include <cinttypes>
#include <cstdio>
#include <optional>

using namespace clgen;

namespace perfbench {

namespace {

constexpr int SetupRepeats = 5;
/// Pool seeds 0 to 15, which every timed run visits in whole passes:
/// two runs then time the same work, whatever their run seeds (which
/// order each pass). A pass takes 3 to 6 s on 4 vCPUs, so a 30 s run
/// times each batch six to ten times.
constexpr size_t WorkingSet = 16;

/// Checks one batch against the pinned reference of its seed.
bool checkBatch(Report &R, const SeedReference &Ref,
                const core::StreamingResult &SR) {
  ++R.Attempted;
  uint64_t Digest = digestStreaming(SR);
  if (sameStats(SR.Stats, Ref.BatchStats) && Digest == Ref.BatchDigest)
    return true;
  char Buf[320];
  std::snprintf(Buf, sizeof(Buf),
                "synth-stream batch seed %" PRIu64 ": %zu kernels, digest "
                "%016" PRIx64 " (want %016" PRIx64 "), %s (want %s)",
                Ref.Seed, SR.Kernels.size(), Digest, Ref.BatchDigest,
                formatStats(SR.Stats).c_str(),
                formatStats(Ref.BatchStats).c_str());
  R.fail(Buf);
  return false;
}

} // namespace

Report runSynthStream(const RunConfig &Cfg,
                      const std::vector<SeedReference> &Refs) {
  Report R;
  std::vector<size_t> Order = poolOrder(Cfg.Seed, Refs.size());
  const runtime::Platform P = runtime::amdPlatform();

  if (Cfg.Trace) {
    Tracer T;
    SetupReplay S;
    {
      Tracer::Scope Section(T, "section.setup");
      S = replaySetup(T, SynthCorpusFiles, SynthNGramOrder);
    }
    const SeedReference &Ref = Refs[Order[0]];
    core::StreamingOptions Opts = synthStreamingOptions(Ref.Seed, Cfg);
    Clock::time_point T0 = Clock::now();
    core::StreamingResult Timed = core::synthesizeAndMeasure(*S.Model, P, Opts);
    double TimedMs = msSince(T0);
    checkBatch(R, Ref, Timed);

    T.setRequest(Ref.Seed);
    T0 = Clock::now();
    SynthesisReplay Rep;
    {
      Tracer::Scope Section(T, "section.replay");
      Rep = replaySynthesis(T, *S.Model, P, Opts);
    }
    double ReplayMs = msSince(T0);
    ++R.Attempted;
    if (!sameStats(Rep.Result.Stats, Timed.Stats) ||
        digestStreaming(Rep.Result) != digestStreaming(Timed))
      R.fail("synth-stream replay diverged from the timed batch: " +
             formatStats(Rep.Result.Stats) + " vs " + formatStats(Timed.Stats));
    std::printf("replay of batch seed %" PRIu64 ": %s, digest %016" PRIx64
                "\n",
                Ref.Seed, formatStats(Rep.Result.Stats).c_str(),
                digestStreaming(Rep.Result));
    std::printf("replay wall %.1f ms vs timed batch wall %.1f ms (%u+%u "
                "workers); the gap is parallelism, tracing and "
                "serialisation\n",
                ReplayMs, TimedMs, Cfg.SynthWorkers, Cfg.MeasureWorkers);
    printLayerTable(T);
    addLayerMetrics(R, T, Rep, Timed, ReplayMs, TimedMs);
    std::string TracePath =
        Cfg.TraceDir + "/synth-stream-" + std::to_string(Cfg.Seed) + ".json";
    if (T.writeJson(TracePath))
      std::printf("spans written to %s\n", TracePath.c_str());
    return R;
  }

  HostSpeed Host;
  std::vector<double> SetupS, SetupWallS;
  std::optional<core::ClgenPipeline> Pipeline;
  for (int I = 0; I < SetupRepeats; ++I) {
    Host.sample();
    Clock::time_point T0 = Clock::now();
    double C0 = processCpuMs();
    githubsim::GithubSimOptions G;
    G.FileCount = SynthCorpusFiles;
    std::vector<corpus::ContentFile> Files = githubsim::mineGithub(G);
    Pipeline.emplace(core::ClgenPipeline::train(Files, synthPipelineOptions()));
    SetupS.push_back((processCpuMs() - C0) / 1e3);
    SetupWallS.push_back(msSince(T0) / 1e3);
  }

  // One untimed batch first: thread stacks, allocator arenas and page
  // mappings settle before the loop is timed.
  {
    const SeedReference &Ref = Refs[Order[0]];
    checkBatch(R, Ref, Pipeline->synthesizeAndMeasure(
                           P, synthStreamingOptions(Ref.Seed, Cfg)));
  }

  // Whole passes over the working set, each in a new seeded order, so
  // every run times the same batches, each as often.
  std::vector<size_t> Pass(WorkingSet);
  for (size_t I = 0; I < WorkingSet; ++I)
    Pass[I] = I;
  Rng PassOrder(Cfg.Seed ^ 0x5EED0F5Eull);
  std::vector<double> BatchMs, PassCpuMs;
  size_t Kernels = 0;
  Clock::time_point Start = Clock::now();
  while (msSince(Start) < Cfg.Seconds * 1e3) {
    PassOrder.shuffle(Pass);
    double PassCpu = 0.0;
    for (size_t Index : Pass) {
      const SeedReference &Ref = Refs[Index];
      Clock::time_point T0 = Clock::now();
      double C0 = processCpuMs();
      core::StreamingResult SR = Pipeline->synthesizeAndMeasure(
          P, synthStreamingOptions(Ref.Seed, Cfg));
      PassCpu += processCpuMs() - C0;
      BatchMs.push_back(msSince(T0));
      if (checkBatch(R, Ref, SR))
        Kernels += SR.Kernels.size();
      Host.maybeSample();
    }
    PassCpuMs.push_back(PassCpu);
  }

  size_t N = BatchMs.size();
  double CpuPerPassMs = median(PassCpuMs);
  addScaled(R, Host, "setup_s", "s", median(SetupS), SetupS.size(), false,
            "CPU time of mine + ingest + train, median of the set-ups");
  addScaled(R, Host, "op_cpu_ms", "ms", CpuPerPassMs / WorkingSet, N, false,
            "CPU time per 40-kernel batch, median over passes");
  addScaled(R, Host, "kernels_per_cpu_s", "1/s",
            static_cast<double>(WorkingSet * SynthBatchKernels) /
                (CpuPerPassMs / 1e3),
            N, true, "accepted kernels per CPU second, median over passes");
  R.add("peak_rss_mb", "MiB", selfPeakRssMb() - calibrationTablesMiB(), 1,
        true, "harness VmHWM less the calibration tables");
  R.add("synth.setup_wall_s", "s", median(SetupWallS), SetupWallS.size(),
        false, "mine + ingest + train, wall");
  R.add("synth.batch_p50_ms", "ms", median(BatchMs), N, false,
        "one 40-kernel batch, wall");
  R.add("synth.kernels_per_s", "1/s",
        static_cast<double>(Kernels) / (sum(BatchMs) / 1e3), N, false,
        "accepted kernels per wall second");
  R.add("synth.passes", "count", static_cast<double>(PassCpuMs.size()), N,
        false, "passes over the working set");
  addHostSpeed(R, Host);
  addTail(R, "synth.batch_tail_ms", BatchMs);
  return R;
}

} // namespace perfbench
