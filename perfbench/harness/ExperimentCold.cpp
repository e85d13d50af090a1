//===- perfbench/harness/ExperimentCold.cpp - experiment-cold workload ----===//
//
// Part of the CLgen reproduction. MIT license.
//
// The paper's closing loop: predict::runExperiment on the pinned golden
// configuration, back to back, with no store. It is the only workload
// that runs the dynamic checker, refill, the real suites, feature
// extraction and the predictive model, and its Table 1 / Figure 9
// bytes are checked against tests/golden/.
//
//===----------------------------------------------------------------------===//

#include "HostSpeed.h"
#include "Replay.h"
#include "Workloads.h"

#include "features/Features.h"
#include "predict/Experiment.h"
#include "predict/Report.h"
#include "suites/Catalogue.h"
#include "support/StringUtils.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace clgen;

namespace perfbench {

namespace {

constexpr int SetupProbes = 15;

struct Golden {
  std::string Table1, Fig9;
  bool Ok = false;
};

Golden loadGolden() {
  Golden G;
  auto Read = [](const char *Path, std::string &Out) {
    std::ifstream In(Path, std::ios::binary);
    if (!In)
      return false;
    std::ostringstream S;
    S << In.rdbuf();
    Out = S.str();
    return true;
  };
  G.Ok = Read("tests/golden/experiment_table1.txt", G.Table1) &&
         Read("tests/golden/experiment_fig9.txt", G.Fig9);
  return G;
}

bool checkReports(Report &R, const Golden &G, const std::string &Table1,
                  const std::string &Fig9, const char *What) {
  ++R.Attempted;
  if (Table1 == G.Table1 && Fig9 == G.Fig9)
    return true;
  R.fail(std::string(What) + ": " +
         (Table1 != G.Table1 ? "Table 1" : "Figure 9") +
         " differs from tests/golden/");
  return false;
}

/// CPU time of one fresh harness process doing experiment-cold's
/// process set-up, in seconds; negative when the probe failed.
double probeProcessSetup(const RunConfig &Cfg) {
  pid_t Pid = ::fork();
  if (Pid == 0) {
    ::execl(Cfg.SelfPath.c_str(), Cfg.SelfPath.c_str(),
            "--process-setup-probe", static_cast<char *>(nullptr));
    ::_exit(127);
  }
  if (Pid < 0)
    return -1.0;
  int Status = 0;
  struct rusage U;
  std::memset(&U, 0, sizeof(U));
  while (::wait4(Pid, &Status, 0, &U) < 0 && errno == EINTR) {
  }
  double S = cpuSeconds(U);
  return WIFEXITED(Status) && WEXITSTATUS(Status) == 0 ? S : -1.0;
}

Report runTraced(const RunConfig &Cfg, const Golden &G) {
  Report R;
  Tracer T;
  const runtime::Platform P = runtime::amdPlatform();
  const predict::ExperimentOptions Opts = predict::goldenExperimentOptions();

  Clock::time_point T0 = Clock::now();
  predict::ExperimentResult Timed = predict::runExperiment(Opts);
  double TimedMs = msSince(T0);
  checkReports(R, G, Timed.Table1, Timed.Fig9, "experiment");

  T0 = Clock::now();
  SetupReplay S;
  {
    Tracer::Scope Section(T, "section.setup");
    S = replaySetup(T, Opts.CorpusFiles, Opts.NGramOrder);
  }
  double ReplayMs = msSince(T0);
  core::StreamingResult Reference =
      core::synthesizeAndMeasure(*S.Model, P, Opts.Streaming);

  // computeExperiment (predict/Experiment.cpp), one public call per span.
  T0 = Clock::now();
  SynthesisReplay Rep;
  std::string Table1, Fig9;
  {
    Tracer::Scope Section(T, "section.replay");
    Rep = replaySynthesis(T, *S.Model, P, Opts.Streaming);
    const core::StreamingResult &SR = Rep.Result;
    std::vector<vm::CompiledKernel> Compiled;
    for (const core::SynthesizedKernel &K : SR.Kernels)
      Compiled.push_back(K.Kernel);
    std::vector<features::StaticFeatures> Static;
    {
      Tracer::Scope Span(T, "features.extract");
      Static = features::extractStaticFeaturesParallel(Compiled, Opts.Workers);
    }
    std::vector<predict::Observation> Synthetic;
    for (size_t I = 0; I < SR.Kernels.size(); ++I) {
      if (!SR.Measurements[I].ok())
        continue;
      const runtime::Measurement &M = SR.Measurements[I].get();
      predict::Observation O;
      O.Suite = "clgen";
      O.Benchmark = formatString("clgen-synthetic-%zu", I);
      O.Kernel = SR.Kernels[I].Kernel.Name;
      O.Dataset = formatString("%zu", M.GlobalSize);
      O.Raw.Static = Static[I];
      O.Raw.TransferBytes = static_cast<double>(M.Transfer.total());
      O.Raw.WgSize = static_cast<double>(M.GlobalSize);
      O.CpuTime = M.CpuTime;
      O.GpuTime = M.GpuTime;
      Synthetic.push_back(std::move(O));
    }
    std::vector<predict::Observation> Real;
    {
      Tracer::Scope Span(T, "suites.measure");
      std::vector<suites::BenchmarkKernel> Catalogue;
      for (const std::string &Name : Opts.Suites) {
        auto Suite = suites::buildSuite(Name);
        Catalogue.insert(Catalogue.end(), Suite.begin(), Suite.end());
      }
      Real = suites::measureCatalogue(Catalogue, P, Opts.Runner);
    }
    {
      Tracer::Scope Span(T, "predict.kfold");
      (void)predict::kFoldCrossValidation(Real, {}, Opts.Kind, Opts.KFold,
                                          Opts.Tree);
    }
    {
      Tracer::Scope Span(T, "predict.kfold");
      (void)predict::kFoldCrossValidation(Real, Synthetic, Opts.Kind,
                                          Opts.KFold, Opts.Tree);
    }
    {
      Tracer::Scope Span(T, "predict.report");
      Table1 = predict::renderTable1(Real, Synthetic, Opts.Suites, Opts.Kind,
                                     Opts.Tree);
      Fig9 = predict::renderFig9(Real, Synthetic, Opts.Fig9MaxRows);
    }
    {
      Tracer::Scope Span(T, "predict.fit");
      std::vector<predict::Observation> All = Real;
      All.insert(All.end(), Synthetic.begin(), Synthetic.end());
      std::vector<std::vector<double>> X =
          predict::featureMatrix(All, Opts.Kind, Opts.Workers);
      std::vector<int> Y;
      for (const predict::Observation &O : All)
        Y.push_back(O.label());
      predict::DecisionTree Model(Opts.Tree);
      Model.fit(X, Y);
    }
  }
  ReplayMs += msSince(T0);

  ++R.Attempted;
  if (!sameStats(Rep.Result.Stats, Reference.Stats) ||
      digestStreaming(Rep.Result) != digestStreaming(Reference))
    R.fail("experiment replay synthesis diverged: " +
           formatStats(Rep.Result.Stats) + " vs " +
           formatStats(Reference.Stats));
  checkReports(R, G, Table1, Fig9, "experiment replay");
  std::printf("replay: %s, %zu survivors\n",
              formatStats(Rep.Result.Stats).c_str(), Rep.Result.Kernels.size());
  std::printf("replay wall %.1f ms vs timed experiment wall %.1f ms\n",
              ReplayMs, TimedMs);

  printLayerTable(T);
  addLayerMetrics(R, T, Rep, Reference, ReplayMs, TimedMs);
  auto Tot = T.totals();
  auto Ms = [&](const char *Name) { return perCall(Tot, Name, 1.0, true); };
  R.add("runtime.check_ms", "ms", Ms("runtime.check"),
        calls(Tot, "runtime.check"), false, "per checkKernel");
  R.add("suites.measure_ms", "ms", Ms("suites.measure"), 1, false,
        "measureCatalogue");
  R.add("features.extract_ms", "ms", Ms("features.extract"), 1, false);
  R.add("predict.kfold_ms", "ms", Ms("predict.kfold"),
        calls(Tot, "predict.kfold"), false, "per K-fold pass");
  R.add("predict.report_ms", "ms", Ms("predict.report"), 1, false,
        "renderTable1 + renderFig9");
  R.add("predict.fit_ms", "ms", Ms("predict.fit"), 1, false, "final model");
  std::string TracePath =
      Cfg.TraceDir + "/experiment-cold-" + std::to_string(Cfg.Seed) + ".json";
  if (T.writeJson(TracePath))
    std::printf("spans written to %s\n", TracePath.c_str());
  return R;
}

} // namespace

bool experimentProcessSetup() { return loadGolden().Ok; }

Report runExperimentCold(const RunConfig &Cfg) {
  Report R;
  Golden G = loadGolden();
  if (!G.Ok) {
    R.fail("cannot read tests/golden/experiment_{table1,fig9}.txt");
    return R;
  }
  if (Cfg.Trace)
    return runTraced(Cfg, G);

  HostSpeed Host;
  std::vector<double> SetupS;
  for (int I = 0; I < SetupProbes; ++I) {
    Host.sample();
    double S = probeProcessSetup(Cfg);
    if (S < 0.0) {
      R.fail("process set-up probe failed");
      return R;
    }
    SetupS.push_back(S);
  }

  const predict::ExperimentOptions Opts = predict::goldenExperimentOptions();
  {
    predict::ExperimentResult Warm = predict::runExperiment(Opts);
    checkReports(R, G, Warm.Table1, Warm.Fig9, "experiment");
  }
  std::vector<double> WallMs, CpuMs;
  size_t KernelsPerExperiment = 0;
  Clock::time_point Start = Clock::now();
  while (msSince(Start) < Cfg.Seconds * 1e3) {
    Clock::time_point T0 = Clock::now();
    double C0 = processCpuMs();
    predict::ExperimentResult X = predict::runExperiment(Opts);
    CpuMs.push_back(processCpuMs() - C0);
    WallMs.push_back(msSince(T0));
    if (checkReports(R, G, X.Table1, X.Fig9, "experiment"))
      KernelsPerExperiment = X.Provenance.MeasuredKernels;
    Host.maybeSample();
  }
  size_t N = WallMs.size();
  addScaled(R, Host, "setup_s", "s", median(SetupS), SetupS.size(), false,
            "CPU time of a fresh harness process getting ready");
  addScaled(R, Host, "op_cpu_ms", "ms", median(CpuMs), N, false,
            "CPU time of one cold golden experiment");
  addScaled(R, Host, "kernels_per_cpu_s", "1/s",
            static_cast<double>(KernelsPerExperiment) / (median(CpuMs) / 1e3), N, true,
            "real + synthetic kernels measured per CPU second");
  R.add("peak_rss_mb", "MiB", selfPeakRssMb() - calibrationTablesMiB(), 1,
        true, "harness VmHWM less the calibration tables");
  R.add("experiment.wall_s", "s", median(WallMs) / 1e3, N, false,
        "one cold golden experiment, wall");
  addHostSpeed(R, Host);
  addTail(R, "experiment.tail_ms", WallMs);
  return R;
}

} // namespace perfbench
