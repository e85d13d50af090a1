//===- perfbench/harness/Replay.cpp - Traced serial replays ---------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "clgen/Sampler.h"
#include "corpus/Rewriter.h"
#include "githubsim/GithubSim.h"
#include "ocl/AstPrinter.h"
#include "runtime/DynamicChecker.h"
#include "runtime/HostDriver.h"
#include "runtime/Payload.h"

#include <cstdio>
#include <unordered_set>

using namespace clgen;

namespace perfbench {

namespace {

/// Counts next-token draws (= characters sampled) on the way through.
class CountingModel : public model::LanguageModel {
public:
  explicit CountingModel(model::LanguageModel &Inner) : Inner(Inner) {}
  const model::Vocabulary &vocabulary() const override {
    return Inner.vocabulary();
  }
  void reset() override { Inner.reset(); }
  void observe(int TokenId) override { Inner.observe(TokenId); }
  std::vector<double> nextDistribution() override {
    ++Draws;
    return Inner.nextDistribution();
  }
  void nextDistributionInto(std::vector<double> &Dist) override {
    ++Draws;
    Inner.nextDistributionInto(Dist);
  }
  uint64_t Draws = 0;

private:
  model::LanguageModel &Inner;
};

/// runtime::runBenchmark, one step per span. Diagnostics are spelled
/// exactly as the library spells them: they are part of the digest.
Result<runtime::Measurement> measureTraced(Tracer &T,
                                           const vm::CompiledKernel &Kernel,
                                           const runtime::Platform &P,
                                           const runtime::DriverOptions &Opts,
                                           SynthesisReplay &Out) {
  Tracer::Scope Launch(T, "runtime.launch");
  Rng R(Opts.Seed);
  if (Opts.RunDynamicCheck) {
    Tracer::Scope Check(T, "runtime.check");
    runtime::CheckOptions COpts;
    Rng CheckRng = R.fork();
    runtime::CheckResult CR = runtime::checkKernel(Kernel, COpts, CheckRng);
    if (!CR.useful())
      return Result<runtime::Measurement>::error(
          std::string("dynamic check failed: ") +
              runtime::checkOutcomeName(CR.Outcome) +
              (CR.Detail.empty() ? "" : " (" + CR.Detail + ")"),
          CR.Trap);
  }
  runtime::PayloadOptions POpts;
  POpts.GlobalSize = Opts.GlobalSize;
  POpts.LocalSize = Opts.LocalSize;
  runtime::Payload Pl = runtime::generatePayload(Kernel, POpts, R);

  vm::LaunchConfig Config;
  Config.GlobalSize[0] = Pl.GlobalSize;
  Config.LocalSize[0] = Pl.LocalSize;
  Config.MaxInstructions = Opts.MaxInstructions;
  Config.MaxWorkGroups = Opts.MaxSimulatedGroups;
  Config.WatchdogMs = Opts.WatchdogMs;
  Config.TrapDivZero = Opts.TrapDivZero;
  Config.Dispatch = Opts.Dispatch;
  Clock::time_point V0 = Clock::now();
  Result<vm::ExecCounters> Run = [&] {
    Tracer::Scope Vm(T, "vm.launch");
    return vm::launchKernel(Kernel, Pl.Args, Pl.Buffers, Config);
  }();
  double VmMs = msSince(V0);
  if (!Run.ok())
    return Result<runtime::Measurement>::error(
        "launch failed: " + Run.errorMessage(), Run.trap());

  runtime::Measurement M;
  M.Counters = Run.get();
  M.Transfer = Pl.Transfer;
  M.GlobalSize = Pl.GlobalSize;
  M.LocalSize = Pl.LocalSize;
  M.CpuTime = runtime::estimateRuntime(P.Cpu, M.Counters, M.Transfer);
  M.GpuTime = runtime::estimateRuntime(P.Gpu, M.Counters, M.Transfer);
  if (M.Counters.ItemsTotal > 0) {
    Out.ExecutedInstructions +=
        static_cast<double>(M.Counters.Instructions) *
        static_cast<double>(M.Counters.ItemsExecuted) /
        static_cast<double>(M.Counters.ItemsTotal);
    Out.OkLaunchMs += VmMs;
  }
  return M;
}

bool isSection(const std::string &Name) {
  return Name.compare(0, 8, "section.") == 0;
}

} // namespace

double perCall(const std::map<std::string, Tracer::Totals> &Totals,
               const char *Name, double Scale, bool Inclusive) {
  auto It = Totals.find(Name);
  if (It == Totals.end() || It->second.Calls == 0)
    return 0.0;
  const Tracer::Totals &T = It->second;
  return (Inclusive ? T.TotalMs : T.SelfMs) * Scale /
         static_cast<double>(T.Calls);
}

size_t calls(const std::map<std::string, Tracer::Totals> &Totals,
             const char *Name) {
  auto It = Totals.find(Name);
  return It == Totals.end() ? 0 : It->second.Calls;
}

SetupReplay replaySetup(Tracer &T, size_t CorpusFiles, int NGramOrder) {
  SetupReplay S;
  {
    Tracer::Scope Span(T, "githubsim.mine");
    githubsim::GithubSimOptions G;
    G.FileCount = CorpusFiles;
    S.Files = githubsim::mineGithub(G);
  }
  corpus::Corpus C;
  {
    Tracer::Scope Span(T, "corpus.ingest");
    C = corpus::buildCorpus(S.Files, corpus::CorpusOptions());
  }
  {
    Tracer::Scope Span(T, "model.train");
    model::NGramOptions Opts;
    Opts.Order = NGramOrder;
    S.Model = std::make_unique<model::NGramModel>(Opts);
    S.Model->train(C.Entries);
  }
  return S;
}

SynthesisReplay replaySynthesis(Tracer &T, model::LanguageModel &Model,
                                const runtime::Platform &P,
                                const core::StreamingOptions &Opts) {
  SynthesisReplay Out;
  const core::SynthesisOptions &S = Opts.Synthesis;
  CountingModel Counting(Model);
  Rng Base(S.Seed);
  Rng DriverBase(Opts.Driver.Seed);
  const std::string Seed =
      S.Spec ? S.Spec->seedText() : core::freeModeSeed();
  const size_t MaxAttempts =
      S.MaxAttempts > 0 ? S.MaxAttempts : S.TargetKernels * 100;
  corpus::FilterOptions Filter;
  Filter.UseShim = false;
  std::unordered_set<std::string> Dedup;
  size_t Accepted = 0, Succeeded = 0;
  core::SynthesisStats &St = Out.Result.Stats;

  // Without refill the engine stops at TargetKernels accepted; with
  // refill, replacement rounds run until TargetKernels measurements
  // succeed. Measuring each kernel as it is accepted reaches the same
  // stop point: every refill round asks for exactly the shortfall, so
  // the run ends on the accept that brings successes to the target.
  auto Done = [&] {
    return Opts.RefillFailures ? Succeeded >= S.TargetKernels
                               : Accepted >= S.TargetKernels;
  };
  for (size_t I = 0; I < MaxAttempts && !Done(); ++I) {
    ++St.Attempts;
    Rng R = Base.split(I);
    std::optional<std::string> Sample;
    {
      Tracer::Scope Span(T, "model.sample");
      Sample = core::sampleKernel(Counting, Seed, S.Sampling, R);
    }
    if (!Sample) {
      ++St.IncompleteSamples;
      continue;
    }
    corpus::FilterResult FR;
    {
      Tracer::Scope Span(T, "corpus.filter");
      FR = corpus::filterContentFile(*Sample, Filter);
    }
    if (!FR.Accepted) {
      ++St.RejectedByFilter;
      ++Out.Rejections[static_cast<size_t>(FR.Reason)];
      continue;
    }
    std::string Normalised;
    {
      Tracer::Scope Span(T, "corpus.rename_print");
      corpus::renameIdentifiers(*FR.Prog);
      Normalised = ocl::printProgram(*FR.Prog);
    }
    if (!Dedup.insert(Normalised).second) {
      ++St.Duplicates;
      continue;
    }
    size_t Index = Accepted++;
    ++St.Accepted;
    core::SynthesizedKernel K;
    K.Source = std::move(Normalised);
    K.Kernel = std::move(FR.Kernels.front());
    Result<runtime::Measurement> M = measureTraced(
        T, K.Kernel, P, runtime::batchDriverOptions(Opts.Driver, DriverBase,
                                                    Index),
        Out);
    if (M.ok())
      ++Succeeded;
    else
      ++Out.KernelFails;
    if (M.ok() || !Opts.RefillFailures) {
      Out.Result.Kernels.push_back(std::move(K));
      Out.Result.Measurements.push_back(std::move(M));
    }
  }
  Out.SampledChars = Counting.Draws;
  return Out;
}

void addLayerMetrics(Report &R, const Tracer &T, const SynthesisReplay &S,
                     const core::StreamingResult &Reference, double ReplayMs,
                     double TimedMs) {
  auto Tot = T.totals();
  const core::SynthesisStats &St = S.Result.Stats;
  auto Add = [&](const char *Name, const char *Unit, double V, size_t N) {
    R.add(Name, Unit, V, N, true);
  };
  Add("githubsim.mine_ms", "ms", perCall(Tot, "githubsim.mine", 1.0),
      calls(Tot, "githubsim.mine"));
  Add("corpus.ingest_ms", "ms", perCall(Tot, "corpus.ingest", 1.0),
      calls(Tot, "corpus.ingest"));
  Add("corpus.filter_us", "us", perCall(Tot, "corpus.filter", 1e3),
      calls(Tot, "corpus.filter"));
  Add("corpus.rename_print_us", "us",
      perCall(Tot, "corpus.rename_print", 1e3),
      calls(Tot, "corpus.rename_print"));
  static const char *const RejectNames[7] = {
      nullptr,    "corpus.reject.preprocessor", "corpus.reject.syntax",
      "corpus.reject.semantic", "corpus.reject.lowering",
      "corpus.reject.no_kernel", "corpus.reject.too_few_instructions"};
  for (size_t I = 1; I < 7; ++I)
    Add(RejectNames[I], "count", static_cast<double>(S.Rejections[I]),
        St.Attempts);
  Add("model.train_ms", "ms", perCall(Tot, "model.train", 1.0),
      calls(Tot, "model.train"));
  Add("model.sample_us", "us", perCall(Tot, "model.sample", 1e3),
      calls(Tot, "model.sample"));
  double SampleS = Tot.count("model.sample")
                       ? Tot.at("model.sample").SelfMs / 1e3
                       : 0.0;
  Add("model.chars_per_s", "1/s",
      SampleS > 0.0 ? static_cast<double>(S.SampledChars) / SampleS : 0.0,
      calls(Tot, "model.sample"));
  Add("clgen.attempts", "count", static_cast<double>(St.Attempts), 1);
  Add("clgen.incomplete", "count",
      static_cast<double>(St.IncompleteSamples), 1);
  Add("clgen.duplicates", "count", static_cast<double>(St.Duplicates), 1);
  Add("clgen.accept_ratio", "ratio", St.acceptanceRate(),
      St.Attempts);
  Add("clgen.producer_ms", "ms", Reference.SynthesisWallMs, 1);
  Add("clgen.drain_ms", "ms", Reference.DrainWallMs, 1);
  Add("runtime.launch_ms", "ms",
      perCall(Tot, "runtime.launch", 1.0, /*Inclusive=*/true),
      calls(Tot, "runtime.launch"));
  Add("runtime.kernel_fail_count", "count",
      static_cast<double>(S.KernelFails), calls(Tot, "runtime.launch"));
  Add("vm.instructions", "count", S.ExecutedInstructions,
      calls(Tot, "vm.launch"));
  Add("vm.ns_per_instr", "ns",
      S.ExecutedInstructions > 0.0 ? S.OkLaunchMs * 1e6 / S.ExecutedInstructions
                                   : 0.0,
      calls(Tot, "vm.launch"));
  double OtherMs = 0.0;
  size_t Sections = 0;
  for (const auto &[Name, Totals] : Tot)
    if (isSection(Name)) {
      OtherMs += Totals.SelfMs;
      Sections += Totals.Calls;
    }
  Add("other_ms", "ms", OtherMs, Sections);
  Add("trace.replay_ms", "ms", ReplayMs, 1);
  Add("trace.timed_ms", "ms", TimedMs, 1);
}

void printLayerTable(const Tracer &T) {
  double Wall = 0.0, Rows = 0.0, Other = 0.0;
  std::printf("layer self time over the traced sections:\n");
  for (const auto &[Name, Totals] : T.totals()) {
    if (isSection(Name)) {
      Wall += Totals.TotalMs;
      Other += Totals.SelfMs;
      continue;
    }
    Rows += Totals.SelfMs;
    std::printf("  %-24s %10.3f ms  %7zu calls  %10.3f us/call\n",
                Name.c_str(), Totals.SelfMs, Totals.Calls,
                Totals.SelfMs * 1e3 / static_cast<double>(Totals.Calls));
  }
  std::printf("  %-24s %10.3f ms\n", "other (no span)", Other);
  std::printf("  rows + other = %.3f ms; traced section wall = %.3f ms\n",
              Rows + Other, Wall);
}

} // namespace perfbench
