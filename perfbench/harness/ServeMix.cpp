//===- perfbench/harness/ServeMix.cpp - serve-mix workload ----------------===//
//
// Part of the CLgen reproduction. MIT license.
//
// An operator's view of clgen-serve: the shipped daemon on a fresh
// store, one client in a closed loop over the real Unix socket. A
// seeded schedule puts one cold request (a pool seed not served yet)
// at a random position in every block of nine; the other eight repeat
// seeds already served (warm: zero sampling, store and protocol only).
// One client only: concurrent distinct requests are not yet safe to
// benchmark against the daemon.
//
//===----------------------------------------------------------------------===//

#include "HostSpeed.h"
#include "Replay.h"
#include "Workloads.h"

#include "serve/Client.h"
#include "serve/Server.h"
#include "store/ResultCache.h"
#include "support/Rng.h"

#include <cerrno>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace clgen;

namespace perfbench {

namespace {

constexpr int SetupRepeats = 5;
constexpr size_t MinCold = 20;
constexpr size_t MinWarm = 100;
constexpr size_t BlockSize = 9; // 1 cold : 8 warm.
/// Stop sending even if the minimum counts are not met yet, so the run
/// ends well inside its time limit on a slow host.
constexpr double HardCapMs = 120e3;
constexpr int TracedWarmProbes = 20;
constexpr int TracedCacheLookups = 200;

serve::SynthesizeRequest requestFor(uint64_t Seed) {
  serve::SynthesizeRequest Req;
  Req.TargetKernels = ServeRequestKernels;
  Req.Seed = Seed;
  Req.Temperature = 0.5;
  return Req;
}

uint64_t digestResponse(const serve::SynthesizeResponse &Resp) {
  OutputDigest D;
  for (size_t I = 0; I < Resp.Sources.size(); ++I) {
    const serve::MeasurementRow &M = Resp.Measurements[I];
    D.addKernel(Resp.Sources[I], M.Ok, M.CpuTime, M.GpuTime, M.Error);
  }
  return D.value();
}

bool sameRows(const serve::SynthesizeResponse &A,
              const serve::SynthesizeResponse &B) {
  if (A.Sources != B.Sources || A.KernelSetDigest != B.KernelSetDigest ||
      A.Measurements.size() != B.Measurements.size())
    return false;
  for (size_t I = 0; I < A.Measurements.size(); ++I) {
    const serve::MeasurementRow &X = A.Measurements[I], &Y = B.Measurements[I];
    if (X.Ok != Y.Ok || std::memcmp(&X.CpuTime, &Y.CpuTime, 8) != 0 ||
        std::memcmp(&X.GpuTime, &Y.GpuTime, 8) != 0 || X.Error != Y.Error)
      return false;
  }
  return true;
}

/// A cold response must carry the pinned kernel set and verdicts.
bool checkCold(Report &R, const SeedReference &Ref,
               const Result<serve::SynthesizeResponse> &Resp) {
  ++R.Attempted;
  if (!Resp.ok()) {
    R.fail("serve-mix cold request seed " + std::to_string(Ref.Seed) + ": " +
           Resp.errorMessage());
    return false;
  }
  uint64_t Digest = digestResponse(Resp.get());
  if (!Resp.get().WarmKernels && Digest == Ref.ServeDigest)
    return true;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "serve-mix cold request seed %" PRIu64 ": %zu kernels, %s, "
                "digest %016" PRIx64 " (want %016" PRIx64 ")",
                Ref.Seed, Resp.get().Sources.size(),
                Resp.get().WarmKernels ? "served warm" : "served cold", Digest,
                Ref.ServeDigest);
  R.fail(Buf);
  return false;
}

/// A warm response must equal the cold response for its seed and must
/// not have sampled.
bool checkWarm(Report &R, uint64_t Seed, const serve::SynthesizeResponse &Cold,
               const Result<serve::SynthesizeResponse> &Resp) {
  ++R.Attempted;
  if (!Resp.ok()) {
    R.fail("serve-mix warm request seed " + std::to_string(Seed) + ": " +
           Resp.errorMessage());
    return false;
  }
  if (Resp.get().WarmKernels && Resp.get().SampleAttempts == 0 &&
      sameRows(Resp.get(), Cold))
    return true;
  R.fail("serve-mix warm request seed " + std::to_string(Seed) +
         (Resp.get().WarmKernels ? " differs from its cold response"
                                 : " was not served warm"));
  return false;
}

/// One clgen-serve daemon child process.
class Daemon {
public:
  Daemon(const std::string &Socket, const std::string &Store,
         const std::string &Log)
      : Socket(Socket) {
    Pid = ::fork();
    if (Pid == 0) {
      int Fd = ::open(Log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (Fd >= 0) {
        ::dup2(Fd, STDOUT_FILENO);
        ::dup2(Fd, STDERR_FILENO);
      }
      ::execl(PERFBENCH_SERVE_BIN, "clgen-serve", "daemon", "--socket",
              Socket.c_str(), "--store-dir", Store.c_str(),
              static_cast<char *>(nullptr));
      ::_exit(127);
    }
  }
  ~Daemon() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      reap();
    }
  }
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool spawned() const { return Pid > 0; }

  /// Connects once the daemon listens; fails if it exits first.
  Result<serve::Client> connect() {
    Clock::time_point T0 = Clock::now();
    while (msSince(T0) < 60e3) {
      auto C = serve::Client::connect(Socket);
      if (C.ok())
        return C;
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return Result<serve::Client>::error("daemon exited before listening");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Result<serve::Client>::error("daemon did not listen within 60 s");
  }

  /// CPU time the daemon has used so far (all its threads), in ms;
  /// negative when it cannot be read.
  double cpuMs() const {
    clockid_t Clock;
    timespec T;
    if (Pid <= 0 || ::clock_getcpuclockid(Pid, &Clock) != 0 ||
        ::clock_gettime(Clock, &T) != 0)
      return -1.0;
    return static_cast<double>(T.tv_sec) * 1e3 +
           static_cast<double>(T.tv_nsec) / 1e6;
  }

  bool alive() {
    int Status = 0;
    if (Pid > 0 && ::waitpid(Pid, &Status, WNOHANG) == Pid)
      Pid = -1;
    return Pid > 0;
  }

  /// Asks \p C's daemon to drain, waits for it to exit and returns its
  /// peak resident set in MiB (0 when it did not exit cleanly).
  double shutdown(serve::Client &C) {
    if (!C.shutdown().ok() && Pid > 0)
      ::kill(Pid, SIGTERM);
    return reap();
  }

private:
  double reap() {
    if (Pid <= 0)
      return 0.0;
    int Status = 0;
    struct rusage U;
    std::memset(&U, 0, sizeof(U));
    pid_t Got;
    do
      Got = ::wait4(Pid, &Status, 0, &U);
    while (Got < 0 && errno == EINTR);
    Pid = -1;
    bool Clean = Got > 0 && WIFEXITED(Status) && WEXITSTATUS(Status) == 0;
    return Clean ? static_cast<double>(U.ru_maxrss) / 1024.0 : 0.0;
  }

  std::string Socket;
  pid_t Pid = -1;
};

std::string freshDir(const std::string &Path) {
  std::error_code Ec;
  std::filesystem::remove_all(Path, Ec);
  std::filesystem::create_directories(Path, Ec);
  return Path;
}

Report runTraced(const RunConfig &Cfg, const std::vector<SeedReference> &Refs,
                 const std::vector<size_t> &Order) {
  Report R;
  Tracer T;
  const runtime::Platform P = runtime::amdPlatform();
  SetupReplay S;
  {
    Tracer::Scope Section(T, "section.setup");
    S = replaySetup(T, SynthCorpusFiles, SynthNGramOrder);
  }

  serve::ServerConfig SCfg;
  SCfg.SocketPath = Cfg.WorkDir + "/traced.sock";
  SCfg.StoreDir = freshDir(Cfg.WorkDir + "/traced-store");
  serve::Server Server(SCfg);
  Status Up = Server.start();
  if (!Up.ok()) {
    R.fail("in-process server: " + Up.errorMessage());
    return R;
  }
  struct Drain {
    serve::Server &S;
    ~Drain() {
      S.requestDrain();
      S.wait();
    }
  } DrainGuard{Server};
  auto Conn = serve::Client::connect(SCfg.SocketPath);
  if (!Conn.ok()) {
    R.fail("connect to in-process server: " + Conn.errorMessage());
    return R;
  }
  serve::Client &C = Conn.get();

  // The first request trains the server's model; the second is the
  // cold request the replay describes.
  const SeedReference &First = Refs[Order[0]];
  checkCold(R, First, C.synthesize(requestFor(First.Seed)));
  const SeedReference &Ref = Refs[Order[1]];
  Clock::time_point T0 = Clock::now();
  Result<serve::SynthesizeResponse> Cold = C.synthesize(requestFor(Ref.Seed));
  double ColdMs = msSince(T0);
  if (!checkCold(R, Ref, Cold))
    return R;

  core::StreamingOptions Opts = serveStreamingOptions(Ref.Seed);
  core::StreamingResult Timed = core::synthesizeAndMeasure(*S.Model, P, Opts);

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
      digestStreaming(Rep.Result) != Ref.ServeDigest)
    R.fail("serve-mix replay diverged from the cold request: " +
           formatStats(Rep.Result.Stats) + " vs " + formatStats(Timed.Stats));
  std::printf("replay of cold request seed %" PRIu64 ": %s\n", Ref.Seed,
              formatStats(Rep.Result.Stats).c_str());
  std::printf("replay wall %.1f ms vs cold round trip %.1f ms\n", ReplayMs,
              ColdMs);

  // Warm path: round trips through the socket, the same request handed
  // to the in-process server directly, and the store's warm loads.
  serve::SynthesizeResponse LastWarm;
  {
    Tracer::Scope Section(T, "section.warm");
    for (int I = 0; I < TracedWarmProbes; ++I) {
      Result<serve::SynthesizeResponse> W = [&] {
        Tracer::Scope Span(T, "serve.round_trip");
        return C.synthesize(requestFor(Ref.Seed));
      }();
      if (checkWarm(R, Ref.Seed, Cold.get(), W))
        LastWarm = W.get();
      Result<serve::SynthesizeResponse> D = [&] {
        Tracer::Scope Span(T, "serve.server");
        return Server.synthesize(requestFor(Ref.Seed));
      }();
      checkWarm(R, Ref.Seed, Cold.get(), D);
    }

    core::TrainOrLoadInfo Info;
    Result<core::ClgenPipeline> Loaded = [&] {
      Tracer::Scope Span(T, "store.model_load");
      return core::ClgenPipeline::trainOrLoad(SCfg.StoreDir, S.Files,
                                              synthPipelineOptions(), &Info);
    }();
    ++R.Attempted;
    if (!Loaded.ok() || !Info.LoadedModel) {
      R.fail("warm trainOrLoad did not load the daemon's model");
      return R;
    }
    bool SetLoaded = false;
    core::SynthesisResult Set = [&] {
      Tracer::Scope Span(T, "store.kernelset_load");
      return Loaded.get().synthesizeOrLoad(SCfg.StoreDir, Opts.Synthesis,
                                           &SetLoaded);
    }();
    ++R.Attempted;
    if (!SetLoaded || Set.Kernels.size() != Timed.Kernels.size())
      R.fail("warm synthesizeOrLoad did not load the persisted kernel set");

    // A measurement-cache hit on a kernel the cold request measured.
    store::ResultCache Cache(SCfg.StoreDir + "/results");
    Rng DriverBase(Opts.Driver.Seed);
    std::optional<uint64_t> Key;
    for (size_t I = 0; I < Timed.Kernels.size() && !Key; ++I)
      if (Timed.Measurements[I].ok())
        Key = store::measurementKey(
            Timed.Kernels[I].Kernel,
            runtime::batchDriverOptions(Opts.Driver, DriverBase, I), P);
    ++R.Attempted;
    if (!Key || !Cache.lookup(*Key)) {
      R.fail("no measurement-cache hit for the cold request's kernels");
    } else {
      for (int I = 0; I < TracedCacheLookups; ++I) {
        Tracer::Scope Span(T, "store.cache_lookup");
        (void)Cache.lookup(*Key);
      }
    }
  }

  printLayerTable(T);
  addLayerMetrics(R, T, Rep, Timed, ReplayMs, ColdMs);
  auto Tot = T.totals();
  auto Ms = [&](const char *Name) { return perCall(Tot, Name, 1.0, true); };
  R.add("store.model_load_ms", "ms", Ms("store.model_load"), 1, false,
        "warm trainOrLoad");
  R.add("store.kernelset_load_ms", "ms", Ms("store.kernelset_load"), 1,
        false, "warm synthesizeOrLoad");
  R.add("store.cache_lookup_us", "us", Ms("store.cache_lookup") * 1e3,
        TracedCacheLookups, false, "ResultCache::lookup hit");
  R.add("store.cache_hits", "count", static_cast<double>(LastWarm.CacheHits),
        1, false, "per warm request");
  R.add("store.ledger_hits", "count", static_cast<double>(LastWarm.LedgerHits),
        1, false, "per warm request");
  R.add("serve.server_ms", "ms", Ms("serve.server"), TracedWarmProbes, false,
        "warm Server::synthesize, in-process");
  R.add("serve.protocol_ms", "ms",
        Ms("serve.round_trip") - Ms("serve.server"), TracedWarmProbes, false,
        "warm round trip minus serve.server_ms");
  R.add("serve.sample_attempts", "count",
        static_cast<double>(Cold.get().SampleAttempts), 1, false,
        "cold response provenance");
  std::string TracePath =
      Cfg.TraceDir + "/serve-mix-" + std::to_string(Cfg.Seed) + ".json";
  if (T.writeJson(TracePath))
    std::printf("spans written to %s\n", TracePath.c_str());
  return R;
}

} // namespace

Report runServeMix(const RunConfig &Cfg,
                   const std::vector<SeedReference> &Refs) {
  if (Cfg.Trace)
    return runTraced(Cfg, Refs, poolOrder(Cfg.Seed, Refs.size()));

  // Cold requests visit the pool in the same order on every run, so the
  // cold timings of two runs describe the same work; the run seed sets
  // the schedule (where each block's cold request falls and which
  // served seeds the warm requests repeat).
  std::vector<size_t> Order(Refs.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;

  Report R;
  std::vector<double> SetupS, SetupWallS;
  std::optional<Daemon> D;
  std::optional<serve::Client> C;
  // Cold responses by pool index: the references warm requests must
  // reproduce.
  std::map<size_t, serve::SynthesizeResponse> Served;
  std::vector<size_t> ServedOrder;
  double PeakRssMb = 0.0;

  HostSpeed Host;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    Host.sample();
    std::string Store =
        freshDir(Cfg.WorkDir + "/store-" + std::to_string(Rep));
    std::string Socket =
        Cfg.WorkDir + "/serve-" + std::to_string(Rep) + ".sock";
    const SeedReference &Ref = Refs[Order[0]];
    Clock::time_point T0 = Clock::now();
    D.emplace(Socket, Store, Cfg.WorkDir + "/daemon.log");
    if (!D->spawned()) {
      R.fail("cannot fork the clgen-serve daemon");
      return R;
    }
    Result<serve::Client> Conn = D->connect();
    if (!Conn.ok()) {
      R.fail("clgen-serve daemon: " + Conn.errorMessage());
      return R;
    }
    Result<serve::SynthesizeResponse> First =
        Conn.get().synthesize(requestFor(Ref.Seed));
    SetupWallS.push_back(msSince(T0) / 1e3);
    SetupS.push_back(D->cpuMs() / 1e3);
    if (!checkCold(R, Ref, First))
      return R;
    if (SetupS.back() < 0.0) {
      R.fail("cannot read the clgen-serve daemon's CPU time");
      return R;
    }
    if (Rep + 1 < SetupRepeats) {
      D->shutdown(Conn.get());
      continue;
    }
    C.emplace(Conn.take());
    Served[Order[0]] = First.get();
    ServedOrder.push_back(Order[0]);
  }

  Rng Schedule(Cfg.Seed ^ 0x5E4E3A11ull);
  size_t NextCold = 1;
  std::vector<double> ColdMs, WarmMs, ColdCpuMs, WarmCpuMs;
  Clock::time_point Start = Clock::now();
  bool Broken = false;
  while (!Broken && NextCold < Order.size() && msSince(Start) < HardCapMs &&
         (msSince(Start) < Cfg.Seconds * 1e3 || ColdMs.size() < MinCold ||
          WarmMs.size() < MinWarm)) {
    size_t ColdSlot = Schedule.bounded(BlockSize);
    for (size_t Slot = 0; Slot < BlockSize && !Broken; ++Slot) {
      if (Slot == ColdSlot) {
        size_t Index = Order[NextCold++];
        const SeedReference &Ref = Refs[Index];
        double C0 = D->cpuMs();
        Clock::time_point T0 = Clock::now();
        Result<serve::SynthesizeResponse> Resp =
            C->synthesize(requestFor(Ref.Seed));
        double Ms = msSince(T0);
        if (checkCold(R, Ref, Resp)) {
          ColdMs.push_back(Ms);
          ColdCpuMs.push_back(D->cpuMs() - C0);
          Served[Index] = Resp.get();
          ServedOrder.push_back(Index);
        }
      } else {
        size_t Index = ServedOrder[Schedule.bounded(ServedOrder.size())];
        uint64_t Seed = Refs[Index].Seed;
        double C0 = D->cpuMs();
        Clock::time_point T0 = Clock::now();
        Result<serve::SynthesizeResponse> Resp =
            C->synthesize(requestFor(Seed));
        double Ms = msSince(T0);
        if (checkWarm(R, Seed, Served[Index], Resp)) {
          WarmMs.push_back(Ms);
          WarmCpuMs.push_back(D->cpuMs() - C0);
        }
      }
      if (!D->alive()) {
        R.fail("clgen-serve daemon exited during the run");
        Broken = true;
      }
      Host.maybeSample();
    }
  }
  if (!Broken) {
    PeakRssMb = D->shutdown(*C);
    if (PeakRssMb == 0.0)
      R.fail("clgen-serve daemon did not drain and exit cleanly");
  }
  if (ColdMs.size() < MinCold || WarmMs.size() < MinWarm)
    std::fprintf(stderr,
                 "perfbench: only %zu cold / %zu warm requests completed "
                 "(want at least %zu / %zu)\n",
                 ColdMs.size(), WarmMs.size(), MinCold, MinWarm);

  addScaled(R, Host, "setup_s", "s", median(SetupS), SetupS.size(), false,
            "daemon CPU time from spawn to first response (includes model "
            "training)");
  addScaled(R, Host, "op_cpu_ms", "ms", median(WarmCpuMs), WarmCpuMs.size(),
            false, "daemon CPU time per warm request, median");
  addScaled(R, Host, "kernels_per_cpu_s", "1/s",
            ServeRequestKernels / (median(ColdCpuMs) / 1e3), ColdCpuMs.size(),
            true, "kernels a cold request delivers per daemon CPU second, "
                  "at its median");
  R.add("peak_rss_mb", "MiB", PeakRssMb, 1, true, "daemon VmHWM");
  R.add("serve.setup_wall_s", "s", median(SetupWallS), SetupWallS.size(),
        false, "daemon spawn to first response, wall");
  R.add("serve.warm_p50_ms", "ms", median(WarmMs), WarmMs.size(), false,
        "warm request round trip");
  addHostSpeed(R, Host);
  R.add("serve.cold_p50_ms", "ms", median(ColdMs), ColdMs.size(), false,
        "cold request round trip");
  R.add("serve.warm_p90_ms", "ms", percentile(WarmMs, 0.9), WarmMs.size(),
        false, "warm request round trip");
  addTail(R, "serve.warm_tail_ms", WarmMs);
  addTail(R, "serve.cold_tail_ms", ColdMs);
  return R;
}

} // namespace perfbench
