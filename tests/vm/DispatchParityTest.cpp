//===- tests/vm/DispatchParityTest.cpp - dispatch trap-parity tests -----------===//
//
// The VM's trap-parity contract: Switch (the reference loop over raw
// bytecode) and Threaded (the dispatch-resolved execution form) must be
// observationally identical — byte-identical survivor buffers, ExecCounters
// equal field for field, and on failure the same TrapKind with the same
// detail string. Dispatch is excluded from measurement cache keys on the
// strength of this contract, so these tests are what make that exclusion
// sound. Coverage: a catalog of well-formed kernels over randomized
// payloads, one kernel per trap class, the launch-time Aux-range
// validation (out-of-range enum payloads must be TrapKind::BadLaunch in
// every mode, never undefined behavior in a specialized handler), and a
// unit test of prepareExecProgram's slot mapping.
//
//===----------------------------------------------------------------------===//

#include "vm/Compiler.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace clgen;
using namespace clgen::vm;

namespace {

const DispatchMode AllModes[] = {DispatchMode::Switch, DispatchMode::Threaded,
                                 DispatchMode::Auto};

CompiledKernel compile(const std::string &Src) {
  auto R = compileFirstKernel(Src);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.errorMessage());
  return R.ok() ? R.take() : CompiledKernel();
}

LaunchConfig config1D(size_t Global, size_t Local) {
  LaunchConfig C;
  C.GlobalSize[0] = Global;
  C.LocalSize[0] = Local;
  return C;
}

/// Deterministic pseudo-random payload (xorshift; no global RNG state so
/// every mode replays the identical bytes).
BufferData randomBuffer(size_t Elements, uint8_t ElemWidth, uint64_t Seed) {
  BufferData B = BufferData::zeros(Elements, ElemWidth);
  uint64_t S = Seed * 2654435769u + 1;
  for (double &D : B.Data) {
    S ^= S << 13;
    S ^= S >> 7;
    S ^= S << 17;
    // Small integral doubles: valid as float data, as int data and as
    // in-range indices alike.
    D = static_cast<double>(S % 64);
  }
  return B;
}

/// Everything observable about one launch, copied out so runs in
/// different modes can be compared after the fact.
struct Observed {
  bool Ok = false;
  ExecCounters C;
  TrapKind Trap = TrapKind::None;
  std::string Error;
  std::vector<BufferData> Bufs;
};

Observed runMode(const CompiledKernel &K, const std::vector<KernelArg> &Args,
                 const std::vector<BufferData> &Input, LaunchConfig Config,
                 DispatchMode Mode) {
  Observed O;
  O.Bufs = Input; // Fresh copy: every mode starts from identical bytes.
  Config.Dispatch = Mode;
  auto R = launchKernel(K, Args, O.Bufs, Config);
  O.Ok = R.ok();
  O.Trap = R.trap();
  if (R.ok())
    O.C = R.get();
  else
    O.Error = R.errorMessage();
  return O;
}

/// Field-for-field ExecCounters equality; a plain memcmp would hide
/// which counter drifted.
void expectCountersEqual(const ExecCounters &A, const ExecCounters &B) {
  EXPECT_EQ(A.Instructions, B.Instructions);
  EXPECT_EQ(A.ComputeOps, B.ComputeOps);
  EXPECT_EQ(A.MathCalls, B.MathCalls);
  EXPECT_EQ(A.GlobalLoads, B.GlobalLoads);
  EXPECT_EQ(A.GlobalStores, B.GlobalStores);
  EXPECT_EQ(A.CoalescedGlobal, B.CoalescedGlobal);
  EXPECT_EQ(A.LocalAccesses, B.LocalAccesses);
  EXPECT_EQ(A.PrivateAccesses, B.PrivateAccesses);
  EXPECT_EQ(A.Branches, B.Branches);
  EXPECT_EQ(A.AtomicOps, B.AtomicOps);
  EXPECT_EQ(A.Barriers, B.Barriers);
  EXPECT_EQ(A.ItemsTotal, B.ItemsTotal);
  EXPECT_EQ(A.ItemsExecuted, B.ItemsExecuted);
  EXPECT_EQ(A.Divergence, B.Divergence);
}

/// Launches \p K in every dispatch mode and asserts the full parity
/// contract against the Switch reference run.
void expectParity(const CompiledKernel &K, const std::vector<KernelArg> &Args,
                  const std::vector<BufferData> &Input,
                  const LaunchConfig &Config) {
  Observed Ref = runMode(K, Args, Input, Config, DispatchMode::Switch);
  for (DispatchMode Mode : {DispatchMode::Threaded, DispatchMode::Auto}) {
    SCOPED_TRACE(std::string("dispatch mode ") + dispatchModeName(Mode));
    Observed Got = runMode(K, Args, Input, Config, Mode);
    EXPECT_EQ(Ref.Ok, Got.Ok) << (Ref.Ok ? Got.Error : Ref.Error);
    EXPECT_EQ(Ref.Trap, Got.Trap)
        << trapKindName(Ref.Trap) << " vs " << trapKindName(Got.Trap);
    EXPECT_EQ(Ref.Error, Got.Error);
    if (Ref.Ok && Got.Ok)
      expectCountersEqual(Ref.C, Got.C);
    ASSERT_EQ(Ref.Bufs.size(), Got.Bufs.size());
    for (size_t I = 0; I < Ref.Bufs.size(); ++I)
      EXPECT_EQ(Ref.Bufs[I].Data, Got.Bufs[I].Data) << "buffer " << I;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Successful launches: byte-identical results + counters on a kernel
// catalog.
//===----------------------------------------------------------------------===//

TEST(DispatchParityTest, KernelCatalogParity) {
  // Each entry leans on a different part of the threaded loop: constant
  // arithmetic and stores (scale), chained loads (stencil), compare-
  // branches (guards, loops), expression trees, casts and builtins, and
  // loop latches.
  const char *Catalog[] = {
      // Constant arithmetic, stores, mov chains.
      "__kernel void A(__global float* a) {\n"
      "  int i = get_global_id(0);\n"
      "  a[i] = a[i] * 2.0f + 1.0f;\n"
      "}",
      // Guarded saxpy: compare feeding a conditional branch.
      "__kernel void A(__global float* x, __global float* y, const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  if (i < n) { y[i] = y[i] + 3.0f * x[i]; }\n"
      "}",
      // Loop with latch, reduction, integer ops.
      "__kernel void A(__global float* a, __global float* o, const int n) {\n"
      "  float s = 0.0f;\n"
      "  int parity = 0;\n"
      "  for (int i = 0; i < n; i++) { s += a[i]; parity = (parity + i) % 7; }\n"
      "  o[get_global_id(0)] = s + parity;\n"
      "}",
      // Builtins: casts, calls, math-call accounting.
      "__kernel void A(__global float* a) {\n"
      "  int i = get_global_id(0);\n"
      "  float v = a[i];\n"
      "  a[i] = sqrt(fabs(v)) + (float)max((int)v, 3);\n"
      "}",
      // Divergent control flow: per-site branch stats must agree.
      "__kernel void A(__global float* a, const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  if (i % 3 == 0) { a[i] = a[i] * 2.0f; }\n"
      "  else if (i % 3 == 1) { a[i] = a[i] - 5.0f; }\n"
      "  else { a[i] = (float)(n - i); }\n"
      "}",
  };
  for (size_t KI = 0; KI < sizeof(Catalog) / sizeof(Catalog[0]); ++KI) {
    SCOPED_TRACE("catalog kernel " + std::to_string(KI));
    CompiledKernel K = compile(Catalog[KI]);
    size_t NumBufs = K.bufferParamCount();
    for (uint64_t Seed = 1; Seed <= 3; ++Seed) {
      SCOPED_TRACE("seed " + std::to_string(Seed));
      std::vector<BufferData> Bufs;
      std::vector<KernelArg> Args;
      for (size_t B = 0; B < NumBufs; ++B) {
        Bufs.push_back(randomBuffer(64, 1, Seed * 17 + B));
        Args.push_back(KernelArg::buffer(static_cast<int>(B)));
      }
      if (K.Params.size() > NumBufs)
        Args.push_back(KernelArg::scalar(16));
      expectParity(K, Args, Bufs, config1D(32, 8));
    }
  }
}

TEST(DispatchParityTest, VectorLocalAndAtomicKernels) {
  // Vector lanes, __local + barrier phases and atomics all bypass the
  // scalar fast paths of the threaded loop; parity must hold there too.
  CompiledKernel Vec = compile(
      "__kernel void A(__global float4* a) {\n"
      "  int i = get_global_id(0);\n"
      "  float4 v = a[i];\n"
      "  a[i] = v.wzyx * 2.0f;\n"
      "}");
  expectParity(Vec, {KernelArg::buffer(0)}, {randomBuffer(16, 4, 5)},
               config1D(16, 4));

  CompiledKernel Loc = compile(
      "__kernel void A(__global float* a, __local float* tmp) {\n"
      "  int l = get_local_id(0);\n"
      "  int i = get_global_id(0);\n"
      "  tmp[l] = a[i];\n"
      "  barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  a[i] = tmp[get_local_size(0) - 1 - l];\n"
      "}");
  expectParity(Loc, {KernelArg::buffer(0), KernelArg::localSize(8)},
               {randomBuffer(32, 1, 6)}, config1D(32, 8));

  CompiledKernel Hist = compile(
      "__kernel void A(__global int* hist, __global int* data) {\n"
      "  atomic_add(&hist[data[get_global_id(0)] % 8], 1);\n"
      "}");
  expectParity(Hist, {KernelArg::buffer(0), KernelArg::buffer(1)},
               {BufferData::zeros(8, 1), randomBuffer(32, 1, 7)},
               config1D(32, 8));
}

//===----------------------------------------------------------------------===//
// Trap classes: same TrapKind, same detail string, in every mode.
//===----------------------------------------------------------------------===//

TEST(DispatchParityTest, OutOfBoundsTrapParity) {
  CompiledKernel K = compile(
      "__kernel void A(__global float* a) {\n"
      "  a[get_global_id(0) + 100] = 1.0f;\n"
      "}");
  expectParity(K, {KernelArg::buffer(0)}, {randomBuffer(4, 1, 1)},
               config1D(4, 4));
  Observed O = runMode(K, {KernelArg::buffer(0)}, {randomBuffer(4, 1, 1)},
                       config1D(4, 4), DispatchMode::Threaded);
  EXPECT_EQ(O.Trap, TrapKind::OutOfBounds);
}

TEST(DispatchParityTest, DivByZeroTrapParity) {
  // The divisor arrives via buffer data, so the threaded DivI handler
  // (not the compiler) must raise the trap.
  CompiledKernel K = compile(
      "__kernel void A(__global int* a, __global int* d) {\n"
      "  int i = get_global_id(0);\n"
      "  a[i] = a[i] / d[i];\n"
      "}");
  LaunchConfig C = config1D(4, 4);
  C.TrapDivZero = true;
  expectParity(K, {KernelArg::buffer(0), KernelArg::buffer(1)},
               {randomBuffer(4, 1, 2), BufferData::zeros(4, 1)}, C);
  Observed O = runMode(K, {KernelArg::buffer(0), KernelArg::buffer(1)},
                       {randomBuffer(4, 1, 2), BufferData::zeros(4, 1)}, C,
                       DispatchMode::Threaded);
  EXPECT_EQ(O.Trap, TrapKind::DivByZero);

  // Without strict trapping the OpenCL-style silent zero must be the
  // result everywhere instead.
  C.TrapDivZero = false;
  expectParity(K, {KernelArg::buffer(0), KernelArg::buffer(1)},
               {randomBuffer(4, 1, 2), BufferData::zeros(4, 1)}, C);
}

TEST(DispatchParityTest, InstructionBudgetTrapParity) {
  // The budget trap must fire after the same retired-instruction count
  // in every mode, so the detail string (which quotes the count) must
  // match byte for byte.
  CompiledKernel K = compile(
      "__kernel void A(__global float* a) {\n"
      "  while (1) { a[0] = a[0] + 1.0f; }\n"
      "}");
  LaunchConfig C = config1D(1, 1);
  C.MaxInstructions = 9999;
  expectParity(K, {KernelArg::buffer(0)}, {randomBuffer(1, 1, 3)}, C);
  Observed O = runMode(K, {KernelArg::buffer(0)}, {randomBuffer(1, 1, 3)}, C,
                       DispatchMode::Threaded);
  EXPECT_EQ(O.Trap, TrapKind::InstructionBudget);
}

TEST(DispatchParityTest, BarrierDivergenceTrapParity) {
  CompiledKernel K = compile(
      "__kernel void A(__global float* a) {\n"
      "  if (get_local_id(0) < 2) { barrier(CLK_LOCAL_MEM_FENCE); }\n"
      "  a[get_global_id(0)] = 1.0f;\n"
      "}");
  expectParity(K, {KernelArg::buffer(0)}, {randomBuffer(4, 1, 4)},
               config1D(4, 4));
  Observed O = runMode(K, {KernelArg::buffer(0)}, {randomBuffer(4, 1, 4)},
                       config1D(4, 4), DispatchMode::Threaded);
  EXPECT_EQ(O.Trap, TrapKind::BarrierDivergence);
}

TEST(DispatchParityTest, BadLaunchTrapParity) {
  CompiledKernel K = compile(
      "__kernel void A(__global float* a, int n) { a[0] = n; }");
  // Argument-count mismatch fails before execution in every mode.
  for (DispatchMode Mode : AllModes) {
    SCOPED_TRACE(std::string("dispatch mode ") + dispatchModeName(Mode));
    Observed O = runMode(K, {KernelArg::buffer(0)}, {randomBuffer(4, 1, 1)},
                         config1D(1, 1), Mode);
    EXPECT_FALSE(O.Ok);
    EXPECT_EQ(O.Trap, TrapKind::BadLaunch);
  }
  expectParity(K, {KernelArg::buffer(0)}, {randomBuffer(4, 1, 1)},
               config1D(1, 1));
}

TEST(DispatchParityTest, WatchdogTrapParity) {
  // Wall-clock watchdog: the instruction count at abort is timing-
  // dependent, so only the classification (kind + both modes trapping)
  // is asserted, not counters or detail bytes.
  CompiledKernel K = compile(
      "__kernel void A(__global float* a) {\n"
      "  while (1) { a[0] = a[0] + 1.0f; }\n"
      "}");
  LaunchConfig C = config1D(1, 1);
  C.WatchdogMs = 20;
  C.MaxInstructions = ~0ull;
  for (DispatchMode Mode : AllModes) {
    SCOPED_TRACE(std::string("dispatch mode ") + dispatchModeName(Mode));
    std::vector<BufferData> Bufs = {randomBuffer(1, 1, 1)};
    C.Dispatch = Mode;
    auto R = launchKernel(K, {KernelArg::buffer(0)}, Bufs, C);
    ASSERT_FALSE(R.ok());
    EXPECT_EQ(R.trap(), TrapKind::WatchdogTimeout)
        << trapKindName(R.trap()) << ": " << R.errorMessage();
  }
}

//===----------------------------------------------------------------------===//
// Launch-time enum-range validation (the BadLaunch firewall in front of
// the computed-goto table).
//===----------------------------------------------------------------------===//

namespace {

/// A structurally minimal kernel around one instruction with a
/// poisoned enum payload. Never produced by the compiler; models a
/// corrupted or adversarial CompiledKernel arriving at launchKernel.
CompiledKernel poisonedKernel(Opcode Op, uint8_t Aux) {
  CompiledKernel K;
  K.Name = "poisoned";
  K.RegisterCount = 2;
  Instr I;
  I.Op = Op;
  I.Aux = Aux;
  I.Dst = 0;
  I.A = 0;
  I.B = 1;
  K.Code.push_back(I);
  Instr H;
  H.Op = Opcode::Halt;
  K.Code.push_back(H);
  return K;
}

} // namespace

TEST(DispatchParityTest, OutOfRangeAuxIsBadLaunchInEveryMode) {
  // An Aux beyond the enum range must be rejected by launch-time
  // verification as TrapKind::BadLaunch in every dispatch mode. This is
  // load-bearing for threaded dispatch: prepareExecProgram specializes
  // BinOp handlers by adding Aux to BinAdd, so an unvalidated Aux of 200
  // would index the label-address table out of range — undefined
  // behavior, not a diagnostic.
  struct { Opcode Op; uint8_t Aux; } Cases[] = {
      {Opcode::BinOp, 200},                                     // > MaxI
      {Opcode::BinOp, static_cast<uint8_t>(VmBinOp::MaxI) + 1}, // first bad
      {Opcode::UnOp, 17},                                       // > LogicNot
      {Opcode::LoadMem, 9},                                     // bad MemSpace
  };
  for (const auto &Case : Cases) {
    SCOPED_TRACE("Aux " + std::to_string(Case.Aux));
    CompiledKernel K = poisonedKernel(Case.Op, Case.Aux);
    if (Case.Op == Opcode::LoadMem)
      K.Code[0].Space = static_cast<MemSpace>(Case.Aux);
    for (DispatchMode Mode : AllModes) {
      SCOPED_TRACE(std::string("dispatch mode ") + dispatchModeName(Mode));
      LaunchConfig C = config1D(1, 1);
      C.Dispatch = Mode;
      std::vector<BufferData> Bufs;
      auto R = launchKernel(K, {}, Bufs, C);
      ASSERT_FALSE(R.ok());
      EXPECT_EQ(R.trap(), TrapKind::BadLaunch)
          << trapKindName(R.trap()) << ": " << R.errorMessage();
    }
  }
  // Control: the largest in-range Aux is not rejected as BadLaunch.
  CompiledKernel K = poisonedKernel(Opcode::BinOp,
                                    static_cast<uint8_t>(VmBinOp::MaxI));
  std::vector<BufferData> Bufs;
  auto R = launchKernel(K, {}, Bufs, config1D(1, 1));
  EXPECT_TRUE(R.ok()) << R.errorMessage();
}

//===----------------------------------------------------------------------===//
// The execution-form lowering itself.
//===----------------------------------------------------------------------===//

TEST(DispatchParityTest, ExecProgramKeepsSlotMapping) {
  CompiledKernel K = compile(
      "__kernel void A(__global float* a, const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  if (i < n) { a[i] = a[i] * 2.0f + 1.0f; }\n"
      "}");
  ExecProgram P;
  prepareExecProgram(K, P);
  // One slot per pc holding that pc's instruction, plus the trailing
  // Halt sentinel.
  ASSERT_EQ(P.Code.size(), K.Code.size() + 1);
  for (size_t Pc = 0; Pc < K.Code.size(); ++Pc)
    EXPECT_EQ(P.Code[Pc].In.Op, K.Code[Pc].Op) << "pc " << Pc;
  EXPECT_EQ(static_cast<ExtOp>(P.Code.back().Ext), ExtOp::Halt);
  EXPECT_GT(P.BranchSiteCount, 0);
  EXPECT_EQ(P.BranchSiteCount, K.BranchSites);
}

TEST(DispatchParityTest, DispatchModeNamesRoundTrip) {
  for (DispatchMode Mode :
       {DispatchMode::Auto, DispatchMode::Switch, DispatchMode::Threaded}) {
    auto Parsed = parseDispatchMode(dispatchModeName(Mode));
    ASSERT_TRUE(Parsed.has_value());
    EXPECT_EQ(*Parsed, Mode);
  }
  EXPECT_FALSE(parseDispatchMode("goto").has_value());
  EXPECT_FALSE(parseDispatchMode("").has_value());
}
