//===- tests/vm/ProfileTest.cpp - VM opcode profiling tests -------------------===//
//
// Coverage for vm/Profile.h and the interpreter's pointer-gated
// profiling hooks: per-opcode counts agree with ExecCounters when
// work-group sampling is off, pairs never cross work-items, profiling
// never changes execution results, merges commute (the worker-count
// determinism argument), and the top-pair report is byte-stable.
//
//===----------------------------------------------------------------------===//

#include "vm/Profile.h"

#include "vm/Compiler.h"
#include "vm/Interpreter.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace clgen;
using namespace clgen::vm;

namespace {

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

BufferData iota(size_t N) {
  BufferData B = BufferData::zeros(N, 1);
  for (size_t I = 0; I < N; ++I)
    B.Data[I] = static_cast<double>(I);
  return B;
}

const char *ScaleSrc = "__kernel void A(__global float* a, const int n) {\n"
                       "  int i = get_global_id(0);\n"
                       "  if (i < n) { a[i] = a[i] * 2.0f + 1.0f; }\n"
                       "}";

/// Runs ScaleSrc over \p Global items profiling into \p Prof; returns
/// the interpreter's ExecCounters.
ExecCounters runProfiled(size_t Global, size_t Local, OpcodeProfile *Prof) {
  CompiledKernel K = compile(ScaleSrc);
  std::vector<BufferData> Bufs = {iota(Global)};
  LaunchConfig C = config1D(Global, Local);
  C.Profile = Prof;
  auto R = launchKernel(
      K, {KernelArg::buffer(0), KernelArg::scalar(static_cast<int>(Global))},
      Bufs, C);
  EXPECT_TRUE(R.ok()) << R.errorMessage();
  return R.ok() ? R.get() : ExecCounters();
}

} // namespace

TEST(ProfileTest, CountsAgreeWithExecCounters) {
  // With every work-group simulated (no MaxWorkGroups sampling in
  // launchKernel), the profile's raw instruction total must equal the
  // interpreter's own count.
  OpcodeProfile P;
  ExecCounters C = runProfiled(64, 8, &P);
  EXPECT_GT(P.instructionTotal(), 0u);
  EXPECT_EQ(P.instructionTotal(), C.Instructions);
  EXPECT_EQ(P.branchTotal(),
            P.Count[static_cast<size_t>(Opcode::Jz)] +
                P.Count[static_cast<size_t>(Opcode::Jnz)]);
  EXPECT_EQ(P.Launches, 1u);
  // Every work-item halts exactly once.
  EXPECT_EQ(P.Count[static_cast<size_t>(Opcode::Halt)], 64u);
}

TEST(ProfileTest, PairsStayWithinWorkItems) {
  // Pair totals count transitions within a work-item, so each item
  // contributes (instructions - 1) pairs: the first instruction of
  // every item has no predecessor. 64 items ⇒ pair total is exactly
  // instructions - 64. A profiler that let pairs cross items would
  // count instructions - 1.
  OpcodeProfile P;
  runProfiled(64, 8, &P);
  uint64_t PairTotal = 0;
  for (size_t A = 0; A < NumOpcodes; ++A)
    for (size_t B = 0; B < NumOpcodes; ++B)
      PairTotal += P.Pair[A][B];
  EXPECT_EQ(PairTotal, P.instructionTotal() - 64);
  // Nothing follows Halt within an item.
  for (size_t B = 0; B < NumOpcodes; ++B)
    EXPECT_EQ(P.Pair[static_cast<size_t>(Opcode::Halt)][B], 0u);
}

TEST(ProfileTest, ProfilingDoesNotPerturbExecution) {
  CompiledKernel K = compile(ScaleSrc);
  std::vector<BufferData> Plain = {iota(32)}, Profiled = {iota(32)};
  LaunchConfig C = config1D(32, 8);
  auto R1 = launchKernel(K, {KernelArg::buffer(0), KernelArg::scalar(32)},
                         Plain, C);
  OpcodeProfile P;
  C.Profile = &P;
  auto R2 = launchKernel(K, {KernelArg::buffer(0), KernelArg::scalar(32)},
                         Profiled, C);
  ASSERT_TRUE(R1.ok() && R2.ok());
  EXPECT_EQ(Plain[0].Data, Profiled[0].Data);
  EXPECT_EQ(R1.get().Instructions, R2.get().Instructions);
}

TEST(ProfileTest, LaunchesAreDeterministic) {
  OpcodeProfile A, B;
  runProfiled(64, 8, &A);
  runProfiled(64, 8, &B);
  EXPECT_EQ(A.instructionTotal(), B.instructionTotal());
  for (size_t I = 0; I < NumOpcodes; ++I)
    EXPECT_EQ(A.Count[I], B.Count[I]) << opcodeName(static_cast<Opcode>(I));
}

TEST(ProfileTest, MergeCommutesAndAccumulates) {
  // The worker-count determinism argument: per-launch profiles merged
  // in any order give the same aggregate.
  OpcodeProfile A, B;
  runProfiled(16, 4, &A);
  runProfiled(64, 8, &B);
  OpcodeProfile AB, BA;
  AB.merge(A);
  AB.merge(B);
  BA.merge(B);
  BA.merge(A);
  EXPECT_EQ(AB.Launches, 2u);
  EXPECT_EQ(AB.instructionTotal(),
            A.instructionTotal() + B.instructionTotal());
  for (size_t I = 0; I < NumOpcodes; ++I)
    EXPECT_EQ(AB.Count[I], BA.Count[I]);
  for (size_t X = 0; X < NumOpcodes; ++X)
    for (size_t Y = 0; Y < NumOpcodes; ++Y)
      EXPECT_EQ(AB.Pair[X][Y], BA.Pair[X][Y]);
}

TEST(ProfileTest, SharedProfileAggregates) {
  SharedOpcodeProfile Shared;
  OpcodeProfile A, B;
  runProfiled(16, 4, &A);
  runProfiled(16, 4, &B);
  Shared.add(A);
  Shared.add(B);
  OpcodeProfile Total = Shared.snapshot();
  EXPECT_EQ(Total.Launches, 2u);
  EXPECT_EQ(Total.instructionTotal(), 2 * A.instructionTotal());
}

TEST(ProfileTest, TopPairsRankedAndBounded) {
  OpcodeProfile P;
  P.Pair[static_cast<size_t>(Opcode::LoadConst)]
       [static_cast<size_t>(Opcode::BinOp)] = 50;
  P.Pair[static_cast<size_t>(Opcode::BinOp)]
       [static_cast<size_t>(Opcode::StoreMem)] = 70;
  P.Pair[static_cast<size_t>(Opcode::Mov)]
       [static_cast<size_t>(Opcode::Mov)] = 70;
  auto Top = topPairs(P, 2);
  ASSERT_EQ(Top.size(), 2u);
  // Descending count; the 70/70 tie breaks on (First, Second) enum
  // order, and Mov precedes BinOp in the opcode enum or not — either
  // way the order is fixed, so assert it exactly.
  EXPECT_EQ(Top[0].Count, 70u);
  EXPECT_EQ(Top[1].Count, 70u);
  bool MovFirst = static_cast<size_t>(Opcode::Mov) <
                   static_cast<size_t>(Opcode::BinOp);
  EXPECT_EQ(Top[0].First, MovFirst ? Opcode::Mov : Opcode::BinOp);
  auto All = topPairs(P, 100);
  EXPECT_EQ(All.size(), 3u) << "zero-count pairs must not be returned";
}

TEST(ProfileTest, ReportIsByteStable) {
  OpcodeProfile P;
  runProfiled(64, 8, &P);
  std::string R1 = formatOpcodeReport(P, 5);
  std::string R2 = formatOpcodeReport(P, 5);
  EXPECT_EQ(R1, R2);
  EXPECT_NE(R1.find("vm profile:"), std::string::npos) << R1;
  EXPECT_NE(R1.find("top opcodes:"), std::string::npos);
  EXPECT_NE(R1.find("top opcode pairs:"), std::string::npos);
  EXPECT_NE(R1.find("ldc"), std::string::npos)
      << "mnemonics come from opcodeName(): " << R1;
}

TEST(ProfileTest, ProfilingForcesSwitchDispatch) {
  // A profiling launch always executes on the reference switch loop,
  // whatever Dispatch asks for: the per-instruction profile hook lives
  // only there, so a profiled Threaded launch must still count every
  // instruction and pair.
  CompiledKernel K = compile(ScaleSrc);
  auto Launch = [&K](DispatchMode Mode, OpcodeProfile *Prof) {
    std::vector<BufferData> Bufs = {iota(64)};
    LaunchConfig C = config1D(64, 8);
    C.Dispatch = Mode;
    C.Profile = Prof;
    auto R = launchKernel(K, {KernelArg::buffer(0), KernelArg::scalar(64)},
                          Bufs, C);
    EXPECT_TRUE(R.ok()) << R.errorMessage();
    return R.ok() ? R.get() : ExecCounters();
  };

  OpcodeProfile UnderThreaded, UnderSwitch;
  ExecCounters CT = Launch(DispatchMode::Threaded, &UnderThreaded);
  ExecCounters CS = Launch(DispatchMode::Switch, &UnderSwitch);

  // Identical profiles whichever mode was requested...
  EXPECT_EQ(UnderThreaded.instructionTotal(), UnderSwitch.instructionTotal());
  for (size_t A = 0; A < NumOpcodes; ++A)
    for (size_t B = 0; B < NumOpcodes; ++B)
      EXPECT_EQ(UnderThreaded.Pair[A][B], UnderSwitch.Pair[A][B])
          << opcodeName(static_cast<Opcode>(A)) << " -> "
          << opcodeName(static_cast<Opcode>(B));
  // ...agreeing with the interpreter's own accounting in both runs.
  EXPECT_GT(UnderThreaded.instructionTotal(), 0u);
  EXPECT_EQ(UnderThreaded.instructionTotal(), CT.Instructions);
  EXPECT_EQ(UnderSwitch.instructionTotal(), CS.Instructions);

  // A threaded (unprofiled) launch retires the same instruction count,
  // so profile-derived totals stay valid for runs executed in any mode.
  ExecCounters Plain = Launch(DispatchMode::Threaded, nullptr);
  EXPECT_EQ(Plain.Instructions, UnderSwitch.instructionTotal());

  // The report states the dispatch provenance of its numbers.
  std::string Report = formatOpcodeReport(UnderThreaded, 5);
  EXPECT_NE(Report.find("(switch dispatch)"), std::string::npos) << Report;
}

TEST(ProfileTest, EmptyProfileReport) {
  OpcodeProfile P;
  std::string R = formatOpcodeReport(P, 5);
  EXPECT_NE(R.find("vm profile: 0 instructions"), std::string::npos) << R;
}
