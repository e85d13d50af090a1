//===- tests/runtime/PayloadCheckerTest.cpp - payloads + dynamic checker ------===//

#include "runtime/DynamicChecker.h"
#include "runtime/HostDriver.h"
#include "runtime/Payload.h"

#include "vm/Compiler.h"

#include <gtest/gtest.h>

using namespace clgen;
using namespace clgen::runtime;
using namespace clgen::vm;

namespace {

CompiledKernel compile(const std::string &Src) {
  auto R = compileFirstKernel(Src);
  EXPECT_TRUE(R.ok()) << (R.ok() ? "" : R.errorMessage());
  return R.ok() ? R.take() : CompiledKernel();
}

const char *SaxpyKernel =
    "__kernel void saxpy(__global float* x, __global float* y,\n"
    "                    float alpha, const int n) {\n"
    "  int i = get_global_id(0);\n"
    "  if (i < n) { y[i] += alpha * x[i]; }\n"
    "}\n";

} // namespace

//===----------------------------------------------------------------------===//
// Payload generation (section 5.1 rules)
//===----------------------------------------------------------------------===//

TEST(PayloadTest, BuffersSizedToGlobalSize) {
  CompiledKernel K = compile(SaxpyKernel);
  Rng R(1);
  PayloadOptions Opts;
  Opts.GlobalSize = 512;
  Payload P = generatePayload(K, Opts, R);
  ASSERT_EQ(P.Buffers.size(), 2u);
  EXPECT_EQ(P.Buffers[0].elements(), 512u);
  EXPECT_EQ(P.Buffers[1].elements(), 512u);
}

TEST(PayloadTest, IntegralScalarGetsGlobalSize) {
  CompiledKernel K = compile(SaxpyKernel);
  Rng R(1);
  PayloadOptions Opts;
  Opts.GlobalSize = 2048;
  Payload P = generatePayload(K, Opts, R);
  // Arg order: buffer, buffer, float scalar (random), int scalar (= Sg).
  ASSERT_EQ(P.Args.size(), 4u);
  EXPECT_EQ(P.Args[3].K, KernelArg::Kind::Scalar);
  EXPECT_DOUBLE_EQ(P.Args[3].Scalar.x(), 2048.0);
  // The float scalar is random, not Sg.
  EXPECT_NE(P.Args[2].Scalar.x(), 2048.0);
}

TEST(PayloadTest, LocalPointerGetsDeviceOnlyBuffer) {
  CompiledKernel K = compile(
      "__kernel void k(__global float* a, __local float* tmp) {\n"
      "  int l = get_local_id(0);\n"
      "  tmp[l] = a[get_global_id(0)];\n"
      "  barrier(CLK_LOCAL_MEM_FENCE);\n"
      "  a[get_global_id(0)] = tmp[l];\n"
      "}\n");
  Rng R(1);
  PayloadOptions Opts;
  Opts.GlobalSize = 256;
  Opts.LocalSize = 64;
  Payload P = generatePayload(K, Opts, R);
  ASSERT_EQ(P.Args.size(), 2u);
  EXPECT_EQ(P.Args[1].K, KernelArg::Kind::LocalSize);
  // No host buffer allocated for the __local arg.
  EXPECT_EQ(P.Buffers.size(), 1u);
}

TEST(PayloadTest, TransferRulesReadWrite) {
  // x is read-only (in only), y is read-write (in and out).
  CompiledKernel K = compile(SaxpyKernel);
  Rng R(1);
  PayloadOptions Opts;
  Opts.GlobalSize = 1024;
  Payload P = generatePayload(K, Opts, R);
  // Both buffers in; only y comes back: 2 x 4KB in, 1 x 4KB out.
  EXPECT_EQ(P.Transfer.BytesIn, 2u * 1024 * 4);
  EXPECT_EQ(P.Transfer.BytesOut, 1u * 1024 * 4);
}

TEST(PayloadTest, WriteOnlyBufferNotTransferredIn) {
  CompiledKernel K = compile(
      "__kernel void k(__global float* in, __global float* out, "
      "const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  if (i < n) { out[i] = in[i]; }\n"
      "}\n");
  Rng R(1);
  PayloadOptions Opts;
  Opts.GlobalSize = 1024;
  Payload P = generatePayload(K, Opts, R);
  EXPECT_EQ(P.Transfer.BytesIn, 1024u * 4);  // Only `in`.
  EXPECT_EQ(P.Transfer.BytesOut, 1024u * 4); // Only `out`.
}

TEST(PayloadTest, IntBuffersStayInBounds) {
  CompiledKernel K = compile(
      "__kernel void k(__global float* d, __global int* idx, const int n)"
      " {\n"
      "  int i = get_global_id(0);\n"
      "  if (i < n) { d[i] = d[idx[i]]; }\n"
      "}\n");
  Rng R(7);
  PayloadOptions Opts;
  Opts.GlobalSize = 128;
  Payload P = generatePayload(K, Opts, R);
  for (double V : P.Buffers[1].Data) {
    EXPECT_GE(V, 0.0);
    EXPECT_LT(V, 128.0);
  }
}

TEST(PayloadTest, LocalSizePickedToDivideGlobal) {
  CompiledKernel K = compile(SaxpyKernel);
  Rng R(1);
  PayloadOptions Opts;
  Opts.GlobalSize = 100; // Not divisible by the default 64.
  Payload P = generatePayload(K, Opts, R);
  EXPECT_EQ(100 % P.LocalSize, 0u);
}

TEST(PayloadTest, AccessAnalysisClassifiesAtomics) {
  CompiledKernel K = compile(
      "__kernel void k(__global int* hist, __global int* d, const int n)"
      " {\n"
      "  int i = get_global_id(0);\n"
      "  if (i < n) { atomic_add(&hist[d[i] % n], 1); }\n"
      "}\n");
  auto Access = analyzeBufferAccess(K);
  ASSERT_EQ(Access.size(), 2u);
  EXPECT_TRUE(Access[0].Read);    // Atomic = read-modify-write.
  EXPECT_TRUE(Access[0].Written);
  EXPECT_TRUE(Access[1].Read);
  EXPECT_FALSE(Access[1].Written);
}

//===----------------------------------------------------------------------===//
// Dynamic checker (section 5.2)
//===----------------------------------------------------------------------===//

TEST(DynamicCheckerTest, AcceptsUsefulWork) {
  CompiledKernel K = compile(SaxpyKernel);
  Rng R(3);
  CheckResult CR = checkKernel(K, CheckOptions(), R);
  EXPECT_EQ(CR.Outcome, CheckOutcome::UsefulWork) << CR.Detail;
}

TEST(DynamicCheckerTest, RejectsNoOutput) {
  CompiledKernel K = compile(
      "__kernel void k(__global float* a, const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  float x = a[i % n] * 2.0f;\n"
      "  x += 1.0f;\n"
      "}\n");
  Rng R(3);
  CheckResult CR = checkKernel(K, CheckOptions(), R);
  EXPECT_EQ(CR.Outcome, CheckOutcome::NoOutput);
  // Every rejection carries a diagnostic and a classified trap kind.
  EXPECT_FALSE(CR.Detail.empty());
  EXPECT_EQ(CR.Trap, TrapKind::CheckNoOutput);
}

TEST(DynamicCheckerTest, RejectsInputInsensitive) {
  CompiledKernel K = compile(
      "__kernel void k(__global float* a, const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  if (i < n) { a[i] = (float)i * 0.5f; }\n"
      "}\n");
  Rng R(3);
  CheckResult CR = checkKernel(K, CheckOptions(), R);
  EXPECT_EQ(CR.Outcome, CheckOutcome::InputInsensitive);
  EXPECT_FALSE(CR.Detail.empty());
  EXPECT_EQ(CR.Trap, TrapKind::CheckInputInsensitive);
}

TEST(DynamicCheckerTest, RejectsOutOfBounds) {
  CompiledKernel K = compile(
      "__kernel void k(__global float* a, const int n) {\n"
      "  a[get_global_id(0) + n] = 1.0f;\n"
      "}\n");
  Rng R(3);
  CheckResult CR = checkKernel(K, CheckOptions(), R);
  EXPECT_EQ(CR.Outcome, CheckOutcome::LaunchFailure);
  EXPECT_NE(CR.Detail.find("out-of-bounds"), std::string::npos);
  EXPECT_EQ(CR.Trap, TrapKind::OutOfBounds);
}

TEST(DynamicCheckerTest, RejectsTimeout) {
  CompiledKernel K = compile(
      "__kernel void k(__global float* a, const int n) {\n"
      "  while (1) { a[0] += 1.0f; }\n"
      "}\n");
  Rng R(3);
  CheckOptions Opts;
  Opts.MaxInstructions = 100000;
  CheckResult CR = checkKernel(K, Opts, R);
  EXPECT_EQ(CR.Outcome, CheckOutcome::LaunchFailure);
  EXPECT_NE(CR.Detail.find("timeout"), std::string::npos);
  EXPECT_EQ(CR.Trap, TrapKind::InstructionBudget);
}

TEST(DynamicCheckerTest, AcceptedKernelCarriesNoTrap) {
  CompiledKernel K = compile(SaxpyKernel);
  Rng R(3);
  CheckResult CR = checkKernel(K, CheckOptions(), R);
  ASSERT_EQ(CR.Outcome, CheckOutcome::UsefulWork) << CR.Detail;
  EXPECT_EQ(CR.Trap, TrapKind::None);
}

TEST(DynamicCheckerTest, FloatEpsilonToleratesRounding) {
  // Kernel output depends on input via a chain of math calls; re-running
  // on the identical payload must compare equal under epsilon.
  CompiledKernel K = compile(
      "__kernel void k(__global float* a, const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  if (i < n) { a[i] = sqrt(fabs(a[i])) * 3.14159f; }\n"
      "}\n");
  Rng R(9);
  EXPECT_EQ(checkKernel(K, CheckOptions(), R).Outcome,
            CheckOutcome::UsefulWork);
}

//===----------------------------------------------------------------------===//
// Host driver
//===----------------------------------------------------------------------===//

TEST(HostDriverTest, ProducesBothDeviceTimes) {
  DriverOptions Opts;
  Opts.GlobalSize = 4096;
  auto M = runBenchmark(SaxpyKernel, amdPlatform(), Opts);
  ASSERT_TRUE(M.ok()) << M.errorMessage();
  EXPECT_GT(M.get().CpuTime, 0.0);
  EXPECT_GT(M.get().GpuTime, 0.0);
  EXPECT_GT(M.get().Transfer.total(), 0u);
}

TEST(HostDriverTest, CompileFailureReported) {
  DriverOptions Opts;
  auto M = runBenchmark("__kernel void broken(__global float* a) { a[0] = "
                        "UNDEFINED_NAME; }",
                        amdPlatform(), Opts);
  ASSERT_FALSE(M.ok());
  EXPECT_NE(M.errorMessage().find("compile failed"), std::string::npos);
}

TEST(HostDriverTest, DynamicCheckGateWorks) {
  DriverOptions Opts;
  Opts.RunDynamicCheck = true;
  auto M = runBenchmark(
      "__kernel void constant_out(__global float* a, const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  if (i < n) { a[i] = 1.0f; }\n"
      "}\n",
      amdPlatform(), Opts);
  ASSERT_FALSE(M.ok());
  EXPECT_NE(M.errorMessage().find("input insensitive"), std::string::npos);
}

TEST(HostDriverTest, DeterministicAcrossRuns) {
  DriverOptions Opts;
  Opts.GlobalSize = 8192;
  auto M1 = runBenchmark(SaxpyKernel, nvidiaPlatform(), Opts);
  auto M2 = runBenchmark(SaxpyKernel, nvidiaPlatform(), Opts);
  ASSERT_TRUE(M1.ok());
  ASSERT_TRUE(M2.ok());
  EXPECT_DOUBLE_EQ(M1.get().CpuTime, M2.get().CpuTime);
  EXPECT_DOUBLE_EQ(M1.get().GpuTime, M2.get().GpuTime);
}

TEST(HostDriverTest, LargerPayloadTakesLonger) {
  DriverOptions Small, Large;
  Small.GlobalSize = 1024;
  Large.GlobalSize = 262144;
  auto MSmall = runBenchmark(SaxpyKernel, amdPlatform(), Small);
  auto MLarge = runBenchmark(SaxpyKernel, amdPlatform(), Large);
  ASSERT_TRUE(MSmall.ok());
  ASSERT_TRUE(MLarge.ok());
  EXPECT_GT(MLarge.get().CpuTime, MSmall.get().CpuTime);
  EXPECT_GT(MLarge.get().GpuTime, MSmall.get().GpuTime);
}

//===----------------------------------------------------------------------===//
// DriverOptions knobs govern the checker's launches too
//===----------------------------------------------------------------------===//

TEST(HostDriverTest, CheckerLaunchesHonourTrapDivZero) {
  // Every launch divides by zero, so with TrapDivZero set the first
  // checker launch must trap. A checker that ignored the knob would see
  // OpenCL's silent zero and reject the kernel as input insensitive.
  DriverOptions Opts;
  Opts.GlobalSize = 512;
  Opts.RunDynamicCheck = true;
  Opts.TrapDivZero = true;
  auto M = runBenchmark(
      "__kernel void k(__global int* a, const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  a[i] = a[i] / (n - n);\n"
      "}\n",
      amdPlatform(), Opts);
  ASSERT_FALSE(M.ok());
  EXPECT_EQ(M.trap(), TrapKind::DivByZero) << M.errorMessage();
  EXPECT_EQ(M.errorMessage().rfind("dynamic check failed: launch failure", 0),
            0u)
      << M.errorMessage();
}

TEST(HostDriverTest, CheckerLaunchesFeedTheProfile) {
  // Straight-line kernel: every work-item retires the same number of
  // instructions, so the profile of the 4 checker launches plus the
  // timed one is known exactly from the timed launch's count.
  DriverOptions Opts;
  Opts.GlobalSize = 512; // 8 groups of 64: under the group cap, unscaled.
  Opts.RunDynamicCheck = true;
  SharedOpcodeProfile Profile;
  Opts.Profile = &Profile;
  auto M = runBenchmark(
      "__kernel void k(__global float* a, const int n) {\n"
      "  int i = get_global_id(0);\n"
      "  a[i] = a[i] * 2.0f + 1.0f;\n"
      "}\n",
      amdPlatform(), Opts);
  ASSERT_TRUE(M.ok()) << M.errorMessage();
  const ExecCounters &C = M.get().Counters;
  ASSERT_EQ(C.ItemsExecuted, C.ItemsTotal);
  ASSERT_GT(C.ItemsTotal, 0u);
  uint64_t PerItem = C.Instructions / C.ItemsTotal;
  ASSERT_EQ(PerItem * C.ItemsTotal, C.Instructions);
  uint64_t CheckItems = 4 * CheckOptions().GlobalSize;

  OpcodeProfile P = Profile.snapshot();
  EXPECT_EQ(P.Launches, 5u);
  EXPECT_EQ(P.instructionTotal(), PerItem * (CheckItems + C.ItemsTotal));
}
