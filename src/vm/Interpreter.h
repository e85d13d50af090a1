//===- vm/Interpreter.h - Instrumented NDRange interpreter -------*- C++ -*-===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes CompiledKernel bytecode over an OpenCL NDRange with work-group
/// semantics: barriers synchronise items of a group (phase-lockstep
/// execution), __local buffers are shared per group, atomics are
/// sequentially consistent. Every instruction is instrumented; the
/// resulting ExecCounters drive the per-device analytic performance model
/// that substitutes for the paper's physical CPU/GPU testbeds.
///
/// Misbehaving kernels do not crash the host: out-of-bounds accesses,
/// barrier divergence and instruction-budget exhaustion ("timeout") are
/// reported as launch errors, which is exactly the signal the dynamic
/// checker of section 5.2 consumes.
///
//===----------------------------------------------------------------------===//

#ifndef CLGEN_VM_INTERPRETER_H
#define CLGEN_VM_INTERPRETER_H

#include "support/Result.h"
#include "vm/Bytecode.h"

#include <cstdint>
#include <string>
#include <vector>

namespace clgen {
namespace vm {

struct OpcodeProfile;

/// How the interpreter dispatches instructions. Execution results —
/// survivor buffer bytes, ExecCounters, trap classifications and detail
/// strings — are bit-identical across every mode (the trap-parity
/// contract, enforced by DispatchParityTest), so the mode is a pure
/// speed knob and is excluded from measurement cache keys.
enum class DispatchMode : uint8_t {
  /// Fastest available: Threaded when computed goto is compiled in,
  /// else the portable switch loop.
  Auto,
  /// The reference switch-dispatch loop over raw bytecode, the oracle
  /// the other path is tested against. Profiling launches
  /// (LaunchConfig::Profile != nullptr) always run here: the opcode
  /// profile hook lives only in this loop.
  Switch,
  /// Launch-time lowering to a dispatch-resolved execution form
  /// (vm/Compiler.h prepareExecProgram), executed with a computed-goto
  /// label-address table on GCC/Clang or a structurally identical
  /// switch loop elsewhere.
  Threaded,
};

/// True when the build dispatches Threaded programs with a computed-goto
/// label-address table (GCC/Clang extension; forced off by
/// -DCLGS_FORCE_SWITCH_DISPATCH=ON). When false that mode runs the
/// portable fallback loop — same handlers, same results.
bool threadedDispatchAvailable();

/// Stable lowercase name ("auto", "switch", "threaded").
const char *dispatchModeName(DispatchMode Mode);

/// A flat numeric buffer bound to a global buffer parameter.
struct BufferData {
  /// Lane-flattened storage: element i occupies
  /// [i*ElemWidth, (i+1)*ElemWidth).
  std::vector<double> Data;
  uint8_t ElemWidth = 1;

  size_t elements() const {
    return ElemWidth == 0 ? 0 : Data.size() / ElemWidth;
  }
  static BufferData zeros(size_t Elements, uint8_t ElemWidth) {
    BufferData B;
    B.ElemWidth = ElemWidth;
    B.Data.assign(Elements * ElemWidth, 0.0);
    return B;
  }
};

/// One launch argument, matched positionally against kernel parameters.
struct KernelArg {
  enum class Kind { Scalar, GlobalBuffer, LocalSize };
  Kind K = Kind::Scalar;
  /// Scalar: the value.
  Value Scalar;
  /// GlobalBuffer: index into the launch's buffer vector.
  int BufferIndex = -1;
  /// LocalSize: element count for a __local pointer parameter.
  size_t LocalElements = 0;

  static KernelArg scalar(double X) {
    KernelArg A;
    A.K = Kind::Scalar;
    A.Scalar = Value::scalar(X);
    return A;
  }
  static KernelArg buffer(int Index) {
    KernelArg A;
    A.K = Kind::GlobalBuffer;
    A.BufferIndex = Index;
    return A;
  }
  static KernelArg localSize(size_t Elements) {
    KernelArg A;
    A.K = Kind::LocalSize;
    A.LocalElements = Elements;
    return A;
  }
};

struct LaunchConfig {
  size_t GlobalSize[3] = {1, 1, 1};
  size_t LocalSize[3] = {1, 1, 1};
  int WorkDim = 1;
  /// Aborts the launch when the total executed instruction count exceeds
  /// this budget (the dynamic checker's timeout, section 5.2).
  uint64_t MaxInstructions = 200ull * 1000 * 1000;
  /// Executes at most this many work-groups (stride-sampled); dynamic
  /// counters are scaled back up. Buffer contents are only complete when
  /// every group ran, so correctness runs must leave this at SIZE_MAX.
  size_t MaxWorkGroups = SIZE_MAX;
  /// Wall-clock watchdog: aborts the launch once this many milliseconds
  /// of host time have elapsed, catching hangs the instruction budget
  /// cannot (stalled workers, injected stalls). 0 disables the watchdog.
  /// Checked every 32768 instructions, so it never perturbs the counters
  /// of a run that completes in time.
  uint64_t WatchdogMs = 0;
  /// Traps integer division/remainder by zero (TrapKind::DivByZero)
  /// instead of the default OpenCL-style silent zero result. Changes
  /// kernel-visible semantics, so it participates in measurement cache
  /// keys; off by default.
  bool TrapDivZero = false;
  /// When non-null, accumulates per-opcode and opcode-pair execution
  /// counts for this launch (vm/Profile.h). Pure observation: never
  /// feeds back into execution or results, and unlike ExecCounters the
  /// counts stay raw (no MaxWorkGroups scale-up). Costs one predictable
  /// branch per instruction when null. Not thread-safe: point each
  /// concurrent launch at its own profile and merge afterwards.
  /// Profiling launches always execute on the Switch path regardless of
  /// Dispatch: the profile hook lives only in the reference loop.
  OpcodeProfile *Profile = nullptr;
  /// Instruction dispatch strategy. Results are bit-identical across
  /// modes; see DispatchMode.
  DispatchMode Dispatch = DispatchMode::Auto;
};

/// Dynamic execution counters for one launch (scaled to the full NDRange
/// when group sampling was used).
struct ExecCounters {
  uint64_t Instructions = 0;
  uint64_t ComputeOps = 0;
  uint64_t MathCalls = 0;
  uint64_t GlobalLoads = 0;
  uint64_t GlobalStores = 0;
  uint64_t CoalescedGlobal = 0;
  uint64_t LocalAccesses = 0;
  uint64_t PrivateAccesses = 0;
  uint64_t Branches = 0;
  uint64_t AtomicOps = 0;
  uint64_t Barriers = 0;
  /// Work-items in the full NDRange.
  uint64_t ItemsTotal = 0;
  /// Work-items actually simulated.
  uint64_t ItemsExecuted = 0;
  /// Average branch divergence in [0, 1]: 0 = uniform control flow within
  /// each work-group, 1 = maximally split.
  double Divergence = 0.0;

  uint64_t globalAccesses() const { return GlobalLoads + GlobalStores; }
};

/// Runs \p Kernel over the NDRange in \p Config with arguments \p Args
/// bound against \p Buffers (mutated in place). Returns counters on
/// success or a launch-failure diagnostic.
Result<ExecCounters> launchKernel(const CompiledKernel &Kernel,
                                  const std::vector<KernelArg> &Args,
                                  std::vector<BufferData> &Buffers,
                                  const LaunchConfig &Config);

} // namespace vm
} // namespace clgen

#endif // CLGEN_VM_INTERPRETER_H
