//===- vm/Interpreter.cpp - Instrumented NDRange interpreter ----------------===//
//
// Part of the CLgen reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "vm/Interpreter.h"

#include "ocl/Builtins.h"
#include "support/FailPoint.h"
#include "support/StringUtils.h"
#include "vm/Compiler.h"
#include "vm/Profile.h"

#include <chrono>
#include <cmath>

/// Computed-goto (label-address-table) dispatch is a GCC/Clang extension;
/// CLGS_FORCE_SWITCH_DISPATCH (cmake -DCLGS_FORCE_SWITCH_DISPATCH=ON)
/// disables it so CI can exercise the portable fallback loop on
/// compilers that do have the extension.
#if (defined(__GNUC__) || defined(__clang__)) &&                               \
    !defined(CLGS_FORCE_SWITCH_DISPATCH)
#define CLGS_VM_COMPUTED_GOTO 1
#else
#define CLGS_VM_COMPUTED_GOTO 0
#endif

using namespace clgen;
using namespace clgen::ocl;
using namespace clgen::vm;

namespace {

int64_t toInt(double X) {
  if (std::isnan(X))
    return 0;
  if (X > 9.2e18)
    return INT64_MAX;
  if (X < -9.2e18)
    return INT64_MIN;
  return static_cast<int64_t>(X);
}

double wrapToScalarKind(double X, Scalar S) {
  switch (S) {
  case Scalar::Bool:
    return X != 0.0 ? 1.0 : 0.0;
  case Scalar::Char:
    return static_cast<double>(static_cast<int8_t>(toInt(X)));
  case Scalar::UChar:
    return static_cast<double>(static_cast<uint8_t>(toInt(X)));
  case Scalar::Short:
    return static_cast<double>(static_cast<int16_t>(toInt(X)));
  case Scalar::UShort:
    return static_cast<double>(static_cast<uint16_t>(toInt(X)));
  case Scalar::Int:
    return static_cast<double>(static_cast<int32_t>(toInt(X)));
  case Scalar::UInt:
    return static_cast<double>(static_cast<uint32_t>(toInt(X)));
  case Scalar::Long:
  case Scalar::ULong:
    return static_cast<double>(toInt(X));
  case Scalar::Float:
    // Round through IEEE single precision so float kernels behave like
    // float kernels.
    return static_cast<double>(static_cast<float>(X));
  case Scalar::Half:
  case Scalar::Double:
  case Scalar::Void:
    return X;
  }
  return X;
}

// Forced inline so each caller (the reference loop's BinOp case and
// the threaded loop's execBinInstr) gets its own copy of the operation
// switch, and the BTB learns each site's local operation mix.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((always_inline))
#endif
inline double evalBinLane(VmBinOp Op, double A, double B) {
  switch (Op) {
  case VmBinOp::Add: return A + B;
  case VmBinOp::Sub: return A - B;
  case VmBinOp::Mul: return A * B;
  case VmBinOp::DivF: return A / B;
  case VmBinOp::DivI: {
    int64_t IB = toInt(B);
    return IB == 0 ? 0.0 : static_cast<double>(toInt(A) / IB);
  }
  case VmBinOp::RemI: {
    int64_t IB = toInt(B);
    return IB == 0 ? 0.0 : static_cast<double>(toInt(A) % IB);
  }
  case VmBinOp::RemF: return std::fmod(A, B);
  case VmBinOp::Shl: return static_cast<double>(toInt(A) << (toInt(B) & 63));
  case VmBinOp::Shr: return static_cast<double>(toInt(A) >> (toInt(B) & 63));
  case VmBinOp::And: return static_cast<double>(toInt(A) & toInt(B));
  case VmBinOp::Or: return static_cast<double>(toInt(A) | toInt(B));
  case VmBinOp::Xor: return static_cast<double>(toInt(A) ^ toInt(B));
  case VmBinOp::Lt: return A < B ? 1.0 : 0.0;
  case VmBinOp::Le: return A <= B ? 1.0 : 0.0;
  case VmBinOp::Gt: return A > B ? 1.0 : 0.0;
  case VmBinOp::Ge: return A >= B ? 1.0 : 0.0;
  case VmBinOp::Eq: return A == B ? 1.0 : 0.0;
  case VmBinOp::Ne: return A != B ? 1.0 : 0.0;
  case VmBinOp::MinI: return A < B ? A : B;
  case VmBinOp::MaxI: return A > B ? A : B;
  }
  return 0.0;
}

//===----------------------------------------------------------------------===//
// Register-file write helpers (threaded dispatch)
//===----------------------------------------------------------------------===//
//
// The reference switch loop writes results by assigning a fresh
// zero-initialised Value, so lanes at or beyond a register's Width are
// always zero. The threaded loop exploits that invariant with partial
// writes: only live lanes are stored, and previously-live lanes beyond
// the new width are re-zeroed, keeping the observable register file
// byte-identical to full-Value assignment.

inline void setScalar(Value &D, double X) {
  int OldW = D.Width;
  D.Lanes[0] = X;
  for (int L = 1; L < OldW; ++L)
    D.Lanes[L] = 0.0;
  D.Width = 1;
}

inline void copyValue(Value &D, const Value &S) {
  int W = S.Width, OldW = D.Width;
  for (int L = 0; L < W; ++L)
    D.Lanes[L] = S.Lanes[L];
  for (int L = W; L < OldW; ++L)
    D.Lanes[L] = 0.0;
  D.Width = static_cast<uint8_t>(W);
}

/// Commits a result computed into a scratch lane buffer (which makes
/// Dst-aliases-source safe, same as the switch loop's local Value).
inline void writeLanes(Value &D, const double *Tmp, int W) {
  int OldW = D.Width;
  for (int L = 0; L < W; ++L)
    D.Lanes[L] = Tmp[L];
  for (int L = W; L < OldW; ++L)
    D.Lanes[L] = 0.0;
  D.Width = static_cast<uint8_t>(W);
}

/// Cast semantics of the threaded Cast handler; verbatim the reference
/// loop's Cast case.
inline void castValue(Value *Regs, const Instr &I) {
  const Value &A = Regs[I.A];
  Value R;
  R.Width = A.Width;
  auto S2 = static_cast<Scalar>(I.Aux);
  for (int L = 0; L < R.Width; ++L) {
    double X = A.Lanes[L];
    // Float -> integer conversion truncates toward zero.
    if (S2 != Scalar::Float && S2 != Scalar::Double && S2 != Scalar::Half)
      X = std::trunc(X);
    R.Lanes[L] = wrapToScalarKind(X, S2);
  }
  Regs[I.Dst] = R;
}

/// Vector (or mixed-width) slow path behind the specialized scalar
/// binop handlers. Only non-trapping operations reach this (DivI/RemI
/// dispatch through Engine::execBinInstr for the TrapDivZero check).
inline void binOpVector(Value *Regs, const Instr &I, VmBinOp Op) {
  const Value &A = Regs[I.A];
  const Value &B = Regs[I.B];
  double Tmp[16];
  int W = std::max(A.Width, B.Width);
  for (int L = 0; L < W; ++L)
    Tmp[L] = evalBinLane(Op, A.Lanes[A.Width == 1 ? 0 : L],
                         B.Lanes[B.Width == 1 ? 0 : L]);
  writeLanes(Regs[I.Dst], Tmp, W);
}

/// Per-branch-site taken/total stats within one work-group.
struct BranchStats {
  uint64_t Taken = 0;
  uint64_t Total = 0;
};

/// Shared (per work-group) execution resources.
struct GroupContext {
  std::vector<std::vector<double>> LocalBuffers;
  /// Dense per-site stats, indexed by the launch-time branch-site table
  /// (no hashing on the instruction dispatch path).
  std::vector<BranchStats> BranchSites;
};

/// One work-item's machine state (only materialised for barrier kernels).
struct ItemState {
  std::vector<Value> Regs;
  std::vector<std::vector<double>> PrivBuffers;
  size_t Pc = 0;
  bool Done = false;
  size_t Gid[3] = {0, 0, 0};
  size_t Lid[3] = {0, 0, 0};
  /// Previously executed opcode of THIS item (-1 = none yet), so the
  /// opcode-pair profile never pairs across work-items even when the
  /// barrier path interleaves their execution.
  int16_t PrevOp = -1;
};

/// Reusable per-thread execution scratch: group context, item states and
/// their register/buffer storage survive across work-groups AND across
/// launches (thread_local in launchKernel), so steady-state execution
/// allocates nothing per group.
struct ExecScratch {
  GroupContext Group;
  ItemState Single;
  std::vector<ItemState> States;
  /// Dispatch-resolved execution form for Threaded launches; storage
  /// recycled across launches.
  ExecProgram Prog;
};

enum class StepOutcome { Continue, AtBarrier, Halted, Error };

class Engine {
public:
  Engine(const CompiledKernel &K, const std::vector<KernelArg> &Args,
         std::vector<BufferData> &Buffers, const LaunchConfig &Config,
         ExecScratch &Scratch)
      : K(K), Args(Args), Buffers(Buffers), Config(Config),
        Scratch(Scratch) {}

  Result<ExecCounters> run();

private:
  const CompiledKernel &K;
  const std::vector<KernelArg> &Args;
  std::vector<BufferData> &Buffers;
  const LaunchConfig &Config;
  ExecScratch &Scratch;
  ExecCounters C;
  std::string Error;
  /// Param slot -> launch buffer index.
  std::vector<int> SlotToBuffer;
  /// Local-pointer-param slot -> driver-specified size.
  std::vector<size_t> LocalParamSizes;
  /// Scalar param preloads.
  std::vector<std::pair<uint16_t, Value>> ScalarPreloads;
  /// Pc of a conditional branch -> dense branch-site index, resolved
  /// once at launch so the dispatch loop never touches a hash map.
  std::vector<int32_t> BranchSiteOf;
  int BranchSiteCount = 0;
  size_t GroupCount[3] = {1, 1, 1};
  size_t GroupId[3] = {0, 0, 0};
  TrapKind ErrKind = TrapKind::Unknown;
  std::chrono::steady_clock::time_point Start;
  /// Non-null when this launch runs the dispatch-resolved execution
  /// form (Threaded) instead of the reference switch loop.
  const ExecInstr *ExecCode = nullptr;
  /// Instruction count at which the wall-clock watchdog samples next;
  /// UINT64_MAX when the watchdog is disabled. Deadline-based (>=) so
  /// the threaded loop folds it and the instruction budget into one
  /// compare per instruction.
  uint64_t WatchdogNext = UINT64_MAX;

  bool fail(const std::string &Message) {
    return fail(TrapKind::Unknown, Message);
  }

  bool fail(TrapKind Kind, const std::string &Message) {
    if (Error.empty()) {
      Error = Message;
      ErrKind = Kind;
    }
    return false;
  }

  /// Crossed the watchdog deadline: re-arm it and check elapsed host
  /// time. Returns false (with the trap recorded) on timeout. The 32768
  /// cadence keeps the clock read off the hot path, so a run that
  /// completes in time never perturbs its counters.
  bool watchdogSampleOk(uint64_t Icount) {
    WatchdogNext = Icount + 0x8000;
    if (static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - Start)
                .count()) >= Config.WatchdogMs) {
      fail(TrapKind::WatchdogTimeout,
           formatString("kernel exceeded wall-clock watchdog (%llu ms)",
                        static_cast<unsigned long long>(Config.WatchdogMs)));
      return false;
    }
    return true;
  }

  bool bindArgs() {
    if (Args.size() != K.Params.size())
      return fail(TrapKind::BadLaunch,
                  formatString("kernel '%s' expects %zu arguments, got %zu",
                               K.Name.c_str(), K.Params.size(), Args.size()));
    SlotToBuffer.assign(K.bufferParamCount(), -1);
    LocalParamSizes.assign(K.LocalBuffers.size(), 0);
    for (size_t I = 0; I < Args.size(); ++I) {
      const ParamInfo &P = K.Params[I];
      const KernelArg &A = Args[I];
      if (P.IsBuffer && P.Ty.AS == AddrSpace::Local) {
        if (A.K != KernelArg::Kind::LocalSize)
          return fail(TrapKind::BadLaunch,
                      formatString("argument %zu: __local pointer needs a "
                                   "local size binding",
                                   I));
        LocalParamSizes[P.BufferSlot] = A.LocalElements;
        continue;
      }
      if (P.IsBuffer) {
        if (A.K != KernelArg::Kind::GlobalBuffer)
          return fail(TrapKind::BadLaunch,
                      formatString("argument %zu: expected a buffer", I));
        if (A.BufferIndex < 0 ||
            static_cast<size_t>(A.BufferIndex) >= Buffers.size())
          return fail(TrapKind::BadLaunch,
                      formatString("argument %zu: buffer index out of "
                                   "range",
                                   I));
        if (Buffers[A.BufferIndex].ElemWidth != P.Ty.VecWidth)
          return fail(TrapKind::BadLaunch,
                      formatString("argument %zu: element width mismatch "
                                   "(buffer %d, param %d)",
                                   I, Buffers[A.BufferIndex].ElemWidth,
                                   P.Ty.VecWidth));
        SlotToBuffer[P.BufferSlot] = A.BufferIndex;
        continue;
      }
      if (A.K != KernelArg::Kind::Scalar)
        return fail(TrapKind::BadLaunch,
                    formatString("argument %zu: expected a scalar", I));
      Value V = A.Scalar;
      // Broadcast scalars to vector-typed params when needed.
      if (P.Ty.VecWidth > 1 && V.Width == 1)
        V = Value::splat(V.x(), P.Ty.VecWidth);
      ScalarPreloads.push_back({P.Reg, V});
    }
    return true;
  }

  //===------------------------------------------------------------------===//
  // Instruction stepping
  //===------------------------------------------------------------------===//

  StepOutcome step(ItemState &S, GroupContext &G) {
    if (C.Instructions >= Config.MaxInstructions) {
      fail(TrapKind::InstructionBudget,
           "kernel exceeded instruction budget (timeout)");
      return StepOutcome::Error;
    }
    // The wall-clock watchdog is sampled every 32768 instructions so the
    // hot dispatch loop pays one predictable branch when it is disabled
    // (WatchdogNext stays at UINT64_MAX).
    if (C.Instructions >= WatchdogNext && !watchdogSampleOk(C.Instructions))
      return StepOutcome::Error;
    const Instr &I = K.Code[S.Pc];
    ++C.Instructions;
    if (OpcodeProfile *Prof = Config.Profile) {
      size_t OpIdx = static_cast<size_t>(I.Op);
      ++Prof->Count[OpIdx];
      if (S.PrevOp >= 0)
        ++Prof->Pair[S.PrevOp][OpIdx];
      S.PrevOp = static_cast<int16_t>(OpIdx);
    }
    switch (I.Op) {
    case Opcode::LoadConst:
      S.Regs[I.Dst] = K.Consts[I.Imm];
      break;
    case Opcode::Mov:
      S.Regs[I.Dst] = S.Regs[I.A];
      break;
    case Opcode::BinOp: {
      ++C.ComputeOps;
      const Value &A = S.Regs[I.A];
      const Value &B = S.Regs[I.B];
      Value R;
      R.Width = std::max(A.Width, B.Width);
      auto Op = static_cast<VmBinOp>(I.Aux);
      if (Config.TrapDivZero &&
          (Op == VmBinOp::DivI || Op == VmBinOp::RemI)) {
        for (int L = 0; L < R.Width; ++L)
          if (toInt(B.Lanes[B.Width == 1 ? 0 : L]) == 0) {
            fail(TrapKind::DivByZero, "integer division by zero");
            return StepOutcome::Error;
          }
      }
      for (int L = 0; L < R.Width; ++L)
        R.Lanes[L] = evalBinLane(Op, A.Lanes[A.Width == 1 ? 0 : L],
                                 B.Lanes[B.Width == 1 ? 0 : L]);
      S.Regs[I.Dst] = R;
      break;
    }
    case Opcode::UnOp: {
      ++C.ComputeOps;
      const Value &A = S.Regs[I.A];
      Value R;
      R.Width = A.Width;
      for (int L = 0; L < R.Width; ++L) {
        switch (static_cast<VmUnOp>(I.Aux)) {
        case VmUnOp::Neg: R.Lanes[L] = -A.Lanes[L]; break;
        case VmUnOp::BitNot:
          R.Lanes[L] = static_cast<double>(~toInt(A.Lanes[L]));
          break;
        case VmUnOp::LogicNot:
          R.Lanes[L] = A.Lanes[L] == 0.0 ? 1.0 : 0.0;
          break;
        }
      }
      S.Regs[I.Dst] = R;
      break;
    }
    case Opcode::Cast: {
      ++C.ComputeOps;
      const Value &A = S.Regs[I.A];
      Value R;
      R.Width = A.Width;
      auto S2 = static_cast<Scalar>(I.Aux);
      for (int L = 0; L < R.Width; ++L) {
        double X = A.Lanes[L];
        // Float -> integer conversion truncates toward zero.
        if (S2 != Scalar::Float && S2 != Scalar::Double && S2 != Scalar::Half)
          X = std::trunc(X);
        R.Lanes[L] = wrapToScalarKind(X, S2);
      }
      S.Regs[I.Dst] = R;
      break;
    }
    case Opcode::Broadcast:
      S.Regs[I.Dst] =
          Value::splat(S.Regs[I.A].x(), static_cast<uint8_t>(I.B));
      break;
    case Opcode::Swizzle: {
      const Value &A = S.Regs[I.A];
      const auto &Mask = K.Masks[I.Imm];
      Value R;
      R.Width = static_cast<uint8_t>(Mask.size());
      for (size_t L = 0; L < Mask.size(); ++L)
        R.Lanes[L] = A.Lanes[Mask[L]];
      S.Regs[I.Dst] = R;
      break;
    }
    case Opcode::InsertLanes: {
      Value &D = S.Regs[I.Dst];
      const Value &B = S.Regs[I.B];
      const auto &Mask = K.Masks[I.Imm];
      for (size_t L = 0; L < Mask.size(); ++L)
        D.Lanes[Mask[L]] = B.Lanes[B.Width == 1 ? 0 : L];
      break;
    }
    case Opcode::BuildVec: {
      const auto &Regs = K.ArgLists[I.Imm];
      Value R;
      R.Width = static_cast<uint8_t>(Regs.size());
      for (size_t L = 0; L < Regs.size(); ++L)
        R.Lanes[L] = S.Regs[Regs[L]].x();
      S.Regs[I.Dst] = R;
      break;
    }
    case Opcode::LoadMem:
    case Opcode::StoreMem:
      if (!execMemAccess(S, G, I))
        return StepOutcome::Error;
      break;
    case Opcode::VLoad:
    case Opcode::VStore:
      if (!execVectorAccess(S, G, I))
        return StepOutcome::Error;
      break;
    case Opcode::CallB:
      if (!execBuiltin(S, I))
        return StepOutcome::Error;
      break;
    case Opcode::Atomic:
      if (!execAtomic(S, G, I))
        return StepOutcome::Error;
      break;
    case Opcode::Jmp:
      S.Pc = static_cast<size_t>(I.Imm);
      return StepOutcome::Continue;
    case Opcode::Jz:
    case Opcode::Jnz: {
      ++C.Branches;
      bool Taken = (S.Regs[I.A].x() == 0.0) == (I.Op == Opcode::Jz);
      BranchStats &BS = G.BranchSites[BranchSiteOf[S.Pc]];
      BS.Total += 1;
      BS.Taken += Taken;
      if (Taken) {
        S.Pc = static_cast<size_t>(I.Imm);
        return StepOutcome::Continue;
      }
      break;
    }
    case Opcode::Barrier:
      ++C.Barriers;
      ++S.Pc;
      return StepOutcome::AtBarrier;
    case Opcode::Halt:
      S.Done = true;
      return StepOutcome::Halted;
    }
    ++S.Pc;
    return StepOutcome::Continue;
  }

  /// Full BinOp semantics for the threaded loop's DivI and RemI
  /// handlers (TrapDivZero check). Mirrors the switch loop's BinOp case
  /// exactly, including the ComputeOps increment preceding the trap.
  bool execBinInstr(Value *Regs, const Instr &I) {
    ++C.ComputeOps;
    const Value &A = Regs[I.A];
    const Value &B = Regs[I.B];
    auto Op = static_cast<VmBinOp>(I.Aux);
    if ((A.Width | B.Width) == 1) {
      const double Av = A.Lanes[0];
      const double Bv = B.Lanes[0];
      if (Config.TrapDivZero &&
          (Op == VmBinOp::DivI || Op == VmBinOp::RemI) && toInt(Bv) == 0)
        return fail(TrapKind::DivByZero, "integer division by zero");
      setScalar(Regs[I.Dst], evalBinLane(Op, Av, Bv));
      return true;
    }
    int W = std::max(A.Width, B.Width);
    if (Config.TrapDivZero && (Op == VmBinOp::DivI || Op == VmBinOp::RemI)) {
      for (int L = 0; L < W; ++L)
        if (toInt(B.Lanes[B.Width == 1 ? 0 : L]) == 0)
          return fail(TrapKind::DivByZero, "integer division by zero");
    }
    double Tmp[16];
    for (int L = 0; L < W; ++L)
      Tmp[L] = evalBinLane(Op, A.Lanes[A.Width == 1 ? 0 : L],
                           B.Lanes[B.Width == 1 ? 0 : L]);
    writeLanes(Regs[I.Dst], Tmp, W);
    return true;
  }

  //===------------------------------------------------------------------===//
  // Threaded dispatch over the execution form
  //===------------------------------------------------------------------===//

  /// The exec loops are two instantiations of the same handler bodies
  /// (vm/InterpreterExecLoop.inc): a computed-goto label-address table
  /// on GCC/Clang, and a structurally identical portable switch. The
  /// portable loop is always compiled (so it cannot rot) but only
  /// dispatched to when computed goto is unavailable or forced off.
  [[maybe_unused]] StepOutcome runItemExecSwitch(ItemState &S,
                                                 GroupContext &G);
#if CLGS_VM_COMPUTED_GOTO
  StepOutcome runItemExecGoto(ItemState &S, GroupContext &G);
#endif

  bool execMemAccess(ItemState &S, GroupContext &G, const Instr &I) {
    int64_t Index = toInt(S.Regs[I.A].x());
    std::vector<double> *Storage = nullptr;
    uint8_t ElemWidth = 1;
    switch (I.Space) {
    case MemSpace::Global: {
      int BufIdx = SlotToBuffer[I.Imm];
      BufferData &B = Buffers[BufIdx];
      if (Index < 0 || static_cast<size_t>(Index) >= B.elements())
        return fail(TrapKind::OutOfBounds,
                    formatString("out-of-bounds global access (index %lld "
                                 "of %zu elements)",
                                 static_cast<long long>(Index),
                                 B.elements()));
      Storage = &B.Data;
      ElemWidth = B.ElemWidth;
      if (I.Op == Opcode::LoadMem)
        ++C.GlobalLoads;
      else
        ++C.GlobalStores;
      C.CoalescedGlobal += I.Coalesced;
      break;
    }
    case MemSpace::Local: {
      auto &B = G.LocalBuffers[I.Imm];
      ElemWidth = K.LocalBuffers[I.Imm].ElemWidth;
      if (Index < 0 ||
          static_cast<size_t>(Index) * ElemWidth >= B.size())
        return fail(TrapKind::OutOfBounds, "out-of-bounds local access");
      Storage = &B;
      ++C.LocalAccesses;
      break;
    }
    case MemSpace::Private: {
      auto &B = S.PrivBuffers[I.Imm];
      ElemWidth = K.PrivateBuffers[I.Imm].ElemWidth;
      if (Index < 0 ||
          static_cast<size_t>(Index) * ElemWidth >= B.size())
        return fail(TrapKind::OutOfBounds, "out-of-bounds private access");
      Storage = &B;
      ++C.PrivateAccesses;
      break;
    }
    }
    size_t Base = static_cast<size_t>(Index) * ElemWidth;
    if (I.Op == Opcode::LoadMem) {
      Value R;
      R.Width = ElemWidth;
      for (int L = 0; L < ElemWidth; ++L)
        R.Lanes[L] = (*Storage)[Base + L];
      S.Regs[I.Dst] = R;
    } else {
      const Value &V = S.Regs[I.B];
      for (int L = 0; L < ElemWidth; ++L)
        (*Storage)[Base + L] = V.Lanes[V.Width == 1 ? 0 : L];
    }
    return true;
  }

  bool execVectorAccess(ItemState &S, GroupContext &G, const Instr &I) {
    int64_t Start = toInt(S.Regs[I.A].x());
    int W = I.WidthField;
    std::vector<double> *Storage = nullptr;
    switch (I.Space) {
    case MemSpace::Global: {
      BufferData &B = Buffers[SlotToBuffer[I.Imm]];
      if (B.ElemWidth != 1)
        return fail(TrapKind::BadLaunch,
                    "vload/vstore requires a scalar-element buffer");
      if (Start < 0 || static_cast<size_t>(Start) + W > B.Data.size())
        return fail(TrapKind::OutOfBounds, "out-of-bounds vector access");
      Storage = &B.Data;
      if (I.Op == Opcode::VLoad)
        ++C.GlobalLoads;
      else
        ++C.GlobalStores;
      ++C.CoalescedGlobal;
      break;
    }
    case MemSpace::Local: {
      auto &B = G.LocalBuffers[I.Imm];
      if (Start < 0 || static_cast<size_t>(Start) + W > B.size())
        return fail(TrapKind::OutOfBounds,
                    "out-of-bounds local vector access");
      Storage = &B;
      ++C.LocalAccesses;
      break;
    }
    case MemSpace::Private: {
      auto &B = S.PrivBuffers[I.Imm];
      if (Start < 0 || static_cast<size_t>(Start) + W > B.size())
        return fail(TrapKind::OutOfBounds,
                    "out-of-bounds private vector access");
      Storage = &B;
      ++C.PrivateAccesses;
      break;
    }
    }
    if (I.Op == Opcode::VLoad) {
      Value R;
      R.Width = static_cast<uint8_t>(W);
      for (int L = 0; L < W; ++L)
        R.Lanes[L] = (*Storage)[Start + L];
      S.Regs[I.Dst] = R;
    } else {
      const Value &V = S.Regs[I.B];
      for (int L = 0; L < W; ++L)
        (*Storage)[Start + L] = V.Lanes[L];
    }
    return true;
  }

  bool execAtomic(ItemState &S, GroupContext &G, const Instr &I) {
    int64_t Index = toInt(S.Regs[I.A].x());
    double *Cell = nullptr;
    switch (I.Space) {
    case MemSpace::Global: {
      BufferData &B = Buffers[SlotToBuffer[I.Imm]];
      if (Index < 0 || static_cast<size_t>(Index) >= B.elements())
        return fail(TrapKind::OutOfBounds, "out-of-bounds atomic access");
      Cell = &B.Data[Index * B.ElemWidth];
      break;
    }
    case MemSpace::Local: {
      auto &B = G.LocalBuffers[I.Imm];
      if (Index < 0 || static_cast<size_t>(Index) >= B.size())
        return fail(TrapKind::OutOfBounds, "out-of-bounds atomic access");
      Cell = &B[Index];
      break;
    }
    case MemSpace::Private:
      return fail(TrapKind::BadLaunch, "atomic on private memory");
    }
    ++C.AtomicOps;
    double Old = *Cell;
    double Operand = S.Regs[I.B].x();
    switch (static_cast<BuiltinOp>(I.Aux)) {
    case BuiltinOp::AtomicAdd: *Cell = Old + Operand; break;
    case BuiltinOp::AtomicSub: *Cell = Old - Operand; break;
    case BuiltinOp::AtomicInc: *Cell = Old + 1; break;
    case BuiltinOp::AtomicDec: *Cell = Old - 1; break;
    case BuiltinOp::AtomicMin: *Cell = std::min(Old, Operand); break;
    case BuiltinOp::AtomicMax: *Cell = std::max(Old, Operand); break;
    case BuiltinOp::AtomicXchg: *Cell = Operand; break;
    default: return fail(TrapKind::BadLaunch, "unknown atomic");
    }
    S.Regs[I.Dst] = Value::scalar(Old);
    return true;
  }

  bool execBuiltin(ItemState &S, const Instr &I) {
    const auto &ArgRegs = K.ArgLists[I.Imm];
    auto Op = static_cast<BuiltinOp>(I.Aux);
    auto Arg = [&](size_t N) -> const Value & { return S.Regs[ArgRegs[N]]; };

    // Work-item queries.
    auto Dim = [&](size_t N) -> int {
      int D = static_cast<int>(toInt(Arg(N).x()));
      return D < 0 || D > 2 ? 0 : D;
    };
    switch (Op) {
    case BuiltinOp::GetGlobalId:
      S.Regs[I.Dst] = Value::scalar(static_cast<double>(S.Gid[Dim(0)]));
      return true;
    case BuiltinOp::GetLocalId:
      S.Regs[I.Dst] = Value::scalar(static_cast<double>(S.Lid[Dim(0)]));
      return true;
    case BuiltinOp::GetGroupId:
      S.Regs[I.Dst] = Value::scalar(static_cast<double>(GroupId[Dim(0)]));
      return true;
    case BuiltinOp::GetGlobalSize:
      S.Regs[I.Dst] =
          Value::scalar(static_cast<double>(Config.GlobalSize[Dim(0)]));
      return true;
    case BuiltinOp::GetLocalSize:
      S.Regs[I.Dst] =
          Value::scalar(static_cast<double>(Config.LocalSize[Dim(0)]));
      return true;
    case BuiltinOp::GetNumGroups:
      S.Regs[I.Dst] =
          Value::scalar(static_cast<double>(GroupCount[Dim(0)]));
      return true;
    case BuiltinOp::GetWorkDim:
      S.Regs[I.Dst] = Value::scalar(static_cast<double>(Config.WorkDim));
      return true;
    default:
      break;
    }

    ++C.MathCalls;
    ++C.ComputeOps;

    // Reductions and geometric functions.
    switch (Op) {
    case BuiltinOp::Dot: {
      const Value &A = Arg(0), &B = Arg(1);
      double Sum = 0.0;
      for (int L = 0; L < A.Width; ++L)
        Sum += A.Lanes[L] * B.Lanes[B.Width == 1 ? 0 : L];
      S.Regs[I.Dst] = Value::scalar(Sum);
      return true;
    }
    case BuiltinOp::Length:
    case BuiltinOp::Distance: {
      const Value &A = Arg(0);
      double Sum = 0.0;
      for (int L = 0; L < A.Width; ++L) {
        double D = Op == BuiltinOp::Distance
                       ? A.Lanes[L] - Arg(1).Lanes[Arg(1).Width == 1 ? 0 : L]
                       : A.Lanes[L];
        Sum += D * D;
      }
      S.Regs[I.Dst] = Value::scalar(std::sqrt(Sum));
      return true;
    }
    case BuiltinOp::Normalize: {
      const Value &A = Arg(0);
      double Sum = 0.0;
      for (int L = 0; L < A.Width; ++L)
        Sum += A.Lanes[L] * A.Lanes[L];
      double Len = std::sqrt(Sum);
      Value R;
      R.Width = A.Width;
      for (int L = 0; L < A.Width; ++L)
        R.Lanes[L] = Len == 0.0 ? 0.0 : A.Lanes[L] / Len;
      S.Regs[I.Dst] = R;
      return true;
    }
    case BuiltinOp::Cross: {
      const Value &A = Arg(0), &B = Arg(1);
      Value R;
      R.Width = A.Width;
      R.Lanes[0] = A.Lanes[1] * B.Lanes[2] - A.Lanes[2] * B.Lanes[1];
      R.Lanes[1] = A.Lanes[2] * B.Lanes[0] - A.Lanes[0] * B.Lanes[2];
      R.Lanes[2] = A.Lanes[0] * B.Lanes[1] - A.Lanes[1] * B.Lanes[0];
      if (A.Width == 4)
        R.Lanes[3] = 0.0;
      S.Regs[I.Dst] = R;
      return true;
    }
    case BuiltinOp::Any:
    case BuiltinOp::All: {
      const Value &A = Arg(0);
      bool AnyTrue = false, AllTrue = true;
      for (int L = 0; L < A.Width; ++L) {
        AnyTrue |= A.Lanes[L] != 0.0;
        AllTrue &= A.Lanes[L] != 0.0;
      }
      S.Regs[I.Dst] =
          Value::scalar(Op == BuiltinOp::Any ? AnyTrue : AllTrue);
      return true;
    }
    default:
      break;
    }

    // Elementwise math. Width = max of arg widths.
    uint8_t Width = 1;
    for (uint16_t R : ArgRegs)
      Width = std::max(Width, S.Regs[R].Width);
    Value R;
    R.Width = Width;
    for (int L = 0; L < Width; ++L) {
      auto LaneOf = [&](size_t N) {
        const Value &V = Arg(N);
        return V.Lanes[V.Width == 1 ? 0 : L];
      };
      double X = ArgRegs.empty() ? 0.0 : LaneOf(0);
      double Out = 0.0;
      switch (Op) {
      case BuiltinOp::Sin: Out = std::sin(X); break;
      case BuiltinOp::Cos: Out = std::cos(X); break;
      case BuiltinOp::Tan: Out = std::tan(X); break;
      case BuiltinOp::Asin: Out = std::asin(X); break;
      case BuiltinOp::Acos: Out = std::acos(X); break;
      case BuiltinOp::Atan: Out = std::atan(X); break;
      case BuiltinOp::Sinh: Out = std::sinh(X); break;
      case BuiltinOp::Cosh: Out = std::cosh(X); break;
      case BuiltinOp::Tanh: Out = std::tanh(X); break;
      case BuiltinOp::Exp: Out = std::exp(X); break;
      case BuiltinOp::Exp2: Out = std::exp2(X); break;
      case BuiltinOp::Log: Out = std::log(X); break;
      case BuiltinOp::Log2: Out = std::log2(X); break;
      case BuiltinOp::Log10: Out = std::log10(X); break;
      case BuiltinOp::Sqrt: Out = std::sqrt(X); break;
      case BuiltinOp::Rsqrt: Out = 1.0 / std::sqrt(X); break;
      case BuiltinOp::Cbrt: Out = std::cbrt(X); break;
      case BuiltinOp::Fabs: Out = std::fabs(X); break;
      case BuiltinOp::Floor: Out = std::floor(X); break;
      case BuiltinOp::Ceil: Out = std::ceil(X); break;
      case BuiltinOp::Round: Out = std::round(X); break;
      case BuiltinOp::Trunc: Out = std::trunc(X); break;
      case BuiltinOp::Sign:
        Out = X > 0.0 ? 1.0 : (X < 0.0 ? -1.0 : 0.0);
        break;
      case BuiltinOp::Abs: Out = std::fabs(X); break;
      case BuiltinOp::IsNan: Out = std::isnan(X); break;
      case BuiltinOp::IsInf: Out = std::isinf(X); break;
      case BuiltinOp::Pow: Out = std::pow(X, LaneOf(1)); break;
      case BuiltinOp::Fmod: Out = std::fmod(X, LaneOf(1)); break;
      case BuiltinOp::Atan2: Out = std::atan2(X, LaneOf(1)); break;
      case BuiltinOp::Fmin: Out = std::fmin(X, LaneOf(1)); break;
      case BuiltinOp::Fmax: Out = std::fmax(X, LaneOf(1)); break;
      case BuiltinOp::Min: Out = std::fmin(X, LaneOf(1)); break;
      case BuiltinOp::Max: Out = std::fmax(X, LaneOf(1)); break;
      case BuiltinOp::Hypot: Out = std::hypot(X, LaneOf(1)); break;
      case BuiltinOp::Step: Out = LaneOf(1) < X ? 0.0 : 1.0; break;
      case BuiltinOp::Fdim: Out = std::fdim(X, LaneOf(1)); break;
      case BuiltinOp::Mul24:
        Out = static_cast<double>(toInt(X) * toInt(LaneOf(1)));
        break;
      case BuiltinOp::Rotate: {
        uint32_t V = static_cast<uint32_t>(toInt(X));
        uint32_t N = static_cast<uint32_t>(toInt(LaneOf(1))) & 31;
        Out = static_cast<double>((V << N) | (V >> ((32 - N) & 31)));
        break;
      }
      case BuiltinOp::Clamp:
        Out = std::fmin(std::fmax(X, LaneOf(1)), LaneOf(2));
        break;
      case BuiltinOp::Mix:
        Out = X + (LaneOf(1) - X) * LaneOf(2);
        break;
      case BuiltinOp::Fma:
      case BuiltinOp::Mad:
        Out = X * LaneOf(1) + LaneOf(2);
        break;
      case BuiltinOp::Mad24:
        Out = static_cast<double>(toInt(X) * toInt(LaneOf(1)) +
                                  toInt(LaneOf(2)));
        break;
      case BuiltinOp::Smoothstep: {
        double E0 = X, E1 = LaneOf(1), T = LaneOf(2);
        double U = (T - E0) / (E1 - E0);
        U = std::fmin(std::fmax(U, 0.0), 1.0);
        Out = U * U * (3.0 - 2.0 * U);
        break;
      }
      case BuiltinOp::Select: {
        // select(a, b, c): b where c is true.
        Out = LaneOf(2) != 0.0 ? LaneOf(1) : X;
        break;
      }
      default:
        fail(TrapKind::BadLaunch, "unhandled builtin in interpreter");
        return false;
      }
      R.Lanes[L] = Out;
    }
    S.Regs[I.Dst] = R;
    return true;
  }

  //===------------------------------------------------------------------===//
  // Work-group execution
  //===------------------------------------------------------------------===//

  void initItem(ItemState &S, size_t GidX, size_t GidY, size_t GidZ,
                size_t LidX, size_t LidY, size_t LidZ) {
    S.Regs.assign(K.RegisterCount, Value());
    S.Pc = 0;
    S.Done = false;
    S.Gid[0] = GidX;
    S.Gid[1] = GidY;
    S.Gid[2] = GidZ;
    S.Lid[0] = LidX;
    S.Lid[1] = LidY;
    S.Lid[2] = LidZ;
    // Reuse the private-buffer allocations across items/groups/launches;
    // assign() zeroes in place once the geometry matches.
    S.PrivBuffers.resize(K.PrivateBuffers.size());
    for (size_t BI = 0; BI < K.PrivateBuffers.size(); ++BI) {
      const PrivateBufferInfo &PB = K.PrivateBuffers[BI];
      S.PrivBuffers[BI].assign(
          static_cast<size_t>(PB.Elements) * PB.ElemWidth, 0.0);
    }
    for (const auto &[Reg, V] : ScalarPreloads)
      S.Regs[Reg] = V;
    S.PrevOp = -1;
  }

  /// Runs one item until barrier / halt / error.
  StepOutcome runUntilPause(ItemState &S, GroupContext &G) {
    if (ExecCode) {
#if CLGS_VM_COMPUTED_GOTO
      return runItemExecGoto(S, G);
#else
      return runItemExecSwitch(S, G);
#endif
    }
    for (;;) {
      StepOutcome O = step(S, G);
      if (O != StepOutcome::Continue)
        return O;
    }
  }

  bool runGroup(GroupContext &G) {
    size_t LX = Config.LocalSize[0], LY = Config.LocalSize[1],
           LZ = Config.LocalSize[2];
    size_t GroupItems = LX * LY * LZ;

    // Fresh local memory for this group, reusing prior allocations.
    G.LocalBuffers.resize(K.LocalBuffers.size());
    for (size_t BI = 0; BI < K.LocalBuffers.size(); ++BI) {
      const LocalBufferInfo &LB = K.LocalBuffers[BI];
      size_t Elems = LB.Elements > 0 ? static_cast<size_t>(LB.Elements)
                                     : LocalParamSizes[BI];
      if (Elems == 0)
        Elems = GroupItems; // Sensible default for driver-sized buffers.
      G.LocalBuffers[BI].assign(Elems * LB.ElemWidth, 0.0);
    }
    // Zero the per-group branch statistics in place.
    G.BranchSites.assign(BranchSiteCount, BranchStats());

    auto ItemCoords = [&](size_t Linear, size_t &LidX, size_t &LidY,
                          size_t &LidZ) {
      LidX = Linear % LX;
      LidY = (Linear / LX) % LY;
      LidZ = Linear / (LX * LY);
    };

    if (!K.HasBarrier) {
      // Fast path: one item at a time, a single reusable state.
      ItemState &S = Scratch.Single;
      for (size_t Linear = 0; Linear < GroupItems; ++Linear) {
        size_t LidX, LidY, LidZ;
        ItemCoords(Linear, LidX, LidY, LidZ);
        initItem(S, GroupId[0] * LX + LidX, GroupId[1] * LY + LidY,
                 GroupId[2] * LZ + LidZ, LidX, LidY, LidZ);
        StepOutcome O = runUntilPause(S, G);
        if (O == StepOutcome::Error)
          return false;
        if (O == StepOutcome::AtBarrier)
          return fail(TrapKind::BarrierDivergence,
                      "barrier reached by a kernel compiled without "
                      "barrier support");
        ++C.ItemsExecuted;
      }
      return true;
    }

    // Barrier path: phase-lockstep execution of all items in the group.
    std::vector<ItemState> &States = Scratch.States;
    States.resize(GroupItems);
    for (size_t Linear = 0; Linear < GroupItems; ++Linear) {
      size_t LidX, LidY, LidZ;
      ItemCoords(Linear, LidX, LidY, LidZ);
      initItem(States[Linear], GroupId[0] * LX + LidX,
               GroupId[1] * LY + LidY, GroupId[2] * LZ + LidZ, LidX, LidY,
               LidZ);
    }
    for (;;) {
      size_t AtBarrier = 0, Done = 0;
      for (ItemState &S : States) {
        if (S.Done) {
          ++Done;
          continue;
        }
        StepOutcome O = runUntilPause(S, G);
        if (O == StepOutcome::Error)
          return false;
        if (O == StepOutcome::AtBarrier)
          ++AtBarrier;
        else
          ++Done;
      }
      if (AtBarrier == 0) {
        C.ItemsExecuted += GroupItems;
        return true;
      }
      if (AtBarrier + Done != GroupItems || Done != 0) {
        // Some items passed the barrier while others finished: divergent
        // barrier, undefined behaviour in OpenCL, rejected here.
        if (Done != 0)
          return fail(TrapKind::BarrierDivergence,
                      "barrier divergence: not all work-items reached the "
                      "barrier");
      }
    }
  }

public:
  Result<ExecCounters> runImpl() {
    Start = std::chrono::steady_clock::now();
    // Injection sites for the launch path: an outright launch failure,
    // and a bounded stall that models a hung worker — long enough for an
    // armed watchdog to fire, short enough that unwatched runs still
    // terminate.
    if (CLGS_FAILPOINT("vm.launch"))
      return Result<ExecCounters>::error("injected fault at vm.launch",
                                         TrapKind::Injected);
    (void)CLGS_FAILPOINT_STALL("vm.stall", 0);
    // Malformed or corrupted bytecode (out-of-range Aux operands, bad
    // widths, wild jump targets) classifies as BadLaunch here, in every
    // dispatch mode, instead of hitting an unhandled enum cast
    // mid-execution.
    std::string Malformed = verifyKernel(K);
    if (!Malformed.empty())
      return Result<ExecCounters>::error(
          "malformed kernel bytecode: " + Malformed, TrapKind::BadLaunch);
    if (!bindArgs())
      return Result<ExecCounters>::error(Error, ErrKind);
    if (Config.Profile)
      ++Config.Profile->Launches;
    WatchdogNext = Config.WatchdogMs != 0 ? 0 : UINT64_MAX;

    // Resolve conditional-branch sites to dense indices once per launch;
    // the dispatch loop then updates divergence stats with one indexed
    // load instead of a hash-map lookup per executed branch.
    BranchSiteOf.assign(K.Code.size(), -1);
    BranchSiteCount = 0;
    for (size_t Pc = 0; Pc < K.Code.size(); ++Pc)
      if (K.Code[Pc].Op == Opcode::Jz || K.Code[Pc].Op == Opcode::Jnz)
        BranchSiteOf[Pc] = BranchSiteCount++;

    // Resolve the dispatch strategy. Profiling launches always take the
    // reference switch loop: the per-instruction profile hook lives only
    // there, which keeps the threaded loop free of it.
    DispatchMode Mode = Config.Dispatch;
    if (Config.Profile)
      Mode = DispatchMode::Switch;
    else if (Mode == DispatchMode::Auto)
      Mode = threadedDispatchAvailable() ? DispatchMode::Threaded
                                         : DispatchMode::Switch;
    if (Mode == DispatchMode::Threaded) {
      prepareExecProgram(K, Scratch.Prog);
      ExecCode = Scratch.Prog.Code.data();
    }

    for (int D = 0; D < 3; ++D) {
      if (Config.LocalSize[D] == 0 || Config.GlobalSize[D] == 0)
        return Result<ExecCounters>::error("empty NDRange",
                                           TrapKind::BadLaunch);
      if (Config.GlobalSize[D] % Config.LocalSize[D] != 0)
        return Result<ExecCounters>::error(
            "global size must be a multiple of local size",
            TrapKind::BadLaunch);
      GroupCount[D] = Config.GlobalSize[D] / Config.LocalSize[D];
    }
    size_t TotalGroups = GroupCount[0] * GroupCount[1] * GroupCount[2];
    size_t GroupItems =
        Config.LocalSize[0] * Config.LocalSize[1] * Config.LocalSize[2];
    C.ItemsTotal = TotalGroups * GroupItems;

    size_t GroupsToRun = std::min(TotalGroups, Config.MaxWorkGroups);
    size_t Stride = TotalGroups / GroupsToRun;
    if (Stride == 0)
      Stride = 1;

    double DivergenceSum = 0.0;
    uint64_t DivergenceBranches = 0;

    for (size_t GI = 0, Ran = 0; GI < TotalGroups && Ran < GroupsToRun;
         GI += Stride, ++Ran) {
      GroupId[0] = GI % GroupCount[0];
      GroupId[1] = (GI / GroupCount[0]) % GroupCount[1];
      GroupId[2] = GI / (GroupCount[0] * GroupCount[1]);
      GroupContext &G = Scratch.Group;
      if (!runGroup(G))
        return Result<ExecCounters>::error(Error, ErrKind);
      for (const BranchStats &BS : G.BranchSites) {
        if (BS.Total == 0)
          continue;
        double P = static_cast<double>(BS.Taken) /
                   static_cast<double>(BS.Total);
        DivergenceSum += 2.0 * std::min(P, 1.0 - P) *
                         static_cast<double>(BS.Total);
        DivergenceBranches += BS.Total;
      }
    }

    if (DivergenceBranches > 0)
      C.Divergence = DivergenceSum / static_cast<double>(DivergenceBranches);

    // Scale sampled counters up to the full NDRange.
    if (C.ItemsExecuted > 0 && C.ItemsExecuted < C.ItemsTotal) {
      double Scale = static_cast<double>(C.ItemsTotal) /
                     static_cast<double>(C.ItemsExecuted);
      auto ScaleUp = [Scale](uint64_t &X) {
        X = static_cast<uint64_t>(static_cast<double>(X) * Scale);
      };
      ScaleUp(C.Instructions);
      ScaleUp(C.ComputeOps);
      ScaleUp(C.MathCalls);
      ScaleUp(C.GlobalLoads);
      ScaleUp(C.GlobalStores);
      ScaleUp(C.CoalescedGlobal);
      ScaleUp(C.LocalAccesses);
      ScaleUp(C.PrivateAccesses);
      ScaleUp(C.Branches);
      ScaleUp(C.AtomicOps);
      ScaleUp(C.Barriers);
    }
    return C;
  }
};

// Instantiate the threaded exec loop twice from one handler-body
// template: the portable switch over ExtOp (always compiled, keeps the
// fallback from rotting) and the computed-goto loop when the extension
// is available.
#define CLGS_EXEC_USE_GOTO 0
#define CLGS_EXEC_FN runItemExecSwitch
#include "vm/InterpreterExecLoop.inc"
#undef CLGS_EXEC_FN
#undef CLGS_EXEC_USE_GOTO

#if CLGS_VM_COMPUTED_GOTO
#define CLGS_EXEC_USE_GOTO 1
#define CLGS_EXEC_FN runItemExecGoto
#include "vm/InterpreterExecLoop.inc"
#undef CLGS_EXEC_FN
#undef CLGS_EXEC_USE_GOTO
#endif

} // namespace

Result<ExecCounters> Engine::run() { return runImpl(); }

bool vm::threadedDispatchAvailable() { return CLGS_VM_COMPUTED_GOTO != 0; }

const char *vm::dispatchModeName(DispatchMode Mode) {
  switch (Mode) {
  case DispatchMode::Auto: return "auto";
  case DispatchMode::Switch: return "switch";
  case DispatchMode::Threaded: return "threaded";
  }
  return "?";
}

Result<ExecCounters> vm::launchKernel(const CompiledKernel &Kernel,
                                      const std::vector<KernelArg> &Args,
                                      std::vector<BufferData> &Buffers,
                                      const LaunchConfig &Config) {
  // Per-thread scratch persists across launches: register files, private
  // and local buffer storage are recycled, and concurrent launches from
  // the synthesis thread pool each get their own arena.
  static thread_local ExecScratch Scratch;
  Engine E(Kernel, Args, Buffers, Config, Scratch);
  return E.run();
}
