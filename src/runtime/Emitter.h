//===- runtime/Emitter.h - Chain buffer and concrete value domain -----------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lowest layer of the specializer: appending instructions to one code
/// chain's buffer, plus the accounting of the emit-time layer.
///
/// EmitEvents is the one table that maps each accounting event of the
/// emit-time optimizations (section 2.2.7) to its cost-model rate, its
/// RegionStats counter and its PlanStep replay count. The emit-time
/// decision tree itself (folding, zero/copy propagation, dead-assignment
/// elimination, strength reduction, immediate packing with commutation)
/// lives once, in the value-domain template of runtime/Deferral.h. The
/// Emitter is that template's *concrete* domain: values are Words, value
/// tests compute directly, events charge the VM and bump RegionStats, and
/// emission appends to the chain buffer. The emit-plan builder
/// (cogen/EmitPlan.cpp) instantiates the same template over a symbolic
/// domain; PlanRunner replays the counts it records through EmitEvents.
///
/// The region code cap (OptFlags::MaxRegionInstrs) is enforced here as a
/// soft limit: instructions emitted past the cap are counted in
/// RegionStats::CodeCapHits instead of aborting. The simulated address
/// reservation of a chain only covers the cap, so an over-cap chain may
/// alias its neighbor in the I-cache model — a modeling inaccuracy, not a
/// correctness hazard.
///
/// The bytecode the emitter writes is what executes: each VM's predecoded
/// engine translates a chain on first touch (vm/Decoded.h).
///
//===----------------------------------------------------------------------===//

#ifndef DYC_RUNTIME_EMITTER_H
#define DYC_RUNTIME_EMITTER_H

#include "cogen/EmitPlan.h"
#include "ir/ConstEval.h"
#include "runtime/RuntimeStats.h"
#include "vm/VM.h"

namespace dyc {
namespace runtime {

/// One accounting event of the emit-time layer.
enum class EmitEvent : uint8_t {
  Emit,            ///< one instruction appended
  EmitHole,        ///< one hole operand filled
  EvalOp,          ///< one static computation (set-up eval or dynamic fold)
  StaticLoad,      ///< one static load executed at specialize time
  ZcpCheck,        ///< one zero/copy-propagation candidate test
  SrCheck,         ///< one strength-reduction test
  TableOp,         ///< one deferral-table insert, resolve hop or kill
  ZcpApplied,      ///< an operation reduced to a move or a clear
  StrengthReduced, ///< a multiply/divide/remainder reduced to shifts
  DeadAssign,      ///< a deferred result dropped unread
  Materialized,    ///< a deferred result forced out
};

struct EmitEventRow {
  uint32_t vm::CostModel::*Rate;     ///< cycles per event, or null
  uint64_t RegionStats::*Stat;       ///< counter bumped per event, or null
  uint32_t cogen::PlanStep::*Count;  ///< the plan step's replay count
};

/// Indexed by EmitEvent.
inline constexpr EmitEventRow EmitEvents[] = {
    {&vm::CostModel::SpecEmit, &RegionStats::InstructionsGenerated,
     &cogen::PlanStep::Emits},
    {&vm::CostModel::SpecEmitHole, nullptr, &cogen::PlanStep::EmitHoles},
    {&vm::CostModel::SpecEvalOp, nullptr, &cogen::PlanStep::EvalOps},
    {&vm::CostModel::SpecStaticLoad, &RegionStats::StaticLoadsExecuted,
     &cogen::PlanStep::StaticLoads},
    {&vm::CostModel::SpecZcpTableOp, nullptr, &cogen::PlanStep::ZcpChecks},
    {&vm::CostModel::SpecStrengthCheck, nullptr, &cogen::PlanStep::SrChecks},
    {&vm::CostModel::SpecZcpTableOp, nullptr, &cogen::PlanStep::TableOps},
    {nullptr, &RegionStats::ZcpApplied, &cogen::PlanStep::ZcpApplied},
    {nullptr, &RegionStats::StrengthReduced,
     &cogen::PlanStep::StrengthReduced},
    {nullptr, &RegionStats::DeadAssignsEliminated,
     &cogen::PlanStep::DeadAssigns},
    {nullptr, &RegionStats::MaterializedDeferred,
     &cogen::PlanStep::Materialized},
};
static_assert(sizeof(EmitEvents) / sizeof(EmitEvents[0]) ==
                  static_cast<size_t>(EmitEvent::Materialized) + 1,
              "one EmitEvents row per EmitEvent");

/// True for the opcodes the emitter treats as single-operand (fold with
/// only A resolved).
bool isUnaryOpcode(ir::Opcode Op);

/// The emit-time encoding tables.
vm::Op vmOpOf(ir::Opcode Op);      ///< reg-reg form; fatals if none
vm::Op immFormOf(ir::Opcode Op);   ///< immediate form; vm::Op::Halt if none
bool isCommutativeOpcode(ir::Opcode Op);
ir::Opcode mirrorCompare(ir::Opcode Op); ///< Lt<->Gt, Le<->Ge; else Op

/// Appends to one code chain's buffer; the concrete value domain of the
/// emit-time engine (runtime/Deferral.h).
class Emitter {
public:
  using Val = Word;
  using Env = std::vector<Word>;

  Emitter(vm::CodeObject &Buf, RegionStats &Stats, vm::VM &M,
          size_t MaxInstrs)
      : Buf(Buf), Stats(Stats), M(M), CM(M.costModel()),
        MaxInstrs(MaxInstrs) {}

  uint32_t size() const { return static_cast<uint32_t>(Buf.Code.size()); }

  /// Mutable access to an already-emitted instruction (branch patching,
  /// hole filling). Bumps the buffer's Version so the VM's predecoded
  /// translation cache re-decodes instead of running a stale translation.
  vm::Instr &at(size_t PC) {
    ++Buf.Version;
    return Buf.Code[PC];
  }

  template <EmitEvent E> void count() {
    constexpr const EmitEventRow &Row = EmitEvents[static_cast<size_t>(E)];
    if constexpr (Row.Rate != nullptr)
      M.chargeDynComp(CM.*Row.Rate);
    if constexpr (Row.Stat != nullptr)
      ++(Stats.*Row.Stat);
  }

  void emitRaw(vm::Instr I) {
    if (Buf.Code.size() >= MaxInstrs)
      ++Stats.CodeCapHits; // soft cap: count, don't truncate or abort
    Buf.Code.push_back(I);
    count<EmitEvent::Emit>();
  }
  /// emitRaw with the Imm field set to bits(\p V) + \p Add.
  void emitRawImm(vm::Instr I, Word V, int64_t Add) {
    I.Imm = wrapAdd(static_cast<int64_t>(V.Bits), Add);
    emitRaw(I);
  }

  // Value operations: specialize-time values are known, so every test and
  // computation happens now.
  static Word staticVal(const Env &Vals, uint32_t Reg) { return Vals[Reg]; }
  static Word lit(Word W) { return W; }
  static int64_t litInt(Word W) { return W.asInt(); }
  static Word capture(Word W) { return W; }
  static bool eqBits(Word V, Word Cmp) { return V.Bits == Cmp.Bits; }
  static bool pow2Ge2(Word V) {
    int64_t C = V.asInt();
    return isPowerOf2(C) && C >= 2;
  }
  /// \p Op is evaluable and not a division by zero (the engine tests that
  /// first), so the fold cannot fail.
  static Word eval(ir::Opcode Op, Word A, Word B) {
    Word Out;
    ir::evalPureOp(Op, A, B, Out);
    return Out;
  }
  static Word log2(Word V) { return Word::fromInt(log2OfPow2(V.asInt())); }

private:
  vm::CodeObject &Buf;
  RegionStats &Stats;
  vm::VM &M;
  const vm::CostModel &CM;
  size_t MaxInstrs;
};

} // namespace runtime
} // namespace dyc

#endif // DYC_RUNTIME_EMITTER_H
