//===- runtime/Deferral.h - The emit-time optimizations, once ---------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The middle layer of the specializer: the staged emit-time optimizations
/// of paper section 2.2.7, written once and templated on a value domain.
///
/// emitDynamic() is the front door: it resolves a planned dynamic
/// instruction's operands, applies dynamic constant folding, the zero/copy
/// rewrites and power-of-two strength reduction, then defers or emits the
/// result. Dynamic instructions whose results are block-dead by the static
/// plan are *deferred* into a table instead of being emitted. Reads resolve
/// through the table — pending moves are chased (copy propagation),
/// pending constants are returned as values (zero propagation) — and a
/// pending entry is only materialized if emitted code actually consumes its
/// result. An entry overwritten before any consumer is dropped, never
/// emitted: dead-assignment elimination at specialize time. emitResolved()
/// encodes one resolved instruction: hole filling, immediate-field packing,
/// commutation and compare mirroring to reach an immediate form, and
/// folding of all-constant operands.
///
/// The Domain supplies the values and the effects:
///
///  * Val / Env — a specialize-time value, and what static registers are
///    read from; staticVal(), lit(), litInt() and capture() (a value about
///    to be stored in the table must outlive later set-up evaluation).
///  * Value tests and computations — eqBits(), pow2Ge2(), eval(), log2().
///  * count<EmitEvent>() — accounting, through the EmitEvents table.
///  * emitRaw() / emitRawImm() — emission, the latter with its Imm field
///    computed from a value.
///
/// Two domains exist. The concrete one (runtime::Emitter) computes on
/// Words at specialize time and appends to the chain buffer. The symbolic
/// one (cogen/EmitPlan.cpp) runs at plan-build time over PlanRefs: a value
/// test it cannot decide aborts the op so the builder forks on a guard,
/// counts go to the open plan step, and emission appends to a Copy
/// template and its hole list. Every domain hook is a non-virtual inline
/// call, so the concrete instance compiles to straight-line code.
///
/// The table is per specialized block: the unroll driver resets it at
/// every block boundary (deferrable results are block-dead by the plan).
///
//===----------------------------------------------------------------------===//

#ifndef DYC_RUNTIME_DEFERRAL_H
#define DYC_RUNTIME_DEFERRAL_H

#include "bta/OptFlags.h"
#include "cogen/GenExt.h"
#include "runtime/Emitter.h"

#include <map>
#include <vector>

namespace dyc {
namespace runtime {

/// A resolved operand: either a known constant (a hole to fill) or a
/// run-time register.
template <typename V> struct ResolvedVal {
  bool IsConst = false;
  V C{};
  uint32_t R = vm::NoReg;
  /// Index of a still-pending deferred entry producing R, or -1. The
  /// producer is materialized only if this operand is actually consumed by
  /// emitted code — the laziness that lets zero/copy propagation kill
  /// whole dead chains (address arithmetic feeding a load feeding a
  /// multiply by zero).
  int32_t Dep = -1;

  static ResolvedVal reg(uint32_t R, int32_t Dep = -1) {
    ResolvedVal X;
    X.R = R;
    X.Dep = Dep;
    return X;
  }
  static ResolvedVal cst(V C) {
    ResolvedVal X;
    X.IsConst = true;
    X.C = C;
    return X;
  }
};

template <typename Domain> class DeferralEngineT {
public:
  using Val = typename Domain::Val;
  using Env = typename Domain::Env;
  using RV = ResolvedVal<Val>;

  /// A deferred (not yet emitted) pure instruction.
  struct Entry {
    ir::Opcode Op = ir::Opcode::Mov;
    ir::Type Ty = ir::Type::I64;
    uint32_t Dst = vm::NoReg;
    RV A, B;
    Val Imm{};
    bool Pending = true;
  };

  /// The deferral table: entries in creation order, and each register's
  /// latest pending producer.
  struct Table {
    std::vector<Entry> Entries;
    std::map<uint32_t, size_t> Latest;
  };

  DeferralEngineT(Domain &Dom, const OptFlags &Flags,
                  const cogen::GenExtFunction &GX)
      : Dom(Dom), Flags(Flags), GX(GX) {}

  /// The live table; the plan builder snapshots and restores it.
  Table &table() { return T; }

  /// Block boundary: forget pending entries without emitting (the caller
  /// uses dropAllPending() first when the drops must be counted).
  void reset() {
    T.Entries.clear();
    T.Latest.clear();
  }

  /// Reinstalls one reconstructed table entry (a plan Sync step replaying
  /// the state the compiled steps imply). Pure bookkeeping: the charges
  /// and stats of the entry's creation were already replayed by the plan's
  /// Copy steps.
  void restore(const Entry &D) {
    T.Entries.push_back(D);
    if (D.Pending)
      T.Latest[D.Dst] = T.Entries.size() - 1;
  }

  /// Resolves a run-time register through the deferral table.
  RV readResolve(uint32_t Reg) {
    uint32_t Cur = Reg;
    while (true) {
      auto It = T.Latest.find(Cur);
      if (It == T.Latest.end())
        return RV::reg(Cur);
      Entry &D = T.Entries[It->second];
      Dom.template count<EmitEvent::TableOp>();
      if (D.Op == ir::Opcode::Mov) {
        if (D.A.IsConst)
          return D.A;
        Cur = D.A.R;
        continue;
      }
      if (D.Op == ir::Opcode::ConstI || D.Op == ir::Opcode::ConstF)
        return RV::cst(D.Imm);
      return RV::reg(Cur, static_cast<int32_t>(It->second));
    }
  }

  RV resolveOperand(const cogen::Operand &O, const Env &Vals) {
    if (O.R == ir::NoReg)
      return RV();
    if (O.Static)
      return RV::cst(Domain::staticVal(Vals, O.R));
    return readResolve(O.R);
  }

  /// If \p A references a still-pending deferred producer, emit it (and,
  /// recursively, its dependencies).
  void forceOperand(const RV &A) {
    if (A.Dep >= 0 && T.Entries[static_cast<size_t>(A.Dep)].Pending)
      materializeEntry(static_cast<size_t>(A.Dep));
  }

  /// Drops every still-pending entry (block boundary; deferrable results
  /// are block-dead by the static plan).
  void dropAllPending() {
    for (Entry &D : T.Entries) {
      if (!D.Pending)
        continue;
      D.Pending = false;
      Dom.template count<EmitEvent::DeadAssign>();
    }
    T.Latest.clear();
  }

  /// Emits the constant \p C into \p Dst (one hole).
  void emitConst(uint32_t Dst, const Val &C, ir::Type Ty) {
    Dom.template count<EmitEvent::EmitHole>();
    Dom.emitRawImm({Ty == ir::Type::F64 ? vm::Op::ConstF : vm::Op::ConstI,
                    Dst},
                   C, 0);
  }

  /// Resolves, optimizes, and defers-or-emits one planned dynamic
  /// instruction (SetupOp::EmitInstr).
  void emitDynamic(const cogen::SetupOp &Op, const Env &Vals) {
    using ir::Opcode;
    if (Op.Op == Opcode::Call || Op.Op == Opcode::CallExt) {
      std::vector<RV> Args;
      Args.reserve(Op.Args.size());
      for (const cogen::Operand &A : Op.Args)
        Args.push_back(resolveOperand(A, Vals));
      memoryClobber();
      writeEvent(Op.Dst);
      for (size_t I = 0; I != Args.size(); ++I) {
        uint32_t Stage = GX.StageBase + static_cast<uint32_t>(I);
        ir::Type ArgTy = GX.RegTypes[Op.Args[I].R];
        forceOperand(Args[I]);
        emitResolved(Opcode::Mov, ArgTy, Stage, Args[I], RV(), Val{});
      }
      Dom.emitRaw({Op.Op == Opcode::Call ? vm::Op::Call : vm::Op::CallExt,
                   Op.Dst == ir::NoReg ? vm::NoReg : Op.Dst, GX.StageBase,
                   static_cast<uint32_t>(Args.size()), Op.Callee});
      return;
    }

    RV A = resolveOperand(Op.A, Vals);
    RV B = resolveOperand(Op.B, Vals);

    // A move that resolves to its own destination (copy propagation came
    // full circle) is a no-op: the register already holds the value.
    if (Op.Op == Opcode::Mov && !A.IsConst && A.R == Op.Dst)
      return;

    if (Op.Op == Opcode::Store) {
      memoryClobber();
      forceOperand(A);
      forceOperand(B);
      emitResolved(Opcode::Store, ir::Type::I64, vm::NoReg, A, B,
                   Domain::lit(Word::fromInt(Op.Imm)));
      return;
    }

    // Dynamic constant folding: propagation can turn both operands into
    // constants.
    if (A.IsConst && (isUnaryOpcode(Op.Op) || B.IsConst) &&
        foldable(Op.Op, B)) {
      Dom.template count<EmitEvent::EvalOp>();
      deferOrEmit(Op,
                  Op.Ty == ir::Type::F64 ? Opcode::ConstF : Opcode::ConstI,
                  Op.Ty, Op.Dst, RV(), RV(), Dom.eval(Op.Op, A.C, B.C));
      return;
    }

    // Staged zero/copy propagation (section 2.2.7): a special value of
    // the single constant operand reduces the operation to a move or a
    // clear.
    bool OneConst = A.IsConst != B.IsConst;
    const RV &CS = A.IsConst ? A : B;
    const RV &DS = A.IsConst ? B : A;
    bool ConstOnRight = B.IsConst;
    if (Flags.ZeroCopyPropagation && OneConst) {
      Dom.template count<EmitEvent::ZcpCheck>();
      bool IsFloat = Op.Ty == ir::Type::F64;
      Word One = IsFloat ? Word::fromFloat(1.0) : Word::fromInt(1);
      Word Zero = IsFloat ? Word::fromFloat(0.0) : Word::fromInt(0);
      bool RewriteToMove = false, RewriteToClear = false;
      switch (Op.Op) {
      case Opcode::Mul:
      case Opcode::FMul:
        RewriteToMove = Dom.eqBits(CS.C, One);
        RewriteToClear = !RewriteToMove && Dom.eqBits(CS.C, Zero);
        break;
      case Opcode::Add:
      case Opcode::FAdd:
        RewriteToMove = Dom.eqBits(CS.C, Zero);
        break;
      case Opcode::Sub:
      case Opcode::FSub:
        RewriteToMove = ConstOnRight && Dom.eqBits(CS.C, Zero);
        break;
      case Opcode::Div:
      case Opcode::FDiv:
        RewriteToMove = ConstOnRight && Dom.eqBits(CS.C, One);
        break;
      default:
        break;
      }
      if (RewriteToMove) {
        Dom.template count<EmitEvent::ZcpApplied>();
        deferOrEmit(Op, Opcode::Mov, Op.Ty, Op.Dst, DS, RV(), Val{});
        return;
      }
      if (RewriteToClear) {
        Dom.template count<EmitEvent::ZcpApplied>();
        deferOrEmit(Op, IsFloat ? Opcode::ConstF : Opcode::ConstI, Op.Ty,
                    Op.Dst, RV(), RV(), Domain::lit(Zero));
        return;
      }
    }

    // Strength reduction (section 2.2.7): integer multiply/divide/
    // remainder by a power of two become shifts and masks. Only a
    // multiply (either side) or a divisor on the right is rewritten.
    if (Flags.StrengthReduction && OneConst &&
        (Op.Op == Opcode::Mul || Op.Op == Opcode::Div ||
         Op.Op == Opcode::Rem)) {
      Dom.template count<EmitEvent::SrCheck>();
      if ((Op.Op == Opcode::Mul || ConstOnRight) && Dom.pow2Ge2(CS.C)) {
        Dom.template count<EmitEvent::StrengthReduced>();
        if (Op.Op == Opcode::Mul) {
          deferOrEmit(Op, Opcode::Shl, Op.Ty, Op.Dst, DS,
                      RV::cst(Dom.log2(CS.C)), Val{});
          return;
        }
        // Exact shift sequence (C truncates toward zero, so negative
        // dividends need the bias fixup) — the same code an optimizing
        // static compiler emits for constant power-of-two divisors.
        forceOperand(DS);
        writeEvent(Op.Dst);
        Val K = Dom.log2(CS.C);
        uint32_t X = DS.R;
        uint32_t S0 = GX.Scratch0;
        Dom.emitRaw({vm::Op::ShrI, S0, X, 0, 63});
        Dom.emitRawImm({vm::Op::AndI, S0, S0}, CS.C, -1); // C - 1
        Dom.emitRaw({vm::Op::Add, S0, X, S0});
        if (Op.Op == Opcode::Div) {
          Dom.emitRawImm({vm::Op::ShrI, Op.Dst, S0}, K, 0);
        } else {
          Dom.emitRawImm({vm::Op::ShrI, S0, S0}, K, 0);
          Dom.emitRawImm({vm::Op::ShlI, S0, S0}, K, 0);
          Dom.emitRaw({vm::Op::Sub, Op.Dst, X, S0});
        }
        return;
      }
    }

    deferOrEmit(Op, Op.Op, Op.Ty, Op.Dst, A, B,
                Domain::lit(Word::fromInt(Op.Imm)));
  }

  /// Emits one resolved instruction. Operands carrying a deferred-producer
  /// Dep must have been forced by the caller — emission never re-enters
  /// the deferral table.
  void emitResolved(ir::Opcode Op, ir::Type Ty, uint32_t Dst, const RV &A,
                    const RV &B, const Val &Imm) {
    using ir::Opcode;
    switch (Op) {
    case Opcode::ConstI:
    case Opcode::ConstF:
      emitConst(Dst, Imm, Ty);
      return;
    case Opcode::Mov:
      if (A.IsConst) {
        emitConst(Dst, A.C, Ty);
      } else if (A.R != Dst) {
        Dom.emitRaw({Ty == ir::Type::F64 ? vm::Op::FMov : vm::Op::Mov, Dst,
                     A.R});
      }
      return;
    case Opcode::Neg:
    case Opcode::FNeg:
    case Opcode::IToF:
    case Opcode::FToI:
      if (A.IsConst) {
        emitConst(Dst, Dom.eval(Op, A.C, Val{}), Ty);
        return;
      }
      Dom.emitRaw({vmOpOf(Op), Dst, A.R});
      return;
    case Opcode::Load:
      if (A.IsConst) {
        Dom.template count<EmitEvent::EmitHole>();
        Dom.emitRawImm({vm::Op::LoadAbs, Dst}, A.C, Domain::litInt(Imm));
      } else {
        Dom.emitRaw({vm::Op::Load, Dst, A.R, 0, Domain::litInt(Imm)});
      }
      return;
    case Opcode::Store: {
      // A = address, B = value.
      uint32_t ValReg = regOf(B, ir::Type::I64, GX.Scratch0);
      if (A.IsConst) {
        Dom.template count<EmitEvent::EmitHole>();
        Dom.emitRawImm({vm::Op::StoreAbs, ValReg}, A.C, Domain::litInt(Imm));
      } else {
        Dom.emitRaw({vm::Op::Store, ValReg, A.R, 0, Domain::litInt(Imm)});
      }
      return;
    }
    default:
      break;
    }

    // Binary arithmetic / comparison.
    if (A.IsConst && B.IsConst) {
      if (foldable(Op, B)) {
        emitConst(Dst, Dom.eval(Op, A.C, B.C), Ty);
        return;
      }
      // Unfoldable (division by zero): emit faithfully so the fault
      // happens at run time, as it would have in static code.
      uint32_t RA = regOf(A, ir::Type::I64, GX.Scratch0);
      uint32_t RB = regOf(B, ir::Type::I64, GX.Scratch1);
      Dom.emitRaw({vmOpOf(Op), Dst, RA, RB});
      return;
    }
    if (!A.IsConst && B.IsConst) {
      vm::Op IF = immFormOf(Op);
      if (IF != vm::Op::Halt) {
        Dom.template count<EmitEvent::EmitHole>();
        Dom.emitRawImm({IF, Dst, A.R}, B.C, 0);
        return;
      }
      bool FloatOperand = Op == Opcode::FCmpEq || Op == Opcode::FCmpNe ||
                          Op == Opcode::FCmpLt || Op == Opcode::FCmpLe ||
                          Op == Opcode::FCmpGt || Op == Opcode::FCmpGe;
      uint32_t RB = regOf(B, FloatOperand ? ir::Type::F64 : ir::Type::I64,
                          GX.Scratch1);
      Dom.emitRaw({vmOpOf(Op), Dst, A.R, RB});
      return;
    }
    if (A.IsConst && !B.IsConst) {
      if (isCommutativeOpcode(Op)) {
        emitResolved(Op, Ty, Dst, B, A, Imm);
        return;
      }
      Opcode Mirrored = mirrorCompare(Op);
      if (Mirrored != Op) {
        emitResolved(Mirrored, Ty, Dst, B, A, Imm);
        return;
      }
      bool FloatOperand = Op == Opcode::FSub || Op == Opcode::FDiv;
      uint32_t RA = regOf(A, FloatOperand ? ir::Type::F64 : ir::Type::I64,
                          GX.Scratch0);
      Dom.emitRaw({vmOpOf(Op), Dst, RA, B.R});
      return;
    }
    Dom.emitRaw({vmOpOf(Op), Dst, A.R, B.R});
  }

private:
  /// True when \p Op folds given constant operands: it is evaluable and
  /// not an integer division by a zero \p B (a value test).
  bool foldable(ir::Opcode Op, const RV &B) {
    if (!ir::isEvaluableOp(Op))
      return false;
    return !((Op == ir::Opcode::Div || Op == ir::Opcode::Rem) &&
             Dom.eqBits(B.C, Word::fromInt(0)));
  }

  /// Ensures \p A is in a register, materializing constants into \p
  /// Scratch; returns the register.
  uint32_t regOf(const RV &A, ir::Type Ty, uint32_t Scratch) {
    if (!A.IsConst)
      return A.R;
    emitConst(Scratch, A.C, Ty);
    return Scratch;
  }

  /// Emits a pending entry now ("the move is materialized"), after any
  /// still-pending producers of its operands.
  void materializeEntry(size_t Idx) {
    Entry &D = T.Entries[Idx];
    if (!D.Pending)
      return;
    D.Pending = false;
    auto It = T.Latest.find(D.Dst);
    if (It != T.Latest.end() && It->second == Idx)
      T.Latest.erase(It);
    Dom.template count<EmitEvent::Materialized>();
    forceOperand(D.A);
    forceOperand(D.B);
    emitResolved(D.Op, D.Ty, D.Dst, D.A, D.B, D.Imm);
  }

  /// Before an instruction writes \p Dst: pending readers of Dst must be
  /// materialized (they captured the old value's register); a pending
  /// producer of Dst is dead and is dropped — dead-assignment elimination.
  void writeEvent(uint32_t Dst) {
    if (Dst == vm::NoReg)
      return;
    for (size_t I = 0; I != T.Entries.size(); ++I) {
      Entry &D = T.Entries[I];
      if (!D.Pending)
        continue;
      if ((!D.A.IsConst && D.A.R == Dst) || (!D.B.IsConst && D.B.R == Dst))
        materializeEntry(I);
    }
    auto It = T.Latest.find(Dst);
    if (It != T.Latest.end()) {
      Entry &D = T.Entries[It->second];
      if (D.Pending) {
        D.Pending = false;
        Dom.template count<EmitEvent::DeadAssign>();
        Dom.template count<EmitEvent::TableOp>();
      }
      T.Latest.erase(It);
    }
  }

  /// Memory is about to be written or a call made: pending loads must be
  /// emitted first.
  void memoryClobber() {
    for (size_t I = 0; I != T.Entries.size(); ++I)
      if (T.Entries[I].Pending && T.Entries[I].Op == ir::Opcode::Load)
        materializeEntry(I);
  }

  RV capture(RV V) {
    if (V.IsConst)
      V.C = Dom.capture(V.C);
    return V;
  }

  void deferOrEmit(const cogen::SetupOp &Op, ir::Opcode FormOp, ir::Type Ty,
                   uint32_t Dst, const RV &A, const RV &B, const Val &Imm) {
    writeEvent(Dst);
    if (Op.Deferrable) {
      Dom.template count<EmitEvent::TableOp>();
      Entry D;
      D.Op = FormOp;
      D.Ty = Ty;
      D.Dst = Dst;
      D.A = capture(A);
      D.B = capture(B);
      D.Imm = Dom.capture(Imm);
      T.Entries.push_back(D);
      T.Latest[Dst] = T.Entries.size() - 1;
      return;
    }
    forceOperand(A);
    forceOperand(B);
    emitResolved(FormOp, Ty, Dst, A, B, Imm);
  }

  Domain &Dom;
  const OptFlags &Flags;
  const cogen::GenExtFunction &GX;
  Table T;
};

/// The specialize-time instance.
using DeferralEngine = DeferralEngineT<Emitter>;
using RVal = ResolvedVal<Word>;

} // namespace runtime
} // namespace dyc

#endif // DYC_RUNTIME_DEFERRAL_H
