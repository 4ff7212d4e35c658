//===- cogen/EmitPlan.cpp - Staged emit-plan builder -------------------------------===//
//
// Compiles a GenExtFunction into the emit program described in
// EmitPlan.h. For every EmitInstr the builder runs the specializer's own
// emit-time engine (runtime::DeferralEngineT, the code the legacy walk
// runs) over PlanDomain, a symbolic value domain: specialize-time values
// are PlanRefs, the deferral table holds them, every accounting event is
// counted into the open plan step, and emission appends pre-encoded
// instructions and holes to the Copy template.
//
// Where the decision tree tests a *value* the plan cannot know (zero/
// copy-propagation 0/1 tests, power-of-two strength-reduction tests,
// Div/Rem fold-failure tests), the domain throws NeedGuard; the builder
// rolls the op back, compiles BOTH outcomes behind a Branch guard and
// continues down each arm, memoizing the assumption so the same test
// never re-forks on one path. A small per-block guard budget bounds the
// expansion; a path that exhausts it falls back to Generic steps for its
// remaining ops. Before any Generic suffix — and at the end of every
// fully compiled path — a Sync step reconstructs the live deferral table,
// so the legacy interpreter and the driver's terminator handling observe
// exactly the state the walk would have left.
//
//===----------------------------------------------------------------------===//

#include "cogen/EmitPlan.h"

#include "ir/ConstEval.h"
#include "runtime/Deferral.h"

#include <cstdlib>
#include <cstring>
#include <map>

namespace dyc {
namespace cogen {

using ir::Opcode;
namespace v = vm;

namespace {

/// Identity of one value test, for assumption memoization along a path.
/// Literal refs never reach here (they decide immediately).
struct PredKey {
  uint8_t P = 0;
  uint8_t RefK = 0;
  uint32_t RefIdx = 0;
  uint64_t Cmp = 0;

  bool operator<(const PredKey &O) const {
    if (P != O.P)
      return P < O.P;
    if (RefK != O.RefK)
      return RefK < O.RefK;
    if (RefIdx != O.RefIdx)
      return RefIdx < O.RefIdx;
    return Cmp < O.Cmp;
  }
};

PredKey predKey(PlanBranch::Pred Pk, const PlanRef &A, Word Cmp) {
  return {static_cast<uint8_t>(Pk), static_cast<uint8_t>(A.K), A.Idx,
          Cmp.Bits};
}

/// Thrown when the engine reaches a value test with no recorded
/// assumption: the builder rolls the op back and compiles a guard.
struct NeedGuard {
  PlanBranch::Pred P;
  PlanRef A;
  Word Cmp;
};

/// The symbolic value domain of the emit-time engine: values are PlanRefs,
/// events count into the open plan step, and emission appends to the
/// block's Copy template and hole list.
class PlanDomain {
public:
  using Val = PlanRef;
  struct Env {};

  PlanDomain(BlockPlan &BP, PlanStep &Open,
             const std::map<PredKey, bool> &Assumed)
      : BP(BP), Open(Open), Assumed(Assumed) {}

  template <runtime::EmitEvent E> void count() {
    ++(Open.*runtime::EmitEvents[static_cast<size_t>(E)].Count);
  }

  void emitRaw(v::Instr I) {
    BP.Template.push_back(I);
    count<runtime::EmitEvent::Emit>();
  }
  /// A literal is baked into the template; anything else becomes a hole.
  void emitRawImm(v::Instr I, const PlanRef &Ref, int64_t Add) {
    if (Ref.K == PlanRef::Lit)
      I.Imm = wrapAdd(static_cast<int64_t>(Ref.L.Bits), Add);
    else
      BP.Holes.push_back(
          {static_cast<uint32_t>(BP.Template.size()), Add, Ref});
    emitRaw(I);
  }

  static PlanRef staticVal(const Env &, uint32_t Reg) {
    return PlanRef::stat(Reg);
  }
  static PlanRef lit(Word W) { return PlanRef::lit(W); }
  static int64_t litInt(const PlanRef &R) {
    assert(R.K == PlanRef::Lit && "load/store offsets are plan literals");
    return R.L.asInt();
  }

  bool eqBits(const PlanRef &A, Word Cmp) {
    return assume(PlanBranch::EqBits, A, Cmp);
  }
  bool pow2Ge2(const PlanRef &A) {
    return assume(PlanBranch::Pow2Ge2, A, Word());
  }

  /// op(A, B) as a ref: folded now when both sides are plan literals
  /// (the fold can't fail — the engine tested Div/Rem-by-zero first),
  /// else a derived expression captured at the current step.
  PlanRef eval(Opcode Op, const PlanRef &A, const PlanRef &B) {
    if (A.K == PlanRef::Lit && B.K == PlanRef::Lit) {
      Word Out;
      if (ir::evalPureOp(Op, A.L, B.L, Out))
        return PlanRef::lit(Out);
    }
    return newExpr(PlanExpr::Pure, Op, A, B);
  }
  PlanRef log2(const PlanRef &A) {
    if (A.K == PlanRef::Lit)
      return PlanRef::lit(Word::fromInt(log2OfPow2(A.L.asInt())));
    return newExpr(PlanExpr::Log2, Opcode::Mov, A, PlanRef());
  }
  /// Refs stored into the table must survive until sync or a later
  /// materialization, past set-up evaluation that may overwrite static
  /// registers — so raw static reads are captured into the current step's
  /// expression range (evaluated exactly when the walk reads them).
  PlanRef capture(const PlanRef &R) {
    if (R.K != PlanRef::Static)
      return R;
    return newExpr(PlanExpr::Pure, Opcode::Mov, R, PlanRef());
  }

private:
  /// Resolves one value test: literals decide now; otherwise the path's
  /// recorded assumption applies, or the op aborts to compile a guard.
  bool assume(PlanBranch::Pred Pk, const PlanRef &A, Word Cmp) {
    if (A.K == PlanRef::Lit) {
      if (Pk == PlanBranch::EqBits)
        return A.L.Bits == Cmp.Bits;
      return runtime::Emitter::pow2Ge2(A.L);
    }
    auto It = Assumed.find(predKey(Pk, A, Cmp));
    if (It != Assumed.end())
      return It->second;
    throw NeedGuard{Pk, A, Cmp};
  }

  PlanRef newExpr(PlanExpr::Kind K, Opcode Op, PlanRef A, PlanRef B) {
    BP.Exprs.push_back({K, Op, A, B});
    return PlanRef::expr(static_cast<uint32_t>(BP.Exprs.size()) - 1);
  }

  BlockPlan &BP;
  PlanStep &Open;
  const std::map<PredKey, bool> &Assumed;
};

using PlanEngine = runtime::DeferralEngineT<PlanDomain>;

/// Builds one BlockPlan by running the emit-time engine over symbolic
/// values.
class BlockBuilder {
public:
  BlockBuilder(const GenExtFunction &GX, const OptFlags &Flags,
               const GenBlock &GB)
      : GX(GX), GB(GB), Dom(BP, Open, Assumed), Eng(Dom, Flags, GX) {}

  BlockPlan build(uint32_t CtxId) {
    buildFrom(0);
    GX.Region.context(CtxId).StaticIn.forEachSetBit(
        [&](size_t Reg) { BP.KeyRegs.push_back(static_cast<uint32_t>(Reg)); });
    return std::move(BP);
  }

private:
  /// Value tests compiled per block before paths stop forking and bail to
  /// Generic. Each guard adds one Branch node (two compiled arms), so the
  /// leaf count — and with it plan size — grows linearly in this budget;
  /// it bounds growth on adversarial inputs while covering every test the
  /// Table 3 kernels' largest unrolled bodies perform.
  static constexpr size_t MaxGuards = 96;

  const GenExtFunction &GX;
  const GenBlock &GB;
  BlockPlan BP;
  PlanStep Open;
  bool HaveOpen = false;
  /// The value-test outcomes assumed on the current path (cloned at
  /// guards, with the engine's table).
  std::map<PredKey, bool> Assumed;
  PlanDomain Dom;
  PlanEngine Eng;

  /// Rollback image for one op's transactional simulation. An op never
  /// pushes steps or evals, so the table, the open step, and the shared
  /// array cursors are the whole footprint. Assumptions are read-only
  /// during simulation.
  struct Snap {
    PlanEngine::Table Table;
    PlanStep Open;
    bool HaveOpen;
    size_t NTemplate, NHoles, NExprs;
  };

  Snap snapshot() {
    return {Eng.table(),        Open,           HaveOpen,
            BP.Template.size(), BP.Holes.size(), BP.Exprs.size()};
  }

  void rollback(Snap &&S) {
    Eng.table() = std::move(S.Table);
    Open = S.Open;
    HaveOpen = S.HaveOpen;
    BP.Template.resize(S.NTemplate);
    BP.Holes.resize(S.NHoles);
    BP.Exprs.resize(S.NExprs);
  }

  // -- Step management -------------------------------------------------------

  void flush() {
    if (!HaveOpen)
      return;
    HaveOpen = false;
    if (Open.K == PlanStep::EvalRun) {
      Open.Count = static_cast<uint32_t>(BP.Evals.size()) - Open.First;
    } else {
      Open.Count = static_cast<uint32_t>(BP.Template.size()) - Open.First;
      Open.HoleCount = static_cast<uint32_t>(BP.Holes.size()) - Open.HoleFirst;
      Open.ExprCount = static_cast<uint32_t>(BP.Exprs.size()) - Open.ExprFirst;
      // An op that reduced to nothing (a full-circle move) can leave a
      // step with no work and no charges: drop it.
      bool Counted = false;
      for (const runtime::EmitEventRow &Row : runtime::EmitEvents)
        Counted |= Open.*Row.Count != 0;
      if (Open.Count == 0 && Open.HoleCount == 0 && Open.ExprCount == 0 &&
          !Counted)
        return;
    }
    BP.Steps.push_back(Open);
  }

  void openEvalRun() {
    if (HaveOpen && Open.K == PlanStep::EvalRun)
      return;
    flush();
    Open = PlanStep{};
    Open.K = PlanStep::EvalRun;
    Open.First = static_cast<uint32_t>(BP.Evals.size());
    HaveOpen = true;
  }

  /// EmitInstr simulation runs with a Copy step open; callers flush any
  /// EvalRun *before* the transactional region so rollback never has to
  /// un-push a step.
  void openCopy() {
    if (HaveOpen)
      return;
    Open = PlanStep{};
    Open.K = PlanStep::Copy;
    Open.First = static_cast<uint32_t>(BP.Template.size());
    Open.HoleFirst = static_cast<uint32_t>(BP.Holes.size());
    Open.ExprFirst = static_cast<uint32_t>(BP.Exprs.size());
    HaveOpen = true;
  }

  void appendGeneric(uint32_t OpIdx) {
    flush();
    PlanStep S;
    S.K = PlanStep::Generic;
    S.First = OpIdx;
    BP.Steps.push_back(S);
  }

  void appendEnd() {
    PlanStep S;
    S.K = PlanStep::End;
    BP.Steps.push_back(S);
  }

  /// Reconstructs the live deferral table from the symbolic one: pending
  /// entries in order, producer links remapped to compacted indices (a
  /// link to an already-dead producer is cleared — forceOperand skips it
  /// either way). Dead entries are dropped entirely: nothing downstream
  /// can observe them.
  void appendSync() {
    const std::vector<PlanEngine::Entry> &Entries = Eng.table().Entries;
    std::vector<int32_t> Remap(Entries.size(), -1);
    uint32_t First = static_cast<uint32_t>(BP.Syncs.size());
    uint32_t Count = 0;
    for (size_t I = 0; I != Entries.size(); ++I) {
      const PlanEngine::Entry &E = Entries[I];
      if (!E.Pending)
        continue;
      Remap[I] = static_cast<int32_t>(Count++);
      PlanSync S;
      S.Op = E.Op;
      S.Ty = E.Ty;
      S.Dst = E.Dst;
      S.A = syncOperand(E.A, Remap);
      S.B = syncOperand(E.B, Remap);
      S.Imm = E.Imm;
      BP.Syncs.push_back(S);
    }
    if (!Count)
      return;
    PlanStep S;
    S.K = PlanStep::Sync;
    S.First = First;
    S.Count = Count;
    BP.Steps.push_back(S);
  }

  static PlanSync::Operand syncOperand(const PlanEngine::RV &V,
                                       const std::vector<int32_t> &Remap) {
    PlanSync::Operand O;
    O.IsConst = V.IsConst;
    O.R = V.R;
    O.Dep = V.Dep < 0 ? -1 : Remap[static_cast<size_t>(V.Dep)];
    O.C = V.C;
    return O;
  }

  /// Guard budget exhausted (or a deliberately uncompiled op): sync the
  /// table and run every remaining op through the legacy interpreter.
  void bailGeneric(uint32_t OpIdx) {
    flush();
    appendSync();
    for (uint32_t I = OpIdx; I != GB.Ops.size(); ++I) {
      PlanStep S;
      S.K = PlanStep::Generic;
      S.First = I;
      BP.Steps.push_back(S);
    }
    appendEnd();
  }

  // -- Path driver -----------------------------------------------------------

  /// Compiles ops [OpIdx, end) plus the path epilogue (table sync + End)
  /// under the current symbolic state, forking recursively at guards.
  void buildFrom(uint32_t OpIdx) {
    for (uint32_t I = OpIdx; I != GB.Ops.size(); ++I) {
      const SetupOp &Op = GB.Ops[I];
      switch (Op.K) {
      case SetupOp::EvalConst: {
        openEvalRun();
        PlanEval E;
        E.K = PlanEval::Const;
        E.Dst = Op.Dst;
        E.Imm = Op.Imm;
        BP.Evals.push_back(E);
        Dom.count<runtime::EmitEvent::EvalOp>();
        continue;
      }
      case SetupOp::Eval: {
        openEvalRun();
        PlanEval E;
        E.K = PlanEval::Pure;
        E.Op = Op.Op;
        E.Dst = Op.Dst;
        E.A = Op.A.R;
        E.B = Op.B.R; // ir::NoReg when unary
        BP.Evals.push_back(E);
        Dom.count<runtime::EmitEvent::EvalOp>();
        continue;
      }
      case SetupOp::EvalLoad: {
        openEvalRun();
        PlanEval E;
        E.K = PlanEval::Load;
        E.Dst = Op.Dst;
        E.A = Op.A.R;
        E.Imm = Op.Imm;
        BP.Evals.push_back(E);
        Dom.count<runtime::EmitEvent::StaticLoad>();
        continue;
      }
      case SetupOp::EvalCall:
        // Memoized static call: re-enters the VM (and possibly the
        // specializer). It never touches the deferral table, so the
        // symbolic state carries straight across it.
        appendGeneric(I);
        continue;
      case SetupOp::EmitInstr: {
        if (HaveOpen && Open.K == PlanStep::EvalRun)
          flush();
        Snap S = snapshot();
        try {
          openCopy();
          Eng.emitDynamic(Op, PlanDomain::Env{});
        } catch (NeedGuard &G) {
          rollback(std::move(S));
          flush();
          if (BP.Branches.size() >= MaxGuards) {
            bailGeneric(I);
            return;
          }
          uint32_t BI = static_cast<uint32_t>(BP.Branches.size());
          PlanBranch Br;
          Br.P = G.P;
          Br.A = G.A;
          Br.Cmp = G.Cmp;
          BP.Branches.push_back(Br);
          PlanStep BS;
          BS.K = PlanStep::Branch;
          BS.First = BI;
          BP.Steps.push_back(BS);

          PredKey K = predKey(G.P, G.A, G.Cmp);
          PlanEngine::Table SavedTable = Eng.table();
          std::map<PredKey, bool> SavedAssumed = Assumed;
          BP.Branches[BI].True = static_cast<uint32_t>(BP.Steps.size());
          Assumed[K] = true;
          buildFrom(I);
          Eng.table() = std::move(SavedTable);
          Assumed = std::move(SavedAssumed);
          BP.Branches[BI].False = static_cast<uint32_t>(BP.Steps.size());
          Assumed[K] = false;
          buildFrom(I);
          return;
        }
        continue;
      }
      }
    }
    flush();
    appendSync();
    appendEnd();
  }
};

template <typename T> uint64_t bytesOf(const std::vector<T> &V) {
  return V.size() * sizeof(T);
}

} // namespace

EmitPlan buildEmitPlan(const GenExtFunction &GX, const OptFlags &Flags) {
  EmitPlan P;
  P.FlagsFingerprint = Flags.fingerprint();
  P.Blocks.reserve(GX.Blocks.size());
  for (uint32_t Ctx = 0; Ctx != GX.Blocks.size(); ++Ctx) {
    BlockBuilder B(GX, Flags, GX.Blocks[Ctx]);
    P.Blocks.push_back(B.build(Ctx));
  }
  P.Bytes = sizeof(EmitPlan);
  for (const BlockPlan &BP : P.Blocks)
    P.Bytes += sizeof(BlockPlan) + bytesOf(BP.Steps) + bytesOf(BP.Evals) +
               bytesOf(BP.Template) + bytesOf(BP.Holes) + bytesOf(BP.Exprs) +
               bytesOf(BP.Syncs) + bytesOf(BP.Branches) + bytesOf(BP.KeyRegs);
  return P;
}

bool resolveEmitPlanEnabled(EmitPlanMode Mode) {
  if (Mode == EmitPlanMode::On)
    return true;
  if (Mode == EmitPlanMode::Off)
    return false;
  const char *Env = std::getenv("DYC_EMIT_PLAN");
  if (!Env)
    return true;
  if (!std::strcmp(Env, "off") || !std::strcmp(Env, "0") ||
      !std::strcmp(Env, "false"))
    return false;
  // "on"/"1"/"true" and unrecognized values resolve to the default: on.
  return true;
}

} // namespace cogen
} // namespace dyc
