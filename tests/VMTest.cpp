//===- tests/VMTest.cpp - machine-model unit tests --------------------------------===//

#include "ir/ConstEval.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <limits>

using namespace dyc;
using namespace dyc::vm;

namespace {

/// Builds a one-function program from raw instructions.
struct MiniProgram {
  Program P;
  uint32_t Func;

  MiniProgram(std::vector<Instr> Code, uint32_t NumRegs) {
    CodeObject CO;
    CO.Code = std::move(Code);
    CO.NumRegs = NumRegs;
    CO.Name = "test";
    Func = P.addFunction(std::move(CO));
  }
};

TEST(VMExec, Arithmetic) {
  MiniProgram MP({{Op::ConstI, 0, 0, 0, 20},
                  {Op::ConstI, 1, 0, 0, 22},
                  {Op::Add, 2, 0, 1},
                  {Op::Ret, 2}},
                 3);
  VM M(MP.P);
  EXPECT_EQ(M.run(MP.Func, {}).asInt(), 42);
}

TEST(VMExec, FloatOpsAndConversions) {
  MiniProgram MP({{Op::ConstF, 0, 0, 0,
                   (int64_t)Word::fromFloat(2.5).Bits},
                  {Op::ConstI, 1, 0, 0, 3},
                  {Op::IToF, 2, 1},
                  {Op::FMul, 3, 0, 2},
                  {Op::FToI, 4, 3},
                  {Op::Ret, 4}},
                 5);
  VM M(MP.P);
  EXPECT_EQ(M.run(MP.Func, {}).asInt(), 7); // (int)(2.5*3) == 7
}

TEST(VMExec, ImmediateForms) {
  MiniProgram MP({{Op::ConstI, 0, 0, 0, 100},
                  {Op::AddI, 1, 0, 0, -58},
                  {Op::ShlI, 2, 1, 0, 2},
                  {Op::RemI, 3, 2, 0, 7},
                  {Op::Ret, 3}},
                 4);
  VM M(MP.P);
  EXPECT_EQ(M.run(MP.Func, {}).asInt(), ((100 - 58) << 2) % 7);
}

TEST(VMExec, BranchesAndLoop) {
  // sum 0..9 with a backward branch
  MiniProgram MP({{Op::ConstI, 0, 0, 0, 0},       // i
                  {Op::ConstI, 1, 0, 0, 0},       // sum
                  {Op::CmpLtI, 2, 0, 0, 10},      // 2: i < 10
                  {Op::CondBr, 2, 4, 7},          // 3
                  {Op::Add, 1, 1, 0},             // 4
                  {Op::AddI, 0, 0, 0, 1},         // 5
                  {Op::Br, 0, 2},                 // 6
                  {Op::Ret, 1}},                  // 7
                 3);
  VM M(MP.P);
  EXPECT_EQ(M.run(MP.Func, {}).asInt(), 45);
}

TEST(VMExec, MemoryAndCalls) {
  Program P;
  // callee: arg0 + mem[arg1]
  CodeObject Callee;
  Callee.Name = "callee";
  Callee.NumRegs = 3;
  Callee.Code = {{Op::Load, 2, 1, 0, 0}, {Op::Add, 2, 0, 2}, {Op::Ret, 2}};
  uint32_t CalleeIdx = P.addFunction(std::move(Callee));

  CodeObject Main;
  Main.Name = "main";
  Main.NumRegs = 4;
  Main.Code = {{Op::ConstI, 0, 0, 0, 5},
               {Op::ConstI, 1, 0, 0, 64}, // address
               {Op::Call, 2, 0, 2, (int64_t)CalleeIdx},
               {Op::Ret, 2}};
  uint32_t MainIdx = P.addFunction(std::move(Main));

  VM M(P);
  M.memory()[64] = Word::fromInt(37);
  EXPECT_EQ(M.run(MainIdx, {}).asInt(), 42);
  EXPECT_EQ(M.functionStats(CalleeIdx).Calls, 1u);
  EXPECT_GT(M.functionStats(CalleeIdx).InclusiveCycles, 0u);
}

TEST(VMExec, ExternalCall) {
  Program P;
  P.Externals.addStandardMath();
  int Cos = P.Externals.find("cos");
  ASSERT_GE(Cos, 0);
  CodeObject CO;
  CO.Name = "f";
  CO.NumRegs = 2;
  CO.Code = {{Op::ConstF, 0, 0, 0, (int64_t)Word::fromFloat(0.0).Bits},
             {Op::CallExt, 1, 0, 1, Cos},
             {Op::Ret, 1}};
  uint32_t F = P.addFunction(std::move(CO));
  VM M(P);
  EXPECT_DOUBLE_EQ(M.run(F, {}).asFloat(), 1.0);
}

TEST(VMExec, CycleAccounting) {
  MiniProgram MP({{Op::ConstI, 0, 0, 0, 2},
                  {Op::Mul, 1, 0, 0},
                  {Op::Ret, 1}},
                 2);
  ICacheConfig NoIC;
  NoIC.Enabled = false; // isolate pure instruction costs
  VM M(MP.P, CostModel(), NoIC);
  CostModel CM;
  M.run(MP.Func, {});
  // consti(1) + mul(8) + ret(5) = 14
  EXPECT_EQ(M.execCycles(), CM.IntAlu + CM.IntMul + CM.RetCost);
  EXPECT_EQ(M.dynCompCycles(), 0u);
  uint64_t Mark = M.execCycles();
  M.chargeExec(10);
  M.reattributeExecToDynComp(Mark);
  EXPECT_EQ(M.execCycles(), Mark);
  EXPECT_EQ(M.dynCompCycles(), 10u);
}

TEST(VMExec, ArgumentsArriveInRegisters) {
  MiniProgram MP({{Op::Sub, 2, 0, 1}, {Op::Ret, 2}}, 3);
  VM M(MP.P);
  EXPECT_EQ(M.run(MP.Func, {Word::fromInt(50), Word::fromInt(8)}).asInt(),
            42);
}

TEST(CostModelTest, Alpha21164Properties) {
  CostModel CM;
  // FP move costs the same as FP multiply (section 2.2.7).
  EXPECT_EQ(CM.baseCostOf({Op::FMov, 0, 1}),
            CM.baseCostOf({Op::FMul, 0, 1, 2}));
  // Unchecked dispatch is far cheaper than a hashed one (section 4.4.3).
  EXPECT_LT(CM.DispatchUnchecked, CM.hashedDispatchCost(2, 1));
  EXPECT_GE(CM.hashedDispatchCost(2, 1), 75u);
  EXPECT_LE(CM.hashedDispatchCost(2, 1), 105u);
  // Immediate division still costs a real divide; power-of-two divisors
  // are strength-reduced into exact shift sequences by the code
  // generators instead of by the cost model.
  EXPECT_EQ(CM.baseCostOf({Op::DivI, 0, 1, 0, 8}),
            CM.baseCostOf({Op::Div, 0, 1, 2}));
  // Generated code pays the no-scheduling surcharge.
  EXPECT_GT(CM.costOf({Op::Add, 0, 1, 2}, true),
            CM.costOf({Op::Add, 0, 1, 2}, false));
}

TEST(ICacheTest, DirectMappedHitsAndMisses) {
  ICacheConfig Cfg;
  Cfg.SizeBytes = 256;
  Cfg.BlockBytes = 32;
  Cfg.Assoc = 1; // 8 sets
  ICache C(Cfg);
  EXPECT_FALSE(C.access(0));   // cold miss
  EXPECT_TRUE(C.access(4));    // same block
  EXPECT_TRUE(C.access(28));   // same block
  EXPECT_FALSE(C.access(256)); // same set, different tag -> evict
  EXPECT_FALSE(C.access(0));   // conflict miss
  EXPECT_EQ(C.misses(), 3u);
  EXPECT_EQ(C.hits(), 2u);
}

TEST(ICacheTest, AssociativityAvoidsConflicts) {
  ICacheConfig Cfg;
  Cfg.SizeBytes = 256;
  Cfg.BlockBytes = 32;
  Cfg.Assoc = 2; // 4 sets, 2 ways
  ICache C(Cfg);
  EXPECT_FALSE(C.access(0));
  EXPECT_FALSE(C.access(128)); // same set, second way
  EXPECT_TRUE(C.access(0));    // both resident
  EXPECT_TRUE(C.access(128));
  EXPECT_FALSE(C.access(256)); // evicts LRU (block 0)
  EXPECT_FALSE(C.access(0));   // refill evicts block 4 (now the LRU way)
  EXPECT_TRUE(C.access(256));  // most recently used way survived
}

TEST(ICacheTest, FlushInvalidatesEverything) {
  ICache C;
  C.access(0);
  C.access(0);
  EXPECT_EQ(C.hits(), 1u);
  C.flush();
  EXPECT_FALSE(C.access(0));
}

TEST(ICacheTest, WorkingSetLargerThanCacheThrashes) {
  ICacheConfig Cfg; // 8KB direct-mapped
  ICache C(Cfg);
  // Loop over a 16KB footprint twice: every access misses.
  for (int Round = 0; Round != 2; ++Round)
    for (uint64_t A = 0; A < 16384; A += 32)
      C.access(A);
  EXPECT_EQ(C.hits(), 0u);
}

TEST(ProgramTest, AddressAllocationDisjoint) {
  Program P;
  uint64_t A = P.allocCodeAddr(1000);
  uint64_t B = P.allocCodeAddr(1000);
  EXPECT_GE(B, A + 1000);
}

TEST(VMExec, DifferentialAgainstConstEval) {
  // Property: for every evaluable opcode and random operands, executing
  // the operation on the VM produces exactly what the shared evaluator
  // (used by the constant folder and the specializer) computes. This is
  // the consistency that makes compile-time folding sound.
  struct OpPair {
    ir::Opcode IROp;
    Op VMOp;
    bool Unary;
  };
  const OpPair Pairs[] = {
      {ir::Opcode::Add, Op::Add, false}, {ir::Opcode::Sub, Op::Sub, false},
      {ir::Opcode::Mul, Op::Mul, false}, {ir::Opcode::Div, Op::Div, false},
      {ir::Opcode::Rem, Op::Rem, false}, {ir::Opcode::And, Op::And, false},
      {ir::Opcode::Or, Op::Or, false},   {ir::Opcode::Xor, Op::Xor, false},
      {ir::Opcode::Shl, Op::Shl, false}, {ir::Opcode::Shr, Op::Shr, false},
      {ir::Opcode::Neg, Op::Neg, true},
      {ir::Opcode::FAdd, Op::FAdd, false},
      {ir::Opcode::FSub, Op::FSub, false},
      {ir::Opcode::FMul, Op::FMul, false},
      {ir::Opcode::FDiv, Op::FDiv, false},
      {ir::Opcode::FNeg, Op::FNeg, true},
      {ir::Opcode::CmpLt, Op::CmpLt, false},
      {ir::Opcode::CmpGe, Op::CmpGe, false},
      {ir::Opcode::FCmpLe, Op::FCmpLe, false},
      {ir::Opcode::IToF, Op::IToF, true},
      {ir::Opcode::FToI, Op::FToI, true},
  };
  DeterministicRNG RNG(0xd1ff);
  for (const OpPair &P : Pairs) {
    for (int Trial = 0; Trial != 50; ++Trial) {
      Word A{RNG.next()}, B{RNG.next()};
      bool IsFloat = P.IROp == ir::Opcode::FAdd ||
                     P.IROp == ir::Opcode::FSub ||
                     P.IROp == ir::Opcode::FMul ||
                     P.IROp == ir::Opcode::FDiv ||
                     P.IROp == ir::Opcode::FNeg ||
                     P.IROp == ir::Opcode::FCmpLe ||
                     P.IROp == ir::Opcode::FToI;
      if (IsFloat) {
        A = Word::fromFloat(RNG.nextDouble() * 200 - 100);
        B = Word::fromFloat(RNG.nextDouble() * 200 - 100);
      } else {
        A = Word::fromInt(static_cast<int64_t>(RNG.nextBelow(2000)) - 1000);
        B = Word::fromInt(static_cast<int64_t>(RNG.nextBelow(2000)) - 1000);
      }
      if (P.IROp == ir::Opcode::FToI)
        A = Word::fromFloat(RNG.nextDouble() * 1000 - 500);
      Word Expected;
      if (!ir::evalPureOp(P.IROp, A, B, Expected))
        continue; // division by zero etc: unfoldable by design
      MiniProgram MP({P.Unary ? Instr{P.VMOp, 2, 0}
                              : Instr{P.VMOp, 2, 0, 1},
                      {Op::Ret, 2}},
                     3);
      VM M(MP.P);
      Word Got = M.run(MP.Func, {A, B});
      EXPECT_EQ(Got.Bits, Expected.Bits)
          << ir::opcodeName(P.IROp) << " A=" << A.Bits << " B=" << B.Bits;
    }
  }
}

TEST(VMExec, DifferentialOverflowEdges) {
  // Integer arithmetic wraps in 64-bit two's complement, and
  // INT64_MIN / -1 == INT64_MIN, INT64_MIN % -1 == 0, in both engines
  // and in every encoding (register, immediate, and the ConstI+Add
  // superinstruction the predecoder fuses) — exactly what the shared
  // evaluator computes.
  const int64_t Min = std::numeric_limits<int64_t>::min();
  const int64_t Max = std::numeric_limits<int64_t>::max();
  const int64_t Edges[] = {Min, Min + 1, -2, -1, 0, 1, 2, Max};
  struct OpForms {
    ir::Opcode IROp;
    Op Reg, Imm;
  };
  const OpForms Forms[] = {
      {ir::Opcode::Add, Op::Add, Op::AddI},
      {ir::Opcode::Sub, Op::Sub, Op::SubI},
      {ir::Opcode::Mul, Op::Mul, Op::MulI},
      {ir::Opcode::Div, Op::Div, Op::DivI},
      {ir::Opcode::Rem, Op::Rem, Op::RemI},
  };
  for (VM::EngineKind Engine :
       {VM::EngineKind::Legacy, VM::EngineKind::Predecoded}) {
    for (const OpForms &F : Forms) {
      for (int64_t A : Edges) {
        for (int64_t B : Edges) {
          Word Expected;
          if (!ir::evalPureOp(F.IROp, Word::fromInt(A), Word::fromInt(B),
                              Expected))
            continue; // zero divisor: faults at run time
          std::vector<std::vector<Instr>> Codes = {
              {{F.Reg, 2, 0, 1}, {Op::Ret, 2}},
              {{F.Imm, 2, 0, 0, B}, {Op::Ret, 2}},
              {{Op::ConstI, 1, 0, 0, B}, {F.Reg, 2, 0, 1}, {Op::Ret, 2}},
          };
          for (std::vector<Instr> &Code : Codes) {
            MiniProgram MP(std::move(Code), 3);
            VM M(MP.P);
            M.Engine = Engine;
            EXPECT_EQ(M.run(MP.Func, {Word::fromInt(A), Word::fromInt(B)})
                          .asInt(),
                      Expected.asInt())
                << ir::opcodeName(F.IROp) << " A=" << A << " B=" << B;
          }
        }
      }
    }
    for (int64_t A : Edges) {
      MiniProgram MP({{Op::Neg, 2, 0}, {Op::Ret, 2}}, 3);
      VM M(MP.P);
      M.Engine = Engine;
      EXPECT_EQ(M.run(MP.Func, {Word::fromInt(A)}).asInt(),
                A == Min ? Min : -A);
    }
  }
  Word Out;
  ASSERT_TRUE(ir::evalPureOp(ir::Opcode::Div, Word::fromInt(Min),
                             Word::fromInt(-1), Out));
  EXPECT_EQ(Out.asInt(), Min);
  ASSERT_TRUE(ir::evalPureOp(ir::Opcode::Rem, Word::fromInt(Min),
                             Word::fromInt(-1), Out));
  EXPECT_EQ(Out.asInt(), 0);
  ASSERT_TRUE(ir::evalPureOp(ir::Opcode::Add, Word::fromInt(Max),
                             Word::fromInt(1), Out));
  EXPECT_EQ(Out.asInt(), Min);
  EXPECT_FALSE(ir::evalPureOp(ir::Opcode::Div, Word::fromInt(1),
                              Word::fromInt(0), Out));
}

TEST(DisassemblerTest, RendersKnownForms) {
  Instr I{Op::AddI, 3, 2, 0, 7};
  EXPECT_EQ(toString(I), "addi r3, r2, 7");
  Instr L{Op::Load, 1, 2, 0, 4};
  EXPECT_EQ(toString(L), "load r1, [r2 + 4]");
  Instr Br{Op::CondBr, 0, 5, 9};
  EXPECT_EQ(toString(Br), "condbr r0, @5, @9");
}

} // namespace
