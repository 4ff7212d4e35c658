//===- tests/OptTest.cpp - static optimizer unit tests ----------------------------===//

#include "analysis/CFG.h"
#include "frontend/Lower.h"
#include "opt/Passes.h"

#include <gtest/gtest.h>

#include <limits>

using namespace dyc;
using namespace dyc::ir;

namespace {

ir::Module lower(const std::string &Src) {
  ir::Module M;
  std::vector<std::string> Errors;
  bool OK = frontend::compileMiniC(Src, M, Errors);
  EXPECT_TRUE(OK) << (Errors.empty() ? "" : Errors[0]);
  return M;
}

size_t countOp(const Function &F, Opcode Op) {
  size_t N = 0;
  for (const BasicBlock &B : F.Blocks)
    for (const Instruction &I : B.Instrs)
      if (I.Op == Op)
        ++N;
  return N;
}

TEST(ConstantFold, FoldsArithmeticChains) {
  ir::Module M = lower("int f() { int a = 6; int b = 7; return a * b; }");
  Function &F = M.function(0);
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(verifyFunction(F, M), "");
  EXPECT_EQ(countOp(F, Opcode::Mul), 0u);
  // The surviving value is the folded 42.
  bool Found42 = false;
  for (const BasicBlock &B : F.Blocks)
    for (const Instruction &I : B.Instrs)
      if (I.Op == Opcode::ConstI && I.Imm == 42)
        Found42 = true;
  EXPECT_TRUE(Found42);
}

TEST(ConstantFold, FoldsBranchesOnConstants) {
  ir::Module M = lower(
      "int f(int x) { if (3 < 2) { return x; } return x + 1; }");
  Function &F = M.function(0);
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(verifyFunction(F, M), "");
  // The condbr on a constant folds into an unconditional branch.
  for (const BasicBlock &B : F.Blocks)
    if (!B.Instrs.empty() && B.Instrs.back().Op == Opcode::CondBr) {
      std::vector<Reg> Uses;
      B.Instrs.back().appendUses(Uses);
      // Any remaining condbr must depend on the parameter, not constants.
      FAIL() << "constant branch survived optimization";
    }
}

TEST(ConstantFold, DoesNotFoldDivideByZero) {
  ir::Module M = lower("int f() { int a = 1; int b = 0; return a / b; }");
  Function &F = M.function(0);
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(verifyFunction(F, M), "");
  EXPECT_EQ(countOp(F, Opcode::Div), 1u); // faults at run time, as in C
}

TEST(ConstantFold, FoldsWrappingArithmetic) {
  // INT64_MIN / -1 wraps to INT64_MIN (it used to trap the folder), and
  // overflowing adds and multiplies wrap.
  const int64_t Min = std::numeric_limits<int64_t>::min();
  const char *Srcs[] = {
      "int f() { int m = 0 - 9223372036854775807 - 1; int d = 0 - 1;\n"
      "  return m / d; }",
      "int f() { int m = 9223372036854775807; return m + 1; }",
      "int f() { int m = 0 - 9223372036854775807 - 1; return m * 3; }",
      "int f() { int m = 0 - 9223372036854775807 - 1; int d = 0 - 1;\n"
      "  return m % d + m; }",
  };
  for (const char *Src : Srcs) {
    ir::Module M = lower(Src);
    Function &F = M.function(0);
    opt::runStaticOptimizations(F, M);
    EXPECT_EQ(verifyFunction(F, M), "") << Src;
    EXPECT_EQ(countOp(F, Opcode::Div) + countOp(F, Opcode::Rem) +
                  countOp(F, Opcode::Add) + countOp(F, Opcode::Mul),
              0u)
        << Src;
    bool FoundMin = false;
    for (const BasicBlock &B : F.Blocks)
      for (const Instruction &I : B.Instrs)
        if (I.Op == Opcode::ConstI && I.Imm == Min)
          FoundMin = true;
    EXPECT_TRUE(FoundMin) << Src;
  }
}

TEST(CopyProp, ForwardsThroughTemps) {
  ir::Module M = lower("int f(int a) { int t = a; int u = t; return u; }");
  Function &F = M.function(0);
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(verifyFunction(F, M), "");
  // Everything collapses into `ret a`.
  const Instruction &T = F.block(0).terminator();
  ASSERT_EQ(T.Op, Opcode::Ret);
  EXPECT_EQ(T.Src1, 0u);
}

TEST(CopyProp, RespectsAnnotationBarriers) {
  ir::Module M = lower("int f(int a) {\n"
                       "  int t = a;\n"
                       "  make_static(t);\n"
                       "  return t + 1;\n"
                       "}");
  Function &F = M.function(0);
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(verifyFunction(F, M), "");
  // The use of t after make_static(t) must still read t, not a: replacing
  // it would bypass the promotion.
  Reg AnnotVar = NoReg;
  bool UseIntact = false;
  for (const BasicBlock &B : F.Blocks)
    for (const Instruction &I : B.Instrs) {
      if (I.Op == Opcode::MakeStatic)
        AnnotVar = I.AnnotVars[0];
      if (I.Op == Opcode::Add && AnnotVar != NoReg &&
          (I.Src1 == AnnotVar || I.Src2 == AnnotVar))
        UseIntact = true;
    }
  EXPECT_TRUE(UseIntact);
}

TEST(DCE, RemovesDeadPureCode) {
  ir::Module M = lower(
      "int f(int a) { int dead = a * 17; int alsodead = dead + 1; "
      "return a; }");
  Function &F = M.function(0);
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(verifyFunction(F, M), "");
  EXPECT_EQ(countOp(F, Opcode::Mul), 0u);
}

TEST(DCE, KeepsSideEffects) {
  ir::Module M = lower("extern double sin(double);\n" // impure by default
                       "void f(double* p, double x) {\n"
                       "  p[0] = x;\n"
                       "  sin(x);\n"
                       "}");
  Function &F = M.function(0);
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(countOp(F, Opcode::Store), 1u);
  EXPECT_EQ(countOp(F, Opcode::CallExt), 1u);
}

TEST(DCE, RemovesDeadPureCalls) {
  ir::Module M = lower("pure int sq(int x) { return x * x; }\n"
                       "int f(int a) { sq(a); return a; }");
  Function &F = M.function(M.findFunction("f"));
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(countOp(F, Opcode::Call), 0u);
}

TEST(CoalesceMoves, EliminatesLoweringTemps) {
  ir::Module M = lower("int f(int a, int b) { int s = a + b; return s; }");
  Function &F = M.function(0);
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(verifyFunction(F, M), "");
  EXPECT_EQ(countOp(F, Opcode::Mov), 0u);
}

TEST(SimplifyCFG, ThreadsTrivialJumpChains) {
  ir::Module M = lower("int f(int a) {\n"
                       "  if (a) { } else { }\n"
                       "  if (a) { } else { }\n"
                       "  return a;\n"
                       "}");
  Function &F = M.function(0);
  opt::runStaticOptimizations(F, M);
  EXPECT_EQ(verifyFunction(F, M), "");
  // Both empty diamonds collapse; entry reaches ret without detours.
  analysis::CFG G(F);
  size_t Reachable = G.rpo().size();
  EXPECT_LE(Reachable, 2u);
}

TEST(Optimizer, PreservesSemantics) {
  // Run the same source optimized and unoptimized through the VM layers
  // indirectly: optimization must be idempotent and verified.
  ir::Module M = lower(
      "int collatz(int n) {\n"
      "  int steps = 0;\n"
      "  while (n != 1) {\n"
      "    if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }\n"
      "    steps = steps + 1;\n"
      "  }\n"
      "  return steps;\n"
      "}");
  Function &F = M.function(0);
  unsigned First = opt::runStaticOptimizations(F, M);
  (void)First;
  unsigned Second = opt::runStaticOptimizations(F, M);
  EXPECT_EQ(Second, 0u) << "optimizer failed to reach a fixpoint";
  EXPECT_EQ(verifyFunction(F, M), "");
}

} // namespace
