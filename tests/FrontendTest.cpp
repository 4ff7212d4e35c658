//===- tests/FrontendTest.cpp - lexer/parser/lowering unit tests ------------------===//

#include "frontend/Lexer.h"
#include "frontend/Lower.h"
#include "frontend/Parser.h"
#include "ir/Module.h"

#include <gtest/gtest.h>

using namespace dyc;
using namespace dyc::frontend;

namespace {

std::vector<Token> lexOk(const std::string &Src) {
  std::vector<std::string> Errors;
  std::vector<Token> Toks = lex(Src, Errors);
  EXPECT_TRUE(Errors.empty()) << (Errors.empty() ? "" : Errors[0]);
  return Toks;
}

TEST(Lexer, TokenKinds) {
  auto T = lexOk("int x = 42; double y = 3.5e2; x @[ 1 ] @[2]");
  EXPECT_EQ(T[0].Kind, TokKind::KwInt);
  EXPECT_EQ(T[1].Kind, TokKind::Ident);
  EXPECT_EQ(T[1].Text, "x");
  EXPECT_EQ(T[3].Kind, TokKind::IntLit);
  EXPECT_EQ(T[3].IntVal, 42);
  auto FloatTok = T[8];
  EXPECT_EQ(FloatTok.Kind, TokKind::FloatLit);
  EXPECT_DOUBLE_EQ(FloatTok.FloatVal, 350.0);
  // "@[" only lexes as one token when adjacent.
  bool SawAtBracket = false;
  for (const Token &Tok : T)
    if (Tok.Kind == TokKind::AtLBracket)
      SawAtBracket = true;
  EXPECT_TRUE(SawAtBracket);
}

TEST(Lexer, CommentsAndOperators) {
  auto T = lexOk("a /* multi\nline */ <= b // trailing\n>> c != d");
  std::vector<TokKind> Kinds;
  for (const Token &Tok : T)
    Kinds.push_back(Tok.Kind);
  EXPECT_EQ(Kinds, (std::vector<TokKind>{
                       TokKind::Ident, TokKind::Le, TokKind::Ident,
                       TokKind::Shr, TokKind::Ident, TokKind::NotEq,
                       TokKind::Ident, TokKind::Eof}));
}

TEST(Lexer, DycKeywords) {
  auto T = lexOk("make_static make_dynamic cache_all cache_one "
                 "cache_one_unchecked pure");
  EXPECT_EQ(T[0].Kind, TokKind::KwMakeStatic);
  EXPECT_EQ(T[1].Kind, TokKind::KwMakeDynamic);
  EXPECT_EQ(T[2].Kind, TokKind::KwCacheAll);
  EXPECT_EQ(T[3].Kind, TokKind::KwCacheOne);
  EXPECT_EQ(T[4].Kind, TokKind::KwCacheOneUnchecked);
  EXPECT_EQ(T[5].Kind, TokKind::KwPure);
}

TEST(Lexer, ReportsBadCharacters) {
  std::vector<std::string> Errors;
  lex("int $x;", Errors);
  ASSERT_EQ(Errors.size(), 1u);
  EXPECT_NE(Errors[0].find("unexpected character"), std::string::npos);
}

ProgramAST parseOk(const std::string &Src) {
  std::vector<std::string> Errors;
  ProgramAST P = parseProgram(Src, Errors);
  EXPECT_TRUE(Errors.empty()) << (Errors.empty() ? "" : Errors[0]);
  return P;
}

TEST(Parser, FunctionAndPrecedence) {
  ProgramAST P = parseOk("int f(int a, int b) { return a + b * 2 - 1; }");
  ASSERT_EQ(P.Funcs.size(), 1u);
  const FuncDecl &F = P.Funcs[0];
  EXPECT_EQ(F.Name, "f");
  EXPECT_EQ(F.Params.size(), 2u);
  // ((a + (b*2)) - 1)
  const Stmt &Ret = *F.Body->Stmts[0];
  ASSERT_EQ(Ret.K, Stmt::Return);
  EXPECT_EQ(Ret.E->BOp, BinOp::Sub);
  EXPECT_EQ(Ret.E->L->BOp, BinOp::Add);
  EXPECT_EQ(Ret.E->L->R->BOp, BinOp::Mul);
}

TEST(Parser, MakeStaticWithPolicy) {
  ProgramAST P = parseOk(
      "void f(int a, int b) { make_static(a, b : cache_one_unchecked); }");
  const Stmt &S = *P.Funcs[0].Body->Stmts[0];
  ASSERT_EQ(S.K, Stmt::MakeStatic);
  EXPECT_EQ(S.Vars, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(S.Policy, ir::CachePolicy::CacheOneUnchecked);
}

TEST(Parser, StaticIndexAndPointerTypes) {
  ProgramAST P = parseOk(
      "double g(double* m, int* k) { return m@[k[0]] + m[1]; }");
  const Stmt &Ret = *P.Funcs[0].Body->Stmts[0];
  EXPECT_EQ(Ret.E->L->K, Expr::Index);
  EXPECT_TRUE(Ret.E->L->StaticIndex);
  EXPECT_FALSE(Ret.E->R->StaticIndex);
}

TEST(Parser, ExternPureAndCalls) {
  ProgramAST P = parseOk("extern pure double cos(double);\n"
                         "double f(double x) { return cos(x); }");
  ASSERT_EQ(P.Externs.size(), 1u);
  EXPECT_TRUE(P.Externs[0].Pure);
  EXPECT_EQ(P.Externs[0].ArgTys.size(), 1u);
}

TEST(Parser, ForDesugarsIncrement) {
  ProgramAST P = parseOk(
      "int f() { int s = 0; int i; for (i = 0; i < 4; i++) { s = s + i; } "
      "return s; }");
  EXPECT_EQ(P.Funcs.size(), 1u);
}

TEST(Parser, RecoversAndReportsErrors) {
  std::vector<std::string> Errors;
  parseProgram("int f( { return; }", Errors);
  EXPECT_FALSE(Errors.empty());
}

std::string repeat(const std::string &S, size_t N) {
  std::string Out;
  Out.reserve(S.size() * N);
  for (size_t I = 0; I != N; ++I)
    Out += S;
  return Out;
}

/// Nesting far past the parser's bound must end in exactly one nesting
/// diagnostic — not a stack overflow, and not one error per open level.
void expectNestingDiagnostic(const std::string &Src) {
  std::vector<std::string> Errors;
  parseProgram(Src, Errors);
  ASSERT_EQ(Errors.size(), 1u) << (Errors.empty() ? "" : Errors.back());
  EXPECT_NE(Errors[0].find("nesting"), std::string::npos) << Errors[0];
}

constexpr size_t DeepNesting = 200000;

TEST(Parser, DeepParenthesesStopWithDiagnostic) {
  expectNestingDiagnostic("int f() { return " + repeat("(", DeepNesting) +
                          "1" + repeat(")", DeepNesting) + "; }");
}

TEST(Parser, DeepUnaryMinusStopsWithDiagnostic) {
  expectNestingDiagnostic("int f() { return " + repeat("- ", DeepNesting) +
                          "1; }");
}

TEST(Parser, DeepBlocksStopWithDiagnostic) {
  expectNestingDiagnostic("int f() " + repeat("{ ", DeepNesting) +
                          "return 1;" + repeat(" }", DeepNesting));
}

TEST(Parser, NestingDepth200StillParses) {
  const size_t N = 200;
  for (const std::string &Src :
       {"int f() { return " + repeat("(", N) + "1" + repeat(")", N) + "; }",
        "int f() { return " + repeat("- ", N) + "1; }",
        "int f() " + repeat("{ ", N) + "return 1;" + repeat(" }", N)}) {
    std::vector<std::string> Errors;
    ir::Module M;
    EXPECT_TRUE(compileMiniC(Src, M, Errors))
        << (Errors.empty() ? "" : Errors[0]);
  }
}

bool lowerOk(const std::string &Src, ir::Module &M) {
  std::vector<std::string> Errors;
  bool OK = compileMiniC(Src, M, Errors);
  EXPECT_TRUE(OK) << (Errors.empty() ? "" : Errors[0]);
  return OK;
}

TEST(Lowering, ProducesVerifiedModule) {
  ir::Module M;
  ASSERT_TRUE(lowerOk("int add(int a, int b) { return a + b; }\n"
                      "int twice(int x) { return add(x, x); }",
                      M));
  EXPECT_EQ(M.numFunctions(), 2u);
  EXPECT_EQ(ir::verifyModule(M), "");
}

TEST(Lowering, TypeChecksImplicitConversions) {
  ir::Module M;
  ASSERT_TRUE(lowerOk("double f(int a, double b) { return a + b; }", M));
  std::vector<std::string> Errors;
  ir::Module M2;
  // double -> int assignment without a cast must be rejected.
  EXPECT_FALSE(compileMiniC("int f(double x) { int y = x; return y; }", M2,
                            Errors));
  EXPECT_FALSE(Errors.empty());
}

TEST(Lowering, RejectsUndeclaredAndArity) {
  std::vector<std::string> Errors;
  ir::Module M;
  EXPECT_FALSE(compileMiniC("int f() { return g(1); }", M, Errors));
  Errors.clear();
  EXPECT_FALSE(compileMiniC("int g(int a) { return a; }\n"
                            "int f() { return g(1, 2); }",
                            M, Errors));
  Errors.clear();
  EXPECT_FALSE(compileMiniC("int f() { return zzz; }", M, Errors));
}

TEST(Lowering, ScopesShadowAndExpire) {
  ir::Module M;
  ASSERT_TRUE(lowerOk(
      "int f(int x) { { int y = x + 1; x = y; } { int y = x * 2; x = y; } "
      "return x; }",
      M));
  std::vector<std::string> Errors;
  ir::Module M2;
  EXPECT_FALSE(compileMiniC(
      "int f(int x) { { int y = 1; } return y; }", M2, Errors));
}

TEST(Lowering, AnnotationsBecomeIR) {
  ir::Module M;
  ASSERT_TRUE(lowerOk("int f(int* a, int n) {\n"
                      "  make_static(a, n : cache_one);\n"
                      "  make_dynamic(n);\n"
                      "  return a[0];\n"
                      "}",
                      M));
  const ir::Function &F = M.function(0);
  unsigned NumStatic = 0, NumDynamic = 0;
  for (const ir::BasicBlock &B : F.Blocks)
    for (const ir::Instruction &I : B.Instrs) {
      if (I.Op == ir::Opcode::MakeStatic) {
        ++NumStatic;
        EXPECT_EQ(I.Policy, ir::CachePolicy::CacheOne);
        EXPECT_EQ(I.AnnotVars.size(), 2u);
      }
      if (I.Op == ir::Opcode::MakeDynamic)
        ++NumDynamic;
    }
  EXPECT_EQ(NumStatic, 1u);
  EXPECT_EQ(NumDynamic, 1u);
}

TEST(Lowering, BreakAndContinue) {
  ir::Module M;
  ASSERT_TRUE(lowerOk(
      "int f(int n) {\n"
      "  int s = 0;\n"
      "  int i;\n"
      "  for (i = 0; i < n; i = i + 1) {\n"
      "    if (i == 7) { break; }\n"
      "    if (i % 2 == 0) { continue; }\n"
      "    s = s + i;\n"
      "  }\n"
      "  while (1) { break; }\n"
      "  return s;\n"
      "}",
      M));
  EXPECT_EQ(ir::verifyModule(M), "");
  std::vector<std::string> Errors;
  ir::Module M2;
  EXPECT_FALSE(
      compileMiniC("int f() { break; return 0; }", M2, Errors));
}

TEST(Lowering, PureFlagPropagatesToCalls) {
  ir::Module M;
  ASSERT_TRUE(lowerOk("pure int sq(int x) { return x * x; }\n"
                      "int f(int a) { return sq(a); }",
                      M));
  EXPECT_TRUE(M.function(M.findFunction("sq")).Pure);
  bool SawStaticCall = false;
  const ir::Function &F = M.function(M.findFunction("f"));
  for (const ir::BasicBlock &B : F.Blocks)
    for (const ir::Instruction &I : B.Instrs)
      if (I.Op == ir::Opcode::Call)
        SawStaticCall = I.StaticCall;
  EXPECT_TRUE(SawStaticCall);
}

} // namespace
