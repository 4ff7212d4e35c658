//===- frontend/Parser.cpp -------------------------------------------------------===//

#include "frontend/Parser.h"

#include "support/Support.h"

namespace dyc {
namespace frontend {

const char *mtyName(MTy T) {
  switch (T) {
  case MTy::Int: return "int";
  case MTy::Double: return "double";
  case MTy::IntPtr: return "int*";
  case MTy::DoublePtr: return "double*";
  case MTy::Void: return "void";
  }
  return "<bad-type>";
}

namespace {

class Parser {
public:
  Parser(std::vector<Token> Toks, std::vector<std::string> &Errors)
      : Toks(std::move(Toks)), Errors(Errors) {}

  ProgramAST parse() {
    ProgramAST P;
    while (!at(TokKind::Eof)) {
      size_t Before = Pos;
      if (at(TokKind::KwExtern)) {
        parseExtern(P);
      } else {
        parseFunction(P);
      }
      if (Pos == Before)
        advance(); // ensure progress after an error
    }
    return P;
  }

private:
  const Token &cur() const { return Toks[Pos]; }
  bool at(TokKind K) const { return cur().Kind == K; }
  void advance() {
    if (!at(TokKind::Eof))
      ++Pos;
  }

  bool accept(TokKind K) {
    if (!at(K))
      return false;
    advance();
    return true;
  }

  bool expect(TokKind K) {
    if (accept(K))
      return true;
    error(formatString("expected %s, found %s", tokKindName(K),
                       tokKindName(cur().Kind)));
    return false;
  }

  void error(const std::string &Msg) {
    if (!Stopped)
      Errors.push_back(formatString("line %u: %s", cur().Line, Msg.c_str()));
  }

  /// Recursion bound shared by statements and expressions: deeper input
  /// ends the parse with one diagnostic instead of exhausting the stack.
  static constexpr unsigned MaxNesting = 1000;

  /// Counts one nesting level for the scope of parseStmt / parseUnary, the
  /// two calls every unbounded recursion passes through. Past MaxNesting
  /// the parser reports once and jumps to the end-of-file token, so every
  /// enclosing loop terminates; the diagnostics the unwinding would add
  /// are suppressed.
  class Nesting {
  public:
    explicit Nesting(Parser &P) : P(P) {
      if (++P.Depth > MaxNesting && !P.Stopped) {
        P.error(formatString("nesting deeper than %u levels", MaxNesting));
        P.Stopped = true;
        P.Pos = P.Toks.size() - 1;
      }
    }
    ~Nesting() { --P.Depth; }
    bool tooDeep() const { return P.Stopped; }

  private:
    Parser &P;
  };

  bool atType() const {
    return at(TokKind::KwInt) || at(TokKind::KwDouble) || at(TokKind::KwVoid);
  }

  /// type := ('int' | 'double' | 'void') '*'?
  MTy parseType() {
    MTy Base;
    if (accept(TokKind::KwInt))
      Base = MTy::Int;
    else if (accept(TokKind::KwDouble))
      Base = MTy::Double;
    else if (accept(TokKind::KwVoid))
      return MTy::Void;
    else {
      error("expected a type");
      return MTy::Int;
    }
    if (accept(TokKind::Star))
      return Base == MTy::Int ? MTy::IntPtr : MTy::DoublePtr;
    return Base;
  }

  void parseExtern(ProgramAST &P) {
    ExternDeclAST D;
    D.Line = cur().Line;
    expect(TokKind::KwExtern);
    D.Pure = accept(TokKind::KwPure);
    D.RetTy = parseType();
    D.Name = cur().Text;
    expect(TokKind::Ident);
    expect(TokKind::LParen);
    if (!at(TokKind::RParen)) {
      do {
        D.ArgTys.push_back(parseType());
        // Optional parameter name in the prototype.
        if (at(TokKind::Ident))
          advance();
      } while (accept(TokKind::Comma));
    }
    expect(TokKind::RParen);
    expect(TokKind::Semi);
    P.Externs.push_back(std::move(D));
  }

  void parseFunction(ProgramAST &P) {
    FuncDecl F;
    F.Line = cur().Line;
    F.Pure = accept(TokKind::KwPure);
    F.RetTy = parseType();
    F.Name = cur().Text;
    if (!expect(TokKind::Ident))
      return;
    expect(TokKind::LParen);
    if (!at(TokKind::RParen)) {
      do {
        ParamDecl PD;
        PD.Ty = parseType();
        PD.Name = cur().Text;
        expect(TokKind::Ident);
        F.Params.push_back(std::move(PD));
      } while (accept(TokKind::Comma));
    }
    expect(TokKind::RParen);
    F.Body = parseBlock();
    P.Funcs.push_back(std::move(F));
  }

  StmtPtr makeStmt(Stmt::Kind K) {
    auto S = std::make_unique<Stmt>();
    S->K = K;
    S->Line = cur().Line;
    return S;
  }

  StmtPtr parseBlock() {
    auto S = makeStmt(Stmt::Block);
    expect(TokKind::LBrace);
    while (!at(TokKind::RBrace) && !at(TokKind::Eof)) {
      size_t Before = Pos;
      if (StmtPtr Inner = parseStmt())
        S->Stmts.push_back(std::move(Inner));
      if (Pos == Before)
        advance();
    }
    expect(TokKind::RBrace);
    return S;
  }

  /// simple := decl | assignment | expr — without the trailing ';'
  /// (shared by statements and for-headers).
  StmtPtr parseSimple() {
    if (atType()) {
      auto S = makeStmt(Stmt::Decl);
      S->DeclTy = parseType();
      S->Name = cur().Text;
      expect(TokKind::Ident);
      if (accept(TokKind::Assign))
        S->Init = parseExpr();
      return S;
    }
    ExprPtr E = parseExpr();
    if (!E)
      return nullptr;
    if (accept(TokKind::Assign)) {
      if (E->K != Expr::Var && E->K != Expr::Index) {
        error("assignment target must be a variable or an element");
        return nullptr;
      }
      auto S = makeStmt(Stmt::Assign);
      S->LHS = std::move(E);
      S->RHS = parseExpr();
      return S;
    }
    if (at(TokKind::PlusPlus) || at(TokKind::MinusMinus)) {
      // Desugar v++ / v-- into v = v +/- 1.
      bool Inc = at(TokKind::PlusPlus);
      advance();
      if (E->K != Expr::Var) {
        error("++/-- applies only to variables");
        return nullptr;
      }
      auto S = makeStmt(Stmt::Assign);
      auto RHS = std::make_unique<Expr>();
      RHS->K = Expr::Binary;
      RHS->Line = S->Line;
      RHS->BOp = Inc ? BinOp::Add : BinOp::Sub;
      auto V = std::make_unique<Expr>();
      V->K = Expr::Var;
      V->Name = E->Name;
      V->Line = S->Line;
      auto One = std::make_unique<Expr>();
      One->K = Expr::IntLit;
      One->IntVal = 1;
      One->Line = S->Line;
      RHS->L = std::move(V);
      RHS->R = std::move(One);
      S->LHS = std::move(E);
      S->RHS = std::move(RHS);
      return S;
    }
    auto S = makeStmt(Stmt::ExprSt);
    S->E = std::move(E);
    return S;
  }

  StmtPtr parseStmt() {
    Nesting N(*this);
    if (N.tooDeep())
      return makeStmt(Stmt::Block);
    if (at(TokKind::LBrace))
      return parseBlock();
    if (accept(TokKind::Semi))
      return makeStmt(Stmt::Block); // empty statement

    if (at(TokKind::KwIf)) {
      auto S = makeStmt(Stmt::If);
      advance();
      expect(TokKind::LParen);
      S->Cond = parseExpr();
      expect(TokKind::RParen);
      S->Then = parseStmt();
      if (accept(TokKind::KwElse))
        S->Else = parseStmt();
      return S;
    }
    if (at(TokKind::KwWhile)) {
      auto S = makeStmt(Stmt::While);
      advance();
      expect(TokKind::LParen);
      S->Cond = parseExpr();
      expect(TokKind::RParen);
      S->Body = parseStmt();
      return S;
    }
    if (at(TokKind::KwFor)) {
      auto S = makeStmt(Stmt::For);
      advance();
      expect(TokKind::LParen);
      if (!at(TokKind::Semi))
        S->ForInit = parseSimple();
      expect(TokKind::Semi);
      if (!at(TokKind::Semi))
        S->Cond = parseExpr();
      expect(TokKind::Semi);
      if (!at(TokKind::RParen))
        S->ForStep = parseSimple();
      expect(TokKind::RParen);
      S->Body = parseStmt();
      return S;
    }
    if (at(TokKind::KwBreak)) {
      auto S = makeStmt(Stmt::Break);
      advance();
      expect(TokKind::Semi);
      return S;
    }
    if (at(TokKind::KwContinue)) {
      auto S = makeStmt(Stmt::Continue);
      advance();
      expect(TokKind::Semi);
      return S;
    }
    if (at(TokKind::KwReturn)) {
      auto S = makeStmt(Stmt::Return);
      advance();
      if (!at(TokKind::Semi))
        S->E = parseExpr();
      expect(TokKind::Semi);
      return S;
    }
    if (at(TokKind::KwMakeStatic) || at(TokKind::KwMakeDynamic)) {
      bool IsStatic = at(TokKind::KwMakeStatic);
      auto S = makeStmt(IsStatic ? Stmt::MakeStatic : Stmt::MakeDynamic);
      advance();
      expect(TokKind::LParen);
      do {
        S->Vars.push_back(cur().Text);
        expect(TokKind::Ident);
      } while (accept(TokKind::Comma));
      if (IsStatic && accept(TokKind::Colon)) {
        if (accept(TokKind::KwCacheAll))
          S->Policy = ir::CachePolicy::CacheAll;
        else if (accept(TokKind::KwCacheOne))
          S->Policy = ir::CachePolicy::CacheOne;
        else if (accept(TokKind::KwCacheOneUnchecked))
          S->Policy = ir::CachePolicy::CacheOneUnchecked;
        else if (accept(TokKind::KwCacheIndexed))
          S->Policy = ir::CachePolicy::CacheIndexed;
        else
          error("expected a cache policy after ':'");
      }
      expect(TokKind::RParen);
      expect(TokKind::Semi);
      return S;
    }

    StmtPtr S = parseSimple();
    expect(TokKind::Semi);
    return S;
  }

  // --- Expressions, precedence climbing -------------------------------------

  ExprPtr makeExpr(Expr::Kind K) {
    auto E = std::make_unique<Expr>();
    E->K = K;
    E->Line = cur().Line;
    return E;
  }

  /// Binding powers; higher binds tighter.
  static int precedenceOf(TokKind K) {
    switch (K) {
    case TokKind::PipePipe: return 1;
    case TokKind::AmpAmp: return 2;
    case TokKind::Pipe: return 3;
    case TokKind::Caret: return 4;
    case TokKind::Amp: return 5;
    case TokKind::EqEq: case TokKind::NotEq: return 6;
    case TokKind::Lt: case TokKind::Le:
    case TokKind::Gt: case TokKind::Ge: return 7;
    case TokKind::Shl: case TokKind::Shr: return 8;
    case TokKind::Plus: case TokKind::Minus: return 9;
    case TokKind::Star: case TokKind::Slash: case TokKind::Percent: return 10;
    default: return -1;
    }
  }

  static BinOp binOpOf(TokKind K) {
    switch (K) {
    case TokKind::PipePipe: return BinOp::LogOr;
    case TokKind::AmpAmp: return BinOp::LogAnd;
    case TokKind::Pipe: return BinOp::BitOr;
    case TokKind::Caret: return BinOp::BitXor;
    case TokKind::Amp: return BinOp::BitAnd;
    case TokKind::EqEq: return BinOp::Eq;
    case TokKind::NotEq: return BinOp::Ne;
    case TokKind::Lt: return BinOp::Lt;
    case TokKind::Le: return BinOp::Le;
    case TokKind::Gt: return BinOp::Gt;
    case TokKind::Ge: return BinOp::Ge;
    case TokKind::Shl: return BinOp::Shl;
    case TokKind::Shr: return BinOp::Shr;
    case TokKind::Plus: return BinOp::Add;
    case TokKind::Minus: return BinOp::Sub;
    case TokKind::Star: return BinOp::Mul;
    case TokKind::Slash: return BinOp::Div;
    case TokKind::Percent: return BinOp::Rem;
    default: fatal("not a binary operator token");
    }
  }

  ExprPtr parseExpr(int MinPrec = 0) {
    ExprPtr L = parseUnary();
    while (true) {
      int Prec = precedenceOf(cur().Kind);
      if (Prec < 0 || Prec < MinPrec)
        return L;
      BinOp Op = binOpOf(cur().Kind);
      auto E = makeExpr(Expr::Binary);
      advance();
      E->BOp = Op;
      E->L = std::move(L);
      E->R = parseExpr(Prec + 1); // left-associative
      L = std::move(E);
    }
  }

  ExprPtr parseUnary() {
    Nesting N(*this);
    if (N.tooDeep())
      return makeExpr(Expr::IntLit);
    if (at(TokKind::Minus)) {
      auto E = makeExpr(Expr::Unary);
      advance();
      E->UOp = UnOp::Neg;
      E->L = parseUnary();
      return E;
    }
    if (at(TokKind::Bang)) {
      auto E = makeExpr(Expr::Unary);
      advance();
      E->UOp = UnOp::Not;
      E->L = parseUnary();
      return E;
    }
    // Cast: '(' type ')' unary — lookahead for a type after '('.
    if (at(TokKind::LParen)) {
      TokKind Next = Toks[Pos + 1].Kind;
      if (Next == TokKind::KwInt || Next == TokKind::KwDouble) {
        auto E = makeExpr(Expr::Cast);
        advance(); // '('
        E->CastTo = parseType();
        expect(TokKind::RParen);
        E->L = parseUnary();
        return E;
      }
    }
    return parsePostfix();
  }

  ExprPtr parsePostfix() {
    ExprPtr E = parsePrimary();
    while (true) {
      if (at(TokKind::LBracket) || at(TokKind::AtLBracket)) {
        bool Static = at(TokKind::AtLBracket);
        auto Idx = makeExpr(Expr::Index);
        advance();
        Idx->StaticIndex = Static;
        Idx->L = std::move(E);
        Idx->R = parseExpr();
        expect(TokKind::RBracket);
        E = std::move(Idx);
        continue;
      }
      return E;
    }
  }

  ExprPtr parsePrimary() {
    if (at(TokKind::IntLit)) {
      auto E = makeExpr(Expr::IntLit);
      E->IntVal = cur().IntVal;
      advance();
      return E;
    }
    if (at(TokKind::FloatLit)) {
      auto E = makeExpr(Expr::FloatLit);
      E->FloatVal = cur().FloatVal;
      advance();
      return E;
    }
    if (at(TokKind::Ident)) {
      std::string Name = cur().Text;
      unsigned Line = cur().Line;
      advance();
      if (accept(TokKind::LParen)) {
        auto E = std::make_unique<Expr>();
        E->K = Expr::Call;
        E->Name = std::move(Name);
        E->Line = Line;
        if (!at(TokKind::RParen)) {
          do {
            E->Args.push_back(parseExpr());
          } while (accept(TokKind::Comma));
        }
        expect(TokKind::RParen);
        return E;
      }
      auto E = std::make_unique<Expr>();
      E->K = Expr::Var;
      E->Name = std::move(Name);
      E->Line = Line;
      return E;
    }
    if (accept(TokKind::LParen)) {
      ExprPtr E = parseExpr();
      expect(TokKind::RParen);
      return E;
    }
    error(formatString("expected an expression, found %s",
                       tokKindName(cur().Kind)));
    auto E = makeExpr(Expr::IntLit);
    return E;
  }

  std::vector<Token> Toks;
  std::vector<std::string> &Errors;
  size_t Pos = 0;
  unsigned Depth = 0;
  bool Stopped = false; ///< nesting limit hit; the parse is over
};

} // namespace

ProgramAST parseProgram(const std::string &Source,
                        std::vector<std::string> &Errors) {
  std::vector<Token> Toks = lex(Source, Errors);
  Parser P(std::move(Toks), Errors);
  return P.parse();
}

} // namespace frontend
} // namespace dyc
