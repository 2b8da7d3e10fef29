//===- Parser.cpp - Textual IR parser --------------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"

#include "ir/Module.h"

#include <charconv>
#include <cstdlib>
#include <sstream>
#include <unordered_map>
#include <vector>

using namespace llvmmd;

namespace {

enum class TokKind {
  Eof,
  Word,       // bare identifier / keyword / type name
  LocalId,    // %name
  GlobalId,   // @name
  IntLit,     // 123, -5
  FloatLit,   // 3.5, -1e9
  Equal,
  Comma,
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Colon,
};

/// One token. Text views the parsed source, which outlives the parse.
struct Token {
  TokKind Kind = TokKind::Eof;
  std::string_view Text;
  int64_t IntVal = 0;
  double FloatVal = 0;
  unsigned Line = 0;
};

bool isSpace(char C) {
  return C == ' ' || C == '\t' || C == '\n' || C == '\r' || C == '\v' ||
         C == '\f';
}
bool isDigit(char C) { return C >= '0' && C <= '9'; }
bool isAlpha(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z');
}
bool isIdentChar(char C) {
  return isAlpha(C) || isDigit(C) || C == '_' || C == '.' || C == '$';
}

class Lexer {
public:
  explicit Lexer(std::string_view Src) : Src(Src) {}

  /// True if the next token is ':' (does not advance).
  bool nextIsColon() const {
    size_t P = Pos;
    while (P < Src.size()) {
      if (Src[P] == ';') {
        while (P < Src.size() && Src[P] != '\n')
          ++P;
      } else if (isSpace(Src[P])) {
        ++P;
      } else {
        break;
      }
    }
    return P < Src.size() && Src[P] == ':';
  }

  Token next() {
    skipTrivia();
    Token T;
    T.Line = Line;
    if (Pos >= Src.size()) {
      T.Kind = TokKind::Eof;
      return T;
    }
    char C = Src[Pos];
    switch (C) {
    case '=':
      ++Pos;
      T.Kind = TokKind::Equal;
      return T;
    case ',':
      ++Pos;
      T.Kind = TokKind::Comma;
      return T;
    case '(':
      ++Pos;
      T.Kind = TokKind::LParen;
      return T;
    case ')':
      ++Pos;
      T.Kind = TokKind::RParen;
      return T;
    case '{':
      ++Pos;
      T.Kind = TokKind::LBrace;
      return T;
    case '}':
      ++Pos;
      T.Kind = TokKind::RBrace;
      return T;
    case '[':
      ++Pos;
      T.Kind = TokKind::LBracket;
      return T;
    case ']':
      ++Pos;
      T.Kind = TokKind::RBracket;
      return T;
    case ':':
      ++Pos;
      T.Kind = TokKind::Colon;
      return T;
    case '%':
      ++Pos;
      T.Kind = TokKind::LocalId;
      T.Text = lexIdent();
      return T;
    case '@':
      ++Pos;
      T.Kind = TokKind::GlobalId;
      T.Text = lexIdent();
      return T;
    default:
      break;
    }
    if (isDigit(C) || C == '-')
      return lexNumber();
    if (isAlpha(C) || C == '_') {
      T.Kind = TokKind::Word;
      T.Text = lexIdent();
      return T;
    }
    T.Kind = TokKind::Eof;
    T.Text = Src.substr(Pos, 1);
    return T;
  }

private:
  void skipTrivia() {
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (C == ';') {
        while (Pos < Src.size() && Src[Pos] != '\n')
          ++Pos;
        continue;
      }
      if (C == '\n') {
        ++Line;
        ++Pos;
        continue;
      }
      if (isSpace(C)) {
        ++Pos;
        continue;
      }
      break;
    }
  }

  std::string_view lexIdent() {
    size_t Start = Pos;
    while (Pos < Src.size() && isIdentChar(Src[Pos]))
      ++Pos;
    return Src.substr(Start, Pos - Start);
  }

  Token lexNumber() {
    Token T;
    T.Line = Line;
    size_t Start = Pos;
    if (Src[Pos] == '-')
      ++Pos;
    bool IsFloat = false;
    while (Pos < Src.size()) {
      char C = Src[Pos];
      if (isDigit(C)) {
        ++Pos;
        continue;
      }
      if (C == '.' || C == 'e' || C == 'E' ||
          ((C == '+' || C == '-') && Pos > Start &&
           (Src[Pos - 1] == 'e' || Src[Pos - 1] == 'E'))) {
        IsFloat = true;
        ++Pos;
        continue;
      }
      break;
    }
    T.Text = Src.substr(Start, Pos - Start);
    const char *B = T.Text.data(), *E = B + T.Text.size();
    // from_chars reads every well-formed literal; strto* gives the rest
    // (out-of-range values, texts without digits) their historic values.
    if (IsFloat) {
      T.Kind = TokKind::FloatLit;
      if (std::from_chars(B, E, T.FloatVal).ec != std::errc())
        T.FloatVal = std::strtod(std::string(T.Text).c_str(), nullptr);
    } else {
      T.Kind = TokKind::IntLit;
      if (std::from_chars(B, E, T.IntVal).ec != std::errc())
        T.IntVal = std::strtoll(std::string(T.Text).c_str(), nullptr, 10);
    }
    return T;
  }

  std::string_view Src;
  size_t Pos = 0;
  unsigned Line = 1;
};

/// Operands parsed as undef placeholders: (operand index, local name).
using DeferList = std::vector<std::pair<unsigned, std::string_view>>;

/// Recursive-descent parser for modules.
class Parser {
public:
  Parser(Context &Ctx, std::string_view Text, std::string ModuleName)
      : Ctx(Ctx), Lex(Text) {
    M = std::make_unique<Module>(Ctx, std::move(ModuleName));
    advance();
  }

  ParseResult run() {
    while (Tok.Kind != TokKind::Eof && Err.empty()) {
      if (Tok.Kind == TokKind::GlobalId) {
        parseGlobal();
        continue;
      }
      if (Tok.Kind == TokKind::Word && Tok.Text == "declare") {
        parseDeclare();
        continue;
      }
      if (Tok.Kind == TokKind::Word && Tok.Text == "define") {
        parseDefine();
        continue;
      }
      error("expected 'define', 'declare' or global definition");
    }
    ParseResult R;
    if (!Err.empty()) {
      R.Error = Err;
      return R;
    }
    R.M = std::move(M);
    return R;
  }

private:
  void advance() { Tok = Lex.next(); }

  /// Reports \p Msg at the current (not yet consumed) token.
  void error(const std::string &Msg) {
    if (!Err.empty())
      return;
    std::ostringstream OS;
    OS << "line " << Tok.Line << ": " << Msg;
    if (!Tok.Text.empty())
      OS << " (got '" << Tok.Text << "')";
    Err = OS.str();
  }

  /// Reports \p Msg about a construct already consumed, at \p Line where
  /// it appeared; the current token may sit on a later line.
  void errorAt(unsigned Line, const std::string &Msg) {
    if (!Err.empty())
      return;
    Err = "line " + std::to_string(Line) + ": " + Msg;
  }

  bool expect(TokKind K, const char *What) {
    if (Tok.Kind != K) {
      error(std::string("expected ") + What);
      return false;
    }
    advance();
    return true;
  }

  bool expectWord(const char *W) {
    if (Tok.Kind != TokKind::Word || Tok.Text != W) {
      error(std::string("expected '") + W + "'");
      return false;
    }
    advance();
    return true;
  }

  /// Parses a type name token ("void", "i32", "float", "ptr").
  Type *parseType() {
    if (Tok.Kind != TokKind::Word) {
      error("expected type");
      return nullptr;
    }
    std::string_view N = Tok.Text;
    unsigned Line = Tok.Line;
    advance();
    if (N == "void")
      return Ctx.getVoidTy();
    if (N == "float")
      return Ctx.getFloatTy();
    if (N == "ptr")
      return Ctx.getPtrTy();
    if (N.size() >= 2 && N[0] == 'i') {
      // The width is the digit run after 'i' (as atoi would read it).
      unsigned Bits = 0;
      for (size_t K = 1; K < N.size() && isDigit(N[K]) && Bits < 1000; ++K)
        Bits = Bits * 10 + unsigned(N[K] - '0');
      if (Bits == 1 || Bits == 8 || Bits == 16 || Bits == 32 || Bits == 64)
        return Ctx.getIntTy(Bits);
    }
    errorAt(Line, "unknown type '" + std::string(N) + "'");
    return nullptr;
  }

  //===------------------------------------------------------------------===//
  // Globals and declarations
  //===------------------------------------------------------------------===//

  Constant *parseConstantLiteral(Type *Ty) {
    unsigned Line = Tok.Line;
    if (Tok.Kind == TokKind::IntLit) {
      int64_t V = Tok.IntVal;
      advance();
      if (Ty->isFloat())
        return Ctx.getFloat(static_cast<double>(V));
      if (!Ty->isInteger()) {
        errorAt(Line, "integer literal for non-integer type");
        return nullptr;
      }
      return Ctx.getInt(Ty, V);
    }
    if (Tok.Kind == TokKind::FloatLit) {
      double V = Tok.FloatVal;
      advance();
      if (!Ty->isFloat()) {
        errorAt(Line, "float literal for non-float type");
        return nullptr;
      }
      return Ctx.getFloat(V);
    }
    if (Tok.Kind == TokKind::Word && Tok.Text == "null") {
      advance();
      return Ctx.getNullPtr();
    }
    if (Tok.Kind == TokKind::Word && Tok.Text == "undef") {
      advance();
      return Ctx.getUndef(Ty);
    }
    if (Tok.Kind == TokKind::Word && Tok.Text == "true") {
      advance();
      return Ctx.getTrue();
    }
    if (Tok.Kind == TokKind::Word && Tok.Text == "false") {
      advance();
      return Ctx.getFalse();
    }
    error("expected constant literal");
    return nullptr;
  }

  void parseGlobal() {
    std::string_view Name = Tok.Text;
    advance();
    if (!expect(TokKind::Equal, "'='"))
      return;
    bool IsConstant = false;
    if (Tok.Kind == TokKind::Word && Tok.Text == "constant")
      IsConstant = true;
    else if (!(Tok.Kind == TokKind::Word && Tok.Text == "global")) {
      error("expected 'global' or 'constant'");
      return;
    }
    advance();
    Type *Ty = parseType();
    if (!Ty)
      return;
    Constant *Init = nullptr;
    if (Tok.Kind == TokKind::IntLit || Tok.Kind == TokKind::FloatLit ||
        (Tok.Kind == TokKind::Word &&
         (Tok.Text == "null" || Tok.Text == "undef" || Tok.Text == "true" ||
          Tok.Text == "false"))) {
      Init = parseConstantLiteral(Ty);
      if (!Init)
        return;
    }
    GlobalsByName.emplace(
        Name, M->createGlobal(Ty, std::string(Name), Init, IsConstant));
  }

  void parseDeclare() {
    advance(); // 'declare'
    Type *RetTy = parseType();
    if (!RetTy)
      return;
    if (Tok.Kind != TokKind::GlobalId) {
      error("expected function name");
      return;
    }
    std::string_view Name = Tok.Text;
    advance();
    if (!expect(TokKind::LParen, "'('"))
      return;
    std::vector<Type *> Params;
    if (Tok.Kind != TokKind::RParen) {
      while (true) {
        Type *P = parseType();
        if (!P)
          return;
        Params.push_back(P);
        // Parameter names are optional in declarations.
        if (Tok.Kind == TokKind::LocalId)
          advance();
        if (Tok.Kind == TokKind::Comma) {
          advance();
          continue;
        }
        break;
      }
    }
    if (!expect(TokKind::RParen, "')'"))
      return;
    Function *F = createFunction(RetTy, std::move(Params), Name);
    while (Tok.Kind == TokKind::Word) {
      if (Tok.Text == "readonly")
        F->setMemoryEffect(MemoryEffect::ReadOnly);
      else if (Tok.Text == "readnone")
        F->setMemoryEffect(MemoryEffect::ReadNone);
      else
        break;
      advance();
    }
  }

  //===------------------------------------------------------------------===//
  // Function bodies
  //===------------------------------------------------------------------===//

  /// Names are views into the parsed text.
  struct BodyState {
    Function *F = nullptr;
    std::unordered_map<std::string_view, Value *> Locals;
    struct BlockSlot {
      BasicBlock *BB = nullptr;
      bool Defined = false; ///< its label has been seen
    };
    std::unordered_map<std::string_view, BlockSlot> Blocks;
    /// Blocks in label-definition order (textual order), for reordering.
    std::vector<BasicBlock *> DefinitionOrder;
    // (user, operand index, name, expected type) fixups for forward refs.
    struct Fixup {
      Instruction *I;
      unsigned OpIdx;
      std::string_view Name;
      Type *Ty;
      unsigned Line;
    };
    std::vector<Fixup> Fixups;
  };

  BodyState::BlockSlot &getOrCreateBlockSlot(BodyState &S,
                                             std::string_view Name) {
    BodyState::BlockSlot &Slot = S.Blocks[Name];
    if (!Slot.BB)
      Slot.BB = S.F->createBlock(std::string(Name));
    return Slot;
  }

  BasicBlock *getOrCreateBlock(BodyState &S, std::string_view Name) {
    return getOrCreateBlockSlot(S, Name).BB;
  }

  void defineLocal(BodyState &S, std::string_view Name, Value *V,
                   unsigned Line) {
    if (!S.Locals.emplace(Name, V).second) {
      errorAt(Line, "redefinition of %" + std::string(Name));
      return;
    }
    V->setName(std::string(Name));
  }

  Function *createFunction(Type *RetTy, std::vector<Type *> Params,
                           std::string_view Name) {
    Function *F = M->createFunction(
        Ctx.getFunctionTy(RetTy, std::move(Params)), std::string(Name));
    FunctionsByName.emplace(Name, F);
    return F;
  }

  /// Parses a value reference of the given type; returns undef + fixup if
  /// the local is not yet defined.
  Value *parseValueRef(BodyState &S, Type *Ty, Instruction *PendingUser,
                       DeferList *Defer, unsigned OpIdx) {
    (void)PendingUser;
    if (Tok.Kind == TokKind::LocalId) {
      std::string_view Name = Tok.Text;
      unsigned Line = Tok.Line;
      advance();
      auto It = S.Locals.find(Name);
      if (It != S.Locals.end()) {
        if (It->second->getType() != Ty) {
          errorAt(Line, "type mismatch for %" + std::string(Name));
          return nullptr;
        }
        return It->second;
      }
      if (Defer)
        Defer->push_back({OpIdx, Name});
      return Ctx.getUndef(Ty);
    }
    if (Tok.Kind == TokKind::GlobalId) {
      std::string_view Name = Tok.Text;
      unsigned Line = Tok.Line;
      advance();
      auto GIt = GlobalsByName.find(Name);
      if (GIt != GlobalsByName.end())
        return GIt->second;
      auto FIt = FunctionsByName.find(Name);
      if (FIt != FunctionsByName.end())
        return FIt->second;
      errorAt(Line, "unknown global @" + std::string(Name));
      return nullptr;
    }
    return parseConstantLiteral(Ty);
  }

  /// Parses "<type> <value>".
  Value *parseTypedValue(BodyState &S, DeferList *Defer, unsigned OpIdx) {
    Type *Ty = parseType();
    if (!Ty)
      return nullptr;
    return parseValueRef(S, Ty, nullptr, Defer, OpIdx);
  }

  void parseDefine() {
    advance(); // 'define'
    Type *RetTy = parseType();
    if (!RetTy)
      return;
    if (Tok.Kind != TokKind::GlobalId) {
      error("expected function name");
      return;
    }
    std::string_view Name = Tok.Text;
    advance();
    if (!expect(TokKind::LParen, "'('"))
      return;
    std::vector<Type *> Params;
    std::vector<std::string_view> ParamNames;
    std::vector<unsigned> ParamLines;
    if (Tok.Kind != TokKind::RParen) {
      while (true) {
        Type *P = parseType();
        if (!P)
          return;
        Params.push_back(P);
        if (Tok.Kind != TokKind::LocalId) {
          error("expected parameter name");
          return;
        }
        ParamNames.push_back(Tok.Text);
        ParamLines.push_back(Tok.Line);
        advance();
        if (Tok.Kind == TokKind::Comma) {
          advance();
          continue;
        }
        break;
      }
    }
    if (!expect(TokKind::RParen, "')'"))
      return;
    if (!expect(TokKind::LBrace, "'{'"))
      return;

    BodyState S;
    S.F = createFunction(RetTy, std::move(Params), Name);
    for (unsigned I = 0, E = ParamNames.size(); I != E; ++I)
      defineLocal(S, ParamNames[I], S.F->getArg(I), ParamLines[I]);

    BasicBlock *CurBB = nullptr;
    while (Err.empty() && Tok.Kind != TokKind::RBrace &&
           Tok.Kind != TokKind::Eof) {
      // Block label?
      if (Tok.Kind == TokKind::Word) {
        // Look ahead: "name:" introduces a block. Otherwise it is an opcode
        // of a void instruction (store/br/ret/unreachable/call void).
        if (Lex.nextIsColon()) {
          std::string_view BlockName = Tok.Text;
          unsigned Line = Tok.Line;
          advance();
          expect(TokKind::Colon, "':'");
          BodyState::BlockSlot &Slot = getOrCreateBlockSlot(S, BlockName);
          if (Slot.Defined) {
            errorAt(Line,
                    "block %" + std::string(BlockName) + " defined twice");
            return;
          }
          Slot.Defined = true;
          CurBB = Slot.BB;
          S.DefinitionOrder.push_back(CurBB);
          continue;
        }
      }
      if (!CurBB) {
        error("instruction before first block label");
        return;
      }
      parseInstruction(S, CurBB);
    }
    expect(TokKind::RBrace, "'}'");
    if (!Err.empty())
      return;
    if (S.DefinitionOrder.size() != S.F->getNumBlocks()) {
      error("branch to undefined block");
      return;
    }
    S.F->reorderBlocks(S.DefinitionOrder);
    resolveFixups(S);
  }

  void resolveFixups(BodyState &S) {
    for (const auto &Fix : S.Fixups) {
      auto It = S.Locals.find(Fix.Name);
      if (It == S.Locals.end()) {
        std::ostringstream OS;
        OS << "line " << Fix.Line << ": undefined value %" << Fix.Name;
        if (Err.empty())
          Err = OS.str();
        return;
      }
      if (It->second->getType() != Fix.Ty) {
        if (Err.empty())
          Err = "type mismatch resolving %" + std::string(Fix.Name);
        return;
      }
      Fix.I->setOperand(Fix.OpIdx, It->second);
    }
  }

  /// Records deferred operands of \p I as fixups to resolve at function end.
  void recordFixups(BodyState &S, Instruction *I, const DeferList &Defer,
                    unsigned Line) {
    for (const auto &[OpIdx, Name] : Defer)
      S.Fixups.push_back(
          {I, OpIdx, Name, I->getOperand(OpIdx)->getType(), Line});
  }

  void parseInstruction(BodyState &S, BasicBlock *BB) {
    unsigned Line = Tok.Line;
    std::string_view ResultName;
    bool HasResult = false;
    if (Tok.Kind == TokKind::LocalId) {
      ResultName = Tok.Text;
      HasResult = true;
      advance();
      if (!expect(TokKind::Equal, "'='"))
        return;
    }
    if (Tok.Kind != TokKind::Word) {
      error("expected opcode");
      return;
    }
    std::string_view Op = Tok.Text;
    unsigned OpLine = Tok.Line;
    advance();

    DeferList Defer;
    Instruction *I = parseInstructionBody(S, BB, Op, OpLine, Defer);
    if (!I)
      return;
    if (HasResult) {
      if (I->getType()->isVoid()) {
        errorAt(Line, "void instruction cannot have a result name");
        return;
      }
      defineLocal(S, ResultName, I, Line);
    }
    recordFixups(S, I, Defer, Line);
  }

  Instruction *
  parseInstructionBody(BodyState &S, BasicBlock *BB, std::string_view Op,
                       unsigned OpLine, DeferList &Defer) {
    // Parsed instructions live in the owning function's body arena.
    Arena &IArena = BB->getParent()->bodyArena();
    // Binary operators.
    static const std::unordered_map<std::string_view, Opcode> BinOps = {
        {"add", Opcode::Add},   {"sub", Opcode::Sub},
        {"mul", Opcode::Mul},   {"sdiv", Opcode::SDiv},
        {"udiv", Opcode::UDiv}, {"srem", Opcode::SRem},
        {"urem", Opcode::URem}, {"shl", Opcode::Shl},
        {"lshr", Opcode::LShr}, {"ashr", Opcode::AShr},
        {"and", Opcode::And},   {"or", Opcode::Or},
        {"xor", Opcode::Xor},   {"fadd", Opcode::FAdd},
        {"fsub", Opcode::FSub}, {"fmul", Opcode::FMul},
        {"fdiv", Opcode::FDiv}};
    auto BinIt = BinOps.find(Op);
    if (BinIt != BinOps.end()) {
      Type *Ty = parseType();
      if (!Ty)
        return nullptr;
      Value *L = parseValueRef(S, Ty, nullptr, &Defer, 0);
      if (!L || !expect(TokKind::Comma, "','"))
        return nullptr;
      Value *R = parseValueRef(S, Ty, nullptr, &Defer, 1);
      if (!R)
        return nullptr;
      auto *I = IArena.create<BinaryOperator>(BinIt->second, L, R);
      BB->append(I);
      return I;
    }

    if (Op == "icmp") {
      static const std::unordered_map<std::string_view, ICmpPred> Preds = {
          {"eq", ICmpPred::EQ},   {"ne", ICmpPred::NE},
          {"slt", ICmpPred::SLT}, {"sle", ICmpPred::SLE},
          {"sgt", ICmpPred::SGT}, {"sge", ICmpPred::SGE},
          {"ult", ICmpPred::ULT}, {"ule", ICmpPred::ULE},
          {"ugt", ICmpPred::UGT}, {"uge", ICmpPred::UGE}};
      auto PIt =
          Tok.Kind == TokKind::Word ? Preds.find(Tok.Text) : Preds.end();
      if (PIt == Preds.end()) {
        error("expected icmp predicate");
        return nullptr;
      }
      ICmpPred P = PIt->second;
      advance();
      Type *Ty = parseType();
      if (!Ty)
        return nullptr;
      Value *L = parseValueRef(S, Ty, nullptr, &Defer, 0);
      if (!L || !expect(TokKind::Comma, "','"))
        return nullptr;
      Value *R = parseValueRef(S, Ty, nullptr, &Defer, 1);
      if (!R)
        return nullptr;
      auto *I = IArena.create<ICmpInst>(P, L, R, Ctx.getInt1Ty());
      BB->append(I);
      return I;
    }

    if (Op == "fcmp") {
      static const std::unordered_map<std::string_view, FCmpPred> Preds = {
          {"oeq", FCmpPred::OEQ}, {"one", FCmpPred::ONE},
          {"olt", FCmpPred::OLT}, {"ole", FCmpPred::OLE},
          {"ogt", FCmpPred::OGT}, {"oge", FCmpPred::OGE}};
      auto PIt =
          Tok.Kind == TokKind::Word ? Preds.find(Tok.Text) : Preds.end();
      if (PIt == Preds.end()) {
        error("expected fcmp predicate");
        return nullptr;
      }
      FCmpPred P = PIt->second;
      advance();
      Type *Ty = parseType();
      if (!Ty)
        return nullptr;
      Value *L = parseValueRef(S, Ty, nullptr, &Defer, 0);
      if (!L || !expect(TokKind::Comma, "','"))
        return nullptr;
      Value *R = parseValueRef(S, Ty, nullptr, &Defer, 1);
      if (!R)
        return nullptr;
      auto *I = IArena.create<FCmpInst>(P, L, R, Ctx.getInt1Ty());
      BB->append(I);
      return I;
    }

    if (Op == "trunc" || Op == "zext" || Op == "sext") {
      Opcode CastOp = Op == "trunc"  ? Opcode::Trunc
                      : Op == "zext" ? Opcode::ZExt
                                     : Opcode::SExt;
      Value *Src = parseTypedValue(S, &Defer, 0);
      if (!Src || !expectWord("to"))
        return nullptr;
      Type *DstTy = parseType();
      if (!DstTy)
        return nullptr;
      auto *I = IArena.create<CastInst>(CastOp, Src, DstTy);
      BB->append(I);
      return I;
    }

    if (Op == "select") {
      if (!expectWord("i1"))
        return nullptr;
      Value *C = parseValueRef(S, Ctx.getInt1Ty(), nullptr, &Defer, 0);
      if (!C || !expect(TokKind::Comma, "','"))
        return nullptr;
      Value *T = parseTypedValue(S, &Defer, 1);
      if (!T || !expect(TokKind::Comma, "','"))
        return nullptr;
      Value *F = parseTypedValue(S, &Defer, 2);
      if (!F)
        return nullptr;
      if (F->getType() != T->getType()) {
        error("select arm type mismatch");
        return nullptr;
      }
      auto *I = IArena.create<SelectInst>(C, T, F);
      BB->append(I);
      return I;
    }

    if (Op == "alloca") {
      Type *Ty = parseType();
      if (!Ty)
        return nullptr;
      Value *Count = Ctx.getInt64(1);
      if (Tok.Kind == TokKind::Comma) {
        advance();
        Count = parseTypedValue(S, &Defer, 0);
        if (!Count)
          return nullptr;
      }
      auto *I = IArena.create<AllocaInst>(Ty, Count, Ctx.getPtrTy());
      BB->append(I);
      return I;
    }

    if (Op == "load") {
      Type *Ty = parseType();
      if (!Ty || !expect(TokKind::Comma, "','") || !expectWord("ptr"))
        return nullptr;
      Value *Ptr = parseValueRef(S, Ctx.getPtrTy(), nullptr, &Defer, 0);
      if (!Ptr)
        return nullptr;
      auto *I = IArena.create<LoadInst>(Ty, Ptr);
      BB->append(I);
      return I;
    }

    if (Op == "store") {
      Value *V = parseTypedValue(S, &Defer, 0);
      if (!V || !expect(TokKind::Comma, "','") || !expectWord("ptr"))
        return nullptr;
      Value *Ptr = parseValueRef(S, Ctx.getPtrTy(), nullptr, &Defer, 1);
      if (!Ptr)
        return nullptr;
      auto *I = IArena.create<StoreInst>(V, Ptr, Ctx.getVoidTy());
      BB->append(I);
      return I;
    }

    if (Op == "getelementptr") {
      Type *ElemTy = parseType();
      if (!ElemTy || !expect(TokKind::Comma, "','") || !expectWord("ptr"))
        return nullptr;
      Value *Base = parseValueRef(S, Ctx.getPtrTy(), nullptr, &Defer, 0);
      if (!Base || !expect(TokKind::Comma, "','"))
        return nullptr;
      Value *Idx = parseTypedValue(S, &Defer, 1);
      if (!Idx)
        return nullptr;
      auto *I = IArena.create<GEPInst>(ElemTy, Base, Idx, Ctx.getPtrTy());
      BB->append(I);
      return I;
    }

    if (Op == "call") {
      Type *RetTy = parseType();
      if (!RetTy)
        return nullptr;
      if (Tok.Kind != TokKind::GlobalId) {
        error("expected callee name");
        return nullptr;
      }
      auto CIt = FunctionsByName.find(Tok.Text);
      if (CIt == FunctionsByName.end()) {
        error("unknown function @" + std::string(Tok.Text));
        return nullptr;
      }
      Function *Callee = CIt->second;
      advance();
      if (!expect(TokKind::LParen, "'('"))
        return nullptr;
      std::vector<Value *> Args;
      if (Tok.Kind != TokKind::RParen) {
        while (true) {
          Value *A = parseTypedValue(S, &Defer, Args.size());
          if (!A)
            return nullptr;
          Args.push_back(A);
          if (Tok.Kind == TokKind::Comma) {
            advance();
            continue;
          }
          break;
        }
      }
      if (!expect(TokKind::RParen, "')'"))
        return nullptr;
      auto *I = IArena.create<CallInst>(Callee, std::move(Args), RetTy);
      BB->append(I);
      return I;
    }

    if (Op == "phi") {
      Type *Ty = parseType();
      if (!Ty)
        return nullptr;
      auto *P = IArena.create<PhiNode>(Ty);
      BB->append(P);
      unsigned Idx = 0;
      while (true) {
        if (!expect(TokKind::LBracket, "'['")) {
          return P; // error already recorded
        }
        Value *V = parseValueRef(S, Ty, nullptr, &Defer, Idx);
        if (!V || !expect(TokKind::Comma, "','"))
          return P;
        if (Tok.Kind != TokKind::LocalId) {
          error("expected predecessor label");
          return P;
        }
        BasicBlock *Pred = getOrCreateBlock(S, Tok.Text);
        advance();
        if (!expect(TokKind::RBracket, "']'"))
          return P;
        P->addIncoming(V, Pred);
        ++Idx;
        if (Tok.Kind == TokKind::Comma) {
          advance();
          continue;
        }
        break;
      }
      return P;
    }

    if (Op == "br") {
      if (Tok.Kind == TokKind::Word && Tok.Text == "label") {
        advance();
        if (Tok.Kind != TokKind::LocalId) {
          error("expected target label");
          return nullptr;
        }
        BasicBlock *T = getOrCreateBlock(S, Tok.Text);
        advance();
        auto *I = IArena.create<BranchInst>(T, Ctx.getVoidTy());
        BB->append(I);
        return I;
      }
      if (!expectWord("i1"))
        return nullptr;
      Value *C = parseValueRef(S, Ctx.getInt1Ty(), nullptr, &Defer, 0);
      if (!C || !expect(TokKind::Comma, "','") || !expectWord("label"))
        return nullptr;
      if (Tok.Kind != TokKind::LocalId) {
        error("expected true label");
        return nullptr;
      }
      BasicBlock *T = getOrCreateBlock(S, Tok.Text);
      advance();
      if (!expect(TokKind::Comma, "','") || !expectWord("label"))
        return nullptr;
      if (Tok.Kind != TokKind::LocalId) {
        error("expected false label");
        return nullptr;
      }
      BasicBlock *F = getOrCreateBlock(S, Tok.Text);
      advance();
      auto *I = IArena.create<BranchInst>(C, T, F, Ctx.getVoidTy());
      BB->append(I);
      return I;
    }

    if (Op == "ret") {
      if (Tok.Kind == TokKind::Word && Tok.Text == "void") {
        advance();
        auto *I = IArena.create<ReturnInst>(nullptr, Ctx.getVoidTy());
        BB->append(I);
        return I;
      }
      Value *V = parseTypedValue(S, &Defer, 0);
      if (!V)
        return nullptr;
      auto *I = IArena.create<ReturnInst>(V, Ctx.getVoidTy());
      BB->append(I);
      return I;
    }

    if (Op == "unreachable") {
      auto *I = IArena.create<UnreachableInst>(Ctx.getVoidTy());
      BB->append(I);
      return I;
    }

    errorAt(OpLine, "unknown opcode '" + std::string(Op) + "'");
    return nullptr;
  }

  Context &Ctx;
  Lexer Lex;
  Token Tok;
  std::unique_ptr<Module> M;
  /// Module symbols by name, first definition winning (as Module::getGlobal
  /// and getFunction would find them).
  std::unordered_map<std::string_view, GlobalVariable *> GlobalsByName;
  std::unordered_map<std::string_view, Function *> FunctionsByName;
  std::string Err;
};

} // namespace

ParseResult llvmmd::parseModule(Context &Ctx, std::string_view Text,
                                std::string ModuleName) {
  // Adopt the printer's "; ModuleID = '<name>'" header when the caller did
  // not name the module, so print/parse round-trips preserve identity.
  if (ModuleName == "module") {
    constexpr std::string_view Tag = "; ModuleID = '";
    size_t Pos = Text.find(Tag);
    if (Pos != std::string_view::npos) {
      size_t Start = Pos + Tag.size();
      size_t End = Text.find('\'', Start);
      if (End != std::string_view::npos)
        ModuleName = std::string(Text.substr(Start, End - Start));
    }
  }
  return Parser(Ctx, Text, std::move(ModuleName)).run();
}
