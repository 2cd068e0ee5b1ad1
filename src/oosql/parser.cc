#include "oosql/parser.h"

#include <algorithm>

#include "common/str_util.h"
#include "oosql/lexer.h"

namespace n2j {

namespace {

std::shared_ptr<QExpr> NewNode(QExpr::Kind kind, const Token& at) {
  auto node = std::make_shared<QExpr>();
  node->kind = kind;
  node->line = at.line;
  node->column = at.column;
  return node;
}

}  // namespace

const Token& Parser::Peek(int ahead) const {
  size_t p = pos_ + static_cast<size_t>(ahead);
  if (p >= tokens_.size()) return tokens_.back();
  return tokens_[p];
}

const Token& Parser::Advance() {
  const Token& t = tokens_[pos_];
  if (pos_ + 1 < tokens_.size()) ++pos_;
  return t;
}

bool Parser::Match(TokenKind kind) {
  if (Check(kind)) {
    Advance();
    return true;
  }
  return false;
}

Result<const Token*> Parser::Expect(TokenKind kind, const char* context) {
  if (Check(kind)) return &Advance();
  return Status::ParseError(StrFormat(
      "%d:%d: expected %s %s, found %s", Peek().line, Peek().column,
      TokenKindName(kind), context, Peek().Describe().c_str()));
}

Status Parser::ErrorHere(const std::string& msg) const {
  return Status::ParseError(StrFormat("%d:%d: %s (found %s)", Peek().line,
                                      Peek().column, msg.c_str(),
                                      Peek().Describe().c_str()));
}

Status Parser::TooDeep() const {
  return ErrorHere(StrFormat("query nesting deeper than %d levels",
                             kMaxQueryDepth));
}

Result<QExprPtr> Parser::Finish(std::shared_ptr<QExpr> node) const {
  for (const QExprPtr& k : node->kids) {
    node->height = std::max(node->height, k->height + 1);
  }
  if (node->height > kMaxQueryDepth) return TooDeep();
  return QExprPtr(std::move(node));
}

Result<QExprPtr> Parser::ParseQuery() {
  N2J_ASSIGN_OR_RETURN(QExprPtr e, ParseExpr());
  Match(TokenKind::kSemicolon);
  if (!Check(TokenKind::kEof)) {
    return ErrorHere("trailing input after query");
  }
  return e;
}

Result<QExprPtr> Parser::ParseExpr() {
  N2J_ASSIGN_OR_RETURN(QExprPtr l, ParseAnd());
  while (Check(TokenKind::kOr)) {
    const Token& op = Advance();
    N2J_ASSIGN_OR_RETURN(QExprPtr r, ParseAnd());
    auto node = NewNode(QExpr::Kind::kBinary, op);
    node->bop = BinOp::kOr;
    node->kids = {l, r};
    N2J_ASSIGN_OR_RETURN(l, Finish(std::move(node)));
  }
  return l;
}

Result<QExprPtr> Parser::ParseAnd() {
  N2J_ASSIGN_OR_RETURN(QExprPtr l, ParseNot());
  while (Check(TokenKind::kAnd)) {
    const Token& op = Advance();
    N2J_ASSIGN_OR_RETURN(QExprPtr r, ParseNot());
    auto node = NewNode(QExpr::Kind::kBinary, op);
    node->bop = BinOp::kAnd;
    node->kids = {l, r};
    N2J_ASSIGN_OR_RETURN(l, Finish(std::move(node)));
  }
  return l;
}

Result<QExprPtr> Parser::ParseNot() {
  if (Check(TokenKind::kNot)) {
    Level level(&depth_);
    if (depth_ > kMaxQueryDepth) return TooDeep();
    const Token& op = Advance();
    N2J_ASSIGN_OR_RETURN(QExprPtr e, ParseNot());
    auto node = NewNode(QExpr::Kind::kUnary, op);
    node->uop = UnOp::kNot;
    node->kids = {e};
    return Finish(std::move(node));
  }
  return ParseComparison();
}

Result<QExprPtr> Parser::ParseComparison() {
  N2J_ASSIGN_OR_RETURN(QExprPtr l, ParseAdditive());
  BinOp op;
  switch (Peek().kind) {
    case TokenKind::kEq: op = BinOp::kEq; break;
    case TokenKind::kNe: op = BinOp::kNe; break;
    case TokenKind::kLt: op = BinOp::kLt; break;
    case TokenKind::kLe: op = BinOp::kLe; break;
    case TokenKind::kGt: op = BinOp::kGt; break;
    case TokenKind::kGe: op = BinOp::kGe; break;
    case TokenKind::kIn: op = BinOp::kIn; break;
    case TokenKind::kContains: op = BinOp::kContains; break;
    case TokenKind::kSubset: op = BinOp::kSubset; break;
    case TokenKind::kSubsetEq: op = BinOp::kSubsetEq; break;
    case TokenKind::kSupset: op = BinOp::kSupset; break;
    case TokenKind::kSupsetEq: op = BinOp::kSupsetEq; break;
    default:
      return l;
  }
  const Token& tok = Advance();
  N2J_ASSIGN_OR_RETURN(QExprPtr r, ParseAdditive());
  auto node = NewNode(QExpr::Kind::kBinary, tok);
  node->bop = op;
  node->kids = {l, r};
  return Finish(std::move(node));
}

Result<QExprPtr> Parser::ParseAdditive() {
  N2J_ASSIGN_OR_RETURN(QExprPtr l, ParseMultiplicative());
  for (;;) {
    BinOp op;
    if (Check(TokenKind::kPlus)) {
      op = BinOp::kAdd;
    } else if (Check(TokenKind::kDash)) {
      op = BinOp::kSub;
    } else if (Check(TokenKind::kUnion)) {
      op = BinOp::kUnionOp;
    } else if (Check(TokenKind::kMinus)) {
      op = BinOp::kDifferenceOp;
    } else {
      return l;
    }
    const Token& tok = Advance();
    N2J_ASSIGN_OR_RETURN(QExprPtr r, ParseMultiplicative());
    auto node = NewNode(QExpr::Kind::kBinary, tok);
    node->bop = op;
    node->kids = {l, r};
    N2J_ASSIGN_OR_RETURN(l, Finish(std::move(node)));
  }
}

Result<QExprPtr> Parser::ParseMultiplicative() {
  N2J_ASSIGN_OR_RETURN(QExprPtr l, ParseUnary());
  for (;;) {
    BinOp op;
    if (Check(TokenKind::kStar)) {
      op = BinOp::kMul;
    } else if (Check(TokenKind::kSlash)) {
      op = BinOp::kDiv;
    } else if (Check(TokenKind::kPercent)) {
      op = BinOp::kMod;
    } else if (Check(TokenKind::kIntersect)) {
      op = BinOp::kIntersectOp;
    } else {
      return l;
    }
    const Token& tok = Advance();
    N2J_ASSIGN_OR_RETURN(QExprPtr r, ParseUnary());
    auto node = NewNode(QExpr::Kind::kBinary, tok);
    node->bop = op;
    node->kids = {l, r};
    N2J_ASSIGN_OR_RETURN(l, Finish(std::move(node)));
  }
}

Result<QExprPtr> Parser::ParseUnary() {
  if (Check(TokenKind::kDash)) {
    Level level(&depth_);
    if (depth_ > kMaxQueryDepth) return TooDeep();
    const Token& tok = Advance();
    N2J_ASSIGN_OR_RETURN(QExprPtr e, ParseUnary());
    auto node = NewNode(QExpr::Kind::kUnary, tok);
    node->uop = UnOp::kNeg;
    node->kids = {e};
    return Finish(std::move(node));
  }
  return ParsePostfix();
}

Result<QExprPtr> Parser::ParsePostfix() {
  N2J_ASSIGN_OR_RETURN(QExprPtr e, ParsePrimary());
  for (;;) {
    if (Check(TokenKind::kDot)) {
      const Token& tok = Advance();
      N2J_ASSIGN_OR_RETURN(const Token* field, Expect(TokenKind::kIdent,
                                               "after '.'"));
      auto node = NewNode(QExpr::Kind::kField, tok);
      node->str = field->text;
      node->kids = {e};
      N2J_ASSIGN_OR_RETURN(e, Finish(std::move(node)));
    } else if (Check(TokenKind::kLBracket)) {
      const Token& tok = Advance();
      auto node = NewNode(QExpr::Kind::kTupleProject, tok);
      do {
        N2J_ASSIGN_OR_RETURN(const Token* name,
                             Expect(TokenKind::kIdent, "in tuple projection"));
        node->names.push_back(name->text);
      } while (Match(TokenKind::kComma));
      N2J_RETURN_IF_ERROR(
          Expect(TokenKind::kRBracket, "closing tuple projection").status());
      node->kids = {e};
      N2J_ASSIGN_OR_RETURN(e, Finish(std::move(node)));
    } else {
      return e;
    }
  }
}

Result<QExprPtr> Parser::ParseSelect() {
  const Token& tok = Advance();  // 'select'
  N2J_ASSIGN_OR_RETURN(QExprPtr body, ParseExpr());
  N2J_RETURN_IF_ERROR(
      Expect(TokenKind::kFrom, "after select expression").status());
  auto node = NewNode(QExpr::Kind::kSelect, tok);
  node->kids.push_back(body);
  do {
    N2J_ASSIGN_OR_RETURN(const Token* var,
                         Expect(TokenKind::kIdent, "as range variable"));
    N2J_RETURN_IF_ERROR(
        Expect(TokenKind::kIn, "after range variable").status());
    N2J_ASSIGN_OR_RETURN(QExprPtr range, ParseExpr());
    node->names.push_back(var->text);
    node->kids.push_back(range);
  } while (Match(TokenKind::kComma));
  if (Match(TokenKind::kWhere)) {
    N2J_ASSIGN_OR_RETURN(QExprPtr where, ParseExpr());
    node->has_where = true;
    node->kids.push_back(where);
  }
  // The paper's `with` construct: local subquery definitions, e.g.
  //   select F(x) from x in X where P(x, Yp) with Yp = select ...
  // Definitions are macro-expanded into the block (they may reference
  // the range variables and earlier definitions).
  N2J_ASSIGN_OR_RETURN(QExprPtr result, Finish(std::move(node)));
  if (Match(TokenKind::kWith)) {
    std::vector<std::pair<std::string, QExprPtr>> defs;
    do {
      N2J_ASSIGN_OR_RETURN(
          const Token* name,
          Expect(TokenKind::kIdent, "as with-definition name"));
      N2J_RETURN_IF_ERROR(
          Expect(TokenKind::kEq, "after with-definition name").status());
      N2J_ASSIGN_OR_RETURN(QExprPtr def, ParseExpr());
      defs.emplace_back(name->text, def);
    } while (Match(TokenKind::kComma));
    // Each expansion at most adds a definition's height to the block's,
    // so checking after every step keeps the next one's recursion
    // bounded too.
    for (auto it = defs.rbegin(); it != defs.rend(); ++it) {
      result = SubstituteIdent(result, it->first, it->second);
      if (result->height > kMaxQueryDepth) return TooDeep();
    }
  }
  return result;
}

Result<QExprPtr> Parser::ParseQuantifier() {
  const Token& tok = Advance();  // 'exists' | 'forall'
  auto node = NewNode(QExpr::Kind::kQuant, tok);
  node->quant = tok.kind == TokenKind::kExists ? QuantKind::kExists
                                               : QuantKind::kForall;
  N2J_ASSIGN_OR_RETURN(const Token* var,
                       Expect(TokenKind::kIdent, "as quantifier variable"));
  node->names.push_back(var->text);
  N2J_RETURN_IF_ERROR(
      Expect(TokenKind::kIn, "after quantifier variable").status());
  // The range binds tightly (a path or parenthesized expression); the
  // optional ': pred' extends as far as possible.
  N2J_ASSIGN_OR_RETURN(QExprPtr range, ParsePostfix());
  node->kids.push_back(range);
  if (Match(TokenKind::kColon)) {
    N2J_ASSIGN_OR_RETURN(QExprPtr pred, ParseExpr());
    node->kids.push_back(pred);
  }
  return Finish(std::move(node));
}

Result<QExprPtr> Parser::ParsePrimary() {
  // Every recursion through the grammar except `not` and unary minus
  // (which count their own levels) passes through here.
  Level level(&depth_);
  if (depth_ > kMaxQueryDepth) return TooDeep();
  const Token& t = Peek();
  switch (t.kind) {
    case TokenKind::kInt: {
      const Token& tok = Advance();
      auto node = NewNode(QExpr::Kind::kIntLit, tok);
      node->int_value = tok.int_value;
      return QExprPtr(node);
    }
    case TokenKind::kDouble: {
      const Token& tok = Advance();
      auto node = NewNode(QExpr::Kind::kDoubleLit, tok);
      node->double_value = tok.double_value;
      return QExprPtr(node);
    }
    case TokenKind::kString: {
      const Token& tok = Advance();
      auto node = NewNode(QExpr::Kind::kStringLit, tok);
      node->str = tok.text;
      return QExprPtr(node);
    }
    case TokenKind::kTrue:
    case TokenKind::kFalse: {
      const Token& tok = Advance();
      auto node = NewNode(QExpr::Kind::kBoolLit, tok);
      node->bool_value = tok.kind == TokenKind::kTrue;
      return QExprPtr(node);
    }
    case TokenKind::kSelect:
      return ParseSelect();
    case TokenKind::kExists:
    case TokenKind::kForall:
      return ParseQuantifier();
    case TokenKind::kCount:
    case TokenKind::kSum:
    case TokenKind::kAvg:
    case TokenKind::kMin:
    case TokenKind::kMax: {
      const Token& tok = Advance();
      auto node = NewNode(QExpr::Kind::kAgg, tok);
      switch (tok.kind) {
        case TokenKind::kCount: node->agg = AggKind::kCount; break;
        case TokenKind::kSum: node->agg = AggKind::kSum; break;
        case TokenKind::kAvg: node->agg = AggKind::kAvg; break;
        case TokenKind::kMin: node->agg = AggKind::kMin; break;
        default: node->agg = AggKind::kMax; break;
      }
      N2J_RETURN_IF_ERROR(
          Expect(TokenKind::kLParen, "after aggregate").status());
      N2J_ASSIGN_OR_RETURN(QExprPtr arg, ParseExpr());
      N2J_RETURN_IF_ERROR(
          Expect(TokenKind::kRParen, "closing aggregate").status());
      node->kids = {arg};
      return Finish(std::move(node));
    }
    case TokenKind::kIsEmpty: {
      const Token& tok = Advance();
      N2J_RETURN_IF_ERROR(
          Expect(TokenKind::kLParen, "after isempty").status());
      N2J_ASSIGN_OR_RETURN(QExprPtr arg, ParseExpr());
      N2J_RETURN_IF_ERROR(
          Expect(TokenKind::kRParen, "closing isempty").status());
      auto node = NewNode(QExpr::Kind::kIsEmptyCall, tok);
      node->kids = {arg};
      return Finish(std::move(node));
    }
    case TokenKind::kIdent: {
      const Token& tok = Advance();
      auto node = NewNode(QExpr::Kind::kIdent, tok);
      node->str = tok.text;
      return QExprPtr(node);
    }
    case TokenKind::kLParen: {
      const Token& tok = Advance();
      // Disambiguate tuple constructor "(name = e, ...)" from grouping.
      if (Check(TokenKind::kIdent) && Peek(1).kind == TokenKind::kEq) {
        auto node = NewNode(QExpr::Kind::kTupleLit, tok);
        do {
          N2J_ASSIGN_OR_RETURN(
              const Token* name, Expect(TokenKind::kIdent, "as tuple field"));
          N2J_RETURN_IF_ERROR(
              Expect(TokenKind::kEq, "after tuple field name").status());
          N2J_ASSIGN_OR_RETURN(QExprPtr v, ParseExpr());
          node->names.push_back(name->text);
          node->kids.push_back(v);
        } while (Match(TokenKind::kComma));
        N2J_RETURN_IF_ERROR(
            Expect(TokenKind::kRParen, "closing tuple").status());
        return Finish(std::move(node));
      }
      N2J_ASSIGN_OR_RETURN(QExprPtr e, ParseExpr());
      N2J_RETURN_IF_ERROR(
          Expect(TokenKind::kRParen, "closing parenthesis").status());
      return e;
    }
    case TokenKind::kLBrace: {
      const Token& tok = Advance();
      auto node = NewNode(QExpr::Kind::kSetLit, tok);
      if (!Check(TokenKind::kRBrace)) {
        do {
          N2J_ASSIGN_OR_RETURN(QExprPtr e, ParseExpr());
          node->kids.push_back(e);
        } while (Match(TokenKind::kComma));
      }
      N2J_RETURN_IF_ERROR(
          Expect(TokenKind::kRBrace, "closing set literal").status());
      return Finish(std::move(node));
    }
    default:
      return ErrorHere("expected an expression");
  }
}

Result<TypePtr> Parser::ParseType() {
  if (Match(TokenKind::kLBrace)) {
    N2J_ASSIGN_OR_RETURN(TypePtr elem, ParseType());
    N2J_RETURN_IF_ERROR(
        Expect(TokenKind::kRBrace, "closing set type").status());
    return Type::Set(std::move(elem));
  }
  if (Match(TokenKind::kLParen)) {
    std::vector<TypeField> fields;
    do {
      N2J_ASSIGN_OR_RETURN(const Token* name,
                           Expect(TokenKind::kIdent, "as attribute name"));
      N2J_RETURN_IF_ERROR(
          Expect(TokenKind::kColon, "after attribute name").status());
      N2J_ASSIGN_OR_RETURN(TypePtr ft, ParseType());
      fields.push_back({name->text, std::move(ft)});
    } while (Match(TokenKind::kComma));
    N2J_RETURN_IF_ERROR(
        Expect(TokenKind::kRParen, "closing tuple type").status());
    return Type::Tuple(std::move(fields));
  }
  if (Match(TokenKind::kOid)) return Type::OidType();
  N2J_ASSIGN_OR_RETURN(const Token* name, Expect(TokenKind::kIdent, "as type"));
  if (name->text == "string") return Type::String();
  if (name->text == "int" || name->text == "date") return Type::Int();
  if (name->text == "double" || name->text == "real") return Type::Double();
  if (name->text == "bool") return Type::Bool();
  // Explicit reference syntax Ref(Class) — what Type::ToString prints.
  if (name->text == "Ref" && Match(TokenKind::kLParen)) {
    N2J_ASSIGN_OR_RETURN(const Token* cls,
                         Expect(TokenKind::kIdent, "as referenced class"));
    N2J_RETURN_IF_ERROR(
        Expect(TokenKind::kRParen, "closing Ref(...)").status());
    return Type::Ref(cls->text);
  }
  // Any other identifier is a class reference.
  return Type::Ref(name->text);
}

Result<Schema> Parser::ParseSchema() {
  Schema schema;
  while (!Check(TokenKind::kEof)) {
    N2J_RETURN_IF_ERROR(
        Expect(TokenKind::kClass, "to start a class definition").status());
    ClassDef def;
    N2J_ASSIGN_OR_RETURN(const Token* name,
                         Expect(TokenKind::kIdent, "as class name"));
    def.name = name->text;
    N2J_RETURN_IF_ERROR(
        Expect(TokenKind::kWith, "after class name").status());
    N2J_RETURN_IF_ERROR(Expect(TokenKind::kExtension, "").status());
    N2J_ASSIGN_OR_RETURN(const Token* ext,
                         Expect(TokenKind::kIdent, "as extension name"));
    def.extent = ext->text;
    def.oid_field = "oid";
    if (Match(TokenKind::kOid)) {
      N2J_ASSIGN_OR_RETURN(const Token* of,
                           Expect(TokenKind::kIdent, "as oid field name"));
      def.oid_field = of->text;
    }
    Match(TokenKind::kComma);
    N2J_RETURN_IF_ERROR(Expect(TokenKind::kAttributes, "").status());
    do {
      N2J_ASSIGN_OR_RETURN(const Token* attr,
                           Expect(TokenKind::kIdent, "as attribute name"));
      N2J_RETURN_IF_ERROR(
          Expect(TokenKind::kColon, "after attribute name").status());
      N2J_ASSIGN_OR_RETURN(TypePtr t, ParseType());
      def.attributes.push_back({attr->text, std::move(t)});
    } while (Match(TokenKind::kComma));
    N2J_RETURN_IF_ERROR(
        Expect(TokenKind::kEnd, "to close class definition").status());
    // Optional repeated class name after 'end'.
    if (Check(TokenKind::kIdent)) Advance();
    N2J_RETURN_IF_ERROR(schema.AddClass(std::move(def)));
  }
  return schema;
}

Result<QExprPtr> Parser::ParseQueryString(const std::string& text) {
  Lexer lexer(text);
  N2J_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.ParseQuery();
}

Result<Schema> Parser::ParseSchemaString(const std::string& text) {
  Lexer lexer(text);
  N2J_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(std::move(tokens));
  return parser.ParseSchema();
}

}  // namespace n2j
