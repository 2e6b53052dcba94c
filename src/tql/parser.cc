#include "tql/parser.h"

#include <charconv>

#include "tql/lexer.h"

namespace tqp {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<QueryAst> Query() {
    QueryAst ast;
    TQP_ASSIGN_OR_RETURN(first, Stmt());
    ast.stmts.push_back(std::move(first));
    while (true) {
      if (Accept("UNION")) {
        if (Accept("ALL")) {
          ast.ops.push_back(QueryAst::SetOp::kUnionAll);
        } else {
          ast.ops.push_back(QueryAst::SetOp::kUnion);
        }
      } else if (Accept("EXCEPT")) {
        if (Accept("ALL")) {
          ast.ops.push_back(QueryAst::SetOp::kExceptAll);
        } else {
          ast.ops.push_back(QueryAst::SetOp::kExcept);
        }
      } else if (Accept("MAXUNION")) {
        ast.ops.push_back(QueryAst::SetOp::kMaxUnion);
      } else {
        break;
      }
      if (ast.stmts.size() >= kMaxNesting) return TooDeep();
      TQP_ASSIGN_OR_RETURN(next, Stmt());
      ast.stmts.push_back(std::move(next));
    }
    if (Accept("ORDER")) {
      TQP_RETURN_IF_ERROR(Expect("BY"));
      while (true) {
        TQP_ASSIGN_OR_RETURN(name, Identifier("ORDER BY attribute"));
        bool asc = true;
        if (Accept("DESC")) {
          asc = false;
        } else {
          Accept("ASC");
        }
        ast.order_by.push_back(SortKey{name, asc});
        if (!AcceptSymbol(",")) break;
      }
    }
    if (cur().kind != TokenKind::kEnd) {
      return Status::InvalidArgument("trailing input at offset " +
                                     std::to_string(cur().position) + ": '" +
                                     cur().text + "'");
    }
    return ast;
  }

 private:
  const Token& cur() const { return tokens_[pos_]; }

  bool Accept(const char* kw) {
    if (cur().IsKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool AcceptSymbol(const char* s) {
    if (cur().IsSymbol(s)) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(const char* kw) {
    if (!Accept(kw)) {
      return Status::InvalidArgument("expected " + std::string(kw) +
                                     " at offset " +
                                     std::to_string(cur().position));
    }
    return Status::OK();
  }

  Status ExpectSymbol(const char* s) {
    if (!AcceptSymbol(s)) {
      return Status::InvalidArgument("expected '" + std::string(s) +
                                     "' at offset " +
                                     std::to_string(cur().position));
    }
    return Status::OK();
  }

  Result<std::string> Identifier(const char* what) {
    if (cur().kind != TokenKind::kIdentifier) {
      return Status::InvalidArgument("expected " + std::string(what) +
                                     " at offset " +
                                     std::to_string(cur().position));
    }
    std::string name = cur().text;
    ++pos_;
    return name;
  }

  Result<SelectStmt> Stmt() {
    SelectStmt stmt;
    if (Accept("VALIDTIME")) {
      stmt.validtime = true;
      if (Accept("COALESCED")) stmt.coalesced = true;
    }
    TQP_RETURN_IF_ERROR(Expect("SELECT"));
    if (Accept("DISTINCT")) stmt.distinct = true;
    if (AcceptSymbol("*")) {
      stmt.star = true;
    } else {
      while (true) {
        TQP_ASSIGN_OR_RETURN(item, Item());
        stmt.items.push_back(std::move(item));
        if (!AcceptSymbol(",")) break;
      }
    }
    TQP_RETURN_IF_ERROR(Expect("FROM"));
    while (true) {
      if (stmt.from.size() >= kMaxNesting) return TooDeep();
      TQP_ASSIGN_OR_RETURN(rel, Identifier("relation name"));
      stmt.from.push_back(rel);
      if (!AcceptSymbol(",")) break;
    }
    if (Accept("WHERE")) {
      TQP_ASSIGN_OR_RETURN(pred, OrExpr());
      stmt.where = pred;
    }
    if (Accept("GROUP")) {
      TQP_RETURN_IF_ERROR(Expect("BY"));
      while (true) {
        TQP_ASSIGN_OR_RETURN(g, Identifier("grouping attribute"));
        stmt.group_by.push_back(g);
        if (!AcceptSymbol(",")) break;
      }
    }
    return stmt;
  }

  Result<SelectItem> Item() {
    // Aggregate call?
    for (AggFunc f : {AggFunc::kCount, AggFunc::kSum, AggFunc::kMin,
                      AggFunc::kMax, AggFunc::kAvg}) {
      if (!cur().IsKeyword(AggFuncName(f))) continue;
      ++pos_;
      TQP_RETURN_IF_ERROR(ExpectSymbol("("));
      SelectItem item;
      item.kind = SelectItem::Kind::kAggregate;
      item.agg.func = f;
      if (f == AggFunc::kCount && AcceptSymbol("*")) {
        item.agg.attr.clear();
      } else {
        TQP_ASSIGN_OR_RETURN(attr, Identifier("aggregate attribute"));
        item.agg.attr = attr;
      }
      TQP_RETURN_IF_ERROR(ExpectSymbol(")"));
      if (Accept("AS")) {
        TQP_ASSIGN_OR_RETURN(alias, Identifier("alias"));
        item.alias = alias;
      } else {
        item.alias = std::string(AggFuncName(f)) + "_" +
                     (item.agg.attr.empty() ? "all" : item.agg.attr);
      }
      item.agg.out_name = item.alias;
      return item;
    }
    SelectItem item;
    item.kind = SelectItem::Kind::kExpr;
    TQP_ASSIGN_OR_RETURN(e, AddExpr());
    item.expr = e;
    if (Accept("AS")) {
      TQP_ASSIGN_OR_RETURN(alias, Identifier("alias"));
      item.alias = alias;
    } else if (e->kind() == ExprKind::kAttr) {
      item.alias = e->attr_name();
    } else {
      item.alias = e->ToString();
    }
    return item;
  }

  // Expression precedence: OR < AND < NOT < comparison < additive < mult.
  Result<ExprPtr> OrExpr() {
    TQP_ASSIGN_OR_RETURN(lhs, AndExpr());
    ExprPtr out = lhs;
    while (Accept("OR")) {
      TQP_ASSIGN_OR_RETURN(rhs, AndExpr());
      TQP_ASSIGN_OR_RETURN(e, Bounded(Expr::Or(out, rhs)));
      out = e;
    }
    return out;
  }

  Result<ExprPtr> AndExpr() {
    TQP_ASSIGN_OR_RETURN(lhs, NotExpr());
    ExprPtr out = lhs;
    while (Accept("AND")) {
      TQP_ASSIGN_OR_RETURN(rhs, NotExpr());
      TQP_ASSIGN_OR_RETURN(e, Bounded(Expr::And(out, rhs)));
      out = e;
    }
    return out;
  }

  Result<ExprPtr> NotExpr() {
    if (Accept("NOT")) {
      TQP_RETURN_IF_ERROR(Nest());
      TQP_ASSIGN_OR_RETURN(e, NotExpr());
      --depth_;
      return Bounded(Expr::Not(e));
    }
    return CmpExpr();
  }

  Result<ExprPtr> CmpExpr() {
    TQP_ASSIGN_OR_RETURN(lhs, AddExpr());
    struct OpMap {
      const char* sym;
      CompareOp op;
    };
    static const OpMap kOps[] = {
        {"=", CompareOp::kEq},  {"<>", CompareOp::kNe}, {"<=", CompareOp::kLe},
        {">=", CompareOp::kGe}, {"<", CompareOp::kLt},  {">", CompareOp::kGt},
    };
    for (const OpMap& m : kOps) {
      if (AcceptSymbol(m.sym)) {
        TQP_ASSIGN_OR_RETURN(rhs, AddExpr());
        return Bounded(Expr::Compare(m.op, lhs, rhs));
      }
    }
    return lhs;
  }

  Result<ExprPtr> AddExpr() {
    TQP_ASSIGN_OR_RETURN(lhs, MulExpr());
    ExprPtr out = lhs;
    while (true) {
      ArithOp op;
      if (AcceptSymbol("+")) {
        op = ArithOp::kAdd;
      } else if (AcceptSymbol("-")) {
        op = ArithOp::kSub;
      } else {
        return out;
      }
      TQP_ASSIGN_OR_RETURN(rhs, MulExpr());
      TQP_ASSIGN_OR_RETURN(e, Bounded(Expr::Arith(op, out, rhs)));
      out = e;
    }
  }

  Result<ExprPtr> MulExpr() {
    TQP_ASSIGN_OR_RETURN(lhs, Primary());
    ExprPtr out = lhs;
    while (true) {
      ArithOp op;
      if (AcceptSymbol("*")) {
        op = ArithOp::kMul;
      } else if (AcceptSymbol("/")) {
        op = ArithOp::kDiv;
      } else {
        return out;
      }
      TQP_ASSIGN_OR_RETURN(rhs, Primary());
      TQP_ASSIGN_OR_RETURN(e, Bounded(Expr::Arith(op, out, rhs)));
      out = e;
    }
  }

  Result<ExprPtr> Primary() {
    const Token& t = cur();
    switch (t.kind) {
      case TokenKind::kIdentifier:
        ++pos_;
        return Expr::Attr(t.text);
      case TokenKind::kInteger: {
        TQP_ASSIGN_OR_RETURN(v, Number<int64_t>(t));
        return Expr::Const(Value::Int(v));
      }
      case TokenKind::kFloat: {
        TQP_ASSIGN_OR_RETURN(v, Number<double>(t));
        return Expr::Const(Value::Double(v));
      }
      case TokenKind::kString:
        ++pos_;
        return Expr::Const(Value::String(t.text));
      case TokenKind::kKeyword:
        if (t.text == "OVERLAPS") {
          ++pos_;
          TQP_RETURN_IF_ERROR(Nest());
          TQP_RETURN_IF_ERROR(ExpectSymbol("("));
          TQP_ASSIGN_OR_RETURN(a, AddExpr());
          TQP_RETURN_IF_ERROR(ExpectSymbol(","));
          TQP_ASSIGN_OR_RETURN(b, AddExpr());
          TQP_RETURN_IF_ERROR(ExpectSymbol(","));
          TQP_ASSIGN_OR_RETURN(c, AddExpr());
          TQP_RETURN_IF_ERROR(ExpectSymbol(","));
          TQP_ASSIGN_OR_RETURN(d, AddExpr());
          TQP_RETURN_IF_ERROR(ExpectSymbol(")"));
          --depth_;
          return Bounded(Expr::Overlaps(a, b, c, d));
        }
        break;
      case TokenKind::kSymbol:
        if (t.IsSymbol("(")) {
          ++pos_;
          TQP_RETURN_IF_ERROR(Nest());
          TQP_ASSIGN_OR_RETURN(e, OrExpr());
          TQP_RETURN_IF_ERROR(ExpectSymbol(")"));
          --depth_;
          return e;
        }
        break;
      default:
        break;
    }
    return Status::InvalidArgument("unexpected token '" + t.text +
                                   "' at offset " + std::to_string(t.position));
  }

  // Every recursive production (NOT, a parenthesized expression, OVERLAPS)
  // enters through Nest(), and every built node through Bounded(): both the
  // parser's own recursion and the height of the tree it hands to recursive
  // walkers stay within kMaxNesting, so a hostile line is an error, not a
  // stack overflow. The set-operation and FROM lists, which the translator
  // turns into left-deep plan chains, are bounded the same way. An error
  // abandons the parse, so only the success paths restore depth_.
  Status Nest() {
    if (++depth_ > kMaxNesting) return TooDeep();
    return Status::OK();
  }

  Result<ExprPtr> Bounded(ExprPtr e) {
    if (e->height() > kMaxNesting) return TooDeep();
    return e;
  }

  Status TooDeep() const {
    return Status::InvalidArgument(
        "query nested deeper than " + std::to_string(kMaxNesting) +
        " levels at offset " + std::to_string(cur().position));
  }

  /// Consumes a numeric literal token; out-of-range values are an error.
  template <typename T>
  Result<T> Number(const Token& t) {
    T v{};
    const char* end = t.text.data() + t.text.size();
    auto [ptr, ec] = std::from_chars(t.text.data(), end, v);
    if (ec != std::errc() || ptr != end) {
      return Status::InvalidArgument("numeric literal '" + t.text +
                                     "' out of range at offset " +
                                     std::to_string(t.position));
    }
    ++pos_;
    return v;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  uint32_t depth_ = 0;
};

}  // namespace

Result<QueryAst> ParseQuery(const std::string& input) {
  TQP_ASSIGN_OR_RETURN(tokens, Lex(input));
  Parser parser(std::move(tokens));
  return parser.Query();
}

}  // namespace tqp
