// TQL parser: a recursive-descent parser for the temporal SQL subset.
//
// Grammar (keywords case-insensitive):
//
//   query      := select_stmt (set_op select_stmt)* [ORDER BY order_list]
//   set_op     := UNION [ALL] | EXCEPT [ALL] | MAXUNION
//   select_stmt:= [VALIDTIME [COALESCED]] SELECT [DISTINCT] select_list
//                 FROM ident (',' ident)* [WHERE expr] [GROUP BY ident_list]
//   select_list:= '*' | sel_item (',' sel_item)*
//   sel_item   := agg_call [AS ident] | expr [AS ident]
//   agg_call   := (COUNT '(' '*' ')') | (COUNT|SUM|MIN|MAX|AVG) '(' ident ')'
//   expr       := standard precedence: OR < AND < NOT < cmp < add < mul;
//                 primaries: ident, literals, '(' expr ')',
//                 OVERLAPS '(' expr ',' expr ',' expr ',' expr ')'
//   order_list := ident [ASC|DESC] (',' ident [ASC|DESC])*
//
// VALIDTIME marks a statement as temporally reducible: its operations are
// translated to their temporal counterparts (Section 2.2's first statement
// class). Without VALIDTIME, time attributes are ordinary data (the second
// class). COALESCED additionally requests a coalesced result.
#ifndef TQP_TQL_PARSER_H_
#define TQP_TQL_PARSER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "algebra/expr.h"
#include "core/common.h"
#include "core/schema.h"

namespace tqp {

/// One item of a select list.
struct SelectItem {
  enum class Kind { kExpr, kAggregate };
  Kind kind = Kind::kExpr;
  ExprPtr expr;     // kExpr
  AggSpec agg;      // kAggregate
  std::string alias;  // output name; derived from the expression if empty
};

/// One parsed SELECT statement.
struct SelectStmt {
  bool validtime = false;
  bool coalesced = false;
  bool distinct = false;
  bool star = false;
  std::vector<SelectItem> items;
  std::vector<std::string> from;
  ExprPtr where;  // may be null
  std::vector<std::string> group_by;
};

/// A full query: SELECT statements combined with set operations, plus the
/// outermost ORDER BY.
struct QueryAst {
  enum class SetOp { kUnion, kUnionAll, kExcept, kExceptAll, kMaxUnion };

  std::vector<SelectStmt> stmts;
  std::vector<SetOp> ops;  // ops[i] combines stmts[i] and stmts[i+1]
  SortSpec order_by;
};

/// The deepest nesting ParseQuery accepts. It bounds nested NOT,
/// parentheses and OVERLAPS, the height of every parsed expression tree
/// (`a AND b AND c` is two levels above its operands), and the number of
/// statements in a set-operation chain and of relations in a FROM list
/// (each becomes one level of a left-deep plan).
constexpr uint32_t kMaxNesting = 256;

/// Parses a TQL query string. Never throws: an out-of-range numeric literal
/// or input nested deeper than kMaxNesting is an error status.
Result<QueryAst> ParseQuery(const std::string& input);

}  // namespace tqp

#endif  // TQP_TQL_PARSER_H_
