// The slot-resolved form of an SPMD program, built once per execution and
// shared read-only by every process that runs it.
//
// Lowering resolves, before any statement executes, everything the
// evaluator would otherwise look up by name on every access:
//   * each procedure's variables become numbered slots, in two separate
//     namespaces (scalars and arrays, as in Fortran a whole-array actual
//     and a scalar of the same name never collide). Formals, PARAMETERs,
//     declared locals, implicit locals and COMMON names all get a slot;
//     a slot with no local binding falls back to a global (COMMON or
//     my$p) when the frame is built;
//   * calls name their callee by index and intrinsics by enum; an unknown
//     callee, intrinsic or array still throws only when it executes;
//   * DISTRIBUTE / REMAP / MARKDIST carry their DecompSpec values ready
//     made, and optional operands (a DO step, a section step, a missing
//     lower bound) become the literal 1 they default to.
//
// Only procedures reachable from the main program through CALL statements
// are lowered. The lowered form points back into the SourceProgram for
// names and source locations, so the program must outlive it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "frontend/ast.hpp"
#include "ir/decomp.hpp"

namespace fortd {

/// Fortran's maximum array rank; subscripts are evaluated into a
/// fixed-size index of this length.
inline constexpr int kMaxRank = 7;

enum class Intrinsic : uint8_t {
  MyProc,
  Min,
  Max,
  Modp,
  Mod,
  Abs,
  Sqrt,
  F,        // the paper's unspecified elementwise F(...)
  OwnerOf,  // owner$<array>(subscripts): run-time resolution
  Unknown,  // throws when evaluated
};

enum class LExprKind : uint8_t {
  Int,
  Real,
  Scalar,
  Offset,  // scalar + integer literal (`i+1`, `i-1`): one flop
  Elem,
  Unary,
  Binary,
  Call,
};

struct LExpr {
  BinOp bin_op = BinOp::Add;
  UnOp un_op = UnOp::Neg;
  /// Scalar and Offset: scalar slot. Elem and OwnerOf: array slot.
  int slot = -1;
  LExprKind kind = LExprKind::Int;
  Intrinsic fn = Intrinsic::Unknown;
  union {
    int64_t ival = 0;  // Int: the value; Offset: the signed addend
    double rval;       // Real: the value
  };
  /// Binary {lhs, rhs}; Unary {operand}; Elem and Call: subscripts or
  /// arguments.
  std::vector<LExpr> args;
  /// The source expression (names and locations for diagnostics); null
  /// for defaulted operands.
  const Expr* src = nullptr;
};

struct LSection {
  LExpr lb, ub, step;
};

/// An actual argument: a variable passes by reference (an array when the
/// caller's array slot is bound, otherwise the caller's scalar cell); any
/// other expression is copied in.
struct LActual {
  bool by_ref = false;
  int scalar = -1;  // by_ref: the caller's slots
  int array = -1;
  LExpr value;      // otherwise: the expression
};

enum class ReduceOp : uint8_t { Sum, Min, Max };

struct LStmt {
  StmtKind kind = StmtKind::Continue;
  bool has_from = false;            // Remap with a previous distribution
  ReduceOp reduce = ReduceOp::Sum;  // AllReduce
  int var = -1;                     // Do: loop variable's scalar slot
  int callee = -1;                  // Call: procedure index, -1 unknown
  int array = -1;                   // dist target / message array slot
  int scalar = -1;                  // Broadcast / AllReduce scalar slot
  const Stmt* src = nullptr;

  /// Operands by kind: Assign {lhs, rhs}; If {cond}; Do {lb, ub, step};
  /// Send / Recv / Broadcast {peer}.
  std::vector<LExpr> ops;
  std::vector<LStmt> body;          // If then-branch, Do body
  std::vector<LStmt> else_body;     // If else-branch
  std::vector<LActual> actuals;     // Call
  std::vector<LSection> section;    // Send / Recv / Broadcast
  DecompSpec to, from;              // Distribute / Remap / MarkDist

  const LExpr& lhs() const { return ops[0]; }
  const LExpr& rhs() const { return ops[1]; }
  const LExpr& cond() const { return ops[0]; }
  const LExpr& lb() const { return ops[0]; }
  const LExpr& ub() const { return ops[1]; }
  const LExpr& step() const { return ops[2]; }
  const LExpr& peer() const { return ops[0]; }
};

/// A declared local, bound when the frame is built unless a PARAMETER, an
/// earlier declaration or a bound formal of the same name already took it.
struct LDecl {
  const VarDecl* src = nullptr;
  bool shadowed = false;  // by a PARAMETER or an earlier declaration
  int formal = -1;   // formal position, or -1
  int slot = -1;     // scalar slot (scalars) or array slot (arrays)
  int global = -1;   // COMMON: global scalar / array index, else -1
  std::vector<LExpr> lbs, ubs;  // arrays only
};

struct LParam {
  int slot = -1;
  LExpr value;
};

/// The names behind a procedure's slots: what results are looked up by.
struct SlotNames {
  std::vector<std::string> scalars, arrays;  // by slot
  /// Array slots of the declared (non-formal) arrays: the arrays a frame
  /// of the procedure holds itself.
  std::vector<int> declared_arrays;

  int scalar_slot(const std::string& name) const;
  int array_slot(const std::string& name) const;
};

struct LProc {
  const Procedure* src = nullptr;
  SlotNames names;
  /// Per slot: the global index a name falls back to when nothing in the
  /// frame binds it (-1 = none).
  std::vector<int> scalar_fallback, array_fallback;
  std::vector<LParam> params;
  /// Per formal position: the formal's scalar and array slots.
  std::vector<int> formal_scalars, formal_arrays;
  std::vector<LDecl> decls;
  std::vector<LStmt> body;
};

struct LoweredProgram {
  std::vector<LProc> procs;
  int main = -1;  // index of the main PROGRAM, -1 when absent
  /// Globals: index 0 of the scalars is my$p; the rest are COMMON
  /// variables, created by the first frame that declares them.
  std::vector<std::string> global_scalars, global_arrays;
};

/// Lower every procedure of `ast` reachable from its main program.
LoweredProgram lower_program(const SourceProgram& ast);

}  // namespace fortd
