#include "runtime/lower.hpp"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace fortd {

namespace {

using NameIndex = std::unordered_map<std::string, int>;

Intrinsic classify_intrinsic(const std::string& n) {
  if (n == "myproc") return Intrinsic::MyProc;
  if (n == "min") return Intrinsic::Min;
  if (n == "max") return Intrinsic::Max;
  if (n == "modp") return Intrinsic::Modp;
  if (n == "mod") return Intrinsic::Mod;
  if (n == "abs") return Intrinsic::Abs;
  if (n == "sqrt") return Intrinsic::Sqrt;
  if (n == "f") return Intrinsic::F;
  if (n.rfind("owner$", 0) == 0) return Intrinsic::OwnerOf;
  return Intrinsic::Unknown;
}

LExpr literal_one() {
  LExpr e;
  e.kind = LExprKind::Int;
  e.ival = 1;
  return e;
}

std::unordered_set<std::string> common_names(const Procedure& proc) {
  std::unordered_set<std::string> names;
  for (const auto& blk : proc.commons)
    for (const auto& v : blk.vars) names.insert(v);
  return names;
}

/// Lowers one procedure: assigns slots on first mention of each name.
class ProcLowerer {
 public:
  ProcLowerer(const Procedure& proc, const NameIndex& procs,
              const NameIndex& global_scalars, const NameIndex& global_arrays)
      : procs_(procs), gscalars_(global_scalars), garrays_(global_arrays) {
    out_.src = &proc;
  }

  LProc run() {
    const Procedure& proc = *out_.src;
    for (const auto& pc : proc.params)
      out_.params.push_back({scalar(pc.name), expr(*pc.value)});
    for (const auto& formal : proc.formals) {
      out_.formal_scalars.push_back(scalar(formal));
      out_.formal_arrays.push_back(array(formal));
    }
    const auto in_common = common_names(proc);
    std::unordered_set<std::string> declared;
    for (const auto& decl : proc.decls) {
      if (decl.is_decomposition) continue;
      LDecl d;
      d.src = &decl;
      d.shadowed = !declared.insert(decl.name).second ||
                   std::any_of(proc.params.begin(), proc.params.end(),
                               [&](const ParamConst& pc) {
                                 return pc.name == decl.name;
                               });
      d.formal = proc.formal_index(decl.name);
      const bool common = in_common.count(decl.name) > 0;
      if (decl.dims.empty()) {
        d.slot = scalar(decl.name);
        if (common) d.global = gscalars_.at(decl.name);
      } else {
        d.slot = array(decl.name);
        if (common) d.global = garrays_.at(decl.name);
        for (const auto& dim : decl.dims) {
          d.lbs.push_back(dim.lb ? expr(*dim.lb) : literal_one());
          d.ubs.push_back(expr(*dim.ub));
        }
        if (!d.shadowed && d.formal < 0)
          out_.names.declared_arrays.push_back(d.slot);
      }
      out_.decls.push_back(std::move(d));
    }
    out_.body = stmts(proc.body);
    return std::move(out_);
  }

 private:
  static int slot_of(const std::string& name, NameIndex& index,
                     std::vector<std::string>& names,
                     std::vector<int>& fallback, const NameIndex& globals) {
    auto [it, fresh] = index.emplace(name, static_cast<int>(names.size()));
    if (fresh) {
      names.push_back(name);
      auto g = globals.find(name);
      fallback.push_back(g == globals.end() ? -1 : g->second);
    }
    return it->second;
  }
  int scalar(const std::string& name) {
    return slot_of(name, scalar_index_, out_.names.scalars,
                   out_.scalar_fallback, gscalars_);
  }
  int array(const std::string& name) {
    return slot_of(name, array_index_, out_.names.arrays,
                   out_.array_fallback, garrays_);
  }

  std::vector<LExpr> exprs(const std::vector<ExprPtr>& es) {
    std::vector<LExpr> out;
    out.reserve(es.size());
    for (const auto& e : es) out.push_back(expr(*e));
    return out;
  }

  LExpr expr(const Expr& e) {
    LExpr out;
    out.src = &e;
    switch (e.kind) {
      case ExprKind::IntLit:
        out.kind = LExprKind::Int;
        out.ival = e.int_val;
        break;
      case ExprKind::RealLit:
        out.kind = LExprKind::Real;
        out.rval = e.real_val;
        break;
      case ExprKind::VarRef:
        out.kind = LExprKind::Scalar;
        out.slot = scalar(e.name);
        break;
      case ExprKind::ArrayRef:
        out.kind = LExprKind::Elem;
        out.slot = array(e.name);
        out.args = exprs(e.args);
        break;
      case ExprKind::FuncCall:
        out.kind = LExprKind::Call;
        out.fn = classify_intrinsic(e.name);
        if (out.fn == Intrinsic::OwnerOf) out.slot = array(e.name.substr(6));
        out.args = exprs(e.args);
        break;
      case ExprKind::Unary:
        out.kind = LExprKind::Unary;
        out.un_op = e.un_op;
        out.args = exprs(e.args);
        break;
      case ExprKind::Binary:
        out.kind = LExprKind::Binary;
        out.bin_op = e.bin_op;
        out.args = exprs(e.args);
        // Pre-decode `v + c` and `v - c`, the usual subscript shape. Its
        // real case is exact too: x - c == x + (-c) in IEEE arithmetic.
        if ((e.bin_op == BinOp::Add || e.bin_op == BinOp::Sub) &&
            out.args[0].kind == LExprKind::Scalar &&
            out.args[1].kind == LExprKind::Int) {
          out.kind = LExprKind::Offset;
          out.slot = out.args[0].slot;
          out.ival = e.bin_op == BinOp::Add ? out.args[1].ival
                                            : -out.args[1].ival;
          out.args.clear();
        }
        break;
    }
    return out;
  }

  std::vector<LStmt> stmts(const std::vector<StmtPtr>& ss) {
    std::vector<LStmt> out;
    out.reserve(ss.size());
    for (const auto& s : ss) out.push_back(stmt(*s));
    return out;
  }

  LStmt stmt(const Stmt& s) {
    LStmt out;
    out.kind = s.kind;
    out.src = &s;
    switch (s.kind) {
      case StmtKind::Assign:
        out.ops.push_back(expr(*s.lhs));
        out.ops.push_back(expr(*s.rhs));
        break;
      case StmtKind::If:
        out.ops.push_back(expr(*s.cond));
        out.body = stmts(s.then_body);
        out.else_body = stmts(s.else_body);
        break;
      case StmtKind::Do:
        out.ops.push_back(expr(*s.lb));
        out.ops.push_back(expr(*s.ub));
        out.ops.push_back(s.step ? expr(*s.step) : literal_one());
        out.var = scalar(s.loop_var);
        out.body = stmts(s.body);
        break;
      case StmtKind::Call: {
        auto it = procs_.find(s.callee);
        out.callee = it == procs_.end() ? -1 : it->second;
        for (const auto& a : s.call_args) {
          LActual actual;
          if (a->kind == ExprKind::VarRef) {
            actual.by_ref = true;
            actual.array = array(a->name);
            actual.scalar = scalar(a->name);
          } else {
            actual.value = expr(*a);
          }
          out.actuals.push_back(std::move(actual));
        }
        break;
      }
      case StmtKind::Distribute:
      case StmtKind::Remap:
      case StmtKind::MarkDist:
        out.array = array(s.dist_target);
        out.to.dists = s.dist_specs;
        out.has_from = s.kind == StmtKind::Remap && !s.from_specs.empty();
        out.from.dists = s.from_specs;
        break;
      case StmtKind::Send:
      case StmtKind::Recv:
      case StmtKind::Broadcast:
        if (s.kind != StmtKind::Broadcast || !s.msg_section.empty())
          out.array = array(s.msg_array);
        else
          out.scalar = scalar(s.msg_array);
        for (const auto& t : s.msg_section)
          out.section.push_back({expr(*t.lb), expr(*t.ub),
                                 t.step ? expr(*t.step) : literal_one()});
        out.ops.push_back(s.peer ? expr(*s.peer) : LExpr{});
        break;
      case StmtKind::AllReduce:
        out.scalar = scalar(s.msg_array);
        out.reduce = s.reduce_op == "min"   ? ReduceOp::Min
                     : s.reduce_op == "max" ? ReduceOp::Max
                                            : ReduceOp::Sum;
        break;
      case StmtKind::Return:
      case StmtKind::Continue:
      case StmtKind::Align:
        break;
    }
    return out;
  }

  const NameIndex& procs_;
  const NameIndex& gscalars_;
  const NameIndex& garrays_;
  NameIndex scalar_index_, array_index_;
  LProc out_;
};

}  // namespace

int SlotNames::scalar_slot(const std::string& name) const {
  auto it = std::find(scalars.begin(), scalars.end(), name);
  return it == scalars.end() ? -1 : static_cast<int>(it - scalars.begin());
}

int SlotNames::array_slot(const std::string& name) const {
  auto it = std::find(arrays.begin(), arrays.end(), name);
  return it == arrays.end() ? -1 : static_cast<int>(it - arrays.begin());
}

LoweredProgram lower_program(const SourceProgram& ast) {
  LoweredProgram out;
  // my$p is global 0 even when there is no main program: every EvalCore
  // seeds it, and run() reports the missing main.
  out.global_scalars.push_back("my$p");
  const Procedure* main = nullptr;
  for (const auto& p : ast.procedures)
    if (p->is_program) {
      main = p.get();
      break;
    }
  if (!main) return out;

  // Procedures reachable from the main program, in discovery order; a
  // call resolves to the first procedure of that name, as lookup by name
  // always has.
  std::vector<const Procedure*> reachable{main};
  NameIndex proc_index;
  proc_index.emplace(main->name, 0);
  for (size_t i = 0; i < reachable.size(); ++i) {
    walk_stmts(reachable[i]->body, [&](const Stmt& s) {
      if (s.kind != StmtKind::Call || proc_index.count(s.callee)) return;
      const Procedure* callee = ast.find(s.callee);
      if (!callee) return;
      proc_index.emplace(s.callee, static_cast<int>(reachable.size()));
      reachable.push_back(callee);
    });
  }

  // Globals: my$p, then every COMMON variable some reachable procedure
  // declares.
  NameIndex gscalars{{"my$p", 0}}, garrays;
  for (const Procedure* proc : reachable) {
    const auto in_common = common_names(*proc);
    for (const auto& decl : proc->decls) {
      if (decl.is_decomposition || !in_common.count(decl.name)) continue;
      auto& index = decl.dims.empty() ? gscalars : garrays;
      auto& names = decl.dims.empty() ? out.global_scalars : out.global_arrays;
      if (index.emplace(decl.name, static_cast<int>(names.size())).second)
        names.push_back(decl.name);
    }
  }

  out.main = 0;
  out.procs.reserve(reachable.size());
  for (const Procedure* proc : reachable)
    out.procs.push_back(ProcLowerer(*proc, proc_index, gscalars, garrays).run());
  return out;
}

}  // namespace fortd
