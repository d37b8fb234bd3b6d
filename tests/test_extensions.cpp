// Extension features and robustness: procedure inlining (§4's alternative
// transformation), the pretty-printer, and SPMD engine failure injection.
#include <gtest/gtest.h>

#include <cmath>

#include "codegen/spmd_printer.hpp"
#include "driver/compiler.hpp"
#include "ipa/inlining.hpp"

namespace fortd {
namespace {

const char* kCallProgram = R"(
      program p
      real x(64)
      integer i
      distribute x(block)
      do i = 1, 64
        x(i) = i*1.0
      enddo
      call work(x, 3)
      call work(x, 5)
      end
      subroutine work(a, off)
      real a(64)
      integer off, i
      real t
      t = off * 1.0
      do i = 1, 64 - off
        a(i) = a(i+off) + t
      enddo
      end
)";

TEST(Inlining, InlineAllRemovesCalls) {
  BoundProgram bp = parse_and_bind(kCallProgram);
  InlineStats stats = inline_all(bp);
  EXPECT_EQ(stats.calls_inlined, 2);
  ASSERT_EQ(bp.ast.procedures.size(), 1u);
  int calls = 0;
  walk_stmts(bp.ast.procedures[0]->body, [&](const Stmt& s) {
    if (s.kind == StmtKind::Call) ++calls;
  });
  EXPECT_EQ(calls, 0);
}

TEST(Inlining, LocalsAreRenamedApart) {
  BoundProgram bp = parse_and_bind(kCallProgram);
  inline_all(bp);
  // The two inlined copies of `t` must have distinct names, declared in
  // the caller.
  const Procedure& main = *bp.ast.procedures[0];
  int t_decls = 0;
  for (const auto& d : main.decls)
    if (d.name.find("$t") != std::string::npos) ++t_decls;
  EXPECT_EQ(t_decls, 2);
}

TEST(Inlining, SemanticsPreserved) {
  // The inlined program must compute the same values as the original.
  auto run_src = [](BoundProgram bp) {
    IpaContext ctx = run_ipa(bp);
    CodegenOptions opt;
    opt.n_procs = 4;
    SpmdProgram spmd = generate_spmd(bp, ctx, opt);
    DecompSpec block;
    block.dists = {DistSpec{DistKind::Block, 0}};
    return simulate(spmd).gather("x", block);
  };
  BoundProgram original = parse_and_bind(kCallProgram);
  BoundProgram inlined = parse_and_bind(kCallProgram);
  inline_all(inlined);
  auto a = run_src(std::move(original));
  auto b = run_src(std::move(inlined));
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(a[i], b[i], 1e-12) << "element " << i;
}

TEST(Inlining, ExpressionActualsCopyIn) {
  BoundProgram bp = parse_and_bind(R"(
      program p
      integer n
      n = 1
      call f(n + 10)
      end
      subroutine f(m)
      integer m
      m = m + 1
      end
)");
  InlineStats stats = inline_all(bp);
  EXPECT_EQ(stats.calls_inlined, 1);
  // A copy-in temp assignment must precede the body.
  const Procedure& main = *bp.ast.procedures[0];
  bool has_temp = false;
  walk_stmts(main.body, [&](const Stmt& s) {
    if (s.kind == StmtKind::Assign && s.lhs->kind == ExprKind::VarRef &&
        s.lhs->name.rfind("inl$", 0) == 0)
      has_temp = true;
  });
  EXPECT_TRUE(has_temp);
}

TEST(Inlining, EarlyReturnRefused) {
  BoundProgram bp = parse_and_bind(R"(
      program p
      integer n
      call f(n)
      end
      subroutine f(m)
      integer m
      if (m .gt. 0) then
        return
      endif
      m = 1
      end
)");
  const Stmt* call = bp.ast.procedures[0]->body[0].get();
  EXPECT_FALSE(inline_call(bp, "p", call));
}

// ---------------------------------------------------------------------------

TEST(Printer, RoundTripThroughParser) {
  // Source-level programs must re-parse to an equivalent AST after
  // unparse (statement counts and hashes agree).
  BoundProgram bp = parse_and_bind(kCallProgram);
  std::string text = print_program(bp.ast);
  BoundProgram bp2 = parse_and_bind(text);
  ASSERT_EQ(bp2.ast.procedures.size(), bp.ast.procedures.size());
  for (size_t i = 0; i < bp.ast.procedures.size(); ++i) {
    int n1 = 0, n2 = 0;
    walk_stmts(bp.ast.procedures[i]->body, [&](const Stmt&) { ++n1; });
    walk_stmts(bp2.ast.procedures[i]->body, [&](const Stmt&) { ++n2; });
    EXPECT_EQ(n1, n2) << bp.ast.procedures[i]->name;
  }
}

TEST(Printer, PrecedenceParenthesization) {
  auto e = Expr::make_binary(
      BinOp::Mul,
      Expr::make_binary(BinOp::Add, Expr::make_var("a"), Expr::make_var("b")),
      Expr::make_var("c"));
  EXPECT_EQ(print_expr(*e), "(a + b)*c");
  auto f = Expr::make_binary(
      BinOp::Sub, Expr::make_var("a"),
      Expr::make_binary(BinOp::Sub, Expr::make_var("b"), Expr::make_var("c")));
  EXPECT_EQ(print_expr(*f), "a - (b - c)");
}

TEST(Printer, SpmdStatements) {
  StmtPtr send = Stmt::make_send(
      "x", [] {
        std::vector<SectionExpr> sec;
        SectionExpr t;
        t.lb = Expr::make_int(1);
        t.ub = Expr::make_int(5);
        sec.push_back(std::move(t));
        return sec;
      }(),
      Expr::make_binary(BinOp::Sub, Expr::make_var("my$p"), Expr::make_int(1)));
  EXPECT_EQ(print_stmt(*send), "send x(1:5) to my$p - 1\n");
}

// ---------------------------------------------------------------------------

TEST(FailureInjection, MismatchedSectionSizesAreDetected) {
  // Hand-build an SPMD program whose send and recv sections disagree: the
  // engine must fail loudly, not corrupt data.
  SpmdProgram spmd;
  spmd.options.n_procs = 2;
  auto proc = std::make_unique<Procedure>();
  proc->name = "p";
  proc->is_program = true;
  VarDecl x;
  x.name = "x";
  x.dims.push_back({nullptr, Expr::make_int(10)});
  proc->decls.push_back(std::move(x));

  auto section = [](int lo, int hi) {
    std::vector<SectionExpr> sec;
    SectionExpr t;
    t.lb = Expr::make_int(lo);
    t.ub = Expr::make_int(hi);
    sec.push_back(std::move(t));
    return sec;
  };
  using namespace fortd;
  // p0 sends 3 elements to p1; p1 expects 5.
  std::vector<StmtPtr> send_body, recv_body;
  send_body.push_back(Stmt::make_send("x", section(1, 3), Expr::make_int(1)));
  recv_body.push_back(Stmt::make_recv("x", section(1, 5), Expr::make_int(0)));
  proc->body.push_back(Stmt::make_if(
      Expr::make_binary(BinOp::Eq, Expr::make_var("my$p"), Expr::make_int(0)),
      std::move(send_body), std::move(recv_body)));
  spmd.ast.procedures.push_back(std::move(proc));
  EXPECT_THROW(simulate(spmd), std::runtime_error);
}

TEST(FailureInjection, MissingSenderDeadlocks) {
  SpmdProgram spmd;
  spmd.options.n_procs = 2;
  auto proc = std::make_unique<Procedure>();
  proc->name = "p";
  proc->is_program = true;
  VarDecl x;
  x.name = "x";
  x.dims.push_back({nullptr, Expr::make_int(4)});
  proc->decls.push_back(std::move(x));
  std::vector<SectionExpr> sec;
  SectionExpr t;
  t.lb = Expr::make_int(1);
  t.ub = Expr::make_int(1);
  sec.push_back(std::move(t));
  std::vector<StmtPtr> recv_body;
  recv_body.push_back(Stmt::make_recv("x", std::move(sec), Expr::make_int(0)));
  proc->body.push_back(Stmt::make_if(
      Expr::make_binary(BinOp::Eq, Expr::make_var("my$p"), Expr::make_int(1)),
      std::move(recv_body)));
  spmd.ast.procedures.push_back(std::move(proc));
  // P1 waits for a message P0 never sends. A 50 ms channel deadline turns
  // the hang into a ChannelDeadlock that names both ends.
  RuntimeOptions options;
  options.channel.deadline_ms = 50;
  try {
    ExecutionBackend(options).execute(spmd);
    ADD_FAILURE() << "the program ran to completion";
  } catch (const runtime::ChannelDeadlock& e) {
    EXPECT_NE(std::string(e.what()).find("P1 receiving from P0"),
              std::string::npos)
        << e.what();
  }
}

TEST(FailureInjection, UnknownIntrinsicThrows) {
  EXPECT_THROW(compile_and_run(R"(
      program p
      real x(4)
      x(1) = frobnicate(2.0)
      end
)"),
               std::runtime_error);
}

TEST(FailureInjection, DivisionByZeroThrows) {
  EXPECT_THROW(compile_and_run(R"(
      program p
      integer a, b
      b = 0
      a = 7 / b
      end
)"),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// Reduction recognition (collective communication)
// ---------------------------------------------------------------------------

TEST(Reductions, SumOverDistributedDimension) {
  const char* src = R"(
      program p
      real x(100)
      real total
      integer i
      distribute x(block)
      do i = 1, 100
        x(i) = i*1.0
      enddo
      total = 5.0
      do i = 1, 100
        total = total + x(i)
      enddo
      end
)";
  CodegenOptions opt;
  opt.n_procs = 4;
  Compiler compiler(opt);
  CompileResult r = compiler.compile_source(src);
  // The generated code must contain an AllReduce and a reduced loop, and
  // no run-time resolution.
  int allreduces = 0;
  walk_stmts(r.spmd.ast.procedures[0]->body, [&](const Stmt& s) {
    if (s.kind == StmtKind::AllReduce) ++allreduces;
  });
  EXPECT_EQ(allreduces, 1);
  EXPECT_EQ(r.spmd.stats.runtime_resolved_stmts, 0);
  ExecResult run = simulate(r.spmd);
  // total = 5 + sum(1..100) = 5055 on every processor.
  EXPECT_DOUBLE_EQ(run.gather_scalar("total"), 5055.0);
}

TEST(Reductions, CyclicDistributionAndVaryingProcs) {
  for (int procs : {1, 2, 4, 8}) {
    std::string src = R"(
      program p
      real x(60)
      real total
      integer i
      distribute x(cyclic)
      do i = 1, 60
        x(i) = 2.0*i
      enddo
      total = 0.0
      do i = 1, 60
        total = total + x(i)
      enddo
      end
)";
    CodegenOptions opt;
    opt.n_procs = procs;
    ExecResult run = compile_and_run(src, opt);
    EXPECT_DOUBLE_EQ(run.gather_scalar("total"), 60.0 * 61.0)
        << "procs " << procs;
  }
}

TEST(Reductions, MixedLoopFallsBackSafely) {
  // The loop carries both a reduction and an unrelated scalar update:
  // the loop cannot be reduced, and results must still be correct.
  const char* src = R"(
      program p
      real x(40)
      real total, other
      integer i
      distribute x(block)
      do i = 1, 40
        x(i) = 1.0
      enddo
      total = 0.0
      other = 0.0
      do i = 1, 40
        total = total + x(i)
        other = other + 1.0
      enddo
      end
)";
  CodegenOptions opt;
  opt.n_procs = 4;
  ExecResult run = compile_and_run(src, opt);
  EXPECT_DOUBLE_EQ(run.gather_scalar("total"), 40.0);
  EXPECT_DOUBLE_EQ(run.gather_scalar("other"), 40.0);
}

TEST(Reductions, NonReductionScalarOverDistributedDimFallsBack) {
  // `last = x(i)` is not an accumulation: run-time resolution must keep
  // it correct (the final value is x(40) on every processor).
  const char* src = R"(
      program p
      real x(40)
      real last
      integer i
      distribute x(block)
      do i = 1, 40
        x(i) = i*3.0
      enddo
      do i = 1, 40
        last = x(i)
      enddo
      end
)";
  CodegenOptions opt;
  opt.n_procs = 4;
  Compiler compiler(opt);
  CompileResult r = compiler.compile_source(src);
  EXPECT_GE(r.spmd.stats.runtime_resolved_stmts, 1);
  ExecResult run = simulate(r.spmd);
  EXPECT_DOUBLE_EQ(run.gather_scalar("last"), 120.0);
}

}  // namespace
}  // namespace fortd
