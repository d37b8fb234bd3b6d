// The SPMD engine vs the serial reference, on the same programs at P=4:
// the engine runs one OS thread per process and spends real wall-clock
// time blocking on rendezvous channels while its logical clocks price the
// run on the iPSC/860 model (sim_ms); the serial reference interprets the
// original program on one thread. The exact counters and sim_ms are
// pinned in tests/test_bench_pins.cpp — what this benchmark adds is the
// wall time of a real P=4 execution against the serial one.
#include <benchmark/benchmark.h>

#include "driver/compiler.hpp"
#include "frontend/parser.hpp"
#include "programs.hpp"
#include "runtime/backend.hpp"

namespace {

/// Jacobi relaxation, the paper's simplest pipeline: a 1-D ping-pong
/// stencil with BLOCK edges exchanged every sweep.
std::string jacobi(int64_t n, int64_t steps) {
  std::string N = std::to_string(n);
  std::string T = std::to_string(steps);
  return R"(
      program jacobi
      real u()" + N + R"()
      real unew()" + N + R"()
      integer i, t
      distribute u(block)
      distribute unew(block)
      do i = 1, )" + N + R"(
        u(i) = modp(i*13, 97) * 1.0
      enddo
      do t = 1, )" + T + R"(
        do i = 2, )" + N + R"( - 1
          unew(i) = 0.5 * (u(i-1) + u(i+1))
        enddo
        do i = 2, )" + N + R"( - 1
          u(i) = unew(i)
        enddo
      enddo
      end
)";
}

std::string program_for(int64_t which, int64_t n, int64_t steps) {
  return which == 0 ? jacobi(n, steps) : fortd::bench::fig15(n, steps);
}

void BM_ThreadedRun(benchmark::State& state) {
  const int64_t which = state.range(0);
  const int64_t n = state.range(1);
  const int64_t steps = state.range(2);
  fortd::CodegenOptions opt;
  opt.n_procs = 4;
  fortd::Compiler compiler(opt);
  fortd::CompileResult r =
      compiler.compile_source(program_for(which, n, steps));
  fortd::ExecutionBackend engine;
  fortd::ExecResult last;
  for (auto _ : state) {
    last = engine.execute(r.spmd);
    { auto sink = last.messages; benchmark::DoNotOptimize(sink); }
  }
  state.counters["msgs"] = static_cast<double>(last.messages);
  state.counters["bytes"] = static_cast<double>(last.bytes);
  state.counters["remap_bytes"] = static_cast<double>(last.remap_bytes);
  state.counters["sim_ms"] = last.sim_time_us / 1000.0;
}

void BM_SerialRun(benchmark::State& state) {
  const int64_t which = state.range(0);
  const int64_t n = state.range(1);
  const int64_t steps = state.range(2);
  fortd::SourceProgram ast =
      fortd::parse_program(program_for(which, n, steps));
  fortd::ExecResult last;
  for (auto _ : state) {
    last = fortd::run_serial_reference(ast);
    { auto sink = last.wall_ms; benchmark::DoNotOptimize(sink); }
  }
}

}  // namespace

// range(0): 0 = jacobi (stencil edge exchange), 1 = fig15 (block<->cyclic
// redistribution traffic). range(1): array extent. range(2): time steps.
#define FORTD_EXEC_ARGS \
  ->ArgsProduct({{0, 1}, {256, 1024}, {20}})->Unit(benchmark::kMillisecond)

BENCHMARK(BM_ThreadedRun) FORTD_EXEC_ARGS;
BENCHMARK(BM_SerialRun) FORTD_EXEC_ARGS;

BENCHMARK_MAIN();
