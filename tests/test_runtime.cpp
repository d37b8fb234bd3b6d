// The SPMD engine and the differential harness:
//   * differential correctness — every example program, under every
//     compilation strategy, at P in {1,2,4,8}, executes on the engine
//     with numerics identical to the serial reference,
//   * traffic — the engine's per-processor message counts and payload
//     bytes balance between senders and receivers and equal the known
//     values (the paper's Fig. 11/16/17 quantities; the exact tables are
//     in test_cost_pins.cpp and test_bench_pins.cpp),
//   * the rendezvous channel layer — deadline detection, poison
//     unwinding, and a many-senders torture test with injected delays
//     (run under FORTD_SANITIZE=thread via the tsan ctest label).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "driver/compiler.hpp"
#include "example_programs.hpp"
#include "frontend/parser.hpp"
#include "runtime/channel.hpp"
#include "runtime/harness.hpp"
#include "support/thread_pool.hpp"

namespace fortd {
namespace {

using examples::Example;
using examples::kExamples;

// ---------------------------------------------------------------------------
// Differential execution: engine == serial
// ---------------------------------------------------------------------------

HarnessReport run_example(const char* source, Strategy strategy, int n_procs,
                          const HarnessOptions& hopts) {
  CodegenOptions options;
  options.n_procs = n_procs;
  options.strategy = strategy;
  Compiler compiler(options);
  CompileResult compiled = compiler.compile_source(source);
  SourceProgram original = parse_program(source);
  return run_and_check(original, compiled.spmd, hopts);
}

const Strategy kStrategies[] = {Strategy::Interprocedural,
                                Strategy::Intraprocedural,
                                Strategy::RuntimeResolution};

const char* strategy_name(Strategy s) {
  switch (s) {
    case Strategy::Interprocedural: return "inter";
    case Strategy::Intraprocedural: return "intra";
    case Strategy::RuntimeResolution: return "runtime";
  }
  return "?";
}

TEST(RuntimeDifferential, EveryExampleEveryStrategyEveryP) {
  // 5 examples x 3 strategies x P in {1,2,4,8}: the engine's numerics
  // match the serial reference and its traffic balances (run_and_check
  // asserts both), and the report's prediction is that same execution.
  for (const Example& ex : kExamples) {
    for (Strategy strategy : kStrategies) {
      for (int P : {1, 2, 4, 8}) {
        SCOPED_TRACE(std::string(ex.name) + " -s " + strategy_name(strategy) +
                     " -P " + std::to_string(P));
        HarnessOptions hopts;
        HarnessReport hr = run_example(ex.source, strategy, P, hopts);
        EXPECT_TRUE(hr.numerics_ok) << hr.text();
        EXPECT_TRUE(hr.counts_ok) << hr.text();
        EXPECT_GT(hr.arrays_checked, 0);
        ASSERT_FALSE(hr.predicted.backend.empty());
        for (const std::string& array : hr.run.main_arrays())
          EXPECT_EQ(hr.run.gather(array), hr.predicted.gather(array))
              << "threaded and simulator backends disagree on '" << array
              << "'";
      }
    }
  }
}

TEST(RuntimeDifferential, ObservedTrafficMatchesKnownPredictions) {
  // Jacobi at P=4: one +1 and one -1 shift per time step, each 3 guarded
  // boundary messages, x 20 steps = 120 messages of one 8-byte element.
  HarnessOptions hopts;
  HarnessReport hr = run_example(examples::kJacobi,
                                 Strategy::Interprocedural, 4, hopts);
  EXPECT_TRUE(hr.ok()) << hr.text();
  EXPECT_EQ(hr.run.messages, 120);
  EXPECT_EQ(hr.run.bytes, 120 * 8);
  EXPECT_EQ(hr.run.messages, hr.predicted.messages);
  EXPECT_EQ(hr.run.bytes, hr.predicted.bytes);
  for (int p = 0; p < 4; ++p) {
    const auto& obs = hr.run.per_proc[static_cast<size_t>(p)];
    const auto& pred = hr.predicted.per_proc[static_cast<size_t>(p)];
    EXPECT_EQ(obs.sends, pred.sends) << "P" << p;
    EXPECT_EQ(obs.recvs, pred.recvs) << "P" << p;
    EXPECT_EQ(obs.sent_bytes, pred.sent_bytes) << "P" << p;
    EXPECT_EQ(obs.recvd_bytes, pred.recvd_bytes) << "P" << p;
  }

  // Redistribution: 21 block<->cyclic remaps move data in both backends,
  // and both account the same moved-byte total.
  HarnessReport rd = run_example(examples::kRedistribution,
                                 Strategy::Interprocedural, 4, hopts);
  EXPECT_TRUE(rd.ok()) << rd.text();
  EXPECT_GT(rd.run.remaps_executed, 0);
  EXPECT_EQ(rd.run.remaps_executed, rd.predicted.remaps_executed);
  EXPECT_EQ(rd.run.remap_bytes, rd.predicted.remap_bytes);
}

// ---------------------------------------------------------------------------
// Threaded backend mechanics
// ---------------------------------------------------------------------------

TEST(RuntimeBackend, RunsOnASharedThreadPool) {
  CodegenOptions options;
  options.n_procs = 4;
  Compiler compiler(options);
  CompileResult compiled = compiler.compile_source(examples::kJacobi);
  SourceProgram original = parse_program(examples::kJacobi);

  ThreadPool pool(2);  // smaller than P: the backend must grow it
  HarnessOptions hopts;
  hopts.runtime.pool = &pool;
  HarnessReport hr = run_and_check(original, compiled.spmd, hopts);
  EXPECT_TRUE(hr.ok()) << hr.text();
  EXPECT_GE(pool.size(), 3) << "workers + caller must cover all 4 processes";
}

TEST(RuntimeBackend, SurvivesInjectedSendDelays) {
  // Fault injection: stagger every send by a src/dst-dependent delay so
  // rendezvous pairings form in adversarial orders. Results must not
  // change — correctness may not depend on scheduling luck.
  CodegenOptions options;
  options.n_procs = 4;
  Compiler compiler(options);
  CompileResult compiled = compiler.compile_source(examples::kRedistribution);
  SourceProgram original = parse_program(examples::kRedistribution);

  HarnessOptions hopts;
  hopts.runtime.channel.send_delay = [](int src, int dst) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(100 * ((src * 7 + dst * 13) % 5)));
  };
  HarnessReport hr = run_and_check(original, compiled.spmd, hopts);
  EXPECT_TRUE(hr.ok()) << hr.text();
}

TEST(RuntimeBackend, RunAndCheckExecutesTheProgramOnce) {
  // Every send of the execution passes the send_delay hook once. Jacobi at
  // P=4 moves no data in remaps, so one execution fires it exactly
  // run.messages times; a second execution inside run_and_check would
  // double that.
  CodegenOptions options;
  options.n_procs = 4;
  Compiler compiler(options);
  CompileResult compiled = compiler.compile_source(examples::kJacobi);
  SourceProgram original = parse_program(examples::kJacobi);

  std::atomic<int64_t> sends{0};
  HarnessOptions hopts;
  hopts.runtime.channel.send_delay = [&](int, int) { ++sends; };
  HarnessReport hr = run_and_check(original, compiled.spmd, hopts);
  EXPECT_TRUE(hr.ok()) << hr.text();
  EXPECT_EQ(hr.run.messages, 120);
  EXPECT_EQ(sends.load(), hr.run.messages);
  EXPECT_GT(hr.run.sim_time_us, 0.0);
  EXPECT_EQ(hr.predicted.sim_time_us, hr.run.sim_time_us);
}

/// Run a hand-written program as SPMD code (every process executes every
/// statement on its own full copy) on P processes.
SpmdProgram as_spmd(const char* source, int n_procs) {
  SpmdProgram spmd;
  spmd.ast = parse_program(source);
  spmd.options.n_procs = n_procs;
  return spmd;
}

TEST(RuntimeBackend, CalleeRedistributionsAreUndoneInTheSameOrderEverywhere) {
  // `both` redistributes two arrays; on each return the evaluator undoes
  // both with restoring remaps. Each remap is a collective, so every
  // process must issue them in the same (allocation uid) order or the
  // pairwise exchanges would pair x's payload with y's.
  const char* source = R"(
      program twoarr
      real x(64)
      real y(64)
      integer i, t
      distribute x(block)
      distribute y(block)
      do i = 1, 64
        x(i) = i * 1.0
        y(i) = i * 2.0
      enddo
      do t = 1, 3
        call both(y, x)
        do i = 1, 64
          x(i) = x(i) + 0.5 * y(i)
        enddo
      enddo
      end

      subroutine both(a, b)
      real a(64)
      real b(64)
      integer i
      distribute b(cyclic)
      distribute a(cyclic)
      do i = 1, 64
        a(i) = a(i) + b(i)
        b(i) = b(i) * 2.0
      enddo
      end
)";
  SourceProgram original = parse_program(source);
  SpmdProgram spmd = as_spmd(source, 4);
  HarnessOptions hopts;
  HarnessReport hr = run_and_check(original, spmd, hopts);
  EXPECT_TRUE(hr.ok()) << hr.text();
  // Per call: two redistributions in the callee, two restoring remaps.
  EXPECT_EQ(hr.run.remaps_executed, 3 * 4);
  EXPECT_EQ(hr.run.remaps_executed, hr.predicted.remaps_executed);
  EXPECT_EQ(hr.run.remap_bytes, hr.predicted.remap_bytes);
  for (const std::string& array : hr.run.main_arrays())
    EXPECT_EQ(hr.run.gather(array), hr.predicted.gather(array)) << array;
}

TEST(RuntimeBackend, OutOfBoundsAccessNamesProcessorStatementAndIndex) {
  const char* source = R"(
      program oob
      real x(10)
      integer i
      do i = 1, 2
        x(my$p + 8) = 1.0
      enddo
      end
)";
  SpmdProgram spmd = as_spmd(source, 4);
  const SourceLoc loc = spmd.ast.procedures[0]->body[0]->body[0]->loc;
  ASSERT_TRUE(loc.valid());
  std::string message;
  try {
    make_backend(BackendKind::Threaded)->execute(spmd);
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  // P3 writes x(11): the first and only real failure.
  EXPECT_NE(message.find("P3 at " + loc.str() + " in oob"), std::string::npos)
      << message;
  EXPECT_NE(message.find("x dim 1 index 11 not in [1,10]"), std::string::npos)
      << message;
}

TEST(RuntimeBackend, ProgramWithoutMainIsAnErrorOnEveryBackend) {
  const char* source = R"(
      subroutine lone(x)
      real x(8)
      integer i
      do i = 1, 8
        x(i) = 1.0
      enddo
      end
)";
  SpmdProgram spmd = as_spmd(source, 2);
  EXPECT_THROW(run_serial_reference(spmd.ast), std::runtime_error);
  for (BackendKind kind : {BackendKind::Threaded, BackendKind::Simulator})
    EXPECT_THROW(make_backend(kind)->execute(spmd), std::runtime_error)
        << static_cast<int>(kind);
}

TEST(RuntimeBackend, CommonNameBindsOnlyWhereDeclared) {
  // Only `init` declares n in COMMON. The main program's n is its own
  // implicit local, bound when main's frame is built, so it stays 0 after
  // init stores 7 into the COMMON n; `twice` sees init's store.
  const char* source = R"(
      program scope
      integer m, k
      n = 0
      call init
      m = n
      call twice(k)
      end

      subroutine init
      integer n
      common /blk/ n
      n = 7
      end

      subroutine twice(r)
      integer r
      integer n
      common /blk/ n
      r = 2 * n
      end
)";
  SpmdProgram spmd = as_spmd(source, 2);
  ExecResult serial = run_serial_reference(spmd.ast);
  EXPECT_EQ(serial.gather_scalar("m"), 0.0);
  EXPECT_EQ(serial.gather_scalar("k"), 14.0);
  ExecResult threaded = make_backend(BackendKind::Threaded)->execute(spmd);
  EXPECT_EQ(threaded.gather_scalar("m"), 0.0);
  EXPECT_EQ(threaded.gather_scalar("k"), 14.0);
}

// ---------------------------------------------------------------------------
// Rendezvous channel layer
// ---------------------------------------------------------------------------

TEST(ChannelFabric, RendezvousBlocksUntilTaken) {
  runtime::ChannelFabric fabric(2);
  std::atomic<bool> send_returned{false};
  std::thread sender([&] {
    runtime::RtMessage msg;
    msg.src = 0;
    msg.tag = "x";
    msg.payload = {1.0, 2.0};
    fabric.send(0, 1, std::move(msg));
    send_returned = true;
  });
  // Rendezvous: the send cannot complete before the recv.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(send_returned);
  runtime::RtMessage got = fabric.recv(1, 0);
  sender.join();
  EXPECT_TRUE(send_returned);
  EXPECT_EQ(got.payload, (std::vector<double>{1.0, 2.0}));
  EXPECT_EQ(fabric.total_messages(), 1);
}

TEST(ChannelFabric, DeadlineTurnsAHangIntoChannelDeadlock) {
  runtime::ChannelOptions opts;
  opts.deadline_ms = 100;
  runtime::ChannelFabric fabric(2, opts);
  EXPECT_THROW(fabric.recv(1, 0), runtime::ChannelDeadlock);
  runtime::RtMessage msg;
  msg.payload = {1.0};
  EXPECT_THROW(fabric.send(0, 1, std::move(msg)), runtime::ChannelDeadlock);
}

TEST(ChannelFabric, PoisonUnwindsBlockedPeers) {
  runtime::ChannelFabric fabric(2);
  std::atomic<bool> aborted{false};
  std::thread stuck([&] {
    try {
      fabric.recv(1, 0);  // no sender will ever come
    } catch (const runtime::ChannelAborted&) {
      aborted = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  fabric.poison("P0 failed: test");
  stuck.join();
  EXPECT_TRUE(aborted);
  EXPECT_TRUE(fabric.poisoned());
  // Later operations fail immediately.
  EXPECT_THROW(fabric.recv(1, 0), runtime::ChannelAborted);
}

TEST(ChannelFabric, TortureManySendersManyReceiversWithDelays) {
  // 4 sender threads share ONE (src, dst) channel against 1 receiver,
  // for each of 3 destination processes, with injected delays scheduling
  // adversarial interleavings. Every message must arrive exactly once
  // (payload-sum accounting) and the fabric must stay consistent. This
  // is the racy surface — run it under FORTD_SANITIZE=thread (ctest -L
  // tsan) to vet the locking.
  constexpr int kDsts = 3;
  constexpr int kSendersPerDst = 4;
  constexpr int kMsgsPerSender = 50;

  runtime::ChannelOptions opts;
  opts.deadline_ms = 30000;
  std::atomic<int> delay_calls{0};
  opts.send_delay = [&](int src, int dst) {
    if (++delay_calls % 7 == 0)
      std::this_thread::sleep_for(
          std::chrono::microseconds(50 * ((src + dst) % 3)));
  };
  runtime::ChannelFabric fabric(1 + kDsts, opts);

  std::vector<std::thread> threads;
  std::vector<double> received_sum(kDsts, 0.0);
  for (int d = 0; d < kDsts; ++d) {
    threads.emplace_back([&, d] {
      for (int i = 0; i < kSendersPerDst * kMsgsPerSender; ++i)
        received_sum[d] += fabric.recv(1 + d, 0).payload.at(0);
    });
    for (int s = 0; s < kSendersPerDst; ++s) {
      threads.emplace_back([&, d, s] {
        for (int i = 0; i < kMsgsPerSender; ++i) {
          runtime::RtMessage msg;
          msg.src = 0;
          msg.tag = "torture";
          msg.payload = {static_cast<double>(s * kMsgsPerSender + i + 1)};
          fabric.send(0, 1 + d, std::move(msg));
        }
      });
    }
  }
  for (auto& t : threads) t.join();

  const int n = kSendersPerDst * kMsgsPerSender;
  const double expect = n * (n + 1) / 2.0;
  for (int d = 0; d < kDsts; ++d)
    EXPECT_EQ(received_sum[d], expect) << "dst " << 1 + d;
  EXPECT_EQ(fabric.total_messages(), kDsts * n);
  EXPECT_GT(delay_calls.load(), 0);
  EXPECT_FALSE(fabric.poisoned());
}

}  // namespace
}  // namespace fortd
