// Compile-as-a-service tests: the resident fortdd daemon (CompileService),
// its thin client, warm-session recompilation guarantees, admission
// control, graceful drain, and the concurrent-batch ThreadPool contract
// the shared-pool design rests on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "../bench/programs.hpp"
#include "codegen/spmd_printer.hpp"
#include "driver/compiler.hpp"
#include "fleet_harness.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "service/client.hpp"
#include "service/compile_service.hpp"

namespace fortd {
namespace {

using fleet_test::fresh_cache_dir;

/// One CompileService over a fresh cache directory on an ephemeral port.
struct TestService {
  explicit TestService(const std::string& tag,
                       service::ServiceOptions options = {}) {
    if (options.cache_dir.empty())
      options.cache_dir = fresh_cache_dir("svc_" + tag);
    options.port = 0;
    svc = std::make_unique<service::CompileService>(std::move(options));
    std::string err;
    started = svc->start(&err);
    EXPECT_TRUE(started) << err;
  }

  service::CompileClient client(int timeout_ms = 20000) {
    service::ClientOptions copt;
    copt.port = svc->port();
    copt.timeout_ms = timeout_ms;
    return service::CompileClient(copt);
  }

  std::unique_ptr<service::CompileService> svc;
  bool started = false;
};

remote::CompileOptionsWire wire_options(int n_procs = 4) {
  remote::CompileOptionsWire copts;
  copts.n_procs = static_cast<uint32_t>(n_procs);
  return copts;
}

/// The local reference: what a plain in-process fortdc compile prints.
std::string local_spmd(const std::string& src, int n_procs = 4) {
  CodegenOptions opt;
  opt.n_procs = n_procs;
  Compiler compiler(opt);
  return print_spmd(compiler.compile_source(src).spmd);
}

uint64_t json_uint(const std::string& json, const std::string& key) {
  const auto pos = json.find("\"" + key + "\":");
  if (pos == std::string::npos) return ~0ull;
  return std::strtoull(json.c_str() + pos + key.size() + 3, nullptr, 10);
}

// ---------------------------------------------------------------------------
// Warm-session recompilation guarantees (the §8 contract, over a socket)
// ---------------------------------------------------------------------------

TEST(CompileService, WarmRepeatParsesNothingAndComputesNoSummaries) {
  TestService ts("warm_repeat");
  auto client = ts.client();
  const std::string src = bench::fan_out(32, 64);
  const std::string reference = local_spmd(src);

  std::string reason;
  auto first = client.compile(src, wire_options(), &reason);
  ASSERT_TRUE(first) << reason;
  EXPECT_EQ(static_cast<remote::CompileStatus>(first->status),
            remote::CompileStatus::Ok);
  EXPECT_EQ(first->parsed_procedures, 33u);
  EXPECT_EQ(first->generated, 33u);
  EXPECT_EQ(first->spmd, reference) << "served output must be byte-identical";

  // The repeat against the warm daemon: AST from the digest cache (0
  // parsed), everything else from the session Compiler's hot caches
  // (0 generated, 0 summaries) — and still byte-identical.
  auto repeat = client.compile(src, wire_options(), &reason);
  ASSERT_TRUE(repeat) << reason;
  EXPECT_EQ(repeat->parsed_procedures, 0u);
  EXPECT_EQ(repeat->generated, 0u);
  EXPECT_EQ(repeat->summaries_computed, 0u);
  EXPECT_EQ(repeat->spmd, reference);
}

TEST(CompileService, OneOfThirtyTwoEditRecompilesExactlyOneProcedure) {
  TestService ts("one_edit");
  auto client = ts.client();
  std::string reason;
  auto warm = client.compile(bench::fan_out(32, 64), wire_options(), &reason);
  ASSERT_TRUE(warm) << reason;

  auto edited = client.compile(bench::fan_out(32, 64, /*edited_leaf=*/1),
                               wire_options(), &reason);
  ASSERT_TRUE(edited) << reason;
  EXPECT_EQ(edited->generated, 1u);
  EXPECT_EQ(edited->summaries_computed, 1u);
  EXPECT_EQ(edited->spmd, local_spmd(bench::fan_out(32, 64, 1)));
}

TEST(CompileService, RestartedDaemonIsWarmFromDisk) {
  const std::string dir = fresh_cache_dir("svc_restart");
  const std::string src = bench::fan_out(16, 64);
  service::ServiceOptions opt;
  opt.cache_dir = dir;
  {
    TestService ts("restart_a", opt);
    std::string reason;
    auto r = ts.client().compile(src, wire_options(), &reason);
    ASSERT_TRUE(r) << reason;
    EXPECT_EQ(r->generated, 17u);
    ts.svc->drain();
    ts.svc->stop();
  }
  // A fresh process image over the same store: the session tier starts
  // empty (the AST must re-parse) but codegen and summaries come from
  // disk.
  TestService ts("restart_b", opt);
  std::string reason;
  auto r = ts.client().compile(src, wire_options(), &reason);
  ASSERT_TRUE(r) << reason;
  EXPECT_GT(r->parsed_procedures, 0u);
  EXPECT_EQ(r->generated, 0u);
  EXPECT_EQ(r->summaries_computed, 0u);
  EXPECT_EQ(r->spmd, local_spmd(src));
}

TEST(CompileService, SessionEvictionKeepsOptionKeyedOutputsCorrect) {
  service::ServiceOptions opt;
  opt.max_sessions = 1;  // every option switch evicts the resident session
  TestService ts("evict", opt);
  auto client = ts.client();
  const std::string src = bench::fan_out(4, 64);

  std::string reason;
  auto at4 = client.compile(src, wire_options(4), &reason);
  ASSERT_TRUE(at4) << reason;
  auto at2 = client.compile(src, wire_options(2), &reason);
  ASSERT_TRUE(at2) << reason;
  auto again4 = client.compile(src, wire_options(4), &reason);
  ASSERT_TRUE(again4) << reason;

  EXPECT_EQ(at4->spmd, local_spmd(src, 4));
  EXPECT_EQ(at2->spmd, local_spmd(src, 2));
  EXPECT_EQ(again4->spmd, at4->spmd);
  const std::string json = ts.svc->metrics_json();
  const auto sessions = json.substr(json.find("\"sessions\""));
  EXPECT_GE(json_uint(sessions, "evictions"), 1u);
}

// ---------------------------------------------------------------------------
// Failure semantics
// ---------------------------------------------------------------------------

TEST(CompileService, CompileFailureIsAuthoritativeNotDegraded) {
  TestService ts("compile_fail");
  std::string reason;
  auto r = ts.client().compile("program p1\n  this is not fortran d\n",
                               wire_options(), &reason);
  ASSERT_TRUE(r) << reason;  // a reply, not a fallback
  EXPECT_EQ(static_cast<remote::CompileStatus>(r->status),
            remote::CompileStatus::CompileFail);
  EXPECT_FALSE(r->diagnostics.empty());
}

TEST(CompileService, UnreachableDaemonYieldsReasonNotReply) {
  net::Listener probe;
  ASSERT_TRUE(probe.listen_on("127.0.0.1", 0));
  const int dead_port = probe.port();
  probe.close();
  service::ClientOptions copt;
  copt.port = dead_port;
  copt.timeout_ms = 500;
  service::CompileClient client(copt);
  std::string reason;
  auto r = client.compile("program p\nend\n", wire_options(), &reason);
  EXPECT_FALSE(r);
  EXPECT_FALSE(reason.empty());
}

TEST(CompileService, HandshakeSkewIsRejectedBeforeAnyCompile) {
  TestService ts("skew");
  service::ClientOptions copt;
  copt.port = ts.svc->port();
  copt.timeout_ms = 2000;
  copt.format_hash_override = 0xdeadbeefull;
  service::CompileClient client(copt);
  std::string reason;
  auto r = client.compile(bench::fan_out(2, 64), wire_options(), &reason);
  EXPECT_FALSE(r);
  EXPECT_NE(reason.find("mismatch"), std::string::npos) << reason;
  EXPECT_GE(json_uint(ts.svc->metrics_json(), "handshake_rejects"), 1u);
}

TEST(CompileService, FullQueueRejectsInsteadOfQueueingUnboundedly) {
  service::ServiceOptions opt;
  opt.max_queue = 0;  // admission always refuses
  TestService ts("reject", opt);
  std::string reason;
  auto r = ts.client().compile(bench::fan_out(2, 64), wire_options(), &reason);
  EXPECT_FALSE(r);
  EXPECT_NE(reason.find("capacity"), std::string::npos) << reason;
  EXPECT_GE(json_uint(ts.svc->metrics_json(), "rejected"), 1u);
}

TEST(CompileService, QueuedRequestPastItsDeadlineIsDroppedNotCompiled) {
  std::promise<void> release;
  auto released = release.get_future().share();
  std::atomic<int> compiles{0};
  service::ServiceOptions opt;
  opt.executors = 1;
  opt.before_compile = [&] {
    if (compiles.fetch_add(1) == 0) released.wait();
  };
  TestService ts("deadline", opt);

  // Occupy the lone executor with a request that blocks in
  // before_compile until we release it.
  std::thread hog([&] {
    auto client = ts.client();
    std::string reason;
    auto r = client.compile(bench::fan_out(2, 64), wire_options(), &reason);
    EXPECT_TRUE(r) << reason;
  });
  while (compiles.load() == 0) std::this_thread::yield();

  // This request's whole 50 ms budget passes in the queue.
  auto copts = wire_options();
  copts.deadline_ms = 50;
  std::string reason;
  std::optional<remote::CompileReplyWire> expired;
  std::thread waiter([&] {
    auto client = ts.client();
    expired = client.compile(bench::fan_out(2, 64), copts, &reason);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  release.set_value();
  hog.join();
  waiter.join();
  EXPECT_FALSE(expired);
  EXPECT_NE(reason.find("deadline"), std::string::npos) << reason;
  EXPECT_EQ(compiles.load(), 1) << "the expired request must not compile";
  EXPECT_GE(json_uint(ts.svc->metrics_json(), "deadline_expired"), 1u);
}

TEST(CompileService, DrainFinishesInFlightWorkThenRefusesNewRequests) {
  TestService ts("drain");
  auto client = ts.client();
  std::string reason;
  ASSERT_TRUE(client.compile(bench::fan_out(4, 64), wire_options(), &reason))
      << reason;

  // DRAIN answers once the daemon is idle...
  EXPECT_TRUE(client.drain(&reason)) << reason;
  // ...and later COMPILEs are refused (the client's cue to go local).
  auto refused =
      client.compile(bench::fan_out(4, 64), wire_options(), &reason);
  EXPECT_FALSE(refused);
  EXPECT_NE(reason.find("draining"), std::string::npos) << reason;
}

TEST(CompileService, ClientGoneBeforeReplyIsCountedNotFatal) {
  // The client completes the handshake, sends one COMPILE and closes. The
  // daemon writes nothing to it after the handshake reply, so its close
  // is a plain FIN: the loop reads the COMPILE, then the EOF, and reaps
  // the connection. The compile is held in before_compile until that
  // reap, so the reply always finds the connection gone and lands in
  // replies_dropped. (A reply written before the loop sees the FIN goes
  // into the socket buffer and moves neither counter; a reply written
  // to the closed socket draws a reset that can drop unread requests.)
  // The hold gives up after 10 s, so a failed assertion below cannot
  // strand the executor.
  std::atomic<bool> reaped{false};
  service::ServiceOptions opt;
  opt.before_compile = [&reaped] {
    for (int spin = 0; spin < 400 && !reaped.load(); ++spin)
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
  };
  TestService ts("gone", opt);
  const std::string src = bench::fan_out(8, 64);
  {
    auto sock = net::connect_to("127.0.0.1", ts.svc->port(), 2000);
    ASSERT_TRUE(sock);
    remote::WireMessage hello;
    hello.type = remote::MsgType::Hello;
    hello.format_hash = remote::remote_wire_format_hash();
    std::vector<uint8_t> framed;
    ASSERT_TRUE(net::encode_frame(framed, encode_message(hello)));
    ASSERT_EQ(sock->send_all(framed.data(), framed.size(), 2000),
              net::IoStatus::Ok);
    net::FrameDecoder decoder;
    std::optional<std::vector<uint8_t>> hello_reply;
    while (!hello_reply) {
      uint8_t buf[256];
      size_t got = 0;
      ASSERT_EQ(sock->recv_some(buf, sizeof buf, got, 2000),
                net::IoStatus::Ok);
      decoder.feed(buf, got);
      hello_reply = decoder.next();
    }
    remote::WireMessage req;
    req.type = remote::MsgType::Compile;
    req.request_id = 7;
    req.text = src;
    req.copts = wire_options();
    framed.clear();
    ASSERT_TRUE(net::encode_frame(framed, encode_message(req)));
    ASSERT_EQ(sock->send_all(framed.data(), framed.size(), 2000),
              net::IoStatus::Ok);
  }  // socket closes here, compile held in before_compile
  for (int spin = 0; spin < 200; ++spin) {
    if (json_uint(ts.svc->metrics_json(), "connections_closed") >= 1) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  EXPECT_EQ(json_uint(ts.svc->metrics_json(), "connections_closed"), 1u);
  EXPECT_EQ(json_uint(ts.svc->metrics_json(), "requests"), 1u);
  reaped.store(true);

  // The daemon must survive, count the loss, and keep serving.
  for (int spin = 0; spin < 200; ++spin) {
    const std::string json = ts.svc->metrics_json();
    if (json_uint(json, "disconnects_mid_reply") +
            json_uint(json, "replies_dropped") >=
        1)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  const std::string json = ts.svc->metrics_json();
  EXPECT_GE(json_uint(json, "disconnects_mid_reply") +
                json_uint(json, "replies_dropped"),
            1u);
  std::string reason;
  auto r = ts.client().compile(src, wire_options(), &reason);
  ASSERT_TRUE(r) << reason;
  EXPECT_EQ(r->spmd, local_spmd(src));
}

TEST(CompileService, MetricsReportPhaseTotalsAndPeaks) {
  TestService ts("metrics");
  auto client = ts.client();
  std::string reason;
  ASSERT_TRUE(client.compile(bench::fan_out(4, 64), wire_options(), &reason))
      << reason;
  auto copts = wire_options();
  copts.want_timings = 1;
  auto timed = client.compile(bench::fan_out(4, 64), copts, &reason);
  ASSERT_TRUE(timed) << reason;
  EXPECT_NE(timed->timings_json.find("\"queue_ms\""), std::string::npos);
  EXPECT_NE(timed->timings_json.find("\"compile_ms\""), std::string::npos);

  auto metrics = client.fetch_metrics(&reason);
  ASSERT_TRUE(metrics) << reason;
  EXPECT_EQ(json_uint(*metrics, "requests"), 2u);
  EXPECT_EQ(json_uint(*metrics, "ok"), 2u);
  EXPECT_GE(json_uint(*metrics, "in_flight_peak"), 1u);
  EXPECT_NE(metrics->find("\"ast_cache\""), std::string::npos);
  EXPECT_NE(metrics->find("\"sessions\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrent-client soak: fair completion, byte-identical outputs
// ---------------------------------------------------------------------------

class ServiceSoak : public ::testing::TestWithParam<int> {};

TEST_P(ServiceSoak, ConcurrentClientsGetByteIdenticalOutputs) {
  const int jobs = GetParam();
  service::ServiceOptions opt;
  opt.jobs = jobs;
  opt.executors = 4;
  TestService ts("soak_j" + std::to_string(jobs), opt);

  // Three distinct programs; every client compiles all of them, twice.
  const std::vector<std::string> programs = {
      bench::fan_out(8, 64), bench::fan_out(4, 64),
      bench::fan_out(8, 64, /*edited_leaf=*/2)};
  std::vector<std::string> references;
  for (const auto& src : programs) references.push_back(local_spmd(src));

  constexpr int kClients = 5;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = ts.client(60000);
      auto copts = wire_options();
      copts.deadline_ms = 60000;  // fair FIFO: nobody may starve past this
      for (int round = 0; round < 2; ++round) {
        for (size_t p = 0; p < programs.size(); ++p) {
          const size_t idx = (static_cast<size_t>(c) + p) % programs.size();
          std::string reason;
          auto r = client.compile(programs[idx], copts, &reason);
          if (!r ||
              static_cast<remote::CompileStatus>(r->status) !=
                  remote::CompileStatus::Ok ||
              r->spmd != references[idx]) {
            ADD_FAILURE() << "client " << c << " round " << round
                          << " program " << idx << ": "
                          << (r ? "wrong output/status" : reason);
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  const std::string json = ts.svc->metrics_json();
  EXPECT_EQ(json_uint(json, "requests"), kClients * 2u * 3u);
  EXPECT_EQ(json_uint(json, "ok"), kClients * 2u * 3u);
  EXPECT_EQ(json_uint(json, "deadline_expired"), 0u);
  EXPECT_EQ(json_uint(json, "rejected"), 0u);
}

INSTANTIATE_TEST_SUITE_P(Jobs, ServiceSoak, ::testing::Values(1, 4));

// ---------------------------------------------------------------------------
// ThreadPool: the concurrent-batch contract the shared pool rests on
// ---------------------------------------------------------------------------

TEST(ThreadPool, ConcurrentBatchesFromManyThreadsRunEveryIndexOnce) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 6; ++t)
    threads.emplace_back([&] {
      for (int round = 0; round < 25; ++round)
        pool.parallel_for(64, [&](size_t) { sum.fetch_add(1); });
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(sum.load(), 6l * 25 * 64);
}

TEST(ThreadPool, CallerCompletesItsBatchWhileWorkersAreBusyElsewhere) {
  ThreadPool pool(1);
  std::atomic<bool> hold{true};
  std::atomic<int> hogs_running{0};
  std::thread hog([&] {
    pool.parallel_for(2, [&](size_t) {
      hogs_running.fetch_add(1);
      while (hold.load()) std::this_thread::yield();
    });
  });
  // Both hog indices spinning = the lone worker is pinned.
  while (hogs_running.load() < 2) std::this_thread::yield();

  std::atomic<long> sum{0};
  pool.parallel_for(32, [&](size_t) { sum.fetch_add(1); });
  EXPECT_EQ(sum.load(), 32);  // completed with zero worker help

  hold.store(false);
  hog.join();
}

TEST(ThreadPool, ExceptionsStayWithinTheirOwnBatch) {
  ThreadPool pool(2);
  std::atomic<long> clean_sum{0};
  std::thread clean([&] {
    for (int round = 0; round < 10; ++round)
      pool.parallel_for(32, [&](size_t) { clean_sum.fetch_add(1); });
  });
  for (int round = 0; round < 10; ++round) {
    EXPECT_THROW(
        pool.parallel_for(8,
                          [&](size_t i) {
                            if (i == 3) throw std::runtime_error("batch");
                          }),
        std::runtime_error);
  }
  clean.join();
  EXPECT_EQ(clean_sum.load(), 10l * 32);
}

}  // namespace
}  // namespace fortd
