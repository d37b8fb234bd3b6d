// The SPMD execution engine.
//
// An ExecutionBackend runs a compiled SpmdProgram end to end and reports
// what happened: final array contents (gatherable per element owner),
// per-processor message counts and payload bytes, remap traffic, and the
// predicted time on the modeled machine. There is one engine
// (src/runtime/threaded_backend.cpp): one OS thread per SPMD process,
// rendezvous channels with real blocking send/recv, broadcasts,
// reductions and message-based redistribution. Each process keeps a
// logical clock priced by RuntimeOptions::cost: every message carries its
// sender's arrival time, a receive advances the receiver's clock to it,
// and a remap barrier advances every clock to the maximum. Those clocks
// give sim_time_us, the paper's Fig. 11/16/17 time on the iPSC/860
// model; wall_ms is the real time the execution took.
//
// The serial reference (run_serial_reference) interprets the original,
// pre-SPMD program on the same EvalCore, so the values both compute are
// bit-identical.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "codegen/spmd.hpp"
#include "runtime/channel.hpp"
#include "runtime/eval.hpp"

namespace fortd {

class ThreadPool;

/// Both names build the same engine; they are kept for callers that
/// distinguish a traffic-and-time prediction from a timed execution.
enum class BackendKind { Simulator, Threaded };

struct RuntimeOptions {
  /// Prices the logical clocks and sizes payloads (elem_bytes per REAL).
  CostModel cost = CostModel::ipsc860();
  /// Channel deadline / fault injection.
  runtime::ChannelOptions channel;
  /// Worker pool to run processor bodies on; null spawns plain threads.
  ThreadPool* pool = nullptr;
};

/// What one backend execution observed.
struct ExecResult {
  std::string backend;
  int n_procs = 1;
  double wall_ms = 0.0;      // real time spent inside execute()
  double sim_time_us = 0.0;  // predicted time: the maximum logical clock

  // Point-to-point + collective traffic from the generated communication
  // statements (excludes redistribution exchanges, reported separately —
  // the cost model prices those in aggregate, not as messages).
  int64_t messages = 0;  // sum of per_proc sends
  int64_t bytes = 0;     // payload bytes of those messages
  int64_t remaps_executed = 0;  // data-moving redistributions
  int64_t remap_bytes = 0;      // elements moved * elem_bytes

  std::vector<ProcStats> per_proc;

  /// The authoritative final contents of a main-program array, assembled
  /// from each element's owner (context 0's run-time registry supplies
  /// the distribution unless one is passed explicitly).
  std::vector<double> gather(const std::string& array) const;
  std::vector<double> gather(const std::string& array,
                             const DecompSpec& spec) const;
  double gather_scalar(const std::string& name) const;
  /// Main-program array names, sorted (the diffable surface).
  std::vector<std::string> main_arrays() const;

  // Internal: kept alive for gather().
  std::shared_ptr<void> keepalive;
  std::vector<const EvalCore*> contexts;
};

/// The engine; it holds only its options.
class ExecutionBackend {
 public:
  explicit ExecutionBackend(RuntimeOptions options = {});
  /// Run `program` on program.options.n_procs processes to completion.
  /// Throws on execution errors (including detected deadlocks).
  ExecResult execute(const SpmdProgram& program);

 private:
  RuntimeOptions options_;
};

std::unique_ptr<ExecutionBackend> make_backend(BackendKind kind,
                                               const RuntimeOptions& options =
                                                   RuntimeOptions{});

/// One-call helper: execute `program` on the engine priced by `cost`.
ExecResult simulate(const SpmdProgram& program,
                    CostModel cost = CostModel::ipsc860());

/// Execute the *original* (pre-SPMD) program on a single process with no
/// communication — the serial reference the differential harness diffs
/// parallel executions against (the ast must outlive the result).
ExecResult run_serial_reference(const SourceProgram& ast);

}  // namespace fortd
