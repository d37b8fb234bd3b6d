// The SPMD engine behind ExecutionBackend: really-concurrent execution,
// one OS thread per SPMD process, exchanging messages through rendezvous
// channels (src/runtime/channel.hpp). Broadcasts fan out from the root and
// reductions gather to process 0 and fan back out; redistribution moves
// data through a globally ordered pairwise exchange, which is
// rendezvous-safe by construction (the lexicographically smallest
// unfinished pair can always progress).
//
// Logical clocks. Each process charges its EvalCore events and its
// messages with the CostModel, in its own program order: a send stamps
// the message with arrival = clock + wire_time(bytes) (times the tree
// depth for broadcasts and the reduction fan-out) and then charges the
// send overhead; a receive sets clock = max(clock + recv_overhead,
// arrival); a remap takes the maximum clock at the barrier before and
// after its exchange and charges the moved bytes in aggregate. No charge
// depends on thread timing, so the clocks and sim_time_us are the same
// doubles on every run.
//
// Processor bodies run on the shared ThreadPool when one is supplied
// (grown so workers + caller cover every process — bodies block on each
// other) or on plain std::threads otherwise. A failing process poisons
// the fabric so its peers unwind instead of waiting on a rendezvous that
// can never complete; the first real failure is rethrown.
#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "runtime/backend.hpp"
#include "support/thread_pool.hpp"

namespace fortd {

namespace {

using runtime::ChannelAborted;
using runtime::ChannelDeadlock;
using runtime::ChannelFabric;
using runtime::RtMessage;

class SpmdProcess;

/// Everything the P processes share for one execution.
struct RunState {
  RunState(int nprocs, const RuntimeOptions& options)
      : nprocs(nprocs),
        deadline_ms(options.channel.deadline_ms),
        fabric(nprocs, options.channel) {}

  const int nprocs;
  const int deadline_ms;
  ChannelFabric fabric;
  std::vector<std::unique_ptr<SpmdProcess>> procs;

  // Collective barrier (used by redistribution).
  std::mutex bar_mu;
  std::condition_variable bar_cv;
  int bar_waiting = 0;
  long bar_generation = 0;
  double bar_max = 0.0;
  double bar_release = 0.0;

  // Remap accounting (counted once per collective by process 0).
  std::mutex stat_mu;
  int64_t remaps = 0;
  int64_t remap_bytes = 0;

  // First-failure capture: the lowest-index *real* exception wins over
  // the ChannelAborted cascade the poison triggers in its peers.
  std::mutex err_mu;
  std::vector<std::exception_ptr> errors;
  std::vector<bool> error_is_abort;

  /// Wait until every process arrives; returns the maximum of the clocks
  /// they arrived with.
  double barrier(double my_clock) {
    std::unique_lock<std::mutex> lock(bar_mu);
    const long my_generation = bar_generation;
    bar_max = std::max(bar_max, my_clock);
    if (++bar_waiting == nprocs) {
      // The release value stays valid for this generation: the next
      // barrier cannot complete (and overwrite it) until every waiter of
      // this one has re-entered.
      bar_release = bar_max;
      bar_max = 0.0;
      bar_waiting = 0;
      ++bar_generation;
      bar_cv.notify_all();
      return bar_release;
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(
                              deadline_ms > 0 ? deadline_ms : 0);
    while (bar_generation == my_generation) {
      if (fabric.poisoned())
        throw ChannelAborted("aborted while waiting at a remap barrier");
      if (deadline_ms <= 0) {
        bar_cv.wait(lock);
        continue;
      }
      if (bar_cv.wait_until(lock, deadline) == std::cv_status::timeout &&
          bar_generation == my_generation && !fabric.poisoned())
        throw ChannelDeadlock(
            "deadlock: a remap barrier made no progress for " +
            std::to_string(deadline_ms) + " ms");
    }
    return bar_release;
  }

  void poison(const std::string& why) {
    fabric.poison(why);
    {
      std::lock_guard<std::mutex> g(bar_mu);
    }
    bar_cv.notify_all();
  }

  void count_remap(int64_t bytes) {
    std::lock_guard<std::mutex> g(stat_mu);
    ++remaps;
    remap_bytes += bytes;
  }

  void record_failure(int p, std::exception_ptr e, bool is_abort,
                      const std::string& why) {
    {
      std::lock_guard<std::mutex> g(err_mu);
      errors[static_cast<size_t>(p)] = std::move(e);
      error_is_abort[static_cast<size_t>(p)] = is_abort;
    }
    if (!is_abort) poison("P" + std::to_string(p) + " failed: " + why);
  }

  void rethrow_first_failure() {
    std::lock_guard<std::mutex> g(err_mu);
    // Prefer the lowest-index real failure; only if every captured error
    // is an abort echo (cannot happen without a real failure first, but
    // stay safe) rethrow the lowest-index one.
    for (size_t p = 0; p < errors.size(); ++p)
      if (errors[p] && !error_is_abort[p]) std::rethrow_exception(errors[p]);
    for (size_t p = 0; p < errors.size(); ++p)
      if (errors[p]) std::rethrow_exception(errors[p]);
  }
};

class SpmdProcess : public EvalCore {
 public:
  SpmdProcess(RunState& rt, std::shared_ptr<const LoweredProgram> program,
              int my_p, int n_procs, const CostModel& cost)
      : EvalCore(std::move(program), my_p, n_procs, cost.event_costs()),
        rt_(rt),
        cost_(cost) {}

 protected:
  void exec_send(const LStmt& s, Frame& frame) override {
    int dst = static_cast<int>(eval(s.peer(), frame).as_int());
    ArrayStorage* arr = array_at(frame, s.array);
    Rsd section = eval_section(s.section, frame);
    if (section.empty()) return;  // edge processor with a short/empty block

    RtMessage msg = message(s, pack_section(arr, section), 1);
    const int64_t bytes = bytes_of(msg);
    rt_.fabric.send(my_p_, dst, std::move(msg));
    charge_sends(1, bytes, 1);
  }

  void exec_recv(const LStmt& s, Frame& frame) override {
    int src = static_cast<int>(eval(s.peer(), frame).as_int());
    ArrayStorage* arr = array_at(frame, s.array);
    Rsd section = eval_section(s.section, frame);
    if (section.empty()) return;  // matches the sender's empty-section skip

    RtMessage msg = receive(src);
    unpack_section(arr, section, msg.payload, "recv of " + s.src->msg_array);
  }

  void exec_broadcast(const LStmt& s, Frame& frame) override {
    const int P = n_procs_;
    int root = static_cast<int>(eval(s.peer(), frame).as_int());
    const bool scalar = s.section.empty();
    ArrayStorage* arr = scalar ? nullptr : array_at(frame, s.array);
    Rsd section = scalar ? Rsd{} : eval_section(s.section, frame);

    if (P == 1) return;
    if (my_p_ == root) {
      const int depth = cost_.bcast_depth(P);
      std::vector<double> payload;
      if (scalar) {
        Value* cell = frame.scalars[static_cast<size_t>(s.scalar)];
        payload.push_back(cell->as_real());
      } else {
        payload = pack_section(arr, section);
      }
      const RtMessage proto = message(s, std::move(payload), depth);
      for (int p = 0; p < P; ++p)
        if (p != my_p_) rt_.fabric.send(my_p_, p, proto);
      charge_sends(P - 1, bytes_of(proto), depth);
    } else {
      RtMessage msg = receive(root);
      if (scalar) {
        Value* cell = frame.scalars[static_cast<size_t>(s.scalar)];
        store_bcast_scalar(cell, msg.payload.at(0));
      } else {
        unpack_section(arr, section, msg.payload,
                       "broadcast of " + s.src->msg_array);
      }
    }
  }

  void exec_allreduce(const LStmt& s, Frame& frame) override {
    // Gather-to-root + broadcast.
    const int P = n_procs_;
    Value* cell = frame.scalars[static_cast<size_t>(s.scalar)];
    if (P == 1) return;
    auto combine = [&](double acc, double v) {
      if (s.reduce == ReduceOp::Min) return std::min(acc, v);
      if (s.reduce == ReduceOp::Max) return std::max(acc, v);
      return acc + v;
    };
    if (my_p_ == 0) {
      double acc = cell->as_real();
      for (int p = 1; p < P; ++p) acc = combine(acc, receive(p).payload.at(0));
      *cell = Value::of_real(acc);
      const int depth = cost_.bcast_depth(P);
      const RtMessage proto = message(s, {acc}, depth);
      for (int p = 1; p < P; ++p) rt_.fabric.send(my_p_, p, proto);
      charge_sends(P - 1, bytes_of(proto), depth);
    } else {
      RtMessage up = message(s, {cell->as_real()}, 1);
      const int64_t bytes = bytes_of(up);
      rt_.fabric.send(my_p_, 0, std::move(up));
      charge_sends(1, bytes, 1);
      *cell = Value::of_real(receive(0).payload.at(0));
    }
  }

  void apply_redistribution(ArrayStorage* arr, const DecompSpec* from_spec,
                            const DecompSpec& to_spec) override {
    const int P = n_procs_;
    note_distribution(arr, to_spec);
    if (!from_spec) return;  // initial labeling: no data motion

    // Remapping is collective: no process starts exchanging against a
    // peer still executing pre-remap code.
    stats_.clock_us = rt_.barrier(stats_.clock_us);

    // Every process derives the same exchange plan from the two
    // distributions, so peers agree on payload layout without a header.
    const RemapPlan plan = plan_remap(*arr, *from_spec, to_spec);
    const int64_t moved_bytes = plan.moved * cost_.elem_bytes;

    if (moved_bytes > 0) {
      // Globally ordered pairwise exchange: all processes walk the pairs
      // (i, j), i < j, in lexicographic order; within a pair the lower
      // rank sends before receiving and the higher receives before
      // sending. The lexicographically smallest unfinished pair can
      // always progress, so the schedule is rendezvous-deadlock-free.
      auto send_elems = [&](int dst, const std::vector<int64_t>& offs) {
        if (offs.empty()) return;
        RtMessage msg;
        msg.src = my_p_;
        msg.tag = arr->name + "$remap";
        msg.payload.reserve(offs.size());
        for (int64_t off : offs)
          msg.payload.push_back(arr->data[static_cast<size_t>(off)]);
        rt_.fabric.send(my_p_, dst, std::move(msg));
      };
      auto recv_elems = [&](int src, const std::vector<int64_t>& offs) {
        if (offs.empty()) return;
        RtMessage msg = rt_.fabric.recv(my_p_, src);
        if (msg.payload.size() != offs.size())
          throw std::runtime_error("remap exchange size mismatch on " +
                                   arr->name);
        for (size_t i = 0; i < offs.size(); ++i)
          arr->data[static_cast<size_t>(offs[i])] = msg.payload[i];
      };
      for (int i = 0; i < P; ++i) {
        for (int j = i + 1; j < P; ++j) {
          if (i == my_p_) {
            send_elems(j, plan.out[static_cast<size_t>(j)]);
            recv_elems(j, plan.in[static_cast<size_t>(j)]);
          } else if (j == my_p_) {
            recv_elems(i, plan.in[static_cast<size_t>(i)]);
            send_elems(i, plan.out[static_cast<size_t>(i)]);
          }
        }
      }
      // Charge: each processor exchanges roughly 1/P of the moved data.
      const double share = static_cast<double>(moved_bytes) / P;
      stats_.clock_us +=
          2.0 * (cost_.alpha_us + cost_.beta_us_per_byte * share) +
          cost_.send_overhead_us + cost_.recv_overhead_us;
      if (my_p_ == 0) rt_.count_remap(moved_bytes);
    }
    // Second barrier: no process races into post-remap communication
    // while a peer is still mid-exchange.
    stats_.clock_us = rt_.barrier(stats_.clock_us);
  }

 private:
  /// A message stamped with its arrival time on the modeled machine:
  /// `depth` wire times after the sender's current clock.
  RtMessage message(const LStmt& s, std::vector<double> payload,
                    int depth) const {
    RtMessage msg;
    msg.src = my_p_;
    msg.tag = s.src->msg_array;
    msg.payload = std::move(payload);
    msg.arrival_us = stats_.clock_us + cost_.wire_time(bytes_of(msg)) * depth;
    return msg;
  }

  int64_t bytes_of(const RtMessage& msg) const {
    return static_cast<int64_t>(msg.payload.size()) * cost_.elem_bytes;
  }

  /// Sender-side tally of `count` messages of `bytes` each, occupying the
  /// sender for `depth` send overheads.
  void charge_sends(int count, int64_t bytes, int depth) {
    stats_.clock_us += cost_.send_overhead_us * depth;
    stats_.sends += count;
    stats_.sent_bytes += count * bytes;
  }

  /// Blocking receive from `src`, with the receiver-side tally: the clock
  /// waits for the message's arrival, and the bytes are counted from the
  /// payload that came.
  RtMessage receive(int src) {
    RtMessage msg = rt_.fabric.recv(my_p_, src);
    stats_.clock_us =
        std::max(stats_.clock_us + cost_.recv_overhead_us, msg.arrival_us);
    ++stats_.recvs;
    stats_.recvd_bytes += bytes_of(msg);
    return msg;
  }

  RunState& rt_;
  const CostModel cost_;
};

}  // namespace

ExecutionBackend::ExecutionBackend(RuntimeOptions options)
    : options_(std::move(options)) {}

ExecResult ExecutionBackend::execute(const SpmdProgram& program) {
  const int P = program.options.n_procs;
  auto state = std::make_shared<RunState>(P, options_);
  state->errors.resize(static_cast<size_t>(P));
  state->error_is_abort.resize(static_cast<size_t>(P));
  state->procs.reserve(static_cast<size_t>(P));
  // Lowered once, read by every process.
  const auto lowered =
      std::make_shared<const LoweredProgram>(lower_program(program.ast));
  for (int p = 0; p < P; ++p)
    state->procs.push_back(std::make_unique<SpmdProcess>(
        *state, lowered, p, P, options_.cost));

  auto body = [&](size_t p) {
    try {
      state->procs[p]->run();
    } catch (const ChannelAborted& e) {
      state->record_failure(static_cast<int>(p), std::current_exception(),
                            /*is_abort=*/true, e.what());
    } catch (const std::exception& e) {
      state->record_failure(static_cast<int>(p), std::current_exception(),
                            /*is_abort=*/false, e.what());
    } catch (...) {
      state->record_failure(static_cast<int>(p), std::current_exception(),
                            /*is_abort=*/false, "unknown error");
    }
  };

  const auto start = std::chrono::steady_clock::now();
  if (options_.pool) {
    // Process bodies block on each other (rendezvous, barriers), so the
    // batch deadlocks unless workers + the caller cover every process.
    options_.pool->ensure_workers(P - 1);
    options_.pool->parallel_for(static_cast<size_t>(P), body);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(P));
    for (int p = 0; p < P; ++p)
      threads.emplace_back([&body, p] { body(static_cast<size_t>(p)); });
    for (auto& t : threads) t.join();
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  state->rethrow_first_failure();

  ExecResult result;
  result.backend = "threads";
  result.n_procs = P;
  result.wall_ms = wall_ms;
  for (int p = 0; p < P; ++p) {
    const ProcStats& st = state->procs[static_cast<size_t>(p)]->stats();
    result.per_proc.push_back(st);
    result.sim_time_us = std::max(result.sim_time_us, st.clock_us);
    result.messages += st.sends;
    result.bytes += st.sent_bytes;
  }
  result.remaps_executed = state->remaps;
  result.remap_bytes = state->remap_bytes;
  for (const auto& proc : state->procs) result.contexts.push_back(proc.get());
  result.keepalive = state;
  return result;
}

}  // namespace fortd
