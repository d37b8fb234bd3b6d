#include "runtime/threaded_backend.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "support/thread_pool.hpp"

namespace fortd {

namespace {

using runtime::ChannelAborted;
using runtime::ChannelDeadlock;
using runtime::ChannelFabric;
using runtime::RtMessage;

class ThreadedProcess;

/// Everything the P processes share for one execution.
struct RunState {
  RunState(int nprocs, const RuntimeOptions& options)
      : nprocs(nprocs),
        deadline_ms(options.channel.deadline_ms),
        fabric(nprocs, options.channel) {}

  const int nprocs;
  const int deadline_ms;
  ChannelFabric fabric;
  std::vector<std::unique_ptr<ThreadedProcess>> procs;

  // Collective barrier (used by redistribution).
  std::mutex bar_mu;
  std::condition_variable bar_cv;
  int bar_waiting = 0;
  long bar_generation = 0;

  // Remap accounting, mirroring the simulator's (counted once per
  // collective by process 0).
  std::mutex stat_mu;
  int64_t remaps = 0;
  int64_t remap_bytes = 0;

  // First-failure capture: the lowest-index *real* exception wins over
  // the ChannelAborted cascade the poison triggers in its peers.
  std::mutex err_mu;
  std::vector<std::exception_ptr> errors;
  std::vector<bool> error_is_abort;

  void barrier() {
    std::unique_lock<std::mutex> lock(bar_mu);
    const long my_generation = bar_generation;
    if (++bar_waiting == nprocs) {
      bar_waiting = 0;
      ++bar_generation;
      bar_cv.notify_all();
      return;
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

class ThreadedProcess : public EvalCore {
 public:
  ThreadedProcess(RunState& rt, std::shared_ptr<const LoweredProgram> program,
                  int my_p, int n_procs, int elem_bytes)
      : EvalCore(std::move(program), my_p, n_procs),
        rt_(rt),
        elem_bytes_(elem_bytes) {}

 protected:
  void exec_send(const LStmt& s, Frame& frame) override {
    int dst = static_cast<int>(eval(s.peer(), frame).as_int());
    ArrayStorage* arr = array_at(frame, s.array);
    Rsd section = eval_section(s.section, frame);
    if (section.empty()) return;  // edge processor with a short/empty block

    RtMessage msg;
    msg.src = my_p_;
    msg.tag = s.src->msg_array;
    msg.payload = pack_section(arr, section);
    ++stats_.sends;
    stats_.sent_bytes += static_cast<int64_t>(msg.payload.size()) * elem_bytes_;
    rt_.fabric.send(my_p_, dst, std::move(msg));
  }

  void exec_recv(const LStmt& s, Frame& frame) override {
    int src = static_cast<int>(eval(s.peer(), frame).as_int());
    ArrayStorage* arr = array_at(frame, s.array);
    Rsd section = eval_section(s.section, frame);
    if (section.empty()) return;  // matches the sender's empty-section skip

    RtMessage msg = rt_.fabric.recv(my_p_, src);
    unpack_section(arr, section, msg.payload, "recv of " + s.src->msg_array);
    ++stats_.recvs;
    stats_.recvd_bytes +=
        static_cast<int64_t>(msg.payload.size()) * elem_bytes_;
  }

  void exec_broadcast(const LStmt& s, Frame& frame) override {
    const int P = n_procs_;
    int root = static_cast<int>(eval(s.peer(), frame).as_int());
    const bool scalar = s.section.empty();
    ArrayStorage* arr = scalar ? nullptr : array_at(frame, s.array);
    Rsd section = scalar ? Rsd{} : eval_section(s.section, frame);

    if (P == 1) return;
    if (my_p_ == root) {
      RtMessage proto;
      proto.src = my_p_;
      proto.tag = s.src->msg_array;
      if (scalar) {
        Value* cell = frame.scalars[static_cast<size_t>(s.scalar)];
        proto.payload.push_back(cell->as_real());
      } else {
        proto.payload = pack_section(arr, section);
      }
      const int64_t bytes =
          static_cast<int64_t>(proto.payload.size()) * elem_bytes_;
      for (int p = 0; p < P; ++p) {
        if (p == my_p_) continue;
        RtMessage msg = proto;
        rt_.fabric.send(my_p_, p, std::move(msg));
      }
      stats_.sends += P - 1;
      stats_.sent_bytes += (P - 1) * bytes;
    } else {
      RtMessage msg = rt_.fabric.recv(my_p_, root);
      if (scalar) {
        Value* cell = frame.scalars[static_cast<size_t>(s.scalar)];
        store_bcast_scalar(cell, msg.payload.at(0));
      } else {
        unpack_section(arr, section, msg.payload,
                       "broadcast of " + s.src->msg_array);
      }
      ++stats_.recvs;
      stats_.recvd_bytes +=
          static_cast<int64_t>(msg.payload.size()) * elem_bytes_;
    }
  }

  void exec_allreduce(const LStmt& s, Frame& frame) override {
    // Gather-to-root + broadcast, exactly the simulator's realization so
    // observed message counts match its predictions.
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
      for (int p = 1; p < P; ++p) {
        RtMessage msg = rt_.fabric.recv(my_p_, p);
        acc = combine(acc, msg.payload.at(0));
        ++stats_.recvs;
        stats_.recvd_bytes += elem_bytes_;
      }
      *cell = Value::of_real(acc);
      RtMessage proto;
      proto.src = my_p_;
      proto.tag = s.src->msg_array;
      proto.payload = {acc};
      for (int p = 1; p < P; ++p) rt_.fabric.send(my_p_, p, proto);
      stats_.sends += P - 1;
      stats_.sent_bytes += (P - 1) * static_cast<int64_t>(elem_bytes_);
    } else {
      RtMessage up;
      up.src = my_p_;
      up.tag = s.src->msg_array;
      up.payload = {cell->as_real()};
      rt_.fabric.send(my_p_, 0, std::move(up));
      ++stats_.sends;
      stats_.sent_bytes += elem_bytes_;
      RtMessage down = rt_.fabric.recv(my_p_, 0);
      *cell = Value::of_real(down.payload.at(0));
      ++stats_.recvs;
      stats_.recvd_bytes += elem_bytes_;
    }
  }

  void apply_redistribution(ArrayStorage* arr, const DecompSpec* from_spec,
                            const DecompSpec& to_spec) override {
    const int P = n_procs_;
    note_distribution(arr, to_spec);
    if (!from_spec) return;  // initial labeling: no data motion

    // Remapping is collective: no process starts exchanging against a
    // peer still executing pre-remap code.
    rt_.barrier();

    // Every process derives the same exchange plan from the two
    // distributions, so peers agree on payload layout without a header.
    const RemapPlan plan = plan_remap(*arr, *from_spec, to_spec);
    const int64_t moved_bytes = plan.moved * elem_bytes_;

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
      if (my_p_ == 0) rt_.count_remap(moved_bytes);
    }
    // Second barrier: no process races into post-remap communication
    // while a peer is still mid-exchange.
    rt_.barrier();
  }

 private:
  RunState& rt_;
  const int elem_bytes_;
};

}  // namespace

ThreadedBackend::ThreadedBackend(RuntimeOptions options)
    : options_(std::move(options)) {}

ExecResult ThreadedBackend::execute(const SpmdProgram& program) {
  const int P = program.options.n_procs;
  auto state = std::make_shared<RunState>(P, options_);
  state->errors.resize(static_cast<size_t>(P));
  state->error_is_abort.resize(static_cast<size_t>(P));
  state->procs.reserve(static_cast<size_t>(P));
  // Lowered once, read by every process.
  const auto lowered =
      std::make_shared<const LoweredProgram>(lower_program(program.ast));
  for (int p = 0; p < P; ++p)
    state->procs.push_back(std::make_unique<ThreadedProcess>(
        *state, lowered, p, P, options_.elem_bytes));

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
  result.backend = name();
  result.n_procs = P;
  result.wall_ms = wall_ms;
  for (int p = 0; p < P; ++p) {
    const ProcStats& st = state->procs[static_cast<size_t>(p)]->stats();
    result.per_proc.push_back(st);
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
