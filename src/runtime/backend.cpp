#include "runtime/backend.hpp"

#include <chrono>
#include <stdexcept>

#include "machine/simulator.hpp"
#include "runtime/threaded_backend.hpp"

namespace fortd {

std::optional<BackendKind> parse_backend_kind(const std::string& name) {
  if (name == "sim" || name == "simulator") return BackendKind::Simulator;
  if (name == "threads" || name == "threaded") return BackendKind::Threaded;
  return std::nullopt;
}

const char* backend_kind_name(BackendKind kind) {
  switch (kind) {
    case BackendKind::Simulator: return "sim";
    case BackendKind::Threaded: return "threads";
  }
  return "?";
}

std::vector<double> ExecResult::gather(const std::string& array) const {
  if (contexts.empty()) throw std::runtime_error("gather: no contexts");
  return gather_array(contexts, array, nullptr);
}

std::vector<double> ExecResult::gather(const std::string& array,
                                       const DecompSpec& spec) const {
  if (contexts.empty()) throw std::runtime_error("gather: no contexts");
  return gather_array(contexts, array, &spec);
}

double ExecResult::gather_scalar(const std::string& name) const {
  if (contexts.empty()) throw std::runtime_error("gather_scalar: no contexts");
  const Value* cell = contexts.front()->main_scalar(name);
  if (!cell)
    throw std::runtime_error("gather_scalar: unknown scalar '" + name + "'");
  return cell->as_real();
}

std::vector<std::string> ExecResult::main_arrays() const {
  if (contexts.empty()) return {};
  return contexts.front()->main_array_names();
}

namespace {

/// The logical-clock Machine simulator behind the ExecutionBackend
/// interface. ExecResult normalization: `messages`/`bytes` count only the
/// generated communication (sum of per-processor sends), never the
/// aggregate remap traffic the Network also books — that keeps the two
/// backends' headline numbers directly comparable.
class SimulatorBackend : public ExecutionBackend {
 public:
  explicit SimulatorBackend(RuntimeOptions options)
      : options_(std::move(options)) {}

  std::string name() const override { return "sim"; }

  ExecResult execute(const SpmdProgram& program) override {
    Machine machine(CostModel::ipsc860(), options_.pool);
    const auto start = std::chrono::steady_clock::now();
    RunResult run = machine.run(program);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();

    ExecResult result;
    result.backend = name();
    result.n_procs = run.n_procs;
    result.wall_ms = wall_ms;
    result.sim_time_us = run.sim_time_us;
    for (const ProcStats& st : run.per_proc) {
      result.per_proc.push_back(st);
      result.messages += st.sends;
      result.bytes += st.sent_bytes;
    }
    result.remaps_executed = run.remaps_executed;
    result.remap_bytes = run.remap_bytes;
    for (const auto& ctx : *run.contexts) result.contexts.push_back(ctx.get());
    result.keepalive = run.contexts;
    return result;
  }

 private:
  RuntimeOptions options_;
};

/// Single-process evaluator for the *original* program: no communication
/// statements exist pre-codegen, so every comm hook is a hard error, and
/// redistribution reduces to relabeling (there is no second copy to move
/// data from).
class SerialProcess : public EvalCore {
 public:
  explicit SerialProcess(std::shared_ptr<const LoweredProgram> program)
      : EvalCore(std::move(program), 0, 1) {}

 protected:
  [[noreturn]] void comm_in_serial(const char* what) {
    throw std::logic_error(std::string("serial reference executed a ") + what +
                           " — the input is not a pre-SPMD program");
  }
  void exec_send(const LStmt&, Frame&) override { comm_in_serial("send"); }
  void exec_recv(const LStmt&, Frame&) override { comm_in_serial("recv"); }
  void exec_broadcast(const LStmt&, Frame&) override {
    comm_in_serial("broadcast");
  }
  void exec_allreduce(const LStmt&, Frame&) override {
    comm_in_serial("reduction");
  }
  void apply_redistribution(ArrayStorage* arr, const DecompSpec*,
                            const DecompSpec& to) override {
    note_distribution(arr, to);
  }
};

}  // namespace

std::unique_ptr<ExecutionBackend> make_backend(BackendKind kind,
                                               const RuntimeOptions& options) {
  switch (kind) {
    case BackendKind::Simulator:
      return std::make_unique<SimulatorBackend>(options);
    case BackendKind::Threaded:
      return std::make_unique<ThreadedBackend>(options);
  }
  throw std::logic_error("make_backend: unknown backend kind");
}

ExecResult run_serial_reference(const SourceProgram& ast) {
  auto proc = std::make_shared<SerialProcess>(
      std::make_shared<const LoweredProgram>(lower_program(ast)));
  const auto start = std::chrono::steady_clock::now();
  proc->run();
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - start)
                             .count();

  ExecResult result;
  result.backend = "serial";
  result.n_procs = 1;
  result.wall_ms = wall_ms;
  result.per_proc.push_back(proc->stats());
  result.contexts.push_back(proc.get());
  result.keepalive = proc;
  return result;
}

}  // namespace fortd
