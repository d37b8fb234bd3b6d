#include "runtime/backend.hpp"

#include <chrono>
#include <stdexcept>

namespace fortd {

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

std::unique_ptr<ExecutionBackend> make_backend(BackendKind,
                                               const RuntimeOptions& options) {
  return std::make_unique<ExecutionBackend>(options);
}

ExecResult simulate(const SpmdProgram& program, CostModel cost) {
  RuntimeOptions options;
  options.cost = cost;
  return ExecutionBackend(options).execute(program);
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
