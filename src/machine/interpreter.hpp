// SPMD interpreter for the simulated machine: one ProcessorContext per
// virtual processor executes the generated program on the shared EvalCore
// (src/runtime/eval.hpp), exchanging messages through the Network and
// advancing a logical clock according to the CostModel. This is the
// `sim` ExecutionBackend's per-processor body; the evaluation semantics
// live in EvalCore, only the message transport and the cost model are
// simulator-specific.
#pragma once

#include <memory>

#include "codegen/distribution.hpp"
#include "machine/cost_model.hpp"
#include "machine/network.hpp"
#include "runtime/eval.hpp"

namespace fortd {

class Machine;

class ProcessorContext : public EvalCore {
 public:
  ProcessorContext(Machine& machine,
                   std::shared_ptr<const LoweredProgram> program, int my_p);

 protected:
  void exec_send(const LStmt& s, Frame& frame) override;
  void exec_recv(const LStmt& s, Frame& frame) override;
  void exec_broadcast(const LStmt& s, Frame& frame) override;
  void exec_allreduce(const LStmt& s, Frame& frame) override;
  /// Collective redistribution: pull newly owned elements from previous
  /// owners' copies and charge the remap cost. `from` null = initial
  /// labeling (no data motion).
  void apply_redistribution(ArrayStorage* arr, const DecompSpec* from,
                            const DecompSpec& to) override;

 private:
  Machine& machine_;
};

}  // namespace fortd
