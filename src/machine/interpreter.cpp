#include "machine/interpreter.hpp"

#include <algorithm>
#include <cmath>

#include "machine/simulator.hpp"

namespace fortd {

ProcessorContext::ProcessorContext(
    Machine& machine, std::shared_ptr<const LoweredProgram> program, int my_p)
    : EvalCore(std::move(program), my_p, machine.n_procs(),
               EventCosts{machine.cost_model().guard_us,
                          machine.cost_model().loop_overhead_us,
                          machine.cost_model().flop_us,
                          machine.cost_model().call_overhead_us}),
      machine_(machine) {}

void ProcessorContext::exec_send(const LStmt& s, Frame& frame) {
  const CostModel& cm = machine_.cost_model();
  int dst = static_cast<int>(eval(s.peer(), frame).as_int());
  ArrayStorage* arr = array_at(frame, s.array);
  Rsd section = eval_section(s.section, frame);
  if (section.empty()) return;  // edge processor with a short/empty block

  SimMessage msg;
  msg.src = my_p_;
  msg.tag = s.src->msg_array;
  msg.payload = pack_section(arr, section);
  msg.bytes = static_cast<int64_t>(msg.payload.size()) * cm.elem_bytes;
  msg.send_time_us = stats_.clock_us;
  msg.arrival_us = stats_.clock_us + cm.wire_time(msg.bytes);
  stats_.clock_us += cm.send_overhead_us;
  ++stats_.sends;
  stats_.sent_bytes += msg.bytes;
  machine_.network().send(my_p_, dst, std::move(msg));
}

void ProcessorContext::exec_recv(const LStmt& s, Frame& frame) {
  const CostModel& cm = machine_.cost_model();
  int src = static_cast<int>(eval(s.peer(), frame).as_int());
  ArrayStorage* arr = array_at(frame, s.array);
  Rsd section = eval_section(s.section, frame);
  if (section.empty()) return;  // matches the sender's empty-section skip

  SimMessage msg = machine_.network().recv(my_p_, src);
  unpack_section(arr, section, msg.payload, "recv of " + s.src->msg_array);
  stats_.clock_us =
      std::max(stats_.clock_us + cm.recv_overhead_us, msg.arrival_us);
  ++stats_.recvs;
  stats_.recvd_bytes += msg.bytes;
}

void ProcessorContext::exec_broadcast(const LStmt& s, Frame& frame) {
  const CostModel& cm = machine_.cost_model();
  const int P = machine_.n_procs();
  int root = static_cast<int>(eval(s.peer(), frame).as_int());
  const int depth = cm.bcast_depth(P);

  const bool scalar = s.section.empty();
  ArrayStorage* arr = scalar ? nullptr : array_at(frame, s.array);
  Rsd section = scalar ? Rsd{} : eval_section(s.section, frame);

  if (P == 1) return;
  if (my_p_ == root) {
    SimMessage proto;
    proto.src = my_p_;
    proto.tag = s.src->msg_array;
    if (scalar) {
      Value* cell = frame.scalars[static_cast<size_t>(s.scalar)];
      proto.payload.push_back(cell->as_real());
    } else {
      proto.payload = pack_section(arr, section);
    }
    proto.bytes = static_cast<int64_t>(proto.payload.size()) * cm.elem_bytes;
    proto.send_time_us = stats_.clock_us;
    proto.arrival_us = stats_.clock_us + cm.wire_time(proto.bytes) * depth;
    for (int p = 0; p < P; ++p) {
      if (p == my_p_) continue;
      SimMessage msg = proto;
      machine_.network().send(my_p_, p, std::move(msg));
    }
    stats_.clock_us += cm.send_overhead_us * depth;
    stats_.sends += P - 1;
    stats_.sent_bytes += (P - 1) * proto.bytes;
  } else {
    SimMessage msg = machine_.network().recv(my_p_, root);
    if (scalar) {
      Value* cell = frame.scalars[static_cast<size_t>(s.scalar)];
      store_bcast_scalar(cell, msg.payload.at(0));
    } else {
      unpack_section(arr, section, msg.payload,
                     "broadcast of " + s.src->msg_array);
    }
    stats_.clock_us =
        std::max(stats_.clock_us + cm.recv_overhead_us, msg.arrival_us);
    ++stats_.recvs;
    stats_.recvd_bytes += msg.bytes;
  }
}

void ProcessorContext::exec_allreduce(const LStmt& s, Frame& frame) {
  const CostModel& cm = machine_.cost_model();
  // Gather-to-root + broadcast realization of the collective.
  const int P = machine_.n_procs();
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
      SimMessage msg = machine_.network().recv(my_p_, p);
      acc = combine(acc, msg.payload.at(0));
      stats_.clock_us = std::max(stats_.clock_us + cm.recv_overhead_us,
                                 msg.arrival_us);
      ++stats_.recvs;
      stats_.recvd_bytes += msg.bytes;
    }
    *cell = Value::of_real(acc);
    SimMessage proto;
    proto.src = my_p_;
    proto.tag = s.src->msg_array;
    proto.payload = {acc};
    proto.bytes = cm.elem_bytes;
    proto.send_time_us = stats_.clock_us;
    proto.arrival_us =
        stats_.clock_us + cm.wire_time(proto.bytes) * cm.bcast_depth(P);
    for (int p = 1; p < P; ++p)
      machine_.network().send(my_p_, p, proto);
    stats_.clock_us += cm.send_overhead_us * cm.bcast_depth(P);
    stats_.sends += P - 1;
    stats_.sent_bytes += (P - 1) * proto.bytes;
  } else {
    SimMessage up;
    up.src = my_p_;
    up.tag = s.src->msg_array;
    up.payload = {cell->as_real()};
    up.bytes = cm.elem_bytes;
    up.send_time_us = stats_.clock_us;
    up.arrival_us = stats_.clock_us + cm.wire_time(up.bytes);
    machine_.network().send(my_p_, 0, std::move(up));
    stats_.clock_us += cm.send_overhead_us;
    ++stats_.sends;
    stats_.sent_bytes += cm.elem_bytes;
    SimMessage down = machine_.network().recv(my_p_, 0);
    *cell = Value::of_real(down.payload.at(0));
    stats_.clock_us = std::max(stats_.clock_us + cm.recv_overhead_us,
                               down.arrival_us);
    ++stats_.recvs;
    stats_.recvd_bytes += down.bytes;
  }
}

void ProcessorContext::apply_redistribution(ArrayStorage* arr,
                                            const DecompSpec* from_spec,
                                            const DecompSpec& to_spec) {
  const CostModel& cm = machine_.cost_model();
  const int P = machine_.n_procs();
  note_distribution(arr, to_spec);
  if (!from_spec) return;  // initial labeling: no data motion

  // Synchronize: remapping is collective.
  stats_.clock_us = machine_.barrier_max_clock(stats_.clock_us);

  const RemapPlan plan = plan_remap(*arr, *from_spec, to_spec);
  const int64_t moved_bytes = plan.moved * cm.elem_bytes;

  if (moved_bytes > 0) {
    // Pull current values for every element this processor now owns from
    // the previous owner's copy (their copy is authoritative). Peers sit
    // between the same two barriers and write only elements they newly
    // own, never the ones read here.
    for (int q = 0; q < P; ++q) {
      const std::vector<int64_t>& offs = plan.in[static_cast<size_t>(q)];
      if (offs.empty()) continue;
      const ArrayStorage* peer_arr = machine_.context(q)->array_by_uid(arr->uid);
      if (!peer_arr) continue;
      if (peer_arr->bounds != arr->bounds)
        throw std::runtime_error("remap of '" + arr->name + "': processor " +
                                 std::to_string(q) + " holds other bounds");
      for (int64_t off : offs)
        arr->data[static_cast<size_t>(off)] =
            peer_arr->data[static_cast<size_t>(off)];
    }
    // Charge: each processor exchanges roughly 1/P of the moved data.
    double share = static_cast<double>(moved_bytes) / P;
    stats_.clock_us += 2.0 * (cm.alpha_us + cm.beta_us_per_byte * share) +
                       cm.send_overhead_us + cm.recv_overhead_us;
    if (my_p_ == 0) {
      machine_.network().add_traffic(2 * P, moved_bytes);
      machine_.count_remap(moved_bytes);
    }
  }
  // Second barrier: no processor races ahead while peers still read.
  stats_.clock_us = machine_.barrier_max_clock(stats_.clock_us);
}

}  // namespace fortd
