// Shared SPMD evaluation core: one EvalCore per processor executes the
// generated program's statements and expressions. Everything an executor
// can disagree about — how messages move, what a collective costs, how a
// redistribution exchanges data — is a virtual hook; everything else
// (frames, scoping, arithmetic, intrinsics, the run-time distribution
// registry) lives here so the SPMD engine and the serial reference
// interpreter compute bit-identical values.
//
// Evaluation runs over the slot-resolved form of runtime/lower.hpp, built
// once per execution, shared read-only by every EvalCore of that
// execution and freed when the last of them returns from run(). A Frame is a pair of slot-indexed vectors: scalar slots point
// at Value cells (the frame's own, a caller's cell bound by reference, or a
// global), array slots point at ArrayStorage. A frame binds every slot when
// it is built, so no name is looked up while statements run.
//
// Storage model: every processor holds full-size (global index space)
// copies of all arrays; ownership determines which copy is *current*.
// This matches how the compiled code is generated (global indices) and
// leaves all observable quantities — messages, bytes, final owned values —
// identical to a local-index implementation. An ArrayStorage is laid out
// row-major (last dimension contiguous) with precomputed strides. An
// element access folds each subscript into the flat offset as it is
// evaluated, with no allocation, after checking it against its
// dimension's bounds; an index out of range names the processor, the
// statement's source location, the array, the dimension and the bounds.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "frontend/ast.hpp"
#include "ir/decomp.hpp"
#include "ir/rsd.hpp"
#include "runtime/lower.hpp"

namespace fortd {

/// A typed scalar value. Integer arithmetic stays exact (Fortran integer
/// division truncates); mixed expressions promote to real.
struct Value {
  bool is_int = true;
  int64_t i = 0;
  double d = 0.0;

  static Value of_int(int64_t v) { return {true, v, static_cast<double>(v)}; }
  static Value of_real(double v) { return {false, 0, v}; }
  double as_real() const { return is_int ? static_cast<double>(i) : d; }
  int64_t as_int() const { return is_int ? i : static_cast<int64_t>(d); }
  bool truthy() const { return is_int ? i != 0 : d != 0.0; }
};

/// Array storage: a row-major flat buffer addressed by global indices.
/// `uid` is the allocation sequence number — identical across processors
/// because SPMD execution is symmetric — used to pair up peers' copies
/// during remaps and to key the distribution registry.
struct ArrayStorage {
  int uid = -1;
  std::string name;
  ElemType type = ElemType::Real;
  std::vector<std::pair<int64_t, int64_t>> bounds;
  std::vector<int64_t> strides;  // elements between neighbours, per dim
  std::vector<double> data;

  int64_t size() const;
  /// Compute strides and zero-fill data for the current bounds.
  void allocate();
};

/// One procedure activation: every slot of its LProc, bound.
struct Frame {
  const LProc* proc = nullptr;  // null for the main frame once run returns
  std::vector<Value*> scalars;        // by scalar slot
  std::vector<ArrayStorage*> arrays;  // by array slot; null = unbound
  std::vector<Value> cells;           // this frame's own scalars, by slot
  std::vector<std::unique_ptr<ArrayStorage>> locals;  // its own arrays
};

struct ProcStats {
  double clock_us = 0.0;  // logical clock, priced by the CostModel
  int64_t flops = 0;
  int64_t iterations = 0;
  int64_t sends = 0;
  int64_t recvs = 0;
  int64_t sent_bytes = 0;   // payload bytes of counted sends
  int64_t recvd_bytes = 0;  // payload bytes of counted recvs
};

/// Logical-clock charge per evaluation event. The serial reference keeps
/// the zero default, which leaves its clock at 0.
struct EventCosts {
  double guard_us = 0.0;
  double loop_iteration_us = 0.0;
  double flop_us = 0.0;
  double call_us = 0.0;
};

/// The machine model that prices the SPMD engine's logical clocks.
///
/// Substitution (see DESIGN.md): the paper ran on real iPSC/860 hardware;
/// we charge per-processor logical clocks with a latency+bandwidth message
/// model (T_msg = alpha + beta * bytes), tree-structured broadcasts, and a
/// per-operation compute cost. The defaults approximate the iPSC/860
/// (~136 us message startup, ~2.8 MB/s sustained per link in 1992 terms
/// scaled to 0.4 us/byte); all knobs are configurable so benchmark shapes
/// can be stress-tested across machine balances.
struct CostModel {
  double alpha_us = 136.0;        // message startup latency
  double beta_us_per_byte = 0.4;  // per-byte transfer time
  double send_overhead_us = 44.0; // sender-side occupancy per message
  double recv_overhead_us = 44.0; // receiver-side occupancy per message
  double flop_us = 0.1;           // per arithmetic operation
  double loop_overhead_us = 0.05; // per loop iteration
  double guard_us = 0.02;         // per evaluated guard/branch
  double call_overhead_us = 0.5;  // per procedure call
  int elem_bytes = 8;             // REAL is REAL*8

  /// Point-to-point delivery time after the send is initiated.
  double wire_time(int64_t bytes) const {
    return alpha_us + beta_us_per_byte * static_cast<double>(bytes);
  }

  /// Tree depth used for broadcast cost.
  int bcast_depth(int nprocs) const {
    int d = 0;
    while ((1 << d) < nprocs) ++d;
    return d == 0 ? 1 : d;
  }

  EventCosts event_costs() const {
    return {guard_us, loop_overhead_us, flop_us, call_overhead_us};
  }

  static CostModel ipsc860() { return CostModel{}; }

  /// A low-latency machine (alpha 10x smaller) for crossover studies.
  static CostModel low_latency() {
    CostModel cm;
    cm.alpha_us = 13.6;
    cm.send_overhead_us = 5.0;
    cm.recv_overhead_us = 5.0;
    return cm;
  }
};

/// One processor's side of a redistribution: the flat offsets of the
/// elements it sends to (out[q]) and receives from (in[q]) each peer q,
/// in flat order, so peers agree on payload layout without a header.
struct RemapPlan {
  std::vector<std::vector<int64_t>> out, in;
  int64_t moved = 0;  // elements whose owner changes, over all processors
};

/// The backend-independent SPMD evaluator. Subclasses implement the
/// communication statements; `costs` prices the evaluation events.
class EvalCore {
 public:
  EvalCore(std::shared_ptr<const LoweredProgram> program, int my_p,
           int n_procs, EventCosts costs = {});
  virtual ~EvalCore() = default;

  EvalCore(const EvalCore&) = delete;
  EvalCore& operator=(const EvalCore&) = delete;

  /// Execute the main program to completion.
  void run();

  int my_p() const { return my_p_; }
  int n_procs() const { return n_procs_; }
  const ProcStats& stats() const { return stats_; }

  // -- results: the main program's frame stays alive after run, while the
  // lowered program is released as soon as run returns ------------------
  /// A main-program array by name, or null.
  const ArrayStorage* main_array(const std::string& name) const;
  /// A main-program scalar by name, or null.
  const Value* main_scalar(const std::string& name) const;
  /// The main program's declared arrays, sorted.
  std::vector<std::string> main_array_names() const;

  /// A live array by allocation uid, or null.
  ArrayStorage* array_by_uid(int uid) const;
  const DecompSpec* registry_spec(const ArrayStorage* storage) const;

 protected:
  // -- backend hooks: communication ---------------------------------------
  virtual void exec_send(const LStmt& s, Frame& frame) = 0;
  virtual void exec_recv(const LStmt& s, Frame& frame) = 0;
  virtual void exec_broadcast(const LStmt& s, Frame& frame) = 0;
  virtual void exec_allreduce(const LStmt& s, Frame& frame) = 0;
  /// Collective redistribution: move every element whose owner changes
  /// from its previous owner's copy to its new owner's, and account for
  /// the traffic. `from` null = initial labeling (no data motion). The
  /// implementation must record `to` in the registry (via
  /// note_distribution) before returning.
  virtual void apply_redistribution(ArrayStorage* arr, const DecompSpec* from,
                                    const DecompSpec& to) = 0;

  // -- cost accounting -----------------------------------------------------
  // Fired at fixed sequence points: each guard, loop iteration, operator
  // or intrinsic, and call.
  void charge_guard() { stats_.clock_us += costs_.guard_us; }
  void charge_loop_iteration() { stats_.clock_us += costs_.loop_iteration_us; }
  void charge_flop() { stats_.clock_us += costs_.flop_us; }
  void charge_call() { stats_.clock_us += costs_.call_us; }

  // -- shared machinery ----------------------------------------------------
  /// Leaves and offsets evaluate inline; everything else in eval_node.
  Value eval(const LExpr& e, Frame& frame) {
    switch (e.kind) {
      case LExprKind::Int:
        return Value::of_int(e.ival);
      case LExprKind::Real:
        return Value::of_real(e.rval);
      case LExprKind::Scalar:
        return *frame.scalars[static_cast<size_t>(e.slot)];
      case LExprKind::Offset: {
        charge_flop();
        ++stats_.flops;
        const Value& v = *frame.scalars[static_cast<size_t>(e.slot)];
        return v.is_int ? Value::of_int(v.i + e.ival)
                        : Value::of_real(v.d + static_cast<double>(e.ival));
      }
      default:
        return eval_node(e, frame);
    }
  }
  /// The array bound to `slot`; throws naming it when nothing is.
  ArrayStorage* array_at(const Frame& frame, int slot) const {
    ArrayStorage* arr = frame.arrays[static_cast<size_t>(slot)];
    if (!arr) unknown_array(frame, slot);
    return arr;
  }
  /// Evaluate a message section to a concrete Rsd.
  Rsd eval_section(const std::vector<LSection>& sec, Frame& frame);

  /// Record `spec` as the array's current distribution.
  void note_distribution(ArrayStorage* arr, const DecompSpec& spec);

  // Payload packing shared by every message-passing backend: walk the
  // section's strides in row-major order, after checking its corners
  // against the array's bounds.
  std::vector<double> pack_section(const ArrayStorage* arr,
                                   const Rsd& section) const;
  void unpack_section(ArrayStorage* arr, const Rsd& section,
                      const std::vector<double>& payload,
                      const std::string& what) const;
  /// This processor's exchange plan for remapping `arr` between two
  /// distributions.
  RemapPlan plan_remap(const ArrayStorage& arr, const DecompSpec& from,
                       const DecompSpec& to) const;
  /// Store a broadcast scalar, preserving integer-ness for integer cells
  /// (pivot indices).
  static void store_bcast_scalar(Value* cell, double v);

  const int my_p_;
  const int n_procs_;
  const EventCosts costs_;
  ProcStats stats_;

 private:
  struct RegEntry {
    bool has = false;
    DecompSpec spec;
  };
  /// A registry entry as it was before one change made inside a call.
  struct Undo {
    int uid;
    ArrayStorage* arr;
    RegEntry before;
  };

  void exec_stmts(const std::vector<LStmt>& stmts, Frame& frame);
  void exec_stmt(const LStmt& s, Frame& frame);
  void exec_call(const LStmt& s, Frame& frame);
  Value eval_node(const LExpr& e, Frame& frame);
  Value eval_intrinsic(const LExpr& e, Frame& frame);
  /// Flat offset of the element `args` subscript, bounds-checked.
  int64_t element(const ArrayStorage& arr, const std::vector<LExpr>& args,
                  Frame& frame);
  Frame make_frame(const LProc& proc, Frame* caller,
                   const std::vector<LActual>* actuals);
  std::unique_ptr<ArrayStorage> allocate(
      const std::string& name, ElemType type,
      std::vector<std::pair<int64_t, int64_t>> bounds);
  /// Drop a finished callee frame, keeping its vectors for the next call.
  void release(Frame&& frame);
  /// Undo a callee's distribution changes: restoring remaps in uid order,
  /// then the registry as it was at `mark`.
  void restore_registry(size_t mark);
  void check_section(const ArrayStorage& arr, const Rsd& section) const;
  [[noreturn]] void out_of_bounds(const ArrayStorage& arr, size_t dim,
                                  int64_t index) const;
  [[noreturn]] void rank_mismatch(const ArrayStorage& arr) const;
  [[noreturn]] void unknown_array(const Frame& frame, int slot) const;

  std::shared_ptr<const LoweredProgram> program_;  // null once run returns
  std::vector<std::unique_ptr<Value>> global_scalars_;  // null = not created
  std::vector<std::unique_ptr<ArrayStorage>> global_arrays_;
  Frame main_frame_;
  SlotNames main_names_;
  std::vector<Frame> spare_frames_;  // released frames, reused by calls
  std::vector<ArrayStorage*> live_;  // by uid; null once its frame is gone
  std::vector<RegEntry> registry_;   // by uid
  std::vector<Undo> undo_;           // registry changes inside calls
  int call_depth_ = 0;
  bool returning_ = false;
  const LProc* cur_proc_ = nullptr;  // for diagnostics
  const LStmt* cur_stmt_ = nullptr;
};

/// Assemble the authoritative final contents of a main-program array from
/// each element's owning context. `spec` null = use context 0's run-time
/// registry entry (replicated when absent).
std::vector<double> gather_array(const std::vector<const EvalCore*>& contexts,
                                 const std::string& array,
                                 const DecompSpec* spec);

}  // namespace fortd
