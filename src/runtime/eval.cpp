#include "runtime/eval.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "codegen/distribution.hpp"

namespace fortd {

// ---------------------------------------------------------------------------
// ArrayStorage
// ---------------------------------------------------------------------------

int64_t ArrayStorage::size() const {
  int64_t n = 1;
  for (auto [lb, ub] : bounds) n *= (ub - lb + 1);
  return n;
}

void ArrayStorage::allocate() {
  if (bounds.size() > static_cast<size_t>(kMaxRank))
    throw std::runtime_error("array '" + name + "' has rank " +
                             std::to_string(bounds.size()) + "; at most " +
                             std::to_string(kMaxRank) + " are supported");
  strides.assign(bounds.size(), 1);
  for (size_t d = bounds.size(); d-- > 1;)
    strides[d - 1] = strides[d] * (bounds[d].second - bounds[d].first + 1);
  data.assign(static_cast<size_t>(size()), 0.0);
}

namespace {

/// Who owns each element of `arr` under `spec`: the runtime's one copy of
/// ArrayDistribution::owner_of, the rule codegen's guards assume. The
/// owner along the array's single distributed dimension; processor 0 when
/// the array is replicated or distributed along several dimensions.
class Ownership {
 public:
  Ownership(const ArrayStorage& arr, const DecompSpec& spec, int nprocs) {
    // ArrayDistribution::dist_dim is non-negative exactly when a single
    // dimension is distributed; built here without its copies of the
    // name, spec and bounds, as owner$ runs once per guarded element.
    const int d = spec.single_distributed_dim();
    if (d < 0) return;
    const auto [lb, ub] = arr.bounds.at(static_cast<size_t>(d));
    dim_ = d;
    dist_.emplace(spec.dists[static_cast<size_t>(d)], lb, ub, nprocs);
  }
  /// The distributed dimension, -1 when processor 0 owns everything.
  int dim() const { return dim_; }
  const DimDistribution& dist() const { return *dist_; }
  int owner(const int64_t* point) const {
    return dim_ < 0 ? 0 : dist_->owner(point[dim_]);
  }

 private:
  int dim_ = -1;
  std::optional<DimDistribution> dist_;
};

/// Ownership tabulated per index of the distributed dimension, for walks
/// over every element.
class OwnerTable {
 public:
  OwnerTable(const ArrayStorage& arr, const DecompSpec& spec, int nprocs) {
    const Ownership own(arr, spec, nprocs);
    if (own.dim() < 0) return;
    dim_ = own.dim();
    const auto [lb, ub] = arr.bounds[static_cast<size_t>(dim_)];
    lb_ = lb;
    owner_.reserve(static_cast<size_t>(std::max<int64_t>(0, ub - lb + 1)));
    for (int64_t i = lb; i <= ub; ++i) owner_.push_back(own.dist().owner(i));
  }
  int of(const int64_t* point) const {
    return dim_ < 0 ? 0 : owner_[static_cast<size_t>(point[dim_] - lb_)];
  }

 private:
  int dim_ = -1;
  int64_t lb_ = 0;
  std::vector<int> owner_;
};

/// Call fn(offset, point) for every element of `arr` in flat order.
template <typename Fn>
void for_each_element(const ArrayStorage& arr, Fn fn) {
  const size_t rank = arr.bounds.size();
  int64_t point[kMaxRank];
  for (size_t d = 0; d < rank; ++d) point[d] = arr.bounds[d].first;
  const int64_t n = static_cast<int64_t>(arr.data.size());
  for (int64_t off = 0; off < n; ++off) {
    fn(off, static_cast<const int64_t*>(point));
    for (size_t d = rank; d-- > 0;) {
      if (++point[d] <= arr.bounds[d].second) break;
      point[d] = arr.bounds[d].first;
    }
  }
}

/// Call fn(offset) for every point of a non-empty, in-bounds section of
/// `arr`, in row-major (Rsd::enumerate) order.
template <typename Fn>
void for_each_section_offset(const ArrayStorage& arr, const Rsd& section,
                             Fn fn) {
  const size_t rank = arr.bounds.size();
  int64_t count[kMaxRank], step[kMaxRank], at[kMaxRank];
  int64_t base = 0;
  for (size_t d = 0; d < rank; ++d) {
    const Triplet& t = section.dim(static_cast<int>(d));
    count[d] = t.count();
    step[d] = t.step * arr.strides[d];
    at[d] = 0;
    base += (t.lb - arr.bounds[d].first) * arr.strides[d];
  }
  // Odometer over the outer dimensions; `row` is the offset of the
  // current row's first element, rewound as each dimension wraps.
  const size_t last = rank - 1;
  int64_t row = base;
  for (;;) {
    for (int64_t k = 0; k < count[last]; ++k) fn(row + k * step[last]);
    size_t d = last;
    for (;;) {
      if (d == 0) return;
      --d;
      if (++at[d] < count[d]) {
        row += step[d];
        break;
      }
      row -= (count[d] - 1) * step[d];
      at[d] = 0;
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// EvalCore: construction and results
// ---------------------------------------------------------------------------

EvalCore::EvalCore(std::shared_ptr<const LoweredProgram> program, int my_p,
                   int n_procs, EventCosts costs)
    : my_p_(my_p),
      n_procs_(n_procs),
      costs_(costs),
      program_(std::move(program)) {
  global_scalars_.resize(program_->global_scalars.size());
  global_arrays_.resize(program_->global_arrays.size());
  global_scalars_[0] = std::make_unique<Value>(Value::of_int(my_p));
}

const ArrayStorage* EvalCore::main_array(const std::string& name) const {
  const int slot = main_names_.array_slot(name);
  return slot < 0 || static_cast<size_t>(slot) >= main_frame_.arrays.size()
             ? nullptr
             : main_frame_.arrays[static_cast<size_t>(slot)];
}

const Value* EvalCore::main_scalar(const std::string& name) const {
  const int slot = main_names_.scalar_slot(name);
  return slot < 0 || static_cast<size_t>(slot) >= main_frame_.scalars.size()
             ? nullptr
             : main_frame_.scalars[static_cast<size_t>(slot)];
}

std::vector<std::string> EvalCore::main_array_names() const {
  std::vector<std::string> names;
  for (int slot : main_names_.declared_arrays)
    if (main_frame_.arrays[static_cast<size_t>(slot)])
      names.push_back(main_names_.arrays[static_cast<size_t>(slot)]);
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

ArrayStorage* EvalCore::array_by_uid(int uid) const {
  if (uid < 0 || static_cast<size_t>(uid) >= live_.size()) return nullptr;
  return live_[static_cast<size_t>(uid)];
}

const DecompSpec* EvalCore::registry_spec(const ArrayStorage* storage) const {
  if (!storage || storage->uid < 0 ||
      static_cast<size_t>(storage->uid) >= registry_.size())
    return nullptr;
  const RegEntry& e = registry_[static_cast<size_t>(storage->uid)];
  return e.has ? &e.spec : nullptr;
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

std::unique_ptr<ArrayStorage> EvalCore::allocate(
    const std::string& name, ElemType type,
    std::vector<std::pair<int64_t, int64_t>> bounds) {
  auto arr = std::make_unique<ArrayStorage>();
  arr->uid = static_cast<int>(live_.size());
  arr->name = name;
  arr->type = type;
  arr->bounds = std::move(bounds);
  arr->allocate();
  live_.push_back(arr.get());
  registry_.emplace_back();
  return arr;
}

void EvalCore::release(Frame&& frame) {
  for (const auto& arr : frame.locals)
    live_[static_cast<size_t>(arr->uid)] = nullptr;
  // Frames die in stack order, so a callee's arrays are the newest: drop
  // their slots and let the next allocations reuse the uids (every
  // process does the same, so uids still pair peers' copies). The
  // callee's undo records were truncated on return; none names them.
  while (!live_.empty() && !live_.back()) {
    live_.pop_back();
    registry_.pop_back();
  }
  frame.locals.clear();
  spare_frames_.push_back(std::move(frame));
}

Frame EvalCore::make_frame(const LProc& proc, Frame* caller,
                           const std::vector<LActual>* actuals) {
  Frame frame;
  if (!spare_frames_.empty()) {
    frame = std::move(spare_frames_.back());
    spare_frames_.pop_back();
  }
  frame.proc = &proc;
  const size_t ns = proc.names.scalars.size();
  const size_t na = proc.names.arrays.size();
  frame.cells.assign(ns, Value::of_int(0));
  frame.scalars.resize(ns);
  frame.arrays.assign(na, nullptr);
  // Unbound names: a global when one exists by now, else an implicit
  // local (loop variables, compiler temporaries).
  for (size_t s = 0; s < ns; ++s) {
    const int g = proc.scalar_fallback[s];
    Value* global =
        g >= 0 ? global_scalars_[static_cast<size_t>(g)].get() : nullptr;
    frame.scalars[s] = global ? global : &frame.cells[s];
  }
  for (size_t a = 0; a < na; ++a) {
    const int g = proc.array_fallback[a];
    if (g >= 0) frame.arrays[a] = global_arrays_[static_cast<size_t>(g)].get();
  }
  auto bind_own = [&](int slot, Value v) {
    frame.cells[static_cast<size_t>(slot)] = v;
    frame.scalars[static_cast<size_t>(slot)] =
        &frame.cells[static_cast<size_t>(slot)];
  };

  // PARAMETER constants.
  for (const LParam& pc : proc.params) bind_own(pc.slot, eval(pc.value, frame));

  // Bind formals by reference (a call always passes its caller's frame).
  size_t bound_formals = 0;
  if (actuals) {
    bound_formals = std::min(proc.formal_scalars.size(), actuals->size());
    for (size_t f = 0; f < bound_formals; ++f) {
      const LActual& a = (*actuals)[f];
      if (!a.by_ref) {
        // Expression actual: copy-in only.
        bind_own(proc.formal_scalars[f], eval(a.value, *caller));
        continue;
      }
      if (ArrayStorage* arr = caller->arrays[static_cast<size_t>(a.array)])
        frame.arrays[static_cast<size_t>(proc.formal_arrays[f])] = arr;
      else  // scalar by reference: share the caller's cell
        frame.scalars[static_cast<size_t>(proc.formal_scalars[f])] =
            caller->scalars[static_cast<size_t>(a.scalar)];
    }
  }

  // Declared locals; COMMON variables alias the per-processor globals.
  for (const LDecl& decl : proc.decls) {
    if (decl.shadowed ||
        (decl.formal >= 0 && static_cast<size_t>(decl.formal) < bound_formals))
      continue;
    const VarDecl& src = *decl.src;
    if (decl.lbs.empty()) {
      const Value zero = src.type == ElemType::Real ? Value::of_real(0.0)
                                                    : Value::of_int(0);
      if (decl.global >= 0) {
        auto& cell = global_scalars_[static_cast<size_t>(decl.global)];
        if (!cell) cell = std::make_unique<Value>(zero);
        frame.scalars[static_cast<size_t>(decl.slot)] = cell.get();
      } else {
        bind_own(decl.slot, zero);
      }
      continue;
    }
    // Array: evaluate bounds (may reference params/formals — Fig. 14
    // parameterized overlaps).
    std::vector<std::pair<int64_t, int64_t>> bounds;
    bounds.reserve(decl.lbs.size());
    for (size_t d = 0; d < decl.lbs.size(); ++d) {
      const int64_t lb = eval(decl.lbs[d], frame).as_int();
      const int64_t ub = eval(decl.ubs[d], frame).as_int();
      bounds.emplace_back(lb, ub);
    }
    ArrayStorage* bound = nullptr;
    if (decl.global >= 0) {
      auto& arr = global_arrays_[static_cast<size_t>(decl.global)];
      if (!arr) arr = allocate(src.name, src.type, std::move(bounds));
      bound = arr.get();
    } else {
      frame.locals.push_back(allocate(src.name, src.type, std::move(bounds)));
      bound = frame.locals.back().get();
    }
    frame.arrays[static_cast<size_t>(decl.slot)] = bound;
  }
  return frame;
}

void EvalCore::run() {
  if (program_->main < 0)
    throw std::runtime_error("SPMD program has no main PROGRAM");
  const LProc& main = program_->procs[static_cast<size_t>(program_->main)];
  main_names_ = main.names;
  cur_proc_ = &main;
  main_frame_ = make_frame(main, nullptr, nullptr);
  exec_stmts(main.body, main_frame_);
  // Results need only the main frame and its names: free the lowered
  // program (with the last process of the execution to finish).
  main_frame_.proc = nullptr;
  cur_proc_ = nullptr;
  cur_stmt_ = nullptr;
  spare_frames_.clear();
  program_.reset();
}

// ---------------------------------------------------------------------------
// Statement execution
// ---------------------------------------------------------------------------

void EvalCore::exec_stmts(const std::vector<LStmt>& stmts, Frame& frame) {
  for (const LStmt& s : stmts) {
    if (returning_) return;
    exec_stmt(s, frame);
  }
}

void EvalCore::exec_stmt(const LStmt& s, Frame& frame) {
  cur_stmt_ = &s;
  switch (s.kind) {
    case StmtKind::Assign: {
      Value v = eval(s.rhs(), frame);
      const LExpr& lhs = s.lhs();
      if (lhs.kind == LExprKind::Scalar) {
        *frame.scalars[static_cast<size_t>(lhs.slot)] = v;
      } else {
        ArrayStorage* arr = array_at(frame, lhs.slot);
        arr->data[static_cast<size_t>(element(*arr, lhs.args, frame))] =
            v.as_real();
      }
      break;
    }
    case StmtKind::If: {
      charge_guard();
      if (eval(s.cond(), frame).truthy())
        exec_stmts(s.body, frame);
      else
        exec_stmts(s.else_body, frame);
      break;
    }
    case StmtKind::Do: {
      const int64_t lb = eval(s.lb(), frame).as_int();
      const int64_t ub = eval(s.ub(), frame).as_int();
      const int64_t step = eval(s.step(), frame).as_int();
      if (step == 0) throw std::runtime_error("DO step is zero");
      Value* var = frame.scalars[static_cast<size_t>(s.var)];
      for (int64_t i = lb; step > 0 ? i <= ub : i >= ub; i += step) {
        *var = Value::of_int(i);
        charge_loop_iteration();
        ++stats_.iterations;
        exec_stmts(s.body, frame);
        if (returning_) break;
      }
      break;
    }
    case StmtKind::Call:
      exec_call(s, frame);
      break;
    case StmtKind::Return:
      returning_ = true;
      break;
    case StmtKind::Continue:
    case StmtKind::Align:
      break;
    case StmtKind::Distribute: {
      // Run-time redistribution: the mapping library moves data unless
      // this is the array's first (initial) distribution.
      ArrayStorage* arr = array_at(frame, s.array);
      const RegEntry& cur = registry_[static_cast<size_t>(arr->uid)];
      if (!cur.has) {
        apply_redistribution(arr, nullptr, s.to);
      } else if (!(cur.spec == s.to)) {
        const DecompSpec from = cur.spec;
        apply_redistribution(arr, &from, s.to);
      }
      break;
    }
    case StmtKind::Send:
      exec_send(s, frame);
      break;
    case StmtKind::Recv:
      exec_recv(s, frame);
      break;
    case StmtKind::Broadcast:
      exec_broadcast(s, frame);
      break;
    case StmtKind::Remap:
      apply_redistribution(array_at(frame, s.array),
                           s.has_from ? &s.from : nullptr, s.to);
      break;
    case StmtKind::MarkDist:
      note_distribution(array_at(frame, s.array), s.to);
      break;
    case StmtKind::AllReduce:
      exec_allreduce(s, frame);
      break;
  }
}

void EvalCore::exec_call(const LStmt& s, Frame& frame) {
  if (s.callee < 0)
    throw std::runtime_error("call to unknown procedure '" + s.src->callee +
                             "'");
  const LProc& callee = program_->procs[static_cast<size_t>(s.callee)];
  charge_call();
  // Fortran D scoping: decomposition changes in the callee are undone on
  // return — including the data motion of the restoring remap.
  const size_t mark = undo_.size();
  ++call_depth_;
  Frame inner = make_frame(callee, &frame, &s.actuals);
  const LProc* saved_proc = cur_proc_;
  const bool saved_return = returning_;
  cur_proc_ = &callee;
  returning_ = false;
  exec_stmts(callee.body, inner);
  returning_ = saved_return;
  cur_proc_ = saved_proc;
  restore_registry(mark);
  --call_depth_;
  release(std::move(inner));
}

void EvalCore::note_distribution(ArrayStorage* arr, const DecompSpec& spec) {
  RegEntry& entry = registry_[static_cast<size_t>(arr->uid)];
  if (call_depth_ > 0) undo_.push_back({arr->uid, arr, entry});
  entry.has = true;
  entry.spec = spec;
}

void EvalCore::restore_registry(size_t mark) {
  if (undo_.size() == mark) return;
  // The first record of each uid holds its entry from before the call.
  std::vector<Undo> originals;
  for (size_t i = mark; i < undo_.size(); ++i) {
    const int uid = undo_[i].uid;
    if (std::none_of(originals.begin(), originals.end(),
                     [uid](const Undo& u) { return u.uid == uid; }))
      originals.push_back(undo_[i]);
  }
  // Each restoring remap is a collective, so every process must issue
  // them in the same order: uid order, identical across processes.
  std::sort(originals.begin(), originals.end(),
            [](const Undo& a, const Undo& b) { return a.uid < b.uid; });
  for (const Undo& u : originals) {
    if (!u.before.has) continue;
    const RegEntry& cur = registry_[static_cast<size_t>(u.uid)];
    if (cur.has && !(cur.spec == u.before.spec)) {
      const DecompSpec from = cur.spec;
      apply_redistribution(u.arr, &from, u.before.spec);
    }
  }
  for (Undo& u : originals)
    registry_[static_cast<size_t>(u.uid)] = std::move(u.before);
  undo_.resize(mark);
}

// ---------------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------------

void EvalCore::out_of_bounds(const ArrayStorage& arr, size_t dim,
                             int64_t index) const {
  const auto [lb, ub] = arr.bounds[dim];
  std::string where = "P" + std::to_string(my_p_);
  if (cur_stmt_) where += " at " + cur_stmt_->src->loc.str();
  if (cur_proc_) where += " in " + cur_proc_->src->name;
  throw std::runtime_error(where + ": subscript out of bounds: " + arr.name +
                           " dim " + std::to_string(dim + 1) + " index " +
                           std::to_string(index) + " not in [" +
                           std::to_string(lb) + "," + std::to_string(ub) + "]");
}

void EvalCore::rank_mismatch(const ArrayStorage& arr) const {
  throw std::runtime_error("rank mismatch indexing array '" + arr.name + "'");
}

void EvalCore::unknown_array(const Frame& frame, int slot) const {
  throw std::runtime_error("reference to unknown array '" +
                           frame.proc->names.arrays[static_cast<size_t>(slot)] +
                           "'");
}

// ---------------------------------------------------------------------------
// Message payloads and remap plans
// ---------------------------------------------------------------------------

void EvalCore::check_section(const ArrayStorage& arr,
                             const Rsd& section) const {
  if (static_cast<size_t>(section.rank()) != arr.bounds.size())
    rank_mismatch(arr);
  for (size_t d = 0; d < arr.bounds.size(); ++d) {
    const Triplet& t = section.dim(static_cast<int>(d));
    if (t.lb < arr.bounds[d].first || t.lb > arr.bounds[d].second)
      out_of_bounds(arr, d, t.lb);
  }
  for (size_t d = 0; d < arr.bounds.size(); ++d) {
    const Triplet& t = section.dim(static_cast<int>(d));
    if (t.ub > arr.bounds[d].second) out_of_bounds(arr, d, t.ub);
  }
}

std::vector<double> EvalCore::pack_section(const ArrayStorage* arr,
                                           const Rsd& section) const {
  std::vector<double> payload;
  if (section.empty()) return payload;
  check_section(*arr, section);
  payload.reserve(static_cast<size_t>(section.size()));
  for_each_section_offset(*arr, section, [&](int64_t off) {
    payload.push_back(arr->data[static_cast<size_t>(off)]);
  });
  return payload;
}

void EvalCore::unpack_section(ArrayStorage* arr, const Rsd& section,
                              const std::vector<double>& payload,
                              const std::string& what) const {
  const size_t expected = static_cast<size_t>(section.size());
  if (payload.size() != expected)
    throw std::runtime_error("message size mismatch on " + what + ": sent " +
                             std::to_string(payload.size()) + " expected " +
                             std::to_string(expected));
  if (expected == 0) return;
  check_section(*arr, section);
  size_t i = 0;
  for_each_section_offset(*arr, section, [&](int64_t off) {
    arr->data[static_cast<size_t>(off)] = payload[i++];
  });
}

RemapPlan EvalCore::plan_remap(const ArrayStorage& arr, const DecompSpec& from,
                               const DecompSpec& to) const {
  RemapPlan plan;
  plan.out.resize(static_cast<size_t>(n_procs_));
  plan.in.resize(static_cast<size_t>(n_procs_));
  const OwnerTable old_owner(arr, from, n_procs_);
  const OwnerTable new_owner(arr, to, n_procs_);
  for_each_element(arr, [&](int64_t off, const int64_t* point) {
    const int o = old_owner.of(point);
    const int n = new_owner.of(point);
    if (o == n) return;
    ++plan.moved;
    if (o == my_p_)
      plan.out[static_cast<size_t>(n)].push_back(off);
    else if (n == my_p_)
      plan.in[static_cast<size_t>(o)].push_back(off);
  });
  return plan;
}

void EvalCore::store_bcast_scalar(Value* cell, double v) {
  if (cell->is_int && v == std::floor(v))
    *cell = Value::of_int(static_cast<int64_t>(v));
  else
    *cell = Value::of_real(v);
}

// ---------------------------------------------------------------------------
// Expression evaluation
// ---------------------------------------------------------------------------

int64_t EvalCore::element(const ArrayStorage& arr,
                          const std::vector<LExpr>& args, Frame& frame) {
  const size_t rank = arr.bounds.size();
  if (args.size() != rank) rank_mismatch(arr);
  int64_t off = 0;
  for (size_t d = 0; d < rank; ++d) {
    const int64_t index = eval(args[d], frame).as_int();
    const auto [lb, ub] = arr.bounds[d];
    if (index < lb || index > ub) out_of_bounds(arr, d, index);
    off += (index - lb) * arr.strides[d];
  }
  return off;
}

Rsd EvalCore::eval_section(const std::vector<LSection>& sec, Frame& frame) {
  std::vector<Triplet> dims;
  dims.reserve(sec.size());
  for (const LSection& t : sec) {
    const int64_t lb = eval(t.lb, frame).as_int();
    const int64_t ub = eval(t.ub, frame).as_int();
    const int64_t step = eval(t.step, frame).as_int();
    dims.emplace_back(lb, ub, step);
  }
  return Rsd(std::move(dims));
}

Value EvalCore::eval_intrinsic(const LExpr& e, Frame& frame) {
  auto arg = [&](size_t i) { return eval(e.args[i], frame); };
  switch (e.fn) {
    case Intrinsic::MyProc:
      return Value::of_int(my_p_);
    case Intrinsic::Min:
    case Intrinsic::Max: {
      const bool is_min = e.fn == Intrinsic::Min;
      Value v = arg(0);
      for (size_t i = 1; i < e.args.size(); ++i) {
        Value w = arg(i);
        if (v.is_int && w.is_int)
          v = Value::of_int(is_min ? std::min(v.i, w.i) : std::max(v.i, w.i));
        else
          v = Value::of_real(is_min ? std::min(v.as_real(), w.as_real())
                                    : std::max(v.as_real(), w.as_real()));
      }
      return v;
    }
    case Intrinsic::Modp: {
      const int64_t a = arg(0).as_int(), m = arg(1).as_int();
      const int64_t r = a % m;
      return Value::of_int(r < 0 ? r + m : r);
    }
    case Intrinsic::Mod: {
      const int64_t a = arg(0).as_int(), m = arg(1).as_int();
      return Value::of_int(a % m);
    }
    case Intrinsic::Abs: {
      Value v = arg(0);
      return v.is_int ? Value::of_int(std::abs(v.i))
                      : Value::of_real(std::fabs(v.d));
    }
    case Intrinsic::Sqrt:
      return Value::of_real(std::sqrt(arg(0).as_real()));
    case Intrinsic::F:
      // The paper's unspecified F(...) — an arbitrary elementwise function.
      return Value::of_real(0.5 * arg(0).as_real() + 1.0);
    case Intrinsic::OwnerOf: {
      const ArrayStorage* arr = array_at(frame, e.slot);
      int64_t index[kMaxRank];
      const size_t n = std::min(e.args.size(), static_cast<size_t>(kMaxRank));
      for (size_t d = 0; d < n; ++d) index[d] = arg(d).as_int();
      const DecompSpec* spec = registry_spec(arr);
      if (!spec) return Value::of_int(0);
      const Ownership own(*arr, *spec, n_procs_);
      if (static_cast<size_t>(own.dim() + 1) > n) rank_mismatch(*arr);
      return Value::of_int(own.owner(index));
    }
    case Intrinsic::Unknown:
      break;
  }
  throw std::runtime_error("unknown intrinsic function '" + e.src->name + "'");
}

Value EvalCore::eval_node(const LExpr& e, Frame& frame) {
  switch (e.kind) {
    case LExprKind::Int:
    case LExprKind::Real:
    case LExprKind::Scalar:
    case LExprKind::Offset:
      return eval(e, frame);
    case LExprKind::Elem: {
      const ArrayStorage* arr = array_at(frame, e.slot);
      const double v =
          arr->data[static_cast<size_t>(element(*arr, e.args, frame))];
      return arr->type == ElemType::Integer
                 ? Value::of_int(static_cast<int64_t>(v))
                 : Value::of_real(v);
    }
    case LExprKind::Call:
      charge_flop();
      ++stats_.flops;
      return eval_intrinsic(e, frame);
    case LExprKind::Unary: {
      Value v = eval(e.args[0], frame);
      if (e.un_op == UnOp::Neg)
        return v.is_int ? Value::of_int(-v.i) : Value::of_real(-v.d);
      return Value::of_int(v.truthy() ? 0 : 1);
    }
    case LExprKind::Binary: {
      Value l = eval(e.args[0], frame);
      Value r = eval(e.args[1], frame);
      charge_flop();
      ++stats_.flops;
      const bool ii = l.is_int && r.is_int;
      switch (e.bin_op) {
        case BinOp::Add:
          return ii ? Value::of_int(l.i + r.i)
                    : Value::of_real(l.as_real() + r.as_real());
        case BinOp::Sub:
          return ii ? Value::of_int(l.i - r.i)
                    : Value::of_real(l.as_real() - r.as_real());
        case BinOp::Mul:
          return ii ? Value::of_int(l.i * r.i)
                    : Value::of_real(l.as_real() * r.as_real());
        case BinOp::Div:
          if (ii) {
            if (r.i == 0) throw std::runtime_error("integer division by zero");
            return Value::of_int(l.i / r.i);
          }
          return Value::of_real(l.as_real() / r.as_real());
        case BinOp::Eq:
          return Value::of_int(ii ? l.i == r.i : l.as_real() == r.as_real());
        case BinOp::Ne:
          return Value::of_int(ii ? l.i != r.i : l.as_real() != r.as_real());
        case BinOp::Lt:
          return Value::of_int(ii ? l.i < r.i : l.as_real() < r.as_real());
        case BinOp::Le:
          return Value::of_int(ii ? l.i <= r.i : l.as_real() <= r.as_real());
        case BinOp::Gt:
          return Value::of_int(ii ? l.i > r.i : l.as_real() > r.as_real());
        case BinOp::Ge:
          return Value::of_int(ii ? l.i >= r.i : l.as_real() >= r.as_real());
        case BinOp::And:
          return Value::of_int(l.truthy() && r.truthy());
        case BinOp::Or:
          return Value::of_int(l.truthy() || r.truthy());
      }
      return Value::of_int(0);
    }
  }
  return Value::of_int(0);
}

// ---------------------------------------------------------------------------
// Result gathering
// ---------------------------------------------------------------------------

std::vector<double> gather_array(const std::vector<const EvalCore*>& contexts,
                                 const std::string& array,
                                 const DecompSpec* spec) {
  if (contexts.empty())
    throw std::runtime_error("gather: no execution contexts");
  const EvalCore& p0 = *contexts[0];
  const ArrayStorage* proto = p0.main_array(array);
  if (!proto)
    throw std::runtime_error("gather: unknown main-program array '" + array +
                             "'");
  if (!spec) spec = p0.registry_spec(proto);
  const int nprocs = static_cast<int>(contexts.size());
  if (!spec ||
      ArrayDistribution(array, *spec, proto->bounds, nprocs).replicated_p())
    return proto->data;

  // Every processor's copy of the array, found once.
  std::vector<const ArrayStorage*> copies;
  copies.reserve(contexts.size());
  for (size_t q = 0; q < contexts.size(); ++q) {
    const ArrayStorage* arr = contexts[q]->array_by_uid(proto->uid);
    if (arr && arr->bounds != proto->bounds)
      throw std::runtime_error("gather: processor " + std::to_string(q) +
                               " holds '" + array + "' with other bounds");
    copies.push_back(arr);
  }
  const OwnerTable owner(*proto, *spec, nprocs);
  std::vector<double> out(proto->data.size());
  for_each_element(*proto, [&](int64_t off, const int64_t* point) {
    const ArrayStorage* arr = copies[static_cast<size_t>(owner.of(point))];
    out[static_cast<size_t>(off)] =
        arr ? arr->data[static_cast<size_t>(off)] : 0.0;
  });
  return out;
}

}  // namespace fortd
