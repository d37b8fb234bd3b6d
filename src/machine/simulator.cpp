#include "machine/simulator.hpp"

#include <algorithm>
#include <thread>

#include "support/thread_pool.hpp"

namespace fortd {

Machine::Machine(CostModel cost_model, ThreadPool* pool)
    : cost_(cost_model), pool_(pool) {}

double Machine::barrier_max_clock(double my_clock) {
  std::unique_lock<std::mutex> lock(bar_mu_);
  long my_generation = bar_generation_;
  bar_max_ = std::max(bar_max_, my_clock);
  if (++bar_waiting_ == n_procs_) {
    // Last arrival releases the barrier. The release value stays valid for
    // this generation: a subsequent barrier cannot complete (and overwrite
    // it) until every waiter of this one has re-entered.
    bar_release_value_ = bar_max_;
    bar_max_ = 0.0;
    bar_waiting_ = 0;
    ++bar_generation_;
    bar_cv_.notify_all();
    return bar_release_value_;
  }
  bar_cv_.wait(lock, [&] { return bar_generation_ != my_generation; });
  return bar_release_value_;
}

void Machine::count_remap(int64_t bytes) {
  std::lock_guard<std::mutex> lock(stat_mu_);
  ++remaps_;
  remap_bytes_ += bytes;
}

RunResult Machine::run(const SpmdProgram& program) {
  n_procs_ = program.options.n_procs;
  network_ = std::make_unique<Network>(n_procs_);
  contexts_ =
      std::make_shared<std::vector<std::unique_ptr<ProcessorContext>>>();
  // Lowered once, read by every processor.
  const auto lowered =
      std::make_shared<const LoweredProgram>(lower_program(program.ast));
  for (int p = 0; p < n_procs_; ++p)
    contexts_->push_back(std::make_unique<ProcessorContext>(*this, lowered, p));

  if (pool_) {
    // Processor bodies block on each other, so the batch deadlocks unless
    // its concurrency (workers + the caller) covers every processor.
    pool_->ensure_workers(n_procs_ - 1);
    // parallel_for rethrows the lowest-index exception — the same
    // first-error-in-processor-order the thread path reports.
    pool_->parallel_for(static_cast<size_t>(n_procs_), [this](size_t p) {
      (*contexts_)[p]->run();
    });
  } else {
    std::vector<std::thread> threads;
    std::vector<std::exception_ptr> errors(static_cast<size_t>(n_procs_));
    threads.reserve(static_cast<size_t>(n_procs_));
    for (int p = 0; p < n_procs_; ++p) {
      threads.emplace_back([this, p, &errors] {
        try {
          (*contexts_)[static_cast<size_t>(p)]->run();
        } catch (...) {
          errors[static_cast<size_t>(p)] = std::current_exception();
        }
      });
    }
    for (auto& t : threads) t.join();
    for (const auto& err : errors)
      if (err) std::rethrow_exception(err);
  }

  RunResult result;
  result.n_procs = n_procs_;
  result.contexts = contexts_;
  for (int p = 0; p < n_procs_; ++p) {
    const ProcStats& st = (*contexts_)[static_cast<size_t>(p)]->stats();
    result.per_proc.push_back(st);
    result.sim_time_us = std::max(result.sim_time_us, st.clock_us);
  }
  result.messages = network_->total_messages();
  result.bytes = network_->total_bytes();
  result.remaps_executed = remaps_;
  result.remap_bytes = remap_bytes_;
  return result;
}

namespace {

std::vector<double> gather_impl(
    const std::vector<std::unique_ptr<ProcessorContext>>& contexts,
    int /*n_procs*/, const std::string& array, const DecompSpec* spec) {
  std::vector<const EvalCore*> views;
  views.reserve(contexts.size());
  for (const auto& c : contexts) views.push_back(c.get());
  return gather_array(views, array, spec);
}

}  // namespace

std::vector<double> RunResult::gather(const std::string& array) const {
  if (!contexts || contexts->empty())
    throw std::runtime_error("gather: no simulation contexts");
  return gather_impl(*contexts, n_procs, array, nullptr);
}

std::vector<double> RunResult::gather(const std::string& array,
                                      const DecompSpec& spec) const {
  if (!contexts || contexts->empty())
    throw std::runtime_error("gather: no simulation contexts");
  return gather_impl(*contexts, n_procs, array, &spec);
}

double RunResult::gather_scalar(const std::string& name) const {
  const Value* cell = (*contexts)[0]->main_scalar(name);
  if (!cell)
    throw std::runtime_error("gather_scalar: unknown scalar '" + name + "'");
  return cell->as_real();
}

RunResult simulate(const SpmdProgram& program, CostModel cost_model) {
  Machine machine(cost_model);
  return machine.run(program);
}

}  // namespace fortd
