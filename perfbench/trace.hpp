// Spans recorded by the benchmark around every public call it makes into
// the library (Parser::parse_unit, Compiler::compile, print_spmd,
// CompileClient::compile, ExecutionBackend::execute, run_serial_reference,
// run_and_check), kept in memory and written out at the end as Chrome
// trace-event JSON. Each span carries, as numeric args, the counters the
// library already exposes for that call (CompilerStats, IpaStats,
// ContentStore counters, a served reply's timings, ExecResult per_proc).
//
// A disabled Tracer records nothing; a Span on it costs one branch, so the
// untraced run that gives the end-to-end metrics pays nothing measurable.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  std::string layer;  // the module the call enters, "op" for benchmark ops
  std::string label;  // the program the span worked on, if any
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  int tid = 0;
  double start_us = 0.0;  // since the tracer's epoch
  double dur_us = 0.0;
  std::map<std::string, double> args;
};

class Tracer {
 public:
  Tracer();

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Snapshot of every finished span, in finish order.
  std::vector<SpanRecord> spans() const;
  /// Chrome trace-event JSON ("X" complete events, one pid, a tid per
  /// recording thread, parent ids in args).
  std::string chrome_json() const;

 private:
  friend class Span;
  double now_us() const;
  void finish(SpanRecord record);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span: opened on construction, closed on destruction (or end()).
/// Nests under the innermost open span of the same thread.
class Span {
 public:
  Span(Tracer& tracer, const char* layer, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void arg(const std::string& key, double value) {
    if (active_) record_.args[key] = value;
  }
  void label(const std::string& program) {
    if (active_) record_.label = program;
  }
  bool active() const { return active_; }
  void end();

 private:
  Tracer& tracer_;
  bool active_;
  SpanRecord record_;
};

}  // namespace perfbench
