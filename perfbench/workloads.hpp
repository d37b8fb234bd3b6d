// The four workloads of the end-to-end benchmark and the metrics they
// produce. Every workload runs through the library's public API from
// outside, checks each output against an independent reference (a fresh
// cold compile of the same text, the serial run of the original AST, the
// simulator's predicted traffic), and counts every mismatch as a failed
// operation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch;  // per-run temporary directory, removed by the caller
  int nproc = 1;
};

/// build_tail_s is the p75 of the build samples: every workload takes more
/// than 40 per run, so at least ten lie beyond it. The highest such
/// percentile (p95 on serve_edit) moved by a third between runs with the
/// host's CPU steal, beyond the bound the benchmark may set; it is printed
/// in the table. A run with too few samples for the level asked falls back
/// to the highest of p99, p95, p90, p75, p50 with ten beyond it (the
/// maximum, as p100, below twenty samples).
constexpr double kTailLevel = 75.0;

struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  size_t samples = 0;
};

class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  void append(const Samples& other);
  size_t size() const { return values_.size(); }
  double median() const;
  Tail tail(double level) const;

 private:
  std::vector<double> values_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run measured.
struct Outcome {
  Samples setup;    // one sample per repeated set-up
  Samples build;    // source text in -> SPMD text out
  Samples exec;     // threaded-backend executions
  Samples checked;  // source -> compile -> execute -> verified
  double timed_s = 0.0;  // wall time of the measured operations
  long completed = 0;    // operations the measured loop completed
  // Traffic of one execution of each of the workload's base programs.
  int64_t msgs = 0;
  int64_t msg_bytes = 0;
  int64_t remap_bytes = 0;
  double predicted_us = 0.0;

  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;  // "workload/program/check: detail"

  // Traced runs only: the primary operation's durations with tracing off
  // and on, and layer numbers that do not come from spans.
  Samples untraced_primary;
  Samples traced_primary;
  std::map<std::string, double> extra;
};

/// Run `cfg.workload`; throws std::invalid_argument for an unknown name.
Outcome run_workload(const Config& cfg, Tracer& tracer);

/// End-to-end metrics (untraced run), in BENCHMARK.json order.
std::vector<Metric> end_to_end_metrics(const Outcome& out, double peak_rss_mb);

/// Execution and checked-run times: printed with the end-to-end table but
/// not bounded (see BENCHMARK.json's per_layer runtime.* entries).
std::vector<Metric> runtime_metrics(const Outcome& out);

/// Per-layer metrics of a traced run, from its spans. A layer the workload
/// does not exercise reports 0.
std::vector<Metric> layer_metrics(const Outcome& out,
                                  const std::vector<SpanRecord>& spans);

}  // namespace perfbench
