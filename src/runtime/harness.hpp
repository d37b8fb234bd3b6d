// The differential execution harness (the NASA debugging-support shape):
// execute the compiled SPMD program once on the engine, diff its numeric
// results against a serial execution of the *original* program, and check
// that its traffic balances — every message and payload byte one process
// sent, another received. The engine's logical clocks price the same
// execution, so the report also carries the paper's Fig. 11/16/17
// quantities: message counts, bytes, remaps and predicted time. Exact
// values for known programs are pinned by tests/test_cost_pins.cpp and
// tests/test_bench_pins.cpp.
#pragma once

#include <string>
#include <vector>

#include "runtime/backend.hpp"

namespace fortd {

struct HarnessOptions {
  RuntimeOptions runtime;
  /// Absolute tolerance for the serial diff. Parallel reductions combine
  /// in a fixed rank order, so everything except reduction round-off is
  /// expected bit-identical.
  double tolerance = 1e-9;
};

struct HarnessReport {
  ExecResult run;        // the engine's execution
  ExecResult predicted;  // the same execution, as the verified traffic and
                         // time a later execution must reproduce
  ExecResult serial;     // serial reference of the original program

  bool numerics_ok = true;
  bool counts_ok = true;
  double max_abs_err = 0.0;
  int arrays_checked = 0;
  int scalars_checked = 0;
  std::vector<std::string> failures;

  bool ok() const { return numerics_ok && counts_ok; }
  /// Human-readable multi-line summary (one line per check).
  std::string text() const;
};

/// Execute `spmd` once on the engine and validate it against the serial
/// execution of `original` (the pre-codegen program) and its own traffic
/// balance.
HarnessReport run_and_check(const SourceProgram& original,
                            const SpmdProgram& spmd,
                            const HarnessOptions& options = {});

}  // namespace fortd
