#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "codegen/spmd_printer.hpp"
#include "driver/compiler.hpp"
#include "frontend/parser.hpp"
#include "generator.hpp"
#include "runtime/backend.hpp"
#include "runtime/harness.hpp"
#include "service/client.hpp"
#include "service/compile_service.hpp"

namespace perfbench {

namespace fs = std::filesystem;

namespace {

// Sizes and shares; generator.hpp records why each was chosen.
constexpr int kBuildProcedures = 1500;
constexpr int kServeProcedures = 300;
constexpr int64_t kArrayExtent = 32;
constexpr int kCompileProcs = 4;  // n_procs of the build workloads' output
constexpr int kSetupRepeats = 3;
// serve_edit: the session lock serializes compiles, so two clients keep
// the service busy, and the service compiles serially. In interleaved runs
// on a shared 4-CPU host four clients served fewer requests (23-29/s
// against 29-31/s) with a wider spread, and two clients at jobs = 4 were
// erratic (15-29/s).
constexpr int kServeJobs = 1;
constexpr int kServeClients = 2;
// Build workloads: after the measured loop, a threaded execution of a base
// program follows every kExecEvery-th check, so executions spread over the
// checks; both are then topped up to a minimum count.
constexpr int kExecEvery = 3;
constexpr size_t kMinExecSamples = 20;  // enough for a tail 10 samples beyond p50
constexpr size_t kMinChecked = 5;
constexpr double kEditRepeatShare = 0.25;   // edit_rebuild: unchanged rebuilds
constexpr double kServeRepeatShare = 0.75;  // serve_edit: resubmitted sources
// Deadline on every wait: client round trip, channel operation, drain.
constexpr int kDeadlineMs = 20000;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

uint64_t fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) h = (h ^ c) * 0x100000001b3ull;
  return h ^ s.size();
}

uint64_t dir_bytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec))
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  return total;
}

/// The value of `"key":<number>` in a flat JSON object, or 0.
double json_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle);
  return at == std::string::npos
             ? 0.0
             : std::strtod(json.c_str() + at + needle.size(), nullptr);
}

fortd::CodegenOptions compile_options(int jobs, int procs = kCompileProcs) {
  fortd::CodegenOptions o;
  o.n_procs = procs;
  o.jobs = jobs;
  return o;
}

fortd::RuntimeOptions runtime_options() {
  fortd::RuntimeOptions r;
  r.channel.deadline_ms = kDeadlineMs;
  return r;
}

/// Failure bookkeeping: every failed check names workload, program and
/// check, and every operation counts once in attempted / failed.
class Checks {
 public:
  Checks(std::string workload, Outcome& out)
      : workload_(std::move(workload)), out_(out) {}

  bool expect(bool ok, const std::string& program, const std::string& check,
              const std::string& detail) {
    if (!ok)
      out_.failures.push_back(workload_ + "/" + program + "/" + check + ": " +
                              detail);
    return ok;
  }
  void op(bool ok) {
    ++out_.attempted;
    if (!ok) ++out_.failed;
  }

 private:
  std::string workload_;
  Outcome& out_;
};

fortd::SourceProgram parse(Tracer& tr, const std::string& label,
                           const std::string& source) {
  Span s(tr, "frontend", "Parser::parse_unit");
  s.label(label);
  fortd::DiagnosticEngine diags;
  fortd::Parser parser(source, diags);
  fortd::SourceProgram ast = parser.parse_unit();
  s.arg("procedures", static_cast<double>(ast.procedures.size()));
  return ast;
}

void compile_args(Span& s, const fortd::CompilerStats& st,
                  const fortd::ContentStore* store) {
  if (!s.active()) return;
  s.arg("bind_ms", st.bind_ms);
  s.arg("ipa_ms", st.ipa_ms);
  s.arg("overlap_ms", st.overlap_ms);
  s.arg("codegen_ms", st.codegen_ms);
  s.arg("procedures", st.procedures);
  s.arg("generated", st.generated);
  s.arg("cache_hits", st.cache_hits);
  s.arg("cache_misses", st.cache_misses);
  s.arg("ipa_rounds", st.ipa_rounds);
  s.arg("summaries_computed", st.summaries_computed);
  s.arg("summaries_cached", st.summaries_cached);
  s.arg("sched_tasks", static_cast<double>(st.sched_tasks));
  s.arg("sched_stolen", static_cast<double>(st.sched_stolen));
  s.arg("sched_idle_codegen_ms", st.sched_idle_codegen_ms);
  s.arg("sched_idle_ipa_ms", st.sched_idle_ipa_ms);
  s.arg("disk_hits", st.disk_hits);
  s.arg("disk_misses", st.disk_misses);
  if (store) s.arg("store_writes", static_cast<double>(store->counters().writes));
}

/// A compile whose result is kept: parse, compile, print.
struct Compiled {
  fortd::CompileResult result;
  std::string text;
};

/// One compile as fortdc does it: parse, compile (opening and flushing the
/// cache directory when one is given), print, each call in its own span.
std::unique_ptr<Compiled> compile_kept(Tracer& tr, const std::string& label,
                                       const std::string& source,
                                       const fortd::CodegenOptions& options,
                                       const std::string& cache_dir = "") {
  auto c = std::make_unique<Compiled>();
  fortd::SourceProgram ast = parse(tr, label, source);
  fortd::CacheOptions cache;
  cache.dir = cache_dir;
  std::optional<fortd::Compiler> compiler;
  {
    Span s(tr, "driver", "Compiler::Compiler");
    compiler.emplace(options, fortd::IpaOptions{}, fortd::LintOptions{}, cache);
  }
  {
    Span s(tr, "driver", "Compiler::compile");
    s.label(label);
    c->result = compiler->compile(std::move(ast));
    compile_args(s, c->result.stats, compiler->content_store());
  }
  {
    Span s(tr, "codegen", "print_spmd");
    c->text = fortd::print_spmd(c->result.spmd);
    s.arg("bytes", static_cast<double>(c->text.size()));
  }
  {
    Span s(tr, "driver", "Compiler::~Compiler");
    compiler.reset();
  }
  return c;
}

/// A build: a compile whose result is freed once its text is out.
std::string build(Tracer& tr, const std::string& label, const std::string& source,
                  const fortd::CodegenOptions& options, const std::string& cache_dir) {
  std::unique_ptr<Compiled> c = compile_kept(tr, label, source, options, cache_dir);
  std::string text = std::move(c->text);
  {
    Span s(tr, "driver", "CompileResult::~CompileResult");
    c.reset();
  }
  return text;
}

/// A root span for one measured operation; records process CPU time
/// spent while it was open.
class OpSpan {
 public:
  OpSpan(Tracer& tr, const char* name, const std::string& label)
      : span_(tr, "op", name), cpu0_(span_.active() ? cpu_s() : 0.0),
        t0_(now_s()) {
    span_.label(label);
  }
  /// Close the span; returns its wall time in seconds.
  double end() {
    const double dt = now_s() - t0_;
    if (span_.active()) span_.arg("cpu_s", cpu_s() - cpu0_);
    span_.end();
    return dt;
  }

 private:
  Span span_;
  double cpu0_;
  double t0_;
};

std::string build_op(Tracer& tr, const std::string& label,
                     const std::string& source,
                     const fortd::CodegenOptions& options,
                     const std::string& cache_dir, double* seconds) {
  OpSpan op(tr, "build", "mix");
  std::string text = build(tr, label, source, options, cache_dir);
  *seconds = op.end();
  return text;
}

fortd::ExecResult execute(Tracer& tr, const std::string& label,
                          const fortd::SpmdProgram& spmd,
                          fortd::BackendKind kind) {
  const bool threaded = kind == fortd::BackendKind::Threaded;
  Span s(tr, threaded ? "runtime" : "machine", "ExecutionBackend::execute");
  s.label(label);
  fortd::ExecResult r = fortd::make_backend(kind, runtime_options())->execute(spmd);
  if (s.active()) {
    s.arg("messages", static_cast<double>(r.messages));
    s.arg("bytes", static_cast<double>(r.bytes));
    s.arg("remap_bytes", static_cast<double>(r.remap_bytes));
    s.arg("sim_time_us", r.sim_time_us);
    double iterations = 0.0, max_sends = 0.0;
    for (size_t p = 0; p < r.per_proc.size(); ++p) {
      const fortd::ProcStats& ps = r.per_proc[p];
      const std::string key = "p" + std::to_string(p) + ".";
      s.arg(key + "iterations", static_cast<double>(ps.iterations));
      s.arg(key + "flops", static_cast<double>(ps.flops));
      s.arg(key + "sends", static_cast<double>(ps.sends));
      s.arg(key + "recvs", static_cast<double>(ps.recvs));
      s.arg(key + "sent_bytes", static_cast<double>(ps.sent_bytes));
      iterations += static_cast<double>(ps.iterations);
      max_sends = std::max(max_sends, static_cast<double>(ps.sends));
    }
    s.arg("iterations", iterations);
    s.arg("max_proc_sends", max_sends);
  }
  return r;
}

/// A verified reference for one source: its original AST, a fresh cold
/// compile, and the differential harness's report on that compile.
struct Reference {
  fortd::SourceProgram ast;
  std::unique_ptr<Compiled> compiled;
  fortd::HarnessReport report;
};

struct CheckedRun {
  std::unique_ptr<Reference> ref;
  double build_s = 0.0;  // source -> SPMD text
  double total_s = 0.0;  // source -> verified
  std::string error;     // non-empty when a call threw
};

/// Source -> compile -> execute -> verified, as `fortdc -run` does it:
/// a cold compile with no cache, then run_and_check on the threaded
/// backend against the serial run of the original AST and the simulator.
CheckedRun checked_run(Tracer& tr, const char* op_name,
                       const std::string& label, const std::string& source,
                       int procs, int jobs) {
  CheckedRun run;
  OpSpan op(tr, op_name, label);
  const double t0 = now_s();
  try {
    auto ref = std::make_unique<Reference>();
    ref->compiled = compile_kept(tr, label, source, compile_options(jobs, procs));
    run.build_s = now_s() - t0;
    ref->ast = parse(tr, label, source);
    fortd::HarnessOptions ho;
    ho.runtime = runtime_options();
    {
      Span s(tr, "runtime", "run_and_check");
      s.label(label);
      ref->report = fortd::run_and_check(ref->ast, ref->compiled->result.spmd, ho);
      s.arg("ok", ref->report.ok() ? 1 : 0);
      s.arg("max_abs_err", ref->report.max_abs_err);
      s.arg("arrays_checked", ref->report.arrays_checked);
    }
    run.ref = std::move(ref);
  } catch (const std::exception& e) {
    run.error = e.what();
  }
  run.total_s = op.end();
  return run;
}

std::string first_failure(const fortd::HarnessReport& report) {
  return report.failures.empty() ? "failed" : report.failures.front();
}

/// True when `got` is the same execution the reference verified: traffic
/// equal to the simulator's prediction, arrays bitwise equal.
bool same_execution(const fortd::ExecResult& got, const Reference& ref,
                    std::string* why) {
  const fortd::ExecResult& want = ref.report.predicted;
  if (got.messages != want.messages || got.bytes != want.bytes ||
      got.remap_bytes != want.remap_bytes) {
    *why = "traffic " + std::to_string(got.messages) + " msgs/" +
           std::to_string(got.bytes) + " B/" + std::to_string(got.remap_bytes) +
           " remap B, predicted " + std::to_string(want.messages) + "/" +
           std::to_string(want.bytes) + "/" + std::to_string(want.remap_bytes);
    return false;
  }
  for (const std::string& name : ref.report.run.main_arrays()) {
    if (got.gather(name) != ref.report.run.gather(name)) {
      *why = "array '" + name + "' differs from the verified run";
      return false;
    }
  }
  return true;
}

/// Every distinct source a build workload built, and how often each
/// output (by hash) came back for it.
struct BuildLog {
  struct Entry {
    std::string label;
    std::string source;
    std::map<uint64_t, long> outputs;
  };
  std::map<uint64_t, Entry> entries;
  std::vector<uint64_t> order;  // first-seen order

  void record(const std::string& label, const std::string& source,
              std::optional<uint64_t> output) {
    const uint64_t key = fnv1a(source);
    auto [it, fresh] = entries.try_emplace(key);
    if (fresh) {
      it->second.label = label;
      it->second.source = source;
      order.push_back(key);
    }
    if (output) ++it->second.outputs[*output];
  }
  void merge(const BuildLog& other) {
    for (uint64_t key : other.order) {
      const Entry& e = other.entries.at(key);
      record(e.label, e.source, std::nullopt);
      for (const auto& [hash, count] : e.outputs)
        entries[key].outputs[hash] += count;
    }
  }
};

/// A build workload's base program with its verified reference: a cold
/// compile checked by run_and_check. The base programs' traffic is the
/// traffic the workload reports.
struct Base {
  NamedProgram program;
  std::unique_ptr<Reference> ref;
};

std::vector<Base> verified_bases(const Config& cfg, Tracer& tr, Outcome& out,
                                 Checks& checks, const std::vector<NamedProgram>& programs) {
  std::vector<Base> bases;
  for (const NamedProgram& p : programs) {
    CheckedRun run = checked_run(tr, "verify", "mix", p.source, kCompileProcs, cfg.nproc);
    bool ok = checks.expect(run.error.empty(), p.name, "checked-run", run.error) &&
              checks.expect(run.ref->report.ok(), p.name, "run_and_check",
                            first_failure(run.ref->report));
    checks.op(ok);
    if (!ok) throw std::runtime_error(p.name + ": the base program failed its check");
    out.checked.add(run.total_s);
    const fortd::HarnessReport& report = run.ref->report;
    out.msgs += report.run.messages;
    out.msg_bytes += report.run.bytes;
    out.remap_bytes += report.run.remap_bytes;
    const fortd::ExecResult sim = execute(tr, "mix", run.ref->compiled->result.spmd,
                                          fortd::BackendKind::Simulator);
    out.predicted_us += sim.sim_time_us;
    bases.push_back({p, std::move(run.ref)});
  }
  return bases;
}

/// One timed threaded execution of a verified program, checked against
/// the run the harness verified.
void exec_sample(Tracer& tr, Outcome& out, Checks& checks, const std::string& label,
                 const Reference& ref) {
  bool ok = true;
  OpSpan op(tr, "exec", label);
  try {
    const fortd::ExecResult r =
        execute(tr, label, ref.compiled->result.spmd, fortd::BackendKind::Threaded);
    const double dt = op.end();
    std::string why;
    ok = checks.expect(same_execution(r, ref, &why), label, "exec-matches-verified", why);
    if (ok) out.exec.add(dt);
  } catch (const std::exception& e) {
    ok = checks.expect(false, label, "exec", e.what());
  }
  checks.op(ok);
}

/// A checked run of a base program again: source -> verified, expected to
/// reproduce the base's first compile byte for byte.
void base_check(const Config& cfg, Tracer& tr, Outcome& out, Checks& checks,
                const Base& base) {
  CheckedRun run = checked_run(tr, "verify", "mix", base.program.source, kCompileProcs,
                               cfg.nproc);
  const bool ok =
      checks.expect(run.error.empty(), base.program.name, "checked-run", run.error) &&
      checks.expect(run.ref->report.ok(), base.program.name, "run_and_check",
                    first_failure(run.ref->report)) &&
      checks.expect(run.ref->compiled->text == base.ref->compiled->text, base.program.name,
                    "byte-identical-to-cold", "a second cold compile differs from the first");
  checks.op(ok);
  if (ok) out.checked.add(run.total_s);
}

/// The checks of a build workload after its measured loop: every distinct
/// source, and every base program, gets one checked run (a fresh cold
/// compile plus run_and_check), and every output built from a source must
/// equal that compile byte for byte. Threaded executions of the base
/// programs give the workload's execution times.
void verify_builds(const Config& cfg, Tracer& tr, Outcome& out, Checks& checks,
                   const BuildLog& log, const std::vector<NamedProgram>& programs) {
  const std::vector<Base> bases = verified_bases(cfg, tr, out, checks, programs);
  size_t checked = 0;
  auto compare = [&](const BuildLog::Entry& e, const std::string& cold_text) {
    const uint64_t cold = fnv1a(cold_text);
    for (const auto& [hash, count] : e.outputs) {
      if (hash == cold) continue;
      checks.expect(false, e.label, "byte-identical-to-cold",
                    std::to_string(count) +
                        " build(s) returned SPMD text that differs from a fresh "
                        "cold compile of the same source");
      out.failed += count;
    }
  };
  for (uint64_t key : log.order) {
    const BuildLog::Entry& e = log.entries.at(key);
    auto base = std::find_if(bases.begin(), bases.end(), [&](const Base& b) {
      return b.program.source == e.source;
    });
    if (base != bases.end()) {
      compare(e, base->ref->compiled->text);
      continue;
    }
    CheckedRun run = checked_run(tr, "verify", "mix", e.source, kCompileProcs, cfg.nproc);
    bool ok = checks.expect(run.error.empty(), e.label, "checked-run", run.error);
    if (ok) {
      out.checked.add(run.total_s);
      ok = checks.expect(run.ref->report.ok(), e.label, "run_and_check",
                         first_failure(run.ref->report));
      compare(e, run.ref->compiled->text);
    }
    checks.op(ok);
    if (++checked % kExecEvery == 0)
      exec_sample(tr, out, checks, "mix", *bases[checked / kExecEvery % bases.size()].ref);
  }
  for (size_t i = 0; out.checked.size() < kMinChecked && i < 2 * kMinChecked; ++i)
    base_check(cfg, tr, out, checks, bases[i % bases.size()]);
  for (size_t i = 0; out.exec.size() < kMinExecSamples && i < 2 * kMinExecSamples; ++i)
    exec_sample(tr, out, checks, "mix", *bases[i % bases.size()].ref);
}

/// Byte-identical output at jobs = 1 and jobs = nproc: the preflight guard
/// that keeps count metrics exactly repeatable.
void preflight_guard(const Config& cfg, Tracer& tr, Checks& checks,
                     const NamedProgram& p, int procs) {
  bool ok = false;
  try {
    const auto serial = compile_kept(tr, p.name, p.source, compile_options(1, procs));
    const auto parallel =
        compile_kept(tr, p.name, p.source, compile_options(cfg.nproc, procs));
    ok = checks.expect(serial->text == parallel->text, p.name, "jobs-determinism",
                       "jobs=1 and jobs=" + std::to_string(cfg.nproc) +
                           " produced different SPMD text");
  } catch (const std::exception& e) {
    checks.expect(false, p.name, "preflight-compile", e.what());
  }
  checks.op(ok);
}

void repeated_setup(Tracer& tr, Outcome& out,
                    const std::function<void(int, bool)>& once) {
  for (int i = 0; i < kSetupRepeats; ++i) {
    OpSpan op(tr, "setup", "");
    once(i, i + 1 == kSetupRepeats);
    out.setup.add(op.end());
  }
}

/// The measured loop: once, untraced, for the whole run in a normal run;
/// in a traced run once untraced and once traced, half the time each, so
/// the run reports its own tracing overhead.
void measure(const Config& cfg, Tracer& tr, Outcome& out,
             const std::function<Samples(double)>& pass) {
  if (!cfg.trace) {
    pass(cfg.seconds);
    return;
  }
  tr.set_enabled(false);
  out.untraced_primary = pass(cfg.seconds / 2);
  tr.set_enabled(true);
  out.traced_primary = pass(cfg.seconds / 2);
}

NamedProgram mix_for(uint64_t seed, int procedures, const std::string& name) {
  return {name, mix_program(mix_shape(seed, procedures, kArrayExtent))};
}

/// The measured loop of cold_build and edit_rebuild: closed-loop builds,
/// one at a time.
void build_loop(const Config& cfg, Tracer& tr, Outcome& out, Checks& checks,
                const std::function<NamedProgram()>& next, const std::string& cache_dir,
                BuildLog& log) {
  const fortd::CodegenOptions options = compile_options(cfg.nproc);
  measure(cfg, tr, out, [&](double seconds) {
    Samples primary;
    const double end = now_s() + seconds;
    while (now_s() < end) {
      const NamedProgram p = next();
      double dt = 0.0;
      bool ok = true;
      try {
        const std::string text = build_op(tr, p.name, p.source, options, cache_dir, &dt);
        log.record(p.name, p.source, fnv1a(text));
        out.build.add(dt);
        primary.add(dt);
        out.timed_s += dt;
        ++out.completed;
      } catch (const std::exception& e) {
        ok = checks.expect(false, p.name, "build", e.what());
      }
      checks.op(ok);
    }
    return primary;
  });
}

void cold_build(const Config& cfg, Tracer& tr, Outcome& out, Checks& checks) {
  NamedProgram mix = mix_for(cfg.seed, kBuildProcedures, "mix");
  preflight_guard(cfg, tr, checks, mix, kCompileProcs);
  // No cache directory: writing ~3000 blobs per build measures the shared
  // disk's metadata latency more than the compiler (see generator.hpp).
  repeated_setup(tr, out, [&](int, bool) {
    mix = mix_for(cfg.seed, kBuildProcedures, "mix");
    build(tr, mix.name, mix.source, compile_options(cfg.nproc), "");  // warms allocator
  });
  BuildLog log;
  build_loop(cfg, tr, out, checks, [&] { return mix; }, "", log);
  verify_builds(cfg, tr, out, checks, log, {mix});
}

void edit_rebuild(const Config& cfg, Tracer& tr, Outcome& out, Checks& checks) {
  NamedProgram mix = mix_for(cfg.seed, kBuildProcedures, "mix");
  preflight_guard(cfg, tr, checks, mix, kCompileProcs);
  // Each set-up warms its own directory; the spare ones are removed with
  // the run's scratch directory, since mass deletion slows the file
  // system for the builds that follow.
  std::string warm_dir;
  repeated_setup(tr, out, [&](int i, bool) {
    mix = mix_for(cfg.seed, kBuildProcedures, "mix");
    warm_dir = cfg.scratch + "/warm-" + std::to_string(i);
    build(tr, mix.name, mix.source, compile_options(cfg.nproc), warm_dir);
  });
  EditStream edits(cfg.seed, mix.source, kEditRepeatShare);
  BuildLog log;
  build_loop(cfg, tr, out, checks, [&] {
    NamedProgram p;
    const Edit edit = edits.next(&p.source);
    p.name = edit.procedure.empty() ? "mix repeat"
                                    : "mix edit " + edit.procedure + "=" + edit.coefficient;
    return p;
  }, warm_dir, log);
  out.extra["compilation_db.bytes_on_disk"] = static_cast<double>(dir_bytes(warm_dir));
  verify_builds(cfg, tr, out, checks, log, {mix});
}

void stop_service(std::unique_ptr<fortd::service::CompileService>& service) {
  auto drained = std::async(std::launch::async, [&service] { service->drain(); });
  if (drained.wait_for(std::chrono::milliseconds(kDeadlineMs)) !=
      std::future_status::ready) {
    // A drain that never finishes cannot be joined; name it and leave.
    std::fprintf(stderr, "perfbench: serve_edit/service/drain: not drained within %d ms\n",
                 kDeadlineMs);
    std::fflush(stderr);
    std::_Exit(3);
  }
  service->stop();
  service.reset();
}

void serve_edit(const Config& cfg, Tracer& tr, Outcome& out, Checks& checks) {
  const int clients = std::min(kServeClients, cfg.nproc);
  auto client_seed = [&](int c) {
    return cfg.seed * 0x100000001b3ull + static_cast<uint64_t>(c) + 1;
  };
  std::vector<NamedProgram> bases;
  for (int c = 0; c < clients; ++c)
    bases.push_back(mix_for(client_seed(c), kServeProcedures, "client" + std::to_string(c)));
  for (const NamedProgram& b : bases) preflight_guard(cfg, tr, checks, b, kCompileProcs);

  fortd::remote::CompileOptionsWire copts;  // one shared option set
  copts.n_procs = kCompileProcs;
  copts.want_timings = 1;
  copts.deadline_ms = kDeadlineMs;
  std::unique_ptr<fortd::service::CompileService> service;
  auto client_options = [&] {
    fortd::service::ClientOptions co;
    co.port = service->port();
    co.timeout_ms = kDeadlineMs;
    return co;
  };

  repeated_setup(tr, out, [&](int, bool last) {
    bases.clear();
    for (int c = 0; c < clients; ++c)
      bases.push_back(mix_for(client_seed(c), kServeProcedures, "client" + std::to_string(c)));
    fortd::service::ServiceOptions so;
    so.port = 0;  // ephemeral
    so.jobs = kServeJobs;
    so.executors = clients;
    so.default_deadline_ms = kDeadlineMs;
    service = std::make_unique<fortd::service::CompileService>(so);
    std::string err;
    if (!service->start(&err)) throw std::runtime_error("service start: " + err);
    fortd::service::CompileClient client(client_options());
    for (const NamedProgram& b : bases) {
      std::string reason;
      const auto reply = client.compile(b.source, copts, &reason);
      if (!reply || reply->status != 0)
        throw std::runtime_error("service warm-up of " + b.name + ": " +
                                 (reply ? reply->diagnostics : reason));
    }
    if (!last) stop_service(service);
  });

  struct ClientLog {
    std::unique_ptr<EditStream> edits;
    Samples samples;
    BuildLog log;
    std::vector<std::pair<std::string, std::string>> failures;  // program, detail
    long attempted = 0;
  };
  std::vector<ClientLog> logs(clients);
  for (int c = 0; c < clients; ++c)
    logs[c].edits = std::make_unique<EditStream>(client_seed(c), bases[c].source, kServeRepeatShare);

  measure(cfg, tr, out, [&](double seconds) {
    const double start = now_s(), end = start + seconds;
    std::vector<Samples> pass(clients);
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        ClientLog& cl = logs[c];
        fortd::service::CompileClient client(client_options());
        while (now_s() < end) {
          std::string source;
          const Edit edit = cl.edits->next(&source);
          const std::string label =
              bases[c].name + (edit.procedure.empty()
                                   ? " repeat"
                                   : " edit " + edit.procedure + "=" + edit.coefficient);
          OpSpan op(tr, "served_build", "mix");
          std::optional<fortd::remote::CompileReplyWire> reply;
          std::string reason;
          {
            Span s(tr, "service", "CompileClient::compile");
            s.label(bases[c].name);
            reply = client.compile(source, copts, &reason);
            if (reply && s.active()) {
              for (const char* key : {"queue_ms", "parse_ms", "compile_ms", "bind_ms",
                                      "ipa_ms", "overlap_ms", "codegen_ms"})
                s.arg(key, json_number(reply->timings_json, key));
              s.arg("parsed_procedures", reply->parsed_procedures);
              s.arg("generated", reply->generated);
              s.arg("summaries_computed", reply->summaries_computed);
            }
          }
          const double dt = op.end();
          ++cl.attempted;
          if (!reply) {
            cl.failures.emplace_back(label, "no reply: " + reason);
          } else if (reply->status != 0) {
            cl.failures.emplace_back(label, "compile failed: " + reply->diagnostics);
          } else {
            cl.log.record(label, source, fnv1a(reply->spmd));
            cl.samples.add(dt);
            pass[c].add(dt);
          }
        }
      });
    }
    for (std::thread& t : threads) t.join();
    out.timed_s += now_s() - start;
    Samples primary;
    for (const Samples& s : pass) primary.append(s);
    out.completed += static_cast<long>(primary.size());
    return primary;
  });

  BuildLog log;
  for (ClientLog& cl : logs) {
    out.build.append(cl.samples);
    log.merge(cl.log);
    out.attempted += cl.attempted;
    out.failed += static_cast<long>(cl.failures.size());
    for (const auto& [program, detail] : cl.failures)
      checks.expect(false, program, "served-reply", detail);
  }
  std::string metrics;
  {
    Span s(tr, "service", "CompileService::metrics_json");
    metrics = service->metrics_json();
  }
  const std::string ast = metrics.substr(std::min(metrics.size(), metrics.find("\"ast_cache\"")));
  const double ast_hits = json_number(ast, "hits");
  const double ast_misses = json_number(ast, "misses");
  out.extra["service.ast_hit_ratio"] =
      ast_hits + ast_misses > 0 ? ast_hits / (ast_hits + ast_misses) : 0.0;
  out.extra["service.rejected"] = json_number(metrics, "rejected");
  out.extra["service.expired"] = json_number(metrics, "deadline_expired");
  stop_service(service);
  verify_builds(cfg, tr, out, checks, log, bases);
}

void spmd_run(const Config& cfg, Tracer& tr, Outcome& out, Checks& checks) {
  const int procs = std::min(4, cfg.nproc);
  std::vector<NamedProgram> programs = spmd_programs(cfg.seed);
  for (const NamedProgram& p : programs) preflight_guard(cfg, tr, checks, p, procs);

  std::vector<std::unique_ptr<Reference>> refs(programs.size());
  repeated_setup(tr, out, [&](int, bool last) {
    programs = spmd_programs(cfg.seed);
    out.msgs = out.msg_bytes = out.remap_bytes = 0;
    out.predicted_us = 0.0;
    for (size_t i = 0; i < programs.size(); ++i) {
      const NamedProgram& p = programs[i];
      CheckedRun run = checked_run(tr, "checked_run", p.name, p.source, procs, cfg.nproc);
      if (!run.error.empty() || !run.ref->report.ok())
        throw std::runtime_error("spmd_run/" + p.name + "/setup-check: " +
                                 (run.error.empty() ? first_failure(run.ref->report)
                                                    : run.error));
      {
        Span s(tr, "runtime", "run_serial_reference");
        s.label(p.name);
        fortd::run_serial_reference(run.ref->ast);
      }
      const fortd::ExecResult sim = execute(tr, p.name, run.ref->compiled->result.spmd,
                                            fortd::BackendKind::Simulator);
      out.msgs += sim.messages;
      out.msg_bytes += sim.bytes;
      out.remap_bytes += sim.remap_bytes;
      out.predicted_us += sim.sim_time_us;
      if (last) refs[i] = std::move(run.ref);
    }
  });

  Rng order_rng(cfg.seed ^ 0x6f72646572ull);
  std::vector<size_t> order(programs.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  measure(cfg, tr, out, [&](double seconds) {
    Samples primary;
    const double start = now_s(), end = start + seconds;
    do {
      for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[order_rng.next() % i]);
      for (size_t i : order) {
        const NamedProgram& p = programs[i];
        const Reference& ref = *refs[i];
        exec_sample(tr, out, checks, p.name, ref);
        CheckedRun run = checked_run(tr, "checked_run", p.name, p.source, procs, cfg.nproc);
        bool ok = checks.expect(run.error.empty(), p.name, "checked-run", run.error);
        if (ok) {
          ok = checks.expect(run.ref->report.ok(), p.name, "run_and_check",
                             first_failure(run.ref->report)) &&
               checks.expect(run.ref->compiled->text == ref.compiled->text, p.name,
                             "byte-identical-to-cold",
                             "a fresh compile differs from the set-up compile");
        }
        if (ok) {
          out.build.add(run.build_s);
          out.checked.add(run.total_s);
          primary.add(run.total_s);
          ++out.completed;
        }
        checks.op(ok);
      }
    } while (now_s() < end);
    out.timed_s += now_s() - start;
    return primary;
  });
}

}  // namespace

void Samples::append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::median() const {
  if (values_.empty()) return 0.0;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail Samples::tail(double level) const {
  Tail t;
  t.samples = values_.size();
  if (values_.empty()) return t;
  std::vector<double> v = values_;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (double p : {level, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (n * (1.0 - p / 100.0) < 10.0) continue;
    const size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    t.value = v[std::max<size_t>(rank, 1) - 1];
    t.percentile = p;
    return t;
  }
  t.value = v.back();
  t.percentile = 100.0;
  return t;
}

Outcome run_workload(const Config& cfg, Tracer& tracer) {
  Outcome out;
  Checks checks(cfg.workload, out);
  tracer.set_enabled(cfg.trace);
  if (cfg.workload == "cold_build") cold_build(cfg, tracer, out, checks);
  else if (cfg.workload == "edit_rebuild") edit_rebuild(cfg, tracer, out, checks);
  else if (cfg.workload == "serve_edit") serve_edit(cfg, tracer, out, checks);
  else if (cfg.workload == "spmd_run") spmd_run(cfg, tracer, out, checks);
  else throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
  tracer.set_enabled(false);
  return out;
}

std::vector<Metric> end_to_end_metrics(const Outcome& out, double peak_rss_mb) {
  return {
      {"setup_s", out.setup.median(), "s"},
      {"build_p50_s", out.build.median(), "s"},
      {"build_tail_s", out.build.tail(kTailLevel).value, "s"},
      {"throughput_rps", out.timed_s > 0 ? out.completed / out.timed_s : 0.0, "1/s"},
      {"msgs", static_cast<double>(out.msgs), "count"},
      {"msg_bytes", static_cast<double>(out.msg_bytes), "bytes"},
      {"remap_bytes", static_cast<double>(out.remap_bytes), "bytes"},
      {"predicted_us", out.predicted_us, "sim_us"},  // simulated, so it repeats exactly
      {"peak_rss_mb", peak_rss_mb, "MB"},
  };
}

std::vector<Metric> runtime_metrics(const Outcome& out) {
  return {
      {"runtime.exec_p50_s", out.exec.median(), "s"},
      {"runtime.exec_tail_s", out.exec.tail(50.0).value, "s"},
      {"runtime.checked_run_p50_s", out.checked.median(), "s"},
  };
}

namespace {

/// Index over a traced run's spans: parent links and root-op names.
class SpanIndex {
 public:
  explicit SpanIndex(const std::vector<SpanRecord>& spans) : spans_(spans) {
    for (const SpanRecord& s : spans_) by_id_[s.id] = &s;
    for (const SpanRecord& s : spans_)
      if (s.parent) child_us_[s.parent] += s.dur_us;
  }

  const SpanRecord* root(const SpanRecord& s) const {
    const SpanRecord* r = &s;
    while (r->parent) {
      auto it = by_id_.find(r->parent);
      if (it == by_id_.end()) break;
      r = it->second;
    }
    return r;
  }

  /// Spans named `name` (and of `layer`, if given) under a root op in
  /// `roots` (any root when empty).
  std::vector<const SpanRecord*> find(const std::string& name,
                                      const std::set<std::string>& roots,
                                      const std::string& layer = "") const {
    std::vector<const SpanRecord*> found;
    for (const SpanRecord& s : spans_) {
      if (s.name != name || (!layer.empty() && s.layer != layer)) continue;
      if (!roots.empty() && !roots.count(root(s)->name)) continue;
      found.push_back(&s);
    }
    return found;
  }

  double child_us(const SpanRecord& s) const {
    auto it = child_us_.find(s.id);
    return it == child_us_.end() ? 0.0 : it->second;
  }

 private:
  const std::vector<SpanRecord>& spans_;
  std::map<uint64_t, const SpanRecord*> by_id_;
  std::map<uint64_t, double> child_us_;
};

double arg(const SpanRecord& s, const std::string& key) {
  auto it = s.args.find(key);
  return it == s.args.end() ? 0.0 : it->second;
}

double median_of(const std::vector<const SpanRecord*>& spans,
                 const std::function<double(const SpanRecord&)>& f) {
  Samples s;
  for (const SpanRecord* r : spans) s.add(f(*r));
  return s.median();
}

double ratio_of(const std::vector<const SpanRecord*>& spans, const std::string& hit,
                const std::string& miss) {
  double h = 0.0, m = 0.0;
  for (const SpanRecord* r : spans) {
    h += arg(*r, hit);
    m += arg(*r, miss);
  }
  return h + m > 0 ? h / (h + m) : 0.0;
}

}  // namespace

std::vector<Metric> layer_metrics(const Outcome& out,
                                  const std::vector<SpanRecord>& spans) {
  const SpanIndex index(spans);
  // Root ops of the measured loop: builds, served builds and checked runs.
  const std::set<std::string> timed = {"build", "served_build", "checked_run"};
  const auto parses = index.find("Parser::parse_unit", timed);
  const auto compiles = index.find("Compiler::compile", timed);
  const auto prints = index.find("print_spmd", timed);
  const auto served = index.find("CompileClient::compile", {"served_build"});
  const auto execs = index.find("ExecutionBackend::execute", {"exec"}, "runtime");
  const auto sims = index.find("ExecutionBackend::execute", {}, "machine");
  const auto serials = index.find("run_serial_reference", {});
  std::vector<const SpanRecord*> ops;
  for (const std::string& name : timed)
    for (const SpanRecord* s : index.find(name, {}, "op"))
      if (!s->parent) ops.push_back(s);

  const bool serve = !served.empty();
  // A compile-side number: from Compiler::compile spans, or from the
  // served replies' timings when the compile ran inside the service.
  auto compile_med = [&](const std::string& key, double scale) {
    const auto& from = serve ? served : compiles;
    return median_of(from, [&](const SpanRecord& r) { return arg(r, key) * scale; });
  };
  auto dur_s = [](const SpanRecord& r) { return r.dur_us * 1e-6; };
  auto extra = [&](const std::string& key) {
    auto it = out.extra.find(key);
    return it == out.extra.end() ? 0.0 : it->second;
  };

  std::vector<Metric> m;
  m.push_back({"frontend.parse_s",
               serve ? compile_med("parse_ms", 1e-3) : median_of(parses, dur_s), "s"});
  m.push_back({"frontend.procedures_parsed",
               serve ? compile_med("parsed_procedures", 1)
                     : median_of(parses, [&](const SpanRecord& r) { return arg(r, "procedures"); }),
               "count"});
  m.push_back({"ir.bind_s", compile_med("bind_ms", 1e-3), "s"});
  m.push_back({"ipa.run_s", compile_med("ipa_ms", 1e-3), "s"});
  m.push_back({"ipa.overlap_s", compile_med("overlap_ms", 1e-3), "s"});
  m.push_back({"ipa.rounds", compile_med("ipa_rounds", 1), "count"});
  m.push_back({"ipa.summaries_computed", compile_med("summaries_computed", 1), "count"});
  m.push_back({"ipa.summaries_cached", compile_med("summaries_cached", 1), "count"});
  m.push_back({"codegen.generate_s", compile_med("codegen_ms", 1e-3), "s"});
  m.push_back({"codegen.generated", compile_med("generated", 1), "count"});
  m.push_back({"codegen.cache_hit_ratio", ratio_of(compiles, "cache_hits", "cache_misses"),
               "ratio"});
  m.push_back({"codegen.print_s", median_of(prints, dur_s), "s"});
  m.push_back({"sched.cpu_per_wall",
               median_of(ops, [](const SpanRecord& r) {
                 return r.dur_us > 0 ? arg(r, "cpu_s") / (r.dur_us * 1e-6) : 0.0;
               }),
               "ratio"});
  m.push_back({"sched.idle_codegen_s", compile_med("sched_idle_codegen_ms", 1e-3), "s"});
  m.push_back({"sched.idle_ipa_s", compile_med("sched_idle_ipa_ms", 1e-3), "s"});
  m.push_back({"sched.stolen", compile_med("sched_stolen", 1), "count"});
  m.push_back({"compilation_db.hits", compile_med("disk_hits", 1), "count"});
  m.push_back({"compilation_db.misses", compile_med("disk_misses", 1), "count"});
  m.push_back({"compilation_db.writes", compile_med("store_writes", 1), "count"});
  m.push_back({"compilation_db.hit_ratio", ratio_of(compiles, "disk_hits", "disk_misses"),
               "ratio"});
  m.push_back({"compilation_db.bytes_on_disk", extra("compilation_db.bytes_on_disk"), "bytes"});
  m.push_back({"service.roundtrip_s", median_of(served, dur_s), "s"});
  m.push_back({"service.queue_s",
               median_of(served, [](const SpanRecord& r) { return arg(r, "queue_ms") * 1e-3; }),
               "s"});
  m.push_back({"service.compile_s",
               median_of(served, [](const SpanRecord& r) { return arg(r, "compile_ms") * 1e-3; }),
               "s"});
  m.push_back({"service.wire_s",
               median_of(served,
                         [](const SpanRecord& r) {
                           return r.dur_us * 1e-6 - 1e-3 * (arg(r, "queue_ms") +
                                                            arg(r, "parse_ms") +
                                                            arg(r, "compile_ms"));
                         }),
               "s"});
  m.push_back({"service.ast_hit_ratio", extra("service.ast_hit_ratio"), "ratio"});
  m.push_back({"service.rejected", extra("service.rejected"), "count"});
  m.push_back({"service.expired", extra("service.expired"), "count"});

  std::map<std::string, std::vector<const SpanRecord*>> by_program;
  for (const SpanRecord* s : execs) by_program[s->label].push_back(s);
  for (const char* p : {"mix", "jacobi", "adi", "stencil2d", "redistribution", "dgefa"})
    m.push_back({std::string("runtime.exec_s.") + p, median_of(by_program[p], dur_s), "s"});
  for (const Metric& r : runtime_metrics(out)) m.push_back(r);
  m.push_back({"runtime.serial_ref_s", median_of(serials, dur_s), "s"});
  m.push_back({"runtime.ns_per_iteration",
               median_of(execs,
                         [](const SpanRecord& r) {
                           const double it = arg(r, "iterations");
                           return it > 0 ? r.dur_us * 1e3 / it : 0.0;
                         }),
               "ns"});
  double iterations = 0.0, max_sends = 0.0;
  for (const auto& [program, list] : by_program) {
    iterations += median_of(list, [](const SpanRecord& r) { return arg(r, "iterations"); });
    for (const SpanRecord* r : list) max_sends = std::max(max_sends, arg(*r, "max_proc_sends"));
  }
  m.push_back({"runtime.iterations", iterations, "count"});
  m.push_back({"runtime.max_proc_sends", max_sends, "count"});
  m.push_back({"machine.simulate_s", median_of(sims, dur_s), "s"});
  m.push_back({"trace.coverage",
               median_of(ops,
                         [&](const SpanRecord& r) {
                           return r.dur_us > 0 ? index.child_us(r) / r.dur_us : 0.0;
                         }),
               "ratio"});
  m.push_back({"trace.overhead_s",
               out.traced_primary.median() - out.untraced_primary.median(), "s"});
  return m;
}

}  // namespace perfbench
