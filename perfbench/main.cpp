// fortd_perfbench — the repository's end-to-end benchmark program.
//
//   fortd_perfbench --workload <cold_build|edit_rebuild|serve_edit|spmd_run>
//                   --seed N --seconds S --trace 0|1 --scratch DIR
//                   [--report-dir DIR]
//   fortd_perfbench --self-test
//
// perfbench/run.py builds this binary and runs it; see BENCHMARK.json for
// the metrics. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}; the lines before it are
// a human-readable table. Exit status: 0 = every check passed, 1 = a
// check failed (each failure is named on standard error), 2 = bad usage.
#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "generator.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "fortd_perfbench: %s\nusage: fortd_perfbench --workload W --seed N "
               "--seconds S --trace 0|1 --scratch DIR [--report-dir DIR]\n"
               "       fortd_perfbench --self-test\n",
               why);
  return 2;
}

void print_table(const std::vector<perfbench::Metric>& metrics) {
  for (const perfbench::Metric& m : metrics)
    std::printf("  %-30s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  std::string report_dir;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      const auto failures = perfbench::generator_self_test();
      for (const std::string& f : failures) std::fprintf(stderr, "FAIL %s\n", f.c_str());
      std::printf("generator self-test: %s\n", failures.empty() ? "pass" : "FAIL");
      return failures.empty() ? 0 : 1;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
    } else if (flag == "--scratch") {
      cfg.scratch = value;
    } else if (flag == "--report-dir") {
      report_dir = value;
    } else {
      return usage(("unknown option " + flag).c_str());
    }
  }
  if (!have_workload || cfg.scratch.empty() || !(cfg.seconds > 0))
    return usage("--workload, --scratch and a positive --seconds are required");
  cfg.nproc = usable_cpus();

  // The generator must be deterministic before any metric is worth reading.
  const auto generator_failures = perfbench::generator_self_test();
  for (const std::string& f : generator_failures)
    std::fprintf(stderr, "FAILED %s/generator/self-test: %s\n", cfg.workload.c_str(), f.c_str());
  if (!generator_failures.empty()) return 1;

  perfbench::Tracer tracer;
  perfbench::Outcome out;
  try {
    out = perfbench::run_workload(cfg, tracer);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", cfg.workload.c_str(), e.what());
    return 1;
  }

  std::vector<perfbench::Metric> metrics;
  std::printf("workload %s  seed %llu  nproc %d  trace %d\n", cfg.workload.c_str(),
              static_cast<unsigned long long>(cfg.seed), cfg.nproc, cfg.trace ? 1 : 0);
  if (cfg.trace) {
    metrics = perfbench::layer_metrics(out, tracer.spans());
    if (!report_dir.empty()) {
      const std::string stem =
          report_dir + "/" + cfg.workload + "-seed" + std::to_string(cfg.seed);
      std::ofstream(stem + ".trace.json") << tracer.chrome_json();
      std::ofstream table(stem + ".layers.txt");
      for (const perfbench::Metric& m : metrics)
        table << m.name << "\t" << number(m.value) << "\t" << m.unit << "\n";
      std::printf("trace: %s.trace.json  layers: %s.layers.txt\n", stem.c_str(),
                  stem.c_str());
    }
  } else {
    metrics = perfbench::end_to_end_metrics(out, peak_rss_mb());
    const perfbench::Tail bt = out.build.tail(perfbench::kTailLevel);
    const perfbench::Tail top = out.build.tail(99.0), et = out.exec.tail(50.0);
    std::printf("build: %zu samples, tail = p%g (highest with 10 beyond: p%g = %.6f s)   "
                "exec: %zu samples, tail = p%g   checked runs: %zu\n",
                bt.samples, bt.percentile, top.percentile, top.value, et.samples,
                et.percentile, out.checked.size());
  }
  print_table(metrics);
  if (!cfg.trace) print_table(perfbench::runtime_metrics(out));
  const double error_rate =
      out.attempted ? static_cast<double>(out.failed) / out.attempted : 1.0;
  std::printf("  %-30s %18.6f ratio  (%ld of %ld operations)\n", "error_rate", error_rate,
              out.failed, out.attempted);
  for (const std::string& f : out.failures) std::fprintf(stderr, "FAILED %s\n", f.c_str());

  const bool correct = out.failed == 0 && out.failures.empty() && out.attempted > 0;
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  std::printf("%s}}\n", json.c_str());
  return correct ? 0 : 1;
}
