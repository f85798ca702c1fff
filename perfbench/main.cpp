// End-to-end FETI benchmark driver.
//
//   perfbench --workload <transient-3d|steady-2d|service-mix> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file>]
//   perfbench --self-test
//   perfbench --breakeven
//
// The last line of standard output is one JSON object: the correctness
// verdict, the operations attempted and failed, and the end-to-end metrics
// (--trace 0) or the per-layer metrics of the traced run (--trace 1).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"step_s", "s"},
    {"jobs_per_s", "jobs/s"},
    {"job_latency_p50_s", "s"},
    {"peak_rss_bytes", "bytes"},
    {"device_mem_bytes", "bytes"},
};

constexpr MetricDef kPerLayer[] = {
    {"mesh.grid_s", "s"},
    {"decomp.build_problem_s", "s"},
    {"core.solver_init_s", "s"},
    {"core.dualop_prepare_s", "s"},
    {"precond.prepare_s", "s"},
    {"core.update_values_s", "s"},
    {"core.refreshed_subdomains", "count"},
    {"core.solve_columns", "count"},
    {"gpu.temp_contention", "count"},
    {"precond.update_values_s", "s"},
    {"precond.apply_s", "s"},
    {"precond.apply_calls", "count"},
    {"core.apply_s", "s"},
    {"core.apply_calls", "count"},
    {"core.apply_columns", "count"},
    {"core.apply_bytes", "bytes"},
    {"core.apply_gbps", "GB/s"},
    {"core.kplus_solve_s", "s"},
    {"core.kplus_solve_calls", "count"},
    {"core.step_self_s", "s"},
    {"core.pcpg_iterations", "count"},
    {"core.loop_fallbacks", "count"},
    {"gpu.h2d_bytes", "bytes"},
    {"gpu.d2h_bytes", "bytes"},
    {"gpu.h2d_calls", "count"},
    {"gpu.d2h_calls", "count"},
    {"gpu.device_persistent_bytes", "bytes"},
    {"service.queue_wait_p50_s", "s"},
    {"service.solve_p50_s", "s"},
    {"service.wave_size_mean", "jobs"},
    {"service.waves", "count"},
    {"service.batched_jobs", "count"},
    {"service.pool_hits", "count"},
    {"service.pool_misses", "count"},
    {"service.pool_evictions", "count"},
    {"service.values_cached_jobs", "count"},
    {"service.preprocess_p50_s", "s"},
    {"service.pcpg_p50_s", "s"},
};

template <std::size_t N>
void print_result(const Outcome& out, const MetricDef (&defs)[N],
                  const std::map<std::string, double>& values) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              out.correct ? "true" : "false", out.attempted, out.failed);
  for (std::size_t i = 0; i < N; ++i) {
    const auto it = values.find(defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", defs[i].name, std::isfinite(v) ? v : 0.0,
                defs[i].unit);
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <transient-3d|steady-2d|"
               "service-mix> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-out <file>]\n"
               "       perfbench --self-test | --breakeven\n");
  return 2;
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) * 1024.0;
  return 0.0;
}

feti::decomp::FetiProblem build_problem(int dim, feti::fem::Physics physics,
                                        feti::idx cells, feti::idx splits,
                                        long scope) {
  using namespace feti;
  const idx n = cells * splits;
  mesh::Decomposition dec;
  {
    ScopedSpan s("mesh.grid", 0, scope);
    if (dim == 2) {
      const mesh::Mesh m = mesh::make_grid_2d(n, n, mesh::ElementOrder::Linear);
      dec = mesh::decompose_2d(m, n, n, splits, splits);
    } else {
      const mesh::Mesh m =
          mesh::make_grid_3d(n, n, n, mesh::ElementOrder::Linear);
      dec = mesh::decompose_3d(m, n, n, n, splits, splits, splits);
    }
  }
  ScopedSpan s("decomp.build_problem", 0, scope);
  return decomp::build_feti_problem(dec, physics);
}

double device_persistent_bytes(feti::gpu::Device& device) {
  std::size_t temp = 0;
  try {
    temp = device.temp().capacity();
  } catch (const std::exception&) {
    // No temporary pool was created on this device.
  }
  return static_cast<double>(device.memory_used() - temp);
}

long temp_contention(feti::gpu::Device& device) {
  try {
    return device.temp().contention_count();
  } catch (const std::exception&) {
    return 0;  // no temporary pool on this device
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return run_self_test();
    if (a == "--breakeven") return run_breakeven();
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
      have_seconds = args.seconds > 0.0;
    } else if (a == "--trace") {
      args.trace = std::strcmp(v, "1") == 0;
      have_trace = args.trace || std::strcmp(v, "0") == 0;
    } else if (a == "--trace-out") {
      args.trace_path = v;
    } else {
      return usage();
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    return usage();

  Outcome out;
  try {
    if (args.workload == "transient-3d") {
      out = run_transient_3d(args);
    } else if (args.workload == "steady-2d") {
      out = run_steady_2d(args);
    } else if (args.workload == "service-mix") {
      out = run_service_mix(args);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload %s aborted: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }
  if (args.trace)
    print_result(out, kPerLayer, out.per_layer);
  else
    print_result(out, kEndToEnd, out.end_to_end);
  return 0;
}
