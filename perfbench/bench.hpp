#pragma once

// Workload entry points of the end-to-end benchmark and the result they
// report. main.cpp parses the command line and prints the result line.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "decomp/feti_problem.hpp"
#include "gpu/runtime.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  ///< where the traced run writes its spans
};

struct Outcome {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::map<std::string, double> end_to_end;
  std::map<std::string, double> per_layer;
};

Outcome run_transient_3d(const Args& args);
Outcome run_steady_2d(const Args& args);
Outcome run_service_mix(const Args& args);

/// Break-even iteration count of "expl modern" against "impl mkl" on the
/// transient-3d problem (the paper's Fig. 7 figure). Prints a report and
/// returns 0.
int run_breakeven();

/// Shows that every output check rejects bad input. Returns 0 when each
/// check accepts the good case and rejects the bad one.
int run_self_test();

/// Linear-interpolation quantile of `v` (q in [0, 1]); 0 for an empty v.
double quantile(std::vector<double> v, double q);

/// Builds a linear-element problem of `splits`^dim subdomains, each a cube
/// (square) of `cells`^dim cells, recording mesh.grid and
/// decomp.build_problem spans under `scope`.
feti::decomp::FetiProblem build_problem(int dim, feti::fem::Physics physics,
                                        feti::idx cells, feti::idx splits,
                                        long scope);

/// Device memory in use minus the temporary-pool capacity.
double device_persistent_bytes(feti::gpu::Device& device);

/// Allocations that had to wait for the device's temporary pool so far (0
/// when the device has no pool).
long temp_contention(feti::gpu::Device& device);

/// Peak resident set of this process so far (VmHWM), in bytes.
double peak_rss_bytes();

}  // namespace perfbench
