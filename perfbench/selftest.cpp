// The benchmark's self-test (every output check rejects bad input) and the
// break-even reference figure of the README.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "checks.hpp"
#include "core/autotune.hpp"
#include "core/feti_solver.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace feti;

namespace {

bool expect(bool condition, const char* what) {
  std::printf("  %-66s %s\n", what, condition ? "ok" : "FAILED");
  return condition;
}

/// u with its largest entry moved by `rel` of the largest magnitude.
std::vector<double> perturbed(std::vector<double> u, double rel) {
  const auto it = std::max_element(u.begin(), u.end(), [](double a, double b) {
    return std::abs(a) < std::abs(b);
  });
  *it += rel * std::abs(*it);
  return u;
}

}  // namespace

int run_self_test() {
  Tracer& tr = Tracer::instance();
  tr.enable();
  bool all = true;
  decomp::FetiProblem p =
      build_problem(2, fem::Physics::LinearElasticity, 8, 2, -1);
  gpu::ExecutionContext ctx(gpu::DeviceConfig::from_env());
  GlobalReference ref(p);
  const std::vector<double> ones(p.sub.size(), 1.0);
  ref.factorize(ones);

  std::printf("step-workload check (monolithic direct solve):\n");
  core::FetiSolverOptions opts;
  opts.dualop = core::recommend_config(traced_dual_operator("expl modern"), 2,
                                       p.max_subdomain_dofs());
  opts.pcpg.rel_tolerance = 1e-9;
  core::FetiSolver solver(p, opts, &ctx);
  solver.prepare();
  const long span = tr.open("core.solve_step", 0, 0);
  tr.set_active(span, 0);
  const core::FetiStepResult r = solver.solve_step();
  tr.close(span);
  tr.set_active(0, -1);
  all &= expect(ref.check(ones, r.u).ok, "FETI solution accepted");
  all &= expect(!ref.check(ones, perturbed(r.u, 1e-3)).ok,
                "solution with one entry moved by 1e-3 rejected");

  decomp::scale_subdomain(p, 1, 1.7);
  std::vector<double> scales = ones;
  scales[1] = 1.7;
  const core::FetiStepResult r2 = solver.solve_step();
  all &= expect(!ref.check(ones, r2.u).ok,
                "solution of a rescaled subdomain rejected by the old system");
  ref.factorize(scales);
  all &= expect(ref.check(scales, r2.u).ok,
                "solution of a rescaled subdomain accepted by the new system");

  std::printf("traced-run property (F columns = iterations + 1):\n");
  long columns = 0;
  for (const Span& s : tr.spans())
    if (s.parent == span && std::string_view(s.name) == "core.apply")
      columns += s.count;
  all &= expect(apply_count_holds(columns, 1, r.pcpg_iterations),
                "counted F columns of a solve accepted");
  all &= expect(!apply_count_holds(columns + 1, 1, r.pcpg_iterations),
                "one F column too many rejected");
  all &= expect(!apply_count_holds(columns - 1, 1, r.pcpg_iterations),
                "one F column too few rejected");

  std::printf("service-mix check (solo impl mkl reference):\n");
  core::FetiSolverOptions solo;
  solo.dualop.key = "impl mkl";
  solo.pcpg.rel_tolerance = 1e-11;
  core::FetiSolver reference(p, solo);
  reference.prepare();
  const std::vector<double> d = dual_load_case(p, 7);
  const std::vector<double> want = reference.solve_step_many({d}).front().u;
  const std::vector<double> got = solver.solve_step_many({d}).front().u;
  const double limit = 1e-6;
  all &= expect(relative_difference(got, want) <= limit,
                "service-path load case accepted");
  all &= expect(relative_difference(perturbed(got, 1e-3), want) > limit,
                "load case with one entry moved by 1e-3 rejected");
  const std::vector<double> other =
      reference.solve_step_many({dual_load_case(p, 8)}).front().u;
  all &= expect(relative_difference(other, want) > limit,
                "solution of a different load case rejected");

  std::printf("self-test %s\n", all ? "passed" : "FAILED");
  return all ? 0 : 1;
}

int run_breakeven() {
  // The transient-3d problem, without preconditioner: Fig. 7 compares the
  // dual operators alone.
  decomp::FetiProblem p =
      build_problem(3, fem::Physics::HeatTransfer, 12, 2, -1);
  gpu::ExecutionContext ctx(gpu::DeviceConfig::from_env());
  constexpr int kRepeats = 5, kApplies = 20;
  struct Cost {
    double preprocess = 0.0, apply = 0.0;
  };
  const auto measure = [&](const std::string& key) {
    auto op = core::make_dual_operator(
        p, core::recommend_config(key, 3, p.max_subdomain_dofs()), &ctx);
    op->prepare();
    op->update_values();
    std::vector<double> x(static_cast<std::size_t>(p.num_lambdas)),
        y(x.size());
    Rng rng(3);
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    std::vector<double> pre, app;
    for (int r = 0; r < kRepeats; ++r) {
      p.mark_values_changed();
      double t0 = now_s();
      op->update_values();
      pre.push_back(now_s() - t0);
      t0 = now_s();
      for (int i = 0; i < kApplies; ++i) op->apply(x.data(), y.data());
      app.push_back((now_s() - t0) / kApplies);
    }
    return Cost{quantile(pre, 0.5), quantile(app, 0.5)};
  };
  const Cost expl = measure("expl modern");
  const Cost impl = measure("impl mkl");
  std::printf("transient-3d problem: %d subdomains of %d DOFs\n",
              p.num_subdomains(), p.max_subdomain_dofs());
  std::printf("%-12s %16s %20s\n", "key", "preprocess [ms]",
              "apply/iteration [ms]");
  std::printf("%-12s %16.3f %20.4f\n", "expl modern", expl.preprocess * 1e3,
              expl.apply * 1e3);
  std::printf("%-12s %16.3f %20.4f\n", "impl mkl", impl.preprocess * 1e3,
              impl.apply * 1e3);
  const double gain = impl.apply - expl.apply;
  if (gain > 0.0)
    std::printf("break-even: %.1f PCPG iterations\n",
                (expl.preprocess - impl.preprocess) / gain);
  else
    std::printf("break-even: none (explicit apply is not faster)\n");
  return 0;
}

}  // namespace perfbench
