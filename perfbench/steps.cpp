// The two time-step workloads: transient-3d (every step refactorizes and
// reassembles every subdomain: the preprocessing side of the paper's
// trade-off) and steady-2d (K fixed, so update_values() takes its cache-skip
// path and the step is the application side).

#include <cstdio>
#include <map>

#include "bench.hpp"
#include "checks.hpp"
#include "core/autotune.hpp"
#include "core/feti_solver.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace feti;

struct StepSpec {
  int dim = 3;
  fem::Physics physics = fem::Physics::HeatTransfer;
  idx cells = 12;  ///< cells per subdomain edge
  idx splits = 2;  ///< subdomains per domain edge
  std::string key;
  std::string precond = "none";
  double tol = 1e-9;
  /// true: each step scales every subdomain's K and f by its own factor;
  /// false: K fixed (refreshed in the first step only), f redrawn per
  /// subdomain every step.
  bool transient = true;
};

/// Every run times at least this many steps, however short --seconds is.
constexpr long kMinSteps = 3;

struct Counters {
  gpu::TransferCounters::Snapshot xfer;
  long solve_columns = 0;
  long fallbacks = 0;
  long contention = 0;
};

/// A timed step's inputs and output, checked after the timed loop.
struct StepRecord {
  std::vector<double> kscale, fscale, u;
};

Outcome run_steps(const StepSpec& spec, const Args& args) {
  Tracer& tr = Tracer::instance();
  if (args.trace) tr.enable();
  Outcome out;

  decomp::FetiProblem p =
      build_problem(spec.dim, spec.physics, spec.cells, spec.splits, -1);
  const idx nsub = p.num_subdomains();
  gpu::ExecutionContext ctx(gpu::DeviceConfig::from_env());
  const std::string key =
      args.trace ? traced_dual_operator(spec.key) : spec.key;
  core::FetiSolverOptions opts;
  opts.dualop = core::recommend_config(key, spec.dim, p.max_subdomain_dofs());
  opts.pcpg.rel_tolerance = spec.tol;
  opts.pcpg.max_iterations = 2000;
  opts.pcpg.preconditioner = args.trace && spec.precond != "none"
                                 ? traced_preconditioner(spec.precond)
                                 : spec.precond;
  std::unique_ptr<core::FetiSolver> solver;
  {
    ScopedSpan s("core.solver_init", 0, -1);
    solver = std::make_unique<core::FetiSolver>(p, opts, &ctx);
  }
  {
    ScopedSpan s("core.solver_prepare", 0, -1);
    tr.set_active(s.id(), -1);
    solver->prepare();
    tr.set_active(0, -1);
  }
  core::DualOperator& op = solver->dual_operator();
  const auto read = [&] {
    return Counters{gpu::TransferCounters::global().snapshot(),
                    op.solve_columns(), op.loop_fallback_count(),
                    temp_contention(ctx.device())};
  };
  std::vector<std::vector<double>> f0;
  for (const auto& s : p.sub) f0.push_back(s.sys.f);
  Rng rng(args.seed);
  std::vector<double> kscale(static_cast<std::size_t>(nsub), 1.0);
  std::vector<double> fscale = kscale;
  std::vector<StepRecord> records;
  std::vector<double> step_times;
  /// (step span, PCPG iterations) of every solve, for the apply-count check.
  std::vector<std::pair<long, int>> solves;
  std::vector<double> timed_iterations;
  long refreshed = 0;

  // One step: new inputs, solve_step, and its record. Returns the step's
  // wall time, or a negative value when it failed.
  const auto step = [&](long index) {
    for (idx s = 0; s < nsub; ++s) {
      const auto i = static_cast<std::size_t>(s);
      if (spec.transient) {
        const double t = rng.uniform(0.8, 1.25);
        decomp::scale_subdomain(p, s, t / kscale[i]);
        kscale[i] = fscale[i] = t;
      } else {
        fscale[i] = rng.uniform(0.5, 1.5);
        for (std::size_t d = 0; d < f0[i].size(); ++d)
          p.sub[i].sys.f[d] = fscale[i] * f0[i][d];
      }
    }
    ++out.attempted;
    const long span = tr.open("core.solve_step", 0, index);
    tr.set_active(span, index);
    double seconds = -1.0;
    try {
      const double t0 = now_s();
      core::FetiStepResult r = solver->solve_step();
      seconds = now_s() - t0;
      tr.close(span);
      solves.emplace_back(span, r.pcpg_iterations);
      if (index > 0) {
        timed_iterations.push_back(r.pcpg_iterations);
        refreshed += r.refreshed_subdomains;
      }
      if (r.converged) {
        records.push_back({kscale, fscale, std::move(r.u)});
      } else {
        seconds = -1.0;
        std::fprintf(stderr, "step %ld: PCPG did not converge\n", index);
      }
    } catch (const std::exception& e) {
      tr.close(span);
      std::fprintf(stderr, "step %ld failed: %s\n", index, e.what());
    }
    tr.set_active(0, -1);
    if (seconds < 0.0) ++out.failed;
    return seconds;
  };

  // The first step is cold (first touch of the device's temporary pool;
  // for steady-2d the one factorization of its fixed K) and belongs to
  // set-up, like the service's cold first round.
  step(0);
  out.end_to_end["setup_s"] = now_s();

  const Counters c0 = read();
  const double loop_start = now_s();
  for (long index = 1;
       index <= kMinSteps || now_s() - loop_start < args.seconds; ++index) {
    const double seconds = step(index);
    if (seconds >= 0.0) step_times.push_back(seconds);
  }
  const double loop_end = now_s();
  const Counters c1 = read();

  double timed = 0.0;
  for (double t : step_times) timed += t;
  const double device_bytes = device_persistent_bytes(ctx.device());
  out.end_to_end["step_s"] = quantile(step_times, 0.5);
  out.end_to_end["jobs_per_s"] =
      static_cast<double>(step_times.size()) / timed;
  out.end_to_end["job_latency_p50_s"] = quantile(step_times, 0.5);
  out.end_to_end["peak_rss_bytes"] = peak_rss_bytes();
  out.end_to_end["device_mem_bytes"] = device_bytes;

  // Output checks against the monolithic direct solve. The reference is
  // built from the problem's current values, so each step's scales are
  // taken relative to the last step's.
  if (!spec.transient)
    for (idx s = 0; s < nsub; ++s) p.sub[s].sys.f = f0[s];
  GlobalReference ref(p);
  double worst_err = 0.0, worst_res = 0.0;
  bool factorized = false;
  for (const StepRecord& rec : records) {
    std::vector<double> k = rec.kscale, f = rec.fscale;
    for (std::size_t i = 0; i < k.size(); ++i) {
      k[i] /= kscale[i];
      if (spec.transient) f[i] /= kscale[i];
    }
    if (spec.transient || !factorized) ref.factorize(k);
    factorized = true;
    const Verdict v = ref.check(f, rec.u);
    worst_err = std::max(worst_err, v.rel_error);
    worst_res = std::max(worst_res, v.rel_residual);
    out.correct = out.correct && v.ok;
  }
  std::fprintf(stderr,
               "%zu timed steps, PCPG iterations min %.0f median %.0f max "
               "%.0f; checked %zu steps against the direct solve: worst "
               "relative error %.3e, worst relative residual %.3e\n",
               step_times.size(), quantile(timed_iterations, 0.0),
               quantile(timed_iterations, 0.5), quantile(timed_iterations, 1.0),
               records.size(), worst_err, worst_res);

  if (!args.trace) return out;

  const std::vector<Span> spans = tr.spans();
  if (!args.trace_path.empty()) tr.write(args.trace_path);
  const double n = static_cast<double>(out.attempted - 1);
  const auto per_step = [&](const char* name) {
    return totals(spans, name, loop_start, loop_end);
  };
  auto& m = out.per_layer;
  m["mesh.grid_s"] = totals(spans, "mesh.grid").seconds;
  m["decomp.build_problem_s"] = totals(spans, "decomp.build_problem").seconds;
  m["core.solver_init_s"] = totals(spans, "core.solver_init").seconds;
  m["core.dualop_prepare_s"] = totals(spans, "core.dualop_prepare").seconds;
  m["precond.prepare_s"] = totals(spans, "precond.prepare").seconds;
  m["core.update_values_s"] = per_step("core.update_values").seconds / n;
  m["core.refreshed_subdomains"] = static_cast<double>(refreshed) / n;
  m["core.solve_columns"] =
      static_cast<double>(c1.solve_columns - c0.solve_columns) / n;
  m["gpu.temp_contention"] =
      static_cast<double>(c1.contention - c0.contention) / n;
  m["precond.update_values_s"] = per_step("precond.update_values").seconds / n;
  const SpanTotals papply = per_step("precond.apply");
  m["precond.apply_s"] = papply.seconds / n;
  m["precond.apply_calls"] = static_cast<double>(papply.calls) / n;
  const SpanTotals apply = per_step("core.apply");
  m["core.apply_s"] = apply.seconds / n;
  m["core.apply_calls"] = static_cast<double>(apply.calls) / n;
  m["core.apply_columns"] = static_cast<double>(apply.count) / n;
  m["core.apply_bytes"] = static_cast<double>(op.apply_bytes());
  m["core.apply_gbps"] = apply.seconds > 0.0
                             ? static_cast<double>(op.apply_bytes()) *
                                   static_cast<double>(apply.calls) /
                                   apply.seconds / 1e9
                             : 0.0;
  const SpanTotals kplus = per_step("core.kplus_solve");
  m["core.kplus_solve_s"] = kplus.seconds / n;
  m["core.kplus_solve_calls"] = static_cast<double>(kplus.calls) / n;
  double self = 0.0;
  for (const Span& s : spans)
    if (std::string_view(s.name) == "core.solve_step" && s.start >= loop_start)
      self += self_time(spans, s.id);
  m["core.step_self_s"] = self / n;
  double iterations = 0.0;
  for (double it : timed_iterations) iterations += it;
  m["core.pcpg_iterations"] = iterations / n;
  m["core.loop_fallbacks"] = static_cast<double>(c1.fallbacks - c0.fallbacks) / n;
  const gpu::TransferCounters::Snapshot x = c1.xfer - c0.xfer;
  m["gpu.h2d_bytes"] = static_cast<double>(x.h2d_bytes) / n;
  m["gpu.d2h_bytes"] = static_cast<double>(x.d2h_bytes) / n;
  m["gpu.h2d_calls"] = static_cast<double>(x.h2d_calls) / n;
  m["gpu.d2h_calls"] = static_cast<double>(x.d2h_calls) / n;
  m["gpu.device_persistent_bytes"] = device_bytes;

  // Algorithm 1 property on every solve: F columns = iterations + 1.
  std::map<long, long> columns;
  for (const Span& s : spans)
    if (std::string_view(s.name) == "core.apply") columns[s.parent] += s.count;
  for (const auto& [span, iterations] : solves) {
    if (apply_count_holds(columns[span], 1, iterations)) continue;
    out.correct = false;
    std::fprintf(stderr,
                 "step span %ld: %ld F columns applied for %d PCPG "
                 "iterations\n",
                 span, columns[span], iterations);
  }
  return out;
}

}  // namespace

Outcome run_transient_3d(const Args& args) {
  StepSpec spec;
  spec.dim = 3;
  spec.physics = fem::Physics::HeatTransfer;
  spec.cells = 12;
  spec.splits = 2;
  spec.key = "expl modern";
  spec.precond = "dirichlet stiffness gpu";
  spec.transient = true;
  return run_steps(spec, args);
}

Outcome run_steady_2d(const Args& args) {
  StepSpec spec;
  spec.dim = 2;
  spec.physics = fem::Physics::LinearElasticity;
  spec.cells = 16;
  spec.splits = 8;
  spec.key = "expl modern";
  spec.precond = "none";
  spec.transient = false;
  return run_steps(spec, args);
}

}  // namespace perfbench
