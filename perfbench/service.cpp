// service-mix: the only workload where the service layer does the work.
//
// A closed loop of four tenants on a two-shard SolverService. Every round
// each tenant submits one burst of four load-case jobs (one wave) and waits
// for it; the next round starts when every tenant's burst is back. Loads
// change every round and one subdomain's K per tenant changes every fourth
// round, so rounds mix pool hits that skip prepare() with cache hits that
// skip update_values() and refreshes that do not.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <map>
#include <thread>

#include "bench.hpp"
#include "checks.hpp"
#include "core/feti_solver.hpp"
#include "service/solver_service.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace feti;

struct TenantSpec {
  int dim;
  fem::Physics physics;
  idx cells;
  idx splits;
  const char* key;  ///< "" = autotuned by the service
  double tol;
  double max_error;  ///< largest relative difference to the reference
  std::size_t shard;  ///< device shard the tenant's pooled solver lives on
};

// Submitted in this order every round, heaviest first. The shards pair the
// heaviest tenant with the CPU-only one.
constexpr TenantSpec kTenants[] = {
    {3, fem::Physics::LinearElasticity, 4, 2, "", 1e-9, 1e-6, 0},
    {3, fem::Physics::HeatTransfer, 6, 2, "expl modern", 1e-9, 1e-6, 1},
    {2, fem::Physics::HeatTransfer, 16, 4, "impl mkl", 1e-9, 1e-6, 0},
    {2, fem::Physics::LinearElasticity, 10, 3, "expl legacy f32", 1e-5, 1e-3,
     1},
};
constexpr int kNumTenants = static_cast<int>(std::size(kTenants));
constexpr int kBurst = 4;
/// One subdomain's K per tenant changes every kKChangeEvery-th round.
constexpr long kKChangeEvery = 4;
/// Every run times at least this many rounds, however short --seconds is.
constexpr long kMinRounds = 8;

/// A K change applied between rounds.
struct KChange {
  long round;
  int tenant;
  idx sub;
  double factor;
};

struct JobRecord {
  long round = 0;
  int tenant = 0;
  int slot = 0;
  double latency = 0.0;
  service::JobResult result;
};

std::uint64_t job_seed(std::uint64_t seed, long round, int tenant, int slot) {
  return ((seed * 1000003ull + static_cast<std::uint64_t>(round)) * 131ull +
          static_cast<std::uint64_t>(tenant)) *
             17ull +
         static_cast<std::uint64_t>(slot);
}

/// The key that served tenant `t` (the planned one for the autotuned
/// tenant).
std::string records_key(const std::vector<JobRecord>& records, int t) {
  for (const JobRecord& r : records)
    if (r.tenant == t) return r.result.key;
  return "";
}

core::PcpgOptions pcpg_options(const TenantSpec& t) {
  core::PcpgOptions o;
  o.rel_tolerance = t.tol;
  o.max_iterations = 2000;
  return o;
}

}  // namespace

Outcome run_service_mix(const Args& args) {
  Tracer& tr = Tracer::instance();
  if (args.trace) tr.enable();
  Outcome out;

  std::vector<decomp::FetiProblem> problems;
  problems.reserve(kNumTenants);
  for (int t = 0; t < kNumTenants; ++t) {
    const TenantSpec& s = kTenants[t];
    problems.push_back(build_problem(s.dim, s.physics, s.cells, s.splits, t));
  }
  for (int t = 0; t < kNumTenants; ++t) tr.tag_problem(&problems[t], t);

  service::ServiceOptions sopt;
  sopt.num_shards = 2;
  sopt.autotune_dim = 3;
  service::SolverService svc(sopt);

  // The traced run wraps each tenant's key; the autotuned tenant is wrapped
  // around the key the service plans for it.
  std::vector<std::string> keys(kNumTenants);
  for (int t = 0; t < kNumTenants; ++t) {
    keys[t] = kTenants[t].key;
    if (!args.trace) continue;
    if (keys[t].empty()) {
      service::SolveJob probe;
      probe.problem = &problems[t];
      keys[t] = svc.plan_key(probe);
    }
    keys[t] = traced_dual_operator(keys[t]);
  }

  Rng rng(args.seed);
  std::vector<KChange> changes;
  std::vector<JobRecord> records;
  std::vector<double> round_times;
  std::vector<std::pair<double, double>> windows;  ///< timed round spans

  const auto run_round = [&](long round) {
    if (round > 0 && round % kKChangeEvery == 0) {
      for (int t = 0; t < kNumTenants; ++t) {
        const KChange c{round, t,
                        static_cast<idx>(
                            rng.integer(0, problems[t].num_subdomains() - 1)),
                        rng.uniform(0.8, 1.25)};
        decomp::scale_subdomain(problems[t], c.sub, c.factor);
        changes.push_back(c);
      }
    }
    std::vector<std::vector<service::SolveJob>> bursts(kNumTenants);
    for (int t = 0; t < kNumTenants; ++t) {
      for (int j = 0; j < kBurst; ++j) {
        service::SolveJob job;
        job.problem = &problems[t];
        job.key = keys[t];
        job.pcpg = pcpg_options(kTenants[t]);
        job.tenant = static_cast<std::uint64_t>(t);
        job.dual_rhs =
            dual_load_case(problems[t], job_seed(args.seed, round, t, j));
        bursts[t].push_back(std::move(job));
      }
    }
    std::vector<std::vector<JobRecord>> done(kNumTenants);
    std::vector<double> submitted(kNumTenants), finished(kNumTenants);
    std::vector<long> failures(kNumTenants, 0);
    std::vector<long> spans(kNumTenants);
    std::vector<std::vector<std::future<service::JobResult>>> futures(
        kNumTenants);
    const auto submit = [&](int t) {
      spans[t] = tr.open("service.burst", 0, t);
      submitted[t] = now_s();
      futures[t] = svc.submit(std::move(bursts[t]));
    };
    const auto collect = [&](int t) {
      for (int j = 0; j < kBurst; ++j) {
        try {
          JobRecord r;
          r.result = futures[t][j].get();
          r.latency = now_s() - submitted[t];
          r.round = round;
          r.tenant = t;
          r.slot = j;
          done[t].push_back(std::move(r));
        } catch (const std::exception& e) {
          ++failures[t];
          std::fprintf(stderr, "round %ld tenant %d job %d failed: %s\n",
                       round, t, j, e.what());
        }
      }
      finished[t] = now_s();
      tr.close(spans[t]);
    };
    if (round == 0) {
      // Cold round, one tenant at a time: a new pool entry goes to the
      // least-loaded shard, so a lease held on the other shard places the
      // tenant on its own shard whatever the timing.
      for (int t = 0; t < kNumTenants; ++t) {
        gpu::DevicePool::Lease other =
            svc.device_pool().acquire(1 - kTenants[t].shard);
        submit(t);
        collect(t);
      }
    } else {
      for (int t = 0; t < kNumTenants; ++t) submit(t);
      std::vector<std::thread> waiters;
      for (int t = 0; t < kNumTenants; ++t) waiters.emplace_back(collect, t);
      for (std::thread& w : waiters) w.join();
    }
    const double start = *std::min_element(submitted.begin(), submitted.end());
    const double end = *std::max_element(finished.begin(), finished.end());
    for (int t = 0; t < kNumTenants; ++t) {
      out.failed += failures[t];
      for (JobRecord& r : done[t]) {
        if (!r.result.converged) ++out.failed;
        records.push_back(std::move(r));
      }
    }
    return std::make_pair(start, end);
  };

  // The cold first round (pool misses, prepare, first factorizations) is
  // part of set-up.
  run_round(0);
  out.end_to_end["setup_s"] = now_s();
  const std::size_t first_timed = records.size();

  const service::ServiceStats s0 = svc.stats();
  const service::PoolStats p0 = svc.pool_stats();
  const gpu::TransferCounters::Snapshot x0 =
      gpu::TransferCounters::global().snapshot();
  const auto contention = [&] {
    long c = 0;
    for (std::size_t i = 0; i < svc.device_pool().size(); ++i)
      c += temp_contention(svc.device_pool().device(i));
    return c;
  };
  const long cont0 = contention();
  const double loop_start = now_s();
  long rounds = 0;
  for (long round = 1;
       rounds < kMinRounds || now_s() - loop_start < args.seconds; ++round) {
    const auto [a, b] = run_round(round);
    windows.emplace_back(a, b);
    round_times.push_back(b - a);
    ++rounds;
  }
  out.attempted = (rounds + 1) * kNumTenants * kBurst;
  const double loop_end = now_s();
  const service::ServiceStats s1 = svc.stats();
  const service::PoolStats p1 = svc.pool_stats();
  const gpu::TransferCounters::Snapshot xfer =
      gpu::TransferCounters::global().snapshot() - x0;
  const long cont1 = contention();

  std::vector<double> latency, queue, solve, preprocess, pcpg;
  double timed = 0.0, iterations = 0.0, wave_sizes = 0.0, cached = 0.0,
         refreshed = 0.0;
  for (std::size_t i = first_timed; i < records.size(); ++i) {
    const service::JobResult& r = records[i].result;
    latency.push_back(records[i].latency);
    queue.push_back(r.queue_seconds);
    solve.push_back(r.solve_seconds);
    preprocess.push_back(r.preprocess_seconds);
    pcpg.push_back(r.pcpg_seconds);
    iterations += r.pcpg_iterations;
    wave_sizes += r.wave_size;
    cached += r.values_cached ? 1.0 : 0.0;
    refreshed += static_cast<double>(r.refreshed_subdomains) / r.wave_size;
  }
  for (double t : round_times) timed += t;
  double device_bytes = 0.0;
  for (std::size_t i = 0; i < svc.device_pool().size(); ++i)
    device_bytes += device_persistent_bytes(svc.device_pool().device(i));
  const double jobs = static_cast<double>(latency.size());
  out.end_to_end["step_s"] = quantile(round_times, 0.5);
  out.end_to_end["jobs_per_s"] = jobs / timed;
  out.end_to_end["job_latency_p50_s"] = quantile(latency, 0.5);
  out.end_to_end["peak_rss_bytes"] = peak_rss_bytes();
  out.end_to_end["device_mem_bytes"] = device_bytes;

  if (args.trace) {
    const std::vector<Span> spans = tr.spans();
    if (!args.trace_path.empty()) tr.write(args.trace_path);
    const double n = static_cast<double>(rounds);
    const auto per_round = [&](const char* name) {
      return totals(spans, name, loop_start, loop_end);
    };
    auto& m = out.per_layer;
    m["mesh.grid_s"] = totals(spans, "mesh.grid").seconds;
    m["decomp.build_problem_s"] = totals(spans, "decomp.build_problem").seconds;
    m["core.dualop_prepare_s"] = totals(spans, "core.dualop_prepare").seconds;
    const SpanTotals update = per_round("core.update_values");
    m["core.update_values_s"] = update.seconds / n;
    m["core.solve_columns"] = static_cast<double>(update.count) / n;
    m["core.refreshed_subdomains"] = refreshed / n;
    m["gpu.temp_contention"] = static_cast<double>(cont1 - cont0) / n;
    const SpanTotals apply = per_round("core.apply");
    m["core.apply_s"] = apply.seconds / n;
    m["core.apply_calls"] = static_cast<double>(apply.calls) / n;
    m["core.apply_columns"] = static_cast<double>(apply.count) / n;
    const SpanTotals kplus = per_round("core.kplus_solve");
    m["core.kplus_solve_s"] = kplus.seconds / n;
    m["core.kplus_solve_calls"] = static_cast<double>(kplus.calls) / n;
    m["core.pcpg_iterations"] = iterations / jobs;
    m["gpu.h2d_bytes"] = static_cast<double>(xfer.h2d_bytes) / n;
    m["gpu.d2h_bytes"] = static_cast<double>(xfer.d2h_bytes) / n;
    m["gpu.h2d_calls"] = static_cast<double>(xfer.h2d_calls) / n;
    m["gpu.d2h_calls"] = static_cast<double>(xfer.d2h_calls) / n;
    m["gpu.device_persistent_bytes"] = device_bytes;
    m["service.queue_wait_p50_s"] = quantile(queue, 0.5);
    m["service.solve_p50_s"] = quantile(solve, 0.5);
    m["service.wave_size_mean"] = wave_sizes / jobs;
    m["service.waves"] = static_cast<double>(s1.waves - s0.waves) / n;
    m["service.batched_jobs"] =
        static_cast<double>(s1.batched_jobs - s0.batched_jobs) / n;
    m["service.pool_hits"] = static_cast<double>(p1.hits - p0.hits) / n;
    m["service.pool_misses"] = static_cast<double>(p1.misses - p0.misses) / n;
    m["service.pool_evictions"] =
        static_cast<double>(p1.evictions - p0.evictions) / n;
    m["service.values_cached_jobs"] = cached / n;
    m["service.preprocess_p50_s"] = quantile(preprocess, 0.5);
    m["service.pcpg_p50_s"] = quantile(pcpg, 0.5);

    // Algorithm 1 property per tenant and round: the F columns equal the
    // waves (one F λ₀ each) plus the iterations of every job.
    std::map<std::pair<long, int>, std::pair<double, long>> expected;
    for (std::size_t i = first_timed; i < records.size(); ++i) {
      auto& e = expected[{records[i].round, records[i].tenant}];
      e.first += 1.0 / records[i].result.wave_size;
      e.second += records[i].result.pcpg_iterations;
    }
    for (std::size_t w = 0; w < windows.size(); ++w) {
      for (int t = 0; t < kNumTenants; ++t) {
        const long cols =
            totals(spans, "core.apply", windows[w].first, windows[w].second, t)
                .count;
        const auto& e = expected[{static_cast<long>(w) + 1, t}];
        const long waves = std::lround(e.first);
        if (apply_count_holds(cols, waves, e.second)) continue;
        out.correct = false;
        std::fprintf(stderr,
                     "round %zu tenant %d: %ld F columns for %ld waves and "
                     "%ld iterations\n",
                     w + 1, t, cols, waves, e.second);
      }
    }
  }

  // Every job against the same load case solved without the service by a
  // solo FetiSolver on "impl mkl", replaying the K changes in order on
  // freshly built problems.
  for (int t = 0; t < kNumTenants; ++t) {
    const TenantSpec& s = kTenants[t];
    double worst = 0.0;
    decomp::FetiProblem p =
        build_problem(s.dim, s.physics, s.cells, s.splits, -1);
    core::FetiSolverOptions opts;
    opts.dualop.key = "impl mkl";
    opts.pcpg = pcpg_options(s);
    opts.pcpg.rel_tolerance = std::min(s.tol, 1e-9);
    core::FetiSolver ref(p, opts);
    ref.prepare();
    std::map<long, std::vector<const JobRecord*>> by_round;
    for (const JobRecord& r : records)
      if (r.tenant == t) by_round[r.round].push_back(&r);
    std::size_t next_change = 0;
    for (const auto& [round, jobs] : by_round) {
      for (; next_change < changes.size() && changes[next_change].round <= round;
           ++next_change)
        if (changes[next_change].tenant == t)
          decomp::scale_subdomain(p, changes[next_change].sub,
                                  changes[next_change].factor);
      std::vector<std::vector<double>> rhs;
      for (const JobRecord* r : jobs)
        rhs.push_back(dual_load_case(p, job_seed(args.seed, round, t, r->slot)));
      const std::vector<core::FetiStepResult> want = ref.solve_step_many(rhs);
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        const double err = relative_difference(jobs[j]->result.u, want[j].u);
        worst = std::max(worst, err);
        if (err <= s.max_error && want[j].converged) continue;
        out.correct = false;
        std::fprintf(stderr,
                     "round %ld tenant %d job %d: relative difference %.3e "
                     "to the impl mkl reference (reference %s after %d "
                     "iterations, residual %.3e)\n",
                     round, t, jobs[j]->slot, err,
                     want[j].converged ? "converged" : "not converged",
                     want[j].pcpg_iterations, want[j].rel_residual);
      }
    }
    std::vector<double> lat;
    double iters = 0.0;
    for (const JobRecord& r : records) {
      if (r.tenant != t) continue;
      lat.push_back(r.latency);
      iters += r.result.pcpg_iterations;
    }
    std::fprintf(stderr,
                 "tenant %d (%s): %zu jobs, latency p50 %.4f s, %.1f PCPG "
                 "iterations per job, worst relative difference to the solo "
                 "impl mkl solve %.3e (limit %.0e)\n",
                 t, records_key(records, t).c_str(), lat.size(),
                 quantile(lat, 0.5), iters / static_cast<double>(lat.size()),
                 worst, s.max_error);
  }
  return out;
}

}  // namespace perfbench
