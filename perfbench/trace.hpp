#pragma once

// In-memory span tracing for the traced benchmark run.
//
// Spans are recorded from the benchmark's own files only: around the calls
// it makes into each layer (mesh, decomp, core, service) and inside the
// transparent decorators it registers for the dual operator and the
// preconditioner through the public registries. The library itself is not
// instrumented. Spans stay in memory and are written out when the run ends.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/dual_operator.hpp"
#include "precond/preconditioner.hpp"

namespace perfbench {

/// Seconds since process start (static initialization of the benchmark).
double now_s();

struct Span {
  const char* name = "";  ///< static string, "<layer>.<call>"
  double start = 0.0;
  double end = 0.0;
  long id = 0;      ///< 1-based
  long parent = 0;  ///< 0 = root
  long scope = 0;   ///< step index (step workloads) or tenant (service-mix)
  long count = 0;   ///< columns of an apply span, 0 otherwise
};

class Tracer {
 public:
  static Tracer& instance();

  void enable() { enabled_.store(true); }
  [[nodiscard]] bool enabled() const { return enabled_.load(); }

  /// Opens a span and returns its id (0 when tracing is off).
  long open(const char* name, long parent, long scope, long count = 0);
  void close(long id);
  /// Closes a span and sets its count (known only once the call returned).
  void close(long id, long count);

  /// The span and scope that decorator spans without their own scope
  /// attach to: the benchmark sets them around each solve_step.
  void set_active(long parent, long scope) {
    active_parent_.store(parent);
    active_scope_.store(scope);
  }
  [[nodiscard]] long active_parent() const { return active_parent_.load(); }
  [[nodiscard]] long active_scope() const { return active_scope_.load(); }

  /// Tags a problem with a scope; decorators built on it record that scope
  /// (the service runs tenants concurrently on its own threads).
  void tag_problem(const feti::decomp::FetiProblem* p, long scope);
  [[nodiscard]] long scope_of(const feti::decomp::FetiProblem* p) const;

  /// Snapshot of all closed and open spans.
  [[nodiscard]] std::vector<Span> spans() const;
  /// Writes the spans as one JSON object per line.
  void write(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<long> active_parent_{0};
  std::atomic<long> active_scope_{-1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::vector<std::pair<const feti::decomp::FetiProblem*, long>> tags_;
};

/// RAII span; a no-op while tracing is off.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, long parent, long scope, long count = 0)
      : id_(Tracer::instance().open(name, parent, scope, count)) {}
  ~ScopedSpan() { Tracer::instance().close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] long id() const { return id_; }

 private:
  long id_;
};

/// Registers "traced:<key>" in the DualOperatorRegistry (once per key): the
/// registered operator forwards every call to the `key` implementation and
/// records spans around prepare, update_values, apply/apply_device and
/// kplus_solve. An update_values span counts the K⁻¹ solve columns of its
/// assembly; an apply span counts its columns. Returns the traced key.
std::string traced_dual_operator(const std::string& key);

/// The same for the PreconditionerRegistry: spans around prepare,
/// update_values and apply/apply_device.
std::string traced_preconditioner(const std::string& key);

/// Sum of the durations of `spans` named `name` (optionally restricted to
/// one scope), and their number and summed counts.
struct SpanTotals {
  double seconds = 0.0;
  long calls = 0;
  long count = 0;
};
SpanTotals totals(const std::vector<Span>& spans, const char* name,
                  double from = -1e300, double to = 1e300, long scope = -1);

/// Self time of span `id`: its duration minus the union of its direct
/// children's intervals.
double self_time(const std::vector<Span>& spans, long id);

}  // namespace perfbench
