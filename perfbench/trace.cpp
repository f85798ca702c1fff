#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "core/dualop_registry.hpp"
#include "precond/precond_registry.hpp"

namespace perfbench {

namespace {

const auto kProcessStart = std::chrono::steady_clock::now();

using feti::idx;

/// Parent and scope of a decorator's spans: the benchmark's active span,
/// and the scope of the decorated problem when it was tagged (service
/// tenants), else the benchmark's active scope (step index).
class SpanContext {
 public:
  explicit SpanContext(const feti::decomp::FetiProblem& p)
      : scope_(Tracer::instance().scope_of(&p)) {}
  [[nodiscard]] static long parent() {
    return Tracer::instance().active_parent();
  }
  [[nodiscard]] long scope() const {
    return scope_ >= 0 ? scope_ : Tracer::instance().active_scope();
  }

 private:
  long scope_;
};

/// Forwards every DualOperator call to the wrapped implementation; the
/// counters and capability queries are the inner operator's.
class TracedDualOperator final : public feti::core::DualOperator {
 public:
  explicit TracedDualOperator(std::unique_ptr<DualOperator> inner)
      : DualOperator(inner->problem()),
        inner_(std::move(inner)),
        context_(inner_->problem()) {}

  void prepare() override {
    ScopedSpan s("core.dualop_prepare", parent(), scope());
    inner_->prepare();
  }
  void update_values() override {
    Tracer& tr = Tracer::instance();
    const long id = tr.open("core.update_values", parent(), scope());
    const long before = inner_->solve_columns();
    try {
      inner_->update_values();
    } catch (...) {
      tr.close(id);
      throw;
    }
    tr.close(id, inner_->solve_columns() - before);
  }
  [[nodiscard]] const char* name() const override { return inner_->name(); }
  void kplus_solve(idx sub, const double* b, double* x) const override {
    ScopedSpan s("core.kplus_solve", parent(), scope());
    inner_->kplus_solve(sub, b, x);
  }
  [[nodiscard]] feti::gpu::ExecutionContext* device_context() override {
    return inner_->device_context();
  }
  [[nodiscard]] long loop_fallback_count() const override {
    return inner_->loop_fallback_count();
  }
  [[nodiscard]] feti::core::CacheStats cache_stats() const override {
    return inner_->cache_stats();
  }
  [[nodiscard]] std::size_t apply_bytes() const override {
    return inner_->apply_bytes();
  }
  [[nodiscard]] long solve_columns() const override {
    return inner_->solve_columns();
  }

 protected:
  void apply_one(const double* x, double* y) override {
    ScopedSpan s("core.apply", parent(), scope(), 1);
    inner_->apply(x, y);
  }
  void apply_many(const double* x, double* y, idx nrhs) override {
    ScopedSpan s("core.apply", parent(), scope(), nrhs);
    inner_->apply(x, y, nrhs);
  }
  void apply_many_device(const double* d_x, double* d_y, idx nrhs) override {
    ScopedSpan s("core.apply", parent(), scope(), nrhs);
    inner_->apply_device(d_x, d_y, nrhs);
  }

 private:
  [[nodiscard]] static long parent() { return SpanContext::parent(); }
  [[nodiscard]] long scope() const { return context_.scope(); }

  std::unique_ptr<DualOperator> inner_;
  SpanContext context_;
};

class TracedPreconditioner final : public feti::precond::Preconditioner {
 public:
  explicit TracedPreconditioner(std::unique_ptr<Preconditioner> inner)
      : Preconditioner(inner->problem()),
        inner_(std::move(inner)),
        context_(inner_->problem()) {}

  void prepare() override {
    ScopedSpan s("precond.prepare", parent(), scope());
    inner_->prepare();
  }
  void update_values() override {
    ScopedSpan s("precond.update_values", parent(), scope());
    inner_->update_values();
  }
  [[nodiscard]] feti::gpu::ExecutionContext* device_context() override {
    return inner_->device_context();
  }
  [[nodiscard]] const char* key() const override { return inner_->key(); }
  [[nodiscard]] long loop_fallback_count() const override {
    return inner_->loop_fallback_count();
  }
  [[nodiscard]] feti::core::CacheStats cache_stats() const override {
    return inner_->cache_stats();
  }

 protected:
  void apply_one(const double* x, double* y) override {
    ScopedSpan s("precond.apply", parent(), scope(), 1);
    inner_->apply(x, y);
  }
  void apply_many(const double* x, double* y, idx nrhs) override {
    ScopedSpan s("precond.apply", parent(), scope(), nrhs);
    inner_->apply(x, y, nrhs);
  }
  void apply_many_device(const double* d_x, double* d_y, idx nrhs) override {
    ScopedSpan s("precond.apply", parent(), scope(), nrhs);
    inner_->apply_device(d_x, d_y, nrhs);
  }

 private:
  [[nodiscard]] static long parent() { return SpanContext::parent(); }
  [[nodiscard]] long scope() const { return context_.scope(); }

  std::unique_ptr<Preconditioner> inner_;
  SpanContext context_;
};

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

long Tracer::open(const char* name, long parent, long scope, long count) {
  if (!enabled()) return 0;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  Span s;
  s.name = name;
  s.start = t;
  s.end = t;
  s.id = static_cast<long>(spans_.size()) + 1;
  s.parent = parent;
  s.scope = scope;
  s.count = count;
  spans_.push_back(s);
  return s.id;
}

void Tracer::close(long id) {
  if (id <= 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id - 1)].end = t;
}

void Tracer::close(long id, long count) {
  if (id <= 0) return;
  const double t = now_s();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& s = spans_[static_cast<std::size_t>(id - 1)];
  s.end = t;
  s.count = count;
}

void Tracer::tag_problem(const feti::decomp::FetiProblem* p, long scope) {
  std::lock_guard<std::mutex> lock(mutex_);
  tags_.emplace_back(p, scope);
}

long Tracer::scope_of(const feti::decomp::FetiProblem* p) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [problem, scope] : tags_)
    if (problem == p) return scope;
  return -1;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (const Span& s : spans())
    std::fprintf(f,
                 "{\"id\": %ld, \"parent\": %ld, \"name\": \"%s\", "
                 "\"start\": %.9f, \"end\": %.9f, \"scope\": %ld, "
                 "\"count\": %ld}\n",
                 s.id, s.parent, s.name, s.start, s.end, s.scope, s.count);
  std::fclose(f);
}

std::string traced_dual_operator(const std::string& key) {
  static std::mutex mutex;
  std::lock_guard<std::mutex> lock(mutex);
  auto& registry = feti::core::DualOperatorRegistry::instance();
  const std::string traced = "traced:" + key;
  if (registry.contains(traced)) return traced;
  feti::core::DualOperatorInfo info = registry.info(key);
  info.key = traced;
  info.summary = "span-recording decorator of '" + key + "'";
  registry.add(info, [key](const feti::decomp::FetiProblem& p,
                           const feti::core::DualOpConfig& config,
                           feti::gpu::ExecutionContext* context) {
    return std::make_unique<TracedDualOperator>(
        feti::core::DualOperatorRegistry::instance().create(key, p, config,
                                                            context));
  });
  return traced;
}

std::string traced_preconditioner(const std::string& key) {
  static std::mutex mutex;
  std::lock_guard<std::mutex> lock(mutex);
  auto& registry = feti::precond::PreconditionerRegistry::instance();
  const std::string traced = "traced:" + key;
  if (registry.contains(traced)) return traced;
  feti::precond::PreconditionerInfo info = registry.info(key);
  info.key = traced;
  info.summary = "span-recording decorator of '" + key + "'";
  registry.add(info, [key](const feti::decomp::FetiProblem& p,
                           feti::gpu::ExecutionContext* context) {
    return std::make_unique<TracedPreconditioner>(
        feti::precond::PreconditionerRegistry::instance().create(key, p,
                                                                 context));
  });
  return traced;
}

SpanTotals totals(const std::vector<Span>& spans, const char* name,
                  double from, double to, long scope) {
  SpanTotals t;
  const std::string wanted = name;
  for (const Span& s : spans) {
    if (wanted != s.name || s.start < from || s.start > to) continue;
    if (scope >= 0 && s.scope != scope) continue;
    t.seconds += s.end - s.start;
    ++t.calls;
    t.count += s.count;
  }
  return t;
}

double self_time(const std::vector<Span>& spans, long id) {
  const Span& me = spans[static_cast<std::size_t>(id - 1)];
  std::vector<std::pair<double, double>> kids;
  for (const Span& s : spans)
    if (s.parent == id)
      kids.emplace_back(std::max(s.start, me.start), std::min(s.end, me.end));
  std::sort(kids.begin(), kids.end());
  double covered = 0.0, reach = me.start;
  for (const auto& [a, b] : kids) {
    const double lo = std::max(a, reach);
    if (b > lo) {
      covered += b - lo;
      reach = b;
    }
  }
  return (me.end - me.start) - covered;
}

}  // namespace perfbench
