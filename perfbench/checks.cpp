#include "checks.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace perfbench {

using feti::idx;

GlobalReference::GlobalReference(const feti::decomp::FetiProblem& p)
    : ndof_(p.global_dofs),
      free_of_(static_cast<std::size_t>(p.global_dofs), 0),
      k_parts_(p.sub.size()),
      f_parts_(p.sub.size()),
      solver_(feti::sparse::make_solver(feti::sparse::Backend::Supernodal)) {
  for (const auto& s : p.sub)
    for (idx d : s.sys.dirichlet_dofs) free_of_[s.dof_l2g[d]] = -1;
  idx nfree = 0;
  for (idx& f : free_of_)
    if (f != -1) f = nfree++;

  std::vector<feti::la::Triplet> pattern;
  for (const auto& s : p.sub) {
    const feti::la::Csr& k = s.sys.k;
    for (idx r = 0; r < k.nrows(); ++r) {
      const idx gr = free_of_[s.dof_l2g[r]];
      if (gr == -1) continue;
      for (idx e = k.row_begin(r); e < k.row_end(r); ++e) {
        const idx gc = free_of_[s.dof_l2g[k.col(e)]];
        if (gc != -1) pattern.push_back({gr, gc, 0.0});
      }
    }
  }
  k_ = feti::la::Csr::from_triplets(nfree, nfree, std::move(pattern));

  const auto position = [&](idx r, idx c) {
    const auto& cols = k_.colidx();
    const auto first = cols.begin() + k_.row_begin(r);
    const auto last = cols.begin() + k_.row_end(r);
    return static_cast<idx>(std::lower_bound(first, last, c) - cols.begin());
  };
  for (std::size_t si = 0; si < p.sub.size(); ++si) {
    const auto& s = p.sub[si];
    const feti::la::Csr& k = s.sys.k;
    for (idx r = 0; r < k.nrows(); ++r) {
      const idx gr = free_of_[s.dof_l2g[r]];
      if (gr == -1) continue;
      f_parts_[si].emplace_back(gr, s.sys.f[r]);
      for (idx e = k.row_begin(r); e < k.row_end(r); ++e) {
        const idx gc = free_of_[s.dof_l2g[k.col(e)]];
        if (gc != -1) k_parts_[si].emplace_back(position(gr, gc), k.val(e));
      }
    }
  }
  solver_->analyze(k_, feti::sparse::OrderingKind::MinimumDegree);
}

void GlobalReference::factorize(const std::vector<double>& kscale) {
  std::vector<double>& vals = k_.vals();
  std::fill(vals.begin(), vals.end(), 0.0);
  for (std::size_t s = 0; s < k_parts_.size(); ++s)
    for (const auto& [pos, v] : k_parts_[s]) vals[pos] += kscale[s] * v;
  solver_->factorize(k_);
}

Verdict GlobalReference::check(const std::vector<double>& fscale,
                               const std::vector<double>& u) const {
  const idx n = k_.nrows();
  std::vector<double> f(static_cast<std::size_t>(n), 0.0);
  for (std::size_t s = 0; s < f_parts_.size(); ++s)
    for (const auto& [i, v] : f_parts_[s]) f[i] += fscale[s] * v;
  std::vector<double> x(static_cast<std::size_t>(n));
  solver_->solve(f.data(), x.data());

  // Expand the reference to the full global numbering (zero on the
  // Dirichlet DOFs) and restrict the candidate to the free DOFs.
  std::vector<double> ref(static_cast<std::size_t>(ndof_), 0.0);
  std::vector<double> uf(static_cast<std::size_t>(n));
  for (idx g = 0; g < ndof_; ++g) {
    if (free_of_[g] == -1) continue;
    ref[g] = x[free_of_[g]];
    uf[free_of_[g]] = u[g];
  }
  double rr = 0.0, ff = 0.0;
  for (idx r = 0; r < n; ++r) {
    double ku = 0.0;
    for (idx e = k_.row_begin(r); e < k_.row_end(r); ++e)
      ku += k_.val(e) * uf[k_.col(e)];
    rr += (ku - f[r]) * (ku - f[r]);
    ff += f[r] * f[r];
  }
  Verdict v;
  v.rel_error = u.size() == ref.size() ? relative_difference(u, ref) : 1.0;
  v.rel_residual = std::sqrt(rr / ff);
  v.ok = v.rel_error <= kMaxRelError && v.rel_residual <= kMaxRelResidual;
  return v;
}

double relative_difference(const std::vector<double>& u,
                           const std::vector<double>& ref) {
  if (u.size() != ref.size()) return 1.0;
  double dd = 0.0, rr = 0.0;
  for (std::size_t i = 0; i < u.size(); ++i) {
    dd += (u[i] - ref[i]) * (u[i] - ref[i]);
    rr += ref[i] * ref[i];
  }
  return rr > 0.0 ? std::sqrt(dd / rr) : std::sqrt(dd);
}

std::vector<double> dual_load_case(const feti::decomp::FetiProblem& p,
                                   std::uint64_t seed) {
  feti::Rng rng(seed);
  std::vector<double> d(static_cast<std::size_t>(p.num_lambdas), 0.0);
  std::vector<double> x;
  for (const auto& s : p.sub) {
    const double level = rng.uniform(-1.0, 1.0);
    x.resize(static_cast<std::size_t>(s.ndof()));
    for (double& v : x) v = level + 0.1 * rng.uniform(-1.0, 1.0);
    for (idx r = 0; r < s.b.nrows(); ++r) {
      double bx = 0.0;
      for (idx e = s.b.row_begin(r); e < s.b.row_end(r); ++e)
        bx += s.b.val(e) * x[s.b.col(e)];
      d[s.lm_l2c[r]] += bx;
    }
  }
  return d;
}

}  // namespace perfbench
