// Level restriction and the hybrid direct/iterative solver (§II-C).
//
//   ./hybrid_solver [N] [L]
//
// Builds a level-restricted hierarchical representation (skeletonization
// stops at level L), then solves the same system three ways:
//   (a) unpreconditioned GMRES on the treecode matvec (Figure 5 blue),
//   (b) the hybrid solver: direct up to the frontier + GMRES on the
//       reduced system (Figure 5 orange),
//   (c) the level-restricted direct factorization (Table V baseline),
// and reports time, residual, and Krylov iteration counts.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <random>
#include <vector>

#include "core/hybrid.hpp"
#include "core/solver.hpp"
#include "data/generators.hpp"
#include "iterative/gmres.hpp"
#include "example_util.hpp"

namespace {
double now_minus(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}
}  // namespace

int main(int argc, char** argv) {
  using namespace fdks;
  const la::index_t n = examples::arg_n(argc, argv, 1, 4096);
  const la::index_t level = examples::arg_n(argc, argv, 2, 3);
  const double lambda = 1.0;

  data::Dataset ds = data::make_synthetic(data::SyntheticKind::Normal, n, 5);
  askit::AskitConfig acfg;
  acfg.leaf_size = 128;
  acfg.max_rank = 96;
  acfg.tol = 1e-5;
  acfg.num_neighbors = 0;
  acfg.level_restriction = level;
  askit::HMatrix h(ds.points, kernel::Kernel::gaussian(0.5), acfg);
  std::printf("N=%td d=%td L=%td frontier=%zu\n", n, ds.dim(), level,
              h.frontier().size());

  std::mt19937_64 rng(9);
  std::vector<double> u(static_cast<size_t>(n));
  std::normal_distribution<double> g(0.0, 1.0);
  for (auto& v : u) v = g(rng);

  // (a) Unpreconditioned GMRES on (lambda I + K~) via the treecode.
  {
    auto t0 = std::chrono::steady_clock::now();
    iter::GmresOptions go;
    go.rtol = 1e-8;
    go.max_iters = 150;
    auto r = iter::gmres(
        n,
        [&](std::span<const double> x, std::span<double> y) {
          h.apply_source(x, y, lambda);
        },
        u, go);
    std::printf("[gmres ] T=%7.3fs iters=%3d r=%.2e converged=%s\n",
                now_minus(t0), r.iterations, r.relative_residual,
                r.converged ? "yes" : "no");
  }

  // (b) Hybrid: factorize up to the frontier, GMRES on (I + VW).
  {
    auto t0 = std::chrono::steady_clock::now();
    core::HybridOptions ho;
    ho.direct.lambda = lambda;
    ho.gmres.rtol = 1e-10;
    // Guardrail: certify the answer (target 1e-6) and escalate if missed.
    ho.direct.verify.mode = core::VerifyMode::Always;
    core::HybridSolver hy(h, ho);
    const double tf = now_minus(t0);
    std::vector<double> x(static_cast<size_t>(n));
    core::SolveStatus st = hy.solve_with_status(u, x);
    std::printf(
        "[hybrid] T=%7.3fs (factor %.3fs) reduced=%td ksp=%d r=%.2e "
        "mem=%.1fMB\n",
        now_minus(t0), tf, hy.reduced_size(), st.gmres_iterations,
        h.relative_residual(x, u, lambda),
        double(hy.factor_bytes()) / 1048576.0);
    std::printf("[hybrid] status: %s\n", st.message().c_str());
  }

  // (c) Level-restricted direct factorization (expanded above frontier).
  {
    auto t0 = std::chrono::steady_clock::now();
    core::SolverOptions so;
    so.lambda = lambda;
    core::FastDirectSolver solver(h, so);
    const double tf = now_minus(t0);
    auto x = solver.solve(u);
    std::printf("[direct] T=%7.3fs (factor %.3fs) r=%.2e mem=%.1fMB\n",
                now_minus(t0), tf, h.relative_residual(x, u, lambda),
                double(solver.factor_bytes()) / 1048576.0);
  }
  return 0;
}
