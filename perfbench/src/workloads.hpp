// The four workloads and the helpers they share. Each run_* function
// warms the process up on a tiny instance of its own pipeline, builds its
// inputs from the seed, measures for opts.seconds, checks its answers,
// and fills a Result: end-to-end metrics for an untraced run, per-layer
// metrics for a traced one (see README.md for the definitions).
#pragma once

#include <string>
#include <vector>

#include "askit/hmatrix.hpp"
#include "common.hpp"
#include "data/generators.hpp"
#include "spans.hpp"

namespace perfbench {

Result run_train_cv(const Options& opts);
Result run_train_hybrid(const Options& opts);
Result run_serve_open(const Options& opts);
Result run_serve_burst(const Options& opts);

/// The workload's points: one fixed draw of n points of the given
/// synthetic kind, turned by a seeded random rotation. Kernels that
/// depend only on distances see the same problem for every seed, so the
/// seed changes every coordinate the library reads but not how much work
/// the data take.
Matrix workload_points(fdks::data::SyntheticKind kind, index_t n,
                       std::uint64_t seed);

/// Training right-hand sides for the same fixed draw: the labels (or the
/// regression targets) as the first column, fixed Gaussian columns after.
/// They do not change with the seed: the hybrid's GMRES stops at a
/// residual that depends on the right-hand side, and a fixed one keeps
/// its iteration count, and so its time, the same for every seed.
Matrix training_rhs(fdks::data::SyntheticKind kind, index_t n, index_t b);

/// ‖(K̃W − KW)_S‖ / ‖(KW)_S‖ over a sample S of `rows` rows and eight
/// columns W, drawn from a fixed seed so that every run scores the same
/// points; the exact rows come from KernelMatrix::block.
double approx_err(const fdks::askit::HMatrix& h, index_t rows = 512);

/// ‖(λI+K̃)x_j − u_j‖ / ‖u_j‖ for column j, via HMatrix::apply (one
/// treecode apply, the expensive part of every check).
double column_residual(const fdks::askit::HMatrix& h, const Matrix& x,
                       const Matrix& u, index_t j, double lambda);

/// Skeleton rank sum and skeletonized-node count of an HMatrix.
std::pair<double, double> skeleton_totals(const fdks::askit::HMatrix& h);

/// Process peak resident set in MB.
double peak_rss_mb();

/// Inputs the per-layer report needs from the workload itself.
struct LayerInputs {
  int root = -1;                        ///< The traced phase's span.
  std::vector<std::string> build_spans;   ///< HMatrix constructions.
  std::vector<std::string> factor_spans;  ///< First factorizations.
  std::vector<std::string> serving_spans; ///< The serving window.
  double rank_sum = 0.0;
  double nodes = 0.0;
  double solve_ms_per_rhs = 0.0;
  double reduced_size = 0.0;
  std::vector<double> gen_late_s;       ///< Generator lateness samples.
  double trace_overhead = 0.0;          ///< Traced ÷ untraced time.
};

/// Fill every per-layer metric from the tracer, the obs registry and
/// `in`; layers a workload does not run report 0.
void layer_metrics(Result& r, const LayerInputs& in);

/// The work counters the self-test expects to repeat exactly for a seed.
std::map<std::string, double> work_counts();

/// Time the timed loops leave for the checks and the host probes.
constexpr double kReserve = 2.5;

}  // namespace perfbench
