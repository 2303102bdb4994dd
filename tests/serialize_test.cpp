// Tests for HMatrix binary serialization: the loaded representation must
// be operationally identical to the saved one (matvecs, frontier,
// solver results). Also covers the checkpoint layer built on the same
// wire format: FactorTree checkpoints must round-trip bit-exactly, and
// damaged files (flipped byte, truncation, wrong identity) must be
// rejected with a diagnostic naming the reason — never loaded.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <random>
#include <unistd.h>

#include "askit/serialize.hpp"
#include "ckpt/checkpoint.hpp"
#include "core/solver.hpp"
#include "data/generators.hpp"
#include "la/blas1.hpp"

namespace fdks::askit {
namespace {

namespace fs = std::filesystem;
using la::Matrix;
using la::index_t;

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("fdks_ser_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string path(const char* name) { return (dir_ / name).string(); }
  fs::path dir_;
};

HMatrix build_sample(index_t n, index_t level_restriction = 0) {
  data::Dataset ds =
      data::make_synthetic(data::SyntheticKind::CovtypeLike, n, 31);
  AskitConfig cfg;
  cfg.leaf_size = 32;
  cfg.max_rank = 48;
  cfg.tol = 1e-6;
  cfg.num_neighbors = 4;
  cfg.level_restriction = level_restriction;
  cfg.seed = 17;
  return HMatrix(ds.points, Kernel::gaussian(3.0), cfg);
}

TEST_F(SerializeTest, RoundTripPreservesStructure) {
  HMatrix h = build_sample(300);
  save_hmatrix(path("h.bin"), h);
  HMatrix back = load_hmatrix(path("h.bin"));

  EXPECT_EQ(back.n(), h.n());
  EXPECT_EQ(back.dim(), h.dim());
  EXPECT_EQ(back.tree().perm(), h.tree().perm());
  EXPECT_EQ(back.tree().nodes().size(), h.tree().nodes().size());
  EXPECT_EQ(back.frontier(), h.frontier());
  EXPECT_EQ(back.stats().skeletonized_nodes, h.stats().skeletonized_nodes);
  for (index_t id = 0; id < static_cast<index_t>(h.tree().nodes().size());
       ++id) {
    EXPECT_EQ(back.is_skeletonized(id), h.is_skeletonized(id));
    EXPECT_EQ(back.skeleton(id).skel, h.skeleton(id).skel);
    if (h.skeleton(id).proj.size() > 0) {
      EXPECT_EQ(la::max_abs_diff(back.skeleton(id).proj,
                                 h.skeleton(id).proj),
                0.0);
    }
  }
}

TEST_F(SerializeTest, MatvecsAreBitIdentical) {
  HMatrix h = build_sample(256);
  save_hmatrix(path("h.bin"), h);
  HMatrix back = load_hmatrix(path("h.bin"));
  std::mt19937_64 rng(5);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> w(256);
  for (auto& v : w) v = g(rng);
  std::vector<double> y1(256), y2(256);
  h.apply(w, y1, 0.3);
  back.apply(w, y2, 0.3);
  for (size_t i = 0; i < y1.size(); ++i) EXPECT_EQ(y1[i], y2[i]);
}

TEST_F(SerializeTest, SolverOnLoadedMatchesOriginal) {
  HMatrix h = build_sample(320, /*level_restriction=*/2);
  save_hmatrix(path("h.bin"), h);
  HMatrix back = load_hmatrix(path("h.bin"));

  core::SolverOptions so;
  so.lambda = 1.0;
  core::FastDirectSolver s1(h, so);
  core::FastDirectSolver s2(back, so);
  std::mt19937_64 rng(6);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> u(320);
  for (auto& v : u) v = g(rng);
  auto x1 = s1.solve(u);
  auto x2 = s2.solve(u);
  EXPECT_LT(la::nrm2(la::vsub(x1, x2)) / la::nrm2(x1), 1e-14);
}

TEST_F(SerializeTest, RejectsCorruptFiles) {
  EXPECT_THROW(load_hmatrix(path("missing.bin")), std::runtime_error);
  {
    std::ofstream junk(path("junk.bin"), std::ios::binary);
    junk << "garbage";
  }
  EXPECT_THROW(load_hmatrix(path("junk.bin")), std::runtime_error);
}

TEST_F(SerializeTest, KernelParametersSurvive) {
  data::Dataset ds = data::make_synthetic(data::SyntheticKind::SusyLike,
                                          128, 7);
  AskitConfig cfg;
  cfg.leaf_size = 32;
  cfg.max_rank = 32;
  cfg.tol = 1e-5;
  cfg.num_neighbors = 0;
  HMatrix h(ds.points, Kernel::matern32(1.7), cfg);
  save_hmatrix(path("m.bin"), h);
  HMatrix back = load_hmatrix(path("m.bin"));
  EXPECT_EQ(back.kernel().type, kernel::KernelType::Matern32);
  EXPECT_EQ(back.kernel().bandwidth, 1.7);
  EXPECT_EQ(back.config().tol, 1e-5);
  EXPECT_EQ(back.config().leaf_size, 32);
}

// ---- Checkpoint layer (src/ckpt, same wire-format family) ------------

TEST_F(SerializeTest, FactorTreeCheckpointRoundTripsBitExactly) {
  HMatrix h = build_sample(256);
  core::SolverOptions so;
  so.lambda = 1.0;
  core::FactorTree ft(h, so);
  const index_t root = h.tree().root();
  ft.factorize_subtree(root, /*compute_phat=*/false);
  const index_t roots[] = {root};
  ckpt::save_factor_tree(path("f.ckpt"), ft, roots, "test");

  core::FactorTree back(h, so);
  ckpt::load_factor_tree(path("f.ckpt"), back, roots, "test");

  std::mt19937_64 rng(9);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> u(256);
  for (auto& v : u) v = g(rng);
  std::vector<double> x1 = h.to_tree_order(u);
  std::vector<double> x2 = x1;
  ft.solve_subtree(root, x1);
  back.solve_subtree(root, x2);
  for (size_t i = 0; i < x1.size(); ++i)
    EXPECT_EQ(x1[i], x2[i]) << "restored factors must be bit-identical";

  // The factor-status accumulators travel with the factors.
  EXPECT_EQ(back.factor_status().code, ft.factor_status().code);
  EXPECT_EQ(back.factor_status().shifted_nodes,
            ft.factor_status().shifted_nodes);
  EXPECT_EQ(back.factor_status().lambda_effective,
            ft.factor_status().lambda_effective);
}

TEST_F(SerializeTest, CheckpointRejectsSingleFlippedByte) {
  HMatrix h = build_sample(200);
  core::SolverOptions so;
  core::FactorTree ft(h, so);
  const index_t roots[] = {h.tree().root()};
  ft.factorize_subtree(roots[0], false);
  ckpt::save_factor_tree(path("c.ckpt"), ft, roots, "test");

  const auto size = fs::file_size(path("c.ckpt"));
  {
    std::fstream f(path("c.ckpt"),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(size / 2));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0x40);
    f.seekp(static_cast<std::streamoff>(size / 2));
    f.write(&b, 1);
  }

  core::FactorTree back(h, so);
  std::string diag;
  EXPECT_FALSE(ckpt::try_load_factor_tree(path("c.ckpt"), back, roots,
                                          "test", &diag));
  EXPECT_NE(diag.find("checksum mismatch"), std::string::npos) << diag;
  EXPECT_THROW(ckpt::load_factor_tree(path("c.ckpt"), back, roots, "test"),
               ckpt::CheckpointError);
}

TEST_F(SerializeTest, CheckpointRefusesOlderFactorTreeKind) {
  HMatrix h = build_sample(200);
  core::SolverOptions so;
  core::FactorTree ft(h, so);
  const index_t roots[] = {h.tree().root()};
  ft.factorize_subtree(roots[0], false);
  ckpt::save_factor_tree(path("v.ckpt"), ft, roots, "test");

  // The same payload in a valid envelope of the previous kind, whose
  // content checksum was the byte-wise one: refused as an old version,
  // not as a corrupt file.
  const std::string payload =
      ckpt::read_blob(path("v.ckpt"), "fdks.factor_tree.v3");
  ckpt::write_blob(path("v.ckpt"), "fdks.factor_tree.v2", payload);

  core::FactorTree back(h, so);
  std::string diag;
  EXPECT_FALSE(ckpt::try_load_factor_tree(path("v.ckpt"), back, roots,
                                          "test", &diag));
  EXPECT_NE(diag.find("kind mismatch"), std::string::npos) << diag;
  EXPECT_NE(diag.find("fdks.factor_tree.v2"), std::string::npos) << diag;
  EXPECT_EQ(diag.find("corrupt"), std::string::npos) << diag;
}

TEST_F(SerializeTest, CheckpointRejectsTruncation) {
  HMatrix h = build_sample(200);
  core::SolverOptions so;
  core::FactorTree ft(h, so);
  const index_t roots[] = {h.tree().root()};
  ft.factorize_subtree(roots[0], false);
  ckpt::save_factor_tree(path("t.ckpt"), ft, roots, "test");
  fs::resize_file(path("t.ckpt"), fs::file_size(path("t.ckpt")) / 2);

  core::FactorTree back(h, so);
  std::string diag;
  EXPECT_FALSE(ckpt::try_load_factor_tree(path("t.ckpt"), back, roots,
                                          "test", &diag));
  EXPECT_NE(diag.find("truncated"), std::string::npos) << diag;
}

TEST_F(SerializeTest, CheckpointRejectsWrongIdentity) {
  HMatrix h = build_sample(200);
  core::SolverOptions so;
  so.lambda = 1.0;
  core::FactorTree ft(h, so);
  const index_t roots[] = {h.tree().root()};
  ft.factorize_subtree(roots[0], false);
  ckpt::save_factor_tree(path("i.ckpt"), ft, roots, "test");

  // Same HMatrix, different lambda: the fingerprint must not match —
  // restoring these factors would silently solve the wrong system.
  core::SolverOptions other = so;
  other.lambda = 2.0;
  core::FactorTree wrong_opts(h, other);
  std::string diag;
  EXPECT_FALSE(ckpt::try_load_factor_tree(path("i.ckpt"), wrong_opts, roots,
                                          "test", &diag));
  EXPECT_NE(diag.find("fingerprint mismatch"), std::string::npos) << diag;

  // Same tree and options, different scope: also a different identity.
  core::FactorTree wrong_scope(h, so);
  EXPECT_FALSE(ckpt::try_load_factor_tree(path("i.ckpt"), wrong_scope, roots,
                                          "other-scope", &diag));
  EXPECT_NE(diag.find("fingerprint mismatch"), std::string::npos) << diag;

  // Missing file: clean refusal, not an exception, on the try_ path.
  EXPECT_FALSE(ckpt::try_load_factor_tree(path("absent.ckpt"), wrong_scope,
                                          roots, "test", &diag));
  EXPECT_NE(diag.find("no checkpoint"), std::string::npos) << diag;
}

TEST_F(SerializeTest, StageMarkersRoundTripAndSurviveCorruption) {
  const std::string d = (dir_ / "stages").string();
  ckpt::ensure_dir(d);
  EXPECT_FALSE(ckpt::stage_done(d, "compress"));
  ckpt::mark_stage(d, "compress", "hmatrix.bin");
  std::string detail;
  EXPECT_TRUE(ckpt::stage_done(d, "compress", &detail));
  EXPECT_EQ(detail, "hmatrix.bin");

  // A torn marker counts as absent (the stage re-runs) with a reason.
  {
    std::ofstream junk(ckpt::join(d, "stage_factorize.ok"),
                       std::ios::binary);
    junk << "torn";
  }
  std::string diag;
  EXPECT_FALSE(ckpt::stage_done(d, "factorize", nullptr, &diag));
  EXPECT_FALSE(diag.empty());
}

}  // namespace
}  // namespace fdks::askit
