#include "ckpt/checkpoint.hpp"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "askit/wire.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace fdks::ckpt {

namespace {

namespace wire = askit::wire;
namespace fs = std::filesystem;

constexpr std::uint64_t kMagic = 0x46444b53434b5031ull;  // "FDKSCKP1".
constexpr std::uint32_t kVersion = 1;

// v2 appended the factor-content checksum (FactorTree::content_checksum)
// after the accumulators; v3 seals the word-wise checksum instead. Older
// checkpoints are refused by kind mismatch, as an old version rather
// than as corrupt, and simply refactorized.
constexpr const char* kKindFactorTree = "fdks.factor_tree.v3";
constexpr const char* kKindStage = "fdks.stage.v1";

[[noreturn]] void reject(const std::string& path, const std::string& why) {
  obs::add("ckpt.rejected");
  obs::trace::instant("ckpt.rejected");
  throw CheckpointError("checkpoint " + path + ": " + why);
}

// -- LU / Cholesky / kernel-block field groups -------------------------

void put_lu(std::ostream& out, const la::LuFactor& f) {
  wire::put_matrix(out, f.lu);
  wire::put_ids(out, f.piv);
  wire::put(out, f.min_pivot);
  wire::put(out, f.max_pivot);
  wire::put<std::uint8_t>(out, f.singular ? 1 : 0);
}

la::LuFactor get_lu(std::istream& in) {
  la::LuFactor f;
  f.lu = wire::get_matrix(in);
  f.piv = wire::get_ids(in);
  f.min_pivot = wire::get<double>(in);
  f.max_pivot = wire::get<double>(in);
  f.singular = wire::get<std::uint8_t>(in) != 0;
  return f;
}

void put_chol(std::ostream& out, const la::CholFactor& f) {
  wire::put_matrix(out, f.l);
  wire::put<std::uint8_t>(out, f.spd ? 1 : 0);
  wire::put(out, f.min_diag);
}

la::CholFactor get_chol(std::istream& in) {
  la::CholFactor f;
  f.l = wire::get_matrix(in);
  f.spd = wire::get<std::uint8_t>(in) != 0;
  f.min_diag = wire::get<double>(in);
  return f;
}

void put_block(std::ostream& out, const kernel::KernelBlockOp& op) {
  const bool present = !op.row_ids().empty() || !op.col_ids().empty();
  wire::put<std::uint8_t>(out, present ? 1 : 0);
  if (!present) return;
  wire::put<std::int32_t>(out, static_cast<std::int32_t>(op.scheme()));
  wire::put_ids(out, op.row_ids());
  wire::put_ids(out, op.col_ids());
  wire::put_matrix(out, op.stored_block());
}

kernel::KernelBlockOp get_block(std::istream& in,
                                const kernel::KernelMatrix* km) {
  if (wire::get<std::uint8_t>(in) == 0) return {};
  const auto scheme =
      static_cast<kernel::Scheme>(wire::get<std::int32_t>(in));
  auto rows = wire::get_ids(in);
  auto cols = wire::get_ids(in);
  auto stored = wire::get_matrix(in);
  return kernel::KernelBlockOp(km, std::move(rows), std::move(cols), scheme,
                               std::move(stored));
}

void put_node_factor(std::ostream& out, const core::NodeFactor& f) {
  wire::put<std::uint8_t>(out, f.factored ? 1 : 0);
  wire::put(out, f.diag_shift);
  wire::put<std::uint8_t>(out, f.leaf_uses_chol ? 1 : 0);
  put_lu(out, f.leaf_lu);
  put_chol(out, f.leaf_chol);
  put_block(out, f.v_lr);
  put_block(out, f.v_rl);
  put_lu(out, f.z_lu);
  wire::put(out, f.z_norm1);
  wire::put_matrix(out, f.phat);
  wire::put_matrix(out, f.tmat);
}

core::NodeFactor get_node_factor(std::istream& in,
                                 const kernel::KernelMatrix* km) {
  core::NodeFactor f;
  f.factored = wire::get<std::uint8_t>(in) != 0;
  f.diag_shift = wire::get<double>(in);
  f.leaf_uses_chol = wire::get<std::uint8_t>(in) != 0;
  f.leaf_lu = get_lu(in);
  f.leaf_chol = get_chol(in);
  f.v_lr = get_block(in, km);
  f.v_rl = get_block(in, km);
  f.z_lu = get_lu(in);
  f.z_norm1 = wire::get<double>(in);
  f.phat = wire::get_matrix(in);
  f.tmat = wire::get_matrix(in);
  return f;
}

void collect_subtree(const askit::HMatrix& h, index_t id,
                     std::vector<index_t>& out) {
  out.push_back(id);
  const tree::Node& nd = h.tree().node(id);
  if (!nd.is_leaf()) {
    collect_subtree(h, nd.left, out);
    collect_subtree(h, nd.right, out);
  }
}

}  // namespace

// -- Envelope layer ----------------------------------------------------

void write_blob(const std::string& path, const std::string& kind,
                const std::string& payload) {
  obs::ScopedTimer timer("ckpt.save");
  const std::uint64_t checksum = wire::fnv1a(payload.data(), payload.size());
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out)
      throw CheckpointError("checkpoint " + path + ": cannot open " + tmp +
                            " for writing");
    wire::put(out, kMagic);
    wire::put(out, kVersion);
    wire::put_string(out, kind);
    wire::put<std::uint64_t>(out, payload.size());
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    wire::put(out, checksum);
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw CheckpointError("checkpoint " + path + ": write failed on " +
                            tmp);
    }
  }
  // Atomic publish: readers see either the previous checkpoint or this
  // one, never a torn file.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError("checkpoint " + path + ": rename from " + tmp +
                          " failed");
  }
  obs::add("ckpt.saved");
  obs::add("ckpt.bytes_written", static_cast<double>(payload.size()));
  obs::trace::instant("ckpt.save");
}

std::string read_blob(const std::string& path, const std::string& kind) {
  obs::ScopedTimer timer("ckpt.load");
  std::ifstream in(path, std::ios::binary);
  if (!in) reject(path, "cannot open file");
  if (wire::get<std::uint64_t>(in) != kMagic || !in)
    reject(path, "bad magic (not a fdks checkpoint)");
  const auto version = wire::get<std::uint32_t>(in);
  if (version != kVersion)
    reject(path, "unsupported format version " + std::to_string(version) +
                     " (expected " + std::to_string(kVersion) + ")");
  const std::string got_kind = wire::get_string(in);
  if (!in) reject(path, "truncated header");
  if (got_kind != kind)
    reject(path, "kind mismatch: file holds '" + got_kind +
                     "', expected '" + kind + "'");
  const auto declared = wire::get<std::uint64_t>(in);
  std::string payload(declared, '\0');
  in.read(payload.data(), static_cast<std::streamsize>(declared));
  const auto got = static_cast<std::uint64_t>(in.gcount());
  if (got != declared)
    reject(path, "truncated: payload declares " + std::to_string(declared) +
                     " bytes, file holds " + std::to_string(got));
  const auto checksum = wire::get<std::uint64_t>(in);
  if (!in) reject(path, "truncated: checksum trailer missing");
  if (checksum != wire::fnv1a(payload.data(), payload.size()))
    reject(path, "checksum mismatch (file is corrupt)");
  obs::add("ckpt.loaded");
  obs::trace::instant("ckpt.restore");
  return payload;
}

// -- Directory / stage-marker layer ------------------------------------

void ensure_dir(const std::string& dir) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec || !fs::is_directory(dir))
    throw CheckpointError("checkpoint dir " + dir + ": cannot create (" +
                          ec.message() + ")");
}

std::string join(const std::string& dir, const std::string& name) {
  return (fs::path(dir) / name).string();
}

bool file_exists(const std::string& path) {
  std::error_code ec;
  return fs::exists(path, ec);
}

void mark_stage(const std::string& dir, const std::string& stage,
                const std::string& detail) {
  std::ostringstream payload;
  wire::put_string(payload, stage);
  wire::put_string(payload, detail);
  write_blob(join(dir, "stage_" + stage + ".ok"), kKindStage, payload.str());
}

bool stage_done(const std::string& dir, const std::string& stage,
                std::string* detail, std::string* diagnostic) {
  const std::string path = join(dir, "stage_" + stage + ".ok");
  if (!file_exists(path)) {
    if (diagnostic) *diagnostic = "no marker at " + path;
    return false;
  }
  try {
    std::istringstream payload(read_blob(path, kKindStage));
    const std::string got_stage = wire::get_string(payload);
    if (got_stage != stage)
      throw CheckpointError("checkpoint " + path + ": marker names stage '" +
                            got_stage + "', expected '" + stage + "'");
    const std::string got_detail = wire::get_string(payload);
    if (detail) *detail = got_detail;
    return true;
  } catch (const CheckpointError& e) {
    // A corrupt marker means the stage must re-run; surface why.
    if (diagnostic) *diagnostic = e.what();
    return false;
  }
}

// -- FactorTree checkpoints --------------------------------------------

std::string factor_fingerprint(const core::FactorTree& ft,
                               const std::string& scope) {
  const askit::HMatrix& h = ft.hmatrix();
  const core::SolverOptions& o = ft.options();
  const kernel::Kernel& k = h.kernel();
  const askit::AskitConfig& c = h.config();
  const auto& perm = h.tree().perm();
  std::ostringstream fp;
  fp << std::hexfloat;
  fp << "fdks-factor-fp-v1"
     << "|n=" << h.n() << "|dim=" << h.dim()
     << "|nodes=" << h.tree().nodes().size()
     << "|kernel=" << static_cast<int>(k.type) << ',' << k.bandwidth << ','
     << k.shift << ',' << k.degree
     << "|cfg=" << c.leaf_size << ',' << c.max_rank << ',' << c.tol << ','
     << c.level_restriction << ',' << c.num_neighbors << ','
     << c.sample_oversampling << ',' << c.seed << ','
     << c.adaptive_frontier << ',' << c.approx_neighbors
     << "|perm=" << wire::fnv1a(perm.data(), perm.size() * sizeof(index_t))
     // Factor-affecting solver options only: traversal knobs
     // (parallel_tree, levelwise) and checkpoint_dir produce identical
     // factors and are deliberately excluded.
     << "|opts=" << o.lambda << ',' << static_cast<int>(o.algo) << ','
     << static_cast<int>(o.scheme) << ',' << o.rcond_threshold << ','
     << o.compact_w << ',' << o.spd_leaves << ',' << o.auto_shift << ','
     << o.shift_initial << ',' << o.max_shift_retries
     << "|scope=" << scope;
  return fp.str();
}

void save_factor_tree(const std::string& path, const core::FactorTree& ft,
                      std::span<const index_t> roots,
                      const std::string& scope) {
  std::ostringstream payload;
  wire::put_string(payload, factor_fingerprint(ft, scope));

  std::vector<index_t> root_list(roots.begin(), roots.end());
  wire::put_ids(payload, root_list);
  std::vector<index_t> ids;
  for (index_t r : roots) collect_subtree(ft.hmatrix(), r, ids);
  wire::put_ids(payload, ids);
  for (index_t id : ids) put_node_factor(payload, ft.factor(id));

  const core::FactorAccumulators acc = ft.accumulators();
  wire::put(payload, acc.stab.min_leaf_pivot_ratio);
  wire::put(payload, acc.stab.min_z_rcond);
  wire::put<std::int64_t>(payload, acc.stab.flagged_nodes);
  wire::put(payload, acc.stab.threshold);
  wire::put<std::int64_t>(payload, acc.shifted_nodes);
  wire::put<std::int64_t>(payload, acc.shift_retries);
  wire::put<std::int64_t>(payload, acc.nonfinite_nodes);
  wire::put(payload, acc.max_shift);

  // Content checksum: word-wise hash of every factored node's numeric
  // payload, recomputed after the factors are adopted at load time so a
  // checkpoint that rotted on disk (or a serialization bug) is rejected
  // instead of silently serving wrong answers.
  wire::put<std::uint64_t>(payload, ft.content_checksum());

  write_blob(path, kKindFactorTree, payload.str());
}

void load_factor_tree(const std::string& path, core::FactorTree& ft,
                      std::span<const index_t> roots,
                      const std::string& scope) {
  std::istringstream payload(read_blob(path, kKindFactorTree));

  const std::string want_fp = factor_fingerprint(ft, scope);
  const std::string got_fp = wire::get_string(payload);
  if (got_fp != want_fp)
    reject(path,
           "fingerprint mismatch — the checkpoint belongs to a different "
           "(points, kernel, config, solver options, scope); found '" +
               got_fp + "', expected '" + want_fp + "'");

  const std::vector<index_t> got_roots = wire::get_ids(payload);
  if (got_roots != std::vector<index_t>(roots.begin(), roots.end()))
    reject(path, "subtree root set mismatch");

  const std::vector<index_t> ids = wire::get_ids(payload);
  const auto nnodes =
      static_cast<index_t>(ft.hmatrix().tree().nodes().size());
  const kernel::KernelMatrix* km = &ft.hmatrix().km();
  for (index_t id : ids) {
    if (id < 0 || id >= nnodes)
      reject(path, "node id " + std::to_string(id) + " outside [0, " +
                       std::to_string(nnodes) + ")");
    ft.adopt_factor(id, get_node_factor(payload, km));
  }

  core::FactorAccumulators acc;
  acc.stab.min_leaf_pivot_ratio = wire::get<double>(payload);
  acc.stab.min_z_rcond = wire::get<double>(payload);
  acc.stab.flagged_nodes =
      static_cast<index_t>(wire::get<std::int64_t>(payload));
  acc.stab.threshold = wire::get<double>(payload);
  acc.shifted_nodes = static_cast<index_t>(wire::get<std::int64_t>(payload));
  acc.shift_retries = static_cast<index_t>(wire::get<std::int64_t>(payload));
  acc.nonfinite_nodes =
      static_cast<index_t>(wire::get<std::int64_t>(payload));
  acc.max_shift = wire::get<double>(payload);
  if (!payload) reject(path, "payload shorter than its node table");
  ft.adopt_accumulators(acc);

  // Restore-time integrity: the adopted factors must hash to the same
  // content checksum the saver sealed. A mismatch means the factor
  // payload changed between save and load — reject so the caller
  // refactorizes from scratch (self-healing, like a cache-hit failure).
  const std::uint64_t want_sum = wire::get<std::uint64_t>(payload);
  if (!payload) reject(path, "payload missing its content checksum");
  obs::add("verify.integrity_check");
  if (ft.content_checksum() != want_sum) {
    obs::add("verify.integrity_fail");
    reject(path,
           "factor content checksum mismatch — the checkpoint payload "
           "is corrupt");
  }
}

bool try_load_factor_tree(const std::string& path, core::FactorTree& ft,
                          std::span<const index_t> roots,
                          const std::string& scope, std::string* diagnostic) {
  if (!file_exists(path)) {
    if (diagnostic) *diagnostic = "no checkpoint at " + path;
    return false;
  }
  try {
    load_factor_tree(path, ft, roots, scope);
    return true;
  } catch (const CheckpointError& e) {
    if (diagnostic) *diagnostic = e.what();
    return false;
  }
}

void load_or_factorize(core::FactorTree& ft, std::span<const index_t> roots,
                       const std::string& file, const std::string& scope,
                       const std::function<void()>& factorize) {
  const std::string& dir = ft.options().checkpoint_dir;
  if (dir.empty()) {
    factorize();
    return;
  }
  ensure_dir(dir);
  const std::string path = join(dir, file);
  if (try_load_factor_tree(path, ft, roots, scope)) return;
  factorize();
  save_factor_tree(path, ft, roots, scope);
}

}  // namespace fdks::ckpt
