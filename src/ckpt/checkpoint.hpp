// Checkpoint/restart for the factorization pipeline.
//
// A 3,072-core-scale run of the paper's O(N log N) factorization is
// long enough that transient faults (a killed rank, a torn write) must
// not discard completed work. This module extends the askit/serialize
// format family (shared primitives in askit/wire.hpp) with restartable
// state:
//
//   Envelope — every checkpoint file is a self-validating blob:
//     magic "FDKSCKP1", format version, a kind string naming what the
//     payload is, the payload length, and an FNV-1a payload checksum.
//     Writes are atomic (write to a temp file, then rename), so a crash
//     mid-write leaves either the old file or a temp that is never
//     read. Truncated or corrupted files are *detected and skipped*
//     with a clear diagnostic — never loaded.
//
//   FactorTree checkpoints — the factored per-node state (leaf LU /
//     Cholesky factors, V kernel blocks, reduced-system LUs, P^ / T
//     matrices) of one or more subtrees, plus the factor-status
//     accumulators. A fingerprint of the (HMatrix, SolverOptions,
//     scope) identity is stored and verified on load, so a checkpoint
//     is never restored into a tree it does not belong to.
//
//   Stage markers — tiny witness files recording that a pipeline stage
//     (compress, factorize, solve) completed, so `fdks_tool
//     --checkpoint-dir=DIR` resumes an interrupted pipeline from the
//     last completed stage.
//
// The recovery supervisor (core/recovery.hpp) re-executes failed
// distributed runs; the solvers' SolverOptions::checkpoint_dir hook
// makes the re-execution resume from the state saved here. Checkpoint
// timing and outcomes land in the obs registry ("ckpt.*").
#pragma once

#include <functional>
#include <span>
#include <stdexcept>
#include <string>

#include "core/factor_tree.hpp"

namespace fdks::ckpt {

using la::index_t;

/// A checkpoint file could not be read back: missing, wrong magic or
/// version, wrong kind, truncated, checksum mismatch, or a fingerprint
/// that does not match the tree being restored. what() names the file
/// and the reason.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// -- Envelope layer ----------------------------------------------------

/// Atomically write `payload` as a checkpoint blob of the given kind:
/// the envelope is assembled and checksummed in memory, written to
/// `path + ".tmp"`, then renamed over `path`.
void write_blob(const std::string& path, const std::string& kind,
                const std::string& payload);

/// Read and validate a checkpoint blob, returning the payload. Throws
/// CheckpointError (with the file and reason) on any validation
/// failure; a rejected file is counted under "ckpt.rejected".
std::string read_blob(const std::string& path, const std::string& kind);

// -- Directory / stage-marker layer ------------------------------------

/// Create `dir` (and parents) if needed; throws CheckpointError when
/// the path exists but is not a directory or cannot be created.
void ensure_dir(const std::string& dir);

std::string join(const std::string& dir, const std::string& name);

bool file_exists(const std::string& path);

/// Record that pipeline stage `stage` completed (witness file
/// `stage_<stage>.ok` inside `dir`), with an optional free-form detail
/// string (e.g. the artifact path the stage produced).
void mark_stage(const std::string& dir, const std::string& stage,
                const std::string& detail = "");

/// True when a *valid* marker for `stage` exists; fills `detail` when
/// requested. A corrupt/truncated marker counts as absent (the stage
/// re-runs) and the reason is reported through `diagnostic`.
bool stage_done(const std::string& dir, const std::string& stage,
                std::string* detail = nullptr,
                std::string* diagnostic = nullptr);

// -- FactorTree checkpoints --------------------------------------------

/// Identity of the factorization a checkpoint belongs to: the HMatrix
/// (sizes, kernel, config, permutation hash), the factor-affecting
/// SolverOptions, and a caller-chosen scope string (e.g. "seq" or
/// "dist p=4 rank=2 root=5") distinguishing which part of which
/// topology the factors cover.
std::string factor_fingerprint(const core::FactorTree& ft,
                               const std::string& scope);

/// Save the factored state of the subtrees rooted at `roots` (plus the
/// factor-status accumulators) to `path`, atomically.
void save_factor_tree(const std::string& path, const core::FactorTree& ft,
                      std::span<const index_t> roots,
                      const std::string& scope);

/// Restore a factor-tree checkpoint into `ft` (built from the same
/// HMatrix and options; FactorTree is non-movable, so restore mutates
/// in place). `roots` and `scope` must match the save. Throws
/// CheckpointError on any validation or identity mismatch.
void load_factor_tree(const std::string& path, core::FactorTree& ft,
                      std::span<const index_t> roots,
                      const std::string& scope);

/// Non-throwing wrapper around load_factor_tree for the resume path:
/// false (with the reason in `diagnostic`) when the file is missing or
/// invalid — the caller factorizes fresh instead.
bool try_load_factor_tree(const std::string& path, core::FactorTree& ft,
                          std::span<const index_t> roots,
                          const std::string& scope,
                          std::string* diagnostic = nullptr);

/// The checkpoint-or-factorize step of every solver's factorization.
/// With ft.options().checkpoint_dir set, restore the subtrees rooted at
/// `roots` from `<dir>/<file>` when a valid checkpoint for `scope`
/// exists there, otherwise run `factorize` and save its result to that
/// file. With no checkpoint directory it just runs `factorize`.
void load_or_factorize(core::FactorTree& ft, std::span<const index_t> roots,
                       const std::string& file, const std::string& scope,
                       const std::function<void()>& factorize);

}  // namespace fdks::ckpt
