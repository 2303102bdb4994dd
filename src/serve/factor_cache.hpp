// Factorization cache for the serving front end (fdks_serve).
//
// A factorization is minutes of work; a solve is milliseconds. A
// long-lived serving process therefore keys factored solvers by the
// same identity fingerprint the checkpoint layer uses (points, kernel,
// tree config, factor-affecting options, lambda — see
// ckpt::factor_fingerprint) and reuses them across requests. The cache
// is thread-safe and coalesces concurrent requests for the same key
// into ONE factorization: the first caller factorizes, the rest block
// on the in-flight entry and share the result.
//
// Eviction is *memory-budgeted*: every ready entry accounts its factor
// bytes (FactorTree::memory_bytes()), and the least recently used
// ready entries are evicted while the cache exceeds max_bytes (and/or
// the entry-count capacity). The resident total is published as the
// serve.cache_bytes gauge (obs::gauge, last-value semantics): every
// insert/evict/heal sets it to the bytes held right now.
//
// Resident factors are integrity-checked lazily: every FastDirectSolver
// seals a content checksum (word-wise hash of the factor payload) at
// factorization, and the cache re-verifies it on the first hit and
// every integrity_check_every-th hit thereafter. A mismatch — cosmic
// ray, bad DIMM, stray write — is self-healing: the corrupted entry is
// dropped (verify.integrity_fail) and the same get() refactorizes from
// scratch, so the caller still receives a sound factor and never sees
// the corruption.
//
// Repeated factorization failures trip a per-key circuit breaker:
// after breaker_threshold consecutive failures, get() for that key
// fast-fails with ServeError(BreakerOpen) for breaker_cooldown instead
// of burning minutes re-failing the same factorization. After the
// cooldown one probe attempt is allowed (half-open); success resets
// the breaker, failure re-trips it. Callers can fall back to the
// factorization-free degraded path (serve::degraded_gmres_solve).
//
// Observability: serve.cache_hit / serve.cache_miss / serve.cache_evict
// / serve.breaker_open counters and the serve.cache_bytes gauge
// (registered in obs/keys.hpp).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "core/solver.hpp"
#include "serve/status.hpp"

namespace fdks::serve {

using core::HMatrix;
using core::SolverOptions;

struct FactorCacheOptions {
  /// Maximum number of resident factorizations (entry-count bound).
  size_t capacity = 4;
  /// Byte budget over all resident factors (FactorTree::memory_bytes());
  /// LRU ready entries are evicted while the total exceeds it. 0 = no
  /// byte budget (entry count alone bounds the cache).
  size_t max_bytes = 0;
  /// Circuit breaker: consecutive factorization failures for one key
  /// before get() fast-fails with ServeError(BreakerOpen). 0 disables.
  int breaker_threshold = 3;
  /// How long a tripped breaker rejects before allowing a probe.
  std::chrono::milliseconds breaker_cooldown{1000};
  /// Lazy factor-integrity cadence: verify the sealed content checksum
  /// on an entry's first hit and then every Nth hit. A mismatch drops
  /// the entry and refactorizes within the same get() (self-healing).
  /// 0 disables integrity checking.
  int integrity_check_every = 64;
  /// Factorization hook — tests inject failing/instrumented factories;
  /// null means construct a FastDirectSolver(h, opts) directly.
  std::function<std::shared_ptr<const core::FastDirectSolver>(
      const HMatrix&, const SolverOptions&)>
      factory;
};

class FactorCache {
 public:
  /// Entry-count-only construction (back-compatible shorthand).
  explicit FactorCache(size_t capacity = 4);
  explicit FactorCache(FactorCacheOptions opts);

  /// Return the factored solver for (h, opts), factorizing on a miss.
  /// h must outlive every solver handed out for it. Concurrent calls
  /// with the same fingerprint share one factorization. Throws (with
  /// the factorization error) if the underlying factorization throws —
  /// a failed entry is removed so a later call can retry — and
  /// ServeError(BreakerOpen) while the key's breaker is in cooldown.
  /// Hits on the integrity cadence re-verify the solver's sealed
  /// checksum first; a corrupted entry is dropped and refactorized
  /// before returning (the caller never sees the corruption).
  std::shared_ptr<const core::FastDirectSolver> get(const HMatrix& h,
                                                    const SolverOptions& opts);

  /// The cache key: the checkpoint identity fingerprint of a factor
  /// tree built from (h, opts), under scope "serve".
  static std::string fingerprint(const HMatrix& h, const SolverOptions& opts);

  size_t size() const;
  size_t capacity() const { return opts_.capacity; }
  /// Bytes held by ready entries right now (the serve.cache_bytes gauge).
  size_t bytes() const;

  /// True while the breaker for (h, opts) would fast-fail a get().
  bool breaker_open(const HMatrix& h, const SolverOptions& opts) const;

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t failures = 0;         ///< Factorizations that threw.
    std::uint64_t breaker_trips = 0;    ///< Closed -> open transitions.
    std::uint64_t breaker_rejects = 0;  ///< get() fast-fails while open.
    std::uint64_t integrity_failures = 0;  ///< Checksum mismatches healed
                                           ///< by refactorization.
  };
  Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<const core::FastDirectSolver> solver;
    bool ready = false;
    bool failed = false;
    std::string error;
    size_t bytes = 0;  ///< memory_bytes() once ready; 0 in flight.
    std::uint64_t hits = 0;  ///< Hits served; drives the integrity cadence.
  };

  struct Breaker {
    int consecutive_failures = 0;
    std::chrono::steady_clock::time_point open_until{};
  };

  void evict_locked();

  const FactorCacheOptions opts_;
  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< Signals in-flight entries turning ready.
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
  std::unordered_map<std::string, Breaker> breakers_;
  std::list<std::string> lru_;  ///< Most recent first.
  size_t bytes_ = 0;            ///< Sum over ready entries.
  Stats stats_;
};

}  // namespace fdks::serve
