// Overload-resilience tests for the serving path: admission control and
// load shedding, per-request deadlines with cooperative cancellation,
// poison-request isolation, the degraded GMRES-only fallback, the
// factor-cache circuit breaker and byte budget, and the engine
// shutdown/destruction paths. The concurrency-sensitive cases run under
// the `fault` ctest label so the TSan job exercises them; everything
// here also carries the `serve` label.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "core/cancel.hpp"
#include "core/solver.hpp"
#include "iterative/gmres.hpp"
#include "obs/obs.hpp"
#include "serve/engine.hpp"
#include "serve/factor_cache.hpp"

namespace fdks::serve {
namespace {

using askit::AskitConfig;
using core::CancelledError;
using core::CancelToken;
using core::FastDirectSolver;
using kernel::Kernel;
using la::Matrix;
using la::index_t;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

Matrix clustered_points(index_t d, index_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 0.15);
  std::uniform_int_distribution<int> cl(0, 3);
  Matrix centers = Matrix::random_uniform(d, 4, rng, -2.0, 2.0);
  Matrix p(d, n);
  for (index_t j = 0; j < n; ++j) {
    const int c = cl(rng);
    for (index_t k = 0; k < d; ++k) p(k, j) = centers(k, c) + g(rng);
  }
  return p;
}

AskitConfig tight_config() {
  AskitConfig cfg;
  cfg.leaf_size = 32;
  cfg.max_rank = 48;
  cfg.tol = 1e-8;
  cfg.num_neighbors = 8;
  cfg.seed = 7;
  return cfg;
}

std::vector<double> random_rhs(index_t n, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> g(0.0, 1.0);
  std::vector<double> rhs(static_cast<size_t>(n));
  for (auto& v : rhs) v = g(rng);
  return rhs;
}

struct ServeFixture {
  Matrix p;
  askit::HMatrix h;
  std::shared_ptr<const FastDirectSolver> solver;
  explicit ServeFixture(index_t n, double lambda = 1.0, uint64_t seed = 31)
      : p(clustered_points(3, n, seed)),
        h(p, Kernel::gaussian(1.0), tight_config()) {
    core::SolverOptions opts;
    opts.lambda = lambda;
    solver = std::make_shared<FastDirectSolver>(h, opts);
  }
};

/// Collect a ServeError from a future expected to fail; nullopt if the
/// future yielded a value instead.
std::optional<ServeCode> error_code(std::future<ServeResult>& fut) {
  try {
    (void)fut.get();
    return std::nullopt;
  } catch (const ServeError& e) {
    return e.code();
  }
}

// ---- Cancellation primitive -----------------------------------------

TEST(CancelToken, DefaultNeverExpiresAndCheckPasses) {
  CancelToken t;
  EXPECT_FALSE(t.has_deadline());
  EXPECT_FALSE(t.expired());
  EXPECT_NO_THROW(t.check("test"));
  t.cancel();  // No-op on a non-cancellable token.
  EXPECT_FALSE(t.expired());
}

TEST(CancelToken, DeadlineExpiresAndThrows) {
  const CancelToken t = CancelToken::after(milliseconds(0));
  EXPECT_TRUE(t.has_deadline());
  EXPECT_TRUE(t.expired());
  EXPECT_THROW(t.check("test"), CancelledError);
  EXPECT_EQ(t.remaining(), CancelToken::clock::duration::zero());
}

TEST(CancelToken, ManualCancelSharedAcrossCopies) {
  const CancelToken t = CancelToken::manual();
  const CancelToken copy = t;
  EXPECT_FALSE(copy.expired());
  t.cancel();
  EXPECT_TRUE(copy.expired());
  EXPECT_THROW(copy.check("test"), CancelledError);
}

TEST(CancelToken, GmresAbortsOnExpiredToken) {
  const index_t n = 64;
  const CancelToken tok = CancelToken::after(milliseconds(0));
  iter::GmresOptions g;
  g.cancel = &tok;
  const std::vector<double> b(static_cast<size_t>(n), 1.0);
  const auto identity = [](std::span<const double> in,
                           std::span<double> out) {
    std::copy(in.begin(), in.end(), out.begin());
  };
  EXPECT_THROW(iter::gmres(n, identity, b, g), CancelledError);
}

TEST(CancelToken, DirectSolveAbortsOnExpiredToken) {
  ServeFixture fx(256);
  const CancelToken tok = CancelToken::after(milliseconds(0));
  const std::vector<double> rhs = random_rhs(fx.h.n(), 51);
  EXPECT_THROW(
      (void)fx.solver->solve(std::span<const double>(rhs), &tok),
      CancelledError);
  Matrix u(fx.h.n(), 2);
  EXPECT_THROW((void)fx.solver->solve(u, &tok), CancelledError);
}

// ---- Admission control / load shedding ------------------------------

TEST(ServeRobustness, SaturationEveryRequestResolvesStructurally) {
  ServeFixture fx(256);
  ServeOptions so;
  so.batch_max = 4;
  so.queue_max = 8;
  so.start_paused = true;
  ServeEngine engine(fx.solver, so);

  constexpr int kOffered = 32;
  std::vector<std::future<ServeResult>> futs;
  int shed = 0;
  for (int r = 0; r < kOffered; ++r) {
    try {
      futs.push_back(engine.submit(
          random_rhs(fx.h.n(), static_cast<uint64_t>(100 + r))));
    } catch (const ServeError& e) {
      EXPECT_EQ(e.code(), ServeCode::Overloaded);
      ++shed;
    }
  }
  // Offered load exceeded capacity: exactly queue_max requests were
  // admitted, the rest shed with a structured error.
  EXPECT_EQ(shed, kOffered - 8);
  EXPECT_EQ(futs.size(), 8u);

  engine.resume();
  // The invariant: every admitted request resolves — a value or a
  // structured ServeError — with no hung futures.
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    EXPECT_NO_THROW({
      try {
        const ServeResult res = f.get();
        EXPECT_TRUE(res.code == ServeCode::Ok ||
                    res.code == ServeCode::Degraded);
      } catch (const ServeError&) {
        // Structured failure: also an allowed resolution.
      }
    });
  }
  const ServeEngine::Stats st = engine.stats();
  EXPECT_EQ(st.requests, 8u);
  EXPECT_EQ(st.shed, static_cast<std::uint64_t>(kOffered - 8));
}

// ---- Deadlines -------------------------------------------------------

TEST(ServeRobustness, ExpiredRequestIsShedBeforePacking) {
  ServeFixture fx(256);
  ServeOptions so;
  so.start_paused = true;
  ServeEngine engine(fx.solver, so);

  // Already expired at submit: the worker must shed it without ever
  // spending a batch slot, and the future must fail in bounded time.
  std::future<ServeResult> doomed = engine.submit(
      random_rhs(fx.h.n(), 61), steady_clock::now() - milliseconds(1));
  std::future<ServeResult> fine = engine.submit(random_rhs(fx.h.n(), 62));
  engine.resume();

  ASSERT_EQ(doomed.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(error_code(doomed), ServeCode::DeadlineExceeded);
  EXPECT_EQ(fine.get().code, ServeCode::Ok);
  engine.drain();
  const ServeEngine::Stats st = engine.stats();
  EXPECT_EQ(st.expired, 1u);
  // The expired request never occupied a batch slot.
  EXPECT_EQ(st.max_batch, 1);
}

TEST(ServeRobustness, DefaultDeadlineAppliesToPlainSubmit) {
  ServeFixture fx(256);
  ServeOptions so;
  so.start_paused = true;
  so.default_deadline = milliseconds(20);
  ServeEngine engine(fx.solver, so);

  std::future<ServeResult> fut = engine.submit(random_rhs(fx.h.n(), 63));
  std::this_thread::sleep_for(milliseconds(60));  // Let it expire queued.
  engine.resume();
  ASSERT_EQ(fut.wait_for(std::chrono::seconds(30)),
            std::future_status::ready);
  EXPECT_EQ(error_code(fut), ServeCode::DeadlineExceeded);
}

// ---- Poison isolation ------------------------------------------------

TEST(ServeRobustness, SubmitRejectsNonFiniteRhsWhenValidating) {
  ServeFixture fx(256);
  ServeEngine engine(fx.solver);  // validate_rhs defaults to true.
  std::vector<double> rhs = random_rhs(fx.h.n(), 71);
  rhs[3] = std::nan("");
  try {
    engine.submit(std::move(rhs));
    FAIL() << "expected ServeError(InvalidRhs)";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeCode::InvalidRhs);
  }
  EXPECT_EQ(engine.stats().requests, 0u);
  EXPECT_EQ(engine.stats().poisoned, 1u);
}

TEST(ServeRobustness, PoisonColumnFailsAloneBatchmatesExact) {
  ServeFixture fx(256);
  ServeOptions so;
  so.batch_max = 8;
  so.start_paused = true;
  so.validate_rhs = false;  // Let the poison reach the batch.
  ServeEngine engine(fx.solver, so);

  constexpr int kReqs = 5;
  constexpr int kPoison = 2;
  std::vector<std::vector<double>> rhss;
  std::vector<std::future<ServeResult>> futs;
  for (int r = 0; r < kReqs; ++r) {
    rhss.push_back(random_rhs(fx.h.n(), static_cast<uint64_t>(200 + r)));
    if (r == kPoison) rhss.back()[7] = std::nan("");
    futs.push_back(engine.submit(std::vector<double>(rhss.back())));
  }
  engine.resume();

  for (int r = 0; r < kReqs; ++r) {
    if (r == kPoison) {
      EXPECT_EQ(error_code(futs[static_cast<size_t>(r)]),
                ServeCode::PoisonRhs);
      continue;
    }
    // Batchmates must match a solo solve to 1e-12: the poison column is
    // arithmetically isolated inside the block solve.
    const ServeResult res = futs[static_cast<size_t>(r)].get();
    EXPECT_EQ(res.code, ServeCode::Ok);
    const std::vector<double> want = fx.solver->solve(
        std::span<const double>(rhss[static_cast<size_t>(r)]));
    double worst = 0.0;
    for (size_t i = 0; i < want.size(); ++i)
      worst = std::max(worst, std::abs(res.x[i] - want[i]));
    EXPECT_LT(worst, 1e-12);
  }
  engine.drain();
  EXPECT_EQ(engine.stats().poisoned, 1u);
  // One batch served all five requests; the poison cost no bisection.
  EXPECT_EQ(engine.stats().batches, 1u);
}

// ---- Degraded mode ---------------------------------------------------

TEST(ServeRobustness, DegradedGmresSolveMatchesOperator) {
  ServeFixture fx(256);
  const std::vector<double> rhs = random_rhs(fx.h.n(), 81);
  const ServeResult res = degraded_gmres_solve(
      fx.h, 1.0, rhs, degraded_gmres_defaults());
  EXPECT_EQ(res.code, ServeCode::Degraded);
  EXPECT_TRUE(res.degraded());
  EXPECT_GE(res.residual, 0.0);
  EXPECT_LE(res.residual, 1e-3);
  EXPECT_LE(fx.h.relative_residual(res.x, rhs, 1.0), 1e-3);
}

TEST(ServeRobustness, QueueSaturationTriggersDegradedBatch) {
  ServeFixture fx(256);
  ServeOptions so;
  so.batch_max = 8;
  so.queue_max = 8;
  so.degrade_watermark = 0.5;
  so.start_paused = true;
  ServeEngine engine(fx.solver, so);

  std::vector<std::future<ServeResult>> futs;
  for (int r = 0; r < 8; ++r)
    futs.push_back(engine.submit(
        random_rhs(fx.h.n(), static_cast<uint64_t>(300 + r))));
  engine.resume();

  // Queue held 8 >= 0.5 * 8 at packing time: the whole batch is served
  // by the GMRES-only path and marked degraded.
  for (auto& f : futs) {
    const ServeResult res = f.get();
    EXPECT_EQ(res.code, ServeCode::Degraded);
    EXPECT_LE(res.residual, 1e-3);
  }
  engine.drain();
  EXPECT_EQ(engine.stats().degraded, 8u);
}

// Each outcome counter moves exactly with its Stats twin. In a degraded
// batch, a member whose own deadline passes during its solve ends
// DeadlineExceeded: it counts once, in serve.expired, and not in
// serve.degraded.
TEST(ServeRobustness, OutcomeCountersMatchStats) {
  ServeFixture fx(256);
  ServeOptions so;
  so.batch_max = 8;
  so.queue_max = 8;
  so.degrade_watermark = 0.5;
  so.start_paused = true;
  so.degraded_gmres.rtol = 0.0;  // Every GMRES runs to max_iters.
  so.degraded_gmres.max_iters = 20;
  // The first member's deadline passes during its own solve: every
  // degraded GMRES runs with an identity right preconditioner that waits
  // for that deadline (a no-op once it has passed).
  steady_clock::time_point deadline;  // Set at submission.
  so.degraded_gmres.right_precond = [&deadline](std::span<const double> in,
                                                std::span<double> out) {
    std::this_thread::sleep_until(deadline);
    std::copy(in.begin(), in.end(), out.begin());
  };

  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const obs::Snapshot before = obs::snapshot();
  ServeEngine engine(fx.solver, so);
  std::vector<std::future<ServeResult>> futs;
  deadline = steady_clock::now() + milliseconds(100);
  futs.push_back(engine.submit(random_rhs(fx.h.n(), 91), deadline));
  for (int r = 0; r < 4; ++r)
    futs.push_back(engine.submit(
        random_rhs(fx.h.n(), static_cast<uint64_t>(92 + r))));
  engine.resume();

  for (size_t r = 1; r < futs.size(); ++r)
    EXPECT_EQ(futs[r].get().code, ServeCode::Degraded);
  engine.drain();
  // Read the error after drain(): the worker has dropped its promise by
  // then, so this thread frees the exception, and ThreadSanitizer (which
  // cannot see libstdc++'s exception_ptr count) sees no race.
  EXPECT_EQ(error_code(futs[0]), ServeCode::DeadlineExceeded);
  const obs::Snapshot after = obs::snapshot();
  obs::set_enabled(was_enabled);

  const auto delta = [&](const char* key) {
    const auto count = [key](const obs::Snapshot& s) {
      const auto it = s.counters.find(key);
      return it != s.counters.end() ? it->second : 0.0;
    };
    return static_cast<std::uint64_t>(count(after) - count(before));
  };
  const ServeEngine::Stats st = engine.stats();
  EXPECT_EQ(st.expired, 1u);
  EXPECT_EQ(st.degraded, 4u);
  EXPECT_EQ(delta("serve.shed"), st.shed);
  EXPECT_EQ(delta("serve.expired"), st.expired);
  EXPECT_EQ(delta("serve.degraded"), st.degraded);
  EXPECT_EQ(delta("serve.poison"), st.poisoned);
  EXPECT_EQ(delta("serve.failed"), st.failed);
}

// ---- Drain semantics -------------------------------------------------

TEST(ServeRobustness, DrainOnPausedEngineReturnsWithQueuedWork) {
  ServeFixture fx(256);
  ServeOptions so;
  so.start_paused = true;
  ServeEngine engine(fx.solver, so);
  std::vector<std::future<ServeResult>> futs;
  for (int r = 0; r < 3; ++r)
    futs.push_back(engine.submit(
        random_rhs(fx.h.n(), static_cast<uint64_t>(400 + r))));

  // drain() waits for in-flight work only: on a paused engine with
  // queued requests it must return, not spin until a resume() that may
  // never come.
  EXPECT_TRUE(engine.drain_for(std::chrono::seconds(10)));
  engine.drain();  // Same predicate, unbounded form.

  engine.resume();
  engine.drain();  // Now waits until the queue is empty again.
  for (auto& f : futs) EXPECT_EQ(f.get().code, ServeCode::Ok);
}

// ---- Shutdown / destruction (fault label: TSan targets) --------------

TEST(ServeRobustness, DestructionFailsQueuedRequestsStructurally) {
  ServeFixture fx(256);
  std::vector<std::future<ServeResult>> futs;
  {
    ServeOptions so;
    so.start_paused = true;
    ServeEngine engine(fx.solver, so);
    for (int r = 0; r < 4; ++r)
      futs.push_back(engine.submit(
          random_rhs(fx.h.n(), static_cast<uint64_t>(500 + r))));
    // Engine destroyed with the queue full and the gate closed.
  }
  for (auto& f : futs) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(1)),
              std::future_status::ready);
    EXPECT_EQ(error_code(f), ServeCode::ShuttingDown);
  }
}

TEST(ServeRobustness, ShutdownRacingSubmittersDropsNoPromise) {
  ServeFixture fx(256);
  ServeOptions so;
  so.batch_max = 4;
  auto engine = std::make_unique<ServeEngine>(fx.solver, so);

  constexpr int kThreads = 4;
  std::atomic<int> unresolved{0};
  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int r = 0;; ++r) {
        std::future<ServeResult> fut;
        try {
          fut = engine->submit(random_rhs(
              fx.h.n(), static_cast<uint64_t>(600 + t * 1000 + r)));
        } catch (const ServeError& e) {
          // Structured admission failure — once the engine is stopping,
          // the submitter's work is done.
          if (e.code() == ServeCode::ShuttingDown) return;
          continue;
        }
        // Every future handed out must resolve, value or ServeError.
        if (fut.wait_for(std::chrono::seconds(30)) !=
            std::future_status::ready) {
          unresolved.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        try {
          (void)fut.get();
        } catch (const ServeError&) {
        }
      }
    });
  }
  std::this_thread::sleep_for(milliseconds(50));
  engine->shutdown();  // Races the active submitters.
  for (auto& th : ts) th.join();
  EXPECT_EQ(unresolved.load(), 0);
  engine.reset();  // Destructor after shutdown() must be a clean no-op.
}

// ---- Factor cache: breaker + byte budget -----------------------------

TEST(FactorCacheRobustness, BreakerTripsAfterRepeatedFailures) {
  ServeFixture fx(256);
  core::SolverOptions o;
  o.lambda = 1.0;

  std::atomic<bool> fail{true};
  FactorCacheOptions co;
  co.capacity = 2;
  co.breaker_threshold = 2;
  co.breaker_cooldown = milliseconds(150);
  co.factory = [&fail](const HMatrix& h, const core::SolverOptions& so)
      -> std::shared_ptr<const FastDirectSolver> {
    if (fail.load()) throw std::runtime_error("injected factor failure");
    return std::make_shared<FastDirectSolver>(h, so);
  };
  FactorCache cache(co);

  // Two consecutive failures trip the breaker...
  EXPECT_THROW((void)cache.get(fx.h, o), std::runtime_error);
  EXPECT_THROW((void)cache.get(fx.h, o), std::runtime_error);
  EXPECT_TRUE(cache.breaker_open(fx.h, o));

  // ...and while open, get() fast-fails with BreakerOpen instead of
  // re-running the factorization.
  try {
    (void)cache.get(fx.h, o);
    FAIL() << "expected ServeError(BreakerOpen)";
  } catch (const ServeError& e) {
    EXPECT_EQ(e.code(), ServeCode::BreakerOpen);
  }
  FactorCache::Stats st = cache.stats();
  EXPECT_EQ(st.failures, 2u);
  EXPECT_EQ(st.breaker_trips, 1u);
  EXPECT_EQ(st.breaker_rejects, 1u);
  EXPECT_EQ(st.misses, 2u);  // The fast-fail never counted as a miss.

  // After the cooldown the breaker goes half-open: one probe runs, and
  // a successful factorization clears the breaker entirely.
  fail.store(false);
  std::this_thread::sleep_for(milliseconds(200));
  EXPECT_FALSE(cache.breaker_open(fx.h, o));
  auto solver = cache.get(fx.h, o);
  ASSERT_TRUE(solver);
  EXPECT_FALSE(cache.breaker_open(fx.h, o));
  EXPECT_EQ(cache.stats().breaker_trips, 1u);
}

TEST(FactorCacheRobustness, ByteBudgetEvictsLru) {
  ServeFixture fx(256);
  core::SolverOptions o1, o2;
  o1.lambda = 1.0;
  o2.lambda = 2.0;

  // Learn one factor's footprint first (same HMatrix and options modulo
  // lambda → identical factor structure and byte count).
  FactorCache probe(4);
  auto s1 = probe.get(fx.h, o1);
  const size_t one = probe.bytes();
  ASSERT_GT(one, 0u);
  EXPECT_EQ(one, s1->factor_tree().memory_bytes());
  // For a fully factored tree the flat walk and the root subtree walk
  // agree.
  EXPECT_EQ(s1->factor_tree().memory_bytes(), s1->factor_bytes());

  // A budget that fits one factor but not two must evict the LRU entry
  // even though the entry-count capacity (4) is not exhausted.
  FactorCacheOptions co;
  co.capacity = 4;
  co.max_bytes = one + one / 2;
  FactorCache cache(co);
  (void)cache.get(fx.h, o1);
  (void)cache.get(fx.h, o2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_LE(cache.bytes(), co.max_bytes);
  EXPECT_EQ(cache.stats().evictions, 1u);

  // The survivor is the most recently used (lambda = 2).
  auto s2 = cache.get(fx.h, o2);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_DOUBLE_EQ(s2->lambda(), 2.0);
}

}  // namespace
}  // namespace fdks::serve
