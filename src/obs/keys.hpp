// Single source of truth for every observability key the tree emits.
//
// Every string handed to obs::add / obs::hist / obs::record /
// obs::ScopedTimer / obs::trace::instant — and every counter name a
// bench stamps into a Snapshot — must appear in the FDKS_OBS_KEYS
// table below, and every table entry must be emitted somewhere in
// src/, bench/, or examples/ (or be explicitly marked Reserved).
// scripts/lint/fdks_lint.py parses this table (rules OBS-KEY /
// OBS-DEAD) and proves both directions on every `scripts/check.sh`
// run, so the fdks-bench-v3 schema the regression gate
// (scripts/bench_compare.py) compares against cannot silently drift
// from what the code emits.
//
// Table format (one entry per line, parsed by regex — keep it rigid):
//
//   X(kConstantName, "key.literal", Kind)
//
// Kinds:
//   Counter   — obs::add() accumulation.
//   Gauge     — obs::gauge() last-value level (cache residency, error
//               budget); exported under the Prometheus `gauge` type.
//   Histogram — obs::hist() log-bucketed samples.
//   Timer     — obs::ScopedTimer / obs::record scope name.
//   Instant   — obs::trace::instant event name.
//   Prefix    — a dynamic key family (per-rank / per-tag names built
//               with snprintf). The literal is the family prefix; the
//               lint checks the prefix appears in a format string and
//               exempts runtime-built names at sites tagged
//               `fdks-lint: allow(OBS-KEY)`.
//   Reserved  — registered for a future emitter or for keys written
//               by external tooling; exempt from the OBS-DEAD
//               "must be emitted" check.
//
// Adding a key: add the X(...) line here first, then emit it; the
// linter fails the build if either half is missing. Renaming or
// deleting a key is a bench-schema change — refresh
// bench/baselines/ via scripts/update_baselines.sh in the same PR.
#pragma once

#include <string_view>

// clang-format off
#define FDKS_OBS_KEYS(X)                                                   \
  /* checkpoint/restart (src/ckpt) */                                      \
  X(kCkptBytesWritten,        "ckpt.bytes_written",          Counter)      \
  X(kCkptLoaded,              "ckpt.loaded",                 Counter)      \
  X(kCkptRejected,            "ckpt.rejected",               Counter)      \
  X(kCkptSaved,               "ckpt.saved",                  Counter)      \
  X(kCkptLoadScope,           "ckpt.load",                   Timer)        \
  X(kCkptSaveScope,           "ckpt.save",                   Timer)        \
  X(kCkptRestoreEvent,        "ckpt.restore",                Instant)      \
  /* dense kernels (src/la) */                                             \
  X(kFlopsGemm,               "flops.gemm",                  Counter)      \
  X(kFlopsGemv,               "flops.gemv",                  Counter)      \
  X(kGemmCalls,               "gemm.calls",                  Counter)      \
  X(kGemvCalls,               "gemv.calls",                  Counter)      \
  /* iterative solver (src/iterative) */                                   \
  X(kGmresIterations,         "gmres.iterations",            Counter)      \
  X(kGmresSolves,             "gmres.solves",                Counter)      \
  X(kGmresIterSeconds,        "gmres.iter_seconds",          Histogram)    \
  X(kGmresScope,              "gmres",                       Timer)        \
  /* kernel summation (src/kernel) */                                      \
  X(kGsksCalls,               "gsks.calls",                  Counter)      \
  X(kGsksKernelEvals,         "gsks.kernel_evals",           Counter)      \
  X(kGsksEvalsPerCall,        "gsks.evals_per_call",         Histogram)    \
  X(kGsksScope,               "gsks",                        Timer)        \
  /* numerical guardrails (PR 2) */                                        \
  X(kGuardEscalations,        "guardrail.escalations",       Counter)      \
  X(kGuardGmresBreakdown,     "guardrail.gmres_breakdown",   Counter)      \
  X(kGuardGmresNonfinite,     "guardrail.gmres_nonfinite",   Counter)      \
  X(kGuardGmresStagnation,    "guardrail.gmres_stagnation",  Counter)      \
  X(kGuardNonfiniteNodes,     "guardrail.nonfinite_nodes",   Counter)      \
  X(kGuardNonfiniteRhs,       "guardrail.nonfinite_rhs",     Counter)      \
  X(kGuardShiftRetries,       "guardrail.shift_retries",     Counter)      \
  X(kGuardShiftedNodes,       "guardrail.shifted_nodes",     Counter)      \
  /* solver phases (src/core, src/askit, src/tree, src/knn) */             \
  X(kFactorLeafSeconds,       "factor.leaf_seconds",         Histogram)    \
  X(kHybridReducedSize,       "hybrid.reduced_size",         Counter)      \
  X(kScopeDistFactorize,      "dist.factorize",              Timer)        \
  X(kScopeDistLevel,          "dist.level",                  Timer)        \
  X(kScopeDistSolve,          "dist.solve",                  Timer)        \
  X(kScopeFactorize,          "factorize",                   Timer)        \
  X(kScopeKnn,                "knn",                         Timer)        \
  X(kScopeLeaf,               "leaf",                        Timer)        \
  X(kScopeLocalFactor,        "local_factor",                Timer)        \
  X(kScopeLocalSolve,         "local_solve",                 Timer)        \
  X(kScopeSkeletonize,        "skeletonize",                 Timer)        \
  X(kScopeSolve,              "solve",                       Timer)        \
  X(kScopeTelescope,          "telescope",                   Timer)        \
  X(kScopeTree,               "tree",                        Timer)        \
  X(kScopeVAssembly,          "v_assembly",                  Timer)        \
  X(kScopeZFactor,            "z_factor",                    Timer)        \
  X(kSkeletonAchievedTol,     "skeleton.achieved_tol",       Histogram)    \
  X(kSkeletonCappedNodes,     "skeleton.capped_nodes",       Counter)      \
  X(kSkeletonNodes,           "skeleton.nodes",              Counter)      \
  X(kSkeletonRankSum,         "skeleton.rank_sum",           Counter)      \
  /* message-passing runtime (src/mpisim) */                               \
  X(kMpisimBytes,             "mpisim.bytes",                Counter)      \
  X(kMpisimBytesRecvPrefix,   "mpisim.bytes.recv.",          Prefix)       \
  X(kMpisimBytesSentPrefix,   "mpisim.bytes.sent.",          Prefix)       \
  X(kMpisimFaultCorrupt,      "mpisim.fault.corrupt",        Counter)      \
  X(kMpisimFaultDelay,        "mpisim.fault.delay",          Counter)      \
  X(kMpisimFaultDrop,         "mpisim.fault.drop",           Counter)      \
  X(kMpisimFaultDuplicate,    "mpisim.fault.duplicate",      Counter)      \
  X(kMpisimFaultInjected,     "mpisim.fault.injected",       Counter)      \
  X(kMpisimFaultKill,         "mpisim.fault.kill",           Counter)      \
  X(kMpisimFaultStall,        "mpisim.fault.stall",          Counter)      \
  X(kMpisimMessages,          "mpisim.messages",             Counter)      \
  X(kMpisimRecoverBytes,      "mpisim.recover.bytes",        Counter)      \
  X(kMpisimRecoverChecksum,   "mpisim.recover.checksum_reject", Counter)   \
  X(kMpisimRecoverDupSupp,    "mpisim.recover.duplicate_suppressed", Counter) \
  X(kMpisimRecoverExhausted,  "mpisim.recover.exhausted",    Counter)      \
  X(kMpisimRecoverRecovered,  "mpisim.recover.recovered",    Counter)      \
  X(kMpisimRecoverRetransmit, "mpisim.recover.retransmit",   Counter)      \
  X(kMpisimTimeouts,          "mpisim.timeouts",             Counter)      \
  X(kMpisimWaitSeconds,       "mpisim.wait_seconds",         Histogram)    \
  X(kScopeMpisimRecv,         "mpisim.recv",                 Timer)        \
  X(kScopeMpisimSend,         "mpisim.send",                 Timer)        \
  /* live telemetry plumbing (src/obs/export, src/obs/eventlog) */         \
  X(kObsEventlogLines,        "obs.eventlog_lines",          Counter)      \
  X(kObsScrapes,              "obs.scrapes",                 Counter)      \
  /* process memory (stamped by bench_util / fdks_tool) */                 \
  X(kMemPeakRssBytes,         "mem.peak_rss_bytes",          Counter)      \
  X(kMemCurrentRssBytes,      "mem.current_rss_bytes",       Reserved)     \
  /* supervised re-execution (src/core/recovery) */                        \
  X(kRecoverAttempts,         "recover.attempts",            Counter)      \
  X(kRecoverExhaustedRuns,    "recover.exhausted_runs",      Counter)      \
  X(kRecoverRecoveredRuns,    "recover.recovered_runs",      Counter)      \
  X(kRecoverRetries,          "recover.retries",             Counter)      \
  X(kRecoverAttemptEvent,     "recover.attempt",             Instant)      \
  X(kRecoverRetryEvent,       "recover.retry",               Instant)      \
  X(kRecoverRetryAttemptEvent,"recover.retry_attempt",       Instant)      \
  /* serving front end (src/serve, bench/bench_serving) */                 \
  X(kServeBatches,            "serve.batches",               Counter)      \
  X(kServeBatchSeconds,       "serve.batch_seconds",         Histogram)    \
  X(kServeBatchSize,          "serve.batch_size",            Histogram)    \
  X(kServeBatchSpeedup,       "serve.batch_speedup",         Counter)      \
  X(kServeBreakerOpen,        "serve.breaker_open",          Counter)      \
  X(kServeCacheBytes,         "serve.cache_bytes",           Gauge)        \
  X(kServeCacheEvict,         "serve.cache_evict",           Counter)      \
  X(kServeCacheHit,           "serve.cache_hit",             Counter)      \
  X(kServeCacheMiss,          "serve.cache_miss",            Counter)      \
  X(kServeDegraded,           "serve.degraded",              Counter)      \
  X(kServeExpired,            "serve.expired",               Counter)      \
  X(kServeFailed,             "serve.failed",                Counter)      \
  X(kServePoison,             "serve.poison",                Counter)      \
  X(kServeRequests,           "serve.requests",              Counter)      \
  X(kServeRequestSeconds,     "serve.request_seconds",       Histogram)    \
  X(kServeShed,               "serve.shed",                  Counter)      \
  X(kServeSloBreach,          "serve.slo_breach",            Counter)      \
  X(kServeSloBudget,          "serve.slo_budget",            Gauge)        \
  X(kServeSloP99Seconds,      "serve.slo_p99_seconds",       Gauge)        \
  X(kServeTelemetryOverheadPct, "serve.telemetry_overhead_pct", Counter)   \
  X(kServeTraceKept,          "serve.trace_kept",            Counter)      \
  X(kScopeServeBatch,         "serve.batch",                 Timer)        \
  /* answer certification & escalation (src/core/verify, PR 8) */         \
  X(kRefineEscalations,       "refine.escalations",          Counter)      \
  X(kRefineSteps,             "refine.steps",                Counter)      \
  X(kVerifyChecks,            "verify.checks",               Counter)      \
  X(kVerifyFail,              "verify.fail",                 Counter)      \
  X(kVerifyIntegrityCheck,    "verify.integrity_check",      Counter)      \
  X(kVerifyIntegrityFail,     "verify.integrity_fail",       Counter)      \
  X(kVerifyResidual,          "verify.residual",             Histogram)    \
  X(kVerifySeconds,           "verify.seconds",              Histogram)    \
  /* bench / tool top-level scopes (bench/, examples/) */                  \
  X(kGflopsRate,              "GFLOPS",                      Counter)      \
  X(kScopeReference,          "reference",                   Timer)        \
  X(kScopeSetup,              "setup",                       Timer)        \
  X(kScopeTrain,              "train",                       Timer)
// clang-format on

namespace fdks::obs::keys {

enum class Kind { Counter, Gauge, Histogram, Timer, Instant, Prefix, Reserved };

/// Named constants: obs::keys::kGmresSolves == "gmres.solves".
#define FDKS_OBS_KEY_CONSTANT(name, literal, kind) \
  inline constexpr std::string_view name{literal};
FDKS_OBS_KEYS(FDKS_OBS_KEY_CONSTANT)
#undef FDKS_OBS_KEY_CONSTANT

struct KeyInfo {
  std::string_view key;
  Kind kind;
};

/// The whole registry, in table order.
inline constexpr KeyInfo kAll[] = {
#define FDKS_OBS_KEY_INFO(name, literal, kind) \
  KeyInfo{literal, Kind::kind},
    FDKS_OBS_KEYS(FDKS_OBS_KEY_INFO)
#undef FDKS_OBS_KEY_INFO
};

/// True iff `key` is a registered literal or extends a registered
/// dynamic Prefix family (e.g. "mpisim.bytes.sent.r3.t11").
constexpr bool is_registered(std::string_view key) {
  for (const KeyInfo& k : kAll) {
    if (k.kind == Kind::Prefix) {
      if (key.size() > k.key.size() &&
          key.substr(0, k.key.size()) == k.key) {
        return true;
      }
    } else if (key == k.key) {
      return true;
    }
  }
  return false;
}

static_assert(is_registered("gmres.solves"));
static_assert(is_registered("mpisim.bytes.sent.r0.t11"));
static_assert(!is_registered("no.such.key"));

}  // namespace fdks::obs::keys
