// Batched multi-chain solver: the server-shaped front end of the library.
//
// A production embedding does not optimize one chain at a time -- a request
// carries many independent chains (different lengths, platforms, and
// algorithms), and a long-lived process serves many requests.  BatchSolver
// drives such a workload through one engine:
//
//   * a shared work-queue: jobs are solved through util::parallel_for with
//     dynamic scheduling, so heterogeneous chains load-balance across
//     workers (an n = 400 ADMV* job does not serialize behind twenty
//     n = 50 ones);
//   * a coefficient-table cache: the O(n^2) analysis::SegmentTables --
//     the dominant per-solve setup cost -- are built once per distinct
//     (chain weights, cost model) key and shared by every job that
//     matches, within a batch and across batches;
//   * LRU eviction: a byte budget on that cache
//     (BatchOptions::cache_budget_bytes, by default one max_n entry)
//     evicts least-recently-used entries after each solve instead of the
//     all-or-nothing release_scratch(), so a long-lived service bounds
//     table residency while hot keys stay cached;
//   * one thread-local arena pool: the solvers' grow-only scratch
//     (util::ArenaBlock) is reused across the whole batch, so steady-state
//     solving performs no per-job scratch allocation;
//   * an explicit lifecycle: release_scratch() drops the cache and every
//     arena, returning the memory between traffic bursts; the next solve
//     simply rebuilds what it needs.
//
// Determinism: every job's result (plan and objective) is bit-identical to
// a standalone core::optimize() call with the same inputs, at any thread
// count, cached or cold, and whether the entry survived eviction or was
// rebuilt.
//
// Thread-safety: solve() is a util::parallel_for over solve_job(), the
// one solve path, which is thread-safe against other solve()/solve_job()
// calls on the same instance (the caches, LRU state, and stats sit behind
// internal mutexes; the DP itself runs outside them) -- it is the entry
// the async service::SolverService workers use.  The arena pool
// behind release_scratch() / resident_bytes() is PROCESS-WIDE (every
// solver's thread-local scratch registers with it), so release_scratch()
// must not overlap a running solve on ANY instance in the process, and
// the arena byte counts cover all instances, not just this one.  A
// multi-solver embedding should treat scratch release as a global
// quiescent-point operation.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "analysis/segment_tables.hpp"
#include "core/cancellation.hpp"
#include "core/optimizer.hpp"
#include "core/plan_cache.hpp"
#include "core/solve_checkpoint.hpp"
#include "core/solve_key.hpp"

namespace chainckpt::core {

/// One chain to solve: which algorithm, over which chain, under which cost
/// model.  Jobs are self-contained so a batch can mix platforms and
/// per-position cost models freely.
struct BatchJob {
  Algorithm algorithm = Algorithm::kADMVstar;
  chain::TaskChain chain;
  platform::CostModel costs;
  /// Per-job relative-error tolerance for plan-cache epsilon-hits (see
  /// core/plan_cache.hpp): the job accepts a cached plan certified within
  /// (1 + cache_epsilon) of the drifted optimum.  Negative (the default)
  /// defers to BatchOptions::plan_cache_epsilon; 0 restricts this job to
  /// exact hits.
  double cache_epsilon = -1.0;
};

/// The default byte budget of both BatchSolver caches: the resident bytes
/// of one rowful SegmentTables at DpContext::kDefaultMaxN, ~40.3 MiB.
/// One max_n entry always fits, so a checkpoint-price sweep at max_n
/// still shares its tables and an ADMV row upgrade still finds the entry
/// an ADV* job left; at typical service sizes (n ~ 300) dozens of recent
/// entries stay hot.
inline constexpr std::size_t kDefaultCacheBudgetBytes =
    analysis::SegmentTables::resident_bytes_for(DpContext::kDefaultMaxN,
                                                /*rows=*/true);

struct BatchOptions {
  /// Upper bound on chain length, guarding the dense O(n^3) DP tables
  /// (see DpContext::kDefaultMaxN).
  std::size_t max_n = DpContext::kDefaultMaxN;
  /// Byte budget for the coefficient-table cache (default
  /// kDefaultCacheBudgetBytes; 0 removes the bound).  After every
  /// solve_job(), least-recently-used entries are evicted until the
  /// cache fits (an entry larger than the whole budget is evicted right
  /// after its solve).  Evicted keys simply rebuild on their next use --
  /// results are unaffected.  Runtime-adjustable via set_cache_budget().
  std::size_t cache_budget_bytes = kDefaultCacheBudgetBytes;
  /// An interrupted solve_job() for a multi-level DP (kADMVstar/kADMV)
  /// always retains a resumable core::SolveCheckpoint: a later solve_job()
  /// of the same workload (equal core::solve_key) resumes it, re-executing
  /// only the slabs the interrupted run did not finish, with bit-identical
  /// results.  The retained state is the job's level tables (see
  /// detail::LevelTables), so a service that interrupts large solves
  /// should bound it with this LRU byte budget (0 keeps them unbounded;
  /// oldest-interrupted first); release_scratch() always drops them.  A
  /// dropped checkpoint just means the job starts from scratch on its
  /// next submission.
  std::size_t checkpoint_budget_bytes = 0;
  /// Memoize final plans in a core::PlanCache and serve repeat
  /// submissions from it: exact key matches return the stored result
  /// bitwise; near-misses may be served under an epsilon tolerance (see
  /// plan_cache_epsilon).
  bool enable_plan_cache = true;
  /// LRU byte budget for the plan cache (default
  /// kDefaultCacheBudgetBytes, thousands of plans; 0 removes the bound).
  /// Runtime-adjustable via set_plan_cache_budget().
  std::size_t plan_cache_budget_bytes = kDefaultCacheBudgetBytes;
  /// Default epsilon for jobs that leave BatchJob::cache_epsilon
  /// negative.  0 (the default) serves exact hits only.
  double plan_cache_epsilon = 0.0;
};

/// Counters accumulated over the solver's lifetime.
struct BatchStats {
  std::size_t jobs_solved = 0;
  /// Distinct SegmentTables constructed.
  std::size_t tables_built = 0;
  /// DP jobs served by previously built tables (same batch or earlier).
  std::size_t tables_reused = 0;
  /// Cache entries dropped by the LRU budget, and their bytes.
  std::size_t tables_evicted = 0;
  std::size_t evicted_bytes = 0;
  /// Total bytes given back so far: release_scratch() calls plus the
  /// eager per-thread releases of interrupted solves (the latter are
  /// also broken out in interrupted_released_bytes).
  std::size_t released_bytes = 0;
  /// solve_job() calls that ended in SolveInterrupted (cancellation,
  /// deadline, or preemption) instead of a result.
  std::size_t jobs_interrupted = 0;
  /// Scratch bytes released eagerly on the interrupting thread the moment
  /// those solves unwound (also folded into released_bytes).
  std::size_t interrupted_released_bytes = 0;
  /// Interrupted solves whose partial progress was retained for resume,
  /// and retained checkpoints dropped by the checkpoint budget (or
  /// superseded by a concurrent solve of the same workload).
  std::size_t checkpoints_saved = 0;
  std::size_t checkpoints_dropped = 0;
  /// Solves that started from a retained checkpoint, and the slabs those
  /// resumes skipped instead of re-executing.
  std::size_t checkpoints_resumed = 0;
  std::size_t checkpoint_slabs_skipped = 0;
  /// Row upgrades: an ADMV job hit a rowless entry and rebuilt its
  /// SegmentTables with rows.  Counted inside tables_built.
  std::size_t tables_patched = 0;
  /// Fresh solves whose objective exceeded the plan cache's warm upper
  /// bound (the evaluator re-score of a stale plan) beyond rounding: a
  /// certificate or solver bug.  Must stay 0.
  std::size_t warm_bound_violations = 0;
  /// Aggregated scan counters of every DP job the solver ran (the
  /// pruned scan, DpContext's default: ADV*/ADMV* jobs add prune and
  /// fallback counts, AD/ADMV jobs add zeros).
  ScanStats scan;
};

class BatchSolver {
 public:
  explicit BatchSolver(BatchOptions options = {});

  /// Checks every job (non-empty chain; max_n for the DPs), then solves
  /// them through solve_job() on the shared work-queue; results[i]
  /// corresponds to jobs[i].  Safe to call repeatedly -- the caches
  /// persist and warm across calls.
  std::vector<OptimizationResult> solve(const std::vector<BatchJob>& jobs);

  /// Solves one job through the shared caches; workers serving an async
  /// queue call it directly (see service::SolverService).  Concurrent
  /// callers missing the same table key build its tables once (the first
  /// claims the build, the rest wait).  `cancel`, when non-null, is
  /// threaded to the DP's cooperative checkpoints; a fired token makes
  /// this call throw SolveInterrupted (counted in stats().jobs_interrupted)
  /// with the caches intact.  Results are bit-identical to standalone
  /// optimize().
  OptimizationResult solve_job(const BatchJob& job,
                               const CancelToken* cancel = nullptr);

  /// Drops this solver's coefficient-table cache, its retained solve
  /// checkpoints, and the backing memory of every thread-local solver
  /// arena IN THE PROCESS (the arena pool is global -- see the header
  /// comment); returns the number of bytes freed.  The solver stays
  /// fully usable -- the next solve() rebuilds on demand and reproduces
  /// identical results.  Must not overlap a running solve on any
  /// BatchSolver or standalone optimizer call.
  std::size_t release_scratch();

  /// Bytes held by the retained interruption checkpoints.
  std::size_t checkpoint_resident_bytes() const;

  /// Evicts least-recently-used cache entries until the table cache holds
  /// at most `budget_bytes`; returns the bytes freed.  Entries mid-build
  /// by a concurrent solve_job() are skipped.  The LRU counterpart of
  /// release_scratch() (which also drops the arenas).
  std::size_t evict_to(std::size_t budget_bytes);

  /// Replaces BatchOptions::cache_budget_bytes at runtime and applies it
  /// immediately; 0 removes the bound.
  void set_cache_budget(std::size_t budget_bytes);

  /// Replaces BatchOptions::plan_cache_budget_bytes at runtime and
  /// applies it immediately; 0 removes the bound.
  void set_plan_cache_budget(std::size_t budget_bytes);

  /// Cheap probe for admission pricing: would solve_job(job) probably be
  /// served from the plan cache without running the DP?  (See
  /// PlanCache::probable_hit -- a probed epsilon-hit can still re-solve
  /// if its re-score fails the epsilon test.)  Always false while
  /// enable_plan_cache is off or for non-DP algorithms.
  bool probable_plan_cache_hit(const BatchJob& job) const;

  /// Plan-cache counters (hits/misses/evictions reconcile with
  /// stats().jobs_solved; see PlanCacheStats).
  PlanCacheStats plan_cache_stats() const;
  /// Bytes held by the memoized plans.
  std::size_t plan_cache_resident_bytes() const;
  /// Memoized plans currently resident.
  std::size_t plan_cache_size() const;

  /// Bytes currently held by this solver's table cache, its retained
  /// checkpoints, and all solver arenas in the process.
  std::size_t resident_bytes() const;

  /// Bytes held by the table cache alone (the pool the LRU budget
  /// governs), excluding the process-wide arenas.
  std::size_t cache_resident_bytes() const;

  const BatchOptions& options() const noexcept { return options_; }
  /// Consistent copy of the counters, taken under the cache lock.
  BatchStats stats() const;

 private:
  struct TableEntry {
    std::shared_ptr<const analysis::SegmentTables> seg;
    /// LRU stamp: value of use_tick_ at the entry's last touch.  The
    /// cache is small (one entry per distinct workload shape), so
    /// eviction scans for the minimum stamp instead of maintaining an
    /// intrusive list.
    std::uint64_t last_used = 0;
    /// A solve_job() worker is building (or row-upgrading) this entry;
    /// other workers wait on build_done_ and eviction skips it.
    bool building = false;
  };

  /// A retained interruption checkpoint: the partial progress of one
  /// solve, checked OUT of the store for the duration of a solve
  /// (exclusive ownership) and checked back in only if the solve is
  /// interrupted again.  Keyed by core::solve_key -- every input the
  /// committed slabs depend on -- so a checkpoint is only ever resumed by
  /// the computation that wrote it.
  struct CheckpointEntry {
    std::shared_ptr<SolveCheckpoint> checkpoint;
    std::uint64_t last_used = 0;
  };

  static std::size_t entry_bytes(const TableEntry& entry) noexcept;

  /// The following helpers require mutex_ to be held.
  std::size_t evict_locked(std::size_t budget_bytes);
  std::size_t checkpoint_bytes_locked() const noexcept;
  std::size_t evict_checkpoints_locked(std::size_t budget_bytes);

  BatchOptions options_;
  BatchStats stats_;
  /// Memoized final plans (own internal lock; never held together with
  /// mutex_).
  PlanCache plan_cache_;
  /// Keyed by core::table_key.
  std::unordered_map<SolveKey, TableEntry, SolveKeyHash> cache_;
  std::unordered_map<SolveKey, CheckpointEntry, SolveKeyHash> checkpoints_;
  /// Running sum of entry_bytes() over cache_, kept wherever an entry's
  /// tables are set or erased, so the per-solve budget check is O(1).
  std::size_t cache_bytes_ = 0;
  std::uint64_t use_tick_ = 0;
  /// Guards cache_, cache_bytes_, checkpoints_, stats_, use_tick_, and
  /// the budget options.
  mutable std::mutex mutex_;
  std::condition_variable build_done_;
};

}  // namespace chainckpt::core
