#include "core/batch_solver.hpp"

#include <utility>

#include "chain/weight_table.hpp"
#include "util/arena.hpp"
#include "util/assert.hpp"
#include "util/parallel.hpp"

namespace chainckpt::core {

namespace {

/// The four dynamic programs read the shared coefficient tables; the
/// heuristic baselines score candidate plans through the analytic
/// evaluator and gain nothing from a prebuilt context.
bool is_dp_algorithm(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kAD:
    case Algorithm::kADVstar:
    case Algorithm::kADMVstar:
    case Algorithm::kADMV:
      return true;
    case Algorithm::kPeriodic:
    case Algorithm::kDaly:
      return false;
  }
  return false;
}

/// Only the ADMV inner DP reads the row-oriented coefficient arrays.
bool needs_row_tables(Algorithm algorithm) {
  return algorithm == Algorithm::kADMV;
}

/// The multi-level engines commit per-d1 slab progress into a
/// core::SolveCheckpoint; the streamed single-level DPs and the
/// heuristics are cheap enough to just restart.
bool is_checkpointable(Algorithm algorithm) {
  return algorithm == Algorithm::kADMVstar || algorithm == Algorithm::kADMV;
}

}  // namespace

BatchSolver::BatchSolver(BatchOptions options)
    : options_(options),
      plan_cache_(PlanCacheConfig{options.plan_cache_budget_bytes}) {}

std::vector<OptimizationResult> BatchSolver::solve(
    const std::vector<BatchJob>& jobs) {
  // Reject a malformed batch before any of it runs.
  for (const BatchJob& job : jobs) {
    CHAINCKPT_REQUIRE(!job.chain.empty(),
                      "batch job needs a non-empty chain");
    CHAINCKPT_REQUIRE(
        !is_dp_algorithm(job.algorithm) || job.chain.size() <= options_.max_n,
        "batch job chain longer than BatchOptions::max_n");
  }
  // The work-queue.  Dynamic scheduling load-balances the heterogeneous
  // jobs; each solver's own slab parallelism degrades to serial inside the
  // region, so workers stay busy on whole chains.
  std::vector<OptimizationResult> results(jobs.size());
  util::parallel_for(0, jobs.size(),
                     [&](std::size_t i) { results[i] = solve_job(jobs[i]); });
  return results;
}

OptimizationResult BatchSolver::solve_job(const BatchJob& job,
                                          const CancelToken* cancel) {
  CHAINCKPT_REQUIRE(!job.chain.empty(), "batch job needs a non-empty chain");

  // The heuristic baselines read no shared tables; poll once and run.
  if (!is_dp_algorithm(job.algorithm)) {
    poll_cancellation(cancel);
    OptimizationResult result = optimize(job.algorithm, job.chain, job.costs);
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.jobs_solved;
    return result;
  }

  CHAINCKPT_REQUIRE(job.chain.size() <= options_.max_n,
                    "batch job chain longer than BatchOptions::max_n");

  // Plan-cache front door: an exact key match returns the memoized
  // result bitwise; a certified epsilon-hit returns the cached plan
  // re-scored under this job's model.  Either way the DP (and the table
  // cache) is never touched.  A near-miss that cannot be served leaves a
  // warm upper bound for the post-solve oracle check below.
  double warm_bound = 0.0;
  bool have_warm_bound = false;
  if (options_.enable_plan_cache) {
    const double epsilon = job.cache_epsilon >= 0.0
                               ? job.cache_epsilon
                               : options_.plan_cache_epsilon;
    CacheLookup cached =
        plan_cache_.lookup(job.algorithm, job.chain, job.costs, epsilon);
    if (cached.outcome == CacheOutcome::kExactHit ||
        cached.outcome == CacheOutcome::kEpsilonHit) {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.jobs_solved;
      return cached.result;
    }
    if (cached.has_warm_bound) {
      warm_bound = cached.warm_upper_bound;
      have_warm_bound = true;
    }
  }

  const bool rows = needs_row_tables(job.algorithm);
  const SolveKey key = table_key(job.chain, job.costs);

  // Acquire (building if necessary) the shared tables.  References into
  // the map survive rehashes; the loop re-looks the key up after every
  // wait, so a concurrent eviction of the entry just causes a rebuild
  // instead of a dangling pointer.
  std::shared_ptr<const analysis::SegmentTables> seg;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      TableEntry& entry = cache_.try_emplace(key).first->second;
      if (entry.seg != nullptr && (!rows || entry.seg->has_rows())) {
        entry.last_used = ++use_tick_;
        ++stats_.tables_reused;
        seg = entry.seg;
        break;
      }
      if (entry.building) {
        build_done_.wait(lock);
        continue;  // re-resolve: built, row-upgraded, or even evicted
      }
      entry.building = true;
      // A rowless entry being row-upgraded rebuilds from scratch with
      // rows: rows are a construction-time property of SegmentTables.
      const bool upgrade = entry.seg != nullptr;
      lock.unlock();
      std::shared_ptr<const analysis::SegmentTables> built_seg;
      try {
        built_seg = std::make_shared<const analysis::SegmentTables>(
            chain::WeightTable(job.chain, job.costs.lambda_f(),
                               job.costs.lambda_s()),
            job.costs, rows);
      } catch (...) {
        lock.lock();
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
          it->second.building = false;
          // A fresh entry that never got tables would otherwise linger
          // as an unevictable zero-byte zombie; a row-upgrade failure
          // keeps the still-valid rowless tables.
          if (it->second.seg == nullptr) cache_.erase(it);
        }
        build_done_.notify_all();
        throw;
      }
      lock.lock();
      // Re-resolve after re-locking: the unlocked build may have raced a
      // rehash (pointer-stable, but re-looking up is simpler to reason
      // about than held references across the gap).
      TableEntry& built = cache_.try_emplace(key).first->second;
      // An upgrade replaces the rowless SegmentTables it counted before.
      cache_bytes_ -= entry_bytes(built);
      built.seg = std::move(built_seg);
      cache_bytes_ += entry_bytes(built);
      built.building = false;
      built.last_used = ++use_tick_;
      ++stats_.tables_built;
      if (upgrade) ++stats_.tables_patched;
      build_done_.notify_all();
      seg = built.seg;
      break;
    }
  }

  // Check out any retained checkpoint for this exact workload: an earlier
  // interrupted solve_job() left its completed slabs here, and this run
  // resumes them.  Checkout is exclusive -- a concurrent solve of the
  // same workload simply starts fresh (last interrupt wins the store).
  SolveKey ckpt_key;
  std::shared_ptr<SolveCheckpoint> ckpt;
  bool resumed = false;
  if (is_checkpointable(job.algorithm)) {
    ckpt_key = solve_key(job.algorithm, job.chain, job.costs);
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = checkpoints_.find(ckpt_key);
      if (it != checkpoints_.end()) {
        ckpt = std::move(it->second.checkpoint);
        checkpoints_.erase(it);
        resumed = ckpt->has_progress();
      }
    }
    if (ckpt == nullptr) ckpt = std::make_shared<SolveCheckpoint>();
  }

  // The solve itself runs outside the lock -- the shared_ptrs keep the
  // tables alive even if the entry is evicted mid-solve.
  DpContext ctx(job.chain, job.costs, std::move(seg), options_.max_n);
  ctx.set_cancel_token(cancel);
  ctx.set_checkpoint(ckpt.get());
  OptimizationResult result;
  try {
    result = optimize(job.algorithm, ctx);
  } catch (const SolveInterrupted&) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.jobs_interrupted;
      if (ckpt != nullptr && ckpt->has_progress()) {
        // Retain the partial progress for the job's next submission; a
        // checkpoint another interrupt stored for the same key while we
        // ran is superseded (ours is at least as fresh).
        CheckpointEntry& entry = checkpoints_[ckpt_key];
        if (entry.checkpoint != nullptr) ++stats_.checkpoints_dropped;
        entry.checkpoint = std::move(ckpt);
        entry.last_used = ++use_tick_;
        ++stats_.checkpoints_saved;
        if (options_.checkpoint_budget_bytes != 0) {
          evict_checkpoints_locked(options_.checkpoint_budget_bytes);
        }
      }
    }
    // The dead job's thread-local scratch on THIS thread is reusable but
    // idle from here on; give it back now instead of parking it until
    // the next global release_scratch() (ISSUE: eager release).  Inside
    // a service worker the inner solve ran serially, so this frees the
    // whole job's scratch.
    const std::size_t freed = util::release_current_thread_arenas();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stats_.released_bytes += freed;
      stats_.interrupted_released_bytes += freed;
    }
    throw;
  }

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.jobs_solved;
    stats_.scan += result.scan;
    if (resumed) {
      ++stats_.checkpoints_resumed;
      stats_.checkpoint_slabs_skipped += ckpt->last_run_slabs_skipped();
    }
    // Oracle guard: the rejected candidate's re-score upper-bounds the
    // optimum, so a fresh solve above it (beyond rounding) means the
    // solver or the certificate lied.
    if (have_warm_bound &&
        result.expected_makespan > warm_bound * (1.0 + 1e-9)) {
      ++stats_.warm_bound_violations;
    }
    if (options_.cache_budget_bytes != 0) {
      evict_locked(options_.cache_budget_bytes);
    }
  }
  if (options_.enable_plan_cache) {
    plan_cache_.insert(job.algorithm, job.chain, job.costs, result);
  }
  return result;
}

std::size_t BatchSolver::release_scratch() {
  std::size_t freed = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    freed = cache_bytes_ + checkpoint_bytes_locked();
    cache_.clear();
    cache_bytes_ = 0;
    checkpoints_.clear();
  }
  freed += plan_cache_.clear();
  freed += util::release_all_arenas();
  const std::lock_guard<std::mutex> lock(mutex_);
  stats_.released_bytes += freed;
  return freed;
}

std::size_t BatchSolver::checkpoint_resident_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return checkpoint_bytes_locked();
}

std::size_t BatchSolver::evict_to(std::size_t budget_bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evict_locked(budget_bytes);
}

void BatchSolver::set_cache_budget(std::size_t budget_bytes) {
  const std::lock_guard<std::mutex> lock(mutex_);
  options_.cache_budget_bytes = budget_bytes;
  if (budget_bytes != 0) evict_locked(budget_bytes);
}

void BatchSolver::set_plan_cache_budget(std::size_t budget_bytes) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    options_.plan_cache_budget_bytes = budget_bytes;
  }
  plan_cache_.set_budget(budget_bytes);
}

bool BatchSolver::probable_plan_cache_hit(const BatchJob& job) const {
  if (!options_.enable_plan_cache || !is_dp_algorithm(job.algorithm) ||
      job.chain.empty()) {
    return false;
  }
  const double epsilon = job.cache_epsilon >= 0.0
                             ? job.cache_epsilon
                             : options_.plan_cache_epsilon;
  return plan_cache_.probable_hit(job.algorithm, job.chain, job.costs,
                                  epsilon);
}

PlanCacheStats BatchSolver::plan_cache_stats() const {
  return plan_cache_.stats_snapshot();
}

std::size_t BatchSolver::plan_cache_resident_bytes() const {
  return plan_cache_.resident_bytes();
}

std::size_t BatchSolver::plan_cache_size() const {
  return plan_cache_.size();
}

std::size_t BatchSolver::resident_bytes() const {
  std::size_t total = util::arena_resident_bytes() +
                      plan_cache_.resident_bytes();
  const std::lock_guard<std::mutex> lock(mutex_);
  return total + cache_bytes_ + checkpoint_bytes_locked();
}

std::size_t BatchSolver::cache_resident_bytes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return cache_bytes_;
}

BatchStats BatchSolver::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t BatchSolver::entry_bytes(const TableEntry& entry) noexcept {
  return entry.seg != nullptr ? entry.seg->resident_bytes() : 0;
}

std::size_t BatchSolver::checkpoint_bytes_locked() const noexcept {
  std::size_t total = 0;
  for (const auto& [key, entry] : checkpoints_) {
    if (entry.checkpoint != nullptr) total += entry.checkpoint->resident_bytes();
  }
  return total;
}

std::size_t BatchSolver::evict_checkpoints_locked(std::size_t budget_bytes) {
  std::size_t freed = 0;
  std::size_t resident = checkpoint_bytes_locked();
  while (resident > budget_bytes && !checkpoints_.empty()) {
    auto victim = checkpoints_.begin();
    for (auto it = checkpoints_.begin(); it != checkpoints_.end(); ++it) {
      if (it->second.last_used < victim->second.last_used) victim = it;
    }
    const std::size_t bytes = victim->second.checkpoint->resident_bytes();
    checkpoints_.erase(victim);
    resident -= bytes;
    freed += bytes;
    ++stats_.checkpoints_dropped;
  }
  return freed;
}

std::size_t BatchSolver::evict_locked(std::size_t budget_bytes) {
  std::size_t freed = 0;
  while (cache_bytes_ > budget_bytes) {
    // Oldest stamp first.  Entries mid-build are skipped: their bytes are
    // claimed by the builder and will be accounted at its own evict pass.
    auto victim = cache_.end();
    for (auto it = cache_.begin(); it != cache_.end(); ++it) {
      if (it->second.building || it->second.seg == nullptr) continue;
      if (victim == cache_.end() ||
          it->second.last_used < victim->second.last_used) {
        victim = it;
      }
    }
    if (victim == cache_.end()) break;
    const std::size_t bytes = entry_bytes(victim->second);
    cache_.erase(victim);
    cache_bytes_ -= bytes;
    freed += bytes;
    ++stats_.tables_evicted;
    stats_.evicted_bytes += bytes;
  }
  return freed;
}

}  // namespace chainckpt::core
