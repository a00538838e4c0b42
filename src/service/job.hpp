// Job-side types of the async service: what a client submits, the handle
// it gets back, and the status snapshots it polls.  The service itself
// lives in service/solver_service.hpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/batch_solver.hpp"
#include "service/admission.hpp"

namespace chainckpt::service {

class SolverService;

using JobId = std::uint64_t;

/// Lifecycle of a submitted job.  kQueued/kRunning are transient; the
/// rest are terminal.  A job reaches exactly one terminal state, and the
/// completion callback fires exactly once when it does.  A preempted job
/// transitions kRunning -> kQueued (not terminal, no callback) and runs
/// again later, resuming any solve checkpoint it committed.
enum class JobState {
  kQueued,     ///< admitted, waiting for budget + a worker
  kRunning,    ///< a worker is solving it
  kSucceeded,  ///< result available
  kFailed,     ///< the solve threw (JobStatus::error has the message)
  kCancelled,  ///< cancel() reached it (queued or mid-solve)
  kExpired,    ///< its deadline passed (queued or mid-solve)
  kRejected,   ///< refused at submit (JobStatus::reject_reason says why)
};

const char* to_string(JobState state) noexcept;
bool is_terminal(JobState state) noexcept;

/// Scheduling class of a submission.  The dispatcher always starts the
/// highest class that fits the admission budget (FIFO within a class),
/// and -- when preemption is enabled -- may cooperatively displace a
/// strictly lower-class running job to keep a deadline-carrying higher
/// class job from missing its deadline (see docs/SERVER.md).
enum class Priority : std::uint8_t {
  kBatch = 0,        ///< throughput work; first to be preempted
  kNormal = 1,       ///< the default
  kInteractive = 2,  ///< latency-sensitive
  kUrgent = 3,       ///< jumps everything; never preempted
};

const char* to_string(Priority priority) noexcept;

/// Scheduling options of one submission: its priority class and an
/// optional wall-clock deadline measured from submit time.  A job whose
/// deadline passes while queued never starts; one that expires mid-solve
/// is interrupted at the DP's next cancellation checkpoint.  Zero means
/// no deadline.  The converting constructor keeps the pre-priority
/// submission shape `{work, deadline}` valid.
struct SubmitOptions {
  SubmitOptions() = default;
  SubmitOptions(std::chrono::milliseconds deadline_in)  // NOLINT(runtime/explicit)
      : deadline(deadline_in) {}
  SubmitOptions(Priority priority_in, std::chrono::milliseconds deadline_in =
                                          std::chrono::milliseconds{0})
      : priority(priority_in), deadline(deadline_in) {}

  Priority priority = Priority::kNormal;
  std::chrono::milliseconds deadline{0};

  /// Multi-tenant accounting id.  Purely an accounting label inside the
  /// service -- scheduling stays (priority, FIFO) regardless of tenant --
  /// but every terminal counter is additionally attributed to this id in
  /// ServiceStats::tenants, which is what the network edge's per-tenant
  /// quotas and the reconciliation battery read.  0 is the anonymous
  /// default tenant.  The wire server overwrites it with the
  /// authenticated frame-header tenant (net/wire_server.hpp): the edge,
  /// not the payload, owns identity.
  std::uint64_t tenant = 0;

  /// Per-submission plan-cache tolerance, copied onto the underlying
  /// core::BatchJob at submit.  Negative (the default) defers to the
  /// service solver's BatchOptions::plan_cache_epsilon; 0 accepts exact
  /// hits only; > 0 also accepts certified epsilon-hits whose re-scored
  /// objective is within (1 + epsilon) of the sound lower bound (see
  /// docs/CACHING.md).
  double cache_epsilon = -1.0;

  /// Test hook: when >= 0, arms the job's cancel token with
  /// core::CancelToken::trip_after_polls(trip_polls, on_trip) at submit,
  /// so a test can act at an exact checkpoint poll of the job's first
  /// run -- e.g. submit a displacing job from on_trip, which preempts
  /// this one at that very poll, with no timing involved.  An empty
  /// on_trip cancels the job there.  -1 (the default) disables.
  std::int64_t trip_polls = -1;
  std::function<void()> on_trip;
};

/// One submission: the work itself (algorithm + chain + cost model, the
/// same triple core::BatchSolver takes) plus its scheduling options.
struct JobRequest {
  core::BatchJob work;
  SubmitOptions options;
};

/// Point-in-time snapshot of one job, returned by poll()/wait() and
/// passed to the completion callback.  `result` is meaningful only in
/// kSucceeded; `error` carries the rejection or failure reason.
struct JobStatus {
  JobId id = 0;
  JobState state = JobState::kQueued;
  Priority priority = Priority::kNormal;
  /// Accounting id the job was submitted under (SubmitOptions::tenant).
  std::uint64_t tenant = 0;
  /// Admission price of the job (see service/admission.hpp).
  double cost_units = 0.0;
  /// Machine-readable cause when state == kRejected; kNone otherwise.
  RejectReason reject_reason = RejectReason::kNone;
  /// Scheduling trace, in one service-wide event order: submit_seq stamps
  /// queue entry, start_seq the most recent dispatch (0 = never started).
  /// The stress battery asserts priority-inversion bounds from these.
  std::uint64_t submit_seq = 0;
  std::uint64_t start_seq = 0;
  /// Times a worker picked the job up, and how many of those ended in a
  /// preemption (starts > 1 implies the job was preempted and resumed).
  std::uint32_t starts = 0;
  std::uint32_t preemptions = 0;
  core::OptimizationResult result;
  std::string error;
};

namespace detail {
struct JobRecord;
}

/// Client-side reference to a submitted job.  Cheap to copy; valid for
/// the life of the process (the record it shares outlives the service).
/// All interrogation goes through the service: poll(), wait(), cancel().
/// A default-constructed (empty) handle polls as terminal kRejected --
/// never as a live job -- so poll-until-terminal loops cannot hang on it.
class JobHandle {
 public:
  JobHandle() = default;

  JobId id() const noexcept;
  bool valid() const noexcept { return record_ != nullptr; }

 private:
  friend class SolverService;
  explicit JobHandle(std::shared_ptr<detail::JobRecord> record)
      : record_(std::move(record)) {}

  std::shared_ptr<detail::JobRecord> record_;
};

}  // namespace chainckpt::service
