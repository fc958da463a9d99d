// crp::exec — deterministic work scheduling for the analysis funnels.
//
// The paper's two big costs are embarrassingly parallel over independent
// inputs: the per-filter symbolic-execution + SAT funnel (6,745 handlers →
// 808 AV-capable filters, Tables II/III) and the per-API fuzzing funnel
// (20,672 → 400, §V-B). This module shards such sweeps across a fixed-size
// worker pool while keeping every funnel number bit-identical to the serial
// run.
//
// Determinism contract (see DESIGN.md §"Parallel execution"):
//   * results are merged in *input order* — parallel_map(items, fn) returns
//     exactly what the serial loop would have produced;
//   * anything random inside a task derives its seed from the task *index*
//     (task_seed), never from thread identity or scheduling order;
//   * tasks share nothing mutable: per-task state (symex::Ctx, scratch
//     os::Kernel, ...) is created inside the task. Shared observability
//     sinks (obs::Registry counters, obs::Journal) are thread-safe.
//
// Worker-count resolution: an explicit `jobs` argument wins, then the
// CRP_JOBS environment variable, then std::thread::hardware_concurrency().
// The issuing thread participates in every batch, so a pool (or a batch
// width) of 1 runs no task off the caller's thread: the plain serial loop.
#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "util/common.h"

namespace crp::obs {
class Counter;
class Histogram;
}  // namespace crp::obs

namespace crp::exec {

/// Resolve a worker count: `jobs` > 0 wins; else a positive integer in
/// $CRP_JOBS; else std::thread::hardware_concurrency() (min 1).
int resolve_jobs(int jobs = 0);

/// Deterministic per-task seed: a splitmix64 mix of `base_seed` and the task
/// index. Never derive task randomness from thread identity — two runs with
/// different job counts must draw identical streams for task `index`.
u64 task_seed(u64 base_seed, u64 index);

/// The width a tool's explicit `--jobs` gets on ThreadPool::shared(): the
/// pool's size for jobs <= 0, else jobs capped at that size. The pool is
/// sized once, at first use, by resolve_jobs(0); a request above it is
/// reported on stderr, prefixed with `tool`.
int shared_width(int jobs, const char* tool);

/// Fixed-size worker pool running index-sharded batches, nestable.
///
/// A task may issue a batch of its own on the same pool (VerifyStage's
/// per-candidate batch inside a Campaign::run_all target task); any number
/// of non-pool threads (crpd workers, chaosrun cells) may issue batches at
/// the same time. Scheduling rules (DESIGN.md §8):
///   * the issuer drains its own batch; while it waits for stragglers it
///     helps only that batch's subtree (batches issued, transitively, from
///     its tasks) — never an outer or unrelated batch, whose task could
///     block on a resource (an ArtifactStore lease) held lower on the
///     issuer's own stack;
///   * idle workers take the most deeply nested open batch first (earliest
///     published among equals), so nested fan-outs — the critical path —
///     run before new outer work starts;
///   * at most `width` threads work on one batch at once; width 1 is the
///     plain serial loop on the issuer's thread.
///
/// Publishes `analysis.pool.tasks` (tasks executed) and
/// `analysis.pool.steal_ns` (per claim by an idle worker: the latency from
/// the batch's publication, or from the worker coming free if later, to
/// the claim; never idle time between batches) to the global registry,
/// plus one journal span per task whose `subject` is the issuer's journal
/// subject (a task may refine it with obs::set_journal_subject).
class ThreadPool {
 public:
  /// `jobs` as for resolve_jobs(). The pool spawns jobs-1 worker threads;
  /// the issuer of each batch is the remaining worker.
  explicit ThreadPool(int jobs = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool (resolve_jobs(0) workers at first use, alive
  /// until exit). Every stage, campaign and daemon job fans out on it;
  /// their `jobs` options become batch widths.
  static ThreadPool& shared();

  /// Total workers, issuer included (>= 1).
  int jobs() const { return jobs_; }

  /// Run fn(i) for every i in [0, n); returns when all n tasks completed.
  /// `label` names the per-task journal spans. `width` caps the threads
  /// working on this batch: <= 0 means all of the pool's workers, and a
  /// width above jobs() is capped at jobs(). A stage's `jobs` option is
  /// passed straight through as its width.
  void for_each_index(u64 n, const std::function<void(u64)>& fn,
                      const char* label = "task", int width = 0);

 private:
  struct Batch;
  void worker_loop();
  /// Highest-priority open batch with unclaimed tasks and spare width:
  /// `root`'s subtree only, or any batch when root == nullptr.
  Batch* pick_locked(const Batch* root) const;
  /// Claim and run tasks of `b` until it is exhausted or (`yield`) a new
  /// batch was published (which may be deeper: re-pick).
  void work(Batch& b, bool yield);
  void run_task(Batch& b, u64 claim);

  int jobs_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_;  // batch published / helper detached / stop
  std::vector<Batch*> open_;    // published, not yet retired (guarded by mu_)
  std::atomic<u64> publish_gen_{0};
  bool stop_ = false;

  obs::Counter* c_tasks_;
  obs::Histogram* h_steal_ns_;
};

/// Apply `fn(index, item)` to every item, sharded across the pool (at most
/// `width` threads, 0 = all), and return the results in input order. The
/// output is identical for any job count and width (the determinism
/// contract above).
template <typename T, typename Fn>
auto parallel_map(ThreadPool& pool, const std::vector<T>& items, Fn&& fn,
                  const char* label = "task", int width = 0) {
  using R = std::invoke_result_t<Fn&, size_t, const T&>;
  static_assert(std::is_default_constructible_v<R>,
                "parallel_map results are materialized into a pre-sized vector");
  std::vector<R> out(items.size());
  pool.for_each_index(
      items.size(),
      [&](u64 i) { out[static_cast<size_t>(i)] = fn(static_cast<size_t>(i), items[static_cast<size_t>(i)]); },
      label, width);
  return out;
}

}  // namespace crp::exec
