#include "exec/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <numeric>
#include <string>
#include <utility>

#include "chaos/chaos.h"
#include "obs/journal.h"
#include "obs/ledger.h"
#include "obs/obs.h"
#include "obs/prof.h"
#include "util/rng.h"

namespace crp::exec {

namespace {

u64 wall_ns() {
  return static_cast<u64>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now().time_since_epoch())
                              .count());
}

u64 splitmix64(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

int resolve_jobs(int jobs) {
  if (jobs > 0) return jobs;
  if (const char* env = std::getenv("CRP_JOBS")) {
    int v = std::atoi(env);
    if (v > 0) return v;
  }
  unsigned hc = std::thread::hardware_concurrency();
  return hc > 0 ? static_cast<int>(hc) : 1;
}

u64 task_seed(u64 base_seed, u64 index) {
  return splitmix64(base_seed ^ splitmix64(index));
}

// One issued batch. Lives on the issuer's stack for the duration of
// for_each_index; the issuer retires it only after every claimed task
// completed and every helper detached (active == 0), so helpers never
// touch a dead batch.
struct ThreadPool::Batch {
  const std::function<void(u64)>* fn = nullptr;
  const char* label = "task";
  u64 n = 0;
  int width = 1;
  // Batch of the task that issued this one (any pool), nullptr for a
  // top-level batch. Ancestors outlive descendants: a task does not return
  // before the batches it issued complete.
  const Batch* parent = nullptr;
  u32 depth = 0;
  // Chaos state, computed on the issuer in program order. When fault
  // injection is off, chaos_on stays false and a task pays one branch.
  bool chaos_on = false;
  u64 chaos_salt = 0;
  // Non-empty: claim i executes task order[i] (a seeded permutation; merged
  // output must be unchanged — the kTaskOrder invariant).
  std::vector<u64> order;
  // Profiler context and journal subject of the issuer, re-entered around
  // every task so samples and spans taken on helper threads inherit the
  // issuing stage/target.
  obs::ProfContext prof{};
  std::string subject;
  u64 publish_ns = 0;
  std::exception_ptr error;  // first exception a task threw (guarded by mu_)
  std::atomic<u64> next{0};
  std::atomic<u64> done{0};
  int active = 0;  // threads attached, issuer included (guarded by mu_)
};

namespace {

// The batch whose task this thread is running (innermost), across pools.
thread_local const void* t_current_batch = nullptr;

}  // namespace

ThreadPool::ThreadPool(int jobs) : jobs_(resolve_jobs(jobs)) {
  obs::Registry& reg = obs::Registry::global();
  c_tasks_ = &reg.counter("analysis.pool.tasks");
  h_steal_ns_ = &reg.histogram("analysis.pool.steal_ns");
  workers_.reserve(static_cast<size_t>(jobs_ - 1));
  for (int i = 1; i < jobs_; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::shared() {
  // Never destroyed: idle workers stay parked on the condition variable
  // through static destruction instead of racing it.
  static ThreadPool* pool = new ThreadPool(0);
  return *pool;
}

int shared_width(int jobs, const char* tool) {
  const int pool = ThreadPool::shared().jobs();
  if (jobs <= 0) return pool;
  if (jobs > pool)
    std::fprintf(stderr,
                 "%s: --jobs %d exceeds the shared pool's %d workers (CRP_JOBS or the "
                 "core count); running %d wide\n",
                 tool, jobs, pool, pool);
  return std::min(jobs, pool);
}

void ThreadPool::run_task(Batch& b, u64 claim) {
  // Under a perturbed batch, claim i runs task order[i]; the task's chaos
  // salt follows the *task* index, so per-item injection streams are
  // identical whether or not the order was shuffled.
  u64 task = b.chaos_on && !b.order.empty() ? b.order[claim] : claim;
  // Trace lane derived from the *task* id, never from thread identity:
  // spans from two runs of the same batch land on the same lane at any
  // job count, so Chrome traces diff cleanly across runs.
  u32 lane = 1 + static_cast<u32>(task % obs::kJournalTaskLanes);
  const void* outer = std::exchange(t_current_batch, &b);
  u64 t0 = wall_ns();
  std::string subject;
  try {
    obs::ScopedJournalLane lane_scope(lane);
    obs::ScopedJournalSubject subject_scope(b.subject);
    obs::ScopedProfContext prof_scope(b.prof);
    if (b.chaos_on) {
      chaos::TaskScope scope(task_seed(b.chaos_salt, task));
      (*b.fn)(task);
    } else {
      (*b.fn)(task);
    }
    subject = obs::journal_subject();  // the task may have refined it
  } catch (...) {
    // The batch still completes; its issuer rethrows the first error.
    std::lock_guard<std::mutex> lock(mu_);
    if (!b.error) b.error = std::current_exception();
  }
  t_current_batch = outer;
  obs::Journal::global().span(b.label, "exec", t0 / 1000, (wall_ns() - t0) / 1000, lane,
                              "task", static_cast<i64>(task), subject);
  c_tasks_->inc();
  b.done.fetch_add(1, std::memory_order_acq_rel);
}

void ThreadPool::work(Batch& b, bool yield) {
  u64 gen = publish_gen_.load(std::memory_order_acquire);
  for (;;) {
    u64 i = b.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= b.n) return;
    run_task(b, i);
    if (yield && publish_gen_.load(std::memory_order_acquire) != gen) return;
  }
}

ThreadPool::Batch* ThreadPool::pick_locked(const Batch* root) const {
  Batch* best = nullptr;
  for (Batch* b : open_) {
    if (b->next.load(std::memory_order_relaxed) >= b->n || b->active >= b->width) continue;
    if (root != nullptr) {
      const Batch* a = b;
      while (a != nullptr && a != root) a = a->parent;
      if (a == nullptr) continue;  // outside root's subtree
    }
    if (best == nullptr || b->depth > best->depth) best = b;
  }
  return best;
}

void ThreadPool::worker_loop() {
  // Pre-create this worker's flight-recorder ring so its first probe event
  // (tasks routinely probe through oracles) stays lock-free.
  obs::Ledger::global().register_current_thread();
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    u64 free_ns = wall_ns();
    Batch* b = nullptr;
    cv_.wait(lock, [&] { return stop_ || (b = pick_locked(nullptr)) != nullptr; });
    if (stop_) return;
    ++b->active;
    // Steal latency: from the moment this worker could have claimed the
    // batch (published, worker free) to the claim. Idle time before the
    // publication and time spent busy elsewhere are not steal.
    h_steal_ns_->record(wall_ns() - std::max(free_ns, b->publish_ns));
    lock.unlock();
    work(*b, /*yield=*/true);
    lock.lock();
    --b->active;
    cv_.notify_all();  // the issuer may be waiting for this detach
  }
}

void ThreadPool::for_each_index(u64 n, const std::function<void(u64)>& fn,
                                const char* label, int width) {
  if (n == 0) return;
  Batch b;
  b.fn = &fn;
  b.label = label;
  b.n = n;
  b.width = width <= 0 ? jobs_ : std::min(width, jobs_);
  b.parent = static_cast<const Batch*>(t_current_batch);
  b.depth = b.parent != nullptr ? b.parent->depth + 1 : 0;
  // Chaos bookkeeping happens on the issuer thread, in program order, so
  // batch salts (and therefore every stream salt derived inside tasks) are
  // identical at any job count.
  b.chaos_on = chaos::active();
  if (b.chaos_on) {
    b.chaos_salt = chaos::next_batch_salt();
    chaos::FaultStream stream = chaos::make_stream(chaos::point_bit(chaos::Point::kTaskOrder));
    if (stream.fire(chaos::Point::kTaskOrder)) {
      b.order.resize(n);
      std::iota(b.order.begin(), b.order.end(), 0);
      Rng rng(stream.draw(chaos::Point::kTaskOrder));
      rng.shuffle(b.order);
    }
  }
  b.prof = obs::Profiler::context();
  b.subject = obs::journal_subject();

  if (b.width == 1) {  // the serial loop: nothing to publish
    work(b, /*yield=*/false);
    if (b.error) std::rethrow_exception(b.error);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    b.active = 1;
    b.publish_ns = wall_ns();
    open_.push_back(&b);
    publish_gen_.fetch_add(1, std::memory_order_release);
  }
  cv_.notify_all();
  work(b, /*yield=*/false);  // the issuer drains its own batch first

  std::unique_lock<std::mutex> lock(mu_);
  --b.active;
  // Stragglers: help only this batch's subtree until every task completed
  // and every helper detached (the last detach happens under mu_).
  for (;;) {
    Batch* h = nullptr;
    cv_.wait(lock, [&] {
      return (b.done.load(std::memory_order_acquire) == n && b.active == 0) ||
             (h = pick_locked(&b)) != nullptr;
    });
    if (h == nullptr) break;
    ++h->active;
    lock.unlock();
    work(*h, /*yield=*/true);
    lock.lock();
    --h->active;
    cv_.notify_all();
  }
  open_.erase(std::find(open_.begin(), open_.end(), &b));
  if (b.error) std::rethrow_exception(b.error);
}

}  // namespace crp::exec
