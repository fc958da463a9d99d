// crp::exec thread pool: worker-count resolution, per-task seeding, and the
// determinism contract (input-order merge, job-count independence). The
// hammer tests double as the TSan workload for the pool (see ci.yml).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "chaos/chaos.h"
#include "exec/thread_pool.h"
#include "obs/journal.h"
#include "obs/obs.h"

namespace crp::exec {
namespace {

TEST(ResolveJobs, ExplicitArgumentWins) {
  ::setenv("CRP_JOBS", "7", 1);
  EXPECT_EQ(resolve_jobs(3), 3);
  ::unsetenv("CRP_JOBS");
}

TEST(ResolveJobs, EnvOverridesHardware) {
  ::setenv("CRP_JOBS", "5", 1);
  EXPECT_EQ(resolve_jobs(), 5);
  ::setenv("CRP_JOBS", "0", 1);  // non-positive env values fall through
  EXPECT_GE(resolve_jobs(), 1);
  ::setenv("CRP_JOBS", "garbage", 1);
  EXPECT_GE(resolve_jobs(), 1);
  ::unsetenv("CRP_JOBS");
}

TEST(ResolveJobs, DefaultsToAtLeastOne) {
  ::unsetenv("CRP_JOBS");
  EXPECT_GE(resolve_jobs(), 1);
}

TEST(TaskSeed, DeterministicAndIndexSensitive) {
  EXPECT_EQ(task_seed(0x1234, 7), task_seed(0x1234, 7));
  EXPECT_NE(task_seed(0x1234, 7), task_seed(0x1234, 8));
  EXPECT_NE(task_seed(0x1234, 7), task_seed(0x1235, 7));
  // Index 0 must not collapse onto the base seed.
  EXPECT_NE(task_seed(0x1234, 0), 0x1234ull);
}

TEST(ThreadPool, SerialPoolRunsOnCaller) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.jobs(), 1);
  std::thread::id caller = std::this_thread::get_id();
  std::atomic<int> off_thread{0};
  pool.for_each_index(64, [&](u64) {
    if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
  });
  EXPECT_EQ(off_thread.load(), 0);
}

TEST(ThreadPool, EmptyBatchIsNoop) {
  ThreadPool pool(4);
  int calls = 0;
  pool.for_each_index(0, [&](u64) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(501);
  pool.for_each_index(hits.size(), [&](u64 i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, TasksMetricCounts) {
  obs::Counter& c = obs::Registry::global().counter("analysis.pool.tasks");
  u64 before = c.value();
  ThreadPool pool(2);
  pool.for_each_index(37, [](u64) {});
  EXPECT_EQ(c.value(), before + 37);
}

TEST(ParallelMap, InputOrderPreserved) {
  ThreadPool pool(4);
  std::vector<int> items(200);
  std::iota(items.begin(), items.end(), 0);
  auto out = parallel_map(pool, items, [](size_t i, const int& v) {
    return static_cast<int>(i) * 1000 + v;
  });
  ASSERT_EQ(out.size(), items.size());
  for (size_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i], static_cast<int>(i) * 1000 + items[i]);
}

TEST(ParallelMap, JobCountDoesNotChangeResults) {
  std::vector<u64> items(300);
  std::iota(items.begin(), items.end(), 11);
  auto run = [&](int jobs) {
    ThreadPool pool(jobs);
    return parallel_map(pool, items, [](size_t i, const u64& v) {
      // Task-index seeding: identical streams regardless of which thread
      // runs the task.
      return task_seed(v, i);
    });
  };
  auto serial = run(1);
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(9));
}

TEST(ThreadPool, ReusedAcrossManySmallBatches) {
  // Regression for batch-reuse races: a worker looping back for one more
  // claim must never observe the next batch's cursor. Many tiny batches
  // back-to-back maximize the window.
  ThreadPool pool(4);
  for (int round = 0; round < 200; ++round) {
    std::atomic<u64> sum{0};
    u64 n = 1 + static_cast<u64>(round % 7);
    pool.for_each_index(n, [&](u64 i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2) << "round " << round;
  }
}

TEST(ThreadPool, JournalLanesFollowTaskIdsNotThreads) {
  // Chrome-trace determinism: a task's spans land on lane 1 + task % 16 at
  // ANY job count, so traces from different runs nest and diff identically.
  auto lanes_for = [](int jobs) {
    obs::Journal& j = obs::Journal::global();
    j.clear();
    ThreadPool pool(jobs);
    pool.for_each_index(40, [](u64) {}, "lane-test");
    std::map<i64, u32> task_to_tid;
    for (const obs::TraceEvent& e : j.events())
      if (e.name == "lane-test") task_to_tid[e.arg] = e.tid;
    j.clear();
    return task_to_tid;
  };
  std::map<i64, u32> serial = lanes_for(1);
  ASSERT_EQ(serial.size(), 40u);
  for (const auto& [task, tid] : serial)
    EXPECT_EQ(tid, 1u + static_cast<u32>(task) % obs::kJournalTaskLanes);
  EXPECT_EQ(serial, lanes_for(4));
  EXPECT_EQ(serial, lanes_for(8));
}

TEST(ThreadPool, NestedEventsAdoptTheTaskLane) {
  // An event emitted with tid == 0 from inside a task (e.g. an oracle probe
  // span) inherits the task's lane instead of collapsing onto lane 0.
  obs::Journal& j = obs::Journal::global();
  j.clear();
  ThreadPool pool(4);
  pool.for_each_index(8, [&](u64) {
    j.instant("nested", "test", 0);  // tid defaulted to 0
  });
  for (const obs::TraceEvent& e : j.events())
    if (e.name == "nested") {
      EXPECT_GE(e.tid, 1u);
      EXPECT_LE(e.tid, obs::kJournalTaskLanes);
    }
  j.clear();
}

TEST(ThreadPool, ConcurrentMetricHammer) {
  // TSan workload: tasks hammer shared observability sinks from every worker.
  obs::Counter& c = obs::Registry::global().counter("test.exec.hammer");
  obs::Histogram& h = obs::Registry::global().histogram("test.exec.hammer_ns");
  u64 before = c.value();
  ThreadPool pool(8);
  pool.for_each_index(2000, [&](u64 i) {
    c.inc();
    h.record(i % 97);
  });
  EXPECT_EQ(c.value(), before + 2000);
}

// --- nesting ------------------------------------------------------------------

/// Two-level sweep: item i maps to the sum of a nested batch's outputs.
std::vector<u64> nested_sweep(ThreadPool& pool, int width = 0) {
  std::vector<u64> items(24);
  std::iota(items.begin(), items.end(), 1);
  return parallel_map(
      pool, items,
      [&](size_t i, const u64& v) {
        std::vector<u64> inner(v % 7 + 3);
        std::iota(inner.begin(), inner.end(), v);
        std::vector<u64> sq = parallel_map(
            pool, inner, [&](size_t j, const u64& x) { return x * x + i * 1000 + j; },
            "inner", width);
        return std::accumulate(sq.begin(), sq.end(), u64{0});
      },
      "outer", width);
}

TEST(ThreadPool, NestedParallelMapEqualsTheSerialLoop) {
  std::vector<u64> serial;
  for (u64 v = 1; v <= 24; ++v) {
    u64 acc = 0;
    for (u64 j = 0; j < v % 7 + 3; ++j) acc += (v + j) * (v + j) + (v - 1) * 1000 + j;
    serial.push_back(acc);
  }
  for (int jobs : {1, 2, 4}) {
    ThreadPool pool(jobs);
    EXPECT_EQ(nested_sweep(pool), serial) << "jobs=" << jobs;
    EXPECT_EQ(nested_sweep(pool, 1), serial) << "jobs=" << jobs << " width=1";
  }
}

TEST(ThreadPool, EveryWorkerNestingAtOnceCompletes) {
  // Every worker blocks in a nested batch of its own at the same moment;
  // each issuer drains its own batch, so the whole graph finishes. A hang
  // aborts the test binary instead of running into the suite timeout.
  ThreadPool pool(4);
  auto run = std::async(std::launch::async, [&] {
    std::atomic<int> arrived{0};
    std::atomic<u64> inner_runs{0};
    pool.for_each_index(4, [&](u64) {
      arrived.fetch_add(1);
      auto t0 = std::chrono::steady_clock::now();
      while (arrived.load() < 4 &&
             std::chrono::steady_clock::now() - t0 < std::chrono::seconds(2))
        std::this_thread::yield();
      pool.for_each_index(64, [&](u64) {
        pool.for_each_index(4, [&](u64) { inner_runs.fetch_add(1); });
      });
    });
    return inner_runs.load();
  });
  if (run.wait_for(std::chrono::seconds(60)) != std::future_status::ready) {
    // The future's destructor would block on the deadlocked task, so a
    // failed ASSERT would still hang: end the process instead.
    std::fprintf(stderr, "EveryWorkerNestingAtOnceCompletes: nested batches deadlocked\n");
    std::abort();
  }
  EXPECT_EQ(run.get(), 4u * 64u * 4u);
}

TEST(ThreadPool, NonPoolThreadsIssueBatchesConcurrently) {
  ThreadPool pool(4);
  std::vector<u64> expect = nested_sweep(pool);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> issuers;
  for (int t = 0; t < 2; ++t)
    issuers.emplace_back([&] {
      for (int round = 0; round < 10; ++round)
        if (nested_sweep(pool) != expect) mismatches.fetch_add(1);
    });
  for (std::thread& t : issuers) t.join();
  EXPECT_EQ(mismatches.load(), 0);
}

TEST(ThreadPool, NestedOutputMergedIdenticallyUnderTaskOrderChaos) {
  // Process-wide plan: nested batches are issued from worker threads, which
  // see the installed plan (a ScopedPlan is thread-local).
  chaos::FaultPlan plan;
  plan.seed = 9;
  plan.rate = 1;
  plan.points = chaos::point_bit(chaos::Point::kTaskOrder);
  chaos::install(&plan);
  auto run = [](int jobs) {
    chaos::TaskScope reset(3);
    chaos::clear_injected_events();
    ThreadPool pool(jobs);
    std::vector<u64> out = nested_sweep(pool);
    return std::pair{out, chaos::injected_events()};
  };
  auto [out1, ev1] = run(1);
  auto [out4, ev4] = run(4);
  chaos::install(nullptr);
  chaos::clear_injected_events();
  EXPECT_EQ(out1, out4);
  EXPECT_EQ(ev1, ev4);
  EXPECT_EQ(ev1.size(), 25u);  // the outer batch + one per nested batch
}

TEST(ThreadPool, WaitingIssuerNeverRunsAnOuterTask) {
  // Task 0 holds a "lease" while its nested batch runs. A helper takes the
  // nested batch's long task, so the nested issuer finishes its short one
  // and waits for that straggler while the outer batch still has unclaimed
  // tasks; running one of those there would re-enter the outer batch under
  // the lease (in a campaign: a cell step blocking on an ArtifactStore
  // lease its own stack holds).
  thread_local bool holding_lease = false;
  for (int round = 0; round < 5; ++round) {
    ThreadPool pool(3);
    std::atomic<int> violations{0};
    pool.for_each_index(64, [&](u64 i) {
      if (i != 0) {
        if (holding_lease) violations.fetch_add(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return;
      }
      holding_lease = true;
      pool.for_each_index(2, [&](u64 j) {
        std::this_thread::sleep_for(std::chrono::milliseconds(j == 0 ? 10 : 60));
      });
      holding_lease = false;
    });
    EXPECT_EQ(violations.load(), 0) << "round " << round;
  }
}

TEST(ThreadPool, TaskExceptionReachesTheIssuerAfterTheBatch) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.for_each_index(32,
                                   [&](u64 i) {
                                     ran.fetch_add(1);
                                     if (i == 5) throw std::runtime_error("task 5");
                                   }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 32);
  // The pool stays usable.
  std::atomic<int> again{0};
  pool.for_each_index(8, [&](u64) { again.fetch_add(1); });
  EXPECT_EQ(again.load(), 8);
}

TEST(ThreadPool, StealNsIsClaimLatencyNotIdleTime) {
  // A long-lived pool idles between batches; that idle time is not steal.
  obs::Histogram& h = obs::Registry::global().histogram("analysis.pool.steal_ns");
  ThreadPool pool(2);
  pool.for_each_index(4, [](u64) {});
  u64 count0 = h.count(), sum0 = h.sum();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  pool.for_each_index(64, [](u64) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  u64 claims = h.count() - count0;
  ASSERT_GE(claims, 1u) << "the worker never claimed the second batch";
  EXPECT_LT((h.sum() - sum0) / claims, 100'000'000u)
      << "steal_ns counted the idle wait between batches";
}

TEST(ThreadPool, TaskSpansNameTheIssuersSubject) {
  obs::Journal& j = obs::Journal::global();
  j.clear();
  ThreadPool pool(4);
  {
    obs::ScopedJournalSubject subject("server/nginx_sim");
    pool.for_each_index(8, [](u64 i) {
      if (i == 3) obs::set_journal_subject(obs::journal_subject() + " recv");
    }, "subject-test");
  }
  std::map<i64, std::string> by_task;
  for (const obs::TraceEvent& e : j.events())
    if (e.name == "subject-test") by_task[e.arg] = e.subject;
  j.clear();
  ASSERT_EQ(by_task.size(), 8u);
  for (const auto& [task, subject] : by_task)
    EXPECT_EQ(subject, task == 3 ? "server/nginx_sim recv" : "server/nginx_sim");
  EXPECT_TRUE(obs::journal_subject().empty());
}

}  // namespace
}  // namespace crp::exec
