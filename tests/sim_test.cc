#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/simulation.h"

namespace fsd::sim {
namespace {

// Kernel, teardown, kill-path and offload tests run on both kernel tiers:
// fibers (the default) and pooled threads with a semaphore handoff (the
// fallback where fibers are compiled out, and the fibers' oracle). On a
// build without fiber support both instances run the thread tier.
class SimulationTier : public ::testing::TestWithParam<bool> {
 protected:
  SimTuning Tuning() const {
    SimTuning tuning;
    tuning.use_fibers = GetParam();
    return tuning;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Kernel, SimulationTier, ::testing::Bool(),
    [](const ::testing::TestParamInfo<bool>& info) {
      return std::string(info.param ? "Fibers" : "Threads");
    });

TEST_P(SimulationTier, HoldAdvancesVirtualTimeOnly) {
  Simulation sim(Tuning());
  double observed = -1.0;
  sim.AddProcess("p", [&]() {
    EXPECT_EQ(sim.Now(), 0.0);
    sim.Hold(1.5);
    EXPECT_EQ(sim.Now(), 1.5);
    sim.Hold(0.0);
    observed = sim.Now();
  });
  sim.Run();
  EXPECT_EQ(observed, 1.5);
}

TEST_P(SimulationTier, EventsOrderedByTimeThenSeq) {
  Simulation sim(Tuning());
  std::vector<int> order;
  sim.ScheduleCallback(2.0, [&] { order.push_back(3); });
  sim.ScheduleCallback(1.0, [&] { order.push_back(1); });
  sim.ScheduleCallback(1.0, [&] { order.push_back(2); });  // same t: FIFO
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(SimulationTier, ProcessesInterleaveDeterministically) {
  auto run_once = [this] {
    Simulation sim(Tuning());
    std::vector<int> trace;
    sim.AddProcess("a", [&]() {
      trace.push_back(1);
      sim.Hold(2.0);
      trace.push_back(3);
    });
    sim.AddProcess("b", [&]() {
      trace.push_back(2);
      sim.Hold(3.0);
      trace.push_back(4);
    });
    sim.Run();
    return trace;
  };
  const auto t1 = run_once();
  const auto t2 = run_once();
  EXPECT_EQ(t1, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(t1, t2);
}

TEST_P(SimulationTier, SignalWakesWaiter) {
  Simulation sim(Tuning());
  auto signal = sim.MakeSignal();
  double woke_at = -1.0;
  sim.AddProcess("waiter", [&]() {
    EXPECT_TRUE(sim.WaitSignal(signal.get()));
    woke_at = sim.Now();
  });
  sim.AddProcess("firer", [&]() {
    sim.Hold(5.0);
    signal->Fire();
  });
  sim.Run();
  EXPECT_EQ(woke_at, 5.0);
}

TEST_P(SimulationTier, SignalTimeoutExpires) {
  Simulation sim(Tuning());
  auto signal = sim.MakeSignal();
  bool fired = true;
  double woke_at = -1.0;
  sim.AddProcess("waiter", [&]() {
    fired = sim.WaitSignal(signal.get(), 2.0);
    woke_at = sim.Now();
  });
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(woke_at, 2.0);
}

TEST_P(SimulationTier, TimedOutWaiterNotWokenByLaterFire) {
  Simulation sim(Tuning());
  auto signal = sim.MakeSignal();
  int wakes = 0;
  sim.AddProcess("waiter", [&]() {
    EXPECT_FALSE(sim.WaitSignal(signal.get(), 1.0));
    ++wakes;
    sim.Hold(10.0);  // a stale Fire wake would cut this short
    EXPECT_EQ(sim.Now(), 11.0);
    ++wakes;
  });
  sim.AddProcess("firer", [&]() {
    sim.Hold(3.0);
    signal->Fire();
  });
  sim.Run();
  EXPECT_EQ(wakes, 2);
}

TEST_P(SimulationTier, FiredSignalReturnsImmediately) {
  Simulation sim(Tuning());
  auto signal = sim.MakeSignal();
  signal->Fire();
  double waited = -1.0;
  sim.AddProcess("p", [&]() {
    EXPECT_TRUE(sim.WaitSignal(signal.get(), 100.0));
    waited = sim.Now();
  });
  sim.Run();
  EXPECT_EQ(waited, 0.0);
}

TEST_P(SimulationTier, SpawnAndJoin) {
  Simulation sim(Tuning());
  double child_done = -1.0, parent_done = -1.0;
  sim.AddProcess("parent", [&]() {
    ProcessHandle child = sim.Spawn("child", [&]() {
      sim.Hold(4.0);
      child_done = sim.Now();
    });
    sim.Hold(1.0);
    sim.Join(child);
    parent_done = sim.Now();
  });
  sim.Run();
  EXPECT_EQ(child_done, 4.0);
  EXPECT_EQ(parent_done, 4.0);
}

TEST_P(SimulationTier, JoinFinishedProcessReturnsImmediately) {
  Simulation sim(Tuning());
  sim.AddProcess("parent", [&]() {
    ProcessHandle child = sim.Spawn("child", [] {});
    sim.Hold(10.0);
    sim.Join(child);  // already done
    EXPECT_EQ(sim.Now(), 10.0);
  });
  sim.Run();
}

TEST_P(SimulationTier, RunUntilStopsEarlyAndResumes) {
  Simulation sim(Tuning());
  int steps = 0;
  sim.AddProcess("p", [&]() {
    for (int i = 0; i < 5; ++i) {
      sim.Hold(1.0);
      ++steps;
    }
  });
  sim.Run(2.5);
  EXPECT_EQ(steps, 2);
  EXPECT_EQ(sim.Now(), 2.5);
  sim.Run();
  EXPECT_EQ(steps, 5);
  EXPECT_EQ(sim.Now(), 5.0);
}

TEST_P(SimulationTier, StartDelayHonored) {
  Simulation sim(Tuning());
  double started = -1.0;
  sim.AddProcess("late", [&]() { started = sim.Now(); }, /*start=*/7.0);
  sim.Run();
  EXPECT_EQ(started, 7.0);
}

TEST_P(SimulationTier, OnlyTheFiberTierMapsStacks) {
  Simulation sim(Tuning());
  for (int i = 0; i < 3; ++i) {
    sim.AddProcess("p", [&sim]() { sim.Hold(1.0); });
  }
  sim.Run();
  const bool fibers = FSD_SIM_HAS_FIBERS && GetParam();
  EXPECT_EQ(sim.fiber_stacks_mapped(), fibers ? 3u : 0u);
}

TEST_P(SimulationTier, ManyProcessesDeterministicEventCount) {
  auto count_events = [this] {
    Simulation sim(Tuning());
    for (int i = 0; i < 50; ++i) {
      sim.AddProcess("w", [&sim]() {
        for (int k = 0; k < 20; ++k) sim.Hold(0.01);
      });
    }
    sim.Run();
    return sim.events_dispatched();
  };
  const uint64_t e1 = count_events();
  EXPECT_EQ(e1, count_events());
  EXPECT_GE(e1, 50u * 20u);
}

TEST_P(SimulationTier, TeardownUnwindsBlockedProcesses) {
  // A process blocked on a never-fired signal must not hang destruction.
  auto signal_holder = std::make_shared<std::shared_ptr<SimSignal>>();
  {
    Simulation sim(Tuning());
    *signal_holder = sim.MakeSignal();
    sim.AddProcess("stuck", [&sim, signal_holder]() {
      sim.WaitSignal(signal_holder->get());
    });
    sim.Run();
    EXPECT_EQ(sim.live_processes(), 1);
  }  // destructor must join the stuck thread without deadlock
  SUCCEED();
}

TEST_P(SimulationTier, TeardownWithManyConcurrentLiveProcesses) {
  // A serving workload aborting mid-flight leaves MANY processes blocked at
  // once — holds, signal waits, and join chains all unwinding together.
  auto signal_holder = std::make_shared<std::shared_ptr<SimSignal>>();
  {
    Simulation sim(Tuning());
    *signal_holder = sim.MakeSignal();
    for (int i = 0; i < 8; ++i) {
      sim.AddProcess("holder", [&sim]() { sim.Hold(1e9); });
      sim.AddProcess("waiter", [&sim, signal_holder]() {
        sim.WaitSignal(signal_holder->get());
      });
      sim.AddProcess("parent", [&sim]() {
        ProcessHandle child = sim.Spawn("child", [&sim]() { sim.Hold(1e9); });
        sim.Join(child);
      });
    }
    // A process that never got to start at all (event beyond the horizon).
    sim.AddProcess("never-started", [&sim]() { sim.Hold(1.0); },
                   /*start=*/1e12);
    sim.Run(/*until=*/5.0);
    EXPECT_GT(sim.live_processes(), 30);
  }  // destructor must unwind and join every thread without deadlock
  SUCCEED();
}

TEST_P(SimulationTier, KillPathToleratesSimCallsFromUnwindingDestructors) {
  // Destructors on a killed process's stack may re-enter the kernel (hold a
  // drain delay, fire a completion signal, schedule a cleanup callback,
  // spawn a reaper). During teardown these must be inert, not crash/hang.
  struct ReentrantGuard {
    Simulation* sim;
    std::shared_ptr<SimSignal> done;
    ~ReentrantGuard() {
      sim->Hold(0.5);
      done->Fire();
      sim->ScheduleCallback(0.1, [] {});
      ProcessHandle reaper = sim->Spawn("reaper", [] {});
      sim->Join(reaper);
      (void)sim->WaitSignal(done.get(), 1.0);
    }
  };
  auto done_holder = std::make_shared<std::shared_ptr<SimSignal>>();
  {
    Simulation sim(Tuning());
    *done_holder = sim.MakeSignal();
    for (int i = 0; i < 4; ++i) {
      sim.AddProcess("guarded", [&sim, done_holder]() {
        ReentrantGuard guard{&sim, *done_holder};
        sim.Hold(1e9);  // blocked here when the Simulation dies
      });
    }
    sim.Run(/*until=*/1.0);
    EXPECT_EQ(sim.live_processes(), 4);
  }
  SUCCEED();
}

TEST_P(SimulationTier, OffloadChargesVirtualTimeAndRunsClosure) {
  for (const int pool : {0, 1, 2}) {
    SimTuning tuning = Tuning();
    tuning.compute_threads = pool;
    Simulation sim(tuning);
    int ran = 0;
    double after = -1.0;
    sim.AddProcess("p", [&]() {
      sim.Offload(1.25, [&]() { ++ran; });
      after = sim.Now();
      EXPECT_EQ(ran, 1);  // result visible right after the join
    });
    sim.Run();
    EXPECT_EQ(ran, 1) << "pool=" << pool;
    EXPECT_EQ(after, 1.25) << "pool=" << pool;
  }
}

TEST_P(SimulationTier, OffloadNullClosureIsAPlainHold) {
  SimTuning tuning = Tuning();
  tuning.compute_threads = 2;
  Simulation sim(tuning);
  double after = -1.0;
  sim.AddProcess("p", [&]() {
    sim.Offload(2.0, nullptr);
    after = sim.Now();
  });
  sim.Run();
  EXPECT_EQ(after, 2.0);
  EXPECT_EQ(sim.offload_stats().calls, 0u);  // null fn is not an offload
  EXPECT_EQ(sim.offload_stats().pool_runs, 0u);
}

TEST_P(SimulationTier, OffloadFromSchedulerContextRunsInline) {
  // No submitting process (callback context): the closure must still run,
  // synchronously, so callers never need to special-case.
  Simulation sim(Tuning());
  bool ran = false;
  sim.ScheduleCallback(1.0, [&]() {
    sim.Offload(5.0, [&]() { ran = true; });
    EXPECT_TRUE(ran);
  });
  sim.Run();
  EXPECT_TRUE(ran);
}

TEST_P(SimulationTier, OffloadStatsCountCallsAndPoolRuns) {
  for (const int pool : {0, 3}) {
    SimTuning tuning = Tuning();
    tuning.compute_threads = pool;
    Simulation sim(tuning);
    for (int p = 0; p < 4; ++p) {
      sim.AddProcess("p", [&]() {
        for (int i = 0; i < 3; ++i) sim.Offload(0.5, []() {});
      });
    }
    sim.Run();
    const OffloadStats stats = sim.offload_stats();
    EXPECT_EQ(stats.calls, 12u) << "pool=" << pool;
    EXPECT_DOUBLE_EQ(stats.virtual_s, 6.0) << "pool=" << pool;
    EXPECT_EQ(stats.pool_runs, pool == 0 ? 0u : 12u) << "pool=" << pool;
  }
}

TEST_P(SimulationTier, OffloadByteIdenticalAcrossPoolSizes) {
  // A fleet of processes interleaving offloads, holds and signal traffic:
  // the (time, order, value) trace must match for every pool size.
  auto run_once = [this](int pool) {
    SimTuning tuning = Tuning();
    tuning.compute_threads = pool;
    Simulation sim(tuning);
    std::vector<std::pair<double, int>> trace;
    auto signal = sim.MakeSignal();
    for (int p = 0; p < 6; ++p) {
      sim.AddProcess("p", [&, p]() {
        int local = 0;
        for (int i = 0; i < 4; ++i) {
          sim.Offload(0.1 * (p + 1), [&]() { local += p + i; });
          trace.push_back({sim.Now(), 100 * p + local});
          if (p == 0 && i == 1) signal->Fire();
          if (p == 5 && i == 0) (void)sim.WaitSignal(signal.get(), 10.0);
          sim.Hold(0.05 * p);
        }
      });
    }
    sim.Run();
    return std::make_pair(trace, sim.events_dispatched());
  };
  const auto inline_run = run_once(0);
  EXPECT_EQ(inline_run, run_once(1));
  EXPECT_EQ(inline_run, run_once(4));
  EXPECT_EQ(inline_run,
            run_once(static_cast<int>(std::thread::hardware_concurrency())));
}

TEST_P(SimulationTier, TeardownDrainsInFlightOffloadClosures) {
  // Destruction with a closure RUNNING on the pool: the drain must wait it
  // out (never free state under a live worker) and then unwind the blocked
  // submitter without deadlock.
  std::atomic<int> completed{0};
  {
    SimTuning tuning = Tuning();
    tuning.compute_threads = 2;
    Simulation sim(tuning);
    for (int p = 0; p < 2; ++p) {
      sim.AddProcess("p", [&]() {
        sim.Offload(10.0, [&]() {
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          ++completed;
        });
      });
    }
    sim.Run(/*until=*/1.0);  // wake events (t=10) never fire
  }  // destructor: drain in-flight closures, then kill blocked submitters
  // Everything that STARTED must have finished before the pool died.
  EXPECT_LE(completed.load(), 2);
  SUCCEED();
}

TEST_P(SimulationTier, TeardownDiscardsQueuedOffloadJobs) {
  // More submitters than pool threads: at destruction some jobs are still
  // QUEUED (never started). They must be discarded, not run, and their
  // submitters unwound cleanly.
  {
    SimTuning tuning = Tuning();
    tuning.compute_threads = 1;
    Simulation sim(tuning);
    for (int p = 0; p < 6; ++p) {
      sim.AddProcess("p", [&]() {
        sim.Offload(10.0, [&]() {
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        });
      });
    }
    sim.Run(/*until=*/1.0);
  }
  SUCCEED();
}

TEST_P(SimulationTier, KillPathToleratesOffloadFromUnwindingDestructors) {
  // A destructor on a killed process's stack may call Offload (e.g. a
  // worker flushing a codec buffer). During teardown the closure must run
  // inline and return — inert, no pool, no hang.
  struct OffloadGuard {
    Simulation* sim;
    bool* ran;
    ~OffloadGuard() {
      sim->Offload(0.5, [this]() { *ran = true; });
    }
  };
  bool ran = false;
  {
    SimTuning tuning = Tuning();
    tuning.compute_threads = 2;
    Simulation sim(tuning);
    sim.AddProcess("guarded", [&]() {
      OffloadGuard guard{&sim, &ran};
      sim.Hold(1e9);  // blocked here when the Simulation dies
    });
    sim.Run(/*until=*/1.0);
    EXPECT_EQ(sim.live_processes(), 1);
  }
  EXPECT_TRUE(ran);
}

#if FSD_SIM_HAS_FIBERS
// ---------------------------------------------------------------------------
// Fiber stacks (fiber tier only): mmap'd, guard-paged and pooled.
// ---------------------------------------------------------------------------

/// Recurses `depth` frames of at least 1 KiB each, writing each frame's
/// buffer from the top down, and returns the lowest buffer address reached.
/// The read after the recursive call keeps every frame live.
__attribute__((noinline)) uintptr_t DescendStack(int depth) {
  volatile char buf[1024];
  buf[sizeof(buf) - 1] = static_cast<char>(depth);
  buf[0] = static_cast<char>(depth);
  const uintptr_t here = reinterpret_cast<uintptr_t>(&buf[0]);
  if (depth == 0) return here;
  const uintptr_t deepest = DescendStack(depth - 1);
  return buf[sizeof(buf) - 1] == static_cast<char>(depth) ? deepest : here;
}

TEST(SimulationFiberStack, ProcessCanUseSixMiBOfStack) {
  Simulation sim;
  uintptr_t top = 0;
  uintptr_t deepest = 0;
  sim.AddProcess("deep", [&]() {
    volatile char marker = 0;
    top = reinterpret_cast<uintptr_t>(&marker);
    deepest = DescendStack(6 * 1024);
    sim.Hold(1.0);
  });
  sim.Run();
  EXPECT_EQ(sim.live_processes(), 0);
  EXPECT_GE(top - deepest, uintptr_t{6} << 20);
}

TEST(SimulationFiberStackDeathTest, OverflowFaultsOnGuardPage) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(
      {
        Simulation sim;
        // The neighbour's stack is mapped right after, directly below the
        // overflowing one on a top-down mmap layout, so without the guard
        // page the overflow would run into it silently and exit 0.
        sim.AddProcess("overflow", [&sim]() {
          sim.Hold(1.0);
          DescendStack(9 * 1024);
          std::_Exit(0);
        });
        sim.AddProcess("neighbour", [&sim]() { sim.Hold(2.0); });
        sim.Run();
      },
      ::testing::KilledBySignal(SIGSEGV), "");
}

TEST(SimulationFiberStack, ReapedStacksAreReused) {
  Simulation sim;
  // Ten processes that never overlap share one stack.
  for (int i = 0; i < 10; ++i) {
    sim.AddProcess("serial", [&sim]() { sim.Hold(1.0); }, 2.0 * i);
  }
  sim.Run();
  EXPECT_EQ(sim.fiber_stacks_mapped(), 1u);
  // Four overlapping processes need four; a later wave reuses them.
  for (int wave = 0; wave < 2; ++wave) {
    for (int i = 0; i < 4; ++i) {
      sim.AddProcess("wave", [&sim]() { sim.Hold(1.0); }, 100.0 * wave);
    }
  }
  sim.Run();
  EXPECT_EQ(sim.fiber_stacks_mapped(), 4u);
}
#endif  // FSD_SIM_HAS_FIBERS

TEST(ParallelMakespan, SingleLaneSums) {
  EXPECT_DOUBLE_EQ(ParallelMakespan({1.0, 2.0, 3.0}, 1), 6.0);
}

TEST(ParallelMakespan, ManyLanesTakeMax) {
  EXPECT_DOUBLE_EQ(ParallelMakespan({1.0, 2.0, 3.0}, 3), 3.0);
  EXPECT_DOUBLE_EQ(ParallelMakespan({1.0, 2.0, 3.0}, 8), 3.0);
}

TEST(ParallelMakespan, GreedyAssignment) {
  // lanes=2: [4] | [1,2] -> makespan 4; greedy puts 2 after 1.
  EXPECT_DOUBLE_EQ(ParallelMakespan({4.0, 1.0, 2.0}, 2), 4.0);
  // lanes=2 submission order matters (list scheduling, not optimal).
  EXPECT_DOUBLE_EQ(ParallelMakespan({1.0, 1.0, 4.0}, 2), 5.0);
}

TEST(ParallelMakespan, EdgeCases) {
  EXPECT_DOUBLE_EQ(ParallelMakespan({}, 4), 0.0);
  EXPECT_DOUBLE_EQ(ParallelMakespan({2.0}, 0), 2.0);  // lanes clamped to 1
}

}  // namespace
}  // namespace fsd::sim
