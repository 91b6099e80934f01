// Deterministic fiber scheduler: fairness, sleeping, determinism, and
// scaling across process counts (TEST_P sweep). Sleep/wake goes through the
// discrete-event queue, so every fixture pairs the scheduler with one.

#include <gtest/gtest.h>
#include <sys/resource.h>

#include <algorithm>
#include <cfenv>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "src/os/scheduler.h"
#include "src/sim/event_queue.h"

namespace graysim {
namespace {

constexpr std::uint64_t kTieSeed = 0x5eed;

TEST(SchedulerTest, SingleProcessRunsToCompletion) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  bool ran = false;
  sched.Run({[&](int) {
    sched.Charge(0, Millis(25.0));
    ran = true;
  }});
  EXPECT_TRUE(ran);
  EXPECT_EQ(clock.now(), Millis(25.0));
}

TEST(SchedulerTest, EmptyRunIsANoOp) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  sched.Run({});
  EXPECT_EQ(clock.now(), 0u);
  EXPECT_FALSE(sched.active());
}

TEST(SchedulerTest, ChargesAccumulateAcrossProcesses) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  sched.Run({
      [&](int p) { sched.Charge(p, Millis(30.0)); },
      [&](int p) { sched.Charge(p, Millis(20.0)); },
  });
  EXPECT_EQ(clock.now(), Millis(50.0));
}

TEST(SchedulerTest, RoundRobinInterleavesFairly) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  // Each process records the time at which it performs each step; with
  // round-robin slices, neither can run two full slices back to back while
  // the other is runnable.
  std::vector<Nanos> finish(2, 0);
  sched.Run({
      [&](int p) {
        for (int i = 0; i < 10; ++i) {
          sched.Charge(p, Millis(10.0));
        }
        finish[0] = clock.now();
      },
      [&](int p) {
        for (int i = 0; i < 10; ++i) {
          sched.Charge(p, Millis(10.0));
        }
        finish[1] = clock.now();
      },
  });
  const Nanos gap = finish[1] > finish[0] ? finish[1] - finish[0] : finish[0] - finish[1];
  EXPECT_LE(gap, Millis(10.0)) << "both should finish within one slice of each other";
}

TEST(SchedulerTest, SleepWakesAtDeadline) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  Nanos woke_at = 0;
  sched.Run({[&](int p) {
    sched.Sleep(p, Seconds(3.0));
    woke_at = clock.now();
  }});
  EXPECT_GE(woke_at, Seconds(3.0));
}

TEST(SchedulerTest, SleeperYieldsToRunnableProcess) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  Nanos worker_done = 0;
  Nanos sleeper_done = 0;
  sched.Run({
      [&](int p) {
        sched.Sleep(p, Millis(500.0));
        sleeper_done = clock.now();
      },
      [&](int p) {
        sched.Charge(p, Millis(100.0));  // runs while the other sleeps
        worker_done = clock.now();
      },
  });
  EXPECT_LE(worker_done, Millis(120.0)) << "worker shouldn't wait for the sleeper";
  EXPECT_GE(sleeper_done, Millis(500.0));
}

TEST(SchedulerTest, AllSleepingAdvancesClock) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  sched.Run({
      [&](int p) { sched.Sleep(p, Millis(100.0)); },
      [&](int p) { sched.Sleep(p, Millis(250.0)); },
  });
  EXPECT_GE(clock.now(), Millis(250.0));
}

TEST(SchedulerTest, YieldRotatesWithoutCharging) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  std::vector<int> order;
  sched.Run({
      [&](int p) {
        order.push_back(0);
        sched.Yield(p);
        order.push_back(0);
      },
      [&](int p) {
        order.push_back(1);
        sched.Yield(p);
        order.push_back(1);
      },
  });
  EXPECT_EQ(clock.now(), 0u);
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);  // yield handed the turn over
}

TEST(SchedulerTest, DispatchDrainsEventQueueWhileAllSleep) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  // A "device completion" scheduled mid-run must fire before a process that
  // sleeps past it resumes (completions run in the earlier band).
  Nanos completion_at = 0;
  Nanos woke_at = 0;
  sched.Run({[&](int p) {
    events.ScheduleAt(clock.now() + Millis(5.0), EventQueue::Band::kCompletion,
                      [&] { completion_at = clock.now(); });
    sched.Sleep(p, Millis(5.0));
    woke_at = clock.now();
  }});
  EXPECT_EQ(completion_at, Millis(5.0));
  EXPECT_GE(woke_at, completion_at);
}

// 1/3 rounded in the current rounding mode: upward and to-nearest round it
// to different doubles. The volatile operands keep the division at run time.
double OneThird() {
  const volatile double one = 1.0;
  const volatile double three = 3.0;
  return one / three;
}

// A fiber switch keeps each side's floating-point control state, as a call
// keeps it under the ABI: the kernel's jitter and latency arithmetic is
// double math that feeds every digest. Fiber 0 rounds upward and yields;
// fiber 1 still rounds to nearest; fiber 0 resumes rounding upward; and the
// dispatching thread's mode is untouched afterwards.
TEST(SchedulerTest, SwitchKeepsEachFibersRoundingMode) {
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  const double nearest = OneThird();
  ASSERT_EQ(std::fesetround(FE_UPWARD), 0);
  const double upward = OneThird();
  ASSERT_EQ(std::fesetround(FE_TONEAREST), 0);
  ASSERT_NE(nearest, upward);

  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  int a_mode = -1;
  double a_quotient = 0.0;
  int b_mode = -1;
  double b_quotient = 0.0;
  sched.Run({
      [&](int p) {
        std::fesetround(FE_UPWARD);
        sched.Yield(p);
        a_mode = std::fegetround();
        a_quotient = OneThird();
      },
      [&](int) {
        b_mode = std::fegetround();
        b_quotient = OneThird();
      },
  });
  const int outer_mode = std::fegetround();
  const double outer_quotient = OneThird();
  std::fesetround(FE_TONEAREST);  // leave the thread as found, even on failure
  EXPECT_EQ(b_mode, FE_TONEAREST);
  EXPECT_EQ(b_quotient, nearest);
  EXPECT_EQ(a_mode, FE_UPWARD);
  EXPECT_EQ(a_quotient, upward);
  EXPECT_EQ(outer_mode, FE_TONEAREST);
  EXPECT_EQ(outer_quotient, nearest);
}

class SchedulerScaling : public ::testing::TestWithParam<int> {};

TEST_P(SchedulerScaling, ManyProcessesAllFinishDeterministically) {
  const int n = GetParam();
  auto run = [n] {
    SimClock clock;
    EventQueue events(kTieSeed);
    Scheduler sched(&clock, &events, Millis(10.0));
    std::vector<std::function<void(int)>> bodies;
    std::vector<Nanos> finish(static_cast<std::size_t>(n), 0);
    for (int i = 0; i < n; ++i) {
      bodies.push_back([&sched, &clock, &finish, i](int p) {
        for (int k = 0; k < 5 + i; ++k) {
          sched.Charge(p, Millis(3.0 + i));
        }
        if (i % 3 == 0) {
          sched.Sleep(p, Millis(17.0));
        }
        finish[static_cast<std::size_t>(i)] = clock.now();
      });
    }
    sched.Run(bodies);
    return std::make_pair(clock.now(), finish);
  };
  const auto [t1, f1] = run();
  const auto [t2, f2] = run();
  EXPECT_EQ(t1, t2) << "scheduler must be deterministic";
  EXPECT_EQ(f1, f2);
  for (const Nanos t : f1) {
    EXPECT_GT(t, 0u) << "every process finished";
  }
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, SchedulerScaling, ::testing::Values(1, 2, 4, 8, 16));

// The round-robin scan the scheduler's dispatch loop made before it kept a
// ready set: the first ready index among (from + 1) % n, (from + 2) % n,
// ..., from. Kept here as the reference the ready set must reproduce.
int ScanNextReady(const std::vector<bool>& ready, int from) {
  const int n = static_cast<int>(ready.size());
  for (int k = 1; k <= n; ++k) {
    const int j = (from + k) % n;
    if (ready[static_cast<std::size_t>(j)]) {
      return j;
    }
  }
  return -1;
}

constexpr int kFiberCounts[] = {1, 63, 64, 65, 80, 129};

// Seeded ready sets, from empty to full, for fiber counts on both sides of
// a word boundary, and NextAfter from every index. Each set is built by
// inserts and then erases, on a FiberSet reused across sizes.
TEST(FiberSetTest, NextAfterMatchesTheRoundRobinScan) {
  std::mt19937_64 rng(0x5eed);
  FiberSet set;
  int checks = 0;
  for (const int n : kFiberCounts) {
    for (int trial = 0; trial <= 40; ++trial) {
      const std::uint64_t per_mille = static_cast<std::uint64_t>(trial) * 25;  // 0 .. 1000
      set.Reset(n);
      std::vector<bool> ready(static_cast<std::size_t>(n), false);
      for (int i = 0; i < n; ++i) {
        if (rng() % 1000 < per_mille) {
          set.Insert(i);
          ready[static_cast<std::size_t>(i)] = true;
        }
      }
      for (int i = 0; i < n; ++i) {
        if (rng() % 8 == 0) {
          set.Erase(i);
          ready[static_cast<std::size_t>(i)] = false;
        }
      }
      for (int from = 0; from < n; ++from) {
        ASSERT_EQ(set.NextAfter(from), ScanNextReady(ready, from))
            << "n " << n << " trial " << trial << " from " << from;
        ++checks;
      }
    }
  }
  EXPECT_EQ(checks, 41 * (1 + 63 + 64 + 65 + 80 + 129));
}

// Dispatch order through Run: seeded fibers charge, yield, sleep, wake
// every sleeper and finish, and each dispatch must pick the fiber the scan
// picks from the ready set at that instant. The test derives that set from
// what the fibers did. A sleeper is ready again once a wake event it
// scheduled after it fell asleep is due: its own, or a stale one left by an
// earlier sleep that a WakeAll cut short, which the scheduler honours too.
// A WakeAll readies every sleeper at once. The slice is longer than any
// run of charges, so only Yield, Sleep and finishing switch fibers, and
// every resumption in a body is a dispatch.
TEST(SchedulerTest, DispatchOrderMatchesTheRoundRobinScan) {
  struct Model {
    bool done = false;
    bool asleep = false;
    Nanos slept_at = 0;
    std::vector<Nanos> wakes;  // every wake event the fiber scheduled
  };
  int fibers = 0;
  int dispatches = 0;
  int stale_wakes = 0;
  for (const int n : kFiberCounts) {
    SCOPED_TRACE("fibers " + std::to_string(n));
    SimClock clock;
    EventQueue events(kTieSeed);
    Scheduler sched(&clock, &events, Seconds(1000.0));
    std::vector<Model> model(static_cast<std::size_t>(n));
    std::mt19937_64 rng(static_cast<std::uint64_t>(n));
    int last = n - 1;
    auto ready_now = [&clock](const Model& m) {
      if (m.done) {
        return false;
      }
      if (!m.asleep) {
        return true;
      }
      for (const Nanos t : m.wakes) {
        if (t > m.slept_at && t <= clock.now()) {
          return true;
        }
      }
      return false;
    };
    auto on_dispatch = [&](int me) {
      std::vector<bool> ready;
      for (const Model& m : model) {
        ready.push_back(ready_now(m));
      }
      EXPECT_EQ(me, ScanNextReady(ready, last)) << "dispatch " << dispatches;
      Model& m = model[static_cast<std::size_t>(me)];
      if (m.asleep && m.wakes.back() > clock.now()) {
        ++stale_wakes;
      }
      m.asleep = false;
      last = me;
      ++dispatches;
    };
    auto body = [&](int me) {
      on_dispatch(me);
      Model& m = model[static_cast<std::size_t>(me)];
      const std::uint64_t steps = 1 + rng() % 10;
      for (std::uint64_t step = 0; step < steps; ++step) {
        const std::uint64_t action = rng() % 20;
        if (action < 5) {
          sched.Charge(me, 1 + rng() % 40);
        } else if (action < 8) {
          sched.Yield(me);
          on_dispatch(me);
        } else if (action < 18) {
          const Nanos deadline = clock.now() + 1 + rng() % 400;
          m.asleep = true;
          m.slept_at = clock.now();
          m.wakes.push_back(deadline);
          sched.SleepUntil(me, deadline);
          on_dispatch(me);
        } else {
          for (Model& other : model) {
            other.asleep = false;
          }
          sched.WakeAll();
        }
      }
      m.done = true;
    };
    sched.Run(std::vector<std::function<void(int)>>(static_cast<std::size_t>(n), body));
    fibers += n;
  }
  EXPECT_GT(dispatches, 3 * fibers);
  EXPECT_GT(stale_wakes, 10) << "too few fibers woke on a wake a WakeAll left behind";
}

// A fiber's stack is the mapping holding its locals, and the page directly
// below that mapping is an inaccessible guard (a `---p` entry of
// /proc/self/maps ending where the stack begins).
TEST(SchedulerTest, FiberStackSitsDirectlyAboveAGuardPage) {
  SimClock clock;
  EventQueue events(kTieSeed);
  Scheduler sched(&clock, &events, Millis(10.0));
  std::uintptr_t local = 0;
  std::string maps;
  sched.Run({[&](int) {
    const volatile char here = 0;
    local = reinterpret_cast<std::uintptr_t>(&here);
    std::ifstream in("/proc/self/maps");
    maps.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }});
  struct Mapping {
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    std::string perms;
  };
  std::vector<Mapping> mappings;
  std::istringstream lines(maps);
  for (std::string line; std::getline(lines, line);) {
    Mapping m;
    char dash = 0;
    std::istringstream fields(line);
    fields >> std::hex >> m.lo >> dash >> m.hi >> m.perms;
    mappings.push_back(m);
  }
  const auto stack = std::find_if(mappings.begin(), mappings.end(), [&](const Mapping& m) {
    return m.lo <= local && local < m.hi;
  });
  ASSERT_NE(stack, mappings.end());
  EXPECT_EQ(stack->perms.substr(0, 3), "rw-");
  EXPECT_LT(local - stack->lo, 512u * 1024) << "the guard lies within one stack size";
  const bool guarded = std::any_of(mappings.begin(), mappings.end(), [&](const Mapping& m) {
    return m.hi == stack->lo && m.perms.substr(0, 3) == "---";
  });
  EXPECT_TRUE(guarded) << "no inaccessible page directly below the fiber stack";
}

// Recurses until the stack runs `bytes` below `top`, touching each 1 KiB
// frame every 64 bytes so the stack grows in steps far smaller than a page
// and cannot step over a guard page. Passing each frame to its callee keeps
// the frames live, so the recursion cannot become a loop.
[[gnu::noinline]] int RecurseBelow(std::uintptr_t top, std::size_t bytes,
                                   const volatile char* caller) {
  volatile char frame[1024];
  for (std::size_t i = 0; i < sizeof(frame); i += 64) {
    frame[i] = 1;
  }
  if (top - reinterpret_cast<std::uintptr_t>(&frame[0]) >= bytes) {
    return caller[0];
  }
  return RecurseBelow(top, bytes, frame) + caller[0];
}

// A fiber that recurses 64 KiB past its 512 KiB stack must fault on the
// guard page below the stack, not run on into whatever memory lies there.
// Sanitizer runtimes catch the fault themselves and report it before dying.
TEST(SchedulerDeathTest, StackOverflowFaultsOnTheGuardPage) {
  auto overflow = [] {
    const rlimit no_core{0, 0};
    (void)setrlimit(RLIMIT_CORE, &no_core);
    SimClock clock;
    EventQueue events(kTieSeed);
    Scheduler sched(&clock, &events, Millis(10.0));
    sched.Run({[](int) {
      const volatile char top = 1;
      (void)RecurseBelow(reinterpret_cast<std::uintptr_t>(&top), (512 + 64) * 1024, &top);
    }});
    std::exit(0);
  };
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  EXPECT_DEATH(overflow(), "stack-overflow|SEGV");
#else
  EXPECT_EXIT(overflow(), ::testing::KilledBySignal(SIGSEGV), "");
#endif
}

}  // namespace
}  // namespace graysim
