// Unit tests for the virtual-time engine: event ordering, process
// scheduling, notifications, mailboxes, daemons, and deadlock detection.
//
// Process-scheduling behaviour must be identical under every execution
// backend, so those tests are parameterized over {threads, fibers} — the
// same body runs against both and must pass bit-identically.
#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "sim/callback.hpp"
#include "sim/future.hpp"
#include "sim/mailbox.hpp"
#include "sim/time.hpp"

namespace gdrshmem::sim {
namespace {

class EngineBackendTest : public ::testing::TestWithParam<BackendKind> {};

INSTANTIATE_TEST_SUITE_P(
    Backends, EngineBackendTest,
    ::testing::Values(BackendKind::kThreads, BackendKind::kFibers),
    [](const ::testing::TestParamInfo<BackendKind>& param_info) {
      return std::string(to_string(param_info.param));
    });

TEST(Time, ArithmeticAndConversions) {
  Duration d = Duration::us(2.5);
  EXPECT_EQ(d.count_ns(), 2500);
  EXPECT_DOUBLE_EQ(d.to_us(), 2.5);
  Time t = Time::zero() + d;
  EXPECT_EQ(t.count_ns(), 2500);
  EXPECT_EQ((t + Duration::ns(1)) - t, Duration::ns(1));
  EXPECT_LT(Duration::us(1.0), Duration::us(1.5));
  EXPECT_EQ(Duration::us(1.0) * 3.0, Duration::us(3.0));
}

TEST(Time, RoundsToNearestNanosecond) {
  EXPECT_EQ(Duration::us(0.0001).count_ns(), 0);
  EXPECT_EQ(Duration::us(0.0006).count_ns(), 1);
  EXPECT_EQ(Duration::us(0.35).count_ns(), 350);
}

TEST(EventFn, InlineAndHeapCallablesInvoke) {
  int hits = 0;
  EventFn small([&hits] { ++hits; });
  small();
  EXPECT_EQ(hits, 1);

  // A capture larger than the inline buffer must fall back to the heap and
  // still invoke/move/destroy correctly.
  struct Big {
    long long pad[16];
  } big{};
  big.pad[15] = 7;
  EventFn large([&hits, big] { hits += static_cast<int>(big.pad[15]); });
  EventFn moved(std::move(large));
  EXPECT_FALSE(static_cast<bool>(large));  // NOLINT(bugprone-use-after-move)
  moved();
  EXPECT_EQ(hits, 8);
}

TEST(Engine, EventsRunInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule_at(Time::ns(30), [&] { order.push_back(3); });
  eng.schedule_at(Time::ns(10), [&] { order.push_back(1); });
  eng.schedule_at(Time::ns(20), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), Time::ns(30));
}

TEST(Engine, EqualTimeEventsRunInScheduleOrder) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    eng.schedule_at(Time::ns(5), [&order, i] { order.push_back(i); });
  }
  eng.run();
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Engine, EventSlotsAreRecycled) {
  // Interleaved schedule/execute must keep order and reuse pool slots; the
  // ordering contract is observable, the recycling is what keeps it cheap.
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 4; ++i) {
    eng.schedule_at(Time::ns(10 * (i + 1)), [&eng, &order, i] {
      order.push_back(i);
      eng.schedule_at(eng.now() + Duration::ns(5), [&order, i] {
        order.push_back(100 + i);
      });
    });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 100, 1, 101, 2, 102, 3, 103}));
  EXPECT_EQ(eng.events_executed(), 8u);
}

TEST(Engine, ProcessEventTotalSumsEveryRunOfEveryEngine) {
  // The total a bench file records: each run() adds the events it executed.
  const std::uint64_t before = Engine::process_events_executed();
  Engine a;
  Engine b;
  for (int i = 0; i < 3; ++i) a.schedule_at(Time::ns(i), [] {});
  a.run();
  b.schedule_at(Time::ns(1), [] {});
  b.run();
  a.schedule_at(a.now() + Duration::ns(1), [] {});
  a.run();
  EXPECT_EQ(Engine::process_events_executed() - before, 5u);
}

TEST(Engine, SchedulingInThePastThrows) {
  Engine eng;
  eng.schedule_at(Time::ns(10), [&] {
    EXPECT_THROW(eng.schedule_at(Time::ns(5), [] {}), std::invalid_argument);
  });
  eng.run();
}

TEST(Engine, BackendEnvSelection) {
  const char* saved = std::getenv("GDRSHMEM_SIM_BACKEND");
  std::string saved_val = saved ? saved : "";
  ::setenv("GDRSHMEM_SIM_BACKEND", "threads", 1);
  EXPECT_EQ(backend_from_env(), BackendKind::kThreads);
  ::setenv("GDRSHMEM_SIM_BACKEND", "fibers", 1);
  EXPECT_EQ(backend_from_env(), BackendKind::kFibers);
  ::setenv("GDRSHMEM_SIM_BACKEND", "bogus", 1);
  EXPECT_THROW(backend_from_env(), std::invalid_argument);
  ::unsetenv("GDRSHMEM_SIM_BACKEND");
  EXPECT_EQ(backend_from_env(), BackendKind::kFibers);  // fibers is the default
  if (saved) ::setenv("GDRSHMEM_SIM_BACKEND", saved_val.c_str(), 1);
}

TEST_P(EngineBackendTest, ProcessDelayAdvancesVirtualTime) {
  Engine eng(GetParam());
  Time observed;
  eng.spawn("worker", [&](Process& p) {
    p.delay(Duration::us(7));
    observed = p.engine().now();
    p.delay(Duration::us(3));
  });
  eng.run();
  EXPECT_EQ(observed, Time::zero() + Duration::us(7));
  EXPECT_EQ(eng.now(), Time::zero() + Duration::us(10));
}

TEST_P(EngineBackendTest, NegativeDelayThrows) {
  Engine eng(GetParam());
  bool threw = false;
  eng.spawn("worker", [&](Process& p) {
    try {
      p.delay(Duration::ns(-1));
    } catch (const std::invalid_argument&) {
      threw = true;
    }
  });
  eng.run();
  EXPECT_TRUE(threw);
}

TEST_P(EngineBackendTest, TwoProcessesInterleaveDeterministically) {
  Engine eng(GetParam());
  std::vector<std::pair<char, std::int64_t>> trace;
  eng.spawn("a", [&](Process& p) {
    for (int i = 0; i < 3; ++i) {
      trace.emplace_back('a', eng.now().count_ns());
      p.delay(Duration::ns(10));
    }
  });
  eng.spawn("b", [&](Process& p) {
    for (int i = 0; i < 3; ++i) {
      trace.emplace_back('b', eng.now().count_ns());
      p.delay(Duration::ns(15));
    }
  });
  eng.run();
  std::vector<std::pair<char, std::int64_t>> expected{
      {'a', 0}, {'b', 0}, {'a', 10}, {'b', 15}, {'a', 20}, {'b', 30}};
  EXPECT_EQ(trace, expected);
}

TEST_P(EngineBackendTest, NotificationWakesAllWaiters) {
  Engine eng(GetParam());
  Notification n;
  int woken = 0;
  for (int i = 0; i < 3; ++i) {
    eng.spawn("waiter" + std::to_string(i), [&](Process& p) {
      p.await(n);
      ++woken;
    });
  }
  eng.spawn("notifier", [&](Process& p) {
    p.delay(Duration::us(5));
    n.notify();
  });
  eng.run();
  EXPECT_EQ(woken, 3);
  EXPECT_EQ(eng.now(), Time::zero() + Duration::us(5));
}

TEST_P(EngineBackendTest, AwaitUntilRechecksPredicate) {
  Engine eng(GetParam());
  Notification n;
  int value = 0;
  Time done;
  eng.spawn("waiter", [&](Process& p) {
    p.await_until(n, [&] { return value >= 2; });
    done = eng.now();
  });
  eng.spawn("setter", [&](Process& p) {
    p.delay(Duration::us(1));
    value = 1;
    n.notify();  // predicate still false; waiter must keep waiting
    p.delay(Duration::us(1));
    value = 2;
    n.notify();
  });
  eng.run();
  EXPECT_EQ(done, Time::zero() + Duration::us(2));
}

TEST_P(EngineBackendTest, DeadlockIsReported) {
  Engine eng(GetParam());
  Notification never;
  eng.spawn("stuck", [&](Process& p) { p.await(never); });
  EXPECT_THROW(eng.run(), DeadlockError);
}

TEST_P(EngineBackendTest, DaemonDoesNotKeepRunAlive) {
  Engine eng(GetParam());
  Notification never;
  bool worker_done = false;
  eng.spawn("daemon", [&](Process& p) { p.await(never); }, /*daemon=*/true);
  eng.spawn("worker", [&](Process& p) {
    p.delay(Duration::us(1));
    worker_done = true;
  });
  eng.run();  // must terminate despite the blocked daemon
  EXPECT_TRUE(worker_done);
}

TEST_P(EngineBackendTest, DaemonKillUnwindsProcessStack) {
  // When a blocked daemon is killed at shutdown, ProcessKilled must unwind
  // its (possibly deep) stack so destructors of locals run — under the fiber
  // backend that exercises exception propagation through a fiber stack.
  struct Tracker {
    std::vector<std::string>& log;
    std::string tag;
    ~Tracker() { log.push_back(tag); }
  };
  std::vector<std::string> destroyed;
  bool saw_kill = false;
  {
    Engine eng(GetParam());
    Notification never;
    eng.spawn(
        "daemon",
        [&](Process& p) {
          Tracker outer{destroyed, "outer"};
          // One more frame so the unwind crosses a call boundary.
          [&] {
            Tracker inner{destroyed, "inner"};
            try {
              p.await(never);
            } catch (const ProcessKilled&) {
              saw_kill = true;
              throw;  // bodies must let ProcessKilled propagate
            }
          }();
        },
        /*daemon=*/true);
    eng.spawn("worker", [&](Process& p) { p.delay(Duration::us(1)); });
    eng.run();
  }
  EXPECT_TRUE(saw_kill);
  EXPECT_EQ(destroyed, (std::vector<std::string>{"inner", "outer"}));
}

TEST_P(EngineBackendTest, NeverStartedProcessIsKilledCleanly) {
  // A daemon that never gets its first timeslice (killed while kCreated)
  // must not run its body at all.
  Engine eng(GetParam());
  bool body_ran = false;
  {
    Notification never;
    eng.spawn("worker", [&](Process& p) { p.delay(Duration::us(1)); });
    eng.run();
    // Spawn after run(): the start event stays queued forever; the engine
    // destructor must reap the process without running it.
    eng.spawn("late-daemon", [&](Process&) { body_ran = true; },
              /*daemon=*/true);
    eng.shutdown_daemons();
  }
  EXPECT_FALSE(body_ran);
}

TEST_P(EngineBackendTest, ProcessErrorPropagatesFromRun) {
  Engine eng(GetParam());
  eng.spawn("boom", [&](Process& p) {
    p.delay(Duration::us(1));
    throw std::runtime_error("boom");
  });
  EXPECT_THROW(eng.run(), std::runtime_error);
}

TEST_P(EngineBackendTest, CurrentProcessIsTracked) {
  Engine eng(GetParam());
  EXPECT_EQ(Process::current(), nullptr);
  Process* seen = nullptr;
  Process* spawned = nullptr;
  eng.schedule_at(Time::ns(5), [&] {
    // Event callbacks run in engine context, not process context.
    EXPECT_EQ(Process::current(), nullptr);
  });
  spawned = &eng.spawn("worker", [&](Process& p) {
    seen = Process::current();
    p.delay(Duration::ns(10));
    EXPECT_EQ(Process::current(), &p);  // still tracked after a handoff
  });
  eng.run();
  EXPECT_EQ(seen, spawned);
  EXPECT_EQ(Process::current(), nullptr);
}

TEST_P(EngineBackendTest, SpawnFromRunningProcess) {
  Engine eng(GetParam());
  std::vector<std::string> started;
  eng.spawn("parent", [&](Process& p) {
    p.delay(Duration::us(1));
    eng.spawn("child", [&](Process& c) {
      started.push_back(c.name());
      c.delay(Duration::us(1));
    });
    p.delay(Duration::us(5));
    started.push_back("parent-done");
  });
  eng.run();
  EXPECT_EQ(started, (std::vector<std::string>{"child", "parent-done"}));
}

TEST_P(EngineBackendTest, ManyProcessesScale) {
  Engine eng(GetParam());
  int finished = 0;
  for (int i = 0; i < 128; ++i) {
    // Appended rather than "p" + to_string(i): GCC 12 at -O3 reports a false
    // -Wrestrict inside std::string's insert for that form.
    std::string name = "p";
    name += std::to_string(i);
    eng.spawn(name, [&finished, i](Process& p) {
      p.delay(Duration::ns(i));
      ++finished;
    });
  }
  eng.run();
  EXPECT_EQ(finished, 128);
}

TEST_P(EngineBackendTest, MailboxPostThenReceive) {
  Engine eng(GetParam());
  Mailbox<int> box;
  std::vector<int> got;
  eng.spawn("consumer", [&](Process& p) {
    for (int i = 0; i < 3; ++i) got.push_back(box.receive(p));
  });
  eng.spawn("producer", [&](Process& p) {
    for (int i = 1; i <= 3; ++i) {
      p.delay(Duration::us(1));
      box.post(i * 10);
    }
  });
  eng.run();
  EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
}

TEST_P(EngineBackendTest, ReceiveUntilNeverIsPlainReceive) {
  // An infinite deadline schedules no wake event: the same events as
  // receive(), and nothing parked at the end of time once the run drains.
  auto run = [&](bool never) {
    Engine eng(GetParam());
    Mailbox<int> box;
    std::vector<int> got;
    eng.spawn("consumer", [&](Process& p) {
      for (int i = 0; i < 3; ++i) {
        if (never) {
          std::optional<int> v = box.receive_until(p, Time::never());
          ASSERT_TRUE(v.has_value());
          got.push_back(*v);
        } else {
          got.push_back(box.receive(p));
        }
      }
    });
    eng.spawn("producer", [&](Process& p) {
      for (int i = 1; i <= 3; ++i) {
        p.delay(Duration::us(1));
        box.post(i * 10);
      }
    });
    eng.run();
    EXPECT_EQ(got, (std::vector<int>{10, 20, 30}));
    EXPECT_EQ(eng.now(), Time::zero() + Duration::us(3));
    return eng.events_executed();
  };
  EXPECT_EQ(run(true), run(false));
}

TEST_P(EngineBackendTest, ReceiveUntilFiniteDeadlineExpires) {
  Engine eng(GetParam());
  Mailbox<int> box;
  std::optional<int> late, past;
  Time expired, returned;
  eng.spawn("consumer", [&](Process& p) {
    late = box.receive_until(p, Time::zero() + Duration::us(4));
    expired = eng.now();
    // A deadline already behind us returns at once.
    past = box.receive_until(p, Time::zero() + Duration::us(1));
    returned = eng.now();
  });
  eng.spawn("producer", [&](Process& p) {
    p.delay(Duration::us(10));
    box.post(7);
  });
  eng.run();
  EXPECT_FALSE(late.has_value());
  EXPECT_FALSE(past.has_value());
  EXPECT_EQ(expired, Time::zero() + Duration::us(4));
  EXPECT_EQ(returned, expired);
  EXPECT_EQ(box.size(), 1u);  // posted after the consumer gave up
}

TEST(Mailbox, TryReceiveNonBlocking) {
  Mailbox<int> box;
  EXPECT_FALSE(box.try_receive().has_value());
  box.post(42);
  EXPECT_EQ(box.size(), 1u);
  auto v = box.try_receive();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(box.empty());
}

TEST_P(EngineBackendTest, CompletionFiresAndWakes) {
  Engine eng(GetParam());
  bool waited = false;
  eng.spawn("waiter", [&](Process& p) {
    auto c = fire_at(eng, eng.now() + Duration::us(4));
    EXPECT_FALSE(c->done());
    c->wait(p);
    EXPECT_TRUE(c->done());
    waited = true;
    EXPECT_EQ(eng.now(), Time::zero() + Duration::us(4));
  });
  eng.run();
  EXPECT_TRUE(waited);
}

TEST_P(EngineBackendTest, DeterministicAcrossRuns) {
  auto run_once = [&] {
    Engine eng(GetParam());
    std::vector<std::int64_t> stamps;
    Notification n;
    eng.spawn("a", [&](Process& p) {
      p.delay(Duration::ns(3));
      n.notify();
      p.delay(Duration::ns(9));
      stamps.push_back(eng.now().count_ns());
    });
    eng.spawn("b", [&](Process& p) {
      p.await(n);
      stamps.push_back(eng.now().count_ns());
      p.delay(Duration::ns(2));
      stamps.push_back(eng.now().count_ns());
    });
    eng.run();
    return stamps;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace gdrshmem::sim
