// Tests for the single-core multithread baseline: serialization through the
// core, shared process memory, mutexes, barriers, context-switch overhead.
#include <gtest/gtest.h>

#include <cstring>
#include <sstream>
#include <string>

#include "threadrt/baseline.h"

namespace hsm::threadrt {
namespace {

using sim::SimTask;
using sim::Tick;

SimTask computeThread(ThreadContext& ctx, std::uint64_t cycles) {
  co_await ctx.compute(cycles);
}

TEST(SingleCoreRuntime, WorkSerializesAcrossThreads) {
  // N threads each computing C cycles on one core take ~N*C, not C.
  sim::SccConfig config;
  SingleCoreRuntime rt(config);
  rt.launch(8, [&](ThreadContext& ctx) { return computeThread(ctx, 10000); });
  const Tick t = rt.run();
  const Tick serial = config.coreClock().cycles(8 * 10000);
  EXPECT_GE(t, serial);
  EXPECT_LT(t, serial + serial / 5);  // only scheduling overhead on top
}

TEST(SingleCoreRuntime, SingleThreadNoSwitchOverhead) {
  sim::SccConfig config;
  SingleCoreRuntime rt(config);
  rt.launch(1, [&](ThreadContext& ctx) { return computeThread(ctx, 10000); });
  EXPECT_EQ(rt.run(), config.coreClock().cycles(10000));
}

TEST(SingleCoreRuntime, ContextSwitchOverheadGrowsWithRuntime) {
  sim::SccConfig config;
  config.scheduler_quantum_core_cycles = 1000;  // force many quanta
  config.context_switch_core_cycles = 100;
  SingleCoreRuntime rt(config);
  rt.launch(4, [&](ThreadContext& ctx) { return computeThread(ctx, 10000); });
  const Tick with_overhead = rt.run();
  const Tick pure = config.coreClock().cycles(4 * 10000);
  EXPECT_GT(with_overhead, pure + config.coreClock().cycles(30 * 100));
}

SimTask writerThread(ThreadContext& ctx, std::uint64_t addr) {
  const int value = 7 + ctx.ue();
  co_await ctx.memWrite(addr + static_cast<std::uint64_t>(ctx.ue()) * 4, &value, 4);
}

TEST(SingleCoreRuntime, ThreadsShareProcessMemory) {
  SingleCoreRuntime rt;
  rt.machine().reservePrivate(0, 1024);
  rt.launch(4, [&](ThreadContext& ctx) { return writerThread(ctx, 0); });
  rt.run();
  for (int tid = 0; tid < 4; ++tid) {
    int v = 0;
    std::memcpy(&v, rt.machine().privData(0, static_cast<std::uint64_t>(tid) * 4), 4);
    EXPECT_EQ(v, 7 + tid);
  }
}

SimTask mutexThread(ThreadContext& ctx, std::uint64_t addr) {
  for (int i = 0; i < 8; ++i) {
    co_await ctx.lockAcquire(0);
    long long v = 0;
    co_await ctx.memRead(addr, &v, sizeof(v));
    v += 1;
    co_await ctx.memWrite(addr, &v, sizeof(v));
    co_await ctx.lockRelease(0);
  }
}

TEST(SingleCoreRuntime, MutexProtectedCounterExact) {
  SingleCoreRuntime rt;
  rt.machine().reservePrivate(0, 64);
  std::memset(rt.machine().privData(0, 0), 0, 8);
  rt.launch(6, [&](ThreadContext& ctx) { return mutexThread(ctx, 0); });
  rt.run();
  long long v = 0;
  std::memcpy(&v, rt.machine().privData(0, 0), 8);
  EXPECT_EQ(v, 48);
}

SimTask barrierThread(ThreadContext& ctx, std::vector<sim::Tick>* after) {
  co_await ctx.compute(static_cast<std::uint64_t>(ctx.ue() + 1) * 500);
  co_await ctx.barrier();
  (*after)[static_cast<std::size_t>(ctx.ue())] = 1;
}

TEST(SingleCoreRuntime, BarrierAcrossLogicalThreads) {
  SingleCoreRuntime rt;
  std::vector<sim::Tick> after(4, 0);
  rt.launch(4, [&](ThreadContext& ctx) { return barrierThread(ctx, &after); });
  rt.run();
  for (const sim::Tick t : after) EXPECT_EQ(t, 1u);
}

SimTask syncedThread(ThreadContext& ctx) {
  co_await ctx.compute(static_cast<std::uint64_t>(ctx.ue() + 1) * 500);
  co_await ctx.lockAcquire(0);
  co_await ctx.compute(200);
  co_await ctx.lockRelease(0);
  co_await ctx.barrier();
}

TEST(SingleCoreRuntime, TracedRunFilesEachThreadOnItsOwnTrack) {
  // The trace's per-task vectors exist only if run() goes through
  // SccMachine::run(); otherwise every event lands on the host track.
  sim::SccConfig config;
  config.trace_enabled = true;
  SingleCoreRuntime traced(config);
  traced.launch(4, [](ThreadContext& ctx) { return syncedThread(ctx); });
  const Tick makespan = traced.run();
  const sim::obs::TraceRecorder& rec = traced.machine().traceRecorder();
  ASSERT_EQ(rec.taskSlots(), 4u);
  EXPECT_TRUE(rec.hostEvents().empty());
  for (std::size_t tid = 0; tid < 4; ++tid) {
    EXPECT_FALSE(rec.taskEvents(tid).empty()) << "thread " << tid;
  }
  std::ostringstream json;
  traced.machine().writeTrace(json);
  EXPECT_NE(json.str().find("\"ue 0\""), std::string::npos);
  EXPECT_NE(json.str().find("\"ue 3\""), std::string::npos);
  EXPECT_EQ(json.str().find("\"host\""), std::string::npos);

  SingleCoreRuntime untraced;
  untraced.launch(4, [](ThreadContext& ctx) { return syncedThread(ctx); });
  EXPECT_EQ(makespan, untraced.run());
}

// A free coroutine taking `repeats` by value: a capturing lambda coroutine
// would keep referencing the lambda object after the temporary std::function
// wrapping it is destroyed (stack-use-after-scope under ASan).
SimTask repeatedRead(ThreadContext& ctx, int repeats) {
  std::vector<std::uint8_t> buf(4096);
  for (int r = 0; r < repeats; ++r) {
    co_await ctx.memRead(0, buf.data(), buf.size());
  }
}

TEST(SingleCoreRuntime, CachedMemoryFasterThanColdMemory) {
  // Second pass over the same buffer should be far cheaper (cache hits).
  sim::SccConfig config;
  auto pass = [&](int repeats) {
    SingleCoreRuntime rt(config);
    rt.machine().reservePrivate(0, 1 << 16);
    rt.launch(1, [&](ThreadContext& ctx) { return repeatedRead(ctx, repeats); });
    return rt.run();
  };
  const Tick once = pass(1);
  const Tick twice = pass(2);
  // The second pass adds much less than the first cost.
  EXPECT_LT(twice - once, once / 2);
}

}  // namespace
}  // namespace hsm::threadrt
