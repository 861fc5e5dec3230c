// The coroutine frame pool (runtime/task.hpp): a freed frame comes back
// for its own 16-byte size class, frames above the largest class bypass
// the pool, and nothing stays cached once the outermost Machine on a host
// thread is gone. The sanitizer CI job runs this file under ASan, whose
// LeakSanitizer fails the run if a joined thread left frames behind.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "olden/bench/benchmark.hpp"
#include "olden/olden.hpp"

namespace olden {
namespace {

using detail::FramePool;

TEST(FramePool, FreedFrameIsReusedForItsOwnSizeClass) {
  ASSERT_EQ(FramePool::cached(), 0u);
  Machine m({});
  void* a = FramePool::allocate(100);
  FramePool::deallocate(a, 100);
  EXPECT_EQ(FramePool::cached(), 1u);
  // 97..112 bytes share a class; 113 starts the next one.
  void* b = FramePool::allocate(113);
  EXPECT_NE(b, a);
  EXPECT_EQ(FramePool::cached(), 1u);
  void* c = FramePool::allocate(97);
  EXPECT_EQ(c, a);
  EXPECT_EQ(FramePool::cached(), 0u);
  FramePool::deallocate(b, 113);
  FramePool::deallocate(c, 97);
  EXPECT_EQ(FramePool::cached(), 2u);
}

TEST(FramePool, FramesAboveTheLargestClassBypassThePool) {
  Machine m({});
  void* big = FramePool::allocate(FramePool::kMaxPooled + 1);
  FramePool::deallocate(big, FramePool::kMaxPooled + 1);
  EXPECT_EQ(FramePool::cached(), 0u);
  void* top = FramePool::allocate(FramePool::kMaxPooled);
  FramePool::deallocate(top, FramePool::kMaxPooled);
  EXPECT_EQ(FramePool::cached(), 1u);
}

TEST(FramePool, EmptyOnceTheOutermostMachineIsDestroyed) {
  {
    Machine outer({});
    {
      Machine inner({});
      FramePool::deallocate(FramePool::allocate(64), 64);
      EXPECT_EQ(FramePool::cached(), 1u);
    }
    EXPECT_EQ(FramePool::cached(), 1u);  // the outer Machine is still live
  }
  EXPECT_EQ(FramePool::cached(), 0u);
  // With no Machine live, a freed frame goes straight to the allocator.
  FramePool::deallocate(FramePool::allocate(64), 64);
  EXPECT_EQ(FramePool::cached(), 0u);
}

Task<std::int64_t> leaf(std::int64_t v) { co_return v; }

Task<std::int64_t> hundred_calls() {
  std::int64_t sum = 0;
  for (std::int64_t i = 0; i < 100; ++i) sum += co_await leaf(i);
  co_return sum;
}

TEST(FramePool, ProcedureCallsRecycleFrames) {
  Machine m({});
  EXPECT_EQ(run_program(m, hundred_calls()), 4950);
  // Each call reused the frame the previous one freed: the pool holds one
  // leaf frame and the root's, not a hundred.
  EXPECT_EQ(FramePool::cached(), 2u);
}

TEST(FramePool, JoinedThreadLeavesNothingBehind) {
  std::size_t cached_after = 1;
  bool correct = false;
  std::thread worker([&] {
    const bench::Benchmark& b = bench::treeadd_benchmark();
    bench::BenchConfig cfg;
    cfg.nprocs = 8;
    cfg.scheme = Coherence::kEagerGlobal;
    cfg.tiny = true;
    correct = b.run(cfg).checksum == b.reference_checksum(cfg);
    cached_after = FramePool::cached();
  });
  worker.join();
  EXPECT_TRUE(correct);
  EXPECT_EQ(cached_after, 0u);
}

}  // namespace
}  // namespace olden
