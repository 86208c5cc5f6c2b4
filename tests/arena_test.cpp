// Tests for the per-thread bump arena (core/arena.h): frame rewind
// semantics, block spill and reuse, oversized requests, per-thread
// independence and zeroed spans.
#include <gtest/gtest.h>

#include <thread>

#include "core/arena.h"
#include "dsp/types.h"

namespace itb {
namespace {

using dsp::Complex;

TEST(Arena, FrameRewindReusesMemory) {
  core::Arena arena(1024);
  void* first = nullptr;
  {
    const core::Arena::Mark before = arena.mark();
    first = arena.allocate(128, 16);
    EXPECT_GE(arena.used_bytes(), 128u);
    arena.rewind(before);
  }
  // Same request after rewind lands on the same storage.
  void* second = arena.allocate(128, 16);
  EXPECT_EQ(first, second);
}

TEST(Arena, SpillsToNewBlocksAndRewindsAcrossThem) {
  core::Arena arena(256);
  const core::Arena::Mark start = arena.mark();
  // Force several block spills.
  for (int i = 0; i < 8; ++i) arena.allocate(200, 16);
  const std::size_t cap = arena.capacity_bytes();
  EXPECT_GT(cap, 256u);
  arena.rewind(start);
  EXPECT_EQ(arena.used_bytes(), 0u);
  // Rewound blocks are reused: capacity does not grow on the second pass.
  for (int i = 0; i < 8; ++i) arena.allocate(200, 16);
  EXPECT_EQ(arena.capacity_bytes(), cap);
}

TEST(Arena, OversizedAllocationGetsDedicatedBlock) {
  core::Arena arena(64);
  auto big = arena.alloc_span<double>(100);  // 800 bytes > block size
  ASSERT_EQ(big.size(), 100u);
  big[99] = 1.0;
  EXPECT_EQ(big[99], 1.0);
}

TEST(Arena, ThreadArenasAreIndependent) {
  core::thread_arena().allocate(64, 16);
  std::size_t other_used = 1;
  std::thread t([&] { other_used = core::thread_arena().used_bytes(); });
  t.join();
  EXPECT_EQ(other_used, 0u);
}

TEST(Arena, ZeroedSpanIsZero) {
  core::ArenaFrame frame;
  auto s = frame.arena().alloc_span_zeroed<Complex>(33);
  for (const Complex& v : s) {
    EXPECT_EQ(v.real(), 0.0);
    EXPECT_EQ(v.imag(), 0.0);
  }
}

}  // namespace
}  // namespace itb
