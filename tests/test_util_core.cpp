// Tests for util (rng, tables, arena).
#include <gtest/gtest.h>

#include <cmath>

#include "util/arena.hpp"
#include "util/heap_count.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace cnfet {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  util::Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, UniformInRange) {
  util::Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, BelowIsUnbiasedEnough) {
  util::Xoshiro256 rng(11);
  int counts[5] = {0, 0, 0, 0, 0};
  const int n = 50000;
  for (int i = 0; i < n; ++i) ++counts[rng.below(5)];
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 5, n / 50);  // within 10% of uniform
  }
}

TEST(Rng, NormalMomentsRoughlyCorrect) {
  util::Xoshiro256 rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(Table, FormatsAlignedColumns) {
  util::TextTable t({"a", "bbbb"});
  t.add_row({"xx", "y"});
  const auto s = t.to_string();
  EXPECT_NE(s.find("a   bbbb"), std::string::npos);
  EXPECT_NE(s.find("xx  y"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), util::ContractViolation);
}

TEST(Table, NumericFormatters) {
  EXPECT_EQ(util::fmt_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(util::fmt_percent(0.16667, 2), "16.67%");
  EXPECT_EQ(util::fmt_ratio(4.2, 1), "4.2x");
  EXPECT_EQ(util::fmt_si(3.2e-12, "s"), "3.20ps");
  EXPECT_EQ(util::fmt_si(1.55e-15, "J"), "1.55fJ");
  EXPECT_EQ(util::fmt_si(0.0, "F"), "0F");
}

TEST(Arena, BumpAllocatesAlignedAndGrows) {
  util::Arena arena(128);  // small blocks force growth
  void* p1 = arena.allocate(8, 8);
  void* p2 = arena.allocate(16, 16);
  ASSERT_NE(p1, nullptr);
  ASSERT_NE(p2, nullptr);
  EXPECT_NE(p1, p2);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p1) % 8, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p2) % 16, 0u);
  // A request larger than the block size gets a dedicated block.
  void* big = arena.allocate(1024, 8);
  ASSERT_NE(big, nullptr);
  EXPECT_GE(arena.bytes_reserved(), 1024u + 128u);
  EXPECT_GE(arena.block_count(), 2u);
}

TEST(Arena, ResetKeepsBlocksAndReusesThem) {
  util::Arena arena(256);
  void* first = arena.allocate(64, 8);
  const std::size_t reserved = arena.bytes_reserved();
  const std::size_t blocks = arena.block_count();
  arena.reset();
  // Same request after reset lands on the same storage: the blocks were
  // kept, not freed.
  void* again = arena.allocate(64, 8);
  EXPECT_EQ(first, again);
  EXPECT_EQ(arena.bytes_reserved(), reserved);
  EXPECT_EQ(arena.block_count(), blocks);
  arena.release();
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  EXPECT_EQ(arena.block_count(), 0u);
}

TEST(Arena, SteadyStateLoopIsHeapFree) {
  if (!util::heap_counting_enabled()) {
    GTEST_SKIP() << "built without CNFET_COUNT_ALLOCS (sanitizer build)";
  }
  util::Arena arena;
  // Warm-up iteration grows the blocks to steady-state size.
  auto iteration = [&] {
    arena.reset();
    util::ArenaVector<int> v{util::ArenaAllocator<int>(arena)};
    for (int i = 0; i < 500; ++i) v.push_back(i);
    return v.back();
  };
  (void)iteration();
  const std::uint64_t before = util::heap_allocs_this_thread();
  for (int round = 0; round < 10; ++round) {
    EXPECT_EQ(iteration(), 499);
  }
  EXPECT_EQ(util::heap_allocs_this_thread() - before, 0u);
}

TEST(ArenaVector, AllocatorEqualityIsByArena) {
  util::Arena a;
  util::Arena b;
  const util::ArenaAllocator<int> aa(a);
  const util::ArenaAllocator<double> ad(a);
  const util::ArenaAllocator<int> ba(b);
  EXPECT_TRUE(aa == ad);
  EXPECT_TRUE(aa != ba);
}

}  // namespace
}  // namespace cnfet
