// Tests for util (rng, tables, arena, the command-line reader).
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/arena.hpp"
#include "util/args.hpp"
#include "util/heap_count.hpp"
#include "util/result.hpp"
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

/// util::Args over `tokens` (argv[0] is the program name).
struct CommandLine {
  explicit CommandLine(std::vector<std::string> tokens)
      : storage(std::move(tokens)) {
    argv.push_back(const_cast<char*>("prog"));
    for (auto& token : storage) argv.push_back(token.data());
  }
  util::Args args() {
    return util::Args(static_cast<int>(argv.size()), argv.data(), 1);
  }
  std::vector<std::string> storage;
  std::vector<char*> argv;
};

util::Result<int> parse_parity(const std::string& text) {
  if (text == "even") return 0;
  if (text == "odd") return 1;
  return util::Result<int>::failure("parity", "unknown parity: " + text);
}

TEST(Args, TypedReadsInAnyOrderAndAbsentFlagsKeepDefaults) {
  CommandLine line({"--seed", "18446744073709551615", "dir", "--width", "7",
                    "--drive", "2.5", "--verbose", "--idle", "-1",
                    "--kind", "odd", "--each", "odd", "--each", "even"});
  auto args = line.args();
  int width = 1, threads = 3, idle = 0, kind = -1;
  double drive = 1.0;
  std::uint64_t seed = 1;
  std::string top = "TOP";
  std::vector<int> kinds;
  args.read("--width", &width, 1);
  args.read("--threads", &threads, 0);
  args.read("--idle", &idle, INT_MIN);
  args.read("--drive", &drive);
  args.read("--seed", &seed);
  args.read("--top", &top);
  args.read("--kind", &kind, parse_parity);
  args.read_all("--each", &kinds, parse_parity);
  EXPECT_TRUE(args.has_switch("--verbose"));
  EXPECT_FALSE(args.has_switch("--quiet"));
  EXPECT_EQ(args.error(), "");
  EXPECT_EQ(args.positional(), "dir");
  EXPECT_EQ(width, 7);
  EXPECT_EQ(threads, 3);
  EXPECT_EQ(idle, -1);
  EXPECT_EQ(drive, 2.5);
  EXPECT_EQ(seed, UINT64_MAX);
  EXPECT_EQ(top, "TOP");
  EXPECT_EQ(kind, 1);
  EXPECT_EQ(kinds, (std::vector<int>{1, 0}));
}

TEST(Args, EachMalformedValueIsAUsageErrorInItsMessageForm) {
  const auto first_error = [](std::vector<std::string> tokens,
                              const auto& read) {
    CommandLine line(std::move(tokens));
    auto args = line.args();
    read(args);
    return args.error();
  };
  const auto positive = [](util::Args& a) {
    int v = 1;
    a.read("--n", &v, 1);
  };
  const auto natural = [](util::Args& a) {
    int v = 0;
    a.read("--n", &v, 0);
  };
  const auto port = [](util::Args& a) {
    int v = 0;
    a.read("--n", &v, 0, 65535);
  };
  const auto real = [](util::Args& a) {
    double v = 0;
    a.read("--n", &v);
  };
  const auto seed = [](util::Args& a) {
    std::uint64_t v = 0;
    a.read("--n", &v);
  };
  EXPECT_EQ(first_error({"--n", "0"}, positive),
            "--n is not a positive integer: 0");
  EXPECT_EQ(first_error({"--n", "+2"}, natural), "--n is not an integer: +2");
  EXPECT_EQ(first_error({"--n", "-0"}, natural), "--n is not an integer: -0");
  EXPECT_EQ(first_error({"--n", " 1"}, natural), "--n is not an integer:  1");
  EXPECT_EQ(first_error({"--n", "99999999999"}, natural),
            "--n is not an integer: 99999999999");
  EXPECT_EQ(first_error({"--n", "65536"}, port),
            "--n is not an integer in [0, 65535]: 65536");
  EXPECT_EQ(first_error({"--n", "nan"}, real), "--n is not a number: nan");
  EXPECT_EQ(first_error({"--n", "1e999"}, real), "--n is not a number: 1e999");
  EXPECT_EQ(first_error({"--n", "-1"}, seed), "--n is not a uint64: -1");
  EXPECT_EQ(first_error({"--n", "banana"},
                        [](util::Args& a) {
                          int v = 0;
                          a.read("--n", &v, parse_parity);
                        }),
            "unknown parity: banana");
  // A repeated single-valued flag is read once; the repeat is unknown.
  EXPECT_EQ(first_error({"--n", "1", "--n", "2"}, natural),
            "unknown flag --n");
  // The first malformed value wins over later ones and over unknown flags.
  EXPECT_EQ(first_error({"--bogus", "--n", "0", "--m", "x"},
                        [](util::Args& a) {
                          int n = 1, m = 1;
                          a.read("--n", &n, 1);
                          a.read("--m", &m, 1);
                        }),
            "--n is not a positive integer: 0");
  EXPECT_EQ(first_error({"--known", "1", "--bogus"},
                        [](util::Args& a) { (void)a.value_of("--known"); }),
            "unknown flag --bogus");
  EXPECT_EQ(first_error({"--out", "x"},
                        [](util::Args& a) {
                          EXPECT_EQ(a.required("--cell", "compile"), nullptr);
                        }),
            "compile requires --cell");
}

TEST(Args, DigitsOnlyParseWholeRefusesSignsSpacesAndOverflow) {
  std::uint64_t u = 5;
  EXPECT_TRUE(util::parse_whole("9007199254740993", &u));
  EXPECT_EQ(u, 9007199254740993ULL);
  for (const char* bad :
       {"", "-1", "+1", " 1", "1 ", "0x10", "18446744073709551616"}) {
    EXPECT_FALSE(util::parse_whole(bad, &u)) << bad;
    EXPECT_EQ(u, 9007199254740993ULL) << "left unchanged on failure";
  }
  int i = 0;
  EXPECT_TRUE(util::parse_whole("-12", &i));
  EXPECT_EQ(i, -12);
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
