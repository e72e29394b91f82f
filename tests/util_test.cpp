#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qsa/util/dense_map.hpp"
#include "qsa/util/flags.hpp"
#include "qsa/util/inplace_function.hpp"
#include "qsa/util/interner.hpp"
#include "qsa/util/parallel_for.hpp"
#include "qsa/util/rng.hpp"
#include "qsa/util/small_vec.hpp"

namespace qsa::util {
namespace {

// ---------------------------------------------------------------- Rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 2);
}

TEST(Rng, ReseedRestartsStream) {
  Rng a(7);
  const auto first = a();
  a.reseed(7);
  EXPECT_EQ(a(), first);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(42);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-5.0, 3.0);
    EXPECT_GE(u, -5.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng rng(99);
  double sum = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(1);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);  // all 5 values hit in 1000 draws
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(1);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, UniformIntNegativeRange) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) {
    const auto v = rng.uniform_int(-10, -5);
    EXPECT_GE(v, -10);
    EXPECT_LE(v, -5);
  }
}

TEST(Rng, IndexIsUnbiasedAcrossSmallRange) {
  Rng rng(2024);
  constexpr std::size_t kBuckets = 10;
  constexpr int kDraws = 100'000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kDraws; ++i) ++counts[rng.index(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(7);
  double sum = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(2.5);
  EXPECT_NEAR(sum / kN, 2.5, 0.1);
}

TEST(Rng, ExponentialIsPositive) {
  Rng rng(8);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.exponential(0.001), 0.0);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyPermutes) {
  Rng rng(12);
  std::vector<int> v(50);
  for (int i = 0; i < 50; ++i) v[i] = i;
  rng.shuffle(std::span<int>(v));
  int moved = 0;
  for (int i = 0; i < 50; ++i) moved += (v[static_cast<std::size_t>(i)] != i);
  EXPECT_GT(moved, 30);
}

TEST(Rng, PickReturnsMember) {
  Rng rng(13);
  const std::vector<int> v{10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    const int x = rng.pick(std::span<const int>(v));
    EXPECT_TRUE(x == 10 || x == 20 || x == 30);
  }
}

// ------------------------------------------------------------ seeding

TEST(DeriveSeed, StableAndDistinct) {
  const auto a = derive_seed(1, "peer", 5);
  EXPECT_EQ(a, derive_seed(1, "peer", 5));
  EXPECT_NE(a, derive_seed(1, "peer", 6));
  EXPECT_NE(a, derive_seed(2, "peer", 5));
  EXPECT_NE(a, derive_seed(1, "link", 5));
  EXPECT_NE(a, derive_seed(1, "peer", 5, 1));
}

TEST(DeriveSeed, StreamsAreIndependent) {
  Rng a(derive_seed(1, "x", 0));
  Rng b(derive_seed(1, "x", 1));
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a() == b());
  EXPECT_LT(equal, 2);
}

TEST(Mix64, AvalanchesSingleBit) {
  // Flipping one input bit should flip roughly half the output bits.
  const auto base = mix64(0x1234'5678'9abc'def0ull);
  const auto flipped = mix64(0x1234'5678'9abc'def1ull);
  EXPECT_GT(__builtin_popcountll(base ^ flipped), 16);
}

TEST(HashStr, DistinguishesStrings) {
  EXPECT_NE(hash_str("cpu"), hash_str("mem"));
  EXPECT_EQ(hash_str("cpu"), hash_str("cpu"));
  EXPECT_NE(hash_str(""), hash_str("a"));
}

// ----------------------------------------------------------- SmallVec

TEST(SmallVec, StartsEmpty) {
  SmallVec<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ((SmallVec<int, 4>::capacity()), 4u);
}

TEST(SmallVec, PushAndIndex) {
  SmallVec<int, 4> v;
  v.push_back(10);
  v.push_back(20);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0], 10);
  EXPECT_EQ(v[1], 20);
  EXPECT_EQ(v.front(), 10);
  EXPECT_EQ(v.back(), 20);
}

TEST(SmallVec, InitializerList) {
  SmallVec<int, 4> v{1, 2, 3};
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[2], 3);
}

TEST(SmallVec, FillConstructor) {
  SmallVec<double, 4> v(3, 1.5);
  EXPECT_EQ(v.size(), 3u);
  for (double x : v) EXPECT_EQ(x, 1.5);
}

TEST(SmallVec, PopAndClear) {
  SmallVec<int, 4> v{1, 2};
  v.pop_back();
  EXPECT_EQ(v.size(), 1u);
  v.clear();
  EXPECT_TRUE(v.empty());
}

TEST(SmallVec, ResizeGrowsWithFill) {
  SmallVec<int, 4> v{1};
  v.resize(3, 9);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], 9);
  EXPECT_EQ(v[2], 9);
  v.resize(1);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 1);
}

TEST(SmallVec, Equality) {
  SmallVec<int, 4> a{1, 2}, b{1, 2}, c{1, 3}, d{1};
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  EXPECT_FALSE(a == d);
}

TEST(SmallVec, IterationOrder) {
  SmallVec<int, 8> v{5, 6, 7};
  int expected = 5;
  for (int x : v) EXPECT_EQ(x, expected++);
}

// ----------------------------------------------------------- Interner

TEST(Interner, AssignsDenseIds) {
  Interner in;
  EXPECT_EQ(in.intern("format"), 0u);
  EXPECT_EQ(in.intern("level"), 1u);
  EXPECT_EQ(in.intern("format"), 0u);  // idempotent
  EXPECT_EQ(in.size(), 2u);
}

TEST(Interner, FindWithoutInsert) {
  Interner in;
  in.intern("a");
  EXPECT_EQ(in.find("a"), 0u);
  EXPECT_EQ(in.find("missing"), Interner::kInvalid);
}

TEST(Interner, RoundTripsNames) {
  Interner in;
  const auto id = in.intern("frame_rate");
  EXPECT_EQ(in.name(id), "frame_rate");
}

// -------------------------------------------------------------- Flags

TEST(Flags, ParsesEqualsForm) {
  const char* argv[] = {"prog", "--rate=250"};
  Flags f(2, argv);
  EXPECT_EQ(f.get_int("rate", 0), 250);
}

TEST(Flags, ParsesSpaceForm) {
  const char* argv[] = {"prog", "--rate", "300"};
  Flags f(3, argv);
  EXPECT_EQ(f.get_int("rate", 0), 300);
}

TEST(Flags, BareFlagIsTrue) {
  const char* argv[] = {"prog", "--verbose"};
  Flags f(2, argv);
  EXPECT_TRUE(f.get_bool("verbose", false));
}

TEST(Flags, DefaultWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags f(1, argv);
  EXPECT_EQ(f.get_int("missing", 17), 17);
  EXPECT_EQ(f.get("name", "dflt"), "dflt");
  EXPECT_DOUBLE_EQ(f.get_double("x", 2.5), 2.5);
  EXPECT_FALSE(f.get_bool("b", false));
}

TEST(Flags, PositionalArguments) {
  // No program takes a positional argument: a stray one (or a one-dash
  // typo of a flag) is unknown, listed as typed after the unknown flags,
  // even after every flag has been consulted.
  const char* argv[] = {"prog", "alpha", "--k=1", "-seed=3", "beta", "--z"};
  Flags f(6, argv);
  EXPECT_EQ(f.unknown(),
            (std::vector<std::string>{"k", "z", "alpha", "-seed=3", "beta"}));
  EXPECT_EQ(f.get_int("k", 0), 1);
  EXPECT_TRUE(f.get_bool("z", false));
  EXPECT_EQ(f.get_int("seed", 42), 42);
  EXPECT_EQ(f.unknown(),
            (std::vector<std::string>{"alpha", "-seed=3", "beta"}));
}

TEST(Flags, HelpDetected) {
  const char* argv[] = {"prog", "--help"};
  Flags f(2, argv);
  EXPECT_TRUE(f.help());
}

TEST(Flags, BoolSpellings) {
  const char* argv[] = {"prog", "--a=1", "--b=true", "--c=yes", "--d=off"};
  Flags f(5, argv);
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_TRUE(f.get_bool("b", false));
  EXPECT_TRUE(f.get_bool("c", false));
  EXPECT_FALSE(f.get_bool("d", true));
}

TEST(Flags, UnknownListsUnqueriedFlags) {
  // "--fault-los" is the classic typo for "--fault-loss": the program never
  // reads it, so it must surface instead of silently running loss=0.
  const char* argv[] = {"prog", "--fault-los=0.2", "--rate=5"};
  Flags f(3, argv);
  EXPECT_EQ(f.get_double("rate", 0), 5);
  const auto bad = f.unknown();
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], "fault-los");
}

TEST(Flags, UnknownShrinksAsFlagsAreQueried) {
  const char* argv[] = {"prog", "--alpha=1", "--beta", "2", "--gamma"};
  Flags f(5, argv);
  EXPECT_EQ(f.unknown().size(), 3u);
  EXPECT_EQ(f.get_int("alpha", 0), 1);
  EXPECT_EQ(f.unknown(), (std::vector<std::string>{"beta", "gamma"}));
  EXPECT_EQ(f.get("beta", ""), "2");
  EXPECT_TRUE(f.get_bool("gamma", false));
  EXPECT_TRUE(f.unknown().empty());
}

TEST(Flags, UnknownIgnoresHelpAndEnvironment) {
  // --help never reaches kv_, and environment variables cannot be typos on
  // this command line.
  ::setenv("QSA_NOT_ON_CLI", "1", 1);
  const char* argv[] = {"prog", "--help"};
  Flags f(2, argv);
  EXPECT_TRUE(f.help());
  EXPECT_TRUE(f.unknown().empty());
  ::unsetenv("QSA_NOT_ON_CLI");
}

TEST(Flags, UnknownDeduplicatesRepeatedFlags) {
  const char* argv[] = {"prog", "--x=1", "--x=2"};
  Flags f(3, argv);
  EXPECT_EQ(f.unknown(), std::vector<std::string>{"x"});
}

TEST(Flags, KnownIsTheSortedQueryVocabulary) {
  const char* argv[] = {"prog"};
  Flags f(1, argv);
  (void)f.get_int("zeta", 0);
  (void)f.get_bool("alpha", false);
  (void)f.get_double("alpha", 0);  // repeated lookups count once
  EXPECT_EQ(f.known(), (std::vector<std::string>{"alpha", "zeta"}));
}

TEST(FlagsDeathTest, RejectUnknownFlagsExitsWithStatusTwo) {
  const char* argv[] = {"prog", "--replica-treshold=3"};
  Flags f(2, argv);
  (void)f.get_double("replica-threshold", 8);
  EXPECT_EXIT(reject_unknown_flags(f, "prog"),
              ::testing::ExitedWithCode(2), "unknown flag --replica-treshold");
  const char* stray[] = {"prog", "--rate=5", "extra"};
  Flags g(3, stray);
  EXPECT_EQ(g.get_int("rate", 0), 5);
  EXPECT_EXIT(reject_unknown_flags(g, "prog"),
              ::testing::ExitedWithCode(2), "unknown flag extra");
}

TEST(Flags, RejectUnknownFlagsReturnsWhenAllQueried) {
  const char* argv[] = {"prog", "--rate=5"};
  Flags f(2, argv);
  EXPECT_EQ(f.get_int("rate", 0), 5);
  reject_unknown_flags(f, "prog");  // must not exit
}

namespace {
enum class Fruit { kApple, kBanana };
constexpr Choice<Fruit> kFruits[] = {
    {"apple", Fruit::kApple},
    {"banana", Fruit::kBanana},
};
}  // namespace

TEST(Flags, GetChoiceReturnsMatchedValue) {
  const char* argv[] = {"prog", "--fruit=banana"};
  Flags f(2, argv);
  EXPECT_EQ(get_choice(f, "fruit", kFruits, Fruit::kApple, "prog"),
            Fruit::kBanana);
  EXPECT_TRUE(f.unknown().empty());  // get_choice consults the flag
}

TEST(Flags, GetChoiceDefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  Flags f(1, argv);
  EXPECT_EQ(get_choice(f, "fruit", kFruits, Fruit::kBanana, "prog"),
            Fruit::kBanana);
}

TEST(FlagsDeathTest, GetChoiceExitsTwoOnUnknownValue) {
  const char* argv[] = {"prog", "--fruit=pear"};
  Flags f(2, argv);
  EXPECT_EXIT((void)get_choice(f, "fruit", kFruits, Fruit::kApple, "prog"),
              ::testing::ExitedWithCode(2),
              "unknown value 'pear' for --fruit");
}

TEST(FlagsDeathTest, GetChoiceUsageListsChoices) {
  const char* argv[] = {"prog", "--fruit=pear"};
  Flags f(2, argv);
  EXPECT_EXIT((void)get_choice(f, "fruit", kFruits, Fruit::kApple, "prog"),
              ::testing::ExitedWithCode(2), "--fruit=apple\\|banana");
}

TEST(Flags, NumericLookupsParseWholeValues) {
  const char* argv[] = {"prog", "--a=-7", "--b=2.5e3", "--c=-0.25",
                        "--d=9223372036854775807"};
  Flags f(5, argv);
  EXPECT_EQ(f.get_int("a", 0), -7);
  EXPECT_DOUBLE_EQ(f.get_double("b", 0), 2500.0);
  EXPECT_DOUBLE_EQ(f.get_double("c", 0), -0.25);
  EXPECT_EQ(f.get_int("d", 0), INT64_MAX);
}

TEST(FlagsDeathTest, GetIntExitsTwoUnlessWhollyAnInteger) {
  // strtoll read "abc" as 0 and "12x" as 12: the run silently used a
  // different seed than the one asked for.
  for (const char* arg : {"--seed=abc", "--seed=12x", "--seed=", "--seed=1.5",
                          "--seed=9223372036854775808"}) {
    const char* argv[] = {"prog", arg};
    Flags f(2, argv);
    EXPECT_EXIT((void)f.get_int("seed", 42), ::testing::ExitedWithCode(2),
                std::string(arg) + " is not a 64-bit integer")
        << arg;
  }
}

TEST(FlagsDeathTest, GetDoubleExitsTwoUnlessWhollyAFiniteNumber) {
  for (const char* arg :
       {"--rate=30x", "--rate=abc", "--rate=", "--rate=1e999", "--rate=nan"}) {
    const char* argv[] = {"prog", arg};
    Flags f(2, argv);
    EXPECT_EXIT((void)f.get_double("rate", 100), ::testing::ExitedWithCode(2),
                std::string(arg) + " is not a finite number")
        << arg;
  }
}

TEST(FlagsDeathTest, GetDoubleInExitsTwoOutsideTheRange) {
  for (const char* arg :
       {"--minutes=1e15", "--minutes=-1.5e9", "--minutes=x"}) {
    const char* argv[] = {"prog", arg};
    Flags f(2, argv);
    EXPECT_EXIT((void)get_double_in(f, "minutes", 60, -kMaxFlagMinutes,
                                    kMaxFlagMinutes, "prog"),
                ::testing::ExitedWithCode(2), "--minutes=")
        << arg;
  }
  const char* big[] = {"prog", "--minutes=1e15"};
  Flags f(2, big);
  EXPECT_EXIT((void)get_double_in(f, "minutes", 60, -kMaxFlagMinutes,
                                  kMaxFlagMinutes, "prog"),
              ::testing::ExitedWithCode(2),
              "prog: --minutes=1e15 is out of range\nusage: "
              "--minutes=<-1e\\+09\\.\\.1e\\+09>");
  const char* edge[] = {"prog", "--a=1e9", "--b=-1e9", "--c=-1"};
  Flags g(4, edge);
  EXPECT_EQ(get_double_in(g, "a", 0, -kMaxFlagMinutes, kMaxFlagMinutes, "p"),
            1e9);
  EXPECT_EQ(get_double_in(g, "b", 0, -kMaxFlagMinutes, kMaxFlagMinutes, "p"),
            -1e9);
  // The sign is the caller's rule: a negative time in range reads as is.
  EXPECT_EQ(get_double_in(g, "c", 0, -kMaxFlagMinutes, kMaxFlagMinutes, "p"),
            -1);
  EXPECT_EQ(get_double_in(g, "d", 7, -kMaxFlagMinutes, kMaxFlagMinutes, "p"),
            7);
}

TEST(FlagsDeathTest, GetBoolExitsTwoUnlessABooleanSpelling) {
  // A typo must not read as false: --recovery=ture would silently run
  // without recovery.
  for (const char* arg : {"--recovery=ture", "--recovery=TRUE", "--recovery=",
                          "--recovery=2", "--recovery=offf"}) {
    const char* argv[] = {"prog", arg};
    Flags f(2, argv);
    EXPECT_EXIT((void)f.get_bool("recovery", false),
                ::testing::ExitedWithCode(2),
                std::string(arg) + " is not a boolean")
        << arg;
  }
  const char* argv[] = {"prog", "--a=0", "--b=false", "--c=no", "--d=on"};
  Flags f(5, argv);
  EXPECT_FALSE(f.get_bool("a", true));
  EXPECT_FALSE(f.get_bool("b", true));
  EXPECT_FALSE(f.get_bool("c", true));
  EXPECT_TRUE(f.get_bool("d", false));
}

TEST(FlagsDeathTest, BareFlagIsABooleanOnly) {
  // A bare flag reads as true, and only as a boolean: a file name, number or
  // choice must be spelled out, never stood in for by "true".
  const char* argv[] = {"prog", "--trace-out", "--recovery"};
  Flags f(3, argv);
  EXPECT_TRUE(f.get_bool("recovery", false));
  EXPECT_EXIT((void)f.get("trace-out", ""), ::testing::ExitedWithCode(2),
              "--trace-out needs a value");
  EXPECT_EXIT((void)f.get_int("trace-out", 0), ::testing::ExitedWithCode(2),
              "--trace-out needs a value");
  EXPECT_EXIT(
      (void)get_choice(f, "trace-out", kFruits, Fruit::kApple, "prog"),
      ::testing::ExitedWithCode(2), "--trace-out needs a value");
}

// -------------------------------------------------------- ParallelFor

/// The distinct threads a parallel_for of `n` iterations on `threads`
/// threads ran them on, after checking that it ran each index exactly once.
std::size_t threads_used(std::size_t n, std::size_t threads) {
  std::vector<std::atomic<int>> hits(n);
  std::mutex mu;
  std::set<std::thread::id> ids;
  parallel_for(n, threads, [&](std::size_t i) {
    ++hits[i];
    const std::lock_guard lock(mu);
    ids.insert(std::this_thread::get_id());
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  return ids.size();
}

TEST(ParallelFor, CoversAllIndices) {
  // Each index once, on at most min(n, threads) threads.
  EXPECT_LE(threads_used(64, 4), 4u);
  EXPECT_LE(threads_used(2, 8), 2u);
  EXPECT_EQ(threads_used(64, 1), 1u);
}

TEST(ParallelFor, ZeroThreadsMeansHardwareConcurrency) {
  EXPECT_LE(threads_used(256, 0),
            std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ParallelFor, EmptyRangeRunsNothing) {
  for (const std::size_t threads : {0, 1, 4}) {
    bool ran = false;
    parallel_for(0, threads, [&ran](std::size_t) { ran = true; });
    EXPECT_FALSE(ran) << threads;
  }
}

TEST(ParallelFor, NestedCallsMakeProgress) {
  // A nested call starts helpers of its own, so it completes even while
  // every thread of the outer call is busy running it.
  std::atomic<int> inner_total{0};
  parallel_for(8, 2, [&](std::size_t) {
    parallel_for(16, 2, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ParallelFor, NestedCallsOnOneThread) {
  std::atomic<int> inner_total{0};
  parallel_for(4, 1, [&](std::size_t) {
    parallel_for(4, 1, [&](std::size_t) { ++inner_total; });
  });
  EXPECT_EQ(inner_total.load(), 16);
}

TEST(ParallelFor, ResultsAreIndexPure) {
  // Results stored by index are identical for any thread count — the
  // property every deterministic use rests on.
  const auto fill = [](std::size_t threads) {
    std::vector<std::uint64_t> out(256);
    parallel_for(out.size(), threads, [&out](std::size_t i) {
      out[i] = i * 2654435761ULL % 97;
    });
    return out;
  };
  EXPECT_EQ(fill(1), fill(4));
}

// ---------------------------------------------------- InplaceFunction

TEST(InplaceFunction, InvokesAndReturnsValues) {
  InplaceFunction<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(2, 3), 5);
  int hits = 0;
  InplaceFunction<void()> bump = [&hits] { ++hits; };
  bump();
  bump();
  EXPECT_EQ(hits, 2);
}

TEST(InplaceFunction, EmptyAndNullptrComparisons) {
  InplaceFunction<void()> f;
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_TRUE(f == nullptr);
  EXPECT_FALSE(f != nullptr);
  f = [] {};
  EXPECT_TRUE(static_cast<bool>(f));
  EXPECT_TRUE(f != nullptr);
  f.reset();
  EXPECT_TRUE(f == nullptr);
  InplaceFunction<void()> g = nullptr;
  EXPECT_TRUE(g == nullptr);
}

TEST(InplaceFunction, MoveStealsAndEmptiesSource) {
  int hits = 0;
  InplaceFunction<void()> a = [&hits] { ++hits; };
  InplaceFunction<void()> b = std::move(a);
  EXPECT_TRUE(a == nullptr);  // NOLINT(bugprone-use-after-move): specified
  b();
  EXPECT_EQ(hits, 1);
  InplaceFunction<void()> c;
  c = std::move(b);
  EXPECT_TRUE(b == nullptr);  // NOLINT(bugprone-use-after-move): specified
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InplaceFunction, DestroysCaptureExactlyOnce) {
  struct Probe {
    int* destructions;
    explicit Probe(int* d) noexcept : destructions(d) {}
    Probe(Probe&& o) noexcept : destructions(o.destructions) {
      o.destructions = nullptr;  // moved-from probes don't count
    }
    ~Probe() {
      if (destructions != nullptr) ++*destructions;
    }
    void operator()() const {}
  };
  int destructions = 0;
  {
    InplaceFunction<void()> f = Probe(&destructions);
    EXPECT_EQ(destructions, 0);
    InplaceFunction<void()> g = std::move(f);  // relocation, no live destroy
    EXPECT_EQ(destructions, 0);
    g();
  }
  EXPECT_EQ(destructions, 1);
  {
    InplaceFunction<void()> f = Probe(&destructions);
    f.reset();
    EXPECT_EQ(destructions, 2);
    f.reset();  // idempotent on empty
    EXPECT_EQ(destructions, 2);
  }
  EXPECT_EQ(destructions, 2);
}

TEST(InplaceFunction, MoveAssignDestroysPreviousTarget) {
  int first = 0, second = 0;
  InplaceFunction<void()> f = [&first] { ++first; };
  InplaceFunction<void()> g = [&second] { ++second; };
  f = std::move(g);
  f();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

// ----------------------------------------------------------- DenseMap

TEST(DenseMap, BasicInsertFindErase) {
  DenseMap<std::uint32_t, int> m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.count(7), 0u);
  m[7] = 70;
  m[9] = 90;
  EXPECT_EQ(m.size(), 2u);
  EXPECT_EQ(m.at(7), 70);
  EXPECT_EQ(m.at(9), 90);
  EXPECT_EQ(m.find(8), m.end());
  ASSERT_NE(m.find(7), m.end());
  EXPECT_EQ(m.find(7)->second, 70);
  EXPECT_EQ(m.erase(7), 1u);
  EXPECT_EQ(m.erase(7), 0u);
  EXPECT_EQ(m.count(7), 0u);
  EXPECT_EQ(m.at(9), 90);  // survivor untouched by the backward shift
  EXPECT_EQ(m.size(), 1u);
}

TEST(DenseMap, EmplaceReportsInsertion) {
  DenseMap<std::uint32_t, int> m;
  auto [it1, inserted1] = m.emplace(5, 50);
  EXPECT_TRUE(inserted1);
  EXPECT_EQ(it1->second, 50);
  auto [it2, inserted2] = m.emplace(5, 999);
  EXPECT_FALSE(inserted2);  // existing value wins
  EXPECT_EQ(it2->second, 50);
  EXPECT_EQ(m.size(), 1u);
}

TEST(DenseMap, MatchesReferenceMapUnderRandomChurn) {
  // Dense key range forces long probe chains and exercises backward-shift
  // deletion through them; the reference map is ground truth.
  DenseMap<std::uint32_t, std::uint64_t> m;
  std::unordered_map<std::uint32_t, std::uint64_t> ref;
  Rng rng(2026);
  for (int op = 0; op < 200'000; ++op) {
    const auto key = static_cast<std::uint32_t>(rng.index(512));
    switch (rng.index(4)) {
      case 0:
      case 1: {
        const std::uint64_t value = rng();
        m[key] = value;
        ref[key] = value;
        break;
      }
      case 2:
        EXPECT_EQ(m.erase(key), ref.erase(key));
        break;
      default:
        EXPECT_EQ(m.count(key), ref.count(key));
        if (ref.count(key) != 0) {
          EXPECT_EQ(m.at(key), ref.at(key));
        }
        break;
    }
  }
  EXPECT_EQ(m.size(), ref.size());
  std::size_t visited = 0;
  for (const auto& [k, v] : m) {
    ++visited;
    ASSERT_NE(ref.find(k), ref.end());
    EXPECT_EQ(ref.at(k), v);
  }
  EXPECT_EQ(visited, ref.size());
}

TEST(DenseMap, IterationOrderIsAFunctionOfHistory) {
  // Two maps fed the identical op sequence iterate identically — the
  // property the simulator's determinism leans on (no std::hash, no
  // platform-dependent layout).
  DenseMap<std::uint64_t, int> a, b;
  Rng ra(99), rb(99);
  const auto drive = [](DenseMap<std::uint64_t, int>& m, Rng& rng) {
    for (int op = 0; op < 5000; ++op) {
      const std::uint64_t key = rng.index(300);
      if (rng.index(3) == 0) {
        m.erase(key);
      } else {
        m[key] = op;
      }
    }
  };
  drive(a, ra);
  drive(b, rb);
  std::vector<std::pair<std::uint64_t, int>> va, vb;
  for (const auto& e : a) va.push_back(e);
  for (const auto& e : b) vb.push_back(e);
  EXPECT_EQ(va, vb);
  EXPECT_FALSE(va.empty());
}

TEST(DenseMap, ClearReleasesEntriesAndIsReusable) {
  DenseMap<std::uint32_t, std::string> m;
  for (std::uint32_t i = 0; i < 100; ++i) {
    std::string value = "v";
    value += std::to_string(i);
    m[i] = std::move(value);
  }
  EXPECT_EQ(m.size(), 100u);
  m.clear();
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.begin(), m.end());
  EXPECT_EQ(m.count(5), 0u);
  m[5] = "again";
  EXPECT_EQ(m.at(5), "again");
  EXPECT_EQ(m.size(), 1u);
}

TEST(DenseMap, ReservePreventsRehashAndKeepsEntries) {
  DenseMap<std::uint32_t, int> m;
  m.reserve(1000);
  for (std::uint32_t i = 0; i < 1000; ++i) m[i] = static_cast<int>(i);
  for (std::uint32_t i = 0; i < 1000; ++i) EXPECT_EQ(m.at(i), static_cast<int>(i));
  EXPECT_EQ(m.size(), 1000u);
}

TEST(DenseMap, ErasedValueIsResetImmediately) {
  // The contract that lets values own resources: erase resets the slot to
  // V{} rather than leaving a moved-from husk in the backing array.
  DenseMap<std::uint32_t, std::string> m;
  m[1] = std::string(1000, 'x');
  m.erase(1);
  for (const auto& slot : m) {
    FAIL() << "erased entry still visible: " << slot.first;
  }
  EXPECT_TRUE(m.empty());
}

}  // namespace
}  // namespace qsa::util
