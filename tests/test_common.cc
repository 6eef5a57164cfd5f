// Unit tests for the common substrate: PRNG + distributions, thread pool,
// stats, serialization, flags.
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"

namespace duet {
namespace {

TEST(RngTest, DeterministicPerSeed) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a(), b());
  Rng a2(123);
  EXPECT_NE(a2(), c());
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(2);
  std::vector<int> seen(5, 0);
  for (int i = 0; i < 5000; ++i) seen[static_cast<size_t>(rng.UniformInt(5))]++;
  for (int count : seen) EXPECT_GT(count, 800);  // ~1000 expected each
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const int64_t v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(5);
  double sum = 0.0, sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(RngTest, GammaMeanMatchesShapeScale) {
  Rng rng(6);
  const double shape = 2.0, scale = 1.5;
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gamma(shape, scale);
    EXPECT_GT(g, 0.0);
    sum += g;
  }
  EXPECT_NEAR(sum / n, shape * scale, 0.05);
}

TEST(RngTest, GammaShapeBelowOne) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Gamma(0.5, 2.0);
  EXPECT_NEAR(sum / n, 1.0, 0.05);
}

TEST(RngTest, PermutationIsValid) {
  Rng rng(8);
  auto perm = rng.Permutation(100);
  std::vector<bool> seen(100, false);
  for (uint32_t v : perm) {
    ASSERT_LT(v, 100u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(RngTest, SplitGivesIndependentStream) {
  Rng a(9);
  Rng b = a.Split();
  EXPECT_NE(a(), b());
}

TEST(ZipfTest, PmfSumsToOne) {
  ZipfDistribution z(50, 1.1);
  double total = 0.0;
  for (uint32_t i = 0; i < 50; ++i) total += z.Pmf(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfTest, RankZeroMostFrequent) {
  ZipfDistribution z(20, 1.2);
  EXPECT_GT(z.Pmf(0), z.Pmf(1));
  EXPECT_GT(z.Pmf(1), z.Pmf(10));
}

TEST(ZipfTest, ZeroExponentIsUniform) {
  ZipfDistribution z(10, 0.0);
  for (uint32_t i = 0; i < 10; ++i) EXPECT_NEAR(z.Pmf(i), 0.1, 1e-9);
}

TEST(ZipfTest, SampleFrequenciesFollowPmf) {
  Rng rng(10);
  ZipfDistribution z(8, 1.0);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) counts[z.Sample(rng)]++;
  for (uint32_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / n, z.Pmf(i), 0.01);
  }
}

TEST(ThreadPoolTest, ParallelForCoversRange) {
  std::vector<std::atomic<int>> hits(1000);
  ParallelFor(0, 1000, [&](int64_t i) { hits[static_cast<size_t>(i)]++; }, true, 16);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ChunkedCoversRangeOnce) {
  std::atomic<int64_t> total{0};
  ParallelForChunked(
      0, 12345, [&](int64_t lo, int64_t hi) { total += hi - lo; }, true, 7);
  EXPECT_EQ(total.load(), 12345);
}

TEST(ThreadPoolTest, SerialFallback) {
  int64_t sum = 0;  // no atomics needed: serial path
  ParallelFor(0, 100, [&](int64_t i) { sum += i; }, /*parallel=*/false);
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  std::atomic<int64_t> total{0};
  ParallelFor(
      0, 8,
      [&](int64_t) {
        ParallelFor(0, 100, [&](int64_t) { total++; }, true, 1);
      },
      true, 1);
  EXPECT_EQ(total.load(), 800);
}

// Polls `done` until it holds or five seconds pass; returns whether it held.
template <typename Pred>
bool PollFor(Pred done) {
  const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

TEST(ThreadPoolTest, EscapedSubmitExceptionDoesNotKillWorkers) {
  // A raw Submit task that throws must not terminate the process or wedge
  // the pool: the worker swallows it, bumps the counter, and keeps serving.
  std::atomic<int64_t> sum{0};
  std::atomic<int64_t> ran{0};
  ThreadPool pool(2);  // declared last: its dtor drains before sum/ran die
  const uint64_t before = pool.escaped_exceptions();
  for (int i = 0; i < 4; ++i) {
    pool.Submit([] { throw std::runtime_error("task failed"); });
  }
  ASSERT_TRUE(PollFor([&] { return pool.escaped_exceptions() == before + 4; }));
  // The pool is still fully operational afterwards.
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&, i] {
      sum += i;
      ++ran;
    });
  }
  ASSERT_TRUE(PollFor([&] { return ran.load() == 100; }));
  EXPECT_EQ(sum.load(), 4950);
  EXPECT_EQ(pool.escaped_exceptions(), before + 4);
}

TEST(ThreadPoolTest, ConcurrentCallersCompleteIndependently) {
  // Completion is per call: caller B's ParallelFor returns while caller A's
  // chunk still occupies one of the two workers. A pool-wide barrier would
  // make B wait out A's blocked chunk (its 5 s timeout).
  ThreadPool::SetGlobalThreads(2);
  std::mutex mu;
  std::condition_variable cv;
  bool a_blocking = false;
  bool b_returned = false;
  std::thread caller_a([&] {
    ParallelFor(
        0, 2,
        [&](int64_t i) {
          if (i != 0) return;
          std::unique_lock<std::mutex> lock(mu);
          a_blocking = true;
          cv.notify_all();
          cv.wait_for(lock, std::chrono::seconds(5), [&] { return b_returned; });
        },
        /*parallel=*/true, /*grain=*/1);
  });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return a_blocking; });
  }
  const auto start = std::chrono::steady_clock::now();
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 100, [&](int64_t i) { sum += i; }, /*parallel=*/true, /*grain=*/1);
  const int64_t elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
  {
    std::lock_guard<std::mutex> lock(mu);
    b_returned = true;
  }
  cv.notify_all();
  caller_a.join();
  EXPECT_EQ(sum.load(), 4950);
  EXPECT_LT(elapsed_ms, 1000) << "caller B waited on caller A's chunk";
  ThreadPool::SetGlobalThreads(0);
}

TEST(ThreadPoolTest, ParallelForChunkedRethrowsOnCaller) {
  // Exceptions from chunk bodies must surface on the calling thread (first
  // one wins), after all chunks have finished — not via std::terminate.
  std::atomic<int64_t> executed{0};
  bool caught = false;
  try {
    ParallelForChunked(
        0, 1000,
        [&](int64_t lo, int64_t hi) {
          executed += hi - lo;
          if (lo == 0) throw std::runtime_error("chunk exploded");
        },
        /*parallel=*/true, /*grain=*/100);
  } catch (const std::runtime_error& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "chunk exploded");
  }
  EXPECT_TRUE(caught);
  // The pool survives for subsequent clean runs.
  std::atomic<int64_t> sum{0};
  ParallelFor(0, 100, [&](int64_t i) { sum += i; }, true, 1);
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPoolTest, ParallelForChunkedSerialPathAlsoThrows) {
  EXPECT_THROW(ParallelForChunked(
                   0, 10, [](int64_t, int64_t) { throw std::logic_error("serial"); },
                   /*parallel=*/false),
               std::logic_error);
}

TEST(StatsTest, PercentileInterpolates) {
  std::vector<double> v = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 4.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 2.5);
}

TEST(StatsTest, SummaryFields) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  const ErrorSummary s = ErrorSummary::FromValues(v);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
  EXPECT_NEAR(s.median, 50.5, 1e-9);
  EXPECT_NEAR(s.p99, 99.01, 1e-9);
}

TEST(SerializeTest, RoundTripAllTypes) {
  std::stringstream buf;
  BinaryWriter w(buf);
  w.WriteU32(7);
  w.WriteU64(1ULL << 40);
  w.WriteI64(-42);
  w.WriteF32(1.5f);
  w.WriteF64(2.25);
  w.WriteString("hello");
  w.WriteF32Vector({1.0f, 2.0f});
  w.WriteI64Vector({-1, 2, -3});
  w.WriteU32Vector({9, 8});
  BinaryReader r(buf);
  EXPECT_EQ(r.ReadU32(), 7u);
  EXPECT_EQ(r.ReadU64(), 1ULL << 40);
  EXPECT_EQ(r.ReadI64(), -42);
  EXPECT_FLOAT_EQ(r.ReadF32(), 1.5f);
  EXPECT_DOUBLE_EQ(r.ReadF64(), 2.25);
  EXPECT_EQ(r.ReadString(), "hello");
  EXPECT_EQ(r.ReadF32Vector(), (std::vector<float>{1.0f, 2.0f}));
  EXPECT_EQ(r.ReadI64Vector(), (std::vector<int64_t>{-1, 2, -3}));
  EXPECT_EQ(r.ReadU32Vector(), (std::vector<uint32_t>{9, 8}));
}

TEST(SerializeTest, TruncatedStreamDies) {
  std::stringstream buf;
  BinaryWriter w(buf);
  w.WriteU32(1);
  BinaryReader r(buf);
  r.ReadU32();
  EXPECT_DEATH(r.ReadU64(), "truncated");
}

TEST(FlagsTest, ParsesTypes) {
  const char* argv[] = {"prog", "--rows=100", "--lr=0.5", "--verbose", "--name=abc",
                        "--flag=false"};
  Flags flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("rows", 0), 100);
  EXPECT_DOUBLE_EQ(flags.GetDouble("lr", 0.0), 0.5);
  EXPECT_TRUE(flags.GetBool("verbose", false));
  EXPECT_FALSE(flags.GetBool("flag", true));
  EXPECT_EQ(flags.GetString("name", ""), "abc");
  EXPECT_EQ(flags.GetInt("missing", -7), -7);
  EXPECT_TRUE(flags.Has("rows"));
  EXPECT_FALSE(flags.Has("nope"));
}

}  // namespace
}  // namespace duet

// ---------------------------------------------------------------------------
// Global pool resizing (thread-scaling ablation support)
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, SetGlobalThreadsResizesAndStillRuns) {
  duet::ThreadPool::SetGlobalThreads(2);
  EXPECT_EQ(duet::ThreadPool::Global().num_threads(), 2u);
  std::atomic<int64_t> sum{0};
  duet::ParallelFor(0, 1000, [&](int64_t i) { sum += i; }, true, 1);
  EXPECT_EQ(sum.load(), 499500);
  duet::ThreadPool::SetGlobalThreads(0);  // restore hardware default
  EXPECT_GE(duet::ThreadPool::Global().num_threads(), 1u);
}
