// Tests for common utilities: RNG, matrix helpers, parallel_for,
// table printing, result cache, stats.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>

#include "common/matrix.h"
#include "common/parallel.h"
#include "common/result_cache.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace anda {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    SplitMix64 a(123);
    SplitMix64 b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next(), b.next());
    }
}

TEST(Rng, NormalHasUnitMoments)
{
    SplitMix64 rng(7);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, DeriveSeedDecorrelatesStreams)
{
    const auto s1 = derive_seed(42, 0);
    const auto s2 = derive_seed(42, 1);
    EXPECT_NE(s1, s2);
    EXPECT_NE(s1, 42u);
}

TEST(Rng, UniformInRange)
{
    SplitMix64 rng(9);
    for (int i = 0; i < 1000; ++i) {
        const float v = rng.uniform(-2.0f, 3.0f);
        EXPECT_GE(v, -2.0f);
        EXPECT_LT(v, 3.0f);
    }
}

TEST(Matrix, RowViewsAndFill)
{
    Matrix m(3, 4);
    m.fill(2.5f);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    for (float v : m.row(1)) {
        EXPECT_EQ(v, 2.5f);
    }
    m(2, 3) = -1.0f;
    EXPECT_EQ(m.row(2)[3], -1.0f);
}

TEST(Matrix, ReshapePrefixKeepsLeadingElementsInPlace)
{
    Matrix m(4, 6);
    for (std::size_t i = 0; i < m.size(); ++i) {
        m.flat()[i] = static_cast<float>(i);
    }
    const float *data = m.data();
    m.reshape_prefix(3, 5);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 5u);
    EXPECT_EQ(m.size(), 15u);
    EXPECT_EQ(m.data(), data);  // No reallocation.
    EXPECT_EQ(m(2, 4), 14.0f);
    EXPECT_THROW(m.reshape_prefix(4, 4), CheckError);
}

TEST(Matrix, DiffHelpers)
{
    Matrix a(2, 2);
    Matrix b(2, 2);
    a(0, 0) = 1.0f;
    b(0, 0) = 4.0f;
    EXPECT_DOUBLE_EQ(max_abs_diff(a, b), 3.0);
    EXPECT_DOUBLE_EQ(rms_diff(a, b), 1.5);
}

TEST(Parallel, CoversEveryIndexExactlyOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallel_for(0, hits.size(),
                 [&](std::size_t i) { hits[i].fetch_add(1); });
    for (auto &h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(Parallel, EmptyAndSingleRanges)
{
    std::atomic<int> count{0};
    parallel_for(5, 5, [&](std::size_t) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 0);
    parallel_for(5, 6, [&](std::size_t i) {
        EXPECT_EQ(i, 5u);
        count.fetch_add(1);
    });
    EXPECT_EQ(count.load(), 1);
}

TEST(Parallel, ChunkedPartitionIsDisjoint)
{
    std::vector<std::atomic<int>> hits(500);
    parallel_for_chunked(0, hits.size(),
                         [&](std::size_t lo, std::size_t hi) {
                             for (std::size_t i = lo; i < hi; ++i) {
                                 hits[i].fetch_add(1);
                             }
                         },
                         7);
    for (auto &h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(Parallel, PoolReusesThreadsAcrossCalls)
{
    std::mutex mu;
    std::set<std::thread::id> ids;
    const auto collect = [&] {
        parallel_for_chunked(
            0, 64,
            [&](std::size_t, std::size_t) {
                std::lock_guard<std::mutex> lk(mu);
                ids.insert(std::this_thread::get_id());
            },
            4);
    };
    collect();  // Forces lazy pool creation.
    const std::size_t created = parallel_threads_created();
    EXPECT_EQ(created, parallel_pool_size());
    for (int i = 0; i < 20; ++i) {
        collect();
    }
    // Steady state: no new std::thread construction, and every observed
    // thread ID comes from the stable set {pool workers, caller}.
    EXPECT_EQ(parallel_threads_created(), created);
    EXPECT_LE(ids.size(), parallel_pool_size() + 1);
}

TEST(Parallel, NestedParallelForRunsSerialWithoutDeadlock)
{
    std::vector<std::atomic<int>> hits(64 * 16);
    parallel_for(0, 64, [&](std::size_t outer) {
        parallel_for(0, 16, [&](std::size_t inner) {
            hits[outer * 16 + inner].fetch_add(1);
        });
    }, 4);
    for (auto &h : hits) {
        EXPECT_EQ(h.load(), 1);
    }
}

TEST(Parallel, ExplicitThreadCapIsRespectedByChunking)
{
    // With max_threads = 2, at most 2 chunks may run concurrently.
    std::atomic<int> live{0};
    std::atomic<int> peak{0};
    parallel_for_chunked(
        0, 64,
        [&](std::size_t, std::size_t) {
            const int now = live.fetch_add(1) + 1;
            int p = peak.load();
            while (now > p && !peak.compare_exchange_weak(p, now)) {
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            live.fetch_sub(1);
        },
        2);
    EXPECT_LE(peak.load(), 2);
    EXPECT_GE(peak.load(), 1);
}

TEST(Table, RendersAlignedAndCsv)
{
    Table t({"model", "ppl"});
    t.add_row({"opt-1.3b", fmt(14.62)});
    t.add_row({"llama-7b", fmt(5.68)});
    const std::string s = t.to_string();
    EXPECT_NE(s.find("opt-1.3b"), std::string::npos);
    EXPECT_NE(s.find("14.62"), std::string::npos);
    const std::string csv = t.to_csv();
    EXPECT_NE(csv.find("model,ppl"), std::string::npos);
    EXPECT_NE(csv.find("llama-7b,5.68"), std::string::npos);
}

TEST(Table, Formatters)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt_x(2.4), "2.40x");
    EXPECT_EQ(fmt_pct(-0.74), "-0.74%");
}

TEST(ResultCache, InMemoryPutGet)
{
    ResultCache cache;
    EXPECT_FALSE(cache.get("a").has_value());
    cache.put("a", 1.5);
    ASSERT_TRUE(cache.get("a").has_value());
    EXPECT_DOUBLE_EQ(*cache.get("a"), 1.5);
    cache.put("a", 2.5);
    EXPECT_DOUBLE_EQ(*cache.get("a"), 2.5);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(Stats, MeanGeomeanStddev)
{
    const std::vector<double> xs = {1.0, 2.0, 4.0};
    EXPECT_NEAR(mean(xs), 7.0 / 3.0, 1e-12);
    EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
    EXPECT_NEAR(stddev(std::vector<double>{2.0, 2.0}), 0.0, 1e-12);
    EXPECT_EQ(mean(std::vector<double>{}), 0.0);
    EXPECT_EQ(geomean(std::vector<double>{}), 0.0);
}

}  // namespace
}  // namespace anda
