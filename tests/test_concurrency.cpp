// Concurrency stress tests, written for the ThreadSanitizer lane
// (cmake --preset tsan) but run in every lane. Each test drives one of
// the concurrency surfaces the serving stack depends on — the
// built-once PE gate tables, the persistent parallel_for pool,
// ModelRegistry's shared-future deduplication, ResultCache's memo
// table, and the SweepScheduler fan-out — from multiple racing
// threads, so TSan can observe the synchronization (or its absence)
// under contention.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/result_cache.h"
#include "hw/perf_model.h"
#include "search/sweep.h"

namespace anda {
namespace {

DatasetSpec
tiny_dataset()
{
    return {"conc-test", 1.0, 991, 2, 8};
}

ModelConfig
tiny_model(const std::string &name, std::uint64_t seed)
{
    ModelConfig cfg = opt_125m();
    cfg.name = name;
    cfg.seed = seed;
    cfg.sim.d_model = 64;
    cfg.sim.n_layers = 1;
    cfg.sim.n_heads = 2;
    cfg.sim.d_ffn = 128;
    cfg.sim.vocab = 64;
    cfg.sim.max_seq = 16;
    return cfg;
}

// Every priced number of one system: all members are 8 bytes wide, so
// the struct has no padding and compares with memcmp.
struct PricedSystem {
    PeMetrics pe;
    double mxu_mw = 0.0;
    double area_mm2 = 0.0;
    GemmCost gemm;
};

PricedSystem
price_system(const AcceleratorConfig &cfg)
{
    PricedSystem p;
    p.pe = pe_metrics(cfg.pe, tech16());
    p.mxu_mw = mxu_power_mw(cfg, tech16());
    p.area_mm2 = system_area_mm2(cfg, tech16());
    p.gemm = analyze_gemm(cfg, tech16(), {16, 4096, 4096}, 7);
    return p;
}

// The first pricing calls of the process race on the built-once gate
// tables (pe_gate_budget, bpc_lane_budget, vector_lane_budget): all
// seven PE types, several workers per type. Defined first so a
// whole-binary run also starts with the tables unbuilt. Every result
// must equal, byte for byte, the same calls made serially afterwards.
TEST(Concurrency, GateTableFirstUseIsExact)
{
    const std::vector<AcceleratorConfig> &systems = system_configs();
    ASSERT_EQ(systems.size(), all_pe_types().size());
    constexpr std::size_t kRepeats = 8;
    const std::size_t n = systems.size() * kRepeats;
    std::vector<PricedSystem> racing(n);
    parallel_for(0, n, [&](std::size_t i) {
        racing[i] = price_system(systems[i % systems.size()]);
    });
    for (std::size_t i = 0; i < n; ++i) {
        const PricedSystem serial =
            price_system(systems[i % systems.size()]);
        EXPECT_EQ(std::memcmp(&racing[i], &serial, sizeof serial), 0)
            << systems[i % systems.size()].name << " index " << i;
    }
}

// Several external threads each submit top-level parallel_for regions
// at once. The pool serializes regions internally; every region must
// still process each of its indices exactly once.
TEST(Concurrency, ConcurrentTopLevelParallelFor)
{
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kRounds = 8;
    constexpr std::size_t kN = 512;
    std::vector<std::thread> threads;
    std::vector<std::vector<int>> hits(kThreads,
                                       std::vector<int>(kN, 0));
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &hits] {
            for (std::size_t round = 0; round < kRounds; ++round) {
                parallel_for(0, kN, [&](std::size_t i) {
                    hits[t][i] += 1;
                });
            }
        });
    }
    for (auto &th : threads) {
        th.join();
    }
    for (std::size_t t = 0; t < kThreads; ++t) {
        for (std::size_t i = 0; i < kN; ++i) {
            ASSERT_EQ(hits[t][i], static_cast<int>(kRounds))
                << "thread " << t << " index " << i;
        }
    }
}

// A parallel_for issued from inside a worker must degrade to serial
// inline execution — no deadlock, no lost indices, no new threads.
TEST(Concurrency, NestedParallelForRunsInline)
{
    constexpr std::size_t kOuter = 64;
    constexpr std::size_t kInner = 64;
    std::vector<std::atomic<int>> counts(kOuter);
    // The pool starts lazily on the first parallel_for of the process;
    // warm it so the snapshot below sees only threads the nested
    // region itself would create.
    parallel_for(0, kOuter, [](std::size_t) {});
    const std::size_t created_before = parallel_threads_created();
    parallel_for(0, kOuter, [&](std::size_t o) {
        EXPECT_TRUE(parallel_nested());
        parallel_for(0, kInner, [&](std::size_t) {
            counts[o].fetch_add(1, std::memory_order_relaxed);
        });
    });
    for (std::size_t o = 0; o < kOuter; ++o) {
        EXPECT_EQ(counts[o].load(), static_cast<int>(kInner));
    }
    EXPECT_EQ(parallel_threads_created(), created_before);
}

// Chunked variant under the same external contention, accumulating
// into per-submitter atomics.
TEST(Concurrency, ConcurrentChunkedAccumulation)
{
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kN = 4096;
    std::vector<std::atomic<std::size_t>> sums(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([t, &sums] {
            parallel_for_chunked(
                0, kN,
                [&](std::size_t lo, std::size_t hi) {
                    std::size_t local = 0;
                    for (std::size_t i = lo; i < hi; ++i) {
                        local += i;
                    }
                    sums[t].fetch_add(local,
                                      std::memory_order_relaxed);
                });
        });
    }
    for (auto &th : threads) {
        th.join();
    }
    for (std::size_t t = 0; t < kThreads; ++t) {
        EXPECT_EQ(sums[t].load(), kN * (kN - 1) / 2);
    }
}

// Racing gets of one config must construct exactly one Transformer and
// hand every caller the same instance.
TEST(Concurrency, ModelRegistryConstructionRace)
{
    constexpr std::size_t kThreads = 8;
    ModelRegistry registry;
    const ModelConfig cfg = tiny_model("conc-reg", 5);
    std::vector<std::shared_ptr<const Transformer>> got(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back(
            [t, &registry, &cfg, &got] { got[t] = registry.get(cfg); });
    }
    for (auto &th : threads) {
        th.join();
    }
    for (std::size_t t = 1; t < kThreads; ++t) {
        EXPECT_EQ(got[t].get(), got[0].get());
    }
    EXPECT_EQ(registry.misses(), 1u);
    EXPECT_EQ(registry.hits(), kThreads - 1);
    EXPECT_EQ(registry.size(), 1u);
}

// Racing gets of a config whose construction throws: every caller
// sees the exception, the registry is not poisoned (a later retry
// constructs again instead of deadlocking on a dead future).
TEST(Concurrency, ModelRegistryFailureRace)
{
    constexpr std::size_t kThreads = 8;
    ModelRegistry registry;
    ModelConfig bad = tiny_model("conc-bad", 6);
    bad.sim.d_model = 63;  // 63 % 2 heads != 0 -> ctor throws.
    std::atomic<std::size_t> caught{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&registry, &bad, &caught] {
            EXPECT_THROW((void)registry.get(bad), CheckError);
            caught.fetch_add(1, std::memory_order_relaxed);
        });
    }
    for (auto &th : threads) {
        th.join();
    }
    EXPECT_EQ(caught.load(), kThreads);
    EXPECT_EQ(registry.size(), 0u);
    // Not poisoned: a correct config under the same registry works.
    const ModelConfig good = tiny_model("conc-good", 6);
    EXPECT_NE(registry.get(good), nullptr);
}

// Hammer one in-memory ResultCache from several threads: writers
// insert disjoint keys, readers poll until every key lands. All
// synchronization is the cache's own.
TEST(Concurrency, ResultCacheConcurrentHitsAndMisses)
{
    constexpr std::size_t kWriters = 3;
    constexpr std::size_t kKeysPerWriter = 64;
    ResultCache cache;
    const auto key_of = [](std::size_t w, std::size_t k) {
        return "w" + std::to_string(w) + ":k" + std::to_string(k);
    };
    std::vector<std::thread> threads;
    threads.reserve(kWriters + 1);
    for (std::size_t w = 0; w < kWriters; ++w) {
        threads.emplace_back([w, &cache, &key_of] {
            for (std::size_t k = 0; k < kKeysPerWriter; ++k) {
                cache.put(key_of(w, k),
                          static_cast<double>(w * 1000 + k));
                // Read back through the shared table, not a local.
                const auto hit = cache.get(key_of(w, k));
                ASSERT_TRUE(hit.has_value());
                EXPECT_EQ(*hit, static_cast<double>(w * 1000 + k));
            }
        });
    }
    threads.emplace_back([&cache, &key_of] {
        // Reader races the writers; a miss is fine, a torn value is
        // not.
        for (std::size_t pass = 0; pass < 4; ++pass) {
            for (std::size_t w = 0; w < kWriters; ++w) {
                for (std::size_t k = 0; k < kKeysPerWriter; ++k) {
                    const auto hit = cache.get(key_of(w, k));
                    if (hit.has_value()) {
                        EXPECT_EQ(*hit,
                                  static_cast<double>(w * 1000 + k));
                    }
                }
            }
        }
    });
    for (auto &th : threads) {
        th.join();
    }
    EXPECT_EQ(cache.size(), kWriters * kKeysPerWriter);
    EXPECT_EQ(cache.hits() + cache.misses(),
              kWriters * kKeysPerWriter * 5);
}

// Failing jobs race succeeding ones across the pool; failures must be
// captured per job (never escaping a pool worker) with exact counts,
// and the shared harness map must survive concurrent access.
TEST(Concurrency, SweepSchedulerJobFailureRace)
{
    constexpr std::size_t kJobs = 24;
    ResultCache cache;
    ModelRegistry registry;
    SweepOptions opts;
    opts.threads = 4;
    SweepScheduler sweep(&cache, &registry, opts);
    const DatasetSpec ds = tiny_dataset();
    std::atomic<std::size_t> ran{0};
    for (std::size_t j = 0; j < kJobs; ++j) {
        // Two model identities shared across all jobs.
        const ModelConfig cfg =
            tiny_model(j % 2 == 0 ? "conc-sweep-a" : "conc-sweep-b",
                       17 + j % 2);
        sweep.add(cfg, ds, "job-" + std::to_string(j),
                  [j, &ran](SearchHarness &h) {
                      (void)h.model();  // Race the lazy init.
                      ran.fetch_add(1, std::memory_order_relaxed);
                      ANDA_CHECK(j % 3 != 0, "synthetic failure in job ",
                                 j);
                  });
    }
    const SweepReport report = sweep.run();
    EXPECT_EQ(report.jobs, kJobs);
    EXPECT_EQ(ran.load(), kJobs);
    EXPECT_EQ(report.failed, (kJobs + 2) / 3);
    std::size_t reported_errors = 0;
    for (const auto &jr : report.job_reports) {
        if (!jr.error.empty()) {
            ++reported_errors;
            EXPECT_NE(jr.error.find("synthetic failure"),
                      std::string::npos);
        }
    }
    EXPECT_EQ(reported_errors, report.failed);
    // Both identities constructed exactly once despite 24 racing jobs.
    EXPECT_EQ(registry.misses(), 2u);
}

}  // namespace
}  // namespace anda
