// Tests of the shared model registry and the parallel sweep scheduler:
// model deduplication and identity keying, scheduled-vs-direct
// equivalence, cache accounting, and harness sharing across jobs.

#include <gtest/gtest.h>

#include <atomic>
#include <vector>

#include "common/parallel.h"
#include "common/result_cache.h"
#include "search/sweep.h"

namespace anda {
namespace {

DatasetSpec
tiny_dataset()
{
    return {"sweep-test", 1.0, 616, 3, 8};
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

TEST(ModelRegistry, SharesOneModelPerConfig)
{
    ModelRegistry registry;
    const ModelConfig cfg = tiny_model("reg-a", 1);
    const auto a = registry.get(cfg);
    const auto b = registry.get(cfg);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_EQ(registry.misses(), 1u);
    EXPECT_EQ(registry.hits(), 1u);
}

TEST(ModelRegistry, DistinguishesModelIdentity)
{
    ModelRegistry registry;
    const ModelConfig base = tiny_model("reg-b", 7);
    ModelConfig other_seed = base;
    other_seed.seed = 8;
    ModelConfig other_profile = base;
    other_profile.profile.channel_sigma += 0.25;
    ModelConfig other_real = base;
    other_real.real.d_model = 4096;  // `real` dims don't affect weights.
    EXPECT_NE(registry.get(base).get(), registry.get(other_seed).get());
    EXPECT_NE(registry.get(base).get(),
              registry.get(other_profile).get());
    EXPECT_EQ(registry.get(base).get(), registry.get(other_real).get());
    EXPECT_EQ(registry.size(), 3u);
}

TEST(ModelRegistry, ConcurrentGetConstructsOnce)
{
    ModelRegistry registry;
    const ModelConfig cfg = tiny_model("reg-c", 3);
    std::vector<std::shared_ptr<const Transformer>> got(8);
    parallel_for(0, got.size(), [&](std::size_t i) {
        got[i] = registry.get(cfg);
    });
    for (const auto &p : got) {
        EXPECT_EQ(p.get(), got[0].get());
    }
    EXPECT_EQ(registry.misses(), 1u);
}

TEST(SweepScheduler, MatchesDirectHarnessExactly)
{
    const ModelConfig a = tiny_model("sweep-a", 11);
    const ModelConfig b = tiny_model("sweep-b", 12);
    const DatasetSpec ds = tiny_dataset();

    ResultCache cache;
    ModelRegistry registry;
    SweepScheduler sweep(&cache, &registry);
    double ppl_a = 0.0;
    double ppl_b = 0.0;
    sweep.add(a, ds, "w4", [&ppl_a](SearchHarness &h) {
        ppl_a = h.baseline_ppl(Split::kValidation);
    });
    sweep.add(b, ds, "w4", [&ppl_b](SearchHarness &h) {
        ppl_b = h.baseline_ppl(Split::kValidation);
    });
    const SweepReport report = sweep.run();
    EXPECT_EQ(report.jobs, 2u);
    EXPECT_EQ(report.models_constructed, 2u);
    EXPECT_EQ(report.fresh_evaluations, 2u);
    EXPECT_EQ(report.job_reports.size(), 2u);
    EXPECT_EQ(report.job_reports[0].model, "sweep-a");
    EXPECT_FALSE(report.summary().empty());

    // The scheduled (batched, possibly concurrent) evaluation must be
    // bit-identical to a direct serial harness with a private model.
    SearchHarness direct_a(a, ds, nullptr, nullptr);
    SearchHarness direct_b(b, ds, nullptr, nullptr);
    EXPECT_EQ(ppl_a, direct_a.baseline_ppl(Split::kValidation));
    EXPECT_EQ(ppl_b, direct_b.baseline_ppl(Split::kValidation));
}

TEST(SweepScheduler, SecondRunIsFullyMemoized)
{
    const ModelConfig a = tiny_model("sweep-c", 21);
    const DatasetSpec ds = tiny_dataset();
    ResultCache cache;
    ModelRegistry registry;
    SweepScheduler sweep(&cache, &registry);

    std::atomic<int> runs{0};
    const auto job = [&runs](SearchHarness &h) {
        h.baseline_ppl(Split::kValidation);
        h.uniform_bfp_ppl(Split::kValidation, 64, 5);
        runs.fetch_add(1);
    };
    sweep.add(a, ds, "pair", job);
    const SweepReport first = sweep.run();
    EXPECT_EQ(first.cache_misses, 2u);
    EXPECT_EQ(first.fresh_evaluations, 2u);

    sweep.add(a, ds, "pair", job);
    const SweepReport second = sweep.run();
    EXPECT_EQ(runs.load(), 2);
    EXPECT_EQ(second.cache_hits, 2u);
    EXPECT_EQ(second.cache_misses, 0u);
    EXPECT_EQ(second.fresh_evaluations, 0u);
    EXPECT_EQ(second.models_constructed, 0u);
}

TEST(SweepScheduler, JobsOnOneModelDatasetShareHarness)
{
    const ModelConfig a = tiny_model("sweep-d", 31);
    const DatasetSpec ds = tiny_dataset();
    SweepScheduler sweep(nullptr, nullptr);  // No cache, private models.
    SearchHarness *seen[2] = {nullptr, nullptr};
    sweep.add(a, ds, "one", [&seen](SearchHarness &h) {
        seen[0] = &h;
    });
    sweep.add(a, ds, "two", [&seen](SearchHarness &h) {
        seen[1] = &h;
    });
    EXPECT_EQ(sweep.pending(), 2u);
    sweep.run();
    EXPECT_EQ(sweep.pending(), 0u);
    EXPECT_NE(seen[0], nullptr);
    EXPECT_EQ(seen[0], seen[1]);
    EXPECT_EQ(&sweep.harness(a, ds), seen[0]);
}

TEST(SweepScheduler, DistinctConfigsSharingANameGetDistinctHarnesses)
{
    // The harness map keys on full model/dataset identity, not names:
    // an ablation sweep reusing one name across seeds must not bind
    // jobs to the wrong model.
    const ModelConfig a = tiny_model("sweep-same-name", 41);
    ModelConfig b = a;
    b.seed = 42;
    DatasetSpec ds_small = tiny_dataset();
    DatasetSpec ds_large = ds_small;
    ds_large.n_sequences = 5;
    SweepScheduler sweep(nullptr, nullptr);
    EXPECT_NE(&sweep.harness(a, ds_small), &sweep.harness(b, ds_small));
    EXPECT_NE(&sweep.harness(a, ds_small), &sweep.harness(a, ds_large));
    EXPECT_EQ(&sweep.harness(a, ds_small), &sweep.harness(a, ds_small));
}

TEST(SweepScheduler, CapturesJobExceptionsInReport)
{
    // Jobs run on pool workers where a throw would terminate the
    // process; the scheduler must catch per job and report instead.
    const ModelConfig a = tiny_model("sweep-throws", 51);
    const DatasetSpec ds = tiny_dataset();
    SweepScheduler sweep(nullptr, nullptr);
    double ok = 0.0;
    sweep.add(a, ds, "bad", [](SearchHarness &) {
        throw std::runtime_error("synthetic job failure");
    });
    sweep.add(a, ds, "good", [&ok](SearchHarness &h) {
        ok = h.baseline_ppl(Split::kValidation);
    });
    const SweepReport report = sweep.run();
    EXPECT_EQ(report.failed, 1u);
    ASSERT_EQ(report.job_reports.size(), 2u);
    EXPECT_EQ(report.job_reports[0].error, "synthetic job failure");
    EXPECT_TRUE(report.job_reports[1].error.empty());
    EXPECT_GT(ok, 1.0);  // The healthy job still ran.
    EXPECT_NE(report.summary().find("FAILED"), std::string::npos);
}

TEST(ModelRegistry, FailedConstructionDoesNotPoisonRetries)
{
    // A config whose Transformer constructor throws must leave no
    // entry behind: a later get() of the same config re-attempts the
    // construction (fresh exception, counted as a miss) instead of
    // replaying a poisoned future, and unrelated configs are
    // untouched.
    ModelRegistry registry;
    ModelConfig bad = tiny_model("reg-bad", 61);
    bad.sim.d_model = 65;  // Not divisible by n_heads = 2: ctor throws.
    EXPECT_THROW(registry.get(bad), std::invalid_argument);
    EXPECT_EQ(registry.size(), 0u);
    EXPECT_EQ(registry.misses(), 1u);
    EXPECT_THROW(registry.get(bad), std::invalid_argument);
    EXPECT_EQ(registry.misses(), 2u);  // A fresh attempt, not a replay.
    EXPECT_EQ(registry.hits(), 0u);

    const ModelConfig good = tiny_model("reg-good", 62);
    EXPECT_NE(registry.get(good), nullptr);
    EXPECT_EQ(registry.size(), 1u);

    // A "fixed" variant of the bad config (same name, valid dims)
    // constructs cleanly -- the name was never poisoned.
    ModelConfig fixed = bad;
    fixed.sim.d_model = 64;
    EXPECT_NE(registry.get(fixed), nullptr);
    EXPECT_EQ(registry.size(), 2u);
}

TEST(SweepScheduler, ConstructionFailureFailsOnlyItsJobs)
{
    // Jobs bound to a model that cannot be constructed must fail with
    // the constructor's message; jobs on healthy models sharing the
    // same sweep (and registry) must be unaffected, and re-running the
    // failed job keeps failing cleanly (no stale registry state).
    ModelConfig bad = tiny_model("sweep-bad-model", 71);
    bad.sim.d_model = 65;  // Throws in construction.
    const ModelConfig good = tiny_model("sweep-good-model", 72);
    const DatasetSpec ds = tiny_dataset();

    ResultCache cache;
    ModelRegistry registry;
    SweepScheduler sweep(&cache, &registry);
    double ok = 0.0;
    sweep.add(bad, ds, "bad-a", [](SearchHarness &h) {
        h.baseline_ppl(Split::kValidation);
    });
    sweep.add(bad, ds, "bad-b", [](SearchHarness &h) {
        h.fp16_ppl();
    });
    sweep.add(good, ds, "good", [&ok](SearchHarness &h) {
        ok = h.baseline_ppl(Split::kValidation);
    });
    const SweepReport first = sweep.run();
    EXPECT_EQ(first.failed, 2u);
    EXPECT_FALSE(first.job_reports[0].error.empty());
    EXPECT_FALSE(first.job_reports[1].error.empty());
    EXPECT_NE(first.job_reports[0].error.find("n_heads"),
              std::string::npos);
    EXPECT_TRUE(first.job_reports[2].error.empty());
    EXPECT_GT(ok, 1.0);
    // Only the good model lives in the registry.
    EXPECT_EQ(registry.size(), 1u);

    // Retry: the bad jobs fail identically (fresh constructions, not
    // poisoned futures); the good job is served from the cache.
    sweep.add(bad, ds, "bad-a", [](SearchHarness &h) {
        h.baseline_ppl(Split::kValidation);
    });
    sweep.add(good, ds, "good", [&ok](SearchHarness &h) {
        ok = h.baseline_ppl(Split::kValidation);
    });
    const SweepReport second = sweep.run();
    EXPECT_EQ(second.failed, 1u);
    EXPECT_EQ(second.job_reports[0].error, first.job_reports[0].error);
    EXPECT_EQ(second.cache_hits, 1u);
    // The re-attempted (and again failed) construction counts as one
    // registry miss; nothing is left behind.
    EXPECT_EQ(second.models_constructed, 1u);
    EXPECT_EQ(registry.size(), 1u);
}

}  // namespace
}  // namespace anda
