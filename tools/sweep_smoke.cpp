// Smoke test of the parallel sweep scheduler: 2 tiny models x 1 tiny
// dataset, run twice through SweepScheduler. Verifies that
//  * scheduled (parallel, batched) evaluations are bit-identical to
//    direct serial SearchHarness evaluations with private models, and
//  * the second sweep is served entirely from the result cache.
// Registered as the `sweep_smoke` ctest so the concurrent scheduler +
// registry + batched-forward path runs under the sanitizer CI lane.
// Writes the timing summary to sweep_smoke_summary.txt (uploaded as a
// CI artifact).

#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/result_cache.h"
#include "search/sweep.h"

namespace {

anda::ModelConfig
tiny_model(const std::string &name, const anda::ModelConfig &base)
{
    anda::ModelConfig cfg = base;
    cfg.name = name;
    cfg.sim.d_model = 64;
    cfg.sim.n_layers = 1;
    cfg.sim.n_heads = 2;
    cfg.sim.d_ffn = 128;
    cfg.sim.vocab = 64;
    cfg.sim.max_seq = 32;
    return cfg;
}

int g_failures = 0;

void
check_eq(double got, double want, const std::string &what)
{
    if (std::isnan(got) || got != want) {
        std::fprintf(stderr, "FAIL %s: sweep %.17g != direct %.17g\n",
                     what.c_str(), got, want);
        ++g_failures;
    }
}

}  // namespace

int
main()
{
    using namespace anda;

    const ModelConfig opt = tiny_model("smoke-opt", opt_125m());
    const ModelConfig llama =
        tiny_model("smoke-llama", find_model("llama-7b"));
    const DatasetSpec dataset{"smoke-sim", 1.0, 4242, 4, 12};

    ResultCache cache;
    ModelRegistry registry;  // Local, so counters start at zero.
    SweepScheduler sweep(&cache, &registry, {});

    // 2 models x 2 configs = 4 jobs; both jobs of a model share one
    // harness (and its corpora) and run concurrently.
    struct Result {
        double w4 = 0.0;
        double bfp = 0.0;
    };
    std::vector<Result> results(2);
    const ModelConfig *models[] = {&opt, &llama};
    for (std::size_t m = 0; m < 2; ++m) {
        Result *out = &results[m];
        sweep.add(*models[m], dataset, "w4-baseline",
                  [out](SearchHarness &h) {
                      out->w4 = h.baseline_ppl(Split::kValidation);
                  });
        sweep.add(*models[m], dataset, "bfp-m6",
                  [out](SearchHarness &h) {
                      out->bfp = h.uniform_bfp_ppl(Split::kValidation,
                                                   64, 6);
                  });
    }
    const SweepReport first = sweep.run();

    // Reference: direct serial harnesses with private (unshared)
    // models. Bit-exactness of the batched forward pass means the
    // numbers must agree exactly, whatever the schedule.
    for (std::size_t m = 0; m < 2; ++m) {
        SearchHarness direct(*models[m], dataset, nullptr, nullptr);
        check_eq(results[m].w4,
                 direct.baseline_ppl(Split::kValidation),
                 models[m]->name + " w4");
        check_eq(results[m].bfp,
                 direct.uniform_bfp_ppl(Split::kValidation, 64, 6),
                 models[m]->name + " bfp-m6");
    }
    if (first.jobs != 4 || first.models_constructed != 2 ||
        first.fresh_evaluations == 0) {
        std::fprintf(stderr,
                     "FAIL first sweep stats: jobs=%zu constructed=%zu "
                     "fresh=%zu\n",
                     first.jobs, first.models_constructed,
                     first.fresh_evaluations);
        ++g_failures;
    }

    // Second identical sweep: everything must be memoized.
    std::vector<Result> again(2);
    for (std::size_t m = 0; m < 2; ++m) {
        Result *out = &again[m];
        sweep.add(*models[m], dataset, "w4-baseline",
                  [out](SearchHarness &h) {
                      out->w4 = h.baseline_ppl(Split::kValidation);
                  });
        sweep.add(*models[m], dataset, "bfp-m6",
                  [out](SearchHarness &h) {
                      out->bfp = h.uniform_bfp_ppl(Split::kValidation,
                                                   64, 6);
                  });
    }
    const SweepReport second = sweep.run();
    for (std::size_t m = 0; m < 2; ++m) {
        check_eq(again[m].w4, results[m].w4,
                 models[m]->name + " cached w4");
        check_eq(again[m].bfp, results[m].bfp,
                 models[m]->name + " cached bfp-m6");
    }
    if (second.fresh_evaluations != 0 || second.cache_hits != 4 ||
        second.models_constructed != 0) {
        std::fprintf(stderr,
                     "FAIL second sweep stats: fresh=%zu hits=%zu "
                     "constructed=%zu\n",
                     second.fresh_evaluations, second.cache_hits,
                     second.models_constructed);
        ++g_failures;
    }

    const std::string summary = "first " + first.summary() + "second " +
                                second.summary();
    std::fputs(summary.c_str(), stdout);
    std::ofstream("sweep_smoke_summary.txt") << summary;

    if (g_failures != 0) {
        std::fprintf(stderr, "sweep_smoke: %d failure(s)\n", g_failures);
        return 1;
    }
    std::puts("sweep_smoke: OK");
    return 0;
}
