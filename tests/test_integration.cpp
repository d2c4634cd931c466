// Integration tests across modules: the full deployment pipeline
// (quantize -> search -> infer -> hardware estimate), cross-module
// bit-exactness (BPC output driving the APU kernel inside a model-
// shaped GeMM), cache-backed search reproducibility, and the parallel
// sweep scheduler against direct serial evaluation.

#include <gtest/gtest.h>

#include "common/result_cache.h"
#include "common/rng.h"
#include "common/table.h"
#include "format/compressor.h"
#include "hw/cycle_sim.h"
#include "hw/perf_model.h"
#include "hw/workload.h"
#include "search/sweep.h"

namespace anda {
namespace {

TEST(Integration, FullPipelineOnOneModel)
{
    // Quantize -> search at 2% on calibration -> validate -> estimate
    // hardware gains. Everything must be self-consistent.
    ResultCache cache;
    const ModelConfig &model = find_model("opt-2.7b");
    SearchHarness h(model, find_dataset("wikitext2-sim"), &cache);

    const double fp16 = h.fp16_ppl();
    const double base = h.baseline_ppl(Split::kValidation);
    EXPECT_GT(base, fp16);

    const SearchResult res = h.search(0.02, 32);
    ASSERT_TRUE(res.best.has_value());
    const PrecisionTuple tuple = *res.best;

    // Calibration accuracy of the chosen tuple meets the tolerance.
    const double cal =
        h.tuple_ppl(Split::kCalibration, tuple);
    EXPECT_LE(accuracy_loss(cal, h.baseline_ppl(Split::kCalibration)),
              0.02 + 1e-9);

    // Validation loss is in the same regime (generalization gap is
    // bounded; the paper notes slight exceedances are normal).
    const double val = h.tuple_ppl(Split::kValidation, tuple);
    EXPECT_LT(accuracy_loss(val, base), 0.06);

    // The tuple saves BOPs and the hardware model turns that into a
    // real speedup and energy win over the FP-FP system.
    EXPECT_GT(bops_saving_vs_fp16(model, tuple), 1.5);
    const TechParams &tech = tech16();
    const auto fp_ops = build_prefill_workload(model, 512,
                                               {16, 16, 16, 16});
    const auto anda_ops = build_prefill_workload(model, 512, tuple);
    const SystemRun fp_run =
        run_workload(find_system("fp-fp"), tech, fp_ops);
    const SystemRun anda_run =
        run_workload(find_system("anda"), tech, anda_ops);
    EXPECT_GT(static_cast<double>(fp_run.cycles) / anda_run.cycles,
              1.4);
    EXPECT_GT(fp_run.total_energy_pj() / anda_run.total_energy_pj(),
              2.0);
}

TEST(Integration, BpcFeedsApuBitExactly)
{
    // Compress a model-shaped activation row through the BPC lane
    // model and run the bit-serial group dot; the result must equal
    // the direct-encoding kernel exactly.
    SplitMix64 rng(99);
    std::vector<float> acts(128);
    for (auto &v : acts) {
        v = static_cast<float>(rng.normal(0.0, 2.0));
        if (rng.uniform() < 0.05) {
            v *= 40.0f;
        }
    }
    std::vector<std::int8_t> w(64);
    for (auto &x : w) {
        x = static_cast<std::int8_t>(static_cast<int>(rng.next() % 15) -
                                     7);
    }
    for (int m : {4, 7, 11}) {
        const AndaTensor via_bpc = bpc_compress(acts, m);
        const AndaTensor direct = AndaTensor::encode(acts, m);
        for (std::size_t g = 0; g < via_bpc.group_count(); ++g) {
            EXPECT_EQ(anda_group_dot(via_bpc.group(g), m, w),
                      anda_group_dot(direct.group(g), m, w))
                << "m=" << m << " g=" << g;
        }
    }
}

TEST(Integration, CachedSearchIsReproducible)
{
    // Two harnesses sharing one cache must agree; the second run must
    // hit the cache for every evaluation.
    ResultCache cache;
    const ModelConfig &model = opt_125m();
    const DatasetSpec &ds = find_dataset("ptb-sim");
    SearchHarness h1(model, ds, &cache);
    const SearchResult r1 = h1.search(0.01, 16);
    const std::size_t fresh1 = h1.evaluations();
    EXPECT_GT(fresh1, 0u);

    SearchHarness h2(model, ds, &cache);
    const SearchResult r2 = h2.search(0.01, 16);
    EXPECT_EQ(h2.evaluations(), 0u);  // All evaluations memoized.
    ASSERT_EQ(r1.best.has_value(), r2.best.has_value());
    if (r1.best) {
        EXPECT_EQ(*r1.best, *r2.best);
    }
    ASSERT_EQ(r1.trace.size(), r2.trace.size());
    for (std::size_t i = 0; i < r1.trace.size(); ++i) {
        EXPECT_EQ(r1.trace[i].tuple, r2.trace[i].tuple);
        EXPECT_DOUBLE_EQ(r1.trace[i].accuracy, r2.trace[i].accuracy);
    }
}

TEST(Integration, WorkloadEnergyMatchesPerGemmSum)
{
    // run_workload must equal the sum of analyze_gemm over the ops,
    // for every system (no hidden cross-GeMM state).
    const TechParams &tech = tech16();
    const auto ops = build_prefill_workload(find_model("llama-7b"), 256,
                                            {8, 7, 7, 6});
    for (const auto &cfg : system_configs()) {
        const SystemRun run = run_workload(cfg, tech, ops);
        std::uint64_t cycles = 0;
        double energy = 0.0;
        for (const auto &op : ops) {
            const GemmCost c =
                analyze_gemm(cfg, tech, op.shape, op.act_mantissa);
            cycles += c.total_cycles;
            energy += c.total_energy_pj();
        }
        EXPECT_EQ(run.cycles, cycles) << cfg.name;
        EXPECT_NEAR(run.total_energy_pj(), energy, 1e-6 * energy)
            << cfg.name;
    }
}

TEST(Integration, SweepSchedulerMatchesDirectHarnesses)
{
    // A mini Table II-style sweep (2 models x 1 dataset, baseline +
    // FIGNA-style BFP per cell) through the parallel scheduler must
    // reproduce direct serial harness evaluations bit for bit, and the
    // registry must construct each model exactly once even though two
    // jobs per model run.
    const DatasetSpec &ds = find_dataset("ptb-sim");
    const ModelConfig &m0 = find_model("opt-1.3b");
    const ModelConfig &m1 = find_model("llama2-7b");

    ResultCache cache;
    ModelRegistry registry;
    SweepScheduler sweep(&cache, &registry);
    double scheduled[2][2] = {{0.0, 0.0}, {0.0, 0.0}};
    const ModelConfig *models[2] = {&m0, &m1};
    for (int i = 0; i < 2; ++i) {
        double *row = scheduled[i];
        sweep.add(*models[i], ds, "w4", [row](SearchHarness &h) {
            row[0] = h.baseline_ppl(Split::kValidation);
        });
        sweep.add(*models[i], ds, "bfp-m14", [row](SearchHarness &h) {
            row[1] = h.uniform_bfp_ppl(Split::kValidation, 64, 14);
        });
    }
    const SweepReport report = sweep.run();
    EXPECT_EQ(report.jobs, 4u);
    EXPECT_EQ(report.models_constructed, 2u);
    EXPECT_EQ(report.fresh_evaluations, 4u);
    EXPECT_GT(report.wall_seconds, 0.0);

    for (int i = 0; i < 2; ++i) {
        SearchHarness direct(*models[i], ds, nullptr, nullptr);
        EXPECT_EQ(scheduled[i][0],
                  direct.baseline_ppl(Split::kValidation))
            << models[i]->name;
        EXPECT_EQ(scheduled[i][1],
                  direct.uniform_bfp_ppl(Split::kValidation, 64, 14))
            << models[i]->name;
    }
}

namespace {

ModelConfig
mini_model(const std::string &name, std::uint64_t seed)
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

}  // namespace

TEST(Integration, RewiredFig6TableIsDiffIdenticalToSerialLoop)
{
    // bench_fig6_model_sensitivity now builds its table through the
    // sweep scheduler; at tiny scale, the scheduler-built table must
    // render diff-identical to the original serial harness loop.
    const std::vector<ModelConfig> zoo = {mini_model("mini-a", 1),
                                          mini_model("mini-b", 2)};
    const DatasetSpec ds{"mini-fig6", 1.0, 808, 3, 8};
    const std::vector<int> mantissas = {8, 6, 4};

    const auto build = [&](auto fill_rows) {
        std::vector<std::vector<std::string>> rows(zoo.size());
        fill_rows(rows);
        Table table({"model", "M8", "M6", "M4"});
        table.set_title("mini fig6");
        for (std::size_t m = 0; m < zoo.size(); ++m) {
            std::vector<std::string> row = {zoo[m].name};
            row.insert(row.end(), rows[m].begin(), rows[m].end());
            table.add_row(row);
        }
        return table.to_string();
    };

    const std::string serial =
        build([&](std::vector<std::vector<std::string>> &rows) {
            for (std::size_t m = 0; m < zoo.size(); ++m) {
                SearchHarness h(zoo[m], ds, nullptr, nullptr);
                const double base =
                    h.baseline_ppl(Split::kValidation);
                for (int mant : mantissas) {
                    const double ppl = h.uniform_bfp_ppl(
                        Split::kValidation, 64, mant);
                    rows[m].push_back(fmt(
                        100.0 * (1.0 - accuracy_loss(ppl, base)), 2));
                }
            }
        });

    const std::string scheduled =
        build([&](std::vector<std::vector<std::string>> &rows) {
            ResultCache cache;
            ModelRegistry registry;
            SweepScheduler sweep(&cache, &registry);
            for (std::size_t m = 0; m < zoo.size(); ++m) {
                std::vector<std::string> *row = &rows[m];
                sweep.add(zoo[m], ds, "fig6-row",
                          [row, &mantissas](SearchHarness &h) {
                              const double base = h.baseline_ppl(
                                  Split::kValidation);
                              for (int mant : mantissas) {
                                  const double ppl = h.uniform_bfp_ppl(
                                      Split::kValidation, 64, mant);
                                  row->push_back(
                                      fmt(100.0 *
                                              (1.0 -
                                               accuracy_loss(ppl,
                                                             base)),
                                          2));
                              }
                          });
            }
            const SweepReport report = sweep.run();
            EXPECT_EQ(report.failed, 0u);
        });

    EXPECT_EQ(scheduled, serial);
}

TEST(Integration, RewiredFig14TableIsDiffIdenticalToSerialLoop)
{
    // Same property for bench_fig14_combinations' search cells.
    const std::vector<ModelConfig> zoo = {mini_model("mini-c", 3),
                                          mini_model("mini-d", 4)};
    const std::vector<DatasetSpec> datasets = {
        {"mini-14a", 1.0, 909, 3, 8}, {"mini-14b", 1.0, 910, 3, 8}};
    const double delta = 0.01;

    const auto build =
        [&](const std::vector<std::vector<std::string>> &cells) {
            Table table({"model", datasets[0].name, datasets[1].name});
            table.set_title("mini fig14");
            for (std::size_t m = 0; m < zoo.size(); ++m) {
                std::vector<std::string> row = {zoo[m].name};
                row.insert(row.end(), cells[m].begin(),
                           cells[m].end());
                table.add_row(row);
            }
            return table.to_string();
        };

    std::vector<std::vector<std::string>> serial_cells(
        zoo.size(), std::vector<std::string>(datasets.size()));
    for (std::size_t m = 0; m < zoo.size(); ++m) {
        for (std::size_t d = 0; d < datasets.size(); ++d) {
            SearchHarness h(zoo[m], datasets[d], nullptr, nullptr);
            const SearchResult res = h.search(delta, 8);
            serial_cells[m][d] =
                res.best ? to_string(*res.best) : "none";
        }
    }

    std::vector<std::vector<std::string>> sched_cells(
        zoo.size(), std::vector<std::string>(datasets.size()));
    ResultCache cache;
    ModelRegistry registry;
    SweepScheduler sweep(&cache, &registry);
    for (std::size_t m = 0; m < zoo.size(); ++m) {
        for (std::size_t d = 0; d < datasets.size(); ++d) {
            std::string *out = &sched_cells[m][d];
            sweep.add(zoo[m], datasets[d], "fig14",
                      [out, delta](SearchHarness &h) {
                          const SearchResult res = h.search(delta, 8);
                          *out = res.best ? to_string(*res.best)
                                          : "none";
                      });
        }
    }
    const SweepReport report = sweep.run();
    EXPECT_EQ(report.failed, 0u);
    // Each model constructed once despite two datasets.
    EXPECT_EQ(report.models_constructed, zoo.size());

    EXPECT_EQ(build(sched_cells), build(serial_cells));
}

TEST(Integration, TighterToleranceCostsMoreOnRealSubstrate)
{
    // On the actual LLM substrate (not a synthetic oracle): relaxing
    // the tolerance can only reduce (or keep) the chosen BOPs.
    ResultCache cache;
    SearchHarness h(opt_125m(), find_dataset("wikitext2-sim"), &cache);
    const SearchResult strict = h.search(0.002, 24);
    const SearchResult loose = h.search(0.02, 24);
    ASSERT_TRUE(strict.best && loose.best);
    EXPECT_GE(strict.best_bops, loose.best_bops);
}

}  // namespace
}  // namespace anda
