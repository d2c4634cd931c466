// End-to-end deployment pipeline on one model: quantize weights to
// W4A16, search the Anda precision combination on calibration data,
// validate perplexity, and estimate the hardware gains -- the full
// Fig. 1 flow of the paper.

#include <cstdio>
#include <string>

#include "common/result_cache.h"
#include "hw/perf_model.h"
#include "hw/workload.h"
#include "search/harness.h"

int
main(int argc, char **argv)
{
    using namespace anda;
    const std::string model_name = argc > 1 ? argv[1] : "opt-6.7b";
    const double tolerance = argc > 2 ? std::stod(argv[2]) : 0.01;

    const ModelConfig &model = find_model(model_name);
    std::printf("== Anda deployment pipeline: %s (%s family), "
                "tolerance %.2f%% ==\n",
                model.name.c_str(), to_string(model.family).c_str(),
                100 * tolerance);

    // Offline one-shot calibration (reuses the PTQ calibration set).
    ResultCache cache;
    SearchHarness h(model, find_dataset("wikitext2-sim"), &cache);

    std::printf("[1] weight-only quantization (W4A16g128)\n");
    const double fp16 = h.fp16_ppl();
    const double base = h.baseline_ppl(Split::kValidation);
    std::printf("    FP16 PPL %.2f -> W4A16 PPL %.2f (%.2f%% drop)\n",
                fp16, base, 100 * accuracy_loss(base, fp16));

    std::printf("[2] adaptive precision combination search\n");
    const SearchResult res = h.search(tolerance, 32);
    if (!res.best) {
        std::printf("    no feasible combination at this tolerance\n");
        return 1;
    }
    std::printf("    best combination %s after %d iterations "
                "(BOPs saving %.2fx)\n",
                to_string(*res.best).c_str(), res.iterations_used,
                bops_saving_vs_fp16(model, *res.best));

    std::printf("[3] online variable-precision inference\n");
    const double anda_ppl = h.tuple_ppl(Split::kValidation, *res.best);
    std::printf("    Anda PPL %.2f (validation loss %.2f%% vs W4A16)\n",
                anda_ppl, 100 * accuracy_loss(anda_ppl, base));

    std::printf("[4] hardware gains (prefill %d tokens, "
                "Anda vs FP-FP accelerator)\n",
                model.real.max_seq);
    const TechParams &tech = tech16();
    const auto fp_ops =
        build_max_seq_workload(model, {16, 16, 16, 16});
    const auto anda_ops = build_max_seq_workload(model, *res.best);
    const SystemRun fp_run =
        run_workload(find_system("fp-fp"), tech, fp_ops);
    const SystemRun anda_run =
        run_workload(find_system("anda"), tech, anda_ops);
    std::printf("    speedup %.2fx  energy efficiency %.2fx  "
                "(%.1f ms -> %.1f ms, %.1f mJ -> %.1f mJ)\n",
                static_cast<double>(fp_run.cycles) / anda_run.cycles,
                fp_run.total_energy_pj() / anda_run.total_energy_pj(),
                1e3 * fp_run.seconds(tech), 1e3 * anda_run.seconds(tech),
                1e-9 * fp_run.total_energy_pj(),
                1e-9 * anda_run.total_energy_pj());
    return 0;
}
