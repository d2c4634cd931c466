// Fig. 18: speedup and energy-efficiency improvement of Anda over the
// FP-FP baseline as the accuracy-loss tolerance is relaxed from 0.1%
// to 5%.

#include <cstdio>

#include "common/result_cache.h"
#include "common/table.h"
#include "hw/perf_model.h"
#include "hw/workload.h"
#include "search/harness.h"

int
main()
{
    using namespace anda;
    ResultCache cache;
    const TechParams &tech = tech16();
    const std::vector<double> tolerances = {0.001, 0.002, 0.005,
                                            0.01,  0.02,  0.05};
    const PrecisionTuple fp16_tuple{16, 16, 16, 16};

    std::vector<std::string> headers = {"model"};
    for (double d : tolerances) {
        headers.push_back(fmt_pct(100 * d, 1));
    }
    Table speed(headers);
    speed.set_title("Fig. 18 (left): Anda speedup over FP-FP vs "
                    "tolerated accuracy loss (WikiText2-sim)");
    Table energy(headers);
    energy.set_title("\nFig. 18 (right): Anda energy efficiency over "
                     "FP-FP vs tolerated accuracy loss");

    for (const auto &model : model_zoo()) {
        SearchHarness h(model, find_dataset("wikitext2-sim"), &cache);
        const auto base_ops = build_max_seq_workload(model, fp16_tuple);
        const SystemRun fpfp =
            run_workload(find_system("fp-fp"), tech, base_ops);
        std::vector<std::string> srow = {model.name};
        std::vector<std::string> erow = {model.name};
        for (double delta : tolerances) {
            const SearchResult res = h.search(delta, 32);
            if (!res.best) {
                srow.push_back("n/a");
                erow.push_back("n/a");
                continue;
            }
            const auto ops = build_max_seq_workload(model, *res.best);
            const SystemRun run =
                run_workload(find_system("anda"), tech, ops);
            srow.push_back(fmt_x(
                static_cast<double>(fpfp.cycles) / run.cycles, 2));
            erow.push_back(fmt_x(
                fpfp.total_energy_pj() / run.total_energy_pj(), 2));
        }
        speed.add_row(srow);
        energy.add_row(erow);
    }
    std::fputs(speed.to_string().c_str(), stdout);
    std::fputs(energy.to_string().c_str(), stdout);
    std::puts("\npaper (LLaMA-13B): 1.73x speedup / 2.95x energy at "
              "0.1%, rising to 2.74x / 3.22x at 5%; OPT models gain "
              "more at tight tolerances");
    return 0;
}
