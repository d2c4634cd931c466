// Fig. 16: system-level speedup, area efficiency, and energy
// efficiency across accelerators on WikiText2-derived precision
// combinations. All numbers normalized to the GPU-like FP-FP baseline.

#include <cstdio>

#include "common/result_cache.h"
#include "common/stats.h"
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
    const PrecisionTuple fp16_tuple{16, 16, 16, 16};

    const std::vector<std::string> systems = {
        "fp-fp",     "fp-int",   "ifpu",        "figna",
        "figna-m11", "figna-m8", "anda (0.1%)", "anda (1%)"};

    Table speed({"model", systems[0], systems[1], systems[2],
                 systems[3], systems[4], systems[5], systems[6],
                 systems[7]});
    speed.set_title("Fig. 16 (top): speedup vs FP-FP");
    Table areae = speed;
    areae.set_title("\nFig. 16 (middle): area efficiency vs FP-FP");
    Table energye = speed;
    energye.set_title("\nFig. 16 (bottom): energy efficiency vs FP-FP");

    std::vector<std::vector<double>> all_speed(systems.size());
    std::vector<std::vector<double>> all_area(systems.size());
    std::vector<std::vector<double>> all_energy(systems.size());

    const double fpfp_area = system_area_mm2(find_system("fp-fp"), tech);

    for (const auto &model : model_zoo()) {
        SearchHarness h(model, find_dataset("wikitext2-sim"), &cache);
        PrecisionTuple t01 = fp16_tuple;
        PrecisionTuple t1 = fp16_tuple;
        if (const auto r = h.search(0.001, 32); r.best) {
            t01 = *r.best;
        }
        if (const auto r = h.search(0.01, 32); r.best) {
            t1 = *r.best;
        }

        const auto base_ops = build_max_seq_workload(model, fp16_tuple);
        const SystemRun fpfp =
            run_workload(find_system("fp-fp"), tech, base_ops);

        std::vector<std::string> srow = {model.name};
        std::vector<std::string> arow = {model.name};
        std::vector<std::string> erow = {model.name};
        for (std::size_t i = 0; i < systems.size(); ++i) {
            const bool anda01 = systems[i] == "anda (0.1%)";
            const bool anda1 = systems[i] == "anda (1%)";
            const AcceleratorConfig &cfg = find_system(
                anda01 || anda1 ? "anda" : systems[i]);
            const auto ops = build_max_seq_workload(
                model, anda01 ? t01 : (anda1 ? t1 : fp16_tuple));
            const SystemRun run = run_workload(cfg, tech, ops);
            const double speedup =
                static_cast<double>(fpfp.cycles) / run.cycles;
            const double aeff =
                speedup / (system_area_mm2(cfg, tech) / fpfp_area);
            const double eeff =
                fpfp.total_energy_pj() / run.total_energy_pj();
            srow.push_back(fmt_x(speedup, 2));
            arow.push_back(fmt_x(aeff, 2));
            erow.push_back(fmt_x(eeff, 2));
            all_speed[i].push_back(speedup);
            all_area[i].push_back(aeff);
            all_energy[i].push_back(eeff);
        }
        speed.add_row(srow);
        areae.add_row(arow);
        energye.add_row(erow);
    }

    auto geo_row = [&](std::vector<std::vector<double>> &vals) {
        std::vector<std::string> row = {"Geo. Mean"};
        for (auto &v : vals) {
            row.push_back(fmt_x(geomean(v), 2));
        }
        return row;
    };
    speed.add_row(geo_row(all_speed));
    areae.add_row(geo_row(all_area));
    energye.add_row(geo_row(all_energy));

    std::fputs(speed.to_string().c_str(), stdout);
    std::fputs(areae.to_string().c_str(), stdout);
    std::fputs(energye.to_string().c_str(), stdout);
    std::puts("\npaper geomeans: speedup {1.00 1.00 1.00 1.00 1.45 2.00 "
              "2.14 2.49}, area eff {1.00 1.23 1.60 1.72 2.55 3.60 3.47 "
              "4.03},\nenergy eff {1.00 1.25 1.42 1.53 1.69 1.94 3.07 "
              "3.16}");
    return 0;
}
