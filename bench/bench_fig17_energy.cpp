// Fig. 17: energy breakdown (compute / SRAM / DRAM) of each
// accelerator on LLaMA-13B, normalized to the FP-FP total.

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
    const auto &model = find_model("llama-13b");
    const PrecisionTuple fp16_tuple{16, 16, 16, 16};

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
    const double total_ref =
        run_workload(find_system("fp-fp"), tech, base_ops)
            .total_energy_pj();

    Table table({"system", "compute %", "SRAM %", "DRAM %", "total %",
                 "energy saving"});
    table.set_title("Fig. 17: energy breakdown on LLaMA-13B "
                    "(percent of the FP-FP total)");
    auto add = [&](const std::string &label, const std::string &sys,
                   const PrecisionTuple &tuple) {
        const auto ops = build_max_seq_workload(model, tuple);
        const SystemRun r =
            run_workload(find_system(sys), tech, ops);
        const double comp =
            (r.compute_energy_pj + r.bpc_energy_pj) / total_ref;
        const double sram = r.sram_energy_pj() / total_ref;
        const double dram = r.dram_energy_pj / total_ref;
        table.add_row({label, fmt_pct(100 * comp, 1),
                       fmt_pct(100 * sram, 1), fmt_pct(100 * dram, 1),
                       fmt_pct(100 * (comp + sram + dram), 1),
                       fmt_x(total_ref / r.total_energy_pj(), 2)});
    };
    add("FP-FP", "fp-fp", fp16_tuple);
    add("FP-INT", "fp-int", fp16_tuple);
    add("iFPU", "ifpu", fp16_tuple);
    add("FIGNA", "figna", fp16_tuple);
    add("FIGNA-M11 (0.1%)", "figna-m11", fp16_tuple);
    add("FIGNA-M8 (1%)", "figna-m8", fp16_tuple);
    add("Anda (0.1%)", "anda", t01);
    add("Anda (1%)", "anda", t1);
    std::fputs(table.to_string().c_str(), stdout);
    std::puts("\npaper: FP-FP 42/11/48; Anda(1%) 4/5/24 with 3.13x "
              "saving; Anda cuts compute ~90%, SRAM ~54%, DRAM ~50% "
              "vs FP-FP");
    return 0;
}
