// Fig. 6: relative accuracy vs preserved mantissa bits across the
// nine evaluation models (GS = 64, all four modules converted).
//
// One job per model on the parallel sweep scheduler (the mantissa
// sweep inside a job shares the model and corpus); models come from
// the global ModelRegistry and results from the in-memory cache.
// Set ANDA_SWEEP_THREADS=1 for the serial (pre-scheduler) schedule.
// The printed table is diff-identical to the old serial loop
// (asserted at tiny scale by tests/test_integration.cpp).

#include <cstdio>
#include <string>
#include <vector>

#include "common/result_cache.h"
#include "common/table.h"
#include "search/sweep.h"

int
main()
{
    using namespace anda;
    ResultCache cache;
    SweepScheduler sweep(&cache, &ModelRegistry::global(),
                         SweepOptions::from_env());
    const std::vector<int> mantissas = {13, 12, 11, 10, 9, 8, 7, 6, 5, 4};

    const auto &zoo = model_zoo();
    const DatasetSpec &dataset = find_dataset("wikitext2-sim");
    std::vector<std::vector<std::string>> rows(zoo.size());
    for (std::size_t m = 0; m < zoo.size(); ++m) {
        std::vector<std::string> *row = &rows[m];
        const std::vector<int> *ms = &mantissas;
        sweep.add(zoo[m], dataset, "fig6-row",
                  [row, ms](SearchHarness &h) {
                      const double base =
                          h.baseline_ppl(Split::kValidation);
                      for (int mant : *ms) {
                          const double ppl = h.uniform_bfp_ppl(
                              Split::kValidation, 64, mant);
                          row->push_back(fmt(
                              100.0 * (1.0 - accuracy_loss(ppl, base)),
                              2));
                      }
                  });
    }
    const SweepReport report = sweep.run();

    std::vector<std::string> headers = {"model"};
    for (int m : mantissas) {
        headers.push_back("M" + std::to_string(m));
    }
    Table table(headers);
    table.set_title("Fig. 6: relative accuracy (%) vs preserved "
                    "mantissa bits, GS=64, WikiText2-sim\n"
                    "(100% = W4A16 baseline; 99% = paper's 1% loss "
                    "line)");
    for (std::size_t m = 0; m < zoo.size(); ++m) {
        std::vector<std::string> row = {zoo[m].name};
        row.insert(row.end(), rows[m].begin(), rows[m].end());
        table.add_row(row);
    }
    std::fputs(table.to_string().c_str(), stdout);
    std::puts("\npaper: OPT-2.7B/6.7B/13B/30B tolerate ~5 removed "
              "mantissa bits within 1%; OPT-1.3B and the LLaMA family "
              "only ~4");
    std::fputs(report.summary().c_str(), stdout);
    return report.failed == 0 ? 0 : 1;
}
