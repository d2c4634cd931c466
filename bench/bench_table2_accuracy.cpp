// Table II: perplexity, accuracy drop (vs the Omniquant-style W4A16
// baseline) and BOPs saving of each computation method on all nine
// models and all three datasets.
//
// The 27 (model, dataset) cells are independent, so they run as jobs
// on the parallel sweep scheduler: models are constructed once and
// shared across datasets through the global ModelRegistry, results are
// memoized in the in-memory cache, and the scheduler prints
// wall-clock / cache statistics at the end. Set ANDA_SWEEP_THREADS=1
// to reproduce the serial (pre-scheduler) schedule, or =N to cap the
// job-level workers.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/result_cache.h"
#include "common/table.h"
#include "search/sweep.h"

namespace {

std::string
cell(double ppl, double loss, double saving)
{
    return anda::fmt(ppl, 2) + " (" + anda::fmt_pct(-100.0 * loss, 2) +
           ", " + anda::fmt_x(saving, 2) + ")";
}

struct Cell {
    double fp16 = 0.0;
    double base = 0.0;
    double figna = 0.0;
    double vsq = 0.0;
    std::string anda01 = "n/a";
    std::string anda1 = "n/a";
};

}  // namespace

int
main()
{
    using namespace anda;
    ResultCache cache;
    SweepScheduler sweep(&cache, &ModelRegistry::global(),
                         SweepOptions::from_env());

    const auto &datasets = standard_datasets();
    const auto &zoo = model_zoo();
    std::vector<std::vector<Cell>> cells(
        datasets.size(), std::vector<Cell>(zoo.size()));

    for (std::size_t d = 0; d < datasets.size(); ++d) {
        for (std::size_t m = 0; m < zoo.size(); ++m) {
            Cell *out = &cells[d][m];
            const ModelConfig *model = &zoo[m];
            sweep.add(zoo[m], datasets[d], "table2-cell",
                      [out, model](SearchHarness &h) {
                          out->fp16 = h.fp16_ppl();
                          out->base =
                              h.baseline_ppl(Split::kValidation);
                          out->figna = h.uniform_bfp_ppl(
                              Split::kValidation, 64, 14);
                          out->vsq = h.uniform_bfp_ppl(
                              Split::kValidation, 64, 4);
                          for (double delta : {0.001, 0.01}) {
                              const SearchResult res =
                                  h.search(delta, 32);
                              if (!res.best) {
                                  continue;
                              }
                              const double ppl = h.tuple_ppl(
                                  Split::kValidation, *res.best);
                              const std::string c = cell(
                                  ppl, accuracy_loss(ppl, out->base),
                                  bops_saving_vs_fp16(*model,
                                                      *res.best));
                              (delta < 0.005 ? out->anda01
                                             : out->anda1) = c;
                          }
                      });
        }
    }

    const SweepReport report = sweep.run();

    for (std::size_t d = 0; d < datasets.size(); ++d) {
        Table table({"model", "FP16", "Omniquant-W4", "FIGNA",
                     "VS-Quant*", "Anda (0.1%)", "Anda (1%)"});
        table.set_title(
            "Table II [" + datasets[d].name +
            "]: PPL (accuracy drop vs W4 baseline, BOPs saving)");
        for (std::size_t m = 0; m < zoo.size(); ++m) {
            const Cell &c = cells[d][m];
            table.add_row(
                {zoo[m].name, fmt(c.fp16, 2),
                 cell(c.base, 0.0, 1.0),
                 cell(c.figna, accuracy_loss(c.figna, c.base),
                      64.0 / 52.0),
                 cell(c.vsq, accuracy_loss(c.vsq, c.base), 4.0),
                 c.anda01, c.anda1});
        }
        std::fputs(table.to_string().c_str(), stdout);
        std::puts("");
    }
    std::puts("* VS-Quant applied directly without its usual "
              "retraining, as in the paper.\n"
              "paper bands (WikiText2): FIGNA drop ~0-0.2% at 1.23x; "
              "VS-Quant drop 11-48% at 4.0x;\n"
              "Anda 0.1%: drop <=0.2% at 1.80-3.10x; Anda 1%: drop "
              "~1% at 2.44-3.31x\n");
    std::fputs(report.summary().c_str(), stdout);
    return report.failed == 0 ? 0 : 1;
}
