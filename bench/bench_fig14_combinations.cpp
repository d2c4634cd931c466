// Fig. 14: identified best precision combinations [Mqkv, Mo, Mu, Md]
// per model, dataset and accuracy tolerance.
//
// The (model, dataset, tolerance) searches are independent, so they
// run as jobs on the parallel sweep scheduler: models are constructed
// once and shared across datasets/tolerances through the global
// ModelRegistry, results are memoized in the in-memory cache,
// and the scheduler prints wall-clock / cache statistics at the end.
// Set ANDA_SWEEP_THREADS=1 for the serial (pre-scheduler) schedule.
// The printed tables are diff-identical to the old serial loops
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

    const std::vector<double> deltas = {0.001, 0.01};
    const auto &datasets = standard_datasets();
    const auto &zoo = model_zoo();
    // cells[delta][model][dataset] = best-tuple label.
    std::vector<std::vector<std::vector<std::string>>> cells(
        deltas.size(),
        std::vector<std::vector<std::string>>(
            zoo.size(), std::vector<std::string>(datasets.size())));

    for (std::size_t t = 0; t < deltas.size(); ++t) {
        for (std::size_t m = 0; m < zoo.size(); ++m) {
            for (std::size_t d = 0; d < datasets.size(); ++d) {
                std::string *out = &cells[t][m][d];
                const double delta = deltas[t];
                sweep.add(zoo[m], datasets[d],
                          "fig14-" + fmt_pct(delta * 100, 1),
                          [out, delta](SearchHarness &h) {
                              const SearchResult res =
                                  h.search(delta, 32);
                              *out = res.best ? to_string(*res.best)
                                              : "none";
                          });
            }
        }
    }
    const SweepReport report = sweep.run();

    for (std::size_t t = 0; t < deltas.size(); ++t) {
        std::vector<std::string> headers = {"model"};
        for (const auto &d : datasets) {
            headers.push_back(d.name);
        }
        Table table(headers);
        table.set_title("Fig. 14: best [Mqkv, Mo, Mu, Md] at " +
                        fmt_pct(deltas[t] * 100, 1) + " tolerance");
        for (std::size_t m = 0; m < zoo.size(); ++m) {
            std::vector<std::string> row = {zoo[m].name};
            for (std::size_t d = 0; d < datasets.size(); ++d) {
                row.push_back(cells[t][m][d]);
            }
            table.add_row(row);
        }
        std::fputs(table.to_string().c_str(), stdout);
        std::puts("");
    }
    std::puts("paper pattern: A_qkv keeps the most bits; A_u/A_d (esp. "
              "A_d on OPT) tolerate aggressive quantization;\nLLaMA "
              "family needs more bits than OPT overall");
    std::fputs(report.summary().c_str(), stdout);
    return report.failed == 0 ? 0 : 1;
}
