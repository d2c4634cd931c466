// Watch Algorithm 1 work: run the adaptive precision combination
// search on any model/dataset/tolerance and print the full trace with
// BOPs and calibration accuracies (the paper's Fig. 9, interactive).

#include <cstdio>
#include <string>

#include "common/result_cache.h"
#include "common/table.h"
#include "search/harness.h"

int
main(int argc, char **argv)
{
    using namespace anda;
    const std::string model_name = argc > 1 ? argv[1] : "opt-125m";
    const std::string dataset = argc > 2 ? argv[2] : "wikitext2-sim";
    const double tolerance = argc > 3 ? std::stod(argv[3]) : 0.01;

    const ModelConfig &model = model_name == "opt-125m"
                                   ? opt_125m()
                                   : find_model(model_name);
    ResultCache cache;
    SearchHarness h(model, find_dataset(dataset), &cache);

    std::printf("searching %s on %s, tolerance %.2f%% "
                "(max 32 iterations)\n",
                model.name.c_str(), dataset.c_str(), 100 * tolerance);
    const SearchResult res = h.search(tolerance, 32);

    Table table({"iter", "tuple", "BOPs/token", "rel acc", "status"});
    for (const auto &s : res.trace) {
        table.add_row({std::to_string(s.iteration),
                       to_string(s.tuple), fmt(s.bops / 1e9, 3) + "G",
                       fmt(s.accuracy, 4),
                       s.accepted ? "new best"
                                  : (s.accuracy < 1.0 - tolerance
                                         ? "fails accuracy"
                                         : "not cheaper")});
    }
    std::fputs(table.to_string().c_str(), stdout);

    if (!res.best) {
        std::puts("no feasible combination found");
        return 1;
    }
    std::printf("\nbest %s: BOPs saving %.2fx vs FP16, weighted "
                "mantissa %.2f bits\n",
                to_string(*res.best).c_str(),
                bops_saving_vs_fp16(model, *res.best),
                weighted_mantissa(model, *res.best));
    std::printf("cache: %zu fresh evaluations this run\n",
                h.evaluations());
    return 0;
}
