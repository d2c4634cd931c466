// Fig. 9: search trajectory of the adaptive precision combination
// search on OPT-125M under a 1% accuracy-loss constraint.

#include <cstdio>

#include "common/result_cache.h"
#include "common/table.h"
#include "search/harness.h"

int
main()
{
    using namespace anda;
    ResultCache cache;
    SearchHarness h(opt_125m(), find_dataset("wikitext2-sim"), &cache);
    const SearchResult res = h.search(0.01, 32);

    const double figna_bops =
        uniform_bops_per_token(h.config(), kFignaEffectiveBits);
    Table table({"iter", "combination", "BOPs vs FIGNA", "rel accuracy",
                 "accepted", "best so far"});
    table.set_title("Fig. 9: adaptive precision search on OPT-125M "
                    "(delta = 1%, WikiText2-sim calibration)");
    for (const auto &s : res.trace) {
        table.add_row({"#" + std::to_string(s.iteration),
                       to_string(s.tuple), fmt(s.bops / figna_bops, 3),
                       fmt(s.accuracy, 4), s.accepted ? "yes" : "",
                       s.has_best ? to_string(s.best_so_far) : "none"});
    }
    std::fputs(table.to_string().c_str(), stdout);
    if (res.best) {
        std::printf("\nbest: %s  BOPs saving vs FP16: %.2fx  "
                    "(paper: [7, 7, 6, 5] in 10 iterations)\n",
                    to_string(*res.best).c_str(),
                    bops_saving_vs_fp16(h.config(), *res.best));
        const double val =
            h.tuple_ppl(Split::kValidation, *res.best);
        const double base = h.baseline_ppl(Split::kValidation);
        std::printf("validation loss of best: %.2f%%\n",
                    100.0 * accuracy_loss(val, base));
    }
    return 0;
}
