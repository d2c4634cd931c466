// Fig. 5: LLM sensitivity to BFP group size and preserved mantissa
// bits (OPT-1.3B and LLaMA2-7B on WikiText2-sim).

#include <cstdio>

#include "common/result_cache.h"
#include "common/table.h"
#include "search/harness.h"

int
main()
{
    using namespace anda;
    ResultCache cache;
    // Group size 0 denotes "#channels" (one group per token row).
    const std::vector<int> group_sizes = {1, 8, 16, 32, 64, 128, 0};
    const std::vector<int> mantissas = {13, 12, 11, 10, 9, 8, 7, 6, 5, 4};

    for (const char *name : {"opt-1.3b", "llama2-7b"}) {
        SearchHarness h(find_model(name), find_dataset("wikitext2-sim"),
                        &cache);
        const double base = h.baseline_ppl(Split::kValidation);
        std::vector<std::string> headers = {"GS \\ M"};
        for (int m : mantissas) {
            headers.push_back("M" + std::to_string(m));
        }
        Table table(headers);
        table.set_title(std::string("Fig. 5: PPL vs group size and "
                                    "mantissa bits, ") +
                        name + " (W4A16 baseline PPL " + fmt(base, 2) +
                        ", 1% loss bound " + fmt(base * 1.01, 2) + ")");
        for (int gs : group_sizes) {
            std::vector<std::string> row = {
                gs == 0 ? "#chan" : std::to_string(gs)};
            for (int m : mantissas) {
                row.push_back(
                    fmt(h.uniform_bfp_ppl(Split::kValidation, gs, m), 3));
            }
            table.add_row(row);
        }
        std::fputs(table.to_string().c_str(), stdout);
        std::puts("");
    }
    std::puts("paper: larger groups need longer mantissas; GS=64 "
              "balances parallelism vs accuracy");
    return 0;
}
