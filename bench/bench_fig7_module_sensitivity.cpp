// Fig. 7: per-module sensitivity -- cutting mantissa bits on only one
// of Aqkv / Ao / Au / Ad (others fixed at 13 bits).

#include <cstdio>

#include "common/result_cache.h"
#include "common/table.h"
#include "search/harness.h"

int
main()
{
    using namespace anda;
    ResultCache cache;
    const std::vector<int> mantissas = {13, 11, 9, 8, 7, 6, 5, 4};
    const char *module_names[4] = {"A_qkv", "A_o", "A_u", "A_d"};

    for (const char *name : {"opt-6.7b", "llama-7b", "llama2-7b"}) {
        SearchHarness h(find_model(name), find_dataset("wikitext2-sim"),
                        &cache);
        const double base = h.baseline_ppl(Split::kValidation);
        std::vector<std::string> headers = {"module"};
        for (int m : mantissas) {
            headers.push_back("M" + std::to_string(m));
        }
        Table table(headers);
        table.set_title(std::string("Fig. 7: relative accuracy (%) "
                                    "cutting one module only, ") +
                        name);
        for (int mod = 0; mod < 4; ++mod) {
            std::vector<std::string> row = {module_names[mod]};
            for (int m : mantissas) {
                PrecisionTuple t{13, 13, 13, 13};
                t[static_cast<std::size_t>(mod)] = m;
                const double ppl = h.tuple_ppl(Split::kValidation, t);
                row.push_back(
                    fmt(100.0 * (1.0 - accuracy_loss(ppl, base)), 2));
            }
            table.add_row(row);
        }
        std::fputs(table.to_string().c_str(), stdout);
        std::puts("");
    }
    std::puts("paper: A_qkv consistently most sensitive; A_d tolerant "
              "in OPT but more pronounced in the LLaMA family");
    return 0;
}
