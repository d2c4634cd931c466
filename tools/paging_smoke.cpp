// Smoke test of the paged KV-cache serving policy: an overloaded
// burst of requests played through the continuous-batching scheduler
// under a page budget far below the working set, verified four ways:
//  * page conservation — used + free pages equal the budget after
//    every step, occupancy never exceeds the budget, and every
//    fragmentation sample stays in [0, 1];
//  * preempt/readmit replay — the tight-budget run must preempt, yet
//    every request finishes and, in execution mode, every generated
//    token is bit-identical to a roomy-budget run that never preempts
//    (for both PreemptPolicy values);
//  * token conservation — prefill rows equal prompt rows plus
//    recompute-policy re-prefills minus adopted shared-prefix rows,
//    decode rows equal output rows minus the prefill-emitted firsts;
//  * pricing/execution parity — the executed run's step log (costs,
//    tokens, pages, preemptions) is bit-identical to the pricing-only
//    run driving an accounting-only page pool.
// Registered as the `paging_smoke` ctest so the paged path runs under
// the sanitizer CI lane; writes paging_smoke_summary.txt (uploaded as
// a CI artifact).

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "llm/transformer.h"
#include "serve/serving_sim.h"

namespace {

int g_failures = 0;

void
fail(const std::string &what)
{
    std::fprintf(stderr, "FAIL %s\n", what.c_str());
    ++g_failures;
}

}  // namespace

int
main()
{
    using namespace anda;

    RequestStreamSpec spec;
    spec.seed = 3344;
    spec.n_requests = 16;
    spec.arrival_rate = 0.0;  // Burst: maximal page pressure.
    spec.prompt_min = 4;
    spec.prompt_max = 40;
    spec.output_min = 2;
    spec.output_max = 12;
    const std::vector<Request> requests = generate_requests(spec);

    const AcceleratorConfig &system = find_system("anda");

    // Tiny executor sharing llama-7b's pricing dims.
    ModelConfig tiny = find_model("llama-7b");
    tiny.name = "paging-smoke-tiny";
    tiny.sim.d_model = 64;
    tiny.sim.n_layers = 1;
    tiny.sim.n_heads = 2;
    tiny.sim.d_ffn = 128;
    tiny.sim.vocab = 64;
    tiny.sim.max_seq = 64;
    const Transformer tf(tiny);

    ServingOptions base;
    base.max_batch = 4;
    base.max_step_tokens = 24;
    base.tuple = {8, 7, 7, 6};
    base.page_size = 8;
    base.shared_prefix_len = 6;
    base.executor = &tf;
    base.exec_run.prec = PrecisionConfig::anda(base.tuple);
    base.exec_seed = spec.seed;

    // Roomy reference: enough pages that nothing is ever preempted.
    ServingOptions roomy = base;
    roomy.page_budget = 64;
    const ServingReport reference =
        simulate_serving(tiny, system, tech16(), requests, roomy);
    if (reference.preemptions != 0) {
        fail("roomy budget unexpectedly preempted");
    }

    std::string summary;
    for (const PreemptPolicy policy :
         {PreemptPolicy::kRecompute, PreemptPolicy::kSwap}) {
        const char *tag = policy == PreemptPolicy::kRecompute
                              ? "recompute"
                              : "swap";
        // Tight: the largest footprint is pages(40 + 12 - 1) + pages(
        // 6) + 1 = 9 pages of 8 rows; 11 pages forces heavy
        // preemption at max_batch = 4.
        ServingOptions tight = base;
        tight.page_budget = 11;
        tight.preempt = policy;
        const ServingReport run =
            simulate_serving(tiny, system, tech16(), requests, tight);

        // --- Page conservation after every step. ---
        for (std::size_t i = 0; i < run.steps.size(); ++i) {
            const ServingStep &s = run.steps[i];
            if (s.used_pages + s.free_pages != tight.page_budget) {
                fail(std::string(tag) + " step " + std::to_string(i) +
                     " breaks used + free == budget");
            }
            // No per-step rows-vs-pages bound here: with a shared
            // prefix, adopted pages count once in used_pages but
            // their rows count once per adopting sequence.
        }
        if (run.peak_used_pages > tight.page_budget) {
            fail(std::string(tag) + " peak pages exceed the budget");
        }
        const double frag = run.mean_fragmentation();
        if (!(frag >= 0.0 && frag <= 1.0)) {
            fail(std::string(tag) + " fragmentation out of [0, 1]");
        }

        // --- Preempt/readmit replay: preemption fired, everything
        // finished, and the generated tokens match the roomy run
        // bit for bit. ---
        if (run.preemptions == 0) {
            fail(std::string(tag) +
                 " budget did not force any preemption");
        }
        if (run.readmits != run.preemptions) {
            fail(std::string(tag) +
                 " preempted requests were not all readmitted");
        }
        if (run.requests.size() != requests.size()) {
            fail(std::string(tag) + " lost requests");
        }
        for (std::size_t i = 0; i < run.requests.size(); ++i) {
            if (run.requests[i].finish_s <= 0.0) {
                fail(std::string(tag) + " request " +
                     std::to_string(i) + " never finished");
            }
            if (run.requests[i].tokens != reference.requests[i].tokens) {
                fail(std::string(tag) + " request " +
                     std::to_string(i) +
                     " tokens drifted under preemption");
            }
        }

        // --- Token conservation across preemption and reuse. ---
        std::size_t prefill = 0;
        std::size_t decode = 0;
        for (const ServingStep &s : run.steps) {
            prefill += s.prefill_tokens;
            decode += s.decode_tokens;
        }
        if (prefill + run.reused_prefix_tokens !=
            run.total_prompt_tokens + run.recomputed_tokens) {
            fail(std::string(tag) + " prefill rows not conserved");
        }
        if (decode != run.total_output_tokens - run.requests.size()) {
            fail(std::string(tag) + " decode rows not conserved");
        }
        if (policy == PreemptPolicy::kSwap &&
            run.recomputed_tokens != 0) {
            fail("swap policy recomputed rows");
        }
        if (run.reused_prefix_tokens == 0) {
            fail(std::string(tag) + " shared prefix was never reused");
        }

        // --- Pricing/execution parity: identical step log. ---
        ServingOptions priced = tight;
        priced.executor = nullptr;
        const ServingReport twin =
            simulate_serving(tiny, system, tech16(), requests, priced);
        if (twin.steps.size() != run.steps.size()) {
            fail(std::string(tag) +
                 " pricing-only twin steps a different schedule");
        } else {
            for (std::size_t i = 0; i < run.steps.size(); ++i) {
                const ServingStep &a = run.steps[i];
                const ServingStep &b = twin.steps[i];
                if (a.cycles != b.cycles ||
                    a.prefill_tokens != b.prefill_tokens ||
                    a.decode_tokens != b.decode_tokens ||
                    a.cache_tokens != b.cache_tokens ||
                    a.used_pages != b.used_pages ||
                    a.free_pages != b.free_pages ||
                    a.preemptions != b.preemptions) {
                    fail(std::string(tag) + " executed step " +
                         std::to_string(i) +
                         " diverges from the pricing-only twin");
                }
            }
        }
        if (twin.preemptions != run.preemptions ||
            twin.readmits != run.readmits ||
            twin.reused_prefix_tokens != run.reused_prefix_tokens ||
            twin.recomputed_tokens != run.recomputed_tokens ||
            twin.makespan_s != run.makespan_s) {
            fail(std::string(tag) +
                 " pricing-only twin totals diverge");
        }

        // --- Determinism: the tight run replays itself. ---
        const ServingReport again =
            simulate_serving(tiny, system, tech16(), requests, tight);
        if (again.summary() != run.summary()) {
            fail(std::string(tag) + " run is not deterministic");
        }

        summary += run.summary();
    }
    summary += reference.summary();

    std::fputs(summary.c_str(), stdout);
    std::ofstream("paging_smoke_summary.txt") << summary;

    if (g_failures != 0) {
        std::fprintf(stderr, "paging_smoke: %d failure(s)\n",
                     g_failures);
        return 1;
    }
    std::puts("paging_smoke: OK");
    return 0;
}
