// Chaos smoke test of the SLO-aware fault-tolerant serving layer: a
// seeded fault-injection campaign played through the paged
// continuous-batching scheduler, verified two ways:
//  * survivable chaos — with a roomy retry budget every transient
//    step fault retries and every swap-in fault falls back to
//    recompute; no request fails, every generated token stays
//    bit-identical to a fault-free run, pages conserve after every
//    step, the pricing-only twin logs the identical fault schedule,
//    and the whole run replays deterministically;
//  * graceful degradation — under a priority mix with deadline
//    enforcement, load shedding, and a tight retry budget, every
//    request leaves with exactly one outcome (completed + dropped +
//    shed + failed == admitted) and the per-class rollup sums back to
//    the run totals.
// Registered as the `chaos_smoke` ctest so the fault paths run under
// the sanitizer CI lanes; writes chaos_smoke_summary.txt (uploaded as
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

    const AcceleratorConfig &system = find_system("anda");

    // Tiny executor sharing llama-7b's pricing dims.
    ModelConfig tiny = find_model("llama-7b");
    tiny.name = "chaos-smoke-tiny";
    tiny.sim.d_model = 64;
    tiny.sim.n_layers = 1;
    tiny.sim.n_heads = 2;
    tiny.sim.d_ffn = 128;
    tiny.sim.vocab = 64;
    tiny.sim.max_seq = 64;
    const Transformer tf(tiny);

    std::string summary;

    // --- Part A: survivable chaos keeps every emitted token. ---
    {
        RequestStreamSpec spec;
        spec.seed = 6171;
        spec.n_requests = 16;
        spec.arrival_rate = 0.0;  // Burst: maximal page pressure.
        spec.prompt_min = 4;
        spec.prompt_max = 40;
        spec.output_min = 2;
        spec.output_max = 12;
        const std::vector<Request> requests = generate_requests(spec);

        ServingOptions calm;
        calm.max_batch = 4;
        calm.max_step_tokens = 24;
        calm.tuple = {8, 7, 7, 6};
        calm.page_size = 8;
        calm.page_budget = 11;  // Tight: forces preemption.
        calm.preempt = PreemptPolicy::kSwap;
        calm.executor = &tf;
        calm.exec_run.prec = PrecisionConfig::anda(calm.tuple);
        calm.exec_seed = spec.seed;
        const ServingReport reference =
            simulate_serving(tiny, system, tech16(), requests, calm);
        if (reference.preemptions == 0) {
            fail("budget did not force any preemption");
        }

        ServingOptions chaos = calm;
        chaos.swap_gbps = 25.0;  // Price the swap traffic too.
        chaos.faults.seed = 913;
        chaos.faults.step_fail_prob = 0.25;
        chaos.faults.swap_fail_prob = 0.5;
        chaos.faults.retry_budget = 1000000;  // Survivable.
        const ServingReport run =
            simulate_serving(tiny, system, tech16(), requests, chaos);

        if (run.step_faults == 0) {
            fail("fault campaign injected no step faults");
        }
        if (run.failed != 0 || run.completed != requests.size()) {
            fail("a survivable fault terminally failed a request");
        }
        for (std::size_t i = 0; i < run.requests.size(); ++i) {
            if (run.requests[i].tokens != reference.requests[i].tokens) {
                fail("request " + std::to_string(i) +
                     " tokens drifted under faults");
            }
        }
        for (std::size_t i = 0; i < run.steps.size(); ++i) {
            const ServingStep &s = run.steps[i];
            if (s.used_pages + s.free_pages != chaos.page_budget) {
                fail("step " + std::to_string(i) +
                     " breaks used + free == budget");
            }
        }
        if (run.wasted_cycles == 0) {
            fail("failed attempts wasted no cycles");
        }
        if (run.makespan_s <= reference.makespan_s) {
            fail("faults and swap stalls cost no time");
        }
        if (run.swap_faults > 0 && run.recomputed_tokens == 0) {
            fail("swap-in faults fell back without recompute");
        }
        if (run.swap_bytes == 0 || run.swap_stall_s <= 0.0) {
            fail("swap traffic was not priced");
        }

        // The pricing-only twin sees the identical fault schedule.
        ServingOptions priced = chaos;
        priced.executor = nullptr;
        const ServingReport twin =
            simulate_serving(tiny, system, tech16(), requests, priced);
        if (twin.step_faults != run.step_faults ||
            twin.swap_faults != run.swap_faults ||
            twin.preemptions != run.preemptions ||
            twin.wasted_cycles != run.wasted_cycles ||
            twin.makespan_s != run.makespan_s) {
            fail("pricing-only twin saw a different fault schedule");
        }

        // Determinism: the chaos run replays itself.
        const ServingReport again =
            simulate_serving(tiny, system, tech16(), requests, chaos);
        if (again.summary() != run.summary()) {
            fail("chaos run is not deterministic");
        }

        summary += run.summary();
        summary += reference.summary();
    }

    // --- Part B: graceful degradation conserves every outcome. ---
    {
        RequestStreamSpec spec;
        spec.seed = 6172;
        spec.n_requests = 48;
        spec.arrival_rate = 4000.0;  // Overload.
        spec.prompt_min = 4;
        spec.prompt_max = 96;
        spec.output_min = 2;
        spec.output_max = 24;
        spec.classes = {
            {0, 2.0, 0.0, 0.0},    // batch: no SLO
            {1, 1.0, 0.5, 2.0},    // standard
            {2, 1.0, 0.05, 0.5},   // interactive: tight SLO
        };
        const std::vector<Request> requests = generate_requests(spec);

        ServingOptions opts;
        opts.max_batch = 6;
        opts.max_step_tokens = 48;
        opts.tuple = {8, 7, 7, 6};
        opts.page_size = 16;
        opts.page_budget = 12;
        opts.preempt = PreemptPolicy::kSwap;
        opts.evict = EvictPolicy::kLowestPriority;
        opts.deadline_policy = DeadlinePolicy::kDropUnmeetable;
        opts.shed_timeout_s = 0.05;
        opts.faults.seed = 4077;
        opts.faults.step_fail_prob = 0.2;
        opts.faults.swap_fail_prob = 0.5;
        opts.faults.retry_budget = 2;  // Tight: failures possible.
        // Pricing-only: the degradation invariants are scheduler
        // properties, independent of execution.
        const ServingReport run = simulate_serving(
            find_model("llama-7b"), system, tech16(), requests, opts);

        if (run.completed + run.dropped + run.shed + run.failed !=
            requests.size()) {
            fail("outcomes do not conserve the admitted requests");
        }
        if (run.dropped == 0) {
            fail("deadline enforcement never fired under overload");
        }
        if (run.step_faults == 0) {
            fail("degradation campaign injected no step faults");
        }
        if (run.steps.empty()) {
            fail("degradation run recorded no steps");
        }
        std::size_t drops = 0;
        std::size_t sheds = 0;
        std::size_t failed = 0;
        for (const ServingStep &s : run.steps) {
            drops += s.drops;
            sheds += s.sheds;
            failed += s.failed;
        }
        if (drops != run.dropped || sheds != run.shed ||
            failed != run.failed) {
            fail("step log loses drop / shed / failure events");
        }

        // The per-class rollup sums back to the run totals.
        std::size_t completed = 0;
        std::size_t dropped = 0;
        std::size_t shed = 0;
        std::size_t terminal = 0;
        std::size_t n = 0;
        for (const ClassReport &c : run.by_class()) {
            completed += c.completed;
            dropped += c.dropped;
            shed += c.shed;
            terminal += c.failed;
            n += c.n;
            if (c.ttft_attainment() < 0.0 ||
                c.ttft_attainment() > 1.0 ||
                c.deadline_attainment() < 0.0 ||
                c.deadline_attainment() > 1.0) {
                fail("class attainment out of [0, 1]");
            }
        }
        if (n != requests.size() || completed != run.completed ||
            dropped != run.dropped || shed != run.shed ||
            terminal != run.failed) {
            fail("per-class rollup loses requests");
        }

        // Determinism: the degradation run replays itself.
        const ServingReport again = simulate_serving(
            find_model("llama-7b"), system, tech16(), requests, opts);
        if (again.summary() != run.summary()) {
            fail("degradation run is not deterministic");
        }

        summary += run.summary();
    }

    std::fputs(summary.c_str(), stdout);
    std::ofstream("chaos_smoke_summary.txt") << summary;

    if (g_failures != 0) {
        std::fprintf(stderr, "chaos_smoke: %d failure(s)\n",
                     g_failures);
        return 1;
    }
    std::puts("chaos_smoke: OK");
    return 0;
}
