// Smoke test of executed token generation in the serving scheduler,
// verified four ways:
//  * determinism — two executed runs must agree on every generated
//    token (checksum, per-request streams);
//  * step replay vs the perf model — every executed step's priced
//    cost is re-derived from build_step_workload / run_workload;
//  * executed-vs-priced parity — the executed run's step log (costs,
//    token counts, cache occupancy) must be bit-identical to the
//    pricing-only run of the same stream: execution never perturbs
//    scheduling;
//  * standalone regeneration — every request, regenerated outside the
//    scheduler by serve_test::standalone_tokens (published prompt and
//    sampler seeds through the public prefill + decode_step API on a
//    slab cache), must reproduce the scheduler's tokens bit for bit
//    (generation is schedule-independent).
// Registered as the `generation_smoke` ctest so the incremental-decode
// path runs under the sanitizer CI lane; writes
// generation_smoke_summary.txt (uploaded as a CI artifact).

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "../tests/serve_test_util.h"

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

    ModelConfig tiny = find_model("llama-7b");
    tiny.name = "generation-smoke-tiny";
    tiny.sim.d_model = 64;
    tiny.sim.n_layers = 1;
    tiny.sim.n_heads = 2;
    tiny.sim.d_ffn = 128;
    tiny.sim.vocab = 64;
    tiny.sim.max_seq = 64;
    const Transformer tf(tiny);

    RequestStreamSpec spec;
    spec.seed = 31337;
    spec.n_requests = 12;
    spec.arrival_rate = 800.0;
    spec.prompt_min = 2;
    spec.prompt_max = 32;
    spec.output_min = 2;
    spec.output_max = 12;
    const std::vector<Request> requests = generate_requests(spec);

    const AcceleratorConfig &system = find_system("anda");
    ServingOptions opts;
    opts.max_batch = 4;
    opts.max_step_tokens = 24;
    opts.tuple = {8, 7, 7, 6};
    opts.executor = &tf;
    opts.exec_run.prec = PrecisionConfig::anda(opts.tuple);
    opts.exec_temperature = 0.8;
    opts.exec_seed = spec.seed;

    // --- Determinism. ---
    const ServingReport report =
        simulate_serving(tiny, system, tech16(), requests, opts);
    const ServingReport again =
        simulate_serving(tiny, system, tech16(), requests, opts);
    if (!report.executed ||
        report.generated_checksum() != again.generated_checksum()) {
        fail("executed generation is not deterministic");
    }
    for (std::size_t i = 0; i < report.requests.size(); ++i) {
        if (report.requests[i].tokens != again.requests[i].tokens) {
            fail("request " + std::to_string(i) +
                 " token streams differ between identical runs");
        }
    }

    // --- Step replay vs the perf model. ---
    std::uint64_t cycles = 0;
    for (std::size_t i = 0; i < report.steps.size(); ++i) {
        const ServingStep &s = report.steps[i];
        const SystemRun replay = run_workload(
            system, tech16(),
            build_step_workload(tiny, s.prefill_tokens,
                                s.decode_tokens, opts.tuple));
        if (replay.cycles != s.cycles) {
            fail("step " + std::to_string(i) +
                 " cost differs from the perf model");
        }
        cycles += s.cycles;
    }
    if (cycles != report.total_cycles) {
        fail("step cycles do not sum to the reported total");
    }

    // --- Executed-vs-priced step-log parity. ---
    ServingOptions priced_opts = opts;
    priced_opts.executor = nullptr;
    const ServingReport priced =
        simulate_serving(tiny, system, tech16(), requests, priced_opts);
    if (priced.steps.size() != report.steps.size()) {
        fail("execution changed the step count");
    } else {
        for (std::size_t i = 0; i < report.steps.size(); ++i) {
            const ServingStep &a = report.steps[i];
            const ServingStep &b = priced.steps[i];
            if (a.start_s != b.start_s || a.cycles != b.cycles ||
                a.prefill_tokens != b.prefill_tokens ||
                a.decode_tokens != b.decode_tokens ||
                a.running != b.running ||
                a.cache_tokens != b.cache_tokens) {
                fail("executed step " + std::to_string(i) +
                     " diverges from the pricing-only log");
            }
        }
    }

    // --- Standalone regeneration through the public decode API. ---
    for (const Request &r : requests) {
        const RequestMetrics &m =
            report.requests[static_cast<std::size_t>(r.id)];
        if (m.id != r.id) {
            fail("request metrics are not in id order");
        } else if (m.tokens !=
                   serve_test::standalone_tokens(tf, r, opts)) {
            fail("request " + std::to_string(r.id) +
                 " scheduler tokens differ from standalone "
                 "regeneration");
        }
    }

    char line[160];
    std::snprintf(line, sizeof line,
                  "generation[%s]: %zu req, %zu generated tok in %zu "
                  "steps, peak cache %zu tok, checksum %llx\n",
                  tiny.name.c_str(), report.requests.size(),
                  report.total_output_tokens, report.steps.size(),
                  report.peak_cache_tokens,
                  static_cast<unsigned long long>(
                      report.generated_checksum()));
    const std::string summary = std::string(line) + report.summary();
    std::fputs(summary.c_str(), stdout);
    std::ofstream("generation_smoke_summary.txt") << summary;

    if (g_failures != 0) {
        std::fprintf(stderr, "generation_smoke: %d failure(s)\n",
                     g_failures);
        return 1;
    }
    std::puts("generation_smoke: OK");
    return 0;
}
