// Smoke test of the serving simulator: a table of scenarios that
// together exercise every serving path — priced and executed steps,
// sampled generation, tight paged pools under recompute and swap
// preemption with a shared prefix, survivable fault injection,
// graceful degradation under overload (deadline drops, shedding,
// terminal failures), attention pricing, and an Anda m=7 KV cache
// under a byte budget.
//
// Every run passes serve_test::audit (outcome and token conservation,
// step-log sums, page accounting, replayed step costs, timelines,
// generated tokens). Every scenario also replays itself bit for bit
// and, when executed, matches its pricing-only twin step for step and
// regenerates each completed request standalone through the public
// prefill + decode_step API (serve_test::standalone_tokens). On top of
// that, each scenario checks only what is specific to it, and an
// executed one must reproduce its committed token checksum. Every
// scenario must also reproduce its committed schedule fingerprint
// (serve_test::schedule_fingerprint): the token checksum does not
// depend on the schedule, so the fingerprint is what catches a changed
// victim, step cost or timeline.
//
// Registered as the `serving_smoke` ctest so the serving paths run
// under the sanitizer CI lanes; writes each scenario's summary() line,
// then one `fingerprint` line per scenario, to
// serving_smoke_summary.txt (uploaded as a CI artifact).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "../tests/serve_test_util.h"

namespace {

using namespace anda;

int g_failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        std::fprintf(stderr, "FAIL %s\n", what.c_str());
        ++g_failures;
    }
}

/// Runs `opts` over `spec` on `model` and the Anda system, and
/// audits the report.
ServingReport
run(const std::string &name, const RequestStreamSpec &spec,
    const ServingOptions &opts, const ModelConfig &model)
{
    const std::vector<Request> requests = generate_requests(spec);
    const AcceleratorConfig &system = find_system("anda");
    ServingReport report =
        simulate_serving(model, system, tech16(), requests, opts);
    for (const std::string &v :
         serve_test::audit(report, requests, opts, model, system)) {
        expect(false, name + ": " + v);
    }
    return report;
}

/// summary() less the executed-checksum segment.
std::string
priced_summary(const ServingReport &r)
{
    const std::string s = r.summary();
    const std::size_t cut = s.find("; executed checksum");
    return cut == std::string::npos ? s : s.substr(0, cut) + "\n";
}

/// Whether two runs scheduled identically: every step-log field,
/// every request's timeline and outcome, and every run total.
bool
same_schedule(const ServingReport &a, const ServingReport &b)
{
    if (a.steps != b.steps || priced_summary(a) != priced_summary(b) ||
        a.makespan_s != b.makespan_s ||
        a.total_cycles != b.total_cycles ||
        a.wasted_cycles != b.wasted_cycles ||
        a.step_faults != b.step_faults ||
        a.swap_faults != b.swap_faults ||
        a.swap_out_bytes != b.swap_out_bytes ||
        a.swap_in_bytes != b.swap_in_bytes ||
        a.requests.size() != b.requests.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        const RequestMetrics &x = a.requests[i];
        const RequestMetrics &y = b.requests[i];
        if (x.admitted_s != y.admitted_s ||
            x.first_token_s != y.first_token_s ||
            x.finish_s != y.finish_s || x.outcome != y.outcome ||
            x.preempt_count != y.preempt_count ||
            x.fault_retries != y.fault_retries) {
            return false;
        }
    }
    return true;
}

bool
same_tokens(const ServingReport &a, const ServingReport &b)
{
    if (a.requests.size() != b.requests.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        if (a.requests[i].tokens != b.requests[i].tokens) {
            return false;
        }
    }
    return true;
}

/// One serving configuration and the checks only it needs.
struct Scenario {
    std::string name;
    RequestStreamSpec spec;
    ServingOptions opts;
    void (*specific)(const Scenario &, const ServingReport &);
    /// Committed generated_checksum() of an executed run (0 when
    /// priced only): any change to the executor's numerics or to the
    /// sampled tokens moves it.
    std::uint64_t checksum = 0;
    /// Committed serve_test::schedule_fingerprint() of the run: any
    /// change to a scheduling decision, a priced cost or a run total
    /// moves it.
    std::uint64_t fingerprint = 0;

    /// Executed scenarios price the executor's config (its real dims
    /// are llama-7b's) in every run; the others price llama-7b.
    const ModelConfig &model() const
    {
        return opts.executor ? opts.executor->config()
                             : find_model("llama-7b");
    }
    /// A run of this scenario's stream and model under `other`.
    ServingReport run_with(const std::string &tag,
                           const ServingOptions &other) const
    {
        return run(name + " " + tag, spec, other, model());
    }
    ServingReport reference(const ServingOptions &other) const
    {
        return run_with("reference", other);
    }
    void expect(bool ok, const std::string &what) const
    {
        ::expect(ok, name + ": " + what);
    }
};

void
check_base(const Scenario &s, const ServingReport &r)
{
    // Fault- and stall-free: the clock ends where the last step does.
    s.expect(!r.steps.empty() &&
                 r.makespan_s == r.steps.back().start_s +
                                     static_cast<double>(
                                         r.steps.back().cycles) /
                                         tech16().clock_hz,
             "makespan is not the end of the last step");
}

void
check_paged(const Scenario &s, const ServingReport &r)
{
    ServingOptions roomy = s.opts;
    roomy.page_budget = 64;
    const ServingReport ref = s.reference(roomy);
    s.expect(ref.preemptions == 0, "roomy budget preempted");
    s.expect(r.preemptions > 0, "budget forced no preemption");
    s.expect(r.completed == r.requests.size(), "lost requests");
    s.expect(same_tokens(r, ref), "tokens drifted under preemption");
    s.expect(r.reused_prefix_tokens > 0, "shared prefix never reused");
    s.expect((r.recomputed_tokens > 0) ==
                 (s.opts.preempt == PreemptPolicy::kRecompute),
             "recomputed rows do not match the preempt policy");
}

void
check_chaos(const Scenario &s, const ServingReport &r)
{
    ServingOptions calm = s.opts;
    calm.faults = FaultSpec{};
    calm.swap_gbps = 0.0;
    const ServingReport ref = s.reference(calm);
    s.expect(ref.preemptions > 0, "budget forced no preemption");
    s.expect(r.step_faults > 0, "no step fault injected");
    s.expect(r.swap_faults > 0, "no swap-in fault injected");
    s.expect(r.failed == 0 && r.completed == r.requests.size(),
             "a survivable fault failed a request");
    s.expect(same_tokens(r, ref), "tokens drifted under faults");
    s.expect(r.wasted_cycles > 0, "failed attempts wasted no cycles");
    s.expect(r.makespan_s > ref.makespan_s,
             "faults and swap stalls cost no time");
    s.expect(r.recomputed_tokens > 0,
             "swap-in faults fell back without recompute");
    s.expect(r.swap_bytes > 0 && r.swap_stall_s > 0.0,
             "swap traffic was not priced");
}

void
check_degrade(const Scenario &s, const ServingReport &r)
{
    s.expect(!r.steps.empty(), "no step recorded");
    s.expect(r.dropped > 0, "deadline enforcement never fired");
    s.expect(r.step_faults > 0, "no step fault injected");
}

void
check_attention(const Scenario &s, const ServingReport &r)
{
    // A burst schedules time-independently: the GeMM-only run plans
    // the same tokens, and every step costs its GeMM cycles plus its
    // attention cycles.
    ServingOptions off_opts = s.opts;
    off_opts.attn_pricing = false;
    const ServingReport off = s.reference(off_opts);
    s.expect(r.steps.size() == off.steps.size(),
             "attention pricing changed the schedule");
    for (std::size_t i = 0;
         i < std::min(r.steps.size(), off.steps.size()); ++i) {
        const ServingStep &a = off.steps[i];
        const ServingStep &b = r.steps[i];
        s.expect(a.prefill_tokens == b.prefill_tokens &&
                     a.decode_tokens == b.decode_tokens &&
                     b.cycles == a.cycles + b.attn_cycles &&
                     b.attn_cycles > 0 && b.kv_bytes > 0,
                 "step " + std::to_string(i) +
                     " is not its GeMM plan plus attention");
    }
    s.expect(r.total_cycles == off.total_cycles + r.attn_cycles,
             "total cycles are not GeMM + attention");
    s.expect(r.summary().find("attn") != std::string::npos,
             "summary does not report the attention share");
}

void
check_kv_quant(const Scenario &s, const ServingReport &r)
{
    const KvFormat quant = s.opts.kv_format;
    ServingOptions fp32_opts = s.opts;
    fp32_opts.executor = nullptr;
    fp32_opts.kv_format = KvFormat::fp32();
    const ServingReport fp32 = s.reference(fp32_opts);
    s.expect(ServingOptions{}.kv_format == KvFormat::fp32() &&
                 fp32.kv_format == "fp32" &&
                 fp32.summary().find("kvfmt") == std::string::npos,
             "FP32 is not the unreported default KV format");

    // Capacity: the byte budget derives the page budget from the
    // packed row width, so the same bytes hold >= 3x the pages and,
    // under this overload, >= 3x the resident tokens.
    const ModelDims &dims = s.model().real;
    const auto token_bytes = [&dims](const KvFormat &f) {
        return 2 * static_cast<std::size_t>(dims.n_layers) *
               kv_row_bytes(f, static_cast<std::size_t>(dims.d_model));
    };
    s.expect(fp32.kv_bytes_per_token == token_bytes(KvFormat::fp32()) &&
                 r.kv_bytes_per_token == token_bytes(quant),
             "kv_bytes_per_token does not match the format");
    const std::size_t budget = s.opts.kv_byte_budget;
    const std::size_t page = s.opts.page_size;
    s.expect(fp32.page_budget ==
                     budget / (page * fp32.kv_bytes_per_token) &&
                 r.page_budget == budget / (page * r.kv_bytes_per_token),
             "kv_byte_budget did not derive the page budget");
    s.expect(r.page_budget >= 3 * fp32.page_budget &&
                 r.peak_cache_tokens >= 3 * fp32.peak_cache_tokens,
             "anda-m7 holds < 3x the FP32 resident tokens (" +
                 std::to_string(r.peak_cache_tokens) + " vs " +
                 std::to_string(fp32.peak_cache_tokens) + ")");
    s.expect(r.summary().find("kvfmt " + quant.name()) !=
                 std::string::npos,
             "summary does not name the KV format");

    // Traffic: without capacity pressure the token plan is the FP32
    // one, and the priced K/V stream thins by bits_per_element.
    ServingOptions wide = fp32_opts;
    wide.max_batch = 8;
    wide.kv_byte_budget = 0;
    ServingOptions thin = wide;
    thin.kv_format = quant;
    const ServingReport a = s.reference(wide);
    const ServingReport b = s.reference(thin);
    bool same_plan = a.steps.size() == b.steps.size();
    for (std::size_t i = 0; same_plan && i < a.steps.size(); ++i) {
        same_plan =
            a.steps[i].prefill_tokens == b.steps[i].prefill_tokens &&
            a.steps[i].decode_tokens == b.steps[i].decode_tokens;
    }
    s.expect(same_plan, "KV quantization moved the token plan");
    const double ratio = static_cast<double>(b.kv_dram_bytes) /
                         static_cast<double>(a.kv_dram_bytes);
    s.expect(std::abs(ratio - quant.bits_per_element() / 32.0) <= 0.01,
             "KV DRAM bytes did not shrink by bits_per_element (" +
                 std::to_string(ratio) + ")");
    s.expect(b.attn_cycles < a.attn_cycles,
             "a thinner KV stream did not cut attention cycles");
}

RequestStreamSpec
stream(std::uint64_t seed, int n, double rate, int prompt_min,
       int prompt_max, int output_min, int output_max)
{
    RequestStreamSpec spec;
    spec.seed = seed;
    spec.n_requests = n;
    spec.arrival_rate = rate;  // 0: a burst, maximal pressure.
    spec.prompt_min = prompt_min;
    spec.prompt_max = prompt_max;
    spec.output_min = output_min;
    spec.output_max = output_max;
    return spec;
}

ServingOptions
priced(std::size_t max_batch, std::size_t max_step_tokens)
{
    ServingOptions opts;
    opts.max_batch = max_batch;
    opts.max_step_tokens = max_step_tokens;
    opts.tuple = {8, 7, 7, 6};
    return opts;
}

/// `opts` executed on serve_test::tiny_executor().
ServingOptions
executed(ServingOptions opts, std::uint64_t seed)
{
    opts.executor = &serve_test::tiny_executor();
    opts.exec_run.prec = PrecisionConfig::anda(opts.tuple);
    opts.exec_seed = seed;
    return opts;
}

std::vector<Scenario>
scenarios()
{
    std::vector<Scenario> table;

    // Light open-loop traffic, sampled generation.
    RequestStreamSpec spec = stream(7117, 16, 500.0, 4, 24, 2, 12);
    ServingOptions opts = executed(priced(4, 32), spec.seed);
    opts.exec_temperature = 0.8;
    table.push_back({"base", spec, opts, check_base, 0x935e8267df845cab,
                     0x8295fe211f219bb0});

    // A burst against 11 pages of 8 rows: the largest request alone
    // needs pages(40 + 12 - 1) + pages(6) + 1 = 9, so max_batch = 4
    // preempts, under both policies.
    spec = stream(3344, 16, 0.0, 4, 40, 2, 12);
    opts = executed(priced(4, 24), spec.seed);
    opts.page_size = 8;
    opts.page_budget = 11;
    opts.shared_prefix_len = 6;
    opts.preempt = PreemptPolicy::kRecompute;
    // Both policies generate the same tokens, so share one checksum.
    table.push_back(
        {"paged-recompute", spec, opts, check_paged, 0xf0962c46ffc4d3e2,
         0x786cced9565d998d});
    opts.preempt = PreemptPolicy::kSwap;
    table.push_back(
        {"paged-swap", spec, opts, check_paged, 0xf0962c46ffc4d3e2,
         0xab88e2c7dbcaf6d2});

    // Survivable chaos on the same pool: step faults retry, swap-in
    // faults fall back to recompute, a roomy retry budget fails
    // nobody, and priced swaps stall the timeline.
    spec = stream(6171, 16, 0.0, 4, 40, 2, 12);
    opts = executed(priced(4, 24), spec.seed);
    opts.page_size = 8;
    opts.page_budget = 11;
    opts.preempt = PreemptPolicy::kSwap;
    opts.swap_gbps = 25.0;
    opts.faults.seed = 913;
    opts.faults.step_fail_prob = 0.25;
    opts.faults.swap_fail_prob = 0.5;
    opts.faults.retry_budget = 1000000;
    table.push_back({"chaos", spec, opts, check_chaos, 0x8710cda9a619b70a,
                     0xe2a749ddc5468f1d});

    // Graceful degradation: a classed overload with deadline drops,
    // shedding and a tight retry budget (terminal failures possible),
    // at a narrower tuple than the other scenarios — a step-cost memo
    // leaking across runs would misprice it.
    spec = stream(6172, 48, 4000.0, 4, 96, 2, 24);
    spec.classes = {
        {0, 2.0, 0.0, 0.0},   // batch: no SLO
        {1, 1.0, 0.5, 2.0},   // standard
        {2, 1.0, 0.05, 0.5},  // interactive: tight SLO
    };
    opts = priced(6, 48);
    opts.tuple = {5, 4, 6, 4};
    opts.page_size = 16;
    opts.page_budget = 12;
    opts.preempt = PreemptPolicy::kSwap;
    opts.evict = EvictPolicy::kLowestPriority;
    opts.deadline_policy = DeadlinePolicy::kDropUnmeetable;
    opts.shed_timeout_s = 0.05;
    opts.faults.seed = 4077;
    opts.faults.step_fail_prob = 0.2;
    opts.faults.swap_fail_prob = 0.5;
    opts.faults.retry_budget = 2;
    table.push_back(
        {"degrade", spec, opts, check_degrade, 0, 0x66ff74db03231f25});

    // Attention and KV-traffic pricing on a burst.
    spec = stream(5566, 16, 0.0, 16, 192, 4, 32);
    opts = priced(8, 128);
    opts.attn_pricing = true;
    table.push_back(
        {"attention", spec, opts, check_attention, 0, 0xc56a50dd4fb4ce41});

    // An Anda m=7 KV cache under a 512 MiB byte budget, executed.
    spec = stream(7788, 48, 0.0, 16, 48, 8, 24);
    opts = executed(priced(64, 128), spec.seed);
    opts.attn_pricing = true;
    opts.page_size = 16;
    opts.kv_byte_budget = std::size_t{512} << 20;
    opts.kv_format = KvFormat::anda(7);
    table.push_back(
        {"kv-anda-m7", spec, opts, check_kv_quant, 0xad7ba484c6ebcc33,
         0x48df3d947d67a4b0});
    return table;
}

std::string
hex(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

}  // namespace

int
main()
{
    std::string summary;
    std::string fingerprints;
    for (const Scenario &s : scenarios()) {
        const ServingReport report = s.run_with("run", s.opts);
        s.specific(s, report);
        const ServingReport again = s.run_with("re-run", s.opts);
        s.expect(same_schedule(report, again) && same_tokens(report, again),
                 "run is not deterministic");
        summary += s.name + ": " + report.summary();
        const std::uint64_t fp = serve_test::schedule_fingerprint(report);
        fingerprints += "fingerprint " + s.name + ": " + hex(fp) + "\n";
        s.expect(fp == s.fingerprint,
                 "schedule fingerprint " + hex(fp) +
                     " differs from the committed value");
        if (s.opts.executor == nullptr) {
            continue;
        }
        s.expect(report.generated_checksum() == s.checksum,
                 "executed checksum " + hex(report.generated_checksum()) +
                     " differs from the committed value");

        ServingOptions twin_opts = s.opts;
        twin_opts.executor = nullptr;
        const ServingReport twin = s.run_with("twin", twin_opts);
        s.expect(same_schedule(report, twin),
                 "executed run diverges from its pricing-only twin");
        for (const Request &r : generate_requests(s.spec)) {
            const RequestMetrics &m =
                report.requests[static_cast<std::size_t>(r.id)];
            s.expect(!m.completed() ||
                         m.tokens == serve_test::standalone_tokens(
                                         *s.opts.executor, r, s.opts),
                     "request " + std::to_string(r.id) +
                         " differs from standalone regeneration");
        }
        summary += s.name + " twin: " + twin.summary();
    }

    summary += fingerprints;
    std::fputs(summary.c_str(), stdout);
    std::ofstream("serving_smoke_summary.txt") << summary;
    if (g_failures != 0) {
        std::fprintf(stderr, "serving_smoke: %d failure(s)\n",
                     g_failures);
        return 1;
    }
    std::puts("serving_smoke: OK");
    return 0;
}
