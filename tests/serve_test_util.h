#pragma once

/// @file
/// Shared fixtures of the serving-layer tests (tests/test_serve.cpp)
/// and tools/serving_smoke: one busy request stream, one tiny
/// execution substrate that shares llama-7b's pricing dimensions, the
/// execution options that drive it, the standalone-regeneration token
/// oracle, and audit(), the invariant checker every serving run must
/// pass. Kept header-only and gtest-free so both the gtest suites and
/// the standalone smoke binary can include it.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hw/perf_model.h"
#include "serve/serving_sim.h"

namespace anda {
namespace serve_test {

/// A busy stream: arrivals overlap service, mixed prompt/output sizes.
inline RequestStreamSpec
small_spec()
{
    RequestStreamSpec spec;
    spec.seed = 4242;
    spec.n_requests = 24;
    spec.arrival_rate = 2000.0;
    spec.prompt_min = 4;
    spec.prompt_max = 96;
    spec.output_min = 2;
    spec.output_max = 24;
    return spec;
}

/// small_spec() carrying a three-class priority mix (batch /
/// standard / interactive) — the robustness tests' default traffic.
/// Arrivals and lengths are bit-identical to small_spec(): the class
/// stream is independent of the other draws.
inline RequestStreamSpec
classed_spec()
{
    RequestStreamSpec spec = small_spec();
    spec.classes = {
        {0, 2.0, 0.0, 0.0},    // batch: no SLO
        {1, 1.0, 0.5, 2.0},    // standard
        {2, 1.0, 0.05, 0.5},   // interactive: tight SLO
    };
    return spec;
}

/// Tiny accuracy substrate sharing llama-7b's pricing (real) dims, so
/// executed runs must replay priced runs exactly.
inline const Transformer &
tiny_executor()
{
    static const Transformer m([] {
        ModelConfig cfg = find_model("llama-7b");
        cfg.name = "serve-exec-tiny";
        cfg.sim.d_model = 64;
        cfg.sim.n_layers = 1;
        cfg.sim.n_heads = 2;
        cfg.sim.d_ffn = 128;
        cfg.sim.vocab = 64;
        cfg.sim.max_seq = 128;
        return cfg;
    }());
    return m;
}

/// The stream the execution-mode tests play through tiny_executor().
inline RequestStreamSpec
exec_spec()
{
    RequestStreamSpec spec;
    spec.seed = 99;
    spec.n_requests = 12;
    spec.arrival_rate = 1000.0;
    spec.prompt_min = 2;
    spec.prompt_max = 40;
    spec.output_min = 2;
    spec.output_max = 16;
    return spec;
}

/// Execution-mode options bound to tiny_executor().
inline ServingOptions
exec_opts()
{
    ServingOptions opts;
    opts.max_batch = 4;
    opts.max_step_tokens = 24;
    opts.tuple = {8, 7, 7, 6};
    opts.executor = &tiny_executor();
    opts.exec_run.prec = PrecisionConfig::anda(opts.tuple);
    opts.exec_seed = 7;
    return opts;
}

/// Runs `spec` through the pricing-only scheduler on llama-7b/anda.
inline ServingReport
run_priced(const ServingOptions &opts, const RequestStreamSpec &spec,
           const std::string &system = "anda")
{
    const auto requests = generate_requests(spec);
    return simulate_serving(find_model("llama-7b"), find_system(system),
                            tech16(), requests, opts);
}

/// Runs `spec` through the executing scheduler on tiny_executor().
inline ServingReport
run_executed(const ServingOptions &opts, const RequestStreamSpec &spec)
{
    return simulate_serving(tiny_executor().config(),
                            find_system("anda"), tech16(),
                            generate_requests(spec), opts);
}

/// FNV-1a fingerprint of a run's schedule: every ServingStep field,
/// each request's admission, first-token and finish times (as bits),
/// outcome, preemption and retry counts, and the run totals. Executed
/// token checksums do not depend on the schedule by design, so this is
/// what pins a changed victim or step cost.
inline std::uint64_t
schedule_fingerprint(const ServingReport &r)
{
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64 offset.
    const auto mix = [&h](std::uint64_t x) {
        for (int b = 0; b < 8; ++b) {
            h ^= (x >> (8 * b)) & 0xffull;
            h *= 0x100000001b3ull;
        }
    };
    const auto bits = [&mix](double x) {
        mix(std::bit_cast<std::uint64_t>(x));
    };
    mix(r.steps.size());
    for (const ServingStep &s : r.steps) {
        bits(s.start_s);
        mix(s.cycles);
        mix(s.prefill_tokens);
        mix(s.decode_tokens);
        mix(s.running);
        mix(s.cache_tokens);
        mix(s.used_pages);
        mix(s.free_pages);
        mix(s.preemptions);
        mix(s.drops);
        mix(s.sheds);
        mix(s.fault_retries);
        mix(s.failed);
        bits(s.swap_stall_s);
        mix(s.attn_cycles);
        mix(s.kv_bytes);
    }
    mix(r.requests.size());
    for (const RequestMetrics &m : r.requests) {
        bits(m.admitted_s);
        bits(m.first_token_s);
        bits(m.finish_s);
        mix(static_cast<std::uint64_t>(m.outcome));
        mix(m.preempt_count);
        mix(m.fault_retries);
    }
    for (const std::uint64_t total : std::initializer_list<std::uint64_t>{
             r.total_cycles, r.total_prompt_tokens, r.total_output_tokens,
             r.peak_batch, r.peak_cache_tokens, r.page_budget,
             r.preemptions, r.readmits, r.peak_used_pages,
             r.reused_prefix_tokens, r.recomputed_tokens, r.completed,
             r.dropped, r.shed, r.failed, r.step_faults, r.swap_faults,
             r.wasted_cycles, r.swap_bytes, r.swap_out_bytes,
             r.swap_in_bytes, r.attn_cycles, r.kv_dram_bytes}) {
        mix(total);
    }
    bits(r.makespan_s);
    bits(r.swap_stall_s);
    return h;
}

/// The token oracle of executed serving: request `r` regenerated
/// outside the scheduler from its published prompt and sampler stream
/// (exec_prompt_tokens / exec_sampler_seed, at opts' seed, shared
/// prefix, temperature and formats) through the public prefill +
/// decode_step API on a private slab KvCache. Generation is
/// schedule-independent, so every scheduled run of `opts` on `tf` must
/// emit exactly these tokens, whatever its batching, preemption or
/// prefix reuse; it also cross-checks the scheduler's paged layout
/// against the slab one.
inline std::vector<int>
standalone_tokens(const Transformer &tf, const Request &r,
                  const ServingOptions &opts)
{
    const std::vector<int> prompt =
        exec_prompt_tokens(tf.dims().vocab, r.prompt_len, opts.exec_seed,
                           r.id, opts.shared_prefix_len);
    SplitMix64 rng(exec_sampler_seed(opts.exec_seed, r.id));
    KvCache cache = tf.make_cache(opts.kv_format);
    BatchKvCache batch;
    batch.add(cache);
    std::vector<int> tokens = {
        exec_pick_token(tf.prefill(cache, prompt, opts.exec_run),
                        opts.exec_temperature, rng)};
    while (static_cast<int>(tokens.size()) < r.output_len) {
        const int tok = tokens.back();
        const Matrix logits = tf.decode_step(
            batch, std::span<const int>(&tok, 1), opts.exec_run);
        tokens.push_back(exec_pick_token(logits.row(0),
                                         opts.exec_temperature, rng));
    }
    return tokens;
}

/// Checks every invariant a serving run must satisfy against the
/// inputs that produced it (`report` = simulate_serving(model, system,
/// tech16(), requests, opts)) and returns one line per violation —
/// empty when the report is clean:
///  * outcomes — completed + dropped + shed + failed == requests,
///    per-request outcomes agree, and by_class() sums back;
///  * step log vs report — step sums equal the totals (cycles,
///    attention cycles, KV bytes, preemptions, drops, sheds, failed,
///    fault_retries == step_faults, swap stall);
///  * pages — used + free == page_budget on every step, and
///    peak_used_pages is the maximum over steps;
///  * step shape — running <= max_batch, rows within the step budget,
///    and no step starts before the previous one ended;
///  * replay — every step's GeMM share (cycles - attn_cycles) equals a
///    fresh run_workload(build_step_workload(...));
///  * pricing off — attention fields are zero without attn_pricing,
///    swap traffic is zero at swap_gbps == 0, and swap_bytes ==
///    swap_out_bytes + swap_in_bytes;
///  * token conservation, when every request completed;
///  * per-request timeline — admission, first token and finish in
///    order, inside the makespan;
///  * executed runs — every completed request carries output_len
///    in-vocab tokens; pricing-only runs carry none.
inline std::vector<std::string>
audit(const ServingReport &report, std::span<const Request> requests,
      const ServingOptions &opts, const ModelConfig &model,
      const AcceleratorConfig &system)
{
    std::vector<std::string> violations;
    const auto check = [&violations](bool ok, const std::string &what) {
        if (!ok) {
            violations.push_back(what);
        }
    };
    const std::size_t n = requests.size();

    // --- Outcomes: every request leaves exactly once. ---
    check(report.requests.size() == n,
          "report lists " + std::to_string(report.requests.size()) +
              " of " + std::to_string(n) + " requests");
    const std::size_t left =
        report.completed + report.dropped + report.shed + report.failed;
    check(left == n, "outcomes do not conserve the requests");
    std::vector<Request> inputs(requests.begin(), requests.end());
    std::sort(inputs.begin(), inputs.end(),
              [](const Request &a, const Request &b) { return a.id < b.id; });
    std::size_t outcomes[4] = {};
    std::size_t prompt_rows = 0;
    std::size_t output_rows = 0;
    std::size_t preempt_counts = 0;
    for (std::size_t i = 0; i < std::min(n, report.requests.size()); ++i) {
        const Request &r = inputs[i];
        const RequestMetrics &m = report.requests[i];
        check(m.id == r.id && m.arrival_s == r.arrival_s &&
                  m.prompt_len == r.prompt_len &&
                  m.output_len == r.output_len,
              "request " + std::to_string(r.id) +
                  " metrics do not echo its input (id order)");
        ++outcomes[static_cast<std::size_t>(m.outcome)];
        prompt_rows += static_cast<std::size_t>(r.prompt_len);
        output_rows += static_cast<std::size_t>(r.output_len);
        preempt_counts += m.preempt_count;
    }
    check(outcomes[0] == report.completed &&
              outcomes[1] == report.dropped &&
              outcomes[2] == report.shed && outcomes[3] == report.failed,
          "per-request outcomes disagree with the outcome totals");
    check(report.total_prompt_tokens == prompt_rows &&
              report.total_output_tokens == output_rows,
          "prompt / output totals do not sum the requests");
    ClassReport classes;
    for (const ClassReport &c : report.by_class()) {
        classes.n += c.n;
        classes.completed += c.completed;
        classes.dropped += c.dropped;
        classes.shed += c.shed;
        classes.failed += c.failed;
        classes.preemptions += c.preemptions;
        check(c.ttft_attainment() >= 0.0 && c.ttft_attainment() <= 1.0 &&
                  c.deadline_attainment() >= 0.0 &&
                  c.deadline_attainment() <= 1.0,
              "class " + std::to_string(c.priority) +
                  " attainment out of [0, 1]");
    }
    check(classes.n == n && classes.completed == report.completed &&
              classes.dropped == report.dropped &&
              classes.shed == report.shed &&
              classes.failed == report.failed &&
              classes.preemptions == report.preemptions,
          "per-class rollup does not sum to the run totals");
    check(preempt_counts == report.preemptions &&
              report.readmits <= report.preemptions,
          "preemption counts disagree (per request / readmits)");

    // --- The step log: shape, pages, replayed cost, sums. ---
    const std::size_t step_rows =
        std::max(opts.max_step_tokens, opts.max_batch);
    ServingStep sum;
    double prev_end = 0.0;
    std::size_t peak_pages = 0;
    std::size_t peak_rows = 0;
    for (std::size_t i = 0; i < report.steps.size(); ++i) {
        const ServingStep &s = report.steps[i];
        const std::string at = "step " + std::to_string(i);
        const std::size_t rows = s.prefill_tokens + s.decode_tokens;
        check(s.running >= 1 && s.running <= opts.max_batch &&
                  s.decode_tokens <= s.running,
              at + " runs " + std::to_string(s.running) + " requests, " +
                  std::to_string(s.decode_tokens) + " decoding");
        check(rows >= 1 && rows <= step_rows,
              at + " schedules " + std::to_string(rows) + " rows");
        check(s.start_s >= prev_end,
              at + " starts before the previous step ended");
        prev_end =
            s.start_s + static_cast<double>(s.cycles) / tech16().clock_hz;
        check(s.used_pages + s.free_pages == report.page_budget,
              at + " breaks used + free == page_budget");
        const SystemRun gemm = run_workload(
            system, tech16(),
            build_step_workload(model, s.prefill_tokens, s.decode_tokens,
                                opts.tuple));
        check(s.cycles >= s.attn_cycles &&
                  s.cycles - s.attn_cycles == gemm.cycles,
              at + " GeMM cycles differ from a fresh reprice");
        check(opts.attn_pricing || (s.attn_cycles == 0 && s.kv_bytes == 0),
              at + " carries attention cost with attn_pricing off");
        check(opts.swap_gbps > 0.0 || s.swap_stall_s == 0.0,
              at + " stalls on a free swap link");
        sum.cycles += s.cycles;
        sum.attn_cycles += s.attn_cycles;
        sum.kv_bytes += s.kv_bytes;
        sum.prefill_tokens += s.prefill_tokens;
        sum.decode_tokens += s.decode_tokens;
        sum.preemptions += s.preemptions;
        sum.drops += s.drops;
        sum.sheds += s.sheds;
        sum.failed += s.failed;
        sum.fault_retries += s.fault_retries;
        sum.swap_stall_s += s.swap_stall_s;
        peak_pages = std::max(peak_pages, s.used_pages);
        peak_rows = std::max(peak_rows, s.cache_tokens);
    }
    check(report.makespan_s >= prev_end,
          "makespan ends before the last step");
    check(report.peak_used_pages == peak_pages &&
              peak_pages <= report.page_budget,
          "peak_used_pages is not the maximum over steps");
    check(report.peak_cache_tokens >= peak_rows,
          "peak_cache_tokens is below a step's resident rows");
    check(report.peak_batch <= opts.max_batch, "peak batch exceeds max_batch");
    const double frag = report.mean_fragmentation();
    check(frag >= 0.0 && frag <= 1.0, "fragmentation out of [0, 1]");
    check(sum.cycles == report.total_cycles &&
              sum.attn_cycles == report.attn_cycles &&
              sum.kv_bytes == report.kv_dram_bytes,
          "step costs do not sum to the report totals");
    // Events after the last recorded step flush into it, so the
    // counters conserve whenever any step was recorded.
    check(report.steps.empty() ||
              (sum.preemptions == report.preemptions &&
               sum.drops == report.dropped && sum.sheds == report.shed &&
               sum.failed == report.failed &&
               sum.fault_retries == report.step_faults &&
               std::abs(sum.swap_stall_s - report.swap_stall_s) <=
                   1e-12 * (1.0 + report.swap_stall_s)),
          "step event counters do not sum to the report totals");

    // --- Pricing off leaves no trace. ---
    check(opts.attn_pricing ||
              (report.attn_cycles == 0 && report.kv_dram_bytes == 0),
          "attention totals with attn_pricing off");
    check(opts.swap_gbps > 0.0 ||
              (report.swap_bytes == 0 && report.swap_stall_s == 0.0),
          "swap traffic priced on a free swap link");
    check(report.swap_bytes ==
              report.swap_out_bytes + report.swap_in_bytes,
          "swap_bytes != swap_out_bytes + swap_in_bytes");

    // --- Token conservation: every prompt row prefills once (less
    // adopted prefix rows, plus recompute re-prefills); every output
    // token after the prefill-emitted first decodes once. ---
    if (report.completed == n) {
        check(sum.prefill_tokens + report.reused_prefix_tokens ==
                  report.total_prompt_tokens + report.recomputed_tokens,
              "prefill rows are not conserved");
        check(sum.decode_tokens == report.total_output_tokens - n,
              "decode rows are not conserved");
        check(report.readmits == report.preemptions,
              "a preempted request was never readmitted");
    }

    // --- Per-request timeline and generated tokens. ---
    check(report.executed == (opts.executor != nullptr),
          "executed flag disagrees with the executor option");
    const int vocab = opts.executor ? opts.executor->dims().vocab : 0;
    for (const RequestMetrics &m : report.requests) {
        const std::string who = "request " + std::to_string(m.id);
        check(m.arrival_s <= m.finish_s && m.finish_s <= report.makespan_s,
              who + " leaves outside [arrival, makespan]");
        check(!m.completed() || (m.arrival_s <= m.admitted_s &&
                                 m.admitted_s < m.first_token_s &&
                                 m.first_token_s <= m.finish_s),
              who + " admission / first token / finish out of order");
        if (!report.executed) {
            check(m.tokens.empty(), who + " carries tokens unexecuted");
            continue;
        }
        const std::size_t want = static_cast<std::size_t>(m.output_len);
        check(m.completed() ? m.tokens.size() == want
                            : m.tokens.size() < want,
              who + " generated " + std::to_string(m.tokens.size()) +
                  " of " + std::to_string(want) + " tokens");
        check(std::all_of(m.tokens.begin(), m.tokens.end(),
                          [vocab](int t) { return t >= 0 && t < vocab; }),
              who + " generated an out-of-vocab token");
    }
    return violations;
}

}  // namespace serve_test
}  // namespace anda
