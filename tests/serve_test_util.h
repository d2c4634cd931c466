#pragma once

/// @file
/// Shared fixtures of the serving-layer tests (tests/test_serve.cpp)
/// and smoke tools: one busy request stream, one tiny execution
/// substrate that shares llama-7b's pricing dimensions, the execution
/// options that drive it, and the standalone-regeneration token
/// oracle. Kept header-only and gtest-free so both the gtest suites
/// and the standalone tools/*_smoke binaries can include it.

#include <span>
#include <vector>

#include "common/rng.h"
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

}  // namespace serve_test
}  // namespace anda
