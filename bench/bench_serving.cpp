// Serving simulation: continuous batching of a seeded request stream
// on the seven accelerator systems, at two traffic intensities. The
// per-step costs come from the hw perf model (fused prefill + decode
// FP-INT GeMMs); reported are TTFT, decode inter-token latency, and
// sustained output throughput — the paper's Figs. 16-18 measured as
// serving traffic rather than one fixed-shape prefill.
//
// The (system, traffic) scenarios are independent, so they run as
// jobs on the parallel sweep scheduler (ANDA_SWEEP_THREADS=1 for the
// serial schedule). FP16-storage baselines serve with {16,16,16,16};
// Anda and the FIGNA-Mx datapaths use the Table II 1%-tolerance
// tuple regime {8,7,7,6}.
//
// Quantized-KV sections: the decode-cost-vs-context table carries an
// Anda m=7 KV column (the K/V stream thins to bits_per_element), the
// overload study adds a fixed-byte-budget capacity table (same bytes,
// ~3.9x the resident tokens), and a SweepScheduler grid sweeps the
// KV mantissa width against cached_sequence_nll on the accuracy
// substrate — the perplexity-vs-kv-bits axis, Table-II style.
//
// A final execution-mode section runs generation for real on the
// accuracy substrate (sim dims): the same scheduler prefills KV
// caches and decodes sampled tokens step by step, reporting executed
// generated-token throughput (host wall clock) alongside the priced
// accelerator latency.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/table.h"
#include "format/kv_format.h"
#include "hw/workload.h"
#include "search/sweep.h"
#include "serve/serving_sim.h"

namespace {

anda::PrecisionTuple
tuple_for(const anda::AcceleratorConfig &system)
{
    using anda::ActStorageFormat;
    // Only the Anda storage format reacts to per-module mantissa
    // lengths; FP16-storage systems store full-width activations and
    // the FIGNA-Mx datapaths are priced by their fixed width
    // regardless of the tuple (see hw/workload.h).
    return system.act_storage == ActStorageFormat::kAnda
               ? anda::PrecisionTuple{8, 7, 7, 6}
               : anda::PrecisionTuple{16, 16, 16, 16};
}

}  // namespace

int
main()
{
    using namespace anda;

    const ModelConfig &model = find_model("llama-7b");

    RequestStreamSpec base;
    base.seed = 20260729;
    base.n_requests = 48;
    base.prompt_min = 32;
    base.prompt_max = 512;
    base.output_min = 16;
    base.output_max = 128;

    ServingOptions serving;
    serving.max_batch = 8;
    serving.max_step_tokens = 256;

    struct Scenario {
        std::string label;
        double arrival_rate;
    };
    // Arrival rates bracket the systems' service rates (~0.1 req/s on
    // the FP16-class configs, ~0.2 on Anda/FIGNA-M8 for this stream):
    // "steady" sits at the capacity boundary, where the faster systems
    // keep queues short and the slow ones build backlog; "burst"
    // arrives all at once (pure offline throughput).
    const std::vector<Scenario> scenarios = {
        {"steady", 0.12},
        {"burst", 0.0},
    };

    SweepScheduler sweep(nullptr, nullptr, SweepOptions::from_env());
    const auto &systems = system_configs();
    std::vector<std::vector<ServingReport>> reports(
        scenarios.size(), std::vector<ServingReport>(systems.size()));
    // Twin grid with attention & KV traffic priced (attn_pricing on):
    // the same streams and knobs, plus the per-step K/V read cost of
    // every cached token.
    std::vector<std::vector<ServingReport>> attn_reports(
        scenarios.size(), std::vector<ServingReport>(systems.size()));

    // The serving scenarios never build a Transformer: jobs only read
    // the hw layer, so the shared harness stays an empty shell and the
    // scheduler contributes job timing/failure reporting and the pool.
    const DatasetSpec stream_tag{"request-stream", 1.0, base.seed, 0, 0};
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
        for (std::size_t c = 0; c < systems.size(); ++c) {
            for (const bool attn : {false, true}) {
                ServingReport *out =
                    attn ? &attn_reports[s][c] : &reports[s][c];
                const AcceleratorConfig *system = &systems[c];
                const Scenario *scen = &scenarios[s];
                sweep.add(model, stream_tag,
                          scen->label + "/" + system->name +
                              (attn ? "/attn" : ""),
                          [out, system, scen, attn, &model, &base,
                           &serving](SearchHarness &) {
                              RequestStreamSpec spec = base;
                              spec.arrival_rate = scen->arrival_rate;
                              ServingOptions opts = serving;
                              opts.tuple = tuple_for(*system);
                              opts.attn_pricing = attn;
                              *out = simulate_serving(
                                  model, *system, tech16(),
                                  generate_requests(spec), opts);
                          });
            }
        }
    }
    const SweepReport run_report = sweep.run();

    for (std::size_t s = 0; s < scenarios.size(); ++s) {
        Table table({"system", "TTFT mean [ms]", "TTFT p95 [ms]",
                     "decode [ms/tok]", "out tok/s", "makespan [ms]",
                     "speedup"});
        table.set_title(
            "Serving " + scenarios[s].label + ": " +
            std::to_string(base.n_requests) + " requests on " +
            model.name +
            (scenarios[s].arrival_rate > 0.0
                 ? " at " + fmt(scenarios[s].arrival_rate, 2) + " req/s"
                 : " arriving at once") +
            ", batch " + std::to_string(serving.max_batch) +
            ", step budget " + std::to_string(serving.max_step_tokens));
        double base_makespan = 0.0;
        for (std::size_t c = 0; c < systems.size(); ++c) {
            if (systems[c].name == "fp-fp") {
                base_makespan = reports[s][c].makespan_s;
            }
        }
        for (std::size_t c = 0; c < systems.size(); ++c) {
            const ServingReport &r = reports[s][c];
            table.add_row({systems[c].name,
                           fmt(r.mean_ttft_s() * 1e3, 3),
                           fmt(r.p95_ttft_s() * 1e3, 3),
                           fmt(r.mean_decode_s_per_token() * 1e3, 3),
                           fmt(r.output_tokens_per_s(), 0),
                           fmt(r.makespan_s * 1e3, 1),
                           fmt_x(base_makespan / r.makespan_s, 2)});
        }
        std::fputs(table.to_string().c_str(), stdout);
        std::puts("");
    }
    std::puts("paper context: Fig. 16 reports 2.29x mean speedup over "
              "FP-FP on prefill GeMMs; serving adds the memory-bound "
              "decode regime,\nwhere compressed activations shrink "
              "weight re-streaming and the gap widens on TTFT-heavy "
              "bursts.");

    // --- The same grid with attention & KV traffic priced: every
    // decode/prefill row additionally reads the K and V of its cached
    // context from DRAM at the KV cache's storage width (FP32 here —
    // the default format). The attention arithmetic is an FP-FP pass
    // outside the FP-INT datapaths, so the activation tuple doesn't
    // touch it and it dilutes the GeMM-side speedups; only a
    // quantized kv_format (tables below) thins the stream.
    for (std::size_t s = 0; s < scenarios.size(); ++s) {
        Table table({"system", "decode [ms/tok]", "out tok/s",
                     "makespan [ms]", "attn [% cyc]", "KV read [GB]",
                     "vs attn-off", "speedup"});
        table.set_title("Serving " + scenarios[s].label +
                        " with attention & KV traffic priced "
                        "(attn_pricing on, same streams and knobs)");
        double base_makespan = 0.0;
        for (std::size_t c = 0; c < systems.size(); ++c) {
            if (systems[c].name == "fp-fp") {
                base_makespan = attn_reports[s][c].makespan_s;
            }
        }
        for (std::size_t c = 0; c < systems.size(); ++c) {
            const ServingReport &r = attn_reports[s][c];
            const ServingReport &off = reports[s][c];
            const double attn_pct =
                r.total_cycles > 0
                    ? 100.0 * static_cast<double>(r.attn_cycles) /
                          static_cast<double>(r.total_cycles)
                    : 0.0;
            table.add_row(
                {systems[c].name,
                 fmt(r.mean_decode_s_per_token() * 1e3, 3),
                 fmt(r.output_tokens_per_s(), 0),
                 fmt(r.makespan_s * 1e3, 1), fmt(attn_pct, 2),
                 fmt(static_cast<double>(r.kv_dram_bytes) / 1e9, 2),
                 fmt_x(r.makespan_s / off.makespan_s, 3),
                 fmt_x(base_makespan / r.makespan_s, 2)});
        }
        std::fputs(table.to_string().c_str(), stdout);
        std::puts("");
    }

    // --- Decode step cost vs cached context: one batch-8 decode step
    // priced at growing context lengths. GeMM-only pricing is context-
    // free (the "flat" column); attention pricing adds the K/V read of
    // every cached token, so the per-token cost grows with context.
    // The quantized columns re-price the same step with the cache in
    // Anda m=7 (8.125 bits/element): the K/V stream — the part that
    // grows with context — thins by ~3.9x.
    {
        const AcceleratorConfig &anda_sys = find_system("anda");
        const PrecisionTuple tuple{8, 7, 7, 6};
        const double kv_bits = KvFormat::anda(7).bits_per_element();
        Table table({"context [tok]", "GeMM-only [ms]", "+attn [ms]",
                     "attn share [%]", "KV read [MB]",
                     "+attn anda-m7 [ms]", "KV read anda-m7 [MB]"});
        table.set_title("Batch-8 decode step cost vs cached context (" +
                        model.name + " on anda, {8,7,7,6})");
        for (const std::uint64_t context :
             {std::uint64_t{128}, std::uint64_t{512},
              std::uint64_t{1024}, std::uint64_t{2048},
              std::uint64_t{4096}}) {
            std::vector<SeqSlice> decode(8, SeqSlice{1, context});
            const Workload w =
                build_decode_workload(model, decode, tuple);
            const SystemRun with_attn =
                run_workload(anda_sys, tech16(), w);
            const Workload wq =
                build_decode_workload(model, decode, tuple, kv_bits);
            const SystemRun quant = run_workload(anda_sys, tech16(), wq);
            const std::uint64_t gemm_cycles =
                with_attn.cycles - with_attn.attn_cycles;
            const double to_ms = 1e3 / tech16().clock_hz;
            table.add_row(
                {std::to_string(context),
                 fmt(static_cast<double>(gemm_cycles) * to_ms, 3),
                 fmt(static_cast<double>(with_attn.cycles) * to_ms, 3),
                 fmt(100.0 *
                         static_cast<double>(with_attn.attn_cycles) /
                         static_cast<double>(with_attn.cycles),
                     1),
                 fmt(with_attn.kv_dram_bits / 8.0 / 1e6, 1),
                 fmt(static_cast<double>(quant.cycles) * to_ms, 3),
                 fmt(quant.kv_dram_bits / 8.0 / 1e6, 1)});
        }
        std::fputs(table.to_string().c_str(), stdout);
        std::puts("");
    }
    std::fputs(run_report.summary().c_str(), stdout);

    // --- Paged KV under overload: the same burst stream scheduled
    // against one fixed page budget under each preemption policy. The
    // paged pool rides out the overload by preempting and never
    // exceeds its page budget. Pricing-only — the policies shape
    // admission and step composition, which is all the perf model
    // needs.
    {
        RequestStreamSpec burst = base;
        burst.arrival_rate = 0.0;
        const auto burst_requests = generate_requests(burst);
        const AcceleratorConfig &anda_sys = find_system("anda");
        const std::size_t page_size = 32;
        const std::size_t page_budget = 48;  // = 1536 rows; worst-case
                                             // footprint is 639 rows.
        const std::size_t budget_rows = page_budget * page_size;

        ServingOptions common;
        common.max_batch = 8;
        common.max_step_tokens = 256;
        common.tuple = {8, 7, 7, 6};

        struct PolicyRow {
            std::string label;
            ServingOptions opts;
        };
        std::vector<PolicyRow> rows;
        {
            PolicyRow recompute{"paged recompute", common};
            recompute.opts.page_size = page_size;
            recompute.opts.page_budget = page_budget;
            recompute.opts.preempt = PreemptPolicy::kRecompute;
            rows.push_back(recompute);
            PolicyRow swap = recompute;
            swap.label = "paged swap";
            swap.opts.preempt = PreemptPolicy::kSwap;
            rows.push_back(swap);
            PolicyRow prefix = swap;
            prefix.label = "paged swap +prefix";
            prefix.opts.shared_prefix_len = 64;
            rows.push_back(prefix);
        }

        Table table({"policy", "makespan [ms]", "peak cache [tok]",
                     "peak pages", "preempt", "frag [%]",
                     "reuse [tok]", "recompute [tok]"});
        table.set_title(
            "Paged KV under overload: " +
            std::to_string(base.n_requests) + " burst requests on " +
            model.name + ", KV budget " + std::to_string(budget_rows) +
            " rows (" + std::to_string(page_budget) + " pages x " +
            std::to_string(page_size) + ")");
        for (const PolicyRow &row : rows) {
            const ServingReport r =
                simulate_serving(model, anda_sys, tech16(),
                                 burst_requests, row.opts);
            // Peak rows may exceed budget_rows with a shared prefix:
            // adopted pages count once while their rows count once
            // per adopting sequence.
            table.add_row(
                {row.label, fmt(r.makespan_s * 1e3, 1),
                 std::to_string(r.peak_cache_tokens),
                 std::to_string(r.peak_used_pages) + "/" +
                     std::to_string(page_budget),
                 std::to_string(r.preemptions),
                 fmt(r.mean_fragmentation() * 100.0, 1),
                 std::to_string(r.reused_prefix_tokens),
                 std::to_string(r.recomputed_tokens)});
        }
        std::fputs(table.to_string().c_str(), stdout);
        std::puts(
            "paged rows never exceed the budget: under overload the\n"
            "scheduler preempts the youngest resident (swap restores\n"
            "its K/V rows, recompute re-prefills them) instead of\n"
            "overshooting; +prefix additionally adopts the shared\n"
            "system-prompt pages copy-on-extend at admission.");
        std::puts("");
    }

    // --- Quantized KV capacity: the same overloaded burst against
    // one fixed BYTE budget (kv_byte_budget converts to pages at each
    // format's packed row width). FP32 rows cost 8 * layers * d_model
    // bytes per token; Anda m=7 packs the same token into ~8.1 bits
    // per element, so the identical bytes hold ~3.9x the resident
    // tokens — fewer preemptions, less recompute, and (attn_pricing
    // on) a thinner priced K/V stream per step.
    {
        RequestStreamSpec burst = base;
        burst.arrival_rate = 0.0;
        const auto burst_requests = generate_requests(burst);
        const AcceleratorConfig &anda_sys = find_system("anda");
        const std::size_t budget_bytes = std::size_t{1536} << 20;

        struct FmtRow {
            std::string label;
            KvFormat fmt;
        };
        const std::vector<FmtRow> fmts = {
            {"fp32", KvFormat::fp32()},
            {"bfp-g64-m7", KvFormat::bfp(64, 7)},
            {"anda-m7", KvFormat::anda(7)},
            {"anda-m4", KvFormat::anda(4)},
        };

        Table table({"kv format", "B/tok", "pages", "peak cache [tok]",
                     "capacity", "preempt", "recompute [tok]",
                     "KV read [GB]", "makespan [ms]"});
        table.set_title(
            "Quantized KV capacity under one byte budget: " +
            std::to_string(base.n_requests) + " burst requests on " +
            model.name + ", " +
            std::to_string(budget_bytes >> 20) +
            " MiB of KV, paged recompute x32, attention priced");
        std::size_t fp32_peak = 0;
        for (const FmtRow &row : fmts) {
            ServingOptions opts;
            opts.max_batch = static_cast<std::size_t>(base.n_requests);
            opts.max_step_tokens = 256;
            opts.tuple = {8, 7, 7, 6};
            opts.page_size = 32;
            opts.kv_byte_budget = budget_bytes;
            opts.kv_format = row.fmt;
            opts.attn_pricing = true;
            const ServingReport r = simulate_serving(
                model, anda_sys, tech16(), burst_requests, opts);
            if (!row.fmt.quantized()) {
                fp32_peak = r.peak_cache_tokens;
            }
            table.add_row(
                {row.label, std::to_string(r.kv_bytes_per_token),
                 std::to_string(r.page_budget),
                 std::to_string(r.peak_cache_tokens),
                 fp32_peak > 0
                     ? fmt_x(static_cast<double>(r.peak_cache_tokens) /
                                 static_cast<double>(fp32_peak),
                             2)
                     : "-",
                 std::to_string(r.preemptions),
                 std::to_string(r.recomputed_tokens),
                 fmt(static_cast<double>(r.kv_dram_bytes) / 1e9, 2),
                 fmt(r.makespan_s * 1e3, 1)});
        }
        std::fputs(table.to_string().c_str(), stdout);
        std::puts(
            "same bytes, more tokens: the byte budget converts to\n"
            "pages at each format's packed width, so quantized runs\n"
            "ride out the same overload with a fraction of the\n"
            "preemption/recompute churn and a thinner K/V stream.");
        std::puts("");
    }

    // --- KV-mantissa accuracy axis: cached_sequence_nll on the
    // accuracy substrate (sim dims, W4A16 weights) with the KV cache
    // swept across Anda mantissa widths — the perplexity-vs-kv-bits
    // tradeoff, Table-II style. Teacher-sampled sequences; the FP32
    // row is the exact baseline (bit-identical to sequence_nll, so
    // its delta is exactly zero). Jobs run on the sweep scheduler.
    {
        const Transformer tf(model);
        const std::uint64_t kv_seed = 20260807;
        std::vector<std::vector<int>> seqs;
        for (int i = 0; i < 4; ++i) {
            seqs.push_back(tf.sample_sequence(
                48, 0.8, kv_seed + static_cast<std::uint64_t>(i)));
        }

        struct KvRow {
            std::string label;
            KvFormat fmt;
        };
        std::vector<KvRow> rows = {{"fp32 (exact)", KvFormat::fp32()}};
        for (const int m : {2, 3, 4, 5, 6, 7, 8, 11}) {
            rows.push_back({KvFormat::anda(m).name(),
                            KvFormat::anda(m)});
        }
        rows.push_back({"anda-m7-rn", KvFormat::anda(7, true)});

        SweepScheduler kv_sweep(nullptr, nullptr,
                                SweepOptions::from_env());
        const DatasetSpec kv_tag{"kv-mantissa", 1.0, kv_seed, 0, 0};
        std::vector<double> nll_per_tok(rows.size(), 0.0);
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const KvRow *row = &rows[i];
            double *out = &nll_per_tok[i];
            kv_sweep.add(model, kv_tag, row->label,
                         [out, row, &tf, &seqs](SearchHarness &) {
                             const RunOptions opts;
                             double total = 0.0;
                             std::size_t toks = 0;
                             for (const auto &seq : seqs) {
                                 total += tf.cached_sequence_nll(
                                     seq, opts, row->fmt);
                                 toks += seq.size() - 1;
                             }
                             *out = total /
                                    static_cast<double>(toks);
                         });
        }
        const SweepReport kv_run = kv_sweep.run();

        Table table({"kv format", "bits/elem", "NLL/tok",
                     "dNLL vs fp32", "ppl"});
        table.set_title(
            "KV-cache mantissa vs accuracy (" + model.name +
            " sim dims, W4A16 weights, 4 teacher-sampled seqs x 48 "
            "tok)");
        const double exact = nll_per_tok[0];
        for (std::size_t i = 0; i < rows.size(); ++i) {
            table.add_row(
                {rows[i].label,
                 fmt(rows[i].fmt.bits_per_element(), 3),
                 fmt(nll_per_tok[i], 5),
                 fmt(nll_per_tok[i] - exact, 5),
                 fmt(std::exp(nll_per_tok[i]), 3)});
        }
        std::fputs(table.to_string().c_str(), stdout);
        std::puts(
            "the fp32 row is bit-identical to the cache-free\n"
            "sequence_nll; wider KV mantissas converge onto it, and\n"
            "round-to-nearest buys a little accuracy at equal bits.");
        std::puts("");
        std::fputs(kv_run.summary().c_str(), stdout);
    }

    // --- Per-class SLOs under overload: the same stream split into
    // batch / standard / interactive priority classes and pushed past
    // the anda system's service rate, with deadline enforcement and
    // load shedding on. The victim-selection knob decides who pays:
    // the legacy youngest-victim policy preempts whoever was admitted
    // last regardless of class, while kLowestPriority makes the batch
    // class absorb the pressure and lifts the interactive class's
    // attainment. Pricing-only.
    {
        RequestStreamSpec mix = base;
        mix.arrival_rate = 0.3;  // ~1.5x the anda service rate.
        mix.classes = {
            {0, 2.0, 0.0, 0.0},    // batch: best-effort
            {1, 1.0, 20.0, 90.0},  // standard
            {2, 1.0, 5.0, 45.0},   // interactive
        };
        const auto mix_requests = generate_requests(mix);
        const char *class_names[] = {"batch", "standard",
                                     "interactive"};

        ServingOptions slo;
        slo.max_batch = 8;
        slo.max_step_tokens = 256;
        slo.tuple = {8, 7, 7, 6};
        slo.page_size = 32;
        slo.page_budget = 48;
        slo.preempt = PreemptPolicy::kSwap;
        slo.deadline_policy = DeadlinePolicy::kDropUnmeetable;
        slo.shed_timeout_s = 60.0;

        struct EvictRow {
            std::string label;
            EvictPolicy evict;
        };
        const std::vector<EvictRow> evicts = {
            {"youngest", EvictPolicy::kYoungest},
            {"lowest-priority", EvictPolicy::kLowestPriority},
        };
        Table table({"evict policy", "attn", "class", "n", "ok",
                     "drop", "shed", "TTFT p95 [ms]", "TTFT SLO [%]",
                     "deadline SLO [%]"});
        table.set_title(
            "Per-class SLO attainment under overload: " +
            std::to_string(mix.n_requests) + " requests on " +
            model.name + " at " + fmt(mix.arrival_rate, 2) +
            " req/s, paged swap, drop-unmeetable + 60 s shed");
        for (const EvictRow &row : evicts) {
            // The ±attn variants show SLO attainment under the full
            // cost model: pricing attention stretches steps, so the
            // same stream presses harder on the deadlines.
            for (const bool attn : {false, true}) {
                ServingOptions opts = slo;
                opts.evict = row.evict;
                opts.attn_pricing = attn;
                const ServingReport r =
                    simulate_serving(model, find_system("anda"),
                                     tech16(), mix_requests, opts);
                for (const ClassReport &c : r.by_class()) {
                    table.add_row(
                        {row.label, attn ? "on" : "off",
                         class_names[c.priority], std::to_string(c.n),
                         std::to_string(c.completed),
                         std::to_string(c.dropped),
                         std::to_string(c.shed),
                         c.completed > 0 ? fmt(c.ttft_p95_s * 1e3, 1)
                                         : "-",
                         fmt(c.ttft_attainment() * 100.0, 1),
                         fmt(c.deadline_attainment() * 100.0, 1)});
                }
            }
        }
        std::fputs(table.to_string().c_str(), stdout);
        std::puts(
            "attainment counts dropped and shed requests as missed;\n"
            "the batch class carries no SLO, so its 100% is vacuous —\n"
            "its drop/shed columns show who absorbed the overload.");
        std::puts("");
    }

    // --- Execution mode: generate tokens for real on the accuracy
    // substrate (sim dims), same scheduler, perf model still pricing
    // every executed step shape. Throughput here is host wall clock
    // of this single-core container, not accelerator time.
    {
        const Transformer tf(model);
        RequestStreamSpec exec_spec;
        exec_spec.seed = 20260729;
        exec_spec.n_requests = 16;
        exec_spec.arrival_rate = 0.0;  // Burst: saturate the batch.
        exec_spec.prompt_min = 8;
        exec_spec.prompt_max = 48;
        exec_spec.output_min = 4;
        exec_spec.output_max = 16;
        const auto exec_requests = generate_requests(exec_spec);

        ServingOptions exec_opts;
        exec_opts.max_batch = 8;
        exec_opts.max_step_tokens = 64;
        exec_opts.tuple = {8, 7, 7, 6};
        exec_opts.executor = &tf;
        exec_opts.exec_run.prec = PrecisionConfig::anda(exec_opts.tuple);
        exec_opts.exec_seed = exec_spec.seed;

        const auto t0 = std::chrono::steady_clock::now();
        const ServingReport exec_report =
            simulate_serving(model, find_system("anda"), tech16(),
                             exec_requests, exec_opts);
        const double wall_s =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();

        Table table({"metric", "value"});
        table.set_title("Executed generation (accuracy substrate, " +
                        std::to_string(exec_spec.n_requests) +
                        " burst requests on " + model.name +
                        " sim dims, anda {8,7,7,6})");
        table.add_row({"generated tokens",
                       std::to_string(exec_report.total_output_tokens)});
        table.add_row({"scheduler steps",
                       std::to_string(exec_report.steps.size())});
        table.add_row({"peak KV cache [tok]",
                       std::to_string(exec_report.peak_cache_tokens)});
        table.add_row({"priced makespan [ms]",
                       fmt(exec_report.makespan_s * 1e3, 1)});
        table.add_row({"host wall clock [s]", fmt(wall_s, 2)});
        table.add_row(
            {"executed tok/s (host, single-core)",
             fmt(static_cast<double>(exec_report.total_output_tokens) /
                     wall_s,
                 1)});
        std::fputs(table.to_string().c_str(), stdout);
        std::printf("executed checksum: %llx\n",
                    static_cast<unsigned long long>(
                        exec_report.generated_checksum()));
    }
    return run_report.failed == 0 ? 0 : 1;
}
