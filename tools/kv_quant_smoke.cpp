// Smoke test of quantized KV-cache serving, verified four ways:
//  * default-off bit-identity — a run with kv_format at its FP32
//    default replays an explicit-FP32 run summary-for-summary and
//    step-for-step, and the summary carries no kvfmt segment;
//  * capacity win — under the same kv_byte_budget the paged-overload
//    scenario holds >= 3x more concurrent resident sequences with an
//    Anda m=7 cache than with FP32, and the derived page budget
//    scales by the formats' bits-per-element ratio;
//  * traffic win — with attention pricing on and no capacity
//    pressure, the quantized run schedules the identical token plan
//    while its priced KV DRAM bytes and attention cycles drop;
//  * determinism + packed swap — the quantized run replays itself,
//    and a quantized PagedKvCache swap-out/swap-in round-trips its
//    packed pages bit-for-bit.
// Registered as the `kv_quant_smoke` ctest so the packed-KV path runs
// under the sanitizer CI lanes; writes kv_quant_smoke_summary.txt
// (uploaded as a CI artifact).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "format/kv_format.h"
#include "llm/kv_pages.h"
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

    const ModelConfig &model = find_model("llama-7b");
    const AcceleratorConfig &system = find_system("anda");
    const KvFormat quant = KvFormat::anda(7);

    RequestStreamSpec spec;
    spec.seed = 7788;
    spec.n_requests = 48;
    spec.arrival_rate = 0.0;  // Burst: the overload regime.
    spec.prompt_min = 16;
    spec.prompt_max = 48;
    spec.output_min = 8;
    spec.output_max = 24;
    const std::vector<Request> requests = generate_requests(spec);

    // --- Default-off bit-identity. ---
    ServingOptions base_opts;
    base_opts.max_batch = 8;
    base_opts.max_step_tokens = 128;
    base_opts.tuple = {8, 7, 7, 6};
    base_opts.attn_pricing = true;
    const ServingReport base =
        simulate_serving(model, system, tech16(), requests, base_opts);
    ServingOptions explicit_fp32 = base_opts;
    explicit_fp32.kv_format = KvFormat::fp32();
    const ServingReport replay = simulate_serving(
        model, system, tech16(), requests, explicit_fp32);
    if (replay.summary() != base.summary()) {
        fail("explicit kv_format=fp32 diverges from the default");
    }
    if (base.kv_format != "fp32" ||
        base.summary().find("kvfmt") != std::string::npos) {
        fail("FP32 run reports a quantized KV format");
    }

    // --- Capacity: same byte budget, paged overload. ---
    const std::size_t budget = std::size_t{512} << 20;  // 512 MiB.
    ServingOptions paged_fp32 = base_opts;
    paged_fp32.page_size = 16;
    paged_fp32.kv_byte_budget = budget;
    paged_fp32.max_batch = 64;
    ServingOptions paged_quant = paged_fp32;
    paged_quant.kv_format = quant;

    const ServingReport cap_fp32 = simulate_serving(
        model, system, tech16(), requests, paged_fp32);
    const ServingReport cap_quant = simulate_serving(
        model, system, tech16(), requests, paged_quant);
    const std::size_t layers =
        static_cast<std::size_t>(model.real.n_layers);
    const std::size_t dm = static_cast<std::size_t>(model.real.d_model);
    const std::size_t tok_fp32 =
        2 * layers * kv_row_bytes(KvFormat::fp32(), dm);
    const std::size_t tok_quant = 2 * layers * kv_row_bytes(quant, dm);
    if (cap_fp32.kv_bytes_per_token != tok_fp32 ||
        cap_quant.kv_bytes_per_token != tok_quant) {
        fail("reported kv_bytes_per_token does not match the format");
    }
    if (cap_fp32.page_budget !=
            budget / (paged_fp32.page_size * tok_fp32) ||
        cap_quant.page_budget !=
            budget / (paged_fp32.page_size * tok_quant)) {
        fail("kv_byte_budget did not derive the page budget");
    }
    // Same bytes, more tokens: the derived page budget alone carries
    // the bits_per_element ratio (~3.94x for Anda m=7), and the
    // overloaded run realizes it — peak resident KV tokens (the
    // concurrent sequences' footprints actually held) grow >= 3x.
    if (cap_quant.page_budget < 3 * cap_fp32.page_budget) {
        fail("derived page budget did not triple under quantization");
    }
    if (cap_quant.peak_cache_tokens < 3 * cap_fp32.peak_cache_tokens) {
        fail("quantized cache holds fewer than 3x the resident "
             "tokens (" +
             std::to_string(cap_quant.peak_cache_tokens) + " vs " +
             std::to_string(cap_fp32.peak_cache_tokens) + ")");
    }
    if (cap_quant.kv_format != quant.name() ||
        cap_quant.summary().find("kvfmt " + quant.name()) ==
            std::string::npos) {
        fail("quantized summary does not name the KV format");
    }

    // --- Traffic: identical token plan, thinner KV stream. ---
    ServingOptions quant_opts = base_opts;
    quant_opts.kv_format = quant;
    const ServingReport priced = simulate_serving(
        model, system, tech16(), requests, quant_opts);
    if (priced.steps.size() != base.steps.size()) {
        fail("KV quantization changed the burst schedule");
    } else {
        for (std::size_t i = 0; i < base.steps.size(); ++i) {
            if (base.steps[i].prefill_tokens !=
                    priced.steps[i].prefill_tokens ||
                base.steps[i].decode_tokens !=
                    priced.steps[i].decode_tokens) {
                fail("step " + std::to_string(i) +
                     " token plan moved under KV quantization");
                break;
            }
        }
    }
    // Priced KV bytes scale with bits_per_element (8.125/32 for Anda
    // m=7); allow rounding slack around the exact ratio.
    const double ratio =
        static_cast<double>(priced.kv_dram_bytes) /
        static_cast<double>(base.kv_dram_bytes);
    const double expect = quant.bits_per_element() / 32.0;
    if (std::abs(ratio - expect) > 0.01) {
        fail("KV DRAM bytes did not shrink by bits_per_element (" +
             std::to_string(ratio) + " vs " + std::to_string(expect) +
             ")");
    }
    if (priced.attn_cycles >= base.attn_cycles) {
        fail("attention cycles did not drop with a thinner KV stream");
    }

    // --- Determinism. ---
    const ServingReport again = simulate_serving(
        model, system, tech16(), requests, paged_quant);
    if (again.summary() != cap_quant.summary()) {
        fail("quantized serving run is not deterministic");
    }

    // --- Packed swap round-trip. ---
    {
        SplitMix64 rng(4455);
        const std::size_t d = 96;
        KvPagePool pool(2, d, 64, 4, 16, true, quant);
        PagedKvCache cache(pool);
        cache.reserve(13);
        cache.advance(13);
        std::vector<float> row(d);
        for (std::size_t r = 0; r < 13; ++r) {
            for (float &v : row) {
                v = rng.uniform(-2.0f, 2.0f);
            }
            for (std::size_t l = 0; l < 2; ++l) {
                cache.store_k(l, r, row);
                cache.store_v(l, r, row);
            }
        }
        std::vector<float> before(2 * 2 * 13 * d);
        std::size_t off = 0;
        for (std::size_t l = 0; l < 2; ++l) {
            for (std::size_t r = 0; r < 13; ++r) {
                cache.load_k(l, r,
                             std::span<float>(&before[off], d));
                off += d;
                cache.load_v(l, r,
                             std::span<float>(&before[off], d));
                off += d;
            }
        }
        const std::vector<std::byte> swapped = cache.swap_out();
        if (swapped.size() != 2 * 2 * 13 * kv_row_bytes(quant, d)) {
            fail("packed swap buffer has the wrong size");
        }
        cache.swap_in(swapped, 13);
        std::vector<float> after(before.size());
        off = 0;
        for (std::size_t l = 0; l < 2; ++l) {
            for (std::size_t r = 0; r < 13; ++r) {
                cache.load_k(l, r, std::span<float>(&after[off], d));
                off += d;
                cache.load_v(l, r, std::span<float>(&after[off], d));
                off += d;
            }
        }
        if (std::memcmp(before.data(), after.data(),
                        4 * before.size()) != 0) {
            fail("packed swap did not round-trip bit-for-bit");
        }
    }

    std::string summary =
        base.summary() + cap_fp32.summary() + cap_quant.summary();
    std::fputs(summary.c_str(), stdout);
    std::ofstream("kv_quant_smoke_summary.txt") << summary;

    if (g_failures != 0) {
        std::fprintf(stderr, "kv_quant_smoke: %d failure(s)\n",
                     g_failures);
        return 1;
    }
    std::puts("kv_quant_smoke: OK");
    return 0;
}
