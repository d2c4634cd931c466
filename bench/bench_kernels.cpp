// Micro-benchmarks (google-benchmark) of the format conversion and
// GeMM kernels — the software cost of the operations the Anda hardware
// accelerates — plus the KV unpack and attention kernels of decode.

#include <benchmark/benchmark.h>

#include <vector>

#include "common/rng.h"
#include "format/compressor.h"
#include "format/kv_format.h"
#include "kernels/gemm.h"
#include "llm/ops.h"

namespace {

using namespace anda;

std::vector<float>
random_values(std::size_t n, std::uint64_t seed)
{
    SplitMix64 rng(seed);
    std::vector<float> v(n);
    for (auto &x : v) {
        x = static_cast<float>(rng.normal(0.0, 2.0));
    }
    return v;
}

Matrix
random_matrix(std::size_t r, std::size_t c, std::uint64_t seed)
{
    SplitMix64 rng(seed);
    Matrix m(r, c);
    for (auto &x : m.flat()) {
        x = static_cast<float>(rng.normal(0.0, 1.0));
    }
    return m;
}

void
BM_Fp16Round(benchmark::State &state)
{
    const auto vals = random_values(4096, 1);
    for (auto _ : state) {
        float acc = 0.0f;
        for (float v : vals) {
            acc += fp16_round(v);
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_Fp16Round);

void
BM_BfpRoundtrip(benchmark::State &state)
{
    const auto vals = random_values(4096, 2);
    std::vector<float> out(vals.size());
    const BfpParams params{64, static_cast<int>(state.range(0))};
    for (auto _ : state) {
        bfp_roundtrip(vals, std::span<float>(out), params);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_BfpRoundtrip)->Arg(4)->Arg(8)->Arg(13);

void
BM_AndaEncode(benchmark::State &state)
{
    const auto vals = random_values(4096, 3);
    for (auto _ : state) {
        auto t =
            AndaTensor::encode(vals, static_cast<int>(state.range(0)));
        benchmark::DoNotOptimize(t.group_count());
    }
    state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_AndaEncode)->Arg(4)->Arg(8)->Arg(16);

void
BM_BpcCompressLane(benchmark::State &state)
{
    const auto vals = random_values(64, 4);
    for (auto _ : state) {
        auto lane = bpc_compress_lane(vals, 8);
        benchmark::DoNotOptimize(lane.sign_plane);
    }
}
BENCHMARK(BM_BpcCompressLane);

// GeMM benchmarks come in a pinned single-threaded variant (the
// machine-independent number used for before/after kernel comparisons)
// and an explicit multithreaded variant (threads = 0, all cores, shows
// the persistent-pool scaling). Timing a kernel that silently grabs
// every core produces machine-dependent noise, so neither variant
// leaves the thread count implicit.

void
BM_GemmFp16Dequant(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const Matrix a = random_matrix(32, 512, 5);
    const Matrix w = random_matrix(n, 512, 6);
    const auto q = QuantizedWeight::quantize(w, {128, 4, true});
    for (auto _ : state) {
        Matrix c = gemm_fp16_dequant(a, q, /*threads=*/1);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 32 * 512 * n);
}
BENCHMARK(BM_GemmFp16Dequant)->Arg(64)->Arg(256);

void
BM_GemmFp16DequantMT(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const Matrix a = random_matrix(32, 512, 5);
    const Matrix w = random_matrix(n, 512, 6);
    const auto q = QuantizedWeight::quantize(w, {128, 4, true});
    for (auto _ : state) {
        Matrix c = gemm_fp16_dequant(a, q, /*threads=*/0);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 32 * 512 * n);
}
BENCHMARK(BM_GemmFp16DequantMT)->Arg(64)->Arg(256);

void
BM_GemmAndaBitExact(benchmark::State &state)
{
    const Matrix a = random_matrix(8, 256, 7);
    const Matrix w = random_matrix(64, 256, 8);
    const auto q = QuantizedWeight::quantize(w, {128, 4, true});
    AndaGemmOptions opts;
    opts.mantissa_bits = static_cast<int>(state.range(0));
    opts.threads = 1;
    for (auto _ : state) {
        Matrix c = gemm_anda(a, q, opts);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 8 * 256 * 64);
}
BENCHMARK(BM_GemmAndaBitExact)->Arg(4)->Arg(8)->Arg(13);

void
BM_GemmAndaBitExactMT(benchmark::State &state)
{
    const Matrix a = random_matrix(64, 256, 7);
    const Matrix w = random_matrix(64, 256, 8);
    const auto q = QuantizedWeight::quantize(w, {128, 4, true});
    AndaGemmOptions opts;
    opts.mantissa_bits = static_cast<int>(state.range(0));
    opts.threads = 0;
    for (auto _ : state) {
        Matrix c = gemm_anda(a, q, opts);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 64 * 256 * 64);
}
BENCHMARK(BM_GemmAndaBitExactMT)->Arg(4)->Arg(8)->Arg(13);

// Dequantize-on-attend: unpacking one 128-wide cached K/V row (the sim
// models' d_model), the per-row cost a quantized cache pays for every
// prefix row, every layer and every decode step.
void
BM_KvUnpackRow(benchmark::State &state, KvFormat fmt)
{
    constexpr std::size_t kRows = 256;
    constexpr std::size_t kWidth = 128;
    const auto vals = random_values(kRows * kWidth, 9);
    const std::size_t bytes = kv_row_bytes(fmt, kWidth);
    std::vector<std::byte> packed(kRows * bytes);
    for (std::size_t r = 0; r < kRows; ++r) {
        kv_pack_row(fmt, std::span(vals).subspan(r * kWidth, kWidth),
                    std::span(packed).subspan(r * bytes, bytes));
    }
    std::vector<float> out(kWidth);
    for (auto _ : state) {
        for (std::size_t r = 0; r < kRows; ++r) {
            kv_unpack_row(fmt,
                          std::span(packed).subspan(r * bytes, bytes),
                          out);
            benchmark::DoNotOptimize(out.data());
        }
    }
    state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK_CAPTURE(BM_KvUnpackRow, fp32, KvFormat::fp32());
BENCHMARK_CAPTURE(BM_KvUnpackRow, anda_m4, KvFormat::anda(4));
BENCHMARK_CAPTURE(BM_KvUnpackRow, anda_m7, KvFormat::anda(7));
BENCHMARK_CAPTURE(BM_KvUnpackRow, anda_m12, KvFormat::anda(12));
BENCHMARK_CAPTURE(BM_KvUnpackRow, bfp_g64_m7, KvFormat::bfp(64, 7));

// One decode query of one 32-wide head (the sim models' head_dim)
// attending over kv_len cached rows that are read in place.
void
BM_CausalAttentionHead(benchmark::State &state)
{
    const std::size_t kv_len = static_cast<std::size_t>(state.range(0));
    const Matrix q = random_matrix(1, 128, 10);
    const Matrix k = random_matrix(kv_len, 128, 11);
    const Matrix v = random_matrix(kv_len, 128, 12);
    Matrix out(1, 128);
    const std::vector<const float *> qrows = {q.data()};
    const std::vector<float *> orows = {out.data()};
    std::vector<const float *> krows(kv_len);
    std::vector<const float *> vrows(kv_len);
    for (std::size_t t = 0; t < kv_len; ++t) {
        krows[t] = k.row(t).data();
        vrows[t] = v.row(t).data();
    }
    for (auto _ : state) {
        causal_attention_head(qrows, krows, vrows, /*col=*/32,
                              /*head_dim=*/32, kv_len - 1, orows);
        benchmark::DoNotOptimize(out.data());
    }
    state.SetItemsProcessed(state.iterations() * kv_len);
}
BENCHMARK(BM_CausalAttentionHead)->Arg(64)->Arg(512)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
