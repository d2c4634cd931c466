// Micro-benchmarks (google-benchmark) of the format conversion and
// GeMM kernels (the float tap GeMM included) — the software cost of
// the operations the Anda hardware accelerates — plus the KV unpack,
// attention, softmax and RoPE kernels of decode, and the hw model's
// pricing of one serving decode step.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "format/compressor.h"
#include "format/kv_format.h"
#include "hw/workload.h"
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

// The float tap GeMM against weights packed once (as the transformer
// holds them), at the sim-dims shapes of decode steps (1, 5 and 16 x
// 384 x 128), a prefill down-projection (64 x 128 x 384) and an
// evaluation pass (256 x 384 x 128), as tokens x outputs x reduction.
// BM_MatmulWt packs float weights; BM_MatmulWtW4 packs the same
// weights quantized to W4 (group 128), which the kernel dequantizes one
// panel at a time.
void
run_matmul_wt(benchmark::State &state, const WeightPanels &w)
{
    const auto m = static_cast<std::size_t>(state.range(0));
    const Matrix a = random_matrix(m, w.cols(), 7);
    for (auto _ : state) {
        Matrix c = matmul_wt(a, w, /*threads=*/1);
        benchmark::DoNotOptimize(c.data());
    }
    state.counters["GFLOP/s"] = benchmark::Counter(
        2.0 * static_cast<double>(m * w.rows() * w.cols()) *
            static_cast<double>(state.iterations()) * 1e-9,
        benchmark::Counter::kIsRate);
}

Matrix
matmul_wt_weight(const benchmark::State &state)
{
    return random_matrix(static_cast<std::size_t>(state.range(1)),
                         static_cast<std::size_t>(state.range(2)), 8);
}

void
BM_MatmulWt(benchmark::State &state)
{
    run_matmul_wt(state, WeightPanels(matmul_wt_weight(state)));
}

void
BM_MatmulWtW4(benchmark::State &state)
{
    run_matmul_wt(state, WeightPanels(QuantizedWeight::quantize(
                             matmul_wt_weight(state), {128, 4, true})));
}

void
matmul_wt_shapes(benchmark::internal::Benchmark *b)
{
    b->Args({1, 384, 128})
        ->Args({5, 384, 128})
        ->Args({16, 384, 128})
        ->Args({64, 128, 384})
        ->Args({256, 384, 128});
}
BENCHMARK(BM_MatmulWt)->Apply(matmul_wt_shapes);
BENCHMARK(BM_MatmulWtW4)->Apply(matmul_wt_shapes);

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

// The same rows through kv_unpack_rows a 16-row block at a time, the
// decode attention's tile fill.
void
BM_KvUnpackRows(benchmark::State &state, KvFormat fmt)
{
    constexpr std::size_t kRows = 256;
    constexpr std::size_t kBlock = 16;
    constexpr std::size_t kWidth = 128;
    const auto vals = random_values(kRows * kWidth, 9);
    const std::size_t bytes = kv_row_bytes(fmt, kWidth);
    std::vector<std::byte> packed(kRows * bytes);
    std::vector<const std::byte *> rows(kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
        kv_pack_row(fmt, std::span(vals).subspan(r * kWidth, kWidth),
                    std::span(packed).subspan(r * bytes, bytes));
        rows[r] = packed.data() + r * bytes;
    }
    std::vector<float> out(kBlock * kWidth);
    for (auto _ : state) {
        for (std::size_t r = 0; r < kRows; r += kBlock) {
            kv_unpack_rows(fmt, std::span(rows).subspan(r, kBlock), kWidth,
                           out);
            benchmark::DoNotOptimize(out.data());
        }
    }
    state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK_CAPTURE(BM_KvUnpackRows, anda_m4, KvFormat::anda(4));
BENCHMARK_CAPTURE(BM_KvUnpackRows, anda_m7, KvFormat::anda(7));
BENCHMARK_CAPTURE(BM_KvUnpackRows, anda_m12, KvFormat::anda(12));
BENCHMARK_CAPTURE(BM_KvUnpackRows, bfp_g64_m7, KvFormat::bfp(64, 7));

// Quantizing and packing one 128-wide K/V row, the cost a quantized
// cache pays once per stored row (every new token, every layer).
void
BM_KvPackRow(benchmark::State &state, KvFormat fmt)
{
    constexpr std::size_t kRows = 256;
    constexpr std::size_t kWidth = 128;
    const auto vals = random_values(kRows * kWidth, 9);
    std::vector<std::byte> packed(kv_row_bytes(fmt, kWidth));
    for (auto _ : state) {
        for (std::size_t r = 0; r < kRows; ++r) {
            kv_pack_row(fmt, std::span(vals).subspan(r * kWidth, kWidth),
                        packed);
            benchmark::DoNotOptimize(packed.data());
            benchmark::ClobberMemory();
        }
    }
    state.SetItemsProcessed(state.iterations() * kRows);
}
BENCHMARK_CAPTURE(BM_KvPackRow, fp32, KvFormat::fp32());
BENCHMARK_CAPTURE(BM_KvPackRow, anda_m3, KvFormat::anda(3));
BENCHMARK_CAPTURE(BM_KvPackRow, anda_m7, KvFormat::anda(7));
BENCHMARK_CAPTURE(BM_KvPackRow, anda_m7_rn, KvFormat::anda(7, true));
BENCHMARK_CAPTURE(BM_KvPackRow, bfp_g64_m7, KvFormat::bfp(64, 7));

// Queries of one 32-wide head (the sim models' head_dim) attending
// over kv_len cached rows that are read in place: range(0) is kv_len,
// range(1) the query rows, which end at the last key (one decode
// query, or a 512-row prefill chunk as rag_longctx runs them).
void
BM_CausalAttentionHead(benchmark::State &state)
{
    const std::size_t kv_len = static_cast<std::size_t>(state.range(0));
    const std::size_t rows = static_cast<std::size_t>(state.range(1));
    const Matrix q = random_matrix(rows, 128, 10);
    const Matrix k = random_matrix(kv_len, 128, 11);
    const Matrix v = random_matrix(kv_len, 128, 12);
    Matrix out(rows, 128);
    std::vector<const float *> qrows(rows);
    std::vector<float *> orows(rows);
    for (std::size_t t = 0; t < rows; ++t) {
        qrows[t] = q.row(t).data();
        orows[t] = out.row(t).data();
    }
    std::vector<const float *> krows(kv_len);
    std::vector<const float *> vrows(kv_len);
    for (std::size_t t = 0; t < kv_len; ++t) {
        krows[t] = k.row(t).data();
        vrows[t] = v.row(t).data();
    }
    for (auto _ : state) {
        causal_attention_head(qrows, krows, vrows, /*col=*/32,
                              /*head_dim=*/32, kv_len - rows, orows);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * rows);
}
BENCHMARK(BM_CausalAttentionHead)
    ->Args({64, 1})
    ->Args({512, 1})
    ->Args({1024, 1})
    ->Args({1024, 512});

// One decode row of the sim models (4 heads of 32) attending over
// kv_len cached rows straight from their packed form:
// BM_AttendDecode/<kv_len>/<format>.
void
BM_AttendDecode(benchmark::State &state, KvFormat fmt, std::size_t kv_len)
{
    constexpr std::size_t kWidth = 128;
    const auto q = random_values(kWidth, 10);
    const auto kv = random_values(2 * kv_len * kWidth, 11);
    const std::size_t bytes = kv_row_bytes(fmt, kWidth);
    // Float words keep FP32 rows aligned as floats.
    std::vector<float> store((2 * kv_len * bytes + 3) / 4);
    auto *base = reinterpret_cast<std::byte *>(store.data());
    std::vector<const std::byte *> rows(2 * kv_len);
    for (std::size_t r = 0; r < 2 * kv_len; ++r) {
        kv_pack_row(fmt, std::span(kv).subspan(r * kWidth, kWidth),
                    {base + r * bytes, bytes});
        rows[r] = base + r * bytes;
    }
    const std::span<const std::byte *const> all(rows);
    std::vector<float> out(kWidth);
    for (auto _ : state) {
        attend_decode(q, fmt, all.first(kv_len), all.subspan(kv_len),
                      /*head_dim=*/32, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kv_len);
}

[[maybe_unused]] const bool kAttendDecodeRegistered = [] {
    for (const std::size_t kv_len : {64u, 512u, 1024u}) {
        for (const auto &[name, fmt] :
             {std::pair<const char *, KvFormat>{"fp32", KvFormat::fp32()},
              {"anda_m7", KvFormat::anda(7)},
              {"anda_m12", KvFormat::anda(12)}}) {
            benchmark::RegisterBenchmark(
                ("BM_AttendDecode/" + std::to_string(kv_len) + "/" + name)
                    .c_str(),
                BM_AttendDecode, fmt, kv_len);
        }
    }
    return true;
}();

// One attention row's softmax over n scores (a decode query over an
// n-key context) with the widest vector variant the attention kernel
// inlines; BM_SoftmaxInplace is its scalar oracle on the same rows.
// Each iteration restores the scores first (an n-float copy).
template <class Fn>
void
softmax_row_bench(benchmark::State &state, Fn *softmax)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    auto scores = random_values(n, 13);
    for (float &x : scores) {
        x *= 2.0f;
    }
    std::vector<float> row(n);
    for (auto _ : state) {
        std::copy(scores.begin(), scores.end(), row.begin());
        softmax(row);
        benchmark::DoNotOptimize(row.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}

void
BM_SoftmaxRow(benchmark::State &state)
{
    softmax_row_bench(state,
                      simd::widest_supported(detail::softmax_variants()));
}
BENCHMARK(BM_SoftmaxRow)->Arg(64)->Arg(512)->Arg(1024);

void
BM_SoftmaxInplace(benchmark::State &state)
{
    softmax_row_bench(state, &softmax_inplace);
}
BENCHMARK(BM_SoftmaxInplace)->Arg(64)->Arg(512)->Arg(1024);

// RoPE of one LLaMA layer over 64 packed rows of the sim models (4
// heads of 32 per 128-wide row, q and k): the angles of each row once,
// then every head of its q and k rotated (BM_RopeRows), against
// rope_inplace per head, which evaluates pow, cos and sin for each
// (BM_RopeRowsPerHead).
constexpr std::size_t kRopeRows = 64;
constexpr std::size_t kRopeWidth = 128;
constexpr std::size_t kRopeHeadDim = 32;

void
BM_RopeRows(benchmark::State &state)
{
    Matrix q = random_matrix(kRopeRows, kRopeWidth, 14);
    Matrix k = random_matrix(kRopeRows, kRopeWidth, 15);
    std::vector<std::size_t> pos(kRopeRows);
    for (std::size_t t = 0; t < kRopeRows; ++t) {
        pos[t] = 200 + t;
    }
    Matrix angles(kRopeRows, kRopeHeadDim);
    for (auto _ : state) {
        rope_angles(pos, kRopeHeadDim, angles.flat());
        for (std::size_t t = 0; t < kRopeRows; ++t) {
            rope_rotate(q.row(t), angles.row(t));
            rope_rotate(k.row(t), angles.row(t));
        }
        benchmark::DoNotOptimize(q.data());
        benchmark::DoNotOptimize(k.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kRopeRows);
}
BENCHMARK(BM_RopeRows);

void
BM_RopeRowsPerHead(benchmark::State &state)
{
    Matrix q = random_matrix(kRopeRows, kRopeWidth, 14);
    Matrix k = random_matrix(kRopeRows, kRopeWidth, 15);
    for (auto _ : state) {
        for (std::size_t t = 0; t < kRopeRows; ++t) {
            for (std::size_t h = 0; h < kRopeWidth; h += kRopeHeadDim) {
                const int pos = static_cast<int>(200 + t);
                rope_inplace(q.row(t).subspan(h, kRopeHeadDim), pos);
                rope_inplace(k.row(t).subspan(h, kRopeHeadDim), pos);
            }
        }
        benchmark::DoNotOptimize(q.data());
        benchmark::DoNotOptimize(k.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kRopeRows);
}
BENCHMARK(BM_RopeRowsPerHead);

// The hw model prices one llama-7b decode step on the Anda system: the
// four FP-INT taps of every layer over 8 fused rows plus one attention
// pass per sequence (contexts 256..2048). The workload is built once;
// only the pricing is timed.
void
BM_PriceDecodeStep(benchmark::State &state)
{
    std::vector<SeqSlice> slices;
    for (std::uint64_t s = 1; s <= 8; ++s) {
        slices.push_back({1, 256 * s});
    }
    const Workload wl = build_decode_workload(
        find_model("llama-7b"), slices, {8, 7, 7, 6});
    const AcceleratorConfig &system = find_system("anda");
    for (auto _ : state) {
        const SystemRun run = run_workload(system, tech16(), wl);
        benchmark::DoNotOptimize(run.cycles);
    }
}
BENCHMARK(BM_PriceDecodeStep);

}  // namespace

BENCHMARK_MAIN();
