#include "serve/serving_sim.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <map>
#include <memory>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "llm/kv_pages.h"
#include "llm/ops.h"

namespace anda {

namespace {

/// A request in flight: index into the metrics array plus progress.
/// `resident` counts the rows its cache currently holds (adopted
/// prefix + prefilled prompt + decode appends) — the quantity every
/// occupancy gate and page plan reads.
struct Running {
    std::size_t idx = 0;
    std::size_t remaining_prefill = 0;
    std::size_t remaining_output = 0;
    std::size_t resident = 0;
};

/// A preempted request waiting to be readmitted.
struct Preempted {
    std::size_t idx = 0;
    std::size_t resident = 0;
    std::size_t remaining_prefill = 0;
    std::size_t remaining_output = 0;
    bool swapped = false;
    std::vector<std::byte> swap;
};

/// One planned scheduler step: the row counts the priced workload
/// carries and the per-running-request prefill chunks.
struct StepPlan {
    std::size_t decode_tokens = 0;
    std::size_t prefill_tokens = 0;
    std::vector<std::size_t> chunk;
};

/// Execution-mode state of one admitted request: its synthetic prompt
/// and its private sampling stream (schedule-independent by
/// construction). The KV cache lives outside, in the scheduler's page
/// pool, which pricing-only runs drive identically.
struct ExecRequest {
    ExecRequest(const Transformer &tf, const Request &r,
                std::uint64_t seed, int shared_prefix_len)
        : prompt(exec_prompt_tokens(tf.dims().vocab, r.prompt_len, seed,
                                    r.id, shared_prefix_len)),
          rng(exec_sampler_seed(seed, r.id))
    {
    }
    std::vector<int> prompt;
    SplitMix64 rng;
    /// Input of the next decode step (the last emitted token;
    /// preserved across preemptions).
    int last_token = 0;
};

/// Attention passes of one ragged step, in the order run_workload
/// prices them: decode slices, then prefill chunks.
std::vector<AttnOp>
step_attn_ops(const ModelConfig &model, std::span<const SeqSlice> prefill,
              std::span<const SeqSlice> decode, double kv_bits_per_elem)
{
    std::vector<AttnOp> ops =
        build_attn_ops(model, decode, true, kv_bits_per_elem);
    std::vector<AttnOp> pre =
        build_attn_ops(model, prefill, false, kv_bits_per_elem);
    ops.insert(ops.end(), std::make_move_iterator(pre.begin()),
               std::make_move_iterator(pre.end()));
    return ops;
}

}  // namespace

int
exec_pick_token(std::span<const float> logits, double temperature,
                SplitMix64 &rng)
{
    if (temperature > 0.0) {
        return sample_from_logits(logits, temperature, rng.uniform());
    }
    std::size_t best = 0;
    for (std::size_t v = 1; v < logits.size(); ++v) {
        if (logits[v] > logits[best]) {
            best = v;
        }
    }
    return static_cast<int>(best);
}

namespace {

double
percentile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    return values[std::min(values.size() - 1,
                           rank == 0 ? 0 : rank - 1)];
}

}  // namespace

double
ServingReport::output_tokens_per_s() const
{
    return makespan_s > 0.0
               ? static_cast<double>(total_output_tokens) / makespan_s
               : 0.0;
}

double
ServingReport::mean_ttft_s() const
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &r : requests) {
        if (r.completed()) {
            sum += r.ttft_s();
            ++n;
        }
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double
ServingReport::p95_ttft_s() const
{
    std::vector<double> ttft;
    ttft.reserve(requests.size());
    for (const auto &r : requests) {
        if (r.completed()) {
            ttft.push_back(r.ttft_s());
        }
    }
    return percentile(std::move(ttft), 0.95);
}

double
ServingReport::mean_decode_s_per_token() const
{
    double sum = 0.0;
    std::size_t n = 0;
    for (const auto &r : requests) {
        if (r.completed() && r.output_len > 1) {
            sum += r.decode_s_per_token();
            ++n;
        }
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

std::vector<ClassReport>
ServingReport::by_class() const
{
    std::vector<ClassReport> classes;
    const auto class_of = [&](int priority) -> ClassReport & {
        for (ClassReport &c : classes) {
            if (c.priority == priority) {
                return c;
            }
        }
        classes.push_back({});
        classes.back().priority = priority;
        return classes.back();
    };
    for (const auto &r : requests) {
        ClassReport &c = class_of(r.priority);
        ++c.n;
        c.preemptions += r.preempt_count;
        c.fault_retries += r.fault_retries;
        switch (r.outcome) {
        case RequestOutcome::kCompleted:
            ++c.completed;
            break;
        case RequestOutcome::kDroppedDeadline:
            ++c.dropped;
            break;
        case RequestOutcome::kShed:
            ++c.shed;
            break;
        case RequestOutcome::kFailed:
            ++c.failed;
            break;
        }
        if (r.ttft_slo_s > 0.0) {
            ++c.ttft_slo_n;
            if (r.completed() && r.ttft_s() <= r.ttft_slo_s) {
                ++c.ttft_slo_met;
            }
        }
        if (r.deadline_s > 0.0) {
            ++c.deadline_n;
            if (r.completed() && r.latency_s() <= r.deadline_s) {
                ++c.deadline_met;
            }
        }
    }
    std::sort(classes.begin(), classes.end(),
              [](const ClassReport &a, const ClassReport &b) {
                  return a.priority < b.priority;
              });
    for (ClassReport &c : classes) {
        std::vector<double> ttft;
        std::vector<double> latency;
        double ttft_sum = 0.0;
        for (const auto &r : requests) {
            if (r.priority != c.priority || !r.completed()) {
                continue;
            }
            ttft.push_back(r.ttft_s());
            ttft_sum += r.ttft_s();
            latency.push_back(r.latency_s());
        }
        if (!ttft.empty()) {
            c.ttft_mean_s = ttft_sum / static_cast<double>(ttft.size());
            c.ttft_p95_s = percentile(ttft, 0.95);
            c.latency_p50_s = percentile(latency, 0.50);
            c.latency_p95_s = percentile(std::move(latency), 0.95);
        }
    }
    return classes;
}

double
ServingReport::mean_fragmentation() const
{
    if (page_size == 0) {
        return 0.0;
    }
    double sum = 0.0;
    std::size_t n = 0;
    for (const ServingStep &s : steps) {
        if (s.used_pages == 0) {
            continue;
        }
        const double slots = static_cast<double>(s.used_pages) *
                             static_cast<double>(page_size);
        const double util =
            std::min(1.0, static_cast<double>(s.cache_tokens) / slots);
        sum += 1.0 - util;
        ++n;
    }
    return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

std::uint64_t
ServingReport::generated_checksum() const
{
    std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a 64 offset.
    const auto mix = [&h](std::uint64_t x) {
        for (int b = 0; b < 8; ++b) {
            h ^= (x >> (8 * b)) & 0xffull;
            h *= 0x100000001b3ull;
        }
    };
    for (const auto &r : requests) {
        mix(static_cast<std::uint64_t>(r.id));
        mix(r.tokens.size());
        for (const int t : r.tokens) {
            mix(static_cast<std::uint64_t>(t));
        }
    }
    return h;
}

std::string
ServingReport::summary() const
{
    std::ostringstream out;
    out.precision(3);
    out << std::fixed;
    out << "serving[" << system << " @ " << model << "]: "
        << requests.size() << " req, " << total_prompt_tokens
        << " prompt + " << total_output_tokens << " output tok in "
        << makespan_s * 1e3 << " ms (" << std::setprecision(0)
        << output_tokens_per_s() << " out tok/s); " << std::setprecision(3)
        << "TTFT mean " << mean_ttft_s() * 1e3 << " ms / p95 "
        << p95_ttft_s() * 1e3 << " ms; decode "
        << mean_decode_s_per_token() * 1e3 << " ms/tok; "
        << steps.size() << " steps, peak batch " << peak_batch
        << ", peak cache " << peak_cache_tokens << " tok";
    out << "; paged " << peak_used_pages << "/" << page_budget
        << " peak pages x" << page_size << ", " << preemptions
        << " preempt / " << readmits << " readmit, frag "
        << std::setprecision(1) << mean_fragmentation() * 100.0
        << "%, reuse " << reused_prefix_tokens << " tok, recompute "
        << recomputed_tokens << " tok" << std::setprecision(3);
    if (dropped + shed + failed + step_faults + swap_faults > 0) {
        out << "; robust " << completed << " ok / " << dropped
            << " drop / " << shed << " shed / " << failed
            << " fail, faults " << step_faults << " step + "
            << swap_faults << " swap";
    }
    if (swap_bytes > 0) {
        out << "; swapped " << swap_bytes << " B ("
            << swap_out_bytes << " out + " << swap_in_bytes
            << " in) in " << swap_stall_s * 1e3 << " ms";
    }
    if (kv_dram_bytes > 0) {
        out << "; attn "
            << (total_cycles > 0
                    ? 100.0 * static_cast<double>(attn_cycles) /
                          static_cast<double>(total_cycles)
                    : 0.0)
            << "% of cycles, kv " << kv_dram_bytes << " B";
    }
    // Quantized caches only: the FP32 default keeps the legacy
    // summary string byte-for-byte.
    if (!kv_format.empty() && kv_format != "fp32") {
        out << "; kvfmt " << kv_format << " (" << kv_bytes_per_token
            << " B/tok)";
    }
    if (executed) {
        out << "; executed checksum " << std::hex
            << generated_checksum() << std::dec;
    }
    out << "\n";
    return out.str();
}

std::vector<int>
exec_prompt_tokens(int vocab, int prompt_len, std::uint64_t seed,
                   int id, int shared_prefix_len)
{
    ANDA_CHECK(vocab >= 1 && prompt_len >= 1 && shared_prefix_len >= 0,
               "bad prompt spec");
    std::vector<int> prompt(static_cast<std::size_t>(prompt_len));
    prompt[0] = 0;  // BOS, matching the teacher's convention.
    // The shared system-prompt head comes from a stream derived from
    // the seed alone (stream index ~0 is far from the per-id 2*id /
    // 2*id+1 streams), so every request draws the identical prefix.
    const std::size_t shared = std::min(
        static_cast<std::size_t>(shared_prefix_len), prompt.size());
    if (shared > 1) {
        SplitMix64 rng(derive_seed(seed, ~0ull));
        for (std::size_t t = 1; t < shared; ++t) {
            prompt[t] = static_cast<int>(
                rng.uniform_index(static_cast<std::uint64_t>(vocab)));
        }
    }
    SplitMix64 rng(derive_seed(
        seed, 2 * static_cast<std::uint64_t>(static_cast<unsigned>(id)) +
                  1));
    for (std::size_t t = std::max<std::size_t>(shared, 1);
         t < prompt.size(); ++t) {
        prompt[t] = static_cast<int>(
            rng.uniform_index(static_cast<std::uint64_t>(vocab)));
    }
    return prompt;
}

std::uint64_t
exec_sampler_seed(std::uint64_t seed, int id)
{
    return derive_seed(
        seed, 2 * static_cast<std::uint64_t>(static_cast<unsigned>(id)));
}

std::vector<GemmOp>
build_step_workload(const ModelConfig &model, std::size_t prefill_tokens,
                    std::size_t decode_tokens,
                    const PrecisionTuple &tuple)
{
    const std::uint64_t total =
        static_cast<std::uint64_t>(prefill_tokens) + decode_tokens;
    ANDA_CHECK_GT(total, 0u, "empty serving step");
    // Continuous batching fuses every scheduled row into one ragged
    // GeMM per tap per layer (weights stream once for the whole step);
    // the shapes depend only on the total row count.
    return prefill_tokens == 0
               ? build_decode_workload(model, total, tuple)
               : build_prefill_workload(model, total, tuple);
}

Workload
build_step_workload(const ModelConfig &model,
                    std::span<const SeqSlice> prefill,
                    std::span<const SeqSlice> decode,
                    const PrecisionTuple &tuple, double kv_bits_per_elem)
{
    std::size_t prefill_tokens = 0;
    std::size_t decode_tokens = 0;
    for (const SeqSlice &s : prefill) {
        prefill_tokens += s.rows;
    }
    for (const SeqSlice &s : decode) {
        decode_tokens += s.rows;
    }
    Workload wl;
    // The taps see the identical fused shapes the GeMM-only model
    // prices — attention pricing only *adds* AttnOps on top, streamed
    // at the KV cache's storage width.
    wl.gemms =
        build_step_workload(model, prefill_tokens, decode_tokens, tuple);
    wl.attns = step_attn_ops(model, prefill, decode, kv_bits_per_elem);
    return wl;
}

ServingReport
simulate_serving(const ModelConfig &model,
                 const AcceleratorConfig &system, const TechParams &tech,
                 std::span<const Request> requests,
                 const ServingOptions &opts_in)
{
    // Local copy: page_budget is resolved (from kv_byte_budget, or
    // derived when no budget is given) up front, so every downstream
    // gate reads one consistent limit.
    ServingOptions opts = opts_in;
    ANDA_CHECK(!requests.empty(), "empty request stream");
    ANDA_CHECK(opts.max_batch > 0 && opts.max_step_tokens > 0,
               "zero serving batch or budget");
    ANDA_CHECK(opts.page_size > 0, "serving needs a page size");
    ANDA_CHECK(std::isfinite(opts.swap_gbps),
               "non-finite swap bandwidth");
    ANDA_CHECK(opts.swap_gbps >= 0.0, "negative swap bandwidth");
    ANDA_CHECK(opts.shed_timeout_s >= 0.0, "negative shed timeout");
    kv_validate(opts.kv_format);
    const FaultInjector injector(opts.faults);  // Validates the spec.
    const bool faults_on = opts.faults.enabled();
    const bool exec = opts.executor != nullptr;
    const std::size_t ps = opts.page_size;
    // KV bytes of one cached token at the real model dims: K and V
    // rows across every layer, at the cache format's packed width.
    const std::size_t kv_bytes_per_token =
        2 * static_cast<std::size_t>(model.real.n_layers) *
        kv_row_bytes(opts.kv_format,
                     static_cast<std::size_t>(model.real.d_model));
    const std::size_t shared_len =
        opts.shared_prefix_len > 0
            ? static_cast<std::size_t>(opts.shared_prefix_len)
            : 0;
    std::size_t max_rows = 1;   // Largest single-request footprint.
    std::size_t max_prompt = 0;
    for (const Request &r : requests) {
        ANDA_CHECK(r.prompt_len >= 1 && r.output_len >= 1,
                   "bad request lengths");
        ANDA_CHECK(std::isfinite(r.arrival_s), "non-finite arrival time");
        ANDA_CHECK(r.ttft_slo_s >= 0.0 && r.deadline_s >= 0.0,
                   "negative request SLO");
        max_rows = std::max(
            max_rows, static_cast<std::size_t>(r.prompt_len) +
                          static_cast<std::size_t>(r.output_len) - 1);
        max_prompt =
            std::max(max_prompt, static_cast<std::size_t>(r.prompt_len));
        // A request caches prompt_len + output_len - 1 rows (every
        // decode input appends one); it must fit the executor.
        ANDA_CHECK(!exec || r.prompt_len + r.output_len - 1 <=
                                opts.executor->dims().max_seq,
                   "request exceeds the executor's max_seq");
    }
    // Pages the shared-prefix anchor can pin.
    const std::size_t anchor_bound = PagedKvCache::pages_for(
        std::min(shared_len, max_prompt), ps);
    if (opts.kv_byte_budget > 0) {
        ANDA_CHECK(opts.page_budget == 0,
                   "kv_byte_budget and page_budget are mutually "
                   "exclusive");
        opts.page_budget =
            opts.kv_byte_budget / (ps * kv_bytes_per_token);
        ANDA_CHECK(opts.page_budget > 0,
                   "kv_byte_budget smaller than one page");
    } else if (opts.page_budget == 0) {
        // No budget given: a pool that can never block. Each running
        // request holds at most its own worst-case pages plus a
        // copy-on-extend page, and the anchor pins at most
        // anchor_bound, so admission and decode growth always fit and
        // nothing waits or is preempted.
        opts.page_budget =
            opts.max_batch *
                (PagedKvCache::pages_for(max_rows, ps) + 1) +
            anchor_bound;
    }
    // Every request must be schedulable alone: its own worst-case
    // pages, the shared-prefix anchor's pages, and one copy-on-extend
    // page of slack.
    ANDA_CHECK_LE(PagedKvCache::pages_for(max_rows, ps) + anchor_bound +
                      1,
                  opts.page_budget, "request cannot fit the page budget");

    ServingReport report;
    report.model = model.name;
    report.system = system.name;
    report.kv_format = opts.kv_format.name();
    report.kv_bytes_per_token = kv_bytes_per_token;
    report.page_size = ps;
    report.page_budget = opts.page_budget;

    // FCFS admission order: by arrival time, ids breaking ties.
    std::vector<const Request *> queue;
    queue.reserve(requests.size());
    for (const Request &r : requests) {
        queue.push_back(&r);
    }
    std::stable_sort(queue.begin(), queue.end(),
                     [](const Request *a, const Request *b) {
                         return a->arrival_s != b->arrival_s
                                    ? a->arrival_s < b->arrival_s
                                    : a->id < b->id;
                     });

    report.requests.resize(requests.size());
    for (std::size_t i = 0; i < queue.size(); ++i) {
        RequestMetrics &m = report.requests[i];
        m.id = queue[i]->id;
        m.arrival_s = queue[i]->arrival_s;
        m.prompt_len = queue[i]->prompt_len;
        m.output_len = queue[i]->output_len;
        m.priority = queue[i]->priority;
        m.ttft_slo_s = queue[i]->ttft_slo_s;
        m.deadline_s = queue[i]->deadline_s;
        report.total_prompt_tokens +=
            static_cast<std::size_t>(m.prompt_len);
        report.total_output_tokens +=
            static_cast<std::size_t>(m.output_len);
    }

    // GeMM-tap cost of a fused step, memoized per (phase, fused rows)
    // for this call: with the model, system and tuple fixed, the taps
    // depend on nothing else, so each shape is priced once.
    std::map<std::pair<bool, std::size_t>, SystemRun> tap_memo;
    const auto tap_cost = [&](std::size_t prefill,
                              std::size_t decode) -> const SystemRun & {
        const auto [it, fresh] =
            tap_memo.try_emplace({prefill > 0, prefill + decode});
        if (fresh) {
            it->second = run_workload(
                system, tech,
                build_step_workload(model, prefill, decode, opts.tuple));
        }
        return it->second;
    };

    // Cheapest possible step (one decode token): the provable
    // per-emitted-token lower bound kDropUnmeetable tests against.
    // Deliberately GeMM-only even under attn_pricing — attention only
    // adds cost, so this stays a valid (looser) lower bound and the
    // drop decision cannot become more aggressive than the legacy
    // model's.
    double min_step_s = 0.0;
    if (opts.deadline_policy == DeadlinePolicy::kDropUnmeetable) {
        min_step_s = tap_cost(0, 1).seconds(tech);
    }
    // Priced bytes of one swapped KV row: K and V at the cache
    // format's packed width, real dims (the same dims the GeMM taps
    // are priced at). For FP32 this is the legacy 8 * layers *
    // d_model bytes exactly.
    const double row_bytes =
        2.0 * static_cast<double>(model.real.n_layers) *
        static_cast<double>(kv_row_bytes(
            opts.kv_format,
            static_cast<std::size_t>(model.real.d_model)));

    report.executed = exec;
    std::vector<std::unique_ptr<ExecRequest>> exec_state(queue.size());

    // The page pool: real storage when executing, accounting-only in
    // pricing mode — both take the identical allocate/share/preempt
    // sequence, so page counts (and hence every scheduling decision)
    // are bit-identical between priced and executed runs.
    std::unique_ptr<KvPagePool> pool;
    if (exec) {
        const ModelDims &d = opts.executor->dims();
        pool = std::make_unique<KvPagePool>(
            static_cast<std::size_t>(d.n_layers),
            static_cast<std::size_t>(d.d_model),
            static_cast<std::size_t>(d.max_seq), ps, opts.page_budget,
            true, opts.kv_format);
    } else {
        pool = std::make_unique<KvPagePool>(1, 1, max_rows, ps,
                                            opts.page_budget, false,
                                            opts.kv_format);
    }
    std::vector<std::unique_ptr<PagedKvCache>> pcache(queue.size());

    // Shared-prefix anchor: adopts the first admitted request's
    // prefix pages once they are committed; later admissions adopt
    // from the anchor (so the pages survive the producer).
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::unique_ptr<PagedKvCache> anchor;
    std::size_t producer = kNone;
    std::size_t anchor_target = 0;

    std::vector<Running> running;
    running.reserve(opts.max_batch);
    std::vector<Preempted> preempted_q;
    // Arrived requests not yet admitted, ordered (priority desc,
    // arrival asc, id asc): the highest waiting class admits first and
    // FCFS survives inside a class, so with uniform priorities this is
    // exactly the legacy FCFS cursor.
    std::vector<std::size_t> waiting;
    std::size_t next = 0;  // Arrival-ingestion cursor.
    double now = 0.0;
    // Per-request swap-in attempt counters (the fault-stream key).
    std::vector<std::size_t> swap_attempts(queue.size(), 0);
    // Robustness events between steps, attached to the next recorded
    // step for replay (events of abandoned step attempts roll into
    // the next recorded step; any trailing events flush into the
    // final one, so the step log conserves every event the report
    // totals count).
    std::size_t pending_drops = 0;
    std::size_t pending_sheds = 0;
    std::size_t pending_preempts = 0;
    std::size_t pending_fault_retries = 0;
    std::size_t pending_failed = 0;
    double pending_swap_stall = 0.0;
    // Fault-stream step site; advances per planned step even when the
    // step is abandoned, so the schedule replays exactly.
    std::uint64_t fault_site = 0;

    const auto admit_less = [&report](std::size_t a, std::size_t b) {
        const RequestMetrics &ma = report.requests[a];
        const RequestMetrics &mb = report.requests[b];
        if (ma.priority != mb.priority) {
            return ma.priority > mb.priority;
        }
        if (ma.arrival_s != mb.arrival_s) {
            return ma.arrival_s < mb.arrival_s;
        }
        return ma.id < mb.id;
    };
    const auto enqueue_waiting = [&](std::size_t idx) {
        const auto pos =
            std::find_if(waiting.begin(), waiting.end(),
                         [&](std::size_t w) {
                             return admit_less(idx, w);
                         });
        waiting.insert(pos, idx);
    };
    // Prices swap traffic onto the timeline (swap_gbps > 0 only).
    // Called on BOTH directions — at eviction (swap-out, from
    // preempt_victim) and at readmission (swap-in) — so one preempt-
    // readmit round trip stalls twice. GB here is decimal: 1 GB/s =
    // 1e9 B/s (docs/SERVING.md documents the convention).
    const auto price_swap = [&](std::size_t rows, bool swap_out) {
        if (opts.swap_gbps <= 0.0 || rows == 0) {
            return;
        }
        const double bytes = static_cast<double>(rows) * row_bytes;
        const double stall = bytes / (opts.swap_gbps * 1e9);
        now += stall;
        pending_swap_stall += stall;
        report.swap_bytes += static_cast<std::uint64_t>(bytes);
        (swap_out ? report.swap_out_bytes : report.swap_in_bytes) +=
            static_cast<std::uint64_t>(bytes);
        report.swap_stall_s += stall;
    };
    // Samples the live resident-row total into the peak high-water
    // mark. The post-step sample alone under-records: rows
    // materialized between steps (swap-in restores, shared-prefix
    // adoption at admission) can be preempted away by plan_step
    // before the step is recorded, so a capacity planner reading only
    // max-over-steps cache_tokens would budget below the true peak.
    const auto note_resident_peak = [&]() {
        std::size_t rows = 0;
        for (const Running &r : running) {
            rows += r.resident;
        }
        report.peak_cache_tokens =
            std::max(report.peak_cache_tokens, rows);
    };
    // Retires a never-running request (waiting or preempted).
    const auto retire = [&](std::size_t idx, RequestOutcome oc) {
        RequestMetrics &m = report.requests[idx];
        m.outcome = oc;
        m.finish_s = now;
        if (oc == RequestOutcome::kDroppedDeadline) {
            ++report.dropped;
            ++pending_drops;
        } else if (oc == RequestOutcome::kShed) {
            ++report.shed;
            ++pending_sheds;
        } else {
            ++report.failed;
        }
    };
    // Is `m`'s completion deadline already missed — or, under
    // kDropUnmeetable, provably unmeetable with `remaining` tokens
    // still to emit (each needs one step >= min_step_s)?
    const auto deadline_hopeless = [&](const RequestMetrics &m,
                                       std::size_t remaining) {
        if (m.deadline_s <= 0.0) {
            return false;
        }
        const double dl = m.arrival_s + m.deadline_s;
        if (now > dl) {
            return true;
        }
        return opts.deadline_policy ==
                   DeadlinePolicy::kDropUnmeetable &&
               now + static_cast<double>(remaining) * min_step_s > dl;
    };

    const auto pick_victim = [&]() -> std::size_t {
        // Every policy breaks ties toward the latest-admitted index,
        // so kYoungest is the pure tie-break and uniform class
        // metadata degenerates the metadata-keyed policies to the
        // legacy victim (kLargestFootprint keys on residency).
        std::size_t best = running.size() - 1;
        switch (opts.evict) {
        case EvictPolicy::kYoungest:
            break;
        case EvictPolicy::kLowestPriority:
            best = 0;
            for (std::size_t i = 1; i < running.size(); ++i) {
                if (report.requests[running[i].idx].priority <=
                    report.requests[running[best].idx].priority) {
                    best = i;
                }
            }
            break;
        case EvictPolicy::kNearestDeadlineLast: {
            const auto slack = [&](std::size_t i) {
                const RequestMetrics &m =
                    report.requests[running[i].idx];
                return m.deadline_s > 0.0
                           ? m.arrival_s + m.deadline_s - now
                           : std::numeric_limits<double>::infinity();
            };
            best = 0;
            double best_slack = slack(0);
            for (std::size_t i = 1; i < running.size(); ++i) {
                const double s = slack(i);
                if (s >= best_slack) {
                    best_slack = s;
                    best = i;
                }
            }
            break;
        }
        case EvictPolicy::kLargestFootprint:
            best = 0;
            for (std::size_t i = 1; i < running.size(); ++i) {
                if (running[i].resident >= running[best].resident) {
                    best = i;
                }
            }
            break;
        }
        return best;
    };

    const auto preempt_victim = [&](std::size_t &step_preempts) {
        const std::size_t vi = pick_victim();
        Running victim = running[vi];
        running.erase(running.begin() +
                      static_cast<std::ptrdiff_t>(vi));
        Preempted p;
        p.idx = victim.idx;
        p.resident = victim.resident;
        p.remaining_prefill = victim.remaining_prefill;
        p.remaining_output = victim.remaining_output;
        if (opts.preempt == PreemptPolicy::kSwap) {
            p.swapped = true;
            p.swap = pcache[victim.idx]->swap_out();
            price_swap(victim.resident, true);
        } else {
            pcache[victim.idx]->release_all();
        }
        ++report.requests[victim.idx].preempt_count;
        // The readmission queue stays in admission order (priority,
        // then arrival): a victim re-enters at its original position
        // instead of jumping to the front, so eviction storms and
        // swap-fault recompute fallbacks can never silently invert
        // FCFS (or priority) order.
        const auto pos = std::find_if(
            preempted_q.begin(), preempted_q.end(),
            [&](const Preempted &q) {
                return admit_less(p.idx, q.idx);
            });
        preempted_q.insert(pos, std::move(p));
        ++report.preemptions;
        ++step_preempts;
    };

    // Plans one step over the current batch, preempting under page
    // pressure until the plan fits (a lone request always fits,
    // enforced by the up-front budget validation).
    const auto plan_step = [&](std::size_t &step_preempts) {
        StepPlan plan;
        for (;;) {
            plan.decode_tokens = 0;
            std::size_t decode_pages = 0;
            for (const Running &r : running) {
                if (r.remaining_prefill == 0) {
                    ++plan.decode_tokens;
                    decode_pages +=
                        pcache[r.idx]->new_pages_needed(r.resident + 1);
                }
            }
            plan.prefill_tokens = 0;
            plan.chunk.assign(running.size(), 0);
            const bool decode_fits =
                decode_pages <= pool->allocator().free_pages();
            if (decode_fits) {
                std::size_t budget =
                    opts.max_step_tokens > plan.decode_tokens
                        ? opts.max_step_tokens - plan.decode_tokens
                        : 0;
                std::size_t avail =
                    pool->allocator().free_pages() - decode_pages;
                for (std::size_t i = 0;
                     i < running.size() && budget > 0; ++i) {
                    if (running[i].remaining_prefill == 0) {
                        continue;
                    }
                    const PagedKvCache &cache = *pcache[running[i].idx];
                    const std::size_t ext = cache.max_extension(avail);
                    const std::size_t c = std::min(
                        {running[i].remaining_prefill, budget,
                         ext > running[i].resident
                             ? ext - running[i].resident
                             : 0});
                    if (c == 0) {
                        continue;
                    }
                    avail -=
                        cache.new_pages_needed(running[i].resident + c);
                    plan.chunk[i] = c;
                    budget -= c;
                    plan.prefill_tokens += c;
                }
            }
            if (decode_fits &&
                plan.decode_tokens + plan.prefill_tokens > 0) {
                return plan;
            }
            ANDA_CHECK(running.size() > 1,
                       "scheduler cannot make progress within the page "
                       "budget");
            preempt_victim(step_preempts);
        }
    };

    // Prices one planned step. With attn_pricing each scheduled
    // sequence contributes a SeqSlice over its cached context (decode
    // rows and prefill chunks alike — a recompute-readmitted prefill
    // restarts at context 0, so its re-attention is priced again,
    // matching the recompute-costs-compute policy). Without it, the
    // legacy GeMM-only aggregate is priced bit-identically to the
    // pre-attention model.
    const auto price_step = [&](const StepPlan &plan) {
        const SystemRun &taps =
            tap_cost(plan.prefill_tokens, plan.decode_tokens);
        if (!opts.attn_pricing) {
            return taps;
        }
        std::vector<SeqSlice> prefill;
        std::vector<SeqSlice> decode;
        for (std::size_t i = 0; i < running.size(); ++i) {
            const Running &r = running[i];
            if (r.remaining_prefill == 0) {
                decode.push_back(
                    {1, static_cast<std::uint64_t>(r.resident)});
            } else if (plan.chunk[i] > 0) {
                prefill.push_back(
                    {static_cast<std::uint64_t>(plan.chunk[i]),
                     static_cast<std::uint64_t>(r.resident)});
            }
        }
        // Attention priced per step on top of the memoized taps:
        // cycles, attn_cycles and kv_dram_bits equal run_workload of
        // the full step workload bit for bit (the taps carry no KV
        // bits). The energies agree up to summation order; no step
        // field reads them.
        Workload attn;
        attn.attns = step_attn_ops(model, prefill, decode,
                                   opts.kv_format.bits_per_element());
        SystemRun run = run_workload(system, tech, attn);
        run.cycles += taps.cycles;
        run.compute_energy_pj += taps.compute_energy_pj;
        run.bpc_energy_pj += taps.bpc_energy_pj;
        run.act_sram_energy_pj += taps.act_sram_energy_pj;
        run.wgt_sram_energy_pj += taps.wgt_sram_energy_pj;
        run.dram_energy_pj += taps.dram_energy_pj;
        return run;
    };

    while (next < queue.size() || !waiting.empty() ||
           !running.empty() || !preempted_q.empty()) {
        // Idle system: jump to the next arrival (never while a
        // preempted or waiting request is pending — their service is
        // immediate).
        if (running.empty() && preempted_q.empty() &&
            waiting.empty() && next < queue.size() &&
            report.requests[next].arrival_s > now) {
            now = report.requests[next].arrival_s;
        }
        // Ingest arrivals into the priority-ordered waiting queue.
        while (next < queue.size() &&
               report.requests[next].arrival_s <= now) {
            enqueue_waiting(next);
            ++next;
        }
        // Deadline enforcement: waiting and preempted requests whose
        // completion deadline is missed (or provably unmeetable)
        // leave now instead of occupying queue slots and pages.
        if (opts.deadline_policy != DeadlinePolicy::kNone) {
            for (std::size_t w = 0; w < waiting.size();) {
                const std::size_t idx = waiting[w];
                const RequestMetrics &m = report.requests[idx];
                if (deadline_hopeless(
                        m, static_cast<std::size_t>(m.output_len))) {
                    retire(idx, RequestOutcome::kDroppedDeadline);
                    waiting.erase(waiting.begin() +
                                  static_cast<std::ptrdiff_t>(w));
                } else {
                    ++w;
                }
            }
            for (std::size_t p = 0; p < preempted_q.size();) {
                const Preempted &pe = preempted_q[p];
                if (deadline_hopeless(report.requests[pe.idx],
                                      pe.remaining_output)) {
                    pcache[pe.idx].reset();
                    exec_state[pe.idx].reset();
                    retire(pe.idx, RequestOutcome::kDroppedDeadline);
                    preempted_q.erase(
                        preempted_q.begin() +
                        static_cast<std::ptrdiff_t>(p));
                } else {
                    ++p;
                }
            }
        }
        // Load shedding: under overload the lowest waiting class is
        // turned away once it has queued past the timeout — graceful
        // degradation before preemption starts thrashing. Higher
        // classes never shed while a lower class is present.
        if (opts.shed_timeout_s > 0.0 && !waiting.empty()) {
            int low = report.requests[waiting.front()].priority;
            for (const std::size_t idx : waiting) {
                low = std::min(low, report.requests[idx].priority);
            }
            for (std::size_t w = 0; w < waiting.size();) {
                const std::size_t idx = waiting[w];
                const RequestMetrics &m = report.requests[idx];
                if (m.priority == low &&
                    now - m.arrival_s > opts.shed_timeout_s) {
                    retire(idx, RequestOutcome::kShed);
                    waiting.erase(waiting.begin() +
                                  static_cast<std::ptrdiff_t>(w));
                } else {
                    ++w;
                }
            }
        }
        // Readmit preempted requests first (queue order), before any
        // new admission: swap restores the saved rows (a seeded
        // swap-in fault falls back to recompute), recompute re-enters
        // prefill over prompt + already-generated rows (emitting
        // nothing it already emitted).
        while (!preempted_q.empty() &&
               running.size() < opts.max_batch) {
            Preempted &p = preempted_q.front();
            const std::size_t need =
                p.swapped
                    ? PagedKvCache::pages_for(p.resident, ps)
                    : PagedKvCache::pages_for(
                          p.resident + p.remaining_prefill, ps);
            if (need > pool->allocator().free_pages()) {
                break;  // In order: never skip past a blocked head.
            }
            if (p.swapped && faults_on &&
                injector.swap_in_fails(report.requests[p.idx].id,
                                       swap_attempts[p.idx]++)) {
                // Host copy lost: fall back to recompute-on-readmit
                // (token-identical by the recompute guarantee), then
                // re-evaluate the larger recompute page need.
                p.swapped = false;
                p.swap.clear();
                ++report.swap_faults;
                continue;
            }
            if (p.swapped) {
                pcache[p.idx]->swap_in(p.swap, p.resident);
                price_swap(p.resident, false);
                running.push_back({p.idx, p.remaining_prefill,
                                   p.remaining_output, p.resident});
            } else {
                report.recomputed_tokens += p.resident;
                running.push_back(
                    {p.idx, p.resident + p.remaining_prefill,
                     p.remaining_output, 0});
            }
            ++report.readmits;
            preempted_q.erase(preempted_q.begin());
        }
        ANDA_CHECK(!running.empty() || preempted_q.empty(),
                   "preempted request cannot readmit into an idle pool");
        // Continuous batching: admit every waiting request that fits,
        // highest priority first. Readmissions drain first — new
        // admissions wait behind them.
        while (!waiting.empty() && running.size() < opts.max_batch &&
               preempted_q.empty()) {
            const std::size_t cand = waiting.front();
            RequestMetrics &m = report.requests[cand];
            const std::size_t prompt =
                static_cast<std::size_t>(m.prompt_len);
            // Adopt as much of the anchored shared prefix as this
            // prompt covers, always leaving >= 1 row to prefill (the
            // completing chunk's logits emit the first token).
            const std::size_t reuse =
                anchor ? std::min({anchor->length(), shared_len,
                                   prompt - 1})
                       : 0;
            std::size_t need = PagedKvCache::pages_for(prompt, ps) -
                               PagedKvCache::pages_for(reuse, ps);
            if (reuse % ps != 0) {
                need += 1;  // Copy-on-extend of the shared tail.
            }
            if (need > pool->allocator().free_pages()) {
                break;  // Never skip past a blocked head.
            }
            m.admitted_s = now;
            running.push_back({cand, prompt - reuse,
                               static_cast<std::size_t>(m.output_len),
                               reuse});
            pcache[cand] = std::make_unique<PagedKvCache>(*pool);
            if (reuse > 0) {
                pcache[cand]->adopt_prefix(*anchor, reuse);
                report.reused_prefix_tokens += reuse;
            }
            if (shared_len > 0 && producer == kNone) {
                producer = cand;
                anchor_target = std::min(shared_len, prompt);
            }
            if (exec) {
                exec_state[cand] = std::make_unique<ExecRequest>(
                    *opts.executor, *queue[cand], opts.exec_seed,
                    opts.shared_prefix_len);
            }
            waiting.erase(waiting.begin());
        }
        // Swap-ins and prefix adoptions above materialized rows that
        // a same-round preemption (plan_step below) may free again
        // before the step records — capture the transient peak now.
        note_resident_peak();
        if (running.empty()) {
            // Everything arrived was dropped or shed; nothing to run.
            ANDA_CHECK(waiting.empty(),
                       "a waiting request could not admit into an "
                       "idle batch");
            continue;
        }
        report.peak_batch = std::max(report.peak_batch, running.size());

        // Schedule the step: one decode token per finished-prefill
        // request, leftover budget into prefill chunks (priority
        // admission order). The plan must also fit the free pages:
        // when it cannot, the EvictPolicy victim is preempted and the
        // plan retried (a lone request always fits,
        // enforced by the up-front budget validation).
        StepPlan plan = plan_step(pending_preempts);

        // Price the accelerator execution. A seeded transient fault
        // wastes the attempt's cycles, idles through a capped
        // exponential backoff (in units of the attempt's duration),
        // charges every scheduled request one retry, and terminally
        // fails requests past their budget before the retry replans.
        SystemRun run{};
        bool abandoned = false;
        const std::uint64_t site = fault_site++;
        for (std::size_t attempt = 0;; ++attempt) {
            // Repriced per attempt: a retry can have replanned after
            // terminal failures, changing both rows and contexts.
            run = price_step(plan);
            if (!faults_on ||
                !injector.step_attempt_fails(site, attempt)) {
                break;
            }
            const double dur = run.seconds(tech);
            now += dur * static_cast<double>(
                             1 + injector.backoff_steps(attempt));
            report.wasted_cycles += run.cycles;
            ++report.step_faults;
            ++pending_fault_retries;
            bool removed = false;
            for (std::size_t i = running.size(); i-- > 0;) {
                const Running &r = running[i];
                const bool scheduled =
                    r.remaining_prefill == 0 || plan.chunk[i] > 0;
                if (!scheduled) {
                    continue;
                }
                RequestMetrics &m = report.requests[r.idx];
                ++m.fault_retries;
                if (m.fault_retries <= opts.faults.retry_budget) {
                    continue;
                }
                // Terminal: the request exhausted its retry budget.
                m.outcome = RequestOutcome::kFailed;
                m.finish_s = now;
                ++report.failed;
                ++pending_failed;
                pcache[r.idx].reset();
                exec_state[r.idx].reset();
                running.erase(running.begin() +
                              static_cast<std::ptrdiff_t>(i));
                removed = true;
            }
            if (running.empty()) {
                abandoned = true;
                break;
            }
            if (removed) {
                plan = plan_step(pending_preempts);
            }
        }
        if (abandoned) {
            // No attempt survived; the step never ran. Reschedule with
            // the freed pages (pending event counters carry forward to
            // the next recorded step).
            continue;
        }

        ServingStep step;
        step.start_s = now;
        step.cycles = run.cycles;
        step.prefill_tokens = plan.prefill_tokens;
        step.decode_tokens = plan.decode_tokens;
        step.running = running.size();
        step.preemptions = pending_preempts;
        step.drops = pending_drops;
        step.sheds = pending_sheds;
        step.fault_retries = pending_fault_retries;
        step.failed = pending_failed;
        step.swap_stall_s = pending_swap_stall;
        step.attn_cycles = run.attn_cycles;
        step.kv_bytes =
            static_cast<std::uint64_t>(run.kv_dram_bits / 8.0);
        report.attn_cycles += step.attn_cycles;
        report.kv_dram_bytes += step.kv_bytes;
        pending_drops = 0;
        pending_sheds = 0;
        pending_preempts = 0;
        pending_fault_retries = 0;
        pending_failed = 0;
        pending_swap_stall = 0.0;
        report.steps.push_back(step);
        report.total_cycles += run.cycles;
        now += run.seconds(tech);

        if (exec) {
            // Execute exactly the priced shapes. One ragged decode
            // step advances every request that entered the step past
            // its prefill (heterogeneous cache lengths in one packed
            // batch)...
            BatchKvCache batch;
            std::vector<int> in_tokens;
            std::vector<std::size_t> decoding;
            for (const Running &r : running) {
                if (r.remaining_prefill == 0) {
                    batch.add(*pcache[r.idx]);
                    in_tokens.push_back(exec_state[r.idx]->last_token);
                    decoding.push_back(r.idx);
                }
            }
            if (!in_tokens.empty()) {
                const Matrix logits = opts.executor->decode_step(
                    batch, in_tokens, opts.exec_run);
                for (std::size_t j = 0; j < decoding.size(); ++j) {
                    ExecRequest &e = *exec_state[decoding[j]];
                    const int tok =
                        exec_pick_token(logits.row(j),
                                   opts.exec_temperature, e.rng);
                    e.last_token = tok;
                    report.requests[decoding[j]].tokens.push_back(tok);
                }
            }
            // ...and the prefill chunks append to their caches; the
            // chunk completing a prompt emits the first output token
            // from its last-row logits (already computed, so it costs
            // no decode row — matching the priced step shape). A
            // recompute-readmitted request rebuilds prompt rows and
            // then its already-emitted tokens; its completing chunk
            // emits nothing (everything it rebuilt was emitted
            // before).
            for (std::size_t i = 0; i < running.size(); ++i) {
                if (plan.chunk[i] == 0) {
                    continue;
                }
                ExecRequest &e = *exec_state[running[i].idx];
                RequestMetrics &m = report.requests[running[i].idx];
                const std::size_t prompt =
                    static_cast<std::size_t>(m.prompt_len);
                const std::size_t row0 = running[i].resident;
                std::vector<int> toks(plan.chunk[i]);
                for (std::size_t j = 0; j < plan.chunk[i]; ++j) {
                    const std::size_t row = row0 + j;
                    toks[j] = row < prompt
                                  ? e.prompt[row]
                                  : m.tokens[row - prompt];
                }
                const bool completes =
                    plan.chunk[i] == running[i].remaining_prefill;
                const bool emits = completes && m.tokens.empty();
                // Intermediate (and re-prefill) chunks skip the
                // O(vocab·d) logit head.
                const std::vector<float> logits =
                    opts.executor->prefill(*pcache[running[i].idx],
                                           toks, opts.exec_run, emits);
                if (emits) {
                    const int tok = exec_pick_token(
                        logits, opts.exec_temperature, e.rng);
                    e.last_token = tok;
                    m.tokens.push_back(tok);
                }
            }
        } else {
            // Pricing-only: mirror the executed runs' cache calls on
            // the accounting pool, in the same order (decoders in
            // batch order, then chunks), so the allocator walks the
            // identical page sequence.
            for (const Running &r : running) {
                if (r.remaining_prefill == 0) {
                    pcache[r.idx]->reserve(r.resident + 1);
                    pcache[r.idx]->advance(1);
                }
            }
            for (std::size_t i = 0; i < running.size(); ++i) {
                if (plan.chunk[i] > 0) {
                    pcache[running[i].idx]->reserve(
                        running[i].resident + plan.chunk[i]);
                    pcache[running[i].idx]->advance(plan.chunk[i]);
                }
            }
        }

        // Advance progress; the step's end timestamps every token it
        // produced. A prefill that completes emits the first output
        // token (its logits are already computed), so decode owes the
        // remaining output_len - 1 tokens. A rebuilt prefill
        // (recompute readmission) whose first token was already
        // emitted completes silently.
        for (std::size_t i = 0; i < running.size(); ++i) {
            Running &r = running[i];
            RequestMetrics &m = report.requests[r.idx];
            if (plan.chunk[i] > 0) {
                r.remaining_prefill -= plan.chunk[i];
                r.resident += plan.chunk[i];
                if (r.remaining_prefill == 0) {
                    const std::size_t emitted =
                        static_cast<std::size_t>(m.output_len) -
                        r.remaining_output;
                    if (emitted == 0) {
                        m.first_token_s = now;
                        --r.remaining_output;
                    }
                }
            } else if (r.remaining_prefill == 0) {
                --r.remaining_output;
                r.resident += 1;
            }
            if (r.remaining_prefill == 0 && r.remaining_output == 0) {
                m.finish_s = now;
                ++report.completed;
            }
        }

        // Anchor the shared prefix once the producer has committed it
        // (before any release below — the producer may finish in this
        // very step). The anchor holds the pages alive for future
        // admissions; adopters extend them copy-on-extend.
        if (!anchor && producer != kNone &&
            pcache[producer] &&
            pcache[producer]->length() >= anchor_target) {
            anchor = std::make_unique<PagedKvCache>(*pool);
            anchor->adopt_prefix(*pcache[producer], anchor_target);
        }

        // Free finished requests' KV rows (slot occupancy returns to
        // the pool / allocator).
        for (const Running &r : running) {
            if (r.remaining_prefill == 0 && r.remaining_output == 0) {
                pcache[r.idx].reset();
                exec_state[r.idx].reset();
            }
        }
        running.erase(
            std::remove_if(running.begin(), running.end(),
                           [](const Running &r) {
                               return r.remaining_prefill == 0 &&
                                      r.remaining_output == 0;
                           }),
            running.end());

        // KV occupancy after the step: resident rows of live caches
        // (prompt progress + decode appends).
        std::size_t resident = 0;
        for (const Running &r : running) {
            resident += r.resident;
            // The counter-tracked occupancy is exactly the cache
            // length — scheduler state matches the substrate.
            ANDA_DCHECK(pcache[r.idx]->length() == r.resident,
                        "scheduler occupancy diverged from the cache");
        }
        report.steps.back().cache_tokens = resident;
        report.peak_cache_tokens =
            std::max(report.peak_cache_tokens, resident);
        const KvPageAllocator &alloc = pool->allocator();
        report.steps.back().used_pages = alloc.used_pages();
        report.steps.back().free_pages = alloc.free_pages();
        report.peak_used_pages =
            std::max(report.peak_used_pages, alloc.used_pages());
    }

    // Trailing events (after the last recorded step — e.g. a final
    // batch failing terminally, or drops with nothing left to run)
    // flush into the final step so the step log conserves them.
    if (!report.steps.empty()) {
        ServingStep &last = report.steps.back();
        last.preemptions += pending_preempts;
        last.drops += pending_drops;
        last.sheds += pending_sheds;
        last.fault_retries += pending_fault_retries;
        last.failed += pending_failed;
        last.swap_stall_s += pending_swap_stall;
    }

    report.makespan_s = now;
    // Hand the metrics back in request-id order.
    std::sort(report.requests.begin(), report.requests.end(),
              [](const RequestMetrics &a, const RequestMetrics &b) {
                  return a.id < b.id;
              });
    return report;
}

}  // namespace anda
