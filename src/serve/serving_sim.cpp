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

    bool done() const
    {
        return remaining_prefill == 0 && remaining_output == 0;
    }
};

/// A preempted request waiting to be readmitted: its progress when it
/// was evicted, and its K/V rows while they sit in host memory.
struct Preempted {
    Running run;
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

namespace {

/// One simulate_serving call, on options simulate_serving has checked.
/// The constructor validates the requests, resolves the page budget,
/// sets up the report and orders the arrivals; run() plays the step
/// loop, one method per phase.
struct Scheduler {
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

    const ModelConfig &model;
    const AcceleratorConfig &system;
    const TechParams &tech;
    /// Local copy: page_budget is resolved (from kv_byte_budget, or
    /// derived when no budget is given) up front, so every downstream
    /// gate reads one consistent limit.
    ServingOptions opts;
    const FaultInjector injector;  // Validates the spec.
    const bool faults_on;
    const bool exec;
    const std::size_t ps;
    const std::size_t shared_len;
    /// Cheapest possible step (one decode token): the per-token lower
    /// bound kDropUnmeetable tests against. GeMM-only even under
    /// attn_pricing: attention only adds cost, so the bound stays valid
    /// and drops never get more aggressive than the legacy model's.
    double min_step_s = 0.0;

    ServingReport report;
    /// FCFS admission order: by arrival time, ids breaking ties.
    std::vector<const Request *> queue;
    /// GeMM-tap cost of a fused step, memoized per (phase, fused rows)
    /// for this call: with the model, system and tuple fixed, the taps
    /// depend on nothing else, so each shape is priced once.
    std::map<std::pair<bool, std::size_t>, SystemRun> tap_memo;
    std::vector<std::unique_ptr<ExecRequest>> exec_state;
    /// The page pool: real storage when executing, accounting-only in
    /// pricing mode — both take the identical allocate/share/preempt
    /// sequence, so page counts (and hence every scheduling decision)
    /// are bit-identical between priced and executed runs.
    std::unique_ptr<KvPagePool> pool;
    std::vector<std::unique_ptr<PagedKvCache>> pcache;
    /// Shared-prefix anchor: adopts the first admitted request's
    /// prefix pages once they are committed; later admissions adopt
    /// from the anchor (so the pages survive the producer).
    std::unique_ptr<PagedKvCache> anchor;
    std::size_t producer = kNone;
    std::size_t anchor_target = 0;

    std::vector<Running> running;
    std::vector<Preempted> preempted_q;
    /// Arrived requests not yet admitted, ordered (priority desc,
    /// arrival asc, id asc): the highest waiting class admits first
    /// and FCFS survives inside a class, so with uniform priorities
    /// this is exactly the legacy FCFS cursor.
    std::vector<std::size_t> waiting;
    std::size_t next = 0;  // Arrival-ingestion cursor.
    double now = 0.0;
    /// Per-request swap-in attempt counters (the fault-stream key).
    std::vector<std::size_t> swap_attempts;
    /// Robustness events between steps (the event fields only),
    /// attached to the next recorded step for replay: events of
    /// abandoned step attempts roll into the next recorded step, and
    /// trailing events flush into the final one, so the step log
    /// conserves every event the report totals count.
    ServingStep pending;
    /// Fault-stream step site; advances per planned step even when the
    /// step is abandoned, so the schedule replays exactly.
    std::uint64_t fault_site = 0;

    Scheduler(const ModelConfig &model_in,
              const AcceleratorConfig &system_in,
              const TechParams &tech_in, std::span<const Request> requests,
              const ServingOptions &opts_in)
        : model(model_in), system(system_in), tech(tech_in),
          opts(opts_in), injector(opts.faults),
          faults_on(opts.faults.enabled()),
          exec(opts.executor != nullptr), ps(opts.page_size),
          shared_len(opts.shared_prefix_len > 0
                         ? static_cast<std::size_t>(opts.shared_prefix_len)
                         : 0)
    {
        // KV bytes of one cached token at the real model dims: K and V
        // rows across every layer, at the cache format's packed width.
        const std::size_t kv_bytes_per_token =
            2 * static_cast<std::size_t>(model.real.n_layers) *
            kv_row_bytes(opts.kv_format,
                         static_cast<std::size_t>(model.real.d_model));
        std::size_t max_rows = 1;  // Largest single-request footprint.
        std::size_t max_prompt = 0;
        queue.reserve(requests.size());
        for (const Request &r : requests) {
            queue.push_back(&r);
            ANDA_CHECK(r.prompt_len >= 1 && r.output_len >= 1,
                       "bad request lengths");
            ANDA_CHECK(std::isfinite(r.arrival_s),
                       "non-finite arrival time");
            ANDA_CHECK(r.ttft_slo_s >= 0.0 && r.deadline_s >= 0.0,
                       "negative request SLO");
            max_rows = std::max(
                max_rows, static_cast<std::size_t>(r.prompt_len) +
                              static_cast<std::size_t>(r.output_len) - 1);
            max_prompt = std::max(max_prompt,
                                  static_cast<std::size_t>(r.prompt_len));
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
            // No budget given: a pool that can never block. Each
            // running request holds at most its own worst-case pages
            // plus a copy-on-extend page, and the anchor pins at most
            // anchor_bound, so admission and decode growth always fit
            // and nothing waits or is preempted.
            opts.page_budget =
                opts.max_batch *
                    (PagedKvCache::pages_for(max_rows, ps) + 1) +
                anchor_bound;
        }
        // Every request must be schedulable alone: its own worst-case
        // pages, the shared-prefix anchor's pages, and one
        // copy-on-extend page of slack.
        ANDA_CHECK_LE(PagedKvCache::pages_for(max_rows, ps) +
                          anchor_bound + 1,
                      opts.page_budget,
                      "request cannot fit the page budget");

        report.model = model.name;
        report.system = system.name;
        report.kv_format = opts.kv_format.name();
        report.kv_bytes_per_token = kv_bytes_per_token;
        report.page_size = ps;
        report.page_budget = opts.page_budget;
        report.executed = exec;

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

        if (opts.deadline_policy == DeadlinePolicy::kDropUnmeetable) {
            min_step_s = tap_cost(0, 1).seconds(tech);
        }
        exec_state.resize(queue.size());
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
        pcache.resize(queue.size());
        running.reserve(opts.max_batch);
        swap_attempts.assign(queue.size(), 0);
    }

    /// The step loop, in phase order.
    ServingReport run()
    {
        while (next < queue.size() || !waiting.empty() ||
               !running.empty() || !preempted_q.empty()) {
            ingest_arrivals();
            if (opts.deadline_policy != DeadlinePolicy::kNone) {
                enforce_deadlines();
            }
            if (opts.shed_timeout_s > 0.0 && !waiting.empty()) {
                shed();
            }
            readmit();
            admit();
            // Rows readmit() and admit() materialized may be preempted
            // away before the step records.
            note_resident_peak();
            if (running.empty()) {
                // Every arrival was dropped or shed; nothing to run.
                ANDA_CHECK(waiting.empty(),
                           "a waiting request could not admit into an "
                           "idle batch");
                continue;
            }
            report.peak_batch =
                std::max(report.peak_batch, running.size());
            StepPlan plan = plan_step();
            SystemRun cost;
            if (!attempt_step(plan, cost)) {
                // No attempt survived; the step never ran. Reschedule
                // with the freed pages (pending events carry forward
                // to the next recorded step).
                continue;
            }
            record_step(plan, cost);
            execute(plan);
            advance(plan);
            release_finished();
        }
        // Trailing events (after the last recorded step — e.g. a final
        // batch failing terminally, or drops with nothing left to run)
        // flush into the final step so the step log conserves them.
        if (!report.steps.empty()) {
            ServingStep &last = report.steps.back();
            last.preemptions += pending.preemptions;
            last.drops += pending.drops;
            last.sheds += pending.sheds;
            last.fault_retries += pending.fault_retries;
            last.failed += pending.failed;
            last.swap_stall_s += pending.swap_stall_s;
        }
        report.makespan_s = now;
        // Hand the metrics back in request-id order.
        std::sort(report.requests.begin(), report.requests.end(),
                  [](const RequestMetrics &a, const RequestMetrics &b) {
                      return a.id < b.id;
                  });
        return std::move(report);
    }

    /// Moves every arrival up to now into the priority-ordered waiting
    /// queue. An idle system first jumps to the next arrival (never
    /// while a preempted or waiting request is pending — their service
    /// is immediate).
    void ingest_arrivals()
    {
        if (running.empty() && preempted_q.empty() && waiting.empty() &&
            next < queue.size() && report.requests[next].arrival_s > now) {
            now = report.requests[next].arrival_s;
        }
        while (next < queue.size() &&
               report.requests[next].arrival_s <= now) {
            const auto pos = std::upper_bound(
                waiting.begin(), waiting.end(), next,
                [this](std::size_t a, std::size_t w) {
                    return admit_less(a, w);
                });
            waiting.insert(pos, next);
            ++next;
        }
    }

    /// Admission order over request indices (priority desc, arrival
    /// asc, id asc): a strict total order, so the waiting and
    /// readmission queues it keeps sorted take binary-searched
    /// insertions.
    bool admit_less(std::size_t a, std::size_t b) const
    {
        const RequestMetrics &ma = report.requests[a];
        const RequestMetrics &mb = report.requests[b];
        if (ma.priority != mb.priority) {
            return ma.priority > mb.priority;
        }
        if (ma.arrival_s != mb.arrival_s) {
            return ma.arrival_s < mb.arrival_s;
        }
        return ma.id < mb.id;
    }

    /// Deadline enforcement: waiting and preempted requests whose
    /// completion deadline is missed or provably unmeetable leave now
    /// instead of occupying queue slots and pages.
    void enforce_deadlines()
    {
        for (std::size_t w = 0; w < waiting.size();) {
            const RequestMetrics &m = report.requests[waiting[w]];
            if (deadline_hopeless(
                    m, static_cast<std::size_t>(m.output_len))) {
                retire(waiting[w], RequestOutcome::kDroppedDeadline);
                waiting.erase(waiting.begin() +
                              static_cast<std::ptrdiff_t>(w));
            } else {
                ++w;
            }
        }
        for (std::size_t p = 0; p < preempted_q.size();) {
            const Running &r = preempted_q[p].run;
            if (deadline_hopeless(report.requests[r.idx],
                                  r.remaining_output)) {
                retire(r.idx, RequestOutcome::kDroppedDeadline);
                preempted_q.erase(preempted_q.begin() +
                                  static_cast<std::ptrdiff_t>(p));
            } else {
                ++p;
            }
        }
    }

    /// Is `m`'s completion deadline already missed, or provably
    /// unmeetable with `remaining` tokens still to emit (each needs one
    /// step >= min_step_s)?
    bool deadline_hopeless(const RequestMetrics &m,
                           std::size_t remaining) const
    {
        if (m.deadline_s <= 0.0) {
            return false;
        }
        const double dl = m.arrival_s + m.deadline_s;
        return now > dl ||
               now + static_cast<double>(remaining) * min_step_s > dl;
    }

    /// Load shedding: under overload the lowest waiting class is
    /// turned away once it has queued past the timeout — graceful
    /// degradation before preemption starts thrashing. Higher classes
    /// never shed while a lower class is present.
    void shed()
    {
        int low = report.requests[waiting.front()].priority;
        for (const std::size_t idx : waiting) {
            low = std::min(low, report.requests[idx].priority);
        }
        for (std::size_t w = 0; w < waiting.size();) {
            const RequestMetrics &m = report.requests[waiting[w]];
            if (m.priority == low &&
                now - m.arrival_s > opts.shed_timeout_s) {
                retire(waiting[w], RequestOutcome::kShed);
                waiting.erase(waiting.begin() +
                              static_cast<std::ptrdiff_t>(w));
            } else {
                ++w;
            }
        }
    }

    /// Ends a request with a non-completed outcome and frees its state;
    /// the caller takes it off its queue or out of the batch.
    void retire(std::size_t idx, RequestOutcome oc)
    {
        RequestMetrics &m = report.requests[idx];
        m.outcome = oc;
        m.finish_s = now;
        if (oc == RequestOutcome::kDroppedDeadline) {
            ++report.dropped;
            ++pending.drops;
        } else if (oc == RequestOutcome::kShed) {
            ++report.shed;
            ++pending.sheds;
        } else {
            ++report.failed;
            ++pending.failed;
        }
        release(idx);
    }

    /// Frees a request's KV pages and execution state.
    void release(std::size_t idx)
    {
        pcache[idx].reset();
        exec_state[idx].reset();
    }

    /// Readmits preempted requests first (queue order), before any new
    /// admission: swap restores the saved rows (a seeded swap-in fault
    /// falls back to recompute), recompute re-enters prefill over
    /// prompt + already-generated rows (emitting nothing it already
    /// emitted).
    void readmit()
    {
        while (!preempted_q.empty() && running.size() < opts.max_batch) {
            Preempted &p = preempted_q.front();
            const Running &r = p.run;
            const std::size_t need =
                p.swapped ? PagedKvCache::pages_for(r.resident, ps)
                          : PagedKvCache::pages_for(
                                r.resident + r.remaining_prefill, ps);
            if (need > pool->allocator().free_pages()) {
                break;  // In order: never skip past a blocked head.
            }
            if (p.swapped && faults_on &&
                injector.swap_in_fails(report.requests[r.idx].id,
                                       swap_attempts[r.idx]++)) {
                // Host copy lost: fall back to recompute-on-readmit
                // (token-identical by the recompute guarantee), then
                // re-evaluate the larger recompute page need.
                p.swapped = false;
                p.swap.clear();
                ++report.swap_faults;
                continue;
            }
            if (p.swapped) {
                pcache[r.idx]->swap_in(p.swap, r.resident);
                price_swap(r.resident, false);
                running.push_back(r);
            } else {
                report.recomputed_tokens += r.resident;
                running.push_back({r.idx, r.resident + r.remaining_prefill,
                                   r.remaining_output, 0});
            }
            ++report.readmits;
            preempted_q.erase(preempted_q.begin());
        }
        ANDA_CHECK(!running.empty() || preempted_q.empty(),
                   "preempted request cannot readmit into an idle pool");
    }

    /// Continuous batching: admits every waiting request that fits,
    /// highest priority first. Readmissions drain first — new
    /// admissions wait behind them.
    void admit()
    {
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
    }

    /// Samples the live resident-row total into the peak high-water
    /// mark and returns it. The post-step sample alone under-records:
    /// rows materialized between steps (swap-in restores, shared-prefix
    /// adoption at admission) can be preempted away by plan_step before
    /// the step is recorded, so a capacity planner reading only
    /// max-over-steps cache_tokens would budget below the true peak.
    std::size_t note_resident_peak()
    {
        std::size_t rows = 0;
        for (const Running &r : running) {
            rows += r.resident;
            // The counter-tracked occupancy is exactly the cache
            // length — scheduler state matches the substrate.
            ANDA_DCHECK(pcache[r.idx]->length() == r.resident,
                        "scheduler occupancy diverged from the cache");
        }
        report.peak_cache_tokens = std::max(report.peak_cache_tokens, rows);
        return rows;
    }

    /// Plans one step over the current batch: one decode token per
    /// finished-prefill request, leftover budget into prefill chunks
    /// (priority admission order). The plan must also fit the free
    /// pages: when it cannot, the EvictPolicy victim is preempted and
    /// the plan retried (a lone request always fits, enforced by the
    /// up-front budget validation).
    StepPlan plan_step()
    {
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
                    const Running &r = running[i];
                    if (r.remaining_prefill == 0) {
                        continue;
                    }
                    const PagedKvCache &cache = *pcache[r.idx];
                    const std::size_t ext = cache.max_extension(avail);
                    const std::size_t c = std::min(
                        {r.remaining_prefill, budget,
                         ext > r.resident ? ext - r.resident : 0});
                    if (c == 0) {
                        continue;
                    }
                    avail -= cache.new_pages_needed(r.resident + c);
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
            preempt_victim();
        }
    }

    /// Every policy breaks ties toward the latest-admitted index, so
    /// kYoungest is the pure tie-break and uniform priorities
    /// degenerate kLowestPriority to the legacy victim.
    std::size_t pick_victim() const
    {
        std::size_t best = running.size() - 1;
        if (opts.evict == EvictPolicy::kLowestPriority) {
            best = 0;
            for (std::size_t i = 1; i < running.size(); ++i) {
                if (report.requests[running[i].idx].priority <=
                    report.requests[running[best].idx].priority) {
                    best = i;
                }
            }
        }
        return best;
    }

    void preempt_victim()
    {
        const std::size_t vi = pick_victim();
        Preempted p{running[vi], false, {}};
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(vi));
        const std::size_t idx = p.run.idx;
        if (opts.preempt == PreemptPolicy::kSwap) {
            p.swapped = true;
            p.swap = pcache[idx]->swap_out();
            price_swap(p.run.resident, true);
        } else {
            pcache[idx]->release_all();
        }
        ++report.requests[idx].preempt_count;
        // The readmission queue stays in admission order (priority,
        // then arrival): a victim re-enters at its original position
        // instead of jumping to the front, so eviction storms and
        // swap-fault recompute fallbacks can never silently invert
        // FCFS (or priority) order.
        const auto pos = std::upper_bound(
            preempted_q.begin(), preempted_q.end(), idx,
            [this](std::size_t a, const Preempted &q) {
                return admit_less(a, q.run.idx);
            });
        preempted_q.insert(pos, std::move(p));
        ++report.preemptions;
        ++pending.preemptions;
    }

    /// Prices swap traffic onto the timeline (swap_gbps > 0 only).
    /// Called on BOTH directions — at eviction (swap-out) and at
    /// readmission (swap-in) — so one preempt-readmit round trip
    /// stalls twice. A row moves one cached token's packed K and V
    /// bytes at the real dims. GB here is decimal: 1 GB/s = 1e9 B/s
    /// (docs/SERVING.md documents the convention).
    void price_swap(std::size_t rows, bool swap_out)
    {
        if (opts.swap_gbps <= 0.0 || rows == 0) {
            return;
        }
        const double bytes = static_cast<double>(rows) *
                             static_cast<double>(report.kv_bytes_per_token);
        const double stall = bytes / (opts.swap_gbps * 1e9);
        now += stall;
        pending.swap_stall_s += stall;
        report.swap_bytes += static_cast<std::uint64_t>(bytes);
        (swap_out ? report.swap_out_bytes : report.swap_in_bytes) +=
            static_cast<std::uint64_t>(bytes);
        report.swap_stall_s += stall;
    }

    const SystemRun &tap_cost(std::size_t prefill, std::size_t decode)
    {
        const auto [it, fresh] =
            tap_memo.try_emplace({prefill > 0, prefill + decode});
        if (fresh) {
            it->second = run_workload(
                system, tech,
                build_step_workload(model, prefill, decode, opts.tuple));
        }
        return it->second;
    }

    /// Prices one planned step. With attn_pricing each scheduled
    /// sequence contributes a SeqSlice over its cached context (decode
    /// rows and prefill chunks alike — a recompute-readmitted prefill
    /// restarts at context 0, so its re-attention is priced again,
    /// matching the recompute-costs-compute policy). Without it, the
    /// legacy GeMM-only aggregate is priced bit-identically to the
    /// pre-attention model.
    SystemRun price(const StepPlan &plan)
    {
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
    }

    /// Prices the planned step into `run`, through seeded transient
    /// faults: a failed attempt wastes its cycles, idles through a
    /// capped exponential backoff (in units of the attempt's
    /// duration), charges every scheduled request one retry, and
    /// retires requests past their budget before the retry replans.
    /// Returns false when that left nothing running (the step is
    /// abandoned).
    bool attempt_step(StepPlan &plan, SystemRun &run)
    {
        const std::uint64_t site = fault_site++;
        for (std::size_t attempt = 0;; ++attempt) {
            // Repriced per attempt: a retry can have replanned after
            // terminal failures, changing both rows and contexts.
            run = price(plan);
            if (!faults_on || !injector.step_attempt_fails(site, attempt)) {
                return true;
            }
            const double dur = run.seconds(tech);
            now += dur * static_cast<double>(
                             1 + injector.backoff_steps(attempt));
            report.wasted_cycles += run.cycles;
            ++report.step_faults;
            ++pending.fault_retries;
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
                retire(r.idx, RequestOutcome::kFailed);
                running.erase(running.begin() +
                              static_cast<std::ptrdiff_t>(i));
                removed = true;
            }
            if (running.empty()) {
                return false;
            }
            if (removed) {
                plan = plan_step();
            }
        }
    }

    /// Logs the step with the events pending since the previous one
    /// and moves the clock to its end.
    void record_step(const StepPlan &plan, const SystemRun &run)
    {
        ServingStep step = std::exchange(pending, ServingStep{});
        step.start_s = now;
        step.cycles = run.cycles;
        step.prefill_tokens = plan.prefill_tokens;
        step.decode_tokens = plan.decode_tokens;
        step.running = running.size();
        step.attn_cycles = run.attn_cycles;
        step.kv_bytes = static_cast<std::uint64_t>(run.kv_dram_bits / 8.0);
        report.attn_cycles += step.attn_cycles;
        report.kv_dram_bytes += step.kv_bytes;
        report.steps.push_back(step);
        report.total_cycles += run.cycles;
        now += run.seconds(tech);
    }

    /// Executes exactly the priced shapes on the executor or, pricing
    /// only, mirrors its cache calls on the accounting pool in the
    /// same order (decoders in batch order, then chunks), so the
    /// allocator walks the identical page sequence.
    void execute(const StepPlan &plan)
    {
        if (!exec) {
            for (const Running &r : running) {
                if (r.remaining_prefill == 0) {
                    pcache[r.idx]->reserve(r.resident + 1);
                    pcache[r.idx]->advance(1);
                }
            }
            for (std::size_t i = 0; i < running.size(); ++i) {
                if (plan.chunk[i] > 0) {
                    pcache[running[i].idx]->reserve(running[i].resident +
                                                    plan.chunk[i]);
                    pcache[running[i].idx]->advance(plan.chunk[i]);
                }
            }
            return;
        }
        // One ragged decode step advances every request that entered
        // the step past its prefill (heterogeneous cache lengths in one
        // packed batch)...
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
            const Matrix logits =
                opts.executor->decode_step(batch, in_tokens, opts.exec_run);
            for (std::size_t j = 0; j < decoding.size(); ++j) {
                ExecRequest &e = *exec_state[decoding[j]];
                const int tok = exec_pick_token(
                    logits.row(j), opts.exec_temperature, e.rng);
                e.last_token = tok;
                report.requests[decoding[j]].tokens.push_back(tok);
            }
        }
        // ...and the prefill chunks append to their caches; the chunk
        // completing a prompt emits the first output token from its
        // last-row logits (already computed, so it costs no decode row
        // — matching the priced step shape). A recompute-readmitted
        // request rebuilds prompt rows and then its already-emitted
        // tokens; its completing chunk emits nothing (everything it
        // rebuilt was emitted before).
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
                toks[j] = row < prompt ? e.prompt[row]
                                       : m.tokens[row - prompt];
            }
            const bool completes =
                plan.chunk[i] == running[i].remaining_prefill;
            const bool emits = completes && m.tokens.empty();
            // Intermediate (and re-prefill) chunks skip the
            // O(vocab·d) logit head.
            const std::vector<float> logits = opts.executor->prefill(
                *pcache[running[i].idx], toks, opts.exec_run, emits);
            if (emits) {
                const int tok =
                    exec_pick_token(logits, opts.exec_temperature, e.rng);
                e.last_token = tok;
                m.tokens.push_back(tok);
            }
        }
    }

    /// Advances progress; the step's end timestamps every token it
    /// produced. A prefill that completes emits the first output token
    /// (its logits are already computed), so decode owes the remaining
    /// output_len - 1 tokens. A rebuilt prefill (recompute
    /// readmission) whose first token was already emitted completes
    /// silently. Then anchors the shared prefix once its producer has
    /// committed it (before any release — the producer may finish in
    /// this very step): the anchor holds the pages alive for future
    /// admissions, and adopters extend them copy-on-extend.
    void advance(const StepPlan &plan)
    {
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
            if (r.done()) {
                m.finish_s = now;
                ++report.completed;
            }
        }
        if (!anchor && producer != kNone && pcache[producer] &&
            pcache[producer]->length() >= anchor_target) {
            anchor = std::make_unique<PagedKvCache>(*pool);
            anchor->adopt_prefix(*pcache[producer], anchor_target);
        }
    }

    /// Frees finished requests' KV rows (their pages return to the
    /// pool), then records the KV and page occupancy after the step.
    void release_finished()
    {
        for (const Running &r : running) {
            if (r.done()) {
                release(r.idx);
            }
        }
        running.erase(std::remove_if(running.begin(), running.end(),
                                     [](const Running &r) {
                                         return r.done();
                                     }),
                      running.end());
        ServingStep &step = report.steps.back();
        step.cache_tokens = note_resident_peak();
        const KvPageAllocator &alloc = pool->allocator();
        step.used_pages = alloc.used_pages();
        step.free_pages = alloc.free_pages();
        report.peak_used_pages =
            std::max(report.peak_used_pages, alloc.used_pages());
    }
};

}  // namespace

ServingReport
simulate_serving(const ModelConfig &model,
                 const AcceleratorConfig &system, const TechParams &tech,
                 std::span<const Request> requests,
                 const ServingOptions &opts)
{
    ANDA_CHECK(!requests.empty(), "empty request stream");
    ANDA_CHECK(opts.max_batch > 0 && opts.max_step_tokens > 0,
               "zero serving batch or budget");
    ANDA_CHECK(opts.page_size > 0, "serving needs a page size");
    ANDA_CHECK(std::isfinite(opts.swap_gbps),
               "non-finite swap bandwidth");
    ANDA_CHECK(opts.swap_gbps >= 0.0, "negative swap bandwidth");
    ANDA_CHECK(opts.shed_timeout_s >= 0.0, "negative shed timeout");
    kv_validate(opts.kv_format);
    return Scheduler(model, system, tech, requests, opts).run();
}

}  // namespace anda
