#pragma once

/// @file
/// Continuous-batching serving simulator on top of the hw perf model.
///
/// Plays a request stream through an iteration-level scheduler in the
/// vLLM/Orca style: every step the running batch admits newly-arrived
/// requests (FCFS, up to max_batch), advances each decoding request by
/// one token, and spends the remaining token budget on prefill chunks.
/// All rows scheduled in one step share one fused ragged GeMM per tap
/// per layer — exactly the packing Transformer::batch_nll performs on
/// the accuracy substrate — so the step cost comes from one
/// run_workload() call over model-shaped FP-INT GeMMs at the step's
/// total token count (build_prefill_workload / build_decode_workload).
/// With ServingOptions::attn_pricing the step additionally prices
/// per-request attention: one AttnOp per scheduled sequence carrying
/// the per-layer K/V reads of its cached context, so long-context
/// decode steps cost more than short ones (docs/SERVING.md, "Attention
/// & KV traffic model"). Off (the default), costs are bit-identical
/// to the GeMM-only model.
/// The report carries per-request TTFT / decode latency and aggregate
/// throughput, plus a per-step log so tests can replay and cross-check
/// every cost and token-conservation invariant bit-for-bit.
///
/// KV memory is a paged pool: fixed-size pages from a refcounted
/// allocator (llm/kv_pages.h). Admission gates on the pages the prompt
/// needs, requests past the page budget wait, and decode growth under
/// overload preempts a resident request (EvictPolicy victim;
/// PreemptPolicy: swap K/V rows out and back in, or drop them and
/// recompute on readmission). With shared_prefix_len > 0, prompts
/// share a common system prefix and later admissions adopt the anchor
/// copy of those K/V pages copy-on-extend instead of re-prefilling
/// them. Preemption and sharing never change any emitted token:
/// per-request sampler streams are schedule-independent and rebuilt
/// prefixes are bit-identical. Without an explicit budget the pool is
/// sized so that it can never block (see ServingOptions::page_budget).
///
/// The robustness layer turns the scheduler into an SLO-aware,
/// fault-tolerant server. Requests carry a priority class and
/// optional TTFT / completion SLOs (request_stream.h); admission
/// always serves the highest waiting class first (FCFS within a
/// class), the paged eviction victim is an EvictPolicy knob,
/// DeadlinePolicy drops waiting work that already missed (or provably
/// cannot meet) its deadline, and shed_timeout_s sheds the lowest
/// waiting class under overload before preemption thrashes. A seeded
/// FaultInjector (serve/fault.h) can fail step execution (transient;
/// capped backoff, per-request retry budgets, terminal failure) and
/// swap-ins (fall back to recompute). All of it is deterministic, and
/// with every knob at its default the step log is bit-identical to
/// the pre-robustness scheduler. ServingReport::by_class() rolls up
/// per-class latency percentiles, SLO attainment, and drop / shed /
/// retry accounting. docs/SERVING.md is the full subsystem guide.
///
/// With ServingOptions::executor set the scheduler additionally
/// *executes* generation on the accuracy substrate: admitted requests
/// prefill per-sequence KV caches, every step runs one ragged
/// Transformer::decode_step over the running batch, and the sampled
/// tokens land in RequestMetrics::tokens. Execution never perturbs
/// scheduling or pricing — the pricing-only run drives an
/// accounting-only page pool through the identical allocate / share /
/// preempt sequence, so the step log (costs, tokens, pages,
/// preemptions) is bit-identical with and without an executor.
///
/// Every step runs named phases in a fixed order: arrivals, deadlines,
/// shedding, readmission, admission, plan, price, fault attempts,
/// record, execute, advance and release (docs/SERVING.md, "Scheduler
/// phases").

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "hw/workload.h"
#include "llm/transformer.h"
#include "serve/fault.h"
#include "serve/request_stream.h"

namespace anda {

/// KV-memory management policy of a serving run. The paged pool is the
/// only policy; the type goes once no benchmark driver assigns it.
enum class CachePolicy {
    kPaged,  ///< Paged pool with preemption and prefix reuse.
};

/// What happens to a preempted request's KV rows.
enum class PreemptPolicy {
    kRecompute,  ///< Drop the pages; re-prefill prompt + generated
                 ///< rows on readmission (costs compute, no memory).
    kSwap,       ///< Serialize rows to host memory; restore on
                 ///< readmission. With ServingOptions::swap_gbps > 0
                 ///< the rows move over a priced host link and stall
                 ///< the timeline; at 0 (default) swap traffic stays
                 ///< free, the legacy simplification.
};

/// Which resident request the paged scheduler evicts under page
/// pressure. Both policies break ties toward the latest-admitted
/// resident, so kYoungest is the degenerate "ties only" case and the
/// default reproduces the pre-policy scheduler exactly.
enum class EvictPolicy {
    kYoungest,        ///< Latest-admitted resident (legacy).
    kLowestPriority,  ///< Lowest Request::priority first.
};

/// What the scheduler does about Request::deadline_s.
enum class DeadlinePolicy {
    kNone,            ///< Deadlines are reported (SLO attainment) only.
    kDropUnmeetable,  ///< A waiting or preempted request is dropped
                      ///< once its completion deadline has passed or
                      ///< is provably unmeetable: even at one emitted
                      ///< token per cheapest-possible step, the
                      ///< remaining output cannot finish in time.
};

/// How one request left the scheduler.
enum class RequestOutcome {
    kCompleted,        ///< Generated every requested token.
    kDroppedDeadline,  ///< Dropped by DeadlinePolicy enforcement.
    kShed,             ///< Load-shed while waiting (lowest class
                       ///< past ServingOptions::shed_timeout_s).
    kFailed,           ///< Terminally failed: exhausted its
                       ///< FaultSpec::retry_budget.
};

/// Scheduling knobs of the continuous-batching loop.
struct ServingOptions {
    /// Maximum concurrent in-flight requests (batch slots).
    std::size_t max_batch = 8;
    /// Token budget of one fused step. Decode tokens (one per running
    /// decoder) are always scheduled; leftover budget feeds prefill
    /// chunks, so one step carries at most
    /// max(max_step_tokens, max_batch) rows.
    std::size_t max_step_tokens = 256;
    /// Activation mantissas of the four FP-INT taps ({16,16,16,16}
    /// for FP16-activation systems).
    PrecisionTuple tuple{16, 16, 16, 16};
    /// KV layout and admission/preemption discipline.
    CachePolicy cache_policy = CachePolicy::kPaged;
    /// Rows per KV page (must be > 0).
    std::size_t page_size = 16;
    /// Physical pages in the pool. Every request must satisfy
    /// pages(prompt + output - 1) + pages(shared prefix) + 1 <=
    /// page_budget or the run throws up front. 0 with kv_byte_budget
    /// also 0 (the default) sizes the pool so it never blocks:
    /// max_batch x (pages(largest prompt + output - 1) + 1) + the
    /// shared-prefix anchor's pages, so nothing ever waits for pages
    /// or is preempted.
    std::size_t page_budget = 0;
    /// Preemption discipline under page pressure.
    PreemptPolicy preempt = PreemptPolicy::kRecompute;
    /// Tokens at the head of every prompt drawn from a shared stream
    /// (a common system prompt). Shapes the synthetic prompts, and
    /// later admissions adopt the already-computed K/V pages of the
    /// shared prefix instead of re-prefilling them
    /// (reused_prefix_tokens in the report).
    int shared_prefix_len = 0;
    /// Execution substrate (may be null = pricing only): when set,
    /// generation runs for real — prompts are synthesized from the
    /// request ids (exec_prompt_tokens), prefill fills per-request
    /// KV caches, and each step decodes one token per running request
    /// through Transformer::decode_step. Requests must satisfy
    /// prompt_len + output_len - 1 <= executor sim max_seq.
    const Transformer *executor = nullptr;
    /// Activation formats of the executed forward passes.
    RunOptions exec_run;
    /// Sampling temperature of executed generation (<= 0 = argmax).
    double exec_temperature = 0.0;
    /// Seed of the per-request prompt/sampling streams, so executed
    /// tokens are deterministic and independent of scheduling.
    std::uint64_t exec_seed = 0;
    /// Victim selection under page pressure. Admission is
    /// always priority-aware: among arrived waiting requests the
    /// highest Request::priority admits first (FCFS inside a class),
    /// so a high-priority arrival jumps the queue under any policy.
    EvictPolicy evict = EvictPolicy::kYoungest;
    /// Deadline enforcement of Request::deadline_s. Enforcement acts
    /// on waiting and preempted requests (a running request finishes
    /// its residency); dropped requests are accounted per class.
    DeadlinePolicy deadline_policy = DeadlinePolicy::kNone;
    /// Load shedding under overload (0 = off): a waiting request of
    /// the lowest priority class currently waiting that has queued
    /// longer than this is shed (RequestOutcome::kShed) instead of
    /// competing until preemption thrashes. Higher classes never shed
    /// while a lower class is waiting.
    double shed_timeout_s = 0.0;
    /// Host-link bandwidth pricing kSwap traffic [GB/s, 1 GB = 1e9 B].
    /// 0 (default) keeps swaps free and step logs bit-identical to
    /// pre-pricing runs; > 0 stalls the timeline by bytes_per_row x
    /// rows moved on every swap-out and swap-in (bytes_per_row = 2
    /// tensors x real n_layers x kv_row_bytes(kv_format, real
    /// d_model) — the packed row the cache actually swaps, 4 B per
    /// element for the FP32 default). Must be finite.
    double swap_gbps = 0.0;
    /// Price per-request attention and KV-cache DRAM traffic into
    /// every step (one AttnOp per scheduled sequence over its cached
    /// context — see hw/workload.h). Off (default) reproduces the
    /// GeMM-only cost model bit-for-bit: step logs, cycles, and every
    /// scheduling decision are identical to pre-attention runs.
    bool attn_pricing = false;
    /// Fault injection (default: inert). See serve/fault.h.
    FaultSpec faults;
    /// Storage format of cached K/V rows (format/kv_format.h). FP32
    /// (default) reproduces the legacy serving model bit-for-bit. A
    /// quantized format shrinks every cached row to kv_row_bytes():
    /// executed decode attends over the dequantized rows, priced
    /// attention KV traffic (attn_pricing) streams at
    /// bits_per_element(), swap traffic (swap_gbps) moves the packed
    /// bytes, and kv_byte_budget admits against the packed footprint
    /// — the capacity multiplier of docs/SERVING.md.
    KvFormat kv_format = KvFormat::fp32();
    /// KV capacity as a physical byte budget (0 = off). Derives
    /// page_budget = budget / (page_size x bytes-per-token), where
    /// bytes-per-token = 2 x real n_layers x kv_row_bytes(kv_format,
    /// real d_model) — so the same byte budget holds ~4x more tokens
    /// under a 4x narrower format. Mutually exclusive with setting
    /// page_budget directly.
    std::size_t kv_byte_budget = 0;
};

/// Timeline of one request through the scheduler.
struct RequestMetrics {
    int id = 0;
    double arrival_s = 0.0;
    int prompt_len = 0;
    int output_len = 0;
    /// Priority class and SLOs, copied from the Request.
    int priority = 0;
    double ttft_slo_s = 0.0;
    double deadline_s = 0.0;
    /// When the request entered the running batch (>= arrival_s; 0
    /// when it was dropped or shed before ever admitting).
    double admitted_s = 0.0;
    /// End of the step that completed the prefill and emitted the
    /// first output token.
    double first_token_s = 0.0;
    /// End of the step that emitted the last output token — or, for a
    /// non-completed outcome, the time the request left the scheduler.
    double finish_s = 0.0;
    /// How the request left the scheduler.
    RequestOutcome outcome = RequestOutcome::kCompleted;
    /// Times this request was evicted under page pressure.
    std::size_t preempt_count = 0;
    /// Transient step-fault retries charged to this request.
    std::size_t fault_retries = 0;
    /// Generated tokens in emission order (execution mode only; empty
    /// when the run priced steps without executing them). Size equals
    /// output_len once the request finished.
    std::vector<int> tokens;

    bool completed() const
    {
        return outcome == RequestOutcome::kCompleted;
    }
    double ttft_s() const { return first_token_s - arrival_s; }
    /// Arrival-to-finish latency (the quantity deadline_s bounds).
    double latency_s() const { return finish_s - arrival_s; }
    /// Mean inter-token latency of the decode phase (0 when the
    /// request generated a single token).
    double decode_s_per_token() const
    {
        return output_len > 1
                   ? (finish_s - first_token_s) /
                         static_cast<double>(output_len - 1)
                   : 0.0;
    }
};

/// One scheduler step (the replay/validation record).
struct ServingStep {
    double start_s = 0.0;
    std::uint64_t cycles = 0;
    std::size_t prefill_tokens = 0;
    std::size_t decode_tokens = 0;
    /// Requests in the batch while this step ran.
    std::size_t running = 0;
    /// KV-cache tokens resident after the step (finished requests
    /// freed). Identical in pricing-only and execution runs; in the
    /// latter it equals the summed cache length of live caches.
    std::size_t cache_tokens = 0;
    /// Page-pool occupancy after the step (used + free == page_budget
    /// always — a conservation invariant serve_test::audit checks).
    std::size_t used_pages = 0;
    std::size_t free_pages = 0;
    /// Requests preempted while scheduling this step. Event counters
    /// (preemptions / drops / sheds / fault_retries / failed /
    /// swap_stall_s) cover everything since the previous recorded
    /// step — abandoned step attempts roll forward, trailing events
    /// flush into the final step — so summing a field over the log
    /// reproduces the report total whenever any step was recorded.
    std::size_t preemptions = 0;
    /// Requests dropped (deadline) / shed (overload) while this step
    /// was being scheduled.
    std::size_t drops = 0;
    std::size_t sheds = 0;
    /// Failed accelerator attempts retried before this step ran, and
    /// requests terminally failed during those retries.
    std::size_t fault_retries = 0;
    std::size_t failed = 0;
    /// Host-link stall priced into this step's span (swap_gbps > 0).
    double swap_stall_s = 0.0;
    /// Attention share of `cycles` and the cached K/V bytes the step
    /// streamed from DRAM (attn_pricing only; otherwise both zero).
    std::uint64_t attn_cycles = 0;
    std::uint64_t kv_bytes = 0;

    bool operator==(const ServingStep &) const = default;
};

/// Outcome of one simulated serving run.
struct ServingReport {
    std::string model;
    std::string system;
    std::vector<RequestMetrics> requests;  ///< In request-id order.
    std::vector<ServingStep> steps;
    std::uint64_t total_cycles = 0;
    double makespan_s = 0.0;  ///< End of the last step.
    std::size_t total_prompt_tokens = 0;
    std::size_t total_output_tokens = 0;
    std::size_t peak_batch = 0;
    /// KV-row high-water mark of the run (the quantity a capacity
    /// planner budgets against). Sampled after every step *and* after
    /// between-step row materialization (swap-in restores,
    /// shared-prefix adoption), so a transient that a same-round
    /// preemption undoes before the step records still registers:
    /// peak_cache_tokens >= the maximum of ServingStep::cache_tokens,
    /// not always equal.
    std::size_t peak_cache_tokens = 0;
    /// True when the run executed generation (tokens are populated).
    bool executed = false;
    /// Page-pool accounting (page_budget is the resolved budget: the
    /// explicit one, the kv_byte_budget-derived one, or the derived
    /// never-blocking default).
    std::size_t page_size = 0;
    std::size_t page_budget = 0;
    std::size_t preemptions = 0;  ///< Total preemption events.
    std::size_t readmits = 0;     ///< Preempted requests readmitted.
    std::size_t peak_used_pages = 0;
    /// Prompt rows adopted from the shared-prefix anchor instead of
    /// being prefilled.
    std::size_t reused_prefix_tokens = 0;
    /// Rows re-prefilled after recompute-policy preemptions (swap-in
    /// faults falling back to recompute count here too).
    std::size_t recomputed_tokens = 0;
    /// Robustness accounting. Conservation invariant:
    /// requests.size() == completed + dropped + shed + failed.
    std::size_t completed = 0;  ///< Requests that finished every token.
    std::size_t dropped = 0;    ///< DeadlinePolicy drops.
    std::size_t shed = 0;       ///< Load-shed requests.
    std::size_t failed = 0;     ///< Terminal fault failures.
    /// Fault-injection accounting (zero when FaultSpec is inert).
    std::size_t step_faults = 0;  ///< Failed accelerator attempts.
    std::size_t swap_faults = 0;  ///< Swap-ins fallen back to recompute.
    std::uint64_t wasted_cycles = 0;  ///< Cycles of failed attempts.
    /// Priced swap traffic (swap_gbps > 0; otherwise all zero).
    /// Both directions are charged: swap_bytes == swap_out_bytes +
    /// swap_in_bytes always.
    std::uint64_t swap_bytes = 0;
    std::uint64_t swap_out_bytes = 0;
    std::uint64_t swap_in_bytes = 0;
    double swap_stall_s = 0.0;
    /// Attention pricing totals (attn_pricing only; otherwise zero).
    /// attn_cycles is included in total_cycles; kv_dram_bytes is the
    /// cached K/V traffic summed over steps — on a fault-free run,
    /// Σ(per-layer K/V bytes x attended rows) over every scheduled
    /// sequence and step.
    std::uint64_t attn_cycles = 0;
    std::uint64_t kv_dram_bytes = 0;
    /// KV storage accounting: the run's format name ("fp32" when
    /// unquantized) and the physical bytes one cached token occupies
    /// across all layers (2 x real n_layers x kv_row_bytes at the
    /// real d_model) — what ServingOptions::kv_byte_budget divides by.
    std::string kv_format = "fp32";
    std::size_t kv_bytes_per_token = 0;

    /// Generated tokens per second over the makespan.
    double output_tokens_per_s() const;
    /// Latency statistics cover completed requests only (dropped /
    /// shed / failed requests never emit their full stream).
    double mean_ttft_s() const;
    double p95_ttft_s() const;
    /// Mean decode inter-token latency across multi-token requests.
    double mean_decode_s_per_token() const;
    /// Mean over steps (with pages in use) of the internal
    /// fragmentation of the page pool: 1 - committed sequence rows /
    /// used page slots, in [0, 1]. Partial tail pages and anchor
    /// pages whose rows no live sequence currently counts both read
    /// as waste.
    double mean_fragmentation() const;
    /// FNV-1a checksum over (id, generated tokens) of every request —
    /// the determinism fingerprint of executed runs.
    std::uint64_t generated_checksum() const;
    /// One-line human-readable summary for logs and CI artifacts: run
    /// totals and the page-pool segment, plus a robustness segment
    /// when drops / sheds / faults occurred, swap / attention segments
    /// when priced, and a kv segment when the run stores K/V in a
    /// quantized format.
    std::string summary() const;
    /// Per-priority-class rollup, ascending priority. See ClassReport.
    std::vector<struct ClassReport> by_class() const;
};

/// Per-priority-class rollup of one serving run: outcome counts,
/// latency percentiles over completed requests, and SLO attainment.
/// Attainment denominators count every request carrying the SLO —
/// dropped / shed / failed requests score as missed, so shedding
/// cannot inflate the attainment of the class it sheds from.
struct ClassReport {
    int priority = 0;
    std::size_t n = 0;
    std::size_t completed = 0;
    std::size_t dropped = 0;
    std::size_t shed = 0;
    std::size_t failed = 0;
    /// Over completed requests (0 when none completed).
    double ttft_mean_s = 0.0;
    double ttft_p95_s = 0.0;
    double latency_p50_s = 0.0;
    double latency_p95_s = 0.0;
    /// SLO attainment: requests carrying the SLO / those meeting it.
    std::size_t ttft_slo_n = 0;
    std::size_t ttft_slo_met = 0;
    std::size_t deadline_n = 0;
    std::size_t deadline_met = 0;
    /// Robustness traffic attributed to the class.
    std::size_t preemptions = 0;
    std::size_t fault_retries = 0;

    /// Fraction of SLO-carrying requests that met it (1 when the
    /// class carries none — vacuously attained).
    double ttft_attainment() const
    {
        return ttft_slo_n > 0 ? static_cast<double>(ttft_slo_met) /
                                    static_cast<double>(ttft_slo_n)
                              : 1.0;
    }
    double deadline_attainment() const
    {
        return deadline_n > 0 ? static_cast<double>(deadline_met) /
                                    static_cast<double>(deadline_n)
                              : 1.0;
    }
};

/// The fused FP-INT GeMM workload of one scheduler step carrying
/// `prefill_tokens` prompt rows and `decode_tokens` single-token
/// decode rows (continuous batching packs both through the same taps;
/// a pure-decode step is exactly build_decode_workload).
std::vector<GemmOp> build_step_workload(const ModelConfig &model,
                                        std::size_t prefill_tokens,
                                        std::size_t decode_tokens,
                                        const PrecisionTuple &tuple);

/// The ragged step workload attention pricing uses: GeMM taps
/// identical to the aggregate overload at the summed row counts, plus
/// one AttnOp per scheduled sequence (prefill chunks and decode rows)
/// over its cached context. Exposed so tests and replay tools can
/// reprice a step from its slice lists bit-for-bit.
Workload build_step_workload(const ModelConfig &model,
                             std::span<const SeqSlice> prefill,
                             std::span<const SeqSlice> decode,
                             const PrecisionTuple &tuple,
                             double kv_bits_per_elem = 32.0);

/// The deterministic synthetic prompt execution mode feeds request
/// `id`: BOS (0) followed by uniform tokens from the executor's sim
/// vocab, derived from (seed, id) only — so a request's prompt does
/// not depend on scheduling. With shared_prefix_len > 0 the first
/// min(shared_prefix_len, prompt_len) tokens (BOS included) come from
/// a shared stream derived from the seed alone, identical across
/// requests — the common system prompt the page pool's prefix
/// reuse adopts. Exposed for replay tools.
std::vector<int> exec_prompt_tokens(int vocab, int prompt_len,
                                    std::uint64_t seed, int id,
                                    int shared_prefix_len = 0);

/// Seed of request `id`'s sampling stream in execution mode (one
/// SplitMix64 per request, again schedule-independent). Exposed so
/// replay tools can regenerate a request standalone and compare
/// tokens bit-for-bit with the scheduler's.
std::uint64_t exec_sampler_seed(std::uint64_t seed, int id);

/// The token-selection rule executed generation applies to a logits
/// row: temperature > 0 samples via sample_from_logits (one uniform
/// draw); temperature <= 0 is greedy argmax with first-max-wins
/// tie-breaking and consumes no draw. Exposed so standalone replays
/// reproduce the scheduler's tokens bit-for-bit at any temperature.
int exec_pick_token(std::span<const float> logits, double temperature,
                    SplitMix64 &rng);

/// Simulates serving `requests` (any order; scheduled FCFS by arrival
/// time) on one accelerator configuration. Deterministic in its
/// arguments. Throws std::invalid_argument on an empty stream, zero
/// batch/budget options, a zero page size, a non-finite arrival time,
/// a request that cannot fit the page budget, or (execution mode) a
/// request that cannot fit the executor's max_seq.
ServingReport simulate_serving(const ModelConfig &model,
                               const AcceleratorConfig &system,
                               const TechParams &tech,
                               std::span<const Request> requests,
                               const ServingOptions &opts = {});

}  // namespace anda
