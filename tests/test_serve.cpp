// Tests of the serving layer: deterministic request streams, the
// continuous-batching scheduler's invariants (token budgets,
// conservation, replayable step costs, KV occupancy), the latency /
// throughput report, execution mode (real token generation on the
// accuracy substrate without perturbing pricing), and the paged KV
// pool (page-budget admission, the derived never-blocking default
// budget, preemption with swap or recompute, prefix reuse) — all of
// which must leave every emitted token bit-identical to standalone
// regeneration on a slab cache (serve_test::standalone_tokens).
// Where a test needs the scheduler's invariants it calls
// serve_test::audit rather than re-deriving them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "serve_test_util.h"

namespace anda {
namespace {

using serve_test::exec_opts;
using serve_test::exec_spec;
using serve_test::small_spec;
using serve_test::tiny_executor;

/// audit() output: one line per violated invariant.
using Violations = std::vector<std::string>;

TEST(RequestStream, DeterministicSortedAndBounded)
{
    const RequestStreamSpec spec = small_spec();
    const auto a = generate_requests(spec);
    const auto b = generate_requests(spec);
    ASSERT_EQ(a.size(), static_cast<std::size_t>(spec.n_requests));
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, static_cast<int>(i));
        EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
        EXPECT_EQ(a[i].prompt_len, b[i].prompt_len);
        EXPECT_EQ(a[i].output_len, b[i].output_len);
        EXPECT_GE(a[i].prompt_len, spec.prompt_min);
        EXPECT_LE(a[i].prompt_len, spec.prompt_max);
        EXPECT_GE(a[i].output_len, spec.output_min);
        EXPECT_LE(a[i].output_len, spec.output_max);
        if (i > 0) {
            EXPECT_GE(a[i].arrival_s, a[i - 1].arrival_s);
        }
    }
    // Different seeds give different traces.
    RequestStreamSpec other = spec;
    other.seed = 4243;
    const auto c = generate_requests(other);
    bool any_diff = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        any_diff = any_diff || c[i].prompt_len != a[i].prompt_len ||
                   c[i].arrival_s != a[i].arrival_s;
    }
    EXPECT_TRUE(any_diff);
}

TEST(RequestStream, OfflineRegimeAndValidation)
{
    RequestStreamSpec spec = small_spec();
    spec.arrival_rate = 0.0;
    for (const auto &r : generate_requests(spec)) {
        EXPECT_EQ(r.arrival_s, 0.0);
    }
    RequestStreamSpec bad = small_spec();
    bad.prompt_min = 0;
    EXPECT_THROW(generate_requests(bad), std::invalid_argument);
    bad = small_spec();
    bad.output_max = bad.output_min - 1;
    EXPECT_THROW(generate_requests(bad), std::invalid_argument);
    bad = small_spec();
    bad.n_requests = -1;
    EXPECT_THROW(generate_requests(bad), std::invalid_argument);
    // NaN is no rate (rates <= 0 mean a burst).
    bad = small_spec();
    bad.arrival_rate = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(generate_requests(bad), std::invalid_argument);
}

TEST(StepWorkload, FusesPhasesAndDegeneratesToDecode)
{
    const auto &model = find_model("llama-7b");
    const PrecisionTuple tuple{8, 7, 7, 6};
    // Pure decode steps are exactly the decode workload.
    const auto pure = build_step_workload(model, 0, 5, tuple);
    const auto dec = build_decode_workload(model, 5, tuple);
    ASSERT_EQ(pure.size(), dec.size());
    for (std::size_t i = 0; i < pure.size(); ++i) {
        EXPECT_EQ(pure[i].shape.tokens, dec[i].shape.tokens);
        EXPECT_EQ(pure[i].label, dec[i].label);
    }
    // Mixed steps fuse all rows into one GeMM per tap.
    const auto mixed = build_step_workload(model, 30, 5, tuple);
    EXPECT_EQ(mixed[0].shape.tokens, 35u);
    EXPECT_THROW(build_step_workload(model, 0, 0, tuple),
                 std::invalid_argument);
}

class ServingSimTest : public ::testing::Test {
  protected:
    static ServingReport run(const ServingOptions &opts,
                             const RequestStreamSpec &spec,
                             const std::string &system = "anda")
    {
        return serve_test::run_priced(opts, spec, system);
    }
    /// serve_test::audit of `report` = run(opts, spec, system).
    static Violations audit(const ServingReport &report,
                            const ServingOptions &opts,
                            const RequestStreamSpec &spec,
                            const std::string &system = "anda")
    {
        return serve_test::audit(report, generate_requests(spec), opts,
                                 find_model("llama-7b"),
                                 find_system(system));
    }
};

TEST_F(ServingSimTest, AllRequestsFinishWithOrderedTimestamps)
{
    ServingOptions opts;
    opts.max_batch = 4;
    opts.max_step_tokens = 64;
    opts.tuple = {8, 7, 7, 6};
    const ServingReport report = run(opts, small_spec());
    ASSERT_EQ(report.completed, 24u);
    // arrival <= admitted < first token <= finish <= makespan, and
    // peak_batch <= max_batch.
    EXPECT_EQ(audit(report, opts, small_spec()), Violations{});
    for (const auto &m : report.requests) {
        if (m.output_len > 1) {
            EXPECT_GT(m.decode_s_per_token(), 0.0) << "id=" << m.id;
        }
    }
    EXPECT_GT(report.output_tokens_per_s(), 0.0);
    EXPECT_GE(report.p95_ttft_s(), report.mean_ttft_s() * 0.5);
    EXPECT_FALSE(report.summary().empty());
}

TEST_F(ServingSimTest, StepLogConservesTokensAndCycles)
{
    ServingOptions opts;
    opts.max_batch = 6;
    opts.max_step_tokens = 48;
    opts.tuple = {8, 7, 7, 6};
    // The audit replays every step's cost through the hw model,
    // bounds its rows by the batch and token budgets, and conserves
    // tokens: every prompt token prefills once, every output token
    // after the prefill-emitted first one decodes once.
    const ServingReport report = run(opts, small_spec());
    ASSERT_EQ(report.completed, report.requests.size());
    EXPECT_EQ(audit(report, opts, small_spec()), Violations{});
}

TEST_F(ServingSimTest, DeterministicAcrossRuns)
{
    ServingOptions opts;
    opts.max_batch = 3;
    opts.max_step_tokens = 32;
    const ServingReport a = run(opts, small_spec());
    const ServingReport b = run(opts, small_spec());
    EXPECT_TRUE(a.steps == b.steps);
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].first_token_s,
                  b.requests[i].first_token_s);
        EXPECT_EQ(a.requests[i].finish_s, b.requests[i].finish_s);
    }
    EXPECT_EQ(a.summary(), b.summary());
}

TEST_F(ServingSimTest, SerialBatchDegeneratesToBackToBack)
{
    // max_batch = 1: no overlap, so every step runs exactly one
    // request and requests finish in arrival order.
    ServingOptions opts;
    opts.max_batch = 1;
    opts.max_step_tokens = 128;
    const ServingReport report = run(opts, small_spec());
    for (const auto &s : report.steps) {
        EXPECT_EQ(s.running, 1u);
    }
    for (std::size_t i = 1; i < report.requests.size(); ++i) {
        EXPECT_GE(report.requests[i].finish_s,
                  report.requests[i - 1].finish_s);
    }
}

TEST_F(ServingSimTest, ContinuousBatchingBeatsSerialMakespan)
{
    ServingOptions serial;
    serial.max_batch = 1;
    serial.max_step_tokens = 64;
    serial.tuple = {8, 7, 7, 6};
    ServingOptions batched = serial;
    batched.max_batch = 8;
    RequestStreamSpec spec = small_spec();
    spec.arrival_rate = 0.0;  // Offline: pure scheduling comparison.
    const double t_serial = run(serial, spec).makespan_s;
    const double t_batched = run(batched, spec).makespan_s;
    EXPECT_LT(t_batched, t_serial);
}

TEST_F(ServingSimTest, AndaServesFasterThanFp16Systems)
{
    ServingOptions fp16;
    fp16.max_batch = 8;
    fp16.max_step_tokens = 64;
    fp16.tuple = {16, 16, 16, 16};
    ServingOptions anda = fp16;
    anda.tuple = {8, 7, 7, 6};
    const RequestStreamSpec spec = small_spec();
    const ServingReport fp = run(fp16, spec, "fp-fp");
    const ServingReport an = run(anda, spec, "anda");
    EXPECT_LT(an.makespan_s, fp.makespan_s);
    EXPECT_LT(an.mean_ttft_s(), fp.mean_ttft_s());
    EXPECT_GT(an.output_tokens_per_s(), fp.output_tokens_per_s());
}

TEST_F(ServingSimTest, StepLogTracksCacheOccupancy)
{
    ServingOptions opts;
    opts.max_batch = 6;
    opts.max_step_tokens = 48;
    const ServingReport report = run(opts, small_spec());
    std::size_t peak = 0;
    for (const auto &s : report.steps) {
        peak = std::max(peak, s.cache_tokens);
    }
    EXPECT_EQ(peak, report.peak_cache_tokens);
    EXPECT_GT(report.peak_cache_tokens, 0u);
    // Everything finished: the last step leaves no resident rows.
    EXPECT_EQ(report.steps.back().cache_tokens, 0u);
    // A request resident end-to-end caches prompt + output - 1 rows.
    std::size_t bound = 0;
    for (const auto &m : report.requests) {
        bound += static_cast<std::size_t>(m.prompt_len) +
                 static_cast<std::size_t>(m.output_len) - 1;
    }
    EXPECT_LE(report.peak_cache_tokens, bound);
}

// ---------------------------------------------------------------------
// Paged-policy scheduling (pricing-only).

/// Page budget that binds under small_spec's burst: the largest
/// request footprint is pages(96 + 24 - 1) + 1 = 9 pages of 16 rows,
/// so 12 pages admits any single request but far fewer than the
/// unconstrained peak (hundreds of cached rows).
ServingOptions
paged_opts(std::size_t budget = 12)
{
    ServingOptions opts;
    opts.max_batch = 8;
    opts.max_step_tokens = 64;
    opts.tuple = {8, 7, 7, 6};
    opts.page_size = 16;
    opts.page_budget = budget;
    return opts;
}

TEST_F(ServingSimTest, PagedOverloadCompletesUnderBudget)
{
    RequestStreamSpec spec = small_spec();
    spec.arrival_rate = 0.0;  // Burst: maximal page pressure.
    const std::size_t budget = 12;
    const std::size_t budget_rows = budget * 16;

    // The paged scheduler rides out the overload by preempting: every
    // request finishes and the pool never exceeds its budget.
    const ServingReport paged = run(paged_opts(budget), spec);
    ASSERT_EQ(paged.requests.size(), 24u);
    for (const auto &m : paged.requests) {
        EXPECT_GT(m.finish_s, 0.0) << "id=" << m.id;
    }
    EXPECT_GE(paged.preemptions, 1u);
    EXPECT_EQ(paged.readmits, paged.preemptions);
    EXPECT_EQ(paged.page_budget, budget);
    EXPECT_LE(paged.peak_cache_tokens, budget_rows);
    for (const auto &s : paged.steps) {
        EXPECT_LE(s.cache_tokens, s.used_pages * 16);
    }
    // Page conservation, fragmentation in [0, 1], and token
    // conservation with recompute-policy preemption: every prompt row
    // prefills once plus once more per recomputed residency.
    EXPECT_EQ(audit(paged, paged_opts(budget), spec), Violations{});
}

TEST_F(ServingSimTest, PagedSchedulingIsDeterministic)
{
    RequestStreamSpec spec = small_spec();
    spec.arrival_rate = 0.0;
    for (const PreemptPolicy policy :
         {PreemptPolicy::kRecompute, PreemptPolicy::kSwap}) {
        ServingOptions opts = paged_opts();
        opts.preempt = policy;
        const ServingReport a = run(opts, spec);
        const ServingReport b = run(opts, spec);
        EXPECT_TRUE(a.steps == b.steps);
        EXPECT_EQ(a.total_cycles, b.total_cycles);
        EXPECT_EQ(a.preemptions, b.preemptions);
        EXPECT_EQ(a.summary(), b.summary());
    }
}

TEST_F(ServingSimTest, SwapPolicyAvoidsRecomputePrefill)
{
    RequestStreamSpec spec = small_spec();
    spec.arrival_rate = 0.0;
    ServingOptions recompute = paged_opts();
    recompute.preempt = PreemptPolicy::kRecompute;
    ServingOptions swap = paged_opts();
    swap.preempt = PreemptPolicy::kSwap;
    const ServingReport rec = run(recompute, spec);
    const ServingReport swp = run(swap, spec);
    ASSERT_GE(rec.preemptions, 1u);
    ASSERT_GE(swp.preemptions, 1u);
    // Swap restores rows instead of re-prefilling them, so (the
    // audit's token conservation) prefill rows are the prompt rows.
    EXPECT_GT(rec.recomputed_tokens, 0u);
    EXPECT_EQ(swp.recomputed_tokens, 0u);
    EXPECT_EQ(audit(swp, swap, spec), Violations{});
}

TEST_F(ServingSimTest, PagedValidationRejectsBadBudgets)
{
    // A request whose footprint can never fit is rejected up front:
    // the largest request needs pages(96 + 24 - 1) + 1 = 9 pages.
    EXPECT_THROW(run(paged_opts(8), small_spec()), std::invalid_argument);
}

TEST_F(ServingSimTest, DerivedPageBudgetNeverPreempts)
{
    // With neither page_budget nor kv_byte_budget set, the pool is
    // sized so it never blocks: max_batch x (pages(largest
    // footprint) + 1) pages. The burst then runs exactly as under an
    // explicit budget that holds every request's worst case at once.
    RequestStreamSpec spec = small_spec();
    spec.arrival_rate = 0.0;
    const ServingReport derived = run(paged_opts(0), spec);
    const ServingReport roomy = run(paged_opts(24 * 9), spec);
    EXPECT_EQ(derived.page_budget, 8u * (8 + 1));
    EXPECT_EQ(derived.preemptions, 0u);
    EXPECT_EQ(roomy.preemptions, 0u);
    ASSERT_EQ(derived.steps.size(), roomy.steps.size());
    for (std::size_t i = 0; i < derived.steps.size(); ++i) {
        const ServingStep &x = derived.steps[i];
        const ServingStep &y = roomy.steps[i];
        EXPECT_EQ(x.start_s, y.start_s) << "step " << i;
        EXPECT_EQ(x.cycles, y.cycles) << "step " << i;
        EXPECT_EQ(x.prefill_tokens, y.prefill_tokens) << "step " << i;
        EXPECT_EQ(x.decode_tokens, y.decode_tokens) << "step " << i;
    }
    EXPECT_EQ(derived.makespan_s, roomy.makespan_s);
    EXPECT_EQ(audit(derived, paged_opts(0), spec), Violations{});
    // Pages still need a size.
    ServingOptions bad = paged_opts(0);
    bad.page_size = 0;
    EXPECT_THROW(run(bad, spec), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Execution mode.

class ServingExecutionTest : public ::testing::Test {
  protected:
    static ServingReport run(const ServingOptions &opts)
    {
        return serve_test::run_executed(opts, exec_spec());
    }
    /// serve_test::audit of `report` = run(opts).
    static Violations audit(const ServingReport &report,
                            const ServingOptions &opts)
    {
        return serve_test::audit(report, generate_requests(exec_spec()),
                                 opts, tiny_executor().config(),
                                 find_system("anda"));
    }
};

TEST_F(ServingExecutionTest, GeneratesEveryTokenDeterministically)
{
    const ServingReport a = run(exec_opts());
    const ServingReport b = run(exec_opts());
    EXPECT_TRUE(a.executed);
    EXPECT_EQ(a.generated_checksum(), b.generated_checksum());
    // Every request emitted output_len in-vocab tokens.
    ASSERT_EQ(a.completed, a.requests.size());
    EXPECT_EQ(audit(a, exec_opts()), Violations{});
    // Different sampling seeds change the generated stream.
    ServingOptions other = exec_opts();
    other.exec_seed = 8;
    other.exec_temperature = 1.0;
    EXPECT_NE(run(other).generated_checksum(), a.generated_checksum());
}

TEST_F(ServingExecutionTest, ExecutionDoesNotPerturbPricing)
{
    ServingOptions priced_only = exec_opts();
    priced_only.executor = nullptr;
    const ServingReport priced = run(priced_only);
    const ServingReport executed = run(exec_opts());
    EXPECT_FALSE(priced.executed);
    // Among others: a pricing-only run carries no tokens.
    EXPECT_EQ(audit(priced, priced_only), Violations{});
    EXPECT_TRUE(executed.steps == priced.steps);
    EXPECT_EQ(executed.makespan_s, priced.makespan_s);
    EXPECT_EQ(executed.total_cycles, priced.total_cycles);
    EXPECT_EQ(executed.peak_cache_tokens, priced.peak_cache_tokens);
}

TEST_F(ServingExecutionTest, TokensAreScheduleIndependent)
{
    // The same requests scheduled with a different batch/budget (and
    // hence different step boundaries and decode batch compositions)
    // must generate identical tokens: per-request sampling streams and
    // bit-exact ragged decode make generation a pure function of the
    // request, not of the schedule.
    const ServingReport a = run(exec_opts());
    ServingOptions reshaped = exec_opts();
    reshaped.max_batch = 2;
    reshaped.max_step_tokens = 9;
    const ServingReport b = run(reshaped);
    ASSERT_EQ(a.requests.size(), b.requests.size());
    for (std::size_t i = 0; i < a.requests.size(); ++i) {
        EXPECT_EQ(a.requests[i].tokens, b.requests[i].tokens)
            << "id=" << a.requests[i].id;
    }
}

TEST_F(ServingExecutionTest, RejectsRequestsBeyondExecutorMaxSeq)
{
    RequestStreamSpec spec = exec_spec();
    spec.prompt_max = 200;  // 200 + output - 1 > max_seq = 128.
    spec.prompt_min = 150;
    EXPECT_THROW(simulate_serving(tiny_executor().config(),
                                  find_system("anda"), tech16(),
                                  generate_requests(spec), exec_opts()),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Paged execution: preemption and prefix reuse must never change a
// single emitted token, and pricing-only paged runs must log the
// identical allocate / preempt / readmit sequence.

/// Exec options under an explicit page budget. The largest exec_spec
/// request needs pages(40 + 16 - 1) + 1 = 8 pages of 8 rows; a tight
/// budget leaves room for fewer full residents than max_batch = 4,
/// forcing preemption, while a large budget never preempts.
ServingOptions
paged_exec_opts(std::size_t budget, PreemptPolicy policy)
{
    ServingOptions opts = exec_opts();
    opts.page_size = 8;
    opts.page_budget = budget;
    opts.preempt = policy;
    return opts;
}

/// Every request of `report` (a run of `opts` over exec_spec())
/// emitted exactly its standalone-regenerated tokens.
void
expect_standalone_tokens(const ServingReport &report,
                         const ServingOptions &opts)
{
    const auto requests = generate_requests(exec_spec());
    ASSERT_EQ(report.requests.size(), requests.size());
    for (const Request &r : requests) {
        EXPECT_EQ(report.requests[static_cast<std::size_t>(r.id)].tokens,
                  serve_test::standalone_tokens(tiny_executor(), r, opts))
            << "id=" << r.id;
    }
}

TEST_F(ServingExecutionTest, PreemptionDoesNotChangeTokens)
{
    // Ample pages: no preemption; every token matches the standalone
    // slab-cache regeneration.
    const ServingOptions roomy_opts =
        paged_exec_opts(128, PreemptPolicy::kRecompute);
    const ServingReport roomy = run(roomy_opts);
    EXPECT_EQ(roomy.preemptions, 0u);
    expect_standalone_tokens(roomy, roomy_opts);
    // Tight pages: both preemption policies fire, yet every request's
    // token stream is still bit-identical to the standalone oracle.
    for (const PreemptPolicy policy :
         {PreemptPolicy::kRecompute, PreemptPolicy::kSwap}) {
        const ServingOptions tight_opts = paged_exec_opts(12, policy);
        const ServingReport tight = run(tight_opts);
        ASSERT_GE(tight.preemptions, 1u)
            << "budget too loose to exercise preemption";
        EXPECT_EQ(tight.readmits, tight.preemptions);
        expect_standalone_tokens(tight, tight_opts);
        if (policy == PreemptPolicy::kRecompute) {
            EXPECT_GT(tight.recomputed_tokens, 0u);
        } else {
            EXPECT_EQ(tight.recomputed_tokens, 0u);
        }
    }
}

TEST_F(ServingExecutionTest, PagedExecutionMatchesPricingStepLog)
{
    for (const PreemptPolicy policy :
         {PreemptPolicy::kRecompute, PreemptPolicy::kSwap}) {
        const ServingOptions exec = paged_exec_opts(12, policy);
        ServingOptions priced = exec;
        priced.executor = nullptr;
        const ServingReport a = run(exec);
        const ServingReport b = run(priced);
        ASSERT_GE(a.preemptions, 1u);
        EXPECT_EQ(a.preemptions, b.preemptions);
        EXPECT_EQ(a.readmits, b.readmits);
        EXPECT_EQ(a.peak_used_pages, b.peak_used_pages);
        EXPECT_EQ(a.recomputed_tokens, b.recomputed_tokens);
        EXPECT_EQ(a.reused_prefix_tokens, b.reused_prefix_tokens);
        ASSERT_EQ(a.steps.size(), b.steps.size());
        for (std::size_t i = 0; i < a.steps.size(); ++i) {
            EXPECT_TRUE(a.steps[i] == b.steps[i]) << "step " << i;
        }
        EXPECT_EQ(a.makespan_s, b.makespan_s);
        // summary() differs only by the executed-checksum segment.
        EXPECT_NE(a.summary().find("preempt"), std::string::npos);
        EXPECT_NE(b.summary().find("preempt"), std::string::npos);
    }
}

TEST_F(ServingExecutionTest, AuditFlagsEveryCorruption)
{
    // The audit is not vacuous: a clean preempting run passes, and
    // each single-field corruption of it is flagged.
    const ServingOptions opts = paged_exec_opts(12, PreemptPolicy::kSwap);
    const ServingReport clean = run(opts);
    ASSERT_GE(clean.preemptions, 1u);
    ASSERT_EQ(audit(clean, opts), Violations{});
    const std::size_t mid = clean.steps.size() / 2;
    const int vocab = tiny_executor().dims().vocab;
    const std::vector<
        std::pair<std::string, std::function<void(ServingReport &)>>>
        corruptions = {
            {"step used_pages",
             [&](ServingReport &r) { ++r.steps[mid].used_pages; }},
            {"step cycles",
             [&](ServingReport &r) { ++r.steps[mid].cycles; }},
            {"step start_s",
             [&](ServingReport &r) {
                 r.steps[mid].start_s = r.steps[mid - 1].start_s;
             }},
            {"step drops", [&](ServingReport &r) { ++r.steps[mid].drops; }},
            {"report drops", [](ServingReport &r) { ++r.dropped; }},
            {"peak pages", [](ServingReport &r) { --r.peak_used_pages; }},
            {"swap bytes", [](ServingReport &r) { ++r.swap_out_bytes; }},
            {"request outcome",
             [](ServingReport &r) {
                 r.requests[3].outcome = RequestOutcome::kShed;
             }},
            {"extra token",
             [](ServingReport &r) { r.requests[3].tokens.push_back(0); }},
            {"lost token",
             [](ServingReport &r) { r.requests[3].tokens.pop_back(); }},
            {"out-of-vocab token",
             [&](ServingReport &r) { r.requests[3].tokens[0] = vocab; }},
            {"first token at admission",
             [](ServingReport &r) {
                 r.requests[3].first_token_s = r.requests[3].admitted_s;
             }},
        };
    for (const auto &[what, corrupt] : corruptions) {
        ServingReport bad = clean;
        corrupt(bad);
        EXPECT_NE(audit(bad, opts), Violations{}) << what;
    }
}

TEST_F(ServingExecutionTest, PrefixReuseSkipsPrefillWithoutTokenDrift)
{
    // A shared system prompt heads every synthetic prompt; later
    // admissions adopt the anchor's K/V pages instead of prefilling
    // them, yet emit exactly the tokens of a standalone regeneration
    // that prefills the whole prompt into a slab cache.
    ServingOptions shared = paged_exec_opts(128, PreemptPolicy::kSwap);
    shared.shared_prefix_len = 12;
    const ServingReport reuse = run(shared);
    EXPECT_GT(reuse.reused_prefix_tokens, 0u);
    expect_standalone_tokens(reuse, shared);
    // Adopted rows are never prefilled: the audit's token
    // conservation picks them up.
    ASSERT_EQ(reuse.completed, reuse.requests.size());
    EXPECT_EQ(audit(reuse, shared), Violations{});
    // And the paged pricing-only twin logs the same reuse.
    ServingOptions priced = shared;
    priced.executor = nullptr;
    EXPECT_EQ(run(priced).reused_prefix_tokens,
              reuse.reused_prefix_tokens);
}

TEST_F(ServingSimTest, RejectsDegenerateInputs)
{
    const auto requests = generate_requests(small_spec());
    const auto &model = find_model("llama-7b");
    const auto &system = find_system("anda");
    EXPECT_THROW(simulate_serving(model, system, tech16(), {}, {}),
                 std::invalid_argument);
    ServingOptions bad;
    bad.max_batch = 0;
    EXPECT_THROW(
        simulate_serving(model, system, tech16(), requests, bad),
        std::invalid_argument);
    bad = ServingOptions{};
    bad.max_step_tokens = 0;
    EXPECT_THROW(
        simulate_serving(model, system, tech16(), requests, bad),
        std::invalid_argument);
    std::vector<Request> zero_len = {{0, 0.0, 0, 4}};
    EXPECT_THROW(
        simulate_serving(model, system, tech16(), zero_len, {}),
        std::invalid_argument);
    // A NaN arrival never ingests (the loop used to spin forever).
    for (const double arrival :
         {std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity()}) {
        const std::vector<Request> never = {{0, arrival, 4, 4}};
        EXPECT_THROW(simulate_serving(model, system, tech16(), never, {}),
                     std::invalid_argument);
    }
}

// ---------------------------------------------------------------------
// Robustness layer: priority classes, SLO enforcement, eviction
// policies, fault injection, swap pricing.

using serve_test::classed_spec;

/// Step-log equality over every field: the strongest
/// no-perturbation assertion the robustness knobs are held to.
void
expect_same_run(const ServingReport &a, const ServingReport &b)
{
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
        EXPECT_TRUE(a.steps[i] == b.steps[i]) << "step " << i;
    }
    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.total_cycles, b.total_cycles);
    EXPECT_EQ(a.attn_cycles, b.attn_cycles);
    EXPECT_EQ(a.kv_dram_bytes, b.kv_dram_bytes);
    EXPECT_EQ(a.preemptions, b.preemptions);
    EXPECT_EQ(a.readmits, b.readmits);
    EXPECT_EQ(a.swap_out_bytes, b.swap_out_bytes);
    EXPECT_EQ(a.swap_in_bytes, b.swap_in_bytes);
    EXPECT_EQ(a.summary(), b.summary());
}

TEST(RequestStream, PriorityClassMixIsDeterministicAndSeedScoped)
{
    const RequestStreamSpec spec = classed_spec();
    const auto a = generate_requests(spec);
    const auto b = generate_requests(spec);
    ASSERT_EQ(a.size(), b.size());
    bool seen[3] = {false, false, false};
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].priority, b[i].priority);
        ASSERT_GE(a[i].priority, 0);
        ASSERT_LE(a[i].priority, 2);
        seen[a[i].priority] = true;
        // SLO fields ride with the class.
        const PriorityClassSpec &c =
            spec.classes[static_cast<std::size_t>(a[i].priority)];
        EXPECT_EQ(a[i].ttft_slo_s, c.ttft_slo_s);
        EXPECT_EQ(a[i].deadline_s, c.deadline_s);
    }
    EXPECT_TRUE(seen[0] && seen[1] && seen[2])
        << "weights should populate every class";
    // The class stream never perturbs arrivals or lengths: the
    // classed trace matches the classless one field-for-field.
    const auto base = generate_requests(small_spec());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].arrival_s, base[i].arrival_s);
        EXPECT_EQ(a[i].prompt_len, base[i].prompt_len);
        EXPECT_EQ(a[i].output_len, base[i].output_len);
    }
    // And it is seed-scoped: a different seed draws different classes.
    RequestStreamSpec other = spec;
    other.seed += 1;
    const auto c = generate_requests(other);
    bool differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        differs = differs || c[i].priority != a[i].priority;
    }
    EXPECT_TRUE(differs);
    // Validation: non-positive weights and negative SLOs are rejected.
    RequestStreamSpec bad = spec;
    bad.classes[0].weight = 0.0;
    EXPECT_THROW(generate_requests(bad), std::invalid_argument);
    bad = spec;
    bad.classes[1].ttft_slo_s = -1.0;
    EXPECT_THROW(generate_requests(bad), std::invalid_argument);
}

TEST_F(ServingSimTest, NeutralRobustnessKnobsAreNoOps)
{
    // The acceptance bar of the robustness layer: with every knob at
    // its neutral value the step log is bit-identical to the legacy
    // scheduler, even under page pressure with preemptions firing.
    RequestStreamSpec spec = small_spec();
    spec.arrival_rate = 0.0;
    const ServingReport base = run(paged_opts(), spec);
    ASSERT_GE(base.preemptions, 1u);
    EXPECT_EQ(base.completed, base.requests.size());
    EXPECT_EQ(base.dropped + base.shed + base.failed, 0u);
    EXPECT_EQ(base.step_faults + base.swap_faults, 0u);
    EXPECT_EQ(base.swap_bytes, 0u);

    // Uniform priorities degenerate kLowestPriority to the legacy
    // youngest-victim choice.
    ServingOptions lowest = paged_opts();
    lowest.evict = EvictPolicy::kLowestPriority;
    expect_same_run(run(lowest, spec), base);
    // A single SLO-free class leaves the trace and schedule alone.
    RequestStreamSpec one_class = spec;
    one_class.classes = {{0, 1.0, 0.0, 0.0}};
    expect_same_run(run(paged_opts(), one_class), base);
    // Enforcement with no deadlines to enforce is inert.
    ServingOptions neutral = paged_opts();
    neutral.deadline_policy = DeadlinePolicy::kDropUnmeetable;
    expect_same_run(run(neutral, spec), base);
    // A seeded but zero-probability fault campaign is inert.
    neutral = paged_opts();
    neutral.faults.seed = 1234;
    expect_same_run(run(neutral, spec), base);
}

TEST_F(ServingSimTest, PriorityAdmissionJumpsQueue)
{
    // A burst of six class-0 requests and two class-1 requests with a
    // two-slot batch: the high class admits first despite the larger
    // ids, the low class waits.
    std::vector<Request> reqs;
    for (int id = 0; id < 8; ++id) {
        reqs.push_back({id, 0.0, 8, 4, id >= 6 ? 1 : 0, 0.0, 0.0});
    }
    ServingOptions opts;
    opts.max_batch = 2;
    opts.max_step_tokens = 32;
    opts.tuple = {8, 7, 7, 6};
    const ServingReport report =
        simulate_serving(find_model("llama-7b"), find_system("anda"),
                         tech16(), reqs, opts);
    ASSERT_EQ(report.requests.size(), 8u);
    EXPECT_EQ(report.requests[6].admitted_s, 0.0);
    EXPECT_EQ(report.requests[7].admitted_s, 0.0);
    for (int id = 0; id < 6; ++id) {
        EXPECT_GT(report.requests[static_cast<std::size_t>(id)]
                      .admitted_s,
                  0.0)
            << "id=" << id;
    }
    EXPECT_EQ(report.completed, 8u);
}

TEST_F(ServingSimTest, EvictionPolicyPicksTheRightVictim)
{
    // Three staggered arrivals admit in id order (so admission age
    // and priority disagree about the victim), sized to force exactly
    // one preemption: at the first joint decode step two new pages are
    // needed with one free.
    const std::vector<Request> reqs = {
        {0, 0.0, 4, 4, 0, 0.0, 0.5},
        {1, 1e-9, 4, 4, 2, 0.0, 1000.0},
        {2, 2e-9, 4, 4, 1, 0.0, 0.2},
    };
    ServingOptions opts;
    opts.max_batch = 3;
    opts.max_step_tokens = 16;
    opts.tuple = {8, 7, 7, 6};
    opts.page_size = 4;
    opts.page_budget = 5;
    const struct {
        EvictPolicy evict;
        int victim;
    } cases[] = {
        {EvictPolicy::kYoungest, 2},        // latest admitted
        {EvictPolicy::kLowestPriority, 0},  // priority 0
    };
    for (const auto &c : cases) {
        ServingOptions o = opts;
        o.evict = c.evict;
        const ServingReport report =
            simulate_serving(find_model("llama-7b"),
                             find_system("anda"), tech16(), reqs, o);
        ASSERT_GE(report.preemptions, 1u)
            << "policy " << static_cast<int>(c.evict);
        for (int id = 0; id < 3; ++id) {
            const auto &m =
                report.requests[static_cast<std::size_t>(id)];
            if (id == c.victim) {
                EXPECT_GE(m.preempt_count, 1u)
                    << "policy " << static_cast<int>(c.evict);
            } else {
                EXPECT_EQ(m.preempt_count, 0u)
                    << "policy " << static_cast<int>(c.evict)
                    << " id " << id;
            }
        }
        EXPECT_EQ(report.completed, 3u);
    }
}

TEST_F(ServingSimTest, DeadlineDropsConserveAccounting)
{
    // Class 0 carries a deadline no request can meet (tighter than
    // one decode step); class 1 carries none. kDropUnmeetable turns
    // the whole low class away at arrival, the rest complete.
    RequestStreamSpec spec = small_spec();
    spec.classes = {{0, 1.0, 0.0, 1e-7}, {1, 1.0, 0.0, 0.0}};
    const auto reqs = generate_requests(spec);
    std::size_t n0 = 0;
    for (const Request &r : reqs) {
        n0 += r.priority == 0 ? 1u : 0u;
    }
    ASSERT_GT(n0, 0u);
    ASSERT_LT(n0, reqs.size());

    ServingOptions opts = paged_opts();
    opts.deadline_policy = DeadlinePolicy::kDropUnmeetable;
    const ServingReport report = run(opts, spec);
    EXPECT_EQ(report.dropped, n0);
    EXPECT_EQ(report.completed, reqs.size() - n0);
    EXPECT_EQ(report.shed, 0u);
    EXPECT_EQ(report.failed, 0u);
    EXPECT_EQ(report.completed + report.dropped + report.shed +
                  report.failed,
              report.requests.size());
    std::size_t step_drops = 0;
    std::size_t completed_prompt = 0;
    std::size_t prefill = 0;
    for (const auto &s : report.steps) {
        step_drops += s.drops;
        prefill += s.prefill_tokens;
    }
    EXPECT_EQ(step_drops, n0);
    for (const auto &m : report.requests) {
        if (m.completed()) {
            completed_prompt +=
                static_cast<std::size_t>(m.prompt_len);
        } else {
            EXPECT_EQ(m.outcome, RequestOutcome::kDroppedDeadline);
            EXPECT_GE(m.finish_s, m.arrival_s);
            EXPECT_EQ(m.first_token_s, 0.0);
        }
    }
    // Dropped requests never prefill a row.
    EXPECT_EQ(prefill, completed_prompt + report.recomputed_tokens);

    const auto classes = report.by_class();
    ASSERT_EQ(classes.size(), 2u);
    EXPECT_EQ(classes[0].priority, 0);
    EXPECT_EQ(classes[0].dropped, n0);
    EXPECT_EQ(classes[0].completed, 0u);
    EXPECT_EQ(classes[0].deadline_attainment(), 0.0);
    EXPECT_EQ(classes[1].priority, 1);
    EXPECT_EQ(classes[1].completed, reqs.size() - n0);
    EXPECT_EQ(classes[1].deadline_attainment(), 1.0);  // vacuous
    EXPECT_NE(report.summary().find("drop"), std::string::npos);
}

TEST_F(ServingSimTest, LoadSheddingDropsLowestClassFirst)
{
    // Burst overload with a batch one slot larger than the high
    // class: every high request admits immediately, the overflowing
    // low class sheds once it queues past the timeout — and only the
    // low class sheds.
    RequestStreamSpec spec = small_spec();
    spec.arrival_rate = 0.0;
    spec.classes = {{0, 3.0, 0.0, 0.0}, {1, 1.0, 0.0, 0.0}};
    const auto reqs = generate_requests(spec);
    std::size_t n1 = 0;
    for (const Request &r : reqs) {
        n1 += r.priority == 1 ? 1u : 0u;
    }
    ASSERT_GT(n1, 0u);

    ServingOptions opts;
    opts.max_batch = n1 + 1;
    opts.max_step_tokens = 64;
    opts.tuple = {8, 7, 7, 6};
    opts.shed_timeout_s = 1e-9;
    const ServingReport report = run(opts, spec);
    EXPECT_EQ(report.shed, reqs.size() - n1 - 1);
    EXPECT_EQ(report.completed, n1 + 1);
    for (const auto &m : report.requests) {
        if (m.outcome == RequestOutcome::kShed) {
            EXPECT_EQ(m.priority, 0);
            EXPECT_EQ(m.admitted_s, 0.0);  // never admitted
            EXPECT_GT(m.finish_s, 0.0);    // left at shed time
        }
    }
    const auto classes = report.by_class();
    ASSERT_EQ(classes.size(), 2u);
    EXPECT_EQ(classes[0].shed, report.shed);
    EXPECT_EQ(classes[1].shed, 0u);
    EXPECT_EQ(classes[1].completed, n1);
    EXPECT_NE(report.summary().find("shed"), std::string::npos);
}

TEST(FaultInjection, ScheduleIsSeedDeterministicAndValidated)
{
    FaultSpec spec;
    spec.seed = 77;
    spec.step_fail_prob = 0.5;
    spec.swap_fail_prob = 0.25;
    const FaultInjector a(spec);
    const FaultInjector b(spec);
    FaultSpec other = spec;
    other.seed = 78;
    const FaultInjector c(other);
    bool differs = false;
    std::size_t fails = 0;
    for (std::uint64_t site = 0; site < 256; ++site) {
        for (std::size_t attempt = 0; attempt < 4; ++attempt) {
            const bool fa = a.step_attempt_fails(site, attempt);
            EXPECT_EQ(fa, b.step_attempt_fails(site, attempt));
            EXPECT_EQ(a.swap_in_fails(static_cast<int>(site), attempt),
                      b.swap_in_fails(static_cast<int>(site), attempt));
            differs =
                differs || fa != c.step_attempt_fails(site, attempt);
            fails += fa ? 1u : 0u;
        }
    }
    EXPECT_TRUE(differs) << "fault schedule must be seed-scoped";
    // ~half the attempts fail at p = 0.5.
    EXPECT_GT(fails, 256u);
    EXPECT_LT(fails, 768u);
    // Backoff grows exponentially and saturates at the cap.
    EXPECT_EQ(a.backoff_steps(0), spec.backoff_base_steps);
    EXPECT_GE(a.backoff_steps(3), a.backoff_steps(1));
    EXPECT_EQ(a.backoff_steps(63), spec.backoff_cap_steps);
    FaultSpec bad = spec;
    bad.step_fail_prob = 1.5;
    EXPECT_THROW(FaultInjector{bad}, std::invalid_argument);
    bad = spec;
    bad.swap_fail_prob = -0.1;
    EXPECT_THROW(FaultInjector{bad}, std::invalid_argument);
}

TEST_F(ServingSimTest, FaultScheduleReplaysAndBudgetFailsTerminally)
{
    RequestStreamSpec spec = small_spec();
    spec.arrival_rate = 0.0;
    const ServingReport clean = run(paged_opts(), spec);

    // Transient faults with a roomy budget: every request survives,
    // the schedule replays bit-for-bit, and the faults cost time.
    ServingOptions opts = paged_opts();
    opts.faults.seed = 7;
    opts.faults.step_fail_prob = 0.4;
    opts.faults.retry_budget = 1000;
    const ServingReport a = run(opts, spec);
    const ServingReport b = run(opts, spec);
    expect_same_run(a, b);
    EXPECT_GT(a.step_faults, 0u);
    EXPECT_GT(a.wasted_cycles, 0u);
    EXPECT_EQ(a.failed, 0u);
    EXPECT_EQ(a.completed, a.requests.size());
    EXPECT_GT(a.makespan_s, clean.makespan_s);
    // Among others: step fault_retries sum to step_faults.
    EXPECT_EQ(audit(a, opts, spec), Violations{});
    EXPECT_NE(a.summary().find("fault"), std::string::npos);

    // A certain-failure campaign exhausts every retry budget: each
    // request fails terminally after budget + 1 attempts and the
    // simulation still terminates.
    ServingOptions doom = paged_opts();
    doom.faults.seed = 7;
    doom.faults.step_fail_prob = 1.0;
    doom.faults.retry_budget = 2;
    const ServingReport d = run(doom, spec);
    EXPECT_EQ(d.failed, d.requests.size());
    EXPECT_EQ(d.completed, 0u);
    for (const auto &m : d.requests) {
        EXPECT_EQ(m.outcome, RequestOutcome::kFailed);
        EXPECT_EQ(m.fault_retries, doom.faults.retry_budget + 1);
        EXPECT_GT(m.finish_s, 0.0);
    }
}

TEST_F(ServingSimTest, SwapTrafficPricingStretchesMakespan)
{
    RequestStreamSpec spec = small_spec();
    spec.arrival_rate = 0.0;
    ServingOptions free_link = paged_opts();
    free_link.preempt = PreemptPolicy::kSwap;
    const ServingReport a = run(free_link, spec);
    ASSERT_GE(a.preemptions, 1u);
    EXPECT_EQ(a.swap_bytes, 0u);
    EXPECT_EQ(a.swap_stall_s, 0.0);

    ServingOptions priced_link = free_link;
    priced_link.swap_gbps = 10.0;
    const ServingReport b = run(priced_link, spec);
    // The burst schedule is time-shift invariant: identical token
    // plan, only the timeline stretches by the host-link stalls.
    EXPECT_EQ(b.total_cycles, a.total_cycles);
    EXPECT_EQ(b.preemptions, a.preemptions);
    EXPECT_GT(b.swap_bytes, 0u);
    EXPECT_GT(b.swap_stall_s, 0.0);
    EXPECT_GT(b.makespan_s, a.makespan_s);
    // Stall accounting is conserved onto the step log, and a free
    // link stalls nothing.
    EXPECT_EQ(audit(a, free_link, spec), Violations{});
    EXPECT_EQ(audit(b, priced_link, spec), Violations{});
    // Row pricing: bytes are whole K+V rows of the real model dims.
    const auto &dims = find_model("llama-7b").real;
    const std::uint64_t row =
        8ull * static_cast<std::uint64_t>(dims.n_layers) *
        static_cast<std::uint64_t>(dims.d_model);
    EXPECT_EQ(b.swap_bytes % row, 0u);
    EXPECT_NE(b.summary().find("swapped"), std::string::npos);
}

// ---------------------------------------------------------------------
// Attention & KV-traffic pricing (ServingOptions::attn_pricing).

TEST_F(ServingSimTest, AttnPricingOffReproducesGemmOnlyCostsBitExactly)
{
    // The acceptance bar of the attention bugfix: with the knob at
    // its default every step cost replays as the legacy GeMM-only
    // aggregate workload bit-for-bit, and no attention accounting
    // leaks into the report or summary.
    ServingOptions opts;
    opts.max_batch = 4;
    opts.max_step_tokens = 64;
    opts.tuple = {8, 7, 7, 6};
    const ServingReport base = run(opts, small_spec());
    // The audit replays each step against the GeMM-only workload and
    // requires zero attention cycles and KV bytes with pricing off.
    EXPECT_EQ(audit(base, opts, small_spec()), Violations{});
    EXPECT_EQ(base.summary().find("attn"), std::string::npos);
    // An explicit false is exactly the default.
    ServingOptions off = opts;
    off.attn_pricing = false;
    expect_same_run(run(off, small_spec()), base);
}

TEST_F(ServingSimTest, AttnPricingAddsContextCostOnTopOfGemmTaps)
{
    // Burst traffic (scheduling is then time-independent): attention
    // pricing must keep the token plan identical and only add cost —
    // every step exactly its GeMM cycles plus its attention cycles.
    RequestStreamSpec spec = small_spec();
    spec.arrival_rate = 0.0;
    ServingOptions off;
    off.max_batch = 4;
    off.max_step_tokens = 64;
    off.tuple = {8, 7, 7, 6};
    ServingOptions on = off;
    on.attn_pricing = true;
    const ServingReport a = run(off, spec);
    const ServingReport b = run(on, spec);
    ASSERT_EQ(a.steps.size(), b.steps.size());
    for (std::size_t i = 0; i < a.steps.size(); ++i) {
        EXPECT_EQ(b.steps[i].prefill_tokens, a.steps[i].prefill_tokens)
            << "step " << i;
        EXPECT_EQ(b.steps[i].decode_tokens, a.steps[i].decode_tokens)
            << "step " << i;
        EXPECT_EQ(b.steps[i].cycles,
                  a.steps[i].cycles + b.steps[i].attn_cycles)
            << "step " << i;
        // Every scheduled row attends >= 1 K/V row.
        EXPECT_GT(b.steps[i].attn_cycles, 0u) << "step " << i;
        EXPECT_GT(b.steps[i].kv_bytes, 0u) << "step " << i;
    }
    // The audit sums the step attention onto the report totals.
    EXPECT_EQ(audit(b, on, spec), Violations{});
    EXPECT_EQ(b.total_cycles, a.total_cycles + b.attn_cycles);
    EXPECT_GT(b.makespan_s, a.makespan_s);
    EXPECT_NE(b.summary().find("attn"), std::string::npos);
}

TEST_F(ServingSimTest, SeededKnobSpacePricingParity)
{
    // simulate_serving prices each fused tap shape once per call and
    // attention per step. Over seeded draws of the scheduling knobs —
    // tight byte budgets (preemption, swaps), step faults (retries
    // reprice), drop deadlines (the min-step bound), both eviction
    // victims, load shedding and a shared prefix — every report must
    // pass the audit, whose replay holds each logged step's tap share
    // to a fresh, unshared reprice of its shape. The two systems
    // alternate, so a memo leaking across calls would misprice the
    // next draw. The victim, shedding and prefix knobs come from a
    // second stream, so the first stream's draws stay as they were.
    const auto &model = find_model("llama-7b");
    const auto d_model = static_cast<std::size_t>(model.real.d_model);
    const auto n_layers = static_cast<std::size_t>(model.real.n_layers);
    const std::vector<KvFormat> formats = {
        KvFormat::fp32(), KvFormat::anda(4), KvFormat::anda(7)};
    const std::vector<PrecisionTuple> tuples = {
        {8, 7, 7, 6}, {16, 16, 16, 16}, {5, 4, 6, 4}};
    const std::vector<std::size_t> page_sizes = {8, 16, 32};
    SplitMix64 rng(2026);
    SplitMix64 knobs(2027);
    std::size_t preempted = 0;
    std::size_t faulted = 0;
    std::size_t attn_on = 0;
    std::size_t shed = 0;
    std::size_t reused = 0;
    for (int draw = 0; draw < 20; ++draw) {
        const std::string system = draw % 2 == 0 ? "anda" : "fp-fp";
        ServingOptions opts;
        opts.max_batch = 1 + rng.uniform_index(8);
        opts.max_step_tokens = 8 + rng.uniform_index(96);
        opts.tuple = tuples[rng.uniform_index(tuples.size())];
        opts.kv_format = formats[rng.uniform_index(formats.size())];
        opts.attn_pricing = rng.uniform_index(2) == 1;
        opts.page_size = page_sizes[rng.uniform_index(page_sizes.size())];
        opts.preempt = rng.uniform_index(2) == 1 ? PreemptPolicy::kSwap
                                                 : PreemptPolicy::kRecompute;
        if (rng.uniform_index(2) == 1) {
            opts.faults.seed = static_cast<std::uint64_t>(draw);
            opts.faults.step_fail_prob = 0.3;
            opts.faults.swap_fail_prob = 0.3;
        }
        RequestStreamSpec spec =
            rng.uniform_index(2) == 1 ? classed_spec() : small_spec();
        spec.seed = 4242 + static_cast<std::uint64_t>(draw);
        if (rng.uniform_index(2) == 1) {
            spec.arrival_rate = 0.0;
        }
        opts.deadline_policy = rng.uniform_index(2) == 1
                                   ? DeadlinePolicy::kDropUnmeetable
                                   : DeadlinePolicy::kNone;
        opts.evict = knobs.uniform_index(2) == 1
                         ? EvictPolicy::kLowestPriority
                         : EvictPolicy::kYoungest;
        // On these tight budgets, 8 s of queueing sheds part of the
        // lowest waiting class.
        opts.shed_timeout_s = knobs.uniform_index(2) == 1 ? 8.0 : 0.0;
        opts.shared_prefix_len = knobs.uniform_index(2) == 1 ? 16 : 0;
        const auto requests = generate_requests(spec);
        // Tight byte budget: one worst-case request plus its
        // copy-on-extend page and the shared-prefix anchor's pages,
        // plus up to as many pages again.
        std::size_t max_rows = 0;
        std::size_t max_prompt = 0;
        for (const Request &r : requests) {
            max_rows = std::max(
                max_rows, static_cast<std::size_t>(r.prompt_len +
                                                   r.output_len - 1));
            max_prompt = std::max(
                max_prompt, static_cast<std::size_t>(r.prompt_len));
        }
        const std::size_t ps = opts.page_size;
        const std::size_t need = (max_rows + ps - 1) / ps + 1;
        const std::size_t anchor =
            (std::min(max_prompt, static_cast<std::size_t>(
                                      opts.shared_prefix_len)) +
             ps - 1) /
            ps;
        const std::size_t token_bytes =
            2 * n_layers * kv_row_bytes(opts.kv_format, d_model);
        opts.kv_byte_budget =
            (need + anchor + rng.uniform_index(need)) * ps * token_bytes;

        const ServingReport report = simulate_serving(
            model, find_system(system), tech16(), requests, opts);
        ASSERT_FALSE(report.steps.empty()) << "draw " << draw;
        EXPECT_EQ(serve_test::audit(report, requests, opts, model,
                                    find_system(system)),
                  Violations{})
            << "draw " << draw;
        preempted += report.preemptions > 0 ? 1 : 0;
        faulted += report.step_faults > 0 ? 1 : 0;
        attn_on += opts.attn_pricing ? 1 : 0;
        shed += report.shed > 0 ? 1 : 0;
        reused += report.reused_prefix_tokens > 0 ? 1 : 0;
    }
    // The draws must reach the paths they are meant to cover.
    EXPECT_GT(preempted, 0u);
    EXPECT_GT(faulted, 0u);
    EXPECT_GT(attn_on, 0u);
    EXPECT_LT(attn_on, 20u);
    EXPECT_GT(shed, 0u);
    EXPECT_GT(reused, 0u);
}

TEST_F(ServingSimTest, KvTrafficMatchesHandComputedTrace)
{
    // Two burst requests, generous budgets: the schedule is exactly
    // one joint prefill step then three decode steps, so every
    // attended K/V row count is hand-computable.
    const std::vector<Request> reqs = {
        {0, 0.0, 6, 3, 0, 0.0, 0.0},
        {1, 0.0, 9, 4, 0, 0.0, 0.0},
    };
    ServingOptions opts;
    opts.max_batch = 2;
    opts.max_step_tokens = 32;
    opts.tuple = {8, 7, 7, 6};
    opts.attn_pricing = true;
    const ServingReport r =
        simulate_serving(find_model("llama-7b"), find_system("anda"),
                         tech16(), reqs, opts);
    ASSERT_EQ(r.steps.size(), 4u);
    EXPECT_EQ(r.steps[0].prefill_tokens, 15u);
    EXPECT_EQ(r.steps[0].decode_tokens, 0u);
    EXPECT_EQ(r.steps[1].decode_tokens, 2u);
    EXPECT_EQ(r.steps[2].decode_tokens, 2u);
    EXPECT_EQ(r.steps[3].decode_tokens, 1u);
    // Attended rows per step: the prefill triangles 6*7/2 + 9*10/2,
    // then ragged decode rows over contexts (6,9), (7,10), (11).
    const std::uint64_t kv_rows[4] = {21 + 45, 7 + 10, 8 + 11, 12};
    // One attended row streams K and V at FP32 in every layer:
    // 2 x 4 B x d_model x n_layers — the same row the swap pricing
    // moves.
    const auto &d = find_model("llama-7b").real;
    const std::uint64_t row_bytes =
        8ull * static_cast<std::uint64_t>(d.n_layers) *
        static_cast<std::uint64_t>(d.d_model);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        EXPECT_EQ(r.steps[i].kv_bytes, kv_rows[i] * row_bytes)
            << "step " << i;
        total += r.steps[i].kv_bytes;
    }
    EXPECT_EQ(r.kv_dram_bytes, total);
    EXPECT_EQ(r.kv_dram_bytes, (21u + 45 + 7 + 10 + 8 + 11 + 12) *
                                   row_bytes);
}

TEST_F(ServingExecutionTest, AttnPricingKeepsExecutionParityAndTokens)
{
    // Priced and executed runs must stay bit-identical with attention
    // pricing on — including the new attention fields — and pricing
    // attention must not move one emitted token.
    ServingOptions on = exec_opts();
    on.attn_pricing = true;
    const ServingReport executed = run(on);
    EXPECT_GT(executed.attn_cycles, 0u);
    EXPECT_GT(executed.kv_dram_bytes, 0u);
    ServingOptions priced = on;
    priced.executor = nullptr;
    const ServingReport twin =
        serve_test::run_executed(priced, exec_spec());
    // Step-log parity over every field; the summaries differ only by
    // the executed-checksum segment, so compare them with it stripped.
    std::string a_sum = executed.summary();
    a_sum.resize(a_sum.find("; executed checksum"));
    std::string b_sum = twin.summary();
    b_sum.resize(b_sum.find('\n'));
    EXPECT_EQ(a_sum, b_sum);
    EXPECT_TRUE(executed.steps == twin.steps);
    EXPECT_EQ(executed.makespan_s, twin.makespan_s);
    EXPECT_EQ(executed.total_cycles, twin.total_cycles);
    EXPECT_EQ(executed.attn_cycles, twin.attn_cycles);
    EXPECT_EQ(executed.kv_dram_bytes, twin.kv_dram_bytes);
    const ServingReport off = run(exec_opts());
    ASSERT_EQ(executed.requests.size(), off.requests.size());
    for (std::size_t i = 0; i < off.requests.size(); ++i) {
        EXPECT_EQ(executed.requests[i].tokens, off.requests[i].tokens)
            << "id=" << off.requests[i].id;
    }
}

TEST_F(ServingSimTest, SwapChargesBothDirections)
{
    RequestStreamSpec spec = small_spec();
    spec.arrival_rate = 0.0;
    ServingOptions opts = paged_opts();
    opts.preempt = PreemptPolicy::kSwap;
    opts.swap_gbps = 10.0;
    const ServingReport r = run(opts, spec);
    ASSERT_GE(r.preemptions, 1u);
    EXPECT_GT(r.swap_out_bytes, 0u);
    EXPECT_GT(r.swap_in_bytes, 0u);
    EXPECT_EQ(r.swap_bytes, r.swap_out_bytes + r.swap_in_bytes);
    // Fault-free burst: every swapped-out residency swaps back in at
    // the same row count, so the directions balance exactly.
    EXPECT_EQ(r.swap_out_bytes, r.swap_in_bytes);
    EXPECT_NE(r.summary().find(" out + "), std::string::npos);
    // Non-finite bandwidths are rejected up front.
    ServingOptions bad = opts;
    bad.swap_gbps = std::numeric_limits<double>::infinity();
    EXPECT_THROW(run(bad, spec), std::invalid_argument);
    bad.swap_gbps = std::numeric_limits<double>::quiet_NaN();
    EXPECT_THROW(run(bad, spec), std::invalid_argument);
}

TEST_F(ServingSimTest, PeakCacheTokensSeesBetweenStepSwapInTransient)
{
    // Regression: peak_cache_tokens used to be sampled only at step
    // emission, so residency materialized between steps (swap-in
    // restores, prefix adoptions) that a same-step completion released
    // again was never recorded. Under swap thrash the true high-water
    // mark exceeds every step-end occupancy; the budget bound must
    // still hold for it.
    RequestStreamSpec spec = small_spec();
    spec.arrival_rate = 0.0;
    ServingOptions opts = paged_opts(14);
    opts.preempt = PreemptPolicy::kSwap;
    const ServingReport r = run(opts, spec);
    ASSERT_GE(r.preemptions, 1u);
    std::size_t max_step = 0;
    for (const auto &s : r.steps) {
        max_step = std::max(max_step, s.cache_tokens);
    }
    EXPECT_GE(r.peak_cache_tokens, max_step);
    // This configuration exhibits the transient: restored rows peak
    // between steps. The old sampling reported max_step exactly.
    EXPECT_GT(r.peak_cache_tokens, max_step);
    EXPECT_LE(r.peak_cache_tokens, opts.page_budget * opts.page_size);
}

TEST_F(ServingExecutionTest, SurvivableFaultsKeepTokensIdentical)
{
    // Step faults retry and every swap-in fails over to recompute,
    // yet with a large retry budget no request fails — and not one
    // emitted token moves.
    const ServingReport clean =
        run(paged_exec_opts(12, PreemptPolicy::kSwap));
    ServingOptions opts = paged_exec_opts(12, PreemptPolicy::kSwap);
    opts.faults.seed = 3;
    opts.faults.step_fail_prob = 0.2;
    opts.faults.swap_fail_prob = 1.0;
    opts.faults.retry_budget = 1000000;
    const ServingReport faulty = run(opts);
    ASSERT_GE(faulty.preemptions, 1u);
    EXPECT_GT(faulty.step_faults, 0u);
    EXPECT_GT(faulty.swap_faults, 0u);
    EXPECT_GT(faulty.recomputed_tokens, 0u);  // fallback recomputes
    EXPECT_EQ(faulty.failed, 0u);
    EXPECT_EQ(faulty.completed, faulty.requests.size());
    ASSERT_EQ(faulty.requests.size(), clean.requests.size());
    for (std::size_t i = 0; i < clean.requests.size(); ++i) {
        EXPECT_EQ(faulty.requests[i].tokens, clean.requests[i].tokens)
            << "id=" << clean.requests[i].id;
    }
    // The priced twin sees the identical fault schedule: faults are
    // functions of the seed and the step sites, never of execution.
    ServingOptions priced = opts;
    priced.executor = nullptr;
    const ServingReport twin =
        serve_test::run_executed(priced, exec_spec());
    EXPECT_EQ(twin.step_faults, faulty.step_faults);
    EXPECT_EQ(twin.swap_faults, faulty.swap_faults);
    EXPECT_EQ(twin.preemptions, faulty.preemptions);
    EXPECT_EQ(twin.makespan_s, faulty.makespan_s);
    EXPECT_EQ(twin.total_cycles, faulty.total_cycles);
}

}  // namespace
}  // namespace anda
