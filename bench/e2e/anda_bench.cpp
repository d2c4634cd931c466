// End-to-end benchmark program. Runs one workload through public
// library calls only and prints one JSON object as its last line:
//
//   anda_bench --workload <name> --seed <n> --seconds <s> [--trace <file>]
//
// The end-to-end metrics are always measured with tracing off. With
// --trace a separate traced pass follows: it records spans around the
// calls it makes into each library layer, writes them to <file> as
// Chrome trace-event JSON, and adds the per-layer metrics and a span
// summary to the output. Output checks run after timing on every
// invocation. bench/e2e/run.py builds and drives this program;
// README.md in this directory describes the workloads and metrics.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "format/kv_format.h"
#include "hw/tech.h"
#include "hw/workload.h"
#include "kernels/gemm.h"
#include "llm/corpus.h"
#include "quant/weight_quant.h"
#include "search/sweep.h"
#include "serve/serving_sim.h"

namespace {

using namespace anda;
using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile (0 for an empty sample).
double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty()) {
        return 0.0;
    }
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// Metrics and output

struct Metric {
    std::string name;
    std::string unit;
    double value = 0.0;
    /// Quartiles and sample count of a sampled metric (n = 1 otherwise).
    double q1 = 0.0;
    double q3 = 0.0;
    std::size_t n = 1;
    /// Fixed by the workload and seed: a rerun of the same seed reads
    /// the same value to the last digit.
    bool exact = false;
};

class Metrics {
  public:
    void set(const std::string &name, double value,
             const std::string &unit)
    {
        all_.push_back({name, unit, value, value, value, 1});
    }
    void exact(const std::string &name, double value,
               const std::string &unit)
    {
        all_.push_back({name, unit, value, value, value, 1, true});
    }
    /// Reports the median of `xs` with its quartiles.
    void sample(const std::string &name, const std::vector<double> &xs,
                const std::string &unit)
    {
        all_.push_back({name, unit, quantile(xs, 0.5), quantile(xs, 0.25),
                        quantile(xs, 0.75), xs.size()});
    }
    const std::vector<Metric> &all() const { return all_; }

  private:
    std::vector<Metric> all_;
};

std::string
json_str(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    return out + "\"";
}

std::string
json_num(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metrics_json(const Metrics &metrics)
{
    std::string out = "{";
    for (const Metric &m : metrics.all()) {
        out += (out.size() > 1 ? "," : "") + json_str(m.name) +
               ":{\"value\":" + json_num(m.value) +
               ",\"unit\":" + json_str(m.unit) + ",\"q1\":" +
               json_num(m.q1) + ",\"q3\":" + json_num(m.q3) +
               ",\"n\":" + std::to_string(m.n) +
               (m.exact ? ",\"exact\":true}" : "}");
    }
    return out + "}";
}

/// High-water resident set of this process [MiB], from VmHWM.
/// getrusage's ru_maxrss also keeps the parent's resident set at fork,
/// so under run.py it would read Python's footprint instead.
double
peak_rss_mib()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::stod(line.substr(6)) / 1024.0;  // kB
        }
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Threads of every timed iteration and kernel probe. On a shared
/// 4-vCPU VM a 4-thread iteration swings up to 2x with the load of
/// other tenants, and runs slower than one thread while they are busy;
/// one thread measures the code rather than the neighbours.
constexpr std::size_t kTimedThreads = 1;

/// Threads of the traced pass's scaling probe (common.scaling_x.*):
/// min(4, nproc).
std::size_t
scaling_threads()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return std::min<std::size_t>(4, hw > 0 ? hw : 1);
}

// Tracing: spans kept in memory, written as Chrome trace-event JSON

class Tracer {
  public:
    static constexpr int kInherit = -2;

    struct Span {
        std::string name;
        double start_us = 0.0;
        double end_us = 0.0;
        int parent = -1;
        long id = -1;  ///< Request or batch id (-1 = none).
        std::size_t tid = 0;
    };

    /// Times one call; records a span when the tracer is non-null.
    /// The parent is the innermost open scope of the calling thread
    /// unless given explicitly (work handed to pool workers).
    class Scope {
      public:
        Scope(Tracer *tracer, std::string name, long id = -1,
              int parent = kInherit)
            : tracer_(tracer), start_(Clock::now())
        {
            if (tracer_ != nullptr) {
                index_ =
                    tracer_->open(std::move(name), id, parent, start_);
            }
        }
        ~Scope() { stop(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        int index() const { return index_; }

        /// Closes the span (idempotent); returns its duration [s].
        double stop()
        {
            if (!stopped_) {
                stopped_ = true;
                seconds_ = since(start_);
                if (tracer_ != nullptr) {
                    tracer_->close(index_, Clock::now());
                }
            }
            return seconds_;
        }

      private:
        Tracer *tracer_;
        Clock::time_point start_;
        int index_ = -1;
        bool stopped_ = false;
        double seconds_ = 0.0;
    };

    /// Per-name aggregate: count, total and self time [ms], and the
    /// median / p99 where at least ten samples lie beyond them (0
    /// otherwise).
    std::string summary_json() const;
    void write_chrome(const std::string &path) const;

    /// Durations [ms] of every span called `name`.
    std::vector<double> durations_ms(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<double> out;
        for (const Span &s : spans_) {
            if (s.name == name) {
                out.push_back((s.end_us - s.start_us) / 1e3);
            }
        }
        return out;
    }

  private:
    static std::vector<int> &open_stack()
    {
        thread_local std::vector<int> stack;
        return stack;
    }

    int open(std::string name, long id, int parent, Clock::time_point t)
    {
        std::vector<int> &stack = open_stack();
        if (parent == kInherit) {
            parent = stack.empty() ? -1 : stack.back();
        }
        std::lock_guard<std::mutex> lock(mutex_);
        const int index = static_cast<int>(spans_.size());
        spans_.push_back({std::move(name), us(t), us(t), parent, id,
                          std::hash<std::thread::id>{}(
                              std::this_thread::get_id())});
        stack.push_back(index);
        return index;
    }

    void close(int index, Clock::time_point t)
    {
        std::vector<int> &stack = open_stack();
        if (!stack.empty() && stack.back() == index) {
            stack.pop_back();
        }
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(index)].end_us = us(t);
    }

    double us(Clock::time_point t) const
    {
        return std::chrono::duration<double, std::micro>(t - epoch_)
            .count();
    }

    const Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

std::string
Tracer::summary_json() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Self time: a span's duration minus the union of its children.
    using Interval = std::pair<double, double>;
    std::vector<std::vector<Interval>> kids(spans_.size());
    for (const Span &s : spans_) {
        if (s.parent >= 0) {
            kids[static_cast<std::size_t>(s.parent)].emplace_back(
                s.start_us, s.end_us);
        }
    }
    struct Agg {
        std::vector<double> ms;
        double self_ms = 0.0;
    };
    std::vector<std::pair<std::string, Agg>> names;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double lo = s.start_us;
        for (const auto &[a, b] : iv) {
            const double from = std::max(a, lo);
            const double to = std::min(b, s.end_us);
            if (to > from) {
                covered += to - from;
                lo = to;
            }
        }
        auto it = std::find_if(
            names.begin(), names.end(),
            [&](const auto &p) { return p.first == s.name; });
        if (it == names.end()) {
            names.emplace_back(s.name, Agg{});
            it = names.end() - 1;
        }
        it->second.ms.push_back((s.end_us - s.start_us) / 1e3);
        it->second.self_ms += (s.end_us - s.start_us - covered) / 1e3;
    }
    std::string out = "{";
    for (const auto &[name, agg] : names) {
        double total = 0.0;
        for (const double v : agg.ms) {
            total += v;
        }
        const std::size_t n = agg.ms.size();
        out += (out.size() > 1 ? "," : "") + json_str(name) +
               ":{\"count\":" + std::to_string(n) +
               ",\"total_ms\":" + json_num(total) +
               ",\"self_ms\":" + json_num(agg.self_ms) +
               ",\"p50_ms\":" +
               json_num(n >= 20 ? quantile(agg.ms, 0.5) : 0) +
               ",\"p99_ms\":" +
               json_num(n >= 1000 ? quantile(agg.ms, 0.99) : 0) + "}";
    }
    return out + "}";
}

void
Tracer::write_chrome(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ofstream out(path);
    out << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        out << (i > 0 ? ",\n" : "\n") << "{\"name\":" << json_str(s.name)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << (s.tid % 100000)
            << ",\"ts\":" << json_num(s.start_us)
            << ",\"dur\":" << json_num(s.end_us - s.start_us)
            << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
            << ",\"id\":" << s.id << "}}";
    }
    out << "\n]}\n";
    if (!out) {
        throw std::runtime_error("cannot write trace file " + path);
    }
}

/// Times `fn` repeatedly for at least `min_s` seconds; returns the
/// mean seconds per call.
template <class F>
double
seconds_per_call(F &&fn, double min_s = 0.05)
{
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
        fn();
        ++calls;
        elapsed = since(t0);
    } while (elapsed < min_s);
    return elapsed / static_cast<double>(calls);
}

Matrix
random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Matrix m(rows, cols);
    SplitMix64 rng(seed);
    for (float &x : m.flat()) {
        x = static_cast<float>(rng.normal());
    }
    return m;
}

/// Kernel throughput at one FP-INT tap shape of `dims`: the up
/// projection, activations [m x d_model] against W [d_ffn x d_model].
void
kernel_metrics(Metrics &out, const std::string &tag, const ModelDims &dims,
               std::size_t m, bool with_anda)
{
    const auto k = static_cast<std::size_t>(dims.d_model);
    const auto n = static_cast<std::size_t>(dims.d_ffn);
    const Matrix a = random_matrix(m, k, 1);
    const Matrix w = random_matrix(n, k, 2);
    const double gflop = 2.0 * static_cast<double>(m * k * n) / 1e9;
    const double t_mm =
        seconds_per_call([&] { (void)matmul_wt(a, w, kTimedThreads); });
    out.set("kernels.matmul_wt_gflops." + tag, gflop / t_mm, "GFLOP/s");
    if (with_anda) {
        const QuantizedWeight qw =
            QuantizedWeight::quantize(w, WeightQuantParams{});
        AndaGemmOptions opts;
        opts.mantissa_bits = 7;
        opts.threads = kTimedThreads;
        const double t_anda =
            seconds_per_call([&] { (void)gemm_anda(a, qw, opts); });
        out.set("kernels.gemm_anda_gflops." + tag, gflop / t_anda,
                "GFLOP/s");
    }
}

void
act_format_metric(Metrics &out, std::size_t m, const ModelDims &dims)
{
    Matrix a = random_matrix(m, static_cast<std::size_t>(dims.d_model), 3);
    const double t = seconds_per_call(
        [&] { apply_act_format(a, ActFormat::bfp(64, 7), kTimedThreads); });
    out.set("kernels.act_format_ns_per_elem",
            t * 1e9 / static_cast<double>(a.size()), "ns");
}

/// Milliseconds to W4-quantize every FP-INT weight of one model.
double
w4_quantize_ms(const ModelConfig &model)
{
    const auto d = static_cast<std::size_t>(model.sim.d_model);
    const auto f = static_cast<std::size_t>(model.sim.d_ffn);
    std::vector<Matrix> taps;
    for (int layer = 0; layer < model.sim.n_layers; ++layer) {
        for (int i = 0; i < 4; ++i) {
            taps.push_back(random_matrix(d, d, taps.size()));
        }
        taps.push_back(random_matrix(f, d, taps.size()));
        taps.push_back(random_matrix(d, f, taps.size()));
        if (model.is_llama()) {
            taps.push_back(random_matrix(f, d, taps.size()));
        }
    }
    return 1e3 * seconds_per_call([&] {
               for (const Matrix &w : taps) {
                   (void)QuantizedWeight::quantize(w, WeightQuantParams{});
               }
           });
}

// Workloads

/// Failed output checks, reported and turned into a nonzero exit.
struct Checks {
    std::vector<std::string> failures;
    void expect(bool ok, const std::string &what)
    {
        if (!ok) {
            failures.push_back(what);
        }
    }
};

class Workload {
  public:
    virtual ~Workload() = default;
    /// Builds the inputs (models, requests, corpora); timed and
    /// repeated by the caller, the last build is kept.
    virtual void setup() = 0;
    /// Untimed short run that starts the thread pool and fills caches.
    virtual void warm_up() = 0;
    /// One timed iteration; returns the tokens it processed.
    virtual double iterate() = 0;
    /// Requests or evaluations one iteration attempts.
    virtual std::size_t ops_per_iteration() const = 0;
    /// Simulated accelerator tokens per second of the last iteration.
    virtual double sim_tok_s() const = 0;
    /// Output checks after timing; `full` in the traced run.
    virtual void check(Checks &checks, bool full) = 0;
    /// The traced pass: per-layer metrics, given the median wall time
    /// of an untraced iteration.
    virtual void trace_pass(Tracer &tracer, Metrics &out,
                            double untraced_s, Checks &checks) = 0;
};

constexpr PrecisionTuple kTuple{8, 7, 7, 6};

/// Paged KV with priced attention and priced swaps: the cost model every
/// workload runs under.
ServingOptions
paged_options()
{
    ServingOptions o;
    o.tuple = kTuple;
    o.cache_policy = CachePolicy::kPaged;
    o.preempt = PreemptPolicy::kSwap;
    o.swap_gbps = 32.0;
    o.attn_pricing = true;
    return o;
}

struct ServingSpec {
    ModelConfig model;
    RequestStreamSpec stream;
    ServingOptions opts;
    bool executed = false;
    /// Requests the warm-up run schedules (a prefix of the stream).
    int warmup_requests = 0;
};

/// Replaces the stream's uniform lengths with an evenly spaced grid over
/// the same bounds, shuffled by the stream seed. Every seed then does
/// the same prefill and decode work in another order, so the seed moves
/// throughput only through scheduling.
void
stratify_lengths(std::vector<Request> &requests, const RequestStreamSpec &s)
{
    const std::size_t n = requests.size();
    const auto grid = [n](int lo, int hi) {
        std::vector<int> v(n);
        for (std::size_t i = 0; i < n; ++i) {
            const double u = (static_cast<double>(i) + 0.5) /
                             static_cast<double>(n);
            v[i] = lo + static_cast<int>(std::lround(u * (hi - lo)));
        }
        return v;
    };
    std::vector<int> prompt = grid(s.prompt_min, s.prompt_max);
    std::vector<int> output = grid(s.output_min, s.output_max);
    SplitMix64 rng(derive_seed(s.seed, 0x57a7));
    for (std::vector<int> *v : {&prompt, &output}) {
        for (std::size_t i = n; i > 1; --i) {
            std::swap((*v)[i - 1], (*v)[rng.uniform_index(i)]);
        }
    }
    for (std::size_t i = 0; i < n; ++i) {
        requests[i].prompt_len = prompt[i];
        requests[i].output_len = output[i];
    }
}

ServingSpec
chat_short(std::uint64_t seed)
{
    ServingSpec s;
    s.model = find_model("llama-7b");
    s.stream.seed = 1000 + seed;
    s.stream.n_requests = 256;
    // A burst keeps the batch full. Poisson arrivals at 78% load make
    // the batch follow the arrivals, and sim_tok_s then moves 10-13%
    // between seeds, wider than any bound could hold.
    s.stream.arrival_rate = 0.0;
    s.stream.prompt_min = 16;
    s.stream.prompt_max = 64;
    s.stream.output_min = 16;
    s.stream.output_max = 64;
    s.opts = paged_options();
    s.opts.max_batch = 16;
    s.opts.kv_byte_budget = std::size_t{3} << 30;
    s.executed = true;
    s.warmup_requests = 16;
    return s;
}

ServingSpec
rag_longctx(std::uint64_t seed)
{
    ServingSpec s;
    s.model = find_model("llama-7b");
    // Long prompts need a longer position range than the zoo's 128.
    // LLaMA has no position table, so the weights are unchanged.
    s.model.sim.max_seq = 2048;
    s.stream.seed = 2000 + seed;
    s.stream.n_requests = 16;
    s.stream.arrival_rate = 0.0;
    s.stream.prompt_min = 512;
    s.stream.prompt_max = 1024;
    // Outputs of 24-48, not 48-96: decode over the long contexts is
    // most of the host time, and a run must fit two iterations.
    s.stream.output_min = 24;
    s.stream.output_max = 48;
    s.opts = paged_options();
    // Half the burst waits for a slot, so it is admitted after the
    // first request has committed the shared prefix and adopts it.
    s.opts.max_batch = 8;
    s.opts.max_step_tokens = 512;
    s.opts.page_size = 32;
    s.opts.kv_format = KvFormat::anda(7);
    // 126 pages of 32 rows hold about five of the contexts, so eight
    // running requests swap each other out and back in.
    s.opts.kv_byte_budget = std::size_t{1024} << 20;
    s.opts.shared_prefix_len = 384;
    s.executed = true;
    s.warmup_requests = 2;
    return s;
}

ServingSpec
overload_sched(std::uint64_t seed)
{
    ServingSpec s;
    s.model = find_model("llama-7b");
    s.stream.seed = 3000 + seed;
    s.stream.n_requests = 4000;
    s.stream.arrival_rate = 0.3;
    s.stream.prompt_min = 32;
    s.stream.prompt_max = 512;
    s.stream.output_min = 16;
    s.stream.output_max = 128;
    s.stream.classes = {
        {0, 2.0, 0.0, 0.0},    // batch: best effort
        {1, 1.0, 20.0, 90.0},  // standard
        {2, 1.0, 5.0, 45.0},   // interactive
    };
    s.opts = paged_options();
    s.opts.max_batch = 8;
    s.opts.max_step_tokens = 256;
    s.opts.page_size = 32;
    s.opts.kv_format = KvFormat::anda(7);
    s.opts.kv_byte_budget = std::size_t{512} << 20;
    s.opts.evict = EvictPolicy::kLowestPriority;
    s.opts.deadline_policy = DeadlinePolicy::kDropUnmeetable;
    s.opts.shed_timeout_s = 60.0;
    s.opts.faults.seed = seed;
    s.opts.faults.step_fail_prob = 0.01;
    s.opts.faults.swap_fail_prob = 0.05;
    s.opts.faults.retry_budget = 3;
    s.warmup_requests = 200;
    return s;
}

/// Context buckets of the per-token decode metrics: chat_short decodes
/// in the first, rag_longctx in the other two.
constexpr const char *kCtxBuckets[] = {"ctx_lt512", "ctx_512_1k",
                                       "ctx_ge1k"};
constexpr std::size_t kNumCtxBuckets = std::size(kCtxBuckets);

std::size_t
ctx_bucket(double context)
{
    return context < 512 ? 0 : context < 1024 ? 1 : 2;
}

/// What a traced replay measured.
struct ReplayStats {
    double prefill_s = 0.0;
    std::size_t prefill_tokens = 0;
    std::vector<double> step_ms;
    double host_s[kNumCtxBuckets] = {};
    double priced_s[kNumCtxBuckets] = {};
    std::size_t tokens[kNumCtxBuckets] = {};
    std::vector<double> price_s;
    /// The caches of the last replayed batch (format probes).
    std::vector<KvCache> last_caches;
};

class ServingWorkload final : public Workload {
  public:
    explicit ServingWorkload(ServingSpec spec) : spec_(std::move(spec))
    {
        spec_.opts.exec_run.prec = PrecisionConfig::anda(kTuple);
        spec_.opts.exec_run.threads = kTimedThreads;
        spec_.opts.exec_seed = spec_.stream.seed;
    }

    void setup() override
    {
        tf_.reset();
        if (spec_.executed) {
            const auto t0 = Clock::now();
            tf_ = std::make_unique<const Transformer>(spec_.model);
            build_s_ = since(t0);
        }
        requests_ = generate_requests(spec_.stream);
        stratify_lengths(requests_, spec_.stream);
        opts_ = spec_.opts;
        opts_.executor = tf_.get();
    }

    void warm_up() override
    {
        const std::span<const Request> head(
            requests_.data(),
            static_cast<std::size_t>(spec_.warmup_requests));
        (void)simulate_serving(spec_.model, find_system("anda"), tech16(),
                               head, opts_);
    }

    double iterate() override
    {
        // Released first, so peak RSS holds one report, not two.
        last_ = ServingReport{};
        last_ = simulate(opts_);
        fingerprints_.push_back(fingerprint(last_));
        return step_tokens(last_);
    }

    std::size_t ops_per_iteration() const override
    {
        return requests_.size();
    }

    /// Processed tokens per second of priced accelerator time.
    double sim_tok_s() const override
    {
        const double busy_s =
            static_cast<double>(last_.total_cycles) / tech16().clock_hz;
        return step_tokens(last_) / busy_s;
    }

    void check(Checks &checks, bool full) override
    {
        const ServingReport &r = last_;
        const bool repeat = std::all_of(
            fingerprints_.begin(), fingerprints_.end(),
            [&](std::uint64_t f) { return f == fingerprints_.front(); });
        checks.expect(repeat, "iterations differ (checksum / step log)");
        checks.expect(r.requests.size() ==
                          r.completed + r.dropped + r.shed + r.failed,
                      "requests != completed + dropped + shed + failed");
        std::uint64_t kv_bytes = 0;
        std::size_t preempts = 0;
        bool pages = true;
        for (const ServingStep &s : r.steps) {
            pages = pages && s.used_pages + s.free_pages == r.page_budget;
            kv_bytes += s.kv_bytes;
            preempts += s.preemptions;
        }
        checks.expect(pages, "page conservation broken on a step");
        checks.expect(kv_bytes == r.kv_dram_bytes,
                      "step kv_bytes do not sum to kv_dram_bytes");
        checks.expect(preempts == r.preemptions,
                      "step preemptions do not sum to the total");
        if (!spec_.executed) {
            return;
        }
        checks.expect(r.executed && r.completed == r.requests.size(),
                      "executed workload left requests incomplete");
        ServingOptions priced = opts_;
        priced.executor = nullptr;
        const ServingReport p = simulate(priced);
        bool same = p.steps.size() == r.steps.size();
        for (std::size_t i = 0; same && i < r.steps.size(); ++i) {
            const ServingStep &a = r.steps[i];
            const ServingStep &b = p.steps[i];
            same = a.start_s == b.start_s && a.cycles == b.cycles &&
                   a.prefill_tokens == b.prefill_tokens &&
                   a.decode_tokens == b.decode_tokens &&
                   a.running == b.running &&
                   a.cache_tokens == b.cache_tokens;
        }
        checks.expect(same, "executed step log differs from priced-only");
        if (!full) {
            std::vector<int> ids;
            const auto n = static_cast<int>(r.requests.size());
            for (int i = 0; i < 8 && i < n; ++i) {
                ids.push_back(i);
            }
            check_tokens(checks, ids,
                         replay(ids, opts_.max_batch, nullptr, nullptr));
        }
    }

    void trace_pass(Tracer &tr, Metrics &out, double untraced_s,
                    Checks &checks) override
    {
        const ServingReport &r = last_;
        double exec_s = 0.0;
        {
            Tracer::Scope span(&tr, "e2e.iteration");
            last_ = simulate(opts_);
            exec_s = span.stop();
        }
        out.set("trace_overhead_pct",
                100.0 * (exec_s / untraced_s - 1.0), "%");

        ServingOptions priced = opts_;
        priced.executor = nullptr;
        double priced_s = 0.0;
        {
            Tracer::Scope span(&tr, "serve.simulate_serving");
            (void)simulate(priced);
            priced_s = span.stop();
        }
        serve_metrics(out, r, priced_s);
        if (!spec_.executed) {
            reprice_steps(tr, out, checks);
            return;
        }
        out.set("llm.exec_share_pct",
                100.0 * (untraced_s - priced_s) / untraced_s, "%");
        out.set("llm.build_s", build_s_, "s");

        // Replay every request in batches of the scheduler's mean
        // running batch.
        const auto batch = std::max<std::size_t>(
            1, static_cast<std::size_t>(std::lround(mean_running(r))));
        ReplayStats st;
        std::vector<int> ids;
        for (const Request &q : requests_) {
            ids.push_back(q.id);
        }
        check_tokens(checks, ids, replay(ids, batch, &tr, &st));
        double price_s = 0.0;
        for (const double t : st.price_s) {
            price_s += t;
        }
        const auto priced_steps = static_cast<double>(st.price_s.size());
        out.set("hw.price_us_per_step", 1e6 * ratio(price_s, priced_steps),
                "us");
        out.set("llm.prefill_us_per_tok",
                1e6 * ratio(st.prefill_s,
                            static_cast<double>(st.prefill_tokens)),
                "us");
        if (st.step_ms.size() >= 20) {
            out.set("llm.decode_step_ms_p50", quantile(st.step_ms, 0.5),
                    "ms");
        }
        if (st.step_ms.size() >= 1000) {
            out.set("llm.decode_step_ms_p99", quantile(st.step_ms, 0.99),
                    "ms");
        }
        for (std::size_t b = 0; b < kNumCtxBuckets; ++b) {
            if (st.tokens[b] == 0) {
                continue;
            }
            const auto toks = static_cast<double>(st.tokens[b]);
            out.set(std::string("llm.decode_us_per_tok.") + kCtxBuckets[b],
                    1e6 * st.host_s[b] / toks, "us");
            out.set(std::string("hw.priced_us_per_tok.") + kCtxBuckets[b],
                    1e6 * st.priced_s[b] / toks, "us");
        }
        if (opts_.kv_format.quantized()) {
            format_metrics(out, st);
        }

        // Kernels at the mean decode batch and prefill chunk of the log.
        double decode_rows = 0.0;
        double prefill_rows = 0.0;
        double decode_steps = 0.0;
        double prefill_steps = 0.0;
        for (const ServingStep &s : r.steps) {
            decode_rows += static_cast<double>(s.decode_tokens);
            prefill_rows += static_cast<double>(s.prefill_tokens);
            decode_steps += s.decode_tokens > 0 ? 1.0 : 0.0;
            prefill_steps += s.prefill_tokens > 0 ? 1.0 : 0.0;
        }
        const auto rows = [](double total, double steps) {
            const long mean = std::lround(ratio(total, steps));
            return static_cast<std::size_t>(std::max(1L, mean));
        };
        const ModelDims &dims = spec_.model.sim;
        const std::size_t m_decode = rows(decode_rows, decode_steps);
        kernel_metrics(out, "decode", dims, m_decode, true);
        kernel_metrics(out, "prefill", dims,
                       rows(prefill_rows, prefill_steps), false);
        act_format_metric(out, m_decode, dims);
        out.set("quant.w4_quantize_ms", w4_quantize_ms(spec_.model), "ms");

        ServingOptions parallel = opts_;
        parallel.exec_run.threads = scaling_threads();
        const auto t0 = Clock::now();
        (void)simulate(parallel);
        out.set("common.scaling_x.exec", untraced_s / since(t0), "x");
    }

  private:
    ServingReport simulate(const ServingOptions &opts) const
    {
        return simulate_serving(spec_.model, find_system("anda"), tech16(),
                                requests_, opts);
    }

    /// Prefill and decode rows the steps processed (adopted prefix rows
    /// are not processed; recomputed ones are).
    static double step_tokens(const ServingReport &r)
    {
        std::size_t n = 0;
        for (const ServingStep &s : r.steps) {
            n += s.prefill_tokens + s.decode_tokens;
        }
        return static_cast<double>(n);
    }

    static double mean_running(const ServingReport &r)
    {
        double running = 0.0;
        for (const ServingStep &s : r.steps) {
            running += static_cast<double>(s.running);
        }
        return ratio(running, static_cast<double>(r.steps.size()));
    }

    static std::uint64_t fingerprint(const ServingReport &r)
    {
        std::uint64_t h = r.generated_checksum() ^ r.total_cycles;
        return h ^ (static_cast<std::uint64_t>(r.steps.size()) << 32);
    }

    void check_tokens(Checks &checks, const std::vector<int> &ids,
                      const std::vector<std::vector<int>> &tokens) const
    {
        for (std::size_t i = 0; i < ids.size(); ++i) {
            checks.expect(
                last_.requests[static_cast<std::size_t>(ids[i])].tokens ==
                    tokens[i],
                "request " + std::to_string(ids[i]) +
                    " differs from standalone regeneration");
        }
    }

    /// Regenerates requests `ids` outside the scheduler through
    /// prefill / decode_step, `batch` at a time, in the workload's KV
    /// format. With stats, spans every call and prices every decode
    /// step.
    std::vector<std::vector<int>> replay(const std::vector<int> &ids,
                                         std::size_t batch, Tracer *tr,
                                         ReplayStats *st) const
    {
        const Transformer &tf = *tf_;
        const ServingOptions &o = opts_;
        const double kv_bits = o.kv_format.bits_per_element();
        std::vector<std::vector<int>> out(ids.size());
        for (std::size_t lo = 0; lo < ids.size(); lo += batch) {
            const std::size_t hi = std::min(ids.size(), lo + batch);
            std::vector<KvCache> caches;
            caches.reserve(hi - lo);
            std::vector<SplitMix64> rngs;
            for (std::size_t i = lo; i < hi; ++i) {
                const Request &q =
                    requests_[static_cast<std::size_t>(ids[i])];
                caches.push_back(tf.make_cache(o.kv_format));
                rngs.emplace_back(exec_sampler_seed(o.exec_seed, q.id));
                const std::vector<int> prompt =
                    exec_prompt_tokens(tf.dims().vocab, q.prompt_len,
                                       o.exec_seed, q.id,
                                       o.shared_prefix_len);
                Tracer::Scope span(tr, "llm.prefill", q.id);
                const std::vector<float> logits =
                    tf.prefill(caches.back(), prompt, o.exec_run);
                if (st != nullptr) {
                    st->prefill_s += span.stop();
                    st->prefill_tokens += prompt.size();
                }
                out[i].push_back(exec_pick_token(
                    logits, o.exec_temperature, rngs.back()));
            }
            for (;;) {
                std::vector<std::size_t> active;
                for (std::size_t i = lo; i < hi; ++i) {
                    const Request &q =
                        requests_[static_cast<std::size_t>(ids[i])];
                    if (static_cast<int>(out[i].size()) < q.output_len) {
                        active.push_back(i);
                    }
                }
                if (active.empty()) {
                    break;
                }
                BatchKvCache kv;
                std::vector<int> in;
                std::vector<SeqSlice> slices;
                double context = 0.0;
                for (const std::size_t i : active) {
                    KvCache &c = caches[i - lo];
                    kv.add(c);
                    in.push_back(out[i].back());
                    slices.push_back({1, c.length()});
                    context += static_cast<double>(c.length());
                }
                context /= static_cast<double>(active.size());
                Tracer::Scope span(tr, "llm.decode_step",
                                   static_cast<long>(lo / batch));
                const Matrix logits = tf.decode_step(kv, in, o.exec_run);
                const double step_s = span.stop();
                for (std::size_t j = 0; j < active.size(); ++j) {
                    const std::size_t i = active[j];
                    out[i].push_back(exec_pick_token(
                        logits.row(j), o.exec_temperature, rngs[i - lo]));
                }
                if (st == nullptr) {
                    continue;
                }
                Tracer::Scope price(tr, "hw.price_step");
                const SystemRun run = run_workload(
                    find_system("anda"), tech16(),
                    build_decode_workload(spec_.model, slices, o.tuple,
                                          kv_bits));
                st->price_s.push_back(price.stop());
                const std::size_t b = ctx_bucket(context);
                st->step_ms.push_back(step_s * 1e3);
                st->host_s[b] += step_s;
                st->priced_s[b] += run.seconds(tech16());
                st->tokens[b] += active.size();
            }
            if (st != nullptr && hi == ids.size()) {
                st->last_caches = std::move(caches);
            }
        }
        return out;
    }

    /// Re-prices every logged step's GeMM taps; they must match the
    /// logged cycles minus the attention share.
    void reprice_steps(Tracer &tr, Metrics &out, Checks &checks) const
    {
        const AcceleratorConfig &anda_sys = find_system("anda");
        double total = 0.0;
        bool same = true;
        for (std::size_t i = 0; i < last_.steps.size(); ++i) {
            const ServingStep &s = last_.steps[i];
            Tracer::Scope span(&tr, "hw.price_step", static_cast<long>(i));
            const SystemRun run = run_workload(
                anda_sys, tech16(),
                build_step_workload(spec_.model, s.prefill_tokens,
                                    s.decode_tokens, opts_.tuple));
            total += span.stop();
            same = same && run.cycles == s.cycles - s.attn_cycles;
        }
        checks.expect(same,
                      "re-priced GeMM cycles differ from the step log");
        const auto steps = static_cast<double>(last_.steps.size());
        out.set("hw.price_us_per_step", 1e6 * ratio(total, steps), "us");
    }

    void serve_metrics(Metrics &out, const ServingReport &r,
                       double priced_s) const
    {
        const auto n_req = static_cast<double>(r.requests.size());
        std::vector<double> wait;
        std::vector<double> tpot;
        std::size_t slo_n = 0;
        std::size_t slo_met = 0;
        for (const RequestMetrics &m : r.requests) {
            if (m.admitted_s > 0.0 || m.completed()) {
                wait.push_back(m.admitted_s - m.arrival_s);
            }
            if (m.completed() && m.output_len > 1) {
                tpot.push_back(m.decode_s_per_token() * 1e3);
            }
            if (m.ttft_slo_s > 0.0 || m.deadline_s > 0.0) {
                ++slo_n;
                const bool ok =
                    m.completed() &&
                    (m.ttft_slo_s <= 0.0 || m.ttft_s() <= m.ttft_slo_s) &&
                    (m.deadline_s <= 0.0 || m.latency_s() <= m.deadline_s);
                slo_met += ok ? 1 : 0;
            }
        }
        const auto steps = static_cast<double>(r.steps.size());
        out.set("serve.host_us_per_step", 1e6 * ratio(priced_s, steps),
                "us");
        out.set("serve.batch_mean", mean_running(r), "requests");
        out.set("serve.queue_wait_p50_s", quantile(wait, 0.5), "s");
        out.set("serve.preemptions", static_cast<double>(r.preemptions),
                "count");
        out.set("serve.readmits", static_cast<double>(r.readmits),
                "count");
        out.set("serve.swap_gb", static_cast<double>(r.swap_bytes) / 1e9,
                "GB");
        out.set("serve.reused_prefix_tok",
                static_cast<double>(r.reused_prefix_tokens), "tokens");
        out.set("serve.recomputed_tok",
                static_cast<double>(r.recomputed_tokens), "tokens");
        out.set("serve.swap_stall_pct",
                100.0 * ratio(r.swap_stall_s, r.makespan_s), "%");
        out.set("serve.prefix_reuse_pct",
                100.0 * ratio(static_cast<double>(r.reused_prefix_tokens),
                              static_cast<double>(r.total_prompt_tokens)),
                "%");
        out.set("serve.peak_pages", static_cast<double>(r.peak_used_pages),
                "pages");
        out.set("serve.frag_pct", 100.0 * r.mean_fragmentation(), "%");
        out.set("serve.drops", static_cast<double>(r.dropped), "count");
        out.set("serve.sheds", static_cast<double>(r.shed), "count");
        out.set("serve.step_faults", static_cast<double>(r.step_faults),
                "count");
        out.set("serve.wasted_cycle_pct",
                100.0 * ratio(static_cast<double>(r.wasted_cycles),
                              static_cast<double>(r.total_cycles)),
                "%");
        out.set("serve.fail_frac",
                static_cast<double>(r.dropped + r.shed + r.failed) / n_req,
                "ratio");
        out.set("serve.sim_ttft_p95_s", r.p95_ttft_s(), "s");
        out.set("serve.sim_tpot_p95_ms", quantile(tpot, 0.95), "ms");
        // No SLOs in the stream: vacuously attained, as in ClassReport.
        out.set("serve.sim_slo_attain",
                slo_n > 0 ? static_cast<double>(slo_met) /
                                static_cast<double>(slo_n)
                          : 1.0,
                "ratio");
        out.set("hw.attn_cycle_pct",
                100.0 * ratio(static_cast<double>(r.attn_cycles),
                              static_cast<double>(r.total_cycles)),
                "%");
        out.set("hw.kv_read_gb",
                static_cast<double>(r.kv_dram_bytes) / 1e9, "GB");
    }

    /// Pack / unpack cost of the last replayed batch's cached K rows.
    void format_metrics(Metrics &out, const ReplayStats &st) const
    {
        const KvFormat &fmt = opts_.kv_format;
        const auto d = static_cast<std::size_t>(spec_.model.sim.d_model);
        const std::size_t bytes = kv_row_bytes(fmt, d);
        std::vector<float> rows;
        std::vector<std::byte> packed;
        for (const KvCache &c : st.last_caches) {
            for (std::size_t l = 0; l < c.n_layers(); ++l) {
                for (std::size_t p = 0; p < c.length(); ++p) {
                    const auto k = c.packed_k_row(l, p);
                    packed.insert(packed.end(), k.begin(), k.end());
                    rows.resize(rows.size() + d);
                    c.load_k(l, p, std::span<float>(rows).last(d));
                }
            }
        }
        const std::size_t n = rows.size() / d;
        std::vector<std::byte> repacked(packed.size());
        std::vector<float> unpacked(rows.size());
        const std::span<const float> in_rows(rows);
        const std::span<const std::byte> in_packed(packed);
        const std::span<std::byte> out_packed(repacked);
        const std::span<float> out_rows(unpacked);
        const double t_pack = seconds_per_call([&] {
            for (std::size_t i = 0; i < n; ++i) {
                kv_pack_row(fmt, in_rows.subspan(i * d, d),
                            out_packed.subspan(i * bytes, bytes));
            }
        });
        const double t_unpack = seconds_per_call([&] {
            for (std::size_t i = 0; i < n; ++i) {
                kv_unpack_row(fmt, in_packed.subspan(i * bytes, bytes),
                              out_rows.subspan(i * d, d));
            }
        });
        out.set("format.kv_pack_ns_per_row",
                t_pack * 1e9 / static_cast<double>(n), "ns");
        out.set("format.kv_unpack_ns_per_row",
                t_unpack * 1e9 / static_cast<double>(n), "ns");
    }

    ServingSpec spec_;
    std::unique_ptr<const Transformer> tf_;
    double build_s_ = 0.0;
    std::vector<Request> requests_;
    ServingOptions opts_;
    ServingReport last_;
    std::vector<std::uint64_t> fingerprints_;
};

// ppl_search: Algorithm 1 plus the found tuple's validation PPL, for
// an OPT and a LLaMA-2 model on two corpora, as jobs on one
// SweepScheduler.

struct SearchJob {
    ModelConfig model;
    DatasetSpec dataset;
};

struct JobResult {
    PrecisionTuple tuple{};
    double ppl = 0.0;
    std::size_t evals = 0;
    /// Every tuple the search evaluated, in order.
    std::vector<PrecisionTuple> evaluated;
};

/// Activation mantissas of the W4A16 baseline passes.
constexpr PrecisionTuple kFp16Tuple{16, 16, 16, 16};

class SearchWorkload final : public Workload {
  public:
    explicit SearchWorkload(std::uint64_t seed)
    {
        for (const char *model : {"opt-6.7b", "llama2-7b"}) {
            for (const char *ds : {"wikitext2-sim", "c4-sim"}) {
                SearchJob job{find_model(model), find_dataset(ds)};
                job.dataset.seed += seed;
                // Two sequences (16-18 in Table II) keep one serial
                // iteration near 5 s.
                job.dataset.n_sequences = 2;
                jobs_.push_back(job);
            }
        }
    }

    void setup() override
    {
        sweep_.reset();
        registry_ = std::make_unique<ModelRegistry>();
        build_s_ = 0.0;
        for (const SearchJob &job : jobs_) {
            const auto t0 = Clock::now();
            (void)registry_->get(job.model);
            build_s_ += since(t0);
        }
        sweep_ = make_sweep(kTimedThreads);
    }

    void warm_up() override {}

    double iterate() override
    {
        std::vector<JobResult> results(jobs_.size());
        last_report_ = run_jobs(*sweep_, results, nullptr, -1);
        double tokens = 0.0;
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            tokens += static_cast<double>(results[j].evals) *
                      corpus_rows(jobs_[j].dataset);
        }
        runs_.push_back(std::move(results));
        return tokens;
    }

    std::size_t ops_per_iteration() const override
    {
        std::size_t n = 0;
        for (const JobResult &r : runs_.back()) {
            n += r.evals;
        }
        return n;
    }

    /// The forward passes of the last iteration priced on the Anda
    /// system at the models' real dims: per job the calibration
    /// baseline at FP16 activations, every tuple the search evaluated,
    /// and the validation pass at the found tuple.
    double sim_tok_s() const override
    {
        double rows = 0.0;
        double seconds = 0.0;
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            const SearchJob &job = jobs_[j];
            const JobResult &r = runs_.back()[j];
            const std::vector<SeqSlice> corpus(
                static_cast<std::size_t>(job.dataset.n_sequences),
                SeqSlice{static_cast<std::uint64_t>(job.dataset.seq_len),
                         0});
            const auto price = [&](const PrecisionTuple &tuple) {
                seconds += run_workload(find_system("anda"), tech16(),
                                        build_prefill_workload(
                                            job.model, corpus, tuple))
                               .seconds(tech16());
                rows += corpus_rows(job.dataset);
            };
            price(kFp16Tuple);
            for (const PrecisionTuple &t : r.evaluated) {
                price(t);
            }
            price(r.tuple);
        }
        return rows / seconds;
    }

    void check(Checks &checks, bool) override
    {
        checks.expect(last_report_.failed == 0, "a search job failed");
        for (const auto &run : runs_) {
            for (std::size_t j = 0; j < jobs_.size(); ++j) {
                checks.expect(run[j].evals == run[j].evaluated.size() + 2,
                              "fresh evaluations != baseline + search "
                              "trace + validation");
                checks.expect(
                    std::isfinite(run[j].ppl) && run[j].ppl > 0.0,
                    "non-finite validation PPL");
                checks.expect(run[j].tuple == runs_.front()[j].tuple &&
                                  run[j].ppl == runs_.front()[j].ppl,
                              "search results differ across iterations");
            }
        }
    }

    void trace_pass(Tracer &tr, Metrics &out, double untraced_s,
                    Checks &checks) override
    {
        std::vector<JobResult> results(jobs_.size());
        double wall = 0.0;
        {
            Tracer::Scope span(&tr, "e2e.iteration");
            last_report_ = run_jobs(*sweep_, results, &tr, span.index());
            wall = span.stop();
        }
        out.set("trace_overhead_pct",
                100.0 * (wall / untraced_s - 1.0), "%");
        std::size_t evals = 0;
        double job_max = 0.0;
        double job_sum = 0.0;
        double ppl = 0.0;
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            const double job_s = last_report_.job_reports[j].seconds;
            evals += results[j].evals;
            ppl += results[j].ppl / static_cast<double>(jobs_.size());
            job_max = std::max(job_max, job_s);
            job_sum += job_s;
        }
        out.set("search.evals", static_cast<double>(evals), "count");
        out.set("search.job_s_max", job_max, "s");
        out.set("search.job_s_sum", job_sum, "s");
        out.set("llm.ppl_val", ppl, "ppl");
        out.set("llm.build_s", build_s_, "s");

        // Algorithm 1 called directly: one span per evaluation.
        EvalOptions eval;
        eval.threads = kTimedThreads;
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            const SearchJob &job = jobs_[j];
            const std::shared_ptr<const Transformer> tf =
                registry_->get(job.model);
            const Corpus cal =
                generate_corpus(*tf, job.dataset, Split::kCalibration);
            RunOptions base_opts;
            const double base = perplexity(*tf, cal, base_opts, eval);
            long n = 0;
            const AccuracyEvaluator evaluate =
                [&](const PrecisionTuple &tuple) {
                    RunOptions opts;
                    opts.prec = PrecisionConfig::anda(tuple);
                    Tracer::Scope span(&tr, "llm.perplexity", n++);
                    return 1.0 -
                           accuracy_loss(perplexity(*tf, cal, opts, eval),
                                         base);
                };
            SearchConfig cfg;
            cfg.tolerance = 0.01;
            cfg.max_iterations = 32;
            const SearchResult sr =
                adaptive_precision_search(job.model, evaluate, cfg);
            checks.expect(sr.best && *sr.best == results[j].tuple,
                          "direct search disagrees with the sweep job");
        }
        const std::vector<double> eval_ms =
            tr.durations_ms("llm.perplexity");
        out.set("llm.perplexity_ms_p50",
                eval_ms.size() >= 20 ? quantile(eval_ms, 0.5) : 0.0, "ms");

        // Kernels at one whole corpus, the rows a nested batch_nll packs.
        const SearchJob &first = jobs_.front();
        const auto eval_rows = static_cast<std::size_t>(
            first.dataset.n_sequences * first.dataset.seq_len);
        kernel_metrics(out, "eval", first.model.sim, eval_rows, true);
        act_format_metric(out, eval_rows, first.model.sim);
        out.set("quant.w4_quantize_ms", w4_quantize_ms(first.model), "ms");

        // One parallel iteration on a second scheduler (corpora built
        // before timing).
        const std::unique_ptr<SweepScheduler> parallel =
            make_sweep(scaling_threads());
        std::vector<JobResult> parallel_results(jobs_.size());
        const auto t0 = Clock::now();
        (void)run_jobs(*parallel, parallel_results, nullptr, -1);
        out.set("common.scaling_x.search", untraced_s / since(t0), "x");
        out.set("serve.fail_frac",
                static_cast<double>(last_report_.failed) /
                    static_cast<double>(jobs_.size()),
                "ratio");
    }

  private:
    /// Rows one forward pass over a corpus processes.
    static double corpus_rows(const DatasetSpec &ds)
    {
        return static_cast<double>(ds.n_sequences) *
               static_cast<double>(ds.seq_len);
    }

    /// A scheduler over the shared registry whose harnesses already
    /// hold both corpora (the two baseline evaluations build them).
    std::unique_ptr<SweepScheduler> make_sweep(std::size_t threads)
    {
        SweepOptions opts;
        opts.threads = threads;
        auto sweep = std::make_unique<SweepScheduler>(
            nullptr, registry_.get(), opts);
        for (const SearchJob &job : jobs_) {
            SearchHarness &h = sweep->harness(job.model, job.dataset);
            (void)h.baseline_ppl(Split::kCalibration);
            (void)h.baseline_ppl(Split::kValidation);
        }
        return sweep;
    }

    SweepReport run_jobs(SweepScheduler &sweep,
                         std::vector<JobResult> &results, Tracer *tr,
                         int parent) const
    {
        for (std::size_t j = 0; j < jobs_.size(); ++j) {
            const SearchJob &job = jobs_[j];
            JobResult *res = &results[j];
            sweep.add(job.model, job.dataset, "search",
                      [res, tr, parent, j](SearchHarness &h) {
                          Tracer::Scope span(tr, "search.job",
                                             static_cast<long>(j), parent);
                          const std::size_t before = h.evaluations();
                          const SearchResult sr = h.search(0.01, 32);
                          if (!sr.best) {
                              throw std::runtime_error("no tuple found");
                          }
                          res->tuple = *sr.best;
                          res->ppl = h.tuple_ppl(Split::kValidation,
                                                 res->tuple);
                          res->evals = h.evaluations() - before;
                          for (const SearchStep &s : sr.trace) {
                              res->evaluated.push_back(s.tuple);
                          }
                      });
        }
        return sweep.run();
    }

    std::vector<SearchJob> jobs_;
    std::unique_ptr<ModelRegistry> registry_;
    std::unique_ptr<SweepScheduler> sweep_;
    double build_s_ = 0.0;
    SweepReport last_report_;
    std::vector<std::vector<JobResult>> runs_;
};

// Command line and main loop

struct Args {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    std::string trace_path;  ///< Non-empty = traced run.
};

Args
parse(int argc, char **argv)
{
    Args a;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string val = argv[i + 1];
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed") {
            a.seed = std::stoull(val);
        } else if (key == "--seconds") {
            a.seconds = std::stod(val);
        } else if (key == "--trace") {
            a.trace_path = val;
        } else {
            throw std::invalid_argument("unknown option " + key);
        }
    }
    if (argc % 2 == 0 || a.workload.empty() || !(a.seconds > 0.0)) {
        throw std::invalid_argument(
            "usage: anda_bench --workload <name> --seed <n> --seconds <s> "
            "[--trace <file>]");
    }
    return a;
}

std::unique_ptr<Workload>
make_workload(const Args &a)
{
    if (a.workload == "chat_short") {
        return std::make_unique<ServingWorkload>(chat_short(a.seed));
    }
    if (a.workload == "rag_longctx") {
        return std::make_unique<ServingWorkload>(rag_longctx(a.seed));
    }
    if (a.workload == "overload_sched") {
        return std::make_unique<ServingWorkload>(overload_sched(a.seed));
    }
    if (a.workload == "ppl_search") {
        return std::make_unique<SearchWorkload>(a.seed);
    }
    throw std::invalid_argument("unknown workload " + a.workload);
}

/// setup_s is the median of samples of the set-up time: at least
/// kMinSetups, and more until kMinSetupSeconds have passed, so the
/// slower first set-ups and start-up interference from other processes
/// stay in the tail. A sample repeats a set-up until kMinSetupSample
/// seconds have passed, so a short set-up is averaged over enough
/// repetitions to ride out a neighbour's burst.
constexpr std::size_t kMinSetups = 3;
constexpr double kMinSetupSeconds = 2.0;
constexpr double kMinSetupSample = 0.1;

int
run(const Args &args)
{
    const std::unique_ptr<Workload> w = make_workload(args);

    std::vector<double> setup_s;
    std::vector<double> wall_s;
    std::vector<double> tok_s;
    // One-index parallel_for: its body is a parallel region, so every
    // library loop inside it runs inline on this thread, including
    // those that default to all cores (corpus generation, perplexity).
    parallel_for(
        0, 1,
        [&](std::size_t) {
            const auto setup_start = Clock::now();
            while (setup_s.size() < kMinSetups ||
                   since(setup_start) < kMinSetupSeconds) {
                const auto t0 = Clock::now();
                std::size_t reps = 0;
                do {
                    w->setup();
                    ++reps;
                } while (since(t0) < kMinSetupSample);
                setup_s.push_back(since(t0) / static_cast<double>(reps));
            }
            w->warm_up();

            const auto start = Clock::now();
            do {
                const auto t0 = Clock::now();
                const double tokens = w->iterate();
                wall_s.push_back(since(t0));
                tok_s.push_back(tokens / wall_s.back());
            } while (since(start) < args.seconds);
        },
        kTimedThreads);
    const std::size_t attempted = wall_s.size() * w->ops_per_iteration();
    const bool traced = !args.trace_path.empty();

    // End-to-end metrics first: peak RSS excludes the traced pass.
    Metrics e2e;
    e2e.sample("setup_s", setup_s, "s");
    e2e.sample("host_tok_s", tok_s, "tok/s");
    e2e.set("peak_rss_mib", peak_rss_mib(), "MiB");
    e2e.exact("sim_tok_s", w->sim_tok_s(), "tok/s");
    Checks checks;
    w->check(checks, traced);
    Metrics layers;
    std::unique_ptr<Tracer> tracer;
    if (traced) {
        tracer = std::make_unique<Tracer>();
        w->trace_pass(*tracer, layers, quantile(wall_s, 0.5), checks);
        layers.set("common.threads_created",
                   static_cast<double>(parallel_threads_created()),
                   "count");
        tracer->write_chrome(args.trace_path);
    }
    for (const Metrics *m : {&e2e, &layers}) {
        for (const Metric &x : m->all()) {
            checks.expect(std::isfinite(x.value),
                          x.name + " is not finite");
        }
    }
    const bool correct = checks.failures.empty();

    std::string line = "{\"workload\":" + json_str(args.workload) +
                       ",\"seed\":" + std::to_string(args.seed) +
                       ",\"threads\":" + std::to_string(kTimedThreads) +
                       ",\"scaling_threads\":" +
                       std::to_string(scaling_threads()) +
                       ",\"compiler\":" + json_str(__VERSION__) +
                       ",\"correct\":" + (correct ? "true" : "false") +
                       ",\"attempted\":" + std::to_string(attempted) +
                       ",\"failed\":" +
                       std::to_string(correct ? 0 : attempted) +
                       ",\"iteration_s\":[";
    for (std::size_t i = 0; i < wall_s.size(); ++i) {
        line += (i > 0 ? "," : "") + json_num(wall_s[i]);
    }
    line += "],\"failures\":[";
    for (std::size_t i = 0; i < checks.failures.size(); ++i) {
        line += (i > 0 ? "," : "") + json_str(checks.failures[i]);
    }
    line += "],\"metrics\":" + metrics_json(e2e);
    if (tracer) {
        line += ",\"layers\":" + metrics_json(layers) +
                ",\"spans\":" + tracer->summary_json();
    }
    line += "}";
    for (const std::string &f : checks.failures) {
        std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
    }
    std::printf("%s\n", line.c_str());
    return correct ? 0 : 1;
}

}  // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parse(argc, argv));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "anda_bench: %s\n", e.what());
        return 2;
    }
}
