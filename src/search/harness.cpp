#include "search/harness.h"

#include <sstream>

namespace anda {

std::string
ModelRegistry::key_of(const ModelConfig &cfg)
{
    // Everything Transformer construction reads must be part of the
    // identity; two configs differing only in `real` dims share a model.
    std::ostringstream key;
    key.precision(17);
    const ModelDims &d = cfg.sim;
    const OutlierProfile &p = cfg.profile;
    key << cfg.name << '|' << static_cast<int>(cfg.family) << '|'
        << cfg.seed << '|' << d.d_model << ',' << d.n_layers << ','
        << d.n_heads << ',' << d.d_ffn << ',' << d.vocab << ','
        << d.max_seq << '|' << p.channel_sigma << ','
        << p.outlier_channels << ',' << p.resid_outlier_gain << ','
        << p.o_outlier_gain << ',' << p.d_outlier_gain << ','
        << p.attn_sharpness << ',' << p.logit_scale;
    return key.str();
}

std::shared_ptr<const Transformer>
ModelRegistry::get(const ModelConfig &cfg)
{
    const std::string key = key_of(cfg);
    std::promise<std::shared_ptr<const Transformer>> promise;
    Future future;
    bool builder = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = models_.find(key);
        if (it == models_.end()) {
            builder = true;
            future = promise.get_future().share();
            models_.emplace(key, future);
        } else {
            future = it->second;
        }
    }
    if (builder) {
        misses_.fetch_add(1, std::memory_order_relaxed);
        try {
            promise.set_value(std::make_shared<const Transformer>(cfg));
        } catch (...) {
            // Don't poison the registry with a failed construction:
            // drop the entry so a later get() can retry, and propagate
            // the error to everyone waiting on this future.
            promise.set_exception(std::current_exception());
            std::lock_guard<std::mutex> lock(mutex_);
            models_.erase(key);
        }
    } else {
        hits_.fetch_add(1, std::memory_order_relaxed);
    }
    return future.get();
}

std::size_t
ModelRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return models_.size();
}

ModelRegistry &
ModelRegistry::global()
{
    static ModelRegistry registry;
    return registry;
}

SearchHarness::SearchHarness(const ModelConfig &cfg,
                             const DatasetSpec &dataset, ResultCache *cache)
    : SearchHarness(cfg, dataset, cache, &ModelRegistry::global())
{
}

SearchHarness::SearchHarness(const ModelConfig &cfg,
                             const DatasetSpec &dataset, ResultCache *cache,
                             ModelRegistry *registry)
    : cfg_(cfg), dataset_(dataset), cache_(cache), registry_(registry)
{
}

const Transformer &
SearchHarness::model() const
{
    // Plain mutex + retry rather than std::call_once: construction can
    // throw (bad configs propagate to every job of this harness), and
    // an exceptional call_once is a portability trap — under
    // ThreadSanitizer the intercepted once-flag is never reset on the
    // exceptional path, deadlocking every subsequent caller. This is
    // cold (once per harness), so the lock costs nothing.
    std::lock_guard<std::mutex> lock(model_mutex_);
    if (!model_) {
        model_ = registry_ != nullptr
                     ? registry_->get(cfg_)
                     : std::make_shared<const Transformer>(cfg_);
    }
    return *model_;
}

const Corpus &
SearchHarness::corpus(Split split)
{
    const Transformer &m = model();  // Outside the corpus lock.
    std::lock_guard<std::mutex> lock(corpus_mutex_);
    auto &slot =
        split == Split::kCalibration ? calibration_ : validation_;
    if (!slot) {
        slot = std::make_unique<Corpus>(
            generate_corpus(m, dataset_, split));
    }
    return *slot;
}

double
SearchHarness::cached_ppl(const std::string &key, const RunOptions &opts,
                          Split split)
{
    std::ostringstream full;
    full << cfg_.name << "|" << dataset_.name << "|"
         << (split == Split::kCalibration ? "cal" : "val") << "|" << key;
    if (cache_ != nullptr) {
        if (const auto hit = cache_->get(full.str())) {
            return *hit;
        }
    }
    const double ppl = perplexity(model(), corpus(split), opts);
    evaluations_.fetch_add(1, std::memory_order_relaxed);
    if (cache_ != nullptr) {
        cache_->put(full.str(), ppl);
    }
    return ppl;
}

double
SearchHarness::fp16_ppl()
{
    RunOptions opts;
    opts.quantized_weights = false;
    return cached_ppl("fp16", opts, Split::kValidation);
}

double
SearchHarness::baseline_ppl(Split split)
{
    RunOptions opts;
    opts.quantized_weights = true;
    return cached_ppl("w4a16", opts, split);
}

double
SearchHarness::uniform_bfp_ppl(Split split, int group_size,
                               int mantissa_bits)
{
    RunOptions opts;
    opts.quantized_weights = true;
    // Group size 0 denotes "whole row" (#channels) grouping.
    const int gs = group_size == 0
                       ? cfg_.sim.d_model
                       : group_size;
    opts.prec = PrecisionConfig::uniform_bfp(gs, mantissa_bits);
    std::ostringstream key;
    key << "bfp-gs" << gs << "-m" << mantissa_bits;
    return cached_ppl(key.str(), opts, split);
}

double
SearchHarness::tuple_ppl(Split split, const PrecisionTuple &tuple)
{
    RunOptions opts;
    opts.quantized_weights = true;
    opts.prec = PrecisionConfig::anda(tuple);
    return cached_ppl("anda" + to_string(tuple), opts, split);
}

SearchResult
SearchHarness::search(double tolerance, int max_iterations)
{
    const double base = baseline_ppl(Split::kCalibration);
    const AccuracyEvaluator evaluate =
        [this, base](const PrecisionTuple &tuple) {
            const double ppl = tuple_ppl(Split::kCalibration, tuple);
            return 1.0 - accuracy_loss(ppl, base);
        };
    SearchConfig config;
    config.tolerance = tolerance;
    config.max_iterations = max_iterations;
    return adaptive_precision_search(cfg_, evaluate, config);
}

}  // namespace anda
