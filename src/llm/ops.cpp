#include "llm/ops.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.h"

namespace anda {

void
layer_norm(std::span<const float> x, std::span<const float> gain,
           std::span<float> out, float eps)
{
    ANDA_DCHECK(x.size() == gain.size() && x.size() == out.size(),
                "norm spans must share one length");
    double sum = 0.0;
    for (float v : x) {
        sum += v;
    }
    const double m = sum / static_cast<double>(x.size());
    double var = 0.0;
    for (float v : x) {
        var += (v - m) * (v - m);
    }
    var /= static_cast<double>(x.size());
    const float inv = 1.0f / std::sqrt(static_cast<float>(var) + eps);
    for (std::size_t i = 0; i < x.size(); ++i) {
        out[i] = (x[i] - static_cast<float>(m)) * inv * gain[i];
    }
}

void
rms_norm(std::span<const float> x, std::span<const float> gain,
         std::span<float> out, float eps)
{
    ANDA_DCHECK(x.size() == gain.size() && x.size() == out.size(),
                "norm spans must share one length");
    double sq = 0.0;
    for (float v : x) {
        sq += static_cast<double>(v) * v;
    }
    const float inv = 1.0f / std::sqrt(static_cast<float>(
                                           sq / static_cast<double>(
                                                    x.size())) +
                                       eps);
    for (std::size_t i = 0; i < x.size(); ++i) {
        out[i] = x[i] * inv * gain[i];
    }
}

void
softmax_inplace(std::span<float> x)
{
    if (x.empty()) {
        return;
    }
    float mx = x[0];
    for (float v : x) {
        mx = std::max(mx, v);
    }
    double sum = 0.0;
    for (float &v : x) {
        v = std::exp(v - mx);
        sum += v;
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (float &v : x) {
        v *= inv;
    }
}

float
silu(float x)
{
    return x / (1.0f + std::exp(-x));
}

void
rope_inplace(std::span<float> head, int pos)
{
    ANDA_DCHECK_EQ(head.size() % 2, 0u,
                   "RoPE head dimension must be even");
    const std::size_t half = head.size() / 2;
    for (std::size_t i = 0; i < half; ++i) {
        const double freq =
            std::pow(10000.0, -2.0 * static_cast<double>(i) /
                                  static_cast<double>(head.size()));
        const double angle = static_cast<double>(pos) * freq;
        const float c = static_cast<float>(std::cos(angle));
        const float s = static_cast<float>(std::sin(angle));
        const float a = head[i];
        const float b = head[i + half];
        head[i] = a * c - b * s;
        head[i + half] = a * s + b * c;
    }
}

void
causal_attention_head(std::span<const float *const> q,
                      std::span<const float *const> k,
                      std::span<const float *const> v, std::size_t col,
                      std::size_t head_dim, std::size_t q_offset,
                      std::span<float *const> out)
{
    ANDA_DCHECK_EQ(k.size(), v.size(), "attention K/V row counts differ");
    ANDA_DCHECK_EQ(q.size(), out.size(),
                   "attention output row count mismatch");
    const std::size_t kv_len = k.size();
    const float scale =
        1.0f / std::sqrt(static_cast<float>(head_dim));
    // Keys transposed to [head_dim x kv_len], so the score pass runs
    // contiguously over keys: each key still sums its channels in
    // ascending order, many keys at a time. The transpose goes a
    // block of keys at a time, channel-major inside the block, so
    // each inner loop fills whole cache lines of one kt row (a kt
    // row stride of 4 KiB would otherwise thrash one L1 set).
    constexpr std::size_t kBlock = 16;
    std::vector<float> kt(head_dim * kv_len);
    for (std::size_t j0 = 0; j0 < kv_len; j0 += kBlock) {
        const std::size_t j1 = std::min(kv_len, j0 + kBlock);
        for (std::size_t c = 0; c < head_dim; ++c) {
            float *dst = kt.data() + c * kv_len;
            for (std::size_t j = j0; j < j1; ++j) {
                dst[j] = k[j][col + c];
            }
        }
    }
    std::vector<float> scores(kv_len);
    for (std::size_t i = 0; i < q.size(); ++i) {
        const std::size_t visible =
            std::min(kv_len, q_offset + i + 1);
        const float *qi = q[i] + col;
        float *s = scores.data();
        std::fill_n(s, visible, 0.0f);
        for (std::size_t c = 0; c < head_dim; ++c) {
            const float qc = qi[c];
            const float *kc = kt.data() + c * kv_len;
            for (std::size_t j = 0; j < visible; ++j) {
                s[j] += qc * kc[j];
            }
        }
        for (std::size_t j = 0; j < visible; ++j) {
            s[j] *= scale;
        }
        softmax_inplace({s, visible});
        // Context: each channel sums its keys in ascending order,
        // all channels of one value row at a time.
        float *o = out[i] + col;
        std::fill_n(o, head_dim, 0.0f);
        for (std::size_t j = 0; j < visible; ++j) {
            const float sj = s[j];
            const float *vj = v[j] + col;
            for (std::size_t c = 0; c < head_dim; ++c) {
                o[c] += sj * vj[c];
            }
        }
    }
}

double
log_prob_of(std::span<const float> logits, int target)
{
    ANDA_DCHECK(target >= 0 &&
                    static_cast<std::size_t>(target) < logits.size(),
                "target token outside the vocabulary");
    float mx = logits[0];
    for (float v : logits) {
        mx = std::max(mx, v);
    }
    double sum = 0.0;
    for (float v : logits) {
        sum += std::exp(static_cast<double>(v) - mx);
    }
    return static_cast<double>(logits[static_cast<std::size_t>(target)]) -
           mx - std::log(sum);
}

int
sample_from_logits(std::span<const float> logits, double temperature,
                   double u)
{
    ANDA_CHECK(!logits.empty(), "cannot sample from empty logits");
    ANDA_CHECK_GT(temperature, 0.0,
                  "sampling temperature must be positive");
    float mx = logits[0];
    for (float v : logits) {
        mx = std::max(mx, v);
    }
    std::vector<double> probs(logits.size());
    double sum = 0.0;
    for (std::size_t i = 0; i < logits.size(); ++i) {
        probs[i] = std::exp((static_cast<double>(logits[i]) - mx) /
                            temperature);
        sum += probs[i];
    }
    double acc = 0.0;
    const double threshold = u * sum;
    for (std::size_t i = 0; i < probs.size(); ++i) {
        acc += probs[i];
        if (acc >= threshold) {
            return static_cast<int>(i);
        }
    }
    return static_cast<int>(probs.size() - 1);
}

}  // namespace anda
