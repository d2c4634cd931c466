#include "serve/request_stream.h"

#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace anda {

std::vector<Request>
generate_requests(const RequestStreamSpec &spec)
{
    ANDA_CHECK_GE(spec.n_requests, 0, "negative request count");
    ANDA_CHECK(!std::isnan(spec.arrival_rate), "NaN arrival rate");
    ANDA_CHECK(spec.prompt_min >= 1 && spec.prompt_max >= spec.prompt_min,
               "bad prompt length bounds");
    ANDA_CHECK(spec.output_min >= 1 && spec.output_max >= spec.output_min,
               "bad output length bounds");
    double total_weight = 0.0;
    for (const PriorityClassSpec &c : spec.classes) {
        ANDA_CHECK(c.weight > 0.0, "non-positive class weight");
        ANDA_CHECK(c.ttft_slo_s >= 0.0 && c.deadline_s >= 0.0,
                   "negative class SLO");
        total_weight += c.weight;
    }

    // Independent deterministic streams so changing one knob (say the
    // arrival rate) never perturbs the sampled lengths. The class
    // stream only exists when classes do, so single-class traces are
    // bit-identical to pre-class seeds.
    SplitMix64 arrivals(derive_seed(spec.seed, 0x5e21));
    SplitMix64 lengths(derive_seed(spec.seed, 0x1e57));
    SplitMix64 classes(derive_seed(spec.seed, 0xc1a5));

    std::vector<Request> requests(
        static_cast<std::size_t>(spec.n_requests));
    double t = 0.0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        Request &r = requests[i];
        r.id = static_cast<int>(i);
        if (spec.arrival_rate > 0.0) {
            // Exponential inter-arrival: -ln(1 - u) / rate, with
            // u in [0, 1) so the argument never hits zero.
            t += -std::log1p(-arrivals.uniform()) / spec.arrival_rate;
        }
        r.arrival_s = t;
        r.prompt_len =
            spec.prompt_min +
            static_cast<int>(lengths.uniform_index(
                static_cast<std::uint64_t>(spec.prompt_max -
                                           spec.prompt_min + 1)));
        r.output_len =
            spec.output_min +
            static_cast<int>(lengths.uniform_index(
                static_cast<std::uint64_t>(spec.output_max -
                                           spec.output_min + 1)));
        if (!spec.classes.empty()) {
            // Weighted class draw by cumulative weight; the final
            // class absorbs any floating-point shortfall.
            const double u = classes.uniform() * total_weight;
            double cum = 0.0;
            const PriorityClassSpec *pick = &spec.classes.back();
            for (const PriorityClassSpec &c : spec.classes) {
                cum += c.weight;
                if (u < cum) {
                    pick = &c;
                    break;
                }
            }
            r.priority = pick->priority;
            r.ttft_slo_s = pick->ttft_slo_s;
            r.deadline_s = pick->deadline_s;
        }
    }
    return requests;
}

}  // namespace anda
