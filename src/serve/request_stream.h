#pragma once

/// @file
/// Deterministic synthetic request streams for the serving simulator.
///
/// A request stream stands in for live inference traffic: requests
/// arrive as a Poisson process (exponential inter-arrival times) with
/// prompt and output lengths drawn uniformly from configured bounds.
/// Everything is derived from SplitMix64 streams, so one seed pins the
/// whole trace bit-for-bit — the property the serving_smoke CI test
/// and the latency benchmarks rely on.

#include <cstdint>
#include <vector>

namespace anda {

/// One priority class of a mixed stream: a relative traffic share
/// plus the latency targets its requests carry. Higher `priority`
/// outranks lower at admission and survives eviction longer under the
/// priority-aware policies; the SLOs are targets relative to arrival
/// (0 = the class has none) that the scheduler reports attainment
/// against and, per DeadlinePolicy, enforces.
struct PriorityClassSpec {
    int priority = 0;
    /// Relative frequency of the class (> 0; normalized internally).
    double weight = 1.0;
    /// Time-to-first-token SLO [s] relative to arrival (0 = none).
    double ttft_slo_s = 0.0;
    /// Completion deadline [s] relative to arrival (0 = none).
    double deadline_s = 0.0;
};

/// Recipe of one synthetic request stream.
struct RequestStreamSpec {
    std::uint64_t seed = 0;
    int n_requests = 32;
    /// Mean arrival rate [requests/s]; inter-arrival times are
    /// exponential. A rate <= 0 makes every request arrive at t = 0
    /// (the closed-batch / offline regime); NaN is rejected.
    double arrival_rate = 4.0;
    /// Prompt length bounds [tokens], inclusive uniform.
    int prompt_min = 16;
    int prompt_max = 256;
    /// Output (generated) length bounds [tokens], inclusive uniform.
    int output_min = 8;
    int output_max = 64;
    /// Priority-class mix. Empty = every request is class 0 with no
    /// SLOs (the legacy single-class stream, consuming no extra
    /// random draws — traces stay bit-identical to pre-class seeds).
    /// Classes draw from their own SplitMix64 stream, so adding or
    /// reweighting classes never perturbs arrivals or lengths.
    std::vector<PriorityClassSpec> classes;
};

/// One inference request of the stream.
struct Request {
    int id = 0;
    double arrival_s = 0.0;
    int prompt_len = 0;
    int output_len = 0;
    /// Priority class (higher = more important; scheduler default 0).
    int priority = 0;
    /// TTFT SLO [s] relative to arrival_s (0 = none).
    double ttft_slo_s = 0.0;
    /// Completion deadline [s] relative to arrival_s (0 = none).
    double deadline_s = 0.0;
};

/// Materializes the stream: n_requests requests ordered by arrival
/// time (ids follow arrival order). Deterministic in spec. Throws
/// std::invalid_argument on non-positive lengths or inverted bounds.
std::vector<Request> generate_requests(const RequestStreamSpec &spec);

}  // namespace anda
