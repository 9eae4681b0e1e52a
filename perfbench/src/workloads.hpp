// The four workloads. Each runs its passes through run_passes, checks every
// output into run.checks and adds its metrics: gap and messages_per_ball
// (plus the shared end-to-end set) to run.end_to_end, and on a traced run
// its layers' metrics to run.per_layer.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/thread_pool.hpp"
#include "harness.hpp"

namespace perfbench {

void run_table1_grid(run_state& run);
void run_big_round(run_state& run);
void run_heavy_staged(run_state& run);
void run_serve_churn(run_state& run);

/// The pass's 4-thread pool, started before set-up is timed. Thread
/// creation wakes idle vCPUs, and on a shared VM its cost moved by 40%
/// between two ten-run sets, so it is kept out of setup_s; traced passes
/// record it as an `engine.pool_spinup` span.
class pool_spinup {
public:
    explicit pool_spinup(pass_context& p) {
        const scoped_span s(p.spans(), "engine.pool_spinup", p.pass_span());
        pool_ = std::make_unique<kdc::core::thread_pool>(bench_threads);
    }
    [[nodiscard]] kdc::core::thread_pool& get() const noexcept {
        return *pool_;
    }

private:
    std::unique_ptr<kdc::core::thread_pool> pool_;
};

/// Trials per pass of a set-up cheap enough to repeat (scenario parsing
/// and validation, cell and config construction); the median trial counts.
inline constexpr int setup_trials = 5;

/// Additive slack for the O(1) terms of Theorems 1 and 2: the library's own
/// Theorem 1 envelope test allows 3 around a mean of ten repetitions; a
/// check here reads one repetition, whose max load strays one further (at
/// n = 3 * 2^16, cells such as (128,193) reach 3 against a leading term of
/// 0.6).
inline constexpr double theorem_slack = 4.0;

/// Whether a light-load (m = n) repetition's maximum load lies inside the
/// Theorem 1 envelope of theory/bounds: [first - slack, total + slack] for
/// k < d. The d = 1 column is single choice, where the envelope is the
/// Raab-Steger leading term ln n / ln ln n, whose (1 + o(1)) factor is
/// still far from 1 at these n, taken three times.
[[nodiscard]] bool in_theorem1_envelope(std::uint64_t n, std::uint64_t k,
                                        std::uint64_t d,
                                        std::uint64_t max_load);

/// Whether a heavily loaded gap lies inside the Theorem 2 sandwich
/// [lower - slack, upper + slack] (d >= 2k).
[[nodiscard]] bool in_theorem2_sandwich(std::uint64_t n, std::uint64_t k,
                                        std::uint64_t d, double gap);

/// "k=<k>,d=<d>" label for check messages.
[[nodiscard]] std::string kd_label(std::uint64_t k, std::uint64_t d);

} // namespace perfbench
