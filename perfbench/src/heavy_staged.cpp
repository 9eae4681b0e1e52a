// heavy_staged: a two-stage Theorem 2 campaign at n = 2^22, (k,d) = (2,4).
// Stage 1 fast-forwards to m = 32n on the level kernel
// (steady_state_profile, then the settle suffix on the kd_choice_level_process
// that make_settled_process builds for this plan) and saves the profile;
// stage 2 loads it and resumes with par=round for 4n more balls, which
// make_settled_process routes to sharded_kd_level_process. This is the heavy
// regime, and the only workload on the level, steady-state and snapshot
// layers.
#include <optional>
#include <sstream>
#include <vector>

#include "core/kdchoice.hpp"
#include "core/thread_pool.hpp"
#include "rng/splitmix64.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t heavy_n = std::uint64_t{1} << 22;
constexpr std::uint64_t heavy_k = 2;
constexpr std::uint64_t heavy_d = 4;
constexpr std::uint64_t stage1_balls = 32 * heavy_n;
constexpr std::uint64_t stage2_balls = 4 * heavy_n;
/// Stage 2 runs in chunks of n/2 balls; the gap is read after each one.
constexpr std::uint64_t stage2_chunks = 8;

std::string heavy_scenario(std::string_view extra, std::uint64_t balls) {
    return "kd:n=" + std::to_string(heavy_n) + ",k=" + std::to_string(heavy_k) +
           ",d=" + std::to_string(heavy_d) + ",balls=" +
           std::to_string(balls) + ",kernel=level," + std::string(extra);
}

/// Checks a profile's two conservation laws: sum(counts) == n and
/// sum(level * counts) == balls.
bool conserves(const kdc::core::level_profile& p, std::uint64_t balls) {
    std::uint64_t bins = 0;
    std::uint64_t placed = 0;
    for (std::uint64_t level = 0; level <= p.max_level(); ++level) {
        bins += p.bins_at(level);
        placed += level * p.bins_at(level);
    }
    return bins == heavy_n && placed == balls && p.total_balls() == balls;
}

/// Everything one pass produces that the checks and metrics read.
struct campaign {
    kdc::core::ff_split split;
    std::optional<kdc::core::level_profile> synthesized;
    std::optional<kdc::core::kd_choice_level_process> stage1;
    std::string snapshot;
    std::optional<kdc::core::level_profile> loaded;
    std::optional<kdc::core::any_process> stage2;
    std::vector<double> stage2_gaps; ///< after each stage-2 chunk
};

} // namespace

void run_heavy_staged(run_state& run) {
    std::optional<double> gap; // of the first pass
    double messages_per_ball = 0.0;
    bool deterministic = true;
    const std::uint64_t seed = run.opts.seed;

    const auto pass = [&](pass_context& p) {
        const pool_spinup pool(p);
        kdc::core::scenario stage1_sc;
        kdc::core::scenario stage2_sc;
        kdc::core::ff_plan stage1_plan;
        kdc::core::ff_plan stage2_plan;
        campaign c;
        p.setup(
            [&](std::uint64_t) {
                stage1_sc = kdc::core::parse_scenario(
                    heavy_scenario("warmup=ff", stage1_balls));
                stage2_sc = kdc::core::parse_scenario(
                    heavy_scenario("par=round", stage2_balls));
                kdc::core::validate_scenario(stage1_sc);
                kdc::core::validate_scenario(stage2_sc);
                stage1_plan = kdc::core::plan_fast_forward(stage1_sc);
                stage2_plan = kdc::core::plan_fast_forward(stage2_sc);
                c.split = kdc::core::fast_forward_split(
                    stage1_sc, kdc::core::resolved_balls(stage1_sc));
            },
            setup_trials);

        pass_outcome out;
        out.work = static_cast<double>(stage1_balls + stage2_balls);
        out.ops = 2.0;
        std::string error;
        p.measure([&](std::uint64_t parent) {
            try {
                {
                    const scoped_span s(p.spans(), "steady_state.profile",
                                        parent);
                    c.synthesized = kdc::core::steady_state_profile(
                        stage1_sc, stage1_plan, c.split.ff_balls,
                        kdc::rng::derive_seed(seed, 1));
                }
                {
                    const scoped_span s(p.spans(), "kernel.level.run_balls",
                                        parent);
                    c.stage1.emplace(*c.synthesized, heavy_k, heavy_d,
                                     kdc::rng::derive_seed(seed, 2));
                    c.stage1->run_balls(c.split.settle_balls);
                }
                {
                    const scoped_span s(p.spans(), "snapshot.save", parent);
                    std::ostringstream bytes;
                    c.stage1->profile().save(bytes);
                    c.snapshot = std::move(bytes).str();
                }
                {
                    const scoped_span s(p.spans(), "snapshot.load", parent);
                    std::istringstream bytes(c.snapshot);
                    c.loaded = kdc::core::level_profile::load(bytes);
                }
                {
                    const scoped_span s(p.spans(),
                                        "kernel.sharded_level.run_balls",
                                        parent);
                    c.stage2.emplace(kdc::core::make_settled_process(
                        stage2_sc, stage2_plan, *c.loaded,
                        kdc::rng::derive_seed(seed, 3)));
                    c.stage2->use_pool(&pool.get());
                    for (std::uint64_t i = 0; i < stage2_chunks; ++i) {
                        c.stage2->run_balls(stage2_balls / stage2_chunks);
                        c.stage2_gaps.push_back(c.stage2->observe().gap);
                    }
                }
            } catch (const std::exception& e) {
                error = e.what();
            }
        });
        if (!error.empty() || !c.stage2) {
            run.checks.failed_operations(2, "heavy_staged threw: " + error);
            return out;
        }

        // Stage 1: exact conservation of the synthesized and settled
        // profiles, the probe count of the settle suffix, the snapshot
        // round trip and the Theorem 2 sandwich on the stage's gap.
        const auto& p1 = c.stage1->profile();
        const double gap1 =
            static_cast<double>(p1.max_level()) -
            static_cast<double>(stage1_balls) / static_cast<double>(heavy_n);
        run.checks.operation(
            conserves(*c.synthesized, c.split.ff_balls) &&
                conserves(p1, stage1_balls) &&
                c.stage1->balls_placed() == c.split.settle_balls &&
                c.stage1->messages() ==
                    c.split.settle_balls / heavy_k * heavy_d &&
                *c.loaded == p1 &&
                in_theorem2_sandwich(heavy_n, heavy_k, heavy_d, gap1),
            "heavy_staged stage 1: gap " + std::to_string(gap1));

        // Stage 2: the resumed state conserves n bins and 36n balls, and
        // every checkpoint's gap lies in the sandwich.
        const auto obs = c.stage2->observe();
        bool sandwiched = true;
        double gap_sum = gap1;
        for (const double g : c.stage2_gaps) {
            sandwiched = sandwiched &&
                         in_theorem2_sandwich(heavy_n, heavy_k, heavy_d, g);
            gap_sum += g;
        }
        // The paper's load axis over the campaign: the mean gap over the
        // stage-1 end and every stage-2 checkpoint. One final gap flips
        // between integers from seed to seed; the mean does not.
        const double campaign_gap =
            gap_sum / static_cast<double>(c.stage2_gaps.size() + 1);
        const std::vector<double> loads = c.stage2->sorted_loads();
        double total = 0.0;
        for (const double load : loads) {
            total += load;
        }
        run.checks.operation(
            obs.balls_placed == stage2_balls &&
                obs.messages == stage2_balls / heavy_k * heavy_d &&
                loads.size() == heavy_n &&
                total == static_cast<double>(stage1_balls + stage2_balls) &&
                sandwiched,
            "heavy_staged stage 2: gap " + std::to_string(obs.gap) +
                ", placed " + std::to_string(obs.balls_placed));

        if (!gap) {
            gap = campaign_gap;
            // Probe messages of the simulated balls; the fast-forwarded
            // prefix issues none and is excluded.
            messages_per_ball =
                static_cast<double>(c.stage1->messages() + obs.messages) /
                static_cast<double>(c.split.settle_balls + stage2_balls);
        } else {
            deterministic = deterministic && *gap == campaign_gap;
        }
        if (p.traced()) {
            run.per_layer.add("snapshot.bytes",
                              static_cast<double>(c.snapshot.size()), "bytes");
            run.per_layer.add("steady_state.ff_balls",
                              static_cast<double>(c.split.ff_balls), "balls");
            run.per_layer.add("steady_state.settle_balls",
                              static_cast<double>(c.split.settle_balls),
                              "balls");
            run.per_layer.add("kernel.level.balls",
                              static_cast<double>(c.split.settle_balls),
                              "balls");
            run.per_layer.add("kernel.sharded_level.balls",
                              static_cast<double>(stage2_balls), "balls");
        }
        return out;
    };

    const pass_samples samples = run_passes(run, pass);
    run.checks.run_check(deterministic,
                         "heavy_staged: passes with one seed disagree");

    add_common_end_to_end(run, samples);
    run.end_to_end.add("gap", gap.value_or(0.0), "balls");
    run.end_to_end.add("messages_per_ball", messages_per_ball, "msgs/ball");

    if (!run.opts.trace) {
        return;
    }
    add_trace_metrics(run, samples);
    const double traced_passes = static_cast<double>(
        span_durations(run.spans, "snapshot.save").size());
    const auto per_pass = [&](const char* name) {
        return traced_passes > 0 ? span_seconds(run.spans, name) /
                                       traced_passes
                                 : 0.0;
    };
    run.per_layer.add("steady_state.profile_s",
                      per_pass("steady_state.profile"), "s");
    run.per_layer.add("kernel.level.run_s",
                      per_pass("kernel.level.run_balls"), "s");
    run.per_layer.add("snapshot.save_s", per_pass("snapshot.save"), "s");
    run.per_layer.add("snapshot.load_s", per_pass("snapshot.load"), "s");
    run.per_layer.add("kernel.sharded_level.run_s",
                      per_pass("kernel.sharded_level.run_balls"), "s");
}

} // namespace perfbench
