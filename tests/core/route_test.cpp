// The route table (resolve_route) against an explicit specification: every
// registered family x kernel= x par= x warmup= x replacement= combination
// either throws one of the documented routing cli_errors or resolves to
// one of the family's expected routes, and every resolved route builds —
// through make_process and through make_scenario_cell — exactly the
// repetition of the kernel constructed directly, by hand, at tiny n.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/baselines.hpp"
#include "core/level_process.hpp"
#include "core/process.hpp"
#include "core/scenario.hpp"
#include "core/sharded_kernel.hpp"
#include "core/steady_state.hpp"
#include "core/weighted.hpp"
#include "support/cli.hpp"

using namespace kdc::core;

namespace {

constexpr std::uint64_t tiny_n = 64;
constexpr std::uint64_t tiny_balls = 4 * tiny_n; // heavy enough to fast-forward

route make_route(std::string policy, kernel_kind kernel, bool sharded,
                 std::optional<steady_shape> fast_forward = std::nullopt) {
    return route{std::move(policy), kernel, sharded, fast_forward};
}

/// Every route each family may resolve to, written out by hand.
const std::map<std::string, std::vector<route>>& expected_routes() {
    static const std::map<std::string, std::vector<route>> routes{
        {"kd",
         {make_route("kd", kernel_kind::per_bin, false),
          make_route("kd", kernel_kind::per_bin, true),
          make_route("kd", kernel_kind::level, false),
          make_route("kd", kernel_kind::level, false, steady_shape::kd)}},
        {"single",
         {make_route("single", kernel_kind::per_bin, false),
          make_route("single", kernel_kind::level, false),
          make_route("single", kernel_kind::level, false,
                     steady_shape::single)}},
        {"dchoice",
         {make_route("dchoice", kernel_kind::per_bin, false),
          make_route("dchoice", kernel_kind::level, false),
          make_route("dchoice", kernel_kind::level, false,
                     steady_shape::dchoice)}},
        {"one_plus_beta",
         {make_route("one_plus_beta", kernel_kind::per_bin, false),
          make_route("one_plus_beta", kernel_kind::level, false),
          make_route("one_plus_beta", kernel_kind::level, false,
                     steady_shape::one_plus_beta)}},
        {"weighted",
         {make_route("weighted", kernel_kind::per_bin, false),
          make_route("weighted", kernel_kind::level, false)}},
        {"greedy", {make_route("greedy", kernel_kind::per_bin, false)}},
        {"threshold", {make_route("threshold", kernel_kind::per_bin, false)}},
    };
    return routes;
}

/// How many of a family's 24 combinations are valid, counted by hand from
/// the grammar's rules (docs/scenario-grammar.md).
const std::map<std::string, int>& expected_valid_counts() {
    static const std::map<std::string, int> counts{
        // with: perbin x {rep, round} (full only) + {level, auto} x
        // {rep, round} x {full, ff}; without: {perbin, auto}, rep, full.
        {"kd", 12},
        // with, rep only: perbin full + {level, auto} x {full, ff}.
        {"single", 5},
        {"dchoice", 5},
        {"one_plus_beta", 5},
        // with, rep, full only: perbin + level + auto.
        {"weighted", 3},
        // with, rep, full only: perbin + auto.
        {"greedy", 2},
        {"threshold", 2},
    };
    return counts;
}

/// The routing cli_errors docs/scenario-grammar.md lists.
bool documented_routing_error(const std::string& message) {
    static const std::vector<std::string> documented{
        "' only supports replacement=with",
        "' has no level-compressed kernel; kernel=level supports: ",
        "par=round (the sharded round-parallel kernel) supports the 'kd' "
        "family only",
        "par=round replays the with-replacement probe tape",
        "kernel=level simulates the paper's with-replacement probes",
        "warmup=ff jump-starts a level profile",
        "warmup=ff knows the steady-state shape",
    };
    return std::any_of(documented.begin(), documented.end(),
                       [&](const std::string& text) {
                           return message.find(text) != std::string::npos;
                       });
}

/// The repetition of the kernel the route names, constructed directly.
template <typename P>
repetition_result observe_run(P process) {
    any_process handle(std::move(process));
    handle.run_balls(tiny_balls);
    return to_repetition_result(handle.observe());
}

repetition_result direct_rep(const scenario& sc, const route& r,
                             std::uint64_t seed) {
    const std::uint64_t n = sc.n;
    if (r.fast_forward) {
        return observe_run(fast_forwarded_process(sc, r, seed));
    }
    const bool level = r.kernel == kernel_kind::level;
    if (r.policy == "kd") {
        if (level) {
            return observe_run(kd_choice_level_process(n, sc.k, sc.d, seed));
        }
        if (r.sharded) {
            return observe_run(sharded_kd_process(n, sc.k, sc.d, seed));
        }
        kd_choice_process process(n, sc.k, sc.d, seed);
        process.set_probe_mode(sc.replacement);
        return observe_run(std::move(process));
    }
    if (r.policy == "single") {
        return level ? observe_run(single_choice_level_process(n, seed))
                     : observe_run(single_choice_process(n, seed));
    }
    if (r.policy == "dchoice") {
        return level ? observe_run(d_choice_level_process(n, sc.d, seed))
                     : observe_run(d_choice_process(n, sc.d, seed));
    }
    if (r.policy == "one_plus_beta") {
        return level
                   ? observe_run(one_plus_beta_level_process(n, sc.beta, seed))
                   : observe_run(one_plus_beta_process(n, sc.beta, seed));
    }
    if (r.policy == "weighted") {
        return level ? observe_run(weighted_kd_level_process(
                           n, sc.k, sc.d, seed, unit_weights()))
                     : observe_run(weighted_kd_process(n, sc.k, sc.d, seed,
                                                       unit_weights()));
    }
    if (r.policy == "greedy") {
        return observe_run(batched_greedy_process(n, sc.k, sc.d, seed));
    }
    return observe_run(adaptive_threshold_process(
        n, sc.threshold, static_cast<std::uint32_t>(sc.cap), seed));
}

bool same_rep(const repetition_result& a, const repetition_result& b) {
    return a.max_load == b.max_load && a.gap == b.gap &&
           a.messages == b.messages && a.empty_bins == b.empty_bins;
}

} // namespace

TEST(Route, EveryCombinationResolvesOrThrowsItsDocumentedError) {
    const auto& routes = expected_routes();
    std::vector<std::string> families = policy_registry::instance().names();
    ASSERT_EQ(families.size(), routes.size()) << "a family lacks a spec";

    for (const auto& family : families) {
        ASSERT_TRUE(routes.count(family)) << family;
        int valid = 0;
        for (const char* kernel : {"perbin", "level", "auto"}) {
            for (const char* par : {"rep", "round"}) {
                for (const char* warmup : {"full", "ff"}) {
                    for (const char* replacement : {"with", "without"}) {
                        const std::string text =
                            family + ":n=64,k=2,d=4,kernel=" + kernel +
                            ",par=" + par + ",warmup=" + warmup +
                            ",replacement=" + replacement;
                        scenario sc;
                        try {
                            sc = parse_scenario(text);
                        } catch (const kdc::cli_error& err) {
                            EXPECT_TRUE(documented_routing_error(err.what()))
                                << text << ": " << err.what();
                            continue;
                        }
                        ++valid;
                        const route r = resolve_route(sc);
                        const auto& allowed = routes.at(family);
                        EXPECT_NE(std::find(allowed.begin(), allowed.end(),
                                            r),
                                  allowed.end())
                            << text;
                    }
                }
            }
        }
        EXPECT_EQ(valid, expected_valid_counts().at(family)) << family;
    }
}

TEST(Route, EveryResolvedRouteBuildsItsKernelExactly) {
    for (const auto& family : policy_registry::instance().names()) {
        for (const char* kernel : {"perbin", "level", "auto"}) {
            for (const char* par : {"rep", "round"}) {
                for (const char* warmup : {"full", "ff"}) {
                    const std::string text =
                        family + ":n=64,k=2,d=4,kernel=" + kernel +
                        ",par=" + par + ",warmup=" + warmup;
                    scenario sc;
                    try {
                        sc = parse_scenario(text);
                    } catch (const kdc::cli_error&) {
                        continue; // covered by the test above
                    }
                    const route r = resolve_route(sc);
                    constexpr std::uint64_t seed = 29;
                    const auto direct = direct_rep(sc, r, seed);

                    auto process = make_process(sc, seed);
                    process.run_balls(tiny_balls);
                    EXPECT_TRUE(same_rep(
                        direct, to_repetition_result(process.observe())))
                        << text << " via make_process";

                    const auto cell = make_scenario_cell(
                        "cell", sc,
                        {.balls = tiny_balls, .reps = 1, .seed = 1});
                    EXPECT_TRUE(same_rep(direct, cell.run_rep(seed)))
                        << text << " via make_scenario_cell";
                }
            }
        }
    }
}

TEST(Route, WithoutReplacementReachesThePerBinKdKernel) {
    const auto sc = parse_scenario("kd:n=64,k=2,d=4,replacement=without");
    const route r = resolve_route(sc);
    EXPECT_EQ(r, make_route("kd", kernel_kind::per_bin, false));
    auto process = make_process(sc, 5);
    process.run_balls(tiny_balls);
    EXPECT_TRUE(same_rep(direct_rep(sc, r, 5),
                         to_repetition_result(process.observe())));
}

TEST(Route, ParRoundOnTheLevelKernelIgnoresShardsAndSelpar) {
    // The level kernel's rounds are serial, so par=round routes to the
    // plain level kernel and shards=/selpar= change nothing.
    kd_choice_level_process reference(10'000, 3, 8, 77);
    reference.run_balls(3 * 10'000);
    const auto sorted = reference.profile().to_sorted_loads();
    const std::vector<double> expected(sorted.begin(), sorted.end());
    for (const char* keys : {"", ",shards=1", ",shards=4,selpar=7",
                             ",shards=64,selpar=1"}) {
        const auto sc = parse_scenario(
            std::string("kd:n=10000,k=3,d=8,kernel=level,par=round") + keys);
        EXPECT_EQ(resolve_route(sc),
                  make_route("kd", kernel_kind::level, false))
            << keys;
        auto process = make_process(sc, 77);
        process.run_balls(3 * 10'000);
        EXPECT_EQ(process.sorted_loads(), expected) << keys;
        EXPECT_EQ(process.observe().messages, reference.messages()) << keys;
    }
}

TEST(Route, FastForwardPlanIsTheRouteOfTheWarmupFfTwin) {
    const auto full = parse_scenario("kd:n=1024,k=2,d=4,par=round");
    auto ff = full;
    ff.warmup = warmup_mode::fast_forward;
    EXPECT_EQ(plan_fast_forward(full), resolve_route(ff));
    EXPECT_EQ(plan_fast_forward(full),
              make_route("kd", kernel_kind::level, false, steady_shape::kd));
}
