// big_round: one light-load repetition (m = n) at n = 2^23 for each (k,d)
// in {(1,2), (2,4), (8,16)} on kernel=perbin,par=round. All parallelism is
// inside one repetition: the sharded phases and thread_pool::run_phase do
// the work, over 64 MiB of packed bin state that misses the per-core L2 on
// every probe, while the engine does nothing. n is small enough that a
// run holds about ten passes, whose median absorbs the host's contention.
#include <optional>
#include <vector>

#include "core/kdchoice.hpp"
#include "core/thread_pool.hpp"
#include "rng/splitmix64.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t round_n = std::uint64_t{1} << 23;

struct round_cell {
    std::uint64_t k = 0;
    std::uint64_t d = 0;
};
constexpr round_cell round_cells[] = {{1, 2}, {2, 4}, {8, 16}};

std::string round_scenario(const round_cell& cell) {
    return "kd:n=" + std::to_string(round_n) + ",k=" + std::to_string(cell.k) +
           ",d=" + std::to_string(cell.d) + ",kernel=perbin,par=round";
}

std::uint64_t cell_seed(std::uint64_t seed, std::size_t cell) {
    return kdc::rng::derive_seed(seed, cell);
}

struct direct_run {
    double seconds = 0.0;                  ///< summed over the cells
    kdc::core::sharded_phase_times phases; ///< the kernel's own timers
};

/// Runs every cell once on a directly built sharded_kd_process (the route
/// make_process resolves par=round to). `reference` holds the pass's
/// observations, which the direct run must reproduce.
direct_run direct_sharded_run(
    kdc::core::thread_pool* pool, std::uint64_t seed,
    const std::vector<kdc::core::process_observation>& reference,
    check_ledger& checks) {
    direct_run out;
    for (std::size_t i = 0; i < std::size(round_cells); ++i) {
        const auto [k, d] = round_cells[i];
        kdc::core::sharded_kd_process process(round_n, k, d,
                                              cell_seed(seed, i));
        process.use_pool(pool);
        const auto start = bench_clock::now();
        process.run_balls(round_n);
        out.seconds += seconds_between(start, bench_clock::now());
        const auto& t = process.phase_times();
        out.phases.pregen += t.pregen;
        out.phases.bucket += t.bucket;
        out.phases.gather += t.gather;
        out.phases.select += t.select;
        out.phases.handoff += t.handoff;
        out.phases.commit += t.commit;
        const auto metrics = kdc::core::compute_load_metrics(process.loads());
        checks.run_check(
            i < reference.size() &&
                static_cast<double>(metrics.max_load) ==
                    reference[i].max_load &&
                process.messages() == reference[i].messages,
            "big_round: direct sharded_kd_process disagrees with "
            "make_process at " +
                kd_label(k, d) + (pool == nullptr ? " (1 thread)" : ""));
    }
    return out;
}

} // namespace

void run_big_round(run_state& run) {
    std::vector<kdc::core::process_observation> first_pass;
    bool deterministic = true;

    const auto pass = [&](pass_context& p) {
        const pool_spinup pool(p);
        std::vector<kdc::core::scenario> scenarios;
        p.setup(
            [&](std::uint64_t) {
                for (const round_cell& cell : round_cells) {
                    scenarios.push_back(
                        kdc::core::parse_scenario(round_scenario(cell)));
                }
            },
            setup_trials, [&] { scenarios.clear(); });

        pass_outcome out;
        std::vector<kdc::core::process_observation> this_pass;
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
            const auto [k, d] = round_cells[i];
            const std::uint64_t balls =
                kdc::core::resolved_balls(scenarios[i]);
            out.work += static_cast<double>(balls);
            out.ops += 1.0;
            std::optional<kdc::core::any_process> process;
            p.setup([&](std::uint64_t parent) {
                const scoped_span s(p.spans(), "scenario.make_process",
                                    parent);
                process.emplace(kdc::core::make_process(
                    scenarios[i], cell_seed(run.opts.seed, i)));
                process->use_pool(&pool.get());
            });
            std::string error;
            p.measure([&](std::uint64_t parent) {
                const scoped_span s(p.spans(), "kernel.sharded.run_balls",
                                    parent);
                try {
                    process->run_balls(balls);
                } catch (const std::exception& e) {
                    error = e.what();
                }
            });
            if (!error.empty()) {
                run.checks.failed_operations(
                    1, "big_round " + kd_label(k, d) + " threw: " + error);
                this_pass.emplace_back();
                continue;
            }
            const auto obs = process->observe();
            run.checks.operation(
                obs.balls_placed == balls &&
                    obs.messages == (balls / k) * d &&
                    in_theorem1_envelope(
                        round_n, k, d,
                        static_cast<std::uint64_t>(obs.max_load)),
                "big_round " + kd_label(k, d) + ": placed " +
                    std::to_string(obs.balls_placed) + ", messages " +
                    std::to_string(obs.messages) + ", max load " +
                    std::to_string(obs.max_load));
            this_pass.push_back(obs);
        }
        if (first_pass.empty()) {
            first_pass = this_pass;
        } else {
            for (std::size_t i = 0; i < this_pass.size(); ++i) {
                deterministic = deterministic &&
                                this_pass[i].max_load ==
                                    first_pass[i].max_load &&
                                this_pass[i].gap == first_pass[i].gap &&
                                this_pass[i].messages ==
                                    first_pass[i].messages;
            }
        }
        return out;
    };

    const pass_samples samples = run_passes(run, pass);
    run.checks.run_check(deterministic,
                         "big_round: passes with one seed disagree");

    add_common_end_to_end(run, samples);
    double gap = 0.0;
    double messages = 0.0;
    double balls = 0.0;
    for (const auto& obs : first_pass) {
        gap += obs.gap;
        messages += static_cast<double>(obs.messages);
        balls += static_cast<double>(obs.balls_placed);
    }
    const auto reps = static_cast<double>(first_pass.size());
    run.end_to_end.add("gap", reps > 0 ? gap / reps : 0.0, "balls");
    run.end_to_end.add("messages_per_ball",
                       balls > 0 ? messages / balls : 0.0, "msgs/ball");

    if (!run.opts.trace) {
        return;
    }
    add_trace_metrics(run, samples);
    const double traced_passes = static_cast<double>(
        span_durations(run.spans, "kernel.sharded.run_balls").size() /
        std::size(round_cells));
    const auto per_pass = [&](const char* name) {
        return traced_passes > 0 ? span_seconds(run.spans, name) /
                                       traced_passes
                                 : 0.0;
    };
    run.per_layer.add("scenario.make_process_s",
                      per_pass("scenario.make_process"), "s");
    run.per_layer.add("kernel.sharded.run_s",
                      per_pass("kernel.sharded.run_balls"), "s");

    // The kernel's own phase timers, and the plain single-thread baseline,
    // from directly built processes (one repetition per cell each).
    kdc::core::thread_pool pool(bench_threads);
    const direct_run four =
        direct_sharded_run(&pool, run.opts.seed, first_pass, run.checks);
    const direct_run one =
        direct_sharded_run(nullptr, run.opts.seed, first_pass, run.checks);
    run.per_layer.add("kernel.sharded.pregen_s", four.phases.pregen, "s");
    run.per_layer.add("kernel.sharded.bucket_s", four.phases.bucket, "s");
    run.per_layer.add("kernel.sharded.gather_s", four.phases.gather, "s");
    run.per_layer.add("kernel.sharded.select_s", four.phases.select, "s");
    run.per_layer.add("kernel.sharded.handoff_s", four.phases.handoff, "s");
    run.per_layer.add("kernel.sharded.commit_s", four.phases.commit, "s");
    run.per_layer.add("kernel.sharded.speedup_1to4",
                      four.seconds > 0 ? one.seconds / four.seconds : 0.0,
                      "x");
}

} // namespace perfbench
