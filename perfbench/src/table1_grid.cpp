// table1_grid: the paper's Table 1. Every valid (k,d) cell of the
// table1_maxload grid at n = 3 * 2^16 on the per-bin kernel, built with
// make_scenario_cell and run by run_sweep on one 4-thread pool. Hundreds of
// short repetitions of unequal cost, each with an L2-sized working set:
// engine scheduling and the per-bin round kernel do almost all the work.
#include <cmath>
#include <vector>

#include "core/kdchoice.hpp"
#include "rng/splitmix64.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t grid_n = 3 * (std::uint64_t{1} << 16);
/// Repetitions per cell in one pass.
constexpr std::uint32_t grid_reps = 2;

const std::uint64_t k_values[] = {1,  2,  3,  4,  6,   8,   12, 16,
                                  24, 32, 48, 64, 96, 128, 192};
const std::uint64_t d_values[] = {1, 2, 3, 5, 9, 17, 25, 49, 65, 193};

struct grid_cell {
    std::uint64_t k = 0;
    std::uint64_t d = 0;
    std::string text; ///< the generated scenario string
};

std::vector<grid_cell> table1_cells() {
    std::vector<grid_cell> cells;
    for (const std::uint64_t k : k_values) {
        for (const std::uint64_t d : d_values) {
            // d = 1, k = 1 is the single-choice column; k >= d is undefined.
            if (k >= d && !(d == 1 && k == 1)) {
                continue;
            }
            cells.push_back({k, d,
                             "kd:n=" + std::to_string(grid_n) +
                                 ",k=" + std::to_string(k) +
                                 ",d=" + std::to_string(d) +
                                 ",kernel=perbin"});
        }
    }
    return cells;
}

} // namespace

void run_table1_grid(run_state& run) {
    const std::vector<grid_cell> grid = table1_cells();
    std::vector<kdc::core::repetition_result> first_pass;
    double gap_sum = 0.0;
    double messages = 0.0;
    double balls = 0.0;
    std::uint64_t reps_per_pass = 0;
    bool deterministic = true;

    const auto pass = [&](pass_context& p) {
        const pool_spinup pool(p);
        std::vector<kdc::core::sweep_cell> cells;
        // Parent of the traced repetition spans: the run_sweep span.
        std::uint64_t sweep_span = 0;
        p.setup(
            [&](std::uint64_t) {
                cells.reserve(grid.size());
                for (std::size_t i = 0; i < grid.size(); ++i) {
                    const auto sc = kdc::core::parse_scenario(grid[i].text);
                    cells.push_back(kdc::core::make_scenario_cell(
                        kd_label(grid[i].k, grid[i].d), sc,
                        {.balls = kdc::core::resolved_balls(sc),
                         .reps = grid_reps,
                         .seed = kdc::rng::derive_seed(run.opts.seed, i)}));
                }
            },
            setup_trials, [&] { cells.clear(); });
        if (p.traced()) {
            for (auto& cell : cells) {
                cell.run_rep = [inner = std::move(cell.run_rep),
                                &spans = p.spans(),
                                &sweep_span](std::uint64_t seed) {
                    const scoped_span s(spans, "kernel.perbin.rep",
                                        sweep_span);
                    return inner(seed);
                };
            }
        }

        std::vector<kdc::core::sweep_outcome> outcomes;
        bool threw = false;
        p.measure([&](std::uint64_t parent) {
            const scoped_span s(p.spans(), "engine.run_sweep", parent);
            sweep_span = s.id();
            try {
                outcomes = kdc::core::run_sweep(pool.get(), cells);
            } catch (const std::exception& e) {
                threw = true;
                run.checks.failed_operations(grid.size() * grid_reps,
                                             std::string("run_sweep threw: ") +
                                                 e.what());
            }
        });

        pass_outcome out;
        out.work = static_cast<double>(grid.size() * grid_reps * grid_n);
        out.ops = static_cast<double>(grid.size() * grid_reps);
        if (threw) {
            return out;
        }
        std::vector<kdc::core::repetition_result> this_pass;
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            const auto& [k, d, text] = grid[i];
            for (const auto& rep : outcomes[i].result.reps) {
                // Every ball sits in a bin: mean load = max - gap = m/n.
                const double placed =
                    (static_cast<double>(rep.max_load) - rep.gap) *
                    static_cast<double>(grid_n);
                const bool ok =
                    std::llround(placed) == static_cast<long long>(grid_n) &&
                    rep.messages == (grid_n / k) * d &&
                    in_theorem1_envelope(grid_n, k, d, rep.max_load);
                run.checks.operation(
                    ok, text + ": placed " + std::to_string(placed) +
                            ", messages " + std::to_string(rep.messages) +
                            ", max load " + std::to_string(rep.max_load));
                this_pass.push_back(rep);
            }
        }
        if (first_pass.empty()) {
            first_pass = this_pass;
            reps_per_pass = this_pass.size();
            for (const auto& rep : this_pass) {
                gap_sum += rep.gap;
                messages += static_cast<double>(rep.messages);
            }
            balls = static_cast<double>(reps_per_pass * grid_n);
        } else {
            deterministic = deterministic && this_pass.size() ==
                                                 first_pass.size();
            for (std::size_t i = 0; deterministic && i < this_pass.size();
                 ++i) {
                deterministic = this_pass[i].max_load ==
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
                         "table1_grid: passes with one seed disagree");

    add_common_end_to_end(run, samples);
    run.end_to_end.add("gap",
                       reps_per_pass > 0
                           ? gap_sum / static_cast<double>(reps_per_pass)
                           : 0.0,
                       "balls");
    run.end_to_end.add("messages_per_ball",
                       balls > 0 ? messages / balls : 0.0, "msgs/ball");

    if (!run.opts.trace) {
        return;
    }
    add_trace_metrics(run, samples);
    const std::vector<double> rep_s =
        span_durations(run.spans, "kernel.perbin.rep");
    const std::vector<double> sweep_s =
        span_durations(run.spans, "engine.run_sweep");
    const double traced_passes = static_cast<double>(sweep_s.size());
    double busy = 0.0;
    for (const double s : rep_s) {
        busy += s;
    }
    double wall = 0.0;
    for (const double s : sweep_s) {
        wall += s;
    }
    const tail_value tail = tail_of(rep_s);
    run.per_layer.add("engine.reps",
                      traced_passes > 0
                          ? static_cast<double>(rep_s.size()) / traced_passes
                          : 0.0,
                      "count");
    run.per_layer.add("engine.busy_s",
                      traced_passes > 0 ? busy / traced_passes : 0.0, "s");
    run.per_layer.add("engine.idle_frac",
                      wall > 0 ? 1.0 - busy / (wall * bench_threads) : 0.0,
                      "ratio");
    run.per_layer.add("engine.rep_s_p50", median(rep_s), "s");
    run.per_layer.add("engine.rep_s_tail", tail.value, "s");
    run.per_layer.add("engine.rep_s_tail_pct", tail.percentile, "pct");
    run.per_layer.add("kernel.perbin.balls_per_busy_s",
                      busy > 0 ? static_cast<double>(rep_s.size()) *
                                     static_cast<double>(grid_n) / busy
                               : 0.0,
                      "balls/s");
}

} // namespace perfbench
