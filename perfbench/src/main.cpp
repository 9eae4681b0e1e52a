// kdc_perfbench: runs one named workload of the benchmark and prints its
// metrics as the last line of stdout.
//
//   kdc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--out-dir <dir>] [--source <commit or digest>]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics of a traced run and writes its spans under --out-dir. Workloads:
// table1_grid, big_round, heavy_staged, serve_churn (perfbench/BENCHMARK.md).
#include <cstdlib>
#include <exception>
#include <iostream>
#include <map>
#include <string>

#include "theory/bounds.hpp"
#include "workloads.hpp"

namespace perfbench {

bool in_theorem1_envelope(std::uint64_t n, std::uint64_t k, std::uint64_t d,
                          std::uint64_t max_load) {
    const auto load = static_cast<double>(max_load);
    if (d == 1) {
        return max_load >= 1 &&
               load <= 3.0 * kdc::theory::single_choice_max_load(n);
    }
    const auto bound = kdc::theory::theorem1_bound(n, k, d);
    return load >= bound.first - theorem_slack &&
           load <= bound.total + theorem_slack;
}

bool in_theorem2_sandwich(std::uint64_t n, std::uint64_t k, std::uint64_t d,
                          double gap) {
    const auto bound = kdc::theory::theorem2_bound(n, k, d);
    return gap >= bound.lower - theorem_slack &&
           gap <= bound.upper + theorem_slack;
}

std::string kd_label(std::uint64_t k, std::uint64_t d) {
    return "k=" + std::to_string(k) + ",d=" + std::to_string(d);
}

namespace {

struct metric_spec {
    const char* name;
    const char* unit;
};

/// Every end-to-end metric, in BENCHMARK.json order.
constexpr metric_spec end_to_end_metrics[] = {
    {"setup_s", "s"},          {"balls_per_s", "balls/s"},
    {"requests_per_s", "req/s"}, {"peak_rss_mib", "MiB"},
    {"gap", "balls"},          {"messages_per_ball", "msgs/ball"},
    {"ok_frac", "ratio"},
};

/// Every per-layer metric, in BENCHMARK.json order. A layer that idles on
/// a workload reports 0.
constexpr metric_spec per_layer_metrics[] = {
    {"share.engine", "ratio"},
    {"share.kernel.perbin", "ratio"},
    {"share.kernel.sharded", "ratio"},
    {"share.kernel.sharded_level", "ratio"},
    {"share.kernel.level", "ratio"},
    {"share.steady_state", "ratio"},
    {"share.snapshot", "ratio"},
    {"share.serve", "ratio"},
    {"scenario.make_process_s", "s"},
    {"engine.pool_spinup_s", "s"},
    {"engine.reps", "count"},
    {"engine.busy_s", "s"},
    {"engine.idle_frac", "ratio"},
    {"engine.rep_s_p50", "s"},
    {"engine.rep_s_tail", "s"},
    {"engine.rep_s_tail_pct", "pct"},
    {"kernel.perbin.balls_per_busy_s", "balls/s"},
    {"kernel.sharded.run_s", "s"},
    {"kernel.sharded.pregen_s", "s"},
    {"kernel.sharded.bucket_s", "s"},
    {"kernel.sharded.gather_s", "s"},
    {"kernel.sharded.select_s", "s"},
    {"kernel.sharded.handoff_s", "s"},
    {"kernel.sharded.commit_s", "s"},
    {"kernel.sharded.speedup_1to4", "x"},
    {"kernel.sharded_level.run_s", "s"},
    {"kernel.sharded_level.balls", "balls"},
    {"kernel.level.run_s", "s"},
    {"kernel.level.balls", "balls"},
    {"steady_state.profile_s", "s"},
    {"steady_state.ff_balls", "balls"},
    {"steady_state.settle_balls", "balls"},
    {"snapshot.save_s", "s"},
    {"snapshot.load_s", "s"},
    {"snapshot.bytes", "bytes"},
    {"serve.run_s", "s"},
    {"serve.oracle_s", "s"},
    {"serve.batches", "count"},
    {"serve.batch_size_mean", "req"},
    {"serve.accept_s", "s"},
    {"serve.process_s_p50", "s"},
    {"serve.process_s_tail", "s"},
    {"serve.process_s_tail_pct", "pct"},
    {"serve.messages_per_request", "msgs/req"},
    {"serve.speedup_1to4", "x"},
    {"serve.sim_latency_p50", "sim_time"},
    {"serve.sim_latency_p99", "sim_time"},
    {"serve.sim_latency_p999", "sim_time"},
    {"trace.overhead_frac", "ratio"},
    {"trace.coverage", "ratio"},
};

/// Rebuilds `sink` in the canonical order of `specs`, filling metrics the
/// workload did not report with 0. A reported metric outside the list, or
/// with another unit, fails the run.
template <std::size_t N>
void canonicalize(metric_sink& sink, const metric_spec (&specs)[N],
                  check_ledger& checks) {
    std::map<std::string, metric> reported;
    for (const metric& m : sink.all()) {
        reported[m.name] = m;
    }
    metric_sink ordered;
    for (const metric_spec& spec : specs) {
        const auto it = reported.find(spec.name);
        double value = 0.0;
        if (it != reported.end()) {
            checks.run_check(it->second.unit == spec.unit,
                             std::string("metric ") + spec.name +
                                 " reported in " + it->second.unit);
            value = it->second.value;
            reported.erase(it);
        }
        ordered.add(spec.name, value, spec.unit);
    }
    for (const auto& [name, m] : reported) {
        checks.run_check(false, "metric " + name + " is not declared");
    }
    sink = ordered;
}

[[noreturn]] void usage(const std::string& problem) {
    std::cerr << "kdc_perfbench: " << problem
              << "\nusage: kdc_perfbench --workload "
                 "table1_grid|big_round|heavy_staged|serve_churn --seed N "
                 "--seconds S --trace 0|1 [--out-dir DIR] [--source ID]\n";
    std::exit(2);
}

options parse_options(int argc, char** argv) {
    options opts;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            usage("missing value for " + flag);
        }
        const std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                opts.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                opts.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                opts.seconds = std::stod(value);
                if (!(opts.seconds > 0 && opts.seconds <= 120)) {
                    usage("--seconds must be in (0, 120]");
                }
            } else if (flag == "--trace") {
                if (value != "0" && value != "1") {
                    usage("--trace takes 0 or 1");
                }
                opts.trace = value == "1";
            } else if (flag == "--out-dir") {
                opts.out_dir = value;
            } else if (flag == "--source") {
                opts.source_id = value;
            } else {
                usage("unknown option " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    if (!have_workload) {
        usage("--workload is required");
    }
    return opts;
}

} // namespace

} // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    run_state run;
    run.opts = parse_options(argc, argv);
    const std::map<std::string, void (*)(run_state&)> workloads{
        {"table1_grid", run_table1_grid},
        {"big_round", run_big_round},
        {"heavy_staged", run_heavy_staged},
        {"serve_churn", run_serve_churn},
    };
    const auto it = workloads.find(run.opts.workload);
    if (it == workloads.end()) {
        usage("unknown workload '" + run.opts.workload + "'");
    }
    try {
        it->second(run);
    } catch (const std::exception& e) {
        std::cerr << "kdc_perfbench: workload " << run.opts.workload
                  << " aborted: " << e.what() << '\n';
        return 1;
    }
    canonicalize(run.end_to_end, end_to_end_metrics, run.checks);
    canonicalize(run.per_layer, per_layer_metrics, run.checks);
    if (run.opts.trace) {
        write_trace_file(run);
    }
    print_provenance(std::cout, run);
    print_result(std::cout, run);
    return 0;
}
