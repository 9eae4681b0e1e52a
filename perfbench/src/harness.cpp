#include "harness.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

double seconds_between(bench_clock::time_point from,
                       bench_clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

tracer::tracer() : origin_(bench_clock::now()) {}

double tracer::now() const {
    return seconds_between(origin_, bench_clock::now());
}

std::uint64_t tracer::next_id() {
    return enabled() ? next_id_.fetch_add(1, std::memory_order_relaxed) : 0;
}

void tracer::record(const span& s) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(s);
}

scoped_span::scoped_span(tracer& t, const char* name, std::uint64_t parent)
    : tracer_(t) {
    span_.id = t.next_id();
    if (span_.id != 0) {
        span_.parent = parent;
        span_.name = name;
        span_.start = t.now();
    }
}

scoped_span::~scoped_span() {
    if (span_.id != 0) {
        span_.end = tracer_.now();
        tracer_.record(span_);
    }
}

namespace {

/// Layer of a span name: the text before its last dot.
std::string layer_of(const char* name) {
    const char* dot = std::strrchr(name, '.');
    return dot == nullptr ? std::string(name)
                          : std::string(name, static_cast<std::size_t>(
                                                  dot - name));
}

using interval = std::pair<double, double>;

/// Sorts and merges overlapping intervals.
std::vector<interval> merged(std::vector<interval> in) {
    std::sort(in.begin(), in.end());
    std::vector<interval> out;
    for (const interval& iv : in) {
        if (!out.empty() && iv.first <= out.back().second) {
            out.back().second = std::max(out.back().second, iv.second);
        } else {
            out.push_back(iv);
        }
    }
    return out;
}

/// Total time covered by the union of `intervals` inside the union of
/// `windows`.
double covered_seconds(std::vector<interval> intervals,
                       std::vector<interval> windows) {
    const std::vector<interval> a = merged(std::move(intervals));
    const std::vector<interval> b = merged(std::move(windows));
    double total = 0.0;
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() && j < b.size()) {
        const double lo = std::max(a[i].first, b[j].first);
        const double hi = std::min(a[i].second, b[j].second);
        total += std::max(0.0, hi - lo);
        if (a[i].second < b[j].second) {
            ++i;
        } else {
            ++j;
        }
    }
    return total;
}

} // namespace

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

pass_context::pass_context(tracer& t, std::uint64_t pass_span)
    : tracer_(t), pass_span_(pass_span) {}

void pass_context::setup(
    const std::function<void(std::uint64_t parent)>& body, int trials,
    const std::function<void()>& reset) {
    std::vector<double> times;
    for (int trial = 0; trial < trials; ++trial) {
        if (trial > 0 && reset) {
            reset();
        }
        const auto start = bench_clock::now();
        {
            const scoped_span s(tracer_, "setup", pass_span_);
            body(s.id());
        }
        times.push_back(seconds_between(start, bench_clock::now()));
    }
    setup_s_ += median(std::move(times));
}

void pass_context::measure(
    const std::function<void(std::uint64_t parent)>& body) {
    const auto start = bench_clock::now();
    {
        const scoped_span s(tracer_, "measure", pass_span_);
        body(s.id());
    }
    measured_s_ += seconds_between(start, bench_clock::now());
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

void check_ledger::log(const std::string& what) {
    if (logged_ < 10) {
        std::cerr << "check failed: " << what << '\n';
    }
    ++logged_;
}

void check_ledger::operation(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
        ++failed_;
        log(what);
    }
}

void check_ledger::failed_operations(std::uint64_t count,
                                     const std::string& what) {
    attempted_ += count;
    failed_ += count;
    log(what);
}

void check_ledger::run_check(bool ok, const std::string& what) {
    if (!ok) {
        run_checks_ok_ = false;
        log(what);
    }
}

void metric_sink::add(std::string name, double value, std::string unit) {
    for (metric& m : metrics_) {
        if (m.name == name) {
            m.value = value;
            m.unit = std::move(unit);
            return;
        }
    }
    metrics_.push_back({std::move(name), value, std::move(unit)});
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

double median(std::vector<double> values) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 == 1 ? values[mid]
                                  : 0.5 * (values[mid - 1] + values[mid]);
}

tail_value tail_of(std::vector<double> values) {
    tail_value out;
    if (values.empty()) {
        return out;
    }
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    for (const double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
        if (n * (1.0 - p / 100.0) >= 10.0 || p == 50.0) {
            // Nearest rank: the smallest sample with at least p% at or
            // below it.
            const auto rank = static_cast<std::size_t>(
                std::ceil(p / 100.0 * n));
            out.percentile = p;
            out.value = values[std::clamp<std::size_t>(rank, 1,
                                                       values.size()) -
                               1];
            return out;
        }
    }
    return out;
}

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

pass_samples
run_passes(run_state& run,
           const std::function<pass_outcome(pass_context&)>& pass) {
    constexpr int min_passes = 3;
    // Never start a pass that could push the process past this budget.
    constexpr double hard_limit_s = 150.0;
    const auto start = bench_clock::now();
    pass_samples out;
    int untraced = 0;
    int traced = 0;
    double longest = 0.0;
    for (int i = 0;; ++i) {
        const bool trace_this = run.opts.trace && i % 2 == 1;
        run.spans.set_enabled(trace_this);
        const auto pass_start = bench_clock::now();
        pass_outcome o;
        double setup_s = 0.0;
        double measured_s = 0.0;
        {
            const scoped_span root(run.spans, "pass", 0);
            pass_context ctx(run.spans, root.id());
            o = pass(ctx);
            setup_s = ctx.setup_seconds();
            measured_s = ctx.measured_seconds();
        }
        run.spans.set_enabled(false);
        longest = std::max(longest,
                           seconds_between(pass_start, bench_clock::now()));
        std::cerr << "pass " << i << (trace_this ? " traced" : "")
                  << ": setup " << setup_s << " s, measured " << measured_s
                  << " s\n";
        if (trace_this) {
            out.traced_measured_s.push_back(measured_s);
            ++traced;
        } else {
            out.setup_s.push_back(setup_s);
            out.measured_s.push_back(measured_s);
            out.work_per_s.push_back(o.work / measured_s);
            out.ops_per_s.push_back(o.ops / measured_s);
            ++untraced;
        }
        const double elapsed = seconds_between(start, bench_clock::now());
        // A traced run needs one pass of each kind; its end-to-end
        // numbers are not reported.
        const bool enough =
            run.opts.trace ? traced >= 1 && traced >= untraced
                           : untraced >= min_passes;
        if ((enough && elapsed >= run.opts.seconds) ||
            (untraced >= 1 && elapsed + longest > hard_limit_s)) {
            break;
        }
    }
    return out;
}

void add_common_end_to_end(run_state& run, const pass_samples& samples) {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double attempted = static_cast<double>(run.checks.attempted());
    const double failed = static_cast<double>(run.checks.failed());
    run.end_to_end.add("setup_s", median(samples.setup_s), "s");
    run.end_to_end.add("balls_per_s", median(samples.work_per_s), "balls/s");
    run.end_to_end.add("requests_per_s", median(samples.ops_per_s), "req/s");
    run.end_to_end.add("peak_rss_mib",
                       static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB");
    run.end_to_end.add("ok_frac",
                       attempted > 0 ? 1.0 - failed / attempted : 0.0,
                       "ratio");
}

std::vector<double> span_durations(const tracer& t, const char* name) {
    std::vector<double> out;
    for (const span& s : t.spans()) {
        if (std::strcmp(s.name, name) == 0) {
            out.push_back(s.end - s.start);
        }
    }
    return out;
}

double span_seconds(const tracer& t, const char* name) {
    double total = 0.0;
    for (const double d : span_durations(t, name)) {
        total += d;
    }
    return total;
}

void add_trace_metrics(run_state& run, const pass_samples& samples) {
    // The layers whose spans a measured block can hold.
    static const char* const layers[] = {
        "engine",       "kernel.perbin", "kernel.sharded",
        "kernel.level", "steady_state",  "kernel.sharded_level",
        "snapshot",     "serve",
    };
    const std::vector<span>& spans = run.spans.spans();
    std::vector<interval> windows;
    std::vector<std::uint64_t> window_ids;
    double window_total = 0.0;
    for (const span& s : spans) {
        if (std::strcmp(s.name, "measure") == 0) {
            windows.emplace_back(s.start, s.end);
            window_ids.push_back(s.id);
            window_total += s.end - s.start;
        }
    }
    std::sort(window_ids.begin(), window_ids.end());

    for (const char* layer : layers) {
        std::vector<interval> own;
        for (const span& s : spans) {
            if (layer_of(s.name) == layer) {
                own.emplace_back(s.start, s.end);
            }
        }
        const double covered = covered_seconds(std::move(own), windows);
        run.per_layer.add(std::string("share.") + layer,
                          window_total > 0 ? covered / window_total : 0.0,
                          "ratio");
    }

    // Coverage: the direct children of every measure span (the layer calls)
    // must account for the measured time, so no layer's time hides in the
    // root.
    double children = 0.0;
    for (const span& s : spans) {
        if (std::binary_search(window_ids.begin(), window_ids.end(),
                               s.parent)) {
            children += s.end - s.start;
        }
    }
    const double coverage = window_total > 0 ? children / window_total : 0.0;
    run.per_layer.add("trace.coverage", coverage, "ratio");
    run.checks.run_check(coverage >= 0.95,
                         "traced child spans cover " +
                             std::to_string(coverage) +
                             " of the measured time (< 0.95)");

    run.per_layer.add("engine.pool_spinup_s",
                      median(span_durations(run.spans, "engine.pool_spinup")),
                      "s");

    const double untraced = median(samples.measured_s);
    const double traced = median(samples.traced_measured_s);
    run.per_layer.add("trace.overhead_frac",
                      untraced > 0 ? traced / untraced - 1.0 : 0.0, "ratio");
}

namespace {

std::string json_escape(const std::string& text) {
    std::string out;
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string json_number(double value) {
    if (!std::isfinite(value)) {
        return "null";
    }
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

void write_metrics(std::ostream& out, const std::vector<metric>& metrics) {
    out << '{';
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        out << (i == 0 ? "" : ", ") << '"' << metrics[i].name
            << "\": {\"value\": " << json_number(metrics[i].value)
            << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    out << '}';
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_leaf = __get_cpuid_max(0x80000000U, nullptr);
    if (max_leaf >= 0x80000004U) {
        for (unsigned i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002U + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string model(brand);
        const auto first = model.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : model.substr(first);
    }
#endif
    return "unknown";
}

long cache_bytes(int name) {
    const long bytes = sysconf(name);
    return bytes > 0 ? bytes : 0;
}

} // namespace

void print_result(std::ostream& out, const run_state& run) {
    const auto& metrics =
        run.opts.trace ? run.per_layer.all() : run.end_to_end.all();
    bool finite = true;
    for (const metric& m : metrics) {
        finite = finite && std::isfinite(m.value);
    }
    out << "{\"correct\": "
        << (run.checks.correct() && finite ? "true" : "false")
        << ", \"attempted\": " << run.checks.attempted()
        << ", \"failed\": " << run.checks.failed() << ", \"metrics\": ";
    write_metrics(out, metrics);
    out << "}\n";
}

void print_provenance(std::ostream& out, const run_state& run) {
#if defined(__clang__)
    const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    const std::string compiler = std::string("gcc ") + __VERSION__;
#else
    const std::string compiler = "unknown";
#endif
    out << "{\"provenance\": {\"cpu_model\": \"" << json_escape(cpu_model())
        << "\", \"nproc\": " << std::thread::hardware_concurrency()
        << ", \"l2_bytes\": " << cache_bytes(_SC_LEVEL2_CACHE_SIZE)
        << ", \"l3_bytes\": " << cache_bytes(_SC_LEVEL3_CACHE_SIZE)
        << ", \"compiler\": \"" << json_escape(compiler)
        << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
        << "\", \"source\": \"" << json_escape(run.opts.source_id)
        << "\", \"workload\": \"" << json_escape(run.opts.workload)
        << "\", \"threads\": " << bench_threads
        << ", \"seed\": " << run.opts.seed
        << ", \"seconds\": " << json_number(run.opts.seconds)
        << ", \"trace\": " << (run.opts.trace ? 1 : 0) << "}}\n";
}

void write_trace_file(const run_state& run) {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(run.opts.out_dir, ec);
    const fs::path path = fs::path(run.opts.out_dir) /
                          (run.opts.workload + "-seed" +
                           std::to_string(run.opts.seed) + "-trace.json");
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot write trace file " << path << '\n';
        return;
    }
    std::ostringstream provenance;
    print_provenance(provenance, run);
    std::string prov = provenance.str();
    prov.pop_back(); // trailing newline
    out << "{\"provenance_line\": " << prov << ",\n\"per_layer\": ";
    write_metrics(out, run.per_layer.all());
    out << ",\n\"spans\": [\n";
    const auto& spans = run.spans.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const span& s = spans[i];
        out << "  {\"id\": " << s.id << ", \"parent\": " << s.parent
            << ", \"name\": \"" << s.name
            << "\", \"start\": " << json_number(s.start)
            << ", \"end\": " << json_number(s.end) << '}'
            << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]}\n";
}

} // namespace perfbench
