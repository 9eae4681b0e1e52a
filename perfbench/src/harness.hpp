// Shared machinery of the benchmark program: options, pass timing, the span
// tracer, the output-check ledger and the metric sink.
//
// A workload is a sequence of identical PASSES. Each pass sets up its
// inputs (timed as set-up), makes its measured library calls (timed as
// measured wall time) and then checks every output (untimed). The program
// repeats passes until the run's time budget is spent and reports medians
// over passes. With --trace 1 the same passes run alternately without and
// with spans, so the per-layer metrics come from traced passes and the
// tracing overhead from the difference between the two kinds.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using bench_clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_between(bench_clock::time_point from,
                                     bench_clock::time_point to);

/// Command-line options of one benchmark process.
struct options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = ".bench_out";   ///< where the traced run writes spans
    std::string source_id = "unknown";    ///< git commit or source digest
};

/// Every workload pins its pool to this many threads (the host's cores).
inline constexpr unsigned bench_threads = 4;

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// One recorded span. `name` is "<layer>.<call>"; the layer is everything
/// before the last dot. Times are seconds since the tracer was created.
struct span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = no parent
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
};

/// In-memory span store. Disabled, every operation is one branch; enabled,
/// spans are appended under a mutex (workers record concurrently).
class tracer {
public:
    tracer();

    void set_enabled(bool on) noexcept {
        enabled_.store(on, std::memory_order_relaxed);
    }
    [[nodiscard]] bool enabled() const noexcept {
        return enabled_.load(std::memory_order_relaxed);
    }

    [[nodiscard]] double now() const;
    /// Reserves a span id (0 when disabled).
    [[nodiscard]] std::uint64_t next_id();
    void record(const span& s);

    [[nodiscard]] const std::vector<span>& spans() const noexcept {
        return spans_;
    }

private:
    std::atomic<bool> enabled_{false};
    bench_clock::time_point origin_;
    std::atomic<std::uint64_t> next_id_{1};
    std::mutex mutex_; // guards spans_
    std::vector<span> spans_;
};

/// RAII span: opened at construction, recorded at destruction.
class scoped_span {
public:
    scoped_span(tracer& t, const char* name, std::uint64_t parent);
    ~scoped_span();
    scoped_span(const scoped_span&) = delete;
    scoped_span& operator=(const scoped_span&) = delete;

    [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

private:
    tracer& tracer_;
    span span_;
};

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

/// Timing context of one pass. `setup` and `measure` time a call and, on a
/// traced pass, wrap it in a span whose parent is the pass's "setup" or
/// "measure" span. Measured blocks contain only library calls.
class pass_context {
public:
    /// `pass_span` is the id of the traced pass's root span (0 untraced).
    pass_context(tracer& t, std::uint64_t pass_span);

    [[nodiscard]] bool traced() const noexcept { return pass_span_ != 0; }
    [[nodiscard]] tracer& spans() noexcept { return tracer_; }
    /// Parent id for spans outside the set-up and measured blocks.
    [[nodiscard]] std::uint64_t pass_span() const noexcept {
        return pass_span_;
    }

    /// Times `body` as set-up. `body` receives the parent id for spans it
    /// opens itself. With `trials` > 1 the set-up is made that many times,
    /// calling `reset` (untimed) before each repeat to release what the
    /// previous trial built, and the median trial counts.
    void setup(const std::function<void(std::uint64_t parent)>& body,
               int trials = 1, const std::function<void()>& reset = {});
    /// Times `body` as measured wall time inside one "measure" span.
    void measure(const std::function<void(std::uint64_t parent)>& body);

    [[nodiscard]] double setup_seconds() const noexcept { return setup_s_; }
    [[nodiscard]] double measured_seconds() const noexcept {
        return measured_s_;
    }

private:
    tracer& tracer_;
    std::uint64_t pass_span_;
    double setup_s_ = 0.0;
    double measured_s_ = 0.0;
};

/// What one pass reports back to the loop (its times are the context's).
struct pass_outcome {
    double work = 0.0; ///< balls the pass asked to place
    double ops = 0.0;  ///< operations attempted (reps, stages, requests)
};

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// Output-check ledger. An operation is a repetition, a stage or a request;
/// it fails when any of its checks fails or when it threw.
class check_ledger {
public:
    /// Counts one operation; `ok` false marks it failed and logs `what`
    /// (the first few failures only) to stderr.
    void operation(bool ok, const std::string& what);
    /// Counts `count` operations that all failed for one reason.
    void failed_operations(std::uint64_t count, const std::string& what);
    /// A whole-run check (determinism across passes, trace coverage).
    void run_check(bool ok, const std::string& what);

    [[nodiscard]] std::uint64_t attempted() const noexcept {
        return attempted_;
    }
    [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
    [[nodiscard]] bool correct() const noexcept {
        return failed_ == 0 && run_checks_ok_;
    }

private:
    void log(const std::string& what);
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool run_checks_ok_ = true;
    int logged_ = 0;
};

struct metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/// Ordered metric sink printed as the result line.
class metric_sink {
public:
    /// Appends a metric, or replaces the value of one already added.
    void add(std::string name, double value, std::string unit);
    [[nodiscard]] const std::vector<metric>& all() const noexcept {
        return metrics_;
    }

private:
    std::vector<metric> metrics_;
};

// ---------------------------------------------------------------------------
// Statistics over samples
// ---------------------------------------------------------------------------

[[nodiscard]] double median(std::vector<double> values);

/// Highest percentile of the ladder 99.99/99.9/99/90/50 that leaves at
/// least ten samples beyond it (50 when the sample is smaller than that).
struct tail_value {
    double percentile = 50.0;
    double value = 0.0;
};
[[nodiscard]] tail_value tail_of(std::vector<double> values);

// ---------------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------------

/// State shared by a workload and main() for one process.
struct run_state {
    options opts;
    tracer spans;
    check_ledger checks;
    metric_sink end_to_end;
    metric_sink per_layer;
};

/// Per-pass samples collected by run_passes.
struct pass_samples {
    std::vector<double> setup_s;
    std::vector<double> measured_s;
    std::vector<double> work_per_s;
    std::vector<double> ops_per_s;
    std::vector<double> traced_measured_s;
};

/// Runs `pass` until the time budget is spent, and at least three times
/// so that the median rejects one pass slowed by the host. Traced runs
/// alternate untraced and traced passes (at least one of each) and keep
/// the untraced ones only for the overhead.
[[nodiscard]] pass_samples
run_passes(run_state& run,
           const std::function<pass_outcome(pass_context&)>& pass);

/// Adds the end-to-end metrics every workload shares: setup_s,
/// balls_per_s, requests_per_s, peak_rss_mib, ok_frac. `gap` and
/// `messages_per_ball` are the workload's own.
void add_common_end_to_end(run_state& run, const pass_samples& samples);

/// Per-layer metrics computed from the spans of traced passes: the share
/// of measured wall time each layer covers (`share.<layer>`), the trace
/// coverage check and the tracing overhead.
void add_trace_metrics(run_state& run, const pass_samples& samples);

/// Sum of the durations of spans named `name` (all traced passes).
[[nodiscard]] double span_seconds(const tracer& t, const char* name);
/// Durations of every span named `name`.
[[nodiscard]] std::vector<double> span_durations(const tracer& t,
                                                 const char* name);

/// Writes the result line (the last line of stdout).
void print_result(std::ostream& out, const run_state& run);
/// Writes the provenance line (host, compiler, build, source, workload).
void print_provenance(std::ostream& out, const run_state& run);
/// Writes spans and per-layer metrics of a traced run under opts.out_dir.
void write_trace_file(const run_state& run);

} // namespace perfbench
