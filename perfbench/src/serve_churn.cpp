// serve_churn: run_service in batch mode — 2^16 bins, (k,d) = (4,8), 16
// open-loop Poisson clients at utilization 0.85 with churn 0.2, batches of
// at most 64, auto shards, 4 threads. Arrivals are timed in simulated time,
// so in wall-clock terms a pass is a fixed amount of work and the workload
// reports work per second at a stated size. It is the only workload on
// serve/ and sim/; its small batches make pool barriers the main cost.
#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/thread_pool.hpp"
#include "serve/channel.hpp"
#include "serve/dispatcher.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr std::uint64_t serve_requests = 100000;

kdc::serve::service_config serve_config(std::uint64_t seed,
                                        unsigned threads) {
    kdc::serve::service_config config;
    config.bins = std::uint64_t{1} << 16;
    config.k = 4;
    config.d = 8;
    config.mode = kdc::serve::probing::batch;
    config.seed = seed;
    config.clients = 16;
    config.requests = serve_requests;
    config.churn = 0.2;
    config.arrival_rate = 0.85 / config.service_time;
    config.max_batch = 64;
    config.shards = 0;
    config.threads = threads;
    return config;
}

/// The service's id-ordered request stream, rebuilt from the public
/// session schedules exactly as run_service merges them: per-client
/// schedules sorted by (time, client, seq), ids in merged order, release
/// targets mapped from client-local seqs to global ids.
std::vector<kdc::serve::request>
request_stream(const kdc::serve::service_config& config) {
    std::vector<kdc::serve::client_arrival> merged;
    const std::uint64_t base = config.requests / config.clients;
    const std::uint64_t extra = config.requests % config.clients;
    for (std::uint64_t c = 0; c < config.clients; ++c) {
        kdc::serve::session_config sc;
        sc.client = c;
        sc.seed = config.seed;
        sc.rate = config.arrival_rate / static_cast<double>(config.clients);
        sc.arrivals = base + (c < extra ? 1 : 0);
        sc.churn = config.churn;
        const auto schedule = kdc::serve::draw_arrivals(sc);
        merged.insert(merged.end(), schedule.begin(), schedule.end());
    }
    std::sort(merged.begin(), merged.end(),
              [](const auto& a, const auto& b) {
                  return std::tuple{a.at, a.client, a.seq} <
                         std::tuple{b.at, b.client, b.seq};
              });
    std::vector<kdc::serve::request> stream;
    std::unordered_map<std::uint64_t, std::uint64_t> id_of;
    for (std::uint64_t id = 0; id < merged.size(); ++id) {
        const auto& arrival = merged[id];
        kdc::serve::request req;
        req.client = arrival.client;
        req.id = id;
        const std::uint64_t key = (arrival.client << 32);
        if (arrival.kind == kdc::serve::request_kind::release) {
            req.kind = kdc::serve::request_kind::release;
            req.target = id_of.at(key | arrival.target_seq);
        } else {
            id_of.emplace(key | arrival.seq, id);
        }
        stream.push_back(req);
    }
    return stream;
}

std::vector<std::string> log_lines(const std::string& log) {
    std::vector<std::string> lines;
    std::istringstream in(log);
    for (std::string line; std::getline(in, line);) {
        lines.push_back(line);
    }
    return lines;
}

/// The paper's load axis along the served request stream: the mean, over
/// checkpoints after every 1/`checkpoints` of the requests, of max load -
/// held balls / bins, replayed from the allocation log. One final-state
/// gap flips between integers from seed to seed; the mean over the stream
/// does not.
double mean_stream_gap(const std::vector<std::string>& log,
                       std::uint64_t bins, std::size_t checkpoints) {
    std::vector<std::uint64_t> loads(bins, 0);
    std::vector<std::uint64_t> at_level{bins}; // bins per load level
    std::uint64_t max_level = 0;
    std::uint64_t held = 0;
    double sum = 0.0;
    std::size_t taken = 0;
    for (std::size_t i = 0; i < log.size(); ++i) {
        std::istringstream line(log[i]);
        std::uint64_t id = 0;
        char kind = 'a';
        line >> id >> kind;
        for (std::uint64_t bin = 0; line >> bin;) {
            std::uint64_t& load = loads.at(bin);
            --at_level[load];
            if (kind == 'a') {
                ++load;
                ++held;
                if (load == at_level.size()) {
                    at_level.push_back(0);
                }
                max_level = std::max(max_level, load);
            } else {
                --load;
                --held;
            }
            ++at_level[load];
            while (at_level[max_level] == 0) {
                --max_level;
            }
        }
        if ((i + 1) * checkpoints / log.size() > taken) {
            ++taken;
            sum += static_cast<double>(max_level) -
                   static_cast<double>(held) / static_cast<double>(bins);
        }
    }
    return taken > 0 ? sum / static_cast<double>(taken) : 0.0;
}

struct direct_drive {
    double accept_s = 0.0;          ///< all accept calls
    std::vector<double> process_s;  ///< one per batch
};

/// Drives a dispatcher directly over the service's request stream in
/// batches of `batch`, timing every accept and process call. Each response
/// is checked against the oracle's log line for its request.
direct_drive drive_dispatcher(const kdc::serve::service_config& config,
                              std::size_t batch,
                              const std::vector<std::string>& oracle,
                              check_ledger& checks) {
    const auto stream = request_stream(config);
    kdc::serve::dispatcher_config dc;
    dc.bins = config.bins;
    dc.k = config.k;
    dc.d = config.d;
    dc.mode = config.mode;
    dc.seed = config.seed;
    dc.shards = kdc::core::resolve_shard_count(config.bins, config.shards);
    kdc::serve::dispatcher server(
        dc, &kdc::core::persistent_pool(config.threads));
    kdc::serve::memory_channel<kdc::serve::request> inbox;

    direct_drive out;
    bool matches = true;
    for (std::size_t next = 0; next < stream.size();) {
        const std::size_t end = std::min(stream.size(), next + batch);
        for (; next < end; ++next) {
            inbox.send(stream[next]);
        }
        auto start = bench_clock::now();
        const auto requests = server.accept(inbox, batch);
        out.accept_s += seconds_between(start, bench_clock::now());
        start = bench_clock::now();
        const auto responses = server.process(requests);
        out.process_s.push_back(seconds_between(start, bench_clock::now()));
        for (std::size_t i = 0; i < responses.size(); ++i) {
            const bool allocate =
                requests[i].kind == kdc::serve::request_kind::allocate;
            std::string line = std::to_string(responses[i].id) +
                               (allocate ? " a" : " r");
            for (const auto bin : responses[i].bins) {
                line += ' ' + std::to_string(bin);
            }
            matches = matches && responses[i].id < oracle.size() &&
                      oracle[responses[i].id] == line &&
                      responses[i].probe_messages ==
                          (allocate ? config.d : 0);
        }
    }
    checks.run_check(matches,
                     "serve_churn: directly driven dispatcher disagrees "
                     "with the serial oracle");
    return out;
}

} // namespace

void run_serve_churn(run_state& run) {
    std::optional<kdc::serve::service_result> first;
    std::vector<std::string> oracle_lines;
    bool deterministic = true;

    const auto pass = [&](pass_context& p) {
        kdc::serve::service_config config;
        p.setup([&](std::uint64_t) {
            (void)kdc::core::persistent_pool(bench_threads);
            config = serve_config(run.opts.seed, bench_threads);
        });
        pass_outcome out;
        out.ops = static_cast<double>(config.requests);
        std::optional<kdc::serve::service_result> result;
        std::string error;
        p.measure([&](std::uint64_t parent) {
            const scoped_span s(p.spans(), "serve.run_service", parent);
            try {
                result = kdc::serve::run_service(config);
            } catch (const std::exception& e) {
                error = e.what();
            }
        });
        if (!result) {
            out.work = 1.0;
            run.checks.failed_operations(
                config.requests, "serve_churn: run_service threw: " + error);
            return out;
        }
        out.work = static_cast<double>(result->allocations * config.k);

        // The oracle is a check: it runs after the measured call.
        if (oracle_lines.empty()) {
            oracle_lines =
                log_lines(kdc::serve::run_serial_oracle(config).allocation_log);
        }
        const std::vector<std::string> served =
            log_lines(result->allocation_log);
        const bool messages_exact =
            result->probe_messages == result->allocations * config.d &&
            result->allocations + result->releases == config.requests;
        for (std::uint64_t id = 0; id < config.requests; ++id) {
            const bool ok = messages_exact && id < served.size() &&
                            id < oracle_lines.size() &&
                            served[id] == oracle_lines[id];
            run.checks.operation(
                ok, "serve_churn request " + std::to_string(id) +
                        (messages_exact ? " differs from the serial oracle"
                                        : ": messages per request != d"));
        }

        if (!first) {
            first = std::move(result);
        } else {
            deterministic = deterministic &&
                            result->allocation_log == first->allocation_log &&
                            result->latency_p999 == first->latency_p999;
        }
        return out;
    };

    const pass_samples samples = run_passes(run, pass);
    run.checks.run_check(deterministic,
                         "serve_churn: passes with one seed disagree");

    add_common_end_to_end(run, samples);
    const auto config = serve_config(run.opts.seed, bench_threads);
    run.end_to_end.add(
        "gap",
        first ? mean_stream_gap(log_lines(first->allocation_log), config.bins,
                                50)
              : 0.0,
        "balls");
    run.end_to_end.add("messages_per_ball",
                       first ? first->messages_per_ball : 0.0, "msgs/ball");

    if (!run.opts.trace || !first) {
        return;
    }
    add_trace_metrics(run, samples);
    const auto run_s = span_durations(run.spans, "serve.run_service");
    const double batch_mean = static_cast<double>(config.requests) /
                              static_cast<double>(first->batches);
    run.per_layer.add("serve.run_s", median(run_s), "s");
    run.per_layer.add("serve.batches", static_cast<double>(first->batches),
                      "count");
    run.per_layer.add("serve.batch_size_mean", batch_mean, "req");
    run.per_layer.add("serve.messages_per_request",
                      first->messages_per_request, "msgs/req");
    run.per_layer.add("serve.sim_latency_p50", first->latency_p50,
                      "sim_time");
    run.per_layer.add("serve.sim_latency_p99", first->latency_p99,
                      "sim_time");
    run.per_layer.add("serve.sim_latency_p999", first->latency_p999,
                      "sim_time");

    // The serial oracle and the plain single-thread service, timed once.
    auto start = bench_clock::now();
    const auto oracle = kdc::serve::run_serial_oracle(config);
    run.per_layer.add("serve.oracle_s",
                      seconds_between(start, bench_clock::now()), "s");
    start = bench_clock::now();
    const auto serial = kdc::serve::run_service(serve_config(run.opts.seed, 1));
    const double one = seconds_between(start, bench_clock::now());
    run.checks.run_check(serial.allocation_log == oracle.allocation_log,
                         "serve_churn: 1-thread service disagrees with the "
                         "serial oracle");
    run.per_layer.add("serve.speedup_1to4",
                      median(run_s) > 0 ? one / median(run_s) : 0.0, "x");

    // Dispatcher phases driven directly over the same request stream.
    const auto batch = static_cast<std::size_t>(std::max(1.0, std::round(
                                                              batch_mean)));
    const direct_drive drive =
        drive_dispatcher(config, batch, log_lines(oracle.allocation_log),
                         run.checks);
    const tail_value tail = tail_of(drive.process_s);
    run.per_layer.add("serve.accept_s", drive.accept_s, "s");
    run.per_layer.add("serve.process_s_p50", median(drive.process_s), "s");
    run.per_layer.add("serve.process_s_tail", tail.value, "s");
    run.per_layer.add("serve.process_s_tail_pct", tail.percentile, "pct");
}

} // namespace perfbench
