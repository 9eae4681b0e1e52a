// The service determinism contract, held end to end: the served allocation
// log is byte-identical to the serial oracle's at every thread count and
// shard count, with and without churn, in both probing modes — and the
// measured message cost lands exactly on the closed form the scheduler
// model predicts (d per request batched, k*d per-task). The timing model's
// outputs are pinned to exact values, and malformed configs are rejected
// with a cli_error naming the field.
#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "support/cli.hpp"

namespace kdc::serve {
namespace {

service_config base_config() {
    service_config config;
    config.bins = 128;
    config.k = 2;
    config.d = 4;
    config.seed = 42;
    config.clients = 4;
    config.requests = 96;
    config.arrival_rate = 6.0;
    config.churn = 0.0;
    config.channel_delay = 0.5;
    config.batch_window = 1.0;
    config.service_time = 0.05;
    config.max_batch = 16;
    config.shards = 4;
    config.threads = 1;
    return config;
}

void expect_matches_oracle(const service_config& config) {
    const service_result oracle = run_serial_oracle(config);
    const service_result served = run_service(config);
    ASSERT_FALSE(oracle.allocation_log.empty());
    EXPECT_EQ(served.allocation_log, oracle.allocation_log)
        << "served sequence diverged from the serial oracle";
    EXPECT_EQ(served.final_loads, oracle.final_loads);
    EXPECT_EQ(served.balls_held, oracle.balls_held);
    EXPECT_EQ(served.max_load, oracle.max_load);
    EXPECT_EQ(served.probe_messages, oracle.probe_messages);
    EXPECT_EQ(served.allocations, oracle.allocations);
    EXPECT_EQ(served.releases, oracle.releases);
}

TEST(Service, MatchesOracleAtEveryThreadCount) {
    // The acceptance matrix: two (k,d) configs, threads in {1, 2, 8}.
    for (const unsigned threads : {1u, 2u, 8u}) {
        service_config kd24 = base_config();
        kd24.threads = threads;
        expect_matches_oracle(kd24);

        service_config kd410 = base_config();
        kd410.k = 4;
        kd410.d = 10;
        kd410.seed = 7;
        kd410.threads = threads;
        expect_matches_oracle(kd410);
    }
}

TEST(Service, MatchesOracleUnderChurn) {
    for (const unsigned threads : {1u, 8u}) {
        service_config config = base_config();
        config.churn = 0.35;
        config.requests = 120;
        config.threads = threads;
        const service_result oracle = run_serial_oracle(config);
        ASSERT_GT(oracle.releases, 0u) << "churn config produced no releases";
        expect_matches_oracle(config);
    }
}

TEST(Service, MatchesOracleInPerTaskMode) {
    service_config config = base_config();
    config.mode = probing::per_task;
    config.threads = 2;
    expect_matches_oracle(config);
}

TEST(Service, MatchesOracleAcrossShardCounts) {
    const service_result one = run_service(base_config());
    for (const std::uint64_t shards : {2u, 16u}) {
        service_config config = base_config();
        config.shards = shards;
        const service_result result = run_service(config);
        EXPECT_EQ(result.allocation_log, one.allocation_log);
        EXPECT_EQ(result.final_loads, one.final_loads);
    }
}

TEST(Service, BatchModeSpendsExactlyDMessagesPerRequest) {
    const service_result result = run_service(base_config());
    ASSERT_GT(result.allocations, 0u);
    EXPECT_EQ(result.probe_messages, result.allocations * 4);
    EXPECT_DOUBLE_EQ(result.messages_per_request, 4.0);
    EXPECT_DOUBLE_EQ(result.messages_per_ball, 2.0); // d / k
}

TEST(Service, PerTaskModeSpendsKTimesDMessagesPerRequest) {
    service_config config = base_config();
    config.mode = probing::per_task;
    const service_result result = run_service(config);
    EXPECT_EQ(result.probe_messages, result.allocations * 2 * 4);
    EXPECT_DOUBLE_EQ(result.messages_per_request, 8.0);
    EXPECT_DOUBLE_EQ(result.messages_per_ball, 4.0); // d
}

TEST(Service, LatencyQuantilesAreOrderedAndPhysical) {
    const service_config config = base_config();
    const service_result result = run_service(config);
    // Floor: two channel hops plus one request's service time.
    const double floor =
        2 * config.channel_delay + config.service_time;
    EXPECT_GE(result.latency_p50, floor);
    EXPECT_LE(result.latency_p50, result.latency_p99);
    EXPECT_LE(result.latency_p99, result.latency_p999);
    EXPECT_LE(result.latency_p999, result.latency_max);
    EXPECT_GT(result.latency_mean, 0.0);
    EXPECT_GT(result.completed_at, 0.0);
}

TEST(Service, ServesEveryRequestInBatches) {
    const service_result result = run_service(base_config());
    EXPECT_EQ(result.allocations + result.releases, 96u);
    EXPECT_GE(result.batches, 1u);
    EXPECT_LT(result.batches, 96u) // the window actually coalesces
        << "batching window formed no multi-request batch";
}

TEST(Service, RepeatedRunsAreByteIdentical) {
    const service_result a = run_service(base_config());
    const service_result b = run_service(base_config());
    EXPECT_EQ(a.allocation_log, b.allocation_log);
    EXPECT_EQ(a.final_loads, b.final_loads);
    EXPECT_DOUBLE_EQ(a.latency_p99, b.latency_p99);
}

TEST(Service, DifferentSeedsServeDifferentSequences) {
    service_config other = base_config();
    other.seed = 43;
    EXPECT_NE(run_service(base_config()).allocation_log,
              run_service(other).allocation_log);
}

TEST(Service, LogHasOneLinePerRequestInIdOrder) {
    const service_result result = run_service(base_config());
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < result.allocation_log.size()) {
        const std::size_t end = result.allocation_log.find('\n', start);
        lines.push_back(result.allocation_log.substr(start, end - start));
        start = end + 1;
    }
    ASSERT_EQ(lines.size(), 96u);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        EXPECT_EQ(lines[i].substr(0, lines[i].find(' ')),
                  std::to_string(i));
    }
}

TEST(Service, TimingModelOutputsArePinned) {
    // A loaded churn config: 18 arrivals per time unit against 20 per unit
    // of service, batches capped at 8, so the dispatcher queues and every
    // batch drains max_batch requests. Values are exact (hex floats): any
    // change to when a batch is dispatched or a response is delivered
    // moves them. The timing model does not depend on the probing mode.
    for (const probing mode : {probing::batch, probing::per_task}) {
        service_config config = base_config();
        config.mode = mode;
        config.churn = 0.35;
        config.requests = 120;
        config.arrival_rate = 18.0;
        config.max_batch = 8;
        const service_result result = run_service(config);
        EXPECT_EQ(result.latency_mean, 0x1.a459ccfc7d074p+2);
        EXPECT_EQ(result.latency_p50, 0x1.a59ff0167f55bp+2);
        EXPECT_EQ(result.latency_p99, 0x1.64a09ed6d32cdp+3);
        EXPECT_EQ(result.latency_p999, 0x1.64a09ed6d32cdp+3);
        EXPECT_EQ(result.latency_max, 0x1.64a09ed6d32cdp+3);
        EXPECT_EQ(result.completed_at, 0x1.06a297ee87b8p+4);
        EXPECT_EQ(result.batches, 15u);
        EXPECT_EQ(result.releases, 36u);
    }
}

/// Expects validate_service_config, run_service and run_serial_oracle to
/// reject the config edited by `edit` with a cli_error containing `what`.
void expect_rejected(const std::function<void(service_config&)>& edit,
                     const std::string& what) {
    service_config config = base_config();
    edit(config);
    try {
        validate_service_config(config);
        ADD_FAILURE() << "accepted a config that should fail: " << what;
    } catch (const cli_error& error) {
        EXPECT_NE(std::string(error.what()).find(what), std::string::npos)
            << error.what();
    }
    EXPECT_THROW((void)run_service(config), cli_error);
    EXPECT_THROW((void)run_serial_oracle(config), cli_error);
}

TEST(ServiceConfig, AcceptsTheBaseConfig) {
    EXPECT_NO_THROW(validate_service_config(base_config()));
}

TEST(ServiceConfig, RejectsZeroBinsKOrD) {
    expect_rejected([](service_config& c) { c.bins = 0; },
                    "bins, k and d must be >= 1");
    expect_rejected([](service_config& c) { c.k = 0; },
                    "bins, k and d must be >= 1");
    expect_rejected([](service_config& c) { c.d = 0; },
                    "bins, k and d must be >= 1");
}

TEST(ServiceConfig, RejectsBinsBeyond32BitIds) {
    expect_rejected([](service_config& c) { c.bins = 0xFFFFFFFFULL; },
                    "bins must be below 2^32 - 1");
}

TEST(ServiceConfig, RejectsBatchModeWithKAboveD) {
    expect_rejected([](service_config& c) { c.k = 5; },
                    "batch (k,d)-choice needs k <= d");
}

TEST(ServiceConfig, RejectsZeroClients) {
    expect_rejected([](service_config& c) { c.clients = 0; },
                    "clients must be >= 1");
}

TEST(ServiceConfig, RejectsZeroRequests) {
    expect_rejected([](service_config& c) { c.requests = 0; },
                    "requests must be >= 1");
}

TEST(ServiceConfig, RejectsZeroMaxBatch) {
    expect_rejected([](service_config& c) { c.max_batch = 0; },
                    "max_batch must be >= 1");
}

TEST(ServiceConfig, RejectsChurnOutsideTheUnitInterval) {
    expect_rejected([](service_config& c) { c.churn = 1.5; },
                    "churn must be in [0, 1]");
    expect_rejected([](service_config& c) { c.churn = -0.1; },
                    "churn must be in [0, 1]");
}

TEST(ServiceConfig, RejectsNonPositiveRatesAndTimes) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    expect_rejected([](service_config& c) { c.arrival_rate = 0.0; },
                    "arrival_rate must be a positive finite number");
    expect_rejected([&](service_config& c) { c.arrival_rate = inf; },
                    "arrival_rate must be a positive finite number");
    expect_rejected([](service_config& c) { c.channel_delay = -0.5; },
                    "channel_delay must be a positive finite number");
    expect_rejected([&](service_config& c) { c.batch_window = nan; },
                    "batch_window must be a positive finite number");
    expect_rejected([](service_config& c) { c.service_time = 0.0; },
                    "service_time must be a positive finite number");
}

} // namespace
} // namespace kdc::serve
