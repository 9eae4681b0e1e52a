// The allocation service's dispatcher: accepts batched requests from a
// channel and routes them through pregen / gather / select / commit phases
// over the service's bin state, one load vector dealt into contiguous
// shard stripes by core/sharded_kernel.hpp's shard_layout.
//
// One batch is processed like one chunk of the sharded kernel, shrunk to
// request granularity:
//
//   pregen  (serial, id order)        every request's probes and tie keys
//           are drawn from a generator seeded derive_seed(seed, id) into
//           flat per-batch slot buffers, so the tape is a pure function of
//           the request — independent of how requests were batched;
//   gather  (per shard)               every probed bin's batch-start load
//           is copied into the batch's slot table by the shard owning it;
//   select  (serial, id order)        requests are resolved one by one in
//           id order against gathered loads PLUS an overlay of the deltas
//           committed earlier in this batch. Effective load = batch-start
//           load + overlay delta is exactly the live load a serial server
//           would see, so the chosen bins equal the serial oracle's
//           (serve/service.hpp) choice for every batching;
//   commit  (per shard)               each shard applies its own bins'
//           deltas, in batch id order, to its stripe of the loads.
//
// Gather and commit route each slot and each delta straight to its owning
// shard. With more than one shard and a pool they run as pool phases, one
// shard per index: disjoint ownership makes them lock-free, and +1/-1
// deltas make cross-shard order irrelevant. Otherwise they run inline.
//
// Releases are resolved SERVER-side: a release names the id of an earlier
// allocate, and the dispatcher keeps an id -> bins map of live allocations
// (erased on release). Clients never echo bins back, so a request's content
// cannot depend on an in-flight response — one of the two properties (with
// per-request tapes) that make the oracle comparison byte-exact.
//
// Fault sites (docs/robustness.md): serve.accept fires when a non-empty
// batch is drained from the channel, serve.batch before a batch's phases,
// serve.commit before the commit phase.
#pragma once

#include <cstdint>
#include <span>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/sharded_kernel.hpp"
#include "core/types.hpp"
#include "serve/channel.hpp"
#include "serve/message.hpp"

namespace kdc::core {
class thread_pool;
} // namespace kdc::core

namespace kdc::serve {

struct dispatcher_config {
    std::uint64_t bins = 1;
    std::uint64_t k = 1;          ///< balls per allocate request
    std::uint64_t d = 2;          ///< probe budget per allocate request
    probing mode = probing::batch;
    std::uint64_t seed = 1;       ///< master seed; request id selects the stream
    std::uint64_t shards = 1;     ///< resolved shard count (1 <= shards <= bins)
};

class dispatcher {
public:
    /// `pool` may be null (every phase runs on the calling thread). The
    /// pool is borrowed — keep it alive for the dispatcher's lifetime.
    dispatcher(const dispatcher_config& config, core::thread_pool* pool);

    /// Drains up to `max` requests from `in` (FIFO, so ids arrive in
    /// increasing order when the sender respects arrival order). Fires the
    /// serve.accept fault site once per non-empty batch.
    [[nodiscard]] std::vector<request> accept(channel<request>& in,
                                              std::size_t max);

    /// Processes one batch (ids strictly increasing) through the four
    /// phases and returns responses in id order. Fires serve.batch before
    /// the phases and serve.commit before the commit phase.
    [[nodiscard]] std::vector<response>
    process(const std::vector<request>& batch);

    [[nodiscard]] const dispatcher_config& config() const noexcept {
        return config_;
    }

    /// The full per-bin load vector (the concatenated shard stripes).
    [[nodiscard]] const core::load_vector& loads() const noexcept {
        return loads_;
    }

    /// Allocations not yet released (id -> bins).
    [[nodiscard]] std::uint64_t live_allocations() const noexcept {
        return live_.size();
    }

    /// Probe messages the service has spent so far: d per batch-mode
    /// allocate, k*d per per-task allocate, 0 per release.
    [[nodiscard]] std::uint64_t probe_messages() const noexcept {
        return probe_messages_;
    }

    /// Balls currently held: k per live allocation.
    [[nodiscard]] std::uint64_t balls_held() const noexcept {
        return balls_held_;
    }

private:
    /// Net load deltas of the bins touched earlier in the current batch:
    /// a flat open-addressing table of (bin, delta) cells sized per batch.
    class overlay {
    public:
        /// Empties the table and sizes it for `bins` distinct bins.
        void reset(std::size_t bins);
        [[nodiscard]] std::int64_t delta(std::uint32_t bin) const;
        void add(std::uint32_t bin, std::int64_t delta);

    private:
        struct cell {
            std::uint32_t bin = empty;
            std::int64_t delta = 0;
        };
        static constexpr std::uint32_t empty = ~std::uint32_t{0};
        [[nodiscard]] std::size_t find(std::uint32_t bin) const;

        std::vector<cell> cells_;
        unsigned shift_ = 0;
    };

    /// Runs body(i) for every i in [0, bins.size()) on the shard owning
    /// bins[i], in index order per shard. Pool phase (one shard per index)
    /// when there is a pool and more than one shard; inline otherwise.
    template <typename Body>
    void for_each_owned(std::span<const std::uint32_t> bins, Body&& body);

    /// Selects an allocate's bins from its tape at slot `base` into
    /// `resp`, recording each one as a +1 op.
    void select_allocate(std::size_t base, response& resp);

    /// Records (bin, delta) in the overlay and the commit ops.
    void push_op(std::uint32_t bin, std::int8_t delta);

    dispatcher_config config_;
    core::thread_pool* pool_;
    core::shard_layout layout_;
    core::load_vector loads_;
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> live_;
    std::uint64_t probe_messages_ = 0;
    std::uint64_t balls_held_ = 0;

    // Per-batch scratch, reused across batches. A slot is one probe of one
    // allocate, flattened in batch order; an op is one committed (bin, +-1).
    std::vector<std::uint32_t> slot_bin_;
    std::vector<std::uint64_t> slot_key_;
    std::vector<core::bin_load> slot_load_;
    std::vector<std::uint32_t> op_bin_;
    std::vector<std::int8_t> op_delta_;
    overlay overlay_;
    std::vector<std::tuple<std::int64_t, std::uint64_t, std::uint32_t>>
        cands_;
    // Owner routing for pool phases: (shard << 32 | index), sorted; run r
    // (one shard) spans route_[route_runs_[r], route_runs_[r + 1]).
    std::vector<std::uint64_t> route_;
    std::vector<std::size_t> route_runs_;
};

} // namespace kdc::serve
