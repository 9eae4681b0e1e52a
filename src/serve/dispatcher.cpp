#include "serve/dispatcher.hpp"

#include <algorithm>

#include "core/fault_injection.hpp"
#include "core/thread_pool.hpp"
#include "rng/sampling.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256ss.hpp"
#include "support/contracts.hpp"

namespace kdc::serve {

namespace {

/// Appends request `id`'s tape to the slot buffers: probes and their tie
/// keys, drawn in the FIXED order probes-then-keys per pool (one pool of d
/// for batch mode, k pools of d for per-task mode). The serial oracle
/// (serve/service.cpp) draws in the same order from the same
/// derive_seed(seed, id) stream — the contract that makes its choices
/// comparable bit for bit.
void draw_tape(const dispatcher_config& config, std::uint64_t id,
               std::vector<std::uint32_t>& bins,
               std::vector<std::uint64_t>& keys) {
    rng::xoshiro256ss gen(rng::derive_seed(config.seed, id));
    const std::uint64_t pools = config.mode == probing::batch ? 1 : config.k;
    const auto d = static_cast<std::size_t>(config.d);
    for (std::uint64_t p = 0; p < pools; ++p) {
        const std::size_t offset = bins.size();
        bins.resize(offset + d);
        rng::sample_with_replacement(
            gen, config.bins, std::span<std::uint32_t>(bins).subspan(offset));
        for (std::size_t j = 0; j < d; ++j) {
            keys.push_back(gen());
        }
    }
}

} // namespace

void dispatcher::overlay::reset(std::size_t bins) {
    unsigned bits = 4;
    while ((std::size_t{1} << bits) < 2 * bins) {
        ++bits;
    }
    cells_.assign(std::size_t{1} << bits, cell{});
    shift_ = 64 - bits;
}

std::size_t dispatcher::overlay::find(std::uint32_t bin) const {
    const std::size_t mask = cells_.size() - 1;
    auto at = static_cast<std::size_t>(
        (std::uint64_t{bin} * 0x9E3779B97F4A7C15ULL) >> shift_);
    while (cells_[at].bin != bin && cells_[at].bin != empty) {
        at = (at + 1) & mask;
    }
    return at;
}

std::int64_t dispatcher::overlay::delta(std::uint32_t bin) const {
    return cells_[find(bin)].delta; // a free cell holds delta 0
}

void dispatcher::overlay::add(std::uint32_t bin, std::int64_t delta) {
    cell& c = cells_[find(bin)];
    c.bin = bin;
    c.delta += delta;
}

dispatcher::dispatcher(const dispatcher_config& config,
                       core::thread_pool* pool)
    : config_(config), pool_(pool), layout_(config.bins, config.shards),
      loads_(config.bins, 0) {
    KD_EXPECTS_MSG(config.bins >= 1 && config.k >= 1 && config.d >= 1,
                   "dispatcher needs bins, k, d >= 1");
    KD_EXPECTS_MSG(config.mode != probing::batch || config.k <= config.d,
                   "batch (k,d)-choice needs k <= d");
    KD_EXPECTS_MSG(config.bins < 0xFFFFFFFFULL,
                   "bins are 32-bit indices (one value reserved)");
}

template <typename Body>
void dispatcher::for_each_owned(std::span<const std::uint32_t> bins,
                                Body&& body) {
    if (pool_ == nullptr || layout_.shards() == 1) {
        for (std::size_t i = 0; i < bins.size(); ++i) {
            body(i);
        }
        return;
    }
    // Route by owner: (shard << 32 | index) sorted groups each shard's
    // indices in index order; one pool index per shard present.
    route_.clear();
    for (std::size_t i = 0; i < bins.size(); ++i) {
        route_.push_back((layout_.shard_of(bins[i]) << 32) | i);
    }
    std::sort(route_.begin(), route_.end());
    route_runs_.clear();
    for (std::size_t j = 0; j < route_.size(); ++j) {
        if (j == 0 || (route_[j] >> 32) != (route_[j - 1] >> 32)) {
            route_runs_.push_back(j);
        }
    }
    route_runs_.push_back(route_.size());
    pool_->run_phase(route_runs_.size() - 1, [&](std::size_t run) {
        for (std::size_t j = route_runs_[run]; j < route_runs_[run + 1];
             ++j) {
            body(static_cast<std::size_t>(route_[j] & 0xFFFFFFFFULL));
        }
    });
}

std::vector<request> dispatcher::accept(channel<request>& in,
                                        std::size_t max) {
    std::vector<request> batch;
    request next;
    while (batch.size() < max && in.try_receive(next)) {
        batch.push_back(next);
    }
    if (!batch.empty()) {
        core::fault_point(core::fault_site::serve_accept);
    }
    return batch;
}

void dispatcher::push_op(std::uint32_t bin, std::int8_t delta) {
    overlay_.add(bin, delta);
    op_bin_.push_back(bin);
    op_delta_.push_back(delta);
}

void dispatcher::select_allocate(std::size_t base, response& resp) {
    const auto d = static_cast<std::size_t>(config_.d);
    const auto k = static_cast<std::size_t>(config_.k);
    // Effective load = batch-start load + this batch's earlier deltas.
    const auto effective = [&](std::size_t slot) {
        return static_cast<std::int64_t>(slot_load_[slot]) +
               overlay_.delta(slot_bin_[slot]);
    };
    resp.bins.reserve(k);
    if (config_.mode == probing::batch) {
        // The paper's rule: d candidates with height = effective load
        // + occurrence index (a bin sampled m times may take up to m
        // balls), keep the k smallest by (height, key, slot).
        cands_.resize(d);
        for (std::size_t j = 0; j < d; ++j) {
            std::int64_t occ = 0;
            for (std::size_t e = 0; e < j; ++e) {
                occ += slot_bin_[base + e] == slot_bin_[base + j] ? 1 : 0;
            }
            cands_[j] = {effective(base + j) + occ, slot_key_[base + j],
                         static_cast<std::uint32_t>(j)};
        }
        std::partial_sort(cands_.begin(),
                          cands_.begin() + static_cast<std::ptrdiff_t>(k),
                          cands_.end());
        for (std::size_t j = 0; j < k; ++j) {
            resp.bins.push_back(slot_bin_[base + std::get<2>(cands_[j])]);
        }
        for (const std::uint32_t bin : resp.bins) {
            push_op(bin, 1);
        }
        resp.probe_messages = config_.d;
        return;
    }
    // Per-task baseline: each of the k tasks spends its own d probes and
    // takes its least-loaded, seeing earlier tasks' placements through the
    // overlay (Sparrow-style late binding).
    for (std::size_t t = 0; t < k; ++t) {
        const std::size_t pool = base + t * d;
        std::size_t best = 0;
        auto best_key = std::tuple<std::int64_t, std::uint64_t,
                                   std::size_t>{};
        for (std::size_t j = 0; j < d; ++j) {
            const auto key =
                std::tuple{effective(pool + j), slot_key_[pool + j], j};
            if (j == 0 || key < best_key) {
                best_key = key;
                best = j;
            }
        }
        const std::uint32_t bin = slot_bin_[pool + best];
        resp.bins.push_back(bin);
        push_op(bin, 1);
    }
    resp.probe_messages = config_.k * config_.d;
}

std::vector<response>
dispatcher::process(const std::vector<request>& batch) {
    std::vector<response> responses;
    if (batch.empty()) {
        return responses;
    }
    for (std::size_t i = 1; i < batch.size(); ++i) {
        KD_EXPECTS_MSG(batch[i - 1].id < batch[i].id,
                       "dispatcher batches must be in id order");
    }
    core::fault_point(core::fault_site::serve_batch);

    // -- pregen (serial, id order): releases carry no tape.
    slot_bin_.clear();
    slot_key_.clear();
    for (const request& req : batch) {
        if (req.kind == request_kind::allocate) {
            draw_tape(config_, req.id, slot_bin_, slot_key_);
        }
    }

    // -- gather: batch-start load of every probed bin, read by its owner.
    slot_load_.resize(slot_bin_.size());
    for_each_owned(slot_bin_, [&](std::size_t slot) {
        slot_load_[slot] = loads_[slot_bin_[slot]];
    });

    // -- select (serial, id order). The overlay holds the net delta
    // committed by earlier requests of THIS batch; the ops record every
    // (bin, delta) in id order for the commit phase. A request moves at
    // most k bins, so the overlay never holds more than k * batch bins.
    overlay_.reset(static_cast<std::size_t>(config_.k) * batch.size());
    op_bin_.clear();
    op_delta_.clear();
    responses.resize(batch.size());
    const std::size_t tape =
        static_cast<std::size_t>(config_.d) *
        (config_.mode == probing::batch ? 1 : config_.k);
    std::size_t base = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const request& req = batch[i];
        response& resp = responses[i];
        resp.client = req.client;
        resp.id = req.id;
        if (req.kind == request_kind::release) {
            const auto it = live_.find(req.target);
            KD_EXPECTS_MSG(it != live_.end(),
                           "release targets a non-live allocation");
            resp.bins = std::move(it->second);
            live_.erase(it);
            for (const std::uint32_t bin : resp.bins) {
                push_op(bin, -1);
            }
            balls_held_ -= resp.bins.size();
            continue;
        }
        select_allocate(base, resp);
        base += tape;
        probe_messages_ += resp.probe_messages;
        balls_held_ += resp.bins.size();
        live_.emplace(req.id, resp.bins);
    }

    // -- commit: each shard applies its own bins' deltas in id order.
    core::fault_point(core::fault_site::serve_commit);
    for_each_owned(op_bin_, [&](std::size_t op) {
        core::bin_load& load = loads_[op_bin_[op]];
        if (op_delta_[op] > 0) {
            load += 1;
        } else {
            KD_EXPECTS_MSG(load > 0, "release of an empty bin");
            load -= 1;
        }
    });
    return responses;
}

} // namespace kdc::serve
