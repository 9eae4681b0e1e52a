// The channel abstraction between sessions and the dispatcher: a
// socket-shaped, FIFO, typed message queue.
//
// The interface is deliberately the non-blocking half of a socket —
// send / try_receive / pending — so a future transport (a real socket, a
// zmq-style dispatcher as in APSI's sender_dispatcher/senderchannel split)
// can slot in behind the same calls. The in-memory implementation used by
// the simulation is deterministic by construction: messages come out in
// exactly the order they went in (one sequence counter, no reordering),
// which combined with the service sending requests in id order gives the
// service its determinism contract (docs/service.md).
#pragma once

#include <cstdint>
#include <deque>
#include <utility>

#include "support/contracts.hpp"

namespace kdc::serve {

/// Abstract one-directional typed channel. Implementations must be FIFO:
/// try_receive yields messages in send order.
template <typename M>
class channel {
public:
    virtual ~channel() = default;

    /// Enqueues a message (takes ownership).
    virtual void send(M message) = 0;

    /// Dequeues the oldest pending message into `out`; false when empty.
    [[nodiscard]] virtual bool try_receive(M& out) = 0;

    /// Messages sent but not yet received.
    [[nodiscard]] virtual std::size_t pending() const noexcept = 0;
};

/// The deterministic in-memory channel: an unbounded FIFO with send /
/// receive counters. "Delivery latency" is not modeled here — the service
/// times the send() call itself at arrival time + channel delay in
/// simulated time, so one channel class serves both directions.
template <typename M>
class memory_channel final : public channel<M> {
public:
    void send(M message) override {
        queue_.push_back(std::move(message));
        ++sent_;
    }

    [[nodiscard]] bool try_receive(M& out) override {
        if (queue_.empty()) {
            return false;
        }
        out = std::move(queue_.front());
        queue_.pop_front();
        ++received_;
        return true;
    }

    [[nodiscard]] std::size_t pending() const noexcept override {
        return queue_.size();
    }

    /// Lifetime counters (monotone), for tests and stats.
    [[nodiscard]] std::uint64_t total_sent() const noexcept { return sent_; }
    [[nodiscard]] std::uint64_t total_received() const noexcept {
        return received_;
    }

private:
    std::deque<M> queue_;
    std::uint64_t sent_ = 0;
    std::uint64_t received_ = 0;
};

} // namespace kdc::serve
