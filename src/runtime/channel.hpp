// Rendezvous message channels for the threaded SPMD runtime.
//
// One unbuffered channel per (source, destination) pair: send() blocks
// until the matching recv() has taken the message (and vice versa), the
// synchronous semantics the SPMD verifier's deadlock simulator assumes.
// Every blocking wait runs under a wall-clock deadline (the idiom
// src/net's sockets use): a processor stuck longer than the deadline
// throws ChannelDeadlock naming both ends of the stuck operation instead
// of hanging the test suite. poison() wakes every waiter with
// ChannelAborted so one failed processor cannot strand its peers in a
// rendezvous that will never complete.
//
// Fault injection: `send_delay`, when set, runs on the sender's thread
// before the message is offered — torture tests use it to schedule
// adversarial interleavings without touching the runtime itself.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace fortd::runtime {

struct RtMessage {
  int src = -1;
  std::string tag;  // array name (debug/assertion aid)
  std::vector<double> payload;
  double arrival_us = 0.0;  // earliest logical time the receiver may use it
};

/// A blocking wait outlived the deadline — almost always a deadlock in
/// the program under execution.
struct ChannelDeadlock : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// The fabric was poisoned while this processor was blocked: a peer
/// failed, and the rendezvous it was waiting for can never complete.
struct ChannelAborted : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct ChannelOptions {
  /// Per-operation deadline in milliseconds; <= 0 waits forever.
  int deadline_ms = 30000;
  /// Fault injection: runs on the sender's thread, outside any lock,
  /// before the message is offered to the channel.
  std::function<void(int src, int dst)> send_delay;
};

class ChannelFabric {
 public:
  explicit ChannelFabric(int nprocs, ChannelOptions options = {});

  /// Rendezvous send: blocks until the receiver has taken the message.
  void send(int src, int dst, RtMessage msg);
  /// Blocking receive of the next message on the (src, dst) channel.
  RtMessage recv(int dst, int src);

  /// Wake every current and future waiter with ChannelAborted.
  void poison(const std::string& why);
  bool poisoned() const;

  int64_t total_messages() const;

 private:
  struct Channel {
    std::mutex mu;
    std::condition_variable cv;
    bool busy = false;       // a sender owns the slot (supports N senders)
    bool has_msg = false;    // deposited, not yet taken
    bool delivered = false;  // taken; the sender may return
    RtMessage slot;
  };

  Channel& channel(int src, int dst) {
    return channels_[static_cast<size_t>(src) * static_cast<size_t>(nprocs_) +
                     static_cast<size_t>(dst)];
  }
  /// Wait for `pred` under `lock`, honoring deadline and poison. `what`
  /// describes the blocked operation for the deadlock diagnostic.
  template <typename Pred>
  void wait(Channel& ch, std::unique_lock<std::mutex>& lock, Pred pred,
            const std::string& what);

  int nprocs_;
  ChannelOptions options_;
  std::vector<Channel> channels_;

  mutable std::mutex poison_mu_;
  bool poisoned_ = false;
  std::string poison_why_;

  mutable std::mutex stat_mu_;
  int64_t messages_ = 0;
};

}  // namespace fortd::runtime
