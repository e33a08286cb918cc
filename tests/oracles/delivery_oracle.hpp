#pragma once

// Naive reference delivery for the CONGEST round engine: the rule
// congest::Network must reproduce at every shard and thread count, written
// as plainly as possible.  Records are kept in staging order, stable-sorted
// by directed slot into per-vertex inbox vectors, and a step costs the
// longest run of one slot (at least one round).

#include <algorithm>
#include <cstdint>
#include <vector>

#include "congest/message.hpp"
#include "graph/graph.hpp"

namespace xd::oracle {

struct Delivery {
  std::vector<std::vector<congest::Envelope>> inbox;  ///< per receiver
  std::uint64_t rounds = 1;  ///< max(1, max directed-slot congestion)
  std::uint64_t messages = 0;
};

class DeliveryOracle {
 public:
  explicit DeliveryOracle(const Graph& g) : g_(&g) {}

  void send(VertexId from, std::uint32_t slot, const congest::Message& msg) {
    staged_.push_back({g_->slot_base(from) + slot, from, msg});
  }
  void send_to(VertexId from, VertexId to, const congest::Message& msg) {
    send(from, g_->slot_of(from, to), msg);
  }

  /// Delivers and clears everything staged so far.
  Delivery deliver() {
    std::stable_sort(staged_.begin(), staged_.end(),
                     [](const Staged& a, const Staged& b) {
                       return a.slot < b.slot;
                     });
    Delivery d;
    d.inbox.resize(g_->num_vertices());
    d.messages = staged_.size();
    std::uint64_t run = 0;
    for (std::size_t i = 0; i < staged_.size(); ++i) {
      const Staged& s = staged_[i];
      run = i > 0 && staged_[i - 1].slot == s.slot ? run + 1 : 1;
      d.rounds = std::max(d.rounds, run);
      d.inbox[g_->slot_target(s.slot)].push_back({s.from, s.msg});
    }
    staged_.clear();
    return d;
  }

 private:
  struct Staged {
    std::uint32_t slot;  ///< global directed slot
    VertexId from;
    congest::Message msg;
  };
  const Graph* g_;
  std::vector<Staged> staged_;
};

}  // namespace xd::oracle
