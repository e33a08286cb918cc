#pragma once

/// \file shard_plane.hpp
/// The round engine's delivery plane: aggregate / exchange / deaggregate.
///
/// Every Network delivers through one ShardPlane.  `Network::set_shards(S)`
/// splits the vertex set into S contiguous shards (worker threads today;
/// the buffer wire format below is exactly what a process or socket
/// boundary would ship); the default is S = 1, a 1 x 1 plane.  Each sender
/// shard stages its messages into S per-destination-shard *aggregation
/// buffers* -- packed `(slot, from, msg)` records -- and delivery becomes
/// an S x S bulk buffer exchange followed by a per-shard local scatter into
/// that shard's slice of the inbox arena.  Each buffer is canonicalized to
/// ascending directed slot with ties in staging order; no global sort.
///
/// The shard-invariance argument (docs/sharding.md in full): directed slots
/// are grouped by sender vertex and shards own contiguous vertex ranges, so
///   (a) every directed slot lives in exactly one (sender shard, dest
///       shard) buffer, which makes per-buffer congestion runs globally
///       exact, and
///   (b) scanning a receiver shard's S incoming buffers in sender-shard
///       order visits each receiver's messages in ascending directed-slot
///       order -- the canonical delivery order, whatever S is.
/// Every S reproduces the same inboxes, order, and round charges at any
/// worker count (pinned against the naive reference delivery in
/// tests/oracles/ by tests/shard_test.cpp, and by the *_sharded golden
/// CTest variants).

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "congest/engine.hpp"
#include "congest/message.hpp"
#include "graph/graph.hpp"

namespace xd::congest {

/// Per-delivery totals and timings, per destination shard -- the
/// buffer/scatter breakdown `bench_kernel` emits into
/// BENCH_kernel_summary.json.
struct ShardDeliveryStats {
  struct PerShard {
    double buffer_ms = 0.0;   ///< canonicalize + congestion + receiver counts
    double scatter_ms = 0.0;  ///< offset publication + arena scatter
    std::uint64_t received = 0;
  };
  /// Wire-exchange transport counters, cumulative since configure() (the
  /// fault-armed frame path only; the in-memory fast path ships no frames).
  struct Wire {
    std::uint64_t frames = 0;       ///< frames emitted, incl. retransmits
    std::uint64_t retransmits = 0;  ///< frames re-emitted after a bad attempt
    std::uint64_t dropped = 0;      ///< frames lost to injected drops
    std::uint64_t corrupted = 0;    ///< frames rejected (CRC / structure)
    std::uint64_t duplicates = 0;   ///< valid copies discarded as duplicates
    std::uint64_t reordered = 0;    ///< arrival batches delivered reversed
  };
  std::vector<PerShard> shard;
  Wire wire;
  std::uint64_t max_congestion = 0;
  std::size_t staged = 0;
};

/// Wire format of one aggregation buffer ("XDSB" version 2): a 40-byte
/// header {magic u32, version u32, sender shard u32, dest shard u32, record
/// count u64, sequence u64, crc32c u32, reserved u32} followed by `count`
/// packed 28-byte records {slot u32, from u32, Message{tag u32, words[2]
/// u64}}, all little-endian.  The CRC-32C covers the whole frame with the
/// crc field's four bytes taken as zero; the sequence number stamps every
/// frame of one logical exchange so stale retransmits are rejectable.
/// Any other version -- including the retired 24-byte-header version 1 --
/// is rejected.
/// deliver() swaps buffers through shared memory; a process-boundary
/// transport would ship exactly these bytes (docs/sharding.md,
/// docs/robustness.md).
inline constexpr std::uint32_t kShardBufferMagic = 0x42534458u;  // "XDSB"
inline constexpr std::uint32_t kShardBufferVersion = 2;

[[nodiscard]] std::vector<unsigned char> encode_shard_buffer(
    std::uint32_t sender_shard, std::uint32_t dest_shard,
    const detail::StagingBuffer& buf, std::uint64_t seq = 0);
/// Strict decode: throws CheckError on any structural or integrity defect.
/// `seq` (optional) receives the frame's sequence number.
void decode_shard_buffer(std::span<const unsigned char> bytes,
                         std::uint32_t* sender_shard, std::uint32_t* dest_shard,
                         detail::StagingBuffer* out,
                         std::uint64_t* seq = nullptr);
/// Non-throwing decode for transport loops that expect damaged frames:
/// returns false (and leaves *out unspecified) instead of throwing.
[[nodiscard]] bool try_decode_shard_buffer(std::span<const unsigned char> bytes,
                                           std::uint32_t* sender_shard,
                                           std::uint32_t* dest_shard,
                                           detail::StagingBuffer* out,
                                           std::uint64_t* seq = nullptr);

/// The S-shard delivery plane every Network delivers through (S = 1 by
/// default).  Owned by Network; all staging entry points validate there
/// first.
class ShardPlane {
 public:
  /// Partition the graph's vertices into `shards` contiguous ranges
  /// (range s = [n*s/S, n*(s+1)/S), the scheduler's partition formula) and
  /// reset every buffer and inbox to empty.
  void configure(const Graph& g, int shards);

  [[nodiscard]] int shards() const { return shards_; }
  [[nodiscard]] int shard_of(VertexId v) const {
    return static_cast<int>(vshard_[v]);
  }
  [[nodiscard]] std::pair<std::size_t, std::size_t> shard_range(int s) const {
    return {bounds_[static_cast<std::size_t>(s)],
            bounds_[static_cast<std::size_t>(s) + 1]};
  }

  /// Stage one pre-validated record.  Distinct sender shards may stage
  /// concurrently (disjoint buffer rows), so records arrive
  /// pre-partitioned -- delivery never re-scans a mixed buffer.  At S = 1
  /// this is a plain push into the one buffer; at S > 1 the receiver is
  /// resolved to pick the destination buffer and cached for delivery.
  void stage(std::uint32_t global_slot, VertexId from, const Message& msg) {
    if (shards_ == 1) {
      bufs_[0].push(global_slot, from, msg);
      return;
    }
    stage_routed(global_slot, from, msg);
  }

  /// The S x S buffer exchange + per-shard scatter on up to `workers`
  /// threads.  Canonicalizes every buffer, reads congestion off the
  /// per-slot runs, publishes the global CSR inbox offsets, and fills each
  /// shard's slice of the inbox arena.  Aggregation buffers are cleared
  /// afterwards (capacity retained); totals and per-shard timings land in
  /// last_delivery().
  void deliver(int workers);

  /// Messages delivered to v by the last deliver().
  [[nodiscard]] std::span<const Envelope> inbox(VertexId v) const {
    return {arena_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }

  /// Records staged across all aggregation buffers (diagnostics).
  [[nodiscard]] std::size_t staged() const;

  [[nodiscard]] const ShardDeliveryStats& last_delivery() const {
    return stats_;
  }

 private:
  [[nodiscard]] std::size_t index(int sender, int dest) const {
    return static_cast<std::size_t>(sender) *
               static_cast<std::size_t>(shards_) +
           static_cast<std::size_t>(dest);
  }

  /// stage() at S > 1: route by the receiver's shard and cache the target.
  void stage_routed(std::uint32_t global_slot, VertexId from,
                    const Message& msg);

  /// Fault-armed transport step, run serially at the top of deliver():
  /// every aggregation buffer crosses the exchange as an XDSB v2 frame,
  /// injected faults (shard.drop / corrupt / dup / reorder) damage frames
  /// in flight, and each destination column recovers by bounded re-request
  /// from the senders' retained staging copies.  Decoded buffers replace
  /// the originals, and phase A recomputes order and congestion from the
  /// wire content -- bit-identical results under any recoverable fault
  /// schedule.  Exhausted retries throw CheckError.
  void wire_exchange();

  /// Phase A for dest shard s: canonicalize its S incoming buffers (sorted
  /// detection fused with the receiver count, else a stable (slot, index)
  /// key sort recorded in order_) and read per-slot congestion runs.
  void phase_count(int s);
  /// Phase B for dest shard s: publish its slice of the global offsets,
  /// scatter the S buffers in sender-shard order into its arena slice.
  void phase_scatter(int s);

  const Graph* graph_ = nullptr;
  int shards_ = 1;
  std::vector<std::size_t> bounds_;  ///< size S+1: shard vertex ranges
  std::vector<std::uint32_t> vshard_;  ///< size n: vertex -> shard
  /// S x S aggregation buffers, row-major by sender shard.
  std::vector<detail::StagingBuffer> bufs_;
  /// Per buffer at S > 1: the record targets (stage() resolves slot ->
  /// receiver to pick the destination shard anyway, so delivery never
  /// repeats that random lookup).  Unused at S = 1, where delivery reads
  /// targets off the graph instead of paying a second staging write.
  std::vector<std::vector<std::uint32_t>> tos_;
  /// Per buffer: canonical visit order when the staged order was unsorted
  /// (empty = already canonical, visit in staging order).
  std::vector<std::vector<std::uint32_t>> order_;
  std::vector<std::uint64_t> buf_congestion_;  ///< per buffer, phase A
  /// Inbox arena: dest shard s owns the slice [shard_msg_base_[s],
  /// shard_msg_base_[s+1]), so parallel scatters never share a write.
  std::vector<Envelope> arena_;
  /// Per dest shard: receiver counts/cursors scratch and (slot, index) key
  /// scratch for unsorted buffers.
  std::vector<std::vector<std::uint32_t>> counts_;
  std::vector<std::vector<std::uint64_t>> key_scratch_;
  /// Size S+1: arena offset where each dest shard's slice begins.
  std::vector<std::uint32_t> shard_msg_base_;
  /// Size n+1: global CSR inbox offsets of the last delivery.
  std::vector<std::uint32_t> offsets_;
  /// Logical-exchange sequence stamped into every wire frame.
  std::uint64_t exchange_seq_ = 0;
  ShardDeliveryStats stats_;
};

}  // namespace xd::congest
