#include "congest/shard_plane.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string>

#include "congest/scheduler.hpp"
#include "util/check.hpp"
#include "util/crc32c.hpp"
#include "util/fault_plane.hpp"

namespace xd::congest {

namespace {

constexpr std::size_t kWireHeaderBytes = 40;
constexpr std::size_t kWireCrcOffset = 32;
constexpr std::size_t kWireRecordBytes = 28;

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

int clamp_workers(int workers, int shards) {
  return std::max(1, std::min(workers, shards));
}

}  // namespace

// ------------------------------------------------------------- wire format --

namespace {

/// CRC-32C of a frame with the crc field's own four bytes taken as zero
/// (three streaming chunks; the xor conventions cancel across calls).
std::uint32_t frame_crc(std::span<const unsigned char> bytes) {
  static constexpr unsigned char kZero[4] = {0, 0, 0, 0};
  std::uint32_t c = crc32c(bytes.data(), kWireCrcOffset);
  c = crc32c_update(c, kZero, 4);
  return crc32c_update(c, bytes.data() + kWireCrcOffset + 4,
                       bytes.size() - kWireCrcOffset - 4);
}

/// Shared decode core: fills the outputs and returns true, or (for any
/// structural or integrity defect) writes a diagnostic into *err and
/// returns false.  Every byte read is bounds-checked before the read, so
/// arbitrarily damaged frames are rejected, never UB.
bool decode_impl(std::span<const unsigned char> bytes,
                 std::uint32_t* sender_shard, std::uint32_t* dest_shard,
                 detail::StagingBuffer* out, std::uint64_t* seq,
                 std::string* err) {
  const auto fail = [err](auto&&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    *err = os.str();
    return false;
  };
  if (bytes.size() < kWireHeaderBytes) {
    return fail("shard buffer truncated: ", bytes.size(),
                " bytes, header needs ", kWireHeaderBytes);
  }
  const unsigned char* p = bytes.data();
  auto get32 = [&p] {
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    p += 4;
    return v;
  };
  auto get64 = [&p] {
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    p += 8;
    return v;
  };
  const std::uint32_t magic = get32();
  if (magic != kShardBufferMagic) {
    return fail("shard buffer bad magic ", magic);
  }
  const std::uint32_t version = get32();
  if (version != kShardBufferVersion) {
    return fail("shard buffer version ", version, " unsupported (want ",
                kShardBufferVersion, ")");
  }
  *sender_shard = get32();
  *dest_shard = get32();
  const std::uint64_t count = get64();
  const std::uint64_t frame_seq = get64();
  const std::uint32_t stored_crc = get32();
  get32();  // reserved
  if (stored_crc != frame_crc(bytes)) {
    return fail("shard buffer CRC mismatch (stored ", stored_crc, ")");
  }
  if (seq != nullptr) *seq = frame_seq;
  if (count > (bytes.size() - kWireHeaderBytes) / kWireRecordBytes ||
      bytes.size() != kWireHeaderBytes + kWireRecordBytes * count) {
    return fail("shard buffer size ", bytes.size(), " != header + ", count,
                " records");
  }
  out->clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint32_t slot = get32();
    const VertexId from = get32();
    Message msg;
    msg.tag = get32();
    msg.words[0] = get64();
    msg.words[1] = get64();
    out->push(slot, from, msg);
  }
  return true;
}

}  // namespace

std::vector<unsigned char> encode_shard_buffer(
    std::uint32_t sender_shard, std::uint32_t dest_shard,
    const detail::StagingBuffer& buf, std::uint64_t seq) {
  const std::uint64_t count = buf.size();
  std::vector<unsigned char> out(kWireHeaderBytes + kWireRecordBytes * count);
  unsigned char* p = out.data();
  auto put32 = [&p](std::uint32_t v) {
    std::memcpy(p, &v, 4);
    p += 4;
  };
  auto put64 = [&p](std::uint64_t v) {
    std::memcpy(p, &v, 8);
    p += 8;
  };
  put32(kShardBufferMagic);
  put32(kShardBufferVersion);
  put32(sender_shard);
  put32(dest_shard);
  put64(count);
  put64(seq);
  put32(0);  // crc placeholder, patched below
  put32(0);  // reserved
  for (std::size_t i = 0; i < count; ++i) {
    put32(buf.slot[i]);
    put32(buf.from[i]);
    put32(buf.msg[i].tag);
    put64(buf.msg[i].words[0]);
    put64(buf.msg[i].words[1]);
  }
  const std::uint32_t crc = frame_crc(out);
  std::memcpy(out.data() + kWireCrcOffset, &crc, 4);
  return out;
}

void decode_shard_buffer(std::span<const unsigned char> bytes,
                         std::uint32_t* sender_shard, std::uint32_t* dest_shard,
                         detail::StagingBuffer* out, std::uint64_t* seq) {
  std::string err;
  XD_CHECK_MSG(decode_impl(bytes, sender_shard, dest_shard, out, seq, &err),
               err);
}

bool try_decode_shard_buffer(std::span<const unsigned char> bytes,
                             std::uint32_t* sender_shard,
                             std::uint32_t* dest_shard,
                             detail::StagingBuffer* out, std::uint64_t* seq) {
  std::string err;
  return decode_impl(bytes, sender_shard, dest_shard, out, seq, &err);
}

// -------------------------------------------------------------- ShardPlane --

void ShardPlane::configure(const Graph& g, int shards) {
  XD_CHECK_MSG(shards >= 1, "shard count must be >= 1");
  graph_ = &g;
  shards_ = shards;
  const std::size_t n = g.num_vertices();
  const auto s_sz = static_cast<std::size_t>(shards);
  bounds_.assign(s_sz + 1, 0);
  for (std::size_t s = 0; s <= s_sz; ++s) bounds_[s] = n * s / s_sz;
  vshard_.assign(n, 0);
  for (std::size_t s = 0; s < s_sz; ++s) {
    for (std::size_t v = bounds_[s]; v < bounds_[s + 1]; ++v) {
      vshard_[v] = static_cast<std::uint32_t>(s);
    }
  }
  bufs_.assign(s_sz * s_sz, {});
  tos_.assign(s_sz * s_sz, {});
  order_.assign(s_sz * s_sz, {});
  buf_congestion_.assign(s_sz * s_sz, 0);
  counts_.assign(s_sz, {});
  key_scratch_.assign(s_sz, {});
  shard_msg_base_.assign(s_sz + 1, 0);
  offsets_.assign(n + 1, 0);
  exchange_seq_ = 0;
  stats_ = {};
  stats_.shard.resize(s_sz);
}

void ShardPlane::stage_routed(std::uint32_t global_slot, VertexId from,
                              const Message& msg) {
  const VertexId to = graph_->slot_target(global_slot);
  const std::size_t idx = index(static_cast<int>(vshard_[from]),
                                static_cast<int>(vshard_[to]));
  bufs_[idx].push(global_slot, from, msg);
  tos_[idx].push_back(to);
}

std::size_t ShardPlane::staged() const {
  std::size_t total = 0;
  for (const auto& b : bufs_) total += b.size();
  return total;
}

void ShardPlane::wire_exchange() {
  // Transport semantics under test: every (sender, dest) buffer becomes an
  // XDSB v2 frame, the fault plane damages frames in flight, and each
  // destination column re-requests what it is missing from the senders'
  // retained staging copies -- at most kMaxAttempts passes before the
  // exchange is declared unrecoverable.  Runs serially (fault-armed runs
  // trade speed for a deterministic hit order); fault keys are pure
  // (seq, sender, dest, attempt) coordinates so p-triggers replay exactly.
  constexpr int kMaxAttempts = 8;
  FaultPlane& faults = FaultPlane::instance();
  const std::uint64_t seq = ++exchange_seq_;
  const std::uint64_t volume = graph_->volume();
  const auto S = static_cast<std::size_t>(shards_);
  std::vector<detail::StagingBuffer> col(S);
  std::vector<char> have(S, 0);
  detail::StagingBuffer scratch;
  for (int s = 0; s < shards_; ++s) {
    std::fill(have.begin(), have.end(), 0);
    int attempt = 0;
    for (; attempt < kMaxAttempts; ++attempt) {
      std::vector<std::vector<unsigned char>> arrivals;
      bool all_held = true;
      for (int q = 0; q < shards_; ++q) {
        if (have[static_cast<std::size_t>(q)]) continue;
        all_held = false;
        const std::uint64_t key =
            (seq * 0x9E3779B97F4A7C15ull) ^
            (static_cast<std::uint64_t>(q) << 20) ^
            (static_cast<std::uint64_t>(s) << 8) ^
            static_cast<std::uint64_t>(attempt);
        if (attempt > 0) {
          ++stats_.wire.retransmits;
          faults.count("shard.retransmits");
        }
        if (faults.should_fire("shard.drop", key)) {
          ++stats_.wire.dropped;
          continue;  // the frame never arrives
        }
        std::vector<unsigned char> frame = encode_shard_buffer(
            static_cast<std::uint32_t>(q), static_cast<std::uint32_t>(s),
            bufs_[index(q, s)], seq);
        ++stats_.wire.frames;
        if (faults.should_fire("shard.corrupt", key)) {
          const std::uint64_t bit =
              faults.decision_mix("shard.corrupt", key) %
              (static_cast<std::uint64_t>(frame.size()) * 8);
          frame[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
        }
        if (faults.should_fire("shard.dup", key)) {
          ++stats_.wire.frames;
          arrivals.push_back(frame);
        }
        arrivals.push_back(std::move(frame));
      }
      if (all_held) break;
      if (arrivals.size() > 1 &&
          faults.should_fire("shard.reorder",
                             (seq << 16) ^ static_cast<std::uint64_t>(s))) {
        ++stats_.wire.reordered;
        std::reverse(arrivals.begin(), arrivals.end());
      }
      for (const auto& frame : arrivals) {
        std::uint32_t sender = 0;
        std::uint32_t dest = 0;
        std::uint64_t frame_seq = 0;
        if (!try_decode_shard_buffer(frame, &sender, &dest, &scratch,
                                     &frame_seq)) {
          ++stats_.wire.corrupted;
          continue;
        }
        if (sender >= S || dest != static_cast<std::uint32_t>(s) ||
            frame_seq != seq) {
          ++stats_.wire.corrupted;  // valid frame, wrong coordinates
          continue;
        }
        if (have[sender]) {
          ++stats_.wire.duplicates;
          continue;  // first valid copy wins
        }
        col[sender] = std::move(scratch);
        scratch = {};
        have[sender] = 1;
      }
    }
    for (int q = 0; q < shards_; ++q) {
      XD_CHECK_MSG(have[static_cast<std::size_t>(q)],
                   "shard wire exchange unrecoverable: buffer (" << q << " -> "
                       << s << ") still missing after " << attempt
                       << " attempts (seq " << seq << ")");
    }
    // Commit the column: the decoded buffers replace the staging originals
    // and record targets are rebuilt from the graph (with the shard
    // invariant re-checked defensively); phase A then reads order and
    // congestion off the wire content -- identical content, identical
    // results.
    for (int q = 0; q < shards_; ++q) {
      const std::size_t idx = index(q, s);
      bufs_[idx] = std::move(col[static_cast<std::size_t>(q)]);
      col[static_cast<std::size_t>(q)] = {};
      const detail::StagingBuffer& b = bufs_[idx];
      auto& tos = tos_[idx];
      tos.clear();
      for (std::size_t i = 0; i < b.size(); ++i) {
        XD_CHECK_MSG(b.slot[i] < volume,
                     "wire record slot " << b.slot[i] << " out of range");
        const VertexId to = graph_->slot_target(b.slot[i]);
        XD_CHECK_MSG(vshard_[to] == static_cast<std::uint32_t>(s),
                     "wire record routed to shard " << vshard_[to]
                                                    << ", expected " << s);
        tos.push_back(to);
      }
    }
  }
}

namespace {

/// Calls body(target), where target(i) is the receiver of the buffer's
/// record i relative to its dest shard's first vertex `lo`: read off the
/// graph through the record's slot when `tos` is null (S = 1, where staging
/// caches nothing), else off the stage-time target cache.  Each branch is
/// its own instantiation, so the per-record loops stay branch-free.
template <class Body>
void with_target(const Graph& g, const detail::StagingBuffer& b,
                 const std::uint32_t* tos, std::size_t lo, Body&& body) {
  if (tos == nullptr) {
    body([&g, slot = b.slot.data()](std::size_t i) {
      return g.slot_target(slot[i]);
    });
  } else {
    body([tos, base = static_cast<std::uint32_t>(lo)](std::size_t i) {
      return tos[i] - base;
    });
  }
}

/// Phase A over one buffer: bumps counts[target(i)] for every record and
/// returns the buffer's congestion (its longest same-slot run).  While the
/// staged slots keep ascending -- the common case, since protocols stage
/// vertex by vertex -- one fused pass does both and `ord` stays empty;
/// after the first slot regression the counts are finished and a stable
/// (slot, index) key sort records the canonical visit order in `ord` and
/// recomputes congestion off the sorted runs.
template <class Target>
std::uint64_t count_buffer(const detail::StagingBuffer& b, Target target,
                           std::uint32_t* counts,
                           std::vector<std::uint64_t>& keys,
                           std::vector<std::uint32_t>& ord) {
  const std::size_t m = b.size();
  const std::uint32_t* slot = b.slot.data();
  ord.clear();
  std::uint64_t cong = 0;
  std::uint64_t run = 0;
  std::uint32_t prev = 0;
  std::size_t i = 0;
  for (; i < m; ++i) {
    const std::uint32_t s = slot[i];
    if (s < prev) break;
    run = i > 0 && s == prev ? run + 1 : 1;
    cong = std::max(cong, run);
    prev = s;
    ++counts[target(i)];
  }
  if (i == m) return cong;
  for (; i < m; ++i) ++counts[target(i)];
  keys.resize(m);
  for (std::size_t j = 0; j < m; ++j) {
    keys[j] = (std::uint64_t{slot[j]} << 32) | static_cast<std::uint32_t>(j);
  }
  std::sort(keys.begin(), keys.end());
  ord.resize(m);
  cong = 0;
  for (std::size_t j = 0; j < m; ++j) {
    run = j > 0 && (keys[j] >> 32) == (keys[j - 1] >> 32) ? run + 1 : 1;
    cong = std::max(cong, run);
    ord[j] = static_cast<std::uint32_t>(keys[j] & 0xffffffffu);
  }
  return cong;
}

/// Phase B over one buffer: writes each record's envelope at its
/// receiver's cursor, visiting records in `ord` order (staging order when
/// empty).
template <class Target>
void scatter_buffer(const detail::StagingBuffer& b,
                    const std::vector<std::uint32_t>& ord, Target target,
                    std::uint32_t* cursor, Envelope* arena,
                    std::size_t arena_size) {
  const std::size_t m = b.size();
  const VertexId* from = b.from.data();
  const Message* msg = b.msg.data();
  // Hint the write-allocate for an upcoming destination; the cursor may
  // advance a little before we get there, but the line it points at now is
  // almost always the line we will touch.  A tail-heavy receiver's cursor
  // can already sit at the arena end; clamp so the hint address stays
  // inside (or one past) the allocation.  (Spelled out in each loop: GCC
  // drops a prefetch wrapped in a lambda as a side-effect-free call.)
  constexpr std::size_t kAhead = 12;
  if (ord.empty()) {
    for (std::size_t i = 0; i < m; ++i) {
      if (i + kAhead < m) {
        const std::size_t ahead = cursor[target(i + kAhead)];
        __builtin_prefetch(arena + std::min(ahead, arena_size), 1, 0);
      }
      arena[cursor[target(i)]++] = Envelope{from[i], msg[i]};
    }
  } else {
    const std::uint32_t* order = ord.data();
    for (std::size_t i = 0; i < m; ++i) {
      if (i + kAhead < m) {
        const std::size_t ahead = cursor[target(order[i + kAhead])];
        __builtin_prefetch(arena + std::min(ahead, arena_size), 1, 0);
      }
      const std::size_t idx = order[i];
      arena[cursor[target(idx)]++] = Envelope{from[idx], msg[idx]};
    }
  }
}

}  // namespace

void ShardPlane::phase_count(int s) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto [lo, hi] = shard_range(s);
  auto& counts = counts_[static_cast<std::size_t>(s)];
  auto& keys = key_scratch_[static_cast<std::size_t>(s)];
  counts.assign(hi - lo, 0);
  std::uint64_t total = 0;
  for (int q = 0; q < shards_; ++q) {
    const std::size_t idx = index(q, s);
    const detail::StagingBuffer& b = bufs_[idx];
    with_target(*graph_, b, shards_ > 1 ? tos_[idx].data() : nullptr, lo,
                [&](auto target) {
                  buf_congestion_[idx] = count_buffer(
                      b, target, counts.data(), keys, order_[idx]);
                });
    total += b.size();
  }
  auto& st = stats_.shard[static_cast<std::size_t>(s)];
  st.received = total;
  st.buffer_ms = ms_since(t0);
}

void ShardPlane::phase_scatter(int s) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto [lo, hi] = shard_range(s);
  auto& counts = counts_[static_cast<std::size_t>(s)];
  // Publish this shard's slice of the global CSR offsets (vertices [lo, hi)
  // only -- offsets_[n] is written serially by deliver(), and neighboring
  // shards' slices are disjoint, so no write is shared across workers) and
  // repurpose counts as scatter cursors into this shard's slice of the
  // arena.
  const auto first = offsets_.begin() + static_cast<std::ptrdiff_t>(lo);
  std::exclusive_scan(counts.begin(), counts.end(), first,
                      shard_msg_base_[static_cast<std::size_t>(s)]);
  std::copy(first, first + static_cast<std::ptrdiff_t>(hi - lo),
            counts.begin());
  // Scatter the S incoming buffers in sender-shard order: sender shards
  // partition the directed-slot space monotonically, so this visits each
  // receiver's messages in globally ascending slot order -- the canonical
  // delivery order.
  for (int q = 0; q < shards_; ++q) {
    const std::size_t idx = index(q, s);
    const detail::StagingBuffer& b = bufs_[idx];
    with_target(*graph_, b, shards_ > 1 ? tos_[idx].data() : nullptr, lo,
                [&](auto target) {
                  scatter_buffer(b, order_[idx], target, counts.data(),
                                 arena_.data(), arena_.size());
                });
  }
  stats_.shard[static_cast<std::size_t>(s)].scatter_ms = ms_since(t0);
}

void ShardPlane::deliver(int workers) {
  const auto S = static_cast<std::size_t>(shards_);
  const std::size_t n = graph_->num_vertices();
  const int w = clamp_workers(workers, shards_);

  // Fault-armed runs route every buffer through the wire frame path first
  // (serial, deterministic); disarmed runs pay one relaxed load here and
  // exchange buffers in memory.  A 1 x 1 plane has no wire to cross.
  if (shards_ > 1 &&
      FaultPlane::instance().armed(FaultCategory::kShard)) {
    wire_exchange();
  }

  // Phase A, parallel over destination shards: canonicalize buffers, read
  // congestion, count receivers.  All writes are per-dest-shard-local.
  EpochScheduler::run_partitioned(
      S, w, [&](int /*w*/, std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          phase_count(static_cast<int>(s));
        }
      });

  // Serial barrier: shard totals -> global arena base offsets, buffer
  // congestion -> global max.  Exact because every directed slot lives in
  // exactly one (sender, dest) buffer.
  std::size_t total_staged = 0;
  stats_.max_congestion = 0;
  shard_msg_base_[0] = 0;
  for (std::size_t s = 0; s < S; ++s) {
    total_staged += stats_.shard[s].received;
    XD_CHECK_MSG(total_staged < (std::uint64_t{1} << 32),
                 "too many staged messages for one exchange");
    shard_msg_base_[s + 1] =
        shard_msg_base_[s] + static_cast<std::uint32_t>(stats_.shard[s].received);
  }
  for (const std::uint64_t c : buf_congestion_) {
    stats_.max_congestion = std::max(stats_.max_congestion, c);
  }
  stats_.staged = total_staged;
  offsets_[n] = shard_msg_base_[S];
  arena_.resize(total_staged);

  // Phase B, parallel over destination shards: publish offsets and scatter
  // into disjoint slices of the arena.
  EpochScheduler::run_partitioned(
      S, w, [&](int /*w*/, std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          phase_scatter(static_cast<int>(s));
        }
      });

  for (auto& b : bufs_) b.clear();
  for (auto& t : tos_) t.clear();
}

}  // namespace xd::congest
