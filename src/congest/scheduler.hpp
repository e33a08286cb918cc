#pragma once

/// \file scheduler.hpp
/// Host-side fork/join pool for independent simulation work items.
///
/// The paper's round bounds assume the algorithm runs on all disjoint
/// components *in parallel* -- one CONGEST network, one clock.  The epoch
/// scheduler is the host half of that model: the decomposition driver (and
/// the triangle enumerator's per-cluster stage) collects every active
/// component of a recursion level into one batch -- an *epoch* -- and runs
/// the items concurrently here, each with its own forked RoundLedger branch
/// (ledger.hpp) and its own seed-split Rng.
///
/// Determinism contract (matching the round engine's bit-identical rule,
/// docs/engine.md): items of an epoch are vertex-disjoint, so an item's
/// computation depends only on its own inputs -- pre-forked RNG, private
/// ledger branch, and a snapshot of shared state that no item mutates.
/// Which host thread runs an item, and in what order items finish, can
/// never change what any item computes; callers merge the per-item outputs
/// in item-index order, so the combined result is bit-identical at any
/// thread count.  Round accounting is covered in docs/rounds.md.

#include <cstddef>
#include <functional>

#include "congest/ledger.hpp"

namespace xd::congest {

namespace detail {

/// Test hook: called with the worker index immediately before that worker's
/// std::thread is constructed; a throwing hook simulates thread creation
/// failing mid-loop (resource exhaustion).  Backed by the fault-plane
/// registry's "sched.spawn" hook slot (util/fault_plane.hpp), so setting it
/// is thread-safe; pass {} to reset.  The fault plane's own sched.* sites
/// (sched.spawn / sched.stall / sched.throw) inject the same failures from
/// an XD_FAULTS spec without any hook.
void set_spawn_fault_hook_for_testing(std::function<void(int)> hook);

}  // namespace detail

/// Runs batches ("epochs") of independent work items on a pool of host
/// threads.  Work-sharing: workers pull the next unclaimed item index from
/// a shared cursor, so one oversized component keeps the remaining workers
/// busy on the rest of the level instead of idling behind it.
class EpochScheduler {
 public:
  explicit EpochScheduler(int threads = 1) { set_threads(threads); }

  /// Host threads used by run(); >= 1.  Thread count shapes wall-clock
  /// only, never results.
  void set_threads(int threads);
  [[nodiscard]] int threads() const { return threads_; }

  /// Runs fn(i) for every i in [0, n) and returns after all complete (the
  /// epoch barrier).  fn must only mutate item-local state; exceptions
  /// propagate (first one wins, matching the round engine's behavior).
  void run(std::size_t n, const std::function<void(std::size_t)>& fn) const;

  /// The concurrent-epoch idiom in one call: forks one branch of `root`
  /// per item, runs fn(i, branch_i) as an epoch, and joins at the barrier
  /// (rounds advance by the epoch max -- ledger.hpp).  The join runs even
  /// when an item throws: the aborted epoch's partial branch charges merge
  /// and `root` never carries stale forked children into a later epoch.
  void run_forked(
      RoundLedger& root, std::size_t n,
      const std::function<void(std::size_t, RoundLedger&)>& fn) const;

  /// One epoch of a driver that runs either mode: with `threads` >= 1 the
  /// items run concurrently via run_forked on a pool of that many threads
  /// (rounds advance by the epoch max); otherwise they run sequentially in
  /// index order, each charging `root` directly (rounds sum).  The
  /// decomposition driver and the triangle enumerator's per-cluster stage
  /// both step their epochs through here.
  static void run_epoch(
      int threads, RoundLedger& root, std::size_t n,
      const std::function<void(std::size_t, RoundLedger&)>& fn);

  /// Static contiguous partition: body(worker, lo, hi) over [0, n) split
  /// into `workers` ranges.  This is the round engine's phase executor
  /// (Network::run_round and the message plane's delivery phases, over
  /// shards).  Exposed here so the engine and the scheduler share one pool
  /// idiom.  One worker runs body inline, with no type-erased call: a
  /// serial round is a few microseconds, and the engine runs four phases
  /// per round.
  template <class Body>
  static void run_partitioned(std::size_t n, int workers, Body&& body) {
    if (workers == 1) {
      body(0, std::size_t{0}, n);
      return;
    }
    run_partitioned_pool(n, workers, body);
  }

 private:
  /// run_partitioned with `workers` != 1 threads (< 1 is rejected).
  static void run_partitioned_pool(
      std::size_t n, int workers,
      const std::function<void(int, std::size_t, std::size_t)>& body);

  int threads_ = 1;
};

}  // namespace xd::congest
