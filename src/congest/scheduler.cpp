#include "congest/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/check.hpp"
#include "util/fault_plane.hpp"

namespace xd::congest {

namespace detail {

void set_spawn_fault_hook_for_testing(std::function<void(int)> hook) {
  FaultPlane::instance().set_hook("sched.spawn", std::move(hook));
}

}  // namespace detail

namespace {

/// Spawns `workers` threads over `body(worker)`, joins them, and rethrows
/// the first exception so XD_CHECK failures inside a worker surface as the
/// same catchable error the serial path gives.  Worker fault sites
/// (sched.spawn before construction, sched.stall / sched.throw inside the
/// worker) inject resource exhaustion, stragglers, and mid-epoch errors on
/// demand; either way every spawned thread is joined exactly once.
void spawn_join(int workers, const std::function<void(int)>& body) {
  FaultPlane& faults = FaultPlane::instance();
  const bool sched_armed = faults.armed(FaultCategory::kSched);
  std::exception_ptr first_error;
  std::mutex error_mu;
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers));
  try {
    for (int w = 0; w < workers; ++w) {
      if (sched_armed) {
        faults.call_hook("sched.spawn", w);
        if (faults.should_fire("sched.spawn",
                               static_cast<std::uint64_t>(w))) {
          throw CheckError("injected fault: sched.spawn at worker " +
                           std::to_string(w));
        }
      }
      pool.emplace_back([&, w] {
        try {
          if (sched_armed) {
            if (faults.should_fire("sched.stall",
                                   static_cast<std::uint64_t>(w))) {
              std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
            if (faults.should_fire("sched.throw",
                                   static_cast<std::uint64_t>(w))) {
              throw CheckError("injected fault: sched.throw in worker " +
                               std::to_string(w));
            }
          }
          body(w);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mu);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
  } catch (...) {
    // std::thread construction failed mid-loop (resource exhaustion).
    // Destroying a joinable thread is std::terminate, so join the partial
    // pool before surfacing the spawn failure.  Body exceptions from those
    // workers are dropped in favor of the spawn error -- the epoch did not
    // run at full width, so its partial results are void anyway.
    for (auto& t : pool) t.join();
    throw;
  }
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace

void EpochScheduler::set_threads(int threads) {
  XD_CHECK_MSG(threads >= 1, "scheduler thread count must be >= 1");
  threads_ = threads;
}

void EpochScheduler::run(std::size_t n,
                         const std::function<void(std::size_t)>& fn) const {
  const int workers =
      static_cast<int>(std::min<std::size_t>(static_cast<std::size_t>(threads_),
                                             n ? n : 1));
  if (workers <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  spawn_join(workers, [&](int /*w*/) {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) return;
      fn(i);
    }
  });
}

void EpochScheduler::run_forked(
    RoundLedger& root, std::size_t n,
    const std::function<void(std::size_t, RoundLedger&)>& fn) const {
  std::vector<RoundLedger*> branches;
  branches.reserve(n);
  for (std::size_t i = 0; i < n; ++i) branches.push_back(&root.fork());
  try {
    run(n, [&](std::size_t i) { fn(i, *branches[i]); });
  } catch (...) {
    root.join();
    throw;
  }
  root.join();
}

void EpochScheduler::run_epoch(
    int threads, RoundLedger& root, std::size_t n,
    const std::function<void(std::size_t, RoundLedger&)>& fn) {
  if (threads >= 1) {
    EpochScheduler(threads).run_forked(root, n, fn);
    return;
  }
  for (std::size_t i = 0; i < n; ++i) fn(i, root);
}

void EpochScheduler::run_partitioned_pool(
    std::size_t n, int workers,
    const std::function<void(int, std::size_t, std::size_t)>& body) {
  XD_CHECK_MSG(workers >= 1, "worker count must be >= 1");
  spawn_join(workers, [&](int w) {
    const std::size_t lo =
        n * static_cast<std::size_t>(w) / static_cast<std::size_t>(workers);
    const std::size_t hi = n * (static_cast<std::size_t>(w) + 1) /
                           static_cast<std::size_t>(workers);
    body(w, lo, hi);
  });
}

}  // namespace xd::congest
