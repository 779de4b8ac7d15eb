// The spin-node pool of the long-lived transformation (Section 6.2,
// "Recycling spin nodes"), for both placements of the lock.
//
// A spin node may be busy-waited on by a process even after LockDesc no
// longer points to it, so reuse requires knowing no process can still spin
// on the node. The paper cites Aghazadeh, Golab & Woelfel's constant-RMR
// reclamation scheme; we implement the same pool discipline with an
// announce-array quiescence test (see DESIGN.md's substitution table):
//
//   * a process spins on a node only when the node equals its saved oldSpn
//     (Algorithm 6.1, lines 57-59). Before saving a node as oldSpn — i.e.
//     before the Refcnt decrement of Cleanup — the process *publishes* the
//     node index in announce[p]. Claim 24 guarantees LockDesc.Spn cannot
//     change between the read that obtains the node and the decrement, so
//     the publication strictly precedes the switch that retires the node,
//     and therefore precedes any owner reclamation scan;
//   * an owner reuses one of its nodes only if it was retired (its go flag
//     was set by the switch that replaced it) and no announce entry pins it.
//
// Pool sizing (paper): N+1 nodes per process always leaves a reusable node.
// At the moment an owner allocates for a switch, its own announce pins
// exactly the node being replaced, so at most N distinct nodes of the owner
// are pinned or installed; asserted at runtime.
//
// Node state is one mark per node: free, issued, or reclaiming. Allocation
// is `select` (the owner's highest-index free node; one batched reclaim scan
// only when none is free) then `commit` (mark it issued), so a journal can
// record the choice in between. Allocation is O(N) mark reads outside model
// memory and O(1) amortized model operations (the cited scheme achieves
// O(1) worst-case; the difference only affects the switching process, not
// the lock's passage RMR bound shape).
//
// Placement follows the word space: over a space with an arena
// (ipc::ShmSpace) the marks live in the arena after the go and announce
// words, so they survive their owner for its recoverer and the pid's next
// leaseholder; otherwise they live in process memory. Every entry point
// takes (exec, owner): in process exec == owner; during shm recovery a
// survivor executes for a dead owner, and reclaim is idempotent so a death
// inside it costs nothing — a reclaimer marks a node reclaiming *before*
// resetting its go word, and select/reclaim finish any node they find in
// that state (safe: a retired node is never newly pinned, Claim 24).
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "aml/model/ordered.hpp"
#include "aml/model/types.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/pal/config.hpp"
#include "aml/pal/edges.hpp"

namespace aml::core {

template <typename M, typename Metrics = obs::NullMetrics>
class SpinNodePool {
 public:
  using Word = typename M::Word;
  using Pid = model::Pid;

  static constexpr std::uint64_t kNoPin = ~std::uint64_t{0};

  struct Node {
    Word* go = nullptr;
  };

  /// Pools of `per_pool` nodes for each of `nprocs` owners. The long-lived
  /// lock uses per_pool = N+1. Owner 0's highest node starts issued: it is
  /// the spin node of the initially installed instance (initial_node()).
  SpinNodePool(M& mem, Pid nprocs, std::uint32_t per_pool)
      : mem_(mem), nprocs_(nprocs), per_pool_(per_pool) {
    const std::size_t total = static_cast<std::size_t>(nprocs) * per_pool;
    nodes_.reserve(total);
    for (std::size_t i = 0; i < total; ++i) {
      nodes_.push_back(Node{mem_.alloc(1, 0)});
    }
    announce_.reserve(nprocs);
    for (Pid p = 0; p < nprocs; ++p) {
      announce_.push_back(mem_.alloc(1, kNoPin));
    }
    bool owns_initial_values = true;
    if constexpr (requires { mem.arena().creating(); }) {
      // Only the creator stores; an attacher replays the allocation.
      marks_ = mem.arena().template alloc_array<std::uint32_t>(total);
      owns_initial_values = mem.arena().creating();
    } else {
      local_marks_.assign(total, kFree);
      marks_ = local_marks_.data();
    }
    if (owns_initial_values) {
      mark(initial_node()).store(kIssued, std::memory_order_relaxed);  // AML_RELAXED(construction; published with the lock, or by ipc.arena_seal)
    }
  }

  SpinNodePool(const SpinNodePool&) = delete;
  SpinNodePool& operator=(const SpinNodePool&) = delete;

  Node& node(std::uint32_t global_idx) { return nodes_[global_idx]; }
  std::uint32_t initial_node() const { return per_pool_ - 1; }

  /// Bind an observability sink (no-op for the NullMetrics default).
  void set_metrics(Metrics* sink) { obs_.bind(sink); }

  /// Publish that `owner` holds `global_idx` as its oldSpn. MUST be invoked
  /// before the Refcnt decrement that makes the node's retirement possible.
  /// Release suffices: the pin reaches the reclaim scan through the seq_cst
  /// F&A chain on LockDesc (pin -> our decrement -> owner's last-decrement),
  /// so the scan's read happens-after this store.
  void publish_pin(Pid exec, Pid owner, std::uint32_t global_idx) {
    model::ord::write_rel(mem_, exec, pin(owner),  // AML_V_EDGE(spinpool.pin_publish)
                          global_idx);
  }
  /// `owner`'s announce word, for a journal that publishes pins itself.
  Word& pin(Pid owner) { return *announce_[owner]; }

  /// Withdraw `owner`'s pin (tests / teardown; the lock itself simply
  /// overwrites the pin on its next Cleanup).
  void clear_pin(Pid exec, Pid owner) { mem_.write(exec, pin(owner), kNoPin); }

  /// Pick `owner`'s highest-index free node (go == 0) without marking it;
  /// reclaim only when none is free. Serialized per owner: the owner
  /// itself, or after its death the one recoverer holding its claim.
  std::uint32_t select(Pid exec, Pid owner) {
    std::uint32_t idx = highest_free(exec, owner);
    if (idx == kNone) {
      reclaim(exec, owner);
      idx = highest_free(exec, owner);
    }
    AML_ASSERT(idx != kNone, "spin-node pool exhausted: invariant violated");
    return idx;
  }

  /// Mark a selected node issued. Idempotent, so a recoverer may redo it.
  void commit(Pid /*exec*/, [[maybe_unused]] Pid owner,
              std::uint32_t global_idx) {
    AML_DASSERT(global_idx / per_pool_ == owner, "commit by non-owner");
    mark(global_idx).store(kIssued, std::memory_order_release);  // AML_V_EDGE(ipc.node_state)
  }

  /// Return a node that never became visible (install CAS lost).
  void unalloc(Pid /*exec*/, Pid owner, std::uint32_t global_idx) {
    AML_ASSERT(global_idx / per_pool_ == owner, "unalloc by non-owner");
    mark(global_idx).store(kFree, std::memory_order_release);  // AML_V_EDGE(ipc.node_state)
  }

  /// Test-only: a reclaim scan that dies after resetting each reclaimable
  /// node and before marking it free (the torn state finish_reclaim heals).
  void debug_reclaim_torn(Pid exec, Pid owner) { reclaim(exec, owner, true); }

  std::size_t total_nodes() const { return nodes_.size(); }

 private:
  /// Node marks. kFree is 0 so a fresh arena's zero pages read as free.
  static constexpr std::uint32_t kFree = 0;       ///< reusable; go == 0
  static constexpr std::uint32_t kIssued = 1;     ///< installed, retired or pinned
  static constexpr std::uint32_t kReclaiming = 2; ///< retired, reset in flight
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  std::atomic_ref<std::uint32_t> mark(std::uint32_t global_idx) const {
    return std::atomic_ref<std::uint32_t>(marks_[global_idx]);
  }

  /// `owner`'s highest-index free node (finishing a half-reclaimed one on
  /// the way), or kNone.
  std::uint32_t highest_free(Pid exec, Pid owner) {
    for (std::uint32_t k = per_pool_; k-- > 0;) {
      const std::uint32_t idx = owner * per_pool_ + k;
      const std::uint32_t m =
          mark(idx).load(std::memory_order_acquire);  // AML_X_EDGE(ipc.node_state)
      if (m == kReclaiming) {
        finish_reclaim(exec, idx);
        obs_.on_spin_node_recycle(exec, 1);
      }
      if (m != kIssued) return idx;
    }
    return kNone;
  }

  /// Batch reclamation: one scan of the announce array, then sweep the
  /// owner's issued nodes, reclaiming each that is retired (go == 1) and
  /// unpinned, and finishing any a dead reclaimer left half done.
  void reclaim(Pid exec, Pid owner, bool torn = false) {
    std::vector<bool> pinned(per_pool_, false);
    for (Pid p = 0; p < nprocs_; ++p) {
      // Acquire side of the pin publication (see publish_pin).
      const std::uint64_t pin =
          model::ord::read_acq(mem_, exec, *announce_[p]);  // AML_X_EDGE(spinpool.pin_publish)
      if (pin != kNoPin && pin / per_pool_ == owner) {
        pinned[pin % per_pool_] = true;
      }
    }
    std::uint64_t reclaimed = 0;
    for (std::uint32_t k = 0; k < per_pool_; ++k) {
      const std::uint32_t idx = owner * per_pool_ + k;
      const std::uint32_t m =
          mark(idx).load(std::memory_order_acquire);  // AML_X_EDGE(ipc.node_state)
      if (m == kIssued) {
        // Acquire side of the retirement flag: go == 1 was written by the
        // switch that replaced this node (Cleanup line 77); otherwise it is
        // still installed.
        if (pinned[k] ||
            model::ord::read_acq(mem_, exec, *nodes_[idx].go) != 1) {  // AML_X_EDGE(longlived.spn_switch)
          continue;
        }
        // The mark precedes the reset in every prefix a dying reclaimer
        // can leave behind; otherwise an issued node with go == 0 would
        // read as installed forever.
        mark(idx).store(kReclaiming, std::memory_order_relaxed);  // AML_RELAXED(ordered before the reset by its release store)
      } else if (m != kReclaiming) {
        continue;
      }
      finish_reclaim(exec, idx, torn);
      if (!torn) ++reclaimed;
    }
    if (reclaimed != 0) obs_.on_spin_node_recycle(exec, reclaimed);
  }

  /// Reset go and mark the node free; idempotent. `torn` (tests only) stops
  /// between the two stores, where a killed reclaimer would.
  void finish_reclaim(Pid exec, std::uint32_t idx, bool torn = false) {
    // Reset is private until the node is re-issued: the free mark's release
    // below publishes it to the next selector (ipc.node_state), and a
    // spinner only finds the node through a LockDesc read that
    // happens-after the owner's seq_cst install CAS. The reset is itself a
    // release so that whoever reads go == 0 also reads the kReclaiming mark
    // stored before it (the same plain mov as a relaxed store on x86-64,
    // and unlike a standalone fence, visible to TSan).
    model::ord::write_rel(mem_, exec, *nodes_[idx].go, 0);  // AML_V_EDGE(ipc.node_state)
    if (torn) return;
    mark(idx).store(kFree, std::memory_order_release);  // AML_V_EDGE(ipc.node_state)
  }

  M& mem_;
  Pid nprocs_;
  std::uint32_t per_pool_;
  std::vector<Node> nodes_;
  std::vector<Word*> announce_;
  std::vector<std::uint32_t> local_marks_;  ///< backs marks_ in process memory
  std::uint32_t* marks_ = nullptr;          ///< one per node, by owner range
  [[no_unique_address]] obs::SinkHandle<Metrics> obs_;
};

}  // namespace aml::core
