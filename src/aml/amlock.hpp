// Umbrella header for the amlock library: a reproduction of
//
//   Alon & Morrison, "Deterministic Abortable Mutual Exclusion with
//   Sublogarithmic Adaptive RMR Complexity", PODC 2018.
//
// Public surface:
//   * aml::AbortableLock / aml::AbortSignal  — production lock (native).
//   * aml::core::OneShotLock                 — Section 3 one-shot lock;
//     its Wake policy (CcWake default, DsmWake) selects the CC algorithm
//     or the DSM variant.
//   * aml::core::OneShotLockDsm              — alias: the DsmWake lock.
//   * aml::core::Tree                        — Section 4 ordered set.
//   * aml::core::LongLivedLock               — Section 6 transformation.
//   * aml::model::*                          — memory models: native and
//     RMR-counting CC/DSM simulators implementing the paper's cost model.
//   * aml::sched::StepScheduler              — deterministic executions.
//   * aml::baselines::*                      — Table 1 comparison locks.
//   * aml::obs::Metrics / aml::obs::NullMetrics — observability sinks
//     (counters, event ring, hand-off histogram); zero-cost when disabled.
//   * aml::table::NamedLockTable             — sharded named-lock service:
//     keys -> stripes of long-lived abortable locks, RAII thread-id leasing,
//     deadline-based acquisition, ordered multi-key transactions.
#pragma once

#include "aml/pal/bits.hpp"
#include "aml/pal/cache.hpp"
#include "aml/pal/rng.hpp"
#include "aml/pal/threading.hpp"
#include "aml/model/concepts.hpp"
#include "aml/model/native.hpp"
#include "aml/model/counting_cc.hpp"
#include "aml/model/counting_dsm.hpp"
#include "aml/sched/scheduler.hpp"
#include "aml/obs/events.hpp"
#include "aml/obs/histogram.hpp"
#include "aml/obs/metrics.hpp"
#include "aml/core/tree.hpp"
#include "aml/core/oneshot.hpp"
#include "aml/core/versioned_space.hpp"
#include "aml/core/eager_space.hpp"
#include "aml/core/spin_pool.hpp"
#include "aml/core/longlived.hpp"
#include "aml/core/abortable_lock.hpp"
#include "aml/core/adapters.hpp"
#include "aml/table/hash.hpp"
#include "aml/table/thread_registry.hpp"
#include "aml/table/lock_table.hpp"
#include "aml/table/named_table.hpp"
