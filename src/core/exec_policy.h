// How a scenario run is executed — orthogonal to what it computes.
//
// An ExecPolicy never changes results: a run split over any number of
// shards is byte-identical to a one-shard run of the same Scenario
// (tests/core/test_fleet_shard.cpp locks this down on serialized JSON). It
// only changes wall-clock shape, so it is deliberately NOT part of
// core::scenario_key() — memoized results are valid across policies.
//
// Sharding model: hubs couple only through the shared net::Medium. With the
// ideal medium (no `network` section) acquire() never suspends, hubs are
// fully independent, and the fleet splits into contiguous hub blocks, one
// Simulator/Arena/ledger per shard on its own worker thread. One shard is
// the same path, run inline on the calling thread.
//
// Window-quantum coupling contract: a SharedAccessPoint whose ApConfig sets
// `reservation_window` (FIFO only) batches every airtime request made during
// a reservation window [kQ−Q, kQ) and arbitrates the batch at the boundary
// kQ in (request time, attachment slot, sequence) order — a total order that
// does not depend on the interleaving in which requests arrive. That is
// exactly a barrier schedule: shards run decoupled inside a window, meet at
// every boundary, and the barrier completion step arbitrates — so windowed
// shared-AP fleets run the same way at every shard count, one included. The
// barrier window is the reservation window, fixed by the scenario; any
// other quantum would arbitrate at the wrong times.
//
// A SharedAccessPoint *without* a reservation window keeps the event-driven
// FIFO/CSMA model: grant order at equal timestamps depends on the global
// event sequence, no partition can reproduce it, and the effective shard
// count collapses to 1. Power-trace recording also forces one shard (one
// shared trace).
#pragma once

namespace iotsim::core {

struct ExecPolicy {
  /// Worker shards to split the fleet across; clamped to [1, fleet size]
  /// and collapsed to 1 whenever hubs couple in a way the barrier cannot
  /// honour (non-windowed shared AP, power trace).
  int shards = 1;
};

}  // namespace iotsim::core
