#pragma once

#include "sim/types.hpp"

namespace kspot::sim {

/// The simulator's clock: simulated time in microseconds. Sends advance it
/// by their airtime, waves advance it to their slot schedule's end.
class SimClock {
 public:
  /// Current simulated time.
  TimeUs now() const { return now_; }

  /// Moves the clock forward to `t`; never backwards.
  void AdvanceTo(TimeUs t) {
    if (t > now_) now_ = t;
  }

  /// Sets the clock to `t` exactly, backwards included. sim::DownWave
  /// replays a slotted reception schedule with flat frontiers: each
  /// reception sets the clock to its slot's time even when a send already
  /// advanced it past that slot, and this reproduces that trajectory.
  void JumpTo(TimeUs t) { now_ = t; }

 private:
  TimeUs now_ = 0;
};

}  // namespace kspot::sim
