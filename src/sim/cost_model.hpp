// Two-level cost model of a coarse-grained distributed-memory machine
// (paper, Section 2).
//
// Every remote access costs the same regardless of distance: sending a
// message of m bytes between any two processors takes tau + mu * m, where
// tau is the per-message start-up cost and 1/mu is the data-transfer rate.
// Local computation is not modeled: the machine charges it as the real
// wall-clock time of each virtual processor.  The underlying interconnect
// is treated as a virtual crossbar; optional topology refinements live in
// topology.hpp.
//
// The model is a pure value: nothing here depends on the host, so a given
// operation charges the same modeled time in every process.
#pragma once

#include <cstddef>

namespace pup::sim {

/// Parameters of the two-level model.  All times are in microseconds.
struct CostModel {
  /// Per-message start-up cost (microseconds).
  double tau_us = 86.0;
  /// Per-byte transfer cost (microseconds/byte).
  double mu_us_per_byte = 0.12;

  /// Time to move an m-byte message between two processors.
  constexpr double message_us(std::size_t bytes) const {
    return tau_us + mu_us_per_byte * static_cast<double>(bytes);
  }

  /// CM-5 flavoured parameters: ~86 us CMMD message start-up and ~8 MB/s
  /// per-node transfer rate.  The default of sim::MachineOptions and
  /// service::Server::Options.
  static constexpr CostModel cm5() {
    return CostModel{/*tau_us=*/86.0, /*mu_us_per_byte=*/0.12};
  }
};

}  // namespace pup::sim
