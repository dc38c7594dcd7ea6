// CMP configurations from the paper.
//
// Table 1 (common): in-order scalar cores; private 64 KB 4-way L1 with
// 128 B lines and 1-cycle hits; shared L2 with 128 B lines; main memory
// latency 300 cycles, service rate 30 cycles (one new request may enter the
// channel every 30 cycles).
//
// Table 2 (default, scaling technology):
//   cores:        1    2    4    8   16   32
//   L2 size (MB) 10    8    4    8   20   40
//   assoc        20   16   16   16   20   20
//   L2 hit (cyc) 15   13   11   13   19   23
//
// Table 3 (single technology, 45 nm): 14 design points from 1 core / 48 MB
// down to 26 cores / 1 MB.
//
// `scaled(f)` shrinks the L2 (and the workloads shrink their inputs by the
// same factor) so that the input/L2 ratios — which determine the miss-curve
// shapes — match the paper at a fraction of the simulation cost. See the
// scaling rule in harness/apps.h.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace cachesched {

struct CmpConfig {
  std::string name;
  int cores = 1;

  // L1 (private, per core). A hit costs the reference's instr_per_ref
  // cycles (simarch/engine.h).
  uint64_t l1_bytes = 64 * 1024;
  int l1_ways = 4;

  // L2 (shared).
  uint64_t l2_bytes = 8 * 1024 * 1024;
  int l2_ways = 16;
  int l2_hit_cycles = 13;

  // Distributed (banked) L2 timing model for the §5.3 comparison of a
  // monolithic shared cache vs a distributed one. 0 = monolithic: every
  // hit costs l2_hit_cycles. >0: lines are address-interleaved across
  // l2_banks bank slots on a ring; a hit costs l2_local_hit_cycles plus
  // bank_hop_cycles per hop between the requesting core's slot and the
  // line's bank. Capacity and replacement are unchanged (S-NUCA style).
  int l2_banks = 0;
  int l2_local_hit_cycles = 7;
  int bank_hop_cycles = 1;

  int line_bytes = 128;

  // Main memory (Table 1).
  int mem_latency_cycles = 300;
  int mem_service_cycles = 30;

  // Cycles charged to a core when it is assigned a task (dispatch,
  // bookkeeping). Both schedulers pay the same cost.
  uint32_t task_dispatch_cycles = 100;

  int l1_sets() const {
    return static_cast<int>(l1_bytes / (uint64_t)line_bytes / l1_ways);
  }
  int l2_sets() const {
    return static_cast<int>(l2_bytes / (uint64_t)line_bytes / l2_ways);
  }

  /// Returns a copy with the L2 capacity scaled by `f` (associativity kept,
  /// sets reduced; the result keeps power-of-two sets). L1 is scaled too,
  /// with a 8 KB floor, to preserve the L1/L2 hierarchy ordering at small
  /// scales.
  CmpConfig scaled(double f) const;

  std::string describe() const;
};

/// The timing-knob overrides an experiment may layer on top of a table
/// configuration — the axes of the paper's sensitivity studies (fig4 L2
/// hit time, fig5 memory latency, §5.3 banking, the dispatch-cost
/// ablation). One struct defines, applies and serializes the delta, so
/// SweepSpec, the CLI's flag parsing and the result store's job-identity
/// key all agree on what a config override is.
struct ConfigOverrides {
  std::optional<int> l2_hit_cycles;
  std::optional<int> mem_latency_cycles;
  std::optional<int> l2_banks;
  std::optional<uint32_t> task_dispatch_cycles;

  /// Overwrites the set CmpConfig fields of `cfg`.
  void apply(CmpConfig& cfg) const;

  /// Stable one-line serialization, e.g.
  /// "l2_hit=19,mem_latency=-,banks=4,dispatch=-" ('-' = unset). Field
  /// order is fixed; used in the result-store job key, so changing it
  /// invalidates stored sweep records.
  std::string serialize() const;

  /// Fully-populated overrides capturing the timing fields of a *final*
  /// configuration: the store's canonical timing signature, independent
  /// of which route (table default, CLI flag, SweepSpec override)
  /// produced the value.
  static ConfigOverrides capture(const CmpConfig& cfg);
};

/// Table 2 configuration for a given core count (1, 2, 4, 8, 16 or 32).
CmpConfig default_config(int cores);

/// All Table 2 configurations, in core order.
std::vector<CmpConfig> default_configs();

/// Table 3: all fourteen 45 nm design points (1–26 cores).
std::vector<CmpConfig> single_tech_45nm_configs();

/// The table a `tech` name selects: "default" (Table 2) or "45nm"
/// (Table 3). Throws std::invalid_argument for any other name.
std::vector<CmpConfig> tech_configs(const std::string& tech);

/// The `cores` entry of tech_configs(tech). Throws std::invalid_argument
/// for an unknown tech or a core count the table does not list.
CmpConfig tech_config(const std::string& tech, int cores);

}  // namespace cachesched
