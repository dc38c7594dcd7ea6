// Synthetic-workload spec strings (DESIGN: src/gen/).
//
// A generated workload is addressed by a compact spec string
//
//   family:key=val,key=val,...
//   e.g. "dnc:depth=12,fanout=4,ws=64K,share=0.3,seed=7"
//
// naming one of five parameterized DAG families plus its knobs. Specs are
// the make_workload names of the generator subsystem: anywhere a seed
// app name is accepted (sweep --apps, cachesched_cli run, perfbench)
// a spec string works too, so the paper's experiments extend to an
// unbounded scenario space instead of the seven hand-written benchmarks.
//
// Families:
//   dnc       — recursive divide-and-conquer: a fanout^depth tree of leaf
//               tasks under divide/combine tasks whose working sets grow
//               geometrically toward the root (mergesort-shaped).
//   forkjoin  — series-parallel: `stages` sequential fork -> width
//               parallel bodies -> join phases; bodies re-touch the same
//               per-slot regions every stage (cross-stage reuse).
//   layered   — layered-random: `layers` x `width` grid with Erdős–Rényi
//               dependence edges (probability p) between adjacent layers;
//               per-column working sets.
//   pipeline  — `items` flowing through `stages`: task (i,s) depends on
//               (i-1,s) and (i,s-1); stage-local state is re-read by every
//               item (constructive sharing when co-scheduled).
//   stencil   — 1-D Jacobi: `steps` x `tiles` grid, each task reads its
//               three neighbor tiles from one array and writes its tile to
//               the other.
//
// Common knobs (all families): ws (per-task working-set bytes, K/M/G
// suffixes), share (fraction of refs into one global shared region),
// shared (that region's size; 8*ws when absent), reuse
// (stream|loop|rand), passes (region revisits for loop/rand), seed, ipr
// (instructions per reference). Every key's default is its row in
// genspec.cc.
//
// Parsing is strict (the grammar of util/spec.h): unknown families/keys,
// malformed or out-of-range values, duplicate keys and specs that would
// expand into absurd task counts are all rejected with a descriptive
// std::invalid_argument — never silently defaulted (experiment scripts
// must fail loudly).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cachesched {

enum class GenFamily : uint8_t {
  kDnc,
  kForkJoin,
  kLayered,
  kPipeline,
  kStencil,
};

enum class ReuseProfile : uint8_t {
  kStream,  // one pass over the region: compulsory misses only
  kLoop,    // `passes` sequential passes: temporal reuse at distance ws
  kRandom,  // `passes * lines` uniform refs: irregular reuse
};

struct GenSpec {
  GenFamily family = GenFamily::kDnc;

  // Common knobs.
  uint64_t ws_bytes = 0;      // per-task private working set
  double share = 0.0;         // fraction of refs to the shared region
  uint64_t shared_bytes = 0;  // shared-region size; 0 = 8 * ws
  ReuseProfile reuse = ReuseProfile::kStream;
  uint32_t passes = 0;        // loop/rand region revisits
  uint64_t seed = 0;
  uint32_t instr_per_ref = 0;

  // Family knobs: parse sets the family's own, from its rows.
  // dnc
  uint32_t depth = 0;
  uint32_t fanout = 0;
  // forkjoin / pipeline
  uint32_t stages = 0;
  // forkjoin / layered
  uint32_t width = 0;
  // layered
  uint32_t layers = 0;
  double edge_prob = 0.0;
  // pipeline
  uint32_t items = 0;
  // stencil
  uint32_t tiles = 0;
  uint32_t steps = 0;

  /// Parses `spec` ("family" or "family:k=v,..."). Throws
  /// std::invalid_argument with a self-explanatory message on any unknown
  /// family or key, malformed value, duplicate key, out-of-range value, or
  /// a parameter combination whose task count exceeds the build cap.
  static GenSpec parse(const std::string& spec);

  /// Family names accepted by parse, sorted (the generated side of
  /// make_workload).
  static std::vector<std::string> family_names();

  /// True if `name` (the part of a workload spec before ':') is a
  /// generator family.
  static bool is_family(const std::string& name);

  std::string family_name() const;

  /// Canonical spec string: family plus every knob the family uses, in a
  /// fixed order. parse(canonical()) round-trips to an identical spec.
  std::string canonical() const;

  /// Human-readable parameter description (Workload::params).
  std::string describe() const;

  /// Number of DAG tasks this spec expands into.
  uint64_t num_tasks() const;
};

}  // namespace cachesched
