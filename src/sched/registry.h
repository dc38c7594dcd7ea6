// Scheduler table: every scheduler is made from a spec string, so the
// CLI, the sweep engine (src/exp) and the tests stay decoupled from the
// concrete scheduler headers. A spec is a bare family name ("pdf") or a
// parameterized form ("ws:victims=rand,steal=half,seed=7"; grammar in
// util/spec.h). registry.cc holds one constant row per family: its name,
// its accepted keys with their defaults and docs (`cachesched_cli list`
// prints them, and the builder reads its defaults from them), and a
// builder from the parsed parameters. A policy over an existing mechanism
// is one row (pdf is prio's default order, aff is ws with nearest-first
// victims); a new mechanism is one class plus one row.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/scheduler.h"
#include "util/spec.h"

namespace cachesched {

/// Constructs a fresh scheduler from `spec` ("name" or "name:k=v,...").
/// A parameterized scheduler's name() is the spec as given. Throws
/// std::invalid_argument on a malformed spec, on parameters the family
/// rejects, and on an unknown name — listing the known names plus a
/// nearest-name suggestion for typos.
std::unique_ptr<Scheduler> make_scheduler(const std::string& spec);

/// Family names, sorted.
std::vector<std::string> known_schedulers();

/// The accepted keys of family `name` (empty for a parameterless one);
/// throws std::invalid_argument for an unknown name.
std::span<const SpecKey> scheduler_keys(const std::string& name);

}  // namespace cachesched
