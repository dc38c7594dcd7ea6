#include "sched/registry.h"

#include <limits>
#include <stdexcept>

#include "sched/central_fifo_scheduler.h"
#include "sched/feedback_scheduler.h"
#include "sched/priority_scheduler.h"
#include "sched/ws_scheduler.h"

namespace cachesched {
namespace {

using Steal = WsScheduler::Steal;

// A family's rows: the keys `list` prints, in order, with the defaults
// its builder reads.
constexpr SpecKey kAffKeys[] = {
    {"steal", "one", "tasks per steal: one or half (bottom ceil(n/2))"},
};
constexpr SpecKey kCfbKeys[] = {
    {"budget", "1.0", "live working-set cap as a fraction of L2 bytes"},
};
constexpr SpecKey kPrioKeys[] = {
    {"key", "id", "task key: id (1DF), depth, work, ws (group param)"},
    {"order", "min", "extremum handed out first: min or max"},
};
constexpr SpecKey kWsKeys[] = {
    {"victims", "seq", "victim order: seq (ring scan from self+1) or rand"},
    kAffKeys[0],  // steal
    {"seed", "1", "per-core PRNG seed (victims=rand only)"},
};

using Made = std::unique_ptr<Scheduler>;

Steal get_steal(const SpecParams& p) {
  return static_cast<Steal>(p.get_choice("steal", {"one", "half"}));
}

// ws with nearest-first victims (ws_scheduler.h).
Made make_aff(const SpecParams& p, const std::string& label) {
  WsScheduler::Options opt;
  opt.victims = WsScheduler::Victims::kNearest;
  opt.steal = get_steal(p);
  return std::make_unique<WsScheduler>(opt, label);
}

Made make_cfb(const SpecParams& p, const std::string& label) {
  return std::make_unique<FeedbackScheduler>(
      FeedbackScheduler::Options{p.get_frac("budget", 0.001, 64.0)}, label);
}

Made make_fifo(const SpecParams&, const std::string&) {
  return std::make_unique<CentralFifoScheduler>();
}

// prio's default order: key=id, order=min.
Made make_pdf(const SpecParams&, const std::string&) {
  return std::make_unique<PriorityScheduler>();
}

Made make_prio(const SpecParams& p, const std::string& label) {
  PriorityScheduler::Options opt;
  opt.key = static_cast<PriorityScheduler::Key>(
      p.get_choice("key", {"id", "depth", "work", "ws"}));
  opt.order = static_cast<PriorityScheduler::Order>(
      p.get_choice("order", {"min", "max"}));
  return std::make_unique<PriorityScheduler>(opt, label);
}

Made make_ws(const SpecParams& p, const std::string& label) {
  WsScheduler::Options opt;
  opt.victims = static_cast<WsScheduler::Victims>(
      p.get_choice("victims", {"seq", "rand"}));
  opt.steal = get_steal(p);
  opt.seed = p.get_u64("seed", 0, std::numeric_limits<uint64_t>::max());
  return std::make_unique<WsScheduler>(opt, label);
}

/// One scheduler family: `build` makes it from its parsed parameters;
/// `label` is the spec as given, the name() a parameterized family
/// reports.
struct Family {
  const char* name;
  std::span<const SpecKey> keys;
  Made (*build)(const SpecParams& p, const std::string& label);
};

// Sorted by name.
constexpr Family kFamilies[] = {
    {"aff", kAffKeys, make_aff},    {"cfb", kCfbKeys, make_cfb},
    {"fifo", {}, make_fifo},        {"pdf", {}, make_pdf},
    {"prio", kPrioKeys, make_prio}, {"ws", kWsKeys, make_ws},
};

const Family* find_family(const std::string& name) {
  for (const Family& f : kFamilies) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

}  // namespace

std::unique_ptr<Scheduler> make_scheduler(const std::string& text) {
  const Spec spec = Spec::parse(text, "scheduler");
  const Family* fam = find_family(spec.name);
  if (!fam) spec.fail_unknown(known_schedulers());
  return fam->build(SpecParams(spec, fam->keys), text);
}

std::vector<std::string> known_schedulers() {
  std::vector<std::string> out;
  for (const Family& f : kFamilies) out.push_back(f.name);
  return out;
}

std::span<const SpecKey> scheduler_keys(const std::string& name) {
  const Family* fam = find_family(name);
  if (!fam) throw std::invalid_argument("unknown scheduler: " + name);
  return fam->keys;
}

}  // namespace cachesched
