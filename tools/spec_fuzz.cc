// spec_fuzz — deterministic mutational fuzzer for the repo's spec
// grammars (run under ASan/UBSan in CI).
//
//   spec_fuzz [--iters=10000] [--seed=1] [--grammars=gen,sched]
//
// Every parser in the repo promises "throw std::invalid_argument with a
// self-explanatory message, or succeed" — never crash, never throw
// anything else, never loop. This tool hammers that contract: starting
// from a per-grammar corpus of valid specs it applies seeded byte-level
// mutations (flip, insert, delete, swap, truncate, splice, number
// perturbation) and feeds the result to the parser. Outcomes:
//
//   * parse succeeds  -> the canonical reserialization must re-parse to
//                        an equal spec (round-trip law, where the grammar
//                        has one);
//   * invalid_argument -> fine, that is the contract;
//   * anything else    -> bug: report the input (hex + raw) and abort.
//
// Determinism: the mutation stream is splitmix64-driven from --seed, so
// a failing iteration reproduces with the same --seed/--iters/--grammars
// invocation. Exit codes: 0 = all iterations clean, 1 = contract
// violation, 2 = bad invocation.
#include <cstdint>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "gen/genspec.h"
#include "sched/schedspec.h"
#include "util/cli.h"

using namespace cachesched;

namespace {

// --- deterministic PRNG (no system entropy: runs must reproduce) -------

struct SplitMix64 {
  uint64_t s;
  explicit SplitMix64(uint64_t seed) : s(seed) {}
  uint64_t next() {
    uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  // Uniform in [0, n); n must be > 0.
  uint64_t below(uint64_t n) { return next() % n; }
};

// --- mutation engine ---------------------------------------------------

// Characters the grammars actually use, biased toward structure bytes so
// mutations hit delimiter handling, not just value digits.
const char kAlphabet[] = "0123456789abcdefghijklmnopqrstuvwxyz"
                         ":,=._-+ \t%*/ABCZ\x00\x7f\xff";

std::string mutate(const std::string& base, SplitMix64& rng,
                   const std::vector<std::string>& corpus) {
  std::string s = base;
  const int rounds = 1 + static_cast<int>(rng.below(4));
  for (int r = 0; r < rounds; ++r) {
    switch (rng.below(7)) {
      case 0:  // flip one byte
        if (!s.empty()) {
          s[rng.below(s.size())] =
              kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
        }
        break;
      case 1:  // insert one byte
        s.insert(s.begin() + static_cast<long>(rng.below(s.size() + 1)),
                 kAlphabet[rng.below(sizeof(kAlphabet) - 1)]);
        break;
      case 2:  // delete one byte
        if (!s.empty()) {
          s.erase(s.begin() + static_cast<long>(rng.below(s.size())));
        }
        break;
      case 3:  // swap two bytes
        if (s.size() >= 2) {
          std::swap(s[rng.below(s.size())], s[rng.below(s.size())]);
        }
        break;
      case 4:  // truncate at a random point
        s.resize(rng.below(s.size() + 1));
        break;
      case 5: {  // splice a random slice of another corpus entry
        const std::string& other = corpus[rng.below(corpus.size())];
        if (!other.empty()) {
          const size_t at = rng.below(other.size());
          const size_t len = 1 + rng.below(other.size() - at);
          s.insert(rng.below(s.size() + 1), other, at, len);
        }
        break;
      }
      case 6: {  // perturb a digit run into an extreme number
        size_t i = 0;
        while (i < s.size() && (s[i] < '0' || s[i] > '9')) ++i;
        if (i < s.size()) {
          size_t j = i;
          while (j < s.size() && s[j] >= '0' && s[j] <= '9') ++j;
          static const char* kNums[] = {"0",
                                        "1",
                                        "18446744073709551615",
                                        "18446744073709551616",
                                        "99999999999999999999999999",
                                        "-1",
                                        "4294967296"};
          s.replace(i, j - i, kNums[rng.below(7)]);
        }
        break;
      }
    }
    if (s.size() > 4096) s.resize(4096);  // parsers are O(len); stay sane
  }
  return s;
}

// --- grammar adapters --------------------------------------------------

struct Grammar {
  const char* name;
  std::vector<std::string> corpus;
  // Parse `input`; on success optionally verify the round-trip law.
  // Must throw only std::invalid_argument on rejection.
  void (*parse)(const std::string& input);
};

void parse_gen(const std::string& input) {
  const GenSpec g = GenSpec::parse(input);
  // Round-trip law documented at GenSpec::canonical().
  const GenSpec g2 = GenSpec::parse(g.canonical());
  if (g2.canonical() != g.canonical()) {
    throw std::logic_error("genspec canonical round-trip mismatch: \"" +
                           g.canonical() + "\" vs \"" + g2.canonical() + "\"");
  }
}

void parse_sched(const std::string& input) {
  const SchedSpec s = SchedSpec::parse(input);
  const SchedSpec s2 = SchedSpec::parse(s.str());
  if (s2.str() != s.str()) {
    throw std::logic_error("schedspec str round-trip mismatch: \"" + s.str() +
                           "\" vs \"" + s2.str() + "\"");
  }
}

std::vector<Grammar> make_grammars() {
  std::vector<Grammar> gs;
  gs.push_back(
      {"gen",
       {"dnc", "dnc:depth=6,fanout=2,ws=16384", "forkjoin:stages=4,width=8",
        "layered:layers=6,width=8,p=0.5,seed=7",
        "pipeline:stages=4,items=16,reuse=loop,passes=4",
        "stencil:tiles=8,steps=8,share=0.25,shared=65536",
        "dnc:ws=4096,share=0.1,reuse=rand,passes=2,ipr=8,seed=3"},
       &parse_gen});
  gs.push_back({"sched",
                {"ws", "pdf", "seq", "ws:steal=half,victim=rand",
                 "priority:alpha=0.5,beta=0.25", "name:k=v,k2=v2"},
                &parse_sched});
  return gs;
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const uint64_t iters = args.get_int<uint64_t>("iters", 10000);
  const uint64_t seed = args.get_int<uint64_t>("seed", 1);
  const std::vector<std::string> wanted =
      args.get_list("grammars", "gen,sched");

  std::vector<Grammar> all = make_grammars();
  std::vector<Grammar*> active;
  for (const std::string& w : wanted) {
    bool found = false;
    for (Grammar& g : all) {
      if (w == g.name) {
        active.push_back(&g);
        found = true;
      }
    }
    if (!found) {
      std::fprintf(stderr, "spec_fuzz: unknown grammar \"%s\"\n", w.c_str());
      return kExitUsage;
    }
  }
  if (const int rc = args.check_unused(); rc != 0) return rc;
  if (active.empty()) {
    std::fprintf(stderr, "spec_fuzz: no grammars selected\n");
    return kExitUsage;
  }

  // Every corpus entry must parse cleanly before we mutate anything — a
  // corpus rotted by a grammar change must fail loudly, not fuzz garbage.
  for (const Grammar* g : active) {
    for (const std::string& c : g->corpus) {
      try {
        g->parse(c);
      } catch (const std::exception& e) {
        std::fprintf(stderr,
                     "spec_fuzz: corpus entry for grammar \"%s\" does not "
                     "parse: \"%s\": %s\n",
                     g->name, c.c_str(), e.what());
        return kExitRuntime;
      }
    }
  }

  SplitMix64 rng(seed ? seed : 1);
  uint64_t accepted = 0, rejected = 0;
  for (uint64_t i = 0; i < iters; ++i) {
    Grammar& g = *active[rng.below(active.size())];
    const std::string& base = g.corpus[rng.below(g.corpus.size())];
    const std::string input = mutate(base, rng, g.corpus);
    try {
      g.parse(input);
      ++accepted;
    } catch (const std::invalid_argument&) {
      ++rejected;  // the contract: descriptive rejection
    } catch (const std::exception& e) {
      std::fprintf(stderr,
                   "spec_fuzz: CONTRACT VIOLATION at iter %llu "
                   "(grammar %s, --seed=%llu): threw %s\n  input: \"",
                   static_cast<unsigned long long>(i), g.name,
                   static_cast<unsigned long long>(seed), e.what());
      for (unsigned char ch : input) {
        if (ch >= 0x20 && ch < 0x7f) {
          std::fputc(ch, stderr);
        } else {
          std::fprintf(stderr, "\\x%02x", ch);
        }
      }
      std::fprintf(stderr, "\"\n");
      return kExitRuntime;
    }
    // A crash (signal) under ASan/UBSan aborts the process here — that is
    // the other half of the contract this tool enforces.
  }

  std::printf("spec_fuzz: %llu iterations over %zu grammar(s): "
              "%llu parsed, %llu rejected, 0 contract violations\n",
              static_cast<unsigned long long>(iters), active.size(),
              static_cast<unsigned long long>(accepted),
              static_cast<unsigned long long>(rejected));
  return kExitOk;
}
