// Real execution (not simulation): sort data with the native fork-join
// runtime under the Work-Stealing and Parallel-Depth-First executors.
//
//   $ ./native_sort [--threads=4] [--elems=2000000]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "native/task_pool.h"
#include "util/cli.h"
#include "util/rng.h"

using namespace cachesched;
using cachesched::native::Policy;
using cachesched::native::TaskPool;

namespace {

void msort(TaskPool& pool, int* a, int* buf, size_t n) {
  if (n <= 8192) {
    std::sort(a, a + n);
    return;
  }
  const size_t h = n / 2;
  {
    TaskPool::Group g(pool);
    g.spawn([&pool, a, buf, h] { msort(pool, a, buf, h); });
    g.spawn([&pool, a, buf, h, n] { msort(pool, a + h, buf + h, n - h); });
    g.wait();
  }
  std::merge(a, a + h, a + h, a + n, buf);
  std::copy(buf, buf + n, a);
}

}  // namespace

int main(int argc, char** argv) {
  CliArgs args(argc, argv);
  const int threads = args.get_int("threads", 4);
  const size_t elems = args.get_int<size_t>("elems", 2000000);
  if (const int rc = args.check_unused()) return rc;

  std::vector<int> original(elems);
  Xoshiro256 rng(1234);
  for (auto& x : original) x = static_cast<int>(rng.next());

  for (Policy policy : {Policy::kWorkStealing, Policy::kParallelDepthFirst}) {
    auto data = original;
    std::vector<int> buf(elems);
    TaskPool pool(threads, policy);
    const auto t0 = std::chrono::steady_clock::now();
    pool.run([&] { msort(pool, data.data(), buf.data(), elems); });
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    const bool ok = std::is_sorted(data.begin(), data.end());
    std::printf("%-22s %8.1f ms  sorted=%s  steals=%llu\n",
                policy == Policy::kWorkStealing ? "work-stealing"
                                                : "parallel-depth-first",
                ms, ok ? "yes" : "NO",
                static_cast<unsigned long long>(pool.steal_count()));
  }
  std::printf("\n(%d threads, %zu elements; on a many-core host with a "
              "shared LLC the PDF\nexecutor's cache behaviour mirrors the "
              "simulated results)\n",
              threads, elems);
  return 0;
}
