// Self-test of the benchmark's failure accounting: every kind of bad sort
// the benchmark can meet must be counted as a failed sort, and a good one
// must not. Each case runs one timed sort through the same timed_sort path
// the benchmark uses, with a body that sorts correctly and then damages
// the output in one way. Exits non-zero if any case is miscounted.
//
//   hds_perfbench_selftest
#include <cstdio>
#include <stdexcept>
#include <string>

#include "harness.h"
#include "workload/distributions.h"

namespace {

using namespace hds;
using namespace hds::perfbench;

constexpr int kRanks = 4;
constexpr usize kKeysPerRank = 1000;

int g_failures = 0;

void expect(bool cond, const std::string& what) {
  std::printf("%s: %s\n", cond ? "ok  " : "FAIL", what.c_str());
  if (!cond) ++g_failures;
}

Partitions make_input() {
  workload::GenConfig g;
  g.seed = 7;
  Partitions in(kRanks);
  for (int r = 0; r < kRanks; ++r)
    in[static_cast<usize>(r)] =
        workload::generate_u64(g, r, kRanks, kKeysPerRank);
  return in;
}

/// Sorts with `cfg`, then lets `damage` alter the rank's sorted output.
SortBody damaged(const core::SortConfig& cfg,
                 std::function<void(runtime::Comm&, std::vector<u64>&)> damage) {
  const SortBody sort = sort_body(cfg, nullptr);
  return [sort, damage](runtime::Comm& c, std::vector<u64>& local) {
    sort(c, local);
    damage(c, local);
  };
}

/// Runs one sort of `input` with `body` and checks how it was counted.
void check_case(const std::string& name, double epsilon, const SortBody& body,
                bool should_fail, const std::string& reason) {
  runtime::Team team(runtime::TeamConfig{.nranks = kRanks});
  const Partitions input = make_input();
  const Reference ref = make_reference(input, epsilon);
  Partitions work;
  Tally tally;
  const SortSample s = timed_sort(team, input, work, ref, body, tally);
  expect(tally.attempted == 1, name + ": one sort attempted");
  expect(tally.failed == (should_fail ? 1u : 0u) && s.ok != should_fail,
         name + (should_fail ? ": counted as failed" : ": counted as ok"));
  expect(tally.first_failure.find(reason) != std::string::npos,
         name + ": reason mentions '" + reason + "' (got '" +
             tally.first_failure + "')");
}

/// Rank 1 hands its `moved` smallest keys to rank 0: order and content hold,
/// but rank 0 ends `moved` keys above its capacity.
SortBody shift_keys(const core::SortConfig& cfg, usize moved) {
  return damaged(cfg, [moved](runtime::Comm& c, std::vector<u64>& local) {
    if (c.rank() == 1) {
      c.send(0, /*tag=*/1,
             std::span<const u64>(local.data(), moved));
      local.erase(local.begin(), local.begin() + static_cast<long>(moved));
    } else if (c.rank() == 0) {
      const std::vector<u64> got = c.recv<u64>(1, /*tag=*/1);
      local.insert(local.end(), got.begin(), got.end());
    }
  });
}

}  // namespace

int main() {
  // Every case sorts exactly; only the reference's eps differs.
  const core::SortConfig exact;

  check_case("clean sort", 0.0, sort_body(exact, nullptr), false, "");
  check_case("swapped key pair", 0.0,
             damaged(exact,
                     [](runtime::Comm& c, std::vector<u64>& local) {
                       if (c.rank() == 2) std::swap(local.front(), local.back());
                     }),
             true, "order");
  check_case("dropped key", 0.0,
             damaged(exact,
                     [](runtime::Comm& c, std::vector<u64>& local) {
                       if (c.rank() == 3) local.pop_back();
                     }),
             true, "permutation");
  check_case("rank over its capacity", 0.0, shift_keys(exact, 1), true,
             "capacity");
  // With eps = 0.1, N = 4000 and P = 4 a rank may exceed its capacity by
  // 2 * floor(0.1 * 4000 / 8) = 100 keys, and not by one more.
  check_case("rank within its eps capacity", 0.1, shift_keys(exact, 100),
             false, "");
  check_case("rank over its eps capacity", 0.1, shift_keys(exact, 101), true,
             "capacity");
  check_case("sort that throws", 0.0,
             damaged(exact,
                     [](runtime::Comm& c, std::vector<u64>&) {
                       if (c.rank() == 1)
                         throw std::runtime_error("injected failure");
                     }),
             true, "injected failure");

  Tally tally;
  tally.record(Verdict{true, true, true, 1.0});
  tally.record_throw("x");
  expect(tally.fail_ratio() == 0.5, "fail ratio is failed / attempted");

  std::printf("%s\n", g_failures == 0 ? "all checks passed"
                                      : "SOME CHECKS FAILED");
  return g_failures == 0 ? 0 : 1;
}
