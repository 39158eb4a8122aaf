// hds_perfbench: one workload of the end-to-end sort benchmark per process.
//
//   hds_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--spans-out FILE]
//
// Generates the workload's input from the seed, sets up a Team, then sorts
// the same input again and again for S seconds with core::sort_by_key,
// verifying every output outside its timed interval. It prints a
// human-readable report and, as its last line, one JSON object with the
// keys correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer metrics of a separate traced run with
// --trace 1 (spans written to FILE). README.md defines every metric.
#include <cmath>
#include <cstdio>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "harness.h"
#include "workload/distributions.h"

namespace {

using namespace hds;
using namespace hds::perfbench;

struct Workload {
  const char* name;
  int ranks;
  usize keys_per_rank;
  workload::Dist dist;
  double epsilon;
  core::HistogramMode histogram;
};

// README.md gives the reason for each workload and its dominant layer.
constexpr Workload kWorkloads[] = {
    {"bulk-uniform-p4", 4, usize{1} << 22, workload::Dist::Uniform, 0.0,
     core::HistogramMode::Dense},
    {"latency-fewdistinct-p4", 4, usize{1} << 12,
     workload::Dist::FewDistinct, 0.0, core::HistogramMode::Dense},
    {"scale-sampled-p128", 128, usize{1} << 13, workload::Dist::Uniform, 0.01,
     core::HistogramMode::Sampled},
};

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Timed sorts per run at least, so the tail percentile has ten sorts
/// beyond it and lies at or above the median.
constexpr usize kMinSorts = 21;

struct Options {
  const Workload* workload = nullptr;
  u64 seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans_out;
};

std::optional<Options> parse(int argc, char** argv) {
  Options o;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    try {
      if (key == "--workload") {
        for (const Workload& w : kWorkloads)
          if (val == w.name) o.workload = &w;
      } else if (key == "--seed") {
        o.seed = std::stoull(val);
        have_seed = true;
      } else if (key == "--seconds") {
        o.seconds = std::stod(val);
      } else if (key == "--trace") {
        o.trace = std::stoi(val);
      } else if (key == "--spans-out") {
        o.spans_out = val;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (argc % 2 == 0 || o.workload == nullptr || !have_seed ||
      !(o.seconds > 0.0) || (o.trace != 0 && o.trace != 1))
    return std::nullopt;
  return o;
}

Partitions generate(const Workload& w, u64 seed) {
  workload::GenConfig g;
  g.dist = w.dist;
  g.seed = seed;
  Partitions in(static_cast<usize>(w.ranks));
  for (int r = 0; r < w.ranks; ++r)
    in[static_cast<usize>(r)] =
        workload::generate_u64(g, r, w.ranks, w.keys_per_rank);
  return in;
}

/// Everything set-up builds: the generated input, its verification
/// reference and the Team that sorts it.
struct Instance {
  Partitions input;
  Reference ref;
  std::unique_ptr<runtime::Team> team;
};

struct SetupTimes {
  std::vector<double> total, gen, team;
};

/// kSetups full set-ups, each timed: input generation, Team construction
/// and one untimed warm-up sort. The warm-up is verified like any sort.
/// Returns the last instance; earlier ones are freed before the next.
Instance set_up(const Workload& w, u64 seed, const SortBody& body,
                Partitions& work, Tally& tally, SetupTimes& times) {
  Instance inst;
  for (int i = 0; i < kSetups; ++i) {
    inst = Instance{};
    const auto t0 = Clock::now();
    inst.input = generate(w, seed);
    const auto t1 = Clock::now();
    inst.team = std::make_unique<runtime::Team>(
        runtime::TeamConfig{.nranks = w.ranks});
    const auto t2 = Clock::now();
    inst.ref = make_reference(inst.input, w.epsilon);
    const SortSample warm =
        timed_sort(*inst.team, inst.input, work, inst.ref, body, tally);
    times.gen.push_back(seconds_between(t0, t1));
    times.team.push_back(seconds_between(t1, t2));
    times.total.push_back(times.gen.back() + times.team.back() + warm.wall_s);
  }
  return inst;
}

/// Sorts of one kind within one run.
struct Series {
  std::vector<double> walls;
  std::vector<double> makespans;  ///< of sorts that completed
  net::TeamStats stats{};         ///< of the last completed sort
  u64 exchange_bytes = 0;         ///< off-rank payload bytes, last sort
};

/// One timed sort appended to `s`.
void add_sort(Series& s, runtime::Team& team, const Instance& inst,
              Partitions& work, const SortBody& body, Tally& tally,
              SpanLog* log = nullptr) {
  const SortSample one =
      timed_sort(team, inst.input, work, inst.ref, body, tally, log);
  s.walls.push_back(one.wall_s);
  if (one.makespan_s == 0.0) return;  // threw
  s.makespans.push_back(one.makespan_s);
  s.stats = team.stats();
  s.exchange_bytes = 0;
  for (int r = 0; r < team.size(); ++r) {
    const obs::Metrics& m = team.metrics(r);
    s.exchange_bytes += m.value(obs::Counter::ExchangeBytesOnNode) +
                        m.value(obs::Counter::ExchangeBytesOffNode);
  }
}

/// Sorts per block of the tail statistic; a block's tail is its p95.
constexpr usize kTailBlock = 200;

/// The highest percentile of `v` with at least ten samples beyond it, or
/// its maximum below eleven samples (v[i] of the sorted sample is its
/// i/(n-1) quantile).
double highest_with_ten_beyond(std::vector<double> v, double& percentile) {
  std::sort(v.begin(), v.end());
  const usize n = v.size();
  const usize i = n >= 11 ? n - 11 : n - 1;
  percentile = n > 1 ? 100.0 * static_cast<double>(i) /
                           static_cast<double>(n - 1)
                     : 100.0;
  return v[i];
}

/// sort_wall_tail_s. A run of fewer than two blocks of kTailBlock sorts
/// reports the highest percentile with ten sorts beyond it. A longer run
/// takes that percentile (p95) in each block of consecutive sorts and
/// reports the median over blocks, so that an OS preemption burst moves
/// one block, not the figure: on the latency workload (~17000 sorts a
/// run, shared 4-core host) the whole-run p99.9+ spread by half between
/// runs, p99 by a fifth and p95 by a tenth.
struct Tail {
  double value = 0.0;
  double percentile = 100.0;
  usize blocks = 0;
};

Tail tail_of(const std::vector<double>& walls) {
  Tail t;
  if (walls.empty()) return t;
  const usize blocks = walls.size() / kTailBlock;
  if (blocks < 2) {
    t.value = highest_with_ten_beyond(walls, t.percentile);
    t.blocks = 1;
    return t;
  }
  std::vector<double> per_block;
  for (usize b = 0; b < blocks; ++b) {
    const auto first = walls.begin() + static_cast<long>(b * kTailBlock);
    per_block.push_back(highest_with_ten_beyond(
        std::vector<double>(first, first + kTailBlock), t.percentile));
  }
  t.value = median(std::move(per_block));
  t.blocks = blocks;
  return t;
}

/// Metrics in print order, each with its unit.
class Report {
 public:
  void add(const std::string& name, double value, const char* unit,
           const std::string& note = "") {
    rows_.push_back({name, value, unit, note});
  }

  /// Human-readable table, then the result as the last line.
  void print(bool correct, const Tally& tally) const {
    for (const Row& r : rows_)
      std::printf("  %-28s %-14.6g %-7s %s\n", r.name.c_str(), r.value,
                  r.unit, r.note.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.failed));
    for (usize i = 0; i < rows_.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", rows_[i].name.c_str(),
                  std::isfinite(rows_[i].value) ? rows_[i].value : 0.0,
                  rows_[i].unit);
    std::printf("}}\n");
    std::fflush(stdout);
  }

  bool all_finite() const {
    for (const Row& r : rows_)
      if (!std::isfinite(r.value)) return false;
    return true;
  }

 private:
  struct Row {
    std::string name;
    double value;
    const char* unit;
    std::string note;
  };
  std::vector<Row> rows_;
};

core::SortConfig sort_config(const Workload& w) {
  core::SortConfig cfg;
  cfg.epsilon = w.epsilon;
  cfg.histogram = w.histogram;
  return cfg;
}

/// True when every value equals the first bit for bit.
bool all_equal(const std::vector<double>& v) {
  for (double x : v)
    if (x != v.front()) return false;
  return true;
}

// --- --trace 0: end-to-end metrics -----------------------------------------

int run_end_to_end(const Workload& w, const Options& o) {
  const core::SortConfig cfg = sort_config(w);
  const SortBody body = sort_body(cfg, nullptr);
  Tally tally;
  Partitions work;
  SetupTimes setup;
  Instance inst = set_up(w, o.seed, body, work, tally, setup);

  const bool reset = reset_peak_rss();
  Series s;
  const auto t0 = Clock::now();
  while (s.walls.size() < kMinSorts || seconds_since(t0) < o.seconds)
    add_sort(s, *inst.team, inst, work, body, tally);
  const double rss = peak_rss_mb();

  bool correct = tally.failed == 0;
  if (!tally.first_failure.empty())
    std::printf("FAILURE: %s\n", tally.first_failure.c_str());
  if (s.makespans.empty() || !all_equal(s.makespans)) {
    std::printf("FAILURE: simulated makespan differs between sorts of one "
                "input\n");
    correct = false;
  }

  const double p50 = median(s.walls);
  const Tail tail = tail_of(s.walls);
  const double n_keys = static_cast<double>(inst.ref.count);
  char note[96];
  std::printf("workload %s seed %llu: P=%d, %zu keys/rank, %zu timed sorts\n",
              w.name, static_cast<unsigned long long>(o.seed), w.ranks,
              w.keys_per_rank, s.walls.size());
  Report rep;
  rep.add("sort_wall_p50_s", p50, "s");
  if (tail.blocks == 1)
    std::snprintf(note, sizeof note, "p%.1f of %zu sorts, 10 beyond it",
                  tail.percentile, s.walls.size());
  else
    std::snprintf(note, sizeof note,
                  "median of the p%.1f of %zu blocks of %zu sorts",
                  tail.percentile, tail.blocks, kTailBlock);
  rep.add("sort_wall_tail_s", tail.value, "s", note);
  rep.add("sort_keys_per_s", n_keys / p50, "keys/s");
  rep.add("sim_makespan_s", s.makespans.empty() ? 0.0 : s.makespans.front(),
          "s");
  rep.add("peak_rss_mb", rss, "MB",
          reset ? "peak since set-up ended"
                : "whole-run peak: /proc/self/clear_refs refused");
  rep.add("setup_s", median(setup.total), "s",
          "median of " + std::to_string(kSetups) + " set-ups");
  std::snprintf(note, sizeof note, "sort_fail_ratio %.6g (%llu of %llu sorts)",
                tally.fail_ratio(),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
  rep.add("sort_ok_ratio", 1.0 - tally.fail_ratio(), "ratio", note);
  std::snprintf(note, sizeof note, "bound 1+eps = %.6g", 1.0 + w.epsilon);
  rep.add("partition_imbalance", tally.worst_imbalance, "ratio", note);
  rep.print(correct && rep.all_finite(), tally);
  return 0;
}

// --- --trace 1: per-layer metrics ------------------------------------------

/// Median Team::run wall time of an empty body: the spawn and join a user
/// pays on every sort.
double probe_run_empty(runtime::Team& team) {
  std::vector<double> t;
  const auto start = Clock::now();
  while (t.size() < 10 || (t.size() < 200 && seconds_since(start) < 0.5)) {
    const auto t0 = Clock::now();
    team.run([](runtime::Comm&) {});
    t.push_back(seconds_since(t0));
  }
  return median(t);
}

/// Median wall time of one Comm::allreduce carrying one dense histogram
/// round's payload: a (lb, ub) count pair for each of the P-1 boundaries.
double probe_allreduce(runtime::Team& team) {
  constexpr int kWarm = 8, kBatches = 16, kPerBatch = 32;
  const usize n = 2 * static_cast<usize>(team.size() - 1);
  std::vector<double> per_op;  // written by rank 0 only
  team.run([&](runtime::Comm& c) {
    std::vector<u64> in(n, 1), out(n);
    const auto sum = [](u64 a, u64 b) { return a + b; };
    for (int i = 0; i < kWarm; ++i) c.allreduce(in.data(), out.data(), n, sum);
    for (int b = 0; b < kBatches; ++b) {
      const auto t0 = Clock::now();
      for (int i = 0; i < kPerBatch; ++i)
        c.allreduce(in.data(), out.data(), n, sum);
      if (c.rank() == 0) per_op.push_back(seconds_since(t0) / kPerBatch);
    }
  });
  return median(per_op);
}

/// Per-sort layer timings from the span log: a layer's span is its last
/// rank's exit minus its last rank's entry; its wait is the mean over
/// ranks of (last entry - own entry); self is the sort span minus the four
/// layer spans. Sorts without a full set of rank spans are skipped.
struct LayerTimes {
  std::array<std::vector<double>, kLayers> span, wait;
  std::vector<double> self;
};

LayerTimes layer_times(const SpanLog& log) {
  const usize n_sorts = log.sorts().size();
  const usize P = static_cast<usize>(log.nranks());
  struct Acc {
    double last_entry = -1e300, last_exit = -1e300, sum_entry = 0.0;
    usize ranks = 0;
  };
  std::vector<std::array<Acc, kLayers>> acc(n_sorts);
  for (int r = 0; r < log.nranks(); ++r)
    for (const Span& s : log.rank_spans(r)) {
      if (s.sort_id >= n_sorts) continue;
      Acc& a = acc[s.sort_id][s.layer];
      a.last_entry = std::max(a.last_entry, s.start_s);
      a.last_exit = std::max(a.last_exit, s.end_s);
      a.sum_entry += s.start_s;
      ++a.ranks;
    }
  LayerTimes lt;
  for (usize i = 0; i < n_sorts; ++i) {
    bool complete = true;
    for (const Acc& a : acc[i]) complete = complete && a.ranks == P;
    if (!complete) continue;
    const Span& sort = log.sorts()[i];
    double spans = 0.0;
    for (usize l = 0; l < kLayers; ++l) {
      const Acc& a = acc[i][l];
      lt.span[l].push_back(a.last_exit - a.last_entry);
      lt.wait[l].push_back(a.last_entry -
                           a.sum_entry / static_cast<double>(P));
      spans += lt.span[l].back();
    }
    lt.self.push_back(sort.end_s - sort.start_s - spans);
  }
  return lt;
}

/// The deterministic counts a sort reports; they must repeat exactly.
struct Counts {
  u64 rounds = 0, probes = 0, bytes_dense = 0, bytes_sampled = 0,
      sample_keys = 0;
  bool operator==(const Counts&) const = default;
};

Counts counts_of(const std::vector<core::SortStats>& per_rank) {
  Counts c;
  for (const core::SortStats& s : per_rank) {
    c.rounds = std::max<u64>(c.rounds, s.histogram_iterations);
    c.probes = std::max<u64>(c.probes, s.splitter_probes);
    c.bytes_dense = std::max<u64>(c.bytes_dense, s.hist_bytes_dense);
    c.bytes_sampled = std::max<u64>(c.bytes_sampled, s.hist_bytes_sampled);
    c.sample_keys = std::max<u64>(c.sample_keys, s.sample_keys_total);
  }
  return c;
}

int run_traced(const Workload& w, const Options& o) {
  const core::SortConfig cfg = sort_config(w);
  const usize P = static_cast<usize>(w.ranks);
  Tally tally;
  Partitions work;
  SetupTimes setup;
  std::vector<core::SortStats> plain_stats(P), traced_stats(P);
  const SortBody plain = sort_body(cfg, &plain_stats);
  Instance inst = set_up(w, o.seed, plain, work, tally, setup);
  runtime::Team& team = *inst.team;

  const double run_empty = probe_run_empty(team);
  const double allreduce = probe_allreduce(team);

  // Untraced sorts, the same sorts through advance_superstep with span
  // stamps, and with the runtime's own tracer on (TeamConfig::trace) take
  // turns, and each round starts with the next kind, so that neither
  // drift of the host nor the order of a round favours one kind.
  runtime::Team obs_team(runtime::TeamConfig{.nranks = w.ranks, .trace = true});
  SpanLog log(w.ranks, Clock::now());
  const SortBody spanned_body =
      superstep_body(cfg, &log, nullptr, &traced_stats);
  Series untraced, spanned, obs_traced;
  const auto t0 = Clock::now();
  for (usize round = 0;
       round < 6 || seconds_since(t0) < 0.9 * o.seconds; ++round) {
    for (usize k = round; k < round + 3; ++k) {
      if (k % 3 == 0) add_sort(untraced, team, inst, work, plain, tally);
      if (k % 3 == 1)
        add_sort(spanned, team, inst, work, spanned_body, tally, &log);
      if (k % 3 == 2) add_sort(obs_traced, obs_team, inst, work, plain, tally);
    }
  }

  // Then two sorts held at the memory gate between supersteps.
  LayerPeaks peaks;
  std::vector<double> gated_makespans;
  for (int i = 0; i < 2; ++i) {
    LayerGate gate(w.ranks, PeakProbe{&peaks});
    const SortSample s =
        timed_sort(team, inst.input, work, inst.ref,
                   superstep_body(cfg, nullptr, &gate, nullptr), tally);
    gated_makespans.push_back(s.makespan_s);
  }

  bool correct = tally.failed == 0;
  if (!tally.first_failure.empty())
    std::printf("FAILURE: %s\n", tally.first_failure.c_str());
  std::vector<double> makespans = untraced.makespans;
  for (const std::vector<double>& v :
       {spanned.makespans, gated_makespans, obs_traced.makespans})
    makespans.insert(makespans.end(), v.begin(), v.end());
  if (makespans.empty() || !all_equal(makespans)) {
    std::printf("FAILURE: traced simulated makespan differs from the "
                "untraced run's\n");
    correct = false;
  }
  const Counts counts = counts_of(traced_stats);
  if (!(counts == counts_of(plain_stats))) {
    std::printf("FAILURE: histogram counts differ between sorts of one "
                "input\n");
    correct = false;
  }
  if (!o.spans_out.empty() && !log.write_jsonl(o.spans_out)) {
    std::printf("FAILURE: cannot write spans to %s\n", o.spans_out.c_str());
    correct = false;
  }

  const LayerTimes lt = layer_times(log);
  const double untraced_p50 = median(untraced.walls);
  const double n_keys = static_cast<double>(inst.ref.count);
  const net::TeamStats& sim = untraced.stats;
  constexpr net::Phase kPhases[kLayers] = {
      net::Phase::LocalSort, net::Phase::Histogram, net::Phase::Exchange,
      net::Phase::Merge};
  const char* rss_note = peaks.reset_ok
                             ? "peak while every rank was in this layer"
                             : "whole-run peak: /proc/self/clear_refs refused";

  std::array<double, kLayers> span_med{}, sim_s{};
  double span_sum = 0.0;
  for (usize l = 0; l < kLayers; ++l) {
    span_med[l] = median(lt.span[l]);
    sim_s[l] = sim.phase_seconds(kPhases[l]);
    span_sum += span_med[l];
  }
  const double self = median(lt.self);
  const double overhead = median(spanned.walls) / untraced_p50;

  std::printf("workload %s seed %llu (traced): P=%d, %zu keys/rank; sorts: "
              "%zu each untraced, spanned and runtime-traced, 2 memory-gated\n",
              w.name, static_cast<unsigned long long>(o.seed), w.ranks,
              w.keys_per_rank, untraced.walls.size());
  const auto argmax = [](const std::array<double, kLayers>& v) {
    return kLayerNames[static_cast<usize>(
        std::max_element(v.begin(), v.end()) - v.begin())];
  };
  std::printf("dominant layer: %s by simulated time, %s by wall span "
              "(sort.self_s %.6g s)\n",
              std::string(argmax(sim_s)).c_str(),
              std::string(argmax(span_med)).c_str(), self);
  // Medians do not add up exactly: the sum below differs from the median
  // spanned sort by the spread of the layers between sorts.
  std::printf("layer spans + sort.self_s = %.6g s; median spanned sort = "
              "%.6g s = %.4f (bench.trace_overhead_ratio) x untraced "
              "sort_wall_p50_s %.6g s\n",
              span_sum + self, median(spanned.walls), overhead, untraced_p50);
  if (!peaks.reset_ok)
    std::printf("NOTE: /proc/self/clear_refs refused; every *.rss_hwm_mb is "
                "the whole-run peak\n");

  Report rep;
  rep.add("workload.gen_s", median(setup.gen), "s");
  rep.add("runtime.team_create_s", median(setup.team), "s");
  rep.add("runtime.run_empty_s", run_empty, "s");
  rep.add("runtime.allreduce_s", allreduce, "s",
          std::to_string(2 * (P - 1)) + " u64 per op");
  rep.add("sort.self_s", self, "s");
  for (usize l = 0; l < kLayers; ++l) {
    const std::string name(kLayerNames[l]);
    rep.add(name + ".span_s", span_med[l], "s");
    if (l > 0) rep.add(name + ".wait_s", median(lt.wait[l]), "s");
    rep.add(name + ".sim_s", sim_s[l], "s");
    if (l == 0) rep.add(name + ".keys_per_s", n_keys / span_med[l], "keys/s");
    if (l == 1) {
      rep.add("histogram.rounds", static_cast<double>(counts.rounds), "count");
      rep.add("histogram.probes", static_cast<double>(counts.probes), "count");
      rep.add("histogram.bytes_dense", static_cast<double>(counts.bytes_dense),
              "B");
      rep.add("histogram.bytes_sampled",
              static_cast<double>(counts.bytes_sampled), "B");
      rep.add("histogram.sample_keys", static_cast<double>(counts.sample_keys),
              "count");
    }
    if (l == 2)
      rep.add("exchange.bytes_off_rank",
              static_cast<double>(spanned.exchange_bytes), "B");
    rep.add(name + ".rss_hwm_mb", peaks.mb[l], "MB", rss_note);
  }
  rep.add("obs.trace_wall_ratio", median(obs_traced.walls) / untraced_p50,
          "ratio", "TeamConfig::trace on / off");
  rep.add("bench.trace_overhead_ratio", overhead, "ratio",
          "spanned / untraced sort wall");
  rep.add("bench.rss_hwm_per_layer", peaks.reset_ok ? 1.0 : 0.0, "bool",
          "0 = per-layer peaks fell back to the whole-run peak");
  rep.print(correct && rep.all_finite(), tally);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> o = parse(argc, argv);
  if (!o) {
    std::cerr << "usage: hds_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE]\n  workloads:";
    for (const Workload& w : kWorkloads) std::cerr << ' ' << w.name;
    std::cerr << '\n';
    return 2;
  }
  try {
    return o->trace == 1 ? run_traced(*o->workload, *o)
                         : run_end_to_end(*o->workload, *o);
  } catch (const std::exception& e) {
    std::cerr << "hds_perfbench: " << e.what() << '\n';
    return 1;
  }
}
