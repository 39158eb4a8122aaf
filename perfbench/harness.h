// Building blocks of the end-to-end sort benchmark (README.md): outside-in
// verification of a distributed sort's output, failure accounting, one
// timed sort through the public API, the per-superstep span log and the
// per-layer peak-memory probe. Everything here observes the sort from the
// benchmark's side of the API; nothing charges simulated time.
#pragma once

#include <algorithm>
#include <array>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/histogram_sort.h"
#include "runtime/comm.h"
#include "runtime/team.h"

namespace hds::perfbench {

using Partitions = std::vector<std::vector<u64>>;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Median of a sample; the mean of the two middle values for even sizes,
/// as Python's statistics.median.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const usize n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- verification ------------------------------------------------------------

/// SplitMix64 finalizer. The content checksum is a sum of mixed keys, so it
/// is independent of order and of how keys are spread over ranks. Kept
/// local so the check shares no code with the program it checks.
inline u64 mix_key(u64 k) {
  k += 0x9e3779b97f4a7c15ULL;
  k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ULL;
  k = (k ^ (k >> 27)) * 0x94d049bb133111ebULL;
  return k ^ (k >> 31);
}

/// What a correct sort of one input must produce; computed once per input.
struct Reference {
  u64 count = 0;
  u64 checksum = 0;
  std::vector<usize> capacity;  ///< per-rank target size (= input size)
  usize slack = 0;              ///< allowed excess over a rank's capacity
};

/// The sort keeps every rank's input size as its capacity (sort_by_key).
/// Each splitter may miss its target rank by floor(eps*N/(2P)) elements
/// (Def. 1, core/multiselect.h) and a rank sits between two splitters.
inline Reference make_reference(const Partitions& input, double epsilon) {
  Reference ref;
  for (const auto& part : input) {
    ref.count += part.size();
    for (u64 k : part) ref.checksum += mix_key(k);
    ref.capacity.push_back(part.size());
  }
  const usize window = static_cast<usize>(
      epsilon * static_cast<double>(ref.count) /
      (2.0 * static_cast<double>(std::max<usize>(input.size(), 1))));
  ref.slack = 2 * window;
  return ref;
}

struct Verdict {
  bool ordered = false;          ///< every rank sorted, ranks in order
  bool permutation = false;      ///< same key count and content checksum
  bool within_capacity = false;  ///< no rank above capacity + slack
  double imbalance = 0.0;        ///< max over ranks of size / capacity
  bool ok() const { return ordered && permutation && within_capacity; }
};

inline Verdict verify(const Partitions& out, const Reference& ref) {
  Verdict v;
  v.ordered = true;
  v.within_capacity = out.size() == ref.capacity.size();
  bool have_prev = false;
  u64 prev_max = 0;
  u64 count = 0;
  u64 checksum = 0;
  for (usize r = 0; r < out.size(); ++r) {
    const auto& part = out[r];
    if (!std::is_sorted(part.begin(), part.end())) v.ordered = false;
    if (!part.empty()) {
      if (have_prev && part.front() < prev_max) v.ordered = false;
      prev_max = part.back();
      have_prev = true;
    }
    count += part.size();
    for (u64 k : part) checksum += mix_key(k);
    if (r < ref.capacity.size()) {
      const usize cap = ref.capacity[r];
      if (part.size() > cap + ref.slack) v.within_capacity = false;
      if (cap > 0)
        v.imbalance = std::max(v.imbalance, static_cast<double>(part.size()) /
                                                static_cast<double>(cap));
    }
  }
  v.permutation = count == ref.count && checksum == ref.checksum;
  return v;
}

/// Failure accounting over every sort of a run: a sort fails when it
/// throws or when its output fails verification.
struct Tally {
  u64 attempted = 0;
  u64 failed = 0;
  double worst_imbalance = 0.0;  ///< over verified sorts
  std::string first_failure;

  void record(const Verdict& v) {
    ++attempted;
    worst_imbalance = std::max(worst_imbalance, v.imbalance);
    if (v.ok()) return;
    ++failed;
    if (first_failure.empty())
      first_failure = std::string("verification failed:") +
                      (v.ordered ? "" : " order") +
                      (v.permutation ? "" : " permutation") +
                      (v.within_capacity ? "" : " capacity");
  }

  void record_throw(const std::string& what) {
    ++attempted;
    ++failed;
    if (first_failure.empty()) first_failure = "sort threw: " + what;
  }

  double fail_ratio() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

// --- memory ------------------------------------------------------------------

/// Process peak resident set (VmHWM) in MB (10^6 bytes); 0 if unreadable.
inline double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) * 1024.0 / 1e6;  // kB field
  return 0.0;
}

/// Reset the process peak to the current resident set. Returns false when
/// the kernel refuses, in which case VmHWM keeps the whole-run peak.
inline bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

// --- span log ----------------------------------------------------------------

/// The four supersteps in the order core::advance_superstep runs them,
/// named after the benchmark's per-layer metrics.
inline constexpr usize kLayers = core::kSupersteps;
inline constexpr std::array<std::string_view, kLayers> kLayerNames = {
    "local_sort", "histogram", "exchange", "merge"};

/// One superstep on one rank, or (layer == kLayers, rank == -1) one whole
/// sort on the main thread, which is the parent of its superstep spans.
struct Span {
  u32 sort_id = 0;
  i32 rank = -1;
  u32 layer = kLayers;
  double start_s = 0.0;  ///< seconds since the log's epoch
  double end_s = 0.0;
};

/// In-memory span log: one buffer per rank (each written only by its rank
/// thread) plus the main thread's sort spans; written out once the run ends.
class SpanLog {
 public:
  SpanLog(int nranks, Clock::time_point epoch)
      : epoch_(epoch), per_rank_(static_cast<usize>(nranks)) {}

  double now() const { return seconds_since(epoch_); }
  double at(Clock::time_point t) const { return seconds_between(epoch_, t); }

  /// Rank spans carry the id of the sort in flight; the sort's own span is
  /// added when it ends, which moves the log on to the next sort id.
  void add_rank_span(int rank, u32 layer, double t0, double t1) {
    per_rank_[static_cast<usize>(rank)].push_back(
        {current_sort(), rank, layer, t0, t1});
  }
  void add_sort_span(double t0, double t1) {
    sorts_.push_back({current_sort(), -1, static_cast<u32>(kLayers), t0, t1});
  }

  const std::vector<Span>& sorts() const { return sorts_; }
  const std::vector<Span>& rank_spans(int rank) const {
    return per_rank_[static_cast<usize>(rank)];
  }
  int nranks() const { return static_cast<int>(per_rank_.size()); }

  /// One JSON object per line: name, sort, rank, parent, start, end.
  bool write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    char buf[256];
    auto emit = [&](const Span& s) {
      const bool whole = s.layer == kLayers;
      const std::string name(whole ? "sort" : kLayerNames[s.layer]);
      std::snprintf(buf, sizeof buf,
                    "{\"name\":\"%s\",\"sort\":%u,\"rank\":%d,"
                    "\"parent\":%s,\"start_s\":%.9f,\"end_s\":%.9f}\n",
                    name.c_str(), s.sort_id, s.rank,
                    whole ? "null" : "\"sort\"", s.start_s, s.end_s);
      out << buf;
    };
    for (const Span& s : sorts_) emit(s);
    for (const auto& spans : per_rank_)
      for (const Span& s : spans) emit(s);
    return static_cast<bool>(out);
  }

 private:
  u32 current_sort() const { return static_cast<u32>(sorts_.size()); }

  Clock::time_point epoch_;
  std::vector<std::vector<Span>> per_rank_;
  std::vector<Span> sorts_;
};

// --- one timed sort ----------------------------------------------------------

/// What every rank runs for one sort: sort `local` in place.
using SortBody = std::function<void(runtime::Comm&, std::vector<u64>&)>;

struct SortSample {
  bool ok = false;
  double wall_s = 0.0;      ///< one Team::run, spawn and join included
  double makespan_s = 0.0;  ///< Team::stats().makespan_s
};

/// One timed sort: copies `input` into `work`, times one Team::run of
/// `body`, then verifies `work` against `ref` outside the timed interval
/// and records the outcome in `tally`. With a `log`, the Team::run
/// interval is recorded as the sort's span.
inline SortSample timed_sort(runtime::Team& team, const Partitions& input,
                             Partitions& work, const Reference& ref,
                             const SortBody& body, Tally& tally,
                             SpanLog* log = nullptr) {
  work = input;
  SortSample s;
  const auto t0 = Clock::now();
  try {
    team.run([&](runtime::Comm& c) { body(c, work[c.rank()]); });
  } catch (const std::exception& e) {
    s.wall_s = seconds_since(t0);
    tally.record_throw(e.what());
    return s;
  }
  const auto t1 = Clock::now();
  s.wall_s = seconds_between(t0, t1);
  if (log != nullptr) log->add_sort_span(log->at(t0), log->at(t1));
  s.makespan_s = team.stats().makespan_s;
  const Verdict v = verify(work, ref);
  tally.record(v);
  s.ok = v.ok();
  return s;
}

/// The user's call: core::sort_by_key with the identity key. Per-rank
/// SortStats land in `stats` (sized to the team) when it is given.
inline SortBody sort_body(const core::SortConfig& cfg,
                          std::vector<core::SortStats>* stats) {
  return [cfg, stats](runtime::Comm& c, std::vector<u64>& local) {
    core::SortStats st = core::sort_by_key(c, local, core::IdentityKey{}, cfg);
    if (stats != nullptr) (*stats)[static_cast<usize>(c.rank())] = std::move(st);
  };
}

// --- per-superstep tracing ---------------------------------------------------

/// Per-layer process peaks, filled by the gate's completion step: each
/// step reads the peak of the layer every rank just left, then resets it.
struct LayerPeaks {
  std::array<double, kLayers> mb{};
  usize step = 0;  ///< gate steps so far, kLayers + 1 per sort
  bool reset_ok = true;
};

struct PeakProbe {
  LayerPeaks* peaks;
  void operator()() noexcept {
    const usize step = peaks->step++ % (kLayers + 1);
    if (step > 0)
      peaks->mb[step - 1] = std::max(peaks->mb[step - 1], peak_rss_mb());
    if (!reset_peak_rss()) peaks->reset_ok = false;
  }
};

/// Host-side barrier between supersteps: every rank is between the same
/// two layers when the probe runs. It never touches the simulated clock.
using LayerGate = std::barrier<PeakProbe>;

/// Drives the supersteps through core::advance_superstep, the loop
/// core::sort_to_capacity runs, stamping each one into `log` when given and
/// holding every rank at `gate` before the first and after every superstep
/// when given. Per-rank SortStats land in `stats` when it is given.
inline SortBody superstep_body(const core::SortConfig& cfg, SpanLog* log,
                               LayerGate* gate,
                               std::vector<core::SortStats>* stats) {
  return [cfg, log, gate, stats](runtime::Comm& c, std::vector<u64>& local) {
    using UK = core::SortKeyImage<u64, core::IdentityKey>;
    core::SortState<u64, UK> st;
    st.out_capacity = local.size();
    st.data = std::move(local);
    st.stats.elements_before = st.data.size();
    try {
      if (gate != nullptr) gate->arrive_and_wait();
      for (u32 layer = 0; st.completed != core::SuperstepId::Done; ++layer) {
        const double t0 = log != nullptr ? log->now() : 0.0;
        core::advance_superstep(c, st, core::IdentityKey{}, cfg);
        if (log != nullptr) log->add_rank_span(c.rank(), layer, t0, log->now());
        if (gate != nullptr) gate->arrive_and_wait();
      }
    } catch (...) {
      // Leave the gate so ranks still waiting at it are released.
      if (gate != nullptr) gate->arrive_and_drop();
      throw;
    }
    local = std::move(st.data);
    if (stats != nullptr)
      (*stats)[static_cast<usize>(c.rank())] = std::move(st.stats);
  };
}

}  // namespace hds::perfbench
