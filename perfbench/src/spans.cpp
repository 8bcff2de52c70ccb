#include "spans.hpp"

#include <algorithm>
#include <cstdint>
#include <iomanip>
#include <map>
#include <utility>

namespace perfbench {
namespace {

/// Total length of the union of [lo, hi] intervals.
double union_length(std::vector<std::pair<double, double>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0.0;
  double lo = 0.0;
  double hi = 0.0;
  bool open = false;
  for (const auto& [a, b] : intervals) {
    if (b <= a) continue;
    if (!open || a > hi) {
      if (open) total += hi - lo;
      lo = a;
      hi = b;
      open = true;
    } else {
      hi = std::max(hi, b);
    }
  }
  if (open) total += hi - lo;
  return total;
}

void write_string(std::ostream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out << '\\';
    out << c;
  }
  out << '"';
}

}  // namespace

int SpanRecorder::open(const std::string& name, int parent, unsigned thread) {
  if (!enabled_) return -1;
  const double start = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, start, start, parent, thread});
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::close(int id) {
  if (id < 0) return;
  const double end = now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = end;
}

std::vector<SpanRecord> SpanRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double SpanRecorder::child_coverage(int parent, double from, double to) const {
  if (parent < 0 || to <= from) return 0.0;
  std::vector<std::pair<double, double>> covered;
  for (const auto& s : snapshot()) {
    if (s.parent != parent) continue;
    covered.emplace_back(std::max(s.start, from), std::min(s.end, to));
  }
  return union_length(std::move(covered)) / (to - from);
}

void SpanRecorder::write_json(std::ostream& out) const {
  const auto spans = snapshot();
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  struct Summary {
    std::uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Summary> by_name;
  out << std::setprecision(9) << "{\"spans\": [";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    const double total = s.end - s.start;
    const double self = total - union_length(children[i]);
    auto& sum = by_name[s.name];
    ++sum.count;
    sum.total += total;
    sum.self += self;
    out << (i ? ",\n  " : "\n  ") << "{\"name\": ";
    write_string(out, s.name);
    out << ", \"start\": " << s.start << ", \"end\": " << s.end
        << ", \"parent\": " << s.parent << ", \"thread\": " << s.thread
        << ", \"self\": " << self << "}";
  }
  out << "],\n \"summary\": {";
  bool first = true;
  for (const auto& [name, sum] : by_name) {
    out << (first ? "\n  " : ",\n  ");
    first = false;
    write_string(out, name);
    out << ": {\"count\": " << sum.count << ", \"total_s\": " << sum.total
        << ", \"self_s\": " << sum.self << "}";
  }
  out << "}}\n";
}

}  // namespace perfbench
