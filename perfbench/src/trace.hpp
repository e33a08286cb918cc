#pragma once

// Spans and metrics for the benchmark.
//
// A span wraps one call into the library (or one benchmark phase that
// groups such calls): name, start, end and the enclosing span.  Spans are
// kept in memory and written out when the run ends; a span's self time is
// its duration minus the time its direct children cover.  A disabled
// tracer records nothing, so the untraced run pays one branch per span.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Shortest round-trip decimal form of a finite double.
inline std::string format_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite metric value");
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Nearest-rank percentile (q in (0, 1]).
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

class Tracer {
 public:
  struct Record {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent = -1;
  };

  /// RAII span; inert when its tracer is disabled.
  class Span {
   public:
    Span(Tracer* tracer, std::string_view name) : tracer_(tracer) {
      if (tracer_ == nullptr) return;
      index_ = static_cast<int>(tracer_->records_.size());
      tracer_->records_.push_back(
          Record{std::string(name), Clock::now(), {}, tracer_->open_});
      tracer_->open_ = index_;
    }
    ~Span() {
      if (tracer_ == nullptr) return;
      Record& r = tracer_->records_[static_cast<std::size_t>(index_)];
      r.end = Clock::now();
      tracer_->open_ = r.parent;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

  [[nodiscard]] bool enabled() const { return enabled_; }
  /// Turns recording on or off between spans (the traced run alternates
  /// traced and untraced repetitions to measure the tracing overhead).
  void set_recording(bool on) { recording_ = on; }

  [[nodiscard]] Span span(std::string_view name) {
    return Span(enabled_ && recording_ ? this : nullptr, name);
  }

  /// Durations of every closed span called `name`, in seconds.
  [[nodiscard]] std::vector<double> durations(std::string_view name) const {
    std::vector<double> out;
    for (const Record& r : records_) {
      if (r.name == name) out.push_back(seconds(r.start, r.end));
    }
    return out;
  }

  [[nodiscard]] double total(std::string_view name) const {
    double s = 0.0;
    for (const double d : durations(name)) s += d;
    return s;
  }

  /// Sum over spans called `name` of their self time.
  [[nodiscard]] double self_total(std::string_view name) const {
    const std::vector<double> self = self_times();
    double s = 0.0;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      if (records_[i].name == name) s += self[i];
    }
    return s;
  }

  /// Writes every span as one JSON object per line.
  void write(const std::string& path) const {
    std::ofstream os(path);
    const std::vector<double> self = self_times();
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      os << "{\"id\": " << i << ", \"name\": \"" << r.name
         << "\", \"parent\": " << r.parent
         << ", \"start_s\": " << format_number(seconds(epoch_, r.start))
         << ", \"end_s\": " << format_number(seconds(epoch_, r.end))
         << ", \"self_s\": " << format_number(self[i]) << "}\n";
    }
    if (!os) throw std::runtime_error("cannot write trace " + path);
  }

 private:
  static double seconds(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
  }

  [[nodiscard]] std::vector<double> self_times() const {
    std::vector<double> self(records_.size());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      self[i] = seconds(records_[i].start, records_[i].end);
    }
    for (const Record& r : records_) {
      if (r.parent >= 0) {
        self[static_cast<std::size_t>(r.parent)] -= seconds(r.start, r.end);
      }
    }
    return self;
  }

  bool enabled_;
  bool recording_ = true;
  Clock::time_point epoch_;
  std::vector<Record> records_;
  int open_ = -1;
};

/// Named metrics in emission order, printed as the result line's
/// "metrics" object.
class Metrics {
 public:
  void set(std::string name, double value, std::string unit) {
    entries_.push_back(Entry{std::move(name), value, std::move(unit)});
  }

  [[nodiscard]] std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      out += (i ? ", \"" : "\"") + e.name + "\": {\"value\": " +
             format_number(e.value) + ", \"unit\": \"" + e.unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench
