#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds since an arbitrary origin.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The benchmark's own span recorder. Every timed call in the benchmark goes
/// through a span, traced or not, so both runs read the clock identically;
/// only a traced run keeps the spans (in memory, written out at the end).
///
/// A span records name, start, end, its parent (the span open around it) and
/// a group id it shares with every span of the same unit of work: one epoch,
/// one set-up, one replay phase.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;  ///< Index into spans(); -1 for a top-level span.
    uint64_t group = 0;
  };

  explicit Tracer(bool keep) : keep_(keep) {}

  /// Opens a span. A top-level span starts a new group unless `group` is
  /// given; a nested span joins the group of the span around it.
  void Begin(const char* name, uint64_t group = 0) {
    Open open;
    open.name = name;
    open.parent = open_.empty() ? -1 : open_.back().index;
    if (open_.empty()) {
      open.group = group != 0 ? group : ++last_group_;
    } else {
      open.group = open_.back().group;
    }
    if (keep_) {
      open.index = static_cast<int32_t>(spans_.size());
      spans_.push_back(Span{name, 0, 0, open.parent, open.group});
    }
    open_.push_back(open);
    open_.back().start_ns = NowNs();
  }

  /// Closes the innermost open span; returns its duration in seconds.
  double End() {
    int64_t end = NowNs();
    Open open = open_.back();
    open_.pop_back();
    if (keep_) {
      spans_[open.index].start_ns = open.start_ns;
      spans_[open.index].end_ns = end;
    }
    if (open_.empty()) top_level_ns_ += end - open.start_ns;
    return static_cast<double>(end - open.start_ns) * 1e-9;
  }

  /// Runs `fn` inside a span named `name`; returns the span's seconds.
  template <class Fn>
  double Time(const char* name, Fn&& fn, uint64_t group = 0) {
    Begin(name, group);
    fn();
    return End();
  }

  /// A fresh group id (e.g. one per epoch).
  uint64_t NewGroup() { return ++last_group_; }

  /// Nanoseconds covered by closed top-level spans.
  int64_t top_level_ns() const { return top_level_ns_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes the kept spans as a Chrome trace ("X" events; args carry the
  /// group id and the parent span's name). Returns false on I/O failure.
  bool WriteChromeTrace(const std::string& path, int64_t origin_ns) const;

 private:
  struct Open {
    const char* name = "";
    int64_t start_ns = 0;
    int32_t parent = -1;
    int32_t index = -1;
    uint64_t group = 0;
  };
  bool keep_;
  std::vector<Span> spans_;
  std::vector<Open> open_;
  uint64_t last_group_ = 0;
  int64_t top_level_ns_ = 0;
};

}  // namespace perfbench
