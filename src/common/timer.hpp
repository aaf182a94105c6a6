// Wall-clock regions with one nested record per rank.
//
// The paper measures per-part elapsed times (Vlasov / tree / PM / comm) with
// clock_gettime and reports medians over 40 steps (§6.1).  A ScopedTimer is
// the one timed region of the code: regions nest on a per-thread stack, and
// each records its total and self seconds under its path
// ("step/vlasov/drift/halo") in the TimerRegistry of the innermost open
// region.  A path's total is its children's totals plus its self time, so
// the self time of an outer region is the part of it no inner region
// explains.  With tracing on, the same two clock reads also become the
// region's trace span, under its leaf name.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace v6d {

class Stopwatch {
 public:
  Stopwatch() : start_(clock::now()) {}
  void reset() { start_ = clock::now(); }
  /// Seconds since construction or last reset().
  double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// One path of a TimerRegistry.
struct TimerBucket {
  std::string path;           // leaf names joined by '/', outermost first
  double seconds = 0.0;       // total over every close
  double self_seconds = 0.0;  // total minus the totals of its children
  long count = 0;             // closes
};

/// The nested record of the regions opened in it; one instance per rank,
/// written by one thread at a time.
class TimerRegistry {
 public:
  /// Total seconds of `name`: a path, or the trailing part of paths (a
  /// bare leaf such as "halo-wait"), summed over every path ending in it.
  double total(const std::string& name) const;
  /// Self seconds, matched like total().
  double self(const std::string& name) const;
  /// The per-close seconds of the root region `name`.  Only roots keep
  /// them: the median step needs them, and an inner region closes many
  /// times per step.
  const std::vector<double>& samples(const std::string& name) const;
  /// Median of samples(name) (0 if none).
  double median_sample(const std::string& name) const;

  /// Every path, each parent before its children, siblings in the order
  /// they first opened.
  std::vector<TimerBucket> buckets() const;

  /// Add `other`'s record path by path: totals, self times and counts
  /// add, root samples append.
  void merge(const TimerRegistry& other);

 private:
  friend class ScopedTimer;
  struct Node {
    std::string name;
    std::uint64_t total_ns = 0, self_ns = 0;
    long count = 0;
    std::vector<double> samples;  // roots only
    std::vector<std::unique_ptr<Node>> children;

    Node* child(const char* leaf);  // found or added
    void list(const std::string& prefix, std::vector<TimerBucket>& out) const;
    void add(const Node& other);  // other's children, recursively
  };
  Node root_;
};

/// RAII region: times [construction, destruction].  A region opened with
/// a registry records there, nested under the innermost open region when
/// that one records in the same registry, else as a root of it.  A region
/// opened without one records in the registry of the innermost open
/// region on this thread, and with no region open records nothing (its
/// trace span is still emitted).  `name` must be a string that outlives
/// the region, and must not open inside an OpenMP worksharing loop.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* name);
  ScopedTimer(TimerRegistry& registry, const char* name);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  ScopedTimer(TimerRegistry* registry, const char* name);
  bool nested() const { return parent_ && parent_->registry_ == registry_; }

  const char* name_;
  ScopedTimer* parent_;        // the region open when this one opened
  TimerRegistry* registry_;    // null: records nothing
  TimerRegistry::Node* node_ = nullptr;
  std::uint64_t child_ns_ = 0;  // closed children's totals
  bool traced_;
  std::uint64_t t0_;
};

}  // namespace v6d
