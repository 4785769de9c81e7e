#ifndef GRAPHGEN_OBS_PROFILE_H_
#define GRAPHGEN_OBS_PROFILE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/timer.h"
#include "obs/metrics.h"

namespace graphgen::obs {

/// One stage/operator in an extraction's EXPLAIN ANALYZE tree: a name
/// ("hash_join", "nodes", ...), an optional human detail line (the SQL,
/// the rule head), elapsed seconds, an output cardinality, plus free-form
/// numeric stats ("build_rows", "load_factor") and string notes
/// ("build_side" -> "left").
///
/// Children live in a std::deque so AddChild never invalidates pointers
/// to existing siblings — the extractor pre-creates one child per query
/// plan and hands each worker thread a stable ProfileNode* to fill while
/// other plans are still being appended to elsewhere in the tree.
struct ProfileNode {
  std::string name;
  std::string detail;
  double seconds = 0.0;
  /// Output cardinality; -1 = not applicable / not recorded.
  int64_t rows = -1;
  std::vector<std::pair<std::string, double>> stats;
  std::vector<std::pair<std::string, std::string>> notes;
  std::deque<ProfileNode> children;

  ProfileNode() = default;
  explicit ProfileNode(std::string_view n, std::string_view d = {})
      : name(n), detail(d) {}

  ProfileNode* AddChild(std::string_view n, std::string_view d = {}) {
    children.emplace_back(n, d);
    return &children.back();
  }
  void AddStat(std::string_view key, double value) {
    stats.emplace_back(std::string(key), value);
  }
  void AddNote(std::string_view key, std::string_view value) {
    notes.emplace_back(std::string(key), std::string(value));
  }

  /// Sum of seconds over the direct children.
  double ChildSeconds() const;
};

/// The flight record of one extraction: the Datalog query, end-to-end wall
/// time, and the stage tree. Produced by GraphGen::Extract (via the
/// planner/executor), rendered by the shell's `profile` command, exported
/// by graphgen_cli --profile, retained by the service's slow-request log.
struct QueryProfile {
  std::string query;
  double wall_seconds = 0.0;
  ProfileNode root{"extract"};

  bool empty() const { return root.children.empty(); }

  /// EXPLAIN ANALYZE-style indented tree, e.g.
  ///   extract  (wall 41.3ms)
  ///   -> nodes  10.1ms
  ///      -> rule Author(id, name)  9.8ms  rows=4000
  std::string ToText() const;
  /// Machine-readable form; round-trips everything ToText shows.
  std::string ToJson() const;
};

/// RAII span: adds the elapsed wall time to `node->seconds` on scope exit.
/// Null node (or observability disabled at construction) makes the whole
/// span a no-op, so call sites stay unconditional.
class Span {
 public:
  explicit Span(ProfileNode* node) : node_(Enabled() ? node : nullptr) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (node_ != nullptr) node_->seconds += timer_.Seconds();
  }

 private:
  ProfileNode* node_;
  WallTimer timer_;
};

}  // namespace graphgen::obs

#endif  // GRAPHGEN_OBS_PROFILE_H_
