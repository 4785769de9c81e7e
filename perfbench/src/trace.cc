#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {
  // Growing the span vector mid-request would charge the copy to
  // whichever span is open; reserve room for a whole run up front.
  if (enabled_) spans_.reserve(size_t{1} << 16);
}

namespace {

double MillisSince(std::chrono::steady_clock::time_point origin) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - origin)
      .count();
}

}  // namespace

int Tracer::Begin(std::string_view name, uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  span.start_ms = MillisSince(origin_);
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size() - 1));
  return open_.back();
}

void Tracer::End(int index) {
  if (index < 0) return;
  spans_[static_cast<size_t>(index)].end_ms = MillisSince(origin_);
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"parent\": %d, \"request\": %llu, "
                 "\"start_ms\": %.6f, \"end_ms\": %.6f}\n",
                 s.name.c_str(), s.parent,
                 static_cast<unsigned long long>(s.request), s.start_ms,
                 s.end_ms);
  }
  return std::fclose(f) == 0;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ms, s.end_ms);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms;
    const double hi = spans[i].end_ms;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double cursor = lo;
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, hi);
      if (end > start) {
        covered += end - start;
        cursor = end;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

LayerTimes CollectLayerTimes(const std::vector<Span>& spans,
                             std::string_view root_name) {
  const std::vector<double> self = SelfTimes(spans);
  // Parents are always begun before their children, so one forward pass
  // resolves every span's root.
  std::vector<size_t> root(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    root[i] = spans[i].parent < 0 ? i : root[static_cast<size_t>(spans[i].parent)];
  }
  std::map<size_t, std::map<std::string, double>> by_root;
  LayerTimes out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[root[i]].name != root_name) continue;
    if (root[i] == i) {
      ++out.roots;
      out.root_total_ms += spans[i].end_ms - spans[i].start_ms;
      by_root[i];
    } else {
      by_root[root[i]][spans[i].name] += self[i];
      out.accounted_total_ms += self[i];
    }
  }
  for (const auto& [r, layers] : by_root) {
    for (const auto& [name, ms] : layers) out.per_request_ms[name].push_back(ms);
  }
  return out;
}

}  // namespace perfbench
