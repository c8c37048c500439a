#include "e2ebench/src/trace.h"

namespace e2ebench {

int Tracer::NameId(const char* name) {
  auto [it, inserted] =
      name_ids_.emplace(name, static_cast<int>(names_.size()));
  if (inserted) names_.emplace_back(name);
  return it->second;
}

int Tracer::Begin(const char* name, std::int64_t request, int parent) {
  if (!enabled_) return -1;
  Span span;
  span.name = NameId(name);
  span.parent = parent;
  span.request = request;
  span.start_ns = Ns(Clock::now());
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::End(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = Ns(Clock::now());
}

int Tracer::Add(const char* name, std::int64_t request, int parent,
                Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return -1;
  Span span;
  span.name = NameId(name);
  span.parent = parent;
  span.request = request;
  span.start_ns = Ns(start);
  span.end_ns = Ns(end);
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<double> Tracer::SelfTimesUs(const std::string& name) const {
  std::vector<double> out;
  auto it = name_ids_.find(name);
  if (it == name_ids_.end()) return out;
  // Children are recorded after their parent and never overlap each
  // other, so a parent's covered time is the sum of its children's.
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      covered[static_cast<std::size_t>(span.parent)] +=
          span.end_ns - span.start_ns;
    }
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != it->second) continue;
    out.push_back(
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns -
                            covered[i]) /
        1e3);
  }
  return out;
}

void Tracer::AppendTsv(const std::string& label, std::string* out) const {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    *out += label;
    *out += '\t';
    *out += names_[static_cast<std::size_t>(span.name)];
    *out += '\t' + std::to_string(span.request) + '\t' + std::to_string(i) +
            '\t' + std::to_string(span.parent) + '\t' +
            std::to_string(span.start_ns) + '\t' +
            std::to_string(span.end_ns) + '\n';
  }
}

}  // namespace e2ebench
