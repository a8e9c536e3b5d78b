#include "obs/trace.h"

#include <cmath>

#include "util/stopwatch.h"
#include "util/string_util.h"

namespace qmqo {
namespace obs {

/// Built from integer pieces only — `%f` honors LC_NUMERIC, and an
/// embedding app that calls setlocale() must not change trace bytes.
std::string FormatMs(double ms) {
  int64_t thousandths = static_cast<int64_t>(std::llround(ms * 1000.0));
  const char* sign = thousandths < 0 ? "-" : "";
  if (thousandths < 0) thousandths = -thousandths;
  if (thousandths % 1000 == 0) {
    return StrFormat("%s%lld", sign,
                     static_cast<long long>(thousandths / 1000));
  }
  std::string out =
      StrFormat("%s%lld.%03lld", sign,
                static_cast<long long>(thousandths / 1000),
                static_cast<long long>(thousandths % 1000));
  while (out.back() == '0') out.pop_back();
  return out;
}

int SolveTrace::Open(const std::string& name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.depth = open_.empty() ? 0 : spans_[open_.back()].depth + 1;
  const int index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  open_.push_back(index);
  return index;
}

void SolveTrace::Close(double wall_ms) {
  if (open_.empty()) return;
  spans_[open_.back()].wall_ms = wall_ms;
  open_.pop_back();
}

void SolveTrace::AddModeled(double modeled_ms) {
  if (open_.empty()) return;
  spans_[open_.back()].modeled_ms += modeled_ms;
}

void SolveTrace::Tag(const std::string& key, const std::string& value) {
  if (open_.empty()) return;
  spans_[open_.back()].tags.emplace_back(key, value);
}

void SolveTrace::Tag(const std::string& key, int64_t value) {
  Tag(key, StrFormat("%lld", static_cast<long long>(value)));
}

void SolveTrace::TagAt(int index, const std::string& key,
                       const std::string& value) {
  if (index < 0 || index >= static_cast<int>(spans_.size())) return;
  spans_[index].tags.emplace_back(key, value);
}

void SolveTrace::TagAt(int index, const std::string& key, int64_t value) {
  TagAt(index, key, StrFormat("%lld", static_cast<long long>(value)));
}

void SolveTrace::WallTagAt(int index, const std::string& key,
                          int64_t value) {
  if (index < 0 || index >= static_cast<int>(spans_.size())) return;
  spans_[index].wall_tags.emplace_back(
      key, StrFormat("%lld", static_cast<long long>(value)));
}

void SolveTrace::AddModeledAt(int index, double modeled_ms) {
  if (index < 0 || index >= static_cast<int>(spans_.size())) return;
  spans_[index].modeled_ms += modeled_ms;
}

void SolveTrace::SetWallAt(int index, double wall_ms) {
  if (index < 0 || index >= static_cast<int>(spans_.size())) return;
  spans_[index].wall_ms = wall_ms;
}

double SolveTrace::ModeledTotal(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.modeled_ms;
  }
  return total;
}

double SolveTrace::WallTotal(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.wall_ms;
  }
  return total;
}

std::string SolveTrace::JsonLine(bool include_wall) const {
  std::string out = "{\"spans\": [";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out += ", ";
    out += "{\"name\": \"" + EscapeJson(span.name) + "\"";
    out += ", \"parent\": " + StrFormat("%d", span.parent);
    out += ", \"modeled_ms\": " + FormatMs(span.modeled_ms);
    if (include_wall) {
      out += ", \"wall_ms\": " + FormatMs(span.wall_ms);
    }
    bool first_tag = true;
    auto append_tags = [&](const auto& tags) {
      for (const auto& [key, value] : tags) {
        out += first_tag ? ", \"tags\": {" : ", ";
        first_tag = false;
        out += "\"" + EscapeJson(key) + "\": \"" + EscapeJson(value) + "\"";
      }
    };
    append_tags(span.tags);
    if (include_wall) append_tags(span.wall_tags);
    if (!first_tag) out += "}";
    out += "}";
  }
  out += "]}";
  return out;
}

std::string SolveTrace::Pretty(bool include_wall) const {
  std::string out;
  for (const Span& span : spans_) {
    out.append(static_cast<size_t>(span.depth) * 2, ' ');
    out += span.name;
    out += "  modeled=" + FormatMs(span.modeled_ms) + "ms";
    if (include_wall) {
      out += " wall=" + FormatMs(span.wall_ms) + "ms";
    }
    for (const auto& [key, value] : span.tags) {
      out += " " + key + "=" + value;
    }
    if (include_wall) {
      for (const auto& [key, value] : span.wall_tags) {
        out += " " + key + "=" + value;
      }
    }
    out += "\n";
  }
  return out;
}

SpanScope::SpanScope(SolveTrace* trace, const std::string& name)
    : trace_(trace) {
  if (trace_ == nullptr) return;
  index_ = trace_->Open(name);
  stopwatch_.Restart();
}

SpanScope::~SpanScope() {
  if (trace_ == nullptr) return;
  trace_->Close(stopwatch_.ElapsedMillis());
}

void Tracer::Commit(SolveTrace trace) { traces_.push_back(std::move(trace)); }

std::string Tracer::DumpJsonLines(bool include_wall) const {
  std::string out;
  for (const SolveTrace& trace : traces_) {
    out += trace.JsonLine(include_wall);
    out += "\n";
  }
  return out;
}

double Tracer::ModeledTotal(const std::string& name) const {
  double total = 0.0;
  for (const SolveTrace& trace : traces_) total += trace.ModeledTotal(name);
  return total;
}

double Tracer::WallTotal(const std::string& name) const {
  double total = 0.0;
  for (const SolveTrace& trace : traces_) total += trace.WallTotal(name);
  return total;
}

}  // namespace obs
}  // namespace qmqo
