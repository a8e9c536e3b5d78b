#include "mqo/serialization.h"

#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "util/string_util.h"

namespace qmqo {
namespace mqo {

std::string ToText(const MqoProblem& problem) {
  std::string out = "mqo v1\n";
  for (QueryId q = 0; q < problem.num_queries(); ++q) {
    out += "query";
    for (int i = 0; i < problem.num_plans_of(q); ++i) {
      out += StrFormat(" %.17g", problem.plan_cost(problem.first_plan(q) + i));
    }
    out += "\n";
  }
  for (const Saving& s : problem.savings()) {
    out += StrFormat("saving %d %d %.17g\n", s.plan_a, s.plan_b, s.value);
  }
  out += "end\n";
  return out;
}

namespace {

/// Hostile-input guard: no legitimate instance needs more than this many
/// bytes of text, and parsing is linear in the payload — cap before doing
/// any work so an attacker-sized payload is a cheap typed rejection.
constexpr size_t kMaxPayloadBytes = 16u << 20;  // 16 MiB

}  // namespace

Result<MqoProblem> FromText(const std::string& text) {
  if (text.size() > kMaxPayloadBytes) {
    return Status::InvalidArgument(
        StrFormat("oversized payload: %zu bytes (limit %zu)", text.size(),
                  kMaxPayloadBytes));
  }
  bool saw_header = false;
  bool saw_end = false;
  MqoProblem problem;
  int line_no = 0;
  std::vector<std::string_view> fields;
  // Lines as std::getline yields them: split at '\n', and a last line
  // without one counts unless it is empty.
  std::string_view rest(text);
  while (!rest.empty()) {
    const size_t eol = rest.find('\n');
    std::string_view line = rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view()
                                         : rest.substr(eol + 1);
    ++line_no;
    line = TrimView(line);
    if (line.empty() || line[0] == '#') continue;
    if (!saw_header) {
      if (line != "mqo v1") {
        return Status::InvalidArgument(
            StrFormat("line %d: expected header 'mqo v1'", line_no));
      }
      saw_header = true;
      continue;
    }
    if (line == "end") {
      saw_end = true;
      break;
    }
    SplitView(line, ' ', &fields);
    if (fields[0] == "query") {
      std::vector<double> costs;
      for (size_t i = 1; i < fields.size(); ++i) {
        if (fields[i].empty()) continue;
        double v = 0.0;
        if (!ParseFiniteDouble(fields[i], &v)) {
          return Status::InvalidArgument(
              StrFormat("line %d: bad cost '%s'", line_no,
                        std::string(fields[i]).c_str()));
        }
        costs.push_back(v);
      }
      if (costs.empty()) {
        return Status::InvalidArgument(
            StrFormat("line %d: query with no plans", line_no));
      }
      problem.AddQuery(std::move(costs));
    } else if (fields[0] == "saving") {
      if (fields.size() != 4) {
        return Status::InvalidArgument(
            StrFormat("line %d: saving needs exactly 3 fields", line_no));
      }
      int a = 0;
      int b = 0;
      double v = 0.0;
      if (!ParseInt(fields[1], &a) || !ParseInt(fields[2], &b) ||
          !ParseFiniteDouble(fields[3], &v)) {
        return Status::InvalidArgument(StrFormat(
            "line %d: bad saving '%s'", line_no, std::string(line).c_str()));
      }
      Status s = problem.AddSaving(a, b, v);
      if (!s.ok()) {
        return Status::InvalidArgument(
            StrFormat("line %d: %s", line_no, s.message().c_str()));
      }
    } else {
      return Status::InvalidArgument(
          StrFormat("line %d: unknown directive '%s'", line_no,
                    std::string(fields[0]).c_str()));
    }
  }
  if (!saw_header) return Status::InvalidArgument("missing 'mqo v1' header");
  if (!saw_end) return Status::InvalidArgument("missing 'end' terminator");
  QMQO_RETURN_IF_ERROR(problem.Validate());
  return problem;
}

Status SaveToFile(const MqoProblem& problem, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  out << ToText(problem);
  if (!out) {
    return Status::Internal(StrFormat("write to '%s' failed", path.c_str()));
  }
  return Status::OK();
}

Result<MqoProblem> LoadFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound(StrFormat("cannot open '%s'", path.c_str()));
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return FromText(buffer.str());
}

}  // namespace mqo
}  // namespace qmqo
