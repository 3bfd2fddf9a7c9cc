#include "server/protocol.h"

#include <cstring>

#include "common/string_util.h"
#include "core/explain.h"

namespace colarm {

void LineFramer::Append(const char* data, size_t n) {
  if (discarding_) {
    // Keep only bytes past the next newline; everything before it belongs
    // to the oversized line being dropped.
    const char* end = data + n;
    const char* nl = static_cast<const char*>(memchr(data, '\n', n));
    if (nl == nullptr) return;
    discarding_ = false;
    data = nl + 1;
    n = static_cast<size_t>(end - data);
  }
  buffer_.append(data, n);
}

LineFramer::Event LineFramer::Next(std::string* line) {
  // While discarding, the oversize was already reported at the transition;
  // framing resumes once Append sees the terminating newline.
  if (discarding_) return Event::kNeedMore;
  const size_t nl = buffer_.find('\n');
  if (nl == std::string::npos) {
    if (buffer_.size() > max_) {
      buffer_.clear();
      discarding_ = true;
      return Event::kOversized;
    }
    return Event::kNeedMore;
  }
  if (nl > max_) {
    // Complete line, but over the cap: drop it whole and report.
    buffer_.erase(0, nl + 1);
    return Event::kOversized;
  }
  line->assign(buffer_, 0, nl);
  buffer_.erase(0, nl + 1);
  if (!line->empty() && line->back() == '\r') line->pop_back();
  return Event::kLine;
}

namespace {

bool ValidTenantName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

Result<Command> ParseCommandLine(std::string_view line) {
  const std::string_view stripped = StripWhitespace(line);
  if (stripped.empty()) {
    return Status::ParseError("empty command line");
  }
  const size_t space = stripped.find_first_of(" \t");
  const std::string_view verb_text = stripped.substr(0, space);
  const std::string_view rest =
      space == std::string_view::npos
          ? std::string_view{}
          : StripWhitespace(stripped.substr(space + 1));

  Command cmd;
  if (EqualsIgnoreCase(verb_text, "HELLO")) {
    cmd.verb = Verb::kHello;
    if (!ValidTenantName(rest)) {
      return Status::ParseError(
          "HELLO needs a tenant name matching [A-Za-z0-9_.-]{1,64}");
    }
    cmd.arg = std::string(rest);
    return cmd;
  }
  if (EqualsIgnoreCase(verb_text, "MINE") ||
      EqualsIgnoreCase(verb_text, "EXPLAIN")) {
    cmd.verb =
        EqualsIgnoreCase(verb_text, "MINE") ? Verb::kMine : Verb::kExplain;
    if (rest.empty()) {
      return Status::ParseError(
          std::string(verb_text) + " needs a query argument");
    }
    cmd.arg = std::string(rest);
    return cmd;
  }
  if (EqualsIgnoreCase(verb_text, "STATS") ||
      EqualsIgnoreCase(verb_text, "QUIT")) {
    cmd.verb = EqualsIgnoreCase(verb_text, "STATS") ? Verb::kStats : Verb::kQuit;
    if (!rest.empty()) {
      return Status::ParseError(
          std::string(verb_text) + " takes no argument");
    }
    return cmd;
  }
  return Status::ParseError("unknown command: " + std::string(verb_text));
}

std::string OkResponse(std::string_view payload) {
  std::string out = StrFormat("OK %zu\n", payload.size());
  out.reserve(out.size() + payload.size());
  out.append(payload);
  return out;
}

std::string ErrResponse(std::string_view code, std::string_view message) {
  std::string flat(message);
  for (char& c : flat) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  std::string out = "ERR ";
  out.append(code);
  out.push_back(' ');
  out.append(flat);
  out.push_back('\n');
  return out;
}

const char* StatusErrCode(const Status& status) {
  switch (status.code()) {
    case StatusCode::kParseError:
      return "PARSE";
    case StatusCode::kDeadlineExceeded:
      return "DEADLINE";
    default:
      return "EXEC";
  }
}

std::string RenderMineResult(const Schema& schema, const QueryResult& result) {
  std::string out = StrFormat(
      "plan %s rules %zu subset %u cache none\n",
      PlanKindName(result.plan_used), result.rules.rules.size(),
      result.stats.subset_size);
  if (!result.decision.constraints.empty()) {
    std::string clauses = result.decision.constraints;
    if (clauses.rfind(" AND ", 0) == 0) clauses.erase(0, 5);
    out += "constraints " + clauses + "\n";
  }
  AppendRules(schema, result.rules, /*limit=*/0, &out);
  return out;
}

std::string RenderExplain(const OptimizerDecision& decision) {
  return FormatDecision(decision);
}

}  // namespace colarm
