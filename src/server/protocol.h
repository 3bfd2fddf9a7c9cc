#ifndef COLARM_SERVER_PROTOCOL_H_
#define COLARM_SERVER_PROTOCOL_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "common/status.h"
#include "core/engine.h"

namespace colarm {

/// The wire protocol of colarm_server: a line-oriented text dialect an
/// analyst can drive with `nc`.
///
/// Requests are single `\n`-terminated lines (a trailing `\r` is
/// stripped, so `telnet`-style CRLF clients work):
///
///   HELLO <tenant>          open / resume the tenant's session
///   MINE <query>            run a localized-rule query (paper §2.2 text)
///   EXPLAIN <query>         optimizer cost table, nothing executes
///   STATS                   tenant counters + admission state
///   QUIT                    close the connection
///
/// Responses are length-delimited so clients can frame them without
/// sniffing payload content:
///
///   OK <nbytes>\n<nbytes of payload>
///   ERR <CODE> <message>\n
///
/// Every payload byte is deterministic — no wall-clock times, no
/// pointers — so a response can be diffed against a direct Engine
/// replay (the server_smoke contract).
///
/// Error codes:
///   BADCMD    unknown verb or malformed command line
///   NOHELLO   MINE/EXPLAIN/STATS before HELLO
///   REHELLO   second HELLO on the same connection
///   PARSE     query text rejected by ParseQuery
///   EXEC      execution failed (validation, internal)
///   BUSY      admission control rejected the request (fast-fail)
///   DEADLINE  per-request deadline expired (queued or mid-plan)
///   SHUTDOWN  server is draining; no new work accepted
///   TOOLONG   request line exceeded the size cap (line discarded,
///             session stays usable)

/// Incremental splitter of a TCP byte stream into protocol lines with an
/// upper bound on line length. Oversized lines are reported once, then
/// discarded through the next `\n`, after which framing resumes — a
/// misbehaving client cannot balloon server memory or wedge the session.
class LineFramer {
 public:
  explicit LineFramer(size_t max_line_bytes) : max_(max_line_bytes) {}

  /// Feeds freshly read bytes.
  void Append(const char* data, size_t n);

  enum class Event {
    kLine,      // *line holds a complete line (terminator stripped)
    kOversized, // a line blew the cap; it is being discarded
    kNeedMore,  // no complete line buffered
  };

  /// Pulls the next framing event. Call until kNeedMore.
  Event Next(std::string* line);

  size_t buffered_bytes() const { return buffer_.size(); }

 private:
  size_t max_;
  std::string buffer_;
  bool discarding_ = false;
};

enum class Verb { kHello, kMine, kExplain, kStats, kQuit };

struct Command {
  Verb verb = Verb::kQuit;
  /// HELLO: tenant name. MINE/EXPLAIN: query text. Else empty.
  std::string arg;
};

/// Parses one request line (already stripped of the terminator). Verbs are
/// case-insensitive; arguments keep their case. Fails with kParseError on
/// unknown verbs, missing or extra arguments, and invalid tenant names
/// (tenants match [A-Za-z0-9_.-]{1,64}).
Result<Command> ParseCommandLine(std::string_view line);

/// "OK <nbytes>\n<payload>".
std::string OkResponse(std::string_view payload);

/// "ERR <CODE> <message>\n" — newlines in `message` become spaces so the
/// error always frames as one line.
std::string ErrResponse(std::string_view code, std::string_view message);

/// Protocol code for a failed Status (kParseError → PARSE,
/// kDeadlineExceeded → DEADLINE, everything else → EXEC).
const char* StatusErrCode(const Status& status);

/// Deterministic MINE payload: a one-line plan summary followed by the full
/// rule listing. Excludes timings so server output is byte-comparable with
/// a direct-engine replay. The summary's trailing `cache none` token keeps
/// the retired session cache's wire layout, which the benchmark compares;
/// the benchmark-only change (ROADMAP item 4) removes it.
std::string RenderMineResult(const Schema& schema, const QueryResult& result);

/// Deterministic EXPLAIN payload (the optimizer's per-plan cost table).
std::string RenderExplain(const OptimizerDecision& decision);

}  // namespace colarm

#endif  // COLARM_SERVER_PROTOCOL_H_
