// The exit-code contract of the deployed pipeline: what pipeline::Measure
// and pipeline::Collect return from run(), and what `ndtm measure` /
// `ndtm collect` exit with.
#pragma once

#include <stdexcept>
#include <string>

namespace nd::pipeline {

/// One code per way a run can end, each distinct so scripts can tell
/// them apart.
enum class Exit : int {
  /// Success. For a measure run this includes "reports still spooled,
  /// not yet collected" (durable, not lost) and a graceful stop(); for
  /// a collect run, every expected device said bye and no interval it
  /// counted is missing.
  kOk = 0,
  /// File or socket IO: an input that cannot be read; an export,
  /// metrics, port or trace file that cannot be written; a port that
  /// cannot be bound; a checkpoint that cannot be resumed; a spool or
  /// journal that cannot be opened.
  kIo = 1,
  /// Bad arguments: a missing, malformed or contradictory setting (an
  /// unknown algorithm or flow definition, more shards than the entry
  /// budget allows), a fault plan that does not parse, a device that
  /// cannot checkpoint.
  kUsage = 2,
  /// Malformed input data: a corrupt pcap or report stream.
  kDecode = 3,
  /// A runtime fault the self-healing layer could not absorb: an
  /// injected fault, a shard failure, memory exhaustion.
  kFault = 4,
  /// A report is gone. Measure: with the spool disabled, a report
  /// abandoned after the retry budget or an undeliverable final bye;
  /// with a spool, only a report too large to ever fit its disk budget
  /// (a mere backlog is kOk and waits on disk). Collect: it timed out
  /// or was stopped before every device finished, or a device's bye
  /// counted intervals that never arrived (one stderr line per gap
  /// names the device and the intervals; the export lacks exactly
  /// those).
  kTransport = 5,
};

/// A failure whose exit code is known where it is raised (a file that
/// will not open, a contradictory configuration). what() is the whole
/// stderr line.
class Error : public std::runtime_error {
 public:
  Error(Exit code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  [[nodiscard]] Exit code() const { return code_; }

 private:
  Exit code_;
};

/// The one map from exceptions to exit codes. Call it inside a catch
/// block: it prints the exception in flight to stderr (prefixed with
/// `command` where the library message lacks context) and returns its
/// code. Library exceptions map by type; std::bad_alloc is a fault.
[[nodiscard]] Exit exit_for_current_exception(const char* command) noexcept;

}  // namespace nd::pipeline
