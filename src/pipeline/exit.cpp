#include "pipeline/exit.hpp"

#include <cstdio>
#include <new>

#include "common/state_buffer.hpp"
#include "core/sharded_device.hpp"
#include "net/socket.hpp"
#include "pcap/pcap.hpp"
#include "reporting/record_codec.hpp"
#include "reporting/spool.hpp"
#include "reporting/wal.hpp"
#include "robustness/fault.hpp"

namespace nd::pipeline {

namespace {

Exit decode_error(const std::exception& error) {
  std::fprintf(stderr, "decode error: %s\n", error.what());
  return Exit::kDecode;
}

Exit runtime_fault(const char* what) {
  std::fprintf(stderr, "runtime fault: %s\n", what);
  return Exit::kFault;
}

/// `<command>: <flag>: <what>` — a library error raised by what one
/// flag configured.
Exit flag_error(Exit code, const char* command, const char* flag,
                const std::exception& error) {
  std::fprintf(stderr, "%s: %s%s\n", command, flag, error.what());
  return code;
}

}  // namespace

Exit exit_for_current_exception(const char* command) noexcept {
  try {
    throw;
  } catch (const Error& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return error.code();
  } catch (const pcap::PcapError& error) {
    return decode_error(error);
  } catch (const reporting::CodecError& error) {
    return decode_error(error);
  } catch (const robustness::FaultInjectedError& error) {
    return runtime_fault(error.what());
  } catch (const core::ShardError& error) {
    return runtime_fault(error.what());
  } catch (const std::bad_alloc&) {
    return runtime_fault("out of memory");
  } catch (const common::StateError& error) {
    // Mid-run only the checkpoint raises StateError (the device cannot
    // checkpoint): a usage problem, not a runtime fault.
    return flag_error(Exit::kUsage, command, "--checkpoint: ", error);
  } catch (const reporting::SpoolError& error) {
    return flag_error(Exit::kIo, command, "--spool-dir: ", error);
  } catch (const reporting::wal::WalError& error) {
    // The spool reports its own open failures as SpoolError, so a bare
    // WalError is the collector's journal.
    return flag_error(Exit::kIo, command, "--journal: ", error);
  } catch (const net::NetError& error) {
    return flag_error(Exit::kIo, command, "", error);
  } catch (const std::exception& error) {
    return runtime_fault(error.what());
  } catch (...) {
    return runtime_fault("unknown exception");
  }
}

}  // namespace nd::pipeline
