// In-process pipeline harness shared by the pipeline and identity
// suites: a pipeline::Collect on its own thread behind an ephemeral
// port, plus the file and stdout helpers those scenarios read back.
#pragma once

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <utility>

#include "pipeline/collect.hpp"

namespace nd::testing {

inline std::string read_file(const std::filesystem::path& path) {
  std::ifstream stream(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(stream),
          std::istreambuf_iterator<char>()};
}

/// Polls for a file a pipeline publishes (a port file) and reads its
/// number; 0 when it never appears.
inline std::uint16_t await_port_file(const std::filesystem::path& path) {
  for (int i = 0; i < 1000; ++i) {
    std::ifstream stream(path);
    unsigned port = 0;
    if (stream >> port) return static_cast<std::uint16_t>(port);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return 0;
}

/// What ::testing::internal::CaptureStdout() caught, stdio buffer
/// included.
inline std::string captured_stdout() {
  std::fflush(stdout);
  return ::testing::internal::GetCapturedStdout();
}

/// pipeline::Collect on its own thread, listening on an ephemeral port
/// it publishes through --port-file. Destruction stops and joins it.
class CollectorThread {
 public:
  CollectorThread(pipeline::CollectConfig config,
                  const std::filesystem::path& dir) {
    const std::filesystem::path port_file = dir / "collect.port";
    std::filesystem::remove(port_file);
    config.port_file = port_file.string();
    collect_ = std::make_unique<pipeline::Collect>(std::move(config));
    thread_ = std::thread([this] { exit_ = collect_->run(); });
    port_ = await_port_file(port_file);
    EXPECT_NE(port_, 0) << "collector never published its port";
  }
  ~CollectorThread() {
    if (thread_.joinable()) {
      collect_->stop();
      thread_.join();
    }
  }
  CollectorThread(const CollectorThread&) = delete;
  CollectorThread& operator=(const CollectorThread&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  void stop() { collect_->stop(); }
  pipeline::Exit join() {
    thread_.join();
    return exit_;
  }

 private:
  std::unique_ptr<pipeline::Collect> collect_;
  std::thread thread_;
  pipeline::Exit exit_{pipeline::Exit::kOk};
  std::uint16_t port_{0};
};

}  // namespace nd::testing
