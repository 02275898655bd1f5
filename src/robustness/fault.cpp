#include "robustness/fault.hpp"

#include <algorithm>
#include <charconv>
#include <thread>

namespace nd::robustness {

namespace {

// Local splitmix-style mixer: nd_robustness sits below nd_hash in the
// link order (ThreadPool in nd_common uses it), so it cannot borrow
// hash::splitmix64.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::uint64_t hash_site(std::string_view site) {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a
  for (const char c : site) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Uniform [0,1) from a mixed word.
double to_unit(std::uint64_t word) {
  return static_cast<double>(word >> 11) * 0x1.0p-53;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kThrow:
      return "throw";
    case FaultKind::kStall:
      return "stall";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kCorrupt:
      return "corrupt";
    case FaultKind::kTruncate:
      return "truncate";
  }
  return "unknown";
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  for (const auto& [site, spec] : plan_.sites()) {
    SiteState state;
    state.spec = spec;
    state.site_hash = hash_site(site);
    states_.emplace(site, std::move(state));
  }
}

std::optional<FaultDecision> FaultInjector::next(std::string_view site) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = states_.find(site);
  if (it == states_.end()) return std::nullopt;
  SiteState& state = it->second;
  const std::uint64_t occurrence = state.occurrences++;
  const FaultSpec& spec = state.spec;
  if (spec.max_fires != 0 && state.fires >= spec.max_fires) {
    return std::nullopt;
  }
  const std::uint64_t draw =
      mix64(plan_.seed() ^ state.site_hash ^ (occurrence * 0x9E3779B9ULL));
  bool fire;
  if (!spec.schedule.empty()) {
    fire = std::find(spec.schedule.begin(), spec.schedule.end(),
                     occurrence) != spec.schedule.end();
  } else {
    fire = to_unit(draw) < spec.probability;
  }
  if (!fire) return std::nullopt;
  ++state.fires;
  if (state.tm_fires != nullptr) state.tm_fires->increment();
  FaultDecision decision;
  decision.kind = spec.kind;
  decision.stall = spec.stall;
  decision.occurrence = occurrence;
  decision.salt = mix64(draw);
  return decision;
}

std::optional<FaultDecision> FaultInjector::act(std::string_view site) {
  auto decision = next(site);
  if (decision) apply_compute_fault(*decision, site);
  return decision;
}

std::uint64_t FaultInjector::fires(std::string_view site) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = states_.find(site);
  return it == states_.end() ? 0 : it->second.fires;
}

std::uint64_t FaultInjector::occurrences(std::string_view site) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = states_.find(site);
  return it == states_.end() ? 0 : it->second.occurrences;
}

void FaultInjector::attach_telemetry(telemetry::MetricsRegistry* registry,
                                     telemetry::Labels labels) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [site, state] : states_) {
    if (registry == nullptr) {
      state.tm_fires = nullptr;
      continue;
    }
    telemetry::Labels series = labels;
    series.emplace_back("site", site);
    series.emplace_back("kind", fault_kind_name(state.spec.kind));
    state.tm_fires =
        &registry->counter("nd_fault_injected_total", std::move(series));
  }
}

void apply_compute_fault(const FaultDecision& decision,
                         std::string_view site) {
  switch (decision.kind) {
    case FaultKind::kThrow:
      throw FaultInjectedError("injected fault at " + std::string(site) +
                               " (occurrence " +
                               std::to_string(decision.occurrence) + ")");
    case FaultKind::kStall:
      std::this_thread::sleep_for(decision.stall);
      return;
    default:
      return;  // data-path kinds: the caller applies them
  }
}

void corrupt_bytes(std::span<std::uint8_t> bytes, std::uint64_t salt) {
  if (bytes.empty()) return;
  const std::size_t pos =
      static_cast<std::size_t>(salt % bytes.size());
  const auto pattern =
      static_cast<std::uint8_t>((mix64(salt) & 0xFFU) | 1U);
  bytes[pos] ^= pattern;
}

std::size_t truncated_size(std::size_t size, std::uint64_t salt) {
  return size == 0 ? 0 : static_cast<std::size_t>(salt % size);
}

namespace {

FaultKind parse_kind(std::string_view token) {
  if (token == "throw") return FaultKind::kThrow;
  if (token == "stall") return FaultKind::kStall;
  if (token == "drop") return FaultKind::kDrop;
  if (token == "corrupt") return FaultKind::kCorrupt;
  if (token == "truncate") return FaultKind::kTruncate;
  throw std::invalid_argument("fault plan: unknown kind '" +
                              std::string(token) + "'");
}

std::uint64_t parse_u64(std::string_view token, const char* what) {
  std::uint64_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  if (ec != std::errc() || ptr != token.data() + token.size()) {
    throw std::invalid_argument(std::string("fault plan: bad ") + what +
                                " '" + std::string(token) + "'");
  }
  return value;
}

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> parts;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t end = text.find(sep, start);
    if (end == std::string_view::npos) {
      parts.push_back(text.substr(start));
      break;
    }
    parts.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return parts;
}

}  // namespace

FaultPlan parse_fault_plan(std::string_view text, std::uint64_t seed) {
  FaultPlan plan(seed);
  bool any = false;
  for (const std::string_view entry : split(text, ',')) {
    if (entry.empty()) continue;
    any = true;
    const auto fields = split(entry, ':');
    if (fields.size() < 2 || fields[0].empty()) {
      throw std::invalid_argument("fault plan: expected <site>:<kind>[...]"
                                  " in '" +
                                  std::string(entry) + "'");
    }
    FaultSpec spec;
    spec.kind = parse_kind(fields[1]);
    for (std::size_t i = 2; i < fields.size(); ++i) {
      const std::string_view field = fields[i];
      const std::size_t eq = field.find('=');
      if (eq == std::string_view::npos) {
        throw std::invalid_argument("fault plan: expected key=value, got '" +
                                    std::string(field) + "'");
      }
      const std::string_view key = field.substr(0, eq);
      const std::string_view value = field.substr(eq + 1);
      if (key == "p") {
        spec.probability = std::stod(std::string(value));
        if (spec.probability < 0.0 || spec.probability > 1.0) {
          throw std::invalid_argument(
              "fault plan: probability out of [0,1]");
        }
      } else if (key == "at") {
        for (const std::string_view idx : split(value, '+')) {
          spec.schedule.push_back(parse_u64(idx, "occurrence"));
        }
      } else if (key == "stall") {
        spec.stall =
            std::chrono::milliseconds(parse_u64(value, "stall duration"));
      } else if (key == "max") {
        spec.max_fires = parse_u64(value, "max fires");
      } else {
        throw std::invalid_argument("fault plan: unknown key '" +
                                    std::string(key) + "'");
      }
    }
    plan.inject(std::string(fields[0]), std::move(spec));
  }
  if (!any) {
    throw std::invalid_argument("fault plan: empty plan");
  }
  return plan;
}

}  // namespace nd::robustness
