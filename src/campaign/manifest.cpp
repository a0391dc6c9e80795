#include "campaign/manifest.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <system_error>
#include <type_traits>

#include "models/serialization.hpp"

namespace duo::campaign {

namespace {

// %.17g survives a text round trip for every finite double (shortest exact
// form would too, but 17 significant digits is simpler and canonical here).
std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* admission_name(serve::AdmissionPolicy p) {
  switch (p) {
    case serve::AdmissionPolicy::kBlock:
      return "block";
    case serve::AdmissionPolicy::kReject:
      return "reject";
    case serve::AdmissionPolicy::kShed:
      return "shed";
  }
  return "block";
}

bool admission_from_name(const std::string& name, serve::AdmissionPolicy& p) {
  if (name == "block") {
    p = serve::AdmissionPolicy::kBlock;
  } else if (name == "reject") {
    p = serve::AdmissionPolicy::kReject;
  } else if (name == "shed") {
    p = serve::AdmissionPolicy::kShed;
  } else {
    return false;
  }
  return true;
}

// Whole-token, range-checked numbers: trailing characters, values outside
// the field's type, and non-finite reals all fail (std::from_chars takes no
// leading whitespace or '+', and no '-' for unsigned fields).
template <typename T>
bool parse_number(const std::string& s, T& out) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  out = v;
  return true;
}

// Every `_ms` key is a duration in milliseconds that some component turns
// into a std::chrono duration; bounding it at parse time keeps those
// conversions (down to nanoseconds in future::wait_for) from overflowing.
bool parse_duration_ms(const std::string& s, double& out) {
  double v = 0.0;
  if (!parse_number(s, v) || std::fabs(v) > kMaxDurationMs) return false;
  out = v;
  return true;
}

bool parse_flag(const std::string& s, bool& out) {
  if (s != "0" && s != "1") return false;
  out = s == "1";
  return true;
}

// One global "key value" line. Returns false for unknown keys or bad values.
bool apply_global(CampaignManifest& m, const std::string& key,
                  const std::string& value) {
  if (key == "campaign") return (m.name = value, true);
  if (key == "seed") return parse_number(value, m.seed);
  if (key == "virtual_clock") return parse_flag(value, m.virtual_clock);
  if (key == "max_batch") return parse_number(value, m.max_batch);
  if (key == "queue_capacity") return parse_number(value, m.queue_capacity);
  if (key == "admission") return admission_from_name(value, m.admission);
  if (key == "admission_threshold")
    return parse_number(value, m.admission_threshold);
  if (key == "reject_retry_after_ms")
    return parse_duration_ms(value, m.reject_retry_after_ms);
  if (key == "client_rate") return parse_number(value, m.client_rate);
  if (key == "client_burst") return parse_number(value, m.client_burst);
  if (key == "batch_timeout_ms")
    return parse_duration_ms(value, m.batch_timeout_ms);
  if (key == "degrade_high") return parse_number(value, m.degrade_high);
  if (key == "degrade_low") return parse_number(value, m.degrade_low);
  if (key == "fault_error_prob") return parse_number(value, m.fault_error_prob);
  if (key == "fault_delay_prob") return parse_number(value, m.fault_delay_prob);
  if (key == "fault_drop_prob") return parse_number(value, m.fault_drop_prob);
  if (key == "fault_delay_ms")
    return parse_duration_ms(value, m.fault_delay_ms);
  if (key == "fault_error_from") return parse_number(value, m.fault_error_from);
  if (key == "fault_seed") return parse_number(value, m.fault_seed);
  if (key == "pacer_rate") return parse_number(value, m.pacer_rate);
  if (key == "pacer_burst") return parse_number(value, m.pacer_burst);
  if (key == "pacer_aimd") return parse_flag(value, m.pacer_aimd);
  if (key == "aimd_increase") return parse_number(value, m.aimd_increase);
  if (key == "aimd_decrease") return parse_number(value, m.aimd_decrease);
  if (key == "aimd_floor") return parse_number(value, m.aimd_floor);
  if (key == "aimd_ceiling") return parse_number(value, m.aimd_ceiling);
  if (key == "max_attempts") return parse_number(value, m.max_attempts);
  if (key == "query_timeout_ms")
    return parse_duration_ms(value, m.query_timeout_ms);
  if (key == "submit_deadline_ms")
    return parse_duration_ms(value, m.submit_deadline_ms);
  if (key == "circuit_threshold")
    return parse_number(value, m.circuit_threshold);
  if (key == "circuit_cooldown_ms")
    return parse_duration_ms(value, m.circuit_cooldown_ms);
  if (key == "checkpoint_dir") return (m.checkpoint_dir = value, true);
  if (key == "crash_at_ms") {
    double v = 0.0;
    if (!parse_duration_ms(value, v) || v <= 0.0) return false;
    // Strictly increasing, so the runner can execute the schedule as a
    // single forward sweep of the campaign clock.
    if (!m.crashes.empty() && v <= m.crashes.back().at_ms) return false;
    CrashEvent e;
    e.at_ms = v;
    m.crashes.push_back(e);
    return true;
  }
  if (key == "restart_after_ms") {
    // Tunes the most recent crash_at_ms event; meaningless before one.
    if (m.crashes.empty()) return false;
    double v = 0.0;
    if (!parse_duration_ms(value, v) || v <= 0.0) return false;
    m.crashes.back().restart_after_ms = v;
    return true;
  }
  return false;
}

bool apply_session(SessionSpec& s, const std::string& key,
                   const std::string& value) {
  if (key == "role") return role_from_name(value, s.role);
  if (key == "seed") return parse_number(value, s.seed);
  if (key == "m") return parse_number(value, s.m);
  if (key == "ttl_ms") return parse_duration_ms(value, s.ttl_ms);
  if (key == "think_ms") return parse_duration_ms(value, s.think_ms);
  if (key == "queries") return parse_number(value, s.queries);
  if (key == "iterations") return parse_number(value, s.iterations);
  if (key == "rounds") return parse_number(value, s.rounds);
  if (key == "support_k") return parse_number(value, s.support_k);
  if (key == "support_n") return parse_number(value, s.support_n);
  if (key == "source_index") return parse_number(value, s.source_index);
  if (key == "target_index") return parse_number(value, s.target_index);
  if (key == "checkpoint") return (s.checkpoint = value, true);
  return false;
}

}  // namespace

const char* role_name(SessionRole role) {
  switch (role) {
    case SessionRole::kBenign:
      return "benign";
    case SessionRole::kSparse:
      return "sparse";
    case SessionRole::kDuo:
      return "duo";
  }
  return "benign";
}

bool role_from_name(const std::string& name, SessionRole& role) {
  if (name == "benign") {
    role = SessionRole::kBenign;
  } else if (name == "sparse") {
    role = SessionRole::kSparse;
  } else if (name == "duo") {
    role = SessionRole::kDuo;
  } else {
    return false;
  }
  return true;
}

void write_manifest(std::ostream& out, const CampaignManifest& m) {
  out << "campaign " << m.name << "\n";
  out << "seed " << m.seed << "\n";
  out << "virtual_clock " << (m.virtual_clock ? 1 : 0) << "\n";
  out << "max_batch " << m.max_batch << "\n";
  out << "queue_capacity " << m.queue_capacity << "\n";
  out << "admission " << admission_name(m.admission) << "\n";
  out << "admission_threshold " << fmt(m.admission_threshold) << "\n";
  out << "reject_retry_after_ms " << fmt(m.reject_retry_after_ms) << "\n";
  out << "client_rate " << fmt(m.client_rate) << "\n";
  out << "client_burst " << fmt(m.client_burst) << "\n";
  out << "batch_timeout_ms " << fmt(m.batch_timeout_ms) << "\n";
  out << "degrade_high " << fmt(m.degrade_high) << "\n";
  out << "degrade_low " << fmt(m.degrade_low) << "\n";
  out << "fault_error_prob " << fmt(m.fault_error_prob) << "\n";
  out << "fault_delay_prob " << fmt(m.fault_delay_prob) << "\n";
  out << "fault_drop_prob " << fmt(m.fault_drop_prob) << "\n";
  out << "fault_delay_ms " << fmt(m.fault_delay_ms) << "\n";
  out << "fault_error_from " << m.fault_error_from << "\n";
  out << "fault_seed " << m.fault_seed << "\n";
  out << "pacer_rate " << fmt(m.pacer_rate) << "\n";
  out << "pacer_burst " << fmt(m.pacer_burst) << "\n";
  out << "pacer_aimd " << (m.pacer_aimd ? 1 : 0) << "\n";
  out << "aimd_increase " << fmt(m.aimd_increase) << "\n";
  out << "aimd_decrease " << fmt(m.aimd_decrease) << "\n";
  out << "aimd_floor " << fmt(m.aimd_floor) << "\n";
  out << "aimd_ceiling " << fmt(m.aimd_ceiling) << "\n";
  out << "max_attempts " << m.max_attempts << "\n";
  out << "query_timeout_ms " << fmt(m.query_timeout_ms) << "\n";
  out << "submit_deadline_ms " << fmt(m.submit_deadline_ms) << "\n";
  out << "circuit_threshold " << m.circuit_threshold << "\n";
  out << "circuit_cooldown_ms " << fmt(m.circuit_cooldown_ms) << "\n";
  if (!m.checkpoint_dir.empty()) {
    out << "checkpoint_dir " << m.checkpoint_dir << "\n";
  }
  for (const auto& c : m.crashes) {
    out << "crash_at_ms " << fmt(c.at_ms) << "\n";
    out << "restart_after_ms " << fmt(c.restart_after_ms) << "\n";
  }
  for (const auto& s : m.sessions) {
    out << "session " << s.client_id << "\n";
    out << "role " << role_name(s.role) << "\n";
    out << "seed " << s.seed << "\n";
    out << "m " << s.m << "\n";
    out << "ttl_ms " << fmt(s.ttl_ms) << "\n";
    out << "think_ms " << fmt(s.think_ms) << "\n";
    out << "queries " << s.queries << "\n";
    out << "iterations " << s.iterations << "\n";
    out << "rounds " << s.rounds << "\n";
    out << "support_k " << s.support_k << "\n";
    out << "support_n " << s.support_n << "\n";
    out << "source_index " << s.source_index << "\n";
    out << "target_index " << s.target_index << "\n";
    if (!s.checkpoint.empty()) out << "checkpoint " << s.checkpoint << "\n";
  }
}

bool parse_manifest(std::istream& in, CampaignManifest& manifest) {
  CampaignManifest staged;  // all-or-nothing: commit only on a clean parse
  staged.checkpoint_dir.clear();
  SessionSpec* current = nullptr;
  std::string line;
  while (std::getline(in, line)) {
    // Strip trailing CR (manifests may travel through CRLF editors).
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    const auto space = line.find(' ');
    const std::string key = line.substr(0, space);
    const std::string value =
        space == std::string::npos ? std::string() : line.substr(space + 1);
    if (key == "session") {
      if (value.empty()) return false;
      staged.sessions.emplace_back();
      current = &staged.sessions.back();
      current->client_id = value;
      continue;
    }
    const bool ok = current == nullptr ? apply_global(staged, key, value)
                                       : apply_session(*current, key, value);
    if (!ok) return false;
  }
  manifest = std::move(staged);
  return true;
}

bool save_manifest(const CampaignManifest& manifest, const std::string& path) {
  return models::io::atomic_write(
      path, [&](std::ostream& out) { write_manifest(out, manifest); });
}

bool load_manifest(CampaignManifest& manifest, const std::string& path) {
  std::ifstream in(path);
  if (!in) return false;
  return parse_manifest(in, manifest);
}

}  // namespace duo::campaign
