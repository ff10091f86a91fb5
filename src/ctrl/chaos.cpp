#include "ctrl/chaos.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <tuple>

#include "corral/fingerprint.h"
#include "util/check.h"
#include "util/rng.h"

namespace corral {
namespace {

constexpr std::string_view kFaultNames[kChaosFaultKinds] = {
    "spike", "nan", "overrun", "corrupt", "loss", "stale", "exec", "crash"};

bool parse_number(const std::string& text, double* out) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

std::string_view to_string(ChaosFault fault) {
  const int index = static_cast<int>(fault);
  ensure(index >= 0 && index < kChaosFaultKinds, "to_string: bad ChaosFault");
  return kFaultNames[index];
}

ChaosFault parse_chaos_fault(std::string_view text) {
  for (int i = 0; i < kChaosFaultKinds; ++i) {
    if (text == kFaultNames[i]) return static_cast<ChaosFault>(i);
  }
  require(false, "unknown chaos fault '" + std::string(text) +
                     "' (expected spike | nan | overrun | corrupt | loss | "
                     "stale | exec | crash)");
  return ChaosFault::kPredictorSpike;  // unreachable
}

bool ChaosSpec::empty() const {
  if (!explicit_events.empty()) return false;
  for (double rate : rates) {
    if (rate > 0) return false;
  }
  return true;
}

std::uint64_t ChaosSpec::fingerprint() const {
  Fingerprint f;
  f.mix(static_cast<std::uint64_t>(explicit_events.size()));
  for (const ChaosEvent& event : explicit_events) {
    f.mix(static_cast<std::uint64_t>(event.epoch));
    f.mix(static_cast<std::uint64_t>(static_cast<int>(event.fault)));
  }
  for (double rate : rates) f.mix(rate);
  f.mix(spike_factor);
  f.mix(abort_fraction);
  return f.value();
}

void ChaosSpec::validate() const {
  for (int i = 0; i < kChaosFaultKinds; ++i) {
    require(std::isfinite(rates[i]) && rates[i] >= 0 && rates[i] <= 1,
            "ChaosSpec: rate for '" + std::string(kFaultNames[i]) +
                "' must be in [0, 1]");
  }
  require(std::isfinite(spike_factor) && spike_factor > 1,
          "ChaosSpec: spike_factor must be > 1");
  require(std::isfinite(abort_fraction) && abort_fraction > 0 &&
              abort_fraction <= 1,
          "ChaosSpec: abort_fraction must be in (0, 1]");
  for (const ChaosEvent& event : explicit_events) {
    require(event.epoch >= 0, "ChaosSpec: event epoch must be >= 0");
  }
}

ChaosSpec parse_chaos_spec(const std::string& text) {
  ChaosSpec spec;
  std::size_t start = 0;
  while (start <= text.size()) {
    std::size_t comma = text.find(',', start);
    if (comma == std::string::npos) comma = text.size();
    const std::string token = text.substr(start, comma - start);
    start = comma + 1;
    if (token.empty()) continue;
    const std::size_t at = token.find('@');
    const std::size_t eq = token.find('=');
    if (at != std::string::npos) {
      const ChaosFault fault = parse_chaos_fault(token.substr(0, at));
      double epoch = 0;
      require(parse_number(token.substr(at + 1), &epoch) && epoch >= 0 &&
                  epoch == std::floor(epoch),
              "chaos spec: bad epoch in '" + token + "'");
      ChaosEvent event;
      event.epoch = static_cast<int>(epoch);
      event.fault = fault;
      spec.explicit_events.push_back(event);
    } else if (eq != std::string::npos) {
      const ChaosFault fault = parse_chaos_fault(token.substr(0, eq));
      double rate = 0;
      require(parse_number(token.substr(eq + 1), &rate),
              "chaos spec: bad rate in '" + token + "'");
      spec.rates[static_cast<int>(fault)] = rate;
    } else {
      require(false, "chaos spec: token '" + token +
                         "' is neither kind@epoch nor kind=rate");
    }
  }
  spec.validate();
  return spec;
}

ChaosSchedule::ChaosSchedule(const ChaosSpec& spec, int epochs, int pipelines,
                             std::uint64_t seed) {
  spec.validate();
  require(epochs > 0, "ChaosSchedule: epochs must be positive");
  require(pipelines > 0, "ChaosSchedule: pipelines must be positive");

  auto materialize = [&](int epoch, ChaosFault fault) {
    if (fault == ChaosFault::kCrash) {
      crash_epochs_.push_back(epoch);
      return;
    }
    // Target/magnitude derive from their own stream so adding one fault
    // kind never perturbs another kind's draws.
    Rng rng(substream(seed, static_cast<std::uint64_t>(
                                epoch * kChaosFaultKinds +
                                static_cast<int>(fault)) *
                                2 +
                                1));
    ChaosEvent event;
    event.epoch = epoch;
    event.fault = fault;
    event.target = rng.uniform_int(0, pipelines - 1);
    switch (fault) {
      case ChaosFault::kPredictorSpike:
        event.magnitude = spec.spike_factor;
        break;
      case ChaosFault::kExecFailure:
        event.magnitude = spec.abort_fraction;
        break;
      default:
        event.magnitude = 0;
        break;
    }
    events_.push_back(event);
  };

  for (int epoch = 0; epoch < epochs; ++epoch) {
    for (int kind = 0; kind < kChaosFaultKinds; ++kind) {
      const double rate = spec.rates[kind];
      if (rate <= 0) continue;
      Rng rng(substream(seed, static_cast<std::uint64_t>(
                                  epoch * kChaosFaultKinds + kind) *
                                  2));
      if (rng.chance(rate)) {
        materialize(epoch, static_cast<ChaosFault>(kind));
      }
    }
  }
  for (const ChaosEvent& event : spec.explicit_events) {
    if (event.epoch >= epochs) continue;  // spec reused across run lengths
    materialize(event.epoch, event.fault);
  }

  std::sort(events_.begin(), events_.end(),
            [](const ChaosEvent& a, const ChaosEvent& b) {
              return std::tie(a.epoch, a.fault, a.target) <
                     std::tie(b.epoch, b.fault, b.target);
            });
  std::sort(crash_epochs_.begin(), crash_epochs_.end());
}

std::vector<ChaosEvent> ChaosSchedule::for_epoch(int epoch) const {
  std::vector<ChaosEvent> out;
  for (const ChaosEvent& event : events_) {
    if (event.epoch == epoch) out.push_back(event);
  }
  return out;
}

bool ChaosSchedule::crash_after(int epoch) const {
  return std::binary_search(crash_epochs_.begin(), crash_epochs_.end(),
                            epoch);
}

}  // namespace corral
