#pragma once
/// \file runner.hpp
/// Full-stack SMARM experiment: a simulated device running shuffled,
/// interruptible measurements against live self-relocating malware that
/// physically copies itself through device memory.  Detection is decided
/// by the verifier comparing the report against the golden image — nothing
/// is asserted from ground truth.

#include <cstdint>
#include <memory>
#include <optional>

#include "src/attest/golden.hpp"
#include "src/attest/prover.hpp"
#include "src/attest/verifier.hpp"
#include "src/malware/relocating.hpp"
#include "src/obs/journal.hpp"
#include "src/obs/metrics.hpp"
#include "src/sim/device.hpp"

namespace rasc::smarm {

struct RunnerConfig {
  std::size_t blocks = 32;
  std::size_t block_size = 1024;
  std::size_t rounds = 5;
  crypto::HashKind hash = crypto::HashKind::kSha256;
  attest::TraversalOrder order = attest::TraversalOrder::kShuffledSecret;
  attest::ExecutionMode mode = attest::ExecutionMode::kInterruptible;
  malware::RelocationStrategy strategy = malware::RelocationStrategy::kRovingUniform;
  std::uint64_t seed = 1;  ///< varies malware randomness across trials
  /// Firmware provisioning seed; defaults to a per-trial value derived
  /// from `seed`.  Campaign cells pin it so every trial shares one golden
  /// image (prerequisite for a per-cell GoldenMeasurement).
  std::optional<std::uint64_t> provision_seed;
  /// Pre-digested golden image shared across trials of a cell.  Must match
  /// the provisioned firmware (same provision_seed / size / hash / key);
  /// when null the verifier digests its own golden from a device snapshot.
  std::shared_ptr<const attest::GoldenMeasurement> golden;
  /// Host-side digest cache for the prover's multi-round measurements.
  bool use_digest_cache = true;
  /// Optional observability (not owned): `journal` records the device
  /// timeline plus a "smarm.round" span per permutation round; `metrics`
  /// accumulates "smarm.rounds"/"smarm.detections" counters and a
  /// "smarm.round_duration_ms" histogram across runs, plus the verifier's
  /// "verifier.*" counts once each run ends.
  obs::EventJournal* journal = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

struct RunnerOutcome {
  std::size_t rounds_run = 0;
  std::size_t detections = 0;  ///< rounds whose report failed verification
  bool ever_detected = false;
  std::size_t malware_relocations = 0;
  std::size_t malware_blocked_relocations = 0;
};

/// Run `config.rounds` back-to-back measurements on a fresh device with
/// the malware resident throughout; returns per-round detection counts.
RunnerOutcome run_rounds(const RunnerConfig& config);

/// Monte-Carlo over full-stack trials: fraction of trials whose FIRST
/// round failed to detect the malware (single-round escape rate through
/// the real measurement/verifier pipeline).
double full_stack_single_round_escape(const RunnerConfig& base, std::size_t trials);

}  // namespace rasc::smarm
