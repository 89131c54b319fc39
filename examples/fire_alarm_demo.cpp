/// The paper's Section 2.5 motivating scenario as a runnable demo: a fire
/// alarm sampling its sensor every second while the verifier attests 1 GB
/// of prover memory — first atomically (SMART), then interruptibly.
///
/// Build & run:  ./build/examples/fire_alarm_demo
///
/// Either flag records the SMART-style atomic run in the flight recorder.
/// `--trace-out FILE` writes it as a Chrome trace_event JSON file; open it
/// in chrome://tracing or Perfetto to see the fire-alarm CPU segments
/// stall behind the nested attest.session > attest.measure span while the
/// building burns.  `--journal-out FILE` writes the same journal as NDJSON
/// and prints a short event transcript.

#include <cstdio>
#include <cstring>
#include <string>

#include "src/apps/scenario.hpp"
#include "src/obs/chrome_trace.hpp"
#include "src/obs/journal.hpp"
#include "src/obs/timeline.hpp"

using namespace rasc;

namespace {

void run(const char* label, attest::ExecutionMode mode, obs::EventJournal* journal) {
  apps::FireAlarmScenarioConfig config;
  config.modeled_memory_bytes = 1ull << 30;  // the paper's 1 GB prover
  config.mode = mode;
  config.fire_after_mp_start = 100 * sim::kMillisecond;
  config.journal = journal;

  const auto outcome = apps::run_fire_alarm_scenario(config);
  std::printf("--- %s ---\n", label);
  std::printf("  measurement duration : %s\n",
              sim::format_duration(outcome.measurement_duration).c_str());
  std::printf("  fire -> alarm latency: %s\n",
              sim::format_duration(outcome.alarm_latency).c_str());
  std::printf("  worst sensor jitter  : %s\n",
              sim::format_duration(outcome.max_sample_delay).c_str());
  std::printf("  deadline misses      : %zu\n", outcome.deadline_misses);
  std::printf("  attestation verdict  : %s\n\n",
              outcome.attestation_ok ? "TRUSTED" : "COMPROMISED");
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_out;
  std::string journal_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-out") == 0 && i + 1 < argc) {
      trace_out = argv[++i];
    } else if (std::strcmp(argv[i], "--journal-out") == 0 && i + 1 < argc) {
      journal_out = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--trace-out FILE] [--journal-out FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  std::printf("Fire alarm on an ODROID-class prover; 1 GB attested memory;\n");
  std::printf("the fire starts 100 ms after the measurement begins.\n\n");

  obs::EventJournal journal;
  const bool record = !trace_out.empty() || !journal_out.empty();
  run("SMART-style atomic MP (uninterruptible)", attest::ExecutionMode::kAtomic,
      record ? &journal : nullptr);
  run("Interruptible MP (block-granular preemption)",
      attest::ExecutionMode::kInterruptible, nullptr);

  if (!journal_out.empty()) {
    if (journal.write_ndjson(journal_out)) {
      std::printf("Flight-recorder journal of the atomic run written to %s\n",
                  journal_out.c_str());
      std::printf("%s\n", obs::render_journal_summary(journal).c_str());
    } else {
      std::fprintf(stderr, "failed to write journal to %s\n", journal_out.c_str());
      return 1;
    }
  }

  if (!trace_out.empty()) {
    if (obs::write_chrome_json(journal, trace_out)) {
      std::printf("Chrome trace of the atomic run written to %s\n", trace_out.c_str());
      std::printf("(load it in chrome://tracing or https://ui.perfetto.dev)\n\n");
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n", trace_out.c_str());
      return 1;
    }
  }

  std::printf("Atomic attestation keeps the device 'safe' from roving malware but\n");
  std::printf("leaves the building to burn for ~7 seconds; interruptible attestation\n");
  std::printf("keeps the alarm prompt but — without further measures — opens the\n");
  std::printf("door to the evasion games explored in the other examples.\n");
  return 0;
}
