// The replica worker: one process wrapping a PipelineExecutor behind the
// wire protocol (DESIGN.md §10).
//
// The supervisor fork()s workers *after* the model, tokenizer, database and
// detector are built, so every replica shares those pages copy-on-write:
// spawn (and therefore respawn after a crash) costs a fork, not a model
// load, and every replica computes with bit-identical weights — the
// foundation of the failover idempotency guarantee.
//
// The worker is single-threaded at the protocol layer: it reads one frame
// at a time and answers it before reading the next (inference itself may
// fan out across the executor's thread pools). Heartbeats are therefore
// answered only between requests — which is exactly what the router's
// liveness logic assumes: heartbeat timeouts are armed while a replica is
// idle, and a replica busy with a request is instead covered by SIGCHLD /
// socket-EOF crash detection plus the request deadline.

#ifndef TASTE_SERVE_WORKER_H_
#define TASTE_SERVE_WORKER_H_

#include <string>

#include "clouddb/database.h"
#include "core/taste_detector.h"
#include "pipeline/scheduler.h"

namespace taste::serve {

/// Everything a replica needs, borrowed from the forking process (all
/// pointers must outlive the worker; after fork they point into the
/// worker's copy-on-write image).
struct WorkerEnv {
  const core::TasteDetector* detector = nullptr;
  clouddb::SimulatedDatabase* db = nullptr;
  /// Per-request executors are built from these options; the request's
  /// deadline (re-anchored from the wire) overrides deadline_ms.
  pipeline::PipelineOptions pipeline_options;

  /// Deterministic crash injection for the chaos harness and tests: the
  /// replica whose id equals `crash_replica` calls _exit(kCrashExitCode)
  /// the moment a detect request containing `crash_table` arrives —
  /// a reproducible "worker dies mid-request" without wall-clock races.
  int crash_replica = -1;
  std::string crash_table;

  // -- Gray-failure injection (same trigger convention: replica id + table
  //    name, so the harness aims each fault at the ring owner) --------------

  /// SIGSTOP self-wedge: the matching replica raises SIGSTOP mid-request,
  /// before computing or responding. No SIGCHLD fires (SA_NOCLDSTOP), no
  /// EOF — the process just stops making progress while staying "alive";
  /// only the hedge/watchdog path can recover the batch.
  int wedge_replica = -1;
  std::string wedge_table;

  /// Response corruption: the matching replica computes normally but sends
  /// its response through WriteFrameCorrupted — one payload bit flipped
  /// AFTER the CRC was computed. The router must reject the frame (CRC),
  /// never surface it, and re-dispatch.
  int corrupt_replica = -1;
  std::string corrupt_table;

  /// Slow-drip partial writes: the matching replica sends its (valid)
  /// response in drip_chunk_bytes pieces with drip_delay_us pauses — a
  /// saturated NIC / tiny-window peer. The router's frame reassembly must
  /// absorb it; a drip slow enough to cross the straggler threshold is
  /// hedged.
  int drip_replica = -1;
  std::string drip_table;
  int drip_chunk_bytes = 3;
  int drip_delay_us = 200;
};

/// Exit code of an injected crash (distinguishable from clean exit 0).
inline constexpr int kCrashExitCode = 42;

/// Serves the wire protocol on `fd` until the peer closes or sends
/// kShutdown. Returns the process exit code. Ignores SIGPIPE process-wide
/// (a dead router surfaces as an EPIPE Status, not a killed worker).
int WorkerMain(int fd, const WorkerEnv& env, int replica_id);

}  // namespace taste::serve

#endif  // TASTE_SERVE_WORKER_H_
