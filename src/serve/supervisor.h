// Replica process supervision for the multi-process serving tier
// (DESIGN.md §10, §13).
//
// The Supervisor owns N replica worker processes, each fork()ed from the
// current image (so the built model/detector/database are shared
// copy-on-write — see serve/worker.h) and connected over a Unix-domain
// socketpair. It provides the crash- and gray-fault machinery the router
// composes:
//
//   * crash detection — SIGCHLD via a self-pipe (async-signal-safe: the
//     handler writes one byte; waitpid(WNOHANG) reaping happens on the
//     router thread) AND socket EOF/POLLHUP, whichever fires first;
//   * respawn with capped deterministic backoff — RespawnDelayMs(deaths,
//     replica_id) drives the delay (5 ms after the first death, doubling
//     to a 250 ms cap), so respawn schedules replay exactly in tests; a
//     replica past max_respawns is parked permanently instead of
//     crash-looping;
//   * heartbeat liveness — the router sends probes to IDLE replicas at
//     heartbeat_interval_ms; heartbeat_miss_limit consecutive unanswered
//     probes has the replica SIGKILLed and respawned (a wedged-but-alive
//     process looks exactly like a crash);
//   * wedged-replica watchdog — CondemnWedged() escalates SIGTERM →
//     (20 ms grace) → SIGKILL for a replica whose in-flight leg
//     is overdue while its process is still alive (the SIGSTOP /
//     stuck-syscall gray failure: no SIGCHLD thanks to SA_NOCLDSTOP, no
//     EOF, possibly live heartbeats). SIGKILL works on stopped processes,
//     so escalation always terminates.
//
// The Supervisor never blocks beyond the bounded watchdog grace: every
// other method returns immediately and the router's poll loop drives
// timers through NextTimerMillis().

#ifndef TASTE_SERVE_SUPERVISOR_H_
#define TASTE_SERVE_SUPERVISOR_H_

#include <sys/types.h>

#include <chrono>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/wire.h"
#include "serve/worker.h"

namespace taste::serve {

/// Delay before respawning replica `replica_id` after its `deaths`-th death
/// (deaths >= 1): 5 ms, doubling per death up to 250 ms, scaled by a
/// jitter factor in [0.8, 1.2) hashed from (replica id, deaths). Pure, so
/// respawn schedules replay exactly, yet replicas that die together do not
/// respawn in lockstep.
double RespawnDelayMs(int deaths, int replica_id);

struct SupervisorOptions {
  int replicas = 2;
  /// Deaths after which a replica is parked for good (no more respawns);
  /// re-dispatch then routes around it permanently.
  int max_respawns = 64;
  /// Liveness probing of idle replicas.
  double heartbeat_interval_ms = 200.0;
  int heartbeat_miss_limit = 3;
};

enum class ReplicaState {
  kUp,      // process alive, socket open, admitted by the ring
  kDead,    // exited/killed; respawn scheduled at respawn_at
  kParked,  // exceeded max_respawns; permanently out of the ring
};

/// One replica worker process as the supervisor sees it.
struct Replica {
  int id = -1;
  pid_t pid = -1;
  int fd = -1;  // parent end of the socketpair (blocking; read via poll)
  ReplicaState state = ReplicaState::kDead;
  int deaths = 0;     // lifetime crash count (drives the backoff schedule)
  int respawns = 0;   // successful respawns
  std::chrono::steady_clock::time_point respawn_at{};
  std::chrono::steady_clock::time_point died_at{};
  // Heartbeat accounting (maintained with the router's idle/busy signal).
  uint64_t hb_seq = 0;          // last probe sequence sent
  uint64_t hb_acked = 0;        // last sequence acknowledged
  int hb_misses = 0;            // consecutive unanswered probes
  std::chrono::steady_clock::time_point hb_sent_at{};
  bool hb_outstanding = false;
  /// Router-side incremental frame reassembly for this socket.
  FrameBuffer frames;
};

class Supervisor {
 public:
  /// `env` is captured by value; crash_replica/crash_table are threaded to
  /// each fork. The pointers inside must outlive the supervisor.
  Supervisor(WorkerEnv env, SupervisorOptions options);
  ~Supervisor();

  Supervisor(const Supervisor&) = delete;
  Supervisor& operator=(const Supervisor&) = delete;

  /// Forks every replica. Fails if any fork/socketpair fails (already
  /// spawned replicas are torn down).
  Status Start();

  /// SIGKILLs every worker, reaps, closes sockets.
  void Shutdown();

  // -- Poll-loop integration -------------------------------------------------

  /// Read end of the SIGCHLD self-pipe; include in every poll set.
  int sigchld_fd() const;

  /// Drains the SIGCHLD pipe and reaps every exited child of this
  /// supervisor (waitpid WNOHANG per replica). Newly dead replicas get a
  /// respawn scheduled per the backoff policy. Returns the ids that died
  /// since the last call. Also safe to call on EOF detection — a replica
  /// whose socket died but whose pid lingers is killed first.
  std::vector<int> ReapDead();

  /// Marks a replica dead right now (socket EOF, heartbeat verdict),
  /// SIGKILLing the process if it still runs. Idempotent.
  void MarkDead(int id);

  /// Wedged-replica watchdog verdict: the replica holds overdue in-flight
  /// work but its process is alive (no SIGCHLD, no EOF — the SIGSTOP /
  /// livelock gray failure). Escalates SIGTERM → bounded grace → SIGKILL,
  /// then routes through MarkDead for accounting and respawn scheduling.
  void CondemnWedged(int id);

  /// Respawns every dead replica whose backoff has elapsed. Returns the
  /// ids brought back up.
  std::vector<int> RespawnEligible();

  /// Milliseconds until the earliest pending respawn or (when
  /// `idle_heartbeats`) next heartbeat action; < 0 when no timer pending.
  double NextTimerMillis(bool idle_heartbeats) const;

  // -- Heartbeats (idle replicas only; the router says which are idle) -------

  /// Sends a probe to every kUp replica in `idle_ids` whose interval
  /// elapsed; counts a miss when the previous probe is still unanswered.
  /// A replica reaching heartbeat_miss_limit is killed and marked dead
  /// (returned so the router can re-dispatch / log).
  std::vector<int> ProbeIdle(const std::vector<int>& idle_ids);

  /// Records a heartbeat ack for `id` (payload = echoed sequence).
  void HandleHeartbeatAck(int id, const std::string& payload);

  /// True when the router's ring predicate may dispatch to `id`: state is
  /// kUp.
  bool Dispatchable(int id) const;

  // -- Introspection ---------------------------------------------------------

  int configured_replicas() const { return static_cast<int>(replicas_.size()); }
  Replica* replica(int id);
  const Replica* replica(int id) const;
  int alive_count() const;
  int64_t total_deaths() const;
  int64_t total_respawns() const;
  int64_t watchdog_kills() const { return watchdog_kills_; }
  /// Wall-clock death->back-up recovery times observed so far (ms).
  const std::vector<double>& recovery_times_ms() const { return recovery_ms_; }

 private:
  Status Spawn(Replica* r);

  WorkerEnv env_;
  SupervisorOptions options_;
  std::vector<Replica> replicas_;
  std::vector<double> recovery_ms_;
  int64_t watchdog_kills_ = 0;
  bool started_ = false;
};

}  // namespace taste::serve

#endif  // TASTE_SERVE_SUPERVISOR_H_
