#include "serve/router.h"

#include <errno.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>

#include "common/logging.h"
#include "common/rng.h"
#include "obs/aggregate.h"

namespace taste::serve {

namespace {

/// Poll granularity when no timer is pending.
constexpr double kPollSlackMs = 50.0;
/// How long Scrape() waits for the replicas' metric snapshots.
constexpr double kScrapeTimeoutMs = 1000.0;

obs::Counter* RedispatchCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("taste_redispatched_tables_total");
  return c;
}

obs::Counter* FallbackCounter() {
  static obs::Counter* c =
      obs::Registry::Global().GetCounter("taste_local_fallback_tables_total");
  return c;
}

int PollTimeoutMs(double ms) {
  if (ms < 1.0) return 1;
  if (ms > 60'000.0) return 60'000;
  return static_cast<int>(std::ceil(ms));
}

double AgeMs(std::chrono::steady_clock::time_point since,
             std::chrono::steady_clock::time_point now) {
  return std::chrono::duration<double, std::milli>(now - since).count();
}

}  // namespace

uint64_t HashTableName(const std::string& name) {
  // FNV-1a over the bytes, finished with a SplitMix64 round for avalanche.
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : name) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return SplitMix64(h);
}

ConsistentHashRing::ConsistentHashRing(int replicas, int vnodes)
    : replicas_(replicas) {
  TASTE_CHECK(replicas >= 1 && replicas <= 64);
  TASTE_CHECK(vnodes >= 1);
  points_.reserve(static_cast<size_t>(replicas) * vnodes);
  for (int node = 0; node < replicas; ++node) {
    for (int v = 0; v < vnodes; ++v) {
      // Each (node, vnode) pair is hashed independently: sequential
      // SplitMix64 streams seeded per node would overlap (stream n starts
      // one step into stream n-1), collapsing most vnodes onto one id.
      uint64_t s = (static_cast<uint64_t>(node) << 32) |
                   static_cast<uint64_t>(v);
      points_.push_back(Point{SplitMix64(s), node});
    }
  }
  std::sort(points_.begin(), points_.end(),
            [](const Point& a, const Point& b) {
              return a.hash != b.hash ? a.hash < b.hash : a.node < b.node;
            });
}

// ---------------------------------------------------------------------------

struct Router::Leg {
  uint64_t request_id = 0;
  int replica = -1;
  std::vector<size_t> indices;
  std::chrono::steady_clock::time_point sent_at{};
};

Router::Router(WorkerEnv env, RouterOptions options)
    : env_(std::move(env)),
      options_(options),
      supervisor_(env_, options_.supervisor),
      ring_(options_.supervisor.replicas, kRingVnodes) {
  TASTE_CHECK(options_.watchdog_ms_per_table > 0.0);
}

Router::~Router() { Shutdown(); }

Status Router::Start() {
  TASTE_CHECK(!started_);
  TASTE_RETURN_IF_ERROR(supervisor_.Start());
  started_ = true;
  return Status::OK();
}

void Router::Shutdown() {
  if (!started_) return;
  supervisor_.Shutdown();
  started_ = false;
}

bool Router::SendLeg(int replica_id, std::vector<size_t> indices,
                     const std::vector<std::string>& tables,
                     double remaining_ms, std::vector<Leg>* legs) {
  Replica* r = supervisor_.replica(replica_id);
  TASTE_CHECK(r != nullptr && r->state == ReplicaState::kUp);
  DetectRequest req;
  req.request_id = next_request_id_++;
  req.deadline_remaining_ms = remaining_ms;
  req.p2_dtype = static_cast<uint8_t>(env_.pipeline_options.p2_dtype);
  req.tables.reserve(indices.size());
  for (size_t i : indices) req.tables.push_back(tables[i]);
  const Status st =
      WriteFrame(r->fd, FrameType::kDetectRequest, EncodeDetectRequest(req));
  if (!st.ok()) {
    supervisor_.MarkDead(replica_id);
    return false;
  }
  Leg leg;
  leg.request_id = req.request_id;
  leg.replica = replica_id;
  leg.indices = std::move(indices);
  leg.sent_at = std::chrono::steady_clock::now();
  legs->push_back(std::move(leg));
  return true;
}

pipeline::BatchResult Router::RunBatch(const std::vector<std::string>& tables) {
  TASTE_CHECK(started_);
  const auto t0 = std::chrono::steady_clock::now();
  stats_.batches += 1;

  const double budget = env_.pipeline_options.deadline_ms;
  const Deadline dl =
      budget == 0.0 ? Deadline::Infinite() : Deadline::AfterMillis(budget);
  // Remaining budget as the wire encodes it: 0 = none, negative =
  // pre-expired (the RemainingMillis() clamp at 0 maps to -1).
  auto wire_remaining = [&dl]() -> double {
    if (dl.IsInfinite()) return 0.0;
    const double r = dl.RemainingMillis();
    return r > 0.0 ? r : -1.0;
  };

  const size_t n = tables.size();
  pipeline::BatchResult out;
  out.tables.resize(n);
  std::vector<bool> done(n, false);
  // Poison blacklist: replicas that died (or wedged) while serving table
  // i. Re-dispatch walks the ring past them, so a table that reliably kills
  // its owner cannot crash-loop the fleet; an exhausted ring sends it to
  // the local fallback executor instead.
  std::vector<std::set<int>> blacklist(n);
  std::vector<size_t> fallback;
  // Every unanswered table not bound for the fallback is in exactly one
  // leg: a leg is only ever replaced, on its replica's death.
  std::vector<Leg> legs;

  // The watchdog's verdict time for a leg: its per-table budget times its
  // table count.
  auto watchdog_ms = [&](const Leg& l) {
    return options_.watchdog_ms_per_table *
           static_cast<double>(l.indices.size());
  };

  auto acceptable = [&](size_t i, int id) {
    return supervisor_.Dispatchable(id) && blacklist[i].count(id) == 0;
  };

  // Places every index with its ring owner; indices with no acceptable
  // owner go to the local fallback list. A send failure marks the owner
  // dead and re-plans, so this always terminates: each round either sends,
  // loses a replica, or drains to fallback.
  auto dispatch = [&](std::vector<size_t> idxs, bool redispatch) {
    while (!idxs.empty()) {
      std::map<int, std::vector<size_t>> groups;
      for (size_t i : idxs) {
        const int owner =
            ring_.NodeFor(tables[i], [&](int id) { return acceptable(i, id); });
        if (owner < 0) {
          fallback.push_back(i);
        } else {
          groups[owner].push_back(i);
        }
      }
      idxs.clear();
      for (const auto& [id, group] : groups) {
        if (SendLeg(id, group, tables, wire_remaining(), &legs)) {
          const auto count = static_cast<int64_t>(group.size());
          if (redispatch) {
            stats_.redispatched_tables += count;
            RedispatchCounter()->Inc(count);
          } else {
            stats_.dispatched_tables += count;
          }
        } else {
          // The owner died on the write; re-plan these indices — the next
          // round routes around the now-dead replica.
          idxs.insert(idxs.end(), group.begin(), group.end());
        }
      }
    }
  };

  // A replica died: blacklist it for its in-flight tables and re-dispatch
  // them to survivors (idempotent — detection is a pure function of the
  // table and the shared forked model, so replayed work is byte-identical).
  auto handle_death = [&](int id) {
    stats_.replica_deaths += 1;
    std::vector<size_t> orphaned;
    for (auto it = legs.begin(); it != legs.end();) {
      if (it->replica == id) {
        orphaned.insert(orphaned.end(), it->indices.begin(),
                        it->indices.end());
        it = legs.erase(it);
      } else {
        ++it;
      }
    }
    for (size_t i : orphaned) blacklist[i].insert(id);
    if (!orphaned.empty()) dispatch(std::move(orphaned), /*redispatch=*/true);
  };

  // Drains complete frames buffered for a replica. Returns false on a
  // protocol error (the caller then treats the replica as dead).
  auto process_frames = [&](int id) -> bool {
    Replica* r = supervisor_.replica(id);
    for (;;) {
      Frame frame;
      auto next = r->frames.Next(&frame);
      if (!next.ok()) {
        TASTE_LOG(Warn) << "replica " << id
                        << ": corrupt stream: " << next.status().ToString();
        return false;
      }
      if (!*next) return true;
      switch (frame.type) {
        case FrameType::kHeartbeatAck:
          supervisor_.HandleHeartbeatAck(id, frame.payload);
          break;
        case FrameType::kDetectResponse: {
          auto resp = DecodeDetectResponse(frame.payload);
          if (!resp.ok()) {
            TASTE_LOG(Warn) << "replica " << id << ": bad response: "
                            << resp.status().ToString();
            return false;
          }
          auto leg = std::find_if(legs.begin(), legs.end(), [&](const Leg& l) {
            return l.replica == id && l.request_id == resp->request_id;
          });
          if (leg == legs.end()) break;  // stale: re-dispatched after a death
          if (resp->tables.size() != leg->indices.size()) {
            TASTE_LOG(Warn) << "replica " << id << ": response table count "
                            << resp->tables.size() << " != leg size "
                            << leg->indices.size();
            return false;
          }
          for (size_t k = 0; k < leg->indices.size(); ++k) {
            const size_t i = leg->indices[k];
            out.tables[i] = std::move(resp->tables[k]);
            done[i] = true;
          }
          stats_.resilience.Merge(resp->stats);
          legs.erase(leg);
          break;
        }
        default:
          break;  // scrape responses etc. outside a scrape are stale
      }
    }
  };

  dispatch([&] {
    std::vector<size_t> all(n);
    for (size_t i = 0; i < n; ++i) all[i] = i;
    return all;
  }(), /*redispatch=*/false);

  // Gather loop: wake on replica bytes, SIGCHLD, or the earliest timer
  // (respawn backoff / idle heartbeat / watchdog crossing / deadline).
  const double overdue_grace_ms = options_.supervisor.heartbeat_interval_ms *
                                  options_.supervisor.heartbeat_miss_limit;
  bool overdue_armed = false;
  std::chrono::steady_clock::time_point overdue_since;
  while (!legs.empty()) {
    std::vector<pollfd> pfds;
    std::vector<int> owner;  // pfds[i] -> replica id; -1 = sigchld pipe
    pfds.push_back(pollfd{supervisor_.sigchld_fd(), POLLIN, 0});
    owner.push_back(-1);
    for (int id = 0; id < supervisor_.configured_replicas(); ++id) {
      const Replica* r = supervisor_.replica(id);
      if (r->state == ReplicaState::kUp) {
        pfds.push_back(pollfd{r->fd, POLLIN, 0});
        owner.push_back(id);
      }
    }
    double wait = kPollSlackMs;
    const double timer = supervisor_.NextTimerMillis(/*idle_heartbeats=*/true);
    if (timer >= 0.0) wait = std::min(wait, timer);
    {
      const auto now = std::chrono::steady_clock::now();
      for (const Leg& l : legs) {
        wait = std::min(wait,
                        std::max(0.0, watchdog_ms(l) - AgeMs(l.sent_at, now)));
      }
    }
    if (!dl.IsInfinite()) {
      const double rem = dl.RemainingMillis();
      wait = std::min(wait, rem > 0.0 ? rem : overdue_grace_ms / 4.0);
    }
    ::poll(pfds.data(), pfds.size(), PollTimeoutMs(wait));

    if (pfds[0].revents & POLLIN) {
      for (int id : supervisor_.ReapDead()) handle_death(id);
    }
    for (size_t p = 1; p < pfds.size(); ++p) {
      if ((pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int id = owner[p];
      Replica* r = supervisor_.replica(id);
      if (r->state != ReplicaState::kUp) continue;  // died earlier this pass
      char buf[64 * 1024];
      const ssize_t got = ::read(r->fd, buf, sizeof(buf));
      if (got > 0) {
        r->frames.Append(buf, static_cast<size_t>(got));
        if (!process_frames(id)) {
          // Corrupt stream (CRC / framing fault) or protocol violation:
          // the replica's bytes can no longer be trusted. Drop it and
          // re-dispatch — a corrupted frame is never surfaced as a valid
          // result.
          supervisor_.MarkDead(id);
          handle_death(id);
        }
      } else if (got == 0 || (got < 0 && errno != EINTR && errno != EAGAIN)) {
        supervisor_.MarkDead(id);
        handle_death(id);
      }
    }

    supervisor_.RespawnEligible();

    // Watchdog: overdue in-flight work on a live process is the wedge
    // signature. Verdicts first, then actions (condemning mutates `legs`).
    {
      const auto now = std::chrono::steady_clock::now();
      std::vector<int> to_condemn;
      for (const Leg& l : legs) {
        if (AgeMs(l.sent_at, now) > watchdog_ms(l)) {
          to_condemn.push_back(l.replica);
        }
      }
      std::sort(to_condemn.begin(), to_condemn.end());
      to_condemn.erase(std::unique(to_condemn.begin(), to_condemn.end()),
                       to_condemn.end());
      for (int id : to_condemn) {
        supervisor_.CondemnWedged(id);
        handle_death(id);
      }
    }

    std::vector<int> idle;
    for (int id = 0; id < supervisor_.configured_replicas(); ++id) {
      const Replica* r = supervisor_.replica(id);
      if (r->state != ReplicaState::kUp) continue;
      const bool busy = std::any_of(legs.begin(), legs.end(), [&](const Leg& l) {
        return l.replica == id;
      });
      if (!busy) idle.push_back(id);
    }
    for (int id : supervisor_.ProbeIdle(idle)) handle_death(id);

    // A busy replica that stops making progress long past the deadline is
    // indistinguishable from a wedge (heartbeats only cover idle replicas);
    // kill and re-dispatch — the replay runs pre-expired and terminates
    // through the degrade path instead of hanging the batch.
    if (!dl.IsInfinite() && dl.RemainingMillis() <= 0.0 && !legs.empty()) {
      const auto now = std::chrono::steady_clock::now();
      if (!overdue_armed) {
        overdue_armed = true;
        overdue_since = now;
      } else if (std::chrono::duration<double, std::milli>(now - overdue_since)
                     .count() > overdue_grace_ms) {
        std::vector<int> holders;
        for (const Leg& l : legs) holders.push_back(l.replica);
        for (int id : holders) {
          supervisor_.MarkDead(id);
          handle_death(id);
        }
        overdue_since = now;
      }
    }
  }

  // Tables no replica could serve run locally, in input order, under the
  // remaining budget. Same detector, database, and options as the workers'
  // forked image, so with faults off this produces the same bytes; with the
  // budget gone it reuses the single-process degrade semantics
  // (metadata-only / kExpired).
  if (!fallback.empty()) {
    std::sort(fallback.begin(), fallback.end());
    std::vector<std::string> names;
    names.reserve(fallback.size());
    for (size_t i : fallback) names.push_back(tables[i]);
    pipeline::PipelineOptions popt = env_.pipeline_options;
    popt.deadline_ms = wire_remaining();
    popt.cancel = nullptr;
    pipeline::PipelineExecutor local(env_.detector, env_.db, popt);
    pipeline::BatchResult lb = local.RunBatch(names);
    for (size_t k = 0; k < fallback.size(); ++k) {
      out.tables[fallback[k]] = std::move(lb.tables[k]);
      done[fallback[k]] = true;
    }
    stats_.resilience.Merge(local.resilience_stats());
    stats_.local_fallback_tables += static_cast<int64_t>(fallback.size());
    FallbackCounter()->Inc(static_cast<int64_t>(fallback.size()));
  }

  for (size_t i = 0; i < n; ++i) TASTE_CHECK(done[i]);
  stats_.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
  return out;
}

bool Router::MaintainUntilAllUp(double budget_ms) {
  TASTE_CHECK(started_);
  const Deadline dl = Deadline::AfterMillis(budget_ms);
  for (;;) {
    supervisor_.ReapDead();
    supervisor_.RespawnEligible();
    bool all_up = true;
    for (int id = 0; id < supervisor_.configured_replicas(); ++id) {
      if (supervisor_.replica(id)->state == ReplicaState::kDead) {
        all_up = false;
        break;
      }
    }
    if (all_up) return true;
    if (dl.Expired()) return false;
    double wait = kPollSlackMs;
    const double timer = supervisor_.NextTimerMillis(/*idle_heartbeats=*/false);
    if (timer >= 0.0) wait = std::min(wait, timer);
    wait = std::min(wait, dl.RemainingMillis());
    pollfd p{supervisor_.sigchld_fd(), POLLIN, 0};
    ::poll(&p, 1, PollTimeoutMs(wait));
  }
}

Result<obs::Registry::Snapshot> Router::Scrape() {
  TASTE_CHECK(started_);
  std::vector<obs::LabeledSnapshot> parts;
  parts.push_back({"router", obs::Registry::Global().snapshot()});

  std::set<int> waiting;
  for (int id = 0; id < supervisor_.configured_replicas(); ++id) {
    Replica* r = supervisor_.replica(id);
    if (r->state != ReplicaState::kUp) continue;
    if (WriteFrame(r->fd, FrameType::kScrapeRequest, std::string()).ok()) {
      waiting.insert(id);
    } else {
      supervisor_.MarkDead(id);
    }
  }

  const Deadline dl = Deadline::AfterMillis(kScrapeTimeoutMs);
  while (!waiting.empty() && !dl.Expired()) {
    std::vector<pollfd> pfds;
    std::vector<int> owner;
    pfds.push_back(pollfd{supervisor_.sigchld_fd(), POLLIN, 0});
    owner.push_back(-1);
    for (int id : waiting) {
      pfds.push_back(pollfd{supervisor_.replica(id)->fd, POLLIN, 0});
      owner.push_back(id);
    }
    ::poll(pfds.data(), pfds.size(), PollTimeoutMs(dl.RemainingMillis()));
    if (pfds[0].revents & POLLIN) {
      for (int id : supervisor_.ReapDead()) waiting.erase(id);
    }
    for (size_t p = 1; p < pfds.size(); ++p) {
      if ((pfds[p].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const int id = owner[p];
      Replica* r = supervisor_.replica(id);
      if (r == nullptr || r->state != ReplicaState::kUp) {
        waiting.erase(id);
        continue;
      }
      char buf[64 * 1024];
      const ssize_t got = ::read(r->fd, buf, sizeof(buf));
      if (got <= 0) {
        if (got < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        supervisor_.MarkDead(id);
        waiting.erase(id);
        continue;
      }
      r->frames.Append(buf, static_cast<size_t>(got));
      for (;;) {
        Frame frame;
        auto next = r->frames.Next(&frame);
        if (!next.ok()) {
          supervisor_.MarkDead(id);
          waiting.erase(id);
          break;
        }
        if (!*next) break;
        if (frame.type == FrameType::kScrapeResponse) {
          auto snap = DecodeMetricsSnapshot(frame.payload);
          if (snap.ok()) {
            parts.push_back({std::to_string(id), std::move(*snap)});
          }
          waiting.erase(id);
        } else if (frame.type == FrameType::kHeartbeatAck) {
          supervisor_.HandleHeartbeatAck(id, frame.payload);
        }
      }
    }
  }
  return obs::AggregateSnapshots("replica", parts);
}

}  // namespace taste::serve
