// End-to-end detection benchmark driver.
//
// Loads the trained ADTD checkpoint of one dataset profile, stages freshly
// generated tables in the simulated cloud database (paper network model:
// CostModel at time_scale 0.2, a 1 ms query round trip), and drives them in
// a closed loop through the public serving entry points: one client thread
// keeps one batch in flight through pipeline::PipelineExecutor::RunBatch
// (in-process workloads) or serve::Router::RunBatch (the replica fleet).
// Every table is new to the long-lived detector, so P1 never finds its own
// latents in the cache and P2 always does.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --models DIR [--record FILE]
//   perfbench_driver --prepare --models DIR
//
// --trace 0 measures the end-to-end metrics. Their timings are CPU time of
// every serving process (the driver and, on the fleet, its replicas): on a
// shared virtual host the hypervisor steals 10-28% of each CPU for minutes
// at a time, which halves wall-clock throughput, while the kernel leaves
// stolen time out of CPU time (CONFIG_PARAVIRT_TIME_ACCOUNTING). Wall-clock
// throughput and latency go to the record. --trace 1 measures the
// per-layer metrics: it alternates untraced and traced windows (the ratio
// is the tracing overhead), then replays a sample of the traced tables
// through the detector's four stage functions and the leaf calls each stage
// makes, with spans recorded around every call. The last stdout line is the
// result object; --record writes the full record (host fingerprint, per-run
// details and, when tracing, the spans) as JSON.
//
// --prepare loads the checkpoints every workload needs from DIR and trains
// into DIR any that is missing or does not load. Timed runs never train:
// a checkpoint that does not load fails the run.

#include <signal.h>
#include <sys/utsname.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "clouddb/database.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "core/result_json.h"
#include "core/taste_detector.h"
#include "data/table_generator.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "model/adtd.h"
#include "model/input_encoding.h"
#include "nn/serialize.h"
#include "obs/json_writer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "pipeline/scheduler.h"
#include "serve/router.h"
#include "stats.h"

namespace taste::perfbench {
namespace {

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// One workload: a table profile plus the serving shape it is driven with.
/// The in-process workloads share the pipeline options (prep_threads 2,
/// infer_threads 2); the fleet runs 4 replicas of 1 infer thread.
struct Workload {
  const char* name;
  bool git;              // GitLike tables and model (else WikiLike)
  int min_columns;
  int max_columns;
  int batch_tables;      // tables per RunBatch call
  int replicas;          // 0 = in-process PipelineExecutor
  size_t quality_tables; // f1/scanned_col_frac are taken over the first N
  size_t digest_tables;  // of which the first N are checked byte for byte
  double max_tables_per_s;  // sizes the staged pool (ends the window early
                            // rather than re-serving a table)
};

// wiki_batch: ~94% of columns stay uncertain after P1, so scans, the P2
//   content tower and GEMMs do most of the work.
// git_batch: P1 decides ~57% of columns, so metadata fetch and the P1 tower
//   carry a larger share; a P2-only change should move it little. Its f1 and
//   scanned share vary twice as much across seeds as WikiLike's, so they are
//   taken over 2048 tables.
// wide_batch: 6-16 columns make each P2 content forward ~7x a narrow
//   table's, so the P2 tower and serving_scheduler dominate. At ~65 tables/s
//   an 8 s window holds ~130 batches of 4, whose p90 spread 9% across seeds;
//   1024 quality tables stretch it to ~256 batches.
// fleet_batch: wiki_batch tables through the replica tier (wire, scatter/
//   gather, ring placement), the only workload that runs serve/.
const Workload kWorkloads[] = {
    {"wiki_batch", false, 2, 8, 8, 0, 1024, 256, 700.0},
    {"git_batch", true, 2, 8, 8, 0, 2048, 256, 1000.0},
    {"wide_batch", false, 6, 16, 4, 0, 1024, 128, 260.0},
    {"fleet_batch", false, 2, 8, 16, 4, 1024, 256, 900.0},
};

constexpr int kPrepThreads = 2;
constexpr int kInferThreads = 2;
constexpr int kFleetInferThreads = 1;
constexpr double kTimeScale = 0.2;   // 5 ms modeled RTT -> 1 ms slept
constexpr int kSetupRepeats = 3;     // setup_s is the median of these
constexpr size_t kWarmupTables = 128;
// A timed window runs at least this many batches, so p90 has 10 beyond it.
constexpr size_t kMinBatches = 100;
// Latent-cache entries each detector keeps. A closed loop of fresh tables
// needs only its in-flight tables cached (P2 reads what P1 of the same batch
// stored). The default (4096) lets RSS climb by ~1.7 MB per table served
// until the cache fills, because every cached tensor pins the buffer pool of
// the batch that produced it; a bounded cache keeps the run's memory steady.
constexpr size_t kCacheCapacity = 32;
constexpr size_t kSoloTables = 64;   // tables replayed stage by stage
constexpr double kMinF1 = 0.4;       // a loaded, trained model clears this

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Model set-up
// ---------------------------------------------------------------------------

/// The stack options every bench and the CLI share, so the committed
/// checkpoints of .taste_model_cache apply (GitLike trains longer).
eval::StackOptions ProfileStackOptions(bool git, const std::string& models) {
  eval::StackOptions o;
  o.num_tables = 240;
  o.vocab_size = 700;
  o.pretrain_epochs = 1;
  o.finetune_epochs = git ? 28 : 12;
  o.train_adtd_hist = false;
  o.train_baselines = false;
  o.cache_dir = models;
  o.seed = 1234;
  return o;
}

data::DatasetProfile TrainingProfile(bool git) {
  return git ? data::DatasetProfile::GitLike()
             : data::DatasetProfile::WikiLike();
}

/// Prefix of eval's checkpoint cache key (its private kStackCacheVersion).
/// A commit that bumps the version leaves no committed checkpoint under this
/// prefix, and --prepare then fails naming it.
constexpr char kCheckpointPrefix[] = "cv2_";
constexpr char kCommittedModels[] = ".taste_model_cache";

/// The checkpoint file eval::BuildStack reads and writes for the default
/// ADTD model of `profile` (mirrors its cache key).
std::string CheckpointPath(const data::DatasetProfile& profile,
                           const eval::StackOptions& o) {
  return StrFormat("%s/%s%s_n%d_v%d_p%d_f%d_lr%g_s%llu_adtd.ckpt",
                   o.cache_dir.c_str(), kCheckpointPrefix,
                   profile.name.c_str(), o.num_tables, o.vocab_size,
                   o.pretrain_epochs, o.finetune_epochs,
                   static_cast<double>(o.finetune_lr),
                   static_cast<unsigned long long>(o.seed));
}

struct LoadedModel {
  std::unique_ptr<text::WordPieceTokenizer> tokenizer;
  std::unique_ptr<model::AdtdModel> model;
};

/// The load path: trains the tokenizer (eval::BuildStack with every model
/// turned off) and loads the checkpoint. Never trains a model.
Result<LoadedModel> LoadModel(bool git, const std::string& models) {
  eval::StackOptions o = ProfileStackOptions(git, models);
  o.train_adtd = false;
  const data::DatasetProfile profile = TrainingProfile(git);
  TASTE_ASSIGN_OR_RETURN(eval::TrainedStack stack,
                         eval::BuildStack(profile, o));
  model::AdtdConfig cfg = model::AdtdConfig::Tiny(
      stack.tokenizer->vocab().size(),
      data::SemanticTypeRegistry::Default().size());
  Rng rng(o.seed);
  auto m = std::make_unique<model::AdtdModel>(cfg, rng);
  const std::string path = CheckpointPath(profile, o);
  nn::QuantScalesMap scales;
  if (Status st = nn::LoadCheckpoint(m.get(), path, &scales); !st.ok()) {
    return Status::NotFound(
        "checkpoint " + path + " does not load (" + st.ToString() +
        "); run `python3 perfbench/run.py --prepare`");
  }
  m->PrepackQuantWeights();
  if (!scales.empty()) TASTE_RETURN_IF_ERROR(m->VerifyQuantScales(scales));
  return LoadedModel{std::move(stack.tokenizer), std::move(m)};
}

/// Copies each committed checkpoint (read only) over its copy in `models`,
/// so a fixed or retrained commit is always the one measured. A copy that
/// does not load is removed and trained again into `models`.
int Prepare(const std::string& models) {
  std::filesystem::create_directories(models);
  for (const bool git : {false, true}) {
    const eval::StackOptions o = ProfileStackOptions(git, models);
    eval::StackOptions committed = o;
    committed.cache_dir = kCommittedModels;
    const data::DatasetProfile profile = TrainingProfile(git);
    const std::string source = CheckpointPath(profile, committed);
    const std::string target = CheckpointPath(profile, o);
    if (!std::filesystem::is_regular_file(source)) {
      std::fprintf(stderr,
                   "prepare: no committed checkpoint %s; the benchmark reads "
                   "eval's cache key with prefix %s, update kCheckpointPrefix "
                   "if the key changed\n",
                   source.c_str(), kCheckpointPrefix);
      return 1;
    }
    Stopwatch sw;
    std::filesystem::copy_file(
        source, target, std::filesystem::copy_options::overwrite_existing);
    if (auto loaded = LoadModel(git, models); !loaded.ok()) {
      std::fprintf(stderr, "prepare: %s; training it into %s\n",
                   loaded.status().ToString().c_str(), models.c_str());
      std::filesystem::remove(target);
      // Finds no checkpoint in `models`, so trains and saves one there.
      if (auto stack = eval::BuildStack(profile, o); !stack.ok()) {
        std::fprintf(stderr, "prepare failed: %s\n",
                     stack.status().ToString().c_str());
        return 1;
      }
      if (auto retrained = LoadModel(git, models); !retrained.ok()) {
        std::fprintf(stderr,
                     "prepare: %s (the benchmark expects eval's cache key "
                     "with prefix %s)\n",
                     retrained.status().ToString().c_str(), kCheckpointPrefix);
        return 1;
      }
    }
    std::fprintf(stderr, "prepare: %s model ready in %.1f s\n",
                 profile.name.c_str(), sw.ElapsedSeconds());
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Generated tables of one run: the warm-up set and the timed pool, named so
/// that no table repeats (a repeat would let P1 reuse its own latents).
struct Inputs {
  std::vector<data::TableSpec> warmup;
  std::vector<data::TableSpec> pool;
  std::unordered_map<std::string, const data::TableSpec*> by_name;
};

std::vector<data::TableSpec> GenerateTables(const data::DatasetProfile& p,
                                            uint64_t seed, size_t n,
                                            const char* tag) {
  data::TableGenerator gen(p, data::SemanticTypeRegistry::Default());
  Rng rng(seed);
  std::vector<data::TableSpec> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Rng table_rng = rng.Fork(static_cast<uint64_t>(i) + 1);
    out.push_back(gen.GenerateTable(table_rng));
    out.back().name += StrFormat("_%s%06zu", tag, i);
  }
  return out;
}

Inputs MakeInputs(const Workload& w, uint64_t seed, size_t pool_tables) {
  data::DatasetProfile p = TrainingProfile(w.git);
  p.min_columns = w.min_columns;
  p.max_columns = w.max_columns;
  Inputs in;
  in.warmup = GenerateTables(p, seed ^ 0x77a4e5ULL, kWarmupTables, "w");
  in.pool = GenerateTables(p, seed, pool_tables, "t");
  for (const auto* set : {&in.warmup, &in.pool}) {
    for (const auto& t : *set) in.by_name[t.name] = &t;
  }
  return in;
}

// ---------------------------------------------------------------------------
// Serving stack (everything setup_s times)
// ---------------------------------------------------------------------------

core::TasteOptions DetectorOptions() {
  core::TasteOptions o;
  o.cache_capacity = kCacheCapacity;
  return o;
}

pipeline::PipelineOptions ServingOptions(const Workload& w) {
  pipeline::PipelineOptions o;
  o.prep_threads = kPrepThreads;
  o.infer_threads = w.replicas > 0 ? kFleetInferThreads : kInferThreads;
  return o;
}

struct Serving {
  LoadedModel model;
  std::unique_ptr<clouddb::SimulatedDatabase> db;
  std::unique_ptr<core::TasteDetector> detector;
  std::unique_ptr<pipeline::PipelineExecutor> executor;  // in-process
  std::unique_ptr<serve::Router> router;                 // fleet
};

Result<std::unique_ptr<Serving>> SetUp(const Workload& w, const Inputs& in,
                                       const std::string& models) {
  auto s = std::make_unique<Serving>();
  TASTE_ASSIGN_OR_RETURN(s->model, LoadModel(w.git, models));
  clouddb::CostModel cost;
  cost.time_scale = kTimeScale;
  s->db = std::make_unique<clouddb::SimulatedDatabase>(cost);
  for (const auto* set : {&in.warmup, &in.pool}) {
    for (const auto& t : *set) TASTE_RETURN_IF_ERROR(s->db->CreateTable(t));
  }
  s->db->ledger().Reset();
  s->detector = std::make_unique<core::TasteDetector>(
      s->model.model.get(), s->model.tokenizer.get(), DetectorOptions());
  if (w.replicas > 0) {
    serve::WorkerEnv env;
    env.detector = s->detector.get();
    env.db = s->db.get();
    env.pipeline_options = ServingOptions(w);
    serve::RouterOptions ropt;
    ropt.supervisor.replicas = w.replicas;
    s->router = std::make_unique<serve::Router>(env, ropt);
    TASTE_RETURN_IF_ERROR(s->router->Start());
  } else {
    s->executor = std::make_unique<pipeline::PipelineExecutor>(
        s->detector.get(), s->db.get(), ServingOptions(w));
  }
  return s;
}

pipeline::BatchResult RunBatch(Serving& s,
                               const std::vector<std::string>& tables) {
  return s.router != nullptr ? s.router->RunBatch(tables)
                             : s.executor->RunBatch(tables);
}

/// The processes that serve: this one (pid 0) and each live replica.
std::vector<pid_t> ServingPids(Serving& s, int replicas) {
  std::vector<pid_t> pids = {0};
  if (s.router != nullptr) {
    for (int id = 0; id < replicas; ++id) {
      const serve::Replica* r = s.router->supervisor().replica(id);
      if (r != nullptr && r->pid > 0) pids.push_back(r->pid);
    }
  }
  return pids;
}

/// CPU seconds the processes have run, summed over all their threads.
double CpuSeconds(const std::vector<pid_t>& pids) {
  double sum = 0.0;
  for (const pid_t pid : pids) {
    clockid_t clock = CLOCK_PROCESS_CPUTIME_ID;
    timespec ts{};
    if ((pid == 0 || clock_getcpuclockid(pid, &clock) == 0) &&
        clock_gettime(clock, &ts) == 0) {
      sum += static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
    }
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Closed-loop windows
// ---------------------------------------------------------------------------

/// Hands out table names in order; a name is never handed out twice.
class Cursor {
 public:
  explicit Cursor(const std::vector<data::TableSpec>& tables)
      : tables_(tables) {}
  bool Take(size_t n, std::vector<std::string>* out) {
    if (next_ + n > tables_.size()) return false;
    out->clear();
    for (size_t i = 0; i < n; ++i) out->push_back(tables_[next_++].name);
    return true;
  }

 private:
  const std::vector<data::TableSpec>& tables_;
  size_t next_ = 0;
};

/// CPU seconds the hypervisor gave to other guests, summed over all CPUs
/// (the steal column of /proc/stat); 0 where the host does not report it.
double StealSeconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  stat >> cpu;
  for (double& f : fields) stat >> f;
  return stat && cpu == "cpu" ? fields[7] / sysconf(_SC_CLK_TCK) : 0.0;
}

struct Window {
  std::vector<double> batch_ms;      // wall
  std::vector<double> batch_cpu_ms;  // CPU of all serving processes
  int64_t tables = 0;
  int64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal_frac = 0.0;  // stolen CPU time / (CPUs x wall time)
  int inflight_max = 0;
  int64_t p2_chunk_lookups = 0;  // chunks whose columns went to P2
  bool pool_exhausted = false;
  std::vector<std::string> failures;  // first few, for the log
  double tables_per_s() const { return wall_s > 0 ? tables / wall_s : 0.0; }
};

struct WindowGoal {
  double seconds = 0.0;
  size_t min_tables = 0;
  size_t min_batches = 0;
};

/// A table is served correctly when it completes and its result covers
/// every column of the generated table.
bool TableOk(const pipeline::TableRunResult& t, const data::TableSpec& truth) {
  const core::TableDetectionResult& r = t.result;
  return t.status.ok() && t.outcome == pipeline::TableOutcome::kComplete &&
         r.table_name == truth.name &&
         r.total_columns == static_cast<int>(truth.columns.size()) &&
         r.columns.size() == truth.columns.size() &&
         r.columns_scanned <= r.total_columns;
}

/// Runs batches back to back until the goal is met or the pool runs out.
/// The first `keep_limit` results land in `kept`, in order.
Window RunWindow(Serving& s, const Workload& w, const Inputs& in,
                 Cursor& cursor, const WindowGoal& goal,
                 std::vector<core::TableDetectionResult>* kept,
                 size_t keep_limit) {
  Window win;
  const int split = s.model.model->config().input.column_split_threshold;
  std::vector<std::string> names;
  const std::vector<pid_t> pids = ServingPids(s, w.replicas);
  const double steal_before_s = StealSeconds();
  const double cpu_before_s = CpuSeconds(pids);
  Stopwatch sw;
  while (true) {
    const double elapsed = sw.ElapsedSeconds();
    const bool goal_met =
        elapsed >= goal.seconds &&
        static_cast<size_t>(win.tables) >= goal.min_tables &&
        win.batch_ms.size() >= goal.min_batches;
    if (goal_met || elapsed >= std::max(4 * goal.seconds, 10.0)) break;
    if (!cursor.Take(static_cast<size_t>(w.batch_tables), &names)) {
      win.pool_exhausted = true;
      break;
    }
    const double batch_cpu_s = CpuSeconds(pids);
    Stopwatch batch_sw;
    pipeline::BatchResult batch = RunBatch(s, names);
    win.batch_ms.push_back(batch_sw.ElapsedMillis());
    win.batch_cpu_ms.push_back(1e3 * (CpuSeconds(pids) - batch_cpu_s));
    if (s.executor != nullptr) {
      win.inflight_max = std::max(
          win.inflight_max, s.executor->stats().max_tables_in_flight);
    }
    for (size_t i = 0; i < batch.tables.size(); ++i) {
      auto& t = batch.tables[i];
      ++win.tables;
      if (!TableOk(t, *in.by_name.at(names[i]))) {
        ++win.failed;
        if (win.failures.size() < 5) {
          win.failures.push_back(names[i] + ": " +
                                 pipeline::TableOutcomeName(t.outcome) + " " +
                                 t.status.ToString());
        }
      }
      int last_chunk = -1;
      for (size_t c = 0; c < t.result.columns.size(); ++c) {
        const int chunk = static_cast<int>(c) / split;
        if (t.result.columns[c].went_to_p2 && chunk != last_chunk) {
          ++win.p2_chunk_lookups;
          last_chunk = chunk;
        }
      }
      if (kept != nullptr && kept->size() < keep_limit) {
        kept->push_back(std::move(t.result));
      }
    }
  }
  win.wall_s = sw.ElapsedSeconds();
  win.cpu_s = CpuSeconds(pids) - cpu_before_s;
  const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  win.steal_frac = (StealSeconds() - steal_before_s) / (cpus * win.wall_s);
  return win;
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

std::string Digest(const std::vector<core::TableDetectionResult>& results) {
  core::JsonOptions jo;
  jo.include_probabilities = true;
  jo.pretty = false;
  return StrFormat("%016" PRIx64,
                   Fnv1a(core::ResultsToJson(
                       results, data::SemanticTypeRegistry::Default(), jo)));
}

/// The same tables detected in this process by the sequential executor, on
/// a fresh detector and an instant database: the byte-identity oracle every
/// serving path (pipelined, scheduled, replicated) must match.
Result<std::string> ReferenceDigest(
    const LoadedModel& m, const Inputs& in,
    const std::vector<core::TableDetectionResult>& served) {
  clouddb::CostModel instant;
  instant.time_scale = 0.0;
  clouddb::SimulatedDatabase db(instant);
  std::vector<std::string> names;
  for (const auto& r : served) {
    TASTE_RETURN_IF_ERROR(db.CreateTable(*in.by_name.at(r.table_name)));
    names.push_back(r.table_name);
  }
  core::TasteDetector detector(m.model.get(), m.tokenizer.get(),
                               DetectorOptions());
  pipeline::PipelineOptions o;
  o.pipelined = false;
  pipeline::PipelineExecutor exec(&detector, &db, o);
  pipeline::BatchResult batch = exec.RunBatch(names);
  std::vector<core::TableDetectionResult> results;
  for (auto& t : batch.tables) {
    if (!t.status.ok()) return t.status;
    results.push_back(std::move(t.result));
  }
  return Digest(results);
}

struct Quality {
  double f1 = 0.0;
  double scanned_col_frac = 0.0;
};

Quality Score(const Inputs& in,
              const std::vector<core::TableDetectionResult>& results) {
  eval::MetricsAccumulator acc(
      data::SemanticTypeRegistry::Default().null_type_id());
  int64_t scanned = 0, total = 0;
  for (const auto& r : results) {
    acc.AddTable(*in.by_name.at(r.table_name), r);
    scanned += r.columns_scanned;
    total += r.total_columns;
  }
  return {acc.Compute().f1,
          total > 0 ? static_cast<double>(scanned) / total : 0.0};
}

// ---------------------------------------------------------------------------
// Host and process facts
// ---------------------------------------------------------------------------

struct Host {
  int hw_threads = 0;
  std::string cpu_model;
  std::string kernel;
};

Host Fingerprint() {
  Host h;
  h.hw_threads = static_cast<int>(std::thread::hardware_concurrency());
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      h.cpu_model = colon == std::string::npos ? line : line.substr(colon + 2);
      break;
    }
  }
  struct utsname u;
  if (uname(&u) == 0) {
    h.kernel = std::string(u.sysname) + " " + u.release + " " + u.machine;
  }
  return h;
}

/// Peak resident set of a process in MiB (VmHWM), 0 when unreadable.
double PeakRssMb(const std::string& pid) {
  std::ifstream status("/proc/" + pid + "/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// The driver's peak RSS plus that of every live replica.
double FleetPeakRssMb(Serving& s, int replicas) {
  double mb = 0.0;
  for (const pid_t pid : ServingPids(s, replicas)) {
    mb += PeakRssMb(pid == 0 ? "self" : std::to_string(pid));
  }
  return mb;
}

// ---------------------------------------------------------------------------
// Tracing (per-layer run)
// ---------------------------------------------------------------------------

/// Spans recorded by the benchmark around its calls into each layer, on the
/// obs::TraceNowMs() timebase so they line up with the program's own spans.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start_ms;
    double end_ms;
    int parent;  // index into spans(), -1 = root
    std::string table;
  };

  int Open(std::string name, int parent, std::string table = "") {
    spans_.push_back({std::move(name), obs::TraceNowMs(), 0.0, parent,
                      std::move(table)});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes span `id` and returns its duration in ms.
  double Close(int id) {
    Span& s = spans_[static_cast<size_t>(id)];
    s.end_ms = obs::TraceNowMs();
    return s.end_ms - s.start_ms;
  }
  /// Appends the program's own spans (pipeline, detector), keeping their
  /// parent links.
  void AddProgramSpans(const std::vector<obs::SpanRecord>& records) {
    std::unordered_map<uint64_t, int> by_seq;
    const int base = static_cast<int>(spans_.size());
    for (size_t i = 0; i < records.size(); ++i) {
      by_seq[records[i].seq] = base + static_cast<int>(i);
    }
    for (const auto& r : records) {
      auto it = by_seq.find(r.parent_seq);
      spans_.push_back({r.name, r.start_ms, r.start_ms + r.dur_ms,
                        it == by_seq.end() ? -1 : it->second, ""});
    }
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Per-table sums of the stage-by-stage replay.
struct Solo {
  int tables = 0;
  int p2_tables = 0;
  double stage_ms[4] = {0, 0, 0, 0};  // p1_prep, p1_infer, p2_prep, p2_infer
  double metadata_ms = 0, scan_ms = 0;
  double encode_meta_ms = 0, encode_content_ms = 0;
  double p1_forward_ms = 0, p2_forward_ms = 0;
  int64_t queries = 0, scanned_cells = 0;
  int64_t content_tokens = 0, p1_chunks = 0, p2_items = 0;
};

/// Replays each table through the four TasteDetector stage functions (on a
/// fresh detector, so P1 computes), then repeats the leaf calls each stage
/// makes — metadata fetch, encoding, forwards, scans — on the same inputs.
/// A stage's self time is its span minus its leaves.
Status ReplayStages(Serving& s, const std::vector<std::string>& tables,
                    SpanLog* log, Solo* out) {
  const model::AdtdModel& m = *s.model.model;
  core::TasteDetector detector(&m, s.model.tokenizer.get(),
                               DetectorOptions());
  const core::TasteOptions& topt = detector.options();
  model::InputEncoder encoder(s.model.tokenizer.get(), m.config().input);
  tensor::ExecContext ctx({.no_grad = true});
  auto conn = s.db->Connect();
  const clouddb::ScanOptions scan_options = {
      .limit_rows = topt.scan_rows,
      .random_sample = topt.random_sample,
      .sample_seed = topt.sample_seed};
  for (const std::string& name : tables) {
    const int root = log->Open("solo.table", -1, name);
    core::TasteDetector::Job job;
    const auto io_before = s.db->ledger().snapshot();
    auto stage = [&](int ix, const char* span, auto&& call) -> Status {
      const int id = log->Open(span, root, name);
      Status st = call();
      out->stage_ms[ix] += log->Close(id);
      return st;
    };
    TASTE_RETURN_IF_ERROR(stage(0, "core.p1_prep", [&] {
      return detector.PrepareP1(conn.get(), name, &job);
    }));
    TASTE_RETURN_IF_ERROR(stage(1, "core.p1_infer", [&] {
      return detector.InferP1(&job, &ctx);
    }));
    if (job.needs_p2) {
      ++out->p2_tables;
      TASTE_RETURN_IF_ERROR(stage(2, "core.p2_prep", [&] {
        return detector.PrepareP2(conn.get(), &job);
      }));
      TASTE_RETURN_IF_ERROR(stage(3, "core.p2_infer", [&] {
        return detector.InferP2(&job, &ctx);
      }));
    }
    const auto io_after = s.db->ledger().snapshot();
    out->queries += io_after.queries - io_before.queries;
    out->scanned_cells += io_after.scanned_cells - io_before.scanned_cells;

    // Leaves, on the same inputs the stages just consumed.
    int id = log->Open("clouddb.metadata", root, name);
    TASTE_ASSIGN_OR_RETURN(clouddb::TableMetadata meta,
                           conn->GetTableMetadata(name));
    out->metadata_ms += log->Close(id);
    const auto split = model::SplitWideTable(
        meta, m.config().input.column_split_threshold);
    if (split.size() != job.chunks.size()) {
      return Status::Internal("replay split differs for " + name);
    }
    out->p1_chunks += static_cast<int64_t>(split.size());
    for (size_t i = 0; i < split.size(); ++i) {
      id = log->Open("encode.meta", root, name);
      model::EncodedMetadata enc = encoder.EncodeMetadata(split[i]);
      out->encode_meta_ms += log->Close(id);
      if (enc.token_ids != job.chunks[i].token_ids) {
        return Status::Internal("replay encoding differs for " + name);
      }
      id = log->Open("adtd.p1_forward", root, name);
      model::AdtdModel::MetadataEncoding latents = m.ForwardMetadata(enc, &ctx);
      out->p1_forward_ms += log->Close(id);
      if (!job.needs_p2 || job.uncertain_columns[i].empty()) continue;

      const std::vector<int>& uncertain = job.uncertain_columns[i];
      std::vector<std::string> cols;
      for (int c : uncertain) {
        cols.push_back(enc.column_names[static_cast<size_t>(c)]);
      }
      id = log->Open("clouddb.scan", root, name);
      TASTE_ASSIGN_OR_RETURN(auto values,
                             conn->ScanColumns(name, cols, scan_options));
      out->scan_ms += log->Close(id);
      for (const model::EncodedContent& content : job.contents[i]) {
        std::map<int, std::vector<std::string>> by_column;
        for (int c : content.scanned) {
          const size_t k = static_cast<size_t>(
              std::find(uncertain.begin(), uncertain.end(), c) -
              uncertain.begin());
          by_column[c] = values[k];
        }
        id = log->Open("encode.content", root, name);
        model::EncodedContent replayed = encoder.EncodeContent(enc, by_column);
        out->encode_content_ms += log->Close(id);
        out->content_tokens += static_cast<int64_t>(replayed.token_ids.size());
        ++out->p2_items;
        id = log->Open("adtd.p2_forward", root, name);
        m.ForwardContent(replayed, enc, latents, &ctx);
        out->p2_forward_ms += log->Close(id);
      }
    }
    log->Close(root);
    ++out->tables;
  }
  return Status::OK();
}

/// Registry state of wherever the detection ran: this process, or the
/// replicas scraped over the wire (summed, plus per-replica series).
Result<obs::Registry::Snapshot> Observe(Serving& s) {
  if (s.router != nullptr) return s.router->Scrape();
  return obs::Registry::Global().snapshot();
}

int64_t CounterDelta(const obs::Registry::Snapshot& a,
                     const obs::Registry::Snapshot& b,
                     const std::string& name) {
  auto get = [&name](const obs::Registry::Snapshot& s) -> int64_t {
    auto it = s.counters.find(name);
    return it == s.counters.end() ? 0 : it->second;
  };
  return get(b) - get(a);
}

obs::Histogram::Snapshot HistogramDelta(const obs::Registry::Snapshot& a,
                                        const obs::Registry::Snapshot& b,
                                        const std::string& name) {
  obs::Histogram::Snapshot d;
  auto ib = b.histograms.find(name);
  if (ib == b.histograms.end()) return d;
  d = ib->second;
  auto ia = a.histograms.find(name);
  if (ia != a.histograms.end() && ia->second.counts.size() == d.counts.size()) {
    for (size_t i = 0; i < d.counts.size(); ++i) {
      d.counts[i] -= ia->second.counts[i];
    }
    d.count -= ia->second.count;
    d.sum -= ia->second.sum;
  }
  return d;
}

/// Accumulates registry deltas over the traced windows.
struct Deltas {
  std::map<std::string, int64_t> counters;
  std::map<std::string, obs::Histogram::Snapshot> histograms;
  std::map<std::string, double> gauges;  // value at the end of the last window

  void Add(const obs::Registry::Snapshot& a, const obs::Registry::Snapshot& b) {
    for (const auto& [name, v] : b.counters) {
      counters[name] += CounterDelta(a, b, name);
    }
    for (const auto& [name, h] : b.histograms) {
      obs::Histogram::Snapshot d = HistogramDelta(a, b, name);
      auto& acc = histograms[name];
      if (acc.counts.empty()) {
        acc = d;
      } else if (acc.counts.size() == d.counts.size()) {
        for (size_t i = 0; i < d.counts.size(); ++i) {
          acc.counts[i] += d.counts[i];
        }
        acc.count += d.count;
        acc.sum += d.sum;
      }
    }
    gauges = b.gauges;
  }
  int64_t counter(const std::string& name) const {
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
  obs::Histogram::Snapshot histogram(const std::string& name) const {
    auto it = histograms.find(name);
    return it == histograms.end() ? obs::Histogram::Snapshot{} : it->second;
  }
  double gauge(const std::string& name) const {
    auto it = gauges.find(name);
    return it == gauges.end() ? 0.0 : it->second;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Upper bound of the bucket holding the median observation. The registry's
/// interpolating Quantile reads 0.5 when every observation is 1.
double BucketMedian(const obs::Histogram::Snapshot& h) {
  int64_t cumulative = 0;
  for (size_t i = 0; i < h.counts.size() && i < h.bounds.size(); ++i) {
    cumulative += h.counts[i];
    if (2 * cumulative >= h.count) return h.bounds[i];
  }
  return h.bounds.empty() || h.count == 0 ? 0.0 : h.bounds.back();
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> problems;
  void Fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

std::string ResultLine(const Outcome& o, const std::vector<Metric>& metrics) {
  std::string s = StrFormat(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": {",
      o.correct ? "true" : "false", static_cast<long long>(o.attempted),
      static_cast<long long>(o.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    s += StrFormat("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                   i == 0 ? "" : ", ", metrics[i].name.c_str(),
                   metrics[i].value, metrics[i].unit);
  }
  return s + "}}";
}

void WriteHost(obs::JsonWriter& j, const Host& h) {
  j.BeginObject("host");
  j.Field("hw_threads", h.hw_threads);
  j.Field("cpu_model", h.cpu_model);
  j.Field("kernel", h.kernel);
  j.EndObject();
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string models;
  std::string record;
  bool prepare = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--prepare") {
      a->prepare = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a->workload = v;
    } else if (arg == "--seed") {
      a->seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return false;
    } else if (arg == "--seconds") {
      a->seconds = std::strtod(v, &end);
      if (*end != '\0' || !(a->seconds > 0.0)) return false;
    } else if (arg == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) return false;
      a->trace = v[0] - '0';
    } else if (arg == "--models") {
      a->models = v;
    } else if (arg == "--record") {
      a->record = v;
    } else {
      return false;
    }
  }
  if (a->models.empty()) return false;
  return a->prepare || (!a->workload.empty() && a->trace >= 0);
}

int Run(const Args& args) {
  const Workload* w = FindWorkload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const Host host = Fingerprint();
  const size_t min_pool =
      std::max(w->quality_tables, kMinBatches * w->batch_tables) +
      kMinBatches * w->batch_tables / 10;
  const size_t pool_tables = std::max(
      min_pool, static_cast<size_t>(args.seconds * w->max_tables_per_s));
  Stopwatch phase;
  auto log_phase = [&phase](const char* what) {
    std::fprintf(stderr, "perfbench: %s %.2f s, peak rss %.0f MiB\n", what,
                 phase.ElapsedSeconds(), PeakRssMb("self"));
    phase.Restart();
  };
  const Inputs in = MakeInputs(*w, args.seed, pool_tables);
  log_phase("inputs");

  // Set up several times; keep the last stack, report the median. The
  // replicas are new processes, so their CPU clocks count from the fork.
  std::vector<double> setup_s, setup_cpu_s;
  std::unique_ptr<Serving> s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    s.reset();
    const double cpu_before_s = CpuSeconds({0});
    Stopwatch sw;
    auto built = SetUp(*w, in, args.models);
    if (!built.ok()) {
      std::fprintf(stderr, "setup failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    s = std::move(*built);
    setup_s.push_back(sw.ElapsedSeconds());
    setup_cpu_s.push_back(CpuSeconds(ServingPids(*s, w->replicas)) -
                          cpu_before_s);
  }
  log_phase("setup");

  Outcome outcome;
  auto account = [&outcome](const Window& win, const char* what) {
    outcome.attempted += win.tables;
    outcome.failed += win.failed;
    for (const auto& f : win.failures) {
      outcome.Fail(StrFormat("%s: %s", what, f.c_str()));
    }
  };

  // Untimed warm-up on tables the timed windows never see.
  {
    Cursor warm(in.warmup);
    Window win = RunWindow(*s, *w, in, warm, WindowGoal{0, kWarmupTables, 0},
                           nullptr, 0);
    if (win.failed > 0) outcome.Fail("warm-up: " + win.failures.front());
  }
  log_phase("warm-up");

  std::vector<core::TableDetectionResult> kept;
  std::vector<Metric> metrics;
  obs::JsonWriter rec;
  rec.BeginObject();
  WriteHost(rec, host);
  rec.Field("workload", std::string(w->name));
  rec.Field("seed", static_cast<int64_t>(args.seed));
  rec.Field("seconds", args.seconds);
  rec.Field("trace", args.trace);
  rec.BeginArray("setup_wall_s");
  for (double v : setup_s) rec.Element(v);
  rec.EndArray();
  rec.BeginArray("setup_cpu_s");
  for (double v : setup_cpu_s) rec.Element(v);
  rec.EndArray();

  if (args.trace == 0) {
    Cursor cursor(in.pool);
    const Window win =
        RunWindow(*s, *w, in, cursor,
                  WindowGoal{args.seconds, w->quality_tables, kMinBatches},
                  &kept, w->quality_tables);
    account(win, "window");
    const double peak_rss = FleetPeakRssMb(*s, w->replicas);
    const auto p50 = Percentile(win.batch_cpu_ms, 0.50);
    const auto p90 = Percentile(win.batch_cpu_ms, 0.90);
    if (!p50 || !p90) {
      outcome.Fail(StrFormat("%zu batches cannot support p90",
                             win.batch_cpu_ms.size()));
    }
    if (kept.size() < w->quality_tables) {
      outcome.Fail(StrFormat("only %zu of %zu quality tables served",
                             kept.size(), w->quality_tables));
    }
    const Quality q = Score(in, kept);
    metrics = {
        {"cpu_ms_per_table", 1e3 * Ratio(win.cpu_s, win.tables), "ms"},
        {"batch_cpu_ms_p50", p50.value_or(0.0), "ms"},
        {"batch_cpu_ms_p90", p90.value_or(0.0), "ms"},
        {"scanned_col_frac", q.scanned_col_frac, "frac"},
        {"f1", q.f1, "f1"},
        {"setup_s", Median(setup_cpu_s), "s"},
        {"peak_rss_mb", peak_rss, "MiB"},
    };
    if (q.f1 < kMinF1) {
      outcome.Fail(StrFormat("f1 %.4f below %.2f", q.f1, kMinF1));
    }
    rec.Field("steal_frac", win.steal_frac);
    rec.Field("tables_per_s", win.tables_per_s());
    rec.Field("batch_ms_p50", Percentile(win.batch_ms, 0.50).value_or(0.0));
    rec.Field("batch_ms_p90", Percentile(win.batch_ms, 0.90).value_or(0.0));
    rec.Field("batches", static_cast<int64_t>(win.batch_ms.size()));
    rec.Field("window_s", win.wall_s);
    rec.Field("pool_exhausted", win.pool_exhausted);
  } else {
    // Untraced and traced windows alternate, so drift hits both alike.
    Cursor cursor(in.pool);
    const WindowGoal goal{args.seconds / 4, 0, 0};
    std::vector<double> untraced_cpu_ms;  // per table, per window
    int64_t traced_tables = 0, p2_lookups = 0;
    double traced_cpu_s = 0.0, traced_batch_ms = 0.0;
    int inflight_max = 0;
    Deltas deltas;
    serve::RouterStats router_before, router_after;
    if (s->router != nullptr) router_before = s->router->stats();
    SpanLog log;
    std::vector<std::string> traced_names;
    for (int rep = 0; rep < 2; ++rep) {
      Window u = RunWindow(*s, *w, in, cursor, goal,
                           rep == 0 ? &kept : nullptr, w->digest_tables);
      account(u, "untraced window");
      untraced_cpu_ms.push_back(1e3 * Ratio(u.cpu_s, u.tables));

      auto before = Observe(*s);
      if (!before.ok()) {
        std::fprintf(stderr, "scrape failed: %s\n",
                     before.status().ToString().c_str());
        return 1;
      }
      std::vector<core::TableDetectionResult> traced;
      obs::SetTracingEnabled(true);
      const int span = log.Open("bench.traced_window", -1);
      Window t = RunWindow(*s, *w, in, cursor, goal, &traced, kSoloTables);
      log.Close(span);
      obs::SetTracingEnabled(false);
      auto after = Observe(*s);
      if (!after.ok()) {
        std::fprintf(stderr, "scrape failed: %s\n",
                     after.status().ToString().c_str());
        return 1;
      }
      account(t, "traced window");
      deltas.Add(*before, *after);
      traced_tables += t.tables;
      traced_cpu_s += t.cpu_s;
      p2_lookups += t.p2_chunk_lookups;
      inflight_max = std::max(inflight_max, t.inflight_max);
      for (double ms : t.batch_ms) traced_batch_ms += ms;
      if (rep == 0) {
        for (const auto& r : traced) traced_names.push_back(r.table_name);
      }
    }
    if (s->router != nullptr) router_after = s->router->stats();
    log.AddProgramSpans(obs::DrainSpans());

    Solo solo;
    if (Status st = ReplayStages(*s, traced_names, &log, &solo); !st.ok()) {
      outcome.Fail("stage replay: " + st.ToString());
    }
    const double n = std::max(1, solo.tables);
    const double tn = static_cast<double>(std::max<int64_t>(1, traced_tables));
    const char* stages[4] = {"p1_prep", "p1_infer", "p2_prep", "p2_infer"};
    double stage_busy_ms = 0.0;
    std::vector<Metric> pipeline_stage;
    for (const char* st : stages) {
      const double sum = deltas
                             .histogram(obs::LabeledName(
                                 "taste_pipeline_stage_ms", "stage", st))
                             .sum;
      stage_busy_ms += sum;
      pipeline_stage.push_back(
          {std::string("pipeline.stage_ms.") + st, sum / tn, "ms"});
    }

    double serve_skew = 0.0, serve_overhead = 0.0;
    double redispatch = 0.0, hedged = 0.0, fallback = 0.0;
    if (s->router != nullptr) {
      const double dispatched = static_cast<double>(
          router_after.dispatched_tables - router_before.dispatched_tables);
      redispatch = Ratio(router_after.redispatched_tables -
                             router_before.redispatched_tables,
                         dispatched);
      hedged = Ratio(router_after.hedged_tables - router_before.hedged_tables,
                     dispatched);
      fallback = Ratio(router_after.local_fallback_tables -
                           router_before.local_fallback_tables,
                       dispatched);
      double max_tables = 0.0, sum_tables = 0.0, slowest_ms = 0.0;
      for (int r = 0; r < w->replicas; ++r) {
        const std::string id = std::to_string(r);
        const double tables = static_cast<double>(deltas.counter(
            obs::LabeledName("taste_worker_tables_total", "replica", id)));
        max_tables = std::max(max_tables, tables);
        sum_tables += tables;
        slowest_ms = std::max(
            slowest_ms,
            deltas
                .histogram(obs::LabeledName("taste_pipeline_batch_ms",
                                            "replica", id))
                .sum);
      }
      serve_skew = Ratio(max_tables, sum_tables / w->replicas);
      serve_overhead = 1.0 - Ratio(slowest_ms, traced_batch_ms);
    }

    const obs::Histogram::Snapshot sched_sizes =
        deltas.histogram("taste_p2_batch_size");
    const double gemm_calls = static_cast<double>(deltas.counter(
        obs::LabeledName("taste_op_calls_total", "op", "gemm")));
    metrics = {
        {"clouddb.metadata_ms", solo.metadata_ms / n, "ms"},
        {"clouddb.scan_ms", solo.scan_ms / n, "ms"},
        {"clouddb.queries_per_table", solo.queries / n, "count"},
        {"clouddb.scanned_cells_per_table", solo.scanned_cells / n, "count"},
        {"encode.meta_ms", solo.encode_meta_ms / n, "ms"},
        {"encode.content_ms", solo.encode_content_ms / n, "ms"},
        {"encode.content_tokens_per_table", solo.content_tokens / n, "count"},
        {"adtd.p1_forward_ms", solo.p1_forward_ms / n, "ms"},
        {"adtd.p2_forward_ms", solo.p2_forward_ms / n, "ms"},
        {"adtd.p1_chunks_per_table", solo.p1_chunks / n, "count"},
        {"adtd.p2_items_per_table", solo.p2_items / n, "count"},
        {"cache.p2_hit_ratio",
         Ratio(deltas.counter("taste_cache_hits_total"), p2_lookups), "frac"},
        {"cache.bytes", deltas.gauge("taste_cache_bytes"), "bytes"},
        {"tensor.gemm_calls_per_table", gemm_calls / tn, "count"},
        {"tensor.pool_reuse_ratio",
         Ratio(deltas.counter("taste_pool_reuses_total"),
               deltas.counter("taste_pool_acquires_total")),
         "frac"},
        {"core.p1_prep_ms",
         (solo.stage_ms[0] - solo.metadata_ms - solo.encode_meta_ms) / n, "ms"},
        {"core.p1_infer_ms", (solo.stage_ms[1] - solo.p1_forward_ms) / n, "ms"},
        {"core.p2_prep_ms",
         (solo.stage_ms[2] - solo.scan_ms - solo.encode_content_ms) / n, "ms"},
        {"core.p2_infer_ms", (solo.stage_ms[3] - solo.p2_forward_ms) / n, "ms"},
        {"core.p2_table_frac", solo.p2_tables / n, "frac"},
    };
    metrics.insert(metrics.end(), pipeline_stage.begin(), pipeline_stage.end());
    std::vector<Metric> tail = {
        {"pipeline.overlap", Ratio(stage_busy_ms, traced_batch_ms), "ratio"},
        {"pipeline.inflight_max", static_cast<double>(inflight_max), "count"},
        {"sched.batch_size_p50", BucketMedian(sched_sizes), "count"},
        {"sched.expired",
         static_cast<double>(deltas.counter("taste_p2_batch_expired_total")),
         "count"},
        {"serve.redispatch_frac", redispatch, "frac"},
        {"serve.hedged_frac", hedged, "frac"},
        {"serve.local_fallback_frac", fallback, "frac"},
        {"serve.replica_skew", serve_skew, "ratio"},
        {"serve.router_overhead_frac", serve_overhead, "frac"},
        {"trace_overhead_frac",
         1.0 - Ratio(Median(untraced_cpu_ms), 1e3 * traced_cpu_s / tn),
         "frac"},
    };
    metrics.insert(metrics.end(), tail.begin(), tail.end());

    rec.Field("traced_tables", traced_tables);
    rec.Field("solo_tables", static_cast<int64_t>(solo.tables));
    // Layers a workload does not run report 0.
    rec.BeginArray("layers_not_run");
    if (s->router == nullptr) {
      rec.Element(std::string("serve"));
    } else {
      rec.Element(std::string("pipeline.inflight_max"));
    }
    rec.EndArray();
    rec.BeginArray("spans");
    for (const auto& sp : log.spans()) {
      rec.BeginObject();
      rec.Field("name", sp.name);
      rec.Field("start_ms", sp.start_ms);
      rec.Field("end_ms", sp.end_ms);
      rec.Field("parent", sp.parent);
      rec.Field("table", sp.table);
      rec.EndObject();
    }
    rec.EndArray();
  }

  log_phase("windows");
  // Byte identity: the served results equal the sequential in-process run.
  kept.resize(std::min(kept.size(), w->digest_tables));
  auto ref = ReferenceDigest(s->model, in, kept);
  const std::string served = Digest(kept);
  if (!ref.ok()) {
    outcome.Fail("reference run: " + ref.status().ToString());
  } else if (*ref != served) {
    outcome.Fail("served digest " + served + " != in-process digest " + *ref);
  }
  rec.Field("digest_tables", static_cast<int64_t>(kept.size()));
  rec.Field("digest", served);
  log_phase("reference");
  s.reset();

  rec.BeginObject("metrics");
  for (const Metric& m : metrics) rec.Field(m.name.c_str(), m.value);
  rec.EndObject();
  rec.Field("correct", outcome.correct);
  rec.BeginArray("problems");
  for (const auto& p : outcome.problems) rec.Element(p);
  rec.EndArray();
  rec.EndObject();
  if (!args.record.empty() && !rec.WriteFile(args.record)) {
    std::fprintf(stderr, "cannot write %s\n", args.record.c_str());
    return 1;
  }
  for (const auto& p : outcome.problems) {
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  }
  std::printf("host: %d hw threads, %s, %s\n", host.hw_threads,
              host.cpu_model.c_str(), host.kernel.c_str());
  std::printf("%s\n", ResultLine(outcome, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace taste::perfbench

int main(int argc, char** argv) {
  using namespace taste;
  // A replica can die between the router's poll and its write; the failed
  // write must surface as a Status, not kill the driver.
  ::signal(SIGPIPE, SIG_IGN);
  SetLogLevel(LogLevel::kWarn);
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench_driver --models DIR (--prepare | "
                 "--workload NAME --seed N --seconds S --trace 0|1 "
                 "[--record FILE])\n");
    return 2;
  }
  if (args.prepare) return perfbench::Prepare(args.models);
  return perfbench::Run(args);
}
