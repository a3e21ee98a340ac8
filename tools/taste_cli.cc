// taste_cli — command-line front end for the TASTE library.
//
// Stages a synthetic tenant database, trains (or loads from
// .taste_model_cache) the ADTD model, runs two-phase detection, and prints
// results as a table or JSON.
//
// Usage:
//   taste_cli [options]
//     --profile wiki|git     dataset profile           (default: wiki)
//     --table NAME           detect one table only     (default: all test)
//     --alpha X --beta Y     uncertainty thresholds    (default: 0.1 0.9)
//     --no-p2                privacy mode: never scan content
//     --sample               random-sample scans instead of first-m rows
//     --json                 emit JSON instead of text
//     --list                 list the staged test tables and exit
//     --metrics-out FILE     write the unified metrics + trace-span JSON
//                            to FILE
//     --deadline-ms X        per-table latency budget (anchored at batch
//                            entry); expired tables degrade to metadata-only
//                            after P1 or park with kDeadlineExceeded
//     --max-inflight N       admission control: at most N tables in flight
//                            and N queued; the rest are shed (kUnavailable)
//     --replicas N           fork N supervised worker processes and route
//                            the batch through the multi-process serving
//                            tier (crash failover + respawn; DESIGN.md §10);
//                            output is byte-identical to single-process
//     --watchdog-ms-per-table X
//                            wedged-replica watchdog (DESIGN.md §13): a
//                            leg of n tables still unanswered after n*X ms
//                            condemns its replica (SIGTERM -> SIGKILL ->
//                            respawn) and re-dispatches the leg. Must be
//                            > 0 (default 500). Only meaningful with
//                            --replicas
//     --p2-dtype fp32|int8   numeric mode of the P2 content tower
//                            (DESIGN.md §12). int8 runs the encoder and
//                            content-classifier Linears through prepacked
//                            int8 SIMD kernels (2.1-2.2x on the P2
//                            forward, ~1% of end-to-end serving CPU);
//                            deterministic bytes per dtype, F1 delta vs
//                            fp32 bounded by the CI accuracy gate
//
// Exit codes: 0 = every table completed (possibly degraded), 1 = at least
// one table failed, 2 = bad usage, 3 = at least one table was shed by
// admission control (and none failed outright).

#include <signal.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/result_json.h"
#include "serve/router.h"
#include "core/taste_detector.h"
#include "obs/export.h"
#include "pipeline/scheduler.h"
#include "data/table_generator.h"
#include "common/logging.h"
#include "eval/experiment.h"

using namespace taste;

namespace {

struct CliOptions {
  std::string profile = "wiki";
  std::string table;
  double alpha = 0.1;
  double beta = 0.9;
  bool no_p2 = false;
  bool sample = false;
  bool json = false;
  bool list = false;
  std::string metrics_out;
  double deadline_ms = 0.0;
  int max_inflight = 0;
  int replicas = 0;
  double watchdog_ms_per_table = serve::RouterOptions{}.watchdog_ms_per_table;
  tensor::P2Dtype p2_dtype = tensor::P2Dtype::kFp32;
};

bool ParseArgs(int argc, char** argv, CliOptions* out) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto need_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--profile") {
      const char* v = need_value("--profile");
      if (v == nullptr) return false;
      out->profile = v;
    } else if (arg == "--table") {
      const char* v = need_value("--table");
      if (v == nullptr) return false;
      out->table = v;
    } else if (arg == "--alpha") {
      const char* v = need_value("--alpha");
      if (v == nullptr) return false;
      out->alpha = std::atof(v);
    } else if (arg == "--beta") {
      const char* v = need_value("--beta");
      if (v == nullptr) return false;
      out->beta = std::atof(v);
    } else if (arg == "--no-p2") {
      out->no_p2 = true;
    } else if (arg == "--sample") {
      out->sample = true;
    } else if (arg == "--json") {
      out->json = true;
    } else if (arg == "--list") {
      out->list = true;
    } else if (arg == "--metrics-out") {
      const char* v = need_value("--metrics-out");
      if (v == nullptr) return false;
      out->metrics_out = v;
    } else if (arg == "--deadline-ms") {
      const char* v = need_value("--deadline-ms");
      if (v == nullptr) return false;
      out->deadline_ms = std::atof(v);
    } else if (arg == "--max-inflight") {
      const char* v = need_value("--max-inflight");
      if (v == nullptr) return false;
      out->max_inflight = std::atoi(v);
      if (out->max_inflight <= 0) {
        std::fprintf(stderr, "--max-inflight must be > 0\n");
        return false;
      }
    } else if (arg == "--replicas") {
      const char* v = need_value("--replicas");
      if (v == nullptr) return false;
      out->replicas = std::atoi(v);
      if (out->replicas < 1 || out->replicas > 64) {
        std::fprintf(stderr, "--replicas must be in [1, 64]\n");
        return false;
      }
    } else if (arg == "--watchdog-ms-per-table") {
      const char* v = need_value("--watchdog-ms-per-table");
      if (v == nullptr) return false;
      out->watchdog_ms_per_table = std::atof(v);
      if (!(out->watchdog_ms_per_table > 0)) {
        std::fprintf(stderr, "--watchdog-ms-per-table must be > 0\n");
        return false;
      }
    } else if (arg == "--p2-dtype") {
      const char* v = need_value("--p2-dtype");
      if (v == nullptr) return false;
      if (std::strcmp(v, "fp32") == 0) {
        out->p2_dtype = tensor::P2Dtype::kFp32;
      } else if (std::strcmp(v, "int8") == 0) {
        out->p2_dtype = tensor::P2Dtype::kInt8;
      } else {
        std::fprintf(stderr, "--p2-dtype must be fp32 or int8\n");
        return false;
      }
    } else if (arg == "--help" || arg == "-h") {
      return false;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    }
  }
  if (out->profile != "wiki" && out->profile != "git") {
    std::fprintf(stderr, "--profile must be wiki or git\n");
    return false;
  }
  if (!(out->alpha >= 0 && out->alpha <= out->beta && out->beta <= 1)) {
    std::fprintf(stderr, "need 0 <= alpha <= beta <= 1\n");
    return false;
  }
  return true;
}

void PrintUsage() {
  std::fprintf(
      stderr,
      "taste_cli [--profile wiki|git] [--table NAME] [--alpha X] [--beta Y]\n"
      "          [--no-p2] [--sample] [--json] [--list]\n"
      "          [--metrics-out FILE] [--deadline-ms X] [--max-inflight N]\n"
      "          [--replicas N] [--watchdog-ms-per-table X]\n"
      "          [--p2-dtype fp32|int8]\n");
}

void PrintText(const core::TableDetectionResult& r,
               const data::SemanticTypeRegistry& registry) {
  std::printf("\n%s  (scanned %d/%d columns)\n", r.table_name.c_str(),
              r.columns_scanned, r.total_columns);
  for (const auto& col : r.columns) {
    std::string types;
    for (int t : col.admitted_types) {
      if (!types.empty()) types += ",";
      types += registry.info(t).name;
    }
    if (types.empty()) types = "(none)";
    std::printf("  %-24s %-32s %s\n", col.column_name.c_str(), types.c_str(),
                col.went_to_p2 ? "[P2]" : "[P1]");
  }
}

}  // namespace

int main(int argc, char** argv) {
  // With --replicas a worker can die between our poll and our write; the
  // failed write must surface as a Status, not kill the router.
  ::signal(SIGPIPE, SIG_IGN);
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) {
    PrintUsage();
    return 2;
  }
  SetLogLevel(LogLevel::kWarn);

  eval::StackOptions options;
  options.num_tables = 240;
  options.pretrain_epochs = 1;
  // Budgets match the benches' stacks so their cached checkpoints load.
  options.finetune_epochs = cli.profile == "git" ? 28 : 12;
  options.train_adtd_hist = false;
  options.train_baselines = false;
  data::DatasetProfile profile = cli.profile == "git"
                                     ? data::DatasetProfile::GitLike()
                                     : data::DatasetProfile::WikiLike();
  auto stack = eval::BuildStack(profile, options);
  if (!stack.ok()) {
    std::fprintf(stderr, "model setup failed: %s\n",
                 stack.status().ToString().c_str());
    return 1;
  }
  auto db = eval::MakeTestDatabase(stack->dataset, stack->dataset.test,
                                   /*with_histograms=*/false, {});
  if (!db.ok()) {
    std::fprintf(stderr, "database setup failed: %s\n",
                 db.status().ToString().c_str());
    return 1;
  }
  if (cli.list) {
    for (const auto& name : (*db)->Connect()->ListTables()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }

  core::TasteOptions topt;
  topt.alpha = cli.alpha;
  topt.beta = cli.beta;
  topt.enable_p2 = !cli.no_p2;
  topt.random_sample = cli.sample;
  core::TasteDetector detector(stack->adtd.get(), stack->tokenizer.get(),
                               topt);
  const auto& registry = data::SemanticTypeRegistry::Default();

  std::vector<std::string> targets;
  if (!cli.table.empty()) {
    targets.push_back(cli.table);
  } else {
    for (int idx : stack->dataset.test) {
      targets.push_back(stack->dataset.tables[idx].name);
    }
  }

  // Every run goes through the pipelined executor (or, with --replicas, the
  // router), so the deadline/admission knobs apply and the metrics document
  // carries per-stage latency histograms and nested trace spans alongside
  // cache/db/retry counters.
  if (!cli.metrics_out.empty()) {
    obs::SetMetricsEnabled(true);
    obs::SetTracingEnabled(true);
  }
  pipeline::PipelineOptions popt;
  popt.deadline_ms = cli.deadline_ms;
  popt.p2_dtype = cli.p2_dtype;
  if (cli.max_inflight > 0) {
    popt.admission.enabled = true;
    popt.admission.max_inflight_tables = cli.max_inflight;
    popt.admission.max_queued_tables = cli.max_inflight;
  }
  // With --replicas the batch is scattered across forked worker processes
  // instead; faults off, the merged result is byte-identical to the
  // single-process executor's.
  std::unique_ptr<serve::Router> router;
  std::unique_ptr<pipeline::PipelineExecutor> exec;
  pipeline::BatchResult batch;
  if (cli.replicas > 0) {
    serve::WorkerEnv env;
    env.detector = &detector;
    env.db = db->get();
    env.pipeline_options = popt;
    serve::RouterOptions ropt;
    ropt.supervisor.replicas = cli.replicas;
    ropt.watchdog_ms_per_table = cli.watchdog_ms_per_table;
    router = std::make_unique<serve::Router>(env, ropt);
    if (Status st = router->Start(); !st.ok()) {
      std::fprintf(stderr, "replica startup failed: %s\n",
                   st.ToString().c_str());
      return 1;
    }
    batch = router->RunBatch(targets);
  } else {
    exec = std::make_unique<pipeline::PipelineExecutor>(&detector, db->get(),
                                                        popt);
    batch = exec->RunBatch(targets);
  }
  std::vector<core::TableDetectionResult> results;
  bool any_failed = false;
  for (size_t i = 0; i < batch.tables.size(); ++i) {
    auto& t = batch.tables[i];
    switch (t.outcome) {
      case pipeline::TableOutcome::kComplete:
      case pipeline::TableOutcome::kDegraded:
        results.push_back(std::move(t.result));
        break;
      case pipeline::TableOutcome::kShed:
      case pipeline::TableOutcome::kExpired:
        std::fprintf(stderr, "table %s %s: %s\n", targets[i].c_str(),
                     pipeline::TableOutcomeName(t.outcome),
                     t.status.ToString().c_str());
        break;
      case pipeline::TableOutcome::kFailed:
        std::fprintf(stderr, "detection failed for %s: %s\n",
                     targets[i].c_str(), t.status.ToString().c_str());
        any_failed = true;
        break;
    }
  }
  const pipeline::ResilienceStats& rz =
      router ? router->stats().resilience : exec->resilience_stats();
  if (rz.shed_tables + rz.expired_tables + rz.degraded_tables > 0) {
    std::fprintf(stderr,
                 "serving outcomes: %lld shed, %lld expired, %lld "
                 "degraded (of %zu tables)\n",
                 static_cast<long long>(rz.shed_tables),
                 static_cast<long long>(rz.expired_tables),
                 static_cast<long long>(rz.degraded_tables),
                 targets.size());
  }
  if (router != nullptr && router->stats().replica_deaths > 0) {
    std::fprintf(stderr,
                 "replica tier: %lld deaths, %lld tables re-dispatched, "
                 "%lld ran locally\n",
                 static_cast<long long>(router->stats().replica_deaths),
                 static_cast<long long>(router->stats().redispatched_tables),
                 static_cast<long long>(
                     router->stats().local_fallback_tables));
  }
  if (!cli.metrics_out.empty()) {
    // Single-process: the global registry. Multi-process: the replicas'
    // registries scraped over the wire and aggregated with the router's
    // own (summed base series + per-replica labeled series).
    obs::Registry::Snapshot snap;
    if (router != nullptr) {
      auto scraped = router->Scrape();
      if (!scraped.ok()) {
        std::fprintf(stderr, "replica scrape failed: %s\n",
                     scraped.status().ToString().c_str());
        return 1;
      }
      snap = std::move(*scraped);
    } else {
      snap = obs::Registry::Global().snapshot();
    }
    const auto spans = obs::DrainSpans();
    if (!obs::WriteMetricsFile(cli.metrics_out, snap, &spans)) {
      std::fprintf(stderr, "failed to write %s\n", cli.metrics_out.c_str());
      return 1;
    }
    const double wall =
        router ? router->stats().wall_ms : exec->stats().wall_ms;
    std::fprintf(stderr, "wrote metrics to %s (%zu tables, %.1f ms wall)\n",
                 cli.metrics_out.c_str(), targets.size(), wall);
  }
  if (router != nullptr) router->Shutdown();
  // 1 = a table failed; 3 = load was shed, distinct from hard failure.
  const int exit_code = any_failed ? 1 : rz.shed_tables > 0 ? 3 : 0;

  if (cli.json) {
    std::printf("%s\n",
                core::ResultsToJson(results, registry).c_str());
  } else {
    for (const auto& r : results) PrintText(r, registry);
    auto snap = (*db)->ledger().snapshot();
    std::printf("\ntotals: %lld queries, %lld columns scanned, %lld cells, "
                "%.1f ms simulated I/O\n",
                static_cast<long long>(snap.queries),
                static_cast<long long>(snap.scanned_columns),
                static_cast<long long>(snap.scanned_cells),
                snap.simulated_io_ms);
  }
  return exit_code;
}
