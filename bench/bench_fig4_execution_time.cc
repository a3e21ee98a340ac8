// Reproduces Fig. 4: end-to-end execution time of every approach and TASTE
// variant on both datasets.
//
// Paper (RTX A10 + RDS MySQL over a 5 ms VPC):
//   * TASTE cuts execution time vs TURL by 40.5% (Wiki) / 75.4% (Git) and
//     vs Doduo by 52.9% / 85.0%;
//   * histograms add 6.6% / 25.3% on top of vanilla TASTE;
//   * disabling latent caching costs 20.0% / 2.0%;
//   * disabling pipelining costs 21.3% / 15.1%;
//   * random sampling is a wash (39.20s -> 39.41s on Wiki).
// Absolute times here come from the simulated substrate; the ordering and
// rough magnitudes are what this bench validates.

#include "bench_common.h"

namespace taste::bench {
namespace {

struct Row {
  std::string name;
  double mean_ms = 0;
  double stddev_ms = 0;
  std::string paper_note;
};

constexpr int kRuns = 3;

/// Measures a full sweep over the test tables, `kRuns` times.
template <typename RunFn>
Row Measure(const std::string& name, const std::string& paper_note,
            RunFn run) {
  std::vector<double> times;
  for (int r = 0; r < kRuns; ++r) times.push_back(run());
  Row row;
  row.name = name;
  row.paper_note = paper_note;
  for (double t : times) row.mean_ms += t;
  row.mean_ms /= times.size();
  double var = 0;
  for (double t : times) var += (t - row.mean_ms) * (t - row.mean_ms);
  row.stddev_ms = std::sqrt(var / times.size());
  return row;
}

void RunDataset(const data::DatasetProfile& profile) {
  eval::TrainedStack stack = MustBuildStack(profile);
  std::vector<std::string> tables = TestTableNames(stack.dataset);

  // Two staged databases: without and with histograms (ANALYZE TABLE).
  auto db = eval::MakeTestDatabase(stack.dataset, stack.dataset.test, false,
                                   TimedCost());
  auto db_hist = eval::MakeTestDatabase(stack.dataset, stack.dataset.test,
                                        true, TimedCost());
  TASTE_CHECK(db.ok() && db_hist.ok());

  auto run_taste = [&](const core::TasteOptions& topt,
                       const pipeline::PipelineOptions& popt,
                       const model::AdtdModel* m,
                       clouddb::SimulatedDatabase* database) {
    core::TasteDetector det(m, stack.tokenizer.get(), topt);
    pipeline::PipelineExecutor exec(&det, database, popt);
    RunAllOk(&exec, tables);
    return exec.stats().wall_ms;
  };
  auto run_single = [&](const baselines::SingleTowerModel* m) {
    baselines::SingleTowerDetector det(m, stack.tokenizer.get(), {});
    Stopwatch sw;
    auto conn = db->get()->Connect();
    for (const auto& t : tables) {
      auto res = det.DetectTable(conn.get(), t);
      TASTE_CHECK_MSG(res.ok(), res.status().ToString());
    }
    return sw.ElapsedMillis();
  };

  core::TasteOptions base;  // alpha=0.1, beta=0.9, cache on
  pipeline::PipelineOptions piped{.prep_threads = 2, .infer_threads = 2};
  pipeline::PipelineOptions sequential{.pipelined = false};

  std::vector<Row> rows;
  rows.push_back(Measure("TURL", "baseline (slower than TASTE)", [&] {
    return run_single(stack.turl.get());
  }));
  rows.push_back(Measure("Doduo", "slowest (largest model)", [&] {
    return run_single(stack.doduo.get());
  }));
  rows.push_back(Measure("TASTE", "fastest", [&] {
    return run_taste(base, piped, stack.adtd.get(), db->get());
  }));
  rows.push_back(Measure("TASTE w/ histogram", "+6.6% Wiki / +25.3% Git", [&] {
    return run_taste(base, piped, stack.adtd_hist.get(), db_hist->get());
  }));
  {
    core::TasteOptions no_cache = base;
    no_cache.use_latent_cache = false;
    rows.push_back(Measure("TASTE w/o caching", "+20.0% Wiki / +2.0% Git",
                           [&] {
                             return run_taste(no_cache, piped,
                                              stack.adtd.get(), db->get());
                           }));
  }
  rows.push_back(Measure("TASTE w/o pipelining", "+21.3% Wiki / +15.1% Git",
                         [&] {
                           return run_taste(base, sequential, stack.adtd.get(),
                                            db->get());
                         }));
  {
    core::TasteOptions sampling = base;
    sampling.random_sample = true;
    rows.push_back(Measure("TASTE w/ sampling", "~no change", [&] {
      return run_taste(sampling, piped, stack.adtd.get(), db->get());
    }));
  }

  std::printf("%s", eval::SectionHeader("Fig. 4 — end-to-end execution time, " +
                                        stack.name + " (test split, " +
                                        std::to_string(tables.size()) +
                                        " tables, mean of " +
                                        std::to_string(kRuns) + " runs)")
                        .c_str());
  eval::TextTable table({"approach", "time", "stddev", "vs TASTE",
                         "paper's finding"});
  double taste_ms = rows[2].mean_ms;
  for (const auto& r : rows) {
    char rel[32];
    std::snprintf(rel, sizeof(rel), "%+.1f%%",
                  100.0 * (r.mean_ms - taste_ms) / taste_ms);
    table.AddRow({r.name, Ms(r.mean_ms), Ms(r.stddev_ms), rel, r.paper_note});
  }
  std::printf("%s", table.ToString().c_str());
}

}  // namespace
}  // namespace taste::bench

int main() {
  taste::SetLogLevel(taste::LogLevel::kWarn);
  taste::bench::RunDataset(taste::data::DatasetProfile::WikiLike());
  taste::bench::RunDataset(taste::data::DatasetProfile::GitLike());
  return 0;
}
