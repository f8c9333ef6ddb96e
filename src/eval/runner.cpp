#include "eval/runner.h"

#include <algorithm>
#include <functional>
#include <map>

#include "core/batch.h"
#include "core/incremental.h"
#include "metrics/metrics.h"
#include "service/service.h"
#include "service/snapshot_registry.h"
#include "util/stats.h"
#include "util/string_util.h"
#include "util/thread_pool.h"

namespace xsum::eval {

namespace {

constexpr int kMaxK = 10;

}  // namespace

const char* MetricKindToString(MetricKind metric) {
  switch (metric) {
    case MetricKind::kComprehensibility:
      return "comprehensibility";
    case MetricKind::kActionability:
      return "actionability";
    case MetricKind::kDiversity:
      return "diversity";
    case MetricKind::kRedundancy:
      return "redundancy";
    case MetricKind::kConsistency:
      return "consistency";
    case MetricKind::kRelevance:
      return "relevance";
    case MetricKind::kPrivacy:
      return "privacy";
    case MetricKind::kTimeMs:
      return "time (ms)";
    case MetricKind::kMemoryMb:
      return "memory (MiB)";
  }
  return "?";
}

ExperimentRunner::ExperimentRunner(ExperimentConfig config)
    : config_(std::move(config)) {}

ExperimentRunner::~ExperimentRunner() = default;

ExperimentRunner::ExperimentRunner(ExperimentRunner&& other)
    : config_(std::move(other.config_)),
      dataset_(std::move(other.dataset_)),
      rec_graph_(std::move(other.rec_graph_)),
      sampled_users_(std::move(other.sampled_users_)),
      initialized_(other.initialized_) {
  // The moved-from runner's engine/service reference its moved-out graph;
  // drop them so a re-Init()ed source cannot serve through stale state.
  other.batch_.reset();
  other.service_.reset();
  other.registry_.reset();
}

ExperimentRunner& ExperimentRunner::operator=(ExperimentRunner&& other) {
  config_ = std::move(other.config_);
  dataset_ = std::move(other.dataset_);
  rec_graph_ = std::move(other.rec_graph_);
  sampled_users_ = std::move(other.sampled_users_);
  initialized_ = other.initialized_;
  batch_.reset();
  other.batch_.reset();
  service_.reset();
  registry_.reset();
  other.service_.reset();
  other.registry_.reset();
  return *this;
}

core::BatchSummarizer& ExperimentRunner::batch() const {
  if (batch_ == nullptr) {
    const size_t workers = config_.num_workers != 0
                               ? config_.num_workers
                               : ThreadPool::DefaultWorkers();
    batch_ = std::make_unique<core::BatchSummarizer>(rec_graph_, workers);
  }
  return *batch_;
}

service::SummaryService* ExperimentRunner::service() const {
  if (!config_.use_summary_cache) return nullptr;
  if (service_ == nullptr) {
    registry_ = std::make_unique<service::GraphSnapshotRegistry>();
    // The runner owns its graph for its lifetime; publish a non-owning
    // alias rather than copying the whole graph into the registry.
    registry_->Publish(service::GraphSnapshotRegistry::Alias(rec_graph_));
    service::ServiceOptions options;
    options.num_workers = config_.num_workers != 0
                              ? config_.num_workers
                              : ThreadPool::DefaultWorkers();
    // Clamp before shifting so an absurd XSUM_CACHE_MB cannot wrap the
    // byte budget to ~0 (which would reject every insert).
    options.cache.max_bytes =
        std::min<size_t>(config_.cache_mb, size_t{1} << 24) << 20;
    service_ =
        std::make_unique<service::SummaryService>(registry_.get(), options);
  }
  return service_.get();
}

uint64_t ExperimentRunner::panel_cache_hits() const {
  return service_ == nullptr ? 0 : service_->cache_stats().hits;
}

uint64_t ExperimentRunner::panel_cache_misses() const {
  return service_ == nullptr ? 0 : service_->cache_stats().misses;
}

Status ExperimentRunner::Init() {
  data::SyntheticConfig synth =
      config_.dataset == DatasetKind::kMl1m
          ? data::Ml1mConfig(config_.scale, config_.seed)
          : data::Lfm1mConfig(config_.scale, config_.seed);
  dataset_ = data::MakeSyntheticDataset(synth);

  data::WeightParams params = config_.weight_params;
  if (params.t0 == 0) params.t0 = dataset_.t0;
  XSUM_ASSIGN_OR_RETURN(rec_graph_, data::BuildRecGraph(dataset_, params));

  sampled_users_ = rec::SampleUsersByGender(dataset_, config_.users_per_gender,
                                            config_.seed + 1);
  if (sampled_users_.empty()) {
    return Status::FailedPrecondition("no users sampled");
  }
  initialized_ = true;
  return Status::OK();
}

Result<BaselineData> ExperimentRunner::ComputeBaseline(
    rec::RecommenderKind kind) const {
  if (!initialized_) {
    return Status::FailedPrecondition("runner not initialized");
  }
  BaselineData data;
  data.kind = kind;
  data.label = rec::RecommenderKindToString(kind);

  const auto recommender =
      rec::MakeRecommender(kind, rec_graph_, config_.seed + 17,
                           config_.rec_options);
  if (recommender == nullptr) {
    return Status::Internal("failed to construct recommender");
  }

  // --- user-centric units ------------------------------------------------
  // Recommender calls are fanned across the worker pool. Thread-safety
  // audit: `Recommend` is const on every simulator, all randomness comes
  // from a function-local `Rng` seeded by (master seed, method tag, user),
  // and the only precomputed state (PGPR's item-mass prior) is built in
  // the constructor — concurrent calls over distinct users share nothing
  // mutable. Per-user results land in index-addressed slots and are merged
  // in sampled-user order below, so the output is bit-identical to the
  // serial loop for every worker count.
  std::vector<core::UserRecs> user_slots(sampled_users_.size());
  batch().pool().ParallelFor(
      sampled_users_.size(), [&](size_t /*worker*/, size_t i) {
        user_slots[i].user = sampled_users_[i];
        user_slots[i].recs = recommender->Recommend(sampled_users_[i], kMaxK);
      });
  for (core::UserRecs& ur : user_slots) {
    if (ur.recs.empty()) continue;  // isolated user: nothing to explain
    data.users.push_back(std::move(ur));
  }
  if (data.users.empty()) {
    return Status::FailedPrecondition(
        StrCat(data.label, " produced no recommendations at this scale"));
  }

  // --- item-centric units: invert recommendations into audiences ----------
  // audience[i] = ranked list of (score, user, path) who received item i.
  std::map<uint32_t, std::vector<std::pair<double, core::AudienceEntry>>>
      audience;
  for (const core::UserRecs& ur : data.users) {
    for (const rec::Recommendation& rec : ur.recs) {
      core::AudienceEntry entry;
      entry.user = ur.user;
      entry.path = rec.path;
      audience[rec.item].push_back({rec.score, std::move(entry)});
    }
  }
  // §V-A split: among recommended items, the most vs least
  // catalogue-popular halves.
  const std::vector<uint32_t> popularity = dataset_.ItemPopularity();
  std::vector<uint32_t> recommended_items;
  recommended_items.reserve(audience.size());
  for (const auto& [item, entries] : audience) {
    recommended_items.push_back(item);
  }
  std::stable_sort(recommended_items.begin(), recommended_items.end(),
                   [&](uint32_t a, uint32_t b) {
                     if (popularity[a] != popularity[b]) {
                       return popularity[a] > popularity[b];
                     }
                     return a < b;
                   });
  const size_t take_pop =
      std::min(config_.items_popular, recommended_items.size());
  const size_t take_unpop = std::min(
      config_.items_unpopular, recommended_items.size() - take_pop);
  std::vector<std::pair<uint32_t, bool>> chosen;  // (item, is_popular)
  for (size_t i = 0; i < take_pop; ++i) {
    chosen.push_back({recommended_items[i], true});
  }
  for (size_t i = 0; i < take_unpop; ++i) {
    chosen.push_back(
        {recommended_items[recommended_items.size() - 1 - i], false});
  }
  for (const auto& [item, is_popular] : chosen) {
    auto& entries = audience[item];
    std::stable_sort(entries.begin(), entries.end(),
                     [](const auto& a, const auto& b) {
                       if (a.first != b.first) return a.first > b.first;
                       return a.second.user < b.second.user;
                     });
    core::ItemAudience ia;
    ia.item = item;
    ia.audience.reserve(entries.size());
    for (auto& [score, entry] : entries) {
      ia.audience.push_back(std::move(entry));
    }
    data.items.push_back(std::move(ia));
    data.item_is_popular.push_back(is_popular ? 1 : 0);
  }

  // --- groups -------------------------------------------------------------
  {
    std::vector<uint32_t> users_with_recs;
    users_with_recs.reserve(data.users.size());
    std::map<uint32_t, const core::UserRecs*> by_user;
    for (const core::UserRecs& ur : data.users) {
      users_with_recs.push_back(ur.user);
      by_user[ur.user] = &ur;
    }
    for (const auto& group :
         rec::MakeGroups(users_with_recs, config_.user_group_size)) {
      std::vector<core::UserRecs> members;
      members.reserve(group.size());
      for (uint32_t user : group) members.push_back(*by_user.at(user));
      data.user_groups.push_back(std::move(members));
    }
  }
  for (size_t begin = 0; begin < data.items.size();
       begin += config_.item_group_size) {
    const size_t end =
        std::min(data.items.size(), begin + config_.item_group_size);
    data.item_groups.emplace_back(data.items.begin() + begin,
                                  data.items.begin() + end);
  }
  return data;
}

Result<std::vector<SeriesResult>> ExperimentRunner::RunPanel(
    const BaselineData& data, const PanelSpec& spec) const {
  if (!initialized_) {
    return Status::FailedPrecondition("runner not initialized");
  }
  const graph::KnowledgeGraph& g = rec_graph_.graph();

  // Enumerate units and their task builders.
  std::vector<std::function<core::SummaryTask(int)>> units;
  switch (spec.scenario) {
    case core::Scenario::kUserCentric:
      for (const core::UserRecs& ur : data.users) {
        units.push_back([this, &ur](int k) {
          return core::MakeUserCentricTask(rec_graph_, ur, k);
        });
      }
      break;
    case core::Scenario::kItemCentric:
      for (size_t i = 0; i < data.items.size(); ++i) {
        if (spec.item_popularity_filter >= 0 &&
            data.item_is_popular[i] !=
                static_cast<char>(spec.item_popularity_filter)) {
          continue;
        }
        const core::ItemAudience& ia = data.items[i];
        units.push_back([this, &ia](int k) {
          return core::MakeItemCentricTask(rec_graph_, ia.item, ia.audience,
                                           k);
        });
      }
      break;
    case core::Scenario::kUserGroup:
      for (const auto& group : data.user_groups) {
        units.push_back([this, &group](int k) {
          return core::MakeUserGroupTask(rec_graph_, group, k);
        });
      }
      break;
    case core::Scenario::kItemGroup:
      for (const auto& group : data.item_groups) {
        units.push_back([this, &group](int k) {
          return core::MakeItemGroupTask(rec_graph_, group, k);
        });
      }
      break;
  }
  if (units.empty()) {
    return Status::FailedPrecondition("panel has no evaluation units");
  }

  // Units are independent: fan them across the worker pool (one summarize
  // context per worker), collect per-unit metric values into index-addressed
  // slots, and fold them into the accumulators in unit order afterwards.
  // The series is therefore bit-identical for every worker count — except
  // the wall-clock metric, which is a measurement rather than a computed
  // value: timing panels run serially so concurrent workers cannot
  // contend with (and inflate) the very quantity being measured.
  const bool timing_panel = spec.metric == MetricKind::kTimeMs;
  core::BatchSummarizer& engine = batch();
  // Timing panels always compute — a cached wall-clock number would be a
  // replay of an old measurement, not a measurement.
  service::SummaryService* cache_service = timing_panel ? nullptr : service();
  std::vector<SeriesResult> series;
  for (const MethodSpec& method : spec.methods) {
    std::vector<std::vector<double>> unit_values(units.size());
    std::vector<Status> unit_status(units.size(), Status::OK());
    const auto process_unit = [&](size_t worker, size_t i) {
      std::vector<double>& values = unit_values[i];
      values.assign(spec.ks.size(), 0.0);
      // Summarize the unit's whole k-axis first, walking the ks in
      // ascending order through one summarization chain (the sweep path,
      // core/incremental.h): the k-prefix tasks nest, so each step can
      // reuse the previous one's closure state where provably safe.
      // Cached, chained, and fresh results are all bit-identical (the
      // chain resets itself whenever reuse would not be exact), so the
      // routing below cannot change any *derived* series value. The
      // wall-clock series is the exception — elapsed_ms IS its value —
      // so timing panels keep the per-k from-scratch path below, for the
      // same reason they bypass the cache: time(k) must measure a (unit,
      // k) summarization, not the cost of extending the k−1 chain.
      std::vector<std::shared_ptr<const core::Summary>> summaries(
          spec.ks.size());
      if (timing_panel) {
        for (size_t ki = 0; ki < spec.ks.size(); ++ki) {
          Result<core::Summary> result =
              engine.RunWith(worker, units[i](spec.ks[ki]), method.options);
          if (!result.ok()) {
            unit_status[i] = result.status();
            return;
          }
          summaries[ki] =
              std::make_shared<core::Summary>(std::move(*result));
        }
      } else if (cache_service != nullptr) {
        // Service route: consecutive ascending ks name their predecessor,
        // so a (task, k) miss is summarized incrementally from the cached
        // (task, k−1) entry's chain checkpoint.
        const std::vector<size_t> order = core::AscendingKOrder(spec.ks);
        core::SummaryTask prev_task;
        bool has_prev = false;
        for (size_t idx : order) {
          core::SummaryTask task = units[i](spec.ks[idx]);
          Result<std::shared_ptr<const service::SummaryRecord>> result =
              cache_service->Summarize(task, method.options,
                                       has_prev ? &prev_task : nullptr);
          if (!result.ok()) {
            unit_status[i] = result.status();
            return;
          }
          // Aliasing pointer: owns the record, points at its summary.
          const std::shared_ptr<const service::SummaryRecord>& record =
              *result;
          summaries[idx] = std::shared_ptr<const core::Summary>(
              record, &record->summary());
          prev_task = std::move(task);
          has_prev = true;
        }
      } else {
        std::vector<Result<core::Summary>> results =
            engine.RunSweep(worker, units[i], spec.ks, method.options);
        for (size_t idx = 0; idx < results.size(); ++idx) {
          if (!results[idx].ok()) {
            unit_status[i] = results[idx].status();
            return;
          }
          summaries[idx] =
              std::make_shared<core::Summary>(std::move(*results[idx]));
        }
      }
      // Metric evaluation keeps the caller's ks order (the consistency
      // metric folds views cumulatively in that order).
      std::vector<metrics::ExplanationView> views;  // for consistency
      for (size_t ki = 0; ki < spec.ks.size(); ++ki) {
        const core::Summary& summary = *summaries[ki];
        double value = 0.0;
        switch (spec.metric) {
          case MetricKind::kTimeMs:
            value = summary.elapsed_ms;
            break;
          case MetricKind::kMemoryMb:
            value = static_cast<double>(summary.memory_bytes) /
                    (1024.0 * 1024.0);
            break;
          case MetricKind::kConsistency: {
            views.push_back(metrics::MakeView(g, summary));
            value = metrics::Consistency(views);
            break;
          }
          default: {
            const metrics::ExplanationView view = metrics::MakeView(g, summary);
            switch (spec.metric) {
              case MetricKind::kComprehensibility:
                value = metrics::Comprehensibility(view);
                break;
              case MetricKind::kActionability:
                value = metrics::Actionability(g, view);
                break;
              case MetricKind::kDiversity:
                value = metrics::Diversity(view);
                break;
              case MetricKind::kRedundancy:
                value = metrics::Redundancy(view);
                break;
              case MetricKind::kRelevance:
                value = metrics::Relevance(view, rec_graph_.base_weights());
                break;
              case MetricKind::kPrivacy:
                value = metrics::Privacy(g, view);
                break;
              default:
                break;
            }
            break;
          }
        }
        values[ki] = value;
      }
    };
    if (timing_panel) {
      for (size_t i = 0; i < units.size(); ++i) process_unit(0, i);
    } else {
      engine.pool().ParallelFor(units.size(), process_unit);
    }
    for (const Status& status : unit_status) {
      XSUM_RETURN_NOT_OK(status);
    }
    std::vector<StatAccumulator> acc(spec.ks.size());
    for (const std::vector<double>& values : unit_values) {
      for (size_t ki = 0; ki < values.size(); ++ki) acc[ki].Add(values[ki]);
    }
    SeriesResult row;
    row.label = method.label;
    row.values.reserve(spec.ks.size());
    for (const StatAccumulator& a : acc) row.values.push_back(a.Mean());
    series.push_back(std::move(row));
  }
  return series;
}

}  // namespace xsum::eval
