#include "src/align/sharded_engine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "src/align/parallel_aligner.h"

namespace pim::align {

namespace {

void validate(const std::vector<const AlignmentEngine*>& shards) {
  if (shards.empty()) {
    throw std::invalid_argument("ShardedEngine: no shard engines");
  }
  for (const auto* engine : shards) {
    if (engine == nullptr) {
      throw std::invalid_argument("ShardedEngine: null shard engine");
    }
  }
}

}  // namespace

ShardedEngine::ShardedEngine(
    std::vector<std::unique_ptr<AlignmentEngine>> shards,
    ShardedOptions options)
    : owned_(std::move(shards)), options_(options) {
  shards_.reserve(owned_.size());
  for (const auto& engine : owned_) shards_.push_back(engine.get());
  validate(shards_);
  weights_.assign(shards_.size(), 1.0 / static_cast<double>(shards_.size()));
  init_metrics();
}

ShardedEngine::ShardedEngine(std::vector<const AlignmentEngine*> shards,
                             ShardedOptions options)
    : shards_(std::move(shards)), options_(options) {
  validate(shards_);
  weights_.assign(shards_.size(), 1.0 / static_cast<double>(shards_.size()));
  init_metrics();
}

void ShardedEngine::init_metrics() {
  if (options_.metrics == nullptr) return;
  // Registration up front (construction is single-threaded); the per-run
  // publishes are lock-free counter adds and atomic gauge stores.
  series_.reserve(shards_.size());
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::string prefix = "shard." + std::to_string(s) + ".";
    ShardSeries series;
    series.reads = options_.metrics->counter(prefix + "reads");
    series.hits = options_.metrics->counter(prefix + "hits");
    series.wall_ms = options_.metrics->gauge(prefix + "wall_ms");
    series.reads_per_ms = options_.metrics->gauge(prefix + "reads_per_ms");
    series.weight = options_.metrics->gauge(prefix + "weight");
    series_.push_back(series);
  }
  publish_weights();
}

void ShardedEngine::publish_weights() const {
  for (std::size_t s = 0; s < series_.size(); ++s) {
    series_[s].weight.set(weights_[s]);
  }
}

void ShardedEngine::set_shard_weights(std::vector<double> weights) {
  if (weights.size() != shards_.size()) {
    throw std::invalid_argument("ShardedEngine: weight count != shard count");
  }
  double total = 0.0;
  for (const double w : weights) {
    if (!(w > 0.0)) {
      throw std::invalid_argument("ShardedEngine: weights must be positive");
    }
    total += w;
  }
  for (double& w : weights) w /= total;
  weights_ = std::move(weights);
  publish_weights();
}

std::vector<std::size_t> ShardedEngine::partition(std::size_t reads) const {
  const std::size_t num = shards_.size();
  std::vector<std::size_t> bounds(num + 1, 0);
  double total = 0.0;
  for (const double w : weights_) total += w;
  double cum = 0.0;
  for (std::size_t s = 0; s + 1 < num; ++s) {
    cum += weights_[s];
    const auto b = static_cast<std::size_t>(
        std::llround(static_cast<double>(reads) * (cum / total)));
    bounds[s + 1] = std::clamp(b, bounds[s], reads);
  }
  bounds[num] = reads;
  return bounds;
}

std::vector<double> rebalanced_weights(
    std::vector<double> weights, const std::vector<ShardStats>& shard_stats) {
  const std::size_t num = weights.size();
  std::vector<double> tput(num, 0.0);
  double sum = 0.0;
  std::size_t measured = 0;
  for (const auto& s : shard_stats) {
    if (s.shard < num && s.reads > 0 && s.wall_ms > 1e-6) {
      tput[s.shard] = static_cast<double>(s.reads) / s.wall_ms;
      sum += tput[s.shard];
      ++measured;
    }
  }
  if (measured == 0) return weights;
  const double mean = sum / static_cast<double>(measured);
  const double target_total = sum + mean * static_cast<double>(num - measured);
  // Blend halfway toward the measured throughput: smooths per-batch noise.
  constexpr double kSmoothing = 0.5;
  const double floor_w = 0.1 / static_cast<double>(num);
  double total = 0.0;
  for (std::size_t s = 0; s < num; ++s) {
    const double target = (tput[s] > 0.0 ? tput[s] : mean) / target_total;
    weights[s] = std::max(
        floor_w, (1.0 - kSmoothing) * weights[s] + kSmoothing * target);
    total += weights[s];
  }
  for (double& w : weights) w /= total;
  return weights;
}

EngineStats ShardedEngine::run(const ReadBatch& batch, std::size_t begin,
                               std::size_t end, const ChunkSink& sink) const {
  const std::size_t num = shards_.size();
  // Reset the per-shard breakdown at call entry: a reused engine never
  // reports a previous batch's load, even if a shard throws before any
  // stats land. Idle shards keep zeroed counters.
  shard_stats_.assign(num, ShardStats{});
  std::vector<std::size_t> task_shard;
  std::vector<detail::RangeTask> tasks;
  const auto bounds = partition(end - begin);
  for (std::size_t s = 0; s < num; ++s) {
    shard_stats_[s].shard = s;
    if (bounds[s + 1] > bounds[s]) {
      task_shard.push_back(s);
      tasks.push_back(detail::RangeTask{shards_[s], begin + bounds[s],
                                        begin + bounds[s + 1]});
    }
  }
  // One worker per shard task; each writes only its own shard's stats.
  const EngineStats stats = detail::run_in_order(
      batch, tasks, tasks.size(), sink, /*metrics=*/nullptr,
      [&](std::size_t task, const BatchResult& result, double align_ms) {
        ShardStats& shard = shard_stats_[task_shard[task]];
        shard.reads = result.stats().reads_total;
        shard.hits = result.stats().hits_total;
        shard.wall_ms = align_ms;
        shard.stats = result.stats();
        shard.stats.wall_ms = align_ms;
      });

  for (std::size_t s = 0; s < series_.size(); ++s) {
    const ShardStats& shard = shard_stats_[s];
    series_[s].reads.add(shard.reads);
    series_[s].hits.add(shard.hits);
    series_[s].wall_ms.set(shard.wall_ms);
    series_[s].reads_per_ms.set(
        shard.reads > 0 && shard.wall_ms > 1e-6
            ? static_cast<double>(shard.reads) / shard.wall_ms
            : 0.0);
  }
  if (options_.rebalance) {
    weights_ = rebalanced_weights(std::move(weights_), shard_stats_);
    publish_weights();
  }
  return stats;
}

void ShardedEngine::align_range(const ReadBatch& batch, std::size_t begin,
                                std::size_t end, BatchResult& out) const {
  // Stitch in shard order == read order; BatchResult::append merges the
  // per-shard EngineStats associatively, so the combined counters equal an
  // unsharded run over the same range.
  run(batch, begin, end,
      [&out](const BatchResultChunk& chunk) { out.append(*chunk.result); });
}

EngineStats ShardedEngine::align_batch_chunked(
    const ReadBatch& batch, const ChunkSink& sink,
    const ParallelOptions& /*options*/) const {
  return run(batch, 0, batch.size(), sink);
}

}  // namespace pim::align
