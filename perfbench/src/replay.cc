// Layer replay for the traced run: the window's distinct queries are run
// once more through each layer's public functions, in the order the query
// service runs them, with a span around every call.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "bench.h"
#include "core/advanced_greedy.h"
#include "core/evaluator.h"
#include "core/greedy_replace.h"
#include "core/query_key.h"
#include "core/spread_decrease_engine.h"
#include "core/unified_instance.h"
#include "domtree/dominator_tree.h"
#include "graph/prob_grouped_view.h"
#include "sampling/reachable_sampler.h"
#include "service/graph_registry.h"
#include "service/pool_cache.h"

namespace perfbench {
namespace {

using vblock::VertexId;

constexpr uint32_t kSampleChunk = 256;
constexpr size_t kMigrateDeltas = 3;

double MedianOf(const SpanLog& log, const char* name, double unit_ns = 1e6) {
  std::vector<double> d = log.Durations(name, unit_ns);
  return d.empty() ? 0 : Median(std::move(d));
}

double SumOf(const SpanLog& log, const char* name, double unit_ns) {
  double total = 0;
  for (double d : log.Durations(name, unit_ns)) total += d;
  return total;
}

// θ standalone draws on the unified graph, then a dominator tree per draw,
// in chunks so at most kSampleChunk samples are held at once.
void SampleAndDominate(const vblock::Graph& g, VertexId root,
                       const vblock::SolverOptions& opts, SpanLog* log,
                       uint64_t* draws, double* region_vertices,
                       uint64_t* idom_entries) {
  vblock::ReachableSampler sampler(g, root, nullptr, opts.sampler_kind);
  std::vector<vblock::SampledGraph> samples(kSampleChunk);
  for (uint32_t base = 0; base < opts.theta; base += kSampleChunk) {
    const uint32_t count = std::min(kSampleChunk, opts.theta - base);
    {
      ScopedSpan span(log, "sampling.Sample");
      for (uint32_t i = 0; i < count; ++i) {
        vblock::Rng rng(opts.seed * 0x9e3779b97f4a7c15ULL + base + i);
        sampler.Sample(rng, &samples[i]);
      }
    }
    {
      ScopedSpan span(log, "domtree.ComputeDominatorTree");
      for (uint32_t i = 0; i < count; ++i) {
        *idom_entries +=
            vblock::ComputeDominatorTree(samples[i].View(), 0).idom.size();
      }
    }
    for (uint32_t i = 0; i < count; ++i) {
      *region_vertices += samples[i].NumVertices();
    }
    *draws += count;
  }
}

// Carries one engine across the first few deltas exactly as the service's
// epoch migration does, timing GraphRegistry::Apply and MigrateGraph.
void ReplayMigration(const ReplayInput& in, SpanLog* log, uint64_t* migrated) {
  if (in.update_base == nullptr || in.deltas.empty() || in.queries.empty()) {
    return;
  }
  const vblock::IminQuery& q = in.queries.front();
  const vblock::QueryKey key = vblock::ResolveQueryKey(q, in.defaults);
  const vblock::SolverOptions opts =
      vblock::SolverOptionsForKey(key, q.budget, in.defaults.threads);
  vblock::GraphRegistry registry(1);
  registry.Add("replay", *in.update_base);
  vblock::UnifiedInstance inst =
      vblock::UnifySeeds(*in.update_base, key.seeds, key.vertex_order);
  vblock::SpreadDecreaseOptions sd;
  sd.theta = opts.theta;
  sd.seed = opts.seed;
  sd.threads = opts.threads;
  sd.sample_reuse = opts.sample_reuse;
  sd.sampler_kind = opts.sampler_kind;
  vblock::SpreadDecreaseEngine engine(inst.graph, inst.root, sd);
  engine.Build();
  engine.ReleaseThreads();
  for (size_t i = 0; i < std::min(kMigrateDeltas, in.deltas.size()); ++i) {
    std::optional<vblock::Result<vblock::GraphRegistry::ApplyOutcome>> applied;
    {
      ScopedSpan span(log, "graph.Apply");
      applied = registry.Apply("replay", in.deltas[i]);
    }
    if (!applied->ok()) return;
    vblock::UnifiedInstance fresh = vblock::UnifySeeds(
        (*applied)->snapshot->graph, key.seeds, key.vertex_order);
    if (fresh.graph.NumVertices() != inst.graph.NumVertices() ||
        fresh.root != inst.root || fresh.to_original != inst.to_original) {
      return;
    }
    std::vector<VertexId> changed_out, changed_in;
    vblock::ComputeChangedRows(inst.graph, fresh.graph, &changed_out,
                               &changed_in);
    if (opts.sampler_kind != vblock::SamplerKind::kPerEdgeCoin) {
      auto patched = vblock::ProbGroupedView::DeltaPatched(
          inst.graph.GroupedView(), fresh.graph, changed_out, changed_in);
      if (patched == nullptr) return;
      fresh.graph.InstallGroupedView(std::move(patched));
    }
    inst.graph = std::move(fresh.graph);  // same address: the engine holds it
    ScopedSpan span(log, "core.MigrateGraph");
    *migrated += engine.MigrateGraph(changed_out, changed_in);
  }
}

}  // namespace

void ReplayLayers(const ReplayInput& in, SpanLog* log, LayerValues* out) {
  uint64_t draws = 0, idom_entries = 0;
  double region_vertices = 0;
  std::vector<double> entry_bytes;
  uint64_t request_id = 1u << 20;  // distinct from the window's request ids
  for (const vblock::IminQuery& q : in.queries) {
    const vblock::QueryKey key = vblock::ResolveQueryKey(q, in.defaults);
    const vblock::SolverOptions opts =
        vblock::SolverOptionsForKey(key, q.budget, in.defaults.threads);
    ScopedSpan query_span(log, "replay.query", ++request_id);

    // Unification is timed on every query, warm or not; a warm entry
    // already holds its instance, so the fresh one is then discarded.
    std::unique_ptr<vblock::UnifiedInstance> unified;
    {
      ScopedSpan span(log, "core.UnifySeeds", request_id);
      unified = std::make_unique<vblock::UnifiedInstance>(
          vblock::UnifySeeds(*in.graph, key.seeds, key.vertex_order));
    }
    std::optional<vblock::PoolCache::Key> pool_key;
    std::unique_ptr<vblock::WarmEntry> entry;
    if (in.service != nullptr) {
      pool_key = vblock::PoolCache::KeyFor(in.epoch, key);
      if (pool_key) entry = in.service->pool_cache().Acquire(*pool_key);
    }
    if (!entry) {
      entry = std::make_unique<vblock::WarmEntry>();
      entry->inst = std::move(unified);
      vblock::SpreadDecreaseOptions sd;
      sd.theta = opts.theta;
      sd.seed = opts.seed;
      sd.threads = opts.threads;
      sd.sample_reuse = opts.sample_reuse;
      sd.sampler_kind = opts.sampler_kind;
      entry->engine = std::make_unique<vblock::SpreadDecreaseEngine>(
          entry->inst->graph, entry->inst->root, sd);
      ScopedSpan span(log, "core.Build", request_id);
      entry->engine->Build();
    }
    vblock::SpreadDecreaseEngine* engine = entry->engine.get();
    const vblock::UnifiedInstance& inst = *entry->inst;

    SampleAndDominate(inst.graph, inst.root, opts, log, &draws,
                      &region_vertices, &idom_entries);

    vblock::BlockerSelection sel;
    if (q.algorithm == vblock::Algorithm::kGreedyReplace) {
      vblock::GreedyReplaceOptions gr;
      gr.budget = q.budget;
      gr.theta = opts.theta;
      gr.seed = opts.seed;
      gr.threads = opts.threads;
      gr.sample_reuse = opts.sample_reuse;
      gr.sampler_kind = opts.sampler_kind;
      ScopedSpan span(log, "core.GreedyReplaceWithEngine", request_id);
      sel = vblock::GreedyReplaceWithEngine(engine, gr, vblock::Deadline());
    } else {
      vblock::AdvancedGreedyOptions ag;
      ag.budget = q.budget;
      ag.theta = opts.theta;
      ag.seed = opts.seed;
      ag.threads = opts.threads;
      ag.sample_reuse = opts.sample_reuse;
      ag.sampler_kind = opts.sampler_kind;
      ScopedSpan span(log, "core.AdvancedGreedyWithEngine", request_id);
      sel = vblock::AdvancedGreedyWithEngine(engine, ag, vblock::Deadline());
    }
    // Per-call Unblock / Block: clear the picks newest-first, then block
    // them again in pick order.
    for (auto it = sel.blockers.rbegin(); it != sel.blockers.rend(); ++it) {
      if (!engine->blocked().Test(*it)) continue;
      ScopedSpan span(log, "core.Unblock", request_id);
      engine->Unblock(*it);
    }
    for (VertexId v : sel.blockers) {
      ScopedSpan span(log, "core.Block", request_id);
      engine->Block(v);
    }
    if (pool_key) {
      {
        ScopedSpan span(log, "core.Restore", request_id);
        engine->Restore();
      }
      entry_bytes.push_back(static_cast<double>(engine->MemoryUsageBytes()));
      engine->ReleaseThreads();
      in.service->pool_cache().Release(*pool_key, std::move(entry));
    } else {
      entry_bytes.push_back(static_cast<double>(engine->MemoryUsageBytes()));
    }

    {
      vblock::EvaluationOptions eval;
      eval.mc_rounds = kEvalRounds;
      ScopedSpan span(log, "cascade.EvaluateSpread", request_id);
      vblock::EvaluateSpread(*in.graph, q.seeds,
                             inst.BlockersToOriginal(sel.blockers), eval);
    }
  }
  uint64_t migrated_samples = 0;
  ReplayMigration(in, log, &migrated_samples);

  // Every tree spans its sample's region, so this also proves the trees
  // were computed (and keeps the calls from being optimised away).
  if (idom_entries != static_cast<uint64_t>(region_vertices)) {
    std::fprintf(stderr, "replay: dominator trees do not cover their samples\n");
  }
  LayerValues& v = *out;
  v["graph.apply_ms"] = MedianOf(*log, "graph.Apply");
  v["sampling.sample_us"] =
      draws ? SumOf(*log, "sampling.Sample", 1e3) / static_cast<double>(draws) : 0;
  v["sampling.region_vertices"] =
      draws ? region_vertices / static_cast<double>(draws) : 0;
  v["domtree.lt_us"] =
      draws ? SumOf(*log, "domtree.ComputeDominatorTree", 1e3) /
                  static_cast<double>(draws)
            : 0;
  v["core.unify_ms"] = MedianOf(*log, "core.UnifySeeds");
  v["core.build_ms"] = MedianOf(*log, "core.Build");
  v["core.block_ms"] = MedianOf(*log, "core.Block");
  v["core.unblock_ms"] = MedianOf(*log, "core.Unblock");
  v["core.ag_ms"] = MedianOf(*log, "core.AdvancedGreedyWithEngine");
  v["core.gr_ms"] = MedianOf(*log, "core.GreedyReplaceWithEngine");
  v["core.restore_ms"] = MedianOf(*log, "core.Restore");
  v["core.migrate_ms"] = MedianOf(*log, "core.MigrateGraph");
  v["core.migrated_samples"] = static_cast<double>(migrated_samples);
  v["core.entry_bytes"] = entry_bytes.empty() ? 0 : Median(entry_bytes);
  v["cascade.eval_ms"] = MedianOf(*log, "cascade.EvaluateSpread");
}

}  // namespace perfbench
