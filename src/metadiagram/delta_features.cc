#include "src/metadiagram/delta_features.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/linalg/sparse_ops.h"

namespace activeiter {
DeltaFeatureExtractor::DeltaFeatureExtractor(
    const AlignedPair& pair, std::vector<AnchorLink> train_anchors,
    FeatureExtractorOptions options)
    : pair_(&pair),
      train_anchors_(std::move(train_anchors)),
      options_(options),
      catalog_(StandardDiagramCatalog(options.feature_set,
                                      options.include_word_path)) {
  names_.reserve(catalog_.size());
  for (const auto& d : catalog_) names_.push_back(d.id());
  for (const auto& d : catalog_) IndexShapes(d.root());
}

void DeltaFeatureExtractor::IndexShapes(const ExprPtr& node) {
  auto [it, fresh] = plans_.try_emplace(node.get());
  if (!fresh) return;  // a shared subtree
  NodePlan& plan = it->second;
  plan.transposed = TransposedSignature(*node);
  const std::string& sig = node->signature();
  if (node->kind() == DiagramNode::Kind::kStep) {
    step_sigs_.insert(sig);
  }
  shape_of_sig_.emplace(
      sig, Shape{node->source_type(), node->source_side(),
                 node->target_type(), node->target_side()});
  if (node->kind() == DiagramNode::Kind::kChain) {
    // The evaluator stores every chain *prefix* under
    // ChainSignature(child sigs 0..i); its shape spans child 0's source to
    // child i's target, and its reversal chains the transposed children
    // backwards.
    const auto& children = node->children();
    std::vector<std::string> sigs{children.front()->signature()};
    std::vector<std::string> tsigs{TransposedSignature(*children.front())};
    for (size_t i = 1; i < children.size(); ++i) {
      sigs.push_back(children[i]->signature());
      tsigs.push_back(TransposedSignature(*children[i]));
      plan.prefixes.push_back(ChainSignature(sigs));
      plan.reversed_prefixes.push_back(
          ChainSignature({tsigs.rbegin(), tsigs.rend()}));
      shape_of_sig_.emplace(
          plan.prefixes.back(),
          Shape{children.front()->source_type(),
                children.front()->source_side(), children[i]->target_type(),
                children[i]->target_side()});
    }
  }
  for (const auto& child : node->children()) IndexShapes(child);
}

size_t DeltaFeatureExtractor::UniverseOf(NodeType type,
                                         NetworkSide side) const {
  const HeteroNetwork& net =
      side == NetworkSide::kFirst ? pair_->first() : pair_->second();
  return net.NodeCount(type);
}

std::vector<uint32_t>& DeltaFeatureExtractor::TouchedRows(
    NetworkSide side, RelationType relation, bool forward) {
  return touched_rows_[(side == NetworkSide::kFirst ? 0 : 2) +
                       (forward ? 0 : 1) +
                       4 * static_cast<size_t>(relation)];
}

bool DeltaFeatureExtractor::Dirty(const std::string& sig) const {
  for (const std::string& token : dirty_tokens_) {
    if (sig.find(token) != std::string::npos) return true;
  }
  return false;
}

void DeltaFeatureExtractor::NoteDelta(const PairDelta& delta) {
  const GraphDelta* sides[2] = {&delta.first, &delta.second};
  for (int s = 0; s < 2; ++s) {
    NetworkSide side = s == 0 ? NetworkSide::kFirst : NetworkSide::kSecond;
    for (RelationType rel : sides[s]->TouchedRelations()) {
      dirty_tokens_.insert(StepRef::Rel(side, rel, true).Token());
      dirty_tokens_.insert(StepRef::Rel(side, rel, false).Token());
    }
    // Record which adjacency rows each added or removed edge touches.
    // Refresh() diffs exactly these rows against the previous context, so
    // growth and shrink deltas flow through the same path.
    for (const auto* edges : {&sides[s]->edges, &sides[s]->removed_edges}) {
      for (const EdgeDelta& e : *edges) {
        TouchedRows(side, e.relation, true).push_back(e.src);
        TouchedRows(side, e.relation, false).push_back(e.dst);
      }
    }
  }
  // Node growth (and the anchor matrices, whose user dimensions track it)
  // needs a context rebuild even when no cached product is dirtied.
  if (!delta.empty()) pending_refresh_ = true;
}

std::vector<size_t> DeltaFeatureExtractor::Refresh() {
  if (!pending()) return {};
  const RefreshStats before = stats_;  // registry delta published at exit
  ++stats_.refreshes;

  // Last epoch's context stays alive until the refresh ends: the step Δs
  // diff against it.
  std::unique_ptr<RelationContext> old_ctx = std::move(ctx_);
  ctx_ = std::make_unique<RelationContext>(*pair_, train_anchors_,
                                           options_.pool);
  std::unique_ptr<ProductPlanCache> old_cache = std::move(cache_);
  cache_ = std::make_unique<ProductPlanCache>();
  const size_t users_first = UniverseOf(NodeType::kUser, NetworkSide::kFirst);
  const size_t users_second =
      UniverseOf(NodeType::kUser, NetworkSide::kSecond);
  std::vector<std::shared_ptr<const ProximityScores>> computed(
      catalog_.size());
  std::vector<size_t> dirty_columns;
  if (old_cache == nullptr) {
    // The first refresh evaluates every diagram in full, exactly as
    // FeatureExtractor::EnsureScores does: the shared prefixes seeded
    // serially, then the fan-out.
    EvaluatorOptions eval_options;
    eval_options.pool = options_.pool;
    eval_options.shared_cache = cache_.get();
    DiagramEvaluator evaluator(ctx_.get(), eval_options);
    for (const auto& d : catalog_) {
      if (d.root()->kind() == DiagramNode::Kind::kChain) evaluator.Evaluate(d);
    }
    ThreadPool::ParallelFor(options_.pool, catalog_.size(), [&](size_t k) {
      computed[k] =
          std::make_shared<ProximityScores>(evaluator.Evaluate(catalog_[k]));
    });
    for (size_t k = 0; k < catalog_.size(); ++k) dirty_columns.push_back(k);
    stats_.diagrams_recomputed += catalog_.size();
  } else {
    // Migrate survivors: drop step aliases (the new context re-serves
    // them); pad everything clean to the grown universes. Padding is
    // exact — new nodes have no edges, so the padded product equals the
    // recomputed one. Dirty entries wait for the Δ pass.
    std::vector<std::string> dirty_sigs;
    old_cache->ForEach([&](const std::string& sig,
                           const std::shared_ptr<const SparseMatrix>& m) {
      if (step_sigs_.count(sig) != 0) return;
      auto it = shape_of_sig_.find(sig);
      if (it == shape_of_sig_.end()) {
        ++stats_.intermediates_dropped;
        return;
      }
      if (Dirty(sig)) {
        dirty_sigs.push_back(sig);
        return;
      }
      const Shape& shape = it->second;
      cache_->Store(sig, std::make_shared<SparseMatrix>(m->PaddedTo(
                             UniverseOf(shape.src_type, shape.src_side),
                             UniverseOf(shape.dst_type, shape.dst_side))));
      ++stats_.intermediates_migrated;
    });
    const std::unordered_map<std::string, Carried> carried =
        CarryForward(*old_cache, *old_ctx);
    // A dirty entry the Δ pass did not reach is dropped.
    for (const std::string& sig : dirty_sigs) {
      if (cache_->Peek(sig) == nullptr) ++stats_.intermediates_dropped;
    }
    // Carried diagrams count as dirty columns: their count matrices may
    // have changed, and Dice renormalises over whole rows and columns.
    // Each table is last epoch's carried forward by its root's Δ, or by
    // none for a clean root, whose migrated product is only padded.
    for (size_t k = 0; k < catalog_.size(); ++k) {
      const std::string& sig = catalog_[k].root()->signature();
      if (auto it = carried.find(sig); it != carried.end()) {
        dirty_columns.push_back(k);
        ++stats_.diagrams_row_updated;
        computed[k] = std::make_shared<ProximityScores>(
            tables_->table(k).CarriedForward(it->second.now,
                                             it->second.delta.get()));
      } else {
        ++stats_.diagrams_reused;
        computed[k] = std::make_shared<ProximityScores>(
            tables_->table(k).CarriedForward(cache_->Peek(sig), nullptr));
      }
    }
  }
  dirty_tokens_.clear();
  for (std::vector<uint32_t>& rows : touched_rows_) rows.clear();
  pending_refresh_ = false;
  tables_ = std::make_shared<const ProximityTables>(
      std::move(computed), users_first, users_second);
  initialised_ = true;
  PublishRefreshStatsDelta(before);
  return dirty_columns;
}

// Per-instance accounting stays in stats_ (and behind the stats()
// accessor, unchanged); the process-wide registry additionally carries the
// sums across every live extractor, published once per Refresh as the diff
// against entry — one relaxed add per field per refresh, nothing per row.
void DeltaFeatureExtractor::PublishRefreshStatsDelta(
    const RefreshStats& before) {
  struct RegistryCounters {
    Counter* refreshes;
    Counter* diagrams_recomputed;
    Counter* diagrams_reused;
    Counter* diagrams_row_updated;
    Counter* intermediates_dropped;
    Counter* intermediates_migrated;
    Counter* intermediates_row_updated;
  };
  static const RegistryCounters counters = [] {
    MetricsRegistry& registry = MetricsRegistry::Default();
    return RegistryCounters{
        registry.GetCounter("metadiagram.refreshes"),
        registry.GetCounter("metadiagram.diagrams_recomputed"),
        registry.GetCounter("metadiagram.diagrams_reused"),
        registry.GetCounter("metadiagram.diagrams_row_updated"),
        registry.GetCounter("metadiagram.intermediates_dropped"),
        registry.GetCounter("metadiagram.intermediates_migrated"),
        registry.GetCounter("metadiagram.intermediates_row_updated"),
    };
  }();
  counters.refreshes->Add(stats_.refreshes - before.refreshes);
  counters.diagrams_recomputed->Add(stats_.diagrams_recomputed -
                                    before.diagrams_recomputed);
  counters.diagrams_reused->Add(stats_.diagrams_reused -
                                before.diagrams_reused);
  counters.diagrams_row_updated->Add(stats_.diagrams_row_updated -
                                     before.diagrams_row_updated);
  counters.intermediates_dropped->Add(stats_.intermediates_dropped -
                                      before.intermediates_dropped);
  counters.intermediates_migrated->Add(stats_.intermediates_migrated -
                                       before.intermediates_migrated);
  counters.intermediates_row_updated->Add(stats_.intermediates_row_updated -
                                          before.intermediates_row_updated);
}

std::unordered_map<std::string, DeltaFeatureExtractor::Carried>
DeltaFeatureExtractor::CarryForward(const ProductPlanCache& old_cache,
                                    const RelationContext& old_ctx) {
  // Signature → this epoch's node, for everything resolved this pass
  // (clean migrated entries included, with no Δ). Node-based map, so
  // pointers into it survive later insertions.
  std::unordered_map<std::string, Carried> memo;
  auto resolve = [&](const std::string& sig) -> const Carried* {
    auto it = memo.find(sig);
    if (it != memo.end()) return &it->second;
    if (auto m = cache_->Peek(sig)) {
      return &memo.emplace(sig, Carried{std::move(m), nullptr}).first->second;
    }
    return nullptr;
  };
  auto nonempty = [](SparseMatrix m) -> std::shared_ptr<const SparseMatrix> {
    if (m.nnz() == 0) return nullptr;
    return std::make_shared<const SparseMatrix>(std::move(m));
  };
  // Stores this epoch's value of `sig` given its exact change `delta`:
  // last epoch's product plus delta, or full() when there was none.
  auto finish = [&](const std::string& sig,
                    std::shared_ptr<const SparseMatrix> delta,
                    const std::function<SparseMatrix()>& full)
      -> const Carried& {
    std::shared_ptr<const SparseMatrix> now;
    if (auto prev = old_cache.Peek(sig)) {
      const Shape& shape = shape_of_sig_.at(sig);
      const size_t rows = UniverseOf(shape.src_type, shape.src_side);
      const size_t cols = UniverseOf(shape.dst_type, shape.dst_side);
      if (delta != nullptr) {
        now = std::make_shared<const SparseMatrix>(AddDelta(*prev, *delta));
      } else if (prev->rows() == rows && prev->cols() == cols) {
        now = std::move(prev);
      } else {
        now = std::make_shared<const SparseMatrix>(prev->PaddedTo(rows, cols));
      }
      ++stats_.intermediates_row_updated;
    } else {
      now = std::make_shared<const SparseMatrix>(full());
    }
    now = cache_->Store(sig, std::move(now));
    return memo.emplace(sig, Carried{std::move(now), std::move(delta)})
        .first->second;
  };
  // The node its reversal `twin` serves, as the evaluator does.
  auto transposed = [&](const std::string& sig,
                        const Carried& twin) -> const Carried& {
    return finish(sig,
                  twin.delta != nullptr
                      ? std::make_shared<const SparseMatrix>(
                            Transpose(*twin.delta))
                      : nullptr,
                  [&] { return Transpose(*twin.now, options_.pool); });
  };

  // Mirrors DiagramEvaluator::Evaluate's choices (cache hit, then the
  // transposed twin, then the node's kind), so the entries it stores are
  // the ones the next refresh finds.
  std::function<const Carried&(const ExprPtr&)> eval =
      [&](const ExprPtr& node) -> const Carried& {
    const std::string& sig = node->signature();
    if (const Carried* hit = resolve(sig)) return *hit;
    const NodePlan& plan = plans_.at(node.get());
    if (node->kind() != DiagramNode::Kind::kStep) {
      if (const Carried* twin = resolve(plan.transposed)) {
        return transposed(sig, *twin);
      }
    }
    if (node->kind() == DiagramNode::Kind::kStep) {
      // Non-owning alias, exactly as the evaluator serves steps.
      const SparseMatrix& now = ctx_->Get(node->step());
      Carried c{std::shared_ptr<const SparseMatrix>(
                    std::shared_ptr<const void>(), &now),
                nullptr};
      const StepRef& step = node->step();
      if (!step.is_anchor) {
        std::vector<uint32_t> rows =
            TouchedRows(step.side, step.relation, step.forward);
        std::sort(rows.begin(), rows.end());
        rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
        if (!rows.empty()) {
          c.delta = nonempty(RowsDelta(now, old_ctx.Get(step), rows));
        }
      }
      return memo.emplace(sig, std::move(c)).first->second;
    }
    if (node->kind() == DiagramNode::Kind::kChain) {
      // Prefix walk mirroring DiagramEvaluator::EvaluateChain.
      const auto& children = node->children();
      const Carried* cur = &eval(children.front());
      for (size_t i = 1; i < children.size(); ++i) {
        const std::string& prefix_sig = plan.prefixes[i - 1];
        if (const Carried* hit = resolve(prefix_sig)) {
          cur = hit;
        } else if (const Carried* twin =
                       resolve(plan.reversed_prefixes[i - 1])) {
          cur = &transposed(prefix_sig, *twin);
        } else {
          const Carried& l = *cur;
          const Carried& r = eval(children[i]);
          cur = &finish(
              prefix_sig,
              nonempty(SpGemmDelta(*l.now, l.delta.get(), *r.now,
                                   r.delta.get())),
              [&] { return SpGemm(*l.now, *r.now, options_.pool); });
        }
      }
      return *cur;  // the last prefix signature IS the chain signature
    }
    std::vector<const SparseMatrix*> nows, deltas;
    bool changed = false;
    if (IsFaceSplit(*node)) {
      std::vector<const SparseMatrix*> ys, dys;
      for (const auto& branch : node->children()) {
        const Carried& x = eval(branch->children()[0]);
        const Carried& y = eval(branch->children()[1]);
        nows.push_back(x.now.get());
        deltas.push_back(x.delta.get());
        ys.push_back(y.now.get());
        dys.push_back(y.delta.get());
        changed = changed || x.delta != nullptr || y.delta != nullptr;
      }
      return finish(
          sig,
          changed ? nonempty(FaceSplitHadamardDelta(nows, deltas, ys, dys))
                  : nullptr,
          [&] { return FaceSplitHadamard(nows, ys, options_.pool); });
    }
    for (const auto& branch : node->children()) {
      const Carried& b = eval(branch);
      nows.push_back(b.now.get());
      deltas.push_back(b.delta.get());
      changed = changed || b.delta != nullptr;
    }
    const auto before = old_cache.Peek(sig);
    return finish(
        sig,
        changed ? nonempty(HadamardDelta(before.get(), nows, deltas)) : nullptr,
        [&] {
          SparseMatrix m = Hadamard(*nows[0], *nows[1], options_.pool);
          for (size_t i = 2; i < nows.size(); ++i) {
            m = Hadamard(m, *nows[i], options_.pool);
          }
          return m;
        });
  };

  // Chain roots first, then the rest, in catalog order: the order the
  // evaluator's seeding and fan-out visit them in.
  std::unordered_map<std::string, Carried> roots;
  for (bool chains : {true, false}) {
    for (const auto& d : catalog_) {
      if ((d.root()->kind() == DiagramNode::Kind::kChain) != chains) continue;
      const std::string& sig = d.root()->signature();
      if (Dirty(sig) && roots.count(sig) == 0) {
        roots.emplace(sig, eval(d.root()));
      }
    }
  }
  return roots;
}

Matrix DeltaFeatureExtractor::Extract(const CandidateLinkSet& candidates) {
  Refresh();
  return tables_->Gather(candidates).ToDense();
}

std::shared_ptr<const ProximityTables> DeltaFeatureExtractor::tables() const {
  ACTIVEITER_CHECK_MSG(initialised_ && !pending_refresh_,
                       "Refresh() must run before tables()");
  return tables_;
}

SparseMatrix ProximityTables::Gather(
    const CandidateLinkSet& candidates) const {
  ACTIVEITER_CHECK_MSG(candidates.removed_count() == 0,
                       "Gather reads a compacted candidate set");
  for (const auto& table : scores_) {
    ACTIVEITER_CHECK(table->counts().rows() == users_first_ &&
                     table->counts().cols() == users_second_);
  }
  const auto& links = candidates.links();
  const size_t n = links.size();
  // Link ids bucketed by network-1 user: count, prefix-sum, scatter.
  std::vector<size_t> user_ptr(users_first_ + 1, 0);
  for (const auto& [u1, u2] : links) {
    ACTIVEITER_CHECK_MSG(u1 < users_first_ && u2 < users_second_,
                         "candidate outside the tables' user universes");
    ++user_ptr[u1 + 1];
  }
  for (size_t u = 0; u < users_first_; ++u) user_ptr[u + 1] += user_ptr[u];
  std::vector<size_t> cursor(user_ptr.begin(), user_ptr.end() - 1);
  std::vector<uint32_t> by_user(n);
  for (uint32_t id = 0; id < n; ++id) by_user[cursor[links[id].first]++] = id;

  // Per user, partner[u2] heads the chain (through next_link) of its links
  // to u2, as a pair may repeat; then its row of every table is walked in
  // column order, so each link meets its columns ascending.
  struct Entry {
    uint32_t link, col;
    double value;
  };
  constexpr uint32_t kNone = static_cast<uint32_t>(-1);
  std::vector<uint32_t> partner(users_second_, kNone), next_link(n, kNone);
  std::vector<Entry> entries;
  std::vector<size_t> row_ptr(n + 1, 0);  // entries per link, then offsets
  for (size_t u = 0; u < users_first_; ++u) {
    const uint32_t* first = by_user.data() + user_ptr[u];
    const uint32_t* last = by_user.data() + user_ptr[u + 1];
    if (first == last) continue;
    for (const uint32_t* id = first; id != last; ++id) {
      next_link[*id] = std::exchange(partner[links[*id].second], *id);
    }
    for (uint32_t k = 0; k < scores_.size(); ++k) {
      const SparseMatrix& counts = scores_[k]->counts();
      for (size_t e = counts.row_ptr()[u]; e < counts.row_ptr()[u + 1]; ++e) {
        const uint32_t u2 = counts.col_idx()[e];
        const double c = counts.values()[e];
        if (partner[u2] == kNone || c == 0.0) continue;
        const double value = scores_[k]->DiceOf(u, u2, c);
        if (value == 0.0) continue;  // CompressDense would drop it
        for (uint32_t id = partner[u2]; id != kNone; id = next_link[id]) {
          entries.push_back({id, k, value});
          ++row_ptr[id + 1];
        }
      }
    }
    for (const uint32_t* id = first; id != last; ++id) {
      partner[links[*id].second] = kNone;
    }
  }

  // A stable scatter by link keeps each row's columns ascending; the bias
  // closes every row.
  for (size_t id = 0; id < n; ++id) row_ptr[id + 1] += row_ptr[id] + 1;
  const auto bias = static_cast<uint32_t>(scores_.size());
  std::vector<uint32_t> col_idx(row_ptr[n], bias);
  std::vector<double> values(row_ptr[n], 1.0);
  cursor.assign(row_ptr.begin(), row_ptr.end() - 1);
  for (const Entry& e : entries) {
    col_idx[cursor[e.link]] = e.col;
    values[cursor[e.link]++] = e.value;
  }
  return SparseMatrix::FromCsrUnchecked(n, dimension(), std::move(row_ptr),
                                        std::move(col_idx),
                                        std::move(values));
}

}  // namespace activeiter
