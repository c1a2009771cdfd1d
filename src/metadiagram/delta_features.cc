#include "src/metadiagram/delta_features.h"

#include <algorithm>
#include <functional>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/linalg/sparse_ops.h"

namespace activeiter {
namespace {

/// Result of incrementally bringing one expression up to date: the new
/// count matrix plus the sorted output rows that may differ from last
/// epoch (a superset is fine — recomputing an unchanged row is harmless).
struct IncResult {
  std::shared_ptr<const SparseMatrix> matrix;
  std::vector<uint32_t> changed;
};

/// Changed output rows of left·right: the left factor's changed rows plus
/// every left row that reads a changed row of the right factor. One
/// O(nnz(left)) mask scan — far below the product's flop count.
std::vector<uint32_t> ChangedProductRows(const IncResult& left,
                                         const IncResult& right) {
  if (right.changed.empty()) return left.changed;
  std::vector<uint8_t> mask(right.matrix->rows(), 0);
  for (uint32_t r : right.changed) mask[r] = 1;
  const auto& ptr = left.matrix->row_ptr();
  const auto& col = left.matrix->col_idx();
  std::vector<uint32_t> reached;
  for (size_t i = 0; i < left.matrix->rows(); ++i) {
    for (size_t k = ptr[i]; k < ptr[i + 1]; ++k) {
      if (mask[col[k]]) {
        reached.push_back(static_cast<uint32_t>(i));
        break;
      }
    }
  }
  if (left.changed.empty()) return reached;
  std::vector<uint32_t> merged;
  merged.reserve(left.changed.size() + reached.size());
  std::set_union(left.changed.begin(), left.changed.end(), reached.begin(),
                 reached.end(), std::back_inserter(merged));
  return merged;
}

}  // namespace

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
    // child i's target.
    std::vector<std::string> sigs;
    const auto& children = node->children();
    sigs.push_back(children.front()->signature());
    for (size_t i = 1; i < children.size(); ++i) {
      sigs.push_back(children[i]->signature());
      shape_of_sig_.emplace(
          ChainSignature(sigs),
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

void DeltaFeatureExtractor::NoteDelta(const PairDelta& delta) {
  const GraphDelta* sides[2] = {&delta.first, &delta.second};
  for (int s = 0; s < 2; ++s) {
    NetworkSide side = s == 0 ? NetworkSide::kFirst : NetworkSide::kSecond;
    for (RelationType rel : sides[s]->TouchedRelations()) {
      dirty_tokens_.insert(StepRef::Rel(side, rel, true).Token());
      dirty_tokens_.insert(StepRef::Rel(side, rel, false).Token());
    }
    // Record which adjacency rows each new edge touches: (src, dst) adds
    // an entry in row src of the forward matrix and row dst of the
    // backward one. These sets bound the incremental SpGEMM in Refresh().
    // A removed edge touches exactly the same rows — the splice path does
    // not care whether a row gained or lost entries, only that it must be
    // recomputed — so shrink deltas flow through the same machinery.
    for (const EdgeDelta& e : sides[s]->edges) {
      changed_step_rows_[StepRef::Rel(side, e.relation, true).Token()]
          .insert(static_cast<uint32_t>(e.src));
      changed_step_rows_[StepRef::Rel(side, e.relation, false).Token()]
          .insert(static_cast<uint32_t>(e.dst));
    }
    for (const EdgeDelta& e : sides[s]->removed_edges) {
      changed_step_rows_[StepRef::Rel(side, e.relation, true).Token()]
          .insert(static_cast<uint32_t>(e.src));
      changed_step_rows_[StepRef::Rel(side, e.relation, false).Token()]
          .insert(static_cast<uint32_t>(e.dst));
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

  auto new_ctx = std::make_unique<RelationContext>(*pair_, train_anchors_,
                                                   options_.pool);
  auto new_cache = std::make_unique<ProductPlanCache>();
  std::vector<std::string> dirty_sigs;  // splice candidates, decided below
  if (cache_ != nullptr) {
    // Migrate survivors: drop step aliases (the new context re-serves
    // them); pad everything clean to the grown universes. Padding is
    // exact — new nodes have no edges, so the padded product equals the
    // recomputed one. Entries reachable from a dirty relation are not
    // dropped yet: the splicing pass below may still serve them by
    // recomputing only the delta-reachable rows.
    cache_->ForEach([&](const std::string& sig,
                        const std::shared_ptr<const SparseMatrix>& m) {
      if (step_sigs_.count(sig) != 0) return;
      for (const std::string& token : dirty_tokens_) {
        if (sig.find(token) != std::string::npos) {
          if (shape_of_sig_.count(sig) != 0) {
            dirty_sigs.push_back(sig);
          } else {
            ++stats_.intermediates_dropped;
          }
          return;
        }
      }
      auto it = shape_of_sig_.find(sig);
      if (it == shape_of_sig_.end()) {
        ++stats_.intermediates_dropped;
        return;
      }
      const Shape& shape = it->second;
      new_cache->Store(sig,
                       std::make_shared<SparseMatrix>(m->PaddedTo(
                           UniverseOf(shape.src_type, shape.src_side),
                           UniverseOf(shape.dst_type, shape.dst_side))));
      ++stats_.intermediates_migrated;
    });
  }
  auto old_cache = std::move(cache_);
  ctx_ = std::move(new_ctx);
  cache_ = std::move(new_cache);

  // Delta-bounded incremental pass: serve dirty chain products by splicing
  // only the delta-reachable rows over last epoch's cache.
  std::unordered_set<std::string> row_updated_roots;
  if (old_cache != nullptr && !dirty_sigs.empty() &&
      options_.spgemm_row_update_max_fraction > 0.0) {
    row_updated_roots = RowUpdateDirtyRoots(*old_cache);
  }
  // Whatever the splicing pass did not rescue is dropped for real.
  for (const std::string& sig : dirty_sigs) {
    if (cache_->Peek(sig) == nullptr) ++stats_.intermediates_dropped;
  }
  dirty_tokens_.clear();
  changed_step_rows_.clear();
  pending_refresh_ = false;

  // Row-updated diagrams count as dirty columns: their count matrices
  // changed, and Dice proximity renormalises over global column sums, so
  // their score tables must rebuild even though no chain re-ran in full.
  std::vector<size_t> dirty_columns;
  std::vector<bool> is_dirty(catalog_.size(), false);
  for (size_t k = 0; k < catalog_.size(); ++k) {
    const std::string sig = catalog_[k].Signature();
    if (cache_->Peek(sig) == nullptr) {
      dirty_columns.push_back(k);
      is_dirty[k] = true;
      ++stats_.diagrams_recomputed;
    } else if (row_updated_roots.count(sig) != 0) {
      dirty_columns.push_back(k);
      is_dirty[k] = true;
      ++stats_.diagrams_row_updated;
    } else {
      ++stats_.diagrams_reused;
    }
  }

  EvaluatorOptions eval_options;
  eval_options.pool = options_.pool;
  eval_options.shared_cache = cache_.get();
  DiagramEvaluator evaluator(ctx_.get(), eval_options);
  // Seed the shared prefixes serially before fanning out, exactly as
  // FeatureExtractor::EnsureScores does (clean chains are O(1) hits).
  for (const auto& d : catalog_) {
    if (d.root()->kind() == DiagramNode::Kind::kChain) evaluator.Evaluate(d);
  }
  // Only the dirty diagrams re-run their DAGs and rebuild their proximity
  // tables; clean ones carry last epoch's table over, padded to the grown
  // universes (values unchanged — new users have no instances).
  const size_t users_first = UniverseOf(NodeType::kUser, NetworkSide::kFirst);
  const size_t users_second =
      UniverseOf(NodeType::kUser, NetworkSide::kSecond);
  std::vector<std::shared_ptr<const ProximityScores>> computed(
      catalog_.size());
  for (size_t k = 0; k < catalog_.size(); ++k) {
    if (is_dirty[k] || tables_ == nullptr) continue;
    computed[k] = std::make_shared<ProximityScores>(
        tables_->table(k).PaddedTo(users_first, users_second));
  }
  ThreadPool::ParallelFor(options_.pool, dirty_columns.size(), [&](size_t i) {
    const size_t k = dirty_columns[i];
    auto counts = evaluator.Evaluate(catalog_[k]);
    computed[k] = std::make_shared<ProximityScores>(*counts);
  });
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

std::unordered_set<std::string>
DeltaFeatureExtractor::RowUpdateDirtyRoots(const ProductPlanCache& old_cache) {
  const double max_fraction = options_.spgemm_row_update_max_fraction;
  // Signature → incremental result for everything resolved this pass
  // (clean adoptions get an empty changed set). Values are address-stable
  // (node-based map), so IncResult pointers survive later insertions.
  std::unordered_map<std::string, IncResult> memo;
  std::unordered_set<std::string> failed;   // bailed to full recompute
  std::unordered_set<std::string> spliced;  // stored into cache_ this pass

  // Last epoch's product for `sig`, padded to the grown universes (exact:
  // new nodes have no edges), or nullptr when the old cache never held it.
  auto padded_base =
      [&](const std::string& sig) -> std::shared_ptr<const SparseMatrix> {
    auto m = old_cache.Peek(sig);
    if (m == nullptr) return nullptr;
    auto it = shape_of_sig_.find(sig);
    if (it == shape_of_sig_.end()) return nullptr;
    const Shape& shape = it->second;
    return std::make_shared<SparseMatrix>(
        m->PaddedTo(UniverseOf(shape.src_type, shape.src_side),
                    UniverseOf(shape.dst_type, shape.dst_side)));
  };

  // Memo first, then the already-migrated (clean) entries of the new
  // cache; both carry no pending row changes beyond what memo recorded.
  auto resolve = [&](const std::string& sig) -> const IncResult* {
    auto it = memo.find(sig);
    if (it != memo.end()) return &it->second;
    if (auto m = cache_->Peek(sig)) {
      return &memo.emplace(sig, IncResult{std::move(m), {}}).first->second;
    }
    return nullptr;
  };

  std::function<const IncResult*(const ExprPtr&)> eval =
      [&](const ExprPtr& node) -> const IncResult* {
    const std::string& sig = node->signature();
    if (failed.count(sig) != 0) return nullptr;
    if (const IncResult* hit = resolve(sig)) return hit;
    switch (node->kind()) {
      case DiagramNode::Kind::kStep: {
        IncResult r;
        // Non-owning alias, exactly as the evaluator serves steps; the
        // context holds the *current* adjacency already.
        r.matrix = std::shared_ptr<const SparseMatrix>(
            std::shared_ptr<const void>(), &ctx_->Get(node->step()));
        auto rows = changed_step_rows_.find(sig);
        if (rows != changed_step_rows_.end()) {
          r.changed.assign(rows->second.begin(), rows->second.end());
          std::sort(r.changed.begin(), r.changed.end());
        }
        return &memo.emplace(sig, std::move(r)).first->second;
      }
      case DiagramNode::Kind::kChain: {
        // Prefix walk mirroring DiagramEvaluator::EvaluateChain: adopt
        // clean prefixes, splice dirty ones over last epoch's product.
        const auto& children = node->children();
        const IncResult* cur = eval(children.front());
        if (cur == nullptr) {
          failed.insert(sig);
          return nullptr;
        }
        std::vector<std::string> sigs{children.front()->signature()};
        for (size_t i = 1; i < children.size(); ++i) {
          sigs.push_back(children[i]->signature());
          const std::string prefix_sig = ChainSignature(sigs);
          if (const IncResult* clean = resolve(prefix_sig)) {
            cur = clean;
            continue;
          }
          const IncResult* rhs = eval(children[i]);
          if (rhs == nullptr) {
            failed.insert(sig);
            return nullptr;
          }
          IncResult next;
          next.changed = ChangedProductRows(*cur, *rhs);
          // Decide before padding: a prefix that bails would throw the
          // O(nnz) padded copy away.
          std::shared_ptr<const SparseMatrix> base;
          if (static_cast<double>(next.changed.size()) <=
              max_fraction * static_cast<double>(cur->matrix->rows())) {
            base = padded_base(prefix_sig);
          }
          if (base == nullptr) {
            failed.insert(sig);
            return nullptr;
          }
          next.matrix = cache_->Store(
              prefix_sig, std::make_shared<SparseMatrix>(
                              SpGemmRowUpdate(*base, *cur->matrix,
                                              *rhs->matrix, next.changed,
                                              options_.pool)));
          spliced.insert(prefix_sig);
          ++stats_.intermediates_row_updated;
          cur = &memo.emplace(prefix_sig, std::move(next)).first->second;
        }
        return cur;  // the last prefix signature IS the chain signature
      }
      case DiagramNode::Kind::kParallel: {
        // A face-split node's branches X·Y are never formed: the node is
        // recomputed in O(posts) rather than spliced, and each branch's
        // changed rows follow from X's and Y's. Any other stack refolds its
        // Hadamard in the evaluator's exact child order (elementwise,
        // O(nnz) — far below any chain product). Changed rows of an
        // elementwise product are a subset of the union of the branches'.
        const bool face_split = IsFaceSplit(*node);
        std::vector<const SparseMatrix*> xs, ys, branches;
        std::vector<std::vector<uint32_t>> branch_changed;
        for (const auto& c : node->children()) {
          if (face_split) {
            const IncResult* x = eval(c->children()[0]);
            const IncResult* y =
                x != nullptr ? eval(c->children()[1]) : nullptr;
            if (y == nullptr) {
              failed.insert(sig);
              return nullptr;
            }
            xs.push_back(x->matrix.get());
            ys.push_back(y->matrix.get());
            branch_changed.push_back(ChangedProductRows(*x, *y));
            continue;
          }
          const IncResult* b = eval(c);
          if (b == nullptr) {
            failed.insert(sig);
            return nullptr;
          }
          branches.push_back(b->matrix.get());
          branch_changed.push_back(b->changed);
        }
        SparseMatrix m = face_split
                             ? FaceSplitHadamard(xs, ys, options_.pool)
                             : Hadamard(*branches[0], *branches[1],
                                        options_.pool);
        for (size_t i = 2; i < branches.size(); ++i) {
          m = Hadamard(m, *branches[i], options_.pool);
        }
        IncResult r;
        for (std::vector<uint32_t>& changed : branch_changed) {
          if (changed.empty()) continue;
          if (r.changed.empty()) {
            r.changed = std::move(changed);
            continue;
          }
          std::vector<uint32_t> merged;
          merged.reserve(r.changed.size() + changed.size());
          std::set_union(r.changed.begin(), r.changed.end(), changed.begin(),
                         changed.end(), std::back_inserter(merged));
          r.changed = std::move(merged);
        }
        r.matrix =
            cache_->Store(sig, std::make_shared<SparseMatrix>(std::move(m)));
        spliced.insert(sig);
        ++stats_.intermediates_row_updated;
        return &memo.emplace(sig, std::move(r)).first->second;
      }
    }
    failed.insert(sig);
    return nullptr;
  };

  std::unordered_set<std::string> served;
  for (const auto& d : catalog_) {
    const std::string sig = d.Signature();
    // A root can already be spliced as a sub-expression of an earlier one
    // (meta paths are branches of the fused diagrams); a Peek hit outside
    // `spliced` is a clean migration and needs nothing.
    if (spliced.count(sig) == 0 && cache_->Peek(sig) == nullptr) {
      eval(d.root());
    }
    if (spliced.count(sig) != 0) served.insert(sig);
  }
  return served;
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
