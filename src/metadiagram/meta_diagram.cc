#include "src/metadiagram/meta_diagram.h"

#include <algorithm>

#include "src/common/string_util.h"
#include "src/linalg/sparse_ops.h"

namespace activeiter {
namespace {

bool IsSharedAttributeType(NodeType t) {
  return t != NodeType::kUser && t != NodeType::kPost;
}

}  // namespace

ExprPtr DiagramBuilder::Step(const StepRef& step) {
  auto node = std::shared_ptr<DiagramNode>(new DiagramNode());
  node->kind_ = DiagramNode::Kind::kStep;
  node->step_ = step;
  node->source_type_ = step.SourceNodeType();
  node->target_type_ = step.TargetNodeType();
  node->source_side_ = step.SourceSide();
  node->target_side_ = step.TargetSide();
  node->signature_ = step.Token();
  return node;
}

Result<ExprPtr> DiagramBuilder::Chain(std::vector<ExprPtr> children) {
  if (children.empty()) {
    return Status::InvalidArgument("Chain needs at least one child");
  }
  for (size_t i = 0; i + 1 < children.size(); ++i) {
    NodeType junction = children[i]->target_type();
    bool shared = IsSharedAttributeType(junction);
    if (junction != children[i + 1]->source_type() ||
        (!shared &&
         children[i]->target_side() != children[i + 1]->source_side())) {
      return Status::InvalidArgument(StrFormat(
          "Chain children %zu and %zu do not compose (%s vs %s)", i, i + 1,
          children[i]->signature().c_str(),
          children[i + 1]->signature().c_str()));
    }
  }
  if (children.size() == 1) return children[0];
  auto node = std::shared_ptr<DiagramNode>(new DiagramNode());
  node->kind_ = DiagramNode::Kind::kChain;
  node->source_type_ = children.front()->source_type();
  node->source_side_ = children.front()->source_side();
  node->target_type_ = children.back()->target_type();
  node->target_side_ = children.back()->target_side();
  std::vector<std::string> sigs;
  sigs.reserve(children.size());
  for (const auto& c : children) sigs.push_back(c->signature());
  node->signature_ = "(" + Join(sigs, ".") + ")";
  node->children_ = std::move(children);
  return ExprPtr(node);
}

Result<ExprPtr> DiagramBuilder::Parallel(std::vector<ExprPtr> children) {
  if (children.empty()) {
    return Status::InvalidArgument("Parallel needs at least one child");
  }
  const auto& first = children.front();
  for (size_t i = 1; i < children.size(); ++i) {
    const auto& c = children[i];
    bool src_shared = IsSharedAttributeType(first->source_type());
    bool dst_shared = IsSharedAttributeType(first->target_type());
    if (c->source_type() != first->source_type() ||
        c->target_type() != first->target_type() ||
        (!src_shared && c->source_side() != first->source_side()) ||
        (!dst_shared && c->target_side() != first->target_side())) {
      return Status::InvalidArgument(StrFormat(
          "Parallel branch %zu endpoints differ (%s vs %s)", i,
          first->signature().c_str(), c->signature().c_str()));
    }
  }
  // Stacking a branch with itself adds nothing (x ∘ x over the same
  // instances is the branch itself, instance-wise), so duplicate branches
  // are collapsed. This also keeps the canonical signature honest:
  // Parallel is a set of branches, commutative and idempotent.
  std::vector<ExprPtr> unique_children;
  for (auto& c : children) {
    bool seen = false;
    for (const auto& u : unique_children) {
      if (u->signature() == c->signature()) {
        seen = true;
        break;
      }
    }
    if (!seen) unique_children.push_back(std::move(c));
  }
  if (unique_children.size() == 1) return unique_children[0];
  auto node = std::shared_ptr<DiagramNode>(new DiagramNode());
  node->kind_ = DiagramNode::Kind::kParallel;
  const ExprPtr& head = unique_children.front();
  node->source_type_ = head->source_type();
  node->source_side_ = head->source_side();
  node->target_type_ = head->target_type();
  node->target_side_ = head->target_side();
  // Sort signatures so Parallel is canonically commutative.
  std::vector<std::string> sigs;
  sigs.reserve(unique_children.size());
  for (const auto& c : unique_children) sigs.push_back(c->signature());
  std::sort(sigs.begin(), sigs.end());
  node->signature_ = "[" + Join(sigs, "|") + "]";
  node->children_ = std::move(unique_children);
  return ExprPtr(node);
}

ExprPtr DiagramBuilder::FromMetaPath(const MetaPath& path) {
  std::vector<ExprPtr> steps;
  steps.reserve(path.steps().size());
  for (const auto& s : path.steps()) steps.push_back(Step(s));
  auto chain = Chain(std::move(steps));
  ACTIVEITER_CHECK_MSG(chain.ok(), chain.status().ToString());
  return std::move(chain).value();
}

Result<MetaDiagram> MetaDiagram::Create(std::string id, std::string semantics,
                                        ExprPtr root) {
  if (root == nullptr) {
    return Status::InvalidArgument("meta diagram needs an expression");
  }
  if (root->source_type() != NodeType::kUser ||
      root->target_type() != NodeType::kUser) {
    return Status::InvalidArgument(
        "meta diagram source/sink must be user node types (Definition 5)");
  }
  if (root->source_side() == root->target_side()) {
    return Status::InvalidArgument(
        "meta diagram must connect users across networks (Ns != Nt)");
  }
  return MetaDiagram(std::move(id), std::move(semantics), std::move(root));
}

MetaDiagram MetaDiagram::FromMetaPath(const MetaPath& path) {
  auto r = Create(path.id(), path.semantics(),
                  DiagramBuilder::FromMetaPath(path));
  ACTIVEITER_CHECK_MSG(r.ok(), r.status().ToString());
  return std::move(r).value();
}

std::string TransposedSignature(const DiagramNode& node) {
  switch (node.kind()) {
    case DiagramNode::Kind::kStep: {
      StepRef flipped = node.step();
      flipped.forward = !flipped.forward;
      return flipped.Token();
    }
    case DiagramNode::Kind::kChain: {
      std::vector<std::string> sigs;
      sigs.reserve(node.children().size());
      for (auto it = node.children().rbegin(); it != node.children().rend();
           ++it) {
        sigs.push_back(TransposedSignature(**it));
      }
      return ChainSignature(sigs);
    }
    case DiagramNode::Kind::kParallel: {
      std::vector<std::string> sigs;
      sigs.reserve(node.children().size());
      for (const auto& c : node.children()) {
        sigs.push_back(TransposedSignature(*c));
      }
      return ParallelSignature(std::move(sigs));
    }
  }
  return {};
}

bool IsFaceSplit(const DiagramNode& node) {
  if (node.kind() != DiagramNode::Kind::kParallel) return false;
  for (const auto& branch : node.children()) {
    if (branch->kind() != DiagramNode::Kind::kChain ||
        branch->children().size() != 2 ||
        !IsSharedAttributeType(branch->children()[0]->target_type())) {
      return false;
    }
  }
  return true;
}

DiagramEvaluator::DiagramEvaluator(const RelationContext* ctx,
                                   EvaluatorOptions options)
    : ctx_(ctx),
      options_(options),
      cache_(options.shared_cache != nullptr ? options.shared_cache
                                             : &owned_cache_) {
  ACTIVEITER_CHECK(ctx != nullptr);
}

std::shared_ptr<const SparseMatrix> DiagramEvaluator::EvaluateChain(
    const DiagramNode& node) {
  const auto& children = node.children();
  auto cur = Evaluate(children.front());
  // Prefix signatures in evaluation order; the transposed prefix signature
  // is the reversed chain of the transposed children. Only consumed when
  // prefixes are cached, so only built then.
  const bool track_transposes =
      options_.share_chain_prefixes && options_.share_transposes;
  std::vector<std::string> sigs{children.front()->signature()};
  std::vector<std::string> tsigs;
  if (track_transposes) {
    tsigs.push_back(TransposedSignature(*children.front()));
  }
  for (size_t i = 1; i < children.size(); ++i) {
    sigs.push_back(children[i]->signature());
    const std::string prefix_sig = ChainSignature(sigs);
    if (track_transposes) {
      tsigs.push_back(TransposedSignature(*children[i]));
    }
    if (options_.share_chain_prefixes) {
      if (auto hit = cache_->Lookup(prefix_sig)) {
        cur = hit;
        continue;
      }
      if (options_.share_transposes) {
        std::vector<std::string> rev(tsigs.rbegin(), tsigs.rend());
        if (auto reverse_hit = cache_->Peek(ChainSignature(rev))) {
          cache_->CountTransposeHit();
          cur = cache_->Store(prefix_sig, std::make_shared<SparseMatrix>(
                                             Transpose(*reverse_hit,
                                                       options_.pool)));
          continue;
        }
      }
    }
    auto rhs = Evaluate(children[i]);
    cache_->CountProduct();
    auto product =
        std::make_shared<SparseMatrix>(SpGemm(*cur, *rhs, options_.pool));
    cur = options_.share_chain_prefixes
              ? cache_->Store(prefix_sig, std::move(product))
              : std::shared_ptr<const SparseMatrix>(std::move(product));
  }
  return cur;
}

std::shared_ptr<const SparseMatrix> DiagramEvaluator::EvaluateFaceSplit(
    const DiagramNode& node) {
  std::vector<std::shared_ptr<const SparseMatrix>> factors;
  std::vector<const SparseMatrix*> xs, ys;
  for (const auto& branch : node.children()) {
    factors.push_back(Evaluate(branch->children()[0]));
    xs.push_back(factors.back().get());
    factors.push_back(Evaluate(branch->children()[1]));
    ys.push_back(factors.back().get());
  }
  cache_->CountProduct();
  return std::make_shared<SparseMatrix>(
      FaceSplitHadamard(xs, ys, options_.pool));
}

std::shared_ptr<const SparseMatrix> DiagramEvaluator::Evaluate(
    const ExprPtr& node) {
  ACTIVEITER_CHECK(node != nullptr);
  const std::string& sig = node->signature();
  if (auto hit = cache_->Lookup(sig)) return hit;
  // Step matrices (both directions) are precomputed in the RelationContext,
  // so transposing a cached twin would only add work there.
  if (options_.share_transposes &&
      node->kind() != DiagramNode::Kind::kStep) {
    if (auto reverse_hit = cache_->Peek(TransposedSignature(*node))) {
      cache_->CountTransposeHit();
      return cache_->Store(sig, std::make_shared<SparseMatrix>(Transpose(
                                   *reverse_hit, options_.pool)));
    }
  }

  std::shared_ptr<const SparseMatrix> result;
  switch (node->kind()) {
    case DiagramNode::Kind::kStep: {
      // Non-owning alias: step matrices live in the RelationContext, which
      // outlives the evaluator by contract.
      result = std::shared_ptr<const SparseMatrix>(
          std::shared_ptr<const void>(), &ctx_->Get(node->step()));
      break;
    }
    case DiagramNode::Kind::kChain: {
      result = EvaluateChain(*node);
      break;
    }
    case DiagramNode::Kind::kParallel: {
      if (IsFaceSplit(*node)) {
        result = EvaluateFaceSplit(*node);
        break;
      }
      // Builder collapses singleton parallels, so there are >= 2 children;
      // fold the first product directly rather than copying child 0.
      auto first = Evaluate(node->children()[0]);
      auto second = Evaluate(node->children()[1]);
      cache_->CountProduct();
      SparseMatrix m = Hadamard(*first, *second, options_.pool);
      for (size_t i = 2; i < node->children().size(); ++i) {
        cache_->CountProduct();
        m = Hadamard(m, *Evaluate(node->children()[i]), options_.pool);
      }
      result = std::make_shared<SparseMatrix>(std::move(m));
      break;
    }
  }
  return cache_->Store(sig, std::move(result));
}

}  // namespace activeiter
