#include "src/serve/feature_plane.h"

#include <utility>

namespace activeiter {

FeaturePlane::FeaturePlane(AlignedPair pair,
                           std::vector<AnchorLink> train_anchors,
                           FeatureExtractorOptions options)
    : pair_(std::move(pair)),
      train_anchors_(std::move(train_anchors)),
      extractor_(pair_, train_anchors_, std::move(options)) {}

Status FeaturePlane::Apply(const PairDelta& delta) {
  TraceSpan span(obs_.tracer, "ingest.plane_apply");
  ACTIVEITER_RETURN_IF_ERROR(pair_.ApplyDelta(delta));
  extractor_.NoteDelta(delta);
  return Status::OK();
}

std::vector<size_t> FeaturePlane::Refresh() {
  TraceSpan span(obs_.tracer, "ingest.plane_refresh");
  return extractor_.Refresh();
}

}  // namespace activeiter
