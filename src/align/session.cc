#include "src/align/session.h"

namespace activeiter {

Result<AlignmentSession> AlignmentSession::Create(const Matrix& x,
                                                 const IncidenceIndex& index,
                                                 double c, ThreadPool* pool) {
  if (index.candidate_count() != x.rows()) {
    return Status::InvalidArgument(
        "incidence index size must match feature rows");
  }
  return CreateFromPrepared(
      std::make_shared<RidgePrepared>(RidgePrepared::Create(x, pool)), index,
      c);
}

Result<AlignmentSession> AlignmentSession::CreateFromPrepared(
    std::shared_ptr<RidgePrepared> prepared, const IncidenceIndex& index,
    double c) {
  if (prepared == nullptr) {
    return Status::InvalidArgument("prepared state must be non-null");
  }
  if (index.candidate_count() != prepared->num_rows()) {
    return Status::InvalidArgument(
        "incidence index size must match feature rows");
  }
  auto solver = prepared->SolverFor(c);
  if (!solver.ok()) return solver.status();
  return AlignmentSession(&index, std::move(prepared),
                          std::move(solver).value());
}

void AlignmentSession::ResetPins(std::vector<Pin> pinned) {
  ACTIVEITER_CHECK_MSG(pinned.size() == size(),
                       "pin vector size must match candidate count");
  pinned_ = std::move(pinned);
}

void AlignmentSession::SetPin(size_t link_id, Pin pin) {
  ACTIVEITER_CHECK(link_id < pinned_.size());
  pinned_[link_id] = pin;
}

Status AlignmentProblem::Validate() const {
  if (x == nullptr || index == nullptr) {
    return Status::InvalidArgument("AlignmentProblem pointers must be set");
  }
  if (pinned.size() != x->rows()) {
    return Status::InvalidArgument("pin vector size must match feature rows");
  }
  if (index->candidate_count() != x->rows()) {
    return Status::InvalidArgument(
        "incidence index size must match feature rows");
  }
  return Status::OK();
}

Result<AlignmentSession> AlignmentProblem::Prepare(double c,
                                                   ThreadPool* pool) const {
  ACTIVEITER_RETURN_IF_ERROR(Validate());
  auto session = AlignmentSession::Create(*x, *index, c, pool);
  if (!session.ok()) return session.status();
  session.value().ResetPins(pinned);
  return session;
}

}  // namespace activeiter
