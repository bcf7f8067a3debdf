#include "cloud/objectstore.h"

namespace fsd::cloud {

Status ObjectStore::CreateBucket(const std::string& name) {
  if (buckets_.contains(name)) {
    return Status::AlreadyExists("bucket exists: " + name);
  }
  Bucket bucket;
  bucket.put_limiter =
      std::make_unique<RateLimiter>(latency_->object_put_rps_per_bucket);
  bucket.get_limiter =
      std::make_unique<RateLimiter>(latency_->object_get_rps_per_bucket);
  bucket.list_limiter =
      std::make_unique<RateLimiter>(latency_->object_list_rps_per_bucket);
  buckets_.emplace(name, std::move(bucket));
  return Status::OK();
}

bool ObjectStore::BucketExists(const std::string& name) const {
  return buckets_.contains(name);
}

ObjectStore::Bucket* ObjectStore::Find(const std::string& name) {
  auto it = buckets_.find(name);
  return it == buckets_.end() ? nullptr : &it->second;
}

const ObjectStore::Bucket* ObjectStore::Find(const std::string& name) const {
  auto it = buckets_.find(name);
  return it == buckets_.end() ? nullptr : &it->second;
}

ObjectStore::PutOutcome ObjectStore::Put(const std::string& bucket,
                                         const std::string& key, Bytes body) {
  PutOutcome outcome;
  Bucket* b = Find(bucket);
  if (b == nullptr) {
    outcome.status = Status::NotFound("no such bucket: " + bucket);
    return outcome;
  }
  billing_->Record(BillingDimension::kObjectPut, 1);
  const double queueing = b->put_limiter->AdmissionDelay(sim_->Now());
  const double latency =
      queueing + latency_->object_put.Sample(&rng_, body.size());
  outcome.latency = latency;
  const double visible_at = sim_->Now() + latency;
  // Last-writer-wins at visibility time, matching S3 semantics closely
  // enough for the overwrite-free workloads FSD generates.
  b->objects[key] = StoredObject{std::move(body), visible_at};
  outcome.status = Status::OK();
  return outcome;
}

ObjectStore::GetOutcome ObjectStore::Get(const std::string& bucket,
                                         const std::string& key) {
  GetOutcome outcome;
  Bucket* b = Find(bucket);
  if (b == nullptr) {
    outcome.status = Status::NotFound("no such bucket: " + bucket);
    return outcome;
  }
  billing_->Record(BillingDimension::kObjectGet, 1);
  auto it = b->objects.find(key);
  if (it == b->objects.end() || it->second.visible_at > sim_->Now()) {
    // A failed GET still consumed a request; bill then fail.
    outcome.latency = latency_->object_get.Sample(&rng_, 0);
    outcome.status = Status::NotFound("no such key: " + key);
    return outcome;
  }
  const double queueing = b->get_limiter->AdmissionDelay(sim_->Now());
  outcome.latency =
      queueing + latency_->object_get.Sample(&rng_, it->second.body.size());
  outcome.body = it->second.body;
  outcome.status = Status::OK();
  return outcome;
}

Result<Bytes> ObjectStore::GetBlocking(const std::string& bucket,
                                       const std::string& key) {
  GetOutcome outcome = Get(bucket, key);
  sim_->Hold(outcome.latency);
  if (!outcome.status.ok()) return outcome.status;
  return std::move(outcome.body);
}

Result<std::vector<ObjectMeta>> ObjectStore::List(const std::string& bucket,
                                                  const std::string& prefix) {
  Bucket* b = Find(bucket);
  if (b == nullptr) return Status::NotFound("no such bucket: " + bucket);
  std::vector<ObjectMeta> out;
  const double now = sim_->Now();
  for (auto it = b->objects.lower_bound(prefix); it != b->objects.end();
       ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    if (it->second.visible_at > now) continue;
    out.push_back({it->first, it->second.body.size()});
  }
  const uint64_t pages =
      std::max<uint64_t>(1, (out.size() + kListPageSize - 1) / kListPageSize);
  billing_->Record(BillingDimension::kObjectList, static_cast<double>(pages));
  double latency = 0.0;
  for (uint64_t p = 0; p < pages; ++p) {
    latency += b->list_limiter->AdmissionDelay(sim_->Now()) +
               latency_->object_list.Sample(&rng_);
  }
  sim_->Hold(latency);
  return out;
}

Status ObjectStore::Delete(const std::string& bucket, const std::string& key) {
  Bucket* b = Find(bucket);
  if (b == nullptr) return Status::NotFound("no such bucket: " + bucket);
  b->objects.erase(key);
  return Status::OK();
}

Status ObjectStore::DeleteBucket(const std::string& name) {
  if (buckets_.erase(name) == 0) {
    return Status::NotFound("no such bucket: " + name);
  }
  return Status::OK();
}

uint64_t ObjectStore::TotalBytes() const {
  uint64_t total = 0;
  for (const auto& [name, bucket] : buckets_) {
    for (const auto& [key, object] : bucket.objects) {
      total += object.body.size();
    }
  }
  return total;
}

}  // namespace fsd::cloud
