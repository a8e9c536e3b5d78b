#include "util/fault.h"

#include <chrono>
#include <cstring>
#include <thread>

#include "util/string_util.h"

namespace qmqo {
namespace util {
namespace {

/// splitmix64 finalizer (the same mix Rng::Scramble uses): full-avalanche,
/// so sequential site/key combinations decorrelate.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// FNV-1a over the site name; computed once at Arm time and once per
/// (unarmed-site) lookup miss.
uint64_t HashName(const char* name) {
  uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char* c = name; *c != '\0'; ++c) {
    hash ^= static_cast<uint64_t>(static_cast<unsigned char>(*c));
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// Uniform double in [0, 1) from 64 raw bits (the top 53 bits, scaled by
/// 2^-53).
double ToUniform(uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

}  // namespace

void FaultInjector::Arm(const std::string& site, const FaultSpec& spec) {
  for (size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i].name == site) {
      sites_[i].spec = spec;
      return;
    }
  }
  Site entry;
  entry.name = site;
  entry.name_hash = HashName(site.c_str());
  entry.spec = spec;
  sites_.push_back(std::move(entry));
  counts_.emplace_back(0);
}

const FaultInjector::Site* FaultInjector::Find(const char* site) const {
  // Sites are few (single digits); a linear scan beats hashing the name
  // into a map and keeps the disarmed path allocation-free.
  for (const Site& entry : sites_) {
    if (std::strcmp(entry.name.c_str(), site) == 0) return &entry;
  }
  return nullptr;
}

bool FaultInjector::Decide(const Site& site, uint64_t key) const {
  if (key < static_cast<uint64_t>(site.spec.fail_first)) return true;
  if (site.spec.probability <= 0.0) return false;
  if (site.spec.probability >= 1.0) return true;
  uint64_t bits = Mix(seed_ ^ Mix(site.name_hash ^ Mix(key)));
  return ToUniform(bits) < site.spec.probability;
}

bool FaultInjector::ShouldFail(const char* site, uint64_t key) const {
  for (size_t i = 0; i < sites_.size(); ++i) {
    if (std::strcmp(sites_[i].name.c_str(), site) != 0) continue;
    if (!Decide(sites_[i], key)) return false;
    // A view's sites mirror its parent's in arming order, so index i names
    // the same site all the way up the chain.
    for (const FaultInjector* f = this; f != nullptr; f = f->parent_) {
      f->counts_[i].fetch_add(1, std::memory_order_relaxed);
    }
    if (sites_[i].spec.sleep && sites_[i].spec.latency_ms > 0.0) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          sites_[i].spec.latency_ms));
    }
    return true;
  }
  return false;
}

bool FaultInjector::WouldFail(const char* site, uint64_t key) const {
  const Site* entry = Find(site);
  return entry != nullptr && Decide(*entry, key);
}

Status FaultInjector::MaybeFail(const char* site, uint64_t key) const {
  if (!ShouldFail(site, key)) return Status::OK();
  return Status::Internal(
      StrFormat("injected fault at site '%s' (key %llu)", site,
                static_cast<unsigned long long>(key)));
}

double FaultInjector::LatencyMillis(const char* site) const {
  const Site* entry = Find(site);
  return entry != nullptr ? entry->spec.latency_ms : 0.0;
}

int FaultInjector::Intensity(const char* site) const {
  const Site* entry = Find(site);
  return entry != nullptr ? entry->spec.intensity : 1;
}

uint64_t FaultInjector::HashAt(const char* site, uint64_t key) const {
  const Site* entry = Find(site);
  uint64_t name_hash = entry != nullptr ? entry->name_hash : HashName(site);
  // Distinct stream from Decide's (extra constant) so payload randomness
  // never correlates with firing decisions.
  return Mix(seed_ ^ 0x5bf0363546e35f1dULL ^ Mix(name_hash ^ Mix(key)));
}

int64_t FaultInjector::faults_injected() const {
  int64_t total = 0;
  for (const auto& count : counts_) {
    total += count.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t FaultInjector::FaultCount(const std::string& site) const {
  for (size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i].name == site) {
      return counts_[i].load(std::memory_order_relaxed);
    }
  }
  return 0;
}

std::unique_ptr<FaultInjector> FaultInjector::Scope() const {
  auto view = std::make_unique<FaultInjector>(seed_);
  view->parent_ = this;
  view->sites_ = sites_;
  for (size_t i = 0; i < sites_.size(); ++i) view->counts_.emplace_back(0);
  return view;
}

std::vector<std::pair<std::string, int64_t>> FaultInjector::Counts() const {
  std::vector<std::pair<std::string, int64_t>> out;
  out.reserve(sites_.size());
  for (size_t i = 0; i < sites_.size(); ++i) {
    out.emplace_back(sites_[i].name,
                     counts_[i].load(std::memory_order_relaxed));
  }
  return out;
}

}  // namespace util
}  // namespace qmqo
