// The store lib_balanced drives: exactly what
// crpm::make_kv(kCrpmDefault, kUnorderedMap, cfg) builds -- a
// PHashMap<uint64_t, uint64_t> over a CrpmPolicy on a HeapNvmDevice with
// the config's cost model -- behind the same KvBench interface, but keeping
// the Container reachable so the benchmark can read its CrpmStats and the
// device's PersistStats (make_kv's handle exposes only KvMetrics). The
// self-test checks that both report identical KvMetrics for one op stream.
#pragma once

#include <memory>

#include "baselines/crpm_policy.h"
#include "containers/phashmap.h"
#include "nvm/device.h"
#include "workload/kv.h"

namespace perfbench {

class LedgerKv final : public crpm::KvBench {
 public:
  explicit LedgerKv(const crpm::KvConfig& cfg);

  bool insert(uint64_t key, uint64_t value) override {
    return map_->insert(key, value);
  }
  bool get(uint64_t key, uint64_t* value) override {
    return map_->find(key, value);
  }
  void put(uint64_t key, uint64_t value) override { map_->put(key, value); }
  void checkpoint() override { policy_->checkpoint(); }
  crpm::KvMetrics metrics() const override;
  const char* name() const override { return "libcrpm-Default"; }

  crpm::Container& container() { return policy_->container(); }

  // Closes the store and opens it again on the same device: the container
  // recovers its last committed epoch and the map re-attaches to its root.
  void reopen();

 private:
  using Map = crpm::PHashMap<uint64_t, uint64_t, crpm::CrpmPolicy>;

  crpm::CrpmOptions opt_;
  uint64_t buckets_ = 0;
  // Owned here, not by the policy (make_kv's choice), so that reopen() can
  // hand the same device to a new policy.
  std::unique_ptr<crpm::HeapNvmDevice> dev_;
  std::unique_ptr<crpm::CrpmPolicy> policy_;
  std::unique_ptr<Map> map_;
};

// lib_balanced's configuration: `keys` live keys, CostModel::realistic().
crpm::KvConfig lib_config(uint64_t keys);

// Drives make_kv(kCrpmDefault, kUnorderedMap) and a LedgerKv with one op
// stream over 20k keys and returns whether their KvMetrics are equal: the
// proof that lib_balanced still times make_kv's store.
bool ledger_matches_make_kv();

}  // namespace perfbench
