// The benchmark's correctness oracle for crpm_kvd traffic.
//
// Every value the load generator writes is self-verifying (net/wire.h:
// key, stamp and a CRC). Writes are partitioned: client c only PUTs keys k
// with k % clients == c, with stamps that grow per client, so for its own
// keys a client knows the newest stamp it has had acked. A GET is correct
// when the key is present, the value decodes for that key, and -- for the
// reader's own keys -- the stamp is not older than the one acked last.
// Reads of other clients' keys are checked for integrity only.
#pragma once

#include <cstdint>
#include <vector>

#include "net/wire.h"

namespace perfbench {

class Oracle {
 public:
  Oracle(uint64_t keys, uint32_t clients)
      : clients_(clients), acked_(keys, 0) {}

  // The key client `c` writes in place of `key`: the nearest key it owns.
  uint64_t own(uint64_t key, uint32_t c) const {
    uint64_t k = key - key % clients_ + c;
    return k < acked_.size() ? k : k - clients_;
  }

  // Called by the owner after the server acknowledged its PUT.
  void note_ack(uint64_t key, uint64_t stamp) { acked_[key] = stamp; }

  bool check_get(uint32_t reader, uint64_t key, bool found,
                 const crpm::net::KvVal& v) const {
    uint64_t stamp = 0;
    if (!found || !crpm::net::check_value(v, key, &stamp)) return false;
    return key % clients_ != reader || stamp >= acked_[key];
  }

  uint64_t acked(uint64_t key) const { return acked_[key]; }

 private:
  uint32_t clients_;
  // acked_[k] is touched only by k's owner, so it needs no lock.
  std::vector<uint64_t> acked_;
};

}  // namespace perfbench
