// Self-checks of the benchmark itself, run by smoke_test.py:
//   * the oracle rejects a value planted with a stale stamp, one planted
//     under the wrong key, and a missing key, and accepts a fresh value;
//   * LedgerKv (lib_balanced's store) reports the same KvMetrics as
//     make_kv(kCrpmDefault, kUnorderedMap) for one op stream (lib_balanced
//     also runs this check before it measures).
#include <cstdio>
#include <memory>

#include "kvd_common.h"
#include "lib_kv.h"
#include "net/client.h"
#include "net/server.h"
#include "oracle.h"
#include "report.h"

namespace perfbench {

using crpm::net::KvVal;
using crpm::net::make_value;

namespace {

bool expect(bool cond, const char* what) {
  std::printf("selftest: %-52s %s\n", what, cond ? "ok" : "FAILED");
  return cond;
}

bool oracle_rejects_planted(const Args& a) {
  const uint64_t keys = 1000;
  const std::string dir = a.work_dir + "/selftest";
  fresh_dir(dir);
  crpm::net::KvService svc(kvd_config(dir, keys));
  for (uint64_t k = 0; k < keys; ++k) svc.put(k, make_value(k, 0));
  crpm::net::ServerConfig nc;
  nc.workers = 1;
  crpm::net::Server server(svc, nc);
  std::string err;
  if (!server.start(&err)) return expect(false, "server start");
  crpm::net::Client cl;
  if (!cl.connect("127.0.0.1", server.port())) return expect(false, "connect");

  Oracle oracle(keys, 2);
  const uint32_t me = 0;
  const uint64_t k = oracle.own(41, me);
  bool ok = true;
  auto client_get = [&](uint64_t key) {
    KvVal v;
    crpm::net::Status st = crpm::net::kOk;
    bool sent = cl.get(key, &v, &st);
    return sent && oracle.check_get(me, key, st == crpm::net::kOk, v);
  };
  ok &= expect(cl.put(k, make_value(k, 5), true, nullptr), "durable PUT acked");
  oracle.note_ack(k, 5);
  ok &= expect(client_get(k), "fresh value accepted");
  svc.put(k, make_value(k, 3));
  ok &= expect(!client_get(k), "stamp older than the acked one rejected");
  svc.put(k, make_value(k + 1, 9));
  ok &= expect(!client_get(k), "value of another key rejected");
  svc.put(k, make_value(k, 6));
  ok &= expect(client_get(k), "newer stamp accepted");
  bool found = false;
  svc.del(k, &found);
  ok &= expect(!client_get(k), "missing key rejected");
  server.stop();
  return ok;
}

}  // namespace

bool selftest(const Args& a) {
  bool ok = oracle_rejects_planted(a);
  ok &= expect(ledger_matches_make_kv(), "LedgerKv counters equal make_kv's");
  return ok;
}

}  // namespace perfbench
