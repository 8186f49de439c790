// Fuzzes the continuous-service admission layer. Queries arrive at the
// base station as text, so QueryRegistry must turn arbitrary bytes into a
// Status, never an abort, across its whole lifecycle: register, cancel,
// lookup, active-set listing.
//
// Input framing: byte 0 caps the registry (1..8 active queries), then an
// op stream. Each op byte selects register / cancel / lookup / list; a
// register consumes NUL-terminated query text from the tail of the input
// (so the mutator freely splices SQL fragments), cancels and lookups
// target ids derived from the op stream (both live and bogus ids).

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "sensjoin/data/schema.h"
#include "sensjoin/service/query_registry.h"

namespace {

sensjoin::data::Schema FuzzSchema() {
  return sensjoin::data::Schema({{"temp", 2},
                                 {"hum", 2},
                                 {"pres", 2},
                                 {"light", 2},
                                 {"x", 2},
                                 {"y", 2}});
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 2) return 0;
  const size_t max_queries = static_cast<size_t>(data[0] % 8) + 1;
  sensjoin::service::QueryRegistry registry(FuzzSchema(), max_queries);

  // Query texts: the NUL-separated tail of the input, in order.
  std::vector<std::string> texts;
  {
    const char* tail = reinterpret_cast<const char*>(data + 1);
    size_t remaining = size - 1;
    while (remaining > 0 && texts.size() < 16) {
      const size_t len = ::strnlen(tail, remaining);
      texts.emplace_back(tail, len);
      const size_t consumed = len < remaining ? len + 1 : remaining;
      tail += consumed;
      remaining -= consumed;
    }
  }

  std::vector<sensjoin::service::QueryId> ids;
  size_t next_text = 0;
  uint64_t epoch = 0;
  for (size_t i = 1; i < size && i < 64; ++i, ++epoch) {
    const uint8_t op = data[i];
    switch (op % 4) {
      case 0: {  // register
        const std::string& sql =
            texts.empty() ? std::string()
                          : texts[next_text++ % texts.size()];
        auto id = registry.Register(sql, epoch);
        if (id.ok()) ids.push_back(*id);
        break;
      }
      case 1: {  // cancel: live ids and bogus ones
        const sensjoin::service::QueryId target =
            (op & 4) && !ids.empty()
                ? ids[op / 8 % ids.size()]
                : static_cast<sensjoin::service::QueryId>(op);
        (void)registry.Cancel(target, epoch);
        break;
      }
      case 2: {  // lookup
        auto record = registry.Get(
            static_cast<sensjoin::service::QueryId>(op / 4));
        if (record.ok()) (void)(*record)->signature.size();
        break;
      }
      default: {  // list + invariants
        const auto active = registry.ActiveIds();
        if (active.size() != registry.active_count()) __builtin_trap();
        if (active.size() > max_queries) __builtin_trap();
        break;
      }
    }
  }
  return 0;
}
