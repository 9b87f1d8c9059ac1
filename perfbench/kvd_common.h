// Service configuration shared by the crpm_kvd workloads.
#pragma once

#include <cstdint>
#include <string>

#include "net/kv_service.h"

namespace perfbench {

// `crpm_kvd serve --archive-tier` at its defaults (8 ms checkpoint
// interval, one async worker, 256 MiB at 1M keys), in `dir`.
crpm::net::KvService::Config kvd_config(const std::string& dir,
                                        uint64_t keys);

}  // namespace perfbench
