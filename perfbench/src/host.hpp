// Host record stamped into every results file: core count, OpenMP team
// size, ISA flags, and two fixed probes (stream copy bandwidth and an
// FMA-loop rate) written here rather than through the library, so a
// change to la::gemm cannot move them. They are configuration, not gated
// metrics: a run whose probes read low was hit by a noisy neighbour.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// (key, JSON value) pairs describing the host, including the two timed
/// probes (about a second; call it after peak RSS is read, since the
/// copy arrays are large).
std::vector<std::pair<std::string, std::string>> host_record();

}  // namespace perfbench
