// The request engine: the one implementation of every flow request kind
// (compile, resume, gen, sta, monte_carlo, batch).
//
// Two transports reach it. serve::Server runs it on a pool worker for a
// request read off a socket; `cnfetc` runs it in-process when no
// --server is given. Both hand it the same Request envelope and write
// the same response JSON, so a served result is byte-identical to a
// local one by construction.
#pragma once

#include "serve/protocol.hpp"

namespace cnfet::serve {

/// Runs one flow request and returns its response document (the
/// envelope of protocol.hpp). Never throws: a malformed payload, a
/// parameter beyond RequestLimits or an engine failure comes back as an
/// ok=false response carrying the Diagnostics. The transport-level kinds
/// (ping, stats, shutdown) are answered by the server itself; execute
/// refuses them.
[[nodiscard]] util::json::Value execute(const Request& request);

}  // namespace cnfet::serve
