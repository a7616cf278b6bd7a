#include "obs/telemetry.hpp"

#include <cstdio>

namespace pssp::obs {

std::string round_summary_json(const round_summary& round) {
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "{\"round\": %llu, \"blocks\": %llu, \"trials\": %llu, "
                  "\"cumulative_trials\": %llu, \"max_halfwidth\": %.6f, "
                  "\"widest_cell\": \"%s\", \"wall_seconds\": %.3f",
                  static_cast<unsigned long long>(round.round),
                  static_cast<unsigned long long>(round.blocks),
                  static_cast<unsigned long long>(round.trials),
                  static_cast<unsigned long long>(round.cumulative_trials),
                  round.max_halfwidth, round.widest_cell.c_str(),
                  round.wall_seconds);
    std::string json = buf;
    if (!round.shards.empty()) {
        json += ", \"shards\": [";
        for (std::size_t i = 0; i < round.shards.size(); ++i) {
            const auto& s = round.shards[i];
            std::snprintf(buf, sizeof buf,
                          "%s{\"shard\": %u, \"wall\": %.3f, \"user\": %.3f, "
                          "\"sys\": %.3f",
                          i == 0 ? "" : ", ", s.shard, s.wall_seconds,
                          s.user_seconds, s.sys_seconds);
            json += buf;
            // Only network campaigns name workers — local lines unchanged.
            if (!s.worker.empty()) json += ", \"worker\": \"" + s.worker + "\"";
            json += "}";
        }
        json += "]";
    }
    if (round.retries != 0 || round.requeued_blocks != 0 ||
        round.timeouts != 0 || round.evictions != 0 || round.reconnects != 0 ||
        round.resumed) {
        std::snprintf(buf, sizeof buf,
                      ", \"recovery\": {\"retries\": %llu, "
                      "\"requeued_blocks\": %llu, \"timeouts\": %llu",
                      static_cast<unsigned long long>(round.retries),
                      static_cast<unsigned long long>(round.requeued_blocks),
                      static_cast<unsigned long long>(round.timeouts));
        json += buf;
        // Network-transport totals appear only when nonzero, keeping every
        // pre-network summary byte-identical.
        if (round.evictions != 0 || round.reconnects != 0) {
            std::snprintf(buf, sizeof buf,
                          ", \"evictions\": %llu, \"reconnects\": %llu",
                          static_cast<unsigned long long>(round.evictions),
                          static_cast<unsigned long long>(round.reconnects));
            json += buf;
        }
        json += std::string{", \"resumed\": "} +
                (round.resumed ? "true" : "false") + "}";
    }
    json += "}";
    return json;
}

}  // namespace pssp::obs
