// Live query CLI over a campaign result store (src/store/).
//
// Reads a store directory written by `tools_campaign_shard --store DIR`
// — while the campaign is still running or after it finished — and
// answers from the stored integer tallies:
//
//   --table        per-cell aggregate (rates + Wilson CIs), filterable
//   --json         the same aggregate as deterministic JSON
//   --report       reconstruct the full campaign report from the store
//                  alone; on a complete store this is byte-identical to
//                  the report the campaign wrote (ctest -L store `cmp`s
//                  the two)
//   --verify       integrity pass: every log line's hash checked (done
//                  on every load), reconstructed report checked against
//                  the FNV the completion entry recorded
//   --follow       tail the ingest log live, one line per entry, until
//                  the campaign completes
//   --html         self-contained dashboard export
//   --compare DIR  cross-campaign join: cells aligned by
//                  target/scheme/attack across stores
//   --metrics      the final obs registry snapshot stored at finalize

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "store/dashboard.hpp"
#include "store/query.hpp"
#include "util/bytes.hpp"
#include "util/cli.hpp"

namespace {

using namespace pssp;

void usage(const char* argv0) {
    std::fprintf(
        stderr,
        "usage: %s DIR [--table] [--json] [--report [PATH|-]]\n"
        "          [--verify] [--follow] [--html PATH|-] [--metrics]\n"
        "          [--compare DIR]... [--scheme S]... [--attack A]...\n"
        "          [--target T]... [--min-round N] [--max-round N]\n"
        "  DIR            result store written by campaign_shard --store\n"
        "  --table        per-cell aggregate table (default action)\n"
        "  --json         per-cell aggregate as deterministic JSON\n"
        "  --report [P]   reconstruct the campaign report JSON from the\n"
        "                 store ('-' or omitted = stdout); byte-identical\n"
        "                 to the campaign's own --json output once the\n"
        "                 store is complete\n"
        "  --verify       check the reconstructed report against the\n"
        "                 stored completion hash (every log line's own\n"
        "                 hash is checked on load); exit 0 only if the\n"
        "                 store is complete and both hold\n"
        "  --follow       tail the ingest log live until completion\n"
        "  --html PATH    dashboard export ('-' = stdout)\n"
        "  --metrics      print the stored obs registry snapshot\n"
        "  --compare DIR  join additional stores into a head-to-head\n"
        "                 comparison table (repeatable)\n"
        "  --scheme S     filter to scheme S (repeatable; same for\n"
        "                 --attack/--target)\n"
        "  --min-round N / --max-round N  round provenance window\n",
        argv0);
}

bool write_text(const char* path, const std::string& text) {
    if (!std::strcmp(path, "-")) {
        std::fwrite(text.data(), 1, text.size(), stdout);
        return true;
    }
    std::ofstream out{path, std::ios::binary};
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return false;
    }
    out << text;
    return true;
}

void print_entry(const store::log_entry& entry) {
    switch (entry.kind) {
        case store::entry_kind::blocks:
            std::printf("seq %llu: round %llu, %zu block(s)\n",
                        static_cast<unsigned long long>(entry.seq),
                        static_cast<unsigned long long>(entry.round),
                        entry.blocks.size());
            break;
        case store::entry_kind::round: {
            const auto& s = entry.summary;
            std::printf(
                "seq %llu: round %llu summary — %llu blocks, %llu trials "
                "(%llu cumulative), widest CI half-width %.4f (%s)%s\n",
                static_cast<unsigned long long>(entry.seq),
                static_cast<unsigned long long>(s.round),
                static_cast<unsigned long long>(s.blocks),
                static_cast<unsigned long long>(s.trials),
                static_cast<unsigned long long>(s.cumulative_trials),
                s.max_halfwidth, s.widest_cell.c_str(),
                s.resumed ? " [resumed]" : "");
            break;
        }
        case store::entry_kind::metrics:
            std::printf("seq %llu: metrics snapshot (%zu bytes)\n",
                        static_cast<unsigned long long>(entry.seq),
                        entry.metrics.size());
            break;
        case store::entry_kind::complete:
            std::printf("seq %llu: campaign complete — %llu round(s), "
                        "report fnv %016llx\n",
                        static_cast<unsigned long long>(entry.seq),
                        static_cast<unsigned long long>(entry.done.rounds),
                        static_cast<unsigned long long>(entry.done.report_fnv));
            break;
    }
    std::fflush(stdout);
}

int follow(const std::string& dir) {
    store::store_tailer tailer{dir};
    for (;;) {
        const auto entries = tailer.poll();
        for (const auto& e : entries) print_entry(e);
        if (tailer.complete()) return 0;
        ::usleep(100 * 1000);
    }
}

}  // namespace

int main(int argc, char** argv) {
    std::string dir;
    std::vector<std::string> compare_dirs;
    store::query_filter filter;
    bool do_table = false, do_json = false, do_verify = false;
    bool do_follow = false, do_metrics = false;
    const char* report_path = nullptr;
    const char* html_path = nullptr;

    for (int i = 1; i < argc; ++i) {
        auto next_value = [&](const char* flag) -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s needs a value\n", flag);
                usage(argv[0]);
                std::exit(2);
            }
            return argv[++i];
        };
        try {
            if (!std::strcmp(argv[i], "--table")) {
                do_table = true;
            } else if (!std::strcmp(argv[i], "--json")) {
                do_json = true;
            } else if (!std::strcmp(argv[i], "--report")) {
                // Optional value: a following token that is not a flag
                // (a bare "-" means stdout, not a flag).
                report_path = (i + 1 < argc && (argv[i + 1][0] != '-' ||
                                                !std::strcmp(argv[i + 1], "-")))
                                  ? argv[++i]
                                  : "-";
            } else if (!std::strcmp(argv[i], "--verify")) {
                do_verify = true;
            } else if (!std::strcmp(argv[i], "--follow")) {
                do_follow = true;
            } else if (!std::strcmp(argv[i], "--metrics")) {
                do_metrics = true;
            } else if (!std::strcmp(argv[i], "--html")) {
                html_path = next_value("--html");
            } else if (!std::strcmp(argv[i], "--compare")) {
                compare_dirs.push_back(next_value("--compare"));
            } else if (!std::strcmp(argv[i], "--scheme")) {
                store::add_scheme(filter, next_value("--scheme"));
            } else if (!std::strcmp(argv[i], "--attack")) {
                store::add_attack(filter, next_value("--attack"));
            } else if (!std::strcmp(argv[i], "--target")) {
                store::add_target(filter, next_value("--target"));
            } else if (!std::strcmp(argv[i], "--min-round")) {
                filter.min_round =
                    util::parse_count("--min-round", next_value("--min-round"));
            } else if (!std::strcmp(argv[i], "--max-round")) {
                filter.max_round =
                    util::parse_count("--max-round", next_value("--max-round"));
            } else if (argv[i][0] == '-') {
                usage(argv[0]);
                return 2;
            } else if (dir.empty()) {
                dir = argv[i];
            } else {
                std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
                usage(argv[0]);
                return 2;
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "error: %s\n", e.what());
            return 2;
        }
    }
    if (dir.empty()) {
        usage(argv[0]);
        return 2;
    }
    if (!do_table && !do_json && !do_verify && !do_follow && !do_metrics &&
        report_path == nullptr && html_path == nullptr && compare_dirs.empty())
        do_table = true;

    try {
        if (do_follow) return follow(dir);

        const auto data = store::load_store(dir);
        if (data.dropped_torn_tail)
            std::fprintf(stderr,
                         "store %s: dropped a torn final log line (killed "
                         "mid-append)\n",
                         dir.c_str());

        int rc = 0;
        if (do_verify) {
            const auto report = store::reconstruct_report(data);
            const auto fnv = util::fnv1a64(report.to_json());
            if (!data.complete) {
                std::fprintf(stderr,
                             "store %s: INCOMPLETE — campaign still running "
                             "or killed before finalize\n",
                             dir.c_str());
                rc = 1;
            } else if (fnv != data.done.report_fnv) {
                std::fprintf(
                    stderr,
                    "store %s: FAIL — reconstructed report hashes to "
                    "%016llx, completion entry recorded %016llx\n",
                    dir.c_str(), static_cast<unsigned long long>(fnv),
                    static_cast<unsigned long long>(data.done.report_fnv));
                rc = 1;
            } else {
                std::fprintf(stderr,
                             "store %s: OK — %zu block row(s), %zu round(s), "
                             "reconstructed report matches completion hash "
                             "%016llx\n",
                             dir.c_str(), data.blocks.size(),
                             data.rounds.size(),
                             static_cast<unsigned long long>(fnv));
            }
        }
        if (!compare_dirs.empty()) {
            std::vector<store::store_data> stores;
            std::vector<std::string> names;
            stores.push_back(data);
            names.push_back(dir);
            for (const auto& d : compare_dirs) {
                stores.push_back(store::load_store(d));
                names.push_back(d);
            }
            std::printf("%s\n",
                        store::comparison_table(stores, names, filter).c_str());
        }
        if (do_table) {
            const auto cells = store::aggregate_cells(data, filter);
            std::printf("%s\n", store::aggregate_table(cells).c_str());
        }
        if (do_json) {
            const auto cells = store::aggregate_cells(data, filter);
            std::printf("%s\n", store::aggregate_json(data, cells).c_str());
        }
        if (do_metrics) {
            if (data.metrics.empty()) {
                std::fprintf(stderr,
                             "store %s holds no metrics snapshot (campaign "
                             "not finalized yet)\n",
                             dir.c_str());
                rc = 1;
            } else {
                std::printf("%s\n", data.metrics.c_str());
            }
        }
        if (report_path != nullptr) {
            const auto report = store::reconstruct_report(data);
            if (!write_text(report_path, report.to_json() + "\n")) return 1;
        }
        if (html_path != nullptr) {
            if (!write_text(html_path, store::render_dashboard(data))) return 1;
            if (std::strcmp(html_path, "-"))
                std::fprintf(stderr, "dashboard written to %s\n", html_path);
        }
        return rc;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
