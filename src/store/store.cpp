#include "store/store.hpp"

#include <cerrno>
#include <stdexcept>

#include <sys/stat.h>
#include <unistd.h>

#include "store/reader.hpp"
#include "util/bytes.hpp"
#include "util/fsio.hpp"

namespace pssp::store {

namespace {

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error{"store: " + what};
}

}  // namespace

store_writer store_writer::open(const std::string& dir,
                                const campaign::campaign_spec& spec,
                                bool resume) {
    std::string existing;
    const bool present = util::read_file(dir + "/store.json", existing);
    if (resume && !present)
        fail(dir + " holds no result store to resume (missing store.json)");
    if (!resume && present)
        fail("refusing to overwrite existing result store in " + dir +
             " (pass --resume to continue it, or delete it first)");
    if (!present && ::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
        fail("cannot create directory " + dir);

    const auto digest = dist::spec_digest(spec);
    store_writer w;
    w.dir_ = dir;
    const std::string log_path = dir + "/ingest.log";

    if (present) {
        auto data = load_store(dir);
        if (data.meta.spec_digest != digest)
            fail(dir + ": spec digest mismatch (store " +
                 std::to_string(data.meta.spec_digest) + ", this run " +
                 std::to_string(digest) +
                 ") — this store belongs to a different campaign");
        w.complete_ = data.complete;
        w.report_fnv_ = data.done.report_fnv;
        w.next_seq_ = data.next_seq;
        for (const auto& r : data.blocks) w.seen_blocks_.insert(r.block.index);
        for (const auto& r : data.rounds) w.seen_rounds_.insert(r.summary.round);
        w.loaded_blocks_ = std::move(data.blocks);
        w.log_fd_ = util::open_append(log_path, /*truncate=*/false);
        // Cut the torn final line before the first append, or the next
        // entry would be glued onto its bytes.
        if (data.dropped_torn_tail &&
            (::ftruncate(w.log_fd_, static_cast<off_t>(data.log_bytes)) != 0 ||
             ::fsync(w.log_fd_) != 0))
            fail("cannot cut the torn tail of " + log_path);
        return w;
    }

    // The manifest's spec is the digest's canonical form: execution knobs
    // (jobs, reuse_masters) never reach the store, so the same campaign
    // writes the same manifest whatever machine shape ran it.
    manifest meta;
    meta.spec_digest = digest;
    meta.spec = spec;
    meta.spec.jobs = 1;
    meta.spec.reuse_masters = true;
    util::write_file_atomic(dir, "store.json", encode_manifest(meta));
    // A stale ingest.log with no store.json is debris, not progress.
    w.log_fd_ = util::open_append(log_path, /*truncate=*/true);
    return w;
}

store_writer::store_writer(store_writer&& other) noexcept
    : dir_{std::move(other.dir_)},
      log_fd_{other.log_fd_},
      next_seq_{other.next_seq_},
      complete_{other.complete_},
      report_fnv_{other.report_fnv_},
      seen_blocks_{std::move(other.seen_blocks_)},
      seen_rounds_{std::move(other.seen_rounds_)},
      loaded_blocks_{std::move(other.loaded_blocks_)},
      ingested_blocks_{other.ingested_blocks_},
      skipped_blocks_{other.skipped_blocks_} {
    other.log_fd_ = -1;
}

store_writer::~store_writer() {
    if (log_fd_ >= 0) ::close(log_fd_);
}

void store_writer::append_entry(const log_entry& entry) {
    if (complete_)
        fail(dir_ + " is already complete — refusing to ingest into a "
                    "finished campaign");
    const auto line = encode_log_line(entry);
    const std::string log_path = dir_ + "/ingest.log";
    util::write_all(log_fd_, line, log_path);
    if (::fsync(log_fd_) != 0) fail("fsync failed on " + log_path);
}

void store_writer::ingest_blocks(std::uint64_t round,
                                 std::span<const dist::partial_block> blocks) {
    std::vector<dist::partial_block> fresh;
    fresh.reserve(blocks.size());
    for (const auto& b : blocks) {
        if (seen_blocks_.contains(b.index)) {
            skipped_blocks_ += 1;
            continue;
        }
        fresh.push_back(b);
    }
    if (fresh.empty()) return;

    append_entry(log_entry::make_blocks(next_seq_, round, fresh));
    next_seq_ += 1;
    for (const auto& b : fresh) seen_blocks_.insert(b.index);
    ingested_blocks_ += fresh.size();
}

void store_writer::ingest_round(const obs::round_summary& summary) {
    if (seen_rounds_.contains(summary.round)) return;
    append_entry(log_entry::make_round(next_seq_, summary));
    next_seq_ += 1;
    seen_rounds_.insert(summary.round);
}

void store_writer::finalize(const campaign::campaign_report& report,
                            const std::string& metrics_json) {
    const std::uint64_t report_fnv = util::fnv1a64(report.to_json());
    if (complete_) {
        // A resumed complete store is read-only: the replayed report must
        // be the one the store already vouches for.
        if (report_fnv_ != report_fnv)
            fail(dir_ + ": report FNV " + std::to_string(report_fnv) +
                 " differs from the stored completion entry's " +
                 std::to_string(report_fnv_));
        return;
    }
    if (!metrics_json.empty()) {
        append_entry(log_entry::make_metrics(next_seq_, metrics_json));
        next_seq_ += 1;
    }
    append_entry(
        log_entry::make_complete(next_seq_, seen_rounds_.size(), report_fnv));
    next_seq_ += 1;
    complete_ = true;
    report_fnv_ = report_fnv;
}

}  // namespace pssp::store
