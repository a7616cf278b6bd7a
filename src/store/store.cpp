#include "store/store.hpp"

#include <cerrno>
#include <stdexcept>

#include <sys/stat.h>
#include <unistd.h>

#include "store/reader.hpp"
#include "util/bytes.hpp"
#include "util/fsio.hpp"
#include "util/json.hpp"

namespace pssp::store {

namespace {

[[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error{"store: " + what};
}

}  // namespace

store_writer store_writer::open(const std::string& dir,
                                const campaign::campaign_spec& spec,
                                bool resume, const writer_options& options) {
    std::string existing;
    const bool present = util::read_file(dir + "/store.json", existing);
    if (resume && !present)
        fail(dir + " holds no result store to resume (missing store.json)");
    if (!resume && present)
        fail("refusing to overwrite existing result store in " + dir +
             " (pass --resume to continue it, or delete it first)");
    if (!present && ::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST)
        fail("cannot create directory " + dir);

    // The manifest's spec is the digest's canonical form: execution knobs
    // (jobs, reuse_masters) never reach the store, so the same campaign
    // writes the same manifest whatever machine shape ran it.
    campaign::campaign_spec canonical = spec;
    canonical.jobs = 1;
    canonical.reuse_masters = true;
    const auto digest = dist::spec_digest(spec);

    store_writer w;
    w.dir_ = dir;
    w.options_ = options;

    if (present) {
        auto data = load_store(dir);  // verifies + repairs segments
        if (data.meta.spec_digest != digest)
            fail(dir + ": spec digest mismatch (store " +
                 std::to_string(data.meta.spec_digest) + ", this run " +
                 std::to_string(digest) +
                 ") — this store belongs to a different campaign");
        w.manifest_ = std::move(data.meta);
        // A completion entry in the log counts even if the manifest flip
        // after it never landed.
        w.manifest_.complete = data.complete;
        w.next_seq_ = data.next_seq;
        for (const auto& r : data.blocks) {
            w.seen_blocks_.insert(r.block.index);
            if (r.seq > w.manifest_.compacted_seq) w.pending_blocks_.push_back(r);
        }
        for (const auto& r : data.rounds) {
            w.seen_rounds_.insert(r.summary.round);
            w.round_entries_ += 1;
            if (r.seq > w.manifest_.compacted_seq) w.pending_rounds_.push_back(r);
        }
        const std::string log_path = dir + "/ingest.log";
        w.log_fd_ = util::open_append(log_path, /*truncate=*/false);
        if (data.dropped_torn_tail) {
            // Cut the torn final line before the first append, or the next
            // entry would be glued onto its bytes.
            util::line_scan_result scan;
            util::scan_lines(log_path, [](std::size_t, std::string_view) {},
                             scan);
            if (::ftruncate(w.log_fd_,
                            static_cast<off_t>(scan.consumed_bytes)) != 0 ||
                ::fsync(w.log_fd_) != 0)
                fail("cannot cut the torn tail of " + log_path);
        }
        return w;
    }

    w.manifest_.spec_digest = digest;
    w.manifest_.spec = std::move(canonical);
    w.write_manifest();
    // A stale ingest.log with no store.json is debris, not progress.
    w.log_fd_ = util::open_append(dir + "/ingest.log", /*truncate=*/true);
    return w;
}

store_writer::store_writer(store_writer&& other) noexcept
    : dir_{std::move(other.dir_)},
      manifest_{std::move(other.manifest_)},
      log_fd_{other.log_fd_},
      next_seq_{other.next_seq_},
      options_{other.options_},
      seen_blocks_{std::move(other.seen_blocks_)},
      seen_rounds_{std::move(other.seen_rounds_)},
      pending_blocks_{std::move(other.pending_blocks_)},
      pending_rounds_{std::move(other.pending_rounds_)},
      rounds_since_compact_{other.rounds_since_compact_},
      round_entries_{other.round_entries_},
      ingested_blocks_{other.ingested_blocks_},
      skipped_blocks_{other.skipped_blocks_} {
    other.log_fd_ = -1;
}

store_writer::~store_writer() {
    if (log_fd_ >= 0) ::close(log_fd_);
}

void store_writer::append_entry(const log_entry& entry) {
    if (manifest_.complete)
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

    const std::uint64_t seq = next_seq_;
    append_entry(log_entry::make_blocks(seq, round, fresh));
    next_seq_ += 1;
    for (auto& b : fresh) {
        seen_blocks_.insert(b.index);
        ingested_blocks_ += 1;
        pending_blocks_.push_back(block_row{seq, round, std::move(b)});
    }
}

void store_writer::ingest_round(const obs::round_summary& summary) {
    if (seen_rounds_.contains(summary.round)) return;

    const std::uint64_t seq = next_seq_;
    append_entry(log_entry::make_round(seq, summary));
    next_seq_ += 1;
    seen_rounds_.insert(summary.round);
    round_entries_ += 1;

    // Keep the *log-decoded* summary, not the live one: its doubles have
    // round-tripped through round_summary_json's fixed formatting, so a
    // later rebuild-from-log re-encodes the segment bit-identically.
    round_row row;
    row.seq = seq;
    row.summary = round_summary_from_json(
        util::parse_json(obs::round_summary_json(summary)));
    pending_rounds_.push_back(std::move(row));

    rounds_since_compact_ += 1;
    if (options_.compact_every_rounds != 0 &&
        rounds_since_compact_ >= options_.compact_every_rounds)
        compact();
}

void store_writer::compact() {
    rounds_since_compact_ = 0;
    if (pending_blocks_.empty() && pending_rounds_.empty()) return;

    segment_info info;
    info.first_seq = manifest_.compacted_seq + 1;
    info.last_seq = next_seq_ - 1;
    info.file = segment_file_name(info.first_seq);
    info.block_rows = pending_blocks_.size();
    info.round_rows = pending_rounds_.size();

    const auto bytes = encode_segment(pending_blocks_, pending_rounds_);
    info.fnv = util::fnv1a64(bytes);
    // Segment first, manifest second: a crash in between leaves a segment
    // the manifest does not reference yet — the rows still come from the
    // log, and the next compaction rewrites the same file name.
    util::write_file_atomic(dir_, info.file, bytes);
    manifest_.compacted_seq = info.last_seq;
    manifest_.segments.push_back(std::move(info));
    write_manifest();

    pending_blocks_.clear();
    pending_rounds_.clear();
}

void store_writer::finalize(const campaign::campaign_report& report,
                            const std::string& metrics_json) {
    const std::uint64_t report_fnv = util::fnv1a64(report.to_json());
    if (manifest_.complete) {
        // A resumed complete store is read-only: the replayed report must
        // be the one the store already vouches for.
        const auto stored = load_store(dir_).done.report_fnv;
        if (stored != report_fnv)
            fail(dir_ + ": report FNV " + std::to_string(report_fnv) +
                 " differs from the stored completion entry's " +
                 std::to_string(stored));
        return;
    }
    compact();
    // Metrics and completion live past the compaction frontier forever:
    // compaction only ever covers block/round rows, so a log scan always
    // finds these two entries in the tail.
    if (!metrics_json.empty()) {
        append_entry(log_entry::make_metrics(next_seq_, metrics_json));
        next_seq_ += 1;
    }
    append_entry(
        log_entry::make_complete(next_seq_, round_entries_, report_fnv));
    next_seq_ += 1;
    manifest_.complete = true;
    write_manifest();
}

void store_writer::write_manifest() const {
    util::write_file_atomic(dir_, "store.json", encode_manifest(manifest_));
}

}  // namespace pssp::store
