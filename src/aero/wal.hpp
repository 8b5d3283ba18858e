#pragma once

/// \file wal.hpp
/// Write-ahead log + checkpoints for aero::MetadataDb (DESIGN.md §4f).
///
/// Layout under options.dir in a util::DurableFs:
///   wal-<lsn>          append-only segment whose first record has that
///                      LSN (12-digit zero-padded, so lexicographic
///                      order == numeric order)
///   checkpoint-<lsn>   atomic whole-DB snapshot covering records 1..lsn
///
/// Record framing (encode_record):
///   [u32 LE payload length][32-byte raw SHA-256 of payload][payload]
/// The payload is the MetadataDb operation record (a JSON object) plus
/// an "lsn" field. decode_record classifies damage: a buffer that ends
/// mid-frame is TORN (the tail a crash mid-append leaves); a frame
/// whose checksum does not match is CORRUPT. Recovery stops at the
/// first damaged record and keeps the longest valid prefix.
///
/// Protocol: Wal installs itself as the db's WAL hook, so every
/// mutation's record is framed, appended and fsynced BEFORE the state
/// change applies. When a checkpoint falls due it is taken at the START
/// of the next append — at that moment the db state reflects exactly
/// the records already logged — then the segment rotates so no segment
/// ever holds records newer than a later checkpoint. The last two checkpoint generations are retained.

#include <cstdint>
#include <functional>
#include <string>

#include "aero/metadata_db.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/durable_fs.hpp"

namespace osprey::aero {

struct WalOptions {
  std::string dir = "aero-wal";
  /// Appends between automatic checkpoints; 0 disables (explicit
  /// checkpoint() still works).
  std::uint64_t checkpoint_every = 0;
};

enum class DecodeStatus { kOk, kTorn, kCorrupt };

struct DecodedRecord {
  DecodeStatus status = DecodeStatus::kTorn;
  std::string payload;        // valid when status == kOk
  std::size_t consumed = 0;   // frame bytes consumed when status == kOk
};

/// Frame one payload: [u32 LE length][raw SHA-256][payload].
std::string encode_record(const std::string& payload);
/// Decode the frame starting at `offset`; never throws.
DecodedRecord decode_record(const std::string& buffer, std::size_t offset);

struct RecoveryStats {
  bool checkpoint_loaded = false;
  std::uint64_t checkpoint_lsn = 0;  // 0 = recovered from genesis
  std::uint64_t replayed = 0;        // WAL records applied after the checkpoint
  std::uint64_t torn = 0;            // records discarded as torn
  std::uint64_t corrupt = 0;         // records rejected by checksum/consistency
  std::uint64_t next_lsn = 1;        // LSN the next append will get
};

class Wal {
 public:
  /// `fs` and `metrics` must outlive the Wal. The tracer is optional
  /// (nullptr = no trace events). `now_ns` supplies virtual time for
  /// trace events; unset records them at t=0.
  Wal(osprey::util::DurableFs& fs, WalOptions options,
      obs::MetricsRegistry& metrics,
      obs::TraceRecorder* tracer = nullptr,
      std::function<std::uint64_t()> now_ns = {});
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Restore `db` from the newest valid checkpoint plus the WAL tail
  /// (longest valid prefix; torn/corrupt tails are truncated away),
  /// then install the write-ahead hook so subsequent mutations are
  /// logged. On an empty directory this is a fresh start. `db` must be
  /// freshly constructed (recovery replays uuid draws from genesis) and
  /// must outlive the Wal; any version listener attached to it stays
  /// armed. Never throws on damaged logs — damage is counted in the
  /// returned stats.
  RecoveryStats recover(MetadataDb& db);

  /// Snapshot the full db now (covering every record logged so far),
  /// rotate to a fresh segment, and prune old generations. Requires a
  /// prior recover().
  void checkpoint();

  std::uint64_t next_lsn() const { return next_lsn_; }

 private:
  void on_record(osprey::util::Value&& record);
  void write_checkpoint(std::uint64_t lsn);
  void prune(std::uint64_t keep_from_lsn);
  std::string segment_path(std::uint64_t start_lsn) const;
  std::string checkpoint_path(std::uint64_t lsn) const;

  osprey::util::DurableFs& fs_;
  WalOptions options_;
  MetadataDb* db_ = nullptr;
  std::uint64_t next_lsn_ = 1;
  std::uint64_t appends_since_checkpoint_ = 0;
  std::string current_segment_;

  obs::TraceRecorder* tracer_ = nullptr;
  std::function<std::uint64_t()> now_ns_;
  obs::Counter& appends_;
  obs::Counter& fsyncs_;
  obs::Counter& checkpoints_;
  obs::Counter& replayed_;
  obs::Counter& torn_;
  obs::Counter& corrupt_;
  obs::Counter& recoveries_;
};

}  // namespace osprey::aero
