#include "analysis/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <stop_token>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analysis/gaps.hpp"
#include "gnutella/message.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "trace/spool.hpp"
#include "trace/spool_reader.hpp"
#include "trace/trace_io.hpp"

namespace p2pgen::analysis {
namespace {

/// One decoded chunk: up to kDecodeChunkRecords consecutive records of one
/// spool segment, their session ids namespaced by shard exactly like
/// merge_traces, plus what the consumer would otherwise compute per event
/// on the critical path: the canonicalized keyword strings of hop-1
/// queries, and each event's record bytes for the trace digest — the
/// bytes append_event_binary writes and binary_digest folds in.  Query
/// strings stay empty: the analysis reads a query only through its
/// canonical keywords.
struct DecodedChunk {
  std::vector<trace::TraceEvent> events;
  /// The events' records back to back; record i ends at record_ends[i].
  std::string records;
  std::vector<std::size_t> record_ends;
  /// One per hop-1 QUERY, in event order (most events are not one, so
  /// an event-aligned vector would hold mostly empty strings).
  std::vector<std::string> canonical;
  /// What reading the segment found; set on its first chunk only, so the
  /// consumer does the per-segment bookkeeping once, in segment order.
  std::optional<trace::SegmentReadResult> read;
};

/// A segment read and CRC-validated once, waiting to be split into
/// chunks: where each valid payload sits in the segment file, decoded
/// later chunk by chunk from `bytes`, the file mapped while the segment
/// is being split.
struct RawSegment {
  std::string path;
  std::optional<trace::SegmentBytes> bytes;
  std::vector<std::pair<std::size_t, std::size_t>> frames;  // offset, size
  trace::SegmentReadResult read;
  /// The read (or mapping the bytes again) failed: its first chunk
  /// rethrows this.
  std::exception_ptr error;
  std::size_t chunks = 0;  // at least one, to carry `read` or `error`

  /// Maps the file again when the frames were validated ahead of time.
  /// A file cut below what the read validated becomes an error.
  void map() noexcept {
    if (bytes || error) return;
    try {
      bytes.emplace(path);
      if (bytes->size() < read.valid_end) {
        throw trace::TraceIoError(
            "spool: segment shrank after validation: " + path,
            read.valid_end);
      }
    } catch (...) {
      error = std::current_exception();
    }
  }
};

/// Reads and CRC-validates segment `index` of `reader` once.  Never
/// throws: a read error is kept in the result and rethrown by the decode
/// of its first chunk.  `records_hint` is the record count of the shard's
/// previous segment: every segment but the last holds the same number, so
/// reserving it skips the vector's doubling regrowths.
std::unique_ptr<RawSegment> read_raw_segment(const trace::SpoolReader& reader,
                                             std::size_t index,
                                             std::size_t records_hint) {
  obs::ObsSpan span("streaming.segment_read");
  auto raw = std::make_unique<RawSegment>();
  raw->path = reader.segment_paths()[index];
  // Salvage mode quarantines CRC-valid frames that do not decode, so it
  // decodes each frame during the read as well.
  const bool salvage = reader.mode() == trace::SpoolReadMode::kSalvage;
  try {
    const trace::SegmentBytes& bytes = raw->bytes.emplace(raw->path);
    raw->frames.reserve(records_hint);
    raw->read = reader.read_segment(
        index, bytes, [&](const std::uint8_t* data, std::size_t size) {
          if (salvage) {
            std::string_view query;
            (void)trace::decode_event_binary(data, size, &query);
          }
          raw->frames.emplace_back(
              static_cast<std::size_t>(data - bytes.data()), size);
        });
  } catch (...) {
    raw->error = std::current_exception();
    raw->frames.clear();
  }
  raw->chunks = std::max<std::size_t>(
      1, (raw->frames.size() + kDecodeChunkRecords - 1) / kDecodeChunkRecords);
  return raw;
}

/// Decodes chunk `chunk` of `raw`, adding `id_base` to every session id.
/// Distinct chunks of one segment read disjoint parts of it, so they may
/// be decoded concurrently.
DecodedChunk decode_chunk(RawSegment& raw, std::size_t chunk,
                          std::uint64_t id_base) {
  obs::ObsSpan span("streaming.chunk_decode");
  if (raw.error) std::rethrow_exception(raw.error);
  DecodedChunk out;
  const std::size_t begin = chunk * kDecodeChunkRecords;
  const std::size_t end =
      std::min(raw.frames.size(), begin + kDecodeChunkRecords);
  std::size_t bytes = 0;
  for (std::size_t i = begin; i < end; ++i) bytes += raw.frames[i].second;
  out.events.reserve(end - begin);
  out.records.reserve(bytes);
  out.record_ends.reserve(end - begin);
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint8_t* data = raw.bytes->data() + raw.frames[i].first;
    const std::size_t size = raw.frames[i].second;
    std::string_view query;
    trace::TraceEvent& event =
        out.events.emplace_back(trace::decode_event_binary(data, size, &query));
    std::visit([id_base](auto& e) { e.session_id += id_base; }, event);
    const auto* msg = std::get_if<trace::MessageEvent>(&event);
    if (msg != nullptr && msg->type == gnutella::MessageType::kQuery &&
        msg->hops == 1) {
      gnutella::canonical_keywords(query, out.canonical.emplace_back());
    }
    // The frame holds exactly the record append_event_binary writes, so
    // it is copied, with the session id namespaced in place.
    const std::size_t at = out.records.size();
    out.records.append(reinterpret_cast<const char*>(data), size);
    char* id = out.records.data() + at + trace::kRecordSessionIdOffset;
    std::uint64_t value = 0;
    std::memcpy(&value, id, sizeof(value));
    value += id_base;
    std::memcpy(id, &value, sizeof(value));
    out.record_ends.push_back(out.records.size());
  }
  if (chunk == 0) out.read = std::move(raw.read);
  return out;
}

/// How many decoded chunks a shard may hold at once: queued (being
/// decoded or ready), the one the consumer is merging, and consumed ones
/// not yet freed all count.  With the one mapped segment a shard may be
/// splitting, this bounds streaming memory at
/// O(shards * (depth * chunk + segment)), independent of spool size.
constexpr std::size_t kPrefetchDepth = 2;

/// Bounded per-shard queues of decoded chunks.  `threads - 1` decoder
/// threads fill them ahead of the consumer and free the chunks it has
/// finished with; whatever the consumer needs that no decoder has taken
/// on yet it reads or decodes inline, so one thread spawns nothing and
/// the pass never uses more than `threads` threads.  A shard splits one
/// raw segment at a time, its chunks claimed in order by whichever thread
/// comes first.  A decoder validates the next segment while the current
/// one is being split, keeping only where its frames are, so the
/// consumer rarely waits for a whole-segment read.  The
/// consumer takes each shard's chunks strictly in (segment, chunk) order,
/// which is what keeps results identical at any thread count: decoders
/// only change WHEN a segment is read or a chunk decoded, never which
/// bytes the consumer sees or in what order.
class ChunkPipeline {
 public:
  ChunkPipeline(const std::vector<std::string>& dirs,
                trace::SpoolReadMode mode, unsigned threads)
      : queues_(dirs.size()) {
    readers_.reserve(dirs.size());
    for (const auto& dir : dirs) readers_.emplace_back(dir, mode);
    for (unsigned t = 1; t < threads; ++t) {
      decoders_.emplace_back(
          [this](std::stop_token stop) { decode_loop(stop); });
    }
  }

  ChunkPipeline(const ChunkPipeline&) = delete;
  ChunkPipeline& operator=(const ChunkPipeline&) = delete;

  ~ChunkPipeline() { stop(); }

  const trace::SpoolReader& reader(std::size_t shard) const {
    return readers_[shard];
  }

  /// Frees the chunk `chunk` holds for `shard` (if any) and moves the
  /// shard's next chunk into it.  False once the shard is exhausted.  A
  /// read or decode error is rethrown when the consumer reaches the chunk
  /// that holds it (a segment's read error: its first chunk) — the same
  /// error, in the same order, as a one-thread pass.
  bool next(std::size_t shard, DecodedChunk& chunk) {
    std::unique_lock lock(mu_);
    ShardQueue& q = queues_[shard];
    if (q.holding) {
      q.holding = false;
      if (decoders_.empty()) {
        chunk = DecodedChunk{};
        release(q);
      } else {
        garbage_.emplace_back(shard, std::move(chunk));
        work_cv_.notify_one();
      }
    }
    for (;;) {
      if (!q.queued.empty()) {
        ready_cv_.wait(lock, [&q] { return q.queued.front().done; });
        QueuedChunk front = std::move(q.queued.front());
        q.queued.pop_front();
        if (front.error) std::rethrow_exception(front.error);
        chunk = std::move(front.chunk);
        q.holding = true;
        return true;
      }
      // Nothing queued: every chunk claimed so far is decoded, so a raw
      // segment left still has chunks nobody has claimed.
      if (q.raw == nullptr) {
        if (q.reading) {
          ready_cv_.wait(lock,
                         [&q] { return !q.reading || !q.queued.empty(); });
          continue;
        }
        if (q.next_segment >= readers_[shard].segment_count()) return false;
        read(shard, lock);
        continue;
      }
      if (q.held >= kPrefetchDepth) {
        // Only this shard's consumed chunks can fill the bound here.
        // Free one inline rather than wait for a decoder busy elsewhere;
        // if a decoder is already freeing it, wait for that — or for the
        // chunks other decoders may claim as soon as it is freed, which
        // only this consumer can release again.
        const auto it = std::find_if(
            garbage_.begin(), garbage_.end(),
            [shard](const auto& item) { return item.first == shard; });
        if (it == garbage_.end()) {
          ready_cv_.wait(lock, [&q] {
            return q.held < kPrefetchDepth || !q.queued.empty();
          });
          continue;
        }
        DecodedChunk doomed = std::move(it->second);
        garbage_.erase(it);
        lock.unlock();
        doomed = DecodedChunk{};
        lock.lock();
        release(q);
        continue;
      }
      chunk = decode(shard, lock);
      q.holding = true;
      return true;
    }
  }

  /// Stops the decoders once they have freed every consumed chunk, and
  /// joins them.  Idempotent; also runs on every exit path via the
  /// destructor.
  void stop() {
    for (auto& decoder : decoders_) decoder.request_stop();
    decoders_.clear();
  }

  /// High-water count of decoded chunks alive at once, all shards.
  std::uint64_t max_alive() const {
    std::lock_guard lock(mu_);
    return max_alive_;
  }

 private:
  /// A chunk a decoder claimed, queued in its shard's (segment, chunk)
  /// order.
  struct QueuedChunk {
    bool done = false;
    DecodedChunk chunk;
    std::exception_ptr error;
  };

  struct ShardQueue {
    std::deque<QueuedChunk> queued;
    /// The segment being split, from the end of its read until its last
    /// chunk is decoded.
    std::unique_ptr<RawSegment> raw;
    /// The next segment, validated while `raw` is split and not mapped
    /// until it takes `raw`'s place.
    std::unique_ptr<RawSegment> ahead;
    std::size_t next_chunk = 0;    // next chunk of `raw` nobody has claimed
    std::size_t undecoded = 0;     // chunks of `raw` not yet decoded
    bool reading = false;          // a thread is reading the next segment
    std::size_t next_segment = 0;  // next segment index nobody has read
    std::size_t held = 0;          // chunks counted against kPrefetchDepth
    std::size_t records_hint = 0;  // record count of the latest read
    bool holding = false;          // the consumer holds one of `held`
  };

  void claim(ShardQueue& q) {
    ++q.held;
    ++alive_;
    max_alive_ = std::max(max_alive_, alive_);
  }

  void release(ShardQueue& q) {
    --q.held;
    --alive_;
  }

  /// Whether a thread may read shard `s`'s next segment now.  Reads do
  /// not count against kPrefetchDepth: they fill the shard's raw-segment
  /// slot or its read-ahead slot.
  bool readable(std::size_t s) const {
    const ShardQueue& q = queues_[s];
    return !q.reading && q.ahead == nullptr &&
           q.next_segment < readers_[s].segment_count();
  }

  /// Whether a thread may claim shard `s`'s next chunk now.
  bool decodable(std::size_t s) const {
    const ShardQueue& q = queues_[s];
    return q.raw != nullptr && q.held < kPrefetchDepth &&
           q.next_chunk < q.raw->chunks;
  }

  /// The shard with work to claim whose queue is shortest (lowest index
  /// on ties), or queues_.size() when there is none.
  std::size_t most_starved() const {
    std::size_t best = queues_.size();
    for (std::size_t s = 0; s < queues_.size(); ++s) {
      if (!readable(s) && !decodable(s)) continue;
      if (best == queues_.size() ||
          queues_[s].queued.size() < queues_[best].queued.size()) {
        best = s;
      }
    }
    return best;
  }

  /// Makes `raw` the segment shard queue `q` splits, mapping it again if
  /// it was read ahead.
  void split(ShardQueue& q, std::unique_ptr<RawSegment> raw) {
    raw->map();
    q.next_chunk = 0;
    q.undecoded = raw->chunks;
    q.raw = std::move(raw);
  }

  /// Reads and validates shard `s`'s next segment into its raw slot, or
  /// into its read-ahead slot if a segment is still being split.  Called
  /// and returns with `lock` held; reads with it released.
  void read(std::size_t s, std::unique_lock<std::mutex>& lock) {
    ShardQueue& q = queues_[s];
    const std::size_t index = q.next_segment++;
    const std::size_t hint = q.records_hint;
    q.reading = true;
    lock.unlock();
    std::unique_ptr<RawSegment> raw = read_raw_segment(readers_[s], index, hint);
    lock.lock();
    q.reading = false;
    q.records_hint = raw->frames.size();
    if (q.raw == nullptr) {
      split(q, std::move(raw));
      work_cv_.notify_all();  // its chunks may be claimed now
    } else {
      raw->bytes.reset();  // mapped again when its turn comes
      q.ahead = std::move(raw);
    }
    ready_cv_.notify_one();  // the consumer may be waiting for the read
  }

  /// Claims shard `s`'s next chunk and decodes it, freeing the raw
  /// segment after its last chunk.  Called and returns with `lock` held;
  /// decodes and frees with it released.
  DecodedChunk decode(std::size_t s, std::unique_lock<std::mutex>& lock) {
    ShardQueue& q = queues_[s];
    claim(q);
    RawSegment& raw = *q.raw;
    const std::size_t chunk = q.next_chunk++;
    lock.unlock();
    DecodedChunk out;
    std::exception_ptr error;
    try {
      out = decode_chunk(raw, chunk,
                         static_cast<std::uint64_t>(s) *
                             trace::kShardSessionStride);
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (--q.undecoded == 0) {
      std::unique_ptr<RawSegment> doomed = std::move(q.raw);
      if (q.ahead != nullptr) split(q, std::move(q.ahead));
      lock.unlock();
      doomed.reset();
      lock.lock();
      work_cv_.notify_all();  // the next segment may be split or read now
    }
    if (error) std::rethrow_exception(error);
    return out;
  }

  /// Does one unit of a decoder's work: frees a consumed chunk, or else
  /// reads a segment or decodes a chunk for the most starved shard, a
  /// decode first.  Called and returns with `lock` held.
  void work_one(std::unique_lock<std::mutex>& lock) {
    // Freeing comes first: the consumer's finished chunks are what hold
    // the bound.
    if (!garbage_.empty()) {
      const std::size_t shard = garbage_.back().first;
      DecodedChunk doomed = std::move(garbage_.back().second);
      garbage_.pop_back();
      lock.unlock();
      doomed = DecodedChunk{};
      lock.lock();
      release(queues_[shard]);
      ready_cv_.notify_one();
      return;
    }
    const std::size_t shard = most_starved();
    if (!decodable(shard)) {
      read(shard, lock);
      return;
    }
    // Deque elements stay put on push_back, and the consumer never pops
    // a chunk before it is done, so `slot` outlives the decode.
    QueuedChunk& slot = queues_[shard].queued.emplace_back();
    try {
      slot.chunk = decode(shard, lock);
    } catch (...) {
      slot.error = std::current_exception();
    }
    slot.done = true;
    ready_cv_.notify_one();
  }

  void decode_loop(std::stop_token stop) {
    std::unique_lock lock(mu_);
    for (;;) {
      work_cv_.wait(lock, stop, [this] {
        return !garbage_.empty() || most_starved() < queues_.size();
      });
      // Freeing continues after a stop; claiming new work does not.
      if (stop.stop_requested() && garbage_.empty()) return;
      work_one(lock);
    }
  }

  std::vector<trace::SpoolReader> readers_;
  mutable std::mutex mu_;
  std::condition_variable ready_cv_;     // consumer: a read, decode or free
  std::condition_variable_any work_cv_;  // decoders: work to do
  std::vector<ShardQueue> queues_;
  /// Consumed chunks awaiting a decoder to free them, tagged by shard.
  std::vector<std::pair<std::size_t, DecodedChunk>> garbage_;
  std::uint64_t alive_ = 0;
  std::uint64_t max_alive_ = 0;
  /// Last member: destroyed (stopped and joined) before the state above.
  std::vector<std::jthread> decoders_;
};

/// Per-shard merge state of the consumer.
struct ShardCursor {
  DecodedChunk chunk;                 // the chunk being merged
  std::size_t position = 0;           // list position of the next segment
  std::size_t event_pos = 0;          // position within `chunk`
  std::size_t canonical_pos = 0;      // next entry of chunk.canonical
  std::uint64_t records = 0;          // events in the chunks taken so far
  /// Time of chunk.events[event_pos]; +inf once the shard is exhausted.
  double head_time = std::numeric_limits<double>::infinity();
  bool torn = false;                  // spool ended in a torn tail
  /// Salvage mode: the shard's gap accounting, fed one segment at a time
  /// in index order as the consumer takes their first chunks.
  trace::SalvageAssembler assembler;
};

/// One reconstructed session plus its SessionStart sequence number — the
/// emission key that reproduces the materialized dataset's vector order.
struct TrackedSession {
  ObservedSession session;
  bool open = true;  // no SessionEnd consumed yet
};

/// The whole streaming pass.  A class only to keep the state shared by
/// the merge consumer and the emitter in one place.
class StreamingPass {
 public:
  StreamingPass(const std::vector<std::string>& shard_dirs,
                const geo::GeoIpDatabase& geodb,
                const StreamingOptions& options)
      : geodb_(geodb),
        options_(options),
        cursors_(shard_dirs.size()),
        pipeline_(shard_dirs,
                  options.salvage ? trace::SpoolReadMode::kSalvage
                                  : trace::SpoolReadMode::kStrict,
                  options.threads == 0 ? 1 : options.threads) {
    if (!options.shard_records.empty() &&
        options.shard_records.size() != shard_dirs.size()) {
      throw std::invalid_argument(
          "streaming: shard_records names " +
          std::to_string(options.shard_records.size()) + " shards, not " +
          std::to_string(shard_dirs.size()));
    }
    std::string header;
    trace::append_header_binary(header);
    digest_ = trace::fnv1a_update(trace::kFnvOffsetBasis, header.data(),
                                  header.size());
  }

  StreamingResult run() {
    obs::ObsSpan span("streaming.analyze");
    consume_all();
    pipeline_.stop();
    stats_out_.max_decoded_chunks = pipeline_.max_alive();
    return finalize();
  }

 private:
  // ---- chunk intake ------------------------------------------------------

  /// Moves shard `s` on to its next non-empty chunk (or marks it
  /// exhausted), doing the per-segment bookkeeping in index order as each
  /// segment's first chunk arrives.
  void advance(std::size_t s) {
    ShardCursor& cur = cursors_[s];
    cur.event_pos = 0;
    cur.canonical_pos = 0;
    while (pipeline_.next(s, cur.chunk)) {
      cur.records += cur.chunk.events.size();
      if (cur.chunk.read) segment_taken(s, *cur.chunk.read);
      if (!cur.chunk.events.empty()) {
        cur.head_time = trace::event_time(cur.chunk.events.front());
        return;
      }
    }
    cur.head_time = std::numeric_limits<double>::infinity();
    if (!options_.salvage && !options_.shard_records.empty() &&
        cur.records != options_.shard_records[s]) {
      throw std::runtime_error(
          "streaming: completed shard " + std::to_string(s) + " holds " +
          std::to_string(cur.records) + " records, its MANIFEST recorded " +
          std::to_string(options_.shard_records[s]));
    }
  }

  /// The per-segment bookkeeping of shard `s`, in segment index order.
  void segment_taken(std::size_t s, const trace::SegmentReadResult& read) {
    ShardCursor& cur = cursors_[s];
    const std::size_t position = cur.position++;
    ++stats_out_.segments_read;
    if (read.torn && !cur.torn) {
      cur.torn = true;
      ++stats_out_.shards_torn;
    }
    if (options_.salvage) {
      // Feed the shard's gap accounting in segment-index order, missing
      // files included — the exact protocol read_spool_salvage follows,
      // so both paths report identical gaps for identical damage.
      for (const std::size_t hole :
           pipeline_.reader(s).missing_before(position)) {
        cur.assembler.add_missing_segment(trace::spool_segment_name(hole));
      }
      cur.assembler.add_segment(read);
    }
  }

  // ---- deterministic merge consumer ------------------------------------

  void consume_all() {
    for (std::size_t s = 0; s < cursors_.size(); ++s) advance(s);
    for (;;) {
      // merge_traces pops by (time, shard index): scanning shards in
      // ascending index with a strict `<` reproduces that order exactly.
      std::size_t best = cursors_.size();
      double best_time = std::numeric_limits<double>::infinity();
      for (std::size_t s = 0; s < cursors_.size(); ++s) {
        if (cursors_[s].head_time < best_time) {
          best_time = cursors_[s].head_time;
          best = s;
        }
      }
      if (best == cursors_.size()) return;  // all shards exhausted
      ShardCursor& cur = cursors_[best];
      consume_one(cur);
      if (++cur.event_pos < cur.chunk.events.size()) {
        cur.head_time = trace::event_time(cur.chunk.events[cur.event_pos]);
      } else {
        advance(best);
      }
    }
  }

  void consume_one(ShardCursor& cur) {
    const DecodedChunk& chunk = cur.chunk;
    const trace::TraceEvent& event = chunk.events[cur.event_pos];

    // Fold the record bytes into the running binary_digest stream.
    const std::size_t record_begin =
        cur.event_pos == 0 ? 0 : chunk.record_ends[cur.event_pos - 1];
    digest_ = trace::fnv1a_update(digest_, chunk.records.data() + record_begin,
                                  chunk.record_ends[cur.event_pos] -
                                      record_begin);
    ++events_;

    // Table-1 counters (Trace::stats(), one event at a time).
    const double t = trace::event_time(event);
    if (first_event_) {
      stats_.first_time = t;
      first_event_ = false;
    }
    stats_.first_time = std::min(stats_.first_time, t);
    stats_.last_time = std::max(stats_.last_time, t);

    if (const auto* start = std::get_if<trace::SessionStart>(&event)) {
      ++stats_.direct_connections;
      if (start->ultrapeer) {
        ++stats_.ultrapeer_connections;
      } else {
        ++stats_.leaf_connections;
      }
      on_session_start(*start);
    } else if (const auto* msg = std::get_if<trace::MessageEvent>(&event)) {
      switch (msg->type) {
        case gnutella::MessageType::kQuery:
          ++stats_.query_messages;
          if (msg->hops == 1) {
            ++stats_.hop1_queries;
            on_hop1_query(*msg, cur.chunk.canonical[cur.canonical_pos++]);
          }
          break;
        case gnutella::MessageType::kQueryHit:
          ++stats_.queryhit_messages;
          if (msg->hops >= 2) {
            geography_.add_sample({msg->time, geodb_.lookup(msg->source_ip)});
          }
          break;
        case gnutella::MessageType::kPing:
          ++stats_.ping_messages;
          break;
        case gnutella::MessageType::kPong:
          ++stats_.pong_messages;
          if (msg->hops >= 2) {
            geography_.add_sample({msg->time, geodb_.lookup(msg->source_ip)});
            shared_.add_allpeer(msg->shared_files);
          } else {
            shared_.add_onehop(msg->shared_files);
          }
          break;
        case gnutella::MessageType::kBye:
          ++stats_.bye_messages;
          break;
        case gnutella::MessageType::kRouteTableUpdate:
          ++stats_.route_update_messages;
          break;
      }
    } else {
      on_session_end(std::get<trace::SessionEnd>(event));
    }
  }

  // ---- online session reconstruction -----------------------------------

  void on_session_start(const trace::SessionStart& start) {
    const std::uint64_t seq = next_seq_++;
    TrackedSession& tracked = sessions_[seq];
    tracked.session.id = start.session_id;
    tracked.session.start = start.time;
    tracked.session.ip = start.ip;
    tracked.session.region = geodb_.lookup(start.ip);
    tracked.session.ultrapeer = start.ultrapeer;
    tracked.session.user_agent = start.user_agent;
    // Overwrites any older mapping, exactly like build_dataset's index:
    // on a (never simulator-produced) id reuse, later events attach to
    // the newest session and the older one ends up truncated.
    id_index_[start.session_id] = seq;
    ++open_count_;
    stats_out_.max_open_sessions =
        std::max(stats_out_.max_open_sessions, open_count_);
    stats_out_.max_tracked_sessions = std::max(
        stats_out_.max_tracked_sessions,
        static_cast<std::uint64_t>(sessions_.size()));
    if (sessions_.size() > options_.max_tracked_sessions) {
      throw std::runtime_error(
          "streaming: tracked-session table exceeded max_tracked_sessions (" +
          std::to_string(options_.max_tracked_sessions) +
          "); the spool holds more concurrently open sessions than the "
          "configured bound");
    }
  }

  void on_hop1_query(const trace::MessageEvent& msg, std::string& canonical) {
    const auto it = id_index_.find(msg.session_id);
    if (it == id_index_.end()) {
      // The materialized path drops exactly these too: no SessionStart.
      ++stats_out_.unmatched_query_events;
      return;
    }
    ObservedQuery query;
    query.time = msg.time;
    query.canonical = std::move(canonical);
    query.sha1 = msg.sha1;
    query.guid_hash = msg.guid_hash;
    sessions_.at(it->second).session.queries.push_back(std::move(query));
  }

  void on_session_end(const trace::SessionEnd& end) {
    ++end_reason_counts_[static_cast<std::size_t>(end.reason)];
    const auto it = id_index_.find(end.session_id);
    if (it == id_index_.end()) {
      ++stats_out_.unmatched_end_events;
      return;
    }
    TrackedSession& tracked = sessions_.at(it->second);
    tracked.session.end = end.time;
    tracked.session.has_end = true;
    tracked.session.end_reason = end.reason;
    if (tracked.open) {
      tracked.open = false;
      --open_count_;
    }
    drain_emittable();
  }

  /// Emits every ended session at the front of the sequence order.  A
  /// still-open earlier session blocks later ended ones (they stay
  /// tracked), which is what keeps emission in SessionStart order — the
  /// order every order-sensitive accumulator requires.
  void drain_emittable() {
    while (!sessions_.empty()) {
      auto it = sessions_.begin();
      if (it->first != next_emit_ || !it->second.session.has_end) return;
      emit(it->second.session);
      erase_tracked(it);
    }
  }

  void erase_tracked(std::map<std::uint64_t, TrackedSession>::iterator it) {
    const auto id_it = id_index_.find(it->second.session.id);
    // Only drop the id mapping if it still points at this session (an id
    // reuse may have repointed it at a newer one).
    if (id_it != id_index_.end() && id_it->second == it->first) {
      id_index_.erase(id_it);
    }
    sessions_.erase(it);
    ++next_emit_;
  }

  /// True when the session overlaps a salvage gap window of its shard
  /// (open-interval, exactly GapIndex::intersects).  During the pass this
  /// peeks at the assembler's in-progress report: a window discovered
  /// later starts at or after this session's end (spool records are in
  /// time order), which the open-interval test can never match — so the
  /// mid-run verdicts equal the materialized path's whole-report pass.
  bool gap_censored(const ObservedSession& session) const {
    if (!options_.salvage) return false;
    const auto shard =
        static_cast<std::size_t>(trace::shard_of_session(session.id));
    if (shard >= cursors_.size()) return false;
    const trace::SalvageReport& report = salvage_finished_
                                             ? shard_salvage_[shard]
                                             : cursors_[shard].assembler.report();
    for (const auto& range : report.ranges) {
      const double after = std::isnan(range.time_after)
                               ? std::numeric_limits<double>::infinity()
                               : range.time_after;
      if (session.end > range.time_before && session.start < after) {
        return true;
      }
    }
    return false;
  }

  /// Runs the per-session tail of the materialized pipeline: the five
  /// filter rules, then every measure accumulator, in SessionStart order.
  /// Sessions overlapping a salvage gap are censored instead: counted,
  /// then dropped before any filter or measure sees them — identical to
  /// censor_dataset() running ahead of apply_filters materialized.
  void emit(ObservedSession& session) {
    if (gap_censored(session)) {
      ++censored_sessions_;
      censored_queries_ += session.queries.size();
      return;
    }
    apply_filters_to_session(session, options_.filters, filter_report_);
    // `stats_.last_time` is only consulted for sessions without an end,
    // which are emitted exclusively by the EOF flush — when it holds the
    // final trace_end.
    geography_.add_session(session, stats_.last_time);
    load_.add_session(session);
    passive_.add_session(session);
    accumulate_session_measures(measures_, session);
    tables_.add_session(session);
  }

  // ---- EOF / result assembly -------------------------------------------

  StreamingResult finalize() {
    // Close the salvage accounting first: the EOF flush below emits
    // still-open sessions whose censor verdict needs the finished gap
    // windows (open ends patched to +inf).
    if (options_.salvage) {
      shard_salvage_.resize(cursors_.size());
      for (std::size_t k = 0; k < cursors_.size(); ++k) {
        shard_salvage_[k] = cursors_[k].assembler.finish();
      }
      salvage_finished_ = true;
    }
    // Sessions still open when the trace stopped: truncate at trace_end
    // and mark removed, exactly like build_dataset's final pass, then
    // flush everything still tracked in sequence order.
    while (!sessions_.empty()) {
      auto it = sessions_.begin();
      ObservedSession& session = it->second.session;
      if (!session.has_end) {
        session.end = stats_.last_time;
        session.removed = true;
      }
      emit(session);
      erase_tracked(it);
    }
    publish_filter_metrics(filter_report_);

    StreamingResult result;
    result.stats = stats_;
    result.trace_digest = digest_;
    result.events = events_;
    result.trace_end = stats_.last_time;
    result.end_reason_counts = end_reason_counts_;
    result.filters = filter_report_;
    result.geography = geography_.finalize();
    result.shared_files = shared_.finalize();
    result.load = load_.finalize();
    result.passive = passive_.finalize();
    result.measures = std::move(measures_);
    {
      obs::ObsSpan span("streaming.fits");
      result.fits = fit_appendix_tables(result.measures, FitSplits{});
      tables_.finalize(stats_.last_time);
      result.model = fit_workload_model_from_parts(
          result.geography, result.passive, result.fits, tables_,
          options_.fallback);
    }
    stats_out_.events = events_;
    result.streaming = stats_out_;

    // Merge the per-shard gap reports in shard order (deterministic at
    // any thread count) and publish — publish_salvage_metrics is a no-op
    // on a clean run, keeping the metric surface identical to strict.
    if (options_.salvage) {
      for (std::size_t k = 0; k < shard_salvage_.size(); ++k) {
        result.salvage.merge_shard(std::move(shard_salvage_[k]),
                                   static_cast<unsigned>(k));
      }
      result.salvage.censored_sessions = censored_sessions_;
      result.salvage.censored_queries = censored_queries_;
      publish_salvage_metrics(result.salvage);
    }

    publish_metrics(result.streaming);
    return result;
  }

  static void publish_metrics(const StreamingStats& s) {
    auto& registry = obs::Registry::global();
    if (!registry.enabled()) return;
    registry.counter("streaming.segments_read").add(s.segments_read);
    registry.counter("streaming.events").add(s.events);
    registry.counter("streaming.shards_torn").add(s.shards_torn);
    registry.counter("streaming.unmatched_query_events")
        .add(s.unmatched_query_events);
    registry.counter("streaming.unmatched_end_events")
        .add(s.unmatched_end_events);
    registry.gauge("streaming.max_open_sessions")
        .record_max(static_cast<std::int64_t>(s.max_open_sessions));
    registry.gauge("streaming.max_tracked_sessions")
        .record_max(static_cast<std::int64_t>(s.max_tracked_sessions));
    registry.gauge("streaming.max_decoded_chunks")
        .record_max(static_cast<std::int64_t>(s.max_decoded_chunks));
  }

  // Inputs.
  const geo::GeoIpDatabase& geodb_;
  const StreamingOptions& options_;
  std::vector<ShardCursor> cursors_;
  ChunkPipeline pipeline_;

  // Merge + digest state.
  std::uint64_t digest_ = trace::kFnvOffsetBasis;
  std::uint64_t events_ = 0;
  trace::TraceStats stats_;
  bool first_event_ = true;
  std::array<std::uint64_t, 4> end_reason_counts_{};

  // Session table: sequence number -> session, plus id -> sequence.
  std::map<std::uint64_t, TrackedSession> sessions_;
  std::unordered_map<std::uint64_t, std::uint64_t> id_index_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_emit_ = 0;
  std::uint64_t open_count_ = 0;

  // Accumulators (the materialized measures' own state, fed per session).
  FilterReport filter_report_;
  GeographyAccumulator geography_;
  SharedFilesAccumulator shared_;
  LoadAccumulator load_;
  PassiveAccumulator passive_;
  SessionMeasures measures_;
  DailyQueryTables tables_;
  StreamingStats stats_out_;

  // Salvage censoring state (all inert unless options_.salvage).
  std::vector<trace::SalvageReport> shard_salvage_;  ///< finished reports
  bool salvage_finished_ = false;
  std::uint64_t censored_sessions_ = 0;
  std::uint64_t censored_queries_ = 0;
};

}  // namespace

StreamingResult analyze_spools(const std::vector<std::string>& shard_dirs,
                               const geo::GeoIpDatabase& geodb,
                               const StreamingOptions& options) {
  StreamingPass pass(shard_dirs, geodb, options);
  return pass.run();
}

}  // namespace p2pgen::analysis
