#include "obs/sidecar.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <stdexcept>

#include "util/crc32.hpp"
#include "util/fsync.hpp"
#include "util/little_endian.hpp"

namespace p2pgen::obs {

namespace {

constexpr char kMagic[4] = {'p', '2', 's', 'c'};
constexpr std::uint32_t kVersion = 2;  // 2: the counter block and events
constexpr std::size_t kHeaderBytes = 56;
constexpr std::size_t kCounterBytes = 8;
constexpr std::size_t kCrcBytes = 4;

std::runtime_error damaged(const std::string& path, const std::string& what) {
  return std::runtime_error("sidecar: " + what + " in " + path);
}

}  // namespace

void save_sidecar(const std::string& path, const Sidecar& sidecar) {
  std::string bytes(kHeaderBytes + sidecar.counters.size() * kCounterBytes +
                        sidecar.qtrace.size() * kQueryHopRecordBytes +
                        sidecar.timeline.size() * kTimelinePointRecordBytes +
                        kCrcBytes,
                    '\0');
  auto* const out = reinterpret_cast<unsigned char*>(bytes.data());
  std::memcpy(out, kMagic, sizeof(kMagic));
  util::store_le32(out + 4, kVersion);
  util::store_le64(out + 8, std::bit_cast<std::uint64_t>(sidecar.qtrace_rate));
  util::store_le64(out + 16,
                   std::bit_cast<std::uint64_t>(sidecar.timeline_tick));
  util::store_le32(out + 24, static_cast<std::uint32_t>(kTimelineSeriesCount));
  util::store_le32(out + 28,
                   static_cast<std::uint32_t>(sidecar.counters.size()));
  util::store_le64(out + 32, sidecar.qtrace.size());
  util::store_le64(out + 40, sidecar.timeline.size());
  util::store_le64(out + 48, sidecar.events);
  unsigned char* record = out + kHeaderBytes;
  for (const std::uint64_t value : sidecar.counters) {
    util::store_le64(record, value);
    record += kCounterBytes;
  }
  for (const QueryHopEvent& event : sidecar.qtrace) {
    encode_query_hop(record, event);
    record += kQueryHopRecordBytes;
  }
  for (const TimelinePoint& point : sidecar.timeline) {
    encode_timeline_point(record, point);
    record += kTimelinePointRecordBytes;
  }
  const auto covered = static_cast<std::size_t>(record - out) - sizeof(kMagic);
  util::store_le32(record, util::crc32(out + sizeof(kMagic), covered));
  util::write_file_durably(path, bytes);
}

std::optional<Sidecar> load_sidecar(const std::string& path) {
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return std::nullopt;
  const std::streamoff end = file.tellg();
  if (end < 0) throw damaged(path, "read error");
  std::string bytes(static_cast<std::size_t>(end), '\0');
  file.seekg(0);
  if (!file.read(bytes.data(), static_cast<std::streamsize>(bytes.size()))) {
    throw damaged(path, "read error");
  }
  const auto* const in = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::size_t size = bytes.size();
  if (size < kHeaderBytes + kCrcBytes) throw damaged(path, "truncated header");
  if (std::memcmp(in, kMagic, sizeof(kMagic)) != 0) {
    throw damaged(path, "bad magic");
  }
  if (util::load_le32(in + 4) != kVersion) {
    throw damaged(path, "unsupported version " +
                            std::to_string(util::load_le32(in + 4)));
  }
  if (util::load_le32(in + 24) != kTimelineSeriesCount) {
    throw damaged(path, "timeline series count mismatch");
  }
  // The counts must account for every byte before anything is sized by
  // them: a damaged count is refused here, not allocated.
  const std::uint64_t counters = util::load_le32(in + 28);
  const std::uint64_t hops = util::load_le64(in + 32);
  const std::uint64_t points = util::load_le64(in + 40);
  const std::uint64_t counter_bytes = counters * kCounterBytes;
  const std::uint64_t all = size - kHeaderBytes - kCrcBytes;
  const std::uint64_t body = all - std::min(all, counter_bytes);
  if (counter_bytes > all || hops > body / kQueryHopRecordBytes ||
      points != (body - hops * kQueryHopRecordBytes) /
                    kTimelinePointRecordBytes ||
      (body - hops * kQueryHopRecordBytes) % kTimelinePointRecordBytes != 0) {
    throw damaged(path, "record counts that do not match the file size");
  }
  if (util::load_le32(in + size - kCrcBytes) !=
      util::crc32(in + sizeof(kMagic), size - sizeof(kMagic) - kCrcBytes)) {
    throw damaged(path, "checksum mismatch");
  }

  Sidecar sidecar;
  sidecar.qtrace_rate = std::bit_cast<double>(util::load_le64(in + 8));
  sidecar.timeline_tick = std::bit_cast<double>(util::load_le64(in + 16));
  sidecar.events = util::load_le64(in + 48);
  sidecar.counters.reserve(counters);
  sidecar.qtrace.reserve(hops);
  sidecar.timeline.reserve(points);
  const unsigned char* record = in + kHeaderBytes;
  for (std::uint64_t i = 0; i < counters; ++i, record += kCounterBytes) {
    sidecar.counters.push_back(util::load_le64(record));
  }
  for (std::uint64_t i = 0; i < hops; ++i, record += kQueryHopRecordBytes) {
    sidecar.qtrace.push_back(decode_query_hop(record));
  }
  for (std::uint64_t i = 0; i < points;
       ++i, record += kTimelinePointRecordBytes) {
    sidecar.timeline.push_back(decode_timeline_point(record));
  }
  return sidecar;
}

}  // namespace p2pgen::obs
