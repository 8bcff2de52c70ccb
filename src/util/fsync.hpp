// p2pgen — the one fsync helper: durable file replacement for the
// checkpoint MANIFEST and the shard sidecars, and the directory syncs of
// the trace spool.  Header-only so the observability and trace layers can
// use it without linking each other.
#pragma once

#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace p2pgen::util {

/// fsyncs the file or directory at `path`.  Best effort: a path that
/// cannot be opened is skipped, as on hosts without fsync.
inline void fsync_path(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

/// Replaces `path` with `bytes` so that a crash leaves the old file or
/// the new one, never a torn one: writes "<path>.tmp", fsyncs it, renames
/// it over `path` and fsyncs the directory.  Throws std::runtime_error
/// when a step fails.
inline void write_file_durably(const std::string& path,
                               std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) throw std::runtime_error("cannot open " + tmp);
  const bool written =
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  if (std::fclose(file) != 0 || !written) {
    throw std::runtime_error("cannot write " + tmp);
  }
  fsync_path(tmp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("cannot rename " + tmp + " to " + path);
  }
  const std::size_t slash = path.find_last_of('/');
  fsync_path(slash == std::string::npos ? "." : path.substr(0, slash + 1));
}

}  // namespace p2pgen::util
