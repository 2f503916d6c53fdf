// An independent walk of the hpl-space-v3 byte layout, for tests that craft
// snapshot files: where each field and column lies, and how to recompute
// the segment-directory and whole-file checksums after a patch so the
// patched file reaches the loader's validators instead of its checksum
// checks.  It parses only what serialization.h documents and shares no
// code with the loader.
#ifndef HPL_TESTS_CORE_SNAPSHOT_BYTES_H_
#define HPL_TESTS_CORE_SNAPSHOT_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace hpl::snapshot_bytes {

inline std::uint64_t Fnv1a(std::string_view bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

inline std::uint64_t GetLe(const std::string& bytes, std::size_t at,
                           int width) {
  if (at + static_cast<std::size_t>(width) > bytes.size())
    throw std::out_of_range("snapshot_bytes: read past the end");
  std::uint64_t v = 0;
  for (int i = 0; i < width; ++i)
    v |= std::uint64_t{static_cast<unsigned char>(
             bytes[at + static_cast<std::size_t>(i)])}
         << (8 * i);
  return v;
}

inline void PutLe(std::string& bytes, std::size_t at, std::uint64_t v,
                  int width) {
  for (int i = 0; i < width; ++i)
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<char>(v >> (8 * i));
}

// A byte range [begin, end) of the file.
struct Span {
  std::size_t begin = 0;
  std::size_t end = 0;
};

// A u32 column stored as a u64 count followed by its elements.
struct Counted {
  std::size_t count_at = 0;  // the 8-byte count
  Span payload;
};

struct Layout {
  std::uint32_t processes = 0;
  std::uint64_t classes = 0;
  std::uint64_t pool_events = 0;
  std::uint64_t groups = 0;
  std::size_t built_depth_at = 0;  // u32 frontier field
  // Segment directory, in file order: tag, and where its checksum lies.
  std::vector<std::string> dir_tags;
  std::vector<std::size_t> dir_checksum_at;
  Span pool;
  std::vector<std::size_t> event_at;  // where each pool event begins
  Span links, canon_hash, canon_id;
  Counted proj;
  std::vector<Counted> bucket_offsets, bucket_ids;  // per process
  Counted succ_offsets, succ_classes, succ_events;
  std::vector<std::size_t> group_mask_at;
  std::vector<Counted> group_classes, group_offsets, group_ids;
  std::size_t checksum_at = 0;

  // Payload range of directory column `i` (the range its checksum covers).
  Span DirPayload(std::size_t i) const {
    const Span spans[] = {links,
                          canon_hash,
                          canon_id,
                          proj.payload,
                          succ_offsets.payload,
                          succ_classes.payload,
                          succ_events.payload};
    return spans[i];
  }
};

// Walks a well-formed snapshot.  Throws std::out_of_range on a file that
// does not parse.
inline Layout Parse(const std::string& bytes) {
  Layout l;
  std::size_t at = 8 + 4;  // magic, version
  l.processes = static_cast<std::uint32_t>(GetLe(bytes, at, 4));
  at += 4 + 1 + 1 + 2;  // processes, truncated, canonicalize, reserved
  at += 4 + GetLe(bytes, at, 4);  // system name
  l.classes = GetLe(bytes, at, 8);
  l.pool_events = GetLe(bytes, at + 8, 8);
  l.groups = GetLe(bytes, at + 16, 8);
  l.built_depth_at = at + 24 + 1;
  at += 24 + 1 + 4 + 8 + 4;  // counts, frontier, depth, begin, shift
  const std::uint64_t ncols = GetLe(bytes, at, 4);
  at += 4;
  for (std::uint64_t i = 0; i < ncols; ++i) {
    const std::uint64_t tag_len = GetLe(bytes, at, 4);
    l.dir_tags.push_back(bytes.substr(at + 4, tag_len));
    at += 4 + tag_len + 8 + 4;  // tag, elems, segments
    l.dir_checksum_at.push_back(at);
    at += 8;
  }
  l.pool.begin = at;
  for (std::uint64_t i = 0; i < l.pool_events; ++i) {
    l.event_at.push_back(at);
    at += 4 + 1 + 8 + 4;  // process, kind, message, peer
    at += 4 + GetLe(bytes, at, 4);  // label
  }
  l.pool.end = at;
  const auto span = [&](std::uint64_t n, std::size_t width) {
    const Span s{at, at + n * width};
    at = s.end;
    return s;
  };
  const auto counted = [&] {
    Counted c;
    c.count_at = at;
    const std::uint64_t n = GetLe(bytes, at, 8);
    at += 8;
    c.payload = span(n, 4);
    return c;
  };
  l.links = span(l.classes, 12);
  l.canon_hash = span(l.classes, 8);
  l.canon_id = span(l.classes, 4);
  l.proj = counted();
  for (std::uint32_t p = 0; p < l.processes; ++p) {
    l.bucket_offsets.push_back(counted());
    l.bucket_ids.push_back(counted());
  }
  l.succ_offsets = counted();
  l.succ_classes = counted();
  l.succ_events = counted();
  for (std::uint64_t g = 0; g < l.groups; ++g) {
    l.group_mask_at.push_back(at);
    at += 8;
    l.group_classes.push_back(counted());
    l.group_offsets.push_back(counted());
    l.group_ids.push_back(counted());
  }
  l.checksum_at = at;
  if (at + 8 != bytes.size())
    throw std::out_of_range("snapshot_bytes: trailing bytes");
  return l;
}

// Recomputes the seven directory checksums over `layout`'s payload ranges,
// then the trailing whole-file checksum, in place.  `layout` is the
// unpatched file's: a patch that moves fields leaves the ranges stale, and
// the load then fails structurally instead of on a checksum.
inline void Reseal(std::string& bytes, const Layout& layout) {
  for (std::size_t i = 0; i < layout.dir_checksum_at.size() && i < 7; ++i) {
    const Span s = layout.DirPayload(i);
    PutLe(bytes, layout.dir_checksum_at[i],
          Fnv1a(std::string_view(bytes).substr(s.begin, s.end - s.begin)), 8);
  }
  const std::size_t body = bytes.size() - 8;
  PutLe(bytes, body, Fnv1a(std::string_view(bytes).substr(0, body)), 8);
}

}  // namespace hpl::snapshot_bytes

#endif  // HPL_TESTS_CORE_SNAPSHOT_BYTES_H_
